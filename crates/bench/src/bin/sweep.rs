//! The unified design-space sweep driver.
//!
//! Loads a declarative TOML scenario (see `examples/scenarios/`), expands
//! it into a cartesian grid, runs every point through the simulator on a
//! parallel work-stealing executor, and emits a terminal table plus
//! optional CSV/JSON reports.
//!
//! ```text
//! sweep examples/scenarios/design_space.toml --csv out.csv --json out.json
//! sweep examples/scenarios/topology_sweep.toml   # tori vs switches vs hierarchical
//! sweep scenario.toml --threads 1          # serial run (byte-identical output)
//! sweep scenario.toml --cache-file sweep.cache   # reuse results across processes
//! ```
//!
//! Beyond one-shot runs, the binary hosts the resident sweep service:
//!
//! ```text
//! sweep serve --journal sweep.journal &    # daemon on sweep.journal.sock
//! sweep submit scenario.toml --csv out.csv # run through the warm daemon
//! sweep ctl stats                          # cache occupancy
//! sweep ctl shutdown                       # graceful stop
//! ```

use std::io::{BufRead, BufReader, IsTerminal, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use ace_bench::{header, subheader};
use ace_sweep::protocol::{self, Request, Value};
use ace_sweep::{
    persist, report, CacheFileLock, Fidelity, PointKind, Progress, RunPoint, RunnerOptions,
    Scenario, ServiceOptions, SweepRunner, SweepService,
};
use ace_system::{training_program, SystemConfig, TrainSpec};
use ace_trace::{chrome, RecordingTracer};
use ace_workloads::Program;

struct Args {
    scenario_path: String,
    threads: usize,
    csv: Option<String>,
    json: Option<String>,
    cache_file: Option<String>,
    fidelity: Option<Fidelity>,
    quiet: bool,
    progress: Option<bool>,
    trace: Option<String>,
    attribution: bool,
}

const USAGE: &str = "usage: sweep <scenario.toml> [--threads N] [--csv PATH] [--json PATH] \
                     [--cache-file PATH] [--fidelity exact|analytic|hybrid] [--quiet]\n\
                     \x20      [--progress | --no-progress] [--trace PATH] [--attribution]\n\
                     \x20      sweep serve [--socket PATH] [--journal PATH] [--threads N] \
                     [--cache-file PATH] [--stdio]\n\
                     \x20      sweep submit <scenario.toml> [--socket PATH] [--csv PATH] \
                     [--threads N] [--fidelity F] [--inline]\n\
                     \x20      sweep ctl <stats|shutdown> [--socket PATH]\n\
                     \n\
                     --threads runs N grid cells concurrently (0 = machine\n\
                     parallelism). Each cell is one single-threaded simulation, and\n\
                     reports are byte-identical for every --threads value.\n\
                     \n\
                     --progress renders a live `cells done/total, pts/s, ETA` line on\n\
                     stderr (default: on when stderr is a terminal; --quiet or\n\
                     --no-progress disables it). --trace re-runs the first grid cell\n\
                     with event recording enabled and writes a Chrome/Perfetto\n\
                     trace_event JSON (load it at https://ui.perfetto.dev or\n\
                     chrome://tracing). --attribution appends the per-row bottleneck\n\
                     decomposition columns (attr_*_cycles) to --csv/--json output.\n\
                     \n\
                     --fidelity (or the scenario key `fidelity`) picks the simulation\n\
                     tier: `exact` runs the event-driven executor for every cell (the\n\
                     default), `analytic` the closed-form alpha-beta estimator, and\n\
                     `hybrid` triages the grid analytically and re-simulates only the\n\
                     Pareto frontier plus the top-K% fastest cells per group exactly\n\
                     (scenario key `hybrid_top_pct`, default 10). The CLI flag\n\
                     overrides the scenario. Cache files key rows by fidelity tier, so\n\
                     analytic estimates never alias exact results.\n\
                     \n\
                     `serve` starts the resident daemon: scenarios submitted over the\n\
                     unix socket (default `<journal>.sock`, else `ace-sweep.sock`)\n\
                     reuse the warm in-memory cache, and with --journal every executed\n\
                     cell is flushed to an append-only write-ahead log so a killed\n\
                     daemon resumes mid-grid on restart. `submit` runs one scenario\n\
                     through the daemon (byte-identical CSV to a one-shot run);\n\
                     `ctl stats`/`ctl shutdown` query and stop it. See README\n\
                     \"Sweep service\" for the protocol reference.\n\
                     \n\
                     The scenario's `topologies` axis accepts tori (\"4x2x2\", \"4x8\"),\n\
                     switches (\"switch:16\", \"switch:16@100\"), and hierarchical fabrics\n\
                     (\"hier:4x8\"); see examples/scenarios/topology_sweep.toml.\n\
                     The training-mode `workloads` axis accepts builtins (\"resnet50\",\n\
                     \"gnmt\", \"dlrm\", \"transformer\"), re-parallelized builtins\n\
                     (\"transformer@model\"), and custom TOML models\n\
                     (\"file:my_model.toml\", relative to the scenario file); see\n\
                     examples/scenarios/custom_workload.toml.\n\
                     \n\
                     `mode = \"serving\"` scenarios sweep continuous-batching inference\n\
                     serving instead of training iterations: `arrival_rates` (req/s),\n\
                     `schedules` ([\"gpipe\", \"1f1b\"]) and `microbatches` are grid axes;\n\
                     `arrival` (poisson | bursty:N | trace:file.txt), `stages`,\n\
                     `requests`, `seed`, `prompt_tokens`, `decode_tokens` and\n\
                     `token_budget` shape the request stream. Reports gain per-point\n\
                     ttft_p50/p95/p99, e2e_p50/p95/p99 and goodput_rps columns; see\n\
                     examples/scenarios/serving_sweep.toml.";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut scenario_path = None;
    let mut threads = 0usize;
    let mut csv = None;
    let mut json = None;
    let mut cache_file = None;
    let mut fidelity = None;
    let mut quiet = false;
    let mut progress = None;
    let mut trace = None;
    let mut attribution = false;
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                threads = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
            }
            "--csv" => csv = Some(argv.next().ok_or("--csv needs a path")?),
            "--json" => json = Some(argv.next().ok_or("--json needs a path")?),
            "--cache-file" => cache_file = Some(argv.next().ok_or("--cache-file needs a path")?),
            "--fidelity" => {
                let v = argv.next().ok_or("--fidelity needs a value")?;
                fidelity = Some(v.parse::<Fidelity>()?);
            }
            "--quiet" => quiet = true,
            "--progress" => progress = Some(true),
            "--no-progress" => progress = Some(false),
            "--trace" => trace = Some(argv.next().ok_or("--trace needs a path")?),
            "--attribution" => attribution = true,
            "--help" | "-h" => {
                // Requested help is not an error: usage on stdout, exit 0.
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{USAGE}"))
            }
            other => {
                if scenario_path.replace(other.to_string()).is_some() {
                    return Err(format!("multiple scenario files given\n{USAGE}"));
                }
            }
        }
    }
    let scenario_path = scenario_path.ok_or(USAGE.to_string())?;
    Ok(Args {
        scenario_path,
        threads,
        csv,
        json,
        cache_file,
        fidelity,
        quiet,
        progress,
        trace,
        attribution,
    })
}

/// Re-runs the first grid cell with a [`RecordingTracer`] and renders the
/// events as Chrome `trace_event` JSON. One representative cell keeps the
/// file loadable; tracing the whole grid would interleave unrelated runs
/// on the same tracks.
fn trace_first_point(scenario: &Scenario) -> Result<String, String> {
    let points = ace_sweep::expand(scenario);
    let point = points.first().ok_or("empty grid: nothing to trace")?;
    let tracer = match &point.kind {
        PointKind::Collective {
            engine,
            op,
            payload_bytes,
        } => {
            let (_, tracer) = ace_system::RunSpec::new(
                point.topology,
                engine.to_engine_kind(),
                *op,
                *payload_bytes,
            )
            .conditions(point.conditions.clone())
            .traced()
            .run_traced()
            .map_err(|e| e.to_string())?;
            tracer
        }
        PointKind::Training {
            config,
            workload,
            iterations,
            optimized_embedding,
        } => {
            let workload = workload.instantiate(point.topology.nodes());
            let program = training_program(*config, &workload, *iterations, *optimized_embedding);
            trace_program(*config, program, point)?
        }
        PointKind::Serving {
            config,
            workload,
            spec,
        } => {
            // One representative round: the cold-start prefill the
            // serving loop would simulate first.
            let program =
                ace_serve::first_round_program(&workload.instantiate(point.topology.nodes()), spec)
                    .map_err(|e| format!("trace point: {e}"))?;
            trace_program(*config, program, point)?
        }
    };
    if tracer.dropped() > 0 {
        eprintln!(
            "warning: trace arena overflowed, {} events dropped",
            tracer.dropped()
        );
    }
    Ok(chrome::to_chrome_json(&tracer))
}

/// Runs `program` under the point's conditions with a [`RecordingTracer`].
fn trace_program(
    config: SystemConfig,
    program: Program,
    point: &RunPoint,
) -> Result<RecordingTracer, String> {
    let sim = TrainSpec::new(config, program, point.topology)
        .conditions(point.conditions.clone())
        .tracer(RecordingTracer::new())
        .build()
        .map_err(|e| format!("trace point: {e}"))?;
    Ok(sim.run_with_tracer().1)
}

/// The in-place progress line: `cells done/total (cached), pts/s, ETA`.
/// Rendered on stderr so piped stdout output stays clean; a trailing
/// newline is emitted when the batch completes — including fully warm
/// batches, which arrive already at `done == total`.
fn render_progress(start: std::time::Instant, p: Progress) {
    let mut err = std::io::stderr().lock();
    if p.executed() == 0 {
        // Nothing simulated yet — either the batch just started or every
        // cell was served from the cache. A rate over zero executed cells
        // is meaningless (the old code divided by ~0 and printed an
        // astronomical ETA on fully warm runs); show plain progress.
        let pct = if p.total > 0 {
            100.0 * p.done as f64 / p.total as f64
        } else {
            100.0
        };
        let _ = write!(
            err,
            "\rcells {}/{} ({} cached), {pct:.0}%   ",
            p.done, p.total, p.cached
        );
    } else {
        let secs = start.elapsed().as_secs_f64();
        let pps = p.executed() as f64 / secs.max(1e-9);
        let eta = (p.total.saturating_sub(p.done)) as f64 / pps;
        let _ = write!(
            err,
            "\rcells {}/{} ({} cached), {pps:.1} pts/s, ETA {eta:.0}s   ",
            p.done, p.total, p.cached
        );
    }
    if p.finished() {
        let _ = writeln!(err);
    }
    let _ = err.flush();
}

/// Whether to render live progress given the flags and terminal state.
fn progress_enabled(quiet: bool, flag: Option<bool>) -> bool {
    !quiet && flag.unwrap_or_else(|| std::io::stderr().is_terminal())
}

fn run_oneshot(args: Args) -> Result<(), String> {
    // Relative `file:` workload references resolve against the scenario
    // file's directory, so scenarios ship next to the models they use.
    let mut scenario = Scenario::from_toml_path(&args.scenario_path).map_err(|e| e.to_string())?;
    if let Some(f) = args.fidelity {
        scenario.fidelity = f;
    }
    if let Some(w) = scenario.node_count_warning() {
        eprintln!("warning: {w}");
    }

    if !args.quiet {
        header(&format!(
            "sweep: {} ({} mode, {} fidelity)",
            scenario.name, scenario.mode, scenario.fidelity
        ));
        println!(
            "grid: {} points ({} topologies)",
            ace_sweep::grid_len(&scenario),
            scenario.topologies.len()
        );
    }

    // A persistent cache makes repeated sweeps across processes reuse
    // results: a missing file starts empty, anything else must parse.
    // The lock file (held until the post-run save completes) keeps two
    // concurrent processes from interleaving saves; saves themselves are
    // atomic temp-file + rename.
    let (_lock, runner) = match &args.cache_file {
        Some(path) => {
            let lock = CacheFileLock::acquire(path)?;
            let cache = persist::load_cache(path)?;
            if !args.quiet && !cache.is_empty() {
                println!("cache: {} points loaded from {path}", cache.len());
            }
            (Some(lock), SweepRunner::with_cache(cache))
        }
        None => (None, SweepRunner::new()),
    };
    // Progress defaults on only for interactive stderr; --quiet wins.
    let progress_on = progress_enabled(args.quiet, args.progress);
    let start = std::time::Instant::now();
    let progress: &(dyn Fn(Progress) + Sync) = if progress_on {
        &move |p| render_progress(start, p)
    } else {
        &|_| {}
    };
    let outcome = runner.run_with_progress(
        &scenario,
        RunnerOptions {
            threads: args.threads,
            ..Default::default()
        },
        progress,
    )?;
    // An event scheduled in the past is clamped, not dropped — the run
    // finishes, but its timing is suspect. Surface it instead of burying
    // it in a CSV column nobody reads.
    let clamped = outcome.total_past_schedules();
    if clamped > 0 {
        eprintln!(
            "warning: {clamped} event(s) were scheduled in the past and clamped; \
             affected rows carry nonzero past_schedules"
        );
    }
    if let Some(path) = &args.cache_file {
        persist::save_cache(runner.cache(), path)?;
        if !args.quiet {
            println!("cache: {} points saved to {path}", runner.cache().len());
        }
    }

    if !args.quiet {
        subheader("results");
        println!(
            "{:<52} {:>14} {:>10} {:>9} {:>6}",
            "point", "time us", "GB/s/NPU", "speedup", "cache"
        );
        for r in &outcome.results {
            println!(
                "{:<52} {:>14.3} {:>10.3} {:>9} {:>6}",
                r.point.label(),
                r.metrics.time_us,
                r.metrics.gbps_per_npu,
                r.speedup_vs_baseline
                    .map(|s| format!("{s:.3}x"))
                    .unwrap_or_else(|| "-".to_string()),
                if r.cache_hit { "hit" } else { "" },
            );
        }
        println!(
            "\n{} grid cells, {} simulated, {} cache hits",
            outcome.results.len(),
            outcome.executed,
            outcome.cache_hits
        );
        if outcome.fidelity == Fidelity::Hybrid {
            println!(
                "hybrid prefilter: {} cells triaged analytically, {} re-simulated exactly \
                 ({} exact simulations avoided)",
                outcome.analytic_executed,
                outcome.executed,
                outcome.results.len().saturating_sub(outcome.exact_rows()),
            );
        } else if outcome.fidelity == Fidelity::Analytic {
            println!(
                "analytic tier: {} cells estimated, 0 event-driven simulations",
                outcome.analytic_executed
            );
        }
        let summaries = report::summarize(&outcome);
        if !summaries.is_empty() {
            subheader("per-axis speedup vs baseline");
            print!("{}", report::summary_table(&summaries));
        }
    }

    if let Some(path) = &args.csv {
        let csv = if args.attribution {
            report::to_csv_with_attribution(&outcome)
        } else {
            report::to_csv(&outcome)
        };
        std::fs::write(path, csv).map_err(|e| format!("write {path}: {e}"))?;
        if !args.quiet {
            println!("wrote {path}");
        }
    }
    if let Some(path) = &args.json {
        let json = if args.attribution {
            report::to_json_with_attribution(&outcome)
        } else {
            report::to_json(&outcome)
        };
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        if !args.quiet {
            println!("wrote {path}");
        }
    }
    if let Some(path) = &args.trace {
        std::fs::write(path, trace_first_point(&scenario)?)
            .map_err(|e| format!("write {path}: {e}"))?;
        if !args.quiet {
            println!("wrote trace {path} (load at https://ui.perfetto.dev)");
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// `sweep serve` — the resident daemon.
// ---------------------------------------------------------------------

struct ServeArgs {
    socket: Option<String>,
    journal: Option<String>,
    cache_file: Option<String>,
    threads: usize,
    stdio: bool,
    quiet: bool,
}

fn parse_serve_args(mut argv: impl Iterator<Item = String>) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        socket: None,
        journal: None,
        cache_file: None,
        threads: 0,
        stdio: false,
        quiet: false,
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--socket" => args.socket = Some(argv.next().ok_or("--socket needs a path")?),
            "--journal" => args.journal = Some(argv.next().ok_or("--journal needs a path")?),
            "--cache-file" => {
                args.cache_file = Some(argv.next().ok_or("--cache-file needs a path")?)
            }
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                args.threads = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
            }
            "--stdio" => args.stdio = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown serve argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The socket path convention: explicit `--socket` wins, else
/// `<journal>.sock` next to the journal, else `ace-sweep.sock` in the
/// working directory.
fn default_socket(socket: &Option<String>, journal: &Option<String>) -> PathBuf {
    if let Some(s) = socket {
        return PathBuf::from(s);
    }
    match journal {
        Some(j) => PathBuf::from(format!("{j}.sock")),
        None => PathBuf::from("ace-sweep.sock"),
    }
}

fn run_serve(args: ServeArgs) -> Result<(), String> {
    let mut service = SweepService::open(ServiceOptions {
        threads: args.threads,
        journal: args.journal.as_ref().map(PathBuf::from),
    })?;
    if !args.quiet {
        let (entries, _, _) = service.scheduler().cache().tier_counts();
        if entries > 0 {
            eprintln!("sweep serve: journal replayed {entries} cached cells");
        }
    }
    // An optional cache file seeds the warm cache beyond the journal.
    if let Some(path) = &args.cache_file {
        let lock = CacheFileLock::acquire(path)?;
        let seeded = persist::load_cache(path)?;
        for (t, p, m) in seeded.entries() {
            service.scheduler().cache().insert_tier(t, p, m);
        }
        drop(lock);
    }
    // Finish what a killed predecessor left mid-grid before accepting new
    // work: replayed cells are cache hits, only the remainder executes.
    for (name, result) in service.resume_pending(|_, _| {}) {
        match result {
            Ok(outcome) => eprintln!(
                "sweep serve: resumed '{name}' ({} points, {} executed, {} cache hits)",
                outcome.results.len(),
                outcome.executed,
                outcome.cache_hits
            ),
            Err(e) => eprintln!("sweep serve: resume of '{name}' failed: {e}"),
        }
    }
    let service = Arc::new(service);
    if args.stdio {
        if !args.quiet {
            eprintln!("sweep serve: speaking the protocol on stdin/stdout");
        }
        service.serve_stream(std::io::stdin().lock(), std::io::stdout().lock())?;
    } else {
        let socket = default_socket(&args.socket, &args.journal);
        if !args.quiet {
            eprintln!(
                "sweep serve: listening on {} ({}; stop with `sweep ctl shutdown --socket {0}`)",
                socket.display(),
                args.journal
                    .as_deref()
                    .map(|j| format!("journal {j}"))
                    .unwrap_or_else(|| "no journal".to_string()),
            );
        }
        service.serve_socket(&socket)?;
    }
    // Persist the warm cache for later cold runs, if asked.
    if let Some(path) = &args.cache_file {
        let lock = CacheFileLock::acquire(path)?;
        persist::save_cache(service.scheduler().cache(), path)?;
        drop(lock);
        if !args.quiet {
            eprintln!(
                "sweep serve: saved {} points to {path}",
                service.scheduler().cache().len()
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// `sweep submit` — the daemon client.
// ---------------------------------------------------------------------

struct SubmitArgs {
    scenario_path: String,
    socket: Option<String>,
    csv: Option<String>,
    threads: Option<usize>,
    fidelity: Option<Fidelity>,
    inline: bool,
    quiet: bool,
    progress: Option<bool>,
}

fn parse_submit_args(mut argv: impl Iterator<Item = String>) -> Result<SubmitArgs, String> {
    let mut scenario_path = None;
    let mut args = SubmitArgs {
        scenario_path: String::new(),
        socket: None,
        csv: None,
        threads: None,
        fidelity: None,
        inline: false,
        quiet: false,
        progress: None,
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--socket" => args.socket = Some(argv.next().ok_or("--socket needs a path")?),
            "--csv" => args.csv = Some(argv.next().ok_or("--csv needs a path")?),
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                args.threads = Some(v.parse().map_err(|_| format!("bad thread count '{v}'"))?);
            }
            "--fidelity" => {
                let v = argv.next().ok_or("--fidelity needs a value")?;
                args.fidelity = Some(v.parse::<Fidelity>()?);
            }
            "--inline" => args.inline = true,
            "--quiet" => args.quiet = true,
            "--progress" => args.progress = Some(true),
            "--no-progress" => args.progress = Some(false),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown submit argument {other}\n{USAGE}"))
            }
            other => {
                if scenario_path.replace(other.to_string()).is_some() {
                    return Err(format!("multiple scenario files given\n{USAGE}"));
                }
            }
        }
    }
    args.scenario_path = scenario_path.ok_or(format!("submit needs a scenario file\n{USAGE}"))?;
    Ok(args)
}

fn connect(socket: &Option<String>) -> Result<UnixStream, String> {
    let path = default_socket(socket, &None);
    UnixStream::connect(&path).map_err(|e| {
        format!(
            "cannot connect to sweep daemon at {}: {e} (start one with `sweep serve`)",
            path.display()
        )
    })
}

fn run_submit(args: SubmitArgs) -> Result<(), String> {
    let stream = connect(&args.socket)?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone connection: {e}"))?;

    // By default the daemon reads the scenario by (absolute) path, so
    // relative `file:` workload references resolve exactly as in a
    // one-shot run; --inline ships the TOML text over the wire instead
    // (with the scenario's directory as the resolution base).
    let request = if args.inline {
        let toml = std::fs::read_to_string(&args.scenario_path)
            .map_err(|e| format!("cannot read scenario {}: {e}", args.scenario_path))?;
        let base = Path::new(&args.scenario_path)
            .canonicalize()
            .ok()
            .and_then(|p| p.parent().map(|d| d.to_string_lossy().into_owned()));
        Request::Submit {
            toml: Some(toml),
            path: None,
            base,
            threads: args.threads,
            fidelity: args.fidelity,
        }
    } else {
        let path = Path::new(&args.scenario_path)
            .canonicalize()
            .map_err(|e| format!("cannot resolve scenario {}: {e}", args.scenario_path))?;
        Request::Submit {
            toml: None,
            path: Some(path.to_string_lossy().into_owned()),
            base: None,
            threads: args.threads,
            fidelity: args.fidelity,
        }
    };
    writeln!(writer, "{}", protocol::request_line(&request))
        .map_err(|e| format!("cannot send request: {e}"))?;

    let progress_on = progress_enabled(args.quiet, args.progress);
    let start = std::time::Instant::now();
    let mut cached = 0usize;
    let mut total = 0usize;
    let mut csv: Option<String> = None;
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(|e| format!("daemon connection lost: {e}"))?;
        let map = protocol::parse_object(&line).map_err(|e| format!("bad daemon reply: {e}"))?;
        let event = map
            .get("event")
            .and_then(Value::as_str)
            .ok_or("daemon reply missing \"event\"")?;
        let num = |k: &str| map.get(k).and_then(Value::as_num).unwrap_or(0.0) as usize;
        match event {
            "accepted" => {
                if !args.quiet {
                    header(&format!(
                        "sweep (daemon job {}): {} ({} mode, {} fidelity)",
                        num("job"),
                        map.get("scenario").and_then(Value::as_str).unwrap_or("?"),
                        map.get("mode").and_then(Value::as_str).unwrap_or("?"),
                        map.get("fidelity").and_then(Value::as_str).unwrap_or("?"),
                    ));
                    println!("grid: {} points", num("cells"));
                }
            }
            "batch" => {
                cached = num("cached");
                total = num("queued") + cached;
                if progress_on {
                    render_progress(
                        start,
                        Progress {
                            done: cached,
                            total,
                            cached,
                        },
                    );
                }
            }
            "cell" => {
                if progress_on {
                    render_progress(
                        start,
                        Progress {
                            done: cached + num("index"),
                            total,
                            cached,
                        },
                    );
                }
            }
            "finished" => {
                if !args.quiet {
                    println!(
                        "{} grid cells, {} simulated, {} cache hits",
                        num("points"),
                        num("executed"),
                        num("cache_hits")
                    );
                }
            }
            "stats" => {} // trailing cache occupancy; informational
            "result" => {
                csv = map.get("csv").and_then(Value::as_str).map(str::to_string);
                break;
            }
            "superseded" => {
                return Err("submission superseded by a newer one of the same name".into())
            }
            "failed" => {
                return Err(format!(
                    "job failed: {}",
                    map.get("error").and_then(Value::as_str).unwrap_or("?")
                ))
            }
            "error" => {
                return Err(map
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("daemon error")
                    .to_string())
            }
            other => return Err(format!("unexpected daemon event \"{other}\"")),
        }
    }
    let csv = csv.ok_or("daemon closed the stream without a result")?;
    match &args.csv {
        Some(path) => {
            std::fs::write(path, &csv).map_err(|e| format!("write {path}: {e}"))?;
            if !args.quiet {
                println!("wrote {path}");
            }
        }
        // Without --csv the result goes to stdout, like `--csv /dev/stdout`.
        None => print!("{csv}"),
    }
    Ok(())
}

// ---------------------------------------------------------------------
// `sweep ctl` — daemon control.
// ---------------------------------------------------------------------

fn run_ctl(mut argv: impl Iterator<Item = String>) -> Result<(), String> {
    let action = argv.next().ok_or(format!("ctl needs an action\n{USAGE}"))?;
    let mut socket = None;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--socket" => socket = Some(argv.next().ok_or("--socket needs a path")?),
            other => return Err(format!("unknown ctl argument {other}\n{USAGE}")),
        }
    }
    let request = match action.as_str() {
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(format!(
                "unknown ctl action '{other}' (stats|shutdown)\n{USAGE}"
            ))
        }
    };
    let stream = connect(&socket)?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone connection: {e}"))?;
    writeln!(writer, "{}", protocol::request_line(&request))
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("daemon connection lost: {e}"))?;
    let map = protocol::parse_object(line.trim()).map_err(|e| format!("bad daemon reply: {e}"))?;
    match map.get("event").and_then(Value::as_str) {
        Some("stats") => {
            let num = |k: &str| map.get(k).and_then(Value::as_num).unwrap_or(0.0) as usize;
            println!(
                "cache: {} entries ({} exact, {} analytic)",
                num("entries"),
                num("exact"),
                num("analytic")
            );
        }
        Some("shutdown") => println!("daemon is shutting down"),
        Some(other) => return Err(format!("unexpected daemon event \"{other}\"")),
        None => return Err("daemon reply missing \"event\"".into()),
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("serve") => {
            argv.next();
            run_serve(parse_serve_args(argv)?)
        }
        Some("submit") => {
            argv.next();
            run_submit(parse_submit_args(argv)?)
        }
        Some("ctl") => {
            argv.next();
            run_ctl(argv)
        }
        _ => run_oneshot(parse_args(argv)?),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
