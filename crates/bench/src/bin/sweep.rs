//! The unified design-space sweep driver.
//!
//! Loads a declarative TOML scenario (see `examples/scenarios/`), expands
//! it into a cartesian grid, runs every point through the simulator on
//! `--threads` worker threads, and emits a terminal table plus optional
//! CSV/JSON reports.
//!
//! ```text
//! sweep examples/scenarios/design_space.toml --csv out.csv --json out.json
//! sweep examples/scenarios/topology_sweep.toml   # tori vs switches vs hierarchical
//! sweep scenario.toml --threads 1          # serial run (byte-identical output)
//! sweep scenario.toml --cache-file sweep.cache   # reuse results across processes
//! ```
//!
//! With `--cache-file`, each freshly executed cell is appended to the file
//! as it finishes, so a killed run's rerun simulates only the cells the
//! file lacks; a finished run rewrites the file sorted.

use std::io::{IsTerminal, Write};
use std::process::ExitCode;
use std::sync::Mutex;

use ace_bench::{header, subheader};
use ace_sweep::{
    persist, report, CacheFileLock, Fidelity, Journal, PointKind, Progress, RunPoint,
    RunnerOptions, Scenario, SweepRunner,
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
                     --cache-file loads earlier results from PATH (a missing file\n\
                     starts empty), appends each freshly simulated cell to it as the\n\
                     cell finishes, so a killed run's rerun simulates only the cells\n\
                     the file lacks, and rewrites it sorted when the run ends.\n\
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
            let (_, tracer) =
                ace_system::RunSpec::new(point.topology, *engine, *op, *payload_bytes)
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

fn run(args: Args) -> Result<(), String> {
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
    // concurrent processes from interleaving writes. Opening the file for
    // append first drops the torn row a killed run may have left; each
    // freshly executed cell is then appended as it finishes, and the
    // final save rewrites the file sorted (atomic temp-file + rename).
    let (_lock, journal, runner) = match &args.cache_file {
        Some(path) => {
            let lock = CacheFileLock::acquire(path)?;
            let journal = Journal::open(path)?;
            let cache = persist::load_cache(path)?;
            if !args.quiet && !cache.is_empty() {
                println!("cache: {} points loaded from {path}", cache.len());
            }
            (Some(lock), Some(journal), SweepRunner::with_cache(cache))
        }
        None => (None, None, SweepRunner::new()),
    };
    let journal = Mutex::new(journal);
    // Progress defaults on only for interactive stderr; --quiet wins.
    let progress_on = progress_enabled(args.quiet, args.progress);
    let start = std::time::Instant::now();
    let on_progress = |p: Progress| {
        if let Some((tier, point, metrics)) = p.cell {
            let mut journal = journal.lock().expect("cache-file appends do not panic");
            if let Some(Err(e)) = journal.as_mut().map(|j| j.append_row(tier, point, metrics)) {
                eprintln!("warning: {e}; the remaining cells are saved when the run ends");
                *journal = None;
            }
        }
        if progress_on {
            render_progress(start, p);
        }
    };
    let outcome = runner.run_with_progress(
        &scenario,
        RunnerOptions {
            threads: args.threads,
            ..Default::default()
        },
        &on_progress,
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
        drop(journal);
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

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
