//! `perfbench` — the repository benchmark: host time of the sweep engine
//! end to end (`--trace 0`) and per layer (`--trace 1`) on four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload collective-dse --seed 1 --seconds 28 --trace 0
//! ```
//!
//! Every line but the last is a human-readable note (build provenance, host
//! context, digests, accounting); the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and the metric map.

#![forbid(unsafe_code)]

mod check;
mod host;
mod layers;
mod pass;
mod workload;

use std::collections::HashMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ace_sweep::{
    execute, execute_analytic, expand, grid_len, Metrics, PointKind, RunPoint, SweepRunner, Tier,
};
use ace_system::TrainSpec;

use layers::{Layers, POPS_PER_DISPATCH};
use pass::{cache_file, median, sweep_pass, Pass, SERIAL};
use workload::{error_points, tier, unique_points, Workload, DEFAULT_SEED, HELD_OUT_SEED};

const USAGE: &str = "usage: perfbench --workload <collective-dse|training-suite|serving-tp64|\
                     analytic-scaling> [--seed N|default|held-out] [--seconds N] [--trace 0|1]";

/// Timed passes per run, at least, even when one pass outlasts the budget.
const MIN_PASSES: usize = 2;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 28.0;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::by_name(&v).ok_or(format!("unknown workload '{v}'\n{USAGE}"))?);
            }
            "--seed" => {
                seed = match value()?.as_str() {
                    "default" => DEFAULT_SEED,
                    "held-out" => HELD_OUT_SEED,
                    v => v.parse().map_err(|_| format!("bad seed '{v}'"))?,
                }
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("bad --seconds '{v}'"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace '{v}' (expected 0 or 1)")),
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed,
        seconds,
        trace,
    })
}

/// What one run prints as its last line.
#[derive(Default)]
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    correct: bool,
}

impl Outcome {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // `{:?}` prints the shortest round-trip form with all digits.
                let value = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times set-up — scenario parse + validate, grid expansion, runner
/// construction; returns per-set-up `(parse, expand, total)` samples in
/// reference ms. Each sample averages a batch of set-ups lasting about
/// 10 ms between two calibrations, and batches repeat for about 0.3 s of
/// set-up, so the median is steady even when one set-up takes microseconds.
fn setup_samples(w: &Workload, seed: u64) -> Result<Vec<(f64, f64, f64)>, String> {
    let once = || -> Result<(Duration, Duration, Duration), String> {
        let t0 = Instant::now();
        let sc = w.scenario(seed)?;
        let t1 = Instant::now();
        let points = black_box(expand(&sc));
        let t2 = Instant::now();
        black_box(SweepRunner::new());
        let t3 = Instant::now();
        drop(points);
        Ok((t1 - t0, t2 - t1, t3 - t0))
    };
    let batch = (10.0 / ms(once()?.2).max(1e-3)).ceil().clamp(1.0, 10_000.0) as u32;
    let mut spent = Duration::ZERO;
    let mut samples = Vec::new();
    let mut cal = host::calibrate();
    while samples.len() < 5 || (samples.len() < 101 && spent.as_secs_f64() < 0.3) {
        let mut sum = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for _ in 0..batch {
            let (p, e, t) = once()?;
            sum = (sum.0 + p, sum.1 + e, sum.2 + t);
        }
        spent += sum.2;
        let after = host::calibrate();
        let n = f64::from(batch);
        let r = |d: Duration| host::to_reference(ms(d) / n, cal, after);
        samples.push((r(sum.0), r(sum.1), r(sum.2)));
        cal = after;
    }
    Ok(samples)
}

/// Exact and α–β times of each error-check cell. Exact times come from
/// `exact` (the run's own rows) when present, else from simulating.
///
/// A serving cell's makespan depends on its arrival seed, so its error
/// would swing from seed to seed; serving cells instead compare the two
/// tiers on the cell's prefill round program
/// (`ace_serve::first_round_program`), which no seed reaches.
fn error_pairs(points: &[RunPoint], exact: &HashMap<RunPoint, Metrics>) -> Vec<(f64, f64)> {
    points
        .iter()
        .map(|p| match &p.kind {
            PointKind::Serving {
                config,
                workload,
                spec,
            } => {
                let program =
                    ace_serve::first_round_program(&workload.instantiate(p.topology.nodes()), spec)
                        .expect("grid points are simulable");
                let analytic = ace_system::analytic_program_run_with_conditions(
                    *config,
                    &program,
                    p.topology,
                    &p.conditions,
                )
                .expect("grid points carry resolvable conditions");
                let exact = TrainSpec::new(*config, program, p.topology)
                    .conditions(p.conditions.clone())
                    .run()
                    .expect("grid points carry resolvable conditions");
                (exact.total_cycles() as f64, analytic.total_cycles)
            }
            _ => {
                let e = exact
                    .get(p)
                    .map_or_else(|| execute(p).time_us, |m| m.time_us);
                (e, execute_analytic(p).time_us)
            }
        })
        .collect()
}

/// Prints the CSV digest of the first pass and whether it matches the
/// recorded one.
fn report_digest(w: &Workload, seed: u64, digest: u64) {
    let verdict = match check::recorded_digest(w.name, seed) {
        Some(r) if r == digest => "matches the recorded digest".to_string(),
        Some(r) => format!("MISMATCH: recorded {r:016x} (simulated output changed)"),
        None => "no digest recorded for this seed".to_string(),
    };
    println!(
        "digest: {} seed={seed} csv fnv1a64={digest:016x} {verdict}",
        w.name
    );
}

/// The untraced run: end-to-end metrics.
///
/// Throughput is measured in whole cold-cache sweep passes on one worker —
/// the real path, with a fresh `SweepRunner` each — until the budget is
/// spent. Each pass is bracketed by calibrations and converted to
/// reference time; `cells_per_s` is the grid over the median pass. The
/// first pass's rows are checked and digested (and its reloaded cache
/// compared byte for byte), and every later pass must render the same CSV.
fn timed_run(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let setup_ms = median(
        &setup_samples(w, seed)?
            .iter()
            .map(|s| s.2)
            .collect::<Vec<_>>(),
    );
    let sc = w.scenario(seed)?;
    let cells = grid_len(&sc);
    let tier = tier(&sc);
    let cache = cache_file();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let start = Instant::now();
    let budget_ms = seconds * 1e3;
    let (mut host_ms, mut reference_ms) = (Vec::new(), Vec::new());
    let mut first_digest = None;
    // The first pass's rows, kept for the α–β error of exact workloads.
    let mut exact = HashMap::new();
    let mut cal = host::calibrate();
    while host_ms.len() < MIN_PASSES || ms(start.elapsed()) + median(&host_ms) < budget_ms {
        let pass = match sweep_pass(&sc, SERIAL, &cache, first_digest.is_none()) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("pass failed: {e}");
                out.attempted += cells;
                out.failed += cells;
                return Ok(out);
            }
        };
        let after = host::calibrate();
        host_ms.push(pass.wall_ms());
        reference_ms.push(host::to_reference(pass.wall_ms(), cal, after));
        cal = after;
        out.attempted += pass.outcome.results.len();
        out.failed += check::count_faults(&pass.outcome);
        out.correct &= pass.persisted;
        let digest = check::fnv1a64(pass.csv.as_bytes());
        match first_digest {
            None => {
                report_digest(w, seed, digest);
                if tier == Tier::Exact {
                    exact = pass.rows();
                }
                first_digest = Some(digest);
            }
            Some(first) if first != digest => {
                eprintln!("check: a repeated pass rendered a different CSV");
                out.correct = false;
            }
            Some(_) => {}
        }
    }
    // Read before the α–β error cells below simulate anything.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    let pass_ms = median(&reference_ms);
    let host_pass_ms = median(&host_ms);
    println!(
        "timing: {} passes; per pass {host_pass_ms:.3} host ms ({:.4} raw cells/s), \
         {pass_ms:.3} reference ms",
        host_ms.len(),
        cells as f64 / (host_pass_ms / 1e3),
    );
    let (err_max, err_mean) = layers::analytic_errors(&error_pairs(&error_points(&sc), &exact));

    out.push("cells_per_s", cells as f64 / (pass_ms / 1e3), "1/s");
    out.push("setup_s", setup_ms / 1e3, "s");
    out.push("peak_rss_mb", peak_rss_mb, "MB");
    out.push("analytic_err_max_pct", err_max, "%");
    out.push("analytic_err_mean_pct", err_mean, "%");
    Ok(out)
}

/// One repetition of the traced run's measurements.
struct Rep {
    pass: Pass,
    /// The grid's cells, untraced: the cells a tracer attaches to through
    /// `execute_tier`, plus the staged time of the tracer-free layers.
    untraced: Duration,
    /// The same cells layer by layer, traced.
    layers: Layers,
}

/// The traced run: per-layer metrics.
fn traced_run(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let setup = setup_samples(w, seed)?;
    let sc = w.scenario(seed)?;
    let tier = tier(&sc);
    let points = unique_points(&sc);
    let cache = cache_file();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    // Untraced pass, untraced cells, traced cells — repeated while the
    // first half of the budget lasts (at least once), medians reported.
    let mut reps: Vec<Rep> = Vec::new();
    let mut exact = HashMap::new();
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs_f64() * 2.0 < seconds {
        let pass = sweep_pass(&sc, SERIAL, &cache, reps.is_empty())?;
        out.attempted += pass.outcome.results.len();
        out.failed += check::count_faults(&pass.outcome);
        out.correct &= pass.persisted;
        let expected = pass.rows();
        if exact.is_empty() && tier == Tier::Exact {
            exact = expected.clone();
        }
        let tracer_cells = layers::untraced_cells(&points, tier);
        let layers = layers::staged_pass(&points, tier, &expected);
        out.failed += layers.mismatches;
        reps.push(Rep {
            pass,
            untraced: tracer_cells + layers.untraced(),
            layers,
        });
    }

    // α–β cost per cell: the analytic workload's own cells, else an α–β
    // pass over the grid's unique cells.
    let analytic_cell_us = if tier == Tier::Analytic {
        median(
            &reps
                .iter()
                .map(|r| ms(r.layers.analytic))
                .collect::<Vec<_>>(),
        ) * 1e3
    } else {
        let t = Instant::now();
        for p in &points {
            black_box(execute_analytic(p));
        }
        ms(t.elapsed()) * 1e3
    } / points.len() as f64;
    // α–β error cells. The analytic workload simulates its slice exactly
    // here, traced, so its executor layer is measured too.
    let err_points = error_points(&sc);
    let mut layer_totals = reps[0].layers.clone();
    if tier == Tier::Analytic {
        let expected: HashMap<RunPoint, Metrics> =
            err_points.iter().map(|p| (p.clone(), execute(p))).collect();
        let slice = layers::staged_pass(&err_points, Tier::Exact, &expected);
        out.failed += slice.mismatches;
        layer_totals.absorb(&slice);
        exact = expected;
    }
    let (err_max, err_mean) = layers::analytic_errors(&error_pairs(&err_points, &exact));

    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let pass_ms = med(&|r| r.pass.wall_ms());
    let run_ms = med(&|r| r.pass.run_ms);
    let untraced_ms = med(&|r| ms(r.untraced));
    let traced_ms = med(&|r| ms(r.layers.cells()));
    let scheduler_ms = med(&|r| r.pass.run_ms - ms(r.untraced));
    let tracing_ms = med(&|r| ms(r.layers.cells()) - ms(r.untraced));
    let l = &layer_totals;
    let events = l.tracer.dispatches * POPS_PER_DISPATCH;
    let grid = grid_len(&sc);

    out.push(
        "sweep.scenario.parse_ms",
        median(&setup.iter().map(|s| s.0).collect::<Vec<_>>()),
        "ms",
    );
    out.push(
        "sweep.grid.expand_ms",
        median(&setup.iter().map(|s| s.1).collect::<Vec<_>>()),
        "ms",
    );
    out.push(
        "sweep.grid.unique_ratio",
        points.len() as f64 / grid as f64,
        "ratio",
    );
    out.push("sweep.scheduler.overhead_ms", scheduler_ms, "ms");
    out.push("sweep.report.csv_ms", med(&|r| r.pass.csv_ms), "ms");
    out.push("sweep.report.json_ms", med(&|r| r.pass.json_ms), "ms");
    out.push("sweep.persist.save_ms", med(&|r| r.pass.save_ms), "ms");
    out.push("sweep.persist.load_ms", med(&|r| r.pass.load_ms), "ms");
    out.push("workloads.lower_ms", ms(l.lower), "ms");
    out.push("workloads.tasks", l.tasks as f64, "count");
    out.push("system.build_ms", ms(l.build), "ms");
    out.push("system.exec_ms", ms(l.exec), "ms");
    out.push("system.exec.events", events as f64, "count");
    out.push(
        "system.exec.ns_per_event",
        ms(l.exec) * 1e6 / events.max(1) as f64,
        "ns",
    );
    out.push(
        "system.exec.link_transfers",
        l.tracer.link_transfers as f64,
        "count",
    );
    out.push(
        "system.exec.past_schedules",
        l.past_schedules as f64,
        "count",
    );
    out.push("serve.simulate_ms", ms(l.serve), "ms");
    out.push("serve.rounds", l.rounds as f64, "count");
    out.push("serve.simulated_rounds", l.simulated_rounds as f64, "count");
    let memo_hits = l.rounds.saturating_sub(l.simulated_rounds);
    out.push(
        "serve.memo_hit_ratio",
        memo_hits as f64 / l.rounds.max(1) as f64,
        "ratio",
    );
    out.push(
        "serve.ms_per_simulated_round",
        ms(l.serve) / l.simulated_rounds.max(1) as f64,
        "ms",
    );
    out.push("analytic.cell_us", analytic_cell_us, "us");
    out.push("analytic.err_max_pct", err_max, "%");
    out.push("analytic.err_mean_pct", err_mean, "%");
    out.push("trace.untraced_pass_ms", pass_ms, "ms");
    out.push("trace.overhead_ms", tracing_ms, "ms");

    println!(
        "accounting ({} reps, medians): pass {pass_ms:.3} ms = sweep run {run_ms:.3} \
         [cells {untraced_ms:.3} + scheduler overhead {scheduler_ms:.3}] + csv {:.3} + json {:.3} \
         + save {:.3} + load {:.3}",
        reps.len(),
        med(&|r| r.pass.csv_ms),
        med(&|r| r.pass.json_ms),
        med(&|r| r.pass.save_ms),
        med(&|r| r.pass.load_ms),
    );
    let r0 = &reps[0].layers;
    println!(
        "accounting: traced cells {traced_ms:.3} ms = untraced cells {untraced_ms:.3} + tracing \
         overhead {tracing_ms:.3}; first rep by layer: lower {:.3} build {:.3} exec {:.3} \
         serve {:.3} analytic {:.3}",
        ms(r0.lower),
        ms(r0.build),
        ms(r0.exec),
        ms(r0.serve),
        ms(r0.analytic),
    );
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance: {}", host::provenance());
    let load_start = host::loadavg();
    let result = if args.trace {
        traced_run(w, args.seed, args.seconds)
    } else {
        timed_run(w, args.seed, args.seconds)
    };
    println!(
        "host: nproc={} cpu='{}' loadavg start=[{load_start}] end=[{}]",
        host::nproc(),
        host::cpu_model(),
        host::loadavg()
    );
    match result {
        Ok(out) => {
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
