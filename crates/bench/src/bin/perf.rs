//! Simulator wall-clock benchmark — the repo's persistent performance
//! harness.
//!
//! Times representative sweeps (the Fig. 9a collective design-space grid,
//! the training suite, and an all-reduce at torus sizes from 8 to 625
//! nodes) with `std::time::Instant` and emits a
//! `BENCH_executor.json` at the repo root so every PR has a points/sec
//! trajectory to beat. Each scenario runs `--runs` times on a cold cache
//! and the minimum wall time is reported (the minimum is robust against
//! background machine noise).
//!
//! ```text
//! perf                                  # full grids, writes BENCH_executor.json
//! perf --smoke                          # tiny grids (CI)
//! perf --out bench.json --threads 1 --runs 5
//! perf --baseline-pps 4.2 --baseline-label "seed @ db69ea8"
//! perf --smoke --check-against BENCH_executor.json --check-tolerance 0.30
//! ```
//!
//! The JSON schema lives in [`ace_bench::perf_json`] (emitter + reader +
//! unit tests). `--check-against` is the CI perf-regression gate: the
//! fresh run's points/sec are compared entry-by-entry (matched on
//! scenario name) against the checked-in baseline file and the process
//! exits nonzero when any overlapping entry is slower by more than the
//! tolerance (default 30 %, noise-tolerant). Setting `PERF_GATE_SKIP=1`
//! downgrades a gate failure to a warning — the escape hatch CI wires to
//! the `perf-regression-ok` PR label for known-slow changes.

use std::process::ExitCode;
use std::time::Instant;

use ace_bench::header;
use ace_bench::perf_json::{self, BenchBaseline, BenchEntry, BenchMode};
use ace_sweep::{RunnerOptions, Scenario, SweepRunner};

/// The Fig. 9a design-space scenario (kept in sync with the sweep CLI's
/// example file by `include_str!`).
const DESIGN_SPACE_TOML: &str = include_str!("../../../../examples/scenarios/design_space.toml");
/// The training-suite scenario.
const TRAINING_SUITE_TOML: &str =
    include_str!("../../../../examples/scenarios/training_suite.toml");

/// Tiny grids for CI smoke runs: same shape as the real scenarios, a few
/// seconds of work instead of minutes.
const SMOKE_DESIGN_SPACE_TOML: &str = r#"
name = "fig09a-design-space-smoke"
mode = "collective"
topologies = ["4x2x2"]
engines = ["ace"]
ops = ["all-reduce"]
payloads = ["16MB"]
mem_gbps = [128]
comm_sms = [6]
sram_mb = [1, 4]
fsms = [4, 16]
"#;
const SMOKE_TRAINING_TOML: &str = r#"
name = "training-suite-smoke"
mode = "training"
topologies = ["2x2x1"]
configs = ["CommOpt", "ACE"]
workloads = ["resnet50"]
iterations = 1
"#;

/// Scalability: one exact 8 MiB all-reduce per torus size, from 8 up to
/// 625 nodes.
const FIG11_SCALABILITY_TOML: &str = r#"
name = "fig11-scalability"
mode = "collective"
topologies = ["2x2x2", "4x4x4", "5x5x25"]
engines = ["ace"]
ops = ["all-reduce"]
payloads = ["8MB"]
mem_gbps = [128]
comm_sms = [6]
"#;
const SMOKE_FIG11_TOML: &str = r#"
name = "fig11-scalability-smoke"
mode = "collective"
topologies = ["4x4x4"]
engines = ["ace"]
ops = ["all-reduce"]
payloads = ["8MB"]
mem_gbps = [128]
comm_sms = [6]
"#;

struct Args {
    out: String,
    threads: usize,
    runs: usize,
    smoke: bool,
    baseline_pps: Option<f64>,
    baseline_label: Option<String>,
    check_against: Option<String>,
    check_tolerance: f64,
    quiet: bool,
}

const USAGE: &str = "usage: perf [--out PATH] [--threads N] [--runs N] [--smoke] \
                     [--baseline-pps X] [--baseline-label S] \
                     [--check-against PATH] [--check-tolerance FRAC] [--quiet]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH_executor.json".to_string(),
        threads: 1,
        runs: 3,
        smoke: false,
        baseline_pps: None,
        baseline_label: None,
        check_against: None,
        check_tolerance: 0.30,
        quiet: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out" => args.out = argv.next().ok_or("--out needs a path")?,
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                args.threads = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
            }
            "--runs" => {
                let v = argv.next().ok_or("--runs needs a value")?;
                args.runs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&r| r >= 1)
                    .ok_or(format!("bad run count '{v}'"))?;
            }
            "--smoke" => args.smoke = true,
            "--baseline-pps" => {
                let v = argv.next().ok_or("--baseline-pps needs a value")?;
                args.baseline_pps = Some(v.parse().map_err(|_| format!("bad baseline pps '{v}'"))?);
            }
            "--baseline-label" => {
                args.baseline_label = Some(argv.next().ok_or("--baseline-label needs a value")?);
            }
            "--check-against" => {
                args.check_against = Some(argv.next().ok_or("--check-against needs a path")?);
            }
            "--check-tolerance" => {
                let v = argv.next().ok_or("--check-tolerance needs a value")?;
                args.check_tolerance = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| (0.0..1.0).contains(t))
                    .ok_or(format!(
                        "bad tolerance '{v}' (expected a fraction in [0,1))"
                    ))?;
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Runs `scenario` `runs` times on a cold cache each time; returns the
/// minimum-wall-time entry.
fn bench_scenario(scenario: &Scenario, runs: usize, threads: usize) -> BenchEntry {
    let opts = RunnerOptions {
        threads,
        ..Default::default()
    };
    let mut best_ms = f64::INFINITY;
    let mut points = 0;
    for _ in 0..runs {
        let runner = SweepRunner::new();
        let start = Instant::now();
        let outcome = runner.run(scenario, opts).expect("scenario is valid");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        points = outcome.results.len();
        best_ms = best_ms.min(ms);
    }
    BenchEntry {
        scenario: scenario.name.clone(),
        points,
        wall_ms: best_ms,
        points_per_sec: points as f64 / (best_ms / 1e3),
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mode = if args.smoke {
        BenchMode::Smoke
    } else {
        BenchMode::Full
    };
    // Full mode also times the smoke grids (they cost milliseconds):
    // the emitted file then carries every entry the CI regression gate
    // matches against, so re-running `perf` to refresh
    // BENCH_executor.json can never silently drop the smoke baselines.
    let mut scenario_tomls = vec![
        SMOKE_DESIGN_SPACE_TOML,
        SMOKE_TRAINING_TOML,
        SMOKE_FIG11_TOML,
    ];
    if !args.smoke {
        scenario_tomls = vec![
            DESIGN_SPACE_TOML,
            TRAINING_SUITE_TOML,
            SMOKE_DESIGN_SPACE_TOML,
            SMOKE_TRAINING_TOML,
            FIG11_SCALABILITY_TOML,
            SMOKE_FIG11_TOML,
        ];
    }
    let scenarios = scenario_tomls
        .into_iter()
        .map(|t| Scenario::from_toml_str(t).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;

    if !args.quiet {
        header(&format!(
            "perf: simulator wall-clock benchmark ({mode} mode, {} runs, {} threads)",
            args.runs,
            if args.threads == 0 {
                "auto".to_string()
            } else {
                args.threads.to_string()
            }
        ));
    }

    let mut entries = Vec::new();
    for sc in &scenarios {
        let entry = bench_scenario(sc, args.runs, args.threads);
        if !args.quiet {
            println!(
                "{:<28} {:>5} points  {:>10.1} ms  {:>9.3} points/sec",
                entry.scenario, entry.points, entry.wall_ms, entry.points_per_sec
            );
        }
        entries.push(entry);
    }

    let baseline = args.baseline_pps.map(|pps| BenchBaseline {
        label: args.baseline_label.clone(),
        points_per_sec: pps,
    });
    let json = perf_json::to_json(
        mode,
        args.threads,
        args.runs,
        &perf_json::BuildInfo::capture(),
        &entries,
        baseline.as_ref(),
    );
    std::fs::write(&args.out, &json).map_err(|e| format!("write {}: {e}", args.out))?;
    if !args.quiet {
        println!("wrote {}", args.out);
        if let (Some(pps), Some(first)) = (args.baseline_pps, entries.first()) {
            println!(
                "speedup vs baseline on {}: {:.3}x",
                first.scenario,
                first.points_per_sec / pps
            );
        }
    }

    if let Some(path) = &args.check_against {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let base = perf_json::read_entries(&text).map_err(|e| format!("{path}: {e}"))?;
        let fresh: Vec<(String, f64)> = entries
            .iter()
            .map(|e| (e.scenario.clone(), e.points_per_sec))
            .collect();
        let skip = std::env::var("PERF_GATE_SKIP").is_ok_and(|v| v == "1");
        match perf_json::check_regression(&fresh, &base, args.check_tolerance) {
            Ok(report) => {
                if !args.quiet {
                    println!(
                        "perf gate vs {path} (tolerance {:.0}%):\n{report}",
                        args.check_tolerance * 100.0
                    );
                }
            }
            Err(report) if skip => {
                eprintln!(
                    "perf gate: regression beyond {:.0}% tolerance, but PERF_GATE_SKIP=1:\n{report}",
                    args.check_tolerance * 100.0
                );
            }
            Err(report) => {
                return Err(format!(
                    "perf gate: points/sec regressed beyond {:.0}% vs {path}:\n{report}\
                     (set PERF_GATE_SKIP=1 or apply the perf-regression-ok PR label to override)",
                    args.check_tolerance * 100.0
                ));
            }
        }
    }
    Ok(())
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
