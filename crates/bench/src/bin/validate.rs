//! Calibration/validation harness for the analytic fidelity tier.
//!
//! Runs the Fig. 9a design-space grid, the training suite and
//! `fault_validation.toml` (24 faulted and contended rows; 9.75 % mean and
//! 29.15 % max error in `BENCH_analytic.json`) through **both** tiers —
//! the event-driven executor and the closed-form α–β model — and reports
//! the per-point relative time error, the per-scenario mean/max, and the
//! hybrid prefilter's behavior (exact simulations avoided +
//! Pareto-frontier agreement). The error table is written to
//! `BENCH_analytic.json` at the repo root, so every PR that touches the
//! simulator or the model re-anchors the documented accuracy.
//!
//! ```text
//! validate                              # writes BENCH_analytic.json
//! validate --out other.json --threads 4 --max-mean-error 0.25
//! ```
//!
//! Exits nonzero when any scenario's mean relative error exceeds
//! `--max-mean-error` (default 25 %) or when the hybrid run's exact-tier
//! Pareto frontier differs from the full exact run's — the two
//! acceptance bounds CI enforces.

use std::process::ExitCode;

use ace_bench::{header, subheader};
use ace_sweep::fidelity::pareto_frontier;
use ace_sweep::{Fidelity, RunPoint, RunnerOptions, Scenario, SweepOutcome, SweepRunner, Tier};
use ace_trace::chrome::json_escape;

const DESIGN_SPACE_TOML: &str = include_str!("../../../../examples/scenarios/design_space.toml");
const TRAINING_SUITE_TOML: &str =
    include_str!("../../../../examples/scenarios/training_suite.toml");
const FAULT_VALIDATION_TOML: &str =
    include_str!("../../../../examples/scenarios/fault_validation.toml");

struct Args {
    out: String,
    threads: usize,
    max_mean_error: f64,
    quiet: bool,
}

const USAGE: &str = "usage: validate [--out PATH] [--threads N] [--max-mean-error FRAC] [--quiet]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH_analytic.json".to_string(),
        threads: 0,
        max_mean_error: 0.25,
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
            "--max-mean-error" => {
                let v = argv.next().ok_or("--max-mean-error needs a value")?;
                args.max_mean_error = v
                    .parse::<f64>()
                    .ok()
                    .filter(|e| *e > 0.0)
                    .ok_or(format!("bad error bound '{v}'"))?;
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

struct PointError {
    label: String,
    exact_us: f64,
    analytic_us: f64,
    rel_error: f64,
}

struct ScenarioReport {
    name: String,
    points: Vec<PointError>,
    mean: f64,
    max: f64,
    hybrid_exact_sims: usize,
    hybrid_grid_cells: usize,
    frontier_matches: bool,
}

/// Grid-order Pareto frontier of an outcome's rows.
fn frontier_points(outcome: &SweepOutcome) -> Vec<RunPoint> {
    let rows: Vec<(&RunPoint, f64)> = outcome
        .results
        .iter()
        .map(|r| (&r.point, r.metrics.time_us))
        .collect();
    let flags = pareto_frontier(&rows);
    let mut out = Vec::new();
    for ((p, _), keep) in rows.into_iter().zip(flags) {
        if keep && !out.contains(p) {
            out.push(p.clone());
        }
    }
    out
}

fn validate_scenario(
    toml: &str,
    opts: RunnerOptions,
    quiet: bool,
) -> Result<ScenarioReport, String> {
    let scenario = Scenario::from_toml_str(toml).map_err(|e| e.to_string())?;

    let exact = SweepRunner::new().run(&scenario, opts)?;
    let mut analytic_sc = scenario.clone();
    analytic_sc.fidelity = Fidelity::Analytic;
    let analytic = SweepRunner::new().run(&analytic_sc, opts)?;
    let mut hybrid_sc = scenario.clone();
    hybrid_sc.fidelity = Fidelity::Hybrid;
    let hybrid = SweepRunner::new().run(&hybrid_sc, opts)?;

    let mut points = Vec::new();
    for (e, a) in exact.results.iter().zip(&analytic.results) {
        debug_assert_eq!(e.point, a.point);
        let rel = if e.metrics.time_us > 0.0 {
            (a.metrics.time_us - e.metrics.time_us).abs() / e.metrics.time_us
        } else {
            0.0
        };
        points.push(PointError {
            label: e.point.label(),
            exact_us: e.metrics.time_us,
            analytic_us: a.metrics.time_us,
            rel_error: rel,
        });
    }
    let mean = points.iter().map(|p| p.rel_error).sum::<f64>() / points.len().max(1) as f64;
    let max = points.iter().map(|p| p.rel_error).fold(0.0, f64::max);

    // Hybrid acceptance: the full exact run's Pareto-frontier rows must
    // all have been re-simulated exactly by hybrid (coverage), and every
    // exact-tier hybrid row must be byte-identical to the exact run's.
    // Coverage — not set equality of subset frontiers — is the
    // well-defined check: the tolerance-banded dominance relation is not
    // transitive, so a harmless extra exact row (e.g. rescued by the
    // top-K quota) could appear on a frontier computed over the
    // exact-tier *subset* without anything being wrong.
    let full_frontier = frontier_points(&exact);
    let mut frontier_matches = full_frontier.iter().all(|p| {
        hybrid
            .results
            .iter()
            .any(|r| r.fidelity == Tier::Exact && r.point == *p)
    });
    for (h, e) in hybrid.results.iter().zip(&exact.results) {
        if h.fidelity == Tier::Exact && h.metrics != e.metrics {
            frontier_matches = false;
        }
    }

    if !quiet {
        subheader(&scenario.name);
        for p in &points {
            println!(
                "{:<58} exact {:>12.3} us  analytic {:>12.3} us  err {:>6.2}%",
                p.label,
                p.exact_us,
                p.analytic_us,
                p.rel_error * 100.0
            );
        }
        println!(
            "mean {:.2}%  max {:.2}%  |  hybrid: {} of {} cells re-simulated exactly, \
             frontier {}",
            mean * 100.0,
            max * 100.0,
            hybrid.executed,
            hybrid.results.len(),
            if frontier_matches {
                "matches exact"
            } else {
                "MISMATCH"
            }
        );
    }

    Ok(ScenarioReport {
        name: scenario.name,
        points,
        mean,
        max,
        hybrid_exact_sims: hybrid.executed,
        hybrid_grid_cells: hybrid.results.len(),
        frontier_matches,
    })
}

fn to_json(reports: &[ScenarioReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n  \"scenarios\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("    {\"scenario\": \"");
        json_escape(&mut out, &r.name);
        out.push_str(&format!(
            "\", \"points\": {}, \"mean_rel_error\": {:.4}, \
             \"max_rel_error\": {:.4}, \"hybrid_exact_sims\": {}, \"hybrid_grid_cells\": {}, \
             \"hybrid_frontier_matches_exact\": {},\n     \"errors\": [\n",
            r.points.len(),
            r.mean,
            r.max,
            r.hybrid_exact_sims,
            r.hybrid_grid_cells,
            r.frontier_matches,
        ));
        for (j, p) in r.points.iter().enumerate() {
            let sep = if j + 1 == r.points.len() { "" } else { "," };
            out.push_str("       {\"point\": \"");
            json_escape(&mut out, &p.label);
            out.push_str(&format!(
                "\", \"exact_us\": {:.3}, \"analytic_us\": {:.3}, \"rel_error\": {:.4}}}{sep}\n",
                p.exact_us, p.analytic_us, p.rel_error,
            ));
        }
        let sep = if i + 1 == reports.len() { "" } else { "," };
        out.push_str(&format!("     ]}}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let opts = RunnerOptions {
        threads: args.threads,
        ..Default::default()
    };
    if !args.quiet {
        header("validate: analytic tier vs the event-driven executor");
    }
    let reports = vec![
        validate_scenario(DESIGN_SPACE_TOML, opts, args.quiet)?,
        validate_scenario(TRAINING_SUITE_TOML, opts, args.quiet)?,
        validate_scenario(FAULT_VALIDATION_TOML, opts, args.quiet)?,
    ];

    std::fs::write(&args.out, to_json(&reports)).map_err(|e| format!("write {}: {e}", args.out))?;
    if !args.quiet {
        println!("\nwrote {}", args.out);
    }

    let mut failures = Vec::new();
    for r in &reports {
        if r.mean > args.max_mean_error {
            failures.push(format!(
                "{}: mean relative error {:.2}% exceeds the {:.0}% bound",
                r.name,
                r.mean * 100.0,
                args.max_mean_error * 100.0
            ));
        }
        if !r.frontier_matches {
            failures.push(format!(
                "{}: hybrid Pareto frontier differs from the exact run",
                r.name
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
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
