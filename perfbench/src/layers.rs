//! The traced run: re-executes a workload's cells from outside, one layer
//! at a time, timing the calls into each crate's public functions and
//! counting executor work through a [`CountingTracer`]. No simulator code
//! is instrumented; every span opens and closes in this file.
//!
//! A span is opened around each layer's loop even when the workload has no
//! cell for that layer, so a layer that does not run reads as an empty
//! span (timer resolution), never as a made-up zero.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ace_serve::{ServingOptions, ServingOutcome, ServingTier};
use ace_simcore::SimTime;
use ace_sweep::{execute_analytic, execute_tier, Metrics, PointKind, RunPoint, Tier};
use ace_system::{
    CollectiveRunReport, ExecutorOptions, IterationReport, RunSpec, TrainSpec, TrainingSim,
};
use ace_trace::{Tracer, Track};
use ace_workloads::{LoweringOptions, Program};

/// The executor emits one `dispatch` instant per this many event pops
/// when a tracer is enabled (its trace sampling interval).
pub const POPS_PER_DISPATCH: u64 = 256;

/// A tracer that only counts: `dispatch` instants (one per
/// [`POPS_PER_DISPATCH`] events) and `link:` spans (one per link transfer
/// grant). Attached through `RunSpec::tracer` / `TrainSpec::tracer`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingTracer {
    pub dispatches: u64,
    pub link_transfers: u64,
}

impl Tracer for CountingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn span(&mut self, _track: Track, name: &str, _start: SimTime, _end: SimTime) {
        if name.starts_with("link:") {
            self.link_transfers += 1;
        }
    }

    fn instant(&mut self, _track: Track, name: &str, _at: SimTime) {
        if name == "dispatch" {
            self.dispatches += 1;
        }
    }
}

/// Host time and work counts of one traced pass, per layer.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `ace-workloads`: `Program::lower` (+ the embedding transform).
    pub lower: Duration,
    /// `ace-system`: `TrainSpec::build`.
    pub build: Duration,
    /// `ace-system`: the event loop (`RunSpec::run_traced`, which also
    /// builds its executor, and `TrainingSim::run_with_tracer`).
    pub exec: Duration,
    /// `ace-serve`: `simulate_with_conditions`, round loop and memo.
    pub serve: Duration,
    /// `ace-system` α–β model via `ace_sweep::execute_analytic`.
    pub analytic: Duration,
    pub tasks: u64,
    pub tracer: CountingTracer,
    pub past_schedules: u64,
    pub rounds: u64,
    pub simulated_rounds: u64,
    /// Cells whose traced result differs from the untraced one.
    pub mismatches: usize,
}

impl Layers {
    /// Host time spent executing cells, all layers together.
    pub fn cells(&self) -> Duration {
        self.lower + self.build + self.exec + self.serve + self.analytic
    }

    /// The layers that run with no tracer attached (`serve`, `analytic`):
    /// their staged time is already an untraced cell time.
    pub fn untraced(&self) -> Duration {
        self.serve + self.analytic
    }

    /// Adds `other`'s times and counts to `self`.
    pub fn absorb(&mut self, other: &Layers) {
        self.lower += other.lower;
        self.build += other.build;
        self.exec += other.exec;
        self.serve += other.serve;
        self.analytic += other.analytic;
        self.tasks += other.tasks;
        self.tracer.dispatches += other.tracer.dispatches;
        self.tracer.link_transfers += other.tracer.link_transfers;
        self.past_schedules += other.past_schedules;
        self.rounds += other.rounds;
        self.simulated_rounds += other.simulated_rounds;
        self.mismatches += other.mismatches;
    }
}

/// Executes `points` in `tier` layer by layer with a [`CountingTracer`]
/// attached, and compares every cell with its untraced metrics in
/// `expected`. This is the sweep runner's per-cell dispatch
/// (`execute_tier`) unrolled through the public entry points it calls.
pub fn staged_pass(
    points: &[RunPoint],
    tier: Tier,
    expected: &HashMap<RunPoint, Metrics>,
) -> Layers {
    let mut l = Layers::default();
    let exact = |_: &&RunPoint| tier == Tier::Exact;
    let of_kind = |f: fn(&PointKind) -> bool| -> Vec<&RunPoint> {
        points.iter().filter(exact).filter(|p| f(&p.kind)).collect()
    };
    let collectives = of_kind(|k| matches!(k, PointKind::Collective { .. }));
    let training = of_kind(|k| matches!(k, PointKind::Training { .. }));
    let serving = of_kind(|k| matches!(k, PointKind::Serving { .. }));
    let analytic: Vec<&RunPoint> = points.iter().filter(|_| tier == Tier::Analytic).collect();

    let t = Instant::now();
    let programs: Vec<Program> = training.iter().map(|p| lower(p)).collect();
    l.lower = t.elapsed();
    l.tasks = programs.iter().map(|p| p.len() as u64).sum();

    let t = Instant::now();
    let sims: Vec<TrainingSim<CountingTracer>> = training
        .iter()
        .zip(programs)
        .map(|(p, program)| build(p, program))
        .collect();
    l.build = t.elapsed();

    let t = Instant::now();
    let collective_reports: Vec<(CollectiveRunReport, CountingTracer)> =
        collectives.iter().map(|p| run_collective(p)).collect();
    let training_reports: Vec<(IterationReport, CountingTracer)> =
        sims.into_iter().map(TrainingSim::run_with_tracer).collect();
    l.exec = t.elapsed();

    let t = Instant::now();
    let outcomes: Vec<ServingOutcome> = serving.iter().map(|p| serve(p)).collect();
    l.serve = t.elapsed();

    let t = Instant::now();
    let estimates: Vec<Metrics> = analytic.iter().map(|p| execute_analytic(p)).collect();
    l.analytic = t.elapsed();

    let mut check = |p: &RunPoint, same: &dyn Fn(&Metrics) -> bool| {
        if !expected.get(p).is_some_and(same) {
            eprintln!(
                "trace: traced result of {} differs from the untraced run",
                p.label()
            );
            l.mismatches += 1;
        }
    };
    for (p, (r, tr)) in collectives.iter().zip(&collective_reports) {
        check(p, &|m| collective_matches(r, m));
        l.tracer.dispatches += tr.dispatches;
        l.tracer.link_transfers += tr.link_transfers;
        l.past_schedules += r.past_schedules;
    }
    for (p, (r, tr)) in training.iter().zip(&training_reports) {
        check(p, &|m| training_matches(r, m));
        l.tracer.dispatches += tr.dispatches;
        l.tracer.link_transfers += tr.link_transfers;
        l.past_schedules += r.past_schedules();
    }
    for (p, o) in serving.iter().zip(&outcomes) {
        check(p, &|m| serving_matches(o, m));
        l.past_schedules += o.past_schedules;
        l.rounds += u64::from(o.rounds);
        l.simulated_rounds += u64::from(o.simulated_rounds);
    }
    for (p, m) in analytic.iter().zip(&estimates) {
        check(p, &|e| e == m);
    }
    l
}

/// Whether [`staged_pass`] attaches a tracer to `p`: exact collective and
/// training cells. Serving runs its rounds under its own tracer-free
/// executor, and the α–β model has no events.
pub fn traced(p: &RunPoint, tier: Tier) -> bool {
    tier == Tier::Exact
        && matches!(
            p.kind,
            PointKind::Collective { .. } | PointKind::Training { .. }
        )
}

/// Untraced host time of the [`traced`] cells among `points`, through the
/// sweep's own per-cell entry point. With [`Layers::untraced`] of a staged
/// pass over the same points, this is the cells' share of a sweep pass.
pub fn untraced_cells(points: &[RunPoint], tier: Tier) -> Duration {
    let t = Instant::now();
    for p in points.iter().filter(|p| traced(p, tier)) {
        black_box(execute_tier(p, tier));
    }
    t.elapsed()
}

fn lower(p: &RunPoint) -> Program {
    let PointKind::Training {
        config,
        workload,
        iterations,
        optimized_embedding,
    } = &p.kind
    else {
        unreachable!("only training points are lowered")
    };
    let w = workload.instantiate(p.topology.nodes());
    let opts = LoweringOptions {
        iterations: *iterations,
        overlap: config.overlaps(),
    };
    let mut program = Program::lower(&w, w.parallelism(), &opts);
    if *optimized_embedding && w.embedding().is_some() {
        program.optimize_embedding();
    }
    program
}

fn build(p: &RunPoint, program: Program) -> TrainingSim<CountingTracer> {
    let PointKind::Training { config, .. } = &p.kind else {
        unreachable!("only training points are built")
    };
    TrainSpec::new(*config, program, p.topology)
        .conditions(p.conditions.clone())
        .tracer(CountingTracer::default())
        .build()
        .expect("grid points carry resolvable conditions")
}

fn run_collective(p: &RunPoint) -> (CollectiveRunReport, CountingTracer) {
    let PointKind::Collective {
        engine,
        op,
        payload_bytes,
    } = &p.kind
    else {
        unreachable!("only collective points run as single collectives")
    };
    RunSpec::new(p.topology, engine.to_engine_kind(), *op, *payload_bytes)
        .options(ExecutorOptions {
            sim_threads: 1,
            ..Default::default()
        })
        .conditions(p.conditions.clone())
        .tracer(CountingTracer::default())
        .run_traced()
        .expect("grid points carry resolvable conditions")
}

fn serve(p: &RunPoint) -> ServingOutcome {
    let PointKind::Serving {
        config,
        workload,
        spec,
    } = &p.kind
    else {
        unreachable!("only serving points are served")
    };
    let opts = ServingOptions {
        tier: ServingTier::Exact,
        sim_threads: 1,
    };
    let w = workload.instantiate(p.topology.nodes());
    ace_serve::simulate_with_conditions(*config, &w, p.topology, spec, &opts, &p.conditions)
        .expect("grid points are simulable")
}

fn collective_matches(r: &CollectiveRunReport, m: &Metrics) -> bool {
    r.completion.cycles() == m.completion_cycles
        && r.achieved_gbps_per_npu == m.gbps_per_npu
        && r.mem_traffic_bytes == m.mem_traffic_bytes
        && r.network_bytes == m.network_bytes
        && r.past_schedules == m.past_schedules
        && r.attribution == m.attribution
}

fn training_matches(r: &IterationReport, m: &Metrics) -> bool {
    r.total_cycles() == m.completion_cycles
        && r.total_time_us() == m.time_us
        && r.effective_network_gbps_per_npu() == m.gbps_per_npu
        && r.comm_mem_traffic_bytes() == m.mem_traffic_bytes
        && r.network_bytes() == m.network_bytes
        && r.total_compute_us() == m.compute_us
        && r.exposed_comm_us() == m.exposed_comm_us
        && r.past_schedules() == m.past_schedules
        && r.attribution() == m.attribution
}

fn serving_matches(o: &ServingOutcome, m: &Metrics) -> bool {
    let s = &m.serving;
    o.makespan_cycles == m.completion_cycles
        && o.makespan_us() == m.time_us
        && o.mem_traffic_bytes == m.mem_traffic_bytes
        && o.network_bytes == m.network_bytes
        && o.past_schedules == m.past_schedules
        && o.ttft_percentile_us(50.0) == s.ttft_p50_us
        && o.ttft_percentile_us(95.0) == s.ttft_p95_us
        && o.ttft_percentile_us(99.0) == s.ttft_p99_us
        && o.e2e_percentile_us(50.0) == s.e2e_p50_us
        && o.e2e_percentile_us(95.0) == s.e2e_p95_us
        && o.e2e_percentile_us(99.0) == s.e2e_p99_us
        && o.goodput_rps() == s.goodput_rps
}

/// `(max, mean)` relative error in percent of α–β estimates against exact
/// results, over `(exact_us, analytic_us)` pairs.
pub fn analytic_errors(pairs: &[(f64, f64)]) -> (f64, f64) {
    let errs: Vec<f64> = pairs
        .iter()
        .map(|&(exact, analytic)| (analytic - exact).abs() / exact * 100.0)
        .collect();
    let max = errs.iter().copied().fold(0.0, f64::max);
    (max, errs.iter().sum::<f64>() / errs.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::unique_points;
    use ace_sweep::{run_scenario, Scenario};

    fn untraced(toml: &str) -> (Vec<RunPoint>, Tier, HashMap<RunPoint, Metrics>) {
        let sc = Scenario::from_toml_str(toml).unwrap();
        let out = run_scenario(&sc, crate::pass::SERIAL).unwrap();
        let expected = out
            .results
            .iter()
            .map(|r| (r.point.clone(), r.metrics))
            .collect();
        (unique_points(&sc), crate::workload::tier(&sc), expected)
    }

    #[test]
    fn counting_tracer_leaves_simulated_metrics_unchanged() {
        let grids = [
            "name = \"c\"\ntopologies = [\"2x2x1\"]\nengines = [\"ideal\", \"baseline\", \"ace\"]\n\
             payloads = [\"1MB\"]\nmem_gbps = [128]\ncomm_sms = [6]\n",
            "name = \"t\"\nmode = \"training\"\ntopologies = [\"2x1x1\"]\n\
             configs = [\"CommOpt\", \"ACE\"]\nworkloads = [\"resnet50\"]\niterations = 1\n",
            "name = \"s\"\nmode = \"serving\"\ntopologies = [\"2x1x1\"]\nconfigs = [\"ace\"]\n\
             workloads = [\"transformer\"]\narrival_rates = [800.0]\nschedules = [\"1f1b\"]\n\
             microbatches = [2]\nstages = 2\nrequests = 3\ndecode_tokens = 1\n\
             token_budget = 128\n",
            "name = \"a\"\nfidelity = \"analytic\"\ntopologies = [\"4x2x2\"]\n\
             engines = [\"baseline\", \"ace\"]\npayloads = [\"16MB\"]\nmem_gbps = [64, 128]\n",
        ];
        for toml in grids {
            let (points, tier, expected) = untraced(toml);
            let l = staged_pass(&points, tier, &expected);
            assert_eq!(l.mismatches, 0, "{toml}");
            if tier == Tier::Exact && !toml.contains("serving") {
                assert!(l.tracer.link_transfers > 0, "{toml}");
            }
        }
    }

    #[test]
    fn counting_tracer_counts_dispatches_and_links() {
        let mut t = CountingTracer::default();
        let track = Track::default();
        t.instant(track, "dispatch", SimTime::ZERO);
        t.instant(track, "issue:x", SimTime::ZERO);
        t.span(track, "link:n0:p1", SimTime::ZERO, SimTime::from_cycles(4));
        t.span(track, "task", SimTime::ZERO, SimTime::from_cycles(4));
        assert_eq!(
            t,
            CountingTracer {
                dispatches: 1,
                link_transfers: 1
            }
        );
    }

    #[test]
    fn errors_are_relative_percentages() {
        let (max, mean) = analytic_errors(&[(100.0, 110.0), (200.0, 190.0)]);
        assert!((max - 10.0).abs() < 1e-12);
        assert!((mean - 7.5).abs() < 1e-12);
    }
}
