//! Sweep execution: the metric/result/outcome types, the one cell
//! function, and [`SweepRunner`], which runs a scenario's grid.
//!
//! A runner owns a `(tier, point)` [`Cache`], the serving [`RoundMemo`]
//! and the α–β [`RouteMemo`], all kept across its runs. The route memo
//! holds each fabric's all-to-all route footprint, so the analytic tier
//! and hybrid's sensitivity probes walk a fabric's routes once, not once
//! per cell. A run expands the grid once
//! and executes each tier's uncached unique cells as one batch on
//! `min(threads, cells)` scoped worker threads, which pull cell indices
//! from one shared counter. Results are assembled **in grid order** from
//! the cache, so the output is byte-identical whether the sweep ran on
//! one thread or sixteen.
//!
//! The scenario's [`Fidelity`] picks the execution tier: `exact` runs the
//! event-driven executor, `analytic` the closed-form α–β estimator, and
//! `hybrid` triages the whole grid analytically before re-simulating only
//! the Pareto frontier + top-K % cells exactly (see [`crate::fidelity`]).
//! The tier is an argument of each cell's run, not a fork in the runner:
//! one function runs a cell of any kind in either tier through its run
//! spec ([`RunSpec`], [`TrainSpec`] or the serving run
//! [`ace_serve::simulate_with_memo`]), whose one report type per kind
//! becomes [`Metrics`] in one place. A cell that cannot run is an error
//! that fails the sweep with `cell <label> failed: <cause>`, as does a
//! cell that panics.

use std::collections::hash_map::Entry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use ace_collectives::RouteMemo;
use ace_net::{NetworkParams, TopologySpec};
use ace_serve::{RoundMemo, ServingOutcome};
use ace_simcore::{FxHashMap, FxHashSet};
use ace_system::{
    training_program, CollectiveRunReport, EngineKind, IterationReport, RunConditions, RunError,
    RunSpec, TrainSpec,
};
use ace_trace::Attribution;

use crate::fidelity::{select_exact_cells, Fidelity, Tier};
use crate::grid::{self, PointKind, RunPoint};
use crate::scenario::{BaselineSpec, Scenario, SweepMode};

/// Request-latency metrics of a serving run point. All-zero for
/// collective and training rows, which have no request stream.
///
/// Percentiles are **exact order statistics** over the completed
/// requests (no interpolation), converted to microseconds at the NPU
/// clock — see [`ace_serve::ServingOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServingMetrics {
    /// Median time-to-first-token, microseconds.
    pub ttft_p50_us: f64,
    /// 95th-percentile time-to-first-token, microseconds.
    pub ttft_p95_us: f64,
    /// 99th-percentile time-to-first-token, microseconds.
    pub ttft_p99_us: f64,
    /// Median end-to-end request latency, microseconds.
    pub e2e_p50_us: f64,
    /// 95th-percentile end-to-end request latency, microseconds.
    pub e2e_p95_us: f64,
    /// 99th-percentile end-to-end request latency, microseconds.
    pub e2e_p99_us: f64,
    /// Completed requests per second of simulated makespan.
    pub goodput_rps: f64,
}

/// Simulation metrics of one run point. Collective points report zero
/// compute/exposed time; training points report the full breakdown;
/// serving points additionally fill [`Metrics::serving`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// End-to-end simulated time in microseconds — the primary metric
    /// speedups are computed from (lower is better).
    pub time_us: f64,
    /// End-to-end simulated time in cycles.
    pub completion_cycles: u64,
    /// Achieved network bandwidth per NPU, GB/s.
    pub gbps_per_npu: f64,
    /// Per-node HBM bytes consumed by communication.
    pub mem_traffic_bytes: u64,
    /// Total bytes the fabric carried.
    pub network_bytes: u64,
    /// Training only: total compute time in microseconds.
    pub compute_us: f64,
    /// Training only: exposed (non-overlapped) communication, microseconds.
    pub exposed_comm_us: f64,
    /// Events the simulator scheduled in the past (clamped by the event
    /// queue) — always zero in a correct run; surfaced so release-mode
    /// sweeps can flag the invariant violation. Always zero for analytic
    /// rows (there is no event queue to violate).
    pub past_schedules: u64,
    /// Bottleneck attribution: `completion_cycles` decomposed into
    /// compute / per-pipe-bound / other buckets that sum exactly to the
    /// total. Analytic rows charge their whole communication share to the
    /// network bucket (the α–β model has no per-pipe decomposition).
    pub attribution: Attribution,
    /// Serving only: request-latency percentiles and goodput. All-zero
    /// for collective and training rows.
    pub serving: ServingMetrics,
}

/// One grid row with its metrics.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The grid cell.
    pub point: RunPoint,
    /// Simulated (or estimated) metrics.
    pub metrics: Metrics,
    /// The tier that produced `metrics`: event-driven simulation or the
    /// α–β estimator.
    pub fidelity: Tier,
    /// Whether this row reused a result computed earlier — either a
    /// duplicate cell in the same grid or a prior run through the same
    /// [`Cache`].
    pub cache_hit: bool,
    /// `baseline_time / this_time` when the scenario names a baseline
    /// (always compared within the row's own tier).
    pub speedup_vs_baseline: Option<f64>,
    /// Physical cables the row's fault plan kills (0 when pristine).
    pub failed_links: usize,
    /// Aggregate fabric bandwidth the row's fault plan loses, percent
    /// (0 when pristine).
    pub degradation_pct: f64,
}

/// The outcome of one sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Sweep mode.
    pub mode: SweepMode,
    /// The fidelity the sweep ran at.
    pub fidelity: Fidelity,
    /// One result per grid cell, in deterministic grid order.
    pub results: Vec<RunResult>,
    /// Unique points run through the event-driven executor this run.
    pub executed: usize,
    /// Unique points estimated by the α–β model this run.
    pub analytic_executed: usize,
    /// Grid rows served from the cache (duplicates + prior runs).
    pub cache_hits: usize,
}

impl SweepOutcome {
    /// All collective-mode rows running exactly `engine`, in grid order.
    pub fn collective_results(&self, engine: EngineKind) -> impl Iterator<Item = &RunResult> {
        self.results.iter().filter(
            move |r| matches!(r.point.kind, PointKind::Collective { engine: e, .. } if e == engine),
        )
    }

    /// The first collective-mode row on `topology` running exactly
    /// `engine` — the pivot lookup figure binaries use to re-shape a
    /// sweep into a table.
    pub fn find_collective(
        &self,
        topology: ace_net::TopologySpec,
        engine: EngineKind,
    ) -> Option<&RunResult> {
        self.collective_results(engine)
            .find(move |r| r.point.topology == topology)
    }

    /// Rows produced by the exact tier (hybrid's re-simulated cells).
    pub fn exact_rows(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.fidelity == Tier::Exact)
            .count()
    }

    /// Sum of clamped past-scheduled events over every row — nonzero
    /// means some run violated the event queue's monotonicity invariant
    /// and its results are suspect. The sweep CLI warns on this.
    pub fn total_past_schedules(&self) -> u64 {
        self.results.iter().map(|r| r.metrics.past_schedules).sum()
    }
}

/// Result cache keyed on `(tier, point)`. Identical points simulate
/// identically within a tier (both tiers are deterministic), so a sweep
/// never runs the same point twice — within a grid or across grids
/// sharing a runner. The tier is part of the key: an analytic estimate
/// must never be served where an exact result is expected. Each tier has
/// a map of its own, so a lookup borrows the point.
#[derive(Debug, Default)]
pub struct Cache {
    tiers: Mutex<[PointMap; 2]>,
}

/// One tier's results.
type PointMap = FxHashMap<RunPoint, Metrics>;

/// The index of `tier`'s map in [`Cache`].
fn slot(tier: Tier) -> usize {
    match tier {
        Tier::Exact => 0,
        Tier::Analytic => 1,
    }
}

impl Cache {
    /// An empty cache.
    pub fn new() -> Cache {
        Cache::default()
    }

    fn lock(&self) -> MutexGuard<'_, [PointMap; 2]> {
        self.tiers.lock().expect("cache lock")
    }

    /// Cached metrics for `point` in `tier`, if present.
    pub fn get_tier(&self, tier: Tier, point: &RunPoint) -> Option<Metrics> {
        self.lock()[slot(tier)].get(point).copied()
    }

    /// Whether `point` is cached in `tier`.
    pub fn contains_tier(&self, tier: Tier, point: &RunPoint) -> bool {
        self.lock()[slot(tier)].contains_key(point)
    }

    /// Stores metrics for `point` in `tier`.
    pub fn insert_tier(&self, tier: Tier, point: RunPoint, metrics: Metrics) {
        self.lock()[slot(tier)].insert(point, metrics);
    }

    /// Number of cached points (all tiers).
    pub fn len(&self) -> usize {
        self.lock().iter().map(|m| m.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every cached `(tier, point, metrics)` triple, in
    /// unspecified order. The persistence layer sorts before writing.
    pub fn entries(&self) -> Vec<(Tier, RunPoint, Metrics)> {
        let mut entries = Vec::with_capacity(self.len());
        self.for_each(|t, p, m| entries.push((t, p.clone(), *m)));
        entries
    }

    /// Calls `f` with every cached entry, in unspecified order, holding
    /// the cache's lock.
    pub(crate) fn for_each(&self, mut f: impl FnMut(Tier, &RunPoint, &Metrics)) {
        let maps = self.lock();
        for tier in [Tier::Exact, Tier::Analytic] {
            for (p, m) in &maps[slot(tier)] {
                f(tier, p, m);
            }
        }
    }
}

/// Execution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunnerOptions {
    /// Worker threads; `0` uses the machine's available parallelism.
    pub threads: usize,
    /// Ignored: no code reads it. It stays only because the benchmark
    /// harness sets it, and the next benchmark change removes it.
    pub sim_threads: usize,
}

/// Live progress of one execution batch, as reported to
/// [`SweepRunner::run_with_progress`].
///
/// `total` counts every unique cell the batch wants — the freshly
/// executed plus the cache-served — so a fully warm run still reports one
/// terminal `done == total` state instead of a dangling `0/N`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress<'a> {
    /// Cells accounted for so far: cache hits plus completed executions.
    pub done: usize,
    /// Unique cells the current batch wants (executed + cached). Hybrid
    /// sweeps run two batches: analytic triage, then exact re-simulation.
    pub total: usize,
    /// Cells of the batch served by the cache without executing.
    pub cached: usize,
    /// The cell this call reports as freshly executed, with its tier and
    /// metrics; `None` on the call that opens a batch.
    pub cell: Option<(Tier, &'a RunPoint, &'a Metrics)>,
}

impl Progress<'_> {
    /// Cells actually executed so far in this batch.
    pub fn executed(&self) -> usize {
        self.done - self.cached
    }

    /// Whether the batch is complete.
    pub fn finished(&self) -> bool {
        self.done == self.total
    }
}

/// Runs scenarios against a [`Cache`], a serving [`RoundMemo`] and an
/// α–β [`RouteMemo`] that persist across its runs (see the
/// [module docs](self)). Neither memo changes a result; both only save
/// work.
#[derive(Debug, Default)]
pub struct SweepRunner {
    cache: Cache,
    rounds: RoundMemo,
    routes: RouteMemo,
}

impl SweepRunner {
    /// A runner with an empty cache.
    pub fn new() -> SweepRunner {
        SweepRunner::default()
    }

    /// A runner seeded with a pre-populated cache — e.g. one loaded from
    /// a [`--cache-file`](crate::persist) of an earlier process, so
    /// repeated sweeps across processes reuse results.
    pub fn with_cache(cache: Cache) -> SweepRunner {
        SweepRunner {
            cache,
            ..SweepRunner::default()
        }
    }

    /// The runner's cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Runs `scenario` at its configured [`Fidelity`] and returns results
    /// in deterministic grid order.
    ///
    /// # Errors
    ///
    /// Returns the validation message if the scenario is inconsistent,
    /// a message naming the topology and conditions when a pair of its
    /// axes cannot run, or the panic text of a cell that panicked.
    pub fn run(&self, scenario: &Scenario, opts: RunnerOptions) -> Result<SweepOutcome, String> {
        self.run_with_progress(scenario, opts, &|_| {})
    }

    /// [`run`](SweepRunner::run) with a live progress callback: once when
    /// each execution batch starts (cache hits pre-counted in
    /// [`Progress::done`], so an all-cached batch immediately reports
    /// `done == total`) and once per freshly executed cell, carrying that
    /// cell's result in [`Progress::cell`]. Calls come from the worker
    /// threads, one at a time, with `done` counting up by one.
    ///
    /// # Errors
    ///
    /// See [`run`](SweepRunner::run).
    pub fn run_with_progress(
        &self,
        scenario: &Scenario,
        opts: RunnerOptions,
        progress: &(dyn Fn(Progress) + Sync),
    ) -> Result<SweepOutcome, String> {
        scenario.validate()?;
        let degradations = check_conditions(scenario)?;
        let threads = match opts.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let points = grid::expand(scenario);
        // The baseline points, neighbouring rows mostly sharing one, and
        // each row's index among them.
        let mut baseline: Vec<RunPoint> = Vec::new();
        let row_baseline: Vec<Option<usize>> = points
            .iter()
            .map(|p| {
                let b = baseline_point_for(scenario, p)?;
                if baseline.last() != Some(&b) {
                    baseline.push(b);
                }
                Some(baseline.len() - 1)
            })
            .collect();
        let wanted = || points.iter().chain(&baseline);

        let (tiers, work_e, work_a) = match scenario.fidelity {
            Fidelity::Exact => {
                let work = self.run_batch(Tier::Exact, wanted(), threads, progress)?;
                (vec![Tier::Exact; points.len()], work, Vec::new())
            }
            Fidelity::Analytic => {
                let work = self.run_batch(Tier::Analytic, wanted(), threads, progress)?;
                (vec![Tier::Analytic; points.len()], Vec::new(), work)
            }
            // α–β triage of the whole grid, then exact re-simulation of
            // the analytic Pareto frontier + top-K % cells + the baseline.
            Fidelity::Hybrid => {
                let work_a = self.run_batch(Tier::Analytic, wanted(), threads, progress)?;
                let triage: Vec<(RunPoint, Metrics)> = points
                    .iter()
                    .map(|p| {
                        let m = self.cache.get_tier(Tier::Analytic, p);
                        (p.clone(), m.expect("triage covered the grid"))
                    })
                    .collect();
                // A probe that cannot run vouches for no tie, so its pair
                // is re-simulated.
                let probe = |p: &RunPoint| {
                    run_cell(p, Tier::Analytic, &self.rounds, &self.routes)
                        .map_or(f64::INFINITY, |m| m.time_us)
                };
                let keep = select_exact_cells(&triage, scenario.hybrid_top_pct, &probe);
                let selected = points
                    .iter()
                    .zip(&keep)
                    .filter_map(|(p, &k)| k.then_some(p));
                let work_e =
                    self.run_batch(Tier::Exact, selected.chain(&baseline), threads, progress)?;
                let tiers = keep
                    .iter()
                    .map(|&k| if k { Tier::Exact } else { Tier::Analytic })
                    .collect();
                (tiers, work_e, work_a)
            }
        };

        // The first row of each point a batch executed this run is the
        // one row that is not a cache hit: each such row claims its
        // point from the tier's set.
        let mut unclaimed: [FxHashSet<&RunPoint>; 2] = [
            work_e.iter().copied().collect(),
            work_a.iter().copied().collect(),
        ];
        let hits: Vec<bool> = points
            .iter()
            .zip(&tiers)
            .map(|(p, &t)| !unclaimed[slot(t)].remove(p))
            .collect();
        let (executed, analytic_executed) = (work_e.len(), work_a.len());
        let cache_hits = hits.iter().filter(|&&hit| hit).count();
        let results = self.assemble(
            points,
            &tiers,
            &hits,
            &baseline,
            &row_baseline,
            &degradations,
        );
        Ok(SweepOutcome {
            scenario: scenario.name.clone(),
            mode: scenario.mode,
            fidelity: scenario.fidelity,
            results,
            executed,
            analytic_executed,
            cache_hits,
        })
    }

    /// Executes every unique point of `wanted` not yet cached in `tier`
    /// on `min(threads, cells)` scoped workers that pull cell indices from
    /// one counter, and returns those points in first-seen order. After a
    /// cell fails, by an error or a panic, no further cells are claimed,
    /// and `cell <label> failed: <cause>` comes back as the error.
    fn run_batch<'p>(
        &self,
        tier: Tier,
        wanted: impl Iterator<Item = &'p RunPoint>,
        threads: usize,
        progress: &(dyn Fn(Progress) + Sync),
    ) -> Result<Vec<&'p RunPoint>, String> {
        let mut seen: FxHashSet<&RunPoint> = FxHashSet::default();
        let mut work: Vec<&RunPoint> = Vec::new();
        let mut cached = 0usize;
        for p in wanted.filter(|p| seen.insert(*p)) {
            if self.cache.contains_tier(tier, p) {
                cached += 1;
            } else {
                work.push(p);
            }
        }
        let total = work.len() + cached;
        progress(Progress {
            done: cached,
            total,
            cached,
            cell: None,
        });

        let next = AtomicUsize::new(0);
        // Held across each progress call, so calls arrive one at a time
        // with `done` counting up by one.
        let done = Mutex::new(cached);
        let failure: OnceLock<String> = OnceLock::new();
        std::thread::scope(|s| {
            for _ in 0..threads.min(work.len()) {
                s.spawn(|| {
                    while failure.get().is_none() {
                        // The counter only hands out indices; no data
                        // travels with it.
                        let Some(&point) = work.get(next.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        let run = || run_cell(point, tier, &self.rounds, &self.routes);
                        let result = catch_unwind(AssertUnwindSafe(run))
                            .map_err(|panic| panic_text(panic.as_ref()))
                            .and_then(|run| run.map_err(|e| e.to_string()));
                        match result {
                            Ok(metrics) => {
                                self.cache.insert_tier(tier, point.clone(), metrics);
                                let mut done = done.lock().expect("progress callback panicked");
                                *done += 1;
                                progress(Progress {
                                    done: *done,
                                    total,
                                    cached,
                                    cell: Some((tier, point, &metrics)),
                                });
                            }
                            Err(cause) => {
                                let label = point.label();
                                let _ = failure.set(format!("cell {label} failed: {cause}"));
                            }
                        }
                    }
                });
            }
        });
        match failure.into_inner() {
            Some(error) => Err(error),
            None => Ok(work),
        }
    }

    /// Assembles grid-order rows from the grid's points: each point's
    /// metrics from its tier's cache, its fault plan's figures from
    /// `degradations`, whether it is a cache hit, and its speedup over its
    /// baseline point (`row_baseline` indexes `baseline`), compared
    /// within the row's own tier — an analytic estimate is never divided
    /// by an event-driven baseline.
    fn assemble(
        &self,
        points: Vec<RunPoint>,
        tiers: &[Tier],
        hits: &[bool],
        baseline: &[RunPoint],
        row_baseline: &[Option<usize>],
        degradations: &Degradations,
    ) -> Vec<RunResult> {
        let cache = self.cache.lock();
        let metrics = |tier: Tier, p: &RunPoint| cache[slot(tier)].get(p).copied();
        // Each baseline point's time in each tier, looked up once.
        let base_times: Vec<[Option<f64>; 2]> = baseline
            .iter()
            .map(|b| [Tier::Exact, Tier::Analytic].map(|t| metrics(t, b).map(|m| m.time_us)))
            .collect();
        points
            .into_iter()
            .zip(tiers)
            .zip(hits)
            .zip(row_baseline)
            .map(|(((point, &tier), &cache_hit), base)| {
                let metrics =
                    metrics(tier, &point).expect("every grid point was executed in its tier");
                let speedup_vs_baseline = base.and_then(|b| {
                    let base = base_times[b][slot(tier)]
                        .expect("baseline point was executed in the row's tier");
                    (metrics.time_us > 0.0).then(|| base / metrics.time_us)
                });
                let (failed_links, degradation_pct) = if point.conditions.is_pristine() {
                    (0, 0.0)
                } else {
                    degradations[&(point.topology, point.conditions.clone())]
                };
                RunResult {
                    point,
                    metrics,
                    fidelity: tier,
                    cache_hit,
                    speedup_vs_baseline,
                    failed_links,
                    degradation_pct,
                }
            })
            .collect()
    }
}

/// Each distinct non-pristine (topology, conditions) pair's
/// `(failed_links, degradation_pct)`, the fault figures a report row shows.
type Degradations = FxHashMap<(TopologySpec, RunConditions), (usize, f64)>;

/// Resolves each distinct non-pristine (topology, conditions) pair of the
/// scenario's axes once, with the call every tier makes before it runs a
/// cell, so a pair that cannot run is refused before any cell does.
fn check_conditions(scenario: &Scenario) -> Result<Degradations, String> {
    let net = NetworkParams::paper_default();
    let conditions = grid::conditions_product(scenario);
    let mut resolved = Degradations::default();
    for &topology in &scenario.topologies {
        for c in conditions.iter().filter(|c| !c.is_pristine()) {
            if let Entry::Vacant(slot) = resolved.entry((topology, c.clone())) {
                let plan = c
                    .resolve(topology, &net)
                    .map_err(|e| format!("topology {topology} cannot run {c}: {e}"))?;
                slot.insert((plan.failed_links(), plan.degradation_pct()));
            }
        }
    }
    Ok(resolved)
}

/// Renders a panic payload as text.
fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell executor panicked".to_string()
    }
}

/// The baseline point a grid row is compared against: the row's
/// coordinates, conditions included, with the engine or config swapped
/// for the scenario's baseline. `None` when the scenario names none.
fn baseline_point_for(scenario: &Scenario, point: &RunPoint) -> Option<RunPoint> {
    let baseline = scenario.baseline?;
    let mut base = point.clone();
    match (baseline, &mut base.kind) {
        (BaselineSpec::Engine(e), PointKind::Collective { engine, .. }) => *engine = e,
        (
            BaselineSpec::Config(c),
            PointKind::Training { config, .. } | PointKind::Serving { config, .. },
        ) => *config = c,
        // validate() rejects mismatched baseline kinds.
        _ => {}
    }
    Some(base)
}

/// Convenience: run a scenario once with a fresh cache.
pub fn run_scenario(scenario: &Scenario, opts: RunnerOptions) -> Result<SweepOutcome, String> {
    SweepRunner::new().run(scenario, opts)
}

/// Runs one cell in `tier`: the one path from a grid point to its
/// [`Metrics`], for every point kind. Serving cells draw round costs from
/// `rounds`, and α–β runs draw fabrics from `routes`; neither memo changes
/// a result, so the same `(tier, point)` always gives the same metrics.
///
/// # Errors
///
/// The [`RunError`] of a cell that cannot run: an engine outside the
/// endpoint, conditions its fabric cannot run, or an invalid serving spec.
fn run_cell(
    point: &RunPoint,
    tier: Tier,
    rounds: &RoundMemo,
    routes: &RouteMemo,
) -> Result<Metrics, RunError> {
    let topology = point.topology;
    let conditions = point.conditions.clone();
    Ok(match &point.kind {
        PointKind::Collective {
            engine,
            op,
            payload_bytes,
        } => Metrics::from_collective(
            &RunSpec::new(topology, *engine, *op, *payload_bytes)
                .conditions(conditions)
                .run_in(tier, routes)?,
        ),
        PointKind::Training {
            config,
            workload,
            iterations,
            optimized_embedding,
        } => {
            let workload = workload.instantiate(topology.nodes());
            let program = training_program(*config, &workload, *iterations, *optimized_embedding);
            Metrics::from_training(
                &TrainSpec::new(*config, program, topology)
                    .conditions(conditions)
                    .run_in(tier, routes)?,
            )
        }
        PointKind::Serving {
            config,
            workload,
            spec,
        } => Metrics::from_serving(
            &ace_serve::simulate_with_memo(
                *config,
                &workload.instantiate(topology.nodes()),
                topology,
                spec,
                &conditions,
                tier,
                rounds,
                routes,
            )?,
            topology.nodes(),
        ),
    })
}

impl Metrics {
    /// A standalone collective's metrics, from either tier's report. The
    /// time comes from the unrounded cycles.
    fn from_collective(r: &CollectiveRunReport) -> Metrics {
        Metrics {
            time_us: r.cycles / ace_simcore::npu_frequency().hz() * 1e6,
            completion_cycles: r.completion.cycles(),
            gbps_per_npu: r.achieved_gbps_per_npu,
            mem_traffic_bytes: r.mem_traffic_bytes,
            network_bytes: r.network_bytes,
            compute_us: 0.0,
            exposed_comm_us: 0.0,
            past_schedules: r.past_schedules,
            attribution: r.attribution,
            serving: ServingMetrics::default(),
        }
    }

    /// A training run's metrics, from either tier's report.
    fn from_training(r: &IterationReport) -> Metrics {
        Metrics {
            time_us: r.total_time_us(),
            completion_cycles: r.total_cycles(),
            gbps_per_npu: r.effective_network_gbps_per_npu(),
            mem_traffic_bytes: r.comm_mem_traffic_bytes(),
            network_bytes: r.network_bytes(),
            compute_us: r.total_compute_us(),
            exposed_comm_us: r.exposed_comm_us(),
            past_schedules: r.past_schedules(),
            attribution: r.attribution(),
            serving: ServingMetrics::default(),
        }
    }

    /// A serving run's metrics on a fabric of `nodes` NPUs, from either
    /// tier's outcome.
    fn from_serving(outcome: &ServingOutcome, nodes: usize) -> Metrics {
        let freq = ace_simcore::npu_frequency();
        let to_us = |cycles: u64| cycles as f64 / freq.hz() * 1e6;
        let gbps = if outcome.makespan_cycles > 0 {
            freq.gbps(outcome.network_bytes as f64 / nodes as f64 / outcome.makespan_cycles as f64)
        } else {
            0.0
        };
        // Aggregate compute over overlapped rounds can exceed the wall-clock
        // makespan under 1f1b injection; the attribution buckets clamp so the
        // decomposition still sums exactly to the total.
        let total = outcome.makespan_cycles;
        let compute = outcome.compute_cycles.min(total);
        Metrics {
            time_us: outcome.makespan_us(),
            completion_cycles: total,
            gbps_per_npu: gbps,
            mem_traffic_bytes: outcome.mem_traffic_bytes,
            network_bytes: outcome.network_bytes,
            compute_us: to_us(outcome.compute_cycles),
            exposed_comm_us: to_us(outcome.exposed_cycles),
            past_schedules: outcome.past_schedules,
            attribution: Attribution {
                total_cycles: total,
                compute_cycles: compute,
                network_cycles: total - compute,
                ..Attribution::default()
            },
            serving: ServingMetrics {
                ttft_p50_us: outcome.ttft_percentile_us(50.0),
                ttft_p95_us: outcome.ttft_percentile_us(95.0),
                ttft_p99_us: outcome.ttft_percentile_us(99.0),
                e2e_p50_us: outcome.e2e_percentile_us(50.0),
                e2e_p95_us: outcome.e2e_percentile_us(95.0),
                e2e_p99_us: outcome.e2e_percentile_us(99.0),
                goodput_rps: outcome.goodput_rps(),
            },
        }
    }
}

/// Runs one point in `tier` with fresh memos, panicking with the cell's
/// label and cause when it cannot run. Kept only because the benchmark
/// harness (`perfbench/`) calls it; a [`SweepRunner`] runs cells with its
/// shared memos and reports failures as errors.
pub fn execute_tier(point: &RunPoint, tier: Tier) -> Metrics {
    run_cell(point, tier, &RoundMemo::new(), &RouteMemo::new())
        .unwrap_or_else(|e| panic!("cell {} failed: {e}", point.label()))
}

/// [`execute_tier`] in the exact tier. Kept only because the benchmark
/// harness (`perfbench/`) calls it.
pub fn execute(point: &RunPoint) -> Metrics {
    execute_tier(point, Tier::Exact)
}

/// [`execute_tier`] in the α–β tier. Kept only because the benchmark
/// harness (`perfbench/`) calls it.
pub fn execute_analytic(point: &RunPoint) -> Metrics {
    execute_tier(point, Tier::Analytic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{BaselineSpec, EngineFamily};
    use ace_net::TopologySpec;
    use ace_system::SystemConfig;

    /// A scenario small enough to simulate quickly in tests.
    fn tiny() -> Scenario {
        let mut sc = Scenario::collective("tiny");
        sc.topologies = vec![TopologySpec::torus3(2, 1, 1).unwrap()];
        sc.engines = vec![EngineFamily::Ideal, EngineFamily::Baseline];
        sc.payload_bytes = vec![256 * 1024];
        sc.mem_gbps = vec![128.0, 450.0];
        sc.comm_sms = vec![6];
        sc
    }

    #[test]
    fn duplicates_collapse_into_cache_hits() {
        let sc = tiny();
        let out = run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // Grid: 2 engines x 2 mem = 4 rows; ideal's two cells are one
        // unique point, so 3 unique simulations and 1 cache hit.
        assert_eq!(out.results.len(), 4);
        assert_eq!(out.executed, 3);
        assert_eq!(out.cache_hits, 1);
        assert!(!out.results[0].cache_hit);
        assert!(out.results[1].cache_hit);
        assert_eq!(out.results[0].metrics, out.results[1].metrics);
        assert!(out.results.iter().all(|r| r.fidelity == Tier::Exact));
    }

    #[test]
    fn second_run_is_fully_cached() {
        let sc = tiny();
        let runner = SweepRunner::new();
        let first = runner
            .run(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(first.executed, 3);
        let second = runner
            .run(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(second.executed, 0);
        assert_eq!(second.cache_hits, second.results.len());
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn baseline_speedups_are_attached() {
        let mut collective = tiny();
        collective.baseline = Some(BaselineSpec::Engine(EngineKind::Ideal));
        // A serving row is compared with the baseline config's row at the
        // same coordinates, not with itself.
        let mut serving = small_serving(800.0, 1);
        serving.configs = vec![SystemConfig::BaselineNoOverlap, SystemConfig::Ace];
        serving.baseline = Some(BaselineSpec::Config(SystemConfig::BaselineNoOverlap));
        for sc in [collective, serving] {
            let out = run_scenario(&sc, serial()).unwrap();
            for r in &out.results {
                let s = r.speedup_vs_baseline.expect("speedup present");
                assert!(s > 0.0);
                match &r.point.kind {
                    PointKind::Collective {
                        engine: EngineKind::Ideal,
                        ..
                    } => assert!((s - 1.0).abs() < 1e-12, "ideal vs itself must be 1.0"),
                    // The ideal endpoint is an upper bound (modulo pacing
                    // noise).
                    PointKind::Collective { .. } => {
                        assert!(s <= 1.05, "baseline should not beat ideal: {s}")
                    }
                    PointKind::Serving { workload, spec, .. } => {
                        let base = out
                            .results
                            .iter()
                            .find(|b| {
                                b.point.topology == r.point.topology
                                    && b.point.kind
                                        == PointKind::Serving {
                                            config: SystemConfig::BaselineNoOverlap,
                                            workload: workload.clone(),
                                            spec: spec.clone(),
                                        }
                            })
                            .expect("the baseline config is in the grid");
                        assert_eq!(s, base.metrics.time_us / r.metrics.time_us);
                    }
                    PointKind::Training { .. } => unreachable!("no training scenario here"),
                }
            }
        }
    }

    #[test]
    fn baseline_outside_grid_is_executed() {
        let mut sc = tiny();
        // Baseline engine not in the grid: ACE.
        sc.baseline = Some(BaselineSpec::Engine(EngineKind::Ace {
            dma_mem_gbps: 128.0,
            sram_mb: 4,
            fsms: 16,
        }));
        let out = run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        // 3 unique grid points + 1 baseline point.
        assert_eq!(out.executed, 4);
        assert!(out.results.iter().all(|r| r.speedup_vs_baseline.is_some()));
    }

    #[test]
    fn parallel_matches_serial() {
        let sc = tiny();
        let serial = run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = run_scenario(
            &sc,
            RunnerOptions {
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial.results.len(), parallel.results.len());
        for (a, b) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.cache_hit, b.cache_hit);
        }
    }

    #[test]
    fn serving_reports_are_deterministic() {
        // The serving acceptance oracle at sweep level: latency
        // percentiles are exact order statistics over a seeded arrival
        // process, so CSV and JSON must be byte-identical across worker
        // threads and across repeated runs of the same seed.
        let scenario = || {
            let mut sc = Scenario::serving("serving-determinism");
            sc.topologies = vec![
                TopologySpec::torus3(2, 1, 1).unwrap(),
                TopologySpec::Switch {
                    nodes: 4,
                    gbps: None,
                },
            ];
            sc.arrival_rates = vec![800.0];
            sc.schedules = vec![
                ace_workloads::PipeSchedule::GPipe,
                ace_workloads::PipeSchedule::OneFOneB,
            ];
            sc.microbatches = vec![2];
            sc.stages = 2;
            sc.requests = 3;
            sc.decode_tokens = 1;
            sc.token_budget = 128;
            sc
        };
        let render = |threads: usize| {
            let out = run_scenario(
                &scenario(),
                RunnerOptions {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            (crate::report::to_csv(&out), crate::report::to_json(&out))
        };
        let baseline = render(1);
        assert!(baseline.0.contains("1f1b"), "schedule axis missing");
        assert_eq!(render(4), baseline, "worker threads changed rows");
        assert_eq!(render(1), baseline, "same seed must replay exactly");
        // The latency columns carry live data: every row has a non-zero
        // ttft_p99_us (column index from the header, not hard-coded).
        let header: Vec<&str> = baseline.0.lines().next().unwrap().split(',').collect();
        let col = header.iter().position(|c| *c == "ttft_p99_us").unwrap();
        for row in baseline.0.lines().skip(1) {
            let v: f64 = row.split(',').nth(col).unwrap().parse().unwrap();
            assert!(v > 0.0, "zero ttft_p99_us in {row}");
        }
    }

    /// A serving grid small enough for a debug-mode test: both schedules
    /// on a two-node torus.
    fn small_serving(rate_rps: f64, seed: u64) -> Scenario {
        let mut sc = Scenario::serving("serving-memo");
        sc.topologies = vec![TopologySpec::torus3(2, 1, 1).unwrap()];
        sc.arrival_rates = vec![rate_rps];
        sc.seed = seed;
        sc.schedules = vec![
            ace_workloads::PipeSchedule::GPipe,
            ace_workloads::PipeSchedule::OneFOneB,
        ];
        sc.microbatches = vec![2];
        sc.stages = 2;
        sc.requests = 4;
        sc.decode_tokens = 2;
        sc.token_budget = 256;
        sc
    }

    fn serial() -> RunnerOptions {
        RunnerOptions {
            threads: 1,
            ..Default::default()
        }
    }

    #[test]
    fn round_memo_keeps_tiers_apart() {
        // Analytic round costs must never be served to exact cells: one
        // runner doing both tiers gives the rows two fresh runners do.
        let at = |fidelity| Scenario {
            fidelity,
            ..small_serving(800.0, 1)
        };
        let csv = |runner: &SweepRunner, fidelity| {
            crate::report::to_csv(&runner.run(&at(fidelity), serial()).unwrap())
        };
        let shared = SweepRunner::new();
        assert_eq!(
            csv(&shared, Fidelity::Analytic),
            csv(&SweepRunner::new(), Fidelity::Analytic)
        );
        assert_eq!(
            csv(&shared, Fidelity::Exact),
            csv(&SweepRunner::new(), Fidelity::Exact)
        );
    }

    #[test]
    fn serving_jobs_share_round_costs() {
        // Seed and rate only place rounds on the clock, so a second job
        // on the same runner reuses the first job's round costs and
        // simulates only the rounds the first never formed.
        let first = small_serving(800.0, 1);
        let second = small_serving(1500.0, 2);
        let runner = SweepRunner::new();
        runner.run(&first, serial()).unwrap();
        let memo = &runner.rounds;
        let (held, simulated) = (memo.len(), memo.simulated());
        assert_eq!(simulated, held as u64, "one simulation per round program");

        let shared = crate::report::to_csv(&runner.run(&second, serial()).unwrap());
        let fresh_runner = SweepRunner::new();
        let fresh = crate::report::to_csv(&fresh_runner.run(&second, serial()).unwrap());
        assert_eq!(shared, fresh);
        let new_programs = memo.len() - held;
        assert_eq!(
            memo.simulated() - simulated,
            new_programs as u64,
            "the second job re-simulated a round the first recorded"
        );
        assert!(
            new_programs < fresh_runner.rounds.len(),
            "the second job reused none of the first job's rounds"
        );
    }

    #[test]
    fn route_memo_shared_across_scenarios_changes_no_row() {
        // Two analytic scenarios on the same 16-node fabrics with no
        // cell in common: the second reuses the first's route
        // footprints, and both render what fresh runners render.
        let scenario = |name: &str, payload: u64, contention: &str| {
            let mut sc = Scenario::collective(name);
            sc.fidelity = Fidelity::Analytic;
            sc.topologies = ["4x4", "2x2x2x2", "switch:16", "hier:4x4"]
                .iter()
                .map(|t| t.parse().unwrap())
                .collect();
            sc.ops = vec![
                ace_collectives::CollectiveOp::AllReduce,
                ace_collectives::CollectiveOp::AllToAll,
            ];
            sc.payload_bytes = vec![payload];
            sc.contention = vec![contention.parse().unwrap()];
            sc.baseline = Some(BaselineSpec::Engine(EngineKind::Ideal));
            sc
        };
        let first = scenario("first", 1 << 20, "none");
        let second = scenario("second", (16 << 20) + 3, "uniform:8");
        let render = |runner: &SweepRunner, sc: &Scenario| {
            let out = runner.run(sc, serial()).unwrap();
            (crate::report::to_csv(&out), crate::report::to_json(&out))
        };
        let shared = SweepRunner::new();
        let first_rows = render(&shared, &first);
        assert_eq!(shared.routes.len(), 4, "one footprint per fabric");
        let second_rows = render(&shared, &second);
        assert_eq!(
            shared.routes.len(),
            4,
            "the second scenario rebuilt a fabric"
        );
        assert_eq!(first_rows, render(&SweepRunner::new(), &first));
        assert_eq!(second_rows, render(&SweepRunner::new(), &second));
    }

    #[test]
    fn a_failing_cell_fails_the_run_and_stops_further_claims() {
        // validate() refuses a zero microbatch count, so the middle cell
        // of a valid grid is broken by hand; its run returns an error.
        let mut sc = small_serving(800.0, 1);
        sc.schedules = vec![ace_workloads::PipeSchedule::GPipe];
        sc.microbatches = vec![1, 3, 2];
        let mut points = grid::expand(&sc);
        let PointKind::Serving { spec, .. } = &mut points[1].kind else {
            unreachable!("a serving grid");
        };
        spec.microbatches = 0;
        let runner = SweepRunner::new();
        let err = runner
            .run_batch(Tier::Exact, points.iter(), 1, &|_| {})
            .unwrap_err();
        assert!(
            err.starts_with("cell 2x1x1 ") && err.contains("mb0 failed: "),
            "{err}"
        );
        assert!(err.contains("microbatches must be at least 1"), "{err}");
        // The cell before the failure ran; the one after was never claimed.
        assert_eq!(runner.cache().len(), 1);
    }

    #[test]
    fn broken_cells_of_every_kind_are_errors_in_both_tiers() {
        // One cell per kind, each broken by hand past validate(): an ACE
        // engine without FSMs, training on a fabric a killed node
        // disconnects, and serving with no microbatches. The cell function
        // returns the cause, and a batch fails with the cell's label.
        let topology: TopologySpec = "4x4".parse().unwrap();
        let collective = RunPoint {
            topology,
            conditions: RunConditions::default(),
            kind: PointKind::Collective {
                engine: EngineKind::Ace {
                    dma_mem_gbps: 128.0,
                    sram_mb: 4,
                    fsms: 0,
                },
                op: ace_collectives::CollectiveOp::AllReduce,
                payload_bytes: 1 << 20,
            },
        };
        let training = RunPoint {
            topology,
            conditions: RunConditions {
                faults: "kill:node:3".parse().unwrap(),
                ..RunConditions::default()
            },
            kind: PointKind::Training {
                config: SystemConfig::Ace,
                workload: crate::scenario::WorkloadSel::parse("resnet50", None).unwrap(),
                iterations: 1,
                optimized_embedding: false,
            },
        };
        let mut serving = grid::expand(&small_serving(800.0, 1)).remove(0);
        let PointKind::Serving { spec, .. } = &mut serving.kind else {
            unreachable!("a serving grid");
        };
        spec.microbatches = 0;
        for (point, cause) in [
            (
                collective,
                "invalid engine ace[dma=128,sram=4MB,fsms=0]: fsms 0 is below 1",
            ),
            (training, "disconnect"),
            (serving, "invalid spec: microbatches must be at least 1"),
        ] {
            for tier in [Tier::Exact, Tier::Analytic] {
                let err = run_cell(&point, tier, &RoundMemo::new(), &RouteMemo::new())
                    .unwrap_err()
                    .to_string();
                assert!(err.contains(cause), "{tier} {}: {err}", point.label());
                let runner = SweepRunner::new();
                let failure = runner
                    .run_batch(tier, std::iter::once(&point), 1, &|_| {})
                    .unwrap_err();
                assert_eq!(failure, format!("cell {} failed: {err}", point.label()));
                assert!(runner.cache().is_empty(), "a failed cell was cached");
            }
        }
    }

    #[test]
    fn invalid_scenarios_are_rejected() {
        let mut sc = tiny();
        sc.topologies.clear();
        let err = run_scenario(&sc, serial()).unwrap_err();
        assert!(err.contains("topolog"), "{err}");
    }

    #[test]
    fn infeasible_conditions_are_refused_before_any_cell_runs() {
        // (topologies, condition axis, its infeasible spelling, the
        // topology the error must name). Each axis also carries `none`,
        // a pristine cell that must not run either.
        let torus = r#"["4x4"]"#;
        let both = r#"["4x4", "switch:16"]"#;
        let probes = [
            (torus, "faults", "kill:999@seed:1", "4x4"),
            (both, "faults", "kill:node:3", "4x4"),
            (torus, "contention", "uniform:1000000000", "4x4"),
            (torus, "contention", "hotspot:999@8", "4x4"),
            // A named cable that exists on only one fabric of the grid.
            (both, "faults", "kill:link:0-1", "switch:16"),
        ];
        for (topologies, key, spelling, named) in probes {
            let sc = Scenario::from_toml_str(&format!(
                "name = \"probe\"\nmode = \"collective\"\ntopologies = {topologies}\n\
                 engines = [\"ideal\"]\nops = [\"all-reduce\"]\npayloads = [\"64KB\"]\n\
                 {key} = [\"none\", \"{spelling}\"]\n"
            ))
            .unwrap();
            for fidelity in [Fidelity::Exact, Fidelity::Analytic] {
                let runner = SweepRunner::new();
                let sc = Scenario {
                    fidelity,
                    ..sc.clone()
                };
                let err = runner.run(&sc, serial()).unwrap_err();
                assert!(
                    err.contains(&format!("topology {named} cannot run"))
                        && err.contains(&format!("{key}={spelling} ")),
                    "{spelling} on {topologies}: {err}"
                );
                assert!(runner.cache().is_empty(), "a cell ran before the refusal");
            }
        }
    }

    #[test]
    fn training_points_execute() {
        let mut sc = Scenario::training("t");
        sc.topologies = vec![TopologySpec::torus3(2, 1, 1).unwrap()];
        sc.configs = vec![ace_system::SystemConfig::Ace];
        sc.iterations = 1;
        let out = run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.results.len(), 1);
        let m = out.results[0].metrics;
        assert!(m.time_us > 0.0);
        assert!(m.compute_us > 0.0);
    }

    #[test]
    fn analytic_fidelity_runs_without_the_executor() {
        let mut sc = tiny();
        sc.fidelity = Fidelity::Analytic;
        let out = run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.fidelity, Fidelity::Analytic);
        assert_eq!(out.executed, 0);
        assert_eq!(out.analytic_executed, 3);
        for r in &out.results {
            assert_eq!(r.fidelity, Tier::Analytic);
            assert!(r.metrics.time_us > 0.0);
            assert_eq!(r.metrics.past_schedules, 0);
        }
    }

    #[test]
    fn analytic_and_exact_never_alias_in_the_cache() {
        let sc = tiny();
        let runner = SweepRunner::new();
        let exact = runner
            .run(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let mut sca = sc.clone();
        sca.fidelity = Fidelity::Analytic;
        let analytic = runner
            .run(
                &sca,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        // Both tiers executed fresh — the exact rows did not satisfy the
        // analytic query or vice versa.
        assert_eq!(analytic.analytic_executed, 3);
        // And the per-tier lookups disagree on the metrics (the α–β
        // estimate is not the event-driven result).
        let p = &exact.results[2].point; // a baseline-engine cell
        let e = runner.cache().get_tier(Tier::Exact, p).unwrap();
        let a = runner.cache().get_tier(Tier::Analytic, p).unwrap();
        assert_ne!(
            e.completion_cycles, a.completion_cycles,
            "tiers should differ on {p:?}"
        );
    }

    #[test]
    fn hybrid_reduces_exact_simulations_and_pins_the_frontier() {
        // A design-space-like grid: one engine family, SRAM x FSM axes.
        let mut sc = Scenario::collective("hybrid-test");
        sc.topologies = vec![TopologySpec::torus3(2, 1, 1).unwrap()];
        sc.engines = vec![EngineFamily::Ace];
        sc.payload_bytes = vec![1 << 20];
        sc.mem_gbps = vec![128.0];
        sc.sram_mb = vec![1, 2, 4, 8];
        sc.fsms = vec![4, 16];
        sc.baseline = Some(BaselineSpec::Engine(EngineKind::Ace {
            dma_mem_gbps: 128.0,
            sram_mb: 4,
            fsms: 16,
        }));

        let exact = run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let mut sch = sc.clone();
        sch.fidelity = Fidelity::Hybrid;
        let hybrid = run_scenario(
            &sch,
            RunnerOptions {
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();

        assert_eq!(hybrid.fidelity, Fidelity::Hybrid);
        assert_eq!(hybrid.results.len(), exact.results.len());
        // The prefilter must actually prune.
        assert!(
            hybrid.executed < exact.executed,
            "hybrid executed {} >= exact {}",
            hybrid.executed,
            exact.executed
        );
        assert!(hybrid.analytic_executed > 0);
        // Exact-tier rows are byte-identical to the full exact run.
        for (h, e) in hybrid.results.iter().zip(&exact.results) {
            assert_eq!(h.point, e.point);
            if h.fidelity == Tier::Exact {
                assert_eq!(
                    h.metrics, e.metrics,
                    "re-simulated cell moved: {:?}",
                    h.point
                );
            }
        }
        // The exact run's Pareto frontier survives: every frontier cell
        // of the exact outcome was re-simulated exactly by hybrid.
        let rows: Vec<(&RunPoint, f64)> = exact
            .results
            .iter()
            .map(|r| (&r.point, r.metrics.time_us))
            .collect();
        let frontier = crate::fidelity::pareto_frontier(&rows);
        for (i, &f) in frontier.iter().enumerate() {
            if f {
                assert_eq!(
                    hybrid.results[i].fidelity,
                    Tier::Exact,
                    "frontier cell {:?} was left analytic",
                    hybrid.results[i].point
                );
            }
        }
    }

    #[test]
    fn attribution_travels_through_the_sweep() {
        for fidelity in [Fidelity::Exact, Fidelity::Analytic, Fidelity::Hybrid] {
            let mut sc = tiny();
            sc.fidelity = fidelity;
            let out = run_scenario(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            for r in &out.results {
                let a = r.metrics.attribution;
                assert!(a.conserves(), "{fidelity:?} {:?}: {a:?}", r.point);
                assert_eq!(
                    a.total_cycles, r.metrics.completion_cycles,
                    "{fidelity:?} {:?}",
                    r.point
                );
            }
        }
    }

    #[test]
    fn progress_counts_every_cell_and_terminates_at_total() {
        for threads in [1, 4] {
            let sc = tiny();
            let runner = SweepRunner::new();
            let calls = Mutex::new(Vec::new());
            let out = runner
                .run_with_progress(
                    &sc,
                    RunnerOptions {
                        threads,
                        ..Default::default()
                    },
                    &|p| {
                        assert!(p.done <= p.total);
                        assert!(p.cached <= p.done);
                        // Each executed cell arrives with the result the
                        // cache now holds for it.
                        if let Some((tier, point, metrics)) = p.cell {
                            assert_eq!(runner.cache().get_tier(tier, point), Some(*metrics));
                        }
                        calls.lock().unwrap().push((p.done, p.cell.is_some()));
                    },
                )
                .unwrap();
            // One batch-start call, then one call per executed cell with
            // `done` counting up by one.
            let calls = calls.into_inner().unwrap();
            let expected: Vec<(usize, bool)> = (0..=out.executed).map(|d| (d, d > 0)).collect();
            assert_eq!(calls, expected, "threads = {threads}");
        }
    }

    #[test]
    fn warm_progress_reports_a_terminal_line() {
        // The satellite fix: a fully cached run used to render `0/N` with
        // no terminal callback at all. Now the batch-start call reports
        // every cache hit and already satisfies `done == total`.
        let sc = tiny();
        let runner = SweepRunner::new();
        runner
            .run(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let seen = Mutex::new(Vec::new());
        let out = runner
            .run_with_progress(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
                &|p| {
                    assert!(p.finished(), "warm progress must report 100%");
                    assert_eq!(p.executed(), 0);
                    assert_eq!(p.cell, None, "a warm batch executes no cell");
                    seen.lock().unwrap().push((p.done, p.total, p.cached));
                },
            )
            .unwrap();
        assert_eq!(out.executed, 0);
        // One call, every unique cached cell reported.
        assert_eq!(seen.into_inner().unwrap(), vec![(3, 3, 3)]);
    }

    #[test]
    fn hybrid_is_thread_deterministic() {
        let mut sc = Scenario::collective("hybrid-det");
        sc.topologies = vec![TopologySpec::torus3(2, 1, 1).unwrap()];
        sc.engines = vec![EngineFamily::Ace, EngineFamily::Baseline];
        sc.payload_bytes = vec![512 * 1024];
        sc.mem_gbps = vec![64.0, 128.0];
        sc.sram_mb = vec![1, 4];
        sc.fidelity = Fidelity::Hybrid;
        let a = run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let b = run_scenario(
            &sc,
            RunnerOptions {
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.point, y.point);
            assert_eq!(x.metrics, y.metrics);
            assert_eq!(x.fidelity, y.fidelity);
            assert_eq!(x.cache_hit, y.cache_hit);
            assert_eq!(x.speedup_vs_baseline, y.speedup_vs_baseline);
        }
    }
}
