//! The resident job scheduler — the service core of the sweep engine.
//!
//! [`JobScheduler`] owns the warm state a cold CLI run rebuilds from
//! scratch every time: the `(tier, point)` result [`Cache`], the
//! [`RoundMemo`] every serving cell draws its round costs from, a pool of
//! worker threads that **outlives a single grid**, and the [`EventBus`]
//! that broadcasts typed progress events. One-shot sweeps
//! ([`crate::SweepRunner`]) and the long-lived daemon
//! ([`crate::service::SweepService`]) are both thin clients of this
//! type, so their results are byte-identical by construction: jobs are
//! compiled scenarios expanded to [`RunPoint`]s, deduped against the
//! cache, executed by the pool, and assembled **in grid order** exactly
//! as the pre-refactor batch runner did.
//!
//! Scheduling model:
//!
//! * A job is accepted ([`JobScheduler::accept`]) — validated, assigned
//!   a monotonic id, and given the latest *generation* of its scenario
//!   name on the bus (re-submitting a name supersedes the older
//!   generation: latest-generation-wins coalescing).
//! * [`JobScheduler::run_accepted`] drives the job on the submitting
//!   thread: it queues per-tier batches of uncached cells, waits on its
//!   bus subscription for their [`BusEvent::CellCompleted`] events
//!   (forwarding every job event to the caller's `on_event` hook — this
//!   is where streaming protocol messages and progress lines come from),
//!   and assembles the outcome from the cache.
//! * Workers claim cells under a single mutex, at most
//!   `RunnerOptions::threads` concurrently per job, checking the
//!   scenario's generation before each claim so a superseded job stops
//!   within one cell. The pool grows on demand to the largest
//!   parallelism any job has requested and idles on a condvar between
//!   jobs.
//!
//! When a [`Journal`] is installed ([`JobScheduler::set_journal`]),
//! every freshly executed cell is appended and flushed before its
//! completion event is published — the write-ahead log a killed daemon
//! resumes from.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ace_serve::RoundMemo;

use crate::bus::{BusEvent, EventBus, Subscription};
use crate::fidelity::{select_exact_cells, Fidelity, Tier};
use crate::grid::{self, RunPoint};
use crate::persist::Journal;
use crate::runner::{
    execute_analytic, execute_tier_with, Cache, Metrics, RunResult, RunnerOptions, SweepOutcome,
};
use crate::scenario::{BaselineSpec, Scenario, SweepMode};

/// Why a job did not produce an outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The scenario failed validation; the message names the problem.
    Invalid(String),
    /// A newer generation of the same scenario name superseded the job
    /// (latest-generation-wins coalescing).
    Superseded,
    /// A cell's executor panicked; the message carries the panic text.
    Failed(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Invalid(msg) => f.write_str(msg),
            JobError::Superseded => f.write_str("superseded by a newer submission"),
            JobError::Failed(msg) => write!(f, "job failed: {msg}"),
        }
    }
}

/// An accepted job: the ticket [`JobScheduler::accept`] returns, carrying
/// the validated scenario plus its scheduling identity.
#[derive(Debug, Clone)]
pub struct JobTicket {
    /// Scheduler-assigned job id.
    pub job: u64,
    /// The generation this submission holds for its scenario name.
    pub generation: u64,
    /// The validated scenario the ticket will run.
    pub scenario: Scenario,
}

/// One queued batch of same-tier cells awaiting workers. All scheduling
/// fields are guarded by the scheduler's state mutex.
struct Batch {
    id: u64,
    job: u64,
    scenario: String,
    generation: u64,
    tier: Tier,
    work: Arc<Vec<RunPoint>>,
    /// Next unclaimed cell index.
    next: usize,
    /// Cells currently executing.
    in_flight: usize,
    /// Cells finished (events published).
    completed: usize,
    /// Concurrency cap for this batch's job.
    max_workers: usize,
    /// Superseded or failed: no further claims.
    cancelled: bool,
}

/// Scheduler state shared with the workers.
struct Shared {
    cache: Arc<Cache>,
    rounds: RoundMemo,
    bus: EventBus,
    state: Mutex<Vec<Batch>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    next_job: AtomicU64,
    next_batch: AtomicU64,
    journal: Mutex<Option<Journal>>,
}

/// The resident scheduler (see the [module docs](self)).
pub struct JobScheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for JobScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobScheduler")
            .field("workers", &self.workers.lock().expect("worker list").len())
            .field("cache_entries", &self.shared.cache.len())
            .finish()
    }
}

impl Default for JobScheduler {
    fn default() -> JobScheduler {
        JobScheduler::new()
    }
}

impl JobScheduler {
    /// A scheduler with an empty cache. Workers spawn lazily, on demand
    /// of the jobs that run.
    pub fn new() -> JobScheduler {
        JobScheduler::with_cache(Cache::new())
    }

    /// A scheduler seeded with a pre-populated cache (e.g. loaded from a
    /// persistent cache file or replayed from a journal).
    pub fn with_cache(cache: Cache) -> JobScheduler {
        JobScheduler {
            shared: Arc::new(Shared {
                cache: Arc::new(cache),
                rounds: RoundMemo::new(),
                bus: EventBus::new(),
                state: Mutex::new(Vec::new()),
                work_ready: Condvar::new(),
                shutdown: AtomicBool::new(false),
                next_job: AtomicU64::new(1),
                next_batch: AtomicU64::new(1),
                journal: Mutex::new(None),
            }),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// The shared result cache.
    pub fn cache(&self) -> &Cache {
        &self.shared.cache
    }

    /// The round-cost memo shared by every serving cell this scheduler
    /// runs, across jobs: cells that differ only in arrival rate, seed,
    /// schedule, request count or token budget simulate each round
    /// program once between them.
    #[cfg(test)]
    pub(crate) fn rounds(&self) -> &RoundMemo {
        &self.shared.rounds
    }

    /// The scheduler's event bus — subscribe here to observe every job.
    pub fn bus(&self) -> &EventBus {
        &self.shared.bus
    }

    /// Installs (or replaces) the write-ahead journal: every freshly
    /// executed cell is appended and flushed before its completion event
    /// publishes.
    pub fn set_journal(&self, journal: Option<Journal>) {
        *self.shared.journal.lock().expect("journal lock") = journal;
    }

    /// Runs `f` on the installed journal, if any — the hook the service
    /// uses to append job lifecycle records.
    pub fn with_journal<R>(&self, f: impl FnOnce(&mut Journal) -> R) -> Option<R> {
        self.shared
            .journal
            .lock()
            .expect("journal lock")
            .as_mut()
            .map(f)
    }

    /// Validates `scenario` and accepts it as a job: assigns the next job
    /// id and bumps the scenario name's coalescing generation, which
    /// supersedes any in-flight job of the same name.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] when the scenario fails validation.
    pub fn accept(&self, scenario: &Scenario) -> Result<JobTicket, JobError> {
        scenario.validate().map_err(JobError::Invalid)?;
        let job = self.shared.next_job.fetch_add(1, Ordering::Relaxed);
        let generation = self.shared.bus.begin_generation(&scenario.name);
        // Proactively cancel stale batches instead of waiting for a
        // worker to notice at claim time.
        let mut superseded: Vec<BusEvent> = Vec::new();
        {
            let mut state = self.shared.state.lock().expect("scheduler state");
            for b in state.iter_mut() {
                if !b.cancelled && b.scenario == scenario.name && b.generation < generation {
                    b.cancelled = true;
                    superseded.push(BusEvent::JobSuperseded {
                        job: b.job,
                        scenario: b.scenario.clone(),
                        generation: b.generation,
                    });
                }
            }
        }
        for ev in &superseded {
            self.shared.bus.publish(ev);
        }
        Ok(JobTicket {
            job,
            generation,
            scenario: scenario.clone(),
        })
    }

    /// Runs an accepted job to completion on the calling thread, driving
    /// the worker pool. Every bus event of this job — `JobAccepted`,
    /// per-batch `BatchStarted`, streaming `CellCompleted`s,
    /// `JobFinished`, and the closing `CacheStats` — is also forwarded to
    /// `on_event` in order, which is how the CLI renders progress and the
    /// daemon streams protocol messages.
    ///
    /// # Errors
    ///
    /// [`JobError::Superseded`] when a newer generation of the scenario
    /// name arrived mid-run; [`JobError::Failed`] when a cell panicked.
    pub fn run_accepted(
        &self,
        ticket: &JobTicket,
        opts: RunnerOptions,
        on_event: &mut dyn FnMut(&BusEvent),
    ) -> Result<SweepOutcome, JobError> {
        let scenario = &ticket.scenario;
        let max_workers = self.resolve_workers(opts);
        let sub = self.shared.bus.subscribe();
        self.emit(
            &sub,
            on_event,
            BusEvent::JobAccepted {
                job: ticket.job,
                scenario: scenario.name.clone(),
                generation: ticket.generation,
                mode: scenario.mode,
                fidelity: scenario.fidelity,
                cells: grid::grid_len(scenario),
            },
        );
        let outcome = match scenario.fidelity {
            Fidelity::Exact => self.run_tier(ticket, Tier::Exact, max_workers, &sub, on_event),
            Fidelity::Analytic => {
                self.run_tier(ticket, Tier::Analytic, max_workers, &sub, on_event)
            }
            Fidelity::Hybrid => self.run_hybrid(ticket, max_workers, &sub, on_event),
        }?;
        self.emit(
            &sub,
            on_event,
            BusEvent::JobFinished {
                job: ticket.job,
                scenario: outcome.scenario.clone(),
                points: outcome.results.len(),
                executed: outcome.executed,
                analytic_executed: outcome.analytic_executed,
                cache_hits: outcome.cache_hits,
            },
        );
        let (entries, exact, analytic) = self.shared.cache.tier_counts();
        self.emit(
            &sub,
            on_event,
            BusEvent::CacheStats {
                entries,
                exact,
                analytic,
            },
        );
        Ok(outcome)
    }

    /// Convenience: accept + run in one call.
    ///
    /// # Errors
    ///
    /// See [`accept`](JobScheduler::accept) and
    /// [`run_accepted`](JobScheduler::run_accepted).
    pub fn run_job(
        &self,
        scenario: &Scenario,
        opts: RunnerOptions,
        on_event: &mut dyn FnMut(&BusEvent),
    ) -> Result<SweepOutcome, JobError> {
        let ticket = self.accept(scenario)?;
        self.run_accepted(&ticket, opts, on_event)
    }

    /// Publishes an event this thread originated (skipping its own
    /// subscription so the drain loop never echoes it) and hands it to
    /// the caller's hook.
    fn emit(&self, sub: &Subscription, on_event: &mut dyn FnMut(&BusEvent), ev: BusEvent) {
        self.shared.bus.publish_excluding(Some(sub.id), &ev);
        on_event(&ev);
    }

    /// Single-tier job: every grid cell through one execution tier.
    fn run_tier(
        &self,
        ticket: &JobTicket,
        tier: Tier,
        max_workers: usize,
        sub: &Subscription,
        on_event: &mut dyn FnMut(&BusEvent),
    ) -> Result<SweepOutcome, JobError> {
        let scenario = &ticket.scenario;
        let points = grid::expand(scenario);
        let baseline_points = baseline_points(scenario);
        let work = self.queue_work(points.iter().chain(baseline_points.iter()), tier);
        self.run_batch(ticket, tier, &work, max_workers, sub, on_event)?;

        let tiers = vec![tier; points.len()];
        let queued: HashSet<RunPoint> = work.iter().cloned().collect();
        let (results, cache_hits) = self.assemble(scenario, &points, &tiers, |t, p| {
            t == tier && queued.contains(p)
        });

        let (executed, analytic_executed) = match tier {
            Tier::Exact => (work.len(), 0),
            Tier::Analytic => (0, work.len()),
        };
        Ok(SweepOutcome {
            scenario: scenario.name.clone(),
            mode: scenario.mode,
            fidelity: match tier {
                Tier::Exact => Fidelity::Exact,
                Tier::Analytic => Fidelity::Analytic,
            },
            results,
            executed,
            analytic_executed,
            cache_hits,
        })
    }

    /// Hybrid job: α–β triage over the whole grid, exact re-simulation of
    /// the analytic Pareto frontier + top-K % cells + the baseline.
    fn run_hybrid(
        &self,
        ticket: &JobTicket,
        max_workers: usize,
        sub: &Subscription,
        on_event: &mut dyn FnMut(&BusEvent),
    ) -> Result<SweepOutcome, JobError> {
        let scenario = &ticket.scenario;
        let points = grid::expand(scenario);
        let baseline_pts = baseline_points(scenario);

        // ---- Tier 1: analytic triage of every unique point. ----------
        let work_a = self.queue_work(points.iter().chain(baseline_pts.iter()), Tier::Analytic);
        self.run_batch(ticket, Tier::Analytic, &work_a, max_workers, sub, on_event)?;

        let triage: Vec<(RunPoint, Metrics)> = points
            .iter()
            .map(|p| {
                let m = self
                    .shared
                    .cache
                    .get_tier(Tier::Analytic, p)
                    .expect("triage covered the grid");
                (p.clone(), m)
            })
            .collect();

        // ---- Select the cells worth exact simulation. ----------------
        let probe = |p: &RunPoint| execute_analytic(p).time_us;
        let keep = select_exact_cells(&triage, scenario.hybrid_top_pct, &probe);
        let tiers: Vec<Tier> = keep
            .iter()
            .map(|&k| if k { Tier::Exact } else { Tier::Analytic })
            .collect();

        let selected = points
            .iter()
            .zip(&keep)
            .filter_map(|(p, &k)| k.then_some(p));
        let work_e = self.queue_work(selected.chain(baseline_pts.iter()), Tier::Exact);
        self.run_batch(ticket, Tier::Exact, &work_e, max_workers, sub, on_event)?;

        // ---- Assemble: exact rows where selected, analytic elsewhere. -
        let queued_a: HashSet<RunPoint> = work_a.iter().cloned().collect();
        let queued_e: HashSet<RunPoint> = work_e.iter().cloned().collect();
        let (results, cache_hits) = self.assemble(scenario, &points, &tiers, |t, p| match t {
            Tier::Exact => queued_e.contains(p),
            Tier::Analytic => queued_a.contains(p),
        });

        Ok(SweepOutcome {
            scenario: scenario.name.clone(),
            mode: scenario.mode,
            fidelity: Fidelity::Hybrid,
            results,
            executed: work_e.len(),
            analytic_executed: work_a.len(),
            cache_hits,
        })
    }

    /// Queues one batch on the pool and waits for its completion events,
    /// forwarding them (and the leading `BatchStarted`) to `on_event`.
    fn run_batch(
        &self,
        ticket: &JobTicket,
        tier: Tier,
        work: &[RunPoint],
        max_workers: usize,
        sub: &Subscription,
        on_event: &mut dyn FnMut(&BusEvent),
    ) -> Result<(), JobError> {
        let cached = self.cached_unique(ticket, tier, work);
        self.emit(
            sub,
            on_event,
            BusEvent::BatchStarted {
                job: ticket.job,
                tier,
                queued: work.len(),
                cached,
            },
        );
        if work.is_empty() {
            // Still superseded-able: a warm job of a stale generation
            // must not report success.
            if !self
                .shared
                .bus
                .is_current(&ticket.scenario.name, ticket.generation)
            {
                return Err(JobError::Superseded);
            }
            return Ok(());
        }
        self.ensure_workers(max_workers.min(work.len()));
        {
            let mut state = self.shared.state.lock().expect("scheduler state");
            state.push(Batch {
                id: self.shared.next_batch.fetch_add(1, Ordering::Relaxed),
                job: ticket.job,
                scenario: ticket.scenario.name.clone(),
                generation: ticket.generation,
                tier,
                work: Arc::new(work.to_vec()),
                next: 0,
                in_flight: 0,
                completed: 0,
                max_workers,
                cancelled: false,
            });
        }
        self.shared.work_ready.notify_all();

        let mut seen = 0usize;
        while seen < work.len() {
            let Some(ev) = sub.recv() else {
                return Err(JobError::Failed("event bus closed".into()));
            };
            match &ev {
                BusEvent::CellCompleted { job, tier: t, .. }
                    if *job == ticket.job && *t == tier =>
                {
                    seen += 1;
                    on_event(&ev);
                }
                BusEvent::CellFailed { job, error, .. } if *job == ticket.job => {
                    let error = error.clone();
                    on_event(&ev);
                    return Err(JobError::Failed(error));
                }
                BusEvent::JobSuperseded { job, .. } if *job == ticket.job => {
                    on_event(&ev);
                    return Err(JobError::Superseded);
                }
                _ => {} // other jobs' traffic
            }
        }
        Ok(())
    }

    /// Unique cells of the batch's *wanted set* already in the cache —
    /// the `cached` figure of `BatchStarted`. `work` holds the queued
    /// remainder, so wanted = grid-unique = queued + cached; computed
    /// from the grid to count each unique point once.
    fn cached_unique(&self, ticket: &JobTicket, tier: Tier, work: &[RunPoint]) -> usize {
        let queued: HashSet<&RunPoint> = work.iter().collect();
        let points = grid::expand(&ticket.scenario);
        let baseline = baseline_points(&ticket.scenario);
        let mut seen: HashSet<&RunPoint> = HashSet::new();
        let mut cached = 0usize;
        for p in points.iter().chain(baseline.iter()) {
            if seen.insert(p) && !queued.contains(p) && self.shared.cache.contains_tier(tier, p) {
                cached += 1;
            }
        }
        cached
    }

    /// The work list for one tier: every unique point of `wanted` not
    /// already cached, in first-seen order (grid first, then any baseline
    /// points outside the grid).
    fn queue_work<'a>(
        &self,
        wanted: impl Iterator<Item = &'a RunPoint>,
        tier: Tier,
    ) -> Vec<RunPoint> {
        let mut queued: HashSet<&RunPoint> = HashSet::new();
        let mut work: Vec<RunPoint> = Vec::new();
        for p in wanted {
            if !self.shared.cache.contains_tier(tier, p) && queued.insert(p) {
                work.push(p.clone());
            }
        }
        work
    }

    /// Assembles grid-order rows: each point's metrics from its tier's
    /// cache, cache-hit bookkeeping (the first occurrence of a point
    /// freshly executed this run is the one non-hit row), and baseline
    /// speedups compared within each row's own tier — an analytic
    /// estimate is never divided by an event-driven baseline.
    fn assemble(
        &self,
        scenario: &Scenario,
        points: &[RunPoint],
        tiers: &[Tier],
        freshly_executed: impl Fn(Tier, &RunPoint) -> bool,
    ) -> (Vec<RunResult>, usize) {
        let cache = &self.shared.cache;
        let mut seen: HashSet<(Tier, &RunPoint)> = HashSet::new();
        let mut cache_hits = 0usize;
        let mut results: Vec<RunResult> = points
            .iter()
            .zip(tiers)
            .map(|(p, &tier)| {
                let metrics = cache
                    .get_tier(tier, p)
                    .expect("every grid point was executed in its tier");
                let fresh = freshly_executed(tier, p) && seen.insert((tier, p));
                let cache_hit = !fresh;
                if cache_hit {
                    cache_hits += 1;
                }
                RunResult {
                    point: p.clone(),
                    metrics,
                    fidelity: tier,
                    cache_hit,
                    speedup_vs_baseline: None,
                }
            })
            .collect();

        if scenario.baseline.is_some() {
            for r in &mut results {
                let bp = baseline_point_for(scenario, &r.point);
                let base = cache
                    .get_tier(r.fidelity, &bp)
                    .expect("baseline point was executed in the row's tier");
                if r.metrics.time_us > 0.0 {
                    r.speedup_vs_baseline = Some(base.time_us / r.metrics.time_us);
                }
            }
        }
        (results, cache_hits)
    }

    /// Resolves the per-job worker cap from the options.
    fn resolve_workers(&self, opts: RunnerOptions) -> usize {
        if opts.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            opts.threads
        }
        .max(1)
    }

    /// Grows the pool so at least `n` workers exist (never shrinks).
    fn ensure_workers(&self, n: usize) {
        let mut workers = self.workers.lock().expect("worker list");
        while workers.len() < n {
            let shared = Arc::clone(&self.shared);
            let idx = workers.len();
            let handle = std::thread::Builder::new()
                .name(format!("ace-sweep-worker-{idx}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn sweep worker");
            workers.push(handle);
        }
    }
}

impl Drop for JobScheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_ready.notify_all();
        let mut workers = self.workers.lock().expect("worker list");
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One claimed cell, snapshotted out of the state lock.
struct Claim {
    batch: u64,
    job: u64,
    tier: Tier,
    work: Arc<Vec<RunPoint>>,
    index: usize,
    total: usize,
}

/// The resident worker: claim a cell, execute it, store + journal the
/// result, publish the completion event; idle on the condvar when no
/// batch has claimable work.
fn worker_loop(shared: &Shared) {
    loop {
        let claim = {
            let mut state = shared.state.lock().expect("scheduler state");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Retire batches nobody will touch again.
                state.retain(|b| {
                    let drained = b.completed == b.work.len();
                    let dead = b.cancelled && b.in_flight == 0;
                    !(drained || dead)
                });
                let mut superseded: Option<BusEvent> = None;
                let mut found: Option<Claim> = None;
                for b in state.iter_mut() {
                    if b.cancelled {
                        continue;
                    }
                    if !shared.bus.is_current(&b.scenario, b.generation) {
                        b.cancelled = true;
                        superseded = Some(BusEvent::JobSuperseded {
                            job: b.job,
                            scenario: b.scenario.clone(),
                            generation: b.generation,
                        });
                        break;
                    }
                    if b.next < b.work.len() && b.in_flight < b.max_workers {
                        let index = b.next;
                        b.next += 1;
                        b.in_flight += 1;
                        found = Some(Claim {
                            batch: b.id,
                            job: b.job,
                            tier: b.tier,
                            work: Arc::clone(&b.work),
                            index,
                            total: b.work.len(),
                        });
                        break;
                    }
                }
                if let Some(ev) = superseded {
                    drop(state);
                    shared.bus.publish(&ev);
                    state = shared.state.lock().expect("scheduler state");
                    continue;
                }
                match found {
                    Some(c) => break c,
                    None => state = shared.work_ready.wait(state).expect("scheduler state"),
                }
            }
        };

        let point = &claim.work[claim.index];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute_tier_with(point, claim.tier, &shared.rounds)
        }));
        match outcome {
            Ok(metrics) => {
                shared.cache.insert_tier(claim.tier, point.clone(), metrics);
                if let Some(journal) = shared.journal.lock().expect("journal lock").as_mut() {
                    // A journal write failure must not lose the in-memory
                    // result; the service surfaces it via stats instead.
                    let _ = journal.append_row(claim.tier, point, &metrics);
                }
                let completed = {
                    let mut state = shared.state.lock().expect("scheduler state");
                    if let Some(b) = state.iter_mut().find(|b| b.id == claim.batch) {
                        b.in_flight -= 1;
                        b.completed += 1;
                        b.completed
                    } else {
                        0
                    }
                };
                shared.bus.publish(&BusEvent::CellCompleted {
                    job: claim.job,
                    tier: claim.tier,
                    index: completed,
                    total: claim.total,
                    point: point.clone(),
                    metrics: Box::new(metrics),
                });
            }
            Err(panic) => {
                let error = panic_text(panic.as_ref());
                {
                    let mut state = shared.state.lock().expect("scheduler state");
                    if let Some(b) = state.iter_mut().find(|b| b.id == claim.batch) {
                        b.in_flight -= 1;
                        b.cancelled = true;
                    }
                }
                shared.bus.publish(&BusEvent::CellFailed {
                    job: claim.job,
                    tier: claim.tier,
                    label: point.label(),
                    error,
                });
            }
        }
        shared.work_ready.notify_all();
    }
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
/// coordinates with the engine/config swapped for the scenario baseline.
fn baseline_point_for(scenario: &Scenario, point: &RunPoint) -> RunPoint {
    match (scenario.baseline, &point.kind) {
        (
            Some(BaselineSpec::Engine(spec)),
            crate::grid::PointKind::Collective {
                op, payload_bytes, ..
            },
        ) => RunPoint {
            topology: point.topology,
            conditions: point.conditions.clone(),
            kind: crate::grid::PointKind::Collective {
                engine: spec,
                op: *op,
                payload_bytes: *payload_bytes,
            },
        },
        (
            Some(BaselineSpec::Config(cfg)),
            crate::grid::PointKind::Training {
                workload,
                iterations,
                optimized_embedding,
                ..
            },
        ) => RunPoint {
            topology: point.topology,
            conditions: point.conditions.clone(),
            kind: crate::grid::PointKind::Training {
                config: cfg,
                workload: workload.clone(),
                iterations: *iterations,
                optimized_embedding: *optimized_embedding,
            },
        },
        _ => point.clone(),
    }
}

/// All baseline points a scenario needs (one per cross-product of the
/// non-config axes); empty when no baseline is named.
fn baseline_points(scenario: &Scenario) -> Vec<RunPoint> {
    let Some(baseline) = scenario.baseline else {
        return Vec::new();
    };
    let mut out = Vec::new();
    // Speedups compare engines/configs under identical run conditions, so
    // every conditions cell needs its own baseline point.
    let conditions = crate::grid::conditions_product(scenario);
    match (baseline, scenario.mode) {
        (BaselineSpec::Engine(spec), SweepMode::Collective) => {
            for &topology in &scenario.topologies {
                for &op in &scenario.ops {
                    for &payload_bytes in &scenario.payload_bytes {
                        for conditions in &conditions {
                            out.push(RunPoint {
                                topology,
                                conditions: conditions.clone(),
                                kind: crate::grid::PointKind::Collective {
                                    engine: spec,
                                    op,
                                    payload_bytes,
                                },
                            });
                        }
                    }
                }
            }
        }
        (BaselineSpec::Config(cfg), SweepMode::Training) => {
            for &topology in &scenario.topologies {
                for workload in &scenario.workloads {
                    for conditions in &conditions {
                        out.push(RunPoint {
                            topology,
                            conditions: conditions.clone(),
                            kind: crate::grid::PointKind::Training {
                                config: cfg,
                                workload: workload.clone(),
                                iterations: scenario.iterations,
                                optimized_embedding: scenario.optimized_embedding,
                            },
                        });
                    }
                }
            }
        }
        // validate() rejects mismatched baseline kinds.
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::EngineFamily;
    use ace_net::TopologySpec;

    fn tiny(name: &str) -> Scenario {
        let mut sc = Scenario::collective(name);
        sc.topologies = vec![TopologySpec::torus3(2, 1, 1).unwrap()];
        sc.engines = vec![EngineFamily::Ideal, EngineFamily::Baseline];
        sc.payload_bytes = vec![256 * 1024];
        sc.mem_gbps = vec![128.0, 450.0];
        sc.comm_sms = vec![6];
        sc
    }

    #[test]
    fn scheduler_outlives_jobs_and_keeps_the_cache_warm() {
        let sched = JobScheduler::new();
        let sc = tiny("resident");
        let opts = RunnerOptions {
            threads: 2,
            ..Default::default()
        };
        let first = sched.run_job(&sc, opts, &mut |_| {}).unwrap();
        assert_eq!(first.executed, 3);
        // Second submission of the same grid through the *same* resident
        // scheduler: fully served from the warm cache.
        let second = sched.run_job(&sc, opts, &mut |_| {}).unwrap();
        assert_eq!(second.executed, 0);
        assert_eq!(second.cache_hits, second.results.len());
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn events_tell_the_whole_story() {
        let sched = JobScheduler::new();
        let sc = tiny("events");
        let mut events: Vec<String> = Vec::new();
        let out = sched
            .run_job(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
                &mut |ev| {
                    events.push(match ev {
                        BusEvent::JobAccepted { cells, .. } => format!("accepted:{cells}"),
                        BusEvent::BatchStarted { queued, cached, .. } => {
                            format!("batch:{queued}+{cached}")
                        }
                        BusEvent::CellCompleted { index, total, .. } => {
                            format!("cell:{index}/{total}")
                        }
                        BusEvent::JobFinished { executed, .. } => format!("finished:{executed}"),
                        BusEvent::CacheStats { entries, .. } => format!("stats:{entries}"),
                        other => format!("{other:?}"),
                    });
                },
            )
            .unwrap();
        assert_eq!(out.executed, 3);
        assert_eq!(
            events,
            vec![
                "accepted:4",
                "batch:3+0",
                "cell:1/3",
                "cell:2/3",
                "cell:3/3",
                "finished:3",
                "stats:3"
            ]
        );
    }

    #[test]
    fn observers_see_broadcasts() {
        let sched = JobScheduler::new();
        let observer = sched.bus().subscribe();
        let sc = tiny("observed");
        sched
            .run_job(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
                &mut |_| {},
            )
            .unwrap();
        let kinds: Vec<&'static str> = observer
            .try_iter()
            .map(|ev| match ev {
                BusEvent::JobAccepted { .. } => "accepted",
                BusEvent::BatchStarted { .. } => "batch",
                BusEvent::CellCompleted { .. } => "cell",
                BusEvent::JobFinished { .. } => "finished",
                BusEvent::CacheStats { .. } => "stats",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["accepted", "batch", "cell", "cell", "cell", "finished", "stats"]
        );
    }

    #[test]
    fn resubmission_supersedes_the_stale_generation() {
        let sched = JobScheduler::new();
        let sc = tiny("coalesce");
        let stale = sched.accept(&sc).unwrap();
        let fresh = sched.accept(&sc).unwrap();
        assert!(fresh.generation > stale.generation);
        // The stale ticket is refused even though its batches are empty
        // of queued work.
        let err = sched
            .run_accepted(
                &stale,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
                &mut |_| {},
            )
            .unwrap_err();
        assert_eq!(err, JobError::Superseded);
        // The fresh ticket runs to completion.
        let out = sched
            .run_accepted(
                &fresh,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
                &mut |_| {},
            )
            .unwrap();
        assert_eq!(out.executed, 3);
    }

    #[test]
    fn invalid_scenarios_are_rejected_at_accept() {
        let sched = JobScheduler::new();
        let mut sc = tiny("invalid");
        sc.topologies.clear();
        match sched.accept(&sc) {
            Err(JobError::Invalid(msg)) => assert!(msg.contains("topolog"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }
}
