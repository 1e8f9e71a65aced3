//! The continuous-batching serving simulation.
//!
//! Requests arrive open-loop, queue FIFO, and are served in *rounds*: a
//! round folds one decode token per running request plus as many queued
//! prompts as the token budget admits into a single forward-only pipeline
//! pass over the model. Each round is lowered to a multi-timeline
//! [`Program`] — per-microbatch stage kernels chained by stage-boundary
//! send-recv activation transfers — and executed by the event-driven
//! executor (exact tier) or the α–β critical-path walker (analytic tier).
//! A round's cost depends only on its program and the system it runs on,
//! never on when it runs, so costs live in a [`RoundMemo`] that any
//! number of simulations may share: a serving simulation with thousands
//! of decode rounds pays for only a handful of distinct simulations, and
//! the cells of a sweep that differ only in load, seed or schedule pay
//! for them once between them.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard};

use ace_collectives::CollectiveOp;
use ace_compute::KernelDesc;
use ace_net::TopologySpec;
use ace_system::{analytic_program_run_with_conditions, RunConditions, SystemConfig, TrainSpec};
use ace_workloads::{Parallelism, PipeSchedule, Program, TaskPhase, Workload};

use crate::spec::ServingSpec;

/// Which simulator executes each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServingTier {
    /// The event-driven collective executor (cycle-exact).
    Exact,
    /// The closed-form α–β critical-path walk.
    Analytic,
}

/// Knobs of one [`simulate`] call that are not part of the point's
/// identity: the tier is keyed separately by the sweep cache.
#[derive(Debug, Clone, Copy)]
pub struct ServingOptions {
    /// Simulation tier.
    pub tier: ServingTier,
    /// Ignored: no code reads it. It stays only because the benchmark
    /// harness sets it, and the next benchmark change removes it.
    pub sim_threads: usize,
}

impl Default for ServingOptions {
    fn default() -> ServingOptions {
        ServingOptions {
            tier: ServingTier::Exact,
            sim_threads: 1,
        }
    }
}

/// Per-request latency record, cycle-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request index in arrival order.
    pub id: u32,
    /// Arrival instant, cycles.
    pub arrival_cycles: u64,
    /// Time to first token: prefill-round completion minus arrival.
    pub ttft_cycles: u64,
    /// End-to-end latency: last-decode-round completion minus arrival.
    pub e2e_cycles: u64,
}

/// The result of a serving simulation.
#[derive(Debug, Clone)]
pub struct ServingOutcome {
    /// One record per served request, in arrival order.
    pub requests: Vec<RequestRecord>,
    /// Completion instant of the last round, cycles.
    pub makespan_cycles: u64,
    /// Rounds executed (each one forward pipeline pass).
    pub rounds: u32,
    /// Round programs this call simulated. Rounds whose cost came from
    /// the [`RoundMemo`] — filled by this call or by earlier ones sharing
    /// it — are excluded.
    pub simulated_rounds: u32,
    /// Queue depth (arrived, not yet admitted) sampled at each round
    /// start: `(cycles, depth)`.
    pub queue_depth: Vec<(u64, u32)>,
    /// Compute-busy cycles summed over rounds.
    pub compute_cycles: u64,
    /// Exposed-communication cycles summed over rounds.
    pub exposed_cycles: u64,
    /// Per-node HBM communication traffic summed over rounds, bytes.
    pub mem_traffic_bytes: u64,
    /// Fabric bytes summed over rounds.
    pub network_bytes: u64,
    /// Events scheduled in the past and clamped (exact tier invariant
    /// counter; always 0 in a correct simulation).
    pub past_schedules: u64,
    /// NPU clock the cycle counts are against, Hz.
    pub freq_hz: f64,
}

/// The exact order statistic of `values` at percentile `p`: the smallest
/// element with at least `ceil(p/100 · n)` elements ≤ it. No
/// interpolation — the returned value is always one that actually
/// occurred.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

impl ServingOutcome {
    fn sorted(&self, f: impl Fn(&RequestRecord) -> u64) -> Vec<u64> {
        let mut v: Vec<u64> = self.requests.iter().map(f).collect();
        v.sort_unstable();
        v
    }

    /// Time-to-first-token percentile, microseconds (exact order
    /// statistic).
    pub fn ttft_percentile_us(&self, p: f64) -> f64 {
        percentile(&self.sorted(|r| r.ttft_cycles), p) as f64 / self.freq_hz * 1e6
    }

    /// End-to-end latency percentile, microseconds (exact order
    /// statistic).
    pub fn e2e_percentile_us(&self, p: f64) -> f64 {
        percentile(&self.sorted(|r| r.e2e_cycles), p) as f64 / self.freq_hz * 1e6
    }

    /// Completed requests per second of simulated time.
    pub fn goodput_rps(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.requests.len() as f64 / (self.makespan_cycles as f64 / self.freq_hz)
    }

    /// Makespan in microseconds.
    pub fn makespan_us(&self) -> f64 {
        self.makespan_cycles as f64 / self.freq_hz * 1e6
    }
}

/// Per-stage cost model derived from the workload: fused forward kernels
/// for the contiguous layer partition `cut(s) = s·L/S`, plus the
/// activation bytes crossing each stage boundary (the boundary layer's
/// comm payload, like the training pipeline lowering).
///
/// Serving a tensor-parallel workload ([`Parallelism::Model`]) adds a
/// per-stage forward all-reduce — Megatron-style inference synchronizes
/// the stage's output activation across the tensor-parallel group, so
/// the payload is the stage's boundary-activation proxy (its last
/// layer's comm bytes, the same sizing the boundary transfer uses).
/// Data-parallel workloads keep their collectives in the skipped
/// backward pass and serve with send-recv boundaries only.
struct StageModel {
    fwd: Vec<KernelDesc>,
    boundary_bytes: Vec<u64>,
    /// Per-stage tensor-parallel all-reduce payload; all zero unless the
    /// workload is model-parallel.
    tp_bytes: Vec<u64>,
}

impl StageModel {
    fn new(workload: &Workload, stages: usize) -> Result<StageModel, String> {
        let layers = workload.layers();
        if layers.len() < stages {
            return Err(format!(
                "workload '{}' has {} layers; cannot split into {stages} pipeline stages",
                workload.name(),
                layers.len()
            ));
        }
        let tensor_parallel = workload.parallelism() == Parallelism::Model;
        let cut = |s: usize| s * layers.len() / stages;
        let mut fwd = Vec::with_capacity(stages);
        let mut boundary_bytes = Vec::with_capacity(stages.saturating_sub(1));
        let mut tp_bytes = Vec::with_capacity(stages);
        for s in 0..stages {
            let group = &layers[cut(s)..cut(s + 1)];
            let (mut flops, mut bytes) = (0.0, 0.0);
            for l in group {
                flops += l.fwd().flops();
                bytes += l.fwd().mem_bytes();
            }
            fwd.push(KernelDesc::new(format!("serve-stage{s}"), flops, bytes));
            let tp = group
                .last()
                .and_then(|l| l.comm())
                .map(|c| c.bytes)
                .unwrap_or(0);
            tp_bytes.push(if tensor_parallel { tp } else { 0 });
            if s + 1 < stages {
                let boundary = &layers[cut(s + 1) - 1];
                boundary_bytes.push(boundary.comm().map(|c| c.bytes).unwrap_or(0));
            }
        }
        Ok(StageModel {
            fwd,
            boundary_bytes,
            tp_bytes,
        })
    }

    /// Lowers one round over `tokens` tokens to a forward-only pipeline
    /// program. The workload's forward pass is calibrated to
    /// `prompt_tokens` tokens, so kernels and activation transfers scale
    /// by `tokens / prompt_tokens`, split across `microbatches`.
    fn round_program(&self, spec: &ServingSpec, tokens: u64) -> Program {
        let s_n = self.fwd.len();
        let m_n = spec.microbatches.max(1) as usize;
        let scale = tokens as f64 / spec.prompt_tokens as f64;
        let micro_scale = scale / m_n as f64;
        let mut p = Program::new(
            "serving-round",
            Parallelism::Pipeline {
                stages: s_n as u32,
                microbatches: m_n as u32,
                schedule: spec.schedule,
            },
            1,
        );
        let per_micro = |b: u64| {
            let round = (b as f64 * scale) as u64;
            round.div_ceil(m_n as u64).min(round).max(u64::from(b > 0))
        };
        let micro_bytes: Vec<u64> = self.boundary_bytes.iter().map(|&b| per_micro(b)).collect();
        let tp_micro: Vec<u64> = self.tp_bytes.iter().map(|&b| per_micro(b)).collect();
        // Stage-major emission keeps the schedule topological: stage s
        // only waits on stage s-1 transfers already scheduled.
        let mut xfer: Vec<Option<ace_workloads::TaskId>> = vec![None; m_n];
        for s in 0..s_n {
            for (m, slot) in xfer.iter_mut().enumerate() {
                let waits = match slot.take() {
                    Some(t) => vec![t],
                    None => Vec::new(),
                };
                let kernel = KernelDesc::new(
                    format!("serve-s{s}-m{m}"),
                    self.fwd[s].flops() * micro_scale,
                    self.fwd[s].mem_bytes() * micro_scale,
                );
                let c = p.add_compute_on(s, kernel, TaskPhase::Forward, 0, waits);
                // Tensor-parallel stages all-reduce their activations
                // before handing them to the next stage. Both collectives
                // anchor to the stage kernel: a collective may not depend
                // on another collective (`Program::validate`), and both
                // tiers issue a stage's collectives in schedule order at
                // its frontier.
                if tp_micro[s] > 0 {
                    p.add_collective_on(
                        s,
                        CollectiveOp::AllReduce,
                        tp_micro[s],
                        TaskPhase::Forward,
                        0,
                        vec![c],
                    );
                }
                if s + 1 < s_n {
                    *slot = Some(p.add_collective_on(
                        s,
                        CollectiveOp::SendRecv,
                        micro_bytes[s],
                        TaskPhase::Forward,
                        0,
                        vec![c],
                    ));
                }
            }
        }
        p
    }
}

/// Lowers the cold-start prefill round of `spec` on `workload` — a single
/// admitted prompt, split across the spec's stages and microbatches — to
/// its forward-only pipeline [`Program`]. This is the representative
/// round tracing tools re-run with event recording enabled; the serving
/// loop itself synthesizes (and memoizes) one such program per distinct
/// round token count.
///
/// # Errors
///
/// Returns a message when the spec is inconsistent or the workload has
/// fewer layers than requested stages.
pub fn first_round_program(workload: &Workload, spec: &ServingSpec) -> Result<Program, String> {
    spec.validate()?;
    let stages = (spec.stages as usize).min(workload.layers().len()).max(1);
    let model = StageModel::new(workload, stages)?;
    Ok(model.round_program(spec, u64::from(spec.prompt_tokens)))
}

/// A request mid-service: decode rounds left until its last token.
struct Active {
    id: u32,
    remaining: u32,
}

/// The simulated cost of one round.
#[derive(Debug, Clone, Copy)]
struct RoundCost {
    cycles: u64,
    compute: u64,
    exposed: u64,
    mem_traffic: u64,
    network: u64,
    past: u64,
}

/// Everything a round's simulated cost depends on besides its token
/// count: the tier, the system it runs on, and the inputs of
/// [`StageModel::round_program`]. The arrival process, request count,
/// decode length, token budget and schedule only place rounds on the
/// clock (the schedule also tags the program's [`Parallelism`], which
/// neither tier reads), so they are left out and cells differing only in
/// them share costs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RoundModel {
    tier: ServingTier,
    config: SystemConfig,
    topology: TopologySpec,
    conditions: RunConditions,
    /// Per stage: forward flops and bytes, by bit pattern.
    fwd: Vec<(u64, u64)>,
    boundary_bytes: Vec<u64>,
    tp_bytes: Vec<u64>,
    microbatches: u32,
    prompt_tokens: u32,
}

/// Round costs shared by the serving simulations that draw from it —
/// one sweep runner's serving cells, say — so each distinct round program
/// is simulated once between them. A cost is keyed by the tier, system
/// config, topology, run conditions, the workload's per-stage model,
/// microbatches, prompt length and the round's token count; both tiers
/// are deterministic, so a shared memo gives the same outcomes as a
/// fresh one.
///
/// The lock is held only to look up or record a cost, never while a
/// round simulates: simulations sharing a memo stay parallel (two may
/// both simulate a round neither has recorded yet, and record the same
/// cost), and a panicking round cannot poison the lock.
#[derive(Debug, Default)]
pub struct RoundMemo {
    state: Mutex<MemoState>,
}

#[derive(Debug, Default)]
struct MemoState {
    costs: HashMap<RoundModel, HashMap<u64, RoundCost>>,
    simulated: u64,
}

impl RoundMemo {
    /// An empty memo.
    pub fn new() -> RoundMemo {
        RoundMemo::default()
    }

    /// Distinct round programs whose cost the memo holds.
    pub fn len(&self) -> usize {
        self.lock().costs.values().map(HashMap::len).sum()
    }

    /// Whether the memo holds no cost.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Round simulations recorded into the memo: [`len`](RoundMemo::len)
    /// plus any rounds that concurrent simulations raced to simulate
    /// twice.
    pub fn simulated(&self) -> u64 {
        self.lock().simulated
    }

    fn lock(&self) -> MutexGuard<'_, MemoState> {
        self.state
            .lock()
            .expect("round memo lock is never held across a simulation")
    }

    fn get(&self, model: &RoundModel, tokens: u64) -> Option<RoundCost> {
        self.lock().costs.get(model)?.get(&tokens).copied()
    }

    fn record(&self, model: &RoundModel, tokens: u64, cost: RoundCost) {
        let mut state = self.lock();
        state.simulated += 1;
        state
            .costs
            .entry(model.clone())
            .or_default()
            .insert(tokens, cost);
    }
}

/// Runs one serving simulation: `spec.requests` requests generated by
/// `spec.arrival` at `spec.rate_rps`, continuously batched onto
/// `workload` partitioned into `spec.stages` pipeline stages on
/// `topology` under `config`.
pub fn simulate(
    config: SystemConfig,
    workload: &Workload,
    topology: TopologySpec,
    spec: &ServingSpec,
    opts: &ServingOptions,
) -> Result<ServingOutcome, String> {
    simulate_with_conditions(
        config,
        workload,
        topology,
        spec,
        opts,
        &RunConditions::default(),
    )
}

/// [`simulate`] under explicit [`RunConditions`]: every round program
/// runs on the degraded fabric (faults resolved once, stragglers applied
/// per round program), so the outcome's TTFT/e2e percentiles answer
/// "does this topology hold its latency target with k failed links".
/// Conditions are part of a run's identity — they are a separate
/// parameter, not a [`ServingOptions`] knob, because options must never
/// change results. Round costs come from a fresh [`RoundMemo`]; see
/// [`simulate_with_memo`] to share one.
pub fn simulate_with_conditions(
    config: SystemConfig,
    workload: &Workload,
    topology: TopologySpec,
    spec: &ServingSpec,
    opts: &ServingOptions,
    conditions: &RunConditions,
) -> Result<ServingOutcome, String> {
    simulate_with_memo(
        config,
        workload,
        topology,
        spec,
        opts,
        conditions,
        &RoundMemo::new(),
    )
}

/// [`simulate_with_conditions`] drawing round costs from `memo` and
/// recording there the rounds it simulates. The outcome is the same as
/// with a fresh memo; only [`ServingOutcome::simulated_rounds`] drops by
/// the rounds earlier simulations already recorded.
pub fn simulate_with_memo(
    config: SystemConfig,
    workload: &Workload,
    topology: TopologySpec,
    spec: &ServingSpec,
    opts: &ServingOptions,
    conditions: &RunConditions,
    memo: &RoundMemo,
) -> Result<ServingOutcome, String> {
    spec.validate()?;
    let freq = ace_simcore::npu_frequency();
    let hz = freq.hz();
    let stages = (spec.stages as usize).min(workload.layers().len()).max(1);
    let model = StageModel::new(workload, stages)?;
    let arrivals = spec
        .arrival
        .generate(spec.rate_rps, spec.seed, spec.requests as usize, hz)?;

    let mut outcome = ServingOutcome {
        requests: Vec::with_capacity(arrivals.len()),
        makespan_cycles: 0,
        rounds: 0,
        simulated_rounds: 0,
        queue_depth: Vec::new(),
        compute_cycles: 0,
        exposed_cycles: 0,
        mem_traffic_bytes: 0,
        network_bytes: 0,
        past_schedules: 0,
        freq_hz: hz,
    };

    let round_model = RoundModel {
        tier: opts.tier,
        config,
        topology,
        conditions: conditions.clone(),
        fwd: model
            .fwd
            .iter()
            .map(|k| (k.flops().to_bits(), k.mem_bytes().to_bits()))
            .collect(),
        boundary_bytes: model.boundary_bytes.clone(),
        tp_bytes: model.tp_bytes.clone(),
        microbatches: spec.microbatches,
        prompt_tokens: spec.prompt_tokens,
    };
    let mut simulated = 0u32;
    let mut run_round = |tokens: u64| -> Result<RoundCost, String> {
        if let Some(cached) = memo.get(&round_model, tokens) {
            return Ok(cached);
        }
        simulated += 1;
        let program = model.round_program(spec, tokens);
        debug_assert!(program.validate().is_ok());
        let cost = match opts.tier {
            ServingTier::Exact => {
                let report = TrainSpec::new(config, program, topology)
                    .conditions(conditions.clone())
                    .run()
                    .map_err(|e| e.to_string())?;
                RoundCost {
                    cycles: report.total_cycles().max(1),
                    compute: report.compute_cycles(),
                    exposed: report.exposed_comm_cycles(),
                    mem_traffic: report.comm_mem_traffic_bytes(),
                    network: report.network_bytes(),
                    past: report.past_schedules(),
                }
            }
            ServingTier::Analytic => {
                let est =
                    analytic_program_run_with_conditions(config, &program, topology, conditions)
                        .map_err(|e| e.to_string())?;
                RoundCost {
                    cycles: (est.total_cycles.round() as u64).max(1),
                    compute: est.compute_cycles.round() as u64,
                    exposed: est.exposed_cycles.round() as u64,
                    mem_traffic: est.mem_traffic_bytes,
                    network: est.network_bytes,
                    past: 0,
                }
            }
        };
        memo.record(&round_model, tokens, cost);
        Ok(cost)
    };

    // 1F1B steady-state injection: a draining round holds stage 0 for
    // M/(M+S-1) of its duration (the forward-occupancy share), so the
    // next round can start that early; GPipe is a full barrier.
    let m = spec.microbatches.max(1) as u64;
    let s = stages as u64;
    let occupancy = |d: u64| (d * m).div_ceil(m + s - 1);

    let mut pending: VecDeque<(u32, u64)> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &t)| (i as u32, t))
        .collect();
    let mut active: VecDeque<Active> = VecDeque::new();
    // ttft[i] is recorded at prefill completion; e2e at last decode.
    let mut ttft: Vec<u64> = vec![0; arrivals.len()];
    let mut prev_start = 0u64;
    let mut prev_occupancy = 0u64;
    let mut completion_frontier = 0u64;
    let mut now = 0u64;

    while !pending.is_empty() || !active.is_empty() {
        // The earliest instant work exists.
        let mut t = now;
        if active.is_empty() {
            if let Some(&(_, first)) = pending.front() {
                t = t.max(first);
            }
        }
        outcome
            .queue_depth
            .push((t, pending.iter().filter(|&&(_, a)| a <= t).count() as u32));

        // Form the batch: one decode token per running request, then
        // FIFO prompt admission under the token budget.
        let mut tokens = active.len() as u64;
        let mut admitted: Vec<(u32, u64)> = Vec::new();
        while let Some(&(id, arr)) = pending.front() {
            if arr > t || tokens + u64::from(spec.prompt_tokens) > u64::from(spec.token_budget) {
                break;
            }
            tokens += u64::from(spec.prompt_tokens);
            admitted.push((id, arr));
            pending.pop_front();
        }
        debug_assert!(tokens > 0, "rounds always carry at least one token");

        let cost = run_round(tokens)?;
        outcome.compute_cycles += cost.compute;
        outcome.exposed_cycles += cost.exposed;
        outcome.mem_traffic_bytes += cost.mem_traffic;
        outcome.network_bytes += cost.network;
        outcome.past_schedules += cost.past;

        // Place the round on the clock.
        let (start, completion) = match spec.schedule {
            PipeSchedule::GPipe => (t, t + cost.cycles),
            PipeSchedule::OneFOneB => {
                let start = t.max(prev_start + prev_occupancy);
                // Rounds retire in order: completion is monotone even
                // when a small round is injected behind a large one.
                (start, completion_frontier.max(start + cost.cycles))
            }
        };
        prev_start = start;
        prev_occupancy = occupancy(cost.cycles);
        completion_frontier = completion;
        outcome.rounds += 1;
        now = match spec.schedule {
            // Barrier: nothing new is admitted before the drain.
            PipeSchedule::GPipe => completion,
            // Injection: the next round may start once stage 0 frees.
            PipeSchedule::OneFOneB => start + prev_occupancy,
        };

        // Retire this round's tokens.
        for a in active.iter_mut() {
            a.remaining -= 1;
        }
        while let Some(front) = active.front() {
            if front.remaining > 0 {
                break;
            }
            let done = active.pop_front().unwrap();
            let arr = arrivals[done.id as usize];
            outcome.requests.push(RequestRecord {
                id: done.id,
                arrival_cycles: arr,
                ttft_cycles: ttft[done.id as usize],
                e2e_cycles: completion.saturating_sub(arr),
            });
        }
        for (id, arr) in admitted {
            let first = completion.saturating_sub(arr);
            ttft[id as usize] = first;
            if spec.decode_tokens == 0 {
                outcome.requests.push(RequestRecord {
                    id,
                    arrival_cycles: arr,
                    ttft_cycles: first,
                    e2e_cycles: first,
                });
            } else {
                active.push_back(Active {
                    id,
                    remaining: spec.decode_tokens,
                });
            }
        }
        outcome.makespan_cycles = outcome.makespan_cycles.max(completion);
    }

    outcome.simulated_rounds = simulated;
    outcome.requests.sort_unstable_by_key(|r| r.id);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalKind;
    use ace_net::TopologySpec;

    fn topo() -> TopologySpec {
        "4x4".parse().unwrap()
    }

    fn quick_spec() -> ServingSpec {
        ServingSpec {
            arrival: ArrivalKind::Poisson,
            rate_rps: 2000.0,
            requests: 12,
            seed: 7,
            prompt_tokens: 64,
            decode_tokens: 3,
            token_budget: 256,
            stages: 4,
            microbatches: 4,
            schedule: PipeSchedule::GPipe,
        }
    }

    #[test]
    fn exact_order_statistics_have_no_interpolation() {
        let v: Vec<u64> = vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 100);
        assert_eq!(percentile(&v, 99.0), 100);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[42], 50.0), 42);
        assert_eq!(percentile(&[], 99.0), 0);
        // p90 of 10 elements is exactly the 9th order statistic.
        assert_eq!(percentile(&v, 90.0), 90);
    }

    #[test]
    fn serving_is_deterministic_for_a_seed() {
        let spec = quick_spec();
        let w = Workload::transformer_lm();
        let a = simulate(
            SystemConfig::Ace,
            &w,
            topo(),
            &spec,
            &ServingOptions::default(),
        )
        .unwrap();
        let b = simulate(
            SystemConfig::Ace,
            &w,
            topo(),
            &spec,
            &ServingOptions::default(),
        )
        .unwrap();
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        let c = simulate(
            SystemConfig::Ace,
            &w,
            topo(),
            &ServingSpec {
                seed: 8,
                ..quick_spec()
            },
            &ServingOptions::default(),
        )
        .unwrap();
        assert_ne!(a.requests, c.requests, "a different seed moves arrivals");
    }

    #[test]
    fn every_request_is_served_and_latencies_are_ordered() {
        let spec = quick_spec();
        let w = Workload::transformer_lm();
        let out = simulate(
            SystemConfig::Ace,
            &w,
            topo(),
            &spec,
            &ServingOptions::default(),
        )
        .unwrap();
        assert_eq!(out.requests.len(), spec.requests as usize);
        for r in &out.requests {
            assert!(r.ttft_cycles > 0);
            assert!(r.e2e_cycles >= r.ttft_cycles, "decode cannot precede TTFT");
        }
        assert!(out.rounds > spec.decode_tokens);
        assert!(out.simulated_rounds <= out.rounds);
        assert!(out.goodput_rps() > 0.0);
        assert!(out.ttft_percentile_us(50.0) <= out.ttft_percentile_us(99.0));
    }

    #[test]
    fn token_budget_caps_admission_per_round() {
        // Budget of exactly one prompt: requests prefill one at a time,
        // so there are at least `requests` prefill rounds.
        let spec = ServingSpec {
            token_budget: 70,
            decode_tokens: 0,
            ..quick_spec()
        };
        let w = Workload::transformer_lm();
        let out = simulate(
            SystemConfig::Ace,
            &w,
            topo(),
            &spec,
            &ServingOptions::default(),
        )
        .unwrap();
        assert!(out.rounds >= spec.requests);
        assert_eq!(out.requests.len(), spec.requests as usize);
    }

    #[test]
    fn injection_beats_the_barrier_under_load() {
        // One burst delivers every request at the same instant, so both
        // schedules see identical round compositions (admission is
        // budget-limited, not timing-limited) and 1F1B's steady-state
        // injection must not finish later than GPipe's barrier.
        let burst_spec = ServingSpec {
            arrival: ArrivalKind::Bursty { burst: 12 },
            ..quick_spec()
        };
        let w = Workload::transformer_lm();
        let gpipe = simulate(
            SystemConfig::Ace,
            &w,
            topo(),
            &burst_spec,
            &ServingOptions::default(),
        )
        .unwrap();
        let inject = simulate(
            SystemConfig::Ace,
            &w,
            topo(),
            &ServingSpec {
                schedule: PipeSchedule::OneFOneB,
                ..burst_spec
            },
            &ServingOptions::default(),
        )
        .unwrap();
        assert!(
            inject.makespan_cycles <= gpipe.makespan_cycles,
            "1f1b {} > gpipe {}",
            inject.makespan_cycles,
            gpipe.makespan_cycles
        );
    }

    #[test]
    fn analytic_tier_agrees_on_shape() {
        let spec = quick_spec();
        let w = Workload::transformer_lm();
        let exact = simulate(
            SystemConfig::Ace,
            &w,
            topo(),
            &spec,
            &ServingOptions::default(),
        )
        .unwrap();
        let analytic = simulate(
            SystemConfig::Ace,
            &w,
            topo(),
            &spec,
            &ServingOptions {
                tier: ServingTier::Analytic,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(analytic.requests.len(), exact.requests.len());
        assert!(analytic.makespan_cycles > 0);
        // The α–β estimate tracks the exact makespan within 2x.
        let ratio = analytic.makespan_cycles as f64 / exact.makespan_cycles as f64;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn a_shared_memo_changes_only_the_simulated_count() {
        // Prompt length scales every round program, so a 64-token round
        // of two 32-token prompts must not reuse the cost of a 64-token
        // round of one 64-token prompt.
        let w = Workload::transformer_lm();
        let topology: TopologySpec = "2x2".parse().unwrap();
        let opts = ServingOptions::default();
        let memo = RoundMemo::new();
        let prompts_of = |prompt_tokens| ServingSpec {
            prompt_tokens,
            decode_tokens: 0,
            token_budget: 64,
            ..quick_spec()
        };
        let mut simulated = Vec::new();
        for spec in [prompts_of(64), prompts_of(32), prompts_of(64)] {
            let fresh = simulate(SystemConfig::Ace, &w, topology, &spec, &opts).unwrap();
            let conditions = RunConditions::default();
            let shared = simulate_with_memo(
                SystemConfig::Ace,
                &w,
                topology,
                &spec,
                &opts,
                &conditions,
                &memo,
            )
            .unwrap();
            let expected = ServingOutcome {
                simulated_rounds: shared.simulated_rounds,
                ..fresh.clone()
            };
            assert_eq!(format!("{shared:?}"), format!("{expected:?}"));
            simulated.push((shared.simulated_rounds, fresh.simulated_rounds));
            if spec.prompt_tokens == 32 {
                assert!(shared.rounds < spec.requests, "no two-prompt round formed");
            }
        }
        assert_eq!(
            simulated[0].0, simulated[0].1,
            "an empty memo simulates all"
        );
        assert_eq!(simulated[2].0, 0, "a repeated run simulates nothing");
        assert_eq!(memo.len() as u64, memo.simulated());
    }

    #[test]
    fn schedules_share_round_programs() {
        // The round memo's key leaves the schedule out: GPipe and 1F1B
        // rounds of one token count run the same tasks, and the
        // parallelism tag that tells them apart changes neither tier's
        // cost.
        let w = Workload::transformer_lm()
            .with_parallelism(Parallelism::Model)
            .unwrap();
        let model = StageModel::new(&w, 2).unwrap();
        let spec = |schedule| ServingSpec {
            stages: 2,
            microbatches: 2,
            schedule,
            ..quick_spec()
        };
        let topology: TopologySpec = "2x2".parse().unwrap();
        for tokens in [1, 64, 65, 130] {
            let gpipe = model.round_program(&spec(PipeSchedule::GPipe), tokens);
            let one_f = model.round_program(&spec(PipeSchedule::OneFOneB), tokens);
            assert_ne!(gpipe.parallelism(), one_f.parallelism());
            let tasks = |p: &Program| format!("{:?}", p.iter_scheduled().collect::<Vec<_>>());
            assert_eq!(tasks(&gpipe), tasks(&one_f), "{tokens} tokens");
            assert_eq!(gpipe.timelines(), one_f.timelines());
            assert_eq!(gpipe.carveout(), one_f.carveout());
        }
        let [gpipe, one_f] = [PipeSchedule::GPipe, PipeSchedule::OneFOneB]
            .map(|schedule| model.round_program(&spec(schedule), 64));
        let exact = |p: Program| {
            TrainSpec::new(SystemConfig::Ace, p, topology)
                .run()
                .unwrap()
                .total_cycles()
        };
        let analytic = |p: &Program| {
            analytic_program_run_with_conditions(
                SystemConfig::Ace,
                p,
                topology,
                &RunConditions::default(),
            )
            .unwrap()
            .total_cycles
            .to_bits()
        };
        assert_eq!(analytic(&gpipe), analytic(&one_f));
        assert_eq!(exact(gpipe), exact(one_f));
    }

    #[test]
    fn tensor_parallel_round_programs_validate() {
        // Each stage of a tensor-parallel round both all-reduces and
        // forwards its activations; neither collective may hang off the
        // other.
        let w = Workload::transformer_lm()
            .with_parallelism(Parallelism::Model)
            .unwrap();
        let p = first_round_program(&w, &quick_spec()).unwrap();
        p.validate().unwrap();
        assert!(p.total_collective_bytes() > 0);
    }
}
