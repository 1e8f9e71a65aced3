//! Property suite comparing the analytic α–β tier against the exact
//! event-driven executor on randomized small configurations.
//!
//! Invariants:
//!
//! * on communication-bound points the analytic estimate tracks the
//!   executor within a documented tolerance band, and never collapses
//!   to zero or explodes;
//! * the analytic model is monotone in payload size and in the link α
//!   (latency) term;
//! * degenerate cases are **exact**: zero-byte collectives complete
//!   instantly in both tiers, and communication-free training programs
//!   (the 1-node limit of data parallelism, where every collective
//!   carries nothing) agree cycle-for-cycle because both tiers share
//!   the roofline kernel model.
//!
//! Cases are generated by the same deterministic splitmix64 generator as
//! `property_tests.rs` (the build environment has no proptest).

use ace_platform::collectives::analytic::{
    estimate_collective_with_memo, EndpointModel, RouteMemo,
};
use ace_platform::collectives::{CollectiveOp, CollectivePlan};
use ace_platform::net::{NetworkParams, TopologySpec};
use ace_platform::sweep::{execute_analytic, execute_tier, PointKind, RunPoint, WorkloadSel};
use ace_platform::system::{EngineKind, RunConditions, RunSpec, SystemConfig, Tier};

/// Deterministic splitmix64 PRNG (see `property_tests.rs`).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() as u64) as usize]
    }
}

/// Small fabrics that keep the exact executor fast in debug-mode tests.
fn small_specs() -> Vec<TopologySpec> {
    vec![
        "2x1x1".parse().unwrap(),
        "4x1x1".parse().unwrap(),
        "2x2x1".parse().unwrap(),
        "4x2".parse().unwrap(),
        "switch:4".parse().unwrap(),
        "switch:8".parse().unwrap(),
        "hier:2x2".parse().unwrap(),
    ]
}

fn random_engine(rng: &mut Rng) -> EngineKind {
    match rng.range(0, 3) {
        0 => EngineKind::Ideal,
        1 => EngineKind::Baseline {
            comm_mem_gbps: *rng.pick(&[64.0, 128.0, 450.0, 900.0]),
            comm_sms: *rng.pick(&[1, 2, 6, 80]),
        },
        _ => EngineKind::Ace {
            dma_mem_gbps: *rng.pick(&[64.0, 128.0, 450.0]),
            sram_mb: *rng.pick(&[1, 2, 4, 8]),
            fsms: *rng.pick(&[4, 8, 16]),
        },
    }
}

/// The α–β estimate of one collective on a pristine fabric, in cycles.
fn pristine_estimate(
    spec: TopologySpec,
    engine: EngineKind,
    op: CollectiveOp,
    payload: u64,
) -> f64 {
    RunSpec::new(spec, engine, op, payload)
        .run_in(Tier::Analytic, &RouteMemo::new())
        .expect("pristine estimate cannot fail")
        .cycles
}

#[test]
fn analytic_tracks_exact_on_comm_bound_points() {
    // Large payloads relative to the fabric are bandwidth-dominated —
    // the regime the α–β model targets. The estimate must land inside a
    // wide-but-meaningful band of the executor: no better than half the
    // exact time (the model never invents impossible speed beyond its
    // documented optimism) and no worse than 2x (never uselessly
    // pessimistic). The validate harness tracks the much tighter
    // real-world band (≈1 % on the Fig. 9a grid).
    let mut rng = Rng::new(0xab13);
    let ops = [CollectiveOp::AllReduce, CollectiveOp::ReduceScatter];
    for _ in 0..24 {
        let spec = *rng.pick(&small_specs());
        let engine = random_engine(&mut rng);
        let op = *rng.pick(&ops);
        let payload = rng.range(4, 33) * 1024 * 1024; // 4–32 MB: comm-bound
        let exact = RunSpec::new(spec, engine, op, payload)
            .run()
            .expect("pristine run cannot fail")
            .completion
            .cycles() as f64;
        let analytic = pristine_estimate(spec, engine, op, payload);
        assert!(
            analytic <= exact * 2.0 && analytic >= exact * 0.5,
            "{spec} {engine:?} {op} {payload}B: analytic {analytic} vs exact {exact}"
        );
    }
}

#[test]
fn analytic_is_monotone_in_payload() {
    let mut rng = Rng::new(0xab14);
    for _ in 0..16 {
        let spec = *rng.pick(&small_specs());
        let engine = random_engine(&mut rng);
        let mut last = -1.0;
        for shift in [16, 18, 20, 22, 24] {
            let t = pristine_estimate(spec, engine, CollectiveOp::AllReduce, 1u64 << shift);
            assert!(
                t > last,
                "{spec} {engine:?}: time not monotone in payload (2^{shift}: {t} <= {last})"
            );
            last = t;
        }
    }
}

#[test]
fn analytic_is_monotone_in_alpha() {
    // Scaling every link's α (propagation latency) can only slow the
    // estimate, and strictly slows it once latency terms are nonzero.
    let mut rng = Rng::new(0xab15);
    for _ in 0..12 {
        let spec = *rng.pick(&small_specs());
        let payload = rng.range(1, 9) * 1024 * 1024;
        let mut last = -1.0;
        for alpha_scale in [1, 4, 16, 64] {
            let mut net = NetworkParams::paper_default();
            net.intra.latency_cycles *= alpha_scale;
            net.inter.latency_cycles *= alpha_scale;
            let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
            let est = estimate_collective_with_memo(
                &plan,
                &net,
                payload,
                &EndpointModel::Ideal,
                None,
                &RouteMemo::new(),
            );
            assert!(
                est.cycles > last,
                "{spec}: not monotone in alpha (x{alpha_scale}: {} <= {last})",
                est.cycles
            );
            last = est.cycles;
        }
    }
}

#[test]
fn zero_payload_is_exactly_degenerate() {
    // The 1-node limit: a collective over nothing. Both tiers agree the
    // answer is "instant" — the analytic estimate is exactly zero cycles
    // and moves zero bytes.
    for spec in small_specs() {
        let est = estimate_collective_with_memo(
            &CollectivePlan::for_spec(CollectiveOp::AllReduce, spec),
            &NetworkParams::paper_default(),
            0,
            &EndpointModel::Ideal,
            None,
            &RouteMemo::new(),
        );
        assert_eq!(est.cycles, 0.0, "{spec}");
        assert_eq!(est.network_bytes_per_node, 0.0, "{spec}");
    }
}

#[test]
fn communication_free_training_agrees_exactly() {
    // Degenerate 1-node-style training: no collectives on the timeline.
    // The analytic walk and the event-driven scheduler share the
    // roofline kernel model, so the totals must agree cycle-for-cycle.
    use ace_platform::compute::KernelDesc;
    use ace_platform::system::TrainSpec;
    use ace_platform::workloads::{Parallelism, Program, TaskPhase};

    let mut rng = Rng::new(0xab16);
    for case in 0..8 {
        let mut p = Program::new(format!("compute-{case}"), Parallelism::Data, 1);
        for k in 0..rng.range(1, 6) {
            p.add_compute(
                KernelDesc::new(
                    format!("k{k}"),
                    rng.range(1, 2000) as f64 * 1e6,
                    rng.range(1, 500) as f64 * 1e5,
                ),
                TaskPhase::Forward,
                0,
                vec![],
            );
        }
        let spec: TopologySpec = "2x1x1".parse().unwrap();
        for config in [SystemConfig::Ace, SystemConfig::BaselineNoOverlap] {
            let run = |tier| {
                TrainSpec::new(config, p.clone(), spec)
                    .run_in(tier, &RouteMemo::new())
                    .unwrap()
            };
            let (exact, est) = (run(Tier::Exact), run(Tier::Analytic));
            assert_eq!(
                est.total_time_us(),
                exact.total_time_us(),
                "case {case} {config}: degenerate program must agree exactly"
            );
            assert_eq!(est.exposed_comm_us(), 0.0);
        }
    }
}

#[test]
fn sweep_tiers_agree_with_their_backends() {
    // `execute_tier` runs one cell through the sweep runner's cell
    // function: the analytic tier must be the α–β estimate, not a
    // disguised simulation.
    let point = RunPoint {
        topology: "2x2x1".parse().unwrap(),
        conditions: RunConditions::default(),
        kind: PointKind::Collective {
            engine: SystemConfig::Ace.engine(),
            op: CollectiveOp::AllReduce,
            payload_bytes: 2 << 20,
        },
    };
    let analytic = execute_tier(&point, Tier::Analytic);
    let exact = execute_tier(&point, Tier::Exact);
    assert_eq!(analytic, execute_analytic(&point));
    assert_ne!(
        analytic.completion_cycles, exact.completion_cycles,
        "tiers must be distinguishable on a non-degenerate point"
    );
    assert_eq!(analytic.past_schedules, 0);
}

#[test]
fn both_tiers_optimize_the_embedding_only_when_there_is_one() {
    // The Fig. 12 loop moves an embedding pipeline onto a compute
    // carve-out. ResNet-50 has none, so the flag must change nothing in
    // either tier; on DLRM it must change both.
    let point = |workload: &str, optimized_embedding: bool| RunPoint {
        topology: "2x2x1".parse().unwrap(),
        conditions: RunConditions::default(),
        kind: PointKind::Training {
            config: SystemConfig::Ace,
            workload: WorkloadSel::parse(workload, None).unwrap(),
            iterations: 1,
            optimized_embedding,
        },
    };
    for tier in [Tier::Exact, Tier::Analytic] {
        let run = |workload, optimized| execute_tier(&point(workload, optimized), tier);
        assert_eq!(run("resnet50", true), run("resnet50", false), "{tier:?}");
        assert_ne!(
            run("dlrm", true).time_us,
            run("dlrm", false).time_us,
            "{tier:?}"
        );
    }
}
