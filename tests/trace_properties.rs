//! Property suite for the `ace-trace` instrumentation layer.
//!
//! Invariants, checked over randomized small configurations (same
//! deterministic splitmix64 generator as `property_tests.rs`):
//!
//! * **Link reconciliation** — the sum of recorded `link:` span cycles
//!   equals the fabric's own busy-cycle meter exactly: the trace is a
//!   faithful retelling of what the network accounted, not a parallel
//!   bookkeeping that can drift.
//! * **Attribution conservation** — every sweep row's bottleneck
//!   decomposition (compute / per-pipe / other buckets) sums exactly to
//!   its end-to-end cycle count, in both execution tiers.
//! * **Export validity** — recorded traces render to Chrome
//!   `trace_event` JSON that passes the structural validator, for both
//!   standalone collectives and full training runs.

use ace_platform::collectives::CollectiveOp;
use ace_platform::net::TopologySpec;
use ace_platform::simcore::SimTime;
use ace_platform::sweep::{execute_tier, PointKind, RunPoint, Tier};
use ace_platform::system::{
    training_program, CollectiveExecutor, EngineKind, ExecutorOptions, RunConditions, RunSpec,
    SystemConfig, TrainSpec,
};
use ace_platform::trace::chrome::{to_chrome_json, validate_chrome_trace};
use ace_platform::trace::RecordingTracer;
use ace_platform::workloads::Workload;

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

#[test]
fn link_spans_reconcile_with_the_fabric_meter() {
    // Every granted link interval the executor records must re-sum to
    // exactly the cycles the network's own utilization meter accounted.
    let mut rng = Rng::new(0x7ace_0001);
    let configs = [
        SystemConfig::Ace,
        SystemConfig::BaselineCommOpt,
        SystemConfig::BaselineNoOverlap,
    ];
    let ops = [
        CollectiveOp::AllReduce,
        CollectiveOp::ReduceScatter,
        CollectiveOp::AllGather,
    ];
    for _ in 0..10 {
        let spec = *rng.pick(&small_specs());
        let config = *rng.pick(&configs);
        let op = *rng.pick(&ops);
        let payload = rng.range(64, 2049) * 1024; // 64 KB – 2 MB
        let mut ex = CollectiveExecutor::new(
            spec,
            op,
            ExecutorOptions::default(),
            None,
            config.engine(),
            RecordingTracer::new(),
        );
        let h = ex.issue(op, payload, SimTime::ZERO);
        ex.run_until_complete(h);
        assert_eq!(ex.tracer().dropped(), 0, "{spec} {config} {op}");
        assert_eq!(
            ex.tracer().span_cycles_with_prefix("link:") as f64,
            ex.network().util_busy_total_cycles(),
            "{spec} {config} {op} {payload}B: link spans diverged from the meter"
        );
    }
}

#[test]
fn attribution_conserves_across_random_points_and_tiers() {
    let mut rng = Rng::new(0x7ace_0002);
    let mut points: Vec<RunPoint> = Vec::new();
    for _ in 0..8 {
        let engine = match rng.range(0, 3) {
            0 => EngineKind::Ideal,
            1 => EngineKind::Baseline {
                comm_mem_gbps: *rng.pick(&[128.0, 450.0]),
                comm_sms: 6,
            },
            _ => EngineKind::Ace {
                dma_mem_gbps: *rng.pick(&[64.0, 128.0]),
                sram_mb: 4,
                fsms: 16,
            },
        };
        points.push(RunPoint {
            topology: *rng.pick(&small_specs()),
            conditions: RunConditions::default(),
            kind: PointKind::Collective {
                engine,
                op: *rng.pick(&[CollectiveOp::AllReduce, CollectiveOp::AllToAll]),
                payload_bytes: rng.range(64, 1025) * 1024,
            },
        });
    }
    for point in &points {
        for tier in [Tier::Exact, Tier::Analytic] {
            let m = execute_tier(point, tier);
            assert!(
                m.attribution.conserves(),
                "{tier} {point:?}: buckets do not sum to the total: {:?}",
                m.attribution
            );
            assert_eq!(
                m.attribution.total_cycles, m.completion_cycles,
                "{tier} {point:?}: attribution total diverged from the row total"
            );
        }
    }
}

#[test]
fn traced_collective_exports_valid_chrome_json() {
    let mut rng = Rng::new(0x7ace_0003);
    for _ in 0..4 {
        let spec = *rng.pick(&small_specs());
        let (report, tracer) = RunSpec::new(
            spec,
            ace_platform::system::SystemConfig::Ace.engine(),
            CollectiveOp::AllReduce,
            rng.range(128, 1025) * 1024,
        )
        .traced()
        .run_traced()
        .expect("pristine run cannot fail");
        assert!(report.attribution.conserves());
        let json = to_chrome_json(&tracer);
        let events = validate_chrome_trace(&json).expect("collective trace must validate");
        assert!(events > 0, "{spec}: empty trace");
    }
}

#[test]
fn traced_training_exports_valid_chrome_json_with_task_spans() {
    let program = training_program(SystemConfig::Ace, &Workload::resnet50(), 1, false);
    let sim = TrainSpec::new(
        SystemConfig::Ace,
        program,
        "2x1x1".parse::<TopologySpec>().unwrap(),
    )
    .tracer(RecordingTracer::new())
    .build()
    .unwrap();
    let (report, tracer) = sim.run_with_tracer();
    assert!(report.attribution().conserves());
    assert!(
        tracer.count_with_prefix("task:") > 0,
        "training timeline recorded no task spans"
    );
    let json = to_chrome_json(&tracer);
    let events = validate_chrome_trace(&json).expect("training trace must validate");
    assert!(events > 0);
}
