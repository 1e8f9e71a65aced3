//! Cross-crate integration tests over the standalone collective runner:
//! the Fig. 5 / Fig. 6 machinery, edge topologies, and the extension
//! workload.

use ace_platform::collectives::CollectiveOp;
use ace_platform::net::TopologySpec;
use ace_platform::system::{
    training_program, CollectiveRunReport, EngineKind, IterationReport, RunSpec, SystemConfig,
    TrainSpec,
};
use ace_platform::workloads::Workload;

/// All collectives here run on pristine fabrics, where [`RunSpec::run`]
/// cannot fail.
fn run_collective(
    shape: TopologySpec,
    kind: EngineKind,
    op: CollectiveOp,
    payload_bytes: u64,
) -> CollectiveRunReport {
    RunSpec::new(shape, kind, op, payload_bytes)
        .run()
        .expect("pristine run cannot fail")
}

#[test]
fn two_node_torus_all_reduce_works() {
    // The minimum platform: two NPUs on one ring.
    let shape = TopologySpec::torus3(2, 1, 1).expect("valid shape");
    for kind in [
        EngineKind::Ideal,
        SystemConfig::Ace.engine(),
        SystemConfig::BaselineCommOpt.engine(),
    ] {
        let r = run_collective(shape, kind, CollectiveOp::AllReduce, 1 << 20);
        assert!(r.completion.cycles() > 0, "{kind:?}");
        assert!(r.network_bytes > 0);
    }
}

#[test]
fn single_package_ring_uses_only_intra_links() {
    // 8 NPUs on one package: only the fast 200 GB/s links exist, so
    // throughput should far exceed the inter-package-limited tori.
    let flat = run_collective(
        TopologySpec::torus3(8, 1, 1).expect("valid shape"),
        EngineKind::Ideal,
        CollectiveOp::AllReduce,
        16 << 20,
    );
    let torus = run_collective(
        TopologySpec::torus3(4, 2, 2).expect("valid shape"),
        EngineKind::Ideal,
        CollectiveOp::AllReduce,
        16 << 20,
    );
    assert!(
        flat.completion < torus.completion,
        "intra-package-only must be faster: {} vs {}",
        flat.completion,
        torus.completion
    );
}

#[test]
fn all_to_all_scales_with_node_count() {
    // Direct all-to-all crosses more links and hops on larger tori.
    let small = run_collective(
        TopologySpec::torus3(4, 2, 2).expect("valid shape"),
        SystemConfig::Ace.engine(),
        CollectiveOp::AllToAll,
        4 << 20,
    );
    let large = run_collective(
        TopologySpec::torus3(4, 4, 4).expect("valid shape"),
        SystemConfig::Ace.engine(),
        CollectiveOp::AllToAll,
        4 << 20,
    );
    assert!(large.completion > small.completion);
}

#[test]
fn achieved_bandwidth_is_within_physical_limits() {
    // No engine may exceed the per-NPU fabric bandwidth (500 GB/s).
    for kind in [
        EngineKind::Ideal,
        EngineKind::Ace {
            dma_mem_gbps: 900.0,
            sram_mb: 4,
            fsms: 16,
        },
        EngineKind::Baseline {
            comm_mem_gbps: 900.0,
            comm_sms: 80,
        },
    ] {
        let r = run_collective(
            TopologySpec::torus3(4, 2, 2).expect("valid shape"),
            kind,
            CollectiveOp::AllReduce,
            32 << 20,
        );
        assert!(
            r.achieved_gbps_per_npu < 500.0,
            "{kind:?} reported {} GB/s",
            r.achieved_gbps_per_npu
        );
    }
}

/// `iterations` of `workload` on the 16-NPU torus, pristine fabric.
fn train(config: SystemConfig, workload: &Workload, iterations: u32) -> IterationReport {
    let program = training_program(config, workload, iterations, false);
    TrainSpec::new(config, program, TopologySpec::torus3(4, 2, 2).unwrap())
        .run()
        .expect("pristine run cannot fail")
}

#[test]
fn transformer_lm_trains_on_every_config() {
    for config in SystemConfig::ALL {
        let r = train(config, &Workload::transformer_lm(), 2);
        assert!(r.total_time_us() > 0.0, "{config}");
    }
}

#[test]
fn transformer_ace_beats_baselines() {
    let run = |config| train(config, &Workload::transformer_lm(), 2).total_time_us();
    let ace = run(SystemConfig::Ace);
    for b in [
        SystemConfig::BaselineNoOverlap,
        SystemConfig::BaselineCommOpt,
        SystemConfig::BaselineCompOpt,
    ] {
        assert!(ace <= run(b) * 1.02, "{b}");
    }
}

#[test]
fn single_iteration_is_cheaper_than_two() {
    let run = |iters| train(SystemConfig::Ace, &Workload::resnet50(), iters);
    let one = run(1);
    let two = run(2);
    assert!(one.total_time_us() < two.total_time_us());
    assert_eq!(one.iterations(), 1);
    // Per-iteration time should be comparable (within pipeline effects).
    let ratio = two.iteration_time_us() / one.iteration_time_us();
    assert!((0.6..1.4).contains(&ratio), "ratio {ratio}");
}
