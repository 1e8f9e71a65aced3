//! Cross-crate integration tests: full training simulations exercising
//! every layer of the stack (workloads → system → endpoint → engine →
//! collectives → net/mem/compute → simcore) and checking the paper's
//! qualitative results hold end to end.

use ace_platform::net::TopologySpec;
use ace_platform::system::{training_program, IterationReport, SystemConfig, TrainSpec};
use ace_platform::workloads::Workload;

/// Two iterations of `workload` on an `l`x`v`x`h` torus.
fn run_loop(
    config: SystemConfig,
    workload: Workload,
    (l, v, h): (usize, usize, usize),
    optimized_embedding: bool,
) -> IterationReport {
    let program = training_program(config, &workload, 2, optimized_embedding);
    TrainSpec::new(config, program, TopologySpec::torus3(l, v, h).unwrap())
        .run()
        .expect("pristine run cannot fail")
}

fn run(config: SystemConfig, workload: Workload, l: usize, v: usize, h: usize) -> IterationReport {
    run_loop(config, workload, (l, v, h), false)
}

#[test]
fn every_config_completes_every_workload_on_16_npus() {
    for config in SystemConfig::ALL {
        for workload in Workload::paper_suite(16) {
            let name = workload.name().to_string();
            let r = run(config, workload, 4, 2, 2);
            assert!(r.total_time_us() > 0.0, "{config} {name}");
            assert!(r.total_compute_us() > 0.0, "{config} {name}");
            assert!(
                r.total_cycles() >= r.compute_cycles() + r.exposed_comm_cycles(),
                "{config} {name}: time accounting must be consistent"
            );
        }
    }
}

#[test]
fn ace_beats_every_baseline_on_every_workload() {
    // The paper's core claim (Fig. 11): ACE outperforms all baselines.
    for workload in Workload::paper_suite(16) {
        let name = workload.name().to_string();
        let ace = run(SystemConfig::Ace, workload.clone(), 4, 2, 2).total_time_us();
        for baseline in [
            SystemConfig::BaselineNoOverlap,
            SystemConfig::BaselineCommOpt,
            SystemConfig::BaselineCompOpt,
        ] {
            let b = run(baseline, workload.clone(), 4, 2, 2).total_time_us();
            assert!(
                ace <= b * 1.02,
                "{name}: ACE ({ace:.0} us) must not lose to {baseline} ({b:.0} us)"
            );
        }
    }
}

#[test]
fn ideal_lower_bounds_all_configs() {
    for workload in Workload::paper_suite(16) {
        let name = workload.name().to_string();
        let ideal = run(SystemConfig::Ideal, workload.clone(), 4, 2, 2).total_time_us();
        for config in SystemConfig::ALL {
            let t = run(config, workload.clone(), 4, 2, 2).total_time_us();
            assert!(
                t >= ideal * 0.98,
                "{name}: {config} ({t:.0} us) beat ideal ({ideal:.0} us)"
            );
        }
    }
}

#[test]
fn ace_compute_time_matches_comp_opt() {
    // ACE and BaselineCompOpt allocate the same compute resources
    // (772 GB/s); ACE's win must come from communication, with a small
    // compute edge from keeping all 80 SMs.
    let ace = run(SystemConfig::Ace, Workload::resnet50(), 4, 2, 2);
    let comp = run(SystemConfig::BaselineCompOpt, Workload::resnet50(), 4, 2, 2);
    let ratio = comp.total_compute_us() / ace.total_compute_us();
    assert!((1.0..1.1).contains(&ratio), "compute ratio {ratio}");
    assert!(ace.exposed_comm_us() <= comp.exposed_comm_us());
}

#[test]
fn comm_opt_compute_is_slower_than_comp_opt() {
    // Table VI arithmetic: 450 vs 772 GB/s of compute bandwidth on
    // memory-bound workloads => ~1.7x compute-time gap.
    let comm = run(SystemConfig::BaselineCommOpt, Workload::resnet50(), 4, 2, 2);
    let comp = run(SystemConfig::BaselineCompOpt, Workload::resnet50(), 4, 2, 2);
    let ratio = comm.total_compute_us() / comp.total_compute_us();
    assert!(
        (1.5..1.9).contains(&ratio),
        "CommOpt/CompOpt compute ratio {ratio} should be ~772/450"
    );
}

#[test]
fn exposed_communication_grows_with_system_size() {
    // Fig. 11a: more NPUs => more collective steps => more exposed comm.
    let small = run(SystemConfig::BaselineCompOpt, Workload::dlrm(16), 4, 2, 2);
    let large = run(SystemConfig::BaselineCompOpt, Workload::dlrm(64), 4, 4, 4);
    assert!(
        large.exposed_comm_us() > small.exposed_comm_us(),
        "exposed comm: 16 NPUs {:.0} us vs 64 NPUs {:.0} us",
        small.exposed_comm_us(),
        large.exposed_comm_us()
    );
}

#[test]
fn no_overlap_exposes_all_communication() {
    let r = run(
        SystemConfig::BaselineNoOverlap,
        Workload::resnet50(),
        4,
        2,
        2,
    );
    // With no overlap, the deferred batch wait must expose real time.
    assert!(r.exposed_comm_us() > 0.0);
}

#[test]
fn ace_utilization_reported_only_for_ace() {
    let ace = run(SystemConfig::Ace, Workload::resnet50(), 4, 2, 2);
    assert!(ace.ace_util_bwd().is_some());
    assert!(ace.ace_util_bwd().unwrap() > ace.ace_util_fwd().unwrap());
    let base = run(SystemConfig::BaselineCommOpt, Workload::resnet50(), 4, 2, 2);
    assert!(base.ace_util_bwd().is_none());
}

#[test]
fn timeline_series_are_populated_and_bounded() {
    let r = run(SystemConfig::Ace, Workload::resnet50(), 4, 2, 2);
    assert!(!r.compute_series().is_empty());
    assert!(!r.network_series().is_empty());
    for &u in r.compute_series() {
        assert!((0.0..=1.0 + 1e-9).contains(&u));
    }
    for &u in r.network_series() {
        assert!((0.0..=1.0 + 1e-9).contains(&u));
    }
}

#[test]
fn ace_memory_traffic_is_far_below_baseline() {
    let ace = run(SystemConfig::Ace, Workload::resnet50(), 4, 2, 2);
    let base = run(SystemConfig::BaselineCommOpt, Workload::resnet50(), 4, 2, 2);
    assert!(base.comm_mem_traffic_bytes() > 2 * ace.comm_mem_traffic_bytes());
}

#[test]
fn dlrm_optimized_loop_helps_ace_more_than_baseline() {
    let mk = |config, optimized| {
        run_loop(config, Workload::dlrm(64), (4, 4, 4), optimized).total_time_us()
    };
    let ace_gain = mk(SystemConfig::Ace, false) / mk(SystemConfig::Ace, true);
    let base_gain =
        mk(SystemConfig::BaselineCompOpt, false) / mk(SystemConfig::BaselineCompOpt, true);
    assert!(
        ace_gain > base_gain,
        "ACE {ace_gain:.3} vs baseline {base_gain:.3}"
    );
    assert!(ace_gain > 1.0, "optimization must help ACE");
}
