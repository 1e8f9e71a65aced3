//! Property suite for the fault/contention/straggler run conditions.
//!
//! Invariants:
//!
//! * **Determinism** — a faulted sweep renders byte-identical CSV for
//!   any `--threads` setting: the seeded fault draw is part of the point
//!   identity, not of the execution schedule.
//! * **Byte conservation** — killing cables reroutes traffic, it never
//!   drops it: every collective still completes, and the fabric carries
//!   at least as many bytes as on the pristine run (detours add hops).
//! * **Analytic honesty** — the α–β degradation terms track the exact
//!   executor within the same 0.5–2x band the pristine property suite
//!   enforces, so `hybrid` sweeps stay trustworthy under faults.
//! * **Clear failure** — a disconnecting `FaultSpec` is an error from
//!   every entry point, never a hang or a silently-pristine result.

use ace_platform::collectives::analytic::RouteMemo;
use ace_platform::collectives::CollectiveOp;
use ace_platform::net::TopologySpec;
use ace_platform::sweep::report::to_csv;
use ace_platform::sweep::{run_scenario, EngineFamily, RunnerOptions, Scenario};
use ace_platform::system::{RunConditions, RunSpec, SystemConfig, Tier};

fn faulted_scenario() -> Scenario {
    let mut sc = Scenario::collective("fault-determinism");
    sc.topologies = vec!["4x4".parse().unwrap(), "hier:4x4".parse().unwrap()];
    sc.engines = vec![EngineFamily::Ideal, EngineFamily::Ace];
    sc.mem_gbps = vec![128.0];
    sc.sram_mb = vec![4];
    sc.fsms = vec![16];
    sc.payload_bytes = vec![512 * 1024];
    sc.faults = vec![
        "none".parse().unwrap(),
        "kill:1@seed:42".parse().unwrap(),
        "kill:2@seed:42".parse().unwrap(),
    ];
    sc.contention = vec!["none".parse().unwrap(), "uniform:8".parse().unwrap()];
    sc
}

#[test]
fn faulted_sweep_csv_is_byte_identical_across_threads() {
    let sc = faulted_scenario();
    let baseline = run_scenario(
        &sc,
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let csv = to_csv(&baseline);
    assert!(
        csv.contains("kill:2@seed:42"),
        "fault axis missing from CSV"
    );
    let other = run_scenario(
        &sc,
        RunnerOptions {
            threads: 4,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(csv, to_csv(&other), "threads=4 diverged");
}

#[test]
fn degraded_fabrics_conserve_bytes_and_complete() {
    let engine = SystemConfig::Ace.engine();
    for topo in ["4x4", "4x2x2", "hier:4x4"] {
        let spec: TopologySpec = topo.parse().unwrap();
        for op in [CollectiveOp::AllReduce, CollectiveOp::AllToAll] {
            let pristine = RunSpec::new(spec, engine, op, 1 << 20)
                .run()
                .expect("pristine run cannot fail");
            for faults in ["kill:1@seed:42", "kill:2@seed:42", "kill:1@seed:7"] {
                let degraded = RunSpec::new(spec, engine, op, 1 << 20)
                    .faults(faults.parse().unwrap())
                    .run()
                    .unwrap_or_else(|e| panic!("{topo} {op} {faults}: {e}"));
                assert!(
                    degraded.network_bytes >= pristine.network_bytes,
                    "{topo} {op} {faults}: detoured fabric carried fewer bytes \
                     ({} < {})",
                    degraded.network_bytes,
                    pristine.network_bytes
                );
                assert!(
                    degraded.completion.cycles() >= pristine.completion.cycles(),
                    "{topo} {op} {faults}: a degraded fabric finished early"
                );
            }
        }
    }
}

#[test]
fn analytic_tracks_exact_under_degradation() {
    // The same wide-but-meaningful band the pristine property suite uses:
    // comm-bound payloads, estimate within [0.5x, 2x] of the executor.
    let engine = SystemConfig::Ace.engine();
    for topo in ["4x4", "hier:4x4"] {
        let spec: TopologySpec = topo.parse().unwrap();
        for faults in ["kill:1@seed:42", "degrade:50:1@seed:7"] {
            for contention in ["none", "uniform:8"] {
                let conditions = RunConditions {
                    faults: faults.parse().unwrap(),
                    contention: contention.parse().unwrap(),
                    ..Default::default()
                };
                let exact = RunSpec::new(spec, engine, CollectiveOp::AllReduce, 8 << 20)
                    .conditions(conditions.clone())
                    .run()
                    .unwrap()
                    .completion
                    .cycles() as f64;
                let analytic = RunSpec::new(spec, engine, CollectiveOp::AllReduce, 8 << 20)
                    .conditions(conditions)
                    .run_in(Tier::Analytic, &RouteMemo::new())
                    .unwrap()
                    .cycles;
                assert!(
                    analytic <= exact * 2.0 && analytic >= exact * 0.5,
                    "{topo} {faults} {contention}: analytic {analytic} vs exact {exact}"
                );
            }
        }
    }
}
