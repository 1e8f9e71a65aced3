//! The analytic fidelity tier: engine overheads + closed-form runs.
//!
//! This module is the bridge between the event-driven simulator and the
//! α–β model in [`ace_collectives::analytic`]: it derives each engine's
//! [`EndpointModel`] **from the same [`EngineKind`] and parameter structs
//! the event-driven endpoints consume** (Table VI's split through
//! [`SystemConfig::engine`], and `MemoryParams`, `BusParams`,
//! `SmDriveModel`, `AceConfig`), so a change to the simulated hardware
//! automatically moves the analytic tier too. It is not an entry point of
//! its own: [`RunSpec::run_in`](crate::RunSpec::run_in) and
//! [`TrainSpec::run_in`](crate::TrainSpec::run_in) with
//! [`Tier::Analytic`] run here, and fill the exact tier's
//! [`CollectiveRunReport`] and [`IterationReport`] with the estimate's
//! unrounded cycles next to the rounded ones.
//!
//! Accuracy is tracked by the `validate` binary, which runs both tiers
//! over the Fig. 9a grid, the training suite and
//! `fault_validation.toml` (24 faulted and contended rows, 9.75 % mean
//! and 29.15 % max error) and checks the error table into
//! `BENCH_analytic.json`.

use ace_collectives::analytic::{
    estimate_collective_with_memo, AnalyticEstimate, EndpointModel, RouteMemo,
};
use ace_collectives::{CollectiveOp, CollectivePlan};
use ace_compute::{NpuParams, SmDriveModel};
use ace_engine::AceConfig;
use ace_mem::{BusParams, MemoryParams};
use ace_net::{FaultPlan, NetworkParams, TopologySpec};
use ace_simcore::SimTime;
use ace_trace::Attribution;
use ace_workloads::{AnalyticWalk, Program};

use crate::collective_run::{CollectiveRunReport, EngineKind};
use crate::config::SystemConfig;
use crate::report::IterationReport;
use crate::run::{RunConditions, RunError, Tier, TrainSpec};

/// Derives the α–β endpoint constants for a collective-mode engine,
/// which must pass [`EngineKind::validate`].
///
/// This is where the simulator's engine overhead constants surface for
/// the analytic tier: HBM channel widths, SM drive bandwidth, the
/// NPU-AFI bus, the ACE DMA carve-out and SRAM/FSM design point.
pub fn endpoint_model(engine: EngineKind) -> EndpointModel {
    let freq = ace_simcore::npu_frequency();
    let bus_bytes_per_cycle = freq.bytes_per_cycle(BusParams::paper_default().bandwidth_gbps);
    match engine {
        EngineKind::Ideal => EndpointModel::Ideal,
        EngineKind::Baseline {
            comm_mem_gbps,
            comm_sms,
        } => {
            let mem = MemoryParams::paper_default(comm_mem_gbps);
            let drive = SmDriveModel::paper_default();
            EndpointModel::Baseline {
                mem_bytes_per_cycle: freq.bytes_per_cycle(mem.comm_gbps),
                drive_bytes_per_cycle: drive.drive_bytes_per_cycle(comm_sms),
                bus_bytes_per_cycle,
            }
        }
        EngineKind::Ace {
            dma_mem_gbps,
            sram_mb,
            fsms,
        } => {
            let config = AceConfig::with_dse_point(sram_mb, fsms);
            EndpointModel::Ace {
                dma_bytes_per_cycle: freq.bytes_per_cycle(dma_mem_gbps),
                bus_bytes_per_cycle,
                sram_bytes: config.sram_bytes,
                fsms: config.num_fsms,
                fsm_bus_bytes: config.bus_width_bytes,
            }
        }
    }
}

/// The α–β estimate of one standalone collective, behind
/// [`RunSpec::run_in`](crate::RunSpec::run_in). Each phase's wire rate is
/// derated by the [`FaultPlan`] `conditions` resolve to (worst
/// surviving-link load, detour congestion included); stragglers do not
/// apply, since a standalone collective has no compute tasks. The whole
/// estimate is communication, so attribution charges it to the network.
pub(crate) fn collective_run(
    spec: TopologySpec,
    engine: EngineKind,
    op: CollectiveOp,
    payload_bytes: u64,
    conditions: &RunConditions,
    routes: &RouteMemo,
) -> Result<CollectiveRunReport, RunError> {
    engine.validate().map_err(RunError::InvalidEngine)?;
    let net = NetworkParams::paper_default();
    let fault = conditions.fault_plan(spec)?;
    let plan = CollectivePlan::for_spec(op, spec);
    let model = endpoint_model(engine);
    let est =
        estimate_collective_with_memo(&plan, &net, payload_bytes, &model, fault.as_ref(), routes);
    let completion = SimTime::from_cycles(est.cycles.round() as u64);
    Ok(CollectiveRunReport {
        completion,
        cycles: est.cycles,
        achieved_gbps_per_npu: est.gbps_per_npu(&net),
        mem_traffic_bytes: est.mem_traffic_bytes_per_node.round() as u64,
        network_bytes: (est.network_bytes_per_node * spec.nodes() as f64).round() as u64,
        past_schedules: 0,
        attribution: Attribution {
            total_cycles: completion.cycles(),
            network_cycles: completion.cycles(),
            ..Attribution::default()
        },
    })
}

/// What [`analytic_program_run_with_conditions`] returns: an α–β
/// [`IterationReport`]'s unrounded cycles and traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticTrainingReport {
    /// Predicted end-to-end time in cycles.
    pub total_cycles: f64,
    /// Predicted compute-busy cycles.
    pub compute_cycles: f64,
    /// Predicted exposed-communication cycles.
    pub exposed_cycles: f64,
    /// Predicted per-node HBM communication traffic, bytes.
    pub mem_traffic_bytes: u64,
    /// Predicted total fabric bytes.
    pub network_bytes: u64,
}

/// [`TrainSpec::run_in`] in the α–β tier with a fresh [`RouteMemo`],
/// reduced to an [`AnalyticTrainingReport`]. Kept only because the
/// benchmark harness (`perfbench/`) calls it.
///
/// # Errors
///
/// As [`TrainSpec::run_in`].
pub fn analytic_program_run_with_conditions(
    config: SystemConfig,
    program: &Program,
    spec: TopologySpec,
    conditions: &RunConditions,
) -> Result<AnalyticTrainingReport, RunError> {
    let r = TrainSpec::new(config, program.clone(), spec)
        .conditions(conditions.clone())
        .run_in(Tier::Analytic, &RouteMemo::new())?;
    Ok(AnalyticTrainingReport {
        total_cycles: r.total_cycles,
        compute_cycles: r.compute_cycles,
        exposed_cycles: r.exposed_comm_cycles,
        mem_traffic_bytes: r.comm_mem_traffic_bytes,
        network_bytes: r.network_bytes,
    })
}

/// The α–β estimate of a prepared training [`Program`], behind
/// [`TrainSpec::run_in`]: the same program, carve-out and roofline kernel
/// model as the exact tier, with the critical path walked using α–β
/// collective durations derated by `fault`. The report has no
/// utilization series or ACE-busy figures, and attribution splits the
/// total into compute and network.
pub(crate) fn training_run(
    config: SystemConfig,
    program: &Program,
    spec: TopologySpec,
    fault: Option<&FaultPlan>,
    routes: &RouteMemo,
) -> IterationReport {
    let net = NetworkParams::paper_default();
    let npu = NpuParams::paper_default();
    let model = endpoint_model(config.engine());
    let (sms, mem_gbps) = config.kernel_resources(program.carveout());

    // Lowered programs repeat identical collectives (per-layer backward
    // all-reduces × iterations); the estimate is a pure function of
    // (op, bytes) for the fixed spec/model, so memoize instead of
    // re-planning and re-enumerating routes per task.
    let mut memo: ace_simcore::FxHashMap<(CollectiveOp, u64), AnalyticEstimate> =
        ace_simcore::FxHashMap::default();
    let mut mem_traffic = 0.0f64;
    let mut network = 0.0f64;
    let walk: AnalyticWalk = program.analytic_walk(
        |kernel| npu.kernel_cycles(kernel, sms, mem_gbps),
        |op, bytes| {
            let est = *memo.entry((op, bytes)).or_insert_with(|| {
                let plan = CollectivePlan::for_spec(op, spec);
                estimate_collective_with_memo(&plan, &net, bytes, &model, fault, routes)
            });
            mem_traffic += est.mem_traffic_bytes_per_node;
            network += est.network_bytes_per_node * spec.nodes() as f64;
            est.cycles
        },
    );
    let total = walk.total_cycles.round() as u64;
    let compute = walk.compute_cycles.round() as u64;
    // An iteration is at least as long as its compute: the model adds
    // exposed communication on top of the compute span, never the other
    // way around, so a violation is a modeling bug, not something to
    // clamp away.
    debug_assert!(
        compute <= total,
        "analytic invariant violated: compute {compute} cycles > total {total} cycles"
    );
    IterationReport {
        workload: program.name().to_string(),
        config: config.short_name().to_string(),
        nodes: spec.nodes(),
        freq: npu.freq,
        iterations: program.iterations(),
        total_cycles: walk.total_cycles,
        compute_cycles: walk.compute_cycles,
        exposed_comm_cycles: walk.exposed_cycles,
        compute_series: Vec::new(),
        network_series: Vec::new(),
        ace_util_fwd: None,
        ace_util_bwd: None,
        ace_busy_cycles: None,
        comm_mem_traffic_bytes: mem_traffic.round() as u64,
        network_bytes: network.round() as u64,
        past_schedules: 0,
        attribution: Attribution {
            total_cycles: total,
            compute_cycles: compute,
            network_cycles: total.saturating_sub(compute),
            ..Attribution::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunSpec;
    use ace_net::TopologySpec;

    const MB64: u64 = 64 << 20;

    fn pristine_program_run(
        config: SystemConfig,
        program: &Program,
        spec: TopologySpec,
    ) -> IterationReport {
        TrainSpec::new(config, program.clone(), spec)
            .run_in(Tier::Analytic, &RouteMemo::new())
            .expect("pristine estimate cannot fail")
    }

    #[test]
    fn engine_models_track_simulator_constants() {
        let freq = ace_simcore::npu_frequency();
        match endpoint_model(EngineKind::Baseline {
            comm_mem_gbps: 450.0,
            comm_sms: 6,
        }) {
            EndpointModel::Baseline {
                mem_bytes_per_cycle,
                drive_bytes_per_cycle,
                ..
            } => {
                assert!((mem_bytes_per_cycle - freq.bytes_per_cycle(450.0)).abs() < 1e-9);
                assert!((drive_bytes_per_cycle - 6.0 * 64.0).abs() < 1e-9);
            }
            other => panic!("wrong model {other:?}"),
        }
        match endpoint_model(EngineKind::Ace {
            dma_mem_gbps: 128.0,
            sram_mb: 2,
            fsms: 8,
        }) {
            EndpointModel::Ace {
                sram_bytes, fsms, ..
            } => {
                assert_eq!(sram_bytes, 2 << 20);
                assert_eq!(fsms, 8);
            }
            other => panic!("wrong model {other:?}"),
        }
    }

    #[test]
    fn config_models_match_table_vi() {
        for config in SystemConfig::ALL {
            let m = endpoint_model(config.engine());
            match config {
                SystemConfig::Ideal => assert_eq!(m, EndpointModel::Ideal),
                SystemConfig::Ace => assert!(matches!(m, EndpointModel::Ace { .. })),
                _ => assert!(matches!(m, EndpointModel::Baseline { .. })),
            }
        }
    }

    #[test]
    fn fig09a_grid_error_is_within_tolerance() {
        // The headline acceptance bound, in-miniature: the analytic tier
        // lands within 25 % of the exact executor on design-space points.
        let shape = TopologySpec::torus3(4, 2, 2).unwrap();
        for (sram, fsms) in [(1, 16), (2, 8), (4, 16), (4, 4), (8, 20)] {
            let engine = EngineKind::Ace {
                dma_mem_gbps: 128.0,
                sram_mb: sram,
                fsms,
            };
            let exact = RunSpec::new(shape, engine, CollectiveOp::AllReduce, MB64)
                .run()
                .expect("pristine run cannot fail")
                .completion;
            let analytic = RunSpec::new(shape, engine, CollectiveOp::AllReduce, MB64)
                .run_in(Tier::Analytic, &RouteMemo::new())
                .expect("pristine estimate cannot fail")
                .cycles;
            let err = (analytic - exact.cycles() as f64).abs() / exact.cycles() as f64;
            assert!(
                err < 0.25,
                "sram={sram} fsms={fsms}: {analytic} vs {} ({:.1}% off)",
                exact.cycles(),
                err * 100.0
            );
        }
    }

    #[test]
    fn training_estimate_tracks_the_simulator() {
        use crate::training_program;
        use ace_workloads::Workload;
        let shape = TopologySpec::torus3(4, 2, 2).unwrap();
        for config in [SystemConfig::Ace, SystemConfig::BaselineNoOverlap] {
            let program = training_program(config, &Workload::resnet50(), 1, false);
            let est = pristine_program_run(config, &program, shape);
            let exact = TrainSpec::new(config, program, shape).run().unwrap();
            // Compute is the shared roofline model: must agree exactly.
            assert_eq!(
                est.compute_cycles,
                exact.compute_cycles() as f64,
                "{config}"
            );
            let err = (est.total_cycles - exact.total_cycles() as f64).abs()
                / exact.total_cycles() as f64;
            assert!(
                err < 0.35,
                "{config}: analytic {} vs exact {} ({:.1}% off)",
                est.total_cycles,
                exact.total_cycles(),
                err * 100.0
            );
        }
    }

    #[test]
    fn no_communication_matches_exactly() {
        // Degenerate case: a program without collectives is pure
        // roofline compute, identical in both tiers.
        use ace_compute::KernelDesc;
        use ace_workloads::{Parallelism, TaskPhase};
        let mut p = Program::new("compute-only", Parallelism::Data, 1);
        for i in 0..4 {
            p.add_compute(
                KernelDesc::new(format!("k{i}"), 2.0e9, 1.0e8),
                TaskPhase::Forward,
                0,
                vec![],
            );
        }
        let shape = TopologySpec::torus3(2, 1, 1).unwrap();
        let exact = TrainSpec::new(SystemConfig::Ace, p.clone(), shape)
            .run()
            .unwrap();
        let est = pristine_program_run(SystemConfig::Ace, &p, shape);
        assert_eq!(est.total_cycles, exact.total_cycles() as f64);
        assert_eq!(est.exposed_comm_cycles, 0.0);
    }
}
