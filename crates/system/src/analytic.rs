//! The analytic fidelity tier: engine overheads + closed-form runs.
//!
//! This module is the bridge between the event-driven simulator and the
//! α–β model in [`ace_collectives::analytic`]: it derives each engine's
//! [`EndpointModel`] **from the same [`EngineKind`] and parameter structs
//! the event-driven endpoints consume** (Table VI's split through
//! [`SystemConfig::engine`], and `MemoryParams`, `BusParams`,
//! `SmDriveModel`, `AceConfig`), so a change to the simulated hardware
//! automatically moves the analytic tier too, and offers drop-in analytic
//! counterparts of [`RunSpec`](crate::RunSpec) and
//! [`TrainSpec`](crate::TrainSpec).
//!
//! Accuracy is tracked by the `validate` binary, which runs both tiers
//! over the Fig. 9a grid and the training suite and checks the error
//! table into `BENCH_analytic.json`.

use ace_collectives::analytic::{
    estimate_collective_with_memo, AnalyticEstimate, EndpointModel, RouteMemo,
};
use ace_collectives::{CollectiveOp, CollectivePlan};
use ace_compute::{NpuParams, SmDriveModel};
use ace_engine::AceConfig;
use ace_mem::{BusParams, MemoryParams};
use ace_net::{FaultPlan, NetworkParams, TopologySpec};
use ace_workloads::{AnalyticWalk, Program};

use crate::collective_run::EngineKind;
use crate::config::SystemConfig;
use crate::run::{RunConditions, RunError};

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

/// The analytic counterpart of a [`CollectiveRunReport`]
/// (fractional-cycle precision; the sweep layer rounds).
///
/// [`CollectiveRunReport`]: crate::CollectiveRunReport
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticCollectiveReport {
    /// Predicted completion time in cycles.
    pub cycles: f64,
    /// Predicted achieved per-NPU network bandwidth, GB/s.
    pub achieved_gbps_per_npu: f64,
    /// Predicted per-node HBM communication traffic, bytes.
    pub mem_traffic_bytes: u64,
    /// Predicted total fabric bytes.
    pub network_bytes: u64,
}

/// Analytic estimate of one standalone collective — the α–β counterpart
/// of [`RunSpec`](crate::RunSpec). Each phase's wire rate is derated by
/// the [`FaultPlan`] `conditions` resolve to (worst surviving-link load,
/// detour congestion included); stragglers do not apply, since a
/// standalone collective has no compute tasks. The fabric's routes come
/// from `routes`, so a sweep walks each fabric's all-to-all routes once;
/// the report does not depend on the memo.
///
/// # Errors
///
/// [`RunError::InvalidEngine`] when the engine fails
/// [`EngineKind::validate`], and [`RunError::Fault`] when the conditions
/// cannot run on `spec`.
pub fn analytic_collective_run(
    spec: TopologySpec,
    engine: EngineKind,
    op: CollectiveOp,
    payload_bytes: u64,
    conditions: &RunConditions,
    routes: &RouteMemo,
) -> Result<AnalyticCollectiveReport, RunError> {
    engine.validate().map_err(RunError::InvalidEngine)?;
    let net = NetworkParams::paper_default();
    let fault = resolve_degradation(spec, &net, conditions)?;
    let plan = CollectivePlan::for_spec(op, spec);
    let model = endpoint_model(engine);
    let est =
        estimate_collective_with_memo(&plan, &net, payload_bytes, &model, fault.as_ref(), routes);
    Ok(report_from_estimate(&est, spec, &net))
}

/// The fault plan `conditions` resolve to on `spec`, or `None` when they
/// leave the fabric pristine.
fn resolve_degradation(
    spec: TopologySpec,
    net: &NetworkParams,
    conditions: &RunConditions,
) -> Result<Option<FaultPlan>, RunError> {
    if conditions.is_pristine() {
        return Ok(None);
    }
    let fault = conditions.resolve(spec, net)?;
    Ok((!fault.is_pristine()).then_some(fault))
}

fn report_from_estimate(
    est: &AnalyticEstimate,
    spec: TopologySpec,
    net: &NetworkParams,
) -> AnalyticCollectiveReport {
    AnalyticCollectiveReport {
        cycles: est.cycles,
        achieved_gbps_per_npu: est.gbps_per_npu(net),
        mem_traffic_bytes: est.mem_traffic_bytes_per_node.round() as u64,
        network_bytes: (est.network_bytes_per_node * spec.nodes() as f64).round() as u64,
    }
}

/// The analytic counterpart of an [`IterationReport`]
/// (critical-path walk over the lowered [`Program`]).
///
/// [`IterationReport`]: crate::IterationReport
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

/// Analytic estimate of a training [`Program`] — the α–β counterpart of
/// [`TrainSpec`](crate::TrainSpec): the same program (lower workloads
/// with [`training_program`](crate::training_program)), carve-out and
/// roofline kernel model, with the critical path walked using α–β
/// collective durations instead of event-driven execution. Collective
/// durations are derated by the [`FaultPlan`] `conditions` resolve to,
/// and the straggler distribution stretches the program's compute
/// kernels exactly as the exact tier does, so `validate` can compare the
/// tiers point-for-point on degraded fabrics.
///
/// # Errors
///
/// [`RunError::Fault`] when the conditions cannot run on `spec`.
pub fn analytic_program_run_with_conditions(
    config: SystemConfig,
    program: &Program,
    spec: TopologySpec,
    conditions: &RunConditions,
) -> Result<AnalyticTrainingReport, RunError> {
    analytic_program_run_with_memo(config, program, spec, conditions, &RouteMemo::new())
}

/// [`analytic_program_run_with_conditions`] taking the fabric's routes
/// from `routes`. The report does not depend on the memo.
pub fn analytic_program_run_with_memo(
    config: SystemConfig,
    program: &Program,
    spec: TopologySpec,
    conditions: &RunConditions,
    routes: &RouteMemo,
) -> Result<AnalyticTrainingReport, RunError> {
    if conditions.is_pristine() {
        return Ok(analytic_program_walk(config, program, spec, None, routes));
    }
    let net = NetworkParams::paper_default();
    let fault = resolve_degradation(spec, &net, conditions)?;
    let mut program = program.clone();
    program.apply_stragglers(&conditions.straggler);
    Ok(analytic_program_walk(
        config,
        &program,
        spec,
        fault.as_ref(),
        routes,
    ))
}

fn analytic_program_walk(
    config: SystemConfig,
    program: &Program,
    spec: TopologySpec,
    fault: Option<&FaultPlan>,
    routes: &RouteMemo,
) -> AnalyticTrainingReport {
    let net = NetworkParams::paper_default();
    let npu = NpuParams::paper_default();
    let model = endpoint_model(config.engine());
    let (sms, mem_gbps) = config.kernel_resources(program.carveout());

    // Lowered programs repeat identical collectives (per-layer backward
    // all-reduces × iterations); the estimate is a pure function of
    // (op, bytes) for the fixed spec/model, so memoize instead of
    // re-planning and re-enumerating routes per task.
    let mut memo: std::collections::HashMap<(CollectiveOp, u64), AnalyticEstimate> =
        std::collections::HashMap::new();
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
    AnalyticTrainingReport {
        total_cycles: walk.total_cycles,
        compute_cycles: walk.compute_cycles,
        exposed_cycles: walk.exposed_cycles,
        mem_traffic_bytes: mem_traffic.round() as u64,
        network_bytes: network.round() as u64,
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
    ) -> AnalyticTrainingReport {
        analytic_program_run_with_conditions(config, program, spec, &RunConditions::default())
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
            let analytic = analytic_collective_run(
                shape,
                engine,
                CollectiveOp::AllReduce,
                MB64,
                &RunConditions::default(),
                &RouteMemo::new(),
            )
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
        use crate::{training_program, TrainSpec};
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
        use crate::TrainSpec;
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
        assert_eq!(est.exposed_cycles, 0.0);
    }
}
