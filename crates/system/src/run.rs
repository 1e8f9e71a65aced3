//! The run entry points: one builder per run kind, with
//! fault/contention/straggler conditions as first-class inputs.
//!
//! [`RunSpec`] runs a standalone collective; [`TrainSpec`] builds and
//! runs a training [`Program`] (lower a workload with
//! [`training_program`]). Every knob is a builder method:
//!
//! ```
//! use ace_system::{EngineKind, RunSpec};
//! use ace_collectives::CollectiveOp;
//! use ace_net::TopologySpec;
//!
//! let topo: TopologySpec = "4x4".parse().unwrap();
//! let pristine = RunSpec::new(topo, EngineKind::Ideal, CollectiveOp::AllReduce, 1 << 20)
//!     .run()
//!     .unwrap();
//! let degraded = RunSpec::new(topo, EngineKind::Ideal, CollectiveOp::AllReduce, 1 << 20)
//!     .faults("kill:1@seed:7".parse().unwrap())
//!     .run()
//!     .unwrap();
//! assert!(degraded.completion >= pristine.completion);
//! ```
//!
//! Degradation is resolved once into a [`FaultPlan`] before any event
//! runs, so disconnected partitions and saturating contention surface as
//! a [`RunError`] instead of a hang or a silently wrong result.

use std::fmt;

use ace_collectives::CollectiveOp;
use ace_compute::NpuParams;
use ace_net::{ContentionSpec, FaultError, FaultPlan, FaultSpec, NetworkParams, TopologySpec};
use ace_trace::{NullTracer, RecordingTracer, Tracer};
use ace_workloads::{LoweringOptions, Program, StragglerSpec, Workload};

use crate::collective_run::{run_with_conditions, CollectiveRunReport, EngineKind};
use crate::config::SystemConfig;
use crate::executor::ExecutorOptions;
use crate::report::IterationReport;
use crate::training::TrainingSim;

/// The environmental conditions a run executes under: fabric faults,
/// background contention, and compute stragglers. The default is the
/// pristine fabric every earlier revision assumed.
///
/// All three axes are deterministic given their spellings (random draws
/// are splitmix64-seeded), so conditions are part of a run's identity —
/// the sweep layer hashes them into cache keys.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct RunConditions {
    /// Killed/degraded links and nodes (`none`, `kill:2@seed:7`,
    /// `degrade:50:link:0-1`, ... — see [`FaultSpec`]).
    pub faults: FaultSpec,
    /// Background traffic (`none`, `uniform:GBPS`, `hotspot:NODE@GBPS`).
    pub contention: ContentionSpec,
    /// Compute-task stretch distribution (`det`,
    /// `lognormal:SIGMA[@seed:S]`). Only affects Program IR compute
    /// tasks; standalone collectives have none.
    pub straggler: StragglerSpec,
}

impl RunConditions {
    /// Conditions that change nothing (the pristine fabric).
    pub fn is_pristine(&self) -> bool {
        self.faults.is_none()
            && matches!(self.contention, ContentionSpec::None)
            && self.straggler.is_det()
    }

    /// Resolves the fault/contention axes against a topology into a
    /// [`FaultPlan`] (routes re-planned around kills, per-dimension
    /// slowdowns, connectivity verified).
    ///
    /// # Errors
    ///
    /// Any [`FaultError`]: a disconnected partition, saturating
    /// contention, or a named link/node that does not exist.
    pub fn resolve(
        &self,
        spec: TopologySpec,
        net: &NetworkParams,
    ) -> Result<FaultPlan, FaultError> {
        let topo = spec.build();
        FaultPlan::resolve(topo.as_ref(), net, &self.faults, &self.contention)
    }
}

impl fmt::Display for RunConditions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults={} contention={} straggler={}",
            self.faults, self.contention, self.straggler
        )
    }
}

/// Why a run could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The fault/contention conditions cannot run on this topology.
    Fault(FaultError),
    /// The training program failed [`Program::validate`].
    InvalidProgram(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Fault(e) => write!(f, "{e}"),
            RunError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<FaultError> for RunError {
    fn from(e: FaultError) -> RunError {
        RunError::Fault(e)
    }
}

/// Builder for a standalone single-collective run (the Fig. 5/6/9a
/// harness). See the module-level docs for an example.
#[derive(Debug)]
pub struct RunSpec<T: Tracer = NullTracer> {
    topology: TopologySpec,
    engine: EngineKind,
    op: CollectiveOp,
    payload_bytes: u64,
    options: ExecutorOptions,
    conditions: RunConditions,
    tracer: T,
}

impl RunSpec {
    /// A run of `op` with per-node `payload_bytes` on `topology` using
    /// `engine`, under default options on a pristine fabric.
    pub fn new(
        topology: impl Into<TopologySpec>,
        engine: EngineKind,
        op: CollectiveOp,
        payload_bytes: u64,
    ) -> RunSpec {
        RunSpec {
            topology: topology.into(),
            engine,
            op,
            payload_bytes,
            options: ExecutorOptions::default(),
            conditions: RunConditions::default(),
            tracer: NullTracer,
        }
    }

    /// Attaches a [`RecordingTracer`]; retrieve it from
    /// [`run_traced`](RunSpec::run_traced).
    pub fn traced(self) -> RunSpec<RecordingTracer> {
        self.tracer(RecordingTracer::new())
    }
}

impl<T: Tracer> RunSpec<T> {
    /// Sets non-default [`ExecutorOptions`] (ablation knobs).
    pub fn options(mut self, options: ExecutorOptions) -> RunSpec<T> {
        self.options = options;
        self
    }

    /// Sets the full run conditions at once.
    pub fn conditions(mut self, conditions: RunConditions) -> RunSpec<T> {
        self.conditions = conditions;
        self
    }

    /// Sets the fault axis.
    pub fn faults(mut self, faults: FaultSpec) -> RunSpec<T> {
        self.conditions.faults = faults;
        self
    }

    /// Sets the background-contention axis.
    pub fn contention(mut self, contention: ContentionSpec) -> RunSpec<T> {
        self.conditions.contention = contention;
        self
    }

    /// Attaches an arbitrary [`Tracer`] (changes the builder's type).
    pub fn tracer<U: Tracer>(self, tracer: U) -> RunSpec<U> {
        RunSpec {
            topology: self.topology,
            engine: self.engine,
            op: self.op,
            payload_bytes: self.payload_bytes,
            options: self.options,
            conditions: self.conditions,
            tracer,
        }
    }

    /// Runs the collective and returns the report.
    ///
    /// # Errors
    ///
    /// [`RunError::Fault`] when the conditions cannot run on this
    /// topology (disconnection, saturation, unknown link/node).
    pub fn run(self) -> Result<CollectiveRunReport, RunError> {
        self.run_traced().map(|(report, _)| report)
    }

    /// Runs the collective and returns the report plus the tracer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](RunSpec::run).
    pub fn run_traced(self) -> Result<(CollectiveRunReport, T), RunError> {
        let net_params = NetworkParams::paper_default();
        let plan = (!self.conditions.is_pristine())
            .then(|| self.conditions.resolve(self.topology, &net_params))
            .transpose()?;
        Ok(run_with_conditions(
            self.topology,
            self.engine,
            self.op,
            self.payload_bytes,
            self.options,
            plan.as_ref(),
            self.tracer,
        ))
    }
}

/// Lowers `workload` into the training [`Program`] that `config` runs,
/// in either tier: `iterations` (at least 1) of the workload's native
/// parallelization, with collectives overlapped exactly when the
/// configuration overlaps ([`SystemConfig::overlaps`]), and — when
/// `optimized_embedding` is set — the Fig. 12 graph transform
/// ([`Program::optimize_embedding`], a no-op without an embedding
/// stage).
///
/// ```
/// use ace_system::{training_program, SystemConfig, TrainSpec};
/// use ace_workloads::Workload;
///
/// let config = SystemConfig::BaselineCommOpt;
/// let program = training_program(config, &Workload::gnmt(), 1, false);
/// let topo: ace_net::TopologySpec = "4x2x2".parse().unwrap();
/// let report = TrainSpec::new(config, program, topo).run().unwrap();
/// assert_eq!(report.nodes(), 16);
/// ```
///
/// Re-parallelize with [`Workload::with_parallelism`] first; a
/// declarative TOML `WorkloadSpec` instantiates into a [`Workload`] for
/// the fabric's node count. NPU and network parameters default to the
/// paper's platform and are overridden on [`TrainSpec`]:
///
/// ```
/// use ace_net::NetworkParams;
/// use ace_system::{training_program, SystemConfig, TrainSpec};
/// use ace_workloads::WorkloadSpec;
///
/// let spec = WorkloadSpec::from_toml_str(r#"
///     name = "tiny-mlp"
///     batch_per_npu = 8
///     [[layer]]
///     fwd_flops = 1.0e9
///     fwd_bytes = 1.0e7
///     comm = "all-reduce"
///     comm_bytes = "2MB"
/// "#).unwrap();
///
/// let mut net = NetworkParams::paper_default();
/// net.inter.bandwidth_gbps = 50.0;   // double the scale-out links
/// let program = training_program(SystemConfig::Ace, &spec.instantiate(4), 1, false);
/// let topo: ace_net::TopologySpec = "2x2".parse().unwrap();
/// let report = TrainSpec::new(SystemConfig::Ace, program, topo)
///     .net_params(net)
///     .run()
///     .unwrap();
/// assert_eq!(report.workload(), "tiny-mlp");
/// ```
pub fn training_program(
    config: SystemConfig,
    workload: &Workload,
    iterations: u32,
    optimized_embedding: bool,
) -> Program {
    let opts = LoweringOptions {
        iterations: iterations.max(1),
        overlap: config.overlaps(),
    };
    let mut program = Program::lower(workload, workload.parallelism(), &opts);
    if optimized_embedding {
        program.optimize_embedding();
    }
    program
}

/// Builder for a training run: the one way to construct a
/// [`TrainingSim`].
///
/// ```
/// use ace_system::{training_program, SystemConfig, TrainSpec};
/// use ace_workloads::Workload;
///
/// let program = training_program(SystemConfig::Ace, &Workload::resnet50(), 1, false);
/// let topo: ace_net::TopologySpec = "2x2".parse().unwrap();
/// let report = TrainSpec::new(SystemConfig::Ace, program, topo)
///     .run()
///     .unwrap();
/// assert!(report.total_cycles() > 0);
/// ```
///
/// Lowering examples, including a TOML workload and a network-parameter
/// override, are on [`training_program`].
#[derive(Debug)]
pub struct TrainSpec<T: Tracer = NullTracer> {
    config: SystemConfig,
    program: Program,
    topology: TopologySpec,
    npu: NpuParams,
    net_params: NetworkParams,
    options: ExecutorOptions,
    conditions: RunConditions,
    tracer: T,
}

impl TrainSpec {
    /// A run of `program` on `topology` under `config`, with the paper's
    /// NPU/network parameters, default options, a pristine fabric, and
    /// no tracer.
    pub fn new(
        config: SystemConfig,
        program: Program,
        topology: impl Into<TopologySpec>,
    ) -> TrainSpec {
        TrainSpec {
            config,
            program,
            topology: topology.into(),
            npu: NpuParams::paper_default(),
            net_params: NetworkParams::paper_default(),
            options: ExecutorOptions::default(),
            conditions: RunConditions::default(),
            tracer: NullTracer,
        }
    }
}

impl<T: Tracer> TrainSpec<T> {
    /// Overrides the NPU compute parameters.
    pub fn npu_params(mut self, npu: NpuParams) -> TrainSpec<T> {
        self.npu = npu;
        self
    }

    /// Overrides the network link parameters.
    pub fn net_params(mut self, net: NetworkParams) -> TrainSpec<T> {
        self.net_params = net;
        self
    }

    /// Sets non-default [`ExecutorOptions`].
    pub fn options(mut self, options: ExecutorOptions) -> TrainSpec<T> {
        self.options = options;
        self
    }

    /// Sets the full run conditions at once.
    pub fn conditions(mut self, conditions: RunConditions) -> TrainSpec<T> {
        self.conditions = conditions;
        self
    }

    /// Sets the fault axis.
    pub fn faults(mut self, faults: FaultSpec) -> TrainSpec<T> {
        self.conditions.faults = faults;
        self
    }

    /// Attaches an arbitrary [`Tracer`] (changes the builder's type).
    pub fn tracer<U: Tracer>(self, tracer: U) -> TrainSpec<U> {
        TrainSpec {
            config: self.config,
            program: self.program,
            topology: self.topology,
            npu: self.npu,
            net_params: self.net_params,
            options: self.options,
            conditions: self.conditions,
            tracer,
        }
    }

    /// Builds the simulator: the program is validated, the
    /// fault/contention conditions are resolved against the topology up
    /// front (so a disconnected fabric is an error, never a hang), and
    /// the straggler distribution stretches the program's compute tasks.
    /// A faulted fabric runs on the serial event loop.
    ///
    /// # Errors
    ///
    /// [`RunError::InvalidProgram`] when the program fails
    /// [`Program::validate`], and [`RunError::Fault`] when the
    /// conditions cannot run on this topology.
    pub fn build(self) -> Result<TrainingSim<T>, RunError> {
        let mut program = self.program;
        program.validate().map_err(RunError::InvalidProgram)?;
        let fault = if self.conditions.is_pristine() {
            None
        } else {
            program.apply_stragglers(&self.conditions.straggler);
            let plan = self.conditions.resolve(self.topology, &self.net_params)?;
            (!plan.is_pristine()).then_some(plan)
        };
        Ok(TrainingSim::new(
            self.config,
            program,
            self.topology,
            self.npu,
            self.net_params,
            self.options,
            fault,
            self.tracer,
        ))
    }

    /// Builds and runs, returning the report.
    ///
    /// # Errors
    ///
    /// Same conditions as [`build`](TrainSpec::build).
    pub fn run(self) -> Result<IterationReport, RunError> {
        Ok(self.build()?.run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_workloads::{Parallelism, WorkloadSpec};

    const MB8: u64 = 8 << 20;

    fn topo(s: &str) -> TopologySpec {
        s.parse().unwrap()
    }

    #[test]
    fn faulted_runs_complete_and_are_slower() {
        let base = RunSpec::new(topo("4x4"), EngineKind::Ideal, CollectiveOp::AllReduce, MB8)
            .run()
            .unwrap();
        let degraded = RunSpec::new(topo("4x4"), EngineKind::Ideal, CollectiveOp::AllReduce, MB8)
            .faults("kill:2@seed:42".parse().unwrap())
            .run()
            .unwrap();
        assert!(
            degraded.completion > base.completion,
            "two killed links must slow the all-reduce: {} !> {}",
            degraded.completion.cycles(),
            base.completion.cycles()
        );
        // Byte conservation: the collective still moves every payload
        // byte (detours add traffic, so the degraded fabric carries at
        // least as much).
        assert!(degraded.network_bytes >= base.network_bytes);
    }

    #[test]
    fn contention_slows_the_exact_run() {
        let base = RunSpec::new(topo("4x4"), EngineKind::Ideal, CollectiveOp::AllReduce, MB8)
            .run()
            .unwrap();
        let congested = RunSpec::new(topo("4x4"), EngineKind::Ideal, CollectiveOp::AllReduce, MB8)
            .contention("uniform:20".parse().unwrap())
            .run()
            .unwrap();
        assert!(congested.completion > base.completion);
        assert_eq!(congested.network_bytes, base.network_bytes);
    }

    #[test]
    fn disconnection_is_an_error_not_a_hang() {
        // Killing a node disconnects it: fault resolution must refuse
        // the run rather than let the executor wait on events the
        // isolated node can never receive.
        let err = RunSpec::new(topo("4x4"), EngineKind::Ideal, CollectiveOp::AllReduce, MB8)
            .faults("kill:node:5".parse().unwrap())
            .run()
            .unwrap_err();
        assert!(
            matches!(&err, RunError::Fault(FaultError::Disconnected { .. })),
            "{err}"
        );
        assert!(err.to_string().contains("disconnect"), "{err}");
    }

    #[test]
    fn degraded_all_to_all_reroutes_around_kills() {
        let base = RunSpec::new(topo("4x4"), EngineKind::Ideal, CollectiveOp::AllToAll, MB8)
            .run()
            .unwrap();
        let degraded = RunSpec::new(topo("4x4"), EngineKind::Ideal, CollectiveOp::AllToAll, MB8)
            .faults("kill:2@seed:42".parse().unwrap())
            .run()
            .unwrap();
        assert!(degraded.completion >= base.completion);
        assert!(degraded.network_bytes >= base.network_bytes);
    }

    #[test]
    fn training_with_conditions_runs_and_stretches() {
        let program = training_program(SystemConfig::Ace, &Workload::resnet50(), 1, false);
        let base = TrainSpec::new(SystemConfig::Ace, program.clone(), topo("2x2"))
            .run()
            .unwrap();
        let degraded = TrainSpec::new(SystemConfig::Ace, program.clone(), topo("2x2"))
            .conditions(RunConditions {
                faults: "degrade:50:1@seed:9".parse().unwrap(),
                contention: ContentionSpec::None,
                straggler: "lognormal:0.3@seed:4".parse().unwrap(),
            })
            .run()
            .unwrap();
        assert!(degraded.total_cycles() >= base.total_cycles());
        // Stragglers stretch compute deterministically.
        let again = TrainSpec::new(SystemConfig::Ace, program, topo("2x2"))
            .conditions(RunConditions {
                faults: "degrade:50:1@seed:9".parse().unwrap(),
                contention: ContentionSpec::None,
                straggler: "lognormal:0.3@seed:4".parse().unwrap(),
            })
            .run()
            .unwrap();
        assert_eq!(degraded.total_cycles(), again.total_cycles());
    }

    #[test]
    fn conditions_display_and_identity() {
        let c = RunConditions::default();
        assert!(c.is_pristine());
        assert_eq!(c.to_string(), "faults=none contention=none straggler=det");
        let d = RunConditions {
            faults: "kill:1@seed:2".parse().unwrap(),
            contention: "hotspot:3@10".parse().unwrap(),
            straggler: "lognormal:0.5".parse().unwrap(),
        };
        assert!(!d.is_pristine());
        let e = RunConditions {
            faults: "kill:1@seed:2".parse().unwrap(),
            contention: "hotspot:3@10".parse().unwrap(),
            straggler: "lognormal:0.5".parse().unwrap(),
        };
        assert_eq!(d, e);
    }

    /// One ResNet-50 iteration on a 4-NPU torus under ACE.
    fn resnet_spec() -> TrainSpec {
        let program = training_program(SystemConfig::Ace, &Workload::resnet50(), 1, false);
        TrainSpec::new(SystemConfig::Ace, program, topo("2x2"))
    }

    #[test]
    fn defaults_are_paper_defaults() {
        let default = resnet_spec().run().unwrap();
        let explicit = resnet_spec()
            .npu_params(NpuParams::paper_default())
            .net_params(NetworkParams::paper_default())
            .options(ExecutorOptions::default())
            .conditions(RunConditions::default())
            .run()
            .unwrap();
        assert_eq!(default.total_cycles(), explicit.total_cycles());
        assert_eq!(default.network_bytes(), explicit.network_bytes());
    }

    #[test]
    fn npu_and_net_params_are_no_longer_baked_in() {
        let paper = resnet_spec().run().unwrap();
        // A weaker NPU cannot compute faster.
        let mut slow = NpuParams::paper_default();
        slow.peak_tflops /= 4.0;
        let slowed = resnet_spec().npu_params(slow).run().unwrap();
        assert!(slowed.total_compute_us() >= paper.total_compute_us());
        // Slower inter-package links stretch the network side.
        let mut net = NetworkParams::paper_default();
        net.inter.bandwidth_gbps /= 8.0;
        let throttled = resnet_spec().net_params(net).run().unwrap();
        assert!(throttled.total_time_us() >= paper.total_time_us());
    }

    #[test]
    fn parallelism_override_is_applied_and_validated() {
        let w = Workload::transformer_lm()
            .with_parallelism(Parallelism::Model)
            .unwrap();
        let program = training_program(SystemConfig::Ace, &w, 2, false);
        assert_eq!(program.parallelism(), Parallelism::Model);
        let sim = TrainSpec::new(SystemConfig::Ace, program, topo("4x2x2"))
            .build()
            .unwrap();
        assert_eq!(sim.program().parallelism(), Parallelism::Model);

        let err = Workload::resnet50()
            .with_parallelism(Parallelism::Hybrid)
            .unwrap_err();
        assert!(err.contains("embedding"), "{err}");
    }

    #[test]
    fn optimized_embedding_ignored_for_data_parallel() {
        // ResNet-50 has no embedding stage, so the Fig. 12 flag leaves
        // its program untouched: no carve-out, no moved tasks.
        let w = Workload::resnet50();
        let plain = training_program(SystemConfig::Ace, &w, 1, false);
        let flagged = training_program(SystemConfig::Ace, &w, 1, true);
        assert!(flagged.carveout().is_none());
        assert_eq!(flagged.schedule(), plain.schedule());
    }

    #[test]
    fn invalid_program_is_rejected() {
        let mut p = Program::new("bad", Parallelism::Data, 1);
        let ar = p.add_collective(
            CollectiveOp::AllReduce,
            1 << 20,
            ace_workloads::TaskPhase::Backward,
            0,
            vec![],
        );
        // A collective may not depend on another collective.
        p.add_collective(
            CollectiveOp::AllReduce,
            1 << 20,
            ace_workloads::TaskPhase::Backward,
            0,
            vec![ar],
        );
        let err = TrainSpec::new(SystemConfig::Ace, p, topo("4x2x2"))
            .build()
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidProgram(_)), "{err}");
        assert!(err.to_string().starts_with("invalid program: "), "{err}");
    }

    #[test]
    fn workload_spec_instantiates_at_build_time() {
        let spec = WorkloadSpec::from_toml_str(
            "name = \"tiny\"\nbatch_per_npu = 4\n[[layer]]\nfwd_flops = 1e9\nfwd_bytes = 1e7\n\
             comm = \"all-reduce\"\ncomm_bytes = \"1MB\"\n",
        )
        .unwrap();
        let program = training_program(SystemConfig::Ace, &spec.instantiate(2), 1, false);
        let report = TrainSpec::new(SystemConfig::Ace, program, topo("2x1x1"))
            .run()
            .unwrap();
        assert_eq!(report.workload(), "tiny");
        assert!(report.total_cycles() > 0);
    }
}
