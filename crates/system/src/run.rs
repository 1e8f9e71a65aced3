//! The run entry points: one builder per run kind, with
//! fault/contention/straggler conditions as first-class inputs and the
//! fidelity [`Tier`] as an argument of the run.
//!
//! [`RunSpec`] runs a standalone collective; [`TrainSpec`] builds and
//! runs a training [`Program`] (lower a workload with
//! [`training_program`]). Each has one run that takes the tier,
//! `run_in(tier, routes)`, and returns the same report type in both
//! tiers: the event-driven executor's, or the α–β estimate's (see
//! [`analytic`](crate::analytic)), whose fabrics come from the
//! [`RouteMemo`] a sweep shares across its cells. `run` is the exact tier
//! on its own, and `run_traced` and `build` hand back the executor's
//! tracer and simulator. Every knob is a builder method:
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
use std::str::FromStr;

use ace_collectives::analytic::RouteMemo;
use ace_collectives::CollectiveOp;
use ace_net::{ContentionSpec, FaultError, FaultPlan, FaultSpec, NetworkParams, TopologySpec};
use ace_simcore::SimTime;
use ace_trace::{Attribution, NullTracer, PipeWeights, RecordingTracer, Tracer};
use ace_workloads::{LoweringOptions, Program, StragglerSpec, Workload};

use crate::analytic;
use crate::collective_run::{CollectiveRunReport, EngineKind};
use crate::config::SystemConfig;
use crate::executor::{CollectiveExecutor, ExecutorOptions};
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

    /// The fault plan every run on `topology` builds from: the resolved
    /// plan, or `None` when the conditions leave the fabric pristine.
    pub(crate) fn fault_plan(&self, topology: TopologySpec) -> Result<Option<FaultPlan>, RunError> {
        if self.is_pristine() {
            return Ok(None);
        }
        let plan = self.resolve(topology, &NetworkParams::paper_default())?;
        Ok((!plan.is_pristine()).then_some(plan))
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

/// Which model runs a spec: the event-driven executor or the α–β
/// estimate. Both are deterministic, and a result belongs to the tier
/// that produced it (a sweep keys its cache by tier). A sweep's hybrid
/// fidelity is a strategy over the two, not a tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Tier {
    /// The event-driven executor.
    #[default]
    Exact,
    /// The closed-form α–β estimate.
    Analytic,
}

impl Tier {
    /// The cache-file / report-column spelling.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Exact => "exact",
            Tier::Analytic => "analytic",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Tier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(Tier::Exact),
            "analytic" => Ok(Tier::Analytic),
            other => Err(format!("unknown result tier '{other}'")),
        }
    }
}

/// Why a run could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The fault/contention conditions cannot run on this topology.
    Fault(FaultError),
    /// The training program failed [`Program::validate`].
    InvalidProgram(String),
    /// The collective engine failed [`EngineKind::validate`].
    InvalidEngine(String),
    /// The spec of a run built on these (a serving spec, say) failed its
    /// own validation.
    InvalidSpec(String),
    /// An α–β run was handed an input only the executor reads: executor
    /// options other than the defaults, or an enabled tracer.
    ExactOnly(&'static str),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Fault(e) => write!(f, "{e}"),
            RunError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            RunError::InvalidEngine(e) => write!(f, "invalid {e}"),
            RunError::InvalidSpec(e) => write!(f, "invalid spec: {e}"),
            RunError::ExactOnly(input) => write!(
                f,
                "the α–β tier cannot honour {input}: only the executor reads it"
            ),
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
        topology: TopologySpec,
        engine: EngineKind,
        op: CollectiveOp,
        payload_bytes: u64,
    ) -> RunSpec {
        RunSpec {
            topology,
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

    /// Runs the collective in `tier` and returns the report: the
    /// executor's, or the α–β estimate's with its fabric taken from
    /// `routes` (the report does not depend on the memo).
    ///
    /// # Errors
    ///
    /// [`RunError::InvalidEngine`] when the engine fails
    /// [`EngineKind::validate`], and [`RunError::Fault`] when the
    /// conditions cannot run on this topology (disconnection,
    /// saturation, unknown link/node). In the α–β tier,
    /// [`RunError::ExactOnly`] for non-default [`ExecutorOptions`] or an
    /// enabled tracer, which that tier would otherwise ignore.
    pub fn run_in(self, tier: Tier, routes: &RouteMemo) -> Result<CollectiveRunReport, RunError> {
        match tier {
            Tier::Exact => self.run(),
            Tier::Analytic if self.options != ExecutorOptions::default() => {
                Err(RunError::ExactOnly("executor options"))
            }
            Tier::Analytic if self.tracer.enabled() => Err(RunError::ExactOnly("a tracer")),
            Tier::Analytic => analytic::collective_run(
                self.topology,
                self.engine,
                self.op,
                self.payload_bytes,
                &self.conditions,
                routes,
            ),
        }
    }

    /// Runs the collective in the exact tier and returns the report.
    ///
    /// # Errors
    ///
    /// [`RunError::InvalidEngine`] or [`RunError::Fault`], as for
    /// [`run_in`](RunSpec::run_in).
    pub fn run(self) -> Result<CollectiveRunReport, RunError> {
        self.run_traced().map(|(report, _)| report)
    }

    /// Runs the collective and returns the report plus the tracer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](RunSpec::run).
    pub fn run_traced(self) -> Result<(CollectiveRunReport, T), RunError> {
        self.run_counted()
            .map(|(report, tracer, _)| (report, tracer))
    }

    /// [`run_traced`](RunSpec::run_traced), also returning how many nodes
    /// the executor simulated.
    pub(crate) fn run_counted(self) -> Result<(CollectiveRunReport, T, usize), RunError> {
        self.engine.validate().map_err(RunError::InvalidEngine)?;
        let net_params = NetworkParams::paper_default();
        let fault = self.conditions.fault_plan(self.topology)?;
        // ACE's SRAM partition weights must follow the plan of the op actually
        // being run — a single-phase all-to-all partitioned by the 4-phase
        // all-reduce heuristic would strand most of the SRAM.
        let mut ex = CollectiveExecutor::new(
            self.topology,
            self.op,
            self.options,
            fault.as_ref(),
            self.engine,
            self.tracer,
        );
        let h = ex.issue(self.op, self.payload_bytes, SimTime::ZERO);
        let completion = ex.run_until_complete(h);
        let cycles = completion.cycles().max(1);
        let per_node_bytes = ex.network().total_bytes() as f64 / self.topology.nodes() as f64;
        let achieved = net_params.freq.gbps(per_node_bytes / cycles as f64);
        // A standalone collective is all communication: the whole wall time is
        // apportioned across the endpoint pipes and the fabric.
        let attribution = Attribution::attribute(
            completion.cycles(),
            0,
            &PipeWeights::from_pipes(ex.pipe_busy_totals(), ex.network().util_busy_total_cycles()),
        );
        let report = CollectiveRunReport {
            completion,
            cycles: completion.cycles() as f64,
            achieved_gbps_per_npu: achieved,
            mem_traffic_bytes: ex.comm_mem_traffic_bytes(),
            network_bytes: ex.network().total_bytes(),
            past_schedules: ex.past_schedules(),
            attribution,
        };
        let simulated = ex.simulated_nodes();
        Ok((report, ex.into_tracer(), simulated))
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
/// the fabric's node count:
///
/// ```
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
/// let program = training_program(SystemConfig::Ace, &spec.instantiate(4), 1, false);
/// let topo: ace_net::TopologySpec = "2x2".parse().unwrap();
/// let report = TrainSpec::new(SystemConfig::Ace, program, topo).run().unwrap();
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

/// Builder for a training run, in either tier: the one way to construct
/// a [`TrainingSim`].
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
/// Lowering examples, including a TOML workload, are on
/// [`training_program`].
#[derive(Debug)]
pub struct TrainSpec<T: Tracer = NullTracer> {
    config: SystemConfig,
    program: Program,
    topology: TopologySpec,
    conditions: RunConditions,
    tracer: T,
}

impl TrainSpec {
    /// A run of `program` on `topology` under `config`, on the paper's
    /// NPU and network, with a pristine fabric and no tracer.
    pub fn new(config: SystemConfig, program: Program, topology: TopologySpec) -> TrainSpec {
        TrainSpec {
            config,
            program,
            topology,
            conditions: RunConditions::default(),
            tracer: NullTracer,
        }
    }
}

impl<T: Tracer> TrainSpec<T> {
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
            conditions: self.conditions,
            tracer,
        }
    }

    /// Builds the exact tier's simulator: the program is validated, the
    /// fault/contention conditions are resolved against the topology up
    /// front (so a disconnected fabric is an error, never a hang), and
    /// the straggler distribution stretches the program's compute tasks.
    ///
    /// # Errors
    ///
    /// [`RunError::InvalidProgram`] when the program fails
    /// [`Program::validate`], and [`RunError::Fault`] when the
    /// conditions cannot run on this topology.
    pub fn build(self) -> Result<TrainingSim<T>, RunError> {
        let (program, fault) = prepare(self.program, &self.conditions, self.topology)?;
        Ok(TrainingSim::new(
            self.config,
            program,
            self.topology,
            fault,
            self.tracer,
        ))
    }

    /// Runs the program in `tier` and returns the report. Both tiers
    /// prepare the program as [`build`](TrainSpec::build) does; the α–β
    /// tier then walks its critical path with α–β collective durations,
    /// taking fabrics from `routes` (the report does not depend on the
    /// memo).
    ///
    /// # Errors
    ///
    /// Same conditions as [`build`](TrainSpec::build), and in the α–β
    /// tier [`RunError::ExactOnly`] for an enabled tracer, which that
    /// tier would otherwise ignore.
    pub fn run_in(self, tier: Tier, routes: &RouteMemo) -> Result<IterationReport, RunError> {
        match tier {
            Tier::Exact => self.run(),
            Tier::Analytic if self.tracer.enabled() => Err(RunError::ExactOnly("a tracer")),
            Tier::Analytic => {
                let (program, fault) = prepare(self.program, &self.conditions, self.topology)?;
                Ok(analytic::training_run(
                    self.config,
                    &program,
                    self.topology,
                    fault.as_ref(),
                    routes,
                ))
            }
        }
    }

    /// Builds and runs in the exact tier, returning the report.
    ///
    /// # Errors
    ///
    /// Same conditions as [`build`](TrainSpec::build).
    pub fn run(self) -> Result<IterationReport, RunError> {
        Ok(self.build()?.run())
    }
}

/// What both tiers run a training program from: the program, validated
/// and stretched by the straggler distribution, and the conditions' fault
/// plan on `topology`.
fn prepare(
    mut program: Program,
    conditions: &RunConditions,
    topology: TopologySpec,
) -> Result<(Program, Option<FaultPlan>), RunError> {
    program.validate().map_err(RunError::InvalidProgram)?;
    program.apply_stragglers(&conditions.straggler);
    Ok((program, conditions.fault_plan(topology)?))
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
    fn engines_outside_the_endpoint_are_run_errors() {
        // Both tiers refuse an engine that fails `EngineKind::validate`
        // before building an endpoint, whose constructors would panic or
        // run on SMs the NPU does not have; the error names the value.
        let baseline = |comm_mem_gbps, comm_sms| EngineKind::Baseline {
            comm_mem_gbps,
            comm_sms,
        };
        let ace = |dma_mem_gbps, sram_mb, fsms| EngineKind::Ace {
            dma_mem_gbps,
            sram_mb,
            fsms,
        };
        let max_sram_mb = u64::MAX >> 20;
        for engine in [
            baseline(900.0, 80),
            baseline(1e-3, 1),
            ace(900.0, max_sram_mb, 1),
        ] {
            engine.validate().unwrap();
        }
        for config in SystemConfig::ALL {
            config.engine().validate().unwrap();
        }
        for (engine, value) in [
            (baseline(1000.0, 6), "HBM share 1000 GB/s"),
            (baseline(450.0, 81), "comm_sms 81"),
            (baseline(0.0, 6), "HBM share 0 GB/s"),
            (baseline(f64::NAN, 6), "HBM share NaN GB/s"),
            (baseline(450.0, 0), "comm_sms 0"),
            (ace(1000.0, 4, 16), "HBM share 1000 GB/s"),
            (ace(128.0, 0, 16), "sram_mb 0"),
            (ace(128.0, max_sram_mb + 1, 16), "sram_mb 17592186044416"),
            (ace(128.0, 4, 0), "fsms 0"),
        ] {
            let exact = RunSpec::new(topo("2x2"), engine, CollectiveOp::AllReduce, MB8)
                .run()
                .unwrap_err();
            let analytic = RunSpec::new(topo("2x2"), engine, CollectiveOp::AllReduce, MB8)
                .run_in(Tier::Analytic, &RouteMemo::new())
                .unwrap_err();
            assert!(matches!(exact, RunError::InvalidEngine(_)), "{exact}");
            assert_eq!(analytic, exact);
            let e = exact.to_string();
            assert!(e.starts_with(&format!("invalid engine {engine}: ")), "{e}");
            assert!(e.contains(value), "{e}");
        }
    }

    #[test]
    fn analytic_runs_refuse_what_only_the_executor_reads() {
        let collective =
            || RunSpec::new(topo("2x2"), EngineKind::Ideal, CollectiveOp::AllReduce, MB8);
        let fifo = ExecutorOptions {
            scheduling: crate::SchedulingPolicy::Fifo,
            ..ExecutorOptions::default()
        };
        let routes = RouteMemo::new();
        let program = training_program(SystemConfig::Ace, &Workload::resnet50(), 1, false);
        let training = || TrainSpec::new(SystemConfig::Ace, program.clone(), topo("2x2"));
        let refused = [
            (
                collective()
                    .options(fifo)
                    .run_in(Tier::Analytic, &routes)
                    .err(),
                "executor options",
            ),
            (
                collective().traced().run_in(Tier::Analytic, &routes).err(),
                "a tracer",
            ),
            (
                training()
                    .tracer(RecordingTracer::new())
                    .run_in(Tier::Analytic, &routes)
                    .err(),
                "a tracer",
            ),
        ];
        for (err, input) in refused {
            assert_eq!(err, Some(RunError::ExactOnly(input)));
            let e = err.unwrap().to_string();
            assert!(
                e.starts_with(&format!("the α–β tier cannot honour {input}")),
                "{e}"
            );
        }
        // The executor reads them, and the defaults are no reason to refuse.
        collective()
            .options(fifo)
            .run_in(Tier::Exact, &routes)
            .unwrap();
        collective().traced().run_in(Tier::Exact, &routes).unwrap();
        collective()
            .options(ExecutorOptions::default())
            .run_in(Tier::Analytic, &routes)
            .unwrap();
        training()
            .tracer(NullTracer)
            .run_in(Tier::Analytic, &routes)
            .unwrap();
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
