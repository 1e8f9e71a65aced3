//! The training-loop simulator: a generic task-graph scheduler.
//!
//! [`TrainingSim`] executes any acyclic [`Program`] against the
//! [`CollectiveExecutor`]: it walks the program's schedule (a topological
//! linearization of the dependency DAG), advancing one serial NPU compute
//! timeline. Compute and barrier tasks block on the collectives among
//! their dependencies — every cycle the timeline spends stalled on a
//! collective is **exposed communication** — and collective tasks are
//! issued non-blocking at the current instant (the executor drains them
//! LIFO, Section V).
//!
//! The paper's two-iteration training loop is no longer hard-coded here:
//! [`Program::lower`] compiles `(workload, parallelism, iterations)` into
//! the graph — forward passes blocking per layer on the previous
//! iteration's weight-gradient all-reduce, backward passes emitting one
//! collective per layer, DLRM's blocking all-to-alls — and the Fig. 12
//! optimized embedding loop is the [`Program::optimize_embedding`] graph
//! transform.

use ace_collectives::CollectiveOp;
use ace_compute::{KernelDesc, NpuParams};
use ace_endpoint::CollectiveEngine;
use ace_net::{FaultPlan, NetworkParams, TopologySpec};
use ace_simcore::{SimTime, TimeSeries};
use ace_trace::{Attribution, NullTracer, PipeWeights, Tracer, Track};
use ace_workloads::{Parallelism, Program, TaskId, TaskKind, TaskPhase};

use crate::config::SystemConfig;
use crate::executor::{CollHandle, CollectiveExecutor, ExecutorOptions};
use crate::report::IterationReport;

/// Trace lane for the serial compute timeline's task spans (pid 0 is the
/// scheduler/sim process; tid 0 is the executor's event lane).
const TIMELINE_TRACK: Track = Track { pid: 0, tid: 1 };

/// Simulates a training [`Program`] on one system configuration.
///
/// Built by [`TrainSpec`](crate::TrainSpec). Generic over the [`Tracer`]
/// like the executor it drives: the default [`NullTracer`] compiles every
/// task-span hook away, while [`TrainSpec::tracer`](crate::TrainSpec::tracer)
/// attaches a recording tracer shared with the collective executor.
pub struct TrainingSim<T: Tracer = NullTracer> {
    config: SystemConfig,
    program: Program,
    spec: TopologySpec,
    npu: NpuParams,
    net_params: NetworkParams,
    exec: CollectiveExecutor<Box<dyn CollectiveEngine>, T>,
    // running state
    t: SimTime,
    compute_busy: u64,
    exposed: u64,
    compute_series: TimeSeries,
}

impl<T: Tracer> std::fmt::Debug for TrainingSim<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainingSim")
            .field("config", &self.config)
            .field("program", &self.program.name())
            .field("topology", &self.spec)
            .finish()
    }
}

impl<T: Tracer> TrainingSim<T> {
    /// Assembles the simulator; [`TrainSpec::build`] validates the
    /// program and resolves the run conditions into `fault` first.
    ///
    /// [`TrainSpec::build`]: crate::TrainSpec::build
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        config: SystemConfig,
        program: Program,
        spec: TopologySpec,
        npu: NpuParams,
        net_params: NetworkParams,
        options: ExecutorOptions,
        fault: Option<FaultPlan>,
        tracer: T,
    ) -> TrainingSim<T> {
        let plan = ace_collectives::CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
        let weights = CollectiveExecutor::phase_weights(&plan, &net_params);
        // Without all-to-all every node runs the same schedule, so the
        // executor may simulate one representative node.
        let ring_only = program.iter_scheduled().all(|(_, task)| {
            !matches!(
                task.kind(),
                TaskKind::Collective {
                    op: CollectiveOp::AllToAll,
                    ..
                }
            )
        });
        let mut exec = CollectiveExecutor::build(
            spec,
            net_params,
            options,
            fault.as_ref(),
            move || config.make_engine(&weights),
            tracer,
            ring_only,
        );
        if exec.tracer().enabled() {
            exec.tracer_mut().meta_thread(TIMELINE_TRACK, "timeline");
        }
        TrainingSim {
            config,
            program,
            spec,
            npu,
            net_params,
            exec,
            t: SimTime::ZERO,
            compute_busy: 0,
            exposed: 0,
            compute_series: TimeSeries::new(1000),
        }
    }

    /// The program about to run.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of NPUs the executor simulates (1 in its one-node form).
    #[cfg(test)]
    pub(crate) fn simulated_nodes(&self) -> usize {
        self.exec.simulated_nodes()
    }

    /// Executes the program's schedule and produces the report.
    pub fn run(self) -> IterationReport {
        self.run_with_tracer().0
    }

    /// Executes the schedule and returns the report together with the
    /// tracer (export the recorded events after the run).
    pub fn run_with_tracer(mut self) -> (IterationReport, T) {
        if self.program.timelines() > 1 {
            return self.run_pipeline_with_tracer();
        }
        let mut handles: Vec<Option<CollHandle>> = vec![None; self.program.task_slots()];
        // Fig. 9b forward/backward split: one (ace-busy, window) pair per
        // contiguous run of forward-phase timeline tasks.
        let mut fwd_busy_windows: Vec<(u64, u64)> = Vec::new();
        let mut fwd_cycles_total: u64 = 0;
        let mut window: Option<(SimTime, u64)> = None; // (start, busy at start)

        let schedule: Vec<TaskId> = self.program.schedule().to_vec();
        for id in schedule {
            let task = self.program.task(id);
            match task.kind() {
                TaskKind::Collective { op, bytes } => {
                    // Non-blocking issue at the current timeline instant;
                    // schedule order fixes the executor's LIFO priority.
                    handles[id.index()] = Some(self.exec.issue(*op, *bytes, self.t));
                    if self.exec.tracer().enabled() {
                        let name = format!("issue:{}:i{}", task.role().short_name(), task.iter());
                        let at = self.t;
                        self.exec.tracer_mut().instant(TIMELINE_TRACK, &name, at);
                    }
                }
                TaskKind::Compute(_) | TaskKind::Barrier => {
                    let (t_begin, span_phase, span_role, span_iter) =
                        (self.t, task.phase(), task.role(), task.iter());
                    // Forward-window bookkeeping keys on timeline tasks
                    // only: a collective issued for the *next* iteration
                    // during this backward pass must not open a window.
                    match task.phase() {
                        TaskPhase::Forward => {
                            if window.is_none() {
                                window = Some((self.t, self.ace_busy_cycles()));
                            }
                        }
                        TaskPhase::Backward => {
                            if let Some((start, busy_start)) = window.take() {
                                fwd_busy_windows.push((
                                    self.ace_busy_cycles().saturating_sub(busy_start),
                                    self.t - start,
                                ));
                                fwd_cycles_total += self.t - start;
                            }
                        }
                    }
                    // Block on the collective dependencies, in order.
                    let waits: Vec<CollHandle> = task
                        .deps()
                        .iter()
                        .filter_map(|dep| handles[dep.index()])
                        .collect();
                    let kernel = match task.kind() {
                        TaskKind::Compute(k) => Some(k.clone()),
                        _ => None,
                    };
                    for h in waits {
                        self.wait_on(h);
                    }
                    if let Some(kernel) = kernel {
                        self.run_kernel(&kernel);
                    }
                    // Task span covers the wait (exposed comm) plus the
                    // kernel itself — the timeline's full occupancy.
                    if self.exec.tracer().enabled() {
                        let name = format!(
                            "task:{}:{}:i{}",
                            span_phase.short_name(),
                            span_role.short_name(),
                            span_iter
                        );
                        let end = self.t;
                        self.exec
                            .tracer_mut()
                            .span(TIMELINE_TRACK, &name, t_begin, end);
                    }
                }
            }
        }
        if let Some((start, busy_start)) = window.take() {
            // A program ending mid-forward still closes its window.
            fwd_busy_windows.push((
                self.ace_busy_cycles().saturating_sub(busy_start),
                self.t - start,
            ));
            fwd_cycles_total += self.t - start;
        }

        // Drain the outstanding collectives: the next forward pass could
        // not start before they finish, so the stall is exposed
        // communication.
        let idle = self.exec.run_to_idle();
        if idle > self.t {
            self.exposed += idle - self.t;
            self.t = idle;
        }

        // Fig. 9b: ACE utilization split into fwd and bwd windows, from the
        // engine's exact integer busy-cycle counters — reconstructing the
        // cycle count from the f64 utilization ratio loses precision, and
        // clamping the per-window ratios at 1.0 would mask over-unity
        // accounting bugs instead of surfacing them.
        let total = self.t;
        let ace_busy_cycles = self.exec.ace_busy_cycles(total);
        let (ace_util_fwd, ace_util_bwd) = match ace_busy_cycles {
            Some(busy_total) => {
                let fwd_busy: u64 = fwd_busy_windows.iter().map(|(b, _)| *b).sum();
                debug_assert!(
                    fwd_busy <= busy_total,
                    "forward-window busy cycles ({fwd_busy}) exceed the engine total \
                     ({busy_total})"
                );
                let bwd_busy = busy_total.saturating_sub(fwd_busy);
                let bwd_cycles = total.cycles().saturating_sub(fwd_cycles_total);
                let f = if fwd_cycles_total == 0 {
                    0.0
                } else {
                    fwd_busy as f64 / fwd_cycles_total as f64
                };
                let b = if bwd_cycles == 0 {
                    0.0
                } else {
                    bwd_busy as f64 / bwd_cycles as f64
                };
                (Some(f), Some(b))
            }
            None => (None, None),
        };

        // Bottleneck attribution: the communication share (exposed comm,
        // by the exact total = compute + exposed identity) is apportioned
        // across the endpoint pipes and the fabric by their busy cycles.
        let attribution = Attribution::attribute(
            self.t.cycles(),
            self.compute_busy,
            &PipeWeights::from_pipes(
                self.exec.pipe_busy_totals(),
                self.exec.network().util_busy_total_cycles(),
            ),
        );

        let network_series = self.exec.network().utilization_series();
        let report = IterationReport {
            workload: self.program.name().to_string(),
            config: self.config.short_name().to_string(),
            nodes: self.spec.nodes(),
            freq: self.net_params.freq,
            iterations: self.program.iterations(),
            total_cycles: self.t.cycles(),
            compute_cycles: self.compute_busy,
            exposed_comm_cycles: self.exposed,
            compute_series: self.compute_series.bucket_means(),
            network_series,
            ace_util_fwd,
            ace_util_bwd,
            ace_busy_cycles,
            comm_mem_traffic_bytes: self.exec.comm_mem_traffic_bytes(),
            network_bytes: self.exec.network().total_bytes(),
            past_schedules: self.exec.past_schedules(),
            attribution,
        };
        (report, self.exec.into_tracer())
    }

    /// Executes a multi-timeline (pipeline-parallel) program: one
    /// compute frontier per stage, cross-timeline dependencies becoming
    /// real waits (pipeline bubbles), collectives issued at their
    /// stage's frontier against the shared fabric.
    ///
    /// Reported `compute_cycles` is the *per-stage mean* kernel time
    /// (total kernel cycles / stages) and `exposed_comm_cycles` the
    /// remainder, preserving the exact `total = compute + exposed`
    /// identity — the exposed fraction of a communication-free uniform
    /// GPipe pipeline is then the textbook bubble fraction
    /// `(S-1)/(M+S-1)`. The Fig. 9b forward/backward ACE-utilization
    /// split is not defined for concurrent stages and reports `None`.
    fn run_pipeline_with_tracer(mut self) -> (IterationReport, T) {
        let stages = self.program.timelines();
        let mut handles: Vec<Option<CollHandle>> = vec![None; self.program.task_slots()];
        let mut finish: Vec<SimTime> = vec![SimTime::ZERO; self.program.task_slots()];
        let mut tls: Vec<SimTime> = vec![SimTime::ZERO; stages];
        let mut kernel_total: u64 = 0;

        if self.exec.tracer().enabled() {
            for k in 0..stages {
                let track = Track {
                    pid: 0,
                    tid: 1 + k as u32,
                };
                self.exec
                    .tracer_mut()
                    .meta_thread(track, &format!("stage{k}"));
            }
        }

        let schedule: Vec<TaskId> = self.program.schedule().to_vec();
        for id in schedule {
            let task = self.program.task(id);
            let k = task.timeline();
            match task.kind() {
                TaskKind::Collective { op, bytes } => {
                    // Issued at the stage's frontier; the executor clamps
                    // injection to its own clock (the shared event queue
                    // may already have advanced past it).
                    handles[id.index()] = Some(self.exec.issue(*op, *bytes, tls[k]));
                }
                TaskKind::Compute(_) | TaskKind::Barrier => {
                    let t_begin = tls[k];
                    for &dep in task.deps() {
                        match handles[dep.index()] {
                            Some(h) => {
                                // Stage-boundary transfer: the stall is a
                                // pipeline bubble on this stage.
                                let tc = self.exec.run_until_complete(h);
                                if tc > tls[k] {
                                    tls[k] = tc;
                                }
                            }
                            None => {
                                // Cross-timeline compute dependency
                                // (zero-byte boundary) or serialization
                                // edge — wait for its finish time.
                                if finish[dep.index()] > tls[k] {
                                    tls[k] = finish[dep.index()];
                                }
                            }
                        }
                    }
                    if let TaskKind::Compute(kernel) = task.kind() {
                        let (sms, mem) = match self.program.carveout() {
                            Some(c) => (
                                self.config.compute_sms().saturating_sub(c.sms).max(1),
                                (self.config.compute_mem_gbps() - c.mem_gbps).max(1.0),
                            ),
                            None => (self.config.compute_sms(), self.config.compute_mem_gbps()),
                        };
                        let cycles = self.npu.kernel_cycles(kernel, sms, mem);
                        if cycles > 0 {
                            let start = tls[k];
                            let end = start + cycles;
                            self.compute_series.add_interval(start, end, cycles as f64);
                            kernel_total += cycles;
                            tls[k] = end;
                            // Keep the network draining up to the newest
                            // frontier (no-op when already past it).
                            self.exec.run_until(end);
                        }
                    }
                    finish[id.index()] = tls[k];
                    if self.exec.tracer().enabled() {
                        let name = format!(
                            "task:{}:{}:i{}",
                            task.phase().short_name(),
                            task.role().short_name(),
                            task.iter()
                        );
                        let end = tls[k];
                        let track = Track {
                            pid: 0,
                            tid: 1 + k as u32,
                        };
                        self.exec.tracer_mut().span(track, &name, t_begin, end);
                    }
                }
            }
        }

        // Drain outstanding transfers; the end-to-end time is the slowest
        // stage or the fabric, whichever finishes last.
        let idle = self.exec.run_to_idle();
        let mut end = tls.iter().copied().fold(SimTime::ZERO, SimTime::max);
        if idle > end {
            end = idle;
        }
        self.t = end;
        // Per-stage mean accounting (see doc comment above).
        self.compute_busy = kernel_total / stages as u64;
        self.exposed = self.t.cycles().saturating_sub(self.compute_busy);

        let attribution = Attribution::attribute(
            self.t.cycles(),
            self.compute_busy,
            &PipeWeights::from_pipes(
                self.exec.pipe_busy_totals(),
                self.exec.network().util_busy_total_cycles(),
            ),
        );
        let network_series = self.exec.network().utilization_series();
        let report = IterationReport {
            workload: self.program.name().to_string(),
            config: self.config.short_name().to_string(),
            nodes: self.spec.nodes(),
            freq: self.net_params.freq,
            iterations: self.program.iterations(),
            total_cycles: self.t.cycles(),
            compute_cycles: self.compute_busy,
            exposed_comm_cycles: self.exposed,
            compute_series: self.compute_series.bucket_means(),
            network_series,
            ace_util_fwd: None,
            ace_util_bwd: None,
            ace_busy_cycles: self.exec.ace_busy_cycles(self.t),
            comm_mem_traffic_bytes: self.exec.comm_mem_traffic_bytes(),
            network_bytes: self.exec.network().total_bytes(),
            past_schedules: self.exec.past_schedules(),
            attribution,
        };
        (report, self.exec.into_tracer())
    }

    /// Advances the compute timeline by one kernel.
    ///
    /// A program carve-out (the optimized DLRM loop permanently loans
    /// 1 SM and 80 GB/s of HBM to the background embedding pipeline,
    /// Section VI-D) reduces the resources every training kernel sees.
    fn run_kernel(&mut self, kernel: &KernelDesc) {
        let (sms, mem) = match self.program.carveout() {
            Some(c) => (
                self.config.compute_sms().saturating_sub(c.sms).max(1),
                (self.config.compute_mem_gbps() - c.mem_gbps).max(1.0),
            ),
            None => (self.config.compute_sms(), self.config.compute_mem_gbps()),
        };
        let cycles = self.npu.kernel_cycles(kernel, sms, mem);
        if cycles == 0 {
            return;
        }
        let start = self.t;
        let end = self.t + cycles;
        self.compute_series.add_interval(start, end, cycles as f64);
        self.compute_busy += cycles;
        self.t = end;
        self.exec.run_until(self.t);
    }

    /// Blocks the compute timeline on a collective; the stall is exposed
    /// communication.
    fn wait_on(&mut self, h: CollHandle) {
        let tc = self.exec.run_until_complete(h);
        if tc > self.t {
            self.exposed += tc - self.t;
            self.t = tc;
        }
    }

    /// ACE cumulative busy cycles at the current frontier (0 for
    /// non-ACE engines) — the exact integer counter, not a value
    /// reconstructed from the utilization ratio.
    fn ace_busy_cycles(&self) -> u64 {
        self.exec.ace_busy_cycles(self.t).unwrap_or(0)
    }

    /// Whether the program trains hybrid-parallel (DLRM).
    pub fn is_hybrid(&self) -> bool {
        self.program.parallelism() == Parallelism::Hybrid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{training_program, TrainSpec};
    use ace_net::TopologySpec;
    use ace_workloads::{Layer, LayerComm, LoweringOptions, TaskRole, Workload};

    /// Builds the simulator for `workload` lowered under `config`.
    fn sim(
        config: SystemConfig,
        workload: Workload,
        shape: TopologySpec,
        iterations: u32,
        optimized_embedding: bool,
    ) -> TrainingSim {
        let program = training_program(config, &workload, iterations, optimized_embedding);
        TrainSpec::new(config, program, shape).build().unwrap()
    }

    /// A hand-computable workload: one layer = two kernel groups (the
    /// forward kernel and the backward ig/wg pair) plus one backward
    /// all-reduce.
    fn two_kernel_workload() -> Workload {
        let fwd = KernelDesc::new("k.fwd", 1.0e9, 64.0e6);
        let ig = KernelDesc::new("k.ig", 1.0e9, 64.0e6);
        let wg = KernelDesc::new("k.wg", 1.0e9, 64.0e6);
        let comm = LayerComm {
            op: CollectiveOp::AllReduce,
            bytes: 8 << 20,
        };
        Workload::data_parallel(
            "two-kernel",
            vec![Layer::new("k", fwd, ig, wg, Some(comm))],
            1,
        )
    }

    #[test]
    fn ace_busy_split_is_exact() {
        let shape = TopologySpec::torus3(4, 2, 2).unwrap();
        let config = SystemConfig::Ace;
        let report = sim(config, two_kernel_workload(), shape, 1, false).run();

        // The collective is issued during back-propagation and drains
        // after it, so the forward window holds zero engine-busy cycles
        // and the whole exact counter lands in the backward split.
        let busy = report
            .ace_busy_cycles()
            .expect("ACE reports exact busy cycles");
        assert!(busy > 0, "the all-reduce must occupy the engine");
        assert!(busy <= report.total_cycles());
        assert_eq!(report.ace_util_fwd(), Some(0.0));

        // Reconstruct the forward window from the same kernel model the
        // simulator uses: one iteration = exactly the forward kernel.
        let npu = NpuParams::paper_default();
        let fwd_cycles = npu.kernel_cycles(
            &KernelDesc::new("k.fwd", 1.0e9, 64.0e6),
            config.compute_sms(),
            config.compute_mem_gbps(),
        );
        let bwd_cycles = report.total_cycles() - fwd_cycles;
        // Exact identity — no f64 round-trip, no clamping.
        assert_eq!(
            report.ace_util_bwd(),
            Some(busy as f64 / bwd_cycles as f64),
            "backward utilization must derive from the exact counter"
        );
    }

    #[test]
    fn non_ace_configs_report_no_busy_counter() {
        let shape = TopologySpec::torus3(2, 1, 1).unwrap();
        let report = sim(
            SystemConfig::BaselineCommOpt,
            two_kernel_workload(),
            shape,
            1,
            false,
        )
        .run();
        assert_eq!(report.ace_busy_cycles(), None);
        assert_eq!(report.ace_util_fwd(), None);
        assert_eq!(report.ace_util_bwd(), None);
        assert_eq!(report.past_schedules(), 0);
    }

    #[test]
    fn exposed_comm_equals_scheduler_stall_by_construction() {
        // The timeline only advances through kernels (compute) and waits
        // (exposed), so the identity holds exactly for any program.
        for config in SystemConfig::ALL {
            let shape = TopologySpec::torus3(2, 2, 1).unwrap();
            let report = sim(config, two_kernel_workload(), shape, 2, false).run();
            assert_eq!(
                report.total_cycles(),
                report.compute_cycles() + report.exposed_comm_cycles(),
                "{config}"
            );
        }
    }

    #[test]
    fn attribution_conserves_for_training_runs() {
        for config in SystemConfig::ALL {
            let shape = TopologySpec::torus3(2, 2, 1).unwrap();
            let report = sim(config, two_kernel_workload(), shape, 2, false).run();
            let a = report.attribution();
            assert!(a.conserves(), "{config}: {a:?}");
            assert_eq!(a.total_cycles, report.total_cycles(), "{config}");
            assert_eq!(a.compute_cycles, report.compute_cycles(), "{config}");
        }
    }

    #[test]
    fn traced_training_records_task_spans() {
        let w = two_kernel_workload();
        let opts = LoweringOptions {
            iterations: 1,
            overlap: SystemConfig::Ace.overlaps(),
        };
        let program = Program::lower(&w, w.parallelism(), &opts);
        let shape = TopologySpec::torus3(2, 2, 1).unwrap();
        let (report, tr) = TrainSpec::new(SystemConfig::Ace, program, shape)
            .tracer(ace_trace::RecordingTracer::new())
            .build()
            .unwrap()
            .run_with_tracer();
        assert!(report.total_cycles() > 0);
        assert!(tr.count_with_prefix("task:") > 0, "timeline task spans");
        assert!(tr.count_with_prefix("issue:") > 0, "collective issue marks");
        assert!(tr.span_cycles_with_prefix("link:") > 0, "link busy spans");
    }

    #[test]
    fn custom_program_runs_end_to_end() {
        use ace_workloads::TaskPhase;
        let mut p = Program::new("hand-rolled", Parallelism::Data, 1);
        let k = KernelDesc::new("k", 2.0e9, 1.0e8);
        let c = p.add_compute(k.clone(), TaskPhase::Forward, 0, vec![]);
        let ar = p.add_collective(
            CollectiveOp::AllReduce,
            4 << 20,
            TaskPhase::Backward,
            0,
            vec![c],
        );
        let c2 = p.add_compute(k, TaskPhase::Backward, 0, vec![]);
        let _sync = p.add_barrier(TaskPhase::Backward, 0, vec![ar]);
        let _ = c2;
        p.validate().unwrap();
        let shape = TopologySpec::torus3(2, 2, 1).unwrap();
        let report = TrainSpec::new(SystemConfig::Ace, p, shape).run().unwrap();
        assert_eq!(report.workload(), "hand-rolled");
        assert!(report.total_cycles() > 0);
        assert_eq!(
            report.total_cycles(),
            report.compute_cycles() + report.exposed_comm_cycles()
        );
    }

    #[test]
    fn model_parallelism_exposes_more_communication_than_data() {
        // Tensor-parallel collectives sit on the critical path in both
        // passes, so their exposed share must exceed data parallelism's
        // on the same layer table.
        let shape = TopologySpec::torus3(4, 2, 2).unwrap();
        let w = Workload::transformer_lm();
        let data = sim(SystemConfig::Ace, w.clone(), shape, 2, false).run();
        let model = sim(
            SystemConfig::Ace,
            w.with_parallelism(Parallelism::Model).unwrap(),
            shape,
            2,
            false,
        )
        .run();
        assert!(
            model.exposed_fraction() > data.exposed_fraction(),
            "model {} vs data {}",
            model.exposed_fraction(),
            data.exposed_fraction()
        );
    }

    #[test]
    fn pipeline_programs_execute_on_all_topology_families() {
        use ace_workloads::PipeSchedule;
        let layers: Vec<Layer> = (0..4)
            .map(|i| {
                Layer::from_fwd(
                    format!("l{i}"),
                    1.0e9,
                    6.4e7,
                    Some(LayerComm {
                        op: CollectiveOp::AllReduce,
                        bytes: 4 << 20,
                    }),
                )
            })
            .collect();
        let w = Workload::data_parallel("pipe4", layers, 1);
        for spec in [
            "torus:4x4x4".parse::<TopologySpec>().unwrap(),
            "switch:64".parse::<TopologySpec>().unwrap(),
            "hier:8x8".parse::<TopologySpec>().unwrap(),
        ] {
            for schedule in [PipeSchedule::GPipe, PipeSchedule::OneFOneB] {
                let par = Parallelism::Pipeline {
                    stages: 4,
                    microbatches: 4,
                    schedule,
                };
                let program = Program::lower(
                    &w,
                    par,
                    &LoweringOptions {
                        iterations: 1,
                        overlap: true,
                    },
                );
                program.validate().unwrap();
                let report = TrainSpec::new(SystemConfig::Ace, program, spec)
                    .run()
                    .unwrap();
                assert!(report.total_cycles() > 0, "{spec:?}");
                assert_eq!(
                    report.total_cycles(),
                    report.compute_cycles() + report.exposed_comm_cycles(),
                    "{spec:?}: the identity holds for pipeline runs too"
                );
                assert!(
                    report.network_bytes() > 0,
                    "{spec:?}: boundary transfers must reach the fabric"
                );
            }
        }
    }

    #[test]
    fn lowered_program_is_visible_and_tagged() {
        let shape = TopologySpec::torus3(2, 1, 1).unwrap();
        let dlrm = sim(SystemConfig::Ace, Workload::dlrm(2), shape, 2, true);
        let p = dlrm.program();
        p.validate().unwrap();
        assert!(p.carveout().is_some(), "optimized loop loans resources");
        assert_eq!(
            p.task(p.schedule()[0]).role(),
            TaskRole::EmbeddingFwdA2a,
            "iteration 0's exchange is in flight at t = 0"
        );
        assert!(dlrm.is_hybrid());
    }
}
