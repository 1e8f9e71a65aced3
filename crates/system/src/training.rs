//! The training-loop simulator: a generic task-graph scheduler.
//!
//! [`TrainingSim`] executes any acyclic [`Program`] against the
//! [`CollectiveExecutor`]: it walks the program's schedule (a topological
//! linearization of the dependency DAG) once, keeping one compute
//! frontier per timeline — one for a single NPU, one per stage for a
//! pipeline lowering. A collective is issued non-blocking at its
//! timeline's frontier (the executor drains collectives LIFO, Section V).
//! A compute or barrier task first waits on its dependencies in order —
//! a collective until the executor completes it, any other task until
//! its recorded finish — then runs its kernel. Every cycle a frontier
//! spends waiting is **exposed communication** (or a pipeline bubble).
//!
//! The paper's two-iteration training loop is no longer hard-coded here:
//! [`Program::lower`] compiles `(workload, parallelism, iterations)` into
//! the graph — forward passes blocking per layer on the previous
//! iteration's weight-gradient all-reduce, backward passes emitting one
//! collective per layer, DLRM's blocking all-to-alls — and the Fig. 12
//! optimized embedding loop is the [`Program::optimize_embedding`] graph
//! transform.

use ace_collectives::CollectiveOp;
use ace_compute::NpuParams;
use ace_net::{FaultPlan, TopologySpec, UTIL_BUCKET_CYCLES};
use ace_simcore::{SimTime, TimeSeries};
use ace_trace::{Attribution, NullTracer, PipeWeights, Tracer, Track};
use ace_workloads::{Program, TaskKind, TaskPhase};

use crate::config::SystemConfig;
use crate::executor::{CollHandle, CollectiveExecutor, ExecutorOptions};
use crate::report::IterationReport;

/// Trace lane of timeline `k`'s task spans and issue marks (pid 0 is the
/// scheduler/sim process; tid 0 is the executor's event lane).
fn timeline_track(k: usize) -> Track {
    Track {
        pid: 0,
        tid: 1 + k as u32,
    }
}

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
    exec: CollectiveExecutor<T>,
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
    /// Assembles the simulator on the paper's NPU and network;
    /// [`TrainSpec::build`] validates the program and resolves the run
    /// conditions into `fault` first.
    ///
    /// [`TrainSpec::build`]: crate::TrainSpec::build
    pub(crate) fn new(
        config: SystemConfig,
        program: Program,
        spec: TopologySpec,
        fault: Option<FaultPlan>,
        tracer: T,
    ) -> TrainingSim<T> {
        let mut exec = CollectiveExecutor::new(
            spec,
            CollectiveOp::AllReduce,
            ExecutorOptions::default(),
            fault.as_ref(),
            config.engine(),
            tracer,
        );
        if exec.tracer().enabled() {
            // One lane per timeline: `timeline` for a single NPU, and
            // `stage{k}` for each stage of a pipeline.
            let timelines = program.timelines();
            for k in 0..timelines {
                let name = if timelines == 1 {
                    "timeline".to_string()
                } else {
                    format!("stage{k}")
                };
                exec.tracer_mut().meta_thread(timeline_track(k), &name);
            }
        }
        TrainingSim {
            config,
            program,
            spec,
            exec,
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
    ///
    /// Reported `compute_cycles` is the per-timeline mean kernel time
    /// (total kernel cycles / timelines) and `exposed_comm_cycles` the
    /// remainder of the end-to-end time, so `total = compute + exposed`
    /// holds exactly. With one timeline that is the kernel sum and the
    /// sum of every stall; for a communication-free uniform GPipe
    /// pipeline the exposed fraction is the textbook bubble fraction
    /// `(S-1)/(M+S-1)`. The Fig. 9b forward/backward ACE-utilization
    /// split is defined for one timeline only; concurrent stages report
    /// `None`.
    pub fn run_with_tracer(mut self) -> (IterationReport, T) {
        let timelines = self.program.timelines();
        let slots = self.program.task_slots();
        let mut handles: Vec<Option<CollHandle>> = vec![None; slots];
        let mut finish: Vec<SimTime> = vec![SimTime::ZERO; slots];
        let mut frontier: Vec<SimTime> = vec![SimTime::ZERO; timelines];
        let mut kernel_cycles: u64 = 0;
        let npu = NpuParams::paper_default();
        let mut compute_series = TimeSeries::new(UTIL_BUCKET_CYCLES);
        // A program carve-out (the optimized DLRM loop permanently loans
        // 1 SM and 80 GB/s of HBM to the background embedding pipeline,
        // Section VI-D) reduces the resources every training kernel sees.
        let (sms, mem_gbps) = self.config.kernel_resources(self.program.carveout());
        // Fig. 9b forward/backward split: engine-busy cycles and length of
        // each contiguous run of forward-phase timeline tasks, summed.
        let split = timelines == 1;
        let (mut fwd_busy, mut fwd_cycles) = (0u64, 0u64);
        let mut window: Option<(SimTime, u64)> = None; // (start, busy at start)

        for &id in self.program.schedule() {
            let task = self.program.task(id);
            let k = task.timeline();
            let track = timeline_track(k);
            match task.kind() {
                TaskKind::Collective { op, bytes } => {
                    // Non-blocking issue at the timeline's frontier;
                    // schedule order fixes the executor's LIFO priority.
                    // The executor clamps injection to its own clock,
                    // which another stage may already have advanced.
                    handles[id.index()] = Some(self.exec.issue(*op, *bytes, frontier[k]));
                    if self.exec.tracer().enabled() {
                        let name = format!("issue:{}:i{}", task.role().short_name(), task.iter());
                        self.exec.tracer_mut().instant(track, &name, frontier[k]);
                    }
                }
                TaskKind::Compute(_) | TaskKind::Barrier => {
                    let begin = frontier[k];
                    // Forward-window bookkeeping keys on timeline tasks
                    // only: a collective issued for the *next* iteration
                    // during this backward pass must not open a window.
                    // The exact integer busy counter is read, never a
                    // cycle count rebuilt from the utilization ratio.
                    if split {
                        let busy = || self.exec.ace_busy_cycles(begin).unwrap_or(0);
                        match (task.phase(), window) {
                            (TaskPhase::Forward, None) => window = Some((begin, busy())),
                            (TaskPhase::Backward, Some((start, busy_start))) => {
                                fwd_busy += busy().saturating_sub(busy_start);
                                fwd_cycles += begin - start;
                                window = None;
                            }
                            _ => {}
                        }
                    }
                    // Wait on the dependencies in order: a collective
                    // (exposed communication, or a stage-boundary
                    // transfer) until it completes, a compute or barrier
                    // task (a serialization edge, or a cross-timeline
                    // dependency) until its finish.
                    for &dep in task.deps() {
                        let done = match handles[dep.index()] {
                            Some(h) => self.exec.run_until_complete(h),
                            None => finish[dep.index()],
                        };
                        frontier[k] = frontier[k].max(done);
                    }
                    if let TaskKind::Compute(kernel) = task.kind() {
                        let cycles = npu.kernel_cycles(kernel, sms, mem_gbps);
                        if cycles > 0 {
                            let end = frontier[k] + cycles;
                            compute_series.add_interval(frontier[k], end, cycles as f64);
                            kernel_cycles += cycles;
                            frontier[k] = end;
                            // Keep the network draining up to the newest
                            // frontier (no-op when already past it).
                            self.exec.run_until(end);
                        }
                    }
                    finish[id.index()] = frontier[k];
                    // The task span covers the wait plus the kernel
                    // itself — the timeline's full occupancy.
                    if self.exec.tracer().enabled() {
                        let name = format!(
                            "task:{}:{}:i{}",
                            task.phase().short_name(),
                            task.role().short_name(),
                            task.iter()
                        );
                        self.exec
                            .tracer_mut()
                            .span(track, &name, begin, frontier[k]);
                    }
                }
            }
        }
        if let Some((start, busy_start)) = window.take() {
            // A program ending mid-forward still closes its window.
            let busy = self.exec.ace_busy_cycles(frontier[0]).unwrap_or(0);
            fwd_busy += busy.saturating_sub(busy_start);
            fwd_cycles += frontier[0] - start;
        }

        // Drain the outstanding collectives: the next iteration could not
        // start before they finish, so the tail is exposed communication.
        // The end-to-end time is the slowest timeline or the fabric,
        // whichever finishes last.
        let idle = self.exec.run_to_idle();
        let total = frontier.iter().copied().fold(idle, SimTime::max);
        let compute = kernel_cycles / timelines as u64;
        let exposed = total.cycles().saturating_sub(compute);

        // Fig. 9b: ACE utilization split into fwd and bwd windows, from the
        // engine's exact integer busy-cycle counters. Clamping the
        // per-window ratios at 1.0 would mask over-unity accounting bugs
        // instead of surfacing them.
        let ace_busy_cycles = self.exec.ace_busy_cycles(total);
        let (ace_util_fwd, ace_util_bwd) = match ace_busy_cycles {
            Some(busy_total) if split => {
                debug_assert!(
                    fwd_busy <= busy_total,
                    "forward-window busy cycles ({fwd_busy}) exceed the engine total \
                     ({busy_total})"
                );
                let bwd_busy = busy_total.saturating_sub(fwd_busy);
                let bwd_cycles = total.cycles().saturating_sub(fwd_cycles);
                let ratio = |busy: u64, cycles: u64| {
                    if cycles == 0 {
                        0.0
                    } else {
                        busy as f64 / cycles as f64
                    }
                };
                (
                    Some(ratio(fwd_busy, fwd_cycles)),
                    Some(ratio(bwd_busy, bwd_cycles)),
                )
            }
            _ => (None, None),
        };

        // Bottleneck attribution: the communication share (exposed comm,
        // by the exact total = compute + exposed identity) is apportioned
        // across the endpoint pipes and the fabric by their busy cycles.
        let attribution = Attribution::attribute(
            total.cycles(),
            compute,
            &PipeWeights::from_pipes(
                self.exec.pipe_busy_totals(),
                self.exec.network().util_busy_total_cycles(),
            ),
        );

        let report = IterationReport {
            workload: self.program.name().to_string(),
            config: self.config.short_name().to_string(),
            nodes: self.spec.nodes(),
            freq: npu.freq,
            iterations: self.program.iterations(),
            total_cycles: total.cycles(),
            compute_cycles: compute,
            exposed_comm_cycles: exposed,
            compute_series: compute_series.bucket_means(),
            network_series: self.exec.network().utilization_series(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{training_program, TrainSpec};
    use ace_compute::KernelDesc;
    use ace_net::TopologySpec;
    use ace_workloads::{Layer, LayerComm, LoweringOptions, Parallelism, TaskRole, Workload};

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
        let (sms, mem_gbps) = config.kernel_resources(None);
        let fwd_cycles = npu.kernel_cycles(&KernelDesc::new("k.fwd", 1.0e9, 64.0e6), sms, mem_gbps);
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
    fn traced_pipeline_training_marks_issues_on_every_stage() {
        let w = Workload::transformer_lm()
            .with_parallelism("pipeline@gpipe@2x4".parse().unwrap())
            .unwrap();
        let program = training_program(SystemConfig::Ace, &w, 1, false);
        assert_eq!(program.timelines(), 2);
        let shape = TopologySpec::torus3(2, 2, 1).unwrap();
        let (_, tr) = TrainSpec::new(SystemConfig::Ace, program, shape)
            .tracer(ace_trace::RecordingTracer::new())
            .build()
            .unwrap()
            .run_with_tracer();
        for (k, lane) in ["stage0", "stage1"].into_iter().enumerate() {
            let track = timeline_track(k);
            assert!(
                tr.threads().contains(&(track, lane.to_string())),
                "stage {k} lane is named {lane}"
            );
            let issues = tr
                .events()
                .iter()
                .filter(|e| {
                    e.track == track
                        && e.payload == ace_trace::Payload::Instant
                        && tr.name(e.name).starts_with("issue:")
                })
                .count();
            assert!(issues > 0, "stage {k} records its collective issues");
        }
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
        assert_eq!(p.parallelism(), Parallelism::Hybrid);
    }
}
