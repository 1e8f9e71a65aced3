//! The task-graph workload IR.
//!
//! A [`Program`] is an acyclic graph of compute kernels, collectives and
//! synchronization barriers with explicit precedence edges, plus a
//! deterministic *schedule* — a topological linearization that fixes the
//! order in which each compute timeline executes its tasks and the order
//! in which collectives are issued (the LIFO scheduling policy of the
//! collective executor makes issue order meaningful).
//!
//! Workloads no longer hard-code control flow in the simulator: the
//! training loop of the paper (forward passes blocking on the previous
//! iteration's weight-gradient all-reduces, backward passes emitting one
//! collective per layer, DLRM's blocking all-to-alls) is *lowered* onto
//! this IR by [`Program::lower`], one lowering rule per
//! [`Parallelism`] strategy, and the simulator executes any valid
//! program. The Fig. 12 DLRM optimization is a graph transform
//! ([`Program::optimize_embedding`]) instead of a special-cased branch.
//!
//! # Execution model
//!
//! The schedule is executed in order, in one walk, by a scheduler owning
//! a collective executor and one compute frontier per timeline — one for
//! a single NPU, one per stage for a pipeline lowering:
//!
//! * a **collective** task is issued (non-blocking) at its timeline's
//!   frontier;
//! * a **compute** task first waits on its dependencies in dependency
//!   order — a collective until it completes (the stall is exposed
//!   communication), any other task until it finishes — then advances
//!   its timeline by its kernel;
//! * a **barrier** waits on its dependencies the same way without
//!   running any kernel.
//!
//! Within one timeline, a dependency between two timeline tasks
//! (compute/barrier) is a serialization edge, already satisfied by
//! schedule order, which [`Program::validate`] enforces is topological.
//! Across timelines it is a real wait: a pipeline bubble.

use std::fmt;

use ace_collectives::CollectiveOp;
use ace_compute::KernelDesc;

use crate::workload::{Parallelism, PipeSchedule, Workload};

/// Identifies a task within its [`Program`]. Stable across graph
/// transforms (removing a task from the schedule does not renumber the
/// others).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

impl TaskId {
    /// The dense index of this task in [`Program::task`] space.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// What a task does when the scheduler reaches it.
#[derive(Debug, Clone)]
pub enum TaskKind {
    /// Advance the compute timeline by one kernel.
    Compute(KernelDesc),
    /// Issue a collective at the current timeline instant (non-blocking;
    /// completion is consumed by dependent compute/barrier tasks).
    Collective {
        /// The collective operation.
        op: CollectiveOp,
        /// Per-node payload in bytes.
        bytes: u64,
    },
    /// Block on the collective dependencies without running a kernel.
    Barrier,
}

/// Which training pass a task belongs to — drives the Fig. 9b
/// forward/backward ACE-utilization split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPhase {
    /// Forward pass of its iteration.
    Forward,
    /// Back-propagation (and everything after it) of its iteration.
    Backward,
}

impl TaskPhase {
    /// Compact label for trace span names (`fwd` / `bwd`).
    pub fn short_name(self) -> &'static str {
        match self {
            TaskPhase::Forward => "fwd",
            TaskPhase::Backward => "bwd",
        }
    }
}

/// Structural tags graph transforms and analyses key on. Purely
/// descriptive: the scheduler never branches on a role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskRole {
    /// Forward kernel of layer `layer`.
    Forward {
        /// Layer index in forward order.
        layer: usize,
    },
    /// Input-gradient kernel of layer `layer`.
    InputGrad {
        /// Layer index in forward order.
        layer: usize,
    },
    /// Weight-gradient kernel of layer `layer`.
    WeightGrad {
        /// Layer index in forward order.
        layer: usize,
    },
    /// Back-propagation collective of layer `layer` (weight gradients
    /// under data parallelism, input-gradient exchange under model
    /// parallelism).
    GradCollective {
        /// Layer index in forward order.
        layer: usize,
    },
    /// Model parallelism: forward activation all-reduce of layer `layer`.
    FwdCollective {
        /// Layer index in forward order.
        layer: usize,
    },
    /// DLRM embedding lookup kernel.
    EmbeddingLookup,
    /// DLRM embedding update kernel.
    EmbeddingUpdate,
    /// DLRM forward all-to-all (pooled embedding vectors).
    EmbeddingFwdA2a,
    /// DLRM backward all-to-all (embedding gradients).
    EmbeddingBwdA2a,
    /// Synchronization barrier.
    Sync,
    /// User-authored task with no structural meaning.
    Custom,
}

impl TaskRole {
    /// Compact label for trace span names (layer indices are carried by
    /// the span's iteration/phase context, not the role label).
    pub fn short_name(self) -> &'static str {
        match self {
            TaskRole::Forward { .. } => "forward",
            TaskRole::InputGrad { .. } => "input-grad",
            TaskRole::WeightGrad { .. } => "weight-grad",
            TaskRole::GradCollective { .. } => "grad-coll",
            TaskRole::FwdCollective { .. } => "fwd-coll",
            TaskRole::EmbeddingLookup => "emb-lookup",
            TaskRole::EmbeddingUpdate => "emb-update",
            TaskRole::EmbeddingFwdA2a => "emb-fwd-a2a",
            TaskRole::EmbeddingBwdA2a => "emb-bwd-a2a",
            TaskRole::Sync => "sync",
            TaskRole::Custom => "custom",
        }
    }
}

/// One node of the task graph.
#[derive(Debug, Clone)]
pub struct Task {
    kind: TaskKind,
    deps: Vec<TaskId>,
    phase: TaskPhase,
    iter: u32,
    role: TaskRole,
    /// Compute timeline (pipeline stage) the task runs on. Single-NPU
    /// programs put everything on timeline 0; pipeline lowerings give
    /// each stage its own timeline, and cross-timeline dependencies
    /// become real waits (pipeline bubbles).
    timeline: u32,
}

impl Task {
    /// What the task does.
    pub fn kind(&self) -> &TaskKind {
        &self.kind
    }

    /// Precedence edges: tasks that must complete before this one
    /// starts. For a compute/barrier task, collective dependencies are
    /// blocked on in this order.
    pub fn deps(&self) -> &[TaskId] {
        &self.deps
    }

    /// Training pass of the task.
    pub fn phase(&self) -> TaskPhase {
        self.phase
    }

    /// Iteration the task belongs to.
    pub fn iter(&self) -> u32 {
        self.iter
    }

    /// Structural tag.
    pub fn role(&self) -> TaskRole {
        self.role
    }

    /// Whether the task occupies the compute timeline (compute or
    /// barrier, as opposed to a non-blocking collective issue).
    pub fn is_timeline(&self) -> bool {
        !matches!(self.kind, TaskKind::Collective { .. })
    }

    /// The compute timeline (pipeline stage) the task runs on. A
    /// collective's timeline is the stage that issues it.
    pub fn timeline(&self) -> usize {
        self.timeline as usize
    }
}

/// Resources permanently loaned away from training compute — the
/// Section VI-D background embedding pipeline carve-out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeCarveout {
    /// SMs loaned away (the paper loans 1).
    pub sms: u32,
    /// HBM bandwidth loaned away, GB/s (the paper loans 80).
    pub mem_gbps: f64,
}

impl ComputeCarveout {
    /// The Section VI-D carve-out: 1 SM and 80 GB/s for the background
    /// embedding pipeline.
    pub fn embedding_default() -> ComputeCarveout {
        ComputeCarveout {
            sms: 1,
            mem_gbps: 80.0,
        }
    }
}

/// Options for [`Program::lower`].
#[derive(Debug, Clone, Copy)]
pub struct LoweringOptions {
    /// Training iterations to unroll (the paper simulates 2).
    pub iterations: u32,
    /// Whether the endpoint configuration overlaps communication with
    /// compute. `false` (BaselineNoOverlap) batches every non-blocking
    /// collective at the end of back-propagation behind a barrier.
    pub overlap: bool,
}

impl Default for LoweringOptions {
    fn default() -> Self {
        LoweringOptions {
            iterations: 2,
            overlap: true,
        }
    }
}

/// A declarative training program: the task DAG plus its deterministic
/// schedule. See the [module docs](self) for the execution model.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    parallelism: Parallelism,
    iterations: u32,
    /// All tasks ever created, indexed by `TaskId`. Tasks removed by a
    /// transform stay here (ids are stable) but leave the schedule.
    tasks: Vec<Task>,
    /// Execution order — a topological linearization of the dep DAG.
    schedule: Vec<TaskId>,
    carveout: Option<ComputeCarveout>,
    /// Number of compute timelines (1 + the highest timeline index any
    /// task was pushed on). Single-NPU programs have exactly one.
    timelines: u32,
}

impl Program {
    /// An empty program. `iterations` is descriptive metadata for
    /// reports; the actual work is whatever tasks are added.
    pub fn new(name: impl Into<String>, parallelism: Parallelism, iterations: u32) -> Program {
        Program {
            name: name.into(),
            parallelism,
            iterations: iterations.max(1),
            tasks: Vec::new(),
            schedule: Vec::new(),
            carveout: None,
            timelines: 1,
        }
    }

    /// Number of compute timelines (pipeline stages) in the program.
    pub fn timelines(&self) -> usize {
        self.timelines as usize
    }

    /// Program (workload) name, used in reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parallelization strategy the program was lowered under.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Iterations the program unrolls.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// The resource carve-out applied to every compute kernel, if any.
    pub fn carveout(&self) -> Option<ComputeCarveout> {
        self.carveout
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// The execution order.
    pub fn schedule(&self) -> &[TaskId] {
        &self.schedule
    }

    /// The task behind `id`.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Total number of task slots (scheduled or removed) — the exclusive
    /// upper bound of [`TaskId::index`].
    pub fn task_slots(&self) -> usize {
        self.tasks.len()
    }

    /// Scheduled tasks in execution order.
    pub fn iter_scheduled(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.schedule.iter().map(move |&id| (id, &self.tasks[id.0]))
    }

    // ------------------------------------------------------------------
    // Graph construction
    // ------------------------------------------------------------------

    /// Appends a compute task. The previous timeline task is added as an
    /// implicit serialization dependency (the NPU runs kernels serially);
    /// `waits` lists the collectives (or other tasks) it must block on,
    /// in blocking order.
    pub fn add_compute(
        &mut self,
        kernel: KernelDesc,
        phase: TaskPhase,
        iter: u32,
        waits: Vec<TaskId>,
    ) -> TaskId {
        self.push(
            TaskKind::Compute(kernel),
            phase,
            iter,
            TaskRole::Custom,
            waits,
            true,
        )
    }

    /// Appends a collective issued after `after` completes (pass the
    /// producing compute task; an empty list issues it as soon as the
    /// schedule reaches it).
    pub fn add_collective(
        &mut self,
        op: CollectiveOp,
        bytes: u64,
        phase: TaskPhase,
        iter: u32,
        after: Vec<TaskId>,
    ) -> TaskId {
        self.push(
            TaskKind::Collective { op, bytes },
            phase,
            iter,
            TaskRole::Custom,
            after,
            false,
        )
    }

    /// Appends a barrier blocking on `waits` (in order).
    pub fn add_barrier(&mut self, phase: TaskPhase, iter: u32, waits: Vec<TaskId>) -> TaskId {
        self.push(TaskKind::Barrier, phase, iter, TaskRole::Sync, waits, true)
    }

    /// Appends a compute task on an explicit timeline (pipeline stage).
    /// Chains after the previous timeline task *of that timeline*.
    pub fn add_compute_on(
        &mut self,
        timeline: usize,
        kernel: KernelDesc,
        phase: TaskPhase,
        iter: u32,
        waits: Vec<TaskId>,
    ) -> TaskId {
        self.push_on(
            timeline as u32,
            TaskKind::Compute(kernel),
            phase,
            iter,
            TaskRole::Custom,
            waits,
            true,
        )
    }

    /// Appends a collective issued by the given timeline after `after`
    /// completes.
    pub fn add_collective_on(
        &mut self,
        timeline: usize,
        op: CollectiveOp,
        bytes: u64,
        phase: TaskPhase,
        iter: u32,
        after: Vec<TaskId>,
    ) -> TaskId {
        self.push_on(
            timeline as u32,
            TaskKind::Collective { op, bytes },
            phase,
            iter,
            TaskRole::Custom,
            after,
            false,
        )
    }

    /// Core task append on timeline 0. `chain` adds the previous
    /// timeline task as a leading serialization dependency.
    fn push(
        &mut self,
        kind: TaskKind,
        phase: TaskPhase,
        iter: u32,
        role: TaskRole,
        deps: Vec<TaskId>,
        chain: bool,
    ) -> TaskId {
        self.push_on(0, kind, phase, iter, role, deps, chain)
    }

    /// Core task append. `chain` adds the previous timeline task *of the
    /// same timeline* as a leading serialization dependency (each
    /// pipeline stage runs its kernels serially; stages run concurrently).
    #[allow(clippy::too_many_arguments)]
    fn push_on(
        &mut self,
        timeline: u32,
        kind: TaskKind,
        phase: TaskPhase,
        iter: u32,
        role: TaskRole,
        mut deps: Vec<TaskId>,
        chain: bool,
    ) -> TaskId {
        if chain {
            if let Some(prev) = self.last_timeline_on(timeline) {
                if !deps.contains(&prev) {
                    deps.insert(0, prev);
                }
            }
        }
        let id = TaskId(self.tasks.len());
        self.tasks.push(Task {
            kind,
            deps,
            phase,
            iter,
            role,
            timeline,
        });
        self.schedule.push(id);
        self.timelines = self.timelines.max(timeline + 1);
        id
    }

    /// The most recently scheduled timeline (compute/barrier) task of
    /// the given timeline.
    fn last_timeline_on(&self, timeline: u32) -> Option<TaskId> {
        self.schedule
            .iter()
            .rev()
            .find(|&&id| {
                let t = &self.tasks[id.0];
                t.is_timeline() && t.timeline == timeline
            })
            .copied()
    }

    /// The most recently scheduled timeline (compute/barrier) task.
    fn last_timeline(&self) -> Option<TaskId> {
        self.last_timeline_on(0)
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Checks that the program is executable: the schedule holds no
    /// duplicates, every dependency of a scheduled task is itself
    /// scheduled *earlier* (which makes the scheduled subgraph acyclic
    /// and the schedule a topological order), and collectives only
    /// depend on timeline tasks.
    pub fn validate(&self) -> Result<(), String> {
        let mut position = vec![usize::MAX; self.tasks.len()];
        for (pos, &id) in self.schedule.iter().enumerate() {
            if id.0 >= self.tasks.len() {
                return Err(format!("schedule references unknown task {id}"));
            }
            if position[id.0] != usize::MAX {
                return Err(format!("task {id} is scheduled twice"));
            }
            position[id.0] = pos;
        }
        for (pos, &id) in self.schedule.iter().enumerate() {
            let task = &self.tasks[id.0];
            for &dep in &task.deps {
                if dep.0 >= self.tasks.len() || position[dep.0] == usize::MAX {
                    return Err(format!(
                        "task {id} depends on {dep}, which is not scheduled"
                    ));
                }
                if position[dep.0] >= pos {
                    return Err(format!(
                        "task {id} depends on {dep}, which is scheduled at or after it \
                         (the schedule must be a topological order)"
                    ));
                }
                if matches!(task.kind, TaskKind::Collective { .. })
                    && !self.tasks[dep.0].is_timeline()
                {
                    return Err(format!(
                        "collective task {id} depends on collective {dep}; collectives may \
                         only be anchored to compute or barrier tasks"
                    ));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Analyses
    // ------------------------------------------------------------------

    /// Per-node bytes of the layer gradient collectives scheduled for
    /// `iter` — for builtin lowerings under their native strategy this
    /// equals [`Workload::total_comm_bytes`].
    pub fn grad_collective_bytes(&self, iter: u32) -> u64 {
        self.iter_scheduled()
            .filter(|(_, t)| t.iter == iter && matches!(t.role, TaskRole::GradCollective { .. }))
            .map(|(_, t)| match t.kind {
                TaskKind::Collective { bytes, .. } => bytes,
                _ => 0,
            })
            .sum()
    }

    /// Per-node bytes of every scheduled collective (all iterations,
    /// embedding exchanges included).
    pub fn total_collective_bytes(&self) -> u64 {
        self.iter_scheduled()
            .map(|(_, t)| match t.kind {
                TaskKind::Collective { bytes, .. } => bytes,
                _ => 0,
            })
            .sum()
    }

    /// The first scheduled task of `iter` with role `role`.
    pub fn find_role(&self, iter: u32, role: TaskRole) -> Option<TaskId> {
        self.iter_scheduled()
            .find(|(_, t)| t.iter == iter && t.role == role)
            .map(|(id, _)| id)
    }

    // ------------------------------------------------------------------
    // Lowering
    // ------------------------------------------------------------------

    /// Compiles `(workload, parallelism, options)` into a task graph.
    ///
    /// Lowering rules (Section V training loop):
    ///
    /// * **Data parallelism** — per layer, back-propagation emits the
    ///   layer's weight-gradient collective right after its
    ///   weight-gradient kernel. Overlapping configurations let the next
    ///   iteration's forward pass block per layer on the previous
    ///   iteration's collective; `overlap = false` defers every
    ///   collective to a blocking batch behind a barrier at the end of
    ///   back-propagation.
    /// * **Hybrid parallelism** — data parallelism plus the embedding
    ///   pipeline: lookup kernel and forward all-to-all before the
    ///   layers, a blocking wait on that all-to-all before the top-MLP
    ///   layer *in every configuration* (Table VI footnote), and the
    ///   backward all-to-all + embedding update after back-propagation.
    /// * **Model parallelism** (Megatron-style tensor parallel, the
    ///   Section III motivation) — each layer's activation all-reduce
    ///   blocks the *next* forward layer, and each backward layer's
    ///   input-gradient all-reduce blocks the *previous* layer's
    ///   backward kernels. These exchanges sit on the critical path by
    ///   construction, in every configuration; there are no
    ///   weight-gradient collectives (weights are sharded).
    /// * **Pipeline parallelism** — contiguous layer groups become
    ///   stages, each on its own compute timeline; the mini-batch splits
    ///   into microbatches whose per-stage kernels scale by `1/M`;
    ///   stage boundaries exchange activations (forward) and gradients
    ///   (backward) via one-hop [`CollectiveOp::SendRecv`] transfers
    ///   sized from the boundary layer's comm bytes `/M`; the per-stage
    ///   task order follows the GPipe or 1F1B schedule. Overlap has no
    ///   effect (boundary transfers are blocking by nature).
    pub fn lower(workload: &Workload, parallelism: Parallelism, opts: &LoweringOptions) -> Program {
        if let Parallelism::Pipeline {
            stages,
            microbatches,
            schedule,
        } = parallelism
        {
            return Self::lower_pipeline(workload, stages, microbatches, schedule, opts);
        }
        let mut p = Program::new(workload.name(), parallelism, opts.iterations);
        let layers = workload.layers();
        let model = parallelism == Parallelism::Model;
        // Data/hybrid: the backward collectives the next iteration's
        // forward pass blocks on, per layer.
        let mut prev_ar: Vec<Option<TaskId>> = vec![None; layers.len()];

        for iter in 0..opts.iterations {
            // ---------------- forward pass ----------------
            let mut fwd_a2a = None;
            if let Some(emb) = workload.embedding() {
                let lookup = p.push(
                    TaskKind::Compute(emb.lookup.clone()),
                    TaskPhase::Forward,
                    iter,
                    TaskRole::EmbeddingLookup,
                    Vec::new(),
                    true,
                );
                fwd_a2a = Some(p.push(
                    TaskKind::Collective {
                        op: CollectiveOp::AllToAll,
                        bytes: emb.fwd_all_to_all_bytes,
                    },
                    TaskPhase::Forward,
                    iter,
                    TaskRole::EmbeddingFwdA2a,
                    vec![lookup],
                    false,
                ));
            }

            // Model parallelism: the activation all-reduce the next
            // forward layer blocks on.
            let mut fwd_ar: Option<TaskId> = None;
            for (i, layer) in layers.iter().enumerate() {
                let mut waits = Vec::new();
                if model {
                    if let Some(ar) = fwd_ar.take() {
                        waits.push(ar);
                    }
                } else if opts.overlap && iter > 0 {
                    if let Some(ar) = prev_ar[i].take() {
                        waits.push(ar);
                    }
                }
                if let Some(emb) = workload.embedding() {
                    if i == emb.top_mlp_start {
                        // "The only exception is DLRM fwd-pass all-to-all
                        // where the training loop performs a blocking
                        // wait" (Table VI footnote) — in every
                        // configuration.
                        if let Some(a2a) = fwd_a2a.take() {
                            waits.push(a2a);
                        }
                    }
                }
                let fwd = p.push(
                    TaskKind::Compute(layer.fwd().clone()),
                    TaskPhase::Forward,
                    iter,
                    TaskRole::Forward { layer: i },
                    waits,
                    true,
                );
                if model {
                    if let Some(c) = layer.comm() {
                        fwd_ar = Some(p.push(
                            TaskKind::Collective {
                                op: c.op,
                                bytes: c.bytes,
                            },
                            TaskPhase::Forward,
                            iter,
                            TaskRole::FwdCollective { layer: i },
                            vec![fwd],
                            false,
                        ));
                    }
                }
            }

            // ---------------- backward pass ----------------
            // Model parallelism: a trailing forward all-reduce (last
            // layer sharded) blocks the first backward kernel; then each
            // layer's backward all-reduce blocks the previous layer.
            let mut bwd_ar: Option<TaskId> = fwd_ar.take();
            let mut deferred: Vec<(usize, TaskId)> = Vec::new();
            for i in (0..layers.len()).rev() {
                let layer = &layers[i];
                let mut waits = Vec::new();
                if let Some(ar) = bwd_ar.take() {
                    waits.push(ar);
                }
                p.push(
                    TaskKind::Compute(layer.input_grad().clone()),
                    TaskPhase::Backward,
                    iter,
                    TaskRole::InputGrad { layer: i },
                    waits,
                    true,
                );
                let wg = p.push(
                    TaskKind::Compute(layer.weight_grad().clone()),
                    TaskPhase::Backward,
                    iter,
                    TaskRole::WeightGrad { layer: i },
                    Vec::new(),
                    true,
                );
                if let Some(c) = layer.comm() {
                    if model || opts.overlap {
                        let ar = p.push(
                            TaskKind::Collective {
                                op: c.op,
                                bytes: c.bytes,
                            },
                            TaskPhase::Backward,
                            iter,
                            TaskRole::GradCollective { layer: i },
                            vec![wg],
                            false,
                        );
                        if model {
                            bwd_ar = Some(ar);
                        } else {
                            prev_ar[i] = Some(ar);
                        }
                    } else {
                        deferred.push((i, wg));
                    }
                }
            }

            if let Some(emb) = workload.embedding() {
                // Embedding gradients return to their owner tables
                // (blocking), then the tables are updated before the next
                // iteration. `optimize_embedding` re-anchors the *next*
                // iteration's forward all-to-all here and removes the
                // lookup/update kernels from the timeline.
                let anchor = p.last_timeline().expect("backward kernels precede");
                let bwd_a2a = p.push(
                    TaskKind::Collective {
                        op: CollectiveOp::AllToAll,
                        bytes: emb.bwd_all_to_all_bytes,
                    },
                    TaskPhase::Backward,
                    iter,
                    TaskRole::EmbeddingBwdA2a,
                    vec![anchor],
                    false,
                );
                p.push(
                    TaskKind::Barrier,
                    TaskPhase::Backward,
                    iter,
                    TaskRole::Sync,
                    vec![bwd_a2a],
                    true,
                );
                p.push(
                    TaskKind::Compute(emb.update.clone()),
                    TaskPhase::Backward,
                    iter,
                    TaskRole::EmbeddingUpdate,
                    Vec::new(),
                    true,
                );
            }

            if !deferred.is_empty() {
                // BaselineNoOverlap: one batched communication "kernel"
                // at the end of back-propagation, blocking. Collectives
                // are issued in back-propagation (reverse layer) order
                // and waited in the same order.
                let ars: Vec<TaskId> = deferred
                    .into_iter()
                    .map(|(i, wg)| {
                        let c = layers[i].comm().expect("deferred layers have comm");
                        p.push(
                            TaskKind::Collective {
                                op: c.op,
                                bytes: c.bytes,
                            },
                            TaskPhase::Backward,
                            iter,
                            TaskRole::GradCollective { layer: i },
                            vec![wg],
                            false,
                        )
                    })
                    .collect();
                p.push(
                    TaskKind::Barrier,
                    TaskPhase::Backward,
                    iter,
                    TaskRole::Sync,
                    ars,
                    true,
                );
            }
        }

        debug_assert!(p.validate().is_ok(), "lowered programs are valid");
        p
    }

    /// Pipeline-parallel lowering (see [`Program::lower`]). Layers are
    /// split into `stages` contiguous groups of (near-)equal count; each
    /// microbatch runs one fused forward kernel and one fused backward
    /// (input-grad + weight-grad) kernel per stage, scaled by `1/M`.
    fn lower_pipeline(
        workload: &Workload,
        stages: u32,
        microbatches: u32,
        schedule: PipeSchedule,
        opts: &LoweringOptions,
    ) -> Program {
        let s_n = (stages.max(2)) as usize;
        let m_n = (microbatches.max(1)) as usize;
        let layers = workload.layers();
        assert!(
            layers.len() >= s_n,
            "workload '{}' has {} layers; cannot split into {s_n} pipeline stages",
            workload.name(),
            layers.len()
        );
        let mut p = Program::new(
            workload.name(),
            Parallelism::Pipeline {
                stages,
                microbatches,
                schedule,
            },
            opts.iterations,
        );
        let cut = |s: usize| s * layers.len() / s_n;
        let scale = 1.0 / m_n as f64;

        // Per-stage fused microbatch kernels.
        let mut fwd_kernels = Vec::with_capacity(s_n);
        let mut bwd_kernels = Vec::with_capacity(s_n);
        // Forward activation bytes crossing the s -> s+1 boundary per
        // microbatch (the boundary layer's comm payload, microbatched);
        // gradients cross back the same boundary in the backward pass.
        let mut boundary_bytes = Vec::with_capacity(s_n.saturating_sub(1));
        for s in 0..s_n {
            let group = &layers[cut(s)..cut(s + 1)];
            let (mut ff, mut fb, mut bf, mut bb) = (0.0, 0.0, 0.0, 0.0);
            for l in group {
                ff += l.fwd().flops();
                fb += l.fwd().mem_bytes();
                bf += l.input_grad().flops() + l.weight_grad().flops();
                bb += l.input_grad().mem_bytes() + l.weight_grad().mem_bytes();
            }
            fwd_kernels.push(KernelDesc::new(
                format!("stage{s}-fwd"),
                ff * scale,
                fb * scale,
            ));
            bwd_kernels.push(KernelDesc::new(
                format!("stage{s}-bwd"),
                bf * scale,
                bb * scale,
            ));
            if s + 1 < s_n {
                let boundary = &layers[cut(s + 1) - 1];
                let bytes = boundary.comm().map(|c| c.bytes).unwrap_or(0);
                boundary_bytes.push(bytes.div_ceil(m_n as u64).min(bytes));
            }
        }

        /// One slot of a stage's schedule: which microbatch's forward or
        /// backward pass to run next.
        #[derive(Clone, Copy, PartialEq)]
        enum Item {
            Fwd(usize),
            Bwd(usize),
        }
        // Per-stage task order. GPipe: all forwards, then all backwards.
        // 1F1B: `stages - 1 - s` warmup forwards, a one-forward-one-
        // backward steady state, then the backward drain.
        let order: Vec<Vec<Item>> = (0..s_n)
            .map(|s| {
                let mut o = Vec::with_capacity(2 * m_n);
                match schedule {
                    PipeSchedule::GPipe => {
                        o.extend((0..m_n).map(Item::Fwd));
                        o.extend((0..m_n).map(Item::Bwd));
                    }
                    PipeSchedule::OneFOneB => {
                        let warm = (s_n - 1 - s).min(m_n);
                        o.extend((0..warm).map(Item::Fwd));
                        for m in warm..m_n {
                            o.push(Item::Fwd(m));
                            o.push(Item::Bwd(m - warm));
                        }
                        o.extend((m_n - warm..m_n).map(Item::Bwd));
                    }
                }
                o
            })
            .collect();

        for iter in 0..opts.iterations {
            let mut fwd_id: Vec<Vec<Option<TaskId>>> = vec![vec![None; m_n]; s_n];
            let mut bwd_id: Vec<Vec<Option<TaskId>>> = vec![vec![None; m_n]; s_n];
            let mut fwd_xfer: Vec<Vec<Option<TaskId>>> = vec![vec![None; m_n]; s_n];
            let mut bwd_xfer: Vec<Vec<Option<TaskId>>> = vec![vec![None; m_n]; s_n];
            let mut next = vec![0usize; s_n];
            // Breadth-first topological merge of the per-stage orders:
            // each sweep emits at most one ready item per stage, lowest
            // stage first, so the schedule interleaves stages roughly in
            // time order while preserving each stage's exact sequence.
            loop {
                let mut progressed = false;
                let mut done = true;
                for s in 0..s_n {
                    if next[s] >= order[s].len() {
                        continue;
                    }
                    done = false;
                    let item = order[s][next[s]];
                    match item {
                        Item::Fwd(m) => {
                            if s > 0 && fwd_id[s - 1][m].is_none() {
                                continue;
                            }
                            let mut waits = Vec::new();
                            if s > 0 {
                                waits.push(fwd_xfer[s - 1][m].or(fwd_id[s - 1][m]).unwrap());
                            }
                            let id = p.push_on(
                                s as u32,
                                TaskKind::Compute(fwd_kernels[s].clone()),
                                TaskPhase::Forward,
                                iter,
                                TaskRole::Forward { layer: s },
                                waits,
                                true,
                            );
                            fwd_id[s][m] = Some(id);
                            if s + 1 < s_n && boundary_bytes[s] > 0 {
                                fwd_xfer[s][m] = Some(p.push_on(
                                    s as u32,
                                    TaskKind::Collective {
                                        op: CollectiveOp::SendRecv,
                                        bytes: boundary_bytes[s],
                                    },
                                    TaskPhase::Forward,
                                    iter,
                                    TaskRole::FwdCollective { layer: s },
                                    vec![id],
                                    false,
                                ));
                            }
                        }
                        Item::Bwd(m) => {
                            if s + 1 < s_n && bwd_id[s + 1][m].is_none() {
                                continue;
                            }
                            let mut waits = Vec::new();
                            if s + 1 < s_n {
                                waits.push(bwd_xfer[s + 1][m].or(bwd_id[s + 1][m]).unwrap());
                            }
                            let id = p.push_on(
                                s as u32,
                                TaskKind::Compute(bwd_kernels[s].clone()),
                                TaskPhase::Backward,
                                iter,
                                TaskRole::InputGrad { layer: s },
                                waits,
                                true,
                            );
                            bwd_id[s][m] = Some(id);
                            if s > 0 && boundary_bytes[s - 1] > 0 {
                                bwd_xfer[s][m] = Some(p.push_on(
                                    s as u32,
                                    TaskKind::Collective {
                                        op: CollectiveOp::SendRecv,
                                        bytes: boundary_bytes[s - 1],
                                    },
                                    TaskPhase::Backward,
                                    iter,
                                    TaskRole::GradCollective { layer: s },
                                    vec![id],
                                    false,
                                ));
                            }
                        }
                    }
                    next[s] += 1;
                    progressed = true;
                }
                if done {
                    break;
                }
                assert!(progressed, "pipeline schedule deadlocked");
            }
        }

        debug_assert!(p.validate().is_ok(), "pipeline lowerings are valid");
        p
    }

    // ------------------------------------------------------------------
    // Transforms
    // ------------------------------------------------------------------

    /// The Fig. 12 / Section VI-D DLRM training-loop optimization as a
    /// graph transform: the embedding lookup/update of the next/previous
    /// iteration run in the background on a permanent 1-SM / 80 GB/s
    /// carve-out, and each iteration's forward all-to-all is issued as
    /// soon as the background lookup finishes — iteration 0's before
    /// training starts, iteration `k+1`'s right after iteration `k`'s
    /// last backward kernel.
    ///
    /// A program without an embedding stage (no scheduled forward
    /// all-to-all) is left untouched: there is no background pipeline to
    /// loan the carve-out to. This is the one place the exact and
    /// analytic tiers decide whether the optimization applies.
    pub fn optimize_embedding(&mut self) {
        let has_embedding = self
            .iter_scheduled()
            .any(|(_, t)| t.role == TaskRole::EmbeddingFwdA2a);
        if !has_embedding {
            return;
        }
        self.carveout = Some(ComputeCarveout::embedding_default());
        for iter in 0..self.iterations {
            if let Some(lookup) = self.find_role(iter, TaskRole::EmbeddingLookup) {
                self.remove_task(lookup);
            }
            if let Some(update) = self.find_role(iter, TaskRole::EmbeddingUpdate) {
                self.remove_task(update);
            }
            let Some(a2a) = self.find_role(iter, TaskRole::EmbeddingFwdA2a) else {
                continue;
            };
            if iter == 0 {
                // Iteration 0's lookup ran before training starts, so its
                // all-to-all is already in flight at t = 0.
                self.tasks[a2a.0].deps.clear();
                self.schedule.retain(|&t| t != a2a);
                self.schedule.insert(0, a2a);
            } else {
                // The background lookup finished partway through the
                // previous backward pass; its all-to-all is issued right
                // after the last backward kernel, before the previous
                // iteration's backward all-to-all.
                let anchor = self
                    .find_role(iter - 1, TaskRole::EmbeddingBwdA2a)
                    .expect("hybrid iterations carry a backward all-to-all");
                self.tasks[a2a.0].deps = self.tasks[anchor.0].deps.clone();
                self.schedule.retain(|&t| t != a2a);
                let pos = self
                    .schedule
                    .iter()
                    .position(|&t| t == anchor)
                    .expect("anchor is scheduled");
                self.schedule.insert(pos, a2a);
            }
        }
        debug_assert!(self.validate().is_ok(), "transformed programs stay valid");
    }

    /// Stretches every compute kernel by its straggler multiplier (see
    /// [`StragglerSpec`](crate::StragglerSpec)): flops and HBM bytes
    /// scale together, so the kernel's roofline time stretches by
    /// exactly the multiplier whichever side bounds it. A pure graph
    /// transform keyed on stable task ids — the exact and analytic
    /// tiers consume the same stretched program, and the result is
    /// independent of thread count and schedule order. `det` is a no-op.
    pub fn apply_stragglers(&mut self, spec: &crate::StragglerSpec) {
        if spec.is_det() {
            return;
        }
        for (id, task) in self.tasks.iter_mut().enumerate() {
            if let TaskKind::Compute(kernel) = &mut task.kind {
                let m = spec.multiplier(id);
                *kernel = KernelDesc::new(
                    kernel.name().to_string(),
                    kernel.flops() * m,
                    kernel.mem_bytes() * m,
                );
            }
        }
    }

    /// Removes `id` from the schedule, splicing its dependencies into
    /// every dependent (so serialization chains stay intact).
    fn remove_task(&mut self, id: TaskId) {
        let inherited = self.tasks[id.0].deps.clone();
        self.schedule.retain(|&t| t != id);
        for task in &mut self.tasks {
            if let Some(pos) = task.deps.iter().position(|&d| d == id) {
                task.deps.remove(pos);
                let mut at = pos;
                for &d in &inherited {
                    if !task.deps.contains(&d) {
                        task.deps.insert(at, d);
                        at += 1;
                    }
                }
            }
        }
    }
}

/// The outcome of an [analytic walk](Program::analytic_walk): the same
/// total = compute + exposed identity the event-driven scheduler reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AnalyticWalk {
    /// End-to-end time in cycles (critical-path length).
    pub total_cycles: f64,
    /// Cycles the compute timeline spent in kernels.
    pub compute_cycles: f64,
    /// Cycles the timeline stalled on collectives (exposed communication).
    pub exposed_cycles: f64,
    /// Per-node bytes issued to the fabric across all collectives.
    pub collective_bytes: u64,
}

impl Program {
    /// Walks the schedule with closed-form task durations — the analytic
    /// tier's critical-path scheduler. Mirrors the event-driven
    /// scheduler's execution model exactly (one compute frontier per
    /// timeline; collectives issued non-blocking at their timeline's
    /// frontier; compute and barriers waiting on their dependencies in
    /// order) but replaces the collective executor with
    /// `collective_cycles` and the NPU roofline with `compute_cycles`, and
    /// approximates the shared fabric as a single serializing resource: a
    /// collective issued while an earlier one is still draining starts
    /// after it.
    ///
    /// The walk therefore computes the critical path of the DAG under
    /// those durations, in one pass over the schedule.
    ///
    /// Multi-timeline programs (pipeline lowerings) walk one frontier
    /// per timeline: cross-timeline dependencies become real waits —
    /// pipeline bubbles. For those programs `compute_cycles` reports the
    /// *per-stage mean* kernel time (total kernel cycles / timelines)
    /// and `exposed_cycles` the remainder, preserving the
    /// `total = compute + exposed` identity; the exposed fraction of a
    /// communication-free uniform GPipe pipeline is then exactly the
    /// textbook bubble fraction `(S-1)/(M+S-1)`.
    pub fn analytic_walk(
        &self,
        mut compute_cycles: impl FnMut(&KernelDesc) -> u64,
        mut collective_cycles: impl FnMut(CollectiveOp, u64) -> f64,
    ) -> AnalyticWalk {
        let nt = self.timelines().max(1);
        let mut finish: Vec<f64> = vec![0.0; self.tasks.len()];
        let mut t: Vec<f64> = vec![0.0; nt]; // per-timeline compute frontiers
        let mut net_free: f64 = 0.0; // fabric single-server frontier
        let mut walk = AnalyticWalk::default();
        for (id, task) in self.iter_scheduled() {
            let k = task.timeline();
            match task.kind() {
                TaskKind::Collective { op, bytes } => {
                    let start = t[k].max(net_free);
                    let done = start + collective_cycles(*op, *bytes);
                    finish[id.index()] = done;
                    net_free = done;
                    walk.collective_bytes += bytes;
                }
                TaskKind::Compute(_) | TaskKind::Barrier => {
                    for &dep in task.deps() {
                        let done = finish[dep.index()];
                        if done > t[k] {
                            walk.exposed_cycles += done - t[k];
                            t[k] = done;
                        }
                    }
                    if let TaskKind::Compute(kernel) = task.kind() {
                        let cycles = compute_cycles(kernel) as f64;
                        walk.compute_cycles += cycles;
                        t[k] += cycles;
                    }
                    finish[id.index()] = t[k];
                }
            }
        }
        // Drain outstanding collectives: the next iteration could not
        // start before they finish, so the tail stall is exposed.
        let mut end = t.iter().copied().fold(0.0_f64, f64::max);
        if net_free > end {
            walk.exposed_cycles += net_free - end;
            end = net_free;
        }
        walk.total_cycles = end;
        if nt > 1 {
            // Per-stage mean accounting (see doc comment above): the
            // incremental stall tally mixes per-stage clocks, so rebuild
            // the identity from the end-to-end time instead.
            walk.compute_cycles /= nt as f64;
            walk.exposed_cycles = (end - walk.compute_cycles).max(0.0);
        }
        walk
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} tasks, {} iterations)",
            self.name,
            self.parallelism,
            self.schedule.len(),
            self.iterations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_role(p: &Program, pred: impl Fn(TaskRole) -> bool) -> usize {
        p.iter_scheduled().filter(|(_, t)| pred(t.role())).count()
    }

    #[test]
    fn stragglers_stretch_compute_deterministically() {
        let w = Workload::resnet50();
        let opts = LoweringOptions {
            iterations: 2,
            overlap: true,
        };
        let base = Program::lower(&w, Parallelism::Data, &opts);
        let spec: crate::StragglerSpec = "lognormal:0.3@seed:5".parse().unwrap();
        let mut a = base.clone();
        a.apply_stragglers(&spec);
        a.validate().unwrap();
        let mut b = base.clone();
        b.apply_stragglers(&spec);
        let mut stretched = 0usize;
        for (id, task) in base.iter_scheduled() {
            match (task.kind(), a.task(id).kind(), b.task(id).kind()) {
                (TaskKind::Compute(orig), TaskKind::Compute(ka), TaskKind::Compute(kb)) => {
                    // Same seed ⇒ bit-identical stretch; flops and bytes
                    // scale by the same multiplier.
                    assert_eq!(ka.flops(), kb.flops());
                    let m = ka.flops() / orig.flops();
                    assert!((ka.mem_bytes() / orig.mem_bytes() - m).abs() < 1e-12);
                    if m != 1.0 {
                        stretched += 1;
                    }
                }
                (TaskKind::Compute(_), _, _) => panic!("kind changed under stragglers"),
                _ => {}
            }
        }
        assert!(stretched > 0, "some kernel must stretch");
        // det leaves the program untouched.
        let mut c = base.clone();
        c.apply_stragglers(&crate::StragglerSpec::Det);
        for (id, task) in base.iter_scheduled() {
            if let (TaskKind::Compute(orig), TaskKind::Compute(kc)) =
                (task.kind(), c.task(id).kind())
            {
                assert_eq!(orig.flops(), kc.flops());
            }
        }
    }

    #[test]
    fn data_parallel_lowering_matches_loop_structure() {
        let w = Workload::resnet50();
        let iters = 2;
        let p = Program::lower(
            &w,
            Parallelism::Data,
            &LoweringOptions {
                iterations: iters,
                overlap: true,
            },
        );
        p.validate().unwrap();
        let l = w.layers().len();
        // Per iteration: fwd + ig + wg per layer, one AR per comm layer.
        assert_eq!(
            count_role(&p, |r| matches!(r, TaskRole::Forward { .. })),
            l * 2
        );
        assert_eq!(
            count_role(&p, |r| matches!(r, TaskRole::GradCollective { .. })),
            l * 2
        );
        assert_eq!(p.grad_collective_bytes(0), w.total_comm_bytes());
        assert_eq!(p.grad_collective_bytes(1), w.total_comm_bytes());
        // Iteration 1's forward layers block on iteration 0's ARs.
        let fwd1 = p.find_role(1, TaskRole::Forward { layer: 0 }).unwrap();
        let blocks: Vec<TaskRole> = p
            .task(fwd1)
            .deps()
            .iter()
            .map(|&d| p.task(d).role())
            .collect();
        assert!(blocks.contains(&TaskRole::GradCollective { layer: 0 }));
    }

    #[test]
    fn no_overlap_lowering_defers_behind_a_barrier() {
        let w = Workload::gnmt();
        let p = Program::lower(
            &w,
            Parallelism::Data,
            &LoweringOptions {
                iterations: 1,
                overlap: false,
            },
        );
        p.validate().unwrap();
        // Forward tasks have no collective waits.
        for (_, t) in p.iter_scheduled() {
            if matches!(t.role(), TaskRole::Forward { .. }) {
                for &d in t.deps() {
                    assert!(p.task(d).is_timeline(), "no-overlap fwd must not block");
                }
            }
        }
        // One barrier waits every AR in back-propagation order.
        let barrier = p.find_role(0, TaskRole::Sync).unwrap();
        let ars: Vec<usize> = p
            .task(barrier)
            .deps()
            .iter()
            .filter_map(|&d| match p.task(d).role() {
                TaskRole::GradCollective { layer } => Some(layer),
                _ => None,
            })
            .collect();
        let mut rev = ars.clone();
        rev.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(ars, rev, "waits follow reverse-layer issue order");
        assert!(!ars.is_empty());
    }

    #[test]
    fn hybrid_lowering_wires_the_embedding_pipeline() {
        let w = Workload::dlrm(16);
        let p = Program::lower(&w, Parallelism::Hybrid, &LoweringOptions::default());
        p.validate().unwrap();
        let top = w.embedding().unwrap().top_mlp_start;
        let top_task = p.find_role(0, TaskRole::Forward { layer: top }).unwrap();
        let waits: Vec<TaskRole> = p
            .task(top_task)
            .deps()
            .iter()
            .map(|&d| p.task(d).role())
            .collect();
        assert!(waits.contains(&TaskRole::EmbeddingFwdA2a));
        // The backward all-to-all is waited by a barrier, then the update
        // runs.
        assert!(p.find_role(0, TaskRole::EmbeddingBwdA2a).is_some());
        assert!(p.find_role(0, TaskRole::EmbeddingUpdate).is_some());
    }

    #[test]
    fn optimize_embedding_moves_the_exchanges_and_drops_the_kernels() {
        let w = Workload::dlrm(16);
        let mut p = Program::lower(&w, Parallelism::Hybrid, &LoweringOptions::default());
        p.optimize_embedding();
        p.validate().unwrap();
        assert_eq!(p.carveout(), Some(ComputeCarveout::embedding_default()));
        // Lookup/update kernels left the schedule.
        assert_eq!(count_role(&p, |r| r == TaskRole::EmbeddingLookup), 0);
        assert_eq!(count_role(&p, |r| r == TaskRole::EmbeddingUpdate), 0);
        // Iteration 0's forward all-to-all is the very first task, with
        // no dependencies (in flight at t = 0).
        let first = p.schedule()[0];
        assert_eq!(p.task(first).role(), TaskRole::EmbeddingFwdA2a);
        assert!(p.task(first).deps().is_empty());
        // Iteration 1's forward all-to-all is issued during iteration
        // 0's backward pass, right before the backward all-to-all.
        let a2a1 = p.find_role(1, TaskRole::EmbeddingFwdA2a).unwrap();
        let bwd0 = p.find_role(0, TaskRole::EmbeddingBwdA2a).unwrap();
        let pos = |id| p.schedule().iter().position(|&t| t == id).unwrap();
        assert_eq!(pos(a2a1) + 1, pos(bwd0));
    }

    #[test]
    fn optimize_embedding_without_embedding_is_a_no_op() {
        let w = Workload::resnet50();
        let mut p = Program::lower(&w, Parallelism::Data, &LoweringOptions::default());
        let schedule = p.schedule().to_vec();
        p.optimize_embedding();
        p.validate().unwrap();
        assert_eq!(p.schedule(), schedule);
        assert!(p.carveout().is_none());
    }

    #[test]
    fn model_parallel_lowering_blocks_both_passes() {
        let w = Workload::transformer_lm();
        let p = Program::lower(
            &w,
            Parallelism::Model,
            &LoweringOptions {
                iterations: 1,
                overlap: true,
            },
        );
        p.validate().unwrap();
        // Forward collectives exist and block the next forward layer.
        let ar1 = p
            .find_role(0, TaskRole::FwdCollective { layer: 1 })
            .unwrap();
        let fwd2 = p.find_role(0, TaskRole::Forward { layer: 2 }).unwrap();
        assert!(p.task(fwd2).deps().contains(&ar1));
        // Backward collectives block the previous layer's input-gradient.
        let bar2 = p
            .find_role(0, TaskRole::GradCollective { layer: 2 })
            .unwrap();
        let ig1 = p.find_role(0, TaskRole::InputGrad { layer: 1 }).unwrap();
        assert!(p.task(ig1).deps().contains(&bar2));
        // No weight-gradient collectives under tensor parallelism: the
        // grad collectives are input-gradient exchanges anchored on wg,
        // and fwd+bwd bytes double the data-parallel per-iteration total.
        assert_eq!(
            p.total_collective_bytes(),
            2 * w.total_comm_bytes(),
            "fwd + bwd activation exchanges"
        );
    }

    #[test]
    fn custom_programs_validate_and_reject_bad_schedules() {
        use ace_compute::KernelDesc;
        let mut p = Program::new("custom", Parallelism::Data, 1);
        let k = KernelDesc::new("k", 1.0e9, 1.0e7);
        let c0 = p.add_compute(k.clone(), TaskPhase::Forward, 0, vec![]);
        let ar = p.add_collective(
            CollectiveOp::AllReduce,
            1 << 20,
            TaskPhase::Backward,
            0,
            vec![c0],
        );
        let _b = p.add_barrier(TaskPhase::Backward, 0, vec![ar]);
        p.validate().unwrap();
        assert_eq!(p.len(), 3);

        // A forward reference breaks topological order.
        let mut bad = p.clone();
        bad.schedule.swap(0, 2);
        assert!(bad.validate().is_err());
        // Duplicate scheduling is rejected.
        let mut dup = p.clone();
        dup.schedule.push(c0);
        assert!(dup.validate().is_err());
    }

    #[test]
    fn analytic_walk_holds_the_total_identity() {
        // total = compute + exposed, exactly, for every lowering.
        for (w, par) in [
            (Workload::resnet50(), Parallelism::Data),
            (Workload::dlrm(16), Parallelism::Hybrid),
            (Workload::transformer_lm(), Parallelism::Model),
        ] {
            let p = Program::lower(&w, par, &LoweringOptions::default());
            let walk = p.analytic_walk(
                |k| (k.flops() / 1e6).ceil() as u64 + 1,
                |_, bytes| bytes as f64 / 20.0,
            );
            let sum = walk.compute_cycles + walk.exposed_cycles;
            assert!(
                (walk.total_cycles - sum).abs() < 1e-6,
                "{par:?}: total {} != compute+exposed {sum}",
                walk.total_cycles
            );
            assert_eq!(walk.collective_bytes, p.total_collective_bytes());
        }
    }

    #[test]
    fn analytic_walk_without_collectives_is_pure_compute() {
        let mut p = Program::new("compute-only", Parallelism::Data, 1);
        let k = KernelDesc::new("k", 1.0e9, 1.0e7);
        for _ in 0..5 {
            p.add_compute(k.clone(), TaskPhase::Forward, 0, vec![]);
        }
        let walk = p.analytic_walk(|_| 100, |_, _| panic!("no collectives"));
        assert_eq!(walk.total_cycles, 500.0);
        assert_eq!(walk.exposed_cycles, 0.0);
        assert_eq!(walk.collective_bytes, 0);
    }

    #[test]
    fn analytic_walk_serializes_the_fabric() {
        // Two collectives issued back-to-back share the fabric: the
        // second starts when the first drains.
        let mut p = Program::new("two-ars", Parallelism::Data, 1);
        let k = KernelDesc::new("k", 1.0, 1.0);
        let c = p.add_compute(k.clone(), TaskPhase::Forward, 0, vec![]);
        let a = p.add_collective(
            CollectiveOp::AllReduce,
            100,
            TaskPhase::Backward,
            0,
            vec![c],
        );
        let b = p.add_collective(
            CollectiveOp::AllReduce,
            100,
            TaskPhase::Backward,
            0,
            vec![c],
        );
        let _bar = p.add_barrier(TaskPhase::Backward, 0, vec![a, b]);
        let walk = p.analytic_walk(|_| 10, |_, bytes| bytes as f64);
        // 10 compute + 100 (first) + 100 (queued second) = 210.
        assert_eq!(walk.total_cycles, 210.0);
        assert_eq!(walk.exposed_cycles, 200.0);
    }

    fn uniform_pipeline_workload(layers: usize, comm: Option<crate::LayerComm>) -> Workload {
        let table: Vec<crate::Layer> = (0..layers)
            .map(|i| crate::Layer::from_fwd(format!("l{i}"), 8.0e3, 8.0e3, comm))
            .collect();
        Workload::data_parallel("uniform", table, 1)
    }

    #[test]
    fn pipeline_lowerings_validate_and_partition_stages() {
        for schedule in [PipeSchedule::GPipe, PipeSchedule::OneFOneB] {
            let w = uniform_pipeline_workload(8, None);
            let par = Parallelism::Pipeline {
                stages: 4,
                microbatches: 6,
                schedule,
            };
            let p = Program::lower(&w, par, &LoweringOptions::default());
            p.validate().unwrap();
            assert_eq!(p.timelines(), 4);
            // Per iteration: one fwd + one bwd kernel per (stage, microbatch).
            assert_eq!(
                count_role(&p, |r| matches!(r, TaskRole::Forward { .. })),
                2 * 4 * 6
            );
            assert_eq!(
                count_role(&p, |r| matches!(r, TaskRole::InputGrad { .. })),
                2 * 4 * 6
            );
            // Zero-byte boundaries emit no transfer collectives.
            assert_eq!(p.total_collective_bytes(), 0);
        }
    }

    #[test]
    fn pipeline_boundary_transfers_are_microbatched_send_recvs() {
        let comm = crate::LayerComm {
            op: CollectiveOp::AllReduce,
            bytes: 96,
        };
        let w = uniform_pipeline_workload(4, Some(comm));
        let par = Parallelism::Pipeline {
            stages: 4,
            microbatches: 3,
            schedule: PipeSchedule::GPipe,
        };
        let p = Program::lower(
            &w,
            par,
            &LoweringOptions {
                iterations: 1,
                overlap: true,
            },
        );
        p.validate().unwrap();
        let mut xfers = 0;
        for (_, t) in p.iter_scheduled() {
            if let TaskKind::Collective { op, bytes } = t.kind() {
                assert_eq!(*op, CollectiveOp::SendRecv);
                assert_eq!(*bytes, 32, "96-byte boundary split over 3 microbatches");
                xfers += 1;
            }
        }
        // 3 boundaries × 3 microbatches × (fwd activation + bwd gradient).
        assert_eq!(xfers, 3 * 3 * 2);
    }

    #[test]
    fn gpipe_bubble_fraction_matches_the_closed_form() {
        // Uniform communication-free stages: exposed/total must equal
        // (S-1)/(M+S-1) exactly under the analytic walk.
        for (s, m) in [(2, 2), (4, 8), (3, 5), (6, 1)] {
            let w = uniform_pipeline_workload(s as usize, None);
            let par = Parallelism::Pipeline {
                stages: s,
                microbatches: m,
                schedule: PipeSchedule::GPipe,
            };
            let p = Program::lower(
                &w,
                par,
                &LoweringOptions {
                    iterations: 1,
                    overlap: true,
                },
            );
            let walk = p.analytic_walk(|k| k.flops() as u64, |_, _| panic!("communication-free"));
            let bubble = walk.exposed_cycles / walk.total_cycles;
            let expect = (s as f64 - 1.0) / (m as f64 + s as f64 - 1.0);
            assert!(
                (bubble - expect).abs() < 1e-9,
                "S={s} M={m}: bubble {bubble} != {expect}"
            );
            let sum = walk.compute_cycles + walk.exposed_cycles;
            assert!((walk.total_cycles - sum).abs() < 1e-9);
        }
    }

    #[test]
    fn one_f_one_b_matches_gpipe_on_uniform_stages() {
        // Same DAG, different per-stage order: end-to-end time is equal
        // for uniform communication-free stages (both achieve the
        // textbook (M+S-1)(tf+tb) pipeline latency).
        let w = uniform_pipeline_workload(4, None);
        let mk = |schedule| {
            let p = Program::lower(
                &w,
                Parallelism::Pipeline {
                    stages: 4,
                    microbatches: 8,
                    schedule,
                },
                &LoweringOptions {
                    iterations: 1,
                    overlap: true,
                },
            );
            p.validate().unwrap();
            p.analytic_walk(|k| k.flops() as u64, |_, _| 0.0)
                .total_cycles
        };
        assert_eq!(mk(PipeSchedule::GPipe), mk(PipeSchedule::OneFOneB));
    }

    #[test]
    fn one_f_one_b_is_never_slower_than_gpipe_on_random_draws() {
        // 1F1B reorders each stage's work but never adds dependencies, so
        // for any stage geometry and any (non-uniform) per-layer cost its
        // end-to-end time is at most GPipe's. 50 seeded random draws of
        // (layers, stages, microbatches, per-layer flops, boundary bytes).
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            // splitmix64: deterministic, no external crates.
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for draw in 0..50 {
            let stages = 2 + (next() % 5) as u32; // 2..=6
            let layers = stages as usize + (next() % 8) as usize;
            let microbatches = 1 + (next() % 12) as u32; // 1..=12
            let table: Vec<crate::Layer> = (0..layers)
                .map(|i| {
                    let flops = 1.0e3 + (next() % 64_000) as f64;
                    let comm = (next() % 2 == 0).then_some(crate::LayerComm {
                        op: CollectiveOp::AllReduce,
                        bytes: 64 + next() % 4096,
                    });
                    crate::Layer::from_fwd(format!("l{i}"), flops, flops, comm)
                })
                .collect();
            let w = Workload::data_parallel("random-pipe", table, 1);
            let walk = |schedule| {
                let p = Program::lower(
                    &w,
                    Parallelism::Pipeline {
                        stages,
                        microbatches,
                        schedule,
                    },
                    &LoweringOptions {
                        iterations: 1,
                        overlap: true,
                    },
                );
                p.validate().unwrap();
                p.analytic_walk(|k| k.flops() as u64, |_, bytes| bytes as f64 / 32.0)
                    .total_cycles
            };
            let gpipe = walk(PipeSchedule::GPipe);
            let one_f = walk(PipeSchedule::OneFOneB);
            assert!(
                one_f <= gpipe + 1e-6,
                "draw {draw} (S={stages} M={microbatches} L={layers}): \
                 1F1B {one_f} > GPipe {gpipe}"
            );
        }
    }

    #[test]
    fn chain_deps_serialize_the_timeline() {
        let w = Workload::gnmt();
        let p = Program::lower(&w, Parallelism::Data, &LoweringOptions::default());
        // Every timeline task except the first depends on the previous
        // timeline task.
        let timeline: Vec<TaskId> = p
            .iter_scheduled()
            .filter(|(_, t)| t.is_timeline())
            .map(|(id, _)| id)
            .collect();
        for pair in timeline.windows(2) {
            assert!(
                p.task(pair[1]).deps().contains(&pair[0]),
                "{} must chain to {}",
                pair[1],
                pair[0]
            );
        }
    }
}
