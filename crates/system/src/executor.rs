//! Event-driven, message-granularity collective execution across all
//! nodes of the fabric.
//!
//! Each collective payload is split into chunks (Table III) that pipeline
//! independently through the plan's phases (Section IV-E). Ring phases run
//! the classic rotate-reduce chains: every node sends step 0 at phase
//! start, and each arrival triggers the next step's send after the
//! endpoint engine charges its resource costs. Direct all-to-all sends one
//! flow per (source, destination) pair over XYZ routes with per-hop
//! endpoint forwarding. Bidirectional rings are used by alternating chunk
//! parity between the + and − ring directions.
//!
//! Chunk admission into ACE's SRAM partitions applies backpressure;
//! baseline and ideal endpoints admit unconditionally. A global in-flight
//! chunk cap bounds pipelining depth, and pending collectives are drained
//! in LIFO issue order (Section V: "LIFO collective scheduling policy to
//! give more priority to the collectives of first layers during
//! back-propagation").
//!
//! # Hot-path layout
//!
//! The event loop processes tens of millions of events per design-space
//! point, so the per-event state is kept allocation-free: chunk execution
//! state lives in a preallocated arena of reusable slots (the in-flight
//! cap bounds how many are live), per-chunk shard/admission byte sizes
//! are precomputed per phase at issue time, ring neighbors and all-to-all
//! routes are table lookups, and admission waiters queue in sequence-
//! ordered `VecDeque`s. `TryInject` events are coalesced so at most one
//! is pending for any timestamp.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

use ace_collectives::{
    partition_bounds, CollectiveOp, CollectivePlan, Granularity, PhaseKind, PhaseLink, PhaseSpec,
};
use ace_endpoint::CollectiveEngine;
use ace_net::{
    FaultPlan, Hop, LinkClass, NetShard, NetTx, Network, NetworkParams, NodeId, Port, Route,
    Topology, TopologySpec,
};
use ace_simcore::{EventQueue, Grant, SimTime};
use ace_trace::{NullTracer, PipeBusy, Tracer, Track};

/// Identifies an issued collective within its executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollHandle(pub(crate) usize);

/// How pending collectives are drained when injecting chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Most recently issued first (Section V: prioritizes the first
    /// layers' collectives during back-propagation). The paper's default.
    Lifo,
    /// Oldest first — the ablation comparator.
    Fifo,
}

/// Tunable executor knobs for ablation studies. The defaults reproduce
/// the paper's configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorOptions {
    /// Payload → chunk → message decomposition (Table III).
    pub granularity: Granularity,
    /// Collective drain order.
    pub scheduling: SchedulingPolicy,
    /// Whether ring chunks alternate between the two ring directions
    /// (bidirectional rings); `false` sends everything the + way.
    pub bidirectional_rings: bool,
    /// Global cap on in-flight ring chunks.
    pub max_inflight_chunks: usize,
    /// Worker threads for one exact simulation (`1` = serial). The event
    /// loop is partitioned by topology domain and synchronized with
    /// conservative lookahead windows; results are byte-identical to the
    /// serial engine, so this is a wall-clock knob, not a model knob, and
    /// it deliberately does not enter any sweep cache key.
    pub sim_threads: usize,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            granularity: Granularity::paper_default(),
            scheduling: SchedulingPolicy::Lifo,
            bidirectional_rings: true,
            max_inflight_chunks: MAX_INFLIGHT_CHUNKS,
            sim_threads: 1,
        }
    }
}

/// Default cap on globally in-flight ring chunks.
const MAX_INFLIGHT_CHUNKS: usize = 128;
/// Scheduler-lane track for trace events not tied to a node (chunk and
/// phase spans, queue-depth and pipe counters).
const TRACK_SIM: Track = Track { pid: 0, tid: 0 };
/// Event-delivery cadence for queue-depth / pipe-occupancy samples when a
/// recording tracer is attached: one sample every this many pops.
const TRACE_SAMPLE_POPS: u64 = 256;
/// Sentinel: node has not started any phase of a chunk.
const NOT_STARTED: u16 = u16::MAX;
/// Sentinel: chunk has no arena slot assigned.
const NO_SLOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Attempt to inject pending chunks (LIFO drain).
    TryInject,
    /// A chunk's TX DMA finished: charge the step-0 fetch and send.
    StepZero {
        coll: u32,
        chunk: u32,
        node: u32,
        phase: u16,
    },
    /// A ring message is ready at the egress port: transmit it.
    ///
    /// All link requests flow through this event so the FIFO link servers
    /// see them in global time order — transmitting directly at an
    /// engine-grant end would future-date reservations and serialize
    /// unrelated traffic behind them.
    Send {
        coll: u32,
        chunk: u32,
        node: u32,
        phase: u16,
        step: u16,
    },
    /// Ring message arrival at `node` for `(coll, chunk)` phase `phase`,
    /// step `step`.
    RingArrive {
        coll: u32,
        chunk: u32,
        node: u32,
        phase: u16,
        step: u16,
    },
    /// A node finished the final arrival processing of `phase`.
    PhaseDone {
        coll: u32,
        chunk: u32,
        node: u32,
        phase: u16,
    },
    /// Terminal RX-DMA drain finished at `node`.
    DrainDone { coll: u32, chunk: u32, node: u32 },
    /// An all-to-all message is ready to transmit hop `hop`.
    A2aSend {
        coll: u32,
        chunk: u32,
        flow: u32,
        hop: u16,
    },
    /// All-to-all flow arrived at hop `hop` of its route.
    A2aHop {
        coll: u32,
        chunk: u32,
        flow: u32,
        hop: u16,
    },
    /// A detoured ring message is ready to transmit hop `hop` of its
    /// fault-plan route. `node` is the detour origin (the sender whose
    /// direct ring link is killed); the route itself lives in the fault
    /// plan keyed by `(dim, direction, node)`.
    DetourSend {
        coll: u32,
        chunk: u32,
        node: u32,
        phase: u16,
        step: u16,
        hop: u16,
    },
    /// A detoured ring message landed at the start of hop `hop`:
    /// store-and-forward at the intermediate endpoint, then send on.
    DetourHop {
        coll: u32,
        chunk: u32,
        node: u32,
        phase: u16,
        step: u16,
        hop: u16,
    },
}

/// Content-derived tie-break key for an event: 64 bits packing the event's
/// identity, with the event kind in the top 4 bits.
///
/// Events at equal times pop in key order regardless of the order they
/// were scheduled in, which is what makes the domain-partitioned engine
/// reproduce the serial engine exactly: the interleaving in which
/// partitions emit events cannot leak into delivery order. `TryInject`
/// never takes a content key — it keeps the queue's plain sequence keys,
/// which stay below `2^60` and therefore sort before every content key at
/// equal times.
///
/// Ring events pack `kind(4) | coll(12) | chunk(18) | node(13) | phase(4)
/// | step(13)`; all-to-all events pack `kind(4) | coll(12) | chunk(18) |
/// flow(24) | hop(6)`. Fields beyond their width are masked: aliased keys
/// only soften tie-breaking between events that would have to collide on
/// every other field, and the key stays a pure function of content either
/// way. The node/flow widths are structural (≤ 8192 nodes for parallel
/// runs) and asserted in debug builds.
fn content_key(ev: &Ev) -> u64 {
    #[inline]
    fn ring(kind: u64, coll: u32, chunk: u32, node: u32, phase: u16, step: u16) -> u64 {
        debug_assert!(
            node < 1 << 13 && phase < 1 << 4 && step < 1 << 13,
            "ring event field exceeds its content-key width"
        );
        kind << 60
            | (coll as u64 & 0xfff) << 48
            | (chunk as u64 & 0x3ffff) << 30
            | (node as u64 & 0x1fff) << 17
            | (phase as u64 & 0xf) << 13
            | (step as u64 & 0x1fff)
    }
    #[inline]
    fn a2a(kind: u64, coll: u32, chunk: u32, flow: u32, hop: u16) -> u64 {
        debug_assert!(
            flow < 1 << 24 && hop < 1 << 6,
            "all-to-all event field exceeds its content-key width"
        );
        kind << 60
            | (coll as u64 & 0xfff) << 48
            | (chunk as u64 & 0x3ffff) << 30
            | (flow as u64 & 0xff_ffff) << 6
            | (hop as u64 & 0x3f)
    }
    match *ev {
        Ev::TryInject => unreachable!("TryInject keeps plain sequence keys"),
        Ev::StepZero {
            coll,
            chunk,
            node,
            phase,
        } => ring(1, coll, chunk, node, phase, 0),
        Ev::Send {
            coll,
            chunk,
            node,
            phase,
            step,
        } => ring(2, coll, chunk, node, phase, step),
        Ev::RingArrive {
            coll,
            chunk,
            node,
            phase,
            step,
        } => ring(3, coll, chunk, node, phase, step),
        Ev::PhaseDone {
            coll,
            chunk,
            node,
            phase,
        } => ring(4, coll, chunk, node, phase, 0),
        Ev::DrainDone { coll, chunk, node } => ring(5, coll, chunk, node, 0, 0),
        Ev::A2aSend {
            coll,
            chunk,
            flow,
            hop,
        } => a2a(6, coll, chunk, flow, hop),
        Ev::A2aHop {
            coll,
            chunk,
            flow,
            hop,
        } => a2a(7, coll, chunk, flow, hop),
        // Detour events fold the hop into the step bits (step in the low
        // 9, hop in the next 4). Detours only exist on faulted fabrics,
        // which always run serially, so the softened tie-breaking from
        // masking is harmless — the key stays a pure function of content.
        Ev::DetourSend {
            coll,
            chunk,
            node,
            phase,
            step,
            hop,
        } => ring(
            8,
            coll,
            chunk,
            node,
            phase,
            (step & 0x1ff) | ((hop & 0xf) << 9),
        ),
        Ev::DetourHop {
            coll,
            chunk,
            node,
            phase,
            step,
            hop,
        } => ring(
            9,
            coll,
            chunk,
            node,
            phase,
            (step & 0x1ff) | ((hop & 0xf) << 9),
        ),
    }
}

/// Where the event handlers schedule follow-up events: the serial
/// engine's global queue, or a partition's local queue plus
/// cross-partition outboxes. `node` is the node that will process the
/// event — its owning partition.
trait EvSink {
    fn emit(&mut self, at: SimTime, node: usize, ev: Ev);
}

impl EvSink for EventQueue<Ev> {
    fn emit(&mut self, at: SimTime, _node: usize, ev: Ev) {
        self.schedule_keyed(at, content_key(&ev), ev);
    }
}

impl<S: EvSink + ?Sized> EvSink for &mut S {
    fn emit(&mut self, at: SimTime, node: usize, ev: Ev) {
        (**self).emit(at, node, ev);
    }
}

/// Per-(slot, node) chunk execution rows as the handlers see them: the
/// serial engine passes the whole arena, a partition worker passes its
/// node range of every slot. Node indices are always global; partitioned
/// implementations subtract their base.
trait ChunkRows {
    fn node_phase(&self, slot: usize, node: usize) -> u16;
    fn set_node_phase(&mut self, slot: usize, node: usize, v: u16);
    fn arr(&self, slot: usize, node: usize) -> u16;
    fn incr_arr(&mut self, slot: usize, node: usize);
    fn reset_arr(&mut self, slot: usize, node: usize);
    fn pending_push(&mut self, slot: usize, node: usize, item: (u16, u16, SimTime));
    /// Moves the buffered arrivals for `phase` into `out`, preserving the
    /// relative order of everything else.
    fn pending_take(
        &mut self,
        slot: usize,
        node: usize,
        phase: u16,
        out: &mut Vec<(u16, u16, SimTime)>,
    );
}

impl ChunkRows for [ChunkState] {
    fn node_phase(&self, slot: usize, node: usize) -> u16 {
        self[slot].node_phase[node]
    }

    fn set_node_phase(&mut self, slot: usize, node: usize, v: u16) {
        self[slot].node_phase[node] = v;
    }

    fn arr(&self, slot: usize, node: usize) -> u16 {
        self[slot].arr_count[node]
    }

    fn incr_arr(&mut self, slot: usize, node: usize) {
        self[slot].arr_count[node] += 1;
    }

    fn reset_arr(&mut self, slot: usize, node: usize) {
        self[slot].arr_count[node] = 0;
    }

    fn pending_push(&mut self, slot: usize, node: usize, item: (u16, u16, SimTime)) {
        self[slot].pending[node].push(item);
    }

    fn pending_take(
        &mut self,
        slot: usize,
        node: usize,
        phase: u16,
        out: &mut Vec<(u16, u16, SimTime)>,
    ) {
        take_phase(&mut self[slot].pending[node], phase, out);
    }
}

impl<R: ChunkRows + ?Sized> ChunkRows for &mut R {
    fn node_phase(&self, slot: usize, node: usize) -> u16 {
        (**self).node_phase(slot, node)
    }

    fn set_node_phase(&mut self, slot: usize, node: usize, v: u16) {
        (**self).set_node_phase(slot, node, v);
    }

    fn arr(&self, slot: usize, node: usize) -> u16 {
        (**self).arr(slot, node)
    }

    fn incr_arr(&mut self, slot: usize, node: usize) {
        (**self).incr_arr(slot, node);
    }

    fn reset_arr(&mut self, slot: usize, node: usize) {
        (**self).reset_arr(slot, node);
    }

    fn pending_push(&mut self, slot: usize, node: usize, item: (u16, u16, SimTime)) {
        (**self).pending_push(slot, node, item);
    }

    fn pending_take(
        &mut self,
        slot: usize,
        node: usize,
        phase: u16,
        out: &mut Vec<(u16, u16, SimTime)>,
    ) {
        (**self).pending_take(slot, node, phase, out);
    }
}

/// Filters `pending` entries matching `phase` into `out` in order.
fn take_phase(
    pending: &mut Vec<(u16, u16, SimTime)>,
    phase: u16,
    out: &mut Vec<(u16, u16, SimTime)>,
) {
    if pending.is_empty() {
        return;
    }
    pending.retain(|&(p, s, at)| {
        if p == phase {
            out.push((p, s, at));
            false
        } else {
            true
        }
    });
}

/// One partition's slice of the arena: for every slot, the node rows of
/// `[base, base + len)`, locally indexed. Built by carving the serial
/// arena's vectors at stint entry and stitched back in partition order at
/// stint exit.
struct SlotRows {
    base: usize,
    node_phase: Vec<Vec<u16>>,
    arr_count: Vec<Vec<u16>>,
    pending: Vec<Vec<Vec<(u16, u16, SimTime)>>>,
}

impl ChunkRows for SlotRows {
    fn node_phase(&self, slot: usize, node: usize) -> u16 {
        self.node_phase[slot][node - self.base]
    }

    fn set_node_phase(&mut self, slot: usize, node: usize, v: u16) {
        self.node_phase[slot][node - self.base] = v;
    }

    fn arr(&self, slot: usize, node: usize) -> u16 {
        self.arr_count[slot][node - self.base]
    }

    fn incr_arr(&mut self, slot: usize, node: usize) {
        self.arr_count[slot][node - self.base] += 1;
    }

    fn reset_arr(&mut self, slot: usize, node: usize) {
        self.arr_count[slot][node - self.base] = 0;
    }

    fn pending_push(&mut self, slot: usize, node: usize, item: (u16, u16, SimTime)) {
        self.pending[slot][node - self.base].push(item);
    }

    fn pending_take(
        &mut self,
        slot: usize,
        node: usize,
        phase: u16,
        out: &mut Vec<(u16, u16, SimTime)>,
    ) {
        take_phase(&mut self.pending[slot][node - self.base], phase, out);
    }
}

/// Completion bookkeeping a handler reports instead of mutating the
/// chunk's global counters directly. The per-chunk `nodes_done` /
/// `flows_done` totals span partitions, so handlers — which may run on a
/// partition worker — emit a notice and the owner of the global state
/// (the serial loop, or the stint coordinator) applies it. Applying a
/// window's notices sorted by `(at, key)` reproduces the serial pop
/// order exactly.
#[derive(Debug, Clone, Copy)]
struct Notice {
    at: SimTime,
    /// Content key of the emitting event.
    key: u64,
    coll: u32,
    chunk: u32,
    kind: NoticeKind,
}

#[derive(Debug, Clone, Copy)]
enum NoticeKind {
    /// A node finished its terminal drain.
    Drain,
    /// An all-to-all flow landed at its destination; carries the chunk's
    /// completion-time candidate (RX-DMA drain end).
    A2aFinal { candidate: SimTime },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CollKind {
    Ring,
    AllToAll,
}

/// Per-chunk, per-node ring execution state. Instances live in the
/// executor's arena and are reused across chunks — the backing vectors
/// are cleared, not reallocated, when a slot is recycled.
#[derive(Debug, Default)]
struct ChunkState {
    /// Current phase per node (`NOT_STARTED` before injection; `P` = in
    /// terminal drain; `P + 1` = done).
    node_phase: Vec<u16>,
    /// Arrivals processed in the current phase, per node.
    arr_count: Vec<u16>,
    /// Buffered early arrivals `(phase, step, time)` per node.
    pending: Vec<Vec<(u16, u16, SimTime)>>,
    /// Nodes that finished the terminal drain.
    nodes_done: usize,
    /// All-to-all: flows completed.
    flows_done: usize,
    /// All-to-all: total flows.
    flows_total: usize,
}

impl ChunkState {
    /// Resets the slot for a fresh chunk over `nodes` nodes, keeping the
    /// vectors' capacity.
    fn reset(&mut self, nodes: usize) {
        self.node_phase.clear();
        self.node_phase.resize(nodes, NOT_STARTED);
        self.arr_count.clear();
        self.arr_count.resize(nodes, 0);
        if self.pending.len() < nodes {
            self.pending.resize_with(nodes, Vec::new);
        }
        for p in self.pending.iter_mut() {
            p.clear();
        }
        self.nodes_done = 0;
        self.flows_done = 0;
        self.flows_total = 0;
    }
}

/// Per-phase constants consulted on every ring event, precomputed at
/// issue time so the event handlers do table lookups instead of
/// re-deriving them from the plan's `PhaseSpec`.
#[derive(Debug, Clone, Copy)]
struct PhaseHot {
    /// Algorithm of the phase.
    kind: PhaseKind,
    /// Ring participant count.
    ring_k: u16,
    /// Last step index of the phase's rotate chain.
    final_step: u16,
    /// Topology dimension the phase rings over (indexes the executor's
    /// neighbor table).
    dim: u16,
    /// Egress port index (`Port::index()`) for even (+) chunks.
    port_idx_plus: u8,
    /// Egress port index for odd (−) chunks.
    port_idx_minus: u8,
}

#[derive(Debug)]
struct Coll {
    plan: CollectivePlan,
    kind: CollKind,
    chunk_sizes: Vec<u64>,
    issued_at: SimTime,
    next_chunk: usize,
    /// Global injection sequence per chunk (assigned at injection).
    chunk_seq: Vec<u64>,
    /// Arena slot per chunk (`NO_SLOT` when the chunk is not in flight).
    chunk_slot: Vec<u32>,
    done_chunks: usize,
    completed_at: Option<SimTime>,
    /// Whether the trailing chunk is shorter than the others (selects the
    /// second column of the byte caches).
    short_last: bool,
    /// Per-phase event-handler constants (ring phases only).
    phase_hot: Vec<PhaseHot>,
    /// Per-phase ring shard bytes, laid out `phase * 2 + short`.
    shard_cache: Vec<u64>,
    /// Per-phase admission bytes (incl. the terminal partition at index
    /// `phases * 2 + short`), same layout.
    admit_cache: Vec<u64>,
    /// All-to-all: number of leading destination offsets carrying one
    /// extra payload byte (`payload % nodes` remainder distribution).
    a2a_extra: u64,
}

impl Coll {
    fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Byte-cache column for `chunk`: 1 for the short trailing chunk.
    fn short_idx(&self, chunk: usize) -> usize {
        usize::from(self.short_last && chunk + 1 == self.chunk_sizes.len())
    }
}

/// Waiting admission entry: chunk waiting for space in a phase partition.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    coll: u32,
    chunk: u32,
    /// Phase whose partition is still held (released on success);
    /// `NOT_STARTED` when nothing is held (initial injection).
    held_phase: u16,
}

/// The event-handler state machine, factored out of the executor so the
/// same handler code runs in two homes: the serial loop (global queue,
/// whole network, whole arena) and a partition worker (local queue +
/// outboxes, network shard, arena slice). Everything the handlers can
/// touch is per-node state owned by exactly one partition; the only
/// global effects — chunk completion counting — leave through `notices`.
struct ExecCtx<'a, E, S, N, R, TT> {
    nodes: usize,
    options: ExecutorOptions,
    colls: &'a [Coll],
    dim_nbrs: &'a [NodeId],
    a2a_routes: &'a [Route],
    /// The degradation plan, when the fabric is faulted: ring sends whose
    /// direct link is killed consult its detour routes. `None` on
    /// pristine fabrics and always `None` in parallel stints (faulted
    /// runs are pinned to the serial loop).
    fault: Option<&'a FaultPlan>,
    engines: &'a mut [E],
    admit_wait: &'a mut [Vec<VecDeque<(u64, Waiter)>>],
    /// Global node id of `engines[0]` / `admit_wait[0]` (0 serially).
    base: usize,
    rows: R,
    scratch: &'a mut Vec<(u16, u16, SimTime)>,
    sink: S,
    net: N,
    notices: &'a mut Vec<Notice>,
    tracer: &'a mut TT,
}

/// Arena slot of a live chunk.
fn chunk_slot_of(coll: &Coll, chunk: usize) -> usize {
    let slot = coll.chunk_slot[chunk];
    debug_assert_ne!(slot, NO_SLOT, "chunk state accessed outside its lifetime");
    slot as usize
}

/// Bytes a chunk occupies in the partition of `phase` (`P` = terminal).
fn admit_bytes_of(coll: &Coll, chunk: usize, phase: u16) -> u64 {
    coll.admit_cache[phase as usize * 2 + coll.short_idx(chunk)]
}

/// Per-node shard size moved in one ring step of `phase`.
fn shard_bytes_of(coll: &Coll, chunk: usize, phase: u16) -> u64 {
    coll.shard_cache[phase as usize * 2 + coll.short_idx(chunk)]
}

/// Bytes flow `flow` carries for `chunk`: the chunk's share of the
/// per-destination slice, plus one remainder byte on the last chunk of
/// the first `payload % nodes` destination offsets. Summed over a
/// source's flows and its local slice this reproduces the original
/// payload exactly (byte conservation).
fn a2a_flow_bytes_of(coll: &Coll, nodes: usize, chunk: usize, flow: usize) -> u64 {
    let off = (flow % (nodes - 1)) as u64;
    let last = chunk + 1 == coll.chunk_sizes.len();
    coll.chunk_sizes[chunk] + u64::from(last && off < coll.a2a_extra)
}

impl<E, S, N, R, TT> ExecCtx<'_, E, S, N, R, TT>
where
    E: CollectiveEngine,
    S: EvSink,
    N: NetTx,
    R: ChunkRows,
    TT: Tracer,
{
    fn engine(&mut self, node: usize) -> &mut E {
        &mut self.engines[node - self.base]
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::TryInject => unreachable!("TryInject is handled by the executor's serial loop"),
            Ev::StepZero {
                coll,
                chunk,
                node,
                phase,
            } => {
                self.step_zero(now, coll as usize, chunk as usize, node as usize, phase);
            }
            Ev::Send {
                coll,
                chunk,
                node,
                phase,
                step,
            } => {
                self.ring_send(
                    now,
                    coll as usize,
                    chunk as usize,
                    node as usize,
                    phase,
                    step,
                );
            }
            Ev::RingArrive {
                coll,
                chunk,
                node,
                phase,
                step,
            } => {
                self.ring_arrive(
                    now,
                    coll as usize,
                    chunk as usize,
                    node as usize,
                    phase,
                    step,
                );
            }
            Ev::PhaseDone {
                coll,
                chunk,
                node,
                phase,
            } => {
                self.phase_done(now, coll as usize, chunk as usize, node as usize, phase);
            }
            Ev::DrainDone { coll, chunk, node } => {
                self.drain_done(now, coll as usize, chunk as usize, node as usize);
            }
            Ev::A2aSend {
                coll,
                chunk,
                flow,
                hop,
            } => {
                self.a2a_send(
                    now,
                    coll as usize,
                    chunk as usize,
                    flow as usize,
                    hop as usize,
                );
            }
            Ev::A2aHop {
                coll,
                chunk,
                flow,
                hop,
            } => {
                self.a2a_hop(
                    now,
                    coll as usize,
                    chunk as usize,
                    flow as usize,
                    hop as usize,
                );
            }
            Ev::DetourSend {
                coll,
                chunk,
                node,
                phase,
                step,
                hop,
            } => {
                self.detour_send(
                    now,
                    coll as usize,
                    chunk as usize,
                    node as usize,
                    phase,
                    step,
                    hop as usize,
                );
            }
            Ev::DetourHop {
                coll,
                chunk,
                node,
                phase,
                step,
                hop,
            } => {
                self.detour_hop(
                    now,
                    coll as usize,
                    chunk as usize,
                    node as usize,
                    phase,
                    step,
                    hop as usize,
                );
            }
        }
    }

    /// Requests admission into `phase` for `(cid, chunk)` at `node`,
    /// releasing `held_phase` on success. Queues a waiter on failure or
    /// when earlier-sequence chunks are already waiting for the same
    /// partition (strict global admission order; see `admit_wait`).
    fn request_phase(
        &mut self,
        now: SimTime,
        cid: usize,
        chunk: usize,
        node: usize,
        phase: u16,
        held_phase: u16,
    ) {
        let p = phase as usize;
        let aw = &mut self.admit_wait[node - self.base];
        if aw.len() <= p {
            aw.resize_with(p + 1, VecDeque::new);
        }
        let bytes = admit_bytes_of(&self.colls[cid], chunk, phase);
        if self.admit_wait[node - self.base][p].is_empty()
            && self.engine(node).try_admit(p, bytes, now)
        {
            if held_phase != NOT_STARTED {
                let held_bytes = admit_bytes_of(&self.colls[cid], chunk, held_phase);
                self.engine(node)
                    .release(held_phase as usize, held_bytes, now);
                self.retry_waiters(now, node);
            }
            self.start_phase(now, cid, chunk, node, phase);
        } else {
            let seq = self.colls[cid].chunk_seq[chunk];
            debug_assert_ne!(seq, u64::MAX, "chunk admitted before injection");
            let w = Waiter {
                coll: cid as u32,
                chunk: chunk as u32,
                held_phase,
            };
            let q = &mut self.admit_wait[node - self.base][p];
            // Waiters almost always arrive in sequence order; fall back to
            // a sorted insert for the cross-phase stragglers.
            if q.back().is_none_or(|&(s, _)| s < seq) {
                q.push_back((seq, w));
            } else {
                let pos = q.partition_point(|&(s, _)| s < seq);
                q.insert(pos, (seq, w));
            }
        }
    }

    /// Retries queued admissions at `node` after a partition release.
    ///
    /// Per phase, waiters are admitted strictly in global sequence order,
    /// stopping at the first that does not fit. A successful waiter
    /// releases the partition it held, which can unblock waiters of
    /// another phase — passes repeat until no progress is made.
    fn retry_waiters(&mut self, now: SimTime, node: usize) {
        let ln = node - self.base;
        loop {
            let mut progress = false;
            for p in 0..self.admit_wait[ln].len() {
                while let Some(&(_, w)) = self.admit_wait[ln][p].front() {
                    let bytes =
                        admit_bytes_of(&self.colls[w.coll as usize], w.chunk as usize, p as u16);
                    if !self.engine(node).try_admit(p, bytes, now) {
                        break;
                    }
                    self.admit_wait[ln][p].pop_front();
                    if w.held_phase != NOT_STARTED {
                        let held = admit_bytes_of(
                            &self.colls[w.coll as usize],
                            w.chunk as usize,
                            w.held_phase,
                        );
                        self.engine(node).release(w.held_phase as usize, held, now);
                    }
                    progress = true;
                    self.start_phase(now, w.coll as usize, w.chunk as usize, node, p as u16);
                }
            }
            if !progress {
                break;
            }
        }
    }

    /// Phase entry: run the TX DMA for phase 0, kick off the terminal
    /// drain for phase `P`, otherwise send ring step 0.
    fn start_phase(&mut self, now: SimTime, cid: usize, chunk: usize, node: usize, phase: u16) {
        let n_phases = self.colls[cid].plan.phases().len() as u16;
        // Phase lifetimes are traced from node 0's perspective: one
        // async span per (collective, chunk, phase), not per node.
        if self.tracer.enabled() && node == 0 && phase < n_phases {
            self.tracer
                .begin(TRACK_SIM, "phase", phase_trace_id(cid, chunk, phase), now);
        }
        let slot = chunk_slot_of(&self.colls[cid], chunk);
        self.rows.set_node_phase(slot, node, phase);
        self.rows.reset_arr(slot, node);
        if phase == n_phases {
            // Terminal drain: RX DMA back to HBM.
            let bytes = admit_bytes_of(&self.colls[cid], chunk, phase);
            let done = self.engine(node).chunk_complete(now, bytes);
            self.sink.emit(
                done.max(now),
                node,
                Ev::DrainDone {
                    coll: cid as u32,
                    chunk: chunk as u32,
                    node: node as u32,
                },
            );
            return;
        }
        if phase == 0 {
            // TX DMA stages the chunk into the engine; the step-0 send
            // fires when the data is resident.
            let size = self.colls[cid].chunk_sizes[chunk];
            let staged = self.engine(node).chunk_inject(now, size);
            self.sink.emit(
                staged.max(now),
                node,
                Ev::StepZero {
                    coll: cid as u32,
                    chunk: chunk as u32,
                    node: node as u32,
                    phase,
                },
            );
        } else {
            self.step_zero(now, cid, chunk, node, phase);
        }
        // Replay any arrivals buffered for this phase.
        self.replay_pending(now, cid, chunk, node, phase);
    }

    /// Charges the step-0 fetch and schedules its transmission.
    fn step_zero(&mut self, now: SimTime, cid: usize, chunk: usize, node: usize, phase: u16) {
        let shard = shard_bytes_of(&self.colls[cid], chunk, phase);
        let ready = self.engine(node).fetch_and_send(now, shard, phase as usize);
        self.sink.emit(
            ready.max(now),
            node,
            Ev::Send {
                coll: cid as u32,
                chunk: chunk as u32,
                node: node as u32,
                phase,
                step: 0,
            },
        );
    }

    fn replay_pending(&mut self, now: SimTime, cid: usize, chunk: usize, node: usize, phase: u16) {
        let mut scratch = std::mem::take(self.scratch);
        scratch.clear();
        let slot = chunk_slot_of(&self.colls[cid], chunk);
        self.rows.pending_take(slot, node, phase, &mut scratch);
        for &(p, s, at) in &scratch {
            self.ring_arrive(now.max(at), cid, chunk, node, p, s);
        }
        scratch.clear();
        *self.scratch = scratch;
    }

    /// Records a link busy span from a transmit grant on the sending
    /// node's per-port lane. The span's integer `[start, end)` service
    /// window is exactly what the network's utilization meter credits, so
    /// summing recorded `link:` spans reproduces
    /// [`Network::util_busy_total_cycles`] — the reconciliation the trace
    /// property tests enforce.
    #[inline]
    fn trace_link(&mut self, node: usize, port_idx: usize, grant: Grant) {
        if self.tracer.enabled() {
            self.tracer.span(
                Track {
                    pid: 1 + node as u32,
                    tid: port_idx as u32,
                },
                &format!("link:n{node}:p{port_idx}"),
                grant.start,
                grant.end,
            );
        }
    }

    /// Transmits a ring message for step `step` of `phase` from `node` to
    /// its ring neighbor, scheduling the arrival event. Runs as the `Send`
    /// event handler so link requests are issued in global time order.
    fn ring_send(
        &mut self,
        now: SimTime,
        cid: usize,
        chunk: usize,
        node: usize,
        phase: u16,
        step: u16,
    ) {
        let bytes = shard_bytes_of(&self.colls[cid], chunk, phase);
        let hot = self.colls[cid].phase_hot[phase as usize];
        // Bidirectional rings: alternate chunk parity across directions
        // (unidirectional mode sends everything the + way — an ablation).
        let plus = !self.options.bidirectional_rings || chunk.is_multiple_of(2);
        let (port_idx, dir) = if plus {
            (hot.port_idx_plus as usize, 0)
        } else {
            (hot.port_idx_minus as usize, 1)
        };
        let dst = self.dim_nbrs[(hot.dim as usize * 2 + dir) * self.nodes + node];
        // On a faulted fabric the direct ring link may be killed: the
        // fault plan then carries a BFS detour route to the same ring
        // neighbor, and the message travels it hop by hop instead.
        if let Some(fp) = self.fault {
            if fp
                .ring_detour(hot.dim as usize, plus, NodeId(node))
                .is_some()
            {
                self.detour_send(now, cid, chunk, node, phase, step, 0);
                return;
            }
        }
        let out = self
            .net
            .transmit(now, NodeId(node), Port::from_index(port_idx), bytes);
        self.trace_link(node, port_idx, out.grant);
        self.sink.emit(
            out.arrival,
            dst.index(),
            Ev::RingArrive {
                coll: cid as u32,
                chunk: chunk as u32,
                node: dst.index() as u32,
                phase,
                step,
            },
        );
    }

    /// The fault-plan detour route for a ring send from `node` (the hop
    /// at `hop` plus whether it is the last), looked up by the sending
    /// chunk's ring direction.
    fn detour_hop_at(
        &self,
        cid: usize,
        chunk: usize,
        node: usize,
        phase: u16,
        hop: usize,
    ) -> (Hop, bool) {
        let hot = self.colls[cid].phase_hot[phase as usize];
        let plus = !self.options.bidirectional_rings || chunk.is_multiple_of(2);
        let route = self
            .fault
            .expect("detour events only exist on faulted fabrics")
            .ring_detour(hot.dim as usize, plus, NodeId(node))
            .expect("detour event for an intact ring link");
        (route[hop], hop + 1 == route.len())
    }

    /// Transmits hop `hop` of a detoured ring message. The final hop
    /// lands as an ordinary `RingArrive` at the ring neighbor, so the
    /// receiving state machine cannot tell a detour from a direct send.
    #[allow(clippy::too_many_arguments)]
    fn detour_send(
        &mut self,
        now: SimTime,
        cid: usize,
        chunk: usize,
        node: usize,
        phase: u16,
        step: u16,
        hop: usize,
    ) {
        let bytes = shard_bytes_of(&self.colls[cid], chunk, phase);
        let (h, last) = self.detour_hop_at(cid, chunk, node, phase, hop);
        let out = self.net.transmit(now, h.from, h.port, bytes);
        self.trace_link(h.from.index(), h.port.index(), out.grant);
        if last {
            self.sink.emit(
                out.arrival,
                h.to.index(),
                Ev::RingArrive {
                    coll: cid as u32,
                    chunk: chunk as u32,
                    node: h.to.index() as u32,
                    phase,
                    step,
                },
            );
        } else {
            self.sink.emit(
                out.arrival,
                h.to.index(),
                Ev::DetourHop {
                    coll: cid as u32,
                    chunk: chunk as u32,
                    node: node as u32,
                    phase,
                    step,
                    hop: hop as u16 + 1,
                },
            );
        }
    }

    /// A detoured ring message landed at an intermediate endpoint:
    /// charge the store-and-forward cost there, then transmit the next
    /// hop.
    #[allow(clippy::too_many_arguments)]
    fn detour_hop(
        &mut self,
        now: SimTime,
        cid: usize,
        chunk: usize,
        node: usize,
        phase: u16,
        step: u16,
        hop: usize,
    ) {
        let bytes = shard_bytes_of(&self.colls[cid], chunk, phase);
        let (h, _) = self.detour_hop_at(cid, chunk, node, phase, hop);
        let at = h.from.index();
        let ready = self
            .engine(at)
            .store_and_forward(now, bytes, phase as usize);
        self.sink.emit(
            ready.max(now),
            at,
            Ev::DetourSend {
                coll: cid as u32,
                chunk: chunk as u32,
                node: node as u32,
                phase,
                step,
                hop: hop as u16,
            },
        );
    }

    fn ring_arrive(
        &mut self,
        now: SimTime,
        cid: usize,
        chunk: usize,
        node: usize,
        phase: u16,
        step: u16,
    ) {
        // Buffer arrivals for phases the node has not entered yet.
        let slot = chunk_slot_of(&self.colls[cid], chunk);
        let np = self.rows.node_phase(slot, node);
        if np == NOT_STARTED || np < phase {
            self.rows.pending_push(slot, node, (phase, step, now));
            return;
        }
        debug_assert_eq!(np, phase, "arrival for a past phase");
        // Steps of one phase normally land in order (sends are chained
        // and links are FIFO), but a fault-plan detour's intermediate
        // store-and-forward can grant a later step an earlier finish on
        // a multi-lane engine. Hold a future step until its
        // predecessors have been consumed; the trailing replay below
        // drains it as soon as the gap closes.
        let expected = self.rows.arr(slot, node);
        if step > expected {
            self.rows.pending_push(slot, node, (phase, step, now));
            return;
        }
        debug_assert_eq!(step, expected, "duplicate ring arrival");
        self.rows.incr_arr(slot, node);
        let hot = self.colls[cid].phase_hot[phase as usize];
        let k = hot.ring_k;
        let final_step = hot.final_step;
        let shard = shard_bytes_of(&self.colls[cid], chunk, phase);
        let engine = self.engine(node);
        // The landing write and the processing of the step pipeline
        // through independent resources; both are charged at the arrival
        // time and the step completes when the slowest finishes.
        let landed = engine.receive(now, shard, phase as usize);
        let reduces = match hot.kind {
            PhaseKind::ReduceScatter => true,
            PhaseKind::AllGather => false,
            PhaseKind::RingAllReduce => step <= k - 2,
            PhaseKind::DirectAllToAll => false,
        };
        if step < final_step {
            let ready = if reduces {
                engine.reduce_and_send(now, shard, phase as usize)
            } else {
                engine.fetch_and_send(now, shard, phase as usize)
            };
            self.sink.emit(
                ready.max(landed).max(now),
                node,
                Ev::Send {
                    coll: cid as u32,
                    chunk: chunk as u32,
                    node: node as u32,
                    phase,
                    step: step + 1,
                },
            );
        } else {
            // Final arrival of the phase.
            let done = if reduces {
                engine.reduce_and_store(now, shard, phase as usize)
            } else {
                landed
            };
            self.sink.emit(
                done.max(now),
                node,
                Ev::PhaseDone {
                    coll: cid as u32,
                    chunk: chunk as u32,
                    node: node as u32,
                    phase,
                },
            );
        }
        // A reordered successor step may be waiting on the one just
        // consumed (no-op on the pristine fast path: pending is empty).
        self.replay_pending(now, cid, chunk, node, phase);
    }

    fn phase_done(&mut self, now: SimTime, cid: usize, chunk: usize, node: usize, phase: u16) {
        if self.tracer.enabled() && node == 0 {
            self.tracer
                .end(TRACK_SIM, "phase", phase_trace_id(cid, chunk, phase), now);
        }
        let next = phase + 1;
        self.request_phase(now, cid, chunk, node, next, phase);
    }

    fn drain_done(&mut self, now: SimTime, cid: usize, chunk: usize, node: usize) {
        let n_phases = self.colls[cid].plan.phases().len() as u16;
        let terminal_bytes = admit_bytes_of(&self.colls[cid], chunk, n_phases);
        self.engine(node)
            .release(n_phases as usize, terminal_bytes, now);
        self.retry_waiters(now, node);
        let slot = chunk_slot_of(&self.colls[cid], chunk);
        self.rows.set_node_phase(slot, node, n_phases + 1);
        let ev = Ev::DrainDone {
            coll: cid as u32,
            chunk: chunk as u32,
            node: node as u32,
        };
        self.notices.push(Notice {
            at: now,
            key: content_key(&ev),
            coll: cid as u32,
            chunk: chunk as u32,
            kind: NoticeKind::Drain,
        });
    }

    /// Transmits hop `hop` of an all-to-all flow at event time.
    fn a2a_send(&mut self, now: SimTime, cid: usize, chunk: usize, flow: usize, hop: usize) {
        let bytes = a2a_flow_bytes_of(&self.colls[cid], self.nodes, chunk, flow);
        let routes = self.a2a_routes;
        let h = routes[flow][hop];
        let out = self.net.transmit(now, h.from, h.port, bytes);
        self.trace_link(h.from.index(), h.port.index(), out.grant);
        // The next event runs where the message lands: `h.to` starts the
        // next hop (routes are contiguous) or is the final destination.
        self.sink.emit(
            out.arrival,
            h.to.index(),
            Ev::A2aHop {
                coll: cid as u32,
                chunk: chunk as u32,
                flow: flow as u32,
                hop: hop as u16 + 1,
            },
        );
    }

    fn a2a_hop(&mut self, now: SimTime, cid: usize, chunk: usize, flow: usize, hop: usize) {
        let bytes = a2a_flow_bytes_of(&self.colls[cid], self.nodes, chunk, flow);
        let routes = self.a2a_routes;
        let route = &routes[flow];
        if hop < route.len() {
            // Intermediate endpoint: store-and-forward, then next hop.
            let at = route[hop].from.index();
            let ready = self.engine(at).store_and_forward(now, bytes, 0);
            self.sink.emit(
                ready.max(now),
                at,
                Ev::A2aSend {
                    coll: cid as u32,
                    chunk: chunk as u32,
                    flow: flow as u32,
                    hop: hop as u16,
                },
            );
        } else {
            // Final arrival at the destination.
            let dst = route.last().expect("route nonempty").to.index();
            let landed = self.engine(dst).receive(now, bytes, 0);
            let done = self.engine(dst).chunk_complete(landed, bytes);
            let ev = Ev::A2aHop {
                coll: cid as u32,
                chunk: chunk as u32,
                flow: flow as u32,
                hop: hop as u16,
            };
            self.notices.push(Notice {
                at: now,
                key: content_key(&ev),
                coll: cid as u32,
                chunk: chunk as u32,
                kind: NoticeKind::A2aFinal {
                    candidate: done.max(now),
                },
            });
        }
    }
}

// ---------------------------------------------------------------------
// Parallel stint machinery
// ---------------------------------------------------------------------

/// A cross-partition event in flight: `(arrival time, content key, event)`.
type CrossMsg = (SimTime, u64, Ev);

/// Event sink for a partition worker: events owned by this partition go
/// straight into the local queue; events owned by another partition are
/// staged in the per-destination outbox and delivered at the window
/// barrier. The lookahead guarantees remote arrivals land at or beyond
/// the window end, so late delivery never reorders anything.
struct PartSink<'a> {
    queue: &'a mut EventQueue<Ev>,
    outbox: &'a mut [Vec<CrossMsg>],
    node_part: &'a [u32],
    me: usize,
}

impl EvSink for PartSink<'_> {
    fn emit(&mut self, at: SimTime, node: usize, ev: Ev) {
        let part = self.node_part[node] as usize;
        if part == self.me {
            self.queue.schedule_keyed(at, content_key(&ev), ev);
        } else {
            self.outbox[part].push((at, content_key(&ev), ev));
        }
    }
}

/// The node whose partition processes `ev` — the same node the handlers
/// charge engine costs on.
fn ev_owner(a2a_routes: &[Route], ev: &Ev) -> usize {
    match ev {
        Ev::StepZero { node, .. }
        | Ev::Send { node, .. }
        | Ev::RingArrive { node, .. }
        | Ev::PhaseDone { node, .. }
        | Ev::DrainDone { node, .. } => *node as usize,
        Ev::A2aSend { flow, hop, .. } => a2a_routes[*flow as usize][*hop as usize].from.index(),
        Ev::A2aHop { flow, hop, .. } => {
            let route = &a2a_routes[*flow as usize];
            let h = *hop as usize;
            if h < route.len() {
                route[h].from.index()
            } else {
                route.last().expect("route nonempty").to.index()
            }
        }
        Ev::DetourSend { .. } | Ev::DetourHop { .. } => {
            unreachable!("detour events only exist on faulted (serial-only) runs")
        }
        Ev::TryInject => unreachable!("TryInject cannot be pending during a parallel stint"),
    }
}

/// Precomputed parallel-execution plan: contiguous domain partitions,
/// the node → partition map, and the conservative lookahead (cycles)
/// from the cheapest partition-crossing link.
struct ParPlan {
    bounds: Vec<(usize, usize)>,
    node_part: Vec<u32>,
    lookahead: u64,
}

/// Whether a fan-out (crossbar) link at `node` can reach another
/// partition. On a hierarchical fabric the crossbar only spans the
/// node's scale-up domain, so a partition that contains the whole domain
/// contains all its crossbar traffic; any other fan-out link is assumed
/// to reach everywhere.
fn fanout_crosses(spec: &TopologySpec, node: usize, node_part: &[u32]) -> bool {
    match *spec {
        TopologySpec::Hierarchical { scale_up, .. } => {
            let su = (scale_up as usize).max(1);
            let lo = node - node % su;
            let p = node_part[lo];
            node_part[lo..lo + su].iter().any(|&q| q != p)
        }
        _ => true,
    }
}

/// The conservative lookahead: the smallest propagation latency of any
/// link whose traffic can cross a partition boundary. Every event a
/// worker processes in a window `[w0, w1)` with `w1 <= min_next + L`
/// produces remote arrivals at `>= t + L >= min_next + L >= w1`, so
/// barrier-delivered messages never land inside a window already
/// processed — the protocol's safety argument.
fn lookahead_cycles(net: &Network, node_part: &[u32]) -> u64 {
    let topo = net.topology();
    let spec = topo.spec();
    let mut min_lat = u64::MAX / 2;
    for node in 0..topo.nodes() {
        for p in 0..topo.ports_per_node() {
            let port = Port::from_index(p);
            let Some(link) = net.link(NodeId(node), port) else {
                continue;
            };
            let crosses = match topo.link_peer(NodeId(node), port) {
                Some(peer) => node_part[peer.index()] != node_part[node],
                None => fanout_crosses(&spec, node, node_part),
            };
            if crosses {
                min_lat = min_lat.min(link.params().latency_cycles);
            }
        }
    }
    min_lat
}

/// Builds the partition plan for `threads` workers over `net`'s
/// topology, or `None` when partitioning cannot work: one thread, a
/// sub-2-node fabric, no ring dimension to derive an alignment from, a
/// single resulting partition, or zero-latency crossing links (no
/// lookahead to hide the synchronization behind).
fn partition_plan(net: &Network, threads: usize) -> Option<ParPlan> {
    if threads <= 1 {
        return None;
    }
    let topo = net.topology();
    let nodes = topo.nodes();
    if nodes < 2 {
        return None;
    }
    let dims = topo.dims();
    // Boundary stride: the node-id stride of the outermost ring
    // dimension, so aligned boundaries are only crossed by that
    // dimension's (slow, high-latency) links.
    let outer = dims.iter().rposition(|d| d.len > 1)?;
    let align: usize = dims[..outer].iter().map(|d| d.len).product();
    let bounds = partition_bounds(nodes, threads, align.max(1));
    if bounds.len() < 2 {
        return None;
    }
    let mut node_part = vec![0u32; nodes];
    for (i, &(lo, hi)) in bounds.iter().enumerate() {
        node_part[lo..hi].fill(i as u32);
    }
    let lookahead = lookahead_cycles(net, &node_part);
    if lookahead == 0 {
        return None;
    }
    Some(ParPlan {
        bounds,
        node_part,
        lookahead,
    })
}

/// Splits `items` into per-partition mutable slices along `bounds`.
fn split_by_bounds<'s, X>(items: &'s mut [X], bounds: &[(usize, usize)]) -> Vec<&'s mut [X]> {
    let mut out = Vec::with_capacity(bounds.len());
    let mut rest = items;
    let mut covered = 0usize;
    for &(lo, hi) in bounds {
        debug_assert_eq!(lo, covered, "bounds must tile the items");
        let (head, tail) = rest.split_at_mut(hi - lo);
        out.push(head);
        rest = tail;
        covered = hi;
    }
    debug_assert!(rest.is_empty(), "bounds must cover every item");
    out
}

/// End-of-window report a worker posts for the coordinator.
#[derive(Default)]
struct Report {
    /// Earliest pending event after mailbox delivery (`None` = idle).
    next: Option<SimTime>,
    /// Completion notices emitted during the window.
    notices: Vec<Notice>,
}

/// The coordinator's verdict for the next window.
#[derive(Clone, Copy)]
struct Cmd {
    stop: bool,
    /// Exclusive end of the next processing window.
    window: SimTime,
}

/// State shared by every worker of one parallel stint.
struct StintShared<'a> {
    nodes: usize,
    options: ExecutorOptions,
    colls: &'a [Coll],
    dim_nbrs: &'a [NodeId],
    a2a_routes: &'a [Route],
    node_part: &'a [u32],
    lookahead: u64,
    barrier: Barrier,
    /// `mailboxes[dst][src]`: events bound for partition `dst`.
    mailboxes: Vec<Vec<Mutex<Vec<CrossMsg>>>>,
    reports: Vec<Mutex<Report>>,
    cmd: Mutex<Cmd>,
    /// Set when any worker's window panicked; the stint stops at the
    /// next barrier and the payload is rethrown after merge.
    poisoned: AtomicBool,
}

/// One partition's private stint state: its event queue, its node range
/// of the engines / admission queues / arena rows, and its network
/// shard.
struct Worker<'w, E> {
    me: usize,
    base: usize,
    queue: EventQueue<Ev>,
    engines: &'w mut [E],
    admit: &'w mut [Vec<VecDeque<(u64, Waiter)>>],
    rows: SlotRows,
    shard: NetShard<'w>,
    outbox: Vec<Vec<CrossMsg>>,
    scratch: Vec<(u16, u16, SimTime)>,
    notices: Vec<Notice>,
}

/// Serializes cross-partition completion counting so it reproduces the
/// serial order: each window's notices, gathered from every worker and
/// sorted by `(time, content key)`, are applied to a snapshot of the
/// per-slot counters exactly as the serial loop would have popped the
/// emitting events.
struct Coordinator {
    nodes: usize,
    /// Per-slot `(nodes_done, flows_done)` snapshot.
    counts: Vec<(usize, usize)>,
    flows_total: Vec<usize>,
    /// Target chunks still incomplete; the stint stops at zero.
    chunks_left: usize,
    /// Completions in serial order: `(coll, chunk, completion time)`.
    completions: Vec<(u32, u32, SimTime)>,
    deadlocked: bool,
    scratch: Vec<Notice>,
}

impl Coordinator {
    /// One barrier round: fold in the window's notices, then decide
    /// whether to stop or how far the next window extends.
    fn step(&mut self, sh: &StintShared<'_>) {
        self.scratch.clear();
        let mut next: Option<SimTime> = None;
        for r in &sh.reports {
            let mut rep = r.lock().expect("report lock");
            self.scratch.append(&mut rep.notices);
            if let Some(t) = rep.next {
                next = Some(next.map_or(t, |m| m.min(t)));
            }
        }
        self.scratch.sort_by_key(|n| (n.at, n.key));
        for n in &self.scratch {
            let slot = chunk_slot_of(&sh.colls[n.coll as usize], n.chunk as usize);
            let complete = match n.kind {
                NoticeKind::Drain => {
                    self.counts[slot].0 += 1;
                    (self.counts[slot].0 == self.nodes).then_some(n.at)
                }
                NoticeKind::A2aFinal { candidate } => {
                    self.counts[slot].1 += 1;
                    (self.counts[slot].1 == self.flows_total[slot]).then_some(candidate)
                }
            };
            if let Some(at) = complete {
                self.completions.push((n.coll, n.chunk, at));
                self.chunks_left -= 1;
            }
        }
        let mut cmd = sh.cmd.lock().expect("cmd lock");
        if self.chunks_left == 0 || sh.poisoned.load(Ordering::SeqCst) {
            cmd.stop = true;
        } else if let Some(t) = next {
            cmd.window = SimTime::from_cycles(t.cycles().saturating_add(sh.lookahead));
        } else {
            // Every queue drained with chunks outstanding.
            self.deadlocked = true;
            cmd.stop = true;
        }
    }
}

/// Processes every event of `w`'s queue strictly before `window`.
fn process_window<E: CollectiveEngine>(
    sh: &StintShared<'_>,
    w: &mut Worker<'_, E>,
    window: SimTime,
) {
    let mut null_tracer = NullTracer;
    while w.queue.peek_time().is_some_and(|t| t < window) {
        let (now, _key, ev) = w.queue.pop_keyed().expect("peeked");
        let mut ctx = ExecCtx {
            nodes: sh.nodes,
            options: sh.options,
            colls: sh.colls,
            dim_nbrs: sh.dim_nbrs,
            a2a_routes: sh.a2a_routes,
            // Faulted fabrics never reach a parallel stint.
            fault: None,
            engines: &mut *w.engines,
            admit_wait: &mut *w.admit,
            base: w.base,
            rows: &mut w.rows,
            scratch: &mut w.scratch,
            sink: PartSink {
                queue: &mut w.queue,
                outbox: &mut w.outbox,
                node_part: sh.node_part,
                me: w.me,
            },
            net: &mut w.shard,
            notices: &mut w.notices,
            tracer: &mut null_tracer,
        };
        ctx.dispatch(now, ev);
    }
}

/// One worker's stint loop. Per window: process local events, deliver
/// outboxes, barrier, drain mailboxes, report, barrier, (worker 0 only)
/// coordinate, barrier, re-read the command. A panic inside the window
/// is caught so the other workers can reach the barriers; the payload is
/// rethrown by the stint driver after state is merged back.
fn stint_worker<'w, E: CollectiveEngine>(
    sh: &StintShared<'_>,
    mut w: Worker<'w, E>,
    mut coordinator: Option<&mut Coordinator>,
) -> (Worker<'w, E>, Option<Box<dyn Any + Send>>) {
    let parts = sh.mailboxes.len();
    let mut payload: Option<Box<dyn Any + Send>> = None;
    loop {
        let cmd = *sh.cmd.lock().expect("cmd lock");
        if cmd.stop {
            break;
        }
        if payload.is_none() && !sh.poisoned.load(Ordering::SeqCst) {
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                process_window(sh, &mut w, cmd.window);
            })) {
                sh.poisoned.store(true, Ordering::SeqCst);
                payload = Some(p);
            }
        }
        for dst in 0..parts {
            if dst != w.me && !w.outbox[dst].is_empty() {
                sh.mailboxes[dst][w.me]
                    .lock()
                    .expect("mailbox lock")
                    .append(&mut w.outbox[dst]);
            }
        }
        sh.barrier.wait();
        for src in 0..parts {
            let mut mb = sh.mailboxes[w.me][src].lock().expect("mailbox lock");
            for (at, key, ev) in mb.drain(..) {
                w.queue.schedule_keyed(at, key, ev);
            }
        }
        {
            let mut rep = sh.reports[w.me].lock().expect("report lock");
            rep.next = w.queue.peek_time();
            rep.notices.append(&mut w.notices);
        }
        sh.barrier.wait();
        if let Some(c) = coordinator.as_deref_mut() {
            c.step(sh);
        }
        sh.barrier.wait();
    }
    (w, payload)
}

/// The executor: fabric + per-node engines + the event loop.
///
/// Generic over the engine type: monomorphizing over a concrete engine
/// (e.g. `AceEndpoint`) devirtualizes and inlines the per-event resource
/// charges, which matters at tens of millions of events per run. The
/// default `Box<dyn CollectiveEngine>` keeps runtime engine selection
/// (training loops mixing configurations) working unchanged.
///
/// Also generic over the [`Tracer`]: the default [`NullTracer`]
/// monomorphizes every trace hook to nothing (the perf gate verifies the
/// default build stays on the seed's hot path), while
/// [`ace_trace::RecordingTracer`] — attached via
/// [`new`](CollectiveExecutor::new) — captures link busy
/// spans, chunk/phase lifetimes and queue/pipe occupancy samples.
pub struct CollectiveExecutor<
    E: CollectiveEngine = Box<dyn CollectiveEngine>,
    T: Tracer = NullTracer,
> {
    spec: TopologySpec,
    nodes: usize,
    net: Network,
    engines: Vec<E>,
    options: ExecutorOptions,
    queue: EventQueue<Ev>,
    colls: Vec<Coll>,
    /// Collectives with chunks left to inject: LIFO drains the back,
    /// FIFO the front.
    pending_colls: VecDeque<usize>,
    inflight: usize,
    max_inflight: usize,
    /// Reusable per-chunk state slots; the in-flight cap bounds how many
    /// are live at once.
    arena: Vec<ChunkState>,
    free_slots: Vec<u32>,
    /// `admit_wait[node][phase]` — waiters ordered by global injection
    /// sequence. Admission follows this order strictly on every node, so
    /// all nodes keep *identical* resident chunk sets per partition —
    /// divergent orders (even/odd chunks ride opposite ring directions
    /// and skew arbitrarily) would let nodes hold disjoint sets that wait
    /// on each other's ring messages: a distributed deadlock.
    admit_wait: Vec<Vec<VecDeque<(u64, Waiter)>>>,
    /// Global injection sequence counter.
    next_seq: u64,
    /// Earliest pending `TryInject` timestamp; later duplicates are not
    /// scheduled (the earlier drain subsumes them).
    inject_at: Option<SimTime>,
    /// `dim_nbrs[(dim * 2 + dir) * nodes + node]` neighbor table, `dir`
    /// 0 = positive, 1 = negative — the flat form of
    /// [`Topology::neighbor`] the ring hot path reads.
    dim_nbrs: Vec<NodeId>,
    /// Route per all-to-all flow index (built on first all-to-all).
    a2a_routes: Vec<Route>,
    /// Scratch buffer for replaying buffered arrivals.
    replay_scratch: Vec<(u16, u16, SimTime)>,
    /// Notices emitted by the serial dispatch path, applied right after
    /// each event (reused buffer).
    notice_scratch: Vec<Notice>,
    /// Parallel-stint plan, present when `options.sim_threads > 1` and
    /// the topology supports domain partitioning.
    par: Option<ParPlan>,
    /// Degradation plan for a faulted fabric: ring sends consult its
    /// detour routes, all-to-all routes are re-planned around kills, and
    /// parallel stints are disabled (`par` stays `None`) so the serial
    /// loop owns every faulted event.
    fault: Option<FaultPlan>,
    now: SimTime,
    tracer: T,
}

impl<E: CollectiveEngine, T: Tracer> std::fmt::Debug for CollectiveExecutor<E, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectiveExecutor")
            .field("topology", &self.spec)
            .field("collectives", &self.colls.len())
            .field("inflight", &self.inflight)
            .field("now", &self.now)
            .finish()
    }
}

impl CollectiveExecutor {
    /// Per-phase SRAM-partition weights for a plan (Section IV-I:
    /// bandwidth × chunk size). Used to size ACE endpoints.
    ///
    /// Engine-independent; lives in the default (boxed-engine) impl so
    /// callers can keep writing `CollectiveExecutor::phase_weights(..)`.
    pub fn phase_weights(plan: &CollectivePlan, net: &NetworkParams) -> Vec<f64> {
        let raw: Vec<f64> = plan
            .phases()
            .iter()
            .map(|p| {
                let bw = match p.link {
                    PhaseLink::Dim {
                        class: LinkClass::IntraPackage,
                        ..
                    } => net.intra.bandwidth_gbps * 2.0,
                    PhaseLink::Dim {
                        class: LinkClass::InterPackage,
                        ..
                    } => net.inter.bandwidth_gbps * 2.0,
                    PhaseLink::Global {
                        intra_ports,
                        inter_ports,
                    } => {
                        net.intra.bandwidth_gbps * f64::from(intra_ports)
                            + net.inter.bandwidth_gbps * f64::from(inter_ports)
                    }
                };
                bw * p.input_fraction
            })
            .collect();
        // Floor each phase at 15 % of the largest weight: latency-dominated
        // inter-package phases need enough resident chunks to cover the
        // 500-cycle link latency, which the raw bandwidth-proportional
        // heuristic under-provisions on large tori.
        let max = raw.iter().cloned().fold(f64::MIN, f64::max);
        raw.into_iter().map(|w| w.max(0.15 * max)).collect()
    }
}

impl<E: CollectiveEngine, T: Tracer> CollectiveExecutor<E, T> {
    /// Builds an executor over `topology` with one engine per node
    /// produced by `make_engine`, tuned by `options` (ablation knobs,
    /// `sim_threads`).
    ///
    /// `faults` degrades the fabric: killed links are removed from the
    /// network (ring sends take the plan's detour routes, all-to-all
    /// routes are re-planned around the kills) and degraded links run at
    /// their reduced bandwidth. A faulted fabric always runs on the
    /// serial loop — `sim_threads > 1` falls back rather than hanging on
    /// a partition the faults disconnected. `None` or a pristine plan
    /// builds the ordinary executor.
    ///
    /// `tracer` receives the run's events: [`NullTracer`] compiles every
    /// hook away, while an [`ace_trace::RecordingTracer`] is read back
    /// through [`tracer`](CollectiveExecutor::tracer) after the run.
    pub fn new(
        topology: impl Into<TopologySpec>,
        net_params: NetworkParams,
        options: ExecutorOptions,
        faults: Option<&FaultPlan>,
        make_engine: impl Fn() -> E,
        tracer: T,
    ) -> CollectiveExecutor<E, T> {
        let spec = topology.into();
        let fault = faults.filter(|fp| !fp.is_pristine()).cloned();
        let mut net = Network::new(spec, net_params);
        if let Some(fp) = &fault {
            net.apply_fault_plan(fp);
        }
        let topo = net.topology();
        let nodes = topo.nodes();
        let engines = (0..nodes).map(|_| make_engine()).collect();
        let max_inflight = options.max_inflight_chunks.max(1);
        // Flatten the topology's neighbor function into the table the
        // ring hot path indexes: `(dim * 2 + dir) * nodes + node`.
        let mut dim_nbrs = Vec::with_capacity(topo.dims().len() * 2 * nodes);
        for (d, info) in topo.dims().iter().enumerate() {
            for plus in [true, false] {
                for node in 0..nodes {
                    dim_nbrs.push(if info.len > 1 {
                        topo.neighbor(NodeId(node), d, plus)
                    } else {
                        NodeId(node)
                    });
                }
            }
        }
        let mut tracer = tracer;
        if tracer.enabled() {
            // Label the trace tracks: pid 0 is the scheduler/sim lane,
            // pid 1 + n a per-node process whose tids are egress ports.
            tracer.meta_process(0, "sim");
            tracer.meta_thread(TRACK_SIM, "scheduler");
            for n in 0..nodes {
                tracer.meta_process(1 + n as u32, &format!("node {n}"));
            }
        }
        // A faulted fabric pins the run to the serial loop: domain
        // partitions assume the topology's pristine link structure, and
        // detour traffic crosses partitions the plan knows nothing about.
        let par = if fault.is_some() {
            None
        } else {
            partition_plan(&net, options.sim_threads)
        };
        CollectiveExecutor {
            spec,
            nodes,
            net,
            engines,
            options,
            queue: EventQueue::new(),
            colls: Vec::new(),
            pending_colls: VecDeque::new(),
            inflight: 0,
            max_inflight,
            arena: Vec::new(),
            free_slots: Vec::new(),
            admit_wait: vec![Vec::new(); nodes],
            next_seq: 0,
            inject_at: None,
            dim_nbrs,
            a2a_routes: Vec::new(),
            replay_scratch: Vec::new(),
            notice_scratch: Vec::new(),
            par,
            fault,
            now: SimTime::ZERO,
            tracer,
        }
    }

    /// The fault plan this executor was degraded with, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// The fabric's topology identity.
    pub fn spec(&self) -> TopologySpec {
        self.spec
    }

    /// Number of NPUs in the fabric.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The network (throughput/utilization meters).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Current simulation time (latest processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The attached tracer (read back recorded events after a run).
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Mutable access to the attached tracer (record caller-side events —
    /// e.g. the training timeline's task spans — into the same arena).
    pub fn tracer_mut(&mut self) -> &mut T {
        &mut self.tracer
    }

    /// Consumes the executor and returns the tracer (export after a run).
    pub fn into_tracer(self) -> T {
        self.tracer
    }

    /// Integer busy-cycle totals per endpoint pipe, summed over every
    /// node's engine — the weights the bottleneck-attribution report
    /// apportions the communication share by.
    pub fn pipe_busy_totals(&self) -> PipeBusy {
        self.engines
            .iter()
            .fold(PipeBusy::default(), |acc, e| acc + e.pipe_busy())
    }

    /// Issues a collective of `op` with per-node `payload_bytes` at time
    /// `at`. Returns a handle for completion queries.
    pub fn issue(&mut self, op: CollectiveOp, payload_bytes: u64, at: SimTime) -> CollHandle {
        let plan = CollectivePlan::for_topology(op, self.net.topology());
        let kind = match op {
            CollectiveOp::AllToAll => CollKind::AllToAll,
            _ => CollKind::Ring,
        };
        let mut a2a_extra = 0;
        let chunk_sizes = match kind {
            CollKind::Ring => self.options.granularity.chunks(payload_bytes),
            CollKind::AllToAll => {
                // Chunk the per-destination slice; flows are (dst, chunk).
                // The division remainder is distributed one byte per
                // destination offset (see `a2a_flow_bytes`) so total
                // traffic is conserved instead of shrinking with the node
                // count.
                let n = self.nodes as u64;
                a2a_extra = payload_bytes % n.max(1);
                let mut sizes = self.options.granularity.chunks(payload_bytes / n.max(1));
                if sizes.is_empty() && a2a_extra > 0 {
                    // Payload smaller than the node count: the per-slice
                    // base is zero but the remainder bytes still travel.
                    sizes.push(0);
                }
                sizes
            }
        };
        let id = self.colls.len();
        let n_chunks = chunk_sizes.len();
        let (short_last, shard_cache, admit_cache) = byte_caches(&plan, &chunk_sizes);
        let phase_hot = phase_hot_table(&plan, kind, self.net.topology());
        self.colls.push(Coll {
            plan,
            kind,
            chunk_sizes,
            issued_at: at,
            next_chunk: 0,
            chunk_seq: vec![u64::MAX; n_chunks],
            chunk_slot: vec![NO_SLOT; n_chunks],
            done_chunks: 0,
            completed_at: if n_chunks == 0 { Some(at) } else { None },
            short_last,
            phase_hot,
            shard_cache,
            admit_cache,
            a2a_extra,
        });
        if kind == CollKind::AllToAll && n_chunks > 0 {
            // Byte conservation: per source, the n-1 flows carry
            // (n-1)·base + remainder bytes and the local (self) slice
            // keeps base, which must add up to the original payload.
            let n = self.nodes as u64;
            let base: u64 = self.colls[id].chunk_sizes.iter().sum();
            debug_assert_eq!(
                n * base + a2a_extra,
                payload_bytes,
                "all-to-all flows must conserve payload bytes"
            );
        }
        if n_chunks > 0 {
            self.pending_colls.push_back(id);
            let t = at.max(self.queue.now());
            // Coalesce: an already-pending TryInject at an earlier (or
            // equal) time drains this collective too.
            if self.inject_at.is_none_or(|s| t < s) {
                self.queue.schedule(t, Ev::TryInject);
                self.inject_at = Some(t);
            }
        }
        CollHandle(id)
    }

    /// Whether `coll` has completed.
    pub fn is_complete(&self, coll: CollHandle) -> bool {
        self.colls[coll.0].is_complete()
    }

    /// Completion time, if completed.
    pub fn completion_time(&self, coll: CollHandle) -> Option<SimTime> {
        self.colls[coll.0].completed_at
    }

    /// Processes events up to and including time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            let (time, ev) = self.queue.pop().expect("peeked");
            self.now = time;
            self.trace_tick(time);
            self.handle(time, ev);
        }
        self.now = self.now.max(t);
    }

    /// Runs until `coll` completes; returns its completion time.
    ///
    /// With `sim_threads > 1` (and a partitionable topology) the run
    /// switches to parallel stints whenever only this collective is live
    /// and fully injected; results are byte-identical to the serial loop.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains without completing the collective
    /// (a deadlock — indicates an internal invariant violation).
    pub fn run_until_complete(&mut self, coll: CollHandle) -> SimTime {
        while !self.colls[coll.0].is_complete() {
            if self.parallel_ok(coll.0) {
                self.run_parallel_stint(coll.0);
                continue;
            }
            let (time, ev) = self
                .queue
                .pop()
                .unwrap_or_else(|| panic!("executor deadlock waiting on collective {}", coll.0));
            self.now = time;
            self.trace_tick(time);
            self.handle(time, ev);
        }
        self.colls[coll.0].completed_at.expect("completed")
    }

    /// Whether the next step of `run_until_complete(target)` can run as
    /// a parallel stint. Chunk injection is global, serial-only work
    /// (admission sequencing spans every node), so a stint requires
    /// every chunk of every collective to be injected already and every
    /// other collective to be complete: the only live events then belong
    /// to `target`, and the stint can run it to completion without the
    /// serial loop ever needing to interleave. Payloads larger than the
    /// in-flight cap therefore run serially until their final injection
    /// wave — a documented limitation. Tracing also pins the run to the
    /// serial loop (trace records are ordered by global pop order).
    fn parallel_ok(&self, target: usize) -> bool {
        self.par.is_some()
            && !self.tracer.enabled()
            && self.inject_at.is_none()
            && !self.queue.is_empty()
            && self.colls.iter().enumerate().all(|(i, c)| {
                c.next_chunk == c.chunk_sizes.len() && (i == target || c.is_complete())
            })
    }

    /// Runs one parallel stint: forks the executor's state into domain
    /// partitions, processes conservative-lookahead windows on worker
    /// threads until `target` completes, and merges everything back.
    ///
    /// Byte identity with the serial loop: within a partition, events
    /// pop in the same `(time, content key)` order the serial queue
    /// would give them (per-node and per-link state only ever depend on
    /// the owning partition's events); across partitions the only shared
    /// effects are completion notices, which the coordinator applies
    /// sorted by the emitting event's `(time, key)` — the serial pop
    /// order — and chunk completions, replayed in that order afterwards.
    fn run_parallel_stint(&mut self, target: usize) {
        let plan = self.par.take().expect("parallel_ok requires a plan");
        let parts = plan.bounds.len();
        let nodes = self.nodes;
        let chunks_left = self.colls[target].chunk_sizes.len() - self.colls[target].done_chunks;
        debug_assert!(chunks_left > 0, "stint started on a complete collective");
        let first = self.queue.peek_time().expect("parallel_ok requires events");
        let mut coord = Coordinator {
            nodes,
            counts: self
                .arena
                .iter()
                .map(|st| (st.nodes_done, st.flows_done))
                .collect(),
            flows_total: self.arena.iter().map(|st| st.flows_total).collect(),
            chunks_left,
            completions: Vec::new(),
            deadlocked: false,
            scratch: Vec::new(),
        };
        // Fork the global queue into per-partition queues routed by the
        // event's owning node, preserving each entry's key.
        let t0 = self.queue.now();
        let mut queues: Vec<EventQueue<Ev>> =
            (0..parts).map(|_| EventQueue::with_now(t0)).collect();
        for (at, key, ev) in self.queue.drain_entries() {
            let owner = ev_owner(&self.a2a_routes, &ev);
            queues[plan.node_part[owner] as usize].schedule_keyed(at, key, ev);
        }
        // Carve every arena slot's node rows into per-partition SlotRows
        // (split back-to-front so the split points stay valid).
        let mut rows: Vec<SlotRows> = plan
            .bounds
            .iter()
            .map(|&(lo, _)| SlotRows {
                base: lo,
                node_phase: Vec::with_capacity(self.arena.len()),
                arr_count: Vec::with_capacity(self.arena.len()),
                pending: Vec::with_capacity(self.arena.len()),
            })
            .collect();
        for st in &mut self.arena {
            debug_assert_eq!(st.node_phase.len(), nodes, "arena slot never reset");
            for p in (1..parts).rev() {
                let lo = plan.bounds[p].0;
                rows[p].node_phase.push(st.node_phase.split_off(lo));
                rows[p].arr_count.push(st.arr_count.split_off(lo));
                rows[p].pending.push(st.pending.split_off(lo));
            }
            rows[0].node_phase.push(std::mem::take(&mut st.node_phase));
            rows[0].arr_count.push(std::mem::take(&mut st.arr_count));
            rows[0].pending.push(std::mem::take(&mut st.pending));
        }
        let sh = StintShared {
            nodes,
            options: self.options,
            colls: &self.colls,
            dim_nbrs: &self.dim_nbrs,
            a2a_routes: &self.a2a_routes,
            node_part: &plan.node_part,
            lookahead: plan.lookahead,
            barrier: Barrier::new(parts),
            mailboxes: (0..parts)
                .map(|_| (0..parts).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            reports: (0..parts).map(|_| Mutex::new(Report::default())).collect(),
            cmd: Mutex::new(Cmd {
                stop: false,
                window: SimTime::from_cycles(first.cycles().saturating_add(plan.lookahead)),
            }),
            poisoned: AtomicBool::new(false),
        };
        let mut engine_slices = split_by_bounds(&mut self.engines, &plan.bounds).into_iter();
        let mut admit_slices = split_by_bounds(&mut self.admit_wait, &plan.bounds).into_iter();
        let mut shards = self.net.shards(&plan.bounds).into_iter();
        let mut rows_iter = rows.into_iter();
        let mut workers = Vec::with_capacity(parts);
        for (me, queue) in queues.into_iter().enumerate() {
            workers.push(Worker {
                me,
                base: plan.bounds[me].0,
                queue,
                engines: engine_slices.next().expect("slice per partition"),
                admit: admit_slices.next().expect("slice per partition"),
                rows: rows_iter.next().expect("rows per partition"),
                shard: shards.next().expect("shard per partition"),
                outbox: (0..parts).map(|_| Vec::new()).collect(),
                scratch: Vec::new(),
                notices: Vec::new(),
            });
        }
        // Worker 0 (plus the coordinator) runs on this thread; the rest
        // get scoped threads. Results come back in partition order.
        let mut workers = workers.into_iter();
        let w0 = workers.next().expect("at least two partitions");
        type StintResult<'a, E> = (Worker<'a, E>, Option<Box<dyn Any + Send>>);
        let results: Vec<StintResult<'_, E>> = std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .map(|w| {
                    let shr = &sh;
                    s.spawn(move || stint_worker(shr, w, None))
                })
                .collect();
            let r0 = stint_worker(&sh, w0, Some(&mut coord));
            std::iter::once(r0)
                .chain(handles.into_iter().map(|h| match h.join() {
                    Ok(r) => r,
                    Err(p) => resume_unwind(p),
                }))
                .collect()
        });
        // Merge everything back (also on the error paths, so a caught
        // panic propagates out of a structurally consistent executor).
        let mut payload: Option<Box<dyn Any + Send>> = None;
        let mut meters = Vec::with_capacity(parts);
        let mut end = t0;
        for (mut w, p) in results {
            if payload.is_none() {
                payload = p;
            }
            self.queue.absorb_counters(&w.queue);
            end = end.max(w.queue.now());
            let leftovers = w.queue.drain_entries();
            debug_assert!(
                leftovers.is_empty() || payload.is_some() || coord.deadlocked,
                "stint completed with live events"
            );
            for (at, key, ev) in leftovers {
                self.queue.schedule_keyed(at, key, ev);
            }
            for (slot, mut v) in w.rows.node_phase.into_iter().enumerate() {
                self.arena[slot].node_phase.append(&mut v);
            }
            for (slot, mut v) in w.rows.arr_count.into_iter().enumerate() {
                self.arena[slot].arr_count.append(&mut v);
            }
            for (slot, mut v) in w.rows.pending.into_iter().enumerate() {
                self.arena[slot].pending.append(&mut v);
            }
            meters.push(w.shard.into_meters());
        }
        for (meter, series) in &meters {
            self.net.merge_shard_meters(meter, series);
        }
        for (slot, &(nd, fd)) in coord.counts.iter().enumerate() {
            self.arena[slot].nodes_done = nd;
            self.arena[slot].flows_done = fd;
        }
        self.queue.advance_to(end);
        self.now = self.now.max(end);
        self.par = Some(plan);
        if let Some(p) = payload {
            resume_unwind(p);
        }
        if coord.deadlocked {
            panic!("executor deadlock waiting on collective {target}");
        }
        // Replay the completions in serial order: frees the slots, sets
        // `completed_at`, and keeps the (no-op here) injection drain on
        // its usual path.
        for (cid, chunk, at) in coord.completions {
            self.chunk_complete(at, cid as usize, chunk as usize);
        }
    }

    /// Drains every pending event; returns the final event time.
    pub fn run_to_idle(&mut self) -> SimTime {
        while let Some((time, ev)) = self.queue.pop() {
            self.now = time;
            self.trace_tick(time);
            self.handle(time, ev);
        }
        self.now
    }

    /// Samples queue depth and node-0 pipe occupancy every
    /// [`TRACE_SAMPLE_POPS`] event deliveries. With the [`NullTracer`]
    /// `enabled()` is a constant `false` and the whole body folds away.
    #[inline]
    fn trace_tick(&mut self, now: SimTime) {
        if self.tracer.enabled() && self.queue.pops().is_multiple_of(TRACE_SAMPLE_POPS) {
            self.tracer.instant(TRACK_SIM, "dispatch", now);
            self.tracer
                .counter(TRACK_SIM, "queue_depth", now, self.queue.len() as f64);
            let p = self.engines[0].pipe_busy();
            self.tracer
                .counter(TRACK_SIM, "pipe:hbm", now, p.hbm as f64);
            self.tracer
                .counter(TRACK_SIM, "pipe:dma", now, p.dma as f64);
            self.tracer
                .counter(TRACK_SIM, "pipe:bus", now, p.bus as f64);
            self.tracer
                .counter(TRACK_SIM, "pipe:proc", now, p.proc as f64);
        }
    }

    /// ACE utilization (node 0) over `[0, horizon]`, when the engine
    /// tracks it.
    pub fn ace_utilization(&self, horizon: SimTime) -> Option<f64> {
        self.engines[0].utilization(horizon)
    }

    /// Exact ACE busy cycles (node 0) over `[0, horizon]`, when the
    /// engine tracks them — the integer counter behind
    /// [`ace_utilization`](CollectiveExecutor::ace_utilization).
    pub fn ace_busy_cycles(&self, horizon: SimTime) -> Option<u64> {
        self.engines[0].busy_cycles(horizon)
    }

    /// Per-node HBM traffic generated by communication (node 0).
    pub fn comm_mem_traffic_bytes(&self) -> u64 {
        self.engines[0].mem_traffic_bytes()
    }

    /// Number of events that were scheduled in the past and clamped to
    /// the current time — always zero in a correct simulation. Reports
    /// surface this so release-mode sweeps can flag the invariant
    /// violation that `debug_assert` only catches in debug builds.
    pub fn past_schedules(&self) -> u64 {
        self.queue.past_schedules()
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// The handler context for the serial loop: global queue, whole
    /// network, whole arena.
    fn serial_ctx(
        &mut self,
    ) -> ExecCtx<'_, E, &mut EventQueue<Ev>, &mut Network, &mut [ChunkState], T> {
        ExecCtx {
            nodes: self.nodes,
            options: self.options,
            colls: &self.colls,
            dim_nbrs: &self.dim_nbrs,
            a2a_routes: &self.a2a_routes,
            fault: self.fault.as_ref(),
            engines: &mut self.engines,
            admit_wait: &mut self.admit_wait,
            base: 0,
            rows: self.arena.as_mut_slice(),
            scratch: &mut self.replay_scratch,
            sink: &mut self.queue,
            net: &mut self.net,
            notices: &mut self.notice_scratch,
            tracer: &mut self.tracer,
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        if matches!(ev, Ev::TryInject) {
            self.inject_at = None;
            self.drain_lifo(now);
            return;
        }
        debug_assert!(self.notice_scratch.is_empty());
        let mut ctx = self.serial_ctx();
        ctx.dispatch(now, ev);
        // A dispatch emits at most one notice; apply it immediately so
        // the serial loop's completion bookkeeping happens at the same
        // point it always did.
        while let Some(n) = self.notice_scratch.pop() {
            self.apply_notice(n);
        }
    }

    /// Applies a completion notice to the chunk's cross-node counters,
    /// completing the chunk when the last node / flow reports in.
    fn apply_notice(&mut self, n: Notice) {
        let cid = n.coll as usize;
        let chunk = n.chunk as usize;
        let slot = chunk_slot_of(&self.colls[cid], chunk);
        match n.kind {
            NoticeKind::Drain => {
                let st = &mut self.arena[slot];
                st.nodes_done += 1;
                if st.nodes_done == self.nodes {
                    self.chunk_complete(n.at, cid, chunk);
                }
            }
            NoticeKind::A2aFinal { candidate } => {
                let st = &mut self.arena[slot];
                st.flows_done += 1;
                if st.flows_done == st.flows_total {
                    self.chunk_complete(candidate, cid, chunk);
                }
            }
        }
    }

    /// Injects chunks from the most recently issued pending collectives
    /// while in-flight capacity remains.
    fn drain_lifo(&mut self, now: SimTime) {
        while self.inflight < self.max_inflight {
            // Pick the next collective with chunks remaining per policy.
            let pick = match self.options.scheduling {
                SchedulingPolicy::Lifo => self.pending_colls.back().copied(),
                SchedulingPolicy::Fifo => self.pending_colls.front().copied(),
            };
            let Some(cid) = pick else { break };
            if self.colls[cid].next_chunk >= self.colls[cid].chunk_sizes.len() {
                match self.options.scheduling {
                    SchedulingPolicy::Lifo => {
                        self.pending_colls.pop_back();
                    }
                    SchedulingPolicy::Fifo => {
                        self.pending_colls.pop_front();
                    }
                }
                continue;
            }
            let chunk = self.colls[cid].next_chunk;
            self.colls[cid].next_chunk += 1;
            self.colls[cid].chunk_seq[chunk] = self.next_seq;
            self.next_seq += 1;
            self.inflight += 1;
            let start = now.max(self.colls[cid].issued_at);
            if self.tracer.enabled() {
                self.tracer
                    .begin(TRACK_SIM, "chunk", chunk_trace_id(cid, chunk), start);
            }
            match self.colls[cid].kind {
                CollKind::Ring => self.inject_ring_chunk(start, cid, chunk),
                CollKind::AllToAll => self.inject_a2a_chunk(start, cid, chunk),
            }
        }
    }

    // ------------------------------------------------------------------
    // Ring collectives
    // ------------------------------------------------------------------

    /// Assigns an arena slot to `(cid, chunk)`, recycling a free one.
    fn acquire_chunk_slot(&mut self, cid: usize, chunk: usize) {
        if self.colls[cid].chunk_slot[chunk] != NO_SLOT {
            return;
        }
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.arena.push(ChunkState::default());
                (self.arena.len() - 1) as u32
            }
        };
        self.arena[slot as usize].reset(self.nodes);
        self.colls[cid].chunk_slot[chunk] = slot;
    }

    /// The live chunk state of `(cid, chunk)`.
    fn chunk_state_mut(&mut self, cid: usize, chunk: usize) -> &mut ChunkState {
        let slot = self.colls[cid].chunk_slot[chunk];
        debug_assert_ne!(slot, NO_SLOT, "chunk state accessed outside its lifetime");
        &mut self.arena[slot as usize]
    }

    fn inject_ring_chunk(&mut self, now: SimTime, cid: usize, chunk: usize) {
        self.acquire_chunk_slot(cid, chunk);
        let nodes = self.nodes;
        let mut ctx = self.serial_ctx();
        for node in 0..nodes {
            ctx.request_phase(now, cid, chunk, node, 0, NOT_STARTED);
        }
        // Injection never reaches a completion handler, so no notices.
        debug_assert!(self.notice_scratch.is_empty());
    }

    fn chunk_complete(&mut self, now: SimTime, cid: usize, chunk: usize) {
        // Recycle the per-chunk state slot: large payloads create many
        // chunks and the arena keeps their vectors' capacity alive for
        // the next chunk instead of reallocating.
        let slot = std::mem::replace(&mut self.colls[cid].chunk_slot[chunk], NO_SLOT);
        debug_assert_ne!(slot, NO_SLOT, "chunk completed twice");
        if self.tracer.enabled() {
            self.tracer
                .end(TRACK_SIM, "chunk", chunk_trace_id(cid, chunk), now);
        }
        self.free_slots.push(slot);
        self.colls[cid].done_chunks += 1;
        self.inflight -= 1;
        if self.colls[cid].done_chunks == self.colls[cid].chunk_sizes.len() {
            self.colls[cid].completed_at = Some(now);
        }
        self.drain_lifo(now);
    }

    // ------------------------------------------------------------------
    // Direct all-to-all
    // ------------------------------------------------------------------

    /// Flow index encoding: `flow = src * (nodes - 1) + dst_offset` where
    /// the destination is `(src + 1 + dst_offset) % nodes`.
    fn a2a_flow_endpoints(&self, flow: usize) -> (usize, usize) {
        let n = self.nodes;
        let src = flow / (n - 1);
        let off = flow % (n - 1);
        let dst = (src + 1 + off) % n;
        (src, dst)
    }

    /// Bytes flow `flow` carries for `chunk` — see [`a2a_flow_bytes_of`].
    fn a2a_flow_bytes(&self, cid: usize, chunk: usize, flow: usize) -> u64 {
        a2a_flow_bytes_of(&self.colls[cid], self.nodes, chunk, flow)
    }

    /// Builds the per-flow XYZ route table on first use.
    fn ensure_a2a_routes(&mut self) {
        if !self.a2a_routes.is_empty() {
            return;
        }
        let n = self.nodes;
        let routes: Vec<Route> = (0..n * (n - 1))
            .map(|flow| {
                let (src, dst) = self.a2a_flow_endpoints(flow);
                match &self.fault {
                    // Killed links force the flow onto a BFS route around
                    // them; resolve() proved the fabric stays connected,
                    // so the detour always exists.
                    Some(fp) if fp.has_kills() => fp
                        .route_around(self.net.topology(), NodeId(src), NodeId(dst))
                        .expect("fault plan resolved on a connected fabric"),
                    _ => self.net.topology().route(NodeId(src), NodeId(dst)),
                }
            })
            .collect();
        self.a2a_routes = routes;
    }

    fn inject_a2a_chunk(&mut self, now: SimTime, cid: usize, chunk: usize) {
        self.acquire_chunk_slot(cid, chunk);
        self.ensure_a2a_routes();
        let n = self.nodes;
        let flows = n * (n - 1);
        self.chunk_state_mut(cid, chunk).flows_total = flows;
        for flow in 0..flows {
            let src = flow / (n - 1);
            let bytes = self.a2a_flow_bytes(cid, chunk, flow);
            // Stage the source's slice buffer once per chunk. All-to-all
            // is single-phase: it shares phase 0's partition and FSMs
            // (Section V).
            let staged = if flow % (n - 1) == 0 {
                self.engines[src].chunk_inject(now, bytes)
            } else {
                now
            };
            let ready = self.engines[src].fetch_and_send(now, bytes, 0).max(staged);
            let ev = Ev::A2aSend {
                coll: cid as u32,
                chunk: chunk as u32,
                flow: flow as u32,
                hop: 0,
            };
            self.queue
                .schedule_keyed(ready.max(now), content_key(&ev), ev);
        }
    }
}

/// Async-event id for a chunk's lifetime span.
fn chunk_trace_id(cid: usize, chunk: usize) -> u64 {
    ((cid as u64) << 32) | chunk as u64
}

/// Async-event id for one (collective, chunk, phase) lifetime span.
fn phase_trace_id(cid: usize, chunk: usize, phase: u16) -> u64 {
    ((cid as u64) << 40) | ((chunk as u64) << 16) | u64::from(phase)
}

/// Precomputes the per-phase event-handler constants for ring plans (an
/// all-to-all plan gets an empty table — its single phase never reaches
/// the ring handlers).
fn phase_hot_table(plan: &CollectivePlan, kind: CollKind, topo: &dyn Topology) -> Vec<PhaseHot> {
    if kind != CollKind::Ring {
        return Vec::new();
    }
    plan.phases()
        .iter()
        .map(|spec| {
            let k = spec.ring_size as u16;
            let dim = spec.dim_index().expect("ring phases have a dimension");
            let info = topo.dims()[dim];
            PhaseHot {
                kind: spec.kind,
                ring_k: k,
                final_step: match spec.kind {
                    PhaseKind::ReduceScatter | PhaseKind::AllGather => k - 2,
                    PhaseKind::RingAllReduce => 2 * k - 3,
                    PhaseKind::DirectAllToAll => {
                        unreachable!("all-to-all is not a ring phase")
                    }
                },
                dim: dim as u16,
                port_idx_plus: info.port_plus.index() as u8,
                port_idx_minus: info.port_minus.index() as u8,
            }
        })
        .collect()
}

/// Precomputes the per-phase shard and admission byte tables for a plan
/// over `chunk_sizes` (column 0: leading full chunks; column 1: the short
/// trailing chunk, when present).
fn byte_caches(plan: &CollectivePlan, chunk_sizes: &[u64]) -> (bool, Vec<u64>, Vec<u64>) {
    let phases = plan.phases();
    let first = chunk_sizes.first().copied().unwrap_or(0);
    let last = chunk_sizes.last().copied().unwrap_or(0);
    let short_last = chunk_sizes.len() > 1 && last != first;
    let sizes = [first, last];
    let mut shard_cache = vec![0u64; phases.len() * 2];
    let mut admit_cache = vec![0u64; (phases.len() + 1) * 2];
    for (p, spec) in phases.iter().enumerate() {
        for (col, &size) in sizes.iter().enumerate() {
            shard_cache[p * 2 + col] = shard_of(spec, size);
            admit_cache[p * 2 + col] = ((size as f64) * spec.input_fraction).ceil() as u64;
        }
    }
    if let Some(spec) = phases.last() {
        // Terminal partition: the final result (full chunk for all-reduce).
        let out = spec.output_fraction();
        for (col, &size) in sizes.iter().enumerate() {
            admit_cache[phases.len() * 2 + col] = ((size as f64) * out).ceil() as u64;
        }
    }
    (short_last, shard_cache, admit_cache)
}

/// Per-node shard size moved in one ring step of a phase, for a chunk of
/// `size` bytes.
fn shard_of(spec: &PhaseSpec, size: u64) -> u64 {
    let input = size as f64 * spec.input_fraction;
    let k = spec.ring_size as f64;
    let shard = match spec.kind {
        // All-gather forwards the whole phase input each step.
        PhaseKind::AllGather => input,
        _ => input / k,
    };
    (shard.ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use ace_net::TorusShape;

    fn executor(config: SystemConfig, shape: TorusShape) -> CollectiveExecutor {
        executor_with(config, shape, ExecutorOptions::default())
    }

    /// A pristine-fabric executor with `config`'s engines (sized for the
    /// all-reduce plan) under `options`.
    fn executor_with(
        config: SystemConfig,
        shape: TorusShape,
        options: ExecutorOptions,
    ) -> CollectiveExecutor {
        let params = NetworkParams::paper_default();
        let plan = CollectivePlan::for_op(CollectiveOp::AllReduce, shape);
        let weights = CollectiveExecutor::phase_weights(&plan, &params);
        CollectiveExecutor::new(
            shape,
            params,
            options,
            None,
            move || config.make_engine(&weights),
            NullTracer,
        )
    }

    fn shape442() -> TorusShape {
        TorusShape::new(4, 2, 2).unwrap()
    }

    #[test]
    fn all_reduce_completes_on_all_configs() {
        for config in SystemConfig::ALL {
            let mut ex = executor(config, shape442());
            let h = ex.issue(CollectiveOp::AllReduce, 1 << 20, SimTime::ZERO);
            let t = ex.run_until_complete(h);
            assert!(t.cycles() > 0, "{config}: zero completion time");
            assert!(ex.is_complete(h));
        }
    }

    #[test]
    fn ideal_is_fastest_baseline_comm_opt_beats_comp_opt() {
        let run = |config| {
            let mut ex = executor(config, shape442());
            let h = ex.issue(CollectiveOp::AllReduce, 16 << 20, SimTime::ZERO);
            ex.run_until_complete(h).cycles()
        };
        let ideal = run(SystemConfig::Ideal);
        let ace = run(SystemConfig::Ace);
        let comm = run(SystemConfig::BaselineCommOpt);
        let comp = run(SystemConfig::BaselineCompOpt);
        assert!(ideal <= ace, "ideal {ideal} vs ace {ace}");
        assert!(ace < comp, "ace {ace} vs comp-opt {comp}");
        assert!(comm < comp, "comm-opt {comm} vs comp-opt {comp}");
    }

    #[test]
    fn ace_is_close_to_ideal() {
        // Fig. 5: ACE with 128 GB/s reaches ≈90 % of ideal performance.
        let run = |config| {
            let mut ex = executor(config, shape442());
            let h = ex.issue(CollectiveOp::AllReduce, 16 << 20, SimTime::ZERO);
            ex.run_until_complete(h).cycles() as f64
        };
        let ideal = run(SystemConfig::Ideal);
        let ace = run(SystemConfig::Ace);
        assert!(ace / ideal < 1.6, "ACE at {:.2}x ideal", ace / ideal);
    }

    #[test]
    fn larger_payload_takes_longer() {
        let mut ex = executor(SystemConfig::Ace, shape442());
        let small = ex.issue(CollectiveOp::AllReduce, 1 << 20, SimTime::ZERO);
        let ts = ex.run_until_complete(small);
        let mut ex2 = executor(SystemConfig::Ace, shape442());
        let large = ex2.issue(CollectiveOp::AllReduce, 8 << 20, SimTime::ZERO);
        let tl = ex2.run_until_complete(large);
        assert!(tl > ts);
    }

    #[test]
    fn all_to_all_completes() {
        for config in [
            SystemConfig::BaselineCommOpt,
            SystemConfig::Ace,
            SystemConfig::Ideal,
        ] {
            let mut ex = executor(config, shape442());
            let h = ex.issue(CollectiveOp::AllToAll, 1 << 20, SimTime::ZERO);
            let t = ex.run_until_complete(h);
            assert!(t.cycles() > 0, "{config}");
        }
    }

    #[test]
    fn lifo_priority_favors_later_issue() {
        // Issue a huge collective, then a tiny one: LIFO lets the tiny
        // late-comer finish long before the big early one.
        let mut ex = executor(SystemConfig::Ace, shape442());
        let big = ex.issue(CollectiveOp::AllReduce, 64 << 20, SimTime::ZERO);
        let small = ex.issue(CollectiveOp::AllReduce, 256 << 10, SimTime::from_cycles(1));
        let t_small = ex.run_until_complete(small);
        let t_big = ex.run_until_complete(big);
        assert!(t_small < t_big);
    }

    #[test]
    fn zero_payload_all_to_all_completes_immediately() {
        let mut ex = executor(SystemConfig::Ace, shape442());
        let h = ex.issue(CollectiveOp::AllToAll, 0, SimTime::from_cycles(3));
        assert!(ex.is_complete(h));
    }

    #[test]
    fn issue_at_future_time_defers_start() {
        let mut ex = executor(SystemConfig::Ideal, shape442());
        let h = ex.issue(
            CollectiveOp::AllReduce,
            1 << 20,
            SimTime::from_cycles(10_000),
        );
        let done = ex.run_until_complete(h);
        assert!(
            done.cycles() > 10_000,
            "work cannot finish before it starts"
        );
    }

    #[test]
    fn zero_payload_completes_immediately() {
        let mut ex = executor(SystemConfig::Ace, shape442());
        let h = ex.issue(CollectiveOp::AllReduce, 0, SimTime::from_cycles(5));
        assert!(ex.is_complete(h));
        assert_eq!(ex.completion_time(h), Some(SimTime::from_cycles(5)));
    }

    #[test]
    fn network_records_traffic() {
        let mut ex = executor(SystemConfig::Ideal, shape442());
        let h = ex.issue(CollectiveOp::AllReduce, 4 << 20, SimTime::ZERO);
        ex.run_until_complete(h);
        assert!(ex.network().total_bytes() > 0);
        assert!(ex.network().achieved_gbps_per_npu() > 0.0);
    }

    #[test]
    fn run_until_respects_time_bound() {
        let mut ex = executor(SystemConfig::Ace, shape442());
        let h = ex.issue(CollectiveOp::AllReduce, 16 << 20, SimTime::ZERO);
        ex.run_until(SimTime::from_cycles(10));
        assert!(!ex.is_complete(h));
        assert!(ex.now() >= SimTime::from_cycles(10));
    }

    #[test]
    fn mem_traffic_baseline_exceeds_ace() {
        let mut base = executor(SystemConfig::BaselineCommOpt, shape442());
        let h = base.issue(CollectiveOp::AllReduce, 4 << 20, SimTime::ZERO);
        base.run_until_complete(h);
        let mut ace = executor(SystemConfig::Ace, shape442());
        let h = ace.issue(CollectiveOp::AllReduce, 4 << 20, SimTime::ZERO);
        ace.run_until_complete(h);
        let b = base.comm_mem_traffic_bytes();
        let a = ace.comm_mem_traffic_bytes();
        assert!(b > 2 * a, "baseline {b} vs ACE {a}");
    }

    #[test]
    fn standalone_reduce_scatter_and_all_gather_complete() {
        for op in [CollectiveOp::ReduceScatter, CollectiveOp::AllGather] {
            for config in [
                SystemConfig::BaselineCommOpt,
                SystemConfig::Ace,
                SystemConfig::Ideal,
            ] {
                let mut ex = executor(config, shape442());
                let h = ex.issue(op, 4 << 20, SimTime::ZERO);
                let t = ex.run_until_complete(h);
                assert!(t.cycles() > 0, "{op:?} on {config}");
            }
        }
    }

    #[test]
    fn reduce_scatter_is_cheaper_than_all_reduce() {
        // RS moves roughly half the bytes of AR (no all-gather half).
        let mut rs = executor(SystemConfig::Ideal, shape442());
        let h = rs.issue(CollectiveOp::ReduceScatter, 16 << 20, SimTime::ZERO);
        let t_rs = rs.run_until_complete(h);
        let mut ar = executor(SystemConfig::Ideal, shape442());
        let h = ar.issue(CollectiveOp::AllReduce, 16 << 20, SimTime::ZERO);
        let t_ar = ar.run_until_complete(h);
        assert!(t_rs < t_ar, "RS {t_rs} vs AR {t_ar}");
    }

    #[test]
    fn fifo_scheduling_starves_late_collectives() {
        let opts = ExecutorOptions {
            scheduling: SchedulingPolicy::Fifo,
            ..Default::default()
        };
        let mut ex = executor_with(SystemConfig::Ace, shape442(), opts);
        let big = ex.issue(CollectiveOp::AllReduce, 32 << 20, SimTime::ZERO);
        let small = ex.issue(CollectiveOp::AllReduce, 256 << 10, SimTime::from_cycles(1));
        let t_small = ex.run_until_complete(small);
        let t_big = ex.run_until_complete(big);
        // Under FIFO the small late-comer drains after (or with) the big one.
        assert!(
            t_small.cycles() + 1 >= t_big.cycles(),
            "small {t_small} big {t_big}"
        );
    }

    #[test]
    fn unidirectional_rings_are_slower() {
        let run = |bidir: bool| {
            let opts = ExecutorOptions {
                bidirectional_rings: bidir,
                ..Default::default()
            };
            let mut ex = executor_with(SystemConfig::Ideal, shape442(), opts);
            let h = ex.issue(CollectiveOp::AllReduce, 16 << 20, SimTime::ZERO);
            ex.run_until_complete(h).cycles()
        };
        let bi = run(true);
        let uni = run(false);
        assert!(uni as f64 > bi as f64 * 1.5, "uni {uni} vs bi {bi}");
    }

    #[test]
    fn tiny_inflight_cap_throttles() {
        let run = |cap: usize| {
            let opts = ExecutorOptions {
                max_inflight_chunks: cap,
                ..Default::default()
            };
            let mut ex = executor_with(SystemConfig::Ace, shape442(), opts);
            let h = ex.issue(CollectiveOp::AllReduce, 8 << 20, SimTime::ZERO);
            ex.run_until_complete(h).cycles()
        };
        assert!(run(2) > run(64));
    }

    #[test]
    fn ace_utilization_reported_only_for_ace() {
        let mut ace = executor(SystemConfig::Ace, shape442());
        let h = ace.issue(CollectiveOp::AllReduce, 4 << 20, SimTime::ZERO);
        let t = ace.run_until_complete(h);
        assert!(ace.ace_utilization(t).unwrap() > 0.0);
        let base = executor(SystemConfig::BaselineCommOpt, shape442());
        assert!(base.ace_utilization(SimTime::from_cycles(1)).is_none());
    }

    #[test]
    fn ace_busy_cycles_back_the_utilization_ratio() {
        let mut ace = executor(SystemConfig::Ace, shape442());
        let h = ace.issue(CollectiveOp::AllReduce, 4 << 20, SimTime::ZERO);
        let t = ace.run_until_complete(h);
        let busy = ace.ace_busy_cycles(t).expect("ACE tracks busy cycles");
        assert!(busy > 0 && busy <= t.cycles());
        let util = ace.ace_utilization(t).unwrap();
        assert_eq!(util, busy as f64 / t.cycles() as f64);
        let base = executor(SystemConfig::BaselineCommOpt, shape442());
        assert!(base.ace_busy_cycles(SimTime::from_cycles(1)).is_none());
    }

    #[test]
    fn recorded_link_spans_reconcile_with_the_network_meter() {
        let params = NetworkParams::paper_default();
        let plan = CollectivePlan::for_op(CollectiveOp::AllReduce, shape442());
        let weights = CollectiveExecutor::phase_weights(&plan, &params);
        let mut ex = CollectiveExecutor::new(
            shape442(),
            params,
            ExecutorOptions::default(),
            None,
            move || SystemConfig::Ace.make_engine(&weights),
            ace_trace::RecordingTracer::new(),
        );
        let h = ex.issue(CollectiveOp::AllReduce, 4 << 20, SimTime::ZERO);
        ex.run_until_complete(h);
        let tr = ex.tracer();
        assert_eq!(tr.dropped(), 0, "trace overflowed its arena");
        let recorded = tr.span_cycles_with_prefix("link:");
        assert_eq!(
            recorded as f64,
            ex.network().util_busy_total_cycles(),
            "link spans must reconcile with the fabric meter"
        );
        assert!(tr.count_with_prefix("chunk") > 0, "chunk spans recorded");
        assert!(tr.count_with_prefix("phase") > 0, "phase spans recorded");
    }

    #[test]
    fn pipe_busy_totals_sum_engine_counters() {
        let mut ex = executor(SystemConfig::Ace, shape442());
        assert_eq!(ex.pipe_busy_totals(), ace_trace::PipeBusy::default());
        let h = ex.issue(CollectiveOp::AllReduce, 4 << 20, SimTime::ZERO);
        ex.run_until_complete(h);
        let p = ex.pipe_busy_totals();
        assert!(p.hbm > 0 && p.dma > 0 && p.bus > 0 && p.proc > 0);
    }

    #[test]
    fn no_past_schedules_in_a_clean_run() {
        let mut ex = executor(SystemConfig::Ace, shape442());
        let h = ex.issue(CollectiveOp::AllReduce, 8 << 20, SimTime::ZERO);
        ex.run_until_complete(h);
        assert_eq!(ex.past_schedules(), 0);
    }

    /// Total bytes one source's flows carry for a payload, plus its local
    /// slice — must reproduce the payload exactly.
    fn a2a_src_bytes(ex: &CollectiveExecutor, cid: usize, payload: u64) -> u64 {
        let n = ex.nodes;
        let n_chunks = ex.colls[cid].chunk_sizes.len();
        let mut sent = 0;
        for flow in 0..(n - 1) {
            for chunk in 0..n_chunks {
                sent += ex.a2a_flow_bytes(cid, chunk, flow);
            }
        }
        sent + payload / n as u64
    }

    #[test]
    fn a2a_flow_bytes_conserve_payload() {
        // The old per-destination `payload / n` chunking silently dropped
        // up to n-1 remainder bytes per collective.
        for (l, v, hh) in [(2, 1, 1), (4, 2, 2), (4, 4, 4)] {
            let shape = TorusShape::new(l, v, hh).unwrap();
            for payload in [1u64, 7, 1000, 64 * 1024 + 13, (1 << 20) + 1] {
                let mut ex = executor(SystemConfig::Ideal, shape);
                let h = ex.issue(CollectiveOp::AllToAll, payload, SimTime::ZERO);
                let total = a2a_src_bytes(&ex, h.0, payload);
                assert_eq!(
                    total, payload,
                    "payload {payload} on {l}x{v}x{hh}: flows carry {total}"
                );
            }
        }
    }

    #[test]
    fn a2a_sub_node_count_payload_still_travels() {
        // payload < nodes: the per-slice base is zero, but the remainder
        // bytes must still move (previously the collective completed
        // instantly, dropping them).
        let mut ex = executor(SystemConfig::Ideal, shape442());
        let h = ex.issue(CollectiveOp::AllToAll, 7, SimTime::ZERO);
        assert!(!ex.is_complete(h));
        let t = ex.run_until_complete(h);
        assert!(t.cycles() > 0);
        assert!(ex.network().total_bytes() >= 7);
    }

    #[test]
    fn a2a_network_traffic_grows_with_payload_not_truncates() {
        // With conservation, an odd payload must carry at least as many
        // bytes as the truncated even payload below it.
        let run = |payload| {
            let mut ex = executor(SystemConfig::Ideal, shape442());
            let h = ex.issue(CollectiveOp::AllToAll, payload, SimTime::ZERO);
            ex.run_until_complete(h);
            ex.network().total_bytes()
        };
        let n = shape442().nodes() as u64;
        let base = run(1 << 20);
        let odd = run((1 << 20) + (n - 1));
        assert!(odd > base, "remainder bytes must reach the network");
    }

    /// Runs one collective to completion with `sim_threads = threads` and
    /// returns an exact fingerprint of the simulation's observable state:
    /// completion cycles, network bytes, link-busy integral (bit-exact),
    /// endpoint memory traffic, and ACE engine-busy cycles. The parallel
    /// engine is byte-identical to the serial one, so every component must
    /// match the `threads = 1` run exactly.
    fn par_fingerprint(
        spec: TopologySpec,
        op: CollectiveOp,
        payload: u64,
        threads: usize,
    ) -> (u64, u64, u64, u64, u64) {
        let params = NetworkParams::paper_default();
        let plan = CollectivePlan::for_spec(op, spec);
        let weights = CollectiveExecutor::phase_weights(&plan, &params);
        let options = ExecutorOptions {
            sim_threads: threads,
            ..Default::default()
        };
        let config = SystemConfig::Ace;
        let mut ex = CollectiveExecutor::new(
            spec,
            params,
            options,
            None,
            move || config.make_engine(&weights),
            NullTracer,
        );
        if threads > 1 {
            assert!(
                ex.par.is_some(),
                "{spec:?} x{threads}: expected a partition plan"
            );
        }
        let h = ex.issue(op, payload, SimTime::ZERO);
        let t = ex.run_until_complete(h);
        assert!(ex.is_complete(h));
        assert_eq!(ex.past_schedules(), 0, "{spec:?} x{threads}: causality");
        (
            t.cycles(),
            ex.network().total_bytes(),
            ex.network().util_busy_total_cycles().to_bits(),
            ex.comm_mem_traffic_bytes(),
            ex.ace_busy_cycles(t).unwrap_or(0),
        )
    }

    #[test]
    fn parallel_all_reduce_matches_serial_on_torus() {
        let spec: TopologySpec = shape442().into();
        let serial = par_fingerprint(spec, CollectiveOp::AllReduce, 3 << 20, 1);
        for threads in [2, 4] {
            let par = par_fingerprint(spec, CollectiveOp::AllReduce, 3 << 20, threads);
            assert_eq!(par, serial, "all-reduce diverged at {threads} threads");
        }
    }

    #[test]
    fn parallel_all_to_all_matches_serial_on_torus() {
        let spec: TopologySpec = shape442().into();
        let serial = par_fingerprint(spec, CollectiveOp::AllToAll, 3 << 20, 1);
        for threads in [2, 4] {
            let par = par_fingerprint(spec, CollectiveOp::AllToAll, 3 << 20, threads);
            assert_eq!(par, serial, "all-to-all diverged at {threads} threads");
        }
    }

    #[test]
    fn parallel_matches_serial_on_switch_and_hierarchical() {
        let specs = [
            TopologySpec::Switch {
                nodes: 8,
                gbps: None,
            },
            TopologySpec::Hierarchical {
                scale_up: 4,
                scale_out: 3,
            },
        ];
        for spec in specs {
            for op in [CollectiveOp::AllReduce, CollectiveOp::AllToAll] {
                let serial = par_fingerprint(spec, op, 2 << 20, 1);
                for threads in [2, 4] {
                    let par = par_fingerprint(spec, op, 2 << 20, threads);
                    assert_eq!(par, serial, "{spec:?} {op:?} diverged at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial_with_remainder_payload() {
        // Odd payloads exercise the uneven chunk/shard splits; partition
        // boundaries must not round remainder bytes differently.
        let spec: TopologySpec = shape442().into();
        let payload = (1 << 20) + 13;
        let serial = par_fingerprint(spec, CollectiveOp::AllReduce, payload, 1);
        assert_eq!(
            par_fingerprint(spec, CollectiveOp::AllReduce, payload, 4),
            serial
        );
    }

    #[test]
    fn oversubscribed_threads_match_serial() {
        // More threads than nodes: partitions degenerate to one node each
        // and every link crosses a boundary (narrowest possible windows).
        let spec: TopologySpec = shape442().into();
        let serial = par_fingerprint(spec, CollectiveOp::AllReduce, 1 << 20, 1);
        assert_eq!(
            par_fingerprint(spec, CollectiveOp::AllReduce, 1 << 20, 16),
            serial
        );
    }

    #[test]
    fn partition_boundaries_conserve_bytes() {
        // Property: for every shape x thread count, the parallel engine
        // moves exactly the bytes the serial engine does — nothing lost or
        // duplicated at partition boundaries, aligned or not.
        for (x, y, z) in [(2usize, 2usize, 2usize), (4, 2, 2), (3, 3, 1), (5, 2, 1)] {
            let spec: TopologySpec = TorusShape::new(x, y, z).unwrap().into();
            let serial = par_fingerprint(spec, CollectiveOp::AllReduce, 1 << 20, 1);
            for threads in [2, 3, 4] {
                let par = par_fingerprint(spec, CollectiveOp::AllReduce, 1 << 20, threads);
                assert_eq!(
                    par.1, serial.1,
                    "{x}x{y}x{z} x{threads}: bytes not conserved"
                );
                assert_eq!(par, serial, "{x}x{y}x{z} x{threads}: fingerprint diverged");
            }
        }
    }

    #[test]
    fn parallel_back_to_back_collectives_match_serial() {
        let run = |threads: usize| {
            let options = ExecutorOptions {
                sim_threads: threads,
                ..Default::default()
            };
            let mut ex = executor_with(SystemConfig::Ace, shape442(), options);
            let h1 = ex.issue(CollectiveOp::AllReduce, 2 << 20, SimTime::ZERO);
            let t1 = ex.run_until_complete(h1);
            let h2 = ex.issue(CollectiveOp::AllToAll, 2 << 20, t1);
            let t2 = ex.run_until_complete(h2);
            (t1.cycles(), t2.cycles(), ex.network().total_bytes())
        };
        assert_eq!(run(4), run(1));
    }

    #[test]
    fn concurrent_collectives_match_serial() {
        // Two live collectives force the conservative serial fallback in
        // the parallel engine; results still match exactly.
        let run = |threads: usize| {
            let options = ExecutorOptions {
                sim_threads: threads,
                ..Default::default()
            };
            let mut ex = executor_with(SystemConfig::Ace, shape442(), options);
            let h1 = ex.issue(CollectiveOp::AllReduce, 1 << 20, SimTime::ZERO);
            let h2 = ex.issue(CollectiveOp::AllToAll, 1 << 20, SimTime::ZERO);
            let t1 = ex.run_until_complete(h1);
            let t2 = ex.run_until_complete(h2);
            (t1.cycles(), t2.cycles(), ex.network().total_bytes())
        };
        assert_eq!(run(4), run(1));
    }
}
