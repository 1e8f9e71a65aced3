//! Event-driven, message-granularity collective execution across all
//! nodes of the fabric.
//!
//! Each collective payload is split into chunks (Table III) that pipeline
//! independently through the plan's phases (Section IV-E). Ring phases run
//! the classic rotate-reduce chains: every node sends step 0 at phase
//! start, and each arrival triggers the next step's send after the
//! endpoint engine charges its resource costs. Direct all-to-all sends one
//! flow per (source, destination) pair over XYZ routes with per-hop
//! endpoint forwarding; a source's flows are enumerated by destination
//! offset in the fabric's translation group (see
//! [`Topology::translate`]). Bidirectional rings are used by alternating
//! chunk parity between the + and − ring directions.
//!
//! Chunk admission into ACE's SRAM partitions applies backpressure;
//! baseline and ideal endpoints admit unconditionally. A global in-flight
//! chunk cap bounds pipelining depth, and pending collectives are drained
//! in LIFO issue order (Section V: "LIFO collective scheduling policy to
//! give more priority to the collectives of first layers during
//! back-propagation").
//!
//! One serial event loop runs every simulation. Events at equal times pop
//! in the order of a key derived from their content (see `content_key`),
//! which the golden traces pin. A sweep runs its grid cells in parallel;
//! a single cell never spreads over threads.
//!
//! # One representative NPU
//!
//! When every node runs the same schedule, the executor simulates node 0
//! alone: one engine, one admission queue, one arena column per chunk,
//! a neighbor table that sends every ring hop back to node 0, and node
//! 0's all-to-all flows, whose every hop uses node 0's engine and links.
//! [`CollectiveExecutor::new`] picks this form when the run's fault plan
//! is pristine and its tracer is disabled. The
//! outputs are unchanged, bit for bit. Link parameters depend only on the
//! port, every node gets the same engine, and a ring send uses only the
//! sender's own egress link and lands at a neighbor that behaves
//! identically. An all-to-all flow from `src` at offset `off` goes to
//! `translate(src, 1 + off)`, and every fabric's routes depend only on
//! coordinate differences, so the translation taking node 0 to a node
//! maps node 0's flows onto that node's, hop for hop and port for port:
//! the hops that touch any one node are, one for one, the hops of node
//! 0's `n − 1` flows. Same-time events pop by kind, collective and chunk
//! before node, and all-to-all hops by offset and hop before source, so
//! node 0 performs the same operations in the same order either way. A
//! ring chunk completes after node 0's drain, which the full run follows
//! at that instant only with the other nodes' drains of the same chunk;
//! an all-to-all chunk completes at its last flow's drain end, the
//! same offset in both forms. The network and the executor report node
//! 0's integer totals times the node count, before any division. Faults,
//! contention and per-node trace spans need per-node state, so those
//! runs simulate every node. Above 4096 nodes the all-to-all key masks
//! its offsets (see `content_key`), and the two forms may order tied
//! hops differently.
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

use std::collections::VecDeque;

use ace_collectives::{CollectiveOp, CollectivePlan, Granularity, PhaseKind, PhaseLink, PhaseSpec};
use ace_endpoint::CollectiveEngine;
use ace_net::{
    FaultPlan, LinkClass, Network, NetworkParams, NodeId, Port, Route, Topology, TopologySpec,
};
use ace_simcore::{EventQueue, Grant, SimTime};
use ace_trace::{NullTracer, PipeBusy, Tracer, Track};

use crate::collective_run::EngineKind;

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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorOptions {
    /// Payload → chunk → message decomposition (Table III).
    pub granularity: Granularity,
    /// Collective drain order.
    pub scheduling: SchedulingPolicy,
    /// Whether ring chunks alternate between the two ring directions
    /// (bidirectional rings); `false` sends everything the + way.
    pub bidirectional_rings: bool,
    /// Global cap on in-flight chunks, counted over every collective the
    /// executor drains: ring and all-to-all chunks alike.
    pub max_inflight_chunks: usize,
    /// Ignored: no code reads it. It stays only because the benchmark
    /// harness sets it, and the next benchmark change removes it.
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

/// Default cap on globally in-flight chunks, ring and all-to-all alike.
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
    /// An all-to-all message is ready to transmit hop `hop`. A flow is
    /// named by its source and its destination offset `off`: it goes to
    /// `translate(src, 1 + off)`.
    A2aSend {
        coll: u32,
        chunk: u32,
        src: u32,
        off: u32,
        hop: u16,
    },
    /// All-to-all flow arrived at hop `hop` of its route.
    A2aHop {
        coll: u32,
        chunk: u32,
        src: u32,
        off: u32,
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
/// Events at equal times pop in key order, not in the order they were
/// scheduled. The golden traces pin the delivery order this gives, so the
/// packing below is part of the simulated output. `TryInject` never
/// takes a content key — it keeps the queue's plain sequence keys, which
/// stay below `2^60` and therefore sort before every content key at
/// equal times.
///
/// Ring events pack `kind(4) | coll(12) | chunk(18) | node(13) | phase(4)
/// | step(13)`; all-to-all events pack `kind(4) | coll(12) | chunk(18) |
/// off(12) | hop(6) | src(12)`. An all-to-all flow is ranked by its
/// destination offset and hop before its source: at any one node, each
/// `(off, hop)` is the hop of exactly one source's flow, so every node
/// pops its same-time events in the same order, and node 0 pops them in
/// the order the one-node form does. A field wider than its slot is
/// masked to it, as on plans deeper than 16 phases, all-to-alls above
/// 4096 nodes or ring collectives above 8192. Masking can only give two
/// distinct events the same key, merging their tie-break; the key stays
/// a pure function of the event, so runs stay deterministic.
fn content_key(ev: &Ev) -> u64 {
    #[inline]
    fn ring(kind: u64, coll: u32, chunk: u32, node: u32, phase: u16, step: u16) -> u64 {
        kind << 60
            | (coll as u64 & 0xfff) << 48
            | (chunk as u64 & 0x3ffff) << 30
            | (node as u64 & 0x1fff) << 17
            | (phase as u64 & 0xf) << 13
            | (step as u64 & 0x1fff)
    }
    #[inline]
    fn a2a(kind: u64, coll: u32, chunk: u32, src: u32, off: u32, hop: u16) -> u64 {
        kind << 60
            | (coll as u64 & 0xfff) << 48
            | (chunk as u64 & 0x3ffff) << 30
            | (off as u64 & 0xfff) << 18
            | (hop as u64 & 0x3f) << 12
            | (src as u64 & 0xfff)
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
            src,
            off,
            hop,
        } => a2a(6, coll, chunk, src, off, hop),
        Ev::A2aHop {
            coll,
            chunk,
            src,
            off,
            hop,
        } => a2a(7, coll, chunk, src, off, hop),
        // Detour events fold the hop into the step bits (step in the low
        // 9, hop in the next 4), masking both like any other field.
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

/// A message crossing a multi-hop route, stored and forwarded at each
/// intermediate endpoint. Its events keep their own variants, and so their
/// own tie-break keys (see `content_key`).
#[derive(Debug, Clone, Copy)]
enum Relay {
    /// A ring message from `node`, whose direct ring link is killed,
    /// travelling the fault plan's detour to its ring neighbor.
    Detour { node: u32, phase: u16, step: u16 },
    /// The all-to-all flow from `src` to `translate(src, 1 + off)`.
    Flow { src: u32, off: u32 },
}

impl Relay {
    /// The event that transmits hop `hop`.
    fn send(self, coll: usize, chunk: usize, hop: usize) -> Ev {
        let (coll, chunk, hop) = (coll as u32, chunk as u32, hop as u16);
        match self {
            Relay::Detour { node, phase, step } => Ev::DetourSend {
                coll,
                chunk,
                node,
                phase,
                step,
                hop,
            },
            Relay::Flow { src, off } => Ev::A2aSend {
                coll,
                chunk,
                src,
                off,
                hop,
            },
        }
    }

    /// The event of landing at the start of hop `hop`.
    fn landed(self, coll: usize, chunk: usize, hop: usize) -> Ev {
        let (coll, chunk, hop) = (coll as u32, chunk as u32, hop as u16);
        match self {
            Relay::Detour { node, phase, step } => Ev::DetourHop {
                coll,
                chunk,
                node,
                phase,
                step,
                hop,
            },
            Relay::Flow { src, off } => Ev::A2aHop {
                coll,
                chunk,
                src,
                off,
                hop,
            },
        }
    }
}

/// The executor: fabric + per-node engines + the event loop.
///
/// Each node's engine is the boxed endpoint its run's [`EngineKind`]
/// builds ([`EngineKind::endpoint`]).
///
/// Generic over the [`Tracer`]: the default [`NullTracer`]
/// monomorphizes every trace hook to nothing (the perf gate verifies the
/// default build stays on the seed's hot path), while
/// [`ace_trace::RecordingTracer`] — attached via
/// [`new`](CollectiveExecutor::new) — captures link busy
/// spans, chunk/phase lifetimes and queue/pipe occupancy samples.
pub struct CollectiveExecutor<T: Tracer = NullTracer> {
    spec: TopologySpec,
    nodes: usize,
    /// Nodes with simulated state: `nodes`, or 1 when node 0 stands for
    /// every node (see the module docs). Engines, admission queues and
    /// arena columns exist for these nodes only.
    sim_nodes: usize,
    net: Network,
    engines: Vec<Box<dyn CollectiveEngine>>,
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
    /// `dim_nbrs[(dim * 2 + dir) * sim_nodes + node]` neighbor table,
    /// `dir` 0 = positive, 1 = negative — the flat form of
    /// [`Topology::neighbor`] the ring hot path reads. Every entry is
    /// node 0 in the one-node form.
    dim_nbrs: Vec<NodeId>,
    /// Route per all-to-all flow index (built on first all-to-all).
    a2a_routes: Vec<Route>,
    /// Scratch buffer for replaying buffered arrivals.
    replay_scratch: Vec<(u16, u16, SimTime)>,
    /// Degradation plan for a faulted fabric: ring sends consult its
    /// detour routes and all-to-all routes are re-planned around kills.
    fault: Option<FaultPlan>,
    now: SimTime,
    tracer: T,
}

impl<T: Tracer> std::fmt::Debug for CollectiveExecutor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectiveExecutor")
            .field("topology", &self.spec)
            .field("collectives", &self.colls.len())
            .field("inflight", &self.inflight)
            .field("now", &self.now)
            .finish()
    }
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

/// Bytes a flow of destination offset `off` carries for `chunk`: the
/// chunk's share of the per-destination slice, plus one remainder byte on
/// the last chunk of the first `payload % nodes` offsets. Summed over a
/// source's flows and its local slice this reproduces the original
/// payload exactly (byte conservation).
fn a2a_flow_bytes_of(coll: &Coll, chunk: usize, off: usize) -> u64 {
    let last = chunk + 1 == coll.chunk_sizes.len();
    coll.chunk_sizes[chunk] + u64::from(last && (off as u64) < coll.a2a_extra)
}

// The event handlers. `handle` runs one per popped event; a handler
// schedules the events it causes, and the last drain or flow of a chunk
// completes the chunk in the same dispatch.
impl<T: Tracer> CollectiveExecutor<T> {
    /// Schedules `ev` at `at` under its content key.
    fn emit(&mut self, at: SimTime, ev: Ev) {
        self.queue.schedule_keyed(at, content_key(&ev), ev);
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::TryInject => {
                self.inject_at = None;
                self.drain_lifo(now);
            }
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
                src,
                off,
                hop,
            } => {
                let flow = Relay::Flow { src, off };
                self.relay_send(now, coll as usize, chunk as usize, flow, hop as usize);
            }
            Ev::A2aHop {
                coll,
                chunk,
                src,
                off,
                hop,
            } => {
                let flow = Relay::Flow { src, off };
                self.relay_hop(now, coll as usize, chunk as usize, flow, hop as usize);
            }
            Ev::DetourSend {
                coll,
                chunk,
                node,
                phase,
                step,
                hop,
            } => {
                let detour = Relay::Detour { node, phase, step };
                self.relay_send(now, coll as usize, chunk as usize, detour, hop as usize);
            }
            Ev::DetourHop {
                coll,
                chunk,
                node,
                phase,
                step,
                hop,
            } => {
                let detour = Relay::Detour { node, phase, step };
                self.relay_hop(now, coll as usize, chunk as usize, detour, hop as usize);
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
        let aw = &mut self.admit_wait[node];
        if aw.len() <= p {
            aw.resize_with(p + 1, VecDeque::new);
        }
        let bytes = admit_bytes_of(&self.colls[cid], chunk, phase);
        if self.admit_wait[node][p].is_empty() && self.engines[node].try_admit(p, bytes, now) {
            if held_phase != NOT_STARTED {
                let held_bytes = admit_bytes_of(&self.colls[cid], chunk, held_phase);
                self.engines[node].release(held_phase as usize, held_bytes, now);
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
            let q = &mut self.admit_wait[node][p];
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
        loop {
            let mut progress = false;
            for p in 0..self.admit_wait[node].len() {
                while let Some(&(_, w)) = self.admit_wait[node][p].front() {
                    let bytes =
                        admit_bytes_of(&self.colls[w.coll as usize], w.chunk as usize, p as u16);
                    if !self.engines[node].try_admit(p, bytes, now) {
                        break;
                    }
                    self.admit_wait[node][p].pop_front();
                    if w.held_phase != NOT_STARTED {
                        let held = admit_bytes_of(
                            &self.colls[w.coll as usize],
                            w.chunk as usize,
                            w.held_phase,
                        );
                        self.engines[node].release(w.held_phase as usize, held, now);
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
        self.arena[slot].node_phase[node] = phase;
        self.arena[slot].arr_count[node] = 0;
        if phase == n_phases {
            // Terminal drain: RX DMA back to HBM.
            let bytes = admit_bytes_of(&self.colls[cid], chunk, phase);
            let done = self.engines[node].chunk_complete(now, bytes);
            self.emit(
                done.max(now),
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
            let staged = self.engines[node].chunk_inject(now, size);
            self.emit(
                staged.max(now),
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
        let ready = self.engines[node].fetch_and_send(now, shard, phase as usize);
        self.emit(
            ready.max(now),
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
        let mut scratch = std::mem::take(&mut self.replay_scratch);
        scratch.clear();
        let slot = chunk_slot_of(&self.colls[cid], chunk);
        take_phase(&mut self.arena[slot].pending[node], phase, &mut scratch);
        for &(p, s, at) in &scratch {
            self.ring_arrive(now.max(at), cid, chunk, node, p, s);
        }
        scratch.clear();
        self.replay_scratch = scratch;
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

    /// Whether `chunk` rides the + ring direction: bidirectional rings
    /// alternate chunk parity across directions (unidirectional mode
    /// sends everything the + way — an ablation).
    fn rides_plus(&self, chunk: usize) -> bool {
        !self.options.bidirectional_rings || chunk.is_multiple_of(2)
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
        let plus = self.rides_plus(chunk);
        let (port_idx, dir) = if plus {
            (hot.port_idx_plus as usize, 0)
        } else {
            (hot.port_idx_minus as usize, 1)
        };
        let dst = self.dim_nbrs[(hot.dim as usize * 2 + dir) * self.sim_nodes + node];
        // On a faulted fabric the direct ring link may be killed: the
        // fault plan then carries a BFS detour route to the same ring
        // neighbor, and the message travels it hop by hop instead.
        let detoured = self.fault.as_ref().is_some_and(|fp| {
            fp.ring_detour(hot.dim as usize, plus, NodeId(node))
                .is_some()
        });
        if detoured {
            let detour = Relay::Detour {
                node: node as u32,
                phase,
                step,
            };
            self.relay_send(now, cid, chunk, detour, 0);
            return;
        }
        let out = self
            .net
            .transmit(now, NodeId(node), Port::from_index(port_idx), bytes);
        self.trace_link(node, port_idx, out.grant);
        self.emit(
            out.arrival,
            Ev::RingArrive {
                coll: cid as u32,
                chunk: chunk as u32,
                node: dst.index() as u32,
                phase,
                step,
            },
        );
    }

    /// The route `relay` travels for `(cid, chunk)`, the bytes it
    /// carries, and the phase whose resources a store-and-forward
    /// charges. A detour follows the fault plan's route around the killed
    /// ring link in the chunk's ring direction; a flow follows its
    /// all-to-all route on phase 0's resources (all-to-all is
    /// single-phase).
    fn relay_route(&self, cid: usize, chunk: usize, relay: Relay) -> (&Route, u64, usize) {
        let coll = &self.colls[cid];
        match relay {
            Relay::Detour { node, phase, .. } => {
                let dim = coll.phase_hot[phase as usize].dim as usize;
                let route = self
                    .fault
                    .as_ref()
                    .expect("detours only exist on faulted fabrics")
                    .ring_detour(dim, self.rides_plus(chunk), NodeId(node as usize))
                    .expect("detour for an intact ring link");
                (route, shard_bytes_of(coll, chunk, phase), phase as usize)
            }
            Relay::Flow { src, off } => {
                let (src, off) = (src as usize, off as usize);
                let route = &self.a2a_routes[src * (self.nodes - 1) + off];
                (route, a2a_flow_bytes_of(coll, chunk, off), 0)
            }
        }
    }

    /// Transmits hop `hop` of `relay` at event time. The message lands
    /// at `h.to`, which starts the next hop (routes are contiguous) or is
    /// the destination. A detour's last hop lands as an ordinary
    /// `RingArrive` at the ring neighbor, so the receiving state machine
    /// cannot tell a detour from a direct send.
    fn relay_send(&mut self, now: SimTime, cid: usize, chunk: usize, relay: Relay, hop: usize) {
        let (route, bytes, _) = self.relay_route(cid, chunk, relay);
        let (h, last) = (route[hop], hop + 1 == route.len());
        let out = self.net.transmit(now, h.from, h.port, bytes);
        self.trace_link(h.from.index(), h.port.index(), out.grant);
        let ev = match relay {
            Relay::Detour { phase, step, .. } if last => Ev::RingArrive {
                coll: cid as u32,
                chunk: chunk as u32,
                node: h.to.index() as u32,
                phase,
                step,
            },
            _ => relay.landed(cid, chunk, hop + 1),
        };
        self.emit(out.arrival, ev);
    }

    /// `relay` landed at the start of hop `hop`. An intermediate endpoint
    /// charges the store-and-forward, then sends the next hop. A flow
    /// past its last hop has arrived: the destination lands and drains
    /// it, and the chunk completes with its last flow, when that flow's
    /// drain ends.
    fn relay_hop(&mut self, now: SimTime, cid: usize, chunk: usize, relay: Relay, hop: usize) {
        let (route, bytes, phase) = self.relay_route(cid, chunk, relay);
        if hop < route.len() {
            let at = self.sim_node(route[hop].from);
            let ready = self.engines[at].store_and_forward(now, bytes, phase);
            self.emit(ready.max(now), relay.send(cid, chunk, hop));
            return;
        }
        let dst = self.sim_node(route.last().expect("route nonempty").to);
        let landed = self.engines[dst].receive(now, bytes, 0);
        let done = self.engines[dst].chunk_complete(landed, bytes).max(now);
        let st = self.chunk_state_mut(cid, chunk);
        st.flows_done += 1;
        if st.flows_done == st.flows_total {
            self.chunk_complete(done, cid, chunk);
        }
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
        let np = self.arena[slot].node_phase[node];
        if np == NOT_STARTED || np < phase {
            self.arena[slot].pending[node].push((phase, step, now));
            return;
        }
        debug_assert_eq!(np, phase, "arrival for a past phase");
        // Steps of one phase normally land in order (sends are chained
        // and links are FIFO), but a fault-plan detour's intermediate
        // store-and-forward can grant a later step an earlier finish on
        // a multi-lane engine. Hold a future step until its
        // predecessors have been consumed; the trailing replay below
        // drains it as soon as the gap closes.
        let expected = self.arena[slot].arr_count[node];
        if step > expected {
            self.arena[slot].pending[node].push((phase, step, now));
            return;
        }
        debug_assert_eq!(step, expected, "duplicate ring arrival");
        self.arena[slot].arr_count[node] += 1;
        let hot = self.colls[cid].phase_hot[phase as usize];
        let k = hot.ring_k;
        let final_step = hot.final_step;
        let shard = shard_bytes_of(&self.colls[cid], chunk, phase);
        let engine = &mut self.engines[node];
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
            self.emit(
                ready.max(landed).max(now),
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
            self.emit(
                done.max(now),
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

    /// `node` finished the chunk's terminal drain and releases its
    /// partition; the chunk completes with the last node's drain.
    fn drain_done(&mut self, now: SimTime, cid: usize, chunk: usize, node: usize) {
        let n_phases = self.colls[cid].plan.phases().len() as u16;
        let terminal_bytes = admit_bytes_of(&self.colls[cid], chunk, n_phases);
        self.engines[node].release(n_phases as usize, terminal_bytes, now);
        self.retry_waiters(now, node);
        let sim_nodes = self.sim_nodes;
        let st = self.chunk_state_mut(cid, chunk);
        st.node_phase[node] = n_phases + 1;
        st.nodes_done += 1;
        if st.nodes_done == sim_nodes {
            self.chunk_complete(now, cid, chunk);
        }
    }

    /// The simulated node standing for fabric node `node`: `node` itself,
    /// or node 0 in the one-node form.
    fn sim_node(&self, node: NodeId) -> usize {
        if self.sim_nodes == 1 {
            0
        } else {
            node.index()
        }
    }
}

/// Per-phase SRAM-partition weights for a plan on `net`'s links
/// (Section IV-I: bandwidth × chunk size). Used to size ACE
/// endpoints.
fn phase_weights(plan: &CollectivePlan, net: &NetworkParams) -> Vec<f64> {
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

impl<T: Tracer> CollectiveExecutor<T> {
    /// Builds an executor over the paper's network on `topology`, with
    /// one `engine` endpoint per node, tuned by `options` (ablation
    /// knobs). An ACE endpoint partitions its SRAM by the phase weights
    /// of `sized_for`'s plan on this fabric (Section IV-I: bandwidth ×
    /// chunk size), so size it for the collectives the run issues.
    ///
    /// `faults` degrades the fabric: killed links are removed from the
    /// network (ring sends take the plan's detour routes, all-to-all
    /// routes are re-planned around the kills) and degraded links run at
    /// their reduced bandwidth. `None` or a pristine plan builds the
    /// ordinary executor.
    ///
    /// `tracer` receives the run's events: [`NullTracer`] compiles every
    /// hook away, while an [`ace_trace::RecordingTracer`] is read back
    /// through [`tracer`](CollectiveExecutor::tracer) after the run.
    ///
    /// A run on a pristine fabric with a disabled tracer simulates node 0
    /// alone (see the module docs), which reports the same results as
    /// simulating every node. Faulted and traced runs simulate every
    /// node; an enabled tracer that records nothing forces that form.
    pub fn new(
        topology: TopologySpec,
        sized_for: CollectiveOp,
        options: ExecutorOptions,
        faults: Option<&FaultPlan>,
        engine: EngineKind,
        tracer: T,
    ) -> CollectiveExecutor<T> {
        let fault = faults.filter(|fp| !fp.is_pristine()).cloned();
        // A pristine, untraced run is symmetric: node 0 stands for all.
        let one_node = fault.is_none() && !tracer.enabled();
        let net_params = NetworkParams::paper_default();
        let mut net = if one_node {
            Network::representative(topology, net_params)
        } else {
            Network::new(topology, net_params)
        };
        if let Some(fp) = &fault {
            net.apply_fault_plan(fp);
        }
        let topo = net.topology();
        let nodes = topo.nodes();
        let sim_nodes = if one_node { 1 } else { nodes };
        let weights = phase_weights(&CollectivePlan::for_topology(sized_for, topo), net.params());
        let engines = (0..sim_nodes).map(|_| engine.endpoint(&weights)).collect();
        let max_inflight = options.max_inflight_chunks.max(1);
        // Flatten the topology's neighbor function into the table the
        // ring hot path indexes: `(dim * 2 + dir) * sim_nodes + node`.
        // Node 0's ring neighbors behave exactly like node 0, so the
        // one-node form sends every hop back to it.
        let mut dim_nbrs = Vec::with_capacity(topo.dims().len() * 2 * sim_nodes);
        for (d, info) in topo.dims().iter().enumerate() {
            for plus in [true, false] {
                for node in 0..sim_nodes {
                    dim_nbrs.push(if info.len > 1 && !one_node {
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
        CollectiveExecutor {
            spec: topology,
            nodes,
            sim_nodes,
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
            admit_wait: vec![Vec::new(); sim_nodes],
            next_seq: 0,
            inject_at: None,
            dim_nbrs,
            a2a_routes: Vec::new(),
            replay_scratch: Vec::new(),
            fault,
            now: SimTime::ZERO,
            tracer,
        }
    }

    /// The fabric's topology identity.
    pub fn spec(&self) -> TopologySpec {
        self.spec
    }

    /// Number of NPUs in the fabric.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of NPUs whose state is simulated: 1 in the one-node form,
    /// [`nodes`](CollectiveExecutor::nodes) otherwise.
    pub(crate) fn simulated_nodes(&self) -> usize {
        self.sim_nodes
    }

    /// How many fabric nodes each simulated node stands for.
    fn replicas(&self) -> u64 {
        (self.nodes / self.sim_nodes) as u64
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
            * self.replicas()
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
                // destination offset (see `a2a_flow_bytes_of`) so total
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

    /// Runs until `coll` completes; returns its completion time. Events
    /// of every other live collective are processed along the way, in
    /// global time order.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains without completing the collective
    /// (a deadlock — indicates an internal invariant violation).
    pub fn run_until_complete(&mut self, coll: CollHandle) -> SimTime {
        while !self.colls[coll.0].is_complete() {
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

    /// Exact ACE busy cycles (node 0) over `[0, horizon]`, when the
    /// engine tracks them.
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
        self.queue.past_schedules() * self.replicas()
    }

    // ------------------------------------------------------------------
    // Chunk injection
    // ------------------------------------------------------------------

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
        self.arena[slot as usize].reset(self.sim_nodes);
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
        for node in 0..self.sim_nodes {
            self.request_phase(now, cid, chunk, node, 0, NOT_STARTED);
        }
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

    /// Builds the route table on first use: the flows of every simulated
    /// source, `src * (nodes - 1) + off` for the flow from `src` to
    /// `translate(src, 1 + off)`. The one-node form holds node 0's
    /// `nodes - 1` routes.
    fn ensure_a2a_routes(&mut self) {
        if !self.a2a_routes.is_empty() {
            return;
        }
        let topo = self.net.topology();
        let n = self.nodes;
        let mut routes = Vec::with_capacity(self.sim_nodes * (n - 1));
        for src in (0..self.sim_nodes).map(NodeId) {
            for off in 0..n - 1 {
                let dst = topo.translate(src, NodeId(1 + off));
                routes.push(match &self.fault {
                    // Killed links force the flow onto a BFS route around
                    // them; resolve() proved the fabric stays connected,
                    // so the detour always exists.
                    Some(fp) if fp.has_kills() => fp
                        .route_around(topo, src, dst)
                        .expect("fault plan resolved on a connected fabric"),
                    _ => topo.route(src, dst),
                });
            }
        }
        self.a2a_routes = routes;
    }

    /// Injects the chunk's flows from every simulated source: node 0's
    /// `nodes - 1` flows alone in the one-node form (see the module docs).
    fn inject_a2a_chunk(&mut self, now: SimTime, cid: usize, chunk: usize) {
        self.acquire_chunk_slot(cid, chunk);
        self.ensure_a2a_routes();
        let n = self.nodes;
        self.chunk_state_mut(cid, chunk).flows_total = self.sim_nodes * (n - 1);
        for src in 0..self.sim_nodes {
            for off in 0..n - 1 {
                let bytes = a2a_flow_bytes_of(&self.colls[cid], chunk, off);
                // Stage the source's slice buffer once per chunk.
                // All-to-all is single-phase: it shares phase 0's
                // partition and FSMs (Section V).
                let staged = if off == 0 {
                    self.engines[src].chunk_inject(now, bytes)
                } else {
                    now
                };
                let ready = self.engines[src].fetch_and_send(now, bytes, 0).max(staged);
                let ev = Ev::A2aSend {
                    coll: cid as u32,
                    chunk: chunk as u32,
                    src: src as u32,
                    off: off as u32,
                    hop: 0,
                };
                self.emit(ready.max(now), ev);
            }
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
    use ace_net::TopologySpec;

    fn executor(config: SystemConfig, topology: TopologySpec) -> CollectiveExecutor {
        executor_with(config, topology, ExecutorOptions::default())
    }

    /// A pristine-fabric executor with `config`'s engines (sized for the
    /// all-reduce plan) under `options`.
    fn executor_with(
        config: SystemConfig,
        spec: TopologySpec,
        options: ExecutorOptions,
    ) -> CollectiveExecutor {
        let op = CollectiveOp::AllReduce;
        CollectiveExecutor::new(spec, op, options, None, config.engine(), NullTracer)
    }

    fn shape442() -> TopologySpec {
        TopologySpec::torus3(4, 2, 2).unwrap()
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
        assert_eq!(ex.run_until_complete(h), SimTime::from_cycles(5));
    }

    #[test]
    fn network_records_traffic() {
        let mut ex = executor(SystemConfig::Ideal, shape442());
        let h = ex.issue(CollectiveOp::AllReduce, 4 << 20, SimTime::ZERO);
        ex.run_until_complete(h);
        assert!(ex.network().total_bytes() > 0);
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
    fn ace_busy_cycles_back_the_utilization_ratio() {
        let mut ace = executor(SystemConfig::Ace, shape442());
        let h = ace.issue(CollectiveOp::AllReduce, 4 << 20, SimTime::ZERO);
        let t = ace.run_until_complete(h);
        let busy = ace.ace_busy_cycles(t).expect("ACE tracks busy cycles");
        assert!(busy > 0 && busy <= t.cycles());
        let base = executor(SystemConfig::BaselineCommOpt, shape442());
        assert!(base.ace_busy_cycles(SimTime::from_cycles(1)).is_none());
    }

    #[test]
    fn recorded_link_spans_reconcile_with_the_network_meter() {
        let mut ex = CollectiveExecutor::new(
            shape442(),
            CollectiveOp::AllReduce,
            ExecutorOptions::default(),
            None,
            SystemConfig::Ace.engine(),
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
    fn plans_deeper_than_the_content_key_run_to_completion() {
        // 18 and 17 all-reduce phases overflow the key's 4-bit phase
        // field; masking merges tie-breaks but must not stop the run.
        for (topology, phases) in [("switch:512", 18), ("hier:256x2", 17)] {
            let spec: TopologySpec = topology.parse().unwrap();
            let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
            assert_eq!(plan.phases().len(), phases, "{topology}");
            let mut ex = executor(SystemConfig::Ace, spec);
            let h = ex.issue(CollectiveOp::AllReduce, 64 << 10, SimTime::ZERO);
            assert!(ex.run_until_complete(h).cycles() > 0, "{topology}");
            assert_eq!(ex.past_schedules(), 0, "{topology}");
        }
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
        for off in 0..(n - 1) {
            for chunk in 0..n_chunks {
                sent += a2a_flow_bytes_of(&ex.colls[cid], chunk, off);
            }
        }
        sent + payload / n as u64
    }

    #[test]
    fn a2a_flow_bytes_conserve_payload() {
        // The old per-destination `payload / n` chunking silently dropped
        // up to n-1 remainder bytes per collective.
        for (l, v, hh) in [(2, 1, 1), (4, 2, 2), (4, 4, 4)] {
            let shape = TopologySpec::torus3(l, v, hh).unwrap();
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
}
