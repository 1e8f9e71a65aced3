//! Zero-cost instrumentation for the ACE simulator.
//!
//! The hot layers (event loop, fabric, endpoint engines, training
//! scheduler) are generic over a [`Tracer`]. The default [`NullTracer`]
//! monomorphizes every hook to nothing — the perf gate verifies the
//! default build pays zero cycles for the plumbing — while a
//! [`RecordingTracer`] captures spans and counters into a compact
//! in-memory arena that exports to Chrome/Perfetto `trace_event` JSON
//! (see [`chrome`]).
//!
//! The same recorded pipe-busy totals feed the [`Attribution`] report:
//! wall-cycles decomposed into compute / per-pipe communication buckets
//! that sum **exactly** to total runtime (largest-remainder
//! apportionment; conservation is a hard invariant, enforced by
//! property tests).
//!
//! # Example
//!
//! ```
//! use ace_simcore::SimTime;
//! use ace_trace::{RecordingTracer, Tracer, Track};
//!
//! let mut t = RecordingTracer::new();
//! let track = Track { pid: 0, tid: 0 };
//! t.span(track, "phase", SimTime::from_cycles(10), SimTime::from_cycles(30));
//! assert_eq!(t.len(), 1);
//! let json = ace_trace::chrome::to_chrome_json(&t);
//! assert!(ace_trace::chrome::validate_chrome_trace(&json).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;

use std::collections::HashMap;

use ace_simcore::SimTime;

/// A timeline in the exported trace. `pid` groups related timelines into
/// one Perfetto "process" (a node group, the scheduler, ...); `tid`
/// selects a lane within the group (a link, the chunk lane, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Track {
    /// Process id: one per node group in the exported trace.
    pub pid: u32,
    /// Thread id: one lane (link, task stream, ...) within the group.
    pub tid: u32,
}

/// Instrumentation hooks threaded through the simulator's hot layers.
///
/// Every method defaults to a no-op so [`NullTracer`] is literally
/// `impl Tracer for NullTracer {}` — after monomorphization and
/// inlining the hooks vanish from the default build. Callers must guard
/// any *name formatting* behind [`enabled`](Tracer::enabled) so the
/// `format!` work folds away too.
pub trait Tracer {
    /// Whether this tracer records anything. Guard dynamic label
    /// construction behind this so a `NullTracer` build does no work.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Names a process (`pid`) in the exported trace.
    #[inline]
    fn meta_process(&mut self, _pid: u32, _name: &str) {}

    /// Names a lane (`track`) in the exported trace.
    #[inline]
    fn meta_thread(&mut self, _track: Track, _name: &str) {}

    /// Records a complete span `[start, end)` on `track`.
    #[inline]
    fn span(&mut self, _track: Track, _name: &str, _start: SimTime, _end: SimTime) {}

    /// Opens an async span identified by `id` (closed by [`Tracer::end`]
    /// with the same `id` — no per-span start state needed at the
    /// call site).
    #[inline]
    fn begin(&mut self, _track: Track, _name: &str, _id: u64, _at: SimTime) {}

    /// Closes the async span opened with the same `id`.
    #[inline]
    fn end(&mut self, _track: Track, _name: &str, _id: u64, _at: SimTime) {}

    /// Records an instantaneous event.
    #[inline]
    fn instant(&mut self, _track: Track, _name: &str, _at: SimTime) {}

    /// Samples a counter value (queue depth, pipe busy cycles, ...).
    #[inline]
    fn counter(&mut self, _track: Track, _name: &str, _at: SimTime, _value: f64) {}
}

/// The default tracer: records nothing, costs nothing. Every hook is the
/// trait's no-op default, so a `CollectiveExecutor<NullTracer>` build
/// compiles to exactly the un-instrumented code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {}

/// What one recorded event is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// A complete span with the given duration in cycles.
    Complete {
        /// Span length in cycles.
        dur: u64,
    },
    /// Async span open, correlated by `id`.
    Begin {
        /// Correlation id shared with the matching end event.
        id: u64,
    },
    /// Async span close, correlated by `id`.
    End {
        /// Correlation id shared with the matching begin event.
        id: u64,
    },
    /// An instantaneous event.
    Instant,
    /// A counter sample.
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One recorded event in the arena. Names are interned; `name` indexes
/// [`RecordingTracer::name`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// The timeline this event belongs to.
    pub track: Track,
    /// Interned name index.
    pub name: u32,
    /// Timestamp in cycles.
    pub ts: u64,
    /// Event kind and kind-specific data.
    pub payload: Payload,
}

/// Default arena capacity: beyond this many events new records are
/// dropped (and counted) rather than growing without bound.
pub const DEFAULT_EVENT_CAP: usize = 2_000_000;

/// A tracer that records spans and counters into a compact in-memory
/// arena: one flat `Vec` of [`Event`]s plus an interned name table.
#[derive(Debug, Default)]
pub struct RecordingTracer {
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    events: Vec<Event>,
    cap: usize,
    dropped: u64,
    processes: Vec<(u32, String)>,
    threads: Vec<(Track, String)>,
}

impl RecordingTracer {
    /// An empty tracer with the [default event cap](DEFAULT_EVENT_CAP).
    pub fn new() -> RecordingTracer {
        RecordingTracer {
            cap: DEFAULT_EVENT_CAP,
            ..RecordingTracer::default()
        }
    }

    /// An empty tracer that drops events past `cap`.
    pub fn with_capacity(cap: usize) -> RecordingTracer {
        RecordingTracer {
            cap,
            ..RecordingTracer::default()
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped because the arena hit its cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorded events, in record order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Resolves an interned name index (see [`Event::name`]).
    pub fn name(&self, idx: u32) -> &str {
        &self.names[idx as usize]
    }

    /// Registered `(pid, name)` process labels.
    pub fn processes(&self) -> &[(u32, String)] {
        &self.processes
    }

    /// Registered `(track, name)` lane labels.
    pub fn threads(&self) -> &[(Track, String)] {
        &self.threads
    }

    /// Sum of `Complete`-span durations whose name starts with `prefix`
    /// — the reconciliation hook the conservation tests use (e.g. every
    /// `link:` span vs the network's bucket-meter total).
    pub fn span_cycles_with_prefix(&self, prefix: &str) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e.payload {
                Payload::Complete { dur } if self.name(e.name).starts_with(prefix) => Some(dur),
                _ => None,
            })
            .sum()
    }

    /// Number of events whose name starts with `prefix`.
    pub fn count_with_prefix(&self, prefix: &str) -> usize {
        self.events
            .iter()
            .filter(|e| self.name(e.name).starts_with(prefix))
            .count()
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    fn push(&mut self, track: Track, name: &str, ts: u64, payload: Payload) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        let name = self.intern(name);
        self.events.push(Event {
            track,
            name,
            ts,
            payload,
        });
    }
}

impl Tracer for RecordingTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn meta_process(&mut self, pid: u32, name: &str) {
        if !self.processes.iter().any(|(p, _)| *p == pid) {
            self.processes.push((pid, name.to_string()));
        }
    }

    fn meta_thread(&mut self, track: Track, name: &str) {
        if !self.threads.iter().any(|(t, _)| *t == track) {
            self.threads.push((track, name.to_string()));
        }
    }

    fn span(&mut self, track: Track, name: &str, start: SimTime, end: SimTime) {
        let dur = end.cycles().saturating_sub(start.cycles());
        self.push(track, name, start.cycles(), Payload::Complete { dur });
    }

    fn begin(&mut self, track: Track, name: &str, id: u64, at: SimTime) {
        self.push(track, name, at.cycles(), Payload::Begin { id });
    }

    fn end(&mut self, track: Track, name: &str, id: u64, at: SimTime) {
        self.push(track, name, at.cycles(), Payload::End { id });
    }

    fn instant(&mut self, track: Track, name: &str, at: SimTime) {
        self.push(track, name, at.cycles(), Payload::Instant);
    }

    fn counter(&mut self, track: Track, name: &str, at: SimTime, value: f64) {
        self.push(track, name, at.cycles(), Payload::Counter { value });
    }
}

/// Integer busy-cycle totals of an endpoint engine's pipes, accumulated
/// from the grants its resource servers hand out. Matches the analytic
/// model's pipe terms so exact-vs-analytic residuals are attributable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipeBusy {
    /// HBM (comm partition read/write) busy cycles.
    pub hbm: u64,
    /// TX + RX DMA engine busy cycles.
    pub dma: u64,
    /// NPU-AFI bus busy cycles.
    pub bus: u64,
    /// Processing busy cycles: ACE FSM/SRAM/ALU, or baseline SM drive.
    pub proc: u64,
}

impl std::ops::Add for PipeBusy {
    type Output = PipeBusy;

    /// Element-wise sum.
    fn add(self, other: PipeBusy) -> PipeBusy {
        PipeBusy {
            hbm: self.hbm + other.hbm,
            dma: self.dma + other.dma,
            bus: self.bus + other.bus,
            proc: self.proc + other.proc,
        }
    }
}

impl std::ops::Mul<u64> for PipeBusy {
    type Output = PipeBusy;

    /// Element-wise scaling: the totals of `k` engines that each
    /// recorded `self`.
    fn mul(self, k: u64) -> PipeBusy {
        PipeBusy {
            hbm: self.hbm * k,
            dma: self.dma * k,
            bus: self.bus * k,
            proc: self.proc * k,
        }
    }
}

/// Per-pipe weights used to split communication cycles into bound
/// buckets. Usually the measured busy-cycle totals of each pipe.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipeWeights {
    /// Fabric-link busy weight.
    pub network: f64,
    /// HBM pipe weight.
    pub hbm: f64,
    /// DMA pipe weight.
    pub dma: f64,
    /// NPU-AFI bus weight.
    pub bus: f64,
    /// Processing (FSM/SRAM/ALU or SM drive) weight.
    pub proc: f64,
}

impl PipeWeights {
    /// Weights from engine pipe totals plus a network busy total.
    pub fn from_pipes(pipes: PipeBusy, network: f64) -> PipeWeights {
        PipeWeights {
            network,
            hbm: pipes.hbm as f64,
            dma: pipes.dma as f64,
            bus: pipes.bus as f64,
            proc: pipes.proc as f64,
        }
    }
}

/// A per-run bottleneck attribution: wall-cycles decomposed into compute
/// and per-pipe communication-bound buckets. The buckets **always** sum
/// exactly to `total_cycles` — construction apportions by the
/// largest-remainder method, so no cycle is lost to rounding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// End-to-end wall cycles the buckets decompose.
    pub total_cycles: u64,
    /// Cycles attributed to compute.
    pub compute_cycles: u64,
    /// Exposed-communication cycles bound by fabric links.
    pub network_cycles: u64,
    /// Exposed-communication cycles bound by the HBM pipe.
    pub hbm_cycles: u64,
    /// Exposed-communication cycles bound by the TX/RX DMA pipe.
    pub dma_cycles: u64,
    /// Exposed-communication cycles bound by the NPU-AFI bus.
    pub bus_cycles: u64,
    /// Exposed-communication cycles bound by endpoint processing
    /// (ACE FSM/SRAM/ALU, or baseline SM drive).
    pub proc_cycles: u64,
    /// Cycles not attributable to any measured pipe (latency gaps,
    /// scheduling slack, or zero-weight degenerate runs).
    pub other_cycles: u64,
}

impl Attribution {
    /// Decomposes `total` wall cycles into `compute` plus per-pipe
    /// communication buckets proportional to `weights`.
    ///
    /// The communication share (`total - compute`) is split by the
    /// largest-remainder method: floor shares first, then the leftover
    /// cycles go to the largest fractional parts (ties broken by fixed
    /// pipe order), so the buckets sum exactly to `total`. Zero weights
    /// put the whole communication share in `other_cycles`.
    pub fn attribute(total: u64, compute: u64, weights: &PipeWeights) -> Attribution {
        let compute = compute.min(total);
        let comm = total - compute;
        let w = [
            weights.network.max(0.0),
            weights.hbm.max(0.0),
            weights.dma.max(0.0),
            weights.bus.max(0.0),
            weights.proc.max(0.0),
        ];
        let wsum: f64 = w.iter().sum();
        let mut buckets = [0u64; 5];
        let mut other = comm;
        if wsum > 0.0 && comm > 0 {
            let mut fracs = [0.0f64; 5];
            let mut assigned = 0u64;
            for i in 0..5 {
                let share = comm as f64 * w[i] / wsum;
                let fl = share.floor();
                // `share <= comm` by construction, so the cast is safe.
                buckets[i] = fl as u64;
                fracs[i] = share - fl;
                assigned += buckets[i];
            }
            let mut rest = comm - assigned.min(comm);
            while rest > 0 {
                // Largest fractional part wins; fixed pipe order breaks
                // ties deterministically.
                let mut best = 0;
                for i in 1..5 {
                    if fracs[i] > fracs[best] {
                        best = i;
                    }
                }
                buckets[best] += 1;
                fracs[best] = -1.0;
                rest -= 1;
            }
            other = 0;
        }
        Attribution {
            total_cycles: total,
            compute_cycles: compute,
            network_cycles: buckets[0],
            hbm_cycles: buckets[1],
            dma_cycles: buckets[2],
            bus_cycles: buckets[3],
            proc_cycles: buckets[4],
            other_cycles: other,
        }
    }

    /// Whether the buckets sum exactly to `total_cycles` — always true
    /// for values built by [`Attribution::attribute`]; the conservation
    /// property tests assert it end-to-end.
    pub fn conserves(&self) -> bool {
        self.compute_cycles
            + self.network_cycles
            + self.hbm_cycles
            + self.dma_cycles
            + self.bus_cycles
            + self.proc_cycles
            + self.other_cycles
            == self.total_cycles
    }

    /// The bucket sum (diagnostic counterpart of [`conserves`](Attribution::conserves)).
    pub fn bucket_sum(&self) -> u64 {
        self.buckets().iter().map(|(_, v)| v).sum()
    }

    /// The seven buckets as `(name, cycles)` pairs in the canonical
    /// column order (`compute`, `network`, `hbm`, `dma`, `bus`, `proc`,
    /// `other`) — the single source of truth for every emitter that
    /// serializes an attribution row (sweep CSV/JSON columns, cache-file
    /// rows, bus events), so the orderings cannot drift apart.
    pub fn buckets(&self) -> [(&'static str, u64); 7] {
        [
            ("compute", self.compute_cycles),
            ("network", self.network_cycles),
            ("hbm", self.hbm_cycles),
            ("dma", self.dma_cycles),
            ("bus", self.bus_cycles),
            ("proc", self.proc_cycles),
            ("other", self.other_cycles),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: u64) -> SimTime {
        SimTime::from_cycles(c)
    }

    #[test]
    fn null_tracer_is_disabled_and_silent() {
        let mut n = NullTracer;
        assert!(!n.enabled());
        // No-ops compile and do nothing observable.
        n.span(Track::default(), "x", t(0), t(10));
        n.counter(Track::default(), "c", t(0), 1.0);
    }

    #[test]
    fn recording_tracer_records_and_interns() {
        let mut r = RecordingTracer::new();
        let tr = Track { pid: 1, tid: 2 };
        r.span(tr, "link:p0", t(5), t(9));
        r.span(tr, "link:p0", t(9), t(12));
        r.span(tr, "chunk", t(0), t(12));
        r.begin(tr, "phase", 7, t(1));
        r.end(tr, "phase", 7, t(4));
        r.instant(tr, "ev", t(2));
        r.counter(tr, "depth", t(3), 4.0);
        assert!(r.enabled());
        assert_eq!(r.len(), 7);
        // Two spans, one interned name.
        assert_eq!(r.name(r.events()[0].name), "link:p0");
        assert_eq!(r.events()[0].name, r.events()[1].name);
        assert_eq!(r.span_cycles_with_prefix("link:"), 4 + 3);
        assert_eq!(r.count_with_prefix("link:"), 2);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn arena_cap_drops_and_counts() {
        let mut r = RecordingTracer::with_capacity(2);
        let tr = Track::default();
        for i in 0..5 {
            r.instant(tr, "e", t(i));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn meta_labels_dedupe() {
        let mut r = RecordingTracer::new();
        r.meta_process(1, "node 0");
        r.meta_process(1, "node 0 again");
        r.meta_thread(Track { pid: 1, tid: 0 }, "chunks");
        r.meta_thread(Track { pid: 1, tid: 0 }, "dup");
        assert_eq!(r.processes().len(), 1);
        assert_eq!(r.threads().len(), 1);
        assert_eq!(r.processes()[0].1, "node 0");
    }

    #[test]
    fn attribution_conserves_exactly() {
        // Awkward weights that guarantee fractional shares.
        let w = PipeWeights {
            network: 3.7,
            hbm: 1.1,
            dma: 0.9,
            bus: 2.3,
            proc: 5.0,
        };
        for total in [0u64, 1, 7, 1000, 1_000_003, u32::MAX as u64 + 17] {
            for compute in [0, total / 3, total] {
                let a = Attribution::attribute(total, compute, &w);
                assert!(a.conserves(), "{total}/{compute}: {a:?}");
                assert_eq!(a.total_cycles, total);
                assert_eq!(a.compute_cycles, compute.min(total));
            }
        }
    }

    #[test]
    fn zero_weights_fall_back_to_other() {
        let a = Attribution::attribute(100, 40, &PipeWeights::default());
        assert!(a.conserves());
        assert_eq!(a.other_cycles, 60);
        assert_eq!(a.network_cycles, 0);
    }

    #[test]
    fn single_weight_takes_the_whole_comm_share() {
        let w = PipeWeights {
            network: 12.5,
            ..PipeWeights::default()
        };
        let a = Attribution::attribute(100, 40, &w);
        assert!(a.conserves());
        assert_eq!(a.network_cycles, 60);
        assert_eq!(a.other_cycles, 0);
    }

    #[test]
    fn compute_is_clamped_to_total() {
        let a = Attribution::attribute(10, 25, &PipeWeights::default());
        assert!(a.conserves());
        assert_eq!(a.compute_cycles, 10);
    }

    #[test]
    fn pipe_busy_adds_elementwise() {
        let a = PipeBusy {
            hbm: 1,
            dma: 2,
            bus: 3,
            proc: 4,
        };
        let b = PipeBusy {
            hbm: 10,
            dma: 20,
            bus: 30,
            proc: 40,
        };
        let s = a + b;
        assert_eq!(
            s,
            PipeBusy {
                hbm: 11,
                dma: 22,
                bus: 33,
                proc: 44
            }
        );
    }
}
