//! The engine interface consumed by the collective executor.

use ace_simcore::SimTime;
use ace_trace::PipeBusy;

/// The per-endpoint operations a collective's execution decomposes into.
///
/// Every method models *endpoint-side* cost only: it returns the time at
/// which the operation's output is available (for sends: when the message
/// is handed to the egress link; the link's own serialization and latency
/// are charged by the network layer). The `phase` argument indexes the
/// collective plan's phase so engines with per-phase resources (ACE's SRAM
/// partitions and FSM groups) can route the request.
pub trait CollectiveEngine {
    /// One-time per-chunk setup before phase 0: the baseline does nothing
    /// (gradients already live in HBM); ACE runs the TX DMA into SRAM.
    /// Returns the time the chunk is ready to start its first phase.
    fn chunk_inject(&mut self, now: SimTime, bytes: u64) -> SimTime;

    /// Prepares and hands `bytes` to the network without reduction: the
    /// first send of a ring step or an all-gather forward.
    fn fetch_and_send(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime;

    /// Reduces the received `bytes` with local data and hands the result
    /// to the network (middle reduce-scatter steps).
    fn reduce_and_send(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime;

    /// Reduces the received `bytes` with local data and stores the result
    /// locally (the final reduce-scatter step of a ring).
    fn reduce_and_store(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime;

    /// Lands `bytes` arriving from the network into local storage.
    fn receive(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime;

    /// Forwards in-transit `bytes` at an intermediate hop (all-to-all XYZ
    /// routing): the baseline bounces through HBM; ACE forwards from SRAM.
    fn store_and_forward(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime;

    /// Per-chunk completion: ACE runs the RX DMA back to HBM. Returns the
    /// time the chunk's result is visible to the NPU.
    fn chunk_complete(&mut self, now: SimTime, bytes: u64) -> SimTime;

    /// Attempts to admit a chunk of `bytes` into the engine's phase
    /// `phase` storage. Baseline/ideal endpoints always accept; ACE
    /// applies SRAM-partition backpressure.
    fn try_admit(&mut self, phase: usize, bytes: u64, now: SimTime) -> bool;

    /// Releases a previously admitted chunk from phase `phase`.
    fn release(&mut self, phase: usize, bytes: u64, now: SimTime);

    /// Engine-busy fraction over `[0, horizon]`, if the engine tracks it
    /// (ACE does, for Fig. 9b).
    fn utilization(&self, _horizon: SimTime) -> Option<f64> {
        None
    }

    /// Exact engine-busy cycles over `[0, horizon]`, if the engine tracks
    /// them. This is the integer counter utilization ratios derive from;
    /// reports that need cycle figures must use it directly instead of
    /// multiplying `utilization` back up (a lossy f64 round-trip).
    fn busy_cycles(&self, _horizon: SimTime) -> Option<u64> {
        None
    }

    /// Bytes of HBM traffic this engine has generated (reads + writes),
    /// for the memory-bandwidth accounting behind Fig. 5.
    fn mem_traffic_bytes(&self) -> u64;

    /// Integer busy-cycle totals per endpoint pipe (HBM, DMA, NPU-AFI
    /// bus, processing), accumulated from the grants this engine's
    /// servers hand out. Engines that model no contended pipes (the
    /// ideal endpoint) report all-zero — the attribution report then
    /// charges their communication share to `other`.
    fn pipe_busy(&self) -> PipeBusy {
        PipeBusy::default()
    }
}

/// Forwarding impl so a boxed engine is itself an engine: generic
/// simulators can run either monomorphized over a concrete engine type
/// (devirtualized hot path) or over `Box<dyn CollectiveEngine>` when the
/// engine is chosen at runtime.
impl CollectiveEngine for Box<dyn CollectiveEngine> {
    fn chunk_inject(&mut self, now: SimTime, bytes: u64) -> SimTime {
        (**self).chunk_inject(now, bytes)
    }

    fn fetch_and_send(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime {
        (**self).fetch_and_send(now, bytes, phase)
    }

    fn reduce_and_send(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime {
        (**self).reduce_and_send(now, bytes, phase)
    }

    fn reduce_and_store(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime {
        (**self).reduce_and_store(now, bytes, phase)
    }

    fn receive(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime {
        (**self).receive(now, bytes, phase)
    }

    fn store_and_forward(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime {
        (**self).store_and_forward(now, bytes, phase)
    }

    fn chunk_complete(&mut self, now: SimTime, bytes: u64) -> SimTime {
        (**self).chunk_complete(now, bytes)
    }

    fn try_admit(&mut self, phase: usize, bytes: u64, now: SimTime) -> bool {
        (**self).try_admit(phase, bytes, now)
    }

    fn release(&mut self, phase: usize, bytes: u64, now: SimTime) {
        (**self).release(phase, bytes, now)
    }

    fn utilization(&self, horizon: SimTime) -> Option<f64> {
        (**self).utilization(horizon)
    }

    fn busy_cycles(&self, horizon: SimTime) -> Option<u64> {
        (**self).busy_cycles(horizon)
    }

    fn mem_traffic_bytes(&self) -> u64 {
        (**self).mem_traffic_bytes()
    }

    fn pipe_busy(&self) -> PipeBusy {
        (**self).pipe_busy()
    }
}
