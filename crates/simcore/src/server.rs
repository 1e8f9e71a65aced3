//! FIFO resource servers: the building blocks for every contended resource
//! in the platform model.

use crate::SimTime;

/// The outcome of a server request: when the request begins service and
/// when it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the resource starts serving this request.
    pub start: SimTime,
    /// When the request's last byte (or slot) completes.
    pub end: SimTime,
}

impl Grant {
    /// Queuing delay: cycles spent waiting before service began.
    pub fn wait(&self, requested_at: SimTime) -> u64 {
        self.start.saturating_since(requested_at)
    }

    /// Service duration in cycles.
    pub fn service(&self) -> u64 {
        self.end - self.start
    }
}

/// A FIFO bandwidth resource with a fixed bytes-per-cycle capacity.
///
/// Models memory-bandwidth partitions, buses, per-SM drive capacity, link
/// serialization, SRAM ports, and ALU throughput. Each [`request`] occupies
/// the server for `bytes / capacity` cycles starting no earlier than the
/// completion of the previous request; the returned [`Grant`] reports both
/// the queuing delay and the completion time.
///
/// The server accumulates fractional cycles so that long streams of small
/// requests do not lose bandwidth to per-request rounding.
///
/// ```
/// use ace_simcore::{BandwidthServer, SimTime};
/// let mut s = BandwidthServer::new(64.0); // 64 bytes/cycle
/// let g = s.request(SimTime::ZERO, 640);
/// assert_eq!(g.end.cycles(), 10);
/// ```
///
/// [`request`]: BandwidthServer::request
#[derive(Debug, Clone)]
pub struct BandwidthServer {
    bytes_per_cycle: f64,
    /// Completion time of the most recent request, with sub-cycle precision.
    busy_until: f64,
    busy_cycles: f64,
    bytes_served: u64,
}

impl BandwidthServer {
    /// Creates a server with the given capacity in bytes per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not strictly positive and finite.
    pub fn new(bytes_per_cycle: f64) -> Self {
        assert!(
            bytes_per_cycle.is_finite() && bytes_per_cycle > 0.0,
            "server capacity must be positive"
        );
        BandwidthServer {
            bytes_per_cycle,
            busy_until: 0.0,
            busy_cycles: 0.0,
            bytes_served: 0,
        }
    }

    /// Requests service for `bytes` at time `now`, returning when the
    /// transfer starts and ends. Zero-byte requests complete immediately
    /// without occupying the server.
    pub fn request(&mut self, now: SimTime, bytes: u64) -> Grant {
        if bytes == 0 {
            return Grant {
                start: now,
                end: now,
            };
        }
        let start_f = self.busy_until.max(now.cycles() as f64);
        // A true division, not a precomputed-reciprocal multiply: the
        // extra rounding of `bytes * (1/capacity)` lands above the exact
        // quotient at exact-cycle points (e.g. 26606 B at 20.08 B/cycle),
        // padding transfers with a spurious cycle and compounding through
        // `busy_until`.
        let duration = bytes as f64 / self.bytes_per_cycle;
        let end_f = start_f + duration;
        self.busy_until = end_f;
        self.busy_cycles += duration;
        self.bytes_served += bytes;
        Grant {
            start: SimTime::from_cycles(start_f.floor() as u64),
            end: SimTime::from_cycles(end_f.ceil() as u64),
        }
    }

    /// The earliest time a new request issued at `now` would start service.
    pub fn next_free(&self, now: SimTime) -> SimTime {
        SimTime::from_cycles((self.busy_until.max(now.cycles() as f64)).ceil() as u64)
    }

    /// Total bytes served so far.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }

    /// Cycles spent actively serving requests (not waiting).
    pub fn busy_cycles(&self) -> f64 {
        self.busy_cycles
    }
}

/// A FIFO resource with `k` identical slots, each serving one request at a
/// time for a caller-specified duration.
///
/// Models ACE's pool of programmable FSMs (each FSM owns one in-flight chunk
/// step at a time) and the DMA engines. Requests are dispatched to the
/// earliest-free slot.
///
/// ```
/// use ace_simcore::{SlotServer, SimTime};
/// let mut fsm_pool = SlotServer::new(2);
/// let a = fsm_pool.request(SimTime::ZERO, 100);
/// let b = fsm_pool.request(SimTime::ZERO, 100);
/// let c = fsm_pool.request(SimTime::ZERO, 100);
/// assert_eq!(a.start, SimTime::ZERO);
/// assert_eq!(b.start, SimTime::ZERO);
/// // Third request waits for a slot.
/// assert_eq!(c.start.cycles(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct SlotServer {
    slots: Vec<SimTime>,
    busy_cycles: u64,
    requests: u64,
}

impl SlotServer {
    /// Creates a server with `k` parallel slots.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "slot server needs at least one slot");
        SlotServer {
            slots: vec![SimTime::ZERO; k],
            busy_cycles: 0,
            requests: 0,
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Requests one slot for `duration` cycles starting no earlier than
    /// `now`. Returns the grant for the earliest-available slot.
    pub fn request(&mut self, now: SimTime, duration: u64) -> Grant {
        // Manual scan: the pool is tiny (FSM groups hold ~4 slots) and
        // this runs once per chunk step.
        let mut idx = 0;
        let mut free_at = self.slots[0];
        for (i, &t) in self.slots.iter().enumerate().skip(1) {
            if t < free_at {
                idx = i;
                free_at = t;
            }
        }
        let start = free_at.max(now);
        let end = start + duration;
        self.slots[idx] = end;
        self.busy_cycles += duration;
        self.requests += 1;
        Grant { start, end }
    }

    /// The earliest time any slot is free for a request issued at `now`.
    pub fn next_free(&self, now: SimTime) -> SimTime {
        self.slots
            .iter()
            .copied()
            .min()
            .expect("slot server has at least one slot")
            .max(now)
    }

    /// Number of requests served so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Aggregate slot-busy cycles across all slots.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_server_serializes_fifo() {
        let mut s = BandwidthServer::new(10.0);
        let a = s.request(SimTime::ZERO, 100); // 10 cycles
        let b = s.request(SimTime::ZERO, 100);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.end.cycles(), 10);
        assert_eq!(b.start.cycles(), 10);
        assert_eq!(b.end.cycles(), 20);
    }

    #[test]
    fn bandwidth_server_idles_until_request_time() {
        let mut s = BandwidthServer::new(10.0);
        let g = s.request(SimTime::from_cycles(50), 100);
        assert_eq!(g.start.cycles(), 50);
        assert_eq!(g.end.cycles(), 60);
        assert_eq!(s.next_free(SimTime::from_cycles(61)).cycles(), 61);
        assert_eq!(s.next_free(SimTime::from_cycles(55)).cycles(), 60);
    }

    #[test]
    fn bandwidth_server_fractional_cycles_accumulate() {
        let mut s = BandwidthServer::new(3.0);
        // 100 requests of 1 byte each = 100/3 cycles total, not 100 cycles.
        let mut last = Grant {
            start: SimTime::ZERO,
            end: SimTime::ZERO,
        };
        for _ in 0..100 {
            last = s.request(SimTime::ZERO, 1);
        }
        assert_eq!(last.end.cycles(), (100.0f64 / 3.0).ceil() as u64);
    }

    #[test]
    fn bandwidth_server_zero_bytes_is_free() {
        let mut s = BandwidthServer::new(1.0);
        s.request(SimTime::ZERO, 10);
        let g = s.request(SimTime::ZERO, 0);
        assert_eq!(g.start, SimTime::ZERO);
        assert_eq!(g.end, SimTime::ZERO);
    }

    #[test]
    fn bandwidth_server_tracks_accounting() {
        let mut s = BandwidthServer::new(10.0);
        s.request(SimTime::ZERO, 100);
        s.request(SimTime::ZERO, 50);
        assert_eq!(s.bytes_served(), 150);
        assert!((s.busy_cycles() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn grant_reports_wait_and_service() {
        let mut s = BandwidthServer::new(10.0);
        s.request(SimTime::ZERO, 100);
        let g = s.request(SimTime::ZERO, 100);
        assert_eq!(g.wait(SimTime::ZERO), 10);
        assert_eq!(g.service(), 10);
    }

    #[test]
    fn slot_server_parallelism() {
        let mut s = SlotServer::new(3);
        let grants: Vec<Grant> = (0..6).map(|_| s.request(SimTime::ZERO, 10)).collect();
        assert!(grants[..3].iter().all(|g| g.start == SimTime::ZERO));
        assert!(grants[3..].iter().all(|g| g.start.cycles() == 10));
        assert_eq!(s.requests(), 6);
    }

    #[test]
    fn slot_server_next_free() {
        let mut s = SlotServer::new(1);
        s.request(SimTime::ZERO, 10);
        assert_eq!(s.next_free(SimTime::ZERO).cycles(), 10);
        assert_eq!(s.next_free(SimTime::from_cycles(20)).cycles(), 20);
    }

    #[test]
    fn slot_server_utilization() {
        let mut s = SlotServer::new(2);
        s.request(SimTime::ZERO, 10);
        s.request(SimTime::ZERO, 4);
        assert_eq!(s.busy_cycles(), 14);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn slot_server_rejects_zero_slots() {
        let _ = SlotServer::new(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bandwidth_server_rejects_zero_capacity() {
        let _ = BandwidthServer::new(0.0);
    }
}
