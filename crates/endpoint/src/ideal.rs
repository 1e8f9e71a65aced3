//! The ideal endpoint: processes everything in one cycle (Table VI).
//!
//! "A system where the endpoint can handle/process received messages
//! magically within one cycle ... This gives an upper bound to our
//! design." Only the fabric's link serialization and propagation remain.

use ace_simcore::SimTime;

use crate::traits::CollectiveEngine;

/// The magical endpoint used to upper-bound network performance.
#[derive(Debug, Clone, Default)]
pub struct IdealEndpoint;

impl IdealEndpoint {
    /// Creates the ideal endpoint.
    pub fn new() -> IdealEndpoint {
        IdealEndpoint
    }
}

impl CollectiveEngine for IdealEndpoint {
    fn chunk_inject(&mut self, now: SimTime, _bytes: u64) -> SimTime {
        now
    }

    fn fetch_and_send(&mut self, now: SimTime, _bytes: u64, _phase: usize) -> SimTime {
        now + 1
    }

    fn reduce_and_send(&mut self, now: SimTime, _bytes: u64, _phase: usize) -> SimTime {
        now + 1
    }

    fn reduce_and_store(&mut self, now: SimTime, _bytes: u64, _phase: usize) -> SimTime {
        now + 1
    }

    fn receive(&mut self, now: SimTime, _bytes: u64, _phase: usize) -> SimTime {
        now + 1
    }

    fn store_and_forward(&mut self, now: SimTime, _bytes: u64, _phase: usize) -> SimTime {
        now + 1
    }

    fn chunk_complete(&mut self, now: SimTime, _bytes: u64) -> SimTime {
        now
    }

    fn try_admit(&mut self, _phase: usize, _bytes: u64, _now: SimTime) -> bool {
        true
    }

    fn release(&mut self, _phase: usize, _bytes: u64, _now: SimTime) {}

    fn mem_traffic_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_operation_takes_one_cycle_or_less() {
        let mut e = IdealEndpoint::new();
        let t = SimTime::from_cycles(100);
        assert_eq!(e.chunk_inject(t, 1 << 30), t);
        assert_eq!(e.fetch_and_send(t, 1 << 30, 0), t + 1);
        assert_eq!(e.reduce_and_send(t, 1 << 30, 3), t + 1);
        assert_eq!(e.receive(t, 1 << 30, 0), t + 1);
        assert_eq!(e.store_and_forward(t, 1 << 30, 0), t + 1);
        assert_eq!(e.chunk_complete(t, 1 << 30), t);
    }

    #[test]
    fn no_memory_traffic_and_unbounded_admission() {
        let mut e = IdealEndpoint::new();
        for _ in 0..100 {
            assert!(e.try_admit(0, u64::MAX / 2, SimTime::ZERO));
        }
        assert_eq!(e.mem_traffic_bytes(), 0);
        assert_eq!(e.busy_cycles(SimTime::from_cycles(10)), None);
    }
}
