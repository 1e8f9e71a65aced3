//! TX/RX DMA engines (paper Fig. 7, components #2 and #4).
//!
//! The TX DMA pulls payload chunks from main memory into the ACE SRAM at
//! the start of a collective; the RX DMA pushes finished results back.
//! Each engine is a FIFO resource clocked at the NPU-AFI bus width; the
//! actual memory-partition and bus contention is charged by the endpoint
//! layer, so the engine itself only models its own occupancy.

use ace_simcore::{BandwidthServer, Frequency, Grant, SimTime};

/// One DMA engine (TX or RX).
#[derive(Debug, Clone)]
pub struct DmaEngine {
    server: BandwidthServer,
}

impl DmaEngine {
    /// Creates a DMA engine able to stream `gbps` at clock `freq`.
    pub fn new(gbps: f64, freq: Frequency) -> DmaEngine {
        DmaEngine {
            server: BandwidthServer::new(freq.bytes_per_cycle(gbps)),
        }
    }

    /// A DMA engine matched to the paper's 500 GB/s NPU-AFI bus.
    pub fn paper_default() -> DmaEngine {
        DmaEngine::new(500.0, ace_simcore::npu_frequency())
    }

    /// Streams `bytes` through the engine starting no earlier than `now`.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Grant {
        self.server.request(now, bytes)
    }

    /// Earliest time the engine frees up for a request at `now`.
    pub fn next_free(&self, now: SimTime) -> SimTime {
        self.server.next_free(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_serialize_at_bus_rate() {
        let mut dma = DmaEngine::paper_default();
        let a = dma.transfer(SimTime::ZERO, 64 * 1024);
        let b = dma.transfer(SimTime::ZERO, 64 * 1024);
        assert!(b.start >= a.start && b.end > a.end);
    }

    #[test]
    fn rate_matches_bus() {
        let freq = ace_simcore::npu_frequency();
        let mut dma = DmaEngine::paper_default();
        let g = dma.transfer(SimTime::ZERO, 1 << 20);
        let expect = freq.transfer_cycles(1 << 20, 500.0);
        assert!((g.end.cycles() as i64 - expect as i64).abs() <= 1);
    }

    #[test]
    fn next_free_tracks_backlog() {
        let mut dma = DmaEngine::paper_default();
        let g = dma.transfer(SimTime::ZERO, 1 << 20);
        assert_eq!(dma.next_free(SimTime::ZERO), g.end);
    }
}
