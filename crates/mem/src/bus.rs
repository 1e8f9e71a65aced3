//! The NPU-AFI bus: 500 GB/s with per-transaction scheduling overhead.

use ace_simcore::{BandwidthServer, Frequency, Grant, SimTime};

/// NPU-AFI bus parameters.
///
/// Section V: "NPU-AFI bandwidth is assumed to be the sum of all
/// intra-package/inter-package links" (500 GB/s), and the simulator models
/// "the transaction scheduling effects of NPU-AFI and NPU-Mem and queuing
/// delays of subsequent transactions" — captured here as a fixed
/// per-transaction overhead in front of FIFO serialization.
#[derive(Debug, Clone, Copy)]
pub struct BusParams {
    /// Bus bandwidth in GB/s (Table V: 500 for NPU-AFI).
    pub bandwidth_gbps: f64,
    /// Fixed scheduling overhead added to each transaction, in cycles.
    pub txn_overhead_cycles: u64,
    /// NPU clock.
    pub freq: Frequency,
}

impl BusParams {
    /// Table V NPU-AFI bus at the paper clock with a small scheduling
    /// overhead per transaction.
    pub fn paper_default() -> BusParams {
        BusParams {
            bandwidth_gbps: 500.0,
            txn_overhead_cycles: 8,
            freq: ace_simcore::npu_frequency(),
        }
    }
}

/// The bus between the NPU/memory complex and the AFI.
///
/// Every baseline network injection and every ACE DMA transfer crosses this
/// bus; it can become a secondary bottleneck when the comm memory partition
/// is set wider than the bus.
#[derive(Debug, Clone)]
pub struct AfiBus {
    params: BusParams,
    server: BandwidthServer,
}

impl AfiBus {
    /// Creates the bus.
    pub fn new(params: BusParams) -> AfiBus {
        let bpc = params.freq.bytes_per_cycle(params.bandwidth_gbps);
        AfiBus {
            params,
            server: BandwidthServer::new(bpc),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &BusParams {
        &self.params
    }

    /// Transfers `bytes` across the bus starting no earlier than `now`.
    /// The grant's `end` includes the per-transaction overhead.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Grant {
        let g = self.server.request(now, bytes);
        Grant {
            start: g.start,
            end: g.end + self.params.txn_overhead_cycles,
        }
    }

    /// Earliest time the bus frees up for a request at `now`.
    pub fn next_free(&self, now: SimTime) -> SimTime {
        self.server.next_free(now)
    }

    /// Total bytes carried.
    pub fn bytes_carried(&self) -> u64 {
        self.server.bytes_served()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_includes_overhead() {
        let mut bus = AfiBus::new(BusParams::paper_default());
        let g = bus.transfer(SimTime::ZERO, 0);
        assert_eq!(g.end.cycles(), 8, "zero-byte txn still pays overhead");
        let g = bus.transfer(SimTime::ZERO, 1 << 20);
        assert!(g.end.cycles() > 8);
    }

    #[test]
    fn transfers_serialize() {
        let mut bus = AfiBus::new(BusParams::paper_default());
        let a = bus.transfer(SimTime::ZERO, 1 << 20);
        let b = bus.transfer(SimTime::ZERO, 1 << 20);
        assert!(b.start >= a.start);
        assert!(b.end > a.end);
        assert_eq!(bus.bytes_carried(), 2 << 20);
    }

    #[test]
    fn bus_is_faster_than_narrow_memory_partition() {
        // The 500 GB/s bus should not bottleneck a 128 GB/s comm partition.
        let freq = ace_simcore::npu_frequency();
        let mut bus = AfiBus::new(BusParams::paper_default());
        let g = bus.transfer(SimTime::ZERO, 1 << 20);
        let comm_cycles = freq.transfer_cycles(1 << 20, 128.0);
        assert!(g.end.cycles() < comm_cycles);
    }
}
