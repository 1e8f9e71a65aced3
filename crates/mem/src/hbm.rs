//! Partitioned HBM bandwidth model.

use ace_simcore::{BandwidthServer, Frequency, Grant, SimTime};

/// Table V's NPU-MEM bandwidth, GB/s: the budget each endpoint
/// configuration splits between training compute and communication.
pub const HBM_TOTAL_GBPS: f64 = 900.0;

/// Configuration of the endpoint's main-memory bandwidth split.
#[derive(Debug, Clone, Copy)]
pub struct MemoryParams {
    /// Total NPU-MEM bandwidth in GB/s (Table V: 900).
    pub total_gbps: f64,
    /// Share of `total_gbps` reserved for collective communication.
    pub comm_gbps: f64,
    /// NPU clock.
    pub freq: Frequency,
}

impl MemoryParams {
    /// Table V memory with `comm_gbps` carved out for communication.
    ///
    /// # Panics
    ///
    /// Panics if `comm_gbps` is not within `(0, 900]`.
    pub fn paper_default(comm_gbps: f64) -> MemoryParams {
        let p = MemoryParams {
            total_gbps: HBM_TOTAL_GBPS,
            comm_gbps,
            freq: ace_simcore::npu_frequency(),
        };
        p.validate();
        p
    }

    fn validate(&self) {
        assert!(
            self.comm_gbps > 0.0 && self.comm_gbps <= self.total_gbps,
            "comm partition must be within (0, total]"
        );
    }

    /// Bandwidth left for training compute, in GB/s.
    pub fn compute_gbps(&self) -> f64 {
        self.total_gbps - self.comm_gbps
    }
}

/// The endpoint's HBM: a communication partition modeled as a FIFO
/// bandwidth server, and a residual compute-side figure consumed by the
/// roofline compute model.
///
/// In the baseline endpoint every collective byte makes multiple trips
/// through this partition (Section VI-A: 1.5 N reads per N network bytes on
/// average for ring all-reduce); in ACE only the initial TX-DMA load and
/// final RX-DMA store touch it.
#[derive(Debug, Clone)]
pub struct EndpointMemory {
    params: MemoryParams,
    comm_rd: BandwidthServer,
    comm_wr: BandwidthServer,
}

impl EndpointMemory {
    /// Creates the memory model. Reads and writes ride independent
    /// channels of `comm_gbps` each (HBM pseudo-duplex), matching the
    /// paper's Section VI-A accounting where the memory-bandwidth
    /// requirement is stated in *read* bytes per network byte.
    pub fn new(params: MemoryParams) -> EndpointMemory {
        params.validate();
        let bpc = params.freq.bytes_per_cycle(params.comm_gbps);
        EndpointMemory {
            params,
            comm_rd: BandwidthServer::new(bpc),
            comm_wr: BandwidthServer::new(bpc),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &MemoryParams {
        &self.params
    }

    /// Bandwidth available to training compute, in GB/s.
    pub fn compute_gbps(&self) -> f64 {
        self.params.compute_gbps()
    }

    /// Issues a communication-side memory **read** of `bytes` at `now`.
    pub fn comm_read(&mut self, now: SimTime, bytes: u64) -> Grant {
        self.comm_rd.request(now, bytes)
    }

    /// Issues a communication-side memory **write** of `bytes` at `now`.
    pub fn comm_write(&mut self, now: SimTime, bytes: u64) -> Grant {
        self.comm_wr.request(now, bytes)
    }

    /// Total bytes moved through the comm partition (reads + writes).
    pub fn comm_bytes(&self) -> u64 {
        self.comm_rd.bytes_served() + self.comm_wr.bytes_served()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_arithmetic() {
        let p = MemoryParams::paper_default(450.0);
        assert_eq!(p.compute_gbps(), 450.0);
        let p = MemoryParams::paper_default(128.0);
        assert_eq!(p.compute_gbps(), 772.0);
    }

    #[test]
    #[should_panic(expected = "within")]
    fn oversized_partition_rejected() {
        let _ = MemoryParams::paper_default(901.0);
    }

    #[test]
    fn comm_accesses_serialize_within_partition() {
        let mut mem = EndpointMemory::new(MemoryParams::paper_default(128.0));
        let a = mem.comm_read(SimTime::ZERO, 1 << 20);
        let b = mem.comm_read(SimTime::ZERO, 1 << 20);
        assert!(b.start >= a.start);
        assert!(b.end > a.end);
        assert_eq!(mem.comm_bytes(), 2 << 20);
    }

    #[test]
    fn narrower_partition_is_slower() {
        let mut narrow = EndpointMemory::new(MemoryParams::paper_default(128.0));
        let mut wide = EndpointMemory::new(MemoryParams::paper_default(450.0));
        let gn = narrow.comm_read(SimTime::ZERO, 64 << 20);
        let gw = wide.comm_read(SimTime::ZERO, 64 << 20);
        assert!(gn.end > gw.end);
        // Ratio of service times tracks the bandwidth ratio.
        let ratio = gn.service() as f64 / gw.service() as f64;
        assert!((ratio - 450.0 / 128.0).abs() < 0.05, "ratio {ratio}");
    }
}
