//! The ACE ALU array: reduction-sum throughput (Section IV-I).

use ace_simcore::{BandwidthServer, Grant, SimTime};

use crate::config::AceConfig;

/// Models the ALU array as a FIFO bandwidth resource whose capacity is the
/// aggregate FP16 lane throughput (default 4 units × 32 lanes × 2 bytes =
/// 256 bytes of reduced output per cycle).
#[derive(Debug, Clone)]
pub struct AluModel {
    server: BandwidthServer,
    bytes_per_cycle: f64,
}

impl AluModel {
    /// Builds the ALU model from an engine configuration.
    pub fn new(config: &AceConfig) -> AluModel {
        let bpc = config.alu_bytes_per_cycle();
        AluModel {
            server: BandwidthServer::new(bpc),
            bytes_per_cycle: bpc,
        }
    }

    /// Reduction throughput in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }

    /// Reduces `bytes` of gradient data (element-wise sum of two operands
    /// producing `bytes` of output).
    pub fn reduce(&mut self, now: SimTime, bytes: u64) -> Grant {
        self.server.request(now, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_throughput_is_256_bytes_per_cycle() {
        let alu = AluModel::new(&AceConfig::paper_default());
        assert_eq!(alu.bytes_per_cycle(), 256.0);
    }

    #[test]
    fn reduction_time_matches_throughput() {
        let mut alu = AluModel::new(&AceConfig::paper_default());
        let g = alu.reduce(SimTime::ZERO, 8 * 1024);
        assert_eq!(g.end.cycles(), 32); // 8192 / 256
    }

    #[test]
    fn alu_keeps_pace_with_fastest_link() {
        // 256 B/cycle at 1245 MHz ≈ 318 GB/s — faster than the 200 GB/s
        // intra-package link, so the ALU never bottlenecks a single ring.
        let freq = ace_simcore::npu_frequency();
        let alu = AluModel::new(&AceConfig::paper_default());
        assert!(freq.gbps(alu.bytes_per_cycle()) > 200.0);
    }

    #[test]
    fn reductions_serialize() {
        let mut alu = AluModel::new(&AceConfig::paper_default());
        let a = alu.reduce(SimTime::ZERO, 2560);
        let b = alu.reduce(SimTime::ZERO, 2560);
        assert!(b.end > a.end);
    }
}
