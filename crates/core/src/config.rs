//! ACE configuration parameters (Section IV-I).

use ace_simcore::Frequency;

/// Static configuration of one ACE instance.
///
/// The paper's design-space exploration (Fig. 9a) sweeps the SRAM size and
/// FSM count and settles on 4 MB / 16 FSMs; the ALUs are "4 wide ALU
/// units, each capable of performing 16×FP32 or 32×FP16 in parallel", and
/// the SRAM interconnect uses wide 64-byte buses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AceConfig {
    /// Total scratchpad SRAM in bytes (default 4 MB in 4 × 1 MB banks).
    pub sram_bytes: u64,
    /// Number of programmable FSMs (default 16).
    pub num_fsms: usize,
    /// Number of ALU units (default 4).
    pub alu_units: usize,
    /// FP16 lanes per ALU unit (default 32).
    pub alu_fp16_lanes: usize,
    /// Message size in bytes (Table V: 8 kB).
    pub message_bytes: u64,
    /// Width of each SRAM bus in bytes (default 64).
    pub bus_width_bytes: u64,
    /// SRAM bank size in bytes (default 1 MB; bank count = sram/bank).
    pub bank_bytes: u64,
    /// Engine clock (same domain as the NPU in the paper's model).
    pub freq: Frequency,
}

impl AceConfig {
    /// The paper's chosen configuration: 4 MB SRAM, 16 FSMs, 4×32-lane
    /// FP16 ALUs, 8 kB messages.
    pub fn paper_default() -> AceConfig {
        AceConfig {
            sram_bytes: 4 * 1024 * 1024,
            num_fsms: 16,
            alu_units: 4,
            alu_fp16_lanes: 32,
            message_bytes: 8 * 1024,
            bus_width_bytes: 64,
            bank_bytes: 1024 * 1024,
            freq: ace_simcore::npu_frequency(),
        }
    }

    /// A design-space variant with different SRAM size and FSM count
    /// (Fig. 9a sweeps 1–8 MB and 4–20 FSMs).
    pub fn with_dse_point(sram_mb: u64, num_fsms: usize) -> AceConfig {
        AceConfig {
            sram_bytes: sram_mb * 1024 * 1024,
            num_fsms,
            ..AceConfig::paper_default()
        }
    }

    /// Number of SRAM banks.
    pub fn banks(&self) -> u64 {
        (self.sram_bytes / self.bank_bytes).max(1)
    }

    /// Aggregate ALU reduction throughput in bytes per cycle
    /// (FP16: lanes × 2 bytes × units; default 4 × 32 × 2 = 256 B/cycle).
    pub fn alu_bytes_per_cycle(&self) -> f64 {
        (self.alu_units * self.alu_fp16_lanes * 2) as f64
    }

    /// Aggregate SRAM port bandwidth in bytes per cycle: each bank drives
    /// independent 64-byte read and write buses, dual-pumped — the paper
    /// sizes this interconnect so the engine "fills most of the network
    /// pipeline" (Section IV-I) rather than bottlenecking it.
    pub fn sram_port_bytes_per_cycle(&self) -> f64 {
        (self.banks() * self.bus_width_bytes * 4) as f64
    }
}

impl Default for AceConfig {
    fn default() -> Self {
        AceConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_iv() {
        let c = AceConfig::paper_default();
        assert_eq!(c.sram_bytes, 4 << 20);
        assert_eq!(c.num_fsms, 16);
        assert_eq!(c.banks(), 4);
        assert_eq!(c.alu_bytes_per_cycle(), 256.0);
        assert_eq!(c.sram_port_bytes_per_cycle(), 1024.0);
    }

    #[test]
    fn dse_point_overrides_sram_and_fsms() {
        let c = AceConfig::with_dse_point(8, 20);
        assert_eq!(c.sram_bytes, 8 << 20);
        assert_eq!(c.num_fsms, 20);
        assert_eq!(c.banks(), 8);
        // More banks => more aggregate port bandwidth.
        assert_eq!(c.sram_port_bytes_per_cycle(), 2048.0);
    }

    #[test]
    fn alu_throughput_tracks_lanes() {
        let mut c = AceConfig::paper_default();
        c.alu_fp16_lanes = 16; // FP32 mode
        assert_eq!(c.alu_bytes_per_cycle(), 128.0);
    }
}
