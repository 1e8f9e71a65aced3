//! The NPU: an 80-SM pool with a roofline timing model.

use ace_simcore::Frequency;

use crate::kernel::KernelDesc;

/// Physical parameters of the GPU-like NPU (Table V).
#[derive(Debug, Clone, Copy)]
pub struct NpuParams {
    /// Number of streaming multiprocessors.
    pub sms: u32,
    /// Peak FP16 throughput with all SMs, in TFLOPS.
    pub peak_tflops: f64,
    /// Clock frequency.
    pub freq: Frequency,
}

impl NpuParams {
    /// Table V: 80 SMs, 120 TFLOPS FP16, 1245 MHz.
    pub fn paper_default() -> NpuParams {
        NpuParams {
            sms: 80,
            peak_tflops: 120.0,
            freq: ace_simcore::npu_frequency(),
        }
    }

    /// Peak flops per cycle with all SMs.
    pub fn flops_per_cycle(&self) -> f64 {
        self.peak_tflops * 1e12 / self.freq.hz()
    }

    /// Roofline kernel duration in cycles given `sms_for_compute` SMs and
    /// `mem_gbps` of memory bandwidth allocated to training compute.
    ///
    /// Duration = max(arithmetic time, memory time), with at least one
    /// cycle for non-empty kernels.
    ///
    /// # Panics
    ///
    /// Panics if `sms_for_compute` is zero or exceeds the SM count, or if
    /// `mem_gbps` is not strictly positive.
    pub fn kernel_cycles(&self, kernel: &KernelDesc, sms_for_compute: u32, mem_gbps: f64) -> u64 {
        assert!(
            sms_for_compute >= 1 && sms_for_compute <= self.sms,
            "compute SM allocation must be in [1, {}]",
            self.sms
        );
        assert!(mem_gbps > 0.0, "compute memory bandwidth must be positive");
        if kernel.flops() == 0.0 && kernel.mem_bytes() == 0.0 {
            return 0;
        }
        let sm_frac = sms_for_compute as f64 / self.sms as f64;
        let flop_cycles = kernel.flops() / (self.flops_per_cycle() * sm_frac);
        let mem_cycles = kernel.mem_bytes() / self.freq.bytes_per_cycle(mem_gbps);
        (flop_cycles.max(mem_cycles).ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn npu() -> NpuParams {
        NpuParams::paper_default()
    }

    #[test]
    fn peak_rate_matches_table_v() {
        // 120 TFLOPS at 1245 MHz ≈ 96 385 flops/cycle.
        let fpc = npu().flops_per_cycle();
        assert!((fpc - 96385.5).abs() < 1.0, "got {fpc}");
    }

    #[test]
    fn flop_bound_kernel_scales_with_sms() {
        let n = npu();
        // Extremely high intensity => flop bound.
        let k = KernelDesc::new("k", 1.0e12, 1.0e3);
        let full = n.kernel_cycles(&k, 80, 900.0);
        let half = n.kernel_cycles(&k, 40, 900.0);
        let ratio = half as f64 / full as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn mem_bound_kernel_scales_with_bandwidth() {
        let n = npu();
        // Low intensity => memory bound.
        let k = KernelDesc::new("k", 1.0e6, 1.0e9);
        let wide = n.kernel_cycles(&k, 80, 772.0);
        let narrow = n.kernel_cycles(&k, 80, 450.0);
        let ratio = narrow as f64 / wide as f64;
        // This is the paper's 1.75× BaselineCommOpt/BaselineCompOpt compute gap.
        assert!((ratio - 772.0 / 450.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn ridge_point_separates_regimes() {
        let n = npu();
        // The roofline ridge point: kernels below this intensity are
        // memory-bound.
        let ridge = n.flops_per_cycle() / n.freq.bytes_per_cycle(900.0);
        // 96385 flops/cycle over ~723 bytes/cycle ≈ 133 flops/byte.
        assert!((ridge - 133.3).abs() < 1.0, "ridge {ridge}");
        let below = KernelDesc::new("mem", ridge * 0.5 * 1e6, 1e6);
        let above = KernelDesc::new("flop", ridge * 2.0 * 1e6, 1e6);
        // Below the ridge, duration tracks bytes; above, it tracks flops.
        assert!(n.kernel_cycles(&below, 80, 900.0) < n.kernel_cycles(&above, 80, 900.0));
    }

    #[test]
    fn empty_kernel_is_instant() {
        assert_eq!(
            npu().kernel_cycles(&KernelDesc::new("nop", 0.0, 0.0), 80, 900.0),
            0
        );
    }

    #[test]
    fn tiny_kernel_takes_at_least_one_cycle() {
        assert_eq!(
            npu().kernel_cycles(&KernelDesc::new("t", 1.0, 1.0), 80, 900.0),
            1
        );
    }

    #[test]
    #[should_panic(expected = "SM allocation")]
    fn zero_sms_rejected() {
        let _ = npu().kernel_cycles(&KernelDesc::new("k", 1.0, 1.0), 0, 900.0);
    }
}
