//! Simulation reports: the metrics of Section V ("our metrics are total
//! computation and exposed communication") plus the utilization series of
//! Fig. 10 and the ACE-busy figures of Fig. 9b.

use ace_simcore::Frequency;
use ace_trace::Attribution;

/// The result of a training run, in either tier.
///
/// Cycle counts are held as `f64`: the exact tier's are whole numbers,
/// the α–β tier's are its unrounded estimate. The integer accessors round
/// to the nearest cycle, and the microsecond and bandwidth figures use
/// the unrounded counts, so both tiers share one formula for each. An
/// α–β report has no utilization series and no ACE-busy figures.
#[derive(Debug, Clone)]
pub struct IterationReport {
    pub(crate) workload: String,
    pub(crate) config: String,
    pub(crate) nodes: usize,
    pub(crate) freq: Frequency,
    pub(crate) iterations: u32,
    pub(crate) total_cycles: f64,
    pub(crate) compute_cycles: f64,
    pub(crate) exposed_comm_cycles: f64,
    pub(crate) compute_series: Vec<f64>,
    pub(crate) network_series: Vec<f64>,
    pub(crate) ace_util_fwd: Option<f64>,
    pub(crate) ace_util_bwd: Option<f64>,
    pub(crate) ace_busy_cycles: Option<u64>,
    pub(crate) comm_mem_traffic_bytes: u64,
    pub(crate) network_bytes: u64,
    pub(crate) past_schedules: u64,
    pub(crate) attribution: Attribution,
}

impl IterationReport {
    /// Workload name.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Configuration name (Table VI).
    pub fn config(&self) -> &str {
        &self.config
    }

    /// Fabric size in NPUs.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of simulated iterations (2, per Section V).
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// End-to-end simulated time in cycles (all iterations).
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles.round() as u64
    }

    /// Total compute busy time in cycles.
    pub fn compute_cycles(&self) -> u64 {
        self.compute_cycles.round() as u64
    }

    /// Exposed (non-overlapped) communication in cycles.
    pub fn exposed_comm_cycles(&self) -> u64 {
        self.exposed_comm_cycles.round() as u64
    }

    /// End-to-end time in microseconds (all iterations) — the Fig. 11a
    /// y-axis is this quantity (total compute + total exposed comm).
    pub fn total_time_us(&self) -> f64 {
        self.total_cycles / self.freq.hz() * 1e6
    }

    /// Total compute in microseconds.
    pub fn total_compute_us(&self) -> f64 {
        self.compute_cycles / self.freq.hz() * 1e6
    }

    /// Exposed communication in microseconds.
    pub fn exposed_comm_us(&self) -> f64 {
        self.exposed_comm_cycles / self.freq.hz() * 1e6
    }

    /// Per-iteration time in microseconds.
    pub fn iteration_time_us(&self) -> f64 {
        self.total_time_us() / self.iterations.max(1) as f64
    }

    /// Fraction of the iteration that is exposed communication.
    pub fn exposed_fraction(&self) -> f64 {
        if self.total_cycles > 0.0 {
            self.exposed_comm_cycles / self.total_cycles
        } else {
            0.0
        }
    }

    /// Compute utilization per 1 K-cycle bucket (Fig. 10 upper curves).
    pub fn compute_series(&self) -> &[f64] {
        &self.compute_series
    }

    /// Network link utilization per 1 K-cycle bucket (Fig. 10 lower
    /// curves: fraction of links scheduling a flit).
    pub fn network_series(&self) -> &[f64] {
        &self.network_series
    }

    /// ACE utilization during the forward passes (Fig. 9b), if ACE.
    pub fn ace_util_fwd(&self) -> Option<f64> {
        self.ace_util_fwd
    }

    /// ACE utilization during back-propagation (Fig. 9b), if ACE.
    pub fn ace_util_bwd(&self) -> Option<f64> {
        self.ace_util_bwd
    }

    /// Exact ACE engine-busy cycles over the whole run, if ACE — the
    /// integer counter the Fig. 9b ratios are derived from.
    pub fn ace_busy_cycles(&self) -> Option<u64> {
        self.ace_busy_cycles
    }

    /// Events scheduled in the past and clamped by the event queue —
    /// always zero in a correct simulation; surfaced so release-mode
    /// sweeps can flag the invariant violation.
    pub fn past_schedules(&self) -> u64 {
        self.past_schedules
    }

    /// Bottleneck attribution: wall cycles decomposed into compute,
    /// per-pipe-bound communication and `other` buckets that sum exactly
    /// to [`total_cycles`](IterationReport::total_cycles).
    pub fn attribution(&self) -> Attribution {
        self.attribution
    }

    /// Per-node HBM bytes consumed by communication.
    pub fn comm_mem_traffic_bytes(&self) -> u64 {
        self.comm_mem_traffic_bytes
    }

    /// Total bytes the fabric carried.
    pub fn network_bytes(&self) -> u64 {
        self.network_bytes
    }

    /// Effective network bandwidth in GB/s per NPU over the whole run
    /// (the Fig. 11b "effective network BW utilization" proxy).
    pub fn effective_network_gbps_per_npu(&self) -> f64 {
        if self.total_cycles > 0.0 {
            let per_node = self.network_bytes as f64 / self.nodes as f64;
            self.freq.gbps(per_node / self.total_cycles)
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for IterationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on {} NPUs [{}]: total {:.1} us (compute {:.1} us, exposed comm {:.1} us, {:.1}%)",
            self.workload,
            self.nodes,
            self.config,
            self.total_time_us(),
            self.total_compute_us(),
            self.exposed_comm_us(),
            self.exposed_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> IterationReport {
        IterationReport {
            workload: "Test".into(),
            config: "ACE".into(),
            nodes: 16,
            freq: ace_simcore::npu_frequency(),
            iterations: 2,
            total_cycles: 1_245_000.0,
            compute_cycles: 1_000_000.0,
            exposed_comm_cycles: 245_000.0,
            compute_series: vec![1.0, 0.5],
            network_series: vec![0.2, 0.8],
            ace_util_fwd: Some(0.1),
            ace_util_bwd: Some(0.9),
            ace_busy_cycles: Some(230_000),
            comm_mem_traffic_bytes: 1 << 20,
            network_bytes: 64 << 20,
            past_schedules: 0,
            attribution: Attribution {
                total_cycles: 1_245_000,
                compute_cycles: 1_000_000,
                network_cycles: 245_000,
                ..Attribution::default()
            },
        }
    }

    #[test]
    fn microsecond_conversions() {
        let r = report();
        // 1 245 000 cycles at 1245 MHz = 1000 us.
        assert!((r.total_time_us() - 1000.0).abs() < 1e-6);
        assert!((r.iteration_time_us() - 500.0).abs() < 1e-6);
        assert!((r.exposed_fraction() - 245_000.0 / 1_245_000.0).abs() < 1e-12);
    }

    #[test]
    fn accessors_roundtrip() {
        let r = report();
        assert_eq!(r.workload(), "Test");
        assert_eq!(r.config(), "ACE");
        assert_eq!(r.nodes(), 16);
        assert_eq!(r.iterations(), 2);
        assert_eq!(r.compute_series().len(), 2);
        assert_eq!(r.network_series().len(), 2);
        assert_eq!(r.ace_util_bwd(), Some(0.9));
        assert_eq!(r.ace_busy_cycles(), Some(230_000));
        assert_eq!(r.past_schedules(), 0);
        assert!(r.attribution().conserves());
        assert_eq!(r.attribution().total_cycles, r.total_cycles());
    }

    #[test]
    fn effective_bandwidth_math() {
        let r = report();
        // 64 MiB / 16 nodes / 1ms = 4 MiB/ms ≈ 4.19 GB/s.
        let g = r.effective_network_gbps_per_npu();
        assert!((g - 4.19).abs() < 0.05, "got {g}");
    }

    #[test]
    fn display_has_key_fields() {
        let s = report().to_string();
        assert!(s.contains("Test") && s.contains("ACE") && s.contains("compute"));
    }
}
