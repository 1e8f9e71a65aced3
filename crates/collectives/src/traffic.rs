//! Closed-form endpoint memory-traffic model (paper Section VI-A).
//!
//! The paper's analytical argument: in the baseline, a ring all-reduce
//! reads 2 N bytes from memory per N network bytes during reduce-scatter
//! (local operand + received operand) and N per N during all-gather, i.e.
//! **1.5 N reads per N sent** on average — which is why ≈450 GB/s of
//! memory bandwidth is needed to drive ≈300 GB/s of network. ACE instead
//! caches each payload byte once: on a 4×4×4 torus a cached byte is reused
//! to send 2.25 bytes (¾ + 2·6⁄16 + ¾), so ≈133 GB/s suffices — the 3.5×
//! memory-bandwidth reduction headline.

use crate::plan::{CollectivePlan, PhaseKind};

/// Endpoint memory traffic generated while executing a collective.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemTraffic {
    /// Bytes read from main memory.
    pub reads: f64,
    /// Bytes written to main memory.
    pub writes: f64,
}

impl MemTraffic {
    /// Total bytes moved.
    pub fn total(&self) -> f64 {
        self.reads + self.writes
    }
}

/// Baseline endpoint memory traffic for executing `plan` on a per-node
/// payload of `payload_bytes` (per node, one collective).
///
/// Per phase of ring size `k` on input fraction `f` (of payload `D`):
///
/// * **Reduce-scatter**: the first send reads its shard (`fD/k`); each of
///   the remaining `k-2` sends reads the received shard plus the local
///   shard (`2fD/k`); the final (non-sending) reduction reads another
///   `2fD/k` and writes its result. Every received shard is first written
///   to memory.
/// * **All-gather**: every send reads `fD` from memory; every received
///   shard is written.
/// * **Ring all-reduce**: reduce-scatter followed by all-gather on the
///   phase input.
/// * **Direct all-to-all**: every sent byte is read once; every received
///   byte is written once.
pub fn baseline_traffic(plan: &CollectivePlan, payload_bytes: u64) -> MemTraffic {
    let d = payload_bytes as f64;
    let mut t = MemTraffic::default();
    for phase in plan.phases() {
        let k = phase.ring_size as f64;
        let f = phase.input_fraction * d;
        match phase.kind {
            PhaseKind::ReduceScatter => {
                accumulate_rs(&mut t, f, k);
            }
            PhaseKind::AllGather => {
                accumulate_ag(&mut t, f, k);
            }
            PhaseKind::RingAllReduce => {
                accumulate_rs(&mut t, f, k);
                accumulate_ag(&mut t, f / k, k);
            }
            PhaseKind::DirectAllToAll => {
                let sent = f * (k - 1.0) / k;
                t.reads += sent;
                t.writes += sent;
            }
        }
    }
    t
}

fn accumulate_rs(t: &mut MemTraffic, input: f64, k: f64) {
    let shard = input / k;
    // First send: read local shard only.
    t.reads += shard;
    // Middle sends: read received + local.
    t.reads += (k - 2.0).max(0.0) * 2.0 * shard;
    // Final reduction (no send): read received + local, write result.
    t.reads += 2.0 * shard;
    t.writes += shard;
    // Every received shard lands in memory first.
    t.writes += (k - 1.0) * shard;
}

fn accumulate_ag(t: &mut MemTraffic, input: f64, k: f64) {
    // Each of the k-1 sends reads `input` bytes from memory.
    t.reads += (k - 1.0) * input;
    // Each of the k-1 received shards is written to memory.
    t.writes += (k - 1.0) * input;
}

/// ACE endpoint memory traffic: one TX-DMA load and one RX-DMA store of
/// the payload, independent of topology — the SRAM absorbs all reuse.
pub fn ace_traffic(payload_bytes: u64) -> MemTraffic {
    let d = payload_bytes as f64;
    MemTraffic {
        reads: d,
        writes: d,
    }
}

/// Memory-read bytes per network byte for the baseline on `plan`
/// (→ 1.5 asymptotically for a single-ring all-reduce, Section VI-A).
pub fn baseline_reads_per_network_byte(plan: &CollectivePlan, payload_bytes: u64) -> f64 {
    let sent = plan.bytes_sent_per_node(payload_bytes);
    if sent == 0.0 {
        return 0.0;
    }
    baseline_traffic(plan, payload_bytes).reads / sent
}

/// Memory-read bytes per network byte for ACE on `plan`.
pub fn ace_reads_per_network_byte(plan: &CollectivePlan, payload_bytes: u64) -> f64 {
    let sent = plan.bytes_sent_per_node(payload_bytes);
    if sent == 0.0 {
        return 0.0;
    }
    ace_traffic(payload_bytes).reads / sent
}

/// Memory bandwidth (GB/s) required to sustain `target_net_gbps` of
/// per-node network injection, counting read traffic as the paper does.
pub fn required_mem_bw_gbps(reads_per_net_byte: f64, target_net_gbps: f64) -> f64 {
    reads_per_net_byte * target_net_gbps
}

/// The headline ratio: baseline memory bandwidth requirement over ACE's
/// for the same plan and target network bandwidth (paper: ≈3.5×).
pub fn mem_bw_reduction(plan: &CollectivePlan, payload_bytes: u64) -> f64 {
    let b = baseline_reads_per_network_byte(plan, payload_bytes);
    let a = ace_reads_per_network_byte(plan, payload_bytes);
    b / a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CollectiveOp;
    use ace_net::TopologySpec;

    fn plan(shape: (usize, usize, usize)) -> CollectivePlan {
        CollectivePlan::for_spec(
            CollectiveOp::AllReduce,
            TopologySpec::torus3(shape.0, shape.1, shape.2).unwrap(),
        )
    }

    #[test]
    fn single_ring_reads_approach_one_point_five() {
        // Large single ring: RS reads → 2N per N sent, AG reads → N per N
        // sent, equal send volumes → 1.5 N reads per N sent.
        let p = plan((1, 64, 1));
        let r = baseline_reads_per_network_byte(&p, 1 << 30);
        assert!((r - 1.5).abs() < 0.05, "reads/byte {r}");
    }

    #[test]
    fn hierarchical_reads_are_above_one() {
        let p = plan((4, 4, 4));
        let r = baseline_reads_per_network_byte(&p, 64 << 20);
        assert!(r > 1.0 && r < 2.0, "reads/byte {r}");
    }

    #[test]
    fn ace_sends_2_25_bytes_per_cached_byte_on_4x4x4() {
        let p = plan((4, 4, 4));
        let r = ace_reads_per_network_byte(&p, 64 << 20);
        // 1 read per 2.25 sent.
        assert!((r - 1.0 / 2.25).abs() < 1e-9, "reads/byte {r}");
    }

    #[test]
    fn paper_memory_bw_numbers() {
        // Baseline: ~1.5 reads/byte × 300 GB/s ≈ 450 GB/s.
        let ring = plan((1, 64, 1));
        let need = required_mem_bw_gbps(baseline_reads_per_network_byte(&ring, 1 << 30), 300.0);
        assert!((need - 450.0).abs() < 15.0, "baseline needs {need} GB/s");
        // ACE on 4x4x4: 300/2.25 ≈ 133 GB/s.
        let h = plan((4, 4, 4));
        let ace = required_mem_bw_gbps(ace_reads_per_network_byte(&h, 1 << 30), 300.0);
        assert!((ace - 133.3).abs() < 1.0, "ace needs {ace} GB/s");
    }

    #[test]
    fn headline_reduction_is_about_3_5x() {
        let p = plan((4, 4, 4));
        let red = mem_bw_reduction(&p, 64 << 20);
        assert!(red > 2.5 && red < 4.5, "reduction {red}");
    }

    #[test]
    fn ace_traffic_is_topology_independent() {
        let t = ace_traffic(1000);
        assert_eq!(t.reads, 1000.0);
        assert_eq!(t.writes, 1000.0);
        assert_eq!(t.total(), 2000.0);
    }

    #[test]
    fn baseline_traffic_grows_with_ring_size() {
        let small = baseline_traffic(&plan((1, 4, 1)), 1 << 20);
        let large = baseline_traffic(&plan((1, 64, 1)), 1 << 20);
        assert!(large.reads > small.reads);
    }

    #[test]
    fn all_to_all_traffic_reads_equal_writes() {
        let p = CollectivePlan::for_spec(
            CollectiveOp::AllToAll,
            TopologySpec::torus3(4, 4, 4).unwrap(),
        );
        let t = baseline_traffic(&p, 64 << 20);
        assert!((t.reads - t.writes).abs() < 1e-6);
        // 63/64 of the payload is read once for sending.
        assert!((t.reads - (64u64 << 20) as f64 * 63.0 / 64.0).abs() < 1.0);
    }

    #[test]
    fn zero_payload_has_zero_ratios() {
        let p = plan((4, 4, 4));
        assert_eq!(baseline_reads_per_network_byte(&p, 0), 0.0);
        assert_eq!(ace_reads_per_network_byte(&p, 0), 0.0);
    }
}
