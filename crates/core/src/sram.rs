//! SRAM partition management (Section IV-E, IV-I).
//!
//! For a collective with `P` phases the SRAM is divided into `P + 1`
//! partitions: one per phase plus the *terminal partition* holding results
//! awaiting the RX DMA. Partition sizes follow the paper's heuristic —
//! proportional to (phase network bandwidth × phase chunk size) — with the
//! terminal partition sized equal to the last phase's partition.

/// Allocates and tracks the per-phase SRAM partitions of one ACE.
#[derive(Debug, Clone)]
pub struct SramPartitioner {
    capacities: Vec<u64>,
    used: Vec<u64>,
}

impl SramPartitioner {
    /// Splits `total_bytes` across `weights.len() + 1` partitions using the
    /// paper's heuristic. `weights[i]` is (bandwidth × chunk size) for
    /// phase `i`; the terminal partition duplicates the last weight.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, any weight is non-positive, or
    /// `total_bytes` is zero.
    pub fn new(total_bytes: u64, weights: &[f64]) -> SramPartitioner {
        assert!(!weights.is_empty(), "need at least one phase weight");
        assert!(total_bytes > 0, "SRAM must be nonzero");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "phase weights must be positive"
        );
        let terminal = *weights.last().expect("nonempty");
        let sum: f64 = weights.iter().sum::<f64>() + terminal;
        let mut capacities: Vec<u64> = weights
            .iter()
            .chain(std::iter::once(&terminal))
            .map(|w| ((w / sum) * total_bytes as f64).floor() as u64)
            .collect();
        // Give rounding residue to the first partition (it sees the full
        // chunk size).
        let assigned: u64 = capacities.iter().sum();
        capacities[0] += total_bytes - assigned;
        let used = vec![0; capacities.len()];
        SramPartitioner { capacities, used }
    }

    /// Number of partitions (phases + terminal).
    pub fn partitions(&self) -> usize {
        self.capacities.len()
    }

    /// Capacity of partition `phase` in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn capacity(&self, phase: usize) -> u64 {
        self.capacities[phase]
    }

    /// Bytes currently allocated in partition `phase`.
    pub fn used(&self, phase: usize) -> u64 {
        self.used[phase]
    }

    /// Index of the terminal partition.
    pub fn terminal(&self) -> usize {
        self.capacities.len() - 1
    }

    /// Attempts to reserve `bytes` in partition `phase`. Chunks larger
    /// than the whole partition are admitted alone (occupying the full
    /// partition) so that oversized chunks cannot deadlock the engine.
    pub fn try_alloc(&mut self, phase: usize, bytes: u64) -> bool {
        let cap = self.capacities[phase];
        if bytes >= cap {
            // Oversized: admit only into an empty partition.
            if self.used[phase] == 0 {
                self.used[phase] = cap;
                return true;
            }
            return false;
        }
        if self.used[phase] + bytes <= cap {
            self.used[phase] += bytes;
            true
        } else {
            false
        }
    }

    /// Releases `bytes` from partition `phase`.
    ///
    /// # Panics
    ///
    /// Panics if the release would underflow the partition's accounting.
    pub fn free(&mut self, phase: usize, bytes: u64) {
        let cap = self.capacities[phase];
        let charged = if bytes >= cap { cap } else { bytes };
        assert!(
            self.used[phase] >= charged,
            "partition {phase} underflow: used {} < freed {charged}",
            self.used[phase]
        );
        self.used[phase] -= charged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_follow_weights_with_terminal() {
        // Paper example (Section IV-I footnote): a phase with 2x bandwidth
        // and 2x chunk size gets a 4x larger partition.
        let p = SramPartitioner::new(6000, &[4.0, 1.0]);
        assert_eq!(p.partitions(), 3);
        // Weights 4,1 + terminal 1 => shares 4/6, 1/6, 1/6.
        assert!(p.capacity(0) >= 3999 && p.capacity(0) <= 4001);
        assert_eq!(p.capacity(1), 1000);
        assert_eq!(p.capacity(2), 1000);
        assert_eq!(p.terminal(), 2);
    }

    #[test]
    fn capacities_sum_to_total() {
        let p = SramPartitioner::new(4 << 20, &[0.75, 0.09375, 0.09375, 0.1875]);
        let sum: u64 = (0..p.partitions()).map(|i| p.capacity(i)).sum();
        assert_eq!(sum, 4 << 20);
    }

    #[test]
    fn alloc_free_accounting() {
        let mut p = SramPartitioner::new(1000, &[1.0]);
        assert!(p.try_alloc(0, 300));
        assert_eq!(p.used(0), 300);
        assert!(p.used(0) < p.capacity(0));
        p.free(0, 300);
        assert_eq!(p.used(0), 0);
    }

    #[test]
    fn alloc_fails_when_full() {
        let mut p = SramPartitioner::new(1000, &[1.0]);
        let cap = p.capacity(0);
        assert!(p.try_alloc(0, cap - 1));
        assert!(!p.try_alloc(0, 2));
        assert!(p.try_alloc(0, 1));
    }

    #[test]
    fn oversized_chunk_admitted_alone() {
        let mut p = SramPartitioner::new(1000, &[1.0, 1.0]);
        let cap = p.capacity(0);
        assert!(p.try_alloc(0, cap * 2), "oversized chunk must not deadlock");
        assert!(!p.try_alloc(0, 1), "partition is saturated");
        p.free(0, cap * 2);
        assert_eq!(p.used(0), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn double_free_panics() {
        let mut p = SramPartitioner::new(1000, &[1.0]);
        p.try_alloc(0, 100);
        p.free(0, 100);
        p.free(0, 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let _ = SramPartitioner::new(1000, &[1.0, 0.0]);
    }
}
