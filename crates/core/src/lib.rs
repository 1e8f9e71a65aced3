//! The ACE (Accelerator Collectives Engine) microarchitecture model —
//! the paper's primary contribution (Section IV).
//!
//! ACE sits beside the Accelerator Fabric Interface (AFI) at every NPU
//! endpoint and executes collective communication so the NPU's SMs and
//! memory bandwidth stay dedicated to training compute. Its components
//! (paper Fig. 7):
//!
//! * an on-chip **SRAM** (default 4 MB) split into one partition per
//!   collective phase plus a *terminal partition* holding results for the
//!   RX DMA ([`SramPartitioner`]),
//! * a pool of **programmable FSMs** (default 16) that each own the
//!   dataflow of one chunk at a time ([`FsmPool`]),
//! * **ALUs** — 4 units, each 16×FP32 / 32×FP16 per cycle — for reduction
//!   sums ([`AluModel`]),
//! * **TX/RX DMA engines** moving chunks between main memory and the SRAM
//!   ([`DmaEngine`]),
//! * a 28 nm **synthesis model** reproducing Table IV's area and power
//!   ([`synthesis`]).
//!
//! [`AceState`] bundles the dynamic resources into the form consumed by
//! the endpoint/system simulator, and tracks the engine-busy intervals
//! behind Fig. 9b's utilization plot.
//!
//! # Example
//!
//! ```
//! use ace_engine::{AceConfig, AceState};
//! use ace_simcore::SimTime;
//!
//! let mut ace = AceState::new(AceConfig::paper_default(), &[0.75, 0.09375, 0.09375, 0.1875]);
//! // Admit a 64 kB chunk into phase 0 and run a reduction step.
//! assert!(ace.try_admit(0, 64 * 1024, SimTime::ZERO));
//! let g = ace.reduce(SimTime::ZERO, 8 * 1024);
//! assert!(g.end > g.start);
//! ace.release(0, 64 * 1024, g.end);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alu;
mod config;
mod dma;
mod fsm;
mod sram;
pub mod synthesis;

pub use alu::AluModel;
pub use config::AceConfig;
pub use dma::DmaEngine;
pub use fsm::FsmPool;
pub use sram::SramPartitioner;

use ace_simcore::{Grant, SimTime};

/// The dynamic state of one endpoint's ACE: SRAM occupancy, FSM slots,
/// ALU and SRAM-port bandwidth, and busy-interval tracking.
#[derive(Debug, Clone)]
pub struct AceState {
    config: AceConfig,
    sram: SramPartitioner,
    fsms: FsmPool,
    alu: AluModel,
    sram_port: ace_simcore::BandwidthServer,
    active_chunks: usize,
    /// Cycles of the closed busy intervals.
    busy: u64,
    /// End of the last closed busy interval; a later interval is counted
    /// from no earlier than this.
    busy_until: SimTime,
    busy_since: Option<SimTime>,
}

impl AceState {
    /// Builds the engine state for `config`, partitioning the SRAM by the
    /// per-phase `weights` (bandwidth × chunk-size heuristic, Section IV-I).
    /// The partitioner appends the terminal partition automatically.
    pub fn new(config: AceConfig, weights: &[f64]) -> AceState {
        let sram = SramPartitioner::new(config.sram_bytes, weights);
        let fsms = FsmPool::new(config.num_fsms, weights.len());
        let alu = AluModel::new(&config);
        let sram_port = ace_simcore::BandwidthServer::new(config.sram_port_bytes_per_cycle());
        AceState {
            config,
            sram,
            fsms,
            alu,
            sram_port,
            active_chunks: 0,
            busy: 0,
            busy_until: SimTime::ZERO,
            busy_since: None,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AceConfig {
        &self.config
    }

    /// Immutable view of the SRAM partitioner.
    pub fn sram(&self) -> &SramPartitioner {
        &self.sram
    }

    /// Immutable view of the FSM pool.
    pub fn fsms(&self) -> &FsmPool {
        &self.fsms
    }

    /// Attempts to admit a chunk of `bytes` into the partition for
    /// `phase`. On success the engine is considered utilized from `now`
    /// until the matching [`release`](AceState::release).
    pub fn try_admit(&mut self, phase: usize, bytes: u64, now: SimTime) -> bool {
        if !self.sram.try_alloc(phase, bytes) {
            return false;
        }
        if self.active_chunks == 0 {
            self.busy_since = Some(now);
        }
        self.active_chunks += 1;
        true
    }

    /// Releases a previously admitted chunk.
    ///
    /// # Panics
    ///
    /// Panics if no chunk is active or the partition accounting underflows.
    pub fn release(&mut self, phase: usize, bytes: u64, now: SimTime) {
        assert!(self.active_chunks > 0, "release without admit");
        self.sram.free(phase, bytes);
        self.active_chunks -= 1;
        if self.active_chunks == 0 {
            let since = self.busy_since.take().expect("busy interval open");
            let since = since.max(self.busy_until);
            if now > since {
                self.busy += now - since;
                self.busy_until = now;
            }
        }
    }

    /// Number of chunks currently resident in the engine.
    pub fn active_chunks(&self) -> usize {
        self.active_chunks
    }

    /// Dispatches one chunk-step onto an FSM assigned to `phase` for
    /// `duration` cycles.
    pub fn fsm_dispatch(&mut self, phase: usize, now: SimTime, duration: u64) -> Grant {
        self.fsms.dispatch(phase, now, duration)
    }

    /// Runs a reduction of `bytes` through the ALUs (reads two operands
    /// and writes one result through the SRAM port).
    pub fn reduce(&mut self, now: SimTime, bytes: u64) -> Grant {
        let port = self.sram_port.request(now, 3 * bytes);
        let alu = self.alu.reduce(port.start, bytes);
        Grant {
            start: port.start,
            end: alu.end.max(port.end),
        }
    }

    /// Moves `bytes` through the SRAM port (store-and-forward without
    /// reduction: one read plus one write).
    pub fn sram_copy(&mut self, now: SimTime, bytes: u64) -> Grant {
        self.sram_port.request(now, 2 * bytes)
    }

    /// Exact engine-busy cycles over `[0, horizon]` ("ACE is considered
    /// utilized when it has assigned at least one chunk for processing").
    /// This is the integer ground truth behind Fig. 9b's utilization.
    pub fn busy_cycles(&self, horizon: SimTime) -> u64 {
        // An open busy interval extends to the horizon.
        let mut busy = self.busy;
        if let Some(since) = self.busy_since {
            busy += horizon.saturating_since(since);
        }
        busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> AceState {
        AceState::new(AceConfig::paper_default(), &[1.0, 0.5, 0.5, 1.0])
    }

    #[test]
    fn admit_release_roundtrip() {
        let mut s = state();
        assert!(s.try_admit(0, 64 * 1024, SimTime::ZERO));
        assert_eq!(s.active_chunks(), 1);
        s.release(0, 64 * 1024, SimTime::from_cycles(100));
        assert_eq!(s.active_chunks(), 0);
        assert_eq!(s.busy_cycles(SimTime::from_cycles(200)), 100);
    }

    #[test]
    fn admission_is_bounded_by_partition_capacity() {
        let mut s = state();
        let cap = s.sram().capacity(0);
        let mut admitted = 0u64;
        while s.try_admit(0, 64 * 1024, SimTime::ZERO) {
            admitted += 64 * 1024;
        }
        assert!(admitted <= cap);
        assert!(admitted + 64 * 1024 > cap);
    }

    #[test]
    fn utilization_covers_open_interval() {
        let mut s = state();
        s.try_admit(0, 1024, SimTime::from_cycles(10));
        // Still active: busy from 10 to the horizon at 110.
        assert_eq!(s.busy_cycles(SimTime::from_cycles(110)), 100);
    }

    #[test]
    fn busy_intervals_merge_overlap() {
        // A busy interval opened before the last one closed counts only
        // from that close.
        let mut s = state();
        s.try_admit(0, 1024, SimTime::ZERO);
        s.release(0, 1024, SimTime::from_cycles(10));
        s.try_admit(0, 1024, SimTime::from_cycles(5));
        s.release(0, 1024, SimTime::from_cycles(15));
        assert_eq!(s.busy_cycles(SimTime::from_cycles(30)), 15);
    }

    #[test]
    fn busy_intervals_ignore_contained_intervals() {
        let mut s = state();
        s.try_admit(0, 1024, SimTime::ZERO);
        s.release(0, 1024, SimTime::from_cycles(100));
        s.try_admit(0, 1024, SimTime::from_cycles(10));
        s.release(0, 1024, SimTime::from_cycles(20));
        assert_eq!(s.busy_cycles(SimTime::from_cycles(100)), 100);
    }

    #[test]
    fn reduce_passes_through_port_and_alu() {
        let mut s = state();
        let g = s.reduce(SimTime::ZERO, 8 * 1024);
        // Port: 16 KiB at 1024 B/cycle = 16 cycles; ALU: 8 KiB at 256
        // B/cycle = 32 cycles (the ALU is the longer pole).
        assert_eq!(g.start, SimTime::ZERO);
        assert!(g.end.cycles() >= 32);
    }

    #[test]
    fn copy_is_cheaper_than_reduce() {
        let mut a = state();
        let mut b = state();
        let gr = a.reduce(SimTime::ZERO, 8 * 1024);
        let gc = b.sram_copy(SimTime::ZERO, 8 * 1024);
        assert!(gc.end <= gr.end);
    }

    #[test]
    #[should_panic(expected = "release without admit")]
    fn release_without_admit_panics() {
        let mut s = state();
        s.release(0, 1024, SimTime::ZERO);
    }
}
