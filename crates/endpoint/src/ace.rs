//! The ACE endpoint: the paper's proposed engine wired into the endpoint
//! pipeline (Section IV, Fig. 8 right column).
//!
//! A chunk is TX-DMA'd from HBM into the ACE SRAM **once**; all ring steps
//! then read, reduce and forward entirely inside the engine (FSM dispatch,
//! SRAM ports, ALUs); the finished chunk is RX-DMA'd back **once**. HBM
//! therefore sees exactly 2 bytes of traffic per payload byte regardless
//! of topology — the mechanism behind the 3.5× memory-bandwidth headline.

use ace_engine::{AceConfig, AceState, DmaEngine};
use ace_mem::{AfiBus, BusParams, EndpointMemory, MemoryParams};
use ace_simcore::SimTime;
use ace_trace::PipeBusy;

use crate::traits::CollectiveEngine;

/// Configuration of one ACE endpoint.
#[derive(Debug, Clone)]
pub struct AceEndpointParams {
    /// The engine microarchitecture.
    pub config: AceConfig,
    /// HBM bandwidth the DMA engines may consume, GB/s.
    pub dma_mem_gbps: f64,
    /// NPU-AFI bus parameters.
    pub bus: BusParams,
    /// Per-phase SRAM partition weights (bandwidth × chunk size heuristic,
    /// Section IV-I). Length = number of collective phases.
    pub phase_weights: Vec<f64>,
}

impl AceEndpointParams {
    /// The paper's ACE endpoint behind a `dma_mem_gbps` share of HBM, for
    /// a plan with `phase_weights`.
    pub fn paper_default(dma_mem_gbps: f64, phase_weights: Vec<f64>) -> AceEndpointParams {
        AceEndpointParams {
            config: AceConfig::paper_default(),
            dma_mem_gbps,
            bus: BusParams::paper_default(),
            phase_weights,
        }
    }
}

/// One node's ACE endpoint.
#[derive(Debug, Clone)]
pub struct AceEndpoint {
    ace: AceState,
    mem: EndpointMemory,
    bus: AfiBus,
    tx_dma: DmaEngine,
    rx_dma: DmaEngine,
    /// `log2(bus_width_bytes)` when the width is a power of two: lets the
    /// per-step FSM-cycle computation shift instead of divide.
    bus_width_shift: Option<u32>,
    /// Per-pipe busy-cycle totals, accumulated from the grants above.
    pipes: PipeBusy,
}

impl AceEndpoint {
    /// Builds the endpoint.
    pub fn new(params: AceEndpointParams) -> AceEndpoint {
        let ace = AceState::new(params.config, &params.phase_weights);
        let mem = EndpointMemory::new(MemoryParams::paper_default(params.dma_mem_gbps));
        let bus = AfiBus::new(params.bus);
        let width = ace.config().bus_width_bytes;
        let bus_width_shift = width.is_power_of_two().then(|| width.trailing_zeros());
        AceEndpoint {
            ace,
            mem,
            bus,
            tx_dma: DmaEngine::paper_default(),
            rx_dma: DmaEngine::paper_default(),
            bus_width_shift,
            pipes: PipeBusy::default(),
        }
    }

    /// Cycles one FSM is occupied orchestrating a step: it streams the
    /// message through its 64-byte bus plus a small control overhead, so
    /// the FSM count bounds per-phase chunk parallelism (Section IV-F —
    /// "the available parallelism is only bounded by the number of
    /// available state machines"). This is the knob behind Fig. 9a's FSM
    /// axis.
    fn fsm_cycles(&self, bytes: u64) -> u64 {
        match self.bus_width_shift {
            Some(shift) => (bytes >> shift) + 4,
            None => bytes / self.ace.config().bus_width_bytes + 4,
        }
    }

    /// Immutable view of the engine state.
    pub fn ace(&self) -> &AceState {
        &self.ace
    }
}

impl CollectiveEngine for AceEndpoint {
    fn chunk_inject(&mut self, now: SimTime, bytes: u64) -> SimTime {
        // TX DMA pipeline: HBM read, DMA engine, bus — the chunk is
        // staged when the slowest stage drains.
        let mem = self.mem.comm_read(now, bytes);
        let dma = self.tx_dma.transfer(now, bytes);
        let bus = self.bus.transfer(now, bytes);
        self.pipes.hbm += mem.service();
        self.pipes.dma += dma.service();
        self.pipes.bus += bus.service();
        mem.end.max(dma.end).max(bus.end)
    }

    fn fetch_and_send(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime {
        let fsm = self.ace.fsm_dispatch(phase, now, self.fsm_cycles(bytes));
        // Read the message out of SRAM into the port buffer.
        let port = self.ace.sram_copy(now, bytes);
        self.pipes.proc += fsm.service() + port.service();
        fsm.end.max(port.end)
    }

    fn reduce_and_send(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime {
        let fsm = self.ace.fsm_dispatch(phase, now, self.fsm_cycles(bytes));
        // Two SRAM reads + ALU reduce; result streams to the port buffer.
        let red = self.ace.reduce(now, bytes);
        self.pipes.proc += fsm.service() + red.service();
        fsm.end.max(red.end)
    }

    fn reduce_and_store(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime {
        let fsm = self.ace.fsm_dispatch(phase, now, self.fsm_cycles(bytes));
        let red = self.ace.reduce(now, bytes);
        self.pipes.proc += fsm.service() + red.service();
        fsm.end.max(red.end)
    }

    fn receive(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime {
        // Arriving packets land directly in the phase partition through
        // the SRAM port (no bus crossing: ACE sits beside the AFI).
        let _ = phase;
        let port = self.ace.sram_copy(now, bytes);
        self.pipes.proc += port.service();
        port.end
    }

    fn store_and_forward(&mut self, now: SimTime, bytes: u64, phase: usize) -> SimTime {
        // "ACE prevents such unnecessary memory overheads since its SRAM
        // absorbs packets and forwards the ones that have different
        // destinations through the FSM responsible for the corresponding
        // chunk" (Section V).
        let fsm = self.ace.fsm_dispatch(phase, now, self.fsm_cycles(bytes));
        let port = self.ace.sram_copy(now, 2 * bytes);
        self.pipes.proc += fsm.service() + port.service();
        fsm.end.max(port.end)
    }

    fn chunk_complete(&mut self, now: SimTime, bytes: u64) -> SimTime {
        // RX DMA pipeline: SRAM read, bus, HBM write.
        let dma = self.rx_dma.transfer(now, bytes);
        let bus = self.bus.transfer(now, bytes);
        let mem = self.mem.comm_write(now, bytes);
        self.pipes.dma += dma.service();
        self.pipes.bus += bus.service();
        self.pipes.hbm += mem.service();
        dma.end.max(bus.end).max(mem.end)
    }

    fn try_admit(&mut self, phase: usize, bytes: u64, now: SimTime) -> bool {
        self.ace.try_admit(phase, bytes, now)
    }

    fn release(&mut self, phase: usize, bytes: u64, now: SimTime) {
        self.ace.release(phase, bytes, now);
    }

    fn busy_cycles(&self, horizon: SimTime) -> Option<u64> {
        Some(self.ace.busy_cycles(horizon))
    }

    fn mem_traffic_bytes(&self) -> u64 {
        self.mem.comm_bytes()
    }

    fn pipe_busy(&self) -> PipeBusy {
        self.pipes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoint() -> AceEndpoint {
        AceEndpoint::new(AceEndpointParams::paper_default(
            128.0,
            vec![0.75, 0.09375, 0.09375, 0.1875],
        ))
    }

    #[test]
    fn hbm_traffic_is_exactly_inject_plus_complete() {
        let mut ep = endpoint();
        let chunk = 64 * 1024;
        ep.chunk_inject(SimTime::ZERO, chunk);
        // Ring steps generate zero HBM traffic.
        ep.fetch_and_send(SimTime::ZERO, 8 * 1024, 0);
        ep.reduce_and_send(SimTime::ZERO, 8 * 1024, 0);
        ep.receive(SimTime::ZERO, 8 * 1024, 0);
        ep.store_and_forward(SimTime::ZERO, 8 * 1024, 0);
        ep.chunk_complete(SimTime::ZERO, chunk);
        assert_eq!(ep.mem_traffic_bytes(), 2 * chunk);
    }

    #[test]
    fn compute_keeps_772_gbps() {
        assert!((endpoint().mem.compute_gbps() - 772.0).abs() < 1e-9);
    }

    #[test]
    fn sram_backpressure_applies() {
        let mut ep = endpoint();
        let chunk = 64 * 1024;
        let mut admitted = 0;
        while ep.try_admit(0, chunk, SimTime::ZERO) {
            admitted += 1;
        }
        // Phase-0 partition is roughly half of 4 MB => ~30 chunks.
        assert!(admitted > 10 && admitted < 64, "admitted {admitted}");
        ep.release(0, chunk, SimTime::from_cycles(10));
        assert!(ep.try_admit(0, chunk, SimTime::from_cycles(10)));
    }

    #[test]
    fn utilization_is_reported() {
        let mut ep = endpoint();
        assert_eq!(ep.busy_cycles(SimTime::from_cycles(100)), Some(0));
        ep.try_admit(0, 1024, SimTime::ZERO);
        assert_eq!(ep.busy_cycles(SimTime::from_cycles(100)), Some(100));
    }

    #[test]
    fn step_costs_are_cheaper_than_baseline() {
        use crate::baseline::{BaselineEngine, BaselineParams};
        let mut ace = endpoint();
        let mut base = BaselineEngine::new(BaselineParams::custom(128.0, 2));
        let ta = ace.reduce_and_send(SimTime::ZERO, 64 * 1024, 0);
        let tb = base.reduce_and_send(SimTime::ZERO, 64 * 1024, 0);
        assert!(
            ta < tb,
            "ACE step ({ta}) must beat the 128 GB/s baseline ({tb})"
        );
    }

    #[test]
    fn pipe_busy_accumulates_per_pipe() {
        let mut ep = endpoint();
        assert_eq!(ep.pipe_busy(), ace_trace::PipeBusy::default());
        ep.chunk_inject(SimTime::ZERO, 1 << 20);
        let after_inject = ep.pipe_busy();
        assert!(after_inject.hbm > 0 && after_inject.dma > 0 && after_inject.bus > 0);
        assert_eq!(after_inject.proc, 0, "inject uses no ACE processing");
        ep.reduce_and_send(SimTime::ZERO, 64 * 1024, 0);
        assert!(ep.pipe_busy().proc > 0, "ring steps run on ACE pipes");
        assert_eq!(ep.pipe_busy().hbm, after_inject.hbm, "no HBM in steps");
    }

    #[test]
    fn inject_cost_scales_with_dma_partition() {
        let mut wide = AceEndpoint::new(AceEndpointParams::paper_default(450.0, vec![1.0]));
        let mut narrow = AceEndpoint::new(AceEndpointParams::paper_default(32.0, vec![1.0]));
        let tw = wide.chunk_inject(SimTime::ZERO, 1 << 20);
        let tn = narrow.chunk_inject(SimTime::ZERO, 1 << 20);
        assert!(tn > tw);
    }
}
