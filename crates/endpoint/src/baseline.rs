//! The SM-driven baseline endpoint (Section III, Fig. 8 left column).
//!
//! Collective kernels run on a small allocation of the NPU's SMs and a
//! carve-out of HBM bandwidth (Table VI). Every message send reads its
//! operands from HBM, is pumped by the SM drive bandwidth (64 B/cycle per
//! SM), and crosses the NPU-AFI bus; every received message is first
//! written to HBM. Reduce steps read both operands. Multi-hop packets are
//! bounced through intermediate endpoints' HBM, "wasting a lot of memory
//! BW on the intermediate hops".

use ace_compute::SmDriveModel;
use ace_mem::{AfiBus, BusParams, EndpointMemory, MemoryParams};
use ace_simcore::{BandwidthServer, SimTime};
use ace_trace::PipeBusy;

use crate::traits::CollectiveEngine;

/// Resource allocation for one baseline endpoint.
#[derive(Debug, Clone, Copy)]
pub struct BaselineParams {
    /// HBM bandwidth reserved for communication, GB/s.
    pub comm_mem_gbps: f64,
    /// SMs loaned to the communication library.
    pub comm_sms: u32,
    /// NPU-AFI bus parameters.
    pub bus: BusParams,
}

impl BaselineParams {
    /// An allocation of HBM and SMs to communication (Table VI's
    /// presets live on `SystemConfig::engine`; Figs. 5 and 6 sweep these
    /// knobs).
    pub fn custom(comm_mem_gbps: f64, comm_sms: u32) -> BaselineParams {
        BaselineParams {
            comm_mem_gbps,
            comm_sms,
            bus: BusParams::paper_default(),
        }
    }
}

/// One node's baseline collective pipeline.
#[derive(Debug, Clone)]
pub struct BaselineEngine {
    params: BaselineParams,
    mem: EndpointMemory,
    bus: AfiBus,
    sm_drive: BandwidthServer,
    /// Per-pipe busy-cycle totals, accumulated from the grants above.
    pipes: PipeBusy,
}

impl BaselineEngine {
    /// Builds the engine for `params`.
    pub fn new(params: BaselineParams) -> BaselineEngine {
        let mem = EndpointMemory::new(MemoryParams::paper_default(params.comm_mem_gbps));
        let bus = AfiBus::new(params.bus);
        let drive = SmDriveModel::paper_default();
        let sm_drive = BandwidthServer::new(drive.drive_bytes_per_cycle(params.comm_sms));
        BaselineEngine {
            params,
            mem,
            bus,
            sm_drive,
            pipes: PipeBusy::default(),
        }
    }

    /// The engine's resource allocation.
    pub fn params(&self) -> &BaselineParams {
        &self.params
    }

    /// Read `bytes` from HBM, pump through the SM drive, cross the bus.
    ///
    /// The three resources operate as a pipeline: each is requested at
    /// `now` and the message departs when the slowest stage finishes.
    /// (Requesting stage N at stage N-1's completion would future-date
    /// FIFO reservations and destroy the servers' concurrency.)
    fn outbound(&mut self, now: SimTime, read_bytes: u64, send_bytes: u64) -> SimTime {
        let mem = self.mem.comm_read(now, read_bytes);
        let drive = self.sm_drive.request(now, send_bytes);
        let bus = self.bus.transfer(now, send_bytes);
        self.pipes.hbm += mem.service();
        self.pipes.proc += drive.service();
        self.pipes.bus += bus.service();
        mem.end.max(drive.end).max(bus.end)
    }
}

impl CollectiveEngine for BaselineEngine {
    fn chunk_inject(&mut self, now: SimTime, _bytes: u64) -> SimTime {
        // Gradients are already resident in HBM; nothing to stage.
        now
    }

    fn fetch_and_send(&mut self, now: SimTime, bytes: u64, _phase: usize) -> SimTime {
        // One HBM read per network byte (all-gather / first sends).
        self.outbound(now, bytes, bytes)
    }

    fn reduce_and_send(&mut self, now: SimTime, bytes: u64, _phase: usize) -> SimTime {
        // Two HBM reads (local + received operand) per network byte —
        // the Section VI-A "2N per N" reduce-scatter term. The reduction
        // itself streams through the same SMs that drive the network.
        self.outbound(now, 2 * bytes, bytes)
    }

    fn reduce_and_store(&mut self, now: SimTime, bytes: u64, _phase: usize) -> SimTime {
        // Final ring step: read both operands, write the result; nothing
        // is sent.
        let rd = self.mem.comm_read(now, 2 * bytes);
        let wr = self.mem.comm_write(now, bytes);
        let drive = self.sm_drive.request(now, bytes);
        self.pipes.hbm += rd.service() + wr.service();
        self.pipes.proc += drive.service();
        rd.end.max(wr.end).max(drive.end)
    }

    fn receive(&mut self, now: SimTime, bytes: u64, _phase: usize) -> SimTime {
        // Arriving data crosses the bus and is written to HBM.
        let bus = self.bus.transfer(now, bytes);
        let g = self.mem.comm_write(now, bytes);
        self.pipes.bus += bus.service();
        self.pipes.hbm += g.service();
        bus.end.max(g.end)
    }

    fn store_and_forward(&mut self, now: SimTime, bytes: u64, _phase: usize) -> SimTime {
        // NVLink-style neighbor-only fabric: the communication library
        // writes in-transit data to this hop's memory and reads it back
        // out (Section V) — one write plus one read, then drive + bus.
        let write = self.mem.comm_write(now, bytes);
        let out = self.outbound(now, bytes, bytes);
        self.pipes.hbm += write.service();
        write.end.max(out)
    }

    fn chunk_complete(&mut self, now: SimTime, _bytes: u64) -> SimTime {
        // Results were already written to HBM by the final receive/store.
        now
    }

    fn try_admit(&mut self, _phase: usize, _bytes: u64, _now: SimTime) -> bool {
        // HBM is effectively unbounded relative to chunk sizes.
        true
    }

    fn release(&mut self, _phase: usize, _bytes: u64, _now: SimTime) {}

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

    #[test]
    fn compute_side_sees_remainder() {
        let e = BaselineEngine::new(BaselineParams::custom(128.0, 2));
        assert!((e.mem.compute_gbps() - 772.0).abs() < 1e-9);
    }

    #[test]
    fn reduce_and_send_costs_more_than_fetch() {
        let mut a = BaselineEngine::new(BaselineParams::custom(128.0, 2));
        let mut b = BaselineEngine::new(BaselineParams::custom(128.0, 2));
        let fetch = a.fetch_and_send(SimTime::ZERO, 64 * 1024, 0);
        let reduce = b.reduce_and_send(SimTime::ZERO, 64 * 1024, 0);
        assert!(reduce > fetch, "2N reads must cost more than N");
    }

    #[test]
    fn mem_traffic_accumulates_per_section_vi_a() {
        let mut e = BaselineEngine::new(BaselineParams::custom(450.0, 6));
        e.fetch_and_send(SimTime::ZERO, 1000, 0); // 1000 read
        e.reduce_and_send(SimTime::ZERO, 1000, 0); // 2000 read
        e.receive(SimTime::ZERO, 1000, 0); // 1000 write
        assert_eq!(e.mem_traffic_bytes(), 4000);
    }

    #[test]
    fn starved_memory_partition_slows_sends() {
        let mut wide = BaselineEngine::new(BaselineParams::custom(450.0, 6));
        let mut narrow = BaselineEngine::new(BaselineParams::custom(64.0, 6));
        let tw = wide.reduce_and_send(SimTime::ZERO, 1 << 20, 0);
        let tn = narrow.reduce_and_send(SimTime::ZERO, 1 << 20, 0);
        assert!(tn > tw);
    }

    #[test]
    fn few_sms_bottleneck_even_with_wide_memory() {
        let mut many = BaselineEngine::new(BaselineParams::custom(900.0, 8));
        let mut one = BaselineEngine::new(BaselineParams::custom(900.0, 1));
        let tm = many.fetch_and_send(SimTime::ZERO, 1 << 20, 0);
        let to = one.fetch_and_send(SimTime::ZERO, 1 << 20, 0);
        assert!(to > tm, "1 SM at ~80 GB/s must lag 8 SMs");
    }

    #[test]
    fn store_and_forward_touches_memory_twice() {
        let mut e = BaselineEngine::new(BaselineParams::custom(450.0, 6));
        e.store_and_forward(SimTime::ZERO, 1000, 0);
        assert_eq!(e.mem_traffic_bytes(), 2000);
    }

    #[test]
    fn pipe_busy_accumulates_per_pipe() {
        let mut e = BaselineEngine::new(BaselineParams::custom(128.0, 2));
        assert_eq!(e.pipe_busy(), PipeBusy::default());
        e.reduce_and_send(SimTime::ZERO, 1 << 20, 0);
        let p = e.pipe_busy();
        assert!(p.hbm > 0 && p.proc > 0 && p.bus > 0);
        assert_eq!(p.dma, 0, "the SM-driven baseline has no DMA engines");
    }

    #[test]
    fn admission_is_unbounded() {
        let mut e = BaselineEngine::new(BaselineParams::custom(450.0, 6));
        for _ in 0..1000 {
            assert!(e.try_admit(0, 64 * 1024, SimTime::ZERO));
        }
    }
}
