//! Closed-form α–β performance model of collective execution.
//!
//! The event-driven executor charges every message to every resource it
//! crosses; this module instead predicts a collective's completion time
//! from the standard first-order α–β decomposition the paper itself uses
//! to size ACE's SRAM and link bandwidth: per phase, `steps × α` of
//! serial latency plus `bytes / β` of serialization on each contended
//! resource, with the whole collective pipelined at chunk granularity so
//! concurrent resources *max* rather than sum.
//!
//! The model is a **max over bottlenecks**:
//!
//! * per-link serialization — each `(dimension, direction)` link carries
//!   its share of every phase riding that dimension (bidirectional rings
//!   split chunks across the two directions, mirroring the executor);
//! * endpoint staging — the engine-specific node-level pipes (HBM
//!   read/write channels, the NPU-AFI bus, SM drive bandwidth, TX/RX
//!   DMA) each pass their total byte load once;
//! * ACE SRAM residency — with a scratchpad of `S` bytes the chunk
//!   pipeline can only keep `S` payload bytes in flight, so throughput
//!   is `S / κ` bytes per cycle ([`SRAM_RESIDENCY_CYCLES`]);
//! * ACE FSM dispatch — each egress message occupies one of the phase's
//!   FSMs for `message/bus_width + 4` cycles ([`FSM_PIPELINE_EFFICIENCY`]);
//! * a latency ramp — one chunk's serial walk through all phases
//!   (`Σ steps × (α + message/β_link)`), the pipeline-fill cost that
//!   dominates small payloads.
//!
//! Two constants are *calibrated* against the exact executor (see the
//! `validate` binary, which regenerates the `BENCH_analytic.json` error
//! table): the SRAM residency factor and the FSM pipeline efficiency.
//! Everything else is derived from the same Table V / Table VI parameter
//! structs the simulator itself consumes. On the Fig. 9a design-space
//! grid the model lands within a few percent of the executor; expect
//! larger errors for deeply contended all-to-alls and tiny payloads
//! (latency-dominated, below the model's chunk granularity).
//!
//! An all-to-all estimate walks node 0's routes once and keeps only what
//! the model reads from them: the forwarded hops per destination, the
//! hops per link class and the egress ports crossed. That footprint
//! depends on the fabric alone, so a [`RouteMemo`] keeps it per
//! [`TopologySpec`]; the sweep runner holds one memo for all its cells,
//! and each fabric's routes are walked once per sweep.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use ace_net::{
    FaultPlan, LinkClass, LinkParams, NetworkParams, NodeId, Port, Topology, TopologySpec,
};

use crate::granularity::Granularity;
use crate::plan::{CollectivePlan, PhaseLink, PhaseSpec};
use crate::traffic;

/// Calibrated SRAM residency: the effective number of cycles one
/// SRAM-resident byte takes to produce one network byte, fitted against
/// the exact executor on the Fig. 9a grid (both tori agree within 1 %).
/// The SRAM-bound completion time is
/// `SRAM_RESIDENCY_CYCLES × bytes_sent_per_node / sram_bytes`.
pub const SRAM_RESIDENCY_CYCLES: f64 = 19_477.0;

/// Calibrated FSM pipeline efficiency: the fraction of an FSM's cycles
/// spent in dispatch (the rest waits on message arrival and SRAM-port
/// turnaround). Fitted on the Fig. 9a FSM axis.
pub const FSM_PIPELINE_EFFICIENCY: f64 = 0.75;

/// Fixed per-dispatch FSM control overhead in cycles (mirrors the ACE
/// endpoint's `fsm_cycles`: `bytes / bus_width + FSM_DISPATCH_OVERHEAD`).
pub const FSM_DISPATCH_OVERHEAD: f64 = 4.0;

/// Endpoint-side constants of the engine being modeled, in bytes per
/// cycle. Constructed by `ace-system` from the same parameter structs the
/// event-driven endpoints consume (Table VI resource splits), so the two
/// tiers cannot drift apart silently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EndpointModel {
    /// One-cycle magical endpoint: only the fabric constrains.
    Ideal,
    /// SM-driven baseline (Section III pipeline: HBM → SM drive → bus).
    Baseline {
        /// HBM communication-partition bandwidth, bytes/cycle (per
        /// direction — the read and write channels are independent).
        mem_bytes_per_cycle: f64,
        /// Aggregate SM drive bandwidth, bytes/cycle.
        drive_bytes_per_cycle: f64,
        /// NPU-AFI bus bandwidth, bytes/cycle.
        bus_bytes_per_cycle: f64,
    },
    /// The ACE engine (Section IV): DMA staging + SRAM-resident steps.
    Ace {
        /// HBM DMA carve-out, bytes/cycle (per direction).
        dma_bytes_per_cycle: f64,
        /// NPU-AFI bus bandwidth, bytes/cycle.
        bus_bytes_per_cycle: f64,
        /// Scratchpad SRAM size in bytes.
        sram_bytes: u64,
        /// Programmable FSM count.
        fsms: usize,
        /// FSM streaming bus width in bytes (64 in the paper).
        fsm_bus_bytes: u64,
    },
}

/// The analytic estimate for one collective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticEstimate {
    /// Predicted completion time in cycles.
    pub cycles: f64,
    /// Bytes each node sends to the fabric (forwarded hops included).
    pub network_bytes_per_node: f64,
    /// Per-node HBM traffic of the communication path, bytes.
    pub mem_traffic_bytes_per_node: f64,
}

impl AnalyticEstimate {
    /// Predicted achieved network bandwidth per NPU in GB/s under `net`'s
    /// clock (the Fig. 5/6 y-axis).
    pub fn gbps_per_npu(&self, net: &NetworkParams) -> f64 {
        if self.cycles <= 0.0 {
            return 0.0;
        }
        net.freq.gbps(self.network_bytes_per_node / self.cycles)
    }
}

/// Per-phase fabric footprint resolved against a concrete topology.
struct PhaseLoad {
    /// Bytes each node sends during the phase (first-hop only).
    sent_bytes: f64,
    /// Bytes each node forwards for other nodes (all-to-all multi-hop).
    forwarded_bytes: f64,
    /// Serialization bandwidth of the narrowest link the phase rides,
    /// bytes/cycle (after the 94 % efficiency derating).
    link_bytes_per_cycle: f64,
    /// Propagation latency of that link, cycles.
    link_latency_cycles: f64,
    /// Number of distinct unidirectional links per node the phase can
    /// spread over (2 for bidirectional rings, 1 for crossbar dims).
    fanout: f64,
    /// Serial steps of the phase.
    steps: f64,
}

/// The fabrics estimates have resolved, keyed by [`TopologySpec`]: each
/// fabric's built [`Topology`] and, once an all-to-all needs them, node
/// 0's routes reduced to what the model reads. Both depend on the spec
/// alone (link parameters are applied per estimate), so one memo serves
/// estimates on every fabric, from any thread, without changing a bit of
/// their results.
#[derive(Debug, Default)]
pub struct RouteMemo {
    fabrics: Mutex<HashMap<TopologySpec, Arc<Fabric>>>,
}

impl RouteMemo {
    /// An empty memo.
    pub fn new() -> RouteMemo {
        RouteMemo::default()
    }

    /// Number of fabrics held.
    pub fn len(&self) -> usize {
        self.fabrics.lock().expect("route memo lock").len()
    }

    /// Whether no fabric is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn fabric(&self, spec: TopologySpec) -> Arc<Fabric> {
        let mut fabrics = self.fabrics.lock().expect("route memo lock");
        let fabric = fabrics.entry(spec).or_insert_with(|| {
            Arc::new(Fabric {
                topo: spec.build(),
                routes: OnceLock::new(),
            })
        });
        Arc::clone(fabric)
    }
}

/// One memoized fabric. Its routes are walked on first use, so fabrics
/// that only ever see ring collectives never walk them.
#[derive(Debug)]
struct Fabric {
    topo: Box<dyn Topology>,
    routes: OnceLock<RouteFootprint>,
}

impl Fabric {
    fn routes(&self) -> &RouteFootprint {
        self.routes
            .get_or_init(|| RouteFootprint::walk(self.topo.as_ref()))
    }
}

/// Node 0's all-to-all routes, reduced to what the model reads from them.
/// Topologies are vertex-transitive, so node 0 stands for every node.
#[derive(Debug)]
struct RouteFootprint {
    /// Hops beyond the first, for each destination whose route has more
    /// than one hop, in destination order.
    forwarded_hops: Vec<usize>,
    /// Hops over all routes, per link class (intra, inter).
    class_hops: [usize; 2],
    /// Live egress ports per node, per link class (intra, inter).
    class_ports: [f64; 2],
    /// Distinct egress ports the routes cross, in first-crossed order.
    egress: Vec<Port>,
}

impl RouteFootprint {
    fn walk(topo: &dyn Topology) -> RouteFootprint {
        let mut forwarded_hops = Vec::new();
        let mut class_hops = [0usize; 2];
        let mut egress: Vec<Port> = Vec::new();
        for dst in 1..topo.nodes() {
            let route = topo.route(NodeId(0), NodeId(dst));
            if route.len() > 1 {
                forwarded_hops.push(route.len() - 1);
            }
            for hop in &route {
                if let Some(class) = topo.port_class(hop.port) {
                    class_hops[class_index(class)] += 1;
                }
                if !egress.contains(&hop.port) {
                    egress.push(hop.port);
                }
            }
        }
        let mut class_ports = [0.0f64; 2];
        for idx in 0..topo.ports_per_node() {
            if let Some(class) = topo.port_class(Port::from_index(idx)) {
                class_ports[class_index(class)] += 1.0;
            }
        }
        RouteFootprint {
            forwarded_hops,
            class_hops,
            class_ports,
            egress,
        }
    }
}

fn class_index(class: LinkClass) -> usize {
    match class {
        LinkClass::IntraPackage => 0,
        LinkClass::InterPackage => 1,
    }
}

/// Estimates the completion time of `plan` with per-node `payload_bytes`
/// on the endpoint described by `endpoint`, taking the plan's fabric (its
/// topology, rebuilt from the [`TopologySpec`] to resolve per-dimension
/// link parameters, switch uplink overrides included) from `memo`. The
/// memo only saves work: the estimate is bit-identical to the one a
/// fresh memo gives.
///
/// With `faults`, the fabric is degraded: each ring/exchange phase's wire
/// rate is derated by its dimension's resolved [`FaultPlan`] slowdown
/// (worst surviving-link load over bandwidth — detour congestion
/// included), and global all-to-all phases by the fabric-wide worst-link
/// slowdown. This mirrors, in α–β form, what the exact executor
/// experiences on the same plan, so `hybrid` sweeps stay honest under
/// faults (the `validate` tier checks the bound).
pub fn estimate_collective_with_memo(
    plan: &CollectivePlan,
    net: &NetworkParams,
    payload_bytes: u64,
    endpoint: &EndpointModel,
    faults: Option<&FaultPlan>,
    memo: &RouteMemo,
) -> AnalyticEstimate {
    let fabric = memo.fabric(plan.spec());
    let topo = fabric.topo.as_ref();
    let payload = payload_bytes as f64;
    let gran = Granularity::paper_default();
    let message = gran.message_bytes as f64;

    let mut loads: Vec<PhaseLoad> = plan
        .phases()
        .iter()
        .map(|p| phase_load(p, &fabric, net, payload))
        .collect();

    // Degradation: derate each phase's wire rate by the fault plan's
    // per-dimension (or fabric-global) slowdown before the bottleneck max.
    if let Some(fp) = faults {
        for (p, load) in plan.phases().iter().zip(loads.iter_mut()) {
            let slow = match p.link {
                PhaseLink::Dim { index, .. } => fp.dim_slowdown(index as usize),
                PhaseLink::Global { .. } => fp.global_slowdown(),
            };
            load.link_bytes_per_cycle /= slow;
        }
    }

    // --- Per-link serialization ------------------------------------
    // Phases riding the same dimension (the torus all-reduce sandwich
    // reduce-scatters and all-gathers on dim 0) share its links, so byte
    // loads accumulate per (dim, direction) before dividing by the wire
    // rate. Global phases load every link class they touch.
    let mut per_dim_bytes: Vec<f64> = vec![0.0; topo.dims().len()];
    let mut t_link: f64 = 0.0;
    for (p, load) in plan.phases().iter().zip(&loads) {
        match p.link {
            PhaseLink::Dim { index, .. } => {
                let carried = (load.sent_bytes + load.forwarded_bytes) / load.fanout;
                per_dim_bytes[index as usize] += carried / load.link_bytes_per_cycle;
            }
            PhaseLink::Global { .. } => {
                let slow = faults.map_or(1.0, FaultPlan::global_slowdown);
                t_link = t_link.max(global_link_time(&fabric, net, load.sent_bytes) * slow);
            }
        }
    }
    t_link = per_dim_bytes.iter().copied().fold(t_link, f64::max);

    // --- Totals through the endpoint -------------------------------
    let sent: f64 = loads.iter().map(|l| l.sent_bytes).sum();
    let forwarded: f64 = loads.iter().map(|l| l.forwarded_bytes).sum();
    let received = sent; // every sent byte is received by a peer

    // --- Node-level engine pipes ------------------------------------
    let mem = mem_traffic(plan, payload_bytes, endpoint);
    let t_node = match *endpoint {
        EndpointModel::Ideal => 0.0,
        EndpointModel::Baseline {
            mem_bytes_per_cycle,
            drive_bytes_per_cycle,
            bus_bytes_per_cycle,
        } => {
            let t_mem_rd = mem.reads / mem_bytes_per_cycle;
            let t_mem_wr = mem.writes / mem_bytes_per_cycle;
            let t_drive = (sent + forwarded) / drive_bytes_per_cycle;
            let t_bus = (sent + forwarded + received) / bus_bytes_per_cycle;
            t_mem_rd.max(t_mem_wr).max(t_drive).max(t_bus)
        }
        EndpointModel::Ace {
            dma_bytes_per_cycle,
            bus_bytes_per_cycle,
            sram_bytes,
            fsms,
            fsm_bus_bytes,
        } => {
            // Staging: the chunk crosses HBM + bus once in, once out.
            let t_dma = payload / dma_bytes_per_cycle;
            let t_bus = 2.0 * payload / bus_bytes_per_cycle;
            // SRAM residency (Little's law on the scratchpad).
            let t_sram = SRAM_RESIDENCY_CYCLES * (sent + forwarded) / sram_bytes as f64;
            // FSM dispatch: round-robin FSM groups per phase, each
            // egress message holding an FSM for `message/width + 4`
            // cycles at the calibrated pipeline efficiency.
            let t_fsm = loads
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    let group = fsm_group_size(fsms, loads.len(), i) as f64;
                    let msgs = ((l.sent_bytes + l.forwarded_bytes) / message).ceil();
                    let per_msg = message / fsm_bus_bytes as f64 + FSM_DISPATCH_OVERHEAD;
                    msgs * per_msg / (group * FSM_PIPELINE_EFFICIENCY)
                })
                .fold(0.0, f64::max);
            t_dma.max(t_bus).max(t_sram).max(t_fsm)
        }
    };

    // --- Latency ramp -----------------------------------------------
    // One chunk's serial walk through every phase: the pipeline-fill
    // term that dominates small payloads and adds the per-step link
    // latencies for large ones.
    let t_ramp: f64 = loads
        .iter()
        .map(|l| {
            let step_bytes = if l.steps > 0.0 {
                (l.sent_bytes / l.steps).min(message).max(1.0)
            } else {
                0.0
            };
            l.steps * (l.link_latency_cycles + step_bytes / l.link_bytes_per_cycle)
        })
        .sum();

    let cycles = if payload_bytes == 0 {
        0.0
    } else {
        t_link.max(t_node) + t_ramp
    };

    AnalyticEstimate {
        cycles,
        network_bytes_per_node: sent + forwarded,
        mem_traffic_bytes_per_node: mem.total(),
    }
}

/// Endpoint HBM traffic of `plan` under `endpoint` (per node). Reuses the
/// Section VI-A closed forms.
fn mem_traffic(
    plan: &CollectivePlan,
    payload_bytes: u64,
    endpoint: &EndpointModel,
) -> traffic::MemTraffic {
    match endpoint {
        EndpointModel::Ideal => traffic::MemTraffic::default(),
        EndpointModel::Baseline { .. } => traffic::baseline_traffic(plan, payload_bytes),
        EndpointModel::Ace { .. } => traffic::ace_traffic(payload_bytes),
    }
}

/// FSM group size for `phase` when `fsms` FSMs spread round-robin over
/// `phases` phases with a floor of one (mirrors `FsmPool::new`).
fn fsm_group_size(fsms: usize, phases: usize, phase: usize) -> usize {
    let base = fsms / phases;
    let extra = fsms % phases;
    (base + usize::from(phase < extra)).max(1)
}

/// Resolves one phase's byte load and link parameters on `fabric`.
fn phase_load(phase: &PhaseSpec, fabric: &Fabric, net: &NetworkParams, payload: f64) -> PhaseLoad {
    let topo = fabric.topo.as_ref();
    let sent = phase.send_fraction() * payload;
    match phase.link {
        PhaseLink::Dim { index, .. } => {
            let info = topo.dims()[index as usize];
            let params = topo
                .link_params_for(info.port_plus, net)
                .unwrap_or_else(|| class_params(net, info.class));
            // Bidirectional rings alternate chunks across the two
            // directions; crossbar-backed dims expose a single uplink.
            let fanout = if info.port_minus != info.port_plus {
                2.0
            } else {
                1.0
            };
            PhaseLoad {
                sent_bytes: sent,
                forwarded_bytes: 0.0,
                link_bytes_per_cycle: bytes_per_cycle(net, &params),
                link_latency_cycles: params.latency_cycles as f64,
                fanout,
                steps: phase.steps() as f64,
            }
        }
        PhaseLink::Global { .. } => {
            // Direct all-to-all: each destination slice travels its
            // route; hops beyond the first are forwarded by intermediate
            // endpoints. Topologies are vertex-transitive, so node 0's
            // route lengths give the fabric-wide average.
            let n = topo.nodes();
            let slice = sent / (n as f64 - 1.0).max(1.0);
            let routes = fabric.routes();
            let mut forwarded = 0.0;
            for &hops in &routes.forwarded_hops {
                forwarded += slice * hops as f64;
            }
            // The first-crossed slowest link. A port crossed again never
            // replaces it (the pick only moves on strictly slower links),
            // so each port is checked once.
            let mut worst: Option<LinkParams> = None;
            for &port in &routes.egress {
                if let Some(p) = topo.link_params_for(port, net) {
                    let replace = match &worst {
                        Some(w) => p.effective_gbps() < w.effective_gbps(),
                        None => true,
                    };
                    if replace {
                        worst = Some(p);
                    }
                }
            }
            let params = worst.unwrap_or(net.inter);
            PhaseLoad {
                sent_bytes: sent,
                forwarded_bytes: forwarded,
                link_bytes_per_cycle: bytes_per_cycle(net, &params),
                link_latency_cycles: params.latency_cycles as f64,
                fanout: 1.0,
                steps: phase.steps() as f64,
            }
        }
    }
}

/// Per-link time of a direct all-to-all under uniform traffic: total
/// link-crossings divided evenly over the fabric's live links.
fn global_link_time(fabric: &Fabric, net: &NetworkParams, sent_per_node: f64) -> f64 {
    let n = fabric.topo.nodes();
    let slice = sent_per_node / (n as f64 - 1.0).max(1.0);
    // Node 0's routes, split per link class (vertex-transitivity again).
    // Each hop adds one slice to its class, in turn: repeated addition,
    // not `hops * slice`, which would round differently.
    let routes = fabric.routes();
    let mut class_bytes = [0.0f64; 2];
    for (bytes, &hops) in class_bytes.iter_mut().zip(&routes.class_hops) {
        for _ in 0..hops {
            *bytes += slice;
        }
    }
    let mut t: f64 = 0.0;
    for (class, (&bytes, &ports)) in [LinkClass::IntraPackage, LinkClass::InterPackage]
        .iter()
        .zip(class_bytes.iter().zip(&routes.class_ports))
    {
        if bytes > 0.0 && ports > 0.0 {
            let params = class_params(net, *class);
            t = t.max(bytes / ports / bytes_per_cycle(net, &params));
        }
    }
    t
}

fn class_params(net: &NetworkParams, class: LinkClass) -> LinkParams {
    match class {
        LinkClass::IntraPackage => net.intra,
        LinkClass::InterPackage => net.inter,
    }
}

fn bytes_per_cycle(net: &NetworkParams, params: &LinkParams) -> f64 {
    net.freq.bytes_per_cycle(params.effective_gbps())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectiveOp;

    fn net() -> NetworkParams {
        NetworkParams::paper_default()
    }

    fn ace(sram_mb: u64, fsms: usize) -> EndpointModel {
        let freq = ace_simcore::npu_frequency();
        EndpointModel::Ace {
            dma_bytes_per_cycle: freq.bytes_per_cycle(128.0),
            bus_bytes_per_cycle: freq.bytes_per_cycle(500.0),
            sram_bytes: sram_mb << 20,
            fsms,
            fsm_bus_bytes: 64,
        }
    }

    /// An estimate on a fresh memo.
    fn fresh(
        plan: &CollectivePlan,
        net: &NetworkParams,
        payload: u64,
        ep: &EndpointModel,
        faults: Option<&FaultPlan>,
    ) -> AnalyticEstimate {
        estimate_collective_with_memo(plan, net, payload, ep, faults, &RouteMemo::new())
    }

    fn estimate(spec: &str, payload: u64, ep: &EndpointModel) -> AnalyticEstimate {
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec.parse().unwrap());
        fresh(&plan, &net(), payload, ep, None)
    }

    #[test]
    fn zero_payload_takes_zero_cycles() {
        let e = estimate("4x2x2", 0, &ace(4, 16));
        assert_eq!(e.cycles, 0.0);
        assert_eq!(e.network_bytes_per_node, 0.0);
    }

    #[test]
    fn monotone_in_payload() {
        let ep = ace(4, 16);
        let mut last = 0.0;
        for p in [1 << 16, 1 << 20, 16 << 20, 64 << 20] {
            let e = estimate("4x2x2", p, &ep);
            assert!(e.cycles > last, "payload {p} gave {} <= {last}", e.cycles);
            last = e.cycles;
        }
    }

    #[test]
    fn monotone_in_alpha() {
        // Raising the link latency (the α of the α–β model) can only
        // slow the estimate.
        let ep = ace(4, 16);
        let spec: TopologySpec = "4x2x2".parse().unwrap();
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
        let base = fresh(&plan, &net(), 16 << 20, &ep, None);
        let mut slow = net();
        slow.inter.latency_cycles *= 10;
        slow.intra.latency_cycles *= 10;
        let slowed = fresh(&plan, &slow, 16 << 20, &ep, None);
        assert!(slowed.cycles > base.cycles);
    }

    #[test]
    fn sram_bound_halves_with_doubled_sram() {
        // The Fig. 9a staircase: below the knee, time ∝ 1/SRAM.
        let t1 = estimate("4x2x2", 64 << 20, &ace(1, 16)).cycles;
        let t2 = estimate("4x2x2", 64 << 20, &ace(2, 16)).cycles;
        let ratio = t1 / t2;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn fig09a_design_points_match_exact_tier_shape() {
        // Spot-check the calibration against the exact executor's
        // completion cycles on the design-space grid (values from the
        // checked-in BENCH_analytic.json validation run).
        let cases = [
            ("4x2x2", 1u64, 16usize, 2_493_060.0),
            ("4x2x2", 4, 16, 662_008.0),
            ("4x2x2", 4, 4, 1_080_607.0),
            ("4x4x4", 1, 16, 2_789_147.0),
            ("4x4x4", 8, 16, 696_565.0),
        ];
        for (spec, sram, fsms, exact) in cases {
            let e = estimate(spec, 64 << 20, &ace(sram, fsms));
            let err = (e.cycles - exact).abs() / exact;
            assert!(
                err < 0.10,
                "{spec} sram={sram} fsms={fsms}: analytic {} vs exact {exact} ({:.1}% off)",
                e.cycles,
                err * 100.0
            );
        }
    }

    #[test]
    fn baseline_scales_with_memory_bandwidth() {
        let freq = ace_simcore::npu_frequency();
        let mk = |gbps: f64| EndpointModel::Baseline {
            mem_bytes_per_cycle: freq.bytes_per_cycle(gbps),
            drive_bytes_per_cycle: 64.0 * 80.0,
            bus_bytes_per_cycle: freq.bytes_per_cycle(500.0),
        };
        let slow = estimate("4x2x2", 64 << 20, &mk(64.0)).cycles;
        let fast = estimate("4x2x2", 64 << 20, &mk(450.0)).cycles;
        assert!(slow > fast * 1.5, "64 GB/s {slow} vs 450 GB/s {fast}");
    }

    #[test]
    fn ideal_is_a_lower_bound_for_every_engine() {
        for payload in [1u64 << 20, 64 << 20] {
            for spec in ["4x2x2", "4x4x4", "switch:16", "hier:4x8"] {
                let ideal = estimate(spec, payload, &EndpointModel::Ideal).cycles;
                let a = estimate(spec, payload, &ace(4, 16)).cycles;
                assert!(ideal <= a, "{spec}/{payload}: ideal {ideal} > ace {a}");
            }
        }
    }

    #[test]
    fn all_to_all_accounts_forwarding() {
        let plan = CollectivePlan::for_spec(CollectiveOp::AllToAll, "4x4x4".parse().unwrap());
        let e = fresh(&plan, &net(), 16 << 20, &EndpointModel::Ideal, None);
        // Multi-hop XYZ routes forward through intermediate nodes, so the
        // fabric carries more than the injected bytes.
        let injected = 63.0 / 64.0 * (16 << 20) as f64;
        assert!(e.network_bytes_per_node > injected * 1.2);
    }

    #[test]
    fn degraded_estimate_is_never_faster_than_pristine() {
        let spec: TopologySpec = "4x4".parse().unwrap();
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
        let topo = spec.build();
        let ep = ace(4, 16);
        let base = fresh(&plan, &net(), 64 << 20, &ep, None);
        for faults in ["kill:1@seed:3", "kill:2@seed:3", "degrade:50:link:0-1"] {
            let fp = FaultPlan::resolve(
                topo.as_ref(),
                &net(),
                &faults.parse().unwrap(),
                &ace_net::ContentionSpec::None,
            )
            .unwrap();
            let degraded = fresh(&plan, &net(), 64 << 20, &ep, Some(&fp));
            assert!(
                degraded.cycles >= base.cycles,
                "{faults}: degraded {} < pristine {}",
                degraded.cycles,
                base.cycles
            );
            // Byte loads are a property of the plan, not the fabric.
            assert_eq!(degraded.network_bytes_per_node, base.network_bytes_per_node);
        }
        // A pristine fault plan reproduces the pristine estimate exactly.
        let fp = FaultPlan::pristine(topo.as_ref(), &net());
        let same = fresh(&plan, &net(), 64 << 20, &ep, Some(&fp));
        assert_eq!(same.cycles, base.cycles);
    }

    #[test]
    fn contention_slows_the_analytic_estimate() {
        let spec: TopologySpec = "4x4".parse().unwrap();
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
        let topo = spec.build();
        let base = fresh(&plan, &net(), 64 << 20, &EndpointModel::Ideal, None);
        let fp = FaultPlan::resolve(
            topo.as_ref(),
            &net(),
            &ace_net::FaultSpec::none(),
            &"uniform:20".parse().unwrap(),
        )
        .unwrap();
        let slowed = fresh(&plan, &net(), 64 << 20, &EndpointModel::Ideal, Some(&fp));
        assert!(slowed.cycles > base.cycles);
    }

    #[test]
    fn memoized_estimates_are_bit_identical() {
        // One memo serves every fabric below, several of them with 16
        // nodes: a footprint keyed by anything coarser than the spec
        // would reach the wrong fabric and move some estimate.
        let freq = ace_simcore::npu_frequency();
        let endpoints = [
            EndpointModel::Ideal,
            EndpointModel::Baseline {
                mem_bytes_per_cycle: freq.bytes_per_cycle(128.0),
                drive_bytes_per_cycle: 6.0 * 64.0,
                bus_bytes_per_cycle: freq.bytes_per_cycle(500.0),
            },
            ace(4, 16),
        ];
        let ops = [
            CollectiveOp::AllReduce,
            CollectiveOp::ReduceScatter,
            CollectiveOp::AllGather,
            CollectiveOp::AllToAll,
            CollectiveOp::SendRecv,
        ];
        let specs = [
            "16",
            "4x4",
            "4x2x2",
            "2x2x2x2",
            "3x5",
            "switch:16",
            "switch:16@100",
            "switch:12",
            "hier:4x4",
            "hier:2x8",
            "hier:3x5",
        ];
        let bits = |e: AnalyticEstimate| {
            [
                e.cycles.to_bits(),
                e.network_bytes_per_node.to_bits(),
                e.mem_traffic_bytes_per_node.to_bits(),
            ]
        };
        let memo = RouteMemo::new();
        for spelling in specs {
            let spec: TopologySpec = spelling.parse().unwrap();
            let n = spec.nodes() as u64;
            // A crossbar has no cable to kill, so it runs pristine only.
            let killed = FaultPlan::resolve(
                spec.build().as_ref(),
                &net(),
                &"kill:1@seed:42".parse().unwrap(),
                &ace_net::ContentionSpec::None,
            )
            .ok();
            assert_eq!(killed.is_none(), spelling.starts_with("switch"));
            for op in ops {
                let plan = CollectivePlan::for_spec(op, spec);
                for payload in [0, 1, n - 1, (16 << 20) + 3] {
                    for ep in &endpoints {
                        let case = format!("{spelling} {op} {payload} {ep:?}");
                        let memoized =
                            estimate_collective_with_memo(&plan, &net(), payload, ep, None, &memo);
                        let unmemoized = fresh(&plan, &net(), payload, ep, None);
                        assert_eq!(bits(memoized), bits(unmemoized), "{case}");
                        if let Some(fp) = &killed {
                            let memoized = estimate_collective_with_memo(
                                &plan,
                                &net(),
                                payload,
                                ep,
                                Some(fp),
                                &memo,
                            );
                            let unmemoized = fresh(&plan, &net(), payload, ep, Some(fp));
                            assert_eq!(bits(memoized), bits(unmemoized), "{case} kill:1@seed:42");
                        }
                    }
                }
            }
        }
        assert_eq!(memo.len(), specs.len());
    }

    #[test]
    fn switch_uplink_override_speeds_up_the_estimate() {
        let plain = estimate("switch:16", 64 << 20, &EndpointModel::Ideal).cycles;
        let fast = estimate("switch:16@100", 64 << 20, &EndpointModel::Ideal).cycles;
        assert!(fast < plain, "100 GB/s uplinks must beat 25 GB/s");
    }
}
