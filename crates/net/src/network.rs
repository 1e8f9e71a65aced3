//! The assembled fabric: one [`Link`] per live node egress port, with
//! message-granularity transport and utilization accounting.

use ace_simcore::{BucketCursor, Frequency, Grant, RateMeter, SimTime, TimeSeries};

use crate::fault::FaultPlan;
use crate::link::{Link, LinkClass, LinkParams, Port};
use crate::topo::{Topology, TopologySpec};
use crate::topology::{NodeId, Route};

/// Fabric-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetworkParams {
    /// Intra-package link parameters.
    pub intra: LinkParams,
    /// Inter-package link parameters.
    pub inter: LinkParams,
    /// NPU clock used for GB/s → bytes/cycle conversion.
    pub freq: Frequency,
    /// Bucket width (cycles) for the utilization time series (Fig. 10 uses
    /// 1 K-cycle windows).
    pub util_bucket_cycles: u64,
}

impl NetworkParams {
    /// Table V parameters at the paper's 1245 MHz clock.
    pub fn paper_default() -> NetworkParams {
        NetworkParams {
            intra: LinkParams::paper_default(LinkClass::IntraPackage),
            inter: LinkParams::paper_default(LinkClass::InterPackage),
            freq: ace_simcore::npu_frequency(),
            util_bucket_cycles: 1000,
        }
    }

    /// Per-NPU aggregate egress bandwidth in GB/s, summed over the
    /// topology's live ports (Table V: 400 + 50 + 50 on the 3-dim torus).
    pub fn per_npu_total_gbps(&self, topo: &dyn Topology) -> f64 {
        (0..topo.ports_per_node())
            .filter_map(|idx| topo.link_params_for(Port::from_index(idx), self))
            .map(|p| p.bandwidth_gbps)
            .sum()
    }
}

/// The outcome of pushing a message across one hop.
#[derive(Debug, Clone, Copy)]
pub struct HopOutcome {
    /// Wire-occupancy grant on the egress link.
    pub grant: Grant,
    /// When the message is fully available at the downstream node.
    pub arrival: SimTime,
}

/// The accelerator-fabric network: every node's egress links plus
/// fabric-wide throughput/utilization meters. The link layout comes from
/// the [`Topology`]: `links[node * ports_per_node + port.index()]`, with
/// `None` for ports the topology leaves dead (e.g. size-1 torus
/// dimensions).
#[derive(Debug)]
pub struct Network {
    topo: Box<dyn Topology>,
    params: NetworkParams,
    nodes: usize,
    ports_per_node: usize,
    links: Vec<Option<Link>>,
    /// Per-link bucket cursor into `util_series`: each link's grants are
    /// monotone in time, so the series write is division-free in the
    /// common same-bucket case.
    util_cursors: Vec<BucketCursor>,
    meter: RateMeter,
    util_series: TimeSeries,
    active_links: usize,
}

impl Network {
    /// Builds the fabric for `spec` with `params`. Accepts anything
    /// convertible to a [`TopologySpec`] — in particular the legacy
    /// [`TorusShape`](crate::TorusShape).
    pub fn new(spec: impl Into<TopologySpec>, params: NetworkParams) -> Network {
        Network::for_topology(spec.into().build(), params)
    }

    /// Builds the fabric around an already-constructed topology.
    pub fn for_topology(topo: Box<dyn Topology>, params: NetworkParams) -> Network {
        let nodes = topo.nodes();
        let ports_per_node = topo.ports_per_node();
        let mut links = Vec::with_capacity(nodes * ports_per_node);
        for _node in 0..nodes {
            for idx in 0..ports_per_node {
                links.push(
                    topo.link_params_for(Port::from_index(idx), &params)
                        .map(|p| {
                            let class = topo
                                .port_class(Port::from_index(idx))
                                .expect("params imply a class");
                            Link::new(class, p, params.freq)
                        }),
                );
            }
        }
        let active_links = links.iter().filter(|l| l.is_some()).count();
        Network {
            topo,
            params,
            nodes,
            ports_per_node,
            util_cursors: vec![BucketCursor::default(); links.len()],
            links,
            meter: RateMeter::new(),
            util_series: TimeSeries::new(params.util_bucket_cycles),
            active_links,
        }
    }

    /// The fabric's topology.
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// The topology's identity.
    pub fn spec(&self) -> TopologySpec {
        self.topo.spec()
    }

    /// Number of NPUs in the fabric.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The fabric's configuration.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Number of live unidirectional links.
    pub fn active_links(&self) -> usize {
        self.active_links
    }

    fn link_index(&self, node: NodeId, port: Port) -> usize {
        node.index() * self.ports_per_node + port.index()
    }

    /// Immutable access to the link at `node`/`port`, if the topology
    /// wires one there.
    pub fn link(&self, node: NodeId, port: Port) -> Option<&Link> {
        self.links[self.link_index(node, port)].as_ref()
    }

    /// Pushes `bytes` out of `node` through `port`. Returns the wire grant
    /// and downstream arrival time.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no link at that port.
    pub fn transmit(&mut self, now: SimTime, node: NodeId, port: Port, bytes: u64) -> HopOutcome {
        let idx = self.link_index(node, port);
        let link = self.links[idx]
            .as_mut()
            .unwrap_or_else(|| panic!("no {port} link at {node}"));
        let grant = link.transmit(now, bytes);
        let arrival = link.arrival(grant);
        self.meter.record(grant.end, bytes);
        self.util_series
            .add_busy_at(&mut self.util_cursors[idx], grant.start, grant.end);
        HopOutcome { grant, arrival }
    }

    /// Earliest time the egress wire at `node`/`port` frees up.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no link at that port.
    pub fn next_free(&self, now: SimTime, node: NodeId, port: Port) -> SimTime {
        self.links[self.link_index(node, port)]
            .as_ref()
            .expect("link exists")
            .next_free(now)
    }

    /// Sends a message along a multi-hop route with store-and-forward at
    /// each hop, returning the final arrival time. Single-hop routes (ring
    /// collectives) degenerate to one [`transmit`](Network::transmit).
    ///
    /// This helper does not model intermediate-endpoint memory bounce; the
    /// baseline engine layers that on top by walking the route itself.
    pub fn send_route(&mut self, now: SimTime, src: NodeId, route: &Route, bytes: u64) -> SimTime {
        let mut t = now;
        let mut cur = src;
        for hop in route {
            debug_assert_eq!(hop.from, cur);
            let out = self.transmit(t, hop.from, hop.port, bytes);
            t = out.arrival;
            cur = hop.to;
        }
        t
    }

    /// Total bytes injected into the fabric.
    pub fn total_bytes(&self) -> u64 {
        self.meter.bytes()
    }

    /// Achieved fabric throughput in GB/s over the observation window,
    /// summed across all links.
    pub fn achieved_gbps(&self) -> f64 {
        self.params.freq.gbps(self.meter.rate())
    }

    /// Achieved *per-NPU* network bandwidth in GB/s — the metric on the
    /// y-axis of Fig. 5 and Fig. 6.
    pub fn achieved_gbps_per_npu(&self) -> f64 {
        self.achieved_gbps() / self.nodes as f64
    }

    /// End of the throughput observation window.
    pub fn window_end(&self) -> SimTime {
        self.meter.window_end()
    }

    /// Total busy cycles credited to the per-link [`BucketCursor`]
    /// meters: the sum over every transmit grant of its integer
    /// `end - start` wire occupancy, with no overlap merging. This is
    /// the fabric-side ground truth the trace layer reconciles against —
    /// a recording tracer that captures every transmit grant must sum to
    /// exactly this value.
    pub fn util_busy_total_cycles(&self) -> f64 {
        self.util_series.total()
    }

    /// Per-bucket fraction of links busy (Fig. 10's network-utilization
    /// metric: the share of links scheduling a flit in a cycle).
    pub fn utilization_series(&self) -> Vec<f64> {
        let denom = self.active_links as f64 * self.params.util_bucket_cycles as f64;
        self.util_series
            .bucket_totals()
            .iter()
            .map(|busy| (busy / denom).min(1.0))
            .collect()
    }

    /// Applies a resolved [`FaultPlan`]: killed egress links become
    /// `None` (so any traffic still routed through them panics — a bug,
    /// since routes are re-planned around kills), and degraded links are
    /// rebuilt with their surviving bandwidth. Call once, right after
    /// construction, before any traffic.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for node in 0..self.nodes {
            for p in 0..self.ports_per_node {
                let port = Port::from_index(p);
                let idx = self.link_index(NodeId(node), port);
                let Some(link) = self.links[idx].as_ref() else {
                    continue;
                };
                if plan.is_killed(NodeId(node), port) {
                    self.links[idx] = None;
                    self.active_links -= 1;
                    continue;
                }
                let scale = plan.link_scale(NodeId(node), port);
                if scale < 1.0 {
                    let mut params = *link.params();
                    params.bandwidth_gbps *= scale;
                    self.links[idx] = Some(Link::new(link.class(), params, self.params.freq));
                }
            }
        }
    }

    /// Mean link utilization over `[0, horizon]`.
    pub fn mean_utilization(&self, horizon: SimTime) -> f64 {
        if horizon.cycles() == 0 {
            return 0.0;
        }
        let busy: f64 = self.links.iter().flatten().map(|l| l.busy_cycles()).sum();
        (busy / (self.active_links as f64 * horizon.cycles() as f64)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Dim, TorusShape};

    fn small_net() -> Network {
        Network::new(
            TorusShape::new(4, 2, 2).unwrap(),
            NetworkParams::paper_default(),
        )
    }

    #[test]
    fn per_npu_bandwidth_matches_table_v() {
        let net = small_net();
        // 2 × 200 intra + 2 × 25 vertical + 2 × 25 horizontal = 500 GB/s.
        assert!((net.params().per_npu_total_gbps(net.topology()) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn active_links_match_topology() {
        let net = small_net();
        assert_eq!(net.active_links(), net.topology().total_links());
        assert_eq!(
            net.active_links(),
            TorusShape::new(4, 2, 2).unwrap().total_links()
        );
    }

    #[test]
    fn transmit_records_throughput() {
        let mut net = small_net();
        let out = net.transmit(SimTime::ZERO, NodeId(0), Port::new(Dim::Local, true), 4096);
        assert!(out.arrival > out.grant.end);
        assert_eq!(net.total_bytes(), 4096);
        assert!(net.achieved_gbps() > 0.0);
    }

    #[test]
    fn multi_hop_route_arrives_later_than_single_hop() {
        let mut a = small_net();
        let mut b = small_net();
        let one_hop = a.topology().route(NodeId(0), NodeId(1));
        let long = a.topology().route(NodeId(0), NodeId(15));
        assert!(long.len() > one_hop.len());
        let t1 = a.send_route(SimTime::ZERO, NodeId(0), &one_hop, 8192);
        let t2 = b.send_route(SimTime::ZERO, NodeId(0), &long, 8192);
        assert!(t2 > t1);
    }

    #[test]
    fn contention_on_same_link_serializes() {
        let mut net = small_net();
        let p = Port::new(Dim::Vertical, true);
        let first = net.transmit(SimTime::ZERO, NodeId(0), p, 64 * 1024);
        let second = net.transmit(SimTime::ZERO, NodeId(0), p, 64 * 1024);
        assert!(second.grant.start.cycles() + 1 >= first.grant.end.cycles());
        // Different node's link does not contend.
        let other = net.transmit(SimTime::ZERO, NodeId(1), p, 64 * 1024);
        assert_eq!(other.grant.start, SimTime::ZERO);
    }

    #[test]
    fn utilization_series_bounded_by_one() {
        let mut net = small_net();
        for node in 0..16 {
            for port in Port::ALL {
                net.transmit(SimTime::ZERO, NodeId(node), port, 1 << 20);
            }
        }
        for u in net.utilization_series() {
            assert!((0.0..=1.0).contains(&u));
        }
        assert!(net.mean_utilization(net.window_end()) > 0.0);
    }

    #[test]
    fn util_busy_total_matches_grant_sum() {
        // The bucket-meter total is exactly the sum of the integer wire
        // grants — the identity the trace conservation tests lean on.
        let mut net = small_net();
        let mut grant_sum = 0u64;
        for node in 0..16 {
            for port in Port::ALL {
                for bytes in [4096u64, 64 * 1024, 1 << 20] {
                    let out = net.transmit(SimTime::ZERO, NodeId(node), port, bytes);
                    grant_sum += out.grant.service();
                }
            }
        }
        assert_eq!(net.util_busy_total_cycles(), grant_sum as f64);
    }

    #[test]
    fn empty_route_arrives_instantly() {
        let mut net = small_net();
        let t = net.send_route(SimTime::from_cycles(7), NodeId(3), &Vec::new(), 4096);
        assert_eq!(t, SimTime::from_cycles(7));
        assert_eq!(net.total_bytes(), 0);
    }

    #[test]
    fn zero_horizon_utilization_is_zero() {
        let net = small_net();
        assert_eq!(net.mean_utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "no ")]
    fn missing_dimension_link_panics() {
        let mut net = Network::new(
            TorusShape::new(4, 1, 1).unwrap(),
            NetworkParams::paper_default(),
        );
        net.transmit(SimTime::ZERO, NodeId(0), Port::new(Dim::Vertical, true), 64);
    }

    #[test]
    fn switch_network_has_one_uplink_per_node() {
        let spec: TopologySpec = "switch:8@100".parse().unwrap();
        let mut net = Network::new(spec, NetworkParams::paper_default());
        assert_eq!(net.active_links(), 8);
        // The uplink runs at the overridden 100 GB/s.
        let link = net.link(NodeId(0), Port::from_index(0)).unwrap();
        assert_eq!(link.params().bandwidth_gbps, 100.0);
        // Any pair is one crossbar hop apart.
        let route = net.topology().route(NodeId(2), NodeId(7));
        let t = net.send_route(SimTime::ZERO, NodeId(2), &route, 4096);
        assert!(t.cycles() > 0);
        assert_eq!(net.total_bytes(), 4096);
    }

    #[test]
    fn fault_plan_kills_and_degrades_links() {
        use crate::fault::{ContentionSpec, FaultPlan};
        let spec: TopologySpec = "4x4".parse().unwrap();
        let topo = spec.build();
        let plan = FaultPlan::resolve(
            topo.as_ref(),
            &NetworkParams::paper_default(),
            &"kill:link:0-1+degrade:50:link:2-3".parse().unwrap(),
            &ContentionSpec::None,
        )
        .unwrap();
        let mut net = Network::new(spec, NetworkParams::paper_default());
        let before = net.active_links();
        net.apply_fault_plan(&plan);
        // One cable = two directed links gone.
        assert_eq!(net.active_links(), before - 2);
        assert!(net.link(NodeId(0), Port::from_index(0)).is_none());
        assert!(net.link(NodeId(1), Port::from_index(1)).is_none());
        // The degraded cable keeps its links at half bandwidth.
        let l = net.link(NodeId(2), Port::from_index(0)).unwrap();
        assert!((l.params().bandwidth_gbps - 100.0).abs() < 1e-9);
        // Untouched links stay pristine.
        let l = net.link(NodeId(5), Port::from_index(0)).unwrap();
        assert_eq!(l.params().bandwidth_gbps, 200.0);
    }

    #[test]
    #[should_panic(expected = "no ")]
    fn transmit_on_killed_link_panics() {
        use crate::fault::{ContentionSpec, FaultPlan};
        let spec: TopologySpec = "4x4".parse().unwrap();
        let topo = spec.build();
        let plan = FaultPlan::resolve(
            topo.as_ref(),
            &NetworkParams::paper_default(),
            &"kill:link:0-1".parse().unwrap(),
            &ContentionSpec::None,
        )
        .unwrap();
        let mut net = Network::new(spec, NetworkParams::paper_default());
        net.apply_fault_plan(&plan);
        net.transmit(SimTime::ZERO, NodeId(0), Port::from_index(0), 64);
    }

    #[test]
    fn hierarchical_network_wires_crossbar_and_ring() {
        let spec: TopologySpec = "hier:4x4".parse().unwrap();
        let net = Network::new(spec, NetworkParams::paper_default());
        // 16 uplinks + 2 ring ports per node.
        assert_eq!(net.active_links(), 16 + 32);
        assert_eq!(
            net.link(NodeId(0), Port::from_index(0)).unwrap().class(),
            LinkClass::IntraPackage
        );
        assert_eq!(
            net.link(NodeId(0), Port::from_index(1)).unwrap().class(),
            LinkClass::InterPackage
        );
    }
}
