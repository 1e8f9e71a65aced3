//! The assembled fabric: one [`Link`] per live node egress port, with
//! message-granularity transport and utilization accounting.

use ace_simcore::{BucketCursor, Frequency, Grant, SimTime, TimeSeries};

use crate::fault::FaultPlan;
use crate::link::{Link, LinkClass, LinkParams, Port};
use crate::topo::{NodeId, Topology, TopologySpec};

/// Bucket width in cycles of the fabric's utilization series, and of the
/// training compute series that Fig. 10 plots beside it bucket for bucket
/// (the paper averages over 1 K-cycle windows).
pub const UTIL_BUCKET_CYCLES: u64 = 1000;

/// Fabric-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetworkParams {
    /// Intra-package link parameters.
    pub intra: LinkParams,
    /// Inter-package link parameters.
    pub inter: LinkParams,
    /// NPU clock used for GB/s → bytes/cycle conversion.
    pub freq: Frequency,
}

impl NetworkParams {
    /// Table V parameters at the paper's 1245 MHz clock.
    pub fn paper_default() -> NetworkParams {
        NetworkParams {
            intra: LinkParams::paper_default(LinkClass::IntraPackage),
            inter: LinkParams::paper_default(LinkClass::InterPackage),
            freq: ace_simcore::npu_frequency(),
        }
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
/// fabric-wide byte and utilization meters. The link layout comes from
/// the [`Topology`]: `links[node * ports_per_node + port.index()]`, with
/// `None` for ports the topology leaves dead (e.g. size-1 torus
/// dimensions).
///
/// The [`representative`](Network::representative) form keeps node 0's
/// links alone and stands them in for every node's.
#[derive(Debug)]
pub struct Network {
    topo: Box<dyn Topology>,
    params: NetworkParams,
    nodes: usize,
    ports_per_node: usize,
    /// Distance between consecutive nodes' slots in `links`:
    /// `ports_per_node`, or 0 in the representative form, where every
    /// node's slots are node 0's.
    node_stride: usize,
    /// How many nodes each simulated link stands for: 1, or the node
    /// count in the representative form. The meters scale node 0's
    /// integer totals by it.
    replicas: u64,
    links: Vec<Option<Link>>,
    /// Per-link bucket cursor into `util_series`: each link's grants are
    /// monotone in time, so the series write is division-free in the
    /// common same-bucket case.
    util_cursors: Vec<BucketCursor>,
    /// Bytes injected, over every node's links.
    bytes: u64,
    util_series: TimeSeries,
    active_links: usize,
}

impl Network {
    /// Builds the fabric for `spec` with `params`.
    pub fn new(spec: TopologySpec, params: NetworkParams) -> Network {
        Network::for_topology(spec.build(), params)
    }

    /// Builds the fabric around an already-constructed topology.
    pub fn for_topology(topo: Box<dyn Topology>, params: NetworkParams) -> Network {
        let nodes = topo.nodes();
        Network::with_links_for(topo, params, nodes)
    }

    /// Builds the fabric of a run in which every node sends exactly what
    /// node 0 sends, at the same instants, over its own egress links:
    /// only node 0's links exist, [`link`](Network::link) returns them
    /// for every node, and [`transmit`](Network::transmit) from any node
    /// lands on them. Link parameters depend only on the port, so every
    /// node's link would grant exactly what node 0's does. The meters
    /// report node 0's integer byte and busy-cycle totals times the node
    /// count, scaled before any division, which equals the full fabric's
    /// sums bit for bit. Faults make nodes differ and cannot be applied.
    pub fn representative(spec: TopologySpec, params: NetworkParams) -> Network {
        Network::with_links_for(spec.build(), params, 1)
    }

    /// Builds the fabric with links for the first `simulated` nodes:
    /// all of them, or node 0 standing in for the rest.
    fn with_links_for(topo: Box<dyn Topology>, params: NetworkParams, simulated: usize) -> Network {
        let nodes = topo.nodes();
        let ports_per_node = topo.ports_per_node();
        let replicas = if simulated == nodes { 1 } else { nodes };
        let mut links = Vec::with_capacity(simulated * ports_per_node);
        for _node in 0..simulated {
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
        let active_links = links.iter().filter(|l| l.is_some()).count() * replicas;
        Network {
            topo,
            params,
            nodes,
            ports_per_node,
            node_stride: if replicas == 1 { ports_per_node } else { 0 },
            replicas: replicas as u64,
            util_cursors: vec![BucketCursor::default(); links.len()],
            links,
            bytes: 0,
            util_series: TimeSeries::new(UTIL_BUCKET_CYCLES),
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

    /// The slot of `node`'s `port` in `links`, or `None` for a port past
    /// the topology's port table, whose slot would alias the next node's
    /// link.
    fn link_index(&self, node: NodeId, port: Port) -> Option<usize> {
        (port.index() < self.ports_per_node).then(|| node.index() * self.node_stride + port.index())
    }

    /// The slot of the live link at `node`/`port`.
    ///
    /// # Panics
    ///
    /// Panics if the topology wires no link there or a fault killed it.
    fn live_link_index(&self, node: NodeId, port: Port) -> usize {
        match self.link_index(node, port) {
            Some(idx) if self.links[idx].is_some() => idx,
            _ => panic!("no {port} link at {node}"),
        }
    }

    /// Immutable access to the link at `node`/`port`, if the topology
    /// wires one there.
    pub fn link(&self, node: NodeId, port: Port) -> Option<&Link> {
        self.links[self.link_index(node, port)?].as_ref()
    }

    /// Pushes `bytes` out of `node` through `port`. Returns the wire grant
    /// and downstream arrival time.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no link at that port.
    pub fn transmit(&mut self, now: SimTime, node: NodeId, port: Port, bytes: u64) -> HopOutcome {
        let idx = self.live_link_index(node, port);
        let link = self.links[idx]
            .as_mut()
            .expect("the slot holds a live link");
        let grant = link.transmit(now, bytes);
        let arrival = link.arrival(grant);
        self.bytes += bytes * self.replicas;
        self.util_series
            .add_busy_at(&mut self.util_cursors[idx], grant.start, grant.end);
        HopOutcome { grant, arrival }
    }

    /// Total bytes injected into the fabric.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Total busy cycles credited to the per-link [`BucketCursor`]
    /// meters: the sum over every transmit grant of its integer
    /// `end - start` wire occupancy, with no overlap merging. This is
    /// the fabric-side ground truth the trace layer reconciles against —
    /// a recording tracer that captures every transmit grant must sum to
    /// exactly this value.
    pub fn util_busy_total_cycles(&self) -> f64 {
        self.busy_buckets().iter().sum()
    }

    /// Per-bucket fraction of links busy (Fig. 10's network-utilization
    /// metric: the share of links scheduling a flit in a cycle).
    pub fn utilization_series(&self) -> Vec<f64> {
        let denom = self.active_links as f64 * UTIL_BUCKET_CYCLES as f64;
        self.busy_buckets()
            .iter()
            .map(|busy| (busy / denom).min(1.0))
            .collect()
    }

    /// Busy cycles per utilization bucket, summed over every node's
    /// links. Each bucket holds a whole number of cycles, so scaling
    /// node 0's buckets by the replica count is exact.
    fn busy_buckets(&self) -> Vec<f64> {
        let mut buckets = self.util_series.bucket_totals();
        if self.replicas > 1 {
            let r = self.replicas as f64;
            for b in &mut buckets {
                *b *= r;
            }
        }
        buckets
    }

    /// Applies a resolved [`FaultPlan`]: killed egress links become
    /// `None` (so any traffic still routed through them panics — a bug,
    /// since routes are re-planned around kills), and degraded links are
    /// rebuilt with their surviving bandwidth. Call once, right after
    /// construction, before any traffic.
    ///
    /// # Panics
    ///
    /// Panics on the [`representative`](Network::representative) form,
    /// whose nodes must stay identical.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        assert_eq!(
            self.replicas, 1,
            "a representative fabric cannot be faulted"
        );
        for node in 0..self.nodes {
            for p in 0..self.ports_per_node {
                let port = Port::from_index(p);
                let idx = self
                    .link_index(NodeId(node), port)
                    .expect("p is below ports_per_node");
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_net() -> Network {
        Network::new(
            TopologySpec::torus3(4, 2, 2).unwrap(),
            NetworkParams::paper_default(),
        )
    }

    /// Every egress port of the 3-dimension torus: local±, vertical±,
    /// horizontal±.
    fn torus3_ports() -> impl Iterator<Item = Port> {
        (0..6).map(Port::from_index)
    }

    #[test]
    fn per_npu_bandwidth_matches_table_v() {
        let net = small_net();
        // 2 × 200 intra + 2 × 25 vertical + 2 × 25 horizontal = 500 GB/s.
        let topo = net.topology();
        let total: f64 = (0..topo.ports_per_node())
            .filter_map(|idx| topo.link_params_for(Port::from_index(idx), net.params()))
            .map(|p| p.bandwidth_gbps)
            .sum();
        assert!((total - 500.0).abs() < 1e-9);
    }

    #[test]
    fn active_links_match_topology() {
        let net = small_net();
        assert_eq!(net.active_links(), net.topology().total_links());
        assert_eq!(net.active_links(), 6 * 16);
    }

    #[test]
    fn transmit_records_throughput() {
        let mut net = small_net();
        let out = net.transmit(SimTime::ZERO, NodeId(0), Port::from_index(0), 4096);
        assert!(out.arrival > out.grant.end);
        assert_eq!(net.total_bytes(), 4096);
    }

    #[test]
    fn multi_hop_route_arrives_later_than_single_hop() {
        let mut a = small_net();
        let mut b = small_net();
        let one_hop = a.topology().route(NodeId(0), NodeId(1));
        let long = a.topology().route(NodeId(0), NodeId(15));
        assert!(long.len() > one_hop.len());
        // Store-and-forward: each hop leaves when the previous one lands.
        let walk = |net: &mut Network, route: &[crate::Hop]| {
            route.iter().fold(SimTime::ZERO, |t, h| {
                net.transmit(t, h.from, h.port, 8192).arrival
            })
        };
        let t1 = walk(&mut a, &one_hop);
        let t2 = walk(&mut b, &long);
        assert!(t2 > t1);
    }

    #[test]
    fn contention_on_same_link_serializes() {
        let mut net = small_net();
        let p = Port::from_index(2);
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
            for port in torus3_ports() {
                net.transmit(SimTime::ZERO, NodeId(node), port, 1 << 20);
            }
        }
        for u in net.utilization_series() {
            assert!((0.0..=1.0).contains(&u));
        }
    }

    #[test]
    fn util_busy_total_matches_grant_sum() {
        // The bucket-meter total is exactly the sum of the integer wire
        // grants — the identity the trace conservation tests lean on.
        let mut net = small_net();
        let mut grant_sum = 0u64;
        for node in 0..16 {
            for port in torus3_ports() {
                for bytes in [4096u64, 64 * 1024, 1 << 20] {
                    let out = net.transmit(SimTime::ZERO, NodeId(node), port, bytes);
                    grant_sum += out.grant.service();
                }
            }
        }
        assert_eq!(net.util_busy_total_cycles(), grant_sum as f64);
    }

    #[test]
    #[should_panic(expected = "no p2 link at npu0")]
    fn missing_dimension_link_panics() {
        let mut net = Network::new(
            TopologySpec::torus3(4, 1, 1).unwrap(),
            NetworkParams::paper_default(),
        );
        net.transmit(SimTime::ZERO, NodeId(0), Port::from_index(2), 64);
    }

    #[test]
    fn ports_past_the_port_table_have_no_link() {
        use crate::fault::FaultPlan;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // `node * ports_per_node + port` for a port past the table lands
        // on the next node's link; it must name no link instead.
        for (spec, past) in [("switch:4", 1), ("4x8", 4)] {
            let spec: TopologySpec = spec.parse().unwrap();
            let params = NetworkParams::paper_default();
            let mut net = Network::new(spec, params);
            let port = Port::from_index(past);
            assert!(net.link(NodeId(0), port).is_none(), "{spec} {port}");
            let sent = catch_unwind(AssertUnwindSafe(|| {
                net.transmit(SimTime::ZERO, NodeId(0), port, 4096)
            }));
            assert!(sent.is_err(), "{spec}: transmit on {port} must panic");
            assert_eq!(net.total_bytes(), 0, "{spec}: no link carried bytes");
            let plan = FaultPlan::pristine(net.topology(), &params);
            let scale = catch_unwind(AssertUnwindSafe(|| plan.link_scale(NodeId(0), port)));
            assert!(scale.is_err(), "{spec}: link_scale on {port} must panic");
        }
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
        assert_eq!(route.len(), 1);
        let h = route[0];
        let t = net.transmit(SimTime::ZERO, h.from, h.port, 4096).arrival;
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
