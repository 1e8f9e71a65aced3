//! Property-based tests over the simulator's core invariants.
//!
//! The container this repo builds in has no network registry, so instead
//! of `proptest` the cases are generated by a tiny deterministic
//! splitmix64 generator: same invariants, reproducible inputs.

use std::collections::{HashSet, VecDeque};

use ace_platform::collectives::{split_even, traffic, CollectiveOp, CollectivePlan, Granularity};
use ace_platform::net::{NodeId, Port, Topology, TopologySpec, Torus};
use ace_platform::simcore::{BandwidthServer, SimTime, SlotServer};
use ace_platform::system::{CollectiveRunReport, EngineKind, RunSpec, SystemConfig};

/// Pristine-fabric collective run; [`RunSpec::run`] cannot fail here.
fn run_pristine(
    topology: TopologySpec,
    engine: EngineKind,
    op: CollectiveOp,
    payload_bytes: u64,
) -> CollectiveRunReport {
    RunSpec::new(topology, engine, op, payload_bytes)
        .run()
        .expect("pristine run cannot fail")
}

/// Deterministic splitmix64 PRNG — enough structure for property-style
/// case generation without an external dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn urange(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    fn frange(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() as f64 / u64::MAX as f64) * (hi - lo)
    }
}

#[test]
fn chunking_conserves_bytes() {
    let mut rng = Rng::new(0xace1);
    for _ in 0..64 {
        let payload = rng.range(0, 100_000_000);
        let chunk_kb = rng.range(1, 512);
        let g = Granularity {
            chunk_bytes: chunk_kb * 1024,
            message_bytes: 1024,
            packet_bytes: 256,
        };
        let chunks = g.chunks(payload);
        assert_eq!(chunks.iter().sum::<u64>(), payload);
        for &c in &chunks {
            assert!(c <= g.chunk_bytes);
            assert!(c > 0);
        }
    }
}

#[test]
fn split_even_invariants() {
    let mut rng = Rng::new(0xace2);
    for _ in 0..64 {
        let total = rng.range(0, 1_000_000_000);
        let parts = rng.urange(1, 256);
        let shares = split_even(total, parts);
        assert_eq!(shares.len(), parts);
        assert_eq!(shares.iter().sum::<u64>(), total);
        let max = *shares.iter().max().unwrap();
        let min = *shares.iter().min().unwrap();
        assert!(max - min <= 1);
    }
}

#[test]
fn torus_coord_roundtrip() {
    // Node ids are dimension-0-major coordinates: taking `c_d` plus steps
    // along every dimension `d` from node 0 lands on `c0 + L0*(c1 + ...)`.
    let mut rng = Rng::new(0xace3);
    for _ in 0..64 {
        let nd = rng.urange(1, 7);
        let lens: Vec<usize> = (0..nd).map(|_| rng.urange(1, 9)).collect();
        let spec = match TopologySpec::torus(&lens) {
            Ok(s) if s.nodes() <= 1024 => s,
            _ => continue,
        };
        let torus = Torus::new(spec);
        for node in (0..torus.nodes()).map(NodeId) {
            let (mut rest, mut cur) = (node.0, NodeId(0));
            for (d, &len) in lens.iter().enumerate() {
                for _ in 0..rest % len {
                    cur = torus.neighbor(cur, d, true);
                }
                rest /= len;
            }
            assert_eq!(cur, node, "{spec}");
        }
    }
}

/// Hop distances from `src` over the fabric's point-to-point links.
fn bfs_hops(topo: &dyn Topology, src: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; topo.nodes()];
    dist[src.0] = 0;
    let mut frontier = VecDeque::from([src]);
    while let Some(node) = frontier.pop_front() {
        for p in 0..topo.ports_per_node() {
            if let Some(peer) = topo.link_peer(node, Port::from_index(p)) {
                if dist[peer.0] == usize::MAX {
                    dist[peer.0] = dist[node.0] + 1;
                    frontier.push_back(peer);
                }
            }
        }
    }
    dist
}

#[test]
fn xyz_routes_are_valid() {
    // The torus router on 1- to 6-dimension tori: every hop crosses a
    // real link, dimensions come in order, each dimension goes one way
    // round (a half-ring tie goes positive), and the route is a shortest
    // path over the links.
    let mut rng = Rng::new(0xace4);
    for _ in 0..32 {
        let spec = loop {
            let nd = rng.urange(1, 7);
            let lens: Vec<usize> = (0..nd).map(|_| rng.urange(1, 7)).collect();
            match TopologySpec::torus(&lens) {
                Ok(s) if s.nodes() <= 1024 => break s,
                _ => {}
            }
        };
        let torus = Torus::new(spec);
        let dims = torus.dims();
        let dim_of = |port: Port| {
            dims.iter()
                .position(|d| d.port_plus == port || d.port_minus == port)
                .expect("a torus port belongs to a dimension")
        };
        for _ in 0..3 {
            let src = NodeId(rng.urange(0, torus.nodes()));
            let hops = bfs_hops(&torus, src);
            for dst in (0..torus.nodes()).map(NodeId) {
                let route = torus.route(src, dst);
                assert_eq!(
                    route.len(),
                    hops[dst.0],
                    "{spec}: {src} -> {dst} is not shortest"
                );
                let mut cur = src;
                for hop in &route {
                    assert_eq!(hop.from, cur, "{spec}: disconnected route");
                    assert_eq!(torus.link_peer(hop.from, hop.port), Some(hop.to), "{spec}");
                    cur = hop.to;
                }
                assert_eq!(cur, dst, "{spec}: route ends off target");
                for w in route.windows(2) {
                    let (a, b) = (dim_of(w[0].port), dim_of(w[1].port));
                    assert!(a <= b, "{spec}: {src} -> {dst} visits dim {b} before {a}");
                    if a == b {
                        assert_eq!(w[0].port, w[1].port, "{spec}: dim {a} turns round");
                    }
                }
                for (d, info) in dims.iter().enumerate() {
                    let used: Vec<_> = route.iter().filter(|h| dim_of(h.port) == d).collect();
                    if 2 * used.len() == info.len {
                        assert_eq!(used[0].port, info.port_plus, "{spec}: tie in dim {d}");
                    }
                }
            }
        }
    }
}

#[test]
fn all_reduce_plan_conserves_data() {
    let mut rng = Rng::new(0xace5);
    for _ in 0..64 {
        let (l, v, h) = (rng.urange(1, 6), rng.urange(1, 6), rng.urange(1, 6));
        if l * v * h < 2 {
            continue;
        }
        let shape = TopologySpec::torus3(l, v, h).unwrap();
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, shape);
        // Following fractions through every phase ends at 1.0.
        let mut frac: f64 = 1.0;
        for p in plan.phases() {
            assert!((p.input_fraction - frac).abs() < 1e-9 || p.dim_index().is_some());
            frac = p.output_fraction();
        }
        assert!(
            (frac - 1.0).abs() < 1e-9,
            "all-reduce must restore the payload"
        );
        // Each ring all-reduce sends at most 2x its input; without a local
        // reduce-scatter (l = 1) two full-payload ring phases can approach
        // 4x, with one they stay under 2.5x.
        let sent = plan.bytes_sent_per_node(1_000_000) / 1_000_000.0;
        assert!(sent > 0.0);
        assert!(sent < 4.0, "sent fraction {sent}");
    }
}

#[test]
fn baseline_traffic_dominates_ace() {
    let mut rng = Rng::new(0xace6);
    for _ in 0..64 {
        let (l, v, h) = (rng.urange(2, 6), rng.urange(1, 6), rng.urange(1, 6));
        let payload = rng.range(1, 64 << 20);
        let shape = TopologySpec::torus3(l, v, h).unwrap();
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, shape);
        let base = traffic::baseline_traffic(&plan, payload);
        let ace = traffic::ace_traffic(payload);
        assert!(base.total() >= ace.total() * 0.99);
        assert!(base.reads >= 0.0);
        assert!(base.writes >= 0.0);
    }
}

#[test]
fn bandwidth_server_fifo_invariants() {
    let mut rng = Rng::new(0xace7);
    for _ in 0..64 {
        let capacity = rng.frange(1.0, 1000.0);
        let n = rng.urange(1, 50);
        let mut server = BandwidthServer::new(capacity);
        let mut last_end = SimTime::ZERO;
        let mut total = 0u64;
        for _ in 0..n {
            let at = rng.range(0, 100_000);
            let bytes = rng.range(0, 10_000);
            let g = server.request(SimTime::from_cycles(at), bytes);
            assert!(g.end >= g.start);
            if bytes > 0 {
                // FIFO: service starts no earlier than the previous end - 1
                // (rounding can overlap by at most one cycle boundary).
                assert!(
                    g.start.cycles() + 1 >= last_end.cycles(),
                    "grant at {} overlaps previous end {}",
                    g.start.cycles(),
                    last_end.cycles()
                );
                last_end = g.end;
            }
            total += bytes;
        }
        assert_eq!(server.bytes_served(), total);
    }
}

#[test]
fn slot_server_respects_parallelism() {
    let mut rng = Rng::new(0xace8);
    for _ in 0..64 {
        let k = rng.urange(1, 8);
        let n = rng.urange(1, 40);
        let mut server = SlotServer::new(k);
        let grants: Vec<_> = (0..n)
            .map(|_| server.request(SimTime::ZERO, rng.range(1, 1000)))
            .collect();
        // Instantaneous concurrency at every grant-start never exceeds k.
        for g in &grants {
            let concurrent = grants
                .iter()
                .filter(|o| o.start <= g.start && g.start < o.end)
                .count();
            assert!(concurrent <= k, "{concurrent} concurrent > {k}");
        }
    }
}

#[test]
fn collectives_complete_and_ideal_wins() {
    let mut rng = Rng::new(0xace9);
    for _ in 0..8 {
        let (l, v, h) = (rng.urange(2, 5), rng.urange(1, 3), rng.urange(1, 3));
        let payload = rng.range(64, 2048) * 1024;
        let shape = TopologySpec::torus3(l, v, h).unwrap();
        let ideal = run_pristine(shape, EngineKind::Ideal, CollectiveOp::AllReduce, payload);
        let ace = run_pristine(
            shape,
            SystemConfig::Ace.engine(),
            CollectiveOp::AllReduce,
            payload,
        );
        let base = run_pristine(
            shape,
            SystemConfig::BaselineCommOpt.engine(),
            CollectiveOp::AllReduce,
            payload,
        );
        assert!(ideal.completion.cycles() > 0);
        // Ideal is an upper bound modulo small injection-pacing noise.
        assert!(ace.completion.cycles() as f64 >= ideal.completion.cycles() as f64 * 0.9);
        assert!(base.completion.cycles() as f64 >= ideal.completion.cycles() as f64 * 0.9);
    }
}

// ---------------------------------------------------------------------
// Topology-abstraction properties: the same invariants must hold for
// every TopologySpec family (tori of any dimension, switches,
// hierarchical fabrics), not just the paper's 3-dim torus.
// ---------------------------------------------------------------------

/// Draws a valid topology from all three families.
fn random_spec(rng: &mut Rng) -> TopologySpec {
    loop {
        let spec = match rng.range(0, 4) {
            0 => {
                let (l, v, h) = (rng.urange(1, 5), rng.urange(1, 5), rng.urange(1, 5));
                TopologySpec::torus3(l, v, h)
            }
            1 => {
                let nd = rng.urange(1, 5);
                let lens: Vec<usize> = (0..nd).map(|_| rng.urange(1, 5)).collect();
                TopologySpec::torus(&lens)
            }
            2 => TopologySpec::switch(rng.urange(2, 33)),
            _ => TopologySpec::hierarchical(rng.urange(1, 9), rng.urange(1, 9)),
        };
        if let Ok(spec) = spec {
            return spec;
        }
    }
}

#[test]
fn routes_terminate_at_their_destination_on_every_topology() {
    let mut rng = Rng::new(0xace10);
    for _ in 0..48 {
        let spec = random_spec(&mut rng);
        let topo = spec.build();
        let n = topo.nodes();
        for _ in 0..8 {
            let src = NodeId(rng.urange(0, n));
            let dst = NodeId(rng.urange(0, n));
            let route = topo.route(src, dst);
            if src == dst {
                assert!(route.is_empty(), "{spec}: self-route must be empty");
                continue;
            }
            assert_eq!(route.first().unwrap().from, src, "{spec}");
            assert_eq!(route.last().unwrap().to, dst, "{spec}");
            let mut cur = src;
            for hop in &route {
                assert_eq!(hop.from, cur, "{spec}: disconnected route");
                assert!(
                    topo.port_class(hop.port).is_some(),
                    "{spec}: hop through dead port {}",
                    hop.port
                );
                cur = hop.to;
            }
        }
    }
}

#[test]
fn torus_hop_counts_are_symmetric() {
    // Shortest-way ring routing makes distance a metric on tori:
    // |route(a, b)| == |route(b, a)| for every pair.
    let mut rng = Rng::new(0xace11);
    for _ in 0..32 {
        let spec = loop {
            let nd = rng.urange(1, 5);
            let lens: Vec<usize> = (0..nd).map(|_| rng.urange(1, 6)).collect();
            if let Ok(s) = TopologySpec::torus(&lens) {
                break s;
            }
        };
        let topo = spec.build();
        let n = topo.nodes();
        for _ in 0..12 {
            let a = NodeId(rng.urange(0, n));
            let b = NodeId(rng.urange(0, n));
            assert_eq!(
                topo.route(a, b).len(),
                topo.route(b, a).len(),
                "{spec}: asymmetric distance {a} <-> {b}"
            );
        }
    }
}

#[test]
fn ring_members_partition_the_node_set_per_dimension() {
    let mut rng = Rng::new(0xace12);
    for _ in 0..32 {
        let spec = random_spec(&mut rng);
        let topo = spec.build();
        let n = topo.nodes();
        for dim in 0..topo.dims().len() {
            let k = topo.dims()[dim].len;
            let mut covered: HashSet<usize> = HashSet::new();
            for node in 0..n {
                let members = topo.ring_members(NodeId(node), dim);
                assert_eq!(members.len(), k, "{spec} dim {dim}: ring size");
                assert_eq!(members[0], NodeId(node), "{spec}: ring starts at node");
                let set: HashSet<usize> = members.iter().map(|m| m.0).collect();
                assert_eq!(set.len(), k, "{spec} dim {dim}: duplicate members");
                // Every member sees the same ring (as a set), so rings of
                // a dimension are equivalence classes partitioning nodes.
                for &m in &members {
                    let other: HashSet<usize> =
                        topo.ring_members(m, dim).iter().map(|o| o.0).collect();
                    assert_eq!(set, other, "{spec} dim {dim}: rings disagree");
                }
                covered.extend(&set);
            }
            assert_eq!(
                covered.len(),
                n,
                "{spec} dim {dim}: rings must cover all nodes"
            );
        }
    }
}

#[test]
fn plan_byte_conservation_holds_for_every_op_and_topology() {
    let mut rng = Rng::new(0xace13);
    let payload = 1u64 << 20;
    let d = payload as f64;
    for _ in 0..48 {
        let spec = random_spec(&mut rng);
        let n = spec.nodes() as f64;
        for op in [
            CollectiveOp::AllReduce,
            CollectiveOp::ReduceScatter,
            CollectiveOp::AllGather,
            CollectiveOp::AllToAll,
            CollectiveOp::SendRecv,
        ] {
            let plan = CollectivePlan::for_spec(op, spec);
            // Fractions chain exactly: each phase consumes what the
            // previous one produced.
            let mut frac = 1.0f64;
            for p in plan.phases() {
                assert!(
                    (p.input_fraction - frac).abs() < 1e-9,
                    "{spec} {op}: phase input breaks the chain"
                );
                frac = p.output_fraction();
            }
            let sent = plan.bytes_sent_per_node(payload);
            match op {
                CollectiveOp::ReduceScatter => {
                    // Every byte except the node's own 1/n share leaves.
                    assert!((frac - 1.0 / n).abs() < 1e-9, "{spec}: RS output");
                    assert!(
                        (sent - d * (1.0 - 1.0 / n)).abs() < 1e-3,
                        "{spec}: RS sent {sent}"
                    );
                }
                CollectiveOp::AllGather => {
                    assert!((frac - n).abs() < 1e-6, "{spec}: AG output");
                    assert!(
                        (sent - d * (n - 1.0)).abs() < 1e-3,
                        "{spec}: AG sent {sent}"
                    );
                }
                CollectiveOp::AllToAll => {
                    assert!(
                        (sent - d * (n - 1.0) / n).abs() < 1e-3,
                        "{spec}: A2A sent {sent}"
                    );
                }
                CollectiveOp::SendRecv => {
                    // One ring hop: every node pushes its full payload to
                    // its successor, no more and no less.
                    assert!((sent - d).abs() < 1e-3, "{spec}: send-recv sent {sent}");
                }
                CollectiveOp::AllReduce => {
                    // The payload is restored in full...
                    assert!((frac - 1.0).abs() < 1e-9, "{spec}: AR must restore payload");
                    // ...never cheaper than the bandwidth-optimal bound...
                    let optimal = 2.0 * d * (1.0 - 1.0 / n);
                    assert!(
                        sent >= optimal - 1e-3,
                        "{spec}: AR sent {sent} beats the optimum {optimal}"
                    );
                    // ...and a power-of-two switch (halving-doubling)
                    // achieves the bound exactly.
                    if matches!(spec, TopologySpec::Switch { nodes, .. }
                        if (nodes as usize).is_power_of_two())
                    {
                        assert!(
                            (sent - optimal).abs() < 1e-3,
                            "{spec}: halving-doubling must be bandwidth-optimal"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn collectives_complete_on_every_topology_family() {
    // End-to-end: the executor must drive any topology to completion,
    // not just plan over it.
    let mut rng = Rng::new(0xace14);
    for _ in 0..6 {
        let spec = random_spec(&mut rng);
        let payload = rng.range(1, 128) * 1024;
        for op in [CollectiveOp::AllReduce, CollectiveOp::AllToAll] {
            let r = run_pristine(spec, EngineKind::Ideal, op, payload);
            assert!(r.completion.cycles() > 0, "{spec}: {op} did not complete");
            assert!(r.network_bytes > 0, "{spec}: {op} moved no bytes");
            assert_eq!(r.past_schedules, 0, "{spec}: {op} scheduled into the past");
        }
    }
}
