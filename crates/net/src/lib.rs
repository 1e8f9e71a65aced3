//! Accelerator-fabric (AF) network simulator.
//!
//! Models the fabrics of the paper's target platforms behind one
//! [`Topology`] abstraction. The paper's platform (Section V) is the
//! 3D torus: each package holds `L` NPUs on an intra-package ring built
//! from silicon-interposer links, and packages are joined by vertical and
//! horizontal inter-package rings (NVLink-class links), giving every NPU
//! six unidirectional egress ports. [`TopologySpec`] also describes
//! arbitrary-dimension tori (`4x8`), central crossbars (`switch:16`,
//! optionally `switch:16@100` with a 100 GB/s uplink), and hierarchical
//! scale-up/scale-out fabrics (`hier:4x8`).
//!
//! Transfers are simulated at message granularity with per-link FIFO
//! serialization (bytes ÷ effective link bandwidth) plus a per-hop
//! propagation latency, reproducing the paper's Table V link parameters
//! (200 GB/s / 90 cycles intra-package, 25 GB/s / 500 cycles inter-package,
//! 94 % link efficiency). Multi-hop torus traffic follows XYZ routing:
//! first the local dimension, then vertical, then horizontal; crossbar
//! traffic is one hop through the source uplink.
//!
//! # Example
//!
//! ```
//! use ace_net::{Network, NetworkParams, TopologySpec};
//! use ace_simcore::SimTime;
//!
//! let spec = TopologySpec::torus3(4, 2, 2).unwrap();
//! let mut net = Network::new(spec, NetworkParams::paper_default());
//! let route = net.topology().route(0.into(), 5.into());
//! assert!(!route.is_empty());
//! // Store-and-forward: each hop leaves when the previous one lands.
//! let mut t = SimTime::ZERO;
//! for hop in &route {
//!     t = net.transmit(t, hop.from, hop.port, 8 * 1024).arrival;
//! }
//! assert!(t.cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod link;
mod network;
mod topo;

pub use fault::{ContentionSpec, FaultClause, FaultError, FaultPlan, FaultSpec, FaultTarget};
pub use link::{Link, LinkClass, LinkParams, Port};
pub use network::{HopOutcome, Network, NetworkParams, UTIL_BUCKET_CYCLES};
pub use topo::{
    did_you_mean, unknown_spelling, DimInfo, Hierarchical, Hop, NodeId, Route, ShapeError,
    Spelling, SpellingError, Switch, Topology, TopologySpec, Torus, MAX_TORUS_DIMS,
};

/// The paper's Section V `LxVxH` platform, checked through the public
/// [`Torus`] surface: node `l + L*(v + V*h)`, dimensions local, vertical
/// and horizontal in that order.
#[cfg(test)]
mod topology {
    mod tests {
        use crate::{NodeId, ShapeError, Topology, TopologySpec, Torus};

        fn torus(l: usize, v: usize, h: usize) -> Torus {
            Torus::new(TopologySpec::torus3(l, v, h).unwrap())
        }

        /// The `(l, v, h)` coordinate of `node`.
        fn coord(t: &Torus, node: NodeId) -> (usize, usize, usize) {
            let (l, v) = (t.dims()[0].len, t.dims()[1].len);
            (node.0 % l, node.0 / l % v, node.0 / (l * v))
        }

        fn node_at(t: &Torus, (l, v, h): (usize, usize, usize)) -> NodeId {
            NodeId(l + t.dims()[0].len * (v + t.dims()[1].len * h))
        }

        #[test]
        fn paper_sizes_match_section_v() {
            let sizes: Vec<usize> = [(4, 2, 2), (4, 4, 2), (4, 4, 4), (4, 8, 4)]
                .iter()
                .map(|&(l, v, h)| TopologySpec::torus3(l, v, h).unwrap().nodes())
                .collect();
            assert_eq!(sizes, vec![16, 32, 64, 128]);
        }

        #[test]
        fn coord_roundtrip() {
            // Stepping `l` times locally, `v` vertically and `h`
            // horizontally from node 0 reaches the node at `(l, v, h)`.
            let s = torus(4, 8, 4);
            for id in (0..s.nodes()).map(NodeId) {
                let (l, v, h) = coord(&s, id);
                let mut cur = NodeId(0);
                for (dim, steps) in [l, v, h].into_iter().enumerate() {
                    for _ in 0..steps {
                        cur = s.neighbor(cur, dim, true);
                    }
                }
                assert_eq!(cur, id);
                assert_eq!(node_at(&s, (l, v, h)), id);
            }
        }

        #[test]
        fn neighbor_wraps_around() {
            let s = torus(4, 2, 2);
            let n0 = NodeId(0);
            assert_eq!(s.neighbor(n0, 0, true), NodeId(1));
            assert_eq!(s.neighbor(n0, 0, false), NodeId(3));
            let last_local = NodeId(3);
            assert_eq!(s.neighbor(last_local, 0, true), NodeId(0));
        }

        #[test]
        fn neighbor_vertical_stride_is_l() {
            let s = torus(4, 4, 4);
            assert_eq!(s.neighbor(NodeId(0), 1, true), NodeId(4));
            assert_eq!(s.neighbor(NodeId(0), 2, true), NodeId(16));
        }

        #[test]
        fn ring_members_cover_dimension() {
            let s = torus(4, 8, 4);
            let ring = s.ring_members(NodeId(0), 1);
            assert_eq!(ring.len(), 8);
            // All members share l and h coordinates.
            let (l0, _, h0) = coord(&s, NodeId(0));
            for &m in &ring {
                let (l, _, h) = coord(&s, m);
                assert_eq!((l, h), (l0, h0));
            }
            // Distinct members.
            let mut sorted: Vec<usize> = ring.iter().map(|n| n.0).collect();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8);
        }

        #[test]
        fn route_is_empty_for_self() {
            let s = torus(4, 2, 2);
            assert!(s.route(NodeId(3), NodeId(3)).is_empty());
        }

        #[test]
        fn route_follows_xyz_order() {
            let s = torus(4, 4, 4);
            let src = node_at(&s, (0, 0, 0));
            let dst = node_at(&s, (2, 1, 3));
            let route = s.route(src, dst);
            // Hops must be grouped: all local, then vertical, then
            // horizontal (port 2d± belongs to dimension d).
            let dims: Vec<usize> = route.iter().map(|h| h.port.index() / 2).collect();
            assert!(dims.windows(2).all(|w| w[0] <= w[1]), "{dims:?}");
            assert!(dims.iter().take_while(|&&d| d == 0).count() >= 1);
            // Route ends at destination.
            assert_eq!(route.last().unwrap().to, dst);
            // Route is connected.
            for w in route.windows(2) {
                assert_eq!(w[0].to, w[1].from);
            }
        }

        #[test]
        fn route_takes_shorter_way() {
            let s = torus(8, 1, 1);
            // 0 -> 6 is shorter going minus (2 hops) than plus (6 hops).
            let route = s.route(NodeId(0), NodeId(6));
            assert_eq!(route.len(), 2);
            assert_eq!(route[0].port, s.dims()[0].port_minus);
        }

        #[test]
        fn route_hop_count_is_sum_of_ring_distances() {
            let s = torus(4, 8, 4);
            let src = NodeId(0);
            let dst = node_at(&s, (2, 4, 2));
            // Distances: local 2, vertical 4, horizontal 2.
            assert_eq!(s.route(src, dst).len(), 8);
        }

        #[test]
        fn total_links_counts_directions() {
            let s = torus(4, 2, 2);
            // 6 egress links per node (all three dims have size > 1).
            assert_eq!(s.total_links(), 6 * 16);
            let flat = torus(4, 1, 1);
            assert_eq!(flat.total_links(), 2 * 4);
        }

        #[test]
        fn shape_errors() {
            assert_eq!(
                TopologySpec::torus3(0, 2, 2).unwrap_err(),
                ShapeError::ZeroDimension
            );
            assert_eq!(
                TopologySpec::torus3(1, 1, 1).unwrap_err(),
                ShapeError::TooSmall
            );
            assert_eq!(
                TopologySpec::torus3(1, 1, 1).unwrap_err().to_string(),
                "must contain at least two nodes"
            );
            assert_eq!(
                TopologySpec::switch_with_gbps(16, 0).unwrap_err(),
                ShapeError::ZeroBandwidth
            );
            // Every family's spelling error names its family once, in the
            // parser's prefix, and never calls a switch or hierarchical
            // fabric a torus.
            for (spelling, message) in [
                (
                    "1x1",
                    "torus topology '1x1': must contain at least two nodes",
                ),
                ("0x2", "torus topology '0x2': dimensions must be nonzero"),
                (
                    "2x2x2x2x2x2x2",
                    "torus topology '2x2x2x2x2x2x2': needs 1..=6 dimensions, got 7",
                ),
                (
                    "switch:1",
                    "switch topology 'switch:1': must contain at least two nodes",
                ),
                (
                    "switch:0",
                    "switch topology 'switch:0': must contain at least two nodes",
                ),
                (
                    "switch:16@0",
                    "switch topology 'switch:16@0': uplink bandwidth must be nonzero GB/s",
                ),
                (
                    "hier:1x1",
                    "hierarchical topology 'hier:1x1': must contain at least two nodes",
                ),
                (
                    "hier:0x4",
                    "hierarchical topology 'hier:0x4': dimensions must be nonzero",
                ),
            ] {
                let err = spelling.parse::<TopologySpec>().unwrap_err();
                assert!(err.contains(message), "{spelling}: {err}");
                if spelling.contains(':') {
                    assert!(!err.contains("torus"), "{spelling}: {err}");
                }
            }
        }
    }
}
