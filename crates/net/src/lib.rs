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
//! use ace_net::{Network, NetworkParams, TorusShape};
//! use ace_simcore::SimTime;
//!
//! let shape = TorusShape::new(4, 2, 2).unwrap();
//! let mut net = Network::new(shape, NetworkParams::paper_default());
//! let route = net.topology().route(0.into(), 5.into());
//! assert!(!route.is_empty());
//! let arrival = net.send_route(SimTime::ZERO, 0.into(), &route, 8 * 1024);
//! assert!(arrival.cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod link;
mod network;
mod topo;
mod topology;

pub use fault::{ContentionSpec, FaultClause, FaultError, FaultPlan, FaultSpec, FaultTarget};
pub use link::{Link, LinkClass, LinkParams, Port};
pub use network::{HopOutcome, Network, NetworkParams};
pub use topo::{
    did_you_mean, unknown_spelling, DimInfo, Hierarchical, Spelling, SpellingError, Switch,
    Topology, TopologySpec, Torus, MAX_TORUS_DIMS,
};
pub use topology::{Coord, Dim, Hop, NodeId, Route, ShapeError, TorusShape};
