//! Topology-aware collective communication algorithms.
//!
//! Distributed DNN training exchanges gradients and activations through
//! four collective operations (paper Fig. 3): reduce-scatter, all-gather,
//! all-reduce, and all-to-all. On the paper's `LxVxH` torus platforms the
//! all-reduce is *hierarchical and multi-phase* (Section V): a
//! reduce-scatter on the high-bandwidth intra-package (local) ring, a ring
//! all-reduce on the vertical ring, a ring all-reduce on the horizontal
//! ring, and finally an all-gather back on the local ring. All-to-all is
//! *direct*: every NPU sends a distinct slice to every other NPU over XYZ
//! routes.
//!
//! This crate provides:
//!
//! * [`CollectiveOp`] / [`CollectivePlan`] / [`PhaseSpec`] — the logical
//!   algorithm plans executed by the endpoint engines,
//! * [`Granularity`] and [`split_even`] — the payload → chunk → message →
//!   packet decomposition of Table III,
//! * [`traffic`] — the closed-form endpoint memory-traffic model of
//!   Section VI-A (baseline reads 1.5 N bytes per N network bytes; ACE
//!   sends 2.25 N per N cached on a 4×4×4 torus).
//!
//! # Example
//!
//! ```
//! use ace_collectives::{CollectiveOp, CollectivePlan};
//! use ace_net::TopologySpec;
//!
//! let spec = TopologySpec::torus3(4, 4, 4).unwrap();
//! let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
//! assert_eq!(plan.phases().len(), 4); // RS-local, AR-vert, AR-horiz, AG-local
//! // Per byte cached, 2.25 bytes hit the network (Section VI-A).
//! let sent = plan.bytes_sent_per_node(1_000_000);
//! assert!((sent - 2_250_000.0).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
mod granularity;
mod plan;
pub mod traffic;

pub use analytic::{estimate_collective_with_memo, AnalyticEstimate, EndpointModel, RouteMemo};
pub use granularity::{split_even, Granularity};
pub use plan::{CollectiveOp, CollectivePlan, PhaseKind, PhaseLink, PhaseSpec};
