//! # ace-platform
//!
//! A full Rust reproduction of **"Enabling Compute-Communication Overlap in
//! Distributed Deep Learning Training Platforms"** (ACE, ISCA 2021,
//! arXiv:2007.00156).
//!
//! ACE is a dedicated collective-communication accelerator that sits at the
//! endpoint of a DL training platform, next to the Accelerator Fabric
//! Interface. It frees NPU streaming multiprocessors and memory bandwidth
//! from collective processing by caching gradients in a local SRAM, running
//! reductions on local ALUs, and forwarding multi-hop traffic without
//! bouncing through main memory.
//!
//! This crate re-exports the whole workspace as a single façade:
//!
//! * [`simcore`] — discrete-event primitives (time, events, servers, stats)
//! * [`trace`] — zero-cost instrumentation: the `Tracer` trait, the
//!   recording arena behind `--trace`, the Chrome/Perfetto exporter and
//!   the per-pipe bottleneck attribution report
//! * [`net`] — accelerator fabrics behind one `Topology` abstraction:
//!   tori of any dimension (the paper's 3D torus with XYZ routing),
//!   central crossbars, and hierarchical scale-up/scale-out fabrics
//! * [`mem`] — HBM bandwidth partitioning and the NPU-AFI bus
//! * [`compute`] — roofline NPU compute model
//! * [`collectives`] — topology-aware collective algorithms and planning
//! * [`engine`] — the ACE microarchitecture (SRAM, FSMs, ALUs, DMAs)
//! * [`endpoint`] — baseline / ACE / ideal endpoint resource pipelines
//! * [`workloads`] — the task-graph workload IR (`Program`), the
//!   builtin ResNet-50 / GNMT / DLRM / Transformer-LM layer models, and
//!   TOML-loadable custom `WorkloadSpec`s
//! * [`serve`] — continuous-batching inference serving with open-loop
//!   arrivals and exact-order-statistic latency percentiles
//! * [`system`] — the graph-scheduler training simulator, the five
//!   system configurations from Table VI, and the [`system::RunSpec`] /
//!   [`system::TrainSpec`] run entry points with first-class fault,
//!   contention, and straggler conditions
//! * [`sweep`] — declarative scenario specs and the parallel design-space
//!   sweep engine behind the `sweep` CLI
//! * [`toml`] — the std-only TOML-subset parser those specs share
//!
//! # Quickstart
//!
//! ```
//! use ace_platform::net::TopologySpec;
//! use ace_platform::system::{training_program, SystemConfig, TrainSpec};
//! use ace_platform::workloads::Workload;
//!
//! // Simulate 2 training iterations of ResNet-50 on a 16-NPU (4x2x2) torus.
//! let config = SystemConfig::Ace;
//! let program = training_program(config, &Workload::resnet50(), 2, false);
//! let report = TrainSpec::new(config, program, TopologySpec::torus3(4, 2, 2).unwrap())
//!     .run()
//!     .expect("pristine run");
//! assert!(report.iteration_time_us() > 0.0);
//! ```

pub use ace_collectives as collectives;
pub use ace_compute as compute;
pub use ace_endpoint as endpoint;
pub use ace_engine as engine;
pub use ace_mem as mem;
pub use ace_net as net;
pub use ace_serve as serve;
pub use ace_simcore as simcore;
pub use ace_sweep as sweep;
pub use ace_system as system;
pub use ace_toml as toml;
pub use ace_trace as trace;
pub use ace_workloads as workloads;
