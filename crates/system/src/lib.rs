//! The distributed-training system simulator (ASTRA-sim analog).
//!
//! Ties every substrate together: the 3D-torus fabric ([`ace_net`]), the
//! partitioned endpoint memory ([`ace_mem`]), the roofline NPU
//! ([`ace_compute`]), the hierarchical collective plans
//! ([`ace_collectives`]), the ACE engine ([`ace_engine`]) and the endpoint
//! pipelines ([`ace_endpoint`]) — then runs the paper's two-iteration
//! training loop with LIFO collective scheduling over them.
//!
//! * [`SystemConfig`] — the five evaluated endpoint configurations
//!   (Table VI), each naming the [`EngineKind`] both tiers build from.
//! * [`CollectiveExecutor`] — event-driven, message-granularity execution
//!   of ring and all-to-all collectives across every node.
//! * [`TrainingSim`] — runs any training [`Program`](ace_workloads::Program)
//!   in one walk of its schedule, with one compute frontier per timeline
//!   (a single NPU, or each pipeline stage): collectives are issued at
//!   their timeline's frontier and drained LIFO, compute and barrier
//!   tasks wait on their dependencies, and every cycle a frontier waits
//!   counts as exposed communication.
//! * [`RunSpec`] / [`TrainSpec`] — the one entry point per run kind:
//!   standalone collectives (the harness behind Fig. 5 and Fig. 6) and
//!   training runs ([`training_program`] lowers a workload), with
//!   optional fault/contention/straggler [`RunConditions`]. Each runs in
//!   either [`Tier`] — the executor or the α–β estimate of
//!   [`analytic`] — and returns one report type for both.
//!
//! # Example
//!
//! ```
//! use ace_net::TopologySpec;
//! use ace_system::{training_program, SystemConfig, TrainSpec};
//! use ace_workloads::Workload;
//!
//! let config = SystemConfig::Ace;
//! let program = training_program(config, &Workload::resnet50(), 2, false);
//! let report = TrainSpec::new(config, program, TopologySpec::torus3(4, 2, 2).unwrap())
//!     .run()
//!     .unwrap();
//! assert!(report.iteration_time_us() > 0.0);
//! assert!(report.total_compute_us() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
mod collective_run;
mod config;
mod executor;
#[cfg(test)]
mod one_node_tests;
mod report;
mod run;
mod training;

pub use analytic::{analytic_program_run_with_conditions, endpoint_model, AnalyticTrainingReport};
pub use collective_run::{CollectiveRunReport, EngineKind};
pub use config::SystemConfig;
pub use executor::{CollHandle, CollectiveExecutor, ExecutorOptions, SchedulingPolicy};
pub use report::IterationReport;
pub use run::{training_program, RunConditions, RunError, RunSpec, Tier, TrainSpec};
pub use training::TrainingSim;
