//! Continuous-batching inference serving on the Program IR.
//!
//! Training sweeps answer "how fast is one iteration"; serving asks a
//! different question — "what latency do *requests* see under load". This
//! crate closes that gap on top of the existing simulator stack:
//!
//! * an **open-loop request generator** ([`ArrivalKind`]) produces
//!   deterministic arrival processes (Poisson, bursty, or replayed from a
//!   trace file) from a seed, independent of service rate;
//! * a **continuous-batching scheduler** ([`simulate`]) admits requests
//!   FIFO under a token budget, folds running requests' decode steps and
//!   newly admitted prompts into *rounds*, and lowers every round to a
//!   forward-only multi-timeline [`Program`](ace_workloads::Program) —
//!   per-microbatch stage kernels plus stage-boundary send-recv activation
//!   transfers — executed by the event-driven collective executor
//!   ([exact](ServingTier::Exact)) or the α–β critical-path walker
//!   ([analytic](ServingTier::Analytic)); round costs are memoized in a
//!   [`RoundMemo`] that simulations may share
//!   ([`simulate_with_memo`]);
//! * **latency metrics** ([`ServingOutcome`]): cycle-exact per-request
//!   TTFT and E2E, exact-order-statistic p50/p95/p99 (no interpolation),
//!   goodput, and a queue-depth time series.
//!
//! The pipeline `schedule` axis picks the round-admission policy:
//! `gpipe` drains each round completely before admitting the next
//! (barrier-synchronized), while `1f1b` injects the next round as soon as
//! stage 0 frees up (steady-state occupancy `D·M/(M+S-1)` of a round of
//! duration `D` over `M` microbatches and `S` stages), overlapping rounds
//! the way a one-forward-one-backward schedule overlaps microbatches.
//!
//! # Example
//!
//! ```
//! use ace_serve::{ArrivalKind, ServingOptions, ServingSpec, simulate};
//! use ace_system::SystemConfig;
//! use ace_workloads::Workload;
//!
//! let spec = ServingSpec {
//!     rate_rps: 500.0,
//!     requests: 16,
//!     ..ServingSpec::default()
//! };
//! let topo: ace_net::TopologySpec = "switch:16".parse().unwrap();
//! let outcome = simulate(
//!     SystemConfig::Ace,
//!     &Workload::transformer_lm(),
//!     topo,
//!     &spec,
//!     &ServingOptions::default(),
//! )
//! .unwrap();
//! assert_eq!(outcome.requests.len(), 16);
//! assert!(outcome.ttft_percentile_us(99.0) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod sim;
mod spec;

pub use arrival::{ArrivalKind, TraceRef};
pub use sim::{
    first_round_program, simulate, simulate_with_conditions, simulate_with_memo, RequestRecord,
    RoundMemo, ServingOptions, ServingOutcome, ServingTier,
};
pub use spec::ServingSpec;
