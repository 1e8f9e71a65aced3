//! Continuous-batching inference serving on the Program IR.
//!
//! Training sweeps answer "how fast is one iteration"; serving asks a
//! different question — "what latency do *requests* see under load". This
//! crate closes that gap on top of the existing simulator stack:
//!
//! * an **open-loop request generator** ([`ArrivalKind`]) produces
//!   deterministic arrival processes (Poisson, bursty, or replayed from a
//!   trace file) from a seed, independent of service rate;
//! * a **continuous-batching scheduler** ([`simulate_with_memo`], the one
//!   serving run) admits requests FIFO under a token budget, folds running
//!   requests' decode steps and newly admitted prompts into *rounds*, and
//!   lowers every round to a forward-only multi-timeline
//!   [`Program`](ace_workloads::Program) — per-microbatch stage kernels
//!   plus stage-boundary send-recv activation transfers — that
//!   [`TrainSpec::run_in`](ace_system::TrainSpec::run_in) runs in the
//!   [`Tier`](ace_system::Tier) the simulation takes: the event-driven
//!   collective executor or the α–β critical-path walk. Round costs are
//!   memoized in a [`RoundMemo`], and α–β rounds draw fabrics from a
//!   [`RouteMemo`](ace_collectives::analytic::RouteMemo); simulations may
//!   share both;
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
//! use ace_collectives::analytic::RouteMemo;
//! use ace_serve::{simulate_with_memo, RoundMemo, ServingSpec};
//! use ace_system::{RunConditions, SystemConfig, Tier};
//! use ace_workloads::Workload;
//!
//! let spec = ServingSpec {
//!     rate_rps: 500.0,
//!     requests: 16,
//!     ..ServingSpec::default()
//! };
//! let topo: ace_net::TopologySpec = "switch:16".parse().unwrap();
//! let (rounds, routes) = (RoundMemo::new(), RouteMemo::new());
//! let serve = |tier| {
//!     simulate_with_memo(
//!         SystemConfig::Ace,
//!         &Workload::transformer_lm(),
//!         topo,
//!         &spec,
//!         &RunConditions::default(),
//!         tier,
//!         &rounds,
//!         &routes,
//!     )
//!     .unwrap()
//! };
//! let (exact, analytic) = (serve(Tier::Exact), serve(Tier::Analytic));
//! assert_eq!(exact.requests.len(), 16);
//! assert!(exact.ttft_percentile_us(99.0) > 0.0);
//! assert_eq!(analytic.requests.len(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod sim;
mod spec;

pub use arrival::{ArrivalKind, TraceRef};
pub use sim::{
    first_round_program, simulate_with_conditions, simulate_with_memo, RequestRecord, RoundMemo,
    ServingOptions, ServingOutcome,
};
pub use spec::ServingSpec;

/// The tier of [`ServingOptions`], under the name the benchmark harness
/// (`perfbench/`) imports. Kept only for that harness.
pub use ace_system::Tier as ServingTier;
