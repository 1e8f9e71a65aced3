//! Declarative scenario specs and a parallel design-space sweep engine.
//!
//! The ACE paper's evaluation (Figs. 4–12, Tables III–IV) is a family of
//! sweeps over {torus shape × endpoint configuration × workload ×
//! payload size × memory-bandwidth/SM knobs}. This crate turns those
//! bespoke nested loops into data:
//!
//! * [`Scenario`] ([`scenario`]) — a declarative spec naming the axes,
//!   deserializable from a small TOML subset ([`toml`]; the build
//!   environment is std-only, so the parser is hand-rolled),
//! * [`grid`] — deterministic cartesian expansion into [`RunPoint`]s;
//!   a collective point runs an [`ace_system::EngineKind`], and knobs a
//!   scenario leaves unset take each engine family's own Table VI
//!   values from [`ace_system::SystemConfig::engine`],
//! * [`runner`] — the [`SweepRunner`]: runs a grid on scoped worker
//!   threads against a `(tier, point)` [`Cache`] and the serving
//!   round-cost memo ([`ace_serve::RoundMemo`]) its cells share, and
//!   returns results in grid order regardless of thread interleaving,
//! * [`fidelity`] — the exact, analytic and hybrid execution tiers,
//! * [`persist`] — the `--cache-file` format: load, atomic sorted save,
//!   and [`Journal`], which appends finished cells to the file,
//! * [`report`] — CSV/JSON emitters and per-axis min/mean/max speedup
//!   summaries against a named baseline config.
//!
//! # Example
//!
//! ```
//! use ace_sweep::{run_scenario, RunnerOptions, Scenario};
//!
//! let scenario = Scenario::from_toml_str(r#"
//!     name = "quick"
//!     mode = "collective"
//!     topologies = ["2x1x1"]
//!     engines = ["ideal", "baseline"]
//!     ops = ["all-reduce"]
//!     payloads = ["128KB"]
//!     mem_gbps = [450]
//!     comm_sms = [6]
//!
//!     [baseline]
//!     engine = "ideal"
//! "#).unwrap();
//! let outcome = run_scenario(&scenario, RunnerOptions::default()).unwrap();
//! assert_eq!(outcome.results.len(), 2);
//! let csv = ace_sweep::report::to_csv(&outcome);
//! assert!(csv.lines().count() == 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fidelity;
pub mod grid;
mod num;
pub mod persist;
pub mod report;
pub mod runner;
pub mod scenario;
/// The TOML-subset parser, hoisted to the `ace-toml` crate so workload
/// specs can use it without depending on the sweep engine; re-exported
/// here so `ace_sweep::toml::parse` keeps working.
pub use ace_toml as toml;

pub use fidelity::{Fidelity, Tier};
pub use grid::{expand, grid_len, PointKind, RunPoint};
pub use persist::{
    cache_from_str, cache_to_string, load_cache, save_cache, CacheFileLock, Journal, CACHE_HEADER,
};
pub use report::{
    summarize, to_csv, to_csv_with_attribution, to_json, to_json_with_attribution, AxisSummary,
};
pub use runner::{
    execute, execute_analytic, execute_tier, run_scenario, Cache, Metrics, Progress, RunResult,
    RunnerOptions, SweepOutcome, SweepRunner,
};
pub use scenario::{
    BaselineSpec, CustomWorkload, EngineFamily, Scenario, ScenarioError, SweepMode, WorkloadSel,
};
