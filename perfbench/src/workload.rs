//! The benchmark's four workloads: frozen copies of the sweep scenarios
//! under `perfbench/scenarios/`, so a later change to `examples/` cannot
//! silently change what the benchmark measures.

use std::collections::HashSet;

use ace_collectives::CollectiveOp;
use ace_sweep::{expand, Fidelity, PointKind, RunPoint, Scenario, Tier};

/// The seed used when `--seed` is omitted: the seed written in
/// `scenarios/serving_tp64.toml`, so the default run reproduces that
/// file's rows.
pub const DEFAULT_SEED: u64 = 1;

/// A seed reserved for confirming claims: never tune against it, then
/// check that a gain measured on other seeds also holds here.
pub const HELD_OUT_SEED: u64 = 1_000_003;

/// One benchmark workload.
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// The scenario TOML, embedded at compile time.
    toml: &'static str,
    /// Whether `--seed` reaches the scenario (the serving arrival seed).
    /// The other grids have no random input, so every seed runs them
    /// identically.
    seeded: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "collective-dse",
        toml: include_str!("../scenarios/collective_dse.toml"),
        seeded: false,
    },
    Workload {
        name: "training-suite",
        toml: include_str!("../scenarios/training_suite.toml"),
        seeded: false,
    },
    Workload {
        name: "serving-tp64",
        toml: include_str!("../scenarios/serving_tp64.toml"),
        seeded: true,
    },
    Workload {
        name: "analytic-scaling",
        toml: include_str!("../scenarios/analytic_scaling.toml"),
        seeded: false,
    },
];

impl Workload {
    /// Looks a workload up by its `--workload` name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Parses and validates the scenario with `seed` applied. This is the
    /// parse + validate share of set-up time.
    pub fn scenario(&self, seed: u64) -> Result<Scenario, String> {
        let mut sc = Scenario::from_toml_str(self.toml).map_err(|e| e.to_string())?;
        if self.seeded {
            sc.seed = seed;
        }
        // One simulation per worker, one worker: the serial engine users
        // run by default, measured without the OS scheduler in the way.
        sc.sim_threads = 1;
        sc.validate()?;
        Ok(sc)
    }
}

/// The execution tier every cell of `sc` runs in (the workloads use no
/// hybrid grids).
pub fn tier(sc: &Scenario) -> Tier {
    match sc.fidelity {
        Fidelity::Analytic => Tier::Analytic,
        _ => Tier::Exact,
    }
}

/// The grid's unique points in first-seen order — the cells the sweep
/// scheduler actually executes (duplicates are cache hits).
pub fn unique_points(sc: &Scenario) -> Vec<RunPoint> {
    let mut seen = HashSet::new();
    expand(sc)
        .into_iter()
        .filter(|p| seen.insert(p.clone()))
        .collect()
}

/// The cells whose α–β estimate is compared against an exact simulation.
/// Exact workloads compare every unique cell. The analytic workload has no
/// exact results of its own, so it compares a fixed, seed-independent
/// slice cheap enough to simulate: every 16 MB all-reduce on the 16-node
/// torus.
pub fn error_points(sc: &Scenario) -> Vec<RunPoint> {
    let points = unique_points(sc);
    if tier(sc) == Tier::Exact {
        return points;
    }
    points
        .into_iter()
        .filter(|p| {
            p.topology.nodes() == 16
                && matches!(
                    p.kind,
                    PointKind::Collective {
                        op: CollectiveOp::AllReduce,
                        payload_bytes,
                        ..
                    } if payload_bytes == 16 << 20
                )
        })
        .collect()
}
