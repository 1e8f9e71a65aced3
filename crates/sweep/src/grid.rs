//! Cartesian expansion of a [`Scenario`] into run points.
//!
//! Expansion is **deterministic**: axes multiply out in declaration order
//! (topology → op → payload → engine → mem → SMs → SRAM → FSMs for
//! collective sweeps; topology → workload → config for training sweeps),
//! so the same scenario always yields the same point list — the anchor
//! for reproducible reports and the runner's determinism guarantee.
//!
//! An unset (empty) knob axis counts as one value: each engine family
//! fills it with its own Table VI value. Engine families drop the knobs
//! they do not consume when resolving to an [`EngineKind`], so the raw
//! cartesian product contains *duplicate* points (e.g. `ideal` × a
//! 10-value `mem_gbps` axis yields 10 identical points). Duplicates are
//! preserved here — one row per grid cell — and collapsed by the
//! runner's cache so each unique point simulates once.

use ace_collectives::CollectiveOp;
use ace_net::TopologySpec;
use ace_serve::ServingSpec;
use ace_system::{EngineKind, RunConditions, SystemConfig};
use ace_workloads::StragglerSpec;

use crate::scenario::{Scenario, SweepMode, WorkloadSel};

/// One cell of the expanded design-space grid. Not `Copy`: training
/// points carry a [`WorkloadSel`], which may reference a custom
/// TOML-defined model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunPoint {
    /// The fabric the point simulates.
    pub topology: TopologySpec,
    /// Fault / contention / straggler conditions applied to the run.
    /// Part of the point's identity: the same coordinates under
    /// different conditions are different cells (and different cache
    /// rows).
    pub conditions: RunConditions,
    /// Mode-specific coordinates.
    pub kind: PointKind,
}

/// Mode-specific coordinates of a [`RunPoint`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PointKind {
    /// A standalone collective.
    Collective {
        /// Resolved endpoint engine.
        engine: EngineKind,
        /// Operation issued.
        op: CollectiveOp,
        /// Per-node payload in bytes.
        payload_bytes: u64,
    },
    /// A full training loop.
    Training {
        /// Table VI configuration.
        config: SystemConfig,
        /// Workload to train.
        workload: WorkloadSel,
        /// Simulated iterations.
        iterations: u32,
        /// Fig. 12 embedding optimization.
        optimized_embedding: bool,
    },
    /// A continuous-batching serving run.
    Serving {
        /// Table VI configuration.
        config: SystemConfig,
        /// Workload whose forward pass serves requests.
        workload: WorkloadSel,
        /// Full serving parameters (arrival process, schedule, budget).
        spec: ServingSpec,
    },
}

impl RunPoint {
    /// A short human-readable label: `4x2x2 ace[dma=128,sram=4MB,fsms=16] all-reduce 64MB`.
    /// Non-pristine conditions are appended in brackets.
    pub fn label(&self) -> String {
        let mut label = self.base_label();
        if !self.conditions.is_pristine() {
            label.push_str(&format!(" [{}]", self.conditions));
        }
        label
    }

    fn base_label(&self) -> String {
        match &self.kind {
            PointKind::Collective {
                engine,
                op,
                payload_bytes,
            } => format!(
                "{} {engine} {op} {}",
                self.topology,
                crate::report::human_bytes(*payload_bytes)
            ),
            PointKind::Training {
                config,
                workload,
                iterations,
                ..
            } => format!("{} {config} {workload} x{iterations}", self.topology),
            PointKind::Serving {
                config,
                workload,
                spec,
            } => format!(
                "{} {config} {workload} {}@{}rps mb{}",
                self.topology, spec.schedule, spec.rate_rps, spec.microbatches
            ),
        }
    }
}

/// Expands `scenario` into its full cartesian point list (duplicates
/// from dropped knobs included). The scenario must be
/// [valid](Scenario::validate).
pub fn expand(scenario: &Scenario) -> Vec<RunPoint> {
    let conditions = conditions_product(scenario);
    let mut points = Vec::with_capacity(grid_len(scenario));
    match scenario.mode {
        SweepMode::Collective => {
            let engines = engine_axes(scenario);
            for &topology in &scenario.topologies {
                for &op in &scenario.ops {
                    for &payload_bytes in &scenario.payload_bytes {
                        for &engine in &engines {
                            for conditions in &conditions {
                                points.push(RunPoint {
                                    topology,
                                    conditions: conditions.clone(),
                                    kind: PointKind::Collective {
                                        engine,
                                        op,
                                        payload_bytes,
                                    },
                                });
                            }
                        }
                    }
                }
            }
        }
        SweepMode::Training => {
            for &topology in &scenario.topologies {
                for workload in &scenario.workloads {
                    for &config in &scenario.configs {
                        for conditions in &conditions {
                            points.push(RunPoint {
                                topology,
                                conditions: conditions.clone(),
                                kind: PointKind::Training {
                                    config,
                                    workload: workload.clone(),
                                    iterations: scenario.iterations,
                                    optimized_embedding: scenario.optimized_embedding,
                                },
                            });
                        }
                    }
                }
            }
        }
        SweepMode::Serving => {
            for &topology in &scenario.topologies {
                for workload in &scenario.workloads {
                    for &config in &scenario.configs {
                        for &rate in &scenario.arrival_rates {
                            for &schedule in &scenario.schedules {
                                for &microbatches in &scenario.microbatches {
                                    for conditions in &conditions {
                                        points.push(RunPoint {
                                            topology,
                                            conditions: conditions.clone(),
                                            kind: PointKind::Serving {
                                                config,
                                                workload: workload.clone(),
                                                spec: scenario.serving_spec(
                                                    rate,
                                                    schedule,
                                                    microbatches,
                                                ),
                                            },
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    points
}

/// The fault × contention × straggler product, innermost in the
/// expansion order. Collective points have no compute tasks, so the
/// straggler axis is pinned to `det` there — like an engine family
/// dropping a knob, this produces duplicate cells that the runner's
/// cache collapses, keeping the grid size the exact axis product.
pub(crate) fn conditions_product(scenario: &Scenario) -> Vec<RunConditions> {
    let mut out = Vec::with_capacity(
        scenario.faults.len() * scenario.contention.len() * scenario.stragglers.len(),
    );
    for faults in &scenario.faults {
        for contention in &scenario.contention {
            for straggler in &scenario.stragglers {
                let straggler = match scenario.mode {
                    SweepMode::Collective => StragglerSpec::default(),
                    SweepMode::Training | SweepMode::Serving => *straggler,
                };
                out.push(RunConditions {
                    faults: faults.clone(),
                    contention: *contention,
                    straggler,
                });
            }
        }
    }
    out
}

/// The size of the raw cartesian grid (including duplicate cells).
pub fn grid_len(scenario: &Scenario) -> usize {
    let conditions = scenario.faults.len() * scenario.contention.len() * scenario.stragglers.len();
    match scenario.mode {
        SweepMode::Collective => {
            scenario.topologies.len()
                * scenario.ops.len()
                * scenario.payload_bytes.len()
                * scenario.engines.len()
                * scenario.mem_gbps.len().max(1)
                * scenario.comm_sms.len().max(1)
                * scenario.sram_mb.len().max(1)
                * scenario.fsms.len().max(1)
                * conditions
        }
        SweepMode::Training => {
            scenario.topologies.len()
                * scenario.workloads.len()
                * scenario.configs.len()
                * conditions
        }
        SweepMode::Serving => {
            scenario.topologies.len()
                * scenario.workloads.len()
                * scenario.configs.len()
                * scenario.arrival_rates.len()
                * scenario.schedules.len()
                * scenario.microbatches.len()
                * conditions
        }
    }
}

/// The engine × knob product (engine → mem → SMs → SRAM → FSMs), one
/// resolved engine per cell. It sits inside the topology, op and payload
/// axes, so it is resolved once for all of them, and
/// [`Scenario::validate`] judges each engine in it.
pub(crate) fn engine_axes(scenario: &Scenario) -> Vec<EngineKind> {
    let mut engines = Vec::new();
    for &family in &scenario.engines {
        for mem in knob(&scenario.mem_gbps) {
            for sms in knob(&scenario.comm_sms) {
                for sram in knob(&scenario.sram_mb) {
                    for fsms in knob(&scenario.fsms) {
                        engines.push(family.resolve(mem, sms, sram, fsms));
                    }
                }
            }
        }
    }
    engines
}

/// A knob axis's values, or one unset value when the axis is empty.
fn knob<T: Copy>(axis: &[T]) -> impl Iterator<Item = Option<T>> + '_ {
    let unset = axis.is_empty().then_some(None);
    axis.iter().copied().map(Some).chain(unset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::EngineFamily;

    fn fig05_like() -> Scenario {
        let mut sc = Scenario::collective("fig05");
        sc.topologies = vec![
            TopologySpec::torus3(4, 2, 2).unwrap(),
            TopologySpec::torus3(4, 4, 4).unwrap(),
        ];
        sc.mem_gbps = vec![64.0, 128.0, 450.0];
        sc.comm_sms = vec![80];
        sc
    }

    #[test]
    fn expansion_count_is_axis_product() {
        let sc = fig05_like();
        let points = expand(&sc);
        // 2 topologies x 1 op x 1 payload x 3 engines x 3 mem x 1 sms x 1 sram x 1 fsm.
        assert_eq!(points.len(), 18);
        assert_eq!(points.len(), grid_len(&sc));
    }

    #[test]
    fn expansion_order_is_deterministic_and_axis_major() {
        let sc = fig05_like();
        let a = expand(&sc);
        let b = expand(&sc);
        assert_eq!(a, b);
        // First topology fills the first half.
        assert!(a[..9].iter().all(|p| p.topology.nodes() == 16));
        assert!(a[9..].iter().all(|p| p.topology.nodes() == 64));
        // Engine axis is outer to the mem axis: ideal, ideal, ideal, then baselines.
        let fams: Vec<EngineFamily> = a[..9]
            .iter()
            .map(|p| match p.kind {
                PointKind::Collective { engine, .. } => EngineFamily::of(engine),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            fams,
            vec![
                EngineFamily::Ideal,
                EngineFamily::Ideal,
                EngineFamily::Ideal,
                EngineFamily::Baseline,
                EngineFamily::Baseline,
                EngineFamily::Baseline,
                EngineFamily::Ace,
                EngineFamily::Ace,
                EngineFamily::Ace,
            ]
        );
    }

    #[test]
    fn dropped_knobs_produce_duplicate_points() {
        let sc = fig05_like();
        let points = expand(&sc);
        // The three ideal points per topology are identical cells.
        assert_eq!(points[0], points[1]);
        assert_eq!(points[1], points[2]);
        // Baseline points differ along the mem axis.
        assert_ne!(points[3], points[4]);
        // Unique count: per topology 1 ideal + 3 baseline + 3 ace = 7.
        let unique: std::collections::HashSet<_> = points.iter().collect();
        assert_eq!(unique.len(), 14);
    }

    #[test]
    fn conditions_expand_innermost_and_collective_pins_straggler() {
        let mut sc = fig05_like();
        sc.faults = vec!["none".parse().unwrap(), "kill:1@seed:42".parse().unwrap()];
        sc.stragglers = vec!["det".parse().unwrap(), "lognormal:0.2".parse().unwrap()];
        let points = expand(&sc);
        // 18 base cells x 2 faults x 1 contention x 2 stragglers.
        assert_eq!(points.len(), 72);
        assert_eq!(points.len(), grid_len(&sc));
        // Conditions are innermost; collective mode pins the straggler
        // axis to det, so adjacent straggler cells are duplicates.
        assert_eq!(points[0], points[1]);
        assert_ne!(points[0], points[2]);
        assert!(points[0].conditions.is_pristine());
        assert!(points[0].label().ends_with("64MB"), "{}", points[0].label());
        assert!(
            points[2].label().contains("kill:1"),
            "{}",
            points[2].label()
        );
    }

    #[test]
    fn training_keeps_the_straggler_axis() {
        let mut sc = Scenario::training("jitter");
        sc.stragglers = vec!["det".parse().unwrap(), "lognormal:0.2".parse().unwrap()];
        let points = expand(&sc);
        // 1 topology x 1 workload x 5 configs x 2 stragglers, all unique.
        assert_eq!(points.len(), 10);
        let unique: std::collections::HashSet<_> = points.iter().collect();
        assert_eq!(unique.len(), 10);
    }

    #[test]
    fn training_expansion() {
        use ace_workloads::BuiltinWorkload;
        let mut sc = Scenario::training("fig11");
        sc.workloads = vec![
            WorkloadSel::builtin(BuiltinWorkload::Resnet50),
            WorkloadSel::builtin(BuiltinWorkload::Gnmt),
        ];
        let points = expand(&sc);
        // 1 topology x 2 workloads x 5 configs.
        assert_eq!(points.len(), 10);
        let unique: std::collections::HashSet<_> = points.iter().collect();
        assert_eq!(unique.len(), 10);
        assert!(points[0].label().contains("resnet50"));
    }
}
