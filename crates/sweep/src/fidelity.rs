//! Fidelity tiers: exact event-driven simulation, the closed-form α–β
//! estimator, and the hybrid prefilter that combines them.
//!
//! A sweep runs at one of three fidelities:
//!
//! * **exact** — every grid cell goes through the event-driven executor
//!   (the historical behavior, still the default);
//! * **analytic** — every cell is estimated by the α–β model
//!   ([`ace_collectives::analytic`]), opening grids 1–2 orders of
//!   magnitude larger than the executor can sweep;
//! * **hybrid** — the whole grid is triaged analytically, then only the
//!   *interesting* cells re-run through the exact executor: the
//!   analytic Pareto frontier of each cell group (cheapest
//!   configuration per achieved time) plus a configurable top-K % of
//!   fastest cells per group, plus the scenario baseline. Everything
//!   else keeps its analytic estimate, flagged per row in the
//!   `fidelity` report column.
//!
//! Cache entries are keyed by `(tier, point)` — see [`Tier`] — so an
//! analytic row can never be served where an exact result is expected,
//! in memory or in a persisted cache file.

use std::fmt;
use std::str::FromStr;

use ace_system::EngineKind;

use crate::grid::{PointKind, RunPoint};
use crate::runner::Metrics;

/// Which simulation tier a sweep (or a cached row) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Event-driven simulation for every cell.
    #[default]
    Exact,
    /// Closed-form α–β estimation for every cell.
    Analytic,
    /// Analytic triage + exact re-simulation of the Pareto frontier and
    /// the top-K % fastest cells per group.
    Hybrid,
}

impl Fidelity {
    /// All fidelities, for help text.
    pub const ALL: [Fidelity; 3] = [Fidelity::Exact, Fidelity::Analytic, Fidelity::Hybrid];

    /// The scenario-file / CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::Exact => "exact",
            Fidelity::Analytic => "analytic",
            Fidelity::Hybrid => "hybrid",
        }
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Fidelity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        Fidelity::ALL
            .into_iter()
            .find(|f| f.name() == lower)
            .ok_or_else(|| {
                let names: Vec<&str> = Fidelity::ALL.iter().map(|f| f.name()).collect();
                let hint = ace_toml::did_you_mean(&lower, &names);
                format!(
                    "unknown fidelity '{s}' (expected one of {}){hint}",
                    names.join(", ")
                )
            })
    }
}

/// The tier a concrete result belongs to. [`Fidelity::Hybrid`] is a
/// *sweep* strategy, not a result kind: every row it produces is either
/// exact or analytic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Tier {
    /// Produced by the event-driven executor.
    #[default]
    Exact,
    /// Produced by the α–β estimator.
    Analytic,
}

impl Tier {
    /// The cache-file / report-column spelling.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Exact => "exact",
            Tier::Analytic => "analytic",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Tier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(Tier::Exact),
            "analytic" => Ok(Tier::Analytic),
            other => Err(format!("unknown result tier '{other}'")),
        }
    }
}

/// The group a grid cell competes in for hybrid selection: cells are
/// only compared against cells sweeping the *same* collective (or
/// workload) on the same fabric — comparing an all-gather against an
/// all-reduce would be meaningless.
fn selection_group(point: &RunPoint) -> (String, u8) {
    match &point.kind {
        PointKind::Collective {
            op, payload_bytes, ..
        } => (format!("{}|{op}|{payload_bytes}", point.topology), 0),
        PointKind::Training { workload, .. } => (format!("{}|{workload}", point.topology), 1),
        PointKind::Serving { workload, spec, .. } => (
            format!(
                "{}|{workload}|{}|{}",
                point.topology, spec.arrival, spec.rate_rps
            ),
            2,
        ),
    }
}

/// The resource-cost coordinates of a cell, for Pareto dominance:
/// smaller is cheaper. Engine families live in disjoint cost spaces
/// (an SRAM byte is not comparable to an SM), so the leading
/// discriminant keeps them apart. Training configs are alternatives
/// with no resource ordering: their cost vectors are all equal, which
/// makes dominance a pure time comparison (the frontier of a 1-D
/// objective is its minimum, tolerance-banded).
fn cost_axes(point: &RunPoint) -> Vec<f64> {
    match &point.kind {
        PointKind::Collective { engine, .. } => match *engine {
            EngineKind::Ideal => vec![0.0],
            EngineKind::Baseline {
                comm_mem_gbps,
                comm_sms,
            } => {
                vec![1.0, comm_mem_gbps, f64::from(comm_sms)]
            }
            EngineKind::Ace {
                dma_mem_gbps,
                sram_mb,
                fsms,
            } => vec![2.0, dma_mem_gbps, sram_mb as f64, fsms as f64],
        },
        PointKind::Training { .. } => vec![3.0],
        // Schedules and microbatch counts are alternatives, not priced
        // resources — like training configs, dominance reduces to time.
        PointKind::Serving { .. } => vec![4.0],
    }
}

/// Probe points for the sensitivity check behind tie pruning: the
/// dominating (cheaper) cell with each of its differing resource axes
/// halved once more. If the analytic model says the halved resource
/// would *not* slow the dominator down, the resource is genuinely slack
/// and the tie between dominator and dominated is trustworthy; if it
/// would, the pair sits near a bottleneck crossover where model error
/// could invert the exact ordering, so the dominated cell is
/// re-simulated anyway.
fn probe_points(dominator: &RunPoint, dominated: &RunPoint) -> Vec<RunPoint> {
    let (
        PointKind::Collective {
            engine: ej,
            op,
            payload_bytes,
        },
        PointKind::Collective { engine: ei, .. },
    ) = (&dominator.kind, &dominated.kind)
    else {
        return Vec::new();
    };
    let mut probes = Vec::new();
    // A halved knob that leaves the endpoint's range (1 SM, 1 MB or one
    // FSM halved to 0) has nothing to probe.
    let mut push = |engine: EngineKind| {
        if engine.validate().is_err() {
            return;
        }
        probes.push(RunPoint {
            topology: dominator.topology,
            conditions: dominator.conditions.clone(),
            kind: PointKind::Collective {
                engine,
                op: *op,
                payload_bytes: *payload_bytes,
            },
        });
    };
    match (*ej, *ei) {
        (
            EngineKind::Baseline {
                comm_mem_gbps: mj,
                comm_sms: sj,
            },
            EngineKind::Baseline {
                comm_mem_gbps: mi,
                comm_sms: si,
            },
        ) => {
            if mj < mi {
                push(EngineKind::Baseline {
                    comm_mem_gbps: mj / 2.0,
                    comm_sms: sj,
                });
            }
            if sj < si {
                push(EngineKind::Baseline {
                    comm_mem_gbps: mj,
                    comm_sms: sj / 2,
                });
            }
        }
        (
            EngineKind::Ace {
                dma_mem_gbps: mj,
                sram_mb: rj,
                fsms: fj,
            },
            EngineKind::Ace {
                dma_mem_gbps: mi,
                sram_mb: ri,
                fsms: fi,
            },
        ) => {
            if mj < mi {
                push(EngineKind::Ace {
                    dma_mem_gbps: mj / 2.0,
                    sram_mb: rj,
                    fsms: fj,
                });
            }
            if rj < ri {
                push(EngineKind::Ace {
                    dma_mem_gbps: mj,
                    sram_mb: rj / 2,
                    fsms: fj,
                });
            }
            if fj < fi {
                push(EngineKind::Ace {
                    dma_mem_gbps: mj,
                    sram_mb: rj,
                    fsms: fj / 2,
                });
            }
        }
        _ => {}
    }
    probes
}

/// Relative time tolerance of Pareto dominance. Design-space grids are
/// full of near-ties — once a resource stops being the bottleneck, more
/// of it moves completion time by fractions of a percent (simulator
/// pacing noise) — and a frontier that splits those hairs is not
/// reproducible across fidelity tiers. A cell is therefore dominated by
/// any strictly cheaper cell that is at least as fast *within this
/// relative tolerance*: the frontier keeps the cheapest configuration of
/// every genuinely distinct performance level.
pub const FRONTIER_TIME_TOLERANCE: f64 = 0.01;

/// Relative reaction threshold of the tie-pruning sensitivity probe: a
/// halved resource that moves the analytic estimate by more than this
/// marks the pair as sitting near a bottleneck crossover.
pub const PROBE_SLACK_TOLERANCE: f64 = 0.02;

/// Hybrid pruning margin for equal-cost cells (training configs), which
/// have no resource axis to sensitivity-probe: a cell is only left
/// analytic when some alternative is analytically faster by more than
/// this — sized to cover the training tier's worst documented model
/// error (~19 %, see `BENCH_analytic.json`), so a model-error inversion
/// cannot prune the truly fastest configuration.
pub const EQUAL_COST_PRUNE_MARGIN: f64 = 0.25;

/// Whether cost/time pair `a` dominates `b`: same cost space, no cost
/// axis worse and at least one strictly better, and at least as fast
/// within [`FRONTIER_TIME_TOLERANCE`]. Cells with *equal* costs
/// (training configs) compare on time alone: the faster one dominates
/// when it wins by more than the tolerance.
fn dominates(a: (&[f64], f64), b: (&[f64], f64)) -> bool {
    let (ca, ta) = a;
    let (cb, tb) = b;
    if ca.len() != cb.len() || ca.first() != cb.first() {
        return false;
    }
    let mut strictly = false;
    let mut equal = true;
    for (x, y) in ca.iter().zip(cb).skip(1) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
            equal = false;
        }
    }
    if equal {
        return ta < tb * (1.0 - FRONTIER_TIME_TOLERANCE);
    }
    strictly && ta <= tb * (1.0 + FRONTIER_TIME_TOLERANCE)
}

/// Pareto-frontier membership over `(point, time)` pairs: for each cell,
/// whether no other cell in the same selection group dominates it
/// (strictly cheaper on some resource axis, no axis costlier, and at
/// least as fast within [`FRONTIER_TIME_TOLERANCE`]). Deduplicated cells
/// share a verdict.
pub fn pareto_frontier(rows: &[(&RunPoint, f64)]) -> Vec<bool> {
    let costs: Vec<Vec<f64>> = rows.iter().map(|(p, _)| cost_axes(p)).collect();
    let groups: Vec<(String, u8)> = rows.iter().map(|(p, _)| selection_group(p)).collect();
    let mut on_frontier = vec![true; rows.len()];
    for i in 0..rows.len() {
        for j in 0..rows.len() {
            if i == j || groups[i] != groups[j] || rows[i].0 == rows[j].0 {
                continue;
            }
            if dominates((&costs[j], rows[j].1), (&costs[i], rows[i].1)) {
                on_frontier[i] = false;
                break;
            }
        }
    }
    on_frontier
}

/// Selects the grid indices hybrid fidelity re-simulates exactly: the
/// analytic Pareto frontier of every selection group, every dominated
/// cell whose tie fails the sensitivity probe (`probe` evaluates the
/// analytic time of an off-grid point, in the same µs unit as the
/// metrics), plus the fastest `keep_top_pct` % of each
/// group (rounded up, so every group keeps at least one cell).
/// `analytic` pairs each grid cell with its analytic metrics, in grid
/// order; the returned flags are in the same order. Deterministic: ties
/// broken by grid position.
pub fn select_exact_cells(
    analytic: &[(RunPoint, Metrics)],
    keep_top_pct: f64,
    probe: &dyn Fn(&RunPoint) -> f64,
) -> Vec<bool> {
    let rows: Vec<(&RunPoint, f64)> = analytic.iter().map(|(p, m)| (p, m.time_us)).collect();
    let costs: Vec<Vec<f64>> = rows.iter().map(|(p, _)| cost_axes(p)).collect();
    let row_groups: Vec<(String, u8)> = rows.iter().map(|(p, _)| selection_group(p)).collect();
    let mut keep = vec![true; rows.len()];
    for i in 0..rows.len() {
        let dominator = (0..rows.len()).find(|&j| {
            j != i
                && row_groups[j] == row_groups[i]
                && rows[j].0 != rows[i].0
                && dominates((&costs[j], rows[j].1), (&costs[i], rows[i].1))
        });
        let Some(j) = dominator else { continue };
        let trusted = if costs[i] == costs[j] {
            // Equal-cost cells (training configs) have no resource axis
            // to probe: the analytic *ordering* is all we have, and the
            // training tier's documented model error reaches ~19 %
            // (BENCH_analytic.json). Only trust a prune when the
            // dominator's analytic win clearly exceeds that error band —
            // closer races are re-simulated exactly.
            rows[j].1 < rows[i].1 * (1.0 - EQUAL_COST_PRUNE_MARGIN)
        } else {
            // Trust the analytic tie only if every halved-resource probe
            // of the dominator leaves its estimate unmoved — otherwise
            // the pair sits near a bottleneck crossover and gets
            // re-simulated.
            probe_points(rows[j].0, rows[i].0)
                .iter()
                .all(|p| probe(p) <= rows[j].1 * (1.0 + PROBE_SLACK_TOLERANCE))
        };
        if trusted {
            keep[i] = false;
        }
    }

    // Top-K % fastest per group (on unique cells; duplicates inherit).
    let groups = row_groups;
    let mut group_names: Vec<&(String, u8)> = Vec::new();
    for g in &groups {
        if !group_names.contains(&g) {
            group_names.push(g);
        }
    }
    for g in group_names {
        // Unique cells of the group, first occurrence wins.
        let mut members: Vec<usize> = Vec::new();
        for (i, gi) in groups.iter().enumerate() {
            if gi == g && !members.iter().any(|&m| rows[m].0 == rows[i].0) {
                members.push(i);
            }
        }
        let quota = ((members.len() as f64 * keep_top_pct / 100.0).ceil() as usize).max(1);
        members.sort_by(|&a, &b| {
            rows[a]
                .1
                .partial_cmp(&rows[b].1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for &i in members.iter().take(quota) {
            keep[i] = true;
        }
    }

    // Duplicate cells (dropped knobs) share the verdict of their first
    // occurrence, so a kept cell is kept everywhere it appears.
    for i in 0..analytic.len() {
        if keep[i] {
            let p = &analytic[i].0;
            for (j, flag) in keep.iter_mut().enumerate() {
                if analytic[j].0 == *p {
                    *flag = true;
                }
            }
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::PointKind;
    use ace_collectives::CollectiveOp;
    use ace_net::TopologySpec;

    fn ace_point(sram: u64, fsms: usize) -> RunPoint {
        RunPoint {
            topology: TopologySpec::torus3(4, 2, 2).unwrap(),
            conditions: ace_system::RunConditions::default(),
            kind: PointKind::Collective {
                engine: EngineKind::Ace {
                    dma_mem_gbps: 128.0,
                    sram_mb: sram,
                    fsms,
                },
                op: CollectiveOp::AllReduce,
                payload_bytes: 64 << 20,
            },
        }
    }

    fn metrics(time_us: f64) -> Metrics {
        Metrics {
            time_us,
            completion_cycles: (time_us * 1000.0) as u64,
            gbps_per_npu: 0.0,
            mem_traffic_bytes: 0,
            network_bytes: 0,
            compute_us: 0.0,
            exposed_comm_us: 0.0,
            past_schedules: 0,
            attribution: ace_trace::Attribution::default(),
            serving: crate::runner::ServingMetrics::default(),
        }
    }

    #[test]
    fn fidelity_parses_with_hints() {
        assert_eq!("exact".parse::<Fidelity>().unwrap(), Fidelity::Exact);
        assert_eq!("ANALYTIC".parse::<Fidelity>().unwrap(), Fidelity::Analytic);
        assert_eq!("hybrid".parse::<Fidelity>().unwrap(), Fidelity::Hybrid);
        let e = "hybird".parse::<Fidelity>().unwrap_err();
        assert!(e.contains("did you mean 'hybrid'"), "{e}");
        assert_eq!(Fidelity::default(), Fidelity::Exact);
    }

    #[test]
    fn tier_round_trips() {
        for t in [Tier::Exact, Tier::Analytic] {
            assert_eq!(t.name().parse::<Tier>().unwrap(), t);
        }
        assert!("hybrid".parse::<Tier>().is_err());
    }

    #[test]
    fn dominated_cells_leave_the_frontier() {
        // (sram, fsms, time): 4/16 fast+mid-cost, 8/16 same speed but
        // pricier (dominated), 1/4 slow but cheapest (frontier).
        let pts = [ace_point(4, 16), ace_point(8, 16), ace_point(1, 4)];
        let rows: Vec<(&RunPoint, f64)> =
            vec![(&pts[0], 100.0), (&pts[1], 100.0), (&pts[2], 500.0)];
        let front = pareto_frontier(&rows);
        assert_eq!(front, vec![true, false, true]);
    }

    #[test]
    fn frontier_ignores_cross_group_cells() {
        // Same cost/time but different payload: not comparable.
        let a = ace_point(8, 16);
        let mut b = ace_point(4, 16);
        if let PointKind::Collective { payload_bytes, .. } = &mut b.kind {
            *payload_bytes = 1 << 20;
        }
        let rows: Vec<(&RunPoint, f64)> = vec![(&a, 100.0), (&b, 10.0)];
        assert_eq!(pareto_frontier(&rows), vec![true, true]);
    }

    #[test]
    fn selection_keeps_frontier_plus_top_k() {
        let grid: Vec<(RunPoint, Metrics)> = vec![
            (ace_point(1, 4), metrics(400.0)),
            (ace_point(2, 4), metrics(200.0)),
            (ace_point(4, 4), metrics(150.0)),
            (ace_point(8, 4), metrics(149.0)),
            (ace_point(8, 20), metrics(148.0)),
        ];
        let keep = select_exact_cells(&grid, 20.0, &|_| 0.0);
        // Frontier: the staircase knees survive, but 8/4 and 8/20 are
        // near-ties of 4/4 (within the 1 % tolerance) at higher cost, so
        // they fall off. The top-20 % quota (1 cell) rescues the fastest
        // cell, 8/20.
        assert_eq!(keep, vec![true, true, true, false, true]);

        // With a dominated cell, only the quota can rescue it.
        let grid2: Vec<(RunPoint, Metrics)> = vec![
            (ace_point(4, 16), metrics(100.0)),
            (ace_point(8, 16), metrics(100.0)), // dominated by 4/16
            (ace_point(1, 4), metrics(500.0)),
        ];
        let keep2 = select_exact_cells(&grid2, 1.0, &|_| 0.0);
        assert_eq!(keep2, vec![true, false, true]);
    }

    #[test]
    fn duplicate_cells_share_their_verdict() {
        let grid: Vec<(RunPoint, Metrics)> = vec![
            (ace_point(4, 16), metrics(100.0)),
            (ace_point(4, 16), metrics(100.0)),
            (ace_point(8, 16), metrics(100.0)),
        ];
        let keep = select_exact_cells(&grid, 1.0, &|_| 0.0);
        assert_eq!(keep[0], keep[1], "duplicate cells must agree");
        assert!(!keep[2]);
    }

    #[test]
    fn selection_is_deterministic() {
        let grid: Vec<(RunPoint, Metrics)> = (0..8)
            .map(|i| (ace_point(1 << (i % 4), 4 + i), metrics(100.0 + i as f64)))
            .collect();
        let a = select_exact_cells(&grid, 25.0, &|_| 0.0);
        let b = select_exact_cells(&grid, 25.0, &|_| 0.0);
        assert_eq!(a, b);
    }
}
