//! The scenario files checked in under `examples/scenarios/` must parse,
//! validate, and expand to the grids their figures expect.

use std::path::PathBuf;

use ace_sweep::{grid_len, BaselineSpec, Scenario, SweepMode};
use ace_system::EngineKind;

fn load(name: &str) -> Scenario {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Scenario::from_toml_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn design_space_scenario_matches_fig09a_grid() {
    let sc = load("design_space.toml");
    assert_eq!(sc.mode, SweepMode::Collective);
    assert_eq!(sc.topologies.len(), 2);
    assert_eq!(sc.sram_mb, vec![1, 2, 4, 8]);
    assert_eq!(sc.fsms, vec![4, 8, 16, 20]);
    // 2 topologies x 4 SRAM x 4 FSM (x 1 everything else).
    assert_eq!(grid_len(&sc), 32);
    assert_eq!(
        sc.baseline,
        Some(BaselineSpec::Engine(EngineKind::Ace {
            dma_mem_gbps: 128.0,
            sram_mb: 4,
            fsms: 16
        }))
    );
}

#[test]
fn membw_scenario_matches_fig05_grid() {
    let sc = load("membw_sweep.toml");
    assert_eq!(sc.mode, SweepMode::Collective);
    assert_eq!(sc.mem_gbps.len(), 10);
    assert_eq!(sc.engines.len(), 3);
    // 2 topologies x 3 engines x 10 mem points.
    assert_eq!(grid_len(&sc), 60);
    assert_eq!(sc.baseline, Some(BaselineSpec::Engine(EngineKind::Ideal)));
    // The expansion dedupes to 2 x (1 ideal + 10 baseline + 10 ace).
    let points = ace_sweep::expand(&sc);
    let unique: std::collections::HashSet<_> = points.iter().collect();
    assert_eq!(unique.len(), 42);
}

#[test]
fn training_suite_scenario_parses() {
    let sc = load("training_suite.toml");
    assert_eq!(sc.mode, SweepMode::Training);
    assert_eq!(sc.configs.len(), 5);
    assert_eq!(sc.workloads.len(), 3);
    assert_eq!(grid_len(&sc), 15);
    assert_eq!(sc.iterations, 2);
}

#[test]
fn custom_workload_scenario_loads_its_model_next_to_itself() {
    // `file:` paths resolve relative to the scenario file, so this must
    // go through `from_toml_path` (the sweep CLI's entry point).
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios/custom_workload.toml");
    let sc = Scenario::from_toml_path(&path).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(sc.mode, SweepMode::Training);
    assert_eq!(sc.workloads.len(), 2);
    assert_eq!(grid_len(&sc), 16);
    let w = sc.workloads[0].instantiate(16);
    assert_eq!(w.name(), "wide-mlp");
    assert_eq!(w.layers().len(), 14, "embed + 12 blocks + head");
    assert_eq!(sc.workloads[1].to_string(), "transformer@model");
}

#[test]
fn scaling_scenario_is_analytic_and_huge() {
    let sc = load("scaling_analytic.toml");
    assert_eq!(sc.mode, SweepMode::Collective);
    assert_eq!(sc.fidelity, ace_sweep::Fidelity::Analytic);
    // 7 topologies x 2 ops x 3 payloads x 3 engines x 3 mem x 2 sms x
    // 3 sram x 2 fsms — a grid the exact tier could not sweep in CI.
    assert_eq!(grid_len(&sc), 4536);
    assert!(sc.topologies.iter().any(|t| t.nodes() == 512));
}

#[test]
fn design_space_defaults_to_exact_fidelity() {
    // The checked-in paper grids must keep regenerating through the
    // event-driven executor unless a fidelity is requested explicitly.
    for name in [
        "design_space.toml",
        "membw_sweep.toml",
        "training_suite.toml",
    ] {
        let sc = load(name);
        assert_eq!(sc.fidelity, ace_sweep::Fidelity::Exact, "{name}");
        assert!((sc.hybrid_top_pct - 10.0).abs() < 1e-12);
    }
}

#[test]
fn no_checked_in_scenario_mixes_node_counts() {
    // Training and serving rows must compare fabrics of one machine size.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        // Workload model specs ([[layer]] blocks) are not scenarios.
        if text.contains("[[layer]]") {
            continue;
        }
        let sc = Scenario::from_toml_path(&path).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(sc.node_count_warning(), None, "{}", path.display());
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} scenarios found");
}
