//! Golden-trace regression tests.
//!
//! Smoke-sized versions of the Fig. 5 / Fig. 6 / Fig. 9a sweeps, plus a
//! training grid (exact and analytic tiers), a pipeline-parallel training
//! grid, a serving grid (exact and analytic tiers), an analytic-tier collective grid over every
//! fabric family, an exact-tier collective grid with killed and degraded
//! cables, two exact ACE rows whose detours queue on a small FSM pool,
//! and a hybrid grid over every engine knob (whose cache file is pinned
//! too) are run end-to-end and their CSV/JSON reports diffed
//! **byte-for-byte** against checked-in files under `tests/golden/`. The
//! collective files were captured from the simulator before the topology
//! abstraction landed, the training/serving files before the run entry
//! points were consolidated, the analytic-grid, JSON, attribution and
//! escaping files before the α–β route footprint was memoized and the
//! report writers were rewritten, the pipeline files before the
//! training simulator's one-timeline and pipeline schedule walkers were
//! merged, the exact-cabled and detour-FSM files hold the bytes the
//! simulator wrote before the executor's ring-detour and all-to-all route
//! walks were merged, and the hybrid-knob files before report and
//! cache-file rows stopped formatting integers and fixed-point numbers
//! through `core::fmt`, so these tests prove that refactors of the
//! network/collective/system/report layers do not move the paper's
//! numbers.
//!
//! To regenerate after an *intentional* simulation change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_traces
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;

use ace_platform::collectives::CollectiveOp;
use ace_platform::net::TopologySpec;
use ace_platform::sweep::{
    persist, report, run_scenario, BaselineSpec, EngineFamily, Fidelity, RunnerOptions, Scenario,
    SweepOutcome, SweepRunner,
};
use ace_platform::system::EngineKind;

/// Smoke payload: big enough to exercise chunking/pipelining, small
/// enough for debug-mode test runs.
const PAYLOAD: u64 = 4 << 20;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Compares `actual` against the checked-in golden file, or rewrites the
/// file when `GOLDEN_REGEN=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run GOLDEN_REGEN=1 cargo test --test golden_traces",
            path.display()
        )
    });
    if expected != actual {
        // Point at the first diverging line — a full dump of two CSVs is
        // unreadable in test output.
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(
                e,
                a,
                "golden {name} diverges at line {} (first diff shown)",
                i + 1
            );
        }
        assert_eq!(
            expected.lines().count(),
            actual.lines().count(),
            "golden {name}: line counts differ"
        );
        panic!("golden {name}: content differs only in trailing whitespace");
    }
}

fn torus(l: usize, v: usize, h: usize) -> TopologySpec {
    TopologySpec::torus3(l, v, h).expect("valid shape")
}

/// Fig. 5 (smoke): achieved bandwidth vs. communication memory
/// bandwidth, all three engine families on the 16-NPU torus.
fn fig05_smoke() -> Scenario {
    let mut sc = Scenario::collective("fig05-smoke");
    sc.topologies = vec![torus(4, 2, 2)];
    sc.engines = vec![
        EngineFamily::Ideal,
        EngineFamily::Baseline,
        EngineFamily::Ace,
    ];
    sc.payload_bytes = vec![PAYLOAD];
    sc.mem_gbps = vec![64.0, 128.0, 450.0];
    sc.comm_sms = vec![80];
    sc.baseline = Some(BaselineSpec::Engine(EngineKind::Ideal));
    sc
}

/// Fig. 6 (smoke): achieved bandwidth vs. SMs loaned to communication.
fn fig06_smoke() -> Scenario {
    let mut sc = Scenario::collective("fig06-smoke");
    sc.topologies = vec![torus(4, 2, 2)];
    sc.engines = vec![EngineFamily::Ideal, EngineFamily::Baseline];
    sc.payload_bytes = vec![PAYLOAD];
    sc.mem_gbps = vec![900.0];
    sc.comm_sms = vec![1, 2, 6];
    sc.baseline = Some(BaselineSpec::Engine(EngineKind::Ideal));
    sc
}

/// Fig. 9a (smoke): the ACE SRAM × FSM design space, normalized against
/// the paper's chosen 4 MB / 16 FSM point.
fn fig09a_smoke() -> Scenario {
    let mut sc = Scenario::collective("fig09a-smoke");
    sc.topologies = vec![torus(4, 2, 2)];
    sc.engines = vec![EngineFamily::Ace];
    sc.payload_bytes = vec![PAYLOAD];
    sc.mem_gbps = vec![128.0];
    sc.comm_sms = vec![6];
    sc.sram_mb = vec![1, 4];
    sc.fsms = vec![4, 16];
    sc.baseline = Some(BaselineSpec::Engine(EngineKind::Ace {
        dma_mem_gbps: 128.0,
        sram_mb: 4,
        fsms: 16,
    }));
    sc
}

/// Training (smoke): every Table VI config on a 4-NPU torus, a
/// data-parallel and a hybrid-parallel workload, pristine and contended.
fn training_smoke(fidelity: &str) -> Scenario {
    Scenario::from_toml_str(&format!(
        r#"
        name = "training-smoke"
        mode = "training"
        fidelity = "{fidelity}"
        topologies = ["2x2"]
        configs = ["NoOverlap", "CommOpt", "CompOpt", "ACE", "Ideal"]
        workloads = ["resnet50", "dlrm"]
        iterations = 1
        contention = ["none", "uniform:20"]
        [baseline]
        config = "NoOverlap"
        "#
    ))
    .expect("valid scenario")
}

/// Pipeline training (smoke): both pipeline schedules on a torus and a
/// crossbar, under the no-overlap and ACE configs, pristine and
/// contended, with and without stragglers.
fn pipeline_smoke() -> Scenario {
    Scenario::from_toml_str(
        r#"
        name = "pipeline-smoke"
        mode = "training"
        topologies = ["2x2", "switch:4"]
        configs = ["NoOverlap", "ACE"]
        workloads = ["transformer@pipeline@gpipe@2x4", "transformer@pipeline@1f1b@2x4"]
        iterations = 1
        contention = ["none", "uniform:20"]
        stragglers = ["det", "lognormal:0.2@seed:7"]
        [baseline]
        config = "NoOverlap"
        "#,
    )
    .expect("valid scenario")
}

/// Serving (smoke): continuous batching of a data- and a tensor-parallel
/// transformer under both schedules, pristine and contended.
fn serving_smoke(fidelity: &str) -> Scenario {
    Scenario::from_toml_str(&format!(
        r#"
        name = "serving-smoke"
        mode = "serving"
        fidelity = "{fidelity}"
        topologies = ["2x2"]
        configs = ["ace"]
        workloads = ["transformer", "transformer@model"]
        arrival_rates = [500.0]
        schedules = ["gpipe", "1f1b"]
        microbatches = [2]
        stages = 2
        requests = 4
        seed = 1
        prompt_tokens = 16
        decode_tokens = 2
        token_budget = 64
        contention = ["none", "uniform:20"]
        "#
    ))
    .expect("valid scenario")
}

/// A collective grid in one tier (smoke): all three engines, all-reduce
/// and all-to-all (ring phases and route-enumerated flows) on 16-node
/// fabrics, at an aligned and a prime payload, pristine and contended,
/// under each of `faults`. Speedups against the ideal engine fill the
/// summary. Both engine families run at 128 GB/s of memory bandwidth.
fn collective_grid(
    name: &str,
    fidelity: Fidelity,
    payloads: [u64; 2],
    topologies: &[&str],
    faults: &[&str],
) -> Scenario {
    let mut sc = Scenario::collective(name);
    sc.fidelity = fidelity;
    sc.topologies = topologies
        .iter()
        .map(|t| t.parse().expect("valid topology"))
        .collect();
    sc.engines = vec![
        EngineFamily::Ideal,
        EngineFamily::Baseline,
        EngineFamily::Ace,
    ];
    sc.mem_gbps = vec![128.0];
    sc.ops = vec![CollectiveOp::AllReduce, CollectiveOp::AllToAll];
    sc.payload_bytes = payloads.to_vec();
    sc.faults = faults
        .iter()
        .map(|f| f.parse().expect("valid fault"))
        .collect();
    sc.contention = vec![
        "none".parse().expect("valid contention"),
        "uniform:8".parse().expect("valid contention"),
    ];
    sc.baseline = Some(BaselineSpec::Engine(EngineKind::Ideal));
    sc
}

/// The cabled fabrics: two tori and a hierarchical fabric.
const CABLED: [&str; 3] = ["4x2x2", "2x2x2x2", "hier:4x4"];

/// The cabled fabrics in the analytic tier, each also with one cable
/// killed.
fn analytic_cabled() -> Scenario {
    collective_grid(
        "analytic-cabled",
        Fidelity::Analytic,
        [16 << 20, 1_000_003],
        &CABLED,
        &["none", "kill:1@seed:42"],
    )
}

/// The crossbar fabrics in the analytic tier, with and without the
/// uplink-bandwidth override (a crossbar has no cable to kill).
fn analytic_switch() -> Scenario {
    collective_grid(
        "analytic-switch",
        Fidelity::Analytic,
        [16 << 20, 1_000_003],
        &["switch:16", "switch:16@100"],
        &["none"],
    )
}

/// The cabled fabrics in the exact tier, pristine, with one cable killed
/// (ring sends detour around it, all-to-all flows are re-routed) and
/// with one cable at half bandwidth.
fn exact_cabled() -> Scenario {
    collective_grid(
        "exact-cabled",
        Fidelity::Exact,
        [1 << 20, 1_000_003],
        &CABLED,
        &["none", "kill:1@seed:42", "degrade:50:1@seed:7"],
    )
}

fn serial(scenario: &Scenario) -> SweepOutcome {
    run_scenario(
        scenario,
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("valid scenario")
}

#[test]
fn analytic_cabled_grid_matches_golden() {
    let out = serial(&analytic_cabled());
    check_golden("analytic_cabled.csv", &report::to_csv(&out));
    check_golden("analytic_cabled.json", &report::to_json(&out));
}

#[test]
fn exact_cabled_grid_matches_golden() {
    let out = serial(&exact_cabled());
    assert_eq!(out.results.len(), 216);
    check_golden("exact_cabled.csv", &report::to_csv(&out));
    check_golden("exact_cabled.json", &report::to_json(&out));
    check_golden(
        "exact_cabled_attribution.csv",
        &report::to_csv_with_attribution(&out),
    );
    check_golden(
        "exact_cabled_attribution.json",
        &report::to_json_with_attribution(&out),
    );
}

/// ACE with 4 and 16 FSMs on a torus with two killed cables. With 4
/// FSMs each phase owns one, so a detoured ring message's
/// store-and-forward queues behind its own phase's steps: these rows
/// move if a detour charges another phase's FSMs, which the 1 MiB
/// `exact_cabled` rows do not show.
#[test]
fn exact_detour_fsm_rows_match_golden() {
    let mut sc = Scenario::collective("exact-detour-fsms");
    sc.topologies = vec![torus(4, 2, 2)];
    sc.engines = vec![EngineFamily::Ace];
    sc.payload_bytes = vec![PAYLOAD];
    sc.mem_gbps = vec![128.0];
    sc.sram_mb = vec![4];
    sc.fsms = vec![4, 16];
    sc.faults = vec!["kill:2@seed:7".parse().expect("valid fault")];
    check_golden("exact_detour_fsms.csv", &report::to_csv(&serial(&sc)));
}

/// A hybrid collective grid over every engine knob: all three engines,
/// one 1 MB all-reduce on `2x2` and `switch:4`, pristine and under
/// `uniform:8` contention, with a non-integral memory share (12.5 GB/s)
/// and two values on each of the `mem_gbps`, `comm_sms`, `sram_mb` and
/// `fsms` axes. ACE at Table VI's 128 GB/s, 4 MB and 16 FSMs is the
/// baseline, so every knob axis shows in the summary.
fn hybrid_knobs() -> Scenario {
    let mut sc = Scenario::collective("hybrid-knobs");
    sc.fidelity = Fidelity::Hybrid;
    sc.topologies = vec![
        "2x2".parse().expect("valid topology"),
        "switch:4".parse().expect("valid topology"),
    ];
    sc.engines = vec![
        EngineFamily::Ideal,
        EngineFamily::Baseline,
        EngineFamily::Ace,
    ];
    sc.ops = vec![CollectiveOp::AllReduce];
    sc.payload_bytes = vec![1 << 20];
    sc.mem_gbps = vec![12.5, 128.0];
    sc.comm_sms = vec![2, 6];
    sc.sram_mb = vec![1, 4];
    sc.fsms = vec![4, 16];
    sc.contention = vec![
        "none".parse().expect("valid contention"),
        "uniform:8".parse().expect("valid contention"),
    ];
    sc.baseline = Some(BaselineSpec::Engine(EngineKind::Ace {
        dma_mem_gbps: 128.0,
        sram_mb: 4,
        fsms: 16,
    }));
    sc
}

/// The hybrid knob grid's reports and the cache file its runner saves.
/// The cache file pins the bytes `--cache-file` writes for both tiers:
/// a file written by one build must load and re-save identically. The
/// attribution reports pin all four emitters on a grid whose repeated
/// points span both tiers.
#[test]
fn hybrid_knob_grid_and_its_cache_file_match_golden() {
    let runner = SweepRunner::new();
    let out = runner
        .run(
            &hybrid_knobs(),
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .expect("valid scenario");
    assert_eq!(out.results.len(), 192);
    assert_eq!(runner.cache().len(), 74);
    assert!(out.results.iter().any(|r| r.cache_hit));
    assert!(out.results.iter().any(|r| r.degradation_pct > 0.0));
    let cache = persist::cache_to_string(runner.cache());
    check_golden("hybrid_knobs.csv", &report::to_csv(&out));
    check_golden("hybrid_knobs.json", &report::to_json(&out));
    check_golden(
        "hybrid_knobs_attribution.csv",
        &report::to_csv_with_attribution(&out),
    );
    check_golden(
        "hybrid_knobs_attribution.json",
        &report::to_json_with_attribution(&out),
    );
    check_golden("hybrid_knobs.cache", &cache);
    let reloaded = persist::cache_from_str(&cache).expect("the saved cache loads");
    assert_eq!(persist::cache_to_string(&reloaded), cache);
}

#[test]
fn analytic_switch_grid_matches_golden() {
    let out = serial(&analytic_switch());
    check_golden("analytic_switch.csv", &report::to_csv(&out));
    check_golden("analytic_switch.json", &report::to_json(&out));
}

#[test]
fn training_smoke_json_and_attribution_match_golden() {
    let out = serial(&training_smoke("exact"));
    check_golden("training_smoke.json", &report::to_json(&out));
    check_golden(
        "training_smoke_attribution.csv",
        &report::to_csv_with_attribution(&out),
    );
    check_golden(
        "training_smoke_attribution.json",
        &report::to_json_with_attribution(&out),
    );
}

#[test]
fn training_analytic_smoke_json_matches_golden() {
    let out = serial(&training_smoke("analytic"));
    check_golden("training_analytic_smoke.json", &report::to_json(&out));
}

#[test]
fn pipeline_smoke_matches_golden() {
    let out = serial(&pipeline_smoke());
    check_golden("pipeline_smoke.csv", &report::to_csv(&out));
    check_golden("pipeline_smoke.json", &report::to_json(&out));
}

#[test]
fn serving_smoke_json_matches_golden() {
    let out = serial(&serving_smoke("exact"));
    check_golden("serving_smoke.json", &report::to_json(&out));
}

#[test]
fn serving_analytic_smoke_matches_golden() {
    let out = serial(&serving_smoke("analytic"));
    check_golden("serving_analytic_smoke.csv", &report::to_csv(&out));
    check_golden("serving_analytic_smoke.json", &report::to_json(&out));
}

#[test]
fn json_escapes_the_scenario_name() {
    // A quote, a backslash, a tab, a newline and a control character:
    // each takes its own escape path.
    let mut sc = Scenario::collective("quote \" back\\slash\ttab\nline\u{1}ctl");
    sc.fidelity = Fidelity::Analytic;
    sc.engines = vec![EngineFamily::Ideal];
    sc.payload_bytes = vec![1 << 20];
    check_golden("escaped_name.json", &report::to_json(&serial(&sc)));
}

#[test]
fn training_smoke_csv_matches_golden() {
    let out = run_scenario(
        &training_smoke("exact"),
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("valid scenario");
    check_golden("training_smoke.csv", &report::to_csv(&out));
}

#[test]
fn training_analytic_smoke_csv_matches_golden() {
    let out = run_scenario(
        &training_smoke("analytic"),
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("valid scenario");
    check_golden("training_analytic_smoke.csv", &report::to_csv(&out));
}

#[test]
fn serving_smoke_csv_matches_golden() {
    let out = run_scenario(
        &serving_smoke("exact"),
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("valid scenario");
    check_golden("serving_smoke.csv", &report::to_csv(&out));
}

#[test]
fn fig05_smoke_csv_matches_golden() {
    let out = run_scenario(
        &fig05_smoke(),
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("valid scenario");
    check_golden("fig05_smoke.csv", &report::to_csv(&out));
}

#[test]
fn fig06_smoke_csv_matches_golden() {
    let out = run_scenario(
        &fig06_smoke(),
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("valid scenario");
    check_golden("fig06_smoke.csv", &report::to_csv(&out));
}

#[test]
fn fig09a_smoke_csv_matches_golden() {
    let out = run_scenario(
        &fig09a_smoke(),
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("valid scenario");
    check_golden("fig09a_smoke.csv", &report::to_csv(&out));
}

#[test]
fn fig09a_smoke_json_matches_golden() {
    let out = run_scenario(
        &fig09a_smoke(),
        RunnerOptions {
            threads: 1,
            ..Default::default()
        },
    )
    .expect("valid scenario");
    check_golden("fig09a_smoke.json", &report::to_json(&out));
}
