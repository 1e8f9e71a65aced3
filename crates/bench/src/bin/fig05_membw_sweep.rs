//! Fig. 5 — achieved network bandwidth vs. HBM bandwidth available to
//! communication, for a single 64 MB all-reduce on 16- and 64-NPU tori.
//!
//! Reproduces the paper's headline: the baseline needs ≈450 GB/s of
//! memory bandwidth to reach ~90 % of the ideal endpoint's network
//! performance, while ACE gets there with ≈128 GB/s — a ≈3.5× reduction.
//!
//! The sweep itself is a thin [`ace_sweep::Scenario`] (the same grid as
//! `examples/scenarios/membw_sweep.toml`); this binary only does the
//! figure-specific pivoting and commentary.
//!
//! `--trace PATH` additionally re-runs the paper's headline cell (ACE at
//! 128 GB/s on the 16-NPU torus) with event recording on and writes a
//! Chrome/Perfetto `trace_event` JSON.

use ace_bench::{emit_tsv, header, subheader};
use ace_net::TopologySpec;
use ace_sweep::{
    run_scenario, BaselineSpec, EngineFamily, RunResult, RunnerOptions, Scenario, SweepOutcome,
};
use ace_system::{EngineKind, SystemConfig};

const PAYLOAD: u64 = 64 << 20;
const SWEEPS: [f64; 10] = [
    32.0, 64.0, 96.0, 128.0, 192.0, 256.0, 320.0, 450.0, 600.0, 900.0,
];

/// The baseline's SMs: all of them, as NoOverlap's engine holds.
fn all_sms() -> u32 {
    match SystemConfig::BaselineNoOverlap.engine() {
        EngineKind::Baseline { comm_sms, .. } => comm_sms,
        _ => unreachable!("NoOverlap runs the baseline engine"),
    }
}

/// Table VI's ACE design point behind a `dma_mem_gbps` share of HBM.
fn ace(dma_mem_gbps: f64) -> EngineKind {
    match SystemConfig::Ace.engine() {
        EngineKind::Ace { sram_mb, fsms, .. } => EngineKind::Ace {
            dma_mem_gbps,
            sram_mb,
            fsms,
        },
        _ => unreachable!("ACE runs the ACE engine"),
    }
}

fn scenario() -> Scenario {
    let mut sc = Scenario::collective("fig05-membw");
    sc.topologies = vec![
        TopologySpec::torus3(4, 2, 2).expect("valid shape"),
        TopologySpec::torus3(4, 4, 4).expect("valid shape"),
    ];
    sc.engines = vec![
        EngineFamily::Ideal,
        EngineFamily::Baseline,
        EngineFamily::Ace,
    ];
    sc.payload_bytes = vec![PAYLOAD];
    sc.mem_gbps = SWEEPS.to_vec();
    sc.comm_sms = vec![all_sms()];
    sc.baseline = Some(BaselineSpec::Engine(EngineKind::Ideal));
    sc
}

/// The grid row for `spec` on `shape`.
fn find(out: &SweepOutcome, shape: TopologySpec, spec: EngineKind) -> &RunResult {
    out.find_collective(shape, spec)
        .expect("point is in the grid")
}

fn main() {
    header("Fig. 5: network BW utilization vs comm memory bandwidth (64 MB all-reduce)");

    let sc = scenario();
    let out = run_scenario(&sc, RunnerOptions::default()).expect("valid scenario");

    for &shape in &sc.topologies {
        subheader(&format!("{} NPUs ({shape})", shape.nodes()));

        let ideal = find(&out, shape, EngineKind::Ideal);
        println!(
            "ideal endpoint: {:.1} GB/s per NPU",
            ideal.metrics.gbps_per_npu
        );
        println!(
            "{:>10} | {:>16} | {:>16} | {:>9} | {:>9}",
            "mem GB/s", "baseline GB/s", "ACE GB/s", "base/idl", "ace/idl"
        );

        let mut base_90 = None;
        let mut ace_90 = None;
        for &bw in &SWEEPS {
            let base = find(
                &out,
                shape,
                EngineKind::Baseline {
                    comm_mem_gbps: bw,
                    comm_sms: all_sms(),
                },
            );
            let ace = find(&out, shape, ace(bw));
            let bi = base.speedup_vs_baseline.expect("baseline named");
            let ai = ace.speedup_vs_baseline.expect("baseline named");
            if base_90.is_none() && bi >= 0.85 {
                base_90 = Some(bw);
            }
            if ace_90.is_none() && ai >= 0.85 {
                ace_90 = Some(bw);
            }
            println!(
                "{:>10.0} | {:>16.1} | {:>16.1} | {:>8.1}% | {:>8.1}%",
                bw,
                base.metrics.gbps_per_npu,
                ace.metrics.gbps_per_npu,
                bi * 100.0,
                ai * 100.0
            );
            emit_tsv(
                "fig05",
                &[
                    ("nodes", shape.nodes().to_string()),
                    ("mem_gbps", format!("{bw:.0}")),
                    ("baseline_gbps", format!("{:.2}", base.metrics.gbps_per_npu)),
                    ("ace_gbps", format!("{:.2}", ace.metrics.gbps_per_npu)),
                ],
            );
        }
        match (base_90, ace_90) {
            (Some(b), Some(a)) => println!(
                "≈90% of ideal: baseline at {b:.0} GB/s, ACE at {a:.0} GB/s -> {:.1}x reduction",
                b / a
            ),
            _ => println!("one engine never reached 90% of ideal in the sweep"),
        }
    }

    println!();
    println!("Paper reference: baseline ≈450 GB/s and ACE ≈128 GB/s for 90% of an");
    println!("ideal ~300 GB/s, i.e. a ≈3.5x memory-bandwidth reduction.");

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--trace" {
            let path = argv.next().expect("--trace needs a path");
            write_trace(&path);
            println!("wrote trace {path} (load at https://ui.perfetto.dev)");
        }
    }
}

/// Records the headline cell — Table VI's ACE on the 16-NPU torus — and
/// writes it as Chrome `trace_event` JSON.
fn write_trace(path: &str) {
    let shape = TopologySpec::torus3(4, 2, 2).expect("valid shape");
    let (_, tracer) = ace_system::RunSpec::new(
        shape,
        SystemConfig::Ace.engine(),
        ace_collectives::CollectiveOp::AllReduce,
        PAYLOAD,
    )
    .traced()
    .run_traced()
    .expect("pristine run cannot fail");
    std::fs::write(path, ace_trace::chrome::to_chrome_json(&tracer)).expect("write trace");
}
