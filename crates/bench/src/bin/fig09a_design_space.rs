//! Fig. 9a — ACE design-space exploration: performance vs. SRAM size and
//! FSM count, normalized to the chosen 4 MB / 16 FSM configuration.
//!
//! The paper averages across workloads and system sizes and picks
//! 4 MB / 16 FSMs because larger configurations show diminishing returns
//! ("only 6 % performance improvement is seen for 8 MB SRAM and 20
//! FSMs"). We sweep the same grid on a representative communication
//! pattern (64 MB all-reduce) on 16- and 64-NPU tori and report the
//! geometric-mean completion time normalized to the chosen point, along
//! with the area cost of each configuration from the Table IV model.
//!
//! The grid is the scenario checked in at
//! `examples/scenarios/design_space.toml`, built here programmatically so
//! the binary runs from any working directory; the per-point speedups vs
//! the 4 MB / 16 FSM baseline geomean into exactly the old normalization.

use ace_bench::{emit_tsv, header};
use ace_engine::{synthesis, AceConfig};
use ace_net::TopologySpec;
use ace_sweep::{run_scenario, BaselineSpec, EngineFamily, RunnerOptions, Scenario, SweepOutcome};
use ace_system::{EngineKind, SystemConfig};

const PAYLOAD: u64 = 64 << 20;
const SRAMS: [u64; 4] = [1, 2, 4, 8];
const FSMS: [usize; 4] = [4, 8, 16, 20];

/// The Fig. 9a grid — the programmatic twin of
/// `examples/scenarios/design_space.toml`. `mem_gbps` keeps its default,
/// ACE's DMA share, and the baseline is Table VI's ACE.
fn scenario() -> Scenario {
    let mut sc = Scenario::collective("fig09a-design-space");
    sc.topologies = vec![
        TopologySpec::torus3(4, 2, 2).expect("valid shape"),
        TopologySpec::torus3(4, 4, 4).expect("valid shape"),
    ];
    sc.engines = vec![EngineFamily::Ace];
    sc.payload_bytes = vec![PAYLOAD];
    sc.sram_mb = SRAMS.to_vec();
    sc.fsms = FSMS.to_vec();
    sc.baseline = Some(BaselineSpec::Engine(SystemConfig::Ace.engine()));
    sc
}

/// Geometric-mean speedup of `engine` vs the chosen point across both
/// tori — the figure's normalized-performance cell.
fn geomean_perf(out: &SweepOutcome, engine: EngineKind) -> f64 {
    let speedups: Vec<f64> = out
        .collective_results(engine)
        .map(|r| r.speedup_vs_baseline.expect("baseline named"))
        .collect();
    assert!(!speedups.is_empty(), "grid point missing");
    (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp()
}

fn main() {
    header("Fig. 9a: ACE performance vs SRAM size and FSM count");

    let out = run_scenario(&scenario(), RunnerOptions::default()).expect("valid scenario");

    // Table VI's ACE is the chosen point.
    let EngineKind::Ace {
        dma_mem_gbps,
        sram_mb: chosen_mb,
        fsms: chosen_fsms,
    } = SystemConfig::Ace.engine()
    else {
        unreachable!("ACE runs the ACE engine")
    };
    println!(
        "performance normalized to {chosen_mb} MB / {chosen_fsms} FSMs (higher is better); area in mm^2\n"
    );
    print!("{:>8}", "SRAM\\FSM");
    for &f in &FSMS {
        print!(" | {f:>14}");
    }
    println!();
    for &mb in &SRAMS {
        print!("{:>7}M", mb);
        for &f in &FSMS {
            let perf = geomean_perf(
                &out,
                EngineKind::Ace {
                    dma_mem_gbps,
                    sram_mb: mb,
                    fsms: f,
                },
            );
            let area = synthesis::total(&AceConfig::with_dse_point(mb, f)).area_mm2();
            print!(" | {perf:>6.3}x {area:>5.2}mm");
            emit_tsv(
                "fig09a",
                &[
                    ("sram_mb", mb.to_string()),
                    ("fsms", f.to_string()),
                    ("norm_perf", format!("{perf:.4}")),
                    ("area_mm2", format!("{area:.3}")),
                ],
            );
        }
        println!();
    }

    println!();
    println!("Paper reference: performance saturates at 4 MB / 16 FSMs; going to");
    println!("8 MB / 20 FSMs buys only ~6% at nearly double the SRAM area.");
}
