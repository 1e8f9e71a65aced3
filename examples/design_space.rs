//! Design-space exploration of the ACE microarchitecture: sweep the SRAM
//! size and inspect the area/power cost model (paper Fig. 9a, Table IV).
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use ace_platform::collectives::{CollectiveOp, CollectivePlan};
use ace_platform::engine::{synthesis, AceConfig};
use ace_platform::net::TopologySpec;
use ace_platform::system::{EngineKind, RunSpec, SystemConfig};

fn main() {
    let shape = TopologySpec::torus3(4, 2, 2).expect("a valid shape");
    let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, shape);
    println!("plan: {plan}\n");

    println!(
        "{:>6} | {:>12} | {:>10} | {:>10} | {:>10}",
        "SRAM", "64MB AR (us)", "area mm^2", "power W", "of NPU"
    );
    // Table VI's ACE, with only the SRAM swept.
    let EngineKind::Ace {
        dma_mem_gbps, fsms, ..
    } = SystemConfig::Ace.engine()
    else {
        unreachable!("ACE runs the ACE engine")
    };
    for sram_mb in [1u64, 2, 4, 8] {
        let config = AceConfig::with_dse_point(sram_mb, fsms);
        let engine = EngineKind::Ace {
            dma_mem_gbps,
            sram_mb,
            fsms,
        };
        let done = RunSpec::new(shape, engine, CollectiveOp::AllReduce, 64 << 20)
            .run()
            .expect("a pristine run")
            .completion;
        let cost = synthesis::total(&config);
        let (area_frac, _) =
            synthesis::overhead(&config, synthesis::AcceleratorReference::tpu_class());
        println!(
            "{:>5}M | {:>12.0} | {:>10.2} | {:>10.2} | {:>9.2}%",
            sram_mb,
            done.cycles() as f64 / 1245.0, // 1245 MHz -> us
            cost.area_mm2(),
            cost.power_w(),
            area_frac * 100.0
        );
    }

    println!();
    println!("The paper settles on 4 MB / 16 FSMs: beyond that, performance gains");
    println!("are marginal while SRAM area (the dominant cost) doubles.");
}
