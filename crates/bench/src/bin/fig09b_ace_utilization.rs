//! Fig. 9b — ACE utilization during training (forward pass vs.
//! back-propagation) for the Fig. 10 simulations (4×8×4 torus).
//!
//! "ACE is considered utilized when it has assigned at least one chunk
//! for processing." Forward passes barely use ACE (ResNet-50 and GNMT
//! have no forward collectives; DLRM has the single embedding
//! all-to-all), while back-propagation keeps it ~90 % busy.

use ace_bench::{emit_tsv, header};
use ace_net::TopologySpec;
use ace_system::{training_program, SystemConfig, TrainSpec};
use ace_workloads::Workload;

fn main() {
    header("Fig. 9b: ACE utilization, forward vs back-propagation (4x8x4, 128 NPUs)");
    println!(
        "{:>10} | {:>10} | {:>10}",
        "workload", "fwd util", "bwd util"
    );
    let shape = TopologySpec::torus3(4, 8, 4).expect("valid shape");
    for workload in Workload::paper_suite(128) {
        let name = workload.name().to_string();
        let program = training_program(SystemConfig::Ace, &workload, 2, false);
        let report = TrainSpec::new(SystemConfig::Ace, program, shape)
            .run()
            .expect("pristine run");
        let fwd = report.ace_util_fwd().unwrap_or(0.0);
        let bwd = report.ace_util_bwd().unwrap_or(0.0);
        println!("{name:>10} | {:>9.1}% | {:>9.1}%", fwd * 100.0, bwd * 100.0);
        emit_tsv(
            "fig09b",
            &[
                ("workload", name),
                ("fwd_util", format!("{fwd:.4}")),
                ("bwd_util", format!("{bwd:.4}")),
            ],
        );
    }
    println!();
    println!("Paper reference: fwd utilization ~0 (ResNet-50/GNMT) or low (DLRM's");
    println!("single all-to-all); bwd utilization 96.4% / 91.3% / 88.3% for");
    println!("ResNet-50 / GNMT / DLRM.");
}
