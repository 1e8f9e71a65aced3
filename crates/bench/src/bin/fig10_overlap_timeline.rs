//! Fig. 10 — compute/network utilization over time for two training
//! iterations on a 4×8×4 (128-NPU) torus, for each overlapped
//! configuration and each workload.
//!
//! The paper plots per-1K-cycle average compute utilization and the
//! fraction of fabric links scheduling a flit. We render the same series
//! as terminal sparklines (one char ≈ total-time/64) and report summary
//! statistics; `--tsv` dumps the raw buckets.

use ace_bench::{emit_tsv, header, sparkline, subheader, tsv_mode};
use ace_net::TopologySpec;
use ace_system::{training_program, SystemConfig, TrainSpec};
use ace_workloads::Workload;

const CONFIGS: [SystemConfig; 4] = [
    SystemConfig::BaselineCommOpt,
    SystemConfig::BaselineCompOpt,
    SystemConfig::Ace,
    SystemConfig::Ideal,
];

fn main() {
    header("Fig. 10: compute-communication overlap, 2 iterations on 4x8x4 (128 NPUs)");
    for make in [Workload::resnet50 as fn() -> Workload, Workload::gnmt] {
        run_workload(make());
    }
    run_workload(Workload::dlrm(128));
    println!();
    println!("Paper reference: two bursts of network activity (one per iteration);");
    println!("ACE sustains higher network utilization with shorter total time; the");
    println!("baselines stretch the timeline (CommOpt via slow compute, CompOpt via");
    println!("exposed communication).");
}

fn run_workload(workload: Workload) {
    subheader(workload.name());
    let shape = TopologySpec::torus3(4, 8, 4).expect("valid shape");
    for config in CONFIGS {
        let program = training_program(config, &workload, 2, false);
        let report = TrainSpec::new(config, program, shape)
            .run()
            .expect("pristine run");
        let compute = report.compute_series();
        let network = report.network_series();
        let mean_net: f64 = if network.is_empty() {
            0.0
        } else {
            network.iter().sum::<f64>() / network.len() as f64
        };
        println!(
            "[{:>9}] total {:>8.0} us  exposed {:>6.0} us  mean net util {:>5.1}%",
            report.config(),
            report.total_time_us(),
            report.exposed_comm_us(),
            mean_net * 100.0
        );
        println!("  compute |{}|", sparkline(compute, 64));
        println!("  network |{}|", sparkline(network, 64));
        if tsv_mode() {
            for (i, (c, n)) in compute.iter().zip(network.iter()).enumerate() {
                emit_tsv(
                    "fig10",
                    &[
                        ("workload", workload.name().to_string()),
                        ("config", report.config().to_string()),
                        ("bucket", i.to_string()),
                        ("compute", format!("{c:.4}")),
                        ("network", format!("{n:.4}")),
                    ],
                );
            }
        }
    }
}
