//! Section III motivation — the Megatron-LM measurement, rerun in
//! simulation (extension experiment).
//!
//! The paper reports that on a real 8-GPU system, overlapping
//! Megatron-LM's communication with compute degrades the communication
//! ≈1.4× relative to issuing all collectives after back-propagation. We
//! rerun the comparison with the Transformer-LM workload: communication
//! time under the overlapped BaselineCommOpt allocation (450 GB/s, 6 SMs
//! — resources shared with compute) vs. under BaselineNoOverlap (full
//! endpoint, blocking).

use ace_bench::{emit_tsv, header};
use ace_net::TopologySpec;
use ace_system::{training_program, SystemConfig, TrainSpec};
use ace_workloads::Workload;

fn main() {
    header("Section III motivation: Megatron-LM-style overlap degradation (4x2x2)");
    println!("workload: {}\n", Workload::transformer_lm());

    let shape = TopologySpec::torus3(4, 2, 2).expect("valid shape");
    let mut comm_times = Vec::new();
    for config in [
        SystemConfig::BaselineNoOverlap,
        SystemConfig::BaselineCommOpt,
        SystemConfig::BaselineCompOpt,
        SystemConfig::Ace,
    ] {
        let program = training_program(config, &Workload::transformer_lm(), 2, false);
        let report = TrainSpec::new(config, program, shape)
            .run()
            .expect("pristine run");
        // Communication time proxy: everything that is not compute.
        let comm = report.total_time_us() - report.total_compute_us();
        println!(
            "{:>10}: total {:>9.0} us | compute {:>9.0} us | comm-on-critical-path {:>8.0} us",
            report.config(),
            report.total_time_us(),
            report.total_compute_us(),
            comm
        );
        emit_tsv(
            "motivation_megatron",
            &[
                ("config", report.config().to_string()),
                ("total_us", format!("{:.1}", report.total_time_us())),
                ("comm_us", format!("{comm:.1}")),
            ],
        );
        comm_times.push((config, comm, report.network_bytes()));
    }

    // The paper's metric: overlapped comms run slower than dedicated-run
    // comms. Compare effective communication throughput (same bytes).
    let no_overlap = comm_times[0].1;
    let comp_opt = comm_times[2].1;
    if no_overlap > 0.0 {
        println!(
            "\noverlap degradation (CompOpt exposed comm / NoOverlap comm): {:.2}x",
            comp_opt / no_overlap
        );
    }
    println!();
    println!("Paper reference (real 8-GPU measurement): overlapped communication");
    println!("runs ≈1.4x slower than communication issued after back-propagation,");
    println!("because it shares SMs and memory bandwidth with compute. ACE removes");
    println!("the contention entirely.");
}
