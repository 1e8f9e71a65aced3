//! Fig. 11 — scalability: (a) total compute vs. exposed communication for
//! every workload, system size and configuration; (b) ACE's speedup over
//! each baseline.
//!
//! This is the paper's main result table. Expected shape: exposed
//! communication grows with system size; BaselineCompOpt beats
//! BaselineCommOpt (compute savings are on the critical path);
//! BaselineNoOverlap beats CompOpt only for ResNet-50 at ≥16 NPUs
//! (batching many small collectives helps); ACE beats every baseline
//! everywhere and tracks the ideal endpoint.

use ace_bench::{emit_tsv, header, subheader};
use ace_net::TopologySpec;
use ace_system::{training_program, IterationReport, SystemConfig, TrainSpec};
use ace_workloads::Workload;

fn run(config: SystemConfig, workload: Workload, shape: TopologySpec) -> IterationReport {
    let program = training_program(config, &workload, 2, false);
    TrainSpec::new(config, program, shape)
        .run()
        .expect("pristine run")
}

fn main() {
    header("Fig. 11a/11b: compute vs exposed communication and ACE speedups");
    // The paper's four evaluated system sizes (Section V).
    let shapes = [(4, 2, 2), (4, 4, 2), (4, 4, 4), (4, 8, 4)]
        .map(|(l, v, h)| TopologySpec::torus3(l, v, h).expect("valid shape"));
    let workload_names = ["ResNet-50", "GNMT", "DLRM"];

    // speedups[workload][baseline] -> per-size ACE speedups
    let mut speedups: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 3]; 3];
    let mut best_baseline_speedups: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut ideal_fractions: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let mut net_util_gains: Vec<f64> = Vec::new();

    for &shape in &shapes {
        subheader(&format!("{} NPUs ({shape})", shape.nodes()));
        println!(
            "{:>10} {:>10} | {:>12} {:>12} {:>12} | {:>8}",
            "workload", "config", "compute us", "exposed us", "total us", "vs ideal"
        );
        for (wi, wname) in workload_names.iter().enumerate() {
            let make = || match wi {
                0 => Workload::resnet50(),
                1 => Workload::gnmt(),
                _ => Workload::dlrm(shape.nodes()),
            };
            let reports: Vec<IterationReport> = SystemConfig::ALL
                .iter()
                .map(|&c| run(c, make(), shape))
                .collect();
            let ideal_total = reports[4].total_time_us();
            for (ci, r) in reports.iter().enumerate() {
                println!(
                    "{:>10} {:>10} | {:>12.0} {:>12.0} {:>12.0} | {:>7.1}%",
                    wname,
                    r.config(),
                    r.total_compute_us(),
                    r.exposed_comm_us(),
                    r.total_time_us(),
                    ideal_total / r.total_time_us() * 100.0
                );
                ideal_fractions[ci].push(ideal_total / r.total_time_us());
                emit_tsv(
                    "fig11a",
                    &[
                        ("nodes", shape.nodes().to_string()),
                        ("workload", wname.to_string()),
                        ("config", r.config().to_string()),
                        ("compute_us", format!("{:.1}", r.total_compute_us())),
                        ("exposed_us", format!("{:.1}", r.exposed_comm_us())),
                        ("total_us", format!("{:.1}", r.total_time_us())),
                    ],
                );
            }
            let ace_total = reports[3].total_time_us();
            let ace_net = reports[3].effective_network_gbps_per_npu();
            let mut best = f64::INFINITY;
            for bi in 0..3 {
                let s = reports[bi].total_time_us() / ace_total;
                speedups[wi][bi].push(s);
                best = best.min(reports[bi].total_time_us());
                net_util_gains
                    .push(ace_net / reports[bi].effective_network_gbps_per_npu().max(1e-9));
            }
            best_baseline_speedups[wi].push(best / ace_total);
        }
    }

    subheader("Fig. 11b: ACE speedup over each baseline");
    println!(
        "{:>10} | {:>22} | {:>22} | {:>22}",
        "workload", "vs NoOverlap", "vs CommOpt", "vs CompOpt"
    );
    let fmt = |v: &[f64]| {
        let avg = v.iter().sum::<f64>() / v.len() as f64;
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        format!("avg {avg:.2}x (max {max:.2}x)")
    };
    for (wi, wname) in workload_names.iter().enumerate() {
        println!(
            "{:>10} | {:>22} | {:>22} | {:>22}",
            wname,
            fmt(&speedups[wi][0]),
            fmt(&speedups[wi][1]),
            fmt(&speedups[wi][2])
        );
    }

    subheader("Headline summary");
    for (wi, wname) in workload_names.iter().enumerate() {
        let v = &best_baseline_speedups[wi];
        let avg = v.iter().sum::<f64>() / v.len() as f64;
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        println!("ACE vs best baseline, {wname:>10}: avg {avg:.2}x, max {max:.2}x");
        emit_tsv(
            "fig11b",
            &[
                ("workload", wname.to_string()),
                ("avg_speedup", format!("{avg:.3}")),
                ("max_speedup", format!("{max:.3}")),
            ],
        );
    }
    let gain_avg = net_util_gains.iter().sum::<f64>() / net_util_gains.len() as f64;
    let gain_max = net_util_gains.iter().cloned().fold(f64::MIN, f64::max);
    println!(
        "ACE effective network-BW gain over baselines: avg {gain_avg:.2}x, max {gain_max:.2}x"
    );
    for (ci, c) in SystemConfig::ALL.iter().enumerate() {
        let f = &ideal_fractions[ci];
        let avg = f.iter().sum::<f64>() / f.len() as f64;
        println!(
            "{:>10}: {:.1}% of ideal on average",
            c.short_name(),
            avg * 100.0
        );
    }

    println!();
    println!("Paper reference: ACE speedups vs best baseline avg 1.41x (ResNet-50),");
    println!("1.12x (GNMT), 1.13x (DLRM); effective network BW +1.44x avg (up to");
    println!("2.67x); NoOverlap/CommOpt/CompOpt/ACE reach 68.5/49.9/75.7/91% of ideal.");
}
