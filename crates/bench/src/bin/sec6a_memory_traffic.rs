//! Section VI-A — the analytical memory-bandwidth requirement of the
//! baseline vs. ACE, plus a cross-check against the discrete-event
//! simulator's measured per-node memory traffic.

use ace_bench::{emit_tsv, header, subheader};
use ace_collectives::{traffic, CollectiveOp, CollectivePlan};
use ace_net::TopologySpec;
use ace_system::{RunSpec, SystemConfig};

fn main() {
    header("Section VI-A: endpoint memory traffic, baseline vs ACE");

    subheader("closed-form model");
    let payload = 64u64 << 20;
    for (l, v, h) in [(1, 64, 1), (4, 4, 4), (4, 8, 4)] {
        let shape = TopologySpec::torus3(l, v, h).expect("valid shape");
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, shape);
        let sent = plan.bytes_sent_per_node(payload) / payload as f64;
        let base_reads = traffic::baseline_reads_per_network_byte(&plan, payload);
        let ace_reads = traffic::ace_reads_per_network_byte(&plan, payload);
        let reduction = traffic::mem_bw_reduction(&plan, payload);
        println!(
            "{shape}: sends {sent:.3} N per N payload | reads/net-byte: baseline {base_reads:.3}, ACE {ace_reads:.3} | BW reduction {reduction:.2}x"
        );
        println!(
            "   to drive 300 GB/s of network: baseline {:.0} GB/s, ACE {:.0} GB/s",
            traffic::required_mem_bw_gbps(base_reads, 300.0),
            traffic::required_mem_bw_gbps(ace_reads, 300.0)
        );
        emit_tsv(
            "sec6a",
            &[
                ("shape", shape.to_string()),
                ("sent_per_byte", format!("{sent:.4}")),
                ("baseline_reads", format!("{base_reads:.4}")),
                ("ace_reads", format!("{ace_reads:.4}")),
                ("reduction", format!("{reduction:.3}")),
            ],
        );
    }

    subheader("simulator cross-check (64 MB all-reduce, 4x4x4)");
    let shape = TopologySpec::torus3(4, 4, 4).expect("valid shape");
    let base = RunSpec::new(
        shape,
        SystemConfig::BaselineCommOpt.engine(),
        CollectiveOp::AllReduce,
        payload,
    )
    .run()
    .expect("pristine run cannot fail");
    let ace = RunSpec::new(
        shape,
        SystemConfig::Ace.engine(),
        CollectiveOp::AllReduce,
        payload,
    )
    .run()
    .expect("pristine run cannot fail");
    println!(
        "measured per-node HBM traffic: baseline {:.1} MB, ACE {:.1} MB ({:.2}x less)",
        base.mem_traffic_bytes as f64 / 1e6,
        ace.mem_traffic_bytes as f64 / 1e6,
        base.mem_traffic_bytes as f64 / ace.mem_traffic_bytes as f64
    );

    println!();
    println!("Paper reference: the baseline reads 1.5 N bytes per N network bytes");
    println!("(450 GB/s to drive 300 GB/s); ACE sends 2.25 N per N cached on 4x4x4");
    println!("(133 GB/s for the same 300 GB/s) — a ~3.5x reduction in required");
    println!("memory bandwidth.");
}
