//! The Section VI-A analysis as a library walkthrough: how much memory
//! bandwidth does each endpoint need to drive the fabric, and why?
//!
//! ```text
//! cargo run --release --example membw_requirements
//! ```

use ace_platform::collectives::{traffic, CollectiveOp, CollectivePlan};
use ace_platform::net::TopologySpec;

fn main() {
    let payload: u64 = 64 << 20;

    for (l, v, h) in [(4, 2, 2), (4, 4, 4), (4, 8, 4)] {
        let shape = TopologySpec::torus3(l, v, h).expect("a valid shape");
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, shape);
        println!("== {} NPUs: {plan}", shape.nodes());

        // How much does each node send for a 64 MB gradient payload?
        let sent = plan.bytes_sent_per_node(payload);
        println!(
            "   per-node network bytes: {:.1} MB ({:.3}x the payload)",
            sent / 1e6,
            sent / payload as f64
        );

        // Endpoint memory traffic, baseline vs ACE.
        let base = traffic::baseline_traffic(&plan, payload);
        let ace = traffic::ace_traffic(payload);
        println!(
            "   baseline HBM traffic: {:.1} MB reads + {:.1} MB writes",
            base.reads / 1e6,
            base.writes / 1e6
        );
        println!(
            "   ACE      HBM traffic: {:.1} MB reads + {:.1} MB writes (DMA only)",
            ace.reads / 1e6,
            ace.writes / 1e6
        );

        // Memory bandwidth needed to sustain 300 GB/s of network injection.
        let base_bw = traffic::required_mem_bw_gbps(
            traffic::baseline_reads_per_network_byte(&plan, payload),
            300.0,
        );
        let ace_bw = traffic::required_mem_bw_gbps(
            traffic::ace_reads_per_network_byte(&plan, payload),
            300.0,
        );
        println!(
            "   to drive 300 GB/s: baseline {base_bw:.0} GB/s, ACE {ace_bw:.0} GB/s ({:.2}x less)\n",
            base_bw / ace_bw
        );
    }

    println!("Paper headline: ACE reduces the memory bandwidth required to drive");
    println!("the same network bandwidth by ~3.5x on average.");
}
