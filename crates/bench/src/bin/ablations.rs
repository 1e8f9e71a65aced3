//! Ablation studies over the design choices the paper (and DESIGN.md)
//! call out:
//!
//! 1. **LIFO vs FIFO collective scheduling** (Section V: LIFO prioritizes
//!    the first layers' collectives during back-propagation, shrinking
//!    next-iteration forward-pass stalls).
//! 2. **Bidirectional vs unidirectional rings** (Table V's bidirectional
//!    rings double the usable link bandwidth per dimension).
//! 3. **Chunk size** (Table III's 64 kB pipelining unit: too small wastes
//!    per-chunk overheads, too large starves pipeline depth and ACE's
//!    SRAM partitions).
//! 4. **In-flight chunk cap** (pipeline depth vs. bandwidth-delay
//!    product).

use ace_bench::{emit_tsv, header, subheader};
use ace_collectives::{CollectiveOp, Granularity};
use ace_net::TopologySpec;
use ace_simcore::SimTime;
use ace_system::{CollectiveExecutor, ExecutorOptions, SchedulingPolicy, SystemConfig};
use ace_trace::NullTracer;

const PAYLOAD: u64 = 32 << 20;

fn ace_executor(shape: TopologySpec, options: ExecutorOptions) -> CollectiveExecutor {
    let engine = SystemConfig::Ace.engine();
    let op = CollectiveOp::AllReduce;
    CollectiveExecutor::new(shape, op, options, None, engine, NullTracer)
}

fn run_single(shape: TopologySpec, options: ExecutorOptions) -> u64 {
    let mut ex = ace_executor(shape, options);
    let h = ex.issue(CollectiveOp::AllReduce, PAYLOAD, SimTime::ZERO);
    ex.run_until_complete(h).cycles()
}

fn main() {
    header("Ablations: scheduling, ring direction, chunk size, pipeline depth");
    let shape = TopologySpec::torus3(4, 4, 4).expect("valid shape");
    let base = ExecutorOptions::default();

    subheader("1. LIFO vs FIFO (small late collective behind a large early one)");
    for policy in [SchedulingPolicy::Lifo, SchedulingPolicy::Fifo] {
        let mut ex = ace_executor(
            shape,
            ExecutorOptions {
                scheduling: policy,
                ..base
            },
        );
        let big = ex.issue(CollectiveOp::AllReduce, 64 << 20, SimTime::ZERO);
        let small = ex.issue(CollectiveOp::AllReduce, 1 << 20, SimTime::from_cycles(1));
        let t_small = ex.run_until_complete(small).cycles();
        let t_big = ex.run_until_complete(big).cycles();
        println!(
            "{policy:?}: late 1 MB collective done at {t_small:>8} cyc; 64 MB at {t_big:>8} cyc"
        );
        emit_tsv(
            "ablation_sched",
            &[
                ("policy", format!("{policy:?}")),
                ("small_done", t_small.to_string()),
            ],
        );
    }
    println!("Expected: LIFO finishes the late (first-layer) collective far sooner.");

    subheader("2. Bidirectional vs unidirectional rings (32 MB all-reduce)");
    for bidir in [true, false] {
        let t = run_single(
            shape,
            ExecutorOptions {
                bidirectional_rings: bidir,
                ..base
            },
        );
        println!(
            "{}: {t:>9} cyc",
            if bidir {
                "bidirectional (paper)"
            } else {
                "unidirectional      "
            }
        );
        emit_tsv(
            "ablation_rings",
            &[
                ("bidirectional", bidir.to_string()),
                ("cycles", t.to_string()),
            ],
        );
    }
    println!("Expected: unidirectional roughly doubles ring serialization time.");

    subheader("3. Chunk size (Table III default: 64 kB)");
    for kb in [16u64, 32, 64, 128, 256, 512] {
        let granularity = Granularity {
            chunk_bytes: kb * 1024,
            ..Granularity::paper_default()
        };
        let t = run_single(
            shape,
            ExecutorOptions {
                granularity,
                ..base
            },
        );
        println!("{kb:>4} kB chunks: {t:>9} cyc");
        emit_tsv(
            "ablation_chunk",
            &[("chunk_kb", kb.to_string()), ("cycles", t.to_string())],
        );
    }
    println!("Expected: a broad sweet spot around the paper's 64 kB.");

    subheader("4. In-flight chunk cap (pipeline depth)");
    for cap in [4usize, 16, 64, 128, 256] {
        let t = run_single(
            shape,
            ExecutorOptions {
                max_inflight_chunks: cap,
                ..base
            },
        );
        println!("cap {cap:>4}: {t:>9} cyc");
        emit_tsv(
            "ablation_inflight",
            &[("cap", cap.to_string()), ("cycles", t.to_string())],
        );
    }
    println!("Expected: shallow pipelines cannot cover the inter-package");
    println!("bandwidth-delay product; returns diminish past ~64 chunks.");
}
