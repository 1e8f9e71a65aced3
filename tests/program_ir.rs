//! Property tests over the task-graph workload IR.
//!
//! Generated by the same deterministic splitmix64 scheme as
//! `property_tests.rs` (no `proptest` in this std-only workspace). The
//! invariants:
//!
//! * every lowered program — builtin or randomly generated, any
//!   parallelism strategy, overlap on/off, embedding optimization
//!   on/off — is acyclic and topologically executable;
//! * per-iteration gradient-collective bytes of the lowered graph equal
//!   `Workload::total_comm_bytes()` for the native data/hybrid rules;
//! * exposed-communication cycles equal the scheduler's stall cycles by
//!   construction: `total = compute + exposed` exactly, for any program
//!   on any configuration.

use ace_platform::collectives::CollectiveOp;
use ace_platform::compute::KernelDesc;
use ace_platform::net::TopologySpec;
use ace_platform::system::{training_program, IterationReport, SystemConfig, TrainSpec};
use ace_platform::workloads::{
    Layer, LayerComm, LoweringOptions, Parallelism, Program, TaskKind, Workload,
};

/// Deterministic splitmix64 PRNG (see `property_tests.rs`).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn frange(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() as f64 / u64::MAX as f64) * (hi - lo)
    }
}

/// A random small workload: 1–8 layers, random kernel shapes, ~2/3 of
/// layers carrying an all-reduce.
fn random_workload(rng: &mut Rng) -> Workload {
    let n = rng.range(1, 9) as usize;
    let layers: Vec<Layer> = (0..n)
        .map(|i| {
            let flops = rng.frange(1e8, 5e9);
            let bytes = rng.frange(1e6, 5e7);
            let comm = if rng.range(0, 3) < 2 {
                Some(LayerComm {
                    op: CollectiveOp::AllReduce,
                    bytes: rng.range(64 << 10, 8 << 20),
                })
            } else {
                None
            };
            Layer::from_fwd(format!("l{i}"), flops, bytes, comm)
        })
        .collect();
    Workload::data_parallel("random", layers, 8)
}

/// Walks the schedule like the scheduler does, asserting every
/// dependency was executed first — "topologically executable" as an
/// explicit replay, independent of `Program::validate`.
fn assert_executable(p: &Program) {
    p.validate()
        .unwrap_or_else(|e| panic!("invalid program: {e}"));
    let mut done = vec![false; p.task_slots()];
    for &id in p.schedule() {
        let task = p.task(id);
        for dep in task.deps() {
            assert!(
                done[dep.index()],
                "task {id} reached before its dependency {dep}"
            );
        }
        done[id.index()] = true;
    }
}

#[test]
fn lowered_builtins_are_acyclic_and_executable() {
    let builtins: Vec<Workload> = vec![
        Workload::resnet50(),
        Workload::gnmt(),
        Workload::dlrm(16),
        Workload::transformer_lm(),
    ];
    for w in &builtins {
        for parallelism in [w.parallelism(), Parallelism::Model] {
            for overlap in [true, false] {
                for iterations in [1, 2, 3] {
                    for optimized in [false, true] {
                        let mut p = Program::lower(
                            w,
                            parallelism,
                            &LoweringOptions {
                                iterations,
                                overlap,
                            },
                        );
                        if optimized {
                            p.optimize_embedding();
                        }
                        assert_executable(&p);
                    }
                }
            }
        }
    }
}

#[test]
fn random_workloads_lower_to_executable_programs() {
    let mut rng = Rng::new(0xace4);
    for _ in 0..200 {
        let w = random_workload(&mut rng);
        let parallelism = match rng.range(0, 2) {
            0 => Parallelism::Data,
            _ => Parallelism::Model,
        };
        let opts = LoweringOptions {
            iterations: rng.range(1, 4) as u32,
            overlap: rng.range(0, 2) == 0,
        };
        let p = Program::lower(&w, parallelism, &opts);
        assert_executable(&p);
        // The schedule carries every kernel of every iteration: 3 per
        // layer (fwd/ig/wg) per iteration.
        let kernels = p
            .iter_scheduled()
            .filter(|(_, t)| matches!(t.kind(), TaskKind::Compute(_)))
            .count();
        assert_eq!(kernels, 3 * w.layers().len() * opts.iterations as usize);
    }
}

#[test]
fn lowered_collective_bytes_match_workload_totals() {
    for w in [
        Workload::resnet50(),
        Workload::gnmt(),
        Workload::dlrm(64),
        Workload::transformer_lm(),
    ] {
        for overlap in [true, false] {
            let p = Program::lower(
                &w,
                w.parallelism(),
                &LoweringOptions {
                    iterations: 2,
                    overlap,
                },
            );
            for iter in 0..2 {
                assert_eq!(
                    p.grad_collective_bytes(iter),
                    w.total_comm_bytes(),
                    "{} iter {iter} overlap {overlap}",
                    w.name()
                );
            }
            // Embedding exchanges ride on top of the layer collectives.
            let emb_bytes: u64 = w
                .embedding()
                .map(|e| 2 * (e.fwd_all_to_all_bytes + e.bwd_all_to_all_bytes))
                .unwrap_or(0);
            assert_eq!(
                p.total_collective_bytes(),
                2 * w.total_comm_bytes() + emb_bytes,
                "{}",
                w.name()
            );
        }
    }
}

/// Lowers `w` under `config` and runs it on `shape`.
fn train(
    config: SystemConfig,
    w: &Workload,
    shape: TopologySpec,
    iterations: u32,
    optimized_embedding: bool,
) -> IterationReport {
    let program = training_program(config, w, iterations, optimized_embedding);
    TrainSpec::new(config, program, shape)
        .run()
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
}

#[test]
fn exposed_comm_is_exactly_the_scheduler_stall() {
    // total = compute + exposed holds as an exact integer identity for
    // every configuration and strategy: the timeline only advances
    // through kernels and stalls.
    let shape = TopologySpec::torus3(2, 2, 1).unwrap();
    let mut rng = Rng::new(0xace5);
    for config in SystemConfig::ALL {
        for _ in 0..8 {
            let w = random_workload(&mut rng);
            let report = train(config, &w, shape, 2, false);
            assert_eq!(
                report.total_cycles(),
                report.compute_cycles() + report.exposed_comm_cycles(),
                "{config}"
            );
        }
    }
    // And with the Fig. 12 transform applied.
    let report = train(SystemConfig::Ace, &Workload::dlrm(4), shape, 2, true);
    assert_eq!(
        report.total_cycles(),
        report.compute_cycles() + report.exposed_comm_cycles()
    );
}

#[test]
fn model_parallelism_runs_every_builtin_end_to_end() {
    let shape = TopologySpec::torus3(2, 2, 1).unwrap();
    for w in [
        Workload::resnet50(),
        Workload::gnmt(),
        Workload::dlrm(4),
        Workload::transformer_lm(),
    ] {
        let w = w.with_parallelism(Parallelism::Model).unwrap();
        let report = train(SystemConfig::Ace, &w, shape, 1, false);
        assert!(report.total_cycles() > 0, "{}", w.name());
        assert_eq!(
            report.total_cycles(),
            report.compute_cycles() + report.exposed_comm_cycles()
        );
    }
}

#[test]
fn custom_kernels_with_zero_cost_do_not_wedge_the_scheduler() {
    // Degenerate programs (zero-cycle kernels, zero-byte collectives)
    // must terminate and keep the stall identity.
    use ace_platform::workloads::TaskPhase;
    let mut p = Program::new("degenerate", Parallelism::Data, 1);
    let k0 = p.add_compute(
        KernelDesc::new("free", 0.0, 0.0),
        TaskPhase::Forward,
        0,
        vec![],
    );
    let ar = p.add_collective(CollectiveOp::AllReduce, 0, TaskPhase::Backward, 0, vec![k0]);
    p.add_barrier(TaskPhase::Backward, 0, vec![ar]);
    let report = TrainSpec::new(SystemConfig::Ace, p, TopologySpec::torus3(2, 1, 1).unwrap())
        .run()
        .unwrap();
    assert_eq!(
        report.total_cycles(),
        report.compute_cycles() + report.exposed_comm_cycles()
    );
}
