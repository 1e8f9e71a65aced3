//! The one-node form of the executor against the full fabric: every
//! reported figure must agree bit for bit, and the form must be chosen
//! exactly when the run is symmetric.

use ace_collectives::{CollectiveOp, Granularity};
use ace_compute::KernelDesc;
use ace_net::{NodeId, Port, TopologySpec};
use ace_simcore::SimTime;
use ace_trace::{NullTracer, Payload, PipeBusy, RecordingTracer, Tracer};
use ace_workloads::{Parallelism, PipeSchedule, Program, TaskPhase, Workload};

use crate::executor::{CollHandle, CollectiveExecutor, ExecutorOptions, SchedulingPolicy};
use crate::report::IterationReport;
use crate::{training_program, EngineKind, RunSpec, SystemConfig, TrainSpec};

/// `(node, port, (bytes carried, busy-cycle bits))` of one egress port.
type LinkReading = (usize, usize, Option<(u64, u64)>);

/// Everything a run reports about its fabric and engines, with f64s as
/// bit patterns.
#[derive(Debug, PartialEq)]
struct Meters {
    total_bytes: u64,
    util_busy_total: u64,
    utilization_series: Vec<u64>,
    pipes: PipeBusy,
    ace_busy_cycles: Option<u64>,
    comm_mem_traffic_bytes: u64,
    past_schedules: u64,
    /// Every port of a few nodes.
    links: Vec<LinkReading>,
}

fn meters<T: Tracer>(ex: &CollectiveExecutor<T>, horizon: SimTime) -> Meters {
    let net = ex.network();
    let n = ex.nodes();
    let mut links = Vec::new();
    for node in [0, 1, n / 2, n - 1] {
        for port in 0..net.topology().ports_per_node() {
            let link = net.link(NodeId(node), Port::from_index(port));
            links.push((
                node,
                port,
                link.map(|l| (l.bytes_carried(), l.busy_cycles().to_bits())),
            ));
        }
    }
    Meters {
        total_bytes: net.total_bytes(),
        util_busy_total: net.util_busy_total_cycles().to_bits(),
        utilization_series: net
            .utilization_series()
            .iter()
            .map(|u| u.to_bits())
            .collect(),
        pipes: ex.pipe_busy_totals(),
        ace_busy_cycles: ex.ace_busy_cycles(horizon),
        comm_mem_traffic_bytes: ex.comm_mem_traffic_bytes(),
        past_schedules: ex.past_schedules(),
        links,
    }
}

/// The engines under test: the five configurations, plus ACE with 1 MB
/// of SRAM and 4 FSMs, small enough that admission waiters fire.
fn engines() -> Vec<(&'static str, EngineKind)> {
    let mut out: Vec<(&'static str, EngineKind)> = SystemConfig::ALL
        .into_iter()
        .map(|config| (config.short_name(), config.engine()))
        .collect();
    out.push((
        "ace-1mb-4fsm",
        EngineKind::Ace {
            dma_mem_gbps: 128.0,
            sram_mb: 1,
            fsms: 4,
        },
    ));
    out
}

/// The default options, FIFO draining, unidirectional rings, small
/// in-flight caps, and `ablations`' smallest and largest chunk sizes.
fn option_sets() -> [(&'static str, ExecutorOptions); 5] {
    let chunk = |kib: u64| ExecutorOptions {
        granularity: Granularity {
            chunk_bytes: kib << 10,
            ..Granularity::paper_default()
        },
        ..Default::default()
    };
    [
        ("default", ExecutorOptions::default()),
        (
            "uni-fifo-cap3",
            ExecutorOptions {
                bidirectional_rings: false,
                scheduling: SchedulingPolicy::Fifo,
                max_inflight_chunks: 3,
                ..Default::default()
            },
        ),
        (
            "fifo-cap1",
            ExecutorOptions {
                scheduling: SchedulingPolicy::Fifo,
                max_inflight_chunks: 1,
                ..Default::default()
            },
        ),
        ("chunk-16k", chunk(16)),
        ("chunk-512k", chunk(512)),
    ]
}

/// 3 MiB plus a remainder: 48 full chunks and a short trailing one.
const BIG: u64 = (3 << 20) + 12_345;

/// Issues staggered collectives in waves, each wave at the instant
/// the previous wave's smallest nonzero collective completes, then
/// drains them in reverse issue order. Returns every completion time and
/// the final event time.
fn drive<T: Tracer>(
    ex: &mut CollectiveExecutor<T>,
    waves: &[Vec<(CollectiveOp, u64)>],
) -> Vec<SimTime> {
    let mut handles: Vec<CollHandle> = Vec::new();
    let mut times = Vec::new();
    for wave in waves {
        let start = ex.now();
        let issued: Vec<(CollHandle, u64)> = wave
            .iter()
            .enumerate()
            .map(|(i, &(op, bytes))| (ex.issue(op, bytes, start + 150 * i as u64), bytes))
            .collect();
        handles.extend(issued.iter().map(|&(h, _)| h));
        let smallest = issued
            .iter()
            .filter(|&&(_, bytes)| bytes > 0)
            .min_by_key(|&&(_, bytes)| bytes)
            .expect("every wave moves bytes")
            .0;
        times.push(ex.run_until_complete(smallest));
    }
    ex.run_until(ex.now() + 20_000);
    for &h in handles.iter().rev() {
        times.push(ex.run_until_complete(h));
    }
    times.push(ex.run_to_idle());
    times
}

/// Runs `waves` on both forms of one executor configuration and asserts
/// that they agree on every reported figure.
fn assert_forms_agree(
    case: &str,
    spec: TopologySpec,
    options: ExecutorOptions,
    engine: EngineKind,
    waves: &[Vec<(CollectiveOp, u64)>],
) {
    let op = CollectiveOp::AllReduce;
    let mut full = CollectiveExecutor::new(spec, op, options, None, engine, Listening);
    let mut one = CollectiveExecutor::new(spec, op, options, None, engine, NullTracer);
    assert_eq!(full.simulated_nodes(), spec.nodes(), "{case}");
    assert_eq!(one.simulated_nodes(), 1, "{case}");
    let full_times = drive(&mut full, waves);
    let one_times = drive(&mut one, waves);
    assert_eq!(one_times, full_times, "{case}: completion times");
    let horizon = *one_times.last().expect("drive reports the idle time");
    assert_eq!(
        meters(&one, horizon),
        meters(&full, horizon),
        "{case}: meters"
    );
}

#[test]
fn one_node_collectives_equal_the_full_fabric_bit_for_bit() {
    use CollectiveOp::{AllGather, AllReduce, AllToAll, ReduceScatter, SendRecv};
    let waves = [
        vec![
            (AllReduce, BIG),
            (ReduceScatter, 700_000),
            (AllGather, 5),
            (SendRecv, 0),
        ],
        vec![
            (SendRecv, 700_000),
            (AllGather, BIG),
            (AllReduce, 0),
            (ReduceScatter, 5),
        ],
        // A prime payload leaves a remainder byte on some offsets, and 5
        // bytes is fewer than every fabric's node count.
        vec![
            (AllToAll, BIG),
            (AllToAll, 1_000_003),
            (AllToAll, 5),
            (AllToAll, 0),
        ],
    ];
    let mut cases = 0;
    for topology in ["8", "4x2x2", "2x2x2x2", "4x8", "switch:8@100", "hier:4x4"] {
        let spec: TopologySpec = topology.parse().unwrap();
        for (name, engine) in engines() {
            for (opts_name, options) in option_sets() {
                let case = format!("{topology} {name} {opts_name}");
                assert_forms_agree(&case, spec, options, engine, &waves);
                cases += 1;
            }
        }
    }
    // The 625-node torus, with a small payload: the only full-fabric run
    // of that size left in the test suite.
    let spec: TopologySpec = "5x5x25".parse().unwrap();
    let small = [vec![(AllReduce, (64 << 10) + 7), (AllGather, 5)]];
    for (name, engine) in engines() {
        let case = format!("5x5x25 {name}");
        assert_forms_agree(&case, spec, ExecutorOptions::default(), engine, &small);
        cases += 1;
    }
    assert_eq!(cases, 6 * 6 * 5 + 6);
}

/// Per egress port of every node, from the recorded `link:` spans:
/// `(busy cycles, span count, last span end)`.
fn link_spans_per_node(ex: &CollectiveExecutor<RecordingTracer>) -> Vec<Vec<(u64, u64, u64)>> {
    let tr = ex.tracer();
    assert_eq!(tr.dropped(), 0, "trace overflowed its arena");
    let ports = ex.network().topology().ports_per_node();
    let mut per_node = vec![vec![(0, 0, 0); ports]; ex.nodes()];
    for e in tr.events() {
        if let Payload::Complete { dur } = e.payload {
            if tr.name(e.name).starts_with("link:") {
                let port = &mut per_node[e.track.pid as usize - 1][e.track.tid as usize];
                port.0 += dur;
                port.1 += 1;
                port.2 = port.2.max(e.ts + dur);
            }
        }
    }
    per_node
}

#[test]
fn a_full_fabric_all_to_all_loads_every_node_alike() {
    for topology in [
        "4x2x2", "2x2x2x2", "4x4", "8x2", "3x3", "5x3x2", "hier:4x4", "hier:3x4", "switch:8",
        "switch:6",
    ] {
        let spec: TopologySpec = topology.parse().unwrap();
        for config in [
            SystemConfig::Ace,
            SystemConfig::BaselineCommOpt,
            SystemConfig::Ideal,
        ] {
            for payload in [1_000_003, BIG] {
                let mut ex = CollectiveExecutor::new(
                    spec,
                    CollectiveOp::AllToAll,
                    ExecutorOptions::default(),
                    None,
                    config.engine(),
                    RecordingTracer::new(),
                );
                let h = ex.issue(CollectiveOp::AllToAll, payload, SimTime::ZERO);
                ex.run_until_complete(h);
                let case = format!("{topology} {config} {payload} B");
                let per_node = link_spans_per_node(&ex);
                assert!(per_node[0].iter().any(|&(busy, _, _)| busy > 0), "{case}");
                for (node, ports) in per_node.iter().enumerate() {
                    assert_eq!(
                        ports, &per_node[0],
                        "{case}: node {node}'s (busy, spans, last end) per port"
                    );
                }
            }
        }
    }
}

/// An enabled tracer that records nothing. Tracing never changes a
/// result, and an enabled tracer keeps every node simulated, so attaching
/// it builds the full form of an executor or a training run.
struct Listening;

impl Tracer for Listening {
    fn enabled(&self) -> bool {
        true
    }
}

/// Asserts two training reports agree field by field, f64s by bit
/// pattern.
fn assert_reports_agree(case: &str, one: &IterationReport, full: &IterationReport) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let opt_bits = |v: Option<f64>| v.map(f64::to_bits);
    assert_eq!(one.workload, full.workload, "{case}");
    assert_eq!(one.config, full.config, "{case}");
    assert_eq!(one.nodes, full.nodes, "{case}");
    assert_eq!(one.iterations, full.iterations, "{case}");
    assert_eq!(one.total_cycles, full.total_cycles, "{case}: total");
    assert_eq!(one.compute_cycles, full.compute_cycles, "{case}: compute");
    assert_eq!(
        one.exposed_comm_cycles, full.exposed_comm_cycles,
        "{case}: exposed"
    );
    assert_eq!(
        bits(&one.compute_series),
        bits(&full.compute_series),
        "{case}: compute series"
    );
    assert_eq!(
        bits(&one.network_series),
        bits(&full.network_series),
        "{case}: network series"
    );
    assert_eq!(
        opt_bits(one.ace_util_fwd),
        opt_bits(full.ace_util_fwd),
        "{case}"
    );
    assert_eq!(
        opt_bits(one.ace_util_bwd),
        opt_bits(full.ace_util_bwd),
        "{case}"
    );
    assert_eq!(one.ace_busy_cycles, full.ace_busy_cycles, "{case}");
    assert_eq!(
        one.comm_mem_traffic_bytes, full.comm_mem_traffic_bytes,
        "{case}: comm memory traffic"
    );
    assert_eq!(
        one.network_bytes, full.network_bytes,
        "{case}: network bytes"
    );
    assert_eq!(one.past_schedules, full.past_schedules, "{case}");
    assert_eq!(one.attribution, full.attribution, "{case}: attribution");
}

#[test]
fn one_node_training_runs_equal_the_full_fabric_bit_for_bit() {
    let topo: TopologySpec = "4x2x2".parse().unwrap();
    let pipeline = Workload::transformer_lm()
        .with_parallelism(Parallelism::Pipeline {
            stages: 4,
            microbatches: 4,
            schedule: PipeSchedule::OneFOneB,
        })
        .unwrap();
    let dlrm = Workload::dlrm(topo.nodes());
    let runs = [
        (
            "resnet50",
            SystemConfig::Ace,
            &Workload::resnet50(),
            false,
            "det",
        ),
        (
            "gnmt",
            SystemConfig::BaselineCommOpt,
            &Workload::gnmt(),
            false,
            "det",
        ),
        (
            "transformer@pipeline@1f1b",
            SystemConfig::Ace,
            &pipeline,
            false,
            "det",
        ),
        (
            "resnet50 lognormal:0.3",
            SystemConfig::BaselineCompOpt,
            &Workload::resnet50(),
            false,
            "lognormal:0.3",
        ),
        (
            "dlrm CompOpt",
            SystemConfig::BaselineCompOpt,
            &dlrm,
            false,
            "det",
        ),
        (
            "dlrm CompOpt optimized",
            SystemConfig::BaselineCompOpt,
            &dlrm,
            true,
            "det",
        ),
        ("dlrm ACE", SystemConfig::Ace, &dlrm, false, "det"),
        ("dlrm ACE optimized", SystemConfig::Ace, &dlrm, true, "det"),
    ];
    for (case, config, workload, optimized, straggler) in runs {
        let spec = || {
            let conditions = crate::RunConditions {
                straggler: straggler.parse().unwrap(),
                ..Default::default()
            };
            let program = training_program(config, workload, 2, optimized);
            TrainSpec::new(config, program, topo).conditions(conditions)
        };
        let one = spec().build().unwrap();
        assert_eq!(one.simulated_nodes(), 1, "{case}");
        let full = spec().tracer(Listening).build().unwrap();
        assert_eq!(full.simulated_nodes(), topo.nodes(), "{case}");
        assert_reports_agree(case, &one.run(), &full.run());
    }
}

/// A serving round's shape: two pipeline stages, each all-reducing its
/// activations and handing them on with a send-recv.
fn serving_round() -> Program {
    let mut p = Program::new(
        "serving-round",
        Parallelism::Pipeline {
            stages: 2,
            microbatches: 1,
            schedule: PipeSchedule::GPipe,
        },
        1,
    );
    let mut handoff = Vec::new();
    for stage in 0..2 {
        let kernel = KernelDesc::new(format!("serve-s{stage}"), 1e9, 1e7);
        let c = p.add_compute_on(stage, kernel, TaskPhase::Forward, 0, handoff);
        p.add_collective_on(
            stage,
            CollectiveOp::AllReduce,
            1 << 20,
            TaskPhase::Forward,
            0,
            vec![c],
        );
        handoff = if stage == 0 {
            vec![p.add_collective_on(
                stage,
                CollectiveOp::SendRecv,
                1 << 18,
                TaskPhase::Forward,
                0,
                vec![c],
            )]
        } else {
            Vec::new()
        };
    }
    p
}

#[test]
fn one_node_form_is_chosen_exactly_when_the_run_is_symmetric() {
    let torus: TopologySpec = "4x2x2".parse().unwrap();
    let n = torus.nodes();
    let collective = |op| RunSpec::new(torus, EngineKind::Ideal, op, 1 << 20);
    let simulated = |spec: RunSpec| spec.run_counted().unwrap().2;
    let train = |workload: &Workload| {
        let config = SystemConfig::Ace;
        TrainSpec::new(config, training_program(config, workload, 1, false), torus)
    };

    // Symmetric: any collective on a pristine fabric, untraced.
    assert_eq!(simulated(collective(CollectiveOp::AllReduce)), 1);
    assert_eq!(simulated(collective(CollectiveOp::SendRecv)), 1);
    assert_eq!(simulated(collective(CollectiveOp::AllToAll)), 1);
    assert_eq!(
        train(&Workload::resnet50())
            .build()
            .unwrap()
            .simulated_nodes(),
        1
    );
    assert_eq!(
        train(&Workload::dlrm(n)).build().unwrap().simulated_nodes(),
        1
    );
    let round = TrainSpec::new(SystemConfig::Ace, serving_round(), torus);
    assert_eq!(round.build().unwrap().simulated_nodes(), 1);
    // Stragglers only rescale the shared program.
    let stretched = train(&Workload::resnet50()).conditions(crate::RunConditions {
        straggler: "lognormal:0.3".parse().unwrap(),
        ..Default::default()
    });
    assert_eq!(stretched.build().unwrap().simulated_nodes(), 1);

    // Every node simulated: faults, contention, tracing.
    for op in [CollectiveOp::AllReduce, CollectiveOp::AllToAll] {
        let killed = collective(op).faults("kill:1@seed:42".parse().unwrap());
        assert_eq!(simulated(killed), n, "{op:?}");
        let contended = collective(op).contention("uniform:8".parse().unwrap());
        assert_eq!(simulated(contended), n, "{op:?}");
        let traced = collective(op).traced().run_counted().unwrap();
        assert_eq!(traced.2, n, "{op:?}");
    }
    let killed_training = train(&Workload::resnet50()).faults("kill:1@seed:42".parse().unwrap());
    assert_eq!(killed_training.build().unwrap().simulated_nodes(), n);
    let traced_training = train(&Workload::resnet50()).tracer(RecordingTracer::new());
    assert_eq!(traced_training.build().unwrap().simulated_nodes(), n);
}
