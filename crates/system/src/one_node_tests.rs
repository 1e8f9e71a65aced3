//! The one-node form of the executor against the full fabric: every
//! reported figure must agree bit for bit, and the form must be chosen
//! exactly when the run is symmetric.

use ace_collectives::{CollectiveOp, CollectivePlan};
use ace_compute::KernelDesc;
use ace_net::{NodeId, Port, TopologySpec};
use ace_simcore::SimTime;
use ace_trace::{NullTracer, PipeBusy, RecordingTracer, Tracer};
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
    gbps_per_npu: u64,
    util_busy_total: u64,
    utilization_series: Vec<u64>,
    pipes: PipeBusy,
    ace_busy_cycles: Option<u64>,
    comm_mem_traffic_bytes: u64,
    past_schedules: u64,
    /// Every port of a few nodes.
    links: Vec<LinkReading>,
}

fn meters(ex: &CollectiveExecutor, horizon: SimTime) -> Meters {
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
        gbps_per_npu: net.achieved_gbps_per_npu().to_bits(),
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

fn option_sets() -> [(&'static str, ExecutorOptions); 3] {
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
    ]
}

/// 3 MiB plus a remainder: 48 full chunks and a short trailing one.
const BIG: u64 = (3 << 20) + 12_345;

/// Issues staggered ring collectives in waves, each wave at the instant
/// the previous wave's smallest nonzero collective completes, then
/// drains them in reverse issue order. Returns every completion time and
/// the final event time.
fn drive(ex: &mut CollectiveExecutor, waves: &[Vec<(CollectiveOp, u64)>]) -> Vec<SimTime> {
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
    let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
    let weights = CollectiveExecutor::phase_weights(&plan);
    let run = |ring_only: bool| {
        let mut ex =
            CollectiveExecutor::build(spec, options, None, engine, &weights, NullTracer, ring_only);
        let expected = if ring_only { 1 } else { spec.nodes() };
        assert_eq!(ex.simulated_nodes(), expected, "{case}");
        let times = drive(&mut ex, waves);
        let horizon = *times.last().expect("drive reports the idle time");
        (times, meters(&ex, horizon))
    };
    let (full_times, full) = run(false);
    let (one_times, one) = run(true);
    assert_eq!(one_times, full_times, "{case}: completion times");
    assert_eq!(one, full, "{case}: meters");
}

#[test]
fn one_node_collectives_equal_the_full_fabric_bit_for_bit() {
    use CollectiveOp::{AllGather, AllReduce, ReduceScatter, SendRecv};
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
    assert_eq!(cases, 6 * 6 * 3 + 6);
}

/// An enabled tracer that records nothing. Tracing never changes a
/// result, and an enabled tracer keeps every node simulated, so attaching
/// it builds the full form of a training run.
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
    let runs = [
        ("resnet50", SystemConfig::Ace, Workload::resnet50(), "det"),
        (
            "gnmt",
            SystemConfig::BaselineCommOpt,
            Workload::gnmt(),
            "det",
        ),
        (
            "transformer@pipeline@1f1b",
            SystemConfig::Ace,
            pipeline,
            "det",
        ),
        (
            "resnet50 lognormal:0.3",
            SystemConfig::BaselineCompOpt,
            Workload::resnet50(),
            "lognormal:0.3",
        ),
    ];
    for (case, config, workload, straggler) in runs {
        let spec = || {
            let conditions = crate::RunConditions {
                straggler: straggler.parse().unwrap(),
                ..Default::default()
            };
            TrainSpec::new(config, training_program(config, &workload, 2, false), topo)
                .conditions(conditions)
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

    // Symmetric: ring collectives on a pristine fabric, untraced.
    assert_eq!(simulated(collective(CollectiveOp::AllReduce)), 1);
    assert_eq!(simulated(collective(CollectiveOp::SendRecv)), 1);
    assert_eq!(
        train(&Workload::resnet50())
            .build()
            .unwrap()
            .simulated_nodes(),
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

    // Every node simulated: all-to-all, faults, contention, tracing.
    assert_eq!(simulated(collective(CollectiveOp::AllToAll)), n);
    assert_eq!(
        train(&Workload::dlrm(n)).build().unwrap().simulated_nodes(),
        n
    );
    let killed = collective(CollectiveOp::AllReduce).faults("kill:1@seed:42".parse().unwrap());
    assert_eq!(simulated(killed), n);
    let contended = collective(CollectiveOp::AllReduce).contention("uniform:8".parse().unwrap());
    assert_eq!(simulated(contended), n);
    let killed_training = train(&Workload::resnet50()).faults("kill:1@seed:42".parse().unwrap());
    assert_eq!(killed_training.build().unwrap().simulated_nodes(), n);
    let traced = collective(CollectiveOp::AllReduce)
        .traced()
        .run_counted()
        .unwrap();
    assert_eq!(traced.2, n);
    let traced_training = train(&Workload::resnet50()).tracer(RecordingTracer::new());
    assert_eq!(traced_training.build().unwrap().simulated_nodes(), n);
}
