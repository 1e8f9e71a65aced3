//! The endpoint engine a collective runs on, and what a standalone
//! collective reports: [`EngineKind`] names a Table VI configuration's
//! engine or any other point of the Fig. 5 / 6 / 9a design space and
//! builds its per-node endpoint, and [`CollectiveRunReport`] is the
//! result [`RunSpec`](crate::RunSpec) returns in either tier.

use std::fmt;
use std::hash::{Hash, Hasher};

use ace_compute::NpuParams;
use ace_endpoint::{
    AceEndpoint, AceEndpointParams, BaselineEngine, BaselineParams, CollectiveEngine, IdealEndpoint,
};
use ace_engine::AceConfig;
use ace_mem::HBM_TOTAL_GBPS;
use ace_simcore::SimTime;
use ace_trace::Attribution;

/// The largest ACE SRAM, in MB, whose byte count fits `u64`.
const MAX_SRAM_MB: u64 = u64::MAX >> 20;

/// The most FSMs an ACE endpoint may have: 50× Fig. 9a's largest point
/// (20), for a slot pool of 8 KiB per endpoint.
const MAX_FSMS: usize = 1024;

/// Which endpoint engine to run: a Table VI configuration's
/// ([`SystemConfig::engine`](crate::SystemConfig::engine)) or any other
/// point of the Fig. 5 / 6 / 9a design space. Equality and hashing
/// compare the GB/s share bit for bit, so two equal engines simulate
/// identically — what sweep cache keys rely on.
#[derive(Debug, Clone, Copy)]
pub enum EngineKind {
    /// Baseline with a custom (memory GB/s, SM count) allocation. Fig. 5
    /// sweeps the former with all 80 SMs; Fig. 6 sweeps the latter with
    /// the full memory bandwidth.
    Baseline {
        /// HBM bandwidth available to communication, GB/s.
        comm_mem_gbps: f64,
        /// SMs loaned to communication.
        comm_sms: u32,
    },
    /// ACE at a Fig. 9a design-space point: a DMA memory carve-out plus
    /// the SRAM size and FSM count.
    Ace {
        /// HBM bandwidth available to the DMA engines, GB/s.
        dma_mem_gbps: f64,
        /// Scratchpad SRAM size in MB (Fig. 9a sweeps 1–8).
        sram_mb: u64,
        /// Number of programmable FSMs (Fig. 9a sweeps 4–20).
        fsms: usize,
    },
    /// The one-cycle ideal endpoint.
    Ideal,
}

impl EngineKind {
    /// Returns `self`. Kept only because the benchmark harness calls it
    /// on a sweep point's engine; the next benchmark change removes it.
    pub fn to_engine_kind(&self) -> EngineKind {
        *self
    }

    /// Checks the engine's knobs against the endpoint they are carved
    /// from (Table V): an HBM share within (0, [`HBM_TOTAL_GBPS`]] for
    /// either family, 1 to all of the NPU's SMs, at least 1 MB of SRAM
    /// whose byte count fits `u64`, and 1 to 1,024 FSMs. This is the only
    /// judge of engine knobs: [`RunSpec`](crate::RunSpec) in both tiers and
    /// the sweep's scenario validation call it, so
    /// [`endpoint`](EngineKind::endpoint) and
    /// [`endpoint_model`](crate::endpoint_model) only see engines that
    /// pass.
    ///
    /// # Errors
    ///
    /// A message naming the engine, the first knob out of range, its
    /// value and the range.
    pub fn validate(self) -> Result<(), String> {
        // A knob the family lacks takes a value every check accepts.
        let (gbps, comm_sms, sram_mb, fsms) = match self {
            EngineKind::Ideal => return Ok(()),
            EngineKind::Baseline {
                comm_mem_gbps,
                comm_sms,
            } => (comm_mem_gbps, comm_sms, 1, 1),
            EngineKind::Ace {
                dma_mem_gbps,
                sram_mb,
                fsms,
            } => (dma_mem_gbps, 1, sram_mb, fsms),
        };
        let npu_sms = NpuParams::paper_default().sms;
        let fault = if !(gbps > 0.0 && gbps <= HBM_TOTAL_GBPS) {
            format!("HBM share {gbps} GB/s is outside (0, {HBM_TOTAL_GBPS}] GB/s")
        } else if !(1..=npu_sms).contains(&comm_sms) {
            format!("comm_sms {comm_sms} is outside 1..={npu_sms}, the NPU's SMs")
        } else if !(1..=MAX_SRAM_MB).contains(&sram_mb) {
            format!("sram_mb {sram_mb} is outside 1..={MAX_SRAM_MB}, the sizes whose bytes fit u64")
        } else if !(1..=MAX_FSMS).contains(&fsms) {
            format!("fsms {fsms} is outside 1..={MAX_FSMS}")
        } else {
            return Ok(());
        };
        Err(format!("engine {self}: {fault}"))
    }

    /// Builds one node's endpoint for this engine: the only place an
    /// `EngineKind` becomes a simulated engine. `phase_weights` sizes
    /// ACE's SRAM partitions, one weight per phase of the plan the
    /// endpoint serves (see [`CollectiveExecutor::new`](crate::CollectiveExecutor::new));
    /// the baseline and ideal endpoints ignore it. The engine must pass
    /// [`validate`](EngineKind::validate); the model constructors assert
    /// what it checks.
    pub fn endpoint(self, phase_weights: &[f64]) -> Box<dyn CollectiveEngine> {
        match self {
            EngineKind::Baseline {
                comm_mem_gbps,
                comm_sms,
            } => Box::new(BaselineEngine::new(BaselineParams::custom(
                comm_mem_gbps,
                comm_sms,
            ))),
            EngineKind::Ace {
                dma_mem_gbps,
                sram_mb,
                fsms,
            } => Box::new(AceEndpoint::new(AceEndpointParams {
                config: AceConfig::with_dse_point(sram_mb, fsms),
                ..AceEndpointParams::paper_default(dma_mem_gbps, phase_weights.to_vec())
            })),
            EngineKind::Ideal => Box::new(IdealEndpoint::new()),
        }
    }
}

impl PartialEq for EngineKind {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (EngineKind::Ideal, EngineKind::Ideal) => true,
            (
                EngineKind::Baseline {
                    comm_mem_gbps: a,
                    comm_sms: b,
                },
                EngineKind::Baseline {
                    comm_mem_gbps: c,
                    comm_sms: d,
                },
            ) => a.to_bits() == c.to_bits() && b == d,
            (
                EngineKind::Ace {
                    dma_mem_gbps: a,
                    sram_mb: b,
                    fsms: c,
                },
                EngineKind::Ace {
                    dma_mem_gbps: d,
                    sram_mb: e,
                    fsms: f,
                },
            ) => a.to_bits() == d.to_bits() && b == e && c == f,
            _ => false,
        }
    }
}

impl Eq for EngineKind {}

impl Hash for EngineKind {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            EngineKind::Ideal => 0u8.hash(state),
            EngineKind::Baseline {
                comm_mem_gbps,
                comm_sms,
            } => {
                1u8.hash(state);
                comm_mem_gbps.to_bits().hash(state);
                comm_sms.hash(state);
            }
            EngineKind::Ace {
                dma_mem_gbps,
                sram_mb,
                fsms,
            } => {
                2u8.hash(state);
                dma_mem_gbps.to_bits().hash(state);
                sram_mb.hash(state);
                fsms.hash(state);
            }
        }
    }
}

/// `ideal`, `baseline[mem=450,sms=6]` or `ace[dma=128,sram=4MB,fsms=16]`:
/// the engine as sweep cell labels spell it.
impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Ideal => f.write_str("ideal"),
            EngineKind::Baseline {
                comm_mem_gbps,
                comm_sms,
            } => write!(f, "baseline[mem={comm_mem_gbps},sms={comm_sms}]"),
            EngineKind::Ace {
                dma_mem_gbps,
                sram_mb,
                fsms,
            } => write!(f, "ace[dma={dma_mem_gbps},sram={sram_mb}MB,fsms={fsms}]"),
        }
    }
}

/// Result of one single-collective run, in either tier.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveRunReport {
    /// Completion time of the collective.
    pub completion: SimTime,
    /// Completion time in cycles before rounding: the α–β tier's estimate
    /// is fractional and `completion` is it rounded to the nearest cycle;
    /// in the exact tier the two are equal.
    pub cycles: f64,
    /// Achieved per-NPU network bandwidth in GB/s (Fig. 5/6 y-axis).
    pub achieved_gbps_per_npu: f64,
    /// Per-node HBM traffic generated by the communication path, bytes.
    pub mem_traffic_bytes: u64,
    /// Total bytes the fabric carried.
    pub network_bytes: u64,
    /// Events scheduled in the past and clamped by the event queue —
    /// always zero in a correct simulation, and in the α–β tier.
    pub past_schedules: u64,
    /// Bottleneck attribution: completion cycles decomposed into per-pipe
    /// buckets that sum exactly to `completion` (compute is zero for a
    /// standalone collective). The α–β tier charges it all to the network.
    pub attribution: Attribution,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunSpec, SystemConfig};
    use ace_collectives::CollectiveOp;
    use ace_net::TopologySpec;

    fn shape16() -> TopologySpec {
        TopologySpec::torus3(4, 2, 2).unwrap()
    }

    /// A standalone collective on a pristine fabric.
    fn run_pristine(
        shape: TopologySpec,
        engine: EngineKind,
        op: CollectiveOp,
        payload_bytes: u64,
    ) -> CollectiveRunReport {
        RunSpec::new(shape, engine, op, payload_bytes)
            .run()
            .expect("pristine runs cannot fail")
    }

    const MB64: u64 = 64 << 20;

    #[test]
    fn engine_kind_identity_ignores_nan_pitfalls() {
        use std::collections::HashSet;
        let baseline = |comm_sms| EngineKind::Baseline {
            comm_mem_gbps: 450.0,
            comm_sms,
        };
        let mut set = HashSet::new();
        set.insert(baseline(6));
        assert!(set.contains(&baseline(6)));
        assert!(!set.contains(&baseline(7)));
        assert!(!set.contains(&EngineKind::Ideal));
    }

    #[test]
    fn engine_kind_display() {
        assert_eq!(EngineKind::Ideal.to_string(), "ideal");
        assert_eq!(
            EngineKind::Baseline {
                comm_mem_gbps: 450.0,
                comm_sms: 6
            }
            .to_string(),
            "baseline[mem=450,sms=6]"
        );
        assert_eq!(
            EngineKind::Ace {
                dma_mem_gbps: 128.0,
                sram_mb: 4,
                fsms: 16
            }
            .to_string(),
            "ace[dma=128,sram=4MB,fsms=16]"
        );
    }

    #[test]
    fn ideal_upper_bounds_everyone() {
        let ideal = run_pristine(
            shape16(),
            EngineKind::Ideal,
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        let base = run_pristine(
            shape16(),
            SystemConfig::BaselineCommOpt.engine(),
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        let ace = run_pristine(
            shape16(),
            SystemConfig::Ace.engine(),
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        // ACE can land within a few percent of ideal (it paces injection
        // more smoothly, which occasionally wins back link-contention
        // noise), so allow a small tolerance.
        assert!(ideal.achieved_gbps_per_npu >= base.achieved_gbps_per_npu * 0.95);
        assert!(ideal.achieved_gbps_per_npu >= ace.achieved_gbps_per_npu * 0.95);
    }

    #[test]
    fn baseline_throughput_rises_with_memory_bandwidth() {
        // The Fig. 5 monotonic shape.
        let lo = run_pristine(
            shape16(),
            EngineKind::Baseline {
                comm_mem_gbps: 64.0,
                comm_sms: 80,
            },
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        let hi = run_pristine(
            shape16(),
            EngineKind::Baseline {
                comm_mem_gbps: 450.0,
                comm_sms: 80,
            },
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        assert!(hi.achieved_gbps_per_npu > lo.achieved_gbps_per_npu * 1.5);
    }

    #[test]
    fn baseline_throughput_rises_with_sms() {
        // The Fig. 6 monotonic shape.
        let lo = run_pristine(
            shape16(),
            EngineKind::Baseline {
                comm_mem_gbps: 900.0,
                comm_sms: 1,
            },
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        let hi = run_pristine(
            shape16(),
            EngineKind::Baseline {
                comm_mem_gbps: 900.0,
                comm_sms: 6,
            },
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        assert!(hi.achieved_gbps_per_npu > lo.achieved_gbps_per_npu * 1.5);
    }

    #[test]
    fn ace_at_128_gbps_is_close_to_its_own_ceiling() {
        // Fig. 5: ACE saturates around 128 GB/s — more DMA bandwidth gives
        // little extra.
        let at128 = run_pristine(
            shape16(),
            SystemConfig::Ace.engine(),
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        let at450 = run_pristine(
            shape16(),
            EngineKind::Ace {
                dma_mem_gbps: 450.0,
                sram_mb: 4,
                fsms: 16,
            },
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        assert!(at450.achieved_gbps_per_npu < at128.achieved_gbps_per_npu * 1.25);
    }

    #[test]
    fn non_all_reduce_ops_run_with_their_own_plan() {
        // Regression: the ACE SRAM weights used to be derived from the
        // all-reduce plan regardless of `op`, stranding SRAM for the
        // single-phase all-to-all.
        for op in [
            CollectiveOp::AllToAll,
            CollectiveOp::ReduceScatter,
            CollectiveOp::AllGather,
        ] {
            let r = run_pristine(shape16(), SystemConfig::Ace.engine(), op, MB64 / 16);
            assert!(r.completion.cycles() > 0, "{op} did not complete");
            assert!(r.achieved_gbps_per_npu > 0.0, "{op} achieved no throughput");
        }
    }

    #[test]
    fn ace_dse_paper_point_matches_default_ace() {
        // Table VI's ACE is the paper's design point: building it from
        // `SystemConfig::Ace.engine()` moves no parameter of the
        // paper-default endpoint.
        let EngineKind::Ace { sram_mb, fsms, .. } = SystemConfig::Ace.engine() else {
            panic!("ACE runs the ACE engine");
        };
        assert_eq!(
            AceConfig::with_dse_point(sram_mb, fsms),
            AceConfig::paper_default()
        );
    }

    #[test]
    fn ace_dse_tiny_sram_is_slower() {
        let small = run_pristine(
            shape16(),
            EngineKind::Ace {
                dma_mem_gbps: 128.0,
                sram_mb: 1,
                fsms: 4,
            },
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        let chosen = run_pristine(
            shape16(),
            SystemConfig::Ace.engine(),
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        assert!(small.completion >= chosen.completion);
    }

    #[test]
    fn attribution_conserves_and_is_all_comm() {
        for engine in [
            EngineKind::Ideal,
            SystemConfig::Ace.engine(),
            SystemConfig::BaselineCommOpt.engine(),
        ] {
            let r = run_pristine(shape16(), engine, CollectiveOp::AllReduce, MB64 / 8);
            let a = r.attribution;
            assert!(a.conserves(), "{engine:?}: {a:?}");
            assert_eq!(a.total_cycles, r.completion.cycles());
            assert_eq!(a.compute_cycles, 0, "standalone collectives never compute");
        }
        // The ideal endpoint reports no pipe counters, so everything the
        // fabric doesn't claim lands in `other`; ACE and the baseline
        // spread the comm share across their modeled pipes.
        let ace = run_pristine(
            shape16(),
            SystemConfig::Ace.engine(),
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        assert!(ace.attribution.network_cycles > 0);
        assert!(ace.attribution.hbm_cycles > 0);
    }

    #[test]
    fn traced_run_matches_untraced_and_reconciles() {
        let engine = SystemConfig::Ace.engine();
        let plain = run_pristine(shape16(), engine, CollectiveOp::AllReduce, MB64 / 16);
        let (traced, tr) = RunSpec::new(shape16(), engine, CollectiveOp::AllReduce, MB64 / 16)
            .traced()
            .run_traced()
            .unwrap();
        assert_eq!(
            plain.completion, traced.completion,
            "tracing must not perturb the simulation"
        );
        assert_eq!(plain.network_bytes, traced.network_bytes);
        assert!(!tr.is_empty(), "the traced run must record events");
        assert_eq!(tr.dropped(), 0);
    }

    #[test]
    fn mem_traffic_ratio_matches_section_vi_a() {
        let base = run_pristine(
            shape16(),
            SystemConfig::BaselineCommOpt.engine(),
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        let ace = run_pristine(
            shape16(),
            SystemConfig::Ace.engine(),
            CollectiveOp::AllReduce,
            MB64 / 8,
        );
        let ratio = base.mem_traffic_bytes as f64 / ace.mem_traffic_bytes as f64;
        assert!(ratio > 1.8, "baseline/ACE memory traffic ratio {ratio}");
    }
}
