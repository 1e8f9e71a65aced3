//! Collective operations and their topology-aware execution plans.

use std::fmt;

use ace_net::{LinkClass, Topology, TopologySpec};

/// The four collective operations of DNN training (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveOp {
    /// Sum-reduce all data so every node holds the full reduced payload.
    /// Dominant in data-parallel training (weight-gradient exchange).
    AllReduce,
    /// Reduce all data, leaving each node one scattered share.
    ReduceScatter,
    /// Gather scattered shares so every node holds all data.
    AllGather,
    /// Each node sends a distinct slice to every other node. Used for
    /// embedding exchange in recommendation models (DLRM).
    AllToAll,
    /// Neighbor exchange: every node pushes its full payload one hop to
    /// its successor along the outermost (scale-out) fabric dimension.
    /// Models the stage-boundary point-to-point activation/gradient
    /// transfers of pipeline-parallel schedules, where consecutive
    /// pipeline stages are mapped to consecutive positions of the
    /// slowest-changing dimension.
    SendRecv,
}

impl fmt::Display for CollectiveOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollectiveOp::AllReduce => "all-reduce",
            CollectiveOp::ReduceScatter => "reduce-scatter",
            CollectiveOp::AllGather => "all-gather",
            CollectiveOp::AllToAll => "all-to-all",
            CollectiveOp::SendRecv => "send-recv",
        };
        f.write_str(s)
    }
}

impl ace_toml::Spelling for CollectiveOp {
    const WHAT: &'static str = "op";

    fn keywords() -> &'static [&'static str] {
        &[
            "all-reduce",
            "reduce-scatter",
            "all-gather",
            "all-to-all",
            "send-recv",
        ]
    }

    fn spellings() -> &'static str {
        "all-reduce, reduce-scatter, all-gather, all-to-all, send-recv"
    }

    /// Accepts hyphen/underscore/bare spellings (`all-reduce`,
    /// `all_reduce`, `allreduce` all work).
    fn parse_spelling(s: &str) -> Result<Self, ace_toml::SpellingError> {
        match s
            .trim()
            .to_ascii_lowercase()
            .replace(['-', '_'], "")
            .as_str()
        {
            "allreduce" => Ok(CollectiveOp::AllReduce),
            "reducescatter" => Ok(CollectiveOp::ReduceScatter),
            "allgather" => Ok(CollectiveOp::AllGather),
            "alltoall" => Ok(CollectiveOp::AllToAll),
            "sendrecv" => Ok(CollectiveOp::SendRecv),
            _ => Err(ace_toml::SpellingError::Unknown),
        }
    }
}

impl std::str::FromStr for CollectiveOp {
    type Err = String;

    /// Parses a spec-file op name via the shared [`ace_toml::Spelling`]
    /// trait; unknown names get a did-you-mean hint.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        use ace_toml::Spelling;
        CollectiveOp::from_spelling(s)
    }
}

/// The algorithm run within one phase of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Ring reduce-scatter over the phase dimension. On a ring of size 2
    /// this is one halving exchange — the building block of
    /// halving-doubling on switch topologies.
    ReduceScatter,
    /// Ring all-gather over the phase dimension (a doubling exchange on
    /// rings of size 2).
    AllGather,
    /// Ring all-reduce (reduce-scatter + all-gather) over the phase
    /// dimension.
    RingAllReduce,
    /// Direct all-to-all across the whole fabric (single phase).
    DirectAllToAll,
}

impl fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PhaseKind::ReduceScatter => "reduce-scatter",
            PhaseKind::AllGather => "all-gather",
            PhaseKind::RingAllReduce => "ring-all-reduce",
            PhaseKind::DirectAllToAll => "direct-all-to-all",
        };
        f.write_str(s)
    }
}

/// The fabric footprint of one phase: either a single topology dimension
/// (ring phases) or every port at once (global phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseLink {
    /// A ring phase over topology dimension `index`, riding links of
    /// `class`.
    Dim {
        /// Index into [`Topology::dims`].
        index: u8,
        /// Link technology of the dimension.
        class: LinkClass,
    },
    /// A global phase (direct all-to-all) spanning every egress port;
    /// the per-node port counts drive the SRAM-partition weight
    /// heuristic.
    Global {
        /// Intra-package egress ports per node.
        intra_ports: u8,
        /// Inter-package egress ports per node.
        inter_ports: u8,
    },
}

/// One phase of a hierarchical collective plan.
///
/// `input_fraction` is the share of the *original per-node payload* this
/// phase operates on (1.0 in the first phase; `1/L` for the inter-package
/// phases of the torus all-reduce after the local reduce-scatter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    /// Algorithm run in this phase.
    pub kind: PhaseKind,
    /// The dimension (or global footprint) the phase runs over.
    pub link: PhaseLink,
    /// Number of ring participants (or total nodes for all-to-all).
    pub ring_size: usize,
    /// Fraction of the original per-node payload entering this phase.
    pub input_fraction: f64,
}

impl PhaseSpec {
    /// The topology dimension this phase rings over; `None` for global
    /// phases.
    pub fn dim_index(&self) -> Option<usize> {
        match self.link {
            PhaseLink::Dim { index, .. } => Some(index as usize),
            PhaseLink::Global { .. } => None,
        }
    }

    /// Link class of the phase's dimension; `None` for global phases.
    pub fn link_class(&self) -> Option<LinkClass> {
        match self.link {
            PhaseLink::Dim { class, .. } => Some(class),
            PhaseLink::Global { .. } => None,
        }
    }

    /// Fraction of the original payload each node holds after this phase.
    pub fn output_fraction(&self) -> f64 {
        let k = self.ring_size as f64;
        match self.kind {
            PhaseKind::ReduceScatter => self.input_fraction / k,
            PhaseKind::AllGather => self.input_fraction * k,
            PhaseKind::RingAllReduce | PhaseKind::DirectAllToAll => self.input_fraction,
        }
    }

    /// Fraction of the original payload each node *sends to the network*
    /// during this phase (Section VI-A accounting).
    pub fn send_fraction(&self) -> f64 {
        let k = self.ring_size as f64;
        let f = self.input_fraction;
        match self.kind {
            PhaseKind::ReduceScatter => f * (k - 1.0) / k,
            PhaseKind::AllGather => f * (k - 1.0),
            PhaseKind::RingAllReduce => 2.0 * f * (k - 1.0) / k,
            PhaseKind::DirectAllToAll => f * (k - 1.0) / k,
        }
    }

    /// Number of serial ring steps in this phase.
    pub fn steps(&self) -> usize {
        match self.kind {
            PhaseKind::ReduceScatter | PhaseKind::AllGather => self.ring_size - 1,
            PhaseKind::RingAllReduce => 2 * (self.ring_size - 1),
            PhaseKind::DirectAllToAll => self.ring_size - 1,
        }
    }

    /// Whether steps of this phase perform a reduction (consume ALU /
    /// reduction memory traffic).
    pub fn reduces(&self) -> bool {
        matches!(
            self.kind,
            PhaseKind::ReduceScatter | PhaseKind::RingAllReduce
        )
    }
}

impl fmt::Display for PhaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.link {
            PhaseLink::Dim { index, .. } => {
                write!(f, "{} on d{} ring (k={})", self.kind, index, self.ring_size)
            }
            PhaseLink::Global { .. } => write!(f, "{} (n={})", self.kind, self.ring_size),
        }
    }
}

/// A topology-aware execution plan: the ordered phases a collective runs
/// through on a given fabric.
///
/// For all-reduce on the paper's torus this is the 4-phase hierarchy
/// (Section V): reduce-scatter (local) → ring all-reduce (vertical) →
/// ring all-reduce (horizontal) → all-gather (local), skipping any
/// dimension of size 1. The plan deliberately exercises the
/// high-bandwidth intra-package links with the full payload and the slow
/// inter-package links with only `1/L`-sized shards.
///
/// The same machinery plans every [`Topology`]: the leading
/// [`sandwich_dims`](Topology::sandwich_dims) dimensions reduce-scatter
/// on the way in and all-gather (in reverse order) on the way out, while
/// the remaining dimensions run ring all-reduces on the shrunken shards.
/// On a power-of-two [`Switch`](ace_net::Switch), whose dimensions are
/// all pairwise exchanges, this degenerates to recursive
/// halving-doubling; on a [`Hierarchical`](ace_net::Hierarchical) fabric
/// the scale-up crossbar takes the sandwich and the scale-out ring the
/// middle.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectivePlan {
    op: CollectiveOp,
    spec: TopologySpec,
    phases: Vec<PhaseSpec>,
}

impl CollectivePlan {
    /// Builds the plan for `op` on the topology identified by `spec`.
    pub fn for_spec(op: CollectiveOp, spec: TopologySpec) -> CollectivePlan {
        CollectivePlan::for_topology(op, spec.build().as_ref())
    }

    /// Builds the plan for `op` on `topo`.
    pub fn for_topology(op: CollectiveOp, topo: &dyn Topology) -> CollectivePlan {
        let phases = match op {
            CollectiveOp::AllReduce => Self::all_reduce_phases(topo),
            CollectiveOp::ReduceScatter => {
                Self::sweep_phases(topo, PhaseKind::ReduceScatter, false)
            }
            CollectiveOp::AllGather => Self::sweep_phases(topo, PhaseKind::AllGather, true),
            CollectiveOp::AllToAll => {
                let (intra_ports, inter_ports) = topo.global_port_profile();
                vec![PhaseSpec {
                    kind: PhaseKind::DirectAllToAll,
                    link: PhaseLink::Global {
                        intra_ports,
                        inter_ports,
                    },
                    ring_size: topo.nodes(),
                    input_fraction: 1.0,
                }]
            }
            CollectiveOp::SendRecv => {
                // One hop along the outermost populated dimension: a
                // 2-participant all-gather exchange is a single ring step
                // in which every node pushes its full payload to its
                // successor — the stage-boundary transfer of a pipeline
                // schedule mapped along the scale-out dimension.
                let dims = topo.dims();
                let dim = dims
                    .iter()
                    .rposition(|d| d.len > 1)
                    .expect("send-recv needs a fabric with at least two nodes");
                vec![PhaseSpec {
                    kind: PhaseKind::AllGather,
                    link: PhaseLink::Dim {
                        index: dim as u8,
                        class: dims[dim].class,
                    },
                    ring_size: 2,
                    input_fraction: 1.0,
                }]
            }
        };
        assert!(
            !phases.is_empty(),
            "a {}-node topology must plan at least one phase",
            topo.nodes()
        );
        CollectivePlan {
            op,
            spec: topo.spec(),
            phases,
        }
    }

    fn dim_phase(topo: &dyn Topology, kind: PhaseKind, dim: usize, frac: f64) -> PhaseSpec {
        let info = topo.dims()[dim];
        PhaseSpec {
            kind,
            link: PhaseLink::Dim {
                index: dim as u8,
                class: info.class,
            },
            ring_size: info.len,
            input_fraction: frac,
        }
    }

    /// The all-reduce hierarchy: reduce-scatter over the sandwich
    /// dimensions, ring all-reduce over the rest, all-gather back out.
    fn all_reduce_phases(topo: &dyn Topology) -> Vec<PhaseSpec> {
        let dims = topo.dims();
        let s = topo.sandwich_dims().min(dims.len());
        let sandwich: Vec<usize> = (0..s).filter(|&d| dims[d].len > 1).collect();
        let mut phases = Vec::new();
        let mut frac = 1.0;
        for &d in &sandwich {
            phases.push(Self::dim_phase(topo, PhaseKind::ReduceScatter, d, frac));
            frac /= dims[d].len as f64;
        }
        for (d, info) in dims.iter().enumerate().skip(s) {
            if info.len > 1 {
                phases.push(Self::dim_phase(topo, PhaseKind::RingAllReduce, d, frac));
            }
        }
        for &d in sandwich.iter().rev() {
            phases.push(Self::dim_phase(topo, PhaseKind::AllGather, d, frac));
            frac *= dims[d].len as f64;
        }
        phases
    }

    /// Dimension sweep for standalone reduce-scatter / all-gather.
    /// All-gather sweeps dimensions in reverse so that it exactly mirrors
    /// the reduce-scatter sweep.
    fn sweep_phases(topo: &dyn Topology, kind: PhaseKind, reverse: bool) -> Vec<PhaseSpec> {
        let dims = topo.dims();
        let mut order: Vec<usize> = (0..dims.len()).filter(|&d| dims[d].len > 1).collect();
        if reverse {
            order.reverse();
        }
        let mut phases = Vec::new();
        let mut frac = 1.0;
        for d in order {
            let k = dims[d].len;
            phases.push(Self::dim_phase(topo, kind, d, frac));
            frac = match kind {
                PhaseKind::ReduceScatter => frac / k as f64,
                PhaseKind::AllGather => frac * k as f64,
                _ => frac,
            };
        }
        phases
    }

    /// The collective this plan implements.
    pub fn op(&self) -> CollectiveOp {
        self.op
    }

    /// The topology the plan targets.
    pub fn spec(&self) -> TopologySpec {
        self.spec
    }

    /// The ordered phases.
    pub fn phases(&self) -> &[PhaseSpec] {
        &self.phases
    }

    /// Total bytes each node sends to the network for a per-node payload
    /// of `payload_bytes` (Section VI-A: 2.25 N on a 4×4×4 torus).
    pub fn bytes_sent_per_node(&self, payload_bytes: u64) -> f64 {
        self.phases
            .iter()
            .map(|p| p.send_fraction() * payload_bytes as f64)
            .sum()
    }

    /// Total serial ring steps across all phases (a latency proxy).
    pub fn total_steps(&self) -> usize {
        self.phases.iter().map(PhaseSpec::steps).sum()
    }
}

impl fmt::Display for CollectivePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {}: ", self.op, self.spec)?;
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            match p.link {
                PhaseLink::Dim { index, .. } => write!(
                    f,
                    "{} on {} ring (k={})",
                    p.kind,
                    self.spec.dim_name(index as usize),
                    p.ring_size
                )?,
                PhaseLink::Global { .. } => write!(f, "{} (n={})", p.kind, p.ring_size)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus444() -> TopologySpec {
        TopologySpec::torus3(4, 4, 4).unwrap()
    }

    #[test]
    fn all_reduce_plan_has_four_phases() {
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, torus444());
        let kinds: Vec<PhaseKind> = plan.phases().iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PhaseKind::ReduceScatter,
                PhaseKind::RingAllReduce,
                PhaseKind::RingAllReduce,
                PhaseKind::AllGather,
            ]
        );
        assert_eq!(plan.phases()[0].dim_index(), Some(0));
        assert_eq!(plan.phases()[1].dim_index(), Some(1));
        assert_eq!(plan.phases()[2].dim_index(), Some(2));
        assert_eq!(plan.phases()[3].dim_index(), Some(0));
        assert_eq!(plan.phases()[0].link_class(), Some(LinkClass::IntraPackage));
        assert_eq!(plan.phases()[1].link_class(), Some(LinkClass::InterPackage));
    }

    #[test]
    fn section_vi_a_send_fractions() {
        // 4x4x4: 3/4 N + 6/16 N + 6/16 N + 3/4 N = 2.25 N.
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, torus444());
        let fr: Vec<f64> = plan.phases().iter().map(PhaseSpec::send_fraction).collect();
        assert!((fr[0] - 0.75).abs() < 1e-12);
        assert!((fr[1] - 6.0 / 16.0).abs() < 1e-12);
        assert!((fr[2] - 6.0 / 16.0).abs() < 1e-12);
        assert!((fr[3] - 0.75).abs() < 1e-12);
        assert!((plan.bytes_sent_per_node(1 << 20) - 2.25 * (1u64 << 20) as f64).abs() < 1.0);
    }

    #[test]
    fn inter_package_phases_shrink_after_local_rs() {
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, torus444());
        assert_eq!(plan.phases()[1].input_fraction, 0.25);
        assert_eq!(plan.phases()[2].input_fraction, 0.25);
        assert_eq!(plan.phases()[3].output_fraction(), 1.0);
    }

    #[test]
    fn dimension_of_size_one_is_skipped() {
        let spec = TopologySpec::torus3(4, 1, 2).unwrap();
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
        assert!(plan.phases().iter().all(|p| p.dim_index() != Some(1)));
        assert_eq!(plan.phases().len(), 3); // RS local, AR horizontal, AG local
    }

    #[test]
    fn one_dimensional_ring_uses_single_ring_all_reduce() {
        let spec = TopologySpec::torus3(1, 8, 1).unwrap();
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
        assert_eq!(plan.phases().len(), 1);
        assert_eq!(plan.phases()[0].kind, PhaseKind::RingAllReduce);
        // Bandwidth-optimal ring all-reduce sends 2(k-1)/k of the payload.
        let sent = plan.bytes_sent_per_node(1000);
        assert!((sent - 2.0 * 7.0 / 8.0 * 1000.0).abs() < 1e-9);
    }

    #[test]
    fn all_to_all_is_single_phase() {
        let plan = CollectivePlan::for_spec(CollectiveOp::AllToAll, torus444());
        assert_eq!(plan.phases().len(), 1);
        let p = plan.phases()[0];
        assert_eq!(p.kind, PhaseKind::DirectAllToAll);
        assert_eq!(p.ring_size, 64);
        assert_eq!(
            p.link,
            PhaseLink::Global {
                intra_ports: 2,
                inter_ports: 4
            }
        );
        // Each node keeps 1/64 and sends 63/64.
        assert!((p.send_fraction() - 63.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn reduce_scatter_and_all_gather_mirror() {
        let rs = CollectivePlan::for_spec(CollectiveOp::ReduceScatter, torus444());
        let ag = CollectivePlan::for_spec(CollectiveOp::AllGather, torus444());
        assert_eq!(rs.phases().len(), 3);
        assert_eq!(ag.phases().len(), 3);
        // RS ends with 1/64 of the payload; AG ends with 64x.
        let rs_out = rs.phases().last().unwrap().output_fraction();
        assert!((rs_out - 1.0 / 64.0).abs() < 1e-12);
        let ag_out = ag.phases().last().unwrap().output_fraction();
        assert!((ag_out - 64.0).abs() < 1e-9);
        // AG sweeps dimensions in reverse order of RS.
        assert_eq!(
            rs.phases()[0].dim_index(),
            ag.phases().last().unwrap().dim_index()
        );
    }

    #[test]
    fn ring_steps() {
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, torus444());
        // (4-1) + 2(4-1) + 2(4-1) + (4-1) = 18.
        assert_eq!(plan.total_steps(), 18);
    }

    #[test]
    fn send_recv_is_one_hop_on_the_outermost_dimension() {
        let plan = CollectivePlan::for_spec(CollectiveOp::SendRecv, torus444());
        assert_eq!(plan.phases().len(), 1);
        let p = plan.phases()[0];
        assert_eq!(p.kind, PhaseKind::AllGather);
        assert_eq!(p.ring_size, 2);
        assert_eq!(p.dim_index(), Some(2), "outermost populated dimension");
        assert_eq!(p.steps(), 1);
        // The full payload crosses the wire exactly once per node.
        assert!((plan.bytes_sent_per_node(1 << 20) - (1u64 << 20) as f64).abs() < 1.0);
        // Inner-dimension-only fabric still finds a populated dimension.
        let flat = CollectivePlan::for_spec(
            CollectiveOp::SendRecv,
            TopologySpec::torus3(4, 1, 1).unwrap(),
        );
        assert_eq!(flat.phases()[0].dim_index(), Some(0));
        assert_eq!(
            "send-recv".parse::<CollectiveOp>().unwrap(),
            CollectiveOp::SendRecv
        );
    }

    #[test]
    fn reduces_flag() {
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, torus444());
        assert!(plan.phases()[0].reduces());
        assert!(plan.phases()[1].reduces());
        assert!(!plan.phases()[3].reduces());
    }

    #[test]
    fn display_is_informative() {
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, torus444());
        let s = plan.to_string();
        assert!(s.contains("all-reduce") && s.contains("->") && s.contains("local"));
    }

    #[test]
    fn switch_all_reduce_is_halving_doubling() {
        let spec: TopologySpec = "switch:16".parse().unwrap();
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
        let kinds: Vec<PhaseKind> = plan.phases().iter().map(|p| p.kind).collect();
        // 4 halving exchanges then 4 doubling exchanges.
        assert_eq!(kinds[..4], [PhaseKind::ReduceScatter; 4]);
        assert_eq!(kinds[4..], [PhaseKind::AllGather; 4]);
        assert!(plan.phases().iter().all(|p| p.ring_size == 2));
        // Fractions halve on the way in and double back out.
        assert_eq!(plan.phases()[3].input_fraction, 0.125);
        assert_eq!(plan.phases()[4].input_fraction, 1.0 / 16.0);
        assert_eq!(plan.phases()[7].output_fraction(), 1.0);
        // Halving-doubling is bandwidth-optimal: 2(n-1)/n of the payload.
        let sent = plan.bytes_sent_per_node(1 << 20);
        let optimal = 2.0 * 15.0 / 16.0 * (1u64 << 20) as f64;
        assert!((sent - optimal).abs() < 1e-6, "sent {sent} vs {optimal}");
        // And takes log2(n) exchanges each way.
        assert_eq!(plan.total_steps(), 8);
    }

    #[test]
    fn non_power_of_two_switch_falls_back_to_a_ring() {
        let spec: TopologySpec = "switch:6".parse().unwrap();
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
        assert_eq!(plan.phases().len(), 1);
        assert_eq!(plan.phases()[0].kind, PhaseKind::RingAllReduce);
        assert_eq!(plan.phases()[0].ring_size, 6);
    }

    #[test]
    fn hierarchical_plan_sandwiches_the_crossbar() {
        let spec: TopologySpec = "hier:4x8".parse().unwrap();
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
        let kinds: Vec<PhaseKind> = plan.phases().iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PhaseKind::ReduceScatter,
                PhaseKind::ReduceScatter,
                PhaseKind::RingAllReduce,
                PhaseKind::AllGather,
                PhaseKind::AllGather,
            ]
        );
        // The scale-out ring works on 1/4-sized shards.
        assert_eq!(plan.phases()[2].input_fraction, 0.25);
        assert_eq!(plan.phases()[2].link_class(), Some(LinkClass::InterPackage));
        assert_eq!(plan.phases()[0].link_class(), Some(LinkClass::IntraPackage));
        assert_eq!(plan.phases().last().unwrap().output_fraction(), 1.0);
    }

    #[test]
    fn two_dim_torus_plans_like_a_torus() {
        let spec: TopologySpec = "4x8".parse().unwrap();
        let plan = CollectivePlan::for_spec(CollectiveOp::AllReduce, spec);
        let kinds: Vec<PhaseKind> = plan.phases().iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PhaseKind::ReduceScatter,
                PhaseKind::RingAllReduce,
                PhaseKind::AllGather,
            ]
        );
        assert_eq!(plan.phases()[1].ring_size, 8);
        assert_eq!(plan.phases()[1].input_fraction, 0.25);
    }
}
