//! Fabric degradation: killed and degraded links, background-traffic
//! contention, and the resolved [`FaultPlan`] the simulator tiers share.
//!
//! A [`FaultSpec`] names *what breaks* — specific cables, whole nodes,
//! or `k` links chosen by a seeded splitmix64 draw — and *how badly*
//! (killed outright or degraded to a fraction of their bandwidth). A
//! [`ContentionSpec`] overlays deterministic background traffic that
//! subtracts bandwidth uniformly or around one hotspot node,
//! generalizing the paper's Fig. 4 contention study into a sweep axis.
//!
//! Both specs are *declarative identities*: they parse from (and print
//! back to) canonical spellings so they can sit in sweep grids and cache
//! keys. [`FaultPlan::resolve`] turns them into per-link facts against a
//! concrete [`Topology`]: which egress links are dead, the surviving
//! bandwidth multiplier of every other link, BFS detour routes around
//! each killed ring hop, and the α–β slowdown terms the analytic tier
//! mirrors. Resolution fails loudly — a spec that disconnects the fabric
//! or saturates a link is an error, never a hang or a silently wrong
//! number.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use ace_simcore::{FxHashMap, SplitMix64};
use ace_toml::{Spelling, SpellingError};

use crate::link::Port;
use crate::network::NetworkParams;
use crate::topo::{Hop, NodeId, Route, Topology};

/// What one fault clause targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// The cable(s) directly joining two named nodes (both directions).
    Link {
        /// One endpoint (normalized to the smaller id).
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// Every link incident to one named node. Killing a node therefore
    /// always partitions it off — resolution reports
    /// [`FaultError::Disconnected`], the operator signal that the job
    /// cannot run without that node.
    Node(u32),
    /// `count` point-to-point cables drawn without replacement by a
    /// seeded Fisher–Yates pass over the canonical cable list. Crossbar
    /// uplinks are excluded from the draw (killing one is a node
    /// failure, not a cable failure).
    Random {
        /// Cables to pick.
        count: u32,
        /// splitmix64 seed for the draw.
        seed: u64,
    },
}

/// One clause of a [`FaultSpec`]: a target plus the fraction of its
/// bandwidth lost (`1.0` = killed).
#[derive(Debug, Clone, Copy)]
pub struct FaultClause {
    /// Fraction of bandwidth lost, in `(0, 1]`; exactly `1.0` kills.
    pub loss: f64,
    /// What the loss applies to.
    pub target: FaultTarget,
}

impl PartialEq for FaultClause {
    fn eq(&self, other: &Self) -> bool {
        self.loss.to_bits() == other.loss.to_bits() && self.target == other.target
    }
}

impl Eq for FaultClause {}

impl Hash for FaultClause {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.loss.to_bits().hash(state);
        self.target.hash(state);
    }
}

/// A declarative fault scenario: an ordered list of clauses applied in
/// spelling order. Spellings (joined with `+`):
///
/// * `none` — the pristine fabric;
/// * `kill:K` / `kill:K@seed:S` — kill `K` random cables (seed defaults
///   to 1);
/// * `kill:link:A-B` — kill the cable(s) between nodes `A` and `B`;
/// * `kill:node:N` — kill every link at node `N` (always reported as a
///   disconnection);
/// * `degrade:PCT:K[@seed:S]` / `degrade:PCT:link:A-B` /
///   `degrade:PCT:node:N` — same targets, losing `PCT`% of bandwidth
///   (0 < PCT < 100) instead of dying.
///
/// `Display` prints the canonical form (seeds made explicit, link
/// endpoints ordered), which re-parses to an equal value — the property
/// sweep cache keys rely on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FaultSpec {
    clauses: Vec<FaultClause>,
}

impl FaultSpec {
    /// The pristine fabric: no clauses.
    pub fn none() -> FaultSpec {
        FaultSpec::default()
    }

    /// Whether this spec changes nothing.
    pub fn is_none(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The clauses, in application order.
    pub fn clauses(&self) -> &[FaultClause] {
        &self.clauses
    }
}

/// Prints a percentage so that `Display` → parse round-trips bit-exactly
/// (Rust's shortest-representation float formatting guarantees this).
fn fmt_pct(loss: f64) -> String {
    format!("{}", loss * 100.0)
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return f.write_str("none");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            let kill = c.loss >= 1.0;
            if kill {
                f.write_str("kill:")?;
            } else {
                write!(f, "degrade:{}:", fmt_pct(c.loss))?;
            }
            match c.target {
                FaultTarget::Link { a, b } => write!(f, "link:{a}-{b}")?,
                FaultTarget::Node(n) => write!(f, "node:{n}")?,
                FaultTarget::Random { count, seed } => write!(f, "{count}@seed:{seed}")?,
            }
        }
        Ok(())
    }
}

/// Parses the target part shared by `kill:` and `degrade:PCT:` clauses.
fn parse_target(body: &str) -> Result<FaultTarget, SpellingError> {
    let bad = |msg: String| SpellingError::Invalid(msg);
    if let Some(rest) = body.strip_prefix("link:") {
        let (a, b) = rest
            .split_once('-')
            .ok_or_else(|| bad(format!("fault link target '{rest}' is not A-B")))?;
        let a: u32 = a
            .trim()
            .parse()
            .map_err(|_| bad(format!("bad fault link endpoint '{a}'")))?;
        let b: u32 = b
            .trim()
            .parse()
            .map_err(|_| bad(format!("bad fault link endpoint '{b}'")))?;
        if a == b {
            return Err(bad(format!("fault link {a}-{b} joins a node to itself")));
        }
        return Ok(FaultTarget::Link {
            a: a.min(b),
            b: a.max(b),
        });
    }
    if let Some(rest) = body.strip_prefix("node:") {
        let n: u32 = rest
            .trim()
            .parse()
            .map_err(|_| bad(format!("bad fault node '{rest}'")))?;
        return Ok(FaultTarget::Node(n));
    }
    let (count_s, seed) = match body.split_once('@') {
        None => (body, 1u64),
        Some((c, s)) => {
            let s = s
                .strip_prefix("seed:")
                .ok_or_else(|| bad(format!("expected @seed:S after fault count, got '@{s}'")))?;
            let seed: u64 = s
                .trim()
                .parse()
                .map_err(|_| bad(format!("bad fault seed '{s}'")))?;
            (c, seed)
        }
    };
    let count: u32 = count_s
        .trim()
        .parse()
        .map_err(|_| bad(format!("bad fault count '{count_s}'")))?;
    Ok(FaultTarget::Random { count, seed })
}

impl Spelling for FaultSpec {
    const WHAT: &'static str = "fault spec";

    fn keywords() -> &'static [&'static str] {
        &["none", "kill", "degrade"]
    }

    fn spellings() -> &'static str {
        "none, kill:K[@seed:S], kill:link:A-B, kill:node:N, or degrade:PCT:<target>, \
         joined with '+'"
    }

    fn parse_spelling(s: &str) -> Result<FaultSpec, SpellingError> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("none") || s.is_empty() {
            return Ok(FaultSpec::none());
        }
        let mut clauses = Vec::new();
        for clause in s.split('+') {
            let clause = clause.trim();
            if let Some(body) = clause.strip_prefix("kill:") {
                clauses.push(FaultClause {
                    loss: 1.0,
                    target: parse_target(body)?,
                });
            } else if let Some(body) = clause.strip_prefix("degrade:") {
                let (pct_s, target_s) = body.split_once(':').ok_or_else(|| {
                    SpellingError::invalid(format!(
                        "degrade clause '{clause}' needs degrade:PCT:<target>"
                    ))
                })?;
                let pct: f64 = pct_s.trim().trim_end_matches('%').parse().map_err(|_| {
                    SpellingError::invalid(format!("bad degrade percent '{pct_s}'"))
                })?;
                if !(pct > 0.0 && pct < 100.0) {
                    return Err(SpellingError::invalid(format!(
                        "degrade percent must be in (0, 100), got {pct} \
                         (use kill:... for a total failure)"
                    )));
                }
                clauses.push(FaultClause {
                    loss: pct / 100.0,
                    target: parse_target(target_s)?,
                });
            } else {
                return Err(SpellingError::Unknown);
            }
        }
        Ok(FaultSpec { clauses })
    }
}

impl FromStr for FaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultSpec, String> {
        FaultSpec::from_spelling(s)
    }
}

/// Deterministic background traffic stealing fabric bandwidth — the
/// Fig. 4 contention machinery as a sweep axis. Spellings: `none`,
/// `uniform:GBPS` (every link loses `GBPS` GB/s), `hotspot:NODE@GBPS`
/// (only links incident to `NODE` lose it).
#[derive(Debug, Clone, Copy, Default)]
pub enum ContentionSpec {
    /// No background traffic.
    #[default]
    None,
    /// Every link loses this many GB/s.
    Uniform {
        /// Background bandwidth per link, GB/s.
        gbps: f64,
    },
    /// Only links touching one node lose bandwidth.
    Hotspot {
        /// The congested node.
        node: u32,
        /// Background bandwidth on its links, GB/s.
        gbps: f64,
    },
}

impl ContentionSpec {
    /// Whether this spec changes nothing.
    pub fn is_none(&self) -> bool {
        matches!(self, ContentionSpec::None)
    }
}

impl PartialEq for ContentionSpec {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ContentionSpec::None, ContentionSpec::None) => true,
            (ContentionSpec::Uniform { gbps: a }, ContentionSpec::Uniform { gbps: b }) => {
                a.to_bits() == b.to_bits()
            }
            (
                ContentionSpec::Hotspot { node: n1, gbps: a },
                ContentionSpec::Hotspot { node: n2, gbps: b },
            ) => n1 == n2 && a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for ContentionSpec {}

impl Hash for ContentionSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            ContentionSpec::None => 0u8.hash(state),
            ContentionSpec::Uniform { gbps } => {
                1u8.hash(state);
                gbps.to_bits().hash(state);
            }
            ContentionSpec::Hotspot { node, gbps } => {
                2u8.hash(state);
                node.hash(state);
                gbps.to_bits().hash(state);
            }
        }
    }
}

impl fmt::Display for ContentionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContentionSpec::None => f.write_str("none"),
            ContentionSpec::Uniform { gbps } => write!(f, "uniform:{gbps}"),
            ContentionSpec::Hotspot { node, gbps } => write!(f, "hotspot:{node}@{gbps}"),
        }
    }
}

impl Spelling for ContentionSpec {
    const WHAT: &'static str = "contention spec";

    fn keywords() -> &'static [&'static str] {
        &["none", "uniform", "hotspot"]
    }

    fn spellings() -> &'static str {
        "none, uniform:GBPS, or hotspot:NODE@GBPS"
    }

    fn parse_spelling(s: &str) -> Result<ContentionSpec, SpellingError> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("none") || s.is_empty() {
            return Ok(ContentionSpec::None);
        }
        if let Some(g) = s.strip_prefix("uniform:") {
            let gbps: f64 = g
                .trim()
                .parse()
                .map_err(|_| SpellingError::invalid(format!("bad contention bandwidth '{g}'")))?;
            if !(gbps.is_finite() && gbps > 0.0) {
                return Err(SpellingError::invalid(format!(
                    "contention bandwidth must be positive, got {gbps}"
                )));
            }
            return Ok(ContentionSpec::Uniform { gbps });
        }
        if let Some(body) = s.strip_prefix("hotspot:") {
            let (n, g) = body.split_once('@').ok_or_else(|| {
                SpellingError::invalid(format!("hotspot spec '{body}' needs NODE@GBPS"))
            })?;
            let node: u32 = n
                .trim()
                .parse()
                .map_err(|_| SpellingError::invalid(format!("bad hotspot node '{n}'")))?;
            let gbps: f64 = g
                .trim()
                .parse()
                .map_err(|_| SpellingError::invalid(format!("bad contention bandwidth '{g}'")))?;
            if !(gbps.is_finite() && gbps > 0.0) {
                return Err(SpellingError::invalid(format!(
                    "contention bandwidth must be positive, got {gbps}"
                )));
            }
            return Ok(ContentionSpec::Hotspot { node, gbps });
        }
        Err(SpellingError::Unknown)
    }
}

impl FromStr for ContentionSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<ContentionSpec, String> {
        ContentionSpec::from_spelling(s)
    }
}

/// Why a [`FaultSpec`]/[`ContentionSpec`] pair cannot run on a topology.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// The surviving fabric is partitioned: collectives cannot complete.
    Disconnected {
        /// Nodes unreachable from node 0.
        unreachable: usize,
        /// The lowest unreachable node id.
        example: usize,
    },
    /// Background traffic meets or exceeds a link's (possibly degraded)
    /// capacity.
    Saturated {
        /// The saturated link's node.
        node: usize,
        /// The saturated link's egress port index.
        port: u8,
        /// Capacity left after faults, GB/s.
        capacity_gbps: f64,
        /// Background traffic demanded, GB/s.
        background_gbps: f64,
    },
    /// A named link target has no direct point-to-point cable.
    NoSuchLink {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// A named node is outside the topology.
    NoSuchNode(u32),
    /// A random draw asked for more cables than the fabric has.
    NotEnoughLinks {
        /// Cables requested.
        requested: u32,
        /// Point-to-point cables available.
        available: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Disconnected {
                unreachable,
                example,
            } => write!(
                f,
                "fault spec disconnects the fabric: {unreachable} node(s) unreachable \
                 (first: npu{example}); collectives cannot complete on a partition"
            ),
            FaultError::Saturated {
                node,
                port,
                capacity_gbps,
                background_gbps,
            } => write!(
                f,
                "contention saturates npu{node} port{port}: {background_gbps} GB/s of \
                 background traffic on {capacity_gbps} GB/s of remaining capacity"
            ),
            FaultError::NoSuchLink { a, b } => write!(
                f,
                "no direct point-to-point link joins npu{a} and npu{b} \
                 (crossbar uplinks cannot be killed by name; use kill:node)"
            ),
            FaultError::NoSuchNode(n) => write!(f, "node {n} is outside the topology"),
            FaultError::NotEnoughLinks {
                requested,
                available,
            } => write!(
                f,
                "cannot fail {requested} cables: the fabric has only {available} \
                 point-to-point cables"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// One physical cable: its two directed egress links.
type Cable = ((usize, Port), (usize, Port));

/// Enumerates the fabric's point-to-point cables in canonical order
/// (dimension-major, then node): each ring hop's positive-direction
/// egress paired with the receiving node's negative-direction egress.
fn cables(topo: &dyn Topology) -> Vec<Cable> {
    let mut out = Vec::new();
    for (d, info) in topo.dims().iter().enumerate() {
        if info.len <= 1 || info.port_plus == info.port_minus {
            continue;
        }
        for node in 0..topo.nodes() {
            let peer = topo.neighbor(NodeId(node), d, true).index();
            out.push(((node, info.port_plus), (peer, info.port_minus)));
        }
    }
    out
}

/// The cables directly joining `a` and `b` (0, 1, or — on length-2
/// rings / multi-dimension adjacency — several).
fn cables_between(topo: &dyn Topology, a: usize, b: usize) -> Vec<Cable> {
    let mut out = Vec::new();
    for (d, info) in topo.dims().iter().enumerate() {
        if info.len <= 1 || info.port_plus == info.port_minus {
            continue;
        }
        if topo.neighbor(NodeId(a), d, true).index() == b {
            out.push(((a, info.port_plus), (b, info.port_minus)));
        }
        if topo.neighbor(NodeId(a), d, false).index() == b {
            out.push(((a, info.port_minus), (b, info.port_plus)));
        }
    }
    out
}

/// A [`FaultSpec`]/[`ContentionSpec`] pair resolved against one concrete
/// topology: per-link survival facts plus the derived routing and
/// analytic terms. Resolution is not free (about half a millisecond on
/// an `8x8x8` torus), so a sweep resolves each distinct pair once and
/// carries the figures its reports show on every row.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    nodes: usize,
    ports: usize,
    /// Killed directed egress links, as `(node, port_index)`.
    killed: BTreeSet<(usize, u8)>,
    /// Per-directed-link bandwidth multiplier, `links[node*ports+port]`;
    /// 1.0 = pristine. Meaningless for killed links.
    scale: Vec<f64>,
    /// BFS detour route for each killed ring hop, keyed by
    /// `(dim, plus, node)`.
    detours: FxHashMap<(usize, bool, usize), Route>,
    /// Per-dimension α–β slowdown: worst surviving-link load divided by
    /// its bandwidth multiplier, relative to the pristine 1×.
    dim_slowdowns: Vec<f64>,
    /// Worst-link slowdown fabric-wide, for global (all-to-all) phases.
    global_slowdown: f64,
    /// Physical cables fully killed.
    failed_links: usize,
    /// Fabric-aggregate bandwidth lost, percent.
    degradation_pct: f64,
}

impl FaultPlan {
    /// Resolves `faults` + `contention` against `topo`, validating that
    /// the surviving fabric is connected and no link is saturated.
    /// `net` supplies per-link capacities for the contention check.
    pub fn resolve(
        topo: &dyn Topology,
        net: &NetworkParams,
        faults: &FaultSpec,
        contention: &ContentionSpec,
    ) -> Result<FaultPlan, FaultError> {
        let nodes = topo.nodes();
        let ports = topo.ports_per_node();
        let mut plan = FaultPlan {
            nodes,
            ports,
            killed: BTreeSet::new(),
            scale: vec![1.0; nodes * ports],
            detours: FxHashMap::default(),
            dim_slowdowns: vec![1.0; topo.dims().len()],
            global_slowdown: 1.0,
            failed_links: 0,
            degradation_pct: 0.0,
        };

        for clause in faults.clauses() {
            plan.apply_clause(topo, clause)?;
        }
        plan.apply_contention(topo, net, contention)?;
        plan.check_connectivity(topo)?;
        plan.plan_detours(topo);
        plan.compute_slowdowns(topo);
        plan.compute_degradation(topo, net);
        Ok(plan)
    }

    /// Resolves the pristine plan (convenience for callers that always
    /// thread a plan).
    pub fn pristine(topo: &dyn Topology, net: &NetworkParams) -> FaultPlan {
        FaultPlan::resolve(topo, net, &FaultSpec::none(), &ContentionSpec::None)
            .expect("the pristine fabric resolves")
    }

    fn idx(&self, node: usize, port: Port) -> usize {
        node * self.ports + port.index()
    }

    fn apply_cable(&mut self, cable: Cable, loss: f64) {
        let ((a, pa), (b, pb)) = cable;
        if loss >= 1.0 {
            let fresh = self.killed.insert((a, pa.index() as u8));
            self.killed.insert((b, pb.index() as u8));
            if fresh {
                self.failed_links += 1;
            }
        } else {
            let ia = self.idx(a, pa);
            let ib = self.idx(b, pb);
            self.scale[ia] *= 1.0 - loss;
            self.scale[ib] *= 1.0 - loss;
        }
    }

    fn apply_clause(
        &mut self,
        topo: &dyn Topology,
        clause: &FaultClause,
    ) -> Result<(), FaultError> {
        let nodes = self.nodes;
        match clause.target {
            FaultTarget::Link { a, b } => {
                if a as usize >= nodes {
                    return Err(FaultError::NoSuchNode(a));
                }
                if b as usize >= nodes {
                    return Err(FaultError::NoSuchNode(b));
                }
                let found = cables_between(topo, a as usize, b as usize);
                if found.is_empty() {
                    return Err(FaultError::NoSuchLink { a, b });
                }
                for c in found {
                    self.apply_cable(c, clause.loss);
                }
            }
            FaultTarget::Node(n) => {
                if n as usize >= nodes {
                    return Err(FaultError::NoSuchNode(n));
                }
                let n = n as usize;
                // Point-to-point cables at n, both directions.
                let mut handled = BTreeSet::new();
                for (d, info) in topo.dims().iter().enumerate() {
                    if info.len <= 1 || info.port_plus == info.port_minus {
                        continue;
                    }
                    for plus in [true, false] {
                        let (p_out, p_in) = if plus {
                            (info.port_plus, info.port_minus)
                        } else {
                            (info.port_minus, info.port_plus)
                        };
                        let peer = topo.neighbor(NodeId(n), d, plus).index();
                        self.apply_cable(((n, p_out), (peer, p_in)), clause.loss);
                        handled.insert(p_out.index());
                    }
                }
                // Remaining live ports are fan-out uplinks: the loss
                // lands on the node's own egress.
                for p in 0..self.ports {
                    let port = Port::from_index(p);
                    if handled.contains(&p) || topo.port_class(port).is_none() {
                        continue;
                    }
                    if clause.loss >= 1.0 {
                        if self.killed.insert((n, p as u8)) {
                            self.failed_links += 1;
                        }
                    } else {
                        let i = self.idx(n, port);
                        self.scale[i] *= 1.0 - clause.loss;
                    }
                }
            }
            FaultTarget::Random { count, seed } => {
                let mut pool = cables(topo);
                if count as usize > pool.len() {
                    return Err(FaultError::NotEnoughLinks {
                        requested: count,
                        available: pool.len(),
                    });
                }
                // Partial Fisher–Yates: the first `count` slots are a
                // uniform sample, deterministic for a seed.
                let mut rng = SplitMix64::new(seed);
                for i in 0..count as usize {
                    let j = i + (rng.next_u64() % (pool.len() - i) as u64) as usize;
                    pool.swap(i, j);
                    self.apply_cable(pool[i], clause.loss);
                }
            }
        }
        Ok(())
    }

    fn apply_contention(
        &mut self,
        topo: &dyn Topology,
        net: &NetworkParams,
        contention: &ContentionSpec,
    ) -> Result<(), FaultError> {
        if contention.is_none() {
            return Ok(());
        }
        for node in 0..self.nodes {
            for p in 0..self.ports {
                let port = Port::from_index(p);
                let Some(params) = topo.link_params_for(port, net) else {
                    continue;
                };
                if self.killed.contains(&(node, p as u8)) {
                    continue;
                }
                let sub = match *contention {
                    ContentionSpec::None => 0.0,
                    ContentionSpec::Uniform { gbps } => gbps,
                    ContentionSpec::Hotspot { node: h, gbps } => {
                        let h = h as usize;
                        if h >= self.nodes {
                            return Err(FaultError::NoSuchNode(h as u32));
                        }
                        let incident = node == h
                            || topo.link_peer(NodeId(node), port) == Some(NodeId(h))
                            || topo.fanout_peers(NodeId(node), port).contains(&NodeId(h));
                        if incident {
                            gbps
                        } else {
                            0.0
                        }
                    }
                };
                if sub <= 0.0 {
                    continue;
                }
                let i = self.idx(node, port);
                let capacity = params.bandwidth_gbps * self.scale[i];
                if capacity - sub <= 0.0 {
                    return Err(FaultError::Saturated {
                        node,
                        port: p as u8,
                        capacity_gbps: capacity,
                        background_gbps: sub,
                    });
                }
                self.scale[i] = (capacity - sub) / params.bandwidth_gbps;
            }
        }
        Ok(())
    }

    /// The nodes adjacent to `node` over surviving links, with the
    /// egress port used, in deterministic (port-major, then peer) order.
    fn surviving_edges(&self, topo: &dyn Topology, node: usize) -> Vec<(Port, usize)> {
        let mut out = Vec::new();
        for p in 0..self.ports {
            let port = Port::from_index(p);
            if topo.port_class(port).is_none() || self.killed.contains(&(node, p as u8)) {
                continue;
            }
            if let Some(peer) = topo.link_peer(NodeId(node), port) {
                out.push((port, peer.index()));
            } else {
                // Fan-out uplinks are bidirectional in the crossbar: a
                // peer whose own uplink is dead is unreachable.
                for peer in topo.fanout_peers(NodeId(node), port) {
                    if !self.killed.contains(&(peer.index(), p as u8)) {
                        out.push((port, peer.index()));
                    }
                }
            }
        }
        out
    }

    fn check_connectivity(&self, topo: &dyn Topology) -> Result<(), FaultError> {
        let mut seen = vec![false; self.nodes];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        let mut reached = 1usize;
        while let Some(node) = queue.pop_front() {
            for (_, peer) in self.surviving_edges(topo, node) {
                if !seen[peer] {
                    seen[peer] = true;
                    reached += 1;
                    queue.push_back(peer);
                }
            }
        }
        if reached == self.nodes {
            return Ok(());
        }
        let example = seen.iter().position(|s| !s).expect("some node unseen");
        Err(FaultError::Disconnected {
            unreachable: self.nodes - reached,
            example,
        })
    }

    /// Deterministic BFS shortest path over surviving links. `None` only
    /// on a disconnected fabric, which [`resolve`](FaultPlan::resolve)
    /// rejects up front.
    pub fn route_around(&self, topo: &dyn Topology, src: NodeId, dst: NodeId) -> Option<Route> {
        if src == dst {
            return Some(Vec::new());
        }
        let mut parent: Vec<Option<(usize, Port)>> = vec![None; self.nodes];
        let mut seen = vec![false; self.nodes];
        seen[src.index()] = true;
        let mut queue = VecDeque::from([src.index()]);
        'bfs: while let Some(node) = queue.pop_front() {
            for (port, peer) in self.surviving_edges(topo, node) {
                if seen[peer] {
                    continue;
                }
                seen[peer] = true;
                parent[peer] = Some((node, port));
                if peer == dst.index() {
                    break 'bfs;
                }
                queue.push_back(peer);
            }
        }
        if !seen[dst.index()] {
            return None;
        }
        let mut hops = Vec::new();
        let mut cur = dst.index();
        while cur != src.index() {
            let (prev, port) = parent[cur].expect("parent chain reaches src");
            hops.push(Hop {
                from: NodeId(prev),
                port,
                to: NodeId(cur),
            });
            cur = prev;
        }
        hops.reverse();
        Some(hops)
    }

    fn plan_detours(&mut self, topo: &dyn Topology) {
        let dims: Vec<_> = topo.dims().to_vec();
        for (d, info) in dims.iter().enumerate() {
            if info.len <= 1 || info.port_plus == info.port_minus {
                continue;
            }
            for plus in [true, false] {
                let port = if plus {
                    info.port_plus
                } else {
                    info.port_minus
                };
                for node in 0..self.nodes {
                    if !self.killed.contains(&(node, port.index() as u8)) {
                        continue;
                    }
                    let dst = topo.neighbor(NodeId(node), d, plus);
                    let route = self
                        .route_around(topo, NodeId(node), dst)
                        .expect("connectivity was checked");
                    self.detours.insert((d, plus, node), route);
                }
            }
        }
    }

    fn compute_slowdowns(&mut self, topo: &dyn Topology) {
        for (d, info) in topo.dims().iter().enumerate() {
            if info.len <= 1 {
                continue;
            }
            let mut worst = 1.0f64;
            if info.port_plus == info.port_minus {
                // Fan-out dimension: the phase is paced by the slowest
                // surviving uplink.
                for node in 0..self.nodes {
                    let i = self.idx(node, info.port_plus);
                    if !self.killed.contains(&(node, info.port_plus.index() as u8)) {
                        worst = worst.max(1.0 / self.scale[i]);
                    }
                }
            } else {
                for plus in [true, false] {
                    let port = if plus {
                        info.port_plus
                    } else {
                        info.port_minus
                    };
                    // Unit load per pristine ring hop; detours spread a
                    // killed hop's unit across every link they traverse.
                    let mut load: FxHashMap<(usize, u8), f64> = FxHashMap::default();
                    for node in 0..self.nodes {
                        match self.detours.get(&(d, plus, node)) {
                            None => {
                                *load.entry((node, port.index() as u8)).or_insert(0.0) += 1.0;
                            }
                            Some(route) => {
                                for hop in route {
                                    *load
                                        .entry((hop.from.index(), hop.port.index() as u8))
                                        .or_insert(0.0) += 1.0;
                                }
                            }
                        }
                    }
                    for (&(node, p), &l) in &load {
                        let s = self.scale[node * self.ports + p as usize];
                        worst = worst.max(l / s);
                    }
                }
            }
            self.dim_slowdowns[d] = worst;
        }
        let mut global = 1.0f64;
        for node in 0..self.nodes {
            for p in 0..self.ports {
                if topo.port_class(Port::from_index(p)).is_none()
                    || self.killed.contains(&(node, p as u8))
                {
                    continue;
                }
                global = global.max(1.0 / self.scale[node * self.ports + p]);
            }
        }
        self.global_slowdown = global;
    }

    fn compute_degradation(&mut self, topo: &dyn Topology, net: &NetworkParams) {
        let (mut total, mut surviving) = (0.0f64, 0.0f64);
        for node in 0..self.nodes {
            for p in 0..self.ports {
                let port = Port::from_index(p);
                let Some(params) = topo.link_params_for(port, net) else {
                    continue;
                };
                total += params.bandwidth_gbps;
                if !self.killed.contains(&(node, p as u8)) {
                    surviving += params.bandwidth_gbps * self.scale[node * self.ports + p];
                }
            }
        }
        self.degradation_pct = if total > 0.0 {
            100.0 * (1.0 - surviving / total)
        } else {
            0.0
        };
    }

    /// Whether the plan changes nothing (no kills, every multiplier 1).
    pub fn is_pristine(&self) -> bool {
        self.killed.is_empty() && self.scale.iter().all(|&s| s == 1.0)
    }

    /// Whether any link is fully killed (degradation alone keeps the
    /// pristine routes).
    pub fn has_kills(&self) -> bool {
        !self.killed.is_empty()
    }

    /// Whether the directed link at `node`/`port` is killed.
    pub fn is_killed(&self, node: NodeId, port: Port) -> bool {
        self.killed.contains(&(node.index(), port.index() as u8))
    }

    /// The killed directed links.
    pub fn killed_links(&self) -> impl Iterator<Item = (NodeId, Port)> + '_ {
        self.killed
            .iter()
            .map(|&(n, p)| (NodeId(n), Port::from_index(p as usize)))
    }

    /// The surviving bandwidth multiplier of the directed link at
    /// `node`/`port` (1.0 = pristine).
    ///
    /// # Panics
    ///
    /// Panics if `port` is past the topology's port table.
    pub fn link_scale(&self, node: NodeId, port: Port) -> f64 {
        assert!(
            port.index() < self.ports,
            "no {port} link at {node}: the fabric has {} ports per node",
            self.ports
        );
        self.scale[self.idx(node.index(), port)]
    }

    /// The BFS detour replacing the killed ring hop out of `node` along
    /// `dim` in the `plus` direction, if that hop is killed.
    pub fn ring_detour(&self, dim: usize, plus: bool, node: NodeId) -> Option<&Route> {
        self.detours.get(&(dim, plus, node.index()))
    }

    /// Number of killed ring hops with detours planned.
    pub fn detour_count(&self) -> usize {
        self.detours.len()
    }

    /// The α–β slowdown of ring/exchange phases over dimension `dim`:
    /// the worst surviving link's load-over-bandwidth relative to the
    /// pristine fabric. 1.0 when untouched.
    pub fn dim_slowdown(&self, dim: usize) -> f64 {
        self.dim_slowdowns.get(dim).copied().unwrap_or(1.0)
    }

    /// The fabric-wide worst-link slowdown, applied to global
    /// (all-to-all) phases by the analytic tier.
    pub fn global_slowdown(&self) -> f64 {
        self.global_slowdown
    }

    /// Physical cables fully killed — the sweep report's `failed_links`
    /// column.
    pub fn failed_links(&self) -> usize {
        self.failed_links
    }

    /// Aggregate fabric bandwidth lost, percent — the sweep report's
    /// `degradation_pct` column.
    pub fn degradation_pct(&self) -> f64 {
        self.degradation_pct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::TopologySpec;

    fn resolve(topo: &str, faults: &str, contention: &str) -> Result<FaultPlan, FaultError> {
        let spec: TopologySpec = topo.parse().unwrap();
        let topo = spec.build();
        FaultPlan::resolve(
            topo.as_ref(),
            &NetworkParams::paper_default(),
            &faults.parse().unwrap(),
            &contention.parse().unwrap(),
        )
    }

    #[test]
    fn spellings_round_trip_canonically() {
        for (input, canonical) in [
            ("none", "none"),
            ("kill:2", "kill:2@seed:1"),
            ("kill:2@seed:42", "kill:2@seed:42"),
            ("kill:link:3-1", "kill:link:1-3"),
            ("kill:node:7", "kill:node:7"),
            ("degrade:50:link:0-1", "degrade:50:link:0-1"),
            ("degrade:12.5:3@seed:9", "degrade:12.5:3@seed:9"),
            (
                "kill:1@seed:2+degrade:25:node:0",
                "kill:1@seed:2+degrade:25:node:0",
            ),
        ] {
            let spec: FaultSpec = input.parse().unwrap();
            assert_eq!(spec.to_string(), canonical, "canonical form of '{input}'");
            let back: FaultSpec = spec.to_string().parse().unwrap();
            assert_eq!(back, spec, "round trip of '{input}'");
        }
        for (input, canonical) in [
            ("none", "none"),
            ("uniform:12.5", "uniform:12.5"),
            ("hotspot:3@20", "hotspot:3@20"),
        ] {
            let spec: ContentionSpec = input.parse().unwrap();
            assert_eq!(spec.to_string(), canonical);
            let back: ContentionSpec = spec.to_string().parse().unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn bad_spellings_get_unified_errors() {
        let e = "kll:2".parse::<FaultSpec>().unwrap_err();
        assert!(e.contains("unknown fault spec"), "{e}");
        assert!(e.contains("did you mean 'kill'?"), "{e}");
        let e = "degrade:150:1".parse::<FaultSpec>().unwrap_err();
        assert!(e.contains("(0, 100)"), "{e}");
        let e = "kill:link:5".parse::<FaultSpec>().unwrap_err();
        assert!(e.contains("A-B"), "{e}");
        let e = "unifrm:10".parse::<ContentionSpec>().unwrap_err();
        assert!(e.contains("did you mean 'uniform'?"), "{e}");
    }

    #[test]
    fn pristine_plan_changes_nothing() {
        let plan = resolve("4x4", "none", "none").unwrap();
        assert!(plan.is_pristine());
        assert_eq!(plan.failed_links(), 0);
        assert_eq!(plan.degradation_pct(), 0.0);
        assert_eq!(plan.detour_count(), 0);
        assert_eq!(plan.global_slowdown(), 1.0);
    }

    #[test]
    fn random_kill_is_deterministic_and_detoured() {
        let a = resolve("4x4", "kill:2@seed:42", "none").unwrap();
        let b = resolve("4x4", "kill:2@seed:42", "none").unwrap();
        assert_eq!(
            a.killed_links().collect::<Vec<_>>(),
            b.killed_links().collect::<Vec<_>>()
        );
        assert_eq!(a.failed_links(), 2);
        // Both directions of each cable die.
        assert_eq!(a.killed_links().count(), 4);
        // Every killed ring hop gets a detour over surviving links.
        assert_eq!(a.detour_count(), 4);
        assert!(a.degradation_pct() > 0.0);
        let c = resolve("4x4", "kill:2@seed:43", "none").unwrap();
        assert_ne!(
            a.killed_links().collect::<Vec<_>>(),
            c.killed_links().collect::<Vec<_>>(),
            "a different seed picks different cables"
        );
    }

    #[test]
    fn detours_avoid_killed_links_and_connect() {
        let spec: TopologySpec = "4x4".parse().unwrap();
        let topo = spec.build();
        let plan = FaultPlan::resolve(
            topo.as_ref(),
            &NetworkParams::paper_default(),
            &"kill:3@seed:7".parse().unwrap(),
            &ContentionSpec::None,
        )
        .unwrap();
        for ((d, plus, node), _) in plan.detours.iter().map(|(k, v)| (*k, v)) {
            let route = plan.ring_detour(d, plus, NodeId(node)).unwrap();
            let dst = topo.neighbor(NodeId(node), d, plus);
            assert!(!route.is_empty());
            assert_eq!(route[0].from, NodeId(node));
            assert_eq!(route.last().unwrap().to, dst);
            for hop in route {
                assert!(
                    !plan.is_killed(hop.from, hop.port),
                    "detour uses a dead link"
                );
            }
            for w in route.windows(2) {
                assert_eq!(w[0].to, w[1].from);
            }
        }
    }

    #[test]
    fn killing_a_node_reports_disconnection() {
        let e = resolve("4x4", "kill:node:5", "none").unwrap_err();
        match e {
            FaultError::Disconnected {
                unreachable,
                example,
            } => {
                assert_eq!(unreachable, 1);
                assert_eq!(example, 5);
            }
            other => panic!("expected Disconnected, got {other:?}"),
        }
        // A switch node dies with its single uplink.
        let e = resolve("switch:8", "kill:node:3", "none").unwrap_err();
        assert!(matches!(e, FaultError::Disconnected { .. }));
    }

    #[test]
    fn degrading_keeps_routes_but_slows_dimensions() {
        let plan = resolve("4x4", "degrade:50:link:0-1", "none").unwrap();
        assert!(!plan.is_pristine());
        assert!(!plan.has_kills());
        assert_eq!(plan.failed_links(), 0);
        assert_eq!(plan.detour_count(), 0);
        // Link 0->1 is dimension 0's positive hop out of node 0.
        assert!(
            (plan.dim_slowdown(0) - 2.0).abs() < 1e-9,
            "{}",
            plan.dim_slowdown(0)
        );
        assert_eq!(plan.dim_slowdown(1), 1.0);
        assert!((plan.global_slowdown() - 2.0).abs() < 1e-9);
        assert!(plan.degradation_pct() > 0.0);
    }

    #[test]
    fn contention_subtracts_bandwidth_and_saturates() {
        let plan = resolve("4x4", "none", "uniform:20").unwrap();
        assert!(!plan.is_pristine());
        // Intra links: (200-20)/200; a 4x4 torus dim 1 is inter: (25-20)/25.
        let s0 = plan.link_scale(NodeId(0), Port::from_index(0));
        assert!((s0 - 0.9).abs() < 1e-9, "{s0}");
        let s2 = plan.link_scale(NodeId(0), Port::from_index(2));
        assert!((s2 - 0.2).abs() < 1e-9, "{s2}");
        let e = resolve("4x4", "none", "uniform:25").unwrap_err();
        assert!(matches!(e, FaultError::Saturated { .. }), "{e:?}");
        // Hotspot only touches links incident to the node.
        let hot = resolve("4x4", "none", "hotspot:0@20").unwrap();
        assert!(hot.link_scale(NodeId(0), Port::from_index(0)) < 1.0);
        assert_eq!(hot.link_scale(NodeId(2), Port::from_index(0)), 1.0);
        // Node 1's minus-direction link feeds node 0: incident.
        assert!(hot.link_scale(NodeId(1), Port::from_index(1)) < 1.0);
    }

    #[test]
    fn named_link_must_exist_and_counts_scale_with_fabric() {
        let e = resolve("4x4", "kill:link:0-5", "none").unwrap_err();
        assert!(matches!(e, FaultError::NoSuchLink { a: 0, b: 5 }), "{e:?}");
        let e = resolve("4x4", "kill:99", "none").unwrap_err();
        assert!(matches!(
            e,
            FaultError::NotEnoughLinks {
                requested: 99,
                available: 32
            }
        ));
        let e = resolve("4x4", "kill:node:99", "none").unwrap_err();
        assert!(matches!(e, FaultError::NoSuchNode(99)));
        // Switch fabrics expose no point-to-point cables to the draw.
        let e = resolve("switch:8", "kill:1", "none").unwrap_err();
        assert!(matches!(e, FaultError::NotEnoughLinks { available: 0, .. }));
    }

    #[test]
    fn hierarchical_scale_out_ring_detours_the_long_way() {
        // hier:4x4: killing one scale-out hop re-routes around the ring
        // (or through a neighboring domain) without disconnecting.
        let spec: TopologySpec = "hier:4x4".parse().unwrap();
        let topo = spec.build();
        let ring_dim = topo.dims().len() - 1;
        let plan = FaultPlan::resolve(
            topo.as_ref(),
            &NetworkParams::paper_default(),
            &"kill:1@seed:5".parse().unwrap(),
            &ContentionSpec::None,
        )
        .unwrap();
        assert_eq!(plan.failed_links(), 1);
        assert_eq!(plan.detour_count(), 2);
        assert!(plan.dim_slowdown(ring_dim) > 1.0);
    }

    #[test]
    fn route_around_matches_topology_when_pristine() {
        let spec: TopologySpec = "4x4".parse().unwrap();
        let topo = spec.build();
        let plan = FaultPlan::pristine(topo.as_ref(), &NetworkParams::paper_default());
        // BFS shortest-path length equals the torus route length.
        for dst in 1..16 {
            let bfs = plan
                .route_around(topo.as_ref(), NodeId(0), NodeId(dst))
                .unwrap();
            assert_eq!(bfs.len(), topo.route(NodeId(0), NodeId(dst)).len());
        }
    }
}
