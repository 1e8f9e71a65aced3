//! The topology abstraction: pluggable fabric shapes behind one trait.
//!
//! [`TopologySpec`] is the *identity* of a fabric — a small, copyable,
//! hashable value that parses from and prints to the sweep-scenario
//! spelling (`4x2x2`, `4x8`, `switch:16`, `hier:4x8`). [`Topology`] is the
//! *behavior*: node/dimension structure, ring membership, neighbor and
//! route lookup, and link enumeration. Three implementations ship:
//!
//! * [`Torus`] — an arbitrary-dimension torus. Dimension 0 is the
//!   intra-package (silicon-interposer) ring, every further dimension an
//!   inter-package (NVLink-class) ring. The 3-dimension case is exactly
//!   the paper's `LxVxH` platform ([`TopologySpec::torus3`]).
//! * [`Switch`] — all nodes hang off a central crossbar through one
//!   uplink each (radix = node count, uplink bandwidth configurable via
//!   `switch:N@GBPS`). Power-of-two sizes plan all-reduce as hypercube
//!   halving-doubling; other sizes embed a ring in the crossbar.
//! * [`Hierarchical`] — a scale-up crossbar domain (intra-package links,
//!   NVSwitch-style) joined by a scale-out inter-package ring:
//!   `hier:UxO` = `U` NPUs per domain × `O` domains.
//!
//! Nodes are dense [`NodeId`]s, and [`Topology::route`] returns a
//! [`Route`]: the [`Hop`]s from source to destination.
//!
//! Collective planning consumes [`Topology::dims`] plus
//! [`Topology::sandwich_dims`]: the leading `sandwich_dims()` entries are
//! planned as a reduce-scatter … all-gather sandwich around ring
//! all-reduces over the remaining dimensions, which reproduces the
//! paper's 4-phase torus hierarchy and degenerates to halving-doubling on
//! a power-of-two switch.

use std::fmt;

use crate::link::{LinkClass, LinkParams, Port};
use crate::network::NetworkParams;

/// Identifies one NPU in the fabric.
///
/// Node ids are dense indices in `[0, nodes)`. On a torus they are laid
/// out dimension-0-major: `id = c0 + L0*(c1 + L1*(c2 + ...))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "npu{}", self.0)
    }
}

/// One hop of a route: leave `from` on egress `port`, arriving at `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Node the hop leaves from.
    pub from: NodeId,
    /// Egress port used.
    pub port: Port,
    /// Node the hop arrives at.
    pub to: NodeId,
}

/// A source-to-destination path: the hops [`Topology::route`] chose.
pub type Route = Vec<Hop>;

/// Errors constructing a [`TopologySpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeError {
    /// A dimension was zero.
    ZeroDimension,
    /// The topology has fewer than two nodes.
    TooSmall,
    /// A torus needs between 1 and [`MAX_TORUS_DIMS`] dimensions; this
    /// many were given.
    BadDimensionCount(usize),
    /// A dimension length exceeds the spec's storage width.
    DimensionTooLarge(usize),
    /// The topology's total node count overflows the address space.
    TooManyNodes,
    /// A crossbar's uplink-bandwidth override was zero GB/s.
    ZeroBandwidth,
}

/// The messages name no topology family: callers prefix the spelling
/// ("switch topology 'switch:1': …"), which already does.
impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::ZeroDimension => f.write_str("dimensions must be nonzero"),
            ShapeError::TooSmall => f.write_str("must contain at least two nodes"),
            ShapeError::BadDimensionCount(n) => {
                write!(f, "needs 1..={MAX_TORUS_DIMS} dimensions, got {n}")
            }
            ShapeError::DimensionTooLarge(n) => write!(f, "dimension {n} is too large"),
            ShapeError::TooManyNodes => f.write_str("topology node count overflows"),
            ShapeError::ZeroBandwidth => f.write_str("uplink bandwidth must be nonzero GB/s"),
        }
    }
}

impl std::error::Error for ShapeError {}

/// Maximum number of torus dimensions a [`TopologySpec`] can carry (keeps
/// the spec `Copy` for cheap cache keys).
pub const MAX_TORUS_DIMS: usize = 6;

/// The identity of a fabric: enough to rebuild the [`Topology`], cheap to
/// copy, hash and compare — the sweep layer keys caches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// An `N`-dimensional torus; `dims[..ndims]` are the ring lengths.
    Torus {
        /// Ring lengths, `dims[..ndims]` significant.
        dims: [u16; MAX_TORUS_DIMS],
        /// Number of significant dimensions.
        ndims: u8,
    },
    /// A central crossbar with one uplink per node.
    Switch {
        /// Number of endpoints (the crossbar radix).
        nodes: u32,
        /// Optional uplink bandwidth override in GB/s (defaults to the
        /// inter-package link bandwidth).
        gbps: Option<u32>,
    },
    /// A scale-up crossbar domain × a scale-out ring.
    Hierarchical {
        /// NPUs per scale-up domain.
        scale_up: u16,
        /// Number of domains on the scale-out ring.
        scale_out: u16,
    },
}

impl TopologySpec {
    /// A torus from a dimension list.
    pub fn torus(lens: &[usize]) -> Result<TopologySpec, ShapeError> {
        if lens.is_empty() || lens.len() > MAX_TORUS_DIMS {
            return Err(ShapeError::BadDimensionCount(lens.len()));
        }
        let mut dims = [0u16; MAX_TORUS_DIMS];
        let mut nodes = 1usize;
        for (i, &l) in lens.iter().enumerate() {
            if l == 0 {
                return Err(ShapeError::ZeroDimension);
            }
            if l > u16::MAX as usize {
                return Err(ShapeError::DimensionTooLarge(l));
            }
            dims[i] = l as u16;
            // Checked product: an overflowing node count must be rejected
            // here, not wrap later in `nodes()` / `Torus::new`.
            nodes = nodes.checked_mul(l).ok_or(ShapeError::TooManyNodes)?;
        }
        if nodes < 2 {
            return Err(ShapeError::TooSmall);
        }
        Ok(TopologySpec::Torus {
            dims,
            ndims: lens.len() as u8,
        })
    }

    /// The paper's 3-dimensional `LxVxH` torus. Section V evaluates
    /// `4x2x2`, `4x4x2`, `4x4x4` and `4x8x4` (16 to 128 NPUs).
    ///
    /// ```
    /// use ace_net::TopologySpec;
    /// let spec = TopologySpec::torus3(4, 8, 4).unwrap();
    /// assert_eq!(spec.nodes(), 128);
    /// assert_eq!(spec.to_string(), "4x8x4");
    /// ```
    pub fn torus3(l: usize, v: usize, h: usize) -> Result<TopologySpec, ShapeError> {
        TopologySpec::torus(&[l, v, h])
    }

    /// A crossbar switch over `nodes` endpoints.
    pub fn switch(nodes: usize) -> Result<TopologySpec, ShapeError> {
        if nodes < 2 {
            return Err(ShapeError::TooSmall);
        }
        if nodes > u32::MAX as usize {
            return Err(ShapeError::DimensionTooLarge(nodes));
        }
        Ok(TopologySpec::Switch {
            nodes: nodes as u32,
            gbps: None,
        })
    }

    /// A crossbar switch with an uplink-bandwidth override in GB/s.
    pub fn switch_with_gbps(nodes: usize, gbps: u32) -> Result<TopologySpec, ShapeError> {
        let mut s = TopologySpec::switch(nodes)?;
        if gbps == 0 {
            return Err(ShapeError::ZeroBandwidth);
        }
        if let TopologySpec::Switch { gbps: g, .. } = &mut s {
            *g = Some(gbps);
        }
        Ok(s)
    }

    /// A hierarchical fabric: `scale_up` NPUs per crossbar domain,
    /// `scale_out` domains on a ring.
    pub fn hierarchical(scale_up: usize, scale_out: usize) -> Result<TopologySpec, ShapeError> {
        if scale_up == 0 || scale_out == 0 {
            return Err(ShapeError::ZeroDimension);
        }
        if scale_up > u16::MAX as usize || scale_out > u16::MAX as usize {
            return Err(ShapeError::DimensionTooLarge(scale_up.max(scale_out)));
        }
        if scale_up * scale_out < 2 {
            return Err(ShapeError::TooSmall);
        }
        Ok(TopologySpec::Hierarchical {
            scale_up: scale_up as u16,
            scale_out: scale_out as u16,
        })
    }

    /// Total number of NPUs.
    pub fn nodes(&self) -> usize {
        match *self {
            TopologySpec::Torus { dims, ndims } => {
                dims[..ndims as usize].iter().map(|&d| d as usize).product()
            }
            TopologySpec::Switch { nodes, .. } => nodes as usize,
            TopologySpec::Hierarchical {
                scale_up,
                scale_out,
            } => scale_up as usize * scale_out as usize,
        }
    }

    /// The torus dimension lengths, when this spec is a torus.
    pub fn torus_dims(&self) -> Option<Vec<usize>> {
        match *self {
            TopologySpec::Torus { dims, ndims } => {
                Some(dims[..ndims as usize].iter().map(|&d| d as usize).collect())
            }
            _ => None,
        }
    }

    /// Human name of planning dimension `dim` (used by plan displays):
    /// `local`/`vertical`/`horizontal` on a 3-dim torus, `d2` on other
    /// tori, `x0` (exchange bit) on a switch, `up`/`out` on a
    /// hierarchical fabric.
    pub fn dim_name(&self, dim: usize) -> String {
        match *self {
            TopologySpec::Torus { ndims: 3, .. } => match dim {
                0 => "local".into(),
                1 => "vertical".into(),
                2 => "horizontal".into(),
                other => format!("d{other}"),
            },
            TopologySpec::Torus { .. } => format!("d{dim}"),
            TopologySpec::Switch { nodes, .. } => {
                if (nodes as usize).is_power_of_two() {
                    format!("x{dim}")
                } else {
                    "ring".into()
                }
            }
            TopologySpec::Hierarchical { scale_up, .. } => {
                let up_dims = scale_up_dim_count(scale_up as usize);
                if dim < up_dims {
                    if up_dims > 1 {
                        format!("up{dim}")
                    } else {
                        "up".into()
                    }
                } else {
                    "out".into()
                }
            }
        }
    }

    /// Builds the runtime [`Topology`] for this spec.
    pub fn build(&self) -> Box<dyn Topology> {
        match *self {
            TopologySpec::Torus { .. } => Box::new(Torus::new(*self)),
            TopologySpec::Switch { .. } => Box::new(Switch::new(*self)),
            TopologySpec::Hierarchical { .. } => Box::new(Hierarchical::new(*self)),
        }
    }

    /// Valid spellings, for error messages and docs.
    pub fn spellings() -> &'static str {
        "a torus 'LxV[xH[...]]' (e.g. 4x2x2, 4x8), 'switch:N' or 'switch:N@GBPS' \
         (e.g. switch:16, switch:16@100), or 'hier:UxO' (e.g. hier:4x8)"
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologySpec::Torus { dims, ndims } => {
                for (i, d) in dims[..ndims as usize].iter().enumerate() {
                    if i > 0 {
                        f.write_str("x")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
            TopologySpec::Switch { nodes, gbps: None } => write!(f, "switch:{nodes}"),
            TopologySpec::Switch {
                nodes,
                gbps: Some(g),
            } => write!(f, "switch:{nodes}@{g}"),
            TopologySpec::Hierarchical {
                scale_up,
                scale_out,
            } => write!(f, "hier:{scale_up}x{scale_out}"),
        }
    }
}

/// A `; did you mean '...'?` suffix for near-miss spellings — hoisted to
/// the shared `ace-toml` spec toolkit (workload and scenario parsers use
/// it too); re-exported here for the topology/system-config parsers.
pub use ace_toml::{did_you_mean, unknown_spelling, Spelling, SpellingError};

impl Spelling for TopologySpec {
    const WHAT: &'static str = "topology";

    fn keywords() -> &'static [&'static str] {
        &["switch", "hier", "torus"]
    }

    fn spellings() -> &'static str {
        TopologySpec::spellings()
    }

    fn parse_spelling(s: &str) -> Result<Self, SpellingError> {
        let s = s.trim();
        if let Some((kw, rest)) = s.split_once(':') {
            let kw_l = kw.trim().to_ascii_lowercase();
            return match kw_l.as_str() {
                "switch" => {
                    let (n, gbps) = match rest.split_once('@') {
                        Some((n, g)) => (n, Some(g)),
                        None => (rest, None),
                    };
                    let nodes: usize = n.trim().parse().map_err(|_| {
                        SpellingError::invalid(format!(
                            "switch topology '{s}': bad node count '{n}'"
                        ))
                    })?;
                    let spec = match gbps {
                        None => TopologySpec::switch(nodes),
                        Some(g) => {
                            let g: u32 = g.trim().parse().map_err(|_| {
                                SpellingError::invalid(format!(
                                    "switch topology '{s}': bad bandwidth '{g}'"
                                ))
                            })?;
                            TopologySpec::switch_with_gbps(nodes, g)
                        }
                    };
                    spec.map_err(|e| SpellingError::invalid(format!("switch topology '{s}': {e}")))
                }
                "hier" | "hierarchical" => {
                    let (u, o) = rest.split_once(['x', 'X']).ok_or_else(|| {
                        SpellingError::invalid(format!(
                            "hierarchical topology '{s}' must be hier:UxO"
                        ))
                    })?;
                    let parse = |d: &str| {
                        d.trim().parse::<usize>().map_err(|_| {
                            SpellingError::invalid(format!(
                                "hierarchical topology '{s}': bad size '{d}'"
                            ))
                        })
                    };
                    TopologySpec::hierarchical(parse(u)?, parse(o)?).map_err(|e| {
                        SpellingError::invalid(format!("hierarchical topology '{s}': {e}"))
                    })
                }
                "torus" => TopologySpec::parse_spelling(rest).and_then(|t| match t {
                    TopologySpec::Torus { .. } => Ok(t),
                    _ => Err(SpellingError::Unknown),
                }),
                _ => Err(SpellingError::Unknown),
            };
        }
        // No keyword: a bare torus dimension list.
        let parts: Vec<&str> = s.split(['x', 'X']).collect();
        let mut lens = Vec::with_capacity(parts.len());
        for d in &parts {
            match d.trim().parse::<usize>() {
                Ok(l) => lens.push(l),
                Err(_) => return Err(SpellingError::Unknown),
            }
        }
        TopologySpec::torus(&lens)
            .map_err(|e| SpellingError::invalid(format!("torus topology '{s}': {e}")))
    }
}

impl std::str::FromStr for TopologySpec {
    type Err = String;

    /// Parses the sweep-scenario spelling via the shared
    /// [`Spelling`] trait: errors carry the full list of valid
    /// spellings plus a did-you-mean hint for near-miss keywords.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TopologySpec::from_spelling(s)
    }
}

/// One planning dimension of a topology: a ring (or pairwise-exchange
/// group) collectives can phase over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimInfo {
    /// Ring length (number of participants).
    pub len: usize,
    /// Link technology this dimension's traffic rides on.
    pub class: LinkClass,
    /// Egress port for the positive ring direction.
    pub port_plus: Port,
    /// Egress port for the negative ring direction (may equal
    /// `port_plus` on crossbar-backed dimensions).
    pub port_minus: Port,
}

/// Fabric structure behind the network and the collective planner.
///
/// Implementations precompute their dimension table; all per-node queries
/// are O(dims) or better. The executor copies neighbor/route information
/// into flat tables at construction, so trait dispatch never sits on the
/// event hot path.
pub trait Topology: Send + Sync + fmt::Debug {
    /// The identity of this topology.
    fn spec(&self) -> TopologySpec;

    /// Total number of NPUs.
    fn nodes(&self) -> usize;

    /// Planning dimensions in phase order. Dimensions of length 1 are
    /// kept (with dead ports) so port numbering is stable; planners skip
    /// them.
    fn dims(&self) -> &[DimInfo];

    /// How many leading [`dims`](Topology::dims) entries the all-reduce
    /// planner wraps in a reduce-scatter … all-gather sandwich; the
    /// remaining dimensions run ring all-reduces.
    fn sandwich_dims(&self) -> usize;

    /// Size of the per-node egress port table.
    fn ports_per_node(&self) -> usize;

    /// Link class of egress port `port`, or `None` when the port has no
    /// physical link (e.g. a size-1 torus dimension).
    fn port_class(&self, port: Port) -> Option<LinkClass>;

    /// Physical parameters of the link behind `port`, given fabric-wide
    /// `params`. The default resolves [`port_class`](Topology::port_class)
    /// against the intra/inter parameter sets; topologies with custom
    /// link speeds (e.g. `switch:N@GBPS`) override.
    fn link_params_for(&self, port: Port, params: &NetworkParams) -> Option<LinkParams> {
        self.port_class(port).map(|class| match class {
            LinkClass::IntraPackage => params.intra,
            LinkClass::InterPackage => params.inter,
        })
    }

    /// The neighbor of `node` one step along dimension `dim` in the
    /// positive (`plus = true`) or negative direction.
    fn neighbor(&self, node: NodeId, dim: usize, plus: bool) -> NodeId;

    /// The single node reachable through `node`'s egress `port`, or
    /// `None` when the port has no link or the link fans out to more than
    /// one destination (a crossbar uplink; see
    /// [`fanout_peers`](Topology::fanout_peers)). Fault resolution uses
    /// this to walk the surviving fabric and to find the links incident
    /// to a contention hotspot. The default claims fan-out everywhere;
    /// point-to-point topologies override with the exact peer.
    fn link_peer(&self, node: NodeId, port: Port) -> Option<NodeId> {
        let _ = (node, port);
        None
    }

    /// Every node reachable through `node`'s egress `port` when the port
    /// is a fan-out (crossbar) uplink, in ascending id order. Empty for
    /// point-to-point ports (use [`link_peer`](Topology::link_peer)) and
    /// dead ports. Fault resolution walks this adjacency to re-route
    /// around killed links and to prove the surviving fabric connected.
    fn fanout_peers(&self, node: NodeId, port: Port) -> Vec<NodeId> {
        let _ = (node, port);
        Vec::new()
    }

    /// The members of the ring through `node` along `dim`, starting at
    /// `node` and following the positive direction.
    fn ring_members(&self, node: NodeId, dim: usize) -> Vec<NodeId> {
        let n = self.dims()[dim].len;
        let mut members = Vec::with_capacity(n);
        let mut cur = node;
        for _ in 0..n {
            members.push(cur);
            cur = self.neighbor(cur, dim, true);
        }
        members
    }

    /// A route from `src` to `dst` (empty when equal).
    fn route(&self, src: NodeId, dst: NodeId) -> Route;

    /// `node` moved by the fabric's translation that takes node 0 to `by`:
    /// coordinate-wise addition modulo each dimension's length.
    ///
    /// Every family's [`route`](Topology::route) depends only on the
    /// coordinate differences of its ends, so the route from
    /// `translate(s, d)` to `translate(t, d)` is the route from `s` to
    /// `t` with every hop's nodes translated and every port unchanged.
    fn translate(&self, node: NodeId, by: NodeId) -> NodeId;

    /// Total number of unidirectional links in the fabric.
    fn total_links(&self) -> usize {
        let mut total = 0;
        for port in 0..self.ports_per_node() {
            if self.port_class(Port::from_index(port)).is_some() {
                total += self.nodes();
            }
        }
        total
    }

    /// Per-node `(intra, inter)` egress-port counts used by the
    /// SRAM-partition weight heuristic for global (all-to-all) phases.
    /// The torus reports its full port complement regardless of
    /// dimension sizes, matching the paper's fixed 2-intra/4-inter
    /// weighting.
    fn global_port_profile(&self) -> (u8, u8);
}

// ---------------------------------------------------------------------
// Torus
// ---------------------------------------------------------------------

/// An arbitrary-dimension torus (dimension 0 intra-package, the rest
/// inter-package), generalizing the paper's `LxVxH` platform.
#[derive(Debug, Clone)]
pub struct Torus {
    spec: TopologySpec,
    lens: Vec<usize>,
    strides: Vec<usize>,
    dims: Vec<DimInfo>,
    nodes: usize,
}

impl Torus {
    /// Builds the torus for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not a torus.
    pub fn new(spec: TopologySpec) -> Torus {
        let lens = spec.torus_dims().expect("Torus::new needs a torus spec");
        let mut strides = Vec::with_capacity(lens.len());
        let mut stride = 1usize;
        for &l in &lens {
            strides.push(stride);
            stride *= l;
        }
        let dims = lens
            .iter()
            .enumerate()
            .map(|(d, &len)| DimInfo {
                len,
                class: if d == 0 {
                    LinkClass::IntraPackage
                } else {
                    LinkClass::InterPackage
                },
                port_plus: Port::from_index(d * 2),
                port_minus: Port::from_index(d * 2 + 1),
            })
            .collect();
        Torus {
            spec,
            nodes: stride,
            lens,
            strides,
            dims,
        }
    }

    /// The coordinate of `node` along dimension `dim`.
    fn coord(&self, node: NodeId, dim: usize) -> usize {
        node.0 / self.strides[dim] % self.lens[dim]
    }

    fn with_coord(&self, node: NodeId, dim: usize, c: usize) -> NodeId {
        let old = self.coord(node, dim);
        NodeId(node.0 - old * self.strides[dim] + c * self.strides[dim])
    }
}

impl Topology for Torus {
    fn spec(&self) -> TopologySpec {
        self.spec
    }

    fn nodes(&self) -> usize {
        self.nodes
    }

    fn dims(&self) -> &[DimInfo] {
        &self.dims
    }

    fn sandwich_dims(&self) -> usize {
        // Dimension 0 (intra-package) takes the reduce-scatter /
        // all-gather sandwich; inter-package dimensions run ring
        // all-reduces on the shrunken shards (Section V).
        1
    }

    fn ports_per_node(&self) -> usize {
        self.lens.len() * 2
    }

    fn port_class(&self, port: Port) -> Option<LinkClass> {
        let dim = port.index() / 2;
        (dim < self.lens.len() && self.lens[dim] > 1).then(|| self.dims[dim].class)
    }

    fn neighbor(&self, node: NodeId, dim: usize, plus: bool) -> NodeId {
        let n = self.lens[dim];
        let c = self.coord(node, dim);
        let next = if plus { (c + 1) % n } else { (c + n - 1) % n };
        self.with_coord(node, dim, next)
    }

    fn link_peer(&self, node: NodeId, port: Port) -> Option<NodeId> {
        // Every torus link is point-to-point: port 2d goes to the
        // positive ring neighbor along dimension d, port 2d+1 to the
        // negative one.
        self.port_class(port)?;
        Some(self.neighbor(node, port.index() / 2, port.index().is_multiple_of(2)))
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        // Dimension-ordered (XYZ) routing, shorter way around each ring,
        // ties to the positive direction.
        let mut hops = Vec::new();
        let mut cur = src;
        for (dim, info) in self.dims.iter().enumerate() {
            let n = info.len;
            if n == 1 {
                continue;
            }
            let b = self.coord(dst, dim);
            loop {
                let a = self.coord(cur, dim);
                if a == b {
                    break;
                }
                let fwd = (b + n - a) % n;
                let plus = fwd <= n - fwd;
                let next = self.neighbor(cur, dim, plus);
                hops.push(Hop {
                    from: cur,
                    port: if plus {
                        info.port_plus
                    } else {
                        info.port_minus
                    },
                    to: next,
                });
                cur = next;
            }
        }
        debug_assert_eq!(cur, dst);
        hops
    }

    fn translate(&self, node: NodeId, by: NodeId) -> NodeId {
        let id = (0..self.lens.len())
            .map(|d| (self.coord(node, d) + self.coord(by, d)) % self.lens[d] * self.strides[d])
            .sum();
        NodeId(id)
    }

    fn global_port_profile(&self) -> (u8, u8) {
        (2, 2 * (self.lens.len() as u8 - 1))
    }
}

// ---------------------------------------------------------------------
// Switch
// ---------------------------------------------------------------------

/// The number of hypercube exchange dimensions a crossbar of `n` nodes
/// plans over (log2 n for powers of two, else a single embedded ring).
fn switch_dim_count(n: usize) -> usize {
    if n.is_power_of_two() {
        n.trailing_zeros() as usize
    } else {
        1
    }
}

/// A central non-blocking crossbar: every node owns one uplink, every
/// pair of nodes is one hop apart. Power-of-two sizes expose `log2(n)`
/// pairwise-exchange dimensions (halving-doubling); other sizes embed a
/// single ring.
#[derive(Debug, Clone)]
pub struct Switch {
    spec: TopologySpec,
    n: usize,
    dims: Vec<DimInfo>,
    gbps: Option<u32>,
}

impl Switch {
    /// Builds the switch for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not a switch.
    pub fn new(spec: TopologySpec) -> Switch {
        let TopologySpec::Switch { nodes, gbps } = spec else {
            panic!("Switch::new needs a switch spec");
        };
        let n = nodes as usize;
        let uplink = Port::from_index(0);
        let dims = if n.is_power_of_two() {
            (0..switch_dim_count(n))
                .map(|_| DimInfo {
                    len: 2,
                    class: LinkClass::InterPackage,
                    port_plus: uplink,
                    port_minus: uplink,
                })
                .collect()
        } else {
            vec![DimInfo {
                len: n,
                class: LinkClass::InterPackage,
                port_plus: uplink,
                port_minus: uplink,
            }]
        };
        Switch {
            spec,
            n,
            dims,
            gbps,
        }
    }
}

impl Topology for Switch {
    fn spec(&self) -> TopologySpec {
        self.spec
    }

    fn nodes(&self) -> usize {
        self.n
    }

    fn dims(&self) -> &[DimInfo] {
        &self.dims
    }

    fn sandwich_dims(&self) -> usize {
        // Power of two: reduce-scatter then all-gather over every
        // exchange dimension — recursive halving-doubling. Otherwise the
        // single embedded ring runs a ring all-reduce.
        if self.n.is_power_of_two() {
            self.dims.len()
        } else {
            0
        }
    }

    fn ports_per_node(&self) -> usize {
        1
    }

    fn port_class(&self, port: Port) -> Option<LinkClass> {
        (port.index() == 0).then_some(LinkClass::InterPackage)
    }

    fn link_params_for(&self, port: Port, params: &NetworkParams) -> Option<LinkParams> {
        self.port_class(port).map(|_| match self.gbps {
            None => params.inter,
            Some(g) => LinkParams {
                bandwidth_gbps: g as f64,
                ..params.inter
            },
        })
    }

    fn neighbor(&self, node: NodeId, dim: usize, plus: bool) -> NodeId {
        if self.n.is_power_of_two() {
            // Hypercube exchange partner: both directions meet the same
            // peer.
            NodeId(node.0 ^ (1 << dim))
        } else if plus {
            NodeId((node.0 + 1) % self.n)
        } else {
            NodeId((node.0 + self.n - 1) % self.n)
        }
    }

    fn fanout_peers(&self, node: NodeId, port: Port) -> Vec<NodeId> {
        if port.index() != 0 {
            return Vec::new();
        }
        (0..self.n).map(NodeId).filter(|&p| p != node).collect()
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        if src == dst {
            return Vec::new();
        }
        // One hop: serialize on the source uplink, cross the crossbar.
        vec![Hop {
            from: src,
            port: Port::from_index(0),
            to: dst,
        }]
    }

    fn translate(&self, node: NodeId, by: NodeId) -> NodeId {
        NodeId((node.0 + by.0) % self.n)
    }

    fn global_port_profile(&self) -> (u8, u8) {
        (0, 1)
    }
}

// ---------------------------------------------------------------------
// Hierarchical
// ---------------------------------------------------------------------

/// Scale-up dimensions a domain of `su` NPUs exposes.
fn scale_up_dim_count(su: usize) -> usize {
    if su <= 1 {
        0
    } else if su.is_power_of_two() {
        su.trailing_zeros() as usize
    } else {
        1
    }
}

/// A scale-up crossbar domain (NVSwitch-style, intra-package links)
/// joined by a scale-out inter-package ring. Node ids are domain-major:
/// `id = u + scale_up * o`.
#[derive(Debug, Clone)]
pub struct Hierarchical {
    spec: TopologySpec,
    su: usize,
    so: usize,
    dims: Vec<DimInfo>,
}

impl Hierarchical {
    /// Builds the fabric for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not hierarchical.
    pub fn new(spec: TopologySpec) -> Hierarchical {
        let TopologySpec::Hierarchical {
            scale_up,
            scale_out,
        } = spec
        else {
            panic!("Hierarchical::new needs a hierarchical spec");
        };
        let (su, so) = (scale_up as usize, scale_out as usize);
        let crossbar = Port::from_index(0);
        let mut dims = Vec::new();
        if su.is_power_of_two() {
            for _ in 0..scale_up_dim_count(su) {
                dims.push(DimInfo {
                    len: 2,
                    class: LinkClass::IntraPackage,
                    port_plus: crossbar,
                    port_minus: crossbar,
                });
            }
        } else if su > 1 {
            dims.push(DimInfo {
                len: su,
                class: LinkClass::IntraPackage,
                port_plus: crossbar,
                port_minus: crossbar,
            });
        }
        dims.push(DimInfo {
            len: so,
            class: LinkClass::InterPackage,
            port_plus: Port::from_index(1),
            port_minus: Port::from_index(2),
        });
        Hierarchical { spec, su, so, dims }
    }

    fn domain_local(&self, node: NodeId) -> (usize, usize) {
        (node.0 % self.su, node.0 / self.su)
    }
}

impl Topology for Hierarchical {
    fn spec(&self) -> TopologySpec {
        self.spec
    }

    fn nodes(&self) -> usize {
        self.su * self.so
    }

    fn dims(&self) -> &[DimInfo] {
        &self.dims
    }

    fn sandwich_dims(&self) -> usize {
        // Every scale-up dimension reduces first / gathers last; the
        // scale-out ring all-reduces the shrunken shards in between —
        // the paper's hierarchy with the crossbar standing in for the
        // local ring.
        scale_up_dim_count(self.su)
    }

    fn ports_per_node(&self) -> usize {
        3
    }

    fn port_class(&self, port: Port) -> Option<LinkClass> {
        match port.index() {
            0 => (self.su > 1).then_some(LinkClass::IntraPackage),
            1 | 2 => (self.so > 1).then_some(LinkClass::InterPackage),
            _ => None,
        }
    }

    fn neighbor(&self, node: NodeId, dim: usize, plus: bool) -> NodeId {
        let (u, o) = self.domain_local(node);
        let up_dims = scale_up_dim_count(self.su);
        if dim < up_dims {
            let u2 = if self.su.is_power_of_two() {
                u ^ (1 << dim)
            } else if plus {
                (u + 1) % self.su
            } else {
                (u + self.su - 1) % self.su
            };
            NodeId(u2 + self.su * o)
        } else {
            let o2 = if plus {
                (o + 1) % self.so
            } else {
                (o + self.so - 1) % self.so
            };
            NodeId(u + self.su * o2)
        }
    }

    fn link_peer(&self, node: NodeId, port: Port) -> Option<NodeId> {
        // The scale-out ring ports are point-to-point; the crossbar
        // uplink (port 0) fans out across the whole domain and keeps the
        // fan-out default.
        self.port_class(port)?;
        match port.index() {
            1 | 2 => {
                let ring_dim = scale_up_dim_count(self.su);
                Some(self.neighbor(node, ring_dim, port.index() == 1))
            }
            _ => None,
        }
    }

    fn fanout_peers(&self, node: NodeId, port: Port) -> Vec<NodeId> {
        if port.index() != 0 || self.su <= 1 {
            return Vec::new();
        }
        let (_, o) = self.domain_local(node);
        (0..self.su)
            .map(|u| NodeId(u + self.su * o))
            .filter(|&p| p != node)
            .collect()
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        let (us, os) = self.domain_local(src);
        let (ud, od) = self.domain_local(dst);
        let mut hops = Vec::new();
        let mut cur = src;
        // Scale-up first (one crossbar hop), then the scale-out ring the
        // shorter way, ties positive — mirroring XYZ order.
        if us != ud {
            let next = NodeId(ud + self.su * os);
            hops.push(Hop {
                from: cur,
                port: Port::from_index(0),
                to: next,
            });
            cur = next;
        }
        let n = self.so;
        let mut o = os;
        while o != od {
            let fwd = (od + n - o) % n;
            let plus = fwd <= n - fwd;
            o = if plus { (o + 1) % n } else { (o + n - 1) % n };
            let next = NodeId(ud + self.su * o);
            hops.push(Hop {
                from: cur,
                port: Port::from_index(if plus { 1 } else { 2 }),
                to: next,
            });
            cur = next;
        }
        hops
    }

    fn translate(&self, node: NodeId, by: NodeId) -> NodeId {
        let (u, o) = self.domain_local(node);
        let (du, do_) = self.domain_local(by);
        NodeId((u + du) % self.su + self.su * ((o + do_) % self.so))
    }

    fn global_port_profile(&self) -> (u8, u8) {
        (1, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_and_display_round_trip() {
        for s in [
            "4x2x2",
            "4x8",
            "2x2x2x2",
            "8",
            "switch:16",
            "switch:16@100",
            "hier:4x8",
        ] {
            let spec: TopologySpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s, "round trip of '{s}'");
            let topo = spec.build();
            assert_eq!(topo.spec(), spec);
            assert_eq!(topo.nodes(), spec.nodes());
        }
        // Case-insensitive separators and an explicit torus prefix.
        assert_eq!(
            "4X2X2".parse::<TopologySpec>().unwrap(),
            TopologySpec::torus3(4, 2, 2).unwrap()
        );
        assert_eq!(
            "torus:4x2x2".parse::<TopologySpec>().unwrap(),
            TopologySpec::torus3(4, 2, 2).unwrap()
        );
    }

    #[test]
    fn parse_errors_carry_did_you_mean_hints() {
        let e = "swich:16".parse::<TopologySpec>().unwrap_err();
        assert!(e.contains("did you mean 'switch'"), "{e}");
        let e = "heir:4x8".parse::<TopologySpec>().unwrap_err();
        assert!(e.contains("did you mean 'hier'"), "{e}");
        let e = "switchh:16".parse::<TopologySpec>().unwrap_err();
        assert!(e.contains("did you mean 'switch'"), "{e}");
        // Every parse error names the valid spellings.
        for bad in ["swich:16", "4x", "blob", "hier:4", "switch:one"] {
            let e = bad.parse::<TopologySpec>().unwrap_err();
            assert!(
                e.contains("switch:N") || e.contains("bad") || e.contains("must be"),
                "unhelpful error for '{bad}': {e}"
            );
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!("0x2x2".parse::<TopologySpec>().is_err());
        assert!("1x1x1".parse::<TopologySpec>().is_err());
        assert!("2x2x2x2x2x2x2".parse::<TopologySpec>().is_err());
        // A node-count overflow is rejected at spec construction, never
        // wrapped later.
        assert_eq!(
            TopologySpec::torus(&[65535, 65535, 65535, 65535, 65535]).unwrap_err(),
            ShapeError::TooManyNodes
        );
        assert!("switch:1".parse::<TopologySpec>().is_err());
        assert!("switch:8@0".parse::<TopologySpec>().is_err());
        assert!("hier:0x4".parse::<TopologySpec>().is_err());
        assert!("hier:1x1".parse::<TopologySpec>().is_err());
    }

    #[test]
    fn link_peer_is_exact_on_point_to_point_links() {
        // Torus: every live port names its ring neighbor; dead ports
        // (size-1 dimensions) have no peer.
        let torus = Torus::new("4x1x2".parse::<TopologySpec>().unwrap());
        for node in (0..torus.nodes()).map(NodeId) {
            for (d, info) in torus.dims().iter().enumerate() {
                let (want_plus, want_minus) = if info.len > 1 {
                    (
                        Some(torus.neighbor(node, d, true)),
                        Some(torus.neighbor(node, d, false)),
                    )
                } else {
                    (None, None)
                };
                assert_eq!(torus.link_peer(node, info.port_plus), want_plus);
                assert_eq!(torus.link_peer(node, info.port_minus), want_minus);
            }
        }
        // Switch: the uplink fans out across the crossbar — no peer.
        let switch = "switch:8".parse::<TopologySpec>().unwrap().build();
        assert_eq!(switch.link_peer(NodeId(3), Port::from_index(0)), None);
        // Hierarchical: ring ports are exact, the crossbar uplink is not.
        let hier = "hier:4x3".parse::<TopologySpec>().unwrap().build();
        let ring_dim = hier.dims().len() - 1;
        assert_eq!(hier.link_peer(NodeId(1), Port::from_index(0)), None);
        assert_eq!(
            hier.link_peer(NodeId(1), Port::from_index(1)),
            Some(hier.neighbor(NodeId(1), ring_dim, true))
        );
        assert_eq!(
            hier.link_peer(NodeId(1), Port::from_index(2)),
            Some(hier.neighbor(NodeId(1), ring_dim, false))
        );
    }

    #[test]
    fn torus_matches_torus_shape() {
        // The generalized torus must agree, on every query the executor
        // makes, with the paper's `LxVxH` shape written out by hand:
        // node `l + L*(v + V*h)`, rings that wrap, and XYZ routes that go
        // the shorter way round each ring with ties to the plus port.
        let lens = [4, 3, 2];
        let topo = Torus::new(TopologySpec::torus3(lens[0], lens[1], lens[2]).unwrap());
        let id = |c: [usize; 3]| NodeId(c[0] + lens[0] * (c[1] + lens[1] * c[2]));
        let coord = |n: NodeId| [n.0 % 4, n.0 / 4 % 3, n.0 / 12];
        let step = |c: [usize; 3], d: usize, plus: bool| {
            let mut next = c;
            next[d] = (c[d] + if plus { 1 } else { lens[d] - 1 }) % lens[d];
            next
        };
        assert_eq!(topo.nodes(), 24);
        assert_eq!(topo.total_links(), 6 * 24);
        for node in (0..24).map(NodeId) {
            let c = coord(node);
            for (d, &n) in lens.iter().enumerate() {
                for plus in [true, false] {
                    assert_eq!(
                        topo.neighbor(node, d, plus),
                        id(step(c, d, plus)),
                        "neighbor({node}, {d}, {plus})"
                    );
                }
                let ring: Vec<NodeId> = (0..n)
                    .scan(c, |cur, _| {
                        let here = *cur;
                        *cur = step(here, d, true);
                        Some(id(here))
                    })
                    .collect();
                assert_eq!(topo.ring_members(node, d), ring);
            }
            for dst in (0..24).map(NodeId) {
                let target = coord(dst);
                let mut want = Vec::new();
                let mut cur = c;
                for (d, &n) in lens.iter().enumerate() {
                    let fwd = (target[d] + n - cur[d]) % n;
                    let plus = fwd <= n - fwd;
                    while cur[d] != target[d] {
                        let next = step(cur, d, plus);
                        want.push(Hop {
                            from: id(cur),
                            port: Port::from_index(2 * d + usize::from(!plus)),
                            to: id(next),
                        });
                        cur = next;
                    }
                }
                assert_eq!(topo.route(node, dst), want, "route({node}, {dst})");
            }
        }
    }

    #[test]
    fn torus_port_layout_matches_legacy() {
        let topo = Torus::new(TopologySpec::torus3(4, 1, 2).unwrap());
        // The paper's port order: local±, vertical±, horizontal±.
        assert_eq!(topo.ports_per_node(), 6);
        // Dimension 1 has size 1: its ports are dead, and the network
        // wires no link there.
        assert_eq!(
            topo.port_class(Port::from_index(0)),
            Some(LinkClass::IntraPackage)
        );
        assert_eq!(topo.port_class(Port::from_index(2)), None);
        assert_eq!(topo.port_class(Port::from_index(3)), None);
        assert_eq!(
            topo.port_class(Port::from_index(4)),
            Some(LinkClass::InterPackage)
        );
        assert_eq!(topo.global_port_profile(), (2, 4));
    }

    #[test]
    fn switch_power_of_two_is_a_hypercube() {
        let topo = Switch::new(TopologySpec::switch(16).unwrap());
        assert_eq!(topo.dims().len(), 4);
        assert_eq!(topo.sandwich_dims(), 4);
        assert_eq!(topo.ports_per_node(), 1);
        assert_eq!(topo.total_links(), 16);
        // Exchange partners are symmetric and partition the node set.
        for d in 0..4 {
            for n in 0..16 {
                let p = topo.neighbor(NodeId(n), d, true);
                assert_eq!(topo.neighbor(p, d, true), NodeId(n));
                assert_eq!(topo.ring_members(NodeId(n), d), vec![NodeId(n), p]);
            }
        }
        // Any pair is one hop apart.
        let r = topo.route(NodeId(3), NodeId(11));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].to, NodeId(11));
        assert!(topo.route(NodeId(5), NodeId(5)).is_empty());
    }

    #[test]
    fn switch_non_power_of_two_embeds_a_ring() {
        let topo = Switch::new(TopologySpec::switch(6).unwrap());
        assert_eq!(topo.dims().len(), 1);
        assert_eq!(topo.dims()[0].len, 6);
        assert_eq!(topo.sandwich_dims(), 0);
        assert_eq!(topo.neighbor(NodeId(5), 0, true), NodeId(0));
        assert_eq!(topo.neighbor(NodeId(0), 0, false), NodeId(5));
        assert_eq!(topo.ring_members(NodeId(2), 0).len(), 6);
    }

    #[test]
    fn switch_bandwidth_override_applies() {
        let params = NetworkParams::paper_default();
        let plain = Switch::new(TopologySpec::switch(8).unwrap());
        let fast = Switch::new(TopologySpec::switch_with_gbps(8, 100).unwrap());
        let p0 = Port::from_index(0);
        assert_eq!(
            plain.link_params_for(p0, &params).unwrap().bandwidth_gbps,
            params.inter.bandwidth_gbps
        );
        assert_eq!(
            fast.link_params_for(p0, &params).unwrap().bandwidth_gbps,
            100.0
        );
        // Latency and efficiency inherit from the inter-package class.
        assert_eq!(
            fast.link_params_for(p0, &params).unwrap().latency_cycles,
            params.inter.latency_cycles
        );
    }

    #[test]
    fn hierarchical_structure() {
        let topo = Hierarchical::new(TopologySpec::hierarchical(4, 8).unwrap());
        assert_eq!(topo.nodes(), 32);
        // 4 = 2^2 scale-up exchange dims + 1 scale-out ring dim.
        assert_eq!(topo.dims().len(), 3);
        assert_eq!(topo.sandwich_dims(), 2);
        assert_eq!(topo.dims()[0].class, LinkClass::IntraPackage);
        assert_eq!(topo.dims()[2].class, LinkClass::InterPackage);
        // 32 crossbar uplinks + 2 ring links per node.
        assert_eq!(topo.total_links(), 32 + 64);
        // Scale-out neighbor keeps the local index.
        assert_eq!(topo.neighbor(NodeId(1), 2, true), NodeId(5));
        // Cross-domain, cross-local route: one crossbar hop + ring hops.
        let r = topo.route(NodeId(0), NodeId(4 * 3 + 2));
        assert_eq!(r[0].port.index(), 0);
        assert_eq!(r.len(), 1 + 3);
        assert_eq!(r.last().unwrap().to, NodeId(14));
        // Routes stay connected.
        for w in r.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
    }

    #[test]
    fn hierarchical_degenerate_shapes() {
        // One domain: pure scale-up crossbar.
        let only_up = Hierarchical::new(TopologySpec::hierarchical(8, 1).unwrap());
        assert_eq!(only_up.dims().len(), 4); // 3 exchange dims + the size-1 out dim
        assert_eq!(only_up.port_class(Port::from_index(1)), None);
        // One NPU per domain: pure scale-out ring.
        let only_out = Hierarchical::new(TopologySpec::hierarchical(1, 8).unwrap());
        assert_eq!(only_out.dims().len(), 1);
        assert_eq!(only_out.sandwich_dims(), 0);
        assert_eq!(only_out.port_class(Port::from_index(0)), None);
    }

    #[test]
    fn routes_are_translation_invariant() {
        for s in [
            "4x2x2", "4x1x2", "5x3x2", "switch:8", "switch:6", "hier:4x4", "hier:3x4",
        ] {
            let topo = s.parse::<TopologySpec>().unwrap().build();
            let n = topo.nodes();
            for by in (0..n).map(NodeId) {
                assert_eq!(topo.translate(NodeId(0), by), by, "{s}: 0 moves to {by}");
                let mut image: Vec<usize> = (0..n)
                    .map(|v| topo.translate(NodeId(v), by).index())
                    .collect();
                image.sort_unstable();
                assert!(
                    image.iter().copied().eq(0..n),
                    "{s}: moving by {by} permutes"
                );
            }
            for src in (0..n).map(NodeId) {
                for off in (0..n).map(NodeId) {
                    let moved: Route = topo
                        .route(NodeId(0), off)
                        .into_iter()
                        .map(|h| Hop {
                            from: topo.translate(h.from, src),
                            port: h.port,
                            to: topo.translate(h.to, src),
                        })
                        .collect();
                    let dst = topo.translate(off, src);
                    assert_eq!(topo.route(src, dst), moved, "{s}: {src} -> {dst}");
                }
            }
        }
    }

    #[test]
    fn dim_names_are_topology_aware() {
        let t3: TopologySpec = "4x2x2".parse().unwrap();
        assert_eq!(t3.dim_name(0), "local");
        assert_eq!(t3.dim_name(2), "horizontal");
        let t2: TopologySpec = "4x8".parse().unwrap();
        assert_eq!(t2.dim_name(1), "d1");
        let sw: TopologySpec = "switch:16".parse().unwrap();
        assert_eq!(sw.dim_name(0), "x0");
        let hier: TopologySpec = "hier:4x8".parse().unwrap();
        assert_eq!(hier.dim_name(0), "up0");
        assert_eq!(hier.dim_name(2), "out");
    }
}
