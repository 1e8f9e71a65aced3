//! Declarative sweep scenarios.
//!
//! A [`Scenario`] names the axes of a design-space exploration — torus
//! shapes, endpoint engines / system configurations, workloads,
//! collective ops, payload sizes, and the memory-bandwidth / SM / SRAM /
//! FSM knobs of Figs. 4–12 — and deserializes from the TOML subset in
//! [`crate::toml`]. [`crate::grid::expand`] turns it into a deterministic
//! cartesian list of run points.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;

use ace_collectives::CollectiveOp;
use ace_net::{ContentionSpec, FaultSpec, TopologySpec};
use ace_serve::{ArrivalKind, ServingSpec};
use ace_system::{EngineKind, SystemConfig};
use ace_workloads::{BuiltinWorkload, Parallelism, PipeSchedule, StragglerSpec, Workload};

use crate::fidelity::Fidelity;
use crate::toml::{self, Value};

/// What each run point simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepMode {
    /// One standalone collective per point ([`ace_system::RunSpec`]):
    /// the Fig. 5 / Fig. 6 / Fig. 9a harness.
    Collective,
    /// A full training loop per point ([`ace_system::TrainSpec`]):
    /// the Fig. 11 / Fig. 12 harness.
    Training,
    /// A continuous-batching inference serving run per point
    /// ([`ace_serve::simulate_with_memo`]): open-loop arrivals, pipeline rounds,
    /// TTFT/E2E latency percentiles.
    Serving,
}

impl fmt::Display for SweepMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepMode::Collective => f.write_str("collective"),
            SweepMode::Training => f.write_str("training"),
            SweepMode::Serving => f.write_str("serving"),
        }
    }
}

/// The engine families a collective-mode scenario can sweep. Families are
/// resolved against the knob axes into concrete [`EngineKind`]s; knobs a
/// family does not consume are dropped, so e.g. `ideal` collapses to a
/// single point regardless of the `mem_gbps` axis, and knobs left unset
/// take the family's Table VI value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineFamily {
    /// One-cycle ideal endpoint — ignores every knob.
    Ideal,
    /// SM-driven baseline — consumes `mem_gbps` and `comm_sms`.
    Baseline,
    /// ACE — consumes `mem_gbps` (as the DMA carve-out), `sram_mb`, `fsms`.
    Ace,
}

impl EngineFamily {
    /// Scenario-file name of the family.
    pub fn name(self) -> &'static str {
        match self {
            EngineFamily::Ideal => "ideal",
            EngineFamily::Baseline => "baseline",
            EngineFamily::Ace => "ace",
        }
    }

    /// The family `engine` belongs to.
    pub(crate) fn of(engine: EngineKind) -> EngineFamily {
        match engine {
            EngineKind::Ideal => EngineFamily::Ideal,
            EngineKind::Baseline { .. } => EngineFamily::Baseline,
            EngineKind::Ace { .. } => EngineFamily::Ace,
        }
    }

    /// The Table VI engine the family stands for where a scenario leaves
    /// a knob unset: ideal's, CommOpt's baseline or ACE's.
    fn paper_engine(self) -> EngineKind {
        match self {
            EngineFamily::Ideal => SystemConfig::Ideal.engine(),
            EngineFamily::Baseline => SystemConfig::BaselineCommOpt.engine(),
            EngineFamily::Ace => SystemConfig::Ace.engine(),
        }
    }

    /// The family's engine at the given knobs: knobs the family does not
    /// consume are dropped, and an unset knob keeps the family's Table VI
    /// value ([`paper_engine`](EngineFamily::paper_engine)). Both the grid
    /// axes and a `[baseline]` table resolve through this.
    pub(crate) fn resolve(
        self,
        mem_gbps: Option<f64>,
        comm_sms: Option<u32>,
        sram_mb: Option<u64>,
        fsms: Option<usize>,
    ) -> EngineKind {
        match self.paper_engine() {
            EngineKind::Ideal => EngineKind::Ideal,
            EngineKind::Baseline {
                comm_mem_gbps: paper_gbps,
                comm_sms: paper_sms,
            } => EngineKind::Baseline {
                comm_mem_gbps: mem_gbps.unwrap_or(paper_gbps),
                comm_sms: comm_sms.unwrap_or(paper_sms),
            },
            EngineKind::Ace {
                dma_mem_gbps: paper_gbps,
                sram_mb: paper_sram,
                fsms: paper_fsms,
            } => EngineKind::Ace {
                dma_mem_gbps: mem_gbps.unwrap_or(paper_gbps),
                sram_mb: sram_mb.unwrap_or(paper_sram),
                fsms: fsms.unwrap_or(paper_fsms),
            },
        }
    }
}

impl ace_toml::Spelling for EngineFamily {
    const WHAT: &'static str = "engine";

    fn keywords() -> &'static [&'static str] {
        &["ideal", "baseline", "ace"]
    }

    fn spellings() -> &'static str {
        "ideal, baseline, or ace"
    }

    fn parse_spelling(s: &str) -> Result<Self, ace_toml::SpellingError> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ideal" => Ok(EngineFamily::Ideal),
            "baseline" => Ok(EngineFamily::Baseline),
            "ace" => Ok(EngineFamily::Ace),
            _ => Err(ace_toml::SpellingError::Unknown),
        }
    }
}

impl std::str::FromStr for EngineFamily {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ace_toml::Spelling::from_spelling(s)
    }
}

/// One entry of the training-mode `workloads` axis: a builtin (with an
/// optional parallelism override, `transformer@model`) or a custom
/// TOML-defined model (`file:my_model.toml`). DLRM's all-to-all payloads
/// depend on the fabric size, so instantiation takes the node count of
/// the point's topology.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WorkloadSel {
    /// A builtin model, optionally re-parallelized (`name@strategy`).
    Builtin {
        /// Which builtin.
        kind: BuiltinWorkload,
        /// Lowering-strategy override; `None` uses the model's native
        /// strategy.
        parallelism: Option<Parallelism>,
    },
    /// A user-authored [`ace_workloads::WorkloadSpec`] loaded from a
    /// TOML file.
    File(CustomWorkload),
}

/// A custom workload reference: the spec plus its cache identity. Two
/// references are the same point iff path *and* content fingerprint
/// match, so editing the TOML invalidates persisted cache rows instead
/// of silently serving stale results.
#[derive(Debug, Clone)]
pub struct CustomWorkload {
    /// The path as written in the scenario (also the cache-key spelling).
    path: String,
    /// FNV-1a hash of the file contents.
    fingerprint: u64,
    /// The parsed spec; `None` for references deserialized from a
    /// persisted cache (those rows are only ever served, never
    /// re-simulated — a changed file changes the fingerprint and misses).
    spec: Option<Arc<ace_workloads::WorkloadSpec>>,
}

impl PartialEq for CustomWorkload {
    fn eq(&self, other: &Self) -> bool {
        self.path == other.path && self.fingerprint == other.fingerprint
    }
}

impl Eq for CustomWorkload {}

impl Hash for CustomWorkload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.path.hash(state);
        self.fingerprint.hash(state);
    }
}

impl CustomWorkload {
    /// The path as written in the scenario file.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The parsed spec, when this reference was loaded from disk.
    pub fn spec(&self) -> Option<&ace_workloads::WorkloadSpec> {
        self.spec.as_deref()
    }
}

/// FNV-1a, the custom-workload content fingerprint.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl WorkloadSel {
    /// A builtin under its native parallelization strategy.
    pub fn builtin(kind: BuiltinWorkload) -> WorkloadSel {
        WorkloadSel::Builtin {
            kind,
            parallelism: None,
        }
    }

    /// Parses an axis entry. Builtins spell `name` or
    /// `name@parallelism` (`transformer@model`); custom models spell
    /// `file:<path>.toml`, resolved relative to `base` (the scenario
    /// file's directory) when the path is relative.
    pub fn parse(s: &str, base: Option<&Path>) -> Result<WorkloadSel, String> {
        let s = s.trim();
        if let Some(path) = s.strip_prefix("file:") {
            let path = path.trim();
            if path.is_empty() {
                return Err("'file:' needs a path to a workload TOML".into());
            }
            if path.contains(',') || path.contains('#') {
                return Err(format!(
                    "workload path '{path}' must not contain ',' or '#' (cache-key syntax)"
                ));
            }
            let resolved = match base {
                Some(dir) if Path::new(path).is_relative() => dir.join(path),
                _ => Path::new(path).to_path_buf(),
            };
            let text = std::fs::read_to_string(&resolved)
                .map_err(|e| format!("cannot read workload file {}: {e}", resolved.display()))?;
            let spec = ace_workloads::WorkloadSpec::from_toml_str(&text)
                .map_err(|e| format!("workload file {}: {e}", resolved.display()))?;
            return Ok(WorkloadSel::File(CustomWorkload {
                path: path.to_string(),
                fingerprint: fnv1a(&text),
                spec: Some(Arc::new(spec)),
            }));
        }
        let (name, par) = match s.split_once('@') {
            None => (s, None),
            Some((n, p)) => (n, Some(p.parse::<Parallelism>()?)),
        };
        let sel = WorkloadSel::Builtin {
            kind: name.parse::<BuiltinWorkload>()?,
            parallelism: par,
        };
        sel.check()?;
        Ok(sel)
    }

    /// Checks that the selector can instantiate — the parallelism
    /// override is compatible with the builtin (delegating to
    /// [`Workload::with_parallelism`], the single source of truth) and a
    /// custom spec is internally consistent. Run by
    /// [`parse`](WorkloadSel::parse) and by [`Scenario::validate`], so
    /// hand-constructed selectors fail the sweep cleanly instead of
    /// panicking a worker.
    pub fn check(&self) -> Result<(), String> {
        match self {
            WorkloadSel::Builtin {
                parallelism: None, ..
            } => Ok(()),
            WorkloadSel::Builtin {
                kind,
                parallelism: Some(p),
            } => kind.instantiate(2).with_parallelism(*p).map(drop),
            WorkloadSel::File(custom) => match &custom.spec {
                // Cache-deserialized references are only ever served by
                // identity, never instantiated.
                None => Ok(()),
                Some(spec) => spec.validate(),
            },
        }
    }

    /// Parses the persisted cache-key spelling: like
    /// [`parse`](WorkloadSel::parse), except custom workloads appear as
    /// `file:<path>#<fingerprint>` and are *not* re-read from disk (a
    /// cached row is served by identity, never re-simulated).
    pub fn from_cache_key(s: &str) -> Result<WorkloadSel, String> {
        if let Some(rest) = s.strip_prefix("file:") {
            let (path, fp) = rest
                .rsplit_once('#')
                .ok_or_else(|| format!("custom workload key '{s}' is missing '#<fingerprint>'"))?;
            let fingerprint = u64::from_str_radix(fp, 16)
                .map_err(|_| format!("bad workload fingerprint '{fp}'"))?;
            return Ok(WorkloadSel::File(CustomWorkload {
                path: path.to_string(),
                fingerprint,
                spec: None,
            }));
        }
        Self::parse(s, None)
    }

    /// Builds the concrete workload for a fabric of `nodes` NPUs.
    ///
    /// # Panics
    ///
    /// Panics for a cache-deserialized custom reference (no spec to
    /// instantiate) — such points are always served from the cache.
    pub fn instantiate(&self, nodes: usize) -> Workload {
        match self {
            WorkloadSel::Builtin { kind, parallelism } => {
                let w = kind.instantiate(nodes);
                match parallelism {
                    None => w,
                    Some(p) => w
                        .with_parallelism(*p)
                        .expect("overrides are validated by WorkloadSel::check"),
                }
            }
            WorkloadSel::File(custom) => custom
                .spec
                .as_ref()
                .expect("cache-only custom workload references cannot be instantiated")
                .instantiate(nodes),
        }
    }

    /// The axis / cache-key / CSV spelling of the selector. Builtins
    /// round-trip through [`parse`](WorkloadSel::parse); custom models
    /// through [`from_cache_key`](WorkloadSel::from_cache_key).
    pub fn name(&self) -> String {
        self.to_string()
    }
}

impl From<BuiltinWorkload> for WorkloadSel {
    fn from(kind: BuiltinWorkload) -> WorkloadSel {
        WorkloadSel::Builtin {
            kind,
            parallelism: None,
        }
    }
}

impl fmt::Display for WorkloadSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadSel::Builtin {
                kind,
                parallelism: None,
            } => f.write_str(kind.name()),
            WorkloadSel::Builtin {
                kind,
                parallelism: Some(p),
            } => write!(f, "{}@{}", kind.name(), p.name()),
            WorkloadSel::File(c) => write!(f, "file:{}#{:016x}", c.path, c.fingerprint),
        }
    }
}

/// The reference point speedups are computed against: a single resolved
/// engine (collective mode) or system configuration (training mode),
/// matched per (topology × op × payload) / (topology × workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineSpec {
    /// Collective mode: a resolved engine.
    Engine(EngineKind),
    /// Training mode: one of the Table VI configurations.
    Config(SystemConfig),
}

/// A declarative sweep: axes plus fixed parameters. Every `Vec` field is
/// one cartesian axis; [`crate::grid::expand`] multiplies them out in
/// declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used in report headers and output files).
    pub name: String,
    /// What each point simulates.
    pub mode: SweepMode,
    /// Fabric topologies: tori (`LxVxH`, `4x8`), switches
    /// (`switch:16`, `switch:16@100`), or hierarchical fabrics
    /// (`hier:4x8`).
    pub topologies: Vec<TopologySpec>,
    /// Collective mode: engine families to resolve against the knob axes.
    pub engines: Vec<EngineFamily>,
    /// Collective mode: operations to issue.
    pub ops: Vec<CollectiveOp>,
    /// Collective mode: per-node payload sizes in bytes.
    pub payload_bytes: Vec<u64>,
    /// Knob axis: HBM GB/s for communication (baseline) or the DMA
    /// carve-out (ACE). Each knob axis left empty is unset: every family
    /// takes its own Table VI value for it.
    pub mem_gbps: Vec<f64>,
    /// Knob axis: SMs loaned to communication (baseline only).
    pub comm_sms: Vec<u32>,
    /// Knob axis: ACE SRAM size in MB (Fig. 9a).
    pub sram_mb: Vec<u64>,
    /// Knob axis: ACE FSM count (Fig. 9a).
    pub fsms: Vec<usize>,
    /// Training mode: Table VI system configurations.
    pub configs: Vec<SystemConfig>,
    /// Training mode: workloads — builtins (`"dlrm"`), re-parallelized
    /// builtins (`"transformer@model"`), or custom TOML models
    /// (`"file:my_model.toml"`).
    pub workloads: Vec<WorkloadSel>,
    /// Training mode: simulated iterations per point (paper default 2).
    pub iterations: u32,
    /// Training mode: enable the Fig. 12 DLRM embedding optimization.
    pub optimized_embedding: bool,
    /// Serving mode: mean arrival rates in requests/s — the load axis.
    pub arrival_rates: Vec<f64>,
    /// Serving mode: the arrival-process family (`poisson`,
    /// `bursty:<n>`, or `trace:<path>` resolved next to the scenario).
    pub arrival: ArrivalKind,
    /// Serving mode: round-admission schedules to sweep (`gpipe` drains
    /// each round before the next; `1f1b` injects when stage 0 frees).
    pub schedules: Vec<PipeSchedule>,
    /// Serving mode: microbatch counts to sweep.
    pub microbatches: Vec<u32>,
    /// Serving mode: pipeline stages the model is partitioned into.
    pub stages: u32,
    /// Serving mode: requests served per point.
    pub requests: u32,
    /// Serving mode: arrival-process seed.
    pub seed: u64,
    /// Serving mode: prompt length in tokens (one prefill = one forward
    /// pass of the workload at this token count).
    pub prompt_tokens: u32,
    /// Serving mode: output tokens generated after the first.
    pub decode_tokens: u32,
    /// Serving mode: continuous-batching token budget per round.
    pub token_budget: u32,
    /// Fault-injection axis: link/node kill and degradation scenarios
    /// applied to the fabric (`"none"`, `"kill:2@seed:42"`,
    /// `"degrade:50:kill:1"`, ...). Defaults to the single pristine
    /// scenario.
    pub faults: Vec<FaultSpec>,
    /// Contention axis: background traffic stealing link bandwidth
    /// (`"none"`, `"uniform:8"`, `"hotspot:3@16"`). Defaults to none.
    pub contention: Vec<ContentionSpec>,
    /// Straggler axis: compute-time jitter distributions applied to
    /// training/serving programs (`"det"`, `"lognormal:0.2"`,
    /// `"lognormal:0.2@seed:7"`). Collective mode has no compute tasks,
    /// so the axis is pinned to `det` there. Defaults to deterministic.
    pub stragglers: Vec<StragglerSpec>,
    /// Optional reference config for speedup columns and axis summaries.
    pub baseline: Option<BaselineSpec>,
    /// Simulation fidelity: `exact` (event-driven, the default),
    /// `analytic` (closed-form α–β model), or `hybrid` (analytic triage,
    /// exact re-simulation of the interesting cells). Overridable on the
    /// `sweep` CLI with `--fidelity`.
    pub fidelity: Fidelity,
    /// Hybrid fidelity: percentage of each cell group's fastest cells
    /// (by analytic time) re-simulated exactly, on top of the Pareto
    /// frontier. Default 10.
    pub hybrid_top_pct: f64,
    /// Ignored: no code reads it, and TOML has no key for it. It stays
    /// only because the benchmark harness sets it; the next benchmark
    /// change removes it.
    pub sim_threads: usize,
}

impl Scenario {
    /// An empty collective-mode scenario with every knob axis unset, so
    /// each engine family runs its Table VI engine (CommOpt's for the
    /// baseline); callers fill in the axes they sweep.
    pub fn collective(name: impl Into<String>) -> Scenario {
        Scenario {
            name: name.into(),
            mode: SweepMode::Collective,
            topologies: vec![TopologySpec::torus3(4, 2, 2).expect("valid shape")],
            engines: vec![
                EngineFamily::Ideal,
                EngineFamily::Baseline,
                EngineFamily::Ace,
            ],
            ops: vec![CollectiveOp::AllReduce],
            payload_bytes: vec![64 << 20],
            mem_gbps: Vec::new(),
            comm_sms: Vec::new(),
            sram_mb: Vec::new(),
            fsms: Vec::new(),
            configs: Vec::new(),
            workloads: Vec::new(),
            iterations: 2,
            optimized_embedding: false,
            arrival_rates: Vec::new(),
            arrival: ArrivalKind::Poisson,
            schedules: Vec::new(),
            microbatches: Vec::new(),
            stages: 4,
            requests: 64,
            seed: 1,
            prompt_tokens: 128,
            decode_tokens: 8,
            token_budget: 512,
            faults: vec![FaultSpec::default()],
            contention: vec![ContentionSpec::default()],
            stragglers: vec![StragglerSpec::default()],
            baseline: None,
            fidelity: Fidelity::Exact,
            hybrid_top_pct: 10.0,
            sim_threads: 1,
        }
    }

    /// An empty training-mode scenario over the five Table VI configs;
    /// callers fill in topologies and workloads.
    pub fn training(name: impl Into<String>) -> Scenario {
        Scenario {
            mode: SweepMode::Training,
            engines: Vec::new(),
            ops: Vec::new(),
            payload_bytes: Vec::new(),
            configs: SystemConfig::ALL.to_vec(),
            workloads: vec![WorkloadSel::builtin(BuiltinWorkload::Resnet50)],
            ..Scenario::collective(name)
        }
    }

    /// An empty serving-mode scenario: ACE config, transformer workload,
    /// one Poisson load level; callers fill in the load / schedule /
    /// topology axes.
    pub fn serving(name: impl Into<String>) -> Scenario {
        Scenario {
            mode: SweepMode::Serving,
            engines: Vec::new(),
            ops: Vec::new(),
            payload_bytes: Vec::new(),
            configs: vec![SystemConfig::Ace],
            workloads: vec![WorkloadSel::builtin(BuiltinWorkload::TransformerLm)],
            arrival_rates: vec![500.0],
            schedules: vec![PipeSchedule::GPipe],
            microbatches: vec![8],
            ..Scenario::collective(name)
        }
    }

    /// Materializes the fixed serving parameters plus one grid cell's
    /// (rate, schedule, microbatches) into a [`ServingSpec`].
    pub fn serving_spec(
        &self,
        rate_rps: f64,
        schedule: PipeSchedule,
        microbatches: u32,
    ) -> ServingSpec {
        ServingSpec {
            arrival: self.arrival.clone(),
            rate_rps,
            requests: self.requests,
            seed: self.seed,
            prompt_tokens: self.prompt_tokens,
            decode_tokens: self.decode_tokens,
            token_budget: self.token_budget,
            stages: self.stages,
            microbatches,
            schedule,
        }
    }

    /// Parses a scenario from TOML text. See the crate docs and
    /// `examples/scenarios/` for the format. Relative `file:` workload
    /// paths resolve against the current directory; prefer
    /// [`from_toml_path`](Scenario::from_toml_path) for scenario files
    /// on disk.
    pub fn from_toml_str(text: &str) -> Result<Scenario, ScenarioError> {
        Self::from_toml_str_at(text, None)
    }

    /// Reads and parses a scenario file. Relative `file:` workload
    /// paths resolve against the scenario file's directory, so scenarios
    /// can ship next to the models they reference.
    pub fn from_toml_path(path: impl AsRef<Path>) -> Result<Scenario, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            ScenarioError::Invalid(format!("cannot read scenario {}: {e}", path.display()))
        })?;
        Self::from_toml_str_at(&text, path.parent())
    }

    /// Parses scenario text with an explicit base directory for relative
    /// `file:` workload paths.
    pub fn from_toml_str_at(text: &str, base: Option<&Path>) -> Result<Scenario, ScenarioError> {
        let doc = toml::parse(text).map_err(ScenarioError::Parse)?;
        Scenario::from_toml(&doc, base)
    }

    fn from_toml(
        doc: &BTreeMap<String, Value>,
        base: Option<&Path>,
    ) -> Result<Scenario, ScenarioError> {
        let invalid = |msg: String| ScenarioError::Invalid(msg);

        // Reject misspelled keys loudly: a typoed axis name silently
        // falling back to its default would run the wrong sweep.
        const KNOWN_KEYS: [&str; 30] = [
            "name",
            "mode",
            "topologies",
            "engines",
            "ops",
            "payloads",
            "mem_gbps",
            "comm_sms",
            "sram_mb",
            "fsms",
            "configs",
            "workloads",
            "iterations",
            "optimized_embedding",
            "arrival",
            "arrival_rates",
            "schedules",
            "microbatches",
            "stages",
            "requests",
            "seed",
            "prompt_tokens",
            "decode_tokens",
            "token_budget",
            "faults",
            "contention",
            "stragglers",
            "baseline",
            "fidelity",
            "hybrid_top_pct",
        ];
        for key in doc.keys() {
            if !KNOWN_KEYS.contains(&key.as_str()) {
                let hint = ace_toml::did_you_mean(key, &KNOWN_KEYS);
                return Err(invalid(format!(
                    "unknown key '{key}'{hint} (known keys: {})",
                    KNOWN_KEYS.join(", ")
                )));
            }
        }

        let name = match doc.get("name") {
            Some(v) => v
                .as_str()
                .ok_or_else(|| invalid("'name' must be a string".into()))?
                .to_string(),
            None => "sweep".to_string(),
        };
        let mode = match doc.get("mode").map(|v| v.as_str()) {
            None => SweepMode::Collective,
            Some(Some("collective")) => SweepMode::Collective,
            Some(Some("training")) => SweepMode::Training,
            Some(Some("serving")) => SweepMode::Serving,
            Some(other) => {
                return Err(invalid(format!(
                    "'mode' must be \"collective\", \"training\" or \"serving\", got {other:?}"
                )))
            }
        };

        let mut sc = match mode {
            SweepMode::Collective => Scenario::collective(name),
            SweepMode::Training => Scenario::training(name),
            SweepMode::Serving => Scenario::serving(name),
        };

        if let Some(v) = doc.get("topologies") {
            sc.topologies = parse_list(v, "topologies", parse_topology)?;
        }
        if let Some(v) = doc.get("engines") {
            sc.engines = parse_list(v, "engines", |s, _| {
                s.as_str()
                    .ok_or_else(|| "expected string".to_string())
                    .and_then(|s| s.parse::<EngineFamily>())
            })?;
        }
        if let Some(v) = doc.get("ops") {
            sc.ops = parse_list(v, "ops", |s, _| {
                s.as_str()
                    .ok_or_else(|| "expected string".to_string())
                    .and_then(parse_op)
            })?;
        }
        if let Some(v) = doc.get("payloads") {
            sc.payload_bytes = parse_list(v, "payloads", |s, _| parse_bytes(s))?;
        }
        // Engine knobs are only converted here; `validate` judges their
        // ranges through `EngineKind::validate`.
        if let Some(v) = doc.get("mem_gbps") {
            sc.mem_gbps = parse_list(v, "mem_gbps", |s, _| parse_gbps(s))?;
        }
        if let Some(v) = doc.get("comm_sms") {
            sc.comm_sms = parse_list(v, "comm_sms", |s, _| parse_u32(s))?;
        }
        if let Some(v) = doc.get("sram_mb") {
            sc.sram_mb = parse_list(v, "sram_mb", |s, _| parse_u64(s))?;
        }
        if let Some(v) = doc.get("fsms") {
            sc.fsms = parse_list(v, "fsms", |s, _| parse_u64(s).map(|u| u as usize))?;
        }
        if let Some(v) = doc.get("configs") {
            sc.configs = parse_list(v, "configs", |s, _| {
                s.as_str()
                    .ok_or_else(|| "expected string".to_string())
                    .and_then(|s| s.parse::<SystemConfig>())
            })?;
        }
        if let Some(v) = doc.get("workloads") {
            sc.workloads = parse_list(v, "workloads", |s, _| {
                s.as_str()
                    .ok_or_else(|| "expected string".to_string())
                    .and_then(|s| WorkloadSel::parse(s, base))
            })?;
        }
        if let Some(v) = doc.get("iterations") {
            sc.iterations = v
                .as_i64()
                .filter(|&i| i >= 1 && i <= i64::from(u32::MAX))
                .ok_or_else(|| invalid("'iterations' must be a positive integer".into()))?
                as u32;
        }
        if let Some(v) = doc.get("optimized_embedding") {
            sc.optimized_embedding = v
                .as_bool()
                .ok_or_else(|| invalid("'optimized_embedding' must be a bool".into()))?;
        }
        if let Some(v) = doc.get("arrival") {
            let s = v
                .as_str()
                .ok_or_else(|| invalid("'arrival' must be a string".into()))?;
            sc.arrival = ArrivalKind::parse(s, base).map_err(invalid)?;
        }
        if let Some(v) = doc.get("arrival_rates") {
            sc.arrival_rates = parse_list(v, "arrival_rates", |s, _| {
                s.as_f64()
                    .ok_or_else(|| "expected an arrival rate in requests/s".to_string())
            })?;
        }
        if let Some(v) = doc.get("schedules") {
            sc.schedules = parse_list(v, "schedules", |s, _| {
                s.as_str()
                    .ok_or_else(|| "expected string".to_string())
                    .and_then(|s| s.parse::<PipeSchedule>())
            })?;
        }
        if let Some(v) = doc.get("microbatches") {
            sc.microbatches = parse_list(v, "microbatches", |s, _| parse_u32(s))?;
        }
        // Serving values are only converted here; `validate` judges them
        // through `ServingSpec::validate`.
        for (key, field) in [
            ("stages", &mut sc.stages),
            ("requests", &mut sc.requests),
            ("prompt_tokens", &mut sc.prompt_tokens),
            ("decode_tokens", &mut sc.decode_tokens),
            ("token_budget", &mut sc.token_budget),
        ] {
            if let Some(v) = doc.get(key) {
                *field = parse_u32(v).map_err(|e| invalid(format!("'{key}': {e}")))?;
            }
        }
        if let Some(v) = doc.get("faults") {
            sc.faults = parse_list(v, "faults", |s, _| {
                s.as_str()
                    .ok_or_else(|| "expected string".to_string())
                    .and_then(|s| s.parse::<FaultSpec>())
            })?;
        }
        if let Some(v) = doc.get("contention") {
            sc.contention = parse_list(v, "contention", |s, _| {
                s.as_str()
                    .ok_or_else(|| "expected string".to_string())
                    .and_then(|s| s.parse::<ContentionSpec>())
            })?;
        }
        if let Some(v) = doc.get("stragglers") {
            sc.stragglers = parse_list(v, "stragglers", |s, _| {
                s.as_str()
                    .ok_or_else(|| "expected string".to_string())
                    .and_then(|s| s.parse::<StragglerSpec>())
            })?;
        }
        if let Some(v) = doc.get("seed") {
            sc.seed = v
                .as_i64()
                .filter(|&i| i >= 0)
                .ok_or_else(|| invalid("'seed' must be a non-negative integer".into()))?
                as u64;
        }
        if let Some(v) = doc.get("fidelity") {
            sc.fidelity = v
                .as_str()
                .ok_or_else(|| invalid("'fidelity' must be a string".into()))?
                .parse::<Fidelity>()
                .map_err(invalid)?;
        }
        if let Some(v) = doc.get("hybrid_top_pct") {
            sc.hybrid_top_pct = v
                .as_f64()
                .ok_or_else(|| invalid("'hybrid_top_pct' must be a number".into()))?;
        }
        if let Some(v) = doc.get("baseline") {
            let table = v
                .as_table()
                .ok_or_else(|| invalid("[baseline] must be a table".into()))?;
            sc.baseline = Some(parse_baseline(table, mode)?);
        }

        sc.validate().map_err(ScenarioError::Invalid)?;
        Ok(sc)
    }

    /// Checks axis consistency for the scenario's mode. Value ranges are
    /// the model's to judge: each resolved engine goes through
    /// [`EngineKind::validate`] and each serving rate and microbatch
    /// count through [`ServingSpec::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if self.topologies.is_empty() {
            return Err("at least one topology is required".into());
        }
        for (axis, empty) in [
            ("faults", self.faults.is_empty()),
            ("contention", self.contention.is_empty()),
            ("stragglers", self.stragglers.is_empty()),
        ] {
            if empty {
                return Err(format!(
                    "the '{axis}' axis must not be empty (use [\"none\"] / [\"det\"] for pristine)"
                ));
            }
        }
        if !self.hybrid_top_pct.is_finite()
            || self.hybrid_top_pct <= 0.0
            || self.hybrid_top_pct > 100.0
        {
            return Err(format!(
                "hybrid_top_pct must be in (0, 100], got {}",
                self.hybrid_top_pct
            ));
        }
        match self.mode {
            SweepMode::Collective => {
                for (axis, empty) in [
                    ("engines", self.engines.is_empty()),
                    ("ops", self.ops.is_empty()),
                    ("payloads", self.payload_bytes.is_empty()),
                ] {
                    if empty {
                        return Err(format!("collective mode requires a nonempty '{axis}' axis"));
                    }
                }
                // The model's own check judges each engine the knob axes
                // resolve (once for every topology, op and payload), so no
                // cell reaches an asserting constructor.
                for engine in crate::grid::engine_axes(self) {
                    engine.validate()?;
                }
                if let Some(BaselineSpec::Engine(engine)) = self.baseline {
                    engine.validate().map_err(|e| format!("[baseline] {e}"))?;
                }
                if let Some(BaselineSpec::Config(_)) = self.baseline {
                    return Err("collective mode baseline must name an engine, not a config".into());
                }
            }
            SweepMode::Training => {
                if self.configs.is_empty() {
                    return Err("training mode requires a nonempty 'configs' axis".into());
                }
                if self.workloads.is_empty() {
                    return Err("training mode requires a nonempty 'workloads' axis".into());
                }
                for (i, w) in self.workloads.iter().enumerate() {
                    w.check().map_err(|e| format!("workloads[{i}]: {e}"))?;
                }
                if let Some(BaselineSpec::Engine(_)) = self.baseline {
                    return Err("training mode baseline must name a config, not an engine".into());
                }
            }
            SweepMode::Serving => {
                if self.configs.is_empty() {
                    return Err("serving mode requires a nonempty 'configs' axis".into());
                }
                if self.workloads.is_empty() {
                    return Err("serving mode requires a nonempty 'workloads' axis".into());
                }
                for (i, w) in self.workloads.iter().enumerate() {
                    w.check().map_err(|e| format!("workloads[{i}]: {e}"))?;
                }
                for (axis, empty) in [
                    ("arrival_rates", self.arrival_rates.is_empty()),
                    ("schedules", self.schedules.is_empty()),
                    ("microbatches", self.microbatches.is_empty()),
                ] {
                    if empty {
                        return Err(format!("serving mode requires a nonempty '{axis}' axis"));
                    }
                }
                // The serving model's own check judges every rate and
                // microbatch count with the fixed fields; the schedule
                // takes no part in it.
                let mut spec = self.serving_spec(
                    self.arrival_rates[0],
                    self.schedules[0],
                    self.microbatches[0],
                );
                for &rate_rps in &self.arrival_rates {
                    for &microbatches in &self.microbatches {
                        spec.rate_rps = rate_rps;
                        spec.microbatches = microbatches;
                        spec.validate()?;
                    }
                }
                if let Some(BaselineSpec::Engine(_)) = self.baseline {
                    return Err("serving mode baseline must name a config, not an engine".into());
                }
            }
        }
        Ok(())
    }

    /// A warning when a training or serving `topologies` axis mixes node
    /// counts. Such rows compare machine sizes along with fabrics: a
    /// workload instantiated on 64 nodes is not the one run on 16, so the
    /// faster fabric may only be the larger machine. Collective sweeps
    /// scale the fabric on purpose and are not checked.
    pub fn node_count_warning(&self) -> Option<String> {
        if self.mode == SweepMode::Collective {
            return None;
        }
        let first = self.topologies.first()?.nodes();
        if self.topologies.iter().all(|t| t.nodes() == first) {
            return None;
        }
        let sizes: Vec<String> = self
            .topologies
            .iter()
            .map(|t| format!("{t} = {}", t.nodes()))
            .collect();
        Some(format!(
            "{} mode topologies mix node counts ({}); rows compare machine sizes, \
             not only fabrics",
            self.mode,
            sizes.join(", ")
        ))
    }
}

/// Errors loading a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The TOML text failed to parse.
    Parse(toml::ParseError),
    /// The document parsed but the scenario is inconsistent.
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "{e}"),
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn parse_list<T>(
    v: &Value,
    key: &str,
    f: impl Fn(&Value, usize) -> Result<T, String>,
) -> Result<Vec<T>, ScenarioError> {
    let items = v
        .as_array()
        .ok_or_else(|| ScenarioError::Invalid(format!("'{key}' must be an array")))?;
    if items.is_empty() {
        return Err(ScenarioError::Invalid(format!("'{key}' must not be empty")));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, item)| f(item, i).map_err(|e| ScenarioError::Invalid(format!("{key}[{i}]: {e}"))))
        .collect()
}

fn parse_topology(v: &Value, _i: usize) -> Result<TopologySpec, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("expected a string naming {}", TopologySpec::spellings()))?;
    s.parse::<TopologySpec>()
}

/// Parses a collective-op name, tolerating hyphens/underscores — a
/// compatibility wrapper over the single parser in `ace-collectives`
/// (which also supplies the did-you-mean hints).
pub fn parse_op(s: &str) -> Result<CollectiveOp, String> {
    s.parse::<CollectiveOp>()
}

/// Parses a byte count: a plain integer, or a string with a `KB`/`MB`/`GB`
/// binary-power suffix (e.g. `"64MB"`) — hoisted to `ace-toml` so the
/// workload-spec parser shares it; re-exported for compatibility.
pub use ace_toml::parse_bytes;

/// A number of GB/s. Its range is the engine's to judge.
fn parse_gbps(v: &Value) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| "expected a number of GB/s".to_string())
}

/// A non-negative integer. Its range is the model's to judge.
fn parse_u64(v: &Value) -> Result<u64, String> {
    v.as_i64()
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| "expected a non-negative integer".to_string())
}

/// [`parse_u64`], refusing values above `u32::MAX` instead of wrapping.
fn parse_u32(v: &Value) -> Result<u32, String> {
    let u = parse_u64(v)?;
    u32::try_from(u).map_err(|_| format!("{u} is above the largest allowed value {}", u32::MAX))
}

fn parse_baseline(
    table: &BTreeMap<String, Value>,
    mode: SweepMode,
) -> Result<BaselineSpec, ScenarioError> {
    let invalid = |m: String| ScenarioError::Invalid(m);
    const KNOWN_KEYS: [&str; 6] = [
        "engine", "config", "mem_gbps", "comm_sms", "sram_mb", "fsms",
    ];
    for key in table.keys() {
        if !KNOWN_KEYS.contains(&key.as_str()) {
            return Err(invalid(format!(
                "[baseline] unknown key '{key}' (known keys: {})",
                KNOWN_KEYS.join(", ")
            )));
        }
    }
    match mode {
        SweepMode::Training | SweepMode::Serving => {
            let cfg = table
                .get("config")
                .and_then(|v| v.as_str())
                .ok_or_else(|| {
                    invalid(format!(
                        "[baseline] needs config = \"<name>\" in {mode} mode"
                    ))
                })?;
            Ok(BaselineSpec::Config(cfg.parse().map_err(invalid)?))
        }
        SweepMode::Collective => {
            let family: EngineFamily = table
                .get("engine")
                .and_then(|v| v.as_str())
                .ok_or_else(|| {
                    invalid("[baseline] needs engine = \"<name>\" in collective mode".into())
                })?
                .parse()
                .map_err(invalid)?;
            // `validate` judges the resolved engine.
            Ok(BaselineSpec::Engine(family.resolve(
                baseline_knob(table, "mem_gbps", parse_gbps)?,
                baseline_knob(table, "comm_sms", parse_u32)?,
                baseline_knob(table, "sram_mb", parse_u64)?,
                baseline_knob(table, "fsms", |v| parse_u64(v).map(|u| u as usize))?,
            )))
        }
    }
}

/// The `[baseline]` table's `key`, if present, converted by the same
/// `parse` as its scenario axis.
fn baseline_knob<T>(
    table: &BTreeMap<String, Value>,
    key: &str,
    parse: impl Fn(&Value) -> Result<T, String>,
) -> Result<Option<T>, ScenarioError> {
    table
        .get(key)
        .map(|v| parse(v).map_err(|e| ScenarioError::Invalid(format!("[baseline] {key}: {e}"))))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_scenario_parses() {
        let sc = Scenario::from_toml_str(
            r#"
            name = "fig05"
            mode = "collective"
            topologies = ["4x2x2", "4x4x4"]
            engines = ["ideal", "baseline", "ace"]
            ops = ["all-reduce"]
            payloads = ["64MB"]
            mem_gbps = [32, 64, 128, 450]
            comm_sms = [80]

            [baseline]
            engine = "ideal"
            "#,
        )
        .unwrap();
        assert_eq!(sc.name, "fig05");
        assert_eq!(sc.mode, SweepMode::Collective);
        assert_eq!(sc.topologies.len(), 2);
        assert_eq!(sc.engines.len(), 3);
        assert_eq!(sc.payload_bytes, vec![64 << 20]);
        assert_eq!(sc.mem_gbps, vec![32.0, 64.0, 128.0, 450.0]);
        assert_eq!(sc.baseline, Some(BaselineSpec::Engine(EngineKind::Ideal)));
    }

    #[test]
    fn training_scenario_parses() {
        let sc = Scenario::from_toml_str(
            r#"
            name = "fig11"
            mode = "training"
            topologies = ["4x2x2", "4x4x2"]
            configs = ["NoOverlap", "CommOpt", "ACE", "Ideal"]
            workloads = ["resnet50", "dlrm"]
            iterations = 1

            [baseline]
            config = "NoOverlap"
            "#,
        )
        .unwrap();
        assert_eq!(sc.mode, SweepMode::Training);
        assert_eq!(sc.configs.len(), 4);
        assert_eq!(
            sc.workloads,
            vec![
                WorkloadSel::builtin(BuiltinWorkload::Resnet50),
                WorkloadSel::builtin(BuiltinWorkload::Dlrm)
            ]
        );
        assert_eq!(sc.iterations, 1);
        assert_eq!(
            sc.baseline,
            Some(BaselineSpec::Config(SystemConfig::BaselineNoOverlap))
        );
    }

    #[test]
    fn defaults_fill_unswept_axes() {
        // Each engine family fills an unset knob with its own Table VI
        // value: CommOpt's for the baseline, ACE's for ACE.
        let engines = |sc: &Scenario| -> Vec<String> {
            crate::expand(sc)
                .iter()
                .map(|p| match p.kind {
                    crate::PointKind::Collective { engine, .. } => engine.to_string(),
                    _ => unreachable!("a collective grid"),
                })
                .collect()
        };
        let sc = Scenario::from_toml_str("topologies = [\"4x2x2\"]\n").unwrap();
        assert_eq!(sc.mode, SweepMode::Collective);
        assert_eq!(engines(&sc)[2], "ace[dma=128,sram=4MB,fsms=16]");
        assert_eq!(sc.iterations, 2);
        assert!(sc.baseline.is_none());
        let sc = Scenario::from_toml_str(
            "topologies = [\"2x1x1\"]\nengines = [\"baseline\", \"ace\"]\n",
        )
        .unwrap();
        assert_eq!(
            engines(&sc),
            ["baseline[mem=450,sms=6]", "ace[dma=128,sram=4MB,fsms=16]"]
        );
    }

    #[test]
    fn non_torus_topologies_parse() {
        let sc = Scenario::from_toml_str(
            "topologies = [\"4x2\", \"switch:16\", \"switch:8@100\", \"hier:4x8\"]\n",
        )
        .unwrap();
        assert_eq!(sc.topologies.len(), 4);
        assert_eq!(sc.topologies[0].nodes(), 8);
        assert_eq!(sc.topologies[1], TopologySpec::switch(16).unwrap());
        assert_eq!(
            sc.topologies[2],
            TopologySpec::switch_with_gbps(8, 100).unwrap()
        );
        assert_eq!(sc.topologies[3].nodes(), 32);
    }

    #[test]
    fn workload_axis_accepts_parallelism_overrides() {
        let sc = Scenario::from_toml_str(
            "mode = \"training\"\nworkloads = [\"transformer@model\", \"dlrm\", \"gnmt@data\"]\n",
        )
        .unwrap();
        assert_eq!(
            sc.workloads[0],
            WorkloadSel::Builtin {
                kind: BuiltinWorkload::TransformerLm,
                parallelism: Some(Parallelism::Model),
            }
        );
        assert_eq!(sc.workloads[0].to_string(), "transformer@model");
        assert_eq!(sc.workloads[1].to_string(), "dlrm");
        let w = sc.workloads[0].instantiate(16);
        assert_eq!(w.parallelism(), Parallelism::Model);
    }

    #[test]
    fn misspelled_workloads_get_hints_through_the_toml_layer() {
        // The old parser emitted a bare "unknown workload" message; the
        // hints must survive the scenario layer intact.
        let e =
            Scenario::from_toml_str("mode = \"training\"\nworkloads = [\"resent50\"]").unwrap_err();
        assert!(e.to_string().contains("did you mean 'resnet50'"), "{e}");
        let e = Scenario::from_toml_str("mode = \"training\"\nworkloads = [\"dlmr\"]").unwrap_err();
        assert!(e.to_string().contains("did you mean 'dlrm'"), "{e}");
        let e = Scenario::from_toml_str("mode = \"training\"\nworkloads = [\"gnmt@modell\"]")
            .unwrap_err();
        assert!(e.to_string().contains("did you mean 'model'"), "{e}");
        // Structurally impossible overrides are rejected at parse time.
        let e = Scenario::from_toml_str("mode = \"training\"\nworkloads = [\"resnet50@hybrid\"]")
            .unwrap_err();
        assert!(e.to_string().contains("embedding"), "{e}");
        // Missing custom files are reported with their path.
        let e = Scenario::from_toml_str(
            "mode = \"training\"\nworkloads = [\"file:does_not_exist.toml\"]",
        )
        .unwrap_err();
        assert!(e.to_string().contains("does_not_exist.toml"), "{e}");
    }

    #[test]
    fn custom_workloads_load_relative_to_the_scenario_file() {
        let dir = std::env::temp_dir().join("ace-sweep-custom-workload-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("model.toml"),
            "name = \"tiny\"\nbatch_per_npu = 4\n[[layer]]\nfwd_flops = 1e9\nfwd_bytes = 1e7\n\
             comm = \"all-reduce\"\ncomm_bytes = \"1MB\"\n",
        )
        .unwrap();
        let scenario_path = dir.join("scenario.toml");
        std::fs::write(
            &scenario_path,
            "mode = \"training\"\ntopologies = [\"2x1x1\"]\nworkloads = [\"file:model.toml\"]\n",
        )
        .unwrap();
        let sc = Scenario::from_toml_path(&scenario_path).unwrap();
        let WorkloadSel::File(custom) = &sc.workloads[0] else {
            panic!("expected a custom workload");
        };
        assert_eq!(custom.path(), "model.toml");
        assert_eq!(custom.spec().unwrap().name, "tiny");
        let w = sc.workloads[0].instantiate(2);
        assert_eq!(w.name(), "tiny");
        // Cache-key round trip: display → from_cache_key preserves
        // identity (path + fingerprint) without touching the filesystem.
        let key = sc.workloads[0].to_string();
        assert!(key.starts_with("file:model.toml#"), "{key}");
        let reparsed = WorkloadSel::from_cache_key(&key).unwrap();
        assert_eq!(reparsed, sc.workloads[0]);
        // Editing the file changes the fingerprint: stale cache rows miss.
        std::fs::write(
            dir.join("model.toml"),
            "name = \"tiny\"\nbatch_per_npu = 8\n[[layer]]\nfwd_flops = 1e9\nfwd_bytes = 1e7\n",
        )
        .unwrap();
        let sc2 = Scenario::from_toml_path(&scenario_path).unwrap();
        assert_ne!(sc2.workloads[0], sc.workloads[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn misspelled_topologies_get_a_hint() {
        let e = Scenario::from_toml_str("topologies = [\"swich:16\"]").unwrap_err();
        assert!(e.to_string().contains("did you mean 'switch'"), "{e}");
        let e = Scenario::from_toml_str("topologies = [\"blob\"]").unwrap_err();
        assert!(e.to_string().contains("switch:N"), "{e}");
    }

    #[test]
    fn config_typos_surface_hints_through_the_toml_layer() {
        // Regression: malformed names used to surface as opaque errors;
        // the parse hints must survive the scenario layer intact.
        let e = Scenario::from_toml_str("mode = \"training\"\nconfigs = [\"AEC\"]").unwrap_err();
        assert!(e.to_string().contains("did you mean 'ACE'"), "{e}");
        let e = Scenario::from_toml_str("topologies = [\"heir:2x4\"]").unwrap_err();
        assert!(e.to_string().contains("did you mean 'hier'"), "{e}");
        // Structural topology errors name the valid spellings.
        let e = Scenario::from_toml_str("topologies = [\"1x1x1\"]").unwrap_err();
        assert!(e.to_string().contains("at least two nodes"), "{e}");
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(Scenario::from_toml_str("topologies = [\"4x\"]").is_err());
        assert!(Scenario::from_toml_str("topologies = [\"0x2x2\"]").is_err());
        assert!(Scenario::from_toml_str("topologies = [\"switch:1\"]").is_err());
        assert!(Scenario::from_toml_str("engines = [\"warp-drive\"]").is_err());
        assert!(Scenario::from_toml_str("mode = \"quantum\"").is_err());
        assert!(Scenario::from_toml_str("payloads = [-5]").is_err());
        assert!(
            Scenario::from_toml_str("mode = \"training\"\nconfigs = [\"NotAConfig\"]").is_err()
        );
        // Baseline kind must match the mode.
        assert!(Scenario::from_toml_str("[baseline]\nconfig = \"ACE\"").is_err());
        assert!(
            Scenario::from_toml_str("mode = \"training\"\n[baseline]\nengine = \"ace\"").is_err()
        );
    }

    #[test]
    fn unknown_keys_are_rejected() {
        // A typoed axis silently falling back to defaults would run the
        // wrong sweep.
        let e = Scenario::from_toml_str("payload = [\"1MB\"]").unwrap_err();
        assert!(e.to_string().contains("unknown key 'payload'"), "{e}");
        assert!(Scenario::from_toml_str("memgbps = [128]").is_err());
        let e = Scenario::from_toml_str("[baseline]\nengine = \"ideal\"\nsms = 6").unwrap_err();
        assert!(e.to_string().contains("unknown key 'sms'"), "{e}");
        // Each cell runs one serial event loop, so a file asking for
        // `sim_threads` is told the key does not exist.
        let e = Scenario::from_toml_str("sim_threads = 4").unwrap_err();
        assert!(e.to_string().contains("unknown key 'sim_threads'"), "{e}");
    }

    #[test]
    fn out_of_range_knobs_are_rejected() {
        // These values would otherwise panic inside the simulator's
        // asserting constructors, or run outside Table V's endpoint.
        assert!(Scenario::from_toml_str("mem_gbps = [0]").is_err());
        assert!(Scenario::from_toml_str("mem_gbps = [-128]").is_err());
        assert!(Scenario::from_toml_str("comm_sms = [0]").is_err());
        assert!(Scenario::from_toml_str("sram_mb = [0]").is_err());
        assert!(Scenario::from_toml_str("fsms = [0]").is_err());
        assert!(
            Scenario::from_toml_str("[baseline]\nengine = \"baseline\"\ncomm_sms = 0").is_err()
        );
        assert!(Scenario::from_toml_str("[baseline]\nengine = \"ace\"\nmem_gbps = -1").is_err());
        assert!(Scenario::from_toml_str("[baseline]\nengine = \"ace\"\nsram_mb = -4").is_err());
        // The engine's own check judges both families against the 900 GB/s
        // of HBM and the 80 SMs, and names the offending value.
        for (toml, value) in [
            ("engines = [\"baseline\"]\nmem_gbps = [1000]", "1000 GB/s"),
            ("engines = [\"ace\"]\nmem_gbps = [1000]", "1000 GB/s"),
            ("comm_sms = [81]", "comm_sms 81"),
            ("sram_mb = [17592186044416]", "sram_mb 17592186044416"),
            ("fsms = [4000000000]", "fsms 4000000000"),
            ("[baseline]\nengine = \"ace\"\nfsms = 1025", "fsms 1025"),
            (
                "engines = [\"ideal\"]\n[baseline]\nengine = \"baseline\"\nmem_gbps = 1000",
                "[baseline] engine baseline[mem=1000,sms=6]",
            ),
        ] {
            let e = Scenario::from_toml_str(toml).unwrap_err();
            assert!(e.to_string().contains(value), "{toml}: {e}");
        }
        // The largest values that fit stay valid.
        Scenario::from_toml_str(
            "mem_gbps = [900]\ncomm_sms = [80]\nsram_mb = [17592186044415]\nfsms = [1024]",
        )
        .unwrap();
        // 2^32 + 6 must be refused, not narrowed to 6.
        for (toml, key) in [
            ("comm_sms = [4294967302]", "comm_sms[0]"),
            ("microbatches = [4294967302]", "microbatches[0]"),
            (
                "[baseline]\nengine = \"baseline\"\ncomm_sms = 4294967302",
                "[baseline] comm_sms",
            ),
        ] {
            let e = Scenario::from_toml_str(toml).unwrap_err();
            assert!(e.to_string().contains(key), "{toml}: {e}");
        }
        // Programmatic construction is validated by the runner too.
        let mut sc = Scenario::collective("bad");
        sc.mem_gbps = vec![0.0];
        assert!(sc.validate().is_err());
        sc.mem_gbps = vec![1000.0];
        let e = sc.validate().unwrap_err();
        assert!(e.contains("1000 GB/s"), "{e}");
        let e = crate::runner::SweepRunner::new()
            .run(&sc, Default::default())
            .unwrap_err();
        assert!(e.contains("1000 GB/s"), "{e}");
    }

    #[test]
    fn payload_suffixes() {
        let b = |s: &str| parse_bytes(&Value::Str(s.into())).unwrap();
        assert_eq!(b("64MB"), 64 << 20);
        assert_eq!(b("8 KB"), 8 << 10);
        assert_eq!(b("1GB"), 1 << 30);
        assert_eq!(b("512B"), 512);
        assert_eq!(b("4096"), 4096);
        assert_eq!(parse_bytes(&Value::Int(1024)).unwrap(), 1024);
        assert!(parse_bytes(&Value::Str("64XB".into())).is_err());
    }

    #[test]
    fn serving_scenario_parses() {
        let sc = Scenario::from_toml_str(
            r#"
            name = "serve"
            mode = "serving"
            topologies = ["4x4", "switch:16"]
            configs = ["ace"]
            workloads = ["transformer"]
            arrival = "bursty:4"
            arrival_rates = [250.0, 1000.0]
            schedules = ["gpipe", "1f1b"]
            microbatches = [4, 8]
            stages = 4
            requests = 16
            seed = 7
            prompt_tokens = 64
            decode_tokens = 2
            token_budget = 256

            [baseline]
            config = "ACE"
            "#,
        )
        .unwrap();
        assert_eq!(sc.mode, SweepMode::Serving);
        assert_eq!(sc.arrival, ArrivalKind::Bursty { burst: 4 });
        assert_eq!(sc.arrival_rates, vec![250.0, 1000.0]);
        assert_eq!(
            sc.schedules,
            vec![PipeSchedule::GPipe, PipeSchedule::OneFOneB]
        );
        assert_eq!(sc.microbatches, vec![4, 8]);
        assert_eq!((sc.stages, sc.requests, sc.seed), (4, 16, 7));
        assert_eq!((sc.prompt_tokens, sc.decode_tokens), (64, 2));
        assert_eq!(sc.token_budget, 256);
        assert_eq!(sc.baseline, Some(BaselineSpec::Config(SystemConfig::Ace)));
        // 2 topologies x 1 config x 1 workload x 2 rates x 2 schedules x 2 mb.
        assert_eq!(crate::grid::grid_len(&sc), 16);
        let spec = sc.serving_spec(250.0, PipeSchedule::OneFOneB, 4);
        assert_eq!(spec.requests, 16);
        assert_eq!(spec.prompt_tokens, 64);
        spec.validate().unwrap();
    }

    #[test]
    fn serving_defaults_fill_unswept_axes() {
        let sc = Scenario::from_toml_str("mode = \"serving\"\ntopologies = [\"4x4\"]\n").unwrap();
        assert_eq!(sc.mode, SweepMode::Serving);
        assert_eq!(sc.arrival, ArrivalKind::Poisson);
        assert_eq!(sc.arrival_rates, vec![500.0]);
        assert_eq!(sc.schedules, vec![PipeSchedule::GPipe]);
        assert_eq!(sc.microbatches, vec![8]);
        sc.validate().unwrap();
    }

    #[test]
    fn misspelled_serving_keys_get_hints() {
        // A typoed load axis silently running the default 500 rps would
        // invalidate the whole latency study.
        let e = Scenario::from_toml_str("mode = \"serving\"\narival_rates = [100.0]").unwrap_err();
        assert!(
            e.to_string().contains("did you mean 'arrival_rates'"),
            "{e}"
        );
        let e = Scenario::from_toml_str("mode = \"serving\"\nmicrobatch = [4]").unwrap_err();
        assert!(e.to_string().contains("did you mean 'microbatches'"), "{e}");
        // Arrival-process hints survive the TOML layer.
        let e = Scenario::from_toml_str("mode = \"serving\"\narrival = \"poison\"").unwrap_err();
        assert!(e.to_string().contains("did you mean 'poisson'"), "{e}");
        // Schedule hints come from the PipeSchedule parser.
        let e = Scenario::from_toml_str("mode = \"serving\"\nschedules = [\"gpip\"]").unwrap_err();
        assert!(e.to_string().contains("gpipe"), "{e}");
    }

    #[test]
    fn serving_scenario_rejects_bad_values() {
        assert!(Scenario::from_toml_str("mode = \"serving\"\narrival_rates = [0.0]").is_err());
        assert!(Scenario::from_toml_str("mode = \"serving\"\narrival_rates = [-5.0]").is_err());
        assert!(Scenario::from_toml_str("mode = \"serving\"\nstages = 0").is_err());
        assert!(Scenario::from_toml_str("mode = \"serving\"\nrequests = 0").is_err());
        assert!(Scenario::from_toml_str("mode = \"serving\"\ntoken_budget = 0").is_err());
        // Every rate and microbatch count is judged, not only the first.
        for (toml, value) in [
            ("arrival_rates = [250.0, 0.0]", "got 0"),
            ("microbatches = [4, 0]", "microbatches"),
        ] {
            let e = Scenario::from_toml_str(&format!("mode = \"serving\"\n{toml}")).unwrap_err();
            assert!(e.to_string().contains(value), "{toml}: {e}");
        }
        let e = Scenario::from_toml_str("hybrid_top_pct = 0").unwrap_err();
        assert!(e.to_string().contains("hybrid_top_pct"), "{e}");
        // Serving baselines compare configs, not collective engines.
        let e = Scenario::from_toml_str("mode = \"serving\"\n[baseline]\nengine = \"ideal\"")
            .unwrap_err();
        assert!(e.to_string().contains("config"), "{e}");
    }

    #[test]
    fn fault_axes_parse_and_default() {
        let sc = Scenario::from_toml_str(
            "topologies = [\"4x2x2\"]\nfaults = [\"none\", \"kill:1@seed:42\"]\n\
             contention = [\"uniform:8\"]\n",
        )
        .unwrap();
        assert_eq!(sc.faults.len(), 2);
        assert_eq!(sc.faults[0], FaultSpec::default());
        assert!(sc.faults[0].is_none());
        assert_eq!(sc.contention, vec!["uniform:8".parse().unwrap()]);
        // Unswept axes default to the single pristine entry.
        assert_eq!(sc.stragglers, vec![StragglerSpec::default()]);
        // Round-trip: the Display spelling re-parses to the same spec.
        let spelled = sc.faults[1].to_string();
        assert_eq!(spelled.parse::<FaultSpec>().unwrap(), sc.faults[1]);
    }

    #[test]
    fn bad_fault_axes_are_rejected_with_their_key() {
        let e = Scenario::from_toml_str("faults = [\"kill\"]").unwrap_err();
        assert!(e.to_string().contains("faults[0]"), "{e}");
        let e = Scenario::from_toml_str("stragglers = [\"lognormal\"]").unwrap_err();
        assert!(e.to_string().contains("stragglers[0]"), "{e}");
        let e = Scenario::from_toml_str("contention = [\"hotspot\"]").unwrap_err();
        assert!(e.to_string().contains("contention[0]"), "{e}");
        // A typoed axis name gets the did-you-mean treatment.
        let e = Scenario::from_toml_str("fault = [\"none\"]").unwrap_err();
        assert!(e.to_string().contains("did you mean 'faults'"), "{e}");
        // Programmatically emptied axes fail validation cleanly.
        let mut sc = Scenario::collective("bad");
        sc.faults = Vec::new();
        assert!(sc.validate().is_err());
    }

    #[test]
    fn mixed_node_counts_warn_in_training_and_serving_modes() {
        let topo = |s: &str| s.parse::<TopologySpec>().unwrap();
        let mut sc = Scenario::serving("mixed");
        sc.topologies = vec![topo("4x4"), topo("switch:64@100"), topo("hier:8x8")];
        let w = sc.node_count_warning().expect("16 vs 64 nodes");
        assert!(w.starts_with("serving mode"), "{w}");
        assert!(w.contains("4x4 = 16") && w.contains("hier:8x8 = 64"), "{w}");
        sc.topologies[0] = topo("4x4x4");
        assert_eq!(sc.node_count_warning(), None, "all 64 nodes");

        let mut sc = Scenario::training("mixed");
        sc.topologies = vec![topo("4x2x2"), topo("switch:64")];
        assert!(sc.node_count_warning().is_some());
        sc.topologies = vec![topo("4x2x2"), topo("switch:16")];
        assert_eq!(sc.node_count_warning(), None);

        // Collective sweeps scale the fabric on purpose.
        let mut sc = Scenario::collective("scaling");
        sc.topologies = vec![topo("4x2x2"), topo("4x4x4")];
        assert_eq!(sc.node_count_warning(), None);
    }
}
