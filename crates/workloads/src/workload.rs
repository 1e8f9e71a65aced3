//! The workload container and parallelization strategy.

use std::fmt;

use ace_compute::KernelDesc;

use crate::layer::Layer;

/// The per-stage execution order of a pipeline-parallel schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipeSchedule {
    /// GPipe: every stage runs all forward microbatches, then all
    /// backward microbatches (maximal activation memory, simple order).
    GPipe,
    /// 1F1B: each stage warms up with `stages - 1 - s` forwards, then
    /// alternates one-forward-one-backward, then drains the remaining
    /// backwards — the Megatron/PipeDream steady state.
    OneFOneB,
}

impl PipeSchedule {
    /// Spec-file name of the schedule.
    pub fn name(self) -> &'static str {
        match self {
            PipeSchedule::GPipe => "gpipe",
            PipeSchedule::OneFOneB => "1f1b",
        }
    }
}

impl fmt::Display for PipeSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ace_toml::Spelling for PipeSchedule {
    const WHAT: &'static str = "pipeline schedule";

    fn keywords() -> &'static [&'static str] {
        &["gpipe", "1f1b"]
    }

    fn spellings() -> &'static str {
        "gpipe or 1f1b"
    }

    fn parse_spelling(s: &str) -> Result<Self, ace_toml::SpellingError> {
        match s.trim().to_ascii_lowercase().as_str() {
            "gpipe" => Ok(PipeSchedule::GPipe),
            "1f1b" | "onefoneb" => Ok(PipeSchedule::OneFOneB),
            _ => Err(ace_toml::SpellingError::Unknown),
        }
    }
}

impl std::str::FromStr for PipeSchedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        use ace_toml::Spelling;
        PipeSchedule::from_spelling(s)
    }
}

/// How the model is split across NPUs (Section II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Model replicated; weight gradients all-reduced (ResNet-50, GNMT).
    Data,
    /// Data-parallel MLPs + model-parallel embedding tables exchanged via
    /// all-to-all (DLRM).
    Hybrid,
    /// Megatron-style tensor parallelism (the paper's Section III
    /// motivation): every layer all-reduces activations in the forward
    /// pass and input gradients in the backward pass, both blocking; no
    /// weight-gradient collectives (weights are sharded).
    Model,
    /// Pipeline parallelism: contiguous layer groups on consecutive
    /// fabric positions, microbatched, with stage-boundary point-to-point
    /// activation/gradient transfers and no weight-gradient collectives.
    Pipeline {
        /// Pipeline depth (contiguous layer groups).
        stages: u32,
        /// Microbatches per iteration (the mini-batch is split evenly).
        microbatches: u32,
        /// Per-stage execution order.
        schedule: PipeSchedule,
    },
}

/// Default pipeline depth for the bare `pipeline@<schedule>` spelling.
pub const DEFAULT_PIPELINE_STAGES: u32 = 4;
/// Default microbatch count for the bare `pipeline@<schedule>` spelling.
pub const DEFAULT_PIPELINE_MICROBATCHES: u32 = 8;

impl Parallelism {
    /// A pipeline strategy with the default depth/microbatch geometry.
    pub fn pipeline(schedule: PipeSchedule) -> Parallelism {
        Parallelism::Pipeline {
            stages: DEFAULT_PIPELINE_STAGES,
            microbatches: DEFAULT_PIPELINE_MICROBATCHES,
            schedule,
        }
    }

    /// Spec-file name of the strategy. Pipeline strategies spell their
    /// full geometry (`pipeline@gpipe@4x8`) so the name round-trips
    /// through [`std::str::FromStr`] and is a stable cache-key token.
    pub fn name(self) -> String {
        match self {
            Parallelism::Data => "data".into(),
            Parallelism::Hybrid => "hybrid".into(),
            Parallelism::Model => "model".into(),
            Parallelism::Pipeline {
                stages,
                microbatches,
                schedule,
            } => format!("pipeline@{}@{stages}x{microbatches}", schedule.name()),
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Data => f.write_str("data-parallel"),
            Parallelism::Hybrid => f.write_str("hybrid-parallel"),
            Parallelism::Model => f.write_str("model-parallel"),
            Parallelism::Pipeline {
                stages,
                microbatches,
                schedule,
            } => write!(
                f,
                "pipeline-parallel ({}, {stages} stages, {microbatches} microbatches)",
                schedule.name()
            ),
        }
    }
}

impl ace_toml::Spelling for Parallelism {
    const WHAT: &'static str = "parallelism";

    fn keywords() -> &'static [&'static str] {
        &["data", "hybrid", "model", "pipeline@gpipe", "pipeline@1f1b"]
    }

    fn spellings() -> &'static str {
        "data, hybrid, model, pipeline@gpipe, or pipeline@1f1b"
    }

    /// Parses the spec-file spelling (`data`, `hybrid`, `model`;
    /// `tensor` is accepted as a Megatron-familiar alias of `model`).
    /// Pipeline strategies spell `pipeline@gpipe` / `pipeline@1f1b`,
    /// optionally with an explicit geometry suffix
    /// (`pipeline@1f1b@4x8` = 4 stages × 8 microbatches).
    fn parse_spelling(s: &str) -> Result<Self, ace_toml::SpellingError> {
        use ace_toml::SpellingError;
        let lower = s.trim().to_ascii_lowercase();
        if let Some(rest) = lower.strip_prefix("pipeline@") {
            let (sched, geometry) = match rest.split_once('@') {
                None => (rest, None),
                Some((sched, geom)) => (sched, Some(geom)),
            };
            let schedule = sched
                .parse::<PipeSchedule>()
                .map_err(SpellingError::Invalid)?;
            let (stages, microbatches) = match geometry {
                None => (DEFAULT_PIPELINE_STAGES, DEFAULT_PIPELINE_MICROBATCHES),
                Some(geom) => {
                    let (st, mb) = geom.split_once('x').ok_or_else(|| {
                        SpellingError::invalid(format!(
                            "bad pipeline geometry '{geom}' (expected \
                             '<stages>x<microbatches>', e.g. '4x8')"
                        ))
                    })?;
                    let stages = st.parse::<u32>().map_err(|_| {
                        SpellingError::invalid(format!("bad pipeline stage count '{st}'"))
                    })?;
                    let microbatches = mb.parse::<u32>().map_err(|_| {
                        SpellingError::invalid(format!("bad microbatch count '{mb}'"))
                    })?;
                    (stages, microbatches)
                }
            };
            if stages < 2 {
                return Err(SpellingError::invalid(format!(
                    "a pipeline needs at least 2 stages, got {stages}"
                )));
            }
            if microbatches == 0 {
                return Err(SpellingError::invalid(
                    "a pipeline needs at least 1 microbatch".to_string(),
                ));
            }
            return Ok(Parallelism::Pipeline {
                stages,
                microbatches,
                schedule,
            });
        }
        match lower.as_str() {
            "data" => Ok(Parallelism::Data),
            "hybrid" => Ok(Parallelism::Hybrid),
            "model" | "tensor" => Ok(Parallelism::Model),
            _ => Err(SpellingError::Unknown),
        }
    }
}

impl std::str::FromStr for Parallelism {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        use ace_toml::Spelling;
        Parallelism::from_spelling(s)
    }
}

/// DLRM's embedding pipeline stage: lookup/update kernels and the
/// all-to-all payloads they produce (Section V, VI-D).
#[derive(Debug, Clone)]
pub struct EmbeddingStage {
    /// Embedding lookup kernel (forward, memory-dominated).
    pub lookup: KernelDesc,
    /// Embedding update kernel (backward, memory-dominated).
    pub update: KernelDesc,
    /// Per-node forward all-to-all payload (bytes): pooled embedding
    /// vectors exchanged before the top MLP.
    pub fwd_all_to_all_bytes: u64,
    /// Per-node backward all-to-all payload (bytes): embedding gradients
    /// returned to their owner tables.
    pub bwd_all_to_all_bytes: u64,
    /// Index of the first top-MLP layer: the forward pass blocks on the
    /// all-to-all before entering this layer.
    pub top_mlp_start: usize,
}

/// A training workload: layers plus parallelization metadata.
#[derive(Debug, Clone)]
pub struct Workload {
    name: String,
    layers: Vec<Layer>,
    parallelism: Parallelism,
    batch_per_npu: u32,
    embedding: Option<EmbeddingStage>,
}

impl Workload {
    /// Creates a data-parallel workload.
    pub fn data_parallel(
        name: impl Into<String>,
        layers: Vec<Layer>,
        batch_per_npu: u32,
    ) -> Workload {
        Workload {
            name: name.into(),
            layers,
            parallelism: Parallelism::Data,
            batch_per_npu,
            embedding: None,
        }
    }

    /// Creates a hybrid-parallel workload with an embedding stage.
    pub fn hybrid_parallel(
        name: impl Into<String>,
        layers: Vec<Layer>,
        batch_per_npu: u32,
        embedding: EmbeddingStage,
    ) -> Workload {
        Workload {
            name: name.into(),
            layers,
            parallelism: Parallelism::Hybrid,
            batch_per_npu,
            embedding: Some(embedding),
        }
    }

    /// ResNet-50 v1.5 for vision, mini-batch 32 per NPU (Section V).
    pub fn resnet50() -> Workload {
        crate::resnet::build(32)
    }

    /// GNMT (8-layer encoder/decoder LSTM) for NLP, mini-batch 128.
    pub fn gnmt() -> Workload {
        crate::gnmt::build(128)
    }

    /// DLRM recommendation model, mini-batch 512, hybrid parallel. The
    /// all-to-all payloads depend on the node count (model-parallel tables),
    /// so the fabric size is a parameter.
    pub fn dlrm(nodes: usize) -> Workload {
        crate::dlrm::build(512, nodes)
    }

    /// Transformer-LM (Megatron-LM-style), mini-batch 16 sequences per
    /// NPU — the paper's Section III motivation workload, provided as an
    /// extension beyond the evaluated trio.
    pub fn transformer_lm() -> Workload {
        crate::transformer::build(16)
    }

    /// The paper's three workloads for a given fabric size.
    pub fn paper_suite(nodes: usize) -> Vec<Workload> {
        vec![
            Workload::resnet50(),
            Workload::gnmt(),
            Workload::dlrm(nodes),
        ]
    }

    /// Re-parallelizes the workload: the same layer table trained under
    /// a different strategy (e.g. the Transformer-LM under Megatron-style
    /// [`Parallelism::Model`]). An embedding stage, when present, keeps
    /// its all-to-all pipeline under any strategy.
    ///
    /// # Errors
    ///
    /// [`Parallelism::Hybrid`] requires an embedding stage.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Result<Workload, String> {
        if parallelism == Parallelism::Hybrid && self.embedding.is_none() {
            return Err(format!(
                "workload '{}' has no embedding stage; hybrid parallelism needs one",
                self.name
            ));
        }
        if let Parallelism::Pipeline { stages, .. } = parallelism {
            if (stages as usize) > self.layers.len() {
                return Err(format!(
                    "workload '{}' has {} layers; cannot split into {stages} \
                     pipeline stages",
                    self.name,
                    self.layers.len()
                ));
            }
        }
        self.parallelism = parallelism;
        Ok(self)
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layers in forward order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Parallelization strategy.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Mini-batch per NPU (weak scaling).
    pub fn batch_per_npu(&self) -> u32 {
        self.batch_per_npu
    }

    /// DLRM's embedding stage, if any.
    pub fn embedding(&self) -> Option<&EmbeddingStage> {
        self.embedding.as_ref()
    }

    /// Total per-node bytes of layer collectives per iteration (excludes
    /// the embedding all-to-alls).
    pub fn total_comm_bytes(&self) -> u64 {
        self.layers
            .iter()
            .filter_map(|l| l.comm())
            .map(|c| c.bytes)
            .sum()
    }

    /// Total flops of one iteration (fwd + input-grad + weight-grad, plus
    /// embedding kernels).
    pub fn total_flops(&self) -> f64 {
        let layers: f64 = self
            .layers
            .iter()
            .map(|l| l.fwd().flops() + l.input_grad().flops() + l.weight_grad().flops())
            .sum();
        let emb = self
            .embedding
            .as_ref()
            .map(|e| e.lookup.flops() + e.update.flops())
            .unwrap_or(0.0);
        layers + emb
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} layers, batch {}/NPU)",
            self.name,
            self.parallelism,
            self.layers.len(),
            self.batch_per_npu
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_contains_three_workloads() {
        let suite = Workload::paper_suite(16);
        let names: Vec<&str> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(names, vec!["ResNet-50", "GNMT", "DLRM"]);
    }

    #[test]
    fn batch_sizes_match_section_v() {
        assert_eq!(Workload::resnet50().batch_per_npu(), 32);
        assert_eq!(Workload::gnmt().batch_per_npu(), 128);
        assert_eq!(Workload::dlrm(16).batch_per_npu(), 512);
    }

    #[test]
    fn parallelism_kinds() {
        assert_eq!(Workload::resnet50().parallelism(), Parallelism::Data);
        assert_eq!(Workload::gnmt().parallelism(), Parallelism::Data);
        assert_eq!(Workload::dlrm(16).parallelism(), Parallelism::Hybrid);
        assert!(Workload::dlrm(16).embedding().is_some());
        assert!(Workload::resnet50().embedding().is_none());
    }

    #[test]
    fn totals_are_positive() {
        for w in Workload::paper_suite(64) {
            assert!(w.total_flops() > 0.0, "{}", w.name());
            assert!(w.total_comm_bytes() > 0);
        }
    }

    #[test]
    fn display_mentions_strategy() {
        let s = Workload::dlrm(16).to_string();
        assert!(s.contains("hybrid"));
    }
}
