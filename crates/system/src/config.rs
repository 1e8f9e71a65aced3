//! The five evaluated system configurations (paper Table VI).

use std::fmt;

use ace_compute::NpuParams;
use ace_mem::HBM_TOTAL_GBPS;
use ace_workloads::ComputeCarveout;

use crate::collective_run::EngineKind;

/// The endpoint configurations compared throughout Section VI. Each
/// one's split of the NPU between training compute and communication is
/// written once, in [`engine`](SystemConfig::engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemConfig {
    /// No compute/communication overlap: collectives are gathered and
    /// issued in one batch at the end of back-propagation with every
    /// endpoint resource available to them.
    BaselineNoOverlap,
    /// Overlapped, tuned for communication: enough HBM and SMs go to
    /// the communication task to reach ≈90 % of ideal network
    /// performance.
    BaselineCommOpt,
    /// Overlapped, tuned for compute: communication is starved so that
    /// compute keeps most of the SMs and HBM.
    BaselineCompOpt,
    /// The proposed system: ACE handles collectives behind a DMA
    /// carve-out of HBM; every SM remains for training compute.
    Ace,
    /// Endpoint processes messages in one cycle; upper bound.
    Ideal,
}

impl SystemConfig {
    /// All five configurations in Table VI order.
    pub const ALL: [SystemConfig; 5] = [
        SystemConfig::BaselineNoOverlap,
        SystemConfig::BaselineCommOpt,
        SystemConfig::BaselineCompOpt,
        SystemConfig::Ace,
        SystemConfig::Ideal,
    ];

    /// The collective engine this configuration runs: the one place
    /// Table VI's communication allocation is written. The exact tier's
    /// endpoint ([`EngineKind::endpoint`]), the α–β tier's
    /// [`endpoint_model`](crate::endpoint_model) and the kernel budget
    /// all derive from it.
    pub fn engine(self) -> EngineKind {
        match self {
            SystemConfig::BaselineNoOverlap => EngineKind::Baseline {
                comm_mem_gbps: 900.0,
                comm_sms: 80,
            },
            SystemConfig::BaselineCommOpt => EngineKind::Baseline {
                comm_mem_gbps: 450.0,
                comm_sms: 6,
            },
            SystemConfig::BaselineCompOpt => EngineKind::Baseline {
                comm_mem_gbps: 128.0,
                comm_sms: 2,
            },
            SystemConfig::Ace => EngineKind::Ace {
                dma_mem_gbps: 128.0,
                sram_mb: 4,
                fsms: 16,
            },
            SystemConfig::Ideal => EngineKind::Ideal,
        }
    }

    /// SMs and HBM GB/s left to training kernels: what the
    /// [`engine`](SystemConfig::engine) does not hold while they run,
    /// less a program's `carveout`, never below 1 SM or 1 GB/s. Both the
    /// exact and the analytic tier size every kernel with this.
    pub(crate) fn kernel_resources(self, carveout: Option<ComputeCarveout>) -> (u32, f64) {
        // NoOverlap's communication runs alone and Ideal's costs nothing,
        // so their kernels keep the whole NPU.
        let (comm_sms, comm_gbps) = match self.engine() {
            EngineKind::Baseline {
                comm_mem_gbps,
                comm_sms,
            } if self.overlaps() => (comm_sms, comm_mem_gbps),
            EngineKind::Ace { dma_mem_gbps, .. } => (0, dma_mem_gbps),
            _ => (0, 0.0),
        };
        let sms = NpuParams::paper_default().sms - comm_sms;
        let mem_gbps = HBM_TOTAL_GBPS - comm_gbps;
        match carveout {
            Some(c) => (
                sms.saturating_sub(c.sms).max(1),
                (mem_gbps - c.mem_gbps).max(1.0),
            ),
            None => (sms, mem_gbps),
        }
    }

    /// Whether communication overlaps compute (false only for
    /// BaselineNoOverlap).
    pub fn overlaps(self) -> bool {
        !matches!(self, SystemConfig::BaselineNoOverlap)
    }

    /// Short name used in experiment tables.
    pub fn short_name(self) -> &'static str {
        match self {
            SystemConfig::BaselineNoOverlap => "NoOverlap",
            SystemConfig::BaselineCommOpt => "CommOpt",
            SystemConfig::BaselineCompOpt => "CompOpt",
            SystemConfig::Ace => "ACE",
            SystemConfig::Ideal => "Ideal",
        }
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

impl ace_net::Spelling for SystemConfig {
    const WHAT: &'static str = "system config";

    fn keywords() -> &'static [&'static str] {
        &["NoOverlap", "CommOpt", "CompOpt", "ACE", "Ideal"]
    }

    fn spellings() -> &'static str {
        "one of NoOverlap, CommOpt, CompOpt, ACE, Ideal (case-insensitive)"
    }

    fn parse_spelling(s: &str) -> Result<Self, ace_net::SpellingError> {
        let lower = s.trim().to_ascii_lowercase();
        SystemConfig::ALL
            .into_iter()
            .find(|c| c.short_name().to_ascii_lowercase() == lower)
            .ok_or(ace_net::SpellingError::Unknown)
    }
}

impl std::str::FromStr for SystemConfig {
    type Err = String;

    /// Parses a configuration from its [`short_name`](SystemConfig::short_name)
    /// (case-insensitive), as used by sweep scenario files. Error wording
    /// (the valid-spelling list and the did-you-mean hint) comes from the
    /// shared [`ace_net::Spelling`] formatter.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ace_net::Spelling::from_spelling(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_vi() {
        let baseline = |comm_mem_gbps, comm_sms| EngineKind::Baseline {
            comm_mem_gbps,
            comm_sms,
        };
        assert_eq!(
            SystemConfig::BaselineNoOverlap.engine(),
            baseline(900.0, 80)
        );
        assert_eq!(SystemConfig::BaselineCommOpt.engine(), baseline(450.0, 6));
        assert_eq!(SystemConfig::BaselineCompOpt.engine(), baseline(128.0, 2));
        assert_eq!(
            SystemConfig::Ace.engine(),
            EngineKind::Ace {
                dma_mem_gbps: 128.0,
                sram_mb: 4,
                fsms: 16
            }
        );
        assert_eq!(SystemConfig::Ideal.engine(), EngineKind::Ideal);
    }

    #[test]
    fn table_vi_resource_splits() {
        let kernel = |c: SystemConfig| c.kernel_resources(None);
        assert_eq!(kernel(SystemConfig::BaselineNoOverlap), (80, 900.0));
        assert_eq!(kernel(SystemConfig::BaselineCommOpt), (74, 450.0));
        assert_eq!(kernel(SystemConfig::BaselineCompOpt), (78, 772.0));
        assert_eq!(kernel(SystemConfig::Ace), (80, 772.0));
        assert_eq!(kernel(SystemConfig::Ideal), (80, 900.0));
        // A program carve-out comes off what the engine leaves.
        let carveout = Some(ComputeCarveout::embedding_default());
        assert_eq!(SystemConfig::Ace.kernel_resources(carveout), (79, 692.0));
    }

    #[test]
    fn only_no_overlap_blocks() {
        for c in SystemConfig::ALL {
            assert_eq!(c.overlaps(), c != SystemConfig::BaselineNoOverlap);
        }
    }

    #[test]
    fn engines_construct_for_all_configs() {
        for c in SystemConfig::ALL {
            let mut e = c.engine().endpoint(&[1.0, 0.5, 0.5, 1.0]);
            assert!(e.try_admit(0, 1024, ace_simcore::SimTime::ZERO));
        }
    }

    #[test]
    fn short_names_roundtrip_through_from_str() {
        for c in SystemConfig::ALL {
            assert_eq!(c.short_name().parse::<SystemConfig>().unwrap(), c);
            assert_eq!(
                c.short_name()
                    .to_lowercase()
                    .parse::<SystemConfig>()
                    .unwrap(),
                c
            );
        }
        assert!("NotAConfig".parse::<SystemConfig>().is_err());
    }

    #[test]
    fn unknown_config_errors_carry_hints() {
        // A near-miss gets a did-you-mean suggestion...
        let e = "AEC".parse::<SystemConfig>().unwrap_err();
        assert!(e.contains("did you mean 'ACE'"), "{e}");
        let e = "CommOpts".parse::<SystemConfig>().unwrap_err();
        assert!(e.contains("did you mean 'CommOpt'"), "{e}");
        let e = "ideel".parse::<SystemConfig>().unwrap_err();
        assert!(e.contains("did you mean 'Ideal'"), "{e}");
        // ...every error lists the valid spellings...
        let e = "NotAConfig".parse::<SystemConfig>().unwrap_err();
        assert!(e.contains("NoOverlap") && e.contains("Ideal"), "{e}");
        // ...and a wild miss gets no bogus suggestion.
        assert!(!e.contains("did you mean"), "{e}");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = SystemConfig::ALL.iter().map(|c| c.short_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
