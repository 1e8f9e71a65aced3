//! The five evaluated system configurations (paper Table VI).

use std::fmt;

use ace_endpoint::{
    AceEndpoint, AceEndpointParams, BaselineEngine, BaselineParams, CollectiveEngine, IdealEndpoint,
};
use ace_workloads::ComputeCarveout;

/// The endpoint configurations compared throughout Section VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemConfig {
    /// No compute/communication overlap: collectives are gathered and
    /// issued in one batch at the end of back-propagation with every
    /// endpoint resource available to them.
    BaselineNoOverlap,
    /// Overlapped, tuned for communication: 450 GB/s of HBM and 6 SMs go
    /// to the communication task (reaches ≈90 % of ideal network
    /// performance).
    BaselineCommOpt,
    /// Overlapped, tuned for compute: communication gets 128 GB/s and
    /// 2 SMs; compute keeps 772 GB/s and 78 SMs.
    BaselineCompOpt,
    /// The proposed system: ACE handles collectives with a 128 GB/s DMA
    /// carve-out; all 80 SMs and 772 GB/s remain for training compute.
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

    /// SMs available to training compute.
    pub fn compute_sms(self) -> u32 {
        match self {
            SystemConfig::BaselineNoOverlap => 80,
            SystemConfig::BaselineCommOpt => 74,
            SystemConfig::BaselineCompOpt => 78,
            SystemConfig::Ace => 80,
            SystemConfig::Ideal => 80,
        }
    }

    /// HBM bandwidth available to training compute, GB/s.
    pub fn compute_mem_gbps(self) -> f64 {
        match self {
            SystemConfig::BaselineNoOverlap => 900.0,
            SystemConfig::BaselineCommOpt => 450.0,
            SystemConfig::BaselineCompOpt => 772.0,
            SystemConfig::Ace => 772.0,
            SystemConfig::Ideal => 900.0,
        }
    }

    /// SMs and HBM GB/s left to training kernels once a program's
    /// `carveout` is loaned away, never below 1 SM or 1 GB/s. Both the
    /// exact and the analytic tier size every kernel with this.
    pub(crate) fn kernel_resources(self, carveout: Option<ComputeCarveout>) -> (u32, f64) {
        match carveout {
            Some(c) => (
                self.compute_sms().saturating_sub(c.sms).max(1),
                (self.compute_mem_gbps() - c.mem_gbps).max(1.0),
            ),
            None => (self.compute_sms(), self.compute_mem_gbps()),
        }
    }

    /// Whether communication overlaps compute (false only for
    /// BaselineNoOverlap).
    pub fn overlaps(self) -> bool {
        !matches!(self, SystemConfig::BaselineNoOverlap)
    }

    /// Builds one node's collective engine. `phase_weights` carries the
    /// ACE SRAM-partition heuristic weights for the workload's all-reduce
    /// plan.
    pub fn make_engine(self, phase_weights: &[f64]) -> Box<dyn CollectiveEngine> {
        match self {
            SystemConfig::BaselineNoOverlap => {
                Box::new(BaselineEngine::new(BaselineParams::no_overlap()))
            }
            SystemConfig::BaselineCommOpt => {
                Box::new(BaselineEngine::new(BaselineParams::comm_opt()))
            }
            SystemConfig::BaselineCompOpt => {
                Box::new(BaselineEngine::new(BaselineParams::comp_opt()))
            }
            SystemConfig::Ace => Box::new(AceEndpoint::new(AceEndpointParams::paper_default(
                phase_weights.to_vec(),
            ))),
            SystemConfig::Ideal => Box::new(IdealEndpoint::new()),
        }
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
    fn table_vi_resource_splits() {
        assert_eq!(SystemConfig::BaselineCommOpt.compute_sms(), 74);
        assert_eq!(SystemConfig::BaselineCommOpt.compute_mem_gbps(), 450.0);
        assert_eq!(SystemConfig::BaselineCompOpt.compute_sms(), 78);
        assert_eq!(SystemConfig::BaselineCompOpt.compute_mem_gbps(), 772.0);
        assert_eq!(SystemConfig::Ace.compute_sms(), 80);
        assert_eq!(SystemConfig::Ace.compute_mem_gbps(), 772.0);
        assert_eq!(SystemConfig::Ideal.compute_mem_gbps(), 900.0);
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
            let mut e = c.make_engine(&[1.0, 0.5, 0.5, 1.0]);
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
