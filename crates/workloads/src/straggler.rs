//! Straggler distributions on Program IR compute tasks.
//!
//! Real accelerators do not run their kernels at exactly the roofline
//! estimate: thermal throttling, HBM refresh interference, and host
//! jitter stretch individual kernels. A [`StragglerSpec`] applies a
//! deterministic, seeded per-task compute multiplier to a
//! [`Program`](crate::Program), so both the exact and analytic tiers see
//! the same stretched graph — the transform happens once on the IR, not
//! inside either engine.
//!
//! Spellings: `det` (every multiplier exactly 1 — the default), or
//! `lognormal:SIGMA[@seed:S]` — multipliers drawn from a lognormal with
//! `μ = 0` and the given `σ` (median 1, mean `exp(σ²/2)`), the standard
//! heavy-tailed straggler model. The draw for a task depends only on the
//! seed and the task's id, so the same spec stretches the same program
//! identically regardless of thread count or schedule order.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use ace_simcore::SplitMix64;
use ace_toml::{Spelling, SpellingError};

/// A per-task compute-time multiplier distribution.
#[derive(Debug, Clone, Copy, Default)]
pub enum StragglerSpec {
    /// Deterministic roofline compute: every multiplier is 1.
    #[default]
    Det,
    /// Lognormal multipliers (`μ = 0`): median 1, heavier tail with
    /// larger `sigma`.
    Lognormal {
        /// The distribution's σ (must be positive and finite).
        sigma: f64,
        /// Seed of the per-task draws.
        seed: u64,
    },
}

impl StragglerSpec {
    /// Whether this spec changes nothing.
    pub fn is_det(&self) -> bool {
        matches!(self, StragglerSpec::Det)
    }

    /// The compute multiplier for the task with id `task` (≥ some tiny
    /// positive value; exactly 1 for `det`).
    pub fn multiplier(&self, task: usize) -> f64 {
        match *self {
            StragglerSpec::Det => 1.0,
            StragglerSpec::Lognormal { sigma, seed } => {
                // Two independent uniforms from a per-task stream, then
                // Box–Muller. Offsetting by the task id (finalized by
                // splitmix64) makes the draw schedule-order independent.
                let mut rng =
                    SplitMix64::new(seed ^ (task as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let u1 = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                let u2 = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (sigma * normal).exp()
            }
        }
    }
}

impl PartialEq for StragglerSpec {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (StragglerSpec::Det, StragglerSpec::Det) => true,
            (
                StragglerSpec::Lognormal { sigma: a, seed: s1 },
                StragglerSpec::Lognormal { sigma: b, seed: s2 },
            ) => a.to_bits() == b.to_bits() && s1 == s2,
            _ => false,
        }
    }
}

impl Eq for StragglerSpec {}

impl Hash for StragglerSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            StragglerSpec::Det => 0u8.hash(state),
            StragglerSpec::Lognormal { sigma, seed } => {
                1u8.hash(state);
                sigma.to_bits().hash(state);
                seed.hash(state);
            }
        }
    }
}

impl fmt::Display for StragglerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StragglerSpec::Det => f.write_str("det"),
            StragglerSpec::Lognormal { sigma, seed } => {
                write!(f, "lognormal:{sigma}@seed:{seed}")
            }
        }
    }
}

impl Spelling for StragglerSpec {
    const WHAT: &'static str = "straggler spec";

    fn keywords() -> &'static [&'static str] {
        &["det", "lognormal"]
    }

    fn spellings() -> &'static str {
        "det or lognormal:SIGMA[@seed:S]"
    }

    fn parse_spelling(s: &str) -> Result<StragglerSpec, SpellingError> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("det") || s.eq_ignore_ascii_case("none") || s.is_empty() {
            return Ok(StragglerSpec::Det);
        }
        if let Some(body) = s.strip_prefix("lognormal:") {
            let (sigma_s, seed) = match body.split_once('@') {
                None => (body, 1u64),
                Some((sg, sd)) => {
                    let sd = sd.strip_prefix("seed:").ok_or_else(|| {
                        SpellingError::invalid(format!(
                            "expected @seed:S after straggler sigma, got '@{sd}'"
                        ))
                    })?;
                    let seed: u64 = sd.trim().parse().map_err(|_| {
                        SpellingError::invalid(format!("bad straggler seed '{sd}'"))
                    })?;
                    (sg, seed)
                }
            };
            let sigma: f64 = sigma_s
                .trim()
                .parse()
                .map_err(|_| SpellingError::invalid(format!("bad straggler sigma '{sigma_s}'")))?;
            if !(sigma.is_finite() && sigma > 0.0) {
                return Err(SpellingError::invalid(format!(
                    "straggler sigma must be positive and finite, got {sigma} \
                     (use det for no stragglers)"
                )));
            }
            return Ok(StragglerSpec::Lognormal { sigma, seed });
        }
        Err(SpellingError::Unknown)
    }
}

impl FromStr for StragglerSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<StragglerSpec, String> {
        StragglerSpec::from_spelling(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_round_trip() {
        for (input, canonical) in [
            ("det", "det"),
            ("none", "det"),
            ("lognormal:0.3", "lognormal:0.3@seed:1"),
            ("lognormal:0.25@seed:7", "lognormal:0.25@seed:7"),
        ] {
            let spec: StragglerSpec = input.parse().unwrap();
            assert_eq!(spec.to_string(), canonical, "canonical form of '{input}'");
            let back: StragglerSpec = spec.to_string().parse().unwrap();
            assert_eq!(back, spec);
        }
        let e = "lognorml:0.3".parse::<StragglerSpec>().unwrap_err();
        assert!(e.contains("did you mean 'lognormal'?"), "{e}");
        assert!("lognormal:0".parse::<StragglerSpec>().is_err());
        assert!("lognormal:-1".parse::<StragglerSpec>().is_err());
    }

    #[test]
    fn multipliers_are_deterministic_and_median_one() {
        let spec: StragglerSpec = "lognormal:0.3@seed:9".parse().unwrap();
        let again: StragglerSpec = "lognormal:0.3@seed:9".parse().unwrap();
        let mut above = 0usize;
        for task in 0..10_000 {
            let m = spec.multiplier(task);
            assert_eq!(m, again.multiplier(task), "task {task} draw must repeat");
            assert!(m > 0.0 && m.is_finite());
            if m > 1.0 {
                above += 1;
            }
        }
        // Lognormal(0, σ) has median 1: about half the draws stretch.
        assert!((4_000..6_000).contains(&above), "{above} of 10000 above 1");
        // A different seed gives a different stream.
        let other: StragglerSpec = "lognormal:0.3@seed:10".parse().unwrap();
        assert_ne!(spec.multiplier(0), other.multiplier(0));
        // det is exactly 1 everywhere.
        assert_eq!(StragglerSpec::Det.multiplier(123), 1.0);
    }
}
