//! The serving-point specification: everything that identifies one
//! serving simulation besides the topology, system config and workload.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use ace_workloads::PipeSchedule;

use crate::arrival::ArrivalKind;

/// One serving simulation's parameters. Forms part of a sweep cache key,
/// so it has value equality ([`Eq`]/[`Hash`] treat the rate by bit
/// pattern) and a canonical single-cell spelling
/// ([`cache_key`](ServingSpec::cache_key) /
/// [`from_cache_key`](ServingSpec::from_cache_key)) free of `,` and
/// whitespace.
#[derive(Debug, Clone)]
pub struct ServingSpec {
    /// The arrival-process family.
    pub arrival: ArrivalKind,
    /// Mean arrival rate, requests per second (the load axis).
    pub rate_rps: f64,
    /// Number of requests to serve (the run length).
    pub requests: u32,
    /// Arrival-process seed.
    pub seed: u64,
    /// Prompt length in tokens; one prefill costs one forward pass of
    /// the workload at this token count.
    pub prompt_tokens: u32,
    /// Output tokens generated after the first (TTFT) token; each costs
    /// one decode token per round.
    pub decode_tokens: u32,
    /// Continuous-batching token budget per round: admitted prompts plus
    /// one decode token per running request must fit.
    pub token_budget: u32,
    /// Pipeline stages the model is partitioned into (1 = no pipeline).
    pub stages: u32,
    /// Microbatches each round is split into.
    pub microbatches: u32,
    /// Round-admission policy: [`PipeSchedule::GPipe`] drains each round
    /// before the next starts; [`PipeSchedule::OneFOneB`] injects the
    /// next round when stage 0 frees.
    pub schedule: PipeSchedule,
}

impl Default for ServingSpec {
    fn default() -> ServingSpec {
        ServingSpec {
            arrival: ArrivalKind::Poisson,
            rate_rps: 500.0,
            requests: 64,
            seed: 1,
            prompt_tokens: 128,
            decode_tokens: 8,
            token_budget: 512,
            stages: 4,
            microbatches: 8,
            schedule: PipeSchedule::GPipe,
        }
    }
}

impl PartialEq for ServingSpec {
    fn eq(&self, other: &Self) -> bool {
        self.arrival == other.arrival
            && self.rate_rps.to_bits() == other.rate_rps.to_bits()
            && self.requests == other.requests
            && self.seed == other.seed
            && self.prompt_tokens == other.prompt_tokens
            && self.decode_tokens == other.decode_tokens
            && self.token_budget == other.token_budget
            && self.stages == other.stages
            && self.microbatches == other.microbatches
            && self.schedule == other.schedule
    }
}

impl Eq for ServingSpec {}

impl Hash for ServingSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.arrival.hash(state);
        self.rate_rps.to_bits().hash(state);
        self.requests.hash(state);
        self.seed.hash(state);
        self.prompt_tokens.hash(state);
        self.decode_tokens.hash(state);
        self.token_budget.hash(state);
        self.stages.hash(state);
        self.microbatches.hash(state);
        self.schedule.hash(state);
    }
}

impl ServingSpec {
    /// Checks internal consistency (positive rate, budget large enough
    /// to ever admit a prompt, at least one microbatch and stage).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rate_rps.is_finite() && self.rate_rps > 0.0) {
            return Err(format!(
                "arrival rate must be positive, got {}",
                self.rate_rps
            ));
        }
        if self.requests == 0 {
            return Err("requests must be at least 1".into());
        }
        if self.prompt_tokens == 0 {
            return Err("prompt_tokens must be at least 1".into());
        }
        if self.token_budget < self.prompt_tokens {
            return Err(format!(
                "token_budget {} cannot fit a single {}-token prompt",
                self.token_budget, self.prompt_tokens
            ));
        }
        if self.stages == 0 {
            return Err("stages must be at least 1".into());
        }
        if self.microbatches == 0 {
            return Err("microbatches must be at least 1".into());
        }
        Ok(())
    }

    /// The canonical single-cell spelling, `key=value` pairs joined with
    /// `;` — contains no `,` or whitespace, so it embeds in CSV cells
    /// and persisted cache rows. Trace arrivals carry their content
    /// fingerprint (`trace:<path>#<fp>`).
    pub fn cache_key(&self) -> String {
        format!(
            "arrival={};rate={};requests={};seed={};prompt={};decode={};budget={};\
             stages={};microbatches={};schedule={}",
            self.arrival.cache_key(),
            self.rate_rps,
            self.requests,
            self.seed,
            self.prompt_tokens,
            self.decode_tokens,
            self.token_budget,
            self.stages,
            self.microbatches,
            self.schedule,
        )
    }

    /// Parses the [`cache_key`](ServingSpec::cache_key) spelling: each of
    /// the ten keys exactly once. Trace arrivals are restored by identity
    /// (path + fingerprint), not re-read from disk.
    pub fn from_cache_key(s: &str) -> Result<ServingSpec, String> {
        let mut spec = ServingSpec::default();
        let mut seen: Vec<&str> = Vec::with_capacity(10);
        for pair in s.split(';') {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("serving spec entry '{pair}' is not key=value"))?;
            if seen.contains(&key) {
                return Err(format!("serving spec key '{key}' is repeated in '{s}'"));
            }
            let uint = |what: &str| -> Result<u32, String> {
                value
                    .parse::<u32>()
                    .map_err(|_| format!("bad serving {what} '{value}'"))
            };
            match key {
                "arrival" => spec.arrival = ArrivalKind::from_cache_key(value)?,
                "rate" => {
                    spec.rate_rps = value
                        .parse::<f64>()
                        .map_err(|_| format!("bad serving rate '{value}'"))?
                }
                "requests" => spec.requests = uint("requests")?,
                "seed" => {
                    spec.seed = value
                        .parse::<u64>()
                        .map_err(|_| format!("bad serving seed '{value}'"))?
                }
                "prompt" => spec.prompt_tokens = uint("prompt")?,
                "decode" => spec.decode_tokens = uint("decode")?,
                "budget" => spec.token_budget = uint("budget")?,
                "stages" => spec.stages = uint("stages")?,
                "microbatches" => spec.microbatches = uint("microbatches")?,
                "schedule" => spec.schedule = value.parse::<PipeSchedule>()?,
                other => return Err(format!("unknown serving spec key '{other}'")),
            }
            seen.push(key);
        }
        if seen.len() != 10 {
            return Err(format!(
                "serving spec '{s}' has {} of 10 fields",
                seen.len()
            ));
        }
        spec.validate()?;
        Ok(spec)
    }
}

impl fmt::Display for ServingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.cache_key())
    }
}

impl FromStr for ServingSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<ServingSpec, String> {
        ServingSpec::from_cache_key(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_round_trips() {
        let spec = ServingSpec {
            arrival: ArrivalKind::Bursty { burst: 8 },
            rate_rps: 750.5,
            requests: 96,
            seed: 42,
            prompt_tokens: 256,
            decode_tokens: 16,
            token_budget: 1024,
            stages: 8,
            microbatches: 4,
            schedule: PipeSchedule::OneFOneB,
        };
        let key = spec.cache_key();
        assert!(!key.contains(',') && !key.contains(' '), "{key}");
        let back = ServingSpec::from_cache_key(&key).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.cache_key(), key);
    }

    #[test]
    fn validation_catches_impossible_budgets() {
        let spec = ServingSpec {
            token_budget: 64,
            prompt_tokens: 128,
            ..ServingSpec::default()
        };
        let e = spec.validate().unwrap_err();
        assert!(e.contains("cannot fit"), "{e}");
        assert!(ServingSpec::default().validate().is_ok());
    }

    #[test]
    fn partial_keys_are_rejected() {
        let e = ServingSpec::from_cache_key("rate=100").unwrap_err();
        assert!(e.contains("of 10 fields"), "{e}");
        let e = ServingSpec::from_cache_key("nope").unwrap_err();
        assert!(e.contains("key=value"), "{e}");
        // Ten pairs, but `schedule` is missing: a repeated key must not
        // stand in for it.
        let e = ServingSpec::from_cache_key(
            "arrival=poisson;rate=100;requests=4;seed=1;prompt=16;decode=2;budget=64;\
             stages=2;microbatches=2;microbatches=2",
        )
        .unwrap_err();
        assert!(e.contains("'microbatches' is repeated"), "{e}");
    }
}
