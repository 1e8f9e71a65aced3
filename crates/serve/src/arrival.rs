//! Open-loop request arrival processes.
//!
//! Arrival processes are *shape* families — Poisson, bursty, or a
//! replayed trace — normalized so the mean arrival rate is a separate
//! sweep axis ([`ServingSpec::rate_rps`](crate::ServingSpec)). Every
//! process is a deterministic function of its seed: the same
//! (kind, rate, seed, n) always produces the same arrival instants, so
//! serving sweeps are reproducible and cacheable.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

use ace_simcore::SplitMix64;

/// A replayed arrival trace: the file path plus its content fingerprint.
/// Two references denote the same process iff path *and* fingerprint
/// match (editing the file invalidates cached results instead of
/// silently serving stale rows); the parsed instants are `None` for
/// references deserialized from a persisted cache, which are only ever
/// served by identity, never re-simulated.
#[derive(Debug, Clone)]
pub struct TraceRef {
    path: String,
    fingerprint: u64,
    /// Arrival instants in seconds, non-decreasing, first at 0.
    times: Option<Arc<Vec<f64>>>,
}

impl PartialEq for TraceRef {
    fn eq(&self, other: &Self) -> bool {
        self.path == other.path && self.fingerprint == other.fingerprint
    }
}

impl Eq for TraceRef {}

impl Hash for TraceRef {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.path.hash(state);
        self.fingerprint.hash(state);
    }
}

impl TraceRef {
    /// The path as written in the scenario (also the cache-key spelling).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// FNV-1a hash of the trace file contents.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// FNV-1a, the trace-file content fingerprint (the same function the
/// sweep layer uses for custom workload TOMLs).
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The arrival-process family. The mean rate is *not* part of the kind —
/// it is a separate sweep axis — so one spelling sweeps cleanly across
/// load levels.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArrivalKind {
    /// Memoryless arrivals: exponential inter-arrival gaps.
    Poisson,
    /// Bursts of `burst` simultaneous requests at Poisson-spaced burst
    /// epochs; the epoch rate is `rate / burst` so the mean request rate
    /// is preserved.
    Bursty {
        /// Requests per burst (≥ 1).
        burst: u32,
    },
    /// Arrival instants replayed from a trace file (one timestamp in
    /// seconds per line; `#` comments and blank lines ignored), rescaled
    /// so the mean rate matches the sweep axis and extended periodically
    /// when more requests are asked for than the trace holds.
    Trace(TraceRef),
}

impl ArrivalKind {
    /// Parses an axis spelling: `poisson`, `bursty:<n>`, or
    /// `trace:<path>` (resolved relative to `base` when relative).
    pub fn parse(s: &str, base: Option<&std::path::Path>) -> Result<ArrivalKind, String> {
        let s = s.trim();
        if let Some(path) = s.strip_prefix("trace:") {
            let path = path.trim();
            if path.is_empty() {
                return Err("'trace:' needs a path to an arrival trace file".into());
            }
            if path.contains(',') || path.contains('#') || path.contains(';') {
                return Err(format!(
                    "trace path '{path}' must not contain ',', ';' or '#' (cache-key syntax)"
                ));
            }
            let resolved = match base {
                Some(dir) if std::path::Path::new(path).is_relative() => dir.join(path),
                _ => std::path::Path::new(path).to_path_buf(),
            };
            let text = std::fs::read_to_string(&resolved)
                .map_err(|e| format!("cannot read arrival trace {}: {e}", resolved.display()))?;
            let times = parse_trace(&text)
                .map_err(|e| format!("arrival trace {}: {e}", resolved.display()))?;
            return Ok(ArrivalKind::Trace(TraceRef {
                path: path.to_string(),
                fingerprint: fnv1a(&text),
                times: Some(Arc::new(times)),
            }));
        }
        if let Some(burst) = s.strip_prefix("bursty:") {
            let burst: u32 = burst
                .trim()
                .parse()
                .map_err(|_| format!("bad burst size '{burst}' (want bursty:<n>)"))?;
            if burst == 0 {
                return Err("burst size must be at least 1".into());
            }
            return Ok(ArrivalKind::Bursty { burst });
        }
        match s {
            "poisson" => Ok(ArrivalKind::Poisson),
            "bursty" => Ok(ArrivalKind::Bursty { burst: 4 }),
            other => Err(ace_net::unknown_spelling::<ArrivalKind>(other)),
        }
    }

    /// Parses the persisted cache-key spelling: like
    /// [`parse`](ArrivalKind::parse), except traces appear as
    /// `trace:<path>#<fingerprint>` and are *not* re-read from disk.
    pub fn from_cache_key(s: &str) -> Result<ArrivalKind, String> {
        if let Some(rest) = s.strip_prefix("trace:") {
            let (path, fp) = rest
                .rsplit_once('#')
                .ok_or_else(|| format!("trace key '{s}' is missing '#<fingerprint>'"))?;
            let fingerprint =
                u64::from_str_radix(fp, 16).map_err(|_| format!("bad trace fingerprint '{fp}'"))?;
            return Ok(ArrivalKind::Trace(TraceRef {
                path: path.to_string(),
                fingerprint,
                times: None,
            }));
        }
        Self::parse(s, None)
    }

    /// The cache-key spelling: round-trips through
    /// [`from_cache_key`](ArrivalKind::from_cache_key).
    pub fn cache_key(&self) -> String {
        match self {
            ArrivalKind::Trace(t) => format!("trace:{}#{:x}", t.path, t.fingerprint),
            other => other.to_string(),
        }
    }

    /// Generates `n` arrival instants in clock cycles at `hz`, mean rate
    /// `rate_rps` requests per second, deterministically from `seed`.
    /// The result is non-decreasing.
    pub fn generate(
        &self,
        rate_rps: f64,
        seed: u64,
        n: usize,
        hz: f64,
    ) -> Result<Vec<u64>, String> {
        if !(rate_rps.is_finite() && rate_rps > 0.0) {
            return Err(format!("arrival rate must be positive, got {rate_rps}"));
        }
        let mean_gap_cycles = hz / rate_rps;
        let mut rng = SplitMix64::new(seed);
        // Inverse-CDF exponential gaps: -ln(1-u) has mean 1.
        let mut exp = move || -(1.0 - rng.next_f64()).ln();
        let mut out = Vec::with_capacity(n);
        match self {
            ArrivalKind::Poisson => {
                let mut t = 0.0f64;
                for _ in 0..n {
                    t += exp() * mean_gap_cycles;
                    out.push(t as u64);
                }
            }
            ArrivalKind::Bursty { burst } => {
                let burst = (*burst).max(1) as usize;
                let epoch_gap = mean_gap_cycles * burst as f64;
                let mut t = 0.0f64;
                while out.len() < n {
                    t += exp() * epoch_gap;
                    for _ in 0..burst.min(n - out.len()) {
                        out.push(t as u64);
                    }
                }
            }
            ArrivalKind::Trace(trace) => {
                let times = trace.times.as_ref().ok_or_else(|| {
                    format!(
                        "arrival trace '{}' was deserialized from a cache and cannot generate",
                        trace.path
                    )
                })?;
                if times.is_empty() {
                    return Err(format!("arrival trace '{}' is empty", trace.path));
                }
                // Rescale the trace shape so its mean inter-arrival gap
                // is 1/rate, then extend periodically past the end.
                let span = times.last().unwrap() - times[0];
                let mean_gap = if times.len() > 1 {
                    span / (times.len() - 1) as f64
                } else {
                    1.0
                };
                let scale = if mean_gap > 0.0 {
                    (1.0 / rate_rps) / mean_gap
                } else {
                    0.0
                };
                // The periodic extension shifts by one full span plus one
                // mean gap, so the seam gap matches the interior.
                let period = span + mean_gap;
                for i in 0..n {
                    let lap = (i / times.len()) as f64;
                    let t = (times[i % times.len()] - times[0] + lap * period) * scale * hz;
                    out.push(t as u64);
                }
            }
        }
        Ok(out)
    }
}

/// Parses a trace file body: one timestamp (seconds) per line, `#`
/// comments and blank lines ignored, non-decreasing.
fn parse_trace(text: &str) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let t: f64 = line
            .parse()
            .map_err(|_| format!("line {}: bad timestamp '{line}'", i + 1))?;
        if !t.is_finite() || t < 0.0 {
            return Err(format!("line {}: timestamp must be finite and >= 0", i + 1));
        }
        if let Some(&prev) = times.last() {
            if t < prev {
                return Err(format!("line {}: timestamps must be non-decreasing", i + 1));
            }
        }
        times.push(t);
    }
    if times.is_empty() {
        return Err("no timestamps found".into());
    }
    Ok(times)
}

impl fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalKind::Poisson => f.write_str("poisson"),
            ArrivalKind::Bursty { burst } => write!(f, "bursty:{burst}"),
            ArrivalKind::Trace(t) => write!(f, "trace:{}", t.path),
        }
    }
}

impl ace_net::Spelling for ArrivalKind {
    const WHAT: &'static str = "arrival process";

    fn keywords() -> &'static [&'static str] {
        &["poisson", "bursty", "trace"]
    }

    fn spellings() -> &'static str {
        "poisson | bursty:<n> | trace:<path>"
    }

    /// [`ArrivalKind::parse`] minus the base-path parameter (trace files
    /// resolve relative to the working directory). The unknown-keyword
    /// arm of `parse` already uses [`ace_net::unknown_spelling`], so both
    /// routes word errors identically.
    fn parse_spelling(s: &str) -> Result<ArrivalKind, ace_net::SpellingError> {
        ArrivalKind::parse(s, None).map_err(ace_net::SpellingError::Invalid)
    }
}

impl FromStr for ArrivalKind {
    type Err = String;

    fn from_str(s: &str) -> Result<ArrivalKind, String> {
        ArrivalKind::parse(s, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 1000.0 - 0.5).abs() < 0.05, "mean {}", sum / 1000.0);
    }

    #[test]
    fn poisson_hits_the_requested_mean_rate() {
        let hz = 1.0e9;
        let arr = ArrivalKind::Poisson.generate(1000.0, 7, 4000, hz).unwrap();
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        // 4000 arrivals at 1000 rps ≈ 4 seconds = 4e9 cycles (±10 %).
        let span = *arr.last().unwrap() as f64;
        assert!((span / 4.0e9 - 1.0).abs() < 0.1, "span {span}");
    }

    #[test]
    fn same_seed_same_arrivals_different_seed_different() {
        let k = ArrivalKind::Poisson;
        let a = k.generate(500.0, 1, 100, 1.0e9).unwrap();
        let b = k.generate(500.0, 1, 100, 1.0e9).unwrap();
        let c = k.generate(500.0, 2, 100, 1.0e9).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bursty_clusters_and_preserves_rate() {
        let arr = ArrivalKind::Bursty { burst: 8 }
            .generate(1000.0, 3, 4000, 1.0e9)
            .unwrap();
        // Arrivals come in ties of 8.
        assert_eq!(arr[0], arr[7]);
        assert!(arr[8] > arr[7]);
        let span = *arr.last().unwrap() as f64;
        assert!((span / 4.0e9 - 1.0).abs() < 0.2, "span {span}");
    }

    #[test]
    fn trace_parses_rescales_and_extends() {
        let text = "# a trace\n0.0\n0.001\n\n0.003\n";
        let times = parse_trace(text).unwrap();
        assert_eq!(times.len(), 3);
        let kind = ArrivalKind::Trace(TraceRef {
            path: "t.txt".into(),
            fingerprint: fnv1a(text),
            times: Some(Arc::new(times)),
        });
        // 6 arrivals from a 3-entry trace: periodic extension, mean gap
        // normalized to 1/rate.
        let arr = kind.generate(1000.0, 0, 6, 1.0e9).unwrap();
        assert_eq!(arr.len(), 6);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = (*arr.last().unwrap() - arr[0]) as f64 / 5.0;
        assert!((mean_gap / 1.0e6 - 1.0).abs() < 0.01, "gap {mean_gap}");
    }

    #[test]
    fn spellings_round_trip_and_misspellings_get_hints() {
        for s in ["poisson", "bursty:8"] {
            let k: ArrivalKind = s.parse().unwrap();
            assert_eq!(k.to_string(), s);
            assert_eq!(ArrivalKind::from_cache_key(&k.cache_key()).unwrap(), k);
        }
        let e = "poison".parse::<ArrivalKind>().unwrap_err();
        assert!(e.contains("did you mean 'poisson'"), "{e}");
        let e = "burstly".parse::<ArrivalKind>().unwrap_err();
        assert!(e.contains("bursty"), "{e}");
    }

    #[test]
    fn trace_cache_key_round_trips_without_reading_the_file() {
        let t = ArrivalKind::Trace(TraceRef {
            path: "load.txt".into(),
            fingerprint: 0xdead_beef,
            times: None,
        });
        let key = t.cache_key();
        assert_eq!(key, "trace:load.txt#deadbeef");
        let back = ArrivalKind::from_cache_key(&key).unwrap();
        assert_eq!(back, t);
    }
}
