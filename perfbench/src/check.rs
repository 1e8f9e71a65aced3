//! Output checks: the per-cell invariants every simulated row must hold,
//! and the CSV digest that lets a speed-only change show byte-identity.

use ace_sweep::{PointKind, RunResult, SweepOutcome};

/// Why `r` is not a trustworthy row, or `None` when it passes every check:
/// no event scheduled in the past, a conserving attribution that
/// decomposes exactly `completion_cycles`, a finite positive `time_us`,
/// and — for serving rows — ordered latency percentiles with every sent
/// request served.
pub fn cell_fault(r: &RunResult) -> Option<String> {
    let m = &r.metrics;
    if m.past_schedules > 0 {
        return Some(format!("{} events scheduled in the past", m.past_schedules));
    }
    let a = &m.attribution;
    if !a.conserves() {
        return Some(format!(
            "attribution buckets sum to {} of {} cycles",
            a.bucket_sum(),
            a.total_cycles
        ));
    }
    if a.total_cycles != m.completion_cycles {
        return Some(format!(
            "attribution total {} != completion {} cycles",
            a.total_cycles, m.completion_cycles
        ));
    }
    if !m.time_us.is_finite() || m.time_us <= 0.0 {
        return Some(format!("time_us is {}", m.time_us));
    }
    if let PointKind::Serving { spec, .. } = &r.point.kind {
        let s = &m.serving;
        let ordered = |p50: f64, p95: f64, p99: f64| p50 <= p95 && p95 <= p99;
        if !ordered(s.ttft_p50_us, s.ttft_p95_us, s.ttft_p99_us) {
            return Some("ttft percentiles out of order".into());
        }
        if !ordered(s.e2e_p50_us, s.e2e_p95_us, s.e2e_p99_us) {
            return Some("e2e percentiles out of order".into());
        }
        // goodput = served / makespan, so their product recovers the count.
        let served = (s.goodput_rps * m.time_us * 1e-6).round();
        if served < f64::from(spec.requests) {
            return Some(format!("served {served} of {} requests", spec.requests));
        }
    }
    None
}

/// Counts the failing rows of `outcome`, reporting the first few on stderr.
pub fn count_faults(outcome: &SweepOutcome) -> usize {
    let mut failed = 0;
    for r in &outcome.results {
        if let Some(why) = cell_fault(r) {
            if failed < 5 {
                eprintln!("check: cell {} failed: {why}", r.point.label());
            }
            failed += 1;
        }
    }
    failed
}

/// 64-bit FNV-1a of `bytes`: a dependency-free fingerprint of a report.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digests of each workload's CSV (`sweep <scenario> --threads 1 --csv`
/// output), one `<workload> <seed|*> <fnv1a64 hex>` line each; `*` marks
/// a workload no seed reaches.
const RECORDED: &str = include_str!("../digests.txt");

/// The recorded digest of `workload` at `seed`, if one was recorded.
pub fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?, f.next()?, f.next()?))
        })
        .find(|&(w, s, _)| w == workload && (s == "*" || s.parse() == Ok(seed)))
        .and_then(|(_, _, hex)| u64::from_str_radix(hex, 16).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_sweep::{run_scenario, RunnerOptions, Scenario};

    fn serial() -> RunnerOptions {
        RunnerOptions {
            threads: 1,
            sim_threads: 1,
        }
    }

    fn tiny(mode: &str) -> SweepOutcome {
        let toml = match mode {
            "collective" => {
                "name = \"t\"\ntopologies = [\"2x1x1\"]\nengines = [\"ideal\", \"baseline\"]\n\
                 payloads = [\"256KB\"]\nmem_gbps = [450]\ncomm_sms = [6]\n"
            }
            _ => {
                "name = \"s\"\nmode = \"serving\"\ntopologies = [\"2x1x1\"]\n\
                 configs = [\"ace\"]\nworkloads = [\"transformer\"]\narrival_rates = [800.0]\n\
                 schedules = [\"gpipe\"]\nmicrobatches = [2]\nstages = 2\nrequests = 3\n\
                 decode_tokens = 1\ntoken_budget = 128\n"
            }
        };
        run_scenario(&Scenario::from_toml_str(toml).unwrap(), serial()).unwrap()
    }

    #[test]
    fn clean_grids_pass() {
        for mode in ["collective", "serving"] {
            let out = tiny(mode);
            assert!(!out.results.is_empty());
            assert_eq!(count_faults(&out), 0, "{mode}");
        }
    }

    #[test]
    fn corrupted_metrics_are_counted() {
        type Corruption = fn(&mut ace_sweep::Metrics);
        let collective: [Corruption; 5] = [
            |m| m.past_schedules = 3,
            |m| m.attribution.other_cycles += 1,
            |m| {
                m.completion_cycles += 1;
            },
            |m| m.time_us = f64::NAN,
            |m| m.time_us = 0.0,
        ];
        let serving: [Corruption; 3] = [
            |m| m.serving.ttft_p50_us = m.serving.ttft_p99_us + 1.0,
            |m| m.serving.e2e_p95_us = m.serving.e2e_p99_us * 2.0,
            |m| m.serving.goodput_rps /= 2.0,
        ];
        let cases = [
            (tiny("collective"), &collective[..]),
            (tiny("serving"), &serving[..]),
        ];
        for (clean, corruptions) in cases {
            for (i, corrupt) in corruptions.iter().enumerate() {
                let mut out = clean.clone();
                corrupt(&mut out.results[0].metrics);
                assert_eq!(count_faults(&out), 1, "corruption {i} went unnoticed");
            }
        }
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn every_workload_has_recorded_digests_for_both_named_seeds() {
        use crate::workload::{DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};
        for w in WORKLOADS {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                assert!(recorded_digest(w.name, seed).is_some(), "{} {seed}", w.name);
            }
        }
        assert_eq!(recorded_digest("no-such-workload", DEFAULT_SEED), None);
    }
}
