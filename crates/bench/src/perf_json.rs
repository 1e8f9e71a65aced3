//! The perf harness's benchmark-JSON schema: emitter, reader, and the
//! CI regression gate.
//!
//! The `perf` binary used to format its output inline, which left the
//! emitter untestable and (notably) the `mode` field's plumbing
//! unverified — a smoke run writing `"mode": "full"` would silently
//! mislabel the checked-in baseline. The schema now lives here, with the
//! mode threaded explicitly ([`BenchMode`]) and locked by unit tests,
//! next to a minimal reader for the same format so CI can compare a
//! fresh smoke run against the checked-in `BENCH_executor.json` entry
//! and fail on regressions.

use std::fmt;

/// Which grids the perf run timed. Threaded explicitly through the
/// emitter so `--smoke` output can never be mislabeled `full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchMode {
    /// The full Fig. 9a grid + training suite.
    Full,
    /// Tiny CI-sized grids.
    Smoke,
}

impl fmt::Display for BenchMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchMode::Full => f.write_str("full"),
            BenchMode::Smoke => f.write_str("smoke"),
        }
    }
}

/// The toolchain fingerprint embedded in benchmark JSON. Perf numbers
/// are only comparable between identical compilers and flags, so the
/// emitter records both — a baseline produced by a different toolchain
/// is visible in the file instead of silently skewing the gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildInfo {
    /// `rustc -V` of the toolchain (`"unknown"` when rustc is absent).
    pub rustc: String,
    /// The flags rustc compiled this crate with (from
    /// `.cargo/config.toml` or `RUSTFLAGS`; empty when none).
    pub rustflags: String,
    /// The Cargo profile this crate was compiled in (`release`, `debug`).
    pub profile: String,
}

impl BuildInfo {
    /// Captures the toolchain: `rustc -V` output (trimmed; `"unknown"`
    /// if rustc is not on `PATH`) plus the compile-time rustflags and
    /// profile recorded by the build script.
    pub fn capture() -> BuildInfo {
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        BuildInfo {
            rustc,
            rustflags: env!("ACE_BENCH_RUSTFLAGS").to_string(),
            profile: env!("ACE_BENCH_PROFILE").to_string(),
        }
    }
}

/// One timed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Scenario name.
    pub scenario: String,
    /// Grid cells in the scenario.
    pub points: usize,
    /// Minimum wall time across the runs, milliseconds.
    pub wall_ms: f64,
    /// Throughput at the minimum wall time.
    pub points_per_sec: f64,
}

/// The optional reference-build comparison block.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchBaseline {
    /// Free-form label of the reference build.
    pub label: Option<String>,
    /// The reference build's points/sec for the first entry.
    pub points_per_sec: f64,
}

/// Minimal JSON string escaping for interpolated names/labels.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the benchmark JSON (`version` 1). The `mode` field is the
/// explicit [`BenchMode`] — regression-tested, since the CI gate keys
/// off it.
pub fn to_json(
    mode: BenchMode,
    threads: usize,
    runs: usize,
    info: &BuildInfo,
    entries: &[BenchEntry],
    baseline: Option<&BenchBaseline>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"runs\": {runs},\n"));
    out.push_str(&format!("  \"rustc\": \"{}\",\n", json_escape(&info.rustc)));
    out.push_str(&format!(
        "  \"rustflags\": \"{}\",\n",
        json_escape(&info.rustflags)
    ));
    out.push_str(&format!(
        "  \"profile\": \"{}\",\n",
        json_escape(&info.profile)
    ));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"points\": {}, \"wall_ms\": {:.1}, \
             \"points_per_sec\": {:.3}, \"threads\": {threads}}}{sep}\n",
            json_escape(&e.scenario),
            e.points,
            e.wall_ms,
            e.points_per_sec,
        ));
    }
    out.push_str("  ]");
    if let Some(b) = baseline {
        let speedup = entries
            .first()
            .map(|e| e.points_per_sec / b.points_per_sec)
            .unwrap_or(f64::NAN);
        out.push_str(",\n  \"baseline\": {");
        if let Some(label) = &b.label {
            out.push_str(&format!("\"label\": \"{}\", ", json_escape(label)));
        }
        out.push_str(&format!(
            "\"points_per_sec\": {:.3}, \"speedup\": {speedup:.3}}}",
            b.points_per_sec
        ));
    }
    out.push_str("\n}\n");
    out
}

/// Extracts `(scenario, points_per_sec)` pairs from benchmark JSON
/// written by [`to_json`] — a purpose-built scanner, not a general JSON
/// parser (the workspace is std-only). Tolerates unknown fields and any
/// whitespace layout produced by the emitter.
pub fn read_entries(json: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find("\"scenario\"") {
        rest = &rest[pos + "\"scenario\"".len()..];
        let name = read_string_value(rest)
            .ok_or_else(|| "malformed \"scenario\" field in bench JSON".to_string())?;
        // Search only within the current entry object: an entry missing
        // its points_per_sec must fail loudly, not silently steal the
        // next entry's (or the baseline block's) value.
        let entry_end = rest
            .find('}')
            .ok_or_else(|| format!("entry '{name}' has no closing brace"))?;
        let entry = &rest[..entry_end];
        let pps_pos = entry
            .find("\"points_per_sec\"")
            .ok_or_else(|| format!("entry '{name}' has no points_per_sec"))?;
        let after = &entry[pps_pos + "\"points_per_sec\"".len()..];
        let num = read_number_value(after)
            .ok_or_else(|| format!("entry '{name}' has a malformed points_per_sec"))?;
        out.push((name, num));
        rest = &rest[entry_end..];
    }
    if out.is_empty() {
        return Err("no benchmark entries found in JSON".into());
    }
    Ok(out)
}

fn read_string_value(after_key: &str) -> Option<String> {
    let colon = after_key.find(':')?;
    let rest = after_key[colon + 1..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn read_number_value(after_key: &str) -> Option<f64> {
    let colon = after_key.find(':')?;
    let rest = after_key[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse::<f64>().ok()
}

/// The CI perf-regression gate: compares each fresh entry against the
/// same-named entry of the checked-in baseline JSON and reports entries
/// slower by more than `tolerance` (e.g. `0.30` = 30 %). Baseline
/// entries with no fresh counterpart (and vice versa) are skipped —
/// the gate compares overlapping scenarios only.
///
/// Returns the human-readable comparison table; `Err` carries the same
/// table when at least one entry regresses beyond tolerance.
pub fn check_regression(
    fresh: &[(String, f64)],
    baseline: &[(String, f64)],
    tolerance: f64,
) -> Result<String, String> {
    let mut report = String::new();
    let mut failed = false;
    let mut compared = 0;
    for (name, pps) in fresh {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == name) else {
            continue;
        };
        compared += 1;
        let ratio = pps / base;
        let verdict = if ratio < 1.0 - tolerance {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        report.push_str(&format!(
            "{name}: {pps:.3} points/sec vs baseline {base:.3} ({ratio:.2}x) {verdict}\n"
        ));
    }
    if compared == 0 {
        return Err("no overlapping scenarios between fresh run and baseline".into());
    }
    if failed {
        Err(report)
    } else {
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> BuildInfo {
        BuildInfo {
            rustc: "rustc 1.80.0 (test)".into(),
            rustflags: "-C target-cpu=native".into(),
            profile: "release".into(),
        }
    }

    fn entries() -> Vec<BenchEntry> {
        vec![
            BenchEntry {
                scenario: "fig09a-design-space-smoke".into(),
                points: 4,
                wall_ms: 8.7,
                points_per_sec: 461.2,
            },
            BenchEntry {
                scenario: "training-suite-smoke".into(),
                points: 2,
                wall_ms: 1.8,
                points_per_sec: 1097.4,
            },
        ]
    }

    #[test]
    fn smoke_mode_is_threaded_through() {
        // Regression lock for the `--smoke` label: the emitted mode must
        // be exactly what the caller passed, never a default.
        let json = to_json(BenchMode::Smoke, 1, 1, &info(), &entries(), None);
        assert!(json.contains("\"mode\": \"smoke\""), "{json}");
        assert!(!json.contains("\"mode\": \"full\""), "{json}");
        let json = to_json(BenchMode::Full, 2, 3, &info(), &entries(), None);
        assert!(json.contains("\"mode\": \"full\""), "{json}");
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"runs\": 3"));
    }

    #[test]
    fn toolchain_fingerprint_is_recorded() {
        let json = to_json(BenchMode::Smoke, 1, 1, &info(), &entries(), None);
        assert!(
            json.contains("\"rustc\": \"rustc 1.80.0 (test)\""),
            "{json}"
        );
        assert!(
            json.contains("\"rustflags\": \"-C target-cpu=native\""),
            "{json}"
        );
        assert!(json.contains("\"profile\": \"release\""), "{json}");
        // Captured info is always populated, even without rustc/RUSTFLAGS.
        let captured = BuildInfo::capture();
        assert!(!captured.rustc.is_empty());
        // And the reader tolerates the new fields.
        assert_eq!(read_entries(&json).unwrap().len(), 2);
    }

    #[test]
    fn captured_flags_are_the_compile_time_flags() {
        // The runtime `RUSTFLAGS` is usually unset even when
        // `.cargo/config.toml` compiled the crate with flags; the
        // fingerprint must name what rustc actually received.
        let captured = BuildInfo::capture();
        assert_eq!(captured.rustflags, env!("ACE_BENCH_RUSTFLAGS"));
        assert_eq!(captured.profile, env!("ACE_BENCH_PROFILE"));
        assert!(!captured.profile.is_empty());
    }

    #[test]
    fn baseline_block_embeds_speedup() {
        let b = BenchBaseline {
            label: Some("seed".into()),
            points_per_sec: 230.6,
        };
        let json = to_json(BenchMode::Smoke, 1, 1, &info(), &entries(), Some(&b));
        assert!(json.contains("\"label\": \"seed\""));
        // 461.2 / 230.6 = 2.0.
        assert!(json.contains("\"speedup\": 2.000"), "{json}");
    }

    #[test]
    fn emitter_and_reader_round_trip() {
        let json = to_json(BenchMode::Smoke, 1, 1, &info(), &entries(), None);
        let read = read_entries(&json).unwrap();
        assert_eq!(read.len(), 2);
        assert_eq!(read[0].0, "fig09a-design-space-smoke");
        assert!((read[0].1 - 461.2).abs() < 1e-9);
        assert_eq!(read[1].0, "training-suite-smoke");
    }

    #[test]
    fn reader_handles_the_checked_in_schema() {
        // The exact shape of BENCH_executor.json, baseline block included.
        let json = r#"{
  "version": 1,
  "mode": "full",
  "threads": 1,
  "runs": 6,
  "entries": [
    {"scenario": "fig09a-design-space", "points": 32, "wall_ms": 3613.2, "points_per_sec": 8.856, "threads": 1},
    {"scenario": "training-suite", "points": 15, "wall_ms": 1747.4, "points_per_sec": 8.584, "threads": 1}
  ],
  "baseline": {"label": "x", "points_per_sec": 9.105, "speedup": 0.973}
}"#;
        let read = read_entries(json).unwrap();
        assert_eq!(read.len(), 2);
        assert!((read[1].1 - 8.584).abs() < 1e-9);
    }

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn entry_missing_points_per_sec_fails_loudly() {
        // The field search is bounded to the entry's object: a truncated
        // or hand-edited entry must not steal the next entry's value.
        let json = r#"{
  "entries": [
    {"scenario": "broken", "points": 4, "wall_ms": 8.7},
    {"scenario": "fine", "points": 2, "wall_ms": 1.8, "points_per_sec": 99.0}
  ]
}"#;
        let err = read_entries(json).unwrap_err();
        assert!(err.contains("'broken' has no points_per_sec"), "{err}");
    }

    #[test]
    fn regression_gate_passes_within_tolerance() {
        let fresh = vec![("a".to_string(), 80.0), ("b".to_string(), 130.0)];
        let base = vec![("a".to_string(), 100.0), ("b".to_string(), 100.0)];
        // 20 % slower on `a` is inside a 30 % tolerance.
        let report = check_regression(&fresh, &base, 0.30).unwrap();
        assert!(report.contains("ok"));
        assert!(!report.contains("REGRESSED"));
    }

    #[test]
    fn regression_gate_fails_beyond_tolerance() {
        let fresh = vec![("a".to_string(), 60.0)];
        let base = vec![("a".to_string(), 100.0)];
        let err = check_regression(&fresh, &base, 0.30).unwrap_err();
        assert!(err.contains("REGRESSED"), "{err}");
    }

    #[test]
    fn regression_gate_needs_overlap() {
        let fresh = vec![("new".to_string(), 60.0)];
        let base = vec![("old".to_string(), 100.0)];
        assert!(check_regression(&fresh, &base, 0.30).is_err());
    }
}
