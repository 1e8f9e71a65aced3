//! One timed sweep pass: what `sweep <scenario> --threads 1 --cache-file F
//! --csv --json` does after set-up, on a cold cache — run the grid, render
//! both reports, save the cache and load it back.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ace_sweep::{
    persist, report, Metrics, RunPoint, RunnerOptions, Scenario, SweepOutcome, SweepRunner,
};

/// Every workload runs one grid cell at a time on the serial engine.
pub const SERIAL: RunnerOptions = RunnerOptions {
    threads: 1,
    sim_threads: 1,
};

/// A finished pass: its outcome, CSV, and per-step wall times (ms).
pub struct Pass {
    pub outcome: SweepOutcome,
    pub csv: String,
    /// Whether the reloaded cache holds exactly the rows that were saved.
    pub persisted: bool,
    pub run_ms: f64,
    pub csv_ms: f64,
    pub json_ms: f64,
    pub save_ms: f64,
    pub load_ms: f64,
}

impl Pass {
    /// The pass's metrics by grid point.
    pub fn rows(&self) -> HashMap<RunPoint, Metrics> {
        self.outcome
            .results
            .iter()
            .map(|r| (r.point.clone(), r.metrics))
            .collect()
    }

    /// Wall time of the whole pass, ms.
    pub fn wall_ms(&self) -> f64 {
        self.run_ms + self.csv_ms + self.json_ms + self.save_ms + self.load_ms
    }
}

/// Where passes persist their cache: next to the benchmark binary, so
/// nothing is written outside the build directory.
pub fn cache_file() -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(std::env::temp_dir);
    dir.join(format!("perfbench-{}.cache", std::process::id()))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs one cold-cache pass of `sc`. `verify` additionally compares the
/// reloaded cache byte for byte with the saved one (outside the timing).
pub fn sweep_pass(
    sc: &Scenario,
    opts: RunnerOptions,
    cache_file: &Path,
    verify: bool,
) -> Result<Pass, String> {
    let _ = std::fs::remove_file(cache_file);
    let t = Instant::now();
    let runner = SweepRunner::new();
    let outcome = runner.run(sc, opts)?;
    let run_ms = ms_since(t);
    let t = Instant::now();
    let csv = report::to_csv(&outcome);
    let csv_ms = ms_since(t);
    let t = Instant::now();
    black_box(report::to_json(&outcome));
    let json_ms = ms_since(t);
    let t = Instant::now();
    persist::save_cache(runner.cache(), cache_file)?;
    let save_ms = ms_since(t);
    let t = Instant::now();
    let reloaded = persist::load_cache(cache_file)?;
    let load_ms = ms_since(t);
    let _ = std::fs::remove_file(cache_file);
    let persisted = reloaded.len() == runner.cache().len()
        && (!verify
            || persist::cache_to_string(&reloaded) == persist::cache_to_string(runner.cache()));
    Ok(Pass {
        outcome,
        csv,
        persisted,
        run_ms,
        csv_ms,
        json_ms,
        save_ms,
        load_ms,
    })
}

/// The median of `samples` (the mean of the middle two for an even
/// count); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
