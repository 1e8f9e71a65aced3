//! Crash safety of `sweep --cache-file`: a run killed mid-grid leaves its
//! finished cells in the file, a row torn by the kill is dropped, and the
//! rerun simulates only the rest.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ace_sweep::{
    expand, load_cache, report, save_cache, Cache, CacheFileLock, Journal, Metrics, RunPoint,
    RunnerOptions, Scenario, SweepOutcome, SweepRunner, Tier,
};

/// Five unique cells: the ideal engine collapses the `mem_gbps` axis
/// into one, and each baseline `mem_gbps` is a cell of its own.
const GRID_TOML: &str = r#"
name = "cache-file-resume"
mode = "collective"
topologies = ["2x1x1"]
engines = ["ideal", "baseline"]
ops = ["all-reduce"]
payloads = ["256KB"]
mem_gbps = [64, 128, 256, 450]
comm_sms = [6]
"#;

/// A scratch path unique to this process and test thread.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ace-sweep-cache-file-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// What `sweep <scenario> --cache-file <path> --threads 1` does: lock,
/// open for append, load, run while appending each executed cell, save.
/// Returns the outcome and the cells that executed.
fn run_with_cache_file(sc: &Scenario, path: &Path) -> (SweepOutcome, Vec<RunPoint>) {
    let _lock = CacheFileLock::acquire(path).unwrap();
    let journal = Mutex::new(Journal::open(path).unwrap());
    let runner = SweepRunner::with_cache(load_cache(path).unwrap());
    let executed = Mutex::new(Vec::new());
    let outcome = runner
        .run_with_progress(
            sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
            &|p| {
                if let Some((tier, point, metrics)) = p.cell {
                    journal
                        .lock()
                        .unwrap()
                        .append_row(tier, point, metrics)
                        .unwrap();
                    executed.lock().unwrap().push(point.clone());
                }
            },
        )
        .unwrap();
    drop(journal);
    save_cache(runner.cache(), path).unwrap();
    (outcome, executed.into_inner().unwrap())
}

/// Blanks the cache_hit column (second-to-last) of every CSV row: cells
/// loaded from the file are cache hits, so their flags differ from an
/// uninterrupted run even though every metric byte matches.
fn strip_cache_hit(csv: &str) -> String {
    csv.lines()
        .map(|line| {
            let mut cells: Vec<&str> = line.split(',').collect();
            let n = cells.len();
            cells[n - 2] = "_";
            cells.join(",")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The unique cells of `sc` in grid order, with the metrics `full`
/// produced for them.
fn unique_cells(sc: &Scenario, full: &SweepOutcome) -> Vec<(RunPoint, Metrics)> {
    let mut cells: Vec<(RunPoint, Metrics)> = Vec::new();
    for p in expand(sc) {
        if !cells.iter().any(|(q, _)| *q == p) {
            let m = full.results.iter().find(|r| r.point == p).unwrap().metrics;
            cells.push((p, m));
        }
    }
    cells
}

#[test]
fn a_killed_cache_file_run_resumes_with_only_the_missing_cells() {
    let sc = Scenario::from_toml_str(GRID_TOML).unwrap();
    let full_path = scratch("full.cache");
    let (full, full_executed) = run_with_cache_file(&sc, &full_path);
    let full_file = std::fs::read(&full_path).unwrap();

    let cells = unique_cells(&sc, &full);
    assert_eq!(cells.len(), 5);
    assert_eq!(full_executed.len(), 5);

    // The file a run killed mid-grid leaves behind: two rows an earlier
    // finished run saved sorted, one row appended since, and the torn
    // start of a fourth row. The fifth cell never started.
    let path = scratch("killed.cache");
    let saved = Cache::new();
    for (p, m) in &cells[..2] {
        saved.insert_tier(Tier::Exact, p.clone(), *m);
    }
    save_cache(&saved, &path).unwrap();
    let mut journal = Journal::open(&path).unwrap();
    for (p, m) in &cells[2..4] {
        journal.append_row(Tier::Exact, p, m).unwrap();
    }
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

    let (resumed, executed) = run_with_cache_file(&sc, &path);
    let missing: Vec<RunPoint> = cells[3..].iter().map(|(p, _)| p.clone()).collect();
    assert_eq!(
        executed, missing,
        "only the cells missing from the file run"
    );
    assert_eq!(resumed.executed, 2);
    assert_eq!(
        strip_cache_hit(&report::to_csv(&resumed)),
        strip_cache_hit(&report::to_csv(&full))
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        full_file,
        "the saved cache file differs from an uninterrupted run's"
    );

    // The finished file serves every cell of a third run.
    let (warm, executed) = run_with_cache_file(&sc, &path);
    assert!(executed.is_empty());
    assert_eq!(warm.cache_hits, warm.results.len());
    assert_eq!(std::fs::read(&path).unwrap(), full_file);
}

#[test]
fn a_row_torn_by_the_kill_is_dropped_and_its_cell_reruns() {
    let sc = Scenario::from_toml_str(GRID_TOML).unwrap();
    let full_path = scratch("full.cache");
    let (full, _) = run_with_cache_file(&sc, &full_path);
    let full_file = std::fs::read(&full_path).unwrap();
    let cells = unique_cells(&sc, &full);

    // A first run killed inside its last append, before the sorted save:
    // the header, every cell in completion order, the last row cut short.
    let path = scratch("torn.cache");
    let mut journal = Journal::open(&path).unwrap();
    for (p, m) in &cells {
        journal.append_row(Tier::Exact, p, m).unwrap();
    }
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    assert!(!std::fs::read_to_string(&path).unwrap().ends_with('\n'));

    let (resumed, executed) = run_with_cache_file(&sc, &path);
    assert_eq!(
        executed,
        vec![cells[4].0.clone()],
        "only the cell whose row was torn reruns"
    );
    assert_eq!(
        strip_cache_hit(&report::to_csv(&resumed)),
        strip_cache_hit(&report::to_csv(&full))
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        full_file,
        "the saved cache file differs from an uninterrupted run's"
    );
}
