//! `sweep --trace` re-runs the first grid cell with a recording tracer;
//! the traced run must execute under that cell's run conditions, so the
//! trace of a contended cell differs from the pristine cell's.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Writes a one-cell scenario with `contention` and returns the trace
/// `sweep --trace` records for it.
fn trace_of(dir: &Path, cell: &str, contention: &str) -> String {
    let tag = if contention == "none" {
        "pristine"
    } else {
        "contended"
    };
    let scenario = dir.join(format!("{tag}.toml"));
    let trace = dir.join(format!("{tag}.json"));
    std::fs::write(
        &scenario,
        format!("name = \"trace-cell\"\n{cell}contention = [\"{contention}\"]\n"),
    )
    .expect("write scenario");
    let status = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg(&scenario)
        .args(["--threads", "1", "--quiet", "--no-progress", "--trace"])
        .arg(&trace)
        .status()
        .expect("run sweep");
    assert!(status.success(), "sweep failed on {}", scenario.display());
    std::fs::read_to_string(&trace).expect("read trace")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ace-trace-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_contention_reaches_the_trace(name: &str, cell: &str) {
    let dir = scratch_dir(name);
    let pristine = trace_of(&dir, cell, "none");
    let contended = trace_of(&dir, cell, "uniform:20");
    std::fs::remove_dir_all(&dir).ok();
    assert!(pristine.contains("\"traceEvents\""));
    // Not `assert_ne!`: a failure would print both multi-megabyte traces.
    assert!(
        pristine != contended,
        "{name}: the traced cell ignored its contention"
    );
}

#[test]
fn traced_training_cell_runs_under_its_conditions() {
    assert_contention_reaches_the_trace(
        "training",
        "mode = \"training\"\ntopologies = [\"2x2\"]\nconfigs = [\"ACE\"]\n\
         workloads = [\"resnet50\"]\niterations = 1\n",
    );
}

#[test]
fn traced_serving_cell_runs_under_its_conditions() {
    assert_contention_reaches_the_trace(
        "serving",
        "mode = \"serving\"\ntopologies = [\"2x2\"]\nconfigs = [\"ace\"]\n\
         workloads = [\"transformer@model\"]\narrival_rates = [500.0]\nschedules = [\"gpipe\"]\n\
         microbatches = [2]\nstages = 2\nrequests = 4\nprompt_tokens = 16\ndecode_tokens = 2\n\
         token_budget = 64\n",
    );
}
