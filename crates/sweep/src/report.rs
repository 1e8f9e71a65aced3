//! Sweep reports: CSV and JSON emitters plus per-axis summary
//! aggregation.
//!
//! All output is deterministic: fixed column order, fixed float
//! formatting, rows in grid order. A parallel run therefore emits a CSV
//! byte-identical to a single-threaded run of the same scenario.

use std::fmt::{self, Write};

use ace_system::EngineKind;
use ace_trace::chrome::json_escape;

use crate::grid::{PointKind, RunPoint};
use crate::runner::{RunResult, SweepOutcome};
use crate::scenario::EngineFamily;

/// The fixed CSV column set (a superset across the three sweep modes;
/// inapplicable cells are empty).
pub const CSV_COLUMNS: [&str; 39] = [
    "topology",
    "nodes",
    "engine",
    "op",
    "payload_bytes",
    "mem_gbps",
    "comm_sms",
    "sram_mb",
    "fsms",
    "config",
    "workload",
    "iterations",
    "arrival",
    "arrival_rate",
    "schedule",
    "microbatches",
    "faults",
    "contention",
    "straggler",
    "failed_links",
    "degradation_pct",
    "time_us",
    "completion_cycles",
    "gbps_per_npu",
    "mem_traffic_bytes",
    "network_bytes",
    "compute_us",
    "exposed_comm_us",
    "ttft_p50_us",
    "ttft_p95_us",
    "ttft_p99_us",
    "e2e_p50_us",
    "e2e_p95_us",
    "e2e_p99_us",
    "goodput_rps",
    "past_schedules",
    "fidelity",
    "cache_hit",
    "speedup_vs_baseline",
];

/// The optional bottleneck-attribution columns appended by
/// [`to_csv_with_attribution`] / [`to_json_with_attribution`] (cycles;
/// they sum to `completion_cycles` — the attribution total is not a
/// column of its own). Kept out of [`CSV_COLUMNS`] so default output is
/// byte-stable across releases.
pub const ATTRIBUTION_COLUMNS: [&str; 7] = [
    "attr_compute_cycles",
    "attr_network_cycles",
    "attr_hbm_cycles",
    "attr_dma_cycles",
    "attr_bus_cycles",
    "attr_proc_cycles",
    "attr_other_cycles",
];

/// How a column's non-empty cells render in JSON.
#[derive(Debug, Clone, Copy)]
enum JsonKind {
    /// A quoted, escaped string.
    Str,
    /// `true` for the cell `1`, else `false`.
    Bool,
    /// The cell as written: a bare number.
    Num,
}

/// The JSON kind of each column, indexed like [`CSV_COLUMNS`].
const JSON_KINDS: [JsonKind; 39] = {
    use JsonKind::{Bool, Num, Str};
    [
        Str,  // topology
        Num,  // nodes
        Str,  // engine
        Str,  // op
        Num,  // payload_bytes
        Num,  // mem_gbps
        Num,  // comm_sms
        Num,  // sram_mb
        Num,  // fsms
        Str,  // config
        Str,  // workload
        Num,  // iterations
        Str,  // arrival
        Num,  // arrival_rate
        Str,  // schedule
        Num,  // microbatches
        Str,  // faults
        Str,  // contention
        Str,  // straggler
        Num,  // failed_links
        Num,  // degradation_pct
        Num,  // time_us
        Num,  // completion_cycles
        Num,  // gbps_per_npu
        Num,  // mem_traffic_bytes
        Num,  // network_bytes
        Num,  // compute_us
        Num,  // exposed_comm_us
        Num,  // ttft_p50_us
        Num,  // ttft_p95_us
        Num,  // ttft_p99_us
        Num,  // e2e_p50_us
        Num,  // e2e_p95_us
        Num,  // e2e_p99_us
        Num,  // goodput_rps
        Num,  // past_schedules
        Str,  // fidelity
        Bool, // cache_hit
        Num,  // speedup_vs_baseline
    ]
};

/// `bytes` with a binary-power suffix when exact (`64MB`), else raw
/// bytes (`1000B`).
struct HumanBytes(u64);

impl fmt::Display for HumanBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (shift, suffix) in [(30, "GB"), (20, "MB"), (10, "KB")] {
            if self.0 >= (1 << shift) && self.0.is_multiple_of(1 << shift) {
                return write!(f, "{}{suffix}", self.0 >> shift);
            }
        }
        write!(f, "{}B", self.0)
    }
}

/// Formats `bytes` with a binary-power suffix when exact (`64MB`),
/// falling back to raw bytes.
pub fn human_bytes(bytes: u64) -> String {
    HumanBytes(bytes).to_string()
}

/// One row's cells, written back to back into a buffer reused from row
/// to row. Each cell is followed by a comma, which [`Row::line`] turns
/// into the row's newline; `ends[i]` is where cell `i` ends. The reports
/// and the cache file both write their rows through it.
#[derive(Debug, Default)]
pub(crate) struct Row {
    buf: String,
    ends: Vec<usize>,
}

impl Row {
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.ends.clear();
    }

    /// Closes the cell written since the previous one.
    fn end_cell(&mut self) {
        self.ends.push(self.buf.len());
        self.buf.push(',');
    }

    pub(crate) fn empty(&mut self, cells: usize) {
        for _ in 0..cells {
            self.end_cell();
        }
    }

    pub(crate) fn text(&mut self, s: &str) {
        self.buf.push_str(s);
        self.end_cell();
    }

    /// A cell in the value's `Display` form — for floats, the shortest
    /// string that round-trips, without a trailing `.0` ("128").
    pub(crate) fn display(&mut self, v: impl fmt::Display) {
        write!(self.buf, "{v}").expect("writing to a String cannot fail");
        self.end_cell();
    }

    /// A float with a fixed number of decimals.
    pub(crate) fn fixed(&mut self, v: f64, decimals: usize) {
        write!(self.buf, "{v:.decimals$}").expect("writing to a String cannot fail");
        self.end_cell();
    }

    fn cell(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] + 1 };
        &self.buf[start..self.ends[i]]
    }

    /// The row as one CSV line, newline included.
    pub(crate) fn line(&mut self) -> &str {
        self.buf.pop();
        self.buf.push('\n');
        &self.buf
    }
}

/// Writes one row's cells in [`CSV_COLUMNS`] order, then, when
/// `attribution` is set, its [`ATTRIBUTION_COLUMNS`] cells (which are in
/// [`ace_trace::Attribution::buckets`] order by construction).
fn write_row(row: &mut Row, r: &RunResult, attribution: bool) {
    row.clear();
    let p = &r.point;
    row.display(p.topology);
    row.display(p.topology.nodes());
    match &p.kind {
        PointKind::Collective {
            engine,
            op,
            payload_bytes,
        } => {
            row.text(EngineFamily::of(*engine).name());
            row.display(op);
            row.display(payload_bytes);
            match *engine {
                EngineKind::Ideal => row.empty(4),
                EngineKind::Baseline {
                    comm_mem_gbps,
                    comm_sms,
                } => {
                    row.display(comm_mem_gbps);
                    row.display(comm_sms);
                    row.empty(2);
                }
                EngineKind::Ace {
                    dma_mem_gbps,
                    sram_mb,
                    fsms,
                } => {
                    row.display(dma_mem_gbps);
                    row.empty(1);
                    row.display(sram_mb);
                    row.display(fsms);
                }
            }
            // config … microbatches
            row.empty(7);
        }
        PointKind::Training {
            config,
            workload,
            iterations,
            ..
        } => {
            // engine … fsms
            row.empty(7);
            row.display(config);
            row.display(workload);
            row.display(iterations);
            // arrival … microbatches
            row.empty(4);
        }
        PointKind::Serving {
            config,
            workload,
            spec,
        } => {
            row.empty(7);
            row.display(config);
            row.display(workload);
            row.empty(1);
            row.display(&spec.arrival);
            row.display(spec.rate_rps);
            row.display(spec.schedule);
            row.display(spec.microbatches);
        }
    }
    row.display(&p.conditions.faults);
    row.display(p.conditions.contention);
    row.display(p.conditions.straggler);
    row.display(r.failed_links);
    row.fixed(r.degradation_pct, 3);
    let m = &r.metrics;
    row.fixed(m.time_us, 3);
    row.display(m.completion_cycles);
    row.fixed(m.gbps_per_npu, 3);
    row.display(m.mem_traffic_bytes);
    row.display(m.network_bytes);
    row.fixed(m.compute_us, 3);
    row.fixed(m.exposed_comm_us, 3);
    if matches!(p.kind, PointKind::Serving { .. }) {
        let s = &m.serving;
        for v in [
            s.ttft_p50_us,
            s.ttft_p95_us,
            s.ttft_p99_us,
            s.e2e_p50_us,
            s.e2e_p95_us,
            s.e2e_p99_us,
            s.goodput_rps,
        ] {
            row.fixed(v, 3);
        }
    } else {
        row.empty(7);
    }
    row.display(m.past_schedules);
    row.display(r.fidelity);
    row.text(if r.cache_hit { "1" } else { "0" });
    match r.speedup_vs_baseline {
        Some(s) => row.fixed(s, 4),
        None => row.empty(1),
    }
    if attribution {
        for (_, cycles) in m.attribution.buckets() {
            row.display(cycles);
        }
    }
}

/// Renders the outcome as CSV (header + one row per grid cell).
pub fn to_csv(outcome: &SweepOutcome) -> String {
    csv_impl(outcome, false)
}

/// [`to_csv`] plus the [`ATTRIBUTION_COLUMNS`]: each row's
/// `completion_cycles` decomposed into compute / per-pipe-bound / other
/// buckets. A separate emitter so default output stays byte-stable.
pub fn to_csv_with_attribution(outcome: &SweepOutcome) -> String {
    csv_impl(outcome, true)
}

fn csv_impl(outcome: &SweepOutcome, attribution: bool) -> String {
    let mut out = String::new();
    out.push_str(&CSV_COLUMNS.join(","));
    if attribution {
        out.push(',');
        out.push_str(&ATTRIBUTION_COLUMNS.join(","));
    }
    out.push('\n');
    let mut row = Row::default();
    for r in &outcome.results {
        write_row(&mut row, r, attribution);
        out.push_str(row.line());
    }
    out
}

/// Appends `s` to `out` as a JSON string, escaping only when a character
/// needs it.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        json_escape(out, s);
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// Appends `v` as a JSON number, or `null` when it is not finite.
fn push_json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Renders the outcome (rows + per-axis summary) as JSON.
pub fn to_json(outcome: &SweepOutcome) -> String {
    json_impl(outcome, false)
}

/// [`to_json`] plus per-row attribution fields (see
/// [`ATTRIBUTION_COLUMNS`]). A separate emitter so default output stays
/// byte-stable.
pub fn to_json_with_attribution(outcome: &SweepOutcome) -> String {
    json_impl(outcome, true)
}

fn json_impl(outcome: &SweepOutcome, attribution: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"scenario\": ");
    push_json_str(&mut out, &outcome.scenario);
    write!(
        out,
        ",\n  \"mode\": \"{}\",\n  \"fidelity\": \"{}\",\n  \"points\": {},\n  \
         \"executed\": {},\n  \"analytic_executed\": {},\n  \"cache_hits\": {},\n",
        outcome.mode,
        outcome.fidelity,
        outcome.results.len(),
        outcome.executed,
        outcome.analytic_executed,
        outcome.cache_hits,
    )
    .expect("writing to a String cannot fail");
    out.push_str("  \"results\": [\n");
    let mut row = Row::default();
    for (i, r) in outcome.results.iter().enumerate() {
        let row_start = out.len();
        write_row(&mut row, r, attribution);
        out.push_str("    {");
        let mut sep = "";
        for (col, (name, kind)) in CSV_COLUMNS.iter().zip(JSON_KINDS).enumerate() {
            let cell = row.cell(col);
            if cell.is_empty() {
                continue;
            }
            out.push_str(sep);
            sep = ", ";
            out.push('"');
            out.push_str(name);
            out.push_str("\": ");
            match kind {
                JsonKind::Str => push_json_str(&mut out, cell),
                JsonKind::Bool => out.push_str(if cell == "1" { "true" } else { "false" }),
                JsonKind::Num => out.push_str(cell),
            }
        }
        if attribution {
            for (k, name) in ATTRIBUTION_COLUMNS.iter().enumerate() {
                out.push_str(", \"");
                out.push_str(name);
                out.push_str("\": ");
                out.push_str(row.cell(CSV_COLUMNS.len() + k));
            }
        }
        out.push('}');
        if i + 1 < outcome.results.len() {
            out.push(',');
        }
        out.push('\n');
        if i == 0 {
            // Size the text for every row once the first is written. The
            // JSON is the largest text a sweep renders; grown by doubling,
            // it is now and then copied, and the copy, holding the text
            // twice, sets the process's peak memory. Rows differ in length
            // by their empty cells, hence the slack: capacity never written
            // to costs no memory.
            let first_row = out.len() - row_start;
            out.reserve(2 * first_row * outcome.results.len());
        }
    }
    out.push_str("  ],\n");
    out.push_str("  \"summary\": [\n");
    let summaries = summarize(outcome);
    for (i, s) in summaries.iter().enumerate() {
        out.push_str("    {\"axis\": ");
        push_json_str(&mut out, &s.axis);
        out.push_str(", \"value\": ");
        push_json_str(&mut out, &s.value);
        write!(out, ", \"count\": {}, \"min_speedup\": ", s.count)
            .expect("writing to a String cannot fail");
        push_json_num(&mut out, s.min);
        out.push_str(", \"mean_speedup\": ");
        push_json_num(&mut out, s.mean);
        out.push_str(", \"max_speedup\": ");
        push_json_num(&mut out, s.max);
        out.push('}');
        if i + 1 < summaries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Speedup statistics of one axis value (e.g. `mem_gbps = 128`).
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSummary {
    /// Axis name (`topology`, `engine`, `mem_gbps`, `config`, ...).
    pub axis: String,
    /// The axis value this row aggregates.
    pub value: String,
    /// Number of grid cells at this value carrying a speedup.
    pub count: usize,
    /// Minimum speedup vs the scenario baseline.
    pub min: f64,
    /// Arithmetic mean speedup.
    pub mean: f64,
    /// Maximum speedup.
    pub max: f64,
}

/// Calls `f` with each (axis, value) coordinate `point` contributes to,
/// writing each value into `buf` (reused across calls).
fn for_each_axis_value(point: &RunPoint, buf: &mut String, mut f: impl FnMut(&'static str, &str)) {
    let mut emit = |axis: &'static str, value: &dyn fmt::Display| {
        buf.clear();
        write!(buf, "{value}").expect("writing to a String cannot fail");
        f(axis, buf);
    };
    emit("topology", &point.topology);
    emit("faults", &point.conditions.faults);
    emit("contention", &point.conditions.contention);
    emit("straggler", &point.conditions.straggler);
    match &point.kind {
        PointKind::Collective {
            engine,
            op,
            payload_bytes,
        } => {
            emit("engine", &EngineFamily::of(*engine).name());
            emit("op", op);
            emit("payload", &HumanBytes(*payload_bytes));
            match engine {
                EngineKind::Ideal => {}
                EngineKind::Baseline {
                    comm_mem_gbps,
                    comm_sms,
                } => {
                    emit("mem_gbps", comm_mem_gbps);
                    emit("comm_sms", comm_sms);
                }
                EngineKind::Ace {
                    dma_mem_gbps,
                    sram_mb,
                    fsms,
                } => {
                    emit("mem_gbps", dma_mem_gbps);
                    emit("sram_mb", sram_mb);
                    emit("fsms", fsms);
                }
            }
        }
        PointKind::Training {
            config, workload, ..
        } => {
            emit("config", config);
            emit("workload", workload);
        }
        PointKind::Serving {
            config,
            workload,
            spec,
        } => {
            emit("config", config);
            emit("workload", workload);
            emit("arrival_rate", &spec.rate_rps);
            emit("schedule", &spec.schedule);
            emit("microbatches", &spec.microbatches);
        }
    }
}

/// Aggregates speedup-vs-baseline per axis value, for every axis with at
/// least two distinct values among rows that carry a speedup. Axis and
/// value order follow first appearance in the grid, so the summary is
/// deterministic.
pub fn summarize(outcome: &SweepOutcome) -> Vec<AxisSummary> {
    // axis -> ordered (value, speedups)
    type ValueSamples = Vec<(String, Vec<f64>)>;
    let mut axes: Vec<(&'static str, ValueSamples)> = Vec::new();
    let mut buf = String::new();
    for r in &outcome.results {
        let Some(speedup) = r.speedup_vs_baseline else {
            continue;
        };
        for_each_axis_value(&r.point, &mut buf, |axis, value| {
            let values = match axes.iter_mut().position(|(a, _)| *a == axis) {
                Some(i) => &mut axes[i].1,
                None => {
                    axes.push((axis, Vec::new()));
                    &mut axes.last_mut().expect("just pushed").1
                }
            };
            match values.iter_mut().find(|(v, _)| v == value) {
                Some((_, samples)) => samples.push(speedup),
                None => values.push((value.to_string(), vec![speedup])),
            }
        });
    }
    let mut out = Vec::new();
    for (axis, values) in axes {
        if values.len() < 2 {
            continue;
        }
        for (value, samples) in values {
            let count = samples.len();
            let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mean = samples.iter().sum::<f64>() / count as f64;
            out.push(AxisSummary {
                axis: axis.to_string(),
                value,
                count,
                min,
                mean,
                max,
            });
        }
    }
    out
}

/// Renders the axis summary as an aligned text table for terminals.
pub fn summary_table(summaries: &[AxisSummary]) -> String {
    if summaries.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>20} {:>6} {:>10} {:>10} {:>10}\n",
        "axis", "value", "count", "min", "mean", "max"
    ));
    for s in summaries {
        out.push_str(&format!(
            "{:<12} {:>20} {:>6} {:>9.3}x {:>9.3}x {:>9.3}x\n",
            s.axis, s.value, s.count, s.min, s.mean, s.max
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_scenario, RunnerOptions};
    use crate::scenario::{BaselineSpec, EngineFamily, Scenario};
    use ace_net::TopologySpec;

    fn outcome() -> SweepOutcome {
        let mut sc = Scenario::collective("report-test");
        sc.topologies = vec![TopologySpec::torus3(2, 1, 1).unwrap()];
        sc.engines = vec![EngineFamily::Ideal, EngineFamily::Baseline];
        sc.payload_bytes = vec![128 * 1024];
        sc.mem_gbps = vec![128.0, 450.0];
        sc.comm_sms = vec![6];
        sc.baseline = Some(BaselineSpec::Engine(EngineKind::Ideal));
        run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn csv_shape_and_header() {
        let out = outcome();
        let csv = to_csv(&out);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + out.results.len());
        assert!(lines[0].starts_with("topology,nodes,engine,"));
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), CSV_COLUMNS.len());
        }
        // Ideal rows leave the knob columns empty.
        assert!(lines[1].contains("ideal"));
    }

    #[test]
    fn json_is_structurally_sound() {
        let json = to_json(&outcome());
        // Cheap structural checks (no JSON parser in a std-only build):
        // balanced braces/brackets and the expected top-level keys.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"scenario\"",
            "\"results\"",
            "\"summary\"",
            "\"cache_hits\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }

    #[test]
    fn summary_covers_multi_valued_axes_only() {
        let out = outcome();
        let sums = summarize(&out);
        // engine has 2 values; mem_gbps has 2 (only baseline rows carry it);
        // topology/op/payload have 1 value each and are dropped.
        assert!(sums.iter().any(|s| s.axis == "engine"));
        assert!(sums.iter().any(|s| s.axis == "mem_gbps"));
        assert!(!sums.iter().any(|s| s.axis == "topology"));
        for s in &sums {
            assert!(s.min <= s.mean && s.mean <= s.max);
            assert!(s.count > 0);
        }
        let table = summary_table(&sums);
        assert!(table.contains("engine"));
    }

    #[test]
    fn attribution_emitters_extend_but_never_change_default_output() {
        let out = outcome();
        let csv = to_csv(&out);
        let csv_a = to_csv_with_attribution(&out);
        // Default output is untouched; the attribution variant appends
        // exactly the extra columns to every line.
        assert!(!csv.contains("attr_compute_cycles"));
        assert!(csv_a.lines().next().unwrap().ends_with("attr_other_cycles"));
        for (plain, ext) in csv.lines().zip(csv_a.lines()) {
            assert!(ext.starts_with(plain), "attribution row diverged");
            assert_eq!(
                ext.split(',').count(),
                CSV_COLUMNS.len() + ATTRIBUTION_COLUMNS.len()
            );
        }
        // Buckets in each row sum to that row's completion_cycles.
        for (r, line) in out.results.iter().zip(csv_a.lines().skip(1)) {
            let cells: Vec<&str> = line.split(',').collect();
            let sum: u64 = cells[CSV_COLUMNS.len()..]
                .iter()
                .map(|c| c.parse::<u64>().unwrap())
                .sum();
            assert_eq!(sum, r.metrics.completion_cycles);
        }
        let json_a = to_json_with_attribution(&out);
        assert!(json_a.contains("\"attr_network_cycles\":"));
        assert!(!to_json(&out).contains("attr_network_cycles"));
    }

    #[test]
    fn fault_columns_report_failed_links_and_degradation() {
        let mut sc = Scenario::collective("fault-report");
        sc.topologies = vec![TopologySpec::torus3(4, 4, 1).unwrap()];
        sc.engines = vec![EngineFamily::Ideal];
        sc.payload_bytes = vec![128 * 1024];
        sc.faults = vec!["none".parse().unwrap(), "kill:1@seed:42".parse().unwrap()];
        let out = run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let csv = to_csv(&out);
        let lines: Vec<&str> = csv.lines().collect();
        let header: Vec<&str> = lines[0].split(',').collect();
        let fl = header.iter().position(|c| *c == "failed_links").unwrap();
        let dp = header.iter().position(|c| *c == "degradation_pct").unwrap();
        let fa = header.iter().position(|c| *c == "faults").unwrap();
        let pristine: Vec<&str> = lines[1].split(',').collect();
        let degraded: Vec<&str> = lines[2].split(',').collect();
        assert_eq!(pristine[fa], "none");
        assert_eq!(pristine[fl], "0");
        assert_eq!(pristine[dp], "0.000");
        assert_eq!(degraded[fa], "kill:1@seed:42");
        assert_eq!(degraded[fl], "1");
        assert!(degraded[dp].parse::<f64>().unwrap() > 0.0);
        // Degraded rows must not be slower to *parse* than run: the JSON
        // view carries the same identity fields as strings.
        let json = to_json(&out);
        assert!(json.contains("\"faults\": \"kill:1@seed:42\""));
        assert!(json.contains("\"failed_links\": 1"));
    }

    #[test]
    fn human_bytes_suffixes() {
        assert_eq!(human_bytes(64 << 20), "64MB");
        assert_eq!(human_bytes(8 << 10), "8KB");
        assert_eq!(human_bytes(1 << 30), "1GB");
        assert_eq!(human_bytes(1000), "1000B");
        assert_eq!(human_bytes(3 << 19), "1536KB");
    }

    #[test]
    fn parallel_csv_is_byte_identical_to_serial() {
        let mut sc = Scenario::collective("determinism");
        sc.topologies = vec![TopologySpec::torus3(2, 1, 1).unwrap()];
        sc.engines = vec![EngineFamily::Baseline];
        sc.payload_bytes = vec![128 * 1024];
        sc.mem_gbps = vec![64.0, 128.0, 450.0];
        sc.comm_sms = vec![2, 6];
        let serial = run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = run_scenario(
            &sc,
            RunnerOptions {
                threads: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(to_csv(&serial), to_csv(&parallel));
        assert_eq!(to_json(&serial), to_json(&parallel));
    }
}
