//! Sweep reports: CSV and JSON emitters plus per-axis summary
//! aggregation.
//!
//! All output is deterministic: fixed column order, fixed float
//! formatting, rows in grid order. A parallel run therefore emits a CSV
//! byte-identical to a single-threaded run of the same scenario.
//!
//! Every number is written in the bytes `core::fmt` writes: integers and
//! knob values as `{}` writes them, times, bandwidths and percentages as
//! `{:.3}`, speedups as `{:.4}`. The row writer skips `core::fmt`, which
//! costs 100–400 ns a number, for integers, integral floats below 2^53,
//! fixed-point cells of floats below 2^53 and topologies. Unit tests
//! compare those paths with `core::fmt` on over 200,000 seeded values
//! and on pinned edge cases (ties, `-0`, subnormals, 2^53, NaN).
//!
//! A grid repeats a point wherever an axis leaves it unchanged: an
//! `ideal` cell once for every knob combination, a `baseline` cell once
//! for every `sram_mb` × `fsms` pair. The repeats differ only in
//! `cache_hit`. So each emitter renders a point's first row and writes a
//! later row of that point by copying the first row's text out of the
//! output, with its own `cache_hit` value put in, when the two results
//! are equal field for field (floats by their bits, `cache_hit` aside).
//! Any other row, such as one in the other tier or with `-0.0` where the
//! first row has `0.0`, is rendered in full. Either way a row's bytes are
//! the bytes rendering it alone would give.

use std::collections::hash_map::Entry;
use std::fmt::{self, Write};
use std::ops::Range;

use ace_collectives::CollectiveOp;
use ace_net::{ContentionSpec, FaultSpec, TopologySpec};
use ace_simcore::FxHashMap;
use ace_system::{EngineKind, SystemConfig};
use ace_trace::chrome::json_escape;
use ace_workloads::{PipeSchedule, StragglerSpec};

use crate::grid::{PointKind, RunPoint};
use crate::num;
use crate::runner::{Metrics, RunResult, ServingMetrics, SweepOutcome};
use crate::scenario::{EngineFamily, WorkloadSel};

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

/// The index of the `cache_hit` column in [`CSV_COLUMNS`].
const CACHE_HIT: usize = 37;
const _: () = assert!(matches!(CSV_COLUMNS[CACHE_HIT].as_bytes(), b"cache_hit"));

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

    /// A cell in the value's `Display` form.
    pub(crate) fn display(&mut self, v: impl fmt::Display) {
        write!(self.buf, "{v}").expect("writing to a String cannot fail");
        self.end_cell();
    }

    /// An integer cell, in decimal.
    pub(crate) fn int(&mut self, v: u64) {
        num::push_u64(&mut self.buf, v);
        self.end_cell();
    }

    /// A float cell in its `Display` form: the shortest string that
    /// round-trips, without a trailing `.0` ("128", "12.5").
    pub(crate) fn float(&mut self, v: f64) {
        num::push_f64(&mut self.buf, v);
        self.end_cell();
    }

    /// A float with a fixed number of decimals, as `{:.N}` writes it.
    pub(crate) fn fixed(&mut self, v: f64, decimals: usize) {
        num::push_fixed(&mut self.buf, v, decimals);
        self.end_cell();
    }

    /// A topology cell, as [`TopologySpec`]'s `Display` writes it.
    pub(crate) fn topology(&mut self, t: TopologySpec) {
        let buf = &mut self.buf;
        match t {
            TopologySpec::Torus { dims, ndims } => {
                for (i, &d) in dims[..usize::from(ndims)].iter().enumerate() {
                    if i > 0 {
                        buf.push('x');
                    }
                    num::push_u64(buf, u64::from(d));
                }
            }
            TopologySpec::Switch { nodes, gbps } => {
                buf.push_str("switch:");
                num::push_u64(buf, u64::from(nodes));
                if let Some(g) = gbps {
                    buf.push('@');
                    num::push_u64(buf, u64::from(g));
                }
            }
            TopologySpec::Hierarchical {
                scale_up,
                scale_out,
            } => {
                buf.push_str("hier:");
                num::push_u64(buf, u64::from(scale_up));
                buf.push('x');
                num::push_u64(buf, u64::from(scale_out));
            }
        }
        self.end_cell();
    }

    /// Where cell `i` sits in the row's text.
    fn span(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] + 1 };
        start..self.ends[i]
    }

    fn cell(&self, i: usize) -> &str {
        &self.buf[self.span(i)]
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
    row.topology(p.topology);
    row.int(p.topology.nodes() as u64);
    match &p.kind {
        PointKind::Collective {
            engine,
            op,
            payload_bytes,
        } => {
            row.text(EngineFamily::of(*engine).name());
            row.display(op);
            row.int(*payload_bytes);
            match *engine {
                EngineKind::Ideal => row.empty(4),
                EngineKind::Baseline {
                    comm_mem_gbps,
                    comm_sms,
                } => {
                    row.float(comm_mem_gbps);
                    row.int(comm_sms.into());
                    row.empty(2);
                }
                EngineKind::Ace {
                    dma_mem_gbps,
                    sram_mb,
                    fsms,
                } => {
                    row.float(dma_mem_gbps);
                    row.empty(1);
                    row.int(sram_mb);
                    row.int(fsms as u64);
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
            row.text(config.short_name());
            row.display(workload);
            row.int((*iterations).into());
            // arrival … microbatches
            row.empty(4);
        }
        PointKind::Serving {
            config,
            workload,
            spec,
        } => {
            row.empty(7);
            row.text(config.short_name());
            row.display(workload);
            row.empty(1);
            row.display(&spec.arrival);
            row.float(spec.rate_rps);
            row.text(spec.schedule.name());
            row.int(spec.microbatches.into());
        }
    }
    row.display(&p.conditions.faults);
    row.display(p.conditions.contention);
    row.display(p.conditions.straggler);
    row.int(r.failed_links as u64);
    row.fixed(r.degradation_pct, 3);
    let m = &r.metrics;
    row.fixed(m.time_us, 3);
    row.int(m.completion_cycles);
    row.fixed(m.gbps_per_npu, 3);
    row.int(m.mem_traffic_bytes);
    row.int(m.network_bytes);
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
    row.int(m.past_schedules);
    row.text(r.fidelity.name());
    row.text(if r.cache_hit { "1" } else { "0" });
    match r.speedup_vs_baseline {
        Some(s) => row.fixed(s, 4),
        None => row.empty(1),
    }
    if attribution {
        for (_, cycles) in m.attribution.buckets() {
            row.int(cycles);
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

/// A result's fields other than its point and `cache_hit`, floats as
/// their bits. Two results of one point whose fields are equal render to
/// the same bytes apart from their `cache_hit` cells. The structs are
/// taken apart in full, so a field added to one of them does not compile
/// until it is compared here.
fn rendered_fields(r: &RunResult) -> impl PartialEq {
    let RunResult {
        point: _,
        metrics,
        fidelity,
        cache_hit: _,
        speedup_vs_baseline,
        failed_links,
        degradation_pct,
    } = r;
    let Metrics {
        time_us,
        completion_cycles,
        gbps_per_npu,
        mem_traffic_bytes,
        network_bytes,
        compute_us,
        exposed_comm_us,
        past_schedules,
        attribution,
        serving,
    } = metrics;
    let ServingMetrics {
        ttft_p50_us,
        ttft_p95_us,
        ttft_p99_us,
        e2e_p50_us,
        e2e_p95_us,
        e2e_p99_us,
        goodput_rps,
    } = serving;
    let floats = [
        *degradation_pct,
        *time_us,
        *gbps_per_npu,
        *compute_us,
        *exposed_comm_us,
        *ttft_p50_us,
        *ttft_p95_us,
        *ttft_p99_us,
        *e2e_p50_us,
        *e2e_p95_us,
        *e2e_p99_us,
        *goodput_rps,
    ];
    (
        floats.map(f64::to_bits),
        [
            *failed_links as u64,
            *completion_cycles,
            *mem_traffic_bytes,
            *network_bytes,
            *past_schedules,
        ],
        speedup_vs_baseline.map(f64::to_bits),
        *fidelity,
        *attribution,
    )
}

/// Where a row was written in a report: its text is `out[text]`, its
/// `cache_hit` value `out[hit]`.
struct Written<'a> {
    result: &'a RunResult,
    text: Range<usize>,
    hit: Range<usize>,
}

/// The first row a report wrote for each point.
#[derive(Default)]
struct FirstRows<'a>(FxHashMap<&'a RunPoint, Written<'a>>);

impl<'a> FirstRows<'a> {
    /// Appends `r`'s row to `out`, `hit` being its `cache_hit` value as
    /// the report spells it. When the first row of `r`'s point renders a
    /// result with `r`'s fields, its text is copied with `hit` put in;
    /// otherwise `render` writes the row and returns where its
    /// `cache_hit` value went.
    fn push(
        &mut self,
        out: &mut String,
        r: &'a RunResult,
        hit: &str,
        render: impl FnOnce(&mut String) -> Range<usize>,
    ) {
        match self.0.entry(&r.point) {
            Entry::Occupied(first) if rendered_fields(first.get().result) == rendered_fields(r) => {
                let first = first.get();
                out.extend_from_within(first.text.start..first.hit.start);
                out.push_str(hit);
                out.extend_from_within(first.hit.end..first.text.end);
            }
            entry => {
                let start = out.len();
                let hit = render(out);
                if let Entry::Vacant(slot) = entry {
                    slot.insert(Written {
                        result: r,
                        text: start..out.len(),
                        hit,
                    });
                }
            }
        }
    }
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
    let mut first_rows = FirstRows::default();
    for r in &outcome.results {
        let hit = if r.cache_hit { "1" } else { "0" };
        first_rows.push(&mut out, r, hit, |out| {
            write_row(&mut row, r, attribution);
            let start = out.len();
            let hit = row.span(CACHE_HIT);
            out.push_str(row.line());
            start + hit.start..start + hit.end
        });
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
    // `, "column": ` for every column, CSV columns first; a row's first
    // field drops the leading `, `.
    let keys: Vec<String> = CSV_COLUMNS
        .iter()
        .chain(&ATTRIBUTION_COLUMNS)
        .map(|name| format!(", \"{name}\": "))
        .collect();
    let mut row = Row::default();
    let mut first_rows = FirstRows::default();
    for (i, r) in outcome.results.iter().enumerate() {
        let row_start = out.len();
        let hit = if r.cache_hit { "true" } else { "false" };
        first_rows.push(&mut out, r, hit, |out| {
            write_row(&mut row, r, attribution);
            out.push_str("    {");
            let mut hit = 0..0;
            let mut first = true;
            for (col, kind) in JSON_KINDS.into_iter().enumerate() {
                let cell = row.cell(col);
                if cell.is_empty() {
                    continue;
                }
                let key = keys[col].as_str();
                out.push_str(if first { &key[2..] } else { key });
                first = false;
                let start = out.len();
                match kind {
                    JsonKind::Str => push_json_str(out, cell),
                    JsonKind::Bool => out.push_str(if cell == "1" { "true" } else { "false" }),
                    JsonKind::Num => out.push_str(cell),
                }
                if col == CACHE_HIT {
                    hit = start..out.len();
                }
            }
            if attribution {
                for (col, key) in keys.iter().enumerate().skip(CSV_COLUMNS.len()) {
                    out.push_str(key);
                    out.push_str(row.cell(col));
                }
            }
            out.push('}');
            hit
        });
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

/// The value a row holds on one summary axis. Values are compared before
/// they are formatted, so each distinct value is formatted once. Equal
/// values always print alike: floats compare by their bits (`0` and
/// `-0` print differently), as the condition specs already do.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AxisValue<'a> {
    Topology(TopologySpec),
    Faults(&'a FaultSpec),
    Contention(ContentionSpec),
    Straggler(StragglerSpec),
    Engine(EngineFamily),
    Op(CollectiveOp),
    /// A payload, printed like `64MB`.
    Payload(u64),
    /// An `f64` knob's bits.
    Float(u64),
    Int(u64),
    Config(SystemConfig),
    Workload(&'a WorkloadSel),
    Schedule(PipeSchedule),
}

impl fmt::Display for AxisValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AxisValue::Topology(t) => write!(f, "{t}"),
            AxisValue::Faults(faults) => write!(f, "{faults}"),
            AxisValue::Contention(c) => write!(f, "{c}"),
            AxisValue::Straggler(s) => write!(f, "{s}"),
            AxisValue::Engine(e) => f.write_str(e.name()),
            AxisValue::Op(op) => write!(f, "{op}"),
            AxisValue::Payload(bytes) => write!(f, "{}", HumanBytes(bytes)),
            AxisValue::Float(bits) => write!(f, "{}", f64::from_bits(bits)),
            AxisValue::Int(v) => write!(f, "{v}"),
            AxisValue::Config(c) => write!(f, "{c}"),
            AxisValue::Workload(w) => write!(f, "{w}"),
            AxisValue::Schedule(s) => write!(f, "{s}"),
        }
    }
}

/// Calls `f` with each (axis, value) coordinate `point` contributes to.
fn for_each_axis_value<'a>(point: &'a RunPoint, mut f: impl FnMut(&'static str, AxisValue<'a>)) {
    use AxisValue::{
        Config, Contention, Engine, Faults, Float, Int, Op, Payload, Schedule, Straggler, Topology,
        Workload,
    };
    f("topology", Topology(point.topology));
    f("faults", Faults(&point.conditions.faults));
    f("contention", Contention(point.conditions.contention));
    f("straggler", Straggler(point.conditions.straggler));
    match &point.kind {
        PointKind::Collective {
            engine,
            op,
            payload_bytes,
        } => {
            f("engine", Engine(EngineFamily::of(*engine)));
            f("op", Op(*op));
            f("payload", Payload(*payload_bytes));
            match *engine {
                EngineKind::Ideal => {}
                EngineKind::Baseline {
                    comm_mem_gbps,
                    comm_sms,
                } => {
                    f("mem_gbps", Float(comm_mem_gbps.to_bits()));
                    f("comm_sms", Int(comm_sms.into()));
                }
                EngineKind::Ace {
                    dma_mem_gbps,
                    sram_mb,
                    fsms,
                } => {
                    f("mem_gbps", Float(dma_mem_gbps.to_bits()));
                    f("sram_mb", Int(sram_mb));
                    f("fsms", Int(fsms as u64));
                }
            }
        }
        PointKind::Training {
            config, workload, ..
        } => {
            f("config", Config(*config));
            f("workload", Workload(workload));
        }
        PointKind::Serving {
            config,
            workload,
            spec,
        } => {
            f("config", Config(*config));
            f("workload", Workload(workload));
            f("arrival_rate", Float(spec.rate_rps.to_bits()));
            f("schedule", Schedule(spec.schedule));
            f("microbatches", Int(spec.microbatches.into()));
        }
    }
}

/// One summary axis being gathered: its printed values in first-appearance
/// order, each with the speedups of the rows holding it, and every
/// distinct [`AxisValue`] seen with the index of its printed value.
struct AxisSamples<'a> {
    name: &'static str,
    values: Vec<(String, Vec<f64>)>,
    seen: Vec<(AxisValue<'a>, usize)>,
}

/// Aggregates speedup-vs-baseline per axis value, for every axis with at
/// least two distinct values among rows that carry a speedup. Axis and
/// value order follow first appearance in the grid, so the summary is
/// deterministic.
pub fn summarize(outcome: &SweepOutcome) -> Vec<AxisSummary> {
    let mut axes: Vec<AxisSamples> = Vec::new();
    let mut text = String::new();
    for r in &outcome.results {
        let Some(speedup) = r.speedup_vs_baseline else {
            continue;
        };
        for_each_axis_value(&r.point, |name, value| {
            let axis = match axes.iter().position(|a| a.name == name) {
                Some(i) => &mut axes[i],
                None => {
                    axes.push(AxisSamples {
                        name,
                        values: Vec::new(),
                        seen: Vec::new(),
                    });
                    axes.last_mut().expect("just pushed")
                }
            };
            let slot = match axis.seen.iter().find(|(v, _)| *v == value) {
                Some(&(_, slot)) => slot,
                None => {
                    // Values are grouped by their text, so two distinct
                    // values that print alike share one summary row.
                    text.clear();
                    write!(text, "{value}").expect("writing to a String cannot fail");
                    let slot = match axis.values.iter().position(|(v, _)| *v == text) {
                        Some(slot) => slot,
                        None => {
                            axis.values.push((text.clone(), Vec::new()));
                            axis.values.len() - 1
                        }
                    };
                    axis.seen.push((value, slot));
                    slot
                }
            };
            axis.values[slot].1.push(speedup);
        });
    }
    let mut out = Vec::new();
    for axis in axes {
        if axis.values.len() < 2 {
            continue;
        }
        for (value, samples) in axis.values {
            let count = samples.len();
            let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mean = samples.iter().sum::<f64>() / count as f64;
            out.push(AxisSummary {
                axis: axis.name.to_string(),
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
    use ace_simcore::SplitMix64;
    use ace_system::Tier;

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

    /// Asserts that every emitter renders `out` as it renders each row
    /// alone: the header, then each row as a one-row outcome renders it.
    fn assert_rows_render_as_if_alone(out: &SweepOutcome) {
        let alone = |r: &RunResult| SweepOutcome {
            results: vec![r.clone()],
            ..out.clone()
        };
        for emit in [to_csv, to_csv_with_attribution] {
            let mut expected = String::new();
            for (i, r) in out.results.iter().enumerate() {
                let one = emit(&alone(r));
                let (header, row) = one.split_once('\n').expect("a header line");
                if i == 0 {
                    expected.push_str(header);
                    expected.push('\n');
                }
                expected.push_str(row);
            }
            assert_eq!(emit(out), expected);
        }
        // The `results` lines, without the `,` between rows.
        let results = |json: &str| -> Vec<String> {
            json.lines()
                .skip_while(|l| *l != "  \"results\": [")
                .skip(1)
                .take_while(|l| *l != "  ],")
                .map(|l| l.strip_suffix(',').unwrap_or(l).to_string())
                .collect()
        };
        for emit in [to_json, to_json_with_attribution] {
            let expected: Vec<String> = out
                .results
                .iter()
                .flat_map(|r| results(&emit(&alone(r))))
                .collect();
            assert_eq!(results(&emit(out)), expected);
        }
    }

    #[test]
    fn repeated_points_render_as_if_alone() {
        let template = outcome();
        let base = RunResult {
            cache_hit: false,
            speedup_vs_baseline: Some(1.5),
            ..template.results[1].clone()
        };
        assert_eq!(base.fidelity, Tier::Exact);
        assert_eq!(base.degradation_pct.to_bits(), 0.0f64.to_bits());
        // Each variant differs from `base` in one rendered input.
        let edits: [fn(&mut RunResult); 9] = [
            |_| {},
            |r| r.cache_hit = true,
            |r| r.fidelity = Tier::Analytic,
            |r| r.speedup_vs_baseline = Some(0.0),
            |r| r.speedup_vs_baseline = Some(-0.0),
            |r| r.speedup_vs_baseline = None,
            |r| r.metrics.time_us = f64::NAN,
            |r| r.degradation_pct = -0.0,
            |r| r.metrics.attribution.other_cycles += 1,
        ];
        let variants: Vec<RunResult> = edits
            .iter()
            .map(|edit| {
                let mut r = base.clone();
                edit(&mut r);
                r
            })
            .collect();
        // Each variant in turn is the point's first row, followed by all
        // of them on the same point.
        for first in &variants {
            let results = std::iter::once(first).chain(&variants).cloned().collect();
            assert_rows_render_as_if_alone(&SweepOutcome {
                results,
                ..template.clone()
            });
        }
        // Every variant on each of the template's points, three times
        // over with a random `cache_hit`, in a splitmix64-shuffled order.
        let mut rng = SplitMix64::new(0x5eed_0e9e);
        let mut grid = Vec::new();
        for t in &template.results {
            for v in &variants {
                for _ in 0..3 {
                    grid.push(RunResult {
                        point: t.point.clone(),
                        cache_hit: rng.next_u64() % 2 == 1,
                        ..v.clone()
                    });
                }
            }
        }
        for i in (1..grid.len()).rev() {
            grid.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        assert_rows_render_as_if_alone(&SweepOutcome {
            results: grid,
            ..template
        });
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
    fn topology_cells_match_display() {
        let mut row = Row::default();
        for spelling in [
            "8",
            "4x2x2",
            "2x2x2x2x2x2",
            "65535x2",
            "switch:16",
            "switch:64@100",
            "hier:8x16",
        ] {
            let t: TopologySpec = spelling.parse().unwrap();
            row.clear();
            row.topology(t);
            assert_eq!(row.cell(0), t.to_string());
            assert_eq!(row.cell(0), spelling);
        }
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
