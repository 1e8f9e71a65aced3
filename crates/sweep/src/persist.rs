//! Persistent sweep caches.
//!
//! A [`Cache`] serializes to a versioned, line-oriented CSV file so
//! results survive the process: `sweep … --cache-file sweep.cache` loads
//! the file before running, appends each freshly executed cell as it
//! finishes, and rewrites the file sorted afterwards; any point already
//! present is served without re-simulating. The simulator is
//! deterministic, so a cached row is exactly what a fresh run would
//! produce.
//!
//! Format (`v5`; the header also pins the simulator version that wrote
//! the file — see [`CACHE_HEADER`]). The leading `fidelity` cell keys the
//! row to its execution tier, so an α–β estimate can never be served
//! where an event-driven result is expected. The `faults` / `contention`
//! / `straggler` cells carry the run-condition spellings — part of the
//! point's identity, so a degraded-fabric row can never be served for a
//! pristine query. Serving rows fold the whole [`ace_serve::ServingSpec`]
//! into one `serving` cell (its `;`-joined cache-key spelling) and carry
//! seven latency cells; the trailing seven cells are the
//! bottleneck-attribution buckets (cycles); the attribution total is not
//! stored — it always equals `completion_cycles`:
//!
//! ```text
//! # ace-sweep-cache v5 sim-0.1.0
//! fidelity,kind,topology,engine,mem_gbps,comm_sms,sram_mb,fsms,op,payload_bytes,config,workload,iterations,optimized_embedding,serving,faults,contention,straggler,time_us,completion_cycles,gbps_per_npu,mem_traffic_bytes,network_bytes,compute_us,exposed_comm_us,past_schedules,ttft_p50_us,ttft_p95_us,ttft_p99_us,e2e_p50_us,e2e_p95_us,e2e_p99_us,goodput_rps,attr_compute,attr_network,attr_hbm,attr_dma,attr_bus,attr_proc,attr_other
//! exact,collective,4x2x2,ace,128,,4,16,all-reduce,67108864,,,,,,none,none,det,12.3,15314,…
//! analytic,training,4x2x2,,,,,,,,ACE,resnet50,2,0,,kill:1@seed:42,none,det,…
//! exact,serving,switch:16,,,,,,,,ACE,transformer,,,arrival=poisson;rate=500;…,…
//! ```
//!
//! Floats are written with Rust's shortest round-trip `Display`, so a
//! load → save cycle is lossless. Rows are sorted by their serialized
//! key: saving the same cache twice produces byte-identical files.
//!
//! Two helpers guard the file:
//!
//! * [`CacheFileLock`] — an `O_EXCL` advisory lock so two concurrent
//!   `sweep --cache-file` processes cannot interleave writes (saves are
//!   also atomic: temp file + rename).
//! * [`Journal`] — the file opened for append. Each freshly executed cell
//!   is appended as one v5 row and flushed as it finishes, so a killed
//!   run leaves every finished cell in the file; [`Journal::open`] drops
//!   the torn final line such a kill can leave, and [`load_cache`] then
//!   reads the file as usual.

use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use ace_net::TopologySpec;
use ace_system::{EngineKind, RunConditions, SystemConfig};

use crate::fidelity::Tier;
use crate::grid::{PointKind, RunPoint};
use crate::report::Row;
use crate::runner::{Cache, Metrics};
use crate::scenario::{parse_op, WorkloadSel};

/// Magic + version header of the cache file format. The simulator
/// version is part of the header: cached rows are only "exactly what a
/// fresh run would produce" for the build that wrote them, so a cache
/// from a different simulator version is rejected instead of silently
/// serving stale results. Bump the workspace version whenever a change
/// alters simulation results.
pub const CACHE_HEADER: &str = concat!("# ace-sweep-cache v5 sim-", env!("CARGO_PKG_VERSION"));

/// Column names of the cache file (documentation line 2 of the file).
const COLUMNS: &str = "fidelity,kind,topology,engine,mem_gbps,comm_sms,sram_mb,fsms,\
                       op,payload_bytes,config,workload,iterations,optimized_embedding,serving,\
                       faults,contention,straggler,\
                       time_us,completion_cycles,gbps_per_npu,mem_traffic_bytes,network_bytes,\
                       compute_us,exposed_comm_us,past_schedules,ttft_p50_us,ttft_p95_us,\
                       ttft_p99_us,e2e_p50_us,e2e_p95_us,e2e_p99_us,goodput_rps,attr_compute,\
                       attr_network,attr_hbm,attr_dma,attr_bus,attr_proc,attr_other";

/// Serializes `cache` to the versioned file format, rows sorted for
/// byte-identical output across runs.
pub fn cache_to_string(cache: &Cache) -> String {
    // Every row lands in one buffer; the rows are then sorted by text.
    let mut row = Row::default();
    let mut rows = String::new();
    let mut spans: Vec<Range<usize>> = Vec::new();
    for (tier, p, m) in cache.entries() {
        write_row(&mut row, tier, &p, &m);
        let start = rows.len();
        rows.push_str(row.line());
        spans.push(start..rows.len());
    }
    spans.sort_unstable_by(|a, b| rows[a.clone()].cmp(&rows[b.clone()]));
    let mut out = String::with_capacity(CACHE_HEADER.len() + COLUMNS.len() + 4 + rows.len());
    out.push_str(CACHE_HEADER);
    out.push('\n');
    out.push_str("# ");
    out.push_str(COLUMNS);
    out.push('\n');
    for span in spans {
        out.push_str(&rows[span]);
    }
    out
}

/// Parses a cache file produced by [`cache_to_string`].
///
/// # Errors
///
/// Returns a message when the header/version does not match or any row is
/// malformed — a corrupt cache must fail loudly rather than silently
/// re-simulating (or worse, serving garbage).
pub fn cache_from_str(text: &str) -> Result<Cache, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(first) if first.trim() == CACHE_HEADER => {}
        Some(first) => {
            return Err(format!(
                "unsupported cache header '{first}' (expected '{CACHE_HEADER}')"
            ))
        }
        None => return Err("empty cache file".into()),
    }
    let cache = Cache::new();
    for (no, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (tier, point, metrics) =
            parse_row(line).map_err(|e| format!("cache line {}: {e}", no + 2))?;
        cache.insert_tier(tier, point, metrics);
    }
    Ok(cache)
}

/// Saves `cache` to `path` atomically: the bytes land in a temp file in
/// the same directory which is then renamed over `path`, so a concurrent
/// reader (or a crash mid-save) never observes a truncated cache.
///
/// # Errors
///
/// Returns the I/O error message on failure.
pub fn save_cache(cache: &Cache, path: impl AsRef<Path>) -> Result<(), String> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, cache_to_string(cache))
        .map_err(|e| format!("cannot write cache {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot replace cache {}: {e}", path.display())
    })
}

/// Loads a cache from `path`. A missing file yields an empty cache (the
/// first run of a fresh cache file); any other error is reported.
///
/// # Errors
///
/// Returns a message when the file exists but cannot be read or parsed.
pub fn load_cache(path: impl AsRef<Path>) -> Result<Cache, String> {
    let path = path.as_ref();
    match std::fs::read_to_string(path) {
        Ok(text) => cache_from_str(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Cache::new()),
        Err(e) => Err(format!("cannot read cache {}: {e}", path.display())),
    }
}

/// An `O_EXCL` advisory lock guarding a cache file: created with
/// `create_new` (so acquisition is atomic), holding the owner's identity,
/// and removed on drop. Two concurrent `sweep --cache-file` runs on the
/// same path fail fast with an error naming the holder instead of
/// silently interleaving saves.
///
/// The lock records `pid start_time` — the kernel start time defuses PID
/// reuse, where a dead holder's PID has been handed to an unrelated new
/// process that would otherwise pin the lock forever. Liveness is probed
/// via `/proc` where available; elsewhere a lock older than
/// [`STALE_LOCK_MAX_AGE`] is presumed abandoned. Either way a provably
/// (or plausibly) dead holder's lock is broken automatically — a crashed
/// run must not wedge the cache forever.
#[derive(Debug)]
pub struct CacheFileLock {
    path: PathBuf,
}

/// How long a lock may sit unprobeable (no `/proc`) before it is
/// presumed abandoned. Generous on purpose: breaking a live sweep's lock
/// corrupts saves, while an abandoned lock only delays the next run.
pub const STALE_LOCK_MAX_AGE: std::time::Duration = std::time::Duration::from_secs(24 * 60 * 60);

/// Kernel start time of `pid` in clock ticks since boot (`/proc/<pid>/
/// stat` field 22). `None` off Linux or when the process is gone.
fn proc_start_time_of(proc_root: &Path, pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(proc_root.join(pid.to_string()).join("stat")).ok()?;
    parse_proc_start_time(&text)
}

/// Extracts field 22 (`starttime`) from `/proc/<pid>/stat` contents. The
/// comm field (2) is an arbitrary process name that may itself contain
/// spaces and parentheses, so fields are counted after the *last* `)`.
fn parse_proc_start_time(stat: &str) -> Option<u64> {
    let rest = stat.rsplit_once(')')?.1;
    // After the comm field, `state` is overall field 3 → `starttime`
    // (field 22) is the 20th remaining field.
    rest.split_whitespace().nth(19)?.parse().ok()
}

/// Whether the lock at `path` with `contents` belongs to a holder that is
/// provably (or, absent `/proc`, plausibly) gone. Exposed to tests so
/// both probe paths are exercised regardless of the host platform.
fn lock_is_stale(path: &Path, contents: &str, proc_root: Option<&Path>) -> bool {
    let mut fields = contents.split_whitespace();
    let Some(pid) = fields.next().and_then(|s| s.parse::<u32>().ok()) else {
        // An unreadable holder record cannot be assessed; never break it.
        return false;
    };
    let recorded_start = fields.next().and_then(|s| s.parse::<u64>().ok());
    match proc_root {
        Some(root) => match proc_start_time_of(root, pid) {
            // No such process: the holder is dead.
            None => !root.join(pid.to_string()).exists(),
            Some(live_start) => match recorded_start {
                // Start times disagree: the PID was reused by an
                // unrelated process after the holder died.
                Some(want) => want != live_start,
                // Old single-line lock format: the PID exists, and
                // without a recorded start time reuse cannot be proven.
                None => false,
            },
        },
        // No `/proc`: fall back to lock age.
        None => std::fs::metadata(path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age > STALE_LOCK_MAX_AGE),
    }
}

impl CacheFileLock {
    /// Acquires the lock for `cache_path` (the lock file is
    /// `<cache_path>.lock`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the holder PID when the lock is already
    /// taken by a live process, or the I/O error on failure.
    pub fn acquire(cache_path: impl AsRef<Path>) -> Result<CacheFileLock, String> {
        let mut os = cache_path.as_ref().as_os_str().to_owned();
        os.push(".lock");
        let path = PathBuf::from(os);
        let proc_root = Path::new("/proc");
        let proc_root = proc_root.is_dir().then_some(proc_root);
        for attempt in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let pid = std::process::id();
                    match proc_root.and_then(|root| proc_start_time_of(root, pid)) {
                        Some(start) => {
                            let _ = writeln!(f, "{pid} {start}");
                        }
                        None => {
                            let _ = writeln!(f, "{pid}");
                        }
                    }
                    return Ok(CacheFileLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let contents = std::fs::read_to_string(&path).unwrap_or_default();
                    if attempt == 0 && lock_is_stale(&path, &contents, proc_root) {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    let holder = contents
                        .split_whitespace()
                        .next()
                        .and_then(|s| s.parse::<u32>().ok())
                        .map(|pid| format!("pid {pid}"))
                        .unwrap_or_else(|| "unknown pid".to_string());
                    return Err(format!(
                        "cache file is locked by another sweep ({holder}); remove {} if that \
                         process is gone",
                        path.display()
                    ));
                }
                Err(e) => return Err(format!("cannot create lock {}: {e}", path.display())),
            }
        }
        unreachable!("second attempt either acquires or errors")
    }

    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for CacheFileLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A cache file opened for append.
///
/// Rows use the v5 cache format, so the file stays loadable by plain
/// [`load_cache`]. Appends are flushed per row — a SIGKILL between
/// flushes loses at most the torn final line, which [`Journal::open`]
/// truncates away the next time.
#[derive(Debug)]
pub struct Journal {
    file: std::fs::File,
    path: PathBuf,
    row: Row,
}

impl Journal {
    /// Opens (or creates) the cache file at `path` for appending. An
    /// existing file must carry the current [`CACHE_HEADER`]; a torn
    /// final line (no trailing newline) is truncated away, and a file
    /// left empty gets a fresh header.
    ///
    /// # Errors
    ///
    /// Returns a message when the file exists with a foreign header (a
    /// cache written by a different simulator version cannot be reused)
    /// or on I/O failure.
    pub fn open(path: impl AsRef<Path>) -> Result<Journal, String> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open cache {}: {e}", path.display()))?;
        let mut text = String::new();
        file.read_to_string(&mut text)
            .map_err(|e| format!("cannot read cache {}: {e}", path.display()))?;
        if let Some(first) = text.lines().next() {
            if first.trim() != CACHE_HEADER {
                return Err(format!(
                    "cache {} has header '{first}' (expected '{CACHE_HEADER}'); \
                     it cannot be reused by this build — move it aside",
                    path.display()
                ));
            }
        }
        if !text.ends_with('\n') {
            // Torn tail from a kill mid-append: drop the fragment. Appends
            // land at the end of the file whatever the cursor position.
            text.truncate(text.rfind('\n').map_or(0, |i| i + 1));
            file.set_len(text.len() as u64)
                .map_err(|e| format!("cannot truncate cache {}: {e}", path.display()))?;
        }
        if text.is_empty() {
            append(&mut file, &path, &format!("{CACHE_HEADER}\n# {COLUMNS}\n"))?;
        }
        Ok(Journal {
            file,
            path,
            row: Row::default(),
        })
    }

    /// Appends one cell result and flushes it.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message on failure.
    pub fn append_row(
        &mut self,
        tier: Tier,
        point: &RunPoint,
        metrics: &Metrics,
    ) -> Result<(), String> {
        write_row(&mut self.row, tier, point, metrics);
        append(&mut self.file, &self.path, self.row.line())
    }
}

/// Appends `text` to the cache file `file` (at `path`) and flushes it.
fn append(file: &mut std::fs::File, path: &Path, text: &str) -> Result<(), String> {
    file.write_all(text.as_bytes())
        .and_then(|()| file.flush())
        .map_err(|e| format!("cannot append to cache {}: {e}", path.display()))
}

/// Writes one cache row: the tier, the point-identity cells (the next
/// 17 columns) and the metric cells (the last 22). The attribution total
/// is elided: it equals `completion_cycles` in every execution path, and
/// the loader reconstructs it from there.
fn write_row(row: &mut Row, tier: Tier, p: &RunPoint, m: &Metrics) {
    row.clear();
    row.display(tier);
    match &p.kind {
        PointKind::Collective {
            engine,
            op,
            payload_bytes,
        } => {
            row.text("collective");
            row.display(p.topology);
            match *engine {
                EngineKind::Ideal => {
                    row.text("ideal");
                    row.empty(4);
                }
                EngineKind::Baseline {
                    comm_mem_gbps,
                    comm_sms,
                } => {
                    row.text("baseline");
                    row.display(comm_mem_gbps);
                    row.display(comm_sms);
                    row.empty(2);
                }
                EngineKind::Ace {
                    dma_mem_gbps,
                    sram_mb,
                    fsms,
                } => {
                    row.text("ace");
                    row.display(dma_mem_gbps);
                    row.empty(1);
                    row.display(sram_mb);
                    row.display(fsms);
                }
            }
            row.display(op);
            row.display(payload_bytes);
            // config … serving
            row.empty(5);
        }
        PointKind::Training {
            config,
            workload,
            iterations,
            optimized_embedding,
        } => {
            row.text("training");
            row.display(p.topology);
            // engine … payload_bytes
            row.empty(7);
            row.display(config);
            row.display(workload);
            row.display(iterations);
            row.text(if *optimized_embedding { "1" } else { "0" });
            row.empty(1);
        }
        PointKind::Serving {
            config,
            workload,
            spec,
        } => {
            row.text("serving");
            row.display(p.topology);
            row.empty(7);
            row.display(config);
            row.display(workload);
            row.empty(2);
            row.text(&spec.cache_key());
        }
    }
    row.display(&p.conditions.faults);
    row.display(p.conditions.contention);
    row.display(p.conditions.straggler);
    row.display(m.time_us);
    row.display(m.completion_cycles);
    row.display(m.gbps_per_npu);
    row.display(m.mem_traffic_bytes);
    row.display(m.network_bytes);
    row.display(m.compute_us);
    row.display(m.exposed_comm_us);
    row.display(m.past_schedules);
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
        row.display(v);
    }
    for (_, cycles) in m.attribution.buckets() {
        row.display(cycles);
    }
}

fn parse_row(line: &str) -> Result<(Tier, RunPoint, Metrics), String> {
    let cells: Vec<&str> = line.split(',').collect();
    if cells.len() != 40 {
        return Err(format!("expected 40 cells, found {}", cells.len()));
    }
    let tier = cells[0].parse::<Tier>()?;
    let cells = &cells[1..];
    let topology = parse_topology(cells[1])?;
    let kind = match cells[0] {
        "collective" => {
            let engine = match cells[2] {
                "ideal" => EngineKind::Ideal,
                "baseline" => EngineKind::Baseline {
                    comm_mem_gbps: parse_f64(cells[3], "mem_gbps")?,
                    comm_sms: parse_u32(cells[4], "comm_sms")?,
                },
                "ace" => EngineKind::Ace {
                    dma_mem_gbps: parse_f64(cells[3], "mem_gbps")?,
                    sram_mb: parse_int(cells[5], "sram_mb")?,
                    fsms: parse_int(cells[6], "fsms")? as usize,
                },
                other => return Err(format!("unknown engine '{other}'")),
            };
            PointKind::Collective {
                engine,
                op: parse_op(cells[7])?,
                payload_bytes: parse_int(cells[8], "payload_bytes")?,
            }
        }
        "training" => PointKind::Training {
            config: cells[9].parse::<SystemConfig>()?,
            workload: WorkloadSel::from_cache_key(cells[10])?,
            iterations: parse_u32(cells[11], "iterations")?,
            optimized_embedding: match cells[12] {
                "1" => true,
                "0" => false,
                other => return Err(format!("bad optimized_embedding '{other}'")),
            },
        },
        "serving" => PointKind::Serving {
            config: cells[9].parse::<SystemConfig>()?,
            workload: WorkloadSel::from_cache_key(cells[10])?,
            spec: ace_serve::ServingSpec::from_cache_key(cells[13])?,
        },
        other => return Err(format!("unknown point kind '{other}'")),
    };
    let conditions = RunConditions {
        faults: cells[14].parse().map_err(|e| format!("faults: {e}"))?,
        contention: cells[15].parse().map_err(|e| format!("contention: {e}"))?,
        straggler: cells[16].parse().map_err(|e| format!("straggler: {e}"))?,
    };
    let completion_cycles = parse_int(cells[18], "completion_cycles")?;
    let metrics = Metrics {
        time_us: parse_f64(cells[17], "time_us")?,
        completion_cycles,
        gbps_per_npu: parse_f64(cells[19], "gbps_per_npu")?,
        mem_traffic_bytes: parse_int(cells[20], "mem_traffic_bytes")?,
        network_bytes: parse_int(cells[21], "network_bytes")?,
        compute_us: parse_f64(cells[22], "compute_us")?,
        exposed_comm_us: parse_f64(cells[23], "exposed_comm_us")?,
        past_schedules: parse_int(cells[24], "past_schedules")?,
        serving: crate::runner::ServingMetrics {
            ttft_p50_us: parse_f64(cells[25], "ttft_p50_us")?,
            ttft_p95_us: parse_f64(cells[26], "ttft_p95_us")?,
            ttft_p99_us: parse_f64(cells[27], "ttft_p99_us")?,
            e2e_p50_us: parse_f64(cells[28], "e2e_p50_us")?,
            e2e_p95_us: parse_f64(cells[29], "e2e_p95_us")?,
            e2e_p99_us: parse_f64(cells[30], "e2e_p99_us")?,
            goodput_rps: parse_f64(cells[31], "goodput_rps")?,
        },
        attribution: ace_trace::Attribution {
            total_cycles: completion_cycles,
            compute_cycles: parse_int(cells[32], "attr_compute")?,
            network_cycles: parse_int(cells[33], "attr_network")?,
            hbm_cycles: parse_int(cells[34], "attr_hbm")?,
            dma_cycles: parse_int(cells[35], "attr_dma")?,
            bus_cycles: parse_int(cells[36], "attr_bus")?,
            proc_cycles: parse_int(cells[37], "attr_proc")?,
            other_cycles: parse_int(cells[38], "attr_other")?,
        },
    };
    Ok((
        tier,
        RunPoint {
            topology,
            conditions,
            kind,
        },
        metrics,
    ))
}

fn parse_topology(s: &str) -> Result<TopologySpec, String> {
    s.parse::<TopologySpec>()
}

fn parse_f64(s: &str, what: &str) -> Result<f64, String> {
    s.parse::<f64>()
        .map_err(|_| format!("bad {what} '{s}'"))
        .and_then(|v| {
            if v.is_finite() {
                Ok(v)
            } else {
                Err(format!("non-finite {what} '{s}'"))
            }
        })
}

fn parse_int(s: &str, what: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| format!("bad {what} '{s}'"))
}

/// [`parse_int`], refusing values above `u32::MAX` instead of narrowing
/// them onto another cell's key.
fn parse_u32(s: &str, what: &str) -> Result<u32, String> {
    u32::try_from(parse_int(s, what)?).map_err(|_| format!("{what} '{s}' is above {}", u32::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_scenario, RunnerOptions, SweepRunner};
    use crate::scenario::{EngineFamily, Scenario};

    fn tiny_collective() -> Scenario {
        let mut sc = Scenario::collective("persist-test");
        sc.topologies = vec![TopologySpec::torus3(2, 1, 1).unwrap()];
        sc.engines = vec![EngineFamily::Ideal, EngineFamily::Baseline];
        sc.payload_bytes = vec![256 * 1024];
        sc.mem_gbps = vec![128.0, 450.0];
        sc.comm_sms = vec![6];
        sc
    }

    #[test]
    fn cache_round_trips_byte_exactly() {
        let runner = SweepRunner::new();
        let sc = tiny_collective();
        runner
            .run(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let text = cache_to_string(runner.cache());
        let reloaded = cache_from_str(&text).unwrap();
        assert_eq!(reloaded.len(), runner.cache().len());
        // Every metric (f64s included) survives the text round-trip.
        for (t, p, m) in runner.cache().entries() {
            assert_eq!(reloaded.get_tier(t, &p), Some(m), "lost {p:?}");
        }
        // Save → load → save is byte-identical (sorted rows, shortest
        // round-trip floats).
        assert_eq!(cache_to_string(&reloaded), text);
    }

    #[test]
    fn training_points_round_trip() {
        let mut sc = Scenario::training("persist-training");
        sc.topologies = vec![TopologySpec::torus3(2, 1, 1).unwrap()];
        sc.configs = vec![ace_system::SystemConfig::Ace];
        sc.workloads = vec![WorkloadSel::builtin(
            ace_workloads::BuiltinWorkload::Resnet50,
        )];
        sc.iterations = 1;
        let runner = SweepRunner::new();
        runner
            .run(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let text = cache_to_string(runner.cache());
        let reloaded = cache_from_str(&text).unwrap();
        for (t, p, m) in runner.cache().entries() {
            assert_eq!(reloaded.get_tier(t, &p), Some(m));
        }
    }

    #[test]
    fn serving_points_round_trip() {
        let mut sc = Scenario::serving("persist-serving");
        sc.topologies = vec![TopologySpec::torus3(2, 1, 1).unwrap()];
        sc.arrival_rates = vec![800.0];
        sc.schedules = vec![
            ace_workloads::PipeSchedule::GPipe,
            ace_workloads::PipeSchedule::OneFOneB,
        ];
        sc.microbatches = vec![2];
        sc.stages = 2;
        sc.requests = 3;
        sc.decode_tokens = 1;
        sc.token_budget = 128;
        let runner = SweepRunner::new();
        runner
            .run(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let text = cache_to_string(runner.cache());
        let reloaded = cache_from_str(&text).unwrap();
        for (t, p, m) in runner.cache().entries() {
            // The serving latency f64s survive via shortest round-trip
            // formatting, the spec via its cache key.
            assert_eq!(reloaded.get_tier(t, &p), Some(m));
        }
        assert_eq!(cache_to_string(&reloaded), text);
    }

    #[test]
    fn reloaded_cache_serves_every_point() {
        // The cross-process scenario: run → save → (new process) load →
        // run again; the second run simulates nothing.
        let first = SweepRunner::new();
        let sc = tiny_collective();
        let out1 = first
            .run(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(out1.executed > 0);
        let text = cache_to_string(first.cache());

        let second = SweepRunner::with_cache(cache_from_str(&text).unwrap());
        let out2 = second
            .run(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(out2.executed, 0, "warm cache must serve every point");
        assert!(out2.results.iter().all(|r| r.cache_hit));
        for (a, b) in out1.results.iter().zip(&out2.results) {
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn cross_topology_cache_round_trip() {
        // Cache keys must incorporate the topology axis: a 16-node
        // switch, a 16-node torus and a 16-node hierarchical fabric are
        // distinct points even with every other coordinate equal, and a
        // `switch` row must never be served for a `torus` query.
        let mut sc = Scenario::collective("cross-topology");
        sc.topologies = vec![
            TopologySpec::torus3(4, 2, 2).unwrap(),
            "4x4".parse().unwrap(),
            "switch:16".parse().unwrap(),
            "switch:16@100".parse().unwrap(),
            "hier:4x4".parse().unwrap(),
        ];
        sc.engines = vec![EngineFamily::Ideal];
        sc.payload_bytes = vec![64 * 1024];
        let runner = SweepRunner::new();
        let out = runner
            .run(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        // Five same-size fabrics, five distinct simulations.
        assert_eq!(out.executed, 5);
        let times: std::collections::HashSet<u64> = out
            .results
            .iter()
            .map(|r| r.metrics.completion_cycles)
            .collect();
        assert!(times.len() >= 4, "topologies must simulate differently");

        // Round-trip through the text format preserves every key exactly.
        let text = cache_to_string(runner.cache());
        for spelling in ["4x2x2", "4x4", "switch:16", "switch:16@100", "hier:4x4"] {
            assert!(text.contains(spelling), "cache file lost '{spelling}'");
        }
        let reloaded = cache_from_str(&text).unwrap();
        assert_eq!(reloaded.len(), runner.cache().len());
        for (t, p, m) in runner.cache().entries() {
            assert_eq!(reloaded.get_tier(t, &p), Some(m), "lost {p:?}");
        }
        // A switch point never hits a torus entry: querying the reloaded
        // cache with the same coordinates but a different topology misses.
        let torus_point = out.results[0].point.clone();
        let mut cross = torus_point.clone();
        cross.topology = "switch:16".parse().unwrap();
        assert_ne!(reloaded.get_tier(Tier::Exact, &torus_point), None);
        assert_ne!(
            reloaded.get_tier(Tier::Exact, &torus_point),
            reloaded.get_tier(Tier::Exact, &cross),
            "switch and torus rows must not alias"
        );
        // And a warm rerun of the full grid simulates nothing.
        let warm = SweepRunner::with_cache(reloaded);
        let again = warm
            .run(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(again.executed, 0);
    }

    #[test]
    fn version_and_corruption_are_rejected() {
        assert!(cache_from_str("").is_err());
        assert!(cache_from_str("# ace-sweep-cache v999\n").is_err());
        // The v1 (pre-fidelity) format is a different schema: rejected.
        assert!(cache_from_str("# ace-sweep-cache v1 sim-0.1.0\n").is_err());
        // So is v2 (pre-attribution): fewer metric cells per row.
        assert!(cache_from_str("# ace-sweep-cache v2 sim-0.1.0\n").is_err());
        // And v3 (pre-serving): no serving spec column, 29-cell rows. The
        // header alone must reject it even before any row is seen.
        let v3_header = concat!("# ace-sweep-cache v3 sim-", env!("CARGO_PKG_VERSION"));
        let e = cache_from_str(&format!("{v3_header}\n")).unwrap_err();
        assert!(e.contains("v3"), "v3 rejection must name the header: {e}");
        // And v4 (pre-fault-conditions): no faults/contention/straggler
        // identity cells — a degraded row could alias a pristine one.
        let v4_header = concat!("# ace-sweep-cache v4 sim-", env!("CARGO_PKG_VERSION"));
        let e = cache_from_str(&format!("{v4_header}\n")).unwrap_err();
        assert!(e.contains("v4"), "v4 rejection must name the header: {e}");
        // A v4-shaped row under a forged v5 header still fails the cell
        // count — stale narrow rows can never parse as v5.
        let forged = format!(
            "{CACHE_HEADER}\nexact,collective,2x1x1,ideal,,,,,all-reduce,1024,,,,,\
             1,1,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0\n"
        );
        let e = cache_from_str(&forged).unwrap_err();
        assert!(e.contains("expected 40 cells"), "{e}");
        // A cache written by a different simulator version must not be
        // served: results are only reproducible within one build.
        assert!(cache_from_str("# ace-sweep-cache v1 sim-0.0.0\n").is_err());
        let bad_row = format!("{CACHE_HEADER}\nnot-a-row\n");
        assert!(cache_from_str(&bad_row).is_err());
        let short_row = format!("{CACHE_HEADER}\nexact,collective,2x1x1,ideal\n");
        assert!(cache_from_str(&short_row).is_err());
        // 2^32 + 6 SMs must be refused, not narrowed onto the 6-SM cell's
        // key and served as its result.
        let wide_sms = format!(
            "{CACHE_HEADER}\nexact,collective,2x2,baseline,450,4294967302,,,all-reduce,1048576,\
             ,,,,,none,none,det,15.325301204819278,11111,102.63184905660377,4980736,6291456,\
             0,0,0,0,0,0,0,0,0,0,0,10510,4199,0,2704,1667,0\n"
        );
        let e = cache_from_str(&wide_sms).unwrap_err();
        assert!(e.contains("comm_sms '4294967302'"), "{e}");
        let e = cache_from_str(&wide_sms.replace(",450,4294967302,", ",450,6,")).map(|c| c.len());
        assert_eq!(e, Ok(1), "the same row with 6 SMs loads");
        // Valid header + comments + blank lines parse as empty.
        let empty = format!("{CACHE_HEADER}\n# comment\n\n");
        assert_eq!(cache_from_str(&empty).unwrap().len(), 0);
    }

    #[test]
    fn file_round_trip_via_paths() {
        let dir = std::env::temp_dir().join("ace-sweep-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.csv");
        let _ = std::fs::remove_file(&path);
        // Missing file loads as empty.
        assert!(load_cache(&path).unwrap().is_empty());
        let runner = SweepRunner::new();
        runner
            .run(
                &tiny_collective(),
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        save_cache(runner.cache(), &path).unwrap();
        let loaded = load_cache(&path).unwrap();
        assert_eq!(loaded.len(), runner.cache().len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn saves_are_atomic_and_leave_no_temp_files() {
        let dir = std::env::temp_dir().join("ace-sweep-atomic-save-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.csv");
        let runner = SweepRunner::new();
        runner
            .run(
                &tiny_collective(),
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        save_cache(runner.cache(), &path).unwrap();
        save_cache(runner.cache(), &path).unwrap(); // overwrite in place
        assert_eq!(load_cache(&path).unwrap().len(), runner.cache().len());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_lock_excludes_and_names_the_holder() {
        let dir = std::env::temp_dir().join("ace-sweep-lock-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.csv");
        let lock = CacheFileLock::acquire(&path).unwrap();
        assert!(lock.path().exists());
        let err = CacheFileLock::acquire(&path).unwrap_err();
        assert!(
            err.contains(&format!("pid {}", std::process::id())),
            "error must name the holder: {err}"
        );
        drop(lock);
        // Released on drop: a second acquisition succeeds.
        let again = CacheFileLock::acquire(&path).unwrap();
        drop(again);
        assert!(!dir.join("cache.csv.lock").exists());
    }

    #[test]
    fn stale_locks_from_dead_processes_are_broken() {
        if !std::path::Path::new("/proc").is_dir() {
            return; // liveness probe needs procfs
        }
        let dir = std::env::temp_dir().join("ace-sweep-stale-lock-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.csv");
        // Forge a lock held by a PID that cannot exist.
        std::fs::write(dir.join("cache.csv.lock"), "4194304999\n").unwrap();
        let lock = CacheFileLock::acquire(&path).expect("stale lock must be broken");
        drop(lock);
    }

    #[test]
    fn pid_reuse_is_detected_via_start_time() {
        if !std::path::Path::new("/proc").is_dir() {
            return; // liveness probe needs procfs
        }
        let dir = std::env::temp_dir().join("ace-sweep-pid-reuse-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.csv");
        // Forge a lock from a "previous" holder whose PID has since been
        // handed to this very process: the PID is alive but the recorded
        // start time cannot match, so the lock must be treated as stale.
        std::fs::write(
            dir.join("cache.csv.lock"),
            format!("{} 1\n", std::process::id()),
        )
        .unwrap();
        let lock = CacheFileLock::acquire(&path).expect("reused-PID lock must be broken");
        drop(lock);
        // Whereas the same live PID with *no* recorded start time (the
        // old lock format) cannot be proven reused, so it is respected.
        std::fs::write(
            dir.join("cache.csv.lock"),
            format!("{}\n", std::process::id()),
        )
        .unwrap();
        let err = CacheFileLock::acquire(&path).unwrap_err();
        assert!(
            err.contains(&format!("pid {}", std::process::id())),
            "{err}"
        );
        std::fs::remove_file(dir.join("cache.csv.lock")).unwrap();
    }

    #[test]
    fn lock_age_fallback_breaks_only_old_locks() {
        // The portable path (no /proc): a fresh lock is respected, one
        // older than STALE_LOCK_MAX_AGE is presumed abandoned.
        let dir = std::env::temp_dir().join("ace-sweep-lock-age-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.csv.lock");
        std::fs::write(&path, "12345 99\n").unwrap();
        assert!(
            !lock_is_stale(&path, "12345 99", None),
            "a fresh lock must be respected without a liveness probe"
        );
        let old = std::time::SystemTime::now() - 2 * STALE_LOCK_MAX_AGE;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(old))
            .unwrap();
        assert!(
            lock_is_stale(&path, "12345 99", None),
            "an ancient unprobeable lock must be presumed abandoned"
        );
        // Garbage holder records are never broken, regardless of age.
        assert!(!lock_is_stale(&path, "not-a-pid", None));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn proc_stat_start_time_parses_hostile_comm_names() {
        // comm (field 2) is attacker-ish: it may contain spaces and even
        // `)` — fields must be counted after the LAST closing paren.
        let stat = "123 (a b) c) S 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 42 99";
        assert_eq!(parse_proc_start_time(stat), Some(42));
        assert_eq!(parse_proc_start_time("garbage"), None);
        assert_eq!(parse_proc_start_time("1 (short) S 0"), None);
        // A real self-probe agrees with the recorded identity.
        if std::path::Path::new("/proc").is_dir() {
            let mine = proc_start_time_of(std::path::Path::new("/proc"), std::process::id());
            assert!(mine.is_some(), "self start time must be readable");
        }
    }

    #[test]
    fn journal_truncates_torn_tails_and_resumes() {
        let dir = std::env::temp_dir().join("ace-sweep-journal-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.cache");
        let _ = std::fs::remove_file(&path);

        let runner = SweepRunner::new();
        runner
            .run(
                &tiny_collective(),
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let entries = runner.cache().entries();
        let mut journal = Journal::open(&path).unwrap();
        for (t, p, m) in &entries {
            journal.append_row(*t, p, m).unwrap();
        }
        drop(journal);
        // The appended file is a valid cache file as-is.
        assert_eq!(load_cache(&path).unwrap().len(), entries.len());

        // Simulate a SIGKILL mid-append: chop the file mid-row.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();

        // Re-opening drops only the torn row and keeps appends well-formed.
        let mut journal = Journal::open(&path).unwrap();
        let kept = load_cache(&path).unwrap();
        assert_eq!(kept.len(), entries.len() - 1);
        let (t, p, m) = &entries[entries.len() - 1];
        assert_eq!(kept.get_tier(*t, p), None, "the torn row must not load");
        journal.append_row(*t, p, m).unwrap();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        let recovered = load_cache(&path).unwrap();
        for (t, p, m) in &entries {
            assert_eq!(recovered.get_tier(*t, p), Some(*m));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_rejects_foreign_headers() {
        let dir = std::env::temp_dir().join("ace-sweep-journal-header-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.cache");
        // A foreign file is refused before anything is truncated, torn
        // final line included.
        let foreign = "# ace-sweep-cache v1 sim-0.0.0\nexact,collective";
        std::fs::write(&path, foreign).unwrap();
        assert!(Journal::open(&path).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), foreign);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn warm_outcome_matches_cold_except_cache_flags() {
        let sc = tiny_collective();
        let cold = run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let runner = SweepRunner::new();
        let _ = runner
            .run(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let text = cache_to_string(runner.cache());
        let warm = SweepRunner::with_cache(cache_from_str(&text).unwrap())
            .run(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(cold.results.len(), warm.results.len());
        for (c, w) in cold.results.iter().zip(&warm.results) {
            assert_eq!(c.point, w.point);
            assert_eq!(c.metrics, w.metrics);
            assert_eq!(c.speedup_vs_baseline, w.speedup_vs_baseline);
            assert!(w.cache_hit, "warm rows must be served from the cache");
        }
    }
}
