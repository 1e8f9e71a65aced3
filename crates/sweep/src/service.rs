//! The long-lived sweep daemon: `sweep serve`.
//!
//! A [`SweepService`] wraps one resident [`JobScheduler`] and speaks the
//! [`crate::protocol`] over any byte stream — a unix socket connection,
//! stdin/stdout, or a socketpair in tests. Submissions stream their
//! events back on the same connection and the `(tier, point)` cache,
//! compiled programs, and topology tables stay hot across submissions;
//! that warm path is the whole point of the daemon (see
//! `BENCH_executor.json`'s `serve_warm` entry).
//!
//! Crash safety: with a journal attached, every executed cell is flushed
//! to the write-ahead log before its completion event publishes, and each
//! submission brackets itself with `#pending` / `#done` records. A
//! daemon killed mid-grid restarts by [`SweepService::open`]: the journal
//! replays into the warm cache (so finished cells are never re-simulated)
//! and the unfinished jobs re-run to completion via
//! [`SweepService::resume_pending`].
//!
//! Socket conventions: the CLI defaults the socket path to
//! `<journal>.sock` next to the journal (or `ace-sweep.sock` in the
//! working directory without one); a stale socket file is unlinked before
//! binding, and the file is removed again on graceful shutdown.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::bus::BusEvent;
use crate::persist::{Journal, PendingJob};
use crate::protocol::{self, Request};
use crate::runner::{RunnerOptions, SweepOutcome};
use crate::scenario::Scenario;
use crate::scheduler::{JobError, JobScheduler};

/// How the daemon should execute jobs by default.
#[derive(Debug, Clone, Default)]
pub struct ServiceOptions {
    /// Default worker threads per job (`0` = machine parallelism);
    /// overridable per submission.
    pub threads: usize,
    /// Journal (write-ahead log) path; `None` disables checkpointing.
    pub journal: Option<PathBuf>,
}

/// The resident sweep service (see the [module docs](self)).
pub struct SweepService {
    scheduler: Arc<JobScheduler>,
    options: ServiceOptions,
    shutdown: Arc<AtomicBool>,
    pending: Vec<PendingJob>,
}

impl std::fmt::Debug for SweepService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepService")
            .field("scheduler", &self.scheduler)
            .field("options", &self.options)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl SweepService {
    /// Opens the service: replays the journal (if configured) into the
    /// scheduler's cache, attaches the journal for write-ahead logging,
    /// and records the jobs that never finished (run them with
    /// [`resume_pending`](SweepService::resume_pending)).
    ///
    /// # Errors
    ///
    /// Returns a message when the journal exists but cannot be replayed.
    pub fn open(options: ServiceOptions) -> Result<SweepService, String> {
        let (scheduler, pending) = match &options.journal {
            Some(path) => {
                let replay = Journal::replay(path)?;
                let scheduler = JobScheduler::with_cache(replay.cache);
                scheduler.set_journal(Some(Journal::open(path)?));
                (scheduler, replay.pending)
            }
            None => (JobScheduler::new(), Vec::new()),
        };
        Ok(SweepService {
            scheduler: Arc::new(scheduler),
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
            pending,
        })
    }

    /// The shared scheduler behind the service.
    pub fn scheduler(&self) -> &Arc<JobScheduler> {
        &self.scheduler
    }

    /// Jobs recovered from the journal that never logged `#done`.
    pub fn pending(&self) -> &[PendingJob] {
        &self.pending
    }

    /// Whether a shutdown request has been received.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful shutdown (also reachable over the wire).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Re-runs every pending job recovered from the journal. Cells the
    /// dead daemon already journaled are served from the replayed cache,
    /// so only the unfinished remainder of each grid actually executes.
    /// Returns `(name, result)` per job, in journal order.
    pub fn resume_pending(
        &mut self,
        mut on_event: impl FnMut(&str, &BusEvent),
    ) -> Vec<(String, Result<SweepOutcome, String>)> {
        let jobs = std::mem::take(&mut self.pending);
        let mut out = Vec::with_capacity(jobs.len());
        for job in jobs {
            let result = self.run_submission(
                &job.toml,
                job.base.as_deref().map(Path::new),
                None,
                None,
                &mut |ev| on_event(&job.name, ev),
            );
            out.push((job.name, result.map(|(_, o)| o).map_err(|e| e.to_string())));
        }
        out
    }

    /// Parses, journals, and runs one submission, streaming its events to
    /// `on_event`. The `#done` record is written only when the job
    /// completes or fails permanently — a superseded generation leaves
    /// the name pending for its successor to close out.
    fn run_submission(
        &self,
        toml: &str,
        base: Option<&Path>,
        threads: Option<usize>,
        fidelity: Option<crate::fidelity::Fidelity>,
        on_event: &mut dyn FnMut(&BusEvent),
    ) -> Result<(u64, SweepOutcome), JobError> {
        let mut scenario =
            Scenario::from_toml_str_at(toml, base).map_err(|e| JobError::Invalid(e.to_string()))?;
        if let Some(f) = fidelity {
            scenario.fidelity = f;
        }
        let ticket = self.scheduler.accept(&scenario)?;
        self.scheduler
            .with_journal(|j| j.append_pending(&scenario.name, toml, base.and_then(Path::to_str)));
        let opts = RunnerOptions {
            threads: threads.unwrap_or(self.options.threads),
            ..Default::default()
        };
        let result = self.scheduler.run_accepted(&ticket, opts, on_event);
        match &result {
            Ok(_) | Err(JobError::Failed(_)) | Err(JobError::Invalid(_)) => {
                // Completed or permanently failed: a restart must not
                // re-run it (a deterministic panic would loop forever).
                self.scheduler
                    .with_journal(|j| j.append_done(&scenario.name));
            }
            Err(JobError::Superseded) => {}
        }
        result.map(|outcome| (ticket.job, outcome))
    }

    /// Speaks the protocol on one byte stream until EOF or a `shutdown`
    /// request: the transport behind every connection type (socket,
    /// stdio, tests).
    ///
    /// # Errors
    ///
    /// Returns the I/O error message when the transport itself fails;
    /// per-request errors are reported in-band as `error` lines.
    pub fn serve_stream(
        &self,
        reader: impl std::io::Read,
        mut writer: impl Write,
    ) -> Result<(), String> {
        for line in BufReader::new(reader).lines() {
            let line = line.map_err(|e| format!("connection read: {e}"))?;
            if line.trim().is_empty() {
                continue;
            }
            let request = match protocol::parse_request(&line) {
                Ok(r) => r,
                Err(e) => {
                    write_line(&mut writer, &protocol::error_line(&e))?;
                    continue;
                }
            };
            match request {
                Request::Submit {
                    toml,
                    path,
                    base,
                    threads,
                    fidelity,
                } => {
                    // Resolve by-path submissions to (text, parent dir) so
                    // both spellings flow through the same journaled run.
                    let resolved = match (&toml, &path) {
                        (Some(t), None) => Ok((t.clone(), base.clone())),
                        (None, Some(p)) => std::fs::read_to_string(p)
                            .map(|text| {
                                let dir = Path::new(p)
                                    .parent()
                                    .filter(|d| !d.as_os_str().is_empty())
                                    .map(|d| d.to_string_lossy().into_owned());
                                (text, dir)
                            })
                            .map_err(|e| format!("cannot read scenario {p}: {e}")),
                        _ => Err("submit needs exactly one of toml/path".to_string()),
                    };
                    let (text, dir) = match resolved {
                        Ok(v) => v,
                        Err(e) => {
                            write_line(&mut writer, &protocol::error_line(&e))?;
                            continue;
                        }
                    };
                    let mut io_err: Option<String> = None;
                    let result = self.run_submission(
                        &text,
                        dir.as_deref().map(Path::new),
                        threads,
                        fidelity,
                        &mut |ev| {
                            if io_err.is_none() {
                                if let Some(line) = protocol::event_line(ev) {
                                    if let Err(e) = write_line(&mut writer, &line) {
                                        io_err = Some(e);
                                    }
                                }
                            }
                        },
                    );
                    if let Some(e) = io_err {
                        return Err(e);
                    }
                    match result {
                        Ok((job, outcome)) => {
                            let csv = crate::report::to_csv(&outcome);
                            write_line(&mut writer, &protocol::result_line(job, &csv))?;
                        }
                        // Superseded/failed already streamed their event
                        // lines through on_event; invalid scenarios get an
                        // explicit error line.
                        Err(JobError::Invalid(msg)) => {
                            write_line(&mut writer, &protocol::error_line(&msg))?;
                        }
                        Err(JobError::Superseded) | Err(JobError::Failed(_)) => {}
                    }
                }
                Request::Stats => {
                    let (entries, exact, analytic) = self.scheduler.cache().tier_counts();
                    let line = protocol::event_line(&BusEvent::CacheStats {
                        entries,
                        exact,
                        analytic,
                    })
                    .expect("stats always serializes");
                    write_line(&mut writer, &line)?;
                }
                Request::Shutdown => {
                    self.request_shutdown();
                    write_line(&mut writer, &protocol::shutdown_line())?;
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Binds `socket_path` and serves connections until a `shutdown`
    /// request arrives. Each connection runs on its own thread; a stale
    /// socket file is unlinked before binding and the socket is removed
    /// again on exit.
    ///
    /// # Errors
    ///
    /// Returns a message when the socket cannot be bound.
    pub fn serve_socket(self: &Arc<Self>, socket_path: impl AsRef<Path>) -> Result<(), String> {
        let socket_path = socket_path.as_ref();
        if socket_path.exists() {
            std::fs::remove_file(socket_path).map_err(|e| {
                format!("cannot remove stale socket {}: {e}", socket_path.display())
            })?;
        }
        let listener = UnixListener::bind(socket_path)
            .map_err(|e| format!("cannot bind {}: {e}", socket_path.display()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot configure {}: {e}", socket_path.display()))?;
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.is_shutdown() {
            match listener.accept() {
                Ok((stream, _)) => {
                    let service = Arc::clone(self);
                    handlers.push(
                        std::thread::Builder::new()
                            .name("ace-sweep-conn".into())
                            .spawn(move || service.handle_socket(stream))
                            .expect("spawn connection handler"),
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => {
                    eprintln!("sweep serve: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(socket_path);
        Ok(())
    }

    fn handle_socket(&self, stream: UnixStream) {
        let reader = match stream.try_clone() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sweep serve: cannot clone connection: {e}");
                return;
            }
        };
        if let Err(e) = self.serve_stream(reader, stream) {
            // A client hanging up mid-stream is routine, not fatal.
            eprintln!("sweep serve: connection ended: {e}");
        }
    }
}

fn write_line(writer: &mut impl Write, line: &str) -> Result<(), String> {
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| format!("connection write: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_object, Value};

    const TINY_TOML: &str = r#"
name = "svc-tiny"
mode = "collective"
topologies = ["2x1x1"]
engines = ["ideal", "baseline"]
ops = ["all-reduce"]
payloads = ["256KB"]
mem_gbps = [128, 450]
comm_sms = [6]
"#;

    fn service() -> SweepService {
        SweepService::open(ServiceOptions {
            threads: 1,
            journal: None,
        })
        .unwrap()
    }

    #[test]
    fn submit_streams_accepted_cells_finished_result() {
        let svc = service();
        let request = protocol::request_line(&Request::Submit {
            toml: Some(TINY_TOML.into()),
            path: None,
            base: None,
            threads: None,
            fidelity: None,
        });
        let mut out = Vec::new();
        svc.serve_stream(format!("{request}\n").as_bytes(), &mut out)
            .unwrap();
        let lines: Vec<String> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        let events: Vec<String> = lines
            .iter()
            .map(|l| {
                parse_object(l).unwrap()["event"]
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            events,
            vec!["accepted", "batch", "cell", "cell", "cell", "finished", "stats", "result"]
        );
        // The result line carries the one-shot CLI's CSV byte-for-byte.
        let map = parse_object(lines.last().unwrap()).unwrap();
        let csv = map["csv"].as_str().unwrap();
        let sc = Scenario::from_toml_str(TINY_TOML).unwrap();
        let expected = crate::report::to_csv(
            &crate::runner::run_scenario(
                &sc,
                RunnerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        assert_eq!(csv, expected);
    }

    #[test]
    fn stats_and_shutdown_respond_in_band() {
        let svc = service();
        let mut out = Vec::new();
        svc.serve_stream(
            "{\"cmd\":\"stats\"}\n{\"cmd\":\"shutdown\"}\n{\"cmd\":\"stats\"}\n".as_bytes(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // The third request is never served: shutdown closes the stream.
        assert_eq!(lines.len(), 2);
        let stats = parse_object(lines[0]).unwrap();
        assert_eq!(stats["entries"], Value::Num(0.0));
        let bye = parse_object(lines[1]).unwrap();
        assert_eq!(bye["event"], Value::Str("shutdown".into()));
        assert!(svc.is_shutdown());
    }

    #[test]
    fn bad_requests_get_error_lines_and_the_stream_survives() {
        let svc = service();
        let mut out = Vec::new();
        svc.serve_stream(
            "this is not json\n{\"cmd\":\"submit\"}\n{\"cmd\":\"stats\"}\n".as_bytes(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let events: Vec<String> = text
            .lines()
            .map(|l| {
                parse_object(l).unwrap()["event"]
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(events, vec!["error", "error", "stats"]);
    }

    #[test]
    fn invalid_scenarios_error_in_band() {
        let svc = service();
        let request = protocol::request_line(&Request::Submit {
            toml: Some("name = \"broken\"\nmode = \"collective\"\ntopologies = []\n".into()),
            path: None,
            base: None,
            threads: None,
            fidelity: None,
        });
        let mut out = Vec::new();
        svc.serve_stream(format!("{request}\n").as_bytes(), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let map = parse_object(text.lines().next().unwrap()).unwrap();
        assert_eq!(map["event"], Value::Str("error".into()));
    }

    #[test]
    fn warm_resubmission_serves_from_cache() {
        let svc = service();
        let request = protocol::request_line(&Request::Submit {
            toml: Some(TINY_TOML.into()),
            path: None,
            base: None,
            threads: None,
            fidelity: None,
        });
        let script = format!("{request}\n{request}\n");
        let mut out = Vec::new();
        svc.serve_stream(script.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let finished: Vec<_> = text
            .lines()
            .map(|l| parse_object(l).unwrap())
            .filter(|m| m["event"] == Value::Str("finished".into()))
            .collect();
        assert_eq!(finished.len(), 2);
        assert_eq!(finished[0]["executed"], Value::Num(3.0));
        // Second submission: the resident cache serves everything.
        assert_eq!(finished[1]["executed"], Value::Num(0.0));
        assert_eq!(finished[1]["cache_hits"], Value::Num(4.0));
    }
}
