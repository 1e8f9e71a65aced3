//! Daemon lifecycle integration tests: the wire protocol over a real
//! socketpair, crash-resume from a truncated journal, and coalescing of
//! same-name submissions.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;

use ace_sweep::protocol::{self, parse_object, Request, Value};
use ace_sweep::{
    report, run_scenario, BusEvent, RunnerOptions, Scenario, ServiceOptions, SweepService,
    CACHE_HEADER,
};

const TINY_TOML: &str = r#"
name = "it-tiny"
mode = "collective"
topologies = ["2x1x1"]
engines = ["ideal", "baseline"]
ops = ["all-reduce"]
payloads = ["256KB"]
mem_gbps = [128, 450]
comm_sms = [6]
"#;

/// A unique scratch path under the system temp dir (std-only; no tempfile
/// crate). The `#[test]` harness runs each test in its own thread, so the
/// thread id disambiguates parallel tests within one process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ace-sweep-it-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Blanks the cache_hit column (second-to-last) of every CSV row: a
/// resumed grid serves replayed cells from cache, so its hit flags differ
/// from a cold run even though every metric byte matches.
fn strip_cache_hit(csv: &str) -> String {
    csv.lines()
        .map(|line| {
            let mut cells: Vec<&str> = line.split(',').collect();
            let n = cells.len();
            if n >= 2 {
                cells[n - 2] = "_";
            }
            cells.join(",")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn protocol_round_trips_over_a_real_socketpair() {
    let service = Arc::new(
        SweepService::open(ServiceOptions {
            threads: 1,
            journal: None,
        })
        .unwrap(),
    );
    let (client, server) = UnixStream::pair().unwrap();
    let handle = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let reader = server.try_clone().unwrap();
            service.serve_stream(reader, server).unwrap();
        })
    };

    let mut writer = client.try_clone().unwrap();
    let mut reader = BufReader::new(client);
    let read_map = |reader: &mut BufReader<UnixStream>| {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        parse_object(line.trim_end()).unwrap()
    };

    // Submit by path, exactly as the CLI's default mode does.
    let scenario_path = scratch("it-tiny.toml");
    std::fs::write(&scenario_path, TINY_TOML).unwrap();
    let request = protocol::request_line(&Request::Submit {
        toml: None,
        path: Some(scenario_path.to_string_lossy().into_owned()),
        base: None,
        threads: None,
        fidelity: None,
    });
    writeln!(writer, "{request}").unwrap();

    let mut events = Vec::new();
    let csv = loop {
        let map = read_map(&mut reader);
        let event = map["event"].as_str().unwrap().to_string();
        if event == "result" {
            break map["csv"].as_str().unwrap().to_string();
        }
        events.push(event);
    };
    assert_eq!(
        events,
        vec!["accepted", "batch", "cell", "cell", "cell", "finished", "stats"]
    );

    // The streamed CSV is byte-identical to the one-shot CLI's output.
    let sc = Scenario::from_toml_str(TINY_TOML).unwrap();
    let expected = report::to_csv(
        &run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    assert_eq!(csv, expected);

    // Stats and shutdown answer in-band on the same connection.
    writeln!(writer, "{}", protocol::request_line(&Request::Stats)).unwrap();
    let stats = read_map(&mut reader);
    assert_eq!(stats["event"], Value::Str("stats".into()));
    assert_eq!(stats["entries"], Value::Num(3.0));

    writeln!(writer, "{}", protocol::request_line(&Request::Shutdown)).unwrap();
    let bye = read_map(&mut reader);
    assert_eq!(bye["event"], Value::Str("shutdown".into()));
    handle.join().unwrap();
    assert!(service.is_shutdown());
}

#[test]
fn a_killed_daemon_resumes_mid_grid_from_the_journal() {
    // First life: run the grid to completion so the journal holds every
    // row, bracketed by #pending / #done.
    let full = scratch("full.journal");
    {
        let service = SweepService::open(ServiceOptions {
            threads: 1,
            journal: Some(full.clone()),
        })
        .unwrap();
        let request = protocol::request_line(&Request::Submit {
            toml: Some(TINY_TOML.into()),
            path: None,
            base: None,
            threads: None,
            fidelity: None,
        });
        let mut out = Vec::new();
        service
            .serve_stream(format!("{request}\n").as_bytes(), &mut out)
            .unwrap();
    }

    // Forge the moment of death: keep the header, the #pending record,
    // and the first executed row — as if SIGKILL landed after one cell
    // flushed. No #done, so the job is still open.
    let text = std::fs::read_to_string(&full).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].starts_with(CACHE_HEADER.lines().next().unwrap()));
    assert!(lines.last().unwrap().starts_with("#done "));
    let pending = lines
        .iter()
        .position(|l| l.starts_with("#pending "))
        .expect("journal records the open job");
    let rows: Vec<&str> = lines[pending + 1..lines.len() - 1].to_vec();
    assert_eq!(rows.len(), 3, "tiny grid executes 3 unique cells");
    let crashed = scratch("crashed.journal");
    let mut forged: Vec<&str> = lines[..=pending].to_vec();
    forged.push(rows[0]);
    std::fs::write(&crashed, format!("{}\n", forged.join("\n"))).unwrap();

    // Second life: the pending job is recovered and resumed; the one
    // journaled cell replays from cache, only the remainder executes.
    let mut service = SweepService::open(ServiceOptions {
        threads: 1,
        journal: Some(crashed.clone()),
    })
    .unwrap();
    assert_eq!(service.pending().len(), 1);
    assert_eq!(service.pending()[0].name, "it-tiny");
    let mut saw_batch_cached = 0usize;
    let results = service.resume_pending(|_, ev| {
        if let BusEvent::BatchStarted { cached, .. } = ev {
            saw_batch_cached = *cached;
        }
    });
    let (name, outcome) = &results[0];
    let outcome = outcome.as_ref().unwrap();
    assert_eq!(name, "it-tiny");
    assert_eq!(
        outcome.executed, 2,
        "one of three cells was already journaled"
    );
    assert_eq!(saw_batch_cached, 1);

    // The resumed CSV matches a cold one-shot byte-for-byte, modulo the
    // cache_hit flags of the replayed cells.
    let sc = Scenario::from_toml_str(TINY_TOML).unwrap();
    let cold = report::to_csv(
        &run_scenario(
            &sc,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    assert_eq!(
        strip_cache_hit(&report::to_csv(outcome)),
        strip_cache_hit(&cold)
    );

    // The finished resume closed the journal entry: a third life has
    // nothing pending and a fully warm cache.
    let service = SweepService::open(ServiceOptions {
        threads: 1,
        journal: Some(crashed),
    })
    .unwrap();
    assert!(service.pending().is_empty());
    assert_eq!(service.scheduler().cache().len(), 3);
}

#[test]
fn torn_journal_tail_is_dropped_on_resume() {
    // Run once to get a complete journal, then chop mid-row to simulate
    // SIGKILL landing inside a write.
    let path = scratch("torn.journal");
    {
        let service = SweepService::open(ServiceOptions {
            threads: 1,
            journal: Some(path.clone()),
        })
        .unwrap();
        let request = protocol::request_line(&Request::Submit {
            toml: Some(TINY_TOML.into()),
            path: None,
            base: None,
            threads: None,
            fidelity: None,
        });
        let mut out = Vec::new();
        service
            .serve_stream(format!("{request}\n").as_bytes(), &mut out)
            .unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

    // The chop ate the #done record's tail, so the job is pending again
    // and the resume completes it without tripping on the partial line.
    let mut service = SweepService::open(ServiceOptions {
        threads: 1,
        journal: Some(path),
    })
    .unwrap();
    assert_eq!(service.pending().len(), 1);
    let results = service.resume_pending(|_, _| {});
    assert!(results[0].1.is_ok());
}

#[test]
fn same_name_submissions_coalesce_to_the_latest_generation() {
    let service = SweepService::open(ServiceOptions {
        threads: 1,
        journal: None,
    })
    .unwrap();
    let scheduler = service.scheduler();
    let observer = scheduler.bus().subscribe();

    let scenario = Scenario::from_toml_str(TINY_TOML).unwrap();
    let stale = scheduler.accept(&scenario).unwrap();
    // Second submission of the same name supersedes the first before it
    // ever runs (a rapid-fire client, or a parameter tweak mid-queue).
    let fresh = scheduler.accept(&scenario).unwrap();
    assert!(fresh.generation > stale.generation);

    let mut sink = |_: &BusEvent| {};
    let err = scheduler
        .run_accepted(
            &stale,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
            &mut sink,
        )
        .unwrap_err();
    assert!(matches!(err, ace_sweep::JobError::Superseded));
    // Nothing of the stale generation executed.
    assert!(scheduler.cache().is_empty());

    let outcome = scheduler
        .run_accepted(
            &fresh,
            RunnerOptions {
                threads: 1,
                ..Default::default()
            },
            &mut sink,
        )
        .unwrap();
    assert_eq!(outcome.executed, 3);

    // Observers on the bus saw the supersession announcement.
    let mut saw_superseded = false;
    while let Some(ev) = observer.recv_timeout(std::time::Duration::from_secs(5)) {
        if let BusEvent::JobSuperseded { generation, .. } = ev {
            assert_eq!(generation, stale.generation);
            saw_superseded = true;
        }
        if matches!(ev, BusEvent::CacheStats { .. }) {
            break;
        }
    }
    assert!(saw_superseded);
}
