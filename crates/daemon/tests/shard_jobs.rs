//! Supervised multi-process shard jobs (`"shard_procs":true`), end to
//! end: `run_job` parity against the in-process run, forwarded
//! per-shard events and supervisor counters, and a live daemon round
//! trip whose children crash on an armed failpoint, get respawned, and
//! still land a result bit-identical to the serial baseline.
//!
//! The worker executable must be the real `fastmond` binary (the test
//! harness binary has no `--shard-worker` intercept), so the test pins
//! `FASTMOND_SHARD_WORKER_BIN`. Environment knobs are process-global
//! and inherited by the spawned workers; everything runs in one test
//! body, strictly serialized.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use fastmon_daemon::job::{run_job, JobError, JobEvent};
use fastmon_daemon::proto::{CircuitSpec, JobRequest};
use fastmon_daemon::server::{Daemon, DaemonConfig};
use fastmon_daemon::shard::ENV_WORKER_BIN;
use fastmon_obs::json::{self, Value};
use fastmon_obs::{CancelToken, MetricsRegistry};

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fastmond-supervised-{tag}-{}-{}",
        std::process::id(),
        fastmon_obs::run_id(),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn request(shards: usize, shard_procs: bool) -> JobRequest {
    JobRequest {
        tenant: "t0".into(),
        name: "shardsup".into(),
        circuit: CircuitSpec::Profile {
            name: "s9234".into(),
            scale: 0.05,
            seed: 7,
        },
        sdf: None,
        coverage: 1.0,
        deadline_secs: None,
        pattern_budget: Some(24),
        max_faults: Some(120),
        seed: 1,
        threads: 1,
        shards,
        shard_procs,
    }
}

#[test]
fn supervised_jobs_match_the_serial_result_and_stream_shard_rows() {
    for key in ["FASTMON_FAILPOINTS", "FASTMON_SHARD_JOBS"] {
        std::env::remove_var(key);
    }
    std::env::set_var(ENV_WORKER_BIN, env!("CARGO_BIN_EXE_fastmond"));

    // ---- part 1: run_job parity, shard events, supervisor counters ----
    // (also initializes this process's lazy failpoint schedule as empty,
    // so arming FASTMON_FAILPOINTS later reaches only the workers)
    let root = tmp("direct");
    let dirs = fastmon_core::CheckpointDir::new(root.join("ckpt"));
    let cancel = CancelToken::new();
    let serial = run_job(
        &request(1, false),
        &dirs,
        &root.join("r-serial"),
        &cancel,
        None,
        &mut |_| {},
    )
    .unwrap();

    let registry = MetricsRegistry::new();
    let mut events = Vec::new();
    let supervised = run_job(
        &request(3, true),
        &dirs,
        &root.join("r-procs"),
        &cancel,
        Some(&registry),
        &mut |e| events.push(e),
    )
    .unwrap();
    assert_eq!(
        supervised.result_fingerprint, serial.result_fingerprint,
        "supervised shard_procs result must be bit-identical to serial"
    );
    // the campaign fingerprint ignores the shard layout too
    assert_eq!(supervised.fingerprint, serial.fingerprint);
    for shard in 0..3usize {
        assert!(
            events.iter().any(|e| matches!(
                e,
                JobEvent::Shard {
                    shard: s,
                    kind: "completed",
                    ..
                } if *s == shard
            )),
            "missing completed event for shard {shard}: {events:?}"
        );
    }
    assert!(events.iter().any(|e| matches!(
        e,
        JobEvent::Shard {
            kind: "spawned",
            ..
        }
    )));
    let sup = &registry.shardsup;
    assert_eq!(sup.shards_completed.get(), 3);
    assert!(sup.workers_spawned.get() >= 3);
    assert!(sup.heartbeats_received.get() > 0);
    let _ = std::fs::remove_dir_all(&root);

    // a bad supervisor knob is a typed spec error, not a crash
    std::env::set_var("FASTMON_SHARD_JOBS", "zero");
    let err = run_job(
        &request(2, true),
        &dirs,
        &root.join("r-bad"),
        &cancel,
        None,
        &mut |_| {},
    )
    .unwrap_err();
    std::env::remove_var("FASTMON_SHARD_JOBS");
    assert!(matches!(err, JobError::Spec { .. }), "got {err:?}");
    assert!(err.to_string().contains("zero"), "got {err}");
    // the settings are read before the job directory is acquired, so the
    // rejected job leaves no campaign directory behind
    let left: Vec<_> = std::fs::read_dir(dirs.root())
        .map(|entries| entries.map(|e| e.unwrap().file_name()).collect())
        .unwrap_or_default();
    assert!(left.is_empty(), "the rejected job left {left:?}");
    let _ = std::fs::remove_dir_all(&root);

    // ---- part 2: live daemon, children crash on an armed failpoint ----
    // Every first-attempt worker dies at band 2; the supervisor backs
    // off (200ms, its default) and respawns clean (it strips
    // FASTMON_FAILPOINTS), which both proves recovery over the wire and
    // holds the job in flight long enough for `observe` to catch the
    // per-shard rows.
    std::env::set_var("FASTMON_FAILPOINTS", "campaign_band=err@2");
    let root2 = tmp("daemon");
    let handle = Daemon::start(DaemonConfig::at(&root2)).unwrap();
    let addr = handle.addr();

    let (line_tx, line_rx) = channel::<String>();
    let submitter = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer
            .write_all(
                concat!(
                    r#"{"op":"submit","tenant":"t0","name":"procs","#,
                    r#""circuit":{"kind":"profile","name":"s9234","scale":0.05,"seed":7},"#,
                    r#""pattern_budget":24,"max_faults":120,"seed":1,"#,
                    r#""shards":2,"shard_procs":true}"#,
                    "\n"
                )
                .as_bytes(),
            )
            .unwrap();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap() == 0 {
                panic!("daemon closed the submit stream early");
            }
            let stop = line.contains("\"event\":\"terminal\"");
            line_tx.send(line).unwrap();
            if stop {
                return;
            }
        }
    });

    // Poll observe on a second connection until the per-shard rows show
    // up (the job stays in flight for at least the 200ms backoff).
    let obs_stream = TcpStream::connect(addr).unwrap();
    let mut obs_writer = obs_stream.try_clone().unwrap();
    let mut obs_reader = BufReader::new(obs_stream);
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut saw_rows = false;
    while !saw_rows && Instant::now() < deadline {
        obs_writer.write_all(b"{\"op\":\"observe\"}\n").unwrap();
        let mut line = String::new();
        obs_reader.read_line(&mut line).unwrap();
        let snap = json::parse(line.trim()).unwrap();
        for job in snap.get("jobs").and_then(Value::as_arr).unwrap_or(&[]) {
            if job
                .get("shards")
                .and_then(Value::as_arr)
                .is_some_and(|rows| !rows.is_empty())
            {
                saw_rows = true;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_rows, "observe never reported per-shard rows");

    submitter.join().unwrap();
    let lines: Vec<String> = line_rx.try_iter().collect();
    let terminal = json::parse(lines.last().unwrap().trim()).unwrap();
    assert_eq!(
        terminal.get("status").and_then(Value::as_str),
        Some("completed"),
        "terminal: {lines:?}"
    );
    // bit-identical to the serial baseline from part 1 (same campaign)
    assert_eq!(
        terminal.get("result_fingerprint").and_then(Value::as_str),
        Some(format!("{:016x}", serial.result_fingerprint).as_str())
    );
    // the stream carried shard records, including a charged respawn
    let shard_events: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"event\":\"shard\""))
        .collect();
    assert!(!shard_events.is_empty(), "no shard records streamed");
    assert!(
        shard_events
            .iter()
            .any(|l| l.contains("\"kind\":\"crashed\"")),
        "armed failpoint never crashed a worker: {shard_events:?}"
    );
    assert!(
        shard_events.iter().any(|l| l.contains("\"respawns\":1")),
        "no respawn was charged: {shard_events:?}"
    );

    std::env::remove_var("FASTMON_FAILPOINTS");
    std::env::remove_var(ENV_WORKER_BIN);
    handle.drain();
    handle.join();
    let _ = std::fs::remove_dir_all(&root2);
}
