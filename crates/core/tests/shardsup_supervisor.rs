//! Supervisor engine tests against fake `/bin/sh` workers: crash
//! respawn with backoff, budget exhaustion, stall detection, RSS
//! eviction + readmission and restart resume — all without simulating a
//! single fault.

#![cfg(unix)]

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use fastmon_core::shardsup::{self, ShardsupError, SupervisorConfig, SupervisorEvent};
use fastmon_obs::json::Value;
use fastmon_obs::ShardsupMetrics;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fastmon-shardsup-{tag}-{}-{}",
        std::process::id(),
        fastmon_obs::run_id(),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sh(script: &str) -> io::Result<Child> {
    Command::new("/bin/sh")
        .arg("-c")
        .arg(script)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
}

fn flag(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("done-{shard}"))
}

/// A config with test-friendly timings (no minute-scale defaults).
fn fast_config(shards: usize, jobs: usize) -> SupervisorConfig {
    let mut config = SupervisorConfig::new(shards);
    config.jobs = jobs;
    config.stall_timeout = Duration::from_secs(10);
    config.backoff = Duration::from_millis(1);
    config.backoff_cap = Duration::from_millis(10);
    config.poll_interval = Duration::from_millis(10);
    config.rss_poll_interval = Duration::from_millis(50);
    config
}

#[test]
fn happy_path_completes_every_shard_once() {
    let dir = tmp("happy");
    let metrics = ShardsupMetrics::new();
    shardsup::run(
        &fast_config(4, 2),
        &mut |shard, _attempt| {
            sh(&format!(
                "echo '{}'; touch {}",
                fastmon_obs::events::shard::heartbeat(shard, 4, 0, 1),
                flag(&dir, shard).display()
            ))
        },
        &mut |shard| flag(&dir, shard).exists(),
        &mut |_| {},
        None,
        &metrics,
    )
    .unwrap();
    assert_eq!(metrics.workers_spawned.get(), 4);
    assert_eq!(metrics.shards_completed.get(), 4);
    assert_eq!(metrics.respawns.get(), 0);
    assert!(metrics.heartbeats_received.get() >= 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_shard_is_respawned_and_the_rest_keep_running() {
    let dir = tmp("crash");
    let metrics = ShardsupMetrics::new();
    let mut events = Vec::new();
    shardsup::run(
        &fast_config(2, 2),
        &mut |shard, attempt| {
            if shard == 1 && attempt == 0 {
                // first attempt dies without landing anything
                sh("exit 3")
            } else {
                sh(&format!(
                    "echo '{{}}'; touch {}",
                    flag(&dir, shard).display()
                ))
            }
        },
        &mut |shard| flag(&dir, shard).exists(),
        &mut |e| events.push(e),
        None,
        &metrics,
    )
    .unwrap();
    assert_eq!(metrics.shards_completed.get(), 2);
    assert_eq!(metrics.respawns.get(), 1);
    assert_eq!(metrics.workers_spawned.get(), 3);
    assert!(events
        .iter()
        .any(|e| matches!(e, SupervisorEvent::Crashed { shard: 1, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, SupervisorEvent::Backoff { shard: 1, .. })));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn respawn_budget_exhaustion_fails_the_shard() {
    let mut config = fast_config(1, 1);
    config.max_respawns = 1;
    let err = shardsup::run(
        &config,
        &mut |_, _| sh("exit 7"),
        &mut |_| false,
        &mut |_| {},
        None,
        &ShardsupMetrics::new(),
    )
    .unwrap_err();
    match err {
        ShardsupError::ShardFailed {
            shard,
            attempts,
            last,
        } => {
            assert_eq!(shard, 0);
            assert_eq!(attempts, 2); // first run + one respawn
            assert!(last.contains('7'), "unexpected status: {last}");
        }
        other => panic!("expected ShardFailed, got {other}"),
    }
}

#[test]
fn refused_shard_fails_the_campaign_without_a_respawn() {
    let metrics = ShardsupMetrics::new();
    let mut backoffs = 0u32;
    let err = shardsup::run(
        &fast_config(1, 1),
        &mut |_, _| {
            sh(&format!(
                "echo '{}'; exit {}",
                fastmon_obs::events::shard::error(0, 1, "fingerprint_mismatch", "foreign spec"),
                shardsup::EXIT_REFUSED
            ))
        },
        &mut |_| false,
        &mut |e| {
            if matches!(e, SupervisorEvent::Backoff { .. }) {
                backoffs += 1;
            }
        },
        None,
        &metrics,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            ShardsupError::ShardFailed {
                shard: 0,
                attempts: 1,
                ..
            }
        ),
        "got {err}"
    );
    assert_eq!(backoffs, 0);
    assert_eq!(metrics.workers_spawned.get(), 1);
    assert_eq!(metrics.respawns.get(), 0);
}

#[test]
fn worker_peak_rss_is_the_largest_shard_done_report() {
    let dir = tmp("peak");
    let metrics = ShardsupMetrics::new();
    let mut peak = 0;
    shardsup::run(
        &fast_config(3, 3),
        &mut |shard, _| {
            sh(&format!(
                "echo '{}'; touch {}",
                fastmon_obs::events::shard::done(shard, 3, 0, 1000 * (shard as u64 + 1)),
                flag(&dir, shard).display()
            ))
        },
        &mut |shard| flag(&dir, shard).exists(),
        &mut |e| {
            if let SupervisorEvent::Heartbeat { value, .. } = e {
                if let Some(bytes) = value.get("peak_rss_bytes").and_then(Value::as_u64) {
                    peak = u64::max(peak, bytes);
                }
            }
        },
        None,
        &metrics,
    )
    .unwrap();
    assert_eq!(metrics.shards_completed.get(), 3);
    assert_eq!(peak, 3000);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn silent_worker_is_stall_killed_and_the_respawn_finishes() {
    let dir = tmp("stall");
    let mut config = fast_config(1, 1);
    config.stall_timeout = Duration::from_millis(300);
    let metrics = ShardsupMetrics::new();
    let mut events = Vec::new();
    shardsup::run(
        &config,
        &mut |shard, attempt| {
            if attempt == 0 {
                // hangs forever without a single heartbeat
                sh("exec sleep 60")
            } else {
                sh(&format!(
                    "echo '{{}}'; touch {}",
                    flag(&dir, shard).display()
                ))
            }
        },
        &mut |shard| flag(&dir, shard).exists(),
        &mut |e| events.push(e),
        None,
        &metrics,
    )
    .unwrap();
    assert_eq!(metrics.stalls_detected.get(), 1);
    assert_eq!(
        metrics.respawns.get(),
        1,
        "a stall kill charges the retry budget"
    );
    assert_eq!(metrics.shards_completed.get(), 1);
    assert!(events
        .iter()
        .any(|e| matches!(e, SupervisorEvent::Stalled { shard: 0, .. })));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rss_eviction_is_graceful_and_uncharged() {
    let dir = tmp("evict");
    let mut config = fast_config(1, 1);
    config.rss_limit_bytes = Some(1); // any live process exceeds this
    let launches = RefCell::new(0u32);
    let metrics = ShardsupMetrics::new();
    let mut events = Vec::new();
    shardsup::run(
        &config,
        &mut |shard, _attempt| {
            let n = {
                let mut l = launches.borrow_mut();
                *l += 1;
                *l
            };
            if n == 1 {
                // Cooperative worker: on SIGTERM it "checkpoints"
                // (nothing here) and exits with the eviction code —
                // without finishing, so it must be re-admitted.
                sh("trap 'exit 75' TERM; echo '{}'; while :; do sleep 0.05; done")
            } else {
                // Re-admitted attempt lands before the next RSS poll.
                sh(&format!(
                    "echo '{{}}'; touch {}",
                    flag(&dir, shard).display()
                ))
            }
        },
        &mut |shard| flag(&dir, shard).exists(),
        &mut |e| events.push(e),
        None,
        &metrics,
    )
    .unwrap();
    assert!(metrics.rss_evictions.get() >= 1);
    assert_eq!(metrics.readmissions.get(), 1);
    assert_eq!(
        metrics.respawns.get(),
        0,
        "an eviction must not charge the budget"
    );
    assert_eq!(metrics.shards_completed.get(), 1);
    assert!(events
        .iter()
        .any(|e| matches!(e, SupervisorEvent::RssEvicted { shard: 0, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, SupervisorEvent::Readmitted { shard: 0 })));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn already_landed_shards_are_not_respawned_after_a_supervisor_restart() {
    let metrics = ShardsupMetrics::new();
    shardsup::run(
        &fast_config(3, 3),
        &mut |_, _| panic!("nothing should be launched"),
        &mut |_| true,
        &mut |_| {},
        None,
        &metrics,
    )
    .unwrap();
    assert_eq!(metrics.workers_spawned.get(), 0);
    assert_eq!(metrics.shards_completed.get(), 3);
}

#[test]
fn cancellation_terminates_children_and_surfaces_typed() {
    let token = fastmon_obs::CancelToken::new();
    token.cancel();
    let err = shardsup::run(
        &fast_config(2, 2),
        &mut |_, _| sh("exec sleep 60"),
        &mut |_| false,
        &mut |_| {},
        Some(&token),
        &ShardsupMetrics::new(),
    )
    .unwrap_err();
    assert!(matches!(err, ShardsupError::Cancelled { .. }));
}

#[test]
fn shard_count_parsing_is_strict() {
    assert_eq!(
        shardsup::parse_shard_count("FASTMON_SHARDS", "8").unwrap(),
        8
    );
    assert_eq!(
        shardsup::parse_shard_count("FASTMON_SHARDS", " 4096 ").unwrap(),
        4096
    );
    for bad in ["0", "-1", "banana", "", "4097", "1e3"] {
        let err = shardsup::parse_shard_count("FASTMON_SHARDS", bad).unwrap_err();
        match err {
            ShardsupError::Config { key, value, .. } => {
                assert_eq!(key, "FASTMON_SHARDS");
                assert_eq!(value, bad, "error must carry the offending string");
            }
            other => panic!("expected Config error for {bad:?}, got {other}"),
        }
    }
}

#[test]
fn shard_spec_round_trips_and_rejects_garbage() {
    let spec = fastmon_core::ShardSpec::parse("3/8").unwrap();
    assert_eq!((spec.shard, spec.shards), (3, 8));
    assert_eq!(spec.to_string(), "3/8");
    for bad in ["8/8", "3", "3/0", "a/b", "3/4097"] {
        assert!(
            fastmon_core::ShardSpec::parse(bad).is_err(),
            "{bad:?} must be rejected"
        );
    }
}
