//! Chaos suite for the multi-process shard supervisor: real worker
//! processes (the `perf_snapshot` binary re-exec'd as `--shard-worker`)
//! simulating a real (tiny) paper-suite campaign, abused with kill -9,
//! armed failpoints, a forced stall, a forced RSS eviction and a
//! supervisor restart mid-campaign — every merged result must be
//! bit-identical to the clean serial baseline. Two more scenarios pin the
//! shipped-test-set protocol: workers never run ATPG, and a worker whose
//! spec rebuilds a different campaign refuses once instead of burning
//! its respawn budget. A last one runs a seed above 2^53 through the
//! spec.
//!
//! The stall and RSS-eviction scenarios pass their own
//! [`SupervisorConfig`] to the daemon's `supervise`; the others run with
//! the defaults. Each scenario that checks the supervisor's counters runs
//! on a flow of its own, whose registry holds them. `FASTMON_FAILPOINTS`
//! is process-global and inherited by the spawned workers, so all
//! scenarios run inside one test body, strictly serialized, with the
//! variable cleared between scenarios.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::time::Duration;

use fastmon_atpg::TestSet;
use fastmon_bench::shardsup::{job_request, supervise};
use fastmon_bench::ExperimentConfig;
use fastmon_core::shardsup::send_signal;
use fastmon_core::{FlowError, HdfTestFlow, ShardsupError, SupervisorConfig, SupervisorEvent};
use fastmon_daemon::JobError;
use fastmon_netlist::generate::CircuitProfile;
use fastmon_obs::json::Value;

const SIGKILL: i32 = 9;
const SIGSTOP: i32 = 19;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fastmon-shardsup-chaos-{tag}-{}-{}",
        std::process::id(),
        fastmon_obs::run_id(),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn supervised_chaos_converges_to_the_serial_fingerprint() {
    // Scenarios must not leak knobs into one another (or into a rerun
    // after a failure), and the supervisor's defaults must not come from
    // the caller's environment, so start from a known-clean slate.
    for key in [
        "FASTMON_FAILPOINTS",
        "FASTMON_SHARD_RSS_BYTES",
        "FASTMON_SHARD_JOBS",
    ] {
        std::env::remove_var(key);
    }

    let config = ExperimentConfig {
        target_gates: 4000,
        max_faults: 8000,
        circuits: vec![],
        seed: 1,
        ilp_deadline: Duration::from_secs(5),
        shards: 3,
        shard_procs: true,
    };
    let scale = 0.05;
    let base = CircuitProfile::named("s9234").unwrap();
    let profile = base.scaled(scale);
    let circuit = profile.generate(config.seed).unwrap();
    // A flow of the campaign with all-zero supervisor counters.
    let fresh_flow = || HdfTestFlow::prepare(&circuit, &config.flow_config());
    let flow = fresh_flow();
    let patterns = flow
        .try_generate_patterns(Some(profile.pattern_budget))
        .unwrap();
    // The clean serial baseline every chaotic run must reproduce bit for
    // bit. Computing it first also initializes the in-process failpoint
    // schedule (empty), so arming FASTMON_FAILPOINTS later reaches only
    // the spawned workers, never this process.
    let golden = flow.try_analyze(&patterns).unwrap().result_fingerprint();
    let worker = Path::new(env!("CARGO_BIN_EXE_perf_snapshot"));
    let name = &profile.name;

    // ---- scenario 1: supervisor restart mid-campaign --------------------
    // Phase A is cancelled after a few heartbeats (children SIGTERMed,
    // checkpoints left resumable); phase B restarts the supervisor over
    // the same directory and must finish from the landed state.
    {
        let dir = tmp("restart");
        let token = fastmon_obs::CancelToken::new();
        let flow_a =
            HdfTestFlow::prepare(&circuit, &config.flow_config()).with_cancel(token.clone());
        let mut heartbeats = 0u32;
        let outcome = supervise(
            &flow_a,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |event| {
                if matches!(event, SupervisorEvent::Heartbeat { .. }) {
                    heartbeats += 1;
                    if heartbeats == 3 {
                        token.cancel();
                    }
                }
            },
        );
        match outcome {
            Err(JobError::Flow(FlowError::Cancelled { .. })) => {}
            // A tiny campaign can legitimately finish before the third
            // heartbeat trips the token; that still exercises phase B as
            // a pure already-landed restart.
            Ok(_) => {}
            Err(e) => panic!("phase A must cancel or complete, got {e}"),
        }
        let flow_b = fresh_flow();
        let run = supervise(
            &flow_b,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |_| {},
        )
        .expect("restarted supervisor must finish the campaign");
        assert_eq!(
            run.analysis.result_fingerprint(),
            golden,
            "restart: merged fingerprint diverged from the serial baseline"
        );
        let counters = &flow_b.metrics().shardsup;
        assert_eq!(counters.shards_completed.get(), config.shards as u64);
        eprintln!(
            "[chaos] restart: phase B finished from the checkpoints, counters {:?}",
            counters.entries()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 2: two random kill -9s ----------------------------------
    {
        let dir = tmp("kill9");
        let flow = fresh_flow();
        let mut killed: Vec<usize> = Vec::new();
        let run = supervise(
            &flow,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |event| {
                if let SupervisorEvent::Spawned {
                    shard,
                    attempt: 0,
                    pid,
                } = event
                {
                    if killed.len() < 2 && !killed.contains(shard) {
                        // SIGKILL immediately after spawn: the shard
                        // cannot have finished, so the crash is always
                        // charged.
                        assert!(send_signal(*pid, SIGKILL));
                        killed.push(*shard);
                    }
                }
            },
        )
        .expect("campaign must survive two kill -9s");
        let counters = &flow.metrics().shardsup;
        assert_eq!(killed.len(), 2);
        assert!(
            counters.respawns.get() >= 2,
            "both murdered workers must be respawned: {:?}",
            counters.entries()
        );
        assert_eq!(
            run.analysis.result_fingerprint(),
            golden,
            "kill9: merged fingerprint diverged from the serial try_analyze baseline"
        );
        eprintln!(
            "[chaos] kill9: shards {killed:?} murdered, counters {:?}",
            counters.entries()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 3: armed failpoint in every first-attempt child -------
    // `campaign_band=err@2` makes each worker's first attempt die with a
    // typed injected error after durably checkpointing band 1; respawns
    // run clean (the supervisor strips FASTMON_FAILPOINTS) and must
    // resume, not restart.
    {
        let dir = tmp("failpoints");
        let flow = fresh_flow();
        std::env::set_var("FASTMON_FAILPOINTS", "campaign_band=err@2");
        let mut resumed = 0u32;
        let run = supervise(
            &flow,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |event| {
                if let SupervisorEvent::Heartbeat { value, .. } = event {
                    if value.get("event").and_then(Value::as_str) == Some("shard_resumed") {
                        resumed += 1;
                    }
                }
            },
        )
        .expect("campaign must survive the armed failpoints");
        std::env::remove_var("FASTMON_FAILPOINTS");
        let counters = &flow.metrics().shardsup;
        assert!(
            counters.respawns.get() >= 1,
            "injected first attempts must be respawned: {:?}",
            counters.entries()
        );
        assert!(
            resumed >= 1,
            "at least one respawn must resume from its shard checkpoint"
        );
        assert_eq!(run.analysis.result_fingerprint(), golden);
        eprintln!(
            "[chaos] failpoints: {resumed} checkpoint resumes, counters {:?}",
            counters.entries()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 4: a frozen child is stall-killed and respawned ------
    // SIGSTOP freezes shard 0's first worker as soon as it is spawned, so
    // it never sends a heartbeat. The stall watchdog must SIGKILL it; the
    // charged respawn runs the shard and the merged result is unchanged —
    // the respawn counter proves the path (scenario 3 covers resuming
    // from a shard checkpoint).
    {
        let dir = tmp("stall");
        let supervisor = SupervisorConfig {
            stall_timeout: Duration::from_secs(1),
            ..SupervisorConfig::new(config.shards)
        };
        let stall_flow = fresh_flow();
        let mut stopped = None;
        let mut stalled = Vec::new();
        let run = fastmon_daemon::shard::supervise(
            &stall_flow,
            &patterns,
            &job_request(&config, name, scale),
            &supervisor,
            &dir,
            Some(worker),
            &mut |event| match event {
                SupervisorEvent::Spawned {
                    shard: 0,
                    attempt: 0,
                    pid,
                } => {
                    assert!(send_signal(*pid, SIGSTOP));
                    stopped = Some(*pid);
                }
                SupervisorEvent::Stalled { pid, .. } => stalled.push(*pid),
                _ => {}
            },
        )
        .expect("campaign must survive a hung worker");
        let stopped = stopped.expect("shard 0's first worker was never spawned");
        assert!(
            stalled.contains(&stopped),
            "the frozen worker {stopped} was not stall-killed: {stalled:?}"
        );
        // the supervisor records its counters in the flow's registry
        let counters = &stall_flow.metrics().shardsup;
        assert!(
            counters.stalls_detected.get() >= 1,
            "the silent worker must be detected: {:?}",
            counters.entries()
        );
        assert!(
            counters.respawns.get() >= 1,
            "a stall kill charges the budget"
        );
        assert_eq!(run.analysis.result_fingerprint(), golden);
        eprintln!("[chaos] stall: counters {:?}", counters.entries());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 5: forced RSS eviction is graceful and uncharged ------
    // A 1-byte ceiling evicts every worker at every probe; each
    // evict/readmit cycle still banks at least one band (the worker
    // observes the cancel only after a band checkpoint), so the campaign
    // converges without spending any respawn budget. Workers start in
    // milliseconds and a shard of the shared test set simulates in about
    // as long as one supervisor tick, so a worker could finish before its
    // eviction lands; this scenario simulates the test set 16 times over
    // to keep every worker mid-campaign when the SIGTERM arrives.
    {
        let dir = tmp("rss");
        let flow = fresh_flow();
        let mut long = TestSet::new(&circuit);
        for _ in 0..16 {
            for pattern in patterns.iter() {
                long.push(pattern.clone());
            }
        }
        let long_golden = flow.try_analyze(&long).unwrap().result_fingerprint();
        let supervisor = SupervisorConfig {
            rss_limit_bytes: Some(1),
            jobs: 1,
            rss_poll_interval: Duration::from_millis(25),
            ..SupervisorConfig::new(config.shards)
        };
        let run = fastmon_daemon::shard::supervise(
            &flow,
            &long,
            &job_request(&config, name, scale),
            &supervisor,
            &dir,
            Some(worker),
            &mut |_| {},
        )
        .expect("campaign must survive constant RSS eviction");
        let counters = &flow.metrics().shardsup;
        assert!(
            counters.rss_evictions.get() >= 1,
            "the 1-byte ceiling must evict at least once: {:?}",
            counters.entries()
        );
        assert!(counters.readmissions.get() >= 1);
        assert_eq!(
            counters.respawns.get(),
            0,
            "evictions must not charge the respawn budget: {:?}",
            counters.entries()
        );
        assert_eq!(run.analysis.result_fingerprint(), long_golden);
        eprintln!("[chaos] rss: counters {:?}", counters.entries());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 6: ATPG failpoints never reach a worker ---------------
    // Workers load the shipped test set instead of regenerating it, so an
    // ATPG failpoint armed in every first attempt has nothing to fire on:
    // no worker fails, none is respawned, and the merge is unchanged.
    // Each shard's finished checkpoint is its result: it stays in the
    // directory, and no other result file is written.
    {
        let dir = tmp("atpg");
        let flow = fresh_flow();
        let mut worker_peak = 0;
        std::env::set_var("FASTMON_FAILPOINTS", "atpg_grade=panic@1;atpg_podem=err@1");
        let run = supervise(
            &flow,
            &patterns,
            &config,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |event| {
                if let SupervisorEvent::Heartbeat { value, .. } = event {
                    if let Some(peak) = value.get("peak_rss_bytes").and_then(Value::as_u64) {
                        worker_peak = worker_peak.max(peak);
                    }
                }
            },
        )
        .expect("workers must not run ATPG");
        std::env::remove_var("FASTMON_FAILPOINTS");
        let counters = &flow.metrics().shardsup;
        assert_eq!(
            counters.respawns.get(),
            0,
            "a worker ran ATPG and hit the armed failpoint: {:?}",
            counters.entries()
        );
        assert_eq!(counters.workers_spawned.get(), config.shards as u64);
        assert!(
            worker_peak > 0,
            "workers report their own peak RSS in shard_done"
        );
        assert_eq!(run.analysis.result_fingerprint(), golden);
        for shard in 0..config.shards {
            assert!(dir.join(format!("shard-{shard}-of-3.ckpt")).exists());
        }
        assert!(
            std::fs::read_dir(&dir)
                .unwrap()
                .all(|entry| entry.unwrap().path().extension() != Some("result".as_ref())),
            "no shard lands a .result file"
        );
        eprintln!("[chaos] atpg failpoints: counters {:?}", counters.entries());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 7: a spec that rebuilds another campaign is refused ---
    // The spec caps the fault sample differently from the supervisor's
    // flow, so every worker rebuilds a campaign whose fingerprint differs
    // from the test set's key. The first worker to notice exits 2 and the
    // supervisor fails at once — no backoff, no respawn.
    {
        let dir = tmp("refused");
        let foreign = ExperimentConfig {
            max_faults: 1,
            ..config.clone()
        };
        let mut backoffs = 0u32;
        let outcome = supervise(
            &flow,
            &patterns,
            &foreign,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |event| {
                if matches!(event, SupervisorEvent::Backoff { .. }) {
                    backoffs += 1;
                }
            },
        );
        match outcome {
            Err(JobError::Shardsup(ShardsupError::ShardFailed { attempts: 1, .. })) => {}
            other => panic!("a foreign spec must be refused after one attempt, got {other:?}"),
        }
        assert_eq!(backoffs, 0, "a refused shard must not be respawned");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- scenario 8: a seed above 2^53 reaches the workers exactly -----
    // The spec carries the seed as a JSON integer; an f64 round-trip
    // would rebuild a neighbouring seed's circuit and every worker would
    // refuse its shard.
    {
        let dir = tmp("seed");
        let big = ExperimentConfig {
            seed: (1 << 53) + 1,
            ..config.clone()
        };
        let circuit = profile.generate(big.seed).unwrap();
        let flow = HdfTestFlow::prepare(&circuit, &big.flow_config());
        let patterns = flow
            .try_generate_patterns(Some(profile.pattern_budget))
            .unwrap();
        let golden = flow.try_analyze(&patterns).unwrap().result_fingerprint();
        let run = supervise(
            &flow,
            &patterns,
            &big,
            name,
            scale,
            &dir,
            Some(worker),
            &mut |_| {},
        )
        .expect("a seed above 2^53 must survive the spec");
        assert_eq!(flow.metrics().shardsup.respawns.get(), 0);
        assert_eq!(run.analysis.result_fingerprint(), golden);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
