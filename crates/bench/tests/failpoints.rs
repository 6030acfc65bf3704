//! Deterministic chaos-under-failpoints suite.
//!
//! Every scripted injection must either *recover to the bit-identical
//! baseline result* (retry absorbed it, a checkpoint resumed it, or the
//! anytime solver degraded gracefully) or surface as a *typed error* —
//! never a raw panic, never a corrupt checkpoint left behind.
//!
//! The failpoint schedule is process-global (`fastmon_obs::failpoints`),
//! so all injection scenarios run inside one test body, strictly
//! serialized, with `clear()` between scenarios. Cancellation scenarios
//! ride along in the same body: they exercise flow entry points that
//! consult the global failpoint table, so they must not run concurrently
//! with an armed schedule either.

use fastmon_atpg::{AtpgConfig, AtpgError};
use fastmon_bench::chaos;
use fastmon_core::{
    CheckpointError, CheckpointStore, DetectionAnalysis, FlowConfig, FlowError, HdfTestFlow,
    ShardFiles, ShardSpec, Solver, TestSchedule,
};
use fastmon_netlist::library;
use fastmon_obs::failpoints;
use fastmon_obs::CancelToken;

mod support;

fn flow_config() -> FlowConfig {
    FlowConfig {
        threads: 2,
        ..FlowConfig::default()
    }
}

fn assert_same_analysis(got: &DetectionAnalysis, baseline: &DetectionAnalysis, scenario: &str) {
    assert_eq!(got.per_pattern, baseline.per_pattern, "{scenario}");
    assert_eq!(got.raw_union, baseline.raw_union, "{scenario}");
    assert_eq!(got.verdicts, baseline.verdicts, "{scenario}");
}

/// Every target fault must be assigned to (and covered at) some entry.
fn covers_all_targets(schedule: &TestSchedule, analysis: &DetectionAnalysis) -> bool {
    let mut covered: Vec<usize> = schedule
        .entries
        .iter()
        .flat_map(|e| e.faults.iter().copied())
        .collect();
    covered.sort_unstable();
    covered.dedup();
    analysis
        .targets
        .iter()
        .all(|t| covered.binary_search(t).is_ok())
}

#[test]
fn chaos_under_failpoints_recovers_or_types_every_error() {
    failpoints::clear();
    let circuit = library::s27();
    let config = flow_config();
    let flow = HdfTestFlow::prepare(&circuit, &config);
    let patterns = flow.generate_patterns(None);
    let baseline = flow.analyze(&patterns);
    let robustness = || &flow.metrics().robustness;
    let dir = chaos::scratch_dir("failpoints");

    // -- checkpoint_write=io@2: one transient write failure on the second
    //    band save; the retry loop must absorb it bit-identically.
    {
        let before = robustness().checkpoint_retries.get();
        failpoints::configure("checkpoint_write=io@2").unwrap();
        let store = CheckpointStore::new(dir.join("write-absorb.fmck"));
        let got = flow
            .analyze_resumable(&patterns, &store)
            .expect("retry absorbs a single transient write failure");
        failpoints::clear();
        assert_same_analysis(&got, &baseline, "checkpoint_write=io@2");
        assert_eq!(
            robustness().checkpoint_retries.get() - before,
            1,
            "exactly one save attempt was retried"
        );
    }

    // -- checkpoint_write=io@every:1: the disk is permanently broken; after
    //    the retry budget the campaign must fail with the typed I/O error.
    {
        failpoints::configure("checkpoint_write=io@every:1").unwrap();
        let store = CheckpointStore::new(dir.join("write-dead.fmck"));
        let err = flow
            .analyze_resumable(&patterns, &store)
            .expect_err("a permanently failing save exhausts the retries");
        failpoints::clear();
        assert!(
            matches!(
                err,
                FlowError::Checkpoint(CheckpointError::Io { op: "write", .. })
            ),
            "got {err:?}"
        );
    }

    // -- checkpoint_rename=io@1: the atomic-rename step of the first save,
    //    which writes the file afresh, fails once; the retry re-runs the
    //    whole save (write + rename) and succeeds.
    {
        let before = robustness().checkpoint_retries.get();
        failpoints::configure("checkpoint_rename=io@1").unwrap();
        let store = CheckpointStore::new(dir.join("rename-absorb.fmck"));
        let got = flow
            .analyze_resumable(&patterns, &store)
            .expect("retry absorbs a single transient rename failure");
        failpoints::clear();
        assert_same_analysis(&got, &baseline, "checkpoint_rename=io@1");
        assert_eq!(robustness().checkpoint_retries.get() - before, 1);
    }

    // -- double injection checkpoint_rename=io@1;checkpoint_write=io@3:
    //    band 1's rename fails (retry), then band 2's append, the third
    //    write after band 1's two attempts, fails (retry) — two
    //    independent transients, one on each path, both absorbed, result
    //    still bit-identical.
    {
        let before = robustness().checkpoint_retries.get();
        failpoints::configure("checkpoint_rename=io@1;checkpoint_write=io@3").unwrap();
        let store = CheckpointStore::new(dir.join("double.fmck"));
        let got = flow
            .analyze_resumable(&patterns, &store)
            .expect("two independent transients are both absorbed");
        failpoints::clear();
        assert_same_analysis(&got, &baseline, "double transient");
        assert_eq!(robustness().checkpoint_retries.get() - before, 2);
    }

    // -- checkpoint_load=io@1: a valid checkpoint exists but reading it
    //    fails; the flow degrades to a clean restart, not an error.
    {
        let path = dir.join("load-degrade.fmck");
        let stopped = support::run_until_band(
            &circuit,
            &config,
            &patterns,
            &CheckpointStore::new(&path),
            None,
            1,
        );
        assert!(
            matches!(stopped, Err(FlowError::Cancelled { .. })),
            "a band must remain after band 1: {stopped:?}"
        );
        assert!(path.exists());
        let resumes_before = flow.metrics().checkpoint.resumes.get();
        failpoints::configure("checkpoint_load=io@1").unwrap();
        let got = flow
            .analyze_resumable(&patterns, &CheckpointStore::new(&path))
            .expect("unreadable checkpoint degrades to a clean restart");
        failpoints::clear();
        assert_same_analysis(&got, &baseline, "checkpoint_load=io@1");
        assert_eq!(
            flow.metrics().checkpoint.resumes.get(),
            resumes_before,
            "a failed load restarts from scratch instead of resuming"
        );
    }

    // -- checkpoint_load=io@1 on a stopped shard: a shard has no load
    //    but its own checkpoint's, so the injected read fails exactly that
    //    one; run_to_result restarts the shard cleanly instead of resuming,
    //    and the merge still matches the serial run.
    {
        let files = ShardFiles::new(dir.join("shard-load-degrade"));
        let spec = ShardSpec {
            shard: 0,
            shards: 2,
        };
        let stopped = support::run_until_band(
            &circuit,
            &config,
            &patterns,
            &files.checkpoint(spec),
            Some(spec),
            1,
        );
        assert!(
            matches!(stopped, Err(FlowError::Cancelled { .. })),
            "a band must remain after band 1: {stopped:?}"
        );
        let resumes_before = flow.metrics().checkpoint.resumes.get();
        failpoints::configure("checkpoint_load=io@1").unwrap();
        files
            .run_to_result(&flow, &patterns, spec, &mut |_| {})
            .expect("an unreadable shard checkpoint degrades to a clean restart");
        failpoints::clear();
        assert_eq!(
            flow.metrics().checkpoint.resumes.get(),
            resumes_before,
            "the injected read hit the shard's own checkpoint load"
        );
        let other = ShardSpec {
            shard: 1,
            shards: 2,
        };
        files
            .run_to_result(&flow, &patterns, other, &mut |_| {})
            .unwrap();
        let merged = files.merge(&flow, &patterns, 2).unwrap();
        assert_same_analysis(&merged, &baseline, "shard checkpoint_load=io@1");
        assert_eq!(merged.result_fingerprint(), baseline.result_fingerprint());
    }

    // -- campaign_band=err@2: the campaign dies between bands with a typed
    //    injection error; band 1's checkpoint survives and a clean rerun
    //    resumes from it, bit-identically.
    {
        let path = dir.join("band-resume.fmck");
        let store = CheckpointStore::new(&path);
        failpoints::configure("campaign_band=err@2").unwrap();
        let err = flow
            .analyze_resumable(&patterns, &store)
            .expect_err("the second band is injected");
        assert!(
            matches!(
                err,
                FlowError::Injected {
                    site: "campaign_band"
                }
            ),
            "got {err:?}"
        );
        assert!(
            path.exists(),
            "band 1 checkpoint was flushed before the injection"
        );
        failpoints::clear();
        let resumes_before = flow.metrics().checkpoint.resumes.get();
        let got = flow
            .analyze_resumable(&patterns, &store)
            .expect("rerun resumes from the surviving checkpoint");
        assert_same_analysis(&got, &baseline, "campaign_band=err@2 resume");
        assert_eq!(flow.metrics().checkpoint.resumes.get() - resumes_before, 1);
    }

    // -- sim_worker=panic@1: a worker panics mid-band; catch_unwind
    //    contains it as a typed error, and a clean rerun matches baseline.
    {
        let before = robustness().worker_panics_contained.get();
        failpoints::configure("sim_worker=panic@1").unwrap();
        let err = flow
            .try_analyze(&patterns)
            .expect_err("an injected worker panic surfaces as a typed error");
        failpoints::clear();
        match &err {
            FlowError::WorkerPanic { phase, message } => {
                assert_eq!(*phase, "analyze");
                assert!(message.contains("sim_worker"), "got message {message:?}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert!(robustness().worker_panics_contained.get() > before);
        let got = flow.try_analyze(&patterns).expect("clean rerun");
        assert_same_analysis(&got, &baseline, "sim_worker=panic@1 rerun");
    }

    // -- parallel_worker=panic@1 during analysis: the campaign's first
    //    pool (the cone-plan build) contains the injected panic, the flow
    //    returns it as a typed error, and a clean rerun matches baseline.
    {
        let before = robustness().worker_panics_contained.get();
        failpoints::configure("parallel_worker=panic@1").unwrap();
        let err = flow
            .try_analyze(&patterns)
            .expect_err("an injected pool panic surfaces as a typed error");
        failpoints::clear();
        match &err {
            FlowError::WorkerPanic { phase, message } => {
                assert_eq!(*phase, "analyze");
                assert!(
                    message.contains("injected panic at failpoint 'parallel_worker'"),
                    "got message {message:?}"
                );
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        assert!(robustness().worker_panics_contained.get() > before);
        let got = flow.try_analyze(&patterns).expect("clean rerun");
        assert_same_analysis(&got, &baseline, "parallel_worker=panic@1 rerun");
    }

    // -- parallel_worker=panic@1: the generic parallel runner contains the
    //    injected panic and reports it with the failpoint's name.
    {
        failpoints::configure("parallel_worker=panic@1").unwrap();
        let err = fastmon_sim::try_parallel_map_with(16, 2, || (), |(), i| i * 2)
            .expect_err("the injected worker panic is contained");
        failpoints::clear();
        assert!(
            err.message()
                .contains("injected panic at failpoint 'parallel_worker'"),
            "got message {:?}",
            err.message()
        );
        let ok = fastmon_sim::try_parallel_map_with(16, 2, || (), |(), i| i * 2)
            .expect("disabled failpoint leaves the runner untouched");
        assert_eq!(ok, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    // -- atpg_grade=panic@1: a fault-grading worker panics during pattern
    //    generation; the flow surfaces the contained panic as a typed
    //    ATPG error, and a clean rerun reproduces the baseline set.
    {
        failpoints::configure("atpg_grade=panic@1").unwrap();
        let err = flow
            .try_generate_patterns(None)
            .expect_err("the injected grading panic is contained");
        failpoints::clear();
        assert!(
            matches!(
                &err,
                FlowError::Atpg(AtpgError::WorkerPanicked {
                    phase: "atpg_grade",
                    ..
                })
            ),
            "got {err:?}"
        );
        let regen = flow.try_generate_patterns(None).expect("clean rerun");
        assert_eq!(regen, patterns, "pattern generation is deterministic");
    }

    // -- atpg_podem=err@1: the deterministic PODEM loop is injected
    //    directly (random_patterns: 0 keeps its worklist non-empty).
    {
        failpoints::configure("atpg_podem=err@1").unwrap();
        let podem_only = AtpgConfig {
            random_patterns: 0,
            threads: 2,
            ..AtpgConfig::default()
        };
        let err = fastmon_atpg::try_generate_with_metrics(&circuit, &podem_only, None, None)
            .expect_err("the PODEM loop is injected on its first fault");
        failpoints::clear();
        assert!(
            matches!(err, AtpgError::Injected { site: "atpg_podem" }),
            "got {err:?}"
        );
    }

    // -- parallel_worker=panic@1 during PODEM: with no random phase the
    //    first pool is a window of PODEM targets, and its contained panic
    //    surfaces as the deterministic phase's typed error.
    {
        failpoints::configure("parallel_worker=panic@1").unwrap();
        let podem_only = AtpgConfig {
            random_patterns: 0,
            threads: 2,
            ..AtpgConfig::default()
        };
        let err = fastmon_atpg::try_generate_with_metrics(&circuit, &podem_only, None, None)
            .expect_err("the injected PODEM worker panic is contained");
        failpoints::clear();
        assert!(
            matches!(
                err,
                AtpgError::WorkerPanicked {
                    phase: "atpg_podem",
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    // -- ilp_node=err@1: the branch-and-bound scheduler is anytime; an
    //    injected node degrades to the greedy incumbent, never an error.
    {
        failpoints::configure("ilp_node=err@1").unwrap();
        let schedule = flow
            .try_schedule(&baseline, Solver::Ilp)
            .expect("an injected B&B node degrades the solve, not the schedule");
        failpoints::clear();
        assert!(
            covers_all_targets(&schedule, &baseline),
            "a degraded schedule still covers every target fault"
        );
    }

    // -- cooperative cancellation during analysis: the token is observed
    //    only after a band checkpoint, so the campaign stays resumable.
    {
        let path = dir.join("cancelled.fmck");
        let token = CancelToken::new();
        token.cancel();
        let cancelled_flow = HdfTestFlow::prepare(&circuit, &config).with_cancel(token);
        let err = cancelled_flow
            .analyze_resumable(&patterns, &CheckpointStore::new(&path))
            .expect_err("a pre-cancelled token stops the campaign");
        assert!(
            matches!(err, FlowError::Cancelled { phase: "analyze" }),
            "got {err:?}"
        );
        assert!(
            path.exists(),
            "cancellation is observed after the band checkpoint flush"
        );
        // a fresh (uncancelled) flow picks the campaign back up
        let resumed_flow = HdfTestFlow::prepare(&circuit, &config);
        let got = resumed_flow
            .analyze_resumable(&patterns, &CheckpointStore::new(&path))
            .expect("the cancelled campaign's checkpoint is resumable");
        assert_same_analysis(&got, &baseline, "cancel + resume");
        assert_eq!(resumed_flow.metrics().checkpoint.resumes.get(), 1);
    }

    // -- cooperative cancellation during ATPG: the PODEM worklist checks
    //    the token between faults and returns the typed phase error.
    {
        let token = CancelToken::new();
        token.cancel();
        let podem_only = AtpgConfig {
            random_patterns: 0,
            threads: 2,
            ..AtpgConfig::default()
        };
        let err =
            fastmon_atpg::try_generate_with_metrics(&circuit, &podem_only, None, Some(&token))
                .expect_err("a cancelled token stops pattern generation");
        assert!(
            matches!(err, AtpgError::Cancelled { phase: "atpg" }),
            "got {err:?}"
        );
    }

    // -- cancellation degrades the ILP schedule instead of erroring. The
    //    baseline analysis is compatible with the fresh flow because the
    //    seed fixes the sampled monitor placement.
    {
        let token = CancelToken::new();
        token.cancel();
        let cancelled_flow = HdfTestFlow::prepare(&circuit, &config).with_cancel(token);
        let schedule = cancelled_flow
            .try_schedule(&baseline, Solver::Ilp)
            .expect("a cancelled schedule is still a valid schedule");
        assert!(covers_all_targets(&schedule, &baseline));
    }

    assert!(
        !failpoints::active(),
        "the suite must leave the global schedule disabled"
    );
    std::fs::remove_dir_all(&dir).ok();
}
