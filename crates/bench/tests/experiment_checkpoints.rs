//! The experiment binaries' checkpoints live in `fastmond`'s layout: one
//! locked directory per campaign fingerprint under
//! `FASTMON_CHECKPOINT_DIR`. [`with_run`] resumes a campaign stopped in
//! that directory, removes the directory once the campaign finishes, and
//! leaves a directory another run holds alone, running its campaign
//! without checkpoints instead. With `FASTMON_FRESH=1` it first removes
//! every directory under the root that no run holds.
//!
//! `FASTMON_CHECKPOINT_DIR` and `FASTMON_FRESH` are process-global, so
//! every scenario runs in one test body.

use std::time::Duration;

use fastmon_bench::{chaos, with_run, ExperimentConfig};
use fastmon_core::{CheckpointDir, FlowError, HdfTestFlow};

mod support;

#[test]
fn with_run_resumes_a_stopped_campaign_and_leaves_a_held_one_alone() {
    let root = chaos::scratch_dir("experiment-checkpoints");
    std::env::set_var("FASTMON_CHECKPOINT_DIR", &root);
    std::env::remove_var("FASTMON_FRESH");
    let config = ExperimentConfig {
        target_gates: 300,
        max_faults: 200,
        circuits: vec!["s9234".into()],
        seed: 1,
        ilp_deadline: Duration::from_secs(5),
        shards: 1,
        shard_procs: false,
    };
    let (profile, scale) = config.suite().remove(0);
    let circuit = profile.generate(config.seed).unwrap();
    let flow = HdfTestFlow::prepare(&circuit, &config.flow_config());
    let patterns = flow
        .try_generate_patterns(Some(profile.pattern_budget))
        .unwrap();
    let serial = flow.try_analyze(&patterns).unwrap().result_fingerprint();
    let fingerprint = flow.campaign_fingerprint(&patterns);
    let dirs = CheckpointDir::new(&root);
    // Stops the campaign after one band in the held job directory.
    let stop_after_one_band = |job: &fastmon_core::JobStore| {
        let stopped = support::run_until_band(
            &circuit,
            &config.flow_config(),
            &patterns,
            job.store(),
            None,
            1,
        );
        assert!(
            matches!(stopped, Err(FlowError::Cancelled { .. })),
            "a band must remain after the first: {stopped:?}"
        );
        assert!(job.store().path().exists());
    };
    let run = || {
        with_run(&profile, scale, &config, |flow, _, analysis, _| {
            (
                analysis.result_fingerprint(),
                flow.metrics().checkpoint.resumes.get(),
            )
        })
    };

    // A campaign stopped in its job directory is resumed, finishes
    // bit-identical to the serial run, and its directory goes.
    stop_after_one_band(&dirs.acquire(fingerprint).unwrap());
    let (result, resumes) = run();
    assert_eq!(resumes, 1, "with_run must resume the stopped campaign");
    assert_eq!(result, serial);
    assert!(
        !dirs.dir_for(fingerprint).exists(),
        "the finished campaign's directory must be removed"
    );

    // While another run holds the directory, with_run neither resumes nor
    // touches its checkpoint: it runs the campaign without checkpoints.
    let held = dirs.acquire(fingerprint).unwrap();
    stop_after_one_band(&held);
    let before = std::fs::read(held.store().path()).unwrap();
    let (result, resumes) = run();
    assert_eq!(resumes, 0);
    assert_eq!(result, serial);
    assert_eq!(std::fs::read(held.store().path()).unwrap(), before);
    drop(held);

    // FASTMON_FRESH=1 sweeps every directory no run holds before the
    // campaign acquires its own: another campaign's leftover directory
    // goes, the campaign's own stopped directory is not resumed, and a
    // directory another run holds survives byte for byte.
    let leftover = fingerprint ^ 1;
    drop(dirs.acquire(leftover).unwrap());
    stop_after_one_band(&dirs.acquire(fingerprint).unwrap());
    let held = dirs.acquire(fingerprint ^ 2).unwrap();
    stop_after_one_band(&held);
    let before = std::fs::read(held.store().path()).unwrap();
    std::env::set_var("FASTMON_FRESH", "1");
    let (result, resumes) = run();
    std::env::remove_var("FASTMON_FRESH");
    assert_eq!(resumes, 0, "a fresh run must not resume");
    assert_eq!(result, serial);
    assert!(!dirs.dir_for(leftover).exists(), "the unheld leftover goes");
    assert!(!dirs.dir_for(fingerprint).exists());
    assert_eq!(std::fs::read(held.store().path()).unwrap(), before);
    drop(held);

    std::env::remove_var("FASTMON_CHECKPOINT_DIR");
    std::fs::remove_dir_all(&root).ok();
}
