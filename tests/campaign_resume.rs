//! Checkpoint/resume determinism: a fault-simulation campaign that is
//! interrupted between pattern bands and later resumed must produce
//! results bit-identical to an uninterrupted run.

use std::path::Path;

use fastmon_atpg::TestSet;
use fastmon_core::{
    Campaign, CampaignProgress, CheckpointStore, DetectionAnalysis, FlowConfig, FlowError,
    HdfTestFlow,
};
use fastmon_netlist::generate::paper_suite;
use fastmon_netlist::{library, Circuit};
use fastmon_obs::CancelToken;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fastmon-resume-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_identical(a: &DetectionAnalysis, b: &DetectionAnalysis) {
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.per_pattern, b.per_pattern);
    assert_eq!(a.raw_union, b.raw_union);
    assert_eq!(a.conv_range, b.conv_range);
    assert_eq!(a.fast_range, b.fast_range);
    assert_eq!(a.verdicts, b.verdicts);
    assert_eq!(a.targets, b.targets);
    assert_eq!(a.num_patterns, b.num_patterns);
}

/// Runs the campaign of `circuit` under `config`, checkpointed at `path`,
/// and stops it after `bands` band checkpoints the way a shard worker
/// stops on eviction: the campaign's observer trips the flow's cancel
/// token, which the campaign checks right after each checkpoint while
/// bands remain. Returns how often the stopped run resumed.
fn interrupt(
    circuit: &Circuit,
    config: &FlowConfig,
    patterns: &TestSet,
    path: &Path,
    bands: usize,
) -> u64 {
    let token = CancelToken::new();
    let flow = HdfTestFlow::prepare(circuit, config).with_cancel(token.clone());
    let mut seen = 0;
    let mut observe = |p| {
        if matches!(p, CampaignProgress::BandCheckpointed { .. }) {
            seen += 1;
            if seen == bands {
                token.cancel();
            }
        }
    };
    let store = CheckpointStore::new(path);
    let campaign = Campaign {
        checkpoint: Some(&store),
        observe: Some(&mut observe),
        ..Campaign::default()
    };
    let err = flow
        .run(patterns, campaign)
        .expect_err("a band must remain after the interruption point");
    assert!(matches!(err, FlowError::Cancelled { .. }), "got {err:?}");
    assert!(path.exists(), "a valid checkpoint must remain on disk");
    flow.metrics().checkpoint.resumes.get()
}

/// Interrupts the campaign after `bands` checkpoint saves, then resumes it
/// and checks the result against the uninterrupted baseline.
fn interrupt_and_resume(circuit: &Circuit, config: &FlowConfig, tag: &str, bands: usize) {
    let flow = HdfTestFlow::prepare(circuit, config);
    let patterns = flow.generate_patterns(None);
    let baseline = flow.analyze(&patterns);

    let dir = scratch(tag);
    let path = dir.join(format!("{}-{bands}.fmck", circuit.name()));
    interrupt(circuit, config, &patterns, &path, bands);

    let store = CheckpointStore::new(&path);
    let resumed = flow
        .analyze_resumable(&patterns, &store)
        .expect("resume completes");
    assert_eq!(flow.metrics().checkpoint.resumes.get(), 1);
    assert!(
        flow.metrics().checkpoint.saves.get() > 0,
        "no band was left for the resume"
    );
    assert_identical(&resumed, &baseline);
    assert!(
        !path.exists(),
        "checkpoint is removed after a successful run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn s27_resumes_bit_identically_from_two_interruption_points() {
    let circuit = library::s27();
    let config = FlowConfig {
        threads: 1,
        ..FlowConfig::default()
    };
    for bands in [1, 2] {
        interrupt_and_resume(&circuit, &config, "s27", bands);
    }
}

#[test]
fn scaled_stand_in_resumes_bit_identically_from_two_interruption_points() {
    let profile = paper_suite()
        .into_iter()
        .find(|p| p.name == "s9234")
        .expect("s9234 profile exists")
        .scaled(0.05);
    let circuit = profile.generate(7).expect("profile generates");
    let config = FlowConfig {
        threads: 2,
        max_faults: Some(150),
        ..FlowConfig::default()
    };
    for bands in [1, 3] {
        interrupt_and_resume(&circuit, &config, "stand-in", bands);
    }
}

#[test]
fn resume_is_thread_count_invariant() {
    // Interrupt a single-threaded campaign, resume it with four workers:
    // merge order is fixed, so the result must still be bit-identical.
    let circuit = library::s27();
    let base_cfg = FlowConfig {
        threads: 1,
        ..FlowConfig::default()
    };
    let flow = HdfTestFlow::prepare(&circuit, &base_cfg);
    let patterns = flow.generate_patterns(None);
    let baseline = flow.analyze(&patterns);

    let dir = scratch("threads");
    let path = dir.join("s27.fmck");
    interrupt(&circuit, &base_cfg, &patterns, &path, 1);

    let wide_cfg = FlowConfig {
        threads: 4,
        ..FlowConfig::default()
    };
    let wide_flow = HdfTestFlow::prepare(&circuit, &wide_cfg);
    let resumed = wide_flow
        .analyze_resumable(&patterns, &CheckpointStore::new(&path))
        .expect("resume completes");
    assert_identical(&resumed, &baseline);
    std::fs::remove_dir_all(&dir).ok();
}

/// The flow configuration of the s9234 stand-in at 5 % scale: 150
/// faults, enough patterns for several bands.
fn stand_in_config(threads: usize) -> FlowConfig {
    FlowConfig {
        threads,
        max_faults: Some(150),
        ..FlowConfig::default()
    }
}

fn stand_in() -> Circuit {
    paper_suite()
        .into_iter()
        .find(|p| p.name == "s9234")
        .expect("s9234 profile exists")
        .scaled(0.05)
        .generate(7)
        .expect("profile generates")
}

#[test]
fn twice_interrupted_campaign_resumes_bit_identically() {
    // Interrupted after one band; the resume is interrupted again two
    // saves later, the second of which extends the file the first wrote;
    // the next resume runs to completion.
    let circuit = stand_in();
    for threads in [1, 2] {
        let config = stand_in_config(threads);
        let flow = HdfTestFlow::prepare(&circuit, &config);
        let patterns = flow.generate_patterns(None);
        let baseline = flow.analyze(&patterns);
        let dir = scratch(&format!("twice-{threads}"));
        let path = dir.join("twice.fmck");
        assert_eq!(interrupt(&circuit, &config, &patterns, &path, 1), 0);
        assert_eq!(
            interrupt(&circuit, &config, &patterns, &path, 2),
            1,
            "threads={threads}: the second run must resume the first"
        );
        let resumed = flow
            .analyze_resumable(&patterns, &CheckpointStore::new(&path))
            .expect("resume completes");
        assert!(
            flow.metrics().checkpoint.saves.get() > 0,
            "threads={threads}: no band was left for the last resume"
        );
        assert_eq!(flow.metrics().checkpoint.resumes.get(), 1);
        assert_identical(&resumed, &baseline);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Append-only gate: the first save writes the header and its band, and
/// every later save appends only its own band, so a whole checkpointed
/// campaign writes exactly its final file. Rewriting the file at every
/// save would write about half the band count times the final file.
#[test]
fn checkpoint_bytes_written_equal_the_final_file() {
    let circuit = stand_in();
    let flow = HdfTestFlow::prepare(&circuit, &stand_in_config(2));
    let patterns = flow.generate_patterns(None);
    let dir = scratch("append");
    let path = dir.join("append.fmck");
    let store = CheckpointStore::new(&path);
    let campaign = Campaign {
        checkpoint: Some(&store),
        ..Campaign::default()
    };
    flow.run(&patterns, campaign).expect("campaign completes");
    let ckpt = &flow.metrics().checkpoint;
    let saves = ckpt.saves.get();
    let file = std::fs::metadata(&path).expect("checkpoint stays").len();
    assert!(saves >= 4, "only {saves} band(s)");
    assert_eq!(
        ckpt.save_bytes.get(),
        file,
        "{saves} saves wrote more than the final file"
    );
    std::fs::remove_dir_all(&dir).ok();
}
