//! Shard-merge determinism: a campaign partitioned into N contiguous
//! fault shards and merged must be bit-identical (same
//! `result_fingerprint`) to the single-process serial run, for any shard
//! count, any thread count, and through the crash-safe per-shard
//! checkpoint path the workers take (`ShardFiles::run_to_result`, then
//! `ShardFiles::merge`). Also pins the shard file layout: the partition,
//! the shard fingerprints, the finished checkpoints that are the shards'
//! results, and the shipped test set.

use fastmon_atpg::{AtpgError, TestSet};
use fastmon_core::shard::TEST_SET_FILE;
use fastmon_core::{
    Campaign, CampaignProgress, CheckpointError, CheckpointStore, DetectionAnalysis, FlowConfig,
    FlowError, HdfTestFlow, ShardFiles, ShardSpec,
};
use fastmon_netlist::generate::GeneratorConfig;
use fastmon_netlist::Circuit;

fn random_circuit(seed: u64) -> Circuit {
    GeneratorConfig::new("shards")
        .gates(100 + (seed as usize % 3) * 40)
        .flip_flops(8)
        .inputs(7)
        .outputs(3)
        .depth(6)
        .generate(seed)
        .expect("valid generator config")
}

/// Shard `shard` of a `shards`-way partition, in process, without
/// persistence.
fn run_shard(
    flow: &HdfTestFlow<'_>,
    patterns: &TestSet,
    shard: usize,
    shards: usize,
) -> DetectionAnalysis {
    flow.run(
        patterns,
        Campaign {
            shard: Some(ShardSpec { shard, shards }),
            ..Campaign::default()
        },
    )
    .unwrap()
}

/// Every shard of a `shards`-way partition, merged.
fn run_sharded(flow: &HdfTestFlow<'_>, patterns: &TestSet, shards: usize) -> DetectionAnalysis {
    DetectionAnalysis::merge((0..shards).map(|shard| run_shard(flow, patterns, shard, shards)))
        .unwrap()
}

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fastmon-shard-{tag}-{}-{}",
        std::process::id(),
        fastmon_obs::run_id(),
    ))
}

#[test]
fn sharded_runs_match_serial_for_any_shard_and_thread_count() {
    for seed in 1..=3u64 {
        let circuit = random_circuit(seed);
        let flow = HdfTestFlow::prepare(
            &circuit,
            &FlowConfig {
                seed,
                ..FlowConfig::default()
            },
        );
        let patterns = flow.generate_patterns(Some(10));
        let serial = flow.try_analyze(&patterns).unwrap();
        let golden = serial.result_fingerprint();
        for shards in [1usize, 2, 4, 7] {
            let merged = run_sharded(&flow, &patterns, shards);
            assert_eq!(merged.num_faults(), serial.num_faults());
            assert_eq!(merged.num_patterns, serial.num_patterns);
            assert_eq!(
                merged.result_fingerprint(),
                golden,
                "seed={seed} shards={shards}: sharded merge diverged from serial run"
            );
        }
        // a different thread count on the sharded side must not matter
        let threaded = HdfTestFlow::prepare(
            &circuit,
            &FlowConfig {
                seed,
                threads: 8,
                ..FlowConfig::default()
            },
        );
        let merged = run_sharded(&threaded, &patterns, 4);
        assert_eq!(merged.result_fingerprint(), golden, "seed={seed} threads=8");
    }
}

#[test]
fn a_stopped_shard_is_incomplete_until_it_resumes_to_the_serial_result() {
    let circuit = random_circuit(9);
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    let patterns = flow.generate_patterns(Some(8));
    let golden = flow.try_analyze(&patterns).unwrap().result_fingerprint();

    let dir = tmp("resume");
    std::fs::create_dir_all(&dir).unwrap();
    let files = ShardFiles::new(&dir);
    // Shard 0 stops after its first band, the way an evicted worker does.
    // One thread makes bands of 4 patterns, so a band remains.
    let token = fastmon_obs::CancelToken::new();
    let stopping = HdfTestFlow::prepare(
        &circuit,
        &FlowConfig {
            threads: 1,
            ..FlowConfig::default()
        },
    )
    .with_cancel(token.clone());
    let first = ShardSpec {
        shard: 0,
        shards: 3,
    };
    let stopped = files.run_to_result(&stopping, &patterns, first, &mut |p| {
        if matches!(p, CampaignProgress::BandCheckpointed { .. }) {
            token.cancel();
        }
    });
    assert!(
        matches!(stopped, Err(FlowError::Cancelled { .. })),
        "a band must remain after the first: {stopped:?}"
    );
    assert!(!files.landed(&flow, &patterns, first));
    match files.merge(&flow, &patterns, 3) {
        Err(FlowError::ShardResult {
            shard: 0, reason, ..
        }) => assert!(reason.contains("incomplete"), "got {reason}"),
        other => panic!("expected shard 0 to be incomplete, got {other:?}"),
    }

    let mut events_per_shard = vec![0usize; 3];
    for spec in ShardSpec::all(3) {
        files
            .run_to_result(&flow, &patterns, spec, &mut |_| {
                events_per_shard[spec.shard] += 1;
            })
            .unwrap();
    }
    assert_eq!(
        flow.metrics().checkpoint.resumes.get(),
        1,
        "the stopped shard resumes"
    );
    let merged = files.merge(&flow, &patterns, 3).unwrap();
    assert_eq!(merged.result_fingerprint(), golden);
    assert!(
        events_per_shard.iter().all(|&n| n > 0),
        "every shard must surface progress events: {events_per_shard:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_campaign_without_patterns_lands_and_merges() {
    let circuit = random_circuit(3);
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    let patterns = TestSet::new(&circuit);
    let serial = flow.try_analyze(&patterns).unwrap();
    let dir = tmp("no-patterns");
    let files = ShardFiles::new(&dir);
    for spec in ShardSpec::all(3) {
        files
            .run_to_result(&flow, &patterns, spec, &mut |_| {})
            .unwrap();
        assert!(files.landed(&flow, &patterns, spec));
    }
    let merged = files.merge(&flow, &patterns, 3).unwrap();
    assert_eq!(merged.num_faults(), serial.num_faults());
    assert_eq!(merged.result_fingerprint(), serial.result_fingerprint());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_mismatched_pattern_counts() {
    let circuit = random_circuit(11);
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    let p8 = flow.generate_patterns(Some(8));
    let p5 = flow.generate_patterns(Some(5));
    let a = run_shard(&flow, &p8, 0, 2);
    let b = run_shard(&flow, &p5, 1, 2);
    match DetectionAnalysis::merge([a, b]) {
        Err(FlowError::ShardMerge {
            shard,
            got,
            expected,
        }) => {
            assert_eq!(shard, 1);
            assert_eq!(got, p5.len());
            assert_eq!(expected, p8.len());
        }
        other => panic!("expected ShardMerge error, got {other:?}"),
    }
}

#[test]
fn merging_nothing_yields_the_empty_analysis() {
    let merged = DetectionAnalysis::merge([]).unwrap();
    assert_eq!(merged.num_faults(), 0);
    assert_eq!(merged.num_patterns, 0);
    assert!(merged.targets.is_empty());
}

#[test]
fn landed_shard_results_merge_bit_identical_and_are_idempotent() {
    let circuit = random_circuit(13);
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    let patterns = flow.generate_patterns(Some(8));
    let golden = flow.try_analyze(&patterns).unwrap().result_fingerprint();
    let dir = tmp("results");
    std::fs::create_dir_all(&dir).unwrap();
    let files = ShardFiles::new(&dir);
    for spec in ShardSpec::all(3) {
        let fp = files
            .run_to_result(&flow, &patterns, spec, &mut |_| {})
            .unwrap();
        assert_eq!(fp, spec.fingerprint(flow.campaign_fingerprint(&patterns)));
        assert!(files.landed(&flow, &patterns, spec));
        // the finished checkpoint stays: it is the shard's result
        assert!(files.checkpoint(spec).path().exists());
        // re-dispatch after landing is free: no band is re-simulated
        let mut bands = 0;
        let again = files
            .run_to_result(&flow, &patterns, spec, &mut |p| {
                bands += usize::from(matches!(p, CampaignProgress::BandCheckpointed { .. }));
            })
            .unwrap();
        assert_eq!(again, fp);
        assert_eq!(bands, 0);
    }
    assert!(
        std::fs::read_dir(&dir)
            .unwrap()
            .all(|entry| entry.unwrap().path().extension() != Some("result".as_ref())),
        "no shard lands a .result file"
    );
    let merged = files.merge(&flow, &patterns, 3).unwrap();
    assert_eq!(
        merged.result_fingerprint(),
        golden,
        "merge of landed shard results diverged from the serial run"
    );
    // a missing shard checkpoint is a typed, shard-attributed error
    std::fs::remove_file(
        files
            .checkpoint(ShardSpec {
                shard: 1,
                shards: 3,
            })
            .path(),
    )
    .unwrap();
    match files.merge(&flow, &patterns, 3) {
        Err(FlowError::ShardResult { shard: 1, .. }) => {}
        other => panic!("expected ShardResult error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merging_a_single_part_is_identity() {
    let circuit = random_circuit(5);
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    let patterns = flow.generate_patterns(Some(6));
    let serial = flow.try_analyze(&patterns).unwrap();
    let golden = serial.result_fingerprint();
    let num_faults = serial.num_faults();
    let merged = DetectionAnalysis::merge([serial]).unwrap();
    assert_eq!(merged.num_faults(), num_faults);
    assert_eq!(merged.result_fingerprint(), golden);
}

#[test]
fn shard_ranges_partition_the_candidates() {
    for faults in [0usize, 1, 7, 100] {
        for shards in [1usize, 2, 3, 8] {
            let ranges: Vec<_> = ShardSpec::all(shards).map(|s| s.range(faults)).collect();
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[shards - 1].end, faults);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }
    assert_eq!(ShardSpec::all(0).count(), 1);
}

#[test]
fn shard_fingerprints_separate_coordinates_and_campaigns() {
    let a = ShardSpec {
        shard: 0,
        shards: 2,
    };
    let b = ShardSpec {
        shard: 1,
        shards: 2,
    };
    let c = ShardSpec {
        shard: 0,
        shards: 3,
    };
    assert_ne!(a.fingerprint(7), b.fingerprint(7));
    assert_ne!(a.fingerprint(7), c.fingerprint(7));
    assert_ne!(a.fingerprint(7), a.fingerprint(8));
}

#[test]
fn the_shipped_test_set_round_trips_bit_identically() {
    let circuit = random_circuit(17);
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    let patterns = flow.generate_patterns(Some(12));
    assert!(!patterns.is_empty());
    let first = ShardFiles::new(tmp("test-set-a"));
    first.land_test_set(&flow, &patterns).unwrap();
    let (key, loaded) = first.load_test_set(&circuit).unwrap();
    assert_eq!(key, flow.campaign_fingerprint(&patterns));
    assert_eq!(loaded, patterns);
    // landing the loaded set again reproduces the file byte for byte
    let second = ShardFiles::new(tmp("test-set-b"));
    second.land_test_set(&flow, &loaded).unwrap();
    let file = |files: &ShardFiles| std::fs::read(files.dir().join(TEST_SET_FILE)).unwrap();
    assert_eq!(file(&first), file(&second));
    // the write was atomic: no temp file is left behind
    assert_eq!(std::fs::read_dir(first.dir()).unwrap().count(), 1);
    // a test set is never mistaken for a checkpoint
    assert_eq!(
        CheckpointStore::new(first.dir().join(TEST_SET_FILE))
            .load()
            .unwrap_err(),
        CheckpointError::BadMagic
    );
    for files in [first, second] {
        let _ = std::fs::remove_dir_all(files.dir());
    }
}

#[test]
fn a_test_set_for_another_circuit_is_a_typed_error() {
    let circuit = random_circuit(19);
    let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
    let patterns = flow.generate_patterns(Some(4));
    let files = ShardFiles::new(tmp("foreign"));
    files.land_test_set(&flow, &patterns).unwrap();
    let c17 = fastmon_netlist::library::c17();
    assert!(matches!(
        files.load_test_set(&c17),
        Err(FlowError::Atpg(AtpgError::WidthMismatch { .. }))
    ));
    std::fs::remove_file(files.dir().join(TEST_SET_FILE)).unwrap();
    assert!(matches!(
        files.load_test_set(&circuit),
        Err(FlowError::Checkpoint(CheckpointError::Missing))
    ));
    let _ = std::fs::remove_dir_all(files.dir());
}

/// Serial golden fingerprint plus the 8 per-shard analyses, computed
/// once — the property below exercises merge *groupings*, which are
/// pure data-plumbing, so 128 cases stay cheap.
fn split_fixture() -> &'static (u64, Vec<DetectionAnalysis>) {
    static FIX: std::sync::OnceLock<(u64, Vec<DetectionAnalysis>)> = std::sync::OnceLock::new();
    FIX.get_or_init(|| {
        let circuit = random_circuit(7);
        let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
        let patterns = flow.generate_patterns(Some(6));
        let golden = flow.try_analyze(&patterns).unwrap().result_fingerprint();
        let parts = (0..8)
            .map(|shard| run_shard(&flow, &patterns, shard, 8))
            .collect();
        (golden, parts)
    })
}

use proptest::prelude::*;

proptest! {
    // Merge is associative: any contiguous grouping of the shard parts,
    // merged group-by-group and then merged again, is bit-identical to
    // the flat merge (and to the serial run). `mask` bit `i` cuts the
    // partition between shard `i` and `i+1`.
    #[test]
    fn merge_of_merges_over_random_splits_matches_serial(mask in any::<u8>()) {
        let (golden, parts) = split_fixture();
        let mut groups: Vec<Vec<DetectionAnalysis>> = vec![Vec::new()];
        for (i, part) in parts.iter().cloned().enumerate() {
            groups.last_mut().unwrap().push(part);
            if i + 1 < parts.len() && mask & (1 << i) != 0 {
                groups.push(Vec::new());
            }
        }
        let merged_groups: Vec<DetectionAnalysis> = groups
            .into_iter()
            .map(|g| DetectionAnalysis::merge(g).unwrap())
            .collect();
        let merged = DetectionAnalysis::merge(merged_groups).unwrap();
        prop_assert_eq!(merged.result_fingerprint(), *golden);
    }
}
