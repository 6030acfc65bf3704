//! Chaos-engineering suite: every injected fault must surface as a typed
//! error or a documented degraded result — never a panic.

use std::time::Duration;

use fastmon_atpg::{TestPattern, TestSet};
use fastmon_bench::chaos;
use fastmon_core::report::table3_row;
use fastmon_core::{
    CheckpointError, CheckpointStore, FlowConfig, FlowError, HdfTestFlow, ScheduleError, Solver,
};
use fastmon_netlist::generate::CircuitProfile;
use fastmon_netlist::{bench, library, CircuitBuilder, NetlistError};
use fastmon_timing::{sdf, DelayAnnotation, DelayModel, TimingError};

mod support;

// ---------------------------------------------------------------- netlists

#[test]
fn truncated_netlist_is_a_typed_parse_error() {
    let s27 = library::s27();
    let text = fastmon_netlist::bench::to_string(&s27);
    let err = bench::parse(&chaos::truncated_bench(&text), "s27-cut").unwrap_err();
    assert!(
        matches!(
            err,
            NetlistError::UndrivenNet { .. } | NetlistError::ParseBench { .. }
        ),
        "got {err:?}"
    );
}

#[test]
fn cyclic_netlist_is_a_typed_cycle_error() {
    let err = bench::parse(chaos::cyclic_bench(), "cyclic").unwrap_err();
    assert!(
        matches!(err, NetlistError::CombinationalCycle { .. }),
        "got {err:?}"
    );
}

#[test]
fn empty_circuit_is_rejected_by_the_flow() {
    let circuit = CircuitBuilder::new("void").finish().expect("empty builds");
    let err = HdfTestFlow::try_prepare(&circuit, &FlowConfig::default()).unwrap_err();
    assert!(
        matches!(err, FlowError::Netlist(NetlistError::EmptyCircuit { .. })),
        "got {err:?}"
    );
}

// ---------------------------------------------------------------- timing

#[test]
fn nan_sdf_delay_is_a_typed_timing_error() {
    let c = library::c17();
    let annot = DelayAnnotation::nominal(&c, &DelayModel::nangate45_like());
    let good = sdf::to_string(&c, &annot);
    // poison the first IOPATH rise value
    let first_value = good
        .split("IOPATH A Z (")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .expect("sdf has an IOPATH");

    let nan = chaos::poisoned_sdf(&good, first_value, "nan");
    let err = sdf::parse(&nan, &c, 0.2).unwrap_err();
    assert!(
        matches!(
            err,
            TimingError::Sdf(_) | TimingError::NonFiniteDelay { .. }
        ),
        "got {err:?}"
    );

    let negative = chaos::poisoned_sdf(&good, first_value, "-3.5");
    let err = sdf::parse(&negative, &c, 0.2).unwrap_err();
    assert!(
        matches!(err, TimingError::NegativeDelay { .. }),
        "negative delay must be rejected, got {err:?}"
    );
}

// ---------------------------------------------------------------- patterns

#[test]
fn empty_and_single_pattern_sets_degrade_gracefully() {
    let c = library::s27();
    let config = FlowConfig {
        threads: 1,
        ..FlowConfig::default()
    };
    let flow = HdfTestFlow::prepare(&c, &config);

    // empty set: zero detections, empty (feasible) schedule, no panic
    let empty = TestSet::new(&c);
    let analysis = flow.analyze(&empty);
    assert_eq!(analysis.num_patterns, 0);
    assert!(analysis.targets.is_empty());
    let schedule = flow
        .try_schedule(&analysis, Solver::Ilp)
        .expect("empty campaign schedules trivially");
    assert_eq!(schedule.num_frequencies(), 0);

    // single pattern: runs end to end
    let mut single = TestSet::new(&c);
    let w = single.sources().len();
    single.push(TestPattern::new(vec![false; w], vec![true; w]));
    let analysis = flow.analyze(&single);
    assert_eq!(analysis.num_patterns, 1);
    let _ = flow
        .try_schedule(&analysis, Solver::Ilp)
        .expect("single-pattern campaign schedules");
}

#[test]
fn invalid_coverage_targets_are_typed_errors() {
    let c = library::s27();
    let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
    let patterns = flow.generate_patterns(None);
    let analysis = flow.analyze(&patterns);
    for cov in [0.0, -0.5, 1.5, f64::NAN] {
        let err = flow
            .try_schedule_with_coverage(&analysis, Solver::Greedy, cov)
            .unwrap_err();
        assert!(
            matches!(err, ScheduleError::InvalidCoverage { .. }),
            "cov {cov}: got {err:?}"
        );
    }
}

// ---------------------------------------------------------------- checkpoints

/// `recover_from_checkpoint` from a checkpoint of one band.
fn corrupted_checkpoint_recovers(tag: &str, corrupt: impl Fn(&std::path::Path)) {
    recover_from_checkpoint(tag, 1, corrupt);
}

/// Stops a campaign after `bands` saves, damages the checkpoint with
/// `corrupt`, then re-runs: the flow must resume from what still loads or
/// log-and-restart, producing the same analysis as a clean run. Returns
/// how often the re-run resumed.
fn recover_from_checkpoint(tag: &str, bands: usize, corrupt: impl Fn(&std::path::Path)) -> u64 {
    let c = library::s27();
    let config = FlowConfig {
        threads: 1,
        ..FlowConfig::default()
    };
    let flow = HdfTestFlow::prepare(&c, &config);
    let patterns = flow.generate_patterns(None);
    let baseline = flow.analyze(&patterns);

    let dir = chaos::scratch_dir(tag);
    let path = dir.join("s27.fmck");
    let stopped = support::run_until_band(
        &c,
        &config,
        &patterns,
        &CheckpointStore::new(&path),
        None,
        bands,
    );
    assert!(
        matches!(stopped, Err(FlowError::Cancelled { .. })),
        "a band must remain after band {bands}: {stopped:?}"
    );
    assert!(path.exists());
    corrupt(&path);

    let recovered = flow
        .analyze_resumable(&patterns, &CheckpointStore::new(&path))
        .expect("a damaged checkpoint resumes or restarts cleanly");
    assert_eq!(recovered.per_pattern, baseline.per_pattern);
    assert_eq!(recovered.raw_union, baseline.raw_union);
    assert_eq!(recovered.verdicts, baseline.verdicts);
    std::fs::remove_dir_all(&dir).ok();
    flow.metrics().checkpoint.resumes.get()
}

#[test]
fn bit_flipped_checkpoint_restarts_cleanly() {
    corrupted_checkpoint_recovers("flip", |p| {
        let len = std::fs::metadata(p).unwrap().len() as usize;
        chaos::flip_byte(p, len / 2, 0x40).unwrap();
    });
}

#[test]
fn version_bumped_checkpoint_restarts_cleanly() {
    // byte 4 is the low byte of the little-endian format version
    corrupted_checkpoint_recovers("version", |p| {
        chaos::flip_byte(p, 4, 0xff).unwrap();
    });
}

#[test]
fn truncated_checkpoint_restarts_cleanly() {
    corrupted_checkpoint_recovers("trunc", |p| {
        let len = std::fs::metadata(p).unwrap().len();
        chaos::truncate_file(p, len / 3).unwrap();
    });
}

#[test]
fn checkpoint_cut_inside_its_header_restarts_cleanly() {
    let resumes = recover_from_checkpoint("header", 1, |p| {
        chaos::truncate_file(p, 20).unwrap();
    });
    assert_eq!(resumes, 0);
}

#[test]
fn torn_append_resumes_from_the_complete_records() {
    // Two saves leave the header and two band records; a cut inside the
    // second is an append that never finished, and the campaign resumes
    // after the first band.
    let resumes = recover_from_checkpoint("torn", 2, |p| {
        let len = std::fs::metadata(p).unwrap().len();
        chaos::truncate_file(p, len - 5).unwrap();
        let first_band = CheckpointStore::new(p)
            .load()
            .expect("complete records load");
        assert!(first_band.next_pattern > 0);
    });
    assert_eq!(resumes, 1);
}

#[test]
fn checkpoint_decode_errors_are_typed() {
    let dir = chaos::scratch_dir("typed");
    let path = dir.join("junk.fmck");
    std::fs::write(&path, b"definitely not a checkpoint").unwrap();
    let err = CheckpointStore::new(&path).load().unwrap_err();
    assert_eq!(err, CheckpointError::BadMagic);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------- solver

#[test]
fn zero_duration_ilp_deadline_degrades_with_a_note() {
    let c = library::s27();
    let config = FlowConfig {
        threads: 1,
        ilp_deadline: Duration::from_millis(0),
        ..FlowConfig::default()
    };
    let flow = HdfTestFlow::prepare(&c, &config);
    let patterns = flow.generate_patterns(None);
    let analysis = flow.analyze(&patterns);
    let schedule = flow
        .try_schedule(&analysis, Solver::Ilp)
        .expect("deadline expiry degrades, not errors");
    // Either the reductions solved the instance exactly (optimal) or the
    // greedy fallback was used and the degradation is documented.
    assert!(
        schedule.selection.optimal || !schedule.notes.is_empty(),
        "deadline fallback must be documented: optimal={} notes={:?}",
        schedule.selection.optimal,
        schedule.notes
    );

    // A 383-gate s13207 stand-in whose instances the reductions leave
    // open: both stages degrade, every note is single-spaced prose, and
    // Table III keeps each note text once.
    let profile = CircuitProfile::named("s13207").expect("paper profile");
    let c = profile
        .scaled(300.0 / profile.gates as f64)
        .generate(1)
        .expect("valid profile");
    let flow = HdfTestFlow::prepare(&c, &config);
    let patterns = flow.generate_patterns(None);
    let analysis = flow.analyze(&patterns);
    let schedule = flow
        .try_schedule(&analysis, Solver::Ilp)
        .expect("deadline expiry degrades, not errors");
    assert!(!schedule.selection.optimal);
    for stage in ["frequency selection", "pattern selection"] {
        assert!(
            schedule.notes.iter().any(|n| n.contains(stage)),
            "no {stage} note in {:?}",
            schedule.notes
        );
    }
    for note in &schedule.notes {
        assert!(
            !note.contains("  "),
            "note carries a run of spaces: {note:?}"
        );
    }
    let coverages = [0.99, 0.98];
    let reported: usize = coverages
        .iter()
        .map(|&cov| {
            flow.schedule_with_coverage(&analysis, Solver::Ilp, cov)
                .notes
                .len()
        })
        .sum();
    let row = table3_row(&flow, &analysis, patterns.len(), &coverages);
    let texts: Vec<&str> = row
        .notes
        .iter()
        .map(|n| n.split_once(": ").expect("a cov prefix").1)
        .collect();
    for (i, text) in texts.iter().enumerate() {
        assert!(!texts[..i].contains(text), "note {text:?} repeated");
    }
    assert!(
        !row.notes.is_empty() && row.notes.len() < reported,
        "{reported} notes reported, {:?} kept",
        row.notes
    );
}
