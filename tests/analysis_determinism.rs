//! The fault-simulation campaign must be bit-identical for any worker
//! thread count: work items are merged in fixed pattern order, so
//! `threads = 8` and `threads = 1` produce exactly the same analysis.

use fastmon::core::{DetectionAnalysis, FlowConfig, HdfTestFlow};
use fastmon::netlist::generate::CircuitProfile;
use fastmon::netlist::{library, Circuit};

fn analyze_with_threads(circuit: &Circuit, threads: usize) -> DetectionAnalysis {
    let config = FlowConfig {
        threads,
        max_faults: Some(400),
        ..FlowConfig::default()
    };
    let flow = HdfTestFlow::prepare(circuit, &config);
    let patterns = flow.generate_patterns(Some(24));
    flow.analyze(&patterns)
}

fn assert_bit_identical(circuit: &Circuit) {
    let single = analyze_with_threads(circuit, 1);
    let parallel = analyze_with_threads(circuit, 8);
    assert_eq!(single.num_patterns, parallel.num_patterns);
    assert_eq!(
        single.per_pattern, parallel.per_pattern,
        "per_pattern differs"
    );
    assert_eq!(single.raw_union, parallel.raw_union, "raw_union differs");
    assert_eq!(single.verdicts, parallel.verdicts, "verdicts differ");
    assert_eq!(single.targets, parallel.targets, "targets differ");
    assert_eq!(single.conv_range, parallel.conv_range, "conv_range differs");
    assert_eq!(single.fast_range, parallel.fast_range, "fast_range differs");
}

#[test]
fn s27_analysis_is_thread_count_invariant() {
    assert_bit_identical(&library::s27());
}

#[test]
fn paper_suite_stand_in_is_thread_count_invariant() {
    // a scaled-down p89k profile: same generator recipe as the paper
    // stand-ins, small enough for a test
    let profile = CircuitProfile::named("p89k")
        .expect("p89k is in the paper suite")
        .scaled(0.01);
    let circuit = profile.generate(7).expect("profile generates");
    assert_bit_identical(&circuit);
}
