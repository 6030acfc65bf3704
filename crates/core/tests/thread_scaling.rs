//! Thread-scaling invariants of the fault-simulation campaign, exercised
//! on the paper-suite profile path (a scaled `p89k` stand-in — the same
//! route the table regenerators take).
//!
//! Two properties are pinned:
//!
//! 1. **Bit-identity**: `analyze()` at 1, 2, 4 and 8 threads produces the
//!    same verdicts, detection ranges and target set. The band loop's
//!    fixed `(pattern, chunk)` merge order guarantees this by
//!    construction; this test keeps it true.
//! 2. **Allocation flatness**: `waveform_allocs` counts the transition
//!    buffers the cone walk created because its worker's pool was empty
//!    (not heap allocations; `alloc_budget.rs` counts those). Every walk
//!    returns all its buffers, so each worker's pool stops at the largest
//!    set one walk holds at once, and the count stays within 2× of the
//!    single-thread figure at any thread count (plus a small per-worker
//!    additive slack for hosts with real parallelism, where each worker
//!    legitimately owns one scratch set). The pre-rework engine allocated
//!    per *band*, which doubled the count from 1 to 4 threads on the p89k
//!    profile.

use fastmon_core::{FlowConfig, HdfTestFlow};
use fastmon_netlist::generate::CircuitProfile;

fn flow_config(threads: usize) -> FlowConfig {
    FlowConfig {
        threads,
        max_faults: Some(1_500),
        ..FlowConfig::default()
    }
}

#[test]
fn analysis_is_bit_identical_and_alloc_flat_across_thread_counts() {
    let profile = CircuitProfile::named("p89k")
        .expect("p89k is a built-in paper profile")
        .scaled(1_500.0 / 88_000.0);
    let circuit = profile.generate(1).expect("profile generates");

    let base = HdfTestFlow::prepare(&circuit, &flow_config(1));
    let patterns = base.generate_patterns(Some(16));
    assert!(!patterns.is_empty());

    let reference = base.analyze(&patterns);
    let t1 = &base.metrics().sim;
    let t1_allocs = t1.waveform_allocs.get();

    // Profile-path wiring proof: the campaign built propagation plans and
    // its cone walks evaluated gates. `nodes_pruned_unobserved` is
    // legitimately 0 here — every gate of a generated netlist reaches an
    // output or flip-flop, so there is nothing to prune; `cone_plans_built`
    // is the counter that proves the plan/pruning pass actually executed.
    assert!(t1.cone_plans_built.get() > 0, "plan builds must be counted");
    assert!(
        t1.nodes_evaluated.get() > 0,
        "cone walks must evaluate gates on this path"
    );
    assert!(t1.cones_simulated.get() > 0);

    for threads in [2usize, 4, 8] {
        let flow = HdfTestFlow::prepare(&circuit, &flow_config(threads));
        let analysis = flow.analyze(&patterns);

        assert_eq!(
            analysis.verdicts, reference.verdicts,
            "threads={threads}: verdicts drifted"
        );
        assert_eq!(
            analysis.targets, reference.targets,
            "threads={threads}: target set drifted"
        );
        assert_eq!(
            analysis.per_pattern, reference.per_pattern,
            "threads={threads}: per-pattern detection ranges drifted"
        );
        assert_eq!(
            analysis.raw_union, reference.raw_union,
            "threads={threads}: union ranges drifted"
        );
        assert_eq!(
            analysis.conv_range, reference.conv_range,
            "threads={threads}: conventional ranges drifted"
        );
        assert_eq!(
            analysis.fast_range, reference.fast_range,
            "threads={threads}: monitor ranges drifted"
        );

        let allocs = flow.metrics().sim.waveform_allocs.get();
        let budget = t1_allocs * 2 + (threads as u64) * 8;
        assert!(
            allocs <= budget,
            "threads={threads}: {allocs} waveform allocs exceeds budget {budget} \
             (single-thread baseline {t1_allocs})"
        );
    }
}
