//! Wall-clock benches for the two dominant campaign phases: the
//! pattern-parallel band loop of `analyze()` (1 vs 4 worker threads on a
//! scaled `p89k` stand-in) and the testability-guided PODEM inside
//! `generate()` (1 vs 2 worker threads).
//!
//! The band pair is the regression tripwire for the per-worker scratch
//! rework: before it, the 4-thread run allocated ~2× the waveforms of the
//! single-thread run and was *slower* on a serial host; after it both
//! counts are flat and t4 ≤ t1. The PODEM pair runs the guided engine end
//! to end, sequentially and fault-parallel. One instrumented run per
//! thread count asserts that both produce the same test set and the same
//! PODEM counters, and prints the backtracks-per-call ratio so a guidance
//! regression (SCOAP ordering or static learning going stale) shows up in
//! the bench log even when the timing noise hides it.
//!
//! Set `FASTMON_BENCH_QUICK=1` for a smoke run (CI): tiny sample counts
//! that still exercise every hot path end to end.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use fastmon_atpg::AtpgConfig;
use fastmon_core::{FlowConfig, HdfTestFlow};
use fastmon_netlist::generate::{CircuitProfile, GeneratorConfig};

fn flow_config(threads: usize) -> FlowConfig {
    FlowConfig {
        threads,
        max_faults: Some(1_500),
        ..FlowConfig::default()
    }
}

fn bench_band_scaling(c: &mut Criterion) {
    let profile = CircuitProfile::named("p89k")
        .expect("p89k is a built-in paper profile")
        .scaled(1_500.0 / 88_000.0);
    let circuit = profile.generate(1).expect("profile generates");
    let base = HdfTestFlow::prepare(&circuit, &flow_config(1));
    let patterns = base.generate_patterns(Some(16));

    for threads in [1usize, 4] {
        let flow = HdfTestFlow::prepare(&circuit, &flow_config(threads));
        c.bench_function(format!("band/analyze_p89k_t{threads}"), |b| {
            b.iter(|| std::hint::black_box(flow.analyze(&patterns)))
        });
        let allocs = flow.metrics().sim.waveform_allocs.get();
        let reuses = flow.metrics().sim.waveform_reuses.get();
        eprintln!(
            "band/analyze_p89k_t{threads}: {allocs} waveform allocs, {reuses} reuses \
             (cumulative over all bench iterations)"
        );
    }

    let mid = GeneratorConfig::new("mid")
        .gates(800)
        .flip_flops(48)
        .inputs(16)
        .outputs(8)
        .depth(14)
        .generate(5)
        .expect("valid generator config");

    let mut runs = Vec::new();
    for threads in [1usize, 2] {
        let config = AtpgConfig {
            threads,
            ..AtpgConfig::default()
        };
        c.bench_function(format!("podem/generate_guided_mid800_t{threads}"), |b| {
            b.iter(|| std::hint::black_box(fastmon_atpg::generate(&mid, &config)))
        });

        // One instrumented run outside the timing loop: the backtracks/call
        // ratio is the quantity the SCOAP + static-learning guidance
        // halved; log it so bench output records the guidance level, not
        // just time.
        let metrics = fastmon_obs::AtpgMetrics::new();
        let result = fastmon_atpg::generate_with_metrics(&mid, &config, Some(&metrics));
        let calls = metrics.podem_calls.get().max(1);
        eprintln!(
            "podem/generate_guided_mid800_t{threads}: {} backtracks over {} calls \
             ({:.1}/call), {} aborts, {} learned-untestable, {} outcomes discarded, \
             {} detected",
            metrics.podem_backtracks.get(),
            calls,
            metrics.podem_backtracks.get() as f64 / calls as f64,
            metrics.podem_aborts.get(),
            metrics.podem_learned_untestable.get(),
            metrics.podem_outcomes_discarded.get(),
            result.detected,
        );
        let counters = [
            metrics.podem_calls.get(),
            metrics.podem_backtracks.get(),
            metrics.podem_implications.get(),
            metrics.podem_aborts.get(),
            metrics.podem_learned_untestable.get(),
            metrics.podem_necessity_assignments.get(),
        ];
        runs.push((result.test_set, counters));
    }
    // the fault-parallel phase must be the sequential loop, decision for
    // decision
    assert_eq!(
        runs[0].0, runs[1].0,
        "PODEM at 2 threads changed the test set"
    );
    assert_eq!(
        runs[0].1, runs[1].1,
        "PODEM at 2 threads changed its counters"
    );
}

/// Smoke mode for CI: same code paths, tiny time budget.
fn config() -> Criterion {
    if std::env::var("FASTMON_BENCH_QUICK").is_ok_and(|v| v != "0") {
        Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(200))
            .warm_up_time(Duration::from_millis(50))
    } else {
        Criterion::default()
            .sample_size(10)
            .measurement_time(Duration::from_secs(8))
            .warm_up_time(Duration::from_secs(2))
    }
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_band_scaling
}
criterion_main!(benches);
