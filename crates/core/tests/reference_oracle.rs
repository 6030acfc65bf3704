//! Differential oracle for the fault-simulation campaign: on random small
//! generated circuits, random delay-variation seeds, random two-vector
//! patterns and random glitch thresholds, `DetectionAnalysis` must report
//! exactly the per-pattern detection ranges and raw unions of the naive
//! whole-circuit reference simulator in `support`, at 1 and 2 threads,
//! and both as one campaign and as 3 in-process fault shards merged with
//! `DetectionAnalysis::merge`.
//!
//! The campaign's cone plans, event-driven cone walk, observer tables,
//! pooled scratch, fault collapsing and shard partition are all absent
//! from the reference, so a disagreement pins a bug in one of them.

mod support;

use fastmon_atpg::{TestPattern, TestSet};
use fastmon_core::{Campaign, DetectionAnalysis, FlowConfig, HdfTestFlow, ShardSpec};
use fastmon_netlist::generate::GeneratorConfig;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_circuit(seed: u64, gates: usize) -> fastmon_netlist::Circuit {
    GeneratorConfig::new("oracle")
        .gates(gates)
        .flip_flops(2 + gates / 10)
        .inputs(3)
        .outputs(2)
        .depth(3 + (seed % 4) as u32)
        .generate(seed)
        .expect("valid generator config")
}

/// `count` random launch/capture vector pairs over the circuit's sources.
fn random_patterns(circuit: &fastmon_netlist::Circuit, count: usize, seed: u64) -> TestSet {
    let mut set = TestSet::new(circuit);
    let width = set.sources().len();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..count {
        let launch = (0..width).map(|_| rng.gen()).collect();
        let capture = (0..width).map(|_| rng.gen()).collect();
        set.push(TestPattern::new(launch, capture));
    }
    set
}

/// Every shard of a `shards`-way fault partition, run in process and
/// merged.
fn run_sharded(flow: &HdfTestFlow<'_>, patterns: &TestSet, shards: usize) -> DetectionAnalysis {
    DetectionAnalysis::merge((0..shards).map(|shard| {
        flow.run(
            patterns,
            Campaign {
                shard: Some(ShardSpec { shard, shards }),
                ..Campaign::default()
            },
        )
        .expect("an in-process shard campaign cannot fail")
    }))
    .expect("shards of one test set merge")
}

proptest! {
    #[test]
    fn campaign_matches_the_reference_simulator(
        circuit in (0..10_000u64, 8..64usize),
        variation_seed in 0..10_000u64,
        pattern_seed in 0..10_000u64,
        shape in (1..8usize, 0.0..12.0f64),
    ) {
        let (circuit_seed, gates) = circuit;
        let (num_patterns, glitch_threshold) = shape;
        let circuit = random_circuit(circuit_seed, gates);
        let patterns = random_patterns(&circuit, num_patterns, pattern_seed);
        let config = FlowConfig {
            seed: variation_seed,
            glitch_threshold,
            ..FlowConfig::default()
        };
        let flow = HdfTestFlow::prepare(&circuit, &config);
        let (per_pattern, raw_union) = support::analyze(
            &circuit,
            flow.annotation(),
            flow.candidate_faults(),
            &patterns,
            flow.clock().t_nom,
            glitch_threshold,
        );
        for threads in [1usize, 2] {
            let flow = HdfTestFlow::prepare(&circuit, &FlowConfig { threads, ..config.clone() });
            for shards in [1usize, 3] {
                let analysis = if shards == 1 {
                    flow.analyze(&patterns)
                } else {
                    run_sharded(&flow, &patterns, shards)
                };
                prop_assert_eq!(
                    &analysis.per_pattern,
                    &per_pattern,
                    "threads={} shards={}: per-pattern ranges diverge from the reference",
                    threads,
                    shards
                );
                prop_assert_eq!(
                    &analysis.raw_union,
                    &raw_union,
                    "threads={} shards={}: raw unions diverge from the reference",
                    threads,
                    shards
                );
            }
        }
    }
}

/// The property above is only as strong as the detections it compares:
/// a fixed case must give the reference real work.
#[test]
fn the_reference_sees_detections() {
    let circuit = random_circuit(7, 40);
    let patterns = random_patterns(&circuit, 4, 7);
    let config = FlowConfig::default();
    let flow = HdfTestFlow::prepare(&circuit, &config);
    let (per_pattern, _) = support::analyze(
        &circuit,
        flow.annotation(),
        flow.candidate_faults(),
        &patterns,
        flow.clock().t_nom,
        config.glitch_threshold,
    );
    let detected: usize = per_pattern.iter().map(Vec::len).sum();
    assert!(
        detected > 0,
        "the reference detected nothing: the oracle is vacuous"
    );
}
