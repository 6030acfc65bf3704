//! Differential oracle for the fault-simulation campaign: on random small
//! generated circuits, random delay-variation seeds, random two-vector
//! patterns, random glitch thresholds and random monitor windows (`f_max`
//! factor, monitor fraction and delay elements), `DetectionAnalysis` must
//! report exactly the per-pattern detection ranges, raw unions,
//! conventional and monitored windows, verdicts and targets of the naive
//! whole-circuit reference in `support`, at 1 and 2 threads, and both as
//! one campaign and as 3 in-process fault shards merged with
//! `DetectionAnalysis::merge`.
//!
//! The campaign's cone plans, event-driven cone walk, observer tables,
//! pooled scratch, fault collapsing, shard partition, derived raw unions
//! and one-pass windows are all absent from the reference, so a
//! disagreement pins a bug in one of them.

mod support;

use fastmon_atpg::{TestPattern, TestSet};
use fastmon_core::{Campaign, DetectionAnalysis, FaultVerdict, FlowConfig, HdfTestFlow, ShardSpec};
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

/// The reference windows of every fault of `flow`'s campaign.
fn reference_windows(
    flow: &HdfTestFlow<'_>,
    raw_union: &[fastmon_faults::DetectionRange],
) -> Vec<support::Windows> {
    let clock = flow.clock();
    raw_union
        .iter()
        .map(|raw| {
            support::windows(
                raw,
                |op| flow.placement().is_monitored(op),
                flow.configs().delays(),
                clock.t_min,
                clock.t_nom,
            )
        })
        .collect()
}

proptest! {
    #[test]
    fn campaign_matches_the_reference_simulator(
        circuit in (0..10_000u64, 8..64usize),
        seeds in (0..10_000u64, 0..10_000u64),
        shape in (1..8usize, 0.0..12.0f64),
        monitors in (1.0..4.0f64, 0.0..1.0f64, proptest::collection::vec(0.01..0.5f64, 0..5)),
    ) {
        let (circuit_seed, gates) = circuit;
        let (variation_seed, pattern_seed) = seeds;
        let (num_patterns, glitch_threshold) = shape;
        let (fmax_factor, monitor_fraction, monitor_delays_rel) = monitors;
        let circuit = random_circuit(circuit_seed, gates);
        let patterns = random_patterns(&circuit, num_patterns, pattern_seed);
        let config = FlowConfig {
            seed: variation_seed,
            glitch_threshold,
            fmax_factor,
            monitor_fraction,
            monitor_delays_rel,
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
        let windows = reference_windows(&flow, &raw_union);
        let targets: Vec<usize> = windows
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.fast.is_empty() && !w.at_speed)
            .map(|(f, _)| f)
            .collect();
        for threads in [1usize, 2] {
            let flow = HdfTestFlow::prepare(&circuit, &FlowConfig { threads, ..config.clone() });
            for shards in [1usize, 3] {
                let analysis = if shards == 1 {
                    flow.analyze(&patterns)
                } else {
                    run_sharded(&flow, &patterns, shards)
                };
                prop_assert_eq!(
                    support::table_views(&analysis.per_pattern),
                    support::views(&per_pattern),
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
                for (f, w) in windows.iter().enumerate() {
                    prop_assert_eq!(
                        &analysis.conv_range[f],
                        &w.conv,
                        "threads={} shards={} fault {}: conventional window",
                        threads,
                        shards,
                        f
                    );
                    prop_assert_eq!(
                        &analysis.fast_range[f],
                        &w.fast,
                        "threads={} shards={} fault {}: monitored window",
                        threads,
                        shards,
                        f
                    );
                    let verdict = FaultVerdict {
                        detected_conv: !w.conv.is_empty(),
                        detected_prop: !w.fast.is_empty(),
                        at_speed_monitor: w.at_speed,
                    };
                    prop_assert_eq!(analysis.verdicts[f], verdict, "fault {}", f);
                }
                prop_assert_eq!(&analysis.targets, &targets);
            }
        }
    }
}

/// The property above is only as strong as the detections it compares:
/// a fixed case must give the reference real work, including faults that
/// only a monitor's shadow register observes inside the FAST window, and
/// the campaign must agree with it there.
#[test]
fn the_reference_sees_detections() {
    let circuit = random_circuit(9, 40);
    let patterns = random_patterns(&circuit, 6, 9);
    let config = FlowConfig {
        monitor_fraction: 1.0,
        ..FlowConfig::default()
    };
    let flow = HdfTestFlow::prepare(&circuit, &config);
    let (per_pattern, raw_union) = support::analyze(
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
    let windows = reference_windows(&flow, &raw_union);
    let conv = windows.iter().filter(|w| !w.conv.is_empty()).count();
    let monitor_only = windows
        .iter()
        .filter(|w| w.conv.is_empty() && !w.fast.is_empty())
        .count();
    assert!(
        conv > 0 && monitor_only > 0,
        "{conv} conventional and {monitor_only} monitor-only detections: \
         the window axis is vacuous"
    );
    let analysis = flow.analyze(&patterns);
    for (f, w) in windows.iter().enumerate() {
        assert_eq!(analysis.conv_range[f], w.conv, "fault {f}");
        assert_eq!(analysis.fast_range[f], w.fast, "fault {f}");
    }
}
