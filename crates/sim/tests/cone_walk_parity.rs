//! Differential check of the event-driven cone walk. For every pin and
//! polarity fault of random generated circuits under random stimuli,
//! [`SimEngine::response_diff_planned`] (cone plan, level queue, observer
//! tables, pooled scratch) must return exactly what the unplanned
//! [`SimEngine::response_diff`] returns: that one re-simulates the whole
//! fanout cone and scans every observation point. Both run with and
//! without inertial filtering.
//!
//! The same walks pin the counter identity: summed over the simulated
//! cones, `nodes_evaluated + nodes_converged` equals the cone lengths
//! minus their seeds.

use fastmon_faults::{FaultList, Polarity, SmallDelayFault};
use fastmon_netlist::generate::GeneratorConfig;
use fastmon_netlist::{Circuit, CircuitBuilder, GateKind, PinRef};
use fastmon_obs::SimMetrics;
use fastmon_sim::{ConePlan, ConeScratch, SimEngine, Stimulus};
use fastmon_timing::{DelayAnnotation, DelayModel};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Runs every fault of `faults` through both walks under each stimulus,
/// asserts they agree and that the cone counters add up, and returns the
/// number of simulated cones.
fn assert_parity(
    circuit: &Circuit,
    annot: &DelayAnnotation,
    stimuli: &[Stimulus],
    faults: &FaultList,
    horizon: f64,
    inertial: Option<f64>,
) -> u64 {
    let metrics = SimMetrics::new();
    let mut engine = SimEngine::new(circuit, annot).with_metrics(&metrics);
    if let Some(fraction) = inertial {
        engine = engine.with_inertial_filtering(fraction);
    }
    let plans: Vec<Option<ConePlan>> = circuit
        .node_ids()
        .map(|id| {
            circuit
                .kind(id)
                .is_combinational()
                .then(|| ConePlan::new_with_metrics(circuit, id, Some(&metrics)))
        })
        .collect();
    let mut scratch = ConeScratch::new(circuit);
    let mut cone_nodes = 0u64;
    for (s, stim) in stimuli.iter().enumerate() {
        let base = engine.simulate(stim);
        for (_, fault) in faults.iter() {
            let plan = plans[fault.site.node().index()]
                .as_ref()
                .expect("faults sit on combinational gates");
            let direct = engine.response_diff(&base, fault, horizon);
            let simulated = metrics.cones_simulated.get();
            let planned = engine.response_diff_planned(&base, fault, plan, &mut scratch, horizon);
            assert_eq!(
                planned, direct,
                "{fault}, stimulus {s}, inertial {inertial:?}"
            );
            if metrics.cones_simulated.get() > simulated {
                cone_nodes += plan.cone().len() as u64 - 1;
            }
        }
    }
    assert_eq!(
        metrics.nodes_evaluated.get() + metrics.nodes_converged.get(),
        cone_nodes,
        "every simulated cone's non-seed nodes are either evaluated or converged"
    );
    metrics.cones_simulated.get()
}

fn random_stimuli(circuit: &Circuit, count: usize, seed: u64) -> Vec<Stimulus> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let bits: Vec<(bool, bool)> =
                (0..circuit.len()).map(|_| (rng.gen(), rng.gen())).collect();
            Stimulus::from_fn(circuit, |id| bits[id.index()])
        })
        .collect()
}

proptest! {
    #[test]
    fn planned_walk_matches_the_unplanned_reference(
        circuit in (0..10_000u64, 8..40usize),
        delay_seed in 0..10_000u64,
        stimulus_seed in 0..10_000u64,
        fault in (0.5..60.0f64, 10.0..400.0f64, 0.0..1.5f64),
    ) {
        let (circuit_seed, gates) = circuit;
        let (delta, horizon, inertial) = fault;
        let circuit = GeneratorConfig::new("parity")
            .gates(gates)
            .flip_flops(2 + gates / 8)
            .inputs(3)
            .outputs(2)
            .depth(3 + (circuit_seed % 5) as u32)
            .generate(circuit_seed)
            .expect("valid generator config");
        let annot =
            DelayAnnotation::with_variation(&circuit, &DelayModel::nangate45_like(), 0.2, delay_seed);
        let stimuli = random_stimuli(&circuit, 2, stimulus_seed);
        let faults = FaultList::sized(&circuit, |_| delta);
        for filter in [None, Some(inertial)] {
            assert_parity(&circuit, &annot, &stimuli, &faults, horizon, filter);
        }
    }
}

/// A gate driving a primary output and a flip-flop D pin, with a dead-end
/// branch that reaches no observation point.
fn shared_driver_netlist() -> Circuit {
    let mut b = CircuitBuilder::new("shared");
    b.add("a", GateKind::Input, &[]);
    b.add("b", GateKind::Input, &[]);
    b.add("q", GateKind::Dff, &["g"]);
    b.add("g", GateKind::And, &["a", "b"]);
    b.add("h", GateKind::Or, &["g", "q"]);
    b.add("dead", GateKind::Not, &["g"]);
    b.add("dead2", GateKind::Buf, &["dead"]);
    // observe points: h (0), g (1), then q's D pin (2), also driven by g
    b.mark_output("h");
    b.mark_output("g");
    b.finish().expect("valid circuit")
}

#[test]
fn shared_driver_and_dead_branch_match_the_reference() {
    let c = shared_driver_netlist();
    let g = c.find("g").unwrap();
    let h = c.find("h").unwrap();
    let plan = ConePlan::new(&c, g);
    assert_eq!(plan.cone(), &[g, h], "the dead-end branch is pruned");
    assert_eq!(plan.pruned_nodes(), 2);
    assert_eq!(plan.observers(), &[(0, h), (1, g), (2, g)]);

    let annot = DelayAnnotation::nominal(&c, &DelayModel::unit());
    let a = c.find("a").unwrap();
    let b = c.find("b").unwrap();
    // a rises with b held at 1 and q at 0: g and h both rise
    let rising = Stimulus::from_fn(&c, |id| (id == b, id == a || id == b));
    let engine = SimEngine::new(&c, &annot);
    let base = engine.simulate(&rising);
    let fault = SmallDelayFault::new(PinRef::Output(g), Polarity::SlowToRise, 0.5);
    let mut scratch = ConeScratch::new(&c);
    let planned = engine.response_diff_planned(&base, &fault, &plan, &mut scratch, 100.0);
    let ops: Vec<usize> = planned.iter().map(|&(op, _)| op).collect();
    assert_eq!(ops, [0, 1, 2], "one diff per observe point, in index order");
    assert_eq!(planned, engine.response_diff(&base, &fault, 100.0));

    let faults = FaultList::sized(&c, |_| 0.7);
    let stimuli = random_stimuli(&c, 8, 3);
    let simulated = assert_parity(&c, &annot, &stimuli, &faults, 100.0, None)
        + assert_parity(&c, &annot, &stimuli, &faults, 100.0, Some(0.5));
    assert!(simulated > 0, "no cone was simulated: the check is vacuous");
}
