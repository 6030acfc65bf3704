//! Equivalence of the counting gate kernel and the arena sweep with the
//! code they replaced, which lives on here as test-only references:
//!
//! * [`eval_gate_into`] against the merge that re-evaluated
//!   [`GateKind::eval`] over every input at each event time, for every
//!   gate kind at arities 1–12 (1 for the single-input kinds);
//! * [`SimEngine::simulate`] against the sweep that evaluated each gate
//!   through that merge into a side buffer, filtered the buffer and copied
//!   it onto the arena, on random generated circuits and stimuli with
//!   inertial filtering off and on.
//!
//! Gate-level edge times come from a 0.5 grid, so inputs toggle at the
//! same instant, and rise/fall pairs are equal, zero, on the grid (output
//! edges coincide) or apart (a slow edge is overtaken by a fast one and
//! both annihilate). Circuit-level runs use unit delays (every edge on an
//! integer grid) as well as the standard-cell model with and without
//! variation. Every comparison is exact.

use fastmon_netlist::generate::GeneratorConfig;
use fastmon_netlist::{Circuit, GateKind};
use fastmon_timing::{DelayAnnotation, DelayModel, Time};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{eval_gate_into, EvalScratch, SimEngine, SimResult, Stimulus, WaveRef, Waveform};

// ------------------------------------------------------------ references

/// The merge `eval_gate_into` replaced: at each event time, apply every
/// input's toggles, then re-evaluate the whole input vector.
fn reference_eval_gate_into<'a>(
    kind: GateKind,
    num_inputs: usize,
    input: impl Fn(usize) -> WaveRef<'a>,
    rise_delay: Time,
    fall_delay: Time,
    out: &mut Vec<Time>,
) -> bool {
    let mut values: Vec<bool> = (0..num_inputs).map(|k| input(k).initial()).collect();
    let mut cursors = vec![0usize; num_inputs];
    let initial = kind.eval(&values);
    out.clear();
    let mut current = initial;
    loop {
        let mut t = f64::INFINITY;
        for (k, &cursor) in cursors.iter().enumerate() {
            if let Some(&tt) = input(k).transitions().get(cursor) {
                t = t.min(tt);
            }
        }
        if t.is_infinite() {
            break;
        }
        for (k, cursor) in cursors.iter_mut().enumerate() {
            while input(k)
                .transitions()
                .get(*cursor)
                .is_some_and(|&tt| tt == t)
            {
                values[k] = !values[k];
                *cursor += 1;
            }
        }
        let new_value = kind.eval(&values);
        if new_value != current {
            current = new_value;
            let shifted = t + if new_value { rise_delay } else { fall_delay };
            match out.last() {
                Some(&last) if shifted <= last => {
                    out.pop();
                }
                _ => out.push(shifted),
            }
        }
    }
    initial
}

/// The in-place pulse filter over a whole side buffer.
fn reference_filter_pulses(transitions: &mut Vec<Time>, min_width: f64) {
    if min_width <= 0.0 || transitions.len() < 2 {
        return;
    }
    let mut w = 0usize;
    for i in 0..transitions.len() {
        let t = transitions[i];
        if w > 0 && t - transitions[w - 1] < min_width {
            w -= 1;
        } else {
            transitions[w] = t;
            w += 1;
        }
    }
    transitions.truncate(w);
}

/// The sweep `SimEngine::simulate` replaced: each gate evaluated into one
/// side buffer through an accessor over the finished nodes, filtered
/// there, then copied onto the arena.
fn reference_simulate(
    circuit: &Circuit,
    annot: &DelayAnnotation,
    inertial: Option<f64>,
    stim: &Stimulus,
) -> SimResult {
    let n = circuit.len();
    let mut result = SimResult {
        transitions: Vec::with_capacity(n),
        spans: vec![(0, 0); n],
        initial: vec![false; n],
    };
    let mut out: Vec<Time> = Vec::new();
    for &id in circuit.topo_order() {
        let node = circuit.node(id);
        let initial = match node.kind() {
            GateKind::Input | GateKind::Dff => {
                let launch = stim.launch(id);
                out.clear();
                if launch != stim.capture(id) {
                    out.push(0.0);
                }
                launch
            }
            GateKind::Const0 | GateKind::Const1 => {
                out.clear();
                node.kind() == GateKind::Const1
            }
            kind => {
                let fanins = node.fanins();
                let initial = reference_eval_gate_into(
                    kind,
                    fanins.len(),
                    |k| result.wave(fanins[k]),
                    annot.rise(id),
                    annot.fall(id),
                    &mut out,
                );
                if let Some(fraction) = inertial {
                    reference_filter_pulses(&mut out, fraction * annot.min_delay(id));
                }
                initial
            }
        };
        let start = u32::try_from(result.transitions.len()).expect("fits u32");
        result.transitions.extend_from_slice(&out);
        let end = u32::try_from(result.transitions.len()).expect("fits u32");
        result.spans[id.index()] = (start, end);
        result.initial[id.index()] = initial;
    }
    result
}

// ------------------------------------------------------------ strategies

/// A waveform whose edges sit on a 0.5 grid in `[0, 12)`.
fn arb_grid_wave() -> impl Strategy<Value = Waveform> {
    (any::<bool>(), proptest::collection::vec(0..24u32, 0..8)).prop_map(|(initial, mut ticks)| {
        ticks.sort_unstable();
        ticks.dedup();
        let times = ticks.into_iter().map(|k| f64::from(k) * 0.5).collect();
        Waveform::with_transitions(initial, times)
    })
}

/// A rise/fall pair: equal, one or both zero, on the grid, or apart.
fn arb_delays() -> impl Strategy<Value = (Time, Time)> {
    ((0..6u32, 0..8u32, 0..8u32), (0.0..4.0f64, 0.0..4.0f64)).prop_map(|((shape, i, j), (a, b))| {
        let (gi, gj) = (f64::from(i) * 0.5, f64::from(j) * 0.5);
        match shape {
            0 => (a, a),
            1 => (0.0, b),
            2 => (a, 0.0),
            3 => (0.0, 0.0),
            4 => (gi, gj),
            _ => (a, b),
        }
    })
}

/// The arity `kind` is evaluated at, given `available` inputs: the
/// single-input kinds take one, the others all.
fn arity(kind: GateKind, available: usize) -> usize {
    match kind {
        GateKind::Input | GateKind::Dff | GateKind::Buf | GateKind::Not => 1,
        _ => available,
    }
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

// ------------------------------------------------------------ properties

proptest! {
    #[test]
    fn counting_kernel_matches_the_reevaluating_merge(
        inputs in proptest::collection::vec(arb_grid_wave(), 1..13),
        moving in 0..5usize,
        delays in arb_delays(),
    ) {
        // `moving` < 4 holds every input from that index on, so zero, one
        // and two moving inputs among many held ones are common
        let inputs: Vec<Waveform> = inputs
            .into_iter()
            .enumerate()
            .map(|(k, w)| if moving < 4 && k >= moving { Waveform::constant(w.initial()) } else { w })
            .collect();
        let (rise, fall) = delays;
        // one scratch and one stale output buffer across every kind
        let mut scratch = EvalScratch::new();
        let mut out = vec![-1.0; 3];
        let mut expect = Vec::new();
        for kind in GateKind::ALL {
            let n = arity(kind, inputs.len());
            let initial = eval_gate_into(kind, n, |k| inputs[k].view(), rise, fall, &mut scratch, &mut out);
            let expect_initial =
                reference_eval_gate_into(kind, n, |k| inputs[k].view(), rise, fall, &mut expect);
            prop_assert_eq!(initial, expect_initial, "{} over {:?}", kind, &inputs[..n]);
            prop_assert_eq!(&out, &expect, "{} over {:?}, rise {} fall {}", kind, &inputs[..n], rise, fall);
        }
    }

    #[test]
    fn arena_sweep_matches_the_side_buffer_sweep(
        circuit in (0..10_000u64, 8..80usize),
        delays in (0..3u32, 0..10_000u64),
        stimulus_seed in 0..10_000u64,
        inertial in 0.0..1.5f64,
    ) {
        let (circuit_seed, gates) = circuit;
        let circuit = GeneratorConfig::new("sweep")
            .gates(gates)
            .flip_flops(2 + gates / 8)
            .inputs(3)
            .outputs(2)
            .depth(3 + (circuit_seed % 5) as u32)
            .generate(circuit_seed)
            .expect("valid generator config");
        let (model, delay_seed) = delays;
        let annot = match model {
            0 => DelayAnnotation::nominal(&circuit, &DelayModel::unit()),
            1 => DelayAnnotation::nominal(&circuit, &DelayModel::nangate45_like()),
            _ => DelayAnnotation::with_variation(&circuit, &DelayModel::nangate45_like(), 0.2, delay_seed),
        };
        let stimuli = random_stimuli(&circuit, 3, stimulus_seed);
        for filter in [None, Some(inertial)] {
            let mut engine = SimEngine::new(&circuit, &annot);
            if let Some(fraction) = filter {
                engine = engine.with_inertial_filtering(fraction);
            }
            for (s, stim) in stimuli.iter().enumerate() {
                prop_assert_eq!(
                    engine.simulate(stim),
                    reference_simulate(&circuit, &annot, filter, stim),
                    "stimulus {}, delay model {}, inertial {:?}", s, model, filter
                );
            }
        }
    }
}
