//! A deliberately naive reference fault simulator, the correctness oracle
//! for the campaign in `DetectionAnalysis`.
//!
//! It shares only the waveform type and three of its primitives with the
//! campaign (`Waveform`, `delayed_polarity`, `diff`), and none of its
//! optimizations: no counting gate kernel, no fault-free arena, no
//! activation check, no cone plans, no event-driven cone walk, no observer
//! tables, no pooled scratch. Gates are evaluated by [`eval_gate`], its
//! own naive merge. For every (fault, pattern) it simulates the *whole*
//! faulty circuit from scratch, then derives each
//! observation point's detection intervals straight from the paper's
//! semantics (Sec. III-B): the XOR of the fault-free and faulty waveforms
//! up to `t_nom`, clipped to `[0, t_nom)`, with glitches shorter than the
//! threshold removed.
//!
//! [`windows`] then derives each fault's observable windows and verdict
//! from its raw union, interval by interval with `IntervalSet::insert`:
//! no `union`, no batch builder and none of `fastmon-monitor`'s window
//! code.

use fastmon_atpg::TestSet;
use fastmon_faults::{
    DetectionRange, DetectionTable, FaultList, Interval, IntervalSet, RangeRef, SmallDelayFault,
};
use fastmon_netlist::{Circuit, GateKind, PinRef};
use fastmon_sim::{Stimulus, Waveform};
use fastmon_timing::{DelayAnnotation, Time};

/// A gate's output waveform, the naive way: at every instant at which some
/// input toggles, read every input's value there and re-evaluate
/// `GateKind::eval` over the whole input vector. An output change lands
/// at that instant plus the rise or fall delay of its new value; a change
/// that does not come after the previous output edge annihilates with it
/// (a slow edge overtaken by a fast one).
fn eval_gate(kind: GateKind, inputs: &[Waveform], rise: Time, fall: Time) -> Waveform {
    let mut values: Vec<bool> = inputs.iter().map(Waveform::initial).collect();
    let initial = kind.eval(&values);
    let mut instants: Vec<Time> = inputs
        .iter()
        .flat_map(|w| w.transitions().iter().copied())
        .collect();
    instants.sort_by(Time::total_cmp);
    instants.dedup();
    let mut edges: Vec<Time> = Vec::new();
    let mut current = initial;
    for t in instants {
        for (value, wave) in values.iter_mut().zip(inputs) {
            *value = wave.value_at(t);
        }
        let next = kind.eval(&values);
        if next != current {
            current = next;
            let edge = t + if next { rise } else { fall };
            if edges.last().is_some_and(|&last| edge <= last) {
                edges.pop();
            } else {
                edges.push(edge);
            }
        }
    }
    Waveform::with_transitions(initial, edges)
}

/// Every node's waveform for one stimulus, indexed by node id, with
/// `fault` (if any) injected:
///
/// * an output-pin fault delays the gate's own output on its polarity;
/// * an input-pin fault delays the waveform arriving at pin `k` before the
///   gate evaluates.
pub fn simulate_circuit(
    circuit: &Circuit,
    annot: &DelayAnnotation,
    stim: &Stimulus,
    fault: Option<&SmallDelayFault>,
) -> Vec<Waveform> {
    let mut waves = vec![Waveform::constant(false); circuit.len()];
    for &id in circuit.topo_order() {
        let node = circuit.node(id);
        let wave = match node.kind() {
            GateKind::Input | GateKind::Dff => {
                Waveform::step(stim.launch(id), stim.capture(id), 0.0)
            }
            GateKind::Const0 => Waveform::constant(false),
            GateKind::Const1 => Waveform::constant(true),
            kind => {
                let inputs: Vec<Waveform> = node
                    .fanins()
                    .iter()
                    .enumerate()
                    .map(|(k, &fi)| match fault {
                        Some(f) if f.site == PinRef::Input(id, k as u8) => {
                            waves[fi.index()].delayed_polarity(f.delta, f.polarity)
                        }
                        _ => waves[fi.index()].clone(),
                    })
                    .collect();
                eval_gate(kind, &inputs, annot.rise(id), annot.fall(id))
            }
        };
        waves[id.index()] = match fault {
            Some(f) if f.site == PinRef::Output(id) => wave.delayed_polarity(f.delta, f.polarity),
            _ => wave,
        };
    }
    waves
}

/// The detection range of one (fault, pattern): per observation point, in
/// observation-point order, the glitch-filtered difference intervals
/// inside `[0, t_nom)`.
pub fn detection_range(
    circuit: &Circuit,
    fault_free: &[Waveform],
    faulty: &[Waveform],
    t_nom: Time,
    glitch_threshold: Time,
) -> DetectionRange {
    let mut dr = DetectionRange::new();
    for (op, point) in circuit.observe_points().iter().enumerate() {
        let d = point.driver.index();
        let diff = fault_free[d].diff(&faulty[d], t_nom);
        dr.push(
            op,
            diff.clipped(0.0, t_nom).filter_glitches(glitch_threshold),
        );
    }
    dr
}

/// The campaign's two raw outputs, computed the slow way: per fault, the
/// sparse `(pattern, detection range)` list in pattern order, and the
/// union of those ranges over all patterns.
pub type Reference = (Vec<Vec<(u32, DetectionRange)>>, Vec<DetectionRange>);

/// Simulates every (fault, pattern) pair of the campaign on the whole
/// circuit.
pub fn analyze(
    circuit: &Circuit,
    annot: &DelayAnnotation,
    faults: &FaultList,
    patterns: &TestSet,
    t_nom: Time,
    glitch_threshold: Time,
) -> Reference {
    let mut per_pattern = vec![Vec::new(); faults.len()];
    let mut raw_union = vec![DetectionRange::new(); faults.len()];
    for p in 0..patterns.len() {
        let stim = patterns.stimulus(circuit, p);
        let fault_free = simulate_circuit(circuit, annot, &stim, None);
        for (fid, fault) in faults.iter() {
            let faulty = simulate_circuit(circuit, annot, &stim, Some(fault));
            let dr = detection_range(circuit, &fault_free, &faulty, t_nom, glitch_threshold);
            if !dr.is_empty() {
                merge(&mut raw_union[fid.index()], &dr);
                per_pattern[fid.index()].push((p as u32, dr));
            }
        }
    }
    (per_pattern, raw_union)
}

/// Per fault, the `(pattern, range)` views of the reference's sparse
/// lists, to compare with [`table_views`] of a campaign's `per_pattern`.
pub fn views(per_pattern: &[Vec<(u32, DetectionRange)>]) -> Vec<Vec<(u32, RangeRef<'_>)>> {
    per_pattern
        .iter()
        .map(|entries| entries.iter().map(|(p, dr)| (*p, dr.view())).collect())
        .collect()
}

/// Per fault, the `(pattern, range)` views a table's row lends.
pub fn table_views(table: &DetectionTable) -> Vec<Vec<(u32, RangeRef<'_>)>> {
    (0..table.num_faults())
        .map(|f| table.entries(f).collect())
        .collect()
}

/// Merges `other` into `union`, point by point.
pub fn merge(union: &mut DetectionRange, other: &DetectionRange) {
    for (op, set) in other.iter() {
        union.push(op, set.to_set());
    }
}

/// One fault's reference windows and verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Windows {
    /// `I_FF(o) ∩ [t_min, t_nom)` over every observe point `o`.
    pub conv: IntervalSet,
    /// `conv` plus `(I_FF(o) + d) ∩ [t_min, t_nom)` for every monitored `o`
    /// and every delay `d`.
    pub fast: IntervalSet,
    /// Some observe point differs at the nominal capture edge, at the
    /// mission flip-flop or through some delay of a monitored point.
    pub at_speed: bool,
}

/// The windows of one fault's raw union (Sec. III-B): per observe point,
/// the mission flip-flop sees `I_FF` and a monitored point's shadow
/// register `I_FF + d`, both clipped to `[t_min, t_nom)`.
pub fn windows(
    raw: &DetectionRange,
    monitored: impl Fn(usize) -> bool,
    delays: &[Time],
    t_min: Time,
    t_nom: Time,
) -> Windows {
    let at_speed_time = t_nom * (1.0 - 1e-9);
    let clip = |start: Time, end: Time| Interval::new(start.max(t_min), end.min(t_nom));
    let mut out = Windows {
        conv: IntervalSet::new(),
        fast: IntervalSet::new(),
        at_speed: false,
    };
    for (op, set) in raw.iter() {
        for iv in set.iter() {
            out.conv.insert(clip(iv.start, iv.end));
            out.fast.insert(clip(iv.start, iv.end));
            out.at_speed |= iv.start <= at_speed_time && at_speed_time < iv.end;
            if monitored(op) {
                for &d in delays {
                    let (start, end) = (iv.start + d, iv.end + d);
                    out.fast.insert(clip(start, end));
                    out.at_speed |= start <= at_speed_time && at_speed_time < end;
                }
            }
        }
    }
    out
}
