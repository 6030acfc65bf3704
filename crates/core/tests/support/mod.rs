//! A deliberately naive reference fault simulator, the correctness oracle
//! for the campaign in `DetectionAnalysis`.
//!
//! It shares only the waveform primitives with the campaign (`Waveform`,
//! `eval_gate`, `delayed_polarity`, `diff`) and none of its optimizations:
//! no cone plans, no event-driven cone walk, no observer tables, no pooled
//! scratch and no fault collapsing. For every (fault, pattern) it
//! simulates the *whole* faulty circuit from scratch, then derives each
//! observation point's detection intervals straight from the paper's
//! semantics (Sec. III-B): the XOR of the fault-free and faulty waveforms
//! up to `t_nom`, clipped to `[0, t_nom)`, with glitches shorter than the
//! threshold removed.

use fastmon_atpg::TestSet;
use fastmon_faults::{DetectionRange, FaultList, SmallDelayFault};
use fastmon_netlist::{Circuit, GateKind, PinRef};
use fastmon_sim::{eval_gate, Stimulus, Waveform};
use fastmon_timing::{DelayAnnotation, Time};

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
                let refs: Vec<&Waveform> = inputs.iter().collect();
                eval_gate(kind, &refs, annot.rise(id), annot.fall(id))
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
                raw_union[fid.index()].merge(&dr);
                per_pattern[fid.index()].push((p as u32, dr));
            }
        }
    }
    (per_pattern, raw_union)
}
