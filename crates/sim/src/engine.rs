use fastmon_faults::{IntervalSet, SmallDelayFault};
use fastmon_netlist::{Circuit, ConeMarks, GateKind, NodeId, PinRef};
use fastmon_obs::SimMetrics;
use fastmon_timing::{DelayAnnotation, Time};

use crate::stats;
use crate::waveform::{eval_gate_into, filter_pulses_in_place, EvalScratch};
use crate::{Stimulus, WaveRef, Waveform};

/// Fault-free waveforms of every net for one stimulus, in one flat arena.
///
/// # Layout
///
/// Every node's transition instants sit back to back in one `Vec<Time>`,
/// in the topological order the nodes were simulated in. Per node id there
/// is a `[start, end)` span into that buffer (two `u32`s) and an initial
/// value (a `bool`). A node therefore costs 9 bytes plus 8 bytes per
/// transition, and a whole pattern is three heap buffers; an owned
/// [`Waveform`] per node cost a 32-byte header plus a heap buffer of its
/// own. [`SimResult::wave`] lends a node's waveform as a [`WaveRef`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    transitions: Vec<Time>,
    spans: Vec<(u32, u32)>,
    initial: Vec<bool>,
}

impl SimResult {
    /// The waveform of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn wave(&self, id: NodeId) -> WaveRef<'_> {
        let (start, end) = self.spans[id.index()];
        WaveRef {
            initial: self.initial[id.index()],
            transitions: &self.transitions[start as usize..end as usize],
        }
    }

    /// The latest transition time over all nets (settling time of the
    /// launch), or 0 for a fully static stimulus.
    #[must_use]
    pub fn settle_time(&self) -> Time {
        self.spans
            .iter()
            .filter(|&&(start, end)| end > start)
            .map(|&(_, end)| self.transitions[end as usize - 1])
            .fold(0.0, f64::max)
    }

    /// Appends node `id`'s waveform to the arena.
    fn push(&mut self, id: NodeId, initial: bool, transitions: &[Time]) {
        let offset = |len: usize| {
            u32::try_from(len).unwrap_or_else(|_| unreachable!("a pattern's transitions fit u32"))
        };
        let start = offset(self.transitions.len());
        self.transitions.extend_from_slice(transitions);
        self.spans[id.index()] = (start, offset(self.transitions.len()));
        self.initial[id.index()] = initial;
    }
}

/// The faulty waveforms of the fault's fanout cone.
#[derive(Debug, Clone)]
pub struct FaultyCone {
    /// Nodes of the cone in topological order (seed gate first).
    pub cone: Vec<NodeId>,
    /// Faulty waveform per cone node, parallel to `cone`.
    pub waves: Vec<Waveform>,
    /// `(node, slot)` pairs sorted by node id for O(log n) lookup — the
    /// cone itself is in topological, not id, order.
    slots: Vec<(NodeId, u32)>,
}

impl FaultyCone {
    /// Wraps cone nodes and their waveforms, building the lookup index.
    fn new(cone: Vec<NodeId>, waves: Vec<Waveform>) -> Self {
        let mut slots: Vec<(NodeId, u32)> = cone
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                (
                    id,
                    u32::try_from(i).unwrap_or_else(|_| unreachable!("cone fits u32")),
                )
            })
            .collect();
        slots.sort_unstable_by_key(|&(id, _)| id);
        FaultyCone { cone, waves, slots }
    }

    /// The faulty waveform of `id`, if `id` is in the cone.
    #[must_use]
    pub fn wave(&self, id: NodeId) -> Option<&Waveform> {
        self.slots
            .binary_search_by_key(&id, |&(n, _)| n)
            .ok()
            .map(|i| &self.waves[self.slots[i].1 as usize])
    }
}

/// Timing-accurate waveform simulation of a circuit.
///
/// Borrowed circuit and delay annotation; cheap to construct (no internal
/// state), so one engine can be shared across threads (`&SimEngine` is
/// `Send + Sync`).
#[derive(Debug, Clone, Copy)]
pub struct SimEngine<'c> {
    circuit: &'c Circuit,
    annot: &'c DelayAnnotation,
    /// inertial pulse-filter width as a fraction of each gate's faster
    /// delay; `None` = pure transport delay (the paper's setting — its
    /// pessimistic pulse filtering happens on detection ranges instead)
    inertial: Option<f64>,
    /// campaign-scoped counters; `None` falls back to the process-wide
    /// [`stats::global`] registry that every engine built without a scoped
    /// one shares
    metrics: Option<&'c SimMetrics>,
}

impl<'c> SimEngine<'c> {
    /// Creates an engine over `circuit` with delays from `annot`.
    ///
    /// # Panics
    ///
    /// Panics if the annotation does not cover the circuit.
    #[must_use]
    pub fn new(circuit: &'c Circuit, annot: &'c DelayAnnotation) -> Self {
        assert_eq!(
            circuit.len(),
            annot.len(),
            "annotation does not match circuit size"
        );
        SimEngine {
            circuit,
            annot,
            inertial: None,
            metrics: None,
        }
    }

    /// Routes this engine's campaign counters into a scoped registry
    /// (instead of the process-wide fallback), so concurrent campaigns
    /// attribute their work exactly.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &'c SimMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The counter sink: the scoped registry if one was attached, the
    /// process-wide fallback otherwise.
    #[inline]
    fn metrics(&self) -> &'c SimMetrics {
        match self.metrics {
            Some(m) => m,
            None => stats::global(),
        }
    }

    /// Enables inertial filtering: every gate swallows output pulses
    /// narrower than `fraction` times its faster pin-to-pin delay.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative.
    #[must_use]
    pub fn with_inertial_filtering(mut self, fraction: f64) -> Self {
        assert!(fraction >= 0.0, "fraction must be non-negative");
        self.inertial = Some(fraction);
        self
    }

    /// Evaluates gate `id` from the input waveforms `input` yields into
    /// `out`, applying the optional inertial filter; returns the output's
    /// initial value.
    fn eval_node<'w>(
        &self,
        id: NodeId,
        input: impl Fn(usize) -> WaveRef<'w>,
        eval: &mut EvalScratch,
        out: &mut Vec<Time>,
    ) -> bool {
        let node = self.circuit.node(id);
        let initial = eval_gate_into(
            node.kind(),
            node.fanins().len(),
            input,
            self.annot.rise(id),
            self.annot.fall(id),
            eval,
            out,
        );
        if let Some(fraction) = self.inertial {
            filter_pulses_in_place(out, fraction * self.annot.min_delay(id));
        }
        initial
    }

    /// The simulated circuit.
    #[must_use]
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Fault-free simulation of a two-vector stimulus: every source steps
    /// from its launch to its capture value at `t = 0`, and all nets settle
    /// through the annotated transport delays.
    ///
    /// Every gate is evaluated into one reused output buffer and copied
    /// onto the result's arena, so a pattern costs a few allocations, not
    /// one per gate.
    #[must_use]
    pub fn simulate(&self, stim: &Stimulus) -> SimResult {
        let n = self.circuit.len();
        let mut result = SimResult {
            transitions: Vec::with_capacity(n),
            spans: vec![(0, 0); n],
            initial: vec![false; n],
        };
        let mut eval = EvalScratch::new();
        let mut out: Vec<Time> = Vec::new();
        for &id in self.circuit.topo_order() {
            let node = self.circuit.node(id);
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
                _ => {
                    let fanins = node.fanins();
                    self.eval_node(id, |k| result.wave(fanins[k]), &mut eval, &mut out)
                }
            };
            result.push(id, initial, &out);
        }
        result
    }

    /// Computes the faulty waveform of the fault's seed gate (the gate
    /// carrying the faulted pin) from the fault-free result into `out`,
    /// returning its initial value. An input-pin fault's delayed pin
    /// waveform is built in `pin`; an output-pin fault leaves `pin`
    /// untouched.
    fn seed_wave_into(
        &self,
        base: &SimResult,
        fault: &SmallDelayFault,
        eval: &mut EvalScratch,
        pin: &mut Vec<Time>,
        out: &mut Vec<Time>,
    ) -> bool {
        let seed = fault.site.node();
        match fault.site {
            PinRef::Output(_) => {
                let wave = base.wave(seed);
                wave.delayed_polarity_into(fault.delta, fault.polarity, out);
                wave.initial()
            }
            PinRef::Input(_, k) => {
                let fanins = self.circuit.node(seed).fanins();
                let k = k as usize;
                let fault_free_pin = base.wave(fanins[k]);
                fault_free_pin.delayed_polarity_into(fault.delta, fault.polarity, pin);
                let delayed = WaveRef {
                    initial: fault_free_pin.initial(),
                    transitions: pin,
                };
                self.eval_node(
                    seed,
                    |j| {
                        if j == k {
                            delayed
                        } else {
                            base.wave(fanins[j])
                        }
                    },
                    eval,
                    out,
                )
            }
        }
    }

    /// Re-simulates the fanout cone of `fault` against a fault-free result,
    /// returning the faulty waveforms of the cone.
    #[must_use]
    pub fn simulate_fault(&self, base: &SimResult, fault: &SmallDelayFault) -> FaultyCone {
        let seed = fault.site.node();
        let cone = self.circuit.fanout_cone(seed);
        let mut waves: Vec<Waveform> = Vec::with_capacity(cone.len());
        let mut eval = EvalScratch::new();
        // dense lookup: position of a node in the cone (+1), 0 = not in cone
        let mut pos = vec![0u32; self.circuit.len()];
        for (i, &id) in cone.iter().enumerate() {
            pos[id.index()] =
                u32::try_from(i).unwrap_or_else(|_| unreachable!("cone fits u32")) + 1;
        }

        for (i, &id) in cone.iter().enumerate() {
            let mut buf = Vec::new();
            let initial = if i == 0 {
                // the seed gate carries the fault
                self.seed_wave_into(base, fault, &mut eval, &mut Vec::new(), &mut buf)
            } else {
                let fanins = self.circuit.node(id).fanins();
                self.eval_node(
                    id,
                    |k| {
                        let fi = fanins[k];
                        let p = pos[fi.index()];
                        if p > 0 && (p as usize - 1) < waves.len() {
                            waves[p as usize - 1].view()
                        } else {
                            base.wave(fi)
                        }
                    },
                    &mut eval,
                    &mut buf,
                )
            };
            waves.push(Waveform::with_transitions(initial, buf));
        }
        FaultyCone::new(cone, waves)
    }

    /// Computes the raw per-observation-point difference intervals between
    /// fault-free and faulty responses: for every observation point whose
    /// captured signal lies in the fault's cone, the XOR of the two
    /// waveforms up to `horizon` (typically `t_nom`).
    ///
    /// Returns `(observation point index, difference intervals)` pairs with
    /// empty differences omitted — the raw material for
    /// [`DetectionRange`](fastmon_faults::DetectionRange).
    #[must_use]
    pub fn response_diff(
        &self,
        base: &SimResult,
        fault: &SmallDelayFault,
        horizon: Time,
    ) -> Vec<(usize, IntervalSet)> {
        let faulty = self.simulate_fault(base, fault);
        let mut out = Vec::new();
        for (op_index, op) in self.circuit.observe_points().iter().enumerate() {
            let Some(faulty_wave) = faulty.wave(op.driver) else {
                continue;
            };
            let diff = base.wave(op.driver).diff(faulty_wave.view(), horizon);
            if !diff.is_empty() {
                out.push((op_index, diff));
            }
        }
        out
    }
}

/// Precomputed propagation plan for faults seated at one gate: the fanout
/// cone pruned to the nodes that can actually reach an observation point,
/// plus a per-node influence horizon for convergence early exit.
///
/// Fault-simulation campaigns touch every gate with several faults (one per
/// pin and polarity) and every pattern; computing the cone once per gate
/// amortizes the traversal.
///
/// # Pruning
///
/// A fanout-cone node that reaches no observation point can never
/// contribute to a detection range, so it is dropped at plan-build time.
/// The retained set is closed under in-cone fanins (if a node reaches an
/// observer, so does every cone node feeding it), which keeps cone
/// re-simulation over the pruned node list bit-identical to the full one.
#[derive(Debug, Clone)]
pub struct ConePlan {
    seed: NodeId,
    /// pruned cone in topological order (seed first; empty if the seed
    /// reaches no observation point)
    cone: Vec<NodeId>,
    /// indices into [`Circuit::observe_points`] reachable from the seed
    ops: Vec<(usize, NodeId)>,
    /// per cone slot: the largest cone slot its output directly feeds
    /// (its own slot if it feeds nothing downstream in the cone)
    influence: Vec<u32>,
    /// cone nodes dropped because they reach no observation point
    pruned: usize,
}

impl ConePlan {
    /// Builds the plan for faults at gate `seed`, counting pruned nodes
    /// into the process-wide fallback registry. Campaign code should use
    /// [`ConePlan::new_with_metrics`] for exact attribution.
    #[must_use]
    pub fn new(circuit: &Circuit, seed: NodeId) -> Self {
        Self::new_with_metrics(circuit, seed, None)
    }

    /// Builds the plan for faults at gate `seed`, counting nodes dropped
    /// by observer-reach pruning into `metrics` (falling back to the
    /// process-wide registry when `None`).
    ///
    /// Note that netlists produced by the synthetic generator are fully
    /// observable by construction (dangling gates are promoted to primary
    /// outputs), so on those — and on the bundled ISCAS circuits — the
    /// pruning legitimately removes nothing and
    /// `nodes_pruned_unobserved` stays 0. The counter moves for partial
    /// or hand-built netlists whose cones contain dead branches.
    #[must_use]
    pub fn new_with_metrics(circuit: &Circuit, seed: NodeId, metrics: Option<&SimMetrics>) -> Self {
        Self::new_with_scratch(circuit, seed, metrics, &mut PlanScratch::new())
    }

    /// [`ConePlan::new_with_metrics`] with caller-provided scratch, so a
    /// campaign building one plan per gate performs no per-plan mark or
    /// slot-map allocation.
    #[must_use]
    pub fn new_with_scratch(
        circuit: &Circuit,
        seed: NodeId,
        metrics: Option<&SimMetrics>,
        scratch: &mut PlanScratch,
    ) -> Self {
        let PlanScratch {
            marks,
            retained,
            full_cone,
            slot,
        } = scratch;
        circuit.fanout_cone_into(seed, marks, full_cone);
        let ops: Vec<(usize, NodeId)> = circuit
            .observe_points()
            .iter()
            .enumerate()
            .filter(|(_, op)| marks.get(op.driver))
            .map(|(i, op)| (i, op.driver))
            .collect();

        // observer-reach pruning: walk the cone backwards, keeping nodes
        // that drive an observation point or feed a kept node
        retained.begin(circuit.len());
        for &(_, driver) in &ops {
            retained.set(driver);
        }
        for &id in full_cone.iter().rev() {
            if retained.get(id) {
                for &fi in circuit.node(id).fanins() {
                    if marks.get(fi) {
                        retained.set(fi);
                    }
                }
            }
        }
        let cone: Vec<NodeId> = full_cone
            .iter()
            .copied()
            .filter(|&id| retained.get(id))
            .collect();
        let pruned = full_cone.len() - cone.len();
        let m = match metrics {
            Some(m) => m,
            None => stats::global(),
        };
        m.nodes_pruned_unobserved.add(pruned as u64);
        m.cone_plans_built.incr();
        let len = u32::try_from(cone.len()).unwrap_or_else(|_| unreachable!("cone fits u32"));

        // influence horizon: how far down the cone each node's output goes
        if slot.len() < circuit.len() {
            slot.resize(circuit.len(), 0);
        }
        for (i, &id) in cone.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            {
                slot[id.index()] = i as u32 + 1;
            }
        }
        let mut influence: Vec<u32> = (0..len).collect();
        for (j, &id) in cone.iter().enumerate().skip(1) {
            for &fi in circuit.node(id).fanins() {
                let p = slot[fi.index()];
                if p > 0 {
                    #[allow(clippy::cast_possible_truncation)]
                    let j32 = j as u32;
                    let p = (p - 1) as usize;
                    influence[p] = influence[p].max(j32);
                }
            }
        }
        // wipe the dense slot map for the next plan
        for &id in &cone {
            slot[id.index()] = 0;
        }

        ConePlan {
            seed,
            cone,
            ops,
            influence,
            pruned,
        }
    }

    /// The seed gate.
    #[must_use]
    pub fn seed(&self) -> NodeId {
        self.seed
    }

    /// The pruned cone in topological order (seed first).
    #[must_use]
    pub fn cone(&self) -> &[NodeId] {
        &self.cone
    }

    /// The observation points the seed reaches.
    #[must_use]
    pub fn observers(&self) -> &[(usize, NodeId)] {
        &self.ops
    }

    /// Number of fanout-cone nodes dropped by observer-reach pruning.
    #[must_use]
    pub fn pruned_nodes(&self) -> usize {
        self.pruned
    }
}

/// Reusable buffers for [`ConePlan::new_with_scratch`]: the full-cone walk
/// marks, the retained set and the dense slot map used for the influence
/// horizon.
#[derive(Debug, Default)]
pub struct PlanScratch {
    marks: ConeMarks,
    retained: ConeMarks,
    full_cone: Vec<NodeId>,
    slot: Vec<u32>,
}

impl PlanScratch {
    /// Fresh, empty scratch; buffers grow to the circuit size on first use.
    #[must_use]
    pub fn new() -> Self {
        PlanScratch::default()
    }
}

/// Reusable per-thread buffers for [`SimEngine::response_diff_planned`].
///
/// Holds the dense cone-position map, the per-cone waveform slots, the
/// gate-evaluation scratch and a pool of recycled transition buffers. Every
/// buffer a cone walk fills (the seed gate's faulty waveform, an input-pin
/// fault's delayed pin and each changed cone gate's waveform) comes from
/// the pool and goes back to it when the walk ends, so the pool holds as
/// many buffers as the largest set one walk needed at once: at most the
/// plan's cone length plus one.
#[derive(Debug)]
pub struct ConeScratch {
    /// cone position + 1 per node, 0 = not in current cone
    pos: Vec<u32>,
    /// faulty waveforms parallel to the plan's cone; `None` = unchanged
    waves: Vec<Option<Waveform>>,
    /// gate-evaluation working buffers
    eval: EvalScratch,
    /// recycled transition buffers
    spare: Vec<Vec<Time>>,
}

impl ConeScratch {
    /// Allocates scratch buffers for `circuit`.
    #[must_use]
    pub fn new(circuit: &Circuit) -> Self {
        ConeScratch {
            pos: vec![0; circuit.len()],
            waves: Vec::new(),
            eval: EvalScratch::new(),
            spare: Vec::new(),
        }
    }

    /// Number of recycled transition buffers currently pooled.
    #[must_use]
    pub fn spare_buffers(&self) -> usize {
        self.spare.len()
    }
}

/// Takes a transition buffer from the pool, counting a miss as an
/// allocation and a hit as a reuse.
fn take_buffer(spare: &mut Vec<Vec<Time>>, tally: &mut stats::ConeTally) -> Vec<Time> {
    match spare.pop() {
        Some(buf) => {
            tally.waveform_reuses += 1;
            buf
        }
        None => {
            tally.waveform_allocs += 1;
            Vec::new()
        }
    }
}

impl<'c> SimEngine<'c> {
    /// Like [`SimEngine::response_diff`], but with a precomputed
    /// [`ConePlan`] and reusable [`ConeScratch`], and with effect-driven
    /// pruning: cone gates whose fanins all carry unchanged waveforms are
    /// skipped, so masked faults cost almost nothing.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `plan` does not belong to the fault's
    /// seed gate.
    #[must_use]
    pub fn response_diff_planned(
        &self,
        base: &SimResult,
        fault: &SmallDelayFault,
        plan: &ConePlan,
        scratch: &mut ConeScratch,
        horizon: Time,
    ) -> Vec<(usize, IntervalSet)> {
        let mut out = Vec::new();
        self.response_diff_planned_into(base, fault, plan, scratch, horizon, &mut out);
        out
    }

    /// Buffer-reusing variant of [`SimEngine::response_diff_planned`]: the
    /// result lands in `out` (cleared first), every waveform the walk
    /// builds takes its transition buffer from the scratch pool and
    /// returns it, also when the fault is masked at its own gate, and
    /// propagation stops as soon as every remaining cone gate is known to
    /// see only fault-free inputs (the influence horizon of the changed
    /// set has passed).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `plan` does not belong to the fault's
    /// seed gate.
    pub fn response_diff_planned_into(
        &self,
        base: &SimResult,
        fault: &SmallDelayFault,
        plan: &ConePlan,
        scratch: &mut ConeScratch,
        horizon: Time,
        out: &mut Vec<(usize, IntervalSet)>,
    ) {
        debug_assert_eq!(plan.seed, fault.site.node(), "plan/fault mismatch");
        out.clear();
        if plan.ops.is_empty() {
            return; // the seed reaches no observation point
        }
        let mut tally = stats::ConeTally::default();
        let ConeScratch {
            pos,
            waves,
            eval,
            spare,
        } = scratch;
        let mut seed_buf = take_buffer(spare, &mut tally);
        let seed_initial = if let PinRef::Input(..) = fault.site {
            let mut pin = take_buffer(spare, &mut tally);
            let initial = self.seed_wave_into(base, fault, eval, &mut pin, &mut seed_buf);
            spare.push(pin);
            initial
        } else {
            self.seed_wave_into(base, fault, eval, &mut Vec::new(), &mut seed_buf)
        };
        let fault_free = base.wave(plan.seed);
        if seed_initial == fault_free.initial() && seed_buf == fault_free.transitions() {
            spare.push(seed_buf);
            tally.flush_masked(self.metrics());
            return; // fault fully masked at its own gate
        }

        waves.clear();
        waves.push(Some(Waveform::with_transitions(seed_initial, seed_buf)));
        pos[plan.seed.index()] = 1;
        // the furthest cone slot any changed node feeds; once the loop
        // passes it, every remaining gate sees only fault-free inputs
        let mut frontier = plan.influence[0] as usize;

        for (i, &id) in plan.cone.iter().enumerate().skip(1) {
            if i > frontier {
                tally.nodes_converged += (plan.cone.len() - i) as u64;
                break;
            }
            let fanins = self.circuit.node(id).fanins();
            let changed_input = fanins.iter().any(|&fi| {
                let p = pos[fi.index()];
                p > 0 && waves[p as usize - 1].is_some()
            });
            let wave = if changed_input {
                let mut buf = take_buffer(spare, &mut tally);
                let initial = self.eval_node(
                    id,
                    |k| {
                        let fi = fanins[k];
                        match pos[fi.index()] {
                            0 => base.wave(fi),
                            p => waves[p as usize - 1]
                                .as_ref()
                                .map_or_else(|| base.wave(fi), Waveform::view),
                        }
                    },
                    eval,
                    &mut buf,
                );
                tally.nodes_evaluated += 1;
                let fault_free = base.wave(id);
                if initial == fault_free.initial() && buf == fault_free.transitions() {
                    spare.push(buf); // converged back to fault-free
                    None
                } else {
                    frontier = frontier.max(plan.influence[i] as usize);
                    Some(Waveform::with_transitions(initial, buf))
                }
            } else {
                tally.nodes_converged += 1;
                None
            };
            waves.push(wave);
            #[allow(clippy::cast_possible_truncation)]
            {
                pos[id.index()] = i as u32 + 1; // cone length checked at plan build
            }
        }

        for &(op_index, driver) in &plan.ops {
            let p = pos[driver.index()];
            if p == 0 {
                continue;
            }
            if let Some(faulty) = &waves[p as usize - 1] {
                let diff = base.wave(driver).diff(faulty.view(), horizon);
                if !diff.is_empty() {
                    out.push((op_index, diff));
                }
            }
        }

        // clear position markers and recycle waveform buffers
        for &id in &plan.cone[..waves.len()] {
            pos[id.index()] = 0;
        }
        for wave in waves.drain(..).flatten() {
            spare.push(wave.into_transitions());
        }
        tally.flush_simulated(self.metrics());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmon_faults::Polarity;
    use fastmon_netlist::{library, CircuitBuilder};
    use fastmon_timing::DelayModel;

    fn unit_engine(c: &Circuit) -> (DelayAnnotation, ()) {
        (DelayAnnotation::nominal(c, &DelayModel::unit()), ())
    }

    #[test]
    fn chain_propagates_step() {
        let mut b = CircuitBuilder::new("chain");
        b.add("a", GateKind::Input, &[]);
        b.add("n1", GateKind::Buf, &["a"]);
        b.add("n2", GateKind::Not, &["n1"]);
        b.mark_output("n2");
        let c = b.finish().unwrap();
        let (annot, ()) = unit_engine(&c);
        let engine = SimEngine::new(&c, &annot);
        let a = c.find("a").unwrap();
        let stim = Stimulus::from_fn(&c, |id| (false, id == a));
        let res = engine.simulate(&stim);
        let n1 = c.find("n1").unwrap();
        let n2 = c.find("n2").unwrap();
        assert_eq!(res.wave(n1).transitions(), &[1.0]);
        assert!(res.wave(n2).initial());
        assert_eq!(res.wave(n2).transitions(), &[2.0]);
        assert_eq!(res.settle_time(), 2.0);
    }

    #[test]
    fn static_stimulus_matches_steady_eval() {
        let c = library::s27();
        let (annot, ()) = unit_engine(&c);
        let engine = SimEngine::new(&c, &annot);
        let g0 = c.find("G0").unwrap();
        let g5 = c.find("G5").unwrap();
        // static: launch == capture, so every net is constant at its steady
        // value
        let stim = Stimulus::from_fn(&c, |id| {
            let v = id == g0 || id == g5;
            (v, v)
        });
        let res = engine.simulate(&stim);
        let steady = c.eval_steady(|id| id == g0 || id == g5);
        for id in c.node_ids() {
            assert!(
                res.wave(id).is_constant(),
                "{} not constant",
                c.node(id).name()
            );
            assert_eq!(res.wave(id).initial(), steady[id.index()]);
        }
    }

    #[test]
    fn final_values_match_capture_steady_state() {
        let c = library::s27();
        let (annot, ()) = unit_engine(&c);
        let engine = SimEngine::new(&c, &annot);
        // arbitrary two distinct vectors
        let stim = Stimulus::from_fn(&c, |id| (id.index() % 3 == 0, id.index() % 2 == 0));
        let res = engine.simulate(&stim);
        let steady = c.eval_steady(|id| id.index() % 2 == 0);
        for id in c.node_ids() {
            assert_eq!(
                res.wave(id).final_value(),
                steady[id.index()],
                "{} settles wrong",
                c.node(id).name()
            );
        }
    }

    #[test]
    fn output_pin_fault_shifts_response() {
        // a -> n1(buf) -> n2(buf) -> PO, unit delays. Rising launch on a.
        let mut b = CircuitBuilder::new("f");
        b.add("a", GateKind::Input, &[]);
        b.add("n1", GateKind::Buf, &["a"]);
        b.add("n2", GateKind::Buf, &["n1"]);
        b.mark_output("n2");
        let c = b.finish().unwrap();
        let (annot, ()) = unit_engine(&c);
        let engine = SimEngine::new(&c, &annot);
        let a = c.find("a").unwrap();
        let n1 = c.find("n1").unwrap();
        let stim = Stimulus::from_fn(&c, |id| (false, id == a));
        let base = engine.simulate(&stim);
        let fault = SmallDelayFault::new(PinRef::Output(n1), Polarity::SlowToRise, 0.5);
        let diffs = engine.response_diff(&base, &fault, 100.0);
        // only the PO observes (no flip-flops); fault-free rise at n2: 2.0,
        // faulty: 2.5 → difference interval [2.0, 2.5)
        assert_eq!(diffs.len(), 1);
        let (op, set) = &diffs[0];
        assert_eq!(*op, 0);
        assert_eq!(set.as_slice().len(), 1);
        assert!((set.as_slice()[0].start - 2.0).abs() < 1e-12);
        assert!((set.as_slice()[0].end - 2.5).abs() < 1e-12);
    }

    #[test]
    fn input_pin_fault_affects_only_that_path() {
        // two paths from a: via n1 to PO1, direct to PO2 (buf). Fault on
        // input pin of n1 must not disturb PO2.
        let mut b = CircuitBuilder::new("pin");
        b.add("a", GateKind::Input, &[]);
        b.add("n1", GateKind::Buf, &["a"]);
        b.add("n2", GateKind::Buf, &["a"]);
        b.mark_output("n1");
        b.mark_output("n2");
        let c = b.finish().unwrap();
        let (annot, ()) = unit_engine(&c);
        let engine = SimEngine::new(&c, &annot);
        let a = c.find("a").unwrap();
        let n1 = c.find("n1").unwrap();
        let stim = Stimulus::from_fn(&c, |id| (false, id == a));
        let base = engine.simulate(&stim);
        let fault = SmallDelayFault::new(PinRef::Input(n1, 0), Polarity::SlowToRise, 0.7);
        let diffs = engine.response_diff(&base, &fault, 100.0);
        assert_eq!(diffs.len(), 1, "only PO1 differs");
        assert_eq!(diffs[0].0, 0);
        let iv = diffs[0].1.as_slice()[0];
        assert!((iv.start - 1.0).abs() < 1e-12);
        assert!((iv.end - 1.7).abs() < 1e-12);
    }

    #[test]
    fn wrong_polarity_fault_is_silent() {
        let mut b = CircuitBuilder::new("pol");
        b.add("a", GateKind::Input, &[]);
        b.add("n1", GateKind::Buf, &["a"]);
        b.mark_output("n1");
        let c = b.finish().unwrap();
        let (annot, ()) = unit_engine(&c);
        let engine = SimEngine::new(&c, &annot);
        let a = c.find("a").unwrap();
        let n1 = c.find("n1").unwrap();
        // rising stimulus, slow-to-fall fault → no visible effect
        let stim = Stimulus::from_fn(&c, |id| (false, id == a));
        let base = engine.simulate(&stim);
        let fault = SmallDelayFault::new(PinRef::Output(n1), Polarity::SlowToFall, 0.7);
        assert!(engine.response_diff(&base, &fault, 100.0).is_empty());
    }

    #[test]
    fn fault_effect_reaches_ppo() {
        // a -> n1 -> DFF; the D pin is the observation point
        let mut b = CircuitBuilder::new("ppo");
        b.add("a", GateKind::Input, &[]);
        b.add("n1", GateKind::Buf, &["a"]);
        b.add("q", GateKind::Dff, &["n1"]);
        b.add("po", GateKind::Buf, &["q"]);
        b.mark_output("po");
        let c = b.finish().unwrap();
        let (annot, ()) = unit_engine(&c);
        let engine = SimEngine::new(&c, &annot);
        let a = c.find("a").unwrap();
        let n1 = c.find("n1").unwrap();
        // launch a=1 -> capture a=0 (falling)
        let stim = Stimulus::from_fn(&c, |id| (id == a, false));
        let base = engine.simulate(&stim);
        let fault = SmallDelayFault::new(PinRef::Output(n1), Polarity::SlowToFall, 0.3);
        let diffs = engine.response_diff(&base, &fault, 100.0);
        assert_eq!(diffs.len(), 1);
        // observe point 1 is the PPO (index 0 is the PO, which q feeds but
        // launches fresh from its own state so it never sees the fault)
        let op = c.observe_points()[diffs[0].0];
        assert!(op.is_pseudo());
    }

    #[test]
    fn planned_diff_matches_direct_diff() {
        let c = library::s27();
        let annot = DelayAnnotation::nominal(&c, &fastmon_timing::DelayModel::nangate45_like());
        let engine = SimEngine::new(&c, &annot);
        let mut scratch = ConeScratch::new(&c);
        // several stimuli × all pins × both polarities
        for seed in 0..4u64 {
            let stim = Stimulus::from_fn(&c, |id| {
                (
                    (id.index() as u64 + seed).is_multiple_of(3),
                    (id.index() as u64 + seed).is_multiple_of(2),
                )
            });
            let base = engine.simulate(&stim);
            for gate in c.combinational_nodes() {
                let plan = ConePlan::new(&c, gate);
                let mut sites = vec![PinRef::Output(gate)];
                for k in 0..c.node(gate).fanins().len() {
                    sites.push(PinRef::Input(gate, k as u8));
                }
                for site in sites {
                    for pol in Polarity::BOTH {
                        let fault = SmallDelayFault::new(site, pol, 17.0);
                        let direct = engine.response_diff(&base, &fault, 500.0);
                        let planned =
                            engine.response_diff_planned(&base, &fault, &plan, &mut scratch, 500.0);
                        assert_eq!(direct, planned, "{fault} stim {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn cone_plan_prunes_unobserved_branches() {
        // n1 fans out to an observed path (po) and a dead-end chain
        // (d1 -> d2) that reaches no output: the dead ends are pruned
        let mut b = CircuitBuilder::new("prune");
        b.add("a", GateKind::Input, &[]);
        b.add("n1", GateKind::Buf, &["a"]);
        b.add("po", GateKind::Buf, &["n1"]);
        b.add("d1", GateKind::Buf, &["n1"]);
        b.add("d2", GateKind::Not, &["d1"]);
        b.mark_output("po");
        let c = b.finish().unwrap();
        let n1 = c.find("n1").unwrap();
        let plan = ConePlan::new(&c, n1);
        assert_eq!(plan.pruned_nodes(), 2);
        assert_eq!(plan.cone()[0], n1, "seed stays first");
        assert!(plan.cone().contains(&c.find("po").unwrap()));
        assert!(!plan.cone().contains(&c.find("d1").unwrap()));
        assert!(!plan.cone().contains(&c.find("d2").unwrap()));

        // the pruned plan still yields the exact direct-diff response
        let (annot, ()) = unit_engine(&c);
        let engine = SimEngine::new(&c, &annot);
        let a = c.find("a").unwrap();
        let stim = Stimulus::from_fn(&c, |id| (false, id == a));
        let base = engine.simulate(&stim);
        let mut scratch = ConeScratch::new(&c);
        let fault = SmallDelayFault::new(PinRef::Output(n1), Polarity::SlowToRise, 0.5);
        let direct = engine.response_diff(&base, &fault, 100.0);
        let planned = engine.response_diff_planned(&base, &fault, &plan, &mut scratch, 100.0);
        assert_eq!(direct, planned);
    }

    #[test]
    fn pruning_moves_the_scoped_counter_for_unreachable_observers() {
        // Root-cause check for the "nodes_pruned_unobserved is always 0"
        // report: the counter wiring is live — what never fires on the
        // bench suite is the *trigger*, because generated netlists promote
        // dangling gates to primary outputs (fully observable by
        // construction). A cone whose branch cannot reach any observation
        // point must move the campaign-scoped counter.
        let mut b = CircuitBuilder::new("prune_scoped");
        b.add("a", GateKind::Input, &[]);
        b.add("n1", GateKind::Buf, &["a"]);
        b.add("po", GateKind::Buf, &["n1"]);
        b.add("d1", GateKind::Buf, &["n1"]);
        b.add("d2", GateKind::Not, &["d1"]);
        b.add("d3", GateKind::Buf, &["d2"]);
        b.mark_output("po");
        let c = b.finish().unwrap();
        let n1 = c.find("n1").unwrap();

        let metrics = SimMetrics::new();
        let plan = ConePlan::new_with_metrics(&c, n1, Some(&metrics));
        assert_eq!(plan.pruned_nodes(), 3);
        assert_eq!(
            metrics.nodes_pruned_unobserved.get(),
            3,
            "scoped counter must move when a cone branch reaches no observation point"
        );

        // scoped counting must not leak into a second, concurrent registry
        let other = SimMetrics::new();
        let _ = ConePlan::new_with_metrics(&c, c.find("po").unwrap(), Some(&other));
        assert_eq!(metrics.nodes_pruned_unobserved.get(), 3);
        assert_eq!(other.nodes_pruned_unobserved.get(), 0);

        // masked/simulated cone counters land in the engine's registry
        let (annot, ()) = unit_engine(&c);
        let engine = SimEngine::new(&c, &annot).with_metrics(&metrics);
        let stim = Stimulus::from_fn(&c, |_| (false, false));
        let base = engine.simulate(&stim);
        let mut scratch = ConeScratch::new(&c);
        let fault = SmallDelayFault::new(PinRef::Output(n1), Polarity::SlowToRise, 0.5);
        let _ = engine.response_diff_planned(&base, &fault, &plan, &mut scratch, 100.0);
        assert_eq!(
            metrics.cones_simulated.get() + metrics.cones_masked.get(),
            1,
            "the cone outcome must be attributed to the scoped registry"
        );
    }

    #[test]
    fn faulty_cone_lookup_matches_membership() {
        let c = library::s27();
        let annot = DelayAnnotation::nominal(&c, &fastmon_timing::DelayModel::nangate45_like());
        let engine = SimEngine::new(&c, &annot);
        let stim = Stimulus::from_fn(&c, |id| (id.index() % 2 == 0, id.index() % 3 == 0));
        let base = engine.simulate(&stim);
        let gate = c.combinational_nodes().next().unwrap();
        let fault = SmallDelayFault::new(PinRef::Output(gate), Polarity::SlowToRise, 3.0);
        let cone = engine.simulate_fault(&base, &fault);
        for id in c.node_ids() {
            let linear = cone
                .cone
                .iter()
                .position(|&n| n == id)
                .map(|i| &cone.waves[i]);
            assert_eq!(cone.wave(id), linear, "node {}", c.node(id).name());
        }
    }

    #[test]
    fn scratch_reuse_across_faults_is_clean() {
        // run many faults through one scratch and re-check against fresh
        // scratch results: recycled buffers must not leak state
        let c = library::s27();
        let annot = DelayAnnotation::nominal(&c, &fastmon_timing::DelayModel::nangate45_like());
        let engine = SimEngine::new(&c, &annot);
        let stim = Stimulus::from_fn(&c, |id| (id.index() % 3 == 0, id.index() % 2 == 0));
        let base = engine.simulate(&stim);
        let mut shared = ConeScratch::new(&c);
        for gate in c.combinational_nodes() {
            let plan = ConePlan::new(&c, gate);
            for pol in Polarity::BOTH {
                let fault = SmallDelayFault::new(PinRef::Output(gate), pol, 11.0);
                let mut fresh = ConeScratch::new(&c);
                let expect = engine.response_diff_planned(&base, &fault, &plan, &mut fresh, 400.0);
                let got = engine.response_diff_planned(&base, &fault, &plan, &mut shared, 400.0);
                assert_eq!(expect, got, "{fault}");
            }
        }
    }

    #[test]
    fn spare_pool_is_bounded_by_one_cone() {
        // every buffer a walk takes goes back to the pool, so the pool
        // settles at the largest set one walk holds at once instead of
        // growing with the number of cones simulated
        let c = fastmon_netlist::generate::GeneratorConfig::new("pool")
            .gates(200)
            .flip_flops(12)
            .inputs(8)
            .outputs(4)
            .depth(8)
            .generate(5)
            .unwrap();
        let annot = DelayAnnotation::nominal(&c, &fastmon_timing::DelayModel::nangate45_like());
        let metrics = SimMetrics::new();
        let engine = SimEngine::new(&c, &annot).with_metrics(&metrics);
        let faults = fastmon_faults::FaultList::sized(&c, |_| 17.0);
        let plans: Vec<Option<ConePlan>> = c
            .node_ids()
            .map(|id| {
                c.node(id)
                    .kind()
                    .is_combinational()
                    .then(|| ConePlan::new(&c, id))
            })
            .collect();
        let longest = plans
            .iter()
            .flatten()
            .map(|p| p.cone().len())
            .max()
            .unwrap();
        let bases: Vec<SimResult> = (0..4u64)
            .map(|seed| {
                engine.simulate(&Stimulus::from_fn(&c, |id| {
                    (
                        (id.index() as u64 + seed).is_multiple_of(3),
                        (id.index() as u64 + seed).is_multiple_of(2),
                    )
                }))
            })
            .collect();
        let mut scratch = ConeScratch::new(&c);
        let mut first_pass = None;
        for pass in 0..3 {
            for base in &bases {
                for (_, fault) in faults.iter() {
                    let plan = plans[fault.site.node().index()].as_ref().unwrap();
                    let _ = engine.response_diff_planned(base, fault, plan, &mut scratch, 1e6);
                }
            }
            let pooled = scratch.spare_buffers();
            assert!(
                pooled <= longest + 2,
                "pass {pass}: {pooled} pooled buffers, longest cone {longest}"
            );
            match first_pass {
                None => first_pass = Some(pooled),
                Some(first) => assert_eq!(pooled, first, "pass {pass}: the pool grew"),
            }
        }
        assert!(
            metrics.cones_simulated.get() > (longest as u64 + 2) * 3,
            "too few cones simulated for the bound to mean anything"
        );
    }

    #[test]
    fn masked_cones_count_their_seed_buffers() {
        // with no transition at all, both faults are masked at their own
        // gate; the seed buffer, and the input-pin fault's delayed pin,
        // still come from the pool, are counted, and go back to it
        let mut b = CircuitBuilder::new("masked");
        b.add("a", GateKind::Input, &[]);
        b.add("n1", GateKind::Buf, &["a"]);
        b.mark_output("n1");
        let c = b.finish().unwrap();
        let (annot, ()) = unit_engine(&c);
        let metrics = SimMetrics::new();
        let engine = SimEngine::new(&c, &annot).with_metrics(&metrics);
        let base = engine.simulate(&Stimulus::from_fn(&c, |_| (false, false)));
        let n1 = c.find("n1").unwrap();
        let plan = ConePlan::new(&c, n1);
        let mut scratch = ConeScratch::new(&c);
        for site in [PinRef::Output(n1), PinRef::Input(n1, 0)] {
            let fault = SmallDelayFault::new(site, Polarity::SlowToRise, 0.5);
            let diffs = engine.response_diff_planned(&base, &fault, &plan, &mut scratch, 100.0);
            assert!(diffs.is_empty());
        }
        assert_eq!(metrics.cones_masked.get(), 2);
        assert_eq!(metrics.cones_simulated.get(), 0);
        // the output fault creates its seed buffer; the input fault reuses
        // it and creates its pin buffer
        assert_eq!(metrics.waveform_allocs.get(), 2);
        assert_eq!(metrics.waveform_reuses.get(), 1);
        assert_eq!(scratch.spare_buffers(), 2);
    }

    #[test]
    fn inertial_filtering_swallows_gate_pulses() {
        // reconvergent pulse: g = NAND(x, inv(x)) produces a static-1 with
        // a 1-unit glitch when x rises
        let mut b = CircuitBuilder::new("glitch");
        b.add("x", GateKind::Input, &[]);
        b.add("n", GateKind::Not, &["x"]);
        b.add("g", GateKind::Nand, &["x", "n"]);
        b.mark_output("g");
        let c = b.finish().unwrap();
        let annot2 = DelayAnnotation::nominal(&c, &fastmon_timing::DelayModel::unit());
        let x = c.find("x").unwrap();
        let g = c.find("g").unwrap();
        let stim = Stimulus::from_fn(&c, |id| (false, id == x));
        // transport-delay engine sees the glitch
        let plain = SimEngine::new(&c, &annot2).simulate(&stim);
        assert_eq!(plain.wave(g).transitions().len(), 2, "glitch present");
        // inertial engine (pulse must be ≥ 1.5 × min delay = 1.5) kills it
        let filtered = SimEngine::new(&c, &annot2)
            .with_inertial_filtering(1.5)
            .simulate(&stim);
        assert!(filtered.wave(g).is_constant(), "glitch filtered");
    }

    #[test]
    fn masked_fault_has_no_response() {
        // AND gate with controlling 0 on the side input masks the fault
        let mut b = CircuitBuilder::new("mask");
        b.add("a", GateKind::Input, &[]);
        b.add("en", GateKind::Input, &[]);
        b.add("n1", GateKind::Buf, &["a"]);
        b.add("g", GateKind::And, &["n1", "en"]);
        b.mark_output("g");
        let c = b.finish().unwrap();
        let (annot, ()) = unit_engine(&c);
        let engine = SimEngine::new(&c, &annot);
        let a = c.find("a").unwrap();
        // en stays 0 → fault on n1 can never propagate
        let stim = Stimulus::from_fn(&c, |id| (false, id == a));
        let base = engine.simulate(&stim);
        let n1 = c.find("n1").unwrap();
        let fault = SmallDelayFault::new(PinRef::Output(n1), Polarity::SlowToRise, 0.5);
        assert!(engine.response_diff(&base, &fault, 100.0).is_empty());
    }
}
