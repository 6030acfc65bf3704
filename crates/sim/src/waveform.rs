use std::fmt;

use fastmon_faults::{Interval, IntervalSet, Polarity};
use fastmon_timing::Time;

/// A binary signal over time: an initial value and a strictly increasing
/// list of toggle instants.
///
/// The value at a transition instant is the *new* value (left-closed
/// semantics), matching the half-open intervals of
/// [`IntervalSet`](fastmon_faults::IntervalSet).
///
/// # Example
///
/// ```
/// use fastmon_sim::Waveform;
///
/// let w = Waveform::with_transitions(false, vec![2.0, 5.0]);
/// assert!(!w.value_at(1.9));
/// assert!(w.value_at(2.0));
/// assert!(!w.value_at(5.0));
/// assert_eq!(w.final_value(), false);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    initial: bool,
    transitions: Vec<Time>,
}

impl Waveform {
    /// A constant signal.
    #[must_use]
    pub fn constant(value: bool) -> Self {
        Waveform {
            initial: value,
            transitions: Vec::new(),
        }
    }

    /// A signal that is `before` until time `t` and `after` from `t` on.
    /// If `before == after` the result is constant.
    #[must_use]
    pub fn step(before: bool, after: bool, t: Time) -> Self {
        if before == after {
            Waveform::constant(before)
        } else {
            Waveform {
                initial: before,
                transitions: vec![t],
            }
        }
    }

    /// Builds a waveform from an initial value and toggle instants.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `transitions` is not strictly
    /// increasing.
    #[must_use]
    pub fn with_transitions(initial: bool, transitions: Vec<Time>) -> Self {
        debug_assert!(
            transitions.windows(2).all(|w| w[0] < w[1]),
            "transitions must be strictly increasing"
        );
        Waveform {
            initial,
            transitions,
        }
    }

    /// A borrowed view of this waveform, the form every reader of
    /// waveforms (gate evaluation, `diff`, the monitor guard) takes.
    #[must_use]
    pub fn view(&self) -> WaveRef<'_> {
        WaveRef {
            initial: self.initial,
            transitions: &self.transitions,
        }
    }

    /// The value before the first transition.
    #[must_use]
    pub fn initial(&self) -> bool {
        self.initial
    }

    /// The value after the last transition.
    #[must_use]
    pub fn final_value(&self) -> bool {
        self.view().final_value()
    }

    /// The toggle instants.
    #[must_use]
    pub fn transitions(&self) -> &[Time] {
        &self.transitions
    }

    /// Consumes the waveform and returns its transition buffer, so hot
    /// loops can recycle the allocation for the next waveform.
    #[must_use]
    pub fn into_transitions(self) -> Vec<Time> {
        self.transitions
    }

    /// Returns `true` if the signal never toggles.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.transitions.is_empty()
    }

    /// The signal value at time `t` (a capture at `t` samples this value).
    #[must_use]
    pub fn value_at(&self, t: Time) -> bool {
        self.view().value_at(t)
    }

    /// Time of the last transition, or `None` for constant signals.
    #[must_use]
    pub fn last_transition(&self) -> Option<Time> {
        self.transitions.last().copied()
    }

    /// The waveform delayed by `d` (transport delay on every edge).
    #[must_use]
    pub fn delayed(&self, d: Time) -> Self {
        Waveform {
            initial: self.initial,
            transitions: self.transitions.iter().map(|&t| t + d).collect(),
        }
    }

    /// [`WaveRef::delayed_polarity`] of this waveform.
    #[must_use]
    pub fn delayed_polarity(&self, d: Time, polarity: Polarity) -> Self {
        self.view().delayed_polarity(d, polarity)
    }

    /// The waveform with every pulse narrower than `min_width` removed —
    /// inertial filtering, modeling that a gate's output cannot sustain
    /// pulses shorter than its switching time.
    ///
    /// Cancellation cascades: when removing a narrow pulse brings its
    /// neighbours within `min_width` of each other, they are *not* merged
    /// into a new pulse (two removed transitions leave the signal at its
    /// previous value, so the neighbours now bound a wider, legitimate
    /// pulse).
    ///
    /// # Example
    ///
    /// ```
    /// use fastmon_sim::Waveform;
    ///
    /// let w = Waveform::with_transitions(false, vec![10.0, 10.4, 20.0, 30.0]);
    /// let filtered = w.filter_pulses(1.0);
    /// assert_eq!(filtered.transitions(), &[20.0, 30.0]);
    /// ```
    #[must_use]
    pub fn filter_pulses(&self, min_width: f64) -> Self {
        if min_width <= 0.0 || self.transitions.len() < 2 {
            return self.clone();
        }
        let mut out: Vec<Time> = Vec::with_capacity(self.transitions.len());
        for &t in &self.transitions {
            match out.last() {
                Some(&last) if t - last < min_width => {
                    out.pop();
                }
                _ => out.push(t),
            }
        }
        Waveform {
            initial: self.initial,
            transitions: out,
        }
    }

    /// [`WaveRef::diff`] of this waveform against `other`.
    #[must_use]
    pub fn diff(&self, other: &Waveform, horizon: Time) -> IntervalSet {
        self.view().diff(other.view(), horizon)
    }
}

/// A borrowed waveform: an initial value and a strictly increasing slice
/// of toggle instants, with the semantics of [`Waveform`].
///
/// It is two words and a flag, and `Copy`. A fault-free
/// [`SimResult`](crate::SimResult) hands out one per node from its flat
/// arena; an owned [`Waveform`] lends one through [`Waveform::view`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveRef<'a> {
    pub(crate) initial: bool,
    pub(crate) transitions: &'a [Time],
}

impl<'a> WaveRef<'a> {
    /// The value before the first transition.
    #[must_use]
    pub fn initial(self) -> bool {
        self.initial
    }

    /// The value after the last transition.
    #[must_use]
    pub fn final_value(self) -> bool {
        self.initial ^ (self.transitions.len() % 2 == 1)
    }

    /// The toggle instants.
    #[must_use]
    pub fn transitions(self) -> &'a [Time] {
        self.transitions
    }

    /// Returns `true` if the signal never toggles.
    #[must_use]
    pub fn is_constant(self) -> bool {
        self.transitions.is_empty()
    }

    /// The signal value at time `t` (a capture at `t` samples this value).
    #[must_use]
    pub fn value_at(self, t: Time) -> bool {
        let toggles = self.transitions.partition_point(|&x| x <= t);
        self.initial ^ (toggles % 2 == 1)
    }

    /// Time of the last transition, or `None` for constant signals.
    #[must_use]
    pub fn last_transition(self) -> Option<Time> {
        self.transitions.last().copied()
    }

    /// The waveform with transitions of one polarity delayed by `d` — the
    /// effect of a small delay fault of that polarity at this signal.
    ///
    /// If a delayed edge overtakes the following opposite edge, both
    /// annihilate (the pulse is swallowed by the slow transition), which is
    /// the standard lumped-delay-fault pulse behaviour.
    #[must_use]
    pub fn delayed_polarity(self, d: Time, polarity: Polarity) -> Waveform {
        let mut transitions = Vec::with_capacity(self.transitions.len());
        self.delayed_polarity_into(d, polarity, &mut transitions);
        Waveform {
            initial: self.initial,
            transitions,
        }
    }

    /// [`WaveRef::delayed_polarity`] into a caller's buffer: the delayed
    /// transitions land in `out` (cleared first); the initial value is
    /// this waveform's.
    pub fn delayed_polarity_into(self, d: Time, polarity: Polarity, out: &mut Vec<Time>) {
        out.clear();
        if d == 0.0 {
            out.extend_from_slice(self.transitions);
            return;
        }
        let mut value = self.initial;
        for &t in self.transitions {
            let new_value = !value;
            value = new_value;
            let shifted = if polarity.affects(new_value) {
                t + d
            } else {
                t
            };
            match out.last() {
                Some(&last) if shifted <= last => {
                    // the delayed edge crossed the previous one: both vanish
                    out.pop();
                }
                _ => out.push(shifted),
            }
        }
    }

    /// The times at which `self` and `other` carry different values, as a
    /// set of half-open intervals — the XOR of the two waveforms
    /// (Sec. III-B of the paper: detection ranges are computed by XOR-ing
    /// fault-free and faulty output waveforms).
    ///
    /// A trailing difference (different final values) is closed at
    /// `horizon`.
    #[must_use]
    pub fn diff(self, other: WaveRef<'_>, horizon: Time) -> IntervalSet {
        let mut out = IntervalSet::new();
        let mut va = self.initial;
        let mut vb = other.initial;
        let mut differ_since: Option<Time> = if va != vb {
            Some(f64::NEG_INFINITY)
        } else {
            None
        };
        let (mut i, mut j) = (0usize, 0usize);
        let a = self.transitions;
        let b = other.transitions;
        while i < a.len() || j < b.len() {
            let ta = a.get(i).copied().unwrap_or(f64::INFINITY);
            let tb = b.get(j).copied().unwrap_or(f64::INFINITY);
            let t = ta.min(tb);
            if ta <= t {
                va = !va;
                i += 1;
            }
            if tb <= t {
                vb = !vb;
                j += 1;
            }
            match (differ_since, va != vb) {
                (None, true) => differ_since = Some(t),
                (Some(since), false) => {
                    out.insert(Interval::new(since.max(0.0), t));
                    differ_since = None;
                }
                _ => {}
            }
        }
        if let Some(since) = differ_since {
            out.insert(Interval::new(since.max(0.0), horizon));
        }
        out
    }
}

impl fmt::Display for Waveform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", u8::from(self.initial))?;
        for &t in &self.transitions {
            write!(f, " @{t}⇄")?;
        }
        Ok(())
    }
}

/// Reusable per-thread buffers for [`eval_gate_into`]: input values and
/// event cursors, sized to the widest gate seen so far.
#[derive(Debug, Default)]
pub struct EvalScratch {
    values: Vec<bool>,
    cursors: Vec<usize>,
}

impl EvalScratch {
    /// Fresh (empty) scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        EvalScratch::default()
    }
}

/// Evaluates a gate's output waveform from its input waveforms.
///
/// The gate is a transport-delay element with separate rise/fall delays;
/// edges that would reorder (a slow rise overtaken by a fast fall)
/// annihilate pairwise.
#[must_use]
pub fn eval_gate(
    kind: fastmon_netlist::GateKind,
    inputs: &[&Waveform],
    rise_delay: Time,
    fall_delay: Time,
) -> Waveform {
    let mut scratch = EvalScratch::new();
    let mut transitions = Vec::new();
    let initial = eval_gate_into(
        kind,
        inputs.len(),
        |k| inputs[k].view(),
        rise_delay,
        fall_delay,
        &mut scratch,
        &mut transitions,
    );
    Waveform {
        initial,
        transitions,
    }
}

/// Allocation-free core of [`eval_gate`]: inputs come from an accessor
/// instead of a collected slice, working buffers come from `scratch`, and
/// the output transitions land in `out` (cleared first). Returns the
/// output's initial value.
///
/// Fault-free simulation calls this with one reused `out` buffer per
/// pattern, and the campaign's cone walk with buffers from its pool, so
/// neither allocates per gate.
pub fn eval_gate_into<'a, F>(
    kind: fastmon_netlist::GateKind,
    num_inputs: usize,
    input: F,
    rise_delay: Time,
    fall_delay: Time,
    scratch: &mut EvalScratch,
    out: &mut Vec<Time>,
) -> bool
where
    F: Fn(usize) -> WaveRef<'a>,
{
    scratch.values.clear();
    scratch.cursors.clear();
    for k in 0..num_inputs {
        scratch.values.push(input(k).initial());
        scratch.cursors.push(0);
    }
    let initial = kind.eval(&scratch.values);

    // merge all input events in time order
    out.clear();
    let mut current = initial;
    loop {
        // earliest pending event time
        let mut t = f64::INFINITY;
        for k in 0..num_inputs {
            if let Some(&tt) = input(k).transitions().get(scratch.cursors[k]) {
                t = t.min(tt);
            }
        }
        if t.is_infinite() {
            break;
        }
        // apply all events at exactly time t (simultaneous toggles)
        for k in 0..num_inputs {
            while input(k)
                .transitions()
                .get(scratch.cursors[k])
                .is_some_and(|&tt| tt == t)
            {
                scratch.values[k] = !scratch.values[k];
                scratch.cursors[k] += 1;
            }
        }
        let new_value = kind.eval(&scratch.values);
        if new_value != current {
            current = new_value;
            let delay = if new_value { rise_delay } else { fall_delay };
            let shifted = t + delay;
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

/// In-place variant of [`Waveform::filter_pulses`] over a raw transition
/// buffer, for hot loops that have not yet wrapped it in a waveform.
pub fn filter_pulses_in_place(transitions: &mut Vec<Time>, min_width: f64) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use fastmon_netlist::GateKind;
    use proptest::prelude::*;

    #[test]
    fn value_semantics() {
        let w = Waveform::with_transitions(true, vec![1.0, 3.0, 7.0]);
        assert!(w.value_at(0.0));
        assert!(!w.value_at(1.0)); // new value at the instant
        assert!(w.value_at(3.0));
        assert!(!w.value_at(7.0));
        assert!(!w.value_at(100.0));
        assert!(!w.final_value());
    }

    #[test]
    fn step_collapses_equal() {
        assert!(Waveform::step(true, true, 0.0).is_constant());
        let s = Waveform::step(false, true, 0.0);
        assert_eq!(s.transitions(), &[0.0]);
    }

    #[test]
    fn delayed_shifts_all() {
        let w = Waveform::with_transitions(false, vec![1.0, 2.0]);
        assert_eq!(w.delayed(3.0).transitions(), &[4.0, 5.0]);
        assert!(!w.delayed(3.0).initial());
    }

    #[test]
    fn polarity_delay_moves_only_matching_edges() {
        let w = Waveform::with_transitions(false, vec![10.0, 20.0]); // rise@10 fall@20
        let slow_rise = w.delayed_polarity(3.0, Polarity::SlowToRise);
        assert_eq!(slow_rise.transitions(), &[13.0, 20.0]);
        let slow_fall = w.delayed_polarity(3.0, Polarity::SlowToFall);
        assert_eq!(slow_fall.transitions(), &[10.0, 23.0]);
    }

    #[test]
    fn polarity_delay_swallows_short_pulse() {
        // pulse [10, 12): a slow-to-rise of 5 swallows it
        let w = Waveform::with_transitions(false, vec![10.0, 12.0]);
        let faulty = w.delayed_polarity(5.0, Polarity::SlowToRise);
        assert!(faulty.is_constant());
        assert!(!faulty.initial());
        // slow-to-fall keeps the pulse but stretches it
        let faulty = w.delayed_polarity(5.0, Polarity::SlowToFall);
        assert_eq!(faulty.transitions(), &[10.0, 17.0]);
    }

    #[test]
    fn polarity_delay_merges_pulses() {
        // r@10 f@12 r@13 f@20, slow rise 5 → first pulse dies, second
        // becomes [18, 20)
        let w = Waveform::with_transitions(false, vec![10.0, 12.0, 13.0, 20.0]);
        let faulty = w.delayed_polarity(5.0, Polarity::SlowToRise);
        assert_eq!(faulty.transitions(), &[18.0, 20.0]);
    }

    #[test]
    fn filter_pulses_removes_narrow_only() {
        let w = Waveform::with_transitions(true, vec![5.0, 5.2, 9.0, 20.0, 20.3, 40.0]);
        let f = w.filter_pulses(1.0);
        assert_eq!(f.transitions(), &[9.0, 40.0]);
        assert!(f.initial());
        // zero width is the identity
        assert_eq!(w.filter_pulses(0.0), w);
    }

    #[test]
    fn filter_pulses_preserves_final_value() {
        let w = Waveform::with_transitions(false, vec![1.0, 1.1, 2.0, 2.05, 3.0]);
        let f = w.filter_pulses(0.5);
        assert_eq!(f.final_value(), w.final_value());
        assert_eq!(f.transitions(), &[3.0]);
    }

    #[test]
    fn filter_in_place_matches_filter_pulses() {
        for width in [0.0, 0.5, 1.0, 5.0] {
            let w = Waveform::with_transitions(true, vec![5.0, 5.2, 9.0, 20.0, 20.3, 40.0]);
            let expect = w.filter_pulses(width);
            let mut ts = w.transitions().to_vec();
            filter_pulses_in_place(&mut ts, width);
            assert_eq!(ts, expect.transitions(), "width {width}");
        }
    }

    #[test]
    fn eval_gate_into_matches_eval_gate() {
        let a = Waveform::with_transitions(false, vec![1.0, 4.0, 9.0]);
        let b = Waveform::with_transitions(true, vec![2.0, 4.0]);
        let inputs = [&a, &b];
        let mut scratch = EvalScratch::new();
        let mut out = vec![99.0]; // stale contents must be cleared
        for kind in [GateKind::And, GateKind::Nand, GateKind::Xor, GateKind::Nor] {
            let expect = eval_gate(kind, &inputs, 1.5, 0.5);
            let initial = eval_gate_into(
                kind,
                2,
                |k| inputs[k].view(),
                1.5,
                0.5,
                &mut scratch,
                &mut out,
            );
            assert_eq!(initial, expect.initial(), "{kind}");
            assert_eq!(out, expect.transitions(), "{kind}");
        }
    }

    #[test]
    fn diff_basic() {
        let a = Waveform::with_transitions(false, vec![10.0]);
        let b = Waveform::with_transitions(false, vec![15.0]);
        let d = a.diff(&b, 100.0);
        assert_eq!(d.as_slice(), &[Interval::new(10.0, 15.0)]);
    }

    #[test]
    fn diff_open_end_closed_at_horizon() {
        let a = Waveform::constant(false);
        let b = Waveform::with_transitions(false, vec![10.0]);
        let d = a.diff(&b, 50.0);
        assert_eq!(d.as_slice(), &[Interval::new(10.0, 50.0)]);
    }

    #[test]
    fn diff_initial_difference_starts_at_zero() {
        let a = Waveform::constant(false);
        let b = Waveform::with_transitions(true, vec![5.0]);
        let d = a.diff(&b, 50.0);
        assert_eq!(d.as_slice(), &[Interval::new(0.0, 5.0)]);
    }

    #[test]
    fn diff_simultaneous_toggle_no_difference() {
        let a = Waveform::with_transitions(false, vec![3.0]);
        let b = Waveform::with_transitions(false, vec![3.0]);
        assert!(a.diff(&b, 10.0).is_empty());
    }

    #[test]
    fn eval_nand_pulse() {
        // NAND(a, b) with unit rise/fall: a rises at 1, b falls at 2
        // → output falls at 1+1=2, rises again at 2+1=3 → pulse low [2,3)
        let a = Waveform::with_transitions(false, vec![1.0]);
        let b = Waveform::with_transitions(true, vec![2.0]);
        let out = eval_gate(GateKind::Nand, &[&a, &b], 1.0, 1.0);
        assert!(out.initial());
        assert_eq!(out.transitions(), &[2.0, 3.0]);
    }

    #[test]
    fn eval_simultaneous_inputs_single_evaluation() {
        // XOR(a, b): both toggle at t=1 simultaneously → output unchanged
        let a = Waveform::with_transitions(false, vec![1.0]);
        let b = Waveform::with_transitions(false, vec![1.0]);
        let out = eval_gate(GateKind::Xor, &[&a, &b], 1.0, 1.0);
        assert!(out.is_constant());
        assert!(!out.initial());
    }

    #[test]
    fn eval_unequal_rise_fall_annihilates() {
        // Buffer with rise 5, fall 1: input pulse [10, 11) → rise lands at
        // 15, fall at 12: reordered, pulse annihilates.
        let a = Waveform::with_transitions(false, vec![10.0, 11.0]);
        let out = eval_gate(GateKind::Buf, &[&a], 5.0, 1.0);
        assert!(out.is_constant());
        // a wider pulse survives: [10, 20) → rise 15, fall 21
        let a = Waveform::with_transitions(false, vec![10.0, 20.0]);
        let out = eval_gate(GateKind::Buf, &[&a], 5.0, 1.0);
        assert_eq!(out.transitions(), &[15.0, 21.0]);
    }

    #[test]
    fn eval_controlling_input_masks() {
        // AND(a, 0) never toggles regardless of a
        let a = Waveform::with_transitions(false, vec![1.0, 2.0, 3.0]);
        let zero = Waveform::constant(false);
        let out = eval_gate(GateKind::And, &[&a, &zero], 1.0, 1.0);
        assert!(out.is_constant());
        assert!(!out.initial());
    }

    fn arb_wave() -> impl Strategy<Value = Waveform> {
        (
            any::<bool>(),
            proptest::collection::vec(0.01..100.0f64, 0..10),
        )
            .prop_map(|(init, mut ts)| {
                ts.sort_by(f64::total_cmp);
                ts.dedup();
                Waveform::with_transitions(init, ts)
            })
    }

    proptest! {
        #[test]
        fn diff_symmetric(a in arb_wave(), b in arb_wave(), t in 0.0..120.0f64) {
            let d1 = a.diff(&b, 200.0);
            let d2 = b.diff(&a, 200.0);
            prop_assert_eq!(d1.contains(t), d2.contains(t));
        }

        #[test]
        fn diff_matches_pointwise(a in arb_wave(), b in arb_wave(), t in 0.0..120.0f64) {
            let d = a.diff(&b, 200.0);
            prop_assert_eq!(d.contains(t), a.value_at(t) != b.value_at(t));
        }

        #[test]
        fn self_diff_empty(a in arb_wave()) {
            prop_assert!(a.diff(&a, 200.0).is_empty());
        }

        #[test]
        fn polarity_delay_preserves_validity(a in arb_wave(), d in 0.0..50.0f64) {
            for pol in Polarity::BOTH {
                let f = a.delayed_polarity(d, pol);
                prop_assert_eq!(f.initial(), a.initial());
                // strictly increasing transitions
                for w in f.transitions().windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
        }

        #[test]
        fn polarity_delay_zero_is_identity(a in arb_wave()) {
            for pol in Polarity::BOTH {
                prop_assert_eq!(a.delayed_polarity(0.0, pol), a.clone());
            }
        }

        #[test]
        fn polarity_delay_never_moves_left(a in arb_wave(), d in 0.0..50.0f64) {
            // the faulty waveform differs from the fault-free one only at or
            // after the first affected edge, and the final value matches
            // unless pulses were swallowed (then parity still matches
            // because edges vanish in pairs)
            let f = a.delayed_polarity(d, Polarity::SlowToRise);
            prop_assert_eq!(f.final_value(), a.final_value());
            prop_assert!(f.transitions().len() <= a.transitions().len());
        }

        #[test]
        fn eval_gate_final_value_matches_steady_state(
            a in arb_wave(), b in arb_wave(), rise in 0.1..5.0f64, fall in 0.1..5.0f64
        ) {
            for kind in [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor, GateKind::Xor] {
                let out = eval_gate(kind, &[&a, &b], rise, fall);
                prop_assert_eq!(
                    out.final_value(),
                    kind.eval(&[a.final_value(), b.final_value()]),
                    "kind {}", kind
                );
                prop_assert_eq!(out.initial(), kind.eval(&[a.initial(), b.initial()]));
                for w in out.transitions().windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
        }
    }
}
