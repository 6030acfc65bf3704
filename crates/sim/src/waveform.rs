use std::fmt;

use fastmon_faults::{Interval, IntervalSet, Polarity};
use fastmon_netlist::GateKind;
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

    /// Whether the signal has an edge of `polarity`, i.e. whether a delay
    /// fault of that polarity here is activated at all. Edges alternate in
    /// direction, so a single edge has the polarity of its new value and
    /// two or more edges hold both.
    pub(crate) fn has_edge(self, polarity: Polarity) -> bool {
        match self.transitions {
            [] => false,
            [_] => polarity.affects(!self.initial),
            _ => true,
        }
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
        let mut out = Vec::new();
        self.diff_into(other, horizon, &mut out);
        IntervalSet::from_intervals(out)
    }

    /// [`diff`](Self::diff), appended to `out`: the difference intervals in
    /// time order, empty ones dropped, exactly the intervals of `diff`'s
    /// set. Intervals already in `out` are left alone.
    pub fn diff_into(self, other: WaveRef<'_>, horizon: Time, out: &mut Vec<Interval>) {
        let first = out.len();
        // the starts ascend, so inserting into a set only ever coalesces
        // with the last interval
        let mut insert = |iv: Interval| {
            if iv.is_empty() {
                return;
            }
            match out[first..].last_mut() {
                Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
                _ => out.push(iv),
            }
        };
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
                    insert(Interval::new(since.max(0.0), t));
                    differ_since = None;
                }
                _ => {}
            }
        }
        if let Some(since) = differ_since {
            insert(Interval::new(since.max(0.0), horizon));
        }
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

/// A gate's output as a count over its inputs, so that an input toggle
/// moves the output in O(1) instead of a full [`GateKind::eval`]:
///
/// * AND, NAND, OR and NOR count their inputs at the controlling value,
///   and give the controlled output while the count is positive;
/// * XOR, XNOR, BUF and NOT (and the pass-through INPUT and DFF) count
///   their inputs at 1, and their output follows the count's parity;
/// * the constants mask the count away.
#[derive(Debug, Clone, Copy, Default)]
struct GateCount {
    /// the input value that is counted
    counted: bool,
    /// `u32::MAX` (a positive count), 1 (parity) or 0 (constant output)
    mask: u32,
    /// the output while `count & mask` is zero
    zero_out: bool,
    count: u32,
}

impl GateCount {
    /// The count of a `kind` gate with no inputs added yet.
    fn new(kind: GateKind) -> Self {
        let (counted, mask, zero_out) = match kind {
            GateKind::And => (false, u32::MAX, true),
            GateKind::Nand => (false, u32::MAX, false),
            GateKind::Or => (true, u32::MAX, false),
            GateKind::Nor => (true, u32::MAX, true),
            GateKind::Xor | GateKind::Buf | GateKind::Input | GateKind::Dff => (true, 1, false),
            GateKind::Xnor | GateKind::Not => (true, 1, true),
            GateKind::Const0 => (true, 0, false),
            GateKind::Const1 => (true, 0, true),
        };
        GateCount {
            counted,
            mask,
            zero_out,
            count: 0,
        }
    }

    /// Adds an input that holds `value`.
    #[inline]
    fn add(&mut self, value: bool) {
        self.count += u32::from(value == self.counted);
    }

    /// Moves an input from `value` to its complement.
    #[inline]
    fn toggle(&mut self, value: bool) {
        if value == self.counted {
            self.count -= 1;
        } else {
            self.count += 1;
        }
    }

    /// The gate's output.
    #[inline]
    fn output(self) -> bool {
        self.zero_out ^ (self.count & self.mask != 0)
    }
}

/// A fanin that moves: the index of its next edge and the end of its
/// edges in the buffer the gate's output is appended to, and its value
/// before that next edge.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    next: usize,
    end: usize,
    value: bool,
}

/// Reusable per-thread state of the counting gate kernel: the count of
/// the gate being evaluated, a merge cursor per moving fanin, and the
/// staging buffer of [`eval_gate_into`], each sized to the largest gate
/// seen so far.
///
/// One gate is evaluated by `start`, one `fanin` per input in pin order,
/// then `append_output`. Fault-free simulation runs it over the spans of
/// its own arena, and [`eval_gate_into`] over the fanins' edges copied
/// into the staging buffer.
#[derive(Debug, Default)]
pub struct EvalScratch {
    count: GateCount,
    cursors: Vec<Cursor>,
    /// [`eval_gate_into`]'s fanin edges, then the output's
    staged: Vec<Time>,
}

impl EvalScratch {
    /// Fresh (empty) scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Starts evaluating a `kind` gate.
    #[inline]
    pub(crate) fn start(&mut self, kind: GateKind) {
        self.count = GateCount::new(kind);
        self.cursors.clear();
    }

    /// Adds the gate's next input: its initial value and its edges at
    /// `arena[start..end]` of the buffer later passed to
    /// [`EvalScratch::append_output`].
    #[inline]
    pub(crate) fn fanin(&mut self, initial: bool, start: usize, end: usize) {
        self.count.add(initial);
        if start < end {
            self.cursors.push(Cursor {
                next: start,
                end,
                value: initial,
            });
        }
    }

    /// Appends the output edges of the gate onto `arena`, after every
    /// input's edges, and returns the output's initial value.
    ///
    /// Inputs that toggle at the same instant are applied together before
    /// the output is read. An output edge lands at its time plus the rise
    /// or fall delay of its new value; an edge that does not come strictly
    /// after the previous output edge annihilates with it
    /// ([`push_edge`]). A gate with no moving input returns at once; once
    /// a single input still moves, its remaining edges are walked by one
    /// cursor.
    pub(crate) fn append_output(&mut self, rise: Time, fall: Time, arena: &mut Vec<Time>) -> bool {
        let EvalScratch { count, cursors, .. } = self;
        let base = arena.len();
        let initial = count.output();
        let mut current = initial;
        let delay = |value: bool| if value { rise } else { fall };
        while cursors.len() > 1 {
            let t = cursors
                .iter()
                .map(|c| arena[c.next])
                .fold(f64::INFINITY, f64::min);
            let mut i = 0;
            while i < cursors.len() {
                let c = &mut cursors[i];
                if arena[c.next] == t {
                    count.toggle(c.value);
                    c.value = !c.value;
                    c.next += 1;
                    if c.next == c.end {
                        cursors.swap_remove(i);
                        continue;
                    }
                }
                i += 1;
            }
            let value = count.output();
            if value != current {
                current = value;
                push_edge(arena, base, t + delay(value));
            }
        }
        // one input left moving: the others hold, so either each of its
        // edges flips the output or none does
        if let Some(&Cursor { next, end, value }) = cursors.first() {
            let mut flipped = *count;
            flipped.toggle(value);
            if flipped.output() != current {
                for i in next..end {
                    current = !current;
                    let t = arena[i];
                    push_edge(arena, base, t + delay(current));
                }
            }
        }
        initial
    }
}

/// Appends an output edge at `t` to the segment `arena[base..]`. An edge
/// that does not come strictly after the segment's last edge annihilates
/// with it instead (a slow edge overtaken by a fast one); edges before
/// `base` belong to other waveforms and are never popped.
#[inline]
fn push_edge(arena: &mut Vec<Time>, base: usize, t: Time) {
    match arena.last() {
        Some(&last) if arena.len() > base && t <= last => {
            arena.pop();
        }
        _ => arena.push(t),
    }
}

/// Evaluates a gate's output waveform from its input waveforms.
///
/// The gate is a transport-delay element with separate rise/fall delays;
/// edges that would reorder (a slow rise overtaken by a fast fall)
/// annihilate pairwise.
#[must_use]
pub fn eval_gate(
    kind: GateKind,
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
/// The inputs' edges are staged in `scratch`, the counting kernel
/// ([`EvalScratch`]) appends the output's edges after them, and those are
/// copied to `out`. The campaign's cone walk calls this with buffers from
/// its pool, so it does not allocate per gate.
pub fn eval_gate_into<'a, F>(
    kind: GateKind,
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
    let mut staged = std::mem::take(&mut scratch.staged);
    staged.clear();
    scratch.start(kind);
    for k in 0..num_inputs {
        let wave = input(k);
        let start = staged.len();
        staged.extend_from_slice(wave.transitions);
        scratch.fanin(wave.initial, start, staged.len());
    }
    let base = staged.len();
    let initial = scratch.append_output(rise_delay, fall_delay, &mut staged);
    out.clear();
    out.extend_from_slice(&staged[base..]);
    scratch.staged = staged;
    initial
}

/// In-place variant of [`Waveform::filter_pulses`] over the segment
/// `transitions[start..]` of a raw transition buffer: a gate's own tail of
/// the fault-free arena, or a whole cone-walk buffer. Edges before `start`
/// are left alone.
pub(crate) fn filter_pulses_from(transitions: &mut Vec<Time>, start: usize, min_width: f64) {
    if min_width <= 0.0 || transitions.len() < start + 2 {
        return;
    }
    let mut w = start;
    for i in start..transitions.len() {
        let t = transitions[i];
        if w > start && t - transitions[w - 1] < min_width {
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
        // the segment after `start` is filtered as a waveform of its own;
        // the edges before it, even when close, are left alone
        let prefix = [1.0, 1.1, 4.9];
        for width in [0.0, 0.5, 1.0, 5.0] {
            let w = Waveform::with_transitions(true, vec![5.0, 5.2, 9.0, 20.0, 20.3, 40.0]);
            let expect = w.filter_pulses(width);
            let mut ts = w.transitions().to_vec();
            filter_pulses_from(&mut ts, 0, width);
            assert_eq!(ts, expect.transitions(), "width {width}");
            let mut ts = prefix.to_vec();
            ts.extend_from_slice(w.transitions());
            filter_pulses_from(&mut ts, prefix.len(), width);
            assert_eq!(ts[..prefix.len()], prefix, "width {width}");
            assert_eq!(&ts[prefix.len()..], expect.transitions(), "width {width}");
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
        fn has_edge_decides_whether_a_delay_changes_the_waveform(
            a in arb_wave(), d in 0.01..50.0f64
        ) {
            for pol in Polarity::BOTH {
                prop_assert_eq!(
                    a.view().has_edge(pol),
                    a.delayed_polarity(d, pol) != a,
                    "{} {:?}", a, pol
                );
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
