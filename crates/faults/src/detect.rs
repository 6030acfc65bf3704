use fastmon_timing::Time;

use crate::{Interval, IntervalSet};

/// The detection ranges of one fault, kept *per observation point*.
///
/// For every observation point (indexed as in
/// [`Circuit::observe_points`](fastmon_netlist::Circuit::observe_points))
/// that the fault reaches with a non-empty difference, the raw
/// detecting-observation-time set of the standard flip-flop is stored
/// **unclipped** — including times below `t_min` that only become reachable
/// after a monitor delay shifts them right (`I_SR = I_FF + d`).
///
/// # Example
///
/// ```
/// use fastmon_faults::{DetectionRange, Interval, IntervalSet};
///
/// let mut dr = DetectionRange::new();
/// dr.push(0, IntervalSet::from_intervals([Interval::new(10.0, 30.0)]));
/// dr.push(2, IntervalSet::from_intervals([Interval::new(5.0, 8.0)]));
/// let ff = dr.ff_union(20.0, 100.0);
/// assert!(ff.contains(25.0));      // inside the FAST window
/// assert!(!ff.contains(6.0));      // below t_min: unobservable at a FF
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectionRange {
    per_output: Vec<(usize, IntervalSet)>,
}

impl DetectionRange {
    /// Creates an empty detection range (an undetected fault).
    #[must_use]
    pub fn new() -> Self {
        DetectionRange::default()
    }

    /// Records the raw difference intervals observed at observation point
    /// `op_index`. Empty sets are ignored; repeated pushes for the same
    /// output are unioned.
    pub fn push(&mut self, op_index: usize, set: IntervalSet) {
        if set.is_empty() {
            return;
        }
        match self.per_output.iter_mut().find(|(i, _)| *i == op_index) {
            Some((_, existing)) => *existing = existing.union(&set),
            None => self.per_output.push((op_index, set)),
        }
    }

    /// Returns `true` if no observation point sees the fault at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.per_output.is_empty()
    }

    /// Iterates over `(observation point index, raw interval set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &IntervalSet)> {
        self.per_output.iter().map(|(i, s)| (*i, s))
    }

    /// The raw set of one observation point, if present.
    #[must_use]
    pub fn at(&self, op_index: usize) -> Option<&IntervalSet> {
        self.per_output
            .iter()
            .find(|(i, _)| *i == op_index)
            .map(|(_, s)| s)
    }

    /// Union over all outputs of the raw (unclipped) ranges.
    #[must_use]
    pub fn raw_union(&self) -> IntervalSet {
        IntervalSet::from_intervals(self.per_output.iter().flat_map(|(_, s)| s.iter().copied()))
    }

    /// `I_FF(φ)`: the union over all standard flip-flops / primary outputs,
    /// clipped to the legal FAST window `[t_min, t_nom)`.
    #[must_use]
    pub fn ff_union(&self, t_min: Time, t_nom: Time) -> IntervalSet {
        self.raw_union().clipped(t_min, t_nom)
    }

    /// The per-output union of `ranges` in one pass: each observation
    /// point's intervals are gathered from every range and built with one
    /// [`IntervalSet::from_intervals`] call. Points keep the order in which
    /// they first appear, so the result equals [`merge`](Self::merge)-ing
    /// the ranges one by one, in order, into an empty range.
    ///
    /// # Example
    ///
    /// ```
    /// use fastmon_faults::{DetectionRange, Interval, IntervalSet};
    ///
    /// let mut a = DetectionRange::new();
    /// a.push(3, IntervalSet::from_intervals([Interval::new(0.0, 1.0)]));
    /// let mut b = DetectionRange::new();
    /// b.push(1, IntervalSet::from_intervals([Interval::new(5.0, 6.0)]));
    /// b.push(3, IntervalSet::from_intervals([Interval::new(1.0, 2.0)]));
    ///
    /// let union = DetectionRange::union_of([&a, &b]);
    /// let mut merged = DetectionRange::new();
    /// merged.merge(&a);
    /// merged.merge(&b);
    /// assert_eq!(union, merged);
    /// assert_eq!(union.iter().map(|(op, _)| op).collect::<Vec<_>>(), [3, 1]);
    /// ```
    #[must_use]
    pub fn union_of<'a, I: IntoIterator<Item = &'a DetectionRange>>(ranges: I) -> DetectionRange {
        let mut gathered: Vec<(usize, Vec<Interval>)> = Vec::new();
        for range in ranges {
            for (op, set) in range.iter() {
                match gathered.iter_mut().find(|(i, _)| *i == op) {
                    Some((_, ivs)) => ivs.extend_from_slice(set.as_slice()),
                    // an empty set is never pushed, so it names no point
                    None if !set.is_empty() => gathered.push((op, set.as_slice().to_vec())),
                    None => {}
                }
            }
        }
        DetectionRange {
            per_output: gathered
                .into_iter()
                .map(|(op, ivs)| (op, IntervalSet::from_intervals(ivs)))
                .collect(),
        }
    }

    /// Merges another detection range into this one (per-output union).
    pub fn merge(&mut self, other: &DetectionRange) {
        for (op, set) in other.iter() {
            self.push(op, set.clone());
        }
    }

    /// Applies pessimistic glitch filtering to every per-output set.
    #[must_use]
    pub fn filter_glitches(&self, threshold: Time) -> DetectionRange {
        DetectionRange {
            per_output: self
                .per_output
                .iter()
                .map(|(i, s)| (*i, s.filter_glitches(threshold)))
                .filter(|(_, s)| !s.is_empty())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interval;

    #[test]
    fn push_unions_same_output() {
        let mut dr = DetectionRange::new();
        dr.push(1, IntervalSet::from_intervals([Interval::new(0.0, 1.0)]));
        dr.push(1, IntervalSet::from_intervals([Interval::new(0.5, 2.0)]));
        assert_eq!(dr.iter().count(), 1);
        assert_eq!(dr.at(1).unwrap().total_len(), 2.0);
    }

    #[test]
    fn empty_sets_ignored() {
        let mut dr = DetectionRange::new();
        dr.push(0, IntervalSet::new());
        assert!(dr.is_empty());
    }

    #[test]
    fn ff_union_clips() {
        let mut dr = DetectionRange::new();
        dr.push(0, IntervalSet::from_intervals([Interval::new(1.0, 4.0)]));
        dr.push(3, IntervalSet::from_intervals([Interval::new(8.0, 12.0)]));
        let ff = dr.ff_union(3.0, 10.0);
        assert_eq!(
            ff.as_slice(),
            &[Interval::new(3.0, 4.0), Interval::new(8.0, 10.0)]
        );
    }

    #[test]
    fn merge_combines() {
        let mut a = DetectionRange::new();
        a.push(0, IntervalSet::from_intervals([Interval::new(0.0, 1.0)]));
        let mut b = DetectionRange::new();
        b.push(0, IntervalSet::from_intervals([Interval::new(2.0, 3.0)]));
        b.push(5, IntervalSet::from_intervals([Interval::new(4.0, 5.0)]));
        a.merge(&b);
        assert_eq!(a.iter().count(), 2);
        assert_eq!(a.at(0).unwrap().len(), 2);
    }

    #[test]
    fn glitch_filter_drops_emptied_outputs() {
        let mut dr = DetectionRange::new();
        dr.push(0, IntervalSet::from_intervals([Interval::new(0.0, 0.1)]));
        dr.push(1, IntervalSet::from_intervals([Interval::new(0.0, 5.0)]));
        let f = dr.filter_glitches(1.0);
        assert!(f.at(0).is_none());
        assert!(f.at(1).is_some());
    }
}
