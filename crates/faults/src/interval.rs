use std::fmt;

use fastmon_timing::Time;

/// A half-open time interval `[start, end)`.
///
/// Degenerate (`end <= start`) intervals are considered empty and are never
/// stored inside an [`IntervalSet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Inclusive start time.
    pub start: Time,
    /// Exclusive end time.
    pub end: Time,
}

impl Interval {
    /// Creates an interval.
    #[must_use]
    pub fn new(start: Time, end: Time) -> Self {
        Interval { start, end }
    }

    /// Length of the interval (0 for empty/degenerate intervals).
    #[must_use]
    pub fn len(&self) -> Time {
        (self.end - self.start).max(0.0)
    }

    /// Returns `true` if the interval contains no time points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Whether `t` lies in `[start, end)`.
    #[must_use]
    pub fn contains(&self, t: Time) -> bool {
        self.start <= t && t < self.end
    }

    /// Midpoint of the interval.
    #[must_use]
    pub fn midpoint(&self) -> Time {
        0.5 * (self.start + self.end)
    }

    /// The interval shifted right by `d` (negative `d` shifts left).
    #[must_use]
    pub fn shifted(&self, d: Time) -> Self {
        Interval::new(self.start + d, self.end + d)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A set of disjoint, sorted, half-open time intervals.
///
/// This is the representation of *detection ranges*: the set of observation
/// times at which a fault changes a captured value. The invariant is that
/// stored intervals are non-empty, sorted by start and non-touching
/// (touching intervals are merged on insert).
///
/// # Example
///
/// ```
/// use fastmon_faults::{Interval, IntervalSet};
///
/// let a = IntervalSet::from_intervals([Interval::new(0.0, 1.0), Interval::new(2.0, 3.0)]);
/// let b = IntervalSet::from_intervals([Interval::new(0.5, 2.5)]);
/// let u = a.union(&b);
/// assert_eq!(u.iter().count(), 1);
/// assert_eq!(u.total_len(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntervalSet {
    ivs: Vec<Interval>,
}

impl IntervalSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Builds a set from arbitrary intervals in one sort-and-coalesce
    /// pass: empty intervals are dropped, the rest are sorted by start and
    /// coalesced in place where they overlap or touch, and the capacity the
    /// input needed before coalescing is released.
    ///
    /// The result is the canonical set of the intervals' union, so it is
    /// identical to [`insert`](Self::insert)ing them one by one in any
    /// order: each stored start and end is one of the input's own values.
    #[must_use]
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(intervals: I) -> Self {
        let mut ivs: Vec<Interval> = intervals.into_iter().filter(|iv| !iv.is_empty()).collect();
        ivs.sort_unstable_by(|a, b| a.start.total_cmp(&b.start));
        // `ivs[..len]` holds the coalesced prefix
        let mut len = 0;
        for i in 0..ivs.len() {
            let iv = ivs[i];
            if len > 0 && iv.start <= ivs[len - 1].end {
                ivs[len - 1].end = ivs[len - 1].end.max(iv.end);
            } else {
                ivs[len] = iv;
                len += 1;
            }
        }
        ivs.truncate(len);
        ivs.shrink_to_fit();
        IntervalSet { ivs }
    }

    /// Inserts an interval, merging with overlapping/touching neighbours.
    /// Empty intervals are ignored.
    pub fn insert(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        // position of the first stored interval whose end >= iv.start
        let lo = self.ivs.partition_point(|x| x.end < iv.start);
        // position past the last stored interval whose start <= iv.end
        let hi = self.ivs.partition_point(|x| x.start <= iv.end);
        if lo == hi {
            self.ivs.insert(lo, iv);
        } else {
            let merged = Interval::new(
                iv.start.min(self.ivs[lo].start),
                iv.end.max(self.ivs[hi - 1].end),
            );
            self.ivs.splice(lo..hi, std::iter::once(merged));
        }
    }

    /// Returns `true` if the set contains no intervals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// Number of disjoint intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ivs.len()
    }

    /// Iterates over the disjoint intervals in time order.
    pub fn iter(&self) -> impl Iterator<Item = &Interval> {
        self.ivs.iter()
    }

    /// The intervals as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Interval] {
        &self.ivs
    }

    /// Total covered time.
    #[must_use]
    pub fn total_len(&self) -> Time {
        self.ivs.iter().map(Interval::len).sum()
    }

    /// The set as a borrowed [`IntervalSetRef`].
    #[must_use]
    pub fn view(&self) -> IntervalSetRef<'_> {
        IntervalSetRef { ivs: &self.ivs }
    }

    /// Whether observation time `t` is covered.
    #[must_use]
    pub fn contains(&self, t: Time) -> bool {
        self.view().contains(t)
    }

    /// The union of two sets.
    #[must_use]
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        // merge the two sorted lists, then coalesce
        let mut all: Vec<Interval> = Vec::with_capacity(self.ivs.len() + other.ivs.len());
        let (mut i, mut j) = (0, 0);
        while i < self.ivs.len() || j < other.ivs.len() {
            let take_self = j >= other.ivs.len()
                || (i < self.ivs.len() && self.ivs[i].start <= other.ivs[j].start);
            if take_self {
                all.push(self.ivs[i]);
                i += 1;
            } else {
                all.push(other.ivs[j]);
                j += 1;
            }
        }
        let mut out: Vec<Interval> = Vec::with_capacity(all.len());
        for iv in all {
            match out.last_mut() {
                Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
                _ => out.push(iv),
            }
        }
        IntervalSet { ivs: out }
    }

    /// The intersection of two sets.
    #[must_use]
    pub fn intersection(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ivs.len() && j < other.ivs.len() {
            let a = self.ivs[i];
            let b = other.ivs[j];
            let lo = a.start.max(b.start);
            let hi = a.end.min(b.end);
            if lo < hi {
                out.push(Interval::new(lo, hi));
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { ivs: out }
    }

    /// The set shifted right by `d` time units (the detection-range algebra
    /// of monitor delay elements: `I_SR = I_FF + d`).
    #[must_use]
    pub fn shifted(&self, d: Time) -> IntervalSet {
        IntervalSet {
            ivs: self.ivs.iter().map(|iv| iv.shifted(d)).collect(),
        }
    }

    /// The set clipped to the window `[lo, hi)`.
    #[must_use]
    pub fn clipped(&self, lo: Time, hi: Time) -> IntervalSet {
        let ivs = self
            .ivs
            .iter()
            .filter_map(|iv| {
                let s = iv.start.max(lo);
                let e = iv.end.min(hi);
                (s < e).then(|| Interval::new(s, e))
            })
            .collect();
        IntervalSet { ivs }
    }

    /// Pessimistic pulse filtering of detection ranges (Fig. 1 of the
    /// paper): every interval shorter than `threshold` is assumed to be a
    /// glitch that CMOS pulse filtering may swallow, and is removed. The
    /// remaining intervals stay disjoint — gaps are *not* bridged, which is
    /// the pessimistic choice (a glitch that masks a fault keeps the
    /// adjacent intervals separate).
    #[must_use]
    pub fn filter_glitches(&self, threshold: Time) -> IntervalSet {
        IntervalSet {
            ivs: self
                .ivs
                .iter()
                .copied()
                .filter(|iv| iv.len() >= threshold)
                .collect(),
        }
    }

    /// All interval boundary times in ascending order (used by the
    /// observation-time discretization of Sec. IV-A).
    #[must_use]
    pub fn boundaries(&self) -> Vec<Time> {
        let mut out = Vec::with_capacity(2 * self.ivs.len());
        for iv in &self.ivs {
            out.push(iv.start);
            out.push(iv.end);
        }
        out
    }
}

/// A borrowed [`IntervalSet`]: a slice of disjoint, sorted, non-touching,
/// non-empty intervals, with the set's read-only queries. A
/// [`RangeRef`](crate::RangeRef) lends one per observation point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntervalSetRef<'a> {
    ivs: &'a [Interval],
}

impl<'a> IntervalSetRef<'a> {
    /// Views `ivs`, which must already hold a set's invariant.
    pub(crate) fn new(ivs: &'a [Interval]) -> Self {
        IntervalSetRef { ivs }
    }

    /// Returns `true` if the set contains no intervals.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.ivs.is_empty()
    }

    /// Number of disjoint intervals.
    #[must_use]
    pub fn len(self) -> usize {
        self.ivs.len()
    }

    /// Iterates over the disjoint intervals in time order.
    pub fn iter(self) -> std::slice::Iter<'a, Interval> {
        self.ivs.iter()
    }

    /// The intervals as a slice.
    #[must_use]
    pub fn as_slice(self) -> &'a [Interval] {
        self.ivs
    }

    /// An owned copy of the set.
    #[must_use]
    pub fn to_set(self) -> IntervalSet {
        IntervalSet {
            ivs: self.ivs.to_vec(),
        }
    }

    /// Whether observation time `t` is covered.
    #[must_use]
    pub fn contains(self, t: Time) -> bool {
        let i = self.ivs.partition_point(|x| x.end <= t);
        i < self.ivs.len() && self.ivs[i].contains(t)
    }

    /// Whether `t` lies in the set shifted right by `d`: the answer of
    /// `self.to_set().shifted(d).contains(t)`, bit for bit, without
    /// building the shifted set. It tests `iv.start + d <= t < iv.end + d`,
    /// the sums [`Interval::shifted`] computes, and never `t - d`, which
    /// rounds differently.
    #[must_use]
    pub fn contains_shifted(self, d: Time, t: Time) -> bool {
        // the shifted ends stay sorted: adding `d` never reorders them
        let i = self.ivs.partition_point(|x| x.end + d <= t);
        i < self.ivs.len() && self.ivs[i].shifted(d).contains(t)
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<T: IntoIterator<Item = Interval>>(iter: T) -> Self {
        IntervalSet::from_intervals(iter)
    }
}

impl Extend<Interval> for IntervalSet {
    fn extend<T: IntoIterator<Item = Interval>>(&mut self, iter: T) {
        for iv in iter {
            self.insert(iv);
        }
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, iv) in self.ivs.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_merges_overlaps() {
        let mut s = IntervalSet::new();
        s.insert(Interval::new(0.0, 1.0));
        s.insert(Interval::new(2.0, 3.0));
        s.insert(Interval::new(0.5, 2.5));
        assert_eq!(s.len(), 1);
        assert_eq!(s.as_slice()[0], Interval::new(0.0, 3.0));
    }

    #[test]
    fn insert_merges_touching() {
        let mut s = IntervalSet::new();
        s.insert(Interval::new(0.0, 1.0));
        s.insert(Interval::new(1.0, 2.0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.total_len(), 2.0);
    }

    #[test]
    fn empty_intervals_ignored() {
        let mut s = IntervalSet::new();
        s.insert(Interval::new(1.0, 1.0));
        s.insert(Interval::new(2.0, 1.0));
        assert!(s.is_empty());
    }

    #[test]
    fn contains_respects_half_openness() {
        let s = IntervalSet::from_intervals([Interval::new(1.0, 2.0)]);
        assert!(!s.contains(0.999));
        assert!(s.contains(1.0));
        assert!(s.contains(1.999));
        assert!(!s.contains(2.0));
    }

    #[test]
    fn union_and_intersection() {
        let a = IntervalSet::from_intervals([Interval::new(0.0, 2.0), Interval::new(4.0, 6.0)]);
        let b = IntervalSet::from_intervals([Interval::new(1.0, 5.0)]);
        let u = a.union(&b);
        assert_eq!(u.as_slice(), &[Interval::new(0.0, 6.0)]);
        let i = a.intersection(&b);
        assert_eq!(
            i.as_slice(),
            &[Interval::new(1.0, 2.0), Interval::new(4.0, 5.0)]
        );
    }

    #[test]
    fn shift_and_clip() {
        let s = IntervalSet::from_intervals([Interval::new(1.0, 3.0)]);
        let shifted = s.shifted(2.0);
        assert_eq!(shifted.as_slice(), &[Interval::new(3.0, 5.0)]);
        let clipped = shifted.clipped(4.0, 10.0);
        assert_eq!(clipped.as_slice(), &[Interval::new(4.0, 5.0)]);
        assert!(shifted.clipped(6.0, 10.0).is_empty());
    }

    #[test]
    fn glitch_filter_is_pessimistic() {
        // Fig. 1: a short interval between two long ones is dropped and the
        // neighbours stay disjoint.
        let s = IntervalSet::from_intervals([
            Interval::new(0.0, 1.0),
            Interval::new(1.2, 1.3),
            Interval::new(2.0, 3.0),
        ]);
        let f = s.filter_glitches(0.5);
        assert_eq!(
            f.as_slice(),
            &[Interval::new(0.0, 1.0), Interval::new(2.0, 3.0)]
        );
    }

    #[test]
    fn boundaries_sorted() {
        let s = IntervalSet::from_intervals([Interval::new(4.0, 6.0), Interval::new(0.0, 2.0)]);
        assert_eq!(s.boundaries(), vec![0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn display_formats() {
        let s = IntervalSet::from_intervals([Interval::new(0.0, 1.0), Interval::new(2.0, 3.0)]);
        assert_eq!(s.to_string(), "{[0, 1) ∪ [2, 3)}");
        assert_eq!(IntervalSet::new().to_string(), "{}");
    }

    fn arb_set() -> impl Strategy<Value = IntervalSet> {
        proptest::collection::vec((0.0..100.0f64, 0.01..10.0f64), 0..12).prop_map(|pairs| {
            IntervalSet::from_intervals(pairs.into_iter().map(|(s, l)| Interval::new(s, s + l)))
        })
    }

    proptest! {
        #[test]
        fn invariant_sorted_disjoint(s in arb_set()) {
            for w in s.as_slice().windows(2) {
                prop_assert!(w[0].end < w[1].start, "{} then {}", w[0], w[1]);
            }
            for iv in s.iter() {
                prop_assert!(!iv.is_empty());
            }
        }

        #[test]
        fn union_commutative(a in arb_set(), b in arb_set()) {
            prop_assert_eq!(a.union(&b), b.union(&a));
        }

        #[test]
        fn union_contains_both(a in arb_set(), b in arb_set(), t in 0.0..120.0f64) {
            let u = a.union(&b);
            prop_assert_eq!(u.contains(t), a.contains(t) || b.contains(t));
        }

        #[test]
        fn intersection_agrees_with_membership(a in arb_set(), b in arb_set(), t in 0.0..120.0f64) {
            let i = a.intersection(&b);
            prop_assert_eq!(i.contains(t), a.contains(t) && b.contains(t));
        }

        #[test]
        fn shift_preserves_length(s in arb_set(), d in -50.0..50.0f64) {
            prop_assert!((s.shifted(d).total_len() - s.total_len()).abs() < 1e-9);
        }

        #[test]
        fn shift_round_trip(s in arb_set(), d in -50.0..50.0f64) {
            let back = s.shifted(d).shifted(-d);
            prop_assert_eq!(back.len(), s.len());
            for (x, y) in back.iter().zip(s.iter()) {
                prop_assert!((x.start - y.start).abs() < 1e-9);
                prop_assert!((x.end - y.end).abs() < 1e-9);
            }
        }

        #[test]
        fn clip_bounds_membership(s in arb_set(), t in 0.0..120.0f64) {
            let c = s.clipped(20.0, 80.0);
            prop_assert_eq!(c.contains(t), s.contains(t) && (20.0..80.0).contains(&t));
        }

        #[test]
        fn glitch_filter_only_removes(s in arb_set(), w in 0.0..5.0f64) {
            let f = s.filter_glitches(w);
            prop_assert!(f.total_len() <= s.total_len() + 1e-12);
            for iv in f.iter() {
                prop_assert!(iv.len() >= w);
            }
        }

        #[test]
        fn union_idempotent(a in arb_set()) {
            prop_assert_eq!(a.union(&a), a);
        }

        #[test]
        fn from_intervals_equals_repeated_insert(
            steps in proptest::collection::vec((0..40u32, 0..8u32), 0..12),
        ) {
            // endpoints on a 0.1 grid: shared, touching and empty intervals,
            // ends that are rounded sums
            let ivs: Vec<Interval> = steps
                .iter()
                .map(|&(s, l)| {
                    let start = f64::from(s) * 0.1;
                    Interval::new(start, start + f64::from(l) * 0.1)
                })
                .collect();
            let mut inserted = IntervalSet::new();
            for iv in &ivs {
                inserted.insert(*iv);
            }
            let built = IntervalSet::from_intervals(ivs);
            let bits = |s: &IntervalSet| -> Vec<(u64, u64)> {
                s.iter().map(|iv| (iv.start.to_bits(), iv.end.to_bits())).collect()
            };
            prop_assert_eq!(bits(&built), bits(&inserted));
            prop_assert_eq!(built.ivs.capacity(), built.len());
        }

        #[test]
        fn contains_shifted_equals_the_shifted_set(
            steps in proptest::collection::vec((0..40u32, 1..8u32), 0..8),
            d in 0..12u32,
            t in 0..60u32,
        ) {
            let s = IntervalSet::from_intervals(steps.iter().map(|&(s, l)| {
                let start = f64::from(s) * 0.1;
                Interval::new(start, start + f64::from(l) * 0.1)
            }));
            let d = f64::from(d) * 0.1;
            // every shifted endpoint, plus a grid point
            let mut points = vec![f64::from(t) * 0.1];
            for iv in s.iter() {
                points.extend([iv.start + d, iv.end + d]);
            }
            for t in points {
                prop_assert_eq!(s.view().contains_shifted(d, t), s.shifted(d).contains(t));
            }
        }

        #[test]
        fn insert_order_irrelevant(pairs in proptest::collection::vec((0.0..100.0f64, 0.01..10.0f64), 0..10)) {
            let ivs: Vec<Interval> = pairs.iter().map(|&(s, l)| Interval::new(s, s + l)).collect();
            let fwd = IntervalSet::from_intervals(ivs.clone());
            let rev = IntervalSet::from_intervals(ivs.into_iter().rev());
            prop_assert_eq!(fwd, rev);
        }
    }
}
