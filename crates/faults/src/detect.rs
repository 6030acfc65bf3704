use fastmon_timing::Time;

use crate::{Interval, IntervalSet, IntervalSetRef};

/// The detection ranges of one fault, kept *per observation point*.
///
/// For every observation point (indexed as in
/// [`Circuit::observe_points`](fastmon_netlist::Circuit::observe_points))
/// that the fault reaches with a non-empty difference, the raw
/// detecting-observation-time set of the standard flip-flop is stored
/// **unclipped** — including times below `t_min` that only become reachable
/// after a monitor delay shifts them right (`I_SR = I_FF + d`).
///
/// The storage is flat, in the layout of a [`DetectionTable`] row: one
/// array of `(observation point, end of its intervals)` pairs and one of
/// intervals. Readers borrow it as a [`RangeRef`] through
/// [`view`](Self::view).
///
/// # Example
///
/// ```
/// use fastmon_faults::{DetectionRange, Interval, IntervalSet};
///
/// let mut dr = DetectionRange::new();
/// dr.push(0, IntervalSet::from_intervals([Interval::new(10.0, 30.0)]));
/// dr.push(2, IntervalSet::from_intervals([Interval::new(5.0, 8.0)]));
/// let raw = dr.raw_union();
/// assert!(raw.contains(25.0));
/// assert!(raw.contains(6.0)); // raw: nothing is clipped to a window yet
/// assert_eq!(dr.iter().map(|(op, _)| op).collect::<Vec<_>>(), [0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectionRange {
    /// per observation point: its index and the end of its intervals
    points: Vec<(u32, u32)>,
    intervals: Vec<Interval>,
}

/// `i` as the `u32` the flat layouts store.
fn to_u32(i: usize) -> u32 {
    u32::try_from(i).unwrap_or_else(|_| unreachable!("detection index {i} exceeds u32"))
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
    ///
    /// # Panics
    ///
    /// Panics if `op_index` does not fit a `u32`.
    pub fn push(&mut self, op_index: usize, set: IntervalSet) {
        if set.is_empty() {
            return;
        }
        let op = to_u32(op_index);
        let Some(k) = self.points.iter().position(|&(i, _)| i == op) else {
            self.intervals.extend_from_slice(set.as_slice());
            self.points.push((op, to_u32(self.intervals.len())));
            return;
        };
        let lo = if k == 0 {
            0
        } else {
            self.points[k - 1].1 as usize
        };
        let hi = self.points[k].1 as usize;
        let merged = IntervalSetRef::new(&self.intervals[lo..hi])
            .to_set()
            .union(&set);
        let end = lo + merged.len();
        self.intervals
            .splice(lo..hi, merged.as_slice().iter().copied());
        for point in &mut self.points[k..] {
            point.1 = to_u32(point.1 as usize - hi + end);
        }
    }

    /// Returns `true` if no observation point sees the fault at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The range as a borrowed [`RangeRef`].
    #[must_use]
    pub fn view(&self) -> RangeRef<'_> {
        RangeRef {
            points: &self.points,
            intervals: &self.intervals,
            start: 0,
        }
    }

    /// Iterates over `(observation point index, raw interval set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, IntervalSetRef<'_>)> {
        self.view().iter()
    }

    /// Union over all outputs of the raw (unclipped) ranges.
    #[must_use]
    pub fn raw_union(&self) -> IntervalSet {
        IntervalSet::from_intervals(self.intervals.iter().copied())
    }

    /// The per-output union of `ranges` in one pass: each observation
    /// point's intervals are gathered from every range and built with one
    /// [`IntervalSet::from_intervals`] call. Points keep the order in which
    /// they first appear, so the result equals [`push`](Self::push)ing
    /// every point of every range, in order, into an empty range.
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
    /// let union = DetectionRange::union_of([a.view(), b.view()]);
    /// assert_eq!(union.iter().map(|(op, _)| op).collect::<Vec<_>>(), [3, 1]);
    /// let (_, at3) = union.iter().next().unwrap();
    /// assert_eq!(at3.as_slice(), &[Interval::new(0.0, 2.0)]);
    /// ```
    #[must_use]
    pub fn union_of<'a, I: IntoIterator<Item = RangeRef<'a>>>(ranges: I) -> DetectionRange {
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
        let mut union = DetectionRange::new();
        for (op, ivs) in gathered {
            let set = IntervalSet::from_intervals(ivs);
            union.intervals.extend_from_slice(set.as_slice());
            union
                .points
                .push((to_u32(op), to_u32(union.intervals.len())));
        }
        union
    }

    /// Applies pessimistic glitch filtering to every per-output set.
    #[must_use]
    pub fn filter_glitches(&self, threshold: Time) -> DetectionRange {
        let mut out = DetectionRange::new();
        for (op, set) in self.iter() {
            out.push(op, set.to_set().filter_glitches(threshold));
        }
        out
    }
}

/// A borrowed [`DetectionRange`]: one fault's raw ranges under one
/// pattern, per observation point, as a [`DetectionTable`] row or a
/// [`DetectionRange`] lends them.
#[derive(Debug, Clone, Copy)]
pub struct RangeRef<'a> {
    /// per observation point: its index and the end of its intervals
    points: &'a [(u32, u32)],
    /// the intervals the ends index into
    intervals: &'a [Interval],
    /// where the first point's intervals begin
    start: usize,
}

impl<'a> RangeRef<'a> {
    /// Returns `true` if no observation point sees the fault.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.points.is_empty()
    }

    /// Number of observation points with a difference.
    #[must_use]
    pub fn len(self) -> usize {
        self.points.len()
    }

    /// Iterates over `(observation point index, raw interval set)` pairs.
    pub fn iter(self) -> impl Iterator<Item = (usize, IntervalSetRef<'a>)> {
        let mut lo = self.start;
        self.points.iter().map(move |&(op, end)| {
            let set = IntervalSetRef::new(&self.intervals[lo..end as usize]);
            lo = end as usize;
            (op as usize, set)
        })
    }

    /// Where the range's intervals sit in the intervals it borrows.
    fn intervals_span(self) -> std::ops::Range<usize> {
        let end = self
            .points
            .last()
            .map_or(self.start, |&(_, end)| end as usize);
        self.start..end
    }
}

impl PartialEq for RangeRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Every fault's raw detection ranges under every pattern that detects
/// it: the campaign's per-pattern result, which the schedule's
/// pattern-selection stage reads.
///
/// Each fault's row holds three flat arrays: entries (`pattern`, end of
/// its points), ascending by pattern; points (observation point, end of
/// its intervals); and the [`Interval`]s. A stored range therefore needs
/// no heap block of its own. Readers borrow [`RangeRef`]s.
///
/// # Example
///
/// ```
/// use fastmon_faults::{DetectionRange, DetectionTable, Interval, IntervalSet};
///
/// let mut dr = DetectionRange::new();
/// dr.push(1, IntervalSet::from_intervals([Interval::new(2.0, 3.0)]));
/// let mut table = DetectionTable::new(2);
/// table.push(0, 4, dr.view());
/// table.push(0, 9, dr.view());
/// assert_eq!(table.len(0), 2);
/// assert_eq!(table.len(1), 0);
/// assert_eq!(table.get(0, 9), Some(dr.view()));
/// assert_eq!(table.get(0, 5), None);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectionTable {
    rows: Vec<Row>,
}

/// One fault's ranges, or (in a [`RangeBatch`]) one pattern's ranges of
/// several faults: each entry's points follow the previous entry's, and
/// each point's intervals follow the previous point's.
#[derive(Debug, Clone, PartialEq, Default)]
struct Row {
    /// per entry: its key (pattern, or fault in a batch) and the end of
    /// its points
    entries: Vec<(u32, u32)>,
    /// per point: its observation point and the end of its intervals
    points: Vec<(u32, u32)>,
    intervals: Vec<Interval>,
}

impl Row {
    /// Where entry `k`'s points begin.
    fn points_start(&self, k: usize) -> usize {
        if k == 0 {
            0
        } else {
            self.entries[k - 1].1 as usize
        }
    }

    /// Where point `j`'s intervals begin.
    fn intervals_start(&self, j: usize) -> usize {
        if j == 0 {
            0
        } else {
            self.points[j - 1].1 as usize
        }
    }

    fn entry(&self, k: usize) -> (u32, RangeRef<'_>) {
        let (key, end) = self.entries[k];
        let lo = self.points_start(k);
        let range = RangeRef {
            points: &self.points[lo..end as usize],
            intervals: &self.intervals,
            start: self.intervals_start(lo),
        };
        (key, range)
    }

    /// Appends `range` as one entry under `key`, its points' ends moved
    /// to where its intervals land.
    fn push(&mut self, key: u32, range: RangeRef<'_>) {
        let span = range.intervals_span();
        let (lo, base) = (span.start, self.intervals.len());
        self.intervals.extend_from_slice(&range.intervals[span]);
        self.points.extend(
            range
                .points
                .iter()
                .map(|&(op, end)| (op, to_u32(end as usize - lo + base))),
        );
        self.entries.push((key, to_u32(self.points.len())));
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.entries.capacity() * size_of::<(u32, u32)>()
            + self.points.capacity() * size_of::<(u32, u32)>()
            + self.intervals.capacity() * size_of::<Interval>()
    }
}

impl DetectionTable {
    /// A table of `faults` rows without entries.
    #[must_use]
    pub fn new(faults: usize) -> Self {
        DetectionTable {
            rows: vec![Row::default(); faults],
        }
    }

    /// [`new`](Self::new), failing instead of aborting when the rows
    /// cannot be allocated.
    ///
    /// # Errors
    ///
    /// The allocator's error when `faults` rows do not fit in memory.
    pub fn try_new(faults: usize) -> Result<Self, std::collections::TryReserveError> {
        let mut rows = Vec::new();
        rows.try_reserve_exact(faults)?;
        rows.resize_with(faults, Row::default);
        Ok(DetectionTable { rows })
    }

    /// Number of fault rows.
    #[must_use]
    pub fn num_faults(&self) -> usize {
        self.rows.len()
    }

    /// Number of patterns with a range for `fault`.
    #[must_use]
    pub fn len(&self, fault: usize) -> usize {
        self.rows[fault].entries.len()
    }

    /// Entry `k` of `fault`'s row: its pattern and range.
    #[must_use]
    pub fn entry(&self, fault: usize, k: usize) -> (u32, RangeRef<'_>) {
        self.rows[fault].entry(k)
    }

    /// `fault`'s `(pattern, range)` entries in ascending pattern order.
    pub fn entries(
        &self,
        fault: usize,
    ) -> impl DoubleEndedIterator<Item = (u32, RangeRef<'_>)> + ExactSizeIterator {
        let row = &self.rows[fault];
        (0..row.entries.len()).map(move |k| row.entry(k))
    }

    /// `fault`'s range under `pattern`, found by binary search.
    #[must_use]
    pub fn get(&self, fault: usize, pattern: u32) -> Option<RangeRef<'_>> {
        let row = &self.rows[fault];
        row.entries
            .binary_search_by_key(&pattern, |&(p, _)| p)
            .ok()
            .map(|k| row.entry(k).1)
    }

    /// Appends `range` as `fault`'s range under `pattern`, which must
    /// follow every pattern of the row.
    pub fn push(&mut self, fault: usize, pattern: u32, range: RangeRef<'_>) {
        let row = &mut self.rows[fault];
        debug_assert!(row.entries.last().is_none_or(|&(p, _)| p < pattern));
        row.push(pattern, range);
    }

    /// Grows each row's arrays by exactly what appending `batches` adds to
    /// them. A campaign calls this once per band, so its rows carry no
    /// spare capacity between bands; [`append`](Self::append) alone grows
    /// them by amortized doubling, which leaves up to half a row spare.
    pub fn reserve_exact(&mut self, batches: &[RangeBatch]) {
        let mut need = vec![[0; 3]; self.rows.len()];
        for batch in batches {
            for k in 0..batch.row.entries.len() {
                let (fault, range) = batch.row.entry(k);
                let [entries, points, intervals] = &mut need[fault as usize];
                *entries += 1;
                *points += range.len();
                *intervals += range.intervals_span().len();
            }
        }
        for (row, [entries, points, intervals]) in self.rows.iter_mut().zip(need) {
            row.entries.reserve_exact(entries);
            row.points.reserve_exact(points);
            row.intervals.reserve_exact(intervals);
        }
    }

    /// Appends every range of `batch` to its fault's row, under `pattern`.
    pub fn append(&mut self, pattern: u32, batch: &RangeBatch) {
        for k in 0..batch.row.entries.len() {
            let (fault, range) = batch.row.entry(k);
            self.push(fault as usize, pattern, range);
        }
    }

    /// Appends `other`'s rows after this table's.
    pub fn append_rows(&mut self, mut other: DetectionTable) {
        self.rows.append(&mut other.rows);
    }

    /// Bytes the table holds on the heap, spare capacity included.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<Row>()
            + self.rows.iter().map(Row::heap_bytes).sum::<usize>()
    }
}

/// The ranges of several faults under one pattern, in a
/// [`DetectionTable`] row's layout with the fault in the pattern's place:
/// what one campaign work item collects before
/// [`DetectionTable::append`] files it.
///
/// A cone walk appends a fault's raw `(observation point, end)` pairs and
/// intervals to [`buffers`](Self::buffers), each end counting from the
/// start of the interval buffer, and [`close`](Self::close) clips,
/// glitch-filters and files them in place.
#[derive(Debug, Clone, Default)]
pub struct RangeBatch {
    row: Row,
}

impl RangeBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        RangeBatch::default()
    }

    /// The point and interval buffers a walk appends one fault's raw
    /// ranges to.
    pub fn buffers(&mut self) -> (&mut Vec<(u32, u32)>, &mut Vec<Interval>) {
        (&mut self.row.points, &mut self.row.intervals)
    }

    /// Files the points appended since the last filed range as `fault`'s
    /// range. Each interval is clipped to `[0, horizon)` and kept if it is
    /// at least `glitch_threshold` long, as [`IntervalSet::clipped`] and
    /// then [`IntervalSet::filter_glitches`] would; a point that keeps no
    /// interval is dropped, and so is a range that keeps no point.
    pub fn close(&mut self, fault: u32, horizon: Time, glitch_threshold: Time) {
        let row = &mut self.row;
        let first = row.points_start(row.entries.len());
        let mut lo = row.intervals_start(first);
        let (mut points, mut intervals) = (first, lo);
        for j in first..row.points.len() {
            let (op, end) = row.points[j];
            let kept = intervals;
            for i in lo..end as usize {
                let iv = row.intervals[i];
                let (s, e) = (iv.start.max(0.0), iv.end.min(horizon));
                if s < e && e - s >= glitch_threshold {
                    row.intervals[intervals] = Interval::new(s, e);
                    intervals += 1;
                }
            }
            lo = end as usize;
            if intervals > kept {
                row.points[points] = (op, to_u32(intervals));
                points += 1;
            }
        }
        row.points.truncate(points);
        row.intervals.truncate(intervals);
        if points > first {
            row.entries.push((fault, to_u32(points)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interval;

    fn set(ivs: &[(f64, f64)]) -> IntervalSet {
        IntervalSet::from_intervals(ivs.iter().map(|&(s, e)| Interval::new(s, e)))
    }

    #[test]
    fn push_unions_same_output() {
        let mut dr = DetectionRange::new();
        dr.push(1, set(&[(0.0, 1.0)]));
        dr.push(4, set(&[(7.0, 8.0)]));
        dr.push(1, set(&[(0.5, 2.0), (3.0, 4.0)]));
        let points: Vec<(usize, IntervalSet)> = dr.iter().map(|(op, s)| (op, s.to_set())).collect();
        assert_eq!(
            points,
            [(1, set(&[(0.0, 2.0), (3.0, 4.0)])), (4, set(&[(7.0, 8.0)]))]
        );
    }

    #[test]
    fn empty_sets_ignored() {
        let mut dr = DetectionRange::new();
        dr.push(0, IntervalSet::new());
        assert!(dr.is_empty());
    }

    #[test]
    fn glitch_filter_drops_emptied_outputs() {
        let mut dr = DetectionRange::new();
        dr.push(0, set(&[(0.0, 0.1)]));
        dr.push(1, set(&[(0.0, 5.0)]));
        let f = dr.filter_glitches(1.0);
        assert_eq!(f.iter().map(|(op, _)| op).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn union_of_keeps_first_appearance_order() {
        let mut a = DetectionRange::new();
        a.push(0, set(&[(0.0, 1.0)]));
        let mut b = DetectionRange::new();
        b.push(0, set(&[(2.0, 3.0)]));
        b.push(5, set(&[(4.0, 5.0)]));
        let union = DetectionRange::union_of([a.view(), b.view()]);
        let mut expected = DetectionRange::new();
        expected.push(0, set(&[(0.0, 1.0), (2.0, 3.0)]));
        expected.push(5, set(&[(4.0, 5.0)]));
        assert_eq!(union, expected);
    }

    #[test]
    fn table_rows_lend_each_entry() {
        let mut a = DetectionRange::new();
        a.push(2, set(&[(1.0, 2.0), (3.0, 4.0)]));
        a.push(0, set(&[(5.0, 6.0)]));
        let mut b = DetectionRange::new();
        b.push(1, set(&[(7.0, 9.0)]));
        let mut table = DetectionTable::new(3);
        table.push(1, 0, a.view());
        table.push(1, 3, DetectionRange::new().view());
        table.push(1, 7, b.view());
        table.push(2, 2, b.view());
        assert_eq!(table.len(0), 0);
        let empty = DetectionRange::new();
        assert_eq!(
            table.entries(1).collect::<Vec<_>>(),
            [(0, a.view()), (3, empty.view()), (7, b.view())]
        );
        assert_eq!(table.get(1, 7), Some(b.view()));
        assert_eq!(table.get(2, 7), None);
        assert!(table.heap_bytes() >= 3 * std::mem::size_of::<Row>());

        let mut rows = DetectionTable::new(1);
        rows.append_rows(table.clone());
        assert_eq!(rows.num_faults(), 4);
        assert_eq!(rows.entry(2, 2).1, b.view());
    }

    #[test]
    fn batches_clip_filter_and_file_in_pattern_order() {
        // what a walk appends: each point's end counts from the start of
        // the interval buffer
        fn walk(batch: &mut RangeBatch, raw: &[(u32, &[(f64, f64)])]) {
            let (points, intervals) = batch.buffers();
            for &(op, ivs) in raw {
                intervals.extend(ivs.iter().map(|&(s, e)| Interval::new(s, e)));
                points.push((op, u32::try_from(intervals.len()).unwrap()));
            }
        }
        let mut batch = RangeBatch::new();
        // fault 4: one point loses its only interval to the glitch filter,
        // the other is clipped to the horizon
        walk(&mut batch, &[(0, &[(1.0, 1.5)]), (3, &[(8.0, 12.0)])]);
        batch.close(4, 10.0, 1.0);
        // fault 5: nothing survives, so nothing is filed
        walk(&mut batch, &[(1, &[(11.0, 13.0), (2.0, 2.5)])]);
        batch.close(5, 10.0, 1.0);
        // fault 6: a negative start is clipped to 0
        walk(&mut batch, &[(2, &[(-2.0, 3.0)])]);
        batch.close(6, 10.0, 1.0);

        let mut table = DetectionTable::new(7);
        table.reserve_exact(std::slice::from_ref(&batch));
        table.append(9, &batch);
        // two entries, points and intervals, and no spare capacity
        let payload = 2 * (8 + 8 + 16);
        assert_eq!(table.heap_bytes(), 7 * std::mem::size_of::<Row>() + payload);
        let mut four = DetectionRange::new();
        four.push(3, set(&[(8.0, 10.0)]));
        let mut six = DetectionRange::new();
        six.push(2, set(&[(0.0, 3.0)]));
        assert_eq!(table.get(4, 9), Some(four.view()));
        assert_eq!(table.len(5), 0);
        assert_eq!(table.get(6, 9), Some(six.view()));
    }
}
