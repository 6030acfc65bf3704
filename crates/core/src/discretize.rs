use fastmon_faults::{Interval, IntervalSet};
use fastmon_timing::Time;

/// Computes the elementary intervals of a family of detection ranges: the
/// boundaries of all intervals partition the time axis, and each cell is
/// annotated with the number of ranges covering it (the fault counts shown
/// on top of Fig. 5 of the paper).
///
/// Cells covered by no range are omitted.
#[must_use]
pub fn elementary_intervals(ranges: &[IntervalSet]) -> Vec<(Interval, usize)> {
    // sweep over +1/-1 events
    let mut events: Vec<(Time, i32)> = Vec::new();
    for set in ranges {
        for iv in set.iter() {
            events.push((iv.start, 1));
            events.push((iv.end, -1));
        }
    }
    if events.is_empty() {
        return Vec::new();
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out = Vec::new();
    let mut active = 0i32;
    let mut i = 0usize;
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            active += events[i].1;
            i += 1;
        }
        if i < events.len() {
            let next = events[i].0;
            if active > 0 && next > t {
                out.push((Interval::new(t, next), active as usize));
            }
        }
    }
    out
}

/// Observation-time discretization (Sec. IV-A of the paper): every fault
/// nominates the mid-point of the most-populated elementary interval inside
/// its detection range; the deduplicated nominations are the candidate test
/// clock periods.
///
/// Mid-points are chosen "to cover the targeted faults robustly even under
/// variations". Every fault with a non-empty range is guaranteed to be
/// covered by at least one returned candidate.
///
/// Every interval of a range spans a contiguous run of whole elementary
/// cells (its own endpoints are cell boundaries), so a range's
/// most-populated cell is found with one range-maximum query per
/// interval (a sparse table) instead of a walk over the cells. Ties go to
/// the earliest cell.
///
/// # Example
///
/// ```
/// use fastmon_core::discretize;
/// use fastmon_faults::{Interval, IntervalSet};
///
/// let ranges = vec![
///     IntervalSet::from_intervals([Interval::new(0.0, 4.0)]),
///     IntervalSet::from_intervals([Interval::new(2.0, 6.0)]),
/// ];
/// let candidates = discretize(&ranges);
/// // the overlap cell [2, 4) detects both faults: its midpoint suffices
/// assert_eq!(candidates, vec![3.0]);
/// ```
#[must_use]
pub fn discretize(ranges: &[IntervalSet]) -> Vec<Time> {
    let cells = elementary_intervals(ranges);
    if cells.is_empty() {
        return Vec::new();
    }
    let starts: Vec<Time> = cells.iter().map(|(iv, _)| iv.start).collect();
    let counts: Vec<usize> = cells.iter().map(|&(_, count)| count).collect();
    let peaks = LeftmostMax::new(&counts);

    let mut candidates: Vec<Time> = Vec::with_capacity(ranges.len());
    for set in ranges {
        let mut best: Option<usize> = None; // cell index
        for iv in set.iter() {
            // the cells inside iv: from the one starting at iv.start to the
            // last one starting before iv.end
            let lo = starts.partition_point(|&s| s < iv.start);
            let hi = lo + starts[lo..].partition_point(|&s| s < iv.end);
            if lo < hi {
                let peak = peaks.query(lo, hi);
                if best.is_none_or(|b| counts[peak] > counts[b]) {
                    best = Some(peak);
                }
            }
        }
        if let Some(b) = best {
            candidates.push(cells[b].0.midpoint());
        }
    }
    candidates.sort_by(Time::total_cmp);
    candidates.dedup();
    candidates
}

/// Per candidate period, the indices of the ranges containing it, in
/// ascending order: the columns of the frequency-selection set cover.
///
/// `candidates` must be sorted ascending. Each range's intervals are swept
/// over the candidates once, so the cost is one binary search per interval
/// plus one push per (candidate, range) membership.
pub(crate) fn candidate_columns(ranges: &[IntervalSet], candidates: &[Time]) -> Vec<Vec<u32>> {
    let mut columns: Vec<Vec<u32>> = vec![Vec::new(); candidates.len()];
    for (k, set) in ranges.iter().enumerate() {
        let k = u32::try_from(k).unwrap_or_else(|_| unreachable!("fault count fits u32"));
        let mut from = 0;
        for iv in set.iter() {
            let lo = from + candidates[from..].partition_point(|&t| t < iv.start);
            let hi = lo + candidates[lo..].partition_point(|&t| t < iv.end);
            for column in &mut columns[lo..hi] {
                column.push(k);
            }
            from = hi;
        }
    }
    columns
}

/// A sparse table answering "which is the leftmost maximum of
/// `values[lo..hi]`" in O(1) after an O(n log n) build.
struct LeftmostMax<'a> {
    values: &'a [usize],
    /// `levels[k][i]`: the leftmost maximum of `values[i..i + 2^k]`.
    levels: Vec<Vec<u32>>,
}

impl<'a> LeftmostMax<'a> {
    fn new(values: &'a [usize]) -> Self {
        let n = values.len();
        let mut levels: Vec<Vec<u32>> = vec![(0..n)
            .map(|i| u32::try_from(i).unwrap_or_else(|_| unreachable!("cell count fits u32")))
            .collect()];
        let mut width = 1;
        while 2 * width <= n {
            let prev = &levels[levels.len() - 1];
            let next = (0..=n - 2 * width)
                .map(|i| Self::pick(values, prev[i], prev[i + width]))
                .collect();
            levels.push(next);
            width *= 2;
        }
        LeftmostMax { values, levels }
    }

    /// The leftmost maximum of two candidates, `left` preceding `right`.
    fn pick(values: &[usize], left: u32, right: u32) -> u32 {
        if values[right as usize] > values[left as usize] {
            right
        } else {
            left
        }
    }

    /// The index of the leftmost maximum of `values[lo..hi]` (`lo < hi`).
    fn query(&self, lo: usize, hi: usize) -> usize {
        let k = (hi - lo).ilog2() as usize;
        let level = &self.levels[k];
        Self::pick(self.values, level[lo], level[hi - (1 << k)]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ivs: &[(f64, f64)]) -> IntervalSet {
        IntervalSet::from_intervals(ivs.iter().map(|&(a, b)| Interval::new(a, b)))
    }

    #[test]
    fn fig5_style_example() {
        // three faults as in Fig. 5: boundaries split the axis, the most
        // populated cells get picked
        let ranges = vec![set(&[(1.0, 5.0)]), set(&[(3.0, 8.0)]), set(&[(6.0, 9.0)])];
        let cells = elementary_intervals(&ranges);
        // cells: [1,3)=1, [3,5)=2, [5,6)=1, [6,8)=2, [8,9)=1
        assert_eq!(cells.len(), 5);
        assert_eq!(cells[1].1, 2);
        assert_eq!(cells[3].1, 2);
        let cands = discretize(&ranges);
        // fault 1 & 2 both nominate mid of [3,5) = 4; fault 3 nominates
        // mid of [6,8) = 7
        assert_eq!(cands, vec![4.0, 7.0]);
    }

    #[test]
    fn every_fault_is_covered_by_a_candidate() {
        let ranges = vec![
            set(&[(0.0, 1.0)]),
            set(&[(10.0, 11.0)]),
            set(&[(0.5, 10.5)]),
            set(&[(2.0, 3.0), (7.0, 8.0)]),
        ];
        let cands = discretize(&ranges);
        for (i, r) in ranges.iter().enumerate() {
            assert!(
                cands.iter().any(|&t| r.contains(t)),
                "range {i} uncovered by {cands:?}"
            );
        }
    }

    #[test]
    fn empty_input() {
        assert!(discretize(&[]).is_empty());
        assert!(discretize(&[IntervalSet::new()]).is_empty());
        assert!(elementary_intervals(&[]).is_empty());
    }

    #[test]
    fn disjoint_ranges_get_individual_candidates() {
        let ranges = vec![set(&[(0.0, 1.0)]), set(&[(5.0, 6.0)])];
        let cands = discretize(&ranges);
        assert_eq!(cands, vec![0.5, 5.5]);
    }

    #[test]
    fn identical_ranges_share_one_candidate() {
        let ranges = vec![set(&[(2.0, 4.0)]); 5];
        assert_eq!(discretize(&ranges), vec![3.0]);
    }

    #[test]
    fn counts_are_midpoint_memberships() {
        let ranges = vec![set(&[(0.0, 10.0)]), set(&[(4.0, 6.0)])];
        let cells = elementary_intervals(&ranges);
        for (iv, count) in cells {
            let members = ranges.iter().filter(|r| r.contains(iv.midpoint())).count();
            assert_eq!(members, count, "cell {iv}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_ranges() -> impl Strategy<Value = Vec<IntervalSet>> {
            proptest::collection::vec(
                proptest::collection::vec((0.0..500.0f64, 1.0..60.0f64), 1..4),
                1..24,
            )
            .prop_map(|faults| {
                faults
                    .into_iter()
                    .map(|ivs| {
                        IntervalSet::from_intervals(
                            ivs.into_iter().map(|(s, l)| Interval::new(s, s + l)),
                        )
                    })
                    .collect()
            })
        }

        proptest! {
            /// The defining guarantee: every non-empty range contains at
            /// least one candidate.
            #[test]
            fn every_range_covered(ranges in arb_ranges()) {
                let cands = discretize(&ranges);
                for (i, r) in ranges.iter().enumerate() {
                    prop_assert!(
                        cands.iter().any(|&t| r.contains(t)),
                        "range {i} uncovered"
                    );
                }
            }

            /// Candidates are sorted, deduplicated and no more numerous
            /// than the fault count.
            #[test]
            fn candidates_are_canonical(ranges in arb_ranges()) {
                let cands = discretize(&ranges);
                prop_assert!(cands.len() <= ranges.len());
                for w in cands.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }

            /// Elementary-cell counts equal midpoint membership.
            #[test]
            fn cell_counts_match_membership(ranges in arb_ranges()) {
                for (iv, count) in elementary_intervals(&ranges) {
                    let members = ranges.iter().filter(|r| r.contains(iv.midpoint())).count();
                    prop_assert_eq!(members, count);
                }
            }
        }
    }
}
