//! Equivalence of the one-pass detection-window builders with the builders
//! they replaced, which live on here as test-only references:
//!
//! * `discretize`'s per-interval range-maximum query against the walk over
//!   every elementary cell an interval spans;
//! * the stage-a column sweep against one `contains` test per (candidate,
//!   range);
//! * `detects_at` and the one-pass `shifted_detection` against the window
//!   built by repeated `union`;
//! * `finalize`'s `conv_range`/`fast_range` against repeated `union` over
//!   the configurations;
//! * the raw unions derived after the campaign against merging the
//!   per-pattern ranges one by one, every point of each pushed in turn.
//!
//! Endpoints, delays and clock bounds are drawn from a 0.1 grid, so the
//! inputs share and touch endpoints, tie on the most-populated cell and
//! shift by sums that round (`0.1 + 0.2`); periods are drawn from the
//! interval ends, their shifted sums and `t_min`/`t_nom`. Every comparison
//! is exact.

use fastmon_faults::{DetectionRange, FaultList, Interval, IntervalSet};
use fastmon_monitor::{
    at_speed_monitor_detectable, detects_at, shifted_detection, union_detection, ConfigSet,
    MonitorConfig, MonitorPlacement,
};
use fastmon_timing::{ClockSpec, Time};
use proptest::prelude::*;

use crate::analysis::raw_unions;
use crate::discretize::candidate_columns;
use crate::table_equivalence::table_of;
use crate::{discretize, elementary_intervals, DetectionAnalysis};

// ------------------------------------------------------------ references

/// The walk `discretize` replaced: every cell of every interval, keeping
/// the first maximum.
fn reference_discretize(ranges: &[IntervalSet]) -> Vec<Time> {
    let cells = elementary_intervals(ranges);
    if cells.is_empty() {
        return Vec::new();
    }
    let starts: Vec<Time> = cells.iter().map(|(iv, _)| iv.start).collect();
    let mut candidates: Vec<Time> = Vec::new();
    for set in ranges {
        let mut best: Option<(usize, Time)> = None; // (count, midpoint)
        for iv in set.iter() {
            let mut idx = starts.partition_point(|&s| s < iv.start);
            if idx > 0 && cells[idx - 1].0.end > iv.start {
                idx -= 1;
            }
            while idx < cells.len() && cells[idx].0.start < iv.end {
                let (cell, count) = &cells[idx];
                let lo = cell.start.max(iv.start);
                let hi = cell.end.min(iv.end);
                if lo < hi {
                    let mid = 0.5 * (lo + hi);
                    match best {
                        Some((c, _)) if c >= *count => {}
                        _ => best = Some((*count, mid)),
                    }
                }
                idx += 1;
            }
        }
        if let Some((_, mid)) = best {
            candidates.push(mid);
        }
    }
    candidates.sort_by(Time::total_cmp);
    candidates.dedup();
    candidates
}

/// The stage-a columns as one `contains` test per (candidate, range).
fn reference_columns(ranges: &[IntervalSet], candidates: &[Time]) -> Vec<Vec<u32>> {
    candidates
        .iter()
        .map(|&t| {
            ranges
                .iter()
                .enumerate()
                .filter(|(_, r)| r.contains(t))
                .map(|(i, _)| u32::try_from(i).expect("few ranges"))
                .collect()
        })
        .collect()
}

/// The window of one configuration, built by repeated `union`.
fn reference_shifted_detection(
    range: &DetectionRange,
    placement: &MonitorPlacement,
    configs: &ConfigSet,
    config: MonitorConfig,
    clock: &ClockSpec,
) -> IntervalSet {
    let mut out = IntervalSet::new();
    let d = configs.shift(config);
    for (op_index, raw) in range.iter() {
        let raw = raw.to_set();
        out = out.union(&raw.clipped(clock.t_min, clock.t_nom));
        if d > 0.0 && placement.is_monitored(op_index) {
            out = out.union(&raw.shifted(d).clipped(clock.t_min, clock.t_nom));
        }
    }
    out
}

/// `finalize`'s `(conv_range, fast_range)`, by repeated `union` over the
/// configurations.
fn reference_windows(
    raw: &DetectionRange,
    placement: &MonitorPlacement,
    configs: &ConfigSet,
    clock: &ClockSpec,
) -> (IntervalSet, IntervalSet) {
    let conv = reference_shifted_detection(raw, placement, configs, MonitorConfig::Off, clock);
    let mut fast = conv.clone();
    for config in configs.configs() {
        if config != MonitorConfig::Off {
            fast = fast.union(&reference_shifted_detection(
                raw, placement, configs, config, clock,
            ));
        }
    }
    (conv, fast)
}

/// The at-speed test on a built shifted set.
fn reference_at_speed(
    raw: &DetectionRange,
    placement: &MonitorPlacement,
    configs: &ConfigSet,
    clock: &ClockSpec,
) -> bool {
    let at_speed = clock.t_nom * (1.0 - 1e-9);
    raw.iter().any(|(op, set)| {
        set.contains(at_speed)
            || (placement.is_monitored(op)
                && configs
                    .delays()
                    .iter()
                    .any(|&d| set.to_set().shifted(d).contains(at_speed)))
    })
}

/// Merges `other` into `union`, point by point.
fn merge(union: &mut DetectionRange, other: &DetectionRange) {
    for (op, set) in other.iter() {
        union.push(op, set.to_set());
    }
}

/// A fault's raw union, merged entry by entry in pattern order.
fn reference_raw_union(entries: &[(u32, DetectionRange)]) -> DetectionRange {
    let mut union = DetectionRange::new();
    for (_, dr) in entries {
        merge(&mut union, dr);
    }
    union
}

// ------------------------------------------------------------ generators

/// Grid value `k · 0.1`: products and sums of these round.
fn grid(k: u32) -> Time {
    f64::from(k) * 0.1
}

/// One interval set from `(start, length)` grid steps; the end is the
/// rounded sum `start + length`.
fn set_of(steps: &[(u32, u32)]) -> IntervalSet {
    IntervalSet::from_intervals(
        steps
            .iter()
            .map(|&(s, l)| Interval::new(grid(s), grid(s) + grid(l))),
    )
}

fn arb_steps() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..40u32, 1..8u32), 1..4)
}

/// `(observe point, steps)` lists: one detection range per list.
fn range_of(outputs: &[(usize, Vec<(u32, u32)>)]) -> DetectionRange {
    let mut dr = DetectionRange::new();
    for (op, steps) in outputs {
        dr.push(*op, set_of(steps));
    }
    dr
}

/// The monitor context of one case: clock bounds and delays on the grid,
/// and a monitor on every observe point whose `mask` bit is set.
fn context(
    mask: u8,
    delays: &[u32],
    bounds: (u32, u32),
) -> (MonitorPlacement, ConfigSet, ClockSpec) {
    let placement = MonitorPlacement::from_mask((0..4).map(|op| mask >> op & 1 == 1).collect());
    let configs = ConfigSet::new(delays.iter().map(|&d| grid(d)).collect());
    let (lo, width) = bounds;
    let clock = ClockSpec {
        t_min: grid(lo),
        t_nom: grid(lo) + grid(width),
    };
    (placement, configs, clock)
}

/// Every period a window boundary can sit at: interval ends, their
/// shifted sums, and the clock bounds.
fn boundary_periods(range: &DetectionRange, configs: &ConfigSet, clock: &ClockSpec) -> Vec<Time> {
    let mut periods = vec![clock.t_min, clock.t_nom];
    for (_, set) in range.iter() {
        for iv in set.iter() {
            periods.extend([iv.start, iv.end]);
            for &d in configs.delays() {
                let shifted = iv.shifted(d);
                periods.extend([shifted.start, shifted.end]);
            }
        }
    }
    periods
}

fn arb_outputs() -> impl Strategy<Value = Vec<(usize, Vec<(u32, u32)>)>> {
    proptest::collection::vec((0..4usize, arb_steps()), 1..4)
}

fn arb_delays() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(1..12u32, 0..4)
}

proptest! {
    /// One range-maximum query per interval nominates the same cells as
    /// the walk over every cell, ties included.
    #[test]
    fn discretize_matches_the_cell_walk(
        faults in proptest::collection::vec(arb_steps(), 1..16),
    ) {
        let ranges: Vec<IntervalSet> = faults.iter().map(|f| set_of(f)).collect();
        prop_assert_eq!(discretize(&ranges), reference_discretize(&ranges));
    }

    /// The column sweep fills the same columns, fault indices ascending,
    /// for the discretized candidates and for periods at interval ends.
    #[test]
    fn candidate_columns_match_the_membership_test(
        faults in proptest::collection::vec(arb_steps(), 1..16),
        extra in proptest::collection::vec(0..50u32, 0..8),
    ) {
        let ranges: Vec<IntervalSet> = faults.iter().map(|f| set_of(f)).collect();
        let mut candidates = discretize(&ranges);
        for set in &ranges {
            for iv in set.iter() {
                candidates.extend([iv.start, iv.end]);
            }
        }
        candidates.extend(extra.into_iter().map(grid));
        candidates.sort_by(Time::total_cmp);
        candidates.dedup();
        prop_assert_eq!(
            candidate_columns(&ranges, &candidates),
            reference_columns(&ranges, &candidates)
        );
    }

    /// `detects_at` answers exactly what the built window answers, at
    /// every boundary period, for every configuration; the one-pass
    /// window itself equals the repeated-union one.
    #[test]
    fn detects_at_matches_the_built_window(
        outputs in arb_outputs(),
        mask in any::<u8>(),
        delays in arb_delays(),
        bounds in (0..30u32, 1..30u32),
    ) {
        let range = range_of(&outputs);
        let (placement, configs, clock) = context(mask, &delays, bounds);
        let periods = boundary_periods(&range, &configs, &clock);
        for config in configs.configs() {
            let window = reference_shifted_detection(&range, &placement, &configs, config, &clock);
            prop_assert_eq!(
                &shifted_detection(range.view(), &placement, &configs, config, &clock),
                &window
            );
            for &t in &periods {
                prop_assert_eq!(
                    detects_at(range.view(), &placement, &configs, config, &clock, t),
                    window.contains(t),
                    "config {} at t = {}",
                    config,
                    t
                );
            }
        }
    }

    /// `finalize`'s windows and at-speed verdict equal the repeated-union
    /// references.
    #[test]
    fn finalize_windows_match_repeated_union(
        outputs in arb_outputs(),
        mask in any::<u8>(),
        delays in arb_delays(),
        bounds in (0..30u32, 1..30u32),
    ) {
        let raw = range_of(&outputs);
        let (placement, configs, clock) = context(mask, &delays, bounds);
        let (conv, fast) = reference_windows(&raw, &placement, &configs, &clock);
        prop_assert_eq!(
            shifted_detection(raw.view(), &placement, &configs, MonitorConfig::Off, &clock),
            conv
        );
        prop_assert_eq!(union_detection(raw.view(), &placement, &configs, &clock), fast);
        prop_assert_eq!(
            at_speed_monitor_detectable(raw.view(), &placement, &configs, &clock),
            reference_at_speed(&raw, &placement, &configs, &clock)
        );
    }

    /// The raw unions derived after the campaign, at one and two workers,
    /// equal merging each fault's entries one by one — observe points in
    /// first-appearance order included — and `finalize` over them equals
    /// the references.
    #[test]
    fn derived_raw_unions_match_sequential_merge(
        faults in proptest::collection::vec(proptest::collection::vec(arb_outputs(), 0..5), 1..6),
        mask in any::<u8>(),
        delays in arb_delays(),
        bounds in (0..30u32, 1..30u32),
    ) {
        let per_pattern: Vec<Vec<(u32, DetectionRange)>> = faults
            .iter()
            .map(|entries| {
                entries
                    .iter()
                    .enumerate()
                    .map(|(p, outputs)| (u32::try_from(p).expect("few patterns"), range_of(outputs)))
                    .collect()
            })
            .collect();
        let reference: Vec<DetectionRange> =
            per_pattern.iter().map(|e| reference_raw_union(e)).collect();
        let table = table_of(&per_pattern);
        for workers in [1, 2] {
            prop_assert_eq!(
                &raw_unions(&table, workers).expect("no worker panics"),
                &reference
            );
        }

        let (placement, configs, clock) = context(mask, &delays, bounds);
        let analysis = DetectionAnalysis::finalize(
            FaultList::new(),
            5,
            table.clone(),
            raw_unions(&table, 1).expect("no worker panics"),
            &placement,
            &configs,
            &clock,
        );
        for (f, raw) in reference.iter().enumerate() {
            let (conv, fast) = reference_windows(raw, &placement, &configs, &clock);
            prop_assert_eq!(&analysis.conv_range[f], &conv);
            prop_assert_eq!(&analysis.fast_range[f], &fast);
        }
    }
}

/// A period exactly at a shifted start whose `t − d` rounds below the raw
/// start: `0.1 + 0.4` is `0.5`, but `0.5 − 0.4` is below `0.1`. The window
/// holds the period, and so does `detects_at`, because both test the sums
/// `Interval::shifted` computes.
#[test]
fn shifted_sums_decide_the_boundary() {
    let (start, d, t) = (0.1, 0.4, 0.5);
    assert!(start + d <= t && t - d < start);
    let mut range = DetectionRange::new();
    range.push(0, IntervalSet::from_intervals([Interval::new(start, 0.3)]));
    let placement = MonitorPlacement::from_mask(vec![true]);
    let configs = ConfigSet::new(vec![d]);
    let clock = ClockSpec {
        t_min: 0.0,
        t_nom: 1.0,
    };
    let delayed = MonitorConfig::Delay(0);
    assert!(shifted_detection(range.view(), &placement, &configs, delayed, &clock).contains(t));
    assert!(detects_at(
        range.view(),
        &placement,
        &configs,
        delayed,
        &clock,
        t
    ));
    assert!(!detects_at(
        range.view(),
        &placement,
        &configs,
        MonitorConfig::Off,
        &clock,
        t
    ));
}
