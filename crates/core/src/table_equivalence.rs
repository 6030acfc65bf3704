//! Equivalence of the flat [`DetectionTable`] with the nested per-fault
//! lists it replaced, which live on here as test-only references: each
//! fault's `Vec<(pattern, range)>`, each range a `Vec<(point,
//! IntervalSet)>` built by clipping and glitch-filtering every raw set.
//!
//! Ranges are appended band by band, as the campaign appends them: each
//! pattern's faults in two chunks, through [`RangeBatch`]es, into rows
//! reserved for the band, with empty bands, empty patterns and faults that
//! never get an entry. Against the references:
//!
//! * every band record is equal byte for byte, for a store's first save
//!   and for each append;
//! * `decode` of the file gives back the saved table;
//! * the raw unions derived from the table equal `union_of` over the
//!   nested ranges;
//! * `get(fault, pattern)` equals a linear search of the nested lists;
//! * `result_fingerprint` equals the same byte stream hashed from the
//!   nested lists.

use fastmon_faults::{
    DetectionRange, DetectionTable, FaultList, Interval, IntervalSet, RangeBatch, RangeRef,
};
use fastmon_monitor::{ConfigSet, MonitorPlacement};
use fastmon_timing::{ClockSpec, Time};
use proptest::prelude::*;

use crate::analysis::raw_unions;
use crate::checkpoint::{band_record, decode, frame, seal, ByteSink, Fnv1a};
use crate::{CampaignCheckpoint, DetectionAnalysis, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};

/// A range as the nested lists kept it: per observation point, a set.
type NestedRange = Vec<(usize, IntervalSet)>;

/// The table holding `nested`'s ranges.
pub(crate) fn table_of(nested: &[Vec<(u32, DetectionRange)>]) -> DetectionTable {
    let mut table = DetectionTable::new(nested.len());
    for (fault, entries) in nested.iter().enumerate() {
        for (pattern, range) in entries {
            table.push(fault, *pattern, range.view());
        }
    }
    table
}

// ------------------------------------------------------------ references

/// `DetectionRange::push` on the nested type: empty sets are ignored and
/// a repeated point is unioned.
fn push(range: &mut NestedRange, op: usize, set: IntervalSet) {
    if set.is_empty() {
        return;
    }
    match range.iter_mut().find(|(i, _)| *i == op) {
        Some((_, existing)) => *existing = existing.union(&set),
        None => range.push((op, set)),
    }
}

fn nested_of(range: RangeRef<'_>) -> NestedRange {
    range.iter().map(|(op, set)| (op, set.to_set())).collect()
}

fn put_nested_range(out: &mut impl ByteSink, range: &NestedRange) {
    out.put_u64(range.len() as u64);
    for (op, set) in range {
        out.put_u64(*op as u64);
        out.put_u64(set.len() as u64);
        for iv in set.iter() {
            out.put_f64(iv.start);
            out.put_f64(iv.end);
        }
    }
}

/// The band record encoder over nested lists: every fault's entries
/// beyond `counts[fault]`, fault by fault.
fn reference_band_record(
    next_pattern: usize,
    nested: &[Vec<(u32, NestedRange)>],
    counts: &[usize],
) -> Vec<u8> {
    let mut record = vec![0; 8];
    record.put_u64(next_pattern as u64);
    record.put_u64(0);
    let mut entries = 0u64;
    for (fault, (list, &saved)) in nested.iter().zip(counts).enumerate() {
        for (pattern, range) in &list[saved..] {
            record.put_u32(u32::try_from(fault).expect("few faults"));
            record.put_u32(*pattern);
            put_nested_range(&mut record, range);
            entries += 1;
        }
    }
    record[16..24].copy_from_slice(&entries.to_le_bytes());
    seal(record)
}

/// `DetectionRange::union_of` over nested ranges: per point, in
/// first-appearance order, one `from_intervals` over every range's
/// intervals.
fn reference_union_of(entries: &[(u32, NestedRange)]) -> NestedRange {
    let mut gathered: Vec<(usize, Vec<Interval>)> = Vec::new();
    for (_, range) in entries {
        for (op, set) in range {
            match gathered.iter_mut().find(|(i, _)| i == op) {
                Some((_, ivs)) => ivs.extend_from_slice(set.as_slice()),
                None if !set.is_empty() => gathered.push((*op, set.as_slice().to_vec())),
                None => {}
            }
        }
    }
    gathered
        .into_iter()
        .map(|(op, ivs)| (op, IntervalSet::from_intervals(ivs)))
        .collect()
}

/// `result_fingerprint` with the per-pattern ranges and raw unions taken
/// from the nested lists, the derived fields from `analysis`.
fn reference_fingerprint(
    nested: &[Vec<(u32, NestedRange)>],
    unions: &[NestedRange],
    analysis: &DetectionAnalysis,
) -> u64 {
    let mut hash = Fnv1a::new();
    hash.put_u64(analysis.faults.len() as u64);
    hash.put_u64(analysis.num_patterns as u64);
    for entries in nested {
        hash.put_u64(entries.len() as u64);
        for (pattern, range) in entries {
            hash.put_u64(u64::from(*pattern));
            put_nested_range(&mut hash, range);
        }
    }
    for range in unions {
        put_nested_range(&mut hash, range);
    }
    for set in analysis.conv_range.iter().chain(&analysis.fast_range) {
        hash.put_set(set.view());
    }
    for v in &analysis.verdicts {
        hash.put(&[u8::from(v.detected_conv)
            | u8::from(v.detected_prop) << 1
            | u8::from(v.at_speed_monitor) << 2]);
    }
    hash.put_u64(analysis.targets.len() as u64);
    for &t in &analysis.targets {
        hash.put_u64(t as u64);
    }
    hash.finish()
}

// ------------------------------------------------------------ generators

const FAULTS: usize = 4;

fn grid(k: i32) -> Time {
    f64::from(k) * 0.1
}

/// One walk output: `(point, (start, length) steps)`, turned into
/// ascending unique points with canonical sets, as the cone walk emits
/// them. Starts run below 0 and ends past the horizon, so clipping bites.
type Walk = Vec<(u32, Vec<(i32, i32)>)>;

fn raw_points(walk: &Walk) -> Vec<(u32, IntervalSet)> {
    let mut points: Vec<(u32, IntervalSet)> = walk
        .iter()
        .map(|(op, steps)| {
            let set = IntervalSet::from_intervals(
                steps
                    .iter()
                    .map(|&(s, l)| Interval::new(grid(s), grid(s) + grid(l))),
            );
            (*op, set)
        })
        .filter(|(_, set)| !set.is_empty())
        .collect();
    points.sort_by_key(|(op, _)| *op);
    points.dedup_by_key(|(op, _)| *op);
    points
}

fn arb_walk() -> impl Strategy<Value = Walk> {
    proptest::collection::vec(
        (
            0..5u32,
            proptest::collection::vec((-10..40i32, 0..12i32), 0..4),
        ),
        0..4,
    )
}

/// Bands of patterns; per pattern the `(fault, walk)` pairs whose walks
/// found a difference.
fn arb_bands() -> impl Strategy<Value = Vec<Vec<Vec<(usize, Walk)>>>> {
    let pattern = proptest::collection::vec((0..FAULTS, arb_walk()), 0..5);
    proptest::collection::vec(proptest::collection::vec(pattern, 0..3), 1..5)
}

proptest! {
    #[test]
    fn the_table_matches_the_nested_lists(
        bands in arb_bands(),
        horizon in 5..35i32,
        threshold in 0..6i32,
    ) {
        let (horizon, threshold) = (grid(horizon), grid(threshold));
        let mut table = DetectionTable::new(FAULTS);
        let mut nested: Vec<Vec<(u32, NestedRange)>> = vec![Vec::new(); FAULTS];
        let mut file = frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, |out| {
            out.put_u64(0x7ab1e);
            out.put_u64(FAULTS as u64);
        });
        let mut counts = vec![0; FAULTS];
        let mut next_pattern = 0u32;
        for band in &bands {
            let mut batches = Vec::new();
            for walks in band {
                let mut walks = walks.clone();
                walks.sort_by_key(|(fault, _)| *fault);
                walks.dedup_by_key(|(fault, _)| *fault);
                // two chunks of faults, filed in chunk order
                for chunk in [0..FAULTS / 2, FAULTS / 2..FAULTS] {
                    let mut batch = RangeBatch::new();
                    for (fault, walk) in walks.iter().filter(|(f, _)| chunk.contains(f)) {
                        let mut reference = NestedRange::new();
                        let (points, intervals) = batch.buffers();
                        for (op, set) in raw_points(walk) {
                            intervals.extend_from_slice(set.as_slice());
                            points.push((op, u32::try_from(intervals.len()).expect("small")));
                            push(
                                &mut reference,
                                op as usize,
                                set.clipped(0.0, horizon).filter_glitches(threshold),
                            );
                        }
                        let fault32 = u32::try_from(*fault).expect("few faults");
                        batch.close(fault32, horizon, threshold);
                        if !reference.is_empty() {
                            nested[*fault].push((next_pattern, reference));
                        }
                    }
                    batches.push((next_pattern, batch));
                }
                next_pattern += 1;
            }
            // as the campaign files a band
            let (patterns, found): (Vec<u32>, Vec<RangeBatch>) = batches.into_iter().unzip();
            table.reserve_exact(&found);
            for (pattern, batch) in patterns.into_iter().zip(&found) {
                table.append(pattern, batch);
            }
            let cp = CampaignCheckpoint {
                fingerprint: 0x7ab1e,
                next_pattern: next_pattern as usize,
                per_pattern: table.clone(),
            };
            // a fresh save, then this band's append
            prop_assert_eq!(
                band_record(&cp, &[0; FAULTS]),
                reference_band_record(cp.next_pattern, &nested, &[0; FAULTS])
            );
            let record = band_record(&cp, &counts);
            prop_assert_eq!(
                &record,
                &reference_band_record(cp.next_pattern, &nested, &counts)
            );
            file.extend(record);
            prop_assert_eq!(decode(&file).expect("a valid log"), cp.clone());
            for (fault, saved) in counts.iter_mut().enumerate() {
                *saved = nested[fault].len();
            }
        }

        for (fault, entries) in nested.iter().enumerate() {
            let got: Vec<(u32, NestedRange)> = table
                .entries(fault)
                .map(|(p, range)| (p, nested_of(range)))
                .collect();
            prop_assert_eq!(&got, entries);
            for pattern in 0..next_pattern {
                let linear = entries.iter().find(|(p, _)| *p == pattern).map(|(_, r)| r);
                prop_assert_eq!(
                    table.get(fault, pattern).map(nested_of).as_ref(),
                    linear
                );
            }
        }

        let unions: Vec<NestedRange> = nested.iter().map(|e| reference_union_of(e)).collect();
        for workers in [1, 2] {
            let derived = raw_unions(&table, workers).expect("no worker panics");
            let derived: Vec<NestedRange> = derived.iter().map(|r| nested_of(r.view())).collect();
            prop_assert_eq!(&derived, &unions);
        }

        let placement = MonitorPlacement::from_mask(vec![true, false, true, false, true]);
        let configs = ConfigSet::new(vec![grid(5), grid(12)]);
        let clock = ClockSpec { t_min: grid(3), t_nom: horizon };
        let analysis = DetectionAnalysis::finalize(
            FaultList::new(),
            next_pattern as usize,
            table.clone(),
            raw_unions(&table, 1).expect("no worker panics"),
            &placement,
            &configs,
            &clock,
        );
        prop_assert_eq!(
            analysis.result_fingerprint(),
            reference_fingerprint(&nested, &unions, &analysis)
        );
    }
}
