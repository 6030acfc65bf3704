//! Typed result rows for the paper's evaluation artifacts (Tables I–III,
//! Fig. 3).
//!
//! The structs carry the same columns as the paper's tables; the binaries
//! of `fastmon-bench` print them side by side with the published values.

use fastmon_monitor::{shifted_detection, MonitorConfig};
use fastmon_netlist::CircuitStats;

use crate::{DetectionAnalysis, HdfTestFlow, Solver, TestSchedule};

/// One row of Table I: circuit statistics and detected HDFs, conventional
/// vs proposed.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Circuit name.
    pub circuit: String,
    /// Combinational gate count.
    pub gates: usize,
    /// Flip-flop count.
    pub flip_flops: usize,
    /// Pattern count `|P|`.
    pub patterns: usize,
    /// Monitor count `|M|`.
    pub monitors: usize,
    /// Faults detected by conventional FAST.
    pub detected_conv: usize,
    /// Faults detected with programmable monitors.
    pub detected_prop: usize,
    /// Relative coverage gain in percent.
    pub gain_percent: f64,
    /// Target fault set size `|Φ_tar|`.
    pub targets: usize,
}

/// Builds a Table I row from a finished analysis.
#[must_use]
pub fn table1_row(
    flow: &HdfTestFlow<'_>,
    analysis: &DetectionAnalysis,
    patterns: usize,
) -> Table1Row {
    let stats = CircuitStats::of(flow.circuit());
    let conv = analysis.detected_conv();
    let prop = analysis.detected_prop();
    Table1Row {
        circuit: flow.circuit().name().to_owned(),
        gates: stats.gates,
        flip_flops: stats.flip_flops,
        patterns,
        monitors: flow.placement().count(),
        detected_conv: conv,
        detected_prop: prop,
        gain_percent: if conv == 0 {
            if prop == 0 {
                0.0
            } else {
                100.0
            }
        } else {
            (prop as f64 / conv as f64 - 1.0) * 100.0
        },
        targets: analysis.targets.len(),
    }
}

/// One row of Table II: selected frequencies and schedule size.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Circuit name.
    pub circuit: String,
    /// Frequencies selected by the conventional baseline.
    pub freq_conv: usize,
    /// Frequencies selected by the greedy heuristic (with monitors).
    pub freq_heur: usize,
    /// Frequencies selected by the proposed ILP (with monitors).
    pub freq_prop: usize,
    /// `Δ%|F| = (1 − prop/conv) · 100`.
    pub freq_reduction_percent: f64,
    /// Naive test size `|F_prop| · |P| · |C|`.
    pub orig_pc: usize,
    /// Optimized schedule size `|S|`.
    pub opti_pc: usize,
    /// `Δ%|PC| = (1 − |S|/orig) · 100`.
    pub pc_reduction_percent: f64,
    /// Degradation notes from the proposed schedule (e.g. ILP deadline
    /// expiry with greedy fallback). Empty for clean solves.
    pub notes: Vec<String>,
}

/// Builds a Table II row (runs all three schedulers).
#[must_use]
pub fn table2_row(
    flow: &HdfTestFlow<'_>,
    analysis: &DetectionAnalysis,
    num_patterns: usize,
) -> Table2Row {
    let conv = flow.select_frequencies_only(analysis, Solver::Conventional, 0);
    let heur = flow.select_frequencies_only(analysis, Solver::Greedy, 0);
    let prop: TestSchedule = flow.schedule(analysis, Solver::Ilp);
    let freq_conv = conv.periods.len();
    let freq_heur = heur.periods.len();
    let freq_prop = prop.num_frequencies();
    let num_configs = flow.configs().len();
    let orig_pc = freq_prop * num_patterns * num_configs;
    let opti_pc = prop.num_applications();
    let notes = prop.notes.clone();
    Table2Row {
        circuit: flow.circuit().name().to_owned(),
        freq_conv,
        freq_heur,
        freq_prop,
        freq_reduction_percent: if freq_conv == 0 {
            0.0
        } else {
            (1.0 - freq_prop as f64 / freq_conv as f64) * 100.0
        },
        orig_pc,
        opti_pc,
        pc_reduction_percent: if orig_pc == 0 {
            0.0
        } else {
            (1.0 - opti_pc as f64 / orig_pc as f64) * 100.0
        },
        notes,
    }
}

/// One coverage-target entry of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageEntry {
    /// Coverage target (e.g. 0.99).
    pub cov: f64,
    /// Selected frequencies `|F_cov|`.
    pub frequencies: usize,
    /// Naive size `|PC_cov| = |F_cov| · |P| · |C|`.
    pub naive_pc: usize,
    /// Optimized schedule size `|S_cov|`.
    pub schedule: usize,
    /// `Δ% = (1 − |S|/|PC|) · 100`.
    pub reduction_percent: f64,
    /// Fraction of target faults actually covered.
    pub achieved: f64,
}

/// One row of Table III: schedules for several coverage targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Circuit name.
    pub circuit: String,
    /// One entry per coverage target, in the given order.
    pub entries: Vec<CoverageEntry>,
    /// Degradation notes collected over all coverage targets, each
    /// prefixed with `cov X.XX: `. A note text that several targets report
    /// is kept once, with the first target's prefix. Empty for clean
    /// solves.
    pub notes: Vec<String>,
}

/// Builds a Table III row for the given coverage targets (paper: 99 %,
/// 98 %, 95 %, 90 %).
#[must_use]
pub fn table3_row(
    flow: &HdfTestFlow<'_>,
    analysis: &DetectionAnalysis,
    num_patterns: usize,
    coverages: &[f64],
) -> Table3Row {
    let num_configs = flow.configs().len();
    let mut notes = CoverageNotes::default();
    let entries = coverages
        .iter()
        .map(|&cov| {
            let schedule = flow.schedule_with_coverage(analysis, Solver::Ilp, cov);
            for note in &schedule.notes {
                notes.push(cov, note);
            }
            let covered: usize = schedule.entries.iter().map(|e| e.faults.len()).sum();
            let frequencies = schedule.num_frequencies();
            let naive_pc = frequencies * num_patterns * num_configs;
            let s = schedule.num_applications();
            CoverageEntry {
                cov,
                frequencies,
                naive_pc,
                schedule: s,
                reduction_percent: if naive_pc == 0 {
                    0.0
                } else {
                    (1.0 - s as f64 / naive_pc as f64) * 100.0
                },
                achieved: if analysis.targets.is_empty() {
                    1.0
                } else {
                    covered as f64 / analysis.targets.len() as f64
                },
            }
        })
        .collect();
    Table3Row {
        circuit: flow.circuit().name().to_owned(),
        entries,
        notes: notes.prefixed,
    }
}

/// Table III's notes, deduplicated on the unprefixed text.
#[derive(Default)]
struct CoverageNotes {
    seen: Vec<String>,
    prefixed: Vec<String>,
}

impl CoverageNotes {
    /// Records `note` of coverage target `cov`, unless an earlier target
    /// reported the same text.
    fn push(&mut self, cov: f64, note: &str) {
        if !self.seen.iter().any(|seen| seen == note) {
            self.seen.push(note.to_owned());
            self.prefixed.push(format!("cov {cov:.2}: {note}"));
        }
    }
}

/// One point of the Fig. 3 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Point {
    /// `f_max / f_nom` ratio.
    pub fmax_factor: f64,
    /// HDF coverage of conventional FAST (0..1).
    pub conv_coverage: f64,
    /// HDF coverage with monitors at 25 % of outputs, delay `t_nom/3`
    /// (0..1).
    pub prop_coverage: f64,
}

/// Computes the Fig. 3 series from a finished analysis without
/// re-simulating: the raw detection ranges are re-clipped for every
/// `f_max` setting.
#[must_use]
pub fn fig3_series(
    flow: &HdfTestFlow<'_>,
    analysis: &DetectionAnalysis,
    factors: &[f64],
) -> Vec<Fig3Point> {
    let placement = flow.placement();
    let configs = flow.configs();
    let largest = MonitorConfig::Delay(
        u8::try_from(configs.delays().len().saturating_sub(1))
            .unwrap_or_else(|_| unreachable!("few delays")),
    );

    // hidden faults: candidates not detectable at nominal capture
    let t_at_speed = flow.clock().t_nom * (1.0 - 1e-9);
    let hidden: Vec<usize> = (0..analysis.num_faults())
        .filter(|&i| {
            !analysis.raw_union[i]
                .iter()
                .any(|(_, set)| set.contains(t_at_speed))
        })
        .collect();
    if hidden.is_empty() {
        return factors
            .iter()
            .map(|&f| Fig3Point {
                fmax_factor: f,
                conv_coverage: 0.0,
                prop_coverage: 0.0,
            })
            .collect();
    }

    factors
        .iter()
        .map(|&factor| {
            let clock = flow.clock().with_fmax_factor(factor);
            let mut conv = 0usize;
            let mut prop = 0usize;
            for &i in &hidden {
                let raw = analysis.raw_union[i].view();
                let ff = shifted_detection(raw, placement, configs, MonitorConfig::Off, &clock);
                if !ff.is_empty() {
                    conv += 1;
                    prop += 1;
                    continue;
                }
                if configs.delays().is_empty() {
                    continue;
                }
                let sr = shifted_detection(raw, placement, configs, largest, &clock);
                if !sr.is_empty() {
                    prop += 1;
                }
            }
            Fig3Point {
                fmax_factor: factor,
                conv_coverage: conv as f64 / hidden.len() as f64,
                prop_coverage: prop as f64 / hidden.len() as f64,
            }
        })
        .collect()
}

/// CSV serialization of report rows (one header + one line per row), for
/// downstream plotting.
pub mod csv {
    use super::{Fig3Point, Table1Row, Table2Row, Table3Row};
    use std::fmt::Write as _;

    /// Serializes Table I rows.
    #[must_use]
    pub fn table1(rows: &[Table1Row]) -> String {
        let mut out = String::from(
            "circuit,gates,flip_flops,patterns,monitors,conv,prop,gain_percent,targets\n",
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{:.2},{}",
                r.circuit,
                r.gates,
                r.flip_flops,
                r.patterns,
                r.monitors,
                r.detected_conv,
                r.detected_prop,
                r.gain_percent,
                r.targets
            );
        }
        out
    }

    /// Serializes Table II rows.
    #[must_use]
    pub fn table2(rows: &[Table2Row]) -> String {
        let mut out = String::from(
            "circuit,freq_conv,freq_heur,freq_prop,freq_reduction_percent,orig_pc,opti_pc,pc_reduction_percent\n",
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.2},{},{},{:.2}",
                r.circuit,
                r.freq_conv,
                r.freq_heur,
                r.freq_prop,
                r.freq_reduction_percent,
                r.orig_pc,
                r.opti_pc,
                r.pc_reduction_percent
            );
        }
        out
    }

    /// Serializes Table III rows (one line per circuit × coverage target).
    #[must_use]
    pub fn table3(rows: &[Table3Row]) -> String {
        let mut out = String::from(
            "circuit,coverage,frequencies,naive_pc,schedule,reduction_percent,achieved\n",
        );
        for r in rows {
            for e in &r.entries {
                let _ = writeln!(
                    out,
                    "{},{:.2},{},{},{},{:.2},{:.4}",
                    r.circuit,
                    e.cov,
                    e.frequencies,
                    e.naive_pc,
                    e.schedule,
                    e.reduction_percent,
                    e.achieved
                );
            }
        }
        out
    }

    /// Serializes a Fig. 3 series.
    #[must_use]
    pub fn fig3(points: &[Fig3Point]) -> String {
        let mut out = String::from("fmax_factor,conv_coverage,prop_coverage\n");
        for p in points {
            let _ = writeln!(
                out,
                "{:.2},{:.4},{:.4}",
                p.fmax_factor, p.conv_coverage, p.prop_coverage
            );
        }
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn csv_shapes() {
            let t1 = table1(&[Table1Row {
                circuit: "x".into(),
                gates: 1,
                flip_flops: 2,
                patterns: 3,
                monitors: 4,
                detected_conv: 5,
                detected_prop: 6,
                gain_percent: 20.0,
                targets: 7,
            }]);
            assert_eq!(t1.lines().count(), 2);
            assert!(t1.contains("x,1,2,3,4,5,6,20.00,7"));

            let f = fig3(&[Fig3Point {
                fmax_factor: 3.0,
                conv_coverage: 0.35,
                prop_coverage: 0.65,
            }]);
            assert!(f.contains("3.00,0.3500,0.6500"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowConfig;
    use fastmon_netlist::library;

    #[test]
    fn fig3_monotone_and_dominated() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let patterns = flow.generate_patterns(None);
        let analysis = flow.analyze(&patterns);
        let factors: Vec<f64> = (10..=30).map(|i| f64::from(i) / 10.0).collect();
        let series = fig3_series(&flow, &analysis, &factors);
        assert_eq!(series.len(), factors.len());
        let mut prev = Fig3Point {
            fmax_factor: 0.0,
            conv_coverage: 0.0,
            prop_coverage: 0.0,
        };
        for p in &series {
            // coverage grows with f_max and monitors never hurt
            assert!(p.conv_coverage >= prev.conv_coverage - 1e-12);
            assert!(p.prop_coverage >= prev.prop_coverage - 1e-12);
            assert!(p.prop_coverage >= p.conv_coverage - 1e-12);
            assert!((0.0..=1.0).contains(&p.conv_coverage));
            prev = *p;
        }
    }

    #[test]
    fn coverage_notes_keep_the_first_target_of_each_text() {
        let mut notes = CoverageNotes::default();
        notes.push(0.99, "ilp deadline hit");
        notes.push(0.99, "no cover at 12.0 ps");
        notes.push(0.98, "ilp deadline hit");
        notes.push(0.95, "no cover at 12.0 ps");
        notes.push(0.95, "no cover at 14.0 ps");
        assert_eq!(
            notes.prefixed,
            [
                "cov 0.99: ilp deadline hit",
                "cov 0.99: no cover at 12.0 ps",
                "cov 0.95: no cover at 14.0 ps",
            ]
        );
    }

    #[test]
    fn table_rows_consistent() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let patterns = flow.generate_patterns(None);
        let analysis = flow.analyze(&patterns);
        let t1 = table1_row(&flow, &analysis, patterns.len());
        assert_eq!(t1.circuit, "s27");
        assert!(t1.detected_prop >= t1.detected_conv);
        assert!(t1.targets <= t1.detected_prop);

        let t2 = table2_row(&flow, &analysis, patterns.len());
        assert!(t2.freq_prop <= t2.freq_heur);
        assert!(t2.opti_pc <= t2.orig_pc);

        let t3 = table3_row(&flow, &analysis, patterns.len(), &[0.99, 0.9]);
        assert_eq!(t3.entries.len(), 2);
        assert!(t3.entries[1].frequencies <= t3.entries[0].frequencies);
        for e in &t3.entries {
            assert!(e.schedule <= e.naive_pc);
            // within rounding, the achieved coverage respects the target
            assert!(
                e.achieved >= e.cov - 0.05,
                "achieved {} vs {}",
                e.achieved,
                e.cov
            );
        }
    }
}
