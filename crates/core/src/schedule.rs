use std::time::Duration;

use fastmon_ilp::{greedy, BranchBound, SetCover};
use fastmon_monitor::{detects_at, ConfigSet, MonitorConfig, MonitorPlacement};
use fastmon_timing::{ClockSpec, Time};

use crate::discretize::candidate_columns;
use crate::{discretize, DetectionAnalysis, ScheduleError};

/// Which optimizer selects frequencies and pattern-configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// Conventional FAST baseline: no monitors (configuration `Off` only),
    /// greedy frequency selection over the FF-only detection ranges.
    Conventional,
    /// Greedy set covering with monitors — the *heur.* baseline of the
    /// paper's Table II.
    Greedy,
    /// Exact 0-1 ILP (branch-and-bound) with monitors — the proposed
    /// method.
    Ilp,
}

/// The outcome of test-frequency selection (step 1).
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencySelection {
    /// Selected capture periods (ascending).
    pub periods: Vec<Time>,
    /// Number of candidate periods offered to the optimizer.
    pub candidates: usize,
    /// Whether the solver proved optimality.
    pub optimal: bool,
    /// Whether the ILP deadline expired during the solve — the result is
    /// the anytime solver's best (greedy-quality) incumbent.
    pub deadline_hit: bool,
    /// Fault indices (into the analysis fault list) that the selected
    /// periods cover.
    pub covered: Vec<usize>,
}

/// One frequency of the final schedule with its pattern-configuration
/// applications.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleEntry {
    /// Capture period of this entry.
    pub period: Time,
    /// `(pattern index, monitor configuration)` applications.
    pub applications: Vec<(u32, MonitorConfig)>,
    /// Fault indices assigned to (and covered at) this frequency.
    pub faults: Vec<usize>,
}

/// A complete FAST schedule `S ⊆ F × P × C`.
#[derive(Debug, Clone, PartialEq)]
pub struct TestSchedule {
    /// Per-frequency entries, ascending by period.
    pub entries: Vec<ScheduleEntry>,
    /// The frequency-selection outcome that produced the entries.
    pub selection: FrequencySelection,
    /// Structured degradation notes: non-empty when any optimization step
    /// fell back to a non-optimal result (e.g. the ILP deadline expired and
    /// the greedy-quality incumbent was used). Empty for clean solves.
    pub notes: Vec<String>,
}

impl TestSchedule {
    /// Number of selected test frequencies `|F|`.
    #[must_use]
    pub fn num_frequencies(&self) -> usize {
        self.entries.len()
    }

    /// Total number of pattern-configuration applications `|S|`.
    #[must_use]
    pub fn num_applications(&self) -> usize {
        self.entries.iter().map(|e| e.applications.len()).sum()
    }

    /// A simple test-time model: every frequency switch costs
    /// `relock_cost` pattern-application equivalents (PLL re-locking
    /// dominates, Sec. IV-B), every application costs 1.
    #[must_use]
    pub fn test_time(&self, relock_cost: f64) -> f64 {
        self.num_frequencies() as f64 * relock_cost + self.num_applications() as f64
    }

    /// Verifies that every target fault of `analysis` is detected by at
    /// least one `(frequency, pattern, configuration)` triple of this
    /// schedule (sanity check used by tests and examples).
    #[must_use]
    pub fn covers_all_targets(&self, analysis: &DetectionAnalysis) -> bool {
        analysis
            .targets
            .iter()
            .all(|&f| self.entries.iter().any(|e| e.faults.contains(&f)))
    }
}

/// A cycle-accurate scan test-time model.
///
/// The paper motivates the two-step optimization with PLL re-locking
/// ("tens or hundreds of microseconds, corresponding to a loss of several
/// thousands of instruction cycles"): switching frequencies costs far more
/// than applying another pattern. This model makes the trade-off concrete
/// in clock cycles:
///
/// ```text
/// cycles = |F| · relock_cycles + Σ applications · (chain_length + 2)
/// ```
///
/// where every application shifts the scan chains (`chain_length` cycles;
/// shift-out overlaps the next shift-in) and spends two cycles on
/// launch/capture.
///
/// # Example
///
/// ```
/// use fastmon_core::TestTimeModel;
///
/// let model = TestTimeModel::new(200, 10_000.0);
/// // 3 frequencies, 50 applications
/// let cycles = model.cycles(3, 50);
/// assert_eq!(cycles, 3.0 * 10_000.0 + 50.0 * 202.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestTimeModel {
    /// Scan cycles to load one pattern (longest chain length).
    pub chain_length: usize,
    /// PLL re-lock penalty per frequency switch, in cycles.
    pub relock_cycles: f64,
}

impl TestTimeModel {
    /// Creates a model.
    #[must_use]
    pub fn new(chain_length: usize, relock_cycles: f64) -> Self {
        TestTimeModel {
            chain_length,
            relock_cycles,
        }
    }

    /// A model derived from the design: `flip_flops` scan cells balanced
    /// over `chains` chains, with a 10 000-cycle re-lock (the order of
    /// magnitude the paper cites).
    ///
    /// # Panics
    ///
    /// Panics if `chains` is zero.
    #[must_use]
    pub fn for_design(flip_flops: usize, chains: usize) -> Self {
        assert!(chains > 0, "need at least one scan chain");
        TestTimeModel::new(flip_flops.div_ceil(chains), 10_000.0)
    }

    /// Total cycles for a schedule shape.
    #[must_use]
    pub fn cycles(&self, frequencies: usize, applications: usize) -> f64 {
        frequencies as f64 * self.relock_cycles
            + applications as f64 * (self.chain_length as f64 + 2.0)
    }

    /// Total cycles of a [`TestSchedule`].
    #[must_use]
    pub fn schedule_cycles(&self, schedule: &TestSchedule) -> f64 {
        self.cycles(schedule.num_frequencies(), schedule.num_applications())
    }
}

/// Context shared by the scheduling steps.
pub(crate) struct ScheduleContext<'a> {
    pub analysis: &'a DetectionAnalysis,
    pub placement: &'a MonitorPlacement,
    pub configs: &'a ConfigSet,
    pub clock: &'a ClockSpec,
    pub deadline: Duration,
    pub metrics: Option<&'a fastmon_obs::IlpMetrics>,
    /// Cooperative cancellation for the anytime B&B: a tripped token
    /// degrades ILP solves to their greedy-quality incumbent
    /// (`deadline_hit = true`) instead of erroring — a cancelled schedule
    /// is still a valid schedule.
    pub cancel: Option<&'a fastmon_obs::CancelToken>,
}

/// Builds the stage solver for [`Solver::Ilp`], wiring the deadline and
/// any cancellation token from the context.
fn ilp_solver(ctx: &ScheduleContext<'_>) -> BranchBound {
    let solver = BranchBound::new().with_deadline(ctx.deadline);
    match ctx.cancel {
        Some(token) => solver.with_cancel(token.clone()),
        None => solver,
    }
}

/// Folds one set-cover solve into the scoped ILP telemetry. A deadline hit
/// means the anytime branch-and-bound fell back to its greedy-quality
/// incumbent, so it counts as both a deadline hit and a greedy fallback.
fn record_solve(metrics: Option<&fastmon_obs::IlpMetrics>, stats: &fastmon_ilp::SolveStats) {
    let Some(m) = metrics else { return };
    m.solves.incr();
    m.bb_nodes.add(stats.nodes);
    m.bb_fixed_by_reduction.add(stats.fixed_by_reduction as u64);
    m.bb_bounds_pruned.add(stats.bounds_pruned);
    if stats.deadline_hit {
        m.deadline_hits.incr();
        m.greedy_fallbacks.incr();
    }
}

/// Step 1: select a minimum set of capture periods covering the target
/// faults (up to `allowed_uncovered` waivers for coverage-target
/// schedules). The candidates come from [`discretize`], and each
/// candidate's column is filled by one sweep of every range's intervals
/// over the sorted candidates.
pub(crate) fn select_frequencies(
    ctx: &ScheduleContext<'_>,
    solver: Solver,
    allowed_uncovered: usize,
) -> Result<FrequencySelection, ScheduleError> {
    let _span = fastmon_obs::span!("ilp_stage_a");
    // relevant faults and their observable ranges
    let (fault_ids, ranges): (Vec<usize>, Vec<&fastmon_faults::IntervalSet>) = match solver {
        Solver::Conventional => ctx
            .analysis
            .verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| v.detected_conv)
            .map(|(i, _)| (i, &ctx.analysis.conv_range[i]))
            .unzip(),
        Solver::Greedy | Solver::Ilp => ctx
            .analysis
            .targets
            .iter()
            .map(|&i| (i, &ctx.analysis.fast_range[i]))
            .unzip(),
    };
    let owned: Vec<fastmon_faults::IntervalSet> = ranges.iter().map(|r| (*r).clone()).collect();
    let candidates = discretize(&owned);
    let sets = candidate_columns(&owned, &candidates);
    let instance = SetCover::new(owned.len(), sets).with_allowed_uncovered(allowed_uncovered);
    let solution = match solver {
        Solver::Conventional | Solver::Greedy => greedy(&instance),
        Solver::Ilp => ilp_solver(ctx).solve(&instance),
    };
    record_solve(ctx.metrics, &solution.stats);
    if !solution.feasible {
        return Err(ScheduleError::InfeasibleCover {
            uncoverable: instance.uncoverable(),
            allowed_uncovered,
        });
    }

    let mut periods: Vec<Time> = solution.chosen.iter().map(|&i| candidates[i]).collect();
    periods.sort_by(Time::total_cmp);
    let covered: Vec<usize> = {
        let mut out = Vec::new();
        for (k, r) in owned.iter().enumerate() {
            if periods.iter().any(|&t| r.contains(t)) {
                out.push(fault_ids[k]);
            }
        }
        out
    };
    Ok(FrequencySelection {
        periods,
        candidates: candidates.len(),
        optimal: solution.optimal,
        deadline_hit: solution.stats.deadline_hit,
        covered,
    })
}

/// Step 2: for every selected period, choose a minimum set of
/// `(pattern, configuration)` applications covering the faults assigned to
/// it.
///
/// Fault-to-frequency assignment follows the paper: the selected periods
/// are processed in descending order of (remaining) coverage, each taking
/// all still-unassigned faults it can detect (heuristic selection with
/// fault dropping).
pub(crate) fn select_patterns(
    ctx: &ScheduleContext<'_>,
    solver: Solver,
    selection: FrequencySelection,
) -> TestSchedule {
    let _span = fastmon_obs::span!("ilp_stage_b");
    let configs: Vec<MonitorConfig> = match solver {
        Solver::Conventional => vec![MonitorConfig::Off],
        _ => ctx.configs.configs().collect(),
    };

    // ranges used for the assignment
    let range_of = |f: usize| -> &fastmon_faults::IntervalSet {
        match solver {
            Solver::Conventional => &ctx.analysis.conv_range[f],
            _ => &ctx.analysis.fast_range[f],
        }
    };

    // assign faults to periods by descending coverage with fault dropping
    let mut remaining: Vec<usize> = selection.covered.clone();
    let mut assignment: Vec<(Time, Vec<usize>)> = Vec::new();
    let mut periods_left: Vec<Time> = selection.periods.clone();
    while !remaining.is_empty() && !periods_left.is_empty() {
        let (best_idx, _) = periods_left
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let cover = remaining
                    .iter()
                    .filter(|&&f| range_of(f).contains(t))
                    .count();
                (i, cover)
            })
            .max_by_key(|&(i, c)| (c, std::cmp::Reverse(i)))
            .unwrap_or_else(|| unreachable!("the loop guard keeps periods_left non-empty"));
        let t = periods_left.remove(best_idx);
        let (taken, rest): (Vec<usize>, Vec<usize>) = remaining
            .iter()
            .copied()
            .partition(|&f| range_of(f).contains(t));
        remaining = rest;
        if !taken.is_empty() {
            assignment.push((t, taken));
        }
    }

    // per period: minimum pattern-config cover
    let mut notes = Vec::new();
    if selection.deadline_hit {
        notes.push(
            "ilp deadline hit during frequency selection: greedy-quality incumbent used (non-optimal |F|)"
                .to_owned(),
        );
    }
    let mut entries = Vec::new();
    for (t, faults) in assignment {
        let (entry, deadline_hit, feasible) = optimize_entry(ctx, solver, t, &faults, &configs);
        if deadline_hit {
            notes.push(format!(
                "ilp deadline hit during pattern selection at period {t:.1} ps: greedy-quality incumbent used (non-minimal |S|)"
            ));
        }
        if !feasible {
            notes.push(format!(
                "pattern selection at period {t:.1} ps could not cover every assigned fault"
            ));
        }
        entries.push(entry);
    }
    entries.sort_by(|a, b| a.period.total_cmp(&b.period));

    TestSchedule {
        entries,
        selection,
        notes,
    }
}

/// Solves the pattern × configuration set cover of one frequency. A
/// `(pattern, configuration)` combo covers a fault when [`detects_at`]
/// holds at `period` for the fault's range under that pattern.
fn optimize_entry(
    ctx: &ScheduleContext<'_>,
    solver: Solver,
    period: Time,
    faults: &[usize],
    configs: &[MonitorConfig],
) -> (ScheduleEntry, bool, bool) {
    // enumerate candidate (pattern, config) combos covering ≥ 1 fault
    let mut combos: Vec<((u32, MonitorConfig), Vec<u32>)> = Vec::new();
    let mut combo_index: std::collections::HashMap<(u32, u8), usize> =
        std::collections::HashMap::new();
    for (k, &f) in faults.iter().enumerate() {
        for (p, range) in ctx.analysis.per_pattern.entries(f) {
            for (ci, &config) in configs.iter().enumerate() {
                if detects_at(range, ctx.placement, ctx.configs, config, ctx.clock, period) {
                    let key = (
                        p,
                        u8::try_from(ci).unwrap_or_else(|_| unreachable!("few configs")),
                    );
                    let idx = *combo_index.entry(key).or_insert_with(|| {
                        combos.push(((p, config), Vec::new()));
                        combos.len() - 1
                    });
                    combos[idx].1.push(
                        u32::try_from(k).unwrap_or_else(|_| unreachable!("fault count fits u32")),
                    );
                }
            }
        }
    }

    let instance = SetCover::new(
        faults.len(),
        combos.iter().map(|(_, c)| c.clone()).collect(),
    );
    let solution = match solver {
        Solver::Conventional | Solver::Greedy => greedy(&instance),
        Solver::Ilp => ilp_solver(ctx).solve(&instance),
    };
    record_solve(ctx.metrics, &solution.stats);
    let mut applications: Vec<(u32, MonitorConfig)> =
        solution.chosen.iter().map(|&i| combos[i].0).collect();
    applications.sort_by_key(|&(p, c)| (p, config_rank(c)));

    (
        ScheduleEntry {
            period,
            applications,
            faults: faults.to_vec(),
        },
        solution.stats.deadline_hit,
        solution.feasible,
    )
}

fn config_rank(c: MonitorConfig) -> u8 {
    match c {
        MonitorConfig::Off => 0,
        MonitorConfig::Delay(i) => i + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmon_monitor::MonitorConfig;

    #[test]
    fn schedule_metrics() {
        let schedule = TestSchedule {
            entries: vec![
                ScheduleEntry {
                    period: 100.0,
                    applications: vec![(0, MonitorConfig::Off), (1, MonitorConfig::Delay(0))],
                    faults: vec![0, 1],
                },
                ScheduleEntry {
                    period: 200.0,
                    applications: vec![(2, MonitorConfig::Off)],
                    faults: vec![2],
                },
            ],
            selection: FrequencySelection {
                periods: vec![100.0, 200.0],
                candidates: 10,
                optimal: true,
                deadline_hit: false,
                covered: vec![0, 1, 2],
            },
            notes: Vec::new(),
        };
        assert_eq!(schedule.num_frequencies(), 2);
        assert_eq!(schedule.num_applications(), 3);
        assert!((schedule.test_time(1000.0) - 2003.0).abs() < 1e-12);
        let model = TestTimeModel::for_design(500, 4);
        assert_eq!(model.chain_length, 125);
        let cycles = model.schedule_cycles(&schedule);
        assert!((cycles - (2.0 * 10_000.0 + 3.0 * 127.0)).abs() < 1e-9);
    }

    #[test]
    fn relock_dominates_small_application_changes() {
        // the premise of the two-step optimization: one saved frequency
        // (10 000 cycles) outweighs ~98 extra pattern applications
        let model = TestTimeModel::new(100, 10_000.0);
        let fewer_freq = model.cycles(10, 650);
        let fewer_apps = model.cycles(11, 600);
        assert!(fewer_freq < fewer_apps);
        // but beyond the break-even point, applications win
        assert!(model.cycles(10, 750) > model.cycles(11, 600));
    }
}
