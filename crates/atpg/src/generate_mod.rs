use std::sync::Mutex;

use fastmon_netlist::Circuit;
use fastmon_sim::Lease;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::matrix::effective_threads;
use crate::podem::{Goal, PodemAnalysis, PodemSearch};
use crate::{
    transition_faults, AtpgError, DetectionMatrix, FaultCones, GradeScratch, PodemOutcome,
    StuckAtFault, TestPattern, TestSet, TransitionFault, WordSim,
};

/// Faults per worker in one window of the deterministic phase. A window
/// is searched before it is consumed, so a flush inside it can drop
/// faults whose outcomes are then thrown away; larger windows spawn
/// threads less often and throw more away.
const WINDOW_PER_WORKER: usize = 8;

/// Configuration of the transition-fault ATPG flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtpgConfig {
    /// Number of weighted-random patterns tried before deterministic
    /// generation.
    pub random_patterns: usize,
    /// PODEM backtrack limit per fault.
    pub max_backtracks: u32,
    /// RNG seed (pattern fill, random phase).
    pub seed: u64,
    /// Run reverse-order static compaction at the end.
    pub compact: bool,
    /// Optional hard cap on the final pattern count; when the compacted set
    /// is larger, patterns are greedily selected for maximum coverage.
    pub max_patterns: Option<usize>,
    /// Worker threads for fault grading and for the deterministic PODEM
    /// phase (`0` = all available cores); PODEM uses at most as many
    /// workers as the host has cores. The test set, the fault tallies and
    /// the PODEM counters are bit-identical for any value.
    pub threads: usize,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            random_patterns: 256,
            max_backtracks: 192,
            seed: 1,
            compact: true,
            max_patterns: None,
            threads: 0,
        }
    }
}

/// The outcome of [`generate`].
#[derive(Debug, Clone)]
pub struct AtpgResult {
    /// The (compacted) two-vector test set.
    pub test_set: TestSet,
    /// Transition faults detected by the final set.
    pub detected: usize,
    /// Faults proven untestable (launch unjustifiable or effect
    /// unpropagatable).
    pub untestable: usize,
    /// Faults aborted at the backtrack limit.
    pub aborted: usize,
    /// Total transition-fault population.
    pub total_faults: usize,
}

impl AtpgResult {
    /// Test coverage: detected / total faults.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            return 1.0;
        }
        self.detected as f64 / self.total_faults as f64
    }

    /// Fault efficiency: (detected + proven untestable) / total.
    #[must_use]
    pub fn fault_efficiency(&self) -> f64 {
        if self.total_faults == 0 {
            return 1.0;
        }
        (self.detected + self.untestable) as f64 / self.total_faults as f64
    }
}

/// Retains only the faults of `undetected` that `ws` does **not** detect,
/// grading fault-parallel over the cached cone arena. Order is preserved,
/// so the result is bit-identical for any thread count.
///
/// A grading-worker panic (including an injected `atpg_grade` failpoint)
/// is contained and surfaced as [`AtpgError::WorkerPanicked`]; `undetected`
/// is left untouched in that case.
pub(crate) fn retain_undetected(
    undetected: &mut Vec<usize>,
    ws: &WordSim<'_>,
    faults: &[TransitionFault],
    cones: &FaultCones,
    threads: usize,
    metrics: Option<&fastmon_obs::AtpgMetrics>,
) -> Result<(), AtpgError> {
    if undetected.is_empty() {
        return Ok(());
    }
    let blocks = ws.num_blocks();
    let threads = threads.min(undetected.len());
    let hit: Vec<bool> = fastmon_sim::try_parallel_map_with(
        undetected.len(),
        threads,
        || GradeScratch::for_cones(cones),
        |scratch, i| {
            // Grading workers have no per-item error channel; both failpoint
            // actions surface as a contained panic.
            if let Err(injected) = fastmon_obs::failpoints::fire("atpg_grade") {
                panic!("{injected}");
            }
            let fault = &faults[undetected[i]];
            let hit = (0..blocks).any(|b| ws.detect_word_cached(fault, b, cones, scratch) != 0);
            if let Some(m) = metrics {
                scratch.flush_into(m);
            }
            hit
        },
    )
    .map_err(|panic| AtpgError::WorkerPanicked {
        phase: "atpg_grade",
        message: panic.message(),
    })?;
    let mut it = hit.iter();
    undetected.retain(|_| {
        let &h = it.next().unwrap_or(&false);
        !h
    });
    Ok(())
}

/// Generates a compacted transition-fault test set for a full-scan circuit.
///
/// See the [crate docs](crate) for the pipeline. Deterministic in
/// `config.seed` and bit-identical for any `config.threads`.
///
/// # Example
///
/// ```
/// use fastmon_atpg::{generate, AtpgConfig};
/// use fastmon_netlist::library;
///
/// let circuit = library::s27();
/// let result = generate(&circuit, &AtpgConfig { seed: 42, ..AtpgConfig::default() });
/// assert!(result.fault_efficiency() > 0.99);
/// ```
#[must_use]
pub fn generate(circuit: &Circuit, config: &AtpgConfig) -> AtpgResult {
    generate_with_metrics(circuit, config, None)
}

/// Like [`generate`], but records PODEM calls/backtracks/aborts, grading
/// counters (cones cached, cone BFS traversals avoided, scratch reuses,
/// matrix rebuilds avoided) and the final fault tallies into a scoped
/// [`fastmon_obs::AtpgMetrics`] section.
///
/// # Panics
///
/// Panics if pattern generation fails, which is only reachable when a
/// failpoint is armed (see [`try_generate_with_metrics`] for the fallible
/// variant with cancellation support).
#[must_use]
pub fn generate_with_metrics(
    circuit: &Circuit,
    config: &AtpgConfig,
    metrics: Option<&fastmon_obs::AtpgMetrics>,
) -> AtpgResult {
    match try_generate_with_metrics(circuit, config, metrics, None) {
        Ok(result) => result,
        Err(e) => panic!("infallible ATPG entry failed: {e}"),
    }
}

/// Fallible, cancellable variant of [`generate_with_metrics`].
///
/// Checks `cancel` before each window of PODEM targets and between
/// targets, and observes the `atpg_podem` and `atpg_grade` failpoints;
/// grading- and PODEM-worker panics are contained and surfaced as typed
/// errors rather than unwinding the caller.
///
/// # Errors
///
/// - [`AtpgError::Cancelled`] when `cancel` is triggered mid-generation,
/// - [`AtpgError::Injected`] when the `atpg_podem` failpoint fires,
/// - [`AtpgError::WorkerPanicked`] when a grading or PODEM worker panics.
pub fn try_generate_with_metrics(
    circuit: &Circuit,
    config: &AtpgConfig,
    metrics: Option<&fastmon_obs::AtpgMetrics>,
    cancel: Option<&fastmon_obs::CancelToken>,
) -> Result<AtpgResult, AtpgError> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let podem_workers = effective_threads(config.threads).min(cores);
    generate_on(circuit, config, metrics, cancel, podem_workers)
}

/// [`try_generate_with_metrics`] with the deterministic phase on exactly
/// `podem_workers` workers.
fn generate_on(
    circuit: &Circuit,
    config: &AtpgConfig,
    metrics: Option<&fastmon_obs::AtpgMetrics>,
    cancel: Option<&fastmon_obs::CancelToken>,
    podem_workers: usize,
) -> Result<AtpgResult, AtpgError> {
    let _atpg_span = fastmon_obs::span!("atpg");
    let faults = transition_faults(circuit);
    let threads = effective_threads(config.threads);

    // levelize every fault cone once; shared by the random, deterministic
    // and compaction grading passes below
    let cones = {
        let _cones_span = fastmon_obs::span!("atpg_cones");
        let cones = FaultCones::build(circuit, &faults);
        if let Some(m) = metrics {
            m.cones_cached.add(cones.num_cones() as u64);
            m.cone_bfs.add(cones.num_cones() as u64);
        }
        cones
    };

    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xa791_0000_0000_0000);
    let mut set = TestSet::new(circuit);
    let width = set.sources().len();

    // --- random phase ----------------------------------------------------
    let random_span = fastmon_obs::span!("atpg_random");
    for _ in 0..config.random_patterns {
        set.push(TestPattern::new(
            (0..width).map(|_| rng.gen()).collect(),
            (0..width).map(|_| rng.gen()).collect(),
        ));
    }
    let mut undetected: Vec<usize> = (0..faults.len()).collect();
    if !set.is_empty() {
        let ws = WordSim::new(circuit, &set);
        retain_undetected(&mut undetected, &ws, &faults, &cones, threads, metrics)?;
    }
    drop(random_span);

    // --- deterministic phase ----------------------------------------------
    let podem_span = fastmon_obs::span!("atpg_podem");
    // one read-only analysis for every worker; each worker leases its
    // search state (buffers and cached fault-site cones) from a pool that
    // outlives the per-window thread spawns, so it is reused across the
    // whole worklist
    let analysis = PodemAnalysis::new(circuit);
    let searches: Mutex<Vec<PodemSearch>> = Mutex::new(Vec::new());
    let mut untestable = 0usize;
    let mut aborted = 0usize;
    let mut pending: Vec<TestPattern> = Vec::new();

    let flush = |pending: &mut Vec<TestPattern>,
                 undetected: &mut Vec<usize>,
                 set: &mut TestSet|
     -> Result<(), AtpgError> {
        if pending.is_empty() {
            return Ok(());
        }
        let mut chunk = TestSet::new(circuit);
        for p in pending.iter().cloned() {
            chunk.push(p);
        }
        let ws = WordSim::new(circuit, &chunk);
        retain_undetected(undetected, &ws, &faults, &cones, threads, metrics)?;
        for p in pending.drain(..) {
            set.push(p);
        }
        Ok(())
    };

    let worklist = undetected.clone();
    undetected.clear();
    let mut remaining: Vec<bool> = vec![false; faults.len()];
    for &f in &worklist {
        remaining[f] = true;
    }

    // The worklist is consumed in windows of its next still-remaining
    // faults. Workers search a window's faults (a PODEM run depends only on
    // its goal and backtrack limit), then this thread consumes the outcomes
    // in worklist order, exactly as a sequential loop would: failpoint,
    // cancel check, RNG fill, flush and tallies. `remaining` only goes from
    // true to false, so the only outcomes a sequential loop would not have
    // computed are those of faults that a flush earlier in the same window
    // dropped; they are discarded unrecorded.
    let window_len = if podem_workers > 1 {
        WINDOW_PER_WORKER * podem_workers
    } else {
        1
    };
    let mut window: Vec<usize> = Vec::with_capacity(window_len);
    let mut next = 0;
    while next < worklist.len() {
        if cancel.is_some_and(fastmon_obs::CancelToken::is_cancelled) {
            return Err(AtpgError::Cancelled { phase: "atpg" });
        }
        window.clear();
        while window.len() < window_len && next < worklist.len() {
            if remaining[worklist[next]] {
                window.push(worklist[next]);
            }
            next += 1;
        }
        let outcomes = fastmon_sim::try_parallel_map_with(
            window.len(),
            podem_workers,
            || Lease::take(&searches, || PodemSearch::new(&analysis)),
            |lease, i| {
                let fault: &TransitionFault = &faults[window[i]];
                let search = lease.get();
                let launch = search.run(
                    &analysis,
                    Goal::Justify(fault.gate, fault.initial_value()),
                    config.max_backtracks,
                );
                let capture = search.run(
                    &analysis,
                    Goal::Detect(
                        StuckAtFault {
                            node: fault.gate,
                            stuck_at: fault.initial_value(),
                        },
                        None,
                    ),
                    config.max_backtracks,
                );
                (launch, capture)
            },
        )
        .map_err(|panic| AtpgError::WorkerPanicked {
            phase: "atpg_podem",
            message: panic.message(),
        })?;
        for (&f, ((launch, launch_tally), (capture, capture_tally))) in window.iter().zip(outcomes)
        {
            if !remaining[f] {
                if let Some(m) = metrics {
                    m.podem_outcomes_discarded.incr();
                }
                continue;
            }
            fastmon_obs::failpoints::fire("atpg_podem")
                .map_err(|e| AtpgError::Injected { site: e.site })?;
            if cancel.is_some_and(fastmon_obs::CancelToken::is_cancelled) {
                return Err(AtpgError::Cancelled { phase: "atpg" });
            }
            if let Some(m) = metrics {
                launch_tally.record(m);
                capture_tally.record(m);
            }
            match (launch, capture) {
                (PodemOutcome::Test(l), PodemOutcome::Test(c)) => {
                    let fill = |bits: Vec<Option<bool>>, rng: &mut ChaCha8Rng| -> Vec<bool> {
                        bits.into_iter()
                            .map(|b| b.unwrap_or_else(|| rng.gen()))
                            .collect()
                    };
                    let pattern = TestPattern::new(fill(l, &mut rng), fill(c, &mut rng));
                    pending.push(pattern);
                    remaining[f] = false;
                    // opportunistically grade accumulated patterns in blocks
                    if pending.len() == 64 {
                        let mut undet: Vec<usize> =
                            (0..faults.len()).filter(|&g| remaining[g]).collect();
                        flush(&mut pending, &mut undet, &mut set)?;
                        remaining.fill(false);
                        for g in undet {
                            remaining[g] = true;
                        }
                    }
                }
                (PodemOutcome::Untestable, _) | (_, PodemOutcome::Untestable) => {
                    untestable += 1;
                    remaining[f] = false;
                }
                _ => {
                    aborted += 1;
                    remaining[f] = false;
                }
            }
        }
    }
    {
        let mut undet: Vec<usize> = (0..faults.len()).filter(|&g| remaining[g]).collect();
        flush(&mut pending, &mut undet, &mut set)?;
    }
    drop(podem_span);

    // --- compaction --------------------------------------------------------
    // one full matrix simulation; compaction and budget capping only select
    // pattern subsets, so they re-pack the existing rows instead of
    // re-simulating
    let _compact_span = fastmon_obs::span!("atpg_compact");
    let mut matrix =
        DetectionMatrix::try_build_with(circuit, &set, &faults, &cones, threads, metrics)?;
    if config.compact && !set.is_empty() {
        let kept = matrix.reverse_order_compaction();
        set.retain_indices(&kept);
        matrix = matrix.select_patterns(&kept);
        if let Some(m) = metrics {
            m.matrix_rebuilds_avoided.incr();
        }
    }
    if let Some(cap) = config.max_patterns {
        if set.len() > cap {
            let keep = greedy_pattern_selection(&matrix, cap);
            set.retain_indices(&keep);
            matrix = matrix.select_patterns(&keep);
            if let Some(m) = metrics {
                m.matrix_rebuilds_avoided.incr();
            }
        }
    }

    let detected = (0..faults.len())
        .filter(|&f| matrix.fault_detected(f))
        .count();
    if let Some(m) = metrics {
        m.faults_detected.add(detected as u64);
        m.faults_untestable.add(untestable as u64);
        m.patterns_emitted.add(set.len() as u64);
    }
    Ok(AtpgResult {
        test_set: set,
        detected,
        untestable,
        aborted,
        total_faults: faults.len(),
    })
}

/// Greedily selects up to `cap` patterns maximizing fault coverage.
///
/// Works column-wise on a transposed copy of the matrix: the marginal gain
/// of a candidate pattern is `popcount(column & !covered)` over packed
/// fault words, and committing a pattern is a word-level OR — no per-bit
/// probing. Ties break toward the lowest pattern index, matching the
/// original per-bit implementation exactly.
pub(crate) fn greedy_pattern_selection(matrix: &DetectionMatrix, cap: usize) -> Vec<usize> {
    let nf = matrix.num_faults();
    let np = matrix.num_patterns();
    let fw = nf.div_ceil(64).max(1);
    // transpose: one packed fault-bitset column per pattern
    let mut columns = vec![0u64; np * fw];
    for f in 0..nf {
        for (b, &w) in matrix.row(f).iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let p = b * 64 + w.trailing_zeros() as usize;
                if p < np {
                    columns[p * fw + f / 64] |= 1 << (f % 64);
                }
                w &= w - 1;
            }
        }
    }
    let mut covered = vec![0u64; fw];
    let mut used = vec![false; np];
    let mut chosen = Vec::with_capacity(cap);
    for _ in 0..cap {
        let mut best = (0usize, usize::MAX);
        for (p, &in_use) in used.iter().enumerate() {
            if in_use {
                continue;
            }
            let col = &columns[p * fw..(p + 1) * fw];
            let gain: usize = col
                .iter()
                .zip(&covered)
                .map(|(&c, &v)| (c & !v).count_ones() as usize)
                .sum();
            if gain > best.0 {
                best = (gain, p);
            }
        }
        let (gain, p) = best;
        if gain == 0 || p == usize::MAX {
            break;
        }
        used[p] = true;
        chosen.push(p);
        for (v, &c) in covered.iter_mut().zip(&columns[p * fw..(p + 1) * fw]) {
            *v |= c;
        }
    }
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmon_netlist::{generate::GeneratorConfig, library};

    #[test]
    fn c17_full_coverage() {
        let c = library::c17();
        let r = generate(&c, &AtpgConfig::default());
        assert_eq!(r.total_faults, 12);
        assert_eq!(r.detected, 12);
        assert_eq!(r.untestable, 0);
        assert!(r.coverage() > 0.999);
    }

    #[test]
    fn s27_high_efficiency() {
        let c = library::s27();
        let r = generate(&c, &AtpgConfig::default());
        assert!(
            r.fault_efficiency() > 0.99,
            "efficiency {}",
            r.fault_efficiency()
        );
        assert!(r.detected + r.untestable >= 19);
        assert!(!r.test_set.is_empty());
    }

    #[test]
    fn deterministic_phase_beats_pure_random() {
        // with very few random patterns, PODEM must pick up the slack
        let c = library::s27();
        let r = generate(
            &c,
            &AtpgConfig {
                random_patterns: 2,
                ..AtpgConfig::default()
            },
        );
        assert!(r.coverage() > 0.85, "coverage {}", r.coverage());
    }

    #[test]
    fn compaction_shrinks_without_coverage_loss() {
        let c = library::s27();
        let uncompacted = generate(
            &c,
            &AtpgConfig {
                compact: false,
                ..AtpgConfig::default()
            },
        );
        let compacted = generate(&c, &AtpgConfig::default());
        assert!(compacted.test_set.len() <= uncompacted.test_set.len());
        assert_eq!(compacted.detected, uncompacted.detected);
    }

    #[test]
    fn pattern_budget_respected() {
        let c = library::s27();
        let r = generate(
            &c,
            &AtpgConfig {
                max_patterns: Some(3),
                ..AtpgConfig::default()
            },
        );
        assert!(r.test_set.len() <= 3);
        assert!(r.detected > 0);
    }

    #[test]
    fn deterministic_in_seed() {
        let c = library::s27();
        let a = generate(
            &c,
            &AtpgConfig {
                seed: 9,
                ..AtpgConfig::default()
            },
        );
        let b = generate(
            &c,
            &AtpgConfig {
                seed: 9,
                ..AtpgConfig::default()
            },
        );
        assert_eq!(a.test_set, b.test_set);
        assert_eq!(a.detected, b.detected);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let c = GeneratorConfig::new("thr")
            .gates(250)
            .flip_flops(16)
            .inputs(10)
            .outputs(5)
            .depth(10)
            .generate(7)
            .unwrap();
        let reference = generate(
            &c,
            &AtpgConfig {
                threads: 1,
                max_patterns: Some(40),
                ..AtpgConfig::default()
            },
        );
        for threads in [2usize, 8] {
            let r = generate(
                &c,
                &AtpgConfig {
                    threads,
                    max_patterns: Some(40),
                    ..AtpgConfig::default()
                },
            );
            assert_eq!(r.test_set, reference.test_set, "threads={threads}");
            assert_eq!(r.detected, reference.detected);
            assert_eq!(r.untestable, reference.untestable);
            assert_eq!(r.aborted, reference.aborted);
        }
    }

    /// The PODEM counters a sequential loop would record.
    fn podem_counters(m: &fastmon_obs::AtpgMetrics) -> [u64; 6] {
        [
            m.podem_calls.get(),
            m.podem_backtracks.get(),
            m.podem_implications.get(),
            m.podem_aborts.get(),
            m.podem_learned_untestable.get(),
            m.podem_necessity_assignments.get(),
        ]
    }

    #[test]
    fn podem_windows_match_the_sequential_loop() {
        // few random patterns and a small backtrack limit: hundreds of PODEM
        // targets, so 64-pattern flushes land inside windows, and aborts
        let generated = |gates: usize, seed| {
            GeneratorConfig::new(format!("win{gates}"))
                .gates(gates)
                .flip_flops(gates / 16)
                .inputs(12)
                .outputs(6)
                .depth(12)
                .generate(seed)
                .unwrap()
        };
        let circuits = [library::s27(), generated(400, 3), generated(700, 5)];
        let mut discarded = 0;
        for c in &circuits {
            let run = |workers: usize| {
                let config = AtpgConfig {
                    random_patterns: 8,
                    max_backtracks: 16,
                    compact: false,
                    threads: workers,
                    ..AtpgConfig::default()
                };
                let m = fastmon_obs::AtpgMetrics::new();
                let r = generate_on(c, &config, Some(&m), None, workers).unwrap();
                (r, m)
            };
            let (reference, m1) = run(1);
            assert_eq!(m1.podem_outcomes_discarded.get(), 0, "{}", c.name());
            if c.len() > 100 {
                // PODEM emitted more than one flush's worth of patterns
                assert!(reference.test_set.len() > 8 + 64, "{}", c.name());
                assert!(reference.aborted > 0, "{}", c.name());
            }
            for workers in [2, 3, 8] {
                let (r, m) = run(workers);
                let at = format!("{} at {workers} workers", c.name());
                assert_eq!(r.test_set, reference.test_set, "{at}");
                assert_eq!(r.detected, reference.detected, "{at}");
                assert_eq!(r.untestable, reference.untestable, "{at}");
                assert_eq!(r.aborted, reference.aborted, "{at}");
                assert_eq!(podem_counters(&m), podem_counters(&m1), "{at}");
                discarded += m.podem_outcomes_discarded.get();
            }
        }
        assert!(discarded > 0, "no window crossed a flush");
    }

    #[test]
    fn synthetic_circuit_reasonable_coverage() {
        let c = GeneratorConfig::new("syn")
            .gates(300)
            .flip_flops(24)
            .inputs(12)
            .outputs(6)
            .depth(12)
            .generate(3)
            .unwrap();
        // a generous backtrack budget resolves nearly all faults
        let r = generate(
            &c,
            &AtpgConfig {
                max_backtracks: 5_000,
                ..AtpgConfig::default()
            },
        );
        assert!(
            r.fault_efficiency() > 0.9,
            "efficiency {} on synthetic circuit",
            r.fault_efficiency()
        );
    }

    #[test]
    fn grading_counters_prove_cache_and_zero_alloc() {
        let c = library::s27();
        let m = fastmon_obs::AtpgMetrics::new();
        let r = generate_with_metrics(&c, &AtpgConfig::default(), Some(&m));
        assert!(r.detected > 0);
        // every distinct fault site cached exactly once
        assert_eq!(m.cones_cached.get(), m.cone_bfs.get());
        // the cached grades dwarf the arena-build traversals
        assert!(
            m.cone_bfs_avoided.get() >= 9 * m.cone_bfs.get(),
            "avoided {} vs performed {}",
            m.cone_bfs_avoided.get(),
            m.cone_bfs.get()
        );
        // steady-state grading is allocation-free: one pre-size per scratch
        assert!(
            m.grade_scratch_reuses.get() > m.grade_scratch_allocs.get(),
            "reuses {} vs allocs {}",
            m.grade_scratch_reuses.get(),
            m.grade_scratch_allocs.get()
        );
        // the matrix is simulated once; compaction re-packed rows
        assert_eq!(m.matrix_builds.get(), 1);
        assert_eq!(m.matrix_rebuilds_avoided.get(), 1);
        assert!(m.cone_nodes_evaluated.get() > 0);
    }
}
