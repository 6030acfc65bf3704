use std::sync::Mutex;

use fastmon_atpg::TestSet;
use fastmon_faults::{DetectionRange, FaultList, IntervalSet};
use fastmon_monitor::{
    at_speed_monitor_detectable, detects_at, shifted_detection, union_detection, ConfigSet,
    MonitorConfig, MonitorPlacement,
};
use fastmon_netlist::{Circuit, NodeId};
use fastmon_sim::{try_parallel_map_with, ConeScratch, SimEngine};
use fastmon_timing::{ClockSpec, DelayAnnotation, Time};

use crate::checkpoint::{ByteSink as _, CampaignCheckpoint, CheckpointError, Fnv1a};
use crate::error::FlowError;

/// Per-fault detectability verdict after fault simulation and monitor
/// analysis (steps ②–⑤ of the paper's flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultVerdict {
    /// Detectable by conventional FAST: some mission-flip-flop detection
    /// interval lies inside `[t_min, t_nom)`.
    pub detected_conv: bool,
    /// Detectable with programmable monitors: some (possibly shifted)
    /// interval lies inside the window, under any configuration.
    pub detected_prop: bool,
    /// Detectable at the *nominal* capture time thanks to a monitor delay
    /// element (or by plain at-speed capture) — removed from the FAST
    /// target set.
    pub at_speed_monitor: bool,
}

impl FaultVerdict {
    /// Whether the fault belongs to the target set `Φ_tar`: it needs FAST
    /// and monitors can (help) detect it.
    #[must_use]
    pub fn is_target(&self) -> bool {
        self.detected_prop && !self.at_speed_monitor
    }
}

/// The result of the timing-accurate fault-simulation campaign: raw and
/// derived detection ranges for every candidate fault.
#[derive(Debug, Clone)]
pub struct DetectionAnalysis {
    /// The simulated candidate faults.
    pub faults: FaultList,
    /// Per fault: sparse list of `(pattern index, raw per-output detection
    /// range)`, glitch-filtered, clipped to `(0, t_nom)`.
    pub per_pattern: Vec<Vec<(u32, DetectionRange)>>,
    /// Per fault: union of the raw ranges over all patterns, per
    /// observation point in first-appearance order
    /// ([`DetectionRange::union_of`] of `per_pattern`).
    pub raw_union: Vec<DetectionRange>,
    /// Per fault: FF-only observable range inside the FAST window
    /// (conventional FAST).
    pub conv_range: Vec<IntervalSet>,
    /// Per fault: observable range inside the FAST window under the best
    /// monitor configuration per instant (union over all configurations).
    pub fast_range: Vec<IntervalSet>,
    /// Per fault verdicts.
    pub verdicts: Vec<FaultVerdict>,
    /// Indices (into `faults`) of the target set `Φ_tar`.
    pub targets: Vec<usize>,
    /// Number of patterns simulated.
    pub num_patterns: usize,
}

impl DetectionAnalysis {
    /// The resumable campaign driver behind
    /// [`HdfTestFlow::run`](crate::HdfTestFlow::run): every pattern is
    /// simulated fault-free once, every candidate fault whose site
    /// actually toggles under that pattern is re-simulated on its fanout
    /// cone, and the per-output differences — glitch-filtered with
    /// `glitch_threshold` — are recorded. Simulation starts at
    /// `progress.next_pattern` on top of the already accumulated
    /// per-pattern ranges, and `on_band` runs after every completed
    /// pattern band (this is where the flow persists a checkpoint). An
    /// `Err` from `on_band` aborts the campaign. The bands only append
    /// per-pattern entries: each fault's raw union is derived once, after
    /// the last band, in parallel over faults on the campaign's workers.
    ///
    /// Because per-pattern results are merged in a fixed ascending pattern
    /// order, resuming from any band boundary is bit-identical to an
    /// uninterrupted run, for any thread count on either side.
    ///
    /// Robustness hooks: the `campaign_band` failpoint fires once per band
    /// (surfacing [`FlowError::Injected`]), the `sim_worker` failpoint
    /// fires inside worker bodies (surfacing as a contained
    /// [`FlowError::WorkerPanic`]), worker panics are isolated via
    /// [`try_parallel_map_with`], and `cancel` is checked after every band
    /// checkpoint so a cancelled campaign always stops at a band boundary
    /// with its progress already persisted.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn compute_with_progress(
        circuit: &Circuit,
        annot: &DelayAnnotation,
        clock: &ClockSpec,
        configs: &ConfigSet,
        placement: &MonitorPlacement,
        faults: FaultList,
        patterns: &TestSet,
        glitch_threshold: Time,
        threads: usize,
        metrics: Option<&fastmon_obs::MetricsRegistry>,
        cancel: Option<&fastmon_obs::CancelToken>,
        mut progress: CampaignCheckpoint,
        on_band: &mut dyn FnMut(&CampaignCheckpoint) -> Result<(), CheckpointError>,
    ) -> Result<Self, FlowError> {
        debug_assert_eq!(progress.per_pattern.len(), faults.len());
        let _analyze_span = fastmon_obs::span!("analyze");
        let sim_metrics = metrics.map(|m| &m.sim);
        let engine = match sim_metrics {
            Some(m) => SimEngine::new(circuit, annot).with_metrics(m),
            None => SimEngine::new(circuit, annot),
        };

        // plan each seed gate's fanout cone once, shared by all its
        // pin/polarity faults and every pattern: `fault_plans` pairs each
        // fault with its gate's entry in `gates`
        let mut gates: Vec<NodeId> = Vec::new();
        let mut fault_plans: Vec<(usize, usize)> = Vec::new();
        for (fid, fault) in faults.iter() {
            let gate = fault.site.node();
            if gates.last() != Some(&gate) {
                gates.push(gate);
            }
            fault_plans.push((fid.index(), gates.len() - 1));
        }
        let threads = threads.max(1);
        // Oversubscription guard: requesting more workers than the machine
        // has cores only adds scheduling overhead (the old 4-thread runs
        // were *slower* than 1-thread on small hosts). Results are
        // bit-identical for any worker count by construction.
        let workers = threads.min(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(threads),
        );
        let plans: Vec<fastmon_sim::ConePlan> = fastmon_sim::parallel_map_with(
            gates.len(),
            workers,
            fastmon_sim::PlanScratch::new,
            |scratch, g| {
                fastmon_sim::ConePlan::new_with_scratch(circuit, gates[g], sim_metrics, scratch)
            },
        );

        // Two-axis fan-out: work items are (pattern, chunk of faults)
        // pairs, so even a handful of patterns keeps every thread busy and
        // the work-stealing pool rebalances wildly uneven cone sizes.
        // Patterns are processed in bands so the shared fault-free results
        // stay memory-bounded: within a band, each pattern is simulated
        // fault-free exactly once and read by all its chunks.
        let num_patterns = patterns.len();
        // The chunk partition exists to load-balance faults across *real*
        // workers; on a host where the campaign runs serially it is pure
        // per-item overhead, so it is sized from the effective worker
        // count, not the requested thread count. The fixed-order merge
        // below keeps results bit-identical for any chunk count.
        let num_chunks = if workers > 1 {
            fault_plans.len().clamp(1, workers * 2)
        } else {
            1
        };
        // Bands want to be as coarse as memory allows: every band pays two
        // scoped-thread spawn rounds plus a checkpoint write, which at the
        // old `threads * 2` sizing dominated the campaign on machines where
        // workers mostly run serially. An eighth of the test set keeps the
        // band count (and hence spawn/checkpoint overhead) constant across
        // thread counts, the memory cap bounds the band's resident
        // fault-free waveforms on full-scale circuits, and the
        // `threads * 2` floor keeps every worker busy on small sets.
        // Written as max-then-min (not `clamp`) because the lower bound can
        // exceed the upper bound on small pattern sets, which `clamp`
        // rejects with a panic.
        let mem_cap = (4_000_000 / circuit.len().max(1)).max(threads * 2).max(4);
        let band_size = (num_patterns / 8)
            .max(threads * 2)
            .max(4)
            .min(mem_cap)
            .min(num_patterns.max(1));

        let contained = |panic: fastmon_sim::WorkerPanic| {
            if let Some(m) = metrics {
                m.robustness.worker_panics_contained.incr();
            }
            FlowError::WorkerPanic {
                phase: "analyze",
                message: panic.message(),
            }
        };

        // Campaign-lifetime worker state: each worker's scratch, including
        // its pool of transition buffers, lives in `worker_pool`, which
        // outlasts the per-band thread spawns. Every cone walk returns all
        // the buffers it took, so a worker's buffer pool stops growing at
        // the largest set one walk holds at once, and `waveform_allocs`
        // (buffers created because a pool was empty) is about that size
        // times the number of workers, not a count that grows with bands
        // or cones.
        let worker_pool: Mutex<Vec<BandWorker>> = Mutex::new(Vec::new());

        let mut band_start = progress.next_pattern.min(num_patterns);
        while band_start < num_patterns {
            let _band_span = fastmon_obs::span!("band", band_start / band_size);
            fastmon_obs::failpoints::fire("campaign_band")?;
            let t_band = std::time::Instant::now();
            let band_len = band_size.min(num_patterns - band_start);
            // fault-free responses of the band, computed once, shared
            // read-only by every fault chunk
            let bases = try_parallel_map_with(
                band_len,
                workers,
                || (),
                |(), i| engine.simulate(&patterns.stimulus(circuit, band_start + i)),
            )
            .map_err(contained)?;

            let chunk_results = try_parallel_map_with(
                band_len * num_chunks,
                workers,
                || WorkerLease::take(&worker_pool, circuit),
                |lease, item| {
                    // Worker bodies have no error channel; both failpoint
                    // actions surface as a contained panic.
                    if let Err(injected) = fastmon_obs::failpoints::fire("sim_worker") {
                        panic!("{injected}");
                    }
                    let w = lease.get();
                    let base = &bases[item / num_chunks];
                    let chunk = item % num_chunks;
                    let lo = chunk * fault_plans.len() / num_chunks;
                    let hi = (chunk + 1) * fault_plans.len() / num_chunks;
                    let mut found: Vec<(u32, DetectionRange)> = Vec::new();
                    for &(fidx, entry) in &fault_plans[lo..hi] {
                        let fault = faults.fault(fastmon_faults::FaultId::from_index(fidx));
                        engine.response_diff_planned_into(
                            base,
                            fault,
                            &plans[entry],
                            &mut w.scratch,
                            clock.t_nom,
                            &mut w.diffs,
                        );
                        if w.diffs.is_empty() {
                            continue;
                        }
                        let mut dr = DetectionRange::new();
                        for (op, set) in w.diffs.drain(..) {
                            let filtered = set
                                .clipped(0.0, clock.t_nom)
                                .filter_glitches(glitch_threshold);
                            dr.push(op, filtered);
                        }
                        if !dr.is_empty() {
                            let fidx = u32::try_from(fidx)
                                .unwrap_or_else(|_| unreachable!("fault count fits u32"));
                            found.push((fidx, dr));
                        }
                    }
                    engine.publish_cone_counters(&mut w.scratch);
                    found
                },
            )
            .map_err(contained)?;

            // merge in fixed (pattern, chunk) order — the result is
            // bit-identical for any thread count
            for (item, found) in chunk_results.into_iter().enumerate() {
                let p = band_start + item / num_chunks;
                let p = u32::try_from(p).unwrap_or_else(|_| unreachable!("pattern count fits u32"));
                for (fidx, dr) in found {
                    progress.per_pattern[fidx as usize].push((p, dr));
                }
            }
            if let Some(m) = metrics {
                // Simulation time only — checkpoint save latency is its
                // own histogram, fed inside `on_band`.
                m.latency.band.record_duration(t_band.elapsed());
            }
            band_start += band_len;
            progress.next_pattern = band_start;
            on_band(&progress).map_err(FlowError::Checkpoint)?;
            // Cancellation is observed *after* the band checkpoint, so a
            // cancelled campaign always leaves a resumable file behind — but
            // only while bands remain. A token that fires after the final
            // band would otherwise turn a fully-simulated campaign into a
            // `Cancelled` whose resume replays zero bands.
            if band_start < num_patterns {
                if let Some(token) = cancel {
                    token.check("analyze")?;
                }
            }
        }

        // raw unions, derived ranges and verdicts
        let per_pattern = progress.per_pattern;
        let raw_union = raw_unions(&per_pattern, workers);
        Ok(Self::finalize(
            faults,
            num_patterns,
            per_pattern,
            raw_union,
            placement,
            configs,
            clock,
        ))
    }

    /// Rebuilds a full analysis from a campaign's accumulated raw results
    /// (the `per_pattern` entries of a completed [`CampaignCheckpoint`]
    /// and each fault's `raw_union`, the [`DetectionRange::union_of`] of
    /// its entries): derives the conventional and monitored observable
    /// ranges, the per-fault verdicts and the target set.
    ///
    /// `conv_range` is [`shifted_detection`] under `Off` and `fast_range`
    /// is [`union_detection`], each built in one pass per fault.
    ///
    /// This is the (purely derived, simulation-free) tail of the
    /// campaign, exposed so a shard supervisor can
    /// reconstruct a worker's analysis from its landed result file
    /// without re-simulating anything — the reconstruction is
    /// bit-identical because every derived field is a deterministic
    /// function of `raw_union` and the flow's static context.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn finalize(
        faults: FaultList,
        num_patterns: usize,
        per_pattern: Vec<Vec<(u32, DetectionRange)>>,
        raw_union: Vec<DetectionRange>,
        placement: &MonitorPlacement,
        configs: &ConfigSet,
        clock: &ClockSpec,
    ) -> Self {
        let mut conv_range = Vec::with_capacity(faults.len());
        let mut fast_range = Vec::with_capacity(faults.len());
        let mut verdicts = Vec::with_capacity(faults.len());
        let mut targets = Vec::new();
        for (i, raw) in raw_union.iter().enumerate() {
            let conv = shifted_detection(raw, placement, configs, MonitorConfig::Off, clock);
            let fast = union_detection(raw, placement, configs, clock);
            let verdict = FaultVerdict {
                detected_conv: !conv.is_empty(),
                detected_prop: !fast.is_empty(),
                at_speed_monitor: at_speed_monitor_detectable(raw, placement, configs, clock),
            };
            if verdict.is_target() {
                targets.push(i);
            }
            conv_range.push(conv);
            fast_range.push(fast);
            verdicts.push(verdict);
        }

        DetectionAnalysis {
            faults,
            per_pattern,
            raw_union,
            conv_range,
            fast_range,
            verdicts,
            targets,
            num_patterns,
        }
    }

    /// Merges per-shard analyses (each computed over a contiguous slice of
    /// the candidate fault list, in slice order) back into the analysis of
    /// the full list.
    ///
    /// Because every per-fault outcome is computed independently of the
    /// other faults in the campaign, concatenating the shards'
    /// per-fault fields and re-deriving the target indices is
    /// **bit-identical** to a single-process run over the whole list —
    /// [`DetectionAnalysis::result_fingerprint`] values match exactly, for
    /// any shard count, any thread count and any band partition.
    ///
    /// Merging an empty shard list yields the empty analysis.
    ///
    /// # Errors
    ///
    /// [`FlowError::ShardMerge`] when the shards disagree on the number of
    /// simulated patterns (they were run against different test sets).
    pub fn merge<I: IntoIterator<Item = DetectionAnalysis>>(shards: I) -> Result<Self, FlowError> {
        let mut merged = DetectionAnalysis {
            faults: FaultList::new(),
            per_pattern: Vec::new(),
            raw_union: Vec::new(),
            conv_range: Vec::new(),
            fast_range: Vec::new(),
            verdicts: Vec::new(),
            targets: Vec::new(),
            num_patterns: 0,
        };
        let mut fault_lists = Vec::new();
        for (i, shard) in shards.into_iter().enumerate() {
            if i == 0 {
                merged.num_patterns = shard.num_patterns;
            } else if shard.num_patterns != merged.num_patterns {
                return Err(FlowError::ShardMerge {
                    shard: i,
                    got: shard.num_patterns,
                    expected: merged.num_patterns,
                });
            }
            let offset = merged.per_pattern.len();
            merged.per_pattern.extend(shard.per_pattern);
            merged.raw_union.extend(shard.raw_union);
            merged.conv_range.extend(shard.conv_range);
            merged.fast_range.extend(shard.fast_range);
            merged.verdicts.extend(shard.verdicts);
            merged
                .targets
                .extend(shard.targets.into_iter().map(|t| t + offset));
            fault_lists.push(shard.faults);
        }
        merged.faults = FaultList::concat(fault_lists);
        Ok(merged)
    }

    /// Whether `fault` is detected when capturing at time `t` with pattern
    /// `pattern` under monitor configuration `config` ([`detects_at`] on
    /// the pattern's raw range).
    // the argument list mirrors the (f, p, c) triple of the paper's
    // schedule plus the three context objects — grouping them would only
    // add a struct the call sites immediately unpack
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn detected_at(
        &self,
        fault: usize,
        pattern: usize,
        config: MonitorConfig,
        t: Time,
        placement: &MonitorPlacement,
        configs: &ConfigSet,
        clock: &ClockSpec,
    ) -> bool {
        // entries are pushed in ascending pattern order during compute
        let entries = &self.per_pattern[fault];
        entries
            .binary_search_by_key(&pattern, |(p, _)| *p as usize)
            .ok()
            .is_some_and(|i| detects_at(&entries[i].1, placement, configs, config, clock, t))
    }

    /// Number of candidate faults.
    #[must_use]
    pub fn num_faults(&self) -> usize {
        self.faults.len()
    }

    /// FNV-1a fingerprint over every outcome field — per-pattern raw
    /// ranges, unions, derived conventional/FAST ranges, verdicts and the
    /// target set. Two analyses are bit-identical iff their fingerprints
    /// match, which is how the daemon soak suite compares a
    /// crash-resumed campaign against a clean serial run without
    /// shipping the full result across a socket.
    #[must_use]
    pub fn result_fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::new();
        hash.put_u64(self.faults.len() as u64);
        hash.put_u64(self.num_patterns as u64);
        for entries in &self.per_pattern {
            hash.put_u64(entries.len() as u64);
            for (pattern, dr) in entries {
                hash.put_u64(u64::from(*pattern));
                hash.put_range(dr);
            }
        }
        for dr in &self.raw_union {
            hash.put_range(dr);
        }
        for set in self.conv_range.iter().chain(self.fast_range.iter()) {
            hash.put_set(set);
        }
        for v in &self.verdicts {
            hash.put(&[u8::from(v.detected_conv)
                | u8::from(v.detected_prop) << 1
                | u8::from(v.at_speed_monitor) << 2]);
        }
        hash.put_u64(self.targets.len() as u64);
        for &t in &self.targets {
            hash.put_u64(t as u64);
        }
        hash.finish()
    }

    /// Count of faults detected by conventional FAST.
    #[must_use]
    pub fn detected_conv(&self) -> usize {
        self.verdicts.iter().filter(|v| v.detected_conv).count()
    }

    /// Count of faults detected with programmable monitors.
    #[must_use]
    pub fn detected_prop(&self) -> usize {
        self.verdicts.iter().filter(|v| v.detected_prop).count()
    }
}

/// Each fault's raw union: its per-pattern ranges merged per observation
/// point with [`DetectionRange::union_of`], on `workers` threads.
/// Observation points keep their first-appearance order in pattern order,
/// which [`DetectionRange`] equality and
/// [`DetectionAnalysis::result_fingerprint`] depend on, so the result is
/// the one merging the entries one by one would give.
pub(crate) fn raw_unions(
    per_pattern: &[Vec<(u32, DetectionRange)>],
    workers: usize,
) -> Vec<DetectionRange> {
    fastmon_sim::parallel_map(per_pattern.len(), workers, |f| {
        DetectionRange::union_of(per_pattern[f].iter().map(|(_, dr)| dr))
    })
}

/// Per-worker campaign scratch: the cone re-simulation buffers and the
/// per-fault diff accumulator.
struct BandWorker {
    scratch: ConeScratch,
    diffs: Vec<(usize, IntervalSet)>,
}

impl BandWorker {
    fn new(circuit: &Circuit) -> Self {
        BandWorker {
            scratch: ConeScratch::new(circuit),
            diffs: Vec::new(),
        }
    }
}

/// Checks a [`BandWorker`] out of the campaign pool and returns it on
/// drop, so scratch buffers survive the per-band thread spawns instead of
/// being reallocated `bands × workers` times. A worker that panics forfeits
/// its state (the lease is leaked with the worker thread), which exactly
/// matches the previous per-spawn lifetime under panic containment.
struct WorkerLease<'p> {
    pool: &'p Mutex<Vec<BandWorker>>,
    worker: Option<BandWorker>,
}

impl<'p> WorkerLease<'p> {
    fn take(pool: &'p Mutex<Vec<BandWorker>>, circuit: &Circuit) -> Self {
        let worker = pool
            .lock()
            .ok()
            .and_then(|mut p| p.pop())
            .unwrap_or_else(|| BandWorker::new(circuit));
        WorkerLease {
            pool,
            worker: Some(worker),
        }
    }

    fn get(&mut self) -> &mut BandWorker {
        match self.worker.as_mut() {
            Some(w) => w,
            None => unreachable!("lease holds a worker until dropped"),
        }
    }
}

impl Drop for WorkerLease<'_> {
    fn drop(&mut self) {
        if let Some(w) = self.worker.take() {
            if let Ok(mut pool) = self.pool.lock() {
                pool.push(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowConfig, HdfTestFlow};

    fn s27_analysis() -> (Circuit, FlowConfig) {
        (fastmon_netlist::library::s27(), FlowConfig::default())
    }

    #[test]
    fn ranges_live_inside_the_simulation_horizon() {
        let (c, cfg) = s27_analysis();
        let flow = HdfTestFlow::prepare(&c, &cfg);
        let patterns = flow.generate_patterns(None);
        let analysis = flow.analyze(&patterns);
        for ranges in &analysis.per_pattern {
            for (p, dr) in ranges {
                assert!((*p as usize) < analysis.num_patterns);
                for (op, set) in dr.iter() {
                    assert!(op < c.observe_points().len());
                    for iv in set.iter() {
                        assert!(iv.start >= 0.0 && iv.end <= flow.clock().t_nom + 1e-9);
                        assert!(iv.len() >= cfg.glitch_threshold - 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn fast_range_is_union_of_per_pattern_detection() {
        // every time in fast_range must be detected by some
        // (pattern, config); every per-pattern detection must lie inside
        // fast_range
        let (c, cfg) = s27_analysis();
        let flow = HdfTestFlow::prepare(&c, &cfg);
        let patterns = flow.generate_patterns(None);
        let analysis = flow.analyze(&patterns);
        for f in 0..analysis.num_faults() {
            let fast = &analysis.fast_range[f];
            if fast.is_empty() {
                continue;
            }
            for iv in fast.iter() {
                let t = iv.midpoint();
                let hit = analysis.per_pattern[f].iter().any(|(p, _)| {
                    flow.configs().configs().any(|config| {
                        analysis.detected_at(
                            f,
                            *p as usize,
                            config,
                            t,
                            flow.placement(),
                            flow.configs(),
                            flow.clock(),
                        )
                    })
                });
                assert!(
                    hit,
                    "fault {f}: fast_range time {t} not backed by any pattern"
                );
            }
        }
    }

    #[test]
    fn analyze_handles_tiny_pattern_sets() {
        // Regression: band sizing used `(threads * 2).clamp(4, num_patterns)`,
        // which panics ("assert min <= max") whenever the test set holds
        // fewer than 4 patterns. Truncated and empty test sets are valid
        // inputs and must not crash, at any thread count.
        let c = fastmon_netlist::library::s27();
        for threads in [1, 8] {
            let cfg = FlowConfig {
                threads,
                ..FlowConfig::default()
            };
            let flow = HdfTestFlow::prepare(&c, &cfg);
            for budget in [0, 1, 2, 3] {
                let patterns = flow.generate_patterns(Some(budget));
                assert!(patterns.len() <= budget);
                let analysis = flow.analyze(&patterns);
                assert_eq!(analysis.num_patterns, patterns.len());
                if budget == 0 {
                    assert!(analysis.per_pattern.iter().all(Vec::is_empty));
                }
            }
        }
    }

    #[test]
    fn verdicts_partition_consistently() {
        let (c, cfg) = s27_analysis();
        let flow = HdfTestFlow::prepare(&c, &cfg);
        let patterns = flow.generate_patterns(None);
        let analysis = flow.analyze(&patterns);
        for (i, v) in analysis.verdicts.iter().enumerate() {
            // conv implies prop
            assert!(!v.detected_conv || v.detected_prop, "fault {i}");
            // targets are exactly the prop-detected, not-at-speed faults
            assert_eq!(
                analysis.targets.contains(&i),
                v.is_target(),
                "fault {i} target membership"
            );
            // conv_range ⊆ fast_range
            let conv = &analysis.conv_range[i];
            for iv in conv.iter() {
                assert!(analysis.fast_range[i].contains(iv.midpoint()));
            }
        }
    }
}
