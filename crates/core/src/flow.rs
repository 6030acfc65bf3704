use fastmon_atpg::{try_generate_with_metrics, AtpgConfig, AtpgError, TestSet};
use fastmon_faults::{classify, DetectionTable, FaultClass, FaultList, Polarity};
use fastmon_monitor::{ConfigSet, MonitorPlacement};
use fastmon_netlist::{Circuit, NetlistError, PinRef};
use fastmon_obs::MetricsRegistry;
use fastmon_timing::{ClockSpec, DelayAnnotation, DelayModel, Sta};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::checkpoint::{
    self, ByteSink as _, CampaignCheckpoint, CheckpointError, CheckpointStore, Fnv1a,
};
use crate::schedule::{select_frequencies, select_patterns, ScheduleContext};
use crate::{
    DetectionAnalysis, FlowConfig, FlowError, FrequencySelection, ScheduleError, ShardSpec, Solver,
    TestSchedule,
};

/// Fault-population counters of the structural analysis (step ① of the
/// flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowCounts {
    /// Full `δ = 6σ` fault population (two per gate pin).
    pub initial: usize,
    /// Removed: a plain at-speed test already fails.
    pub at_speed_detectable: usize,
    /// Removed: no FAST frequency (even monitor-assisted) can see the
    /// effect.
    pub timing_redundant: usize,
    /// FAST-relevant candidates handed to fault simulation.
    pub candidates: usize,
    /// Candidates actually simulated (after optional sampling).
    pub sampled: usize,
}

/// A campaign progress event surfaced to [`Campaign::observe`]. With a
/// checkpoint store every event corresponds to a durable on-disk state,
/// so observers may treat each one as a crash-safe resume point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignProgress {
    /// A valid same-fingerprint checkpoint was found; the campaign skips
    /// every pattern before `next_pattern`.
    Resumed {
        /// First pattern that will actually be simulated.
        next_pattern: usize,
        /// Total patterns in the campaign.
        total_patterns: usize,
        /// Trace run id of the process that wrote the checkpoint (from
        /// its `.run` sidecar), when one survived — lets observers link
        /// this run's event trail to its predecessor's.
        prev_run: Option<u64>,
    },
    /// A pattern band finished (and its checkpoint reached disk).
    BandCheckpointed {
        /// First pattern not yet simulated.
        next_pattern: usize,
        /// Total patterns in the campaign.
        total_patterns: usize,
    },
}

/// The options of one [`HdfTestFlow::run`]; the default simulates every
/// candidate without persistence or observer. The cancellation token is
/// the flow's own ([`HdfTestFlow::with_cancel`]).
#[derive(Default)]
pub struct Campaign<'a> {
    /// Simulate only this shard's contiguous slice of the candidates
    /// ([`ShardSpec::range`]). The per-fault results are bit-identical to
    /// the same slice of a whole-population run;
    /// [`DetectionAnalysis::merge`] reassembles the full analysis.
    pub shard: Option<ShardSpec>,
    /// Persist a checkpoint here after every pattern band, keyed by the
    /// campaign fingerprint (combined with the shard coordinates), and
    /// resume from a valid checkpoint of the same campaign instead of
    /// restarting. Corrupt, truncated, version-mismatched or foreign
    /// checkpoints are never fatal: a warning is logged and the campaign
    /// restarts cleanly. The finished checkpoint stays on disk — it holds
    /// the complete raw results — until the caller removes it.
    pub checkpoint: Option<&'a CheckpointStore>,
    /// Receives every [`CampaignProgress`] event, each after the state it
    /// reports is durable.
    pub observe: Option<&'a mut dyn FnMut(CampaignProgress)>,
}

/// The prepared HDF test flow of the paper (Fig. 4): circuit, delays,
/// clocks, monitors — everything except patterns and the simulation
/// campaign.
///
/// Typical use:
///
/// 1. [`HdfTestFlow::prepare`] — synthesize timing, place monitors.
/// 2. [`HdfTestFlow::generate_patterns`] — transition-fault ATPG
///    (or bring your own [`TestSet`]).
/// 3. [`HdfTestFlow::analyze`] — structural filtering + timing-accurate
///    fault simulation → [`DetectionAnalysis`].
/// 4. [`HdfTestFlow::schedule`] / [`HdfTestFlow::schedule_with_coverage`]
///    — two-step optimization → [`TestSchedule`].
#[derive(Debug)]
pub struct HdfTestFlow<'c> {
    circuit: &'c Circuit,
    config: FlowConfig,
    annot: DelayAnnotation,
    sta: Sta,
    clock: ClockSpec,
    configs: ConfigSet,
    placement: MonitorPlacement,
    counts: FlowCounts,
    candidate_faults: FaultList,
    metrics: MetricsRegistry,
    cancel: Option<fastmon_obs::CancelToken>,
}

impl<'c> HdfTestFlow<'c> {
    /// Prepares the flow: annotates delays (process variation σ), runs
    /// STA, derives the clock (`t_nom = 1.05·cpl`, `t_min = t_nom/3`),
    /// builds the monitor configuration set and places monitors at long
    /// path ends, then structurally classifies the full fault population.
    ///
    /// # Panics
    ///
    /// Panics on degenerate inputs (e.g. an empty circuit). Use
    /// [`HdfTestFlow::try_prepare`] to handle untrusted inputs without
    /// panicking.
    #[must_use]
    pub fn prepare(circuit: &'c Circuit, config: &FlowConfig) -> Self {
        match Self::try_prepare(circuit, config) {
            Ok(flow) => flow,
            Err(e) => panic!("cannot prepare HDF test flow: {e}"),
        }
    }

    /// Fallible variant of [`HdfTestFlow::prepare`].
    ///
    /// # Errors
    ///
    /// * [`FlowError::Netlist`] with [`NetlistError::EmptyCircuit`] when
    ///   the circuit holds no gates — no clock can be derived from it.
    /// * [`FlowError::Timing`] when the derived delay annotation is
    ///   invalid (NaN/negative delays, non-positive gate sigma).
    pub fn try_prepare(circuit: &'c Circuit, config: &FlowConfig) -> Result<Self, FlowError> {
        if circuit.is_empty() {
            return Err(NetlistError::EmptyCircuit {
                circuit: circuit.name().to_owned(),
            }
            .into());
        }
        let model = DelayModel::nangate45_like();
        let annot = DelayAnnotation::with_variation(circuit, &model, config.sigma_rel, config.seed);
        Self::try_prepare_with_annotation(circuit, config, annot)
    }

    /// Like [`HdfTestFlow::try_prepare`], but with caller-supplied delays
    /// (e.g. parsed from an SDF file via `fastmon_timing::sdf::parse`)
    /// instead of the synthesized NanGate45-like model + process
    /// variation.
    ///
    /// # Errors
    ///
    /// Same as [`HdfTestFlow::try_prepare`]; additionally any invalid
    /// annotation (wrong circuit, NaN/negative delays) is
    /// [`FlowError::Timing`].
    pub fn try_prepare_with_annotation(
        circuit: &'c Circuit,
        config: &FlowConfig,
        annot: DelayAnnotation,
    ) -> Result<Self, FlowError> {
        if circuit.is_empty() {
            return Err(NetlistError::EmptyCircuit {
                circuit: circuit.name().to_owned(),
            }
            .into());
        }
        let metrics = MetricsRegistry::new();
        annot.validate_for(circuit)?;
        let sta = Sta::analyze_with_metrics(circuit, &annot, Some(&metrics.sta));
        let clock = ClockSpec::new(
            (1.0 + config.clock_margin) * sta.critical_path_length(),
            config.fmax_factor,
        );
        let configs = ConfigSet::new(
            config
                .monitor_delays_rel
                .iter()
                .map(|r| r * clock.t_nom)
                .collect(),
        );
        let placement = MonitorPlacement::at_long_path_ends(circuit, &sta, config.monitor_fraction);

        // which fault sites reach a monitored observation point (reverse
        // reachability from monitored capture signals)
        let mut reaches_monitor = vec![false; circuit.len()];
        for op_index in placement.monitored_indices() {
            reaches_monitor[circuit.observe_points()[op_index].driver.index()] = true;
        }
        for &id in circuit.topo_order().iter().rev() {
            if reaches_monitor[id.index()] {
                for &fi in circuit.node(id).fanins() {
                    reaches_monitor[fi.index()] = true;
                }
            }
        }

        // step ①: structural classification
        let all = FaultList::sized(circuit, |id| config.delta_sigma * annot.sigma(id));
        let at_speed = std::cell::Cell::new(0usize);
        let redundant = std::cell::Cell::new(0usize);
        let (candidates, _) = all.filtered(|fid| {
            let fault = all.fault(fid);
            let shift = if reaches_monitor[fault.site.node().index()] {
                configs.max_shift()
            } else {
                0.0
            };
            match classify(circuit, &sta, &clock, fault, shift) {
                FaultClass::AtSpeedDetectable => {
                    at_speed.set(at_speed.get() + 1);
                    false
                }
                FaultClass::TimingRedundant => {
                    redundant.set(redundant.get() + 1);
                    false
                }
                FaultClass::FastTestable => true,
            }
        });
        let (at_speed, redundant) = (at_speed.get(), redundant.get());
        let initial = all.len();
        let num_candidates = candidates.len();

        // optional deterministic sampling for scaled experiments
        let candidate_faults = match config.max_faults {
            Some(cap) if num_candidates > cap => {
                let mut idx: Vec<usize> = (0..num_candidates).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5a5a_1234);
                idx.shuffle(&mut rng);
                idx.truncate(cap);
                idx.sort_unstable();
                let keep: std::collections::HashSet<usize> = idx.into_iter().collect();
                candidates.filtered(|fid| keep.contains(&fid.index())).0
            }
            _ => candidates,
        };

        let counts = FlowCounts {
            initial,
            at_speed_detectable: at_speed,
            timing_redundant: redundant,
            candidates: num_candidates,
            sampled: candidate_faults.len(),
        };

        Ok(HdfTestFlow {
            circuit,
            config: config.clone(),
            annot,
            sta,
            clock,
            configs,
            placement,
            counts,
            candidate_faults,
            metrics,
            // A `FASTMON_DEADLINE_SECS` deadline token is armed from the
            // environment; `with_cancel` replaces it for in-process control.
            cancel: fastmon_obs::cancel::from_env(),
        })
    }

    /// Installs a cooperative-cancellation token: the cancellable flow
    /// steps ([`HdfTestFlow::try_generate_patterns`],
    /// [`HdfTestFlow::try_analyze`], [`HdfTestFlow::analyze_resumable`],
    /// the ILP scheduler) observe it at safe boundaries and return
    /// [`FlowError::Cancelled`]. Replaces any token armed from
    /// `FASTMON_DEADLINE_SECS`.
    #[must_use]
    pub fn with_cancel(mut self, token: fastmon_obs::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The active cancellation token, if any (installed via
    /// [`HdfTestFlow::with_cancel`] or armed from
    /// `FASTMON_DEADLINE_SECS`).
    #[must_use]
    pub fn cancel_token(&self) -> Option<&fastmon_obs::CancelToken> {
        self.cancel.as_ref()
    }

    /// Stamps the request→stop latency into
    /// `robustness.cancel_latency_ms` the first time a phase surfaces a
    /// [`FlowError::Cancelled`].
    fn record_cancel_latency(&self) {
        if let Some(latency) = self
            .cancel
            .as_ref()
            .and_then(fastmon_obs::CancelToken::latency_since_request)
        {
            let ms = u64::try_from(latency.as_millis()).unwrap_or(u64::MAX);
            self.metrics.robustness.cancel_latency_ms.add(ms);
        }
    }

    /// The circuit under test.
    #[must_use]
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The flow configuration.
    #[must_use]
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The annotated (process-varied) delays.
    #[must_use]
    pub fn annotation(&self) -> &DelayAnnotation {
        &self.annot
    }

    /// The static timing analysis.
    #[must_use]
    pub fn sta(&self) -> &Sta {
        &self.sta
    }

    /// The derived clock specification.
    #[must_use]
    pub fn clock(&self) -> &ClockSpec {
        &self.clock
    }

    /// The monitor delay-element set.
    #[must_use]
    pub fn configs(&self) -> &ConfigSet {
        &self.configs
    }

    /// The monitor placement (`|M|` = [`MonitorPlacement::count`]).
    #[must_use]
    pub fn placement(&self) -> &MonitorPlacement {
        &self.placement
    }

    /// The structural fault counters.
    #[must_use]
    pub fn counts(&self) -> FlowCounts {
        self.counts
    }

    /// The FAST-relevant candidate faults (after sampling).
    #[must_use]
    pub fn candidate_faults(&self) -> &FaultList {
        &self.candidate_faults
    }

    /// The campaign-scoped telemetry registry. Every phase of this flow —
    /// STA, ATPG, fault simulation, checkpoint I/O and schedule
    /// optimization — records its counters here, so two concurrent
    /// campaigns in one process never mix numbers. Read it after
    /// [`HdfTestFlow::analyze`] / [`HdfTestFlow::schedule`] for the full
    /// picture.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Runs the transition-fault ATPG, optionally capped at
    /// `pattern_budget` patterns (the paper's `|P|` per circuit).
    ///
    /// # Panics
    ///
    /// Panics if generation fails, which is only reachable with an armed
    /// failpoint schedule or an already-cancelled token; use
    /// [`HdfTestFlow::try_generate_patterns`] in those settings.
    #[must_use]
    pub fn generate_patterns(&self, pattern_budget: Option<usize>) -> TestSet {
        match self.try_generate_patterns(pattern_budget) {
            Ok(set) => set,
            Err(e) => panic!("cannot generate patterns: {e}"),
        }
    }

    /// Fallible, cancellable variant of
    /// [`HdfTestFlow::generate_patterns`]: observes the flow's
    /// cancellation token between PODEM targets and the `atpg_grade` /
    /// `atpg_podem` failpoints.
    ///
    /// # Errors
    ///
    /// * [`FlowError::Cancelled`] when the token trips mid-generation,
    /// * [`FlowError::Atpg`] for injected or contained-panic ATPG
    ///   failures.
    pub fn try_generate_patterns(
        &self,
        pattern_budget: Option<usize>,
    ) -> Result<TestSet, FlowError> {
        let atpg = AtpgConfig {
            seed: self.config.seed,
            max_patterns: pattern_budget,
            threads: self.config.threads,
            ..AtpgConfig::default()
        };
        let result = try_generate_with_metrics(
            self.circuit,
            &atpg,
            Some(&self.metrics.atpg),
            self.cancel.as_ref(),
        )
        .map_err(|e| match e {
            AtpgError::Cancelled { phase } => {
                self.record_cancel_latency();
                FlowError::Cancelled { phase }
            }
            other => {
                if matches!(other, AtpgError::WorkerPanicked { .. }) {
                    self.metrics.robustness.worker_panics_contained.incr();
                }
                FlowError::Atpg(other)
            }
        })?;
        Ok(result.test_set)
    }

    /// Like [`HdfTestFlow::generate_patterns`], but under the
    /// launch-on-capture (broadside) constraint: every pattern's capture
    /// vector is the functional next state of its launch vector. More
    /// realistic for standard scan chains, at the cost of some coverage.
    #[must_use]
    pub fn generate_patterns_broadside(&self, pattern_budget: Option<usize>) -> TestSet {
        let atpg = AtpgConfig {
            seed: self.config.seed,
            max_patterns: pattern_budget,
            threads: self.config.threads,
            ..AtpgConfig::default()
        };
        fastmon_atpg::broadside::generate_broadside(self.circuit, &atpg).test_set
    }

    /// Steps ②–⑤: timing-accurate fault simulation of the candidates,
    /// detection-range construction, monitor analysis and target-set
    /// extraction — [`HdfTestFlow::run`] with no options.
    ///
    /// # Panics
    ///
    /// Panics on any campaign error: a tripped cancellation token or an
    /// armed failpoint. Use [`HdfTestFlow::try_analyze`] or
    /// [`HdfTestFlow::analyze_resumable`] under injection or deadlines.
    #[must_use]
    pub fn analyze(&self, patterns: &TestSet) -> DetectionAnalysis {
        self.run(patterns, Campaign::default())
            .unwrap_or_else(|e| panic!("cannot analyze: {e}"))
    }

    /// Fallible, cancellable variant of [`HdfTestFlow::analyze`] without
    /// checkpoint persistence — [`HdfTestFlow::run`] with no options.
    ///
    /// # Errors
    ///
    /// Same as [`HdfTestFlow::run`].
    pub fn try_analyze(&self, patterns: &TestSet) -> Result<DetectionAnalysis, FlowError> {
        self.run(patterns, Campaign::default())
    }

    /// Crash-safe variant of [`HdfTestFlow::analyze`]: the campaign
    /// checkpoints into `store` after every pattern band and resumes from
    /// a valid checkpoint of the same campaign (see
    /// [`Campaign::checkpoint`]). The finished checkpoint is removed.
    ///
    /// # Errors
    ///
    /// Same as [`HdfTestFlow::run`].
    pub fn analyze_resumable(
        &self,
        patterns: &TestSet,
        store: &CheckpointStore,
    ) -> Result<DetectionAnalysis, FlowError> {
        let campaign = Campaign {
            checkpoint: Some(store),
            ..Campaign::default()
        };
        self.run(patterns, campaign).inspect(|_| store.discard())
    }

    /// The campaign (steps ②–⑤) over `patterns`, shaped by `campaign`:
    /// which slice of the candidates to simulate, where to checkpoint and
    /// who observes progress. Every other entry point is a call of this
    /// one.
    ///
    /// The campaign observes the flow's cancellation token at every
    /// pattern-band boundary (after the band's checkpoint) and the
    /// `campaign_band` / `sim_worker` failpoints; worker panics are
    /// contained into typed errors. Results are bit-identical for any
    /// thread count, shard partition and resume point.
    ///
    /// # Errors
    ///
    /// * [`FlowError::Cancelled`] when the token trips between bands,
    /// * [`FlowError::Injected`] when the `campaign_band` failpoint fires,
    /// * [`FlowError::WorkerPanic`] when a simulation worker panics,
    /// * [`FlowError::Checkpoint`] when a checkpoint cannot be *written*
    ///   (progress cannot be made durable).
    ///
    /// # Panics
    ///
    /// Panics if [`Campaign::shard`] names a shard index that is not below
    /// its count.
    pub fn run(
        &self,
        patterns: &TestSet,
        campaign: Campaign<'_>,
    ) -> Result<DetectionAnalysis, FlowError> {
        let Campaign {
            shard,
            checkpoint,
            mut observe,
        } = campaign;
        let mut notify = |event| {
            if let Some(observe) = observe.as_mut() {
                observe(event);
            }
        };
        let faults = match shard {
            Some(spec) => self
                .candidate_faults
                .slice(spec.range(self.candidate_faults.len())),
            None => self.candidate_faults.clone(),
        };
        let total_patterns = patterns.len();
        let mut progress = CampaignCheckpoint {
            fingerprint: 0,
            next_pattern: 0,
            per_pattern: DetectionTable::new(faults.len()),
        };
        if let Some(store) = checkpoint {
            let campaign = self.campaign_fingerprint(patterns);
            progress.fingerprint = shard.map_or(campaign, |spec| spec.fingerprint(campaign));
            if let Some(cp) = self.resumable_checkpoint(store, &progress, total_patterns) {
                let prev_run = store.predecessor_run();
                if let Some(prev) = prev_run {
                    fastmon_obs::emit_chain(prev);
                }
                notify(CampaignProgress::Resumed {
                    next_pattern: cp.next_pattern,
                    total_patterns,
                    prev_run,
                });
                progress = cp;
            }
        }
        let ckpt = &self.metrics.checkpoint;
        DetectionAnalysis::compute_with_progress(
            self.circuit,
            &self.annot,
            &self.clock,
            &self.configs,
            &self.placement,
            faults,
            patterns,
            self.config.glitch_threshold,
            self.config.effective_threads(),
            &self.metrics,
            self.cancel.as_ref(),
            progress,
            &mut |cp| {
                if let Some(store) = checkpoint {
                    let t_save = std::time::Instant::now();
                    let bytes = {
                        let _span = fastmon_obs::span!("checkpoint_save");
                        checkpoint::write_with_retry(store.path(), &self.metrics, || {
                            store.save(cp)
                        })?
                    };
                    let save_ns = elapsed_ns(t_save);
                    ckpt.saves.incr();
                    ckpt.save_ns.add(save_ns);
                    ckpt.save_bytes.add(bytes);
                    self.metrics.latency.checkpoint_save.record(save_ns);
                }
                notify(CampaignProgress::BandCheckpointed {
                    next_pattern: cp.next_pattern,
                    total_patterns,
                });
                Ok(())
            },
        )
        .inspect_err(|e| {
            if matches!(e, FlowError::Cancelled { .. }) {
                self.record_cancel_latency();
            }
        })
    }

    /// The checkpoint in `store` when it continues the campaign `fresh`
    /// starts (same fingerprint and fault count, at most
    /// `total_patterns` simulated). Anything else — a missing, corrupt,
    /// version-mismatched or foreign file — is never fatal: a warning is
    /// logged to stderr and the campaign restarts cleanly.
    fn resumable_checkpoint(
        &self,
        store: &CheckpointStore,
        fresh: &CampaignCheckpoint,
        total_patterns: usize,
    ) -> Option<CampaignCheckpoint> {
        let ckpt = &self.metrics.checkpoint;
        let t_load = std::time::Instant::now();
        let loaded = {
            let _span = fastmon_obs::span!("checkpoint_load");
            store.load()
        };
        if !matches!(loaded, Err(CheckpointError::Missing)) {
            let load_ns = elapsed_ns(t_load);
            ckpt.loads.incr();
            ckpt.load_ns.add(load_ns);
            self.metrics.latency.checkpoint_load.record(load_ns);
        }
        match loaded {
            Ok(cp)
                if cp.fingerprint == fresh.fingerprint
                    && cp.per_pattern.num_faults() == fresh.per_pattern.num_faults()
                    && cp.next_pattern <= total_patterns =>
            {
                ckpt.resumes.incr();
                Some(cp)
            }
            Ok(cp) => {
                eprintln!(
                    "warning: ignoring checkpoint {}: {} (restarting from scratch)",
                    store.path().display(),
                    CheckpointError::FingerprintMismatch {
                        got: cp.fingerprint,
                        expected: fresh.fingerprint,
                    },
                );
                None
            }
            Err(CheckpointError::Missing) => None,
            Err(e) => {
                eprintln!(
                    "warning: ignoring unreadable checkpoint {}: {e} (restarting from scratch)",
                    store.path().display(),
                );
                None
            }
        }
    }

    /// Fingerprint of everything the raw campaign results depend on:
    /// circuit, annotated delays, candidate faults, patterns, nominal
    /// clock and glitch threshold. Thread count and band size are
    /// deliberately excluded — the campaign merges per-pattern results in
    /// a fixed pattern order, so they cannot change the outcome.
    ///
    /// The daemon keys per-job checkpoint directories
    /// ([`crate::CheckpointDir`]) and landed results by this value: a
    /// resubmitted identical job resumes instead of restarting.
    #[must_use]
    pub fn campaign_fingerprint(&self, patterns: &TestSet) -> u64 {
        let mut hash = Fnv1a::new();
        hash.put(self.circuit.name().as_bytes());
        hash.put_u64(self.circuit.len() as u64);
        for (id, _) in self.circuit.iter() {
            hash.put_f64(self.annot.rise(id));
            hash.put_f64(self.annot.fall(id));
            hash.put_f64(self.annot.sigma(id));
        }
        hash.put_u64(self.candidate_faults.len() as u64);
        for (_, fault) in self.candidate_faults.iter() {
            let (tag, node, pin) = match fault.site {
                PinRef::Output(n) => (0u8, n.index() as u64, 0u64),
                PinRef::Input(n, k) => (1u8, n.index() as u64, u64::from(k)),
            };
            hash.put(&[tag]);
            hash.put_u64(node);
            hash.put_u64(pin);
            hash.put(&[match fault.polarity {
                Polarity::SlowToRise => 0,
                Polarity::SlowToFall => 1,
            }]);
            hash.put_f64(fault.delta);
        }
        hash.put_u64(patterns.len() as u64);
        for pattern in patterns.iter() {
            for &b in pattern.launch.iter().chain(pattern.capture.iter()) {
                hash.put(&[u8::from(b)]);
            }
        }
        hash.put_f64(self.clock.t_nom);
        hash.put_f64(self.config.glitch_threshold);
        hash.finish()
    }

    /// Step ⑥ (full coverage): two-step schedule optimization with the
    /// chosen solver.
    ///
    /// # Panics
    ///
    /// Panics if the covering instance is infeasible (cannot happen for
    /// analyses produced by this flow). Use [`HdfTestFlow::try_schedule`]
    /// for a non-panicking variant.
    #[must_use]
    pub fn schedule(&self, analysis: &DetectionAnalysis, solver: Solver) -> TestSchedule {
        match self.try_schedule(analysis, solver) {
            Ok(schedule) => schedule,
            Err(e) => panic!("cannot build schedule: {e}"),
        }
    }

    /// Fallible variant of [`HdfTestFlow::schedule`].
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InfeasibleCover`] when some target fault is
    /// covered by no candidate frequency.
    pub fn try_schedule(
        &self,
        analysis: &DetectionAnalysis,
        solver: Solver,
    ) -> Result<TestSchedule, ScheduleError> {
        self.schedule_with_waivers(analysis, solver, 0)
    }

    /// Step ⑥ with a coverage target `cov ∈ (0, 1]` of the target faults
    /// (Table III): the frequency selection may leave
    /// `⌊(1 − cov)·|Φ_tar|⌋` faults uncovered.
    ///
    /// # Panics
    ///
    /// Panics if `cov` is outside `(0, 1]`. Use
    /// [`HdfTestFlow::try_schedule_with_coverage`] to handle untrusted
    /// coverage targets without panicking.
    #[must_use]
    pub fn schedule_with_coverage(
        &self,
        analysis: &DetectionAnalysis,
        solver: Solver,
        cov: f64,
    ) -> TestSchedule {
        match self.try_schedule_with_coverage(analysis, solver, cov) {
            Ok(schedule) => schedule,
            Err(e) => panic!("cannot build schedule: {e}"),
        }
    }

    /// Fallible variant of [`HdfTestFlow::schedule_with_coverage`].
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::InvalidCoverage`] when `cov` lies outside
    ///   `(0, 1]` (including NaN).
    /// * [`ScheduleError::InfeasibleCover`] when the covering instance is
    ///   infeasible.
    pub fn try_schedule_with_coverage(
        &self,
        analysis: &DetectionAnalysis,
        solver: Solver,
        cov: f64,
    ) -> Result<TestSchedule, ScheduleError> {
        if !(cov > 0.0 && cov <= 1.0) {
            return Err(ScheduleError::InvalidCoverage { cov });
        }
        let waivers = ((1.0 - cov) * analysis.targets.len() as f64).floor() as usize;
        self.schedule_with_waivers(analysis, solver, waivers)
    }

    fn schedule_with_waivers(
        &self,
        analysis: &DetectionAnalysis,
        solver: Solver,
        waivers: usize,
    ) -> Result<TestSchedule, ScheduleError> {
        let ctx = ScheduleContext {
            analysis,
            placement: &self.placement,
            configs: &self.configs,
            clock: &self.clock,
            deadline: self.config.ilp_deadline,
            metrics: Some(&self.metrics.ilp),
            cancel: self.cancel.as_ref(),
        };
        let selection = select_frequencies(&ctx, solver, waivers)?;
        Ok(select_patterns(&ctx, solver, selection))
    }

    /// Only step-1 frequency selection (used by the Table II/III
    /// comparisons).
    ///
    /// # Panics
    ///
    /// Panics if the covering instance is infeasible (cannot happen for
    /// analyses produced by this flow).
    #[must_use]
    pub fn select_frequencies_only(
        &self,
        analysis: &DetectionAnalysis,
        solver: Solver,
        waivers: usize,
    ) -> FrequencySelection {
        let ctx = ScheduleContext {
            analysis,
            placement: &self.placement,
            configs: &self.configs,
            clock: &self.clock,
            deadline: self.config.ilp_deadline,
            metrics: Some(&self.metrics.ilp),
            cancel: self.cancel.as_ref(),
        };
        match select_frequencies(&ctx, solver, waivers) {
            Ok(selection) => selection,
            Err(e) => panic!("cannot select frequencies: {e}"),
        }
    }

    /// Fig. 3: HDF coverage of conventional FAST vs monitor-assisted FAST
    /// as a function of the `f_max/f_nom` ratio.
    ///
    /// The denominator is the *hidden* fault set: simulated candidates not
    /// detectable at nominal speed. The monitor curve uses the largest
    /// delay element (`t_nom/3`), as in the paper's figure.
    #[must_use]
    pub fn coverage_vs_fmax(
        &self,
        analysis: &DetectionAnalysis,
        factors: &[f64],
    ) -> Vec<crate::report::Fig3Point> {
        crate::report::fig3_series(self, analysis, factors)
    }
}

/// Saturating nanosecond conversion for latency counters.
fn elapsed_ns(since: std::time::Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmon_netlist::library;

    #[test]
    fn prepare_s27() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let counts = flow.counts();
        assert_eq!(counts.initial, 56);
        assert_eq!(
            counts.initial,
            counts.at_speed_detectable + counts.timing_redundant + counts.candidates
        );
        assert_eq!(counts.sampled, counts.candidates);
        assert_eq!(flow.placement().count(), 1);
        assert!(flow.clock().t_nom > flow.clock().t_min);
    }

    #[test]
    fn fault_sampling_caps_population() {
        let c = library::s27();
        let config = FlowConfig {
            max_faults: Some(5),
            ..FlowConfig::default()
        };
        let flow = HdfTestFlow::prepare(&c, &config);
        assert!(flow.counts().sampled <= 5);
        assert!(flow.counts().candidates >= flow.counts().sampled);
    }

    #[test]
    fn analyze_and_schedule_s27() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let patterns = flow.generate_patterns(None);
        assert!(!patterns.is_empty());
        let analysis = flow.analyze(&patterns);
        assert_eq!(analysis.num_faults(), flow.counts().sampled);
        // monitors never hurt
        assert!(analysis.detected_prop() >= analysis.detected_conv());
        for solver in [Solver::Conventional, Solver::Greedy, Solver::Ilp] {
            let schedule = flow.schedule(&analysis, solver);
            if solver != Solver::Conventional {
                assert!(
                    schedule.covers_all_targets(&analysis),
                    "{solver:?} must cover all targets"
                );
            }
            // every entry application list is non-empty
            for e in &schedule.entries {
                assert!(!e.applications.is_empty());
                assert!(!e.faults.is_empty());
            }
        }
    }

    #[test]
    fn scoped_metrics_cover_every_phase() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let m = flow.metrics();
        assert_eq!(m.sta.analyses.get(), 1);
        assert_eq!(m.sta.nodes_levelized.get(), c.len() as u64);
        let patterns = flow.generate_patterns(None);
        assert!(m.atpg.patterns_emitted.get() >= patterns.len() as u64);
        assert!(m.atpg.faults_detected.get() > 0);
        let analysis = flow.analyze(&patterns);
        assert!(m.sim.cones_simulated.get() + m.sim.cones_masked.get() > 0);
        let _ = flow.schedule(&analysis, Solver::Ilp);
        // stage a + one stage-b solve per scheduled frequency; tiny
        // instances may be fully solved by preprocessing (zero B&B nodes),
        // so only the solve count is guaranteed
        assert!(m.ilp.solves.get() >= 2);
        // a second flow starts from a clean slate
        let other = HdfTestFlow::prepare(&c, &FlowConfig::default());
        assert_eq!(other.metrics().sim.cones_simulated.get(), 0);
        assert_eq!(other.metrics().ilp.solves.get(), 0);
    }

    #[test]
    fn resumable_analyze_records_checkpoint_io() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let patterns = flow.generate_patterns(Some(6));
        let dir = std::env::temp_dir().join(format!(
            "fastmon-ckpt-metrics-{}-{}",
            std::process::id(),
            fastmon_obs::run_id(),
        ));
        let store = CheckpointStore::new(dir.join("s27.ckpt"));
        let analysis = flow.analyze_resumable(&patterns, &store).unwrap();
        assert_eq!(analysis.num_patterns, patterns.len());
        let m = &flow.metrics().checkpoint;
        assert!(m.saves.get() > 0, "every band persists a checkpoint");
        assert!(m.save_bytes.get() > 0);
        assert_eq!(m.resumes.get(), 0, "fresh run resumes nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ilp_never_needs_more_frequencies_than_greedy() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let patterns = flow.generate_patterns(None);
        let analysis = flow.analyze(&patterns);
        let greedy_sel = flow.select_frequencies_only(&analysis, Solver::Greedy, 0);
        let ilp_sel = flow.select_frequencies_only(&analysis, Solver::Ilp, 0);
        assert!(ilp_sel.periods.len() <= greedy_sel.periods.len());
        assert!(ilp_sel.optimal);
    }

    #[test]
    fn coverage_targets_monotone() {
        let c = library::s27();
        let flow = HdfTestFlow::prepare(&c, &FlowConfig::default());
        let patterns = flow.generate_patterns(None);
        let analysis = flow.analyze(&patterns);
        let mut last = usize::MAX;
        for cov in [1.0, 0.99, 0.9, 0.7] {
            let s = flow.schedule_with_coverage(&analysis, Solver::Ilp, cov);
            assert!(s.num_frequencies() <= last);
            last = s.num_frequencies();
        }
    }
}
