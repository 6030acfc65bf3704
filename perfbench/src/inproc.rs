//! The three workloads whose flow runs inside the benchmark process:
//! `paper-flow-s9234`, `campaign-p89k` and `shardsup-s9234`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fastmon_atpg::{transition_faults, DetectionMatrix, FaultCones, TestPattern, TestSet};
use fastmon_bench::shardsup::supervise;
use fastmon_bench::ExperimentConfig;
use fastmon_core::{fnv1a, CheckpointStore, FlowConfig, HdfTestFlow, Solver, SupervisorEvent};
use fastmon_netlist::generate::CircuitProfile;
use fastmon_netlist::Circuit;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::report::{json_fp, json_number, json_str};
use crate::{
    medians, peak_rss_mib, per_layer, ratio, registry_sample, rounds, secs, stats, Outcome,
    RunOptions, Sample, Scratch, Size, Workload,
};

/// Shards of the supervised campaign.
pub const SHARDS: usize = 4;
/// Concurrent shard worker processes.
pub const SHARD_JOBS: usize = 2;
/// Times set-up (generation + prepare, or daemon start) runs per round.
pub const SETUP_REPEATS: usize = 5;

/// Seed of every benchmark input: the pinned stand-in circuits, their
/// flows, the imported test set and the daemon's job mix.
///
/// The workload seed is recorded but varies no input. Measured on a
/// 2-core host, a seed-drawn circuit moved wall time by ±20 % between
/// seeds, a seed-drawn flow seed or imported test set moved it by 10–20 %
/// and |F| by up to 20 %, and a seed-drawn submission order of the daemon
/// jobs moved their tail latency by 26 %: beyond any bound a regression
/// check can use.
pub const PINNED_SEED: u64 = 1;

/// The pinned configuration of an in-process workload.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Paper-suite profile name.
    pub circuit: &'static str,
    /// Scale applied to the profile.
    pub scale: f64,
    /// Candidate-fault sample cap.
    pub max_faults: usize,
}

impl Setup {
    /// The configuration of `workload` at `size`.
    ///
    /// # Panics
    ///
    /// Panics for the daemon workload, which has no in-process flow.
    #[must_use]
    pub fn of(workload: Workload, size: Size) -> Setup {
        let (circuit, scale, max_faults) = match (workload, size) {
            (Workload::PaperFlow, Size::Full) => ("s9234", 1.0, 8_000),
            (Workload::Campaign, Size::Full) => ("p89k", 0.5, 8_000),
            (Workload::Shardsup, Size::Full) => ("s9234", 0.5, 8_000),
            (Workload::PaperFlow | Workload::Shardsup, Size::Tiny) => ("s9234", 0.05, 200),
            (Workload::Campaign, Size::Tiny) => ("p89k", 0.01, 200),
            (Workload::Daemon, _) => panic!("the daemon workload has no in-process flow"),
        };
        Setup {
            circuit,
            scale,
            max_faults,
        }
    }

    /// The scaled circuit profile.
    ///
    /// # Panics
    ///
    /// Panics if the profile name is not in the paper suite.
    #[must_use]
    pub fn profile(&self) -> CircuitProfile {
        CircuitProfile::named(self.circuit)
            .expect("pinned profile names are in the paper suite")
            .scaled(self.scale)
    }

    /// The experiment configuration the shard supervisor pins for its
    /// workers (seed, fault cap, ILP deadline); the parent flow is built
    /// from the same values so the workers' result files validate.
    #[must_use]
    pub fn experiment(&self) -> ExperimentConfig {
        ExperimentConfig {
            target_gates: self.profile().gates,
            max_faults: self.max_faults,
            circuits: vec![self.circuit.to_owned()],
            seed: PINNED_SEED,
            ilp_deadline: Duration::from_secs(20),
            shards: SHARDS,
            shard_procs: true,
        }
    }

    /// The flow configuration: the experiment's, with the thread count
    /// set explicitly.
    #[must_use]
    pub fn flow_config(&self) -> FlowConfig {
        FlowConfig {
            threads: crate::FLOW_THREADS,
            ..self.experiment().flow_config()
        }
    }
}

/// The pinned `campaign-p89k` result fingerprint at each size.
#[must_use]
pub fn pinned_campaign_fingerprint(size: Size) -> u64 {
    match size {
        Size::Full => 0x5d40_febd_408c_6ecd,
        Size::Tiny => 0x2468_8117_5611_cf82,
    }
}

/// Patterns in the imported test set of `campaign-p89k` at full size
/// (the p89k@0.5 pattern budget).
#[must_use]
pub fn imported_patterns(size: Size) -> usize {
    match size {
        Size::Full => 702,
        Size::Tiny => 24,
    }
}

/// The externally generated test set `campaign-p89k` imports: `n`
/// random two-vector patterns over [`TestSet::source_order`], drawn from
/// `seed`.
#[must_use]
pub fn imported_test_set(circuit: &Circuit, n: usize, seed: u64) -> TestSet {
    let width = TestSet::source_order(circuit).len();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x001a_90a7_e5e7);
    let mut set = TestSet::new(circuit);
    for _ in 0..n {
        let launch: Vec<bool> = (0..width).map(|_| rng.gen()).collect();
        let capture: Vec<bool> = (0..width).map(|_| rng.gen()).collect();
        set.push(TestPattern::new(launch, capture));
    }
    set
}

/// FNV-1a digest of a test set's bits, in pattern order.
#[must_use]
pub fn pattern_fingerprint(set: &TestSet) -> u64 {
    let mut bytes = Vec::new();
    for p in set.iter() {
        bytes.extend(
            p.launch
                .iter()
                .chain(p.capture.iter())
                .map(|&b| u8::from(b)),
        );
        bytes.push(b'|');
    }
    fnv1a(&bytes)
}

/// Transition-fault coverage of `set` on `circuit`.
#[must_use]
pub fn tf_coverage(circuit: &Circuit, set: &TestSet) -> f64 {
    let faults = transition_faults(circuit);
    let cones = FaultCones::build(circuit, &faults);
    DetectionMatrix::build_with(circuit, set, &faults, &cones, crate::FLOW_THREADS, None).coverage()
}

/// Polls the peak resident set (`VmHWM`) of shard worker processes while
/// they run. `getrusage(RUSAGE_CHILDREN)` cannot be used: it charges each
/// child with the parent's resident set at fork time.
#[derive(Debug, Default)]
struct RssSampler {
    pids: Mutex<Vec<u32>>,
    peak_kib: AtomicU64,
    stopped: AtomicBool,
}

impl RssSampler {
    /// Samples `pid` now (it has already exec'd) and on every poll.
    fn watch(&self, pid: u32) {
        self.sample(pid);
        self.pids
            .lock()
            .expect("the sampler never panics holding its lock")
            .push(pid);
    }

    fn sample(&self, pid: u32) {
        let hwm = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .ok()
            .and_then(|status| {
                status
                    .lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            });
        if let Some(kib) = hwm {
            self.peak_kib.fetch_max(kib, Relaxed);
        }
    }

    fn stop(&self) {
        self.stopped.store(true, Relaxed);
    }

    fn peak_mib(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let kib = self.peak_kib.load(Relaxed) as f64;
        kib / 1024.0
    }

    fn poll_until_stopped(&self) {
        while !self.stopped.load(Relaxed) {
            let pids = self
                .pids
                .lock()
                .expect("the sampler never panics holding its lock")
                .clone();
            for pid in pids {
                self.sample(pid);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// What the first round learns that later rounds are checked against.
#[derive(Debug, Default)]
struct Reference {
    patterns_fp: Option<u64>,
    result_fp: Option<u64>,
    /// Seconds of the serial in-process analyze (shardsup only).
    serial_analyze_s: f64,
}

/// The paper's outputs, from the first round.
#[derive(Debug)]
struct PaperOutputs {
    coverage: f64,
    prop: usize,
    frequencies: usize,
    applications: usize,
}

/// Runs `paper-flow-s9234`, `campaign-p89k` or `shardsup-s9234`.
#[must_use]
pub fn run(workload: Workload, opts: &RunOptions) -> Outcome {
    let setup = Setup::of(workload, opts.size);
    let profile = setup.profile();
    let config = setup.flow_config();
    let experiment = setup.experiment();
    if workload == Workload::Shardsup {
        // `supervise` reads its concurrency from the environment.
        std::env::set_var("FASTMON_SHARD_JOBS", SHARD_JOBS.to_string());
    }
    let budget = match workload {
        Workload::Campaign => imported_patterns(opts.size),
        _ => profile.pattern_budget,
    };

    let mut out = Outcome::default();
    let mut reference = Reference::default();
    let mut paper: Option<PaperOutputs> = None;
    let mut identity: Vec<(String, String)> = Vec::new();
    // VmHWM at the end of the first round's timed section: one set-up and
    // one flow run, before the benchmark's own checks allocate anything.
    let mut peak_rss = 0.0;

    let (plain, traced, spans) = rounds(opts, |i| {
        let mut s = Sample::new();
        let scratch = match Scratch::new(&opts.scratch_root, workload.name()) {
            Ok(d) => d,
            Err(e) => {
                out.check(false, || format!("round {i}: scratch directory: {e}"));
                return s;
            }
        };
        // Set-up runs SETUP_REPEATS times; the last circuit and flow are
        // kept, and the median of all repeats is reported.
        let (mut generate_s, mut prepare_s) = (Vec::new(), Vec::new());
        for _ in 1..SETUP_REPEATS {
            let t0 = Instant::now();
            if let Ok(circuit) = profile.generate(PINNED_SEED) {
                generate_s.push(secs(t0));
                let t1 = Instant::now();
                let _ = HdfTestFlow::try_prepare(&circuit, &config);
                prepare_s.push(secs(t1));
            }
        }
        let t0 = Instant::now();
        let circuit = match profile.generate(PINNED_SEED) {
            Ok(c) => c,
            Err(e) => {
                out.check(false, || format!("round {i}: generate: {e}"));
                return s;
            }
        };
        generate_s.push(secs(t0));
        let t1 = Instant::now();
        let flow = match HdfTestFlow::try_prepare(&circuit, &config) {
            Ok(f) => f,
            Err(e) => {
                out.check(false, || format!("round {i}: prepare: {e}"));
                return s;
            }
        };
        prepare_s.push(secs(t1));
        let setups: Vec<f64> = generate_s
            .iter()
            .zip(&prepare_s)
            .map(|(g, p)| g + p)
            .collect();
        s.insert("setup_s".into(), stats::median(&setups));
        s.insert("netlist.generate_s".into(), stats::median(&generate_s));
        s.insert("core.prepare_s".into(), stats::median(&prepare_s));
        #[allow(clippy::cast_precision_loss)]
        {
            s.insert("faults.candidates".into(), flow.counts().candidates as f64);
            s.insert("faults.sampled".into(), flow.counts().sampled as f64);
        }
        let imported = (workload == Workload::Campaign)
            .then(|| imported_test_set(&circuit, budget, PINNED_SEED));

        // ---- timed section ----
        let t_wall = Instant::now();
        let mut atpg_s = 0.0;
        let patterns = match imported {
            Some(set) => set,
            None => match flow.try_generate_patterns(Some(budget)) {
                Ok(p) => {
                    atpg_s = secs(t_wall);
                    p
                }
                Err(e) => {
                    out.check(false, || format!("round {i}: ATPG: {e}"));
                    return s;
                }
            },
        };
        let t_an = Instant::now();
        let analysis = if workload == Workload::Shardsup {
            let mut spawned: BTreeMap<usize, Instant> = BTreeMap::new();
            let mut ready = Vec::new();
            let sampler = RssSampler::default();
            let mut on_event = |e: &SupervisorEvent| match e {
                SupervisorEvent::Spawned { shard, pid, .. } => {
                    spawned.insert(*shard, Instant::now());
                    sampler.watch(*pid);
                }
                SupervisorEvent::Heartbeat { shard, .. } => {
                    if let Some(t) = spawned.remove(shard) {
                        ready.push(secs(t));
                    }
                }
                _ => {}
            };
            let run = std::thread::scope(|scope| {
                scope.spawn(|| sampler.poll_until_stopped());
                let run = supervise(
                    &flow,
                    &patterns,
                    &experiment,
                    setup.circuit,
                    setup.scale,
                    &scratch.path().join("shards"),
                    opts.worker_bin.as_deref(),
                    &mut on_event,
                );
                sampler.stop();
                run
            });
            s.insert("worker_peak_rss_mib".into(), sampler.peak_mib());
            s.insert("shardsup.worker_ready_s".into(), stats::median(&ready));
            run.map(|run| run.analysis).map_err(|e| e.to_string())
        } else {
            let store = CheckpointStore::new(scratch.path().join("campaign.fmck"));
            flow.analyze_resumable(&patterns, &store)
                .map_err(|e| e.to_string())
        };
        let analyze_call_s = secs(t_an);
        let analysis = match analysis {
            Ok(a) => a,
            Err(e) => {
                out.check(false, || format!("round {i}: campaign: {e}"));
                return s;
            }
        };
        let mut schedule = None;
        let mut ilp_s = 0.0;
        if workload == Workload::PaperFlow {
            let t = Instant::now();
            match flow.try_schedule(&analysis, Solver::Ilp) {
                Ok(sch) => schedule = Some(sch),
                Err(e) => {
                    out.check(false, || format!("round {i}: schedule: {e}"));
                    return s;
                }
            }
            ilp_s = secs(t);
        }
        let wall_s = secs(t_wall);
        // ---- end of timed section ----
        if i == 0 {
            peak_rss = peak_rss_mib();
        }

        let m = flow.metrics();
        #[allow(clippy::cast_precision_loss)]
        let (pairs, ckpt_s) = (
            (analysis.num_faults() * patterns.len()) as f64,
            (m.checkpoint.save_ns.get() + m.checkpoint.load_ns.get()) as f64 / 1e9,
        );
        // The supervised campaign ran in the workers: the parent's
        // analyze time is the whole supervised run, not simulation.
        let sim_s = if workload == Workload::Shardsup {
            s.insert("shardsup.supervise_s".into(), analyze_call_s);
            0.0
        } else {
            (analyze_call_s - ckpt_s).max(0.0)
        };
        registry_sample(&mut s, m, 1.0, pairs, sim_s);
        s.insert("wall_s".into(), wall_s);
        s.insert("atpg.generate_s".into(), atpg_s);
        s.insert("ilp.schedule_s".into(), ilp_s);
        let layers: f64 = [
            "atpg.generate_s",
            "sim.analyze_s",
            "checkpoint.save_s",
            "checkpoint.load_s",
            "ilp.schedule_s",
            "shardsup.supervise_s",
        ]
        .iter()
        .filter_map(|k| s.get(*k))
        .sum();
        s.insert(
            "obs.unattributed_pct".into(),
            100.0 * ratio(wall_s - layers, wall_s),
        );

        // ---- correctness gate (outside the timed section) ----
        let patterns_fp = pattern_fingerprint(&patterns);
        let result_fp = analysis.result_fingerprint();
        if reference.result_fp.is_none() {
            if workload == Workload::Shardsup {
                let t = Instant::now();
                match flow.try_analyze(&patterns) {
                    Ok(serial) => reference.result_fp = Some(serial.result_fingerprint()),
                    Err(e) => out.fail(format!("round {i}: serial reference analyze: {e}")),
                }
                reference.serial_analyze_s = secs(t);
            } else {
                reference.result_fp = Some(result_fp);
            }
            reference.patterns_fp = Some(patterns_fp);
        }
        if workload == Workload::Shardsup {
            s.insert(
                "shardsup.boundary_overhead_s".into(),
                analyze_call_s - reference.serial_analyze_s,
            );
        }
        let mut problems = Vec::new();
        if m.checkpoint.resumes.get() != 0 {
            problems.push("resumed a checkpoint".to_owned());
        }
        if reference.patterns_fp != Some(patterns_fp) {
            problems.push(format!(
                "pattern set {patterns_fp:016x} differs from round 0"
            ));
        }
        if reference.result_fp != Some(result_fp) {
            problems.push(format!(
                "result fingerprint {result_fp:016x} differs from the reference {}",
                reference
                    .result_fp
                    .map_or("none".into(), |r| format!("{r:016x}"))
            ));
        }
        if analysis.detected_prop() < analysis.detected_conv() {
            problems.push("monitors lost detections (prop < conv)".into());
        }
        if let Some(sch) = &schedule {
            if !sch.covers_all_targets(&analysis) {
                problems.push("schedule misses a target fault".into());
            }
            if !sch.selection.optimal {
                problems.push("ILP not proven optimal".into());
            }
            if m.ilp.deadline_hits.get() != 0 {
                problems.push("ILP hit its deadline".into());
            }
        }
        let pinned = pinned_campaign_fingerprint(opts.size);
        if workload == Workload::Campaign && result_fp != pinned {
            problems.push(format!(
                "result fingerprint {result_fp:016x} differs from the pinned {pinned:016x}"
            ));
        }
        out.check(problems.is_empty(), || {
            format!("round {i}: {}", problems.join("; "))
        });

        if paper.is_none() {
            // Paper outputs that need work outside the timed calls: TF
            // coverage and, where the workload does not schedule, a
            // schedule of the analysis.
            let solver = if workload == Workload::Campaign {
                // the p89k ILP is deadline-bound; greedy is host-independent
                Solver::Greedy
            } else {
                Solver::Ilp
            };
            let sch = match schedule.take() {
                Some(sch) => Ok(sch),
                None => flow.try_schedule(&analysis, solver),
            };
            match sch {
                Ok(sch) => {
                    paper = Some(PaperOutputs {
                        coverage: tf_coverage(&circuit, &patterns),
                        prop: analysis.detected_prop(),
                        frequencies: sch.num_frequencies(),
                        applications: sch.num_applications(),
                    });
                    identity = vec![
                        (
                            "gates".into(),
                            circuit.combinational_nodes().count().to_string(),
                        ),
                        ("faults_sampled".into(), flow.counts().sampled.to_string()),
                        ("patterns".into(), patterns.len().to_string()),
                        ("pattern_fingerprint".into(), json_fp(patterns_fp)),
                        ("result_fingerprint".into(), json_fp(result_fp)),
                        ("schedule_solver".into(), json_str(&format!("{solver:?}"))),
                    ];
                }
                Err(e) => out.fail(format!("round {i}: schedule of the first round: {e}")),
            }
        }
        s
    });

    let med = medians(&plain);
    let get = |k: &str| med.get(k).copied().unwrap_or(0.0);
    let walls: Vec<f64> = plain
        .iter()
        .filter_map(|s| s.get("wall_s").copied())
        .collect();
    out.e2e("setup_s", get("setup_s"), "s");
    out.e2e("wall_s", get("wall_s"), "s");
    out.e2e("peak_rss_mib", peak_rss, "MiB");
    // an in-process flow is its own worker
    let worker_rss = if workload == Workload::Shardsup {
        get("worker_peak_rss_mib")
    } else {
        peak_rss
    };
    out.e2e("worker_peak_rss_mib", worker_rss, "MiB");
    // one job per round: the flow run of the median round
    out.e2e("jobs_per_s", ratio(1.0, get("wall_s")), "1/s");
    out.e2e("job_latency_p50_s", stats::median(&walls), "s");
    out.e2e("job_latency_tail_s", stats::tail(&walls).0, "s");
    if let Some(p) = &paper {
        out.e2e("atpg_coverage", p.coverage, "ratio");
        #[allow(clippy::cast_precision_loss)]
        {
            out.e2e("hdf_detected_prop", p.prop as f64, "count");
            out.e2e("schedule_frequencies", p.frequencies as f64, "count");
            out.e2e("schedule_applications", p.applications as f64, "count");
        }
    }

    out.note("workload", json_str(workload.name()));
    out.note("seed", opts.seed.to_string());
    out.note("input_seed", PINNED_SEED.to_string());
    out.note("circuit", json_str(setup.circuit));
    out.note("scale", json_number(setup.scale));
    for (k, v) in identity {
        out.note(&k, v);
    }
    out.note("threads", crate::FLOW_THREADS.to_string());
    out.note("rounds", plain.len().to_string());
    if workload == Workload::Shardsup {
        out.note("shards", SHARDS.to_string());
        out.note("shard_jobs", SHARD_JOBS.to_string());
    }
    if opts.trace {
        per_layer(&mut out, &plain, &traced, &spans);
    }
    out
}
