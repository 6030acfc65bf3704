//! The fastmon benchmark: four named workloads that drive the public API
//! from outside and time every call into every layer.
//!
//! | workload | what one round runs |
//! |---|---|
//! | `paper-flow-s9234` | s9234@1.0: generate → prepare → ATPG → checkpointed analyze → ILP schedule |
//! | `campaign-p89k` | p89k@0.5: generate → prepare → checkpointed analyze of an imported 702-pattern set |
//! | `shardsup-s9234` | s9234@0.5: generate → prepare → ATPG → 4 shards × 2 supervised worker processes |
//! | `daemon-small-jobs` | an in-process `fastmond` with 2 workers, 2 closed-loop clients submitting 12 s9234@0.1 jobs |
//!
//! A run repeats rounds until its time budget is spent and reports
//! medians. Every round works in a fresh scratch directory under the
//! current directory and removes it afterwards, so no round can resume
//! an earlier round's checkpoint. With `--trace 1` the run measures
//! untraced rounds, then the same number of rounds with the span
//! profiler on, and reports per-layer metrics instead of end-to-end ones.

#![deny(clippy::unwrap_used)]

pub mod daemon;
pub mod inproc;
pub mod report;
pub mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fastmon_obs::MetricsRegistry;

pub use report::{Metric, Outcome};

/// The benchmark's workloads, by the names `BENCHMARK.json` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's whole flow on the s9234 stand-in at full scale.
    PaperFlow,
    /// A checkpointed fault-simulation campaign of an imported test set on
    /// the p89k stand-in at scale 0.5.
    Campaign,
    /// The s9234@0.5 campaign as supervised shard worker processes.
    Shardsup,
    /// Small profile jobs against an in-process `fastmond`.
    Daemon,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperFlow,
        Workload::Campaign,
        Workload::Shardsup,
        Workload::Daemon,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFlow => "paper-flow-s9234",
            Workload::Campaign => "campaign-p89k",
            Workload::Shardsup => "shardsup-s9234",
            Workload::Daemon => "daemon-small-jobs",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Circuit sizes: the benchmark's pinned configurations, or a tiny
/// stand-in of each for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The configurations `BENCHMARK.json` describes.
    Full,
    /// Seconds-long versions of every workload for tests.
    Tiny,
}

/// How one benchmark run is driven.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds (set-up included); at least one
    /// round always runs.
    pub seconds: f64,
    /// Report per-layer metrics from an untraced and a traced half.
    pub trace: bool,
    /// Circuit sizes.
    pub size: Size,
    /// Where per-round scratch directories are created.
    pub scratch_root: PathBuf,
    /// Executable re-run as a shard worker (`None`: this executable).
    pub worker_bin: Option<PathBuf>,
}

/// Worker threads of every in-process flow (`FlowConfig.threads`): set
/// explicitly, never 0, so the run does not depend on the host's core
/// count.
pub const FLOW_THREADS: usize = 2;

/// One round's measurements, keyed by metric name (times in seconds,
/// counts as plain numbers).
pub type Sample = BTreeMap<String, f64>;

/// A fresh per-round directory, removed (with everything in it) on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<root>/<tag>-<pid>-<n>`, removing any leftover of the
    /// same name first.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn new(root: &Path, tag: &str) -> std::io::Result<Scratch> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seconds since `t`.
#[must_use]
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `num / den`, or 0 when nothing was attempted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// This process's peak resident set so far (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let bytes = fastmon_bench::rss::peak_rss_self_bytes().unwrap_or(0) as f64;
    bytes / (1024.0 * 1024.0)
}

/// Span-profile self times, in seconds, of the spans recorded since the
/// last call on any thread that has flushed or exited.
#[must_use]
pub fn take_span_self_times() -> BTreeMap<String, f64> {
    fastmon_obs::flush();
    let report = fastmon_obs::profile::snapshot();
    fastmon_obs::profile::reset();
    report
        .phases
        .into_iter()
        .map(|(name, agg)| {
            #[allow(clippy::cast_precision_loss)]
            let s = agg.self_ns as f64 / 1e9;
            (name, s)
        })
        .collect()
}

/// Runs one workload.
#[must_use]
pub fn run(workload: Workload, opts: &RunOptions) -> Outcome {
    match workload {
        Workload::PaperFlow | Workload::Campaign | Workload::Shardsup => {
            inproc::run(workload, opts)
        }
        Workload::Daemon => daemon::run(opts),
    }
}

/// Repeats `round` until `opts.seconds` have passed (at least once), then
/// runs as many rounds again with the span profiler on when `opts.trace`
/// is set. Returns the untraced samples, the traced samples and the span
/// self times summed over the traced rounds.
pub fn rounds(
    opts: &RunOptions,
    mut round: impl FnMut(usize) -> Sample,
) -> (Vec<Sample>, Vec<Sample>, BTreeMap<String, f64>) {
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    fastmon_obs::force_enable(fastmon_obs::TraceMode::Off, None);
    let t = Instant::now();
    let mut plain = Vec::new();
    while plain.is_empty() || secs(t) < budget {
        plain.push(round(plain.len()));
    }
    let mut traced = Vec::new();
    let mut spans = BTreeMap::new();
    if opts.trace {
        fastmon_obs::force_enable(fastmon_obs::TraceMode::Profile, None);
        let _ = take_span_self_times();
        for i in 0..plain.len() {
            traced.push(round(plain.len() + i));
        }
        spans = take_span_self_times();
        fastmon_obs::force_enable(fastmon_obs::TraceMode::Off, None);
    }
    (plain, traced, spans)
}

/// The median over `samples` of every key any sample has.
#[must_use]
pub fn medians(samples: &[Sample]) -> Sample {
    let mut keys: Vec<&String> = samples.iter().flat_map(|s| s.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let xs: Vec<f64> = samples.iter().filter_map(|s| s.get(k).copied()).collect();
            (k.clone(), stats::median(&xs))
        })
        .collect()
}

/// Adds the counters of `m`, divided by `per` (the jobs the registry
/// covers), to `s`, with the simulation throughput of `pairs` (fault,
/// pattern) pairs simulated in `sim_s` seconds.
pub fn registry_sample(s: &mut Sample, m: &MetricsRegistry, per: f64, pairs: f64, sim_s: f64) {
    #[allow(clippy::cast_precision_loss)]
    let f = |v: u64| v as f64 / per;
    let (a, sim, c, ilp, sup) = (&m.atpg, &m.sim, &m.checkpoint, &m.ilp, &m.shardsup);
    for (k, v) in [
        ("atpg.podem_calls", f(a.podem_calls.get())),
        ("atpg.podem_backtracks", f(a.podem_backtracks.get())),
        ("atpg.podem_aborts", f(a.podem_aborts.get())),
        (
            "atpg.podem_abort_ratio",
            ratio(f(a.podem_aborts.get()), f(a.podem_calls.get())),
        ),
        ("atpg.cone_nodes_evaluated", f(a.cone_nodes_evaluated.get())),
        ("atpg.patterns_emitted", f(a.patterns_emitted.get())),
        ("sim.analyze_s", sim_s / per),
        ("sim.pairs_per_s", ratio(pairs, sim_s)),
        ("sim.cones_simulated", f(sim.cones_simulated.get())),
        ("sim.nodes_evaluated", f(sim.nodes_evaluated.get())),
        ("sim.nodes_converged", f(sim.nodes_converged.get())),
        (
            "sim.screen_nodes_visited",
            f(sim.screen_nodes_visited.get()),
        ),
        (
            "sim.screen_discharge_ratio",
            ratio(f(sim.faults_screened_out.get()), pairs / per),
        ),
        ("sim.waveform_allocs", f(sim.waveform_allocs.get())),
        ("checkpoint.saves", f(c.saves.get())),
        ("checkpoint.save_s", f(c.save_ns.get()) / 1e9),
        ("checkpoint.bytes_written", f(c.save_bytes.get())),
        ("checkpoint.load_s", f(c.load_ns.get()) / 1e9),
        ("ilp.solves", f(ilp.solves.get())),
        ("ilp.bb_nodes", f(ilp.bb_nodes.get())),
        ("ilp.bb_bounds_pruned", f(ilp.bb_bounds_pruned.get())),
        ("ilp.deadline_hits", f(ilp.deadline_hits.get())),
        ("shardsup.workers_spawned", f(sup.workers_spawned.get())),
        ("shardsup.respawns", f(sup.respawns.get())),
        ("shardsup.heartbeats", f(sup.heartbeats_received.get())),
    ] {
        s.insert(k.to_owned(), v);
    }
}

/// Per-layer metric names and units, in `BENCHMARK.json` order (the span
/// self times of [`SPANS`] follow).
pub const LAYER_METRICS: [(&str, &str); 42] = [
    ("netlist.generate_s", "s"),
    ("core.prepare_s", "s"),
    ("faults.candidates", "count"),
    ("faults.sampled", "count"),
    ("atpg.generate_s", "s"),
    ("atpg.podem_calls", "count"),
    ("atpg.podem_backtracks", "count"),
    ("atpg.podem_aborts", "count"),
    ("atpg.podem_abort_ratio", "ratio"),
    ("atpg.cone_nodes_evaluated", "count"),
    ("atpg.patterns_emitted", "count"),
    ("sim.analyze_s", "s"),
    ("sim.pairs_per_s", "1/s"),
    ("sim.cones_simulated", "count"),
    ("sim.nodes_evaluated", "count"),
    ("sim.nodes_converged", "count"),
    ("sim.screen_nodes_visited", "count"),
    ("sim.screen_discharge_ratio", "ratio"),
    ("sim.waveform_allocs", "count"),
    ("checkpoint.saves", "count"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.bytes_written", "bytes"),
    ("checkpoint.load_s", "s"),
    ("ilp.schedule_s", "s"),
    ("ilp.solves", "count"),
    ("ilp.bb_nodes", "count"),
    ("ilp.bb_bounds_pruned", "count"),
    ("ilp.deadline_hits", "count"),
    ("shardsup.supervise_s", "s"),
    ("shardsup.worker_ready_s", "s"),
    ("shardsup.boundary_overhead_s", "s"),
    ("shardsup.workers_spawned", "count"),
    ("shardsup.respawns", "count"),
    ("shardsup.heartbeats", "count"),
    ("daemon.queue_wait_s", "s"),
    ("daemon.job_run_s", "s"),
    ("daemon.records_per_job", "count"),
    ("daemon.jobs_completed", "count"),
    ("daemon.jobs_rejected", "count"),
    ("daemon.jobs_failed", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.unattributed_pct", "%"),
];

/// `(layer, span)` of every span the traced run reports as
/// `<layer>.<span>_self_s`, in report order.
pub const SPANS: [(&str, &str); 13] = [
    ("atpg", "atpg"),
    ("atpg", "atpg_cones"),
    ("atpg", "atpg_random"),
    ("atpg", "atpg_podem"),
    ("atpg", "atpg_compact"),
    ("sim", "analyze"),
    ("sim", "band"),
    ("checkpoint", "checkpoint_load"),
    ("checkpoint", "checkpoint_save"),
    ("ilp", "ilp_stage_a"),
    ("ilp", "ilp_stage_b"),
    ("ilp", "ilp_solve"),
    ("core", "sta"),
];

/// Fills the per-layer metrics: medians of the untraced rounds, span
/// self times per traced round, and the tracing overhead.
pub fn per_layer(
    out: &mut Outcome,
    plain: &[Sample],
    traced: &[Sample],
    spans: &BTreeMap<String, f64>,
) {
    let med = medians(plain);
    let wall = |xs: &[Sample]| medians(xs).get("wall_s").copied().unwrap_or(0.0);
    let (w_plain, w_traced) = (wall(plain), wall(traced));
    for (name, unit) in LAYER_METRICS {
        let value = match name {
            "obs.trace_overhead_pct" => 100.0 * ratio(w_traced - w_plain, w_plain),
            _ => med.get(name).copied().unwrap_or(0.0),
        };
        out.layer(name, value, unit);
    }
    #[allow(clippy::cast_precision_loss)]
    let n = traced.len().max(1) as f64;
    for (layer, span) in SPANS {
        let v = spans.get(span).copied().unwrap_or(0.0) / n;
        out.layer(&format!("{layer}.{span}_self_s"), v, "s");
    }
    // Span self times cover the timed section; `sta` runs in set-up.
    let traced_wall: f64 = traced.iter().filter_map(|s| s.get("wall_s")).sum();
    let in_spans: f64 = spans
        .iter()
        .filter(|(name, _)| name.as_str() != "sta")
        .map(|(_, s)| s)
        .sum();
    out.note(
        "span_unattributed_pct",
        report::json_number(100.0 * ratio(traced_wall - in_spans, traced_wall)),
    );
}
