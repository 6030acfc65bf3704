//! Experiment harness shared by the table/figure regenerator binaries.
//!
//! The paper's circuits are proprietary or non-redistributable, so the
//! suite consists of synthetic stand-ins generated from
//! [`fastmon_netlist::generate::paper_suite`] profiles. Because the
//! reference evaluation ran on a 2×Xeon + Tesla P100 host, the default run
//! scales each circuit down to a laptop-friendly size (≈ 4 k gates) and
//! samples the fault population; the applied scale is printed with every
//! table so results are interpretable.
//!
//! Environment knobs (all optional):
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `FASTMON_TARGET_GATES` | target circuit size after scaling | `4000` |
//! | `FASTMON_MAX_FAULTS` | candidate-fault sample cap per circuit | `8000` |
//! | `FASTMON_CIRCUITS` | comma-separated circuit-name filter | all 12 |
//! | `FASTMON_SEED` | master seed | `1` |
//! | `FASTMON_ILP_SECS` | per-ILP deadline in seconds | `20` |
//! | `FASTMON_CHECKPOINT_DIR` | campaign-checkpoint directory | `target/fastmon-checkpoints` |
//! | `FASTMON_FRESH` | set to `1` to discard existing checkpoints | unset |
//! | `FASTMON_SHARDS` | fault-set shards per campaign (merge is bit-identical) | `1` |
//! | `FASTMON_SHARD_PROCS` | set to `1` to run each shard as a supervised child process | unset |
//! | `FASTMON_SHARD_JOBS` | concurrent shard workers under the supervisor | cores |
//! | `FASTMON_SHARD_RSS_BYTES` | per-worker RSS ceiling before graceful eviction | unlimited |
//! | `FASTMON_SHARD_STALL_SECS` | heartbeat silence before a worker is killed | `60` |
//! | `FASTMON_SHARD_RETRIES` | respawn budget per shard | `3` |
//!
//! The fault-simulation campaign checkpoints after every pattern band (see
//! [`fastmon_core::CheckpointStore`]); re-running an interrupted experiment
//! binary resumes where it left off and produces bit-identical results.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod manifest;
pub mod rss;
pub mod shardsup;
pub mod soak;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use fastmon_atpg::TestSet;
use fastmon_core::shardsup::config_error;
use fastmon_core::{
    CheckpointDir, CheckpointStore, DetectionAnalysis, FlowConfig, FlowError, HdfTestFlow,
    ShardFiles, ShardsupError,
};
use fastmon_daemon::JobError;
use fastmon_netlist::generate::{paper_suite, CircuitProfile};
use fastmon_netlist::Circuit;

/// Exit code for a run that stopped cooperatively at a cancellation
/// boundary (a `FASTMON_DEADLINE_SECS` deadline or an explicit soft
/// cancel): partial results are checkpointed and trustworthy. Follows BSD
/// `EX_TEMPFAIL` — the `run_all` driver records it as `cancelled` rather
/// than `failed`.
pub const EXIT_CANCELLED: i32 = 75;

/// Reports a flow error with a one-line diagnostic and exits: cancellation
/// is a clean stop ([`EXIT_CANCELLED`]), everything else is a failure (1).
fn exit_flow_error(circuit: &str, phase: &str, e: &FlowError) -> ! {
    if matches!(e, FlowError::Cancelled { .. }) {
        eprintln!("[bench] {circuit}: {e}; progress checkpointed, exiting cleanly");
        std::process::exit(EXIT_CANCELLED);
    }
    eprintln!("[bench] {circuit}: {phase} failed: {e}");
    std::process::exit(1);
}

/// Configuration of an experiment run, read from the environment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Circuits are scaled so their gate count is at most this.
    pub target_gates: usize,
    /// Fault-sample cap per circuit.
    pub max_faults: usize,
    /// Only run circuits whose name is in this list (empty = all).
    pub circuits: Vec<String>,
    /// Master seed.
    pub seed: u64,
    /// Per-ILP-solve deadline.
    pub ilp_deadline: Duration,
    /// Fault-set shards per campaign (`FASTMON_SHARDS`, 1 = unsharded).
    /// The merged sharded result is bit-identical to the serial run, so
    /// this only changes checkpoint granularity and memory footprint.
    pub shards: usize,
    /// Run each shard as a supervised child OS process
    /// (`FASTMON_SHARD_PROCS=1`) instead of in-process slices — crash,
    /// stall and RSS isolation per shard (see [`shardsup`]).
    pub shard_procs: bool,
}

impl ExperimentConfig {
    /// Reads the configuration from `FASTMON_*` environment variables,
    /// exiting with a one-line diagnostic (status 2) when a knob is
    /// malformed. Library callers that want the error instead use
    /// [`ExperimentConfig::try_from_env`].
    #[must_use]
    pub fn from_env() -> Self {
        match Self::try_from_env() {
            Ok(config) => config,
            Err(e) => {
                eprintln!("[bench] invalid configuration: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Reads the configuration from `FASTMON_*` environment variables.
    ///
    /// # Errors
    ///
    /// [`ShardsupError::Config`] when `FASTMON_SHARDS`,
    /// `FASTMON_SHARD_JOBS` or `FASTMON_SHARD_PROCS` is set to something
    /// unusable (`0`, non-numeric, or more than
    /// [`fastmon_core::MAX_SHARDS`]), when `FASTMON_TARGET_GATES`,
    /// `FASTMON_MAX_FAULTS`, `FASTMON_SEED` or `FASTMON_ILP_SECS` is not
    /// an unsigned decimal integer, or when `FASTMON_CIRCUITS` names a
    /// circuit outside the paper suite — the error carries the offending
    /// string rather than silently falling back to a default.
    pub fn try_from_env() -> Result<Self, ShardsupError> {
        let get = |k: &str| std::env::var(k).ok();
        let shards = match get("FASTMON_SHARDS") {
            Some(raw) => fastmon_core::parse_shard_count("FASTMON_SHARDS", &raw)?,
            None => 1,
        };
        // Validated here so a bad value fails fast at startup, not after
        // ATPG when the supervisor first reads it.
        if let Some(raw) = get("FASTMON_SHARD_JOBS") {
            fastmon_core::parse_shard_count("FASTMON_SHARD_JOBS", &raw)?;
        }
        let shard_procs = match get("FASTMON_SHARD_PROCS").as_deref() {
            None | Some("0") | Some("") => false,
            Some("1") => true,
            Some(other) => {
                return Err(config_error(
                    "FASTMON_SHARD_PROCS",
                    other,
                    "expected 0 or 1",
                ))
            }
        };
        let circuits: Vec<String> = get("FASTMON_CIRCUITS")
            .map(|v| v.split(',').map(|s| s.trim().to_owned()).collect())
            .unwrap_or_default();
        if let Some(unknown) = circuits.iter().find(|c| CircuitProfile::named(c).is_none()) {
            return Err(config_error(
                "FASTMON_CIRCUITS",
                unknown,
                "not a paper-suite circuit name",
            ));
        }
        Ok(ExperimentConfig {
            target_gates: integer_knob("FASTMON_TARGET_GATES", 4_000)?,
            max_faults: integer_knob("FASTMON_MAX_FAULTS", 8_000)?,
            circuits,
            seed: integer_knob("FASTMON_SEED", 1)?,
            ilp_deadline: Duration::from_secs(integer_knob("FASTMON_ILP_SECS", 20)?),
            shards,
            shard_procs,
        })
    }

    /// The benchmark suite after filtering and scaling.
    #[must_use]
    pub fn suite(&self) -> Vec<(CircuitProfile, f64)> {
        paper_suite()
            .into_iter()
            .filter(|p| self.circuits.is_empty() || self.circuits.iter().any(|c| c == &p.name))
            .map(|p| {
                let scale = (self.target_gates as f64 / p.gates as f64).min(1.0);
                (p.scaled(scale), scale)
            })
            .collect()
    }

    /// The flow configuration used for every circuit of the run.
    #[must_use]
    pub fn flow_config(&self) -> FlowConfig {
        FlowConfig {
            seed: self.seed,
            max_faults: Some(self.max_faults),
            ilp_deadline: self.ilp_deadline,
            ..FlowConfig::default()
        }
    }
}

/// The unsigned decimal integer knob `key`, or `default` when it is unset.
fn integer_knob<T: std::str::FromStr>(key: &str, default: T) -> Result<T, ShardsupError> {
    match std::env::var(key) {
        Ok(raw) => raw
            .trim()
            .parse()
            .map_err(|_| config_error(key, &raw, "expected an unsigned decimal integer")),
        Err(_) => Ok(default),
    }
}

/// A fully prepared circuit run: generated circuit, ATPG patterns and the
/// fault-simulation campaign.
pub struct PreparedRun {
    /// The synthetic stand-in circuit.
    pub circuit: Circuit,
    /// Scale factor applied to the paper profile.
    pub scale: f64,
    /// The compacted transition test set (capped at the profile's scaled
    /// pattern budget).
    pub patterns_len: usize,
    /// Wall-clock seconds per phase: (atpg, analyze).
    pub phase_secs: (f64, f64),
}

/// Directory where campaign checkpoints are kept
/// (`FASTMON_CHECKPOINT_DIR`, default `target/fastmon-checkpoints`).
#[must_use]
pub fn checkpoint_dir() -> PathBuf {
    std::env::var("FASTMON_CHECKPOINT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/fastmon-checkpoints"))
}

/// The checkpoint store the experiment binaries use for `circuit`.
#[must_use]
pub fn checkpoint_store(circuit: &str) -> CheckpointStore {
    CheckpointStore::new(checkpoint_dir().join(format!("{circuit}.fmck")))
}

/// Prepares a circuit and runs ATPG + fault simulation, handing the
/// borrowing-sensitive pieces to `f`.
///
/// The fault-simulation campaign is resumable: progress is checkpointed
/// after every pattern band under [`checkpoint_dir`], so a killed run
/// picks up where it stopped (set `FASTMON_FRESH=1` to force a clean
/// start). If checkpointing itself fails — e.g. an unwritable target
/// directory — the campaign is rerun without checkpoints rather than
/// aborted.
///
/// # Panics
///
/// Panics if the profile cannot generate (over-scaled) — the built-in
/// profiles never do.
pub fn with_run<R>(
    profile: &CircuitProfile,
    scale: f64,
    config: &ExperimentConfig,
    f: impl FnOnce(&HdfTestFlow<'_>, &TestSet, &DetectionAnalysis, &PreparedRun) -> R,
) -> R {
    let circuit = match profile.generate(config.seed) {
        Ok(c) => c,
        Err(e) => panic!("profile `{}` cannot generate a circuit: {e}", profile.name),
    };
    let flow_config = config.flow_config();
    let flow = HdfTestFlow::prepare(&circuit, &flow_config);

    let t = Instant::now();
    let patterns = match flow.try_generate_patterns(Some(profile.pattern_budget)) {
        Ok(p) => p,
        Err(e) => exit_flow_error(&profile.name, "pattern generation", &e),
    };
    let atpg_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let fresh = std::env::var("FASTMON_FRESH").is_ok_and(|v| v == "1");
    let campaign = if config.shards > 1 {
        // Sharded campaign: every shard file lives inside a locked
        // per-fingerprint job directory, so a daemon's startup GC sweep
        // skips them while this run is alive (the LOCK names this PID)
        // instead of racing the shard writers.
        let jobs = CheckpointDir::new(checkpoint_dir().join("shard-jobs"));
        jobs.acquire(flow.campaign_fingerprint(&patterns))
            .map_err(|e| e.to_string())
            .and_then(|job| {
                let files = ShardFiles::new(job.dir());
                if fresh {
                    files.clear();
                }
                let analysis = if config.shard_procs {
                    run_shard_procs(&flow, &patterns, config, profile, scale, job.dir())?
                } else {
                    files
                        .run_in_process(&flow, &patterns, config.shards, &mut |_, _| {})
                        .map_err(|e| exit_if_fatal(&profile.name, e))?
                };
                if let Err(e) = job.complete() {
                    eprintln!(
                        "[bench] {}: cannot remove finished shard job dir: {e}",
                        profile.name
                    );
                }
                Ok(analysis)
            })
    } else {
        let store = checkpoint_store(&profile.name);
        if fresh {
            if let Err(e) = store.clear() {
                eprintln!(
                    "[bench] {}: cannot clear checkpoint {}: {e}",
                    profile.name,
                    store.path().display()
                );
            }
        }
        flow.analyze_resumable(&patterns, &store)
            .map_err(|e| exit_if_fatal(&profile.name, e))
    };
    let analysis = campaign.unwrap_or_else(|e| {
        eprintln!(
            "[bench] {}: checkpointing unavailable ({e}); rerunning without checkpoints",
            profile.name
        );
        flow.analyze(&patterns)
    });
    let analyze_secs = t.elapsed().as_secs_f64();

    let run = PreparedRun {
        scale,
        patterns_len: patterns.len(),
        phase_secs: (atpg_secs, analyze_secs),
        circuit: circuit.clone(),
    };
    f(&flow, &patterns, &analysis, &run)
}

/// Ends the process on a campaign error that a rerun must not paper
/// over — cancellation (the last band checkpoint is already on disk, so
/// resuming later is bit-identical), injected faults and contained worker
/// panics — and renders any other error for the fallback message.
fn exit_if_fatal(circuit: &str, e: FlowError) -> String {
    match e {
        FlowError::Cancelled { .. }
        | FlowError::Injected { .. }
        | FlowError::WorkerPanic { .. } => exit_flow_error(circuit, "fault simulation", &e),
        e => e.to_string(),
    }
}

/// Runs the sharded campaign through the multi-process supervisor
/// ([`shardsup::supervise`]).
fn run_shard_procs(
    flow: &HdfTestFlow<'_>,
    patterns: &TestSet,
    config: &ExperimentConfig,
    profile: &CircuitProfile,
    scale: f64,
    dir: &std::path::Path,
) -> Result<DetectionAnalysis, String> {
    let run = shardsup::supervise(
        flow,
        patterns,
        config,
        &profile.name,
        scale,
        dir,
        None,
        &mut |_| {},
    )
    .map_err(|e| match e {
        JobError::Flow(e) => exit_if_fatal(&profile.name, e),
        e => e.to_string(),
    })?;
    let r = &run.report;
    eprintln!(
        "[bench] {}: supervised {} shards: {} workers, {} respawns, {} stalls, {} evictions",
        profile.name,
        config.shards,
        r.workers_spawned,
        r.respawns,
        r.stalls_detected,
        r.rss_evictions,
    );
    Ok(run.analysis)
}

/// Prints a markdown table: header, alignment row, rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    fmt_row(&headers.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        fmt_row(row);
    }
}

/// Formats a signed percentage like the paper (`(+12.2%)`).
#[must_use]
pub fn pct(v: f64) -> String {
    format!("({}{:.1}%)", if v >= 0.0 { "+" } else { "" }, v)
}

/// Reference values from the paper for side-by-side printing.
pub mod paper {
    /// Table I reference: `(circuit, conv, prop, gain %, |Φ_tar|)`.
    pub const TABLE1: [(&str, usize, usize, f64, usize); 12] = [
        ("s9234", 5469, 6135, 12.2, 4655),
        ("s13207", 3349, 7859, 134.7, 6814),
        ("s15850", 3541, 8880, 150.8, 8607),
        ("s35932", 34868, 36129, 3.6, 16211),
        ("s38417", 25064, 32014, 27.7, 26327),
        ("s38584", 20348, 31119, 52.9, 29608),
        ("p35k", 35669, 59759, 67.5, 53592),
        ("p45k", 48764, 80544, 65.2, 79752),
        ("p78k", 325682, 337977, 3.8, 245824),
        ("p89k", 45792, 133175, 190.8, 132503),
        ("p100k", 111955, 206990, 84.9, 197007),
        ("p141k", 196491, 297260, 51.3, 290637),
    ];

    /// One Table II reference row:
    /// `(circuit, conv |F|, heur |F|, prop |F|, Δ%|F|, orig PC, opti PC, Δ%|PC|)`.
    pub type Table2Ref = (&'static str, usize, usize, usize, f64, usize, usize, f64);

    /// Table II reference values.
    pub const TABLE2: [Table2Ref; 12] = [
        ("s9234", 20, 16, 13, 35.0, 10075, 662, 93.4),
        ("s13207", 17, 16, 12, 29.4, 11700, 852, 92.7),
        ("s15850", 24, 25, 22, 8.3, 14740, 949, 93.6),
        ("s35932", 16, 8, 7, 56.3, 1365, 367, 73.1),
        ("s38417", 34, 23, 18, 47.1, 11520, 1954, 83.0),
        ("s38584", 31, 23, 17, 45.2, 13600, 1823, 86.6),
        ("p35k", 58, 49, 40, 31.0, 303600, 6857, 97.7),
        ("p45k", 24, 36, 26, -8.3, 353470, 5576, 98.4),
        ("p78k", 47, 34, 29, 38.3, 10150, 2323, 77.1),
        ("p89k", 44, 52, 41, 6.8, 203565, 10790, 94.7),
        ("p100k", 46, 51, 40, 13.0, 526200, 13577, 97.4),
        ("p141k", 60, 65, 48, 20.0, 197760, 17762, 91.0),
    ];

    /// Table III reference for cov ≥ 99 %:
    /// `(circuit, |F99|, |PC99|, |S99|, Δ%)`.
    pub const TABLE3_COV99: [(&str, usize, usize, usize, f64); 12] = [
        ("s9234", 9, 6975, 640, 90.8),
        ("s13207", 9, 8775, 831, 90.5),
        ("s15850", 13, 8710, 896, 89.7),
        ("s35932", 6, 1170, 357, 69.5),
        ("s38417", 10, 6400, 1836, 71.3),
        ("s38584", 9, 7200, 1678, 76.7),
        ("p35k", 22, 166980, 6569, 96.1),
        ("p45k", 10, 135950, 5232, 96.2),
        ("p78k", 6, 2100, 1443, 31.3),
        ("p89k", 20, 99300, 10140, 89.8),
        ("p100k", 13, 171015, 12547, 92.7),
        ("p141k", 20, 82400, 16372, 80.1),
    ];

    /// Fig. 3 anchor points (read off the published figure):
    /// conventional FAST reaches ≈ 35 % HDF coverage at `f_max = 2.9·f_nom`,
    /// monitors lift the 3·f_nom coverage to ≈ 65 %.
    pub const FIG3_CONV_AT_29: f64 = 0.35;
    /// Monitor-assisted coverage at 3·f_nom in the published figure.
    pub const FIG3_PROP_AT_30: f64 = 0.65;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_config_defaults() {
        // no FASTMON_* variables set in the test environment
        let cfg = ExperimentConfig::from_env();
        assert!(cfg.target_gates >= 1000);
        assert!(cfg.max_faults >= 1000);
        assert!(cfg.ilp_deadline.as_secs() >= 1);
    }

    #[test]
    fn suite_scales_to_target() {
        let cfg = ExperimentConfig {
            target_gates: 2000,
            max_faults: 4000,
            circuits: vec![],
            seed: 1,
            ilp_deadline: Duration::from_secs(5),
            shards: 1,
            shard_procs: false,
        };
        let suite = cfg.suite();
        assert_eq!(suite.len(), 12);
        for (profile, scale) in suite {
            assert!(scale <= 1.0);
            assert!(
                profile.gates <= 2200,
                "{} still has {} gates",
                profile.name,
                profile.gates
            );
        }
    }

    #[test]
    fn suite_filter_selects() {
        let cfg = ExperimentConfig {
            circuits: vec!["s9234".into(), "p89k".into()],
            target_gates: 4000,
            max_faults: 8000,
            seed: 1,
            ilp_deadline: Duration::from_secs(5),
            shards: 1,
            shard_procs: false,
        };
        let names: Vec<String> = cfg.suite().into_iter().map(|(p, _)| p.name).collect();
        assert_eq!(names, vec!["s9234".to_owned(), "p89k".to_owned()]);
    }

    #[test]
    fn pct_formats_signed() {
        assert_eq!(pct(12.25), "(+12.2%)");
        assert_eq!(pct(-8.3), "(-8.3%)");
        assert_eq!(pct(0.0), "(+0.0%)");
    }

    #[test]
    fn paper_reference_tables_are_complete() {
        assert_eq!(paper::TABLE1.len(), 12);
        assert_eq!(paper::TABLE2.len(), 12);
        assert_eq!(paper::TABLE3_COV99.len(), 12);
        // every profile name appears in every reference table
        let cfg = ExperimentConfig::from_env();
        for (profile, _) in cfg.suite() {
            assert!(paper::TABLE1.iter().any(|(n, ..)| *n == profile.name));
            assert!(paper::TABLE2.iter().any(|r| r.0 == profile.name));
            assert!(paper::TABLE3_COV99.iter().any(|(n, ..)| *n == profile.name));
        }
    }
}
