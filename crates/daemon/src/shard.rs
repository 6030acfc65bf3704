//! Supervised multi-process shard execution: the one worker shell and the
//! one supervised-campaign driver behind `fastmond`'s
//! `"shard_procs":true` jobs and the experiment binaries'
//! `FASTMON_SHARD_PROCS=1` (through `fastmon_bench::shardsup`).
//!
//! [`supervise`] lays the campaign directory out with [`ShardFiles`]:
//!
//! * `shard-spec.json` — the campaign as a `submit` line
//!   ([`proto::to_submit_line`]; the round-trip through
//!   [`proto::parse_request`] is pinned by a unit test);
//! * `test-set.fmts` — the prepared test set, keyed by the campaign
//!   fingerprint.
//!
//! It then re-executes a worker binary once per shard
//! (`<bin> --shard-worker i/n`, with the directory in `FASTMON_SHARD_DIR`) under
//! the [`fastmon_core::shardsup`] supervisor: newline-JSON heartbeats
//! over the stdout pipe, stall kills, crash respawns with capped
//! exponential backoff, a `/proc`-based RSS watchdog with graceful
//! eviction, and straggler re-dispatch. Each worker rebuilds the circuit
//! and flow from the spec and loads the test set — it never runs ATPG —
//! then resumes from its own `shard-i-of-n.ckpt` and lands
//! `shard-i-of-n.result`. The supervisor merges the landed results into
//! an analysis bit-identical to the serial run.
//!
//! Worker exit codes: `0` result landed, [`EXIT_EVICTED`] cooperative
//! stop with a resumable checkpoint, `1` error (respawned),
//! [`EXIT_REFUSED`] the spec is unusable or rebuilds a different campaign
//! than the test set was prepared for (the supervisor fails the campaign
//! without respawning). Every failure is announced first by a
//! `shard_error` record with a `kind`.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use fastmon_atpg::TestSet;
use fastmon_core::shardsup::{self, EXIT_EVICTED, EXIT_REFUSED};
use fastmon_core::{
    CampaignProgress, DetectionAnalysis, FlowError, HdfTestFlow, ShardFiles, ShardSpec,
    ShardsupError, SupervisorConfig, SupervisorEvent, SupervisorReport,
};
use fastmon_obs::events::shard as shard_events;
use fastmon_obs::json::Value;

use crate::job::{build_circuit, prepare_flow, JobError, JobEvent};
use crate::proto::{self, JobRequest, Request};

/// Names the campaign directory of a launched worker.
const ENV_DIR: &str = "FASTMON_SHARD_DIR";
/// Overrides the worker executable of `fastmond` jobs (tests point it at
/// the built `fastmond`; the default — the current executable — would
/// re-enter the test harness instead).
pub const ENV_WORKER_BIN: &str = "FASTMOND_SHARD_WORKER_BIN";

/// A supervised multi-process campaign that finished.
#[derive(Debug)]
pub struct SupervisedRun {
    /// The merged analysis (bit-identical to the serial run).
    pub analysis: DetectionAnalysis,
    /// Supervisor counters (spawns, respawns, evictions, worker peak
    /// RSS, ...).
    pub report: SupervisorReport,
}

/// Routes a process that was exec'd as a shard worker into the worker
/// loop. Every binary that can serve as a worker calls this first in
/// `main`: when `--shard-worker i/n` is on the command line the function
/// never returns — it runs the shard and exits.
pub fn maybe_run_worker() {
    let mut args = std::env::args().skip(1);
    let mut raw = None;
    while let Some(arg) = args.next() {
        if arg == "--shard-worker" {
            raw = args.next();
            break;
        }
    }
    let Some(raw) = raw else { return };
    match ShardSpec::parse(&raw) {
        Ok(spec) => worker_main(spec),
        Err(e) => {
            eprintln!("[shard-worker] {e}");
            std::process::exit(EXIT_REFUSED);
        }
    }
}

/// Emits a typed `shard_error` record (so the supervisor's event stream
/// carries the reason, not just a nonzero exit) and exits with `code`.
fn worker_exit(spec: ShardSpec, code: i32, kind: &str, message: &str) -> ! {
    println!(
        "{}",
        shard_events::error(spec.shard, spec.shards, kind, message)
    );
    let _ = std::io::stdout().flush();
    eprintln!("[shard-worker {spec}] {kind}: {message}");
    std::process::exit(code);
}

/// Refuses the shard: nothing a respawn could change.
fn refuse(spec: ShardSpec, kind: &str, message: &str) -> ! {
    worker_exit(spec, EXIT_REFUSED, kind, message)
}

fn read_spec(files: &ShardFiles) -> Result<Box<JobRequest>, String> {
    let path = files.spec_path().display().to_string();
    let text = files
        .read_spec()
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    match proto::parse_request(text.trim()) {
        Ok(Request::Submit(req)) => Ok(req),
        Ok(_) => Err(format!("{path} is not a submit line")),
        Err(e) => Err(format!("bad spec {path}: {e}")),
    }
}

/// The worker process: rebuild the flow from the spec, load the shipped
/// test set, run this shard to a landed result file, stream
/// band-granularity heartbeats on stdout.
fn worker_main(spec: ShardSpec) -> ! {
    // Handlers go in before any expensive work: a SIGTERM that lands
    // while the flow is prepared must set the drain flag, not kill the
    // process with the default disposition (which the supervisor would
    // charge as a crash instead of an eviction).
    crate::signals::install_drain_handlers();
    let Some(dir) = std::env::var_os(ENV_DIR) else {
        refuse(spec, "spec", &format!("{ENV_DIR} is not set"));
    };
    let files = ShardFiles::new(PathBuf::from(dir));
    let req = read_spec(&files).unwrap_or_else(|e| refuse(spec, "spec", &e));
    if req.shards != spec.shards {
        refuse(
            spec,
            "spec",
            &format!("spec says {} shards, launched as {spec}", req.shards),
        );
    }
    let circuit =
        build_circuit(&req.circuit).unwrap_or_else(|e| refuse(spec, "spec", &e.to_string()));
    let flow =
        prepare_flow(&req, &circuit).unwrap_or_else(|e| refuse(spec, "spec", &e.to_string()));
    let (key, patterns) = match files.load_test_set(&circuit) {
        Ok(loaded) => loaded,
        Err(e @ FlowError::Atpg(_)) => refuse(spec, "fingerprint_mismatch", &e.to_string()),
        Err(e) => worker_exit(spec, 1, "test_set", &e.to_string()),
    };
    let campaign = flow.campaign_fingerprint(&patterns);
    if campaign != key {
        refuse(
            spec,
            "fingerprint_mismatch",
            &format!(
                "the spec rebuilds campaign {campaign:016x}, the test set was prepared for {key:016x}"
            ),
        );
    }

    // The band-checkpoint callback below cancels the token once a drain
    // signal has arrived, and the campaign observes the token strictly
    // *after* each band checkpoint. So the worker stops at the first band
    // boundary after the signal, and even an eviction signal that arrived
    // before the campaign started still banks at least one band of
    // durable progress per evict/readmit cycle. That ordering is what
    // makes RSS eviction livelock-free.
    let token = fastmon_obs::CancelToken::new();
    let flow = flow.with_cancel(token.clone());

    // Chaos knob: FASTMON_SHARD_HANG="<shard>:<flag-path>" silences this
    // worker forever at its first band boundary — once, arbitrated by
    // `create_new` on the flag file — so tests can prove the stall
    // watchdog kills it and the respawn resumes from the checkpoint.
    let hang_flag = std::env::var("FASTMON_SHARD_HANG").ok().and_then(|v| {
        let (who, path) = v.split_once(':')?;
        (who.parse::<usize>().ok()? == spec.shard).then(|| PathBuf::from(path))
    });

    let (shard, shards) = (spec.shard, spec.shards);
    let total = patterns.len();
    let outcome = files.run_to_result(&flow, &patterns, spec, &mut |progress| {
        let line = match progress {
            CampaignProgress::Resumed { next_pattern, .. } => {
                shard_events::resumed(shard, shards, next_pattern, total)
            }
            CampaignProgress::BandCheckpointed { next_pattern, .. } => {
                if crate::signals::drain_requested() {
                    token.cancel();
                }
                if let Some(flag) = &hang_flag {
                    let created = std::fs::OpenOptions::new()
                        .write(true)
                        .create_new(true)
                        .open(flag)
                        .is_ok();
                    if created {
                        loop {
                            std::thread::sleep(std::time::Duration::from_secs(3600));
                        }
                    }
                }
                shard_events::heartbeat(shard, shards, next_pattern, total)
            }
        };
        println!("{line}");
    });
    match outcome {
        Ok(fingerprint) => {
            let peak = shardsup::peak_rss_self_bytes().unwrap_or(0);
            println!("{}", shard_events::done(shard, shards, fingerprint, peak));
            let _ = std::io::stdout().flush();
            std::process::exit(0);
        }
        Err(FlowError::Cancelled { phase }) => {
            eprintln!("[shard-worker {spec}] cancelled during {phase}; checkpoint is resumable");
            std::process::exit(EXIT_EVICTED);
        }
        Err(e) => worker_exit(spec, 1, "flow", &e.to_string()),
    }
}

/// Runs the campaign `req` describes — whose prepared flow and test set
/// are `flow` and `patterns` — as `req.shards` supervised worker
/// processes under `dir`, and merges the landed results (bit-identical
/// to the serial run).
///
/// `worker_bin` is the worker executable (default: the current one,
/// whose `main` must call [`maybe_run_worker`] first). The supervisor
/// reads its tuning from the `FASTMON_SHARD_*` knobs, inherits the
/// flow's cancel token and records its counters in the flow's registry
/// (`robustness.shardsup.*`); `on_event` observes every
/// [`SupervisorEvent`]. Workers inherit the environment except for the
/// process deadline (the supervisor owns cancellation); respawns also
/// lose the chaos knobs, which target first attempts only.
///
/// # Errors
///
/// [`JobError::Spec`] for unusable `FASTMON_SHARD_*` knobs,
/// [`JobError::Flow`] when the spec or test set cannot be landed (after
/// the checkpoint-save retries) or a landed result cannot be merged,
/// `JobError::Flow(FlowError::Cancelled)` when the token trips (every
/// shard checkpoint stays resumable) and [`JobError::Shardsup`] when a
/// worker cannot be launched, refuses its shard or exhausts its respawn
/// budget.
pub fn supervise(
    flow: &HdfTestFlow<'_>,
    patterns: &TestSet,
    req: &JobRequest,
    dir: &Path,
    worker_bin: Option<&Path>,
    on_event: &mut dyn FnMut(&SupervisorEvent),
) -> Result<SupervisedRun, JobError> {
    let shards = req.shards;
    let config = SupervisorConfig::from_env(shards).map_err(|e| match e {
        // An unusable FASTMON_SHARD_* knob is a configuration problem of
        // the submission environment — typed like any other bad spec.
        ShardsupError::Config { .. } => JobError::Spec {
            message: e.to_string(),
        },
        other => JobError::Shardsup(other),
    })?;
    let exe = match worker_bin {
        Some(p) => p.to_path_buf(),
        None => std::env::current_exe().map_err(|e| {
            JobError::Shardsup(ShardsupError::Launch {
                shard: 0,
                message: format!("cannot determine the worker executable: {e}"),
            })
        })?,
    };
    let files = ShardFiles::new(dir);
    files
        .land_spec(flow, &format!("{}\n", proto::to_submit_line(req)))
        .and_then(|()| files.land_test_set(flow, patterns))
        .map_err(FlowError::from)?;

    let mut launch = |shard: usize, attempt: u32| -> std::io::Result<Child> {
        let mut cmd = Command::new(&exe);
        cmd.arg("--shard-worker")
            .arg(format!("{shard}/{shards}"))
            .env(ENV_DIR, dir)
            .env_remove("FASTMON_DEADLINE_SECS")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if attempt > 0 {
            // Failpoints are chaos injections for first attempts only: a
            // respawn is the recovery path under test, not a new target.
            cmd.env_remove("FASTMON_FAILPOINTS");
            cmd.env_remove("FASTMON_SHARD_HANG");
        }
        cmd.spawn()
    };
    let mut is_complete = |shard: usize| files.landed(flow, patterns, ShardSpec { shard, shards });
    let report = shardsup::run(
        &config,
        &mut launch,
        &mut is_complete,
        &mut |event| on_event(&event),
        flow.cancel_token(),
        Some(flow.metrics()),
    )
    .map_err(|e| match e {
        // A drain/deadline cancellation keeps the single-process
        // contract: terminal status "cancelled", checkpoints resumable.
        ShardsupError::Cancelled { phase } => JobError::Flow(FlowError::Cancelled { phase }),
        other => JobError::Shardsup(other),
    })?;
    let analysis = files.merge(flow, patterns, shards)?;
    Ok(SupervisedRun { analysis, report })
}

/// A `"shard_procs":true` job's campaign: [`supervise`] under the job's
/// locked checkpoint directory, with supervisor observations forwarded as
/// [`JobEvent::Shard`] rows so the flight recorder and the `observe`
/// snapshot see per-shard progress and respawn counts.
pub(crate) fn run_supervised(
    flow: &HdfTestFlow<'_>,
    patterns: &TestSet,
    req: &JobRequest,
    dir: &Path,
    on_event: &mut dyn FnMut(JobEvent),
) -> Result<DetectionAnalysis, JobError> {
    let worker_bin = std::env::var_os(ENV_WORKER_BIN).map(PathBuf::from);
    // Per-shard accounting the observe snapshot renders: last reported
    // progress and charged respawns, carried on every forwarded event.
    let mut respawns = vec![0u64; req.shards];
    let mut progress = vec![(0u64, 0u64); req.shards];
    let mut forward = |event: &SupervisorEvent| {
        let (shard, kind) = match event {
            SupervisorEvent::Spawned { shard, attempt, .. } => {
                respawns[*shard] = u64::from(*attempt);
                (*shard, "spawned")
            }
            SupervisorEvent::Heartbeat { shard, value, .. } => {
                let field = |key| value.get(key).and_then(Value::as_u64);
                if let (Some(next), Some(total)) = (field("next_pattern"), field("total_patterns"))
                {
                    progress[*shard] = (next, total);
                }
                let kind = match value.get("event").and_then(Value::as_str) {
                    Some("shard_resumed") => "resumed",
                    _ => "heartbeat",
                };
                (*shard, kind)
            }
            SupervisorEvent::Stalled { shard, .. } => (*shard, "stalled"),
            SupervisorEvent::Crashed { shard, .. } => (*shard, "crashed"),
            SupervisorEvent::Backoff { shard, .. } => (*shard, "backoff"),
            SupervisorEvent::RssEvicted { shard, .. } => (*shard, "rss_evicted"),
            SupervisorEvent::Readmitted { shard, .. } => (*shard, "readmitted"),
            SupervisorEvent::StragglerRedispatched { shard, .. } => (*shard, "straggler"),
            SupervisorEvent::Completed { shard, .. } => (*shard, "completed"),
            _ => return,
        };
        let (next_pattern, total_patterns) = progress[shard];
        on_event(JobEvent::Shard {
            shard,
            kind,
            respawns: respawns[shard],
            next_pattern,
            total_patterns,
        });
    };
    supervise(
        flow,
        patterns,
        req,
        dir,
        worker_bin.as_deref(),
        &mut forward,
    )
    .map(|run| run.analysis)
}
