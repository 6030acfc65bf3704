//! Multi-process shard supervision: heartbeats, retry/respawn with
//! capped backoff, an RSS watchdog, bounded concurrency and straggler
//! re-dispatch.
//!
//! The supervisor executes each shard of an `n`-way campaign as a
//! separate OS child process (typically a self-exec of the driver binary
//! in `--shard-worker i/n` mode) and keeps the campaign alive through
//! the failures a week-long run actually meets:
//!
//! * **Liveness** — every child streams newline-JSON heartbeat records
//!   (the [`fastmon_obs::events::shard`] schema) on its stdout pipe; a
//!   child that stays silent past the stall timeout is killed and
//!   respawned, and resumes from its own `shard-i-of-n.ckpt`.
//! * **Crash containment** — a child that exits nonzero, is `kill -9`'d
//!   or OOMs is respawned with capped exponential backoff (default 3
//!   retries) while the other shards keep running. A child that refuses
//!   its shard ([`EXIT_REFUSED`]: its spec does not rebuild this
//!   campaign) fails the campaign at once — a respawn would refuse too.
//! * **Memory enforcement** — an RSS watchdog polls each child's
//!   `/proc/<pid>/status` `VmRSS` against `FASTMON_SHARD_RSS_BYTES` and
//!   SIGTERMs the offender; the worker's cooperative cancellation stops
//!   at the next band boundary with its progress checkpointed
//!   (exit [`EXIT_EVICTED`]) and the shard is re-admitted later without
//!   charging its retry budget. Because cancellation is observed *after*
//!   the band checkpoint, every evict/readmit cycle makes at least one
//!   band of durable progress — the loop converges even under a limit
//!   the worker always exceeds.
//! * **Bounded concurrency** — at most `FASTMON_SHARD_JOBS` children run
//!   at once (default: available parallelism), and the last unfinished
//!   shard is re-dispatched once if it runs suspiciously long compared
//!   to the median completed shard.
//!
//! The engine is agnostic of what a worker computes: callers supply the
//! launch and completion probes. The campaign callers lay their files
//! out with [`crate::ShardFiles`] — completed shards land
//! `shard-i-of-n.result` files (same atomic tmp+rename, FNV-checksummed
//! `FMCK` codec as checkpoints); landing is idempotent, so the supervisor
//! itself can be killed and restarted mid-campaign and only the
//! unfinished shards re-run, and the deterministic merge
//! ([`crate::ShardFiles::merge`]) is bit-identical to the serial
//! campaign.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader};
use std::process::Child;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fastmon_obs::json::{self, Value};
use fastmon_obs::{CancelToken, MetricsRegistry};

/// Hard ceiling on shard and job counts: values above this are a config
/// error, not an invitation to fork-bomb the host.
pub const MAX_SHARDS: usize = 4096;

/// Exit code a worker uses for a *cooperative* stop (RSS eviction or
/// deadline): progress is checkpointed and the shard is resumable. BSD
/// `EX_TEMPFAIL`, matching `fastmon_bench::EXIT_CANCELLED`.
pub const EXIT_EVICTED: i32 = 75;

/// Exit code a worker uses to refuse its shard: the spec or the shipped
/// test set does not rebuild the supervisor's campaign. A respawn would
/// refuse again, so the supervisor fails the campaign at once instead of
/// spending the shard's respawn budget.
pub const EXIT_REFUSED: i32 = 2;

/// `SIGTERM` signal number (the graceful-stop signal of the watchdog).
pub const SIGTERM: i32 = 15;

/// Typed supervisor failures.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ShardsupError {
    /// An environment knob holds an unusable value. Carries the
    /// offending string so the operator sees exactly what was rejected.
    Config {
        /// The environment variable (or flag) name.
        key: String,
        /// The rejected raw value.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A worker process could not be spawned (or was spawned without a
    /// stdout pipe).
    Launch {
        /// The shard that failed to launch.
        shard: usize,
        /// The OS error message.
        message: String,
    },
    /// A shard exhausted its respawn budget without landing a result.
    ShardFailed {
        /// The failed shard.
        shard: usize,
        /// Launch attempts consumed (first run + respawns).
        attempts: u32,
        /// Description of the final exit.
        last: String,
    },
    /// The supervisor's cancellation token tripped; children were
    /// SIGTERMed and their checkpoints remain resumable.
    Cancelled {
        /// The phase that observed the cancellation.
        phase: &'static str,
    },
}

impl std::fmt::Display for ShardsupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardsupError::Config { key, value, reason } => {
                write!(f, "{key}={value:?}: {reason}")
            }
            ShardsupError::Launch { shard, message } => {
                write!(f, "cannot launch worker for shard {shard}: {message}")
            }
            ShardsupError::ShardFailed {
                shard,
                attempts,
                last,
            } => {
                write!(
                    f,
                    "shard {shard} failed after {attempts} attempt(s); last exit: {last}"
                )
            }
            ShardsupError::Cancelled { phase } => write!(f, "supervisor cancelled during {phase}"),
        }
    }
}

impl std::error::Error for ShardsupError {}

/// A [`ShardsupError::Config`] for the environment knob `key` holding the
/// unusable string `value`.
#[must_use]
pub fn config_error(key: &str, value: &str, reason: impl Into<String>) -> ShardsupError {
    ShardsupError::Config {
        key: key.to_string(),
        value: value.to_string(),
        reason: reason.into(),
    }
}

/// Strict shard/job-count parsing: `0`, non-numeric and absurd (>
/// [`MAX_SHARDS`]) values are typed errors carrying the offending
/// string — never a silent clamp.
///
/// # Errors
///
/// [`ShardsupError::Config`] on any rejected value.
pub fn parse_shard_count(key: &str, raw: &str) -> Result<usize, ShardsupError> {
    let n: usize = raw
        .trim()
        .parse()
        .map_err(|_| config_error(key, raw, "expected an unsigned integer"))?;
    if n == 0 {
        return Err(config_error(key, raw, "must be at least 1"));
    }
    if n > MAX_SHARDS {
        return Err(config_error(
            key,
            raw,
            format!("exceeds the {MAX_SHARDS}-shard ceiling"),
        ));
    }
    Ok(n)
}

fn parse_u64(key: &str, raw: &str) -> Result<u64, ShardsupError> {
    raw.trim()
        .parse()
        .map_err(|_| config_error(key, raw, "expected an unsigned integer"))
}

/// Supervisor tuning. Every knob has an environment variable (see
/// [`SupervisorConfig::from_env`]); tests set fields directly.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Shard count of the partition.
    pub shards: usize,
    /// Maximum concurrently running workers (`FASTMON_SHARD_JOBS`).
    pub jobs: usize,
    /// Kill a worker that produced no parseable heartbeat for this long
    /// (`FASTMON_SHARD_STALL_SECS`).
    pub stall_timeout: Duration,
    /// Per-worker resident-set ceiling in bytes
    /// (`FASTMON_SHARD_RSS_BYTES`); `None` disables the watchdog.
    pub rss_limit_bytes: Option<u64>,
    /// Charged respawns allowed per shard before the campaign fails
    /// (`FASTMON_SHARD_RETRIES`).
    pub max_respawns: u32,
    /// Base respawn backoff (`FASTMON_SHARD_BACKOFF_MS`), doubled per
    /// charged attempt.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Re-dispatch the last unfinished shard once its runtime exceeds
    /// this multiple of the median completed-shard wall time
    /// (`FASTMON_SHARD_STRAGGLER_FACTOR`).
    pub straggler_factor: f64,
    /// Main-loop tick (event drain / reap / watchdog cadence).
    pub poll_interval: Duration,
    /// RSS probe cadence (coarser than the main tick — `/proc` reads are
    /// cheap but not free).
    pub rss_poll_interval: Duration,
}

impl SupervisorConfig {
    /// Defaults for an `n`-way partition: concurrency = available
    /// parallelism, 60 s stall timeout, no RSS limit, 3 respawns with
    /// 200 ms base backoff capped at 5 s, straggler factor 3.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        SupervisorConfig {
            shards,
            jobs: parallelism.clamp(1, MAX_SHARDS),
            stall_timeout: Duration::from_secs(60),
            rss_limit_bytes: None,
            max_respawns: 3,
            backoff: Duration::from_millis(200),
            backoff_cap: Duration::from_secs(5),
            straggler_factor: 3.0,
            poll_interval: Duration::from_millis(25),
            rss_poll_interval: Duration::from_millis(250),
        }
    }

    /// [`SupervisorConfig::new`] overridden by the `FASTMON_SHARD_*`
    /// environment knobs, with strict parsing.
    ///
    /// # Errors
    ///
    /// [`ShardsupError::Config`] carrying the offending variable and
    /// value.
    pub fn from_env(shards: usize) -> Result<Self, ShardsupError> {
        let mut config = SupervisorConfig::new(shards);
        if let Ok(v) = std::env::var("FASTMON_SHARD_JOBS") {
            config.jobs = parse_shard_count("FASTMON_SHARD_JOBS", &v)?;
        }
        if let Ok(v) = std::env::var("FASTMON_SHARD_RSS_BYTES") {
            let bytes = parse_u64("FASTMON_SHARD_RSS_BYTES", &v)?;
            if bytes == 0 {
                return Err(config_error(
                    "FASTMON_SHARD_RSS_BYTES",
                    &v,
                    "must be positive (unset the variable to disable the watchdog)",
                ));
            }
            config.rss_limit_bytes = Some(bytes);
        }
        if let Ok(v) = std::env::var("FASTMON_SHARD_STALL_SECS") {
            let secs = parse_u64("FASTMON_SHARD_STALL_SECS", &v)?;
            if secs == 0 {
                return Err(config_error(
                    "FASTMON_SHARD_STALL_SECS",
                    &v,
                    "must be at least 1",
                ));
            }
            config.stall_timeout = Duration::from_secs(secs);
        }
        if let Ok(v) = std::env::var("FASTMON_SHARD_RETRIES") {
            config.max_respawns = parse_u64("FASTMON_SHARD_RETRIES", &v)?
                .try_into()
                .map_err(|_| config_error("FASTMON_SHARD_RETRIES", &v, "exceeds the u32 range"))?;
        }
        if let Ok(v) = std::env::var("FASTMON_SHARD_BACKOFF_MS") {
            config.backoff = Duration::from_millis(parse_u64("FASTMON_SHARD_BACKOFF_MS", &v)?);
        }
        if let Ok(v) = std::env::var("FASTMON_SHARD_RSS_POLL_MS") {
            let ms = parse_u64("FASTMON_SHARD_RSS_POLL_MS", &v)?;
            if ms == 0 {
                return Err(config_error(
                    "FASTMON_SHARD_RSS_POLL_MS",
                    &v,
                    "must be at least 1",
                ));
            }
            config.rss_poll_interval = Duration::from_millis(ms);
        }
        if let Ok(v) = std::env::var("FASTMON_SHARD_STRAGGLER_FACTOR") {
            let factor: f64 = v.trim().parse().map_err(|_| {
                config_error("FASTMON_SHARD_STRAGGLER_FACTOR", &v, "expected a number")
            })?;
            if !factor.is_finite() || factor < 1.0 {
                return Err(config_error(
                    "FASTMON_SHARD_STRAGGLER_FACTOR",
                    &v,
                    "must be a finite number >= 1",
                ));
            }
            config.straggler_factor = factor;
        }
        Ok(config)
    }
}

/// What happened inside the supervisor, for flight recorders and
/// progress displays. `Heartbeat` carries the worker's raw line plus
/// its parsed form, so forwarding costs no re-serialization.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SupervisorEvent {
    /// A worker process started (attempt 0 is the first launch).
    Spawned {
        /// Shard index.
        shard: usize,
        /// Charged attempt number at launch time.
        attempt: u32,
        /// OS process id.
        pid: u32,
    },
    /// A parseable JSON line arrived on a worker's pipe.
    Heartbeat {
        /// Shard index.
        shard: usize,
        /// The raw line as the worker wrote it.
        line: String,
        /// The parsed record.
        value: Value,
    },
    /// A worker went silent past the stall timeout and was killed.
    Stalled {
        /// Shard index.
        shard: usize,
        /// The killed pid.
        pid: u32,
        /// How long the pipe had been silent.
        silent_for: Duration,
    },
    /// A worker died (or exited) without landing its result.
    Crashed {
        /// Shard index.
        shard: usize,
        /// Charged attempts so far (including this one).
        attempt: u32,
        /// Rendered exit status.
        status: String,
    },
    /// A crashed shard is waiting out its respawn backoff.
    Backoff {
        /// Shard index.
        shard: usize,
        /// Charged attempts so far.
        attempt: u32,
        /// The delay before the next launch.
        delay: Duration,
    },
    /// The RSS watchdog SIGTERMed a worker over the memory ceiling.
    RssEvicted {
        /// Shard index.
        shard: usize,
        /// The signalled pid.
        pid: u32,
        /// Observed resident set, bytes.
        rss_bytes: u64,
        /// The configured ceiling, bytes.
        limit_bytes: u64,
    },
    /// An evicted shard was re-admitted (no retry budget charged).
    Readmitted {
        /// Shard index.
        shard: usize,
    },
    /// The last unfinished shard outlived the straggler threshold and
    /// was killed for re-dispatch (no retry budget charged).
    StragglerRedispatched {
        /// Shard index.
        shard: usize,
        /// The killed pid.
        pid: u32,
        /// Its wall time at the kill.
        elapsed: Duration,
    },
    /// A shard's result file landed and validated.
    Completed {
        /// Shard index.
        shard: usize,
    },
}

/// Counters of one supervised campaign (also mirrored into
/// `robustness.shardsup.*` when a [`MetricsRegistry`] is supplied).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Worker processes spawned (first attempts and respawns).
    pub workers_spawned: u64,
    /// Charged respawns (crashes, nonzero exits, stall kills).
    pub respawns: u64,
    /// Stall-timeout kills.
    pub stalls_detected: u64,
    /// RSS-watchdog SIGTERMs.
    pub rss_evictions: u64,
    /// Evicted shards re-admitted.
    pub readmissions: u64,
    /// Straggler re-dispatches.
    pub stragglers_redispatched: u64,
    /// Heartbeat lines parsed.
    pub heartbeats_received: u64,
    /// Shards that landed a valid result.
    pub shards_completed: u64,
    /// Largest peak resident set (`VmHWM`) any worker reported in its
    /// `shard_done` record, in bytes.
    pub worker_peak_rss_bytes: u64,
}

// -- child bookkeeping -------------------------------------------------

struct RunningShard {
    shard: usize,
    child: Child,
    pid: u32,
    started: Instant,
    last_event: Instant,
    last_rss_poll: Instant,
    /// A `shard_heartbeat` record arrived this tick: a band checkpoint
    /// has just ended, so the RSS watchdog probes now instead of waiting
    /// out its interval.
    band_ended: bool,
    /// SIGTERMed by the RSS watchdog; an `EXIT_EVICTED` exit is expected
    /// and uncharged.
    evicting: bool,
    /// SIGKILLed by the stall watchdog; the exit is charged.
    stall_killed: bool,
    /// SIGKILLed for straggler re-dispatch; the exit is uncharged.
    redispatch_killed: bool,
}

#[derive(Default)]
struct ShardState {
    /// Charged attempts consumed so far.
    attempt: u32,
    /// Earliest next launch (respawn backoff).
    not_before: Option<Instant>,
    /// Pending re-admission after an eviction (emit `Readmitted`).
    evicted: bool,
    /// The one-shot straggler re-dispatch has been used.
    redispatched: bool,
}

/// Sends `sig` to `pid`. Returns false when the signal could not be
/// delivered (dead pid, non-unix host).
pub fn send_signal(pid: u32, sig: i32) -> bool {
    #[cfg(unix)]
    {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        let Ok(pid) = i32::try_from(pid) else {
            return false;
        };
        // SAFETY: plain syscall wrapper; signalling a stale pid is
        // answered with ESRCH, not UB.
        unsafe { kill(pid, sig) == 0 }
    }
    #[cfg(not(unix))]
    {
        let _ = (pid, sig);
        false
    }
}

/// Current resident set of `pid` in bytes (`VmRSS` of
/// `/proc/<pid>/status`), `None` off Linux or for a dead pid.
#[must_use]
pub fn vm_rss_bytes(pid: u32) -> Option<u64> {
    proc_status_bytes(&pid.to_string(), "VmRSS:")
}

/// This process's peak resident set in bytes (`VmHWM` of
/// `/proc/self/status`), `None` off Linux.
#[must_use]
pub fn peak_rss_self_bytes() -> Option<u64> {
    proc_status_bytes("self", "VmHWM:")
}

/// A `kB` field of `/proc/<pid>/status`, in bytes.
fn proc_status_bytes(pid: &str, field: &str) -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        status_field_kib(&status, field).map(|kib| kib * 1024)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (pid, field);
        None
    }
}

/// The value of the `kB` line `field` (e.g. `"VmHWM:"`) in a
/// `/proc/<pid>/status` dump, in KiB; `None` when the line is absent or
/// malformed.
fn status_field_kib(status: &str, field: &str) -> Option<u64> {
    let rest = status.lines().find_map(|line| line.strip_prefix(field))?;
    rest.trim().trim_end_matches("kB").trim().parse().ok()
}

fn render_status(status: &std::process::ExitStatus) -> String {
    // `ExitStatus`'s Display already names signals on unix
    // ("signal: 9 (SIGKILL)") and codes elsewhere.
    status.to_string()
}

/// Runs one supervised campaign.
///
/// * `launch(shard, attempt)` spawns the worker process for a shard with
///   **stdout piped** (the heartbeat channel); `attempt` is the charged
///   attempt number, so chaos harnesses can arm failpoints on the first
///   attempt only.
/// * `is_complete(shard)` checks whether the shard's result file has
///   landed and validates — consulted before every (re)launch and after
///   every exit, which is what makes supervisor restarts and redundant
///   re-dispatches free.
/// * `on_event` observes every [`SupervisorEvent`] (flight recorder,
///   progress rows, chaos assertions).
/// * `cancel`, when tripped, SIGTERMs all children, waits for them and
///   returns [`ShardsupError::Cancelled`] — every shard's checkpoint
///   stays resumable.
///
/// # Errors
///
/// [`ShardsupError::Launch`] when a worker cannot be spawned,
/// [`ShardsupError::ShardFailed`] when a shard exhausts its respawn
/// budget (remaining children are terminated; their checkpoints
/// persist), [`ShardsupError::Cancelled`] on cooperative cancellation.
pub fn run(
    config: &SupervisorConfig,
    launch: &mut dyn FnMut(usize, u32) -> io::Result<Child>,
    is_complete: &mut dyn FnMut(usize) -> bool,
    on_event: &mut dyn FnMut(SupervisorEvent),
    cancel: Option<&CancelToken>,
    metrics: Option<&MetricsRegistry>,
) -> Result<SupervisorReport, ShardsupError> {
    let mut report = SupervisorReport::default();
    let shardsup = metrics.map(|m| &m.shardsup);
    let (tx, rx) = mpsc::channel::<(usize, String)>();
    let mut pending: VecDeque<usize> = (0..config.shards).collect();
    let mut states: Vec<ShardState> = (0..config.shards).map(|_| ShardState::default()).collect();
    let mut running: Vec<RunningShard> = Vec::new();
    let mut completed = vec![false; config.shards];
    let mut completed_walls: Vec<Duration> = Vec::new();

    let complete_shard = |shard: usize,
                          completed: &mut Vec<bool>,
                          report: &mut SupervisorReport,
                          on_event: &mut dyn FnMut(SupervisorEvent)| {
        if !completed[shard] {
            completed[shard] = true;
            report.shards_completed += 1;
            if let Some(s) = shardsup {
                s.shards_completed.incr();
            }
            on_event(SupervisorEvent::Completed { shard });
        }
    };

    let terminate_all = |running: &mut Vec<RunningShard>| {
        for rs in running.iter() {
            send_signal(rs.pid, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for rs in running.iter_mut() {
            loop {
                match rs.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    _ => {
                        let _ = rs.child.kill();
                        let _ = rs.child.wait();
                        break;
                    }
                }
            }
        }
        running.clear();
    };

    loop {
        // -- cooperative cancellation ---------------------------------
        if let Some(token) = cancel {
            if let Err(cancelled) = token.check("shardsup") {
                terminate_all(&mut running);
                return Err(ShardsupError::Cancelled {
                    phase: cancelled.phase,
                });
            }
        }

        // -- admission ------------------------------------------------
        while running.len() < config.jobs {
            let now = Instant::now();
            let Some(pos) = pending
                .iter()
                .position(|&s| states[s].not_before.is_none_or(|t| t <= now))
            else {
                break;
            };
            let Some(shard) = pending.remove(pos) else {
                break;
            };
            states[shard].not_before = None;
            if is_complete(shard) {
                // Landed by an earlier attempt (or a previous supervisor
                // incarnation) — nothing to run.
                complete_shard(shard, &mut completed, &mut report, on_event);
                continue;
            }
            let attempt = states[shard].attempt;
            if states[shard].evicted {
                states[shard].evicted = false;
                report.readmissions += 1;
                if let Some(s) = shardsup {
                    s.readmissions.incr();
                }
                on_event(SupervisorEvent::Readmitted { shard });
            }
            let mut child = launch(shard, attempt).map_err(|e| {
                terminate_all(&mut running);
                ShardsupError::Launch {
                    shard,
                    message: e.to_string(),
                }
            })?;
            let pid = child.id();
            let Some(stdout) = child.stdout.take() else {
                let _ = child.kill();
                let _ = child.wait();
                terminate_all(&mut running);
                return Err(ShardsupError::Launch {
                    shard,
                    message: "launch closure must pipe the worker's stdout".to_string(),
                });
            };
            let reader_tx = tx.clone();
            // Reader threads are detached on purpose: each exits at its
            // pipe's EOF (worker exit), and a send into a dropped channel
            // is a silently ignored error.
            std::thread::spawn(move || {
                let reader = BufReader::new(stdout);
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    if reader_tx.send((shard, line)).is_err() {
                        break;
                    }
                }
            });
            report.workers_spawned += 1;
            if let Some(s) = shardsup {
                s.workers_spawned.incr();
            }
            on_event(SupervisorEvent::Spawned {
                shard,
                attempt,
                pid,
            });
            let now = Instant::now();
            running.push(RunningShard {
                shard,
                child,
                pid,
                started: now,
                last_event: now,
                last_rss_poll: now,
                band_ended: false,
                evicting: false,
                stall_killed: false,
                redispatch_killed: false,
            });
        }

        if running.is_empty() && pending.is_empty() {
            break;
        }

        // -- heartbeat drain ------------------------------------------
        // One blocking receive bounds the loop cadence; the rest of the
        // queue drains without blocking.
        let mut lines: Vec<(usize, String)> = Vec::new();
        if running.is_empty() {
            // everything pending is in backoff — just wait a tick
            std::thread::sleep(config.poll_interval);
        } else {
            match rx.recv_timeout(config.poll_interval) {
                Ok(first) => lines.push(first),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {}
            }
            while let Ok(more) = rx.try_recv() {
                lines.push(more);
            }
        }
        for (shard, line) in lines {
            match json::parse(&line) {
                Ok(value) => {
                    report.heartbeats_received += 1;
                    if let Some(s) = shardsup {
                        s.heartbeats_received.incr();
                    }
                    let event = value.get("event").and_then(Value::as_str);
                    if let Some(rs) = running.iter_mut().find(|rs| rs.shard == shard) {
                        rs.last_event = Instant::now();
                        rs.band_ended |= event == Some("shard_heartbeat");
                    }
                    if event == Some("shard_done") {
                        if let Some(peak) = value.get("peak_rss_bytes").and_then(Value::as_u64) {
                            report.worker_peak_rss_bytes = report.worker_peak_rss_bytes.max(peak);
                        }
                    }
                    on_event(SupervisorEvent::Heartbeat { shard, line, value });
                }
                Err(_) => {
                    // Non-protocol noise on the pipe is not liveness: a
                    // worker spinning garbage must still stall out.
                }
            }
        }

        // -- reap + watchdogs -----------------------------------------
        let mut i = 0;
        while i < running.len() {
            let exited = match running[i].child.try_wait() {
                Ok(Some(status)) => Some(status),
                Ok(None) => None,
                Err(_) => {
                    // Treat an unreadable child as exited-by-signal.
                    let _ = running[i].child.kill();
                    running[i].child.wait().ok()
                }
            };
            let Some(status) = exited else {
                let rs = &mut running[i];
                let now = Instant::now();
                // Stall watchdog: silence past the timeout means a hung
                // worker (armed failpoint, livelock, swapped-out host).
                if !rs.stall_killed
                    && !rs.redispatch_killed
                    && now.duration_since(rs.last_event) > config.stall_timeout
                {
                    let silent_for = now.duration_since(rs.last_event);
                    let _ = rs.child.kill();
                    rs.stall_killed = true;
                    report.stalls_detected += 1;
                    if let Some(s) = shardsup {
                        s.stalls_detected.incr();
                    }
                    on_event(SupervisorEvent::Stalled {
                        shard: rs.shard,
                        pid: rs.pid,
                        silent_for,
                    });
                }
                // RSS watchdog: SIGTERM over the ceiling; the worker
                // checkpoints at the next band boundary and exits 75. It
                // probes every `rss_poll_interval` and on the tick that
                // delivers a band heartbeat, so a worker whose bands are
                // shorter than the interval is still probed between bands.
                let band_ended = std::mem::take(&mut rs.band_ended);
                if let Some(limit) = config.rss_limit_bytes {
                    if !rs.evicting
                        && !rs.stall_killed
                        && (band_ended
                            || now.duration_since(rs.last_rss_poll) >= config.rss_poll_interval)
                    {
                        rs.last_rss_poll = now;
                        if let Some(rss) = vm_rss_bytes(rs.pid) {
                            if rss > limit {
                                send_signal(rs.pid, SIGTERM);
                                rs.evicting = true;
                                report.rss_evictions += 1;
                                if let Some(s) = shardsup {
                                    s.rss_evictions.incr();
                                }
                                on_event(SupervisorEvent::RssEvicted {
                                    shard: rs.shard,
                                    pid: rs.pid,
                                    rss_bytes: rss,
                                    limit_bytes: limit,
                                });
                            }
                        }
                    }
                }
                i += 1;
                continue;
            };

            let rs = running.swap_remove(i);
            let shard = rs.shard;
            if is_complete(shard) {
                completed_walls.push(rs.started.elapsed());
                complete_shard(shard, &mut completed, &mut report, on_event);
                continue;
            }
            let evicted_cleanly =
                rs.evicting && status.code() == Some(EXIT_EVICTED) && !rs.stall_killed;
            if evicted_cleanly || rs.redispatch_killed {
                // Uncharged requeue: cooperative eviction checkpointed at
                // a band boundary; a straggler kill resumes from its own
                // checkpoint (or returns instantly off the landed
                // result). Queued at the back so other shards get the
                // freed slot first.
                states[shard].evicted = evicted_cleanly;
                pending.push_back(shard);
                continue;
            }
            if status.code() == Some(EXIT_REFUSED) {
                // The worker cannot rebuild this campaign; a respawn
                // would refuse again.
                terminate_all(&mut running);
                return Err(ShardsupError::ShardFailed {
                    shard,
                    attempts: states[shard].attempt + 1,
                    last: render_status(&status),
                });
            }
            // Charged crash: nonzero exit, kill -9, OOM-kill, stall kill,
            // or a "clean" exit that landed nothing.
            states[shard].attempt += 1;
            let attempt = states[shard].attempt;
            report.respawns += 1;
            if let Some(s) = shardsup {
                s.respawns.incr();
            }
            on_event(SupervisorEvent::Crashed {
                shard,
                attempt,
                status: render_status(&status),
            });
            if attempt > config.max_respawns {
                terminate_all(&mut running);
                return Err(ShardsupError::ShardFailed {
                    shard,
                    attempts: attempt, // one launch per charged crash
                    last: render_status(&status),
                });
            }
            let exp = attempt.saturating_sub(1).min(16);
            let delay = config
                .backoff
                .saturating_mul(1u32 << exp)
                .min(config.backoff_cap);
            states[shard].not_before = Some(Instant::now() + delay);
            on_event(SupervisorEvent::Backoff {
                shard,
                attempt,
                delay,
            });
            pending.push_back(shard);
        }

        // -- straggler re-dispatch ------------------------------------
        // Only when exactly one shard remains, it has run conspicuously
        // longer than the median completed shard, and it has not been
        // re-dispatched before. The respawn resumes from the shard's own
        // checkpoint, so the kill never loses more than one band.
        if pending.is_empty() && running.len() == 1 && !completed_walls.is_empty() {
            let rs = &mut running[0];
            if !states[rs.shard].redispatched && !rs.stall_killed && !rs.redispatch_killed {
                let mut walls = completed_walls.clone();
                walls.sort_unstable();
                let median = walls[walls.len() / 2];
                let threshold = median.mul_f64(config.straggler_factor.max(1.0));
                let elapsed = rs.started.elapsed();
                if elapsed > threshold {
                    let _ = rs.child.kill();
                    rs.redispatch_killed = true;
                    states[rs.shard].redispatched = true;
                    report.stragglers_redispatched += 1;
                    if let Some(s) = shardsup {
                        s.stragglers_redispatched.incr();
                    }
                    on_event(SupervisorEvent::StragglerRedispatched {
                        shard: rs.shard,
                        pid: rs.pid,
                        elapsed,
                    });
                }
            }
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tfoo\nVmPeak:\t  999 kB\nVmHWM:\t  12345 kB\nVmRSS:\t    678 kB\n";

    #[test]
    fn status_fields_parse_in_kib() {
        assert_eq!(status_field_kib(STATUS, "VmHWM:"), Some(12345));
        assert_eq!(status_field_kib(STATUS, "VmRSS:"), Some(678));
        assert_eq!(status_field_kib("Name:\tfoo\n", "VmHWM:"), None);
        assert_eq!(status_field_kib("Name:\tfoo\n", "VmRSS:"), None);
        assert_eq!(status_field_kib("VmRSS:\t lots kB\n", "VmRSS:"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn status_probes_report_bytes() {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let hwm_kib = status_field_kib(&status, "VmHWM:").unwrap();
        let rss = vm_rss_bytes(std::process::id()).unwrap();
        let peak = peak_rss_self_bytes().unwrap();
        // The peak only grows between the reads, and by far less than
        // the ×1024 a unit slip would add.
        assert!(peak >= hwm_kib * 1024 && peak < (hwm_kib + 1024 * 1024) * 1024);
        assert!(rss > 0 && rss <= peak);
    }
}
