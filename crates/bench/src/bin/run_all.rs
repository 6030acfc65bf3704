//! Runs every table/figure regenerator in sequence (Fig. 3, Tables I–III),
//! isolating each in its own child process.
//!
//! ```text
//! cargo run --release -p fastmon-bench --bin run_all
//! ```
//!
//! A crashing, failing or hung experiment does **not** abort the campaign:
//! the driver records the outcome (with the tail of the child's stderr) in
//! `RUN_MANIFEST.json`, moves on to the next experiment, and only at the
//! end exits nonzero if anything failed.
//!
//! Timeouts escalate gracefully: every child is handed the per-child
//! timeout as a *soft* deadline (`FASTMON_DEADLINE_SECS`), so a
//! well-behaved child stops cooperatively at a checkpoint boundary and
//! exits with the `cancelled` code — the manifest records it as
//! `cancelled` (artifacts trustworthy). Only a child that also overruns
//! the grace period is killed and recorded as `timed-out` (artifacts
//! suspect). Environment knobs:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `FASTMON_RUN_ALL_BINS` | comma-separated child list (names are resolved next to this binary; entries with a path separator are used verbatim) | `fig3,table1,table2,table3` |
//! | `FASTMON_RUN_ALL_TIMEOUT_SECS` | per-child soft deadline in seconds | `3600` |
//! | `FASTMON_RUN_ALL_GRACE_SECS` | extra seconds a soft-cancelled child gets before being killed | `30` |
//! | `FASTMON_MANIFEST` | manifest output path | `RUN_MANIFEST.json` |
//!
//! A timeout or grace that is not an unsigned decimal integer makes
//! `run_all` exit with code 2 and a one-line `key=value: reason`
//! diagnostic before any child runs.
//!
//! `FASTMON_SHARD_PROCS=1` (with `FASTMON_SHARDS=N`) is inherited by every
//! child, so each experiment's campaign runs as `N` supervised shard
//! processes ([`fastmon_bench::shardsup`]); the soft deadline still works —
//! the child's supervisor SIGTERMs its workers, which checkpoint and exit
//! cooperatively.
//!
//! Telemetry: every child runs with `FASTMON_PROFILE_OUT` pointing at a
//! per-child file under `<manifest dir>/fastmon-profiles/`; the driver
//! validates each report against the profile schema and folds it into the
//! child's manifest entry (`"profile"`). When the driver itself is launched
//! with `FASTMON_TRACE=1`, each child additionally gets its own
//! `FASTMON_TRACE_DIR` subdirectory (`<trace dir>/<child>/events.jsonl`)
//! so concurrent event logs never collide.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use fastmon_bench::manifest::{write_manifest, RunOutcome, RunRecord};
use fastmon_bench::{integer_knob, EXIT_CANCELLED};
use fastmon_core::ShardsupError;

/// How many trailing stderr lines each manifest entry keeps.
const STDERR_TAIL_LINES: usize = 20;

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let bins: Vec<String> = match std::env::var("FASTMON_RUN_ALL_BINS") {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .collect(),
        Err(_) => ["fig3", "table1", "table2", "table3"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
    };
    let (timeout, grace) = match deadlines() {
        Ok(deadlines) => deadlines,
        Err(e) => {
            eprintln!("[run_all] invalid configuration: {e}");
            return 2;
        }
    };
    let manifest_path = PathBuf::from(
        std::env::var("FASTMON_MANIFEST").unwrap_or_else(|_| "RUN_MANIFEST.json".into()),
    );

    // Resolving siblings needs our own path; if that fails we fall back to
    // PATH lookup per child instead of giving up on the whole campaign.
    let bin_dir: Option<PathBuf> = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf));

    let profile_dir = manifest_path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(
            || PathBuf::from("fastmon-profiles"),
            |p| p.join("fastmon-profiles"),
        );

    let mut records: Vec<RunRecord> = Vec::with_capacity(bins.len());
    for name in &bins {
        println!("\n==================== {name} ====================\n");
        let record = run_child(name, bin_dir.as_deref(), timeout, grace, &profile_dir);
        match &record.outcome {
            RunOutcome::Success => {
                eprintln!("[run_all] {name}: ok ({:.1}s)", record.duration_secs);
            }
            RunOutcome::Failed { exit_code } => {
                eprintln!(
                    "[run_all] {name}: FAILED (exit code {:?}, {:.1}s) — continuing",
                    exit_code, record.duration_secs
                );
            }
            RunOutcome::Cancelled { deadline_secs } => {
                eprintln!(
                    "[run_all] {name}: CANCELLED at the {deadline_secs}s soft deadline \
                     (checkpoint flushed, {:.1}s) — continuing",
                    record.duration_secs
                );
            }
            RunOutcome::TimedOut { limit_secs } => {
                eprintln!(
                    "[run_all] {name}: TIMED OUT after {limit_secs}s + grace (killed) — continuing"
                );
            }
            RunOutcome::LaunchFailed { message } => {
                eprintln!("[run_all] {name}: LAUNCH FAILED ({message}) — continuing");
            }
        }
        records.push(record);
    }

    // Every child has been reaped by now, so RUSAGE_CHILDREN reflects the
    // hungriest experiment of the whole campaign.
    if let Some(bytes) = fastmon_bench::rss::peak_rss_children_bytes() {
        eprintln!(
            "[run_all] peak child RSS across the campaign: {}",
            fastmon_bench::rss::format_mib(bytes)
        );
    }

    let failures: Vec<&RunRecord> = records.iter().filter(|r| !r.outcome.is_success()).collect();
    let mut exit = i32::from(!failures.is_empty());
    match write_manifest(&manifest_path, &records) {
        Ok(()) => {
            eprintln!(
                "[run_all] manifest written to {} ({} run(s), {} failure(s))",
                manifest_path.display(),
                records.len(),
                failures.len()
            );
        }
        Err(e) => {
            eprintln!(
                "[run_all] cannot write manifest {}: {e}",
                manifest_path.display()
            );
            exit = 1;
        }
    }
    for r in &failures {
        eprintln!(
            "[run_all] failed experiment: {} ({})",
            r.name,
            r.outcome.tag()
        );
    }
    exit
}

/// The per-child soft deadline and the grace a soft-cancelled child gets
/// before it is killed.
fn deadlines() -> Result<(Duration, Duration), ShardsupError> {
    let timeout = integer_knob("FASTMON_RUN_ALL_TIMEOUT_SECS", 3600)?;
    let grace = integer_knob("FASTMON_RUN_ALL_GRACE_SECS", 30)?;
    Ok((Duration::from_secs(timeout), Duration::from_secs(grace)))
}

/// Resolves a child entry: entries containing a path separator are used
/// verbatim; bare names are looked up next to this binary, falling back to
/// the bare name (PATH lookup) if no sibling exists.
fn resolve(name: &str, bin_dir: Option<&Path>) -> PathBuf {
    if name.contains(std::path::MAIN_SEPARATOR) || name.contains('/') {
        return PathBuf::from(name);
    }
    if let Some(dir) = bin_dir {
        let sibling = dir.join(name);
        if sibling.exists() {
            return sibling;
        }
    }
    PathBuf::from(name)
}

/// A child name flattened into a safe file-name component.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// True when the driver itself was launched with tracing on, in which case
/// each child gets a private `FASTMON_TRACE_DIR` subdirectory.
fn tracing_requested() -> bool {
    std::env::var("FASTMON_TRACE").is_ok_and(|v| {
        let v = v.trim();
        !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false")
    })
}

/// Reads and validates a child's `FASTMON_PROFILE_OUT` report. Returns the
/// raw one-line JSON only if it parses and carries the expected schema
/// version — a half-written or foreign file is dropped, never embedded.
fn read_profile(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let value = fastmon_obs::json::parse(text.trim()).ok()?;
    let version = value
        .get("schema_version")
        .and_then(fastmon_obs::json::Value::as_u64)?;
    if version != u64::from(fastmon_obs::profile::PROFILE_SCHEMA_VERSION) {
        eprintln!(
            "[run_all] {} has profile schema {version}, expected {}; dropping",
            path.display(),
            fastmon_obs::profile::PROFILE_SCHEMA_VERSION
        );
        return None;
    }
    value.get("phases")?;
    Some(text.trim().to_owned())
}

/// Runs one child to completion (or timeout), capturing its stderr tail
/// and per-phase profile report.
fn run_child(
    name: &str,
    bin_dir: Option<&Path>,
    timeout: Duration,
    grace: Duration,
    profile_dir: &Path,
) -> RunRecord {
    let program = resolve(name, bin_dir);
    let profile_path = profile_dir.join(format!("{}.profile.json", sanitize(name)));
    // stale reports from a previous campaign must not be attributed to
    // this run
    let _ = std::fs::remove_file(&profile_path);
    if let Err(e) = std::fs::create_dir_all(profile_dir) {
        eprintln!(
            "[run_all] cannot create profile dir {}: {e}; child profiles disabled",
            profile_dir.display()
        );
    }
    let mut command = Command::new(&program);
    command
        .stdout(Stdio::inherit())
        .stderr(Stdio::piped())
        .env("FASTMON_PROFILE_OUT", &profile_path);
    // Soft-cancel escalation: the child gets the timeout as a cooperative
    // deadline so it can stop at a checkpoint boundary and exit cleanly;
    // the hard kill below only fires after the extra grace period. An
    // explicitly exported FASTMON_DEADLINE_SECS wins over this policy.
    if std::env::var_os("FASTMON_DEADLINE_SECS").is_none() {
        command.env("FASTMON_DEADLINE_SECS", format!("{}", timeout.as_secs()));
    }
    if tracing_requested() {
        let base =
            std::env::var_os("FASTMON_TRACE_DIR").map_or_else(|| PathBuf::from("."), PathBuf::from);
        command.env("FASTMON_TRACE_DIR", base.join(sanitize(name)));
    }
    let start = Instant::now();
    let mut child = match command.spawn() {
        Ok(c) => c,
        Err(e) => {
            return RunRecord {
                name: name.to_owned(),
                outcome: RunOutcome::LaunchFailed {
                    message: format!("{}: {e}", program.display()),
                },
                duration_secs: 0.0,
                stderr_tail: Vec::new(),
                profile: None,
            };
        }
    };

    // Drain the child's stderr on a helper thread: tee it through to our
    // own stderr while keeping a bounded tail for the manifest. Draining
    // concurrently also keeps a chatty child from blocking on a full pipe.
    let (tail_tx, tail_rx) = std::sync::mpsc::channel();
    if let Some(pipe) = child.stderr.take() {
        std::thread::spawn(move || {
            let _ = tail_tx.send(tee_stderr(pipe));
        });
    }

    let mut soft_deadline_logged = false;
    let outcome = loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                break if status.success() {
                    RunOutcome::Success
                } else if status.code() == Some(EXIT_CANCELLED) {
                    RunOutcome::Cancelled {
                        deadline_secs: timeout.as_secs(),
                    }
                } else {
                    RunOutcome::Failed {
                        exit_code: status.code(),
                    }
                };
            }
            Ok(None) => {
                if start.elapsed() > timeout + grace {
                    let _ = child.kill();
                    let _ = child.wait();
                    break RunOutcome::TimedOut {
                        limit_secs: timeout.as_secs(),
                    };
                }
                if start.elapsed() > timeout && !soft_deadline_logged {
                    soft_deadline_logged = true;
                    eprintln!(
                        "[run_all] {name}: past the {}s soft deadline; waiting up to {}s \
                         for a cooperative stop before killing",
                        timeout.as_secs(),
                        grace.as_secs()
                    );
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break RunOutcome::LaunchFailed {
                    message: format!("wait on {name}: {e}"),
                };
            }
        }
    };
    let duration_secs = start.elapsed().as_secs_f64();

    // Bounded wait: an orphaned grandchild can keep the stderr pipe open
    // after the child is dead/killed, so never block indefinitely on the
    // tee thread (it is detached and dies with the driver).
    let stderr_tail = match tail_rx.recv_timeout(Duration::from_secs(2)) {
        Ok(tail) => tail,
        Err(_) => vec!["<stderr tail unavailable>".to_owned()],
    };

    RunRecord {
        name: name.to_owned(),
        outcome,
        duration_secs,
        stderr_tail,
        profile: read_profile(&profile_path),
    }
}

/// Copies `pipe` to this process's stderr, returning its last
/// [`STDERR_TAIL_LINES`] lines (bounded memory: only the final 16 KiB are
/// retained).
fn tee_stderr(mut pipe: impl std::io::Read) -> Vec<String> {
    const TAIL_BYTES: usize = 16 * 1024;
    let mut tail: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut err = std::io::stderr();
    loop {
        match pipe.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                let _ = err.write_all(&chunk[..n]);
                tail.extend_from_slice(&chunk[..n]);
                if tail.len() > TAIL_BYTES {
                    let cut = tail.len() - TAIL_BYTES;
                    tail.drain(..cut);
                }
            }
        }
    }
    let text = String::from_utf8_lossy(&tail);
    let mut lines: Vec<String> = text
        .lines()
        .rev()
        .take(STDERR_TAIL_LINES)
        .map(str::to_owned)
        .collect();
    lines.reverse();
    lines
}
