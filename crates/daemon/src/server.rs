//! The `fastmond` server: accept loop, connection handlers, worker pool,
//! graceful drain.
//!
//! Threading model: one nonblocking accept loop polling the drain flag,
//! one thread per connection (bounded by the OS, connections are cheap
//! and mostly blocked on reads), and a fixed worker pool popping the
//! bounded [`JobQueue`]. Submission is admission-controlled — a full
//! queue answers a typed reject record instead of blocking the
//! connection.
//!
//! Drain (SIGTERM / [`DaemonHandle::drain`]): stop accepting, stop
//! admitting, cancel every running job's [`CancelToken`] so campaigns
//! stop at their next durable band checkpoint, hand queued-but-unstarted
//! jobs a `drained` terminal record, then exit 0. Nothing is lost: every
//! cancelled campaign resumes bit-identically from its checkpoint.
//!
//! Worker panics are contained per job with `catch_unwind`: the client
//! gets a `failed` terminal record with `kind:"panic"`, the counter
//! `robustness.daemon.panics_contained` ticks, and the worker thread
//! survives to take the next job.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fastmon_core::{CampaignProgress, CheckpointDir};
use fastmon_obs::{CancelToken, MetricsRegistry, Record};

use crate::flight::FlightRecorder;
use crate::job::{run_job, JobEvent};
use crate::proto::{self, JobRequest, ProtoError, Request, MAX_LINE_BYTES};
use crate::queue::JobQueue;
use crate::signals;

/// How a daemon instance is wired up.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Campaign worker threads.
    pub workers: usize,
    /// Queue capacity — submissions beyond this are rejected, not
    /// queued.
    pub queue_limit: usize,
    /// Root of the per-campaign checkpoint directories.
    pub checkpoint_root: PathBuf,
    /// Where completed results land (`<fingerprint>.json`).
    pub results_dir: PathBuf,
    /// GC grace period: checkpoints younger than this are never
    /// collected, protecting queued and freshly-crashed campaigns whose
    /// fingerprints the daemon cannot know yet.
    pub gc_grace: Duration,
    /// Where failed/panicked jobs dump their flight-recorder
    /// post-mortems (`<name>-<job id>.jsonl`).
    pub postmortem_dir: PathBuf,
}

impl DaemonConfig {
    /// A config rooted at `dir` (checkpoints and results underneath),
    /// listening on an ephemeral localhost port.
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        DaemonConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_limit: 16,
            checkpoint_root: dir.join("checkpoints"),
            results_dir: dir.join("results"),
            gc_grace: Duration::from_secs(900),
            postmortem_dir: dir.join("postmortems"),
        }
    }
}

/// A job as queued: the parsed request plus the event channel back to
/// the submitting connection.
struct QueuedJob {
    req: Box<JobRequest>,
    events: Sender<WorkerMsg>,
}

enum WorkerMsg {
    /// A progress record line.
    Line(String),
    /// The final record line; the connection stops streaming after it.
    Terminal(String),
}

/// Live state of one supervised shard of a `"shard_procs"` job, kept
/// current from forwarded [`JobEvent::Shard`] rows for the `observe`
/// snapshot.
struct ShardRow {
    shard: u64,
    /// Last supervisor observation (`spawned`, `heartbeat`, `stalled`,
    /// `rss_evicted`, `completed`, ...).
    state: &'static str,
    /// Charged respawns so far.
    respawns: u64,
    /// First pattern still unsimulated within the shard's slice.
    next_pattern: u64,
    /// Patterns in the shard's slice (0 until the worker reports).
    total_patterns: u64,
}

/// Live state of one in-flight job, kept current by `run_one`'s event
/// callback so `observe` can report phase/band progress without touching
/// the worker.
struct RunningJob {
    id: u64,
    tenant: String,
    name: String,
    cancel: CancelToken,
    fingerprint: Option<u64>,
    phase: &'static str,
    /// First pattern still unsimulated (0 until the campaign reports).
    next_pattern: u64,
    /// Total patterns in the campaign (0 until known).
    total_patterns: u64,
    /// Band checkpoints that reached disk during *this* run.
    bands_done: u64,
    /// Where this run started simulating (nonzero after a resume) — the
    /// ETA extrapolates from patterns done by this process, not by its
    /// predecessors.
    start_pattern: u64,
    resumed: bool,
    started: Instant,
    /// Per-shard supervisor state (`"shard_procs"` jobs only; empty
    /// otherwise).
    shards: Vec<ShardRow>,
}

struct Running {
    jobs: Vec<RunningJob>,
    next_id: u64,
}

struct Shared {
    queue: JobQueue<QueuedJob>,
    metrics: Arc<MetricsRegistry>,
    running: Mutex<Running>,
    checkpoints: CheckpointDir,
    results_dir: PathBuf,
    gc_grace: Duration,
    postmortems: PathBuf,
    started: Instant,
    drain: AtomicBool,
}

impl Shared {
    fn lock_running(&self) -> std::sync::MutexGuard<'_, Running> {
        self.running.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst) || signals::drain_requested()
    }

    /// Idempotent: flips the flag, closes admissions, cancels running
    /// campaigns (they stop at their next durable checkpoint).
    fn start_drain(&self) {
        if self.drain.swap(true, Ordering::SeqCst) {
            return;
        }
        self.metrics.daemon.drains.incr();
        self.queue.start_drain();
        for job in &self.lock_running().jobs {
            job.cancel.cancel();
        }
    }

    /// Runs `update` on the live entry for job `id`, if it still exists.
    fn update_job(&self, id: u64, update: impl FnOnce(&mut RunningJob)) {
        let mut running = self.lock_running();
        if let Some(job) = running.jobs.iter_mut().find(|j| j.id == id) {
            update(job);
        }
    }
}

/// A started daemon; dropping the handle does **not** stop it — call
/// [`DaemonHandle::drain`] then [`DaemonHandle::join`].
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's metrics registry
    /// (`robustness.daemon.*` counters live here).
    #[must_use]
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.metrics)
    }

    /// Requests a graceful drain (same effect as SIGTERM).
    pub fn drain(&self) {
        self.shared.start_drain();
    }

    /// Waits for the accept loop and worker pool to finish. Returns only
    /// after a drain was requested (via [`DaemonHandle::drain`] or a
    /// signal).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The daemon. See [`Daemon::start`].
pub struct Daemon;

impl Daemon {
    /// Binds the listen socket, spawns the worker pool and the accept
    /// loop, and returns a handle.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn start(config: DaemonConfig) -> std::io::Result<DaemonHandle> {
        let listener = TcpListener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_limit),
            metrics: Arc::new(MetricsRegistry::new()),
            running: Mutex::new(Running {
                jobs: Vec::new(),
                next_id: 0,
            }),
            checkpoints: CheckpointDir::new(config.checkpoint_root),
            results_dir: config.results_dir,
            gc_grace: config.gc_grace,
            postmortems: config.postmortem_dir,
            started: Instant::now(),
            drain: AtomicBool::new(false),
        });

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fastmond-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fastmond-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };

        Ok(DaemonHandle {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if shared.draining() {
            // Signal-delivered drains bypass Shared::start_drain; make
            // sure the queue and running jobs hear about it exactly once.
            shared.start_drain();
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("fastmond-conn".to_string())
                    .spawn(move || handle_connection(stream, &shared))
                {
                    conns.push(handle);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((job, wait)) = shared.queue.pop_timed() {
        shared.metrics.latency.queue_wait.record_duration(wait);
        if shared.draining() {
            // Queued but never started: refuse cleanly so the client
            // knows to resubmit after restart.
            let line = Record::new()
                .str("event", "terminal")
                .str("status", "drained")
                .str("name", &job.req.name)
                .finish();
            let _ = job.events.send(WorkerMsg::Terminal(line));
            continue;
        }
        run_one(shared, &job);
    }
}

fn run_one(shared: &Arc<Shared>, job: &QueuedJob) {
    // parse_submit already rejects deadlines Duration cannot represent;
    // fall back to an unbounded token rather than trusting that (this
    // runs outside catch_unwind — a panic here would kill the worker).
    let cancel = match job
        .req
        .deadline_secs
        .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
    {
        Some(budget) => CancelToken::with_deadline(budget),
        None => CancelToken::new(),
    };
    let id = {
        let mut running = shared.lock_running();
        running.next_id += 1;
        let id = running.next_id;
        running.jobs.push(RunningJob {
            id,
            tenant: job.req.tenant.clone(),
            name: job.req.name.clone(),
            cancel: cancel.clone(),
            fingerprint: None,
            phase: "queued",
            next_pattern: 0,
            total_patterns: 0,
            bands_done: 0,
            start_pattern: 0,
            resumed: false,
            started: Instant::now(),
            shards: Vec::new(),
        });
        id
    };
    if shared.draining() {
        cancel.cancel();
    }

    let flight = FlightRecorder::new(64);
    flight.note(
        "start",
        format!("tenant={} name={}", job.req.tenant, job.req.name),
    );
    let failpoints_seen = std::cell::Cell::new(fastmon_obs::failpoints::fired_count());
    let fingerprint = std::cell::Cell::new(None::<u64>);
    let send = |line: String| {
        // The client may be gone; the campaign still runs to its result.
        let _ = job.events.send(WorkerMsg::Line(line));
    };
    // Failpoints are process-global; per-band deltas attribute them to
    // the job that observed them, which is exact with one worker and a
    // close approximation under concurrency — good enough for a
    // post-mortem trail.
    let note_failpoints = || {
        let now = fastmon_obs::failpoints::fired_count();
        let before = failpoints_seen.replace(now);
        if now > before {
            flight.note(
                "failpoint",
                format!("fired={} (process total)", now - before),
            );
        }
    };
    let t_run = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut on_event = |event: JobEvent| match event {
            JobEvent::Phase { phase } => {
                flight.note("phase", phase);
                shared.update_job(id, |j| j.phase = phase);
                send(
                    Record::new()
                        .str("event", "phase")
                        .str("name", &job.req.name)
                        .str("phase", phase)
                        .finish(),
                );
            }
            JobEvent::Campaign { fingerprint: fp } => {
                fingerprint.set(Some(fp));
                flight.note("campaign", format!("fingerprint={fp:016x}"));
                shared.update_job(id, |j| j.fingerprint = Some(fp));
                send(
                    Record::new()
                        .str("event", "campaign")
                        .str("name", &job.req.name)
                        .fingerprint("fingerprint", fp)
                        .finish(),
                );
            }
            JobEvent::Progress(CampaignProgress::Resumed {
                next_pattern,
                total_patterns,
                prev_run,
            }) => {
                flight.note(
                    "resumed",
                    match prev_run {
                        Some(prev) => {
                            format!("next_pattern={next_pattern} prev_run={prev:016x}")
                        }
                        None => format!("next_pattern={next_pattern}"),
                    },
                );
                shared.update_job(id, |j| {
                    j.resumed = true;
                    j.next_pattern = next_pattern as u64;
                    j.start_pattern = next_pattern as u64;
                    j.total_patterns = total_patterns as u64;
                });
                let mut rec = Record::new()
                    .str("event", "resumed")
                    .str("name", &job.req.name)
                    .u64("next_pattern", next_pattern as u64)
                    .u64("total_patterns", total_patterns as u64);
                if let Some(prev) = prev_run {
                    rec = rec.fingerprint("prev_run", prev);
                }
                send(rec.finish());
            }
            JobEvent::Progress(CampaignProgress::BandCheckpointed {
                next_pattern,
                total_patterns,
            }) => {
                note_failpoints();
                flight.note(
                    "band",
                    format!("next_pattern={next_pattern} total_patterns={total_patterns}"),
                );
                shared.update_job(id, |j| {
                    j.next_pattern = next_pattern as u64;
                    j.total_patterns = total_patterns as u64;
                    j.bands_done += 1;
                });
                send(
                    Record::new()
                        .str("event", "band")
                        .str("name", &job.req.name)
                        .u64("next_pattern", next_pattern as u64)
                        .u64("total_patterns", total_patterns as u64)
                        .finish(),
                );
            }
            JobEvent::Shard {
                shard,
                kind,
                respawns,
                next_pattern,
                total_patterns,
            } => {
                // Band-granularity heartbeats are routine; everything
                // else (spawns, stalls, crashes, evictions) is a
                // supervisor decision worth a post-mortem trail entry.
                if kind != "heartbeat" {
                    note_failpoints();
                    flight.note("shard", format!("shard={shard} {kind} respawns={respawns}"));
                }
                shared.update_job(id, |j| {
                    // Upsert keeping the rows sorted by shard index.
                    let pos = j.shards.partition_point(|r| r.shard < shard as u64);
                    if j.shards.get(pos).map(|r| r.shard) != Some(shard as u64) {
                        j.shards.insert(
                            pos,
                            ShardRow {
                                shard: shard as u64,
                                state: "pending",
                                respawns: 0,
                                next_pattern: 0,
                                total_patterns: 0,
                            },
                        );
                    }
                    let row = &mut j.shards[pos];
                    row.state = kind;
                    row.respawns = respawns;
                    if next_pattern > 0 || total_patterns > 0 {
                        row.next_pattern = next_pattern;
                        row.total_patterns = total_patterns;
                    }
                });
                send(
                    Record::new()
                        .str("event", "shard")
                        .str("name", &job.req.name)
                        .u64("shard", shard as u64)
                        .str("kind", kind)
                        .u64("respawns", respawns)
                        .u64("next_pattern", next_pattern)
                        .u64("total_patterns", total_patterns)
                        .finish(),
                );
            }
        };
        run_job(
            &job.req,
            &shared.checkpoints,
            &shared.results_dir,
            &cancel,
            Some(shared.metrics.as_ref()),
            &mut on_event,
        )
    }));
    shared
        .metrics
        .latency
        .job_run
        .record_duration(t_run.elapsed());
    note_failpoints();

    let metrics = &shared.metrics.daemon;
    // (terminal record, terminal status + error kind when the flight
    // recorder should dump a post-mortem)
    let (terminal, crashed) = match result {
        Ok(Ok(outcome)) => {
            metrics.jobs_completed.incr();
            if outcome.resumed {
                metrics.jobs_resumed.incr();
            }
            let line = outcome
                .fields(
                    Record::new()
                        .str("event", "terminal")
                        .str("status", "completed"),
                    &job.req.name,
                )
                .finish();
            (line, None)
        }
        Ok(Err(err)) => {
            let status = if matches!(err.kind(), "cancelled") {
                metrics.jobs_cancelled.incr();
                "cancelled"
            } else {
                metrics.jobs_failed.incr();
                "failed"
            };
            let message = err.to_string();
            flight.note("error", format!("kind={} {message}", err.kind()));
            let mut rec = Record::new()
                .str("event", "terminal")
                .str("status", status)
                .str("name", &job.req.name)
                .str("kind", err.kind())
                .str("message", &message)
                .bool("resumable", err.resumable());
            let crashed = (status == "failed").then(|| ("failed", err.kind()));
            if crashed.is_some() {
                rec = rec.raw("flight_recorder", &flight.to_json_array());
            }
            (rec.finish(), crashed)
        }
        Err(panic) => {
            metrics.panics_contained.incr();
            metrics.jobs_failed.incr();
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            flight.note("error", format!("panic: {message}"));
            let line = Record::new()
                .str("event", "terminal")
                .str("status", "failed")
                .str("name", &job.req.name)
                .str("kind", "panic")
                .str("message", &message)
                .bool("resumable", true)
                .raw("flight_recorder", &flight.to_json_array())
                .finish();
            (line, Some(("failed", "panic")))
        }
    };
    if let Some((status, kind)) = crashed {
        write_postmortem(shared, job, id, &flight, status, kind);
    }
    let _ = job.events.send(WorkerMsg::Terminal(terminal));

    shared.lock_running().jobs.retain(|j| j.id != id);
}

/// Dumps a crashed job's flight-recorder tail to
/// `<postmortem_dir>/<name>-<job id>.jsonl`. Best-effort: a failed dump
/// is reported on stderr, never escalated.
fn write_postmortem(
    shared: &Shared,
    job: &QueuedJob,
    id: u64,
    flight: &FlightRecorder,
    status: &str,
    kind: &str,
) {
    let safe_name: String = job
        .req
        .name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .take(64)
        .collect();
    let path = shared.postmortems.join(format!("{safe_name}-{id}.jsonl"));
    let header = Record::new()
        .str("event", "postmortem")
        .str("tenant", &job.req.tenant)
        .str("name", &job.req.name)
        .str("status", status)
        .str("kind", kind)
        .str("run", &fastmon_obs::run_id())
        .u64("job_id", id)
        .u64("dropped", flight.dropped())
        .finish();
    if let Err(e) = flight.write_postmortem(&path, &header) {
        eprintln!(
            "warning: could not write post-mortem {}: {e}",
            path.display()
        );
    }
}

enum LineRead {
    Line(String),
    TooLong,
    Draining,
    Closed,
}

/// Reads one `\n`-terminated line, enforcing [`MAX_LINE_BYTES`] and
/// polling the drain flag across read timeouts.
fn read_line(reader: &mut BufReader<TcpStream>, shared: &Shared) -> LineRead {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => {
                return LineRead::Closed;
            }
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.draining() {
                    return LineRead::Draining;
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::Closed,
        };
        let (take, done) = match chunk.iter().position(|b| *b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (chunk.len(), false),
        };
        line.extend_from_slice(&chunk[..take]);
        reader.consume(take);
        if line.len() > MAX_LINE_BYTES {
            return LineRead::TooLong;
        }
        if done {
            while line.last().is_some_and(|b| *b == b'\n' || *b == b'\r') {
                line.pop();
            }
            // Invalid UTF-8 is "not JSON", reported like any other
            // garbage line rather than killing the connection.
            return LineRead::Line(String::from_utf8_lossy(&line).into_owned());
        }
    }
}

fn error_record(err: &ProtoError) -> String {
    Record::new()
        .str("event", "error")
        .str("kind", err.kind())
        .str("message", &err.to_string())
        .finish()
}

fn write_line(stream: &mut TcpStream, line: &str) -> bool {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .is_ok()
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line(&mut reader, shared) {
            LineRead::Line(line) => line,
            LineRead::TooLong => {
                // The stream is no longer line-synchronized; answer and
                // hang up.
                let err = ProtoError::LineTooLong {
                    limit: MAX_LINE_BYTES,
                };
                let _ = write_line(&mut writer, &error_record(&err));
                return;
            }
            LineRead::Draining | LineRead::Closed => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let t_parse = Instant::now();
        let parsed = proto::parse_request(&line);
        shared
            .metrics
            .latency
            .proto_parse
            .record_duration(t_parse.elapsed());
        let request = match parsed {
            Ok(req) => req,
            Err(err) => {
                if !write_line(&mut writer, &error_record(&err)) {
                    return;
                }
                continue;
            }
        };
        let t_handle = Instant::now();
        let keep_going = match request {
            Request::Ping => write_line(
                &mut writer,
                &Record::new()
                    .str("event", "pong")
                    .u64("proto", proto::PROTO_VERSION)
                    .finish(),
            ),
            Request::Status => write_line(&mut writer, &status_record(shared)),
            Request::Observe => write_line(&mut writer, &observe_record(shared)),
            Request::Watch { interval_ms, count } => {
                handle_watch(&mut writer, shared, interval_ms, count)
            }
            Request::Gc { min_age_secs } => {
                write_line(&mut writer, &gc_record(shared, min_age_secs))
            }
            Request::Submit(req) => handle_submit(&mut writer, shared, req),
        };
        shared
            .metrics
            .latency
            .proto_handle
            .record_duration(t_handle.elapsed());
        if !keep_going {
            return;
        }
    }
}

/// Per-tenant lane state as a JSON array (shared by `status` and
/// `observe`).
fn tenants_json(shared: &Shared) -> String {
    let mut s = String::from("[");
    for (i, lane) in shared.queue.tenant_depths().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let mut rec = Record::new()
            .str("tenant", &lane.tenant)
            .u64("queued", lane.queued as u64);
        if let Some(wait) = lane.oldest_wait {
            rec = rec.f64("oldest_wait_secs", wait.as_secs_f64());
        }
        s.push_str(&rec.finish());
    }
    s.push(']');
    s
}

fn status_record(shared: &Shared) -> String {
    let running = shared.lock_running().jobs.len();
    let m = &shared.metrics.daemon;
    Record::new()
        .str("event", "status")
        .u64("proto", proto::PROTO_VERSION)
        .u64("uptime_secs", shared.started.elapsed().as_secs())
        .u64("queued", shared.queue.len() as u64)
        .u64("queue_limit", shared.queue.limit() as u64)
        .u64("running", running as u64)
        .bool("draining", shared.draining())
        .raw("tenants", &tenants_json(shared))
        .u64("jobs_admitted", m.jobs_admitted.get())
        .u64("jobs_rejected", m.jobs_rejected.get())
        .u64("jobs_resumed", m.jobs_resumed.get())
        .u64("jobs_completed", m.jobs_completed.get())
        .u64("jobs_failed", m.jobs_failed.get())
        .u64("jobs_cancelled", m.jobs_cancelled.get())
        .u64("panics_contained", m.panics_contained.get())
        .finish()
}

/// The deep telemetry snapshot behind the `observe` and `watch` ops:
/// queue + tenant lanes, per-job phase/band progress with an ETA, and
/// the full accumulated registry (counters and latency quantiles).
fn observe_record(shared: &Shared) -> String {
    let jobs_json = {
        let running = shared.lock_running();
        let mut s = String::from("[");
        for (i, j) in running.jobs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let elapsed = j.started.elapsed().as_secs_f64();
            let mut rec = Record::new()
                .u64("id", j.id)
                .str("tenant", &j.tenant)
                .str("name", &j.name)
                .str("phase", j.phase)
                .bool("resumed", j.resumed)
                .u64("bands_done", j.bands_done)
                .u64("next_pattern", j.next_pattern)
                .u64("total_patterns", j.total_patterns)
                .f64("elapsed_secs", elapsed);
            if let Some(fp) = j.fingerprint {
                rec = rec.fingerprint("fingerprint", fp);
            }
            if !j.shards.is_empty() {
                let mut rows = String::from("[");
                for (k, r) in j.shards.iter().enumerate() {
                    if k > 0 {
                        rows.push(',');
                    }
                    rows.push_str(
                        &Record::new()
                            .u64("shard", r.shard)
                            .str("state", r.state)
                            .u64("respawns", r.respawns)
                            .u64("next_pattern", r.next_pattern)
                            .u64("total_patterns", r.total_patterns)
                            .finish(),
                    );
                }
                rows.push(']');
                rec = rec.raw("shards", &rows);
            }
            // Extrapolate from what *this* process simulated; patterns
            // inherited from a resumed checkpoint cost it nothing.
            let done = j.next_pattern.saturating_sub(j.start_pattern);
            let remaining = j.total_patterns.saturating_sub(j.next_pattern);
            if done > 0 && remaining > 0 && elapsed > 0.0 {
                #[allow(clippy::cast_precision_loss)]
                let eta = elapsed * remaining as f64 / done as f64;
                rec = rec.f64("eta_secs", eta);
            }
            s.push_str(&rec.finish());
        }
        s.push(']');
        s
    };
    Record::new()
        .str("event", "observe")
        .u64("proto", proto::PROTO_VERSION)
        .u64("uptime_secs", shared.started.elapsed().as_secs())
        .u64("queued", shared.queue.len() as u64)
        .u64("queue_limit", shared.queue.limit() as u64)
        .bool("draining", shared.draining())
        .raw("tenants", &tenants_json(shared))
        .raw("jobs", &jobs_json)
        .raw("counters", &shared.metrics.to_json())
        .raw("latency", &shared.metrics.latency.to_json())
        .finish()
}

/// Streams `observe` snapshots every `interval_ms` until `count` is
/// exhausted (0 = unbounded), the client disconnects, or the daemon
/// drains. Returns `false` when the connection died.
fn handle_watch(writer: &mut TcpStream, shared: &Shared, interval_ms: u64, count: u64) -> bool {
    let mut emitted = 0u64;
    loop {
        if !write_line(writer, &observe_record(shared)) {
            return false;
        }
        emitted += 1;
        if count != 0 && emitted >= count {
            return true;
        }
        // Sleep in short slices so a drain ends the stream promptly.
        let mut left = Duration::from_millis(interval_ms);
        while !left.is_zero() {
            if shared.draining() {
                return true;
            }
            let slice = left.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            left = left.saturating_sub(slice);
        }
        if shared.draining() {
            return true;
        }
    }
}

fn gc_record(shared: &Shared, min_age_secs: Option<u64>) -> String {
    let live: Vec<u64> = shared
        .lock_running()
        .jobs
        .iter()
        .filter_map(|j| j.fingerprint)
        .collect();
    let grace = min_age_secs.map_or(shared.gc_grace, Duration::from_secs);
    match shared.checkpoints.gc(&live, grace) {
        Ok(report) => Record::new()
            .str("event", "gc")
            .u64("removed", report.removed.len() as u64)
            .u64("kept_live", report.kept_live as u64)
            .u64("kept_locked", report.kept_locked as u64)
            .u64("kept_young", report.kept_young as u64)
            .finish(),
        Err(e) => Record::new()
            .str("event", "error")
            .str("kind", "gc")
            .str("message", &e.to_string())
            .finish(),
    }
}

/// Admits (or rejects) a submission, then streams its worker events
/// until the terminal record. Returns `false` when the connection died.
fn handle_submit(writer: &mut TcpStream, shared: &Arc<Shared>, req: Box<JobRequest>) -> bool {
    let (tx, rx): (Sender<WorkerMsg>, Receiver<WorkerMsg>) = channel();
    let tenant = req.tenant.clone();
    let name = req.name.clone();
    match shared.queue.submit(&tenant, QueuedJob { req, events: tx }) {
        Err(err) => {
            shared.metrics.daemon.jobs_rejected.incr();
            write_line(
                writer,
                &Record::new()
                    .str("event", "reject")
                    .str("name", &name)
                    .str("kind", err.kind())
                    .str("message", &err.to_string())
                    .finish(),
            )
        }
        Ok(queued) => {
            shared.metrics.daemon.jobs_admitted.incr();
            if !write_line(
                writer,
                &Record::new()
                    .str("event", "admitted")
                    .str("name", &name)
                    .u64("queued", queued as u64)
                    .finish(),
            ) {
                return false;
            }
            loop {
                match rx.recv() {
                    Ok(WorkerMsg::Line(line)) => {
                        if !write_line(writer, &line) {
                            // Client is gone; drop the receiver. The
                            // worker keeps running the campaign to its
                            // durable result.
                            return false;
                        }
                    }
                    Ok(WorkerMsg::Terminal(line)) => return write_line(writer, &line),
                    Err(_) => return false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn client(addr: SocketAddr) -> (std::io::BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        let writer = stream.try_clone().unwrap();
        (std::io::BufReader::new(stream), writer)
    }

    fn send(writer: &mut TcpStream, line: &str) {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }

    fn recv(reader: &mut std::io::BufReader<TcpStream>) -> fastmon_obs::json::Value {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        fastmon_obs::json::parse(line.trim()).unwrap()
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fastmond-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn event_of(v: &fastmon_obs::json::Value) -> String {
        v.get("event").and_then(|e| e.as_str()).unwrap().to_string()
    }

    #[test]
    fn ping_status_and_submit_round_trip() {
        let root = tmp("rt");
        let handle = Daemon::start(DaemonConfig::at(&root)).unwrap();
        let (mut reader, mut writer) = client(handle.addr());

        send(&mut writer, r#"{"op":"ping"}"#);
        assert_eq!(event_of(&recv(&mut reader)), "pong");

        send(&mut writer, r#"{"op":"status"}"#);
        let status = recv(&mut reader);
        assert_eq!(event_of(&status), "status");
        assert_eq!(status.get("queued").and_then(|v| v.as_u64()), Some(0));

        send(
            &mut writer,
            r#"{"op":"submit","name":"s27-job","circuit":{"kind":"library","name":"s27"}}"#,
        );
        assert_eq!(event_of(&recv(&mut reader)), "admitted");
        let terminal = loop {
            let v = recv(&mut reader);
            if event_of(&v) == "terminal" {
                break v;
            }
        };
        assert_eq!(
            terminal.get("status").and_then(|v| v.as_str()),
            Some("completed")
        );
        assert!(terminal
            .get("result_fingerprint")
            .and_then(|v| v.as_str())
            .is_some());

        handle.drain();
        handle.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn garbage_lines_get_typed_error_records_and_the_daemon_survives() {
        let root = tmp("garbage");
        let handle = Daemon::start(DaemonConfig::at(&root)).unwrap();
        let (mut reader, mut writer) = client(handle.addr());

        for (line, kind) in [
            ("garbage", "json"),
            ("{\"op\":\"frobnicate\"}", "unknown_op"),
            ("[1,2,3]", "not_an_object"),
            ("{}", "missing_field"),
        ] {
            send(&mut writer, line);
            let v = recv(&mut reader);
            assert_eq!(event_of(&v), "error");
            assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some(kind));
        }
        // still alive afterwards
        send(&mut writer, r#"{"op":"ping"}"#);
        assert_eq!(event_of(&recv(&mut reader)), "pong");

        handle.drain();
        handle.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn admission_control_rejects_when_full() {
        let root = tmp("admit");
        let mut config = DaemonConfig::at(&root);
        config.workers = 1;
        config.queue_limit = 1;
        let handle = Daemon::start(config).unwrap();

        // A slow-ish job ties up the single worker; the queue then holds
        // one more, and the third submission is rejected.
        let submit = |name: &str| {
            format!(
                r#"{{"op":"submit","name":"{name}","circuit":{{"kind":"profile","name":"s9234","scale":0.05,"seed":7}},"max_faults":40,"pattern_budget":16}}"#
            )
        };
        let (mut r1, mut w1) = client(handle.addr());
        send(&mut w1, &submit("a"));
        assert_eq!(event_of(&recv(&mut r1)), "admitted");
        let (mut r2, mut w2) = client(handle.addr());
        send(&mut w2, &submit("b"));
        assert_eq!(event_of(&recv(&mut r2)), "admitted");
        // Give the worker a moment to start job a so the queue slot is
        // definitely occupied by b.
        std::thread::sleep(Duration::from_millis(100));
        let (mut r3, mut w3) = client(handle.addr());
        send(&mut w3, &submit("c"));
        let v = recv(&mut r3);
        // Either the queue was still full (reject) or the worker already
        // drained it (admitted) — on a loaded machine both are legal;
        // what matters is that the daemon answered without blocking.
        assert!(matches!(event_of(&v).as_str(), "reject" | "admitted"));

        handle.drain();
        handle.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn drain_cancels_running_jobs_at_a_checkpoint_boundary() {
        let root = tmp("drain");
        let mut config = DaemonConfig::at(&root);
        config.workers = 1;
        let handle = Daemon::start(config).unwrap();
        let (mut reader, mut writer) = client(handle.addr());
        send(
            &mut writer,
            r#"{"op":"submit","name":"big","circuit":{"kind":"profile","name":"s9234","scale":0.05,"seed":7},"max_faults":150}"#,
        );
        assert_eq!(event_of(&recv(&mut reader)), "admitted");
        // Wait until the campaign is actually running (fingerprint known).
        loop {
            let v = recv(&mut reader);
            if event_of(&v) == "campaign" {
                break;
            }
        }
        handle.drain();
        let terminal = loop {
            let v = recv(&mut reader);
            if event_of(&v) == "terminal" {
                break v;
            }
        };
        let status = terminal.get("status").and_then(|v| v.as_str()).unwrap();
        // Cancelled at the next band boundary — or completed, if the
        // campaign was already past its last band when the drain landed.
        assert!(matches!(status, "cancelled" | "completed"), "got {status}");
        if status == "cancelled" {
            assert_eq!(
                terminal.get("resumable").and_then(|v| v.as_bool()),
                Some(true)
            );
        }
        handle.join();
        let _ = std::fs::remove_dir_all(&root);
    }
}
