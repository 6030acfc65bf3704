//! `daemon-small-jobs`: an in-process `fastmond` with two campaign
//! workers, loaded by two closed-loop clients over loopback TCP. Each
//! client submits an s9234@0.1 profile job and waits for its terminal
//! record before sending the next.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Instant;

use fastmon_core::{FlowConfig, HdfTestFlow, Solver};
use fastmon_daemon::proto::to_submit_line;
use fastmon_daemon::{CircuitSpec, Daemon, DaemonConfig, DaemonHandle, JobRequest};
use fastmon_netlist::generate::CircuitProfile;
use fastmon_obs::json::{self, Value};

use crate::inproc::{pattern_fingerprint, tf_coverage, PINNED_SEED, SETUP_REPEATS};
use crate::report::{json_fp, json_number, json_str};
use crate::{
    medians, peak_rss_mib, per_layer, ratio, registry_sample, rounds, secs, stats, Outcome,
    RunOptions, Sample, Scratch, Size,
};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Daemon campaign worker threads.
pub const WORKERS: usize = 2;

/// The daemon workload's job shape.
#[derive(Debug, Clone)]
pub struct JobShape {
    /// Profile scale.
    pub scale: f64,
    /// Fault-sample cap.
    pub max_faults: usize,
    /// Jobs each client submits per round.
    pub jobs_per_client: usize,
}

impl JobShape {
    /// The shape at `size`.
    #[must_use]
    pub fn of(size: Size) -> JobShape {
        match size {
            Size::Full => JobShape {
                scale: 0.1,
                max_faults: 300,
                jobs_per_client: 6,
            },
            Size::Tiny => JobShape {
                scale: 0.05,
                max_faults: 60,
                jobs_per_client: 2,
            },
        }
    }

    /// Jobs per round.
    #[must_use]
    pub fn jobs(&self) -> usize {
        CLIENTS * self.jobs_per_client
    }

    /// Job `index` of the pinned job mix: every job runs the pinned
    /// s9234 stand-in with its own flow seed (delays, ATPG fill, fault
    /// sample), so no two jobs share a campaign.
    #[must_use]
    pub fn request(&self, index: usize) -> JobRequest {
        JobRequest {
            tenant: "perfbench".into(),
            name: format!("job-{index}"),
            circuit: CircuitSpec::Profile {
                name: "s9234".into(),
                scale: self.scale,
                seed: PINNED_SEED,
            },
            sdf: None,
            coverage: 1.0,
            deadline_secs: None,
            pattern_budget: None,
            max_faults: Some(self.max_faults),
            seed: 1_000 * PINNED_SEED + index as u64,
            threads: 1,
            shards: 1,
            shard_procs: false,
        }
    }
}

/// What a client saw of one job.
#[derive(Debug, Default)]
struct JobTrace {
    index: usize,
    latency_s: f64,
    queue_wait_s: f64,
    run_s: f64,
    /// Seconds in each phase, from `phase` record to the next `phase` (or
    /// terminal) record.
    phases: Vec<(String, f64)>,
    records: usize,
    terminal: Option<Value>,
    error: Option<String>,
}

fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Value::as_str)
}

fn num_field(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Submits `indices` one after another on one connection.
fn client(stream: TcpStream, shape: &JobShape, indices: &[usize]) -> Vec<JobTrace> {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            return indices
                .iter()
                .map(|&index| JobTrace {
                    index,
                    error: Some(format!("clone stream: {e}")),
                    ..JobTrace::default()
                })
                .collect()
        }
    };
    let mut reader = BufReader::new(stream);
    let mut traces = Vec::new();
    for &index in indices {
        let mut t = JobTrace {
            index,
            ..JobTrace::default()
        };
        // One write per request: a separate write of the newline could
        // wait for the daemon's delayed ACK.
        let mut line = to_submit_line(&shape.request(index));
        line.push('\n');
        let submitted = Instant::now();
        if let Err(e) = writer.write_all(line.as_bytes()) {
            t.error = Some(format!("submit: {e}"));
            traces.push(t);
            continue;
        }
        let mut first_phase: Option<Instant> = None;
        let mut phase: Option<(String, Instant)> = None;
        loop {
            let mut buf = String::new();
            match reader.read_line(&mut buf) {
                Ok(0) => {
                    t.error = Some("connection closed before the terminal record".into());
                    break;
                }
                Ok(_) => {}
                Err(e) => {
                    t.error = Some(format!("read: {e}"));
                    break;
                }
            }
            let now = Instant::now();
            t.records += 1;
            let v = match json::parse(buf.trim()) {
                Ok(v) => v,
                Err(e) => {
                    t.error = Some(format!("unparseable record: {e}"));
                    break;
                }
            };
            match str_field(&v, "event") {
                Some("phase") => {
                    if first_phase.is_none() {
                        first_phase = Some(now);
                        t.queue_wait_s = (now - submitted).as_secs_f64();
                    }
                    if let Some((name, since)) = phase.take() {
                        t.phases.push((name, (now - since).as_secs_f64()));
                    }
                    phase = Some((str_field(&v, "phase").unwrap_or("?").to_owned(), now));
                }
                Some("terminal") => {
                    if let Some((name, since)) = phase.take() {
                        t.phases.push((name, (now - since).as_secs_f64()));
                    }
                    t.latency_s = (now - submitted).as_secs_f64();
                    t.run_s = first_phase.map_or(0.0, |f| (now - f).as_secs_f64());
                    t.terminal = Some(v);
                    break;
                }
                Some("reject" | "error") => {
                    t.error = Some(format!("daemon refused the job: {}", buf.trim()));
                    break;
                }
                _ => {}
            }
        }
        traces.push(t);
    }
    traces
}

/// Checks a job's terminal record and its landed result file; `None`
/// when both agree on a completed, fresh campaign.
fn job_problem(t: &JobTrace, results: &Path) -> Option<String> {
    if let Some(e) = &t.error {
        return Some(e.clone());
    }
    let Some(term) = t.terminal.as_ref() else {
        return Some("no terminal record".into());
    };
    if str_field(term, "status") != Some("completed") {
        return Some(format!("ended {:?}", str_field(term, "status")));
    }
    if term.get("resumed").and_then(Value::as_bool) != Some(false) {
        return Some("resumed a checkpoint".into());
    }
    let fp = str_field(term, "fingerprint").unwrap_or("");
    let path = results.join(format!("{fp}.json"));
    let landed = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => return Some(format!("no landed result {}: {e}", path.display())),
    };
    let landed = match json::parse(landed.trim()) {
        Ok(v) => v,
        Err(e) => return Some(format!("unparseable landed result: {e}")),
    };
    for key in [
        "fingerprint",
        "result_fingerprint",
        "num_patterns",
        "num_faults",
        "num_targets",
        "covered",
        "optimal",
    ] {
        if landed.get(key) != term.get(key) {
            return Some(format!(
                "landed result disagrees with the terminal on {key}"
            ));
        }
    }
    None
}

/// Connects one client and waits until its connection answers a ping.
/// The daemon polls its listen socket, so a connection is served some
/// milliseconds after it is made; that wait is set-up, not part of the
/// first job's latency.
fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(b"{\"op\":\"ping\"}\n")?;
    // The daemon sends nothing after the pong until the first submit, so
    // this reader buffers no byte the client's own reader would need.
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply)?;
    let pong = json::parse(reply.trim())
        .ok()
        .is_some_and(|v| str_field(&v, "event") == Some("pong"));
    if pong {
        Ok(stream)
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("no pong to a ping: {reply:?}"),
        ))
    }
}

/// Starts a daemon rooted at `root` and connects every client; returns
/// the seconds both took.
fn start(root: &Path) -> std::io::Result<(DaemonHandle, Vec<TcpStream>, f64)> {
    let t = Instant::now();
    let handle = Daemon::start(DaemonConfig {
        workers: WORKERS,
        ..DaemonConfig::at(root)
    })?;
    let streams: Result<Vec<TcpStream>, _> = (0..CLIENTS).map(|_| connect(handle.addr())).collect();
    match streams {
        Ok(streams) => Ok((handle, streams, secs(t))),
        Err(e) => {
            handle.drain();
            handle.join();
            Err(e)
        }
    }
}

/// In-process reference of one job: the same flow the daemon runs, with
/// the paper outputs the wire protocol does not carry.
struct JobReference {
    gates: usize,
    patterns: usize,
    result_fp: u64,
    patterns_fp: u64,
    coverage: f64,
    prop: usize,
    frequencies: usize,
    applications: usize,
}

fn reference(req: &JobRequest) -> Result<JobReference, String> {
    let CircuitSpec::Profile { name, scale, seed } = &req.circuit else {
        return Err("reference jobs are profile jobs".into());
    };
    let circuit = CircuitProfile::named(name)
        .ok_or_else(|| format!("unknown profile {name}"))?
        .scaled(*scale)
        .generate(*seed)
        .map_err(|e| e.to_string())?;
    let config = FlowConfig {
        seed: req.seed,
        threads: req.threads,
        max_faults: req.max_faults,
        ..FlowConfig::default()
    };
    let flow = HdfTestFlow::try_prepare(&circuit, &config).map_err(|e| e.to_string())?;
    let patterns = flow
        .try_generate_patterns(req.pattern_budget)
        .map_err(|e| e.to_string())?;
    let analysis = flow.try_analyze(&patterns).map_err(|e| e.to_string())?;
    let schedule = flow
        .try_schedule_with_coverage(&analysis, Solver::Ilp, req.coverage)
        .map_err(|e| e.to_string())?;
    Ok(JobReference {
        gates: circuit.combinational_nodes().count(),
        patterns: patterns.len(),
        result_fp: analysis.result_fingerprint(),
        patterns_fp: pattern_fingerprint(&patterns),
        coverage: tf_coverage(&circuit, &patterns),
        prop: analysis.detected_prop(),
        frequencies: schedule.num_frequencies(),
        applications: schedule.num_applications(),
    })
}

/// Runs `daemon-small-jobs`.
#[must_use]
pub fn run(opts: &RunOptions) -> Outcome {
    let shape = JobShape::of(opts.size);
    let jobs = shape.jobs();
    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    // every latency of each job of the mix, by job index
    let mut job_latencies: Vec<Vec<f64>> = vec![Vec::new(); jobs];
    let mut fingerprints: Vec<Option<String>> = vec![None; jobs];
    // VmHWM after the first round: daemon start-ups and one job mix,
    // before the in-process references allocate anything.
    let mut peak_rss = 0.0;

    let (plain, traced, spans) = rounds(opts, |r| {
        let mut s = Sample::new();
        let scratch = match Scratch::new(&opts.scratch_root, "daemon") {
            Ok(d) => d,
            Err(e) => {
                out.check(false, || format!("round {r}: scratch directory: {e}"));
                return s;
            }
        };
        // Set-up (daemon start + client connects) runs SETUP_REPEATS
        // times; the last daemon serves the round.
        let mut setups = Vec::new();
        for k in 1..SETUP_REPEATS {
            if let Ok((handle, streams, t)) = start(&scratch.path().join(format!("setup-{k}"))) {
                setups.push(t);
                drop(streams);
                handle.drain();
                handle.join();
            }
        }
        let root = scratch.path().join("serve");
        let results = DaemonConfig::at(&root).results_dir;
        let (handle, streams) = match start(&root) {
            Ok((handle, streams, t)) => {
                setups.push(t);
                (handle, streams)
            }
            Err(e) => {
                out.check(false, || format!("round {r}: daemon start: {e}"));
                return s;
            }
        };
        s.insert("setup_s".into(), stats::median(&setups));

        // ---- timed section ----
        let t_wall = Instant::now();
        let traces: Vec<JobTrace> = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .into_iter()
                .enumerate()
                .map(|(c, stream)| {
                    // client `c` sends jobs c, c + CLIENTS, ...
                    let mine: Vec<usize> = (c..jobs).step_by(CLIENTS).collect();
                    let shape = &shape;
                    scope.spawn(move || client(stream, shape, &mine))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_default())
                .collect()
        });
        s.insert("wall_s".into(), secs(t_wall));
        // ---- end of timed section ----
        handle.drain();
        let metrics = handle.metrics();
        handle.join();
        if r == 0 {
            peak_rss = peak_rss_mib();
        }

        // ---- correctness gate ----
        let d = &metrics.daemon;
        if traces.len() != jobs {
            out.check(false, || {
                format!("round {r}: {} of {jobs} jobs reported", traces.len())
            });
        }
        for t in &traces {
            let problem = job_problem(t, &results);
            out.check(problem.is_none(), || {
                format!("round {r} job {}: {}", t.index, problem.unwrap_or_default())
            });
            let fp = t
                .terminal
                .as_ref()
                .and_then(|v| str_field(v, "result_fingerprint"))
                .map(str::to_owned);
            match &fingerprints[t.index] {
                None => fingerprints[t.index] = fp,
                Some(prev) if Some(prev) != fp.as_ref() => out.fail(format!(
                    "round {r} job {}: result {fp:?} differs from round 0's {prev}",
                    t.index
                )),
                Some(_) => {}
            }
        }
        if d.jobs_resumed.get() != 0 || metrics.checkpoint.resumes.get() != 0 {
            out.fail(format!("round {r}: the daemon resumed a checkpoint"));
        }

        // Per-layer times come from the clients' view of each job's phase
        // records; counters from the job registries the daemon absorbed.
        #[allow(clippy::cast_precision_loss)]
        let (f, njobs) = (|v: u64| v as f64, traces.len().max(1) as f64);
        let phase = |name: &str| -> f64 {
            traces
                .iter()
                .flat_map(|t| &t.phases)
                .filter(|(p, _)| p == name)
                .map(|(_, d)| d)
                .sum()
        };
        let pairs: f64 = traces
            .iter()
            .filter_map(|t| t.terminal.as_ref())
            .map(|v| num_field(v, "num_faults") * num_field(v, "num_patterns"))
            .sum();
        let ckpt_s = f(metrics.checkpoint.save_ns.get() + metrics.checkpoint.load_ns.get()) / 1e9;
        registry_sample(
            &mut s,
            &metrics,
            njobs,
            pairs,
            (phase("analyze") - ckpt_s).max(0.0),
        );
        let per_job =
            |g: &dyn Fn(&JobTrace) -> f64| stats::median(&traces.iter().map(g).collect::<Vec<_>>());
        let (lat, queue, run) = (
            per_job(&|t| t.latency_s),
            per_job(&|t| t.queue_wait_s),
            per_job(&|t| t.run_s),
        );
        for (k, v) in [
            ("core.prepare_s", phase("prepare") / njobs),
            ("atpg.generate_s", phase("atpg") / njobs),
            ("ilp.schedule_s", phase("schedule") / njobs),
            ("daemon.queue_wait_s", queue),
            ("daemon.job_run_s", run),
            ("daemon.records_per_job", per_job(&|t| f(t.records as u64))),
            ("daemon.jobs_completed", f(d.jobs_completed.get())),
            ("daemon.jobs_rejected", f(d.jobs_rejected.get())),
            ("daemon.jobs_failed", f(d.jobs_failed.get())),
            (
                "obs.unattributed_pct",
                100.0 * ratio(lat - queue - run, lat),
            ),
        ] {
            s.insert(k.to_owned(), v);
        }
        for t in traces.iter().filter(|t| t.error.is_none()) {
            latencies.push(t.latency_s);
            job_latencies[t.index].push(t.latency_s);
        }
        s
    });

    // in-process reference of every job (outside every timed round)
    let mut refs = Vec::new();
    for (index, daemon_fp) in fingerprints.iter().enumerate() {
        match reference(&shape.request(index)) {
            Ok(r) => {
                let ok = daemon_fp.as_deref() == Some(&format!("{:016x}", r.result_fp));
                out.check(ok, || {
                    format!(
                        "job {index}: daemon result {daemon_fp:?} differs from the in-process {:016x}",
                        r.result_fp
                    )
                });
                refs.push(r);
            }
            Err(e) => out.check(false, || format!("job {index}: in-process reference: {e}")),
        }
    }

    let med = medians(&plain);
    let get = |k: &str| med.get(k).copied().unwrap_or(0.0);
    out.e2e("setup_s", get("setup_s"), "s");
    out.e2e("wall_s", get("wall_s"), "s");
    out.e2e("peak_rss_mib", peak_rss, "MiB");
    // the daemon's campaign workers are threads of this process
    out.e2e("worker_peak_rss_mib", peak_rss, "MiB");
    // a round's fixed job mix over the median round's wall time
    #[allow(clippy::cast_precision_loss)]
    out.e2e("jobs_per_s", ratio(jobs as f64, get("wall_s")), "1/s");
    out.e2e("job_latency_p50_s", stats::median(&latencies), "s");
    // The tail is the slowest job of the mix, by its median over rounds.
    // Every round runs the same jobs, so a percentile of the pooled
    // latencies would land on a different job of the mix depending on how
    // many rounds fit the run, and a one-round stall would move it.
    let job_medians: Vec<f64> = job_latencies.iter().map(|l| stats::median(l)).collect();
    out.e2e(
        "job_latency_tail_s",
        job_medians.iter().copied().fold(0.0, f64::max),
        "s",
    );
    #[allow(clippy::cast_precision_loss)]
    if !refs.is_empty() {
        let n = refs.len() as f64;
        let mean = |g: &dyn Fn(&JobReference) -> f64| refs.iter().map(g).sum::<f64>() / n;
        out.e2e("atpg_coverage", mean(&|r| r.coverage), "ratio");
        out.e2e("hdf_detected_prop", mean(&|r| r.prop as f64), "count");
        out.e2e(
            "schedule_frequencies",
            mean(&|r| r.frequencies as f64),
            "count",
        );
        out.e2e(
            "schedule_applications",
            mean(&|r| r.applications as f64),
            "count",
        );
    }

    out.note("workload", json_str("daemon-small-jobs"));
    out.note("seed", opts.seed.to_string());
    out.note("input_seed", PINNED_SEED.to_string());
    out.note("circuit", json_str("s9234"));
    out.note("scale", json_number(shape.scale));
    if let Some(r) = refs.first() {
        out.note("gates", r.gates.to_string());
    }
    out.note("faults_sampled", shape.max_faults.to_string());
    out.note("threads", "1".to_string());
    out.note("workers", WORKERS.to_string());
    out.note("clients", CLIENTS.to_string());
    out.note("jobs_per_round", jobs.to_string());
    out.note("rounds", plain.len().to_string());
    out.note("job_samples", latencies.len().to_string());
    let medians_s: Vec<String> = job_medians.iter().map(|&v| json_number(v)).collect();
    out.note(
        "job_latency_medians_s",
        format!("[{}]", medians_s.join(", ")),
    );
    let list = |g: &dyn Fn(&JobReference) -> String| {
        let items: Vec<String> = refs.iter().map(g).collect();
        format!("[{}]", items.join(", "))
    };
    out.note("job_patterns", list(&|r| r.patterns.to_string()));
    out.note(
        "job_pattern_fingerprints",
        list(&|r| json_fp(r.patterns_fp)),
    );
    out.note("job_result_fingerprints", list(&|r| json_fp(r.result_fp)));
    if opts.trace {
        per_layer(&mut out, &plain, &traced, &spans);
    }
    out
}
