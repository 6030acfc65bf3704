//! Performance snapshot of the ATPG stage and the fault-simulation
//! campaign: runs pattern generation plus `analyze()` on a paper-suite
//! stand-in at several worker-thread counts and writes the wall-clock
//! numbers plus the campaign counters (cones simulated, nodes
//! pruned/converged, waveform allocations) and the ATPG grading counters
//! (cones cached, cone BFS traversals avoided, scratch reuses, matrix
//! rebuilds avoided, per-phase seconds) to `BENCH_analysis.json`.
//!
//! Counters come from each run's own scoped registry
//! ([`HdfTestFlow::metrics`]) — runs never bleed into one another. The
//! binary also keeps span profiling on and appends a per-phase self-time
//! table (plus the flamegraph collapsed stacks in the JSON) covering the
//! whole process.
//!
//! Knobs (on top of the usual `FASTMON_*` variables from
//! [`fastmon_bench::ExperimentConfig`]):
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `FASTMON_SNAPSHOT_CIRCUIT` | paper-suite profile name | `p89k` |
//! | `FASTMON_SNAPSHOT_THREADS` | comma-separated thread counts | `1,4,8` |
//! | `FASTMON_SNAPSHOT_OUT` | output path | `BENCH_analysis.json` |
//! | `FASTMON_SNAPSHOT_SCALE` (or `--scale=S`) | profile scale override in `(0, 1]` | derived from `FASTMON_TARGET_GATES` |
//! | `FASTMON_SHARDS` (or `--shards=N`) | shard count for the merge-parity run | `2` |
//! | `FASTMON_SHARD_PROCS=1` (or `--shard-procs`) | also run the campaign as supervised child processes | unset |
//! | `FASTMON_SNAPSHOT_SWEEP` | comma-separated scale-sweep factors | `S/4, S/2, S` |
//! | `FASTMON_RSS_CEILING_BYTES` | fail the run if peak RSS exceeds this | unset |
//!
//! The sweep runs ascending (the Linux `VmHWM` probe is a process-wide
//! high-water mark, so each entry's `peak_rss_bytes` is dominated by the
//! largest circuit simulated so far — ascending order keeps the numbers
//! attributable). The shard run re-analyzes the full campaign split into
//! `N` fault shards and hard-fails unless the merged result fingerprint
//! is bit-identical to the serial run.

use std::fmt::Write as _;
use std::time::Instant;

use fastmon_bench::ExperimentConfig;
use fastmon_core::{FlowConfig, HdfTestFlow, ShardFiles};
use fastmon_netlist::generate::CircuitProfile;
use fastmon_sim::stats::CampaignStats;

struct ThreadRun {
    threads: usize,
    analyze_secs: f64,
    stats: CampaignStats,
}

/// One scale-sweep point: the same profile regenerated at a different
/// scale and analyzed once (1 thread), with the collapse ratio and the
/// RSS high-water mark after the run.
struct SweepEntry {
    scale: f64,
    gates: usize,
    patterns: usize,
    netlist_bytes: usize,
    faults_pre_collapse: usize,
    faults_post_collapse: u64,
    analyze_secs: f64,
    peak_rss_bytes: u64,
}

/// The shard-merge parity run: the full campaign re-analyzed as `shards`
/// fault slices and merged; `matches_serial` is the bit-identity proof.
struct ShardReport {
    shards: usize,
    analyze_secs: f64,
    merged_fingerprint: u64,
    matches_serial: bool,
}

/// The multi-process supervised run (`--shard-procs`): the same campaign
/// executed as one child OS process per shard under the
/// [`fastmon_bench::shardsup`] supervisor, merged from the landed result
/// files and compared against the serial fingerprint.
struct ShardProcsReport {
    shards: usize,
    jobs: usize,
    wall_secs: f64,
    merged_fingerprint: u64,
    matches_serial: bool,
    report: fastmon_core::SupervisorReport,
    /// This (supervisor) process's `VmHWM` after the supervised run.
    supervisor_peak_rss_bytes: u64,
    /// Largest `VmHWM` any worker reported for itself.
    children_peak_rss_bytes: u64,
}

/// `--flag=value` command-line override with an environment fallback.
fn arg_or_env(flag: &str, env: &str) -> Option<String> {
    let prefix = format!("--{flag}=");
    std::env::args()
        .find_map(|a| a.strip_prefix(&prefix).map(str::to_owned))
        .or_else(|| std::env::var(env).ok())
}

/// Robustness counters summed over every flow of the snapshot (ATPG + one
/// analyze per thread count): failpoints fired, checkpoint retries,
/// cancel latency and contained worker panics. All zero in a healthy
/// uninjected run — the JSON records that explicitly. The nested
/// `daemon` object comes from a short in-process `fastmond` exercise
/// (see [`daemon_exercise`]).
#[derive(Default)]
struct RobustnessTotals {
    entries: Vec<(&'static str, u64)>,
    daemon: Vec<(&'static str, u64)>,
}

impl RobustnessTotals {
    fn absorb(&mut self, section: &fastmon_obs::RobustnessMetrics) {
        for (name, value) in section.entries() {
            match self.entries.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += value,
                None => self.entries.push((name, value)),
            }
        }
    }
}

/// Exercises the campaign daemon in-process — two tiny `s27` jobs and
/// one admission-path ping over a real socket, then a graceful drain —
/// and returns its `robustness.daemon.*` counters for the snapshot. The
/// daemon's latency histograms (queue-wait, job-run, protocol) merge
/// into `latency` alongside the flow-side stage timings.
fn daemon_exercise(latency: &fastmon_obs::HistogramSet) -> Vec<(&'static str, u64)> {
    use std::io::{BufRead, BufReader, Write};

    let root = std::env::temp_dir().join(format!("fastmon-snapshot-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let handle = match fastmon_daemon::Daemon::start(fastmon_daemon::DaemonConfig::at(&root)) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("perf_snapshot: daemon exercise skipped: {e}");
            return Vec::new();
        }
    };
    if let Ok(stream) = std::net::TcpStream::connect(handle.addr()) {
        if let Ok(mut writer) = stream.try_clone() {
            let mut reader = BufReader::new(stream);
            let mut recv = || -> Option<String> {
                let mut buf = String::new();
                match reader.read_line(&mut buf) {
                    Ok(n) if n > 0 => Some(buf),
                    _ => None,
                }
            };
            for seed in [1u64, 2] {
                let line = format!(
                    r#"{{"op":"submit","name":"snapshot-{seed}","circuit":{{"kind":"library","name":"s27"}},"seed":{seed}}}"#
                );
                if writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .is_err()
                {
                    break;
                }
                // stream progress records until the job's terminal line
                while let Some(record) = recv() {
                    if record.contains("\"event\":\"terminal\"")
                        || record.contains("\"event\":\"reject\"")
                    {
                        break;
                    }
                }
            }
        }
    }
    handle.drain();
    let metrics = handle.metrics();
    handle.join();
    let _ = std::fs::remove_dir_all(&root);
    latency.merge_from(&metrics.latency);
    metrics.daemon.entries()
}

/// The merged latency quantiles as a p50/p90/p99/max table (nanosecond
/// histograms rendered in milliseconds).
fn render_latency_table(latency: &fastmon_obs::HistogramSet) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  {:<16} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50 ms", "p90 ms", "p99 ms", "max ms"
    );
    for (name, h) in latency.entries() {
        let q = h.quantiles();
        if q.count == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "  {:<16} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            name,
            q.count,
            ms(q.p50),
            ms(q.p90),
            ms(q.p99),
            ms(q.max)
        );
    }
    s
}

fn main() {
    // A process exec'd as `--shard-worker i/n` is a campaign shard, not a
    // snapshot run: it never returns from here.
    fastmon_bench::shardsup::maybe_run_worker();
    // Keep at least profile-mode spans on so the self-time table below has
    // data; a FASTMON_TRACE=1 environment still gets the full event log.
    if !fastmon_obs::enabled() {
        fastmon_obs::force_enable(fastmon_obs::TraceMode::Profile, None);
    }
    let config = ExperimentConfig::from_env();
    let name = std::env::var("FASTMON_SNAPSHOT_CIRCUIT").unwrap_or_else(|_| "p89k".to_owned());
    let thread_counts: Vec<usize> = std::env::var("FASTMON_SNAPSHOT_THREADS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 4, 8]);
    let out_path =
        std::env::var("FASTMON_SNAPSHOT_OUT").unwrap_or_else(|_| "BENCH_analysis.json".to_owned());

    let Some(base_profile) = CircuitProfile::named(&name) else {
        eprintln!("perf_snapshot: unknown paper-suite profile '{name}'");
        std::process::exit(1);
    };
    let auto_scale = (config.target_gates as f64 / base_profile.gates as f64).min(1.0);
    let scale = match arg_or_env("scale", "FASTMON_SNAPSHOT_SCALE").map(|v| v.parse::<f64>()) {
        None => auto_scale,
        Some(Ok(s)) if s > 0.0 && s <= 1.0 => s,
        Some(other) => {
            eprintln!("perf_snapshot: --scale must be a factor in (0, 1], got {other:?}");
            std::process::exit(1);
        }
    };
    let shards = match arg_or_env("shards", "FASTMON_SHARDS").map(|v| v.parse::<usize>()) {
        None => 2,
        Some(Ok(n)) if n >= 1 => n,
        Some(other) => {
            eprintln!("perf_snapshot: --shards must be a positive integer, got {other:?}");
            std::process::exit(1);
        }
    };
    let shard_procs = config.shard_procs || std::env::args().any(|a| a == "--shard-procs");
    let profile = base_profile.scaled(scale);
    let circuit = match profile.generate(config.seed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perf_snapshot: cannot generate the {name} stand-in: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "perf_snapshot: {name} stand-in scaled to {} gates (scale {scale:.4})",
        profile.gates
    );

    let mut robustness = RobustnessTotals::default();
    // Stage-latency histograms merged across every flow in the snapshot
    // (and, later, the daemon exercise) — the `"latency"` section of the
    // JSON and the quantile table below.
    let latency = fastmon_obs::HistogramSet::new();

    // Scale sweep, ascending, and FIRST in the process: the Linux
    // `VmHWM` probe is a process-wide high-water mark, so each entry's
    // `peak_rss_bytes` is attributable only while no larger circuit has
    // run yet. Each factor regenerates the profile and analyzes once
    // (1 thread) to chart memory and collapse behaviour against size.
    let mut sweep_scales: Vec<f64> = std::env::var("FASTMON_SNAPSHOT_SWEEP")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse::<f64>().ok())
                .collect()
        })
        .filter(|v: &Vec<f64>| !v.is_empty())
        .unwrap_or_else(|| vec![scale * 0.25, scale * 0.5, scale]);
    sweep_scales.retain(|&s| s > 0.0 && s <= 1.0);
    sweep_scales.sort_by(|a, b| a.total_cmp(b));
    sweep_scales.dedup();
    let mut sweep: Vec<SweepEntry> = Vec::new();
    for &s in &sweep_scales {
        let swept = base_profile.scaled(s);
        let swept_circuit = match swept.generate(config.seed) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("perf_snapshot: sweep scale {s:.4} skipped: {e}");
                continue;
            }
        };
        let flow = HdfTestFlow::prepare(&swept_circuit, &config.flow_config());
        let swept_patterns = flow.generate_patterns(Some(swept.pattern_budget));
        let t = Instant::now();
        let analysis = flow.analyze(&swept_patterns);
        let analyze_secs = t.elapsed().as_secs_f64();
        let snap = CampaignStats::from_metrics(&flow.metrics().sim);
        let entry = SweepEntry {
            scale: s,
            gates: swept.gates,
            patterns: swept_patterns.len(),
            netlist_bytes: swept_circuit.storage_bytes(),
            faults_pre_collapse: analysis.faults.len(),
            faults_post_collapse: snap.fault_classes,
            analyze_secs,
            peak_rss_bytes: fastmon_bench::rss::peak_rss_self_bytes().unwrap_or(0),
        };
        println!(
            "  sweep scale={:.4}: {} gates, {} -> {} faults after collapse, \
             analyze {:.3} s, peak RSS {}",
            entry.scale,
            entry.gates,
            entry.faults_pre_collapse,
            entry.faults_post_collapse,
            entry.analyze_secs,
            fastmon_bench::rss::format_mib(entry.peak_rss_bytes),
        );
        robustness.absorb(&flow.metrics().robustness);
        latency.merge_from(&flow.metrics().latency);
        sweep.push(entry);
    }

    // shared pattern set so every thread count simulates identical work
    let base_flow = HdfTestFlow::prepare(&circuit, &config.flow_config());
    let t = Instant::now();
    let patterns = base_flow.generate_patterns(Some(profile.pattern_budget));
    let atpg_secs = t.elapsed().as_secs_f64();
    println!("  atpg: {} patterns in {atpg_secs:.2} s", patterns.len());
    let atpg = atpg_report(atpg_secs, &base_flow.metrics().atpg);
    print!("{}", atpg.render_table());
    robustness.absorb(&base_flow.metrics().robustness);
    latency.merge_from(&base_flow.metrics().latency);

    let mut runs: Vec<ThreadRun> = Vec::new();
    let mut serial_fingerprint: Option<u64> = None;
    let mut faults_pre_collapse = 0usize;
    for &threads in &thread_counts {
        let flow_config = FlowConfig {
            threads,
            ..config.flow_config()
        };
        let flow = HdfTestFlow::prepare(&circuit, &flow_config);
        let t = Instant::now();
        let analysis = flow.analyze(&patterns);
        let analyze_secs = t.elapsed().as_secs_f64();
        let snap = CampaignStats::from_metrics(&flow.metrics().sim);
        println!(
            "  threads={threads}: analyze {analyze_secs:.3} s, {} targets, \
             {} cones simulated, {} masked, {} nodes evaluated, \
             {} converged-skipped, {} pruned, {} allocs / {} reuses",
            analysis.targets.len(),
            snap.cones_simulated,
            snap.cones_masked,
            snap.nodes_evaluated,
            snap.nodes_converged,
            snap.nodes_pruned_unobserved,
            snap.waveform_allocs,
            snap.waveform_reuses,
        );
        if serial_fingerprint.is_none() {
            serial_fingerprint = Some(analysis.result_fingerprint());
            faults_pre_collapse = analysis.faults.len();
            println!(
                "  fault collapsing: {} candidate faults -> {} classes ({} collapsed away)",
                faults_pre_collapse, snap.fault_classes, snap.faults_collapsed
            );
        }
        robustness.absorb(&flow.metrics().robustness);
        latency.merge_from(&flow.metrics().latency);
        runs.push(ThreadRun {
            threads,
            analyze_secs,
            stats: snap,
        });
    }

    if let Some(t1) = runs.iter().find(|r| r.threads == 1) {
        for r in runs.iter().filter(|r| r.threads > 1) {
            println!(
                "  speedup t{} vs t1: {:.2}x",
                r.threads,
                t1.analyze_secs / r.analyze_secs
            );
        }
    }

    // Shard-merge parity: the same campaign partitioned into fault
    // shards — through the checkpointed in-process path `FASTMON_SHARDS`
    // runs — must merge to the bit-identical result. A mismatch is a
    // determinism regression and fails the snapshot.
    let shard_report = if shards > 1 {
        let flow = HdfTestFlow::prepare(&circuit, &config.flow_config());
        let files = ShardFiles::new(
            std::env::temp_dir().join(format!("fastmon-snapshot-shards-{}", std::process::id())),
        );
        files.clear();
        let t = Instant::now();
        let merged = files.run_in_process(&flow, &patterns, shards, &mut |_, _| {});
        let analyze_secs = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(files.dir());
        match merged {
            Ok(merged) => {
                let merged_fingerprint = merged.result_fingerprint();
                let matches_serial = serial_fingerprint == Some(merged_fingerprint);
                println!(
                    "  shards={shards}: analyze {analyze_secs:.3} s, merged fingerprint \
                     {merged_fingerprint:016x} ({})",
                    if matches_serial {
                        "bit-identical to serial"
                    } else {
                        "MISMATCH vs serial"
                    }
                );
                if !matches_serial {
                    eprintln!(
                        "perf_snapshot: sharded merge diverged from the serial campaign \
                         (serial {serial_fingerprint:?}, merged {merged_fingerprint:016x})"
                    );
                    std::process::exit(1);
                }
                robustness.absorb(&flow.metrics().robustness);
                latency.merge_from(&flow.metrics().latency);
                Some(ShardReport {
                    shards,
                    analyze_secs,
                    merged_fingerprint,
                    matches_serial,
                })
            }
            Err(e) => {
                eprintln!("perf_snapshot: sharded analyze failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    // Supervised multi-process run (`--shard-procs`): one child OS
    // process per shard, merged from landed result files. Bit-identity
    // with the serial fingerprint is a hard gate, like the in-process
    // shard merge above.
    let shard_procs_report = if shard_procs && shards > 1 {
        let dir =
            std::env::temp_dir().join(format!("fastmon-snapshot-shardsup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("perf_snapshot: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        let flow = HdfTestFlow::prepare(&circuit, &config.flow_config());
        let mut sp_config = config.clone();
        sp_config.shards = shards;
        let jobs = match fastmon_core::SupervisorConfig::from_env(shards) {
            Ok(c) => c.jobs,
            Err(e) => {
                eprintln!("perf_snapshot: {e}");
                std::process::exit(2);
            }
        };
        let t = Instant::now();
        match fastmon_bench::shardsup::supervise(
            &flow,
            &patterns,
            &sp_config,
            &name,
            scale,
            &dir,
            None,
            &mut |_| {},
        ) {
            Ok(run) => {
                let wall_secs = t.elapsed().as_secs_f64();
                let merged_fingerprint = run.analysis.result_fingerprint();
                let matches_serial = serial_fingerprint == Some(merged_fingerprint);
                let supervisor_peak_rss_bytes =
                    fastmon_bench::rss::peak_rss_self_bytes().unwrap_or(0);
                let children_peak_rss_bytes = run.report.worker_peak_rss_bytes;
                println!(
                    "  shard-procs: {shards} shards x {jobs} jobs in {wall_secs:.3} s, \
                     {} workers ({} respawns, {} evictions), merged fingerprint \
                     {merged_fingerprint:016x} ({}), worker peak RSS {}",
                    run.report.workers_spawned,
                    run.report.respawns,
                    run.report.rss_evictions,
                    if matches_serial {
                        "bit-identical to serial"
                    } else {
                        "MISMATCH vs serial"
                    },
                    fastmon_bench::rss::format_mib(children_peak_rss_bytes),
                );
                if !matches_serial {
                    eprintln!(
                        "perf_snapshot: supervised shard merge diverged from the serial \
                         campaign (serial {serial_fingerprint:?}, merged {merged_fingerprint:016x})"
                    );
                    std::process::exit(1);
                }
                robustness.absorb(&flow.metrics().robustness);
                latency.merge_from(&flow.metrics().latency);
                let _ = std::fs::remove_dir_all(&dir);
                Some(ShardProcsReport {
                    shards,
                    jobs,
                    wall_secs,
                    merged_fingerprint,
                    matches_serial,
                    report: run.report,
                    supervisor_peak_rss_bytes,
                    children_peak_rss_bytes,
                })
            }
            Err(e) => {
                eprintln!("perf_snapshot: supervised shard run failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    robustness.daemon = daemon_exercise(&latency);
    if let Some((_, completed)) = robustness
        .daemon
        .iter()
        .find(|(n, _)| *n == "jobs_completed")
    {
        println!("  daemon exercise: {completed} jobs completed over the socket");
    }

    println!("\nstage latency quantiles:");
    print!("{}", render_latency_table(&latency));

    fastmon_obs::flush();
    let report = fastmon_obs::profile::snapshot();
    println!("\nper-phase self time:");
    print!("{}", fastmon_obs::profile::render_table(&report));

    // Sampled after every run so the high-water mark covers the hungriest
    // thread count, not just the last one.
    let peak_rss = fastmon_bench::rss::peak_rss_self_bytes();
    match peak_rss {
        Some(bytes) => println!("peak RSS: {}", fastmon_bench::rss::format_mib(bytes)),
        None => println!("peak RSS: unavailable on this platform"),
    }

    let extras = SnapshotExtras {
        netlist_bytes: circuit.storage_bytes(),
        faults_pre_collapse,
        faults_post_collapse: runs.first().map_or(0, |r| r.stats.fault_classes),
        shard_report: shard_report.as_ref(),
        shard_procs: shard_procs_report.as_ref(),
        sweep: &sweep,
    };
    println!(
        "netlist arena: {} bytes for {} gates ({:.1} bytes/gate)",
        extras.netlist_bytes,
        profile.gates,
        extras.netlist_bytes as f64 / profile.gates.max(1) as f64
    );
    let json = render_json(
        &name,
        &profile.name,
        profile.gates,
        scale,
        patterns.len(),
        &atpg,
        &runs,
        &robustness,
        &latency,
        peak_rss,
        &extras,
        &fastmon_obs::profile::report_json(&report),
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("perf_snapshot: cannot write snapshot {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    // CI memory gate: the snapshot is written first so the artifact
    // survives for diagnosis, then the ceiling is enforced.
    if let Some(ceiling) = std::env::var("FASTMON_RSS_CEILING_BYTES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        match peak_rss {
            Some(bytes) if bytes > ceiling => {
                eprintln!(
                    "perf_snapshot: peak RSS {} exceeds the {} ceiling",
                    fastmon_bench::rss::format_mib(bytes),
                    fastmon_bench::rss::format_mib(ceiling),
                );
                std::process::exit(1);
            }
            Some(bytes) => println!(
                "peak RSS {} within the {} ceiling",
                fastmon_bench::rss::format_mib(bytes),
                fastmon_bench::rss::format_mib(ceiling),
            ),
            None => println!("peak RSS probe unavailable; ceiling not enforced"),
        }
    }
    fastmon_obs::finish();
}

/// Memory, collapse and sharding facts threaded into the JSON snapshot.
struct SnapshotExtras<'a> {
    netlist_bytes: usize,
    faults_pre_collapse: usize,
    faults_post_collapse: u64,
    shard_report: Option<&'a ShardReport>,
    shard_procs: Option<&'a ShardProcsReport>,
    sweep: &'a [SweepEntry],
}

/// The ATPG stage's wall clock, per-phase seconds and grading counters.
struct AtpgReport {
    atpg_secs: f64,
    /// `(phase name, seconds)` for the `atpg_*` spans, pipeline order.
    phases: Vec<(String, f64)>,
    /// Grading + PODEM counters from the scoped registry.
    counters: Vec<(&'static str, u64)>,
}

impl AtpgReport {
    /// Cone BFS traversals the cached arena avoided vs what the uncached
    /// path would have performed: `(performed, would_be, percent_fewer)`.
    fn bfs_saved(&self) -> (u64, u64, f64) {
        let get = |name: &str| {
            self.counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, v)| v)
        };
        let performed = get("cone_bfs");
        let would_be = performed + get("cone_bfs_avoided");
        let fewer = if would_be > 0 {
            100.0 * (would_be - performed) as f64 / would_be as f64
        } else {
            0.0
        };
        (performed, would_be, fewer)
    }

    /// Before/after-style summary of the grading engine.
    fn render_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "  atpg phases:");
        for (phase, secs) in &self.phases {
            let _ = writeln!(s, "    {phase:<14} {secs:>9.3} s");
        }
        let (performed, would_be, fewer) = self.bfs_saved();
        let _ = writeln!(
            s,
            "  cone BFS traversals: {would_be} (uncached) -> {performed} (cached arena), \
             {fewer:.1}% fewer"
        );
        let get = |name: &str| {
            self.counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |&(_, v)| v)
        };
        let _ = writeln!(
            s,
            "  grading scratch: {} reuses / {} allocs; matrix: {} build(s), {} rebuild(s) avoided",
            get("grade_scratch_reuses"),
            get("grade_scratch_allocs"),
            get("matrix_builds"),
            get("matrix_rebuilds_avoided"),
        );
        let _ = writeln!(
            s,
            "  PODEM: {} calls, {} backtracks, {} implication evaluations, {} aborts",
            get("podem_calls"),
            get("podem_backtracks"),
            get("podem_implications"),
            get("podem_aborts"),
        );
        s
    }
}

/// Collects the ATPG report right after pattern generation (the `atpg_*`
/// spans are not touched by the later analyze runs, so the phase totals
/// are exact).
fn atpg_report(atpg_secs: f64, metrics: &fastmon_obs::AtpgMetrics) -> AtpgReport {
    fastmon_obs::flush();
    let report = fastmon_obs::profile::snapshot();
    let mut phases = Vec::new();
    for name in ["atpg_cones", "atpg_random", "atpg_podem", "atpg_compact"] {
        if let Some((_, agg)) = report.phases.iter().find(|(n, _)| n == name) {
            phases.push((name.to_owned(), agg.total_ns as f64 / 1e9));
        }
    }
    AtpgReport {
        atpg_secs,
        phases,
        counters: metrics.entries(),
    }
}

/// Hand-rolled JSON (the workspace carries no serde).
#[allow(clippy::too_many_arguments)]
fn render_json(
    profile: &str,
    scaled_name: &str,
    gates: usize,
    scale: f64,
    patterns: usize,
    atpg: &AtpgReport,
    runs: &[ThreadRun],
    robustness: &RobustnessTotals,
    latency: &fastmon_obs::HistogramSet,
    peak_rss: Option<u64>,
    extras: &SnapshotExtras<'_>,
    profile_json: &str,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"profile\": \"{profile}\",");
    let _ = writeln!(s, "  \"circuit\": \"{scaled_name}\",");
    let _ = writeln!(s, "  \"gates\": {gates},");
    let _ = writeln!(s, "  \"scale\": {scale},");
    let _ = writeln!(s, "  \"patterns\": {patterns},");
    let _ = writeln!(s, "  \"netlist_bytes\": {},", extras.netlist_bytes);
    let _ = writeln!(
        s,
        "  \"bytes_per_gate\": {},",
        extras.netlist_bytes as f64 / gates.max(1) as f64
    );
    let _ = writeln!(
        s,
        "  \"faults_pre_collapse\": {},",
        extras.faults_pre_collapse
    );
    let _ = writeln!(
        s,
        "  \"faults_post_collapse\": {},",
        extras.faults_post_collapse
    );
    // 0 encodes "probe unavailable" (non-Linux host) — a real campaign
    // always has a nonzero high-water mark.
    let _ = writeln!(s, "  \"peak_rss_bytes\": {},", peak_rss.unwrap_or(0));
    let _ = writeln!(s, "  \"atpg_secs\": {},", atpg.atpg_secs);
    let _ = writeln!(s, "  \"atpg\": {{");
    let _ = writeln!(s, "    \"phases\": {{");
    for (i, (phase, secs)) in atpg.phases.iter().enumerate() {
        let sep = if i + 1 < atpg.phases.len() { "," } else { "" };
        let _ = writeln!(s, "      \"{phase}\": {secs}{sep}");
    }
    let _ = writeln!(s, "    }},");
    let (performed, would_be, fewer) = atpg.bfs_saved();
    let _ = writeln!(s, "    \"cone_bfs_uncached_equivalent\": {would_be},");
    let _ = writeln!(s, "    \"cone_bfs_performed\": {performed},");
    let _ = writeln!(s, "    \"cone_bfs_percent_fewer\": {fewer},");
    let _ = writeln!(s, "    \"counters\": {{");
    for (i, (name, value)) in atpg.counters.iter().enumerate() {
        let sep = if i + 1 < atpg.counters.len() { "," } else { "" };
        let _ = writeln!(s, "      \"{name}\": {value}{sep}");
    }
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let sep = if i + 1 < runs.len() { "," } else { "" };
        let st = r.stats;
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"threads\": {},", r.threads);
        let _ = writeln!(s, "      \"analyze_secs\": {},", r.analyze_secs);
        let _ = writeln!(s, "      \"cones_simulated\": {},", st.cones_simulated);
        let _ = writeln!(s, "      \"cones_masked\": {},", st.cones_masked);
        let _ = writeln!(s, "      \"nodes_evaluated\": {},", st.nodes_evaluated);
        let _ = writeln!(s, "      \"nodes_converged\": {},", st.nodes_converged);
        let _ = writeln!(
            s,
            "      \"nodes_pruned_unobserved\": {},",
            st.nodes_pruned_unobserved
        );
        let _ = writeln!(s, "      \"cone_plans_built\": {},", st.cone_plans_built);
        let _ = writeln!(s, "      \"waveform_allocs\": {},", st.waveform_allocs);
        let _ = writeln!(s, "      \"waveform_reuses\": {},", st.waveform_reuses);
        let _ = writeln!(s, "      \"fault_classes\": {},", st.fault_classes);
        let _ = writeln!(s, "      \"faults_collapsed\": {}", st.faults_collapsed);
        let _ = writeln!(s, "    }}{sep}");
    }
    let _ = writeln!(s, "  ],");
    match extras.shard_report {
        Some(r) => {
            let _ = writeln!(s, "  \"shard_merge\": {{");
            let _ = writeln!(s, "    \"shards\": {},", r.shards);
            let _ = writeln!(s, "    \"analyze_secs\": {},", r.analyze_secs);
            let _ = writeln!(
                s,
                "    \"merged_fingerprint\": \"{:016x}\",",
                r.merged_fingerprint
            );
            let _ = writeln!(s, "    \"matches_serial\": {}", r.matches_serial);
            let _ = writeln!(s, "  }},");
        }
        None => {
            let _ = writeln!(s, "  \"shard_merge\": null,");
        }
    }
    match extras.shard_procs {
        Some(r) => {
            let _ = writeln!(s, "  \"shard_procs\": {{");
            let _ = writeln!(s, "    \"shards\": {},", r.shards);
            let _ = writeln!(s, "    \"jobs\": {},", r.jobs);
            let _ = writeln!(s, "    \"wall_secs\": {},", r.wall_secs);
            let _ = writeln!(
                s,
                "    \"merged_fingerprint\": \"{:016x}\",",
                r.merged_fingerprint
            );
            let _ = writeln!(s, "    \"matches_serial\": {},", r.matches_serial);
            let _ = writeln!(s, "    \"workers_spawned\": {},", r.report.workers_spawned);
            let _ = writeln!(s, "    \"respawns\": {},", r.report.respawns);
            let _ = writeln!(s, "    \"stalls_detected\": {},", r.report.stalls_detected);
            let _ = writeln!(s, "    \"rss_evictions\": {},", r.report.rss_evictions);
            let _ = writeln!(s, "    \"readmissions\": {},", r.report.readmissions);
            let _ = writeln!(
                s,
                "    \"stragglers_redispatched\": {},",
                r.report.stragglers_redispatched
            );
            let _ = writeln!(
                s,
                "    \"supervisor_peak_rss_bytes\": {},",
                r.supervisor_peak_rss_bytes
            );
            let _ = writeln!(
                s,
                "    \"children_peak_rss_bytes\": {}",
                r.children_peak_rss_bytes
            );
            let _ = writeln!(s, "  }},");
        }
        None => {
            let _ = writeln!(s, "  \"shard_procs\": null,");
        }
    }
    let _ = writeln!(s, "  \"scale_sweep\": [");
    for (i, e) in extras.sweep.iter().enumerate() {
        let sep = if i + 1 < extras.sweep.len() { "," } else { "" };
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"scale\": {},", e.scale);
        let _ = writeln!(s, "      \"gates\": {},", e.gates);
        let _ = writeln!(s, "      \"patterns\": {},", e.patterns);
        let _ = writeln!(s, "      \"netlist_bytes\": {},", e.netlist_bytes);
        let _ = writeln!(
            s,
            "      \"faults_pre_collapse\": {},",
            e.faults_pre_collapse
        );
        let _ = writeln!(
            s,
            "      \"faults_post_collapse\": {},",
            e.faults_post_collapse
        );
        let _ = writeln!(s, "      \"analyze_secs\": {},", e.analyze_secs);
        let _ = writeln!(s, "      \"peak_rss_bytes\": {}", e.peak_rss_bytes);
        let _ = writeln!(s, "    }}{sep}");
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"robustness\": {{");
    for (name, value) in &robustness.entries {
        let _ = writeln!(s, "    \"{name}\": {value},");
    }
    let _ = writeln!(s, "    \"daemon\": {{");
    for (i, (name, value)) in robustness.daemon.iter().enumerate() {
        let sep = if i + 1 < robustness.daemon.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(s, "      \"{name}\": {value}{sep}");
    }
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"latency\": {},", latency.to_json());
    let _ = writeln!(s, "  \"phase_profile\": {profile_json}");
    let _ = writeln!(s, "}}");
    s
}
