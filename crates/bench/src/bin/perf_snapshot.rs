//! The CI gate on one mid-scale campaign. The s9234 stand-in at scale 0.5
//! runs through ATPG, one serial campaign, and the same campaign as 4
//! in-process shards; with `FASTMON_SHARD_PROCS=1` it also runs as 4
//! supervised worker processes, tuned by the supervisor's own
//! `FASTMON_SHARD_*` knobs. The run exits 1 when a merged fingerprint
//! differs from the serial one, or when the process's peak RSS exceeds
//! [`RSS_CEILING_BYTES`].
//!
//! The facts CI checks are written as JSON to `FASTMON_SNAPSHOT_OUT`
//! (default `target/perf_snapshot.json`) before the ceiling is enforced,
//! so the file survives a failed run for diagnosis. Timings are
//! perfbench's job (`BENCHMARK.json`); this binary records none.
//!
//! The binary also hosts shard workers, for its own supervised run and for
//! the supervisor chaos suite: a process exec'd as `--shard-worker i/n`
//! runs its shard and exits.

use std::path::Path;

use fastmon_atpg::TestSet;
use fastmon_bench::rss::{format_mib, peak_rss_self_bytes};
use fastmon_bench::ExperimentConfig;
use fastmon_core::{HdfTestFlow, ShardFiles, SupervisorConfig};
use fastmon_netlist::generate::CircuitProfile;

const CIRCUIT: &str = "s9234";
const SCALE: f64 = 0.5;
const SHARDS: usize = 4;

/// Peak-RSS ceiling in both modes: about 4x the supervised mode's peak
/// (46-68 MiB on a 2-core Linux host; the in-process mode peaks at
/// 36-41 MiB), headroom for allocator noise but not for a layout
/// regression.
const RSS_CEILING_BYTES: u64 = 256 * 1024 * 1024;

/// Reports a failed gate on stderr and exits 1.
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("perf_snapshot: {message}");
    std::process::exit(1);
}

/// Exits 1 unless the `mode` merge reproduced the serial fingerprint;
/// returns the JSON fields both shard sections share.
fn parity(mode: &str, serial: u64, merged: u64) -> String {
    if merged != serial {
        fail(format!(
            "{mode} merge diverged from the serial campaign \
             (serial {serial:016x}, merged {merged:016x})"
        ));
    }
    println!("  {mode}: {SHARDS} shards merge bit-identical to serial");
    format!(
        "\"shards\": {SHARDS}, \"merged_fingerprint\": \"{merged:016x}\", \"matches_serial\": true"
    )
}

/// Runs the campaign as supervised worker processes and returns its JSON
/// section.
fn supervised(
    flow: &HdfTestFlow<'_>,
    patterns: &TestSet,
    config: &ExperimentConfig,
    serial: u64,
) -> String {
    let jobs = SupervisorConfig::from_env(SHARDS)
        .unwrap_or_else(|e| fail(e))
        .jobs;
    let dir =
        std::env::temp_dir().join(format!("fastmon-snapshot-shardsup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        fail(format!("cannot create {}: {e}", dir.display()));
    }
    let config = ExperimentConfig {
        shards: SHARDS,
        ..config.clone()
    };
    let run = fastmon_bench::shardsup::supervise(
        flow,
        patterns,
        &config,
        CIRCUIT,
        SCALE,
        &dir,
        None,
        &mut |_| {},
    )
    .unwrap_or_else(|e| fail(format!("supervised shard run failed: {e}")));
    let _ = std::fs::remove_dir_all(&dir);
    let shared = parity("supervised", serial, run.analysis.result_fingerprint());
    let r = &run.report;
    let supervisor_peak = peak_rss_self_bytes().unwrap_or(0);
    println!(
        "  supervised: {} workers ({} respawns) over {jobs} jobs, peak RSS {} \
         supervisor / {} worker",
        r.workers_spawned,
        r.respawns,
        format_mib(supervisor_peak),
        format_mib(r.worker_peak_rss_bytes),
    );
    format!(
        "{{{shared}, \"jobs\": {jobs}, \"workers_spawned\": {}, \"respawns\": {}, \
         \"supervisor_peak_rss_bytes\": {supervisor_peak}, \"children_peak_rss_bytes\": {}}}",
        r.workers_spawned, r.respawns, r.worker_peak_rss_bytes
    )
}

fn main() {
    fastmon_bench::shardsup::maybe_run_worker();
    let config = ExperimentConfig::from_env();
    let out_path = std::env::var("FASTMON_SNAPSHOT_OUT")
        .unwrap_or_else(|_| "target/perf_snapshot.json".to_owned());
    let Some(profile) = CircuitProfile::named(CIRCUIT).map(|p| p.scaled(SCALE)) else {
        fail(format!("no paper-suite profile named {CIRCUIT}"));
    };
    let circuit = profile
        .generate(config.seed)
        .unwrap_or_else(|e| fail(format!("cannot generate the {CIRCUIT} stand-in: {e}")));
    let flow = HdfTestFlow::prepare(&circuit, &config.flow_config());
    let patterns = flow.generate_patterns(Some(profile.pattern_budget));
    let serial = flow.analyze(&patterns).result_fingerprint();
    println!(
        "perf_snapshot: {CIRCUIT} at scale {SCALE}: {} gates, {} patterns, \
         serial fingerprint {serial:016x}",
        profile.gates,
        patterns.len()
    );

    let files = ShardFiles::new(
        std::env::temp_dir().join(format!("fastmon-snapshot-shards-{}", std::process::id())),
    );
    files.clear();
    let merged = files.run_in_process(&flow, &patterns, SHARDS, &mut |_, _| {});
    let _ = std::fs::remove_dir_all(files.dir());
    let merged = merged
        .map(|analysis| analysis.result_fingerprint())
        .unwrap_or_else(|e| fail(format!("sharded analyze failed: {e}")));
    let shard_merge = parity("in-process", serial, merged);
    let shard_procs = if config.shard_procs {
        supervised(&flow, &patterns, &config, serial)
    } else {
        "null".to_owned()
    };

    // 0 encodes "probe unavailable" (non-Linux host).
    let peak = peak_rss_self_bytes();
    let json = format!(
        "{{\n  \"gates\": {},\n  \"peak_rss_bytes\": {},\n  \"shard_merge\": {{{shard_merge}}},\n  \
         \"shard_procs\": {shard_procs}\n}}\n",
        profile.gates,
        peak.unwrap_or(0)
    );
    if let Some(parent) = Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&out_path, json) {
        fail(format!("cannot write {out_path}: {e}"));
    }
    println!("wrote {out_path}");
    match peak {
        Some(bytes) if bytes > RSS_CEILING_BYTES => fail(format!(
            "peak RSS {} exceeds the {} ceiling",
            format_mib(bytes),
            format_mib(RSS_CEILING_BYTES)
        )),
        Some(bytes) => println!(
            "peak RSS {} within the {} ceiling",
            format_mib(bytes),
            format_mib(RSS_CEILING_BYTES)
        ),
        None => println!("peak RSS probe unavailable; ceiling not enforced"),
    }
    fastmon_obs::finish();
}
