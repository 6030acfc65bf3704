//! The benchmark's own checks: its inputs are pinned, every workload
//! clears its correctness gate at tiny scale, and every run reports
//! exactly the metrics `BENCHMARK.json` names.

use std::path::PathBuf;

use fastmon_obs::json::{self, Value};
use perfbench::daemon::JobShape;
use perfbench::inproc::{
    imported_patterns, imported_test_set, pattern_fingerprint, pinned_campaign_fingerprint, Setup,
};
use perfbench::{Outcome, RunOptions, Size, Workload};

fn tiny(seed: u64, trace: bool) -> RunOptions {
    RunOptions {
        seed,
        // one untraced round (plus one traced round with `trace`)
        seconds: 1e-3,
        trace,
        size: Size::Tiny,
        scratch_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_perfbench"))),
    }
}

fn record<'a>(o: &'a Outcome, key: &str) -> Option<&'a str> {
    o.record
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let spec = json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(section)
        .and_then(Value::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn reported(metrics: &[perfbench::Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect()
}

#[test]
fn the_same_seed_imports_the_same_test_set() {
    let circuit = Setup::of(Workload::Campaign, Size::Full)
        .profile()
        .generate(7)
        .expect("p89k@0.5 generates");
    let n = imported_patterns(Size::Full);
    let a = imported_test_set(&circuit, n, 7);
    let b = imported_test_set(&circuit, n, 7);
    assert_eq!(a.len(), 702);
    assert_eq!(a, b);
    assert_eq!(pattern_fingerprint(&a), pattern_fingerprint(&b));
    let other = imported_test_set(&circuit, n, 8);
    assert_ne!(pattern_fingerprint(&a), pattern_fingerprint(&other));
}

#[test]
fn every_daemon_job_is_a_distinct_campaign() {
    let shape = JobShape::of(Size::Full);
    let seeds: std::collections::BTreeSet<u64> =
        (0..shape.jobs()).map(|i| shape.request(i).seed).collect();
    assert_eq!(
        seeds.len(),
        shape.jobs(),
        "every job is a distinct campaign"
    );
}

#[test]
fn the_campaign_fingerprint_is_pinned() {
    let pinned = format!("\"{:016x}\"", pinned_campaign_fingerprint(Size::Tiny));
    // the in-process inputs are pinned: any workload seed, same campaign
    for seed in [3, 3, 4] {
        let o = perfbench::run(Workload::Campaign, &tiny(seed, false));
        assert!(o.correct(), "{:?}", o.failures);
        assert_eq!(record(&o, "result_fingerprint"), Some(pinned.as_str()));
    }
}

#[test]
fn every_workload_passes_its_gate_and_reports_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        let o = perfbench::run(workload, &tiny(1, true));
        let name = workload.name();
        assert!(
            o.correct(),
            "{name}: {} of {} failed: {:?}",
            o.failed(),
            o.attempted,
            o.failures
        );
        assert_eq!(reported(&o.end_to_end), end_to_end, "{name} end-to-end");
        assert_eq!(reported(&o.per_layer), per_layer, "{name} per-layer");
        for m in &o.end_to_end {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{name}: {} = {}",
                m.name,
                m.value
            );
        }
        assert_eq!(record(&o, "seed"), Some("1"));
        let line = json::parse(&o.result_json(false)).expect("result line is JSON");
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
    }
}
