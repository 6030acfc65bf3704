//! Post-run self-time profiles built from span enters/exits.
//!
//! Whenever tracing (profile or full mode) is active, every span exit
//! feeds two thread-local aggregates that are merged into a process-wide
//! table when the thread ends (or on [`crate::flush`]):
//!
//! * a **per-phase table**: span name → `{count, total_ns, self_ns}`
//!   where *self* time excludes child spans;
//! * a **collapsed-stack table** (flamegraph text format): the `;`-joined
//!   span stack → accumulated self nanoseconds.
//!
//! [`snapshot`] returns both, and [`report_json`] produces the versioned
//! JSON that `run_all` folds into `RUN_MANIFEST.json` (children write it
//! to the path named by `FASTMON_PROFILE_OUT`; see
//! [`write_if_requested`]).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Schema version of the profile-report JSON.
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

/// Aggregate for one phase (span name).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Completed spans with this name.
    pub count: u64,
    /// Wall nanoseconds inside the span, children included.
    pub total_ns: u64,
    /// Wall nanoseconds inside the span, children excluded.
    pub self_ns: u64,
}

/// A merged snapshot of the process-wide profile.
#[derive(Debug, Default, Clone)]
pub struct ProfileReport {
    /// Per-phase aggregates, sorted by self time (descending).
    pub phases: Vec<(String, PhaseAgg)>,
    /// Collapsed stacks (`a;b;c` → self ns), sorted by self time
    /// (descending).
    pub collapsed: Vec<(String, u64)>,
}

#[derive(Default)]
struct Global {
    phases: HashMap<String, PhaseAgg>,
    collapsed: HashMap<String, u64>,
}

fn global() -> &'static Mutex<Global> {
    static GLOBAL: OnceLock<Mutex<Global>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Global::default()))
}

fn lock() -> std::sync::MutexGuard<'static, Global> {
    global().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Merges (and drains) one thread's local aggregates into the global
/// profile. Called by the tracer; not part of the public workflow.
pub(crate) fn merge_thread(
    phases: &mut HashMap<&'static str, PhaseAgg>,
    collapsed: &mut HashMap<String, u64>,
) {
    let mut g = lock();
    for (name, agg) in phases.drain() {
        let e = g.phases.entry(name.to_owned()).or_default();
        e.count += agg.count;
        e.total_ns += agg.total_ns;
        e.self_ns += agg.self_ns;
    }
    for (stack, ns) in collapsed.drain() {
        *g.collapsed.entry(stack).or_insert(0) += ns;
    }
}

/// A merged snapshot of everything recorded so far (call [`crate::flush`]
/// first so the calling thread's own spans are included).
#[must_use]
pub fn snapshot() -> ProfileReport {
    let g = lock();
    let mut phases: Vec<(String, PhaseAgg)> = g
        .phases
        .iter()
        .map(|(n, a)| (n.clone(), a.clone()))
        .collect();
    phases.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(&b.0)));
    let mut collapsed: Vec<(String, u64)> =
        g.collapsed.iter().map(|(s, &ns)| (s.clone(), ns)).collect();
    collapsed.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ProfileReport { phases, collapsed }
}

/// Clears the global profile (between repeated measurements in one
/// process).
pub fn reset() {
    let mut g = lock();
    g.phases.clear();
    g.collapsed.clear();
}

/// The report as one-line JSON:
/// `{"schema_version":1,"phases":{name:{count,total_ns,self_ns}},"collapsed":[[stack,ns]]}`.
#[must_use]
pub fn report_json(report: &ProfileReport) -> String {
    let mut s = format!("{{\"schema_version\":{PROFILE_SCHEMA_VERSION},\"phases\":{{");
    for (i, (name, agg)) in report.phases.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            crate::json::escape(name),
            agg.count,
            agg.total_ns,
            agg.self_ns
        );
    }
    s.push_str("},\"collapsed\":[");
    for (i, (stack, ns)) in report.collapsed.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[\"{}\",{ns}]", crate::json::escape(stack));
    }
    s.push_str("]}");
    s
}

/// When `FASTMON_PROFILE_OUT` names a path, writes the current report
/// there as JSON (used by bench children so `run_all` can embed per-phase
/// timings into `RUN_MANIFEST.json`). Failures are reported on stderr,
/// never fatal.
pub fn write_if_requested() {
    let Some(path) = std::env::var_os("FASTMON_PROFILE_OUT") else {
        return;
    };
    let report = snapshot();
    let mut json = report_json(&report);
    json.push('\n');
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!(
            "[fastmon-obs] cannot write profile to {}: {e}",
            std::path::Path::new(&path).display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileReport {
        ProfileReport {
            phases: vec![
                (
                    "analyze".into(),
                    PhaseAgg {
                        count: 2,
                        total_ns: 5_000_000,
                        self_ns: 3_000_000,
                    },
                ),
                (
                    "band".into(),
                    PhaseAgg {
                        count: 8,
                        total_ns: 2_000_000,
                        self_ns: 2_000_000,
                    },
                ),
            ],
            collapsed: vec![
                ("analyze;band".into(), 2_000_000),
                ("analyze".into(), 3_000_000),
            ],
        }
    }

    #[test]
    fn report_json_is_parseable() {
        let r = sample();
        let v = crate::json::parse(&report_json(&r)).unwrap();
        assert_eq!(
            v.get("schema_version").and_then(crate::json::Value::as_u64),
            Some(u64::from(PROFILE_SCHEMA_VERSION))
        );
        let band = v
            .get("phases")
            .and_then(|p| p.get("band"))
            .and_then(|b| b.get("count"))
            .and_then(crate::json::Value::as_u64);
        assert_eq!(band, Some(8));
        assert_eq!(
            v.get("collapsed")
                .and_then(crate::json::Value::as_arr)
                .map(<[_]>::len),
            Some(2)
        );
    }
}
