//! Machine-readable run manifest for the experiment driver.
//!
//! [`run_all`](../bin/run_all.rs) records one [`RunRecord`] per child
//! experiment — outcome, wall-clock duration and the tail of the child's
//! stderr — and serializes the list to `RUN_MANIFEST.json` so a failed
//! campaign still documents exactly which artifacts are trustworthy.
//!
//! The serializer is hand-rolled (the build environment is offline, so no
//! serde): plain JSON with full string escaping.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use fastmon_obs::json::escape;

/// How one child experiment ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The child exited with status 0.
    Success,
    /// The child exited with a nonzero status (or was killed by a signal,
    /// in which case `exit_code` is `None`).
    Failed {
        /// The child's exit code, if it exited normally.
        exit_code: Option<i32>,
    },
    /// The child observed the soft-cancel deadline (`FASTMON_DEADLINE_SECS`)
    /// and exited cleanly with [`crate::EXIT_CANCELLED`] inside the grace
    /// period: its final checkpoint is flushed and its partial artifacts
    /// are trustworthy, unlike a `timed-out` (killed) child.
    Cancelled {
        /// The soft deadline the child was given, in seconds.
        deadline_secs: u64,
    },
    /// The child exceeded the per-child timeout *plus* the soft-cancel
    /// grace period and was killed; its artifacts may be incomplete.
    TimedOut {
        /// The timeout that was enforced, in seconds.
        limit_secs: u64,
    },
    /// The child could not be launched at all (missing binary, exec error).
    LaunchFailed {
        /// The launch error.
        message: String,
    },
}

impl RunOutcome {
    /// Returns `true` for [`RunOutcome::Success`].
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, RunOutcome::Success)
    }

    /// Short machine-readable tag used in the manifest.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            RunOutcome::Success => "success",
            RunOutcome::Failed { .. } => "failed",
            RunOutcome::Cancelled { .. } => "cancelled",
            RunOutcome::TimedOut { .. } => "timed-out",
            RunOutcome::LaunchFailed { .. } => "launch-failed",
        }
    }
}

/// One child experiment's manifest entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The experiment name (binary name or path as given to the driver).
    pub name: String,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Wall-clock duration in seconds (0 for launch failures).
    pub duration_secs: f64,
    /// The last few lines of the child's stderr (empty on launch failure).
    pub stderr_tail: Vec<String>,
    /// The child's per-phase self-time profile report, as the one-line JSON
    /// object `fastmon-obs` wrote to `FASTMON_PROFILE_OUT` (already
    /// validated by the driver against the profile schema). `None` when the
    /// child produced no readable report.
    pub profile: Option<String>,
}

/// Serializes the records as a pretty-printed JSON manifest.
#[must_use]
pub fn manifest_json(records: &[RunRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema_version\": 1,\n  \"runs\": [");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", escape(&r.name));
        let _ = writeln!(out, "      \"outcome\": \"{}\",", r.outcome.tag());
        match &r.outcome {
            RunOutcome::Failed { exit_code } => match exit_code {
                Some(c) => {
                    let _ = writeln!(out, "      \"exit_code\": {c},");
                }
                None => {
                    let _ = writeln!(out, "      \"exit_code\": null,");
                }
            },
            RunOutcome::Cancelled { deadline_secs } => {
                let _ = writeln!(out, "      \"deadline_secs\": {deadline_secs},");
            }
            RunOutcome::TimedOut { limit_secs } => {
                let _ = writeln!(out, "      \"timeout_secs\": {limit_secs},");
            }
            RunOutcome::LaunchFailed { message } => {
                let _ = writeln!(out, "      \"error\": \"{}\",", escape(message));
            }
            RunOutcome::Success => {}
        }
        let _ = writeln!(out, "      \"duration_secs\": {:.3},", r.duration_secs);
        if let Some(profile) = &r.profile {
            let _ = writeln!(out, "      \"profile\": {},", profile.trim());
        }
        out.push_str("      \"stderr_tail\": [");
        for (j, line) in r.stderr_tail.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", escape(line));
        }
        out.push_str("]\n    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes the manifest to `path` (atomically: temp file + rename).
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written.
pub fn write_manifest(path: &Path, records: &[RunRecord]) -> io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, manifest_json(records))?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_names_every_outcome() {
        let records = vec![
            RunRecord {
                name: "fig3".into(),
                outcome: RunOutcome::Success,
                duration_secs: 1.25,
                stderr_tail: vec!["done".into()],
                profile: Some(
                    "{\"schema_version\":1,\"phases\":{\"atpg\":{\"count\":1,\"total_ns\":5,\"self_ns\":5}},\"collapsed\":[[\"atpg\",5]]}"
                        .into(),
                ),
            },
            RunRecord {
                name: "table2".into(),
                outcome: RunOutcome::Failed { exit_code: Some(3) },
                duration_secs: 0.5,
                stderr_tail: vec!["boom \"quoted\"".into()],
                profile: None,
            },
            RunRecord {
                name: "table3".into(),
                outcome: RunOutcome::TimedOut { limit_secs: 60 },
                duration_secs: 60.0,
                stderr_tail: vec![],
            profile: None,
            },
            RunRecord {
                name: "fig3-soft".into(),
                outcome: RunOutcome::Cancelled { deadline_secs: 60 },
                duration_secs: 61.5,
                stderr_tail: vec!["run cancelled during analyze".into()],
                profile: None,
            },
            RunRecord {
                name: "missing".into(),
                outcome: RunOutcome::LaunchFailed {
                    message: "no such file".into(),
                },
                duration_secs: 0.0,
                stderr_tail: vec![],
            profile: None,
            },
        ];
        let json = manifest_json(&records);
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"outcome\": \"success\""));
        assert!(json.contains("\"exit_code\": 3"));
        assert!(json.contains("\"timeout_secs\": 60"));
        assert!(json.contains("\"outcome\": \"cancelled\""));
        assert!(json.contains("\"deadline_secs\": 60"));
        assert!(json.contains("\"error\": \"no such file\""));
        assert!(json.contains("boom \\\"quoted\\\""));
        assert!(json.contains("\"profile\": {\"schema_version\":1"));
        // crude balance check: the writer emits matched brackets
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in: {json}"
        );
    }

    #[test]
    fn write_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("fastmon-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("RUN_MANIFEST.json");
        let records = vec![RunRecord {
            name: "fig3".into(),
            outcome: RunOutcome::Success,
            duration_secs: 0.1,
            stderr_tail: vec![],
            profile: None,
        }];
        write_manifest(&path, &records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, manifest_json(&records));
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
