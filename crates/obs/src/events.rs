//! Newline-delimited JSON event streaming.
//!
//! The daemon (and any other long-running driver) streams progress back
//! to clients as JSONL: one self-contained JSON object per line, built
//! with [`Record`]. It reuses the in-house [`crate::json`] escaping, so
//! the emitted lines round-trip through the same parser the test suite
//! validates with — no serde, offline build.
//!
//! [`Record`] is an ordered object builder: fields appear on the wire in
//! insertion order, which keeps golden-line assertions and `grep`-based
//! debugging stable. It never fails — keys are expected to be plain
//! ASCII identifiers, values are escaped.

/// An ordered single-line JSON object under construction.
///
/// ```
/// use fastmon_obs::events::Record;
/// let line = Record::new()
///     .str("event", "band")
///     .u64("seq", 3)
///     .bool("resumed", false)
///     .finish();
/// assert_eq!(line, r#"{"event":"band","seq":3,"resumed":false}"#);
/// ```
#[derive(Debug)]
pub struct Record {
    buf: String,
    first: bool,
}

impl Default for Record {
    fn default() -> Self {
        Record::new()
    }
}

impl Record {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        Record {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(&crate::json::escape(key));
        self.buf.push_str("\":");
    }

    /// Appends a string field (value escaped).
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&crate::json::escape(value));
        self.buf.push('"');
        self
    }

    /// Appends an unsigned integer field.
    #[must_use]
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Appends a hex-encoded 64-bit fingerprint field (as a JSON string,
    /// zero-padded to 16 digits — u64s above 2^53 don't survive an `f64`
    /// round-trip through JSON numbers).
    #[must_use]
    pub fn fingerprint(self, key: &str, value: u64) -> Self {
        self.str(key, &format!("{value:016x}"))
    }

    /// Appends a float field (finite values only; NaN/inf become null).
    #[must_use]
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        if value.is_finite() {
            self.buf.push_str(&format!("{value}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Appends a boolean field.
    #[must_use]
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Appends a pre-rendered JSON fragment verbatim (caller guarantees
    /// validity — e.g. `MetricsRegistry::to_json()` output).
    #[must_use]
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the line (no trailing newline).
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Pre-built record lines for the shard-worker heartbeat protocol.
///
/// A supervised shard worker writes these to its stdout pipe, one per
/// line; the supervisor parses them back with [`crate::json::parse`].
/// Keeping the builders next to [`Record`] pins the wire schema in one
/// place for both sides (core's supervisor, bench/daemon workers, and
/// the chaos tests).
pub mod shard {
    use super::Record;

    /// Band-boundary liveness: the worker has durably checkpointed up to
    /// `next_pattern` of `total_patterns`.
    #[must_use]
    pub fn heartbeat(shard: usize, shards: usize, next_pattern: usize, total: usize) -> String {
        Record::new()
            .str("event", "shard_heartbeat")
            .u64("shard", shard as u64)
            .u64("shards", shards as u64)
            .u64("next_pattern", next_pattern as u64)
            .u64("total_patterns", total as u64)
            .finish()
    }

    /// The worker resumed from an existing `shard-i-of-n.ckpt`.
    #[must_use]
    pub fn resumed(shard: usize, shards: usize, next_pattern: usize, total: usize) -> String {
        Record::new()
            .str("event", "shard_resumed")
            .u64("shard", shard as u64)
            .u64("shards", shards as u64)
            .u64("next_pattern", next_pattern as u64)
            .u64("total_patterns", total as u64)
            .finish()
    }

    /// The worker finished its shard (fingerprint is the shard's own
    /// checkpoint fingerprint, not the merged campaign's) and reports its
    /// own peak resident set (`VmHWM`, 0 when unknown).
    #[must_use]
    pub fn done(shard: usize, shards: usize, fingerprint: u64, peak_rss_bytes: u64) -> String {
        Record::new()
            .str("event", "shard_done")
            .u64("shard", shard as u64)
            .u64("shards", shards as u64)
            .fingerprint("fingerprint", fingerprint)
            .u64("peak_rss_bytes", peak_rss_bytes)
            .finish()
    }

    /// A typed failure the worker could still report before exiting
    /// nonzero; `kind` is a stable discriminant (`spec`,
    /// `fingerprint_mismatch`, `test_set`, `flow`).
    #[must_use]
    pub fn error(shard: usize, shards: usize, kind: &str, message: &str) -> String {
        Record::new()
            .str("event", "shard_error")
            .u64("shard", shard as u64)
            .u64("shards", shards as u64)
            .str("kind", kind)
            .str("message", message)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn records_round_trip_through_the_inhouse_parser() {
        let line = Record::new()
            .str("event", "done")
            .str("name", "job \"7\"\nline2")
            .u64("patterns", 128)
            .fingerprint("fp", 0x00ab_cdef_0123_4567)
            .f64("coverage", 0.875)
            .f64("bad", f64::NAN)
            .bool("resumed", true)
            .raw("metrics", r#"{"sim.cones_simulated":4}"#)
            .finish();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("done"));
        assert_eq!(
            v.get("name").and_then(Value::as_str),
            Some("job \"7\"\nline2")
        );
        assert_eq!(v.get("patterns").and_then(Value::as_u64), Some(128));
        assert_eq!(
            v.get("fp").and_then(Value::as_str),
            Some("00abcdef01234567")
        );
        assert_eq!(v.get("coverage").and_then(Value::as_f64), Some(0.875));
        assert_eq!(v.get("bad"), Some(&Value::Null));
        assert_eq!(v.get("resumed"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("sim.cones_simulated"))
                .and_then(Value::as_u64),
            Some(4)
        );
    }

    #[test]
    fn empty_record_is_an_empty_object() {
        assert_eq!(Record::new().finish(), "{}");
    }
}
