//! The `fastmond` wire protocol: newline-delimited JSON.
//!
//! A client sends one JSON object per line and receives a stream of JSON
//! object lines back (built with [`fastmon_obs::Record`], parsed with
//! [`fastmon_obs::json`] — no serde, offline build). Request parsing is
//! total: any line maps to either a [`Request`] or a typed
//! [`ProtoError`], never a panic, and the daemon answers every malformed
//! line with a well-formed `{"event":"error",...}` record — the contract
//! the protocol fuzz suite enforces.
//!
//! # Requests
//!
//! ```text
//! {"op":"ping"}
//! {"op":"status"}
//! {"op":"observe"}                     // deep telemetry snapshot
//! {"op":"watch","interval_ms":1000,"count":10}   // periodic snapshots
//! {"op":"gc"}                          // optional "min_age_secs": n
//! {"op":"submit","proto":1,"tenant":"t0","name":"job-3",
//!  "circuit":{"kind":"profile","name":"s9234","scale":0.05,"seed":7},
//!  "coverage":0.95,"deadline_secs":30,"pattern_budget":64,
//!  "max_faults":150,"seed":1,"threads":2,"shards":4,"shard_procs":true,
//!  "sdf":"(DELAYFILE ...)"}
//! ```
//!
//! `circuit.kind` is `library` (named in-tree netlist), `profile`
//! (synthetic paper-suite generator) or `bench` (inline `.bench` text);
//! `sdf` optionally replaces the synthesized delay model with parsed SDF
//! delays. `"shard_procs":true` runs the campaign as `shards` supervised
//! worker processes (see [`crate::shard`]); `shards` above 1 without it
//! is rejected. Everything except `op` and `circuit` has a default.

use fastmon_obs::json::{self, Value};
use fastmon_obs::Record;

/// Protocol version spoken by this build.
pub const PROTO_VERSION: u64 = 1;

/// Hard cap on one request line (1 MiB — roomy enough for inline
/// `.bench`/SDF text, small enough that a garbage firehose cannot balloon
/// daemon memory).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How a submitted job names its circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitSpec {
    /// An in-tree library netlist (`s27`, `c17`).
    Library {
        /// Library circuit name.
        name: String,
    },
    /// A synthetic paper-suite profile, optionally scaled.
    Profile {
        /// Profile name (`s9234`, `p100k`, ...).
        name: String,
        /// Size factor applied via `CircuitProfile::scaled`.
        scale: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Inline ISCAS `.bench` netlist text.
    Bench {
        /// The `.bench` source.
        text: String,
    },
}

/// A campaign job as submitted over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Tenant for fair scheduling (jobs round-robin across tenants).
    pub tenant: String,
    /// Client-chosen job label, echoed in every event.
    pub name: String,
    /// Circuit under test.
    pub circuit: CircuitSpec,
    /// Optional SDF text replacing the synthesized delay model.
    pub sdf: Option<String>,
    /// Target coverage for schedule optimization, in `(0, 1]`.
    pub coverage: f64,
    /// Optional per-job deadline (cooperative, observed at band
    /// boundaries after the checkpoint flush).
    pub deadline_secs: Option<f64>,
    /// Optional ATPG pattern budget.
    pub pattern_budget: Option<usize>,
    /// Optional fault-sampling cap.
    pub max_faults: Option<usize>,
    /// Flow seed (delays, sampling, ATPG).
    pub seed: u64,
    /// Campaign worker threads (0 = all cores).
    pub threads: usize,
    /// Worker processes of a `shard_procs` campaign (1 = single
    /// campaign): the candidate fault set is partitioned into contiguous
    /// slices, each slice runs as its own resumable sub-campaign, and the
    /// merged result is bit-identical to the unsharded run. The wire
    /// rejects more than 1 without `shard_procs`.
    pub shards: usize,
    /// Run the campaign as `shards` supervised worker processes:
    /// per-shard crash/stall/RSS isolation with respawn-and-resume (see
    /// [`crate::shard`]). The merged result is still bit-identical to the
    /// unsharded run.
    pub shard_procs: bool,
}

/// Lower bound on a `watch` interval — protects the daemon from a
/// client-requested busy loop.
pub const MIN_WATCH_INTERVAL_MS: u64 = 50;

/// Upper bound on a `watch` interval (an hour between snapshots is a
/// config mistake, not a cadence).
pub const MAX_WATCH_INTERVAL_MS: u64 = 3_600_000;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a campaign job.
    Submit(Box<JobRequest>),
    /// Report queue/worker/metrics state.
    Status,
    /// Liveness probe.
    Ping,
    /// One deep telemetry snapshot: per-tenant lanes, per-job band
    /// progress + ETA, full counters and latency quantiles.
    Observe,
    /// Stream periodic `observe` snapshots over this connection.
    Watch {
        /// Milliseconds between snapshots (clamped to
        /// [`MIN_WATCH_INTERVAL_MS`]..=[`MAX_WATCH_INTERVAL_MS`] at
        /// parse time).
        interval_ms: u64,
        /// Snapshots to emit; 0 = until disconnect or drain.
        count: u64,
    },
    /// Run a checkpoint GC sweep now, optionally overriding the grace
    /// period.
    Gc {
        /// Grace-period override in seconds (`None` = daemon config).
        min_age_secs: Option<u64>,
    },
}

/// Why a request line was rejected. Every variant renders as a typed
/// error record; none of them kill the connection except
/// [`ProtoError::LineTooLong`] (the stream is no longer line-synchronized
/// past an overlong line).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtoError {
    /// The line exceeded [`MAX_LINE_BYTES`].
    LineTooLong {
        /// The enforced limit.
        limit: usize,
    },
    /// The line is not valid JSON (includes truncated documents and
    /// invalid UTF-8).
    Json {
        /// Parser diagnostic.
        message: String,
    },
    /// The line parsed but is not a JSON object.
    NotAnObject,
    /// A required field is absent.
    MissingField {
        /// The missing field.
        field: &'static str,
    },
    /// A field is present but unusable.
    BadField {
        /// The offending field.
        field: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// `op` names no known operation.
    UnknownOp {
        /// The unknown operation.
        op: String,
    },
    /// The client speaks a different protocol version.
    UnsupportedVersion {
        /// Version the client sent.
        got: u64,
    },
}

impl ProtoError {
    /// Stable machine-readable discriminant for error records.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ProtoError::LineTooLong { .. } => "line_too_long",
            ProtoError::Json { .. } => "json",
            ProtoError::NotAnObject => "not_an_object",
            ProtoError::MissingField { .. } => "missing_field",
            ProtoError::BadField { .. } => "bad_field",
            ProtoError::UnknownOp { .. } => "unknown_op",
            ProtoError::UnsupportedVersion { .. } => "unsupported_version",
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::LineTooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            ProtoError::Json { message } => write!(f, "invalid JSON: {message}"),
            ProtoError::NotAnObject => write!(f, "request must be a JSON object"),
            ProtoError::MissingField { field } => write!(f, "missing field '{field}'"),
            ProtoError::BadField { field, reason } => {
                write!(f, "bad field '{field}': {reason}")
            }
            ProtoError::UnknownOp { op } => write!(f, "unknown op '{op}'"),
            ProtoError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "protocol version {got} is not supported (this daemon speaks {PROTO_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for ProtoError {}

fn bad(field: &'static str, reason: impl Into<String>) -> ProtoError {
    ProtoError::BadField {
        field,
        reason: reason.into(),
    }
}

fn opt_str(obj: &Value, field: &'static str) -> Result<Option<String>, ProtoError> {
    match obj.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| bad(field, "expected a string")),
    }
}

fn opt_u64(obj: &Value, field: &'static str) -> Result<Option<u64>, ProtoError> {
    match obj.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(field, "expected a non-negative integer")),
    }
}

fn opt_f64(obj: &Value, field: &'static str) -> Result<Option<f64>, ProtoError> {
    match obj.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .filter(|x| x.is_finite())
            .map(Some)
            .ok_or_else(|| bad(field, "expected a finite number")),
    }
}

fn opt_usize(obj: &Value, field: &'static str) -> Result<Option<usize>, ProtoError> {
    opt_u64(obj, field)?
        .map(|v| usize::try_from(v).map_err(|_| bad(field, "out of range")))
        .transpose()
}

fn opt_bool(obj: &Value, field: &'static str) -> Result<Option<bool>, ProtoError> {
    match obj.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| bad(field, "expected a boolean")),
    }
}

fn parse_circuit(obj: &Value) -> Result<CircuitSpec, ProtoError> {
    let circuit = obj
        .get("circuit")
        .ok_or(ProtoError::MissingField { field: "circuit" })?;
    if circuit.as_obj().is_none() {
        return Err(bad("circuit", "expected an object"));
    }
    let kind = opt_str(circuit, "kind")?.ok_or(ProtoError::MissingField { field: "kind" })?;
    match kind.as_str() {
        "library" => Ok(CircuitSpec::Library {
            name: opt_str(circuit, "name")?.ok_or(ProtoError::MissingField { field: "name" })?,
        }),
        "profile" => {
            let scale = opt_f64(circuit, "scale")?.unwrap_or(1.0);
            if !(scale > 0.0 && scale <= 1.0) {
                return Err(bad("scale", "expected a factor in (0, 1]"));
            }
            Ok(CircuitSpec::Profile {
                name: opt_str(circuit, "name")?
                    .ok_or(ProtoError::MissingField { field: "name" })?,
                scale,
                seed: opt_u64(circuit, "seed")?.unwrap_or(1),
            })
        }
        "bench" => Ok(CircuitSpec::Bench {
            text: opt_str(circuit, "text")?.ok_or(ProtoError::MissingField { field: "text" })?,
        }),
        other => Err(bad(
            "kind",
            format!("unknown circuit kind '{other}' (library|profile|bench)"),
        )),
    }
}

fn parse_submit(obj: &Value) -> Result<JobRequest, ProtoError> {
    let coverage = opt_f64(obj, "coverage")?.unwrap_or(1.0);
    if !(coverage > 0.0 && coverage <= 1.0) {
        return Err(bad("coverage", "expected a target in (0, 1]"));
    }
    let deadline_secs = opt_f64(obj, "deadline_secs")?;
    // `Duration::from_secs_f64` panics for negative, NaN or > u64::MAX
    // seconds; reject here so a worker never has to build a deadline it
    // cannot represent.
    if deadline_secs.is_some_and(|d| std::time::Duration::try_from_secs_f64(d).is_err()) {
        return Err(bad(
            "deadline_secs",
            "expected a non-negative number of seconds within duration range",
        ));
    }
    let shard_procs = opt_bool(obj, "shard_procs")?.unwrap_or(false);
    Ok(JobRequest {
        tenant: opt_str(obj, "tenant")?.unwrap_or_else(|| "default".to_string()),
        name: opt_str(obj, "name")?.unwrap_or_else(|| "job".to_string()),
        circuit: parse_circuit(obj)?,
        sdf: opt_str(obj, "sdf")?,
        coverage,
        deadline_secs,
        pattern_budget: opt_usize(obj, "pattern_budget")?,
        max_faults: opt_usize(obj, "max_faults")?,
        seed: opt_u64(obj, "seed")?.unwrap_or(1),
        threads: opt_usize(obj, "threads")?.unwrap_or(1),
        shards: match opt_usize(obj, "shards")?.unwrap_or(1) {
            0 => return Err(bad("shards", "expected at least 1")),
            n if n > fastmon_core::MAX_SHARDS => {
                return Err(bad(
                    "shards",
                    format!("expected at most {}", fastmon_core::MAX_SHARDS),
                ))
            }
            n if n > 1 && !shard_procs => {
                return Err(bad(
                    "shards",
                    "more than 1 shard needs \"shard_procs\":true",
                ))
            }
            n => n,
        },
        shard_procs,
    })
}

/// Serializes a [`JobRequest`] back into the exact `submit` line
/// [`parse_request`] accepts: `parse_request(&to_submit_line(r))` always
/// round-trips to an equal request. The daemon lands this line as the
/// job spec supervised shard workers rebuild their campaign from
/// ([`crate::shard`]) — any drift between serializer and parser would
/// show up there as a fingerprint mismatch, so the round-trip is pinned
/// by a unit test instead.
#[must_use]
pub fn to_submit_line(req: &JobRequest) -> String {
    let circuit = match &req.circuit {
        CircuitSpec::Library { name } => Record::new()
            .str("kind", "library")
            .str("name", name)
            .finish(),
        CircuitSpec::Profile { name, scale, seed } => Record::new()
            .str("kind", "profile")
            .str("name", name)
            .f64("scale", *scale)
            .u64("seed", *seed)
            .finish(),
        CircuitSpec::Bench { text } => Record::new()
            .str("kind", "bench")
            .str("text", text)
            .finish(),
    };
    let mut rec = Record::new()
        .str("op", "submit")
        .u64("proto", PROTO_VERSION)
        .str("tenant", &req.tenant)
        .str("name", &req.name)
        .raw("circuit", &circuit)
        .f64("coverage", req.coverage)
        .u64("seed", req.seed)
        .u64("threads", req.threads as u64)
        .u64("shards", req.shards as u64)
        .bool("shard_procs", req.shard_procs);
    if let Some(d) = req.deadline_secs {
        rec = rec.f64("deadline_secs", d);
    }
    if let Some(b) = req.pattern_budget {
        rec = rec.u64("pattern_budget", b as u64);
    }
    if let Some(m) = req.max_faults {
        rec = rec.u64("max_faults", m as u64);
    }
    if let Some(sdf) = &req.sdf {
        rec = rec.str("sdf", sdf);
    }
    rec.finish()
}

/// Parses one request line. Total: any input yields a [`Request`] or a
/// typed [`ProtoError`] — this function is the surface the protocol fuzz
/// suite hammers with garbage.
///
/// # Errors
///
/// Every way a line can be malformed maps to a distinct [`ProtoError`]
/// variant; see the enum docs.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtoError::LineTooLong {
            limit: MAX_LINE_BYTES,
        });
    }
    let value = json::parse(line).map_err(|message| ProtoError::Json { message })?;
    if value.as_obj().is_none() {
        return Err(ProtoError::NotAnObject);
    }
    if let Some(got) = opt_u64(&value, "proto")? {
        if got != PROTO_VERSION {
            return Err(ProtoError::UnsupportedVersion { got });
        }
    }
    let op = opt_str(&value, "op")?.ok_or(ProtoError::MissingField { field: "op" })?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "status" => Ok(Request::Status),
        "observe" => Ok(Request::Observe),
        "watch" => {
            let interval_ms = opt_u64(&value, "interval_ms")?.unwrap_or(1000);
            if !(MIN_WATCH_INTERVAL_MS..=MAX_WATCH_INTERVAL_MS).contains(&interval_ms) {
                return Err(bad(
                    "interval_ms",
                    format!("expected {MIN_WATCH_INTERVAL_MS}..={MAX_WATCH_INTERVAL_MS}"),
                ));
            }
            Ok(Request::Watch {
                interval_ms,
                count: opt_u64(&value, "count")?.unwrap_or(0),
            })
        }
        "gc" => Ok(Request::Gc {
            min_age_secs: opt_u64(&value, "min_age_secs")?,
        }),
        "submit" => Ok(Request::Submit(Box::new(parse_submit(&value)?))),
        other => Err(ProtoError::UnknownOp {
            op: other.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_requests() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#), Ok(Request::Ping));
        assert_eq!(parse_request(r#"{"op":"status"}"#), Ok(Request::Status));
        assert_eq!(
            parse_request(r#"{"op":"gc","min_age_secs":0}"#),
            Ok(Request::Gc {
                min_age_secs: Some(0)
            })
        );
        assert_eq!(parse_request(r#"{"op":"observe"}"#), Ok(Request::Observe));
        assert_eq!(
            parse_request(r#"{"op":"watch"}"#),
            Ok(Request::Watch {
                interval_ms: 1000,
                count: 0
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"watch","interval_ms":250,"count":5}"#),
            Ok(Request::Watch {
                interval_ms: 250,
                count: 5
            })
        );
        let req = parse_request(
            r#"{"op":"submit","proto":1,"tenant":"t0","name":"j1",
                "circuit":{"kind":"profile","name":"s9234","scale":0.05,"seed":7},
                "coverage":0.95,"deadline_secs":30,"pattern_budget":64,
                "max_faults":150,"seed":3,"threads":2,"shards":4,"shard_procs":true}"#,
        )
        .unwrap();
        let Request::Submit(job) = req else {
            panic!("expected submit")
        };
        assert_eq!(job.tenant, "t0");
        assert_eq!(
            job.circuit,
            CircuitSpec::Profile {
                name: "s9234".into(),
                scale: 0.05,
                seed: 7
            }
        );
        assert_eq!(job.coverage, 0.95);
        assert_eq!(job.deadline_secs, Some(30.0));
        assert_eq!(job.pattern_budget, Some(64));
        assert_eq!(job.threads, 2);
        assert_eq!(job.shards, 4);
        assert!(job.shard_procs);
    }

    #[test]
    fn shard_procs_parses_strictly() {
        let line = |v: &str| {
            format!(
                r#"{{"op":"submit","shard_procs":{v},"circuit":{{"kind":"library","name":"s27"}}}}"#
            )
        };
        for (v, want) in [("true", true), ("false", false), ("null", false)] {
            let Request::Submit(job) = parse_request(&line(v)).unwrap() else {
                panic!("expected submit")
            };
            assert_eq!(job.shard_procs, want, "shard_procs {v}");
        }
        // anything but a boolean is a typed rejection, not a coercion
        for v in ["1", "\"yes\"", "[true]"] {
            assert_eq!(parse_request(&line(v)).unwrap_err().kind(), "bad_field");
        }
        // the shard count is capped where the supervisor's own limit is
        let over = format!(
            r#"{{"op":"submit","shards":{},"circuit":{{"kind":"library","name":"s27"}}}}"#,
            fastmon_core::MAX_SHARDS + 1
        );
        assert_eq!(parse_request(&over).unwrap_err().kind(), "bad_field");
    }

    #[test]
    fn submit_lines_round_trip_through_the_serializer() {
        let requests = [
            JobRequest {
                tenant: "default".into(),
                name: "job".into(),
                circuit: CircuitSpec::Library { name: "s27".into() },
                sdf: None,
                coverage: 1.0,
                deadline_secs: None,
                pattern_budget: None,
                max_faults: None,
                seed: 1,
                threads: 1,
                shards: 1,
                shard_procs: false,
            },
            JobRequest {
                tenant: "t \"quoted\"\n".into(),
                name: "j1".into(),
                circuit: CircuitSpec::Profile {
                    name: "s9234".into(),
                    scale: 0.072_951,
                    seed: (1 << 53) + 1,
                },
                sdf: None,
                coverage: 0.95,
                deadline_secs: Some(30.5),
                pattern_budget: Some(64),
                max_faults: Some(150),
                seed: 3,
                threads: 2,
                shards: 4,
                shard_procs: true,
            },
            JobRequest {
                tenant: "t".into(),
                name: "bench".into(),
                circuit: CircuitSpec::Bench {
                    text: "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n".into(),
                },
                sdf: Some("(DELAYFILE \"x\")".into()),
                coverage: 0.5,
                deadline_secs: Some(1e9),
                pattern_budget: None,
                max_faults: Some(1),
                // integers above 2^53 survive the wire exactly
                seed: u64::MAX,
                threads: 0,
                shards: fastmon_core::MAX_SHARDS,
                shard_procs: true,
            },
        ];
        for req in requests {
            let line = to_submit_line(&req);
            let parsed = parse_request(&line)
                .unwrap_or_else(|e| panic!("serialized line must parse: {e}\n{line}"));
            assert_eq!(parsed, Request::Submit(Box::new(req)), "line {line}");
        }
    }

    #[test]
    fn defaults_fill_every_optional_field() {
        let req =
            parse_request(r#"{"op":"submit","circuit":{"kind":"library","name":"s27"}}"#).unwrap();
        let Request::Submit(job) = req else {
            panic!("expected submit")
        };
        assert_eq!(job.tenant, "default");
        assert_eq!(job.coverage, 1.0);
        assert_eq!(job.deadline_secs, None);
        assert_eq!(job.seed, 1);
        assert_eq!(job.threads, 1);
        assert_eq!(job.shards, 1);
        assert!(job.sdf.is_none());
    }

    #[test]
    fn malformed_lines_map_to_typed_errors() {
        let kind = |line: &str| parse_request(line).unwrap_err().kind();
        assert_eq!(kind(""), "json");
        assert_eq!(kind("{"), "json");
        assert_eq!(kind("garbage"), "json");
        assert_eq!(kind("[1,2]"), "not_an_object");
        assert_eq!(kind("42"), "not_an_object");
        assert_eq!(kind("{}"), "missing_field");
        assert_eq!(kind(r#"{"op":"frobnicate"}"#), "unknown_op");
        assert_eq!(kind(r#"{"op":42}"#), "bad_field");
        assert_eq!(kind(r#"{"op":"submit"}"#), "missing_field");
        assert_eq!(kind(r#"{"op":"submit","circuit":7}"#), "bad_field");
        assert_eq!(
            kind(r#"{"op":"submit","circuit":{"kind":"wat","name":"x"}}"#),
            "bad_field"
        );
        assert_eq!(
            kind(r#"{"op":"submit","proto":2,"circuit":{"kind":"library","name":"s27"}}"#),
            "unsupported_version"
        );
        // the version gate applies to every op, not just submit
        assert_eq!(kind(r#"{"op":"ping","proto":99}"#), "unsupported_version");
        assert_eq!(kind(r#"{"op":"observe","proto":9}"#), "unsupported_version");
        assert_eq!(kind(r#"{"op":"watch","proto":9}"#), "unsupported_version");
        // watch intervals outside the clamp are rejected, not silently
        // adjusted
        assert_eq!(kind(r#"{"op":"watch","interval_ms":1}"#), "bad_field");
        assert_eq!(
            kind(r#"{"op":"watch","interval_ms":99999999}"#),
            "bad_field"
        );
        assert_eq!(
            parse_request(r#"{"op":"ping","proto":1}"#),
            Ok(Request::Ping)
        );
        assert_eq!(
            kind(r#"{"op":"submit","coverage":1.5,"circuit":{"kind":"library","name":"s27"}}"#),
            "bad_field"
        );
        assert_eq!(
            kind(r#"{"op":"submit","coverage":0,"circuit":{"kind":"library","name":"s27"}}"#),
            "bad_field"
        );
        // deadlines Duration cannot represent (negative or > u64::MAX
        // seconds) are rejected at the edge, not at token construction
        for deadline in ["-1", "1e30", "1e300"] {
            let line = format!(
                r#"{{"op":"submit","deadline_secs":{deadline},"circuit":{{"kind":"library","name":"s27"}}}}"#
            );
            assert_eq!(kind(&line), "bad_field", "deadline_secs {deadline}");
        }
        // a zero shard count is a request for no campaign at all
        assert_eq!(
            kind(r#"{"op":"submit","shards":0,"circuit":{"kind":"library","name":"s27"}}"#),
            "bad_field"
        );
        // shards are worker processes: more than one needs shard_procs
        for procs in ["", r#","shard_procs":false"#] {
            let line = format!(
                r#"{{"op":"submit","shards":4{procs},"circuit":{{"kind":"library","name":"s27"}}}}"#
            );
            let err = parse_request(&line).unwrap_err();
            assert_eq!(err.kind(), "bad_field", "{line}");
            assert!(err.to_string().contains("shards"), "{err}");
        }
        // a huge but representable deadline stays accepted
        assert!(parse_request(
            r#"{"op":"submit","deadline_secs":1e9,"circuit":{"kind":"library","name":"s27"}}"#
        )
        .is_ok());
        let oversized = format!(r#"{{"op":"ping","pad":"{}"}}"#, "x".repeat(MAX_LINE_BYTES));
        assert_eq!(kind(&oversized), "line_too_long");
        // every error Displays and carries a stable kind
        for line in ["", "[", "{}", r#"{"op":"nope"}"#] {
            let err = parse_request(line).unwrap_err();
            assert!(!err.to_string().is_empty());
            assert!(!err.kind().is_empty());
        }
    }
}
