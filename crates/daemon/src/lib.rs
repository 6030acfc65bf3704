//! `fastmond`: a crash-surviving multi-tenant campaign daemon for the
//! fastmon HDF test flow.
//!
//! Clients submit campaign jobs (circuit + optional SDF + target
//! coverage + deadline) over a newline-JSON socket protocol
//! ([`proto`]), jobs run through the checkpointed resumable analyze
//! path on a bounded, admission-controlled, tenant-fair queue
//! ([`queue`]), and every job streams progress records back and lands a
//! result file keyed by its campaign fingerprint ([`job`], [`server`]).
//!
//! Robustness contract:
//!
//! - `kill -9` mid-campaign loses at most one band of work: on restart
//!   the same submission resumes from the last durable checkpoint and
//!   produces a bit-identical `DetectionAnalysis`
//!   (`result_fingerprint` equality, exercised by the chaos soak in
//!   `tests/soak.rs`).
//! - SIGTERM drains gracefully ([`signals`]): admissions stop, running
//!   campaigns stop at their next durable band checkpoint, queued jobs
//!   get a `drained` terminal record, the process exits 0.
//! - A full queue is a typed reject, never a blocked accept loop.
//! - Worker panics are contained per job; the daemon keeps serving.
//! - Checkpoint directories are lock-protected against concurrent
//!   daemons and garbage-collected conservatively (live set + held
//!   locks + grace period).
//! - Live telemetry: the `observe` op snapshots per-tenant queue
//!   lanes, per-job band progress with an ETA, and every latency
//!   histogram; `watch` streams those snapshots periodically; failed
//!   and panicked jobs carry a bounded flight-recorder tail
//!   ([`flight`]) in their terminal record and dump it to a
//!   post-mortem JSONL file. `fastmon-top` renders `observe` live.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

pub mod flight;
pub mod job;
pub mod proto;
pub mod queue;
pub mod server;
pub mod shard;
pub mod signals;

pub use flight::{FlightEvent, FlightRecorder};
pub use job::{run_campaign, run_job, JobError, JobEvent, JobOutcome};
pub use proto::{
    parse_request, CircuitSpec, JobRequest, ProtoError, Request, MAX_LINE_BYTES, PROTO_VERSION,
};
pub use queue::{AdmitError, JobQueue};
pub use server::{Daemon, DaemonConfig, DaemonHandle};
