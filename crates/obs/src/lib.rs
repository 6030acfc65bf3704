//! # fastmon-obs — in-tree observability for the HDF test flow
//!
//! A zero-dependency tracing and metrics layer shared by every fastmon
//! crate. Three pieces:
//!
//! * **Spans** ([`span!`], [`span`], [`span_with`]): hierarchical phase
//!   markers with monotonic timing, recorded to a per-thread buffer and
//!   drained into a per-run JSONL event log (`events.jsonl`). Tracing is
//!   env-gated: `FASTMON_TRACE=1` enables the event log,
//!   `FASTMON_TRACE_DIR` picks the output directory (default `.`). When
//!   disabled, a span costs one relaxed atomic load and a branch.
//! * **Scoped metrics** ([`MetricsRegistry`]): a campaign-owned set of
//!   relaxed atomic counters covering fault simulation, ATPG, STA, ILP
//!   scheduling and checkpoint I/O. Each campaign owns its registry, so
//!   two campaigns running concurrently in one process report disjoint,
//!   correctly-attributed numbers (unlike the old process-wide
//!   `fastmon_sim::stats` globals). Each registry also carries a
//!   [`HistogramSet`] of log-bucketed latency [`Histogram`]s (queue
//!   wait, job run, band duration, checkpoint save/load, protocol
//!   parse/handle) with lock-free `record`/`merge`/`quantile`.
//! * **Profiles** ([`profile`]): whenever tracing (or profile-only mode,
//!   `FASTMON_PROFILE=1` / `FASTMON_PROFILE_OUT=<path>`) is active, span
//!   enters/exits also feed a per-phase self-time aggregate and a
//!   flamegraph-style collapsed-stack table, which `run_all` embeds
//!   into `RUN_MANIFEST.json`.
//!
//! The JSONL event schema is versioned (see [`TRACE_SCHEMA_VERSION`]) the
//! same way the `FMCK` checkpoint format is; `crates/bench`'s
//! `check_events` bin validates emitted logs against it.
//!
//! Two robustness primitives live here as well, because they share the
//! same "one relaxed load when disabled" gating discipline:
//!
//! * **Failpoints** ([`failpoints`]): named, deterministically-scheduled
//!   injection sites (`FASTMON_FAILPOINTS`) used by the chaos suite to
//!   reach recovery paths on demand.
//! * **Cancellation** ([`cancel`]): a cooperative [`CancelToken`] with an
//!   optional deadline (`FASTMON_DEADLINE_SECS`) checked at phase/band
//!   boundaries for graceful early shutdown.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cancel;
pub mod events;
pub mod failpoints;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use cancel::{CancelToken, Cancelled};
pub use events::{Record, StreamSink};
pub use failpoints::{InjectedFailure, SpecError, SpecErrorKind};
pub use hist::{Histogram, HistogramSet, Quantiles};
pub use metrics::{
    AtpgMetrics, CheckpointMetrics, Counter, DaemonMetrics, IlpMetrics, MetricsRegistry,
    RobustnessMetrics, ShardsupMetrics, SimMetrics, StaMetrics,
};
pub use trace::{
    emit_chain, emit_counters, enabled, finish, flush, force_enable, jsonl_enabled, run_id, span,
    span_with, Span, TraceMode, TRACE_SCHEMA_VERSION,
};

/// Opens a span that closes when the returned guard is dropped.
///
/// ```
/// {
///     let _s = fastmon_obs::span!("atpg");
///     // ... phase work ...
/// } // span exits here
/// let _b = fastmon_obs::span!("band", 3);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $arg:expr) => {
        $crate::span_with($name, ($arg) as u64)
    };
}
