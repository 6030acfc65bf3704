//! The core of the `fastmon` toolkit: the hidden-delay-fault (HDF) test
//! flow of *"Using Programmable Delay Monitors for Wear-Out and Early Life
//! Failure Prediction"* (DATE 2020).
//!
//! The flow (Fig. 4 of the paper) is implemented end to end:
//!
//! 1. **Topological analysis** — static timing classifies every small delay
//!    fault as at-speed detectable, timing redundant or FAST-testable
//!    ([`fastmon_faults::classify`], monitor-aware).
//! 2. **Timing-accurate fault simulation** — the waveform engine computes
//!    raw per-pattern, per-output difference intervals
//!    ([`DetectionAnalysis`]).
//! 3. **Detection-range construction** — glitch-filtered interval sets per
//!    fault (Definition 2).
//! 4. **Monitor-configuration analysis** — the shifted ranges
//!    `I_SR = I_FF + d` make previously unobservable effects testable and
//!    identify *at-speed monitor-detectable* faults, which leave the target
//!    set.
//! 5. **Target fault set** — everything that genuinely needs FAST.
//! 6. **Two-step schedule optimization** — minimum frequency count, then
//!    minimum pattern × configuration count per frequency, both solved as
//!    0-1 ILPs ([`fastmon_ilp`]), with the conventional and greedy
//!    baselines of the paper's tables.
//!
//! The entry point is [`HdfTestFlow`]; [`report`] builds the typed rows of
//! the paper's Tables I–III and the Fig. 3 coverage series.
//!
//! # Example
//!
//! ```
//! use fastmon_core::{FlowConfig, HdfTestFlow, Solver};
//! use fastmon_netlist::library;
//!
//! let circuit = library::s27();
//! let flow = HdfTestFlow::prepare(&circuit, &FlowConfig::default());
//! let patterns = flow.generate_patterns(None);
//! let analysis = flow.analyze(&patterns);
//! let schedule = flow.schedule(&analysis, Solver::Ilp);
//! // the optimized schedule covers every target fault
//! assert!(schedule.covers_all_targets(&analysis));
//! ```

// Robustness gate: library code must surface failures as typed errors
// (`FlowError` and friends), never via `unwrap`/`expect` (tests are
// exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod analysis;
#[cfg(test)]
mod builder_equivalence;
mod checkpoint;
mod config;
mod diagnose;
mod discretize;
mod error;
mod flow;
mod schedule;
#[cfg(test)]
mod table_equivalence;

pub mod report;
pub mod shard;
pub mod shardsup;

pub use analysis::{DetectionAnalysis, FaultVerdict};
pub use checkpoint::{
    fnv1a, CampaignCheckpoint, CheckpointDir, CheckpointError, CheckpointStore, Fnv1a, GcReport,
    JobStore, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use config::FlowConfig;
pub use diagnose::{diagnose, predicted_observations, DiagnosisCandidate, Observation};
pub use discretize::{discretize, elementary_intervals};
pub use error::{FlowError, ScheduleError};
pub use flow::{Campaign, CampaignProgress, FlowCounts, HdfTestFlow};
pub use schedule::{FrequencySelection, ScheduleEntry, Solver, TestSchedule, TestTimeModel};
pub use shard::{ShardFiles, ShardSpec};
pub use shardsup::{
    parse_shard_count, ShardsupError, SupervisorConfig, SupervisorEvent, MAX_SHARDS,
};
