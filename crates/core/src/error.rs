use std::fmt;

use fastmon_atpg::AtpgError;
use fastmon_netlist::NetlistError;
use fastmon_timing::TimingError;

use crate::checkpoint::CheckpointError;

/// Errors of the schedule-optimization step.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// A coverage target outside `(0, 1]` was requested.
    InvalidCoverage {
        /// The offending coverage value.
        cov: f64,
    },
    /// The covering instance is infeasible: some target faults appear in no
    /// candidate set and the waiver budget cannot absorb them.
    InfeasibleCover {
        /// Number of elements no set can cover.
        uncoverable: usize,
        /// The waiver budget that failed to absorb them.
        allowed_uncovered: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::InvalidCoverage { cov } => {
                write!(f, "coverage target {cov} lies outside (0, 1]")
            }
            ScheduleError::InfeasibleCover {
                uncoverable,
                allowed_uncovered,
            } => {
                write!(
                    f,
                    "covering instance is infeasible: {uncoverable} element(s) appear in no \
                     candidate set but only {allowed_uncovered} waiver(s) are allowed"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The workspace-wide error type of the HDF test flow: every fallible flow
/// step surfaces its failure as one of these variants instead of panicking.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// Netlist construction or parsing failed, or the circuit is degenerate
    /// (e.g. empty).
    Netlist(NetlistError),
    /// Delay annotation carries invalid values (NaN, negative, bad sigma).
    Timing(TimingError),
    /// Test-pattern construction failed.
    Atpg(AtpgError),
    /// Schedule optimization was given invalid or infeasible inputs.
    Schedule(ScheduleError),
    /// Campaign checkpointing failed in a way that cannot be degraded into
    /// a clean restart (e.g. the checkpoint file cannot be written).
    Checkpoint(CheckpointError),
    /// A deterministic failpoint (`FASTMON_FAILPOINTS`) injected a failure
    /// at a flow-level site; only possible when injection is armed.
    Injected {
        /// The failpoint site that fired.
        site: &'static str,
    },
    /// The run was cancelled cooperatively (explicit request or
    /// `FASTMON_DEADLINE_SECS` deadline) and stopped at a safe boundary.
    Cancelled {
        /// The flow phase that observed the cancellation.
        phase: &'static str,
    },
    /// A parallel worker panicked; the panic was contained by
    /// `catch_unwind` instead of aborting the process.
    WorkerPanic {
        /// The flow phase whose pool contained the panic.
        phase: &'static str,
        /// The rendered panic payload.
        message: String,
    },
    /// Shard analyses cannot be merged: a shard was run against a
    /// different pattern set than shard 0.
    ShardMerge {
        /// Index of the offending shard.
        shard: usize,
        /// Its pattern count.
        got: usize,
        /// The pattern count of shard 0.
        expected: usize,
    },
    /// A shard's checkpoint, which is its result once complete, is
    /// missing, belongs to a different campaign or partition, or is
    /// incomplete.
    ShardResult {
        /// Index of the shard whose result failed to load.
        shard: usize,
        /// Shard count of the partition.
        shards: usize,
        /// What was wrong with the checkpoint.
        reason: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Netlist(e) => write!(f, "netlist error: {e}"),
            FlowError::Timing(e) => write!(f, "timing error: {e}"),
            FlowError::Atpg(e) => write!(f, "atpg error: {e}"),
            FlowError::Schedule(e) => write!(f, "schedule error: {e}"),
            FlowError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            FlowError::Injected { site } => {
                write!(f, "injected failure at failpoint '{site}'")
            }
            FlowError::Cancelled { phase } => write!(f, "run cancelled during {phase}"),
            FlowError::WorkerPanic { phase, message } => {
                write!(f, "worker panicked during {phase} (contained): {message}")
            }
            FlowError::ShardMerge {
                shard,
                got,
                expected,
            } => {
                write!(
                    f,
                    "cannot merge shard {shard}: it simulated {got} pattern(s) but shard 0 \
                     simulated {expected}"
                )
            }
            FlowError::ShardResult {
                shard,
                shards,
                reason,
            } => {
                write!(
                    f,
                    "shard {shard} of {shards} has no finished checkpoint: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Netlist(e) => Some(e),
            FlowError::Timing(e) => Some(e),
            FlowError::Atpg(e) => Some(e),
            FlowError::Schedule(e) => Some(e),
            FlowError::Checkpoint(e) => Some(e),
            FlowError::Injected { .. }
            | FlowError::Cancelled { .. }
            | FlowError::WorkerPanic { .. }
            | FlowError::ShardMerge { .. }
            | FlowError::ShardResult { .. } => None,
        }
    }
}

impl From<fastmon_obs::InjectedFailure> for FlowError {
    fn from(e: fastmon_obs::InjectedFailure) -> Self {
        FlowError::Injected { site: e.site }
    }
}

impl From<fastmon_obs::Cancelled> for FlowError {
    fn from(e: fastmon_obs::Cancelled) -> Self {
        FlowError::Cancelled { phase: e.phase }
    }
}

impl From<NetlistError> for FlowError {
    fn from(e: NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}

impl From<TimingError> for FlowError {
    fn from(e: TimingError) -> Self {
        FlowError::Timing(e)
    }
}

impl From<AtpgError> for FlowError {
    fn from(e: AtpgError) -> Self {
        FlowError::Atpg(e)
    }
}

impl From<ScheduleError> for FlowError {
    fn from(e: ScheduleError) -> Self {
        FlowError::Schedule(e)
    }
}

impl From<CheckpointError> for FlowError {
    fn from(e: CheckpointError) -> Self {
        FlowError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_chains_the_source() {
        let e = FlowError::from(NetlistError::EmptyCircuit {
            circuit: "void".into(),
        });
        assert!(e.to_string().contains("void"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlowError>();
        assert_send_sync::<ScheduleError>();
    }

    #[test]
    fn schedule_error_display() {
        let e = ScheduleError::InfeasibleCover {
            uncoverable: 3,
            allowed_uncovered: 1,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('1'));
    }
}
