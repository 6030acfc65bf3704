//! Multi-process shard execution for the experiment binaries.
//!
//! An experiment binary describes each circuit's campaign as the daemon's
//! [`JobRequest`] ([`job_request`]: this run's profile, scale, seed, fault
//! cap and shard settings). With `FASTMON_SHARD_PROCS=1` the campaign
//! runs as supervised worker processes: the one supervised-campaign
//! driver, [`fastmon_daemon::shard::supervise`], lands the request as the
//! campaign spec and the test set in the shard directory, then
//! re-executes the current binary once per shard (`<bin> --shard-worker
//! i/n`). Every experiment binary calls [`maybe_run_worker`] first in
//! `main`, so it doubles as its own worker: the worker rebuilds the flow
//! from the spec, loads the test set instead of running ATPG, and runs
//! its slice to a finished checkpoint, which is the slice's result. See
//! [`fastmon_daemon::shard`] for the protocol and exit codes.

use std::path::Path;

use fastmon_atpg::TestSet;
use fastmon_core::{HdfTestFlow, SupervisorConfig, SupervisorEvent};
use fastmon_daemon::proto::{CircuitSpec, JobRequest};
use fastmon_daemon::JobError;

pub use fastmon_daemon::shard::{maybe_run_worker, SupervisedRun};

use crate::ExperimentConfig;

/// The campaign of the paper-suite profile `profile_name` at `scale`, with
/// `config`'s seed, fault cap, thread count and shard settings — the spec
/// supervised workers rebuild it from.
#[must_use]
pub fn job_request(config: &ExperimentConfig, profile_name: &str, scale: f64) -> JobRequest {
    JobRequest {
        tenant: "default".to_owned(),
        name: profile_name.to_owned(),
        circuit: CircuitSpec::Profile {
            name: profile_name.to_owned(),
            scale,
            seed: config.seed,
        },
        sdf: None,
        coverage: 1.0,
        deadline_secs: None,
        pattern_budget: None,
        max_faults: Some(config.max_faults),
        seed: config.seed,
        threads: config.flow_config().threads,
        shards: config.shards,
        shard_procs: config.shard_procs,
    }
}

/// Runs the campaign for `flow`/`patterns` as `config.shards` supervised
/// worker processes under `dir` and merges their finished checkpoints,
/// with the supervisor settings of [`SupervisorConfig::from_env`].
///
/// The workers rebuild the campaign from the paper-suite profile
/// `profile_name` at `scale` with `config`'s seed and fault cap, so
/// `flow` must come from the same values
/// ([`ExperimentConfig::flow_config`] on that profile generated with
/// `config.seed`). A worker whose rebuilt campaign differs from the
/// shipped test set refuses its shard, and the campaign fails at once;
/// so does one whose spec asks for more than one shard without
/// `config.shard_procs`.
///
/// `worker_bin` overrides the worker executable (tests point it at a
/// specific experiment binary); the default is the current executable.
/// `on_event` observes every [`SupervisorEvent`].
///
/// # Errors
///
/// [`JobError::Spec`] for an unusable `FASTMON_SHARD_JOBS` or
/// `FASTMON_SHARD_RSS_BYTES`; otherwise see
/// [`fastmon_daemon::shard::supervise`].
#[allow(clippy::too_many_arguments)]
pub fn supervise(
    flow: &HdfTestFlow<'_>,
    patterns: &TestSet,
    config: &ExperimentConfig,
    profile_name: &str,
    scale: f64,
    dir: &Path,
    worker_bin: Option<&Path>,
    on_event: &mut dyn FnMut(&SupervisorEvent),
) -> Result<SupervisedRun, JobError> {
    let supervisor = SupervisorConfig::from_env(config.shards)?;
    fastmon_daemon::shard::supervise(
        flow,
        patterns,
        &job_request(config, profile_name, scale),
        &supervisor,
        dir,
        worker_bin,
        on_event,
    )
}
