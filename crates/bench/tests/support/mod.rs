//! Test support shared by the bench crate's integration tests.

use fastmon_atpg::TestSet;
use fastmon_core::{
    Campaign, CampaignProgress, CheckpointStore, DetectionAnalysis, FlowConfig, FlowError,
    HdfTestFlow, ShardSpec,
};
use fastmon_netlist::Circuit;
use fastmon_obs::CancelToken;

/// Runs the campaign of `circuit` under `config` over `patterns` — only
/// `shard`'s slice of it, when given — checkpointed in `store`, and stops
/// it after `bands` band checkpoints
/// the way a shard worker stops on eviction: the campaign's observer
/// trips the flow's cancel token, which the campaign checks right after
/// each checkpoint while bands remain. So the result is
/// `Err(FlowError::Cancelled)`, with `bands` bands resumable in `store`,
/// exactly when the campaign had more than `bands` bands to run.
pub fn run_until_band(
    circuit: &Circuit,
    config: &FlowConfig,
    patterns: &TestSet,
    store: &CheckpointStore,
    shard: Option<ShardSpec>,
    bands: usize,
) -> Result<DetectionAnalysis, FlowError> {
    let token = CancelToken::new();
    let flow = HdfTestFlow::prepare(circuit, config).with_cancel(token.clone());
    let mut seen = 0;
    let mut observe = |p| {
        if matches!(p, CampaignProgress::BandCheckpointed { .. }) {
            seen += 1;
            if seen == bands {
                token.cancel();
            }
        }
    };
    let campaign = Campaign {
        shard,
        checkpoint: Some(store),
        observe: Some(&mut observe),
    };
    flow.run(patterns, campaign)
}
