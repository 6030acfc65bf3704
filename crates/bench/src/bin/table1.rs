//! Regenerates **Table I** of the paper: circuit statistics and hidden
//! delay faults detected by conventional FAST vs the proposed
//! monitor-assisted FAST.
//!
//! ```text
//! cargo run --release -p fastmon-bench --bin table1
//! FASTMON_CIRCUITS=s9234,s13207 cargo run --release -p fastmon-bench --bin table1
//! ```

use fastmon_bench::{paper, pct, print_table, with_run, ExperimentConfig};
use fastmon_core::report::table1_row;

fn main() {
    // With FASTMON_SHARD_PROCS=1 the campaign re-executes this binary
    // once per shard; those children never reach the experiment logic.
    fastmon_bench::shardsup::maybe_run_worker();
    let config = ExperimentConfig::from_env();
    println!("# Table I — circuit statistics and targeted hidden delay faults\n");
    println!(
        "(synthetic stand-ins; target ≤ {} gates, ≤ {} sampled faults, seed {})\n",
        config.target_gates, config.max_faults, config.seed
    );

    let headers = [
        "circuit",
        "scale",
        "gates",
        "FFs",
        "|P|",
        "|M|",
        "conv.",
        "prop.",
        "Δ%",
        "|Φ_tar|",
        "paper Δ%",
    ];
    let mut rows = Vec::new();
    for (profile, scale) in config.suite() {
        let row = with_run(&profile, scale, &config, |flow, patterns, analysis, run| {
            let r = table1_row(flow, analysis, patterns.len());
            eprintln!(
                "[table1] {}: atpg {:.1}s analyze {:.1}s",
                r.circuit, run.phase_secs.0, run.phase_secs.1
            );
            r
        });
        let paper_gain = paper::TABLE1
            .iter()
            .find(|(n, ..)| *n == row.circuit)
            .map_or(f64::NAN, |(_, _, _, g, _)| *g);
        rows.push(vec![
            row.circuit.clone(),
            format!("{scale:.3}"),
            row.gates.to_string(),
            row.flip_flops.to_string(),
            row.patterns.to_string(),
            row.monitors.to_string(),
            row.detected_conv.to_string(),
            row.detected_prop.to_string(),
            pct(row.gain_percent),
            row.targets.to_string(),
            pct(paper_gain),
        ]);
    }
    print_table(&headers, &rows);
    fastmon_obs::finish();
}
