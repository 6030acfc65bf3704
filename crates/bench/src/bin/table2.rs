//! Regenerates **Table II** of the paper: number of selected test
//! frequencies (conventional / greedy heuristic / proposed ILP) and the
//! schedule size before/after the two-step optimization.
//!
//! ```text
//! cargo run --release -p fastmon-bench --bin table2
//! ```

use fastmon_bench::{paper, pct, print_table, with_run, ExperimentConfig};
use fastmon_core::report::table2_row;

fn main() {
    // With FASTMON_SHARD_PROCS=1 the campaign re-executes this binary
    // once per shard; those children never reach the experiment logic.
    fastmon_bench::shardsup::maybe_run_worker();
    let config = ExperimentConfig::from_env();
    println!("# Table II — selected test frequencies and test time\n");
    println!(
        "(synthetic stand-ins; target ≤ {} gates, ≤ {} sampled faults, seed {})\n",
        config.target_gates, config.max_faults, config.seed
    );

    let headers = [
        "circuit",
        "conv.|F|",
        "heur.|F|",
        "prop.|F|",
        "Δ%|F|",
        "orig |PC|",
        "opti |PC|",
        "Δ%|PC|",
        "paper Δ%|PC|",
    ];
    let mut rows = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    for (profile, scale) in config.suite() {
        let row = with_run(&profile, scale, &config, |flow, patterns, analysis, run| {
            let t = std::time::Instant::now();
            let r = table2_row(flow, analysis, patterns.len());
            eprintln!(
                "[table2] {}: atpg {:.1}s analyze {:.1}s schedule {:.1}s",
                r.circuit,
                run.phase_secs.0,
                run.phase_secs.1,
                t.elapsed().as_secs_f64()
            );
            r
        });
        let paper_pc = paper::TABLE2
            .iter()
            .find(|(n, ..)| *n == row.circuit)
            .map_or(f64::NAN, |r| r.7);
        rows.push(vec![
            row.circuit.clone(),
            row.freq_conv.to_string(),
            row.freq_heur.to_string(),
            row.freq_prop.to_string(),
            format!("{:.1}%", row.freq_reduction_percent),
            row.orig_pc.to_string(),
            row.opti_pc.to_string(),
            pct(row.pc_reduction_percent),
            pct(paper_pc),
        ]);
        for n in &row.notes {
            notes.push(format!("{}: {n}", row.circuit));
        }
    }
    print_table(&headers, &rows);
    if !notes.is_empty() {
        println!("\nDegraded results (deadline fallbacks / waived coverage):");
        for n in &notes {
            println!("- {n}");
        }
    }
    fastmon_obs::finish();
}
