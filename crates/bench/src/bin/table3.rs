//! Regenerates **Table III** of the paper: number of required test
//! frequencies and schedule sizes for relaxed hidden-delay-fault coverage
//! targets (99 %, 98 %, 95 %, 90 %).
//!
//! ```text
//! cargo run --release -p fastmon-bench --bin table3
//! ```

use fastmon_bench::{paper, pct, print_table, with_run, ExperimentConfig};
use fastmon_core::report::table3_row;

const COVERAGES: [f64; 4] = [0.99, 0.98, 0.95, 0.90];

fn main() {
    // With FASTMON_SHARD_PROCS=1 the campaign re-executes this binary
    // once per shard; those children never reach the experiment logic.
    fastmon_bench::shardsup::maybe_run_worker();
    let config = ExperimentConfig::from_env();
    println!("# Table III — test time reduction for partial HDF coverage\n");
    println!(
        "(synthetic stand-ins; target ≤ {} gates, ≤ {} sampled faults, seed {})\n",
        config.target_gates, config.max_faults, config.seed
    );

    let mut headers: Vec<String> = vec!["circuit".to_owned()];
    for cov in COVERAGES {
        let c = (cov * 100.0) as u32;
        headers.push(format!("|F{c}|"));
        headers.push(format!("|PC{c}|"));
        headers.push(format!("|S{c}|"));
        headers.push(format!("Δ%{c}"));
    }
    headers.push("paper Δ%99".to_owned());

    let mut rows = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    for (profile, scale) in config.suite() {
        let row = with_run(
            &profile,
            scale,
            &config,
            |flow, patterns, analysis, _run| {
                let t = std::time::Instant::now();
                let r = table3_row(flow, analysis, patterns.len(), &COVERAGES);
                eprintln!(
                    "[table3] {}: schedules {:.1}s",
                    r.circuit,
                    t.elapsed().as_secs_f64()
                );
                r
            },
        );
        let paper99 = paper::TABLE3_COV99
            .iter()
            .find(|(n, ..)| *n == row.circuit)
            .map_or(f64::NAN, |r| r.4);
        let mut cells = vec![row.circuit.clone()];
        for e in &row.entries {
            cells.push(e.frequencies.to_string());
            cells.push(e.naive_pc.to_string());
            cells.push(e.schedule.to_string());
            cells.push(pct(e.reduction_percent));
        }
        for n in &row.notes {
            notes.push(format!("{}: {n}", row.circuit));
        }
        cells.push(pct(paper99));
        rows.push(cells);
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&header_refs, &rows);
    if !notes.is_empty() {
        println!("\nDegraded results (deadline fallbacks / waived coverage):");
        for n in &notes {
            println!("- {n}");
        }
    }
    fastmon_obs::finish();
}
