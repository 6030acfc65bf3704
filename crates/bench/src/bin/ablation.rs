//! Ablation studies on the design choices of the monitor-reuse flow:
//!
//! 1. **Monitor fraction** — the paper fixes 25 % of observation points;
//!    sweep it and watch HDF coverage and |Φ_tar|.
//! 2. **Delay-element set** — all four elements vs only the largest vs a
//!    dense 8-element ladder.
//! 3. **Glitch threshold** — pessimism of the pulse filter vs detected
//!    faults.
//! 4. **Shared vs per-monitor configuration** — the paper assumes all
//!    monitors share one setting; per-monitor programming is a natural
//!    extension and this bound shows what it would buy in test time.
//!
//! ```text
//! cargo run --release -p fastmon-bench --bin ablation
//! ```

use fastmon_bench::{print_table, ExperimentConfig};
use fastmon_core::{FlowConfig, HdfTestFlow, Solver};
use fastmon_ilp::{greedy, SetCover};
use fastmon_monitor::detects_at;
use fastmon_netlist::generate::CircuitProfile;

fn main() {
    let base = ExperimentConfig::from_env();
    // one register-dominated stand-in, mid size
    let Some(profile) = CircuitProfile::named("s13207") else {
        eprintln!("[ablation] paper-suite profile 's13207' is missing from the generator");
        std::process::exit(1);
    };
    let scale = (base.target_gates as f64 / profile.gates as f64).min(1.0);
    let profile = profile.scaled(scale);
    let circuit = match profile.generate(base.seed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!(
                "[ablation] cannot generate the {} stand-in: {e}",
                profile.name
            );
            std::process::exit(1);
        }
    };
    println!(
        "# Ablations on the {} stand-in (scale {:.3}, seed {})\n",
        profile.name, scale, base.seed
    );

    // --- 1. monitor fraction ------------------------------------------------
    println!("## monitor fraction (paper default: 0.25)\n");
    let mut rows = Vec::new();
    for fraction in [0.0, 0.1, 0.25, 0.5, 1.0] {
        let config = FlowConfig {
            monitor_fraction: fraction,
            seed: base.seed,
            max_faults: Some(base.max_faults),
            ilp_deadline: base.ilp_deadline,
            ..FlowConfig::default()
        };
        let flow = HdfTestFlow::prepare(&circuit, &config);
        let patterns = flow.generate_patterns(Some(profile.pattern_budget));
        let analysis = flow.analyze(&patterns);
        rows.push(vec![
            format!("{fraction:.2}"),
            flow.placement().count().to_string(),
            analysis.detected_conv().to_string(),
            analysis.detected_prop().to_string(),
            format!(
                "{:+.1}%",
                (analysis.detected_prop() as f64 / analysis.detected_conv().max(1) as f64 - 1.0)
                    * 100.0
            ),
            analysis.targets.len().to_string(),
        ]);
    }
    print_table(
        &["fraction", "|M|", "conv.", "prop.", "gain", "|Φ_tar|"],
        &rows,
    );
    println!(
        "\n(note: the candidate population itself depends on the placement —\n\
         faults unreachable by any monitor are pruned as timing-redundant\n\
         before simulation — so the conv. column shifts with the sampled set)"
    );

    // --- 2. delay element sets ----------------------------------------------
    println!("\n## delay-element set (paper default: {{0.05, 0.10, 0.15, 1/3}}·t_nom)\n");
    let mut rows = Vec::new();
    for (name, delays) in [
        ("none", vec![]),
        ("only 1/3", vec![1.0 / 3.0]),
        ("paper 4", vec![0.05, 0.10, 0.15, 1.0 / 3.0]),
        (
            "dense 8",
            vec![0.04, 0.08, 0.12, 0.16, 0.20, 0.24, 0.28, 1.0 / 3.0],
        ),
    ] {
        let config = FlowConfig {
            monitor_delays_rel: delays.clone(),
            seed: base.seed,
            max_faults: Some(base.max_faults),
            ilp_deadline: base.ilp_deadline,
            ..FlowConfig::default()
        };
        let flow = HdfTestFlow::prepare(&circuit, &config);
        let patterns = flow.generate_patterns(Some(profile.pattern_budget));
        let analysis = flow.analyze(&patterns);
        let schedule = flow.schedule(&analysis, Solver::Ilp);
        rows.push(vec![
            name.to_owned(),
            (delays.len() + 1).to_string(),
            analysis.detected_prop().to_string(),
            analysis.targets.len().to_string(),
            schedule.num_frequencies().to_string(),
            schedule.num_applications().to_string(),
        ]);
    }
    print_table(
        &["elements", "|C|", "prop.", "|Φ_tar|", "|F|", "|S|"],
        &rows,
    );

    // --- 3. glitch threshold ------------------------------------------------
    println!("\n## glitch-filter threshold (paper: pessimistic pulse filtering)\n");
    let mut rows = Vec::new();
    for threshold in [0.0, 2.0, 4.0, 8.0, 16.0] {
        let config = FlowConfig {
            glitch_threshold: threshold,
            seed: base.seed,
            max_faults: Some(base.max_faults),
            ilp_deadline: base.ilp_deadline,
            ..FlowConfig::default()
        };
        let flow = HdfTestFlow::prepare(&circuit, &config);
        let patterns = flow.generate_patterns(Some(profile.pattern_budget));
        let analysis = flow.analyze(&patterns);
        rows.push(vec![
            format!("{threshold:.0} ps"),
            analysis.detected_conv().to_string(),
            analysis.detected_prop().to_string(),
            analysis.targets.len().to_string(),
        ]);
    }
    print_table(&["threshold", "conv.", "prop.", "|Φ_tar|"], &rows);

    // --- 4. shared vs per-monitor configuration ------------------------------
    println!("\n## shared (paper) vs per-monitor configuration — test-time bound\n");
    let config = FlowConfig {
        seed: base.seed,
        max_faults: Some(base.max_faults),
        ilp_deadline: base.ilp_deadline,
        ..FlowConfig::default()
    };
    let flow = HdfTestFlow::prepare(&circuit, &config);
    let patterns = flow.generate_patterns(Some(profile.pattern_budget));
    let analysis = flow.analyze(&patterns);
    let shared = flow.schedule(&analysis, Solver::Ilp);

    // per-monitor bound: with independently programmable monitors one
    // application of pattern p covers everything any configuration covers;
    // re-run step 2 with per-pattern "any config" sets
    let mut per_monitor_apps = 0usize;
    for entry in &shared.entries {
        let faults = &entry.faults;
        let mut combos: Vec<Vec<u32>> = Vec::new();
        let mut pattern_of: Vec<u32> = Vec::new();
        let mut index: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for (k, &f) in faults.iter().enumerate() {
            for (p, range) in analysis.per_pattern.entries(f) {
                let mut any = false;
                for c in flow.configs().configs() {
                    if detects_at(
                        range,
                        flow.placement(),
                        flow.configs(),
                        c,
                        flow.clock(),
                        entry.period,
                    ) {
                        any = true;
                        break;
                    }
                }
                if any {
                    let idx = *index.entry(p).or_insert_with(|| {
                        combos.push(Vec::new());
                        pattern_of.push(p);
                        combos.len() - 1
                    });
                    combos[idx].push(u32::try_from(k).unwrap_or_else(|_| {
                        eprintln!("[ablation] fault index {k} exceeds u32 set-cover capacity");
                        std::process::exit(1);
                    }));
                }
            }
        }
        let instance = SetCover::new(faults.len(), combos);
        per_monitor_apps += greedy(&instance).chosen.len();
    }
    println!(
        "shared configuration (paper): |F| = {}, |S| = {}",
        shared.num_frequencies(),
        shared.num_applications()
    );
    println!(
        "per-monitor configuration bound: |F| = {}, |S| ≥ {} ({:.1}% fewer applications)",
        shared.num_frequencies(),
        per_monitor_apps,
        (1.0 - per_monitor_apps as f64 / shared.num_applications().max(1) as f64) * 100.0
    );
    fastmon_obs::finish();
}
