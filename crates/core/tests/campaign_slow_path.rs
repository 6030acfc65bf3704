//! Slow-path oracle for the campaign: every fault's per-pattern detection
//! ranges must equal an independent fault-by-fault re-simulation through
//! the unplanned `SimEngine::response_diff` path — bitwise, not
//! approximately — and every raw union must be the merge of its fault's
//! per-pattern ranges.

use fastmon_core::{FlowConfig, HdfTestFlow};
use fastmon_faults::DetectionRange;
use fastmon_netlist::generate::GeneratorConfig;
use fastmon_netlist::Circuit;
use fastmon_sim::SimEngine;

fn random_circuit(seed: u64) -> Circuit {
    GeneratorConfig::new("slow-path")
        .gates(80 + (seed as usize % 4) * 30)
        .flip_flops(6 + (seed as usize % 3) * 2)
        .inputs(6)
        .outputs(3)
        .depth(5 + (seed % 3) as u32)
        .generate(seed)
        .expect("valid generator config")
}

#[test]
fn campaign_matches_slow_path_per_fault() {
    for seed in 1..=4u64 {
        let circuit = random_circuit(seed);
        let config = FlowConfig {
            seed,
            ..FlowConfig::default()
        };
        let flow = HdfTestFlow::prepare(&circuit, &config);
        let patterns = flow.generate_patterns(Some(12));
        let analysis = flow.analyze(&patterns);

        // slow-path oracle: every fault against every pattern, no cone
        // plans
        let engine = SimEngine::new(&circuit, flow.annotation());
        let t_nom = flow.clock().t_nom;
        let glitch = config.glitch_threshold;
        for p in 0..patterns.len() {
            let base = engine.simulate(&patterns.stimulus(&circuit, p));
            for (fid, fault) in flow.candidate_faults().iter() {
                let mut expected = DetectionRange::new();
                for (op, set) in engine.response_diff(&base, fault, t_nom) {
                    expected.push(op, set.clipped(0.0, t_nom).filter_glitches(glitch));
                }
                let got = analysis.per_pattern[fid.index()]
                    .iter()
                    .find(|(pp, _)| *pp as usize == p)
                    .map(|(_, dr)| dr);
                match got {
                    Some(dr) => assert_eq!(
                        dr, &expected,
                        "seed={seed} fault={fid} pattern={p}: campaign diverges from \
                         slow-path oracle"
                    ),
                    None => assert!(
                        expected.is_empty(),
                        "seed={seed} fault={fid} pattern={p}: campaign missed a detection"
                    ),
                }
            }
        }

        // raw unions are exactly the per-pattern merges
        for (fid, _) in flow.candidate_faults().iter() {
            let mut union = DetectionRange::new();
            for (_, dr) in &analysis.per_pattern[fid.index()] {
                union.merge(dr);
            }
            assert_eq!(
                union,
                analysis.raw_union[fid.index()],
                "seed={seed} fault={fid}"
            );
        }
    }
}
