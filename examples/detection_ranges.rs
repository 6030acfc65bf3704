//! Detection ranges, glitch filtering, monitor shifting and observation-time
//! discretization — Figs. 1, 2 (d) and 5 of the paper, on a hand-built
//! circuit.
//!
//! ```text
//! cargo run --release --example detection_ranges
//! ```

use fastmon::core::{discretize, elementary_intervals};
use fastmon::faults::{FaultList, Polarity, SmallDelayFault};
use fastmon::monitor::{shifted_detection, ConfigSet, MonitorConfig, MonitorPlacement};
use fastmon::netlist::{CircuitBuilder, GateKind, PinRef};
use fastmon::sim::{SimEngine, Stimulus};
use fastmon::timing::{ClockSpec, DelayAnnotation, DelayModel, Sta};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // a small circuit with one deep and one shallow path into the same
    // flip-flop: the shape that makes monitors useful
    const CHAIN: usize = 16;
    let mut b = CircuitBuilder::new("ranges");
    b.add("a", GateKind::Input, &[]);
    b.add("b", GateKind::Input, &[]);
    b.add("en", GateKind::Input, &[]);
    for i in 1..=CHAIN {
        let prev = if i == 1 {
            "a".to_owned()
        } else {
            format!("d{}", i - 1)
        };
        b.add(format!("d{i}"), GateKind::Buf, &[prev.as_str()]);
    }
    let deep = format!("d{CHAIN}");
    b.add("shallow", GateKind::Xor, &["b", "en"]);
    b.add("mix", GateKind::And, &[deep.as_str(), "shallow"]);
    b.add("q", GateKind::Dff, &["mix"]);
    b.add("po", GateKind::Buf, &[deep.as_str()]);
    b.mark_output("po");
    let circuit = b.finish()?;

    let annot = DelayAnnotation::nominal(&circuit, &DelayModel::nangate45_like());
    let sta = Sta::analyze(&circuit, &annot);
    let clock = ClockSpec::from_sta(&sta, 3.0);
    println!(
        "t_nom = {:.1} ps, FAST window [{:.1}, {:.1}) ps\n",
        clock.t_nom, clock.t_min, clock.t_nom
    );

    // δ = 6σ faults on the shallow XOR gate
    let faults = FaultList::six_sigma(&circuit, &annot);
    let shallow = circuit.find("shallow").expect("gate exists");
    let fault = SmallDelayFault::new(
        PinRef::Output(shallow),
        Polarity::SlowToRise,
        faults
            .iter()
            .find(|(_, f)| f.site.node() == shallow)
            .map(|(_, f)| f.delta)
            .expect("fault population covers the gate"),
    );
    println!("fault under study: {fault}");

    // simulate a rising launch on `b`; `a` stays 1 so the deep AND input is
    // non-controlling and the shallow transition reaches the flip-flop
    let a_in = circuit.find("a").expect("input a");
    let b_in = circuit.find("b").expect("input b");
    let stim = Stimulus::from_fn(&circuit, |id| (id == a_in, id == a_in || id == b_in));
    let engine = SimEngine::new(&circuit, &annot);
    let base = engine.simulate(&stim);
    let diffs = engine.response_diff(&base, &fault, clock.t_nom);

    println!("\nraw per-output difference intervals (XOR of waveforms):");
    let mut raw = fastmon::faults::DetectionRange::new();
    for (op, set) in diffs {
        let pseudo = circuit.observe_points()[op].is_pseudo();
        println!(
            "  at {} ({}): {set}",
            circuit.node(circuit.observe_points()[op].driver).name(),
            if pseudo {
                "flip-flop D pin"
            } else {
                "primary output"
            },
        );
        raw.push(op, set);
    }

    // Fig. 1: pessimistic pulse filtering
    let filtered = raw.filter_glitches(4.0);
    println!(
        "\nafter glitch filtering (threshold 4 ps): {}",
        filtered.raw_union()
    );

    // Fig. 2 (d): a monitor delay element shifts the range into the window
    let configs = ConfigSet::paper_defaults(clock.t_nom);
    let placement = MonitorPlacement::full(&circuit);
    println!("\ndetection under each monitor configuration (clipped to the window):");
    for config in configs.configs() {
        let set = shifted_detection(filtered.view(), &placement, &configs, config, &clock);
        println!(
            "  config {:>3} (+{:>5.1} ps): {set}",
            config.to_string(),
            configs.shift(config)
        );
    }
    let off = shifted_detection(
        filtered.view(),
        &placement,
        &configs,
        MonitorConfig::Off,
        &clock,
    );
    let best = shifted_detection(
        filtered.view(),
        &placement,
        &configs,
        MonitorConfig::Delay(3),
        &clock,
    );
    if off.is_empty() && !best.is_empty() {
        println!("\n→ invisible to conventional FAST, rescued by the 1/3·t_nom delay element");
    }

    // Fig. 5: discretization over several faults
    println!("\nobservation-time discretization over every fault of the circuit:");
    let mut ranges = Vec::new();
    for (_, f) in faults.iter() {
        let d = engine.response_diff(&base, f, clock.t_nom);
        let mut dr = fastmon::faults::DetectionRange::new();
        for (op, set) in d {
            dr.push(op, set);
        }
        let best = shifted_detection(
            dr.view(),
            &placement,
            &configs,
            MonitorConfig::Delay(3),
            &clock,
        );
        let any = off_union(&dr, &placement, &configs, &clock).union(&best);
        if !any.is_empty() {
            ranges.push(any);
        }
    }
    let cells = elementary_intervals(&ranges);
    println!(
        "  {} elementary intervals from {} detectable faults",
        cells.len(),
        ranges.len()
    );
    let candidates = discretize(&ranges);
    println!(
        "  candidate capture periods: {:?}",
        candidates.iter().map(|t| t.round()).collect::<Vec<_>>()
    );
    Ok(())
}

fn off_union(
    dr: &fastmon::faults::DetectionRange,
    placement: &MonitorPlacement,
    configs: &ConfigSet,
    clock: &ClockSpec,
) -> fastmon::faults::IntervalSet {
    shifted_detection(dr.view(), placement, configs, MonitorConfig::Off, clock)
}
