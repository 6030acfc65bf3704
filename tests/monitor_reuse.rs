//! The paper's central claim, verified constructively: a hidden delay fault
//! whose effect dies before `t_min` at every output is invisible to
//! conventional FAST but becomes detectable once a programmable delay
//! monitor shifts its detection range into the observable window.

use fastmon::faults::{DetectionRange, Polarity, SmallDelayFault};
use fastmon::monitor::{
    at_speed_monitor_detectable, shifted_detection, ConfigSet, MonitorConfig, MonitorPlacement,
};
use fastmon::netlist::{CircuitBuilder, GateKind, PinRef};
use fastmon::sim::{SimEngine, Stimulus};
use fastmon::timing::{ClockSpec, DelayAnnotation, DelayModel, Sta};

/// One deep path (16 buffers) and one shallow XOR path converge on a
/// flip-flop; the nominal clock is set by the deep path.
fn mixed_cone() -> fastmon::netlist::Circuit {
    let mut b = CircuitBuilder::new("mixed");
    b.add("a", GateKind::Input, &[]);
    b.add("b", GateKind::Input, &[]);
    b.add("en", GateKind::Input, &[]);
    for i in 1..=16 {
        let prev = if i == 1 {
            "a".to_owned()
        } else {
            format!("d{}", i - 1)
        };
        b.add(format!("d{i}"), GateKind::Buf, &[prev.as_str()]);
    }
    b.add("shallow", GateKind::Xor, &["b", "en"]);
    b.add("mix", GateKind::And, &["d16", "shallow"]);
    b.add("q", GateKind::Dff, &["mix"]);
    b.add("po", GateKind::Buf, &["d16"]);
    b.mark_output("po");
    b.finish().expect("valid circuit")
}

struct Setup {
    circuit: fastmon::netlist::Circuit,
    annot: DelayAnnotation,
    clock: ClockSpec,
    configs: ConfigSet,
    range: DetectionRange,
}

fn setup() -> Setup {
    let circuit = mixed_cone();
    let annot = DelayAnnotation::nominal(&circuit, &DelayModel::nangate45_like());
    let sta = Sta::analyze(&circuit, &annot);
    let clock = ClockSpec::from_sta(&sta, 3.0);
    let configs = ConfigSet::paper_defaults(clock.t_nom);

    // rising launch on b (a = 1 keeps the deep side non-controlling)
    let a = circuit.find("a").expect("input a");
    let b_in = circuit.find("b").expect("input b");
    let stim = Stimulus::from_fn(&circuit, |id| (id == a, id == a || id == b_in));
    let engine = SimEngine::new(&circuit, &annot);
    let base = engine.simulate(&stim);

    let shallow = circuit.find("shallow").expect("gate");
    let fault = SmallDelayFault::new(
        PinRef::Output(shallow),
        Polarity::SlowToRise,
        6.0 * annot.sigma(shallow),
    );
    let mut range = DetectionRange::new();
    for (op, set) in engine.response_diff(&base, &fault, clock.t_nom) {
        range.push(op, set);
    }
    Setup {
        circuit,
        annot,
        clock,
        configs,
        range,
    }
}

#[test]
fn hidden_fault_is_invisible_to_conventional_fast() {
    let s = setup();
    assert!(!s.range.is_empty(), "the fault does produce a response");
    // every raw interval ends before t_min
    for (_, set) in s.range.iter() {
        for iv in set.iter() {
            assert!(
                iv.end <= s.clock.t_min,
                "interval {iv} inside the FAST window — construction broken"
            );
        }
    }
    let placement = MonitorPlacement::from_mask(vec![false; s.circuit.observe_points().len()]);
    let conv = shifted_detection(
        s.range.view(),
        &placement,
        &s.configs,
        MonitorConfig::Off,
        &s.clock,
    );
    assert!(conv.is_empty(), "conventional FAST must not see it");
}

#[test]
fn monitor_shift_rescues_the_fault() {
    let s = setup();
    // monitor on the flip-flop D pin (a pseudo-output at a long path end)
    let mask: Vec<bool> = s
        .circuit
        .observe_points()
        .iter()
        .map(fastmon::netlist::ObservePoint::is_pseudo)
        .collect();
    let placement = MonitorPlacement::from_mask(mask);
    let with_d4 = shifted_detection(
        s.range.view(),
        &placement,
        &s.configs,
        MonitorConfig::Delay(3),
        &s.clock,
    );
    assert!(
        !with_d4.is_empty(),
        "the t_nom/3 delay element must shift the range into the window"
    );
    // and the shifted range lies inside the legal window
    for iv in with_d4.iter() {
        assert!(iv.start >= s.clock.t_min - 1e-9 && iv.end <= s.clock.t_nom + 1e-9);
    }
}

#[test]
fn placement_prefers_the_mixed_cone() {
    let s = setup();
    let sta = Sta::analyze(&s.circuit, &s.annot);
    let placement = MonitorPlacement::at_long_path_ends(&s.circuit, &sta, 0.5);
    // the flip-flop capturing `mix` ends the longest path: it must be
    // among the monitored half
    let mix = s.circuit.find("mix").expect("gate");
    let op_index = s
        .circuit
        .observe_points()
        .iter()
        .position(|op| op.driver == mix)
        .expect("mix is observed");
    assert!(placement.is_monitored(op_index));
}

#[test]
fn at_speed_monitor_detection_requires_late_ranges() {
    let s = setup();
    let placement = MonitorPlacement::full(&s.circuit);
    // the early-range fault is not at-speed detectable even with monitors
    assert!(!at_speed_monitor_detectable(
        s.range.view(),
        &placement,
        &s.configs,
        &s.clock
    ));
}
