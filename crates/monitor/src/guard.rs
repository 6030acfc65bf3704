//! Guard-band (detection window) semantics of the programmable delay
//! monitor, as illustrated in Fig. 2 of the paper.
//!
//! A monitor at a flip-flop samples the data signal `D` twice at the clock
//! edge `t_clk`: the mission flip-flop captures `Q = D(t_clk)` and the
//! shadow register captures `Q' = D(t_clk − d)` (the signal seen through the
//! delay element `d`). The XOR of the two captures raises an **alert**: the
//! signal was not stable during the detection window `(t_clk − d, t_clk]`.
//!
//! A wide delay element (large guard band) senses early degradation; after
//! aging countermeasures, a smaller element tracks the remaining margin
//! until an imminent failure (Fig. 2 (b)–(c)).
//!
//! # Example
//!
//! ```
//! use fastmon_monitor::guard;
//! use fastmon_sim::Waveform;
//!
//! // data settles at t = 280
//! let d = Waveform::with_transitions(false, vec![280.0]);
//! // a guard band of 30 before the edge at 300 flags the late transition
//! assert!(guard::alert(d.view(), 300.0, 30.0));
//! // a narrow band of 10 does not: the signal is stable after 290
//! assert!(!guard::alert(d.view(), 300.0, 10.0));
//! ```

use fastmon_sim::WaveRef;
use fastmon_timing::Time;

/// Whether the monitor raises an alert at clock edge `t_clk` with delay
/// element `d`: the mission capture `D(t_clk)` differs from the shadow
/// capture `D(t_clk − d)`.
///
/// Note the XOR-comparator blind spot inherited from the hardware: a signal
/// toggling an *even* number of times inside the window produces identical
/// captures and no alert. Use [`is_stable`] for the idealized
/// stability check.
#[must_use]
pub fn alert(data: WaveRef<'_>, t_clk: Time, d: Time) -> bool {
    data.value_at(t_clk) != data.value_at(t_clk - d)
}

/// Idealized stability check: `true` if the signal does not toggle inside
/// the detection window `(t_clk − d, t_clk]` at all.
#[must_use]
pub fn is_stable(data: WaveRef<'_>, t_clk: Time, d: Time) -> bool {
    data.transitions()
        .iter()
        .all(|&t| t <= t_clk - d || t > t_clk)
}

/// The *slack* of the latest transition against the clock edge: how much
/// earlier than `t_clk` the signal settles (negative if it settles after
/// the edge). Returns `t_clk` itself for constant signals.
#[must_use]
pub fn settle_slack(data: WaveRef<'_>, t_clk: Time) -> Time {
    match data.last_transition() {
        Some(t) => t_clk - t,
        None => t_clk,
    }
}

/// The smallest delay-element value (from `delays`) whose guard band the
/// signal violates, or `None` if the signal is stable even for the largest
/// element.
///
/// During lifetime monitoring the returned element index tracks the
/// degradation state: a young device alerts for no element, an aging device
/// first violates the widest band, a failing one violates even the
/// narrowest.
#[must_use]
pub fn first_violated(data: WaveRef<'_>, t_clk: Time, delays: &[Time]) -> Option<usize> {
    let mut best: Option<(usize, Time)> = None;
    for (i, &d) in delays.iter().enumerate() {
        if !is_stable(data, t_clk, d) {
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((i, d)),
            }
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmon_sim::Waveform;

    #[test]
    fn alert_matches_fig2_scenarios() {
        let t_clk = 300.0;
        // (b) stable signal, wide window: no alert
        let stable = Waveform::with_transitions(false, vec![100.0]);
        assert!(!alert(stable.view(), t_clk, 100.0));
        // degraded signal toggling inside the window: alert
        let degraded = Waveform::with_transitions(false, vec![250.0]);
        assert!(alert(degraded.view(), t_clk, 100.0));
        // (c) after countermeasures, narrow window tolerates it
        assert!(!alert(degraded.view(), t_clk, 20.0));
        // further degradation violates even the narrow window
        let failing = Waveform::with_transitions(false, vec![295.0]);
        assert!(alert(failing.view(), t_clk, 20.0));
    }

    #[test]
    fn xor_blind_spot_vs_stability() {
        // two toggles inside the window: XOR comparator misses it
        let glitchy = Waveform::with_transitions(false, vec![280.0, 290.0]);
        assert!(!alert(glitchy.view(), 300.0, 50.0));
        assert!(!is_stable(glitchy.view(), 300.0, 50.0));
    }

    #[test]
    fn window_boundaries() {
        // transition exactly at t_clk - d is outside the window (the shadow
        // register samples the *new* value)
        let w = Waveform::with_transitions(false, vec![250.0]);
        assert!(!alert(w.view(), 300.0, 50.0));
        assert!(is_stable(w.view(), 300.0, 50.0));
        // transition exactly at t_clk is inside
        let w = Waveform::with_transitions(false, vec![300.0]);
        assert!(alert(w.view(), 300.0, 50.0));
    }

    #[test]
    fn settle_slack_values() {
        let w = Waveform::with_transitions(false, vec![280.0]);
        assert_eq!(settle_slack(w.view(), 300.0), 20.0);
        assert_eq!(settle_slack(Waveform::constant(true).view(), 300.0), 300.0);
        let late = Waveform::with_transitions(false, vec![310.0]);
        assert_eq!(settle_slack(late.view(), 300.0), -10.0);
    }

    #[test]
    fn first_violated_tracks_degradation() {
        let delays = [15.0, 30.0, 45.0, 100.0];
        let young = Waveform::with_transitions(false, vec![100.0]);
        assert_eq!(first_violated(young.view(), 300.0, &delays), None);
        let aging = Waveform::with_transitions(false, vec![230.0]);
        // violates only the 100-wide band
        assert_eq!(first_violated(aging.view(), 300.0, &delays), Some(3));
        let failing = Waveform::with_transitions(false, vec![292.0]);
        // violates every band; smallest is index 0
        assert_eq!(first_violated(failing.view(), 300.0, &delays), Some(0));
    }
}
