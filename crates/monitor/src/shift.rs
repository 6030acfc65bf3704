use fastmon_faults::{Interval, IntervalSet, RangeRef};
use fastmon_timing::{ClockSpec, Time};

use crate::{ConfigSet, MonitorConfig, MonitorPlacement};

/// The detection-range algebra of Sec. III-B: the observation-time set under
/// one chip-wide monitor configuration.
///
/// For every observation point `o` the fault reaches:
///
/// * the mission flip-flop contributes `I_FF(φ, o)` clipped to the legal
///   FAST window `[t_min, t_nom)`,
/// * if `o` is monitored and the configuration selects delay `d`, the
///   shadow register additionally contributes
///   `I_SR(φ, o) = I_FF(φ, o) + d`, clipped to the same window.
///
/// The result is the union over all outputs, built in one
/// [`IntervalSet::from_intervals`] pass. Pass the raw (unclipped)
/// range from fault simulation — intervals below `t_min`
/// matter, because a monitor shift can move them into the window.
///
/// # Example
///
/// ```
/// use fastmon_faults::{DetectionRange, Interval, IntervalSet};
/// use fastmon_monitor::{shifted_detection, ConfigSet, MonitorConfig, MonitorPlacement};
/// use fastmon_timing::ClockSpec;
///
/// let clock = ClockSpec::new(300.0, 3.0); // window [100, 300)
/// let configs = ConfigSet::paper_defaults(clock.t_nom);
/// let placement = MonitorPlacement::from_mask(vec![true]);
/// let mut dr = DetectionRange::new();
/// // a short-path fault effect entirely below t_min
/// dr.push(0, IntervalSet::from_intervals([Interval::new(40.0, 80.0)]));
///
/// // invisible to plain FAST...
/// let off = shifted_detection(dr.view(), &placement, &configs, MonitorConfig::Off, &clock);
/// assert!(off.is_empty());
/// // ...but the 1/3·t_nom delay element shifts it into the window
/// let d4 = shifted_detection(dr.view(), &placement, &configs, MonitorConfig::Delay(3), &clock);
/// assert!(d4.contains(150.0));
/// ```
#[must_use]
pub fn shifted_detection(
    range: RangeRef<'_>,
    placement: &MonitorPlacement,
    configs: &ConfigSet,
    config: MonitorConfig,
    clock: &ClockSpec,
) -> IntervalSet {
    let d = configs.shift(config);
    window(range, placement, clock, std::slice::from_ref(&d))
}

/// The observation-time set under *some* monitor configuration: the union
/// of [`shifted_detection`] over every configuration of `configs`, `Off`
/// included, built in one [`IntervalSet::from_intervals`] pass. This is the
/// range a schedule that may pick the best configuration per instant can
/// observe.
///
/// # Example
///
/// ```
/// use fastmon_faults::{DetectionRange, Interval, IntervalSet};
/// use fastmon_monitor::{shifted_detection, union_detection, ConfigSet, MonitorPlacement};
/// use fastmon_timing::ClockSpec;
///
/// let clock = ClockSpec::new(300.0, 3.0); // window [100, 300)
/// let configs = ConfigSet::new(vec![20.0, 50.0]);
/// let placement = MonitorPlacement::from_mask(vec![true]);
/// let mut dr = DetectionRange::new();
/// dr.push(0, IntervalSet::from_intervals([Interval::new(60.0, 110.0)]));
///
/// let any = union_detection(dr.view(), &placement, &configs, &clock);
/// let each = configs.configs().fold(IntervalSet::new(), |acc, c| {
///     acc.union(&shifted_detection(dr.view(), &placement, &configs, c, &clock))
/// });
/// assert_eq!(any, each);
/// assert_eq!(any.as_slice(), &[Interval::new(100.0, 160.0)]);
/// ```
#[must_use]
pub fn union_detection(
    range: RangeRef<'_>,
    placement: &MonitorPlacement,
    configs: &ConfigSet,
    clock: &ClockSpec,
) -> IntervalSet {
    window(range, placement, clock, configs.delays())
}

/// The window `[t_min, t_nom)` of the mission flip-flops plus, at
/// monitored points, of the shadow registers under every delay of
/// `shifts` (non-positive delays select no shadow register), as one set.
fn window(
    range: RangeRef<'_>,
    placement: &MonitorPlacement,
    clock: &ClockSpec,
    shifts: &[Time],
) -> IntervalSet {
    let mut pieces: Vec<Interval> = Vec::new();
    let mut clip = |iv: Interval| {
        let (start, end) = (iv.start.max(clock.t_min), iv.end.min(clock.t_nom));
        if start < end {
            pieces.push(Interval::new(start, end));
        }
    };
    for (op_index, raw) in range.iter() {
        let monitored = placement.is_monitored(op_index);
        for iv in raw.iter() {
            // mission flip-flop observation
            clip(*iv);
            // shadow register observation
            if monitored {
                for &d in shifts.iter().filter(|&&d| d > 0.0) {
                    clip(iv.shifted(d));
                }
            }
        }
    }
    IntervalSet::from_intervals(pieces)
}

/// Whether the fault is detected when capturing at time `t` under monitor
/// configuration `config`: exactly
/// `shifted_detection(range, placement, configs, config, clock).contains(t)`,
/// bit for bit, without building the set.
///
/// It tests `t_min <= t < t_nom`, then per observation point whether the
/// raw range contains `t` or, at a monitored point under a delay `d > 0`,
/// whether some raw interval satisfies `start + d <= t < end + d` — the
/// sums [`Interval::shifted`] computes, never `t - d`
/// ([`IntervalSetRef::contains_shifted`](fastmon_faults::IntervalSetRef::contains_shifted)).
///
/// # Example
///
/// ```
/// use fastmon_faults::{DetectionRange, Interval, IntervalSet};
/// use fastmon_monitor::{detects_at, ConfigSet, MonitorConfig, MonitorPlacement};
/// use fastmon_timing::ClockSpec;
///
/// let clock = ClockSpec::new(300.0, 3.0); // window [100, 300)
/// let configs = ConfigSet::paper_defaults(clock.t_nom);
/// let placement = MonitorPlacement::from_mask(vec![true]);
/// let mut dr = DetectionRange::new();
/// dr.push(0, IntervalSet::from_intervals([Interval::new(40.0, 80.0)]));
///
/// assert!(!detects_at(dr.view(), &placement, &configs, MonitorConfig::Off, &clock, 150.0));
/// // shifted by 100: [140, 180)
/// assert!(detects_at(dr.view(), &placement, &configs, MonitorConfig::Delay(3), &clock, 150.0));
/// assert!(!detects_at(dr.view(), &placement, &configs, MonitorConfig::Delay(3), &clock, 180.0));
/// ```
#[must_use]
pub fn detects_at(
    range: RangeRef<'_>,
    placement: &MonitorPlacement,
    configs: &ConfigSet,
    config: MonitorConfig,
    clock: &ClockSpec,
    t: Time,
) -> bool {
    if !(clock.t_min <= t && t < clock.t_nom) {
        return false;
    }
    let d = configs.shift(config);
    range.iter().any(|(op_index, raw)| {
        raw.contains(t)
            || (d > 0.0 && placement.is_monitored(op_index) && raw.contains_shifted(d, t))
    })
}

/// Whether the monitors make the fault detectable *at nominal speed*: some
/// configuration's shifted range covers the nominal capture time.
///
/// These faults are removed from the FAST target set in step ④/⑤ of the
/// paper's flow — ordinary at-speed monitoring already catches them, no
/// FAST frequency is needed.
///
/// Detection "at t_nom" is evaluated just inside the window boundary
/// (capture at the nominal edge), with the same exact shifted-point test
/// as [`detects_at`].
#[must_use]
pub fn at_speed_monitor_detectable(
    range: RangeRef<'_>,
    placement: &MonitorPlacement,
    configs: &ConfigSet,
    clock: &ClockSpec,
) -> bool {
    // sample point just inside [t_min, t_nom)
    let at_speed = clock.t_nom * (1.0 - 1e-9);
    for (op_index, raw) in range.iter() {
        if raw.contains(at_speed) {
            return true; // plain at-speed capture already differs
        }
        if placement.is_monitored(op_index)
            && configs
                .delays()
                .iter()
                .any(|&d| raw.contains_shifted(d, at_speed))
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmon_faults::DetectionRange;

    fn clock() -> ClockSpec {
        ClockSpec::new(300.0, 3.0) // window [100, 300)
    }

    fn range_at(op: usize, start: f64, end: f64) -> DetectionRange {
        let mut dr = DetectionRange::new();
        dr.push(op, IntervalSet::from_intervals([Interval::new(start, end)]));
        dr
    }

    #[test]
    fn off_config_is_plain_ff_union() {
        let dr = range_at(0, 50.0, 150.0);
        let placement = MonitorPlacement::from_mask(vec![true]);
        let configs = ConfigSet::paper_defaults(300.0);
        let set = shifted_detection(
            dr.view(),
            &placement,
            &configs,
            MonitorConfig::Off,
            &clock(),
        );
        assert_eq!(set.as_slice(), &[Interval::new(100.0, 150.0)]);
    }

    #[test]
    fn unmonitored_output_gets_no_shift() {
        let dr = range_at(0, 40.0, 80.0);
        let placement = MonitorPlacement::from_mask(vec![false]);
        let configs = ConfigSet::paper_defaults(300.0);
        let set = shifted_detection(
            dr.view(),
            &placement,
            &configs,
            MonitorConfig::Delay(3),
            &clock(),
        );
        assert!(set.is_empty());
    }

    #[test]
    fn shift_extends_detection() {
        let dr = range_at(0, 90.0, 110.0);
        let placement = MonitorPlacement::from_mask(vec![true]);
        let configs = ConfigSet::paper_defaults(300.0);
        // d1 = 15: FF part [100,110) ∪ SR part [105,125)
        let set = shifted_detection(
            dr.view(),
            &placement,
            &configs,
            MonitorConfig::Delay(0),
            &clock(),
        );
        assert_eq!(set.as_slice(), &[Interval::new(100.0, 125.0)]);
    }

    #[test]
    fn at_speed_monitor_detection() {
        let placement = MonitorPlacement::from_mask(vec![true]);
        let configs = ConfigSet::paper_defaults(300.0);
        // effect dies at 250 — not at-speed detectable by the FF
        let dr = range_at(0, 210.0, 250.0);
        assert!(!at_speed_monitor_detectable(
            dr.view(),
            &MonitorPlacement::from_mask(vec![false]),
            &configs,
            &clock()
        ));
        // but a shift of 100 moves it across t_nom: [310, 350) ∌ 300... no.
        // use an interval that straddles 300 after the 100 shift
        let dr = range_at(0, 210.0, 310.0);
        assert!(at_speed_monitor_detectable(
            dr.view(),
            &placement,
            &configs,
            &clock()
        ));
    }

    #[test]
    fn plain_at_speed_detection_counts_too() {
        let configs = ConfigSet::paper_defaults(300.0);
        let dr = range_at(0, 290.0, 310.0);
        assert!(at_speed_monitor_detectable(
            dr.view(),
            &MonitorPlacement::from_mask(vec![false]),
            &configs,
            &clock()
        ));
    }

    #[test]
    fn multiple_outputs_union() {
        let mut dr = DetectionRange::new();
        dr.push(
            0,
            IntervalSet::from_intervals([Interval::new(120.0, 130.0)]),
        );
        dr.push(1, IntervalSet::from_intervals([Interval::new(60.0, 70.0)]));
        let placement = MonitorPlacement::from_mask(vec![false, true]);
        let configs = ConfigSet::new(vec![50.0]);
        let set = shifted_detection(
            dr.view(),
            &placement,
            &configs,
            MonitorConfig::Delay(0),
            &clock(),
        );
        // op0 FF: [120,130); op1 FF: clipped away; op1 SR: [110,120)
        assert_eq!(set.as_slice(), &[Interval::new(110.0, 130.0)]);
    }
}
