//! Programmable delay monitors for the `fastmon` toolkit.
//!
//! Models the in-situ aging monitor of the paper (Fig. 2): a shadow
//! flip-flop that samples the observed data signal through one of several
//! selectable delay elements and raises an *alert* when its capture
//! disagrees with the mission flip-flop. The crate covers both uses of the
//! monitor:
//!
//! 1. **Aging / wear-out prediction** — [`guard`] implements the
//!    detection-window semantics (a signal toggling inside the guard band
//!    raises an alert), and [`AgingModel`] provides a BTI-like gradual
//!    delay-degradation model plus early-life marginality injection to
//!    drive lifecycle studies.
//! 2. **FAST reuse for hidden-delay-fault testing** — [`MonitorPlacement`]
//!    selects monitors at long path ends (top fraction of observation
//!    points by arrival time), and [`ConfigSet`]/[`shifted_detection`]
//!    implement the detection-range algebra `I_SR(φ, o) = I_FF(φ, o) + d`:
//!    [`union_detection`] is the window under any configuration, and
//!    [`detects_at`] tests one capture time exactly without building a
//!    window. No other crate re-implements these window semantics.
//!
//! # Example
//!
//! ```
//! use fastmon_monitor::{ConfigSet, MonitorConfig};
//!
//! let configs = ConfigSet::paper_defaults(300.0);
//! // Off + four delay elements = the paper's |C| = 5
//! assert_eq!(configs.len(), 5);
//! assert_eq!(configs.shift(MonitorConfig::Off), 0.0);
//! assert_eq!(configs.max_shift(), 100.0); // t_nom / 3
//! ```

// Robustness gate: library code must not `unwrap`/`expect` (tests are
// exempt); structurally-infallible invariants use explicit `unreachable!`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
mod aging;
mod config;
mod overhead;
mod placement;
mod shift;

pub mod guard;

pub use aging::{inject_marginality, AgingModel};
pub use config::{ConfigSet, MonitorConfig};
pub use overhead::MonitorOverhead;
pub use placement::MonitorPlacement;
pub use shift::{at_speed_monitor_detectable, detects_at, shifted_detection, union_detection};
