//! Timing substrate for the `fastmon` toolkit.
//!
//! Provides everything the FAST/HDF flow needs to know about *time*:
//!
//! * [`DelayModel`] — NanGate-45nm-like nominal pin-to-pin delays per gate
//!   kind, with fanout-load and arity terms,
//! * [`DelayAnnotation`] — per-instance rise/fall delays, optionally
//!   perturbed by Gaussian process variation (σ = 20 % of nominal by
//!   default, as assumed by the paper),
//! * [`sdf`] — a writer/reader for the SDF subset (`IOPATH` delays) used to
//!   exchange annotations,
//! * [`Sta`] — static timing analysis: arrival times, longest/shortest paths
//!   *through* a node to any observation point (the quantity that decides
//!   whether a small delay fault is at-speed detectable or timing
//!   redundant),
//! * [`ClockSpec`] — nominal/maximum FAST clock derived from the critical
//!   path (`t_nom = 1.05·cpl`, `t_min = t_nom / fmax_factor`).
//!
//! All times are in picoseconds ([`Time`]).
//!
//! # Example
//!
//! ```
//! use fastmon_netlist::library;
//! use fastmon_timing::{ClockSpec, DelayAnnotation, DelayModel, Sta};
//!
//! let circuit = library::s27();
//! let model = DelayModel::nangate45_like();
//! let annot = DelayAnnotation::with_variation(&circuit, &model, 0.2, 42);
//! let sta = Sta::analyze(&circuit, &annot);
//! let clock = ClockSpec::from_sta(&sta, 3.0);
//! assert!(clock.t_nom > clock.t_min);
//! assert!((clock.t_nom / 1.05 - sta.critical_path_length()).abs() < 1e-9);
//! ```

// Robustness gate: library code must surface failures as typed errors
// (`TimingError`), never via `unwrap`/`expect` (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod annotate;
mod clock;
mod delay;
mod error;
mod sta;
mod variation;

pub mod sdf;

pub use annotate::DelayAnnotation;
pub use clock::ClockSpec;
pub use delay::DelayModel;
pub use error::TimingError;
pub use sta::Sta;
pub use variation::VariationSampler;

/// Time in picoseconds.
pub type Time = f64;
