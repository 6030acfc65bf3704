//! Small-delay fault modeling for the `fastmon` toolkit.
//!
//! Implements the fault-side vocabulary of the paper:
//!
//! * [`IntervalSet`] — unions of half-open time intervals with the
//!   operations detection ranges need (union, shift, clip, pessimistic
//!   glitch filtering, midpoints),
//! * [`SmallDelayFault`] — a lumped delay increase `δ` of one transition
//!   polarity at one gate pin,
//! * [`FaultList`] — fault population: two faults (slow-to-rise /
//!   slow-to-fall) per input and output pin of every gate, sized `δ = 6σ`,
//! * [`DetectionRange`] — the per-output detecting-observation-time sets of
//!   a fault (Definition 2 of the paper), and [`DetectionTable`] — every
//!   fault's ranges under every pattern, in three flat arrays per fault,
//! * [`classify`] — structural fault classification (at-speed detectable /
//!   timing redundant / FAST-relevant).
//!
//! # Example
//!
//! ```
//! use fastmon_faults::{Interval, IntervalSet};
//!
//! let mut set = IntervalSet::new();
//! set.insert(Interval::new(1.0, 2.0));
//! set.insert(Interval::new(1.5, 3.0)); // overlaps, gets merged
//! set.insert(Interval::new(5.0, 5.1));
//! assert_eq!(set.iter().count(), 2);
//! // pessimistic pulse filtering drops the 0.1-wide interval
//! let filtered = set.filter_glitches(0.5);
//! assert_eq!(filtered.iter().count(), 1);
//! assert!(filtered.contains(2.5));
//! ```

// Robustness gate: library code must not `unwrap`/`expect` (tests are
// exempt); structurally-infallible invariants use explicit `unreachable!`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
mod classify;
mod detect;
mod interval;
mod list;
mod model;

pub use classify::{classify, FaultClass};
pub use detect::{DetectionRange, DetectionTable, RangeBatch, RangeRef};
pub use interval::{Interval, IntervalSet, IntervalSetRef};
pub use list::FaultList;
pub use model::{FaultId, Polarity, SmallDelayFault};
