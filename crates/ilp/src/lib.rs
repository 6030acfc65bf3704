//! A 0-1 integer-linear-programming solver for set-covering problems.
//!
//! The paper models its two test-scheduling steps — minimum test-frequency
//! selection and minimum pattern×monitor-configuration selection — as
//! zero-one linear programs of the set-covering form
//!
//! ```text
//! minimize   Σ xᵢ
//! subject to Σ_{i ∈ S(φ)} xᵢ ≥ 1   for every fault φ
//! ```
//!
//! and solves them with a commercial tool under a timeout. This crate is the
//! open substitute: an exact branch-and-bound solver with classic
//! preprocessing reductions, a greedy heuristic (also used as the *heur.*
//! baseline standing in for the frequency-selection heuristic of the
//! authors' earlier ATS'18 work), and deadline-capped anytime behaviour —
//! when the deadline fires, the best solution found so far is returned and
//! flagged non-optimal, mirroring the paper's 1-hour ILP timeout.
//!
//! Partial covering (`cover ≥ x %` of the elements, needed for the paper's
//! Table III) is supported through
//! [`SetCover::with_allowed_uncovered`].
//!
//! # Example
//!
//! ```
//! use fastmon_ilp::{BranchBound, SetCover};
//!
//! // universe {0,1,2,3}; an optimal cover needs 2 sets
//! let instance = SetCover::new(4, vec![
//!     vec![0, 1],
//!     vec![2, 3],
//!     vec![0, 2],
//!     vec![1],
//! ]);
//! let solution = BranchBound::new().solve(&instance);
//! assert_eq!(solution.chosen.len(), 2);
//! assert!(solution.optimal);
//! ```

// Robustness gate: library code must not `unwrap`/`expect` (tests exempt);
// degenerate instances are reported through `Solution::feasible`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod branch_bound;
mod greedy;
mod instance;
mod reduce;
mod solution;

pub use branch_bound::BranchBound;
pub use greedy::greedy;
pub use instance::SetCover;
pub use reduce::{reduce, Reduction};
pub use solution::{Solution, SolveStats};
