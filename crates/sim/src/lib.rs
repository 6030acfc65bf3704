//! Timing-accurate waveform simulation for the `fastmon` toolkit.
//!
//! This crate is the CPU replacement for the GPU-based small-delay fault
//! simulator the paper uses (Schneider et al., TCAD 2017): it computes the
//! *complete transition waveform* of every net for a two-vector test, injects
//! small delay faults, re-simulates only the fault's fanout cone, and
//! reports the time intervals at which faulty and fault-free output
//! waveforms differ — the raw material of detection ranges.
//!
//! * [`Waveform`] — initial value plus sorted transition times, with
//!   transport-delay shifting, polarity-selective delays (fault injection)
//!   and pulse-annihilation normalization; [`WaveRef`] is its borrowed,
//!   `Copy` view,
//! * [`Stimulus`] — a two-vector (launch/capture) input assignment,
//! * [`SimEngine`] — full-circuit simulation into a flat per-pattern
//!   arena ([`SimResult`]) and cone-restricted faulty re-simulation,
//! * [`parallel_map`] / [`parallel_map_with`] — a work-stealing scoped-thread
//!   pool to fan simulations out over campaign work items,
//! * [`stats`] — campaign counter snapshots (cones simulated, nodes
//!   pruned, cone-walk buffers created and reused).
//!
//! # Example
//!
//! ```
//! use fastmon_netlist::library;
//! use fastmon_sim::{SimEngine, Stimulus};
//! use fastmon_timing::{DelayAnnotation, DelayModel};
//!
//! let circuit = library::c17();
//! let annot = DelayAnnotation::nominal(&circuit, &DelayModel::unit());
//! let engine = SimEngine::new(&circuit, &annot);
//! // launch all-zeros, capture all-ones
//! let stim = Stimulus::from_fn(&circuit, |_| (false, true));
//! let result = engine.simulate(&stim);
//! let out = circuit.find("N22").unwrap();
//! // N22 settles within the three levels of unit-delay NANDs
//! assert_eq!(result.wave(out).value_at(4.0), result.wave(out).final_value());
//! ```

// Robustness gate: library code must not `unwrap`/`expect` (tests are
// exempt); structurally-infallible invariants use explicit `unreachable!`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
mod engine;
mod parallel;
mod stimulus;
mod waveform;

pub mod stats;
pub mod vcd;

pub use engine::{ConePlan, ConeScratch, FaultyCone, PlanScratch, SimEngine, SimResult};
pub use parallel::{parallel_map, parallel_map_with, try_parallel_map_with, WorkerPanic};
pub use stimulus::Stimulus;
pub use waveform::{eval_gate, eval_gate_into, EvalScratch, WaveRef, Waveform};
