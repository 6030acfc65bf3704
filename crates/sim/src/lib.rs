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
//! * [`try_parallel_map_with`] — a scoped-thread map over campaign work
//!   items whose workers claim runs of indices from one shared cursor and
//!   return a caught panic as a [`WorkerPanic`],
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
#![forbid(unsafe_code)]
mod engine;
#[cfg(test)]
mod kernel_equivalence;
mod parallel;
mod stimulus;
mod waveform;

pub mod stats;
pub mod vcd;

pub use engine::{ConePlan, ConeScratch, FaultyCone, PlanScratch, SimEngine, SimResult};
pub use parallel::{try_parallel_map_with, Lease, WorkerPanic};
pub use stimulus::Stimulus;
pub use waveform::{eval_gate, eval_gate_into, EvalScratch, WaveRef, Waveform};
