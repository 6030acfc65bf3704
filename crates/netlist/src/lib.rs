//! Gate-level netlist substrate for the `fastmon` toolkit.
//!
//! This crate provides the circuit model consumed by every other `fastmon`
//! crate:
//!
//! * [`Circuit`] — a levelized gate-level netlist with full-scan semantics
//!   (flip-flops act as pseudo-primary inputs/outputs during test),
//! * [`GateKind`] — the supported cell types and their logic functions,
//! * [`bench`](mod@bench) — a reader/writer for the ISCAS'89 `.bench`
//!   format,
//! * [`library`] — small embedded reference circuits (`s27`, `c17`),
//! * [`generate`] — a deterministic synthetic full-scan circuit generator
//!   with profiles matching the benchmark suite of the reproduced paper.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), fastmon_netlist::NetlistError> {
//! use fastmon_netlist::{library, GateKind};
//!
//! let s27 = library::s27();
//! assert_eq!(s27.flip_flops().len(), 3);
//! // every combinational gate has a level above its fanins
//! for node in s27.combinational_nodes() {
//!     for &fi in s27.node(node).fanins() {
//!         assert!(s27.level(fi) < s27.level(node));
//!     }
//! }
//! # Ok(())
//! # }
//! ```

// Robustness gate: library code must surface failures as typed errors
// (`NetlistError`), never via `unwrap`/`expect` (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod builder;
mod circuit;
mod error;
mod gate;
mod stats;

pub mod bench;
pub mod generate;
pub mod library;
pub mod transform;

pub use builder::CircuitBuilder;
pub use circuit::{Circuit, ConeMarks, LevelQueue, Node, NodeId, ObservePoint, PinRef};
pub use error::NetlistError;
pub use gate::GateKind;
pub use stats::CircuitStats;
