//! Posynomial delay/slope/capacitance models for the SMART sizer.
//!
//! The paper (§5.1) requires component models that relate timing and output
//! slope to device sizes and input slope *posynomially*, so that sizing is
//! a geometric program. This crate is that "library of models":
//!
//! * [`Process`] — technology constants (τ, mobility ratio, slope
//!   coefficients, width limits).
//! * [`arcs`] — per-kind timing-arc templates (pin, unateness, phase) and
//!   drive tables, shared verbatim by the numeric STA and the symbolic
//!   constraint generator so the two views cannot diverge.
//! * [`ModelLibrary`] — evaluates stage delay/slope and net capacitance
//!   both numerically (for `smart-sta`) and as posynomials over the label
//!   width variables (for `smart-core`'s constraint generation), built
//!   as [`TermSum`](smart_posy::TermSum)s over the GP's
//!   [`TermTable`](smart_posy::TermTable) of interned exponent rows.
//!
//! The posynomial and numeric paths are tested against each other: for any
//! sizing, `posy.eval(widths) == numeric` to float precision.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arcs;
mod corners;
mod library;
mod process;

pub use arcs::{ArcPhase, ArcSpec, DriveTerm, Edge, Unate};
pub use corners::{Corner, CornerSet, Derate};
pub use library::{label_vars, width_from_solution, ModelLibrary, Timing};
pub use process::Process;
