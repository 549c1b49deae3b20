//! `smart-lint` — the electrical-rule engine of the SMART methodology.
//!
//! The paper (§5.3) warns that mixing circuit families — static, pass,
//! tri-state, D1/D2 domino — "must be carefully handled". This crate is
//! that handling as *static analysis*: a registry of identified rules
//! ([`rules`]) run over a [`Circuit`](smart_netlist::Circuit) by
//! [`lint_circuit`], producing stable, ordered [`Finding`]s that the
//! exploration flow (`smart-core::explore`) uses to reject illegal
//! candidates before any sizing effort is spent on them.
//!
//! Two analysis styles back the rules:
//!
//! * **Monotonicity dataflow** ([`dataflow`]): a fixpoint propagation of
//!   evaluate-phase signal edges over the timing graph, classifying every
//!   net on the lattice {Static, RisingMonotone, FallingMonotone,
//!   Unknown}. Domino data inputs must be monotone-rising during
//!   evaluate; the dataflow proves it (or names the net that is not).
//! * **Graph reachability** over the connectivity indices of the netlist:
//!   sneak paths, multi-driver contention, pass-chain depth,
//!   floating/undriven nets.
//!
//! The four methodology DRC checks that predate the engine are rules
//! `SL001`–`SL004`.

#![warn(missing_docs)]

pub mod dataflow;
mod engine;
mod report;
pub mod rules;

pub use engine::{
    lint_circuit, lint_circuit_with, rules, Finding, LintConfig, RuleInfo, Severity, Waiver,
};
pub use report::LintReport;
