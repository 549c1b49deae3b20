//! SMART — Smart Macro Design Advisor.
//!
//! The primary contribution of Nemani & Tiwari, *"Macro-Driven Circuit
//! Design Methodology for High-Performance Datapaths"* (DAC 2000): an
//! advisory flow that takes a datapath macro instance with its local
//! constraints (delays, slopes, loads), sizes every candidate topology
//! from the design database with a posynomial/geometric-programming
//! engine, and compares the sized solutions on a designer-chosen cost
//! metric.
//!
//! Pipeline (paper Figs. 1 & 4):
//!
//! 1. [`fn@compact`] — path extraction + compaction: regularity merging,
//!    worst-pin modeling and fanout dominance collapse the exhaustive path
//!    set (e.g. >32,000 on a 64-bit dynamic adder, §5.2) to a small sound
//!    constraint set.
//! 2. [`constraints`] — posynomial timing / slope / size / noise
//!    constraint generation over the label-width variables, with designer
//!    pins; domino paths are timed end-to-end across stage boundaries,
//!    giving automatic Opportunistic Time Borrowing.
//! 3. [`size_circuit`] — the GP-solve → STA-verify → retarget loop.
//! 4. [`explore_parallel`] — Fig.-1 topology exploration over database
//!    alternatives, reporting width / power / clock load per candidate.
//! 5. [`baseline_sizing`] — the deterministic "hand designed original"
//!    model that the reproduction's experiments compare against (see
//!    DESIGN.md's substitution table).
//!
//! # Quickstart
//!
//! ```
//! use smart_core::{size_circuit, DelaySpec, SizingOptions};
//! use smart_macros::{MacroSpec, MuxTopology};
//! use smart_models::ModelLibrary;
//! use smart_sta::Boundary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = MacroSpec::Mux {
//!     topology: MuxTopology::StronglyMutexedPass,
//!     width: 4,
//! }
//! .generate();
//! let lib = ModelLibrary::reference();
//! let mut boundary = Boundary::default();
//! boundary.output_loads.insert("y".into(), 20.0);
//!
//! let outcome = size_circuit(
//!     &circuit,
//!     &lib,
//!     &boundary,
//!     &DelaySpec::uniform(220.0),
//!     &SizingOptions::default(),
//! )?;
//! assert!(outcome.measured_delay <= 220.0 * 1.02);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The flow's algorithm epoch. Raise it with every change that moves a
/// sizing bit (`tests/sizing_bits_golden.rs` records it beside its
/// hashes and fails if one moves without the other). A cache snapshot
/// carries the epoch it was written under, and one from another epoch
/// restores as "no snapshot", so neither a warm-booted daemon nor a
/// resumed sweep serves a sizing the current flow would not compute.
pub const FLOW_EPOCH: u32 = 1;

mod baseline;
pub mod cache;
pub mod compact;
pub mod constraints;
mod error;
mod explore;
mod noise;
mod persist;
pub mod pool;
mod report;
mod sizing;
mod spec;
pub mod tune;
mod variation;

pub use baseline::{baseline_sizing, BaselineMargins};
pub use cache::{cache_key, output_loads_fingerprint, CacheKey, SizingCache};
pub use compact::{compact, CapVec, Compaction, PathClass};
pub use error::FlowError;
pub use explore::{
    explore_parallel, explore_with_parallel, Candidate, CandidateMetrics, DegradationReport,
    Exploration,
};
pub use noise::{analyze_noise, DynamicNodeNoise, NoiseReport};
pub use pool::{run_indexed, EnvFallback, ParallelOptions};
pub use report::{exploration_report, sizing_report};
pub use sizing::{
    compaction_stats, measure_phase_delays, minimize_delay, size_circuit, size_lazily,
    CornerDelay, SizingOutcome,
};
pub use sizing::audit_circuit;
pub use spec::{AuditGate, CostMetric, DelaySpec, FlowBudget, LintGate, SizingOptions};
pub use variation::{variation_sweep, VariationOptions, VariationReport, VariationSample};
pub use tune::{tune_comparator_grouping, tune_partition_point, TuneCandidate, TuneSweep};
