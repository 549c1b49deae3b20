//! `smart-chaos` — deterministic chaos engineering for the SMART flow.
//!
//! The exploration flow is fault-*isolated* (per-candidate panic
//! boundaries), fault-*classified* (the [`FlowError` taxonomy][taxonomy])
//! and budget-*cancellable* — but until this crate, those defenses were
//! exercised only by a handful of hand-written failure-path tests.
//! `smart-chaos` turns arbitrary fault timing into a *reproducible test
//! axis*: a seeded [`FaultPlan`] decides, as a **pure function of the
//! candidate identity** (never of call order, thread schedule or wall
//! clock), which instrumented seam of the flow fails for which candidate
//! — so a fixed seed produces byte-identical exploration outcomes across
//! any `SMART_WORKERS` setting, and a failing chaos run is replayable
//! from its seed alone.
//!
//! The crate is deliberately mechanism-only: it knows nothing about
//! circuits, GPs or caches. The flow crates own the seams (they ask the
//! plan "does site S fire for the current candidate?" and act on the
//! answer); this crate owns determinism.
//!
//! [taxonomy]: https://docs.rs/smart-core (FlowError::taxonomy)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;

pub use plan::{
    candidate_scope, current_candidate, CandidateGuard, FaultPlan, FaultSite, SOLO_CANDIDATE,
};
