//! Geometric-program solver for the SMART transistor sizer.
//!
//! The SMART flow (Nemani & Tiwari, DAC 2000, §5) formulates transistor
//! sizing as a geometric program: posynomial delay/slope/noise constraints,
//! posynomial cost (total width, power), solved after a log change of
//! variables as a convex problem "efficiently and quickly, in a numerically
//! stable fashion". This crate is that solver box of the paper's Fig. 4:
//!
//! * [`GpProblem`] — standard-form GP builder (`minimize f₀, fᵢ ≤ 1`),
//!   with size bounds and designer-pinned sizes as monomial constraints.
//! * [`GpProblem::solve`] — phase-I feasibility then barrier/Newton
//!   optimization over the log-transformed problem; the Newton systems are
//!   assembled sparsely per-constraint and factored with an in-place
//!   packed Cholesky (the dense twin survives as
//!   [`GpProblem::solve_reference`], the differential-test oracle).
//! * [`KktReport`] — first-order optimality residuals so callers can trust
//!   (or reject) a solution programmatically.
//!
//! # Example: minimum-width inverter chain under a delay budget
//!
//! ```
//! use smart_posy::{Monomial, Posynomial, VarPool};
//! use smart_gp::{GpProblem, SolverOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pool = VarPool::new();
//! let w1 = pool.var("W1");
//! let w2 = pool.var("W2");
//! let mut gp = GpProblem::new(pool);
//!
//! // minimize W1 + W2
//! gp.set_objective(Posynomial::var(w1) + Monomial::var(w2));
//! // delay: stage 1 drives W2, stage 2 drives a fixed load of 4.
//! let delay = Posynomial::from(Monomial::new(1.0).pow(w2, 1.0).pow(w1, -1.0))
//!     + Monomial::new(4.0).pow(w2, -1.0);
//! gp.add_le("delay", delay, Monomial::new(3.0))?;
//! gp.add_lower_bound(w1, 0.1);
//! gp.add_lower_bound(w2, 0.1);
//!
//! let sol = gp.solve(&SolverOptions::default())?;
//! assert!(sol.kkt.is_optimal(1e-4));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barrier;
mod cancel;
mod error;
mod kkt;
pub mod linalg;
mod problem;
mod reference;
mod solver;

pub use cancel::CancelToken;
pub use error::GpError;
pub use kkt::KktReport;
pub use problem::{GpConstraint, GpProblem};
pub use solver::{GpSolution, SolverOptions};
