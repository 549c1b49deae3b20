//! Posynomial algebra for geometric-programming-based transistor sizing.
//!
//! The SMART sizing engine (Nemani & Tiwari, DAC 2000, §5) models gate delay,
//! output slope and capacitance as *posynomials* — sums of monomials
//! `c · x₁^a₁ · x₂^a₂ · …` with strictly positive coefficients `c > 0` and
//! arbitrary real exponents. Posynomials are closed under addition,
//! multiplication, positive scaling and division by a monomial, and a
//! constraint `posynomial ≤ 1` becomes convex after the change of variables
//! `y = log x`. This crate provides the algebra; [`smart-gp`] provides the
//! solver.
//!
//! A problem stores its posynomials as `(TermId, coefficient)` pairs over
//! one [`TermTable`] of interned exponent rows ([`TermSum`] builds them,
//! [`PosyView`] reads them); the log form ([`LogPosynomial`]) and the
//! solve-wide [`TermDictionary`] borrow the table and read the rows by
//! id, copying none.
//!
//! # Example
//!
//! ```
//! use smart_posy::{VarPool, Monomial, Posynomial};
//!
//! let mut pool = VarPool::new();
//! let w1 = pool.var("W1");
//! let w2 = pool.var("W2");
//!
//! // delay ≈ 0.5/W1 + 0.8·W2/W1 + 0.2·W2
//! let delay = Posynomial::from(Monomial::new(0.5).pow(w1, -1.0))
//!     + Monomial::new(0.8).pow(w2, 1.0).pow(w1, -1.0)
//!     + Monomial::new(0.2).pow(w2, 1.0);
//!
//! let at = |v: &[f64]| delay.eval(v);
//! assert!((at(&[1.0, 1.0]) - 1.5).abs() < 1e-12);
//! assert_eq!(delay.terms().len(), 3);
//! ```
//!
//! [`smart-gp`]: ../smart_gp/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dictionary;
mod error;
mod logform;
mod monomial;
mod posynomial;
mod terms;
mod vars;
mod workspace;

pub use dictionary::TermDictionary;
pub use error::PosyError;
pub use logform::LogPosynomial;
pub use monomial::Monomial;
pub use posynomial::Posynomial;
pub use terms::{PosyView, TermId, TermSum, TermTable};
pub use vars::{VarId, VarPool};
pub use workspace::{packed_index, packed_len, GradHessWorkspace};
