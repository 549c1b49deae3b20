//! Posynomials: sums of monomials with positive coefficients.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul};

use crate::monomial::merge_coeff;
use crate::{Monomial, PosyError, VarId};

/// A posynomial `Σₖ cₖ · ∏ xᵢ^aᵢₖ`, the modeling currency of the SMART sizer.
///
/// Construction keeps the term list *normalized*: monomials with identical
/// exponent rows (exact equality, no tolerance) are merged by summing their
/// coefficients, so structural equality is meaningful for normalized inputs
/// and term counts reflect the true GP problem size.
///
/// ```
/// use smart_posy::{Monomial, Posynomial, VarPool};
/// let mut pool = VarPool::new();
/// let w = pool.var("W");
/// let p = Posynomial::from(Monomial::new(1.0).pow(w, 1.0))
///     + Monomial::new(2.0).pow(w, 1.0); // merges into 3·W
/// assert_eq!(p.terms().len(), 1);
/// assert!((p.eval(&[2.0]) - 6.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Posynomial {
    terms: Vec<Monomial>,
}

impl Posynomial {
    /// The zero posynomial (empty sum).
    ///
    /// Zero is the additive identity but is *not* itself a valid GP
    /// constraint body; [`Posynomial::is_zero`] lets flows check before
    /// emitting constraints.
    pub fn zero() -> Self {
        Posynomial { terms: Vec::new() }
    }

    /// The constant posynomial `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not finite and strictly positive.
    pub fn constant(c: f64) -> Self {
        Posynomial::from(Monomial::new(c))
    }

    /// A bare variable `x` as a posynomial.
    pub fn var(v: VarId) -> Self {
        Posynomial::from(Monomial::var(v))
    }

    /// The normalized term list.
    pub fn terms(&self) -> &[Monomial] {
        &self.terms
    }

    /// Whether this is the empty sum.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether this posynomial is a single monomial (required for GP
    /// equality constraints and constraint right-hand sides).
    pub fn as_monomial(&self) -> Option<&Monomial> {
        match self.terms.as_slice() {
            [m] => Some(m),
            _ => None,
        }
    }

    /// Evaluates at the strictly positive point `x`.
    ///
    /// # Panics
    ///
    /// Panics on invalid points; see [`Posynomial::try_eval`].
    #[allow(clippy::expect_used)] // documented contract panic; try_ variant exists
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.try_eval(x).expect("invalid evaluation point")
    }

    /// Fallible evaluation.
    ///
    /// # Errors
    ///
    /// Returns the first [`PosyError`] raised by a term.
    pub fn try_eval(&self, x: &[f64]) -> Result<f64, PosyError> {
        let mut acc = 0.0;
        for t in &self.terms {
            acc += t.try_eval(x)?;
        }
        Ok(acc)
    }

    /// Divides by a monomial (posynomials are closed under this), yielding
    /// the normalized-constraint body `self / rhs`.
    #[must_use]
    pub fn div_monomial(&self, rhs: &Monomial) -> Self {
        let inv = rhs.recip();
        let mut out = Posynomial::zero();
        for t in &self.terms {
            out.push(t * &inv);
        }
        out
    }

    /// Adds a monomial term, merging it into the term with the identical
    /// exponent row if there is one.
    pub fn push(&mut self, m: Monomial) {
        match self
            .terms
            .iter_mut()
            .find(|t| t.exponents().eq(m.exponents()))
        {
            Some(t) => t.coeff = merge_coeff(t.coeff, m.coeff),
            None => self.terms.push(m),
        }
    }
}

impl From<Monomial> for Posynomial {
    fn from(m: Monomial) -> Self {
        Posynomial { terms: vec![m] }
    }
}

impl fmt::Display for Posynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl Add for Posynomial {
    type Output = Posynomial;
    fn add(mut self, rhs: Posynomial) -> Posynomial {
        for t in rhs.terms {
            self.push(t);
        }
        self
    }
}

impl Add<Monomial> for Posynomial {
    type Output = Posynomial;
    fn add(mut self, rhs: Monomial) -> Posynomial {
        self.push(rhs);
        self
    }
}

impl AddAssign for Posynomial {
    fn add_assign(&mut self, rhs: Posynomial) {
        for t in rhs.terms {
            self.push(t);
        }
    }
}

impl AddAssign<Monomial> for Posynomial {
    fn add_assign(&mut self, rhs: Monomial) {
        self.push(rhs);
    }
}

impl Mul for Posynomial {
    type Output = Posynomial;
    fn mul(self, rhs: Posynomial) -> Posynomial {
        let mut out = Posynomial::zero();
        for a in &self.terms {
            for b in &rhs.terms {
                out.push(a * b);
            }
        }
        out
    }
}

impl Mul<Monomial> for Posynomial {
    type Output = Posynomial;
    fn mul(self, rhs: Monomial) -> Posynomial {
        let mut out = Posynomial::zero();
        for a in &self.terms {
            out.push(a * &rhs);
        }
        out
    }
}

impl Div<Monomial> for Posynomial {
    type Output = Posynomial;
    fn div(self, rhs: Monomial) -> Posynomial {
        self.div_monomial(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarPool;

    fn vars() -> (VarPool, VarId, VarId) {
        let mut pool = VarPool::new();
        let a = pool.var("a");
        let b = pool.var("b");
        (pool, a, b)
    }

    #[test]
    fn zero_is_identity() {
        let (_, a, _) = vars();
        let p = Posynomial::var(a);
        let q = Posynomial::zero() + p.clone();
        assert_eq!(p, q);
        assert!(Posynomial::zero().is_zero());
        assert_eq!(Posynomial::zero().eval(&[]), 0.0);
    }

    #[test]
    fn like_terms_merge() {
        let (_, a, b) = vars();
        let p = Posynomial::from(Monomial::new(1.0).pow(a, 1.0).pow(b, -1.0))
            + Monomial::new(2.0).pow(b, -1.0).pow(a, 1.0)
            + Monomial::new(1.0).pow(a, 1.0);
        assert_eq!(p.terms().len(), 2);
        assert!((p.eval(&[3.0, 2.0]) - (3.0 * 3.0 / 2.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn multiplication_distributes() {
        let (_, a, b) = vars();
        let p = Posynomial::var(a) + Monomial::new(2.0);
        let q = Posynomial::var(b) + Monomial::new(3.0);
        let prod = p.clone() * q.clone();
        let x = [1.7, 0.4];
        assert!((prod.eval(&x) - p.eval(&x) * q.eval(&x)).abs() < 1e-12);
        assert_eq!(prod.terms().len(), 4);
    }

    #[test]
    fn div_monomial_matches_eval() {
        let (_, a, b) = vars();
        let p = Posynomial::var(a) + Monomial::new(4.0).pow(b, 2.0);
        let m = Monomial::new(2.0).pow(a, 1.0);
        let q = p.div_monomial(&m);
        let x = [0.9, 1.1];
        assert!((q.eval(&x) - p.eval(&x) / m.eval(&x)).abs() < 1e-12);
    }

    #[test]
    fn as_monomial_only_for_single_terms() {
        let (_, a, b) = vars();
        assert!(Posynomial::var(a).as_monomial().is_some());
        let p = Posynomial::var(a) + Monomial::var(b);
        assert!(p.as_monomial().is_none());
        assert!(Posynomial::zero().as_monomial().is_none());
    }

    #[test]
    fn merging_needs_an_exactly_equal_row() {
        let (_, a, _) = vars();
        let near = 1.0 + f64::EPSILON;
        let p = Posynomial::var(a) + Monomial::new(1.0).pow(a, near) + Monomial::var(a);
        assert_eq!(p.terms().len(), 2);
        assert_eq!(p.terms()[0].coeff(), 2.0);
    }

    #[test]
    fn display_zero_nonempty() {
        assert_eq!(Posynomial::zero().to_string(), "0");
    }
}
