//! Monomials: `c · ∏ xᵢ^aᵢ` with `c > 0`.

use std::fmt;
use std::ops::{Div, Mul};

use crate::{PosyError, VarId};

/// Tolerance under which exponents are treated as zero and dropped.
const EXP_EPS: f64 = 1e-12;

/// One `(variable, exponent)` entry of an exponent row.
type Entry = (VarId, f64);

/// Adds `e` to the exponent of `v` in the sorted `row`, dropping the entry
/// when the sum is (numerically) zero. The one exponent rule every product
/// — [`Monomial::pow`], `Monomial * Monomial`, [`mul_rows`] — goes through.
fn add_exponent(row: &mut Vec<Entry>, v: VarId, e: f64) {
    match row.binary_search_by_key(&v, |&(w, _)| w) {
        Ok(i) => {
            row[i].1 += e;
            if row[i].1.abs() < EXP_EPS {
                row.remove(i);
            }
        }
        Err(i) if e.abs() >= EXP_EPS => row.insert(i, (v, e)),
        Err(_) => {}
    }
}

/// Writes the exponent row of `a · b` into `out` (cleared first): the row
/// a `Monomial` product with those rows would carry, bit for bit. Reuses
/// `out`'s capacity, so interning builders multiply rows without
/// allocating.
pub(crate) fn mul_rows(a: &[Entry], b: &[Entry], out: &mut Vec<Entry>) {
    out.clear();
    out.extend_from_slice(a);
    for &(v, e) in b {
        add_exponent(out, v, e);
    }
}

/// The coefficient of a term after merging `m` into an exponent-identical
/// term of coefficient `c`: `c·((c+m)/c)`. Every builder merges through
/// this one expression, so merges made in the same order give the same
/// bits whichever builder made them.
pub(crate) fn merge_coeff(c: f64, m: f64) -> f64 {
    c * ((c + m) / c)
}

/// Evaluates the term `coeff · ∏ xᵥ^e` over the sorted `row` at `x`: the
/// one evaluation every monomial and stored posynomial term goes through.
pub(crate) fn eval_row(coeff: f64, row: &[Entry], x: &[f64]) -> Result<f64, PosyError> {
    let needed = row.last().map_or(0, |(v, _)| v.index() + 1);
    if x.len() < needed {
        return Err(PosyError::PointTooShort {
            needed,
            got: x.len(),
        });
    }
    let mut acc = coeff;
    for &(v, e) in row {
        let xi = x[v.index()];
        if !(xi.is_finite() && xi > 0.0) {
            return Err(PosyError::NonPositivePoint {
                index: v.index(),
                value: xi,
            });
        }
        acc *= xi.powf(e);
    }
    Ok(acc)
}

/// A monomial `c · x₁^a₁ · x₂^a₂ · …` with strictly positive coefficient.
///
/// Exponents may be any finite real number (negative exponents are how
/// `delay ∝ C/W` terms arise). Monomials form a group under multiplication
/// and are the only expressions that may appear on the right-hand side of a
/// GP constraint or as a GP equality.
///
/// ```
/// use smart_posy::{Monomial, VarPool};
/// let mut pool = VarPool::new();
/// let w = pool.var("W");
/// let c = pool.var("C");
/// // 0.69 · C / W
/// let m = Monomial::new(0.69).pow(c, 1.0).pow(w, -1.0);
/// assert!((m.eval(&[2.0, 3.0]) - 0.69 * 3.0 / 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Monomial {
    pub(crate) coeff: f64,
    /// Non-zero exponents, sorted by variable.
    exps: Vec<Entry>,
}

impl Monomial {
    /// Creates the constant monomial `coeff`.
    ///
    /// # Panics
    ///
    /// Panics if `coeff` is not finite and strictly positive — use
    /// [`Monomial::try_new`] for a fallible variant.
    #[allow(clippy::expect_used)] // documented contract panic; try_ variant exists
    pub fn new(coeff: f64) -> Self {
        Self::try_new(coeff).expect("monomial coefficient must be finite and > 0")
    }

    /// Fallible constructor; see [`Monomial::new`].
    ///
    /// # Errors
    ///
    /// Returns [`PosyError::BadCoefficient`] if `coeff` is not finite and
    /// strictly positive.
    pub fn try_new(coeff: f64) -> Result<Self, PosyError> {
        if !(coeff.is_finite() && coeff > 0.0) {
            return Err(PosyError::BadCoefficient { value: coeff });
        }
        Ok(Monomial {
            coeff,
            exps: Vec::new(),
        })
    }

    /// The constant monomial `1`.
    pub fn one() -> Self {
        Monomial::new(1.0)
    }

    /// A bare variable `x` (coefficient 1, exponent 1).
    pub fn var(v: VarId) -> Self {
        Monomial::one().pow(v, 1.0)
    }

    /// Multiplies in a factor `v^e`, merging with an existing exponent on `v`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not finite.
    #[must_use]
    pub fn pow(mut self, v: VarId, e: f64) -> Self {
        assert!(e.is_finite(), "monomial exponent must be finite, got {e}");
        add_exponent(&mut self.exps, v, e);
        self
    }

    /// The positive coefficient `c`.
    pub fn coeff(&self) -> f64 {
        self.coeff
    }

    /// Exponent of variable `v` (zero if absent).
    pub fn exponent(&self, v: VarId) -> f64 {
        self.exps
            .binary_search_by_key(&v, |&(w, _)| w)
            .map_or(0.0, |i| self.exps[i].1)
    }

    /// Iterates over `(variable, exponent)` pairs with non-zero exponents, in
    /// variable order.
    pub fn exponents(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.exps.iter().copied()
    }

    /// Evaluates at the strictly positive point `x` (indexed by
    /// [`VarId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if `x` is too short or contains a non-positive coordinate; use
    /// [`Monomial::try_eval`] for a fallible variant.
    #[allow(clippy::expect_used)] // documented contract panic; try_ variant exists
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.try_eval(x).expect("invalid evaluation point")
    }

    /// Fallible evaluation; see [`Monomial::eval`].
    ///
    /// # Errors
    ///
    /// Returns [`PosyError::PointTooShort`] or [`PosyError::NonPositivePoint`]
    /// for invalid points.
    pub fn try_eval(&self, x: &[f64]) -> Result<f64, PosyError> {
        eval_row(self.coeff, &self.exps, x)
    }

    /// Multiplicative inverse `1 / m` (negate every exponent, invert the
    /// coefficient).
    #[must_use]
    pub fn recip(&self) -> Self {
        Monomial {
            coeff: 1.0 / self.coeff,
            exps: self.exps.iter().map(|&(v, e)| (v, -e)).collect(),
        }
    }

    /// Raises the whole monomial to the real power `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not finite.
    #[must_use]
    pub fn powf(&self, p: f64) -> Self {
        assert!(p.is_finite(), "power must be finite, got {p}");
        Monomial {
            coeff: self.coeff.powf(p),
            exps: self
                .exps
                .iter()
                .map(|&(v, e)| (v, e * p))
                .filter(|&(_, e)| e.abs() >= EXP_EPS)
                .collect(),
        }
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.coeff)?;
        for (v, e) in self.exponents() {
            if (e - 1.0).abs() < EXP_EPS {
                write!(f, "·{v}")?;
            } else {
                write!(f, "·{v}^{e}")?;
            }
        }
        Ok(())
    }
}

impl Mul for Monomial {
    type Output = Monomial;
    fn mul(mut self, rhs: Monomial) -> Monomial {
        self.coeff *= rhs.coeff;
        for (v, e) in rhs.exps {
            add_exponent(&mut self.exps, v, e);
        }
        self
    }
}

impl Mul<&Monomial> for &Monomial {
    type Output = Monomial;
    fn mul(self, rhs: &Monomial) -> Monomial {
        self.clone() * rhs.clone()
    }
}

impl Div for Monomial {
    type Output = Monomial;
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS mul-by-reciprocal here
    fn div(self, rhs: Monomial) -> Monomial {
        self * rhs.recip()
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
    fn constant_eval() {
        let m = Monomial::new(2.5);
        assert_eq!(m.eval(&[]), 2.5);
        assert!(m.exponents().next().is_none());
    }

    #[test]
    fn rejects_bad_coefficients() {
        assert!(Monomial::try_new(0.0).is_err());
        assert!(Monomial::try_new(-3.0).is_err());
        assert!(Monomial::try_new(f64::NAN).is_err());
        assert!(Monomial::try_new(f64::INFINITY).is_err());
    }

    #[test]
    fn pow_merges_and_cancels() {
        let (_, a, _) = vars();
        let m = Monomial::new(1.0).pow(a, 2.0).pow(a, -2.0);
        assert!(m.exponents().next().is_none());
        let m = Monomial::new(1.0).pow(a, 1.5).pow(a, 0.5);
        assert_eq!(m.exponent(a), 2.0);
    }

    #[test]
    fn eval_with_negative_exponents() {
        let (_, a, b) = vars();
        let m = Monomial::new(3.0).pow(a, -1.0).pow(b, 2.0);
        let got = m.eval(&[2.0, 4.0]);
        assert!((got - 3.0 / 2.0 * 16.0).abs() < 1e-12);
    }

    #[test]
    fn eval_rejects_nonpositive_points() {
        let (_, a, _) = vars();
        let m = Monomial::var(a);
        assert!(matches!(
            m.try_eval(&[0.0]),
            Err(PosyError::NonPositivePoint { index: 0, .. })
        ));
        assert!(matches!(
            m.try_eval(&[-1.0, 2.0]),
            Err(PosyError::NonPositivePoint { index: 0, .. })
        ));
        assert!(matches!(
            m.try_eval(&[]),
            Err(PosyError::PointTooShort { needed: 1, got: 0 })
        ));
    }

    #[test]
    fn mul_div_roundtrip() {
        let (_, a, b) = vars();
        let m = Monomial::new(2.0).pow(a, 1.0).pow(b, -0.5);
        let n = Monomial::new(4.0).pow(b, 0.5);
        let p = m.clone() * n.clone();
        assert!((p.coeff() - 8.0).abs() < 1e-12);
        assert_eq!(p.exponent(b), 0.0);
        let q = p / n;
        assert!((q.coeff() - m.coeff()).abs() < 1e-12);
        assert_eq!(q.exponent(a), 1.0);
        assert_eq!(q.exponent(b), -0.5);
    }

    #[test]
    fn recip_inverts_eval() {
        let (_, a, b) = vars();
        let m = Monomial::new(5.0).pow(a, 2.0).pow(b, -1.0);
        let x = [1.7, 0.3];
        assert!((m.eval(&x) * m.recip().eval(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn powf_matches_eval() {
        let (_, a, _) = vars();
        let m = Monomial::new(2.0).pow(a, 3.0);
        let x = [1.3];
        assert!((m.powf(0.5).eval(&x) - m.eval(&x).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mul_rows_matches_monomial_product() {
        let (_, a, b) = vars();
        let m = Monomial::new(2.0).pow(a, 1.0).pow(b, -1.0);
        let n = Monomial::new(3.0).pow(b, 1.0);
        let mut row = Vec::new();
        mul_rows(&m.exps, &n.exps, &mut row);
        assert_eq!(row, (m * n).exps);
        assert_eq!(row, vec![(a, 1.0)]);
    }
}
