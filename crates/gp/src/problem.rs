//! Geometric-program problem construction.

use smart_posy::{Monomial, Posynomial, VarId, VarPool};

use crate::GpError;

/// One inequality constraint `body ≤ 1` in normalized GP form, with a label
/// for diagnostics (SMART uses labels like `"path p12 rise"` so the designer
/// can see which timing constraint is binding).
#[derive(Debug, Clone)]
pub struct GpConstraint {
    /// Human-readable origin of the constraint.
    pub label: String,
    /// The posynomial body `f(x)`; the constraint is `f(x) ≤ 1`.
    pub body: Posynomial,
}

/// A geometric program in standard form:
///
/// ```text
/// minimize    f₀(x)              (posynomial)
/// subject to  fᵢ(x) ≤ 1, i=1..m  (posynomials)
///             x > 0
/// ```
///
/// Bounds and pinned variables are expressed as monomial constraints
/// (`x/ub ≤ 1`, `lb·x⁻¹ ≤ 1`), exactly how the SMART sizer encodes device
/// min/max size and designer-pinned sizes.
///
/// ```
/// use smart_posy::{Monomial, Posynomial, VarPool};
/// use smart_gp::GpProblem;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pool = VarPool::new();
/// let w = pool.var("W");
/// let mut gp = GpProblem::new(pool);
/// gp.set_objective(Posynomial::var(w));                 // minimize W
/// gp.add_le("delay", Posynomial::from(Monomial::new(2.0).pow(w, -1.0)),
///           Monomial::new(1.0))?;                       // 2/W <= 1
/// let sol = gp.solve(&Default::default())?;
/// assert!((sol.x[w.index()] - 2.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GpProblem {
    pool: VarPool,
    objective: Posynomial,
    constraints: Vec<GpConstraint>,
}

impl GpProblem {
    /// Creates a problem over the variables of `pool`.
    ///
    /// The pool may keep growing through [`GpProblem::pool_mut`] until
    /// [`GpProblem::solve`] is called.
    pub fn new(pool: VarPool) -> Self {
        GpProblem {
            pool,
            objective: Posynomial::constant(1.0),
            constraints: Vec::new(),
        }
    }

    /// The variable pool.
    pub fn pool(&self) -> &VarPool {
        &self.pool
    }

    /// Mutable access to the pool, for registering further variables.
    pub fn pool_mut(&mut self) -> &mut VarPool {
        &mut self.pool
    }

    /// Sets the posynomial objective to minimize.
    ///
    /// # Panics
    ///
    /// Panics if `objective` is the zero posynomial.
    pub fn set_objective(&mut self, objective: Posynomial) {
        assert!(!objective.is_zero(), "objective must be a nonzero posynomial");
        self.objective = objective;
    }

    /// The current objective.
    pub fn objective(&self) -> &Posynomial {
        &self.objective
    }

    /// The constraints added so far.
    pub fn constraints(&self) -> &[GpConstraint] {
        &self.constraints
    }

    /// Adds `lhs ≤ rhs` where `rhs` is a monomial; normalized internally to
    /// `lhs/rhs ≤ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::EmptyConstraint`] if `lhs` is the zero posynomial
    /// (such a constraint is vacuous and usually indicates a modeling bug).
    pub fn add_le(
        &mut self,
        label: impl Into<String>,
        lhs: Posynomial,
        rhs: Monomial,
    ) -> Result<(), GpError> {
        if lhs.is_zero() {
            return Err(GpError::EmptyConstraint { label: label.into() });
        }
        self.push_le(label.into(), lhs, rhs);
        Ok(())
    }

    /// Adds `lhs ≤ rhs` for a constant `rhs > 0`: the body is `lhs` with
    /// every coefficient multiplied by `1/rhs`, bit for bit what
    /// [`GpProblem::add_le`] builds against `Monomial::new(rhs)`, in one
    /// pass and without copying a term (dividing by a constant moves no
    /// exponent row, so nothing can merge). A non-finite or non-positive
    /// `rhs` is not rejected here; the solver's data validation reports
    /// the coefficients it produces.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::EmptyConstraint`] if `lhs` is the zero
    /// posynomial.
    pub fn add_le_const(
        &mut self,
        label: impl Into<String>,
        mut lhs: Posynomial,
        rhs: f64,
    ) -> Result<(), GpError> {
        if lhs.is_zero() {
            return Err(GpError::EmptyConstraint { label: label.into() });
        }
        let inv = 1.0 / rhs;
        lhs.map_coeffs(|_, c| c * inv);
        self.constraints.push(GpConstraint {
            label: label.into(),
            body: lhs,
        });
        Ok(())
    }

    /// Rewrites constraint `index` in place to `lhs ≤ rhs`, where `lhs` has
    /// the body's exponent rows and the coefficients `lhs_coeffs` in term
    /// order: coefficient `k` becomes `lhs_coeffs[k]·(1/rhs)`, the rounding
    /// of [`GpProblem::add_le_const`]. This is what lets the sizing loop
    /// retarget its timing constraints every Fig.-4 iteration without
    /// rebuilding a term.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `lhs_coeffs` does not hold one
    /// coefficient per term of the body.
    pub fn rescale_le(&mut self, index: usize, lhs_coeffs: &[f64], rhs: f64) {
        let body = &mut self.constraints[index].body;
        assert_eq!(body.terms().len(), lhs_coeffs.len(), "one coefficient per term");
        let inv = 1.0 / rhs;
        body.map_coeffs(|k, _| lhs_coeffs[k] * inv);
    }

    /// Infallible insertion for bodies that are nonzero by construction.
    fn push_le(&mut self, label: String, lhs: Posynomial, rhs: Monomial) {
        self.constraints.push(GpConstraint {
            label,
            body: lhs.div_monomial(&rhs),
        });
    }

    /// Adds an upper bound `x ≤ ub`.
    ///
    /// # Panics
    ///
    /// Panics if `ub` is not finite and strictly positive.
    pub fn add_upper_bound(&mut self, v: VarId, ub: f64) {
        let name = format!("{} <= {ub}", self.pool.name(v));
        self.push_le(name, Posynomial::var(v), Monomial::new(ub));
    }

    /// Adds a lower bound `x ≥ lb` (encoded `lb·x⁻¹ ≤ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `lb` is not finite and strictly positive.
    pub fn add_lower_bound(&mut self, v: VarId, lb: f64) {
        let name = format!("{} >= {lb}", self.pool.name(v));
        let body = Posynomial::from(Monomial::new(lb).pow(v, -1.0));
        self.push_le(name, body, Monomial::new(1.0));
    }

    /// Pins `x = value` (designer-controlled size, paper §2): both bounds at
    /// `value` with a small relative slack so the feasible set keeps an
    /// interior for the barrier method.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite and strictly positive.
    pub fn pin(&mut self, v: VarId, value: f64) {
        assert!(
            value.is_finite() && value > 0.0,
            "pinned size must be finite and > 0, got {value}"
        );
        const SLACK: f64 = 1.0 + 1e-6;
        self.add_upper_bound(v, value * SLACK);
        self.add_lower_bound(v, value / SLACK);
    }

    /// Number of optimization variables.
    pub fn dim(&self) -> usize {
        self.pool.len()
    }

    /// A copy of the problem with the constraints at the given indices
    /// removed (out-of-range and duplicate indices are ignored). The pool,
    /// objective, and surviving constraints — bodies, labels, relative
    /// order — are untouched, so solving the copy is exactly solving the
    /// original minus the dropped rows. This is the static-audit pruning
    /// hook: the audit proves a constraint redundant, this drops it.
    #[must_use]
    pub fn without_constraints(&self, drop: &[usize]) -> GpProblem {
        let drop: std::collections::HashSet<usize> = drop.iter().copied().collect();
        GpProblem {
            pool: self.pool.clone(),
            objective: self.objective.clone(),
            constraints: self
                .constraints
                .iter()
                .enumerate()
                .filter(|(i, _)| !drop.contains(i))
                .map(|(_, c)| c.clone())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_constraint_is_rejected() {
        let mut pool = VarPool::new();
        let _ = pool.var("w");
        let mut gp = GpProblem::new(pool);
        let err = gp
            .add_le("empty", Posynomial::zero(), Monomial::one())
            .unwrap_err();
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn normalization_divides_by_rhs() {
        let mut pool = VarPool::new();
        let w = pool.var("w");
        let mut gp = GpProblem::new(pool);
        gp.add_le("c", Posynomial::var(w), Monomial::new(4.0))
            .unwrap();
        let body = &gp.constraints()[0].body;
        // x/4 at x=4 is exactly 1.
        assert!((body.eval(&[4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_rhs_and_rescale_match_add_le_bit_for_bit() {
        let mut pool = VarPool::new();
        let w = pool.var("w");
        let lhs = Posynomial::var(w) + Monomial::new(0.7).pow(w, -1.0) + Monomial::new(0.3);
        let mut gp = GpProblem::new(pool);
        gp.add_le("monomial", lhs.clone(), Monomial::new(3.7)).unwrap();
        gp.add_le_const("const", lhs.clone(), 3.7).unwrap();
        gp.add_le("other", lhs.clone(), Monomial::new(1.3)).unwrap();
        assert_eq!(gp.constraints()[0].body, gp.constraints()[1].body);
        let coeffs: Vec<f64> = lhs.terms().iter().map(Monomial::coeff).collect();
        gp.rescale_le(1, &coeffs, 1.3);
        assert_eq!(gp.constraints()[1].body, gp.constraints()[2].body);
        assert!(gp.add_le_const("empty", Posynomial::zero(), 1.0).is_err());
    }

    #[test]
    fn pin_creates_two_constraints() {
        let mut pool = VarPool::new();
        let w = pool.var("w");
        let mut gp = GpProblem::new(pool);
        gp.pin(w, 3.0);
        assert_eq!(gp.constraints().len(), 2);
        // x=3 is strictly inside both.
        for c in gp.constraints() {
            assert!(c.body.eval(&[3.0]) < 1.0);
        }
    }
}
