//! Geometric-program problem construction.

use std::ops::Range;

use smart_posy::{
    LogPosynomial, Monomial, PosyView, Posynomial, TermId, TermTable, VarId, VarPool,
};

use crate::GpError;

/// One inequality constraint `body ≤ 1` in normalized GP form, with a label
/// for diagnostics (SMART uses labels like `"path p12 rise"` so the designer
/// can see which timing constraint is binding). The body is stored in the
/// problem; [`GpProblem::body`] reads it.
#[derive(Debug, Clone)]
pub struct GpConstraint {
    /// Human-readable origin of the constraint.
    pub label: String,
    /// The body's terms in the problem's term list.
    terms: Range<usize>,
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
/// Every exponent row of the problem is interned once in its
/// [`TermTable`], and the objective and every constraint body are stored
/// as `(TermId, coefficient)` pairs over it. The solver's log form reads
/// the rows by id, and its term dictionary tells terms apart by id.
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
/// let c = &gp.constraints()[0];
/// assert_eq!(gp.body(c).eval(&sol.x), 2.0 / sol.x[w.index()]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GpProblem {
    pool: VarPool,
    table: TermTable,
    objective: Vec<(TermId, f64)>,
    /// Every constraint body back to back, in constraint order.
    terms: Vec<(TermId, f64)>,
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
            table: TermTable::new(),
            objective: vec![(TermId::ONE, 1.0)],
            terms: Vec::new(),
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

    /// The table every row of the problem is interned in.
    pub fn table(&self) -> &TermTable {
        &self.table
    }

    /// Mutable access to the table, for interning the rows of bodies
    /// added with [`GpProblem::add_le_terms`]. Interning only appends, so
    /// the stored bodies keep their rows.
    pub fn table_mut(&mut self) -> &mut TermTable {
        &mut self.table
    }

    /// `p`'s terms, each monomial's row interned in the table.
    fn intern(&mut self, p: &Posynomial) -> Vec<(TermId, f64)> {
        p.terms()
            .iter()
            .map(|m| (self.table.intern(m), m.coeff()))
            .collect()
    }

    /// Sets the posynomial objective to minimize.
    ///
    /// # Panics
    ///
    /// Panics if `objective` is the zero posynomial.
    pub fn set_objective(&mut self, objective: Posynomial) {
        let objective = self.intern(&objective);
        self.set_objective_terms(&objective);
    }

    /// [`GpProblem::set_objective`] for terms already interned in
    /// [`GpProblem::table_mut`].
    ///
    /// # Panics
    ///
    /// Panics if `objective` has no term.
    pub fn set_objective_terms(&mut self, objective: &[(TermId, f64)]) {
        assert!(
            !objective.is_empty(),
            "objective must be a nonzero posynomial"
        );
        self.objective = objective.to_vec();
    }

    /// The current objective.
    pub fn objective(&self) -> PosyView<'_> {
        self.table.view(&self.objective)
    }

    /// The constraints added so far.
    pub fn constraints(&self) -> &[GpConstraint] {
        &self.constraints
    }

    /// The body of `c`, a constraint of this problem.
    pub fn body(&self, c: &GpConstraint) -> PosyView<'_> {
        self.table.view(&self.terms[c.terms.clone()])
    }

    /// The objective and every constraint body in log form, objective
    /// first: the posynomials the solver sweeps, in its slot order. Each
    /// borrows the problem's table and reads its rows from it by id.
    ///
    /// # Panics
    ///
    /// Panics if the problem has more than `u32::MAX` variables.
    pub fn log_form(&self) -> Vec<LogPosynomial<'_>> {
        let dim = self.dim();
        std::iter::once(&self.objective[..])
            .chain(
                self.constraints
                    .iter()
                    .map(|c| &self.terms[c.terms.clone()]),
            )
            .map(|terms| LogPosynomial::new(&self.table, terms, dim))
            .collect()
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
        self.add_le_const(label, lhs.div_monomial(&rhs), 1.0)
    }

    /// Adds `lhs ≤ rhs` for a constant `rhs > 0`: the body is `lhs` with
    /// every coefficient multiplied by `1/rhs`, bit for bit what
    /// [`GpProblem::add_le`] builds against `Monomial::new(rhs)` (dividing
    /// by a constant moves no exponent row, so nothing can merge). A
    /// non-finite or non-positive `rhs` is not rejected here; the solver's
    /// data validation reports the coefficients it produces.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::EmptyConstraint`] if `lhs` is the zero
    /// posynomial.
    pub fn add_le_const(
        &mut self,
        label: impl Into<String>,
        lhs: Posynomial,
        rhs: f64,
    ) -> Result<(), GpError> {
        let lhs = self.intern(&lhs);
        self.add_le_terms(label, &lhs, rhs)
    }

    /// [`GpProblem::add_le_const`] for a `lhs` already interned in
    /// [`GpProblem::table_mut`], as distinct-id `(TermId, coefficient)`
    /// pairs: the body is written without building a monomial.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::EmptyConstraint`] if `lhs` has no term.
    pub fn add_le_terms(
        &mut self,
        label: impl Into<String>,
        lhs: &[(TermId, f64)],
        rhs: f64,
    ) -> Result<(), GpError> {
        if lhs.is_empty() {
            return Err(GpError::EmptyConstraint {
                label: label.into(),
            });
        }
        self.push_body(label.into(), lhs, rhs);
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
        let body = &mut self.terms[self.constraints[index].terms.clone()];
        assert_eq!(body.len(), lhs_coeffs.len(), "one coefficient per term");
        let inv = 1.0 / rhs;
        for ((_, c), &l) in body.iter_mut().zip(lhs_coeffs) {
            *c = l * inv;
        }
    }

    /// Appends the constraint `lhs·(1/rhs) ≤ 1`.
    fn push_body(&mut self, label: String, lhs: &[(TermId, f64)], rhs: f64) {
        let inv = 1.0 / rhs;
        let start = self.terms.len();
        self.terms.extend(lhs.iter().map(|&(id, c)| (id, c * inv)));
        self.constraints.push(GpConstraint {
            label,
            terms: start..self.terms.len(),
        });
    }

    /// Adds an upper bound `x ≤ ub` (encoded `(1/ub)·x ≤ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `ub` is not finite and strictly positive.
    pub fn add_upper_bound(&mut self, v: VarId, ub: f64) {
        assert!(
            ub.is_finite() && ub > 0.0,
            "upper bound must be finite and > 0, got {ub}"
        );
        let name = format!("{} <= {ub}", self.pool.name(v));
        let row = self.table.var(v, 1.0);
        self.push_body(name, &[(row, 1.0)], ub);
    }

    /// Adds a lower bound `x ≥ lb` (encoded `lb·x⁻¹ ≤ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `lb` is not finite and strictly positive.
    pub fn add_lower_bound(&mut self, v: VarId, lb: f64) {
        assert!(
            lb.is_finite() && lb > 0.0,
            "lower bound must be finite and > 0, got {lb}"
        );
        let name = format!("{} >= {lb}", self.pool.name(v));
        let row = self.table.var(v, -1.0);
        self.push_body(name, &[(row, lb)], 1.0);
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
    /// table, objective, and surviving constraints — bodies, labels,
    /// relative order — are untouched, so solving the copy is exactly
    /// solving the original minus the dropped rows. This is the
    /// static-audit pruning hook: the audit proves a constraint redundant,
    /// this drops it.
    #[must_use]
    pub fn without_constraints(&self, drop: &[usize]) -> GpProblem {
        let drop: std::collections::HashSet<usize> = drop.iter().copied().collect();
        let mut kept = GpProblem {
            pool: self.pool.clone(),
            table: self.table.clone(),
            objective: self.objective.clone(),
            terms: Vec::new(),
            constraints: Vec::new(),
        };
        for (i, c) in self.constraints.iter().enumerate() {
            if !drop.contains(&i) {
                kept.push_body(c.label.clone(), &self.terms[c.terms.clone()], 1.0);
            }
        }
        kept
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
        let body = gp.body(&gp.constraints()[0]);
        // x/4 at x=4 is exactly 1.
        assert!((body.eval(&[4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_rhs_and_rescale_match_add_le_bit_for_bit() {
        let mut pool = VarPool::new();
        let w = pool.var("w");
        let lhs = Posynomial::var(w) + Monomial::new(0.7).pow(w, -1.0) + Monomial::new(0.3);
        let mut gp = GpProblem::new(pool);
        gp.add_le("monomial", lhs.clone(), Monomial::new(3.7))
            .unwrap();
        gp.add_le_const("const", lhs.clone(), 3.7).unwrap();
        gp.add_le("other", lhs.clone(), Monomial::new(1.3)).unwrap();
        let bits = |gp: &GpProblem, i: usize| -> Vec<(TermId, u64)> {
            let body = gp.body(&gp.constraints()[i]);
            body.terms()
                .iter()
                .map(|&(id, c)| (id, c.to_bits()))
                .collect()
        };
        assert_eq!(bits(&gp, 0), bits(&gp, 1));
        let coeffs: Vec<f64> = lhs.terms().iter().map(Monomial::coeff).collect();
        gp.rescale_le(1, &coeffs, 1.3);
        assert_eq!(bits(&gp, 1), bits(&gp, 2));
        assert!(gp.add_le_const("empty", Posynomial::zero(), 1.0).is_err());
        assert!(gp.add_le_terms("empty", &[], 1.0).is_err());

        // Every row was interned once: `w`, `1/w` and the constant.
        assert_eq!(gp.table().row_count(), 3);
        let pruned = gp.without_constraints(&[0, 7]);
        assert_eq!(pruned.constraints().len(), 2);
        assert_eq!(bits(&pruned, 0), bits(&gp, 1));
        assert_eq!(pruned.constraints()[1].label, "other");
    }

    #[test]
    fn bounds_match_their_monomial_constraints_bit_for_bit() {
        let mut pool = VarPool::new();
        let w = pool.var("w");
        let mut gp = GpProblem::new(pool);
        gp.add_upper_bound(w, 3.7);
        gp.add_le("ub", Posynomial::var(w), Monomial::new(3.7))
            .unwrap();
        gp.add_lower_bound(w, 0.3);
        gp.add_le(
            "lb",
            Posynomial::from(Monomial::new(0.3).pow(w, -1.0)),
            Monomial::one(),
        )
        .unwrap();
        let c = gp.constraints();
        for (a, b) in [(0, 1), (2, 3)] {
            let (a, b) = (gp.body(&c[a]).terms(), gp.body(&c[b]).terms());
            assert_eq!(a[0].0, b[0].0);
            assert_eq!(a[0].1.to_bits(), b[0].1.to_bits());
        }
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
            assert!(gp.body(c).eval(&[3.0]) < 1.0);
        }
    }
}
