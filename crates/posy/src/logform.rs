//! Log-space form of a posynomial: the convex `log-sum-exp` view.
//!
//! Under `y = log x`, a posynomial `f(x) = Σₖ cₖ ∏ xᵢ^aᵢₖ` becomes
//! `F(y) = log Σₖ exp(aₖ·y + bₖ)` with `bₖ = log cₖ`, which is convex.
//! The GP solver works exclusively on this form; this module provides the
//! conversion plus value/gradient/Hessian evaluation.

use crate::workspace::GradHessWorkspace;
use crate::{PosyView, TermId};

/// One entry of a term's exponent row: exponent `e` of variable `var`,
/// which sits in slot `slot` of the posynomial's support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RowEntry {
    /// Index into [`LogPosynomial::support`].
    slot: u32,
    /// Dense variable index (`support[slot]`), kept beside the slot so the
    /// exponent dot gathers `y` without a second indirection.
    pub(crate) var: u32,
    pub(crate) exp: f64,
}

/// The exponent dot `a·y + b` of the term with offset `b` and row `a`.
/// Every sweep computes its dots through here, so a term shared by
/// several posynomials gets the same bits wherever it is evaluated.
#[inline]
pub(crate) fn term_dot(offset: f64, row: &[RowEntry], y: &[f64]) -> f64 {
    offset + row.iter().map(|r| r.exp * y[r.var as usize]).sum::<f64>()
}

/// A posynomial converted to log-space, ready for convex optimization.
///
/// Evaluation computes `F(y) = log Σ exp(aₖ·y + bₖ)` with the usual
/// max-shift for numerical stability, and optionally its gradient and
/// Hessian with respect to `y`.
///
/// ```
/// use smart_posy::{LogPosynomial, TermId, TermTable, VarPool};
/// let mut pool = VarPool::new();
/// let w = pool.var("W");
/// let mut table = TermTable::new();
/// let terms = [(table.var(w, 1.0), 2.0), (TermId::ONE, 3.0)]; // 2·W + 3
/// let lp = LogPosynomial::new(table.view(&terms), pool.len());
/// let y = [0.0]; // x = 1
/// assert!((lp.value(&y) - 5f64.ln()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogPosynomial {
    dim: usize,
    /// Sorted, deduplicated variable indices this posynomial touches.
    support: Vec<usize>,
    /// Table id of each term's row.
    ids: Vec<TermId>,
    /// Offset `bₖ = log cₖ` of each term.
    offsets: Vec<f64>,
    /// Per-term exponent rows, flattened; term `k` owns
    /// `rows[row_bounds[k]..row_bounds[k+1]]`. The sparse evaluator
    /// scatters through the slots so a constraint of support `s` costs
    /// O(s²) regardless of the ambient dimension.
    rows: Vec<RowEntry>,
    row_bounds: Vec<u32>,
}

impl LogPosynomial {
    /// Converts the stored posynomial `p` for a problem with `dim`
    /// variables, reading each term's row from `p`'s table by id.
    ///
    /// # Panics
    ///
    /// Panics if `p` has no term (log of zero is undefined), if `p`
    /// references a variable with index `>= dim`, or if `dim` exceeds
    /// `u32::MAX` (exponent rows index variables as `u32`).
    pub fn new(p: PosyView<'_>, dim: usize) -> Self {
        assert!(!p.terms().is_empty(), "cannot take the log-form of the zero posynomial");
        assert!(
            u32::try_from(dim).is_ok(),
            "dimension {dim} exceeds u32 indices"
        );
        let mut support: Vec<usize> = p
            .terms()
            .iter()
            .flat_map(|&(id, _)| p.row(id).iter().map(|(v, _)| v.index()))
            .collect();
        support.sort_unstable();
        support.dedup();
        if let Some(&last) = support.last() {
            assert!(
                last < dim,
                "posynomial uses variable index {last} but problem has {dim} variables"
            );
        }
        let mut ids = Vec::with_capacity(p.terms().len());
        let mut offsets = Vec::with_capacity(p.terms().len());
        let mut rows = Vec::new();
        let mut row_bounds = Vec::with_capacity(p.terms().len() + 1);
        row_bounds.push(0u32);
        for &(id, c) in p.terms() {
            ids.push(id);
            offsets.push(c.ln());
            for &(v, exp) in p.row(id) {
                // The index is present by construction; partition_point
                // avoids an unwrap on binary_search's Result.
                let slot = support.partition_point(|&i| i < v.index());
                debug_assert_eq!(support[slot], v.index());
                rows.push(RowEntry {
                    slot: slot as u32,
                    var: v.index() as u32,
                    exp,
                });
            }
            row_bounds.push(rows.len() as u32);
        }
        LogPosynomial {
            dim,
            support,
            ids,
            offsets,
            rows,
            row_bounds,
        }
    }

    /// Number of optimization variables of the ambient problem.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of exponentiated-affine terms `exp(aₖ·y + bₖ)`.
    pub fn term_count(&self) -> usize {
        self.offsets.len()
    }

    /// Dense variable indices referenced by this posynomial, sorted
    /// ascending and deduplicated. Precomputed at construction — a borrow,
    /// never a fresh allocation.
    pub fn support(&self) -> &[usize] {
        &self.support
    }

    /// Term `k`'s exponent row.
    #[inline]
    pub(crate) fn row(&self, k: usize) -> &[RowEntry] {
        &self.rows[self.row_bounds[k] as usize..self.row_bounds[k + 1] as usize]
    }

    /// Term `k`'s row id in the table the posynomial was read from.
    #[inline]
    pub(crate) fn id(&self, k: usize) -> TermId {
        self.ids[k]
    }

    /// Term `k`'s offset `bₖ = log cₖ`.
    #[inline]
    pub(crate) fn offset(&self, k: usize) -> f64 {
        self.offsets[k]
    }

    /// Term `k`'s exponent dot `aₖ·y + bₖ`.
    #[inline]
    fn term_dot(&self, k: usize, y: &[f64]) -> f64 {
        term_dot(self.offsets[k], self.row(k), y)
    }

    /// Every term's exponent dot (the dense oracles' first step).
    fn exponent_dots(&self, y: &[f64]) -> Vec<f64> {
        (0..self.term_count())
            .map(|k| self.term_dot(k, y))
            .collect()
    }

    /// `F(y) = log Σ exp(aₖ·y + bₖ)`, computed with a max-shift so that very
    /// large or small exponents do not overflow.
    ///
    /// Streams the terms twice (max pass, then sum pass) instead of
    /// materializing the dot vector, so it never allocates. A caller that
    /// also wants the gradient later should use
    /// [`shifted_exps`](Self::shifted_exps), which computes each dot once
    /// and keeps the exponentials.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() < self.dim()`.
    pub fn value(&self, y: &[f64]) -> f64 {
        assert!(y.len() >= self.dim, "point has wrong dimension");
        let m = (0..self.term_count())
            .map(|k| self.term_dot(k, y))
            .fold(f64::NEG_INFINITY, f64::max);
        if m.is_infinite() {
            return m;
        }
        m + (0..self.term_count())
            .map(|k| (self.term_dot(k, y) - m).exp())
            .sum::<f64>()
            .ln()
    }

    /// One sweep over the terms at `y`: writes each term's shifted
    /// exponential `exp(aₖ·y + bₖ − m)`, `m` the largest dot, into `out`
    /// and returns `(F(y), Σₖ out[k])`.
    ///
    /// Each dot is computed once. The value is bit-identical to
    /// [`value`](Self::value): the same dots, max and sum in the same
    /// order. The exponentials and sum are exactly what
    /// [`stage_from_exps`](Self::stage_from_exps) needs, so a point whose
    /// value has been swept can be staged without evaluating it again.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() < self.dim()` or `out.len() != self.term_count()`.
    pub fn shifted_exps(&self, y: &[f64], out: &mut [f64]) -> (f64, f64) {
        assert!(y.len() >= self.dim, "point has wrong dimension");
        assert_eq!(out.len(), self.term_count(), "one output slot per term");
        let mut m = f64::NEG_INFINITY;
        for (k, z) in out.iter_mut().enumerate() {
            *z = self.term_dot(k, y);
            m = m.max(*z);
        }
        let mut sum = 0.0;
        for z in out.iter_mut() {
            *z = (*z - m).exp();
            sum += *z;
        }
        let value = if m.is_infinite() { m } else { m + sum.ln() };
        (value, sum)
    }

    /// Value and gradient of `F` at `y`.
    ///
    /// The gradient is `Σ softmaxₖ · aₖ`.
    pub fn value_grad(&self, y: &[f64]) -> (f64, Vec<f64>) {
        assert!(y.len() >= self.dim, "point has wrong dimension");
        let (val, w) = softmax(&self.exponent_dots(y));
        let mut grad = vec![0.0; self.dim];
        for (k, &wk) in w.iter().enumerate() {
            for r in self.row(k) {
                grad[r.var as usize] += wk * r.exp;
            }
        }
        (val, grad)
    }

    /// Value, gradient and dense Hessian of `F` at `y`.
    ///
    /// Hessian is `Σ wₖ aₖaₖᵀ − (Σ wₖaₖ)(Σ wₖaₖ)ᵀ`, PSD by convexity.
    pub fn value_grad_hess(&self, y: &[f64]) -> (f64, Vec<f64>, Vec<Vec<f64>>) {
        assert!(y.len() >= self.dim, "point has wrong dimension");
        let (val, w) = softmax(&self.exponent_dots(y));
        let n = self.dim;
        let mut grad = vec![0.0; n];
        let mut hess = vec![vec![0.0; n]; n];
        for (k, &wk) in w.iter().enumerate() {
            let row = self.row(k);
            for ri in row {
                let i = ri.var as usize;
                grad[i] += wk * ri.exp;
                for rj in row {
                    hess[i][rj.var as usize] += wk * ri.exp * rj.exp;
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                hess[i][j] -= grad[i] * grad[j];
            }
        }
        (val, grad, hess)
    }

    /// Stages the gradient and the raw second moment `Σ wₖaₖaₖᵀ`
    /// (`wₖ = exps[k] / sum`) **over the support only** into `ws`, from a
    /// [`shifted_exps`](Self::shifted_exps) sweep at the point. The caller
    /// folds the staged contribution into the global accumulators with
    /// [`GradHessWorkspace::scatter_staged`], which completes the Hessian
    /// `Σ wₖaₖaₖᵀ − ggᵀ` inline, with scale factors that may depend on the
    /// value (barrier weights do).
    ///
    /// Cost is O(Σₖ sₖ²) in the per-term support sizes — independent of
    /// the ambient dimension — and allocation-free once the workspace
    /// buffers have warmed up.
    ///
    /// # Panics
    ///
    /// Panics if `exps.len() != self.term_count()` or the workspace's
    /// dimension is smaller than `self.dim()`.
    pub fn stage_from_exps(&self, exps: &[f64], sum: f64, ws: &mut GradHessWorkspace) {
        assert_eq!(exps.len(), self.term_count(), "one exponential per term");
        assert!(
            ws.dim() >= self.dim,
            "workspace dimension {} below posynomial dimension {}",
            ws.dim(),
            self.dim
        );
        ws.stage_begin(&self.support);
        let (grad, hess) = ws.stage_buffers();
        for (k, &e) in exps.iter().enumerate() {
            let wk = e / sum;
            let row = self.row(k);
            for ri in row {
                let si = ri.slot as usize;
                grad[si] += wk * ri.exp;
                let base = si * (si + 1) / 2;
                for rj in row {
                    if rj.slot <= ri.slot {
                        hess[base + rj.slot as usize] += wk * ri.exp * rj.exp;
                    }
                }
            }
        }
    }
}

/// Numerically stable `log Σ exp(zₖ)` (test oracle for the streaming
/// [`LogPosynomial::value`]).
#[cfg(test)]
pub(crate) fn log_sum_exp(z: &[f64]) -> f64 {
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    m + z.iter().map(|&v| (v - m).exp()).sum::<f64>().ln()
}

/// Returns `(log_sum_exp(z), softmax(z))`.
fn softmax(z: &[f64]) -> (f64, Vec<f64>) {
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = z.iter().map(|&v| (v - m).exp()).collect();
    let s: f64 = exps.iter().sum();
    (m + s.ln(), exps.iter().map(|&e| e / s).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Monomial, Posynomial, TermTable, VarPool};

    /// `p` in log form over a table of its own, for a `dim`-variable problem.
    fn log_form(p: &Posynomial, dim: usize) -> LogPosynomial {
        let mut table = TermTable::new();
        let terms: Vec<_> = p.terms().iter().map(|m| (table.intern(m), m.coeff())).collect();
        LogPosynomial::new(table.view(&terms), dim)
    }

    /// `lp`'s value at `y`, its sweep staged into `ws` as the solver does.
    fn sweep_and_stage(lp: &LogPosynomial, y: &[f64], ws: &mut crate::GradHessWorkspace) -> f64 {
        let mut exps = vec![0.0; lp.term_count()];
        let (value, sum) = lp.shifted_exps(y, &mut exps);
        lp.stage_from_exps(&exps, sum, ws);
        value
    }

    fn sample() -> (LogPosynomial, Posynomial) {
        let mut pool = VarPool::new();
        let a = pool.var("a");
        let b = pool.var("b");
        let p = Posynomial::from(Monomial::new(0.5).pow(a, 1.0).pow(b, -2.0))
            + Monomial::new(2.0).pow(b, 1.0)
            + Monomial::new(1.0);
        (log_form(&p, pool.len()), p)
    }

    #[test]
    fn value_matches_direct_eval() {
        let (lp, p) = sample();
        for &(xa, xb) in &[(1.0, 1.0), (0.2, 5.0), (10.0, 0.01)] {
            let y = [xa_f(xa), xa_f(xb)];
            let direct = p.eval(&[xa, xb]).ln();
            assert!((lp.value(&y) - direct).abs() < 1e-10, "at ({xa},{xb})");
        }
        fn xa_f(x: f64) -> f64 {
            x.ln()
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (lp, _) = sample();
        let y = [0.3, -0.7];
        let (_, grad) = lp.value_grad(&y);
        let h = 1e-6;
        for i in 0..2 {
            let mut yp = y;
            let mut ym = y;
            yp[i] += h;
            ym[i] -= h;
            let fd = (lp.value(&yp) - lp.value(&ym)) / (2.0 * h);
            assert!((grad[i] - fd).abs() < 1e-6, "grad[{i}]={} fd={fd}", grad[i]);
        }
    }

    #[test]
    fn hessian_matches_finite_differences_and_is_psd() {
        let (lp, _) = sample();
        let y = [0.1, 0.2];
        let (_, grad, hess) = lp.value_grad_hess(&y);
        let h = 1e-5;
        for i in 0..2 {
            let mut yp = y;
            let mut ym = y;
            yp[i] += h;
            ym[i] -= h;
            let (_, gp) = lp.value_grad(&yp);
            let (_, gm) = lp.value_grad(&ym);
            for j in 0..2 {
                let fd = (gp[j] - gm[j]) / (2.0 * h);
                assert!((hess[i][j] - fd).abs() < 1e-5, "H[{i}][{j}]");
            }
        }
        // PSD check on a couple of directions.
        for d in [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0], [0.5, 2.0]] {
            let q: f64 = (0..2)
                .map(|i| (0..2).map(|j| d[i] * hess[i][j] * d[j]).sum::<f64>())
                .sum();
            assert!(q >= -1e-12, "not PSD along {d:?}: {q}");
        }
        let _ = grad;
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_inputs() {
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + 2f64.ln())).abs() < 1e-9);
        let v = log_sum_exp(&[-1000.0, -1000.0]);
        assert!((v - (-1000.0 + 2f64.ln())).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero posynomial")]
    fn zero_posynomial_rejected() {
        let _ = log_form(&Posynomial::zero(), 1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn sparse_workspace_matches_dense_oracle() {
        use crate::{packed_index, GradHessWorkspace};
        // Embed the 2-var sample in a 5-var ambient problem so the
        // support {0, 1} is a strict subset the scatter must respect.
        let (_, p) = sample();
        let lp = log_form(&p, 5);
        let y = [0.3, -0.7, 9.0, -9.0, 0.1];
        let (val, grad, hess) = lp.value_grad_hess(&y);
        let mut ws = GradHessWorkspace::new(5);
        let sval = sweep_and_stage(&lp, &y, &mut ws);
        ws.scatter_staged(1.0, 1.0, 0.0);
        assert_eq!(val, sval, "values must agree bitwise");
        assert_eq!(lp.value(&y), val, "streaming value must agree");
        for i in 0..5 {
            assert_eq!(grad[i], ws.grad()[i], "grad[{i}]");
            for j in 0..=i {
                assert_eq!(
                    hess[i][j],
                    ws.hess_packed()[packed_index(i, j)],
                    "hess[{i}][{j}]"
                );
            }
        }
        // Untouched coordinates stay exactly zero.
        assert_eq!(ws.grad()[3], 0.0);
        assert_eq!(ws.hess_packed()[packed_index(4, 2)], 0.0);
    }

    #[test]
    fn scatter_rank_one_matches_barrier_formula() {
        use crate::{packed_index, GradHessWorkspace};
        let (lp, _) = sample();
        let y = [0.1, 0.2];
        let (_, fg, fh) = lp.value_grad_hess(&y);
        let (inv, inv2) = (1.7, 1.7 * 1.7);
        let mut ws = GradHessWorkspace::new(2);
        let _ = sweep_and_stage(&lp, &y, &mut ws);
        ws.scatter_staged(inv, inv, inv2);
        for i in 0..2 {
            let want_g = inv * fg[i];
            assert!((ws.grad()[i] - want_g).abs() < 1e-15);
            for j in 0..=i {
                let want_h = inv2 * fg[i] * fg[j] + inv * fh[i][j];
                let got = ws.hess_packed()[packed_index(i, j)];
                assert!((got - want_h).abs() < 1e-15, "H[{i}][{j}]: {got} vs {want_h}");
            }
        }
    }

    #[test]
    fn shifted_exps_sweep_matches_the_streaming_value() {
        let (lp, _) = sample();
        assert_eq!(lp.term_count(), 3);
        assert_eq!(lp.support(), vec![0, 1]);
        for y in [[0.3, -0.7], [0.0, 0.0], [-2.0, 5.0]] {
            let mut exps = vec![0.0; lp.term_count()];
            let (val, sum) = lp.shifted_exps(&y, &mut exps);
            assert_eq!(val, lp.value(&y), "sweep value must agree bitwise at {y:?}");
            assert_eq!(sum, exps.iter().sum::<f64>());
            // The largest term is shifted to exactly exp(0).
            assert!(exps.contains(&1.0));
        }
    }
}
