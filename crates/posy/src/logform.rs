//! Log-space form of a posynomial: the convex `log-sum-exp` view.
//!
//! Under `y = log x`, a posynomial `f(x) = Σₖ cₖ ∏ xᵢ^aᵢₖ` becomes
//! `F(y) = log Σₖ exp(aₖ·y + bₖ)` with `bₖ = log cₖ`, which is convex.
//! The GP solver works exclusively on this form; this module provides the
//! conversion plus value/gradient/Hessian evaluation.

use crate::workspace::GradHessWorkspace;
use crate::{TermId, TermTable, VarId};

/// The exponent dot `a·y + b` of the term with offset `b` and row `a`.
/// Every sweep computes its dots through here, so a term shared by
/// several posynomials gets the same bits wherever it is evaluated.
#[inline]
pub(crate) fn term_dot(offset: f64, row: &[(VarId, f64)], y: &[f64]) -> f64 {
    offset + row.iter().map(|&(v, e)| e * y[v.index()]).sum::<f64>()
}

/// A posynomial converted to log-space, ready for convex optimization.
///
/// Evaluation computes `F(y) = log Σ exp(aₖ·y + bₖ)` with the usual
/// max-shift for numerical stability, and optionally its gradient and
/// Hessian with respect to `y`.
///
/// The log form borrows the [`TermTable`] its posynomial was stored over
/// and reads each term's exponent row from it by id; it copies no row.
/// Per term reference it keeps the row's id and the offset `bₖ`, and per
/// row entry the entry's slot in the posynomial's support, which the
/// sparse staging scatters through so that a constraint of support `s`
/// costs O(s²) regardless of the ambient dimension.
///
/// ```
/// use smart_posy::{LogPosynomial, TermId, TermTable, VarPool};
/// let mut pool = VarPool::new();
/// let w = pool.var("W");
/// let mut table = TermTable::new();
/// let terms = [(table.var(w, 1.0), 2.0), (TermId::ONE, 3.0)]; // 2·W + 3
/// let lp = LogPosynomial::new(&table, &terms, pool.len());
/// let y = [0.0]; // x = 1
/// assert!((lp.value(&y) - 5f64.ln()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LogPosynomial<'t> {
    /// The table the rows are read from.
    table: &'t TermTable,
    dim: usize,
    /// Sorted, deduplicated variable indices this posynomial touches,
    /// allocated at exactly their length.
    support: Vec<usize>,
    /// Table id of each term's row.
    ids: Vec<TermId>,
    /// Offset `bₖ = log cₖ` of each term.
    offsets: Vec<f64>,
    /// Support slot of every row entry, term after term: term `k` owns
    /// the next `row(k).len()` slots. Rows and the support are both
    /// sorted by variable, so a term's slots ascend.
    slots: Vec<u32>,
}

impl<'t> LogPosynomial<'t> {
    /// Converts the posynomial stored as `terms` over `table` (a
    /// [`PosyView`](crate::PosyView)'s parts) for a problem with `dim`
    /// variables. The log form borrows `table` and reads each term's row
    /// from it by id.
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty (log of zero is undefined), if a term
    /// references a variable with index `>= dim`, or if `dim` exceeds
    /// `u32::MAX` (support slots are `u32`).
    pub fn new(table: &'t TermTable, terms: &[(TermId, f64)], dim: usize) -> Self {
        assert!(
            !terms.is_empty(),
            "cannot take the log-form of the zero posynomial"
        );
        assert!(
            u32::try_from(dim).is_ok(),
            "dimension {dim} exceeds u32 indices"
        );
        let rows = || terms.iter().map(|&(id, _)| table.row(id));
        let mut support: Vec<usize> = rows().flatten().map(|(v, _)| v.index()).collect();
        support.sort_unstable();
        support.dedup();
        support.shrink_to_fit();
        if let Some(&last) = support.last() {
            assert!(
                last < dim,
                "posynomial uses variable index {last} but problem has {dim} variables"
            );
        }
        let mut slots = Vec::with_capacity(rows().map(<[_]>::len).sum());
        // The index is present by construction; partition_point avoids an
        // unwrap on binary_search's Result.
        slots.extend(
            rows()
                .flatten()
                .map(|(v, _)| support.partition_point(|&i| i < v.index()) as u32),
        );
        LogPosynomial {
            table,
            dim,
            support,
            ids: terms.iter().map(|&(id, _)| id).collect(),
            offsets: terms.iter().map(|&(_, c)| c.ln()).collect(),
            slots,
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

    /// The table the terms' rows are read from.
    pub(crate) fn table(&self) -> &'t TermTable {
        self.table
    }

    /// Term `k`'s exponent row.
    #[inline]
    fn row(&self, k: usize) -> &'t [(VarId, f64)] {
        self.table.row(self.ids[k])
    }

    /// Term `k`'s row id in the table.
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

    /// Every term's exponent row with its support slots, in term order.
    fn rows_with_slots(&self) -> impl Iterator<Item = (&'t [(VarId, f64)], &[u32])> {
        let (table, mut slots) = (self.table, self.slots.as_slice());
        self.ids.iter().map(move |&id| {
            let row = table.row(id);
            let (own, rest) = slots.split_at(row.len());
            slots = rest;
            (row, own)
        })
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

    /// Value, gradient and dense Hessian of `F` at `y` (the dense
    /// oracle).
    ///
    /// The gradient is `Σ wₖaₖ` with `w = softmax(aₖ·y + bₖ)`; the Hessian
    /// is `Σ wₖ aₖaₖᵀ − (Σ wₖaₖ)(Σ wₖaₖ)ᵀ`, PSD by convexity.
    pub fn value_grad_hess(&self, y: &[f64]) -> (f64, Vec<f64>, Vec<Vec<f64>>) {
        assert!(y.len() >= self.dim, "point has wrong dimension");
        let (val, w) = softmax(&self.exponent_dots(y));
        let n = self.dim;
        let mut grad = vec![0.0; n];
        let mut hess = vec![vec![0.0; n]; n];
        for (k, &wk) in w.iter().enumerate() {
            let row = self.row(k);
            for &(vi, ei) in row {
                let i = vi.index();
                grad[i] += wk * ei;
                for &(vj, ej) in row {
                    hess[i][vj.index()] += wk * ei * ej;
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

    /// Writes the gradient `Σₖ wₖaₖ` (`wₖ = exps[k] / sum`) **over the
    /// support**, one entry per support index, into `grad`, from a
    /// [`shifted_exps`](Self::shifted_exps) sweep at the point. Each entry
    /// is the sum [`value_grad_hess`](Self::value_grad_hess) forms for
    /// its variable, in the same order, so the two agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `exps.len() != self.term_count()`.
    pub fn grad_from_exps(&self, exps: &[f64], sum: f64, grad: &mut Vec<f64>) {
        assert_eq!(exps.len(), self.term_count(), "one exponential per term");
        grad.clear();
        grad.resize(self.support.len(), 0.0);
        for (&e, (row, slots)) in exps.iter().zip(self.rows_with_slots()) {
            let wk = e / sum;
            for (&s, &(_, a)) in slots.iter().zip(row) {
                grad[s as usize] += wk * a;
            }
        }
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
        // Rows of one or two entries (most rows) are staged without a
        // loop, so a term costs no loop-exit guess; a constant term
        // stages nothing. Each entry is the loop's expression, so no bit
        // moves.
        let diag = |s: usize| s * (s + 1) / 2 + s;
        for (&e, (row, slots)) in exps.iter().zip(self.rows_with_slots()) {
            match (row, slots) {
                ([], _) => {}
                (&[(_, e0)], &[s0]) => {
                    let (wk, s0) = (e / sum, s0 as usize);
                    grad[s0] += wk * e0;
                    hess[diag(s0)] += wk * e0 * e0;
                }
                (&[(_, e0), (_, e1)], &[s0, s1]) => {
                    let (wk, s0, s1) = (e / sum, s0 as usize, s1 as usize);
                    grad[s0] += wk * e0;
                    hess[diag(s0)] += wk * e0 * e0;
                    grad[s1] += wk * e1;
                    hess[s1 * (s1 + 1) / 2 + s0] += wk * e1 * e0;
                    hess[diag(s1)] += wk * e1 * e1;
                }
                _ => {
                    let wk = e / sum;
                    for (&si, &(_, ei)) in slots.iter().zip(row) {
                        grad[si as usize] += wk * ei;
                        let base = si as usize * (si as usize + 1) / 2;
                        for (&sj, &(_, ej)) in slots.iter().zip(row) {
                            if sj <= si {
                                hess[base + sj as usize] += wk * ei * ej;
                            }
                        }
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

    /// `p` in log form over `table`, for a `dim`-variable problem.
    fn log_form<'t>(table: &'t mut TermTable, p: &Posynomial, dim: usize) -> LogPosynomial<'t> {
        let terms: Vec<_> = p
            .terms()
            .iter()
            .map(|m| (table.intern(m), m.coeff()))
            .collect();
        LogPosynomial::new(table, &terms, dim)
    }

    /// `lp`'s value at `y`, its sweep staged into `ws` as the solver does.
    fn sweep_and_stage(lp: &LogPosynomial, y: &[f64], ws: &mut crate::GradHessWorkspace) -> f64 {
        let mut exps = vec![0.0; lp.term_count()];
        let (value, sum) = lp.shifted_exps(y, &mut exps);
        lp.stage_from_exps(&exps, sum, ws);
        value
    }

    fn sample(table: &mut TermTable) -> (LogPosynomial<'_>, Posynomial) {
        let mut pool = VarPool::new();
        let a = pool.var("a");
        let b = pool.var("b");
        let p = Posynomial::from(Monomial::new(0.5).pow(a, 1.0).pow(b, -2.0))
            + Monomial::new(2.0).pow(b, 1.0)
            + Monomial::new(1.0);
        (log_form(table, &p, pool.len()), p)
    }

    #[test]
    fn value_matches_direct_eval() {
        let mut table = TermTable::new();
        let (lp, p) = sample(&mut table);
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
        let mut table = TermTable::new();
        let (lp, _) = sample(&mut table);
        let y = [0.3, -0.7];
        let (_, grad, _) = lp.value_grad_hess(&y);
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
        let mut table = TermTable::new();
        let (lp, _) = sample(&mut table);
        let y = [0.1, 0.2];
        let (_, grad, hess) = lp.value_grad_hess(&y);
        let h = 1e-5;
        for i in 0..2 {
            let mut yp = y;
            let mut ym = y;
            yp[i] += h;
            ym[i] -= h;
            let (_, gp, _) = lp.value_grad_hess(&yp);
            let (_, gm, _) = lp.value_grad_hess(&ym);
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
        let _ = log_form(&mut TermTable::new(), &Posynomial::zero(), 1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn sparse_workspace_matches_dense_oracle() {
        use crate::{packed_index, GradHessWorkspace};
        // Embed the 2-var sample in a 5-var ambient problem so the
        // support {0, 1} is a strict subset the scatter must respect.
        let (_, p) = sample(&mut TermTable::new());
        let mut table = TermTable::new();
        let lp = log_form(&mut table, &p, 5);
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
    fn swept_gradient_matches_the_dense_gradient_bit_for_bit() {
        let (_, p) = sample(&mut TermTable::new());
        let mut table = TermTable::new();
        let lp = log_form(&mut table, &p, 5);
        for y in [
            [0.3, -0.7, 9.0, -9.0, 0.1],
            [0.0; 5],
            [-2.0, 5.0, 0.0, 0.0, 1.0],
        ] {
            let (_, dense, _) = lp.value_grad_hess(&y);
            let mut exps = vec![0.0; lp.term_count()];
            let (_, sum) = lp.shifted_exps(&y, &mut exps);
            let mut grad = Vec::new();
            lp.grad_from_exps(&exps, sum, &mut grad);
            assert_eq!(grad.len(), lp.support().len());
            for (&v, g) in lp.support().iter().zip(&grad) {
                assert_eq!(g.to_bits(), dense[v].to_bits(), "grad[{v}] at {y:?}");
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn staging_matches_the_dense_oracle_for_every_row_length() {
        use crate::{packed_index, GradHessWorkspace};
        use smart_prng::Prng;
        const DIM: usize = 6;
        let mut pool = VarPool::new();
        let v: Vec<_> = (0..DIM).map(|i| pool.var(&format!("v{i}"))).collect();
        let mut rng = Prng::new(0x57A6E);
        for _ in 0..20 {
            // Terms whose rows have 0 to 4 entries, with arbitrary exponents.
            let mut p = Posynomial::zero();
            for len in [0, 1, 1, 2, 2, 2, 3, 4] {
                let mut m = Monomial::new(rng.f64_in(0.1, 3.0));
                for _ in 0..len {
                    m = m.pow(v[rng.usize_in(0, DIM)], rng.f64_in(-2.0, 2.0));
                }
                p.push(m);
            }
            let mut table = TermTable::new();
            let lp = log_form(&mut table, &p, DIM);
            let y = rng.f64_vec(-1.5, 1.5, DIM);
            let (_, grad, hess) = lp.value_grad_hess(&y);
            let mut ws = GradHessWorkspace::new(DIM);
            let _ = sweep_and_stage(&lp, &y, &mut ws);
            ws.scatter_staged(1.0, 1.0, 0.0);
            for i in 0..DIM {
                assert_eq!(grad[i].to_bits(), ws.grad()[i].to_bits(), "grad[{i}]");
                for j in 0..=i {
                    let got = ws.hess_packed()[packed_index(i, j)];
                    assert_eq!(hess[i][j].to_bits(), got.to_bits(), "hess[{i}][{j}]");
                }
            }
        }
    }

    #[test]
    fn scatter_rank_one_matches_barrier_formula() {
        use crate::{packed_index, GradHessWorkspace};
        let mut table = TermTable::new();
        let (lp, _) = sample(&mut table);
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
                assert!(
                    (got - want_h).abs() < 1e-15,
                    "H[{i}][{j}]: {got} vs {want_h}"
                );
            }
        }
    }

    #[test]
    fn shifted_exps_sweep_matches_the_streaming_value() {
        let mut table = TermTable::new();
        let (lp, _) = sample(&mut table);
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
