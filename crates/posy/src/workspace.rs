//! Reusable scatter/gather workspace for sparse log-posynomial evaluation.
//!
//! The GP solver assembles one barrier gradient and Hessian per Newton
//! step by summing contributions from every constraint. Each constraint is
//! a [`LogPosynomial`](crate::LogPosynomial) that touches only its
//! *support* — the handful of width variables on one path — yet the dense
//! evaluation path ([`LogPosynomial::value_grad_hess`]) materializes a
//! fresh `dim×dim` matrix per constraint per step, making assembly
//! O(m·n²) in allocations and arithmetic. [`GradHessWorkspace`] turns
//! assembly into O(m·s²) scatter-adds (s = support size) with **zero heap
//! allocations after warm-up**:
//!
//! 1. [`LogPosynomial::stage_from_exps`] stages one posynomial from a
//!    [`LogPosynomial::shifted_exps`] sweep into the workspace's *staging*
//!    area: its gradient `g` over the support slots and its packed
//!    support×support raw second moment `Σ wₖaₖaₖᵀ`.
//! 2. [`GradHessWorkspace::scatter_staged`] completes the Hessian
//!    `Σ wₖaₖaₖᵀ − ggᵀ` inline while it folds the staged contribution into
//!    the global accumulators with caller-chosen barrier scale factors
//!    (which depend on the value, hence the two steps).
//!
//! The global Hessian accumulator is a flat row-major **packed lower
//! triangle** (`hess[i·(i+1)/2 + j]`, `j ≤ i`), the same layout the
//! solver's in-place Cholesky consumes — no dense mirror is ever built.
//!
//! [`LogPosynomial::value_grad_hess`]: crate::LogPosynomial::value_grad_hess
//! [`LogPosynomial::stage_from_exps`]: crate::LogPosynomial::stage_from_exps
//! [`LogPosynomial::shifted_exps`]: crate::LogPosynomial::shifted_exps

/// Index of entry `(i, j)`, `j ≤ i`, in a row-major packed lower triangle.
#[inline]
pub fn packed_index(i: usize, j: usize) -> usize {
    debug_assert!(j <= i, "packed lower triangle needs j <= i, got ({i},{j})");
    i * (i + 1) / 2 + j
}

/// Length of the packed lower triangle of an `n×n` symmetric matrix.
#[inline]
pub fn packed_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// Accumulation target and scratch space for sparse gradient/Hessian
/// assembly. Construct once per solve, [`reset`](Self::reset) once per
/// Newton step; every buffer keeps its capacity across steps so the
/// steady state allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct GradHessWorkspace {
    /// Ambient dimension of the accumulators.
    dim: usize,
    /// Accumulated gradient, dense over `dim`.
    grad: Vec<f64>,
    /// Accumulated Hessian, packed lower triangle over `dim`.
    hess: Vec<f64>,
    /// Staged support (global variable indices, sorted ascending).
    stage_support: Vec<usize>,
    /// Staged gradient over the support slots.
    stage_grad: Vec<f64>,
    /// Staged raw second moment `Σ wₖaₖaₖᵀ`, packed lower triangle over
    /// the support slots; [`scatter_staged`](Self::scatter_staged)
    /// subtracts `ggᵀ` from it inline.
    stage_hess: Vec<f64>,
}

impl GradHessWorkspace {
    /// A workspace over `dim` ambient variables, accumulators zeroed.
    pub fn new(dim: usize) -> Self {
        let mut ws = GradHessWorkspace::default();
        ws.reset(dim);
        ws
    }

    /// Re-targets the workspace to `dim` variables and zeroes the
    /// gradient and Hessian accumulators. Capacity is retained: after the
    /// first call at a given `dim`, resetting allocates nothing.
    pub fn reset(&mut self, dim: usize) {
        self.dim = dim;
        self.grad.clear();
        self.grad.resize(dim, 0.0);
        self.hess.clear();
        self.hess.resize(packed_len(dim), 0.0);
    }

    /// Ambient dimension of the accumulators.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> &[f64] {
        &self.grad
    }

    /// Mutable access to the accumulated gradient (for terms the sparse
    /// scatter does not cover, e.g. the phase-I slack coordinate).
    pub fn grad_mut(&mut self) -> &mut [f64] {
        &mut self.grad
    }

    /// The accumulated Hessian as a packed lower triangle
    /// (`[i·(i+1)/2 + j]`, `j ≤ i`).
    pub fn hess_packed(&self) -> &[f64] {
        &self.hess
    }

    /// Adds `v` to Hessian entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `j > i` or `i >= dim`.
    #[inline]
    pub fn add_hess(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.dim);
        self.hess[packed_index(i, j)] += v;
    }

    /// Begins staging a posynomial with the given support: copies the
    /// indices and zeroes the staged gradient/second moment. Called by
    /// [`LogPosynomial::stage_from_exps`]; not part of the public
    /// accumulation protocol.
    ///
    /// [`LogPosynomial::stage_from_exps`]: crate::LogPosynomial::stage_from_exps
    pub(crate) fn stage_begin(&mut self, support: &[usize]) {
        debug_assert!(
            support.last().is_none_or(|&i| i < self.dim),
            "staged support exceeds workspace dimension"
        );
        self.stage_support.clear();
        self.stage_support.extend_from_slice(support);
        let s = support.len();
        self.stage_grad.clear();
        self.stage_grad.resize(s, 0.0);
        self.stage_hess.clear();
        self.stage_hess.resize(packed_len(s), 0.0);
    }

    /// Mutable staged buffers for the evaluator (grad slots, packed
    /// second-moment slots).
    pub(crate) fn stage_buffers(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.stage_grad, &mut self.stage_hess)
    }

    /// Folds the staged contribution into the global accumulators:
    ///
    /// ```text
    /// grad += g_scale · g
    /// hess += outer_scale · g gᵀ + h_scale · H
    /// ```
    ///
    /// where `g` is the staged gradient and `H = S − ggᵀ` the Hessian
    /// completed here from the staged raw second moment `S`. Each entry
    /// of `H` is rounded exactly as a separate completion pass would
    /// round it (product, then difference), so fusing the completion into
    /// the scatter changes no bit. The split lets one staged evaluation
    /// serve every barrier role: an objective term is `(t, t, 0)`, a
    /// log-barrier constraint term `1/(−F)` is `(inv, inv, inv²)` — the
    /// `inv²·ggᵀ` rank-one piece and the `inv·H` curvature piece of
    /// `−∇²log(−F)`.
    ///
    /// O(s²) in the staged support size; touches nothing outside it.
    pub fn scatter_staged(&mut self, g_scale: f64, h_scale: f64, outer_scale: f64) {
        let (support, staged) = (&self.stage_support, &self.stage_grad);
        for (&gi_idx, &gi) in support.iter().zip(staged) {
            self.grad[gi_idx] += g_scale * gi;
        }
        // Entry (i, j) of the fold, from the staged moment `sh`.
        let entry = |gi: f64, gj: f64, sh: f64| {
            let h = sh - gi * gj;
            outer_scale * gi * gj + h_scale * h
        };
        // Each global entry gets exactly one addition per call, so the
        // walk order changes no bit. Rows go two at a time: every row ends
        // at a data-dependent length, and walking them in pairs halves the
        // row ends the branch predictor must guess. The support is sorted
        // ascending, so staged row `si` lands in columns `0..=support[si]`
        // of global row `support[si]`, in the lower triangle.
        let s = support.len();
        let mut stage_rows = self.stage_hess.as_slice();
        let mut si = 0;
        while si + 1 < s {
            let (sr0, rest) = stage_rows.split_at(si + 1);
            let (sr1, rest) = rest.split_at(si + 2);
            stage_rows = rest;
            let (i0, i1) = (support[si], support[si + 1]);
            let (g0, g1) = (staged[si], staged[si + 1]);
            let (lo, hi) = self.hess.split_at_mut(i1 * (i1 + 1) / 2);
            let r0 = i0 * (i0 + 1) / 2;
            let (h0, h1) = (&mut lo[r0..=r0 + i0], &mut hi[..=i1]);
            for (((&gj_idx, &gj), &s0), &s1) in support.iter().zip(staged).zip(sr0).zip(sr1) {
                h0[gj_idx] += entry(g0, gj, s0);
                h1[gj_idx] += entry(g1, gj, s1);
            }
            h1[i1] += entry(g1, g1, sr1[si + 1]);
            si += 2;
        }
        if si < s {
            let (gi_idx, gi) = (support[si], staged[si]);
            let row = gi_idx * (gi_idx + 1) / 2;
            let hess_row = &mut self.hess[row..=row + gi_idx];
            for ((&gj_idx, &gj), &sh) in support.iter().zip(staged).zip(stage_rows) {
                hess_row[gj_idx] += entry(gi, gj, sh);
            }
        }
    }

    /// Adds `scale · g` (the staged gradient) to Hessian row `row` at the
    /// staged support columns — the cross term coupling an auxiliary
    /// coordinate (the phase-I slack) to a constraint's variables.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `row` is below any staged support index (the
    /// entries would leave the lower triangle).
    pub fn scatter_staged_row(&mut self, row: usize, scale: f64) {
        debug_assert!(
            self.stage_support.last().is_none_or(|&i| i <= row),
            "cross row must not precede the staged support"
        );
        let base = row * (row + 1) / 2;
        for (si, &gi_idx) in self.stage_support.iter().enumerate() {
            self.hess[base + gi_idx] += scale * self.stage_grad[si];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_indexing_is_row_major_lower() {
        assert_eq!(packed_index(0, 0), 0);
        assert_eq!(packed_index(1, 0), 1);
        assert_eq!(packed_index(1, 1), 2);
        assert_eq!(packed_index(2, 0), 3);
        assert_eq!(packed_index(2, 2), 5);
        assert_eq!(packed_len(3), 6);
        assert_eq!(packed_len(0), 0);
    }

    #[test]
    fn reset_retargets_and_zeroes() {
        let mut ws = GradHessWorkspace::new(3);
        ws.grad_mut()[1] = 5.0;
        ws.add_hess(2, 1, 7.0);
        ws.reset(4);
        assert_eq!(ws.dim(), 4);
        assert!(ws.grad().iter().all(|&g| g == 0.0));
        assert!(ws.hess_packed().iter().all(|&h| h == 0.0));
        assert_eq!(ws.grad().len(), 4);
        assert_eq!(ws.hess_packed().len(), 10);
    }

    #[test]
    fn scatter_scales_gradient_and_outer_product() {
        let mut ws = GradHessWorkspace::new(4);
        // Stage a posynomial supported on {1, 3} with g = [2, -1] and raw
        // second moment S = ggᵀ, so the completed Hessian S − ggᵀ is zero
        // and only the rank-one piece lands (pure rank-one test).
        ws.stage_begin(&[1, 3]);
        {
            let (g, s) = ws.stage_buffers();
            g[0] = 2.0;
            g[1] = -1.0;
            s.copy_from_slice(&[4.0, -2.0, 1.0]);
        }
        ws.scatter_staged(3.0, 1.0, 0.5);
        assert_eq!(ws.grad(), &[0.0, 6.0, 0.0, -3.0]);
        // hess(1,1) += 0.5·2·2, hess(3,1) += 0.5·(-1)·2, hess(3,3) += 0.5·1
        assert_eq!(ws.hess_packed()[packed_index(1, 1)], 2.0);
        assert_eq!(ws.hess_packed()[packed_index(3, 1)], -1.0);
        assert_eq!(ws.hess_packed()[packed_index(3, 3)], 0.5);
        assert_eq!(ws.hess_packed()[packed_index(3, 0)], 0.0);
    }

    #[test]
    fn scatter_completes_the_raw_second_moment() {
        let mut ws = GradHessWorkspace::new(3);
        // Support {0, 2}, g = [0.5, 0.25], S = [[1, ·], [0.5, 2]]: the
        // completed Hessian is S − ggᵀ = [[0.75, ·], [0.375, 1.9375]].
        ws.stage_begin(&[0, 2]);
        {
            let (g, s) = ws.stage_buffers();
            g.copy_from_slice(&[0.5, 0.25]);
            s.copy_from_slice(&[1.0, 0.5, 2.0]);
        }
        ws.scatter_staged(1.0, 2.0, 0.0);
        assert_eq!(ws.hess_packed()[packed_index(0, 0)], 1.5);
        assert_eq!(ws.hess_packed()[packed_index(2, 0)], 0.75);
        assert_eq!(ws.hess_packed()[packed_index(2, 2)], 3.875);
        assert_eq!(ws.hess_packed()[packed_index(1, 0)], 0.0);
    }

    #[test]
    fn scatter_matches_the_row_by_row_fold_bit_for_bit() {
        use smart_prng::Prng;
        let mut rng = Prng::new(0x5CA7);
        // Odd and even support sizes: rows go in pairs, plus a last row.
        for s in 1..=7 {
            let dim = 12;
            let mut support: Vec<usize> = (0..dim).collect();
            for i in 0..s {
                let j = rng.usize_in(i, dim);
                support.swap(i, j);
            }
            support.truncate(s);
            support.sort_unstable();
            let g = rng.f64_vec(-2.0, 2.0, s);
            let moment = rng.f64_vec(0.0, 3.0, packed_len(s));
            let start = rng.f64_vec(-1.0, 1.0, packed_len(dim));
            let (g_scale, h_scale, outer) = (1.7, 0.3, 2.9);
            let mut ws = GradHessWorkspace::new(dim);
            ws.hess.copy_from_slice(&start);
            ws.stage_begin(&support);
            let (sg, sh) = ws.stage_buffers();
            sg.copy_from_slice(&g);
            sh.copy_from_slice(&moment);
            ws.scatter_staged(g_scale, h_scale, outer);
            // The fold one row at a time, in row order.
            let mut want = start;
            for si in 0..s {
                for sj in 0..=si {
                    let (gi, gj) = (g[si], g[sj]);
                    let h = moment[packed_index(si, sj)] - gi * gj;
                    want[packed_index(support[si], support[sj])] += outer * gi * gj + h_scale * h;
                }
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(ws.hess_packed()), bits(&want), "support {support:?}");
            for (i, &v) in support.iter().enumerate() {
                assert_eq!(ws.grad()[v].to_bits(), (g_scale * g[i]).to_bits());
            }
        }
    }

    #[test]
    fn cross_row_scatter_hits_support_columns_only() {
        let mut ws = GradHessWorkspace::new(4);
        ws.stage_begin(&[0, 2]);
        {
            let (g, _) = ws.stage_buffers();
            g[0] = 1.5;
            g[1] = -2.5;
        }
        ws.scatter_staged_row(3, 2.0);
        assert_eq!(ws.hess_packed()[packed_index(3, 0)], 3.0);
        assert_eq!(ws.hess_packed()[packed_index(3, 2)], -5.0);
        assert_eq!(ws.hess_packed()[packed_index(3, 1)], 0.0);
        assert_eq!(ws.hess_packed()[packed_index(3, 3)], 0.0);
    }
}
