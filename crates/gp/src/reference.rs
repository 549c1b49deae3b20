//! Dense reference solver — the oracle for the sparse production kernel.
//!
//! [`GpProblem::solve_reference`] runs the barrier loop of `barrier.rs`
//! that [`GpProblem::solve`] runs — the same phases, schedule, stopping
//! rules and events — on a dense kernel of its own. What the oracle
//! checks stays independent of the sparse kernel: each posynomial is
//! assembled through [`LogPosynomial::value_grad_hess`] (a fresh
//! `dim×dim` matrix per slot per step), the system is solved with the
//! historical `Vec<Vec<f64>>` Cholesky, and a line-search trial walks
//! every constraint with [`LogPosynomial::value`], with no sentinel and
//! no grouped sweep. Both kernels compute the same sums in the same
//! order, so the differential parity suite and `newton_events.rs` pin the
//! sparse kernel against this one step for step and trial for trial. Use
//! it only in tests: it is the O(m·n²) path the production kernel exists
//! to avoid.

use smart_posy::LogPosynomial;

use crate::barrier::{self, Kernel};
use crate::linalg::solve_spd_ridged;
use crate::solver::{finalize, prepare, EvalRecord};
use crate::{GpError, GpProblem, GpSolution, KktReport, SolverOptions};

impl GpProblem {
    /// Solves the geometric program with the dense reference kernel.
    ///
    /// Same contract and error cases as [`GpProblem::solve`]; exists so
    /// differential tests can verify the sparse kernel against an
    /// independent (and much simpler) implementation.
    ///
    /// # Errors
    ///
    /// Identical to [`GpProblem::solve`].
    pub fn solve_reference(&self, opts: &SolverOptions) -> Result<GpSolution, GpError> {
        let (slots, start) = prepare(self, opts)?;
        let mut kernel = DenseKernel {
            slots: &slots,
            values: vec![0.0; slots.len()],
            trial_values: vec![0.0; slots.len()],
            ..DenseKernel::default()
        };
        let (y, t, phase1_steps, phase2_steps) = barrier::run(&mut kernel, start, opts)?;
        // The KKT report reads a sweep at the optimum, as the sparse
        // kernel's does.
        let (obj, cons) = (&slots[0], &slots[1..]);
        let mut at_y = EvalRecord::new(obj, cons);
        at_y.eval_all(obj, cons, &y);
        let kkt = KktReport::from_sweep(obj, cons, &at_y, t);
        finalize(self, y, kkt, phase1_steps, phase2_steps)
    }
}

/// The dense kernel: slot values at the current point and at the last
/// trial, and a dense Newton system at the point `y`.
#[derive(Default)]
struct DenseKernel<'a, 't> {
    slots: &'a [LogPosynomial<'t>],
    values: Vec<f64>,
    trial_values: Vec<f64>,
    y: Vec<f64>,
    grad: Vec<f64>,
    hess: Vec<Vec<f64>>,
    /// The gradient of the last slot added to the system.
    last: Vec<f64>,
}

impl Kernel for DenseKernel<'_, '_> {
    fn sweep(&mut self, y: &[f64], first: usize) {
        for (v, p) in self.values.iter_mut().zip(self.slots).skip(first) {
            *v = p.value(y);
        }
    }

    fn values(&self) -> &[f64] {
        &self.values
    }

    fn reset(&mut self, y: &[f64], n: usize) {
        self.y = y.to_vec();
        self.grad = vec![0.0; n];
        self.hess = vec![vec![0.0; n]; n];
    }

    fn add_slot(&mut self, j: usize, scale: f64, outer: f64) {
        let (_, fg, fh) = self.slots[j].value_grad_hess(&self.y);
        for (a, row) in fh.iter().enumerate() {
            self.grad[a] += scale * fg[a];
            for (b, &h) in row.iter().enumerate() {
                self.hess[a][b] += outer * fg[a] * fg[b] + scale * h;
            }
        }
        self.last = fg;
    }

    fn add_cross(&mut self, row: usize, scale: f64) {
        for (a, &g) in self.last.iter().enumerate() {
            self.hess[a][row] += scale * g;
            self.hess[row][a] += scale * g;
        }
    }

    fn add_diag(&mut self, i: usize, g: f64, h: f64) {
        self.grad[i] += g;
        self.hess[i][i] += h;
    }

    fn direction(&mut self, dir: &mut Vec<f64>) -> &[f64] {
        let neg_grad: Vec<f64> = self.grad.iter().map(|&g| -g).collect();
        *dir = solve_spd_ridged(&self.hess, &neg_grad).0;
        &self.grad
    }

    fn trial_value(&mut self, j: usize, y: &[f64]) -> f64 {
        self.trial_values[j] = self.slots[j].value(y);
        self.trial_values[j]
    }

    fn accept(&mut self) {
        std::mem::swap(&mut self.values, &mut self.trial_values);
    }
}
