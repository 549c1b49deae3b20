//! Interior-point solver for geometric programs: the options, the
//! solution, and the sparse production kernel that `barrier.rs`'s barrier
//! method (phase I on a slack formulation, then phase II, over the
//! log-sum-exp form; Boyd & Vandenberghe ch. 11, the "GP solver" box of
//! the paper's Fig. 4) runs on.
//!
//! The Newton step is assembled **sparsely**: each constraint scatters its
//! gradient and packed Hessian contribution only over its support via
//! [`smart_posy::GradHessWorkspace`], and the system is factored in place
//! in packed lower-triangular form. All per-step buffers live in a
//! [`SparseKernel`] reused across steps and line-search trials, so a
//! steady-state Newton step performs no heap allocation.
//!
//! Each term's shifted exponential is computed **once per point**. A
//! line-search trial sweeps every posynomial into an [`EvalRecord`]; when
//! the trial is accepted its record is swapped in along with the point,
//! and the next assembly stages straight from it. When the posynomials
//! share their terms (path classes sharing stages), a [`TermDictionary`]
//! built once per solve sweeps all of them at once, with one exponential
//! per distinct term and shift instead of one per reference, writing the
//! same bits into the record. Before either sweep, a trial evaluates the
//! constraint that last left the barrier domain and is rejected at once
//! if that constraint leaves it again. The dense oracle is
//! [`GpProblem::solve_reference`] (`reference.rs`).

use std::sync::Arc;
use std::time::Instant;

use smart_posy::{GradHessWorkspace, LogPosynomial, TermDictionary};

use crate::barrier::{self, Kernel};
use crate::linalg::solve_spd_ridged_packed;
use crate::{CancelToken, GpError, GpProblem, KktReport};

/// What a caller varies per solve: where to start and when to give up.
/// The barrier schedule itself is fixed (the constants of `barrier.rs`);
/// it solves every sizing problem in this repository.
#[derive(Debug, Clone, Default)]
pub struct SolverOptions {
    /// Optional warm-start point in the original (positive) variables,
    /// indexed like the solution vector. A feasible start skips phase I
    /// entirely; an infeasible one still anchors phase I in the right
    /// region (important when a variable's natural scale is far from 1,
    /// e.g. an auxiliary delay variable in a min-delay program).
    pub initial_x: Option<Vec<f64>>,
    /// Cooperative wall-clock deadline: the Newton loops check it every
    /// step and bail with [`GpError::BudgetExceeded`] once passed, so a
    /// runaway candidate cannot hang an exploration sweep.
    pub deadline: Option<Instant>,
    /// Cap on total Newton steps across both phases; `None` is unlimited.
    /// Exceeding it yields [`GpError::BudgetExceeded`].
    pub max_total_newton: Option<usize>,
    /// Shared cooperative cancellation token, checked once per Newton step
    /// alongside the deadline. A parallel exploration sweep hands every
    /// in-flight solve the same token so one `cancel()` stops them all;
    /// tripping yields [`GpError::BudgetExceeded`] with budget
    /// `"cancelled"`.
    pub cancel: Option<Arc<CancelToken>>,
}

/// Result of a successful GP solve.
#[derive(Debug, Clone)]
pub struct GpSolution {
    /// Optimal point in the original (positive) variables, indexed by
    /// [`smart_posy::VarId::index`].
    pub x: Vec<f64>,
    /// Objective value `f₀(x)` at the optimum.
    pub objective: f64,
    /// Total Newton steps spent in phase I (feasibility).
    pub phase1_newton_steps: usize,
    /// Total Newton steps spent in phase II (optimization).
    pub phase2_newton_steps: usize,
    /// First-order optimality diagnostics.
    pub kkt: KktReport,
}

impl GpSolution {
    /// Constraint bodies `fᵢ(x)` at the optimum, paired with their labels;
    /// values near 1 are *tight* (binding) constraints.
    pub fn constraint_activity<'a>(&self, problem: &'a GpProblem) -> Vec<(&'a str, f64)> {
        problem
            .constraints()
            .iter()
            .map(|c| (c.label.as_str(), problem.body(c).eval(&self.x)))
            .collect()
    }
}

/// One sweep of the objective and every constraint at a point: each
/// term's shifted exponential, each posynomial's sum and value. Slot 0 is
/// the objective, slot `i + 1` constraint `i`; slot `j` owns
/// `exps[bounds[j]..bounds[j + 1]]`.
#[derive(Debug, Default)]
pub(crate) struct EvalRecord {
    bounds: Vec<usize>,
    pub(crate) exps: Vec<f64>,
    pub(crate) sums: Vec<f64>,
    pub(crate) values: Vec<f64>,
}

impl EvalRecord {
    /// A record sized for the slots of `obj` and `cons`.
    pub(crate) fn new(obj: &LogPosynomial<'_>, cons: &[LogPosynomial<'_>]) -> Self {
        let mut bounds = vec![0];
        for p in std::iter::once(obj).chain(cons) {
            bounds.push(bounds[bounds.len() - 1] + p.term_count());
        }
        EvalRecord {
            exps: vec![0.0; bounds[cons.len() + 1]],
            sums: vec![0.0; cons.len() + 1],
            values: vec![0.0; cons.len() + 1],
            bounds,
        }
    }

    /// Sweeps slots `first..` at `y` through the solve's term dictionary,
    /// if it has one; returns whether it did. Without one, the caller
    /// sweeps slot by slot with [`eval`](Self::eval).
    fn sweep_grouped(
        &mut self,
        terms: &mut Option<TermDictionary<'_>>,
        y: &[f64],
        first: usize,
    ) -> bool {
        let Some(dict) = terms else { return false };
        dict.sweep(y, first, &mut self.exps, &mut self.sums, &mut self.values);
        true
    }

    /// Sweeps posynomial `p` at `y` into slot `j`; returns its value.
    fn eval(&mut self, j: usize, p: &LogPosynomial<'_>, y: &[f64]) -> f64 {
        let terms = self.bounds[j]..self.bounds[j + 1];
        let (value, sum) = p.shifted_exps(y, &mut self.exps[terms]);
        self.sums[j] = sum;
        self.values[j] = value;
        value
    }

    /// Sweeps the objective and every constraint at `y`, one posynomial
    /// at a time.
    pub(crate) fn eval_all(
        &mut self,
        obj: &LogPosynomial<'_>,
        cons: &[LogPosynomial<'_>],
        y: &[f64],
    ) {
        for (j, p) in std::iter::once(obj).chain(cons).enumerate() {
            self.eval(j, p, y);
        }
    }

    /// Slot `j`'s kept exponentials and their sum.
    pub(crate) fn slot(&self, j: usize) -> (&[f64], f64) {
        (&self.exps[self.bounds[j]..self.bounds[j + 1]], self.sums[j])
    }
}

/// The sparse production kernel. Every buffer keeps its capacity across
/// Newton steps, trials and both phases.
#[derive(Debug, Default)]
struct SparseKernel<'a, 't> {
    /// The objective and constraints in slot order.
    slots: &'a [LogPosynomial<'t>],
    /// Sparse scatter target: gradient + packed lower-triangular Hessian.
    ws: GradHessWorkspace,
    /// Packed matrix copy consumed by the in-place Cholesky (the ridge
    /// escalation re-copies into it instead of cloning the matrix).
    factor: Vec<f64>,
    /// Negated gradient handed to the linear solve.
    rhs: Vec<f64>,
    /// The sweep at the current point, staged by the assembly.
    at_y: EvalRecord,
    /// The sweep at the line-search trial.
    at_trial: EvalRecord,
    /// The solve's distinct terms, when they are shared enough for the
    /// grouped sweep to pay ([`TermDictionary::if_shared`]).
    terms: Option<TermDictionary<'t>>,
    /// Whether the current trial was swept through `terms` up front.
    swept: bool,
    /// The slot that last left the barrier domain in a line-search walk.
    /// Each trial evaluates it first and is rejected on the spot if it is
    /// outside again, before the full sweep and walk.
    sentinel: Option<usize>,
}

impl Kernel for SparseKernel<'_, '_> {
    fn sweep(&mut self, y: &[f64], first: usize) {
        if !self.at_y.sweep_grouped(&mut self.terms, y, first) {
            for (j, p) in self.slots.iter().enumerate().skip(first) {
                self.at_y.eval(j, p, y);
            }
        }
    }

    fn sweep_slot(&mut self, y: &[f64], j: usize) {
        // The term dictionary's sweep writes the bits `eval` does.
        self.at_y.eval(j, &self.slots[j], y);
    }

    fn values(&self) -> &[f64] {
        &self.at_y.values
    }

    fn reset(&mut self, _: &[f64], n: usize) {
        self.ws.reset(n);
    }

    fn add_slot(&mut self, j: usize, scale: f64, outer: f64) {
        let (exps, sum) = self.at_y.slot(j);
        self.slots[j].stage_from_exps(exps, sum, &mut self.ws);
        self.ws.scatter_staged(scale, scale, outer);
    }

    fn add_cross(&mut self, row: usize, scale: f64) {
        self.ws.scatter_staged_row(row, scale);
    }

    fn add_diag(&mut self, i: usize, g: f64, h: f64) {
        self.ws.grad_mut()[i] += g;
        self.ws.add_hess(i, i, h);
    }

    fn direction(&mut self, dir: &mut Vec<f64>) -> &[f64] {
        self.rhs.clear();
        self.rhs.extend(self.ws.grad().iter().map(|&g| -g));
        let n = self.ws.dim();
        solve_spd_ridged_packed(self.ws.hess_packed(), n, &self.rhs, &mut self.factor, dir);
        self.ws.grad()
    }

    fn trial_begin(&mut self, y: &[f64], first: usize, leaves: impl Fn(f64) -> bool) -> bool {
        // A trial with any slot outside the domain is rejected whatever
        // the others give, so testing the sentinel first changes no
        // trial's outcome.
        if let Some(j) = self.sentinel {
            if leaves(self.at_trial.eval(j, &self.slots[j], y)) {
                return false;
            }
        }
        // A grouped sweep evaluates every slot up front; the walk reads
        // the same values in the same order.
        self.swept = self.at_trial.sweep_grouped(&mut self.terms, y, first);
        true
    }

    fn trial_value(&mut self, j: usize, y: &[f64]) -> f64 {
        if self.swept || self.sentinel == Some(j) {
            self.at_trial.values[j]
        } else {
            self.at_trial.eval(j, &self.slots[j], y)
        }
    }

    fn trial_left(&mut self, j: usize) {
        self.sentinel = Some(j);
    }

    fn accept(&mut self) {
        std::mem::swap(&mut self.at_y, &mut self.at_trial);
    }
}

/// Shared setup for [`GpProblem::solve`] and
/// [`GpProblem::solve_reference`]: validates the problem data,
/// log-transforms the objective and constraints (reading every row from
/// the problem's table by id, objective first), and maps the optional warm
/// start into log space.
pub(crate) fn prepare<'t>(
    problem: &'t GpProblem,
    opts: &SolverOptions,
) -> Result<(Vec<LogPosynomial<'t>>, Vec<f64>), GpError> {
    let dim = problem.dim();
    if dim == 0 {
        return Err(GpError::Numerical {
            stage: "setup",
            detail: "problem has no variables".into(),
        });
    }
    problem
        .objective()
        .validate()
        .map_err(|e| GpError::NonFinite {
            stage: "setup",
            detail: format!("objective: {e}"),
        })?;
    for c in problem.constraints() {
        problem.body(c).validate().map_err(|e| GpError::NonFinite {
            stage: "setup",
            detail: format!("constraint '{}': {e}", c.label),
        })?;
    }
    let start: Vec<f64> = match &opts.initial_x {
        Some(x0) => {
            if x0.len() < dim {
                return Err(GpError::Numerical {
                    stage: "setup",
                    detail: format!(
                        "initial point has {} coordinates, problem has {dim}",
                        x0.len()
                    ),
                });
            }
            let mut y = Vec::with_capacity(dim);
            for (i, &v) in x0[..dim].iter().enumerate() {
                if !(v.is_finite() && v > 0.0) {
                    return Err(GpError::NonFinite {
                        stage: "setup",
                        detail: format!("initial point coordinate {i} is {v}"),
                    });
                }
                y.push(v.ln());
            }
            y
        }
        None => vec![0.0; dim],
    };
    Ok((problem.log_form(), start))
}

/// Shared epilogue: exponentiates the log-space optimum `y`, validates it,
/// and assembles the [`GpSolution`] with the KKT report at `y`.
pub(crate) fn finalize(
    problem: &GpProblem,
    y: Vec<f64>,
    kkt: KktReport,
    phase1_steps: usize,
    phase2_steps: usize,
) -> Result<GpSolution, GpError> {
    let x: Vec<f64> = y.iter().map(|&v| v.exp()).collect();
    if x.iter().any(|v| !v.is_finite()) {
        return Err(GpError::NonFinite {
            stage: "solution",
            detail: "optimizer returned a non-finite width".into(),
        });
    }
    let objective = problem.objective().eval(&x);
    if !objective.is_finite() {
        return Err(GpError::NonFinite {
            stage: "solution",
            detail: format!("objective evaluated to {objective} at the optimum"),
        });
    }
    smart_trace::emit_with("gp/solve", || {
        vec![
            ("dim", problem.dim().into()),
            ("constraints", problem.constraints().len().into()),
            ("phase1_steps", phase1_steps.into()),
            ("phase2_steps", phase2_steps.into()),
            ("objective", objective.into()),
        ]
    });
    Ok(GpSolution {
        objective,
        x,
        phase1_newton_steps: phase1_steps,
        phase2_newton_steps: phase2_steps,
        kkt,
    })
}

impl GpProblem {
    /// Solves the geometric program.
    ///
    /// # Errors
    ///
    /// * [`GpError::Infeasible`] — phase I could not drive the worst
    ///   constraint violation below the feasibility margin.
    /// * [`GpError::Unbounded`] — iterates escaped the sanity box, meaning
    ///   the objective has no positive minimizer under the constraints.
    /// * [`GpError::Numerical`] — Newton failed to make progress (returned
    ///   with the stage name for diagnosis).
    /// * [`GpError::NonFinite`] — the problem data or warm start contains
    ///   NaN/Inf, or an iterate went non-finite despite the safeguards.
    /// * [`GpError::BudgetExceeded`] — a configured deadline or Newton-step
    ///   cap fired before convergence.
    pub fn solve(&self, opts: &SolverOptions) -> Result<GpSolution, GpError> {
        let (slots, start) = prepare(self, opts)?;
        let (obj, cons) = (&slots[0], &slots[1..]);
        let mut kernel = SparseKernel {
            slots: &slots,
            at_y: EvalRecord::new(obj, cons),
            at_trial: EvalRecord::new(obj, cons),
            terms: TermDictionary::if_shared(self.table(), &slots),
            ..SparseKernel::default()
        };
        let (y, t, phase1_steps, phase2_steps) = barrier::run(&mut kernel, start, opts)?;
        // The kernel's current point is `y`: `at_y` holds its sweep.
        let kkt = KktReport::from_sweep(obj, cons, &kernel.at_y, t);
        finalize(self, y, kkt, phase1_steps, phase2_steps)
    }
}
