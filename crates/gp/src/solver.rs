//! Interior-point solver for geometric programs.
//!
//! Pipeline: log-transform every posynomial (convex `log-sum-exp` form),
//! find a strictly feasible point with a phase-I slack formulation, then run
//! a standard barrier method — damped Newton centering steps with
//! backtracking line search, geometric increase of the barrier parameter —
//! until the duality-gap estimate `m/t` is below tolerance. See Boyd &
//! Vandenberghe, ch. 11; this mirrors the "GP solver" box of the paper's
//! Fig. 4.
//!
//! The Newton step is assembled **sparsely**: each constraint scatters its
//! gradient and packed Hessian contribution only over its support via
//! [`smart_posy::GradHessWorkspace`], and the system is factored in place
//! in packed lower-triangular form. All per-step buffers live in a
//! [`NewtonWorkspace`] reused across steps and line-search trials, so a
//! steady-state Newton step performs no heap allocation.
//!
//! Each term's shifted exponential is computed **once per point**. A
//! line-search trial sweeps every posynomial into an [`EvalRecord`]; when
//! the trial is accepted its record is swapped in along with the point,
//! and the next assembly stages straight from it. Only the first step of
//! a phase evaluates at the current point. When the posynomials share
//! their terms (path classes sharing stages), a [`TermDictionary`] built
//! once per solve sweeps all of them at once, with one exponential per
//! distinct term and shift instead of one per reference, writing the same
//! bits into the record. Before either sweep, a trial evaluates the
//! constraint that last left the barrier domain and is rejected at once
//! if that constraint leaves it again. The historical dense path
//! survives as [`GpProblem::solve_reference`] (see `reference.rs`), the
//! oracle the differential parity suite pins this kernel against.

use std::sync::Arc;
use std::time::Instant;

use smart_posy::{GradHessWorkspace, LogPosynomial, TermDictionary};

use crate::linalg::{axpy, dot, norm, solve_spd_ridged_packed};
use crate::{CancelToken, GpError, GpProblem, KktReport};

/// Tuning knobs for the barrier solver. The defaults solve every sizing
/// problem in this repository; they are exposed for stress tests.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Target duality-gap estimate `m/t` at termination.
    pub tol: f64,
    /// Newton decrement threshold for each centering problem.
    pub newton_tol: f64,
    /// Barrier parameter multiplier per outer iteration.
    pub mu: f64,
    /// Maximum Newton iterations per centering problem.
    pub max_newton_iter: usize,
    /// Maximum outer (barrier) iterations.
    pub max_outer_iter: usize,
    /// Phase-I slack below which the point counts as strictly feasible.
    pub feasibility_margin: f64,
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

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tol: 1e-8,
            newton_tol: 1e-10,
            mu: 20.0,
            max_newton_iter: 200,
            max_outer_iter: 100,
            feasibility_margin: 1e-7,
            initial_x: None,
            deadline: None,
            max_total_newton: None,
            cancel: None,
        }
    }
}

/// Cooperative budget check, called once per Newton step (a step costs a
/// Hessian assembly + factorization, so the `Instant::now()` call is
/// negligible against it).
pub(crate) fn check_budget(
    opts: &SolverOptions,
    stage: &'static str,
    spent_newton: usize,
) -> Result<(), GpError> {
    let budget = if opts.max_total_newton.is_some_and(|cap| spent_newton > cap) {
        "newton-steps"
    } else if opts.deadline.is_some_and(|d| Instant::now() >= d) {
        "wall-clock"
    } else if opts.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
        "cancelled"
    } else {
        return Ok(());
    };
    smart_trace::emit_with("gp/budget", || {
        vec![
            ("stage", stage.into()),
            ("budget", budget.into()),
            ("spent_newton", spent_newton.into()),
        ]
    });
    Err(GpError::BudgetExceeded {
        stage,
        budget,
        spent_newton,
    })
}

/// Emits one Newton step's `gp/newton` event: its line search took
/// `trials` trials, `outside` of them rejected for leaving the barrier
/// domain, and ended at step length `alpha`.
pub(crate) fn emit_newton(
    stage: &'static str,
    step: usize,
    residual: f64,
    alpha: f64,
    trials: usize,
    outside: usize,
    accepted: bool,
) {
    smart_trace::emit_with("gp/newton", || {
        vec![
            ("stage", stage.into()),
            ("step", step.into()),
            ("residual", residual.into()),
            ("alpha", alpha.into()),
            ("trials", trials.into()),
            ("outside", outside.into()),
            ("accepted", accepted.into()),
        ]
    });
}

/// Largest-magnitude coordinate without relying on a total order over
/// possibly-NaN floats (diagnostic use only).
fn max_abs_coord(y: &[f64]) -> (usize, f64) {
    let mut best = (0usize, 0.0f64);
    for (i, &v) in y.iter().enumerate() {
        if v.abs() > best.1.abs() {
            best = (i, v);
        }
    }
    best
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
            .map(|c| (c.label.as_str(), c.body.eval(&self.x)))
            .collect()
    }
}

/// Hard cap on `‖y‖∞` (log-space); beyond this the problem is declared
/// unbounded (x outside `[e⁻⁴⁰, e⁴⁰]` is physically meaningless for sizes).
pub(crate) const Y_BOUND: f64 = 40.0;

/// Trust-region-style cap on a single Newton step in log space.
pub(crate) const MAX_STEP: f64 = 8.0;

/// One sweep of the objective and every constraint at a point: each
/// term's shifted exponential, each posynomial's sum and value. Slot 0 is
/// the objective, slot `i + 1` constraint `i`; slot `j` owns
/// `exps[bounds[j]..bounds[j + 1]]`, with `bounds` kept once in the
/// [`NewtonWorkspace`] because both records share it.
#[derive(Debug, Default)]
struct EvalRecord {
    exps: Vec<f64>,
    sums: Vec<f64>,
    values: Vec<f64>,
}

impl EvalRecord {
    /// A record sized for the posynomials behind `bounds`.
    fn new(bounds: &[usize]) -> Self {
        let slots = bounds.len() - 1;
        EvalRecord {
            exps: vec![0.0; bounds[slots]],
            sums: vec![0.0; slots],
            values: vec![0.0; slots],
        }
    }

    /// Sweeps slots `first..` at `y` through the solve's term dictionary,
    /// if it has one; returns whether it did. Without one, the caller
    /// sweeps slot by slot with [`eval`](Self::eval).
    fn sweep_grouped(
        &mut self,
        terms: &mut Option<TermDictionary>,
        y: &[f64],
        first: usize,
    ) -> bool {
        let Some(dict) = terms else { return false };
        dict.sweep(y, first, &mut self.exps, &mut self.sums, &mut self.values);
        true
    }

    /// Sweeps posynomial `p` at `y` into slot `j`; returns its value.
    fn eval(&mut self, bounds: &[usize], j: usize, p: &LogPosynomial, y: &[f64]) -> f64 {
        let (value, sum) = p.shifted_exps(y, &mut self.exps[bounds[j]..bounds[j + 1]]);
        self.sums[j] = sum;
        self.values[j] = value;
        value
    }

    /// Stages slot `j` (posynomial `p`) into `ws` from the kept sweep.
    fn stage(&self, bounds: &[usize], j: usize, p: &LogPosynomial, ws: &mut GradHessWorkspace) {
        p.stage_from_exps(&self.exps[bounds[j]..bounds[j + 1]], self.sums[j], ws);
    }
}

/// Per-solve scratch for the Newton loops: the sparse gradient/Hessian
/// accumulator, the factorization, right-hand-side, direction and
/// line-search trial buffers, and the two evaluation records. Every
/// buffer keeps its capacity across Newton steps and backtracking
/// trials, so the steady-state step allocates nothing.
#[derive(Debug, Default)]
struct NewtonWorkspace {
    /// Sparse scatter target: gradient + packed lower-triangular Hessian.
    ws: GradHessWorkspace,
    /// Packed matrix copy consumed by the in-place Cholesky (the ridge
    /// escalation re-copies into it instead of cloning the matrix).
    factor: Vec<f64>,
    /// Negated gradient handed to the linear solve.
    rhs: Vec<f64>,
    /// Newton direction.
    dir: Vec<f64>,
    /// Line-search trial point.
    trial: Vec<f64>,
    /// Term ranges of the records' slots (objective, then constraints).
    bounds: Vec<usize>,
    /// The sweep at the current point `y`, staged by the assembly.
    at_y: EvalRecord,
    /// The sweep at `trial`, filled by the line search; swapped with
    /// `at_y` when the trial is accepted.
    at_trial: EvalRecord,
    /// The solve's distinct terms, when they are shared enough for the
    /// grouped sweep to pay ([`TermDictionary::if_shared`]).
    terms: Option<TermDictionary>,
    /// The constraint that last left the barrier domain in a line-search
    /// walk. Each trial evaluates it first and is rejected on the spot if
    /// it is outside again, before the full sweep and walk.
    sentinel: Option<usize>,
}

impl NewtonWorkspace {
    /// A workspace whose records fit `obj` and `cons`.
    fn new(obj: &LogPosynomial, cons: &[LogPosynomial]) -> Self {
        let mut bounds = Vec::with_capacity(cons.len() + 2);
        bounds.push(0);
        for p in std::iter::once(obj).chain(cons) {
            bounds.push(bounds[bounds.len() - 1] + p.term_count());
        }
        NewtonWorkspace {
            at_y: EvalRecord::new(&bounds),
            at_trial: EvalRecord::new(&bounds),
            bounds,
            terms: TermDictionary::if_shared(std::iter::once(obj).chain(cons)),
            ..NewtonWorkspace::default()
        }
    }
}

/// Shared setup for [`GpProblem::solve`] and
/// [`GpProblem::solve_reference`]: validates the problem data,
/// log-transforms the objective and constraints, and maps the optional
/// warm start into log space.
pub(crate) fn prepare(
    problem: &GpProblem,
    opts: &SolverOptions,
) -> Result<(LogPosynomial, Vec<LogPosynomial>, Vec<f64>), GpError> {
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
        c.body.validate().map_err(|e| GpError::NonFinite {
            stage: "setup",
            detail: format!("constraint '{}': {e}", c.label),
        })?;
    }
    let obj = LogPosynomial::from_posynomial(problem.objective(), dim);
    let cons: Vec<LogPosynomial> = problem
        .constraints()
        .iter()
        .map(|c| LogPosynomial::from_posynomial(&c.body, dim))
        .collect();

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
    Ok((obj, cons, start))
}

/// Shared epilogue: exponentiates the log-space optimum, validates it, and
/// assembles the [`GpSolution`] with its KKT report.
pub(crate) fn finalize(
    problem: &GpProblem,
    obj: &LogPosynomial,
    cons: &[LogPosynomial],
    y: Vec<f64>,
    t_final: f64,
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
    let kkt = KktReport::at_point(obj, cons, &y, t_final);
    smart_trace::emit_with("gp/solve", || {
        vec![
            ("dim", problem.dim().into()),
            ("constraints", cons.len().into()),
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
        let (obj, cons, start) = prepare(self, opts)?;
        let mut nw = NewtonWorkspace::new(&obj, &cons);
        let mut phase1_steps = 0;
        let y0 = if cons.is_empty() {
            start
        } else {
            phase1(&cons, start, opts, &mut phase1_steps, &mut nw)?
        };

        let mut phase2_steps = 0;
        let (y, t_final) = phase2(
            &obj,
            &cons,
            y0,
            opts,
            phase1_steps,
            &mut phase2_steps,
            &mut nw,
        )?;
        finalize(self, &obj, &cons, y, t_final, phase1_steps, phase2_steps)
    }
}

/// Phase I: minimize slack `s` subject to `Fᵢ(y) ≤ s`; succeeds as soon as a
/// point with `s < -margin` is found.
fn phase1(
    cons: &[LogPosynomial],
    start: Vec<f64>,
    opts: &SolverOptions,
    steps: &mut usize,
    nw: &mut NewtonWorkspace,
) -> Result<Vec<f64>, GpError> {
    let NewtonWorkspace {
        ws,
        factor,
        rhs,
        dir,
        trial,
        bounds,
        at_y,
        at_trial,
        terms,
        sentinel,
    } = nw;
    let dim = start.len();
    let mut y = start;
    // The worst constraint value of a fully swept record.
    let worst = |rec: &EvalRecord| {
        rec.values[1..]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    };
    // The start sweep fills the record the first assembly stages from.
    if !at_y.sweep_grouped(terms, &y, 1) {
        for (i, c) in cons.iter().enumerate() {
            at_y.eval(bounds, i + 1, c, &y);
        }
    }
    let mut s = worst(at_y) + 1.0;
    if s - 1.0 < -opts.feasibility_margin {
        return Ok(y); // the start is already strictly feasible
    }

    // Start the barrier at t ≈ m: for small t the centering point has
    // slack s ≈ m/t, which un-tethers every constraint and lets the
    // iterate drift; at t = m the initial slack stays O(1).
    let mut t = 1.0f64.max(cons.len() as f64);
    for _ in 0..opts.max_outer_iter {
        // Centering on φ(y,s) = t·s − Σ log(s − Fᵢ(y)), assembled sparsely
        // over the slack-augmented space (the slack is coordinate `dim`).
        for _ in 0..opts.max_newton_iter {
            *steps += 1;
            check_budget(opts, "phase1", *steps)?;
            let n = dim + 1;
            ws.reset(n);
            ws.grad_mut()[dim] = t;
            // The barrier value at (y, s) comes from the record's values,
            // combined in the same order as the line search, so `f0` is
            // bit-identical to a separate evaluation.
            let mut f0 = t * s;
            for (i, c) in cons.iter().enumerate() {
                let g = s - at_y.values[i + 1];
                if g <= 0.0 {
                    return Err(GpError::Numerical {
                        stage: "phase1",
                        detail: "iterate left the barrier domain".into(),
                    });
                }
                f0 -= g.ln();
                let inv = 1.0 / g;
                let inv2 = inv * inv;
                at_y.stage(bounds, i + 1, c, ws);
                // y-block of −∇²log(s−F): inv²·ffᵀ + inv·∇²F, …
                ws.scatter_staged(inv, inv, inv2);
                // … the s-row cross terms −inv²·f, …
                ws.scatter_staged_row(dim, -inv2);
                // … and the s-part: ∂φ/∂s gains −inv, ∂²φ/∂s² gains inv².
                ws.grad_mut()[dim] -= inv;
                ws.add_hess(dim, dim, inv2);
            }
            rhs.clear();
            rhs.extend(ws.grad().iter().map(|&g| -g));
            solve_spd_ridged_packed(ws.hess_packed(), n, rhs, factor, dir);
            let decrement2 = -dot(ws.grad(), dir);
            if decrement2 / 2.0 < opts.newton_tol {
                break;
            }
            // Backtracking line search keeping s − Fᵢ > 0. Each trial
            // sweeps into `at_trial`; the accepted one becomes `at_y`.
            // Cap the step so the phase-I recession direction (s → −∞ with
            // g fixed) cannot fling the iterate outside the sanity box
            // before the early feasibility return fires.
            let mut alpha = (MAX_STEP / norm(dir)).min(1.0);
            let slope = dot(ws.grad(), dir);
            let mut accepted = false;
            let (mut trials, mut outside) = (0usize, 0usize);
            for _ in 0..60 {
                trials += 1;
                trial.clear();
                trial.extend_from_slice(&y);
                axpy(alpha, &dir[..dim], trial);
                let sn = s + alpha * dir[dim];
                let leaves = |cv: f64| sn - cv <= 0.0;
                let mut fv = t * sn;
                // A trial with any constraint outside the domain is
                // rejected whatever the others give, so testing the
                // sentinel first changes no trial's outcome.
                let mut inside = sentinel
                    .is_none_or(|i| !leaves(at_trial.eval(bounds, i + 1, &cons[i], trial)));
                if inside {
                    // A grouped sweep evaluates every slot up front; the
                    // walk below reads the same values in the same order.
                    let swept = at_trial.sweep_grouped(terms, trial, 1);
                    for (i, c) in cons.iter().enumerate() {
                        let cv = if swept || *sentinel == Some(i) {
                            at_trial.values[i + 1]
                        } else {
                            at_trial.eval(bounds, i + 1, c, trial)
                        };
                        if leaves(cv) {
                            inside = false;
                            *sentinel = Some(i);
                            break;
                        }
                        fv -= (sn - cv).ln();
                    }
                }
                if !inside {
                    outside += 1;
                } else if fv <= f0 + 0.25 * alpha * slope {
                    std::mem::swap(&mut y, trial);
                    std::mem::swap(at_y, at_trial);
                    s = sn;
                    accepted = true;
                    break;
                }
                alpha *= 0.5;
            }
            emit_newton("phase1", *steps, decrement2 / 2.0, alpha, trials, outside, accepted);
            if !accepted {
                break; // stalled; outer loop will tighten or fail
            }
            // Return on *actual* strict feasibility of y, not only via the
            // slack s — the slack can lag while the barrier drifts along
            // directions where some gᵢ grows without bound.
            if s < -opts.feasibility_margin || worst(at_y) < -opts.feasibility_margin {
                return Ok(y);
            }
            // NaN never compares > Y_BOUND, so catch it explicitly before
            // the escape check — a NaN iterate must become a typed error,
            // not a NaN solution.
            if y.iter().any(|v| !v.is_finite()) {
                return Err(GpError::NonFinite {
                    stage: "phase1",
                    detail: "iterate became non-finite".into(),
                });
            }
            if y.iter().any(|v| v.abs() > Y_BOUND) {
                // Formerly an eprintln! behind SMART_GP_DEBUG: the escape
                // diagnosis is now a structured trace event, visible in
                // any traced run instead of a raw stderr side channel.
                smart_trace::emit_with("gp/escape", || {
                    let (i, v) = max_abs_coord(&y);
                    vec![
                        ("stage", "phase1".into()),
                        ("coord", i.into()),
                        ("value", v.into()),
                        ("s", s.into()),
                        ("t", t.into()),
                    ]
                });
                return Err(GpError::Unbounded);
            }
        }
        if s < -opts.feasibility_margin {
            return Ok(y);
        }
        if cons.len() as f64 / t < opts.tol {
            break;
        }
        t *= opts.mu;
    }
    // `finalize` emits `gp/solve` only for a solve that succeeds; this
    // event accounts for the Newton steps of one that phase I gave up on.
    let worst_violation = worst(at_y).exp();
    smart_trace::emit_with("gp/infeasible", || {
        vec![
            ("phase1_steps", (*steps).into()),
            ("worst_violation", worst_violation.into()),
        ]
    });
    Err(GpError::Infeasible { worst_violation })
}

/// Phase II: barrier method on `t·F₀(y) − Σ log(−Fᵢ(y))` from a strictly
/// feasible start.
#[allow(clippy::too_many_arguments)]
fn phase2(
    obj: &LogPosynomial,
    cons: &[LogPosynomial],
    mut y: Vec<f64>,
    opts: &SolverOptions,
    spent_before: usize,
    steps: &mut usize,
    nw: &mut NewtonWorkspace,
) -> Result<(Vec<f64>, f64), GpError> {
    let NewtonWorkspace {
        ws,
        factor,
        rhs,
        dir,
        trial,
        bounds,
        at_y,
        at_trial,
        terms,
        sentinel,
    } = nw;
    let dim = y.len();
    let m = cons.len();
    let mut t: f64 = 1.0f64.max(m as f64);

    // The phase's one evaluation at a point it did not reach by a line
    // search; every later assembly stages from the accepted trial's sweep.
    if !at_y.sweep_grouped(terms, &y, 0) {
        at_y.eval(bounds, 0, obj, &y);
        for (i, c) in cons.iter().enumerate() {
            at_y.eval(bounds, i + 1, c, &y);
        }
    }

    loop {
        // Centering.
        for _ in 0..opts.max_newton_iter {
            *steps += 1;
            check_budget(opts, "phase2", spent_before + *steps)?;
            ws.reset(dim);
            // The objective contributes t·∇F₀ and t·∇²F₀ (no rank-one
            // barrier piece). As in phase I, the barrier value `f0` comes
            // from the record, in the same order as the line search.
            at_y.stage(bounds, 0, obj, ws);
            ws.scatter_staged(t, t, 0.0);
            let mut f0 = t * at_y.values[0];
            for (i, c) in cons.iter().enumerate() {
                let fv = at_y.values[i + 1];
                if fv >= 0.0 {
                    return Err(GpError::Numerical {
                        stage: "phase2",
                        detail: "iterate left the feasible interior".into(),
                    });
                }
                f0 -= (-fv).ln();
                let inv = -1.0 / fv; // 1/(−Fᵢ) > 0
                let inv2 = inv * inv;
                at_y.stage(bounds, i + 1, c, ws);
                ws.scatter_staged(inv, inv, inv2);
            }
            rhs.clear();
            rhs.extend(ws.grad().iter().map(|&g| -g));
            solve_spd_ridged_packed(ws.hess_packed(), dim, rhs, factor, dir);
            let decrement2 = -dot(ws.grad(), dir);
            if decrement2.abs() / 2.0 < opts.newton_tol {
                break;
            }
            let slope = dot(ws.grad(), dir);
            let mut alpha = (MAX_STEP / norm(dir)).min(1.0);
            let mut accepted = false;
            let (mut trials, mut outside) = (0usize, 0usize);
            for _ in 0..60 {
                trials += 1;
                trial.clear();
                trial.extend_from_slice(&y);
                axpy(alpha, dir, trial);
                let leaves = |cv: f64| cv >= 0.0;
                // The sentinel first, as in phase I.
                let mut inside = sentinel
                    .is_none_or(|i| !leaves(at_trial.eval(bounds, i + 1, &cons[i], trial)));
                let mut fv = 0.0;
                if inside {
                    let swept = at_trial.sweep_grouped(terms, trial, 0);
                    let f = if swept {
                        at_trial.values[0]
                    } else {
                        at_trial.eval(bounds, 0, obj, trial)
                    };
                    fv = t * f;
                    for (i, c) in cons.iter().enumerate() {
                        let cv = if swept || *sentinel == Some(i) {
                            at_trial.values[i + 1]
                        } else {
                            at_trial.eval(bounds, i + 1, c, trial)
                        };
                        if leaves(cv) {
                            inside = false;
                            *sentinel = Some(i);
                            break;
                        }
                        fv -= (-cv).ln();
                    }
                }
                if !inside {
                    outside += 1;
                } else if fv <= f0 + 0.25 * alpha * slope {
                    std::mem::swap(&mut y, trial);
                    std::mem::swap(at_y, at_trial);
                    accepted = true;
                    break;
                }
                alpha *= 0.5;
            }
            let residual = decrement2.abs() / 2.0;
            emit_newton("phase2", *steps, residual, alpha, trials, outside, accepted);
            if !accepted {
                break;
            }
            if y.iter().any(|v| !v.is_finite()) {
                return Err(GpError::NonFinite {
                    stage: "phase2",
                    detail: "iterate became non-finite".into(),
                });
            }
            if y.iter().any(|v| v.abs() > Y_BOUND) {
                // Formerly an eprintln! behind SMART_GP_DEBUG (see the
                // phase-1 twin above).
                smart_trace::emit_with("gp/escape", || {
                    let (i, v) = max_abs_coord(&y);
                    vec![
                        ("stage", "phase2".into()),
                        ("coord", i.into()),
                        ("value", v.into()),
                        ("t", t.into()),
                        ("alpha", alpha.into()),
                    ]
                });
                return Err(GpError::Unbounded);
            }
            if norm(dir) * alpha < 1e-14 {
                break;
            }
        }
        if m == 0 || (m as f64) / t < opts.tol {
            return Ok((y, t));
        }
        t *= opts.mu;
        if t > 1e18 {
            return Ok((y, t));
        }
    }
}
