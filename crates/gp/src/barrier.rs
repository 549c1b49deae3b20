//! The barrier method, written once (Boyd & Vandenberghe §11.3–11.4):
//! phase I is the same method run on a slack-augmented problem. [`run`]
//! drives one outer `t` loop, one centering loop and one backtracking
//! line search for both phases. Two seams carry what differs:
//!
//! * the [`Phase`] supplies the barrier terms beyond the constraints', a
//!   point's domain test and barrier value, and the stopping rules;
//! * the [`Kernel`] supplies how a Newton system is assembled and solved
//!   and how a point's posynomials are evaluated: sparse in `solver.rs`,
//!   dense (the oracle) in `reference.rs`. The loop is generic over it,
//!   so the sparse path has no dynamic dispatch.

use std::time::Instant;

use smart_trace::Value;

use crate::linalg::{axpy, dot, norm};
use crate::{GpError, SolverOptions};

/// Target duality-gap estimate `m/t` at termination.
const TOL: f64 = 1e-8;

/// Newton decrement threshold for each centering problem.
const NEWTON_TOL: f64 = 1e-10;

/// Barrier parameter multiplier per outer iteration.
const MU: f64 = 20.0;

/// Maximum Newton iterations per centering problem.
const MAX_NEWTON_ITER: usize = 200;

/// Maximum outer (barrier) iterations. Phase II never reaches it: its `t`
/// passes its cap within 14 of them.
const MAX_OUTER_ITER: usize = 100;

/// Phase-I slack below which the point counts as strictly feasible.
const FEASIBILITY_MARGIN: f64 = 1e-7;

/// Hard cap on `‖y‖∞` (log-space); beyond this the problem is declared
/// unbounded (x outside `[e⁻⁴⁰, e⁴⁰]` is physically meaningless for sizes).
const Y_BOUND: f64 = 40.0;

/// Trust-region-style cap on a single Newton step in log space.
const MAX_STEP: f64 = 8.0;

/// How a Newton system is assembled and solved, and how a point's
/// posynomials are evaluated. Slot 0 is the objective, slot `i + 1`
/// constraint `i`.
pub(crate) trait Kernel {
    /// Makes `y` the current point, evaluating slots `first..`.
    fn sweep(&mut self, y: &[f64], first: usize);
    /// Evaluates slot `j` alone at the current point `y`, with the bits
    /// [`sweep`](Self::sweep) would give it.
    fn sweep_slot(&mut self, y: &[f64], j: usize);
    /// Every slot's value at the current point.
    fn values(&self) -> &[f64];
    /// Starts a Newton system over `n` coordinates at the current point
    /// `y`.
    fn reset(&mut self, y: &[f64], n: usize);
    /// Adds `scale·∇F` to the gradient and `outer·∇F∇Fᵀ + scale·∇²F` to
    /// the Hessian, `F` slot `j` at the current point.
    fn add_slot(&mut self, j: usize, scale: f64, outer: f64);
    /// Adds `scale·∇F` of the last added slot to Hessian row and column
    /// `row`.
    fn add_cross(&mut self, row: usize, scale: f64);
    /// Adds `g` to gradient entry `i` and `h` to Hessian entry `(i, i)`.
    fn add_diag(&mut self, i: usize, g: f64, h: f64);
    /// Solves the system for the Newton direction, into `dir`; returns the
    /// gradient.
    fn direction(&mut self, dir: &mut Vec<f64>) -> &[f64];
    /// Starts a trial at `y`, whose walk reads slots `first..`. Returns
    /// `false` to reject it at once, which a kernel may do only on a slot
    /// value that `leaves` the barrier domain; by default it never does.
    fn trial_begin(&mut self, _y: &[f64], _first: usize, _leaves: impl Fn(f64) -> bool) -> bool {
        true
    }
    /// Slot `j`'s value at the trial point `y`.
    fn trial_value(&mut self, j: usize, y: &[f64]) -> f64;
    /// Slot `j` left the barrier domain at the trial point.
    fn trial_left(&mut self, _j: usize) {}
    /// Makes the trial point current.
    fn accept(&mut self);
}

/// A barrier phase. The iterate `z` is the point `y`, followed in phase I
/// by the slack `s`.
#[derive(Clone, Copy)]
enum Phase {
    /// Phase I: minimise `s` subject to `Fᵢ(y) ≤ s`, the barrier
    /// `t·s − Σ log(s − Fᵢ(y))`; it ends once `y` is strictly feasible.
    Feasibility,
    /// Phase II: the barrier `t·F₀(y) − Σ log(−Fᵢ(y))` from a strictly
    /// feasible start, until the gap estimate `m/t` is below tolerance.
    Optimality,
}

use Phase::{Feasibility, Optimality};

/// The worst constraint value of fully evaluated slot values.
fn worst(values: &[f64]) -> f64 {
    values[1..].iter().fold(f64::NEG_INFINITY, |w, &v| w.max(v))
}

impl Phase {
    fn stage(self) -> &'static str {
        match self {
            Feasibility => "phase1",
            Optimality => "phase2",
        }
    }

    /// The first slot the phase reads: phase I never reads the objective.
    fn first_slot(self) -> usize {
        usize::from(matches!(self, Feasibility))
    }

    /// The point `y` of the iterate `z`.
    fn y(self, z: &[f64]) -> &[f64] {
        match self {
            Feasibility => &z[..z.len() - 1],
            Optimality => z,
        }
    }

    /// What `t` multiplies in the barrier value at `z`, given the
    /// objective's value on demand.
    fn lead(self, z: &[f64], objective: impl FnOnce() -> f64) -> f64 {
        match self {
            Feasibility => z[z.len() - 1],
            Optimality => objective(),
        }
    }

    /// The barrier argument at `z` of a constraint of value `cv`: `z` is
    /// inside the barrier domain while it is positive.
    fn gap(self, z: &[f64], cv: f64) -> f64 {
        match self {
            Feasibility => z[z.len() - 1] - cv,
            Optimality => -cv,
        }
    }

    /// Adds the terms of `t·lead` to the Newton system.
    fn begin<K: Kernel>(self, k: &mut K, z: &[f64], t: f64) {
        match self {
            Feasibility => k.add_diag(z.len() - 1, t, 0.0),
            Optimality => k.add_slot(0, t, 0.0),
        }
    }

    /// Adds what the barrier term of weight `inv` just added couples to the
    /// slack: `−inv²·∇F` across, `−inv` to `∂φ/∂s`, `inv²` to `∂²φ/∂s²`.
    fn couple<K: Kernel>(self, k: &mut K, z: &[f64], inv: f64) {
        if let Feasibility = self {
            k.add_cross(z.len() - 1, -inv * inv);
            k.add_diag(z.len() - 1, -inv, inv * inv);
        }
    }

    /// The centering residual of the Newton decrement `λ²`: signed in
    /// phase I, absolute in phase II.
    fn residual(self, decrement2: f64) -> f64 {
        match self {
            Feasibility => decrement2 / 2.0,
            Optimality => decrement2.abs() / 2.0,
        }
    }

    /// Whether the accepted point `z` ends the phase with success. Phase I
    /// tests `y` itself, not only the slack: the slack can lag while the
    /// barrier drifts along directions where some gap grows without bound.
    fn reached(self, z: &[f64], values: &[f64]) -> bool {
        match self {
            Feasibility => {
                z[z.len() - 1] < -FEASIBILITY_MARGIN || worst(values) < -FEASIBILITY_MARGIN
            }
            Optimality => false,
        }
    }

    /// Whether an accepted step of length `‖α·d‖` ends the centering:
    /// only phase II stops on a vanishing step.
    fn step_ends_centering(self, step: f64) -> bool {
        matches!(self, Optimality) && step < 1e-14
    }

    /// Whether `t` ends the schedule: only phase II caps it.
    fn t_capped(self, t: f64) -> bool {
        matches!(self, Optimality) && t > 1e18
    }

    /// The phase's two fields of a `gp/escape` event.
    fn escape_fields(self, z: &[f64], t: f64, alpha: f64) -> [(&'static str, Value); 2] {
        match self {
            Feasibility => [("s", z[z.len() - 1].into()), ("t", t.into())],
            Optimality => [("t", t.into()), ("alpha", alpha.into())],
        }
    }

    /// The outcome when the schedule ends at `t` without the phase being
    /// reached, after `steps` Newton steps at slot values `values`.
    fn finish(self, values: &[f64], steps: usize, t: f64) -> Result<f64, GpError> {
        if let Optimality = self {
            return Ok(t);
        }
        // `finalize` emits `gp/solve` only for a solve that succeeds; this
        // event accounts for the Newton steps of one phase I gave up on.
        let worst_violation = worst(values).exp();
        smart_trace::emit_with("gp/infeasible", || {
            vec![
                ("phase1_steps", steps.into()),
                ("worst_violation", worst_violation.into()),
            ]
        });
        Err(GpError::Infeasible { worst_violation })
    }
}

/// Cooperative budget check, called once per Newton step (a step costs a
/// Hessian assembly + factorization, so the `Instant::now()` call is
/// negligible against it).
fn check_budget(
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

/// Solves from `start` on kernel `k`: phase I unless the start is already
/// strictly feasible, then phase II. Returns the log-space optimum, which
/// is `k`'s current point, the final `t` and each phase's Newton steps.
pub(crate) fn run<K: Kernel>(
    k: &mut K,
    start: Vec<f64>,
    opts: &SolverOptions,
) -> Result<(Vec<f64>, f64, usize, usize), GpError> {
    let mut z = start;
    let mut phase1_steps = 0;
    if k.values().len() > 1 {
        // The start sweep gives the initial slack.
        k.sweep(&z, Feasibility.first_slot());
        let s = worst(k.values()) + 1.0;
        let feasible = s - 1.0 < -FEASIBILITY_MARGIN;
        if !feasible {
            z.push(s);
            barrier(Feasibility, k, &mut z, opts, 0, &mut phase1_steps)?;
            z.pop();
        }
    }
    // The start sweep or phase I's last accepted trial evaluated every
    // constraint at `z`; only the objective, which phase I never reads,
    // is stale.
    k.sweep_slot(&z, 0);
    let mut phase2_steps = 0;
    let t = barrier(Optimality, k, &mut z, opts, phase1_steps, &mut phase2_steps)?;
    Ok((z, t, phase1_steps, phase2_steps))
}

/// `phase`'s barrier method from the iterate `z`, the kernel's current
/// point: centering by damped Newton steps, then a geometric increase of
/// `t`, until the phase is reached or its schedule ends. Returns the final
/// `t`; `z` is left at the last accepted point.
fn barrier<K: Kernel>(
    phase: Phase,
    k: &mut K,
    z: &mut Vec<f64>,
    opts: &SolverOptions,
    spent_before: usize,
    steps: &mut usize,
) -> Result<f64, GpError> {
    let (mut trial, mut dir) = (Vec::with_capacity(z.len()), Vec::with_capacity(z.len()));
    // Start the barrier at t ≈ m: for small t phase I's centering point
    // has slack s ≈ m/t, which un-tethers every constraint and lets the
    // iterate drift; at t = m the initial slack stays O(1).
    let m = k.values().len() - 1;
    let mut t = 1.0f64.max(m as f64);
    for _ in 0..MAX_OUTER_ITER {
        for _ in 0..MAX_NEWTON_ITER {
            *steps += 1;
            check_budget(opts, phase.stage(), spent_before + *steps)?;
            let f0 = assemble(phase, k, z, t)?;
            let slope = dot(k.direction(&mut dir), &dir);
            let residual = phase.residual(-slope);
            let (mut alpha, mut trials, mut outside, mut accepted) = (0.0, 0usize, 0usize, false);
            // A step whose decrement ends its centering runs no line
            // search and reports no trial.
            let centred = residual < NEWTON_TOL;
            if !centred {
                // Backtracking (Armijo) line search. The step cap keeps
                // phase I's recession direction (s → −∞ with the gaps
                // fixed) from flinging the iterate outside the sanity box
                // before its feasibility return fires.
                alpha = (MAX_STEP / norm(&dir)).min(1.0);
                while trials < 60 {
                    trials += 1;
                    trial.clear();
                    trial.extend_from_slice(z);
                    axpy(alpha, &dir, &mut trial);
                    match trial_value(phase, k, t, &trial) {
                        None => outside += 1,
                        Some(fv) if fv <= f0 + 0.25 * alpha * slope => {
                            std::mem::swap(z, &mut trial);
                            k.accept();
                            accepted = true;
                            break;
                        }
                        Some(_) => {}
                    }
                    alpha *= 0.5;
                }
            }
            smart_trace::emit_with("gp/newton", || {
                vec![
                    ("stage", phase.stage().into()),
                    ("step", (*steps).into()),
                    ("residual", residual.into()),
                    ("alpha", alpha.into()),
                    ("trials", trials.into()),
                    ("outside", outside.into()),
                    ("accepted", accepted.into()),
                ]
            });
            if !accepted {
                break; // centred or stalled; the outer loop tightens or ends
            }
            if phase.reached(z, k.values()) {
                return Ok(t);
            }
            let y = phase.y(z);
            // NaN never compares > Y_BOUND, so catch it explicitly before
            // the escape check: a NaN iterate must become a typed error,
            // not a NaN solution.
            if y.iter().any(|v| !v.is_finite()) {
                return Err(GpError::NonFinite {
                    stage: phase.stage(),
                    detail: "iterate became non-finite".into(),
                });
            }
            if y.iter().any(|v| v.abs() > Y_BOUND) {
                smart_trace::emit_with("gp/escape", || {
                    // The largest-magnitude coordinate, the first of
                    // equals (y is finite here).
                    let (i, &v) = y
                        .iter()
                        .enumerate()
                        .min_by(|a, b| b.1.abs().total_cmp(&a.1.abs()))
                        .unwrap_or((0, &0.0));
                    let mut fields = vec![
                        ("stage", phase.stage().into()),
                        ("coord", i.into()),
                        ("value", v.into()),
                    ];
                    fields.extend(phase.escape_fields(z, t, alpha));
                    fields
                });
                return Err(GpError::Unbounded);
            }
            if phase.step_ends_centering(norm(&dir) * alpha) {
                break;
            }
        }
        if m as f64 / t < TOL {
            break;
        }
        t *= MU;
        if phase.t_capped(t) {
            break;
        }
    }
    phase.finish(k.values(), *steps, t)
}

/// Assembles `phase`'s Newton system at the kernel's current point `z`;
/// returns the barrier value there, folded from the point's slot values in
/// the order [`trial_value`] folds a trial's, so the two compare bit for
/// bit.
fn assemble<K: Kernel>(phase: Phase, k: &mut K, z: &[f64], t: f64) -> Result<f64, GpError> {
    k.reset(phase.y(z), z.len());
    phase.begin(k, z, t);
    let mut f0 = t * phase.lead(z, || k.values()[0]);
    for j in 1..k.values().len() {
        let g = phase.gap(z, k.values()[j]);
        if g <= 0.0 {
            return Err(GpError::Numerical {
                stage: phase.stage(),
                detail: "iterate left the barrier domain".into(),
            });
        }
        f0 -= g.ln();
        let inv = 1.0 / g;
        k.add_slot(j, inv, inv * inv);
        phase.couple(k, z, inv);
    }
    Ok(f0)
}

/// `phase`'s barrier value at `trial`, or `None` if a constraint leaves the
/// barrier domain there; the walk stops at the first that does.
fn trial_value<K: Kernel>(phase: Phase, k: &mut K, t: f64, trial: &[f64]) -> Option<f64> {
    let y = phase.y(trial);
    if !k.trial_begin(y, phase.first_slot(), |cv| phase.gap(trial, cv) <= 0.0) {
        return None;
    }
    let mut fv = t * phase.lead(trial, || k.trial_value(0, y));
    for j in 1..k.values().len() {
        let g = phase.gap(trial, k.trial_value(j, y));
        if g <= 0.0 {
            k.trial_left(j);
            return None;
        }
        fv -= g.ln();
    }
    Some(fv)
}
