//! Dense reference solver — the oracle for the sparse production kernel.
//!
//! [`GpProblem::solve_reference`] runs the same barrier pipeline as
//! [`GpProblem::solve`] but assembles every Newton system densely: each
//! posynomial evaluates through [`LogPosynomial::value_grad_hess`] (fresh
//! `dim×dim` matrix per constraint per step) and the system is solved
//! with the historical `Vec<Vec<f64>>` Cholesky. Both kernels compute the
//! same sums in the same order, so the differential parity suite can pin
//! the sparse path against this one to near machine precision. Use it
//! only in tests — it is the O(m·n²) path the production kernel exists to
//! avoid. Its line search is the plain walk over every constraint, and it
//! emits the same `gp/newton` events, so a test can compare the two line
//! searches trial for trial.

use smart_posy::LogPosynomial;

use crate::linalg::{axpy, dot, norm, solve_spd_ridged};
use crate::solver::{check_budget, emit_newton, finalize, prepare, MAX_STEP, Y_BOUND};
use crate::{GpError, GpProblem, GpSolution, SolverOptions};

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
        let (obj, cons, start) = prepare(self, opts)?;
        let mut phase1_steps = 0;
        let y0 = if cons.is_empty() {
            start
        } else {
            phase1_dense(&cons, start, opts, &mut phase1_steps)?
        };
        let mut phase2_steps = 0;
        let (y, t_final) = phase2_dense(&obj, &cons, y0, opts, phase1_steps, &mut phase2_steps)?;
        finalize(self, &obj, &cons, y, t_final, phase1_steps, phase2_steps)
    }
}

/// Dense phase I: minimize slack `s` subject to `Fᵢ(y) ≤ s`.
fn phase1_dense(
    cons: &[LogPosynomial],
    start: Vec<f64>,
    opts: &SolverOptions,
    steps: &mut usize,
) -> Result<Vec<f64>, GpError> {
    let dim = start.len();
    let mut y = start;
    let worst = |y: &[f64]| -> f64 {
        cons.iter()
            .map(|c| c.value(y))
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let mut s = worst(&y) + 1.0;
    if s - 1.0 < -opts.feasibility_margin {
        return Ok(y);
    }

    let mut t = 1.0f64.max(cons.len() as f64);
    for _ in 0..opts.max_outer_iter {
        // Centering on φ(y,s) = t·s − Σ log(s − Fᵢ(y)).
        for _ in 0..opts.max_newton_iter {
            *steps += 1;
            check_budget(opts, "phase1", *steps)?;
            let n = dim + 1;
            let mut grad = vec![0.0; n];
            let mut hess = vec![vec![0.0; n]; n];
            grad[dim] = t;
            let mut domain_ok = true;
            for c in cons {
                let (fv, fg, fh) = c.value_grad_hess(&y);
                let g = s - fv;
                if g <= 0.0 {
                    domain_ok = false;
                    break;
                }
                let inv = 1.0 / g;
                let inv2 = inv * inv;
                for i in 0..dim {
                    grad[i] += inv * fg[i];
                    for j in 0..dim {
                        hess[i][j] += inv2 * fg[i] * fg[j] + inv * fh[i][j];
                    }
                    hess[i][dim] -= inv2 * fg[i];
                    hess[dim][i] -= inv2 * fg[i];
                }
                // s-part: ∂φ/∂s gains −inv, ∂²φ/∂s² gains inv².
                grad[dim] -= inv;
                hess[dim][dim] += inv2;
            }
            if !domain_ok {
                return Err(GpError::Numerical {
                    stage: "phase1",
                    detail: "iterate left the barrier domain".into(),
                });
            }
            let neg_grad: Vec<f64> = grad.iter().map(|&g| -g).collect();
            let (d, _) = solve_spd_ridged(&hess, &neg_grad);
            let decrement2 = -dot(&grad, &d);
            if decrement2 / 2.0 < opts.newton_tol {
                break;
            }
            let value = |y: &[f64], s: f64| -> Option<f64> {
                let mut v = t * s;
                for c in cons {
                    let g = s - c.value(y);
                    if g <= 0.0 {
                        return None;
                    }
                    v -= g.ln();
                }
                Some(v)
            };
            let f0 = value(&y, s).ok_or(GpError::Numerical {
                stage: "phase1",
                detail: "current point infeasible for barrier".into(),
            })?;
            let mut alpha = (MAX_STEP / norm(&d)).min(1.0);
            let slope = dot(&grad, &d);
            let mut accepted = false;
            let (mut trials, mut outside) = (0usize, 0usize);
            for _ in 0..60 {
                trials += 1;
                let mut yn = y.clone();
                axpy(alpha, &d[..dim], &mut yn);
                let sn = s + alpha * d[dim];
                match value(&yn, sn) {
                    Some(fv) if fv <= f0 + 0.25 * alpha * slope => {
                        y = yn;
                        s = sn;
                        accepted = true;
                        break;
                    }
                    Some(_) => {}
                    None => outside += 1,
                }
                alpha *= 0.5;
            }
            emit_newton("phase1", *steps, decrement2 / 2.0, alpha, trials, outside, accepted);
            if !accepted {
                break;
            }
            if s < -opts.feasibility_margin || worst(&y) < -opts.feasibility_margin {
                return Ok(y);
            }
            if y.iter().any(|v| !v.is_finite()) {
                return Err(GpError::NonFinite {
                    stage: "phase1",
                    detail: "iterate became non-finite".into(),
                });
            }
            if y.iter().any(|v| v.abs() > Y_BOUND) {
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
    Err(GpError::Infeasible {
        worst_violation: worst(&y).exp(),
    })
}

/// Dense phase II: barrier method on `t·F₀(y) − Σ log(−Fᵢ(y))`.
fn phase2_dense(
    obj: &LogPosynomial,
    cons: &[LogPosynomial],
    mut y: Vec<f64>,
    opts: &SolverOptions,
    spent_before: usize,
    steps: &mut usize,
) -> Result<(Vec<f64>, f64), GpError> {
    let dim = y.len();
    let m = cons.len();
    let mut t: f64 = 1.0f64.max(m as f64);

    let value = |y: &[f64], t: f64| -> Option<f64> {
        let mut v = t * obj.value(y);
        for c in cons {
            let fv = c.value(y);
            if fv >= 0.0 {
                return None;
            }
            v -= (-fv).ln();
        }
        Some(v)
    };

    loop {
        for _ in 0..opts.max_newton_iter {
            *steps += 1;
            check_budget(opts, "phase2", spent_before + *steps)?;
            let (_, og, oh) = obj.value_grad_hess(&y);
            let mut grad: Vec<f64> = og.iter().map(|&g| t * g).collect();
            let mut hess: Vec<Vec<f64>> = oh
                .iter()
                .map(|row| row.iter().map(|&h| t * h).collect())
                .collect();
            for c in cons {
                let (fv, fg, fh) = c.value_grad_hess(&y);
                if fv >= 0.0 {
                    return Err(GpError::Numerical {
                        stage: "phase2",
                        detail: "iterate left the feasible interior".into(),
                    });
                }
                let inv = -1.0 / fv;
                let inv2 = inv * inv;
                for i in 0..dim {
                    grad[i] += inv * fg[i];
                    for j in 0..dim {
                        hess[i][j] += inv2 * fg[i] * fg[j] + inv * fh[i][j];
                    }
                }
            }
            let neg_grad: Vec<f64> = grad.iter().map(|&g| -g).collect();
            let (d, _) = solve_spd_ridged(&hess, &neg_grad);
            let decrement2 = -dot(&grad, &d);
            if decrement2.abs() / 2.0 < opts.newton_tol {
                break;
            }
            let f0 = value(&y, t).ok_or(GpError::Numerical {
                stage: "phase2",
                detail: "lost feasibility before line search".into(),
            })?;
            let slope = dot(&grad, &d);
            let mut alpha = (MAX_STEP / norm(&d)).min(1.0);
            let mut accepted = false;
            let (mut trials, mut outside) = (0usize, 0usize);
            for _ in 0..60 {
                trials += 1;
                let mut yn = y.clone();
                axpy(alpha, &d, &mut yn);
                match value(&yn, t) {
                    Some(fv) if fv <= f0 + 0.25 * alpha * slope => {
                        y = yn;
                        accepted = true;
                        break;
                    }
                    Some(_) => {}
                    None => outside += 1,
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
                return Err(GpError::Unbounded);
            }
            if norm(&d) * alpha < 1e-14 {
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
