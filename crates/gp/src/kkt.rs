//! First-order (KKT) optimality diagnostics for a solved GP.

use smart_posy::LogPosynomial;

use crate::linalg::norm;
use crate::solver::EvalRecord;

/// Karush-Kuhn-Tucker residuals at a candidate optimum, computed in the
/// convex log-space formulation.
///
/// The barrier method's centering condition gives the multiplier estimates
/// `λᵢ = 1 / (t · (−Fᵢ(y)))`; at convergence, stationarity
/// `‖∇F₀ + Σ λᵢ∇Fᵢ‖` is small and the duality-gap estimate is `m/t`.
/// Tests assert these residuals rather than comparing against magic optimal
/// values.
#[derive(Debug, Clone)]
pub struct KktReport {
    /// `‖∇F₀(y) + Σ λᵢ ∇Fᵢ(y)‖₂` with the barrier multiplier estimates.
    pub stationarity: f64,
    /// Estimated duality gap `m/t` at the final barrier parameter.
    pub duality_gap: f64,
    /// Multiplier estimates, one per constraint (empty if unconstrained).
    pub multipliers: Vec<f64>,
    /// `max(0, Fᵢ(y))` over all constraints — primal infeasibility in
    /// log-space (0 when strictly feasible).
    pub primal_infeasibility: f64,
}

impl KktReport {
    /// Computes the report from `at_y`, the sweep of the objective and
    /// every constraint at the final log-point, with the solver's final
    /// barrier parameter `t` (multipliers are the barrier estimates
    /// `1/(t·(−Fᵢ))`). Nothing is evaluated again: the values are the
    /// record's, and each gradient is summed from its kept exponentials
    /// in the order [`LogPosynomial::value_grad_hess`] sums, so at a point
    /// whose term dots are finite the report is bit for bit the one built
    /// from the dense gradient at every posynomial.
    pub(crate) fn from_sweep(
        obj: &LogPosynomial<'_>,
        cons: &[LogPosynomial<'_>],
        at_y: &EvalRecord,
        t: f64,
    ) -> Self {
        let mut grad = Vec::new();
        let (exps, sum) = at_y.slot(0);
        obj.grad_from_exps(exps, sum, &mut grad);
        let mut r = vec![0.0; obj.dim()];
        for (&v, &g) in obj.support().iter().zip(&grad) {
            r[v] = g;
        }
        let mut multipliers = Vec::with_capacity(cons.len());
        let mut infeas = 0.0f64;
        for (i, c) in cons.iter().enumerate() {
            let fv = at_y.values[i + 1];
            infeas = infeas.max(fv.max(0.0));
            let lambda = if fv < 0.0 {
                1.0 / (t * (-fv))
            } else {
                f64::INFINITY
            };
            multipliers.push(lambda);
            if lambda.is_finite() {
                let (exps, sum) = at_y.slot(i + 1);
                c.grad_from_exps(exps, sum, &mut grad);
                for (&v, &g) in c.support().iter().zip(&grad) {
                    r[v] += lambda * g;
                }
            }
        }
        KktReport {
            stationarity: norm(&r),
            duality_gap: cons.len() as f64 / t,
            multipliers,
            primal_infeasibility: infeas,
        }
    }

    /// Whether the point satisfies first-order optimality within `tol`.
    pub fn is_optimal(&self, tol: f64) -> bool {
        self.stationarity <= tol && self.primal_infeasibility <= tol && self.duality_gap <= tol
    }
}

#[cfg(test)]
mod tests {
    use smart_posy::{Monomial, Posynomial, TermDictionary, VarPool};

    use super::*;
    use crate::GpProblem;

    /// The report built by evaluating the dense gradient
    /// ([`LogPosynomial::value_grad_hess`]) at every posynomial:
    /// the formula [`KktReport::from_sweep`] must reproduce.
    fn dense_report(
        obj: &LogPosynomial<'_>,
        cons: &[LogPosynomial<'_>],
        y: &[f64],
        t: f64,
    ) -> KktReport {
        let (_, mut r, _) = obj.value_grad_hess(y);
        let mut multipliers = Vec::new();
        let mut infeas = 0.0f64;
        for c in cons {
            let (fv, fg, _) = c.value_grad_hess(y);
            infeas = infeas.max(fv.max(0.0));
            let lambda = if fv < 0.0 {
                1.0 / (t * (-fv))
            } else {
                f64::INFINITY
            };
            multipliers.push(lambda);
            if lambda.is_finite() {
                for (ri, gi) in r.iter_mut().zip(&fg) {
                    *ri += lambda * gi;
                }
            }
        }
        let duality_gap = if cons.is_empty() {
            0.0
        } else {
            cons.len() as f64 / t
        };
        KktReport {
            stationarity: norm(&r),
            duality_gap,
            multipliers,
            primal_infeasibility: infeas,
        }
    }

    fn bits(r: &KktReport) -> (u64, u64, u64, Vec<u64>) {
        (
            r.stationarity.to_bits(),
            r.duality_gap.to_bits(),
            r.primal_infeasibility.to_bits(),
            r.multipliers.iter().map(|m| m.to_bits()).collect(),
        )
    }

    /// A small GP whose constraints share terms, plus a variable only a
    /// bound reads.
    fn small_gp() -> GpProblem {
        let mut pool = VarPool::new();
        let w: Vec<_> = (0..4).map(|i| pool.var(&format!("w{i}"))).collect();
        let mut gp = GpProblem::new(pool);
        gp.set_objective(
            Posynomial::var(w[0])
                + Monomial::new(2.0).pow(w[1], 1.0)
                + Monomial::new(0.5).pow(w[3], 1.0),
        );
        let shared = Posynomial::from(Monomial::new(0.3).pow(w[0], -1.0).pow(w[1], 1.0))
            + Monomial::new(0.2).pow(w[1], -1.0);
        for (i, k) in [1.0, 1.5, 0.8].into_iter().enumerate() {
            let body = shared.clone() + Monomial::new(0.1 * k).pow(w[2], -1.0).pow(w[0], 0.5);
            gp.add_le_const(format!("c{i}"), body, 1.0 + k).unwrap();
        }
        gp.add_upper_bound(w[2], 4.0);
        gp.add_lower_bound(w[3], 0.25);
        gp
    }

    #[test]
    fn report_from_a_kept_sweep_matches_the_dense_gradient_bit_for_bit() {
        let gp = small_gp();
        let mut forms = gp.log_form();
        let obj = forms.remove(0);
        let cons = forms;
        let mut dict = TermDictionary::new(gp.table(), std::iter::once(&obj).chain(&cons));
        // Inside the domain, on its edge region (an infinite multiplier)
        // and at the solver's optimum.
        let sol = gp.solve(&Default::default()).unwrap();
        let optimum: Vec<f64> = sol.x.iter().map(|x| x.ln()).collect();
        let points = [
            vec![0.3, 0.1, 0.2, -0.5],
            vec![-3.0, 2.0, -4.0, -2.0],
            optimum,
        ];
        let outside = dense_report(&obj, &cons, &points[1], 37.5);
        assert!(outside.multipliers.contains(&f64::INFINITY));
        for (y, t) in points.iter().zip([1.0, 37.5, 1e9]) {
            let want = bits(&dense_report(&obj, &cons, y, t));
            let mut direct = EvalRecord::new(&obj, &cons);
            direct.eval_all(&obj, &cons, y);
            assert_eq!(bits(&KktReport::from_sweep(&obj, &cons, &direct, t)), want);
            let mut grouped = EvalRecord::new(&obj, &cons);
            dict.sweep(
                y,
                0,
                &mut grouped.exps,
                &mut grouped.sums,
                &mut grouped.values,
            );
            assert_eq!(bits(&KktReport::from_sweep(&obj, &cons, &grouped, t)), want);
        }
        let no_cons = dense_report(&obj, &[], &points[0], 5.0);
        let mut rec = EvalRecord::new(&obj, &[]);
        rec.eval_all(&obj, &[], &points[0]);
        assert_eq!(
            bits(&KktReport::from_sweep(&obj, &[], &rec, 5.0)),
            bits(&no_cons)
        );
    }
}
