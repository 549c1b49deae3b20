//! Randomized solver tests: on seeded random feasible GPs, solutions
//! satisfy all constraints, carry a KKT certificate, cannot be dominated
//! by uniform shrink or random feasible probes, and never contain a
//! non-finite width. Deterministic (fixed seeds via `smart-prng`).

use smart_gp::{GpProblem, SolverOptions};
use smart_posy::{Monomial, Posynomial, VarId, VarPool};
use smart_prng::Prng;

const DIM: usize = 3;
const CASES: usize = 64;

/// Random "sizing-shaped" GP: minimize Σ wᵢ subject to a handful of random
/// load/drive style constraints `c · wⱼ/wᵢ + k/wᵢ <= budget` plus bounds.
/// Always feasible by construction (budget chosen above the value at w = ub).
fn problem(r: &mut Prng) -> GpProblem {
    let mut pool = VarPool::new();
    let vars: Vec<VarId> = (0..DIM).map(|i| pool.var(&format!("w{i}"))).collect();
    let mut gp = GpProblem::new(pool);
    let mut obj = Posynomial::zero();
    for &v in &vars {
        obj += Monomial::var(v);
    }
    gp.set_objective(obj);
    let rows = r.usize_in(1, 6);
    for idx in 0..rows {
        let i = r.usize_in(0, DIM);
        let j = r.usize_in(0, DIM);
        let c = r.f64_in(0.1, 4.0);
        let k = r.f64_in(0.1, 4.0);
        let body = Posynomial::from(Monomial::new(c).pow(vars[j], 1.0).pow(vars[i], -1.0))
            + Monomial::new(k).pow(vars[i], -1.0);
        // Feasible budget: evaluate at all-16 and give 2x headroom.
        let at = body.eval(&[16.0; DIM]);
        gp.add_le(format!("c{idx}"), body, Monomial::new(at * 2.0))
            .unwrap();
    }
    for &v in &vars {
        gp.add_lower_bound(v, 0.05);
        gp.add_upper_bound(v, 64.0);
    }
    gp
}

#[test]
fn solutions_are_feasible() {
    let mut r = Prng::new(0xB1);
    for _ in 0..CASES {
        let gp = problem(&mut r);
        let sol = gp.solve(&SolverOptions::default()).unwrap();
        for (label, body) in sol.constraint_activity(&gp) {
            assert!(body <= 1.0 + 1e-6, "constraint {label} violated: {body}");
        }
        for &xi in &sol.x {
            assert!(xi > 0.0 && xi.is_finite());
        }
    }
}

#[test]
fn kkt_certificate_holds() {
    let mut r = Prng::new(0xB2);
    for _ in 0..CASES {
        let gp = problem(&mut r);
        let sol = gp.solve(&SolverOptions::default()).unwrap();
        assert!(sol.kkt.primal_infeasibility < 1e-9);
        assert!(
            sol.kkt.stationarity < 1e-3,
            "stationarity {}",
            sol.kkt.stationarity
        );
        for &l in &sol.kkt.multipliers {
            assert!(l >= 0.0);
        }
    }
}

#[test]
fn no_feasible_uniform_shrink_improves() {
    let mut r = Prng::new(0xB3);
    for _ in 0..CASES {
        // If shrinking all sizes by 2% keeps every constraint feasible, the
        // solver left area on the table (objective is Σ w, monotone).
        let gp = problem(&mut r);
        let sol = gp.solve(&SolverOptions::default()).unwrap();
        let shrunk: Vec<f64> = sol.x.iter().map(|&x| x * 0.98).collect();
        let still_feasible = gp
            .constraints()
            .iter()
            .all(|c| gp.body(c).eval(&shrunk) <= 1.0);
        if still_feasible {
            // Then some lower bound must be pinning a variable.
            let near_lb = sol.x.iter().any(|&x| x < 0.05 * 1.05);
            assert!(
                near_lb,
                "shrink feasible but no variable at its lower bound: {:?}",
                sol.x
            );
        }
    }
}

#[test]
fn objective_not_beaten_by_random_feasible_points() {
    let mut r = Prng::new(0xB4);
    for _ in 0..CASES {
        let gp = problem(&mut r);
        let probe = r.f64_vec(0.06, 60.0, DIM);
        let sol = gp.solve(&SolverOptions::default()).unwrap();
        let feasible = gp
            .constraints()
            .iter()
            .all(|c| gp.body(c).eval(&probe) <= 1.0);
        if feasible {
            let probe_obj = gp.objective().eval(&probe);
            assert!(
                sol.objective <= probe_obj * (1.0 + 1e-6),
                "solver {} beaten by probe {}",
                sol.objective,
                probe_obj
            );
        }
    }
}

#[test]
fn solve_never_returns_non_finite_widths() {
    // The non-finite guards at the gp boundary promise: whatever comes out
    // of `solve` — from any starting point, including hostile ones — is
    // finite or a typed error, never NaN/inf widths.
    let mut r = Prng::new(0xB5);
    for case in 0..CASES {
        let gp = problem(&mut r);
        let mut opts = SolverOptions::default();
        // Exercise odd-but-valid starting points on some cases.
        if case % 3 == 1 {
            opts.initial_x = Some(vec![r.f64_in(1e-4, 1e3); DIM]);
        }
        match gp.solve(&opts) {
            Ok(sol) => {
                assert!(sol.objective.is_finite());
                for &xi in &sol.x {
                    assert!(xi.is_finite() && xi > 0.0, "non-finite width {xi}");
                }
            }
            Err(e) => {
                // Typed failure is acceptable; a panic or NaN escape is not.
                let _ = format!("{e}");
            }
        }
    }
}

#[test]
fn hostile_starting_points_yield_typed_errors_not_panics() {
    let mut r = Prng::new(0xB6);
    let gp = problem(&mut r);
    for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
        let mut opts = SolverOptions::default();
        opts.initial_x = Some(vec![bad; DIM]);
        let err = gp.solve(&opts);
        assert!(err.is_err(), "start {bad} should be rejected");
    }
}
