//! Solver validation against geometric programs with known analytic optima.

use smart_gp::{GpError, GpProblem, SolverOptions};
use smart_posy::{Monomial, Posynomial, VarPool};

fn opts() -> SolverOptions {
    SolverOptions::default()
}

#[test]
fn single_variable_tight_bound() {
    // minimize W s.t. 2/W <= 1  ->  W* = 2.
    let mut pool = VarPool::new();
    let w = pool.var("W");
    let mut gp = GpProblem::new(pool);
    gp.set_objective(Posynomial::var(w));
    gp.add_le(
        "delay",
        Posynomial::from(Monomial::new(2.0).pow(w, -1.0)),
        Monomial::one(),
    )
    .unwrap();
    let sol = gp.solve(&opts()).unwrap();
    assert!((sol.x[0] - 2.0).abs() < 1e-6, "got {}", sol.x[0]);
    assert!(sol.kkt.is_optimal(1e-4));
}

#[test]
fn box_design_problem() {
    // Classic GP: maximize box volume h·w·d (minimize (hwd)^-1)
    // s.t. wall area 2(hw + hd) <= 200, floor area wd <= 100,
    // aspect ratios 0.5 <= h/w <= 2, 0.5 <= d/w <= 2.
    // Optimum: w=d=10, h=5, volume 500 (wall and floor constraints tight).
    let mut pool = VarPool::new();
    let h = pool.var("h");
    let w = pool.var("w");
    let d = pool.var("d");
    let mut gp = GpProblem::new(pool);
    gp.set_objective(Posynomial::from(
        Monomial::new(1.0).pow(h, -1.0).pow(w, -1.0).pow(d, -1.0),
    ));
    let wall = Posynomial::from(Monomial::new(2.0).pow(h, 1.0).pow(w, 1.0))
        + Monomial::new(2.0).pow(h, 1.0).pow(d, 1.0);
    gp.add_le("wall", wall, Monomial::new(200.0)).unwrap();
    gp.add_le(
        "floor",
        Posynomial::from(Monomial::new(1.0).pow(w, 1.0).pow(d, 1.0)),
        Monomial::new(100.0),
    )
    .unwrap();
    gp.add_le(
        "h/w<=2",
        Posynomial::from(Monomial::new(1.0).pow(h, 1.0).pow(w, -1.0)),
        Monomial::new(2.0),
    )
    .unwrap();
    gp.add_le(
        "w/h<=2",
        Posynomial::from(Monomial::new(1.0).pow(w, 1.0).pow(h, -1.0)),
        Monomial::new(2.0),
    )
    .unwrap();
    gp.add_le(
        "d/w<=2",
        Posynomial::from(Monomial::new(1.0).pow(d, 1.0).pow(w, -1.0)),
        Monomial::new(2.0),
    )
    .unwrap();
    gp.add_le(
        "w/d<=2",
        Posynomial::from(Monomial::new(1.0).pow(w, 1.0).pow(d, -1.0)),
        Monomial::new(2.0),
    )
    .unwrap();
    let sol = gp.solve(&opts()).unwrap();
    let volume = sol.x[0] * sol.x[1] * sol.x[2];
    let expected = 500.0; // symmetric w=d=10, h=5 saturates wall and floor area
    assert!(
        (volume - expected).abs() / expected < 1e-3,
        "volume {volume}, expected {expected}"
    );
}

#[test]
fn am_gm_equality_split() {
    // minimize x + y s.t. 1/(xy) <= 1: by AM-GM, x = y = 1, objective 2.
    let mut pool = VarPool::new();
    let x = pool.var("x");
    let y = pool.var("y");
    let mut gp = GpProblem::new(pool);
    gp.set_objective(Posynomial::var(x) + Monomial::var(y));
    gp.add_le(
        "xy>=1",
        Posynomial::from(Monomial::new(1.0).pow(x, -1.0).pow(y, -1.0)),
        Monomial::one(),
    )
    .unwrap();
    let sol = gp.solve(&opts()).unwrap();
    assert!((sol.x[0] - 1.0).abs() < 1e-5);
    assert!((sol.x[1] - 1.0).abs() < 1e-5);
    assert!((sol.objective - 2.0).abs() < 1e-5);
}

#[test]
fn inverter_chain_matches_logical_effort() {
    // Three-stage inverter chain driving load C_L = 64 with input cap fixed
    // at 1: delay = W1 (input stage load, W1/1) ... classic logical effort:
    // minimize delay = W1/1 + W2/W1 + W3/W2 + 64/W3 has optimum at equal
    // stage efforts of 64^(1/4) = 2.828: W1=2.83, W2=8, W3=22.6.
    let mut pool = VarPool::new();
    let w1 = pool.var("W1");
    let w2 = pool.var("W2");
    let w3 = pool.var("W3");
    let mut gp = GpProblem::new(pool);
    let delay = Posynomial::var(w1)
        + Monomial::new(1.0).pow(w2, 1.0).pow(w1, -1.0)
        + Monomial::new(1.0).pow(w3, 1.0).pow(w2, -1.0)
        + Monomial::new(64.0).pow(w3, -1.0);
    gp.set_objective(delay);
    for v in [w1, w2, w3] {
        gp.add_lower_bound(v, 1e-3);
        gp.add_upper_bound(v, 1e3);
    }
    let sol = gp.solve(&opts()).unwrap();
    let rho = 64f64.powf(0.25);
    assert!((sol.x[0] - rho).abs() < 1e-3, "W1 {}", sol.x[0]);
    assert!((sol.x[1] - rho * rho).abs() < 1e-2, "W2 {}", sol.x[1]);
    assert!((sol.x[2] - rho * rho * rho).abs() < 0.1, "W3 {}", sol.x[2]);
    assert!((sol.objective - 4.0 * rho).abs() < 1e-3);
}

#[test]
fn infeasible_problem_is_reported() {
    // x <= 1 and x >= 2 simultaneously.
    let mut pool = VarPool::new();
    let x = pool.var("x");
    let mut gp = GpProblem::new(pool);
    gp.set_objective(Posynomial::var(x));
    gp.add_upper_bound(x, 1.0);
    gp.add_lower_bound(x, 2.0);
    match gp.solve(&opts()) {
        Err(GpError::Infeasible { worst_violation }) => {
            assert!(worst_violation > 1.0, "violation {worst_violation}");
        }
        other => panic!("expected infeasible, got {other:?}"),
    }
}

#[test]
fn unbounded_problem_is_reported() {
    // minimize 1/x with no upper bound on x.
    let mut pool = VarPool::new();
    let x = pool.var("x");
    let mut gp = GpProblem::new(pool);
    gp.set_objective(Posynomial::from(Monomial::new(1.0).pow(x, -1.0)));
    gp.add_lower_bound(x, 0.5);
    match gp.solve(&opts()) {
        Err(GpError::Unbounded) => {}
        other => panic!("expected unbounded, got {other:?}"),
    }
}

#[test]
fn pinned_variable_stays_put() {
    let mut pool = VarPool::new();
    let a = pool.var("a");
    let b = pool.var("b");
    let mut gp = GpProblem::new(pool);
    gp.set_objective(Posynomial::var(a) + Monomial::var(b));
    gp.add_le(
        "product",
        Posynomial::from(Monomial::new(4.0).pow(a, -1.0).pow(b, -1.0)),
        Monomial::one(),
    )
    .unwrap();
    gp.pin(a, 1.0); // designer fixed this device at width 1
    let sol = gp.solve(&opts()).unwrap();
    assert!((sol.x[0] - 1.0).abs() < 1e-4, "a pinned: {}", sol.x[0]);
    assert!((sol.x[1] - 4.0).abs() < 1e-3, "b must absorb: {}", sol.x[1]);
}

#[test]
fn constraint_activity_identifies_binding_constraints() {
    let mut pool = VarPool::new();
    let x = pool.var("x");
    let mut gp = GpProblem::new(pool);
    gp.set_objective(Posynomial::var(x));
    gp.add_le(
        "binding",
        Posynomial::from(Monomial::new(3.0).pow(x, -1.0)),
        Monomial::one(),
    )
    .unwrap();
    gp.add_upper_bound(x, 100.0);
    let sol = gp.solve(&opts()).unwrap();
    let act = sol.constraint_activity(&gp);
    assert!(act[0].1 > 0.999, "binding constraint at {}", act[0].1);
    assert!(act[1].1 < 0.1, "slack bound at {}", act[1].1);
}

#[test]
fn solution_scales_with_problem_data() {
    // Optimal W for `k/W <= 1` is exactly k; sweep k across magnitudes to
    // exercise conditioning.
    for k in [1e-3, 0.1, 1.0, 7.5, 1e3, 1e6] {
        let mut pool = VarPool::new();
        let w = pool.var("W");
        let mut gp = GpProblem::new(pool);
        gp.set_objective(Posynomial::var(w));
        gp.add_le(
            "c",
            Posynomial::from(Monomial::new(k).pow(w, -1.0)),
            Monomial::one(),
        )
        .unwrap();
        let sol = gp.solve(&opts()).unwrap();
        assert!((sol.x[0] - k).abs() / k < 1e-5, "k={k}: got {}", sol.x[0]);
    }
}

#[test]
fn moderately_large_chain_solves() {
    // 40-stage chain: minimize sum of widths under a path-delay budget —
    // shape of real SMART sizing problems.
    let n = 40;
    let mut pool = VarPool::new();
    let vars: Vec<_> = (0..n).map(|i| pool.var(&format!("W{i}"))).collect();
    let mut gp = GpProblem::new(pool);
    let mut area = Posynomial::zero();
    for &v in &vars {
        area += Monomial::var(v);
    }
    gp.set_objective(area);
    let mut delay = Posynomial::var(vars[0]);
    for i in 1..n {
        delay += Monomial::new(1.0).pow(vars[i], 1.0).pow(vars[i - 1], -1.0);
    }
    delay += Monomial::new(256.0).pow(vars[n - 1], -1.0);
    gp.add_le("path", delay, Monomial::new(60.0)).unwrap();
    for &v in &vars {
        gp.add_lower_bound(v, 1e-2);
        gp.add_upper_bound(v, 1e4);
    }
    let sol = gp.solve(&opts()).unwrap();
    // Delay constraint must be met.
    let act = sol.constraint_activity(&gp);
    assert!(act[0].1 <= 1.0 + 1e-6, "delay body {}", act[0].1);
    assert!(sol.kkt.primal_infeasibility < 1e-9);
}
