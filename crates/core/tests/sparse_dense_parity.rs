//! Differential parity suite for the sparse GP Newton kernel.
//!
//! The production solver assembles gradients and Hessians sparsely
//! (`LogPosynomial::shifted_exps` + `stage_from_exps` + packed
//! scatter) while the
//! dense path (`value_grad_hess`, `GpProblem::solve_reference`) survives
//! as the oracle. This suite pins the two against each other on the real
//! sizing GPs of the representative macro database:
//!
//! * kernel parity — value, gradient and Hessian of the objective and of
//!   every constraint agree to 1e-12 at multiple evaluation points, for
//!   **every** macro in the database;
//! * solver parity — full `solve` vs `solve_reference` on a spread of
//!   macros: identical Newton step counts, solutions and KKT reports
//!   matching to tight tolerance.

use smart_core::constraints::{boundary_extra_loads, build_sizing_gp, SizingGp};
use smart_core::{compact, DelaySpec, SizingOptions};
use smart_gp::SolverOptions;
use smart_macros::{representative_database, MacroSpec, MuxTopology, ZeroDetectStyle};
use smart_models::ModelLibrary;
use smart_posy::{packed_index, GradHessWorkspace, LogPosynomial};
use smart_sta::Boundary;

fn loaded_boundary(circuit: &smart_netlist::Circuit, load: f64) -> Boundary {
    let mut b = Boundary::default();
    for p in circuit.output_ports() {
        b.output_loads.insert(p.name.clone(), load);
    }
    b
}

/// Builds the sizing GP of one macro exactly as `size_circuit` would.
fn sizing_gp(spec: &MacroSpec, delay: &DelaySpec) -> SizingGp {
    let circuit = spec.generate();
    let lib = ModelLibrary::reference();
    let boundary = loaded_boundary(&circuit, 20.0);
    let opts = SizingOptions::default();
    let (_, vars) = smart_models::label_vars(&circuit);
    let extra = boundary_extra_loads(&circuit, &boundary);
    let compaction =
        compact(&circuit, &lib, &vars, &extra, &opts).expect("compaction succeeds");
    build_sizing_gp(
        &circuit, &lib, &compaction, &boundary, &extra, delay, &opts,
    )
    .expect("GP builds")
}

/// Deterministic log-space jitter for evaluation points (splitmix64).
fn jitter(dim: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..dim)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 3.0
        })
        .collect()
}

/// Asserts sparse and dense evaluation of one posynomial agree at `y`.
fn assert_kernel_parity(lp: &LogPosynomial, y: &[f64], what: &str) {
    let dim = lp.dim();
    let (val, grad, hess) = lp.value_grad_hess(y);
    let mut ws = GradHessWorkspace::new(dim);
    let mut exps = vec![0.0; lp.term_count()];
    let (sval, sum) = lp.shifted_exps(y, &mut exps);
    lp.stage_from_exps(&exps, sum, &mut ws);
    ws.scatter_staged(1.0, 1.0, 0.0);
    let scale = val.abs().max(1.0);
    assert!(
        (val - sval).abs() <= 1e-12 * scale,
        "{what}: value {val} vs {sval}"
    );
    assert!(
        (val - lp.value(y)).abs() <= 1e-12 * scale,
        "{what}: streaming value"
    );
    for i in 0..dim {
        let gs = grad[i].abs().max(1.0);
        assert!(
            (grad[i] - ws.grad()[i]).abs() <= 1e-12 * gs,
            "{what}: grad[{i}] {} vs {}",
            grad[i],
            ws.grad()[i]
        );
        for j in 0..=i {
            let hs = hess[i][j].abs().max(1.0);
            let got = ws.hess_packed()[packed_index(i, j)];
            assert!(
                (hess[i][j] - got).abs() <= 1e-12 * hs,
                "{what}: hess[{i}][{j}] {} vs {got}",
                hess[i][j]
            );
        }
    }
}

#[test]
fn kernel_parity_on_every_representative_macro() {
    for spec in representative_database() {
        let built = sizing_gp(&spec, &DelaySpec::uniform(900.0));
        let dim = built.gp.dim();
        let points = [jitter(dim, 0x5EED_0001), jitter(dim, 0xFACE_0002)];
        let slots = built.gp.log_form();
        let labels = std::iter::once("objective").chain(built.gp.constraints().iter().map(|c| c.label.as_str()));
        for (lp, label) in slots.iter().zip(labels) {
            for (pi, y) in points.iter().enumerate() {
                assert_kernel_parity(lp, y, &format!("{spec:?} '{label}' @p{pi}"));
            }
        }
    }
}

#[test]
fn solver_parity_on_diverse_macros() {
    let cases: Vec<(MacroSpec, f64)> = vec![
        (
            MacroSpec::Mux {
                topology: MuxTopology::StronglyMutexedPass,
                width: 8,
            },
            900.0,
        ),
        (
            MacroSpec::Mux {
                topology: MuxTopology::UnsplitDomino,
                width: 8,
            },
            900.0,
        ),
        (
            MacroSpec::ZeroDetect {
                style: ZeroDetectStyle::Domino,
                width: 16,
            },
            900.0,
        ),
        (MacroSpec::Incrementor { width: 8 }, 1500.0),
        (MacroSpec::Decoder { in_bits: 3 }, 1200.0),
    ];
    for (spec, ps) in cases {
        let built = sizing_gp(&spec, &DelaySpec::uniform(ps));
        let opts = SolverOptions::default();
        let sparse = built.gp.solve(&opts).expect("sparse solve");
        let dense = built.gp.solve_reference(&opts).expect("dense solve");
        // Same arithmetic in the same order: the Newton trajectories must
        // not merely converge to the same optimum, they must be the same
        // trajectory.
        assert_eq!(
            sparse.phase1_newton_steps, dense.phase1_newton_steps,
            "{spec:?}: phase-1 step counts diverged"
        );
        assert_eq!(
            sparse.phase2_newton_steps, dense.phase2_newton_steps,
            "{spec:?}: phase-2 step counts diverged"
        );
        let os = sparse.objective.abs().max(1.0);
        assert!(
            (sparse.objective - dense.objective).abs() <= 1e-9 * os,
            "{spec:?}: objective {} vs {}",
            sparse.objective,
            dense.objective
        );
        for (i, (&xs, &xd)) in sparse.x.iter().zip(&dense.x).enumerate() {
            assert!(
                (xs - xd).abs() <= 1e-9 * xd.abs().max(1.0),
                "{spec:?}: x[{i}] {xs} vs {xd}"
            );
        }
        // KKT-report parity: both certificates describe the same point.
        let ks = &sparse.kkt;
        let kd = &dense.kkt;
        assert!(
            (ks.stationarity - kd.stationarity).abs()
                <= 1e-9 * kd.stationarity.abs().max(1.0),
            "{spec:?}: stationarity {} vs {}",
            ks.stationarity,
            kd.stationarity
        );
        assert!(
            (ks.primal_infeasibility - kd.primal_infeasibility).abs()
                <= 1e-9 * kd.primal_infeasibility.abs().max(1.0),
            "{spec:?}: infeasibility {} vs {}",
            ks.primal_infeasibility,
            kd.primal_infeasibility
        );
        assert!(
            (ks.duality_gap - kd.duality_gap).abs() <= 1e-9 * kd.duality_gap.abs().max(1.0),
            "{spec:?}: gap {} vs {}",
            ks.duality_gap,
            kd.duality_gap
        );
        assert_eq!(
            ks.is_optimal(1e-4),
            kd.is_optimal(1e-4),
            "{spec:?}: optimality verdicts diverged"
        );
    }
}
