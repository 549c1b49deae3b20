//! Asserts the grouped sweep adds no per-step heap allocation: a GP whose
//! constraints share their terms (so the solver sweeps it through a
//! `TermDictionary`) is solved at two tolerances that take different
//! numbers of Newton steps, and both solves allocate exactly as often.
//! Every allocation is per-solve set-up; none scales with the steps.
//!
//! This file holds exactly one `#[test]` and installs a counting global
//! allocator, so the counter window cannot race a sibling test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use smart_gp::{GpProblem, SolverOptions};
use smart_posy::{Monomial, Posynomial, TermDictionary, VarPool};
use smart_prng::Prng;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Minimise `Σ xᵢ` subject to 60 constraints, each a sum of 30 terms
/// drawn from a pool of 40 monomials `c·∏ xᵢ^(−aᵢ)`, `aᵢ ≥ 0`: every
/// constraint pushes the widths up and the objective pulls them down.
fn shared_gp() -> GpProblem {
    let dim = 6;
    let mut pool = VarPool::new();
    let vars: Vec<_> = (0..dim).map(|i| pool.var(&format!("x{i}"))).collect();
    let mut rng = Prng::new(3);
    let monomials: Vec<Monomial> = (0..40)
        .map(|_| {
            let mut m = Monomial::new(rng.f64_in(0.005, 0.02));
            for _ in 0..rng.usize_in(1, 4) {
                m = m.pow(vars[rng.usize_in(0, dim)], -rng.f64_in(0.2, 1.5));
            }
            m
        })
        .collect();
    let mut gp = GpProblem::new(pool);
    gp.set_objective(
        vars.iter()
            .fold(Posynomial::zero(), |acc, &v| acc + Monomial::var(v)),
    );
    let mut order: Vec<usize> = (0..monomials.len()).collect();
    for c in 0..60 {
        for i in 0..30 {
            let j = rng.usize_in(i, order.len());
            order.swap(i, j);
        }
        let body = order[..30]
            .iter()
            .fold(Posynomial::zero(), |acc, &i| acc + monomials[i].clone());
        gp.add_le_const(format!("c{c}"), body, 1.0)
            .expect("non-empty constraint");
    }
    gp
}

#[test]
fn grouped_sweep_solves_allocate_independently_of_step_count() {
    let gp = shared_gp();
    let dim = gp.dim();
    assert!(
        TermDictionary::if_shared(gp.table(), &gp.log_form()).is_some(),
        "the test GP must take the grouped sweep"
    );
    // A start far below the optimum violates every constraint, so both
    // phases run.
    let opts = |tol| SolverOptions {
        tol,
        initial_x: Some(vec![0.01; dim]),
        ..SolverOptions::default()
    };
    let (loose, tight) = (opts(1e-3), opts(1e-10));

    let before = ALLOCS.load(Ordering::SeqCst);
    let a = gp.solve(&loose).expect("loose solve");
    let mid = ALLOCS.load(Ordering::SeqCst);
    let b = gp.solve(&tight).expect("tight solve");
    let after = ALLOCS.load(Ordering::SeqCst);

    let steps = |s: &smart_gp::GpSolution| s.phase1_newton_steps + s.phase2_newton_steps;
    assert!(a.phase1_newton_steps > 0, "phase I must run");
    assert!(
        steps(&a) < steps(&b),
        "the tolerances must differ in Newton steps ({} vs {})",
        steps(&a),
        steps(&b)
    );
    assert_eq!(
        mid - before,
        after - mid,
        "{} vs {} Newton steps made {} vs {} allocations",
        steps(&a),
        steps(&b),
        mid - before,
        after - mid
    );
}
