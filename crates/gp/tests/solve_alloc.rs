//! Asserts a GP solve adds no per-step heap allocation on either
//! evaluation sweep: each test GP is solved from two starts that take
//! different numbers of Newton steps, and both solves allocate exactly as
//! often. Every allocation is per-solve set-up; none scales with the
//! steps. The chain GP takes the per-posynomial sweep, the sharing GP the
//! grouped sweep through a `TermDictionary`.
//!
//! This file holds exactly one `#[test]` and installs a counting global
//! allocator, so the counter window cannot race a sibling test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use smart_gp::{GpProblem, GpSolution, SolverOptions};
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

/// A chain-structured GP like a sizing problem: minimise `Σ wᵢ` where
/// each constraint touches two adjacent widths (support 2 in a 24-dim
/// space) and the last width has a lower bound.
fn chain_gp() -> GpProblem {
    let dim = 24;
    let mut pool = VarPool::new();
    let vars: Vec<_> = (0..dim).map(|i| pool.var(&format!("w{i}"))).collect();
    let mut gp = GpProblem::new(pool);
    gp.set_objective(
        vars.iter()
            .fold(Posynomial::zero(), |acc, &v| acc + Monomial::var(v)),
    );
    for i in 0..dim - 1 {
        // 0.2·w_{i+1}/w_i + 0.1/w_i ≤ 1.
        let body = Posynomial::from(Monomial::new(0.2).pow(vars[i + 1], 1.0).pow(vars[i], -1.0))
            + Monomial::new(0.1).pow(vars[i], -1.0);
        gp.add_le_const(format!("c{i}"), body, 1.0)
            .expect("non-empty constraint");
    }
    gp.add_lower_bound(vars[dim - 1], 1.0);
    gp
}

/// Minimise `Σ xᵢ` subject to 60 constraints, each a sum of 30 terms
/// drawn from a pool of 40 monomials `c·∏ xᵢ^(−aᵢ)`, `aᵢ ≥ 0`: every
/// constraint pushes the widths up and the objective pulls them down.
fn sharing_gp() -> GpProblem {
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

/// Solves `gp` from `x0` (every width) and returns the solution with the
/// number of allocations the solve made.
fn counted_solve(gp: &GpProblem, x0: f64) -> (GpSolution, usize) {
    let opts = SolverOptions {
        initial_x: Some(vec![x0; gp.dim()]),
        ..SolverOptions::default()
    };
    let before = ALLOCS.load(Ordering::SeqCst);
    let sol = gp.solve(&opts).expect("solve");
    (sol, ALLOCS.load(Ordering::SeqCst) - before)
}

#[test]
fn solves_allocate_independently_of_step_count_on_both_sweeps() {
    for (name, gp, grouped) in [
        ("chain", chain_gp(), false),
        ("sharing", sharing_gp(), true),
    ] {
        assert_eq!(
            TermDictionary::if_shared(gp.table(), &gp.log_form()).is_some(),
            grouped,
            "{name}: wrong sweep"
        );
        // Both starts lie far below the optimum and violate every
        // constraint, so both phases run; the farther one takes more
        // phase-I steps.
        let (near, near_allocs) = counted_solve(&gp, 0.01);
        let (far, far_allocs) = counted_solve(&gp, 1e-4);

        let steps = |s: &GpSolution| s.phase1_newton_steps + s.phase2_newton_steps;
        assert!(near.phase1_newton_steps > 0, "{name}: phase I must run");
        assert_ne!(
            steps(&near),
            steps(&far),
            "{name}: the starts must differ in Newton steps"
        );
        assert_eq!(
            near_allocs,
            far_allocs,
            "{name}: {} vs {} Newton steps made {near_allocs} vs {far_allocs} allocations",
            steps(&near),
            steps(&far),
        );
    }
}
