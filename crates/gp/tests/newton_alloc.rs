//! Asserts the steady-state Newton step of the GP kernel performs **zero
//! heap allocations**: staging from the kept sweep, barrier scatter,
//! packed ridged Cholesky solve, line-search trials that sweep every
//! posynomial into the trial record, and the record swap on acceptance
//! all reuse warmed-up buffers.
//!
//! This file holds exactly one `#[test]` and installs a counting global
//! allocator, so the counter window cannot race a sibling test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use smart_gp::linalg::{axpy, solve_spd_ridged_packed};
use smart_gp::GpProblem;
use smart_posy::{GradHessWorkspace, LogPosynomial, Monomial, Posynomial, VarPool};

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

/// One sweep of the objective (slot 0) and every constraint (slot
/// `i + 1`) at a point, laid out like the production `EvalRecord`.
struct Record {
    exps: Vec<f64>,
    sums: Vec<f64>,
    values: Vec<f64>,
}

impl Record {
    fn new(bounds: &[usize]) -> Self {
        let slots = bounds.len() - 1;
        Record {
            exps: vec![0.0; bounds[slots]],
            sums: vec![0.0; slots],
            values: vec![0.0; slots],
        }
    }

    fn eval(&mut self, bounds: &[usize], j: usize, p: &LogPosynomial, y: &[f64]) -> f64 {
        let (value, sum) = p.shifted_exps(y, &mut self.exps[bounds[j]..bounds[j + 1]]);
        self.sums[j] = sum;
        self.values[j] = value;
        value
    }

    fn stage(&self, bounds: &[usize], j: usize, p: &LogPosynomial, ws: &mut GradHessWorkspace) {
        p.stage_from_exps(&self.exps[bounds[j]..bounds[j + 1]], self.sums[j], ws);
    }
}

/// All reusable buffers of one solver — the same set the production
/// `NewtonWorkspace` carries.
struct Buffers {
    ws: GradHessWorkspace,
    factor: Vec<f64>,
    rhs: Vec<f64>,
    dir: Vec<f64>,
    y: Vec<f64>,
    trial: Vec<f64>,
    bounds: Vec<usize>,
    at_y: Record,
    at_trial: Record,
}

/// One full phase-II Newton step exactly as the production solver runs
/// it: sparse assembly staged from the record at `y`, packed ridged
/// solve, then backtracking trials that sweep into the trial record. The
/// last trial is accepted: point and records swap, so the next step
/// stages from that trial's sweep.
fn newton_step(obj: &LogPosynomial, cons: &[LogPosynomial], t: f64, b: &mut Buffers) {
    let dim = b.y.len();
    b.ws.reset(dim);
    b.at_y.stage(&b.bounds, 0, obj, &mut b.ws);
    b.ws.scatter_staged(t, t, 0.0);
    for (i, c) in cons.iter().enumerate() {
        let fv = b.at_y.values[i + 1];
        assert!(fv < 0.0, "test point must be strictly interior");
        let inv = -1.0 / fv;
        b.at_y.stage(&b.bounds, i + 1, c, &mut b.ws);
        b.ws.scatter_staged(inv, inv, inv * inv);
    }
    b.rhs.clear();
    b.rhs.extend(b.ws.grad().iter().map(|&g| -g));
    solve_spd_ridged_packed(b.ws.hess_packed(), dim, &b.rhs, &mut b.factor, &mut b.dir);
    // Backtracking trials: trial point + barrier value, allocation-free.
    let mut alpha = 0.25f64;
    for _ in 0..4 {
        b.trial.clear();
        b.trial.extend_from_slice(&b.y);
        axpy(alpha, &b.dir, &mut b.trial);
        let mut v = t * b.at_trial.eval(&b.bounds, 0, obj, &b.trial);
        for (i, c) in cons.iter().enumerate() {
            let fv = b.at_trial.eval(&b.bounds, i + 1, c, &b.trial);
            assert!(
                fv < 0.0,
                "trial left the interior; shrink alpha in the test"
            );
            v -= (-fv).ln();
        }
        std::hint::black_box(v);
        alpha *= 0.5;
    }
    std::mem::swap(&mut b.y, &mut b.trial);
    std::mem::swap(&mut b.at_y, &mut b.at_trial);
}

#[test]
fn steady_state_newton_step_allocates_nothing() {
    // A chain-structured GP like a sizing problem: each constraint touches
    // two adjacent width variables (support 2 in a 24-dim ambient space).
    let dim = 24usize;
    let mut pool = VarPool::new();
    let vars: Vec<_> = (0..dim).map(|i| pool.var(&format!("w{i}"))).collect();
    let mut gp = GpProblem::new(pool);
    gp.set_objective(
        vars.iter()
            .fold(Posynomial::zero(), |acc, &v| acc + Monomial::var(v)),
    );
    for i in 0..dim - 1 {
        // 0.2·w_{i+1}/w_i + 0.1/w_i ≤ 1, strictly interior at x = 1.
        let body = Posynomial::from(Monomial::new(0.2).pow(vars[i + 1], 1.0).pow(vars[i], -1.0))
            + Monomial::new(0.1).pow(vars[i], -1.0);
        gp.add_le_const(format!("c{i}"), body, 1.0)
            .expect("non-empty constraint");
    }
    let mut cons: Vec<LogPosynomial> = gp.log_form();
    let obj = cons.remove(0);

    let t = 8.0;
    let mut bounds = vec![0];
    for p in std::iter::once(&obj).chain(&cons) {
        bounds.push(bounds[bounds.len() - 1] + p.term_count());
    }
    let mut b = Buffers {
        ws: GradHessWorkspace::new(dim),
        factor: Vec::new(),
        rhs: Vec::new(),
        dir: Vec::new(),
        y: vec![0.0; dim], // x = 1: strictly feasible
        trial: Vec::new(),
        at_y: Record::new(&bounds),
        at_trial: Record::new(&bounds),
        bounds,
    };
    // The phase's first step evaluates at its start point.
    b.at_y.eval(&b.bounds, 0, &obj, &b.y);
    for (i, c) in cons.iter().enumerate() {
        b.at_y.eval(&b.bounds, i + 1, c, &b.y);
    }

    // Warm-up: every buffer reaches its steady-state capacity.
    newton_step(&obj, &cons, t, &mut b);
    newton_step(&obj, &cons, t, &mut b);

    let before = ALLOCS.load(Ordering::SeqCst);
    newton_step(&obj, &cons, t, &mut b);
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state Newton step performed {} heap allocations",
        after - before
    );
}
