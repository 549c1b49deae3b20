//! The solver's Newton telemetry, checked against what it describes.
//!
//! * The line search's domain sentinel changes no trial. Before sweeping
//!   a trial point, `solve` evaluates the constraint that last left the
//!   barrier domain and rejects the trial on the spot if it leaves again;
//!   `solve_reference` walks every constraint at every trial. Both emit
//!   one `gp/newton` event per line search, so on GPs whose line searches
//!   leave the domain in phase I and in phase II, on both evaluation
//!   sweeps, the two must agree trial for trial and end on the same bits.
//! * Every Newton step emits one `gp/newton` event, including a step
//!   whose decrement ends its centering before any line search.
//! * A solve that phase I gives up on emits one `gp/infeasible` event
//!   that accounts for its Newton steps.
//! * Both solvers run one barrier loop, so a solve that fails (phase I
//!   gives up, or the iterate escapes the size box) emits the same `gp/*`
//!   event stream from either kernel, failure event included.

use smart_gp::{GpError, GpProblem, GpSolution, SolverOptions};
use smart_posy::{Monomial, Posynomial, TermDictionary, VarPool};
use smart_prng::Prng;
use smart_trace::{Event, Trace, Value};

/// Runs `solve` under a trace; returns its outcome and events.
fn traced<T>(solve: impl FnOnce() -> T) -> (T, Vec<Event>) {
    let trace = Trace::enabled();
    let out = {
        let scope = trace.scope("test", 0, 0);
        let _current = scope.enter();
        solve()
    };
    (out, trace.collect().events)
}

fn field<'a>(e: &'a Event, name: &str) -> &'a Value {
    e.fields
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("{} has no `{name}`", e.name))
}

fn count(e: &Event, name: &str) -> u64 {
    match field(e, name) {
        Value::U64(n) => *n,
        other => panic!("`{name}` is {other:?}"),
    }
}

fn stage(e: &Event) -> &str {
    match field(e, "stage") {
        Value::Str(s) => s,
        other => panic!("`stage` is {other:?}"),
    }
}

/// One line search: stage, trials, domain rejections, step length bits,
/// accepted.
type LineSearch = (String, u64, u64, u64, bool);

fn line_searches(events: &[Event]) -> Vec<LineSearch> {
    events
        .iter()
        .filter(|e| e.name == "gp/newton")
        .map(|e| match (field(e, "alpha"), field(e, "accepted")) {
            (Value::F64(alpha), Value::Bool(accepted)) => (
                stage(e).to_owned(),
                count(e, "trials"),
                count(e, "outside"),
                alpha.to_bits(),
                *accepted,
            ),
            other => panic!("unexpected gp/newton fields {other:?}"),
        })
        .collect()
}

/// Domain rejections in `phase`'s line searches.
fn outside_in(searches: &[LineSearch], phase: &str) -> u64 {
    searches.iter().filter(|s| s.0 == phase).map(|s| s.2).sum()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Minimise `Σ xᵢ` over six variables subject to 60 constraints `≤ 1`,
/// each a sum of `terms` monomials `c·∏ xᵢ^aᵢ` (exponents in
/// `[−6, 3]`) drawn from a pool of `pool`. A small pool makes the
/// constraints share their terms; steep exponents make full Newton steps
/// overshoot the barrier domain.
fn random_gp(seed: u64, pool: usize, terms: usize) -> GpProblem {
    let dim = 6;
    let mut names = VarPool::new();
    let vars: Vec<_> = (0..dim).map(|i| names.var(&format!("x{i}"))).collect();
    let mut rng = Prng::new(seed);
    let monomials: Vec<Monomial> = (0..pool)
        .map(|_| {
            let mut m = Monomial::new(rng.f64_in(0.005, 0.02));
            for _ in 0..rng.usize_in(1, 4) {
                m = m.pow(vars[rng.usize_in(0, dim)], rng.f64_in(-6.0, 3.0));
            }
            m
        })
        .collect();
    let mut gp = GpProblem::new(names);
    gp.set_objective(
        vars.iter()
            .fold(Posynomial::zero(), |acc, &v| acc + Monomial::var(v)),
    );
    let mut order: Vec<usize> = (0..pool).collect();
    for c in 0..60 {
        for i in 0..terms {
            let j = rng.usize_in(i, pool);
            order.swap(i, j);
        }
        let body = order[..terms]
            .iter()
            .fold(Posynomial::zero(), |acc, &i| acc + monomials[i].clone());
        gp.add_le_const(format!("c{c}"), body, 1.0)
            .expect("non-empty constraint");
    }
    gp
}

/// Whether `solve` sweeps `gp` through a term dictionary.
fn grouped(gp: &GpProblem) -> bool {
    TermDictionary::if_shared(gp.table(), &gp.log_form()).is_some()
}

#[test]
fn sentinel_line_search_walks_like_the_plain_walk_on_both_sweeps() {
    // (seed, pool, terms, sweep): a start at 10 violates constraints and
    // the first Newton steps overshoot in both phases.
    for (seed, pool, terms, sweep_grouped) in [(1, 40, 30, true), (9, 1000, 2, false)] {
        let gp = random_gp(seed, pool, terms);
        assert_eq!(grouped(&gp), sweep_grouped, "seed {seed}: wrong sweep");
        let opts = SolverOptions {
            initial_x: Some(vec![10.0; gp.dim()]),
            ..SolverOptions::default()
        };
        let (sparse, events) = traced(|| gp.solve(&opts));
        let sparse: GpSolution = sparse.expect("solve");
        let (dense, dense_events) = traced(|| gp.solve_reference(&opts));
        let dense = dense.expect("solve_reference");

        let searches = line_searches(&events);
        assert!(
            outside_in(&searches, "phase1") >= 2 && outside_in(&searches, "phase2") >= 2,
            "seed {seed}: the line searches must leave the domain repeatedly in both phases"
        );
        assert_eq!(searches, line_searches(&dense_events), "seed {seed}");
        assert_eq!(
            (sparse.phase1_newton_steps, sparse.phase2_newton_steps),
            (dense.phase1_newton_steps, dense.phase2_newton_steps),
            "seed {seed}"
        );
        assert_eq!(
            searches.len(),
            sparse.phase1_newton_steps + sparse.phase2_newton_steps,
            "seed {seed}: one gp/newton event per Newton step"
        );
        assert_eq!(bits(&sparse.x), bits(&dense.x), "seed {seed}");
    }
}

/// `x ≤ 1` and `x ≥ 2` at once.
fn infeasible_gp() -> GpProblem {
    let mut pool = VarPool::new();
    let x = pool.var("x");
    let mut gp = GpProblem::new(pool);
    gp.set_objective(Posynomial::var(x));
    gp.add_upper_bound(x, 1.0);
    gp.add_lower_bound(x, 2.0);
    gp
}

#[test]
fn infeasible_solve_emits_one_event_with_its_phase_one_steps() {
    let gp = infeasible_gp();
    let (out, events) = traced(|| gp.solve(&SolverOptions::default()));
    let Err(GpError::Infeasible { worst_violation }) = out else {
        panic!("expected infeasible, got {out:?}");
    };
    let infeasible: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "gp/infeasible")
        .collect();
    assert_eq!(
        infeasible.len(),
        1,
        "one gp/infeasible event per failed solve"
    );
    assert!(events.iter().all(|e| e.name != "gp/solve"));
    assert!(
        matches!(field(infeasible[0], "worst_violation"), Value::F64(v) if *v == worst_violation)
    );

    // The count is the solve's Newton steps: capped one below it, the
    // same solve runs out of budget; capped at it, it does not.
    let steps = count(infeasible[0], "phase1_steps");
    let capped = |cap| {
        gp.solve(&SolverOptions {
            max_total_newton: Some(cap),
            ..SolverOptions::default()
        })
    };
    assert!(matches!(
        capped(steps as usize),
        Err(GpError::Infeasible { .. })
    ));
    assert!(matches!(
        capped(steps as usize - 1),
        Err(GpError::BudgetExceeded { .. })
    ));
    // One event per Newton step; a step that ends a centering runs no
    // line search and reports no trial.
    let searches = line_searches(&events);
    assert!(searches.iter().all(|s| s.0 == "phase1"));
    assert_eq!(
        searches.len() as u64,
        steps,
        "one gp/newton event per Newton step"
    );
    assert!(searches.iter().any(|s| s.1 == 0 && !s.4));
}

/// Minimise `1/x` subject only to `x ≥ 0.5`: phase II drives `x` up until
/// the iterate leaves the size box.
fn unbounded_gp() -> GpProblem {
    let mut pool = VarPool::new();
    let x = pool.var("x");
    let mut gp = GpProblem::new(pool);
    gp.set_objective(Posynomial::from(Monomial::new(1.0).pow(x, -1.0)));
    gp.add_lower_bound(x, 0.5);
    gp
}

/// A run's `gp/*` events, name and payload, each float by its bits.
fn gp_stream(events: &[Event]) -> Vec<(&'static str, Vec<(&'static str, Value)>)> {
    events
        .iter()
        .filter(|e| e.name.starts_with("gp/"))
        .map(|e| {
            let fields = e
                .fields
                .iter()
                .map(|(name, v)| match v {
                    Value::F64(x) => (*name, Value::U64(x.to_bits())),
                    other => (*name, other.clone()),
                })
                .collect();
            (e.name, fields)
        })
        .collect()
}

#[test]
fn failed_solves_emit_the_same_gp_events_from_both_kernels() {
    for (gp, failure) in [
        (infeasible_gp(), "gp/infeasible"),
        (unbounded_gp(), "gp/escape"),
    ] {
        let opts = SolverOptions::default();
        let (sparse, events) = traced(|| gp.solve(&opts));
        let (dense, dense_events) = traced(|| gp.solve_reference(&opts));
        assert!(sparse.is_err(), "{failure}: expected a failed solve");
        assert_eq!(sparse.err(), dense.err(), "{failure}");
        let stream = gp_stream(&events);
        assert_eq!(
            stream.iter().filter(|e| e.0 == failure).count(),
            1,
            "{failure}: one failure event"
        );
        assert!(stream.iter().any(|e| e.0 == "gp/newton"), "{failure}");
        assert_eq!(stream, gp_stream(&dense_events), "{failure}");
    }
}
