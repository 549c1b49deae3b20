//! Fault-isolation tests for the exploration runtime: pathological
//! candidates (panicking generators, infeasible specs, non-finite
//! boundaries, exhausted budgets) must become typed table rows or typed
//! errors — never a dead sweep, never a panic escaping the flow.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use smart_core::{
    compact, explore_parallel, explore_with_parallel, minimize_delay, size_circuit, DelaySpec,
    FlowBudget, FlowError, LintGate, ParallelOptions, SizingOptions,
};
use smart_gp::CancelToken;
use smart_macros::{MacroSpec, MuxTopology};
use smart_models::ModelLibrary;
use smart_netlist::{Circuit, ComponentKind, DeviceRole, Skew};
use smart_sta::Boundary;

fn mux(topology: MuxTopology) -> MacroSpec {
    MacroSpec::Mux { topology, width: 4 }
}

fn boundary(load: f64) -> Boundary {
    let mut b = Boundary::default();
    b.output_loads.insert("y".into(), load);
    b
}

#[test]
fn panicking_candidate_still_yields_a_full_exploration_table() {
    let lib = ModelLibrary::reference();
    let specs = vec![
        mux(MuxTopology::StronglyMutexedPass),
        mux(MuxTopology::UnsplitDomino), // this one's generator will panic
        mux(MuxTopology::Tristate),
    ];
    let n = specs.len();
    let table = explore_with_parallel(
        specs,
        |s| {
            if matches!(
                s,
                MacroSpec::Mux {
                    topology: MuxTopology::UnsplitDomino,
                    ..
                }
            ) {
                panic!("deliberately broken generator");
            }
            s.generate()
        },
        &lib,
        &boundary(15.0),
        &DelaySpec::uniform(400.0),
        &SizingOptions::default(),
        &ParallelOptions::from_env(),
    );

    // One row per alternative — the panic cost one row, not the sweep.
    assert_eq!(table.candidates.len(), n);
    assert_eq!(table.feasible_count(), n - 1);
    let broken = &table.candidates[1];
    assert!(broken.circuit.is_none(), "panicked before elaboration");
    match &broken.result {
        Err(FlowError::Internal { candidate, panic_msg }) => {
            assert!(candidate.contains("mux"), "{candidate}");
            assert!(panic_msg.contains("deliberately broken"), "{panic_msg}");
        }
        other => panic!("expected Internal row, got {other:?}"),
    }
    assert_eq!(table.failure_taxonomy(), vec![("panic", 1)]);
    // The survivors still rank.
    assert!(table.best_by_width().is_some());
    assert!(table.best_by_power().is_some());
}

#[test]
fn panic_during_sizing_is_contained_too() {
    // A panic raised *after* elaboration (inside size_and_measure's
    // boundary) must also become an Internal row. We provoke it with a
    // generator returning a circuit whose sizing panics is hard to arrange
    // honestly, so instead panic in the elaborator for a middle candidate
    // and verify order/count bookkeeping stays exact.
    let lib = ModelLibrary::reference();
    let specs = vec![
        mux(MuxTopology::StronglyMutexedPass),
        mux(MuxTopology::Tristate),
    ];
    let table = explore_with_parallel(
        specs,
        |s| {
            if matches!(
                s,
                MacroSpec::Mux {
                    topology: MuxTopology::Tristate,
                    ..
                }
            ) {
                // Panic with a String payload to exercise that downcast arm.
                panic!("{}", String::from("string payload panic"));
            }
            s.generate()
        },
        &lib,
        &boundary(15.0),
        &DelaySpec::uniform(400.0),
        &SizingOptions::default(),
        &ParallelOptions::from_env(),
    );
    assert_eq!(table.candidates.len(), 2);
    match &table.candidates[1].result {
        Err(FlowError::Internal { panic_msg, .. }) => {
            assert_eq!(panic_msg, "string payload panic");
        }
        other => panic!("expected Internal row, got {other:?}"),
    }
}

#[test]
fn infeasible_spec_walks_the_relaxation_ladder_and_records_the_rung() {
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let lib = ModelLibrary::reference();
    let b = boundary(15.0);
    let mut opts = SizingOptions::default();
    let (t_star, _) = minimize_delay(&circuit, &lib, &b, &opts).expect("t*");

    // 5% below the achievable minimum: infeasible as asked...
    let spec = DelaySpec::uniform(t_star * 0.95);
    let strict = size_circuit(&circuit, &lib, &b, &spec, &opts);
    assert!(strict.is_err(), "sub-minimum spec must fail without a ladder");

    // ...but the +2% / +10% relaxation ladder rescues it at the last rung.
    opts.relaxation = vec![0.02, 0.10];
    let out = size_circuit(&circuit, &lib, &b, &spec, &opts).expect("ladder rescues");
    assert_eq!(out.spec_relaxation, 0.10, "achieved rung must be recorded");
    let relaxed_target = spec.relaxed(0.10).data;
    assert!(
        out.measured_delay <= relaxed_target * (1.0 + opts.timing_tolerance),
        "delay {} vs relaxed target {relaxed_target}",
        out.measured_delay
    );

    // A feasible spec never relaxes.
    let easy = size_circuit(&circuit, &lib, &b, &DelaySpec::uniform(t_star * 1.5), &opts)
        .expect("feasible");
    assert_eq!(easy.spec_relaxation, 0.0);
}

#[test]
fn exhausted_ladder_returns_the_last_typed_error() {
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let lib = ModelLibrary::reference();
    let b = boundary(15.0);
    let mut opts = SizingOptions::default();
    // 1 ps is hopeless even relaxed by 10%.
    opts.relaxation = vec![0.02, 0.05, 0.10];
    let err = size_circuit(&circuit, &lib, &b, &DelaySpec::uniform(1.0), &opts).unwrap_err();
    let tag = err.taxonomy();
    assert!(
        tag == "infeasible" || tag == "no-convergence",
        "expected a relaxable taxonomy, got {tag} ({err})"
    );
}

#[test]
fn zero_wall_clock_budget_trips_budget_exceeded() {
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let lib = ModelLibrary::reference();
    let mut opts = SizingOptions::default();
    opts.budget.wall_clock = Some(Duration::ZERO);
    let err =
        size_circuit(&circuit, &lib, &boundary(15.0), &DelaySpec::uniform(400.0), &opts)
            .unwrap_err();
    match &err {
        FlowError::BudgetExceeded { .. } => {}
        other => panic!("expected BudgetExceeded, got {other}"),
    }
    assert_eq!(err.taxonomy(), "budget");
}

#[test]
fn wall_clock_budget_is_enforced_inside_compaction() {
    // inc256 compacts in tens of milliseconds even in a release build, so
    // a 1 ms budget expires inside compaction, long before the first
    // outer iteration of the sizing loop.
    let circuit = MacroSpec::Incrementor { width: 256 }.generate();
    let lib = ModelLibrary::reference();
    let mut opts = SizingOptions::default();
    opts.budget.wall_clock = Some(Duration::from_millis(1));
    let err = size_circuit(
        &circuit,
        &lib,
        &Boundary::default(),
        &DelaySpec::uniform(5000.0),
        &opts,
    )
    .unwrap_err();
    match &err {
        FlowError::BudgetExceeded {
            what: "wall-clock",
            detail,
        } => assert!(detail.contains("compaction"), "{detail}"),
        other => panic!("expected a wall-clock budget error, got {other}"),
    }
}

#[test]
fn compaction_stops_on_a_fired_cancellation_token() {
    let circuit = MacroSpec::Incrementor { width: 64 }.generate();
    let lib = ModelLibrary::reference();
    let (_, vars) = smart_models::label_vars(&circuit);
    let token = CancelToken::new();
    token.cancel();
    let mut opts = SizingOptions::default();
    opts.budget.cancel = Some(Arc::new(token));
    match compact(&circuit, &lib, &vars, &HashMap::new(), &opts) {
        Err(FlowError::BudgetExceeded { what: "cancelled", .. }) => {}
        Err(other) => panic!("expected a cancelled budget error, got {other}"),
        Ok(c) => panic!("compaction ignored the token ({} classes)", c.classes.len()),
    }
}

#[test]
fn newton_step_budget_is_cooperative_and_typed() {
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let lib = ModelLibrary::reference();
    let mut opts = SizingOptions::default();
    // One Newton step total is never enough to center a real sizing GP.
    opts.budget.max_gp_iters = Some(1);
    let err =
        size_circuit(&circuit, &lib, &boundary(15.0), &DelaySpec::uniform(400.0), &opts)
            .unwrap_err();
    assert_eq!(err.taxonomy(), "budget", "{err}");
}

#[test]
fn candidate_budget_caps_the_sweep_but_keeps_the_table_complete() {
    let lib = ModelLibrary::reference();
    let mut opts = SizingOptions::default();
    opts.budget = FlowBudget {
        max_candidates: Some(1),
        ..FlowBudget::unlimited()
    };
    let request = mux(MuxTopology::StronglyMutexedPass);
    let table = explore_parallel(
        &request,
        &lib,
        &boundary(15.0),
        &DelaySpec::uniform(400.0),
        &opts,
        &ParallelOptions::from_env(),
    );
    assert!(table.candidates.len() > 1, "mux database has alternatives");
    // Requested topology is evaluated first and within budget.
    assert_eq!(table.candidates[0].spec, request);
    assert!(table.candidates[0].result.is_ok());
    for over in &table.candidates[1..] {
        match &over.result {
            Err(FlowError::BudgetExceeded { what, .. }) => assert_eq!(*what, "candidates"),
            other => panic!("expected BudgetExceeded row, got {other:?}"),
        }
        assert!(over.circuit.is_none(), "capped candidates are not elaborated");
    }
    let tax = table.failure_taxonomy();
    assert_eq!(tax, vec![("budget", table.candidates.len() - 1)]);
}

#[test]
fn non_finite_boundary_is_a_typed_error_not_a_panic() {
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let lib = ModelLibrary::reference();
    for bad in [f64::NAN, f64::INFINITY] {
        let err = size_circuit(
            &circuit,
            &lib,
            &boundary(bad),
            &DelaySpec::uniform(400.0),
            &SizingOptions::default(),
        )
        .unwrap_err();
        let tag = err.taxonomy();
        assert!(
            tag == "non-finite" || tag == "sta",
            "load {bad}: expected non-finite taxonomy, got {tag} ({err})"
        );
    }
}

#[test]
fn non_finite_delay_spec_is_a_typed_error() {
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let lib = ModelLibrary::reference();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = size_circuit(
            &circuit,
            &lib,
            &boundary(15.0),
            &DelaySpec::uniform(bad),
            &SizingOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.taxonomy(), "non-finite", "spec {bad}: {err}");
    }
}

/// A finite budget ≤ 0 is a bad request, not a non-finite value (it was
/// reported as "non-finite value in spec").
#[test]
fn non_positive_delay_spec_is_an_invalid_spec_request() {
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let lib = ModelLibrary::reference();
    let specs = [
        DelaySpec::uniform(0.0),
        DelaySpec::uniform(-5.0),
        DelaySpec {
            data: 300.0,
            precharge: Some(-1.0),
        },
    ];
    for spec in specs {
        let err = size_circuit(&circuit, &lib, &boundary(15.0), &spec, &SizingOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, FlowError::InvalidRequest { what: "spec", .. }),
            "spec {spec:?}: {err}"
        );
    }
}

/// A negative output load used to be dropped by the GP (capacitance terms
/// must be positive) but timed by STA, so the two verified different
/// circuits: `mux8 --load -1` reported a faster critical path than
/// `--load 0`.
#[test]
fn negative_output_load_is_an_invalid_boundary_request() {
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let lib = ModelLibrary::reference();
    let err = size_circuit(
        &circuit,
        &lib,
        &boundary(-1.0),
        &DelaySpec::uniform(300.0),
        &SizingOptions::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, FlowError::InvalidRequest { what: "boundary", .. }),
        "{err}"
    );
    assert!(size_circuit(
        &circuit,
        &lib,
        &boundary(0.0),
        &DelaySpec::uniform(300.0),
        &SizingOptions::default(),
    )
    .is_ok());
}

#[test]
fn exploration_with_all_infeasible_candidates_reports_every_row() {
    // Every mux alternative at a 1 ps spec: nothing is feasible, but the
    // table still carries one typed row per alternative.
    let lib = ModelLibrary::reference();
    let request = mux(MuxTopology::StronglyMutexedPass);
    let table = explore_parallel(
        &request,
        &lib,
        &boundary(15.0),
        &DelaySpec::uniform(1.0),
        &SizingOptions::default(),
        &ParallelOptions::from_env(),
    );
    assert!(!table.candidates.is_empty());
    assert_eq!(table.feasible_count(), 0);
    assert!(table.best_by_width().is_none());
    let total: usize = table.failure_taxonomy().iter().map(|(_, n)| n).sum();
    assert_eq!(total, table.candidates.len(), "every row classified");
}

/// Regression: a candidate whose output is reachable only from a net STA
/// never seeds (a floating driver, never exposed as an input port) used
/// to measure a 0 ps delay via the silent `unwrap_or(0.0)` fallback —
/// trivially "meeting" any spec and winning every delay comparison in the
/// sweep. It must instead be a typed `no-endpoints` taxonomy row.
#[test]
fn severed_candidate_is_a_no_endpoints_row_not_a_zero_ps_winner() {
    let lib = ModelLibrary::reference();
    // "fl" is never exposed as an input port, so timing analysis never
    // seeds it and no arrival ever reaches the output.
    let severed = || {
        let mut c = Circuit::new("severed");
        let fl = c.add_net("fl").unwrap();
        let y = c.add_net("y").unwrap();
        let bind = vec![
            (DeviceRole::PullUp, c.label("P")),
            (DeviceRole::PullDown, c.label("N")),
        ];
        c.add(
            "u0",
            ComponentKind::Inverter { skew: Skew::Balanced },
            &[fl, y],
            &bind,
        )
        .unwrap();
        c.expose_output("y", y);
        c
    };
    let mut opts = SizingOptions::default();
    // The lint gate would reject the floating driver before sizing; turn
    // it off so the sweep exercises the measurement path itself.
    opts.lint = LintGate::Off;
    let table = explore_with_parallel(
        vec![
            mux(MuxTopology::StronglyMutexedPass),
            mux(MuxTopology::Tristate), // becomes the severed circuit
        ],
        |s| {
            if matches!(
                s,
                MacroSpec::Mux {
                    topology: MuxTopology::Tristate,
                    ..
                }
            ) {
                severed()
            } else {
                s.generate()
            }
        },
        &lib,
        &boundary(15.0),
        &DelaySpec::uniform(400.0),
        &opts,
        &ParallelOptions::from_env(),
    );
    assert_eq!(table.candidates.len(), 2);
    match &table.candidates[1].result {
        Err(FlowError::NoEndpoints) => {}
        other => panic!("expected a NoEndpoints row, got {other:?}"),
    }
    assert!(
        table.failure_taxonomy().contains(&("no-endpoints", 1)),
        "{:?}",
        table.failure_taxonomy()
    );
    // The severed candidate must never outrank the honest one.
    assert_eq!(table.feasible_count(), 1);
    let best = table.best_by_width().expect("healthy candidate sizes");
    assert_eq!(best.spec, mux(MuxTopology::StronglyMutexedPass));
}

#[test]
fn gp_restart_counter_is_reported() {
    // The retry machinery is exercised indirectly; on a healthy problem it
    // must report zero restarts (the first attempt converges).
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let lib = ModelLibrary::reference();
    let out = size_circuit(
        &circuit,
        &lib,
        &boundary(15.0),
        &DelaySpec::uniform(400.0),
        &SizingOptions::default(),
    )
    .expect("feasible");
    assert_eq!(out.gp_restarts, 0);
    assert_eq!(out.spec_relaxation, 0.0);
}
