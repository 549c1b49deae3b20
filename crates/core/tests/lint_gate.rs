//! The exploration lint gate (ISSUE PR 3 acceptance): an electrically
//! illegal candidate is rejected as a typed `FlowError::Lint` row
//! *before* any sizing work — zero GP iterations, zero cache lookups —
//! while clean candidates and `LintGate::Off` sweeps are unaffected.

use std::sync::Arc;

use smart_core::{
    explore_with_parallel, DelaySpec, FlowError, LintGate, ParallelOptions, SizingCache,
    SizingOptions,
};
use smart_macros::{MacroSpec, MuxTopology};
use smart_models::ModelLibrary;
use smart_netlist::{Circuit, ComponentKind, DeviceRole, NetKind, Network, Skew};
use smart_sta::Boundary;

/// The broken two-stage pipeline: D1 → inverter → *extra inverter* → D2.
/// The second inversion makes the D2 data input monotone-falling during
/// evaluate — rule SL101, Error severity.
fn broken_pipeline() -> Circuit {
    let mut c = Circuit::new("broken");
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    let a = c.add_net("a").unwrap();
    let dyn1 = c.add_net_kind("dyn1", NetKind::Dynamic).unwrap();
    let q = c.add_net("q").unwrap();
    let qb = c.add_net("qb").unwrap();
    let dyn2 = c.add_net_kind("dyn2", NetKind::Dynamic).unwrap();
    let y = c.add_net("y").unwrap();
    let p = c.label("P1");
    let n = c.label("N1");
    let inv = |c: &mut Circuit, path: &str, a, y| {
        c.add(
            path,
            ComponentKind::Inverter { skew: Skew::Balanced },
            &[a, y],
            &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)],
        )
        .unwrap();
    };
    let dom = |c: &mut Circuit, path: &str, clk, d, y| {
        c.add(
            path,
            ComponentKind::Domino { network: Network::Input(0), clocked_eval: true },
            &[clk, d, y],
            &[
                (DeviceRole::Precharge, p),
                (DeviceRole::DataN, n),
                (DeviceRole::Evaluate, n),
            ],
        )
        .unwrap();
    };
    dom(&mut c, "d1", clk, a, dyn1);
    inv(&mut c, "h1", dyn1, q);
    inv(&mut c, "bad", q, qb);
    dom(&mut c, "d2", clk, qb, dyn2);
    inv(&mut c, "h2", dyn2, y);
    c.expose_input("clk", clk);
    c.expose_input("a", a);
    c.expose_output("y", y);
    c.add_route_parasitics(0.5, 0.8);
    c
}

/// The poisoned candidate is tagged by a spec the generator intercepts.
fn poison_tag() -> MacroSpec {
    MacroSpec::Mux { topology: MuxTopology::Tristate, width: 4 }
}

fn generate(spec: &MacroSpec) -> Circuit {
    if *spec == poison_tag() {
        broken_pipeline()
    } else {
        spec.generate()
    }
}

fn boundary() -> Boundary {
    let mut b = Boundary::default();
    b.output_loads.insert("y".into(), 15.0);
    b
}

#[test]
fn poisoned_candidate_is_rejected_with_zero_sizing_work() {
    let lib = ModelLibrary::reference();
    let cache = Arc::new(SizingCache::new());
    let mut opts = SizingOptions::default();
    opts.cache = Some(Arc::clone(&cache));
    assert_eq!(opts.lint, LintGate::Errors, "the gate must default on");

    let exploration = explore_with_parallel(
        vec![poison_tag()],
        generate,
        &lib,
        &boundary(),
        &DelaySpec::uniform(400.0),
        &opts,
        &ParallelOptions::from_env(),
    );

    assert_eq!(exploration.candidates.len(), 1);
    let row = &exploration.candidates[0];
    assert!(row.circuit.is_some(), "the elaborated circuit is kept for reporting");
    let err = row.result.as_ref().expect_err("poisoned candidate must fail");
    match err {
        FlowError::Lint { candidate, errors, findings } => {
            assert_eq!(candidate, &poison_tag().to_string());
            assert!(*errors >= 1);
            assert!(findings.iter().any(|f| f.starts_with("SL101")), "{findings:?}");
        }
        other => panic!("expected FlowError::Lint, got {other:?}"),
    }
    assert_eq!(err.taxonomy(), "lint");

    // The acceptance criterion: zero sizing iterations. The gate sits
    // before `size_and_measure`, so the attached cache saw no lookup at
    // all — not even a probing miss.
    assert_eq!(cache.stats(), (0, 0), "lint rejection must cost zero cache traffic");
    assert_eq!(exploration.cache_hits, 0);
    assert_eq!(exploration.cache_misses, 0);
}

#[test]
fn gate_off_lets_the_same_candidate_reach_sizing() {
    let lib = ModelLibrary::reference();
    let cache = Arc::new(SizingCache::new());
    let mut opts = SizingOptions::default();
    opts.cache = Some(Arc::clone(&cache));
    opts.lint = LintGate::Off;

    let exploration = explore_with_parallel(
        vec![poison_tag()],
        generate,
        &lib,
        &boundary(),
        &DelaySpec::uniform(400.0),
        &opts,
        &ParallelOptions::from_env(),
    );

    let row = &exploration.candidates[0];
    assert!(
        !matches!(row.result, Err(FlowError::Lint { .. })),
        "LintGate::Off must not produce lint rows"
    );
    // With the gate off the candidate reached the sizer: the cache saw
    // its lookup (a miss — nothing was cached beforehand).
    assert!(cache.stats().1 >= 1, "sizing must have probed the cache");
}

#[test]
fn mixed_sweep_reports_lint_in_the_failure_taxonomy() {
    let lib = ModelLibrary::reference();
    let opts = SizingOptions::default();

    let exploration = explore_with_parallel(
        vec![
            MacroSpec::Mux { topology: MuxTopology::StronglyMutexedPass, width: 4 },
            poison_tag(),
            MacroSpec::Mux { topology: MuxTopology::EncodedSelectPass, width: 2 },
        ],
        generate,
        &lib,
        &boundary(),
        &DelaySpec::uniform(400.0),
        &opts,
        &ParallelOptions::from_env(),
    );

    assert_eq!(exploration.candidates.len(), 3);
    // The sweep survives the poisoned row and the clean rows still size.
    assert!(exploration.feasible_count() >= 1, "clean candidates must still size");
    let taxonomy = exploration.failure_taxonomy();
    assert!(
        taxonomy.contains(&("lint", 1)),
        "taxonomy must carry the lint row: {taxonomy:?}"
    );
    // Display of the lint row names the rule for the report table.
    let lint_row = exploration
        .candidates
        .iter()
        .find(|c| matches!(c.result, Err(FlowError::Lint { .. })))
        .unwrap();
    let msg = lint_row.result.as_ref().unwrap_err().to_string();
    assert!(msg.contains("rejected by lint"), "{msg}");
    assert!(msg.contains("SL101"), "{msg}");
}

#[test]
fn clean_database_sweeps_are_unaffected_by_the_gate() {
    let lib = ModelLibrary::reference();
    let request = MacroSpec::Mux { topology: MuxTopology::StronglyMutexedPass, width: 4 };

    let mut gate_on = SizingOptions::default();
    gate_on.lint = LintGate::Errors;
    let mut gate_off = SizingOptions::default();
    gate_off.lint = LintGate::Off;

    let spec = DelaySpec::uniform(400.0);
    let on = explore_with_parallel(
        request.alternatives(),
        MacroSpec::generate,
        &lib,
        &boundary(),
        &spec,
        &gate_on,
        &ParallelOptions::from_env(),
    );
    let off = explore_with_parallel(
        request.alternatives(),
        MacroSpec::generate,
        &lib,
        &boundary(),
        &spec,
        &gate_off,
        &ParallelOptions::from_env(),
    );

    assert_eq!(on.candidates.len(), off.candidates.len());
    assert!(
        on.candidates
            .iter()
            .all(|c| !matches!(c.result, Err(FlowError::Lint { .. }))),
        "database macros are lint-clean; the gate must reject none of them"
    );
    assert_eq!(on.feasible_count(), off.feasible_count());
    for (a, b) in on.candidates.iter().zip(&off.candidates) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.result.is_ok(), b.result.is_ok());
    }
}
