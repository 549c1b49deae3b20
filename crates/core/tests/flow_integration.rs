//! End-to-end flow tests: compaction, GP sizing with STA verification,
//! delay minimization, exploration, and the §6.1 baseline-vs-SMART
//! protocol on real database macros.

use smart_core::{
    baseline_sizing, compaction_stats, explore_parallel, minimize_delay, size_circuit,
    BaselineMargins, DelaySpec, FlowError, ParallelOptions, SizingOptions,
};
use smart_macros::{MacroSpec, MuxTopology, ZeroDetectStyle};
use smart_models::ModelLibrary;
use smart_sta::{max_delay, Boundary};

fn lib() -> ModelLibrary {
    ModelLibrary::reference()
}

fn loaded_boundary(out_ports: &[&str], load: f64) -> Boundary {
    let mut b = Boundary::default();
    for p in out_ports {
        b.output_loads.insert((*p).to_string(), load);
    }
    b
}

#[test]
fn mux_sizing_meets_spec_and_is_sta_verified() {
    let circuit = MacroSpec::Mux {
        topology: MuxTopology::StronglyMutexedPass,
        width: 4,
    }
    .generate();
    let lib = lib();
    let boundary = loaded_boundary(&["y"], 25.0);
    let spec = DelaySpec::uniform(200.0);
    let out = size_circuit(&circuit, &lib, &boundary, &spec, &SizingOptions::default())
        .expect("sizing succeeds");
    assert!(
        out.measured_delay <= spec.data * 1.02,
        "measured {} vs spec {}",
        out.measured_delay,
        spec.data
    );
    // Re-measure independently with the STA convenience entry point.
    let independent = max_delay(&circuit, &lib, &out.sizing, &boundary).unwrap();
    assert!(independent <= spec.data * 1.02);
    assert!(out.total_width > 0.0);
}

#[test]
fn tighter_specs_cost_more_width() {
    let circuit = MacroSpec::Mux {
        topology: MuxTopology::UnsplitDomino,
        width: 8,
    }
    .generate();
    let lib = lib();
    let boundary = loaded_boundary(&["y"], 30.0);
    let opts = SizingOptions::default();
    let (t_star, _) = minimize_delay(&circuit, &lib, &boundary, &opts).expect("t*");
    let loose = size_circuit(
        &circuit,
        &lib,
        &boundary,
        &DelaySpec::uniform(t_star * 2.2),
        &opts,
    )
    .expect("loose spec");
    let tight = size_circuit(
        &circuit,
        &lib,
        &boundary,
        &DelaySpec::uniform(t_star * 1.2),
        &opts,
    )
    .expect("tight spec");
    assert!(
        tight.total_width > loose.total_width * 1.05,
        "tight {} vs loose {}",
        tight.total_width,
        loose.total_width
    );
}

#[test]
fn impossible_spec_is_reported_infeasible() {
    let circuit = MacroSpec::Incrementor { width: 8 }.generate();
    let lib = lib();
    let boundary = loaded_boundary(&["y7"], 10.0);
    let spec = DelaySpec::uniform(5.0); // less than one gate's intrinsic delay
    // Default gate: the static audit certifies the contradiction before
    // a single Newton step, naming the conflicting constraints.
    let err = size_circuit(&circuit, &lib, &boundary, &spec, &SizingOptions::default())
        .unwrap_err();
    assert!(
        matches!(err, FlowError::InfeasibleCertificate { ref constraints, .. } if !constraints.is_empty()),
        "expected a static infeasibility certificate, got {err:?}"
    );
    assert_eq!(err.taxonomy(), "infeasible");
    // Audit off: the solver reaches the same verdict dynamically.
    let off = SizingOptions {
        audit: smart_core::AuditGate::Off,
        ..Default::default()
    };
    let err = size_circuit(&circuit, &lib, &boundary, &spec, &off).unwrap_err();
    assert!(
        matches!(err, FlowError::Gp(_)),
        "expected GP infeasibility with the audit off, got {err:?}"
    );
    assert_eq!(err.taxonomy(), "infeasible");
}

#[test]
fn minimize_delay_finds_the_fast_corner() {
    let circuit = MacroSpec::ZeroDetect {
        width: 16,
        style: ZeroDetectStyle::Static,
    }
    .generate();
    let lib = lib();
    let boundary = loaded_boundary(&["z"], 15.0);
    let opts = SizingOptions::default();
    let (t_star, fast) = minimize_delay(&circuit, &lib, &boundary, &opts).expect("min delay");
    assert!(t_star > 0.0);
    // The fast corner must be achievable as a spec (with slack for the
    // path-based vs graph-based slope difference).
    let spec = DelaySpec::uniform(t_star * 1.1);
    let sized = size_circuit(&circuit, &lib, &boundary, &spec, &opts).expect("achievable");
    // And a 30% relaxed spec must need no more width.
    let relaxed = size_circuit(
        &circuit,
        &lib,
        &boundary,
        &DelaySpec::uniform(t_star * 1.4),
        &opts,
    )
    .expect("relaxed");
    assert!(relaxed.total_width <= sized.total_width * 1.001);
    let _ = fast;
}

#[test]
fn compaction_collapses_regular_structures() {
    // The 16-bit incrementor has shared labels on every slice: raw paths
    // grow with width, compacted classes must stay near-constant.
    let lib = lib();
    let opts = SizingOptions::default();
    let c8 = MacroSpec::Incrementor { width: 8 }.generate();
    let c16 = MacroSpec::Incrementor { width: 16 }.generate();
    let b = Boundary::default();
    let s8 = compaction_stats(&c8, &lib, &b, &opts).unwrap();
    let s16 = compaction_stats(&c16, &lib, &b, &opts).unwrap();
    assert!(s16.raw_paths > 2 * s8.raw_paths, "raw paths grow");
    // A ripple chain has O(width) genuinely distinct path lengths, so
    // classes may grow linearly — but never faster.
    assert!(
        s16.classes.len() <= s8.classes.len() * 5 / 2 + 4,
        "classes grow at most linearly: 8-bit {} vs 16-bit {}",
        s8.classes.len(),
        s16.classes.len()
    );
    assert!(s16.ratio() > 2.0, "ratio {}", s16.ratio());
}

#[test]
fn compaction_is_sound_for_the_critical_path() {
    // The measured critical delay must equal the worst compacted-class
    // delay: dominance never drops the true critical path.
    let circuit = MacroSpec::Decoder { in_bits: 4 }.generate();
    let lib = lib();
    let boundary = Boundary::default();
    let opts = SizingOptions::default();
    let (t_star, _) = minimize_delay(&circuit, &lib, &boundary, &opts).expect("t*");
    let out = size_circuit(
        &circuit,
        &lib,
        &boundary,
        &DelaySpec::uniform(t_star * 1.3),
        &opts,
    )
    .expect("sizing");
    let independent = max_delay(&circuit, &lib, &out.sizing, &boundary).unwrap();
    assert!(
        (independent - out.measured_delay).abs() < 1e-6,
        "flow-reported {} vs full STA {}",
        out.measured_delay,
        independent
    );
}

#[test]
fn designer_pins_are_respected() {
    let circuit = MacroSpec::Mux {
        topology: MuxTopology::StronglyMutexedPass,
        width: 4,
    }
    .generate();
    let lib = lib();
    let boundary = loaded_boundary(&["y"], 20.0);
    let mut opts = SizingOptions::default();
    opts.pinned.insert("N2".into(), 6.0); // designer fixes the pass label
    let out = size_circuit(
        &circuit,
        &lib,
        &boundary,
        &DelaySpec::uniform(320.0),
        &opts,
    )
    .expect("sizing with pin");
    let n2 = circuit.labels().lookup("N2").unwrap();
    assert!(
        (out.sizing.width(n2) - 6.0).abs() < 0.01,
        "pinned N2 = {}",
        out.sizing.width(n2)
    );
    // Unknown pin name errors.
    let mut bad = SizingOptions::default();
    bad.pinned.insert("NOPE".into(), 2.0);
    let err =
        size_circuit(&circuit, &lib, &boundary, &DelaySpec::uniform(320.0), &bad).unwrap_err();
    assert!(matches!(err, FlowError::UnknownPin { .. }));
}

#[test]
fn smart_beats_baseline_at_equal_delay() {
    // The §6.1 protocol: hand-design the macro, measure it, re-size with
    // SMART to the same delay, compare widths.
    let lib = lib();
    for spec in [
        MacroSpec::Incrementor { width: 13 },
        MacroSpec::ZeroDetect {
            width: 16,
            style: ZeroDetectStyle::Static,
        },
        MacroSpec::Decoder { in_bits: 3 },
    ] {
        let circuit = spec.generate();
        let out_names: Vec<String> =
            circuit.output_ports().map(|p| p.name.clone()).collect();
        let mut boundary = Boundary::default();
        for n in &out_names {
            boundary.output_loads.insert(n.clone(), 12.0);
        }
        let base = baseline_sizing(&circuit, &lib, &boundary, &BaselineMargins::default());
        let base_delay = max_delay(&circuit, &lib, &base, &boundary).unwrap();
        let base_width = circuit.total_width(&base);

        let sized = size_circuit(
            &circuit,
            &lib,
            &boundary,
            &DelaySpec::uniform(base_delay),
            &SizingOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert!(
            sized.total_width < base_width,
            "{spec}: SMART {} vs baseline {}",
            sized.total_width,
            base_width
        );
        let savings = 1.0 - sized.total_width / base_width;
        assert!(
            savings > 0.05,
            "{spec}: savings should be material, got {:.1}%",
            savings * 100.0
        );
    }
}

#[test]
fn exploration_ranks_mux_topologies() {
    let request = MacroSpec::Mux {
        topology: MuxTopology::StronglyMutexedPass,
        width: 4,
    };
    let lib = lib();
    let boundary = loaded_boundary(&["y"], 25.0);
    let spec = DelaySpec::uniform(300.0);
    let par = ParallelOptions::from_env();
    let table = explore_parallel(&request, &lib, &boundary, &spec, &SizingOptions::default(), &par);
    assert!(table.candidates.len() >= 4);
    assert!(table.feasible_count() >= 2, "most topologies meet 300 ps");
    let best = table.best_by_width().expect("a winner exists");
    let metrics = best.result.as_ref().unwrap();
    // Every other feasible candidate is no lighter.
    for cand in &table.candidates {
        if let Ok(m) = &cand.result {
            assert!(m.outcome.total_width >= metrics.outcome.total_width - 1e-9);
        }
    }
}

#[test]
fn domino_mux_sizing_tracks_precharge_separately() {
    let circuit = MacroSpec::Mux {
        topology: MuxTopology::PartitionedDomino,
        width: 8,
    }
    .generate();
    let lib = lib();
    let boundary = loaded_boundary(&["y"], 20.0);
    let spec = DelaySpec {
        data: 220.0,
        precharge: Some(160.0),
    };
    let out = size_circuit(&circuit, &lib, &boundary, &spec, &SizingOptions::default())
        .expect("domino sizing");
    assert!(out.measured_delay <= spec.data * 1.02);
    assert!(out.measured_precharge <= 160.0 * 1.02);
    assert!(out.measured_precharge > 0.0, "precharge paths were timed");
}

#[test]
fn slow_corner_needs_more_width_at_the_same_spec() {
    use smart_models::Process;
    let circuit = MacroSpec::Mux {
        topology: MuxTopology::StronglyMutexedPass,
        width: 4,
    }
    .generate();
    let boundary = loaded_boundary(&["y"], 20.0);
    let spec = DelaySpec::uniform(280.0);
    let opts = SizingOptions::default();
    let typ = size_circuit(
        &circuit,
        &ModelLibrary::new(Process::reference()),
        &boundary,
        &spec,
        &opts,
    )
    .expect("typical");
    let slow = size_circuit(
        &circuit,
        &ModelLibrary::new(Process::slow_corner()),
        &boundary,
        &spec,
        &opts,
    )
    .expect("slow corner");
    let fast = size_circuit(
        &circuit,
        &ModelLibrary::new(Process::fast_corner()),
        &boundary,
        &spec,
        &opts,
    )
    .expect("fast corner");
    assert!(
        slow.total_width > typ.total_width && typ.total_width > fast.total_width,
        "corner ordering: slow {} typ {} fast {}",
        slow.total_width,
        typ.total_width,
        fast.total_width
    );
}

#[test]
fn incrementor_exploration_trades_ripple_vs_lookahead() {
    // At a relaxed spec the ripple chain wins on width; at a spec below
    // the ripple's reach, only the lookahead tree survives — the Fig.-1
    // story on a second macro family.
    let lib = lib();
    let width = 13;
    let request = MacroSpec::Incrementor { width };
    let ripple = request.generate();
    let out_names: Vec<String> = ripple.output_ports().map(|p| p.name.clone()).collect();
    let mut boundary = Boundary::default();
    for n in &out_names {
        boundary.output_loads.insert(n.clone(), 10.0);
    }
    let opts = SizingOptions::default();
    let (t_ripple, _) = minimize_delay(&ripple, &lib, &boundary, &opts).expect("ripple t*");
    let cla = MacroSpec::IncrementorCla { width }.generate();
    let (t_cla, _) = minimize_delay(&cla, &lib, &boundary, &opts).expect("cla t*");
    assert!(
        t_cla < t_ripple * 0.75,
        "log-depth must be materially faster: cla {t_cla} vs ripple {t_ripple}"
    );

    // Relaxed exploration: both feasible, ripple lighter.
    let relaxed = explore_parallel(
        &request,
        &lib,
        &boundary,
        &DelaySpec::uniform(t_ripple * 1.5),
        &opts,
        &ParallelOptions::from_env(),
    );
    assert_eq!(relaxed.candidates.len(), 2);
    assert_eq!(relaxed.feasible_count(), 2);
    let best = relaxed.best_by_width().unwrap();
    assert!(
        matches!(best.spec, MacroSpec::Incrementor { .. }),
        "ripple wins relaxed: {}",
        best.spec
    );

    // Tight exploration: only the lookahead makes it.
    let tight = explore_parallel(
        &request,
        &lib,
        &boundary,
        &DelaySpec::uniform(t_cla * 1.3),
        &opts,
        &ParallelOptions::from_env(),
    );
    assert_eq!(tight.feasible_count(), 1);
    let best = tight.best_by_width().unwrap();
    assert!(
        matches!(best.spec, MacroSpec::IncrementorCla { .. }),
        "lookahead is the only tight survivor: {}",
        best.spec
    );
}

#[test]
fn warm_start_reproduces_the_cold_solution() {
    let circuit = MacroSpec::Mux {
        topology: MuxTopology::UnsplitDomino,
        width: 8,
    }
    .generate();
    let lib = lib();
    let boundary = loaded_boundary(&["y"], 20.0);
    let spec = DelaySpec::uniform(300.0);
    let cold = size_circuit(&circuit, &lib, &boundary, &spec, &SizingOptions::default())
        .expect("cold run");
    let warm_opts = SizingOptions {
        warm_start: Some(cold.sizing.clone()),
        ..Default::default()
    };
    // Slightly perturbed spec, warm-started from the previous solution.
    let warm = size_circuit(
        &circuit,
        &lib,
        &boundary,
        &DelaySpec::uniform(305.0),
        &warm_opts,
    )
    .expect("warm run");
    assert!(warm.measured_delay <= 305.0 * 1.02);
    // Solutions are close (the optimum moved only slightly).
    for (label, _) in circuit.labels().iter() {
        let c = cold.sizing.width(label);
        let w = warm.sizing.width(label);
        assert!(
            (w - c).abs() / c < 0.25,
            "label widths should stay close: {c} vs {w}"
        );
    }
}
