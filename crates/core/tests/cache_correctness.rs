//! Cache-correctness suite for the sizing memoization layer: a memoized
//! result must be bitwise-identical to the cold solve it replaces,
//! distinct inputs must never alias, and a cache shared across the
//! threads of a parallel sweep must leave the exploration table
//! byte-identical to the cache-free serial run.

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::Arc;

use smart_core::{
    cache_key, explore_with_parallel, size_circuit, size_lazily, variation_sweep, DelaySpec,
    ParallelOptions, SizingCache, SizingOptions, SizingOutcome, VariationOptions,
};
use smart_macros::{MacroSpec, MuxTopology};
use smart_models::ModelLibrary;
use smart_sta::Boundary;

fn mux(topology: MuxTopology) -> MacroSpec {
    MacroSpec::Mux { topology, width: 4 }
}

fn boundary(load: f64) -> Boundary {
    let mut b = Boundary::default();
    b.output_loads.insert("y".into(), load);
    b
}

fn with_cache(cache: &Arc<SizingCache>) -> SizingOptions {
    let mut opts = SizingOptions::default();
    opts.cache = Some(Arc::clone(cache));
    opts
}

/// Field-by-field bitwise equality of two outcomes (f64 compared on bit
/// patterns, so `-0.0 != 0.0` and NaN payloads count — the cache must
/// replay the cold solve exactly, not approximately).
fn assert_bitwise_equal(a: &SizingOutcome, b: &SizingOutcome, what: &str) {
    assert_eq!(a.sizing.len(), b.sizing.len(), "{what}: width count");
    for (i, (x, y)) in a
        .sizing
        .as_slice()
        .iter()
        .zip(b.sizing.as_slice())
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: width[{i}]");
    }
    assert_eq!(
        a.measured_delay.to_bits(),
        b.measured_delay.to_bits(),
        "{what}: measured_delay"
    );
    assert_eq!(
        a.measured_precharge.to_bits(),
        b.measured_precharge.to_bits(),
        "{what}: measured_precharge"
    );
    assert_eq!(
        a.total_width.to_bits(),
        b.total_width.to_bits(),
        "{what}: total_width"
    );
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.constraint_paths, b.constraint_paths, "{what}: constraint_paths");
    assert_eq!(a.raw_paths, b.raw_paths, "{what}: raw_paths");
    assert_eq!(
        a.spec_relaxation.to_bits(),
        b.spec_relaxation.to_bits(),
        "{what}: spec_relaxation"
    );
    assert_eq!(a.gp_restarts, b.gp_restarts, "{what}: gp_restarts");
    assert_eq!(a.binding_corner, b.binding_corner, "{what}: binding_corner");
    assert_eq!(
        a.corner_delays.len(),
        b.corner_delays.len(),
        "{what}: corner count"
    );
    for (x, y) in a.corner_delays.iter().zip(&b.corner_delays) {
        assert_eq!(x.corner, y.corner, "{what}: corner name");
        assert_eq!(
            x.data.to_bits(),
            y.data.to_bits(),
            "{what}: corner {} data",
            x.corner
        );
        assert_eq!(
            x.precharge.to_bits(),
            y.precharge.to_bits(),
            "{what}: corner {} precharge",
            x.corner
        );
    }
}

#[test]
fn memoized_outcome_is_bitwise_identical_to_cold_solve() {
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let lib = ModelLibrary::reference();
    let b = boundary(15.0);
    let spec = DelaySpec::uniform(400.0);

    let cold = size_circuit(&circuit, &lib, &b, &spec, &SizingOptions::default())
        .expect("cold solve");

    let cache = Arc::new(SizingCache::new());
    let opts = with_cache(&cache);
    let first = size_circuit(&circuit, &lib, &b, &spec, &opts).expect("miss + solve");
    let second = size_circuit(&circuit, &lib, &b, &spec, &opts).expect("hit");

    assert_bitwise_equal(&cold, &first, "cold vs populating run");
    assert_bitwise_equal(&cold, &second, "cold vs memoized run");
    assert_eq!(cache.stats(), (1, 1), "one miss then one hit");
    assert_eq!(cache.len(), 1);
}

#[test]
fn lazy_sizing_elaborates_only_on_a_miss() {
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let lib = ModelLibrary::reference();
    let b = boundary(15.0);
    let spec = DelaySpec::uniform(400.0);
    let cold = size_circuit(&circuit, &lib, &b, &spec, &SizingOptions::default())
        .expect("cold solve");

    let cache = Arc::new(SizingCache::new());
    let opts = with_cache(&cache);
    let (hashed, elaborated) = (Cell::new(0), Cell::new(0));
    let size = || {
        size_lazily(
            || {
                hashed.set(hashed.get() + 1);
                circuit.structural_hash()
            },
            || {
                elaborated.set(elaborated.get() + 1);
                Cow::Owned(mux(MuxTopology::StronglyMutexedPass).generate())
            },
            &lib,
            &b,
            &spec,
            &opts,
        )
    };
    let miss = size().expect("miss + solve");
    assert_eq!((hashed.get(), elaborated.get()), (1, 1), "a miss elaborates once");
    let hit = size().expect("hit");
    assert_eq!((hashed.get(), elaborated.get()), (2, 1), "a hit never elaborates");
    assert_bitwise_equal(&cold, &miss, "cold vs lazy miss");
    assert_bitwise_equal(&cold, &hit, "cold vs lazy hit");
    assert_eq!(cache.stats(), (1, 1));
}

#[test]
fn lazy_sizing_without_a_cache_never_hashes() {
    let circuit = mux(MuxTopology::Tristate).generate();
    let lib = ModelLibrary::reference();
    let b = boundary(15.0);
    let spec = DelaySpec::uniform(400.0);
    let opts = SizingOptions::default();
    let cold = size_circuit(&circuit, &lib, &b, &spec, &opts).expect("cold solve");
    let (hashed, elaborated) = (Cell::new(0), Cell::new(0));
    let lazy = size_lazily(
        || {
            hashed.set(hashed.get() + 1);
            circuit.structural_hash()
        },
        || {
            elaborated.set(elaborated.get() + 1);
            Cow::Borrowed(&circuit)
        },
        &lib,
        &b,
        &spec,
        &opts,
    )
    .expect("lazy solve");
    assert_eq!((hashed.get(), elaborated.get()), (0, 1));
    assert_bitwise_equal(&cold, &lazy, "cold vs lazy without a cache");
}

#[test]
fn distinct_specs_boundaries_and_topologies_never_alias() {
    let lib = ModelLibrary::reference();
    let cache = Arc::new(SizingCache::new());
    let opts = with_cache(&cache);

    // Three deliberately-close configurations: same topology at two
    // specs, and a second topology at the first spec.
    let pass = mux(MuxTopology::StronglyMutexedPass).generate();
    let tri = mux(MuxTopology::Tristate).generate();
    let runs: [(&smart_netlist::Circuit, f64, f64); 4] = [
        (&pass, 400.0, 15.0),
        (&pass, 401.0, 15.0), // spec differs by 1 ps
        (&pass, 400.0, 16.0), // load differs by 1 unit
        (&tri, 400.0, 15.0),  // topology differs
    ];
    let mut outcomes = Vec::new();
    for (circuit, ps, load) in runs {
        let out = size_circuit(&circuit, &lib, &boundary(load), &DelaySpec::uniform(ps), &opts)
            .expect("feasible");
        outcomes.push((circuit, ps, load, out));
    }
    assert_eq!(cache.stats().1, 4, "four distinct keys, four misses");
    assert_eq!(cache.len(), 4, "no entry aliased another");

    // Replaying each run hits its own entry and replays its own outcome.
    for (circuit, ps, load, cold) in &outcomes {
        let replay =
            size_circuit(circuit, &lib, &boundary(*load), &DelaySpec::uniform(*ps), &opts)
                .expect("hit");
        assert_bitwise_equal(cold, &replay, &format!("replay ps={ps} load={load}"));
    }
    assert_eq!(cache.stats(), (4, 4));
}

#[test]
fn cache_keys_distinguish_options_that_steer_the_solution() {
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let b = boundary(15.0);
    let spec = DelaySpec::uniform(400.0);
    let lib = ModelLibrary::reference();
    let base = SizingOptions::default();
    let mut other = SizingOptions::default();
    other.cost = smart_core::CostMetric::Power;
    assert_ne!(
        cache_key(&circuit, &lib, &b, &spec, &base),
        cache_key(&circuit, &lib, &b, &spec, &other),
        "cost metric steers the GP objective and must split keys"
    );

    // The cache handle itself is not part of the key: two option sets
    // differing only in `cache` must collide (that is what makes a shared
    // cache useful across callers with their own option clones).
    let mut with_handle = SizingOptions::default();
    with_handle.cache = Some(Arc::new(SizingCache::new()));
    assert_eq!(
        cache_key(&circuit, &lib, &b, &spec, &base),
        cache_key(&circuit, &lib, &b, &spec, &with_handle),
    );
}

#[test]
fn shared_cache_across_process_corners_never_replays_the_wrong_corner() {
    use smart_models::Process;
    // One cache, two sweeps at different corners over the same topology,
    // spec and boundary: the corner dimension of the key must force a
    // fresh solve (a replay would carry the other corner's widths).
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let b = boundary(15.0);
    let spec = DelaySpec::uniform(400.0);
    let typ = ModelLibrary::reference();
    let slow = ModelLibrary::new(Process::slow_corner());

    assert_ne!(
        cache_key(&circuit, &typ, &b, &spec, &SizingOptions::default()),
        cache_key(&circuit, &slow, &b, &spec, &SizingOptions::default()),
        "corners must key separately"
    );

    let cache = Arc::new(SizingCache::new());
    let opts = with_cache(&cache);
    let typ_cold = size_circuit(&circuit, &typ, &b, &spec, &opts).expect("typical solve");
    let slow_cold = size_circuit(&circuit, &slow, &b, &spec, &opts).expect("slow solve");
    assert_eq!(cache.stats(), (0, 2), "second corner must miss, not hit");
    assert_eq!(cache.len(), 2, "each corner holds its own entry");
    assert_ne!(
        typ_cold.total_width.to_bits(),
        slow_cold.total_width.to_bits(),
        "fixture: corners must actually size differently for this test to bite"
    );

    // Replaying each corner hits its own entry and replays its own solve.
    let typ_warm = size_circuit(&circuit, &typ, &b, &spec, &opts).expect("typical hit");
    let slow_warm = size_circuit(&circuit, &slow, &b, &spec, &opts).expect("slow hit");
    assert_eq!(cache.stats(), (2, 2));
    assert_bitwise_equal(&typ_cold, &typ_warm, "typical corner replay");
    assert_bitwise_equal(&slow_cold, &slow_warm, "slow corner replay");
}

#[test]
fn exploration_reports_sweep_attributed_cache_stats() {
    // Distinct feasible topologies so every candidate runs the sizer.
    let specs = vec![
        mux(MuxTopology::StronglyMutexedPass),
        mux(MuxTopology::Tristate),
        mux(MuxTopology::WeaklyMutexedPass),
    ];
    let lib = ModelLibrary::reference();
    let b = boundary(15.0);
    let delay = DelaySpec::uniform(400.0);
    let cache = Arc::new(SizingCache::new());
    let opts = with_cache(&cache);

    let first = explore_with_parallel(
        specs.clone(),
        MacroSpec::generate,
        &lib,
        &b,
        &delay,
        &opts,
        &ParallelOptions::serial(),
    );
    assert_eq!(first.feasible_count(), specs.len(), "fixture must be feasible");
    assert_eq!(first.cache_hits, 0, "cold sweep has no hits");
    assert_eq!(first.cache_misses, specs.len());

    let second = explore_with_parallel(
        specs.clone(),
        MacroSpec::generate,
        &lib,
        &b,
        &delay,
        &opts,
        &ParallelOptions::serial(),
    );
    assert_eq!(second.cache_hits, specs.len(), "warm sweep replays every row");
    assert_eq!(second.cache_misses, 0);

    // The memoized table carries the same outcomes as the cold one.
    for (a, c) in first.candidates.iter().zip(&second.candidates) {
        let (a, c) = (a.result.as_ref().expect("ok"), c.result.as_ref().expect("ok"));
        assert_bitwise_equal(&a.outcome, &c.outcome, "cold vs warm sweep row");
    }
}

#[test]
fn shared_cache_under_parallel_sweep_preserves_the_serial_table() {
    // The strongest interaction case: 4 workers populating one cache
    // concurrently, then a warm parallel sweep running from hits — both
    // must carry outcomes bitwise-equal to the cache-free serial sweep.
    let specs = vec![
        mux(MuxTopology::StronglyMutexedPass),
        mux(MuxTopology::Tristate),
        mux(MuxTopology::WeaklyMutexedPass),
        mux(MuxTopology::StronglyMutexedPass), // duplicate: may hit a
                                               // sibling's insert mid-sweep
    ];
    let lib = ModelLibrary::reference();
    let b = boundary(15.0);
    let delay = DelaySpec::uniform(400.0);

    let reference = explore_with_parallel(
        specs.clone(),
        MacroSpec::generate,
        &lib,
        &b,
        &delay,
        &SizingOptions::default(),
        &ParallelOptions::serial(),
    );

    let cache = Arc::new(SizingCache::new());
    let opts = with_cache(&cache);
    for round in 0..2 {
        let table = explore_with_parallel(
            specs.clone(),
            MacroSpec::generate,
            &lib,
            &b,
            &delay,
            &opts,
            &ParallelOptions::with_workers(4),
        );
        assert_eq!(table.candidates.len(), reference.candidates.len());
        for (i, (r, t)) in reference.candidates.iter().zip(&table.candidates).enumerate() {
            assert_eq!(r.spec, t.spec, "round {round} row {i}");
            let (r, t) = (
                r.result.as_ref().expect("reference ok"),
                t.result.as_ref().expect("cached ok"),
            );
            assert_bitwise_equal(&r.outcome, &t.outcome, &format!("round {round} row {i}"));
            assert_eq!(r.devices, t.devices, "round {round} row {i}: devices");
            assert_eq!(
                r.clock_load.to_bits(),
                t.clock_load.to_bits(),
                "round {round} row {i}: clock load"
            );
            assert_eq!(
                r.power.total().to_bits(),
                t.power.total().to_bits(),
                "round {round} row {i}: power"
            );
        }
    }
    // After two sweeps of 4 candidates over 3 distinct keys, the cache
    // holds exactly the distinct keys and every lookup was accounted.
    assert_eq!(cache.len(), 3);
    let (hits, misses) = cache.stats();
    assert_eq!(hits + misses, 8, "every candidate consulted the cache once");
    assert!(hits >= 4, "warm sweep alone contributes 4 hits (got {hits})");
}

#[test]
fn boundary_fingerprint_is_insertion_order_invariant_over_32_shuffles() {
    // The boundary fingerprint feeds the cache key through two HashMaps
    // whose iteration order is per-instance; the key must depend only on
    // the boundary's *contents*. Property-check it: one reference
    // boundary, 32 Fisher–Yates shuffles of the insertion order, every
    // resulting cache key identical.
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let lib = ModelLibrary::reference();
    let spec = DelaySpec::uniform(400.0);
    let opts = SizingOptions::default();

    let loads: Vec<(String, f64)> = (0..12).map(|i| (format!("y{i}"), 10.0 + i as f64)).collect();
    let times: Vec<(String, (f64, f64))> = (0..12)
        .map(|i| (format!("a{i}"), (5.0 * i as f64, 30.0 + i as f64)))
        .collect();

    let build = |load_order: &[usize], time_order: &[usize]| {
        let mut b = Boundary::default();
        for &i in load_order {
            b.output_loads.insert(loads[i].0.clone(), loads[i].1);
        }
        for &i in time_order {
            b.input_times.insert(times[i].0.clone(), times[i].1);
        }
        cache_key(&circuit, &lib, &b, &spec, &opts)
    };

    let reference = build(&(0..12).collect::<Vec<_>>(), &(0..12).collect::<Vec<_>>());
    let mut rng = smart_prng::Prng::new(0xB0DA_71E5);
    for shuffle in 0..32 {
        let mut lo: Vec<usize> = (0..12).collect();
        let mut to: Vec<usize> = (0..12).collect();
        for v in [&mut lo, &mut to] {
            for i in (1..v.len()).rev() {
                v.swap(i, rng.usize_in(0, i));
            }
        }
        let shuffled = build(&lo, &to);
        assert_eq!(
            reference, shuffled,
            "shuffle {shuffle}: cache key moved with boundary insertion order \
             (loads {lo:?}, times {to:?})"
        );
    }

    // Guard: the fingerprint still sees the *values* — perturbing one
    // load must move the key.
    let mut perturbed = Boundary::default();
    for (name, v) in &loads {
        perturbed.output_loads.insert(name.clone(), *v);
    }
    for (name, v) in &times {
        perturbed.input_times.insert(name.clone(), *v);
    }
    *perturbed.output_loads.get_mut("y3").expect("y3") += 0.5;
    assert_ne!(
        reference,
        cache_key(&circuit, &lib, &perturbed, &spec, &opts),
        "changed load must change the key"
    );
}

#[test]
fn variation_sweep_performs_zero_sizing_cache_traffic() {
    // A variation sweep re-measures a finished sizing; it must never
    // count as sizing-cache traffic, or Exploration's per-sweep stats
    // (and any hit-rate dashboards built on them) drift with the number
    // of Monte-Carlo samples.
    let circuit = mux(MuxTopology::StronglyMutexedPass).generate();
    let lib = ModelLibrary::reference();
    let b = boundary(15.0);
    let spec = DelaySpec::uniform(400.0);

    let cache = Arc::new(SizingCache::new());
    let opts = with_cache(&cache);
    let out = size_circuit(&circuit, &lib, &b, &spec, &opts).expect("solve");
    let before = cache.stats();
    assert_eq!(before, (0, 1), "the solve itself must miss exactly once");

    let report = variation_sweep(
        &circuit,
        &lib,
        &b,
        &spec,
        &out.sizing,
        &opts, // cache *present* in the options — the sweep must ignore it
        &VariationOptions {
            samples: 16,
            ..VariationOptions::default()
        },
        &ParallelOptions::with_workers(2),
    )
    .expect("variation sweep");
    assert_eq!(report.samples.len(), 16);
    assert_eq!(
        cache.stats(),
        before,
        "variation re-measures must not touch the sizing cache"
    );
    assert_eq!(cache.len(), 1, "no new entries either");
}
