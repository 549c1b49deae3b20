//! smart-trace × exploration: the stable export is part of the
//! deterministic-parallelism contract (DESIGN.md §9 and §11). A traced
//! sweep must produce byte-identical stable JSON no matter how many
//! workers ran it, across repeated runs, and with the sizing cache cold
//! or shared — and tracing must never perturb the engineering results.

use std::sync::Arc;

use smart_core::{
    explore_parallel, DelaySpec, Exploration, ParallelOptions, SizingCache, SizingOptions,
};
use smart_macros::{MacroSpec, MuxTopology};
use smart_models::ModelLibrary;
use smart_sta::Boundary;
use smart_trace::Trace;

fn request() -> MacroSpec {
    MacroSpec::Mux {
        topology: MuxTopology::StronglyMutexedPass,
        width: 4,
    }
}

fn boundary() -> Boundary {
    let mut b = Boundary::default();
    b.output_loads.insert("y".into(), 15.0);
    b
}

/// Runs one traced sweep at the given worker count and returns the
/// stable JSON export plus the exploration table.
fn traced_sweep(workers: usize, cache: Option<Arc<SizingCache>>) -> (String, Exploration) {
    let lib = ModelLibrary::reference();
    let mut opts = SizingOptions::default();
    opts.trace = Trace::enabled();
    opts.cache = cache;
    let table = explore_parallel(
        &request(),
        &lib,
        &boundary(),
        &DelaySpec::uniform(450.0),
        &opts,
        &ParallelOptions::with_workers(workers),
    );
    (opts.trace.collect().to_json(), table)
}

#[test]
fn stable_export_is_byte_identical_across_worker_counts() {
    // Without a cache, and with a fresh one per sweep (its lookups are
    // traced too).
    for cached in [false, true] {
        let cache = || cached.then(|| Arc::new(SizingCache::new()));
        let (reference, ref_table) = traced_sweep(1, cache());
        assert!(ref_table.feasible_count() > 0, "sweep must do real work");
        for workers in [2usize, 4, 8] {
            let (json, table) = traced_sweep(workers, cache());
            assert_eq!(
                json, reference,
                "stable export diverged at {workers} workers (cache: {cached})"
            );
            assert_eq!(table.feasible_count(), ref_table.feasible_count());
        }
    }
}

#[test]
fn stable_export_is_byte_identical_across_repeated_runs() {
    let (first, _) = traced_sweep(4, None);
    let (second, _) = traced_sweep(4, None);
    assert_eq!(first, second);
}

#[test]
fn stable_export_covers_the_whole_flow() {
    let cache = Arc::new(SizingCache::new());
    let (json, _) = traced_sweep(4, Some(Arc::clone(&cache)));
    // Candidate lifecycle spans, the lint gate, the cache, the GP
    // solver's Newton telemetry and the STA engine must all be present:
    // the trace is an end-to-end record, not a single layer's log.
    for name in [
        "\"name\":\"sweep\"",
        "\"name\":\"candidate\"",
        "\"name\":\"lint/gate\"",
        "\"name\":\"cache/lookup\"",
        "\"name\":\"size/rung\"",
        "\"name\":\"size/iteration\"",
        "\"name\":\"gp/newton\"",
        "\"name\":\"gp/solve\"",
        "\"name\":\"sta/graph\"",
        "\"name\":\"sta/propagate\"",
    ] {
        assert!(json.contains(name), "stable export is missing {name}");
    }
    // Counters are order-independent sums, so a cold sweep over a fresh
    // cache records exactly one miss per candidate.
    assert!(json.contains("\"cache/miss\":5"), "expected 5 cold misses");
    // Scheduling-dependent telemetry must NOT leak into the stable
    // export — worker counts live in unstable events only.
    assert!(!json.contains("sweep/pool"), "unstable event leaked");
}

#[test]
fn tracing_does_not_perturb_results() {
    let lib = ModelLibrary::reference();
    let spec = DelaySpec::uniform(450.0);
    let untraced = SizingOptions::default();
    let plain = explore_parallel(
        &request(),
        &lib,
        &boundary(),
        &spec,
        &untraced,
        &ParallelOptions::serial(),
    );
    let (_, traced) = traced_sweep(4, None);
    assert_eq!(plain.candidates.len(), traced.candidates.len());
    for (p, t) in plain.candidates.iter().zip(&traced.candidates) {
        assert_eq!(p.spec, t.spec);
        match (&p.result, &t.result) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.outcome.total_width.to_bits(),
                    b.outcome.total_width.to_bits(),
                    "{}: tracing changed the sized width",
                    p.spec
                );
            }
            (Err(a), Err(b)) => assert_eq!(a.taxonomy(), b.taxonomy()),
            _ => panic!("{}: feasibility flipped under tracing", p.spec),
        }
    }
}

#[test]
fn disabled_trace_records_nothing() {
    let lib = ModelLibrary::reference();
    let opts = SizingOptions {
        trace: Trace::disabled(),
        ..SizingOptions::default()
    };
    let table = explore_parallel(
        &request(),
        &lib,
        &boundary(),
        &DelaySpec::uniform(450.0),
        &opts,
        &ParallelOptions::serial(),
    );
    assert!(table.feasible_count() > 0);
    let report = opts.trace.collect();
    assert_eq!(report.stable_event_count(), 0);
    assert_eq!(report.counter("cache/hit") + report.counter("cache/miss"), 0);
}
