//! smart-trace demo: a traced topology exploration, cold and then warm
//! out of the sizing cache, exported as byte-stable JSON.
//!
//! The stable export is deterministic by construction — per-scope event
//! ids merged by `(scope, seq)`, no timestamps, no worker counts — so
//! the bytes on stdout are identical no matter how the sweep was
//! scheduled. CI runs this example under `SMART_WORKERS=1` and
//! `SMART_WORKERS=4` and diffs the output; the example itself also
//! repeats the whole traced run and asserts the two exports agree.
//!
//! ```sh
//! cargo run --example trace > trace.json
//! SMART_TRACE_CHROME-style span files come from the library API:
//! `report.to_chrome_json()` — see DESIGN.md §11.
//! ```

use std::sync::Arc;

use smart_datapath::core::{
    explore_parallel, DelaySpec, ParallelOptions, SizingCache, SizingOptions,
};
use smart_datapath::macros::{MacroSpec, MuxTopology};
use smart_datapath::models::ModelLibrary;
use smart_datapath::sta::Boundary;
use smart_datapath::trace::Trace;

/// One complete traced exploration: a cold sweep that lints, sizes and
/// verifies every mux alternative, then a warm sweep that replays the
/// same work out of the shared sizing cache. Returns the stable JSON
/// export of everything the flow recorded.
fn traced_run() -> String {
    let request = MacroSpec::Mux {
        topology: MuxTopology::StronglyMutexedPass,
        width: 4,
    };
    let lib = ModelLibrary::reference();
    let mut boundary = Boundary::default();
    boundary.output_loads.insert("y".into(), 25.0);
    let spec = DelaySpec::uniform(320.0);

    let mut opts = SizingOptions::default();
    // The library never reads SMART_TRACE: a caller that wants a trace
    // passes an enabled collector.
    opts.trace = Trace::enabled();
    opts.cache = Some(Arc::new(SizingCache::new()));

    let par = ParallelOptions::from_env();
    let cold = explore_parallel(&request, &lib, &boundary, &spec, &opts, &par);
    let warm = explore_parallel(&request, &lib, &boundary, &spec, &opts, &par);
    assert_eq!(cold.feasible_count(), warm.feasible_count());

    let report = opts.trace.collect();
    eprintln!(
        "# {} stable events, cache {} hit(s) / {} miss(es), {} feasible of {}",
        report.stable_event_count(),
        report.counter("cache/hit"),
        report.counter("cache/miss"),
        warm.feasible_count(),
        warm.candidates.len(),
    );
    report.to_json()
}

fn main() {
    let first = traced_run();
    let second = traced_run();
    assert_eq!(
        first, second,
        "stable trace export must be byte-stable across identical runs"
    );
    println!("{first}");
}
