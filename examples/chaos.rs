//! smart-chaos demo: one seeded fault-injection sweep, printed as a
//! deterministic degradation report.
//!
//! A [`FaultPlan`] decides, purely from `(seed, site, candidate)`, which
//! candidates of a topology exploration get hit by which fault —
//! candidate panics, lint-rule panics, GP divergence, NaN poisoning,
//! missing STA endpoints, spurious cancellation, worker death, simulated
//! time skew. Every injected fault must surface as exactly one
//! classified taxonomy row; surviving candidates are byte-identical to a
//! fault-free run. Because the decisions never depend on scheduling, the
//! bytes on stdout are identical under `SMART_WORKERS=1` and
//! `SMART_WORKERS=4` — CI diffs exactly that.
//!
//! ```sh
//! cargo run --example chaos            # default seed
//! cargo run --example chaos -- 1234    # any seed: different faults, same laws
//! ```

use std::sync::Arc;
use std::time::Duration;

use smart_datapath::chaos::{FaultPlan, FaultSite};
use smart_datapath::core::{explore_with_parallel, DelaySpec, ParallelOptions, SizingOptions};
use smart_datapath::macros::{MacroSpec, MuxTopology};
use smart_datapath::models::ModelLibrary;
use smart_datapath::sta::Boundary;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0xC4A05);

    // A healthy width-4 mux family — chaos is the only failure source.
    let specs: Vec<MacroSpec> = MuxTopology::all()
        .into_iter()
        .filter(|t| t.supports_width(4))
        .map(|topology| MacroSpec::Mux { topology, width: 4 })
        .collect();
    let lib = ModelLibrary::reference();
    let mut boundary = Boundary::default();
    boundary.output_loads.insert("y".into(), 15.0);

    let plan = Arc::new(FaultPlan::uniform(seed, 0.6));
    let mut opts = SizingOptions::default();
    // A (distant, real-clock) wall budget so time-skew faults have a
    // deadline to trip.
    opts.budget.wall_clock = Some(Duration::from_secs(3600));
    opts.chaos = Some(Arc::clone(&plan));

    let table = explore_with_parallel(
        specs,
        MacroSpec::generate,
        &lib,
        &boundary,
        &DelaySpec::uniform(450.0),
        &opts,
        &ParallelOptions::from_env(),
    );

    println!("# chaos sweep, seed {seed:#x}, uniform fault rate 0.60\n");
    for (i, c) in table.candidates.iter().enumerate() {
        match &c.result {
            Ok(m) => println!(
                "  [{i}] {:<28} ok     delay={:.1} width={:.1}",
                c.spec.to_string(),
                m.outcome.measured_delay,
                m.outcome.total_width
            ),
            Err(e) => println!(
                "  [{i}] {:<28} {:<6} {e}",
                c.spec.to_string(),
                e.taxonomy()
            ),
        }
    }

    println!("\ninjected faults:");
    for (site, n) in plan.injections() {
        println!("  {site:<16} \u{d7}{n}");
    }
    if plan.total_injected() == 0 {
        println!("  (none at this seed)");
    }

    println!("\ndegradation: {}", table.degradation());

    // The plan's decisions are pure: replaying them predicts the table.
    let predicted: usize = (0..table.candidates.len())
        .filter(|&i| plan.failure_fault(i as u64).is_some())
        .count();
    assert_eq!(
        table.candidates.len() - table.feasible_count(),
        predicted,
        "every planned fault must be exactly one failed row"
    );
    // And FAILURE_SITES classify: each fault maps to its taxonomy tag.
    for (i, c) in table.candidates.iter().enumerate() {
        if let Some(site) = plan.failure_fault(i as u64) {
            let tag = c.result.as_ref().expect_err("planned fault").taxonomy();
            assert_eq!(Some(tag), site.taxonomy(), "candidate {i}");
        }
    }
    let _ = FaultSite::FAILURE_SITES; // the ladder order is part of the contract
}
