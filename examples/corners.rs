//! Multi-corner robust sizing, end to end and self-checked.
//!
//! Sizes a domino mux once against the slow/typical/fast corner set,
//! then re-measures the shipped sizing standalone under each corner's
//! library and verifies, in-process:
//!
//! * the solver's per-corner report matches the standalone re-measure
//!   bit for bit;
//! * every corner meets the spec within the flow tolerance;
//! * the binding corner is the worst data-phase member;
//! * the robust sizing costs at least as much as each per-corner
//!   optimum (the soundness bound).
//!
//! It then runs a multi-corner topology exploration, honoring
//! `SMART_WORKERS`, and prints every float as its bit pattern — CI
//! byte-compares this output between `SMART_WORKERS=1` and `=4`
//! (DESIGN.md §14): worker count must never leak into robust sizing.

use smart_datapath::core::{
    explore_with_parallel, measure_phase_delays, size_circuit, DelaySpec, ParallelOptions,
    SizingOptions,
};
use smart_datapath::macros::{MacroSpec, MuxTopology};
use smart_datapath::models::{CornerSet, ModelLibrary};
use smart_datapath::sta::Boundary;

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn main() {
    let lib = ModelLibrary::reference();
    let set = CornerSet::slow_typical_fast(lib.process());
    let mut opts = SizingOptions::default();
    opts.corners = Some(set.clone());

    let circuit = MacroSpec::Mux {
        topology: MuxTopology::UnsplitDomino,
        width: 4,
    }
    .generate();
    let mut boundary = Boundary::default();
    boundary.output_loads.insert("y".into(), 15.0);
    let spec = DelaySpec::uniform(340.0);

    let robust = size_circuit(&circuit, &lib, &boundary, &spec, &opts)
        .expect("robust solve must be feasible at 340 ps");
    println!(
        "robust solve: width={} binding={} relax={}",
        bits(robust.total_width),
        robust.binding_corner,
        bits(robust.spec_relaxation)
    );

    // Self-check 1: reported corner table == standalone re-measure.
    let limit = spec.data * (1.0 + opts.timing_tolerance);
    let mut worst = &robust.corner_delays[0];
    for (corner, reported) in set.corners().iter().zip(&robust.corner_delays) {
        let clib = ModelLibrary::new(corner.process.clone());
        let (data, pre) = measure_phase_delays(
            &circuit,
            &clib,
            &robust.sizing,
            &boundary,
            &SizingOptions::default(),
        )
        .expect("standalone corner measurement");
        assert_eq!(data.to_bits(), reported.data.to_bits(), "{}", corner.name);
        assert_eq!(pre.to_bits(), reported.precharge.to_bits(), "{}", corner.name);
        // Self-check 2: feasible at every corner.
        assert!(data <= limit, "{}: {data} > {limit}", corner.name);
        if reported.data > worst.data {
            worst = reported;
        }
        println!(
            "corner {:<8} data={} pre={}",
            corner.name,
            bits(reported.data),
            bits(reported.precharge)
        );
    }
    // Self-check 3: the binding corner is the worst data member.
    assert_eq!(robust.binding_corner, worst.corner, "binding corner");

    // Self-check 4: soundness bound — robustness is never free.
    for corner in set.corners() {
        let mut single = SizingOptions::default();
        single.corners = Some(CornerSet::single(&corner.name, corner.process.clone()));
        let solo = size_circuit(&circuit, &lib, &boundary, &spec, &single)
            .expect("per-corner solve");
        assert!(
            robust.total_width >= solo.total_width * (1.0 - 1e-6),
            "{}: robust {} beats solo {}",
            corner.name,
            robust.total_width,
            solo.total_width
        );
    }
    println!("self-checks OK");

    // Multi-corner exploration across SMART_WORKERS — the diffable part.
    let specs: Vec<MacroSpec> = [
        MuxTopology::StronglyMutexedPass,
        MuxTopology::Tristate,
        MuxTopology::UnsplitDomino,
        MuxTopology::PartitionedDomino,
    ]
    .into_iter()
    .map(|topology| MacroSpec::Mux { topology, width: 4 })
    .collect();
    let table = explore_with_parallel(
        specs,
        |s| s.generate(),
        &lib,
        &boundary,
        &DelaySpec::uniform(360.0),
        &opts,
        &ParallelOptions::from_env(),
    );
    for cand in &table.candidates {
        match &cand.result {
            Ok(m) => {
                print!(
                    "{:<28} width={} binding={} corners=",
                    cand.spec.to_string(),
                    bits(m.outcome.total_width),
                    m.outcome.binding_corner
                );
                for c in &m.outcome.corner_delays {
                    print!("{}:{};", c.corner, bits(c.data));
                }
                println!();
            }
            Err(e) => println!("{:<28} infeasible: {e}", cand.spec.to_string()),
        }
    }
}
