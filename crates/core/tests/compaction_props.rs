//! Randomized tests on the flow: across seeded random macro instances and
//! specs, compaction accounting holds, the sizer's self-report agrees with
//! an independent STA run, and the heuristic dominance mode is bounded by
//! the sound Pareto mode. Deterministic (fixed seeds via `smart-prng`).

use smart_core::{compaction_stats, size_circuit, DelaySpec, SizingOptions};
use smart_macros::{MacroSpec, MuxTopology, ZeroDetectStyle};
use smart_models::ModelLibrary;
use smart_prng::Prng;
use smart_sta::{max_delay, Boundary};

const CASES: usize = 24;

/// A pool of cheap, diverse macro instances.
fn spec(r: &mut Prng) -> MacroSpec {
    match r.usize_in(0, 9) {
        0 => MacroSpec::Incrementor {
            width: r.usize_in(2, 11),
        },
        1 => MacroSpec::Decrementor {
            width: r.usize_in(2, 11),
        },
        2 => MacroSpec::ZeroDetect {
            width: r.usize_in(2, 17),
            style: ZeroDetectStyle::Static,
        },
        3 => MacroSpec::ZeroDetect {
            width: r.usize_in(4, 17),
            style: ZeroDetectStyle::Domino,
        },
        4 => MacroSpec::Decoder {
            in_bits: r.usize_in(1, 5),
        },
        5 => MacroSpec::Mux {
            topology: MuxTopology::StronglyMutexedPass,
            width: r.usize_in(2, 9),
        },
        6 => MacroSpec::Mux {
            topology: MuxTopology::UnsplitDomino,
            width: r.usize_in(2, 9),
        },
        7 => MacroSpec::Mux {
            topology: MuxTopology::Tristate,
            width: r.usize_in(3, 9),
        },
        _ => MacroSpec::PriorityEncoder {
            out_bits: r.usize_in(1, 4),
        },
    }
}

fn boundary_for(circuit: &smart_netlist::Circuit, load: f64) -> Boundary {
    let mut b = Boundary::default();
    for p in circuit.output_ports() {
        b.output_loads.insert(p.name.clone(), load);
    }
    b
}

#[test]
fn compaction_accounting_holds() {
    let lib = ModelLibrary::reference();
    let mut r = Prng::new(0x201);
    for _ in 0..CASES {
        let circuit = spec(&mut r).generate();
        let load = r.f64_in(5.0, 30.0);
        let boundary = boundary_for(&circuit, load);
        let opts = SizingOptions::default();
        let stats = compaction_stats(&circuit, &lib, &boundary, &opts).unwrap();
        assert!(!stats.classes.is_empty());
        assert!((stats.classes.len() as u128) <= stats.raw_paths);
        assert!(stats.after_regularity >= stats.classes.len());
        // Every class's representative is a real connected path.
        for class in &stats.classes {
            assert!(!class.arcs.is_empty());
            for pair in class.arcs.windows(2) {
                let a = &stats.graph.arcs[pair[0]];
                let b = &stats.graph.arcs[pair[1]];
                assert_eq!(a.to, b.from, "class path must be connected");
            }
            let first = &stats.graph.arcs[class.arcs[0]];
            let last = &stats.graph.arcs[*class.arcs.last().unwrap()];
            assert_eq!(first.from, class.source);
            assert_eq!(last.to, class.endpoint);
        }
    }
}

#[test]
fn sizer_report_matches_independent_sta() {
    let lib = ModelLibrary::reference();
    let mut r = Prng::new(0x202);
    for _ in 0..CASES {
        let circuit = spec(&mut r).generate();
        let load = r.f64_in(5.0, 30.0);
        let boundary = boundary_for(&circuit, load);
        let opts = SizingOptions::default();
        // A spec loose enough to always be feasible.
        let relaxed =
            DelaySpec::uniform(4000.0 * circuit.component_count() as f64 / 10.0 + 500.0);
        let out = size_circuit(&circuit, &lib, &boundary, &relaxed, &opts).unwrap();
        let independent = max_delay(&circuit, &lib, &out.sizing, &boundary).unwrap();
        assert!(
            (independent - out.measured_delay.max(out.measured_precharge)).abs() < 1e-6,
            "flow {} / {} vs STA {}",
            out.measured_delay,
            out.measured_precharge,
            independent
        );
        assert!(independent <= relaxed.data * (1.0 + opts.timing_tolerance));
    }
}

#[test]
fn heuristic_dominance_is_a_subset_of_pareto() {
    let lib = ModelLibrary::reference();
    let mut r = Prng::new(0x203);
    for _ in 0..CASES {
        let circuit = spec(&mut r).generate();
        let boundary = boundary_for(&circuit, 12.0);
        let heuristic = SizingOptions::default();
        let exact = SizingOptions {
            heuristic_dominance: false,
            ..Default::default()
        };
        let sh = compaction_stats(&circuit, &lib, &boundary, &heuristic).unwrap();
        let se = compaction_stats(&circuit, &lib, &boundary, &exact).unwrap();
        assert!(sh.classes.len() <= se.classes.len());
        assert_eq!(sh.raw_paths, se.raw_paths);
        assert_eq!(sh.after_regularity, se.after_regularity);
    }
}

#[test]
fn exact_dominance_also_converges() {
    let lib = ModelLibrary::reference();
    let mut r = Prng::new(0x204);
    for _ in 0..CASES {
        // The sound mode must produce a feasible solution too (it has
        // strictly more constraints, so the spec needs headroom).
        let circuit = spec(&mut r).generate();
        let boundary = boundary_for(&circuit, 12.0);
        let exact = SizingOptions {
            heuristic_dominance: false,
            ..Default::default()
        };
        let relaxed =
            DelaySpec::uniform(4000.0 * circuit.component_count() as f64 / 10.0 + 500.0);
        let out = size_circuit(&circuit, &lib, &boundary, &relaxed, &exact).unwrap();
        assert!(out.measured_delay <= relaxed.data * 1.01);
    }
}

/// Each suffix is O(1) in the compaction arena, so a 512-bit incrementor
/// (over half a million raw paths) compacts in bounded memory; copying
/// every suffix's step and arc lists ran out of memory here.
#[test]
fn inc512_compacts() {
    let lib = ModelLibrary::reference();
    let circuit = MacroSpec::Incrementor { width: 512 }.generate();
    let c = compaction_stats(&circuit, &lib, &boundary_for(&circuit, 12.0), &SizingOptions::default())
        .expect("inc512 compacts");
    assert!(c.raw_paths > 500_000, "raw paths: {}", c.raw_paths);
    assert!(!c.classes.is_empty());
}
