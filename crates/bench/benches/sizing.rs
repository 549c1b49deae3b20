//! Microbenchmarks of the flow's hot machinery: GP solving, path
//! compaction, static timing, functional simulation.
//!
//! Plain timing harness (`harness = false`), no external bench framework:
//! the workspace builds offline. Each case is warmed up once, then run
//! until ~1 s or 50 iterations, and the min/median/mean wall times are
//! printed. Run with `cargo bench -p smart-bench --bench sizing`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use smart_core::{compaction_stats, size_circuit, DelaySpec, SizingOptions};
use smart_macros::{MacroSpec, MuxTopology};
use smart_models::ModelLibrary;
use smart_netlist::Sizing;
use smart_sim::{Logic, Simulator};
use smart_sta::{analyze, Boundary};

fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    black_box(f()); // warmup
    let budget = Duration::from_secs(1);
    let mut times = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget && times.len() < 50 {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed());
    }
    times.sort();
    let n = times.len();
    let mean = times.iter().sum::<Duration>() / n as u32;
    println!(
        "{name:<28} min {:>10.1?}  median {:>10.1?}  mean {:>10.1?}  ({n} iters)",
        times[0],
        times[n / 2],
        mean
    );
}

fn boundary_for(circuit: &smart_netlist::Circuit, load: f64) -> Boundary {
    let mut b = Boundary::default();
    for p in circuit.output_ports() {
        b.output_loads.insert(p.name.clone(), load);
    }
    b
}

fn bench_gp_sizing(lib: &ModelLibrary, opts: &SizingOptions) {
    for (name, spec, budget) in [
        (
            "gp_sizing/mux8_passgate",
            MacroSpec::Mux {
                topology: MuxTopology::StronglyMutexedPass,
                width: 8,
            },
            300.0,
        ),
        (
            "gp_sizing/mux8_domino",
            MacroSpec::Mux {
                topology: MuxTopology::UnsplitDomino,
                width: 8,
            },
            300.0,
        ),
        (
            "gp_sizing/inc13",
            MacroSpec::Incrementor { width: 13 },
            4000.0,
        ),
    ] {
        let circuit = spec.generate();
        let boundary = boundary_for(&circuit, 20.0);
        bench(name, || {
            let out = size_circuit(
                black_box(&circuit),
                lib,
                &boundary,
                &DelaySpec::uniform(budget),
                opts,
            )
            .expect("feasible");
            out.total_width
        });
    }
}

fn bench_compaction(lib: &ModelLibrary, opts: &SizingOptions) {
    for bits in [8usize, 16, 32] {
        let circuit = MacroSpec::ClaAdder { width: bits }.generate();
        let boundary = Boundary::default();
        bench(&format!("path_compaction/cla{bits}"), || {
            let stats = compaction_stats(black_box(&circuit), lib, &boundary, opts).unwrap();
            stats.classes.len()
        });
    }
}

fn bench_sta(lib: &ModelLibrary) {
    let circuit = MacroSpec::ClaAdder { width: 32 }.generate();
    let sizing = Sizing::uniform(circuit.labels(), 4.0);
    let boundary = Boundary::default();
    bench("sta_cla32", || {
        let report = analyze(black_box(&circuit), lib, &sizing, &boundary).unwrap();
        report
            .worst_over(circuit.output_ports().map(|p| p.net))
            .map(|(_, a)| a.time)
    });
}

fn bench_simulation() {
    let circuit = MacroSpec::ClaAdder { width: 32 }.generate();
    bench("sim_cla32_vector", || {
        let mut sim = Simulator::new(&circuit);
        sim.set("clk", Logic::Zero).unwrap();
        for i in 0..32 {
            sim.set(&format!("a{i}"), Logic::from_bool(i % 3 == 0))
                .unwrap();
            sim.set(&format!("b{i}"), Logic::from_bool(i % 5 == 0))
                .unwrap();
        }
        sim.set("cin0", Logic::One).unwrap();
        sim.settle().unwrap();
        sim.set("clk", Logic::One).unwrap();
        sim.settle().unwrap();
        sim.get("cout").unwrap()
    });
}

fn bench_lint() {
    // Lint throughput on the 64-bit adder — the largest database macro —
    // reported as findings scanned per second so the rule engine's cost
    // relative to one GP solve stays visible.
    let circuit = MacroSpec::ClaAdder { width: 64 }.generate();
    let t0 = Instant::now();
    let findings = smart_lint::lint_circuit(&circuit).findings.len();
    let cold = t0.elapsed();
    bench("lint_cla64_full_engine", || {
        smart_lint::lint_circuit(black_box(&circuit)).findings.len()
    });
    bench("lint_cla64_dataflow_only", || {
        smart_lint::dataflow::MonotonicityAnalysis::run(black_box(&circuit)).iterations()
    });
    let per_sec = findings as f64 / cold.as_secs_f64();
    println!(
        "lint_cla64 throughput: {findings} findings in {cold:.1?} cold \
         ({per_sec:.0} findings/s)"
    );
}

fn main() {
    let lib = ModelLibrary::reference();
    let opts = SizingOptions::default();
    bench_gp_sizing(&lib, &opts);
    bench_compaction(&lib, &opts);
    bench_sta(&lib);
    bench_simulation();
    bench_lint();
}
