//! Robustness study: how stable are the §6.1 savings across instance
//! conditions? Sweeps output load and process corner for a fixed macro
//! set and reports the savings distribution — the evidence a methodology
//! paper's reviewers ask for ("does this only work at one operating
//! point?").
//!
//! Failures never abort the sweep: each run that errors is classified
//! through [`smart_core::FlowError::taxonomy`] and the per-row histogram
//! is printed alongside the savings statistics, so a single infeasible
//! corner shows up as data instead of killing the study.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use smart_bench::protocol_61;
use smart_chaos::FaultPlan;
use smart_core::{
    explore_parallel, explore_with_parallel, size_circuit, variation_sweep,
    DelaySpec, ParallelOptions, SizingCache, SizingOptions, VariationOptions,
};
use smart_macros::{MacroSpec, MuxTopology, ZeroDetectStyle};
use smart_models::{CornerSet, ModelLibrary, Process};
use smart_netlist::{Circuit, ComponentKind, DeviceRole, NetKind, Network, Skew};
use smart_sta::Boundary;
use smart_trace::Trace;

fn stats(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let min = xs.first().copied().unwrap_or(f64::NAN);
    let max = xs.last().copied().unwrap_or(f64::NAN);
    (min, mean, max)
}

fn taxonomy_column(failures: &BTreeMap<&'static str, usize>) -> String {
    if failures.is_empty() {
        return "-".into();
    }
    failures
        .iter()
        .map(|(kind, n)| format!("{kind}\u{d7}{n}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_robustness.json".to_string());
    let opts = SizingOptions::default();
    let loads: &[f64] = if smoke {
        &[10.0, 25.0]
    } else {
        &[6.0, 10.0, 16.0, 25.0, 40.0, 60.0]
    };
    let mut corners: Vec<(&str, ModelLibrary)> = vec![
        ("slow", ModelLibrary::new(Process::slow_corner())),
        ("typical", ModelLibrary::reference()),
        ("fast", ModelLibrary::new(Process::fast_corner())),
    ];
    let mut specs: Vec<(&str, MacroSpec)> = vec![
        (
            "mux8 pass",
            MacroSpec::Mux {
                topology: MuxTopology::StronglyMutexedPass,
                width: 8,
            },
        ),
        (
            "mux8 domino",
            MacroSpec::Mux {
                topology: MuxTopology::UnsplitDomino,
                width: 8,
            },
        ),
        ("inc13", MacroSpec::Incrementor { width: 13 }),
        (
            "zd16 domino",
            MacroSpec::ZeroDetect {
                width: 16,
                style: ZeroDetectStyle::Domino,
            },
        ),
    ];
    if smoke {
        corners.retain(|(name, _)| *name == "typical");
        specs.truncate(2);
    }

    println!("# Savings robustness across loads (6..60 width units) and corners\n");
    println!(
        "{:<14} {:<9} {:>8} {:>8} {:>8} {:>6}  failures",
        "macro", "corner", "min", "mean", "max", "runs"
    );
    let mut total_failures = 0usize;
    for (name, spec) in &specs {
        for (corner, lib) in &corners {
            let mut savings = Vec::new();
            let mut failures: BTreeMap<&'static str, usize> = BTreeMap::new();
            for &load in loads {
                match protocol_61(name, spec, load, lib, &opts) {
                    Ok(row) => savings.push(row.width_savings() * 100.0),
                    Err(e) => {
                        *failures.entry(e.taxonomy()).or_insert(0) += 1;
                    }
                }
            }
            total_failures += failures.values().sum::<usize>();
            let runs = savings.len();
            let taxonomy = taxonomy_column(&failures);
            if savings.is_empty() {
                println!(
                    "{name:<14} {corner:<9} {:>8} {:>8} {:>8} {runs:>6}  {taxonomy}",
                    "-", "-", "-"
                );
                continue;
            }
            let (min, mean, max) = stats(savings);
            println!(
                "{name:<14} {corner:<9} {min:>7.1}% {mean:>7.1}% {max:>7.1}% {runs:>6}  {taxonomy}"
            );
        }
    }
    println!(
        "\n(Savings should be positive and of similar magnitude everywhere:\n\
         the methodology's benefit is not an artifact of one load or corner.\n\
         {total_failures} failed run(s); failures are classified, never fatal.)"
    );

    parallel_section();
    lint_section();
    trace_section();
    let corner_rows = corner_yield_section(smoke);
    let chaos_rows = chaos_section(smoke);
    let serve_rows = serve_section(smoke);
    write_json(&out_path, smoke, &corner_rows, &chaos_rows, &serve_rows);
}

/// One serve configuration's replay of the scripted request mix.
struct ServeRow {
    label: &'static str,
    workers: usize,
    requests: usize,
    elapsed_ms: f64,
    hits: usize,
    misses: usize,
}

/// Throughput of the resident advisor (`smart-serve`): the same scripted
/// request mix is replayed against a cold daemon at 1 and 4 workers and
/// against a warm daemon restarted from the cold one's cache snapshot.
/// Responses must be byte-identical across all three — the warm restart
/// buys latency only, never different bytes (DESIGN.md §16).
fn serve_section(smoke: bool) -> Vec<ServeRow> {
    use smart_serve::{run_script, Advisor, ServeOptions};

    println!("\n# Serve throughput: resident advisor, cold vs warm restart\n");
    let macros: &[&str] = if smoke {
        &["mux4", "mux8:dom", "zd16:domino"]
    } else {
        &["mux4", "mux8:dom", "mux2:enc", "zd16:domino", "zd32", "inc8", "dec8", "penc4"]
    };
    let loads: &[f64] = if smoke { &[15.0] } else { &[10.0, 15.0, 25.0] };
    let mut script = String::new();
    let mut requests = 0usize;
    for (i, m) in macros.iter().enumerate() {
        for load in loads {
            let _ = writeln!(
                script,
                "{{\"op\":\"size\",\"id\":\"s{requests}\",\"macro\":\"{m}\",\"load\":{load},\"delay\":520}}"
            );
            requests += 1;
        }
        // Every third macro also goes through a batch fan-out.
        if i % 3 == 0 {
            let rows = macros
                .iter()
                .map(|m| format!("{{\"macro\":\"{m}\",\"load\":{},\"delay\":520}}", loads[0]))
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(script, "{{\"op\":\"batch\",\"id\":\"b{i}\",\"requests\":[{rows}]}}");
            requests += 1;
        }
    }

    let advisor = |workers: usize| {
        Advisor::new(ServeOptions {
            parallel: Some(ParallelOptions::with_workers(workers)),
            ..ServeOptions::default()
        })
    };
    let replay = |a: &Advisor| {
        let mut out = Vec::new();
        run_script(a, &script, &mut out).unwrap_or_else(|e| panic!("serve script io: {e}"));
        String::from_utf8(out).unwrap_or_else(|e| panic!("serve replies must be utf-8: {e}"))
    };
    let timed = |label: &'static str, workers: usize, a: &Advisor| {
        let t0 = std::time::Instant::now();
        let replies = replay(a);
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (hits, misses) = a.cache().stats();
        let row = ServeRow { label, workers, requests, elapsed_ms, hits, misses };
        println!(
            "{label:<14} {workers:>7} {requests:>9} {elapsed_ms:>10.1} {:>9.1} {hits:>6} {misses:>7}",
            1e3 * requests as f64 / elapsed_ms
        );
        (row, replies)
    };

    println!(
        "{:<14} {:>7} {:>9} {:>10} {:>9} {:>6} {:>7}",
        "config", "workers", "requests", "ms", "req/s", "hits", "misses"
    );
    let serial = advisor(1);
    let (row1, out1) = timed("cold-serial", 1, &serial);
    let cold = advisor(4);
    let (row4, out4) = timed("cold-pool", 4, &cold);
    let warm = advisor(4);
    let restored = warm
        .cache()
        .restore(&cold.cache().snapshot())
        .unwrap_or_else(|| panic!("own snapshot must restore"));
    assert!(restored > 0, "the cold run must have populated the cache");
    let (roww, outw) = timed("warm-restart", 4, &warm);

    assert_eq!(out1, out4, "serve replies must not depend on the worker count");
    assert_eq!(out4, outw, "a warm restart must replay byte-identically");
    println!(
        "\n(replies byte-identical across 1/4 workers and across the\n\
         snapshot/warm-restart; the warm daemon re-solves nothing it has\n\
         cached — cache effects are latency-only; DESIGN.md \u{a7}16.)"
    );
    vec![row1, row4, roww]
}

/// One macro's multi-corner solve plus its Monte-Carlo yield.
struct CornerYieldRow {
    name: &'static str,
    binding: String,
    /// `(corner, data ps)` in corner-set order.
    corners: Vec<(String, f64)>,
    samples: usize,
    passes: usize,
}

/// Multi-corner robust sizing + statistical variation: each macro is
/// sized once against the slow/typical/fast corner set, then the shipped
/// sizing is wobbled (`smart-prng`-seeded per-device width/threshold
/// perturbations) and re-measured through STA at every corner — the
/// yield-style pass rate of the robust solution. Deterministic for the
/// fixed seed at any `SMART_WORKERS` (DESIGN.md §14).
fn corner_yield_section(smoke: bool) -> Vec<CornerYieldRow> {
    println!("\n# Multi-corner robust sizing and variation yield\n");
    let lib = ModelLibrary::reference();
    let opts = SizingOptions {
        corners: Some(CornerSet::slow_typical_fast(lib.process())),
        ..Default::default()
    };
    let vopts = VariationOptions {
        samples: if smoke { 16 } else { 64 },
        ..VariationOptions::default()
    };
    // Per-macro budgets: each must be feasible at the *slow* corner,
    // which needs ~25-30% more headroom than the typical-only flow.
    let specs: &[(&'static str, MacroSpec, f64)] = &[
        (
            "mux4 pass",
            MacroSpec::Mux {
                topology: MuxTopology::StronglyMutexedPass,
                width: 4,
            },
            450.0,
        ),
        (
            "mux4 domino",
            MacroSpec::Mux {
                topology: MuxTopology::UnsplitDomino,
                width: 4,
            },
            450.0,
        ),
        ("inc8", MacroSpec::Incrementor { width: 8 }, 2000.0),
    ];
    let specs = &specs[..if smoke { 2 } else { specs.len() }];

    println!(
        "{:<14} {:<9} {:>9} {:>9} {:>9} {:>9}",
        "macro", "binding", "slow", "typical", "fast", "yield"
    );
    let mut rows = Vec::new();
    for (name, spec, budget) in specs {
        let delay = DelaySpec::uniform(*budget);
        let circuit = spec.generate();
        let mut boundary = Boundary::default();
        for port in circuit.output_ports() {
            boundary.output_loads.insert(port.name.clone(), 15.0);
        }
        let outcome = match size_circuit(&circuit, &lib, &boundary, &delay, &opts) {
            Ok(o) => o,
            Err(e) => {
                println!("{name:<14} infeasible: {}", e.taxonomy());
                continue;
            }
        };
        let report = variation_sweep(
            &circuit,
            &lib,
            &boundary,
            &delay,
            &outcome.sizing,
            &opts,
            &vopts,
            &ParallelOptions::with_workers(4),
        )
        .unwrap_or_else(|e| panic!("variation sweep on a feasible sizing: {e}"));
        let by_name = |n: &str| {
            outcome
                .corner_delays
                .iter()
                .find(|c| c.corner == n)
                .map_or(f64::NAN, |c| c.data)
        };
        println!(
            "{name:<14} {:<9} {:>9.1} {:>9.1} {:>9.1} {:>8.0}%",
            outcome.binding_corner,
            by_name("slow"),
            by_name("typical"),
            by_name("fast"),
            report.yield_rate() * 100.0
        );
        rows.push(CornerYieldRow {
            name,
            binding: outcome.binding_corner.clone(),
            corners: outcome
                .corner_delays
                .iter()
                .map(|c| (c.corner.clone(), c.data))
                .collect(),
            samples: report.samples.len(),
            passes: report.passes,
        });
    }
    println!(
        "\n(one sizing feasible at every corner; the binding corner is the one\n\
         the GP actually paid for. Yield = fraction of seeded width/threshold\n\
         wobbles that still meet spec at all corners, without re-solving.)"
    );
    rows
}

/// One fault-rate point of the chaos sweep.
struct ChaosRow {
    rate: f64,
    seed: u64,
    total: usize,
    survived: usize,
    salvaged: usize,
    taxonomy: BTreeMap<&'static str, usize>,
}

/// Graceful-degradation study: the same healthy mux sweep under a
/// seeded [`FaultPlan`] at increasing fault rates. *Survival* is the
/// fraction of candidates that still size; *salvage* is the fraction of
/// the sweep a rerun recovers from the crashed run's sizing-cache
/// snapshot instead of recomputing (the transient faults having
/// cleared): the restart loads the snapshot into a fresh cache, exactly
/// like a killed-and-restarted process, and its cache hits are the
/// salvaged rows.
fn chaos_section(smoke: bool) -> Vec<ChaosRow> {
    println!("\n# Chaos: survival and salvage under seeded fault injection\n");
    let widths: &[usize] = if smoke { &[4] } else { &[4, 8] };
    let mut specs = Vec::new();
    for &w in widths {
        for t in MuxTopology::all() {
            if t.supports_width(w) {
                specs.push(MacroSpec::Mux { topology: t, width: w });
            }
        }
    }
    let lib = ModelLibrary::reference();
    let mut boundary = Boundary::default();
    for spec in &specs {
        for port in spec.generate().output_ports() {
            boundary.output_loads.insert(port.name.clone(), 15.0);
        }
    }
    let delay = DelaySpec::uniform(450.0);
    let workers = ParallelOptions::with_workers(4);
    let rates: &[f64] = if smoke { &[0.0, 0.5] } else { &[0.0, 0.1, 0.25, 0.5, 0.8] };

    println!(
        "{:<6} {:>6} {:>9} {:>10} {:>9} {:>10}  taxonomy",
        "rate", "total", "survived", "survival", "salvaged", "salvage"
    );
    let mut rows = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let seed = 0xC4A0_5000 + i as u64;
        let mut path = std::env::temp_dir();
        path.push(format!("smart-bench-chaos-{}-{i}.json", std::process::id()));
        std::fs::remove_file(&path).ok();

        // The "crashed" run: faults injected, sizings memoised, the
        // cache snapshotted when the sweep returns.
        let crashed_cache = Arc::new(SizingCache::new());
        let chaotic = SizingOptions {
            chaos: Some(Arc::new(FaultPlan::uniform(seed, rate))),
            cache: Some(crashed_cache.clone()),
            ..Default::default()
        };
        let table = explore_with_parallel(
            specs.clone(),
            MacroSpec::generate,
            &lib,
            &boundary,
            &delay,
            &chaotic,
            &workers,
        );

        crashed_cache
            .save_snapshot(&path)
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));

        // The restart: no faults, a fresh cache warmed from the snapshot.
        let restart_cache = Arc::new(SizingCache::new());
        restart_cache.load_snapshot(&path);
        let restart = SizingOptions {
            cache: Some(restart_cache),
            ..Default::default()
        };
        let resumed = explore_with_parallel(
            specs.clone(),
            MacroSpec::generate,
            &lib,
            &boundary,
            &delay,
            &restart,
            &workers,
        );
        std::fs::remove_file(&path).ok();
        assert_eq!(
            resumed.feasible_count(),
            specs.len(),
            "the fault-free restart must recover every candidate"
        );

        let row = ChaosRow {
            rate,
            seed,
            total: table.candidates.len(),
            survived: table.feasible_count(),
            salvaged: resumed.cache_hits,
            taxonomy: table.failure_taxonomy().into_iter().collect(),
        };
        println!(
            "{:<6} {:>6} {:>9} {:>9.0}% {:>9} {:>9.0}%  {}",
            row.rate,
            row.total,
            row.survived,
            100.0 * row.survived as f64 / row.total.max(1) as f64,
            row.salvaged,
            100.0 * row.salvaged as f64 / row.total.max(1) as f64,
            taxonomy_column(&row.taxonomy)
        );
        rows.push(row);
    }
    println!(
        "\n(every fault is seeded and classified — survival degrades smoothly\n\
         with the injected rate, and the cache snapshot salvages every row\n\
         whose sizing finished on restart instead of recomputing the sweep;\n\
         DESIGN.md \u{a7}13.)"
    );
    rows
}

/// Machine-readable record of the corner/yield, chaos, and serve sweeps.
fn write_json(
    out_path: &str,
    smoke: bool,
    corner_rows: &[CornerYieldRow],
    rows: &[ChaosRow],
    serve_rows: &[ServeRow],
) {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"robustness/v3\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if smoke { "smoke" } else { "full" });
    let _ = writeln!(json, "  \"corner_yield\": [");
    for (i, r) in corner_rows.iter().enumerate() {
        let corners = r
            .corners
            .iter()
            .map(|(name, data)| format!("{{\"corner\": \"{name}\", \"data_ps\": {data:.3}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "    {{\"macro\": \"{}\", \"binding\": \"{}\", \"corners\": [{corners}], \
             \"samples\": {}, \"passes\": {}, \"yield\": {:.4}}}{}",
            r.name,
            r.binding,
            r.samples,
            r.passes,
            r.passes as f64 / r.samples.max(1) as f64,
            if i + 1 < corner_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"chaos\": [");
    for (i, r) in rows.iter().enumerate() {
        let taxonomy = r
            .taxonomy
            .iter()
            .map(|(tag, n)| format!("{{\"tag\": \"{tag}\", \"count\": {n}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "    {{\"rate\": {:.2}, \"seed\": {}, \"total\": {}, \"survived\": {}, \
             \"survival_rate\": {:.4}, \"salvaged\": {}, \"salvage_rate\": {:.4}, \
             \"taxonomy\": [{taxonomy}]}}{}",
            r.rate,
            r.seed,
            r.total,
            r.survived,
            r.survived as f64 / r.total.max(1) as f64,
            r.salvaged,
            r.salvaged as f64 / r.total.max(1) as f64,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"serve\": [");
    for (i, r) in serve_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"config\": \"{}\", \"workers\": {}, \"requests\": {}, \
             \"elapsed_ms\": {:.1}, \"throughput_rps\": {:.1}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"byte_identical\": true}}{}",
            r.label,
            r.workers,
            r.requests,
            r.elapsed_ms,
            1e3 * r.requests as f64 / r.elapsed_ms,
            r.hits,
            r.misses,
            if i + 1 < serve_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(out_path, json)
        .unwrap_or_else(|e| panic!("write BENCH_robustness.json: {e}"));
    println!("\nwrote {out_path}");
}

/// Robustness of the *parallel* exploration runtime: the serial table is
/// the reference; worker counts and a shared memoization cache must not
/// change a single row. Prints per-configuration agreement plus the
/// cache hit rate a repeated sweep achieves.
fn parallel_section() {
    println!("\n# Parallel exploration determinism (Fig.-1 sweep, mux8 request)\n");
    let lib = ModelLibrary::reference();
    let request = MacroSpec::Mux {
        topology: MuxTopology::StronglyMutexedPass,
        width: 8,
    };
    let loads = [10.0, 25.0];
    let spec = DelaySpec::uniform(450.0);

    let sweep = |opts: &SizingOptions, workers: usize| -> Vec<String> {
        let mut rows = Vec::new();
        for &load in &loads {
            let mut boundary = Boundary::default();
            boundary.output_loads.insert("y".into(), load);
            let table = explore_parallel(
                &request,
                &lib,
                &boundary,
                &spec,
                opts,
                &ParallelOptions::with_workers(workers),
            );
            for c in &table.candidates {
                rows.push(match &c.result {
                    Ok(m) => format!("{}@{load}:{:016x}", c.spec, m.outcome.total_width.to_bits()),
                    Err(e) => format!("{}@{load}:{}", c.spec, e.taxonomy()),
                });
            }
        }
        rows
    };

    let opts = SizingOptions::default();
    let reference = sweep(&opts, 1);
    println!("{:<22} rows={:<3} status", "configuration", reference.len());
    println!("{:<22} rows={:<3} reference", "serial", reference.len());
    for workers in [2usize, 4, 8] {
        let rows = sweep(&opts, workers);
        println!(
            "{:<22} rows={:<3} {}",
            format!("{workers} workers"),
            rows.len(),
            if rows == reference { "identical" } else { "DIVERGED" }
        );
    }

    let cache = Arc::new(SizingCache::new());
    let cached = SizingOptions {
        cache: Some(Arc::clone(&cache)),
        ..Default::default()
    };
    let cold = sweep(&cached, 4);
    let warm = sweep(&cached, 4);
    let (hits, misses) = cache.stats();
    println!(
        "{:<22} rows={:<3} {}",
        "4 workers + cache",
        cold.len(),
        if cold == reference && warm == reference {
            "identical"
        } else {
            "DIVERGED"
        }
    );
    println!(
        "\n(cache over both cached sweeps: {hits} hits / {misses} misses; a row\n\
         that ever diverges across these configurations is a determinism bug —\n\
         see DESIGN.md \u{a7}9 for the contract.)"
    );
}

/// Robustness of the observability layer itself: tracing a parallel
/// sweep must not perturb its rows, and the *stable* export must come
/// out byte-identical no matter how many workers ran the sweep — the
/// per-scope `(scope, seq)` merge, not wall-clock order, decides the
/// bytes.
fn trace_section() {
    println!("\n# Trace determinism (stable export across worker counts)\n");
    let lib = ModelLibrary::reference();
    let request = MacroSpec::Mux {
        topology: MuxTopology::StronglyMutexedPass,
        width: 4,
    };
    let mut boundary = Boundary::default();
    boundary.output_loads.insert("y".into(), 15.0);
    let spec = DelaySpec::uniform(450.0);

    let export = |workers: usize| -> String {
        let opts = SizingOptions {
            trace: Trace::enabled(),
            cache: Some(Arc::new(SizingCache::new())),
            ..Default::default()
        };
        let table = explore_parallel(
            &request,
            &lib,
            &boundary,
            &spec,
            &opts,
            &ParallelOptions::with_workers(workers),
        );
        assert!(!table.candidates.is_empty());
        opts.trace.collect().to_json()
    };

    let reference = export(1);
    println!("{:<22} bytes={:<7} status", "configuration", reference.len());
    println!("{:<22} bytes={:<7} reference", "serial", reference.len());
    for workers in [2usize, 4, 8] {
        let json = export(workers);
        println!(
            "{:<22} bytes={:<7} {}",
            format!("{workers} workers"),
            json.len(),
            if json == reference { "byte-identical" } else { "DIVERGED" }
        );
    }
    println!(
        "\n(the stable export orders events by (scope, seq) and carries no\n\
         timestamps or worker counts; scheduling-dependent telemetry is\n\
         quarantined in unstable events — DESIGN.md \u{a7}11.)"
    );
}

/// An electrically illegal candidate: D1 → inverter → *extra inverter* →
/// D2, whose second-stage data input is monotone-falling during evaluate
/// (rule SL101).
fn broken_pipeline() -> Circuit {
    let mut c = Circuit::new("broken");
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap_or_else(|e| panic!("fresh net: {e}"));
    let a = c.add_net("a").unwrap_or_else(|e| panic!("fresh net: {e}"));
    let dyn1 = c.add_net_kind("dyn1", NetKind::Dynamic).unwrap_or_else(|e| panic!("fresh net: {e}"));
    let q = c.add_net("q").unwrap_or_else(|e| panic!("fresh net: {e}"));
    let qb = c.add_net("qb").unwrap_or_else(|e| panic!("fresh net: {e}"));
    let dyn2 = c.add_net_kind("dyn2", NetKind::Dynamic).unwrap_or_else(|e| panic!("fresh net: {e}"));
    let y = c.add_net("y").unwrap_or_else(|e| panic!("fresh net: {e}"));
    let p = c.label("P1");
    let n = c.label("N1");
    for (path, a, y) in [("h1", dyn1, q), ("bad", q, qb), ("h2", dyn2, y)] {
        c.add(
            path,
            ComponentKind::Inverter { skew: Skew::Balanced },
            &[a, y],
            &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)],
        )
        .unwrap_or_else(|e| panic!("valid inverter: {e}"));
    }
    for (path, d, out) in [("d1", a, dyn1), ("d2", qb, dyn2)] {
        c.add(
            path,
            ComponentKind::Domino { network: Network::Input(0), clocked_eval: true },
            &[clk, d, out],
            &[
                (DeviceRole::Precharge, p),
                (DeviceRole::DataN, n),
                (DeviceRole::Evaluate, n),
            ],
        )
        .unwrap_or_else(|e| panic!("valid domino: {e}"));
    }
    c.expose_input("clk", clk);
    c.expose_input("a", a);
    c.expose_output("y", y);
    c.add_route_parasitics(0.5, 0.8);
    c
}

/// Robustness of the exploration *lint gate*: a sweep containing an
/// electrically illegal candidate keeps running, the bad row lands in
/// the failures column as `lint×1`, and no sizing effort is spent on it.
fn lint_section() {
    println!("\n# Lint-gate robustness (poisoned candidate in a mux4 sweep)\n");
    let lib = ModelLibrary::reference();
    let poison = MacroSpec::Mux { topology: MuxTopology::Tristate, width: 4 };
    let specs = vec![
        MacroSpec::Mux { topology: MuxTopology::StronglyMutexedPass, width: 4 },
        poison.clone(),
        MacroSpec::Mux { topology: MuxTopology::UnsplitDomino, width: 4 },
    ];
    let mut boundary = Boundary::default();
    boundary.output_loads.insert("y".into(), 15.0);
    let cache = Arc::new(SizingCache::new());
    let opts = SizingOptions {
        cache: Some(Arc::clone(&cache)),
        ..Default::default()
    };
    let table = explore_with_parallel(
        specs,
        |spec| if *spec == poison { broken_pipeline() } else { spec.generate() },
        &lib,
        &boundary,
        &DelaySpec::uniform(450.0),
        &opts,
        &ParallelOptions::from_env(),
    );
    let failures: BTreeMap<&'static str, usize> = table.failure_taxonomy().into_iter().collect();
    println!(
        "{:<22} rows={:<3} feasible={:<3} failures={}",
        "mux4 + poisoned row",
        table.candidates.len(),
        table.feasible_count(),
        taxonomy_column(&failures)
    );
    let (hits, misses) = cache.stats();
    println!(
        "\n(the lint row is rejected before sizing: the shared cache saw\n\
         {hits} hits / {misses} misses, all attributable to the clean rows;\n\
         Error-severity findings gate, warnings ride along as data.)"
    );
}
