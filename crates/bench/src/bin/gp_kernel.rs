//! GP Newton-kernel microbenchmark: the perf evidence for the sparse
//! structure-exploiting kernel and warm-start chaining.
//!
//! Four sections, all written to a machine-readable `BENCH_gp.json`:
//!
//! * **kernel** — per-macro sizing-GP solve wall time and Newton
//!   steps/sec for the sparse production kernel vs the dense reference
//!   oracle (`solve_reference`), same problems, same trajectories, with
//!   each GP's term count, distinct-term count, which sweep the solver
//!   picks for it (`grouped` over a term dictionary or `direct` per
//!   posynomial) and line-search trials per solve, with those rejected
//!   for leaving the barrier domain (the full run adds
//!   `cla64`, the largest GP of the database);
//! * **warm_start** — phase-1 + phase-2 step counts and wall time across
//!   a simulated relaxation ladder, with chaining (rung k+1 starts from
//!   rung k's solution) vs without (every rung restarts from mid-range
//!   widths);
//! * **audit** — dominance pruning on the multi-corner
//!   (slow/typical/fast) constraint system: pruned-constraint counts per
//!   macro and end-to-end audit+solve time vs solving the full system;
//! * **explore_scaling** — the acceptance number: the full
//!   representative sweep of `explore_scaling` at one worker, measured
//!   here and compared against the recorded pre-PR baseline;
//! * **build** — `build_sizing_gp` over the whole representative
//!   database (12 fF on every output, 1500 ps) at the single corner and
//!   at slow/typical/fast: median wall time of the whole-database build,
//!   heap allocations per GP (a counting global allocator), and the
//!   deterministic counters — constraints, final terms, term pushes,
//!   distinct terms — per entry, next to the numbers recorded before the
//!   term table.
//!
//! `--smoke` shrinks every section to CI size; `--out PATH` redirects
//! the JSON (CI uses this so smoke numbers never clobber the committed
//! full-run record). `--check PATH` compares the sweep of every kernel
//! case and the build counters of every entry this run built with the
//! same cases and entries in the record at PATH, and exits non-zero on
//! any difference.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use smart_audit::{audit_problem, AuditConfig};
use smart_core::constraints::{boundary_extra_loads, build_sizing_gp, SizingGp};
use smart_core::{
    compact, explore_parallel, DelaySpec, ParallelOptions, SizingOptions,
};
use smart_gp::{GpProblem, SolverOptions};
use smart_macros::{representative_database, MacroSpec, MuxTopology, ZeroDetectStyle};
use smart_models::{CornerSet, ModelLibrary};
use smart_posy::{LogPosynomial, TermDictionary};
use smart_sta::Boundary;
use smart_trace::json::Json;
use smart_trace::{Trace, Value};

/// Counts heap allocations (for the build section's allocations per GP).
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `explore_scaling` full-sweep serial wall time (best of 3) measured at
/// the commit before this kernel landed (c6d5b09, dense `Vec<Vec<f64>>`
/// Newton steps, no warm-start chaining), on the same container class CI
/// uses. The acceptance criterion is ≥ 2× against this number.
const PRE_PR_BASELINE_MS: f64 = 168.3;

fn boundary_for(request: &MacroSpec, load: f64) -> Boundary {
    let mut b = Boundary::default();
    for port in request.generate().output_ports() {
        b.output_loads.insert(port.name.clone(), load);
    }
    b
}

/// Builds one macro's sizing GP the way `size_circuit` would (honoring
/// `opts.corners`: a multi-corner set emits the whole timing/slope
/// family once per corner).
fn sizing_gp_with(
    request: &MacroSpec,
    load: f64,
    spec: &DelaySpec,
    opts: &SizingOptions,
) -> SizingGp {
    let circuit = request.generate();
    let lib = ModelLibrary::reference();
    let boundary = boundary_for(request, load);
    let (_, vars) = smart_models::label_vars(&circuit);
    let extra = boundary_extra_loads(&circuit, &boundary);
    let compaction = compact(&circuit, &lib, &vars, &extra, opts)
        .unwrap_or_else(|e| panic!("compaction: {e}"));
    build_sizing_gp(&circuit, &lib, &compaction, &boundary, &extra, spec, opts)
        .unwrap_or_else(|e| panic!("GP builds: {e}"))
}

/// Builds one macro's single-corner sizing GP under default options.
fn sizing_gp(request: &MacroSpec, load: f64, spec: &DelaySpec) -> SizingGp {
    sizing_gp_with(request, load, spec, &SizingOptions::default())
}

/// A GP's sharing: its term references, its distinct terms, and whether
/// the solver sweeps it through a term dictionary.
struct Sharing {
    terms: usize,
    distinct_terms: usize,
    grouped: bool,
}

fn sharing(gp: &GpProblem) -> Sharing {
    let dim = gp.dim();
    let slots: Vec<LogPosynomial> = std::iter::once(gp.objective())
        .chain(gp.constraints().iter().map(|c| &c.body))
        .map(|p| LogPosynomial::from_posynomial(p, dim))
        .collect();
    let dict = TermDictionary::new(&slots);
    Sharing {
        terms: dict.references(),
        distinct_terms: dict.distinct_terms(),
        grouped: TermDictionary::if_shared(&slots).is_some(),
    }
}

fn sweep_name(grouped: bool) -> &'static str {
    if grouped {
        "grouped"
    } else {
        "direct"
    }
}

struct KernelRow {
    name: &'static str,
    dim: usize,
    constraints: usize,
    terms: usize,
    distinct_terms: usize,
    grouped: bool,
    newton_steps: usize,
    line_search_trials: usize,
    outside_trials: usize,
    sparse_ms: f64,
    dense_ms: f64,
    steps_per_sec: f64,
}

/// Line-search trials of one solve and those rejected for leaving the
/// barrier domain: the sums of the `trials` and `outside` fields of its
/// `gp/newton` events, recorded in a traced run outside the timed ones.
fn line_search_trials(built: &SizingGp, opts: &SolverOptions) -> (usize, usize) {
    let trace = Trace::enabled();
    {
        let scope = trace.scope("gp_kernel", 0, 0);
        let _current = scope.enter();
        built.gp.solve(opts).unwrap_or_else(|e| panic!("traced solve: {e}"));
    }
    let report = trace.collect();
    let sum = |field| {
        report
            .events_named("gp/newton")
            .flat_map(|e| &e.fields)
            .map(|(name, v)| match v {
                Value::U64(n) if *name == field => *n as usize,
                _ => 0,
            })
            .sum()
    };
    (sum("trials"), sum("outside"))
}

/// Times `solve` and `solve_reference` on one sizing GP (best of
/// `iters`); asserts both walk the same trajectory.
fn bench_kernel(name: &'static str, built: &SizingGp, iters: usize) -> KernelRow {
    let opts = SolverOptions::default();
    let mut sparse_best = Duration::MAX;
    let mut dense_best = Duration::MAX;
    let mut steps = 0usize;
    for _ in 0..iters {
        let t0 = Instant::now();
        let sol = built.gp.solve(&opts).unwrap_or_else(|e| panic!("sparse solve: {e}"));
        sparse_best = sparse_best.min(t0.elapsed());
        steps = sol.phase1_newton_steps + sol.phase2_newton_steps;

        let t0 = Instant::now();
        let dsol = built
            .gp
            .solve_reference(&opts)
            .unwrap_or_else(|e| panic!("dense solve: {e}"));
        dense_best = dense_best.min(t0.elapsed());
        assert_eq!(
            steps,
            dsol.phase1_newton_steps + dsol.phase2_newton_steps,
            "{name}: kernels walked different trajectories"
        );
    }
    let shared = sharing(&built.gp);
    let (line_search_trials, outside_trials) = line_search_trials(built, &opts);
    KernelRow {
        name,
        dim: built.gp.dim(),
        constraints: built.gp.constraints().len(),
        terms: shared.terms,
        distinct_terms: shared.distinct_terms,
        grouped: shared.grouped,
        newton_steps: steps,
        line_search_trials,
        outside_trials,
        sparse_ms: sparse_best.as_secs_f64() * 1e3,
        dense_ms: dense_best.as_secs_f64() * 1e3,
        steps_per_sec: steps as f64 / sparse_best.as_secs_f64().max(1e-12),
    }
}

struct ChainRow {
    phase1_steps: usize,
    phase2_steps: usize,
    ms: f64,
}

/// Simulates `size_to_spec`'s relaxation ladder on one macro: solve at a
/// tight starting spec, then re-solve at progressively relaxed specs
/// (the flow loosens 1.1× per rung). With `chain`, rung k+1 starts from
/// rung k's solution (what the sizing loop now does); without, every
/// rung restarts from mid-range widths (the pre-PR behavior). On these
/// macros the ablation is roughly step-neutral — the barrier schedule,
/// not the start point, dominates the step count — so chaining's value
/// in the flow is anchoring (keeping phase I inside the size box on
/// macros whose natural widths sit far from mid-range), not raw speed;
/// the JSON records both sides so that regressions in either direction
/// are visible.
fn bench_chaining(request: &MacroSpec, load: f64, base_ps: f64, chain: bool) -> ChainRow {
    let lib = ModelLibrary::reference();
    let w0 = (lib.process().w_min * lib.process().w_max).sqrt();
    let relax = [1.0, 1.1, 1.21, 1.331];
    let mut p1 = 0usize;
    let mut p2 = 0usize;
    let mut prev: Option<Vec<f64>> = None;
    let t0 = Instant::now();
    for factor in relax {
        let built = sizing_gp(request, load, &DelaySpec::uniform(base_ps * factor));
        let initial = match (&prev, chain) {
            (Some(x), true) => x.clone(),
            _ => vec![w0; built.gp.dim()],
        };
        let opts = SolverOptions {
            initial_x: Some(initial),
            ..Default::default()
        };
        let sol = built.gp.solve(&opts).unwrap_or_else(|e| panic!("retarget solve: {e}"));
        p1 += sol.phase1_newton_steps;
        p2 += sol.phase2_newton_steps;
        prev = Some(sol.x);
    }
    ChainRow {
        phase1_steps: p1,
        phase2_steps: p2,
        ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

struct AuditRow {
    name: &'static str,
    constraints: usize,
    prunable: usize,
    audit_ms: f64,
    full_ms: f64,
    pruned_ms: f64,
}

/// Audit section: dominance pruning on the multi-corner constraint
/// system. Builds the macro's sizing GP against the slow/typical/fast
/// corner set (every timing/slope constraint emitted three times over
/// shared width variables — the workload PR 7 created and the pruner
/// targets), runs the static audit, and times the Newton solve of the
/// full system vs the audit+solve of the pruned one (best of `iters`).
/// Sanity-checks in-process that pruning moved the optimum by at most a
/// relative 1e-6 — the cheap echo of the exhaustive parity suite.
fn bench_audit(name: &'static str, request: &MacroSpec, load: f64, ps: f64, iters: usize) -> AuditRow {
    let lib = ModelLibrary::reference();
    let opts = SizingOptions {
        corners: Some(CornerSet::slow_typical_fast(lib.process())),
        ..Default::default()
    };
    let built = sizing_gp_with(request, load, &DelaySpec::uniform(ps), &opts);
    let cfg = AuditConfig::default();

    let mut audit_best = Duration::MAX;
    let mut outcome = audit_problem(&built.gp, name, &cfg);
    for _ in 0..iters {
        let t0 = Instant::now();
        outcome = audit_problem(&built.gp, name, &cfg);
        audit_best = audit_best.min(t0.elapsed());
    }
    assert!(
        outcome.certificate.is_none(),
        "{name}: unexpected infeasibility certificate at a feasible bench spec"
    );
    let pruned = built.gp.without_constraints(&outcome.prunable);

    let solver = SolverOptions::default();
    let mut full_best = Duration::MAX;
    let mut pruned_best = Duration::MAX;
    let mut full_obj = f64::NAN;
    let mut pruned_obj = f64::NAN;
    for _ in 0..iters {
        let t0 = Instant::now();
        let sol = built.gp.solve(&solver).unwrap_or_else(|e| panic!("full solve: {e}"));
        full_best = full_best.min(t0.elapsed());
        full_obj = sol.objective;

        let t0 = Instant::now();
        let psol = pruned.solve(&solver).unwrap_or_else(|e| panic!("pruned solve: {e}"));
        pruned_best = pruned_best.min(t0.elapsed());
        pruned_obj = psol.objective;
    }
    let rel = (full_obj - pruned_obj).abs() / full_obj.abs().max(1e-12);
    assert!(
        rel <= 1e-6,
        "{name}: pruned optimum drifted {rel:.2e} relative from the full one"
    );
    AuditRow {
        name,
        constraints: built.gp.constraints().len(),
        prunable: outcome.prunable.len(),
        audit_ms: audit_best.as_secs_f64() * 1e3,
        full_ms: full_best.as_secs_f64() * 1e3,
        pruned_ms: pruned_best.as_secs_f64() * 1e3,
    }
}

/// The acceptance sweep: `explore_scaling`'s full case set at one worker
/// (smoke mode shrinks it), best of `iters`.
fn bench_sweep(smoke: bool, iters: usize) -> f64 {
    let cases: Vec<(MacroSpec, f64)> = if smoke {
        vec![(
            MacroSpec::Mux {
                topology: MuxTopology::StronglyMutexedPass,
                width: 4,
            },
            400.0,
        )]
    } else {
        vec![
            (
                MacroSpec::Mux {
                    topology: MuxTopology::StronglyMutexedPass,
                    width: 8,
                },
                450.0,
            ),
            (
                MacroSpec::ZeroDetect {
                    width: 16,
                    style: ZeroDetectStyle::Domino,
                },
                450.0,
            ),
            (MacroSpec::Incrementor { width: 13 }, 900.0),
        ]
    };
    let loads: &[f64] = if smoke { &[12.0, 20.0] } else { &[8.0, 16.0, 32.0] };
    let lib = ModelLibrary::reference();
    let opts = SizingOptions::default();
    let par = ParallelOptions::with_workers(1);
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        for (request, ps) in &cases {
            for &load in loads {
                let boundary = boundary_for(request, load);
                let _ = explore_parallel(
                    request,
                    &lib,
                    &boundary,
                    &DelaySpec::uniform(*ps),
                    &opts,
                    &par,
                );
            }
        }
        best = best.min(t0.elapsed());
    }
    best.as_secs_f64() * 1e3
}

/// Whole-database GP builds before the term table (this binary's build
/// section run against the commit before it, e18bedd, on the same 2-core
/// container class), per corner set: `(corners, median ms of the
/// whole-database build, heap allocations per GP)`.
const BUILD_BEFORE: [(&str, f64, f64); 2] = [("single", 212.6, 20787.0), ("stf", 593.1, 61614.0)];

/// Deterministic counters of one database entry's GP build.
struct BuildCase {
    name: String,
    corners: &'static str,
    constraints: usize,
    terms: usize,
    pushes: usize,
    distinct_terms: usize,
}

/// One corner set's whole-database build.
struct BuildRow {
    corners: &'static str,
    runs: usize,
    median_ms: f64,
    allocs_per_build: f64,
    cases: Vec<BuildCase>,
}

/// Builds the sizing GP of every entry of `specs` (12 fF on every output,
/// 1500 ps) `runs` times; compaction and one build per entry for its
/// counters happen outside the clock.
fn bench_build(specs: &[MacroSpec], stf: bool, runs: usize) -> BuildRow {
    let lib = ModelLibrary::reference();
    let opts = SizingOptions {
        corners: stf.then(|| CornerSet::slow_typical_fast(lib.process())),
        ..SizingOptions::default()
    };
    let spec = DelaySpec::uniform(1500.0);
    let inputs: Vec<_> = specs
        .iter()
        .map(|request| {
            let circuit = request.generate();
            let boundary = boundary_for(request, 12.0);
            let (_, vars) = smart_models::label_vars(&circuit);
            let extra = boundary_extra_loads(&circuit, &boundary);
            let compaction = compact(&circuit, &lib, &vars, &extra, &opts)
                .unwrap_or_else(|e| panic!("compaction: {e}"));
            (request.to_string(), circuit, boundary, extra, compaction)
        })
        .collect();
    let build = |(_, circuit, boundary, extra, compaction): &(String, _, _, _, _)| {
        build_sizing_gp(circuit, &lib, compaction, boundary, extra, &spec, &opts)
            .unwrap_or_else(|e| panic!("GP builds: {e}"))
    };
    let cases = inputs
        .iter()
        .map(|input| {
            let built = build(input);
            let shared = sharing(&built.gp);
            BuildCase {
                name: input.0.clone(),
                corners: if stf { "stf" } else { "single" },
                constraints: built.gp.constraints().len(),
                terms: shared.terms,
                pushes: built.term_pushes,
                distinct_terms: shared.distinct_terms,
            }
        })
        .collect();
    let mut times = Vec::new();
    let mut allocs = 0;
    for _ in 0..runs {
        let before = ALLOCS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        for input in &inputs {
            std::hint::black_box(build(input));
        }
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        allocs = ALLOCS.load(Ordering::Relaxed) - before;
    }
    times.sort_by(f64::total_cmp);
    BuildRow {
        corners: if stf { "stf" } else { "single" },
        runs,
        median_ms: times[times.len() / 2],
        allocs_per_build: allocs as f64 / specs.len() as f64,
        cases,
    }
}

/// Compares the build counters of `rows` with the same entries of
/// `record`; returns one line per difference.
fn check_build(rows: &[BuildRow], record: &Json) -> Vec<String> {
    let entries = record
        .get("build")
        .and_then(|b| b.get("entries"))
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    let count = |e: &Json, key| e.get(key).and_then(Json::as_f64).map(|v| v as usize);
    let mut diffs = Vec::new();
    for case in rows.iter().flat_map(|r| &r.cases) {
        let recorded = entries.iter().find(|e| {
            e.get("case").and_then(Json::as_str) == Some(case.name.as_str())
                && e.get("corners").and_then(Json::as_str) == Some(case.corners)
        });
        let got = (
            Some(case.constraints),
            Some(case.terms),
            Some(case.pushes),
            Some(case.distinct_terms),
        );
        let want = recorded.map(|e| {
            (
                count(e, "constraints"),
                count(e, "terms"),
                count(e, "pushes"),
                count(e, "distinct_terms"),
            )
        });
        match want {
            Some(want) if want == got => {}
            want => diffs.push(format!(
                "{} @{}: (constraints, terms, pushes, distinct_terms) = {got:?}, \
                 recorded {want:?}",
                case.name, case.corners
            )),
        }
    }
    diffs
}

/// Kernel cases: `(case, macro, output load fF, delay ps, in the smoke
/// set)`. The smoke set is a subset, so `--check` finds every smoke case
/// in a full-run record. It covers both sweeps: `mux4` is swept per
/// posynomial; `cla8` (at the sharing constant's crossover) and `cla32`
/// through the term dictionary. The `cla*` delays are about 1.3× the
/// minimum delay at 12 fF.
const KERNEL_CASES: [(&str, MacroSpec, f64, f64, bool); 8] = [
    (
        "mux4",
        MacroSpec::Mux {
            topology: MuxTopology::StronglyMutexedPass,
            width: 4,
        },
        20.0,
        900.0,
        true,
    ),
    (
        "mux8_pass",
        MacroSpec::Mux {
            topology: MuxTopology::StronglyMutexedPass,
            width: 8,
        },
        20.0,
        900.0,
        false,
    ),
    (
        "zd16_domino",
        MacroSpec::ZeroDetect {
            width: 16,
            style: ZeroDetectStyle::Domino,
        },
        20.0,
        900.0,
        false,
    ),
    ("inc13", MacroSpec::Incrementor { width: 13 }, 20.0, 2600.0, false),
    ("inc8_cla", MacroSpec::IncrementorCla { width: 8 }, 20.0, 1500.0, false),
    ("cla8", MacroSpec::ClaAdder { width: 8 }, 12.0, 920.0, true),
    ("cla32", MacroSpec::ClaAdder { width: 32 }, 12.0, 1283.0, true),
    // 73 variables, 1,026 constraints: the GP that dominates the adder64
    // workload.
    ("cla64", MacroSpec::ClaAdder { width: 64 }, 12.0, 1469.0, false),
];

/// Compares each kernel row's sweep with the same case of `record`;
/// returns one line per difference.
fn check_kernel(rows: &[KernelRow], record: &Json) -> Vec<String> {
    let entries = record.get("kernel").and_then(Json::as_array).unwrap_or(&[]);
    rows.iter()
        .filter_map(|row| {
            let recorded = entries
                .iter()
                .find(|e| e.get("case").and_then(Json::as_str) == Some(row.name))
                .and_then(|e| e.get("sweep").and_then(Json::as_str));
            let got = sweep_name(row.grouped);
            (recorded != Some(got))
                .then(|| format!("{}: sweep {got}, recorded {recorded:?}", row.name))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_gp.json".to_string());
    let iters = if smoke { 1 } else { 3 };

    // --- Kernel micro: sparse vs dense on real sizing GPs -------------
    let kernel_cases = KERNEL_CASES.iter().filter(|case| case.4 || !smoke);
    println!(
        "{:<12} {:>5} {:>6} {:>7} {:>8} {:>7} {:>7} {:>7} {:>7} {:>10} {:>10} {:>8} {:>12}",
        "case",
        "dim",
        "cons",
        "terms",
        "distinct",
        "sweep",
        "steps",
        "trials",
        "outside",
        "sparse",
        "dense",
        "speedup",
        "steps/sec"
    );
    let mut kernel_rows = Vec::new();
    for (name, request, load, ps, _) in kernel_cases {
        let built = sizing_gp(request, *load, &DelaySpec::uniform(*ps));
        let row = bench_kernel(name, &built, iters);
        println!(
            "{:<12} {:>5} {:>6} {:>7} {:>8} {:>7} {:>7} {:>7} {:>7} {:>8.2}ms {:>8.2}ms {:>7.2}x {:>12.0}",
            row.name,
            row.dim,
            row.constraints,
            row.terms,
            row.distinct_terms,
            sweep_name(row.grouped),
            row.newton_steps,
            row.line_search_trials,
            row.outside_trials,
            row.sparse_ms,
            row.dense_ms,
            row.dense_ms / row.sparse_ms.max(1e-9),
            row.steps_per_sec,
        );
        kernel_rows.push(row);
    }

    // --- Warm-start chaining ablation ---------------------------------
    let (chain_req, chain_ps) = if smoke {
        (
            MacroSpec::Mux {
                topology: MuxTopology::StronglyMutexedPass,
                width: 4,
            },
            500.0,
        )
    } else {
        (MacroSpec::Incrementor { width: 13 }, 2600.0)
    };
    let cold = bench_chaining(&chain_req, 20.0, chain_ps, false);
    let warm = bench_chaining(&chain_req, 20.0, chain_ps, true);
    println!(
        "\nwarm-start chaining (4-rung relaxation ladder on {}):",
        if smoke { "mux4" } else { "inc13" }
    );
    println!(
        "  without: {:>4} phase-1 + {:>4} phase-2 steps, {:>7.2}ms",
        cold.phase1_steps, cold.phase2_steps, cold.ms
    );
    println!(
        "  with:    {:>4} phase-1 + {:>4} phase-2 steps, {:>7.2}ms  ({:.2}x fewer steps)",
        warm.phase1_steps,
        warm.phase2_steps,
        warm.ms,
        (cold.phase1_steps + cold.phase2_steps) as f64
            / ((warm.phase1_steps + warm.phase2_steps) as f64).max(1.0),
    );

    // --- Audit: multi-corner dominance pruning -------------------------
    let audit_cases: Vec<(&'static str, MacroSpec, f64)> = if smoke {
        vec![(
            "mux4_stf",
            MacroSpec::Mux {
                topology: MuxTopology::StronglyMutexedPass,
                width: 4,
            },
            1800.0,
        )]
    } else {
        vec![
            (
                "mux8_stf",
                MacroSpec::Mux {
                    topology: MuxTopology::StronglyMutexedPass,
                    width: 8,
                },
                1800.0,
            ),
            (
                "zd16_stf",
                MacroSpec::ZeroDetect {
                    width: 16,
                    style: ZeroDetectStyle::Domino,
                },
                1800.0,
            ),
            ("inc13_stf", MacroSpec::Incrementor { width: 13 }, 5200.0),
            ("inc8_cla_stf", MacroSpec::IncrementorCla { width: 8 }, 3000.0),
        ]
    };
    println!(
        "\naudit (slow/typical/fast corners):\n{:<14} {:>6} {:>8} {:>9} {:>9} {:>9} {:>8}",
        "case", "cons", "prunable", "audit", "full", "pruned", "speedup"
    );
    let mut audit_rows = Vec::new();
    for (name, request, ps) in &audit_cases {
        let row = bench_audit(name, request, 20.0, *ps, iters);
        println!(
            "{:<14} {:>6} {:>8} {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>7.2}x",
            row.name,
            row.constraints,
            row.prunable,
            row.audit_ms,
            row.full_ms,
            row.pruned_ms,
            row.full_ms / (row.audit_ms + row.pruned_ms).max(1e-9),
        );
        audit_rows.push(row);
    }
    let audit_full_ms: f64 = audit_rows.iter().map(|r| r.full_ms).sum();
    let audit_pruned_ms: f64 = audit_rows.iter().map(|r| r.audit_ms + r.pruned_ms).sum();
    println!(
        "  sweep: full {audit_full_ms:.2}ms vs audit+pruned {audit_pruned_ms:.2}ms \
         ({:.2}x)",
        audit_full_ms / audit_pruned_ms.max(1e-9)
    );

    // --- Acceptance sweep ----------------------------------------------
    let sweep_ms = bench_sweep(smoke, iters);
    if smoke {
        println!("\nexplore sweep (smoke subset, 1 worker): {sweep_ms:.1}ms");
    } else {
        println!(
            "\nexplore_scaling full sweep, 1 worker: {sweep_ms:.1}ms \
             (pre-PR baseline {PRE_PR_BASELINE_MS}ms, {:.2}x)",
            PRE_PR_BASELINE_MS / sweep_ms.max(1e-9)
        );
    }

    // --- GP build over the representative database ---------------------
    let database = representative_database();
    let build_specs: Vec<MacroSpec> = if smoke {
        [0, 7, 12].iter().map(|&i| database[i].clone()).collect()
    } else {
        database
    };
    let build_runs = if smoke { 1 } else { 7 };
    let build_rows = [false, true].map(|stf| bench_build(&build_specs, stf, build_runs));
    println!(
        "\nGP build, {} database entries at 12 fF / 1500 ps (median of {build_runs}):",
        build_specs.len()
    );
    for (row, (_, before_ms, before_allocs)) in build_rows.iter().zip(BUILD_BEFORE) {
        let sum = |f: fn(&BuildCase) -> usize| row.cases.iter().map(f).sum::<usize>();
        println!(
            "  {:<6} {:>8.1}ms {:>9.0} allocs/GP  {:>6} constraints {:>7} terms {:>8} pushes{}",
            row.corners,
            row.median_ms,
            row.allocs_per_build,
            sum(|c| c.constraints),
            sum(|c| c.terms),
            sum(|c| c.pushes),
            if smoke {
                String::new()
            } else {
                format!("  (before: {before_ms:.1}ms, {before_allocs:.0} allocs/GP)")
            }
        );
    }
    if let Some(path) = args.iter().position(|a| a == "--check").and_then(|i| args.get(i + 1)) {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let record = Json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
        let mut diffs = check_kernel(&kernel_rows, &record);
        diffs.extend(check_build(&build_rows, &record));
        if !diffs.is_empty() {
            eprintln!(
                "kernel sweeps or GP build counters differ from {path}:\n{}",
                diffs.join("\n")
            );
            std::process::exit(1);
        }
        println!("  kernel sweeps and build counters match {path}");
    }

    // --- Machine-readable record ---------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"gp_kernel/v1\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if smoke { "smoke" } else { "full" });
    let _ = writeln!(json, "  \"kernel\": [");
    for (i, r) in kernel_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"case\": \"{}\", \"dim\": {}, \"constraints\": {}, \
             \"terms\": {}, \"distinct_terms\": {}, \"sweep\": \"{}\", \
             \"newton_steps\": {}, \"line_search_trials\": {}, \"outside_trials\": {}, \
             \"sparse_ms\": {:.3}, \"dense_ms\": {:.3}, \
             \"dense_over_sparse\": {:.3}, \"steps_per_sec\": {:.0}}}{}",
            r.name,
            r.dim,
            r.constraints,
            r.terms,
            r.distinct_terms,
            sweep_name(r.grouped),
            r.newton_steps,
            r.line_search_trials,
            r.outside_trials,
            r.sparse_ms,
            r.dense_ms,
            r.dense_ms / r.sparse_ms.max(1e-9),
            r.steps_per_sec,
            if i + 1 < kernel_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"warm_start_chaining\": {{\n    \"without\": {{\"phase1_steps\": {}, \"phase2_steps\": {}, \"ms\": {:.3}}},\n    \"with\": {{\"phase1_steps\": {}, \"phase2_steps\": {}, \"ms\": {:.3}}},\n    \"step_ratio\": {:.3}\n  }},",
        cold.phase1_steps,
        cold.phase2_steps,
        cold.ms,
        warm.phase1_steps,
        warm.phase2_steps,
        warm.ms,
        (cold.phase1_steps + cold.phase2_steps) as f64
            / ((warm.phase1_steps + warm.phase2_steps) as f64).max(1.0)
    );
    let _ = writeln!(json, "  \"audit\": [");
    for (i, r) in audit_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"case\": \"{}\", \"constraints\": {}, \"prunable\": {}, \
             \"audit_ms\": {:.3}, \"full_ms\": {:.3}, \"pruned_ms\": {:.3}}}{}",
            r.name,
            r.constraints,
            r.prunable,
            r.audit_ms,
            r.full_ms,
            r.pruned_ms,
            if i + 1 < audit_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"audit_sweep\": {{\"full_ms\": {audit_full_ms:.3}, \
         \"audit_plus_pruned_ms\": {audit_pruned_ms:.3}, \"speedup\": {:.3}}},",
        audit_full_ms / audit_pruned_ms.max(1e-9)
    );
    let _ = writeln!(
        json,
        "  \"explore_scaling_serial\": {{\n    \"pre_pr_baseline_ms\": {PRE_PR_BASELINE_MS},\n    \"measured_ms\": {sweep_ms:.1},\n    \"speedup\": {:.2},\n    \"full_sweep\": {}\n  }},",
        PRE_PR_BASELINE_MS / sweep_ms.max(1e-9),
        !smoke
    );
    let _ = writeln!(json, "  \"build\": {{");
    let _ = writeln!(json, "    \"inputs\": \"12 fF on every output, uniform 1500 ps\",");
    let _ = writeln!(json, "    \"before\": [");
    for (i, (corners, ms, allocs)) in BUILD_BEFORE.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"corners\": \"{corners}\", \"median_ms\": {ms:.1}, \"allocs_per_build\": {allocs:.0}}}{}",
            if i + 1 < BUILD_BEFORE.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"after\": [");
    for (i, r) in build_rows.iter().enumerate() {
        let sum = |f: fn(&BuildCase) -> usize| r.cases.iter().map(f).sum::<usize>();
        let _ = writeln!(
            json,
            "      {{\"corners\": \"{}\", \"entries\": {}, \"runs\": {}, \"median_ms\": {:.1}, \
             \"allocs_per_build\": {:.0}, \"constraints\": {}, \"terms\": {}, \"pushes\": {}}}{}",
            r.corners,
            r.cases.len(),
            r.runs,
            r.median_ms,
            r.allocs_per_build,
            sum(|c| c.constraints),
            sum(|c| c.terms),
            sum(|c| c.pushes),
            if i + 1 < build_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"entries\": [");
    let cases: Vec<&BuildCase> = build_rows.iter().flat_map(|r| &r.cases).collect();
    for (i, c) in cases.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"case\": \"{}\", \"corners\": \"{}\", \"constraints\": {}, \"terms\": {}, \
             \"pushes\": {}, \"distinct_terms\": {}}}{}",
            c.name,
            c.corners,
            c.constraints,
            c.terms,
            c.pushes,
            c.distinct_terms,
            if i + 1 < cases.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, json)
        .unwrap_or_else(|e| panic!("write BENCH_gp.json: {e}"));
    println!("\nwrote {out_path}");
}
