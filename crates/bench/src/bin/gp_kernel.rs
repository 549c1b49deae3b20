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
//! * **build** — `build_sizing_gp` over the whole representative
//!   database (12 fF on every output, 1500 ps) at the single corner and
//!   at slow/typical/fast: median wall time of the whole-database build,
//!   and the deterministic counters per entry — constraints, final terms,
//!   term pushes, distinct terms, the heap allocations of one build and
//!   the heap bytes of the built GP's log form (`GpProblem::log_form`, the
//!   posynomials every solve sweeps), both from a counting global
//!   allocator.
//!
//! `--smoke` shrinks every section to CI size; `--out PATH` redirects
//! the JSON (CI uses this so smoke numbers never clobber the committed
//! full-run record). `--check PATH` compares the sweep, Newton steps,
//! line-search trials and outside trials of every kernel case and the
//! build counters of every entry this run built with the
//! same cases and entries in the record at PATH, and exits non-zero on
//! any difference or on an entry that allocates more, or whose log form
//! takes more heap bytes, than its record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use smart_audit::{audit_problem, AuditConfig};
use smart_core::constraints::{boundary_extra_loads, build_sizing_gp, SizingGp};
use smart_core::{compact, DelaySpec, SizingOptions};
use smart_gp::{GpProblem, SolverOptions};
use smart_macros::{representative_database, MacroSpec, MuxTopology, ZeroDetectStyle};
use smart_models::{CornerSet, ModelLibrary};
use smart_posy::TermDictionary;
use smart_sta::Boundary;
use smart_trace::json::Json;
use smart_trace::{Trace, Value};

/// Counts heap allocations and live heap bytes (for the build section's
/// allocations per GP and log-form bytes).
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap bytes held by `gp`'s log form while it is alive.
fn log_form_bytes(gp: &GpProblem) -> usize {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let forms = gp.log_form();
    let bytes = LIVE_BYTES.load(Ordering::Relaxed) - before;
    drop(forms);
    bytes
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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
    let compaction =
        compact(&circuit, &lib, &vars, &extra, opts).unwrap_or_else(|e| panic!("compaction: {e}"));
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
    let slots = gp.log_form();
    let dict = TermDictionary::new(gp.table(), &slots);
    Sharing {
        terms: dict.references(),
        distinct_terms: dict.distinct_terms(),
        grouped: TermDictionary::if_shared(gp.table(), &slots).is_some(),
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
        built
            .gp
            .solve(opts)
            .unwrap_or_else(|e| panic!("traced solve: {e}"));
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
        let sol = built
            .gp
            .solve(&opts)
            .unwrap_or_else(|e| panic!("sparse solve: {e}"));
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
        let sol = built
            .gp
            .solve(&opts)
            .unwrap_or_else(|e| panic!("retarget solve: {e}"));
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
fn bench_audit(
    name: &'static str,
    request: &MacroSpec,
    load: f64,
    ps: f64,
    iters: usize,
) -> AuditRow {
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
        let sol = built
            .gp
            .solve(&solver)
            .unwrap_or_else(|e| panic!("full solve: {e}"));
        full_best = full_best.min(t0.elapsed());
        full_obj = sol.objective;

        let t0 = Instant::now();
        let psol = pruned
            .solve(&solver)
            .unwrap_or_else(|e| panic!("pruned solve: {e}"));
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

/// Deterministic counters of one database entry's GP build.
struct BuildCase {
    name: String,
    corners: &'static str,
    constraints: usize,
    terms: usize,
    pushes: usize,
    distinct_terms: usize,
    /// Heap allocations of one build (after a first, warming build).
    allocs: usize,
    /// Heap bytes of the built GP's log form.
    log_form_bytes: usize,
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
/// 1500 ps) `runs` times; compaction and two builds per entry for its
/// counters (the second counting its allocations) happen outside the
/// clock.
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
    let cases: Vec<BuildCase> = inputs
        .iter()
        .map(|input| {
            let built = build(input);
            let before = ALLOCS.load(Ordering::Relaxed);
            std::hint::black_box(build(input));
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            let shared = sharing(&built.gp);
            BuildCase {
                name: input.0.clone(),
                corners: if stf { "stf" } else { "single" },
                constraints: built.gp.constraints().len(),
                terms: shared.terms,
                pushes: built.term_pushes,
                distinct_terms: shared.distinct_terms,
                allocs,
                log_form_bytes: log_form_bytes(&built.gp),
            }
        })
        .collect();
    let mut times = Vec::new();
    for _ in 0..runs {
        let t0 = Instant::now();
        for input in &inputs {
            std::hint::black_box(build(input));
        }
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    BuildRow {
        corners: if stf { "stf" } else { "single" },
        runs,
        median_ms: times[times.len() / 2],
        allocs_per_build: cases.iter().map(|c| c.allocs).sum::<usize>() as f64 / specs.len() as f64,
        cases,
    }
}

/// Compares the build counters of `rows` with the same entries of
/// `record`; returns one line per difference, one per entry that
/// allocates more than its recorded `allocs_per_build`, and one per entry
/// whose log form takes more than its recorded `log_form_bytes`.
/// Allocation counts and bytes are deterministic, so this is a counter
/// gate, not a timing one.
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
        for (key, got) in [
            ("allocs_per_build", case.allocs),
            ("log_form_bytes", case.log_form_bytes),
        ] {
            let allowed = recorded.and_then(|e| count(e, key));
            if allowed.is_none_or(|a| got > a) {
                diffs.push(format!(
                    "{} @{}: {key} {got}, recorded at most {allowed:?}",
                    case.name, case.corners
                ));
            }
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
    (
        "inc13",
        MacroSpec::Incrementor { width: 13 },
        20.0,
        2600.0,
        false,
    ),
    (
        "inc8_cla",
        MacroSpec::IncrementorCla { width: 8 },
        20.0,
        1500.0,
        false,
    ),
    ("cla8", MacroSpec::ClaAdder { width: 8 }, 12.0, 920.0, true),
    (
        "cla32",
        MacroSpec::ClaAdder { width: 32 },
        12.0,
        1283.0,
        true,
    ),
    // 73 variables, 1,026 constraints: the GP that dominates the adder64
    // workload.
    (
        "cla64",
        MacroSpec::ClaAdder { width: 64 },
        12.0,
        1469.0,
        false,
    ),
];

/// Compares each kernel row's sweep and its deterministic solve counters
/// (Newton steps, line-search trials, trials outside the barrier domain)
/// with the same case of `record`; returns one line per differing row.
fn check_kernel(rows: &[KernelRow], record: &Json) -> Vec<String> {
    let entries = record.get("kernel").and_then(Json::as_array).unwrap_or(&[]);
    let count = |e: &Json, key| e.get(key).and_then(Json::as_f64).map(|v| v as usize);
    rows.iter()
        .filter_map(|row| {
            let recorded = entries
                .iter()
                .find(|e| e.get("case").and_then(Json::as_str) == Some(row.name))
                .map(|e| {
                    (
                        e.get("sweep").and_then(Json::as_str),
                        count(e, "newton_steps"),
                        count(e, "line_search_trials"),
                        count(e, "outside_trials"),
                    )
                });
            let got = (
                Some(sweep_name(row.grouped)),
                Some(row.newton_steps),
                Some(row.line_search_trials),
                Some(row.outside_trials),
            );
            (recorded != Some(got)).then(|| {
                format!(
                    "{}: (sweep, newton_steps, line_search_trials, outside_trials) = {got:?}, \
                     recorded {recorded:?}",
                    row.name
                )
            })
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
            (
                "inc8_cla_stf",
                MacroSpec::IncrementorCla { width: 8 },
                3000.0,
            ),
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

    // --- GP build over the representative database ---------------------
    let database = representative_database();
    // The smoke entries include `cla64` (entry 25), the largest log form,
    // so CI pins its bytes as well as the small entries' counters.
    let build_specs: Vec<MacroSpec> = if smoke {
        [0, 7, 12, 25]
            .iter()
            .map(|&i| database[i].clone())
            .collect()
    } else {
        database
    };
    let build_runs = if smoke { 1 } else { 7 };
    let build_rows = [false, true].map(|stf| bench_build(&build_specs, stf, build_runs));
    println!(
        "\nGP build, {} database entries at 12 fF / 1500 ps (median of {build_runs}):",
        build_specs.len()
    );
    for row in &build_rows {
        let sum = |f: fn(&BuildCase) -> usize| row.cases.iter().map(f).sum::<usize>();
        println!(
            "  {:<6} {:>8.1}ms {:>9.0} allocs/GP  {:>6} constraints {:>7} terms {:>8} pushes \
             {:>5.1} log-form B/term",
            row.corners,
            row.median_ms,
            row.allocs_per_build,
            sum(|c| c.constraints),
            sum(|c| c.terms),
            sum(|c| c.pushes),
            sum(|c| c.log_form_bytes) as f64 / sum(|c| c.terms).max(1) as f64,
        );
    }
    if let Some(path) = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
    {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let record = Json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
        let mut diffs = check_kernel(&kernel_rows, &record);
        diffs.extend(check_build(&build_rows, &record));
        if !diffs.is_empty() {
            eprintln!(
                "kernel sweeps and counters or GP build counters differ from {path}:\n{}",
                diffs.join("\n")
            );
            std::process::exit(1);
        }
        println!("  kernel sweeps and counters and build counters match {path}");
    }

    // --- Machine-readable record ---------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"gp_kernel/v1\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
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
    let _ = writeln!(json, "  \"build\": {{");
    let _ = writeln!(
        json,
        "    \"inputs\": \"12 fF on every output, uniform 1500 ps\","
    );
    let _ = writeln!(json, "    \"totals\": [");
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
             \"pushes\": {}, \"distinct_terms\": {}, \"allocs_per_build\": {}, \
             \"log_form_bytes\": {}}}{}",
            c.name,
            c.corners,
            c.constraints,
            c.terms,
            c.pushes,
            c.distinct_terms,
            c.allocs,
            c.log_form_bytes,
            if i + 1 < cases.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("write BENCH_gp.json: {e}"));
    println!("\nwrote {out_path}");
}
