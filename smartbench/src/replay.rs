//! The stage replay: the product path of one exploration request,
//! re-executed through the public function of each layer with an
//! `Instant` pair around every call.
//!
//! The chain mirrors `explore_parallel` → `size_and_measure` →
//! `size_circuit` of `smart-core` step for step (generate, lint gate,
//! cache probe, compaction, the Fig. 4 loop of GP build/retarget, audit,
//! Newton solve and per-corner STA, then power), so a replayed row must
//! carry the same width bits or taxonomy as the untraced row; the
//! `replay.mismatches` metric counts the rows that do not. The spans
//! live in the benchmark, around the calls into each layer, not inside
//! the program.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use smart_audit::{audit_problem, AuditConfig};
use smart_core::constraints::{boundary_extra_loads, build_sizing_gp};
use smart_core::{
    cache_key, compact, Candidate, Compaction, CornerDelay, DelaySpec, FlowError, SizingCache,
    SizingOptions, SizingOutcome,
};
use smart_gp::{GpError, GpProblem, GpSolution, SolverOptions};
use smart_macros::MacroSpec;
use smart_models::{label_vars, ModelLibrary};
use smart_netlist::{Circuit, Sizing, StableHasher};
use smart_power::{estimate, ActivityProfile};
use smart_sta::{analyze, Boundary};

use crate::inputs::ExploreOp;

/// Per-layer spans (per-call durations in seconds) and work counters.
#[derive(Debug, Default)]
pub struct Ledger {
    spans: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.spans
            .entry(layer)
            .or_default()
            .push(start.elapsed().as_secs_f64());
        out
    }

    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total seconds spent in `layer`.
    pub fn total_s(&self, layer: &str) -> f64 {
        self.spans.get(layer).map_or(0.0, |v| v.iter().sum())
    }

    pub fn calls(&self, layer: &str) -> usize {
        self.spans.get(layer).map_or(0, Vec::len)
    }

    /// Per-call durations of `layer`, in seconds.
    pub fn samples(&self, layer: &str) -> &[f64] {
        self.spans.get(layer).map_or(&[], Vec::as_slice)
    }

    /// Seconds covered by any span (spans never nest).
    pub fn covered_s(&self) -> f64 {
        self.spans.values().flatten().sum()
    }
}

/// What one sized candidate row shows: total width and a hash of every
/// label width's bits, or the failure taxonomy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sized {
    pub total_width: f64,
    pub widths: u64,
}

/// One exploration table row, reduced to what the output checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub spec: String,
    pub result: Result<Sized, &'static str>,
}

impl Row {
    pub fn of(spec: &MacroSpec, result: Result<&SizingOutcome, &FlowError>) -> Row {
        Row {
            spec: spec.to_string(),
            result: result.map(sized).map_err(FlowError::taxonomy),
        }
    }

    pub fn of_candidate(c: &Candidate) -> Row {
        Row::of(&c.spec, c.result.as_ref().map(|m| &m.outcome))
    }

    /// A failed row is one whose taxonomy is neither a sizing nor an
    /// infeasibility answer.
    pub fn failed(&self) -> bool {
        matches!(self.result, Err(t) if t != "infeasible")
    }
}

fn sized(o: &SizingOutcome) -> Sized {
    let mut h = StableHasher::new();
    for &w in o.sizing.as_slice() {
        h.write_f64_bits(w);
    }
    Sized {
        total_width: o.total_width,
        widths: h.finish(),
    }
}

/// Order-sensitive digest of a sequence of rows: spec plus width bits, or
/// taxonomy.
pub fn digest<'a>(rows: impl IntoIterator<Item = &'a Row>) -> u64 {
    let mut h = StableHasher::new();
    for r in rows {
        h.write_str(&r.spec);
        match &r.result {
            Ok(s) => {
                h.write_f64_bits(s.total_width);
                h.write_u64(s.widths);
            }
            Err(t) => h.write_str(t),
        }
    }
    h.finish()
}

/// Replays `explore_parallel(op.request, …)` at one worker: every
/// alternative, requested topology first.
pub fn explore(
    op: &ExploreOp,
    lib: &ModelLibrary,
    opts: &SizingOptions,
    cache: Option<&SizingCache>,
    ledger: &mut Ledger,
) -> Vec<Row> {
    let mut alts = op.request.alternatives();
    if let Some(pos) = alts.iter().position(|s| *s == op.request) {
        alts.swap(0, pos);
    }
    alts.iter()
        .map(|alt| {
            let result = candidate(alt, lib, &op.boundary, &op.spec, opts, cache, ledger);
            Row::of(alt, result.as_ref())
        })
        .collect()
}

/// One exploration row: elaboration, the lint gate, sizing and the power
/// estimate, each inside the panic boundary the product uses.
fn candidate(
    alt: &MacroSpec,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
    cache: Option<&SizingCache>,
    ledger: &mut Ledger,
) -> Result<SizingOutcome, FlowError> {
    let panicked = |_| FlowError::Internal {
        candidate: alt.to_string(),
        panic_msg: "replayed panic".to_owned(),
    };
    let circuit = ledger
        .time("macros", || catch_unwind(|| alt.generate()))
        .map_err(panicked)?;
    catch_unwind(AssertUnwindSafe(|| {
        let report = ledger.time("lint", || smart_lint::lint_circuit(&circuit));
        if report.has_errors() {
            ledger.count("lint.rejected", 1.0);
            return Err(FlowError::Lint {
                candidate: alt.to_string(),
                errors: report.errors(),
                findings: Vec::new(),
            });
        }
        let outcome = size(&circuit, lib, boundary, spec, opts, cache, ledger)?;
        ledger.time("power", || {
            std::hint::black_box((
                circuit.clock_load(&outcome.sizing),
                estimate(&circuit, lib, &outcome.sizing, &ActivityProfile::default()),
            ))
        });
        Ok(outcome)
    }))
    .unwrap_or_else(|e| Err(panicked(e)))
}

/// Replays `size_circuit`: the cache probe (when a cache is given), then
/// compaction and the Fig. 4 loop. Every workload spec is finite and
/// positive and the relaxation ladder is empty, so only rung 0 runs.
pub fn size(
    circuit: &Circuit,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
    cache: Option<&SizingCache>,
    ledger: &mut Ledger,
) -> Result<SizingOutcome, FlowError> {
    ledger.count("sizing.calls", 1.0);
    let Some(cache) = cache else {
        return size_uncached(circuit, lib, boundary, spec, opts, ledger);
    };
    let key = ledger.time("cache.key", || {
        cache_key(circuit, lib, boundary, spec, opts)
    });
    if let Some(hit) = ledger.time("cache.lookup", || cache.lookup(&key)) {
        ledger.count("sizing.ok", 1.0);
        return Ok(hit);
    }
    let result = size_uncached(circuit, lib, boundary, spec, opts, ledger);
    if let Ok(outcome) = &result {
        ledger.time("cache.insert", || cache.insert(key, outcome.clone()));
    }
    result
}

fn size_uncached(
    circuit: &Circuit,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
    ledger: &mut Ledger,
) -> Result<SizingOutcome, FlowError> {
    let (extra, compaction) = ledger.time("compact", || {
        let (_, vars) = label_vars(circuit);
        let extra = boundary_extra_loads(circuit, boundary);
        let compaction = compact(circuit, lib, &vars, &extra, opts);
        (extra, compaction)
    });
    let compaction = compaction?;
    ledger.count("compact.raw_paths", compaction.raw_paths as f64);
    ledger.count("compact.classes", compaction.classes.len() as f64);
    let result = fig4_loop(
        circuit,
        lib,
        boundary,
        spec,
        opts,
        &compaction,
        &extra,
        ledger,
    );
    if result.is_ok() {
        ledger.count("sizing.ok", 1.0);
    }
    result
}

/// The corners a rung must meet: the configured set, or the passed library
/// as the single "typical" corner.
fn corner_libs(lib: &ModelLibrary, opts: &SizingOptions) -> Vec<(String, ModelLibrary)> {
    match &opts.corners {
        Some(set) => set
            .corners()
            .iter()
            .map(|c| (c.name.clone(), ModelLibrary::new(c.process.clone())))
            .collect(),
        None => vec![("typical".to_owned(), lib.clone())],
    }
}

/// Rung 0 of the sizing ladder: build (then retarget) the GP, audit it,
/// solve it, verify at every corner, tighten the target by the overshoot.
#[allow(clippy::too_many_arguments)]
fn fig4_loop(
    circuit: &Circuit,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
    compaction: &Compaction,
    extra: &std::collections::HashMap<smart_netlist::NetId, f64>,
    ledger: &mut Ledger,
) -> Result<SizingOutcome, FlowError> {
    let corners = ledger.time("sta", || corner_libs(lib, opts));
    let mut working = spec.clone();
    let mut last = f64::INFINITY;
    let mut restarts = 0usize;
    let mut built: Option<smart_core::constraints::SizingGp> = None;
    let mut chain: Option<Vec<f64>> = None;
    for iter in 1..=opts.max_outer_iters {
        ledger.count("sizing.outer_iters", 1.0);
        match built.as_mut() {
            Some(b) => {
                ledger.time("gp_build", || b.retarget(&working))?;
                ledger.count("gp_build.retargets", 1.0);
            }
            None => {
                let b = ledger.time("gp_build", || {
                    build_sizing_gp(circuit, lib, compaction, boundary, extra, &working, opts)
                })?;
                ledger.count("gp_build.calls", 1.0);
                ledger.count("gp_build.constraints", b.gp.constraints().len() as f64);
                built = Some(b);
            }
        }
        let Some(gp) = built.as_ref() else {
            unreachable!("sizing GP assembled above")
        };
        let initial = chain.take().unwrap_or_else(|| {
            let w0 = (lib.process().w_min * lib.process().w_max).sqrt();
            vec![w0; gp.gp.dim()]
        });
        let audit = ledger.time("audit", || {
            audit_problem(&gp.gp, "sizing", &AuditConfig::default())
        });
        if let Some(cert) = audit.certificate {
            ledger.count("audit.certificates", 1.0);
            return Err(FlowError::InfeasibleCertificate {
                constraints: cert.labels,
                detail: cert.detail,
            });
        }
        let (sol, used) = solve_with_retries(&gp.gp, initial, opts, ledger)?;
        restarts += used;
        let sizing = Sizing::from_widths(
            (0..circuit.labels().len())
                .map(|i| sol.x[gp.vars[i].index()])
                .collect(),
        );
        chain = Some(sol.x);
        ledger.count("sta.calls", corners.len() as f64);
        let (corner_delays, data, pre, binding) = ledger.time("sta", || {
            measure_corners(circuit, &corners, &sizing, boundary, compaction)
        })?;
        last = data;
        let data_ok = data <= spec.data * (1.0 + opts.timing_tolerance);
        let pre_ok = pre <= spec.precharge_budget() * (1.0 + opts.timing_tolerance);
        if data_ok && pre_ok {
            return Ok(SizingOutcome {
                total_width: circuit.total_width(&sizing),
                sizing,
                measured_delay: data,
                measured_precharge: pre,
                iterations: iter,
                constraint_paths: compaction.classes.len(),
                raw_paths: compaction.raw_paths,
                spec_relaxation: 0.0,
                gp_restarts: restarts,
                binding_corner: corners[binding].0.clone(),
                corner_delays,
            });
        }
        if !data_ok && data > 0.0 {
            working.data *= (spec.data / data).min(0.98);
        }
        if !pre_ok && pre > 0.0 {
            let budget = working.precharge_budget();
            working.precharge = Some(budget * (spec.precharge_budget() / pre).min(0.98));
        }
    }
    Err(FlowError::NoConvergence {
        measured: last,
        spec: spec.data,
    })
}

/// The solver's numerical-failure retry ladder: restarts from a
/// deterministically jittered copy of the original anchor.
fn solve_with_retries(
    gp: &GpProblem,
    initial: Vec<f64>,
    opts: &SizingOptions,
    ledger: &mut Ledger,
) -> Result<(GpSolution, usize), FlowError> {
    let solver = |x0: Vec<f64>| SolverOptions {
        initial_x: Some(x0),
        max_total_newton: opts.budget.max_gp_iters,
        cancel: opts.budget.cancel.clone(),
        ..SolverOptions::default()
    };
    let mut current = solver(initial);
    let mut anchor: Option<Vec<f64>> = None;
    let mut attempt = 0usize;
    loop {
        let solved = ledger.time("gp", || gp.solve(&current));
        match solved {
            Ok(sol) => {
                ledger.count("gp.phase1_steps", sol.phase1_newton_steps as f64);
                ledger.count(
                    "gp.newton_steps",
                    (sol.phase1_newton_steps + sol.phase2_newton_steps) as f64,
                );
                return Ok((sol, attempt));
            }
            Err(GpError::Numerical { .. } | GpError::NonFinite { .. })
                if attempt < opts.gp_retries =>
            {
                ledger.count("gp.failed", 1.0);
                attempt += 1;
                let anchor =
                    anchor.get_or_insert_with(|| current.initial_x.clone().unwrap_or_default());
                current.initial_x = Some(perturbed_start(anchor, attempt));
            }
            Err(e) => {
                ledger.count("gp.failed", 1.0);
                return Err(match e {
                    GpError::BudgetExceeded {
                        stage,
                        budget,
                        spent_newton,
                    } => FlowError::BudgetExceeded {
                        what: budget,
                        detail: format!("GP {stage} spent {spent_newton} Newton steps"),
                    },
                    e => e.into(),
                });
            }
        }
    }
}

/// Splitmix64 step, as the sizing flow's restart jitter uses it.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The flow's restart point: each coordinate scaled by `exp(u)`,
/// `u ∈ [-0.35·attempt, 0.35·attempt]`.
fn perturbed_start(x0: &[f64], attempt: usize) -> Vec<f64> {
    let mut state = 0xA076_1D64_78BD_642Fu64 ^ (attempt as u64).wrapping_mul(0x10B7);
    let spread = 0.35 * attempt as f64;
    x0.iter()
        .map(|&w| {
            let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            w * ((u - 0.5) * 2.0 * spread).exp()
        })
        .collect()
}

/// STA at every corner against the shared path classification: per-corner
/// delays, worst data and precharge delays, and the binding corner.
fn measure_corners(
    circuit: &Circuit,
    corners: &[(String, ModelLibrary)],
    sizing: &Sizing,
    boundary: &Boundary,
    compaction: &Compaction,
) -> Result<(Vec<CornerDelay>, f64, f64, usize), FlowError> {
    let mut delays = Vec::with_capacity(corners.len());
    let (mut worst_data, mut worst_pre, mut binding) = (0.0f64, 0.0f64, 0usize);
    for (k, (name, clib)) in corners.iter().enumerate() {
        let report = analyze(circuit, clib, sizing, boundary)?;
        let (mut data, mut pre, mut reached) = (0.0f64, 0.0f64, false);
        for class in &compaction.classes {
            if let Some(a) = report.arrival(class.endpoint.net, class.endpoint.edge) {
                if class.is_precharge {
                    pre = pre.max(a.time);
                } else {
                    data = data.max(a.time);
                    reached = true;
                }
            }
        }
        if !reached {
            return Err(FlowError::NoEndpoints);
        }
        if data > worst_data {
            worst_data = data;
            binding = k;
        }
        worst_pre = worst_pre.max(pre);
        delays.push(CornerDelay {
            corner: name.clone(),
            data,
            precharge: pre,
        });
    }
    Ok((delays, worst_data, worst_pre, binding))
}
