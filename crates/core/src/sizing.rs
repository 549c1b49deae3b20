//! The SMART sizing loop — the paper's Fig. 4: constraint generation →
//! GP solve → netlist update → static timing verification → delay-spec
//! retargeting, iterated to convergence.
//!
//! The loop is wrapped in a *resilience ladder* so an exploration sweep
//! degrades gracefully instead of unwinding:
//!
//! * numerical GP failures are retried from a deterministically perturbed
//!   starting point ([`SizingOptions::gp_retries`]);
//! * infeasible / non-converging specs optionally walk a relaxation
//!   schedule ([`SizingOptions::relaxation`]), recording the achieved rung
//!   in [`SizingOutcome::spec_relaxation`];
//! * every stage observes the [`crate::FlowBudget`] (wall clock checked
//!   between outer iterations and cooperatively inside the GP solver).

use std::borrow::Cow;
use std::time::Instant;

use smart_chaos::FaultSite;
use smart_gp::{GpError, GpProblem, GpSolution, SolverOptions};
use smart_models::ModelLibrary;
use smart_netlist::{Circuit, Sizing};
use smart_sta::{analyze, Boundary};

use crate::cache::{boundary_fingerprint, cache_key_for, CacheStats};
use crate::compact::{compact_within, Compaction};
use crate::constraints::{
    boundary_extra_loads, build_min_delay_gp, build_sizing_gp, build_sizing_gp_within,
};
use crate::{DelaySpec, FlowError, SizingOptions};

/// One corner's STA measurement of a sized circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerDelay {
    /// Corner name (from the [`smart_models::CornerSet`] member, or
    /// `"typical"` for the historical single-corner flow).
    pub corner: String,
    /// Worst data/evaluate delay at this corner (ps).
    pub data: f64,
    /// Worst precharge completion at this corner (ps).
    pub precharge: f64,
}

/// Outcome of one sizing run. `Clone` so the memoization cache
/// ([`crate::SizingCache`]) can hand out copies of a stored outcome.
#[derive(Debug, Clone)]
pub struct SizingOutcome {
    /// The optimized widths.
    pub sizing: Sizing,
    /// STA-measured worst data/evaluate delay at the solution, maximized
    /// over the corner set (ps). Single-corner runs measure one corner,
    /// so this is exactly that corner's delay.
    pub measured_delay: f64,
    /// STA-measured worst precharge completion over the corner set (ps),
    /// for domino macros.
    pub measured_precharge: f64,
    /// Total transistor width at the solution.
    pub total_width: f64,
    /// Fig.-4 outer iterations used.
    pub iterations: usize,
    /// Constraint paths after compaction.
    pub constraint_paths: usize,
    /// Exhaustive path count before compaction (§5.2 numerator).
    pub raw_paths: u128,
    /// Relative spec relaxation that was needed (`0.0` = the requested
    /// spec was met; `0.05` = the +5% rung of the ladder succeeded). The
    /// achieved spec is `requested.relaxed(spec_relaxation)`.
    pub spec_relaxation: f64,
    /// GP solves that had to be restarted from a perturbed point after a
    /// numerical failure.
    pub gp_restarts: usize,
    /// Per-corner STA measurement of the accepted solution, in corner-set
    /// order (singleton `[("typical", ...)]` for single-corner runs).
    pub corner_delays: Vec<CornerDelay>,
    /// Name of the *binding* corner: the member whose data-phase delay is
    /// worst at the solution (ties break toward the earlier member). The
    /// corner that actually constrains the sizing.
    pub binding_corner: String,
}

/// Measures worst delays with the same models the GP used.
pub(crate) fn measure(
    circuit: &Circuit,
    lib: &ModelLibrary,
    sizing: &Sizing,
    boundary: &Boundary,
    compaction: &Compaction,
) -> Result<(f64, f64), FlowError> {
    let report = analyze(circuit, lib, sizing, boundary)?;
    let mut data = 0.0f64;
    let mut pre = 0.0f64;
    let mut data_reached = false;
    for class in &compaction.classes {
        if let Some(a) = report.arrival(class.endpoint.net, class.endpoint.edge) {
            if class.is_precharge {
                pre = pre.max(a.time);
            } else {
                data = data.max(a.time);
                data_reached = true;
            }
        }
    }
    if !data_reached {
        // No data/evaluate endpoint has an arrival: the macro is
        // unmeasurable (severed net, floating driver). Historically this
        // fell through as (0.0, 0.0), which trivially "met" any spec and
        // made the broken candidate win every delay comparison.
        return Err(FlowError::NoEndpoints);
    }
    Ok((data, pre))
}

/// Splitmix64 step — the deterministic jitter source for GP restart
/// perturbation (no external PRNG dependency; reproducible runs).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A multiplicatively jittered copy of `x0`: each coordinate is scaled by
/// `exp(u)`, `u ∈ [-0.6, 0.6]`, widening with the attempt number so
/// successive restarts explore progressively different basins. Positive in,
/// positive out — the GP only needs a positive anchor, not a feasible one.
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

/// Converts a solver budget trip into the flow-level budget error.
fn budget_flow_error(stage: &'static str, budget: &'static str, spent: usize) -> FlowError {
    FlowError::BudgetExceeded {
        what: budget,
        detail: format!("GP {stage} spent {spent} Newton steps"),
    }
}

/// Chaos seam: a GP solve poisoned by the fault plan. A firing GP fault
/// is *persistent for the candidate* — every restart of the retry ladder
/// fails the same way — so one injected fault exhausts the ladder into
/// exactly one classified row instead of being silently healed by a
/// retry (which would make the invariant "one fault ⇒ one row"
/// untestable).
fn chaos_gp_fault(opts: &SizingOptions) -> Option<GpError> {
    let plan = opts.chaos.as_deref()?;
    if plan.fires_here(FaultSite::GpDiverge) {
        plan.record(FaultSite::GpDiverge);
        smart_trace::emit("chaos/inject", &[("site", FaultSite::GpDiverge.name().into())]);
        Some(GpError::Numerical {
            stage: "chaos",
            detail: "injected Newton divergence (persists across restarts)".into(),
        })
    } else if plan.fires_here(FaultSite::GpNan) {
        plan.record(FaultSite::GpNan);
        smart_trace::emit("chaos/inject", &[("site", FaultSite::GpNan.name().into())]);
        Some(GpError::NonFinite {
            stage: "chaos",
            detail: "injected NaN poisoning (persists across restarts)".into(),
        })
    } else {
        None
    }
}

/// One GP solve under the flow budget, with the numerical-failure retry
/// ladder: `opts.gp_retries` restarts from perturbed starting points.
/// Returns the solution and the number of restarts consumed.
fn solve_with_retries(
    gp: &GpProblem,
    initial: Vec<f64>,
    opts: &SizingOptions,
    deadline: Option<Instant>,
) -> Result<(GpSolution, usize), FlowError> {
    let solver_opts = |x0: Vec<f64>| SolverOptions {
        initial_x: Some(x0),
        deadline,
        max_total_newton: opts.budget.max_gp_iters,
        cancel: opts.budget.cancel.clone(),
    };
    let injected = chaos_gp_fault(opts);
    let mut attempt = 0usize;
    // The common no-retry path takes ownership of `initial` outright; the
    // original anchor is cloned back out only if a retry actually fires.
    let mut current = solver_opts(initial);
    let mut anchor: Option<Vec<f64>> = None;
    loop {
        let solved = match &injected {
            Some(fault) => Err(fault.clone()),
            None => gp.solve(&current),
        };
        match solved {
            Ok(sol) => return Ok((sol, attempt)),
            Err(GpError::BudgetExceeded {
                stage,
                budget,
                spent_newton,
            }) => return Err(budget_flow_error(stage, budget, spent_newton)),
            Err(e @ (GpError::Numerical { .. } | GpError::NonFinite { .. }))
                if attempt < opts.gp_retries =>
            {
                // Numerical stall: re-anchor at a jittered point and try
                // again. Infeasible/unbounded outcomes are *answers*, not
                // stalls, so they propagate immediately. Every perturbation
                // is taken off the original anchor (the last good iterate
                // under warm-start chaining), with the jitter widening per
                // attempt — not off the previous failed perturbation.
                attempt += 1;
                smart_trace::emit_with("gp/retry", || {
                    vec![("attempt", attempt.into()), ("error", e.to_string().into())]
                });
                let anchor = anchor
                    .get_or_insert_with(|| current.initial_x.clone().unwrap_or_default());
                current.initial_x = Some(perturbed_start(anchor, attempt));
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Whether a failure may be answered by walking the relaxation ladder
/// (the spec was the problem, not the machinery). A static infeasibility
/// certificate is relaxable by design: the next rung re-audits the
/// retargeted GP in microseconds, so a rung whose certificate survives
/// the relaxed spec is skipped without a single Newton step or retry
/// restart — the ladder stops burning solves on structurally doomed
/// rungs.
fn relaxable(e: &FlowError) -> bool {
    matches!(
        e,
        FlowError::Gp(GpError::Infeasible { .. })
            | FlowError::NoConvergence { .. }
            | FlowError::InfeasibleCertificate { .. }
    )
}

/// Pre-solve static audit of a constructed GP ([`crate::AuditGate`]).
///
/// * `Off` — no analysis, returns `None`.
/// * `Certificates` (default) — interval bound propagation alone; a
///   proved contradiction aborts the rung as
///   [`FlowError::InfeasibleCertificate`] before any Newton work.
/// * `Prune` — certificates plus dominance pruning: returns a copy of
///   the problem with proven-redundant constraints dropped for this
///   solve (the assembled [`crate::constraints::SizingGp`] keeps its
///   full constraint list, so in-place retargeting is unaffected).
///
/// The audit report's findings are never read here, so neither gate
/// builds them ([`audit_circuit`] does).
fn run_audit(gp: &GpProblem, what: &str, opts: &SizingOptions) -> Result<Option<GpProblem>, FlowError> {
    if !opts.audit.enabled() {
        return Ok(None);
    }
    let prop = smart_audit::propagate(gp);
    smart_trace::emit_with("audit/bounds", || {
        vec![
            ("problem", what.to_owned().into()),
            ("tightened", prop.tightened.into()),
            ("rounds", prop.rounds.into()),
            (
                "bounded",
                prop.bounds.iter().filter(|b| b.is_bounded()).count().into(),
            ),
        ]
    });
    if let Some(cert) = prop.certificate {
        smart_trace::emit_with("audit/certificate", || {
            vec![
                ("problem", what.to_owned().into()),
                ("constraints", cert.labels.len().into()),
                ("detail", cert.detail.clone().into()),
            ]
        });
        return Err(FlowError::InfeasibleCertificate {
            constraints: cert.labels,
            detail: cert.detail,
        });
    }
    if opts.audit != crate::AuditGate::Prune {
        return Ok(None);
    }
    let prunable: Vec<usize> = smart_audit::find_dominated(gp).iter().map(|d| d.dropped).collect();
    if prunable.is_empty() {
        return Ok(None);
    }
    smart_trace::emit_with("audit/prune", || {
        vec![
            ("problem", what.to_owned().into()),
            ("pruned", prunable.len().into()),
            ("total", gp.constraints().len().into()),
        ]
    });
    Ok(Some(gp.without_constraints(&prunable)))
}

/// Sizes `circuit` to meet `spec` under `boundary`, minimizing the
/// configured cost — the full Fig.-4 loop plus the resilience ladder.
///
/// # Errors
///
/// * [`FlowError::Gp`] — the spec is unachievable (infeasible) at every
///   relaxation rung, or the solver failed beyond the retry budget.
/// * [`FlowError::NoConvergence`] — STA kept disagreeing with the
///   constraint view beyond the outer iteration budget at every rung.
/// * [`FlowError::BudgetExceeded`] — the flow budget expired mid-run.
/// * Propagates compaction and STA errors.
pub fn size_circuit(
    circuit: &Circuit,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
) -> Result<SizingOutcome, FlowError> {
    size_lazily(
        || circuit.structural_hash(),
        || Cow::Borrowed(circuit),
        lib,
        || boundary_fingerprint(boundary),
        || Cow::Borrowed(boundary),
        spec,
        opts,
    )
}

/// [`size_circuit`] for a caller that can name the circuit's
/// [`Circuit::structural_hash`] and the boundary's fingerprint without
/// building either (a daemon memoising one hash and the sorted output
/// names per macro spec): `structure` and `boundary_key` run only when
/// [`SizingOptions::cache`] is set, and `elaborate` and `boundary` only
/// when the cache cannot answer, so a hit builds neither the netlist nor
/// the boundary. `structure` must return `elaborate()`'s structural hash
/// and `boundary_key` the fingerprint [`crate::cache_key`] takes of
/// `boundary()` (see [`crate::output_loads_fingerprint`]), or the cache
/// replays another sizing's outcome.
///
/// # Errors
///
/// As [`size_circuit`].
pub fn size_lazily<'c, 'b>(
    structure: impl FnOnce() -> u64,
    elaborate: impl FnOnce() -> Cow<'c, Circuit>,
    lib: &ModelLibrary,
    boundary_key: impl FnOnce() -> u64,
    boundary: impl FnOnce() -> Cow<'b, Boundary>,
    spec: &DelaySpec,
    opts: &SizingOptions,
) -> Result<SizingOutcome, FlowError> {
    size_counted(structure, elaborate, lib, boundary_key, boundary, spec, opts, None)
}

/// [`size_lazily`], recording its sizing-cache lookup (if it makes one)
/// into `lookups`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn size_counted<'c, 'b>(
    structure: impl FnOnce() -> u64,
    elaborate: impl FnOnce() -> Cow<'c, Circuit>,
    lib: &ModelLibrary,
    boundary_key: impl FnOnce() -> u64,
    boundary: impl FnOnce() -> Cow<'b, Boundary>,
    spec: &DelaySpec,
    opts: &SizingOptions,
    lookups: Option<&CacheStats>,
) -> Result<SizingOutcome, FlowError> {
    let deadline = opts.budget.wall_clock.and_then(|d| Instant::now().checked_add(d));
    validate_spec(spec)?;
    check_cancelled(opts, "sizing entry")?;
    chaos_time_skew(opts)?;

    // Memoization: identical (structure, corner, spec, boundary, options)
    // inputs produce identical outcomes — the flow is deterministic — so a
    // hit replays the stored result without touching GP or STA. Only
    // successful outcomes are cached (failures can be budget-dependent).
    let memo = opts.cache.as_ref().map(|cache| {
        let key = cache_key_for(structure(), lib, boundary_key(), spec, opts);
        (cache, key)
    });
    if let Some((cache, key)) = &memo {
        // Chaos resilience seams: the plan may vaporize or corrupt this
        // candidate's cache entry just before the lookup. Both must be
        // absorbed — a drop misses and recomputes, a corruption is caught
        // by the checksum, evicted and recomputed — leaving the outcome
        // byte-identical to the fault-free run (no taxonomy row).
        if let Some(plan) = opts.chaos.as_deref() {
            if plan.fires_here(FaultSite::CacheDrop) && cache.remove(key) {
                plan.record(FaultSite::CacheDrop);
                smart_trace::emit("chaos/inject", &[("site", FaultSite::CacheDrop.name().into())]);
            }
            if plan.fires_here(FaultSite::CacheCorrupt) && cache.corrupt(key) {
                plan.record(FaultSite::CacheCorrupt);
                smart_trace::emit("chaos/inject", &[
                    ("site", FaultSite::CacheCorrupt.name().into()),
                ]);
            }
        }
        let found = cache.lookup(key);
        if let Some(lookups) = lookups {
            lookups.record(found.is_some());
        }
        if let Some(outcome) = found {
            return Ok(outcome);
        }
    }

    let circuit = elaborate();
    let circuit = circuit.as_ref();
    let boundary = boundary();
    let boundary = boundary.as_ref();
    let prepared = prepare(circuit, lib, boundary, opts, deadline)?;

    let mut last_err = None;
    // Warm-start chain in GP variable space: each rung inherits the last
    // iterate of the failed rung below it, so the ladder refines one
    // trajectory instead of re-solving from mid-range at every rung.
    let mut chain: Option<Vec<f64>> = None;
    for &rel in [0.0].iter().chain(opts.relaxation.iter()) {
        let target = spec.relaxed(rel);
        smart_trace::begin("size/rung", &[("relaxation", rel.into())]);
        match size_to_spec(
            circuit, lib, boundary, &target, opts, &prepared, deadline, &mut chain,
        ) {
            Ok(mut outcome) => {
                smart_trace::end("size/rung", &[("outcome", "ok".into())]);
                outcome.spec_relaxation = rel;
                if let Some((cache, key)) = &memo {
                    cache.insert(*key, outcome.clone());
                }
                return Ok(outcome);
            }
            Err(e) if relaxable(&e) => {
                smart_trace::end("size/rung", &[("outcome", e.taxonomy().into())]);
                last_err = Some(e);
            }
            Err(e) => {
                smart_trace::end("size/rung", &[("outcome", e.taxonomy().into())]);
                return Err(e);
            }
        }
    }
    // The rung-0 attempt always ran, so an error is recorded.
    Err(last_err.unwrap_or(FlowError::NoEndpoints))
}

/// Chaos seam: simulated time advance. When the plan fires this site and
/// a wall-clock budget is configured, the candidate behaves as if the
/// clock jumped past its whole budget before any work happened — an
/// immediate budget row. Without a wall-clock budget a time jump changes
/// nothing, so the seam is a no-op (and records no injection).
fn chaos_time_skew(opts: &SizingOptions) -> Result<(), FlowError> {
    if let (Some(plan), Some(_)) = (opts.chaos.as_deref(), opts.budget.wall_clock) {
        if plan.fires_here(FaultSite::TimeSkew) {
            plan.record(FaultSite::TimeSkew);
            smart_trace::emit("chaos/inject", &[("site", FaultSite::TimeSkew.name().into())]);
            return Err(FlowError::BudgetExceeded {
                what: "wall-clock",
                detail: "chaos: simulated time advance expired the budget at sizing entry".into(),
            });
        }
    }
    Ok(())
}

/// STA measurement at every corner of the resolved set: returns the
/// per-corner delays plus the worst data delay, worst precharge and the
/// binding corner's index (worst data; ties break toward the earlier
/// member). Each corner is measured with its own library against the
/// shared, corner-invariant path classification; the `size/corner` trace
/// event records each measurement.
fn measure_corners(
    circuit: &Circuit,
    corner_libs: &[(String, ModelLibrary)],
    sizing: &Sizing,
    boundary: &Boundary,
    compaction: &Compaction,
    opts: &SizingOptions,
) -> Result<(Vec<CornerDelay>, f64, f64, usize), FlowError> {
    let mut delays = Vec::with_capacity(corner_libs.len());
    let mut worst_data = 0.0f64;
    let mut worst_pre = 0.0f64;
    let mut binding = 0usize;
    for (k, (cname, clib)) in corner_libs.iter().enumerate() {
        let (d, p) = chaos_measure(circuit, clib, sizing, boundary, compaction, opts)?;
        if d > worst_data {
            worst_data = d;
            binding = k;
        }
        worst_pre = worst_pre.max(p);
        smart_trace::emit_with("size/corner", || {
            vec![
                ("corner", cname.clone().into()),
                ("data_ps", d.into()),
                ("precharge_ps", p.into()),
            ]
        });
        delays.push(CornerDelay {
            corner: cname.clone(),
            data: d,
            precharge: p,
        });
    }
    Ok((delays, worst_data, worst_pre, binding))
}

/// Chaos seam: timing measurement with an injectable `NoEndpoints`. The
/// flow's own [`measure`] raises the same error for genuinely
/// unmeasurable macros; the injection proves the sweep classifies it
/// identically when it appears out of nowhere on a healthy candidate.
fn chaos_measure(
    circuit: &Circuit,
    lib: &ModelLibrary,
    sizing: &Sizing,
    boundary: &Boundary,
    compaction: &Compaction,
    opts: &SizingOptions,
) -> Result<(f64, f64), FlowError> {
    if let Some(plan) = opts.chaos.as_deref() {
        if plan.fires_here(FaultSite::StaNoEndpoints) {
            plan.record(FaultSite::StaNoEndpoints);
            smart_trace::emit("chaos/inject", &[
                ("site", FaultSite::StaNoEndpoints.name().into()),
            ]);
            return Err(FlowError::NoEndpoints);
        }
    }
    measure(circuit, lib, sizing, boundary, compaction)
}

/// Cooperative budget check inside a flow stage (`at` names it): the
/// wall-clock `deadline`, then the cancellation token.
pub(crate) fn check_budget(
    opts: &SizingOptions,
    deadline: Option<Instant>,
    at: &str,
) -> Result<(), FlowError> {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(FlowError::BudgetExceeded {
            what: "wall-clock",
            detail: format!("deadline passed during {at}"),
        });
    }
    check_cancelled(opts, at)
}

/// Cooperative cancellation check at flow-level checkpoints (the GP's
/// Newton loop has its own per-step check via [`SolverOptions::cancel`]).
pub(crate) fn check_cancelled(opts: &SizingOptions, at: &str) -> Result<(), FlowError> {
    if opts.budget.is_cancelled() {
        return Err(FlowError::BudgetExceeded {
            what: "cancelled",
            detail: format!("cancellation token fired at {at}"),
        });
    }
    Ok(())
}

/// The delay spec enters the GP as constraint coefficients, so a
/// non-finite or non-positive budget would poison every timing row —
/// reject it at flow entry instead: NaN/inf as `non-finite`, a finite
/// budget ≤ 0 as an invalid `spec` request.
fn validate_spec(spec: &DelaySpec) -> Result<(), FlowError> {
    let mut phases = vec![("data", spec.data)];
    if let Some(p) = spec.precharge {
        phases.push(("precharge", p));
    }
    for (phase, t) in phases {
        if !t.is_finite() {
            return Err(FlowError::Gp(smart_gp::GpError::NonFinite {
                stage: "spec",
                detail: format!("{phase} delay budget is {t}; need finite > 0"),
            }));
        }
        if t <= 0.0 {
            return Err(FlowError::InvalidRequest {
                what: "spec",
                detail: format!("{phase} delay budget is {t} ps; need > 0"),
            });
        }
    }
    Ok(())
}

/// Shared per-circuit preparation: boundary loads + path compaction.
struct Prepared {
    extra: std::collections::HashMap<smart_netlist::NetId, f64>,
    compaction: Compaction,
}

fn prepare(
    circuit: &Circuit,
    lib: &ModelLibrary,
    boundary: &Boundary,
    opts: &SizingOptions,
    deadline: Option<Instant>,
) -> Result<Prepared, FlowError> {
    // Reject non-finite boundary conditions here, before they can reach
    // the posynomial layer (where a NaN coefficient is a constructor
    // panic, not a typed error). A negative load is refused too: the GP
    // can only drop it (capacitance terms are positive) while STA would
    // time with it, and the two must agree on the circuit they verify.
    for (name, &load) in &boundary.output_loads {
        if !load.is_finite() {
            return Err(FlowError::Sta(smart_sta::StaError::NonFiniteBoundary {
                name: name.clone(),
                value: load,
            }));
        }
        if load < 0.0 {
            return Err(FlowError::InvalidRequest {
                what: "boundary",
                detail: format!("output load on {name} is {load} fF; need >= 0"),
            });
        }
    }
    for (name, &(t, s)) in &boundary.input_times {
        if !(t.is_finite() && s.is_finite()) {
            return Err(FlowError::Sta(smart_sta::StaError::NonFiniteBoundary {
                name: name.clone(),
                value: if t.is_finite() { s } else { t },
            }));
        }
    }
    let (_, vars) = smart_models::label_vars(circuit);
    let extra = boundary_extra_loads(circuit, boundary);
    let compaction = compact_within(circuit, lib, &vars, &extra, opts, deadline)?;
    smart_trace::emit_with("size/compact", || {
        vec![
            ("classes", compaction.classes.len().into()),
            (
                "raw_paths",
                u64::try_from(compaction.raw_paths).unwrap_or(u64::MAX).into(),
            ),
        ]
    });
    Ok(Prepared { extra, compaction })
}

/// One rung of the ladder: the classic Fig.-4 loop against a fixed target.
///
/// `chain` carries the warm-start iterate in GP variable space: outer
/// iteration k+1 starts from iteration k's solution instead of mid-range
/// widths, and the last iterate survives a failed rung so the next rung
/// of the relaxation ladder inherits it. It is an out-parameter (not a
/// return) precisely so the error path hands the iterate up the ladder.
#[allow(clippy::too_many_arguments)]
fn size_to_spec(
    circuit: &Circuit,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
    prepared: &Prepared,
    deadline: Option<Instant>,
    chain: &mut Option<Vec<f64>>,
) -> Result<SizingOutcome, FlowError> {
    let compaction = &prepared.compaction;
    let extra = &prepared.extra;
    // The corners this rung must satisfy; `None` resolves to a singleton
    // clone of `lib`, making the single-corner flow a one-iteration case
    // of every corner loop below.
    let corner_libs = crate::spec::resolve_corner_libs(lib, opts);
    let mut working_spec = spec.clone();
    let mut last = (f64::INFINITY, f64::INFINITY);
    let mut restarts = 0usize;
    let mut gp_state: Option<crate::constraints::SizingGp> = None;
    for iter in 1..=opts.max_outer_iters {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Err(FlowError::BudgetExceeded {
                    what: "wall-clock",
                    detail: format!("sizing loop reached outer iteration {iter}"),
                });
            }
        }
        check_cancelled(opts, "outer iteration")?;
        // Assemble the GP once per rung; retargeting only rescales the
        // timing-constraint budgets, and `SizingGp::retarget` reproduces
        // bit for bit what a rebuild at `working_spec` would assemble, so
        // later iterations skip the (expensive) model re-evaluation.
        if let Some(b) = gp_state.as_mut() {
            b.retarget(&working_spec)?;
        } else {
            gp_state = Some(build_sizing_gp_within(
                circuit,
                lib,
                compaction,
                boundary,
                extra,
                &working_spec,
                opts,
                deadline,
            )?);
        }
        let Some(built) = gp_state.as_ref() else {
            unreachable!("sizing GP assembled above")
        };
        // Warm start, in priority order: the chained iterate from the
        // previous outer iteration or relaxation rung (already in GP
        // variable space), else the caller's previous sizing mapped
        // through `built.vars` (the designer's re-run loop), else
        // mid-range widths — each keeps phase I anchored inside the size
        // box on large macros.
        let initial = chain.take().unwrap_or_else(|| {
            let w0 = (lib.process().w_min * lib.process().w_max).sqrt();
            let mut x0 = vec![w0; built.gp.dim()];
            match &opts.warm_start {
                Some(prev) if prev.len() == circuit.labels().len() => {
                    for (i, &w) in prev.as_slice().iter().enumerate() {
                        x0[built.vars[i].index()] = w;
                    }
                    smart_trace::emit_with("size/warm-start", || {
                        vec![("source", "caller".into()), ("used", true.into())]
                    });
                }
                Some(prev) => {
                    // A mismatched warm start is ignored, but loudly: the
                    // caller handed widths for a different labelling.
                    let (got, want) = (prev.len(), circuit.labels().len());
                    smart_trace::emit_with("size/warm-start", || {
                        vec![
                            ("source", "caller".into()),
                            ("used", false.into()),
                            (
                                "reason",
                                format!("{got} widths for {want} labels").into(),
                            ),
                        ]
                    });
                }
                None => {}
            }
            x0
        });
        // Static audit of the (re)targeted GP before Newton: certified
        // infeasibility aborts the rung here — no solve, no retry burn —
        // and under `AuditGate::Prune` the solver sees the reduced system
        // while `gp_state` keeps the full one for in-place retargeting.
        let pruned = run_audit(&built.gp, "sizing", opts)?;
        let (sol, used) =
            solve_with_retries(pruned.as_ref().unwrap_or(&built.gp), initial, opts, deadline)?;
        restarts += used;
        let sizing = Sizing::from_widths(
            (0..circuit.labels().len())
                .map(|i| sol.x[built.vars[i].index()])
                .collect(),
        );
        // Chain this solution: the next outer iteration (or the next
        // relaxation rung, if this one fails) starts from it.
        *chain = Some(sol.x);
        // Verify at every corner; feasibility requires every member
        // within tolerance, and the retarget below is driven by the worst
        // overshoot over the set (the binding corner).
        let (corner_delays, data, pre, binding) =
            measure_corners(circuit, &corner_libs, &sizing, boundary, compaction, opts)?;
        last = (data, pre);
        smart_trace::emit("size/iteration", &[
            ("iter", iter.into()),
            ("data_ps", data.into()),
            ("precharge_ps", pre.into()),
            ("restarts", used.into()),
        ]);
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
                binding_corner: corner_libs[binding].0.clone(),
                corner_delays,
            });
        }
        // Retarget: shrink the constraint budgets by the measured
        // overshoot ("new delay specification" box of Fig. 4). `data` /
        // `pre` are worst-over-corners, so the shared budget tightens by
        // the binding corner's overshoot and every corner's constraints
        // (which divide the same budget) tighten with it.
        if !data_ok && data > 0.0 {
            working_spec.data *= (spec.data / data).min(0.98);
        }
        if !pre_ok && pre > 0.0 {
            let budget = working_spec.precharge_budget();
            working_spec.precharge = Some(budget * (spec.precharge_budget() / pre).min(0.98));
        }
    }
    Err(FlowError::NoConvergence {
        measured: last.0,
        spec: spec.data,
    })
}

/// Finds the fastest achievable delay of a topology (minimum-`T` GP) and
/// the sizing that achieves it. The returned delay is STA-verified.
///
/// # Errors
///
/// Propagates GP/STA/compaction errors and budget expiry.
pub fn minimize_delay(
    circuit: &Circuit,
    lib: &ModelLibrary,
    boundary: &Boundary,
    opts: &SizingOptions,
) -> Result<(f64, SizingOutcome), FlowError> {
    let deadline = opts.budget.wall_clock.and_then(|d| Instant::now().checked_add(d));
    let prepared = prepare(circuit, lib, boundary, opts, deadline)?;
    let compaction = &prepared.compaction;
    let (built, t_var) =
        build_min_delay_gp(circuit, lib, compaction, boundary, &prepared.extra, opts)?;
    // Warm start: mid-range widths with the delay variable at its upper
    // bound — strictly feasible, so phase I exits immediately instead of
    // climbing from T = 1 through a wall of violated path constraints.
    let w0 = (lib.process().w_min * lib.process().w_max).sqrt();
    let mut x0 = vec![w0; built.gp.dim()];
    x0[t_var.index()] = 1e6;
    let pruned = run_audit(&built.gp, "min-delay", opts)?;
    let (sol, restarts) =
        solve_with_retries(pruned.as_ref().unwrap_or(&built.gp), x0, opts, deadline)?;
    let sizing = Sizing::from_widths(
        (0..circuit.labels().len())
            .map(|i| sol.x[built.vars[i].index()])
            .collect(),
    );
    let t_star = sol.x[t_var.index()];
    let corner_libs = crate::spec::resolve_corner_libs(lib, opts);
    let (corner_delays, data, pre, binding) =
        measure_corners(circuit, &corner_libs, &sizing, boundary, compaction, opts)?;
    Ok((
        t_star,
        SizingOutcome {
            total_width: circuit.total_width(&sizing),
            sizing,
            measured_delay: data,
            measured_precharge: pre,
            iterations: 1,
            constraint_paths: compaction.classes.len(),
            raw_paths: compaction.raw_paths,
            spec_relaxation: 0.0,
            gp_restarts: restarts,
            binding_corner: corner_libs[binding].0.clone(),
            corner_delays,
        },
    ))
}

/// Builds the sizing GP for `circuit` exactly as [`size_circuit`] would
/// at the requested spec and runs the full `smart-audit` static analysis
/// over it — without solving anything. `name` titles the report
/// (typically the macro's display form). This is the entry behind the
/// CLI `audit` subcommand and `examples/audit.rs`: same constraint
/// assembly, same analyses, no Newton work.
///
/// # Errors
///
/// Propagates spec validation, compaction, and constraint-assembly
/// errors; an infeasibility certificate is *not* an error here (it is
/// the audit's finding, returned in the outcome).
pub fn audit_circuit(
    circuit: &Circuit,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
    name: &str,
) -> Result<smart_audit::AuditOutcome, FlowError> {
    validate_spec(spec)?;
    let prepared = prepare(circuit, lib, boundary, opts, None)?;
    let built = build_sizing_gp(
        circuit,
        lib,
        &prepared.compaction,
        boundary,
        &prepared.extra,
        spec,
        opts,
    )?;
    Ok(smart_audit::audit_problem(
        &built.gp,
        name,
        &smart_audit::AuditConfig::default(),
    ))
}

/// Measures the worst evaluate/data delay and the worst precharge-path
/// completion of a sized circuit, using the same path classification the
/// constraint generator uses (a precharge path is one containing a
/// precharge arc, timed end-to-end through any static reset logic after
/// the dynamic node).
///
/// # Errors
///
/// Propagates compaction/STA errors.
pub fn measure_phase_delays(
    circuit: &Circuit,
    lib: &ModelLibrary,
    sizing: &Sizing,
    boundary: &Boundary,
    opts: &SizingOptions,
) -> Result<(f64, f64), FlowError> {
    let prepared = prepare(circuit, lib, boundary, opts, None)?;
    measure(circuit, lib, sizing, boundary, &prepared.compaction)
}

/// Convenience: runs compaction alone and reports the §5.2 statistics.
///
/// # Errors
///
/// Propagates compaction errors.
pub fn compaction_stats(
    circuit: &Circuit,
    lib: &ModelLibrary,
    boundary: &Boundary,
    opts: &SizingOptions,
) -> Result<Compaction, FlowError> {
    let prepared = prepare(circuit, lib, boundary, opts, None)?;
    Ok(prepared.compaction)
}
