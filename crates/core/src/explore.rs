//! Topology exploration — the paper's Fig. 1 flow: elaborate every
//! database alternative for the requested function, size each under the
//! instance constraints, and compare on the cost metric, letting the tool
//! pick the best or the designer inspect the whole table (the Fig. 7
//! experiment is exactly one run of this).
//!
//! The sweep is *fault-isolated*: each candidate's elaboration and sizing
//! run inside a panic boundary, so one pathological topology (a generator
//! that panics, a GP that diverges) becomes one [`FlowError::Internal`]
//! table row instead of killing the whole exploration. Candidate-count
//! budgets ([`crate::FlowBudget::max_candidates`]) are also enforced here.
//!
//! The sweep is also *candidate-parallel*: every candidate's work is a
//! pure function of its index (same spec list, same read-only library /
//! boundary / options), so [`explore_parallel`] fans candidates across the
//! [`crate::pool`] worker pool and reassembles the table in index order —
//! byte-identical to the serial table, a property the differential test
//! suite (`tests/parallel_equivalence.rs`) enforces. The caller chooses
//! the parallelism; the library never reads it from the environment (the
//! `smart` binary, the examples and the bench bins resolve
//! `SMART_WORKERS` themselves with [`ParallelOptions::from_env`]).
//!
//! An interrupted sweep resumes through the sizing cache: run it with
//! [`SizingOptions::cache`] set, [`crate::SizingCache::save_snapshot`]
//! when it stops, and on restart [`crate::SizingCache::load_snapshot`]
//! into a fresh cache and re-run the same sweep. Every row the snapshot
//! holds comes back as an ordinary cache hit, counted by
//! [`Exploration::cache_hits`]; the table is byte-identical to an
//! uninterrupted sweep because the flow is deterministic.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use smart_chaos::FaultSite;
use smart_models::ModelLibrary;
use smart_netlist::Circuit;
use smart_power::{estimate, ActivityProfile, PowerReport};
use smart_sta::Boundary;

use smart_macros::MacroSpec;

use crate::cache::{boundary_fingerprint, CacheStats};
use crate::pool::{run_indexed, ParallelOptions};
use crate::sizing::{size_counted, SizingOutcome};
use crate::spec::LintGate;
use crate::{DelaySpec, FlowError, SizingOptions};

/// Quality metrics of one sized candidate.
#[derive(Debug)]
pub struct CandidateMetrics {
    /// The sizing outcome (widths, measured delay, iteration counts).
    pub outcome: SizingOutcome,
    /// Total gate width on clock nets — the paper's clock-load metric.
    pub clock_load: f64,
    /// Switching-power estimate.
    pub power: PowerReport,
    /// Transistor count of the topology.
    pub devices: usize,
}

/// One explored candidate: the spec, its circuit, and either metrics or
/// the failure that disqualified it (e.g. the topology cannot meet the
/// delay).
#[derive(Debug)]
pub struct Candidate {
    /// The macro spec of this alternative.
    pub spec: MacroSpec,
    /// The elaborated circuit; `None` when elaboration itself failed
    /// (panicked generator) or the candidate budget excluded it.
    pub circuit: Option<Circuit>,
    /// Sized metrics, or why sizing failed.
    pub result: Result<CandidateMetrics, FlowError>,
}

/// The full exploration table.
#[derive(Debug)]
pub struct Exploration {
    /// All candidates in database order (requested topology first).
    pub candidates: Vec<Candidate>,
    /// Sizing-cache hits attributable to this sweep (`0` without a
    /// cache): the sweep counts each of its candidates' lookups itself.
    /// Attribution is *exact* even when concurrent sweeps share one
    /// `Arc<SizingCache>` (the serve workload): each sweep counts only its
    /// own lookups, never a sibling's.
    ///
    /// [`crate::variation_sweep`] re-measures never count here: a
    /// variation sweep performs zero sizing-cache lookups by
    /// construction (it bypasses the sizer entirely), so these numbers
    /// stay comparable across runs regardless of how many Monte-Carlo
    /// samples were drawn afterwards — the cache-correctness suite pins
    /// the zero-traffic property.
    pub cache_hits: usize,
    /// Sizing-cache misses attributable to this sweep (`0` without a
    /// cache). Same exact per-sweep attribution as
    /// [`Exploration::cache_hits`].
    pub cache_misses: usize,
}

impl Exploration {
    /// The feasible candidate with the lowest total width (the default
    /// area/power proxy the paper reports). Uses a total order, so a rogue
    /// NaN metric cannot panic the comparison — it simply ranks last.
    pub fn best_by_width(&self) -> Option<&Candidate> {
        best_by(&self.candidates, |m| m.outcome.total_width)
    }

    /// The feasible candidate with the lowest total power.
    pub fn best_by_power(&self) -> Option<&Candidate> {
        best_by(&self.candidates, |m| m.power.total())
    }

    /// Number of candidates that met the constraints.
    pub fn feasible_count(&self) -> usize {
        self.candidates.iter().filter(|c| c.result.is_ok()).count()
    }

    /// Failure-taxonomy histogram of the non-feasible rows:
    /// `(tag, count)` pairs sorted by tag — the robustness report column.
    pub fn failure_taxonomy(&self) -> Vec<(&'static str, usize)> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for c in &self.candidates {
            if let Err(e) = &c.result {
                *counts.entry(e.taxonomy()).or_insert(0) += 1;
            }
        }
        counts.into_iter().collect()
    }

    /// The explicit account of how degraded this sweep was: what
    /// survived and what was lost to which failure class. A sweep that
    /// lost candidates *salvages* the survivors instead of returning
    /// nothing — this report is the honest label on that partial result.
    pub fn degradation(&self) -> DegradationReport {
        DegradationReport {
            total: self.candidates.len(),
            feasible: self.feasible_count(),
            failed: self.candidates.len() - self.feasible_count(),
            taxonomy: self.failure_taxonomy(),
        }
    }
}

/// Summary of a sweep's partial-failure state — see
/// [`Exploration::degradation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationReport {
    /// Rows in the table (one per alternative, always).
    pub total: usize,
    /// Rows that produced a sized, feasible candidate.
    pub feasible: usize,
    /// Rows disqualified by a classified failure.
    pub failed: usize,
    /// `(taxonomy tag, count)` of the failed rows, sorted by tag.
    pub taxonomy: Vec<(&'static str, usize)>,
}

impl DegradationReport {
    /// Whether the sweep degraded at all (any failed row).
    pub fn is_degraded(&self) -> bool {
        self.failed > 0
    }
}

impl std::fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} of {} candidates survived", self.feasible, self.total)?;
        if self.failed > 0 {
            write!(f, "; lost {}:", self.failed)?;
            for (tag, n) in &self.taxonomy {
                write!(f, " {tag}\u{d7}{n}")?;
            }
        }
        Ok(())
    }
}

/// Minimum over the feasible candidates on `key`, NaN-tolerant
/// (`f64::total_cmp` ranks NaN above every real value). Ties break toward
/// the lower candidate index *explicitly*: database order is a designer
/// preference (requested topology first), and the winner must not depend
/// on iterator internals — the differential harness compares winners by
/// index across worker counts.
fn best_by(candidates: &[Candidate], key: impl Fn(&CandidateMetrics) -> f64) -> Option<&Candidate> {
    candidates
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.result.as_ref().ok().map(|m| (i, c, key(m))))
        .min_by(|(ia, _, a), (ib, _, b)| a.total_cmp(b).then(ia.cmp(ib)))
        .map(|(_, c, _)| c)
}

/// Sizes one elaborated circuit and collects its metrics, recording its
/// sizing-cache lookup (if it makes one) into `lookups`.
pub(crate) fn size_and_measure(
    circuit: &Circuit,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
    lookups: Option<&CacheStats>,
) -> Result<CandidateMetrics, FlowError> {
    let outcome = size_counted(
        || circuit.structural_hash(),
        || Cow::Borrowed(circuit),
        lib,
        || boundary_fingerprint(boundary),
        || Cow::Borrowed(boundary),
        spec,
        opts,
        lookups,
    )?;
    let clock_load = circuit.clock_load(&outcome.sizing);
    let power = estimate(circuit, lib, &outcome.sizing, &ActivityProfile::default());
    Ok(CandidateMetrics {
        clock_load,
        power,
        devices: circuit.device_count(),
        outcome,
    })
}

/// The exploration lint gate: electrically illegal candidates are
/// rejected *before* any GP solve or cache lookup, so no sizing effort —
/// not even a memoization probe — is spent on them. Pure function of the
/// candidate circuit, so it cannot perturb the parallel determinism
/// contract (DESIGN.md §9).
fn lint_gate(circuit: &Circuit, alt: &MacroSpec, opts: &SizingOptions) -> Result<(), FlowError> {
    if opts.lint == LintGate::Off {
        return Ok(());
    }
    // Chaos seam: a panic *inside a lint rule*. It unwinds into the same
    // per-candidate boundary as a generator panic, so the row classifies
    // as `FlowError::Internal` and the sweep continues — the containment
    // the chaos suite pins. (With the gate off this seam never runs, so
    // the fault does not manifest and records no injection.)
    if let Some(plan) = opts.chaos.as_deref() {
        if plan.fires_here(FaultSite::LintPanic) {
            plan.record(FaultSite::LintPanic);
            smart_trace::emit("chaos/inject", &[("site", FaultSite::LintPanic.name().into())]);
            panic!("chaos: injected lint-rule panic");
        }
    }
    let report = smart_lint::lint_circuit(circuit);
    smart_trace::emit_with("lint/gate", || {
        vec![
            ("findings", report.findings.len().into()),
            ("errors", report.errors().into()),
            ("rejected", report.has_errors().into()),
        ]
    });
    if report.has_errors() {
        return Err(FlowError::Lint {
            candidate: alt.to_string(),
            errors: report.errors(),
            findings: report
                .findings
                .iter()
                .filter(|f| f.severity == smart_lint::Severity::Error)
                .map(|f| f.to_string())
                .collect(),
        });
    }
    Ok(())
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The complete, self-contained evaluation of candidate `idx`: budget
/// gates, elaboration boundary, sizing boundary.
/// Everything a row depends on is in the arguments (`lookups` is only
/// written), which is what lets the parallel sweep run candidates on any
/// worker and still match the serial table byte for byte.
#[allow(clippy::too_many_arguments)]
fn run_candidate<F>(
    idx: usize,
    sweep: u64,
    alt: &MacroSpec,
    generate: &F,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
    lookups: &CacheStats,
) -> Candidate
where
    F: Fn(&MacroSpec) -> Circuit,
{
    // The candidate scope: a stable identity `(sweep, index)` that every
    // deeper layer (sizing, cache, GP, STA) records into via the
    // thread-local context — a candidate runs wholly on one worker. The
    // scope's identity, not the worker, orders the merged trace, which is
    // what keeps the export byte-stable across `SMART_WORKERS` settings.
    let scope = opts.trace.scope("candidate", sweep, idx as u64);
    let guard = scope.enter();
    // The chaos scope mirrors it: deep seams (sizing, cache, GP retry)
    // learn the candidate identity from the thread-local, so fault
    // decisions key on the candidate — never on the worker or call order.
    let _chaos = smart_chaos::candidate_scope(idx as u64);
    if scope.is_enabled() {
        scope.begin(
            "candidate",
            &[("index", idx.into()), ("spec", alt.to_string().into())],
        );
    }
    let row = run_candidate_inner(idx, alt, generate, lib, boundary, spec, opts, lookups);
    drop(guard);
    if scope.is_enabled() {
        let fields: Vec<(&'static str, smart_trace::Value)> = match &row.result {
            Ok(m) => vec![
                ("outcome", "ok".into()),
                ("delay_ps", m.outcome.measured_delay.into()),
                ("width", m.outcome.total_width.into()),
                ("iterations", m.outcome.iterations.into()),
            ],
            Err(e) => vec![("outcome", e.taxonomy().into())],
        };
        scope.end("candidate", &fields);
    }
    row
}

/// The traced body of [`run_candidate`]: budget gates, elaboration
/// boundary, sizing boundary.
#[allow(clippy::too_many_arguments)]
fn run_candidate_inner<F>(
    idx: usize,
    alt: &MacroSpec,
    generate: &F,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
    lookups: &CacheStats,
) -> Candidate
where
    F: Fn(&MacroSpec) -> Circuit,
{
    if let Some(cap) = opts.budget.max_candidates {
        if idx >= cap {
            return Candidate {
                spec: alt.clone(),
                circuit: None,
                result: Err(FlowError::BudgetExceeded {
                    what: "candidates",
                    detail: format!("candidate {} beyond cap {cap}", idx + 1),
                }),
            };
        }
    }
    // A sweep-wide cancellation (shared token tripped before this
    // candidate started) skips elaboration entirely; the row mirrors the
    // candidate-cap row above. A token that trips *mid*-candidate is
    // caught by the flow/GP-level checks inside `size_and_measure`.
    if opts.budget.is_cancelled() {
        return Candidate {
            spec: alt.clone(),
            circuit: None,
            result: Err(FlowError::BudgetExceeded {
                what: "cancelled",
                detail: format!("sweep cancelled before candidate {}", idx + 1),
            }),
        };
    }
    // Chaos seam: spurious cancellation — this candidate alone observes a
    // tripped token that never fired. Must classify exactly like a real
    // pre-candidate cancellation (a budget row), without touching the
    // shared token (which would cancel innocent candidates).
    if let Some(plan) = opts.chaos.as_deref() {
        if plan.fires(FaultSite::SpuriousCancel, idx as u64) {
            plan.record(FaultSite::SpuriousCancel);
            smart_trace::emit("chaos/inject", &[
                ("site", FaultSite::SpuriousCancel.name().into()),
            ]);
            return Candidate {
                spec: alt.clone(),
                circuit: None,
                result: Err(FlowError::BudgetExceeded {
                    what: "cancelled",
                    detail: format!("chaos: spurious cancellation before candidate {}", idx + 1),
                }),
            };
        }
    }
    // Elaboration boundary: a panicking generator yields an error row.
    // The chaos candidate-panic seam sits inside the boundary, so an
    // injected panic exercises exactly the containment path a real
    // pathological generator would.
    let circuit = match catch_unwind(AssertUnwindSafe(|| {
        if let Some(plan) = opts.chaos.as_deref() {
            if plan.fires(FaultSite::CandidatePanic, idx as u64) {
                plan.record(FaultSite::CandidatePanic);
                smart_trace::emit("chaos/inject", &[
                    ("site", FaultSite::CandidatePanic.name().into()),
                ]);
                panic!("chaos: injected candidate panic at elaboration");
            }
        }
        generate(alt)
    })) {
        Ok(c) => c,
        Err(payload) => {
            return Candidate {
                result: Err(FlowError::Internal {
                    candidate: alt.to_string(),
                    panic_msg: panic_message(payload),
                }),
                spec: alt.clone(),
                circuit: None,
            };
        }
    };
    // Sizing boundary: a panic anywhere in lint / compaction / GP / STA /
    // power for this candidate is contained the same way. The lint gate
    // runs first, inside the boundary, so an illegal candidate is a typed
    // `FlowError::Lint` row and zero sizing work (no GP iterations, no
    // cache lookups) is spent on it.
    let result = match catch_unwind(AssertUnwindSafe(|| {
        lint_gate(&circuit, alt, opts).and_then(|()| {
            size_and_measure(&circuit, lib, boundary, spec, opts, Some(lookups))
        })
    })) {
        Ok(r) => r,
        Err(payload) => Err(FlowError::Internal {
            candidate: alt.to_string(),
            panic_msg: panic_message(payload),
        }),
    };
    Candidate {
        spec: alt.clone(),
        circuit: Some(circuit),
        result,
    }
}

/// Runs the Fig.-1 exploration: every database alternative of `request`
/// is elaborated, sized under the same instance constraints and measured,
/// fanned across `par`'s workers.
///
/// Never panics on a bad candidate and never returns early: the table
/// always has one row per alternative, failed rows carrying the typed
/// error that disqualified them. The result is byte-identical for every
/// `par` (see DESIGN.md §9 for the determinism contract).
pub fn explore_parallel(
    request: &MacroSpec,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
    par: &ParallelOptions,
) -> Exploration {
    // Requested topology first, then the alternatives.
    let mut alts = request.alternatives();
    if let Some(pos) = alts.iter().position(|s| s == request) {
        alts.swap(0, pos);
    }
    explore_with_parallel(alts, MacroSpec::generate, lib, boundary, spec, opts, par)
}

/// The exploration engine behind [`explore_parallel`], with an injectable
/// elaborator. Designer databases with custom generators (paper §3(i))
/// plug in here; tests use it to inject pathological candidates and prove
/// the sweep survives them.
///
/// Candidates fan out across the worker pool and the table is
/// reassembled in candidate-index order, byte-identical to the serial
/// sweep. The generator must be `Sync` because workers share it —
/// generators are pure spec→netlist elaborators, so this is no burden in
/// practice.
#[allow(clippy::too_many_arguments)]
pub fn explore_with_parallel<F>(
    specs: Vec<MacroSpec>,
    generate: F,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
    par: &ParallelOptions,
) -> Exploration
where
    F: Fn(&MacroSpec) -> Circuit + Sync,
{
    // Sweep ids come from the collector's serial id source, allocated
    // here — before any worker runs — so candidate scope identities are
    // unique and the merged trace is deterministic (DESIGN.md §9 extended
    // to observability).
    let sweep_id = opts.trace.next_id();
    let sweep = opts.trace.scope("sweep", sweep_id, 0);
    sweep.begin("sweep", &[("candidates", specs.len().into())]);
    // Worker count legitimately differs run to run; keep it out of the
    // byte-stable export.
    sweep.emit_unstable("sweep/pool", &[("workers", par.workers.into())]);
    // This sweep's own lookups: deltas of the cache's global counters
    // would absorb concurrent sibling sweeps' traffic.
    let lookups = CacheStats::default();
    let rows = run_indexed(specs.len(), par, |i| {
        run_candidate(i, sweep_id, &specs[i], &generate, lib, boundary, spec, opts, &lookups)
    });
    let candidates = rows
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            // Chaos seam: worker death — the row was computed but its
            // worker dies before reporting the slot, exactly what a real
            // pool-thread kill produces (a `None` slot). Recorded here, on
            // the assembling thread, so injection counters are updated
            // once regardless of worker count.
            let slot = match (slot, opts.chaos.as_deref()) {
                (Some(row), Some(plan)) if plan.fires(FaultSite::WorkerDeath, i as u64) => {
                    plan.record(FaultSite::WorkerDeath);
                    sweep.emit("chaos/inject", &[
                        ("site", FaultSite::WorkerDeath.name().into()),
                        ("index", i.into()),
                    ]);
                    drop(row);
                    None
                }
                (slot, _) => slot,
            };
            // `run_candidate` already contains every panic inside the row,
            // so an empty slot means the pool worker itself was killed —
            // keep the one-row-per-alternative invariant regardless.
            slot.unwrap_or_else(|| Candidate {
                spec: specs[i].clone(),
                circuit: None,
                result: Err(FlowError::Internal {
                    candidate: specs[i].to_string(),
                    panic_msg: "exploration worker lost".to_owned(),
                }),
            })
        })
        .collect();
    let exploration = Exploration {
        candidates,
        cache_hits: lookups.hits(),
        cache_misses: lookups.misses(),
    };
    sweep.end(
        "sweep",
        &[
            ("feasible", exploration.feasible_count().into()),
            ("cache_hits", exploration.cache_hits.into()),
            ("cache_misses", exploration.cache_misses.into()),
        ],
    );
    exploration
}
