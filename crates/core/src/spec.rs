//! Design constraints and flow options: "a macro instance with its local
//! constraints like delays, slopes and loads" (paper §3).
//!
//! The options read no environment: [`SizingOptions::default`] traces
//! nothing, and a binary that honours `SMART_TRACE` sets
//! [`SizingOptions::trace`] itself.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use smart_chaos::FaultPlan;
use smart_gp::CancelToken;
use smart_models::CornerSet;
use smart_netlist::Sizing;
use smart_trace::Trace;

use crate::cache::{CacheStats, SizingCache};

/// Cost metric the sizer minimizes after the timing constraints are met
/// (paper Fig. 1: "specified cost function (area, power)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CostMetric {
    /// Total transistor width (area proxy; also the paper's reporting
    /// metric in Figs. 5-6 and Table 1).
    #[default]
    Width,
    /// Activity-weighted switched capacitance (power proxy): clocked
    /// device widths count extra because clock nets toggle every cycle.
    Power,
}

/// The timing target of one macro instance.
#[derive(Debug, Clone, PartialEq)]
pub struct DelaySpec {
    /// Budget for data/evaluate paths, input to output (ps).
    pub data: f64,
    /// Budget for domino precharge paths (ps); `None` applies the data
    /// budget to precharge as well.
    pub precharge: Option<f64>,
}

impl DelaySpec {
    /// A uniform budget for all path phases.
    pub fn uniform(ps: f64) -> Self {
        DelaySpec {
            data: ps,
            precharge: None,
        }
    }

    /// The precharge budget (defaults to the data budget).
    pub fn precharge_budget(&self) -> f64 {
        self.precharge.unwrap_or(self.data)
    }

    /// This spec with every phase budget relaxed by the fraction `rel`
    /// (`0.05` ⇒ +5%). Used by the sizing flow's relaxation ladder.
    #[must_use]
    pub fn relaxed(&self, rel: f64) -> Self {
        DelaySpec {
            data: self.data * (1.0 + rel),
            precharge: self.precharge.map(|p| p * (1.0 + rel)),
        }
    }
}

/// Resource budgets for one flow invocation, threaded from
/// [`SizingOptions`] down into the GP solver's iteration loop (cooperative
/// cancellation) and across the exploration sweep. `None` everywhere —
/// the default — means unlimited, preserving historical behavior.
#[derive(Debug, Clone, Default)]
pub struct FlowBudget {
    /// Wall-clock allowance for one `size_circuit` run (spec retargeting,
    /// retries and the relaxation ladder all share it). Checked between
    /// Fig.-4 outer iterations and at every GP Newton step, so a runaway
    /// candidate times out with [`crate::FlowError::BudgetExceeded`]
    /// instead of hanging the sweep.
    pub wall_clock: Option<Duration>,
    /// Cap on total GP Newton steps per solve (phase I + phase II).
    pub max_gp_iters: Option<usize>,
    /// Cap on candidates sized by one [`crate::explore_parallel`] sweep;
    /// candidates beyond it still appear in the table, as budget-exceeded
    /// error rows.
    pub max_candidates: Option<usize>,
    /// Shared cooperative cancellation token. Unlike the per-candidate
    /// `wall_clock`, one token is held by every candidate of a sweep (and
    /// every GP Newton loop inside them), so a single
    /// [`CancelToken::cancel`] — or the token's own deadline — stops all
    /// in-flight work promptly with budget-exceeded rows. Mid-flight
    /// cancellation is inherently timing-dependent; the determinism
    /// contract of parallel exploration (DESIGN.md §9) only covers tokens
    /// that are stable for the whole sweep (never cancelled, or cancelled
    /// before it starts).
    pub cancel: Option<Arc<CancelToken>>,
}

impl FlowBudget {
    /// A budget with no limits (the default).
    pub fn unlimited() -> Self {
        FlowBudget::default()
    }

    /// Whether the shared cancellation token (if any) has fired.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }
}

impl PartialEq for FlowBudget {
    /// Tokens compare by identity (same shared token), limits by value.
    fn eq(&self, other: &Self) -> bool {
        self.wall_clock == other.wall_clock
            && self.max_gp_iters == other.max_gp_iters
            && self.max_candidates == other.max_candidates
            && match (&self.cancel, &other.cancel) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

/// How the exploration sweep applies the `smart-lint` electrical-rule
/// engine to candidates before sizing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LintGate {
    /// Candidates with `Error`-severity findings are rejected before any
    /// GP solve, as [`crate::FlowError::Lint`] rows (the default — an
    /// electrically illegal topology must not consume sizing effort or
    /// be reported as a viable alternative).
    #[default]
    Errors,
    /// No lint gating; every candidate proceeds to sizing. For ablation
    /// and for intentionally-illegal experiments.
    Off,
}

/// How the sizing flow applies the `smart-audit` pre-solve static
/// analyzer to each constructed GP before Newton starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AuditGate {
    /// Run interval bound propagation and abort with
    /// [`crate::FlowError::InfeasibleCertificate`] when the analyzer
    /// proves the GP infeasible (the default — a certified-infeasible
    /// spec must not burn Newton iterations, retry-ladder restarts, or
    /// cache slots).
    #[default]
    Certificates,
    /// Certificates plus dominance pruning: constraints proven redundant
    /// (term-wise dominated by another active constraint) are dropped
    /// from the solved system. Opt-in; the prune-parity differential
    /// suite in CI is the evidence it is safe to promote.
    Prune,
    /// No pre-solve analysis; every GP goes straight to Newton. For
    /// ablation and for measuring what the audit saves.
    Off,
}

impl AuditGate {
    /// Whether this gate runs the analyzer at all.
    pub(crate) fn enabled(self) -> bool {
        !matches!(self, AuditGate::Off)
    }
}

/// Options controlling one sizing run.
#[derive(Debug, Clone)]
pub struct SizingOptions {
    /// Cost to minimize.
    pub cost: CostMetric,
    /// Maximum Fig.-4 outer iterations (GP solve → STA → retarget).
    pub max_outer_iters: usize,
    /// Acceptable overshoot of measured vs specified delay (relative).
    pub timing_tolerance: f64,
    /// Maximum output transition time (ps) enforced on every stage
    /// (paper: slopes are "important for timing and reliability").
    pub slope_max: f64,
    /// Designer-pinned label widths by label *name* (paper §2: "the
    /// designer should be allowed to control transistor sizes of portions
    /// of the macro").
    pub pinned: HashMap<String, f64>,
    /// Enforce the dynamic-node noise rule (precharge keeps a minimum
    /// strength relative to the data pull-down).
    pub noise_constraints: bool,
    /// Opportunistic Time Borrowing (paper §5.3). `true` (the paper's
    /// formulation) times each path end-to-end across domino stage
    /// boundaries, so a fast stage donates slack to the next. `false`
    /// cuts every path at dynamic-node boundaries and gives each segment
    /// an equal share of the budget — the conventional per-stage
    /// discipline, kept for ablation.
    pub otb: bool,
    /// Optional warm start for the GP (e.g. the previous sizing when
    /// re-running after a small spec or pin change — the designer's
    /// iterate-and-tune loop of Fig. 1). Ignored if its label count does
    /// not match the circuit.
    pub warm_start: Option<Sizing>,
    /// Fanout-dominance mode. `true` (the paper's §5.2 heuristic: "We
    /// heuristically decide the dominance based on the fanout") keeps one
    /// worst-total-load representative per path shape — maximal reduction,
    /// and any optimism is caught by the Fig.-4 STA feedback loop.
    /// `false` keeps the provably sufficient Pareto set (sound without the
    /// outer loop, at a larger constraint count).
    pub heuristic_dominance: bool,
    /// Retries of a GP solve that failed *numerically* (not infeasibly):
    /// each retry perturbs the starting point deterministically to escape
    /// the bad barrier trajectory. `0` disables retries.
    pub gp_retries: usize,
    /// Delay-spec relaxation ladder walked when the spec is infeasible or
    /// the Fig.-4 loop cannot converge: each entry is a relative widening
    /// (e.g. `[0.02, 0.05, 0.10]` for +2%, +5%, +10%). The achieved rung is
    /// reported in [`crate::SizingOutcome::spec_relaxation`] so exploration
    /// can still rank "almost feasible" candidates. Empty (the default)
    /// keeps strict-spec behavior.
    pub relaxation: Vec<f64>,
    /// Resource budgets (wall clock, GP iterations, candidate count).
    pub budget: FlowBudget,
    /// Optional sizing memoization cache, shared across runs (and across
    /// the threads of a parallel sweep) via `Arc`. When set,
    /// [`crate::size_circuit`] first looks up the (structural hash,
    /// quantized spec, boundary, options) key and returns the cached
    /// [`crate::SizingOutcome`] on a hit — repeated topologies across
    /// sweep points skip the whole GP/STA loop. `None` (the default)
    /// disables memoization.
    pub cache: Option<Arc<SizingCache>>,
    /// Per-sweep cache-statistics sink: when set, every cache lookup this
    /// options value performs is also recorded here, so a sweep sharing
    /// its cache with concurrent siblings (the serve workload) still gets
    /// *exact* hit/miss attribution — deltas of the cache's global
    /// counters would absorb the siblings' traffic. The exploration
    /// engine injects a fresh sink per sweep automatically; set it
    /// directly only when attributing direct [`crate::size_circuit`]
    /// calls. Excluded from the sizing-cache fingerprint exactly like
    /// `trace`: observability must never change what the cache replays.
    pub cache_stats: Option<Arc<CacheStats>>,
    /// Lint gating of exploration candidates (default: reject on
    /// `Error`-severity findings before sizing). Applies to exploration
    /// ([`crate::explore_parallel`], [`crate::explore_with_parallel`])
    /// only; direct [`crate::size_circuit`] calls are not gated.
    pub lint: LintGate,
    /// Pre-solve static analysis of each constructed GP (`smart-audit`):
    /// infeasibility certificates by default, dominance pruning opt-in,
    /// or fully off for ablation. Excluded from the sizing-cache
    /// fingerprint exactly like `trace`: certificates only ever *abort*
    /// candidates (aborts are never cached), and pruning is
    /// feasible-set-preserving (the CI prune-parity suite pins it), so
    /// the gate must never fork the cache key space.
    pub audit: AuditGate,
    /// Structured tracing collector for the explore → size → GP → STA
    /// flow (`smart-trace`). Disabled by default — a disabled trace
    /// records nothing and costs one branch per probe. The library never
    /// reads `SMART_TRACE`; the `smart` binary does, with
    /// [`Trace::from_env`], and passes the collector in here.
    /// Excluded from the sizing-cache fingerprint: observability must
    /// never change what the cache replays.
    pub trace: Trace,
    /// Seeded deterministic fault-injection plan (`smart-chaos`). When
    /// set, every instrumented seam of the flow consults the plan for the
    /// current candidate and injects the planned fault. `None` (the
    /// default) is the production configuration: the seams cost one
    /// `Option` branch each. Excluded from the sizing-cache fingerprint:
    /// faults abort candidates, they never steer a successful outcome.
    pub chaos: Option<Arc<FaultPlan>>,
    /// Process corners the sizing must satisfy simultaneously. `None`
    /// (the default) is the historical single-corner flow: constraints
    /// and measurements use only the [`smart_models::ModelLibrary`]
    /// passed to the entry point, bit-identically to pre-corner builds.
    /// `Some(set)` emits every timing/slope constraint once per member
    /// into the same GP (shared width variables — max-over-corners) and
    /// requires the STA-verified solution to meet spec at every member;
    /// the binding corner is reported in
    /// [`crate::SizingOutcome::binding_corner`]. A singleton set whose
    /// member equals the passed library's process produces bit-identical
    /// results to `None` (the corner-parity suite pins this), but keys
    /// the sizing cache (and so its snapshots) separately — a
    /// multi-corner solve never replays a single-corner entry and vice
    /// versa.
    pub corners: Option<CornerSet>,
}

/// Resolves the effective corner list of one sizing run: the configured
/// [`SizingOptions::corners`] members, or — with `corners: None` — a
/// singleton "typical" entry holding a clone of the passed library, which
/// makes the historical single-corner flow literally a one-iteration case
/// of the corner loop (so the two code paths cannot diverge). Returns
/// `(name, library)` pairs in emission order; the first entry is the
/// primary corner.
pub(crate) fn resolve_corner_libs(
    lib: &smart_models::ModelLibrary,
    opts: &SizingOptions,
) -> Vec<(String, smart_models::ModelLibrary)> {
    match &opts.corners {
        Some(set) => set
            .corners()
            .iter()
            .map(|c| {
                (
                    c.name.clone(),
                    smart_models::ModelLibrary::new(c.process.clone()),
                )
            })
            .collect(),
        None => vec![("typical".to_owned(), lib.clone())],
    }
}

impl Default for SizingOptions {
    fn default() -> Self {
        SizingOptions {
            cost: CostMetric::Width,
            max_outer_iters: 12,
            timing_tolerance: 0.01,
            slope_max: 120.0,
            pinned: HashMap::new(),
            noise_constraints: true,
            warm_start: None,
            otb: true,
            heuristic_dominance: true,
            gp_retries: 2,
            relaxation: Vec::new(),
            budget: FlowBudget::default(),
            cache: None,
            cache_stats: None,
            lint: LintGate::default(),
            audit: AuditGate::default(),
            trace: Trace::disabled(),
            corners: None,
            chaos: None,
        }
    }
}
