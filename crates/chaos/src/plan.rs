//! Seeded fault plans: *which* seam fails for *which* candidate, decided
//! purely from `(seed, site, candidate)`.
//!
//! # Determinism contract
//!
//! Every decision ([`FaultPlan::fires`]) is a pure function of the plan
//! seed, the fault site and the candidate key. Nothing about call order,
//! thread scheduling, retry counts or wall time enters the hash — so a
//! parallel sweep under a fault plan makes exactly the same per-candidate
//! decisions as a serial one, and the chaos suite can *replay* a plan's
//! decisions (`failure_fault`) to compute the expected outcome table
//! without running the flow.
//!
//! # One failure per candidate
//!
//! Failure sites (everything except the cache-resilience sites) are
//! mutually exclusive per candidate: one uniform roll per candidate is
//! compared against the cumulative rate ladder, so at most one failure
//! site fires for a given candidate. That is what makes the central chaos
//! invariant checkable — *every injected failure surfaces as exactly one
//! classified taxonomy row* — without having to reason about which of two
//! stacked faults won the race to the error path. The cache-resilience
//! sites ([`FaultSite::CacheDrop`], [`FaultSite::CacheCorrupt`]) roll
//! independently because they must *not* produce a row: a dropped or
//! corrupted cache entry is recomputed, and the candidate's result is
//! byte-identical to the fault-free one.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use smart_prng::Prng;

/// An instrumented seam of the exploration flow where the plan may
/// inject a fault. The flow crates own the actual injection; this enum is
/// the shared vocabulary between the plan and the seams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// The candidate's generator panics during elaboration
    /// (→ one `panic`-taxonomy row).
    CandidatePanic,
    /// A lint rule panics inside the exploration lint gate
    /// (→ one `panic`-taxonomy row; proves `LintGate` panics are
    /// contained, not sweep aborts).
    LintPanic,
    /// Every GP solve attempt of the candidate diverges numerically,
    /// exhausting the retry ladder (→ one `numerical` row).
    GpDiverge,
    /// Every GP solve attempt of the candidate is NaN-poisoned,
    /// exhausting the retry ladder (→ one `non-finite` row).
    GpNan,
    /// Static timing reports no reachable endpoints for the candidate
    /// (→ one `no-endpoints` row).
    StaNoEndpoints,
    /// The candidate observes a spurious cancellation before it starts
    /// (→ one `budget` row).
    SpuriousCancel,
    /// The pool worker that ran the candidate dies before reporting its
    /// slot (→ one `panic` row via the worker-lost recovery path).
    WorkerDeath,
    /// Simulated time advance: the clock jumps past the candidate's
    /// wall-clock budget before any work happens (→ one `budget` row when
    /// a wall-clock budget is configured; a no-op otherwise, since
    /// without a budget a time jump changes nothing).
    TimeSkew,
    /// The candidate's sizing-cache entry vanishes before its lookup
    /// (resilience site: recompute, byte-identical result, no row).
    CacheDrop,
    /// The candidate's sizing-cache entry is corrupted before its lookup;
    /// the checksum must catch it and recompute (resilience site: no
    /// row).
    CacheCorrupt,
}

impl FaultSite {
    /// Failure sites, in the fixed ladder order used by the
    /// one-roll-per-candidate selection. The order is part of the
    /// determinism contract: changing it changes which site a given
    /// `(seed, candidate)` lands on.
    pub const FAILURE_SITES: [FaultSite; 8] = [
        FaultSite::CandidatePanic,
        FaultSite::LintPanic,
        FaultSite::GpDiverge,
        FaultSite::GpNan,
        FaultSite::StaNoEndpoints,
        FaultSite::SpuriousCancel,
        FaultSite::WorkerDeath,
        FaultSite::TimeSkew,
    ];

    /// Independent resilience sites (no taxonomy row; the flow must
    /// absorb them with byte-identical results).
    pub const RESILIENCE_SITES: [FaultSite; 2] = [FaultSite::CacheDrop, FaultSite::CacheCorrupt];

    /// Every site, failure ladder first.
    pub const ALL: [FaultSite; 10] = [
        FaultSite::CandidatePanic,
        FaultSite::LintPanic,
        FaultSite::GpDiverge,
        FaultSite::GpNan,
        FaultSite::StaNoEndpoints,
        FaultSite::SpuriousCancel,
        FaultSite::WorkerDeath,
        FaultSite::TimeSkew,
        FaultSite::CacheDrop,
        FaultSite::CacheCorrupt,
    ];

    /// Stable short name (bench histograms, trace events, reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CandidatePanic => "candidate-panic",
            FaultSite::LintPanic => "lint-panic",
            FaultSite::GpDiverge => "gp-diverge",
            FaultSite::GpNan => "gp-nan",
            FaultSite::StaNoEndpoints => "sta-no-endpoints",
            FaultSite::SpuriousCancel => "spurious-cancel",
            FaultSite::WorkerDeath => "worker-death",
            FaultSite::TimeSkew => "time-skew",
            FaultSite::CacheDrop => "cache-drop",
            FaultSite::CacheCorrupt => "cache-corrupt",
        }
    }

    /// The expected [`FlowError` taxonomy] tag of the row a failure site
    /// produces; `None` for resilience sites (no row). The chaos suite
    /// replays plans through this to compute expected outcome tables.
    ///
    /// [`FlowError` taxonomy]: FaultSite
    pub fn taxonomy(self) -> Option<&'static str> {
        match self {
            FaultSite::CandidatePanic | FaultSite::LintPanic | FaultSite::WorkerDeath => {
                Some("panic")
            }
            FaultSite::GpDiverge => Some("numerical"),
            FaultSite::GpNan => Some("non-finite"),
            FaultSite::StaNoEndpoints => Some("no-endpoints"),
            FaultSite::SpuriousCancel | FaultSite::TimeSkew => Some("budget"),
            FaultSite::CacheDrop | FaultSite::CacheCorrupt => None,
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::CandidatePanic => 0,
            FaultSite::LintPanic => 1,
            FaultSite::GpDiverge => 2,
            FaultSite::GpNan => 3,
            FaultSite::StaNoEndpoints => 4,
            FaultSite::SpuriousCancel => 5,
            FaultSite::WorkerDeath => 6,
            FaultSite::TimeSkew => 7,
            FaultSite::CacheDrop => 8,
            FaultSite::CacheCorrupt => 9,
        }
    }

    /// Per-site salt folded into the independent-roll hash so the
    /// resilience sites' decisions are uncorrelated with each other and
    /// with the failure ladder.
    fn salt(self) -> u64 {
        0x5EED_0000_0000_0000 ^ ((self.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

const SITES: usize = 10;

/// The candidate key used when a seam fires outside any candidate scope
/// (a direct `size_circuit` call, not part of a sweep).
pub const SOLO_CANDIDATE: u64 = u64::MAX;

/// A seeded, deterministic fault-injection plan.
///
/// Build one with [`FaultPlan::new`] and the `with_*` builders, hand it
/// to the flow (an `Arc` in the sizing options), and the instrumented
/// seams consult it per candidate. Decisions are pure; the atomic
/// injection counters only *observe* what manifested (a decision whose
/// seam is never reached — e.g. a GP fault on a candidate that the lint
/// gate rejected first — is not an injection).
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; SITES],
    injected: [AtomicU64; SITES],
}

impl FaultPlan {
    /// An inert plan (all rates zero) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Sets the injection rate of one site (probability in `[0, 1]` per
    /// candidate).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`, or if the failure-site rates
    /// would sum past 1 (they share a single roll, so their ladder cannot
    /// exceed unit probability).
    #[must_use]
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate must be in [0, 1], got {rate}"
        );
        self.rates[site.index()] = rate;
        let ladder: f64 = FaultSite::FAILURE_SITES
            .iter()
            .map(|s| self.rates[s.index()])
            .sum();
        assert!(
            ladder <= 1.0 + 1e-12,
            "failure-site rates sum to {ladder} > 1; they share one roll per candidate"
        );
        self
    }

    /// Every failure site at `rate / 8` (so the ladder totals `rate`) and
    /// both cache-resilience sites at `rate` — the one-knob sweep the
    /// bench fault-rate study uses.
    #[must_use]
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let mut plan = FaultPlan::new(seed);
        let per = rate / FaultSite::FAILURE_SITES.len() as f64;
        for site in FaultSite::FAILURE_SITES {
            plan = plan.with_rate(site, per);
        }
        for site in FaultSite::RESILIENCE_SITES {
            plan = plan.with_rate(site, rate);
        }
        plan
    }

    /// The plan's seed (reports, replay).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured rate of `site`.
    pub fn rate(&self, site: FaultSite) -> f64 {
        self.rates[site.index()]
    }

    /// One uniform roll in `[0, 1)` for `(salt, candidate)` under this
    /// plan's seed. Seeding a fresh PRNG per decision keeps the decision
    /// a pure function of its inputs — no shared stream to race on.
    fn roll(&self, salt: u64, candidate: u64) -> f64 {
        let mix = self.seed.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ salt.rotate_left(17)
            ^ candidate.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        Prng::new(mix).f64()
    }

    /// The single failure site (if any) this plan assigns to `candidate`
    /// — the pure replay function the chaos suite uses to predict the
    /// outcome table. At most one failure site fires per candidate; see
    /// the module docs.
    pub fn failure_fault(&self, candidate: u64) -> Option<FaultSite> {
        let r = self.roll(0x1ADD_E500_0000_0000, candidate);
        let mut cum = 0.0;
        for site in FaultSite::FAILURE_SITES {
            cum += self.rates[site.index()];
            if r < cum {
                return Some(site);
            }
        }
        None
    }

    /// Whether `site` fires for `candidate`. Failure sites answer via the
    /// exclusive ladder; resilience sites roll independently.
    pub fn fires(&self, site: FaultSite, candidate: u64) -> bool {
        if FaultSite::RESILIENCE_SITES.contains(&site) {
            self.rates[site.index()] > 0.0
                && self.roll(site.salt(), candidate) < self.rates[site.index()]
        } else {
            self.failure_fault(candidate) == Some(site)
        }
    }

    /// [`FaultPlan::fires`] keyed on the thread's current candidate scope
    /// ([`candidate_scope`]), or [`SOLO_CANDIDATE`] outside any scope.
    /// This is what the deep seams (sizing, cache) call — they never see
    /// candidate indices directly.
    pub fn fires_here(&self, site: FaultSite) -> bool {
        self.fires(site, current_candidate().unwrap_or(SOLO_CANDIDATE))
    }

    /// Records that a fault actually manifested at `site` — called by the
    /// seam at the moment of injection, so the counters report what the
    /// flow really absorbed (a retried GP fault counts once per solve
    /// attempt ladder it poisons).
    pub fn record(&self, site: FaultSite) {
        self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Manifested-injection count of one site.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// `(site name, manifested count)` for every site with a nonzero
    /// count, in [`FaultSite::ALL`] order.
    pub fn injections(&self) -> Vec<(&'static str, u64)> {
        FaultSite::ALL
            .iter()
            .filter_map(|&s| {
                let n = self.injected(s);
                (n > 0).then(|| (s.name(), n))
            })
            .collect()
    }

    /// Total manifested injections across all sites.
    pub fn total_injected(&self) -> u64 {
        FaultSite::ALL.iter().map(|&s| self.injected(s)).sum()
    }
}

thread_local! {
    static CANDIDATE: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Installs `candidate` as the thread's current chaos candidate for the
/// lifetime of the returned guard (LIFO nesting, like a trace scope). The
/// exploration runtime wraps each candidate's work in one of these so
/// seams deep in the flow can ask [`FaultPlan::fires_here`] without
/// threading indices through every signature. The guard pops on drop —
/// including during panic unwinding, so an injected candidate panic
/// cannot leak its key onto the worker's next candidate.
pub fn candidate_scope(candidate: u64) -> CandidateGuard {
    CANDIDATE.with(|stack| stack.borrow_mut().push(candidate));
    CandidateGuard { _priv: () }
}

/// The thread's current chaos candidate key, if any.
pub fn current_candidate() -> Option<u64> {
    CANDIDATE.with(|stack| stack.borrow().last().copied())
}

/// RAII guard from [`candidate_scope`].
#[derive(Debug)]
pub struct CandidateGuard {
    _priv: (),
}

impl Drop for CandidateGuard {
    fn drop(&mut self) {
        CANDIDATE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let a = FaultPlan::uniform(7, 0.5);
        let b = FaultPlan::uniform(7, 0.5);
        let c = FaultPlan::uniform(8, 0.5);
        let mut diverged = false;
        for key in 0..200u64 {
            assert_eq!(a.failure_fault(key), b.failure_fault(key));
            for site in FaultSite::ALL {
                assert_eq!(a.fires(site, key), b.fires(site, key));
            }
            diverged |= a.failure_fault(key) != c.failure_fault(key);
        }
        assert!(diverged, "different seeds should pick different faults");
    }

    #[test]
    fn at_most_one_failure_site_fires_per_candidate() {
        let plan = FaultPlan::uniform(42, 0.9);
        for key in 0..500u64 {
            let firing: Vec<FaultSite> = FaultSite::FAILURE_SITES
                .into_iter()
                .filter(|&s| plan.fires(s, key))
                .collect();
            assert!(firing.len() <= 1, "candidate {key} got {firing:?}");
            assert_eq!(firing.first().copied(), plan.failure_fault(key));
        }
    }

    #[test]
    fn rates_are_respected_in_the_large() {
        let plan = FaultPlan::new(3).with_rate(FaultSite::GpDiverge, 0.25);
        let n = 4000u64;
        let hits = (0..n)
            .filter(|&k| plan.fires(FaultSite::GpDiverge, k))
            .count();
        let frac = hits as f64 / n as f64;
        assert!(
            (0.2..0.3).contains(&frac),
            "expected ~0.25 hit rate, got {frac}"
        );
        // Inert plan never fires.
        let inert = FaultPlan::new(3);
        assert!((0..n).all(|k| inert.failure_fault(k).is_none()));
        assert!((0..n).all(|k| !inert.fires(FaultSite::CacheDrop, k)));
    }

    #[test]
    #[should_panic(expected = "sum")]
    fn over_unit_failure_ladder_is_rejected() {
        let _ = FaultPlan::new(0)
            .with_rate(FaultSite::GpDiverge, 0.6)
            .with_rate(FaultSite::GpNan, 0.6);
    }

    #[test]
    fn candidate_scope_nests_and_unwinds() {
        assert_eq!(current_candidate(), None);
        {
            let _g1 = candidate_scope(3);
            assert_eq!(current_candidate(), Some(3));
            {
                let _g2 = candidate_scope(9);
                assert_eq!(current_candidate(), Some(9));
            }
            assert_eq!(current_candidate(), Some(3));
        }
        assert_eq!(current_candidate(), None);
        let result = std::panic::catch_unwind(|| {
            let _g = candidate_scope(5);
            panic!("contained");
        });
        assert!(result.is_err());
        assert_eq!(current_candidate(), None, "guard must pop during unwind");
    }

    #[test]
    fn counters_observe_manifested_injections() {
        let plan = FaultPlan::uniform(1, 0.4);
        assert_eq!(plan.total_injected(), 0);
        plan.record(FaultSite::GpDiverge);
        plan.record(FaultSite::GpDiverge);
        plan.record(FaultSite::CacheDrop);
        assert_eq!(plan.injected(FaultSite::GpDiverge), 2);
        assert_eq!(plan.total_injected(), 3);
        assert_eq!(
            plan.injections(),
            vec![("gp-diverge", 2), ("cache-drop", 1)]
        );
    }

    #[test]
    fn taxonomy_covers_every_failure_site() {
        for site in FaultSite::FAILURE_SITES {
            assert!(
                site.taxonomy().is_some(),
                "{} needs a taxonomy",
                site.name()
            );
        }
        for site in FaultSite::RESILIENCE_SITES {
            assert!(site.taxonomy().is_none());
        }
    }
}
