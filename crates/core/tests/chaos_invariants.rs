//! The chaos suite: deterministic fault injection against the
//! exploration flow, pinning the three tentpole invariants.
//!
//! (a) **Worker invariance** — for a fixed fault-plan seed, the
//!     exploration table is byte-identical at every worker count.
//! (b) **Taxonomy accounting** — every injected fault surfaces as
//!     exactly one classified taxonomy row (no silent loss), and every
//!     surviving candidate's row is byte-identical to its fault-free
//!     row (no wrong winners).
//! (c) **Interrupt/resume** — a sweep interrupted by a budget, whose
//!     sizing cache is saved as a snapshot and loaded into a fresh cache
//!     for the restart, is byte-identical to an uninterrupted sweep.
//!
//! Plus the satellite regressions: checksum-caught cache poisoning and
//! lint-rule panic containment.

use std::sync::Arc;
use std::time::Duration;

use smart_chaos::{FaultPlan, FaultSite};
use smart_core::{
    cache_key, explore_with_parallel, size_circuit, Candidate, DelaySpec, Exploration, FlowError,
    ParallelOptions, SizingCache, SizingOptions,
};
use smart_macros::{MacroSpec, MuxTopology};
use smart_models::{CornerSet, ModelLibrary};
use smart_sta::Boundary;

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Canonical lossless rendering of one candidate row (bit patterns for
/// every float, `Debug` for errors).
fn render_row(i: usize, c: &Candidate) -> String {
    let mut out = format!("[{i}] spec={}", c.spec);
    match &c.circuit {
        Some(circ) => out.push_str(&format!(" circuit={:016x}", circ.structural_hash())),
        None => out.push_str(" circuit=none"),
    }
    match &c.result {
        Ok(m) => {
            out.push_str(&format!(
                " ok delay={} pre={} width={} iters={} restarts={} clk={} pdyn={} pclk={} dev={} widths=",
                bits(m.outcome.measured_delay),
                bits(m.outcome.measured_precharge),
                bits(m.outcome.total_width),
                m.outcome.iterations,
                m.outcome.gp_restarts,
                bits(m.clock_load),
                bits(m.power.dynamic),
                bits(m.power.clock),
                m.devices,
            ));
            out.push_str(&format!(" binding={} corners=", m.outcome.binding_corner));
            for cd in &m.outcome.corner_delays {
                out.push_str(&format!("{}:{}:{};", cd.corner, bits(cd.data), bits(cd.precharge)));
            }
            out.push_str(" widths=");
            for w in m.outcome.sizing.as_slice() {
                out.push_str(&bits(*w));
                out.push(',');
            }
        }
        Err(e) => out.push_str(&format!(" err={e:?}")),
    }
    out
}

/// Canonical table render. Deliberately excludes cache hit/miss stats:
/// under cache-corruption faults the *attribution* of lookups can blur
/// across worker counts (documented on `Exploration::cache_hits`); the
/// candidate rows, taxonomy and winners may not.
fn render(table: &Exploration) -> String {
    let mut out = String::new();
    for (i, c) in table.candidates.iter().enumerate() {
        out.push_str(&render_row(i, c));
        out.push('\n');
    }
    out.push_str(&format!("taxonomy={:?}\n", table.failure_taxonomy()));
    out.push_str(&format!("feasible={}\n", table.feasible_count()));
    out.push_str(&format!(
        "best_width={:?} best_power={:?}\n",
        table.best_by_width().map(|c| index_of(table, c)),
        table.best_by_power().map(|c| index_of(table, c)),
    ));
    out
}

fn index_of(table: &Exploration, c: &Candidate) -> usize {
    table
        .candidates
        .iter()
        .position(|x| std::ptr::eq(x, c))
        .expect("winner comes from the table")
}

/// A healthy width-4 mux family (all pass lint, all sizeable) — the
/// candidate database every chaos sweep runs over. Chaos must be the
/// *only* source of failure rows.
fn mux_specs(n: usize) -> Vec<MacroSpec> {
    let topos: Vec<MuxTopology> = MuxTopology::all()
        .into_iter()
        .filter(|t| t.supports_width(4))
        .collect();
    (0..n)
        .map(|i| MacroSpec::Mux {
            topology: topos[i % topos.len()],
            width: 4,
        })
        .collect()
}

fn boundary_for(specs: &[MacroSpec], load: f64) -> Boundary {
    let mut b = Boundary::default();
    for spec in specs {
        for port in spec.generate().output_ports() {
            b.output_loads.insert(port.name.clone(), load);
        }
    }
    b
}

fn sweep(specs: &[MacroSpec], opts: &SizingOptions, workers: usize) -> Exploration {
    explore_with_parallel(
        specs.to_vec(),
        MacroSpec::generate,
        &ModelLibrary::reference(),
        &boundary_for(specs, 12.0),
        &DelaySpec::uniform(400.0),
        opts,
        &ParallelOptions::with_workers(workers),
    )
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("smart-chaos-test-{}-{name}.json", std::process::id()));
    p
}

/// Invariant (a): a fixed fault-plan seed gives a byte-identical table at
/// every worker count — fault decisions key on candidate identity, never
/// on scheduling.
#[test]
fn fixed_seed_chaos_is_worker_count_invariant() {
    let specs = mux_specs(8);
    let mut opts = SizingOptions::default();
    // A wall-clock budget (far away, real clock) so TimeSkew faults can
    // manifest as budget rows.
    opts.budget.wall_clock = Some(Duration::from_secs(3600));
    opts.chaos = Some(Arc::new(FaultPlan::uniform(0xC0FFEE, 0.8)));
    let reference = render(&sweep(&specs, &opts, 1));
    for workers in [2, 4] {
        let parallel = render(&sweep(&specs, &opts, workers));
        assert_eq!(
            reference, parallel,
            "chaos table at {workers} workers diverged from serial"
        );
    }
    // The plan must actually have hit something, or the invariant is
    // vacuous at this seed/rate.
    assert!(reference.contains("err="), "no faults manifested:\n{reference}");
}

/// Invariant (b): replaying the plan's pure decisions predicts the table
/// — each injected fault is exactly one row of the right taxonomy class,
/// and fault-free candidates render byte-identically to a chaos-free run.
#[test]
fn every_injected_fault_is_one_classified_row_and_survivors_are_untouched() {
    let specs = mux_specs(10);
    let mut base = SizingOptions::default();
    base.budget.wall_clock = Some(Duration::from_secs(3600));

    let clean = sweep(&specs, &base, 2);

    let plan = Arc::new(FaultPlan::uniform(0xBAD5EED, 0.9));
    let mut opts = base.clone();
    opts.chaos = Some(plan.clone());
    let chaotic = sweep(&specs, &opts, 2);

    let mut faulted = 0usize;
    for (i, (chaos_row, clean_row)) in
        chaotic.candidates.iter().zip(&clean.candidates).enumerate()
    {
        match plan.failure_fault(i as u64) {
            Some(site) => {
                faulted += 1;
                let err = chaos_row
                    .result
                    .as_ref()
                    .expect_err(&format!("candidate {i}: {} must fail", site.name()));
                assert_eq!(
                    err.taxonomy(),
                    site.taxonomy().expect("failure sites classify"),
                    "candidate {i}: {} produced the wrong row class: {err:?}",
                    site.name()
                );
            }
            None => {
                assert_eq!(
                    render_row(i, chaos_row),
                    render_row(i, clean_row),
                    "candidate {i} survived but its row changed"
                );
            }
        }
    }
    assert!(faulted >= 3, "rate 0.9 over 10 candidates hit only {faulted}");
    assert_eq!(
        chaotic.feasible_count(),
        specs.len() - faulted,
        "fault count and row count must balance — no silent loss"
    );
    // Manifestation accounting: every planned failure fault was injected
    // exactly once (healthy candidates reach every seam).
    for site in FaultSite::FAILURE_SITES {
        let planned = (0..specs.len())
            .filter(|&i| plan.failure_fault(i as u64) == Some(site))
            .count() as u64;
        assert_eq!(
            plan.injected(site),
            planned,
            "{}: planned vs manifested mismatch",
            site.name()
        );
    }
}

/// Cache-resilience faults (entry drop, checksum-caught corruption) must
/// be absorbed: the table is byte-identical to the fault-free one — no
/// taxonomy row, no steered winner.
#[test]
fn cache_faults_are_absorbed_with_byte_identical_results() {
    // Duplicated specs so the cache actually gets hits to disrupt.
    let mut specs = mux_specs(4);
    specs.extend(mux_specs(4));
    let mut clean_opts = SizingOptions::default();
    clean_opts.cache = Some(Arc::new(SizingCache::new()));
    let clean = render(&sweep(&specs, &clean_opts, 2));

    let plan = Arc::new(
        FaultPlan::new(7)
            .with_rate(FaultSite::CacheDrop, 1.0)
            .with_rate(FaultSite::CacheCorrupt, 1.0),
    );
    let cache = Arc::new(SizingCache::new());
    let mut opts = SizingOptions::default();
    opts.cache = Some(cache.clone());
    opts.chaos = Some(plan.clone());
    let chaotic = sweep(&specs, &opts, 2);

    assert_eq!(render(&chaotic), clean, "cache faults leaked into results");
    assert_eq!(chaotic.feasible_count(), specs.len());
    assert!(
        plan.injected(FaultSite::CacheDrop) + plan.injected(FaultSite::CacheCorrupt) > 0,
        "no cache fault ever manifested — vacuous test"
    );
}

/// Saves `cache` as a snapshot and loads it into a fresh cache — what a
/// killed-and-restarted process does — asserting `entries` came back.
fn restart_from_snapshot(cache: &SizingCache, name: &str, entries: usize) -> Arc<SizingCache> {
    let path = tmp_path(name);
    cache.save_snapshot(&path).expect("snapshot saves");
    let fresh = Arc::new(SizingCache::new());
    let loaded = fresh.load_snapshot(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, Some(entries), "snapshot must restore every entry");
    fresh
}

/// Invariant (c): interrupt (candidate-budget exhaustion), snapshot the
/// sizing cache, restore it into a fresh cache and re-run == one
/// uninterrupted sweep, byte for byte; the resumed run recomputes only
/// what the snapshot is missing.
#[test]
fn interrupted_sweep_resumed_from_snapshot_is_byte_identical_to_uninterrupted() {
    // Five distinct width-4 mux topologies; candidate 5 repeats
    // candidate 0's topology, so its key is candidate 0's key.
    let specs = mux_specs(6);
    for workers in [1, 4] {
        let uninterrupted = render(&sweep(&specs, &SizingOptions::default(), workers));

        // Phase 1: the budget expires after 3 candidates — the "kill".
        // Capped rows never reach the cache, so it holds candidates 0–2.
        let cache = Arc::new(SizingCache::new());
        let mut interrupted_opts = SizingOptions::default();
        interrupted_opts.cache = Some(cache.clone());
        interrupted_opts.budget.max_candidates = Some(3);
        let interrupted = sweep(&specs, &interrupted_opts, workers);
        assert_eq!(interrupted.feasible_count(), 3);
        assert!(interrupted.degradation().is_degraded());
        assert_eq!((interrupted.cache_hits, interrupted.cache_misses), (0, 3));

        // Phase 2: same sweep, budget lifted, in a "restarted process"
        // warmed from the snapshot. Candidates 0–2 and 5 hit restored
        // entries; only 3 and 4 are sized.
        let mut resumed_opts = SizingOptions::default();
        resumed_opts.cache = Some(restart_from_snapshot(&cache, "resume", 3));
        let resumed = sweep(&specs, &resumed_opts, workers);
        assert_eq!(
            (resumed.cache_hits, resumed.cache_misses),
            (4, 2),
            "exactly the snapshotted rows must be replayed ({workers} workers)"
        );
        assert_eq!(
            render(&resumed),
            uninterrupted,
            "resumed sweep diverged from the uninterrupted one ({workers} workers)"
        );

        // And a third run from the resumed run's snapshot (five distinct
        // keys) replays *everything*, still byte-identical.
        let resumed_cache = resumed_opts.cache.as_deref().expect("cache set");
        let mut again_opts = SizingOptions::default();
        again_opts.cache = Some(restart_from_snapshot(resumed_cache, "resume-again", 5));
        let again = sweep(&specs, &again_opts, workers);
        assert_eq!((again.cache_hits, again.cache_misses), (specs.len(), 0));
        assert_eq!(render(&again), uninterrupted);
    }
}

/// Satellite: a corrupted cache entry is caught by the checksum on read,
/// evicted, recomputed — and the recomputed outcome is byte-identical.
#[test]
fn poisoned_cache_entry_is_evicted_and_recomputed() {
    let spec = MacroSpec::Mux { topology: MuxTopology::StronglyMutexedPass, width: 4 };
    let circuit = spec.generate();
    let boundary = boundary_for(std::slice::from_ref(&spec), 15.0);
    let delay = DelaySpec::uniform(400.0);
    let lib = ModelLibrary::reference();
    let cache = Arc::new(SizingCache::new());
    let mut opts = SizingOptions::default();
    opts.cache = Some(cache.clone());

    let first = size_circuit(&circuit, &lib, &boundary, &delay, &opts).expect("sizes");
    let key = cache_key(&circuit, &lib, &boundary, &delay, &opts);
    assert!(cache.corrupt(&key), "entry must exist to corrupt");

    let second = size_circuit(&circuit, &lib, &boundary, &delay, &opts).expect("recomputes");
    assert_eq!(cache.poisoned(), 1, "corruption must be detected exactly once");
    assert_eq!(
        first.measured_delay.to_bits(),
        second.measured_delay.to_bits(),
        "recomputed outcome must match the original bitwise"
    );
    assert_eq!(first.sizing.as_slice(), second.sizing.as_slice());

    // The recompute re-inserted a healthy entry: third call is a hit.
    let (hits_before, _) = cache.stats();
    let third = size_circuit(&circuit, &lib, &boundary, &delay, &opts).expect("hits");
    assert_eq!(cache.stats().0, hits_before + 1);
    assert_eq!(third.total_width.to_bits(), first.total_width.to_bits());
}

/// Satellite: a panic *inside a lint rule* is contained at the candidate
/// boundary as a `FlowError::Internal` row (taxonomy "panic") — the
/// sweep keeps its one-row-per-alternative shape and healthy siblings
/// are unaffected.
#[test]
fn lint_rule_panics_are_contained_as_internal_rows() {
    let specs = mux_specs(3);
    let mut opts = SizingOptions::default();
    opts.chaos = Some(Arc::new(FaultPlan::new(3).with_rate(FaultSite::LintPanic, 1.0)));
    let table = sweep(&specs, &opts, 2);
    assert_eq!(table.candidates.len(), specs.len(), "sweep must not abort");
    for (i, c) in table.candidates.iter().enumerate() {
        match &c.result {
            Err(FlowError::Internal { panic_msg, .. }) => {
                assert!(
                    panic_msg.contains("lint-rule panic"),
                    "candidate {i}: wrong panic: {panic_msg}"
                );
            }
            other => panic!("candidate {i}: expected a contained Internal row, got {other:?}"),
        }
        assert_eq!(c.result.as_ref().unwrap_err().taxonomy(), "panic");
    }
    // With the gate off the seam never runs: no injections, clean sweep.
    let plan = Arc::new(FaultPlan::new(3).with_rate(FaultSite::LintPanic, 1.0));
    let mut off = SizingOptions::default();
    off.lint = smart_core::LintGate::Off;
    off.chaos = Some(plan.clone());
    let clean = sweep(&specs, &off, 2);
    assert_eq!(clean.feasible_count(), specs.len());
    assert_eq!(plan.injected(FaultSite::LintPanic), 0);
}

/// Cross-corner key separation: a sizing-cache entry written under one
/// `CornerSet` must never replay under another (or under the default
/// corner-less options) — a warm multi-corner entry replayed into a
/// single-corner run would ship the wrong widths with a "hit" in the
/// stats. A snapshot persists exactly these keys, so the separation
/// carries over to a resumed sweep.
#[test]
fn corner_sets_split_cache_keys() {
    let circuit = mux_specs(1)[0].generate();
    let lib = ModelLibrary::reference();
    let b = boundary_for(&mux_specs(1), 12.0);
    let spec = DelaySpec::uniform(400.0);

    let mut multi = SizingOptions::default();
    multi.corners = Some(CornerSet::slow_typical_fast(lib.process()));
    let mut slow_only = SizingOptions::default();
    slow_only.corners = Some(CornerSet::new(vec![
        CornerSet::slow_typical_fast(lib.process()).corners()[0].clone(),
    ]));
    let plain = SizingOptions::default();

    // Key-level separation, pairwise.
    let keys = [
        cache_key(&circuit, &lib, &b, &spec, &plain),
        cache_key(&circuit, &lib, &b, &spec, &multi),
        cache_key(&circuit, &lib, &b, &spec, &slow_only),
    ];
    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            assert_ne!(keys[i], keys[j], "option sets {i} and {j} alias one key");
        }
    }

    // Cache-level separation: one shared cache, three solves, zero hits.
    let cache = Arc::new(SizingCache::new());
    for opts in [&plain, &multi, &slow_only] {
        let mut o = opts.clone();
        o.cache = Some(cache.clone());
        size_circuit(&circuit, &lib, &b, &spec, &o).expect("feasible");
    }
    assert_eq!(
        cache.stats(),
        (0, 3),
        "a corner-set variant replayed another's entry"
    );
    assert_eq!(cache.len(), 3);
}

/// Invariant (c) under corners **and** chaos at once: a multi-corner
/// sweep interrupted mid-flight and resumed from its cache snapshot,
/// with cache faults firing throughout, is byte-identical to the clean
/// uninterrupted multi-corner sweep (corner tables included — `render`
/// covers them).
#[test]
fn multi_corner_interrupted_resume_is_byte_identical_under_injected_faults() {
    // Five distinct topologies: each candidate owns its cache key, so
    // whether it hits depends only on its own fault rolls, never on a
    // sibling's timing — the counts below are exact at any worker count.
    let specs = mux_specs(5);
    let corners = Some(CornerSet::slow_typical_fast(
        ModelLibrary::reference().process(),
    ));

    let mut clean_opts = SizingOptions::default();
    clean_opts.corners = corners.clone();

    for workers in [1, 4] {
        let clean = render(&sweep(&specs, &clean_opts, workers));
        // Seed 22 drops candidate 0's entry, corrupts candidate 1's and
        // leaves candidate 2's alone.
        let plan = Arc::new(
            FaultPlan::new(22)
                .with_rate(FaultSite::CacheDrop, 0.5)
                .with_rate(FaultSite::CacheCorrupt, 0.5),
        );

        // Phase 1: interrupt after 3 candidates, faults live (an empty
        // cache gives them nothing to drop or corrupt yet).
        let cache = Arc::new(SizingCache::new());
        let mut interrupted_opts = SizingOptions::default();
        interrupted_opts.corners = corners.clone();
        interrupted_opts.cache = Some(cache.clone());
        interrupted_opts.chaos = Some(plan.clone());
        interrupted_opts.budget.max_candidates = Some(3);
        let interrupted = sweep(&specs, &interrupted_opts, workers);
        assert_eq!(interrupted.feasible_count(), 3);
        assert_eq!((interrupted.cache_hits, interrupted.cache_misses), (0, 3));

        // Phase 2: restart from the snapshot, faults still live. A
        // restored row replays only if the plan neither drops its entry
        // (the lookup misses) nor corrupts it (the checksum evicts it)
        // just before the lookup; a faulted row is recomputed instead,
        // and must still render byte-identically.
        let mut resumed_opts = SizingOptions::default();
        resumed_opts.corners = corners.clone();
        resumed_opts.cache = Some(restart_from_snapshot(&cache, "corner-chaos-resume", 3));
        resumed_opts.chaos = Some(plan.clone());
        let resumed = sweep(&specs, &resumed_opts, workers);
        let faulted = |i: u64| {
            plan.fires(FaultSite::CacheDrop, i) || plan.fires(FaultSite::CacheCorrupt, i)
        };
        let replayed = (0..3).filter(|&i| !faulted(i)).count();
        assert!(
            replayed > 0 && replayed < 3,
            "seed must replay some restored rows and fault others, replayed {replayed}"
        );
        assert_eq!(
            (resumed.cache_hits, resumed.cache_misses),
            (replayed, specs.len() - replayed),
            "only the unfaulted snapshotted rows may replay ({workers} workers)"
        );
        assert_eq!(
            render(&resumed),
            clean,
            "multi-corner interrupt/resume under faults diverged ({workers} workers)"
        );
        assert!(
            plan.injected(FaultSite::CacheDrop) > 0 && plan.injected(FaultSite::CacheCorrupt) > 0,
            "both cache faults must manifest — or the test is vacuous"
        );
    }
}
