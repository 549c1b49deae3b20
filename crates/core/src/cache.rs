//! Sizing memoization — reuse of GP solutions across sweep points.
//!
//! Multi-macro sweeps (the Table-2-style comparisons) size the *same
//! topology* many times: every sweep point re-explores the full
//! alternative set, and most candidates recur with identical instance
//! conditions. The cache keys a completed [`SizingOutcome`] on everything
//! that determines it —
//!
//! * the netlist's [`Circuit::structural_hash`] (devices, connectivity,
//!   labels, wire caps, ports),
//! * the process corner ([`smart_models::Process::fingerprint`] of the
//!   [`ModelLibrary`] — every model coefficient, so a cache shared across
//!   sweeps at different corners can never replay the wrong corner's
//!   solution),
//! * the delay spec's exact bits (a spec one ulp away is another key, so
//!   a hit always replays the sizing of the very spec it was computed
//!   for),
//! * the boundary conditions (exact bit patterns, sorted by port name),
//! * a fingerprint of every [`SizingOptions`] knob that can change the
//!   solution (cost metric, iteration caps, tolerances, pins, OTB,
//!   dominance mode, relaxation ladder, warm start) — deliberately
//!   *excluding* the resource budget, which can only abort a solve, never
//!   steer a successful one.
//!
//! Only successful outcomes are stored: failures may be budget- or
//! timing-dependent and must be re-derived. Because the whole flow is
//! deterministic, a hit is byte-identical to the cold solve it replaces,
//! so a warm and a cold process reply with the same bytes. The
//! cache-correctness test suite asserts the bitwise replay.
//!
//! # Multi-client ownership
//!
//! The cache is built for *cross-request* sharing (the `smart-serve`
//! workload): the map is split into N shards keyed by a stable hash of the
//! [`CacheKey`], each behind its own lock, so concurrent sweeps contend
//! per shard rather than on one global mutex. [`SizingCache::bounded`]
//! adds an entry budget with least-recently-used eviction (per-shard
//! recency stamps), and [`SizingCache::snapshot`] / [`SizingCache::restore`]
//! persist the entries byte-stably (floats as bit patterns, entries
//! sorted by key) so a warm restart replays exactly the outcomes the
//! previous process computed. A snapshot carries the
//! [`FLOW_EPOCH`](crate::FLOW_EPOCH) it was written under and restores
//! as "no snapshot" under any other, with the reason kept for
//! [`SizingCache::restore_rejected`]. The same snapshot is how an interrupted
//! exploration sweep resumes: restore it and re-run the sweep, and the
//! rows it holds come back as cache hits. The cache's own hit/miss
//! counters are process-lifetime aggregates over *all* clients; an
//! exploration sweep counts its own lookups
//! ([`Exploration::cache_hits`](crate::Exploration::cache_hits)).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use smart_models::ModelLibrary;
use smart_netlist::{Circuit, StableHasher};
use smart_sta::Boundary;
use smart_trace::json::Json;

use crate::sizing::SizingOutcome;
use crate::{CostMetric, DelaySpec, SizingOptions};

/// Cache key: every input that determines a sizing outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`Circuit::structural_hash`] of the candidate netlist.
    pub structure: u64,
    /// [`smart_models::Process::fingerprint`] of the model library's
    /// process corner: every delay/slope/power coefficient feeds the GP
    /// and STA, so corners must never share entries.
    pub process: u64,
    /// Bits of the data-phase budget.
    pub spec_data: u64,
    /// Bits of the precharge budget (`u64::MAX`, a NaN pattern no
    /// validated spec has, = unset).
    pub spec_precharge: u64,
    /// Fingerprint of the boundary conditions.
    pub boundary: u64,
    /// Fingerprint of the outcome-relevant sizing options.
    pub options: u64,
}

pub(crate) fn boundary_fingerprint(boundary: &Boundary) -> u64 {
    // HashMap iteration order is per-instance; sort by name so equal
    // boundaries built in different orders fingerprint equally.
    let mut loads: Vec<(&str, f64)> = boundary
        .output_loads
        .iter()
        .map(|(k, &v)| (k.as_str(), v))
        .collect();
    loads.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut times: Vec<(&str, (f64, f64))> = boundary
        .input_times
        .iter()
        .map(|(k, &v)| (k.as_str(), v))
        .collect();
    times.sort_unstable_by(|a, b| a.0.cmp(b.0));
    hash_boundary(loads.into_iter(), &times, boundary.default_slope)
}

/// The boundary fingerprint of a [`CacheKey`] for a boundary that puts
/// `load` on each of `sorted_names` and sets nothing else (no input
/// times, no default slope): the bits [`cache_key`] derives from that
/// boundary, without building it. `sorted_names` must be strictly
/// ascending, as a boundary's distinct output names sort; names in any
/// other order key no boundary [`cache_key`] produces, so they only miss.
pub fn output_loads_fingerprint(sorted_names: &[impl AsRef<str>], load: f64) -> u64 {
    debug_assert!(sorted_names.windows(2).all(|w| w[0].as_ref() < w[1].as_ref()));
    hash_boundary(sorted_names.iter().map(|n| (n.as_ref(), load)), &[], None)
}

/// The byte stream both boundary fingerprints hash: the name-sorted loads
/// and input times, then the default slope.
fn hash_boundary<'a>(
    loads: impl ExactSizeIterator<Item = (&'a str, f64)>,
    times: &[(&str, (f64, f64))],
    default_slope: Option<f64>,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(loads.len());
    for (name, v) in loads {
        h.write_str(name);
        h.write_f64_bits(v);
    }
    h.write_usize(times.len());
    for &(name, (t, s)) in times {
        h.write_str(name);
        h.write_f64_bits(t);
        h.write_f64_bits(s);
    }
    match default_slope {
        Some(s) => {
            h.write_bool(true);
            h.write_f64_bits(s);
        }
        None => h.write_bool(false),
    }
    h.finish()
}

pub(crate) fn options_fingerprint(opts: &SizingOptions) -> u64 {
    // Exhaustive on purpose: a new field does not compile until it is
    // either hashed below or excluded here with its reason. The excluded
    // fields are runtime plumbing that can never change a successful
    // outcome, so keying on them would only split the cache.
    let SizingOptions {
        cost,
        max_outer_iters,
        timing_tolerance,
        slope_max,
        pinned,
        noise_constraints,
        otb,
        warm_start,
        heuristic_dominance,
        gp_retries,
        relaxation,
        corners,
        // Budgets abort solves; aborts are never cached.
        budget: _,
        // The store itself.
        cache: _,
        // The lint gate rejects a candidate before its first lookup.
        lint: _,
        // Certificates only abort, and pruning keeps the feasible set
        // (the prune-parity suite pins pruned and unpruned optima).
        audit: _,
        // Observability records what the flow did, it never steers it.
        trace: _,
        // Faults abort candidates; they never steer an outcome.
        chaos: _,
    } = opts;
    let mut h = StableHasher::new();
    h.write_u8(match cost {
        CostMetric::Width => 0,
        CostMetric::Power => 1,
    });
    h.write_usize(*max_outer_iters);
    h.write_f64_bits(*timing_tolerance);
    h.write_f64_bits(*slope_max);
    let mut pinned: Vec<(&str, f64)> = pinned.iter().map(|(k, &v)| (k.as_str(), v)).collect();
    pinned.sort_unstable_by(|a, b| a.0.cmp(b.0));
    h.write_usize(pinned.len());
    for (name, w) in pinned {
        h.write_str(name);
        h.write_f64_bits(w);
    }
    // The compaction limit, hashed where the option used to be so that
    // existing cache keys and snapshots stay valid.
    h.write_usize(crate::compact::PATH_LIMIT);
    h.write_bool(*noise_constraints);
    h.write_bool(*otb);
    h.write_bool(*heuristic_dominance);
    h.write_usize(*gp_retries);
    h.write_usize(relaxation.len());
    for &r in relaxation {
        h.write_f64_bits(r);
    }
    match warm_start {
        Some(s) => {
            h.write_bool(true);
            h.write_usize(s.len());
            for &w in s.as_slice() {
                h.write_f64_bits(w);
            }
        }
        None => h.write_bool(false),
    }
    // The corner set changes the GP's constraint family and the
    // feasibility test, so it is a first-class key dimension: `None`
    // (historical single-corner) and every distinct `Some(set)` — by
    // member names, coefficients and order — key separately. A
    // multi-corner solve can never replay a single-corner entry, nor
    // the reverse.
    match corners {
        Some(set) => {
            h.write_bool(true);
            h.write_u64(set.fingerprint());
        }
        None => h.write_bool(false),
    }
    h.finish()
}

/// Builds the memoization key for one sizing invocation.
pub fn cache_key(
    circuit: &Circuit,
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
) -> CacheKey {
    cache_key_for(circuit.structural_hash(), lib, boundary_fingerprint(boundary), spec, opts)
}

/// [`cache_key`] for a circuit known only by its
/// [`Circuit::structural_hash`] and a boundary known only by its
/// fingerprint, so a lazy sizing call can look up without elaborating the
/// netlist or building the boundary.
pub(crate) fn cache_key_for(
    structure: u64,
    lib: &ModelLibrary,
    boundary: u64,
    spec: &DelaySpec,
    opts: &SizingOptions,
) -> CacheKey {
    CacheKey {
        structure,
        process: lib.process().fingerprint(),
        spec_data: spec.data.to_bits(),
        spec_precharge: spec.precharge.map_or(u64::MAX, f64::to_bits),
        boundary,
        options: options_fingerprint(opts),
    }
}

/// Content checksum of a stored outcome: every field that `lookup` will
/// replay, hashed with the same [`StableHasher`] the key fingerprints
/// use. Verified on every read — the foundation for the service
/// snapshot/restore path, where entries will have crossed a serialization
/// boundary and "the map can't change under us" no longer holds.
fn outcome_checksum(outcome: &SizingOutcome) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(outcome.sizing.len());
    for &w in outcome.sizing.as_slice() {
        h.write_f64_bits(w);
    }
    h.write_f64_bits(outcome.measured_delay);
    h.write_f64_bits(outcome.measured_precharge);
    h.write_f64_bits(outcome.total_width);
    h.write_usize(outcome.iterations);
    h.write_usize(outcome.constraint_paths);
    h.write_u64((outcome.raw_paths >> 64) as u64);
    h.write_u64(outcome.raw_paths as u64);
    h.write_f64_bits(outcome.spec_relaxation);
    h.write_usize(outcome.gp_restarts);
    h.write_usize(outcome.corner_delays.len());
    for c in &outcome.corner_delays {
        h.write_str(&c.corner);
        h.write_f64_bits(c.data);
        h.write_f64_bits(c.precharge);
    }
    h.write_str(&outcome.binding_corner);
    h.finish()
}

/// One exploration sweep's own hit/miss counts. The cache's counters
/// aggregate over every client for the cache's whole lifetime; when two
/// sweeps share one cache concurrently (the `smart-serve` workload),
/// deltas of those counters would misattribute each sweep's traffic to
/// the other, so a sweep records each of its lookups here instead.
#[derive(Debug, Default)]
pub(crate) struct CacheStats {
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl CacheStats {
    /// Records one lookup outcome.
    pub(crate) fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Hits recorded.
    pub(crate) fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses recorded.
    pub(crate) fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A stored entry: the outcome, the checksum computed at insert time, and
/// the recency stamp LRU eviction orders by.
#[derive(Debug, Clone)]
struct Entry {
    checksum: u64,
    /// Shard-local recency: bumped from the owning shard's tick on every
    /// verified hit, so eviction drops the least-recently-replayed entry.
    stamp: u64,
    outcome: SizingOutcome,
}

/// One lock's worth of the cache: a map plus the monotonic recency tick
/// its entries are stamped from.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
}

impl Shard {
    fn next_stamp(&mut self) -> u64 {
        let t = self.tick;
        self.tick += 1;
        t
    }
}

/// A thread-safe memoization store for successful sizing outcomes, shared
/// via `Arc` in [`SizingOptions::cache`] — and, in the serve workload,
/// across many concurrent requests.
///
/// The map is split into shards keyed by a stable hash of the
/// [`CacheKey`]; each shard has its own lock, so concurrent sweeps
/// contend per shard instead of serializing on one mutex.
/// [`SizingCache::new`] keeps the historical single-shard, unbounded
/// configuration; [`SizingCache::bounded`] selects a shard count and an
/// entry budget enforced by least-recently-used eviction.
///
/// Every entry carries a content checksum computed at insert time and
/// verified on every read; an entry that fails verification is evicted
/// and the lookup reports a miss, so a corrupted entry costs one
/// recompute instead of replaying garbage into a sweep table. The same
/// checksum travels inside [`SizingCache::snapshot`], so a damaged
/// snapshot file restores as "no snapshot" rather than as wrong answers.
///
/// Hit/miss counters are monotonic over the cache's lifetime and
/// aggregate across all clients; an exploration sweep counts its own
/// lookups instead.
#[derive(Debug)]
pub struct SizingCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry budget (`None` = unbounded). The configured total
    /// budget is split evenly across shards, rounded up, so the cache
    /// never holds more than ~`budget + shards` entries.
    per_shard_budget: Option<usize>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    poisoned: AtomicUsize,
    evicted: AtomicUsize,
    /// Why the last restore loaded nothing (see
    /// [`SizingCache::restore_rejected`]).
    rejected: Mutex<Option<&'static str>>,
}

impl Default for SizingCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable shard index of a key: the same [`StableHasher`] the key
/// fingerprints use, over all six dimensions, so the choice is
/// deterministic across runs and processes (snapshots restore into the
/// same shard layout they were taken from).
fn shard_of(key: &CacheKey, shards: usize) -> usize {
    let mut h = StableHasher::new();
    h.write_u64(key.structure);
    h.write_u64(key.process);
    h.write_u64(key.spec_data);
    h.write_u64(key.spec_precharge);
    h.write_u64(key.boundary);
    h.write_u64(key.options);
    (h.finish() % shards as u64) as usize
}

impl SizingCache {
    /// An empty cache: one shard, no entry budget — the historical
    /// single-sweep configuration.
    pub fn new() -> Self {
        Self::with_config(1, None)
    }

    /// An empty cache with `shards` independently locked shards and an
    /// optional total entry budget enforced by LRU eviction. `shards` is
    /// clamped to at least 1; a budget of 0 is treated as 1 per shard
    /// (a cache that can never hold an entry would silently disable
    /// memoization).
    pub fn bounded(shards: usize, budget: Option<usize>) -> Self {
        Self::with_config(shards, budget)
    }

    fn with_config(shards: usize, budget: Option<usize>) -> Self {
        let shards = shards.max(1);
        SizingCache {
            per_shard_budget: budget.map(|b| b.div_ceil(shards).max(1)),
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            poisoned: AtomicUsize::new(0),
            evicted: AtomicUsize::new(0),
            rejected: Mutex::new(None),
        }
    }

    /// The shard count this cache was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The total entry budget (`None` = unbounded). Reported as the
    /// per-shard budget times the shard count — the bound actually
    /// enforced.
    pub fn budget(&self) -> Option<usize> {
        self.per_shard_budget.map(|b| b * self.shards.len())
    }

    fn guard(&self, idx: usize) -> std::sync::MutexGuard<'_, Shard> {
        // A poisoned mutex only means a panicking thread died mid-insert;
        // the map itself holds plain owned data and stays valid.
        match self.shards[idx].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn shard_for(&self, key: &CacheKey) -> std::sync::MutexGuard<'_, Shard> {
        self.guard(shard_of(key, self.shards.len()))
    }

    /// Looks up `key`, counting the hit or miss. An entry whose stored
    /// checksum no longer matches its content is *poisoned*: it is
    /// evicted, counted, and the lookup reports a miss so the caller
    /// recomputes. A verified hit refreshes the entry's LRU stamp.
    pub fn lookup(&self, key: &CacheKey) -> Option<SizingOutcome> {
        let found = {
            let mut shard = self.shard_for(key);
            let stamp = shard.next_stamp();
            match shard.map.get_mut(key) {
                Some(entry) if outcome_checksum(&entry.outcome) == entry.checksum => {
                    entry.stamp = stamp;
                    Some(entry.outcome.clone())
                }
                Some(_) => {
                    shard.map.remove(key);
                    self.poisoned.fetch_add(1, Ordering::Relaxed);
                    smart_trace::counter("cache/poisoned", 1);
                    smart_trace::emit_with("cache/poisoned", || {
                        vec![("structure", format!("{:016x}", key.structure).into())]
                    });
                    None
                }
                None => None,
            }
        };
        let hit = found.is_some();
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        smart_trace::counter(if hit { "cache/hit" } else { "cache/miss" }, 1);
        smart_trace::emit_with("cache/lookup", || {
            vec![
                ("hit", hit.into()),
                ("structure", format!("{:016x}", key.structure).into()),
            ]
        });
        found
    }

    /// Stores a successful outcome under `key`, stamping its content
    /// checksum. Concurrent inserts of the same key are benign: the flow
    /// is deterministic, so both threads computed the same value. When
    /// the shard is over budget, least-recently-used entries are evicted
    /// (the fresh insert carries the newest stamp, so it always survives
    /// its own admission).
    pub fn insert(&self, key: CacheKey, outcome: SizingOutcome) {
        let checksum = outcome_checksum(&outcome);
        let mut shard = self.shard_for(&key);
        let stamp = shard.next_stamp();
        shard.map.insert(
            key,
            Entry {
                checksum,
                stamp,
                outcome,
            },
        );
        if let Some(budget) = self.per_shard_budget {
            while shard.map.len() > budget {
                let Some(victim) = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(k, _)| *k)
                else {
                    break;
                };
                shard.map.remove(&victim);
                self.evicted.fetch_add(1, Ordering::Relaxed);
                smart_trace::counter("cache/evicted", 1);
            }
        }
    }

    /// Drops the entry under `key`, reporting whether one existed. A
    /// chaos/test hook standing in for any lost entry (eviction race,
    /// failed restore); the flow must absorb it as a plain miss.
    pub fn remove(&self, key: &CacheKey) -> bool {
        self.shard_for(key).map.remove(key).is_some()
    }

    /// Flips a bit in the entry under `key` *without* updating its
    /// checksum, reporting whether an entry was there to damage. A
    /// chaos/test hook simulating storage corruption: the next lookup
    /// must detect the mismatch, evict, and recompute.
    pub fn corrupt(&self, key: &CacheKey) -> bool {
        match self.shard_for(key).map.get_mut(key) {
            Some(entry) => {
                // Lowest mantissa bit: the value stays finite (so nothing
                // downstream of a hypothetical undetected replay would
                // panic instead of misbehave), but the checksum — which
                // covers exact bit patterns — can no longer match.
                let bits = entry.outcome.measured_delay.to_bits() ^ 1;
                entry.outcome.measured_delay = f64::from_bits(bits);
                true
            }
            None => false,
        }
    }

    /// Entries currently stored (summed across shards; a racing insert
    /// may be counted or not, like any concurrent size query).
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.guard(i).map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime `(hits, misses)` counters, aggregated over every client
    /// that ever used this cache. For one sweep's own counts read
    /// [`Exploration::cache_hits`](crate::Exploration::cache_hits).
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Lifetime count of entries evicted by checksum verification.
    pub fn poisoned(&self) -> usize {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Lifetime count of entries evicted by the LRU budget.
    pub fn evicted(&self) -> usize {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            self.guard(i).map.clear();
        }
    }

    /// Serializes every entry byte-stably: entries sorted by key (shard
    /// layout and recency stamps are *not* serialized — they are
    /// runtime-configuration, and a snapshot restored into a cache with a
    /// different shard count must still replay identically), every float
    /// as its 16-hex-digit `f64::to_bits` pattern, each entry carrying
    /// the content checksum that [`SizingCache::restore`] re-verifies.
    /// Snapshot → restore → snapshot is the identity on the bytes.
    pub fn snapshot(&self) -> String {
        let mut entries: Vec<(CacheKey, u64, SizingOutcome)> = Vec::new();
        for i in 0..self.shards.len() {
            let shard = self.guard(i);
            entries.extend(
                shard
                    .map
                    .iter()
                    .map(|(k, e)| (*k, e.checksum, e.outcome.clone())),
            );
        }
        entries.sort_unstable_by_key(|(k, _, _)| {
            (
                k.structure,
                k.process,
                k.spec_data,
                k.spec_precharge,
                k.boundary,
                k.options,
            )
        });
        render_snapshot(&entries)
    }

    /// Restores entries from a [`SizingCache::snapshot`] string into this
    /// cache, returning how many were loaded. The text is parsed with the
    /// workspace JSON parser and its fields decoded by name; it is then
    /// accepted only if it was written under this
    /// [`FLOW_EPOCH`](crate::FLOW_EPOCH) and the decoded entries,
    /// re-rendered in input order, reproduce it byte for byte (trailing
    /// newlines aside). All-or-nothing: another epoch, or any deviation
    /// from the canonical form — truncation, a hand edit, an entry whose
    /// stored checksum does not match its re-hashed content — rejects the
    /// whole snapshot as `None` ("no snapshot"), so a stale or damaged
    /// file can only ever cost warm starts, never correctness; the reason
    /// is kept for [`SizingCache::restore_rejected`]. Restored entries go
    /// through the normal insert path (budget eviction applies); counters
    /// are not touched.
    pub fn restore(&self, text: &str) -> Option<usize> {
        let restored = self.restore_entries(text);
        *self.rejected.lock().unwrap_or_else(PoisonError::into_inner) = restored.err();
        restored.ok()
    }

    fn restore_entries(&self, text: &str) -> Result<usize, &'static str> {
        let doc = Json::parse(text).map_err(|_| "damaged")?;
        if doc.get("epoch").and_then(Json::as_f64) != Some(f64::from(crate::FLOW_EPOCH)) {
            return Err("other-epoch");
        }
        let entries = doc
            .get("entries")
            .and_then(Json::as_array)
            .and_then(|entries| entries.iter().map(decode_entry).collect::<Option<Vec<_>>>())
            .ok_or("damaged")?;
        if render_snapshot(&entries).trim_end_matches('\n') != text.trim_end_matches('\n') {
            return Err("damaged");
        }
        let n = entries.len();
        for (key, _, outcome) in entries {
            self.insert(key, outcome);
        }
        Ok(n)
    }

    /// Why the last [`SizingCache::restore`] or
    /// [`SizingCache::load_snapshot`] loaded nothing: `"missing"` (the
    /// file could not be read), `"other-epoch"` (written under another
    /// [`FLOW_EPOCH`](crate::FLOW_EPOCH), or none) or `"damaged"` (not a
    /// canonical snapshot); `None` if it loaded one or none was attempted.
    pub fn restore_rejected(&self) -> Option<&'static str> {
        *self.rejected.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes a snapshot to `path` atomically (uniquely named temp file +
    /// rename, so concurrent writers never publish a torn file).
    pub fn save_snapshot(&self, path: &Path) -> std::io::Result<()> {
        crate::persist::atomic_write(path, &self.snapshot())
    }

    /// Restores from a snapshot file; `None` for a missing, unreadable,
    /// stale-epoch or non-canonical file (all equally "no snapshot").
    pub fn load_snapshot(&self, path: &Path) -> Option<usize> {
        match std::fs::read_to_string(path) {
            Ok(text) => self.restore(&text),
            Err(_) => {
                *self.rejected.lock().unwrap_or_else(PoisonError::into_inner) = Some("missing");
                None
            }
        }
    }
}

/// The canonical snapshot text of `entries`, in the given order.
fn render_snapshot(entries: &[(CacheKey, u64, SizingOutcome)]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"version\":1,\"epoch\":{},\"kind\":\"sizing-cache\",\"entries\":[",
        crate::FLOW_EPOCH
    );
    for (n, (key, checksum, outcome)) in entries.iter().enumerate() {
        if n > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"key\":[\"{:016x}\",\"{:016x}\",\"{:016x}\",\"{:016x}\",\"{:016x}\",\"{:016x}\"],\
             \"sum\":\"{:016x}\",",
            key.structure,
            key.process,
            key.spec_data,
            key.spec_precharge,
            key.boundary,
            key.options,
            checksum,
        );
        crate::persist::render_outcome_fields(&mut s, outcome);
        s.push('}');
    }
    s.push_str("]}\n");
    s
}

/// Decodes one snapshot entry. The checksum binds the snapshot bytes to
/// the exact outcome content; a mismatch means damage (or tampering) and
/// voids the whole file.
fn decode_entry(entry: &Json) -> Option<(CacheKey, u64, SizingOutcome)> {
    use crate::persist::hex_u64;
    let dims = entry
        .get("key")?
        .as_array()?
        .iter()
        .map(hex_u64)
        .collect::<Option<Vec<u64>>>()?;
    let [structure, process, spec_data, spec_precharge, boundary, options] = dims[..] else {
        return None;
    };
    let sum = hex_u64(entry.get("sum")?)?;
    let outcome = crate::persist::decode_outcome(entry)?;
    if outcome_checksum(&outcome) != sum {
        return None;
    }
    let key = CacheKey {
        structure,
        process,
        spec_data,
        spec_precharge,
        boundary,
        options,
    };
    Some((key, sum, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circuit() -> Circuit {
        use smart_macros::{MacroSpec, MuxTopology};
        MacroSpec::Mux {
            topology: MuxTopology::StronglyMutexedPass,
            width: 4,
        }
        .generate()
    }

    fn boundary(load: f64) -> Boundary {
        let mut b = Boundary::default();
        b.output_loads.insert("y".into(), load);
        b
    }

    fn lib() -> ModelLibrary {
        ModelLibrary::reference()
    }

    #[test]
    fn equal_inputs_equal_keys() {
        let c = circuit();
        let opts = SizingOptions::default();
        let k1 = cache_key(&c, &lib(), &boundary(15.0), &DelaySpec::uniform(300.0), &opts);
        let k2 = cache_key(&c, &lib(), &boundary(15.0), &DelaySpec::uniform(300.0), &opts);
        assert_eq!(k1, k2);
    }

    #[test]
    fn every_key_dimension_separates() {
        let c = circuit();
        let opts = SizingOptions::default();
        let base = cache_key(&c, &lib(), &boundary(15.0), &DelaySpec::uniform(300.0), &opts);

        let other_spec = cache_key(&c, &lib(), &boundary(15.0), &DelaySpec::uniform(301.0), &opts);
        assert_ne!(base, other_spec, "spec must separate");

        let other_load = cache_key(&c, &lib(), &boundary(16.0), &DelaySpec::uniform(300.0), &opts);
        assert_ne!(base, other_load, "boundary must separate");

        let mut o2 = SizingOptions::default();
        o2.otb = false;
        let other_opts = cache_key(&c, &lib(), &boundary(15.0), &DelaySpec::uniform(300.0), &o2);
        assert_ne!(base, other_opts, "options must separate");

        let precharge = cache_key(
            &c,
            &lib(),
            &boundary(15.0),
            &DelaySpec {
                data: 300.0,
                precharge: Some(300.0),
            },
            &opts,
        );
        assert_ne!(base, precharge, "explicit precharge must separate");
    }

    #[test]
    fn process_corners_never_share_keys() {
        use smart_models::Process;
        let c = circuit();
        let opts = SizingOptions::default();
        let b = boundary(15.0);
        let spec = DelaySpec::uniform(300.0);
        let typ = cache_key(&c, &ModelLibrary::reference(), &b, &spec, &opts);
        let slow = cache_key(&c, &ModelLibrary::new(Process::slow_corner()), &b, &spec, &opts);
        let fast = cache_key(&c, &ModelLibrary::new(Process::fast_corner()), &b, &spec, &opts);
        assert_ne!(typ, slow, "slow corner must separate from reference");
        assert_ne!(typ, fast, "fast corner must separate from reference");
        assert_ne!(slow, fast, "slow and fast corners must separate");
        // Equal corners built independently still share the key — the
        // fingerprint is over coefficient values, not library identity.
        let typ2 = cache_key(&c, &ModelLibrary::new(Process::reference()), &b, &spec, &opts);
        assert_eq!(typ, typ2);
    }

    #[test]
    fn budget_does_not_split_keys() {
        let c = circuit();
        let mut tight = SizingOptions::default();
        tight.budget.max_gp_iters = Some(1);
        let a = cache_key(
            &c,
            &lib(),
            &boundary(15.0),
            &DelaySpec::uniform(300.0),
            &SizingOptions::default(),
        );
        let b = cache_key(&c, &lib(), &boundary(15.0), &DelaySpec::uniform(300.0), &tight);
        assert_eq!(a, b, "budgets abort, they never steer; keys must agree");
    }

    fn outcome(seed: f64) -> SizingOutcome {
        use crate::sizing::CornerDelay;
        use smart_netlist::Sizing;
        SizingOutcome {
            sizing: Sizing::from_widths(vec![seed, seed + 1.0, seed + 2.0]),
            measured_delay: 100.0 + seed,
            measured_precharge: 80.0,
            total_width: 3.0 * seed + 3.0,
            iterations: 2,
            constraint_paths: 9,
            raw_paths: 1u128 << 70,
            spec_relaxation: 0.0,
            gp_restarts: 0,
            corner_delays: vec![CornerDelay {
                corner: "typical".to_owned(),
                data: 100.0 + seed,
                precharge: 80.0,
            }],
            binding_corner: "typical".to_owned(),
        }
    }

    fn key(n: u64) -> CacheKey {
        CacheKey {
            structure: n,
            process: 1,
            spec_data: 2,
            spec_precharge: 3,
            boundary: 4,
            options: 5,
        }
    }

    #[test]
    fn sharded_cache_replays_like_single_shard() {
        for shards in [1, 4, 7] {
            let cache = SizingCache::bounded(shards, None);
            for n in 0..20 {
                cache.insert(key(n), outcome(n as f64 + 1.0));
            }
            assert_eq!(cache.len(), 20);
            for n in 0..20 {
                let got = cache.lookup(&key(n)).expect("inserted entry must hit");
                assert_eq!(
                    got.measured_delay.to_bits(),
                    outcome(n as f64 + 1.0).measured_delay.to_bits(),
                    "shards={shards} n={n}"
                );
            }
            assert!(cache.lookup(&key(999)).is_none());
            assert_eq!(cache.stats(), (20, 1));
        }
    }

    #[test]
    fn lru_eviction_keeps_the_recently_used_entry() {
        // One shard, budget 2: inserting a third entry must evict the
        // least recently *used* one, not the oldest-inserted one.
        let cache = SizingCache::bounded(1, Some(2));
        cache.insert(key(1), outcome(1.0));
        cache.insert(key(2), outcome(2.0));
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(cache.lookup(&key(1)).is_some());
        cache.insert(key(3), outcome(3.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evicted(), 1);
        assert!(cache.lookup(&key(1)).is_some(), "recently used must survive");
        assert!(cache.lookup(&key(2)).is_none(), "LRU entry must be evicted");
        assert!(cache.lookup(&key(3)).is_some(), "fresh insert must survive");
    }

    #[test]
    fn budget_bounds_entries_across_shards() {
        let cache = SizingCache::bounded(4, Some(8));
        for n in 0..100 {
            cache.insert(key(n), outcome(n as f64 + 1.0));
        }
        // Per-shard budget is ceil(8/4)=2; at most 2 entries per shard.
        assert!(cache.len() <= 8, "len {} exceeds budget", cache.len());
        assert_eq!(cache.evicted(), 100 - cache.len());
    }

    #[test]
    fn snapshot_restore_roundtrip_is_byte_identical() {
        let cache = SizingCache::bounded(4, None);
        for n in 0..12 {
            cache.insert(key(n), outcome(n as f64 + 1.5));
        }
        // Corner and binding names are JSON strings: quotes and
        // backslashes must survive the round trip, not void the file.
        let mut quoted = outcome(20.5);
        quoted.corner_delays[0].corner = "a\"b\\c".to_owned();
        quoted.binding_corner = "a\"b\\c".to_owned();
        cache.insert(key(12), quoted);
        let snap = cache.snapshot();
        assert!(snap.contains(r#""binding":"a\"b\\c""#), "names are escaped");
        // Restoring into a cache with a *different* shard layout must
        // reproduce both the entries and the snapshot bytes.
        let warm = SizingCache::bounded(2, None);
        assert_eq!(warm.restore(&snap), Some(13));
        assert_eq!(warm.snapshot(), snap, "snapshot → restore → snapshot must be identity");
        for n in 0..12 {
            let got = warm.lookup(&key(n)).expect("restored entry must hit");
            assert_eq!(
                got.sizing.as_slice(),
                outcome(n as f64 + 1.5).sizing.as_slice()
            );
        }
    }

    #[test]
    fn damaged_snapshots_restore_as_no_snapshot() {
        let cache = SizingCache::new();
        cache.insert(key(1), outcome(1.0));
        let snap = cache.snapshot();
        // Replaces the one field value that follows `field` (up to its
        // closing `"`/`]`) — a hand edit the loader must refuse.
        let edit = |field: &str, end: char, value: &str| {
            let i = snap.find(field).expect("field present") + field.len();
            let j = i + snap[i..].find(end).expect("field end");
            format!("{}{value}{}", &snap[..i], &snap[j..])
        };
        let cases: Vec<String> = vec![
            String::new(),
            "not a snapshot".to_owned(),
            snap[..snap.len() / 2].to_owned(),
            // A foreign format version.
            snap.replacen("\"version\":1", "\"version\":2", 1),
            // Flip one hex digit of the checksum field: the content no
            // longer matches, the whole file must be rejected.
            {
                let i = snap.find("\"sum\":\"").expect("sum field") + 7;
                let mut bytes = snap.clone().into_bytes();
                bytes[i] = if bytes[i] == b'0' { b'1' } else { b'0' };
                String::from_utf8(bytes).expect("ascii")
            },
            // Non-finite width bits (all-ones exponent): rejected before
            // they reach `Sizing::from_widths`.
            edit("\"sizing\":[\"", '"', "7ff0000000000000"),
            // An empty corner list or a blank binding name is not ours.
            edit("\"corners\":[", ']', ""),
            edit("\"binding\":\"", '"', ""),
            // Parseable but not canonical: upper-case hex digits, a
            // leading zero, and whitespace between fields.
            edit("\"sum\":\"", '"', &{
                let i = snap.find("\"sum\":\"").expect("sum field") + 7;
                snap[i..i + 16].to_ascii_uppercase()
            }),
            snap.replacen("\"iters\":2", "\"iters\":02", 1),
            snap.replacen(",\"paths\"", ", \"paths\"", 1),
        ];
        for text in cases {
            assert_ne!(text, snap, "every case must damage the snapshot");
            let fresh = SizingCache::new();
            assert!(
                fresh.restore(&text).is_none(),
                "accepted damaged snapshot: {text:.60}"
            );
            assert!(fresh.is_empty(), "rejected snapshot must load nothing");
        }
        let missing = std::env::temp_dir().join("smart-cache-test-no-such-snapshot.json");
        let fresh = SizingCache::new();
        assert!(fresh.load_snapshot(&missing).is_none());
        assert_eq!(fresh.restore_rejected(), Some("missing"));
    }

    #[test]
    fn snapshots_of_another_flow_epoch_restore_as_no_snapshot() {
        let cache = SizingCache::new();
        cache.insert(key(1), outcome(1.0));
        let snap = cache.snapshot();
        let epoch = format!("\"epoch\":{},", crate::FLOW_EPOCH);
        assert!(snap.starts_with(&format!("{{\"version\":1,{epoch}")));
        let fresh = SizingCache::new();
        assert_eq!(fresh.restore_rejected(), None);
        for (text, why) in [
            (snap.replacen(&epoch, "\"epoch\":0,", 1), "other-epoch"),
            (snap.replacen(&epoch, "", 1), "other-epoch"),
            (snap[..snap.len() / 2].to_owned(), "damaged"),
        ] {
            assert!(fresh.restore(&text).is_none());
            assert!(fresh.is_empty());
            assert_eq!(fresh.restore_rejected(), Some(why));
        }
        assert_eq!(fresh.restore(&snap), Some(1));
        assert_eq!(fresh.restore_rejected(), None);
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("smart-cache-test-{}-{name}.json", std::process::id()));
        p
    }

    /// Regression: the temp file used for the atomic replace must be
    /// unique per save attempt. A fixed `*.tmp` name let two writers (two
    /// processes, or two serve requests sharing a target path) truncate
    /// each other's partial file between its write and its rename —
    /// publishing a torn file. With pid + counter in the name, concurrent
    /// saves each own their temp file.
    #[test]
    fn tmp_names_are_unique_per_save_attempt() {
        use crate::persist::unique_tmp;
        let target = Path::new("/some/dir/cache.snapshot");
        let a = unique_tmp(target);
        let b = unique_tmp(target);
        assert_ne!(a, b, "two save attempts must never share a temp file");
        let pid = std::process::id().to_string();
        for t in [&a, &b] {
            let name = t.file_name().and_then(|n| n.to_str()).unwrap_or("");
            assert!(
                name.contains(&pid),
                "temp name '{name}' must embed the pid so concurrent \
                 processes cannot collide"
            );
            assert_eq!(t.parent(), target.parent(), "rename must stay on one filesystem");
        }
    }

    /// Regression: two caches saving snapshots to the same path
    /// concurrently. Every save is an atomic whole-file replace, so after
    /// any interleaving the file on disk must be one writer's *complete*
    /// snapshot — a torn or truncated file reads back as "no snapshot"
    /// and fails this test.
    #[test]
    fn two_writers_never_publish_a_torn_file() {
        let path = tmp_path("two-writers");
        std::fs::remove_file(&path).ok();
        let rounds = 40;
        // Distinct entry sets per writer, so a torn mix of the two files
        // cannot pass for either.
        let writers: Vec<SizingCache> = (0..2u64)
            .map(|w| {
                let cache = SizingCache::new();
                for n in 0..rounds {
                    cache.insert(key(1000 * w + n), outcome(w as f64 + 1.5));
                }
                cache
            })
            .collect();
        std::thread::scope(|s| {
            for cache in &writers {
                let path = &path;
                s.spawn(move || {
                    for _ in 0..rounds {
                        cache.save_snapshot(path).expect("save");
                    }
                });
            }
        });
        let loaded = SizingCache::new();
        let n = loaded.load_snapshot(&path);
        assert_eq!(n, Some(rounds as usize), "the surviving file must be a complete snapshot");
        let snap = loaded.snapshot();
        assert!(
            writers.iter().any(|w| w.snapshot() == snap),
            "the published file must hold exactly one writer's full entry set"
        );
        // No temp debris left behind (`with_extension` strips `.json`, so
        // match on the extension-less stem).
        let dir = path.parent().expect("temp dir");
        let stem = path.file_stem().and_then(|n| n.to_str()).expect("file stem");
        let published = path.file_name().and_then(|n| n.to_str()).expect("file name");
        let debris: Vec<String> = std::fs::read_dir(dir)
            .expect("read temp dir")
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with(stem) && n != published)
            .collect();
        assert!(debris.is_empty(), "leftover temp files: {debris:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn boundary_insertion_order_is_irrelevant() {
        let c = circuit();
        let opts = SizingOptions::default();
        let mut b1 = Boundary::default();
        b1.output_loads.insert("y".into(), 10.0);
        b1.input_times.insert("a".into(), (0.0, 30.0));
        b1.input_times.insert("b".into(), (5.0, 40.0));
        let mut b2 = Boundary::default();
        b2.input_times.insert("b".into(), (5.0, 40.0));
        b2.input_times.insert("a".into(), (0.0, 30.0));
        b2.output_loads.insert("y".into(), 10.0);
        let spec = DelaySpec::uniform(300.0);
        assert_eq!(
            cache_key(&c, &lib(), &b1, &spec, &opts),
            cache_key(&c, &lib(), &b2, &spec, &opts)
        );
    }
}
