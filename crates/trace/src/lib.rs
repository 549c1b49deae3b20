//! `smart-trace` — zero-dependency structured tracing and metrics for the
//! SMART flow (explore → size → GP → STA).
//!
//! The Fig.-4 advisory loop is an iterative optimizer, and iterative
//! optimizers live or die by iteration-level telemetry: which candidate is
//! in which stage, how many Newton steps each GP restart burned, whether
//! the cache hit, why a row failed. This crate provides that visibility
//! with three hard constraints inherited from the rest of the workspace:
//!
//! 1. **Zero dependencies** — only `std`, like every other crate here.
//! 2. **Deterministic output** — the exploration sweep is byte-identical
//!    across worker counts (DESIGN.md §9), and its trace must be too.
//!    Every event carries a *stable* scope key and a per-scope sequence
//!    number; collection merges per-scope buffers by `(scope, seq)`, so
//!    the rendered report is independent of which worker recorded what
//!    and when. Wall-clock timestamps are recorded but confined to the
//!    Chrome export, which is explicitly not byte-stable.
//! 3. **Free when off** — a disabled [`Trace`] allocates nothing, and the
//!    thread-local context functions reduce to one TLS read; the hot GP
//!    Newton loop pays a branch, not a lock.
//!
//! # Model
//!
//! A [`Trace`] is the collector: it owns the merged event store, the
//! monotonic counters and the per-scope ring capacity. A [`Scope`] is a
//! single-threaded recording handle with a stable identity
//! `(kind, major, minor)` — e.g. `("candidate", sweep_id, index)` — into
//! which spans ([`Scope::begin`]/[`Scope::end`]) and instant events
//! ([`Scope::emit`]) are written. Scopes buffer locally (a bounded ring,
//! so a runaway solver cannot exhaust memory) and flush into the
//! collector exactly once, when dropped: one lock acquisition per scope,
//! never per event.
//!
//! Deep layers (the GP Newton loop, STA, the sizing cache, the worker
//! pool) do not thread `Scope` handles through their signatures. Instead
//! a scope can be [`Scope::enter`]ed, installing it as the thread's
//! *current* scope; the free functions [`emit`], [`begin`], [`end`],
//! [`counter`] then record into whatever scope is current, and are no-ops
//! when none is (tracing off, or a caller outside any traced flow). A
//! candidate runs wholly on one worker thread, so thread-local context is
//! exact — there is no cross-thread span to lose.
//!
//! # Determinism contract
//!
//! [`TraceReport::to_json`] is byte-stable: two runs produce identical
//! bytes iff they recorded the same stable events, regardless of thread
//! count or interleaving, provided scope identities are unique per
//! collector (the flow guarantees this by allocating sweep ids from
//! [`Trace::next_id`] in serial code). Events whose values are inherently
//! run-dependent (worker counts, timings) are recorded with
//! [`Scope::emit_unstable`] and excluded from the stable export — they
//! still appear in [`TraceReport::to_chrome_json`].
//!
//! # The workspace JSON codec
//!
//! [`json`] is the one JSON reader and writer of the workspace: the trace
//! export, the `smart-serve` wire protocol and the sizing-cache snapshots
//! all escape strings with it, and the daemon and the snapshot loader
//! both parse with [`json::Json::parse`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
pub mod json;

pub use export::{chrome_json, stable_json};

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-scope ring capacity (events kept per scope before the
/// oldest are dropped). Sized for a full GP solve's Newton telemetry
/// (hundreds of steps per restart, a dozen outer iterations) with room to
/// spare; drops are counted and reported, never silent.
pub const DEFAULT_SCOPE_CAPACITY: usize = 8192;

/// A single typed field value attached to an event.
///
/// Stable-export rendering is deterministic: integers in decimal, floats
/// via Rust's shortest round-trip `{:?}` formatting (the same bits always
/// render the same bytes), non-finite floats as quoted strings so the
/// JSON stays parseable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, indices, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// IEEE double (residuals, delays, step lengths).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Owned string (spec names, taxonomy tags).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Span/event discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span opening (`"B"` in the exports).
    Begin,
    /// Span closing (`"E"` in the exports).
    End,
    /// Instantaneous event (`"I"`).
    Instant,
}

/// Stable identity of a recording scope. Ordering of the merged report is
/// `(kind, major, minor, seq)`; callers must keep identities unique per
/// collector or equal-key scopes will interleave in flush order (the flow
/// allocates `major` from [`Trace::next_id`] in serial code, which
/// guarantees uniqueness and determinism).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ScopeId {
    /// What the scope is (`"sweep"`, `"candidate"`, `"cli"`, …).
    pub kind: &'static str,
    /// Primary index (e.g. sweep number).
    pub major: u64,
    /// Secondary index (e.g. candidate index within the sweep).
    pub minor: u64,
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Owning scope.
    pub scope: ScopeId,
    /// Per-scope sequence number (dense from 0 unless ring drops occurred).
    pub seq: u64,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Event name, hierarchical by convention (`"gp/newton"`).
    pub name: &'static str,
    /// Typed payload fields, in emission order.
    pub fields: Vec<(&'static str, Value)>,
    /// Nanoseconds since the collector's epoch — Chrome export only,
    /// never part of the stable JSON.
    pub t_ns: u64,
    /// Whether the event participates in the byte-stable export. Events
    /// carrying run-dependent values (worker counts, host facts) are
    /// recorded unstable and appear only in the Chrome export.
    pub stable: bool,
}

struct TraceInner {
    epoch: Instant,
    /// Flushed scope buffers; merged (sorted) at collection time.
    shards: Mutex<Vec<Vec<Event>>>,
    /// Monotonic named counters. Sums are order-independent, so counter
    /// totals are deterministic under any interleaving.
    counters: Mutex<BTreeMap<&'static str, u64>>,
    /// Events dropped by scope rings across the collector's lifetime.
    dropped: AtomicU64,
    /// Serial id source for scope `major` numbers (call from serial code).
    next_id: AtomicU64,
    /// Per-scope ring capacity.
    capacity: usize,
}

/// The trace collector. Cheap to clone (an `Arc` internally, or nothing
/// at all when disabled) and safe to share across the worker pool.
///
/// `Default` is **disabled** — tracing is strictly opt-in via
/// [`Trace::enabled`] or the `SMART_TRACE=1` environment knob read by
/// [`Trace::from_env`].
#[derive(Clone, Default)]
pub struct Trace {
    inner: Option<Arc<TraceInner>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Trace {
    /// A disabled collector: records nothing, allocates nothing.
    pub fn disabled() -> Self {
        Trace { inner: None }
    }

    /// An enabled collector with the default per-scope ring capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_SCOPE_CAPACITY)
    }

    /// An enabled collector whose scopes keep at most `capacity` events
    /// each (oldest dropped first, drops counted in the report).
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            inner: Some(Arc::new(TraceInner {
                epoch: Instant::now(),
                shards: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                dropped: AtomicU64::new(0),
                next_id: AtomicU64::new(0),
                capacity: capacity.max(1),
            })),
        }
    }

    /// Reads the `SMART_TRACE` environment knob: `1`, `true` or `on`
    /// (case-insensitive) enable tracing; anything else — including unset
    /// — is disabled. This is how the flow's default options pick up
    /// tracing without an API change.
    pub fn from_env() -> Self {
        match std::env::var("SMART_TRACE") {
            Ok(v) if matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "true" | "on") => {
                Self::enabled()
            }
            _ => Self::disabled(),
        }
    }

    /// Whether this collector records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Allocates the next serial scope id (`major`). Call from serial
    /// code only — the id sequence is what keeps scope identities unique
    /// and the merged report deterministic. Returns 0 when disabled.
    pub fn next_id(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |t| t.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Opens a recording scope with the stable identity
    /// `(kind, major, minor)`. The scope buffers locally and flushes into
    /// this collector when dropped. On a disabled collector the scope is
    /// a no-op handle.
    pub fn scope(&self, kind: &'static str, major: u64, minor: u64) -> Scope {
        match &self.inner {
            None => Scope { inner: None },
            Some(t) => Scope {
                inner: Some(Rc::new(ScopeInner {
                    trace: Arc::clone(t),
                    id: ScopeId { kind, major, minor },
                    buf: RefCell::new(ScopeBuf {
                        events: VecDeque::new(),
                        seq: 0,
                        dropped: 0,
                    }),
                })),
            },
        }
    }

    /// Adds `delta` to the named monotonic counter. Counter totals are
    /// sums, hence deterministic under any thread interleaving.
    pub fn counter(&self, name: &'static str, delta: u64) {
        if let Some(t) = &self.inner {
            t.add_counter(name, delta);
        }
    }

    /// Snapshots everything flushed so far into a mergeable, exportable
    /// report. Scopes still alive (not yet dropped) are not included —
    /// collect after the traced work is done.
    pub fn collect(&self) -> TraceReport {
        let Some(t) = &self.inner else {
            return TraceReport::default();
        };
        let mut events: Vec<Event> = {
            let shards = t.lock_shards();
            shards.iter().flatten().cloned().collect()
        };
        // The deterministic merge: stable order by scope identity and
        // per-scope sequence, independent of flush interleaving.
        events.sort_by_key(|a| (a.scope, a.seq));
        let counters: Vec<(&'static str, u64)> = {
            let c = t.lock_counters();
            c.iter().map(|(&k, &v)| (k, v)).collect()
        };
        TraceReport {
            events,
            counters,
            dropped: t.dropped.load(Ordering::Relaxed),
        }
    }
}

impl TraceInner {
    fn lock_shards(&self) -> std::sync::MutexGuard<'_, Vec<Vec<Event>>> {
        // Poisoning only means a panicking thread died mid-flush; the
        // event store itself is plain owned data and stays valid.
        match self.shards.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn lock_counters(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, u64>> {
        match self.counters.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn add_counter(&self, name: &'static str, delta: u64) {
        let mut c = self.lock_counters();
        let slot = c.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    }
}

struct ScopeBuf {
    events: VecDeque<Event>,
    seq: u64,
    dropped: u64,
}

struct ScopeInner {
    trace: Arc<TraceInner>,
    id: ScopeId,
    buf: RefCell<ScopeBuf>,
}

impl ScopeInner {
    fn record(
        &self,
        kind: EventKind,
        name: &'static str,
        fields: Vec<(&'static str, Value)>,
        stable: bool,
    ) {
        let t_ns = u64::try_from(self.trace.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut buf = self.buf.borrow_mut();
        if buf.events.len() >= self.trace.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        let seq = buf.seq;
        buf.seq += 1;
        buf.events.push_back(Event {
            scope: self.id,
            seq,
            kind,
            name,
            fields,
            t_ns,
            stable,
        });
    }
}

impl Drop for ScopeInner {
    fn drop(&mut self) {
        // The single flush: one lock per scope lifetime, never per event.
        let buf = self.buf.get_mut();
        if buf.dropped > 0 {
            self.trace.dropped.fetch_add(buf.dropped, Ordering::Relaxed);
        }
        if !buf.events.is_empty() {
            let events: Vec<Event> = std::mem::take(&mut buf.events).into();
            self.trace.lock_shards().push(events);
        }
    }
}

/// A single-threaded recording handle (see the crate docs for the model).
/// Dropping the last clone of a scope flushes its buffer into the
/// collector.
#[derive(Clone)]
pub struct Scope {
    inner: Option<Rc<ScopeInner>>,
}

impl std::fmt::Debug for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(s) => f.debug_struct("Scope").field("id", &s.id).finish(),
            None => f.debug_struct("Scope").field("id", &"disabled").finish(),
        }
    }
}

impl Scope {
    /// Whether this scope records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a span-opening event.
    pub fn begin(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        if let Some(s) = &self.inner {
            s.record(EventKind::Begin, name, fields.to_vec(), true);
        }
    }

    /// Records a span-closing event.
    pub fn end(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        if let Some(s) = &self.inner {
            s.record(EventKind::End, name, fields.to_vec(), true);
        }
    }

    /// Records an instant event.
    pub fn emit(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        if let Some(s) = &self.inner {
            s.record(EventKind::Instant, name, fields.to_vec(), true);
        }
    }

    /// Records an instant event that is *excluded from the byte-stable
    /// export* — for values that legitimately differ run to run (worker
    /// counts, host facts, timings). Chrome export still shows it.
    pub fn emit_unstable(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        if let Some(s) = &self.inner {
            s.record(EventKind::Instant, name, fields.to_vec(), false);
        }
    }

    /// Adds to a named monotonic counter on the owning collector.
    pub fn counter(&self, name: &'static str, delta: u64) {
        if let Some(s) = &self.inner {
            s.trace.add_counter(name, delta);
        }
    }

    /// Installs this scope as the thread's *current* scope for the
    /// lifetime of the returned guard; the free functions ([`emit`],
    /// [`begin`], [`end`], [`counter`]) then record into it. Guards nest
    /// LIFO (drop order must mirror enter order, which scoped usage
    /// guarantees). Entering a disabled scope installs nothing.
    #[must_use = "the scope is only current while the guard is alive"]
    pub fn enter(&self) -> ScopeGuard {
        match &self.inner {
            None => ScopeGuard { installed: false },
            Some(s) => {
                CURRENT.with(|stack| stack.borrow_mut().push(Rc::clone(s)));
                ScopeGuard { installed: true }
            }
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Rc<ScopeInner>>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for [`Scope::enter`]; pops the thread's current scope on
/// drop (including during panic unwinding, so a contained candidate
/// panic cannot leak its scope onto an unrelated candidate).
#[derive(Debug)]
pub struct ScopeGuard {
    installed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.installed {
            CURRENT.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

/// Runs `f` with the thread's current scope, if any. The single
/// TLS-read-plus-branch all context-based recording funnels through.
fn with_current<R>(f: impl FnOnce(&ScopeInner) -> R) -> Option<R> {
    CURRENT.with(|stack| {
        let stack = stack.borrow();
        stack.last().map(|s| f(s))
    })
}

/// Whether a scope is current on this thread (use to guard telemetry
/// whose *field computation* is itself costly).
pub fn active() -> bool {
    CURRENT.with(|stack| !stack.borrow().is_empty())
}

/// Records an instant event into the thread's current scope; no-op when
/// none is current. Field values must already be cheap to build — use
/// [`emit_with`] when building them allocates.
pub fn emit(name: &'static str, fields: &[(&'static str, Value)]) {
    with_current(|s| s.record(EventKind::Instant, name, fields.to_vec(), true));
}

/// Like [`emit`], but the field list is built lazily, only when a scope
/// is actually current — for call sites whose fields need formatting or
/// allocation (hash rendering, message strings).
pub fn emit_with(name: &'static str, fields: impl FnOnce() -> Vec<(&'static str, Value)>) {
    with_current(|s| s.record(EventKind::Instant, name, fields(), true));
}

/// Records a span-opening event into the thread's current scope.
pub fn begin(name: &'static str, fields: &[(&'static str, Value)]) {
    with_current(|s| s.record(EventKind::Begin, name, fields.to_vec(), true));
}

/// Records a span-closing event into the thread's current scope.
pub fn end(name: &'static str, fields: &[(&'static str, Value)]) {
    with_current(|s| s.record(EventKind::End, name, fields.to_vec(), true));
}

/// Adds to a named monotonic counter on the current scope's collector;
/// no-op when no scope is current.
pub fn counter(name: &'static str, delta: u64) {
    with_current(|s| s.trace.add_counter(name, delta));
}

/// A merged, exportable snapshot of one collector's recordings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// All flushed events in deterministic `(scope, seq)` order.
    pub events: Vec<Event>,
    /// Counter totals sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Events dropped by scope rings (capacity overflow).
    pub dropped: u64,
}

impl TraceReport {
    /// Number of stable events (the ones the byte-stable export shows).
    pub fn stable_event_count(&self) -> usize {
        self.events.iter().filter(|e| e.stable).count()
    }

    /// Counter total by name, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Events with the given name, in report order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// The byte-stable JSON export: fixed key order, deterministic value
    /// rendering, timestamps and unstable events excluded. Two runs that
    /// recorded the same stable events produce identical bytes — across
    /// any `SMART_WORKERS` setting (the determinism suite diffs these
    /// bytes).
    pub fn to_json(&self) -> String {
        export::stable_json(self)
    }

    /// Chrome-trace-format export (`chrome://tracing`, Perfetto): every
    /// event including unstable ones, with real wall-clock timestamps.
    /// Explicitly **not** byte-stable.
    pub fn to_chrome_json(&self) -> String {
        export::chrome_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_is_free_and_silent() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        let s = t.scope("x", 0, 0);
        assert!(!s.is_enabled());
        s.begin("a", &[]);
        s.emit("b", &[("k", 1u64.into())]);
        s.end("a", &[]);
        s.counter("c", 3);
        let _g = s.enter();
        emit("nested", &[]);
        counter("c", 4);
        assert!(!active());
        let report = t.collect();
        assert!(report.events.is_empty());
        assert!(report.counters.is_empty());
    }

    #[test]
    fn free_functions_without_scope_are_noops() {
        assert!(!active());
        emit("orphan", &[("k", 1u64.into())]);
        begin("orphan", &[]);
        end("orphan", &[]);
        counter("orphan", 1);
        emit_with("orphan", || vec![("k", "v".into())]);
    }

    #[test]
    fn scope_flushes_on_drop_and_merges_in_order() {
        let t = Trace::enabled();
        {
            let s = t.scope("unit", 0, 1);
            s.begin("span", &[("n", 2u64.into())]);
            s.emit("tick", &[]);
            s.end("span", &[]);
        }
        {
            let s = t.scope("unit", 0, 0);
            s.emit("first", &[]);
        }
        let report = t.collect();
        // Scope (unit,0,0) sorts before (unit,0,1) regardless of flush order.
        assert_eq!(report.events.len(), 4);
        assert_eq!(report.events[0].name, "first");
        assert_eq!(report.events[1].name, "span");
        assert_eq!(report.events[1].kind, EventKind::Begin);
        assert_eq!(report.events[3].kind, EventKind::End);
    }

    #[test]
    fn ring_capacity_drops_oldest_and_counts() {
        let t = Trace::with_capacity(3);
        {
            let s = t.scope("ring", 0, 0);
            for i in 0..5u64 {
                s.emit("e", &[("i", i.into())]);
            }
        }
        let report = t.collect();
        assert_eq!(report.dropped, 2);
        assert_eq!(report.events.len(), 3);
        // Oldest dropped: surviving seqs are 2, 3, 4.
        assert_eq!(
            report.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn tls_context_routes_into_entered_scope_and_unwinds() {
        let t = Trace::enabled();
        {
            let s = t.scope("ctx", 0, 0);
            let g = s.enter();
            assert!(active());
            emit("inner", &[("x", 1.5f64.into())]);
            counter("hits", 2);
            drop(g);
            assert!(!active());
            emit("lost", &[]);
        }
        let report = t.collect();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].name, "inner");
        assert_eq!(report.counter("hits"), 2);
    }

    #[test]
    fn guard_pops_during_panic_unwind() {
        let t = Trace::enabled();
        let s = t.scope("panicky", 0, 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = s.enter();
            panic!("contained");
        }));
        assert!(result.is_err());
        assert!(!active(), "guard must pop during unwinding");
    }

    #[test]
    fn counters_saturate_and_sum() {
        let t = Trace::enabled();
        t.counter("a", u64::MAX - 1);
        t.counter("a", 5);
        t.counter("b", 1);
        let report = t.collect();
        assert_eq!(report.counter("a"), u64::MAX);
        assert_eq!(report.counter("b"), 1);
        assert_eq!(report.counter("absent"), 0);
    }

    #[test]
    fn next_id_is_serial() {
        let t = Trace::enabled();
        assert_eq!(t.next_id(), 0);
        assert_eq!(t.next_id(), 1);
        assert_eq!(Trace::disabled().next_id(), 0);
    }
}
