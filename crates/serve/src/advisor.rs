//! The daemon's request engine, independent of any transport.
//!
//! [`Advisor::handle_line`] maps one newline-delimited JSON request to one
//! response line. Every transport — TCP, Unix socket, the `--script`
//! replay mode, an in-process test — funnels through it, so the protocol
//! semantics (admission control, cancellation fences, cache sharing,
//! trace spans) are pinned once and the byte-determinism contract can be
//! tested without sockets.
//!
//! # Determinism
//!
//! Responses to the *work* ops (`size`, `explore`, `batch`) are pure
//! functions of the request: the shared [`SizingCache`] only ever replays
//! checksum-verified successful outcomes, so a warm cache changes
//! latency, never bytes. Observability fields that would break replay
//! comparison (global hit counters, timings) live in the `stats` op, not
//! in work responses. The CI smoke byte-compares full response streams
//! across 1 and 4 workers (`SMART_WORKERS=1/4`, which the `smart` binary
//! resolves into [`ServeOptions::parallel`]) and across cold/warm
//! restarts.
//!
//! # Hit path
//!
//! A `size` request (and each `batch` item) is answered without
//! elaborating its macro whenever the cache can: the advisor memoises, per
//! [`MacroSpec`], the circuit's structural hash and output port names —
//! everything the cache key and the boundary need — and hands the flow a
//! closure that generates the circuit only on a cache miss. The memo
//! holds no circuits, so it costs a few bytes per spec; it is bounded by
//! [`MEMO_CAP`].

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use smart_core::{
    explore_parallel, size_lazily, DelaySpec, FlowError, ParallelOptions, SizingCache,
    SizingOptions, SizingOutcome,
};
use smart_gp::CancelToken;
use smart_macros::MacroSpec;
use smart_models::{CornerSet, ModelLibrary};
use smart_netlist::Circuit;
use smart_sta::Boundary;
use smart_trace::Trace;

use crate::json::{push_f64, push_str_escaped, Json};

/// Configuration of one resident advisor.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Shards of the cross-request [`SizingCache`] (lock striping).
    pub shards: usize,
    /// Total cached-entry budget across shards (`None` = unbounded).
    pub capacity: Option<usize>,
    /// Work requests admitted concurrently; excess requests are rejected
    /// with a `budget` row instead of queueing unboundedly.
    pub max_inflight: usize,
    /// Default per-request wall-clock budget (ms); a request's
    /// `budget_ms` field overrides it. `None` = unlimited.
    pub budget_ms: Option<u64>,
    /// Worker-pool shape for `batch`/`explore` fan-out. `None` (the
    /// default) is serial. The advisor never reads the environment; the
    /// `smart` binary passes its `SMART_WORKERS` setting here.
    pub parallel: Option<ParallelOptions>,
    /// Trace collector receiving one `serve-request` span per work
    /// request. Disabled by default.
    pub trace: Trace,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            shards: 8,
            capacity: Some(4096),
            max_inflight: 32,
            budget_ms: None,
            parallel: None,
            trace: Trace::disabled(),
        }
    }
}

/// What the transport should do after writing a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests.
    Continue,
    /// Stop the daemon (a `shutdown` op was processed).
    Shutdown,
}

/// One response line plus the transport directive.
#[derive(Debug)]
pub struct Reply {
    /// The response JSON (no trailing newline).
    pub text: String,
    /// Whether the daemon should keep serving.
    pub control: Control,
}

/// Distinct macro specs whose [`Elaboration`] the advisor memoises; past
/// it, a new spec displaces an arbitrary one (which re-elaborates once if
/// it comes back).
pub const MEMO_CAP: usize = 256;

/// Pending cancellation fences the advisor holds; past it, a `cancel` for
/// an id it does not already hold gets a typed `budget` row instead of a
/// fence, so cancels for ids that never arrive cannot grow the map
/// without bound.
pub const FENCE_CAP: usize = 1024;

/// What answering a request from the cache needs of an elaborated macro.
struct Elaboration {
    /// [`Circuit::structural_hash`]: the cache key's `structure`.
    structure: u64,
    /// Output port names, in port order: the boundary's loads.
    outputs: Vec<String>,
}

/// The resident advisor: macro database + model library loaded once, one
/// sharded sizing cache shared by every client and request.
pub struct Advisor {
    lib: ModelLibrary,
    cache: Arc<SizingCache>,
    /// Per-spec structure memo, at most [`MEMO_CAP`] entries.
    memo: Mutex<HashMap<MacroSpec, Arc<Elaboration>>>,
    par: ParallelOptions,
    budget_ms: Option<u64>,
    max_inflight: usize,
    inflight: AtomicUsize,
    /// Live socket connections; only the socket transports' accept loop
    /// moves it, so it stays 0 in `--script` mode.
    pub(crate) connections: AtomicUsize,
    /// Cancellation fences by request id: a `cancel` op trips (or
    /// pre-creates) the token under its id; a later work request with the
    /// same id observes it and is rejected deterministically, while every
    /// in-flight request holding the token stops cooperatively. A
    /// `cancel` adds at most [`FENCE_CAP`] entries; the rest are the
    /// tokens of in-flight requests, bounded by admission control.
    cancels: Mutex<HashMap<String, Fence>>,
    trace: Trace,
}

/// One cancellation fence: the token every in-flight request under one
/// id shares, and how many of them hold it. The last holder to finish
/// removes the fence, so a `cancel` always reaches a request still
/// running under its id.
struct Fence {
    token: Arc<CancelToken>,
    holders: usize,
}

/// Leaves a request's fence on every exit path.
struct FenceGuard<'a>(&'a Advisor, &'a str);
impl Drop for FenceGuard<'_> {
    fn drop(&mut self) {
        self.0.leave_fence(self.1);
    }
}

/// Poison-tolerant lock: the map stays usable even if a panicking thread
/// held it (the daemon must outlive one bad request).
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Decrements a live counter (in-flight requests, open connections) on
/// every exit path.
pub(crate) struct CountGuard<'a>(pub(crate) &'a AtomicUsize);
impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Advisor {
    /// Builds the resident state: model library, sharded cache, pool
    /// shape. This is the "load once" cost clients no longer pay.
    pub fn new(opts: ServeOptions) -> Self {
        Advisor {
            lib: ModelLibrary::reference(),
            cache: Arc::new(SizingCache::bounded(opts.shards, opts.capacity)),
            memo: Mutex::new(HashMap::new()),
            par: opts.parallel.unwrap_or_default(),
            budget_ms: opts.budget_ms,
            max_inflight: opts.max_inflight.max(1),
            inflight: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            cancels: Mutex::new(HashMap::new()),
            trace: opts.trace,
        }
    }

    /// The shared cache (for embedding tests and the stats endpoint).
    pub fn cache(&self) -> &Arc<SizingCache> {
        &self.cache
    }

    /// Processes one request line into one response line. Never panics on
    /// protocol input: malformed lines become `invalid-request` rows.
    pub fn handle_line(&self, line: &str) -> Reply {
        let req = match Json::parse(line) {
            Ok(v) => v,
            Err(detail) => {
                return Reply {
                    text: error_line("", "", "invalid-request", &format!("bad json: {detail}")),
                    control: Control::Continue,
                }
            }
        };
        let id = req.get("id").and_then(Json::as_str).unwrap_or("");
        let Some(op) = req.get("op").and_then(Json::as_str) else {
            return Reply {
                text: error_line("", id, "invalid-request", "missing `op` field"),
                control: Control::Continue,
            };
        };
        match op {
            "ping" => Reply {
                text: ok_head("ping", id) + "}",
                control: Control::Continue,
            },
            "shutdown" => Reply {
                text: ok_head("shutdown", id) + "}",
                control: Control::Shutdown,
            },
            "stats" => Reply {
                text: self.stats(id),
                control: Control::Continue,
            },
            "snapshot" => Reply {
                text: self.snapshot(id, &req),
                control: Control::Continue,
            },
            "restore" => Reply {
                text: self.restore(id, &req),
                control: Control::Continue,
            },
            "cancel" => Reply {
                text: self.cancel(id),
                control: Control::Continue,
            },
            "size" | "explore" | "batch" => Reply {
                text: self.work(op, id, &req),
                control: Control::Continue,
            },
            other => Reply {
                text: error_line(
                    other,
                    id,
                    "invalid-request",
                    &format!("unknown op `{other}`"),
                ),
                control: Control::Continue,
            },
        }
    }

    /// Admission + fence + span wrapper around the three work ops.
    fn work(&self, op: &str, id: &str, req: &Json) -> String {
        // Admission control: bounded concurrency, excess rejected as a
        // typed budget row (clients retry; the daemon never queues
        // unboundedly).
        if self.inflight.fetch_add(1, Ordering::SeqCst) >= self.max_inflight {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return error_line(
                op,
                id,
                "budget",
                &format!("too many requests in flight (max {})", self.max_inflight),
            );
        }
        let _guard = CountGuard(&self.inflight);

        // Cancellation fence: a cancel op that arrived first (or during a
        // request still running under this id) rejects this request
        // before any sizing work.
        let token = if id.is_empty() {
            None
        } else {
            match self.enter_fence(id) {
                Some(token) => Some(token),
                None => return error_line(op, id, "budget", "cancelled before start"),
            }
        };
        let _fence = FenceGuard(self, id);

        let opts = match self.request_options(req, token) {
            Ok(o) => o,
            Err(text) => return error_line(op, id, "invalid-request", &text),
        };

        // One span per request, keyed by a serially allocated id so the
        // stable trace export is deterministic regardless of which client
        // thread ran the request.
        let scope = self.trace.scope("serve", self.trace.next_id(), 0);
        scope.begin(
            "serve-request",
            &[("op", op.into()), ("id", id.into())],
        );
        let entered = scope.enter();
        let out = match op {
            "size" => self.size(id, req, &opts),
            "explore" => self.explore(id, req, &opts),
            _ => self.batch(id, req, &opts),
        };
        drop(entered);
        scope.end("serve-request", &[]);
        out
    }

    /// Joins the fence under `id` (creating it if absent) and returns its
    /// token, or `None` if a cancel has tripped it. A tripped fence that
    /// no running request holds is consumed by the rejection, so ids are
    /// reusable.
    fn enter_fence(&self, id: &str) -> Option<Arc<CancelToken>> {
        let mut fences = lock(&self.cancels);
        let fence = fences.entry(id.to_owned()).or_insert_with(|| Fence {
            token: Arc::new(CancelToken::new()),
            holders: 0,
        });
        if fence.token.is_cancelled() {
            if fence.holders == 0 {
                fences.remove(id);
            }
            return None;
        }
        fence.holders += 1;
        Some(Arc::clone(&fence.token))
    }

    /// Leaves the fence under `id`; the last holder removes it.
    fn leave_fence(&self, id: &str) {
        let mut fences = lock(&self.cancels);
        if let Some(fence) = fences.get_mut(id) {
            fence.holders = fence.holders.saturating_sub(1);
            if fence.holders == 0 {
                fences.remove(id);
            }
        }
    }

    /// Per-request [`SizingOptions`]: the shared cache, the request's
    /// budget (clamped request override or server default), the fence
    /// token, optional corner preset.
    fn request_options(
        &self,
        req: &Json,
        cancel: Option<Arc<CancelToken>>,
    ) -> Result<SizingOptions, String> {
        let mut opts = SizingOptions {
            cache: Some(Arc::clone(&self.cache)),
            trace: self.trace.clone(),
            ..SizingOptions::default()
        };
        let ms = match req.get("budget_ms") {
            Some(v) => Some(
                v.as_usize()
                    .ok_or("`budget_ms` must be a non-negative integer")? as u64,
            ),
            None => self.budget_ms,
        };
        opts.budget.wall_clock = ms.map(Duration::from_millis);
        if let Some(v) = req.get("gp_iters") {
            opts.budget.max_gp_iters =
                Some(v.as_usize().ok_or("`gp_iters` must be a non-negative integer")?);
        }
        if let Some(v) = req.get("max_candidates") {
            opts.budget.max_candidates = Some(
                v.as_usize()
                    .ok_or("`max_candidates` must be a non-negative integer")?,
            );
        }
        opts.budget.cancel = cancel;
        if let Some(v) = req.get("corners") {
            match v.as_str() {
                Some("stf") => {
                    opts.corners = Some(CornerSet::slow_typical_fast(self.lib.process()));
                }
                _ => return Err("`corners` only knows the `stf` preset".to_owned()),
            }
        }
        Ok(opts)
    }

    fn parse_target(req: &Json) -> Result<(MacroSpec, String, f64, f64), String> {
        let name = req
            .get("macro")
            .and_then(Json::as_str)
            .ok_or("missing `macro` field")?;
        let spec = MacroSpec::parse(name).ok_or_else(|| format!("unknown macro `{name}`"))?;
        let load = match req.get("load") {
            Some(v) => v.as_f64().ok_or("`load` must be a number")?,
            None => 15.0,
        };
        let delay = match req.get("delay") {
            Some(v) => v.as_f64().ok_or("`delay` must be a number")?,
            None => 300.0,
        };
        if !(load.is_finite() && load > 0.0 && delay.is_finite() && delay > 0.0) {
            return Err("`load` and `delay` must be positive".to_owned());
        }
        Ok((spec, name.to_owned(), load, delay))
    }

    /// The memoised elaboration of `spec`, plus the circuit when this call
    /// had to generate it (so a cache miss right after does not generate
    /// it again).
    fn elaboration(&self, spec: &MacroSpec) -> (Arc<Elaboration>, Option<Circuit>) {
        if let Some(e) = lock(&self.memo).get(spec) {
            return (Arc::clone(e), None);
        }
        let circuit = spec.generate();
        let e = Arc::new(Elaboration {
            structure: circuit.structural_hash(),
            outputs: circuit.output_ports().map(|p| p.name.clone()).collect(),
        });
        let mut memo = lock(&self.memo);
        if memo.len() >= MEMO_CAP && !memo.contains_key(spec) {
            if let Some(victim) = memo.keys().next().cloned() {
                memo.remove(&victim);
            }
        }
        memo.insert(spec.clone(), Arc::clone(&e));
        (e, Some(circuit))
    }

    fn boundary(outputs: &[String], load: f64) -> Boundary {
        let mut b = Boundary::default();
        for name in outputs {
            b.output_loads.insert(name.clone(), load);
        }
        b
    }

    /// Sizes one macro, elaborating it only if neither the memo nor the
    /// cache can answer.
    fn size_spec(
        &self,
        spec: &MacroSpec,
        load: f64,
        delay: f64,
        opts: &SizingOptions,
    ) -> Result<SizingOutcome, FlowError> {
        let (elab, circuit) = self.elaboration(spec);
        size_lazily(
            || elab.structure,
            || Cow::Owned(circuit.unwrap_or_else(|| spec.generate())),
            &self.lib,
            &Self::boundary(&elab.outputs, load),
            &DelaySpec::uniform(delay),
            opts,
        )
    }

    fn size(&self, id: &str, req: &Json, opts: &SizingOptions) -> String {
        let (spec, name, load, delay) = match Self::parse_target(req) {
            Ok(t) => t,
            Err(detail) => return error_line("size", id, "invalid-request", &detail),
        };
        match self.size_spec(&spec, load, delay, opts) {
            Ok(out) => {
                let mut s = ok_head("size", id);
                s.push_str(",\"macro\":");
                push_str_escaped(&mut s, &name);
                push_outcome(&mut s, &out);
                s.push('}');
                s
            }
            Err(e) => flow_error_line("size", id, &name, &e),
        }
    }

    fn explore(&self, id: &str, req: &Json, opts: &SizingOptions) -> String {
        let (spec, name, load, delay) = match Self::parse_target(req) {
            Ok(t) => t,
            Err(detail) => return error_line("explore", id, "invalid-request", &detail),
        };
        let boundary = Self::boundary(&self.elaboration(&spec).0.outputs, load);
        let table = explore_parallel(
            &spec,
            &self.lib,
            &boundary,
            &DelaySpec::uniform(delay),
            opts,
            &self.par,
        );
        let mut s = ok_head("explore", id);
        s.push_str(",\"macro\":");
        push_str_escaped(&mut s, &name);
        s.push_str(",\"rows\":[");
        for (i, cand) in table.candidates.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"spec\":");
            push_str_escaped(&mut s, &cand.spec.to_string());
            match &cand.result {
                Ok(m) => {
                    s.push_str(",\"status\":\"ok\",\"width\":");
                    push_f64(&mut s, m.outcome.total_width);
                    s.push_str(",\"power\":");
                    push_f64(&mut s, m.power.total());
                    s.push_str(",\"clock\":");
                    push_f64(&mut s, m.clock_load);
                    s.push_str(",\"delay\":");
                    push_f64(&mut s, m.outcome.measured_delay);
                }
                Err(e) => {
                    s.push_str(",\"status\":");
                    push_str_escaped(&mut s, e.taxonomy());
                    s.push_str(",\"detail\":");
                    push_str_escaped(&mut s, &e.to_string());
                }
            }
            s.push('}');
        }
        s.push_str("],\"feasible\":");
        let _ = write!(s, "{}", table.feasible_count());
        s.push('}');
        s
    }

    fn batch(&self, id: &str, req: &Json, opts: &SizingOptions) -> String {
        let Some(items) = req.get("requests").and_then(Json::as_array) else {
            return error_line("batch", id, "invalid-request", "missing `requests` array");
        };
        // Parse every item up front so malformed entries become rows, not
        // worker-side surprises, and the pool jobs are pure.
        let targets: Vec<Result<(MacroSpec, String, f64, f64), String>> =
            items.iter().map(Self::parse_target).collect();
        let rows = smart_core::run_indexed(targets.len(), &self.par, |i| match &targets[i] {
            Err(detail) => {
                let name = items[i]
                    .get("macro")
                    .and_then(Json::as_str)
                    .unwrap_or("");
                batch_row(name, Err(("invalid-request", detail.clone())))
            }
            Ok((spec, name, load, delay)) => match self.size_spec(spec, *load, *delay, opts) {
                Ok(out) => batch_row(name, Ok(&out)),
                Err(e) => batch_row(name, Err((e.taxonomy(), e.to_string()))),
            },
        });
        let mut s = ok_head("batch", id);
        s.push_str(",\"rows\":[");
        let mut feasible = 0usize;
        for (i, slot) in rows.into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            match slot {
                Some((row, ok)) => {
                    feasible += usize::from(ok);
                    s.push_str(&row);
                }
                // A pool worker died mid-row: same containment as the
                // exploration sweep, one panic row.
                None => s.push_str(&batch_row("", Err(("panic", "worker died".to_owned()))).0),
            }
        }
        s.push_str("],\"feasible\":");
        let _ = write!(s, "{feasible}");
        s.push('}');
        s
    }

    fn stats(&self, id: &str) -> String {
        let (hits, misses) = self.cache.stats();
        let mut s = ok_head("stats", id);
        let _ = write!(
            s,
            ",\"entries\":{},\"hits\":{hits},\"misses\":{misses},\"poisoned\":{},\"evicted\":{},\"shards\":{}",
            self.cache.len(),
            self.cache.poisoned(),
            self.cache.evicted(),
            self.cache.shard_count(),
        );
        match self.cache.budget() {
            Some(b) => {
                let _ = write!(s, ",\"budget\":{b}");
            }
            None => s.push_str(",\"budget\":null"),
        }
        let _ = write!(
            s,
            ",\"memo_entries\":{},\"memo_cap\":{MEMO_CAP},\"fences\":{},\"fence_cap\":{FENCE_CAP},\"connections\":{}",
            lock(&self.memo).len(),
            lock(&self.cancels).len(),
            self.connections.load(Ordering::SeqCst)
        );
        match self.cache.restore_rejected() {
            Some(why) => {
                let _ = write!(s, ",\"restore_rejected\":\"{why}\"");
            }
            None => s.push_str(",\"restore_rejected\":null"),
        }
        s.push('}');
        s
    }

    fn snapshot(&self, id: &str, req: &Json) -> String {
        let Some(path) = req.get("path").and_then(Json::as_str) else {
            return error_line("snapshot", id, "invalid-request", "missing `path` field");
        };
        match self.cache.save_snapshot(std::path::Path::new(path)) {
            Ok(()) => {
                let mut s = ok_head("snapshot", id);
                let _ = write!(s, ",\"entries\":{}", self.cache.len());
                s.push('}');
                s
            }
            Err(e) => error_line("snapshot", id, "invalid-request", &format!("{path}: {e}")),
        }
    }

    fn restore(&self, id: &str, req: &Json) -> String {
        let Some(path) = req.get("path").and_then(Json::as_str) else {
            return error_line("restore", id, "invalid-request", "missing `path` field");
        };
        match self.cache.load_snapshot(std::path::Path::new(path)) {
            Some(entries) => {
                let mut s = ok_head("restore", id);
                let _ = write!(s, ",\"entries\":{entries}");
                s.push('}');
                s
            }
            None => {
                let why = self.cache.restore_rejected().unwrap_or("damaged");
                error_line(
                    "restore",
                    id,
                    "invalid-request",
                    &format!("{path}: no snapshot ({why})"),
                )
            }
        }
    }

    fn cancel(&self, id: &str) -> String {
        if id.is_empty() {
            return error_line("cancel", "", "invalid-request", "cancel needs an `id`");
        }
        let mut fences = lock(&self.cancels);
        match fences.get(id) {
            Some(fence) => fence.token.cancel(),
            None if fences.len() >= FENCE_CAP => {
                return error_line(
                    "cancel",
                    id,
                    "budget",
                    &format!("too many pending cancel fences (max {FENCE_CAP})"),
                )
            }
            None => {
                let token = Arc::new(CancelToken::new());
                token.cancel();
                fences.insert(id.to_owned(), Fence { token, holders: 0 });
            }
        }
        ok_head("cancel", id) + ",\"fenced\":true}"
    }
}

use std::fmt::Write as _;

fn ok_head(op: &str, id: &str) -> String {
    let mut s = String::with_capacity(64);
    s.push_str("{\"ok\":true,\"op\":");
    push_str_escaped(&mut s, op);
    s.push_str(",\"id\":");
    push_str_escaped(&mut s, id);
    s
}

pub(crate) fn error_line(op: &str, id: &str, taxonomy: &str, detail: &str) -> String {
    let mut s = String::with_capacity(96);
    s.push_str("{\"ok\":false,\"op\":");
    push_str_escaped(&mut s, op);
    s.push_str(",\"id\":");
    push_str_escaped(&mut s, id);
    s.push_str(",\"error\":");
    push_str_escaped(&mut s, taxonomy);
    s.push_str(",\"detail\":");
    push_str_escaped(&mut s, detail);
    s.push('}');
    s
}

fn flow_error_line(op: &str, id: &str, name: &str, e: &FlowError) -> String {
    let mut s = String::with_capacity(128);
    s.push_str("{\"ok\":false,\"op\":");
    push_str_escaped(&mut s, op);
    s.push_str(",\"id\":");
    push_str_escaped(&mut s, id);
    s.push_str(",\"macro\":");
    push_str_escaped(&mut s, name);
    s.push_str(",\"error\":");
    push_str_escaped(&mut s, e.taxonomy());
    s.push_str(",\"detail\":");
    push_str_escaped(&mut s, &e.to_string());
    s.push('}');
    s
}

fn push_outcome(s: &mut String, out: &SizingOutcome) {
    s.push_str(",\"width\":");
    push_f64(s, out.total_width);
    s.push_str(",\"delay\":");
    push_f64(s, out.measured_delay);
    s.push_str(",\"precharge\":");
    push_f64(s, out.measured_precharge);
    let _ = write!(s, ",\"iterations\":{}", out.iterations);
    s.push_str(",\"relaxation\":");
    push_f64(s, out.spec_relaxation);
    s.push_str(",\"binding\":");
    push_str_escaped(s, &out.binding_corner);
}

/// Renders one batch row; the `bool` marks feasibility for the summary
/// count.
fn batch_row(name: &str, result: Result<&SizingOutcome, (&str, String)>) -> (String, bool) {
    let mut s = String::with_capacity(96);
    s.push_str("{\"macro\":");
    push_str_escaped(&mut s, name);
    match result {
        Ok(out) => {
            s.push_str(",\"status\":\"ok\"");
            push_outcome(&mut s, out);
            s.push('}');
            (s, true)
        }
        Err((taxonomy, detail)) => {
            s.push_str(",\"status\":");
            push_str_escaped(&mut s, taxonomy);
            s.push_str(",\"detail\":");
            push_str_escaped(&mut s, &detail);
            s.push('}');
            (s, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The library reads no environment: ci.sh runs this under
    /// `SMART_WORKERS=4 SMART_TRACE=1`, and the defaults must still be a
    /// disabled trace and a serial pool.
    #[test]
    fn option_defaults_ignore_the_environment() {
        assert!(!SizingOptions::default().trace.is_enabled());
        let opts = ServeOptions::default();
        assert!(!opts.trace.is_enabled());
        assert_eq!(Advisor::new(opts).par, ParallelOptions::serial());
    }

    /// Two in-flight requests under one id share a fence. When the first
    /// finishes, the fence must survive, so a later `cancel` reaches the
    /// second request instead of planting a stale fence that would reject
    /// the next request with that id.
    #[test]
    fn same_id_fence_lives_until_its_last_holder_finishes() {
        let advisor = Advisor::new(ServeOptions::default());
        let first = advisor.enter_fence("x").expect("no fence yet");
        let second = advisor.enter_fence("x").expect("fence not tripped");
        assert!(Arc::ptr_eq(&first, &second), "one id, one token");
        advisor.leave_fence("x");
        let reply = advisor.handle_line(r#"{"op":"cancel","id":"x"}"#);
        assert!(reply.text.contains("\"fenced\":true"), "{}", reply.text);
        assert!(second.is_cancelled(), "cancel must reach the running request");
        advisor.leave_fence("x");
        assert!(
            advisor.enter_fence("x").is_some(),
            "no stale fence may reject the next request with the id"
        );
        advisor.leave_fence("x");
        assert_eq!(lock(&advisor.cancels).len(), 0, "every fence is released");
    }
}
