//! `serve-mix`: a warm-restarted advisor behind `serve_unix` on a thread
//! of this process, driven by two closed-loop client connections.
//!
//! Set-up primes the hot set, snapshots the cache to disk and restores it
//! into a fresh advisor — the daemon's warm restart. The timed phase then
//! replays 80% hot-set requests (which must come back byte-identical to
//! their priming replies) and 20% fresh `size` requests that miss, insert
//! and, past 1024 entries, evict.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smart_core::{DelaySpec, ParallelOptions, SizingCache};
use smart_macros::MacroSpec;
use smart_models::ModelLibrary;
use smart_serve::json::Json;
use smart_serve::{serve_unix, Advisor, ServeOptions};
use smart_trace::Trace;

use crate::inputs::{self, ExploreOp, Request, RequestStream, Workload};
use crate::replay::{self, Ledger, Row};
use crate::stats::median;
use crate::{layer_metrics, tail_metric, Config, RunResult};

/// Closed-loop client connections (this host has two cores).
const CLIENTS: u64 = 2;
const SHARDS: usize = 8;
const CAPACITY: usize = 1024;

/// Requests per client the stage replay re-executes.
const REPLAY_PER_CLIENT: usize = 128;

/// Warm restarts whose median is `setup_s`.
const SETUP_REPEATS: usize = 5;

/// Requests each client sends even when the run's time is already up.
const MIN_REQUESTS: usize = 32;

fn serve_options() -> ServeOptions {
    ServeOptions {
        shards: SHARDS,
        capacity: Some(CAPACITY),
        max_inflight: 32,
        budget_ms: None,
        parallel: Some(ParallelOptions::serial()),
        trace: Trace::disabled(),
    }
}

/// Whether a reply is an answer: a sizing, an exploration whose every row
/// is a sizing or infeasible, or an infeasibility error.
fn answered(reply: &str) -> bool {
    let Ok(v) = Json::parse(reply) else {
        return false;
    };
    let status = |v: &Json, key| v.get(key).and_then(Json::as_str).map(str::to_owned);
    match v.get("ok") {
        Some(Json::Bool(true)) => v.get("rows").and_then(Json::as_array).is_none_or(|rows| {
            rows.iter()
                .all(|r| matches!(status(r, "status").as_deref(), Some("ok" | "infeasible")))
        }),
        _ => status(&v, "error").as_deref() == Some("infeasible"),
    }
}

/// What the warm restart produced.
struct Warm {
    advisor: Advisor,
    priming: Vec<String>,
    snapshot_ms: f64,
    restore_ms: f64,
    snapshot_bytes: u64,
}

fn warm_restart(hot: &[String], snap: &Path) -> Result<Warm, String> {
    let primer = Advisor::new(serve_options());
    let priming: Vec<String> = hot.iter().map(|l| primer.handle_line(l).text).collect();
    let start = Instant::now();
    primer
        .cache()
        .save_snapshot(snap)
        .map_err(|e| format!("snapshot {}: {e}", snap.display()))?;
    let snapshot_ms = start.elapsed().as_secs_f64() * 1e3;
    let advisor = Advisor::new(serve_options());
    let start = Instant::now();
    let restored = advisor.cache().load_snapshot(snap);
    let restore_ms = start.elapsed().as_secs_f64() * 1e3;
    if restored != Some(primer.cache().len()) {
        return Err(format!(
            "restored {restored:?} of {} snapshot entries",
            primer.cache().len()
        ));
    }
    Ok(Warm {
        advisor,
        priming,
        snapshot_ms,
        restore_ms,
        snapshot_bytes: std::fs::metadata(snap).map_or(0, |m| m.len()),
    })
}

/// One client's closed loop.
#[derive(Default)]
struct ClientLog {
    latency_ms: Vec<f64>,
    /// Completion time of each request, in seconds since the run started.
    done_s: Vec<f64>,
    failed: usize,
    /// Hot-set replies that differ from their priming reply.
    changed: usize,
    transport: Option<String>,
    /// The first requests and their replies, for the stage replay.
    sample: Vec<(String, String)>,
}

fn connect(sock: &Path) -> std::io::Result<UnixStream> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(sock) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= give_up => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn client(
    sock: &Path,
    stream: RequestStream,
    (began, until): (Instant, Instant),
    priming: &[String],
    ok: &[bool],
) -> ClientLog {
    let mut log = ClientLog::default();
    let conn = match connect(sock) {
        Ok(c) => c,
        Err(e) => {
            log.transport = Some(format!("connect: {e}"));
            return log;
        }
    };
    let mut reader = match conn.try_clone() {
        Ok(c) => BufReader::new(c),
        Err(e) => {
            log.transport = Some(format!("clone: {e}"));
            return log;
        }
    };
    let mut writer = conn;
    let mut reply = String::new();
    for Request { line, hot } in stream {
        if log.latency_ms.len() >= MIN_REQUESTS && Instant::now() >= until {
            break;
        }
        let start = Instant::now();
        reply.clear();
        let sent = writer.write_all(format!("{line}\n").as_bytes());
        match sent.and_then(|()| reader.read_line(&mut reply)) {
            Ok(n) if n > 0 => {}
            Ok(_) => {
                log.transport = Some("server closed the connection".to_owned());
                break;
            }
            Err(e) => {
                log.transport = Some(e.to_string());
                break;
            }
        }
        log.latency_ms.push(start.elapsed().as_secs_f64() * 1e3);
        log.done_s.push(began.elapsed().as_secs_f64());
        let text = reply.trim_end_matches('\n');
        match hot {
            Some(i) => {
                log.changed += usize::from(text != priming[i]);
                log.failed += usize::from(!ok[i]);
            }
            None => log.failed += usize::from(!answered(text)),
        }
        if log.sample.len() < REPLAY_PER_CLIENT {
            log.sample.push((line, text.to_owned()));
        }
    }
    log
}

fn shutdown(sock: &Path) -> Result<(), String> {
    let mut conn = UnixStream::connect(sock).map_err(|e| format!("shutdown connect: {e}"))?;
    conn.write_all(b"{\"op\":\"shutdown\"}\n")
        .map_err(|e| format!("shutdown: {e}"))?;
    let mut reply = String::new();
    BufReader::new(conn)
        .read_line(&mut reply)
        .map_err(|e| format!("shutdown reply: {e}"))?;
    Ok(())
}

pub fn run(cfg: &Config) -> RunResult {
    let mut out = RunResult::new(Workload::ServeMix, cfg);
    let hot = inputs::hot_set(cfg.seed);
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        out.problem(format!("{}: {e}", cfg.out_dir.display()));
        return out;
    }
    let snap = cfg.scratch("snap");
    let (mut setup_s, mut snapshot_ms, mut restore_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut warm = None;
    for _ in 0..if cfg.smoke { 1 } else { SETUP_REPEATS } {
        let start = Instant::now();
        match warm_restart(&hot, &snap) {
            Ok(w) => {
                setup_s.push(start.elapsed().as_secs_f64());
                snapshot_ms.push(w.snapshot_ms);
                restore_ms.push(w.restore_ms);
                warm = Some(w);
            }
            Err(e) => {
                out.problem(e);
                let _ = std::fs::remove_file(&snap);
                return out;
            }
        }
    }
    let Some(warm) = warm else {
        unreachable!("at least one setup repetition")
    };
    let ok: Vec<bool> = warm.priming.iter().map(|r| answered(r)).collect();
    for (i, good) in ok.iter().enumerate() {
        if !good {
            out.problem(format!(
                "hot request {i} was not answered: {}",
                warm.priming[i]
            ));
        }
    }
    out.set_digest({
        let mut h = smart_netlist::StableHasher::new();
        warm.priming.iter().for_each(|r| h.write_str(r));
        h.finish()
    });

    let sock = cfg.scratch("sock");
    let advisor = Arc::new(warm.advisor);
    let server = {
        let advisor = Arc::clone(&advisor);
        let sock = sock.clone();
        std::thread::spawn(move || serve_unix(advisor, &sock))
    };
    let (hits0, misses0) = advisor.cache().stats();
    let (evicted0, entries0) = (advisor.cache().evicted(), advisor.cache().len());
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(cfg.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (sock, priming, ok) = (&sock, &warm.priming, &ok);
                let stream = RequestStream::new(cfg.seed, c);
                s.spawn(move || client(sock, stream, (start, until), priming, ok))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientLog {
                    transport: Some("client thread panicked".to_owned()),
                    ..ClientLog::default()
                })
            })
            .collect()
    });
    let wall = logs
        .iter()
        .filter_map(|l| l.done_s.last().copied())
        .fold(0.0, f64::max);
    if let Err(e) = shutdown(&sock) {
        out.problem(e);
    }
    match server.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => out.problem(format!("server: {e}")),
        Err(_) => out.problem("server thread panicked".to_owned()),
    }

    let latency: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latency_ms.iter().copied())
        .collect();
    out.attempted = latency.len();
    for log in &logs {
        out.failed += log.failed + usize::from(log.transport.is_some());
        if let Some(e) = &log.transport {
            out.problem(format!("transport: {e}"));
        }
        if log.changed > 0 {
            out.problem(format!(
                "{} hot replies differ from their priming reply",
                log.changed
            ));
        }
    }
    out.metric("setup_s", "s", median(&setup_s));
    let done: Vec<f64> = logs.iter().flat_map(|l| l.done_s.iter().copied()).collect();
    out.metric("throughput_ops", "1/s", windowed_rate(&done, wall));
    out.metric("latency_p50_ms", "ms", median(&latency));
    tail_metric(&mut out, &latency);
    out.sample("requests", latency.len());

    if cfg.trace {
        let cache = advisor.cache();
        let (hits, misses) = cache.stats();
        let lookups = (hits + misses - hits0 - misses0) as f64;
        let evicted = cache.evicted() - evicted0;
        out.metric("cache.lookups", "count", lookups);
        out.metric(
            "cache.hit_ratio",
            "ratio",
            (hits - hits0) as f64 / lookups.max(1.0),
        );
        out.metric(
            "cache.inserts",
            "count",
            (cache.len() + evicted - entries0) as f64,
        );
        out.metric("cache.evicted", "count", evicted as f64);
        out.metric("cache.entries", "count", cache.len() as f64);
        out.metric(
            "persist.snapshot_bytes",
            "bytes",
            warm.snapshot_bytes as f64,
        );
        out.metric("persist.snapshot_ms", "ms", median(&snapshot_ms));
        out.metric("persist.restore_ms", "ms", median(&restore_ms));
        let sample: Vec<&(String, String)> = interleave(&logs);
        stage_replay(&mut out, &sample, &snap, median(&latency));
    }
    let _ = std::fs::remove_file(&snap);
    out
}

/// Requests completed per second: the median over the run's whole
/// one-second windows, so a host hiccup in a few windows does not move it
/// (the overall rate when the run is shorter than three windows).
fn windowed_rate(done_s: &[f64], wall: f64) -> f64 {
    let windows = wall.floor() as usize;
    if windows < 3 {
        return done_s.len() as f64 / wall;
    }
    let mut counts = vec![0.0; windows];
    for &t in done_s {
        if let Some(c) = counts.get_mut(t as usize) {
            *c += 1.0;
        }
    }
    median(&counts)
}

/// The replayed requests, alternating between the clients' samples.
fn interleave(logs: &[ClientLog]) -> Vec<&(String, String)> {
    let longest = logs.iter().map(|l| l.sample.len()).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| logs.iter().filter_map(move |l| l.sample.get(i)))
        .collect()
}

/// Replays the sampled requests, each twice in a row and each side from
/// its own copy of the restored set-up snapshot: untraced through
/// `Advisor::handle_line` in process (the reply must equal the socket reply
/// byte for byte), then through the layer chain with a span per call (its
/// rows must carry the reply's width bits or taxonomy). Pairing the two
/// executions of a request keeps host drift out of the overhead figure.
fn stage_replay(out: &mut RunResult, sample: &[&(String, String)], snap: &Path, client_p50: f64) {
    let advisor = Advisor::new(serve_options());
    let cache = SizingCache::bounded(SHARDS, Some(CAPACITY));
    if advisor.cache().load_snapshot(snap).is_none() || cache.load_snapshot(snap).is_none() {
        out.problem("replay could not restore the snapshot".to_owned());
    }
    let lib = ModelLibrary::reference();
    let opts = inputs::sizing_options(&lib, false);
    let mut ledger = Ledger::default();
    let (mut handle_s, mut chain_s) = (Vec::with_capacity(sample.len()), 0.0);
    let mut mismatches = 0usize;
    for (line, reply) in sample {
        let start = Instant::now();
        let text = advisor.handle_line(line).text;
        handle_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let rows = replay_request(line, &lib, &opts, &cache, &mut ledger);
        chain_s += start.elapsed().as_secs_f64();
        mismatches += usize::from(text != *reply);
        mismatches += usize::from(rows.is_none_or(|rows| !rows_match(&rows, reply)));
    }

    layer_metrics(out, &ledger);
    let p50_us = |layer| median(ledger.samples(layer)) * 1e6;
    out.metric("cache.key_us_p50", "us", p50_us("cache.key"));
    out.metric("cache.lookup_us_p50", "us", p50_us("cache.lookup"));
    out.metric("serve.parse_us_p50", "us", p50_us("serve.parse"));
    let handle_p50 = median(&handle_s) * 1e3;
    out.metric("serve.handle_ms_p50", "ms", handle_p50);
    out.metric("serve.transport_ms_p50", "ms", client_p50 - handle_p50);
    out.metric("replay.coverage", "ratio", ledger.covered_s() / chain_s);
    out.metric("replay.mismatches", "count", mismatches as f64);
    let handle_total: f64 = handle_s.iter().sum();
    out.metric(
        "replay.overhead_pct",
        "%",
        100.0 * (chain_s / handle_total - 1.0),
    );
    out.sample("replayed", sample.len());
}

/// Re-executes one request line through the layer chain the advisor runs
/// for it; `None` for a line the advisor would reject.
fn replay_request(
    line: &str,
    lib: &ModelLibrary,
    opts: &smart_core::SizingOptions,
    cache: &SizingCache,
    ledger: &mut Ledger,
) -> Option<Vec<Row>> {
    let req = ledger.time("serve.parse", || Json::parse(line)).ok()?;
    let name = req.get("macro").and_then(Json::as_str)?;
    let request = MacroSpec::parse(name)?;
    let load = req.get("load").and_then(Json::as_f64)?;
    let spec = DelaySpec::uniform(req.get("delay").and_then(Json::as_f64)?);
    let circuit = ledger.time("macros", || request.generate());
    let boundary = inputs::boundary_for(&circuit, load);
    match req.get("op").and_then(Json::as_str)? {
        "size" => {
            let result = replay::size(&circuit, lib, &boundary, &spec, opts, Some(cache), ledger);
            Some(vec![Row::of(&request, result.as_ref())])
        }
        "explore" => {
            let op = ExploreOp {
                request,
                boundary,
                spec,
            };
            Some(replay::explore(&op, lib, opts, Some(cache), ledger))
        }
        _ => None,
    }
}

/// Whether replayed rows carry what a reply shows: the total width bits of
/// each sizing, or its taxonomy.
fn rows_match(rows: &[Row], reply: &str) -> bool {
    let Ok(v) = Json::parse(reply) else {
        return false;
    };
    let shows = |row: &Row, obj: &Json, status_key: &str| match &row.result {
        Ok(s) => {
            obj.get("width").and_then(Json::as_f64).map(f64::to_bits)
                == Some(s.total_width.to_bits())
        }
        Err(t) => obj.get(status_key).and_then(Json::as_str) == Some(*t),
    };
    match v.get("rows").and_then(Json::as_array) {
        Some(replied) => {
            replied.len() == rows.len()
                && rows
                    .iter()
                    .zip(replied)
                    .all(|(row, r)| shows(row, r, "status"))
        }
        None => rows.len() == 1 && shows(&rows[0], &v, "error"),
    }
}

/// Path of a per-process scratch file in the results directory.
impl Config {
    fn scratch(&self, ext: &str) -> PathBuf {
        self.out_dir
            .join(format!("serve-{}.{ext}", std::process::id()))
    }
}
