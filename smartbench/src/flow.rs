//! `sweep-db`, `sweep-stf` and `adder64`: serial exploration requests
//! through `explore_parallel`, the path a designer's sweep takes.

use std::time::Instant;

use smart_core::{explore_parallel, ParallelOptions, SizingOptions};
use smart_models::ModelLibrary;

use crate::inputs::{self, ExploreOp, Workload};
use crate::replay::{self, Ledger, Row};
use crate::stats::median;
use crate::{layer_metrics, tail_metric, timed_passes, Config, RunResult};

/// Independent draw sets per sweep pass: averaging over more draws keeps
/// a pass's cost, and so the run's medians, nearly independent of the seed.
const SWEEP_SETS: usize = 4;

struct Flow {
    lib: ModelLibrary,
    opts: SizingOptions,
    ops: Vec<ExploreOp>,
}

/// Requests a `--smoke` sweep keeps: small macros, the same code paths.
const SMOKE_REQUESTS: [&str; 3] = [
    "mux4 (strongly-mutexed-passgate)",
    "zd16 (Domino)",
    "dec3to8",
];

fn setup(w: Workload, cfg: &Config) -> Flow {
    let lib = ModelLibrary::reference();
    let stf = w == Workload::SweepStf;
    let mut ops = match w {
        Workload::Adder64 => inputs::adder_ops(cfg.seed, if cfg.smoke { 8 } else { 64 }),
        _ => inputs::sweep_ops(cfg.seed, stf, if cfg.smoke { 1 } else { SWEEP_SETS }),
    };
    if cfg.smoke {
        ops.retain(|o| {
            w == Workload::Adder64 || SMOKE_REQUESTS.contains(&o.request.to_string().as_str())
        });
        ops.truncate(3);
    }
    Flow {
        opts: inputs::sizing_options(&lib, stf),
        lib,
        ops,
    }
}

pub fn run(w: Workload, cfg: &Config) -> RunResult {
    let mut out = RunResult::new(w, cfg);
    let start = Instant::now();
    let flow = setup(w, cfg);
    let mut setup_s = vec![start.elapsed().as_secs_f64()];

    let par = ParallelOptions::serial();
    let mut reference: Option<Vec<Row>> = None;
    // op_s[i] holds request i's time in every pass.
    let mut op_s: Vec<Vec<f64>> = vec![Vec::new(); flow.ops.len()];
    let pass_s = timed_passes(cfg, |pass| {
        let mut rows = Vec::new();
        let mut elapsed = 0.0;
        for (op, times) in flow.ops.iter().zip(&mut op_s) {
            let start = Instant::now();
            let table = explore_parallel(
                &op.request,
                &flow.lib,
                &op.boundary,
                &op.spec,
                &flow.opts,
                &par,
            );
            let dt = start.elapsed().as_secs_f64();
            elapsed += dt;
            times.push(dt);
            rows.extend(table.candidates.iter().map(Row::of_candidate));
        }
        out.attempted += rows.len();
        out.failed += rows.iter().filter(|r| r.failed()).count();
        match &reference {
            None => reference = Some(rows),
            Some(first) if *first != rows => {
                out.problem(format!("pass {pass} output differs from pass 0"));
            }
            Some(_) => {}
        }
        // Set-up takes milliseconds; timing it again after every pass
        // samples the host across the whole run, not only at its start.
        let start = Instant::now();
        drop(setup(w, cfg));
        setup_s.push(start.elapsed().as_secs_f64());
        elapsed
    });
    let reference = reference.unwrap_or_default();
    out.set_digest(replay::digest(&reference));
    // Every pass repeats the same requests, so each request's median over
    // the passes is its time with host hiccups filtered out.
    let typical_s: Vec<f64> = op_s.iter().map(|t| median(t)).collect();
    let all_ms: Vec<f64> = op_s.iter().flatten().map(|t| t * 1e3).collect();
    out.metric("setup_s", "s", median(&setup_s));
    out.metric(
        "throughput_ops",
        "1/s",
        reference.len() as f64 / typical_s.iter().sum::<f64>(),
    );
    out.metric("latency_p50_ms", "ms", median(&typical_s) * 1e3);
    tail_metric(&mut out, &all_ms);
    out.sample("passes", pass_s.len());
    out.sample("requests", all_ms.len());

    if cfg.trace {
        // One replay pass, each request run untraced and then replayed
        // back to back, so host drift cancels out of the overhead.
        let mut ledger = Ledger::default();
        let (mut untraced_s, mut replay_s) = (0.0, 0.0);
        let mut rows = Vec::new();
        for op in &flow.ops {
            let start = Instant::now();
            explore_parallel(
                &op.request,
                &flow.lib,
                &op.boundary,
                &op.spec,
                &flow.opts,
                &par,
            );
            untraced_s += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let replayed = replay::explore(op, &flow.lib, &flow.opts, None, &mut ledger);
            replay_s += start.elapsed().as_secs_f64();
            rows.extend(replayed);
        }
        let mismatches = rows.len().abs_diff(reference.len())
            + rows.iter().zip(&reference).filter(|(a, b)| a != b).count();
        layer_metrics(&mut out, &ledger);
        // The sweeps run with the cache off and persist nothing.
        for name in [
            "cache.lookups",
            "cache.inserts",
            "cache.evicted",
            "cache.entries",
        ] {
            out.metric(name, "count", 0.0);
        }
        out.metric("cache.hit_ratio", "ratio", 0.0);
        out.metric("persist.snapshot_bytes", "bytes", 0.0);
        out.metric("replay.coverage", "ratio", ledger.covered_s() / replay_s);
        out.metric("replay.mismatches", "count", mismatches as f64);
        out.metric(
            "replay.overhead_pct",
            "%",
            100.0 * (replay_s / untraced_s - 1.0),
        );
    }
    out
}
