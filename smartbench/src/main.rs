//! smartbench — one end-to-end benchmark of the SMART sizing flow and the
//! smart-serve daemon, with per-layer timings from a stage replay.
//!
//! ```text
//! smartbench [--seed N] [--seconds S] [--smoke]       all four workloads
//! smartbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! smartbench --calibrate                               print the T_REF tables
//! smartbench --compare A B                             bound-check two sets of runs
//! ```
//!
//! Without `--workload` the benchmark re-executes itself once per
//! workload (a fresh process each, so each gets its own set-up time and
//! memory figure) with the stage replay on, prints every metric and writes
//! one results file. With `--workload` the last line of standard output is
//! one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Any failed output check makes the
//! exit code non-zero. See README.md for the metrics and workloads.

mod compare;
mod flow;
mod inputs;
mod replay;
mod serve_mix;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use smart_serve::json::{push_f64, push_str_escaped, Json};

use crate::inputs::Workload;
use crate::replay::Ledger;

/// The metric list, bounds and workloads this benchmark is judged by.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Output digests of the default seed, and the recorded baseline runs.
const BASELINE_JSON: &str = include_str!("../baseline.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

fn parse_static(text: &str, what: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{what} does not parse: {e}"))
}

/// The metrics of one `BENCHMARK.json` section (`end_to_end` or
/// `per_layer`), in file order.
pub fn declared(section: &str) -> Vec<MetricSpec> {
    let spec = parse_static(BENCHMARK_JSON, "BENCHMARK.json");
    let items = spec.get(section).and_then(Json::as_array).unwrap_or(&[]);
    items
        .iter()
        .map(|m| {
            let text = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
            MetricSpec {
                name: text("name"),
                unit: text("unit"),
                higher_is_better: text("better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

/// The committed default-seed digest of `workload`.
fn committed_digest(workload: &str) -> Option<String> {
    parse_static(BASELINE_JSON, "baseline.json")
        .get("digests")
        .and_then(|d| d.get(workload))
        .and_then(Json::as_str)
        .map(str::to_owned)
}

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl Config {
    fn min_passes(&self) -> usize {
        if self.smoke {
            2
        } else {
            3
        }
    }
}

/// Runs `pass` (which returns its own measured seconds) until another
/// pass of median length would end past the configured duration, and at
/// least the minimum number of times. Whole passes keep every pass's
/// inputs, and so its cost, the same.
pub fn timed_passes(cfg: &Config, mut pass: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        times.push(pass(times.len()));
        let next_end = start.elapsed().as_secs_f64() + stats::median(&times);
        if times.len() >= cfg.min_passes() && next_end > cfg.seconds {
            return times;
        }
    }
}

/// One metric value as measured.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one workload run measured and checked.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    check_digest: bool,
    pub problems: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    pub digest: Option<u64>,
    pub metrics: Vec<Metric>,
    pub samples: Vec<(&'static str, usize)>,
}

impl RunResult {
    pub fn new(w: Workload, cfg: &Config) -> Self {
        RunResult {
            workload: w.name(),
            seed: cfg.seed,
            check_digest: cfg.seed == inputs::DEFAULT_SEED && !cfg.smoke,
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            digest: None,
            metrics: Vec::new(),
            samples: Vec::new(),
        }
    }

    pub fn problem(&mut self, p: String) {
        self.problems.push(p);
    }

    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn sample(&mut self, name: &'static str, n: usize) {
        self.samples.push((name, n));
    }

    /// Records the run's output digest; the default seed must reproduce
    /// the committed one.
    pub fn set_digest(&mut self, digest: u64) {
        self.digest = Some(digest);
        if self.check_digest {
            let found = format!("{digest:016x}");
            match committed_digest(self.workload) {
                Some(want) if want == found => {}
                want => self.problem(format!(
                    "output digest {found} != committed {}",
                    want.unwrap_or_else(|| "(none)".to_owned())
                )),
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// The per-layer metrics of one stage replay.
pub fn layer_metrics(out: &mut RunResult, ledger: &Ledger) {
    let ms = |layer| ledger.total_s(layer) * 1e3;
    let calls = |layer| ledger.calls(layer) as f64;
    let count = |name| ledger.counter(name);
    let rows: [(&'static str, &'static str, f64); 27] = [
        ("macros.generate_ms", "ms", ms("macros")),
        ("macros.generate_calls", "count", calls("macros")),
        ("lint.ms", "ms", ms("lint")),
        ("lint.calls", "count", calls("lint")),
        ("lint.rejected", "count", count("lint.rejected")),
        ("compact.ms", "ms", ms("compact")),
        ("compact.calls", "count", calls("compact")),
        ("compact.raw_paths", "count", count("compact.raw_paths")),
        ("compact.classes", "count", count("compact.classes")),
        ("gp_build.ms", "ms", ms("gp_build")),
        ("gp_build.calls", "count", count("gp_build.calls")),
        ("gp_build.retargets", "count", count("gp_build.retargets")),
        (
            "gp_build.constraints",
            "count",
            count("gp_build.constraints"),
        ),
        ("audit.ms", "ms", ms("audit")),
        ("audit.calls", "count", calls("audit")),
        ("audit.certificates", "count", count("audit.certificates")),
        ("gp.solve_ms", "ms", ms("gp")),
        ("gp.solves", "count", calls("gp")),
        ("gp.newton_steps", "count", count("gp.newton_steps")),
        ("gp.phase1_steps", "count", count("gp.phase1_steps")),
        ("gp.failed", "count", count("gp.failed")),
        ("sta.ms", "ms", ms("sta")),
        ("sta.calls", "count", count("sta.calls")),
        ("power.ms", "ms", ms("power")),
        ("power.calls", "count", calls("power")),
        ("sizing.outer_iters", "count", count("sizing.outer_iters")),
        (
            "sizing.feasible_ratio",
            "ratio",
            ledger.counter("sizing.ok") / ledger.counter("sizing.calls").max(1.0),
        ),
    ];
    for (name, unit, value) in rows {
        out.metric(name, unit, value);
    }
}

/// Records the highest latency percentile with at least ten samples
/// beyond it.
pub fn tail_metric(out: &mut RunResult, latency_ms: &[f64]) {
    let levels = [
        (0.999, "latency_p999_ms"),
        (0.99, "latency_p99_ms"),
        (0.9, "latency_p90_ms"),
    ];
    if let Some((name, v)) = levels
        .iter()
        .find_map(|&(p, name)| stats::percentile(latency_ms, p).map(|v| (name, v)))
    {
        out.metric(name, "ms", v);
    }
}

/// Where results files (and the serve workload's socket and snapshot) go:
/// `smartbench/` under the cargo target directory.
fn results_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("smartbench")
}

fn run_workload(w: Workload, cfg: &Config) -> RunResult {
    match w {
        Workload::ServeMix => serve_mix::run(cfg),
        _ => flow::run(w, cfg),
    }
}

/// The results-file object of one run.
fn result_json(r: &RunResult, cfg: &Config, host: &stats::Host) -> String {
    let mut s = String::from("{\"workload\":");
    push_str_escaped(&mut s, r.workload);
    s.push_str(&format!(
        ",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"correct\":{},\"attempted\":{},\"failed\":{}",
        r.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        r.correct(),
        r.attempted,
        r.failed
    ));
    s.push_str(",\"digest\":");
    match r.digest {
        Some(d) => push_str_escaped(&mut s, &format!("{d:016x}")),
        None => s.push_str("null"),
    }
    s.push_str(",\"problems\":[");
    for (i, p) in r.problems.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str_escaped(&mut s, p);
    }
    s.push_str("],\"host\":{\"nproc\":");
    s.push_str(&host.nproc.to_string());
    s.push_str(",\"cpu\":");
    push_str_escaped(&mut s, &host.cpu);
    s.push_str(",\"rustc\":");
    push_str_escaped(&mut s, &host.rustc);
    s.push_str("},\"samples\":{");
    for (i, (name, n)) in r.samples.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str_escaped(&mut s, name);
        s.push_str(&format!(":{n}"));
    }
    s.push_str("},\"metrics\":");
    s.push_str(&metrics_json(r.metrics.iter()));
    s.push('}');
    s
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        push_str_escaped(&mut s, m.name);
        s.push_str(": {\"value\": ");
        push_f64(&mut s, m.value);
        s.push_str(", \"unit\": ");
        push_str_escaped(&mut s, m.unit);
        s.push('}');
    }
    s.push('}');
    s
}

/// The last line of a run's output: the declared metrics of one section, in
/// `BENCHMARK.json` order. A declared metric the run did not produce, or
/// produced as a non-finite number or in another unit, fails the run.
fn summary_line(r: &mut RunResult, section: &str) -> String {
    let mut chosen = Vec::new();
    for spec in declared(section) {
        match r.metrics.iter().find(|m| m.name == spec.name) {
            Some(m) if m.value.is_finite() && m.unit == spec.unit => chosen.push(m.clone()),
            Some(m) => r.problem(format!("metric {} = {} {}", m.name, m.value, m.unit)),
            None => r.problem(format!("metric {} was not measured", spec.name)),
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics_json(chosen.iter())
    )
}

fn print_result(r: &RunResult) {
    println!("{} (seed {})", r.workload, r.seed);
    for m in &r.metrics {
        println!("  {:<26} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let samples: Vec<String> = r.samples.iter().map(|(n, k)| format!("{n}={k}")).collect();
    println!("  samples: {}", samples.join(" "));
    println!(
        "  attempted {} failed {}  digest {}",
        r.attempted,
        r.failed,
        r.digest.map_or("-".to_owned(), |d| format!("{d:016x}"))
    );
    for p in &r.problems {
        println!("  CHECK FAILED: {p}");
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_id(what: &str, seed: u64) -> String {
    let ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    format!("{what}-s{seed}-{ms}-{}", std::process::id())
}

/// `--workload`: one run in this process.
fn single(w: Workload, cfg: &Config, out: Option<PathBuf>) -> Result<bool, String> {
    let mut r = run_workload(w, cfg);
    r.metric("peak_rss_mb", "MiB", stats::peak_rss_mb());
    // Probed after the run: `rustc -V` is a child process.
    let host = stats::host();
    let line = summary_line(&mut r, if cfg.trace { "per_layer" } else { "end_to_end" });
    let path = out.unwrap_or_else(|| {
        cfg.out_dir
            .join(format!("{}.json", run_id(w.name(), cfg.seed)))
    });
    write_file(&path, &result_json(&r, cfg, &host))?;
    print_result(&r);
    println!("  results: {}", path.display());
    println!("{line}");
    Ok(r.correct())
}

/// No `--workload`: every workload in a fresh child process, traced.
fn all(cfg: &Config) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let host = stats::host();
    println!(
        "smartbench seed {} seconds {} on {} ({} cpus, {})",
        cfg.seed, cfg.seconds, host.cpu, host.nproc, host.rustc
    );
    let id = run_id("all", cfg.seed);
    let mut results = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let child_out = cfg.out_dir.join(&id).join(format!("{}.json", w.name()));
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name(), "--trace", "1"])
            .args([
                "--seed",
                &cfg.seed.to_string(),
                "--seconds",
                &cfg.seconds.to_string(),
            ])
            .arg("--out")
            .arg(&child_out);
        if cfg.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
        match std::fs::read_to_string(&child_out) {
            Ok(text) => results.push(text.trim().to_owned()),
            Err(e) => {
                ok = false;
                println!("{}: no results ({e})", w.name());
            }
        }
    }
    let path = cfg.out_dir.join(format!("{id}.json"));
    write_file(
        &path,
        &format!("{{\"run\":\"{id}\",\"results\":[{}]}}\n", results.join(",")),
    )?;
    println!("results: {}", path.display());
    println!(
        "{}",
        if ok {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    Ok(ok)
}

fn usage() -> String {
    "usage: smartbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]\n       smartbench --calibrate | --compare A B".to_owned()
}

fn main() -> ExitCode {
    match cli(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("smartbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn cli(args: Vec<String>) -> Result<bool, String> {
    let mut cfg = Config {
        seed: inputs::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out_dir: results_dir(),
    };
    let mut workload = None;
    let mut out = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--calibrate" => return inputs::calibrate().map(|()| true),
            "--compare" => {
                let (a, b) = (value()?, value()?);
                return compare::run(Path::new(&a), Path::new(&b), &declared("end_to_end"))
                    .map(|regressed| !regressed);
            }
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--smoke" => cfg.smoke = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if cfg.smoke {
        cfg.seconds = cfg.seconds.min(0.5);
    }
    match workload {
        Some(w) => single(w, &cfg, out),
        None => all(&cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `--smoke` run of all four workloads: every output check passes,
    /// every declared metric is produced with its declared unit, and the
    /// whole run stays short.
    #[test]
    fn smoke_runs_every_workload() {
        let cfg = Config {
            seed: 5,
            seconds: 0.0,
            trace: true,
            smoke: true,
            out_dir: results_dir().join(format!("test-{}", std::process::id())),
        };
        let start = Instant::now();
        for w in Workload::ALL {
            let mut r = run_workload(w, &cfg);
            r.metric("peak_rss_mb", "MiB", stats::peak_rss_mb());
            for section in ["end_to_end", "per_layer"] {
                summary_line(&mut r, section);
            }
            assert!(r.correct(), "{}: {:?}", r.workload, r.problems);
            assert!(r.attempted > 0 && r.failed == 0, "{}", r.workload);
            let mismatches = r.metrics.iter().find(|m| m.name == "replay.mismatches");
            assert_eq!(mismatches.map(|m| m.value), Some(0.0), "{}", r.workload);
        }
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
        let limit = if cfg!(debug_assertions) { 60.0 } else { 10.0 };
        assert!(
            start.elapsed().as_secs_f64() < limit,
            "{:?}",
            start.elapsed()
        );
    }

    /// The replay re-derives exactly what `size_circuit` computes, at one
    /// corner and at three.
    #[test]
    fn replay_matches_size_circuit() {
        use smart_core::{size_circuit, DelaySpec};
        use smart_macros::{MacroSpec, MuxTopology, ZeroDetectStyle};
        let lib = smart_models::ModelLibrary::reference();
        let cases = [
            MacroSpec::Mux {
                topology: MuxTopology::StronglyMutexedPass,
                width: 4,
            },
            MacroSpec::ZeroDetect {
                width: 16,
                style: ZeroDetectStyle::Domino,
            },
            MacroSpec::Incrementor { width: 8 },
        ];
        for stf in [false, true] {
            let opts = inputs::sizing_options(&lib, stf);
            for spec in &cases {
                let circuit = spec.generate();
                let boundary = inputs::boundary_for(&circuit, 15.0);
                for factor in [0.97, 1.3] {
                    let delay = DelaySpec::uniform(inputs::t_ref(spec, stf) * factor);
                    let want = size_circuit(&circuit, &lib, &boundary, &delay, &opts);
                    let got = replay::size(
                        &circuit,
                        &lib,
                        &boundary,
                        &delay,
                        &opts,
                        None,
                        &mut Ledger::default(),
                    );
                    assert_eq!(
                        replay::Row::of(spec, got.as_ref()),
                        replay::Row::of(spec, want.as_ref()),
                        "{spec} stf={stf} x{factor}"
                    );
                    if let (Ok(a), Ok(b)) = (&got, &want) {
                        assert_eq!(a.iterations, b.iterations);
                        assert_eq!(a.measured_delay.to_bits(), b.measured_delay.to_bits());
                        assert_eq!(a.corner_delays, b.corner_delays);
                    }
                }
            }
        }
    }

    /// The metric list in `BENCHMARK.json` is what the runs produce.
    #[test]
    fn benchmark_json_declares_valid_metrics() {
        let e2e = declared("end_to_end");
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        for m in &e2e {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(declared("per_layer").iter().all(|m| m.bound.is_none()));
        let spec = parse_static(BENCHMARK_JSON, "BENCHMARK.json");
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }
}
