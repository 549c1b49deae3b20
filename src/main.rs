//! `smart` — command-line front end to the SMART design advisor.
//!
//! ```text
//! smart list                                  # the design database
//! smart size <macro> [--load L] [--delay T] [--corners stf]   # size one instance
//! smart explore <macro> [--load L] [--delay T] [--corners stf]# Fig.-1 topology table
//! smart spice <macro> [--load L] [--delay T] [--corners stf]  # sized SPICE deck to stdout
//! smart tune-split <width> [--load L] [--delay T]  # partition tuner
//! smart export <macro>                        # structural netlist text
//! smart analyze <file>                        # parse + lint + path stats
//! smart audit <macro> [--load L] [--delay T] [--corners stf]   # static GP audit (no solve)
//! smart serve --script F | --listen A | --unix P   # resident advisor daemon
//! ```
//!
//! Macro names: `mux<N>[:<topology>]`, `inc<N>`, `dec<N>`, `zd<N>[:domino]`,
//! `decoder<N>`, `penc<N>`, `cmp<N>`, `cla<N>`, `rf<W>x<B>`,
//! `shift<N>[:sll|srl|rol]`.

use std::process::ExitCode;

use smart_datapath::core::{
    explore_parallel, size_circuit, tune_partition_point, DelaySpec, ParallelOptions,
    SizingOptions,
};
use smart_datapath::macros::MacroSpec;
use smart_datapath::models::ModelLibrary;
use smart_datapath::netlist::spice::to_spice;
use smart_datapath::netlist::text;
use smart_datapath::sta::Boundary;
use smart_datapath::trace::Trace;

fn usage() -> ExitCode {
    eprintln!(
        "usage: smart <list|size|explore|spice|export|analyze|audit|tune-split|serve> [macro|file] [--load L] [--delay T] [--corners stf]\n\
         macros: mux<N>[:pass|weak|enc|tri|dom|split]  inc<N>  dec<N>  zd<N>[:domino]\n\
         \x20       decoder<N>  penc<N>  cmp<N>  cla<N>  rf<W>x<B>  shift<N>[:sll|srl|rol]"
    );
    ExitCode::FAILURE
}

/// The number after `name`, or `default` when the flag is absent. A
/// missing or unparsable value is an error naming the flag and value.
fn flag(args: &[String], name: &str, default: f64) -> Result<f64, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let raw = args.get(i + 1).map_or("", String::as_str);
    raw.parse()
        .map_err(|_| format!("{name} {raw:?}: not a number"))
}

/// `--load` (default 15 fF) and `--delay` (default `delay` ps); a bad
/// value is reported on stderr and becomes the failure exit code.
fn load_and_delay(args: &[String], delay: f64) -> Result<(f64, f64), ExitCode> {
    flag(args, "--load", 15.0)
        .and_then(|load| Ok((load, flag(args, "--delay", delay)?)))
        .map_err(|e| {
            eprintln!("{e}");
            ExitCode::FAILURE
        })
}

/// `--corners stf` turns on the slow/typical/fast robust-sizing preset;
/// absent flag keeps the historical single-corner flow. Returns `Err`
/// with the offending value for anything else.
fn corner_opts(
    args: &[String],
    lib: &ModelLibrary,
    opts: &SizingOptions,
) -> Result<SizingOptions, String> {
    let mut opts = opts.clone();
    let Some(value) = args
        .iter()
        .position(|a| a == "--corners")
        .and_then(|i| args.get(i + 1))
    else {
        return Ok(opts);
    };
    match value.as_str() {
        "stf" => {
            opts.corners = Some(smart_datapath::models::CornerSet::slow_typical_fast(
                lib.process(),
            ));
            Ok(opts)
        }
        other => Err(other.to_owned()),
    }
}

fn boundary_for(circuit: &smart_datapath::netlist::Circuit, load: f64) -> Boundary {
    let mut b = Boundary::default();
    for p in circuit.output_ports() {
        b.output_loads.insert(p.name.clone(), load);
    }
    b
}

/// Writes the collected trace at process exit: the byte-stable JSON to
/// `SMART_TRACE_OUT` (stderr when unset) and, when `SMART_TRACE_CHROME`
/// names a file, the Chrome-trace span file for `chrome://tracing` /
/// Perfetto. No-op unless tracing is on (`SMART_TRACE=1`).
fn dump_trace(trace: &smart_datapath::trace::Trace) {
    if !trace.is_enabled() {
        return;
    }
    let report = trace.collect();
    let stable = report.to_json();
    match std::env::var("SMART_TRACE_OUT") {
        Ok(path) if !path.is_empty() => {
            if let Err(e) = std::fs::write(&path, &stable) {
                eprintln!("trace: cannot write {path}: {e}");
            }
        }
        _ => eprintln!("{stable}"),
    }
    if let Ok(path) = std::env::var("SMART_TRACE_CHROME") {
        if !path.is_empty() {
            if let Err(e) = std::fs::write(&path, report.to_chrome_json()) {
                eprintln!("trace: cannot write {path}: {e}");
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return usage();
    };
    let lib = ModelLibrary::reference();
    // The environment is read here and nowhere in the library.
    let opts = SizingOptions {
        trace: Trace::from_env(),
        ..SizingOptions::default()
    };

    // The CLI scope makes every command traced end to end: direct
    // sizing/analysis calls record into it via the thread-local context,
    // while exploration additionally opens its own sweep/candidate
    // scopes.
    let scope = opts.trace.scope("cli", opts.trace.next_id(), 0);
    scope.begin("cli", &[("command", cmd.into())]);
    let guard = scope.enter();
    // Inside the scope, so an unusable SMART_WORKERS is traced here.
    let par = ParallelOptions::from_env();
    let code = run(cmd, &args, &lib, &opts, &par);
    drop(guard);
    scope.end("cli", &[]);
    drop(scope);
    dump_trace(&opts.trace);
    code
}

fn run(
    cmd: &str,
    args: &[String],
    lib: &ModelLibrary,
    opts: &SizingOptions,
    par: &ParallelOptions,
) -> ExitCode {
    match cmd {
        "list" => {
            println!("built-in macro families (see `smart size <macro>`): ");
            for (name, example) in [
                ("mux<N>[:pass|weak|enc|tri|dom|split]", "mux8:dom"),
                ("inc<N> / dec<N>", "inc13"),
                ("zd<N>[:domino]", "zd22:domino"),
                ("decoder<N>  (N address bits)", "decoder4"),
                ("penc<N>     (N index bits)", "penc3"),
                ("cmp<N>      (D1-D2 comparator)", "cmp32"),
                ("cla<N>      (dynamic CLA adder)", "cla64"),
                ("rf<W>x<B>   (register file read)", "rf8x4"),
                ("shift<N>[:sll|srl|rol]", "shift16:rol"),
            ] {
                println!("  {name:<40} e.g. {example}");
            }
            ExitCode::SUCCESS
        }
        "export" => {
            let Some(spec) = args.get(1).and_then(|n| MacroSpec::parse(n)) else {
                return usage();
            };
            print!("{}", text::to_text(&spec.generate()));
            ExitCode::SUCCESS
        }
        "analyze" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let circuit = match text::from_text(&src) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{}: {} nets, {} components, {} transistors, {} labels",
                circuit.name(),
                circuit.net_count(),
                circuit.component_count(),
                circuit.device_count(),
                circuit.labels().len()
            );
            for issue in circuit.lint() {
                println!("lint: {issue:?}");
            }
            let report = smart_datapath::lint::lint_circuit(&circuit);
            for finding in &report.findings {
                println!("rule: {finding}");
            }
            if !report.findings.is_empty() {
                println!(
                    "rule summary: {} error(s), {} warning(s)",
                    report.errors(),
                    report.warnings()
                );
            }
            let boundary = Boundary::default();
            match smart_datapath::core::compaction_stats(&circuit, &lib, &boundary, &opts) {
                Ok(stats) => println!(
                    "paths: {} raw -> {} constraint classes ({:.1}x)",
                    stats.raw_paths,
                    stats.classes.len(),
                    stats.ratio()
                ),
                Err(e) => println!("path analysis failed: {e}"),
            }
            ExitCode::SUCCESS
        }
        "size" | "spice" | "explore" => {
            let Some(spec) = args.get(1).and_then(|n| MacroSpec::parse(n)) else {
                return usage();
            };
            let (load, delay) = match load_and_delay(args, 300.0) {
                Ok(v) => v,
                Err(code) => return code,
            };
            let opts = &match corner_opts(args, lib, opts) {
                Ok(o) => o,
                Err(bad) => {
                    eprintln!("--corners {bad}: only the `stf` (slow/typical/fast) preset exists");
                    return ExitCode::FAILURE;
                }
            };
            let circuit = spec.generate();
            let boundary = boundary_for(&circuit, load);
            match cmd {
                "explore" => {
                    let table = explore_parallel(
                        &spec,
                        lib,
                        &boundary,
                        &DelaySpec::uniform(delay),
                        opts,
                        par,
                    );
                    println!(
                        "{:<30} {:>10} {:>10} {:>10} {:>10}",
                        "topology", "width", "power", "clock", "delay"
                    );
                    for cand in &table.candidates {
                        match &cand.result {
                            Ok(m) => println!(
                                "{:<30} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                                cand.spec.to_string(),
                                m.outcome.total_width,
                                m.power.total(),
                                m.clock_load,
                                m.outcome.measured_delay
                            ),
                            Err(e) => {
                                println!("{:<30} infeasible: {e}", cand.spec.to_string())
                            }
                        }
                    }
                    ExitCode::SUCCESS
                }
                _ => match size_circuit(
                    &circuit,
                    &lib,
                    &boundary,
                    &DelaySpec::uniform(delay),
                    &opts,
                ) {
                    Ok(out) => {
                        if cmd == "spice" {
                            print!("{}", to_spice(&circuit, &out.sizing));
                        } else {
                            match smart_datapath::core::sizing_report(
                                &circuit, &lib, &boundary, &out,
                            ) {
                                Ok(report) => print!("{report}"),
                                Err(e) => eprintln!("report failed: {e}"),
                            }
                            if out.corner_delays.len() > 1 {
                                println!("corners (binding: {}):", out.binding_corner);
                                for c in &out.corner_delays {
                                    println!(
                                        "  {:<10} data {:>8.1} ps   precharge {:>8.1} ps",
                                        c.corner, c.data, c.precharge
                                    );
                                }
                            }
                        }
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("{spec}: {e}");
                        ExitCode::FAILURE
                    }
                },
            }
        }
        "audit" => {
            let Some(spec) = args.get(1).and_then(|n| MacroSpec::parse(n)) else {
                return usage();
            };
            let (load, delay) = match load_and_delay(args, 300.0) {
                Ok(v) => v,
                Err(code) => return code,
            };
            let opts = &match corner_opts(args, lib, opts) {
                Ok(o) => o,
                Err(bad) => {
                    eprintln!("--corners {bad}: only the `stf` (slow/typical/fast) preset exists");
                    return ExitCode::FAILURE;
                }
            };
            let circuit = spec.generate();
            let boundary = boundary_for(&circuit, load);
            match smart_datapath::core::audit_circuit(
                &circuit,
                lib,
                &boundary,
                &DelaySpec::uniform(delay),
                opts,
                &spec.to_string(),
            ) {
                Ok(outcome) => {
                    println!("{}", outcome.report.to_json());
                    if let Some(cert) = &outcome.certificate {
                        eprintln!("{spec}: infeasible — {}", cert.detail);
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("{spec}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "tune-split" => {
            let Some(width) = args.get(1).and_then(|v| v.parse::<usize>().ok()) else {
                return usage();
            };
            let (load, delay) = match load_and_delay(args, 350.0) {
                Ok(v) => v,
                Err(code) => return code,
            };
            // A too-narrow width is rejected by the tuner before the probe
            // circuit exists, so build the boundary only on the Ok path.
            let sweep = if width < 3 {
                tune_partition_point(width, lib, &Boundary::default(), &DelaySpec::uniform(delay), opts)
            } else {
                let probe = smart_datapath::macros::mux::partitioned_domino(width, width / 2);
                let boundary = boundary_for(&probe, load);
                tune_partition_point(width, lib, &boundary, &DelaySpec::uniform(delay), opts)
            };
            let sweep = match sweep {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("tune-split {width}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for c in &sweep.candidates {
                match &c.result {
                    Ok(m) => println!(
                        "{:<14} width {:>9.1}  clock {:>7.1}",
                        c.setting, m.outcome.total_width, m.clock_load
                    ),
                    Err(e) => println!("{:<14} infeasible: {e}", c.setting),
                }
            }
            match sweep.winner_by_width() {
                Ok(best) => {
                    println!("best split: {}", best.setting);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("tune-split {width}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "serve" => {
            if smart_datapath::serve::run_cli(&args[1..], &opts.trace, *par) == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
