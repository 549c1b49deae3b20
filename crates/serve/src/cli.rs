//! Flag parsing for the `smart serve` subcommand.

use std::sync::Arc;

use smart_core::ParallelOptions;
use smart_trace::Trace;

use crate::advisor::{Advisor, ServeOptions};
use crate::server;

fn usize_flag(args: &[String], name: &str) -> Result<Option<usize>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a non-negative integer")),
    }
}

fn str_flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Runs `smart serve <flags>`; `trace` is the CLI's collector so serve
/// request spans land in the same `SMART_TRACE` export as every other
/// command, and `parallel` is the worker-pool shape for `batch` and
/// `explore` fan-out (the CLI's `SMART_WORKERS`). Returns the process
/// exit code.
///
/// ```text
/// smart serve --script FILE          # replay NDJSON requests, respond on stdout
/// smart serve --listen 127.0.0.1:0   # TCP daemon
/// smart serve --unix /tmp/smart.sock # Unix-socket daemon
///     [--shards N] [--capacity N] [--max-inflight N] [--budget-ms N]
///     [--restore PATH]               # warm-start the cache before serving
/// ```
pub fn run_cli(args: &[String], trace: &Trace, parallel: ParallelOptions) -> i32 {
    let mut opts = ServeOptions {
        parallel: Some(parallel),
        trace: trace.clone(),
        ..ServeOptions::default()
    };
    for (flag, slot) in [
        ("--shards", &mut opts.shards as &mut usize),
        ("--max-inflight", &mut opts.max_inflight),
    ] {
        match usize_flag(args, flag) {
            Ok(Some(v)) if v >= 1 => *slot = v,
            Ok(Some(_)) => {
                eprintln!("serve: {flag} must be at least 1");
                return 1;
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("serve: {e}");
                return 1;
            }
        }
    }
    match usize_flag(args, "--capacity") {
        Ok(Some(v)) => opts.capacity = Some(v),
        Ok(None) => {}
        Err(e) => {
            eprintln!("serve: {e}");
            return 1;
        }
    }
    match usize_flag(args, "--budget-ms") {
        Ok(Some(v)) => opts.budget_ms = Some(v as u64),
        Ok(None) => {}
        Err(e) => {
            eprintln!("serve: {e}");
            return 1;
        }
    }

    let advisor = Advisor::new(opts);
    if let Some(path) = str_flag(args, "--restore") {
        match advisor.cache().load_snapshot(std::path::Path::new(path)) {
            Some(entries) => eprintln!("smart-serve: restored {entries} cached entries"),
            None => {
                let why = advisor.cache().restore_rejected().unwrap_or("damaged");
                eprintln!("serve: --restore {path}: no snapshot ({why})");
                return 1;
            }
        }
    }

    if let Some(path) = str_flag(args, "--script") {
        let script = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve: {path}: {e}");
                return 1;
            }
        };
        let mut stdout = std::io::stdout().lock();
        return match server::run_script(&advisor, &script, &mut stdout) {
            Ok(_) => 0,
            Err(e) => {
                eprintln!("serve: {e}");
                1
            }
        };
    }
    if let Some(addr) = str_flag(args, "--listen") {
        return match server::serve_tcp(Arc::new(advisor), addr) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("serve: {addr}: {e}");
                1
            }
        };
    }
    #[cfg(unix)]
    if let Some(path) = str_flag(args, "--unix") {
        return match server::serve_unix(Arc::new(advisor), std::path::Path::new(path)) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("serve: {path}: {e}");
                1
            }
        };
    }
    eprintln!(
        "serve: need one of --script FILE, --listen ADDR, --unix PATH\n\
         (plus optional --shards N --capacity N --max-inflight N --budget-ms N --restore PATH)"
    );
    1
}
