//! The `smart` binary at its process boundary: flag parsing, and the
//! environment it reads (and hands to the library) once.

use std::process::{Command, Output};

fn smart(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_smart-datapath"));
    cmd.args(args)
        .env_remove("SMART_WORKERS")
        .env_remove("SMART_TRACE")
        .env_remove("SMART_TRACE_OUT")
        .env_remove("SMART_TRACE_CHROME");
    for (name, value) in env {
        cmd.env(name, value);
    }
    cmd.output().expect("run the smart binary")
}

/// `--delay 3OO` (letter O) used to size silently at the 300 ps default.
#[test]
fn unparsable_load_or_delay_exits_1_naming_flag_and_value() {
    for (flag, value) in [("--delay", "3OO"), ("--load", "fifteen"), ("--delay", "")] {
        let out = smart(&["size", "mux8", flag, value], &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value:?}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(&format!("{value:?}")),
            "{flag} {value:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing may be sized");
    }
    let out = smart(&["size", "mux8", "--delay"], &[]);
    assert_eq!(out.status.code(), Some(1), "a flag without its value");
}

/// The binary resolves `SMART_WORKERS` and passes it to the sweep; the
/// table must not depend on it.
#[test]
fn explore_prints_the_same_table_at_one_and_four_workers() {
    let args = ["explore", "mux4", "--delay", "400"];
    let one = smart(&args, &[("SMART_WORKERS", "1")]);
    let four = smart(&args, &[("SMART_WORKERS", "4")]);
    assert!(one.status.success() && four.status.success());
    assert!(!one.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&one.stdout),
        String::from_utf8_lossy(&four.stdout)
    );
}

/// An unusable `SMART_WORKERS` falls back to serial and is traced in the
/// command's own `cli` scope.
#[test]
fn unusable_worker_count_is_traced_by_the_binary() {
    let out = smart(
        &["explore", "mux4", "--delay", "400"],
        &[("SMART_WORKERS", "many"), ("SMART_TRACE", "1")],
    );
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.matches("pool/env-fallback").count(), 1, "{stderr}");
    assert!(
        stderr.contains(r#"{"scope":"cli:0.0","seq":1,"kind":"I","name":"pool/env-fallback""#),
        "{stderr}"
    );
}

/// A negative load or a non-positive delay is a typed invalid request:
/// exit 1 with nothing sized. `--load -1` used to size (the GP dropped the
/// load, STA timed with it) and `--delay -5` was called non-finite.
#[test]
fn negative_load_or_non_positive_delay_is_an_invalid_request() {
    for (args, what) in [
        (["size", "mux8", "--load", "-1"], "invalid boundary request"),
        (["size", "mux8", "--delay", "-5"], "invalid spec request"),
        (["size", "mux8", "--delay", "0"], "invalid spec request"),
    ] {
        let out = smart(&args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(what), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may be sized");
    }
}
