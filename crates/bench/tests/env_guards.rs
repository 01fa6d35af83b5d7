//! Regression tests for the benchmark binaries' loud env/arg parsing:
//! `RML_TORTURE_FUEL=2m`, a non-numeric positional argument, or an
//! argument where none is taken must fail with a diagnostic and exit 2 —
//! the old `.parse().ok().unwrap_or(...)` pattern silently ran with the
//! default budget.
//!
//! Only the *failure* paths are spawned (they exit at startup, before
//! any compilation); the defaulting path is covered as a unit test.

use std::process::Command;

#[test]
fn torture_rejects_unparsable_fuel_env() {
    let out = Command::new(env!("CARGO_BIN_EXE_torture"))
        .env("RML_TORTURE_FUEL", "2m")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("RML_TORTURE_FUEL"), "stderr: {err}");
    assert!(err.contains("not a number"), "stderr: {err}");
}

#[test]
fn torture_rejects_arguments() {
    for arg in ["0xbad", "7"] {
        let out = Command::new(env!("CARGO_BIN_EXE_torture"))
            .arg(arg)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{arg}: {:?}", out.status);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(arg), "{arg}: stderr: {err}");
    }
}

#[test]
fn figure9_rejects_unparsable_repeats_arg() {
    let out = Command::new(env!("CARGO_BIN_EXE_figure9"))
        .arg("three")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("repeats"), "stderr: {err}");
    assert!(err.contains("three"), "stderr: {err}");
}

#[test]
fn absent_values_still_default() {
    assert_eq!(rml_bench::env_u64("RML_NO_SUCH_VAR_SET_EVER", 42), 42);
    // Position 100 certainly has no argument in a test harness invocation.
    assert_eq!(rml_bench::arg_u64(100, "nth", 7), 7);
}
