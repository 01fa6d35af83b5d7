//! Regression tests for the CLI's loud argument parsing and the
//! `--profile` exporter: a present-but-unparsable or out-of-range numeric
//! flag must fail with a diagnostic and exit 2 — never silently fall back
//! to a default.

use std::process::Command;

fn rmlc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rmlc"))
}

#[test]
fn bad_numeric_flags_fail_loudly() {
    for flag in ["--gc-stress=1k", "--alloc-budget=ten", "--depth-limit="] {
        let out = rmlc().args([flag, "-e", "1"]).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} must exit 2, got {:?}",
            out.status
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("not a number"),
            "{flag} must name the parse failure, got: {err}"
        );
        // The diagnostic names the offending flag, not just "usage".
        let name = flag.split('=').next().unwrap();
        assert!(err.contains(name), "{flag}: diagnostic must cite {name}");
    }
}

#[test]
fn zero_gc_stress_period_is_rejected() {
    let out = rmlc().args(["--gc-stress=0", "-e", "1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--gc-stress"),
        "diagnostic must cite the flag: {err}"
    );
    assert!(err.contains("at least 1"), "diagnostic must say why: {err}");
}

#[test]
fn removed_seed_flag_is_a_usage_error() {
    let out = rmlc().args(["--seed=7", "-e", "1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("usage: rmlc"), "stderr: {err}");
}

#[test]
fn torture_rejects_flags_that_pick_one_run() {
    for flag in [
        &["--strategy", "rg-"][..],
        &["--baseline"],
        &["--gc-stress=7"],
        &["--alloc-budget=100"],
        &["--depth-limit=50"],
    ] {
        let out = rmlc()
            .args(["--torture", "--no-basis"])
            .args(flag)
            .args(["-e", "1 + 2"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {:?}", out.status);
        let err = String::from_utf8_lossy(&out.stderr);
        let name = flag[0].split('=').next().unwrap();
        assert!(
            err.contains(name),
            "{flag:?}: diagnostic must cite {name}: {err}"
        );
        assert!(out.stdout.is_empty(), "{flag:?}: nothing may run");
    }
}

#[test]
fn torture_without_run_flags_still_passes() {
    let out = rmlc()
        .args(["--torture", "--no-basis", "-e", "1+2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verdict: PASS"), "stdout: {stdout}");
}

#[test]
fn good_numeric_flags_still_parse() {
    let out = rmlc()
        .args(["--gc-stress=100", "-e", "1 + 2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out.status);
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
}

#[test]
fn profile_flag_writes_a_loadable_trace() {
    let dir = std::env::temp_dir().join(format!("rmlc-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let out = rmlc()
        .args([
            &format!("--profile={}", path.display()),
            "--gc-stress=50",
            "--no-basis",
            "-e",
            "let fun loop (n) = if n = 0 then 0 else loop (n - 1) in loop 2000 end",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out.status);
    let trace = std::fs::read_to_string(&path).unwrap();
    assert!(trace.starts_with("{\"traceEvents\":["));
    for needle in [
        "\"compile\"",
        "\"machine.run\"",
        "\"gc.pause\"",
        "\"ph\":\"B\"",
    ] {
        assert!(trace.contains(needle), "trace missing {needle}");
    }
    let note = String::from_utf8_lossy(&out.stderr);
    assert!(note.contains("trace events"), "stderr note: {note}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_prints_the_unified_snapshot() {
    let out = rmlc()
        .args(["--metrics", "--no-basis", "-e", "1 + 2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["== metrics ==", "compile:", "store:", "machine:", "gc:"] {
        assert!(stdout.contains(needle), "missing {needle} in: {stdout}");
    }
}

#[test]
fn profile_without_a_sink_flag_changes_nothing() {
    // Control: the same invocation minus --profile emits no trace note.
    let out = rmlc().args(["--no-basis", "-e", "1"]).output().unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("trace events"), "unexpected: {err}");
}
