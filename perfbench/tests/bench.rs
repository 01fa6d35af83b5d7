//! The benchmark's own checks: traced runs produce closed, correctly
//! parented spans whose self times add up to each op's wall time; a
//! wrong reference makes ops fail; a bad command line exits 2.

use perfbench::{run, Config, Workload};
use rml::programs::Program;
use std::process::Command;

const TINY_REFERENCE: &str = "tiny\tInt(42)\t\"hi\"\n";

fn tiny() -> Vec<Program> {
    vec![Program {
        name: "tiny",
        source: "fun main () = (print \"hi\"; 6 * 7)",
        expected: None,
    }]
}

fn config(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
    }
}

#[test]
fn traced_runs_yield_closed_parented_spans_that_account_for_each_op() {
    rml::run_with_big_stack(|| {
        for w in Workload::ALL {
            let r = run(&config(w, true), &tiny(), TINY_REFERENCE).unwrap();
            assert!(r.correct, "{w:?}: {:?} {:?}", r.failures, r.repeat_errors);
            let tr = &r.tracer;
            let spans = tr.spans();
            assert!(!spans.is_empty(), "{w:?}");
            let mut ops_seen = 0;
            for (i, s) in spans.iter().enumerate() {
                let end = s
                    .end_ns
                    .unwrap_or_else(|| panic!("{w:?}: span {i} left open"));
                match s.parent {
                    None => {
                        assert_eq!(s.name, "op");
                        let children: Vec<usize> = (i + 1..spans.len())
                            .take_while(|&c| spans[c].parent.is_some())
                            .collect();
                        let names: Vec<&str> = children.iter().map(|&c| spans[c].name).collect();
                        let key = &tr.keys()[s.op];
                        let want: &[&str] = if key.starts_with("compile ") {
                            &["syntax.parse", "hm.infer", "infer.regions", "repr.analyze"]
                        } else if key.starts_with("check ") {
                            &["core.check"]
                        } else {
                            &["eval.execute"]
                        };
                        assert_eq!(names, want, "{key}");
                        let layers: u64 = children.iter().map(|&c| tr.self_ns(c)).sum();
                        assert_eq!(layers + tr.self_ns(i), s.dur_ns(), "{key}");
                        ops_seen += 1;
                    }
                    Some(p) => {
                        let parent = &spans[p];
                        assert_eq!(parent.parent, None, "layer spans hang off an op");
                        assert_eq!(parent.op, s.op);
                        assert!(parent.start_ns <= s.start_ns);
                        assert!(end <= parent.end_ns.unwrap());
                    }
                }
            }
            assert_eq!(ops_seen, tr.keys().len(), "{w:?}: one root span per op id");
        }
    });
}

#[test]
fn layer_metrics_and_harness_self_time_sum_to_the_traced_pass() {
    rml::run_with_big_stack(|| {
        let r = run(&config(Workload::Compile, true), &tiny(), TINY_REFERENCE).unwrap();
        let metric = |name: &str| {
            r.metrics
                .iter()
                .find(|m| m.0 == name)
                .unwrap_or_else(|| panic!("no {name}"))
                .1
        };
        let layers: f64 = [
            "syntax.parse_ms",
            "hm.infer_ms",
            "infer.regions_ms",
            "repr.analyze_ms",
            "core.check_ms",
        ]
        .iter()
        .map(|m| metric(m))
        .sum();
        let spans = r.tracer.spans();
        let wall_ms: f64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum();
        let total = layers + metric("bench.self_ms");
        assert!((total - wall_ms).abs() < 1e-6, "{total} vs {wall_ms}");
    });
}

#[test]
fn a_corrupted_reference_value_fails_the_run_ops() {
    rml::run_with_big_stack(|| {
        let wrong = TINY_REFERENCE.replace("Int(42)", "Int(43)");
        for w in [Workload::Run, Workload::Gc] {
            let r = run(&config(w, false), &tiny(), &wrong).unwrap();
            assert!(!r.correct);
            assert!(r.failed > 0 && r.failed <= r.attempted, "{w:?}");
            assert!(r.failures[0].contains("Int(43)"), "{}", r.failures[0]);
        }
        let ok = run(&config(Workload::Run, false), &tiny(), TINY_REFERENCE).unwrap();
        assert_eq!(ok.failed, 0);
    });
}

/// The metric names listed in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let start = text.find(&format!("\"{section}\"")).unwrap();
    let end = text[start + 1..]
        .find("\"per_layer\"")
        .map_or(text.len(), |e| start + 1 + e);
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn every_run_prints_exactly_the_metrics_benchmark_json_lists() {
    rml::run_with_big_stack(|| {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            for w in Workload::ALL {
                let r = run(&config(w, trace), &tiny(), TINY_REFERENCE).unwrap();
                let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
                assert_eq!(names, listed(section), "{w:?}");
                if !trace {
                    assert!(r.metrics.iter().all(|m| m.1 > 0.0), "{:?}", r.metrics);
                }
                let line = r.result_json().render();
                assert!(
                    line.starts_with(r#"{"correct":true,"attempted":"#),
                    "{line}"
                );
            }
        }
    });
}

fn perfbench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn an_unknown_workload_exits_2_with_a_diagnostic() {
    let (code, err) = perfbench(&["--workload", "nope", "--seed", "1"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unknown workload `nope`"), "{err}");
}

#[test]
fn a_non_numeric_seed_exits_2_with_a_diagnostic() {
    let (code, err) = perfbench(&["--workload", "run", "--seed", "0xbad"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("--seed `0xbad`: not a number"), "{err}");
}

#[test]
fn a_missing_or_unknown_argument_exits_2() {
    for args in [
        &["--seed", "1"][..],
        &["--workload"],
        &["--workload", "gc", "--fast", "1"],
    ] {
        let (code, err) = perfbench(args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{err}");
    }
}
