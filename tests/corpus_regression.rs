//! Replays the checked-in corpus of generator-found programs
//! (`tests/corpus/*.rml`) across every strategy. Each file was produced
//! by `rml-gen` (the seed is recorded in its header comment) and — for
//! the `dangle-*` files — minimized by the shrinker while preserving the
//! property that the unsound `rg-` strategy faults with a dangling
//! pointer. The manifest pins the exact `rg` result, so any drift in the
//! generator, the inference store, or the runtimes shows up here as a
//! deterministic failure rather than a flaky fuzz run.

use rml::{compile, execute, ExecOpts, Strategy};
use rml_eval::{GcPolicy, RunError, RunValue};

/// `(file, expected rg result, whether rg- must fault with Dangling)`.
const MANIFEST: &[(&str, i64, bool)] = &[
    ("agree-3.rml", 3, false),
    ("dangle-4.rml", 4, true),
    ("dangle-6.rml", 0, true),
    ("agree-7.rml", 11, false),
    ("agree-8.rml", -6, false),
    ("dangle-9.rml", 0, true),
    ("agree-10.rml", 37, false),
    ("dangle-14.rml", 0, true),
    ("dangle-21.rml", 0, true),
    ("dangle-22.rml", 0, true),
];

fn load(name: &str) -> String {
    let path = format!("{}/tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn run_int(c: &rml::Compiled, opts: &ExecOpts) -> Result<i64, RunError> {
    match execute(c, opts)?.value {
        RunValue::Int(n) => Ok(n),
        other => panic!("corpus programs return int, got {other:?}"),
    }
}

#[test]
fn corpus_replays_identically_across_strategies() {
    for (name, expected, rgm_dangles) in MANIFEST {
        let src = load(name);
        // rg: checks under Figure 4 and computes the pinned value, with
        // and without an aggressive collector.
        let rg = compile(&src, Strategy::Rg).unwrap_or_else(|e| panic!("{name}: {e}"));
        rml::check(&rg).unwrap_or_else(|e| panic!("{name}: G check failed: {e}"));
        let v = run_int(&rg, &ExecOpts::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(v, *expected, "{name}: rg result drifted");
        let stressed = ExecOpts {
            gc: Some(GcPolicy::On {
                min_bytes: 256,
                ratio: 1.05,
            }),
            ..ExecOpts::default()
        };
        assert_eq!(
            run_int(&rg, &stressed).unwrap(),
            *expected,
            "{name}: rg under GC stress"
        );
        // Baseline (regionless) and r (Tofte–Talpin, GC off) agree.
        let baseline = ExecOpts {
            baseline: true,
            ..ExecOpts::default()
        };
        assert_eq!(
            run_int(&rg, &baseline).unwrap(),
            *expected,
            "{name}: baseline"
        );
        let r = compile(&src, Strategy::R).unwrap();
        assert_eq!(
            run_int(&r, &ExecOpts::default()).unwrap(),
            *expected,
            "{name}: strategy r"
        );
        // rg-: the dangle-* files must keep faulting with a dangling
        // pointer (the unsoundness the paper repairs); the agree-* files
        // must keep agreeing.
        let rgm = compile(&src, Strategy::RgMinus).unwrap();
        match run_int(&rgm, &ExecOpts::default()) {
            Ok(v) => {
                assert!(
                    !rgm_dangles,
                    "{name}: rg- no longer dangles (returned {v}); the corpus \
                     program lost its regression value"
                );
                assert_eq!(v, *expected, "{name}: rg-");
            }
            Err(RunError::Dangling(_)) => {
                assert!(rgm_dangles, "{name}: rg- started dangling unexpectedly");
            }
            Err(e) => panic!("{name}: rg- failed with a non-dangling error: {e}"),
        }
    }
}

#[test]
fn corpus_files_reparse_to_a_pretty_printing_fixed_point() {
    for (name, _, _) in MANIFEST {
        let src = load(name);
        // Strip the header comment: the corpus body is printer output.
        let body = src
            .lines()
            .filter(|l| !l.starts_with("(*"))
            .collect::<Vec<_>>()
            .join("\n");
        let p = rml_syntax::parse_program(&body).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let printed = rml_syntax::pretty::program_to_string(&p);
        let p2 = rml_syntax::parse_program(&printed).unwrap();
        assert_eq!(
            printed,
            rml_syntax::pretty::program_to_string(&p2),
            "{name}: printer not a fixed point"
        );
    }
}
