//! E4 regression: the structural claims of the paper's Figure 9 analysis,
//! asserted programmatically on a fast subset of the suite.

use rml::{compile_with_basis, execute, ExecOpts, Strategy};

const FAST: &[&str] = &["fib", "msort", "sieve", "compose", "queens"];

fn run(name: &str, strategy: Strategy, baseline: bool) -> rml::RunOutcome {
    let name = name.to_string();
    rml::run_with_big_stack(move || {
        let p = rml::programs::by_name(&name).unwrap();
        let c = compile_with_basis(p.source, strategy).unwrap();
        execute(
            &c,
            &ExecOpts {
                baseline,
                ..ExecOpts::default()
            },
        )
        .unwrap()
    })
}

#[test]
fn rg_and_rgminus_trigger_the_same_collections() {
    // "the rg and rg- compilation strategies lead to executables that
    // trigger similar numbers of garbage collections".
    for name in FAST {
        let a = run(name, Strategy::Rg, false);
        let b = run(name, Strategy::RgMinus, false);
        assert_eq!(a.stats.gc_count, b.stats.gc_count, "{name}");
        assert_eq!(a.value, b.value, "{name}");
    }
}

#[test]
fn no_benchmark_crashes_under_rgminus() {
    // "for none of the benchmarks do we experience failures due to the
    // possibility of dangling-pointers in the rg- compilation strategy".
    for name in FAST {
        let _ = run(name, Strategy::RgMinus, false); // unwraps inside
    }
}

#[test]
fn r_strategy_never_collects() {
    for name in FAST {
        let out = run(name, Strategy::R, false);
        assert_eq!(out.stats.gc_count, 0, "{name}");
    }
}

/// The machine's deterministic counts per suite program, recorded with
/// the default GC policy: steps, bytes allocated, collections and peak
/// heap bytes. `rg` and `rg-` agree on all four for every program in the
/// suite. A machine change that alters its transitions, its allocations
/// or its root set moves one of them.
const PINNED: &[(&str, [u64; 4])] = &[
    ("fib", [1031827, 1848, 0, 77824]),
    ("tak", [16621990, 12666088, 193, 151552]),
    ("mandelbrot", [1314643, 2290544, 34, 342016]),
    ("msort", [206728, 205992, 3, 176128]),
    ("msort-rf", [156942, 167016, 2, 563200]),
    ("life", [1174230, 2913904, 44, 360448]),
    ("queens", [136596, 333160, 5, 241664]),
    ("logic", [800655, 1149720, 17, 237568]),
    ("perm", [1594046, 5357776, 21, 1019904]),
    ("ratio", [5522, 5616, 0, 141312]),
    ("strings", [4851, 56712, 0, 114688]),
    ("compose", [5336, 10288, 0, 212992]),
    ("matrix", [568832, 628176, 9, 174080]),
    ("tsp", [121800, 372768, 5, 212992]),
    ("sieve", [87480, 216232, 3, 210944]),
    ("mpuz", [101904, 129448, 1, 282624]),
    ("dlx", [2554236, 4818144, 73, 114688]),
    ("exceptions", [882262, 916440, 13, 114688]),
];

#[test]
fn rg_rgminus_execute_the_same_number_of_steps() {
    // Same generated code shape ⇒ same machine step counts (the regions
    // differ only in live ranges, not instructions).
    let counts = |o: rml::RunOutcome| {
        [
            o.steps,
            o.stats.bytes_allocated,
            o.stats.gc_count,
            o.stats.peak_bytes(),
        ]
    };
    let names: Vec<&str> = rml::programs::suite().iter().map(|p| p.name).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned);
    for (name, want) in PINNED {
        let a = counts(run(name, Strategy::Rg, false));
        let b = counts(run(name, Strategy::RgMinus, false));
        assert_eq!(a[0], b[0], "{name}: rg and rg- steps");
        assert_eq!(&a, want, "{name} under rg: [steps, alloc, gc, peak]");
        assert_eq!(&b, want, "{name} under rg-: [steps, alloc, gc, peak]");
    }
}

/// The collector's deterministic counts per suite program under the
/// `gc` benchmark workload's schedule (a collection every 1024 steps,
/// verification off): collections, bytes copied, pages allocated and
/// peak heap bytes. A collector change that alters what it copies, where
/// it copies to or the order it visits objects in moves one of them.
const PINNED_GC: &[(&str, [u64; 4])] = &[
    ("fib", [1007, 88616, 2052, 81920]),
    ("tak", [16232, 8652912, 97432, 90112]),
    ("mandelbrot", [1283, 529488, 20167, 137216]),
    ("msort", [201, 2328480, 4289, 147456]),
    ("msort-rf", [153, 1022912, 2783, 139264]),
    ("life", [1146, 2045096, 36615, 151552]),
    ("queens", [133, 176896, 4596, 157696]),
    ("logic", [781, 591048, 22751, 116736]),
    ("perm", [1556, 403402832, 252232, 1060864]),
    ("ratio", [5, 1256, 135, 116736]),
    ("strings", [4, 896, 431, 86016]),
    ("compose", [5, 10376, 137, 141312]),
    ("matrix", [555, 3025352, 14039, 147456]),
    ("tsp", [118, 143112, 2480, 112640]),
    ("sieve", [85, 75600, 931, 92160]),
    ("mpuz", [99, 30544, 1061, 102400]),
    ("dlx", [2494, 1231544, 61228, 118784]),
    ("exceptions", [861, 1028032, 8364, 102400]),
];

#[test]
fn stress_collections_copy_the_pinned_amounts() {
    let names: Vec<&str> = rml::programs::suite().iter().map(|p| p.name).collect();
    let pinned: Vec<&str> = PINNED_GC.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned);
    for (name, want) in PINNED_GC {
        let owned = name.to_string();
        let s = rml::run_with_big_stack(move || {
            let p = rml::programs::by_name(&owned).unwrap();
            let c = compile_with_basis(p.source, Strategy::Rg).unwrap();
            let opts = ExecOpts {
                gc: Some(rml_eval::GcPolicy::stress_every(1024, 1)),
                verify: Some(rml_eval::VerifyLevel::Off),
                ..ExecOpts::default()
            };
            execute(&c, &opts).unwrap().stats
        });
        let got = [
            s.gc_count,
            s.bytes_copied,
            s.pages_allocated,
            s.peak_bytes(),
        ];
        assert_eq!(&got, want, "{name}: [gc, copied, pages, peak]");
    }
}

#[test]
fn fcns_and_inst_columns_are_program_relative() {
    rml::run_with_big_stack(|| {
        let p = rml::programs::by_name("compose").unwrap();
        let r = rml_bench::row(&p, &rml_bench::compile_set(&p), 1);
        assert_eq!(r.fcns.0, 1, "compose defines one spurious function");
        assert!(r.fcns.1 >= 2);
        assert!(r.insts.1 >= r.insts.0);
        assert!(r.diff, "compose's own schemes change under rg");
    });
}

#[test]
fn rgminus_crash_shows_in_the_table() {
    // A generator-found program whose rg- compilation dangles at its
    // forced collection: the row records the crash instead of a time.
    let p = rml::programs::Program {
        name: "dangle-4",
        source: include_str!("corpus/dangle-4.rml"),
        expected: None,
    };
    let r = rml::run_with_big_stack(move || rml_bench::row(&p, &rml_bench::compile_set(&p), 1));
    let crashed: Vec<(&str, bool)> = r.runs.iter().map(|m| (m.label, m.crashed)).collect();
    assert_eq!(
        crashed,
        [
            ("rg", false),
            ("rg-", true),
            ("r", false),
            ("baseline", false)
        ]
    );
    assert!(r.runs[1].metrics.is_none(), "a crashed run has no metrics");
    let table = rml_bench::render(&[r]);
    let line = table.lines().find(|l| l.starts_with("dangle-4")).unwrap();
    let times: Vec<&str> = line.split('|').nth(1).unwrap().split_whitespace().collect();
    let crash_cols: Vec<usize> = (0..times.len()).filter(|&i| times[i] == "CRASH").collect();
    assert_eq!(crash_cols, [1], "only the rg- column crashes: {line}");
}

#[test]
fn pure_programs_have_empty_diff() {
    rml::run_with_big_stack(|| {
        for name in ["fib", "queens"] {
            let p = rml::programs::by_name(name).unwrap();
            let set = rml_bench::compile_set(&p);
            assert!(!rml_bench::code_differs(&p, &set.rg, &set.rgm), "{name}");
        }
    });
}

#[test]
fn region_strategies_bound_memory_where_the_paper_says() {
    // sieve's filtered lists die generation by generation: the collector
    // keeps rg's peak well below r's.
    let rg = run("sieve", Strategy::Rg, false);
    let r = run("sieve", Strategy::R, false);
    assert!(
        rg.stats.peak_bytes() < r.stats.peak_bytes(),
        "rg {} vs r {}",
        rg.stats.peak_bytes(),
        r.stats.peak_bytes()
    );
}

#[test]
fn rg_output_of_suite_programs_passes_the_full_g_check() {
    // The strongest static validation: entire basis+program terms satisfy
    // the paper's Figure 4 rules with the full G relation.
    rml::run_with_big_stack(|| {
        for name in ["fib", "msort", "compose", "queens", "sieve", "ratio"] {
            let p = rml::programs::by_name(name).unwrap();
            let c = compile_with_basis(p.source, Strategy::Rg).unwrap();
            rml::check(&c).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    });
}

#[test]
fn exception_benchmark_checks_and_runs_under_all_strategies() {
    rml::run_with_big_stack(|| {
        let p = rml::programs::by_name("exceptions").unwrap();
        for s in [Strategy::Rg, Strategy::RgMinus, Strategy::R] {
            let c = compile_with_basis(p.source, s).unwrap();
            rml::check(&c).unwrap_or_else(|e| panic!("{s:?}: {e}"));
            execute(&c, &ExecOpts::default()).unwrap();
        }
    });
}
