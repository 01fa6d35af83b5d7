//! Performance smoke test: a regression tripwire on the unification
//! store's operation counts.
//!
//! Wall-clock budgets are too noisy for CI; instead this pins the
//! *deterministic* cost driver — the number of union-find reads performed
//! while compiling the whole benchmark suite under `rg`. The budget is
//! roughly twice the count measured when the compressed store landed, so
//! it only trips on an asymptotic regression (losing path compression or
//! the eager closure of latent sets), not on routine changes.

use rml::{compile_with_basis, Strategy};

// Measured 1 079 848 find ops and 2 482 unions for the 18-program suite
// with closures read straight from the closed latent sets; the naive
// store needed several times that.
const FIND_OPS_BUDGET: u64 = 2_200_000;

#[test]
fn suite_compilation_stays_within_the_find_ops_budget() {
    let (total_finds, total_unions) = rml::run_with_big_stack(|| {
        let (mut total_finds, mut total_unions) = (0u64, 0u64);
        for p in rml::programs::suite() {
            let c = compile_with_basis(p.source, Strategy::Rg).expect("compile");
            let st = c.output.store_stats;
            total_finds += st.find_ops;
            total_unions += st.unions;
        }
        (total_finds, total_unions)
    });
    println!("suite rg compilation: {total_finds} find ops, {total_unions} unions");
    assert!(total_unions > 0, "instrumentation is wired");
    assert!(
        total_finds < FIND_OPS_BUDGET,
        "suite compilation performed {total_finds} find ops \
         (budget {FIND_OPS_BUDGET}); did the store lose path compression?"
    );
}

/// The disabled-sink overhead guard: with tracing compiled in but no sink
/// installed, an instrumented compile-and-run must deliver **zero** events
/// to any sink — the contract that makes instrumenting hot paths (the
/// machine's step loop, the collector) free when nobody is profiling.
///
/// This runs in its own test binary process space alongside the tests
/// above, none of which install a sink, so the process-wide counter
/// staying flat is exactly the property wanted.
#[test]
fn disabled_sink_records_nothing_across_an_instrumented_run() {
    use rml::{execute, ExecOpts};
    let before = rml_session::trace::events_recorded();
    assert!(!rml_session::trace::enabled());
    let steps = rml::run_with_big_stack(|| {
        let src = "fun main () = \
                   let fun loop (n) = if n = 0 then 0 else loop (n - 1) \
                   in loop 2000 end";
        let c = compile_with_basis(src, Strategy::Rg).unwrap();
        let opts = ExecOpts {
            gc: Some(rml_eval::GcPolicy::stress_every(64, 1)),
            ..ExecOpts::default()
        };
        execute(&c, &opts).unwrap().steps
    });
    assert!(
        steps > 4096,
        "run long enough to cross a step-batch boundary"
    );
    assert_eq!(
        rml_session::trace::events_recorded(),
        before,
        "instrumentation must be silent with no sink installed"
    );
}
