//! The harness must compile each (program, strategy) exactly once.
//!
//! This file deliberately holds a single `#[test]`: it asserts on deltas
//! of the process-wide compilation counter, and other tests running in
//! the same process would perturb it.

use rml_bench::{basis_stats, compile_set, row};

#[test]
fn row_compiles_each_strategy_exactly_once() {
    rml::run_with_big_stack(row_compiles_each_strategy_exactly_once_body);
}

fn row_compiles_each_strategy_exactly_once_body() {
    let p = rml::programs::by_name("fib").unwrap();
    // Fill the process-wide basis cache before taking the baseline.
    let _ = basis_stats();
    let c0 = rml::compile_count();
    let set = compile_set(&p);
    assert_eq!(rml::compile_count() - c0, 3, "one compile per strategy");
    let row = row(&p, &set, 1);
    assert_eq!(
        rml::compile_count() - c0,
        3,
        "row must reuse the set's compilations"
    );
    assert_eq!(row.runs.len(), 4, "baseline shares the rg compilation");

    // The whole suite: exactly 3N compilations for N programs with the
    // basis already cached. The full suite is a release-profile check.
    if cfg!(debug_assertions) {
        return;
    }
    let n = rml::programs::suite().len() as u64;
    let c1 = rml::compile_count();
    let rows = rml_bench::figure9(1);
    assert_eq!(rows.len() as u64, n);
    assert_eq!(
        rml::compile_count() - c1,
        3 * n,
        "three compiles per program, basis cached"
    );
}
