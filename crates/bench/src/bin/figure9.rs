//! Regenerates the paper's Figure 9 benchmark table.
//!
//! ```sh
//! cargo run --release -p rml-bench --bin figure9 [repeats]
//! ```
//!
//! Columns follow the paper: `loc` (program lines, basis excluded),
//! `fcns` (spurious functions / total), `inst` (spurious type variables
//! instantiated at boxed types / total instantiations), `diff` (whether
//! the spurious machinery changed the generated code), wall-clock time
//! per strategy, peak memory (`rss`), and collection counts (`gc`).
//!
//! Besides the rendered table on stdout, the run writes
//! `BENCH_figure9.json` to the current directory: the same rows in
//! machine-readable form (per-program compile time plus per-strategy run
//! time, steps, allocation, peak bytes, and gc counts).
//!
//! Rows are built serially, each program compiled once per strategy.
//! Timing trajectories with spread are the `perfbench` harness's job.

fn main() {
    // A non-numeric repeats argument fails loudly (exit 2) instead of
    // silently falling back to 3 best-of runs.
    let repeats = rml_bench::arg_u64(1, "repeats", 3) as usize;
    eprintln!("running the Figure 9 suite (best of {repeats})...");
    let t0 = std::time::Instant::now();
    let rows = rml_bench::figure9(repeats);
    let wall = t0.elapsed();
    println!("{}", rml_bench::render(&rows));
    let compile_ms: f64 = rows
        .iter()
        .map(|r| r.compile_time.as_secs_f64() * 1000.0)
        .sum();
    eprintln!(
        "suite wall time {:.1}ms ({} compilations, {:.1}ms compiling)",
        wall.as_secs_f64() * 1000.0,
        rml::compile_count(),
        compile_ms,
    );
    let json = rml_bench::to_json(&rows);
    match std::fs::write("BENCH_figure9.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_figure9.json"),
        Err(e) => eprintln!("could not write BENCH_figure9.json: {e}"),
    }
}
