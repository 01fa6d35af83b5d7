//! Runs the differential torture oracle over the whole benchmark suite.
//!
//! ```sh
//! cargo run --release -p rml-bench --bin torture [seed]
//! ```
//!
//! Every suite program is run under every strategy × every GC schedule
//! (see `rml::torture`): `rg` and the regionless baseline must compute
//! the reference value no matter when the collector runs, `r` and `rg-`
//! may diverge only as deterministic dangling faults, every faulting
//! cell must reproduce exactly on a re-run, and injected faults
//! (allocation budget, continuation-depth limit) must unwind
//! structurally and leave the next clean run unaffected.
//!
//! Environment:
//!
//! * `RML_TORTURE_FUEL` — step budget per matrix cell (default
//!   2,000,000; CI uses a reduced budget). Steps are
//!   schedule-independent, so running out of fuel is itself a
//!   deterministic, agreeing outcome.
//!
//! Exit status is non-zero when any program diverges.

fn main() {
    // Present-but-unparsable values fail loudly (exit 2): a typo like
    // `RML_TORTURE_FUEL=2m` must not silently torture with the default.
    let seed = rml_bench::arg_u64(1, "seed", 0x7041_10E5);
    let fuel = rml_bench::env_u64("RML_TORTURE_FUEL", 2_000_000);
    let opts = rml::torture::TortureOpts {
        seed,
        fuel,
        with_basis: true,
        ..Default::default()
    };
    eprintln!("torturing the suite (seed {seed:#x}, fuel {fuel})...");
    let t0 = std::time::Instant::now();
    let reports = rml_bench::differential(&opts);
    let wall = t0.elapsed();
    let mut failed = 0;
    for rep in &reports {
        if rep.ok() {
            let danglings = rep
                .cells
                .iter()
                .filter(|c| {
                    matches!(
                        c.outcome,
                        rml::torture::Outcome::Fault { dangling: true, .. }
                    )
                })
                .count();
            println!(
                "{:<12} PASS ({} cells, {} tolerated dangling faults, {} probes)",
                rep.name,
                rep.cells.len(),
                danglings,
                rep.probes.len()
            );
        } else {
            failed += 1;
            print!("{}", rep.render());
        }
    }
    eprintln!(
        "torture wall time {:.1}ms, {}/{} programs passed",
        wall.as_secs_f64() * 1000.0,
        reports.len() - failed,
        reports.len()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
