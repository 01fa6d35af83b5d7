//! `perfbench --workload compile|run|gc --seed N --seconds N --trace 0|1`
//!
//! Prints the run metadata and one row per op key, then, as the last
//! line of standard output, the result object: `correct`, `attempted`,
//! `failed` and the metrics with their units. Exits 2 on a bad command
//! line and 1 when an op failed or a count did not repeat.

use perfbench::{parse_args, Command, USAGE};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(Command::Bench(cfg)) => cfg,
        Ok(Command::RecordReference) => {
            let suite = rml::programs::suite();
            match rml::run_with_big_stack(move || perfbench::reference::record(&suite)) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    exit(1)
                }
            }
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            exit(2)
        }
    };
    let run_cfg = cfg.clone();
    let report = rml::run_with_big_stack(move || {
        let suite = rml::programs::suite();
        perfbench::run(&run_cfg, &suite, perfbench::reference::PINNED)
    });
    let report = report.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    });
    println!("meta {}", report.meta.render());
    for row in &report.rows {
        println!("row {}", row.render());
    }
    if cfg.trace {
        let dir = std::path::Path::new(".perfbench");
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            cfg.workload.name(),
            cfg.seed
        ));
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::write(&path, report.tracer.chrome(report.meta.clone()).render())
        });
        if let Err(e) = written {
            eprintln!("error: writing {}: {e}", path.display());
            exit(1)
        }
        println!("trace {}", path.display());
    }
    for f in report.failures.iter().chain(&report.repeat_errors) {
        eprintln!("FAIL {f}");
    }
    println!("{}", report.result_json().render());
    if !report.correct {
        exit(1)
    }
}
