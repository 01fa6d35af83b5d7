//! The torture rig's differential oracle: every strategy × every GC
//! schedule, with one ground truth.
//!
//! The paper's safety claim is *differential* in nature: a GC-safe
//! compilation (`rg`) must compute the same value no matter when the
//! collector runs, while the unsound `rg-` compilation may differ from
//! the reference only by hitting a dangling pointer — never by silently
//! computing a different value. This module makes that claim executable.
//!
//! A [`torture`] run builds the full matrix
//!
//! ```text
//! {rg, rg-, r, baseline} × {default, stress-step, stress-gen, no-gc}
//! ```
//!
//! and compares every cell against the reference cell `rg × default`:
//!
//! * `rg` and `baseline` must agree with the reference under **every**
//!   schedule (GC safety / GC irrelevance);
//! * `r` must agree when its collector is off (its default), and may
//!   only diverge as a *deterministic* [`RunError::Dangling`] when a
//!   tracing schedule is forced on it (region inference without the
//!   GC-safety conditions does not protect the tracer);
//! * `rg-` may diverge under any schedule, but only as a deterministic
//!   `Dangling` — a wrong *value* is a soundness bug and is reported.
//!
//! Every faulting cell is re-run and its error message (which is
//! step-stamped) must reproduce exactly: same seed ⇒ same schedule ⇒
//! same outcome. Two fault-injection probes then run against the
//! reference compilation — an allocation budget and a continuation-depth
//! limit — asserting that injected faults surface as structured
//! [`RunError`]s and that a clean re-run still agrees with the reference
//! (the machine is resumable from a clean heap after a rejected run).

use crate::pipeline::{compile_opts, compile_with_basis, CompileError, Compiled, ExecOpts};
use rml_eval::{GcPolicy, RunError, VerifyLevel};
use rml_infer::{SpuriousStyle, Strategy};
use std::fmt::Write as _;

/// One GC schedule of the torture matrix.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Display name (stable; used in reports and JSON).
    pub name: &'static str,
    /// GC policy; `None` means the strategy default.
    pub gc: Option<GcPolicy>,
    /// Verifier cadence; `None` means the policy default.
    pub verify: Option<VerifyLevel>,
}

/// The four schedules of the matrix, all driven by `seed`.
pub fn schedules(seed: u64) -> Vec<Schedule> {
    vec![
        Schedule {
            name: "default",
            gc: None,
            verify: None,
        },
        Schedule {
            name: "stress-step",
            gc: Some(GcPolicy::stress_every_step(seed)),
            verify: Some(VerifyLevel::EveryStep),
        },
        Schedule {
            name: "stress-gen",
            gc: Some(GcPolicy::stress_generational(16, seed)),
            verify: Some(VerifyLevel::AfterGc),
        },
        Schedule {
            name: "no-gc",
            gc: Some(GcPolicy::Off),
            verify: None,
        },
    ]
}

/// Options for a torture run.
#[derive(Debug, Clone, Copy)]
pub struct TortureOpts {
    /// PRNG seed driving every stress schedule in the matrix.
    pub seed: u64,
    /// Step budget per cell. Steps are schedule-independent, so a cell
    /// that runs out of fuel does so identically in every cell and the
    /// matrix still agrees.
    pub fuel: u64,
    /// Prepend the basis library when compiling from source.
    pub with_basis: bool,
    /// Run the fault-injection probes (allocation budget, depth limit).
    pub faults: bool,
}

impl Default for TortureOpts {
    fn default() -> TortureOpts {
        TortureOpts {
            seed: 0x7041_10E5,
            fuel: 2_000_000,
            with_basis: false,
            faults: true,
        }
    }
}

/// What one cell of the matrix produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to completion: decoded value and accumulated print output.
    Value {
        /// `Display` form of the run's [`rml_eval::RunValue`].
        value: String,
        /// Accumulated `print` output.
        output: String,
    },
    /// Unwound with a structured run error.
    Fault {
        /// `Display` form of the [`RunError`].
        message: String,
        /// Whether the error was [`RunError::Dangling`] — the only
        /// divergence the oracle tolerates, and only where expected.
        dangling: bool,
    },
}

impl Outcome {
    fn describe(&self) -> String {
        match self {
            Outcome::Value { value, output } if output.is_empty() => value.clone(),
            Outcome::Value { value, output } => {
                format!("{value} (printed {} bytes)", output.len())
            }
            Outcome::Fault { message, .. } => format!("fault: {message}"),
        }
    }
}

/// One strategy × schedule cell of the matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Strategy label (`rg`, `rg-`, `r`, `baseline`).
    pub strategy: &'static str,
    /// Schedule name (see [`schedules`]).
    pub schedule: &'static str,
    /// What the run produced.
    pub outcome: Outcome,
    /// Machine steps taken.
    pub steps: u64,
    /// Collections forced by the schedule (not triggered by heuristics).
    pub forced_gcs: u64,
    /// Heap-invariant verifier walks performed.
    pub verify_walks: u64,
    /// Total collections.
    pub gc_count: u64,
}

/// A fault-injection probe against the reference compilation.
#[derive(Debug, Clone)]
pub struct FaultProbe {
    /// Probe label (`alloc-budget`, `depth-limit`).
    pub kind: &'static str,
    /// The limit injected.
    pub limit: u64,
    /// What the limited run produced.
    pub outcome: Outcome,
    /// Faults the machine recorded as injected.
    pub faults_injected: u64,
    /// Whether a clean re-run after the fault agreed with the reference.
    pub recovered: bool,
}

/// The full differential report for one program.
#[derive(Debug, Clone)]
pub struct Report {
    /// Program name.
    pub name: String,
    /// All matrix cells, row-major by strategy.
    pub cells: Vec<Cell>,
    /// Fault-injection probes (empty when disabled).
    pub probes: Vec<FaultProbe>,
    /// Oracle violations, human-readable. Empty means the program
    /// passed: the matrix agreed everywhere agreement is demanded, every
    /// tolerated divergence was a deterministic dangling fault, and the
    /// machine recovered from every injected fault.
    pub divergences: Vec<String>,
}

impl Report {
    /// Did the oracle accept the program?
    pub fn ok(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Renders the matrix and verdict as aligned text (for `rmlc
    /// --torture`).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "torture matrix for {}:", self.name);
        for c in &self.cells {
            let _ = writeln!(
                s,
                "  {:<9} {:<12} steps={:<8} gcs={:<5} forced={:<5} walks={:<6} {}",
                c.strategy,
                c.schedule,
                c.steps,
                c.gc_count,
                c.forced_gcs,
                c.verify_walks,
                c.outcome.describe()
            );
        }
        for p in &self.probes {
            let _ = writeln!(
                s,
                "  probe {:<13} limit={:<6} injected={} recovered={} {}",
                p.kind,
                p.limit,
                p.faults_injected,
                p.recovered,
                p.outcome.describe()
            );
        }
        if self.ok() {
            let _ = writeln!(s, "verdict: PASS");
        } else {
            let _ = writeln!(s, "verdict: FAIL ({} divergences)", self.divergences.len());
            for d in &self.divergences {
                let _ = writeln!(s, "  ! {d}");
            }
        }
        s
    }
}

fn run_cell(c: &Compiled, baseline: bool, sched: &Schedule, opts: &TortureOpts) -> Cell {
    let strategy = if baseline {
        "baseline"
    } else {
        match c.strategy {
            Strategy::Rg => "rg",
            Strategy::RgMinus => "rg-",
            Strategy::R => "r",
        }
    };
    let eo = ExecOpts {
        gc: sched.gc,
        baseline,
        verify: sched.verify,
        fuel: opts.fuel,
        ..ExecOpts::default()
    };
    match crate::pipeline::execute(c, &eo) {
        Ok(out) => Cell {
            strategy,
            schedule: sched.name,
            outcome: Outcome::Value {
                value: out.value.to_string(),
                output: out.output,
            },
            steps: out.steps,
            forced_gcs: out.stats.forced_gcs,
            verify_walks: out.stats.verify_walks,
            gc_count: out.stats.gc_count,
        },
        Err(e) => Cell {
            strategy,
            schedule: sched.name,
            outcome: Outcome::Fault {
                message: e.to_string(),
                dangling: matches!(e, RunError::Dangling(_)),
            },
            steps: 0,
            forced_gcs: 0,
            verify_walks: 0,
            gc_count: 0,
        },
    }
}

/// Runs the differential oracle over already-compiled programs. The
/// three compilations must come from the same source; `rg` doubles as
/// the baseline program (the baseline machine ignores its regions).
pub fn torture_compiled(
    name: &str,
    rg: &Compiled,
    rgm: &Compiled,
    r: &Compiled,
    opts: &TortureOpts,
) -> Report {
    let scheds = schedules(opts.seed);
    let mut cells = Vec::new();
    let mut divergences = Vec::new();

    // Row-major: rg, rg-, r, baseline.
    for sched in &scheds {
        cells.push(run_cell(rg, false, sched, opts));
    }
    for sched in &scheds {
        cells.push(run_cell(rgm, false, sched, opts));
    }
    for sched in &scheds {
        cells.push(run_cell(r, false, sched, opts));
    }
    for sched in &scheds {
        cells.push(run_cell(rg, true, sched, opts));
    }

    let reference = cells[0].outcome.clone();

    // Classify each cell against the reference.
    for (i, cell) in cells.iter().enumerate() {
        if i == 0 {
            continue;
        }
        let must_agree = match cell.strategy {
            "rg" | "baseline" => true,
            // `r`'s own semantics (collector off) must match; forcing a
            // tracer onto it may legitimately meet dangling pointers.
            "r" => matches!(cell.schedule, "default" | "no-gc"),
            _ => false, // rg-
        };
        if cell.outcome == reference {
            continue;
        }
        if must_agree {
            divergences.push(format!(
                "{} × {} disagrees with reference: got {}, want {}",
                cell.strategy,
                cell.schedule,
                cell.outcome.describe(),
                reference.describe()
            ));
            continue;
        }
        // Tolerated divergence: must be a dangling fault, nothing else.
        if !matches!(cell.outcome, Outcome::Fault { dangling: true, .. }) {
            divergences.push(format!(
                "{} × {} diverged without a dangling fault: got {}, want {}",
                cell.strategy,
                cell.schedule,
                cell.outcome.describe(),
                reference.describe()
            ));
        }
    }

    // Determinism: every faulting cell must reproduce its step-stamped
    // error exactly on a re-run (same seed ⇒ same schedule ⇒ same
    // outcome).
    let reruns: Vec<(usize, &'static str, bool)> = cells
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c.outcome, Outcome::Fault { .. }))
        .map(|(i, c)| (i, c.strategy, c.strategy == "baseline"))
        .collect();
    for (i, strategy, baseline) in reruns {
        let sched = &scheds[i % scheds.len()];
        let compiled = match strategy {
            "rg" | "baseline" => rg,
            "rg-" => rgm,
            _ => r,
        };
        let again = run_cell(compiled, baseline, sched, opts);
        if again.outcome != cells[i].outcome {
            divergences.push(format!(
                "{} × {} is nondeterministic: first {}, then {}",
                strategy,
                sched.name,
                cells[i].outcome.describe(),
                again.outcome.describe()
            ));
        }
    }

    // Fault-injection probes against the reference compilation.
    let probes = if opts.faults {
        fault_probes(rg, &reference, opts, &mut divergences)
    } else {
        Vec::new()
    };

    Report {
        name: name.to_string(),
        cells,
        probes,
        divergences,
    }
}

fn fault_probes(
    rg: &Compiled,
    reference: &Outcome,
    opts: &TortureOpts,
    divergences: &mut Vec<String>,
) -> Vec<FaultProbe> {
    let mut probes = Vec::new();

    // Find how much the reference run allocates, then inject a budget at
    // half of it — guaranteed to trip when the program allocates at all.
    // A reference that runs out of fuel is still deterministic, so it is
    // probed too, with the smallest budget (its count covers only the
    // fuelled prefix). A reference that faults otherwise is not probed.
    let base = crate::pipeline::execute(
        rg,
        &ExecOpts {
            fuel: opts.fuel,
            ..ExecOpts::default()
        },
    );
    let budget = match base {
        Ok(out) if out.stats.objects_allocated > 0 => {
            Some((out.stats.objects_allocated / 2).max(1))
        }
        Ok(_) => None,
        Err(RunError::OutOfFuel) => Some(1),
        Err(_) => return probes,
    };

    let mut probe = |kind: &'static str, eo: ExecOpts, limit: u64| {
        let (outcome, faults_injected) = match crate::pipeline::execute(rg, &eo) {
            Ok(out) => (
                Outcome::Value {
                    value: out.value.to_string(),
                    output: out.output,
                },
                out.stats.faults_injected,
            ),
            Err(e) => {
                let structured = matches!(
                    e,
                    RunError::OutOfMemory { .. } | RunError::DepthLimit { .. }
                );
                // Running out of fuel before the limit trips is the
                // reference's own outcome, not a failure of the probe.
                if !structured && !matches!(e, RunError::OutOfFuel) {
                    divergences.push(format!(
                        "probe {kind} produced an unstructured failure: {e}"
                    ));
                }
                // The machine unwinds immediately after recording an
                // injected fault, so a structured fault is exactly one
                // injection (its stats die with the rejected machine).
                (
                    Outcome::Fault {
                        message: e.to_string(),
                        dangling: matches!(e, RunError::Dangling(_)),
                    },
                    u64::from(structured),
                )
            }
        };
        // Resumability: a clean run after the rejected one must still
        // agree with the reference (the fault left no residue — each
        // machine gets a fresh heap, and nothing global leaked).
        let clean = run_cell(rg, false, &schedules(opts.seed)[0], opts);
        let recovered = clean.outcome == *reference;
        if !recovered {
            divergences.push(format!(
                "after probe {kind}, a clean re-run no longer matches the reference: {}",
                clean.outcome.describe()
            ));
        }
        probes.push(FaultProbe {
            kind,
            limit,
            outcome,
            faults_injected,
            recovered,
        });
    };

    if let Some(budget) = budget {
        probe(
            "alloc-budget",
            ExecOpts {
                alloc_budget: Some(budget),
                fuel: opts.fuel,
                ..ExecOpts::default()
            },
            budget,
        );
    }
    probe(
        "depth-limit",
        ExecOpts {
            depth_limit: Some(2),
            fuel: opts.fuel,
            ..ExecOpts::default()
        },
        2,
    );
    probes
}

/// Compiles `src` under all three strategies and runs the differential
/// oracle.
///
/// # Errors
///
/// Propagates the first [`CompileError`] (from any strategy).
pub fn torture(name: &str, src: &str, opts: &TortureOpts) -> Result<Report, CompileError> {
    let comp = |s| {
        if opts.with_basis {
            compile_with_basis(src, s)
        } else {
            compile_opts(src, s, SpuriousStyle::default())
        }
    };
    let rg = comp(Strategy::Rg)?;
    let rgm = comp(Strategy::RgMinus)?;
    let r = comp(Strategy::R)?;
    Ok(torture_compiled(name, &rg, &rgm, &r, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_program_passes_the_matrix() {
        let rep = torture(
            "pairs",
            "fun main () = let val p = (1, (2, 3)) in #1 p + #1 (#2 p) end",
            &TortureOpts::default(),
        )
        .unwrap();
        assert!(rep.ok(), "{}", rep.render());
        assert_eq!(rep.cells.len(), 16);
        // The stress-step rg cell actually stressed: forced collections
        // and verifier walks happened.
        let stress = rep
            .cells
            .iter()
            .find(|c| c.strategy == "rg" && c.schedule == "stress-step")
            .unwrap();
        assert!(stress.forced_gcs > 0, "stress schedule never forced a GC");
        assert!(stress.verify_walks > 0, "verifier never walked the heap");
    }

    // The paper's Figure 1: the dead string is captured in `h`'s closure
    // under rg-, and the forced collection traces the dangling pointer.
    const FIGURE1: &str = "fun compose (f, g) = fn a => f (g a) \
         fun run () = \
           let val h = compose (let val x = \"oh\" ^ \"no\" in (fn y => (), fn () => x) end) \
               val u = forcegc () \
           in h () end \
         fun main () = run ()";

    #[test]
    fn figure1_rg_minus_diverges_only_as_deterministic_dangling() {
        let rep = torture("figure1", FIGURE1, &TortureOpts::default()).unwrap();
        assert!(rep.ok(), "{}", rep.render());
        // And the divergence the paper promises is actually there: some
        // rg- cell danglingly faults under a tracing schedule.
        assert!(
            rep.cells.iter().any(|c| c.strategy == "rg-"
                && matches!(c.outcome, Outcome::Fault { dangling: true, .. })),
            "rg- never hit the dangling pointer:\n{}",
            rep.render()
        );
    }

    #[test]
    fn fault_probes_recover() {
        let rep = torture(
            "alloc",
            "fun build n = if n = 0 then nil else (n, n) :: build (n - 1) \
             fun count xs = case xs of nil => 0 | h :: t => 1 + count t \
             fun main () = count (build 50)",
            &TortureOpts::default(),
        )
        .unwrap();
        assert!(rep.ok(), "{}", rep.render());
        let alloc = rep.probes.iter().find(|p| p.kind == "alloc-budget");
        let alloc = alloc.expect("program allocates, so the budget probe must run");
        assert!(
            matches!(&alloc.outcome, Outcome::Fault { message, .. } if message.contains("out of memory")),
            "budget probe did not trip: {:?}",
            alloc.outcome
        );
        assert!(alloc.recovered);
    }

    #[test]
    fn fault_probes_run_when_the_reference_runs_out_of_fuel() {
        // Allocates, then recurses far past the step budget: the reference
        // is an out-of-fuel fault, and both probes still trip and recover.
        let rep = torture(
            "fuelled",
            "fun spin n = if n = 0 then 0 else 1 + spin (n - 1) \
             fun main () = let val p = (1, 2) in #1 p + spin 1000000 end",
            &TortureOpts {
                fuel: 2_000,
                ..TortureOpts::default()
            },
        )
        .unwrap();
        assert!(rep.ok(), "{}", rep.render());
        assert!(
            matches!(
                &rep.cells[0].outcome,
                Outcome::Fault {
                    dangling: false,
                    ..
                }
            ),
            "the reference must run out of fuel: {:?}",
            rep.cells[0].outcome
        );
        let kinds: Vec<&str> = rep.probes.iter().map(|p| p.kind).collect();
        assert_eq!(kinds, ["alloc-budget", "depth-limit"]);
        for p in &rep.probes {
            assert_eq!(p.faults_injected, 1, "probe {} did not trip", p.kind);
            assert!(p.recovered, "probe {} did not recover", p.kind);
        }
        assert_eq!(rep.probes[0].limit, 1, "no allocation count: budget 1");
    }
}
