//! The `rml` abstract machine: executes region-annotated programs
//! ([`rml_core::Term`]) against the page-based region heap of
//! `rml-runtime`, with an interleaved reference-tracing collector.
//!
//! Unlike the substitution-based formal semantics in `rml-core` (used for
//! metatheory), this machine is a performance model of compiled code:
//!
//! * closures are **heap objects** that capture the values of their free
//!   variables (and the regions of their free region variables), so the
//!   collector traces real pointers — including the dangling ones that
//!   strategy `rg-` leaves behind,
//! * all live values are reachable from an enumerable **root set**
//!   (the control value, the continuation frames, and the environment
//!   chains), so collection can happen between any two machine steps,
//! * `letregion` pushes and pops regions on the region stack;
//!   deallocation poisons pages so stale pointers are detected,
//! * a baseline mode ([`RunOpts::baseline`]) ignores regions entirely and
//!   runs on a single collected heap — the stand-in for a conventional
//!   tracing-GC compiler in the benchmark comparisons.
//!
//! # Example
//!
//! ```
//! use rml_eval::{run, RunOpts, RunValue};
//! let prog = rml_syntax::parse_program("fun main () = 21 + 21").unwrap();
//! let typed = rml_hm::infer_program(&prog).unwrap();
//! let out = rml_infer::infer(&typed, Default::default()).unwrap();
//! let res = run(&out.term, &RunOpts::new(out.global)).unwrap();
//! assert_eq!(res.value, RunValue::Int(42));
//! ```

// The torture rig's subject: library code here must surface failures as
// structured errors, never via panicking escape hatches. Test modules
// (compiled only under `cfg(test)`) are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Roots are read and written back through safe `Cell` walks; nothing here
// needs raw pointers.
#![forbid(unsafe_code)]

mod code;
mod decode;
mod machine;

pub use decode::RunValue;
pub use machine::{run, GcPolicy, RunError, RunOpts, RunOutcome, StressSchedule, VerifyLevel};
