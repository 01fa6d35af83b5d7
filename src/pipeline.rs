//! The compilation pipeline: parse → type → region-infer → analyse →
//! execute.

use rml_eval::{GcPolicy, RunError, RunOpts, RunOutcome};
use rml_infer::{Options, Strategy};
use rml_repr::ReprInfo;
use rml_session::{trace, Diagnostic, SourceMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Process-wide count of completed compilations (any strategy). The
/// benchmark harness uses deltas of this counter to assert its
/// compilation cache actually shares work.
static COMPILES: AtomicU64 = AtomicU64::new(0);

/// The number of compilations performed by this process so far.
pub fn compile_count() -> u64 {
    COMPILES.load(Ordering::Relaxed)
}

/// Wall-clock time spent in each compilation phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileTimings {
    /// Lexing + parsing.
    pub parse: Duration,
    /// Hindley–Milner typing.
    pub types: Duration,
    /// Region inference.
    pub regions: Duration,
    /// Representation analyses.
    pub repr: Duration,
    /// End-to-end compilation time.
    pub total: Duration,
}

/// A compiled program.
#[derive(Debug)]
pub struct Compiled {
    /// The source, as compiled (including any prepended basis); empty
    /// when the program was loaded from serialized IR.
    pub source: String,
    /// The typed AST; `None` when the program was loaded from serialized
    /// IR (the typed front-end AST is not part of the format).
    pub typed: Option<rml_hm::TProgram>,
    /// Region inference output (term, exceptions, statistics, schemes).
    pub output: rml_infer::Output,
    /// Representation analyses.
    pub repr: ReprInfo,
    /// The strategy used.
    pub strategy: Strategy,
    /// Per-phase compilation wall times.
    pub timings: CompileTimings,
}

/// A compilation error from any stage, carrying a structured
/// [`Diagnostic`] (stable code, primary span when the stage knows one).
///
/// `Display` remains the stage-prefixed message, so stringly-typed
/// consumers see what they always saw; renderers call
/// [`CompileError::render`] for the underlined source excerpt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Lexing/parsing (`E0001`).
    Parse(Diagnostic),
    /// Hindley–Milner typing (`E0002`).
    Type(Diagnostic),
    /// Region inference (`E0003`).
    Region(Diagnostic),
}

impl CompileError {
    /// The structured diagnostic behind the error.
    pub fn diagnostic(&self) -> &Diagnostic {
        match self {
            CompileError::Parse(d) | CompileError::Type(d) | CompileError::Region(d) => d,
        }
    }

    /// Renders the diagnostic against the source it was produced from
    /// (the *compiled* source — including the basis when one was
    /// prepended). `name` labels the buffer (a file name or `<expr>`).
    pub fn render(&self, src: &str, name: &str) -> String {
        self.diagnostic().render(&SourceMap::new(src), name)
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(d) => write!(f, "parse error: {d}"),
            CompileError::Type(d) => write!(f, "{d}"),
            CompileError::Region(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiles a source program under a strategy, with the default
/// spurious-variable style (scheme (3) of the paper's Section 2).
///
/// # Errors
///
/// Returns the first stage error encountered.
pub fn compile(src: &str, strategy: Strategy) -> Result<Compiled, CompileError> {
    let _compile_span = trace::span("compile", "pipeline");
    let start = Instant::now();
    let prog = {
        let _s = trace::span("parse", "pipeline");
        rml_syntax::parse_program(src).map_err(|e| {
            CompileError::Parse(Diagnostic::error("E0001", e.msg.clone()).with_primary(e.span))
        })?
    };
    let parse = start.elapsed();
    let t = Instant::now();
    let typed = {
        let _s = trace::span("hm-typing", "pipeline");
        rml_hm::infer_program(&prog).map_err(|e| {
            let mut d = Diagnostic::error("E0002", format!("type error: {}", e.msg));
            if let Some(sp) = e.span {
                d = d.with_primary(sp);
            }
            CompileError::Type(d)
        })?
    };
    let types = t.elapsed();
    let t = Instant::now();
    // rml_infer::infer opens its own "region-inference" span.
    let opts = Options {
        strategy,
        ..Options::default()
    };
    let output = rml_infer::infer(&typed, opts).map_err(|e| {
        CompileError::Region(Diagnostic::error(
            "E0003",
            format!("region inference error: {}", e.0),
        ))
    })?;
    let regions = t.elapsed();
    let t = Instant::now();
    let repr = {
        let _s = trace::span("repr-analysis", "pipeline");
        rml_repr::analyze(&output.term)
    };
    let repr_time = t.elapsed();
    COMPILES.fetch_add(1, Ordering::Relaxed);
    Ok(Compiled {
        source: src.to_string(),
        typed: Some(typed),
        output,
        repr,
        strategy,
        timings: CompileTimings {
            parse,
            types,
            regions,
            repr: repr_time,
            total: start.elapsed(),
        },
    })
}

/// Compiles with the basis library prepended (see [`crate::basis`]).
///
/// # Errors
///
/// As [`compile`].
pub fn compile_with_basis(src: &str, strategy: Strategy) -> Result<Compiled, CompileError> {
    let full = format!("{}\n{}", crate::basis::BASIS, src);
    compile(&full, strategy)
}

/// Validates a compiled program against the paper's typing rules
/// (Figure 4), with the GC-safety mode matching the compilation strategy.
///
/// # Errors
///
/// Returns the checker's description of the first violated rule — for
/// `rg` output this indicates a bug; for `rg-` output on problematic
/// programs it is the expected detection of the soundness hole.
pub fn check(c: &Compiled) -> Result<(), String> {
    check_diag(c).map_err(|d| d.to_string())
}

/// As [`check`], but returns the structured [`Diagnostic`] (`E0004`): the
/// checker's blamed binder is resolved through the inference provenance
/// table to the span of the capturing lambda or `fun` binding, so the
/// renderer underlines the function the violation occurred in.
///
/// # Errors
///
/// As [`check`].
pub fn check_diag(c: &Compiled) -> Result<(), Diagnostic> {
    let gc = match c.strategy {
        Strategy::Rg => rml_core::typing::GcCheck::Full,
        Strategy::RgMinus => rml_core::typing::GcCheck::NoTyVars,
        Strategy::R => rml_core::typing::GcCheck::Off,
    };
    check_with(c, gc)
}

/// Validates against the *full* GC-safety conditions regardless of the
/// compilation strategy. On `rg-` output this is the paper's detector:
/// the Figure 4 rules with spurious type variables reject exactly the
/// programs whose collector can meet a dangling pointer (Figures 1/8).
///
/// # Errors
///
/// The first violated rule, as a source-located [`Diagnostic`].
pub fn check_full(c: &Compiled) -> Result<(), Diagnostic> {
    check_with(c, rml_core::typing::GcCheck::Full)
}

fn check_with(c: &Compiled, gc: rml_core::typing::GcCheck) -> Result<(), Diagnostic> {
    let checker = rml_core::Checker {
        exns: c.output.exns.clone(),
        gc,
        store: vec![],
    };
    checker
        .check(&rml_core::TypeEnv::default(), &c.output.term)
        .map(|_| ())
        .map_err(|e| {
            let mut d = Diagnostic::error("E0004", e.msg.clone());
            if let Some(x) = e.blame {
                d = d.with_note(format!("while checking the function bound by `{x}`"));
                if let Some(sp) = c.output.provenance.get(&x) {
                    d = d.with_primary(*sp);
                }
            }
            d
        })
}

/// Serializes a compiled program's region-annotated IR (see
/// [`rml_core::ir`] for the format and its versioning rules).
pub fn emit_ir(c: &Compiled) -> Vec<u8> {
    let prog = rml_core::ir::IrProgram {
        term: c.output.term.clone(),
        exns: c.output.exns.clone(),
        global: c.output.global,
        schemes: c.output.schemes.clone(),
    };
    rml_core::ir::encode_program(&prog)
}

/// Loads a program back from serialized IR, skipping the front end
/// entirely: no parsing, typing, or region inference happens (and the
/// process compile counter is *not* bumped). The representation analyses
/// are re-derived from the decoded term — they are cheap and not part of
/// the format. Inference-time artifacts that do not survive serialization
/// (statistics, store counters, provenance) come back empty.
///
/// # Errors
///
/// Any [`rml_core::ir::IrError`]: bad magic, version mismatch, truncated
/// or trailing input, or a corrupt encoding.
pub fn load_ir(bytes: &[u8], strategy: Strategy) -> Result<Compiled, rml_core::ir::IrError> {
    let prog = rml_core::ir::decode_program(bytes)?;
    let repr = rml_repr::analyze(&prog.term);
    Ok(Compiled {
        source: String::new(),
        typed: None,
        output: rml_infer::Output {
            term: prog.term,
            exns: prog.exns,
            global: prog.global,
            stats: rml_infer::Stats::default(),
            store_stats: Default::default(),
            schemes: prog.schemes,
            provenance: Default::default(),
        },
        repr,
        strategy,
        timings: CompileTimings::default(),
    })
}

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// GC policy; `None` picks the strategy default (`Off` for `r`, on
    /// otherwise).
    pub gc: Option<GcPolicy>,
    /// Run the regionless baseline machine instead.
    pub baseline: bool,
    /// Use the partly tag-free (untagged pairs/refs/cons) representation
    /// for kind-homogeneous regions (paper Section 6).
    pub tag_free: bool,
    /// Step limit.
    pub fuel: u64,
    /// Fault injection: fail with `OutOfMemory` at this many allocations.
    pub alloc_budget: Option<u64>,
    /// Fault injection: continuation-depth limit.
    pub depth_limit: Option<usize>,
    /// Heap-invariant verification cadence; `None` picks the policy
    /// default (`AfterGc` under stress schedules, `Off` otherwise).
    pub verify: Option<rml_eval::VerifyLevel>,
}

impl Default for ExecOpts {
    fn default() -> ExecOpts {
        ExecOpts {
            gc: None,
            baseline: false,
            tag_free: true,
            fuel: u64::MAX,
            alloc_budget: None,
            depth_limit: None,
            verify: None,
        }
    }
}

/// Executes a compiled program on the region heap.
///
/// # Errors
///
/// Propagates [`RunError`] — in particular `Dangling` when the collector
/// meets a dangling pointer (strategy `rg-` on the paper's programs).
pub fn execute(c: &Compiled, opts: &ExecOpts) -> Result<RunOutcome, RunError> {
    let mut ro = if opts.baseline {
        RunOpts::baseline(c.output.global)
    } else {
        RunOpts::new(c.output.global)
    };
    ro.gc = opts.gc.unwrap_or(match c.strategy {
        Strategy::R => GcPolicy::Off,
        _ => GcPolicy::default_on(),
    });
    if !opts.baseline {
        ro.finite = c.repr.finite.clone();
        ro.finite_bounds = c.repr.bounds.clone();
    }
    if opts.tag_free && !opts.baseline {
        ro.uniform = c
            .repr
            .uniform
            .iter()
            .map(|(rv, k)| {
                let uk = match k {
                    rml_repr::HomoKind::Pair => rml_runtime::UniformKind::Pair,
                    rml_repr::HomoKind::Cons => rml_runtime::UniformKind::Cons,
                    rml_repr::HomoKind::Ref => rml_runtime::UniformKind::Ref,
                };
                (*rv, uk)
            })
            .collect();
    }
    ro.fuel = opts.fuel;
    ro.alloc_budget = opts.alloc_budget;
    ro.depth_limit = opts.depth_limit;
    ro.verify = opts.verify.unwrap_or(match ro.gc {
        GcPolicy::Stress(_) => rml_eval::VerifyLevel::AfterGc,
        _ => rml_eval::VerifyLevel::Off,
    });
    rml_eval::run(&c.output.term, &ro)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rml_eval::RunValue;

    #[test]
    fn end_to_end() {
        let c = compile("fun main () = 1 + 2", Strategy::Rg).unwrap();
        check(&c).unwrap();
        let out = execute(&c, &ExecOpts::default()).unwrap();
        assert_eq!(out.value, RunValue::Int(3));
    }

    #[test]
    fn errors_are_reported_per_stage() {
        assert!(matches!(
            compile("val = ", Strategy::Rg),
            Err(CompileError::Parse(_))
        ));
        assert!(matches!(
            compile("val x = 1 + \"two\"", Strategy::Rg),
            Err(CompileError::Type(_))
        ));
    }

    #[test]
    fn basis_compiles_under_all_strategies() {
        crate::run_with_big_stack(|| {
            for s in [Strategy::Rg, Strategy::RgMinus, Strategy::R] {
                let c = compile_with_basis("fun main () = length [1, 2, 3]", s).unwrap();
                let out = execute(&c, &ExecOpts::default()).unwrap();
                assert_eq!(out.value, RunValue::Int(3));
            }
        });
    }
}
