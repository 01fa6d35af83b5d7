//! Torture-rig behaviors at the machine level: stale region reads are
//! caught at the read, stress schedules are deterministic, and injected
//! faults unwind structurally and leave nothing behind.

use rml_eval::{run, GcPolicy, RunError, RunOpts, RunValue, VerifyLevel};
use rml_infer::{infer, Options, Strategy};

fn compile(src: &str, strategy: Strategy) -> rml_infer::Output {
    let prog = rml_syntax::parse_program(src).unwrap();
    let typed = rml_hm::infer_program(&prog).unwrap();
    infer(
        &typed,
        Options {
            strategy,
            ..Options::default()
        },
    )
    .unwrap()
}

/// A stale read after a `letregion` pop is detected *at the read* — by
/// the pointer's page-epoch check, with the collector off and therefore
/// provably uninvolved. Region inference never produces such a term (the
/// point of the paper), so this hand-builds an ill-annotated one:
///
/// ```text
/// let r = letregion ρ1 in ref ("gone" at ρ1) at ρg
/// in size (!r)
/// ```
///
/// The reference cell lives in the global region and outlives ρ1; its
/// contents do not.
#[test]
fn letregion_pop_stale_read_is_detected_at_the_read() {
    use rml_core::{RegVar, Term};
    use rml_syntax::{ast::PrimOp, Symbol};

    let global = RegVar::fresh();
    let r1 = RegVar::fresh();
    let term = Term::Let {
        x: Symbol::intern("r"),
        rhs: Box::new(Term::Letregion {
            rvars: vec![r1],
            evars: vec![],
            body: Box::new(Term::RefNew(Box::new(Term::Str("gone".into(), r1)), global)),
        }),
        body: Box::new(Term::Prim(
            PrimOp::Size,
            vec![Term::Deref(Box::new(Term::Var(Symbol::intern("r"))))],
            None,
        )),
    };

    let mut opts = RunOpts::new(global);
    opts.gc = GcPolicy::Off;
    let err = run(&term, &opts).expect_err("the stale read must fault");
    assert!(
        matches!(err, RunError::Dangling(_)),
        "expected a dangling-read fault, got: {err}"
    );

    // The same shape with the string allocated in the *global* region is
    // fine — the fault above is precisely about the popped region.
    let sound = Term::Let {
        x: Symbol::intern("r"),
        rhs: Box::new(Term::Letregion {
            rvars: vec![r1],
            evars: vec![],
            body: Box::new(Term::RefNew(
                Box::new(Term::Str("gone".into(), global)),
                global,
            )),
        }),
        body: Box::new(Term::Prim(
            PrimOp::Size,
            vec![Term::Deref(Box::new(Term::Var(Symbol::intern("r"))))],
            None,
        )),
    };
    let mut opts = RunOpts::new(global);
    opts.gc = GcPolicy::Off;
    let out = run(&sound, &opts).expect("global-region contents outlive the pop");
    assert_eq!(out.value, RunValue::Int(4));
    assert_eq!(out.stats.gc_count, 0, "GC off means no collections at all");
}

const BUILDER: &str = "fun build n = if n = 0 then nil else (n, itos n) :: build (n - 1) \
     fun len xs = case xs of nil => 0 | h :: t => 1 + len t \
     fun main () = len (build 64)";

/// Same schedule ⇒ same outcome, down to the collection, copy and
/// verification counts.
#[test]
fn stress_schedules_are_deterministic() {
    let out = compile(BUILDER, Strategy::Rg);
    let go = |period: u64| {
        let mut opts = RunOpts::new(out.global);
        opts.gc = GcPolicy::stress_every(period, 0);
        opts.verify = VerifyLevel::AfterGc;
        run(&out.term, &opts).expect("stressed run failed")
    };
    let a = go(3);
    let b = go(3);
    assert_eq!(a.value, b.value);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.stats, b.stats);
    assert!(a.stats.gc_count > 0 && a.stats.gc_count == a.stats.forced_gcs);
    // Another period collects at other points, but the value is
    // schedule-independent (that is the point of GC safety).
    let c = go(7);
    assert_ne!(a.stats.gc_count, c.stats.gc_count);
    assert_eq!(a.value, c.value);
    assert_eq!(a.steps, c.steps, "steps consume no fuel during GC");
}

/// Injected faults unwind as structured errors — and because every run
/// builds a fresh machine, a clean run afterwards is unaffected.
#[test]
fn injected_faults_unwind_structurally_and_leave_no_residue() {
    let out = compile(BUILDER, Strategy::Rg);

    let mut opts = RunOpts::new(out.global);
    opts.alloc_budget = Some(10);
    match run(&out.term, &opts) {
        Err(RunError::OutOfMemory { allocs }) => assert_eq!(allocs, 10),
        other => panic!("expected OutOfMemory, got {other:?}"),
    }

    let mut opts = RunOpts::new(out.global);
    opts.depth_limit = Some(2);
    match run(&out.term, &opts) {
        Err(RunError::DepthLimit { depth }) => assert!(depth > 2),
        other => panic!("expected DepthLimit, got {other:?}"),
    }

    let opts = RunOpts::new(out.global);
    let clean = run(&out.term, &opts).expect("clean run after faults");
    assert_eq!(clean.value, RunValue::Int(64));
}

/// Figure 1 with an explicit `forcegc`, under the full stress schedule:
/// `rg` survives every collection point; `rg-` faults, and faults
/// *identically* on every run (the oracle's determinism contract).
#[test]
fn figure1_under_stress_rg_survives_rg_minus_faults_deterministically() {
    const FIGURE1: &str = "fun compose (f, g) = fn a => f (g a) \
         fun run () = \
           let val h = compose (let val x = \"oh\" ^ \"no\" in (fn y => (), fn () => x) end) \
               val u = forcegc () \
           in h () end \
         fun main () = run ()";

    let rg = compile(FIGURE1, Strategy::Rg);
    let mut opts = RunOpts::new(rg.global);
    opts.gc = GcPolicy::stress_every_step();
    opts.verify = VerifyLevel::EveryStep;
    let out = run(&rg.term, &opts).expect("rg must survive stress");
    assert_eq!(out.value, RunValue::Unit);
    assert!(out.stats.forced_gcs > 0);
    assert!(out.stats.verify_walks > 0);

    let rgm = compile(FIGURE1, Strategy::RgMinus);
    let fail = |_: ()| {
        let mut opts = RunOpts::new(rgm.global);
        opts.gc = GcPolicy::stress_every_step();
        opts.verify = VerifyLevel::EveryStep;
        run(&rgm.term, &opts).expect_err("rg- must fault under stress")
    };
    let e1 = fail(());
    let e2 = fail(());
    assert!(matches!(e1, RunError::Dangling(_)), "got: {e1}");
    assert_eq!(
        e1.to_string(),
        e2.to_string(),
        "fault must be deterministic"
    );
}
