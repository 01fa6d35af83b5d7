//! The machine proper.

use crate::code::{Code, Inst, Kind, Node, Program, RegionBinder, ScopeId, Site, Slot};
use crate::decode::RunValue;
use rml_core::terms::Term;
use rml_core::vars::RegVar;
use rml_runtime::{GcError, GcPause, Heap, ObjKind, RegionId, RegionKind, UniformKind, Word};
use rml_session::trace;
use rml_syntax::ast::PrimOp;
use rml_syntax::Symbol;
use std::cell::Cell;
use std::collections::HashSet;
use std::rc::Rc;

/// One activation's frame (see [`crate::code`] for the layout). Slots
/// are `Cell`s so the collector can update value slots in place; region
/// slots hold a [`RegionId`].
type Act = Rc<[Cell<u64>]>;

/// What a slot holds before its binder is evaluated: a non-pointer word
/// the collector never follows, and the marker of a region parameter a
/// closure has not been instantiated for.
const UNBOUND: u64 = u64::MAX;

fn frame(slots: usize) -> Act {
    (0..slots).map(|_| Cell::new(UNBOUND)).collect()
}

/// Writes a binder's slot. Each binder has its own slot and is evaluated
/// at most once per activation, so a slot is written at most once.
fn bind(act: &Act, slot: Slot, w: u64) {
    debug_assert_eq!(act[slot].get(), UNBOUND, "slot {slot} bound twice");
    act[slot].set(w);
}

/// A deterministic adversarial collection schedule (the torture rig).
///
/// All scheduling decisions derive from the machine step counter, the
/// allocation counter, and a [`Xorshift64`] stream seeded from `seed` —
/// never from ambient randomness — so the same seed always produces the
/// same schedule and therefore the same run outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressSchedule {
    /// Force a collection every `period` machine steps (0 disables the
    /// step trigger; 1 collects at *every* step).
    pub period: u64,
    /// Force a collection after every allocation.
    pub every_alloc: bool,
    /// Seed for the minor/major interleaving stream.
    pub seed: u64,
    /// Interleave minor (young-generation) and major collections,
    /// chosen by the seeded PRNG.
    pub generational: bool,
}

/// Collection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GcPolicy {
    /// No tracing collection (strategy `r`).
    Off,
    /// Collect when allocation since the last collection exceeds
    /// `max(min_bytes, ratio × live)`.
    On {
        /// Minimum allocation between collections.
        min_bytes: u64,
        /// Heap-growth ratio.
        ratio: f64,
        /// Use the generational (minor/major) scheme.
        generational: bool,
    },
    /// Adversarial deterministic schedule (collect far more often than
    /// any heuristic would, to surface latent dangling pointers at the
    /// earliest step that makes them reachable).
    Stress(StressSchedule),
}

impl GcPolicy {
    /// The default tracing policy.
    pub fn default_on() -> GcPolicy {
        GcPolicy::On {
            min_bytes: 64 * 1024,
            ratio: 1.5,
            generational: false,
        }
    }

    /// Collect every `period` steps (deterministic; no PRNG involvement
    /// unless combined with [`StressSchedule::generational`]).
    pub fn stress_every(period: u64, seed: u64) -> GcPolicy {
        GcPolicy::Stress(StressSchedule {
            period,
            every_alloc: false,
            seed,
            generational: false,
        })
    }

    /// Collect at every machine step *and* after every allocation — the
    /// most adversarial schedule.
    pub fn stress_every_step(seed: u64) -> GcPolicy {
        GcPolicy::Stress(StressSchedule {
            period: 1,
            every_alloc: true,
            seed,
            generational: false,
        })
    }

    /// Like [`GcPolicy::stress_every`], but randomly (seeded) interleaves
    /// minor and major collections.
    pub fn stress_generational(period: u64, seed: u64) -> GcPolicy {
        GcPolicy::Stress(StressSchedule {
            period,
            every_alloc: false,
            seed,
            generational: true,
        })
    }

    /// Does the policy run the heap in generational mode?
    pub fn generational(&self) -> bool {
        match self {
            GcPolicy::Off => false,
            GcPolicy::On { generational, .. } => *generational,
            GcPolicy::Stress(s) => s.generational,
        }
    }
}

/// When the heap-invariant verifier walks the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyLevel {
    /// Never (production runs).
    #[default]
    Off,
    /// After every successful collection.
    AfterGc,
    /// After every machine step (torture runs; very slow).
    EveryStep,
}

/// Run options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The global region variable (from `rml_infer::Output::global`).
    pub global: RegVar,
    /// Collection policy.
    pub gc: GcPolicy,
    /// Region variables whose regions the multiplicity analysis proved
    /// finite (never collected; from `rml-repr`).
    pub finite: HashSet<RegVar>,
    /// Region variables whose regions are kind-homogeneous and eligible
    /// for the untagged (header-less) representation (from `rml-repr`).
    pub uniform: std::collections::HashMap<RegVar, UniformKind>,
    /// Ignore all regions and run on one collected heap (the conventional
    /// tracing-GC baseline, standing in for MLton).
    pub baseline: bool,
    /// Step limit.
    pub fuel: u64,
    /// Fault injection: fail with [`RunError::OutOfMemory`] once this many
    /// objects have been allocated.
    pub alloc_budget: Option<u64>,
    /// Fault injection: fail with [`RunError::DepthLimit`] when the
    /// continuation stack exceeds this many frames.
    pub depth_limit: Option<usize>,
    /// Heap-invariant verification cadence.
    pub verify: VerifyLevel,
    /// Static multiplicity bounds for finite region variables (from
    /// `rml-repr`); enforced by the heap verifier.
    pub finite_bounds: std::collections::HashMap<RegVar, u64>,
}

impl RunOpts {
    /// Default options with GC on.
    pub fn new(global: RegVar) -> RunOpts {
        RunOpts {
            global,
            gc: GcPolicy::default_on(),
            finite: HashSet::new(),
            uniform: Default::default(),
            baseline: false,
            fuel: u64::MAX,
            alloc_budget: None,
            depth_limit: None,
            verify: VerifyLevel::Off,
            finite_bounds: Default::default(),
        }
    }

    /// Baseline (regionless) options.
    pub fn baseline(global: RegVar) -> RunOpts {
        RunOpts {
            baseline: true,
            ..RunOpts::new(global)
        }
    }
}

/// A run error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Dangling pointer — dereferenced by the program or traced by the
    /// collector. The paper's unsoundness made concrete.
    Dangling(String),
    /// Uncaught exception.
    Uncaught(String),
    /// Step limit exhausted.
    OutOfFuel,
    /// Division by zero.
    DivByZero,
    /// Injected allocation budget exhausted (torture rig).
    OutOfMemory {
        /// Objects allocated when the budget tripped.
        allocs: u64,
    },
    /// Injected continuation-depth limit exceeded (torture rig).
    DepthLimit {
        /// Continuation frames when the limit tripped.
        depth: usize,
    },
    /// Heap invariant violated or heap corrupted — a runtime bug, located
    /// by the verifier or the collector.
    Invariant(String),
    /// Ill-formed program reached the machine (upstream bug).
    Stuck(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Dangling(m) => write!(f, "dangling pointer: {m}"),
            RunError::Uncaught(n) => write!(f, "uncaught exception {n}"),
            RunError::OutOfFuel => write!(f, "out of fuel"),
            RunError::DivByZero => write!(f, "division by zero"),
            RunError::OutOfMemory { allocs } => {
                write!(
                    f,
                    "out of memory: allocation budget exhausted after {allocs} objects"
                )
            }
            RunError::DepthLimit { depth } => {
                write!(f, "continuation depth limit exceeded at {depth} frames")
            }
            RunError::Invariant(m) => write!(f, "heap invariant violated: {m}"),
            RunError::Stuck(m) => write!(f, "stuck: {m}"),
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// Converts the error into a structured `E0005` (runtime fault)
    /// diagnostic, so runtime failures render through the same path as
    /// compile-time errors.
    pub fn to_diagnostic(&self) -> rml_session::Diagnostic {
        let d = rml_session::Diagnostic::error("E0005", format!("runtime fault: {self}"));
        match self {
            RunError::Dangling(_) => d.with_note(
                "a dangling region pointer was dereferenced or traced; under \
                 strategy `rg` this would be a soundness bug — under `rg-` or \
                 `r` it is the unsoundness the paper's type system rules out",
            ),
            RunError::OutOfMemory { .. } => d.with_note(
                "injected allocation budget (torture rig); the machine unwound \
                 cleanly and can be re-run from a fresh heap",
            ),
            RunError::DepthLimit { .. } => d.with_note(
                "injected continuation-depth limit (torture rig); the machine \
                 unwound cleanly and can be re-run from a fresh heap",
            ),
            RunError::Invariant(_) => {
                d.with_note("this indicates a bug in the runtime, not in the program")
            }
            RunError::OutOfFuel => d.with_note("step budget exhausted (set by --fuel)"),
            _ => d,
        }
    }
}

/// The result of a run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The program's value, decoded.
    pub value: RunValue,
    /// Accumulated `print` output.
    pub output: String,
    /// Machine steps taken.
    pub steps: u64,
    /// Heap statistics (allocation, collections, peak RSS).
    pub stats: rml_runtime::HeapStats,
    /// Per-collection pause records, in collection order.
    pub pauses: Vec<GcPause>,
}

/// Continuation frames. Frames with a `scope` hold the creating node's
/// environment: the collector reads the slots of `act` along that scope
/// chain. `act` without a `scope` only resolves regions.
enum Frame<'a> {
    AppArg {
        arg: &'a Node,
        /// For the fused `(f [S]) arg` form: the instantiation, resolved
        /// against the *caller's* frame at call time, so no specialised
        /// closure is allocated per call.
        inst: Option<&'a Inst>,
        act: Act,
        scope: ScopeId,
    },
    AppCall {
        clos: Cell<u64>,
        inst: Option<&'a Inst>,
        act: Act,
    },
    RApp {
        inst: &'a Inst,
        at: Slot,
        act: Act,
    },
    LetBody {
        slot: Slot,
        body: &'a Node,
        act: Act,
        scope: ScopeId,
    },
    PairSnd {
        snd: &'a Node,
        at: Slot,
        act: Act,
        scope: ScopeId,
    },
    PairMk {
        fst: Cell<u64>,
        at: Slot,
        act: Act,
    },
    Sel(usize),
    IfBranch {
        t: &'a Node,
        f: &'a Node,
        act: Act,
        scope: ScopeId,
    },
    /// A primitive awaiting an argument: `snd` is the second argument
    /// still to evaluate, `fst` the first one's value once it has one.
    Prim {
        op: PrimOp,
        fst: Option<Cell<u64>>,
        snd: Option<&'a Node>,
        at: Option<Slot>,
        act: Act,
        scope: ScopeId,
    },
    ConsTail {
        tail: &'a Node,
        at: Slot,
        act: Act,
        scope: ScopeId,
    },
    ConsMk {
        head: Cell<u64>,
        at: Slot,
        act: Act,
    },
    Case {
        nil_rhs: &'a Node,
        head: Slot,
        tail: Slot,
        cons_rhs: &'a Node,
        act: Act,
        scope: ScopeId,
    },
    RefMk {
        at: Slot,
        act: Act,
    },
    Deref,
    AssignRhs {
        rhs: &'a Node,
        act: Act,
        scope: ScopeId,
    },
    AssignDo {
        target: Cell<u64>,
    },
    PopRegions {
        binders: &'a [RegionBinder],
        act: Act,
    },
    ExnMk {
        name: Symbol,
        at: Slot,
        act: Act,
    },
    RaiseDo,
    Handle {
        exn: Symbol,
        arg: Slot,
        handler: &'a Node,
        act: Act,
        scope: ScopeId,
    },
}

enum Ctrl<'a> {
    Eval(&'a Node, Act),
    Ret(Cell<u64>),
}

struct Machine<'a> {
    heap: Heap,
    prog: &'a Program,
    kont: Vec<Frame<'a>>,
    output: String,
    steps: u64,
    opts: &'a RunOpts,
    global_region: RegionId,
    gc_pending: bool,
    collections_since_major: u32,
    /// Seeded PRNG driving minor/major interleaving under stress
    /// schedules; the only source of "randomness" in the machine.
    rng: rml_runtime::Xorshift64,
    /// Allocation count at the last stress check (for the
    /// collect-after-every-allocation trigger).
    last_alloc_objects: u64,
    /// Bytes allocated when the GC heuristic last said no.
    last_alloc_bytes: u64,
    /// Reused buffer for closure payloads.
    payload: Vec<u64>,
}

type MResult<T> = Result<T, RunError>;

/// Runs a region-annotated program.
///
/// # Errors
///
/// See [`RunError`]; in particular [`RunError::Dangling`] reports a
/// dangling pointer met by the mutator or the collector, and
/// [`RunError::Stuck`] an ill-formed term, rejected before the first step.
pub fn run(term: &Term, opts: &RunOpts) -> Result<RunOutcome, RunError> {
    let prog = crate::code::lower(term, opts)?;
    let mut heap = Heap::new();
    heap.generational = opts.gc.generational();
    let global_region = heap.create_region(RegionKind::Infinite);
    let seed = match opts.gc {
        GcPolicy::Stress(s) => s.seed,
        _ => 0,
    };
    // The top-level frame: the global region, then the program's residual
    // free region variables (e.g. regions of the final result value),
    // which live for the whole run like the global region.
    let act = frame(prog.slots);
    bind(&act, 0, global_region.0 as u64);
    for slot in 1..=prog.free {
        bind(
            &act,
            slot,
            heap.create_region(RegionKind::Infinite).0 as u64,
        );
    }
    let mut m = Machine {
        heap,
        prog: &prog,
        kont: Vec::new(),
        output: String::new(),
        steps: 0,
        opts,
        global_region,
        gc_pending: false,
        collections_since_major: 0,
        rng: rml_runtime::Xorshift64::new(seed),
        last_alloc_objects: 0,
        last_alloc_bytes: u64::MAX,
        payload: Vec::new(),
    };
    let run_span = trace::span("machine.run", "eval");
    let value = m.run_loop(&prog.body, act)?;
    drop(run_span);
    let value = crate::decode::decode(&m.heap, value);
    Ok(RunOutcome {
        value,
        output: m.output,
        steps: m.steps,
        stats: m.heap.stats,
        pauses: std::mem::take(&mut m.heap.pauses),
    })
}

impl<'a> Machine<'a> {
    /// The region in a region slot (the global region, in baseline mode).
    fn region(&self, act: &Act, slot: Slot) -> RegionId {
        if self.opts.baseline {
            return self.global_region;
        }
        RegionId(act[slot].get() as u32)
    }

    /// The region to allocate into at a region slot. Region inference
    /// never lets a program allocate into a region after its `letregion`
    /// ends; an ill-formed program that tries gets a dangling-region error.
    fn alloc_region(&self, act: &Act, slot: Slot) -> MResult<RegionId> {
        let r = self.region(act, slot);
        if u64::from(r.0) < self.heap.stats.regions_created && self.heap.region_live(r) {
            return Ok(r);
        }
        Err(RunError::Dangling(format!(
            "allocation into deallocated region {} at step {}",
            r.0, self.steps
        )))
    }

    /// The caller's region instantiating the callee's region parameter.
    fn inst_region(&self, inst: &Inst, rv: RegVar, act: &Act) -> MResult<RegionId> {
        match inst.get(rv) {
            Some(slot) => Ok(self.region(act, slot)),
            None if self.opts.baseline => Ok(self.global_region),
            None => Err(RunError::Stuck(format!(
                "region parameter {rv} is not instantiated"
            ))),
        }
    }

    fn dangling<T>(&self, e: rml_runtime::heap::DanglingAccess) -> MResult<T> {
        // The step stamp makes the determinism contract checkable: the
        // same seed must reproduce the same failure at the same step.
        Err(RunError::Dangling(format!("{e} at step {}", self.steps)))
    }

    fn field(&self, w: Word, i: usize, ctx: &'static str) -> MResult<Word> {
        self.heap.field(w, i, ctx).or_else(|e| self.dangling(e))
    }

    fn run_loop(&mut self, body: &'a Node, act: Act) -> MResult<Word> {
        let mut ctrl = Ctrl::Eval(body, act);
        loop {
            self.steps += 1;
            if self.steps > self.opts.fuel {
                return Err(RunError::OutOfFuel);
            }
            // Step-batch samples: one counter event per 4096 steps keeps
            // trace volume proportional to work without per-step cost.
            if self.steps & 0xFFF == 0 && trace::enabled() {
                trace::counter("machine.steps", self.steps as f64);
            }
            self.check_faults()?;
            self.maybe_collect(&ctrl)?;
            ctrl = match ctrl {
                Ctrl::Eval(e, act) => self.eval(e, act)?,
                Ctrl::Ret(w) => match self.kont.pop() {
                    None => return Ok(Word(w.get())),
                    Some(frame) => self.apply(frame, Word(w.get()))?,
                },
            };
        }
    }

    /// Injected faults: the allocation budget and the continuation-depth
    /// limit. Both unwind into structured errors (counted in the heap
    /// stats) rather than panicking, and leave the machine state
    /// consistent — a fresh `run` on the same program behaves as if the
    /// faulted run never happened.
    fn check_faults(&mut self) -> MResult<()> {
        if let Some(budget) = self.opts.alloc_budget {
            let allocs = self.heap.stats.objects_allocated;
            if allocs >= budget {
                self.heap.stats.faults_injected += 1;
                return Err(RunError::OutOfMemory { allocs });
            }
        }
        if let Some(limit) = self.opts.depth_limit {
            let depth = self.kont.len();
            if depth > limit {
                self.heap.stats.faults_injected += 1;
                return Err(RunError::DepthLimit { depth });
            }
        }
        Ok(())
    }

    /// Decides whether (and how) to collect this step. Returns
    /// `(minor, forced)` when a collection is due; `forced` marks
    /// collections demanded by a stress schedule or `forcegc` rather than
    /// the allocation heuristic.
    fn gc_decision(&mut self) -> Option<(bool, bool)> {
        match self.opts.gc {
            GcPolicy::Off => None,
            GcPolicy::On {
                min_bytes,
                ratio,
                generational,
            } => {
                let forced = self.gc_pending;
                // The heuristic only changes its answer after an allocation.
                let allocated = self.heap.stats.bytes_allocated;
                if !forced
                    && (allocated == self.last_alloc_bytes
                        || !self.heap.should_collect(min_bytes, ratio))
                {
                    self.last_alloc_bytes = allocated;
                    return None;
                }
                let minor = generational && self.collections_since_major < 4;
                if minor {
                    self.collections_since_major += 1;
                } else {
                    self.collections_since_major = 0;
                }
                Some((minor, forced))
            }
            GcPolicy::Stress(s) => {
                let allocs = self.heap.stats.objects_allocated;
                let alloc_trigger = s.every_alloc && allocs > self.last_alloc_objects;
                self.last_alloc_objects = allocs;
                let step_trigger = s.period > 0 && self.steps.is_multiple_of(s.period);
                if !self.gc_pending && !alloc_trigger && !step_trigger {
                    return None;
                }
                // Minor three steps out of four, decided by the seeded
                // stream — deterministic for a given seed.
                let minor = s.generational && self.rng.chance(3, 4);
                Some((minor, true))
            }
        }
    }

    /// Gathers the machine's root set: the control value, frame cells,
    /// and the value slots in view of every environment the control and
    /// the continuation hold. The returned cells stay valid while `ctrl`
    /// and `self.kont` are untouched.
    fn gather_roots(&self, ctrl: &Ctrl<'a>) -> Vec<*const Cell<u64>> {
        let mut cells: Vec<*const Cell<u64>> = Vec::new();
        let mut envs: Vec<(&Act, ScopeId)> = Vec::new();
        match ctrl {
            Ctrl::Ret(w) => cells.push(w),
            Ctrl::Eval(e, act) => envs.push((act, e.scope)),
        }
        for f in &self.kont {
            match f {
                Frame::AppArg { act, scope, .. }
                | Frame::LetBody { act, scope, .. }
                | Frame::PairSnd { act, scope, .. }
                | Frame::IfBranch { act, scope, .. }
                | Frame::ConsTail { act, scope, .. }
                | Frame::Case { act, scope, .. }
                | Frame::AssignRhs { act, scope, .. }
                | Frame::Handle { act, scope, .. } => envs.push((act, *scope)),
                Frame::AppCall { clos, .. } => cells.push(clos),
                Frame::PairMk { fst, .. } => cells.push(fst),
                Frame::ConsMk { head, .. } => cells.push(head),
                Frame::AssignDo { target } => cells.push(target),
                Frame::Prim {
                    fst, act, scope, ..
                } => {
                    cells.extend(fst.as_ref().map(|c| c as *const _));
                    envs.push((act, *scope));
                }
                _ => {}
            }
        }
        // Each scope chain is walked newest binder first. The frames of one
        // activation sit on one path through its body, so each scope
        // extends the one before it in the same frame, and the walk stops
        // where that one begins. Should a chain ever not extend its
        // predecessor, the walk runs to the root and lists some slots
        // twice, which the collector tolerates.
        let mut last: Option<(*const Cell<u64>, ScopeId)> = None;
        for (act, scope) in envs {
            let stop = match last {
                Some((p, s)) if p == act.as_ptr() => s,
                _ => crate::code::EMPTY_SCOPE,
            };
            let mut s = scope;
            while s != crate::code::EMPTY_SCOPE && s != stop {
                let (slot, parent) = self.prog.scopes[s];
                cells.push(&act[slot]);
                s = parent;
            }
            last = Some((act.as_ptr(), scope));
        }
        cells
    }

    fn maybe_collect(&mut self, ctrl: &Ctrl<'a>) -> MResult<()> {
        let decision = self.gc_decision();
        let verify_now = match self.opts.verify {
            VerifyLevel::Off => false,
            VerifyLevel::AfterGc => decision.is_some(),
            VerifyLevel::EveryStep => true,
        };
        if decision.is_none() && !verify_now {
            return Ok(());
        }
        let cells = self.gather_roots(ctrl);
        // Two-phase: read all roots, collect, write back.
        let mut roots: Vec<Word> = cells.iter().map(|c| Word(unsafe { &**c }.get())).collect();
        if let Some((minor, forced)) = decision {
            self.gc_pending = false;
            if forced {
                self.heap.stats.forced_gcs += 1;
            }
            match self.heap.collect(&mut roots, minor) {
                Ok(()) => {}
                Err(GcError::DanglingPointer { context }) => {
                    return Err(RunError::Dangling(format!(
                        "garbage collector traced a pointer into a deallocated \
                         region ({context}) at step {}",
                        self.steps
                    )))
                }
                Err(e @ GcError::Corrupt { .. }) => return Err(RunError::Invariant(e.to_string())),
            }
            for (c, w) in cells.iter().zip(&roots) {
                unsafe { &**c }.set(w.0);
            }
        }
        if verify_now {
            // Every binder in view has been evaluated, so its slot is bound.
            if roots.iter().any(|w| w.0 == UNBOUND) {
                return Err(RunError::Invariant(format!(
                    "unbound frame slot in view at step {}",
                    self.steps
                )));
            }
            match self.heap.verify(&roots) {
                Ok(_) => {}
                // A dangling reachable pointer found by the verifier is
                // the same GC-safety failure a collector trace would hit;
                // report it as such (the torture oracle relies on this).
                Err(e) if e.is_dangling() => {
                    return Err(RunError::Dangling(format!(
                        "{e} (heap verifier, step {})",
                        self.steps
                    )))
                }
                Err(e) => return Err(RunError::Invariant(e.to_string())),
            }
        }
        Ok(())
    }

    fn eval(&mut self, e: &'a Node, act: Act) -> MResult<Ctrl<'a>> {
        let ret = |w: Word| Ok(Ctrl::Ret(Cell::new(w.0)));
        let scope = e.scope;
        let frame = match &e.kind {
            Kind::Unit => return ret(Word::UNIT),
            Kind::Int(n) => return ret(Word::int(*n)),
            Kind::Bool(b) => return ret(Word::bool(*b)),
            Kind::Nil => return ret(Word::NIL),
            Kind::Var(x) => return ret(Word(act[*x].get())),
            Kind::Str(s, at) => {
                let r = self.alloc_region(&act, *at)?;
                return ret(self.heap.alloc_str(r, s));
            }
            Kind::Lam(site) => return ret(self.make_closure(site, &act, 0)?),
            Kind::Fix { sites, index } => {
                // Allocate the whole group, then patch sibling slots.
                let n = sites.len();
                let mut words = Vec::with_capacity(n);
                for site in sites.iter() {
                    words.push(self.make_closure(site, &act, n)?);
                }
                for (site, w) in sites.iter().zip(&words) {
                    let raw = self.prog.codes[site.code].raw();
                    for (j, sw) in words.iter().enumerate() {
                        self.heap
                            .set_field(*w, raw + j, *sw, "fix patch")
                            .or_else(|e| self.dangling(e))?;
                    }
                }
                return ret(words[*index]);
            }
            Kind::App(f, a, inst) => {
                let frame = Frame::AppArg {
                    arg: a,
                    inst: inst.as_ref(),
                    act: act.clone(),
                    scope,
                };
                (frame, &**f)
            }
            Kind::RApp(f, inst, at) => {
                let frame = Frame::RApp {
                    inst,
                    at: *at,
                    act: act.clone(),
                };
                (frame, &**f)
            }
            Kind::Let(slot, rhs, body) => {
                let frame = Frame::LetBody {
                    slot: *slot,
                    body,
                    act: act.clone(),
                    scope,
                };
                (frame, &**rhs)
            }
            Kind::Letregion(binders, body) => {
                if self.opts.baseline {
                    return Ok(Ctrl::Eval(body, act));
                }
                for b in binders.iter() {
                    let r = self.heap.create_region_uniform(b.kind, b.uniform);
                    if let Some(bound) = b.bound {
                        self.heap.set_region_bound(r, bound);
                    }
                    bind(&act, b.slot, r.0 as u64);
                }
                if trace::enabled() {
                    trace::instant(
                        "letregion.enter",
                        "eval",
                        &[("regions", binders.len() as f64)],
                    );
                }
                let frame = Frame::PopRegions {
                    binders,
                    act: act.clone(),
                };
                (frame, &**body)
            }
            Kind::Pair(a, b, at) => {
                let frame = Frame::PairSnd {
                    snd: b,
                    at: *at,
                    act: act.clone(),
                    scope,
                };
                (frame, &**a)
            }
            Kind::Sel(i, a) => (Frame::Sel(*i), &**a),
            Kind::If(c, t, f) => {
                let frame = Frame::IfBranch {
                    t,
                    f,
                    act: act.clone(),
                    scope,
                };
                (frame, &**c)
            }
            Kind::Prim(op, a, b, at) => {
                let frame = Frame::Prim {
                    op: *op,
                    fst: None,
                    snd: b.as_deref(),
                    at: *at,
                    act: act.clone(),
                    scope,
                };
                (frame, &**a)
            }
            Kind::Cons(h, t, at) => {
                let frame = Frame::ConsTail {
                    tail: t,
                    at: *at,
                    act: act.clone(),
                    scope,
                };
                (frame, &**h)
            }
            Kind::Case {
                scrut,
                nil_rhs,
                head,
                tail,
                cons_rhs,
            } => {
                let frame = Frame::Case {
                    nil_rhs,
                    head: *head,
                    tail: *tail,
                    cons_rhs,
                    act: act.clone(),
                    scope,
                };
                (frame, &**scrut)
            }
            Kind::RefNew(a, at) => {
                let frame = Frame::RefMk {
                    at: *at,
                    act: act.clone(),
                };
                (frame, &**a)
            }
            Kind::Deref(a) => (Frame::Deref, &**a),
            Kind::Assign(r, v) => {
                let frame = Frame::AssignRhs {
                    rhs: v,
                    act: act.clone(),
                    scope,
                };
                (frame, &**r)
            }
            Kind::Exn { name, arg, at } => match arg {
                None => {
                    let r = self.alloc_region(&act, *at)?;
                    let w = self
                        .heap
                        .alloc(r, ObjKind::Exn, 2, &[name.index() as u64, 0]);
                    return ret(w);
                }
                Some(a) => {
                    let frame = Frame::ExnMk {
                        name: *name,
                        at: *at,
                        act: act.clone(),
                    };
                    (frame, &**a)
                }
            },
            Kind::Raise(a) => (Frame::RaiseDo, &**a),
            Kind::Handle {
                body,
                exn,
                arg,
                handler,
            } => {
                let frame = Frame::Handle {
                    exn: *exn,
                    arg: *arg,
                    handler,
                    act: act.clone(),
                    scope,
                };
                (frame, &**body)
            }
        };
        self.kont.push(frame.0);
        Ok(Ctrl::Eval(frame.1, act))
    }

    /// Allocates a closure at `site` from frame `act`:
    /// `[code id][rparam slots (unbound)][frv slots][siblings…][captures…]`.
    /// `group` sibling slots are left as `()` for the caller to patch.
    fn make_closure(&mut self, site: &Site, act: &Act, group: usize) -> MResult<Word> {
        let code = &self.prog.codes[site.code];
        let mut payload = std::mem::take(&mut self.payload);
        payload.clear();
        payload.push(site.code as u64);
        payload.extend(std::iter::repeat_n(UNBOUND, code.rparams.len()));
        payload.extend(site.rcaps.iter().map(|s| self.region(act, *s).0 as u64));
        payload.extend(std::iter::repeat_n(Word::UNIT.0, group));
        payload.extend(site.caps.iter().map(|s| act[*s].get()));
        let r = self.alloc_region(act, site.at)?;
        let w = self
            .heap
            .alloc(r, ObjKind::Closure, code.raw() as u16, &payload);
        self.payload = payload;
        Ok(w)
    }

    /// Enters a closure with an argument: one fresh frame, filled from the
    /// closure's words. When `inst` is given (the fused `(f [S]) arg`
    /// form), the region parameters are resolved from the instantiation
    /// against the caller's frame instead of from the closure's slots.
    fn call(
        &mut self,
        clos: Word,
        arg: Word,
        inst: Option<&'a Inst>,
        caller: &Act,
    ) -> MResult<Ctrl<'a>> {
        let prog = self.prog;
        let id = self.field(clos, 0, "call")?.0 as usize;
        let code: &'a Code = prog
            .codes
            .get(id)
            .ok_or_else(|| RunError::Stuck("bad code id".into()))?;
        let act = frame(code.slots);
        let global = code.param() + 1;
        for (i, rv) in code.rparams.iter().enumerate() {
            let region = match inst {
                Some(inst) => self.inst_region(inst, *rv, caller)?.0 as u64,
                None => {
                    let raw_word = self.field_raw(clos, 1 + i)?;
                    if raw_word == UNBOUND {
                        return Err(RunError::Stuck(format!(
                            "closure applied without region instantiation ({rv})"
                        )));
                    }
                    raw_word
                }
            };
            bind(&act, global + 1 + i, region);
        }
        for i in code.rparams.len()..code.rparams.len() + code.nfrvs {
            bind(&act, global + 1 + i, self.field_raw(clos, 1 + i)?);
        }
        bind(&act, global, self.global_region.0 as u64);
        // Siblings and captures sit in the frame in closure order.
        for j in 0..code.param() {
            bind(&act, j, self.field(clos, code.raw() + j, "capture")?.0);
        }
        bind(&act, code.param(), arg.0);
        Ok(Ctrl::Eval(&code.body, act))
    }

    fn field_raw(&self, w: Word, i: usize) -> MResult<u64> {
        self.heap
            .field(w, i, "closure raw field")
            .map(|x| x.0)
            .or_else(|e| self.dangling(e))
    }

    /// Region application: copy the closure, filling its region-parameter
    /// slots per the instantiation, at the target region.
    fn rapp(&mut self, clos: Word, inst: &Inst, at: Slot, act: &Act) -> MResult<Word> {
        let prog = self.prog;
        let id = self.field(clos, 0, "region application")?.0 as usize;
        let code = prog
            .codes
            .get(id)
            .ok_or_else(|| RunError::Stuck("bad code id".into()))?;
        let mut payload = std::mem::take(&mut self.payload);
        payload.clear();
        payload.push(id as u64);
        for rv in code.rparams.iter() {
            payload.push(self.inst_region(inst, *rv, act)?.0 as u64);
        }
        // Captured regions, siblings and captures are copied as they are.
        for i in 1 + code.rparams.len()..code.raw() + code.param() {
            payload.push(self.field_raw(clos, i)?);
        }
        let r = self.alloc_region(act, at)?;
        let w = self
            .heap
            .alloc(r, ObjKind::Closure, code.raw() as u16, &payload);
        self.payload = payload;
        Ok(w)
    }

    fn apply(&mut self, frame: Frame<'a>, w: Word) -> MResult<Ctrl<'a>> {
        let ret = |w: Word| Ok(Ctrl::Ret(Cell::new(w.0)));
        match frame {
            Frame::AppArg {
                arg,
                inst,
                act,
                scope: _,
            } => {
                self.kont.push(Frame::AppCall {
                    clos: Cell::new(w.0),
                    inst,
                    act: act.clone(),
                });
                Ok(Ctrl::Eval(arg, act))
            }
            Frame::AppCall { clos, inst, act } => self.call(Word(clos.get()), w, inst, &act),
            Frame::RApp { inst, at, act } => ret(self.rapp(w, inst, at, &act)?),
            Frame::LetBody {
                slot, body, act, ..
            } => {
                bind(&act, slot, w.0);
                Ok(Ctrl::Eval(body, act))
            }
            Frame::PairSnd { snd, at, act, .. } => {
                self.kont.push(Frame::PairMk {
                    fst: Cell::new(w.0),
                    at,
                    act: act.clone(),
                });
                Ok(Ctrl::Eval(snd, act))
            }
            Frame::PairMk { fst, at, act } => {
                let r = self.alloc_region(&act, at)?;
                ret(self.heap.alloc(r, ObjKind::Pair, 0, &[fst.get(), w.0]))
            }
            Frame::Sel(i) => ret(self.field(w, i, "projection")?),
            Frame::IfBranch { t, f, act, .. } => match w.as_bool() {
                Some(true) => Ok(Ctrl::Eval(t, act)),
                Some(false) => Ok(Ctrl::Eval(f, act)),
                None => Err(RunError::Stuck("if on non-boolean".into())),
            },
            Frame::Prim {
                op,
                fst,
                snd: Some(snd),
                at,
                act,
                scope,
            } => {
                debug_assert!(fst.is_none());
                self.kont.push(Frame::Prim {
                    op,
                    fst: Some(Cell::new(w.0)),
                    snd: None,
                    at,
                    act: act.clone(),
                    scope,
                });
                Ok(Ctrl::Eval(snd, act))
            }
            Frame::Prim {
                op, fst, at, act, ..
            } => {
                let args = match fst {
                    Some(a) => [Word(a.get()), w],
                    None => [w, Word::UNIT],
                };
                ret(self.apply_prim(op, args, at, &act)?)
            }
            Frame::ConsTail { tail, at, act, .. } => {
                self.kont.push(Frame::ConsMk {
                    head: Cell::new(w.0),
                    at,
                    act: act.clone(),
                });
                Ok(Ctrl::Eval(tail, act))
            }
            Frame::ConsMk { head, at, act } => {
                let r = self.alloc_region(&act, at)?;
                ret(self.heap.alloc(r, ObjKind::Cons, 0, &[head.get(), w.0]))
            }
            Frame::Case {
                nil_rhs,
                head,
                tail,
                cons_rhs,
                act,
                ..
            } => {
                if w == Word::NIL {
                    Ok(Ctrl::Eval(nil_rhs, act))
                } else {
                    bind(&act, head, self.field(w, 0, "case head")?.0);
                    bind(&act, tail, self.field(w, 1, "case tail")?.0);
                    Ok(Ctrl::Eval(cons_rhs, act))
                }
            }
            Frame::RefMk { at, act } => {
                let r = self.alloc_region(&act, at)?;
                ret(self.heap.alloc(r, ObjKind::Ref, 0, &[w.0]))
            }
            Frame::Deref => ret(self.field(w, 0, "dereference")?),
            Frame::AssignRhs { rhs, act, .. } => {
                self.kont.push(Frame::AssignDo {
                    target: Cell::new(w.0),
                });
                Ok(Ctrl::Eval(rhs, act))
            }
            Frame::AssignDo { target } => {
                self.heap
                    .set_field(Word(target.get()), 0, w, "assignment")
                    .or_else(|e| self.dangling(e))?;
                ret(Word::UNIT)
            }
            Frame::PopRegions { binders, act } => {
                if trace::enabled() {
                    trace::instant(
                        "letregion.exit",
                        "eval",
                        &[("regions", binders.len() as f64)],
                    );
                }
                self.pop_regions(binders, &act);
                ret(w)
            }
            Frame::ExnMk { name, at, act } => {
                let r = self.alloc_region(&act, at)?;
                ret(self
                    .heap
                    .alloc(r, ObjKind::Exn, 2, &[name.index() as u64, 0, w.0]))
            }
            Frame::RaiseDo => self.unwind(w),
            Frame::Handle { .. } => {
                // Body finished normally; drop the handler.
                ret(w)
            }
        }
    }

    fn pop_regions(&mut self, binders: &[RegionBinder], act: &Act) {
        for b in binders {
            let r = self.region(act, b.slot);
            self.heap.drop_region(r);
        }
    }

    /// Unwinds the continuation with a raised exception value.
    fn unwind(&mut self, exn_val: Word) -> MResult<Ctrl<'a>> {
        let name_idx = self.field_raw(exn_val, 0)? as u32;
        let name = Symbol::from_index(name_idx);
        while let Some(frame) = self.kont.pop() {
            match frame {
                Frame::PopRegions { binders, act } => self.pop_regions(binders, &act),
                Frame::Handle {
                    exn,
                    arg,
                    handler,
                    act,
                    ..
                } if exn == name => {
                    let header = self
                        .heap
                        .header(exn_val, "exception match")
                        .or_else(|e| self.dangling(e))?;
                    let bound = if header.len > 2 {
                        self.field(exn_val, 2, "exception argument")?
                    } else {
                        Word::UNIT
                    };
                    bind(&act, arg, bound.0);
                    return Ok(Ctrl::Eval(handler, act));
                }
                _ => {}
            }
        }
        let printable = Symbol::lookup_index(name_idx)
            .unwrap_or("<unknown exception>")
            .to_string();
        Err(RunError::Uncaught(printable))
    }

    fn apply_prim(
        &mut self,
        op: PrimOp,
        args: [Word; 2],
        at: Option<Slot>,
        act: &Act,
    ) -> MResult<Word> {
        use PrimOp::*;
        let int = |w: Word| -> MResult<i64> {
            if w.is_int() {
                Ok(w.as_int())
            } else {
                Err(RunError::Stuck(format!("`{op}` on non-int")))
            }
        };
        Ok(match op {
            Add => Word::int(int(args[0])?.wrapping_add(int(args[1])?)),
            Sub => Word::int(int(args[0])?.wrapping_sub(int(args[1])?)),
            Mul => Word::int(int(args[0])?.wrapping_mul(int(args[1])?)),
            Div => {
                let d = int(args[1])?;
                if d == 0 {
                    return Err(RunError::DivByZero);
                }
                Word::int(int(args[0])?.wrapping_div(d))
            }
            Mod => {
                let d = int(args[1])?;
                if d == 0 {
                    return Err(RunError::DivByZero);
                }
                Word::int(int(args[0])?.wrapping_rem(d))
            }
            Neg => Word::int(int(args[0])?.wrapping_neg()),
            Lt => Word::bool(int(args[0])? < int(args[1])?),
            Le => Word::bool(int(args[0])? <= int(args[1])?),
            Gt => Word::bool(int(args[0])? > int(args[1])?),
            Ge => Word::bool(int(args[0])? >= int(args[1])?),
            Eq => Word::bool(self.value_eq(args[0], args[1])?),
            Ne => Word::bool(!self.value_eq(args[0], args[1])?),
            Not => match args[0].as_bool() {
                Some(b) => Word::bool(!b),
                None => return Err(RunError::Stuck("`not` on non-bool".into())),
            },
            Concat => {
                let a = self
                    .heap
                    .read_str(args[0], "string concat")
                    .or_else(|e| self.dangling(e))?;
                let b = self
                    .heap
                    .read_str(args[1], "string concat")
                    .or_else(|e| self.dangling(e))?;
                let at = at.ok_or_else(|| RunError::Stuck("`^` without region".into()))?;
                let r = self.alloc_region(act, at)?;
                self.heap.alloc_str(r, &(a + &b))
            }
            Size => {
                let h = self
                    .heap
                    .header(args[0], "size")
                    .or_else(|e| self.dangling(e))?;
                Word::int(h.len as i64)
            }
            Itos => {
                let n = int(args[0])?;
                let at = at.ok_or_else(|| RunError::Stuck("`itos` without region".into()))?;
                let r = self.alloc_region(act, at)?;
                self.heap.alloc_str(r, &n.to_string())
            }
            Print => {
                let s = self
                    .heap
                    .read_str(args[0], "print")
                    .or_else(|e| self.dangling(e))?;
                self.output.push_str(&s);
                Word::UNIT
            }
            ForceGc => {
                self.gc_pending = true;
                Word::UNIT
            }
        })
    }

    /// Structural equality over heap values.
    fn value_eq(&self, a: Word, b: Word) -> MResult<bool> {
        if a == b {
            return Ok(true);
        }
        if !a.is_pointer() || !b.is_pointer() {
            return Ok(false);
        }
        let ha = self
            .heap
            .header(a, "equality")
            .or_else(|e| self.dangling(e))?;
        let hb = self
            .heap
            .header(b, "equality")
            .or_else(|e| self.dangling(e))?;
        if ha.kind != hb.kind {
            return Ok(false);
        }
        match ha.kind {
            ObjKind::Str => Ok(self
                .heap
                .read_str(a, "equality")
                .or_else(|e| self.dangling(e))?
                == self
                    .heap
                    .read_str(b, "equality")
                    .or_else(|e| self.dangling(e))?),
            ObjKind::Pair | ObjKind::Cons => Ok(self
                .value_eq(self.field(a, 0, "equality")?, self.field(b, 0, "equality")?)?
                && self.value_eq(self.field(a, 1, "equality")?, self.field(b, 1, "equality")?)?),
            ObjKind::Ref => Ok(false), // distinct cells (identity compared above)
            ObjKind::Exn => Ok(self.field_raw(a, 0)? == self.field_raw(b, 0)?),
            _ => Ok(false),
        }
    }
}
