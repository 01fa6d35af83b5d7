//! Load-time lowering: resolves every name of a program term to a frame
//! slot before the machine runs.
//!
//! Each activation (the top level, and one per call of a lambda or `fun`
//! member) owns one flat frame of slots. Value binders and region binders
//! share the frame's index space; the lowering hands every binder of a
//! code body its own slot, so [`Node`]s carry slot indices instead of
//! names and the machine never searches an environment.
//!
//! Frame layout of a code body, in slot order:
//!
//! ```text
//! [siblings…][captures…][param][global][rparams…][frvs…][binders…]
//! ```
//!
//! where siblings are the other members of a `fun` group, captures the
//! closure's free program variables (sorted), rparams the scheme's
//! quantified region variables, frvs the closure's free region variables,
//! and binders every `let`, `case`, handler and `letregion` binder of the
//! body in lowering order. The top-level frame is
//! `[global][residual free region variables…][binders…]`.
//!
//! A closure object keeps the layout it always had:
//! `[code id][rparams…][frvs…][siblings…][captures…]`, the first
//! `1 + |rparams| + |frvs|` words raw (untraced).
//!
//! The value binders in view at a node form its *scope*: a chain through
//! [`Program::scopes`] from the newest binder to the oldest, exactly the
//! environment chain the machine used to build at run time. The collector
//! reads its roots along these chains, so a slot whose binder has gone
//! out of view is not a root even though the frame still holds it.

use crate::machine::{RunError, RunOpts};
use rml_core::terms::{FixDef, Term};
use rml_core::vars::RegVar;
use rml_runtime::{RegionKind, UniformKind};
use rml_syntax::ast::PrimOp;
use rml_syntax::Symbol;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// Index into [`Program::codes`].
pub type CodeId = usize;

/// Index into an activation's frame.
pub type Slot = usize;

/// Index into [`Program::scopes`]; [`EMPTY_SCOPE`] has no binders.
pub type ScopeId = usize;

/// The scope with no value binders in view.
pub const EMPTY_SCOPE: ScopeId = 0;

/// A lowered term: its kind, and the value binders in view.
pub struct Node {
    /// The value binders in view when this node is evaluated.
    pub scope: ScopeId,
    /// What the node does.
    pub kind: Kind,
}

/// The lowered term forms. Region positions (`at`) are region slots.
pub enum Kind {
    /// `()`.
    Unit,
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// `nil`.
    Nil,
    /// Variable occurrence.
    Var(Slot),
    /// String literal allocated at a region.
    Str(Box<str>, Slot),
    /// Lambda: allocates one closure.
    Lam(Site),
    /// `fun` group: allocates every member, denotes member `index`.
    Fix {
        /// One closure site per member.
        sites: Box<[Site]>,
        /// The member this expression denotes.
        index: usize,
    },
    /// Application; the instantiation is present for the fused
    /// `(f [S]) arg` form.
    App(Box<Node>, Box<Node>, Option<Inst>),
    /// Region application `f [S] at ρ`.
    RApp(Box<Node>, Inst, Slot),
    /// `let`: the binder's slot, right-hand side, body.
    Let(Slot, Box<Node>, Box<Node>),
    /// `letregion`: the binders and the body.
    Letregion(Box<[RegionBinder]>, Box<Node>),
    /// Pair allocation.
    Pair(Box<Node>, Box<Node>, Slot),
    /// Projection; the field index is zero-based and in range.
    Sel(usize, Box<Node>),
    /// Conditional.
    If(Box<Node>, Box<Node>, Box<Node>),
    /// Primitive: its argument, or its two arguments; the result region
    /// slot of an allocating primitive.
    Prim(PrimOp, Box<Node>, Option<Box<Node>>, Option<Slot>),
    /// Cons allocation.
    Cons(Box<Node>, Box<Node>, Slot),
    /// List case.
    Case {
        /// Scrutinee.
        scrut: Box<Node>,
        /// `nil` branch.
        nil_rhs: Box<Node>,
        /// Head binder's slot.
        head: Slot,
        /// Tail binder's slot.
        tail: Slot,
        /// Cons branch.
        cons_rhs: Box<Node>,
    },
    /// `ref e at ρ`.
    RefNew(Box<Node>, Slot),
    /// `!e`.
    Deref(Box<Node>),
    /// `e1 := e2`.
    Assign(Box<Node>, Box<Node>),
    /// Exception-value construction.
    Exn {
        /// Constructor name.
        name: Symbol,
        /// Argument, if any.
        arg: Option<Box<Node>>,
        /// Allocation region slot.
        at: Slot,
    },
    /// `raise e`.
    Raise(Box<Node>),
    /// `e handle E x => e'`.
    Handle {
        /// Protected expression.
        body: Box<Node>,
        /// Caught constructor.
        exn: Symbol,
        /// Argument binder's slot.
        arg: Slot,
        /// Handler.
        handler: Box<Node>,
    },
}

/// Closure creation at one program point: which code, where, and the
/// creating frame's slots that fill the closure's capture words.
pub struct Site {
    /// The closure's code.
    pub code: CodeId,
    /// Allocation region slot.
    pub at: Slot,
    /// Value slots copied into the capture words, in capture order.
    pub caps: Box<[Slot]>,
    /// Region slots copied into the free-region words, in order.
    pub rcaps: Box<[Slot]>,
}

/// A region instantiation lowered against the instantiating frame: each
/// quantified region variable of the callee's scheme, with the caller's
/// region slot it is instantiated to.
pub struct Inst(Box<[(RegVar, Slot)]>);

impl Inst {
    /// The caller slot instantiating the callee's region parameter `rv`.
    pub fn get(&self, rv: RegVar) -> Option<Slot> {
        self.0.iter().find(|(k, _)| *k == rv).map(|(_, s)| *s)
    }
}

/// One `letregion` binder with its region's settings, taken from
/// [`RunOpts`] at load time.
pub struct RegionBinder {
    /// The region slot the binder fills.
    pub slot: Slot,
    /// Finite regions are never collected.
    pub kind: RegionKind,
    /// Header-less representation, if the region is kind-homogeneous.
    pub uniform: Option<UniformKind>,
    /// Static multiplicity bound, enforced by the heap verifier.
    pub bound: Option<u64>,
}

/// One lowered function body with its frame and closure layout.
pub struct Code {
    /// The body.
    pub body: Node,
    /// Frame size in slots.
    pub slots: usize,
    /// Members of the `fun` group (0 for a lambda).
    pub nsib: usize,
    /// Captured program variables.
    pub ncaps: usize,
    /// The scheme's quantified region variables, in slot order.
    pub rparams: Box<[RegVar]>,
    /// Captured region variables.
    pub nfrvs: usize,
}

impl Code {
    /// Raw (untraced) leading closure words: code id, region parameters
    /// and captured regions.
    pub fn raw(&self) -> usize {
        1 + self.rparams.len() + self.nfrvs
    }

    /// The parameter's slot; the global region's is the next one, then
    /// the region parameters and the captured regions.
    pub fn param(&self) -> Slot {
        self.nsib + self.ncaps
    }
}

/// A lowered program.
pub struct Program {
    /// Function bodies, by code id.
    pub codes: Vec<Code>,
    /// The top-level body.
    pub body: Node,
    /// Top-level frame size.
    pub slots: usize,
    /// Residual free region variables of the program, which live for the
    /// whole run in top-level slots `1..=free` (slot 0 holds the global
    /// region).
    pub free: usize,
    /// Scope chains: entry `s` is the slot of the newest binder in view
    /// and the scope before it. Entry 0 is [`EMPTY_SCOPE`].
    pub scopes: Vec<(Slot, ScopeId)>,
}

/// Lowers a program term against the run options.
///
/// # Errors
///
/// [`RunError::Stuck`] for an ill-formed term: an unbound variable or
/// region variable, a projection other than `#1`/`#2`, a primitive applied
/// to the wrong number of arguments, a `fun` member index out of range, or
/// an embedded value.
pub fn lower(term: &Term, opts: &RunOpts) -> Result<Program, RunError> {
    let mut lw = Lowering {
        opts,
        codes: Vec::new(),
        captures: Vec::new(),
        groups: HashMap::new(),
        scopes: vec![(0, EMPTY_SCOPE)],
    };
    let mut free = BTreeSet::new();
    free_rvars(term, &mut vec![opts.global], &mut free);
    let mut f = Activation::default();
    f.bind_reg(opts.global);
    for rv in &free {
        f.bind_reg(*rv);
    }
    let body = lw.term(&mut f, term)?;
    Ok(Program {
        codes: lw.codes,
        body,
        slots: f.next,
        free: free.len(),
        scopes: lw.scopes,
    })
}

/// Load-time state of one activation being lowered.
#[derive(Default)]
struct Activation {
    next: Slot,
    vals: Vec<(Symbol, Slot)>,
    regs: Vec<(RegVar, Slot)>,
    scope: ScopeId,
}

impl Activation {
    fn fresh(&mut self) -> Slot {
        self.next += 1;
        self.next - 1
    }

    fn bind_reg(&mut self, rv: RegVar) -> Slot {
        let slot = self.fresh();
        self.regs.push((rv, slot));
        slot
    }

    fn val(&self, x: Symbol) -> Result<Slot, RunError> {
        match self.vals.iter().rev().find(|(y, _)| *y == x) {
            Some((_, s)) => Ok(*s),
            None => Err(RunError::Stuck(format!("unbound variable `{x}`"))),
        }
    }

    fn reg(&self, rv: RegVar) -> Result<Slot, RunError> {
        match self.regs.iter().rev().find(|(r, _)| *r == rv) {
            Some((_, s)) => Ok(*s),
            None => Err(RunError::Stuck(format!("unbound region variable {rv}"))),
        }
    }
}

struct Lowering<'o> {
    opts: &'o RunOpts,
    codes: Vec<Code>,
    /// Per code id: the captured variables and region variables, which
    /// each closure site resolves in its own frame.
    captures: Vec<(Vec<Symbol>, Vec<RegVar>)>,
    /// `fun` groups already lowered (by the address of their shared
    /// definitions), with their member code ids.
    groups: HashMap<*const Vec<FixDef>, Vec<CodeId>>,
    scopes: Vec<(Slot, ScopeId)>,
}

type LResult<T> = Result<T, RunError>;

impl Lowering<'_> {
    /// Binds a value variable in `f`, extending its scope.
    fn bind(&mut self, f: &mut Activation, x: Symbol) -> Slot {
        let slot = f.fresh();
        f.vals.push((x, slot));
        self.scopes.push((slot, f.scope));
        f.scope = self.scopes.len() - 1;
        slot
    }

    /// Lowers `e` under `f`'s binders; binders `e` introduces are out of
    /// view again afterwards.
    fn term(&mut self, f: &mut Activation, e: &Term) -> LResult<Node> {
        let scope = f.scope;
        let (nvals, nregs) = (f.vals.len(), f.regs.len());
        let kind = self.kind(f, e)?;
        f.vals.truncate(nvals);
        f.regs.truncate(nregs);
        f.scope = scope;
        Ok(Node { scope, kind })
    }

    fn boxed(&mut self, f: &mut Activation, e: &Term) -> LResult<Box<Node>> {
        self.term(f, e).map(Box::new)
    }

    fn kind(&mut self, f: &mut Activation, e: &Term) -> LResult<Kind> {
        Ok(match e {
            Term::Var(x) => Kind::Var(f.val(*x)?),
            Term::Unit => Kind::Unit,
            Term::Int(n) => Kind::Int(*n),
            Term::Bool(b) => Kind::Bool(*b),
            Term::Nil(_) => Kind::Nil,
            Term::Str(s, at) => Kind::Str(s.as_str().into(), f.reg(*at)?),
            Term::Val(_) => {
                return Err(RunError::Stuck(
                    "embedded values only occur in the formal semantics".into(),
                ))
            }
            Term::Lam {
                param, body, at, ..
            } => {
                let fvs = body.fpv().into_iter().filter(|v| v != param).collect();
                let mut frvs = BTreeSet::new();
                free_rvars(body, &mut Vec::new(), &mut frvs);
                let code = self.code(*param, body, &[], fvs, &[], frvs)?;
                Kind::Lam(self.site(f, code, *at)?)
            }
            Term::Fix { defs, ats, index } => {
                if *index >= defs.len() || ats.len() != defs.len() {
                    return Err(RunError::Stuck(format!(
                        "`fun` member {index} of a group of {} with {} regions",
                        defs.len(),
                        ats.len()
                    )));
                }
                let members = match self.groups.get(&Rc::as_ptr(defs)) {
                    Some(ids) => ids.clone(),
                    None => self.group(defs)?,
                };
                let sites = members
                    .iter()
                    .zip(ats.iter())
                    .map(|(id, at)| self.site(f, *id, *at))
                    .collect::<LResult<_>>()?;
                Kind::Fix {
                    sites,
                    index: *index,
                }
            }
            Term::App(g, a) => match g.as_ref() {
                // Fuse `(g [S]) a`: the instantiation is passed at the call
                // instead of allocating a specialised closure.
                Term::RApp { f: inner, inst, .. } => {
                    let inst = self.inst(f, inst)?;
                    Kind::App(self.boxed(f, inner)?, self.boxed(f, a)?, Some(inst))
                }
                _ => Kind::App(self.boxed(f, g)?, self.boxed(f, a)?, None),
            },
            Term::RApp { f: g, inst, at } => {
                let inst = self.inst(f, inst)?;
                Kind::RApp(self.boxed(f, g)?, inst, f.reg(*at)?)
            }
            Term::Let { x, rhs, body } => {
                let rhs = self.boxed(f, rhs)?;
                let slot = self.bind(f, *x);
                Kind::Let(slot, rhs, self.boxed(f, body)?)
            }
            Term::Letregion { rvars, body, .. } => {
                let binders = rvars
                    .iter()
                    .map(|rv| RegionBinder {
                        slot: f.bind_reg(*rv),
                        kind: if self.opts.finite.contains(rv) {
                            RegionKind::Finite
                        } else {
                            RegionKind::Infinite
                        },
                        uniform: self.opts.uniform.get(rv).copied(),
                        bound: self.opts.finite_bounds.get(rv).copied(),
                    })
                    .collect();
                Kind::Letregion(binders, self.boxed(f, body)?)
            }
            Term::Pair(a, b, at) => Kind::Pair(self.boxed(f, a)?, self.boxed(f, b)?, f.reg(*at)?),
            Term::Sel(i, a) => match i {
                1 | 2 => Kind::Sel(*i as usize - 1, self.boxed(f, a)?),
                _ => return Err(RunError::Stuck(format!("projection #{i} of a pair"))),
            },
            Term::If(c, t, e) => Kind::If(self.boxed(f, c)?, self.boxed(f, t)?, self.boxed(f, e)?),
            Term::Prim(op, args, at) => {
                let at = at.map(|r| f.reg(r)).transpose()?;
                match (op.arity(), args.as_slice()) {
                    (1, [a]) => Kind::Prim(*op, self.boxed(f, a)?, None, at),
                    (2, [a, b]) => Kind::Prim(*op, self.boxed(f, a)?, Some(self.boxed(f, b)?), at),
                    (n, _) => {
                        return Err(RunError::Stuck(format!(
                            "`{op}` takes {n} arguments, applied to {}",
                            args.len()
                        )))
                    }
                }
            }
            Term::Cons(h, t, at) => Kind::Cons(self.boxed(f, h)?, self.boxed(f, t)?, f.reg(*at)?),
            Term::CaseList {
                scrut,
                nil_rhs,
                head,
                tail,
                cons_rhs,
            } => {
                let scrut = self.boxed(f, scrut)?;
                let nil_rhs = self.boxed(f, nil_rhs)?;
                let head = self.bind(f, *head);
                let tail = self.bind(f, *tail);
                Kind::Case {
                    scrut,
                    nil_rhs,
                    head,
                    tail,
                    cons_rhs: self.boxed(f, cons_rhs)?,
                }
            }
            Term::RefNew(a, at) => Kind::RefNew(self.boxed(f, a)?, f.reg(*at)?),
            Term::Deref(a) => Kind::Deref(self.boxed(f, a)?),
            Term::Assign(r, v) => Kind::Assign(self.boxed(f, r)?, self.boxed(f, v)?),
            Term::Exn { name, arg, at } => Kind::Exn {
                name: *name,
                arg: arg.as_deref().map(|a| self.boxed(f, a)).transpose()?,
                at: f.reg(*at)?,
            },
            Term::Raise(a, _) => Kind::Raise(self.boxed(f, a)?),
            Term::Handle {
                body,
                exn,
                arg,
                handler,
            } => {
                let body = self.boxed(f, body)?;
                let arg = self.bind(f, *arg);
                Kind::Handle {
                    body,
                    exn: *exn,
                    arg,
                    handler: self.boxed(f, handler)?,
                }
            }
        })
    }

    fn inst(&self, f: &Activation, inst: &rml_core::Subst) -> LResult<Inst> {
        let pairs = inst
            .reg
            .iter()
            .map(|(rv, target)| Ok((*rv, f.reg(*target)?)))
            .collect::<LResult<_>>()?;
        Ok(Inst(pairs))
    }

    /// Resolves a closure site's captures in the creating frame.
    fn site(&self, f: &Activation, code: CodeId, at: RegVar) -> LResult<Site> {
        let (fvs, frvs) = &self.captures[code];
        Ok(Site {
            code,
            at: f.reg(at)?,
            caps: fvs.iter().map(|v| f.val(*v)).collect::<LResult<_>>()?,
            rcaps: frvs.iter().map(|rv| f.reg(*rv)).collect::<LResult<_>>()?,
        })
    }

    /// Lowers every member of a `fun` group once.
    fn group(&mut self, defs: &Rc<Vec<FixDef>>) -> LResult<Vec<CodeId>> {
        let names: Vec<Symbol> = defs.iter().map(|d| d.f).collect();
        let mut ids = Vec::with_capacity(defs.len());
        for d in defs.iter() {
            let fvs = d
                .body
                .fpv()
                .into_iter()
                .filter(|v| *v != d.param && !names.contains(v))
                .collect();
            let mut bound = d.scheme.rvars.clone();
            let mut frvs = BTreeSet::new();
            free_rvars(&d.body, &mut bound, &mut frvs);
            ids.push(self.code(d.param, &d.body, &names, fvs, &d.scheme.rvars, frvs)?);
        }
        self.groups.insert(Rc::as_ptr(defs), ids.clone());
        Ok(ids)
    }

    /// Lowers one function body into a fresh frame.
    fn code(
        &mut self,
        param: Symbol,
        body: &Term,
        sibs: &[Symbol],
        fvs: Vec<Symbol>,
        rparams: &[RegVar],
        frvs: BTreeSet<RegVar>,
    ) -> LResult<CodeId> {
        let mut f = Activation::default();
        for x in sibs.iter().chain(&fvs) {
            self.bind(&mut f, *x);
        }
        self.bind(&mut f, param);
        for rv in std::iter::once(&self.opts.global)
            .chain(rparams)
            .chain(&frvs)
        {
            f.bind_reg(*rv);
        }
        let body = self.term(&mut f, body)?;
        self.codes.push(Code {
            body,
            slots: f.next,
            nsib: sibs.len(),
            ncaps: fvs.len(),
            rparams: rparams.into(),
            nfrvs: frvs.len(),
        });
        self.captures.push((fvs, frvs.into_iter().collect()));
        Ok(self.codes.len() - 1)
    }
}

fn e_children<'a>(e: &'a Term, mut f: impl FnMut(&'a Term)) {
    match e {
        Term::Var(_)
        | Term::Unit
        | Term::Int(_)
        | Term::Bool(_)
        | Term::Str(..)
        | Term::Nil(_)
        | Term::Val(_) => {}
        Term::Lam { body, .. } => f(body),
        Term::Fix { defs, .. } => {
            for d in defs.iter() {
                f(&d.body);
            }
        }
        Term::App(a, b) | Term::Assign(a, b) | Term::Pair(a, b, _) | Term::Cons(a, b, _) => {
            f(a);
            f(b);
        }
        Term::RApp { f: g, .. } => f(g),
        Term::Let { rhs, body, .. } => {
            f(rhs);
            f(body);
        }
        Term::Letregion { body, .. } => f(body),
        Term::Sel(_, a) | Term::RefNew(a, _) | Term::Deref(a) | Term::Raise(a, _) => f(a),
        Term::If(a, b, c) => {
            f(a);
            f(b);
            f(c);
        }
        Term::Prim(_, args, _) => {
            for a in args {
                f(a);
            }
        }
        Term::CaseList {
            scrut,
            nil_rhs,
            cons_rhs,
            ..
        } => {
            f(scrut);
            f(nil_rhs);
            f(cons_rhs);
        }
        Term::Exn { arg, .. } => {
            if let Some(a) = arg {
                f(a);
            }
        }
        Term::Handle { body, handler, .. } => {
            f(body);
            f(handler);
        }
    }
}

/// Free region variables of a term: all regions in `at` annotations,
/// primitive result regions, instantiation ranges, and group allocation
/// regions, minus `letregion`/scheme binders.
pub fn free_rvars(e: &Term, bound: &mut Vec<RegVar>, out: &mut BTreeSet<RegVar>) {
    let add = |r: RegVar, bound: &Vec<RegVar>, out: &mut BTreeSet<RegVar>| {
        if !bound.contains(&r) {
            out.insert(r);
        }
    };
    match e {
        Term::Str(_, r) | Term::Pair(_, _, r) | Term::Cons(_, _, r) | Term::RefNew(_, r) => {
            add(*r, bound, out)
        }
        Term::Lam { at, .. } => add(*at, bound, out),
        Term::Exn { at, .. } => add(*at, bound, out),
        Term::Prim(_, _, Some(r)) => add(*r, bound, out),
        Term::Fix { ats, .. } => {
            for r in ats.iter() {
                add(*r, bound, out);
            }
        }
        Term::RApp { inst, at, .. } => {
            add(*at, bound, out);
            for v in inst.reg.values() {
                add(*v, bound, out);
            }
        }
        _ => {}
    }
    match e {
        Term::Letregion { rvars, body, .. } => {
            let n = bound.len();
            bound.extend(rvars.iter().copied());
            free_rvars(body, bound, out);
            bound.truncate(n);
        }
        Term::Lam { body, .. } => free_rvars(body, bound, out),
        Term::Fix { defs, .. } => {
            for d in defs.iter() {
                let n = bound.len();
                bound.extend(d.scheme.rvars.iter().copied());
                free_rvars(&d.body, bound, out);
                bound.truncate(n);
            }
        }
        other => e_children(other, |c| free_rvars(c, bound, out)),
    }
}
