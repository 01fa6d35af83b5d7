//! Multiplicity analysis: finite vs infinite regions.
//!
//! A `letregion`-bound region is *finite* when every allocation into it
//! executes at most once per region lifetime. The conservative condition
//! used here (a simplification of the MLKit's polymorphic multiplicity
//! analysis \[6\]):
//!
//! * every `at ρ` site inside the binding scope lies outside any nested
//!   `fn`/`fun` body (function bodies may run any number of times per
//!   lifetime of an enclosing region), and
//! * ρ is never passed at a region application (the callee could allocate
//!   into it repeatedly).
//!
//! Everything else is infinite (heap pages, collected).

use rml_core::terms::Term;
use rml_core::vars::RegVar;
use std::collections::{HashMap, HashSet};

/// Classifies all `letregion`-bound regions of a program. Returns
/// `(finite, infinite)`.
pub fn finite_regions(term: &Term) -> (HashSet<RegVar>, HashSet<RegVar>) {
    let mut finite = HashSet::new();
    let mut infinite = HashSet::new();
    walk(term, &mut |rvars, body| {
        for rv in rvars {
            let mut many = false;
            let mut deep_site = false;
            sites(
                body,
                *rv,
                0,
                &mut |depth| {
                    if depth > 0 {
                        deep_site = true;
                    }
                },
                &mut many,
            );
            if many || deep_site {
                infinite.insert(*rv);
            } else {
                finite.insert(*rv);
            }
        }
    });
    (finite, infinite)
}

/// Static multiplicity bounds for the finite regions of a program: each
/// finite region holds at most as many objects as it has (depth-0)
/// allocation sites, since every site executes at most once per lifetime.
/// The heap verifier enforces these bounds at run time (torture rig).
///
/// A site appearing in both arms of an `if` counts twice, so the bound is
/// an upper bound, never an undercount.
pub fn finite_bounds(term: &Term) -> HashMap<RegVar, u64> {
    let (finite, _) = finite_regions(term);
    let mut bounds: HashMap<RegVar, u64> = HashMap::new();
    walk(term, &mut |rvars, body| {
        for rv in rvars {
            if !finite.contains(rv) {
                continue;
            }
            let mut count = 0u64;
            let mut many = false;
            sites(body, *rv, 0, &mut |_| count += 1, &mut many);
            // Region variables are not guaranteed unique across
            // letregions; keep the largest count seen.
            let entry = bounds.entry(*rv).or_insert(0);
            *entry = (*entry).max(count);
        }
    });
    bounds
}

/// Calls `f(rvars, body)` for every `letregion` node.
fn walk(e: &Term, f: &mut impl FnMut(&[RegVar], &Term)) {
    if let Term::Letregion { rvars, body, .. } = e {
        f(rvars, body);
    }
    for_children(e, |c| walk(c, f));
}

/// Visits allocation sites targeting `rv` inside `e`; `depth` counts
/// enclosing function bodies. `many` is forced when the region escapes via
/// a region application.
fn sites(e: &Term, rv: RegVar, depth: usize, on_site: &mut impl FnMut(usize), many: &mut bool) {
    let hit = |r: RegVar| r == rv;
    match e {
        Term::Str(_, r) | Term::Pair(_, _, r) | Term::Cons(_, _, r) | Term::RefNew(_, r)
            if hit(*r) =>
        {
            on_site(depth);
        }
        Term::Lam { at, .. } if hit(*at) => {
            on_site(depth);
        }
        Term::Exn { at, .. } if hit(*at) => {
            on_site(depth);
        }
        Term::Prim(_, _, Some(r)) if hit(*r) => {
            on_site(depth);
        }
        Term::Fix { ats, .. } if ats.iter().any(|r| hit(*r)) => {
            // One closure is allocated per matching `at`, so each counts
            // as its own site (matters for the multiplicity bounds).
            for r in ats.iter() {
                if hit(*r) {
                    on_site(depth);
                }
            }
        }
        Term::RApp { inst, at, .. } => {
            if hit(*at) {
                on_site(depth);
            }
            if inst.reg.values().any(|r| hit(*r)) {
                *many = true;
            }
        }
        _ => {}
    }
    match e {
        Term::Lam { body, .. } => sites(body, rv, depth + 1, on_site, many),
        Term::Fix { defs, .. } => {
            for d in defs.iter() {
                sites(&d.body, rv, depth + 1, on_site, many);
            }
        }
        Term::Letregion { rvars, body, .. } => {
            if !rvars.contains(&rv) {
                sites(body, rv, depth, on_site, many);
            }
        }
        other => for_children(other, |c| sites(c, rv, depth, on_site, many)),
    }
}

pub(crate) fn for_children<'a>(e: &'a Term, mut f: impl FnMut(&'a Term)) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> (HashSet<RegVar>, HashSet<RegVar>) {
        let prog = rml_syntax::parse_program(src).unwrap();
        let typed = rml_hm::infer_program(&prog).unwrap();
        let out = rml_infer::infer(&typed, Default::default()).unwrap();
        finite_regions(&out.term)
    }

    #[test]
    fn single_pair_is_finite() {
        let (finite, _) = analyze("fun main () = let val p = (1, 2) in #1 p end");
        assert!(!finite.is_empty());
    }

    #[test]
    fn list_spine_under_recursion_is_infinite() {
        // The spine region receives one cons per call via the region
        // application — infinite.
        let (_, infinite) = analyze(
            "fun upto n = if n = 0 then nil else n :: upto (n - 1) \
             fun len xs = case xs of nil => 0 | h :: t => 1 + len t \
             fun main () = len (upto 10)",
        );
        assert!(!infinite.is_empty());
    }

    #[test]
    fn allocation_under_lambda_is_infinite() {
        let (_, infinite) = analyze(
            "fun main () = \
               let val mk = fn n => (n, n) \
                   val a = mk 1 \
                   val b = mk 2 \
               in #1 a + #1 b end",
        );
        // The pair region is allocated inside the lambda body.
        assert!(!infinite.is_empty());
    }

    #[test]
    fn bounds_cover_finite_regions() {
        let prog =
            rml_syntax::parse_program("fun main () = let val p = (1, 2) in #1 p end").unwrap();
        let typed = rml_hm::infer_program(&prog).unwrap();
        let out = rml_infer::infer(&typed, Default::default()).unwrap();
        let (finite, _) = finite_regions(&out.term);
        let bounds = finite_bounds(&out.term);
        for rv in &finite {
            assert!(
                bounds.contains_key(rv),
                "finite region {rv} must have a bound"
            );
        }
        // At least one region (the pair's) actually allocates.
        assert!(bounds.values().any(|b| *b >= 1));
    }

    #[test]
    fn classification_is_a_partition() {
        let (finite, infinite) = analyze(
            "fun f x = (x, x) \
             fun main () = let val p = (1, \"s\") in size (#2 p) + #1 (f 1) end",
        );
        assert!(finite.is_disjoint(&infinite));
    }
}
