//! Definition inlining and canonicalisation as they were before the formula bank,
//! kept as test oracles.
//!
//! Each sequent is inlined on its own, on owned `Form` trees: the definitional links
//! are collected from its comment-stripped assumptions, resolved in one depth-first
//! pass in name order, and substituted into every formula with capture-avoiding
//! renaming, each result simplified. `jahob_logic::bank::Bank::inline_definitions`,
//! which shares the work between the sequents of a batch, must build exactly what
//! [`inline_definitions`] builds, whatever else the bank holds.
//!
//! [`canonicalize`], [`sort_commutative`], [`alpha_normalize`] and [`key_form`] rebuild
//! each formula recursively, as the library did before it ran them on the bank
//! (`Bank::canonical`, `Bank::sort_commutative`, `Bank::alpha_normalize` and
//! `Bank::key_form`). [`simplify`], [`rewrite`] and [`approx`] hold simplification,
//! negation normal form, the fragment rewrites and the polarity approximation with the
//! provers' front ends, as they ran on `Form` trees.

#![allow(dead_code)]

pub mod approx;
pub mod rewrite;
pub mod simplify;

use self::rewrite::expand_set_membership;
use self::simplify::simplify;
use jahob_logic::form::{Const, Form, Ident};
use jahob_logic::norm::is_generated_name;
use jahob_logic::simplify::strip_comments_deep;
use jahob_logic::subst::{free_vars, fresh_name, substitute_one, Subst};
use jahob_logic::Sequent;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// The definitional substitution of `assumptions`.
pub fn definition_substitution(assumptions: &[Form]) -> Subst {
    resolve_definitions(assumptions).0
}

/// Inlines the definitions of a sequent's generated variables into every formula,
/// dropping assumptions that become `True`; a sequent that defines nothing is returned
/// unchanged.
pub fn inline_definitions(sequent: &Sequent) -> Sequent {
    let (sub, fvs) = resolve_definitions(&sequent.assumptions);
    if sub.is_empty() {
        return sequent.clone();
    }
    let inline = |f: &Form| simplify(&subst_rec(f, &sub, &fvs));
    Sequent {
        assumptions: sequent
            .assumptions
            .iter()
            .map(inline)
            .filter(|a| !a.is_true())
            .collect(),
        goal: inline(&sequent.goal),
        labels: sequent.labels.clone(),
    }
}

/// The resolved substitution and the free variables of its replacements.
fn resolve_definitions(assumptions: &[Form]) -> (Subst, BTreeSet<Ident>) {
    let mut map = collect_definitions(assumptions);
    let raw_fvs: BTreeMap<Ident, BTreeSet<Ident>> =
        map.iter().map(|(v, t)| (v.clone(), free_vars(t))).collect();
    let renaming_fvs: BTreeSet<Ident> = raw_fvs.values().flatten().cloned().collect();
    let mut acyclic = BTreeMap::new();
    for v in raw_fvs.keys() {
        resolve(v, &mut map, &raw_fvs, &renaming_fvs, &mut acyclic);
    }
    let mut fvs = BTreeSet::new();
    for (v, raw) in &raw_fvs {
        let keeps_keys = !acyclic[v];
        fvs.extend(
            raw.iter()
                .filter(|u| keeps_keys || !map.contains_key(*u))
                .cloned(),
        );
    }
    (map, fvs)
}

/// The definitional links among `assumptions`, as written (comments stripped).
fn collect_definitions(assumptions: &[Form]) -> Subst {
    let mut map = Subst::new();
    for a in assumptions {
        let stripped = strip_comments_deep(a);
        for c in stripped.conjuncts() {
            let link = c.as_eq().or_else(|| {
                c.as_app_of(&Const::Iff).and_then(|args| match args {
                    [l, r] => Some((l, r)),
                    _ => None,
                })
            });
            let Some((l, r)) = link else { continue };
            for (lhs, rhs) in [(l, r), (r, l)] {
                let Form::Var(v) = lhs else { continue };
                if !is_generated_name(v) || map.contains_key(v) || free_vars(rhs).contains(v) {
                    continue;
                }
                map.insert(v.clone(), rhs.clone());
                break;
            }
        }
    }
    map
}

/// Resolves `v`'s binding after the bindings it mentions; `false` on a cycle.
fn resolve(
    v: &Ident,
    map: &mut Subst,
    raw_fvs: &BTreeMap<Ident, BTreeSet<Ident>>,
    renaming_fvs: &BTreeSet<Ident>,
    acyclic: &mut BTreeMap<Ident, bool>,
) -> bool {
    if let Some(&known) = acyclic.get(v) {
        return known;
    }
    acyclic.insert(v.clone(), false);
    let mut resolvable = true;
    for u in &raw_fvs[v] {
        if raw_fvs.contains_key(u) {
            resolvable &= resolve(u, map, raw_fvs, renaming_fvs, acyclic);
        }
    }
    if resolvable {
        let resolved = subst_rec(&map[v], map, renaming_fvs);
        map.insert(v.clone(), resolved);
        acyclic.insert(v.clone(), true);
    }
    resolvable
}

/// Capture-avoiding substitution given the free variables of the replacements.
fn subst_rec(form: &Form, sub: &Subst, replacement_fvs: &BTreeSet<Ident>) -> Form {
    match form {
        Form::Var(v) => sub.get(v).cloned().unwrap_or_else(|| form.clone()),
        Form::Const(_) => form.clone(),
        Form::App(f, args) => Form::App(
            Box::new(subst_rec(f, sub, replacement_fvs)),
            args.iter()
                .map(|a| subst_rec(a, sub, replacement_fvs))
                .collect(),
        ),
        Form::Typed(f, t) => Form::Typed(Box::new(subst_rec(f, sub, replacement_fvs)), t.clone()),
        Form::Binder(binder, vars, body) => {
            let inner_sub = if vars.iter().any(|(v, _)| sub.contains_key(v)) {
                Cow::Owned(
                    sub.iter()
                        .filter(|(k, _)| !vars.iter().any(|(v, _)| v == *k))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                )
            } else {
                Cow::Borrowed(sub)
            };
            if inner_sub.is_empty() {
                return form.clone();
            }
            if !vars.iter().any(|(v, _)| replacement_fvs.contains(v)) {
                return Form::Binder(
                    *binder,
                    vars.clone(),
                    Box::new(subst_rec(body, &inner_sub, replacement_fvs)),
                );
            }
            let mut avoid: BTreeSet<Ident> = replacement_fvs.clone();
            avoid.extend(free_vars(body));
            avoid.extend(sub.keys().cloned());
            avoid.extend(vars.iter().map(|(v, _)| v.clone()));
            let mut new_vars = Vec::with_capacity(vars.len());
            let mut body = body.as_ref().clone();
            for (v, t) in vars {
                if replacement_fvs.contains(v) {
                    let fresh = fresh_name(v, &avoid);
                    avoid.insert(fresh.clone());
                    body = substitute_one(&body, v, &Form::Var(fresh.clone()));
                    new_vars.push((fresh, t.clone()));
                } else {
                    new_vars.push((v.clone(), t.clone()));
                }
            }
            Form::Binder(
                *binder,
                new_vars,
                Box::new(subst_rec(&body, &inner_sub, replacement_fvs)),
            )
        }
    }
}

/// Sorts the arguments of commutative operators on `Form` trees: `&` and `|` are
/// flattened, sorted and deduplicated, `=` and `<->` order their two operands, and
/// binary `Un`, `Int`, `+` and `*` chains are flattened, sorted (deduplicated only for
/// `Un` and `Int`) and rebuilt left-nested. Every other node is rebuilt as it is.
pub fn sort_commutative(form: &Form) -> Form {
    match form {
        Form::Var(_) | Form::Const(_) => form.clone(),
        Form::Typed(f, t) => Form::Typed(Box::new(sort_commutative(f)), t.clone()),
        Form::Binder(b, vars, body) => {
            Form::Binder(*b, vars.clone(), Box::new(sort_commutative(body)))
        }
        Form::App(fun, args) => {
            let fun = sort_commutative(fun);
            let args: Vec<Form> = args.iter().map(sort_commutative).collect();
            if let Form::Const(c) = &fun {
                match c {
                    Const::And | Const::Or => {
                        let mut parts: Vec<Form> = Vec::new();
                        for a in &args {
                            let leaves = if *c == Const::And {
                                a.conjuncts()
                            } else {
                                a.disjuncts()
                            };
                            parts.extend(leaves.into_iter().cloned());
                        }
                        parts.sort();
                        parts.dedup();
                        return if *c == Const::And {
                            Form::and(parts)
                        } else {
                            Form::or(parts)
                        };
                    }
                    Const::Eq | Const::Iff if args.len() == 2 => {
                        let mut args = args;
                        if args[0] > args[1] {
                            args.swap(0, 1);
                        }
                        return Form::app(fun, args);
                    }
                    Const::Union | Const::Inter | Const::Plus | Const::Times if args.len() == 2 => {
                        let mut leaves = Vec::new();
                        for a in &args {
                            collect_ac_leaves(c, a, &mut leaves);
                        }
                        leaves.sort();
                        if matches!(c, Const::Union | Const::Inter) {
                            leaves.dedup();
                        }
                        let mut iter = leaves.into_iter();
                        let first = iter.next().expect("binary operator has arguments");
                        return iter.fold(first, |acc, next| {
                            Form::app(Form::Const(c.clone()), vec![acc, next])
                        });
                    }
                    _ => {}
                }
            }
            Form::App(Box::new(fun), args)
        }
    }
}

/// The leaves of a chain of binary applications of `op`.
fn collect_ac_leaves(op: &Const, form: &Form, out: &mut Vec<Form>) {
    if let Some(parts) = form.as_app_of(op) {
        if parts.len() == 2 {
            for p in parts {
                collect_ac_leaves(op, p, out);
            }
            return;
        }
    }
    out.push(form.clone());
}

/// Strips comments, expands membership, simplifies, sorts commutative operators and
/// simplifies again, on `Form` trees.
pub fn canonicalize(form: &Form) -> Form {
    let f = strip_comments_deep(form);
    let f = expand_set_membership(&f);
    let f = simplify(&f);
    let f = sort_commutative(&f);
    simplify(&f)
}

/// Renames every bound variable `?b<depth>`, the number of enclosing bound variables;
/// applications and binders are rebuilt as they are.
pub fn alpha_normalize(form: &Form) -> Form {
    fn go(form: &Form, env: &mut Vec<(Ident, Ident)>) -> Form {
        match form {
            Form::Var(v) => {
                for (from, to) in env.iter().rev() {
                    if from == v {
                        return Form::Var(to.clone());
                    }
                }
                form.clone()
            }
            Form::Const(_) => form.clone(),
            Form::Typed(f, t) => Form::Typed(Box::new(go(f, env)), t.clone()),
            Form::App(fun, args) => Form::App(
                Box::new(go(fun, env)),
                args.iter().map(|a| go(a, env)).collect(),
            ),
            Form::Binder(b, vars, body) => {
                let depth = env.len();
                let mut renamed = Vec::with_capacity(vars.len());
                for (v, t) in vars {
                    let fresh = format!("?b{}", env.len());
                    env.push((v.clone(), fresh.clone()));
                    renamed.push((fresh, t.clone()));
                }
                let body = go(body, env);
                env.truncate(depth);
                Form::Binder(*b, renamed, Box::new(body))
            }
        }
    }
    go(form, &mut Vec::new())
}

/// The cache key's form of one formula: [`alpha_normalize`] then [`canonicalize`],
/// repeated until nothing changes, for at most five rounds.
pub fn key_form(form: &Form) -> Form {
    let mut current = canonicalize(&alpha_normalize(form));
    for _ in 0..4 {
        let next = canonicalize(&alpha_normalize(&current));
        if next == current {
            break;
        }
        current = next;
    }
    current
}
