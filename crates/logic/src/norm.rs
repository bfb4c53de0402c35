//! Canonicalisation and definitional inlining.
//!
//! The verification-condition generator introduces many intermediate variables: the
//! desugaring of assignments produces `asg$N` temporaries (Figure 11), allocation
//! produces `fresh$N` witnesses, the pre-state snapshot produces `old$x` copies, and the
//! splitter renames havocked variables to `x_1`, `x_2`, ... (Figure 13). Before a sequent
//! reaches a prover, Jahob "applies rewrite rules that substitute definitions of values,
//! perform beta reduction, and flatten expressions" (§5.3). This module implements that
//! preprocessing step:
//!
//! * [`definition_substitution`] / [`inline_definitions`] collapse the definitional
//!   equations of generated variables, so `content_1 = asg$3`, `asg$3 = {x} Un content`
//!   contribute a single binding `content_1 ↦ {x} Un content`;
//! * [`sort_commutative`] orders the arguments of commutative operators so that
//!   AC-equal formulas (`{x} Un content` vs `content Un {x}`) become syntactically equal;
//! * [`canonicalize`] combines comment stripping, membership expansion, simplification
//!   and AC sorting — the "simple syntactic transformations that preserve validity" the
//!   syntactic prover (§6.1) checks modulo.

use crate::form::{Const, Form, Ident};
use crate::rewrite::expand_set_membership;
use crate::sequent::Sequent;
use crate::simplify::{simplify, strip_comments_deep};
use crate::subst::{free_vars, subst_rec, Subst};
use std::collections::{BTreeMap, BTreeSet};

/// Returns `true` if `name` was introduced by the verification-condition generator rather
/// than written by the developer: desugaring temporaries and snapshots contain a `$`
/// (`asg$3`, `fresh$1`, `old$content`), and splitter renamings end in `_<digits>`
/// (`content_1`).
///
/// # Examples
///
/// ```
/// use jahob_logic::norm::is_generated_name;
/// assert!(is_generated_name("asg$3"));
/// assert!(is_generated_name("old$content"));
/// assert!(is_generated_name("content_1"));
/// assert!(!is_generated_name("content"));
/// assert!(!is_generated_name("x"));
/// ```
pub fn is_generated_name(name: &str) -> bool {
    if name.contains('$') {
        return true;
    }
    match name.rsplit_once('_') {
        Some((stem, suffix)) => {
            !stem.is_empty() && !suffix.is_empty() && suffix.chars().all(|c| c.is_ascii_digit())
        }
        None => false,
    }
}

/// Collects a substitution for generated variables from the definitional equalities
/// among `assumptions`: every (comment-stripped) conjunct of the form `v = t` or `t = v`
/// with `v` a generated variable not occurring in `t` contributes a binding, the first
/// one per variable winning.
///
/// Chains are resolved in one depth-first pass: each binding is rewritten once, by the
/// already resolved bindings it mentions, so `t` in `v ↦ t` mentions no variable the
/// substitution binds. Bindings on a cycle of definitions, and those that depend on one,
/// are left as written; no binding mentions its own variable.
pub fn definition_substitution(assumptions: &[Form]) -> Subst {
    resolve_definitions(assumptions).0
}

/// [`definition_substitution`] together with the free variables of its replacement
/// terms, which [`inline_definitions`] needs to apply it beneath binders.
fn resolve_definitions(assumptions: &[Form]) -> (Subst, BTreeSet<Ident>) {
    let mut map = collect_definitions(assumptions);
    let raw_fvs: BTreeMap<Ident, BTreeSet<Ident>> =
        map.iter().map(|(v, t)| (v.clone(), free_vars(t))).collect();
    // Binders in the values are renamed against the free variables of every value as
    // written, as a whole-map substitution of the values would.
    let renaming_fvs: BTreeSet<Ident> = raw_fvs.values().flatten().cloned().collect();
    let mut acyclic = BTreeMap::new();
    for v in raw_fvs.keys() {
        resolve(v, &mut map, &raw_fvs, &renaming_fvs, &mut acyclic);
    }
    // A resolved value mentions no variable the map binds; one left as written keeps
    // those it mentions.
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
            // Definitional links are either equalities `v = t` or (for boolean-valued
            // temporaries, e.g. `result` of a boolean method) bi-implications `v <-> F`.
            let link = c.as_eq().or_else(|| {
                c.as_app_of(&Const::Iff).and_then(|args| match args {
                    [l, r] => Some((l, r)),
                    _ => None,
                })
            });
            let Some((l, r)) = link else { continue };
            for (lhs, rhs) in [(l, r), (r, l)] {
                let Form::Var(v) = lhs else { continue };
                if !is_generated_name(v) || map.contains_key(v) {
                    continue;
                }
                if free_vars(rhs).contains(v) {
                    continue;
                }
                map.insert(v.clone(), rhs.clone());
                break;
            }
        }
    }
    map
}

/// Resolves `v`'s binding in place after the bindings it mentions, each at most once,
/// and returns whether it was resolved. `acyclic` marks every binding entered: `false`
/// until it is resolved, so reaching a binding still on the current path closes a cycle,
/// and everything on that path is left as written.
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

/// Inlines the definitional equalities of generated variables into the whole sequent.
/// Assumptions that become trivially true under the substitution (the definitional
/// equations themselves) are dropped; labels are preserved.
///
/// The result is equivalent to the input sequent: every substituted occurrence is
/// justified by one of the assumptions.
///
/// # Examples
///
/// ```
/// use jahob_logic::{norm::inline_definitions, parse_form, Sequent};
/// let sequent = Sequent::new(
///     vec![
///         parse_form("asg$1 = {x} Un content").unwrap(),
///         parse_form("content_1 = asg$1").unwrap(),
///     ],
///     parse_form("content_1 = content Un {x}").unwrap(),
/// );
/// let inlined = inline_definitions(&sequent);
/// assert_eq!(inlined.goal.to_string(), "{x} Un content = content Un {x}");
/// assert!(inlined.assumptions.is_empty());
/// ```
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

/// Sorts the arguments of commutative operators into a canonical order and flattens
/// chains of the same associative-commutative operator, so that AC-equal formulas become
/// structurally equal. The result is logically equivalent to the input.
///
/// Handled operators: `&`, `|` (sorted, duplicates removed), `=` and `<->` (operands
/// ordered), `Un`, `Int`, `+`, `*` (chains flattened, leaves sorted, rebuilt
/// left-nested).
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
                                a.conjuncts().into_iter().cloned().collect::<Vec<_>>()
                            } else {
                                a.disjuncts().into_iter().cloned().collect::<Vec<_>>()
                            };
                            parts.extend(leaves);
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
                        // Union and intersection are idempotent, and the simplifier
                        // collapses `t Un t` only when the copies are siblings — dedup
                        // here so AC-equal chains canonicalise identically regardless of
                        // the original association.
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

/// Canonicalises a formula for syntactic comparison: strips comments, expands membership
/// in set-algebraic expressions, simplifies, sorts commutative operators, and simplifies
/// again (so equalities whose operands became identical collapse to `True`).
pub fn canonicalize(form: &Form) -> Form {
    let f = strip_comments_deep(form);
    let f = expand_set_membership(&f);
    let f = simplify(&f);
    let f = sort_commutative(&f);
    simplify(&f)
}

/// Renames every bound variable to a canonical name (`?b<depth>`, its de Bruijn
/// level: the number of enclosing bound variables), so that alpha-equivalent formulas
/// become structurally equal. Free variables are untouched. The `?` prefix cannot be
/// produced by the parser, so the canonical names never collide with (or capture)
/// program and specification variables.
///
/// Naming by depth rather than by traversal order matters for AC canonicalisation:
/// sibling binders (two quantified disjuncts, say) receive the *same* canonical name,
/// so [`sort_commutative`] orders them by their bodies — a traversal-order numbering
/// would instead freeze whatever sibling order the input happened to have.
///
/// # Examples
///
/// ```
/// use jahob_logic::{norm::alpha_normalize, parse_form};
/// let a = alpha_normalize(&parse_form("EX v. v : content").unwrap());
/// let b = alpha_normalize(&parse_form("EX w. w : content").unwrap());
/// assert_eq!(a, b);
/// ```
pub fn alpha_normalize(form: &Form) -> Form {
    fn go(form: &Form, env: &mut Vec<(Ident, Ident)>) -> Form {
        match form {
            Form::Var(v) => {
                // Innermost binding wins (shadowing).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;

    fn p(s: &str) -> Form {
        parse_form(s).expect("parse")
    }

    #[test]
    fn generated_name_recognition() {
        for name in [
            "asg$1",
            "fresh$12",
            "old$content",
            "content_1",
            "n_23",
            "arrayState_2",
        ] {
            assert!(is_generated_name(name), "{name} should be generated");
        }
        for name in ["content", "x", "first", "old", "size2", "_1", "a_b"] {
            assert!(!is_generated_name(name), "{name} should not be generated");
        }
    }

    #[test]
    fn substitution_collapses_chains() {
        let assumptions = vec![
            p("asg$1 = {}"),
            p("nodes_1 = asg$1"),
            p("old$first = first"),
        ];
        let sub = definition_substitution(&assumptions);
        assert_eq!(sub.get("nodes_1"), Some(&p("{}")));
        assert_eq!(sub.get("asg$1"), Some(&p("{}")));
        assert_eq!(sub.get("old$first"), Some(&p("first")));
    }

    #[test]
    fn substitution_ignores_developer_variables_and_cycles() {
        let assumptions = vec![p("size = card content"), p("a_1 = b_1"), p("b_1 = a_1")];
        let sub = definition_substitution(&assumptions);
        assert!(!sub.contains_key("size"));
        // The pair is mutually defined; both orientations are recorded but the cyclic
        // resolution is skipped, so applying the substitution once is still sound.
        assert!(sub.contains_key("a_1") || sub.contains_key("b_1"));
    }

    #[test]
    fn inlining_keeps_quantifiers_out_of_reach_of_other_bindings() {
        // Inlining `asg$1 = y` renames the bound `y` of the existential; the fresh
        // name must not be `y_1`, which `y_1 = c` would then replace, turning the
        // existential into the stronger ground fact `p y c`.
        let sequent = Sequent::new(
            vec![p("asg$1 = y"), p("y_1 = c"), p("EX y. p asg$1 y")],
            p("q"),
        );
        let inlined = inline_definitions(&sequent);
        assert_eq!(inlined.assumptions, vec![p("EX y_2. p y y_2")]);
    }

    #[test]
    fn inline_definitions_discharges_copy_chains() {
        let sequent = Sequent::new(
            vec![p("asg$1 = null"), p("first_1 = asg$1"), p("p | q")],
            p("first_1 = null"),
        );
        let inlined = inline_definitions(&sequent);
        assert!(inlined.goal.is_true());
        assert_eq!(inlined.assumptions, vec![p("p | q")]);
    }

    #[test]
    fn inline_keeps_labels_and_non_trivial_assumptions() {
        let mut sequent = Sequent::new(
            vec![
                p("comment ''inv'' (size = card content)"),
                p("size_1 = size + 1"),
            ],
            p("size_1 = card content + 1"),
        );
        sequent.labels = vec!["post".to_string()];
        let inlined = inline_definitions(&sequent);
        assert_eq!(inlined.labels, vec!["post".to_string()]);
        assert_eq!(inlined.goal, p("size + 1 = card content + 1"));
        assert!(inlined
            .assumptions
            .iter()
            .any(|a| a.to_string().contains("card content")));
    }

    #[test]
    fn sorts_union_and_conjunction_operands() {
        assert_eq!(
            sort_commutative(&p("{x} Un content")),
            sort_commutative(&p("content Un {x}"))
        );
        assert_eq!(
            sort_commutative(&p("(a Un b) Un c")),
            sort_commutative(&p("c Un (b Un a)"))
        );
        assert_eq!(
            sort_commutative(&p("p & q & p")),
            sort_commutative(&p("q & p"))
        );
        assert_eq!(sort_commutative(&p("a = b")), sort_commutative(&p("b = a")));
    }

    #[test]
    fn sorting_preserves_non_commutative_operators() {
        assert_ne!(sort_commutative(&p("a - b")), sort_commutative(&p("b - a")));
        assert_ne!(
            sort_commutative(&p("a --> b")),
            sort_commutative(&p("b --> a"))
        );
    }

    #[test]
    fn canonicalize_identifies_ac_equal_set_updates() {
        let a = canonicalize(&p("{x} Un content = content Un {x}"));
        assert!(a.is_true());
        let b = canonicalize(&p("n : {n} Un nodes"));
        assert!(b.is_true());
    }

    #[test]
    fn alpha_normalize_identifies_renamed_binders() {
        assert_eq!(
            alpha_normalize(&p("ALL x. x : s --> x ~= null")),
            alpha_normalize(&p("ALL y. y : s --> y ~= null"))
        );
        // Nested binders and shadowing.
        assert_eq!(
            alpha_normalize(&p("EX a. a : s & (ALL a. a = a)")),
            alpha_normalize(&p("EX b. b : s & (ALL c. c = c)"))
        );
        // Free variables are untouched.
        assert_ne!(
            alpha_normalize(&p("EX v. v : content")),
            alpha_normalize(&p("EX v. v : nodes"))
        );
        assert_eq!(alpha_normalize(&p("x : s")), p("x : s"));
    }

    #[test]
    fn canonicalize_does_not_prove_distinct_formulas() {
        assert!(!canonicalize(&p("{x} Un content = content Un {y}")).is_true());
        assert!(!canonicalize(&p("a : b Un c")).is_true());
    }
}
