//! Free variables, capture-avoiding substitution, alpha-renaming and beta reduction.
//!
//! These operations underpin the verification-condition generator (substituting
//! definitions of specification variables, resolving `old` expressions) and the
//! formula-approximation rewrites of §5.3.

use crate::form::{Binder, Form, Ident};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// A substitution from variable names to formulas.
pub type Subst = BTreeMap<Ident, Form>;

/// Returns the set of free variables of a formula.
///
/// # Examples
///
/// ```
/// use jahob_logic::{form::Form, subst::free_vars, types::Type};
/// let f = Form::forall("x", Type::Obj, Form::eq(Form::var("x"), Form::var("y")));
/// let fv = free_vars(&f);
/// assert!(fv.contains("y") && !fv.contains("x"));
/// ```
pub fn free_vars(form: &Form) -> BTreeSet<Ident> {
    let mut acc = BTreeSet::new();
    collect_free(form, &mut Vec::new(), &mut acc);
    acc
}

fn collect_free(form: &Form, bound: &mut Vec<Ident>, acc: &mut BTreeSet<Ident>) {
    match form {
        Form::Var(v) => {
            if !bound.iter().any(|b| b == v) {
                acc.insert(v.clone());
            }
        }
        Form::Const(_) => {}
        Form::App(f, args) => {
            collect_free(f, bound, acc);
            for a in args {
                collect_free(a, bound, acc);
            }
        }
        Form::Binder(_, vars, body) => {
            let n = vars.len();
            bound.extend(vars.iter().map(|(v, _)| v.clone()));
            collect_free(body, bound, acc);
            bound.truncate(bound.len() - n);
        }
        Form::Typed(f, _) => collect_free(f, bound, acc),
    }
}

/// Generates a variant of `base` that does not occur in `avoid`.
pub fn fresh_name(base: &str, avoid: &BTreeSet<Ident>) -> Ident {
    fresh_name_by(base, |name| avoid.contains(name))
}

/// [`fresh_name`] with the names to avoid given as a predicate, so a caller can test a
/// candidate against sets it never builds: `base` itself unless it is `taken`,
/// otherwise the first `stem_i` not `taken`, counting from 1, where `stem` is `base`
/// without its trailing digits (`v` if that leaves nothing).
pub fn fresh_name_by(base: &str, taken: impl Fn(&str) -> bool) -> Ident {
    if !taken(base) {
        return base.to_string();
    }
    let stem = base.trim_end_matches(|c: char| c.is_ascii_digit());
    let stem = if stem.is_empty() { "v" } else { stem };
    for i in 1.. {
        let candidate = format!("{stem}_{i}");
        if !taken(&candidate) {
            return candidate;
        }
    }
    unreachable!("fresh_name: exhausted counter")
}

/// Applies the substitution `sub` to `form`, renaming bound variables to avoid capture.
///
/// # Examples
///
/// ```
/// use jahob_logic::{form::Form, subst::{substitute, Subst}};
/// let mut s = Subst::new();
/// s.insert("x".to_string(), Form::int(3));
/// let f = Form::eq(Form::var("x"), Form::var("y"));
/// assert_eq!(substitute(&f, &s).to_string(), "3 = y");
/// ```
pub fn substitute(form: &Form, sub: &Subst) -> Form {
    if sub.is_empty() {
        return form.clone();
    }
    // Precompute the free variables of the replacement terms once.
    let mut replacement_fvs: BTreeSet<Ident> = BTreeSet::new();
    for f in sub.values() {
        replacement_fvs.extend(free_vars(f));
    }
    subst_rec(form, sub, &replacement_fvs)
}

/// Applies `sub` to `form` given `replacement_fvs`, the free variables of its
/// replacement terms.
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
            // Remove bindings shadowed by the binder, copying the map only when one is.
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
            // Rename bound variables that would capture free variables of replacements.
            // The renamed body is substituted next, so a fresh name must also avoid the
            // substitution's keys (or the renamed variable would itself be replaced)
            // and the binder's other variables.
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

/// Substitutes a single variable.
pub fn substitute_one(form: &Form, name: &str, replacement: &Form) -> Form {
    let mut s = Subst::new();
    s.insert(name.to_string(), replacement.clone());
    substitute(form, &s)
}

/// Performs beta reduction everywhere in the formula:
/// `(% x. e) a` reduces to `e[x := a]`, including partial application of multi-variable
/// lambdas, and membership in comprehensions `x : {y. F}` reduces to `F[y := x]`.
pub fn beta_reduce(form: &Form) -> Form {
    let mut current = form.clone();
    if !has_redex(form) {
        return current;
    }
    // Iterate to a fixpoint; reductions can expose new redexes. The bound prevents
    // divergence on ill-typed self-applications (which cannot arise from the parser).
    for _ in 0..64 {
        let next = beta_step(&current);
        if next == current {
            return next;
        }
        current = next;
    }
    current
}

/// Whether [`beta_step`] could change `form`: it contains a lambda application, a
/// membership in a comprehension, or an application [`Form::app`] would rebuild
/// (one with no arguments, or of an application).
fn has_redex(form: &Form) -> bool {
    match form {
        Form::Var(_) | Form::Const(_) => false,
        Form::Typed(f, _) => has_redex(f),
        Form::Binder(_, _, body) => has_redex(body),
        Form::App(f, args) => {
            args.is_empty()
                || matches!(**f, Form::App(..) | Form::Binder(Binder::Lambda, ..))
                || (matches!(**f, Form::Const(crate::form::Const::Elem))
                    && matches!(args.get(1), Some(Form::Binder(Binder::Comprehension, ..))))
                || has_redex(f)
                || args.iter().any(has_redex)
        }
    }
}

fn beta_step(form: &Form) -> Form {
    match form {
        Form::Var(_) | Form::Const(_) => form.clone(),
        Form::Typed(f, t) => Form::Typed(Box::new(beta_step(f)), t.clone()),
        Form::Binder(b, vars, body) => Form::Binder(*b, vars.clone(), Box::new(beta_step(body))),
        Form::App(f, args) => {
            let f = beta_step(f);
            let args: Vec<Form> = args.iter().map(beta_step).collect();
            // Membership in a comprehension.
            if let Form::Const(crate::form::Const::Elem) = &f {
                if args.len() == 2 {
                    if let Form::Binder(Binder::Comprehension, vars, body) = &args[1] {
                        if let Some(reduced) = reduce_comprehension_elem(&args[0], vars, body) {
                            return reduced;
                        }
                    }
                }
            }
            // Lambda application.
            if let Form::Binder(Binder::Lambda, vars, body) = &f {
                let n = vars.len().min(args.len());
                let mut sub = Subst::new();
                for ((v, _), a) in vars.iter().zip(args.iter()).take(n) {
                    sub.insert(v.clone(), a.clone());
                }
                let remaining_vars: Vec<_> = vars.iter().skip(n).cloned().collect();
                let reduced_body = substitute(body, &sub);
                let reduced = Form::lambda(remaining_vars, reduced_body);
                let rest: Vec<Form> = args.into_iter().skip(n).collect();
                return Form::app(reduced, rest);
            }
            Form::app(f, args)
        }
    }
}

/// Reduces `x : {vars. body}`. For a multi-variable comprehension the element must be a
/// tuple of matching arity (otherwise the membership is left untouched).
fn reduce_comprehension_elem(
    elem: &Form,
    vars: &[(Ident, crate::types::Type)],
    body: &Form,
) -> Option<Form> {
    use crate::form::Const;
    let mut sub = Subst::new();
    if vars.len() == 1 {
        sub.insert(vars[0].0.clone(), elem.clone());
    } else {
        let components = elem.as_app_of(&Const::Tuple)?;
        if components.len() != vars.len() {
            return None;
        }
        for ((v, _), c) in vars.iter().zip(components.iter()) {
            sub.insert(v.clone(), c.clone());
        }
    }
    Some(substitute(body, &sub))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::form::Form;
    use crate::parser::parse_form;
    use crate::types::Type;

    #[test]
    fn free_vars_ignores_bound() {
        let f = Form::exists(
            "v",
            Type::Obj,
            Form::elem(
                Form::tuple(vec![Form::var("k"), Form::var("v")]),
                Form::var("content"),
            ),
        );
        let fv = free_vars(&f);
        assert!(fv.contains("k"));
        assert!(fv.contains("content"));
        assert!(!fv.contains("v"));
    }

    #[test]
    fn substitution_avoids_capture() {
        // (ALL y. x = y)[x := y]  must rename the bound y.
        let f = Form::forall("y", Type::Obj, Form::eq(Form::var("x"), Form::var("y")));
        let g = substitute_one(&f, "x", &Form::var("y"));
        match &g {
            Form::Binder(Binder::Forall, vars, body) => {
                assert_ne!(vars[0].0, "y");
                let (l, r) = body.as_eq().expect("eq");
                assert_eq!(*l, Form::var("y"));
                assert_eq!(*r, Form::Var(vars[0].0.clone()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn renamed_binders_avoid_the_substitution_keys() {
        // (ALL y. p x y)[x := y, y_1 := c]: the bound y must be renamed to avoid
        // capturing the replacement y, and not to y_1, which the same substitution
        // would then replace by c (giving the stronger `ALL y_1. p y c`).
        let f = parse_form("ALL y. p x y").expect("parse");
        let mut s = Subst::new();
        s.insert("x".to_string(), Form::var("y"));
        s.insert("y_1".to_string(), Form::var("c"));
        assert_eq!(
            substitute(&f, &s),
            parse_form("ALL y_2. p y y_2").expect("parse")
        );
    }

    #[test]
    fn renamed_binders_avoid_their_sibling_variables() {
        // (% y y_1. y)[x := y]: renaming the first variable to y_1 would make the body
        // refer to the second.
        let f = parse_form("% y y_1. y").expect("parse");
        let g = substitute_one(&f, "x", &Form::var("y"));
        assert_eq!(g, parse_form("% y_2 y_1. y_2").expect("parse"));
    }

    #[test]
    fn substitution_respects_shadowing() {
        let f = Form::forall("x", Type::Obj, Form::var("x"));
        let g = substitute_one(&f, "x", &Form::int(1));
        assert_eq!(f, g);
    }

    #[test]
    fn beta_reduces_lambda_application() {
        let lam = Form::lambda(
            vec![("x".to_string(), Type::Int)],
            Form::plus(Form::var("x"), Form::int(1)),
        );
        let app = Form::app(lam, vec![Form::int(41)]);
        assert_eq!(beta_reduce(&app).to_string(), "41 + 1");
    }

    #[test]
    fn beta_reduces_multi_arg_lambda() {
        let lam = Form::lambda(
            vec![("x".to_string(), Type::Obj), ("y".to_string(), Type::Obj)],
            Form::eq(Form::var("x"), Form::var("y")),
        );
        let app = Form::app(lam, vec![Form::var("a"), Form::var("b")]);
        assert_eq!(beta_reduce(&app), Form::eq(Form::var("a"), Form::var("b")));
    }

    #[test]
    fn beta_reduction_uncurries_nested_applications() {
        // `(f a) b` holds no lambda, but beta reduction rebuilds it through `Form::app`,
        // which flattens it to `f a b`.
        let nested = Form::App(
            Box::new(Form::app(Form::var("f"), vec![Form::var("a")])),
            vec![Form::var("b")],
        );
        assert_eq!(
            beta_reduce(&nested),
            Form::app(Form::var("f"), vec![Form::var("a"), Form::var("b")])
        );
    }

    #[test]
    fn beta_reduces_comprehension_membership() {
        let compr = Form::comprehension(
            vec![("n".to_string(), Type::Obj)],
            Form::neq(Form::var("n"), Form::null()),
        );
        let f = Form::elem(Form::var("z"), compr);
        assert_eq!(beta_reduce(&f), Form::neq(Form::var("z"), Form::null()));
    }

    #[test]
    fn beta_reduces_pair_comprehension_membership() {
        let compr = Form::comprehension(
            vec![("u".to_string(), Type::Obj), ("v".to_string(), Type::Obj)],
            Form::eq(
                Form::field_read(Form::var("next"), Form::var("u")),
                Form::var("v"),
            ),
        );
        let f = Form::elem(Form::tuple(vec![Form::var("a"), Form::var("b")]), compr);
        assert_eq!(
            beta_reduce(&f),
            Form::eq(
                Form::field_read(Form::var("next"), Form::var("a")),
                Form::var("b")
            )
        );
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let mut avoid = BTreeSet::new();
        avoid.insert("x".to_string());
        avoid.insert("x_1".to_string());
        assert_eq!(fresh_name("x", &avoid), "x_2");
        assert_eq!(fresh_name("y", &avoid), "y");
    }
}
