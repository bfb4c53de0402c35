//! Bottom-up rewriting on `Form` trees, and the two rewrites the VC generator runs on
//! them (§5.3): unfolding the definitions of specification variables, and resolving
//! `old` against pre-state snapshots.
//!
//! The rewrites that bring a sequent into a prover's fragment (membership expansion,
//! extensionality, pointwise function equalities, field-write applications, `ite`
//! lifting) run on the formula bank ([`crate::bank::Bank::expand_membership`],
//! [`crate::bank::Bank::first_order_implication`]); their `Form`-recursive versions are
//! kept as test oracles in `crates/logic/tests/reference`.

use crate::form::{Const, Form, Ident};
use crate::subst::{beta_reduce, free_vars, substitute, Subst};
use std::collections::BTreeMap;

/// Applies a bottom-up rewriting function until the formula no longer changes (with an
/// iteration bound to guarantee termination on non-confluent rewrite functions).
pub fn rewrite_fixpoint(form: &Form, rewrite: &dyn Fn(&Form) -> Option<Form>) -> Form {
    let mut current = form.clone();
    for _ in 0..64 {
        let next = rewrite_bottom_up(&current, rewrite);
        if next == current {
            return next;
        }
        current = next;
    }
    current
}

/// One bottom-up pass of a rewriting function over the formula.
pub fn rewrite_bottom_up(form: &Form, rewrite: &dyn Fn(&Form) -> Option<Form>) -> Form {
    let rebuilt = match form {
        Form::Var(_) | Form::Const(_) => form.clone(),
        Form::Typed(f, t) => Form::Typed(Box::new(rewrite_bottom_up(f, rewrite)), t.clone()),
        Form::Binder(b, vars, body) => {
            Form::Binder(*b, vars.clone(), Box::new(rewrite_bottom_up(body, rewrite)))
        }
        Form::App(f, args) => Form::app(
            rewrite_bottom_up(f, rewrite),
            args.iter().map(|a| rewrite_bottom_up(a, rewrite)).collect(),
        ),
    };
    rewrite(&rebuilt).unwrap_or(rebuilt)
}

/// Substitutes the definitions of *defined* specification variables (§3.2). Definitions
/// must be acyclic; the function repeatedly substitutes until no defined variable remains
/// (bounded by the number of definitions).
pub fn unfold_definitions(form: &Form, defs: &BTreeMap<Ident, Form>) -> Form {
    if defs.is_empty() {
        return form.clone();
    }
    let sub: Subst = defs.clone();
    let mut current = form.clone();
    for _ in 0..=defs.len() {
        let fv = free_vars(&current);
        if !fv.iter().any(|v| defs.contains_key(v)) {
            break;
        }
        current = beta_reduce(&substitute(&current, &sub));
    }
    current
}

/// Replaces every `old e` with `e` after substituting pre-state variable snapshots: each
/// free variable `v` of `e` that appears in `snapshot` is replaced by its snapshot name.
/// This is how the VC generator resolves two-state postconditions.
pub fn resolve_old(form: &Form, snapshot: &BTreeMap<Ident, Ident>) -> Form {
    rewrite_fixpoint(form, &|f| {
        let args = f.as_app_of(&Const::Old)?;
        let [inner] = args else { return None };
        let mut sub = Subst::new();
        for v in free_vars(inner) {
            if let Some(pre) = snapshot.get(&v) {
                sub.insert(v.clone(), Form::var(pre.clone()));
            }
        }
        Some(substitute(inner, &sub))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::Bank;
    use crate::parser::parse_form;
    use std::collections::BTreeSet;

    fn p(s: &str) -> Form {
        parse_form(s).expect("parse")
    }

    #[test]
    fn unfolds_defined_specvars() {
        let mut defs = BTreeMap::new();
        defs.insert("content".to_string(), p("cnt first"));
        defs.insert("inrange".to_string(), p("% i. 0 <= i & i < size"));
        let f = p("x : content & inrange 3");
        let g = unfold_definitions(&f, &defs);
        assert_eq!(g.to_string(), "x : cnt first & 0 <= 3 & 3 < size");
    }

    #[test]
    fn unfolds_chained_definitions() {
        let mut defs = BTreeMap::new();
        defs.insert("a".to_string(), p("b Un {x}"));
        defs.insert("b".to_string(), p("c"));
        let f = p("y : a");
        assert_eq!(unfold_definitions(&f, &defs).to_string(), "y : c Un {x}");
    }

    /// `text` rewritten as SMT's and FOL's front end rewrites a goal, with no set or
    /// function variables declared, printed.
    fn first_order(text: &str) -> String {
        let mut bank = Bank::new();
        let goal = bank.intern(&p(text));
        let vars = bank.first_order_vars(&BTreeSet::new(), &BTreeSet::new());
        let (_, out) = bank.first_order_implication(&[], goal, vars);
        bank.materialise(out).to_string()
    }

    /// `text` with membership expanded on a bank, printed.
    fn membership(text: &str) -> String {
        let mut bank = Bank::new();
        let id = bank.intern(&p(text));
        let out = bank.expand_membership(id);
        bank.materialise(out).to_string()
    }

    #[test]
    fn expands_membership_in_set_algebra() {
        assert_eq!(
            membership("x : (a Un b) Int (c - {d})"),
            "(x : a | x : b) & x : c & ~(x = d)"
        );
    }

    #[test]
    fn expands_membership_in_comprehension() {
        assert_eq!(
            membership("z : {n. n ~= null & n : nodes}"),
            "~(z = null) & z : nodes"
        );
    }

    #[test]
    fn expands_set_equality_to_extensionality() {
        let g = first_order("content = old_content Un {x}");
        assert!(g.starts_with("ALL elt."), "{g}");
        assert!(g.contains("elt : old_content | elt = x"), "{g}");
    }

    #[test]
    fn expands_tuple_equality_componentwise() {
        assert_eq!(first_order("(a, b) = (c, d)"), "a = c & b = d");
    }

    #[test]
    fn expands_field_write_applications() {
        assert_eq!(
            first_order("(next(x := y)) z = w"),
            "(z = x --> y = w) & (~(z = x) --> next z = w)"
        );
    }

    #[test]
    fn expands_array_write_reads() {
        let g = first_order("arrayRead (arrayWrite arrayState a i v) a j = null");
        assert!(g.contains("-->") && g.contains("arrayRead"), "{g}");
    }

    #[test]
    fn resolves_old_expressions() {
        let mut snap = BTreeMap::new();
        snap.insert("content".to_string(), "content_pre".to_string());
        let f = p("content = old content Un {x}");
        assert_eq!(
            resolve_old(&f, &snap).to_string(),
            "content = content_pre Un {x}"
        );
    }

    #[test]
    fn rewrite_fixpoint_terminates_on_identity() {
        let f = p("p & q");
        assert_eq!(rewrite_fixpoint(&f, &|_| None), f);
    }
}
