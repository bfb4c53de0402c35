//! The polarity approximation of Figure 14 on `Form` trees, and the front ends of the
//! first-order, MONA and BAPA provers built on it, as the library ran them before the
//! formula bank. `Bank::approximate` with each fragment, `Bank::first_order_implication`,
//! `jahob_mona::approximate` and `jahob_bapa::approximate` must build what these build.

use super::rewrite::{
    expand_complex_equalities, expand_field_write_applications, expand_function_equalities,
    expand_set_membership, lift_ite, looks_like_set,
};
use super::simplify::{nnf, simplify};
use jahob_logic::form::{Binder, Const, Form};
use jahob_logic::simplify::strip_comments_deep;
use jahob_logic::Sequent;
use std::collections::BTreeSet;

/// A copy of `sequent` with every `comment` label removed from its assumptions and goal
/// (the labels list is kept).
pub fn without_comments(sequent: &Sequent) -> Sequent {
    Sequent {
        assumptions: sequent
            .assumptions
            .iter()
            .map(strip_comments_deep)
            .collect(),
        goal: strip_comments_deep(&sequent.goal),
        labels: sequent.labels.clone(),
    }
}

/// The polarity of a subformula occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// The occurrence is positive (strengthening replaces it with `False`).
    Positive,
    /// The occurrence is negative (strengthening replaces it with `True`).
    Negative,
}

impl Polarity {
    /// Flips the polarity.
    pub fn flip(self) -> Polarity {
        match self {
            Polarity::Positive => Polarity::Negative,
            Polarity::Negative => Polarity::Positive,
        }
    }

    /// The strongest formula representable at this polarity (used for unsupported atoms).
    pub fn strongest(self) -> Form {
        match self {
            Polarity::Positive => Form::ff(),
            Polarity::Negative => Form::tt(),
        }
    }
}

/// Approximates `form` by a logically stronger formula in which every atom is either
/// accepted by `translate_atom` (which may rewrite it) or replaced by the strongest
/// formula for its polarity.
///
/// `translate_atom` receives each atom (a subformula that is not a connective or a
/// quantifier) together with its polarity and returns:
///
/// * `Some(f)` — the atom is representable in the target fragment as `f` (must be
///   equivalent or appropriately stronger), or
/// * `None` — the atom is not representable and is approximated away.
///
/// Quantifiers are preserved; prover interfaces that cannot handle quantifiers apply
/// their own elimination before or after calling this function.
pub fn approximate(
    form: &Form,
    polarity: Polarity,
    translate_atom: &dyn Fn(&Form, Polarity) -> Option<Form>,
) -> Form {
    match form {
        Form::Const(Const::BoolLit(_)) => form.clone(),
        Form::App(fun, args) => {
            if let Form::Const(c) = fun.as_ref() {
                match (c, args.as_slice()) {
                    (Const::And, _) => {
                        return Form::and(
                            args.iter()
                                .map(|a| approximate(a, polarity, translate_atom))
                                .collect(),
                        )
                    }
                    (Const::Or, _) => {
                        return Form::or(
                            args.iter()
                                .map(|a| approximate(a, polarity, translate_atom))
                                .collect(),
                        )
                    }
                    (Const::Not, [f]) => {
                        return Form::not(approximate(f, polarity.flip(), translate_atom))
                    }
                    (Const::Impl, [l, r]) => {
                        return Form::implies(
                            approximate(l, polarity.flip(), translate_atom),
                            approximate(r, polarity, translate_atom),
                        )
                    }
                    (Const::Iff, [l, r]) => {
                        // Expand to implications so each side gets a definite polarity.
                        let expanded = Form::and(vec![
                            Form::implies(l.clone(), r.clone()),
                            Form::implies(r.clone(), l.clone()),
                        ]);
                        return approximate(&expanded, polarity, translate_atom);
                    }
                    (Const::Comment(label), [f]) => {
                        return Form::comment(
                            label.clone(),
                            approximate(f, polarity, translate_atom),
                        )
                    }
                    _ => {}
                }
            }
            translate_atom(form, polarity).unwrap_or_else(|| polarity.strongest())
        }
        Form::Binder(Binder::Forall, vars, body) => {
            Form::forall_many(vars.clone(), approximate(body, polarity, translate_atom))
        }
        Form::Binder(Binder::Exists, vars, body) => {
            Form::exists_many(vars.clone(), approximate(body, polarity, translate_atom))
        }
        _ => translate_atom(form, polarity).unwrap_or_else(|| polarity.strongest()),
    }
}

/// Approximates a sequent-shaped implication `assumptions --> goal`: assumptions sit in
/// negative positions (unsupported assumptions are simply dropped, i.e. become `True`),
/// the goal in a positive position.
pub fn approximate_implication(
    assumptions: &[Form],
    goal: &Form,
    translate_atom: &dyn Fn(&Form, Polarity) -> Option<Form>,
) -> (Vec<Form>, Form) {
    let approx_assumptions = assumptions
        .iter()
        .map(|a| approximate(a, Polarity::Negative, translate_atom))
        .filter(|a| !a.is_true())
        .collect();
    let approx_goal = approximate(goal, Polarity::Positive, translate_atom);
    (approx_assumptions, approx_goal)
}

/// The first-order front end of the SMT and first-order provers (§6.2, §6.3). It strips
/// comments and rewrites every formula of `sequent` into first-order shape: function
/// equalities pointwise, field-write applications into `ite`, set and tuple equalities
/// by extensionality, set operations into memberships, and `ite` lifted out of atoms.
/// Then it approximates the implication, dropping the atoms neither prover represents:
/// `card`, `tree`, `old`, comprehensions, and lambdas outside an `rtrancl_pt` atom.
/// `set_vars` and `fun_vars` name the variables known to denote sets and functions.
/// `Bank::first_order_implication` must build what it builds.
pub fn first_order_implication(
    sequent: &Sequent,
    set_vars: &BTreeSet<String>,
    fun_vars: &BTreeSet<String>,
) -> (Vec<Form>, Form) {
    let sequent = without_comments(sequent);
    let set_typed = |f: &Form| -> bool {
        looks_like_set(f)
            || match f {
                Form::Var(v) => set_vars.contains(v),
                Form::App(head, _) => matches!(head.as_ref(), Form::Var(v) if set_vars.contains(v)),
                _ => false,
            }
    };
    let prep = |f: &Form| -> Form {
        let f = expand_function_equalities(f, fun_vars);
        let f = expand_field_write_applications(&f);
        let f = expand_complex_equalities(&f, &set_typed);
        let f = expand_set_membership(&f);
        let f = lift_ite(&f);
        simplify(&f)
    };
    let assumptions: Vec<Form> = sequent.assumptions.iter().map(prep).collect();
    let goal = prep(&sequent.goal);
    approximate_implication(&assumptions, &goal, &first_order_atom)
}

/// Atoms representable in the first-order fragment of [`first_order_implication`].
fn first_order_atom(atom: &Form, _polarity: Polarity) -> Option<Form> {
    if atom.contains_const(&Const::Card)
        || atom.contains_const(&Const::Tree)
        || atom.contains_const(&Const::Old)
        || atom.contains_binder(Binder::Comprehension)
        || (atom.contains_binder(Binder::Lambda) && atom.as_app_of(&Const::Rtrancl).is_none())
    {
        return None;
    }
    Some(atom.clone())
}

/// MONA's front end: comments stripped, membership expanded and simplified, then the
/// implication approximated into the monadic fragment.
pub fn monadic_implication(sequent: &Sequent) -> (Vec<Form>, Form) {
    let sequent = without_comments(sequent);
    let prep = |f: &Form| simplify(&expand_set_membership(f));
    let assumptions: Vec<Form> = sequent.assumptions.iter().map(prep).collect();
    approximate_implication(&assumptions, &prep(&sequent.goal), &|atom, _| {
        is_monadic_atom(atom).then(|| atom.clone())
    })
}

fn is_element(f: &Form) -> bool {
    matches!(f, Form::Var(_) | Form::Const(Const::Null))
}

fn is_monadic_atom(atom: &Form) -> bool {
    let is_set_name = |f: &Form| matches!(f, Form::Var(_));
    match atom {
        Form::App(head, args) => match (head.as_ref(), args.as_slice()) {
            (Form::Const(Const::Eq), [l, r]) => {
                (is_element(l) && is_element(r)) || (is_set_name(l) && is_set_name(r))
            }
            (Form::Const(Const::Elem), [e, s]) => is_element(e) && is_set_name(s),
            (Form::Const(Const::SubsetEq), [l, r]) => is_set_name(l) && is_set_name(r),
            _ => false,
        },
        _ => false,
    }
}

/// BAPA's front end: comments stripped and simplified, quantified assumptions dropped,
/// then the implication approximated into the BAPA fragment.
pub fn bapa_implication(sequent: &Sequent) -> (Vec<Form>, Form) {
    let sequent = without_comments(sequent);
    let assumptions: Vec<Form> = sequent
        .assumptions
        .iter()
        .map(simplify)
        .filter(|a| !a.contains_binder(Binder::Forall) && !a.contains_binder(Binder::Exists))
        .collect();
    approximate_implication(&assumptions, &simplify(&sequent.goal), &|atom, _| {
        is_bapa_atom(atom).then(|| atom.clone())
    })
}

/// The formulas BAPA's Venn reduction turned into constraints for an approximated
/// implication: each assumption in negation normal form, and the negated goal in
/// negation normal form, which the reduction put in negation normal form again.
pub fn bapa_refutation(assumptions: &[Form], goal: &Form) -> Vec<Form> {
    let mut out: Vec<Form> = assumptions.iter().map(nnf).collect();
    out.push(nnf(&nnf(&Form::not(goal.clone()))));
    out
}

fn is_bapa_atom(atom: &Form) -> bool {
    match atom {
        Form::App(head, args) => match head.as_ref() {
            Form::Const(Const::Eq)
            | Form::Const(Const::Lt)
            | Form::Const(Const::LtEq)
            | Form::Const(Const::Gt)
            | Form::Const(Const::GtEq) => args.iter().all(|t| is_int_term(t) || is_set_expr(t)),
            Form::Const(Const::Elem) => {
                args.len() == 2 && is_element(&args[0]) && is_set_expr(&args[1])
            }
            Form::Const(Const::SubsetEq) | Form::Const(Const::Subset) => {
                args.iter().all(is_set_expr)
            }
            _ => false,
        },
        _ => false,
    }
}

fn is_int_term(t: &Form) -> bool {
    match t {
        Form::Var(_) | Form::Const(Const::IntLit(_)) => true,
        Form::App(head, args) => match head.as_ref() {
            Form::Const(Const::Plus) | Form::Const(Const::Minus) | Form::Const(Const::UMinus) => {
                args.iter().all(is_int_term)
            }
            Form::Const(Const::Card) => args.len() == 1 && is_set_expr(&args[0]),
            _ => false,
        },
        _ => false,
    }
}

fn is_set_expr(t: &Form) -> bool {
    match t {
        Form::Var(_) | Form::Const(Const::EmptySet) | Form::Const(Const::UnivSet) => true,
        Form::App(head, args) => match head.as_ref() {
            Form::Const(Const::Union)
            | Form::Const(Const::Inter)
            | Form::Const(Const::Diff)
            | Form::Const(Const::Minus) => args.iter().all(is_set_expr),
            Form::Const(Const::FiniteSet) => args.iter().all(is_element),
            _ => false,
        },
        _ => false,
    }
}
