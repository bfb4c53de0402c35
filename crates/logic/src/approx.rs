//! Polarity-based formula approximation (Figure 14 of the paper).
//!
//! Each specialised prover accepts only a fragment of higher-order logic. To use such a
//! prover soundly, Jahob replaces subformulas outside the fragment with *stronger*
//! formulas: an unsupported atom in a positive position becomes `False`, and in a negative
//! position becomes `True`. Proving the approximation then implies the original formula.
//!
//! The SMT and first-order prover interfaces share one such front end,
//! [`first_order_implication`].

use crate::form::{Binder, Const, Form};
use crate::rewrite::{
    expand_complex_equalities, expand_field_write_applications, expand_function_equalities,
    expand_set_membership, lift_ite, looks_like_set,
};
use crate::sequent::Sequent;
use crate::simplify::simplify;
use std::collections::BTreeSet;

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
///
/// The provers run its mirror on the formula bank,
/// [`crate::bank::Bank::first_order_implication`], memoised per node; this `Form`
/// version is the reference the bank's is tested against.
pub fn first_order_implication(
    sequent: &Sequent,
    set_vars: &BTreeSet<String>,
    fun_vars: &BTreeSet<String>,
) -> (Vec<Form>, Form) {
    let sequent = sequent.without_comments();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;

    fn p(s: &str) -> Form {
        parse_form(s).expect("parse")
    }

    /// A toy fragment: only equalities are representable.
    fn only_equalities(f: &Form, _p: Polarity) -> Option<Form> {
        f.as_app_of(&Const::Eq).map(|_| f.clone())
    }

    #[test]
    fn unsupported_positive_atom_becomes_false() {
        let f = p("card s = n | x : s");
        // `card s = n` is an equality so it stays; `x : s` is unsupported.
        let g = approximate(&f, Polarity::Positive, &only_equalities);
        assert_eq!(g.to_string(), "card s = n");
    }

    #[test]
    fn unsupported_negative_atom_becomes_true_and_vanishes() {
        let f = p("x : s --> y = z");
        let g = approximate(&f, Polarity::Positive, &only_equalities);
        // The unsupported assumption is dropped, leaving a stronger formula.
        assert_eq!(g.to_string(), "y = z");
    }

    #[test]
    fn negation_flips_polarity() {
        let f = p("~(x : s)");
        let g = approximate(&f, Polarity::Positive, &only_equalities);
        // Inside the negation the membership is negative, so it becomes True, and the
        // overall formula becomes False (stronger than the original).
        assert_eq!(g, Form::ff());
    }

    #[test]
    fn quantifiers_are_preserved() {
        let f = p("ALL x. x = x | x : s");
        let g = approximate(&f, Polarity::Positive, &only_equalities);
        assert_eq!(g.to_string(), "ALL x. x = x");
    }

    #[test]
    fn iff_is_expanded_for_polarity() {
        let f = p("(x : s) <-> a = b");
        let g = approximate(&f, Polarity::Positive, &only_equalities);
        // One direction survives partially; result must not contain membership atoms.
        assert!(!g.contains_const(&Const::Elem));
    }

    #[test]
    fn approximate_implication_drops_unsupported_assumptions() {
        let assumptions = vec![p("x : s"), p("a = b")];
        let goal = p("a = b");
        let (asms, g) = approximate_implication(&assumptions, &goal, &only_equalities);
        assert_eq!(asms.len(), 1);
        assert_eq!(g, p("a = b"));
    }

    #[test]
    fn strongest_formulas_by_polarity() {
        assert_eq!(Polarity::Positive.strongest(), Form::ff());
        assert_eq!(Polarity::Negative.strongest(), Form::tt());
        assert_eq!(Polarity::Positive.flip(), Polarity::Negative);
    }
}
