//! Property-based tests of the core logic data structures.

use jahob_logic::bank::{Bank, NodeId};
use jahob_logic::form::{Const, Form};
use jahob_logic::parser::parse_form;
use jahob_logic::subst::{free_vars, substitute_one};
use jahob_logic::types::Type;
use proptest::prelude::*;

/// A strategy for small propositional/relational formulas over a fixed variable pool.
fn arb_form() -> impl Strategy<Value = Form> {
    let atom = prop_oneof![
        Just(Form::tt()),
        Just(Form::ff()),
        (0..4u8).prop_map(|i| Form::var(format!("p{i}"))),
        (0..3u8, 0..3u8)
            .prop_map(|(a, b)| Form::eq(Form::var(format!("x{a}")), Form::var(format!("x{b}")))),
        (0..3u8).prop_map(|a| Form::elem(Form::var(format!("x{a}")), Form::var("s"))),
        (0..3u8).prop_map(|a| Form::cmp(Const::LtEq, Form::var(format!("i{a}")), Form::int(5))),
    ];
    atom.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::and(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::or(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::implies(a, b)),
            inner.clone().prop_map(Form::not),
            inner.clone().prop_map(|a| Form::forall("q", Type::Obj, a)),
        ]
    })
}

/// Evaluates a quantifier-free propositional abstraction of the formula: every
/// non-connective atom is looked up in `model` by its printed form.
fn eval(form: &Form, model: &dyn Fn(&Form) -> bool) -> bool {
    if let Form::App(head, args) = form {
        if let Form::Const(c) = head.as_ref() {
            match c {
                Const::And => return args.iter().all(|a| eval(a, model)),
                Const::Or => return args.iter().any(|a| eval(a, model)),
                Const::Not => return !eval(&args[0], model),
                Const::Impl => return !eval(&args[0], model) || eval(&args[1], model),
                Const::Iff => return eval(&args[0], model) == eval(&args[1], model),
                _ => {}
            }
        }
    }
    match form {
        Form::Const(Const::BoolLit(b)) => *b,
        other => model(other),
    }
}

/// `f` rewritten by one of the bank's normal forms, on a fresh bank.
fn on_bank(f: &Form, rewrite: fn(&mut Bank, NodeId) -> NodeId) -> Form {
    let mut bank = Bank::new();
    let id = bank.intern(f);
    let out = rewrite(&mut bank, id);
    bank.materialise(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Printing then parsing a formula yields a logically identical term (the printer and
    /// the parser agree on precedences).
    #[test]
    fn print_parse_roundtrip(f in arb_form()) {
        let printed = f.to_string();
        let reparsed = parse_form(&printed)
            .unwrap_or_else(|e| panic!("reparse failed for {printed:?}: {e}"));
        // Compare via printing again: binder type annotations may differ but syntax must
        // stabilise after one roundtrip.
        prop_assert_eq!(printed.clone(), reparsed.to_string());
    }

    /// The bank's simplification preserves the propositional truth value of
    /// quantifier-free formulas under arbitrary atom assignments.
    #[test]
    fn simplify_preserves_truth(f in arb_form(), seed in 0u64..1024) {
        if f.contains_binder(jahob_logic::Binder::Forall) {
            return Ok(());
        }
        let model = |atom: &Form| {
            // Interpret reflexive equalities as true so the random model is consistent
            // with the theory-level rewrites the simplifier performs.
            if let Some((l, r)) = atom.as_eq() {
                if l == r {
                    return true;
                }
            }
            let mut h = std::collections::hash_map::DefaultHasher::new();
            use std::hash::{Hash, Hasher};
            atom.to_string().hash(&mut h);
            seed.hash(&mut h);
            h.finish().is_multiple_of(2)
        };
        prop_assert_eq!(eval(&f, &model), eval(&on_bank(&f, Bank::simplify), &model));
    }

    /// The bank's negation normal form preserves truth and eliminates implications.
    #[test]
    fn nnf_preserves_truth_and_shape(f in arb_form(), seed in 0u64..1024) {
        if f.contains_binder(jahob_logic::Binder::Forall) {
            return Ok(());
        }
        let n = on_bank(&f, Bank::nnf);
        prop_assert!(!n.contains_const(&Const::Impl));
        prop_assert!(!n.contains_const(&Const::Iff));
        let model = |atom: &Form| {
            if let Some((l, r)) = atom.as_eq() {
                if l == r {
                    return true;
                }
            }
            let mut h = std::collections::hash_map::DefaultHasher::new();
            use std::hash::{Hash, Hasher};
            atom.to_string().hash(&mut h);
            seed.hash(&mut h);
            h.finish().is_multiple_of(2)
        };
        prop_assert_eq!(eval(&f, &model), eval(&n, &model));
    }

    /// Substituting a variable that does not occur free leaves the formula unchanged, and
    /// substitution removes the substituted variable from the free-variable set.
    #[test]
    fn substitution_respects_free_variables(f in arb_form()) {
        let untouched = substitute_one(&f, "not_present", &Form::int(7));
        prop_assert_eq!(untouched, f.clone());
        let fv = free_vars(&f);
        if let Some(v) = fv.iter().next() {
            let g = substitute_one(&f, v, &Form::var("replacement$"));
            prop_assert!(!free_vars(&g).contains(v) || v == "replacement$");
        }
    }
}
