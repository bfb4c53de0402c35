//! SMT's front end on the formula bank against the `Form` reference, on generated
//! sequents.
//!
//! `reference::front_end` translates each sequent alone on `Form` trees. The bank
//! translates several sequents in one shared bank, with one memo, first in order and
//! then (in a fresh bank) reversed, and must hand the solver the same atoms in the
//! same order, the same clauses, and reach the same verdict. The sequents mix nested
//! `ALL`/`EX` over reused names, `ite`, field writes, set, function and tuple
//! equalities, `div`/`mod`, comparisons written both ways (`<` and `>`), ascribed
//! terms, and a lambda under a quantifier whose bound names are also free. The
//! approximation, the negation normal form and the routing features are compared
//! with their `Form` functions too.

mod reference;

use jahob_logic::bank::Bank;
use jahob_logic::form::{Binder, Const, Form};
use jahob_logic::{Sequent, SequentFeatures, Type};
use jahob_smt::{ground_clauses, prove_interned, SmtMemo, SmtOptions};
use proptest::prelude::*;
use reference::logic::approx::first_order_implication;
use reference::logic::simplify::nnf;
use std::collections::BTreeSet;

/// Objects `a` and `b`, then the names `x`, `y` and `z` the binders reuse.
const OBJECTS: [&str; 5] = ["a", "b", "x", "y", "z"];

fn object_var() -> impl Strategy<Value = Form> {
    (0..OBJECTS.len()).prop_map(|i| Form::var(OBJECTS[i]))
}

/// Object terms: variables, `null`, `next` reads, reads of a written `next`, `ite`s
/// and ascriptions.
fn arb_object() -> BoxedStrategy<Form> {
    let leaf = prop_oneof![object_var(), object_var(), Just(Form::null())];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            inner
                .clone()
                .prop_map(|o| Form::field_read(Form::var("next"), o)),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(at, val, o)| {
                Form::app(Form::field_write(Form::var("next"), at, val), vec![o])
            }),
            (object_var(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Form::ite(
                Form::eq(c, Form::var("a")),
                t,
                e
            )),
            inner.prop_map(|o| Form::Typed(Box::new(o), Type::Obj)),
        ]
    })
    .boxed()
}

/// Integer terms over `i` and `j`: literals, sums, and `div`/`mod` by literals.
fn arb_int() -> BoxedStrategy<Form> {
    let leaf = prop_oneof![
        Just(Form::var("i")),
        Just(Form::var("j")),
        (0..3i64).prop_map(Form::int),
    ];
    leaf.prop_recursive(2, 6, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Form::plus(l, r)),
            (inner.clone(), 0..3i64)
                .prop_map(|(n, k)| Form::app(Form::Const(Const::Div), vec![n, Form::int(k)])),
            (inner, 1..4i64)
                .prop_map(|(n, k)| Form::app(Form::Const(Const::Mod), vec![n, Form::int(k)])),
        ]
    })
    .boxed()
}

/// Sets: `s`, `t`, a union with a singleton, and a difference.
fn arb_set() -> BoxedStrategy<Form> {
    prop_oneof![
        Just(Form::var("s")),
        Just(Form::var("t")),
        arb_object().prop_map(|o| Form::union(Form::var("s"), Form::singleton(o))),
        Just(Form::diff(Form::var("t"), Form::var("s"))),
    ]
    .boxed()
}

fn arb_atom() -> BoxedStrategy<Form> {
    prop_oneof![
        (arb_object(), arb_object()).prop_map(|(l, r)| Form::eq(l, r)),
        (arb_object(), arb_set()).prop_map(|(o, s)| Form::elem(o, s)),
        arb_object().prop_map(|o| Form::app(Form::var("p"), vec![o])),
        (arb_int(), arb_int()).prop_map(|(l, r)| Form::cmp(Const::Lt, l, r)),
        (arb_int(), arb_int()).prop_map(|(l, r)| Form::cmp(Const::Gt, r, l)),
        (arb_int(), arb_int()).prop_map(|(l, r)| Form::cmp(Const::LtEq, l, r)),
        (arb_int(), arb_int()).prop_map(|(l, r)| Form::eq(l, r)),
        // Set, function and tuple equalities, and a tuple membership.
        arb_set().prop_map(|s| Form::eq(Form::var("s"), s)),
        (arb_object(), arb_object()).prop_map(|(at, val)| {
            Form::eq(
                Form::var("next"),
                Form::field_write(Form::var("next"), at, val),
            )
        }),
        (arb_object(), arb_object(), arb_object(), arb_object()).prop_map(|(a, b, c, d)| {
            Form::eq(Form::tuple(vec![a, b]), Form::tuple(vec![c, d]))
        }),
        (arb_object(), arb_object())
            .prop_map(|(a, b)| Form::elem(Form::tuple(vec![a, b]), Form::var("r"))),
        // A lambda binding names that are also free: instantiating a quantifier
        // around it must rename them.
        (arb_object(), arb_object()).prop_map(|(from, to)| {
            let step = Form::lambda(
                vec![("y".into(), Type::Obj), ("z".into(), Type::Obj)],
                Form::eq(
                    Form::var("z"),
                    Form::field_read(Form::var("next"), Form::var("x")),
                ),
            );
            Form::rtrancl(step, from, to)
        }),
    ]
    .boxed()
}

/// Formulas over every connective, with nested `ALL` and `EX` over `x`, `y` and `z`.
fn arb_formula() -> BoxedStrategy<Form> {
    arb_atom()
        .prop_recursive(4, 24, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 2..4).prop_map(Form::and),
                proptest::collection::vec(inner.clone(), 2..4).prop_map(Form::or),
                inner.clone().prop_map(Form::not),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Form::implies(l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Form::iff(l, r)),
                (0..2usize, 2..5usize, inner).prop_map(|(b, v, body)| {
                    let binder = [Binder::Forall, Binder::Exists][b];
                    Form::Binder(binder, vec![(OBJECTS[v].into(), Type::Obj)], Box::new(body))
                }),
            ]
        })
        .boxed()
}

fn arb_sequent() -> BoxedStrategy<Sequent> {
    (
        proptest::collection::vec(arb_formula(), 1..4),
        arb_formula(),
    )
        .prop_map(|(assumptions, goal)| Sequent::new(assumptions, goal))
        .boxed()
}

fn options() -> SmtOptions {
    let mut options = SmtOptions {
        set_vars: ["r", "s", "t"].iter().map(|v| v.to_string()).collect(),
        fun_vars: BTreeSet::from(["next".to_string()]),
        ..SmtOptions::default()
    };
    options.ground_limits.max_steps = 32;
    options
}

/// Translates `sequents` on one shared bank, in order and then reversed, against the
/// reference.
fn shared_bank_matches_the_reference(sequents: &[Sequent]) -> Result<(), TestCaseError> {
    let options = options();
    let expected: Vec<_> = sequents
        .iter()
        .map(|s| {
            (
                reference::front_end::ground_clauses(s, &options),
                reference::front_end::prove_sequent(s, &options),
                first_order_implication(s, &options.set_vars, &options.fun_vars),
            )
        })
        .collect();
    for reversed in [false, true] {
        let mut order: Vec<usize> = (0..sequents.len()).collect();
        if reversed {
            order.reverse();
        }
        let mut bank = Bank::new();
        let mut memo = SmtMemo::default();
        for i in order {
            let (sequent, (clauses, result, approximated)) = (&sequents[i], &expected[i]);
            let interned = bank.intern_sequent(sequent);
            prop_assert_eq!(
                &ground_clauses(&mut bank, &interned, &options, &mut memo),
                clauses
            );
            prop_assert_eq!(
                &prove_interned(&mut bank, &interned, &options, &mut memo),
                result
            );
            let vars = bank.first_order_vars(&options.set_vars, &options.fun_vars);
            let (assumptions, goal) =
                bank.first_order_implication(&interned.assumptions, interned.goal, vars);
            let assumptions: Vec<Form> = assumptions.iter().map(|a| bank.materialise(*a)).collect();
            prop_assert_eq!(&assumptions, &approximated.0);
            prop_assert_eq!(&bank.materialise(goal), &approximated.1);
            for f in sequent.assumptions.iter().chain([&sequent.goal]) {
                let id = bank.intern(f);
                let normal = bank.nnf(id);
                prop_assert_eq!(bank.materialise(normal), nnf(f));
            }
            prop_assert_eq!(
                bank.sequent_features(&interned),
                SequentFeatures::of(sequent)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shared_banks_translate_generated_sequents_as_the_reference(
        sequents in proptest::collection::vec(arb_sequent(), 2..4)
    ) {
        shared_bank_matches_the_reference(&sequents)?;
    }
}
