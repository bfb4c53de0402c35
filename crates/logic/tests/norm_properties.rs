//! Property-based tests of the canonicalisation and definitional-inlining pass used by
//! the syntactic prover and the dispatcher (§5.3 / §6.1), including the formula bank
//! that runs the inlining for a whole batch, compared with the per-sequent reference.

mod reference;

use jahob_logic::bank::Bank;
use jahob_logic::form::Form;
use jahob_logic::norm::{
    canonicalize, definition_substitution, inline_definitions, sort_commutative,
};
use jahob_logic::subst::free_vars;
use jahob_logic::{Sequent, Type};
use proptest::prelude::*;

/// Inlines every sequent in one shared bank, first in order and then (in a fresh bank)
/// in reverse, and checks each against the reference, which inlines it alone.
fn shared_bank_matches_the_reference(sequents: &[Sequent]) -> Result<(), TestCaseError> {
    for reversed in [false, true] {
        let mut bank = Bank::new();
        let mut order: Vec<&Sequent> = sequents.iter().collect();
        if reversed {
            order.reverse();
        }
        for sequent in order {
            let interned = bank.intern_sequent(sequent);
            let inlined = bank.inline_definitions(&interned);
            prop_assert_eq!(
                bank.materialise_sequent(&inlined),
                reference::inline_definitions(sequent)
            );
            let definitions = bank.definitions(&interned.assumptions);
            prop_assert_eq!(
                bank.substitution(definitions),
                reference::definition_substitution(&sequent.assumptions)
            );
        }
    }
    Ok(())
}

/// `EX v1. v1 : set`: its bound `v1` is free in most generated values, so inlining a
/// definition of `set` that mentions `v1` renames the binder.
fn quantified_member(set: &str) -> Form {
    Form::exists("v1", Type::Obj, Form::elem(Form::var("v1"), Form::var(set)))
}

/// Small ground terms: variables, `null`, singletons and unions over them.
fn arb_term() -> impl Strategy<Value = Form> {
    let leaf = prop_oneof![
        (0..4u8).prop_map(|i| Form::var(format!("v{i}"))),
        Just(Form::null()),
        Just(Form::empty_set()),
        (0..4u8).prop_map(|i| Form::singleton(Form::var(format!("v{i}")))),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::union(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::inter(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::plus(a, b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Canonicalisation is idempotent.
    #[test]
    fn sort_commutative_is_idempotent(t in arb_term()) {
        let once = sort_commutative(&t);
        prop_assert_eq!(sort_commutative(&once), once.clone());
        let eq = Form::eq(t.clone(), t);
        prop_assert!(canonicalize(&eq).is_true());
    }

    /// Swapping the operands of commutative operators does not change the canonical form.
    #[test]
    fn commuted_operands_canonicalise_identically(a in arb_term(), b in arb_term()) {
        prop_assert_eq!(
            sort_commutative(&Form::union(a.clone(), b.clone())),
            sort_commutative(&Form::union(b.clone(), a.clone()))
        );
        prop_assert_eq!(
            sort_commutative(&Form::plus(a.clone(), b.clone())),
            sort_commutative(&Form::plus(b.clone(), a.clone()))
        );
        prop_assert_eq!(
            sort_commutative(&Form::eq(a.clone(), b.clone())),
            sort_commutative(&Form::eq(b, a))
        );
    }

    /// Reassociating a union chain does not change the canonical form, and the
    /// canonicalised equality of two permutations of the same operands is `True`.
    #[test]
    fn union_chains_are_ac_normalised(mut ops in proptest::collection::vec(arb_term(), 2..5)) {
        let left_nested = ops
            .clone()
            .into_iter()
            .reduce(Form::union)
            .expect("at least two operands");
        ops.reverse();
        let right_nested = ops
            .into_iter()
            .reduce(|acc, next| Form::union(next, acc))
            .expect("at least two operands");
        prop_assert_eq!(
            sort_commutative(&left_nested),
            sort_commutative(&right_nested)
        );
        prop_assert!(canonicalize(&Form::eq(left_nested, right_nested)).is_true());
    }

    /// Definitional chains over generated variables collapse to the underlying value, and
    /// the inlined sequent proves copy-propagation goals by reflexivity.
    #[test]
    fn definition_chains_collapse(value in arb_term(), len in 1usize..5) {
        let mut assumptions = vec![Form::eq(Form::var("asg$0".to_string()), value.clone())];
        for i in 1..len {
            assumptions.push(Form::eq(
                Form::var(format!("asg${i}")),
                Form::var(format!("asg${}", i - 1)),
            ));
        }
        let last = format!("asg${}", len - 1);
        let sub = definition_substitution(&assumptions);
        prop_assert_eq!(sub.get(&last), Some(&value));

        let sequent = Sequent::new(assumptions, Form::eq(Form::var(last), value));
        let inlined = inline_definitions(&sequent);
        prop_assert!(inlined.goal.is_true());
        prop_assert!(inlined.assumptions.is_empty());
    }

    /// Chains whose links run against key order (`asg$0 = asg$1`, ..., `asg$n = value`,
    /// the worst case of a round-by-round fixpoint: one round per link) resolve every
    /// link to the value.
    #[test]
    fn chains_against_key_order_resolve(value in arb_term(), len in 1usize..16) {
        let mut assumptions: Vec<Form> = (0..len - 1)
            .map(|i| Form::eq(Form::var(format!("asg${i}")), Form::var(format!("asg${}", i + 1))))
            .collect();
        assumptions.push(Form::eq(Form::var(format!("asg${}", len - 1)), value.clone()));
        let sub = definition_substitution(&assumptions);
        for i in 0..len {
            prop_assert_eq!(sub.get(&format!("asg${i}")), Some(&value));
        }

        let sequent = Sequent::new(assumptions, Form::eq(Form::var("asg$0"), value));
        let inlined = inline_definitions(&sequent);
        prop_assert!(inlined.goal.is_true());
        prop_assert!(inlined.assumptions.is_empty());
    }

    /// Diamonds, two bindings sharing a dependency, substitute the shared binding's
    /// resolved value into both sides.
    #[test]
    fn diamonds_resolve_the_shared_dependency(
        base in arb_term(),
        a in arb_term(),
        b in arb_term(),
    ) {
        let assumptions = vec![
            Form::eq(Form::var("asg$0"), Form::union(Form::var("asg$1"), Form::var("asg$2"))),
            Form::eq(Form::var("asg$1"), Form::union(Form::var("asg$3"), a.clone())),
            Form::eq(Form::var("asg$2"), Form::inter(Form::var("asg$3"), b.clone())),
            Form::eq(Form::var("asg$3"), base.clone()),
        ];
        let sub = definition_substitution(&assumptions);
        let left = Form::union(base.clone(), a);
        let right = Form::inter(base.clone(), b);
        prop_assert_eq!(sub.get("asg$3"), Some(&base));
        prop_assert_eq!(sub.get("asg$1"), Some(&left));
        prop_assert_eq!(sub.get("asg$2"), Some(&right));
        prop_assert_eq!(sub.get("asg$0"), Some(&Form::union(left, right)));
    }

    /// A two-binding cycle with a dependent, in any assumption order, terminates, and
    /// no binding mentions its own variable, so inlining removes the dependent.
    #[test]
    fn cycles_terminate_without_self_reference(value in arb_term(), rotation in 0usize..3) {
        let mut assumptions = vec![
            Form::eq(Form::var("a_1"), Form::union(Form::var("b_1"), value.clone())),
            Form::eq(Form::var("b_1"), Form::var("a_1")),
            Form::eq(Form::var("c_1"), Form::union(Form::var("a_1"), value)),
        ];
        assumptions.rotate_left(rotation);
        let sub = definition_substitution(&assumptions);
        prop_assert_eq!(sub.len(), 3);
        for (v, t) in &sub {
            prop_assert!(!free_vars(t).contains(v), "{} is bound to {}, which mentions it", v, t);
        }

        let sequent = Sequent::new(assumptions, Form::elem(Form::var("v0"), Form::var("c_1")));
        let inlined = inline_definitions(&sequent);
        prop_assert!(!free_vars(&inlined.goal).contains("c_1"));
    }

    /// Inlining never invents new free variables: every variable of the result already
    /// occurs in the original sequent.
    #[test]
    fn inlining_does_not_invent_variables(value in arb_term()) {
        let sequent = Sequent::new(
            vec![
                Form::eq(Form::var("old$content"), Form::var("content")),
                Form::eq(Form::var("content_1"), value),
            ],
            Form::eq(Form::var("content_1"), Form::var("old$content")),
        );
        let original_vars = sequent.free_vars();
        let inlined = inline_definitions(&sequent);
        for v in inlined.free_vars() {
            prop_assert!(original_vars.contains(&v), "variable {v} appeared from nowhere");
        }
    }

    /// Chains, in and against key order, inline in a shared bank exactly as the
    /// reference inlines each alone, beside a quantified assumption whose binder the
    /// value can capture.
    #[test]
    fn bank_inlines_chains_as_the_reference_does(value in arb_term(), len in 1usize..6) {
        let forward: Vec<Form> = std::iter::once(Form::eq(Form::var("asg$0"), value.clone()))
            .chain((1..len).map(|i| {
                Form::eq(Form::var(format!("asg${i}")), Form::var(format!("asg${}", i - 1)))
            }))
            .collect();
        let mut backward: Vec<Form> = (0..len - 1)
            .map(|i| Form::eq(Form::var(format!("asg${i}")), Form::var(format!("asg${}", i + 1))))
            .collect();
        backward.push(Form::eq(Form::var(format!("asg${}", len - 1)), value.clone()));
        let mut sequents = Vec::new();
        for assumptions in [forward, backward] {
            let mut with_binder = assumptions.clone();
            with_binder.push(quantified_member("asg$0"));
            sequents.push(Sequent::new(assumptions, quantified_member(&format!("asg${}", len - 1))));
            sequents.push(Sequent::new(with_binder, Form::eq(Form::var("asg$0"), value.clone())));
        }
        shared_bank_matches_the_reference(&sequents)?;
    }

    /// Diamonds inline in a shared bank as the reference inlines them, next to a
    /// sequent that shares their formulas under a different substitution.
    #[test]
    fn bank_inlines_diamonds_as_the_reference_does(
        base in arb_term(),
        a in arb_term(),
        b in arb_term(),
    ) {
        let diamond = vec![
            Form::eq(Form::var("asg$0"), Form::union(Form::var("asg$1"), Form::var("asg$2"))),
            Form::eq(Form::var("asg$1"), Form::union(Form::var("asg$3"), a.clone())),
            Form::eq(Form::var("asg$2"), Form::inter(Form::var("asg$3"), b)),
            Form::eq(Form::var("asg$3"), base.clone()),
            quantified_member("asg$0"),
        ];
        let mut other = diamond.clone();
        other[3] = Form::eq(Form::var("asg$3"), a);
        sequents_share(diamond, other, quantified_member("asg$2"))?;
    }

    /// Cycles, in every rotation, inline in a shared bank as the reference inlines
    /// them.
    #[test]
    fn bank_inlines_cycles_as_the_reference_does(value in arb_term(), rotation in 0usize..3) {
        let mut cycle = vec![
            Form::eq(Form::var("a_1"), Form::union(Form::var("b_1"), value.clone())),
            Form::eq(Form::var("b_1"), Form::var("a_1")),
            Form::eq(Form::var("c_1"), Form::union(Form::var("a_1"), value)),
        ];
        cycle.rotate_left(rotation);
        let mut broken = cycle.clone();
        broken.retain(|f| f.to_string() != "b_1 = a_1");
        broken.push(quantified_member("c_1"));
        sequents_share(cycle, broken, quantified_member("c_1"))?;
    }
}

/// Two sequents with the same goal, inlined in one bank in either order.
fn sequents_share(first: Vec<Form>, second: Vec<Form>, goal: Form) -> Result<(), TestCaseError> {
    shared_bank_matches_the_reference(&[
        Sequent::new(first, goal.clone()),
        Sequent::new(second, goal),
    ])
}
