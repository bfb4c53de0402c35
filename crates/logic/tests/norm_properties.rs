//! Property-based tests of the canonicalisation and definitional-inlining pass used by
//! the syntactic prover and the dispatcher (§5.3 / §6.1), including the formula bank
//! that runs the inlining, canonicalisation and key forms for a whole batch, compared
//! with the `Form`-recursive reference.

mod reference;

use jahob_logic::bank::{Bank, NodeId};
use jahob_logic::form::{Binder, Const, Form};
use jahob_logic::norm::{
    alpha_normalize, canonicalize, definition_substitution, inline_definitions, sort_commutative,
};
use jahob_logic::subst::free_vars;
use jahob_logic::{parse_form, Sequent, Type};
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

/// Every name the formula generator uses, in text order: free objects `a` and `b`,
/// bound names `x`, `y` and `z` (free where no binder binds them), predicates `p` and
/// `q`, and sets `s` and `t`.
const NAMES: [&str; 9] = ["a", "b", "p", "q", "s", "t", "x", "y", "z"];

fn var(i: usize) -> Form {
    Form::var(NAMES[i])
}

/// An application built as it is, without [`Form::app`]'s flattening.
fn raw(head: Form, args: Vec<Form>) -> Form {
    Form::App(Box::new(head), args)
}

fn raw_of(c: Const, args: Vec<Form>) -> Form {
    raw(Form::Const(c), args)
}

/// Object terms: variables, `null`, `+` chains with repeated leaves, and ascriptions.
fn arb_object() -> BoxedStrategy<Form> {
    prop_oneof![
        prop_oneof![Just(0usize), Just(1), Just(6), Just(7), Just(8)].prop_map(var),
        Just(Form::null()),
        (0..3usize, 0..3usize).prop_map(|(i, j)| {
            let leaf = |k: usize| [var(0), var(6), Form::int(1)][k].clone();
            raw_of(
                Const::Plus,
                vec![raw_of(Const::Plus, vec![leaf(i), leaf(j)]), leaf(i)],
            )
        }),
        (0..2usize).prop_map(|i| Form::Typed(Box::new(var(6 + i)), Type::Obj)),
    ]
    .boxed()
}

/// `Un`, `Int` and two- and three-argument `\` over `operands`.
fn set_operators(operands: BoxedStrategy<Form>) -> BoxedStrategy<Form> {
    let two = (operands.clone(), operands.clone());
    prop_oneof![
        two.clone()
            .prop_map(|(l, r)| raw_of(Const::Union, vec![l, r])),
        two.clone()
            .prop_map(|(l, r)| raw_of(Const::Inter, vec![l, r])),
        two.prop_map(|(l, r)| raw_of(Const::Diff, vec![l, r])),
        (operands.clone(), operands.clone(), operands)
            .prop_map(|(a, b, c)| raw_of(Const::Diff, vec![a, b, c])),
    ]
    .boxed()
}

/// Set terms over `inner` formulas: variables, `{}`, finite sets and comprehensions,
/// under up to two levels of set operators, so membership expansion takes more than
/// one pass.
fn arb_set(inner: BoxedStrategy<Form>) -> BoxedStrategy<Form> {
    let atom = prop_oneof![
        (0..2usize).prop_map(|i| var(4 + i)),
        Just(Form::empty_set()),
        proptest::collection::vec(arb_object(), 1..3).prop_map(Form::finite_set),
    ]
    .boxed();
    let level = prop_oneof![
        atom.clone(),
        set_operators(atom),
        (0..3usize, inner).prop_map(|(i, body)| {
            Form::Binder(
                Binder::Comprehension,
                vec![(NAMES[6 + i].into(), Type::Obj)],
                Box::new(body),
            )
        }),
    ]
    .boxed();
    prop_oneof![level.clone(), set_operators(level)].boxed()
}

/// Formulas over every connective and binder the canonical form rewrites: `&`, `|`,
/// `~`, `-->`, `<->` and `=`, membership in set terms, nested and sibling `ALL`/`EX`
/// binders over the reused names `x`, `y` and `z`, lambda applications, comments,
/// ascriptions and curried applications. Applications and binders are built as they
/// are, so the inputs hold nested junctions, binders and applications the smart
/// constructors would have merged.
fn arb_formula() -> BoxedStrategy<Form> {
    let leaf = prop_oneof![
        (0..2usize, arb_object()).prop_map(|(i, o)| raw(var(2 + i), vec![o])),
        (arb_object(), arb_object()).prop_map(|(f, o)| raw(raw(var(3), vec![f]), vec![o])),
        (arb_object(), arb_object()).prop_map(|(l, r)| Form::eq(l, r)),
        (arb_object(), 0..2usize).prop_map(|(o, i)| Form::elem(o, var(4 + i))),
        Just(Form::tt()),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        let junction = |c: Const| {
            proptest::collection::vec(inner.clone(), 2..4).prop_map(move |fs| raw_of(c.clone(), fs))
        };
        prop_oneof![
            junction(Const::And),
            junction(Const::Or),
            inner.clone().prop_map(|f| raw_of(Const::Not, vec![f])),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| raw_of(Const::Impl, vec![l, r])),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| raw_of(Const::Iff, vec![l, r])),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Form::eq(l, r)),
            (arb_object(), arb_set(inner.clone())).prop_map(|(o, s)| Form::elem(o, s)),
            (0..2usize, 0..3usize, inner.clone()).prop_map(|(b, i, body)| {
                let binder = [Binder::Forall, Binder::Exists][b];
                Form::Binder(
                    binder,
                    vec![(NAMES[6 + i].into(), Type::Obj)],
                    Box::new(body),
                )
            }),
            (0..3usize, inner.clone(), arb_object()).prop_map(|(i, body, o)| {
                let lambda = Form::lambda(vec![(NAMES[6 + i].into(), Type::Obj)], body);
                raw(lambda, vec![o])
            }),
            inner.clone().prop_map(|f| Form::comment("label", f)),
            inner
                .clone()
                .prop_map(|f| Form::Typed(Box::new(f), Type::Bool)),
        ]
    })
    .boxed()
}

/// A bank whose symbols for [`NAMES`] are interned in reverse text order, so that
/// symbol ids disagree with the name order the node order must follow.
fn reversed_bank() -> Bank {
    let mut bank = Bank::new();
    for name in NAMES.iter().rev() {
        bank.symbol(name);
    }
    bank
}

/// Interns `forms` into one bank, first in order and then (in a fresh bank) in
/// reverse, and checks the node order, AC sorting, alpha-renaming, canonical form and
/// key form of each against the reference, and the public wrappers too.
fn bank_canonicalises_as_the_reference(forms: &[Form]) -> Result<(), TestCaseError> {
    for f in forms {
        prop_assert_eq!(sort_commutative(f), reference::sort_commutative(f));
        prop_assert_eq!(alpha_normalize(f), reference::alpha_normalize(f));
        prop_assert_eq!(canonicalize(f), reference::canonicalize(f));
    }
    for reversed in [false, true] {
        let mut bank = reversed_bank();
        let mut order: Vec<&Form> = forms.iter().collect();
        if reversed {
            order.reverse();
        }
        let ids: Vec<NodeId> = order.iter().map(|f| bank.intern(f)).collect();
        for (i, f) in order.iter().enumerate() {
            for (j, g) in order.iter().enumerate() {
                prop_assert_eq!(bank.order(ids[i], ids[j]), f.cmp(g));
            }
            let id = ids[i];
            let sorted = bank.sort_commutative(id);
            prop_assert_eq!(bank.materialise(sorted), reference::sort_commutative(f));
            let renamed = bank.alpha_normalize(id);
            prop_assert_eq!(bank.materialise(renamed), reference::alpha_normalize(f));
            let canonical = bank.canonical(id);
            prop_assert_eq!(bank.materialise(canonical), reference::canonicalize(f));
            let key = bank.key_form(id);
            prop_assert_eq!(bank.materialise(key), reference::key_form(f));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Generated formulas canonicalise and key on a shared bank exactly as the
    /// reference does on each alone.
    #[test]
    fn bank_canonical_forms_match_the_reference(
        forms in proptest::collection::vec(arb_formula(), 1..4)
    ) {
        bank_canonicalises_as_the_reference(&forms)?;
    }

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

fn p(s: &str) -> Form {
    parse_form(s).expect("parse")
}

/// Checks one formula against the reference and returns its printed key form.
fn key_text(form: &Form) -> String {
    let mut bank = reversed_bank();
    let id = bank.intern(form);
    let key = bank.key_form(id);
    assert_eq!(bank.materialise(key), reference::key_form(form), "{form}");
    let canonical = bank.canonical(id);
    assert_eq!(
        bank.materialise(canonical),
        reference::canonicalize(form),
        "{form}"
    );
    bank.materialise(key).to_string()
}

#[test]
fn membership_in_a_comprehension_keys_in_the_second_round() {
    // The first round names the binders `?b0` and `?b1`, then beta reduction removes
    // the comprehension's, leaving `?b1` at depth 0; only the second round renames it.
    let form = p("x : {y. EX z. p y z}");
    let mut bank = Bank::new();
    let id = bank.intern(&form);
    let renamed = bank.alpha_normalize(id);
    let one_round = bank.canonical(renamed);
    assert_eq!(bank.materialise(one_round).to_string(), "EX ?b1. p x ?b1");
    assert_eq!(key_text(&form), "EX ?b0. p x ?b0");
}

#[test]
fn membership_in_a_three_argument_difference_is_not_expanded() {
    let three = raw_of(Const::Diff, vec![p("a"), p("b"), p("c")]);
    let form = Form::elem(p("x"), three);
    assert_eq!(key_text(&form), form.to_string());
    assert_eq!(key_text(&p("x : a \\ b")), "~(x : b) & x : a");
}

#[test]
fn sibling_existentials_sort_by_their_bodies() {
    // Both binders become `?b0`, so the disjuncts sort by their bodies. The binders'
    // types are equal here; untyped binders get distinct type variables, which would
    // sort before the bodies do.
    let form = p("(EX (a::obj). q a) | (EX (b::obj). p b)");
    assert_eq!(key_text(&form), "(EX ?b0. p ?b0) | (EX ?b0. q ?b0)");
}

#[test]
fn ascriptions_are_kept_and_sorted_after_their_operand() {
    let form = p("((x :: obj) : t Un s) & (y :: obj) = x");
    let key = key_text(&form);
    assert_eq!(key, reference::key_form(&form).to_string());
    assert!(key.contains(":: obj"), "{key}");
}
