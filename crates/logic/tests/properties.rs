//! Property-based tests of the core logic data structures.

use jahob_logic::bank::{Bank, NodeId};
use jahob_logic::countermodel::Model;
use jahob_logic::form::{Const, Form};
use jahob_logic::parser::parse_form;
use jahob_logic::subst::{free_vars, substitute_one};
use jahob_logic::typecheck::TypeEnv;
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

/// The types of the variable pool of [`arb_form`].
fn pool_types() -> TypeEnv {
    let mut env = TypeEnv::standard();
    for i in 0..4 {
        env.insert(format!("p{i}"), Type::Bool);
    }
    for i in 0..3 {
        env.insert(format!("x{i}"), Type::Obj);
        env.insert(format!("i{i}"), Type::Int);
    }
    env.insert("s", Type::obj_set());
    env
}

/// The truth values of `f` and `g` in the finite model `seed` picks for both: a
/// universe of one to three objects besides `null`, and values drawn for the pool's
/// booleans, objects, integers and the set `s`. Equality, membership, integer
/// comparison and the object quantifiers are evaluated, not abstracted.
fn in_one_model(f: &Form, g: &Form, seed: u64) -> (Option<bool>, Option<bool>) {
    let objects = 1 + (seed % 3) as usize;
    let forms = [f.clone(), g.clone()];
    let model = Model::sample(&forms, &pool_types(), objects, seed).expect("the pool typechecks");
    (model.eval(f), model.eval(g))
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

    /// The bank's simplification preserves the truth value of formulas in finite
    /// models.
    #[test]
    fn simplify_preserves_truth(f in arb_form(), seed in 0u64..1024) {
        let (before, after) = in_one_model(&f, &on_bank(&f, Bank::simplify), seed);
        prop_assert!(before.is_some(), "{} is evaluated exactly", f);
        prop_assert_eq!(before, after);
    }

    /// The bank's negation normal form preserves truth in finite models and eliminates
    /// implications.
    #[test]
    fn nnf_preserves_truth_and_shape(f in arb_form(), seed in 0u64..1024) {
        let n = on_bank(&f, Bank::nnf);
        prop_assert!(!n.contains_const(&Const::Impl));
        prop_assert!(!n.contains_const(&Const::Iff));
        let (before, after) = in_one_model(&f, &n, seed);
        prop_assert!(before.is_some(), "{} is evaluated exactly", f);
        prop_assert_eq!(before, after);
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
