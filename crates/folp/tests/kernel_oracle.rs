//! The flat saturation kernel against the given-clause loop it replaced.
//!
//! `reference` keeps the old loop over [`Clause`]s with its `BTreeMap` unifier. The
//! kernel must run the same search: on every clause set and under every limit, the
//! same outcome after the same number of given clauses, generated clauses and retained
//! clauses. The random sets mix variables, equality, function symbols, one predicate
//! and one function name at two arities each, and literals in any order, duplicates
//! included.

mod reference;

use jahob_folp::{saturate, Atom, Clause, Literal, ResolutionLimits, Term};
use proptest::prelude::*;
use reference::{match_terms, unify_terms, walk, Subst};

/// Builds a term from a stream of codes, at most `depth` applications deep.
fn term(codes: &mut impl Iterator<Item = u8>, depth: usize) -> Term {
    let code = codes.next().unwrap_or(0);
    let leaf = depth == 0 || code % 8 < 5;
    match if leaf { code % 5 } else { code % 8 } {
        0..=2 => Term::Var(u32::from(code % 3)),
        3 => Term::constant("a"),
        4 => Term::constant("b"),
        5 => Term::App("f".into(), vec![term(codes, depth - 1)]),
        6 => Term::App(
            "f".into(),
            vec![term(codes, depth - 1), term(codes, depth - 1)],
        ),
        _ => Term::App("g".into(), vec![term(codes, depth - 1)]),
    }
}

/// Builds a literal: `p` at arity one or two, `q`, or equality.
fn literal(positive: bool, pred: u8, codes: &[u8]) -> Literal {
    let mut codes = codes.iter().copied();
    let (name, arity) = [("p", 1), ("p", 2), ("q", 1), ("=", 2)][usize::from(pred % 4)];
    let args = (0..arity).map(|_| term(&mut codes, 2)).collect();
    Literal {
        positive,
        atom: Atom::new(name, args),
    }
}

/// Symmetry and transitivity of equality and congruence of `f` and `p` at arity one,
/// as the translation adds them: they make the search explode as on real sequents.
fn axioms() -> Vec<Clause> {
    let eq = |a: u32, b: u32| Atom::eq(Term::Var(a), Term::Var(b));
    let f = |x: u32| Term::App("f".into(), vec![Term::Var(x)]);
    vec![
        Clause::new(vec![Literal::neg(eq(0, 1)), Literal::pos(eq(1, 0))]),
        Clause::new(vec![
            Literal::neg(eq(0, 1)),
            Literal::neg(eq(1, 2)),
            Literal::pos(eq(0, 2)),
        ]),
        Clause::new(vec![
            Literal::neg(eq(0, 1)),
            Literal::pos(Atom::eq(f(0), f(1))),
        ]),
        Clause::new(vec![
            Literal::neg(eq(0, 1)),
            Literal::neg(Atom::new("p", vec![Term::Var(0)])),
            Literal::pos(Atom::new("p", vec![Term::Var(1)])),
        ]),
    ]
}

/// A random set of 1-7 clauses with 1-4 literals each, kept in the order drawn, and
/// sometimes the equality axioms.
fn arb_clauses() -> impl Strategy<Value = Vec<Clause>> {
    let lit = (
        prop::bool::ANY,
        0u8..4,
        proptest::collection::vec(0u8..=255, 0..6),
    );
    let clauses = proptest::collection::vec(proptest::collection::vec(lit, 1..5), 1..8);
    (prop::bool::ANY, clauses).prop_map(|(with_axioms, clauses)| {
        let mut set: Vec<Clause> = clauses
            .into_iter()
            .map(|lits| Clause {
                literals: lits
                    .into_iter()
                    .map(|(positive, pred, codes)| literal(positive, pred, &codes))
                    .collect(),
            })
            .collect();
        if with_axioms {
            set.extend(axioms());
        }
        set
    })
}

/// The limits every set runs under: `(iterations, clauses, size, literals)`.
const LIMITS: [(usize, usize, usize, usize); 5] = [
    (20, 4_000, 48, 6),
    (7, 4_000, 48, 6),
    (40, 30, 48, 6),
    (40, 4_000, 10, 3),
    (25, 200, 16, 4),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The kernel's outcome and counts equal the reference's under every limit.
    #[test]
    fn saturation_matches_the_reference(clauses in arb_clauses()) {
        for (max_iterations, max_clauses, max_clause_size, max_literals) in LIMITS {
            let limits = ResolutionLimits {
                max_iterations,
                max_clauses,
                max_clause_size,
                max_literals,
                max_millis: 0,
                deadline: None,
            };
            prop_assert_eq!(saturate(&clauses, limits), reference::saturate(&clauses, limits));
        }
    }
}

/// The generator reaches every case the kernel must get right.
#[test]
fn the_generator_covers_two_arities_equality_and_unsorted_literals() {
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0u8..=255 {
        let codes = [seed, seed.wrapping_mul(7), seed.wrapping_add(13), 200, 5, 1];
        for pred in 0..4 {
            let l = literal(seed % 2 == 0, pred, &codes);
            seen.insert((l.atom.pred.clone(), l.atom.args.len()));
            let arities = |t: &Term| match t {
                Term::App(f, args) => Some((f.clone(), args.len())),
                Term::Var(_) => None,
            };
            seen.extend(l.atom.args.iter().filter_map(arities));
        }
    }
    for expected in [("p", 1), ("p", 2), ("=", 2), ("f", 1), ("f", 2), ("g", 1)] {
        assert!(
            seen.contains(&(expected.0.to_string(), expected.1)),
            "{expected:?}"
        );
    }
    let unsorted = Clause {
        literals: vec![
            literal(true, 0, &[3]),
            literal(false, 0, &[4]),
            literal(true, 0, &[3]),
        ],
    };
    assert_ne!(Clause::new(unsorted.literals.clone()), unsorted);
}

/// A derived clause `~p(x1) | ~p(x2)` whose selected literal depends on how a name at
/// two arities orders: arguments first, element by element, and the count last.
#[test]
fn one_name_at_two_arities_orders_by_arguments_first() {
    let a = || Term::constant("a");
    let b = || Term::constant("b");
    let f = |args: Vec<Term>| Term::App("f".into(), args);
    let cases = [
        // A predicate at two arities: `p(a, a)` precedes `p(b)`.
        (Atom::new("p", vec![b()]), Atom::new("p", vec![a(), a()])),
        // A function at two arities: `p(f(a, a))` precedes `p(f(b))`.
        (
            Atom::new("p", vec![f(vec![b()])]),
            Atom::new("p", vec![f(vec![a(), a()])]),
        ),
    ];
    for (unary, binary) in cases {
        let clauses = vec![
            Clause {
                literals: vec![
                    Literal::neg(Atom::new("t", vec![Term::Var(0)])),
                    Literal::neg(unary.clone()),
                    Literal::neg(binary.clone()),
                ],
            },
            Clause::new(vec![Literal::pos(Atom::new("t", vec![a()]))]),
            Clause::new(vec![Literal::pos(unary)]),
        ];
        let limits = ResolutionLimits::default();
        assert_eq!(
            saturate(&clauses, limits),
            reference::saturate(&clauses, limits)
        );
    }
}

fn v(n: u32) -> Term {
    Term::Var(n)
}

fn c(name: &str) -> Term {
    Term::constant(name)
}

fn f(name: &str, args: Vec<Term>) -> Term {
    Term::App(name.to_string(), args)
}

#[test]
fn unification_binds_variables() {
    let mut s = Subst::new();
    assert!(unify_terms(
        &f("next", vec![v(0)]),
        &f("next", vec![c("a")]),
        &mut s
    ));
    assert_eq!(s.get(&0), Some(&c("a")));
}

#[test]
fn unification_occurs_check() {
    let mut s = Subst::new();
    assert!(!unify_terms(&v(0), &f("next", vec![v(0)]), &mut s));
}

#[test]
fn unification_propagates_through_chains() {
    let mut s = Subst::new();
    assert!(unify_terms(&v(0), &v(1), &mut s));
    assert!(unify_terms(&v(1), &c("a"), &mut s));
    // X0 is bound to X1 which is bound to a; `apply` resolves the whole chain.
    assert_eq!(walk(&v(0), &s), c("a"));
    assert_eq!(
        reference::apply(&f("g", vec![v(0)]), &s),
        f("g", vec![c("a")])
    );
    assert_eq!(
        reference::apply(&f("g", vec![v(1)]), &s),
        f("g", vec![c("a")])
    );
}

#[test]
fn matching_is_one_way() {
    let mut s = Subst::new();
    assert!(match_terms(
        &f("p", vec![v(0)]),
        &f("p", vec![c("a")]),
        &mut s
    ));
    let mut s2 = Subst::new();
    assert!(!match_terms(
        &f("p", vec![c("a")]),
        &f("p", vec![v(0)]),
        &mut s2
    ));
}
