//! The flat ground kernel against the solver it replaced.
//!
//! `reference` keeps the old `check_clauses`, which rebuilds a congruence closure of
//! `String`-named terms at every theory check. On every clause set and under every
//! step limit the kernel must answer what the reference answers, so it takes the same
//! DPLL steps: a set that completes within one limit and not within a smaller one
//! pins the step at which it completes. The random sets mix nested applications of
//! `f` at one and two arguments, equalities and disequalities, predicates (`p` at two
//! arities, a propositional `q`), and `<=`/`<` over `+`, `-`, constant `*` and integer
//! literals. Some constants carry the closure's own names for integers and truth
//! values, which the closure identifies with those terms.

mod reference;

use jahob_smt::{check_clauses, GAtom, GClause, GLiteral, GTerm, GroundLimits, GroundOutcome};

/// A fixed xorshift stream: the sets are the same on every run.
struct Stream(u64);

impl Stream {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A term at most `depth` operations deep.
fn term(s: &mut Stream, depth: u32) -> GTerm {
    let code = if depth == 0 { s.below(5) } else { s.below(11) };
    let sub = |s: &mut Stream| Box::new(term(s, depth.saturating_sub(1)));
    match code {
        0 => GTerm::constant(["a", "b", "c"][s.below(3) as usize]),
        1 => GTerm::constant(["a", "x", "$int$1", "$true"][s.below(4) as usize]),
        2 | 3 => GTerm::Int(s.below(5) as i64 - 2),
        4 => GTerm::constant("x"),
        5 => GTerm::App("f".into(), vec![*sub(s)]),
        6 => GTerm::App("f".into(), vec![*sub(s), *sub(s)]),
        7 => GTerm::App("g".into(), vec![*sub(s)]),
        8 => GTerm::Add(sub(s), sub(s)),
        9 => GTerm::Sub(sub(s), sub(s)),
        _ => GTerm::Mul([-2, 2, 3][s.below(3) as usize], sub(s)),
    }
}

fn atom(s: &mut Stream) -> GAtom {
    match s.below(9) {
        0..=2 => GAtom::Eq(term(s, 2), term(s, 2)),
        3 | 4 => GAtom::Le(term(s, 2), term(s, 2)),
        5 => GAtom::Lt(term(s, 2), term(s, 2)),
        6 => GAtom::Pred("p".into(), vec![term(s, 1)]),
        7 => GAtom::Pred("p".into(), vec![term(s, 1), term(s, 1)]),
        _ => GAtom::Pred("q".into(), Vec::new()),
    }
}

/// 1-8 clauses of 1-3 literals over a pool of up to nine atoms, so atoms recur.
fn clause_set(s: &mut Stream) -> Vec<GClause> {
    let pool: Vec<GAtom> = (0..2 + s.below(8)).map(|_| atom(s)).collect();
    (0..1 + s.below(8))
        .map(|_| {
            (0..1 + s.below(3))
                .map(|_| GLiteral {
                    positive: s.below(2) == 0,
                    atom: pool[s.below(pool.len() as u64) as usize].clone(),
                })
                .collect()
        })
        .collect()
}

const STEP_LIMITS: [usize; 6] = [1, 2, 3, 8, 32, 6_000];

#[test]
fn random_clause_sets_match_the_reference_under_every_step_limit() {
    let mut s = Stream(0x9e37_79b9_7f4a_7c15);
    let mut outcomes = [0usize; 3];
    for case in 0..400 {
        let clauses = clause_set(&mut s);
        for max_steps in STEP_LIMITS {
            let limits = GroundLimits {
                max_steps,
                deadline: None,
            };
            let got = check_clauses(&clauses, limits);
            assert_eq!(
                got,
                reference::check_clauses(&clauses, limits),
                "case {case} at {max_steps} steps: {clauses:?}"
            );
            outcomes[match got {
                GroundOutcome::Sat => 0,
                GroundOutcome::Unsat => 1,
                GroundOutcome::Unknown => 2,
                GroundOutcome::Deadline => unreachable!("no deadline is set"),
            }] += 1;
        }
    }
    // Every outcome occurs, so the comparison covers each return.
    assert!(outcomes.iter().all(|&n| n > 20), "{outcomes:?}");
}

/// Terms named like the closure's own terms are those terms in congruence closure,
/// but stay uninterpreted in arithmetic.
#[test]
fn closure_names_collide_as_they_did() {
    let a = || GTerm::constant("a");
    let cases = [
        // `$int$1` is the literal 1 to the closure.
        (
            GroundOutcome::Unsat,
            vec![
                vec![GLiteral::pos(GAtom::Eq(
                    GTerm::App("g".into(), vec![GTerm::Int(1)]),
                    a(),
                ))],
                vec![GLiteral::neg(GAtom::Eq(
                    GTerm::App("g".into(), vec![GTerm::constant("$int$1")]),
                    a(),
                ))],
            ],
        ),
        // `$add` applied to two terms is their sum.
        (
            GroundOutcome::Unsat,
            vec![vec![GLiteral::neg(GAtom::Eq(
                GTerm::Add(Box::new(a()), Box::new(GTerm::Int(1))),
                GTerm::App("$add".into(), vec![a(), GTerm::Int(1)]),
            ))]],
        ),
        // A predicate is its `$pred$` application, and `$true` is the truth value.
        (
            GroundOutcome::Unsat,
            vec![
                vec![GLiteral::pos(GAtom::Pred("p".into(), vec![a()]))],
                vec![GLiteral::neg(GAtom::Eq(
                    GTerm::App("$pred$p".into(), vec![a()]),
                    GTerm::constant("$true"),
                ))],
            ],
        ),
        // In arithmetic `$int$1` is a variable, so `$int$1 < 1` has a model.
        (
            GroundOutcome::Sat,
            vec![vec![GLiteral::pos(GAtom::Lt(
                GTerm::constant("$int$1"),
                GTerm::Int(1),
            ))]],
        ),
    ];
    for (outcome, clauses) in cases {
        let limits = GroundLimits::default();
        assert_eq!(check_clauses(&clauses, limits), outcome, "{clauses:?}");
        assert_eq!(reference::check_clauses(&clauses, limits), outcome);
    }
}

/// Integer tightening makes this system's verdict depend on the variable order: it
/// is refuted with `a`, `c`, `b` numbered 0, 1, 2, as the rows meet them, and
/// satisfiable with `a`, `b`, `c` numbered 0, 1, 2, the order in which the first
/// clause mentions them.
#[test]
fn arithmetic_variables_are_numbered_as_the_assigned_rows_meet_them() {
    let (a, b, c) = (
        GTerm::constant("a"),
        GTerm::constant("b"),
        GTerm::constant("c"),
    );
    let sum = |terms: Vec<(i64, &GTerm)>, k: i64| {
        terms.into_iter().rev().fold(GTerm::Int(k), |acc, (m, t)| {
            GTerm::Add(Box::new(GTerm::Mul(m, Box::new(t.clone()))), Box::new(acc))
        })
    };
    let row = |lhs: GTerm| vec![GLiteral::pos(GAtom::Le(lhs, GTerm::Int(0)))];
    let clauses = vec![
        vec![GLiteral::pos(GAtom::Pred(
            "q".into(),
            vec![a.clone(), b.clone(), c.clone()],
        ))],
        row(sum(vec![(-2, &a), (3, &c)], 3)),
        row(sum(vec![(-3, &c)], -1)),
        row(sum(vec![(3, &b), (4, &c)], -2)),
        row(sum(vec![(-3, &b)], -5)),
        row(sum(vec![(-5, &b), (-2, &c)], 3)),
    ];
    let limits = GroundLimits::default();
    assert_eq!(check_clauses(&clauses, limits), GroundOutcome::Unsat);
    assert_eq!(
        reference::check_clauses(&clauses, limits),
        GroundOutcome::Unsat
    );
    // The same rows met in the order `a`, `b`, `c` have a model.
    let mut reordered = clauses.clone();
    reordered.insert(1, row(sum(vec![(0, &a), (0, &b)], 0)));
    assert_eq!(check_clauses(&reordered, limits), GroundOutcome::Sat);
    assert_eq!(
        reference::check_clauses(&reordered, limits),
        GroundOutcome::Sat
    );
}
