//! The flat Presburger kernel against the solver it replaced.
//!
//! `reference` keeps the old solver over `BTreeMap` expressions, which sorts each round
//! by the derived `Debug` text. On every system and under every limit the kernel must
//! answer what the reference answers. The systems exercise the whole
//! `check_with_limits`: equalities with unit coefficients (substituted away) and
//! without (split into two inequalities, after a divisibility check), inequalities,
//! variables whose decimal order differs from their numeric order (`10` before `9`),
//! and BAPA-shaped systems, one non-negative unknown per Venn region plus cardinality
//! sums, under constraint and coefficient limits tight enough to stop them.

mod reference;

use jahob_arith::{check_with_limits, Constraint, Limits, LinExpr, VarId};

/// A fixed xorshift stream: the systems are the same on every run.
struct Stream(u64);

impl Stream {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn int(&mut self, lo: i128, hi: i128) -> i128 {
        lo + self.below((hi - lo + 1) as u64) as i128
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Variables spread so that `10`, `100` and `11` print before `9`.
const VARS: [VarId; 8] = [0, 1, 2, 3, 9, 10, 11, 100];

/// `(max_constraints, max_coefficient)` pairs, from the solver's defaults down to
/// limits a handful of rows or a coefficient of 4 exceed.
const LIMITS: [(usize, i128); 6] = [
    (20_000, 1 << 60),
    (4, 1 << 60),
    (12, 40),
    (40, 4),
    (8, 10),
    (20_000, 12),
];

fn limits(i: usize) -> Limits {
    let (max_constraints, max_coefficient) = LIMITS[i % LIMITS.len()];
    Limits {
        max_constraints,
        max_coefficient,
    }
}

/// A mixed system of 1-8 constraints over up to five of [`VARS`].
fn mixed_system(s: &mut Stream) -> Vec<Constraint> {
    let vars: Vec<VarId> = (0..1 + s.below(5)).map(|_| s.pick(&VARS)).collect();
    (0..1 + s.below(8))
        .map(|_| {
            let kind = s.below(6);
            // Non-unit equalities scale every coefficient, so only the divisibility
            // check or the split into two inequalities can handle them.
            let factor = if kind == 1 { s.int(2, 3) } else { 1 };
            let mut e = LinExpr::constant(s.int(-12, 12));
            for _ in 0..1 + s.below(3) {
                let big = s.below(12) == 0;
                let c = if big { s.int(-60, 60) } else { s.int(-6, 6) };
                e.add_term(s.pick(&vars), c * factor);
            }
            match kind {
                0 | 1 => Constraint::eq(e, LinExpr::zero()),
                _ => Constraint::le(e, LinExpr::zero()),
            }
        })
        .collect()
}

/// A BAPA-shaped system: `2^n` non-negative region unknowns for `n` sets, the
/// singletons among the sets with cardinality one, and cardinality sums over random
/// unions of regions compared with integer variables or literals.
fn bapa_system(s: &mut Stream) -> Vec<Constraint> {
    let sets = 1 + s.below(4) as u32;
    let regions = 1u32 << sets;
    let mut out: Vec<Constraint> = (0..regions).map(Constraint::non_negative).collect();
    let card = |mask: u64| {
        let mut e = LinExpr::zero();
        for r in (0..regions).filter(|r| mask & (1 << r) != 0) {
            e.add_term(r, 1);
        }
        e
    };
    for set in 0..sets {
        if s.below(3) == 0 {
            let members: u64 = (0..regions)
                .filter(|r| r & (1 << set) != 0)
                .map(|r| 1 << r)
                .sum();
            out.push(Constraint::eq(card(members), LinExpr::constant(1)));
        }
    }
    let int_var = |i: u64| LinExpr::var(regions + i as u32);
    for _ in 0..1 + s.below(5) {
        let lhs = card(s.below(1 << regions));
        let rhs = match s.below(3) {
            0 => int_var(s.below(2)),
            1 => LinExpr::constant(s.int(0, 3)),
            _ => int_var(s.below(2)).add(&LinExpr::constant(s.int(-2, 2))),
        };
        out.push(match s.below(5) {
            0 | 1 => Constraint::eq(lhs, rhs),
            2 => Constraint::le(lhs, rhs),
            3 => Constraint::ge(lhs, rhs),
            _ => Constraint::lt(lhs, rhs),
        });
    }
    out
}

fn compare(family: &str, make: fn(&mut Stream) -> Vec<Constraint>, cases: usize) {
    let mut s = Stream(0x9e37_79b9_7f4a_7c15);
    let mut outcomes = [0usize; 3];
    for case in 0..cases {
        let system = make(&mut s);
        let limits = limits(case);
        let got = check_with_limits(&system, limits);
        assert_eq!(
            got,
            reference::check_with_limits(&system, limits),
            "{family} case {case} under {limits:?}: {system:?}"
        );
        outcomes[got as usize] += 1;
    }
    // Every outcome occurs, so the comparison covers each return.
    assert!(outcomes.iter().all(|&n| n > 0), "{family}: {outcomes:?}");
}

#[test]
fn mixed_systems_match_the_reference_under_every_limit() {
    compare("mixed", mixed_system, 3000);
}

#[test]
fn bapa_shaped_systems_match_the_reference_under_every_limit() {
    compare("BAPA-shaped", bapa_system, 600);
}

#[test]
fn debug_text_is_the_derived_text_of_the_map_it_replaced() {
    let mut s = Stream(0x2545_f491_4f6c_dd1d);
    for _ in 0..500 {
        let mut e = LinExpr::constant(s.int(-1000, 1000));
        for _ in 0..s.below(5) {
            e.add_term(s.pick(&VARS), s.int(-20, 20));
        }
        let r = reference::LinExpr::from_kernel(&e);
        assert_eq!(format!("{e:?}"), format!("{r:?}"));
        assert_eq!(format!("{e:#?}"), format!("{r:#?}"));
    }
    let extreme = LinExpr::constant(i128::MIN).add(&LinExpr::var(VarId::MAX).scale(i128::MAX));
    let r = reference::LinExpr::from_kernel(&extreme);
    assert_eq!(format!("{extreme:?}"), format!("{r:?}"));
}
