//! Satisfiability of conjunctions of linear integer constraints.
//!
//! The solver implements Fourier–Motzkin elimination with equality substitution, integer
//! tightening (normalising coefficients by their gcd) and divisibility checks on
//! equalities — the classic core of the Omega test.
//!
//! The solver is used to establish *unsatisfiability*: provers call it on the negation of
//! a goal, and only an [`Outcome::Unsat`] answer is used to claim validity. Consequently:
//!
//! * [`Outcome::Unsat`] is definitive (the constraints have no rational — and hence no
//!   integer — solution, or fail an integer divisibility check),
//! * [`Outcome::Sat`] means the constraints are satisfiable over the rationals and not
//!   refuted by the integer checks; they may still be unsatisfiable over the integers,
//! * [`Outcome::Unknown`] is returned when resource limits are exceeded.
//!
//! This asymmetry keeps every prover built on top of the solver sound.

use crate::linear::{gcd, Constraint, LinExpr, Rel, VarId};
use std::cmp::Ordering;

/// Result of a satisfiability check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The constraints are definitely unsatisfiable (over the integers).
    Unsat,
    /// The constraints are satisfiable over the rationals (and not refuted by integer
    /// divisibility checks); integer satisfiability is not guaranteed.
    Sat,
    /// The solver gave up (resource limits exceeded).
    Unknown,
}

/// Configuration limits for the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of inequality constraints the elimination may create.
    pub max_constraints: usize,
    /// Maximum absolute value of any coefficient before giving up.
    pub max_coefficient: i128,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_constraints: 20_000,
            max_coefficient: 1 << 60,
        }
    }
}

/// Decides satisfiability of a conjunction of constraints with default limits.
pub fn check(constraints: &[Constraint]) -> Outcome {
    check_with_limits(constraints, Limits::default())
}

/// Decides satisfiability of a conjunction of constraints.
pub fn check_with_limits(constraints: &[Constraint], limits: Limits) -> Outcome {
    let mut equalities: Vec<LinExpr> = Vec::new();
    let mut inequalities: Vec<LinExpr> = Vec::new();
    for c in constraints {
        match c.rel {
            Rel::Eq => equalities.push(c.expr.clone()),
            Rel::Le => inequalities.push(c.expr.clone()),
        }
    }

    // Phase 1: eliminate equalities.
    loop {
        // Constant equalities decide themselves.
        equalities.retain(|e| !(e.is_constant() && e.constant_term() == 0));
        if equalities
            .iter()
            .any(|e| e.is_constant() && e.constant_term() != 0)
        {
            return Outcome::Unsat;
        }
        // Divisibility check: gcd of coefficients must divide the constant.
        for e in &equalities {
            let g = e.coeff_gcd();
            if g > 1 && e.constant_term() % g != 0 {
                return Outcome::Unsat;
            }
        }
        // Find an equality with a +/-1 coefficient and substitute it away.
        let target = equalities
            .iter()
            .enumerate()
            .find_map(|(i, e)| e.iter().find(|(_, c)| c.abs() == 1).map(|(v, c)| (i, v, c)));
        let Some((idx, var, coeff)) = target else {
            break;
        };
        let eq = equalities.remove(idx);
        // coeff * var + rest = 0  =>  var = -(rest) / coeff, and coeff is +/-1.
        let mut rest = eq;
        rest.add_term(var, -coeff);
        let solution = rest.scale(-coeff); // value of `var`
        for e in equalities.iter_mut().chain(inequalities.iter_mut()) {
            substitute_var(e, var, &solution);
        }
    }
    // Remaining equalities without unit coefficients become inequality pairs.
    for e in equalities {
        let negated = e.scale(-1);
        inequalities.push(e);
        inequalities.push(negated);
    }

    // Phase 2: Fourier–Motzkin elimination on the inequalities.
    fourier_motzkin(inequalities, limits)
}

fn substitute_var(e: &mut LinExpr, var: VarId, value: &LinExpr) {
    let c = e.coeff(var);
    if c == 0 {
        return;
    }
    e.add_term(var, -c);
    *e = e.combine(1, value, c);
}

/// Tightens `expr <= 0` in place by dividing through by the gcd of the coefficients
/// when that gcd exceeds 1.
fn tighten(e: &mut LinExpr) {
    let mut g = 0;
    for &(_, c) in e.terms() {
        g = gcd(g, c.abs());
        if g == 1 {
            return;
        }
    }
    if g == 0 {
        return;
    }
    // sum a_i x_i <= -c  =>  sum (a_i/g) x_i <= floor(-c / g)
    let bound = (-e.constant_term()).div_euclid(g);
    let terms = e.terms().iter().map(|&(v, c)| (v, c / g)).collect();
    *e = LinExpr::from_sorted(terms, -bound);
}

/// Fourier–Motzkin elimination on inequalities `expr <= 0`.
///
/// The rows are renumbered densely in increasing variable order, which keeps every
/// order the elimination reads: rows stay sorted, and the smallest variable still
/// wins a tie. Each round sorts its rows in the order of their `Debug` text (see
/// [`text_order`]); within one round that order decides which of an `Unsat` and an
/// `Unknown` the checks meet first. Rows that survive a round unchanged passed its
/// checks already, so each round normalises and checks only the rows it made.
fn fourier_motzkin(inequalities: Vec<LinExpr>, limits: Limits) -> Outcome {
    let mut names: Vec<VarId> = inequalities.iter().flat_map(LinExpr::vars).collect();
    names.sort_unstable();
    names.dedup();
    let dense = |v: VarId| names.binary_search(&v).expect("a collected variable") as VarId;
    let mut rows: Vec<LinExpr> = inequalities
        .iter()
        .map(|e| {
            let terms = e.iter().map(|(v, c)| (dense(v), c)).collect();
            LinExpr::from_sorted(terms, e.constant_term())
        })
        .collect();
    let text_rank = text_ranks(&names);
    // Upper and lower bound counts of each variable.
    let mut bounds: Vec<(usize, usize)> = vec![(0, 0); names.len()];
    // `rows[fresh..]` are the rows made since the last round's checks.
    let mut fresh = 0;
    loop {
        // Normalise and check ground constraints.
        let mut kept = fresh;
        for i in fresh..rows.len() {
            tighten(&mut rows[i]);
            let e = &rows[i];
            if e.is_constant() {
                if e.constant_term() > 0 {
                    return Outcome::Unsat;
                }
                continue;
            }
            if e.iter().any(|(_, c)| c.abs() > limits.max_coefficient) {
                return Outcome::Unknown;
            }
            rows.swap(kept, i);
            kept += 1;
        }
        rows.truncate(kept);
        rows.sort_by(|a, b| text_order(a, b, &text_rank));
        rows.dedup();
        if rows.is_empty() {
            return Outcome::Sat;
        }
        if rows.len() > limits.max_constraints {
            return Outcome::Unknown;
        }

        let var = elimination_var(&rows, &mut bounds);
        let mut combined = Vec::with_capacity(rows.len());
        let mut upper = Vec::new();
        let mut lower = Vec::new();
        for e in rows {
            match e.coeff(var) {
                0 => combined.push(e),
                c if c > 0 => upper.push((c, e)),
                c => lower.push((-c, e)),
            }
        }
        fresh = combined.len();
        for (a, u) in &upper {
            for (b, l) in &lower {
                // u: a*x + p <= 0 (a > 0)   l: -b*x + q <= 0 (b > 0)
                // Combine: b*p + a*q <= 0.
                let g = gcd(*a, *b);
                let combined_expr = u.combine(b / g, l, a / g);
                debug_assert_eq!(combined_expr.coeff(var), 0);
                combined.push(combined_expr);
                if combined.len() > limits.max_constraints {
                    return Outcome::Unknown;
                }
            }
        }
        rows = combined;
    }
}

/// The variable whose elimination creates the fewest new constraints: the least
/// product of its upper and lower bound counts, the smallest variable among equals.
/// One pass over the coefficients counts both bounds of every variable.
fn elimination_var(rows: &[LinExpr], bounds: &mut [(usize, usize)]) -> VarId {
    bounds.fill((0, 0));
    for e in rows {
        for &(v, c) in e.terms() {
            let (upper, lower) = &mut bounds[v as usize];
            if c > 0 {
                *upper += 1;
            } else {
                *lower += 1;
            }
        }
    }
    let mut best: Option<(usize, usize)> = None;
    for (v, &(upper, lower)) in bounds.iter().enumerate() {
        if upper + lower > 0 && best.is_none_or(|(_, cost)| upper * lower < cost) {
            best = Some((v, upper * lower));
        }
    }
    best.expect("non-empty constraint set has variables").0 as VarId
}

/// The rank of each variable's `{v}:` text among the texts of `names`: how the
/// `Debug` texts of two rows compare the variables `names[i]` and `names[j]`.
fn text_ranks(names: &[VarId]) -> Vec<usize> {
    let mut by_text: Vec<usize> = (0..names.len()).collect();
    by_text.sort_by_cached_key(|&i| format!("{}:", names[i]));
    let mut rank = vec![0; names.len()];
    for (r, &i) in by_text.iter().enumerate() {
        rank[i] = r;
    }
    rank
}

/// Orders two rows as their `Debug` texts order, `LinExpr { coeffs: {v: c, ...},
/// constant: k }`, without printing them. The texts share their prefix up to the
/// first entry. An entry's variable text ends in `:`, its coefficient text in `,`
/// (more entries follow) or `}` (the last one), and the constant text in a space, so
/// the first entry whose texts differ decides, and a row with an entry sorts before
/// one whose entries have ended, as a digit sorts before `}`.
fn text_order(x: &LinExpr, y: &LinExpr, text_rank: &[usize]) -> Ordering {
    let (a, b) = (x.terms(), y.terms());
    for i in 0..a.len().min(b.len()) {
        let ((va, ca), (vb, cb)) = (a[i], b[i]);
        if va != vb {
            return text_rank[va as usize].cmp(&text_rank[vb as usize]);
        }
        let end = |terms: &[(VarId, i128)]| if i + 1 < terms.len() { b',' } else { b'}' };
        let (ta, tb) = (end(a), end(b));
        if ca != cb || ta != tb {
            return number_text_order(ca, ta, cb, tb);
        }
    }
    match (a.len(), b.len()) {
        (m, n) if m == n => number_text_order(x.constant_term(), b' ', y.constant_term(), b' '),
        (0, _) => Ordering::Greater,
        (_, 0) => Ordering::Less,
        _ => unreachable!("entry texts that end differently decide the order"),
    }
}

/// Orders the decimal text of `a` followed by the byte `ta` against that of `b`
/// followed by `tb`.
fn number_text_order(a: i128, ta: u8, b: i128, tb: u8) -> Ordering {
    if a == b {
        return ta.cmp(&tb);
    }
    let single = -9..=9;
    if single.contains(&a) && single.contains(&b) {
        // One digit each, after a `-` that sorts before every digit.
        return match (a < 0, b < 0) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => a.cmp(&b),
            (true, true) => b.cmp(&a),
        };
    }
    let (mut buf_a, mut buf_b) = ([0u8; 41], [0u8; 41]);
    decimal(a, ta, &mut buf_a).cmp(decimal(b, tb, &mut buf_b))
}

/// Writes the decimal text of `n` followed by `end` at the back of `buf`.
fn decimal(n: i128, end: u8, buf: &mut [u8; 41]) -> &[u8] {
    let mut at = buf.len() - 1;
    buf[at] = end;
    let mut m = n.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    &buf[at..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{Constraint, LinExpr};

    fn var(v: VarId) -> LinExpr {
        LinExpr::var(v)
    }

    fn cst(c: i128) -> LinExpr {
        LinExpr::constant(c)
    }

    #[test]
    fn empty_system_is_sat() {
        assert_eq!(check(&[]), Outcome::Sat);
    }

    #[test]
    fn simple_bounds_are_sat() {
        // 0 <= x <= 10, x = 5
        let cs = vec![
            Constraint::ge(var(0), cst(0)),
            Constraint::le(var(0), cst(10)),
            Constraint::eq(var(0), cst(5)),
        ];
        assert_eq!(check(&cs), Outcome::Sat);
    }

    #[test]
    fn contradictory_bounds_are_unsat() {
        // x <= 3 and x >= 5
        let cs = vec![
            Constraint::le(var(0), cst(3)),
            Constraint::ge(var(0), cst(5)),
        ];
        assert_eq!(check(&cs), Outcome::Unsat);
    }

    #[test]
    fn equality_substitution_detects_conflict() {
        // x = y + 1, y = x  is unsatisfiable.
        let cs = vec![
            Constraint::eq(var(0), var(1).add(&cst(1))),
            Constraint::eq(var(1), var(0)),
        ];
        assert_eq!(check(&cs), Outcome::Unsat);
    }

    #[test]
    fn divisibility_check_refutes_parity_conflicts() {
        // 2x = 5 has no integer solution.
        let cs = vec![Constraint::eq(var(0).scale(2), cst(5))];
        assert_eq!(check(&cs), Outcome::Unsat);
    }

    #[test]
    fn chained_inequalities_propagate() {
        // x < y, y < z, z < x  is unsatisfiable.
        let cs = vec![
            Constraint::lt(var(0), var(1)),
            Constraint::lt(var(1), var(2)),
            Constraint::lt(var(2), var(0)),
        ];
        assert_eq!(check(&cs), Outcome::Unsat);
        // Dropping one leaves it satisfiable.
        let cs2 = vec![
            Constraint::lt(var(0), var(1)),
            Constraint::lt(var(1), var(2)),
        ];
        assert_eq!(check(&cs2), Outcome::Sat);
    }

    #[test]
    fn size_invariant_style_reasoning() {
        // size = card, card >= 0, size + 1 <= 0  is unsatisfiable
        // (models "size of a set cannot be negative").
        let cs = vec![
            Constraint::eq(var(0), var(1)),
            Constraint::ge(var(1), cst(0)),
            Constraint::le(var(0).add(&cst(1)), cst(0)),
        ];
        assert_eq!(check(&cs), Outcome::Unsat);
    }

    #[test]
    fn integer_tightening_strengthens_bounds() {
        // 2x <= 5 and 2x >= 5 has no integer solution; tightening x <= 2, x >= 3 refutes it.
        let cs = vec![
            Constraint::le(var(0).scale(2), cst(5)),
            Constraint::ge(var(0).scale(2), cst(5)),
        ];
        assert_eq!(check(&cs), Outcome::Unsat);
    }

    #[test]
    fn multi_variable_system() {
        // x + y <= 4, x >= 3, y >= 3 is unsatisfiable.
        let cs = vec![
            Constraint::le(var(0).add(&var(1)), cst(4)),
            Constraint::ge(var(0), cst(3)),
            Constraint::ge(var(1), cst(3)),
        ];
        assert_eq!(check(&cs), Outcome::Unsat);
        // Relaxing the sum makes it satisfiable.
        let cs2 = vec![
            Constraint::le(var(0).add(&var(1)), cst(8)),
            Constraint::ge(var(0), cst(3)),
            Constraint::ge(var(1), cst(3)),
        ];
        assert_eq!(check(&cs2), Outcome::Sat);
    }

    #[test]
    fn resource_limits_produce_unknown() {
        // A dense system with tiny limits trips the constraint budget.
        let mut cs = Vec::new();
        for i in 0..6u32 {
            for j in 0..6u32 {
                if i != j {
                    cs.push(Constraint::le(var(i).add(&var(j)), cst((i + j) as i128)));
                    cs.push(Constraint::ge(var(i).sub(&var(j)), cst(-3)));
                }
            }
        }
        let limits = Limits {
            max_constraints: 4,
            max_coefficient: 1 << 60,
        };
        assert_eq!(check_with_limits(&cs, limits), Outcome::Unknown);
    }

    /// Tightening as a separate copy: the gcd of all coefficients, then a new row.
    fn reference_tighten(e: &LinExpr) -> Option<LinExpr> {
        let g = e.coeff_gcd();
        if g <= 1 {
            return None;
        }
        let mut out = LinExpr::zero();
        for (v, c) in e.iter() {
            out.add_term(v, c / g);
        }
        out.add_constant(-(-e.constant_term()).div_euclid(g));
        Some(out)
    }

    /// The elimination in its plainest form: every round tightens and checks every
    /// inequality, formats each for the sort and counts each variable's bounds with a
    /// scan of its own.
    fn reference_fourier_motzkin(mut inequalities: Vec<LinExpr>, limits: Limits) -> Outcome {
        loop {
            let mut next = Vec::with_capacity(inequalities.len());
            for e in &inequalities {
                let t = reference_tighten(e).unwrap_or_else(|| e.clone());
                if t.is_constant() {
                    if t.constant_term() > 0 {
                        return Outcome::Unsat;
                    }
                    continue;
                }
                if t.iter().any(|(_, c)| c.abs() > limits.max_coefficient) {
                    return Outcome::Unknown;
                }
                next.push(t);
            }
            inequalities = next;
            inequalities.sort_by_key(|e| format!("{e:?}"));
            inequalities.dedup();
            if inequalities.is_empty() {
                return Outcome::Sat;
            }
            if inequalities.len() > limits.max_constraints {
                return Outcome::Unknown;
            }
            let vars: std::collections::BTreeSet<VarId> =
                inequalities.iter().flat_map(|e| e.vars()).collect();
            let var = vars
                .iter()
                .copied()
                .min_by_key(|v| {
                    let pos = inequalities.iter().filter(|e| e.coeff(*v) > 0).count();
                    let neg = inequalities.iter().filter(|e| e.coeff(*v) < 0).count();
                    pos * neg
                })
                .expect("variables");
            let (with_var, without): (Vec<LinExpr>, Vec<LinExpr>) =
                inequalities.into_iter().partition(|e| e.coeff(var) != 0);
            let mut combined = without;
            for u in with_var.iter().filter(|e| e.coeff(var) > 0) {
                for l in with_var.iter().filter(|e| e.coeff(var) < 0) {
                    let (a, b) = (u.coeff(var), -l.coeff(var));
                    let g = gcd(a, b);
                    combined.push(u.scale(b / g).add(&l.scale(a / g)));
                    if combined.len() > limits.max_constraints {
                        return Outcome::Unknown;
                    }
                }
            }
            inequalities = combined;
        }
    }

    #[test]
    fn elimination_matches_the_reference_under_every_limit() {
        // A fixed xorshift stream: the systems are the same on every run.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut outcomes = [0usize; 3];
        for case in 0..3000 {
            let vars = 1 + next(6) as VarId;
            let inequalities: Vec<LinExpr> = (0..1 + next(10))
                .map(|_| {
                    let mut e = cst(next(21) as i128 - 10);
                    for _ in 0..1 + next(3) {
                        e.add_term(next(vars as u64) as VarId, next(13) as i128 - 6);
                    }
                    e
                })
                .collect();
            // Small limits reach `Unknown` by either bound, and sometimes in the
            // same round as an `Unsat`, where the order of the checks decides.
            let limits = Limits {
                max_constraints: [4, 12, 20_000][case % 3],
                max_coefficient: [4, 40, 1 << 60][(case / 3) % 3],
            };
            let got = fourier_motzkin(inequalities.clone(), limits);
            assert_eq!(
                got,
                reference_fourier_motzkin(inequalities.clone(), limits),
                "case {case}: {inequalities:?} under {limits:?}"
            );
            outcomes[got as usize] += 1;
        }
        // Every outcome occurs, so the comparison covers each return.
        assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
    }

    #[test]
    fn text_order_is_the_order_of_the_debug_text() {
        // Variables 0..=120 stand for themselves.
        let text_rank = text_ranks(&(0..=120).collect::<Vec<VarId>>());
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let row = |next: &mut dyn FnMut(u64) -> u64| {
            let size = [1, 10, 100, 1000][next(4) as usize];
            let mut e = cst(next(2 * size) as i128 - size as i128);
            for _ in 0..next(4) {
                let v = [next(12), 100 + next(21)][next(2) as usize] as VarId;
                e.add_term(v, next(2 * size) as i128 - size as i128);
            }
            e
        };
        for _ in 0..20_000 {
            let (a, b) = (row(&mut next), row(&mut next));
            let want = format!("{a:?}").cmp(&format!("{b:?}"));
            assert_eq!(text_order(&a, &b, &text_rank), want, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn debug_order_decides_between_unsat_and_unknown() {
        // Eliminating x0 combines the upper bounds `x0 + 1 <= 0` and
        // `x0 + 3*x2 <= 0` with the lower bounds `-x0 <= 0` and `-3*x0 + 4*x1 <= 0`.
        // The first upper bound yields `1 <= 0`, an `Unsat`; the second yields
        // `4*x1 + 9*x2 <= 0`, past the coefficient limit, an `Unknown`. By their
        // `Debug` text (`{0: 1, 2: 3}` before `{0: 1}`) the second comes first. The
        // bounds on x1 and x2 tie their elimination cost with x0's, so x0 goes first.
        let mut inequalities = vec![
            var(0).add(&cst(1)),
            var(0).add(&var(2).scale(3)),
            var(0).scale(-1),
            var(0).scale(-3).add(&var(1).scale(4)),
        ];
        for v in [1, 2] {
            inequalities.push(var(v).add(&cst(-10)));
            inequalities.push(var(v).scale(-1).add(&cst(-10)));
            inequalities.push(var(v).scale(-1).add(&cst(-11)));
        }
        let limits = Limits {
            max_constraints: 20_000,
            max_coefficient: 4,
        };
        assert_eq!(
            reference_fourier_motzkin(inequalities.clone(), limits),
            Outcome::Unknown
        );
        assert_eq!(
            fourier_motzkin(inequalities.clone(), limits),
            Outcome::Unknown
        );
        inequalities.reverse();
        assert_eq!(fourier_motzkin(inequalities, limits), Outcome::Unknown);
    }
}
