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
use std::collections::BTreeMap;

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
        let mut rest = eq.clone();
        rest.add_term(var, -coeff);
        let solution = rest.scale(-coeff); // value of `var`
        for e in equalities.iter_mut().chain(inequalities.iter_mut()) {
            substitute_var(e, var, &solution);
        }
    }
    // Remaining equalities without unit coefficients become inequality pairs.
    for e in equalities {
        inequalities.push(e.clone());
        inequalities.push(e.scale(-1));
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
    let scaled = value.scale(c);
    for (v, k) in scaled.iter() {
        e.add_term(v, k);
    }
    e.add_constant(scaled.constant_term());
}

/// Tightens `expr <= 0` by dividing through by the gcd of the coefficients, or
/// returns `None` when the gcd is at most 1 and the expression stays as it is.
fn tighten(e: &LinExpr) -> Option<LinExpr> {
    let g = e.coeff_gcd();
    if g <= 1 {
        return None;
    }
    let mut out = LinExpr::zero();
    for (v, c) in e.iter() {
        out.add_term(v, c / g);
    }
    // sum a_i x_i <= -c  =>  sum (a_i/g) x_i <= floor(-c / g)
    let bound = (-e.constant_term()).div_euclid(g);
    out.add_constant(-bound);
    Some(out)
}

/// An inequality `expr <= 0` with its sort key, the expression's `Debug` text. The
/// key is formatted once, when the inequality is made, and kept for every round the
/// inequality survives unchanged.
struct Inequality {
    key: String,
    expr: LinExpr,
}

impl Inequality {
    fn new(expr: LinExpr) -> Inequality {
        Inequality {
            key: format!("{expr:?}"),
            expr,
        }
    }
}

fn fourier_motzkin(inequalities: Vec<LinExpr>, limits: Limits) -> Outcome {
    let mut inequalities: Vec<Inequality> = inequalities.into_iter().map(Inequality::new).collect();
    loop {
        // Normalise and check ground constraints.
        let mut next = Vec::with_capacity(inequalities.len());
        for mut e in inequalities {
            if let Some(t) = tighten(&e.expr) {
                e = Inequality::new(t);
            }
            if e.expr.is_constant() {
                if e.expr.constant_term() > 0 {
                    return Outcome::Unsat;
                }
                continue;
            }
            if e.expr.iter().any(|(_, c)| c.abs() > limits.max_coefficient) {
                return Outcome::Unknown;
            }
            next.push(e);
        }
        inequalities = next;
        // Equal keys are equal expressions, so sorting by the key brings duplicates
        // together. The order decides which of an `Unsat` and an `Unknown` the next
        // round's checks above meet first.
        inequalities.sort_by(|a, b| a.key.cmp(&b.key));
        inequalities.dedup_by(|a, b| a.key == b.key);
        if inequalities.is_empty() {
            return Outcome::Sat;
        }
        if inequalities.len() > limits.max_constraints {
            return Outcome::Unknown;
        }

        let var = elimination_var(&inequalities);
        let (with_var, without): (Vec<Inequality>, Vec<Inequality>) = inequalities
            .into_iter()
            .partition(|e| e.expr.coeff(var) != 0);
        let upper: Vec<&LinExpr> = with_var
            .iter()
            .map(|e| &e.expr)
            .filter(|e| e.coeff(var) > 0)
            .collect();
        let lower: Vec<&LinExpr> = with_var
            .iter()
            .map(|e| &e.expr)
            .filter(|e| e.coeff(var) < 0)
            .collect();

        let mut combined = without;
        for u in &upper {
            for l in &lower {
                // u: a*x + p <= 0 (a > 0)   l: -b*x + q <= 0 (b > 0)
                // Combine: b*p + a*q <= 0.
                let a = u.coeff(var);
                let b = -l.coeff(var);
                let g = gcd(a, b);
                let combined_expr = u.scale(b / g).add(&l.scale(a / g));
                debug_assert_eq!(combined_expr.coeff(var), 0);
                combined.push(Inequality::new(combined_expr));
                if combined.len() > limits.max_constraints {
                    return Outcome::Unknown;
                }
            }
        }
        inequalities = combined;
    }
}

/// The variable whose elimination creates the fewest new constraints: the least
/// product of its upper and lower bound counts, the smallest variable among equals.
/// One pass over the coefficients counts both bounds of every variable.
fn elimination_var(inequalities: &[Inequality]) -> VarId {
    let mut bounds: BTreeMap<VarId, (usize, usize)> = BTreeMap::new();
    for e in inequalities {
        for (v, c) in e.expr.iter() {
            let (upper, lower) = bounds.entry(v).or_default();
            if c > 0 {
                *upper += 1;
            } else {
                *lower += 1;
            }
        }
    }
    bounds
        .into_iter()
        .min_by_key(|(_, (upper, lower))| upper * lower)
        .map(|(v, _)| v)
        .expect("non-empty constraint set has variables")
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

    /// The elimination as it was before keys were cached and bounds counted in one
    /// pass: every round formats every inequality for the sort and counts each
    /// variable's bounds with a scan of its own.
    fn reference_fourier_motzkin(mut inequalities: Vec<LinExpr>, limits: Limits) -> Outcome {
        loop {
            let mut next = Vec::with_capacity(inequalities.len());
            for e in &inequalities {
                let t = tighten(e).unwrap_or_else(|| e.clone());
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
