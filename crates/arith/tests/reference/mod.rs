//! The Presburger solver as it was before the flat kernel, kept as a test oracle.
//!
//! `LinExpr` keeps its coefficients in a `BTreeMap`, and Fourier–Motzkin sorts its
//! inequalities by their derived `Debug` text, formatted once per new row. The
//! kernel in `jahob_arith::solver` must return what [`check_with_limits`] returns on
//! every input.

#![allow(dead_code)]

use jahob_arith::{Constraint, Limits, Outcome, Rel, VarId};
use std::collections::BTreeMap;

/// A linear expression `sum(coeff_i * x_i) + constant` with integer coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinExpr {
    /// Coefficients by variable (zero coefficients are never stored).
    coeffs: BTreeMap<VarId, i128>,
    /// The constant term.
    constant: i128,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: i128) -> Self {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: c,
        }
    }

    /// The constant term.
    pub fn constant_term(&self) -> i128 {
        self.constant
    }

    /// The coefficient of a variable (zero if absent).
    pub fn coeff(&self, v: VarId) -> i128 {
        self.coeffs.get(&v).copied().unwrap_or(0)
    }

    /// Iterates over the non-zero coefficients.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, i128)> + '_ {
        self.coeffs.iter().map(|(v, c)| (*v, *c))
    }

    /// Returns `true` if the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Adds `coeff * var` to the expression.
    pub fn add_term(&mut self, v: VarId, coeff: i128) {
        let entry = self.coeffs.entry(v).or_insert(0);
        *entry += coeff;
        if *entry == 0 {
            self.coeffs.remove(&v);
        }
    }

    /// Adds a constant.
    pub fn add_constant(&mut self, c: i128) {
        self.constant += c;
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        for (v, c) in other.iter() {
            out.add_term(v, c);
        }
        out.add_constant(other.constant);
        out
    }

    /// Returns `k * self`.
    pub fn scale(&self, k: i128) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        LinExpr {
            coeffs: self.coeffs.iter().map(|(v, c)| (*v, c * k)).collect(),
            constant: self.constant * k,
        }
    }

    /// The greatest common divisor of the variable coefficients (0 for constants).
    pub fn coeff_gcd(&self) -> i128 {
        self.coeffs.values().fold(0i128, |acc, c| gcd(acc, c.abs()))
    }
}

/// Greatest common divisor of two non-negative integers.
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

impl LinExpr {
    /// The reference copy of a kernel expression.
    pub fn from_kernel(e: &jahob_arith::LinExpr) -> LinExpr {
        let mut out = LinExpr::constant(e.constant_term());
        for (v, c) in e.iter() {
            out.add_term(v, c);
        }
        out
    }
}

/// Decides satisfiability of a conjunction of constraints.
pub fn check_with_limits(constraints: &[Constraint], limits: Limits) -> Outcome {
    let mut equalities: Vec<LinExpr> = Vec::new();
    let mut inequalities: Vec<LinExpr> = Vec::new();
    for c in constraints {
        match c.rel {
            Rel::Eq => equalities.push(LinExpr::from_kernel(&c.expr)),
            Rel::Le => inequalities.push(LinExpr::from_kernel(&c.expr)),
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
