//! Linear expressions and constraints over integer variables.
//!
//! This is the constraint language shared by the SMT arithmetic theory (`jahob-smt`) and
//! the BAPA decision procedure (`jahob-bapa`). Variables are identified by small integer
//! indices assigned by the caller.
//!
//! An expression keeps its non-zero coefficients as one vector sorted by variable, so
//! adding two expressions is a merge and the solver works on the same rows the callers
//! build.

use std::collections::BTreeMap;
use std::fmt;

/// A variable index.
pub type VarId = u32;

/// A linear expression `sum(coeff_i * x_i) + constant` with integer coefficients.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct LinExpr {
    /// `(variable, coefficient)` pairs sorted by variable; zero coefficients are never
    /// stored.
    terms: Vec<(VarId, i128)>,
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
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression consisting of a single variable.
    pub fn var(v: VarId) -> Self {
        LinExpr {
            terms: vec![(v, 1)],
            constant: 0,
        }
    }

    /// The constant term.
    pub fn constant_term(&self) -> i128 {
        self.constant
    }

    /// The coefficient of a variable (zero if absent).
    pub fn coeff(&self, v: VarId) -> i128 {
        match self.terms.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.terms[i].1,
            Err(_) => 0,
        }
    }

    /// Iterates over the non-zero coefficients in increasing variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, i128)> + '_ {
        self.terms.iter().copied()
    }

    /// The variables with non-zero coefficients, in increasing order.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    /// Returns `true` if the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Adds `coeff * var` to the expression.
    pub fn add_term(&mut self, v: VarId, coeff: i128) {
        match self.terms.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => {
                self.terms[i].1 += coeff;
                if self.terms[i].1 == 0 {
                    self.terms.remove(i);
                }
            }
            Err(i) if coeff != 0 => self.terms.insert(i, (v, coeff)),
            Err(_) => {}
        }
    }

    /// Adds a constant.
    pub fn add_constant(&mut self, c: i128) {
        self.constant += c;
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        self.combine(1, other, 1)
    }

    /// Returns `self - other`.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.combine(1, other, -1)
    }

    /// Returns `k * self`.
    pub fn scale(&self, k: i128) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        LinExpr {
            terms: self.terms.iter().map(|&(v, c)| (v, c * k)).collect(),
            constant: self.constant * k,
        }
    }

    /// Returns `j * self + k * other` for non-zero `j` and `k`, as `self.scale(j)`
    /// plus `other.scale(k)` term by term: a product from `other` or a sum that is
    /// zero is dropped.
    pub(crate) fn combine(&self, j: i128, other: &LinExpr, k: i128) -> LinExpr {
        let (a, b) = (&self.terms, &other.terms);
        let mut terms = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut l) = (0, 0);
        while i < a.len() && l < b.len() {
            let ((va, ca), (vb, cb)) = (a[i], b[l]);
            if va < vb {
                terms.push((va, ca * j));
                i += 1;
            } else if vb < va {
                if cb * k != 0 {
                    terms.push((vb, cb * k));
                }
                l += 1;
            } else {
                let sum = ca * j + cb * k;
                if sum != 0 {
                    terms.push((va, sum));
                }
                i += 1;
                l += 1;
            }
        }
        terms.extend(a[i..].iter().map(|&(v, c)| (v, c * j)));
        terms.extend(
            b[l..]
                .iter()
                .map(|&(v, c)| (v, c * k))
                .filter(|&(_, c)| c != 0),
        );
        LinExpr {
            terms,
            constant: self.constant * j + other.constant * k,
        }
    }

    /// Evaluates the expression under an assignment (missing variables default to 0).
    pub fn eval(&self, assignment: &BTreeMap<VarId, i128>) -> i128 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, c)| c * assignment.get(v).copied().unwrap_or(0))
                .sum::<i128>()
    }

    /// The greatest common divisor of the variable coefficients (0 for constants).
    pub fn coeff_gcd(&self) -> i128 {
        self.terms
            .iter()
            .fold(0i128, |acc, (_, c)| gcd(acc, c.abs()))
    }

    /// The `(variable, coefficient)` pairs in increasing variable order.
    pub(crate) fn terms(&self) -> &[(VarId, i128)] {
        &self.terms
    }

    /// Builds an expression from pairs already sorted by variable with no zero
    /// coefficient.
    pub(crate) fn from_sorted(terms: Vec<(VarId, i128)>, constant: i128) -> LinExpr {
        debug_assert!(terms.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(terms.iter().all(|&(_, c)| c != 0));
        LinExpr { terms, constant }
    }
}

/// Prints what the derived `Debug` of a `BTreeMap`-backed expression printed,
/// `LinExpr { coeffs: {0: 1, 2: 3}, constant: 0 }`: the solver's row order is the
/// order of that text.
impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Coeffs<'a>(&'a [(VarId, i128)]);
        impl fmt::Debug for Coeffs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(v, c)| (v, c)))
                    .finish()
            }
        }
        f.debug_struct("LinExpr")
            .field("coeffs", &Coeffs(&self.terms))
            .field("constant", &self.constant)
            .finish()
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

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                write!(f, "{c}*x{v}")?;
                first = false;
            } else if *c >= 0 {
                write!(f, " + {c}*x{v}")?;
            } else {
                write!(f, " - {}*x{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)
        } else {
            Ok(())
        }
    }
}

/// The relation of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `expr = 0`.
    Eq,
    /// `expr <= 0`.
    Le,
}

/// A linear constraint `expr (=|<=) 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// The left-hand side expression (compared against zero).
    pub expr: LinExpr,
    /// The relation.
    pub rel: Rel,
}

impl Constraint {
    /// The constraint `lhs = rhs`.
    pub fn eq(lhs: LinExpr, rhs: LinExpr) -> Self {
        Constraint {
            expr: lhs.sub(&rhs),
            rel: Rel::Eq,
        }
    }

    /// The constraint `lhs <= rhs`.
    pub fn le(lhs: LinExpr, rhs: LinExpr) -> Self {
        Constraint {
            expr: lhs.sub(&rhs),
            rel: Rel::Le,
        }
    }

    /// The constraint `lhs < rhs` (over the integers, `lhs + 1 <= rhs`).
    pub fn lt(lhs: LinExpr, rhs: LinExpr) -> Self {
        let mut e = lhs.sub(&rhs);
        e.add_constant(1);
        Constraint {
            expr: e,
            rel: Rel::Le,
        }
    }

    /// The constraint `lhs >= rhs`.
    pub fn ge(lhs: LinExpr, rhs: LinExpr) -> Self {
        Constraint::le(rhs, lhs)
    }

    /// The constraint `lhs > rhs`.
    pub fn gt(lhs: LinExpr, rhs: LinExpr) -> Self {
        Constraint::lt(rhs, lhs)
    }

    /// The constraint `var >= 0`.
    pub fn non_negative(v: VarId) -> Self {
        Constraint::ge(LinExpr::var(v), LinExpr::zero())
    }

    /// Evaluates the constraint under an assignment.
    pub fn holds(&self, assignment: &BTreeMap<VarId, i128>) -> bool {
        let value = self.expr.eval(assignment);
        match self.rel {
            Rel::Eq => value == 0,
            Rel::Le => value <= 0,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rel {
            Rel::Eq => write!(f, "{} = 0", self.expr),
            Rel::Le => write!(f, "{} <= 0", self.expr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_arithmetic_on_expressions() {
        let mut e = LinExpr::var(0).scale(3);
        e.add_term(1, 2);
        e.add_constant(5);
        let f = LinExpr::var(0);
        let diff = e.sub(&f);
        assert_eq!(diff.coeff(0), 2);
        assert_eq!(diff.coeff(1), 2);
        assert_eq!(diff.constant_term(), 5);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let mut e = LinExpr::var(0);
        e.add_term(0, -1);
        assert!(e.is_constant());
        assert_eq!(e.vars().count(), 0);
    }

    #[test]
    fn eval_and_holds() {
        let mut assignment = BTreeMap::new();
        assignment.insert(0, 3);
        assignment.insert(1, 4);
        // 2*x0 + x1 - 10 <= 0  with x0=3, x1=4  =>  0 <= 0 holds.
        let c = Constraint::le(
            LinExpr::var(0).scale(2).add(&LinExpr::var(1)),
            LinExpr::constant(10),
        );
        assert!(c.holds(&assignment));
        let strict = Constraint::lt(
            LinExpr::var(0).scale(2).add(&LinExpr::var(1)),
            LinExpr::constant(10),
        );
        assert!(!strict.holds(&assignment));
    }

    #[test]
    fn gcd_helper() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(13, 7), 1);
    }

    #[test]
    fn display_is_readable() {
        let mut e = LinExpr::var(1).scale(2);
        e.add_term(2, -3);
        e.add_constant(4);
        assert_eq!(format!("{e}"), "2*x1 - 3*x2 + 4");
        assert_eq!(format!("{}", LinExpr::constant(7)), "7");
    }
}
