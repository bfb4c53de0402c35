//! First-order terms, literals, clauses and unification.
//!
//! The resolution prover works on clauses over untyped first-order terms. Variables are
//! numbered; function and predicate symbols are named strings (constants are nullary
//! functions). Equality is the distinguished predicate [`EQ`].

use std::collections::BTreeMap;
use std::fmt;

/// The distinguished equality predicate symbol.
pub const EQ: &str = "=";

/// A first-order term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable (implicitly universally quantified at the clause level).
    Var(u32),
    /// Application of a function symbol (constants have no arguments).
    App(String, Vec<Term>),
}

impl Term {
    /// A constant (nullary function symbol).
    pub fn constant(name: impl Into<String>) -> Term {
        Term::App(name.into(), Vec::new())
    }

    /// Collects the variables of the term into `out`.
    pub fn vars(&self, out: &mut Vec<u32>) {
        match self {
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Term::App(_, args) => args.iter().for_each(|a| a.vars(out)),
        }
    }

    /// The number of symbols in the term.
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) => 1,
            Term::App(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
        }
    }

    /// Applies a substitution, following binding chains so that a variable bound to
    /// another bound variable resolves all the way to its final value (unification
    /// produces acyclic bindings, so the recursion terminates).
    pub fn apply(&self, subst: &Subst) -> Term {
        match self {
            Term::Var(v) => match subst.get(v) {
                Some(t) => t.apply(subst),
                None => self.clone(),
            },
            Term::App(f, args) => {
                Term::App(f.clone(), args.iter().map(|a| a.apply(subst)).collect())
            }
        }
    }

    /// Renames every variable by adding `offset`.
    pub fn shift_vars(&self, offset: u32) -> Term {
        match self {
            Term::Var(v) => Term::Var(v + offset),
            Term::App(f, args) => Term::App(
                f.clone(),
                args.iter().map(|a| a.shift_vars(offset)).collect(),
            ),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "X{v}"),
            Term::App(name, args) => {
                write!(f, "{name}")?;
                if !args.is_empty() {
                    write!(f, "(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

/// A substitution mapping variables to terms.
pub type Subst = BTreeMap<u32, Term>;

/// An atom: a predicate applied to terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// Predicate symbol.
    pub pred: String,
    /// Arguments.
    pub args: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(pred: impl Into<String>, args: Vec<Term>) -> Atom {
        Atom {
            pred: pred.into(),
            args,
        }
    }

    /// An equality atom.
    pub fn eq(lhs: Term, rhs: Term) -> Atom {
        Atom::new(EQ, vec![lhs, rhs])
    }

    /// Applies a substitution.
    pub fn apply(&self, subst: &Subst) -> Atom {
        Atom {
            pred: self.pred.clone(),
            args: self.args.iter().map(|a| a.apply(subst)).collect(),
        }
    }

    /// Renames every variable by adding `offset`.
    pub fn shift_vars(&self, offset: u32) -> Atom {
        Atom {
            pred: self.pred.clone(),
            args: self.args.iter().map(|a| a.shift_vars(offset)).collect(),
        }
    }

    /// Collects the variables of the atom.
    pub fn vars(&self, out: &mut Vec<u32>) {
        self.args.iter().for_each(|a| a.vars(out));
    }

    /// The number of symbols in the atom.
    pub fn size(&self) -> usize {
        1 + self.args.iter().map(Term::size).sum::<usize>()
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pred == EQ && self.args.len() == 2 {
            write!(f, "{} = {}", self.args[0], self.args[1])
        } else {
            write!(f, "{}", Term::App(self.pred.clone(), self.args.clone()))
        }
    }
}

/// A literal: an atom or its negation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// `true` for a positive literal.
    pub positive: bool,
    /// The underlying atom.
    pub atom: Atom,
}

impl Literal {
    /// A positive literal.
    pub fn pos(atom: Atom) -> Literal {
        Literal {
            positive: true,
            atom,
        }
    }

    /// A negative literal.
    pub fn neg(atom: Atom) -> Literal {
        Literal {
            positive: false,
            atom,
        }
    }

    /// Applies a substitution.
    pub fn apply(&self, subst: &Subst) -> Literal {
        Literal {
            positive: self.positive,
            atom: self.atom.apply(subst),
        }
    }

    /// Renames every variable by adding `offset`.
    pub fn shift_vars(&self, offset: u32) -> Literal {
        Literal {
            positive: self.positive,
            atom: self.atom.shift_vars(offset),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "{}", self.atom)
        } else {
            write!(f, "~{}", self.atom)
        }
    }
}

/// A clause: a disjunction of literals (the empty clause is a contradiction).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Clause {
    /// The literals of the clause.
    pub literals: Vec<Literal>,
}

impl Clause {
    /// Creates a clause, removing duplicate literals.
    pub fn new(mut literals: Vec<Literal>) -> Clause {
        literals.sort();
        literals.dedup();
        Clause { literals }
    }

    /// The empty clause (a contradiction).
    pub fn empty() -> Clause {
        Clause {
            literals: Vec::new(),
        }
    }

    /// Whether the clause is empty.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Whether the clause is a tautology (contains complementary or trivially true
    /// literals).
    pub fn is_tautology(&self) -> bool {
        for l in &self.literals {
            if l.positive
                && l.atom.pred == EQ
                && l.atom.args.len() == 2
                && l.atom.args[0] == l.atom.args[1]
            {
                return true;
            }
            if l.positive
                && self
                    .literals
                    .iter()
                    .any(|m| !m.positive && m.atom == l.atom)
            {
                return true;
            }
        }
        false
    }

    /// The number of symbols in the clause.
    pub fn size(&self) -> usize {
        self.literals.iter().map(|l| l.atom.size()).sum()
    }

    /// The variables of the clause.
    pub fn vars(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for l in &self.literals {
            l.atom.vars(&mut out);
        }
        out
    }

    /// Applies a substitution.
    pub fn apply(&self, subst: &Subst) -> Clause {
        Clause::new(self.literals.iter().map(|l| l.apply(subst)).collect())
    }

    /// Renames variables so they do not collide with clauses using variables below
    /// `offset`.
    pub fn shift_vars(&self, offset: u32) -> Clause {
        Clause {
            literals: self.literals.iter().map(|l| l.shift_vars(offset)).collect(),
        }
    }

    /// The largest variable index occurring in the clause plus one.
    pub fn var_bound(&self) -> u32 {
        self.vars().into_iter().max().map_or(0, |v| v + 1)
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.literals.is_empty() {
            return write!(f, "[]");
        }
        for (i, l) in self.literals.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------- unification

/// Unifies two terms under an existing substitution, extending it on success.
pub fn unify_terms(a: &Term, b: &Term, subst: &mut Subst) -> bool {
    let a = walk(a, subst);
    let b = walk(b, subst);
    match (&a, &b) {
        (Term::Var(x), Term::Var(y)) if x == y => true,
        (Term::Var(x), t) | (t, Term::Var(x)) => {
            if occurs(*x, t, subst) {
                false
            } else {
                subst.insert(*x, t.clone());
                true
            }
        }
        (Term::App(f, fa), Term::App(g, ga)) => {
            if f != g || fa.len() != ga.len() {
                return false;
            }
            fa.iter()
                .zip(ga.iter())
                .all(|(x, y)| unify_terms(x, y, subst))
        }
    }
}

/// Unifies two atoms.
pub fn unify_atoms(a: &Atom, b: &Atom, subst: &mut Subst) -> bool {
    a.pred == b.pred
        && a.args.len() == b.args.len()
        && a.args
            .iter()
            .zip(b.args.iter())
            .all(|(x, y)| unify_terms(x, y, subst))
}

fn walk(t: &Term, subst: &Subst) -> Term {
    match t {
        Term::Var(v) => match subst.get(v) {
            Some(bound) => walk(bound, subst),
            None => t.clone(),
        },
        _ => t.clone(),
    }
}

fn occurs(v: u32, t: &Term, subst: &Subst) -> bool {
    match walk(t, subst) {
        Term::Var(w) => v == w,
        Term::App(_, args) => args.iter().any(|a| occurs(v, a, subst)),
    }
}

/// Matches `pattern` against `target` (one-way unification), extending `subst`.
pub fn match_terms(pattern: &Term, target: &Term, subst: &mut Subst) -> bool {
    match pattern {
        Term::Var(v) => match subst.get(v) {
            Some(bound) => bound == target,
            None => {
                subst.insert(*v, target.clone());
                true
            }
        },
        Term::App(f, fa) => match target {
            Term::App(g, ga) if f == g && fa.len() == ga.len() => fa
                .iter()
                .zip(ga.iter())
                .all(|(p, t)| match_terms(p, t, subst)),
            _ => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(f("g", vec![v(0)]).apply(&s), f("g", vec![c("a")]));
        assert_eq!(f("g", vec![v(1)]).apply(&s), f("g", vec![c("a")]));
    }

    #[test]
    fn clause_dedups_and_detects_tautologies() {
        let a = Atom::new("p", vec![c("x")]);
        let cl = Clause::new(vec![Literal::pos(a.clone()), Literal::pos(a.clone())]);
        assert_eq!(cl.literals.len(), 1);
        let taut = Clause::new(vec![Literal::pos(a.clone()), Literal::neg(a)]);
        assert!(taut.is_tautology());
        let refl = Clause::new(vec![Literal::pos(Atom::eq(c("a"), c("a")))]);
        assert!(refl.is_tautology());
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

    #[test]
    fn display_formats() {
        let cl = Clause::new(vec![
            Literal::neg(Atom::new("Node", vec![v(0)])),
            Literal::pos(Atom::eq(f("next", vec![v(0)]), c("null"))),
        ]);
        let text = cl.to_string();
        assert!(text.contains("~Node(X0)"));
        assert!(text.contains("next(X0) = null"));
    }
}
