//! First-order terms, literals and clauses.
//!
//! The translation produces, and the resolution prover takes, clauses over untyped
//! first-order terms. Variables are numbered; function and predicate symbols are named
//! strings (constants are nullary functions). Equality is the distinguished predicate
//! [`EQ`].

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

    /// Collects the variables of the atom.
    pub fn vars(&self, out: &mut Vec<u32>) {
        self.args.iter().for_each(|a| a.vars(out));
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

    /// The variables of the clause.
    pub fn vars(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for l in &self.literals {
            l.atom.vars(&mut out);
        }
        out
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
