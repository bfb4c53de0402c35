//! The polarity approximation of Figure 14 on the bank, one mechanism for every
//! prover's fragment.
//!
//! Each specialised prover accepts only a fragment of higher-order logic. To use such a
//! prover soundly, Jahob replaces each atom outside the fragment with the strongest
//! formula at its polarity: `False` in a positive position, `True` in a negative one.
//! Proving the approximation then proves the original formula. Connectives and
//! quantifiers are kept; `<->` is split into two implications so that each side has a
//! definite polarity.
//!
//! A [`Fragment`] names the atoms a prover keeps. [`Bank::approximate`] is memoised per
//! fragment, node and polarity, so a formula shared by the sequents of one bank is
//! approximated once for each prover that reads it. The SMT and FOL front end rewrites
//! a formula before approximating it ([`Bank::first_order_implication`]); MONA and BAPA
//! run their own preparation on the bank and then [`Bank::approximate_implication`].

use super::{Bank, Node, NodeId, NodeMemo};
use crate::form::{Binder, Const};

/// The atoms a prover's fragment keeps; every other atom is approximated away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fragment {
    /// SMT's and FOL's: no `card`, `tree`, `old` or comprehension, and no lambda
    /// outside an `rtrancl_pt` atom.
    FirstOrder,
    /// MONA's monadic atoms: an equality between two elements (object variables or
    /// `null`) or two set variables, an element's membership in a set variable, and
    /// `subseteq` between set variables.
    Monadic,
    /// BAPA's: comparisons of linear integer terms and set-algebra terms (`card` of a
    /// set term included), an element's membership in a set term, and inclusion
    /// between set terms. A set term is built from variables, `{}`, `UNIV`, `Un`,
    /// `Int`, difference and finite sets of elements.
    Bapa,
}

/// The approximation memos: per fragment, the approximation of a node, negative then
/// positive.
#[derive(Debug, Clone, Default)]
pub(super) struct ApproxMemo {
    approximated: [[NodeMemo; 2]; 3],
    /// Which constants and binders a node contains ([`Bank::contents`]).
    contents: Vec<u8>,
}

const UNKNOWN: u8 = u8::MAX;
/// [`Bank::contents`]: a `card`, `tree` or `old` constant.
const UNSUPPORTED_CONST: u8 = 1;
/// [`Bank::contents`]: a comprehension.
const COMPREHENSION: u8 = 2;
/// [`Bank::contents`]: a lambda.
const LAMBDA: u8 = 4;
/// [`Bank::contents`]: a universal or existential quantifier.
const QUANTIFIER: u8 = 8;

impl Bank {
    /// Which of `card`, `tree` and `old`, comprehensions, lambdas and quantifiers a
    /// node contains, as bits, memoised per node.
    fn contents(&mut self, id: NodeId) -> u8 {
        let i = id.index();
        if let Some(&known) = self.approx.contents.get(i) {
            if known != UNKNOWN {
                return known;
            }
        }
        let bits = match self.node(id).clone() {
            Node::Var(_) => 0,
            Node::Const(Const::Card | Const::Tree | Const::Old) => UNSUPPORTED_CONST,
            Node::Const(_) => 0,
            Node::App(f, args) => {
                let mut bits = self.contents(f);
                for a in args.iter() {
                    bits |= self.contents(*a);
                }
                bits
            }
            Node::Binder(b, _, body) => {
                let own = match b {
                    Binder::Comprehension => COMPREHENSION,
                    Binder::Lambda => LAMBDA,
                    Binder::Forall | Binder::Exists => QUANTIFIER,
                };
                own | self.contents(body)
            }
            Node::Typed(f, _) => self.contents(f),
        };
        let memo = &mut self.approx.contents;
        if memo.len() <= i {
            memo.resize(i + 1, UNKNOWN);
        }
        memo[i] = bits;
        bits
    }

    /// Whether a node contains a universal or existential quantifier, as
    /// [`crate::form::Form::contains_binder`] of either.
    pub fn has_quantifier(&mut self, id: NodeId) -> bool {
        self.contents(id) & QUANTIFIER != 0
    }

    /// Whether `fragment` keeps an atom.
    fn keeps(&mut self, fragment: Fragment, id: NodeId) -> bool {
        match fragment {
            Fragment::FirstOrder => {
                let bits = self.contents(id);
                bits & (UNSUPPORTED_CONST | COMPREHENSION) == 0
                    && (bits & LAMBDA == 0 || self.as_app_of(id, &Const::Rtrancl).is_some())
            }
            Fragment::Monadic => self.monadic_atom(id),
            Fragment::Bapa => self.bapa_atom(id),
        }
    }

    /// An object variable or `null`.
    fn is_element(&self, id: NodeId) -> bool {
        matches!(self.node(id), Node::Var(_) | Node::Const(Const::Null))
    }

    fn is_var(&self, id: NodeId) -> bool {
        matches!(self.node(id), Node::Var(_))
    }

    fn monadic_atom(&self, id: NodeId) -> bool {
        let Node::App(head, args) = self.node(id) else {
            return false;
        };
        match (self.node(*head), &args[..]) {
            (Node::Const(Const::Eq), &[l, r]) => {
                (self.is_element(l) && self.is_element(r)) || (self.is_var(l) && self.is_var(r))
            }
            (Node::Const(Const::Elem), &[e, s]) => self.is_element(e) && self.is_var(s),
            (Node::Const(Const::SubsetEq), &[l, r]) => self.is_var(l) && self.is_var(r),
            _ => false,
        }
    }

    fn bapa_atom(&self, id: NodeId) -> bool {
        let Node::App(head, args) = self.node(id) else {
            return false;
        };
        match self.node(*head) {
            Node::Const(Const::Eq | Const::Lt | Const::LtEq | Const::Gt | Const::GtEq) => args
                .iter()
                .all(|a| self.is_int_term(*a) || self.is_set_term(*a)),
            Node::Const(Const::Elem) => {
                args.len() == 2 && self.is_element(args[0]) && self.is_set_term(args[1])
            }
            Node::Const(Const::SubsetEq | Const::Subset) => {
                args.iter().all(|a| self.is_set_term(*a))
            }
            _ => false,
        }
    }

    /// A linear integer term of BAPA: variables, literals, `+`, `-`, unary minus and
    /// `card` of a set term.
    fn is_int_term(&self, id: NodeId) -> bool {
        match self.node(id) {
            Node::Var(_) | Node::Const(Const::IntLit(_)) => true,
            Node::App(head, args) => match self.node(*head) {
                Node::Const(Const::Plus | Const::Minus | Const::UMinus) => {
                    args.iter().all(|a| self.is_int_term(*a))
                }
                Node::Const(Const::Card) => args.len() == 1 && self.is_set_term(args[0]),
                _ => false,
            },
            _ => false,
        }
    }

    /// A set term of BAPA.
    fn is_set_term(&self, id: NodeId) -> bool {
        match self.node(id) {
            Node::Var(_) | Node::Const(Const::EmptySet | Const::UnivSet) => true,
            Node::App(head, args) => match self.node(*head) {
                Node::Const(Const::Union | Const::Inter | Const::Diff | Const::Minus) => {
                    args.iter().all(|a| self.is_set_term(*a))
                }
                Node::Const(Const::FiniteSet) => args.iter().all(|a| self.is_element(*a)),
                _ => false,
            },
            _ => false,
        }
    }

    /// Approximates a formula at a polarity (`positive` or not) by a stronger formula
    /// whose every atom `fragment` keeps, memoised per fragment, node and polarity.
    pub fn approximate(&mut self, id: NodeId, fragment: Fragment, positive: bool) -> NodeId {
        let memo = fragment as usize;
        if let Some(done) = self.approx.approximated[memo][positive as usize].get(id) {
            return done;
        }
        let out = match self.node(id).clone() {
            Node::Const(Const::BoolLit(_)) => id,
            Node::App(fun, args) => match (self.node(fun).clone(), &args[..]) {
                (Node::Const(c @ (Const::And | Const::Or)), _) => {
                    let parts = args
                        .iter()
                        .map(|a| self.approximate(*a, fragment, positive))
                        .collect();
                    self.junction(c == Const::And, parts)
                }
                (Node::Const(Const::Not), &[f]) => {
                    let inner = self.approximate(f, fragment, !positive);
                    self.not(inner)
                }
                (Node::Const(Const::Impl), &[l, r]) => {
                    let l = self.approximate(l, fragment, !positive);
                    let r = self.approximate(r, fragment, positive);
                    self.implies(l, r)
                }
                (Node::Const(Const::Iff), &[l, r]) => {
                    let forward = self.implies(l, r);
                    let backward = self.implies(r, l);
                    let both = self.and(vec![forward, backward]);
                    self.approximate(both, fragment, positive)
                }
                (Node::Const(Const::Comment(_)), &[f]) => {
                    let inner = self.approximate(f, fragment, positive);
                    self.app(fun, vec![inner])
                }
                _ => self.approximate_atom(id, fragment, positive),
            },
            Node::Binder(b @ (Binder::Forall | Binder::Exists), vars, body) => {
                let body = self.approximate(body, fragment, positive);
                self.quantify(b, &vars, body)
            }
            _ => self.approximate_atom(id, fragment, positive),
        };
        self.approx.approximated[memo][positive as usize].set(id, out);
        out
    }

    /// An atom kept, or the strongest formula at its polarity.
    fn approximate_atom(&mut self, id: NodeId, fragment: Fragment, positive: bool) -> NodeId {
        if self.keeps(fragment, id) {
            id
        } else {
            self.bool_lit(!positive)
        }
    }

    /// Approximates a sequent-shaped implication: each assumption in a negative
    /// position, dropped when it becomes `True`, and the goal in a positive one.
    pub fn approximate_implication(
        &mut self,
        assumptions: &[NodeId],
        goal: NodeId,
        fragment: Fragment,
    ) -> (Vec<NodeId>, NodeId) {
        let mut kept = Vec::with_capacity(assumptions.len());
        for a in assumptions {
            let approximated = self.approximate(*a, fragment, false);
            if !self.is_true(approximated) {
                kept.push(approximated);
            }
        }
        (kept, self.approximate(goal, fragment, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::form::Form;
    use crate::parser::parse_form;

    /// The monadic approximation of `text` at a polarity, printed.
    fn monadic(text: &str, positive: bool) -> String {
        let mut bank = Bank::new();
        let id = bank.intern(&parse_form(text).expect("parse"));
        let out = bank.approximate(id, Fragment::Monadic, positive);
        bank.materialise(out).to_string()
    }

    #[test]
    fn unsupported_positive_atom_becomes_false() {
        // `x : s` is monadic and stays; `card s = n` becomes `False`.
        assert_eq!(monadic("card s = n | x : s", true), "x : s");
    }

    #[test]
    fn unsupported_negative_atom_becomes_true_and_vanishes() {
        // The unsupported assumption is dropped, leaving a stronger formula.
        assert_eq!(monadic("size < 3 --> x : s", true), "x : s");
    }

    #[test]
    fn negation_flips_polarity() {
        // Inside the negation the atom is negative, so it becomes `True`, and the
        // whole formula `False` (stronger than the original).
        assert_eq!(monadic("~(card s = 0)", true), "False");
        assert_eq!(monadic("~(card s = 0)", false), "True");
    }

    #[test]
    fn quantifiers_are_preserved() {
        assert_eq!(monadic("ALL x. x : s | x..next = y", true), "ALL x. x : s");
    }

    #[test]
    fn iff_is_expanded_for_polarity() {
        let split = monadic("x : s <-> size = 0", true);
        assert!(!split.contains("<->") && !split.contains("size"), "{split}");
    }

    #[test]
    fn approximate_implication_drops_unsupported_assumptions() {
        let mut bank = Bank::new();
        let mut intern = |text: &str| bank.intern(&parse_form(text).expect("parse"));
        let (asms, goal) = (vec![intern("size = 1"), intern("x : s")], intern("x : t"));
        let (kept, goal) = bank.approximate_implication(&asms, goal, Fragment::Monadic);
        assert_eq!(kept.len(), 1);
        assert_eq!(bank.materialise(kept[0]).to_string(), "x : s");
        assert_eq!(bank.materialise(goal).to_string(), "x : t");
        let quantified = bank.intern(&parse_form("p & (EX y. y : s)").expect("parse"));
        assert!(bank.has_quantifier(quantified) && !bank.has_quantifier(goal));
    }

    /// Each fragment keeps its own atoms; an atom it does not keep becomes the
    /// strongest formula at its polarity.
    #[test]
    fn strongest_formulas_by_polarity() {
        let mut bank = Bank::new();
        let mut approximate = |text: &str, fragment, positive| {
            let id = bank.intern(&parse_form(text).expect("parse"));
            let out = bank.approximate(id, fragment, positive);
            bank.materialise(out)
        };
        let card = "card (a Un b) = n + 1";
        assert_eq!(approximate(card, Fragment::FirstOrder, true), Form::ff());
        assert_eq!(approximate(card, Fragment::Monadic, false), Form::tt());
        assert_eq!(
            approximate(card, Fragment::Bapa, true),
            parse_form(card).unwrap()
        );
        let field = "x..next : s";
        assert_eq!(
            approximate(field, Fragment::FirstOrder, true),
            parse_form(field).unwrap()
        );
        assert_eq!(approximate(field, Fragment::Monadic, true), Form::ff());
        assert_eq!(approximate(field, Fragment::Bapa, false), Form::tt());
    }
}
