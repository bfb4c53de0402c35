//! Cheap syntactic feature extraction for prover routing (§5.2).
//!
//! The premise of the integrated reasoning system is that each specialized logic has a
//! *syntactically recognizable* fragment: cardinality and set-algebra atoms belong to
//! BAPA, monadic membership shape and set quantifiers to MONA/WS1S, ground equality and
//! arithmetic to the SMT prover, general quantifier structure to first-order
//! resolution. This module collects those syntactic signals in **one traversal** of a
//! sequent, so a dispatcher can order (and prune) its prover cascade per obligation
//! instead of using one fixed global order.
//!
//! The extraction is deliberately shallow — counts of constants and binders, no
//! typechecking and no normalisation — because it runs on the hot path in front of
//! every prover attempt. Everything here is advisory: a router built on these counts
//! must keep the pruned provers as a fallback, since the features over-approximate
//! what each prover can actually discharge.

use crate::form::{Binder, Const, Form};
use crate::sequent::Sequent;
use crate::types::Type;

/// Syntactic features of one sequent, collected in a single traversal of its
/// assumptions and goal by [`SequentFeatures::of`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequentFeatures {
    /// `card` applications — the signature atom of the BAPA fragment.
    pub card_atoms: usize,
    /// Set-algebra constants: `Un`, `Int`, `\`, subset relations, set displays, `{}`,
    /// `UNIV` and memberships (membership is counted here *and* in
    /// [`memberships`](Self::memberships)).
    pub set_atoms: usize,
    /// Membership atoms `x : S` alone — the atom shared by the monadic (MONA) and
    /// set-algebra (BAPA) fragments.
    pub memberships: usize,
    /// Arithmetic constants: `+`, `-`, `*`, `div`, `mod`, unary minus, integer
    /// comparisons and integer literals.
    pub arith_atoms: usize,
    /// Equality applications (`=` over any type).
    pub equalities: usize,
    /// `ALL`/`EX` binders.
    pub quantifiers: usize,
    /// Higher-order binders (lambdas and set comprehensions) — outside every
    /// first-order fragment until the approximation pass rewrites them.
    pub lambdas: usize,
    /// Tuple constructions — relational (non-monadic) state such as
    /// `(k, v) : content`.
    pub tuples: usize,
    /// Field/array state operators: `fieldRead`/`fieldWrite`/`arrayRead`/`arrayWrite`.
    pub field_ops: usize,
    /// `ALL`/`EX` binders that bind a set: a variable typed `set`, or one used as the
    /// right operand of a membership in the binder's body. These are the monadic
    /// second-order quantifiers of MONA's own fragment.
    pub set_binders: usize,
}

impl SequentFeatures {
    /// Collects the features of `sequent` in one pass over its assumptions and goal.
    pub fn of(sequent: &Sequent) -> SequentFeatures {
        let mut visitor = Visitor::default();
        for assumption in &sequent.assumptions {
            visitor.visit(assumption);
        }
        visitor.visit(&sequent.goal);
        visitor.features
    }

    /// `true` when the sequent has no quantifiers or higher-order binders — the ground
    /// fragment the SMT prover decides without instantiation heuristics.
    pub fn is_ground(&self) -> bool {
        self.quantifiers == 0 && self.lambdas == 0
    }

    fn visit_const(&mut self, c: &Const) {
        match c {
            Const::Card => self.card_atoms += 1,
            Const::Elem => {
                self.memberships += 1;
                self.set_atoms += 1;
            }
            Const::Union
            | Const::Inter
            | Const::Diff
            | Const::Subset
            | Const::SubsetEq
            | Const::FiniteSet
            | Const::EmptySet
            | Const::UnivSet => self.set_atoms += 1,
            Const::Plus
            | Const::Minus
            | Const::Times
            | Const::Div
            | Const::Mod
            | Const::UMinus
            | Const::Lt
            | Const::LtEq
            | Const::Gt
            | Const::GtEq
            | Const::IntLit(_) => self.arith_atoms += 1,
            Const::Eq => self.equalities += 1,
            Const::Tuple => self.tuples += 1,
            Const::FieldRead | Const::FieldWrite | Const::ArrayRead | Const::ArrayWrite => {
                self.field_ops += 1
            }
            _ => {}
        }
    }
}

/// The state of the one traversal behind [`SequentFeatures::of`]: the counts so far,
/// and the names bound by the enclosing binders, so a membership can mark the
/// quantifier that binds its set without re-walking any binder's body.
#[derive(Default)]
struct Visitor<'f> {
    features: SequentFeatures,
    /// Each name bound by an enclosing binder, innermost last, with the index of its
    /// binder in `binds_set` (`None` for lambdas and comprehensions, which shadow
    /// names but are not quantifiers).
    scope: Vec<(&'f str, Option<usize>)>,
    /// Whether each enclosing `ALL`/`EX` binder binds a set, outermost first.
    binds_set: Vec<bool>,
}

impl<'f> Visitor<'f> {
    fn visit(&mut self, form: &'f Form) {
        match form {
            Form::Var(_) => {}
            Form::Const(c) => self.features.visit_const(c),
            Form::App(fun, args) => {
                if let (Form::Const(Const::Elem), [_, Form::Var(set)]) = (&**fun, &args[..]) {
                    self.mark_set(set);
                }
                self.visit(fun);
                for a in args {
                    self.visit(a);
                }
            }
            Form::Binder(binder, vars, body) => {
                let quantifier = matches!(binder, Binder::Forall | Binder::Exists);
                let slot = if quantifier {
                    self.features.quantifiers += 1;
                    self.binds_set
                        .push(vars.iter().any(|(_, ty)| matches!(ty, Type::Set(_))));
                    Some(self.binds_set.len() - 1)
                } else {
                    self.features.lambdas += 1;
                    None
                };
                let depth = self.scope.len();
                self.scope
                    .extend(vars.iter().map(|(name, _)| (name.as_str(), slot)));
                self.visit(body);
                self.scope.truncate(depth);
                if quantifier && self.binds_set.pop() == Some(true) {
                    self.features.set_binders += 1;
                }
            }
            Form::Typed(inner, _) => self.visit(inner),
        }
    }

    /// Marks the quantifier binding `name`, if the innermost binder of that name is
    /// one, as binding a set.
    fn mark_set(&mut self, name: &str) {
        let binder = self.scope.iter().rev().find(|(bound, _)| *bound == name);
        if let Some(&(_, Some(slot))) = binder {
            self.binds_set[slot] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;

    fn seq(assumptions: &[&str], goal: &str) -> Sequent {
        Sequent::new(
            assumptions
                .iter()
                .map(|a| parse_form(a).expect("parse"))
                .collect(),
            parse_form(goal).expect("parse"),
        )
    }

    #[test]
    fn cardinality_sequent_shows_bapa_signals() {
        let f = SequentFeatures::of(&seq(
            &["size = card content", "x ~: content"],
            "size + 1 = card (content Un {x})",
        ));
        assert_eq!(f.card_atoms, 2);
        assert!(f.set_atoms >= 2, "membership + union + display: {f:?}");
        assert!(f.arith_atoms >= 1);
        assert!(f.is_ground());
    }

    #[test]
    fn monadic_sequent_shows_membership_and_quantifier_signals() {
        let f = SequentFeatures::of(&seq(
            &["ALL x. x : nodes --> x : alloc", "n : nodes"],
            "n : alloc",
        ));
        assert_eq!(f.quantifiers, 1);
        assert_eq!(f.memberships, 4);
        assert_eq!(f.card_atoms, 0);
        assert_eq!(f.arith_atoms, 0);
        assert_eq!(f.tuples, 0);
    }

    #[test]
    fn relational_membership_counts_tuples() {
        let f = SequentFeatures::of(&seq(&[], "(k, v) : content"));
        assert_eq!(f.tuples, 1);
        assert_eq!(f.memberships, 1);
    }

    #[test]
    fn ground_arith_is_ground_and_arithmetical() {
        let f = SequentFeatures::of(&seq(&["x = y + 1", "0 <= y"], "1 <= x"));
        assert!(f.is_ground());
        assert!(f.arith_atoms >= 3, "{f:?}");
        assert_eq!(f.set_atoms, 0);
        assert_eq!(f.card_atoms, 0);
    }

    #[test]
    fn propositional_sequent_is_propositional() {
        let f = SequentFeatures::of(&seq(&["p & q"], "q"));
        assert!(f.is_ground());
    }

    #[test]
    fn set_binders_are_counted_by_type_and_by_membership_use() {
        // Typed as a set, and inferred from `x : s`: both count.
        let f = SequentFeatures::of(&seq(
            &["ALL (t::obj set). t = t"],
            "EX s. ALL x. (x : a --> x : s) & (x : s --> x : f)",
        ));
        assert_eq!(f.set_binders, 2, "{f:?}");
        assert_eq!(f.quantifiers, 3);
        // A binder over objects only, and a free set variable, count nothing.
        let f = SequentFeatures::of(&seq(&["ALL x. x : nodes --> x : alloc"], "n : nodes"));
        assert_eq!(f.set_binders, 0, "{f:?}");
        // An inner lambda shadows the quantified name, so its membership marks nothing.
        let f = SequentFeatures::of(&seq(&[], "ALL s. (% s. x : s) = g"));
        assert_eq!(f.set_binders, 0, "{f:?}");
    }

    #[test]
    fn reachability_and_comprehension_are_detected() {
        let f = SequentFeatures::of(&seq(
            &["rtrancl_pt (% x y. x..next = y) root n"],
            "n : {z. z : nodes}",
        ));
        assert!(f.lambdas >= 2, "lambda + comprehension: {f:?}");
        assert!(!f.is_ground());
    }
}
