//! Cheap syntactic feature extraction for prover routing (§5.2).
//!
//! The premise of the integrated reasoning system is that each specialized logic has a
//! *syntactically recognizable* fragment: cardinality and set-algebra atoms belong to
//! BAPA, monadic membership/reachability shape to MONA/WS1S, ground equality and
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
    /// Reachability and shape atoms: `rtrancl_pt` and `tree [...]` — MONA's specialty.
    pub reachability_atoms: usize,
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
    /// Total node count of the sequent (assumptions + goal).
    pub size: usize,
}

impl SequentFeatures {
    /// Collects the features of `sequent` in one pass over its assumptions and goal.
    pub fn of(sequent: &Sequent) -> SequentFeatures {
        let mut features = SequentFeatures::default();
        for assumption in &sequent.assumptions {
            features.visit(assumption);
        }
        features.visit(&sequent.goal);
        features
    }

    /// Collects the features of a single formula (used by tests and by callers that
    /// score goals separately from assumptions).
    pub fn of_form(form: &Form) -> SequentFeatures {
        let mut features = SequentFeatures::default();
        features.visit(form);
        features
    }

    /// `true` when the sequent is pure propositional/equational structure: no sets,
    /// no arithmetic, no quantifiers, no reachability, no field state.
    pub fn is_propositional(&self) -> bool {
        self.card_atoms == 0
            && self.set_atoms == 0
            && self.arith_atoms == 0
            && self.reachability_atoms == 0
            && self.quantifiers == 0
            && self.lambdas == 0
            && self.field_ops == 0
    }

    /// `true` when the sequent has no quantifiers or higher-order binders — the ground
    /// fragment the SMT prover decides without instantiation heuristics.
    pub fn is_ground(&self) -> bool {
        self.quantifiers == 0 && self.lambdas == 0
    }

    /// The coarse discrete [`FeatureBucket`] this sequent's features fall into.
    pub fn bucket(&self) -> FeatureBucket {
        let mut bits = 0u8;
        if self.card_atoms > 0 {
            bits |= FeatureBucket::CARD;
        }
        if self.set_atoms > 0 {
            bits |= FeatureBucket::SETS;
        }
        if self.arith_atoms > 0 {
            bits |= FeatureBucket::ARITH;
        }
        if self.reachability_atoms > 0 {
            bits |= FeatureBucket::REACH;
        }
        if self.quantifiers > 0 {
            bits |= FeatureBucket::QUANT;
        }
        if self.lambdas + self.tuples > 0 {
            bits |= FeatureBucket::HIGHER;
        }
        FeatureBucket::from_bits(bits)
    }

    fn visit(&mut self, form: &Form) {
        self.size += 1;
        match form {
            Form::Var(_) => {}
            Form::Const(c) => self.visit_const(c),
            Form::App(fun, args) => {
                self.visit(fun);
                for a in args {
                    self.visit(a);
                }
            }
            Form::Binder(binder, vars, body) => {
                self.size += vars.len();
                match binder {
                    Binder::Forall | Binder::Exists => self.quantifiers += 1,
                    Binder::Lambda | Binder::Comprehension => self.lambdas += 1,
                }
                self.visit(body);
            }
            Form::Typed(inner, _) => {
                // `size` counts the ascription node itself; the payload is recursive.
                self.visit(inner);
            }
        }
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
            Const::Rtrancl | Const::Tree => self.reachability_atoms += 1,
            Const::Tuple => self.tuples += 1,
            Const::FieldRead | Const::FieldWrite | Const::ArrayRead | Const::ArrayWrite => {
                self.field_ops += 1
            }
            _ => {}
        }
    }
}

/// A coarse discretisation of [`SequentFeatures`]: six presence bits (cardinality,
/// set algebra, arithmetic, reachability, quantifiers, higher-order/relational
/// structure) give 64 buckets — fine enough to separate the fragments the routing
/// decision hinges on.
///
/// Buckets have a stable, human-readable tag (`card+set+arith`, `plain` for the empty
/// bucket) that round-trips through [`FeatureBucket::from_tag`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FeatureBucket(u8);

impl FeatureBucket {
    /// Sequent contains `card` atoms.
    pub const CARD: u8 = 1 << 0;
    /// Sequent contains set-algebra atoms (unions, memberships, displays…).
    pub const SETS: u8 = 1 << 1;
    /// Sequent contains arithmetic atoms.
    pub const ARITH: u8 = 1 << 2;
    /// Sequent contains reachability/shape atoms (`rtrancl_pt`, `tree`).
    pub const REACH: u8 = 1 << 3;
    /// Sequent contains `ALL`/`EX` binders.
    pub const QUANT: u8 = 1 << 4;
    /// Sequent contains lambdas, comprehensions or tuples.
    pub const HIGHER: u8 = 1 << 5;

    const ALL: u8 =
        Self::CARD | Self::SETS | Self::ARITH | Self::REACH | Self::QUANT | Self::HIGHER;
    const NAMES: [(u8, &'static str); 6] = [
        (Self::CARD, "card"),
        (Self::SETS, "set"),
        (Self::ARITH, "arith"),
        (Self::REACH, "reach"),
        (Self::QUANT, "quant"),
        (Self::HIGHER, "ho"),
    ];

    /// Builds a bucket from raw presence bits; bits outside the six defined signals
    /// are masked off, so every `u8` maps to a valid bucket.
    pub fn from_bits(bits: u8) -> FeatureBucket {
        FeatureBucket(bits & Self::ALL)
    }

    /// The raw presence bits.
    pub fn bits(&self) -> u8 {
        self.0
    }

    /// The stable textual tag: `+`-joined signal names in declaration order, or
    /// `plain` for the empty bucket (a propositional/equational sequent).
    pub fn tag(&self) -> String {
        let names: Vec<&str> = Self::NAMES
            .iter()
            .filter(|(bit, _)| self.0 & bit != 0)
            .map(|(_, name)| *name)
            .collect();
        if names.is_empty() {
            "plain".to_string()
        } else {
            names.join("+")
        }
    }

    /// Parses a tag produced by [`FeatureBucket::tag`]. Returns `None` for unknown
    /// signal names, so tags from future bucket schemas are rejected rather than
    /// silently misfiled.
    pub fn from_tag(tag: &str) -> Option<FeatureBucket> {
        if tag == "plain" {
            return Some(FeatureBucket(0));
        }
        let mut bits = 0u8;
        for part in tag.split('+') {
            let (bit, _) = Self::NAMES.iter().find(|(_, name)| *name == part)?;
            bits |= bit;
        }
        Some(FeatureBucket(bits))
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
        assert!(!f.is_propositional());
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
        assert!(f.is_propositional());
        assert!(f.is_ground());
    }

    #[test]
    fn reachability_and_comprehension_are_detected() {
        let f = SequentFeatures::of(&seq(
            &["rtrancl_pt (% x y. x..next = y) root n"],
            "n : {z. z : nodes}",
        ));
        assert_eq!(f.reachability_atoms, 1);
        assert!(f.lambdas >= 2, "lambda + comprehension: {f:?}");
        assert!(!f.is_ground());
    }

    #[test]
    fn buckets_separate_the_fragments() {
        let card = SequentFeatures::of(&seq(&["size = card content"], "size >= 0")).bucket();
        let reach =
            SequentFeatures::of(&seq(&["rtrancl_pt (% x y. x..next = y) root n"], "p")).bucket();
        let plain = SequentFeatures::of(&seq(&["p & q"], "q")).bucket();
        assert_ne!(card, reach);
        assert_ne!(card, plain);
        assert_eq!(plain, FeatureBucket::from_bits(0));
        assert_ne!(card.bits() & FeatureBucket::CARD, 0);
        assert_ne!(reach.bits() & FeatureBucket::REACH, 0);
    }

    #[test]
    fn bucket_tags_round_trip() {
        for bits in 0u8..64 {
            let bucket = FeatureBucket::from_bits(bits);
            assert_eq!(
                FeatureBucket::from_tag(&bucket.tag()),
                Some(bucket),
                "tag {:?} failed to round-trip",
                bucket.tag()
            );
        }
        assert_eq!(FeatureBucket::from_bits(0).tag(), "plain");
        assert_eq!(FeatureBucket::from_tag("no-such-signal"), None);
        assert_eq!(FeatureBucket::from_tag("card+bogus"), None);
    }

    #[test]
    fn out_of_range_bits_are_masked() {
        assert_eq!(
            FeatureBucket::from_bits(0xFF),
            FeatureBucket::from_bits(0x3F)
        );
    }

    #[test]
    fn size_grows_with_the_sequent() {
        let small = SequentFeatures::of(&seq(&[], "p"));
        let large = SequentFeatures::of(&seq(&["p & q & r", "s | t"], "p & s"));
        assert!(small.size < large.size);
    }
}
