//! # jahob-folp
//!
//! A from-scratch first-order resolution prover playing the role of SPASS and E in the
//! Jahob reproduction (§6.2 of *Full Functional Verification of Linked Data Structures*,
//! PLDI 2008).
//!
//! The crate has three layers:
//!
//! * [`fol`] — first-order terms, literals and clauses;
//! * [`translate`] — the Jahob-style translation from higher-order sequents to clauses
//!   (set memberships become predicates, transitive closure becomes an axiomatised
//!   reachability predicate, unsupported constructs are approximated away by polarity,
//!   and a clause with an atom that has no translation is dropped). The rewriting, the
//!   approximation and the negation normal form run on a formula bank, the
//!   clausification on formulas;
//! * [`resolution`] — a given-clause saturation loop with binary resolution, factoring
//!   and subsumption, run on a flat kernel: symbols interned once per run, each clause
//!   a run of `u32` cells, unification in place on a binding trail.
//!
//! The convenience function [`prove_sequent`] runs the full pipeline on a fresh bank and
//! reports whether the sequent was proved; [`prove_interned`] runs it on the
//! dispatcher's bank.
//!
//! # Example
//!
//! ```
//! use jahob_folp::{prove_sequent, FolOptions};
//! use jahob_logic::{parse_form, Sequent};
//!
//! let sequent = Sequent::new(
//!     vec![parse_form("ALL x. x : Node --> x..next : Node").unwrap(),
//!          parse_form("n : Node").unwrap()],
//!     parse_form("n..next : Node").unwrap(),
//! );
//! assert!(prove_sequent(&sequent, &FolOptions::default()).proved);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fol;
pub mod resolution;
pub mod translate;

pub use fol::{Atom, Clause, Literal, Term};
pub use resolution::{saturate, ResolutionLimits, ResolutionOutcome, ResolutionStats};
pub use translate::{
    implication_to_clauses, interned_to_clauses, sequent_to_clauses, TranslateOptions,
    TranslationOverflow,
};

use jahob_logic::bank::{Bank, InternedSequent};
use jahob_logic::Sequent;

/// Options for the end-to-end first-order prover.
#[derive(Debug, Clone, Default)]
pub struct FolOptions {
    /// Translation options (set/field variable declarations, clause budget).
    pub translate: TranslateOptions,
    /// Saturation limits.
    pub limits: ResolutionLimits,
}

/// Result of an end-to-end proof attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FolResult {
    /// `true` if the sequent was proved valid.
    pub proved: bool,
    /// The saturation outcome (or `None` if translation overflowed).
    pub outcome: Option<ResolutionOutcome>,
    /// Saturation statistics.
    pub stats: ResolutionStats,
}

impl FolResult {
    /// `true` when the attempt stopped on its iteration or clause limit rather than
    /// reaching saturation or a proof — the verdict is
    /// *unknown*, and a caller running with deliberately reduced
    /// [`ResolutionLimits`] as a fuel budget should treat the attempt as aborted,
    /// not failed. A translation overflow (`outcome == None`) is a genuine
    /// rejection: larger saturation limits cannot help a sequent that never
    /// produced clauses.
    pub fn resource_limited(&self) -> bool {
        self.outcome == Some(ResolutionOutcome::ResourceLimit)
    }

    /// `true` when the attempt stopped because it passed a wall-clock limit
    /// ([`ResolutionLimits::max_millis`] or [`ResolutionLimits::deadline`]) — also an
    /// unknown verdict, but attributed to time rather than fuel.
    pub fn deadline_exceeded(&self) -> bool {
        self.outcome == Some(ResolutionOutcome::DeadlineLimit)
    }
}

/// Translates a sequent to clauses and attempts to refute them.
pub fn prove_sequent(sequent: &Sequent, options: &FolOptions) -> FolResult {
    refute(sequent_to_clauses(sequent, &options.translate), options)
}

/// [`prove_sequent`] of a sequent in `bank` ([`interned_to_clauses`]), reading the
/// approximation and the negation normal forms memoised there.
pub fn prove_interned(
    bank: &mut Bank,
    sequent: &InternedSequent,
    options: &FolOptions,
) -> FolResult {
    refute(
        interned_to_clauses(bank, sequent, &options.translate),
        options,
    )
}

/// Saturates a translation's clauses.
fn refute(clauses: Result<Vec<Clause>, TranslationOverflow>, options: &FolOptions) -> FolResult {
    match clauses {
        Ok(clauses) => {
            let (outcome, stats) = saturate(&clauses, options.limits);
            FolResult {
                proved: outcome == ResolutionOutcome::Proved,
                outcome: Some(outcome),
                stats,
            }
        }
        Err(TranslationOverflow) => FolResult {
            proved: false,
            outcome: None,
            stats: ResolutionStats::default(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::parse_form;

    fn seq(assumptions: &[&str], goal: &str) -> Sequent {
        Sequent::new(
            assumptions
                .iter()
                .map(|a| parse_form(a).expect("parse"))
                .collect(),
            parse_form(goal).expect("parse"),
        )
    }

    fn proves(assumptions: &[&str], goal: &str) -> bool {
        prove_sequent(&seq(assumptions, goal), &FolOptions::default()).proved
    }

    #[test]
    fn proves_propositional_sequents() {
        assert!(proves(&["p", "p --> q"], "q"));
        assert!(!proves(&["p | q"], "p"));
    }

    #[test]
    fn proves_equational_reasoning() {
        assert!(proves(&["x = y", "y = z"], "x = z"));
        assert!(!proves(&["x = y"], "x = z"));
    }

    #[test]
    fn proves_quantifier_instantiation() {
        assert!(proves(
            &[
                "ALL x. x : Node & x ~= null --> x..next : Node",
                "n : Node",
                "n ~= null"
            ],
            "n..next : Node"
        ));
    }

    #[test]
    fn proves_membership_propagation_through_quantified_assumptions() {
        assert!(proves(
            &[
                "ALL k v. (k, v) : content0 --> (k, v) : content1",
                "(k0, v0) : content0"
            ],
            "(k0, v0) : content1"
        ));
    }

    #[test]
    fn proves_reachability_steps() {
        // From reflexivity and step inclusion of the generated reach predicate.
        assert!(proves(&[], "rtrancl_pt (% u v. u..next = v) root root"));
        assert!(proves(
            &["root..next = mid"],
            "rtrancl_pt (% u v. u..next = v) root mid"
        ));
    }

    #[test]
    fn does_not_prove_invalid_reachability() {
        assert!(!proves(
            &["root..next = mid"],
            "rtrancl_pt (% u v. u..next = v) mid root"
        ));
    }

    #[test]
    fn atoms_without_a_translation_are_never_merged() {
        // Strict `subset` and formula-level `ite` have no first-order translation. Two
        // such atoms of equal size are not one symbol, nor is one atom under two
        // bindings of its variable.
        assert!(!proves(&["A subset B"], "C subset D"));
        assert!(!proves(&["ite c p q"], "ite d p q"));
        assert!(!proves(
            &["EX x. x subset B", "EX x. ~(x subset B)"],
            "False"
        ));
        // Nor are two terms without one: a membership or an equality used as a term,
        // or two different binders.
        assert!(!proves(&["f (x : A) = z"], "f (x = A) = z"));
        assert!(!proves(&["f (ALL x. p x) = z"], "f (ALL x. q x) = z"));
    }

    #[test]
    fn the_wall_clock_net_is_a_deadline_not_fuel() {
        // A clause set that never saturates, under caps that never bind: only the
        // `max_millis` net stops it, and that stop is on time.
        let options = FolOptions {
            limits: ResolutionLimits {
                max_iterations: usize::MAX,
                max_clauses: usize::MAX,
                max_clause_size: usize::MAX,
                max_literals: usize::MAX,
                max_millis: 5,
                deadline: None,
            },
            ..FolOptions::default()
        };
        let result = prove_sequent(&seq(&["ALL x. p x --> p (f x)", "p a"], "q"), &options);
        assert_eq!(result.outcome, Some(ResolutionOutcome::DeadlineLimit));
        assert!(result.deadline_exceeded());
        assert!(!result.resource_limited());
    }

    #[test]
    fn respects_by_hints_via_filtered_sequents() {
        let s = seq(
            &[
                "comment ''irrelevant'' (huge : content)",
                "comment ''key'' (a = b)",
            ],
            "b = a",
        );
        let filtered = s.filter_by_labels(&["key".to_string()]);
        assert!(prove_sequent(&filtered, &FolOptions::default()).proved);
    }
}
