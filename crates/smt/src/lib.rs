//! # jahob-smt
//!
//! An SMT-style ground prover playing the role of CVC3 and Z3 in the Jahob reproduction
//! (§6.3 of *Full Functional Verification of Linked Data Structures*, PLDI 2008).
//!
//! The crate provides:
//!
//! * [`euf`] — congruence closure over a graph of curried ground terms (the EUF theory
//!   solver), cleared and reused across the checks of one search,
//! * [`ground`] — a DPLL search over theory atoms combining EUF with linear integer
//!   arithmetic (via `jahob-arith`), on a flat kernel that interns a clause set's
//!   terms and atoms once and precomputes each arithmetic atom's linear row,
//! * [`translate`] — the interface from higher-order sequents: rewriting, polarity
//!   approximation, heuristic quantifier instantiation with the sequent's own ground
//!   terms, Skolemisation, and conversion to ground clauses over interned atoms. It
//!   runs on a formula bank ([`jahob_logic::bank`]) beside an [`SmtMemo`], so a
//!   formula shared by the sequents of one bank is approximated, grounded and
//!   converted once ([`prove_interned`]); [`prove_sequent`] runs on a fresh bank.
//!
//! Candidate-term instantiation only tries ground terms already occurring in the
//! sequent; when a proof needs a universal assumption specialised at a *compound*
//! witness, the annotation supplies it with a `by inst x := "w"` hint instead
//! (`jahob_provers::inst`, documented in `docs/SPEC_LANGUAGE.md`). An existential is
//! replaced by a Skolem function of the universal variables around it, so every
//! instance of `ALL x. EX y. F` gets its own witness.
//!
//! # Example
//!
//! ```
//! use jahob_smt::{prove_sequent, SmtOptions};
//! use jahob_logic::{parse_form, Sequent};
//!
//! let sequent = Sequent::new(
//!     vec![parse_form("size = old_size + 1").unwrap(),
//!          parse_form("0 <= old_size").unwrap()],
//!     parse_form("1 <= size").unwrap(),
//! );
//! assert!(prove_sequent(&sequent, &SmtOptions::default()).proved);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod euf;
pub mod ground;
pub mod translate;

pub use euf::CongruenceClosure;
pub use ground::{check_clauses, GAtom, GClause, GLiteral, GTerm, GroundLimits, GroundOutcome};
pub use translate::{
    ground_clauses, prove_interned, prove_sequent, GroundClauses, SmtMemo, SmtOptions, SmtResult,
};
