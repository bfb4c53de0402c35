//! # jahob-vcgen
//!
//! Verification-condition generation for the Jahob reproduction (§4 of *Full Functional
//! Verification of Linked Data Structures*, PLDI 2008):
//!
//! * [`command`] — extended and simple guarded commands (Figures 8–9) and the desugaring
//!   of executable and proof constructs (Figures 11–12), including the dependency
//!   tracking for defined specification variables (§4.4);
//! * [`mod@wlp`] — weakest preconditions (Figure 10), splitting of verification conditions
//!   into independent proof obligations (Figure 13), and the `by`-hint plumbing.
//!
//! Weakest preconditions and splitting run on the hash-consed formula bank of
//! `jahob_logic::bank`, through its constructors: a formula the verification condition
//! repeats is one node, and an obligation is a list of node ids
//! ([`wlp::InternedObligation`]). The frontend (`jahob-frontend`) produces
//! [`command::Command`] sequences from annotated Java methods; the batch assembly of
//! `jahob` generates their obligations straight into the bank of the batch the prover
//! dispatcher (`jahob-provers`) proves, and [`wlp::verification_conditions`] rebuilds
//! them as [`wlp::ProofObligation`]s for everything else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod wlp;

pub use command::{collect_modified, desugar, Command, DesugarEnv, Simple};
pub use wlp::{
    obligations_in, split, verification_conditions, wlp, Hint, InternedObligation, ProofObligation,
    INST_HINT_PREFIX, LEMMA_HINT_PREFIX,
};
