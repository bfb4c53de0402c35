//! # jahob-automata
//!
//! Explicit-state finite automata over multi-track binary alphabets: the substrate for
//! the WS1S (monadic second-order logic over finite strings) decision procedure in
//! `jahob-mona`, which plays the role of MONA in the Jahob reproduction (§6.4 of
//! *Full Functional Verification of Linked Data Structures*, PLDI 2008). See
//! `docs/ARCHITECTURE.md` for the crate's place in the 11-crate graph.
//!
//! Words assign a bit to each of `k` tracks at every position; a symbol is an integer in
//! `0..2^k`. A [`Dfa`] maps each symbol to a column and keeps one table column per
//! class of symbols that act alike, so an automaton that reads two of `k` tracks keeps
//! at most four entries per state, not `2^k`; [`Dfa::reading`] builds one from a table
//! over the tracks it reads. It supports the operations MONA needs: complement, product
//! (intersection and union), track projection (existential quantification,
//! determinised by a subset construction on the automaton itself), emptiness with
//! witness extraction, minimisation and the "zero extension" closure needed after
//! projection. The `_bounded` products and [`Dfa::project`] give up once an automaton
//! would exceed a state budget. [`Dfa::work_cost`], the unit fuel budgets are charged
//! in, still counts one unit per state and symbol of the uncompressed table.
//!
//! # Example
//!
//! ```
//! use jahob_automata::Dfa;
//!
//! // Over two tracks, "the two tracks agree at every position".
//! let equal = Dfa::new(2, 0, vec![true, false],
//!                      vec![vec![0, 1, 1, 0], vec![1, 1, 1, 1]]);
//! // Existentially quantifying one track leaves the universal language.
//! let projected = equal.project(1, usize::MAX).unwrap();
//! assert!(projected.equivalent(&Dfa::all(2)));
//! // With a budget of one state the subset construction gives up.
//! assert!(equal.project(1, 1).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dfa;
mod hash;

pub use dfa::{Dfa, State};
