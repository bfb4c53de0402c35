//! # jahob-mona
//!
//! The MONA substitute of the Jahob reproduction (§6.4 of *Full Functional Verification
//! of Linked Data Structures*, PLDI 2008): an automata-based decision procedure for weak
//! monadic second-order logic of one successor (WS1S), built on the explicit-state
//! automata of `jahob-automata`, together with an interface that translates Jahob
//! sequents in the monadic fragment into WS1S. Where this prover sits in the cascade
//! (behind FOL on monadic membership sequents, and demoted on reachability, which
//! [`translate`] approximates away) is described in `docs/ARCHITECTURE.md`.
//!
//! The original MONA decides WS1S/WS2S and is used by Jahob, via field constraint
//! analysis, for complete reasoning about reachability over list and tree backbones.
//! This reproduction keeps the same architectural role — a complete automata-based
//! prover behind an approximation interface — with a documented, narrower HOL fragment
//! (see [`translate`]); reachability goals outside that fragment are handled by the
//! axiomatised first-order interface of `jahob-folp`, exactly as the paper's own
//! approximation scheme permits.
//!
//! # Example
//!
//! ```
//! use jahob_mona::{prove_sequent, MonaOptions};
//! use jahob_logic::{parse_form, Sequent};
//!
//! let sequent = Sequent::new(
//!     vec![parse_form("ALL x. x : nodes --> x : alloc").unwrap(),
//!          parse_form("n : nodes").unwrap()],
//!     parse_form("n : alloc").unwrap(),
//! );
//! assert!(prove_sequent(&sequent, &MonaOptions::default()).proved);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod translate;
pub mod ws1s;

pub use translate::{prove_sequent, MonaOptions, MonaResult};
pub use ws1s::{Decider, Ws1s, Ws1sOutcome};
