//! # jahob-arith
//!
//! Quantifier-free linear integer arithmetic (Presburger) constraint solving for the
//! Jahob reproduction. This crate is the arithmetic substrate shared by the SMT-style
//! prover (`jahob-smt`, theory of linear integer arithmetic) and the BAPA decision
//! procedure (`jahob-bapa`, which reduces set-algebra-with-cardinality formulas to
//! Presburger constraints over Venn-region cardinalities).
//!
//! The solver ([`solver::check`]) implements Fourier–Motzkin elimination with equality
//! substitution, gcd-based integer tightening and divisibility checks. Its `Unsat`
//! answers are definitive, which is the direction that matters for soundness of the
//! provers built on top of it; see the module documentation of [`solver`].
//!
//! A [`LinExpr`] is a vector of coefficients sorted by variable, so the solver
//! eliminates on the rows its callers build: adding two rows is a merge, bound counts
//! are dense arrays, and each round orders its rows as their `Debug` texts order
//! without printing them.
//!
//! # Example
//!
//! ```
//! use jahob_arith::linear::{Constraint, LinExpr};
//! use jahob_arith::solver::{check, Outcome};
//!
//! // size >= 0 and size + 1 <= 0 cannot hold together.
//! let size = LinExpr::var(0);
//! let cs = vec![
//!     Constraint::ge(size.clone(), LinExpr::zero()),
//!     Constraint::le(size.add(&LinExpr::constant(1)), LinExpr::zero()),
//! ];
//! assert_eq!(check(&cs), Outcome::Unsat);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod linear;
pub mod solver;

pub use linear::{Constraint, LinExpr, Rel, VarId};
pub use solver::{check, check_with_limits, Limits, Outcome};
