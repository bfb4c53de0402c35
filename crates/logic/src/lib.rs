//! # jahob-logic
//!
//! The specification logic of the Jahob verification system, as described in
//! *Full Functional Verification of Linked Data Structures* (Zee, Kuncak, Rinard,
//! PLDI 2008), §3.
//!
//! Formulas are terms of a simply typed higher-order logic with:
//!
//! * ground types `bool`, `int`, `obj` and constructors for sets, tuples and functions,
//! * the usual connectives and quantifiers,
//! * lambda abstraction and set comprehension,
//! * reflexive transitive closure (`rtrancl_pt`), the `tree [f...]` backbone predicate,
//!   and finite-set cardinality (`card`),
//! * specification plumbing: `old`, formula labels (`comment ''l'' F`), function update
//!   (`f(x := v)`) and array state access.
//!
//! The crate provides the abstract syntax ([`form`]), concrete-syntax parsing
//! ([`parser`]), pretty printing, substitution and beta reduction ([`subst`]), type
//! inference ([`typecheck`]), comment stripping ([`simplify`]), sequents
//! ([`sequent`]), canonicalisation and definition inlining ([`norm`]), bottom-up
//! rewriting and the VC generator's rewrites ([`rewrite`]), the one-pass syntactic
//! feature extraction behind per-sequent prover routing ([`features`]), and the
//! hash-consed formula bank ([`bank`]), and a bounded, exact countermodel search over
//! small finite models ([`countermodel`]). The dispatcher normalises a whole batch on one
//! bank, each distinct node once, and every prover's front end runs there:
//! simplification, negation normal form, and the polarity approximation of Figure 14
//! into each prover's fragment.
//!
//! # Example
//!
//! ```
//! use jahob_logic::{parser::parse_form, typecheck::{check_bool, TypeEnv}, types::Type};
//!
//! let mut env = TypeEnv::standard();
//! env.insert("content", Type::obj_set());
//! env.insert("size", Type::Int);
//! let inv = parse_form("size = card content").expect("syntax");
//! check_bool(&inv, &env).expect("well-typed");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The test oracles in `tests/reference` name this crate `jahob_logic`; unit tests
// include them too.
#[cfg(test)]
extern crate self as jahob_logic;

pub mod bank;
pub mod countermodel;
pub mod features;
pub mod form;
pub mod norm;
pub mod parser;
pub mod rewrite;
pub mod sequent;
pub mod simplify;
pub mod subst;
pub mod typecheck;
pub mod types;

pub use features::SequentFeatures;
pub use form::{Binder, Const, Form, Ident};
pub use parser::{parse_form, parse_type, ParseError};
pub use sequent::Sequent;
pub use typecheck::{TypeEnv, TypeError};
pub use types::Type;
