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
//! inference ([`typecheck`]), logical simplification and normal forms ([`simplify`]),
//! sequents ([`sequent`]), canonicalisation and definition inlining ([`norm`]), the
//! hash-consed formula bank on which the dispatcher normalises a whole batch, each
//! distinct node once ([`bank`]), the prover-independent rewrites used by formula
//! approximation ([`rewrite`]), the polarity-based approximation scheme of Figure 14
//! ([`approx`]), and the one-pass syntactic feature extraction behind per-sequent
//! prover routing ([`features`]).
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

pub mod approx;
pub mod bank;
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
