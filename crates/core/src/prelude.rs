//! The one-import surface of the driver: `use jahob::prelude::*;`.
//!
//! Re-exports the [`Verifier`] facade (parse → batch → prove → report in one call)
//! together with the handful of types an embedding actually touches — the typed
//! configuration surface ([`DispatcherConfig`], [`CacheMode`]), the driver entry
//! points ([`verify_program`], [`run_suite`], [`render_figure15`]) and their result
//! types. Everything else (batching internals, individual prover crates) stays
//! behind the full module paths.

pub use crate::suite;
pub use crate::verifier::{ProgramReport, Verifier};
pub use crate::{
    render_figure15, run_suite, suite_budget_aborts, suite_crashes, suite_deadline_aborts,
    verify_program, MethodResult, SuiteRow, VerifyOptions,
};
pub use jahob_provers::{
    CacheMode, CacheStats, DispatcherConfig, DispatcherConfigBuilder, FaultSpec, ProverId,
    VerificationReport,
};
