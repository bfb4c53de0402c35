//! The unit [`Dispatcher::prove_all`](crate::Dispatcher::prove_all) dispatches: one
//! record per method, holding its provenance, its proving context, a fingerprint and a
//! generator for its obligations.
//!
//! Jahob verifies each method on its own, against its contract and the class
//! invariants (assume/guarantee, §3.3), so a method's obligations are a function of its
//! verification task. The batch therefore holds what generates them, not the
//! obligations: `prove_all` generates them into the batch's formula bank only for the
//! methods the result cache's method memo does not answer ([`crate::cache`]). A
//! method's obligations are generated at most once per batch, and its task is dropped
//! then, so a batch does not keep a task beside the obligations it proves.

use crate::cache::Fingerprint;
use crate::ProverContext;
use jahob_logic::bank::Bank;
use jahob_logic::TypeEnv;
use jahob_vcgen::{InternedObligation, ProofObligation};
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Provenance of one obligation within a program-wide batch: which data structure and
/// method it came from, and its index in that method's obligation order. Dispatch
/// treats the whole batch as one pool (§3.5, §6); the tag is what folds the per-
/// obligation results back into per-method reports.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObligationTag {
    /// The data structure (suite entry) the obligation belongs to; empty outside suite
    /// runs.
    pub structure: String,
    /// `Class.method`.
    pub method: String,
    /// The index of the obligation within its method (the VC split order).
    pub index: usize,
}

/// Generates one method's obligations into a bank, in VC split order.
type Generator = Box<dyn FnOnce(&mut Bank) -> Vec<InternedObligation> + Send>;

/// One method of an [`ObligationBatch`]. Contexts are shared behind an `Arc`, so
/// batching a whole program costs one context per method, not per obligation.
pub(crate) struct MethodRecord {
    /// The data structure the method belongs to; empty outside suite runs.
    pub structure: String,
    /// `Class.method`.
    pub method: String,
    /// The per-method proving context (set/function variable classification, lemmas).
    pub context: Arc<ProverContext>,
    /// The types of the method's variables, which the refuter's models follow.
    pub types: Arc<TypeEnv>,
    /// The fingerprint of the method's task and context; with the dispatcher's
    /// configuration it keys the method memo.
    pub fingerprint: Fingerprint,
    /// Generates the method's obligations, owning the task; taken when they are
    /// generated.
    generate: Mutex<Option<Generator>>,
    /// The method's obligations in the batch's bank, once generated.
    obligations: OnceLock<Vec<InternedObligation>>,
}

impl MethodRecord {
    /// The method's obligations, generated into `bank`, the batch's, when first asked
    /// for.
    pub(crate) fn obligations(&self, bank: &mut Bank) -> &[InternedObligation] {
        self.obligations.get_or_init(|| {
            let generate = self
                .generate
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("a method's obligations are generated once");
            generate(bank)
        })
    }
}

impl fmt::Debug for MethodRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MethodRecord")
            .field("structure", &self.structure)
            .field("method", &self.method)
            .field("fingerprint", &self.fingerprint)
            .finish_non_exhaustive()
    }
}

/// A batch of methods, each carrying provenance, its own proving context and the
/// generator of its obligations — the unit [`Dispatcher::prove_all`] dispatches.
/// Assembling one batch per program (or per suite) hands the work-stealing queue the
/// whole obligation pool at once while the tags keep per-method attribution intact.
///
/// The batch owns the formula bank its obligations are generated into, so a formula
/// shared by several obligations or methods is one node, and `prove_all` proves on
/// that bank without interning the obligations again.
///
/// [`Dispatcher::prove_all`]: crate::Dispatcher::prove_all
#[derive(Debug, Default)]
pub struct ObligationBatch {
    /// Behind a lock only so that `prove_all`, which takes the batch by shared
    /// reference, can generate and prove on the bank itself and put it back, grown,
    /// afterwards.
    pub(crate) bank: Mutex<Bank>,
    pub(crate) methods: Vec<MethodRecord>,
}

impl ObligationBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        ObligationBatch::default()
    }

    /// Appends one method whose obligations `generate` builds from `task` (as
    /// `MethodTask::obligations_in` builds them), tagged `(structure, method, index)`
    /// and sharing `context`; `types` are the types of the method's variables. The task
    /// is fingerprinted with the context and the types here and generated only when
    /// `prove_all` first needs its obligations. Returns the index of the method's
    /// record, which [`BatchReport::per_method`](crate::BatchReport) follows.
    pub fn push_task<T: Hash + Send + 'static>(
        &mut self,
        structure: &str,
        method: &str,
        context: Arc<ProverContext>,
        types: Arc<TypeEnv>,
        task: T,
        generate: fn(&T, &mut Bank) -> Vec<InternedObligation>,
    ) -> usize {
        self.methods.push(MethodRecord {
            structure: structure.to_string(),
            method: method.to_string(),
            fingerprint: Fingerprint::of(&(&task, &*context, &*types)),
            context,
            types,
            generate: Mutex::new(Some(Box::new(move |bank| generate(&task, bank)))),
            obligations: OnceLock::new(),
        });
        self.methods.len() - 1
    }

    /// Appends one method given by its obligations, which are interned into the
    /// batch's bank when `prove_all` needs them. Their variables' types are what the
    /// standard environment declares and the obligations imply. Returns the index of
    /// its record.
    pub fn push_method(
        &mut self,
        structure: &str,
        method: &str,
        context: Arc<ProverContext>,
        obligations: Vec<ProofObligation>,
    ) -> usize {
        self.push_task(
            structure,
            method,
            context,
            Arc::new(TypeEnv::standard()),
            obligations,
            |obligations, bank| {
                obligations
                    .iter()
                    .map(|o| InternedObligation::intern(bank, o))
                    .collect()
            },
        )
    }

    /// A batch in which every obligation shares one context and carries only its index
    /// as provenance — the shape unit tests and obligation dumps feed the dispatcher.
    pub fn uniform(obligations: &[ProofObligation], context: &ProverContext) -> Self {
        let mut batch = ObligationBatch::new();
        batch.push_method("", "", Arc::new(context.clone()), obligations.to_vec());
        batch
    }

    /// Every method's obligations, rebuilt as formulas and tagged, in batch order: what
    /// `prove_all` proves when the memo answers no method. Generates those not yet
    /// generated.
    pub fn obligations(&self) -> Vec<(ObligationTag, ProofObligation)> {
        let mut bank = self.bank.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::new();
        for record in &self.methods {
            for (index, obligation) in record.obligations(&mut bank).iter().enumerate() {
                let tag = ObligationTag {
                    structure: record.structure.clone(),
                    method: record.method.clone(),
                    index,
                };
                out.push((tag, obligation.materialise(&bank)));
            }
        }
        out
    }
}
