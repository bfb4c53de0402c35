//! Batch assembly and result folding: the layer between the frontend's per-method
//! tasks and the dispatcher's program-wide obligation pool.
//!
//! The paper's integrated reasoner treats a verification run's proof obligations as one
//! pool to split and dispatch (§3.5, §6) while reporting results per method (Figures 7
//! and 15). This module realises that separation between *dispatch* and *attribution*:
//! [`assemble_program_batch`] puts every method of a program into one
//! [`ObligationBatch`] as a record holding its verification task, its provenance and
//! its [`ProverContext`](jahob_provers::ProverContext); the dispatcher generates the
//! obligations of every method its method memo does not answer straight into the
//! batch's formula bank. [`fold_method_results`] folds the tagged per-obligation
//! reports back into the per-method [`MethodResult`] shape — in batch order, so the
//! per-method `unproved` ordering is identical to a per-method dispatch.

use crate::MethodResult;
use jahob_frontend::{program_tasks, MethodTask, Program};
use jahob_provers::{BatchReport, LemmaLibrary, ObligationBatch, VerificationReport};
use std::sync::Arc;

/// One method of an assembled batch: its qualified name and the index of its record in
/// the batch. The index is what lets [`fold_method_results`] find the method's
/// obligation count in the report and align results with methods positionally — by
/// name alone, same-named methods (Java-style overloads, which the frontend does not
/// reject) or methods with zero obligations would be ambiguous.
pub type MethodPlan = (String, usize);

/// Assembles the program-wide obligation batch of `program`: one record per method,
/// holding its verification task and prover context, whose obligations are tagged
/// `(structure, Class.method, index)`. Returns the batch together with the per-method
/// plan in program order, so methods that produce no obligations still get an (empty,
/// trivially verified) result when folding.
pub fn assemble_program_batch(
    structure: &str,
    program: &Program,
    lemmas: &LemmaLibrary,
) -> (ObligationBatch, Vec<MethodPlan>) {
    let mut batch = ObligationBatch::new();
    let methods = assemble_into(&mut batch, structure, program, lemmas);
    (batch, methods)
}

/// [`assemble_program_batch`] into an existing batch, so several programs share one
/// batch and its formula bank. Returns the program's method plan.
pub fn assemble_into(
    batch: &mut ObligationBatch,
    structure: &str,
    program: &Program,
    lemmas: &LemmaLibrary,
) -> Vec<MethodPlan> {
    program_tasks(program)
        .into_iter()
        .map(|mut task| {
            let method = task.qualified_name();
            let context = Arc::new(task.prover_context(lemmas));
            // Generating the obligations does not read the types; the record keeps them.
            let types = Arc::new(std::mem::take(&mut task.type_env));
            let record = batch.push_task(
                structure,
                &method,
                context,
                types,
                task,
                MethodTask::obligations_in,
            );
            (method, record)
        })
        .collect()
}

/// Folds the tagged per-obligation reports of one structure back into per-method
/// results, one per entry of `methods` (in that order). Per-obligation reports merge
/// in batch order, so each method's report — counts, per-prover attribution and the
/// `unproved` ordering — is identical to what a dedicated per-method `prove_all` call
/// produces; a method's `total_time` is the sum of its obligations' wall times.
///
/// Alignment is positional: the report gives each method record's obligation count
/// ([`BatchReport::per_method`]), and a method's reports are the contiguous run of
/// entries at its record's place, so same-named methods and zero-obligation methods
/// both fold correctly.
pub fn fold_method_results(
    report: &BatchReport,
    structure: &str,
    methods: &[MethodPlan],
) -> Vec<MethodResult> {
    let mut starts = vec![0];
    for count in &report.per_method {
        starts.push(starts[starts.len() - 1] + count);
    }
    methods
        .iter()
        .map(|(method, record)| {
            let mut merged = VerificationReport::default();
            for tagged in &report.per_obligation[starts[*record]..starts[record + 1]] {
                debug_assert!(
                    tagged.tag.structure == structure && &tagged.tag.method == method,
                    "method plan out of step with batch order"
                );
                merged.merge(&tagged.report);
            }
            MethodResult {
                method: method.clone(),
                report: merged,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;
    use std::collections::BTreeMap;

    #[test]
    fn assembly_tags_every_obligation_with_its_method() {
        let program = suite::sized_list();
        let (batch, methods) = assemble_program_batch("Sized List", &program, &LemmaLibrary::new());
        let names: Vec<&str> = methods.iter().map(|(m, _)| m.as_str()).collect();
        assert_eq!(names, vec!["List.addNew", "List.isEmpty"]);
        let records: Vec<usize> = methods.iter().map(|(_, record)| *record).collect();
        assert_eq!(
            records,
            vec![0, 1],
            "one record per method, in program order"
        );
        let obligations = batch.obligations();
        assert!(obligations.len() >= 5, "expected several obligations");
        let mut seen = BTreeMap::new();
        for (tag, _) in &obligations {
            assert_eq!(tag.structure, "Sized List");
            let next = seen.entry(tag.method.clone()).or_insert(0usize);
            assert_eq!(tag.index, *next, "indices are dense per method");
            *next += 1;
        }
        assert_eq!(seen.len(), methods.len());
        // The report gives each method its count, and folding takes it from there.
        let report = jahob_provers::Dispatcher::new().prove_all(&batch);
        assert_eq!(
            report.per_method.iter().sum::<usize>(),
            obligations.len(),
            "the per-method counts add up to the batch's obligations"
        );
        let results = fold_method_results(&report, "Sized List", &methods);
        for (result, count) in results.iter().zip(&report.per_method) {
            assert_eq!(result.report.total_sequents, *count, "{}", result.method);
        }
    }

    #[test]
    fn folding_separates_same_named_method_occurrences() {
        use jahob_provers::{ObligationTag, TaggedReport};
        // Three methods sharing the qualified name "List.add" (overloads), the middle
        // one with zero obligations: the plan's counts align results positionally, so
        // each overload keeps its own report instead of the first absorbing all of
        // them and the others reporting trivially verified.
        let one = |method: &str, index: usize, proved: usize| TaggedReport {
            tag: ObligationTag {
                structure: String::new(),
                method: method.to_string(),
                index,
            },
            report: VerificationReport {
                total_sequents: 1,
                proved_sequents: proved,
                unproved: if proved == 0 {
                    vec![format!("{method}#{index}")]
                } else {
                    Vec::new()
                },
                ..VerificationReport::default()
            },
        };
        let report = BatchReport {
            per_obligation: vec![
                one("List.add", 0, 1),
                one("List.add", 1, 1),
                one("List.add", 0, 0),
            ],
            per_method: vec![2, 0, 1],
            ..BatchReport::default()
        };
        let methods = vec![
            ("List.add".to_string(), 0),
            ("List.add".to_string(), 1),
            ("List.add".to_string(), 2),
        ];
        let results = fold_method_results(&report, "", &methods);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].report.total_sequents, 2);
        assert!(results[0].verified());
        assert_eq!(results[1].report.total_sequents, 0);
        assert!(results[1].verified());
        assert_eq!(results[2].report.total_sequents, 1);
        assert!(!results[2].verified());
        assert_eq!(results[2].report.unproved, vec!["List.add#0".to_string()]);
    }

    #[test]
    fn folding_keeps_methods_without_obligations() {
        let report = BatchReport {
            per_method: vec![0],
            ..BatchReport::default()
        };
        let methods = vec![("A.empty".to_string(), 0)];
        let results = fold_method_results(&report, "", &methods);
        assert_eq!(results.len(), 1);
        assert!(
            results[0].verified(),
            "an empty report is trivially verified"
        );
    }
}
