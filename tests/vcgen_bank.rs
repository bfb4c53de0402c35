//! The VC generator on the formula bank must build exactly the obligations of the
//! `Form`-recursive generator, for every method of the §7 suite.
//!
//! The batch assembly generates every method's verification conditions into one bank
//! per batch, and the suite puts all of its programs into one batch. A memo keyed too
//! coarsely, or a fresh name chosen against the wrong names, would change an
//! obligation only when some other method had filled the bank first. This harness
//! generates every suite method into one shared bank, forward and reversed, and
//! through the batch assembly itself, and compares each obligation (sequent, labels
//! and hints) with the reference of `crates/vcgen/tests/reference`, which generates
//! each method alone on `Form` trees.

#[path = "../crates/vcgen/tests/reference/mod.rs"]
mod reference;

use jahob_repro::frontend::{program_tasks, MethodTask};
use jahob_repro::jahob::batch::assemble_into;
use jahob_repro::jahob::suite;
use jahob_repro::logic::bank::Bank;
use jahob_repro::logic::Form;
use jahob_repro::provers::{LemmaLibrary, ObligationBatch};
use jahob_repro::vcgen::{desugar, ProofObligation};

/// Every suite method with the reference's obligations for it.
fn suite_methods() -> Vec<(MethodTask, Vec<ProofObligation>)> {
    let mut methods = Vec::new();
    for entry in suite::full_suite() {
        for task in program_tasks(&entry.program) {
            let simple = desugar(&task.commands, &task.env);
            let expected = reference::verification_conditions(&simple, Form::tt(), &task.env);
            methods.push((task, expected));
        }
    }
    methods
}

#[test]
fn a_shared_bank_generates_every_suite_obligation_as_the_reference_does() {
    let methods = suite_methods();
    let total: usize = methods.iter().map(|(_, expected)| expected.len()).sum();
    assert_eq!(total, 159, "the suite's obligation count");
    assert!(
        methods
            .iter()
            .flat_map(|(_, expected)| expected)
            .any(|ob| ob.hints.iter().any(|h| h.is_inst())),
        "the suite carries inst witnesses"
    );
    for reversed in [false, true] {
        let mut order: Vec<&(MethodTask, Vec<ProofObligation>)> = methods.iter().collect();
        if reversed {
            order.reverse();
        }
        let mut bank = Bank::new();
        for (task, expected) in order {
            let generated: Vec<ProofObligation> = task
                .obligations_in(&mut bank)
                .iter()
                .map(|o| o.materialise(&bank))
                .collect();
            assert_eq!(&generated, expected, "{}", task.qualified_name());
            assert_eq!(&task.obligations(), expected, "{}", task.qualified_name());
        }
    }
}

#[test]
fn one_suite_batch_holds_the_reference_obligations() {
    let lemmas = LemmaLibrary::new();
    let mut batch = ObligationBatch::new();
    let mut expected = Vec::new();
    for entry in suite::full_suite() {
        let plan = assemble_into(&mut batch, entry.name, &entry.program, &lemmas);
        let tasks = program_tasks(&entry.program);
        assert_eq!(plan.len(), tasks.len(), "{}", entry.name);
        for ((method, _), task) in plan.iter().zip(&tasks) {
            let simple = desugar(&task.commands, &task.env);
            let obligations = reference::verification_conditions(&simple, Form::tt(), &task.env);
            assert_eq!(method, &task.qualified_name());
            expected.extend(obligations.into_iter().map(|ob| (method.clone(), ob)));
        }
    }
    let generated = batch.obligations();
    assert_eq!(generated.len(), expected.len());
    for (i, ((tag, ob), (method, expected))) in generated.iter().zip(&expected).enumerate() {
        assert_eq!(&tag.method, method, "entry {i}");
        assert_eq!(ob, expected, "entry {i}: {tag:?}");
    }
}
