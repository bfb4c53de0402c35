//! The refuter (`jahob_logic::countermodel`) as a soundness oracle and as the
//! explanation of a failure.
//!
//! * No proved sequent has a countermodel: neither the 159 suite obligations nor the
//!   proved obligations of the mutated methods of perfbench's known-wrong mutants
//!   (`perfbench/expected.tsv`, read through `#[path]` as `tests/predictability.rs`
//!   does). Each is refuted as the dispatcher refutes it: its full inlined sequent,
//!   typed by its method's types, at the dispatcher's cap. An ignored test repeats this
//!   at a raised cap; CI's build job runs it in release.
//! * Smoke queries: each suite obligation's assumptions with the goal `False`, and the
//!   obligations of `tests/fixtures/surj.java`, whose precondition has a model. The
//!   refuter finds a model for every one but `SinglyLinkedList.add` #3 and `addTwo` #5,
//!   the infeasible branches of the `firstNull` implication, and no prover may prove a
//!   smoke query whose assumptions have a model.
//! * Every mutant program, verified on a fresh verifier as `reject_mutants` verifies
//!   it, has its mutated method shown invalid, and the refuted count is pinned. perfbench
//!   does not report refutations, so this test does. A cache hit (in memory, from the
//!   method memo and from disk) renders the same `invalid` lines and counts.

#[path = "../perfbench/src/mutate.rs"]
#[allow(dead_code)]
mod mutate;

#[path = "../perfbench/src/expected.rs"]
#[allow(dead_code)]
mod expected;

use jahob_repro::frontend::{parse_program, program_tasks, MethodTask, Program};
use jahob_repro::jahob::{suite, verify_program, verify_program_with, MethodResult};
use jahob_repro::logic::countermodel::refute;
use jahob_repro::logic::norm::inline_definitions;
use jahob_repro::logic::{Form, Sequent};
use jahob_repro::prelude::*;
use jahob_repro::provers::inst::apply_inst_hints;
use jahob_repro::provers::{Dispatcher, LemmaLibrary, REFUTER_CAP};
use jahob_repro::vcgen::ProofObligation;
use std::collections::BTreeSet;

/// The mutant programs of `perfbench/expected.tsv`, each with its mutated method.
fn mutants() -> Vec<(Program, String)> {
    let entries = suite::full_suite();
    let known = expected::Expected::parse(include_str!("../perfbench/expected.tsv"))
        .expect("known answers parse");
    known
        .mutants
        .iter()
        .map(|m| {
            let base = &entries
                .iter()
                .find(|e| e.name == m.structure)
                .expect("a suite structure")
                .program;
            let program = mutate::apply(base, &m.method, &m.mutation).expect("mutant applies");
            (program, m.method.clone())
        })
        .collect()
}

fn suite_tasks() -> Vec<MethodTask> {
    suite::full_suite()
        .iter()
        .flat_map(|entry| program_tasks(&entry.program))
        .collect()
}

/// The sequent the dispatcher refutes: the full sequent, instantiated and inlined.
fn full_sequent(ob: &ProofObligation) -> Sequent {
    inline_definitions(&apply_inst_hints(&ob.sequent, &ob.hints))
}

fn uncached() -> Dispatcher {
    Dispatcher::with_config(DispatcherConfig::builder().cache(CacheMode::Off).build())
}

/// Refutes every obligation of `tasks` the dispatcher proves, at `cap`; returns how
/// many. A countermodel of a proved sequent fails the test. The countermodels of the
/// unproved ones are evaluated again here, formula by formula.
fn no_proved_sequent_is_refuted(tasks: &[MethodTask], cap: u64) -> usize {
    let dispatcher = uncached();
    let lemmas = LemmaLibrary::new();
    let mut proved = 0;
    for task in tasks {
        let context = task.prover_context(&lemmas);
        for (i, ob) in task.obligations().iter().enumerate() {
            let sequent = full_sequent(ob);
            let refutation = refute(&sequent, &task.type_env, cap);
            if dispatcher.prove_one(ob, &context).succeeded() {
                proved += 1;
                assert!(
                    refutation.model.is_none(),
                    "{}#{i} is proved and has a countermodel: {}",
                    task.qualified_name(),
                    refutation
                        .model
                        .unwrap()
                        .describe(sequent.free_vars().iter().map(String::as_str))
                );
            } else if let Some(model) = refutation.model {
                for a in &sequent.assumptions {
                    assert_eq!(
                        model.eval(a),
                        Some(true),
                        "{}#{i}: {a}",
                        task.qualified_name()
                    );
                }
                assert_eq!(
                    model.eval(&sequent.goal),
                    Some(false),
                    "{}#{i}",
                    task.qualified_name()
                );
            }
        }
    }
    proved
}

fn mutated_tasks() -> Vec<MethodTask> {
    mutants()
        .iter()
        .flat_map(|(program, method)| {
            program_tasks(program)
                .into_iter()
                .filter(move |t| &t.qualified_name() == method)
        })
        .collect()
}

#[test]
fn no_proved_sequent_has_a_countermodel() {
    assert_eq!(
        no_proved_sequent_is_refuted(&suite_tasks(), REFUTER_CAP),
        159
    );
    assert_eq!(
        no_proved_sequent_is_refuted(&mutated_tasks(), REFUTER_CAP),
        157
    );
}

/// The oracle at 256 times the dispatcher's cap, enough for the search to exhaust its
/// universes on every suite sequent. Run it in release:
/// `cargo test --release --test refuter -- --ignored`.
#[test]
#[ignore]
fn no_proved_sequent_has_a_countermodel_at_a_raised_cap() {
    let cap = REFUTER_CAP * 256;
    assert_eq!(no_proved_sequent_is_refuted(&suite_tasks(), cap), 159);
    assert_eq!(no_proved_sequent_is_refuted(&mutated_tasks(), cap), 157);
}

/// An obligation's assumptions with the goal `False`.
fn smoke(ob: &ProofObligation) -> ProofObligation {
    ProofObligation {
        sequent: Sequent {
            goal: Form::ff(),
            ..ob.sequent.clone()
        },
        hints: ob.hints.clone(),
    }
}

#[test]
fn smoke_queries_have_models_and_no_prover_proves_them() {
    let mut tasks = suite_tasks();
    tasks.extend(program_tasks(
        &parse_program(include_str!("fixtures/surj.java")).expect("parse"),
    ));
    let dispatcher = uncached();
    let lemmas = LemmaLibrary::new();
    let mut without_model = BTreeSet::new();
    let mut queries = 0;
    for task in &tasks {
        let context = task.prover_context(&lemmas);
        for (i, ob) in task.obligations().iter().enumerate() {
            let query = smoke(ob);
            queries += 1;
            let model = refute(&full_sequent(&query), &task.type_env, REFUTER_CAP).model;
            let proved = dispatcher.prove_one(&query, &context).succeeded();
            assert!(
                !(proved && model.is_some()),
                "{}#{i}: a prover proves False from assumptions that have a model",
                task.qualified_name()
            );
            if model.is_none() {
                without_model.insert((task.qualified_name(), i));
            }
        }
    }
    assert_eq!(queries, 160);
    let infeasible: BTreeSet<(String, usize)> = [
        ("SinglyLinkedList.add".to_string(), 3),
        ("SinglyLinkedList.addTwo".to_string(), 5),
    ]
    .into();
    assert_eq!(without_model, infeasible);
}

/// The unproved lines and refuted count of every method of `methods`.
fn outcome(methods: &[MethodResult]) -> Vec<(String, Vec<String>, usize)> {
    methods
        .iter()
        .map(|m| {
            (
                m.method.clone(),
                m.report.unproved.clone(),
                m.report.refuted,
            )
        })
        .collect()
}

#[test]
fn every_mutant_is_shown_invalid_and_cache_hits_render_alike() {
    let config = || DispatcherConfig::builder().build();
    let mut refuted = 0;
    let dir = std::env::temp_dir().join(format!("jahob-refuter-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persistent = || {
        Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: false,
                })
                .build(),
        )
    };
    let lemmas = LemmaLibrary::new();
    for (program, method) in mutants() {
        // A fresh verifier per program, as `reject_mutants` runs them.
        let options = VerifyOptions {
            dispatcher: config(),
            ..VerifyOptions::default()
        };
        let fresh = verify_program(&program, &options);
        for m in &fresh {
            assert_eq!(m.verified(), m.method != method, "{}", m.render());
            assert_eq!(m.invalid(), m.method == method, "{}", m.render());
            assert_eq!(m.report.refuted, m.report.unproved.len(), "{}", m.render());
            assert!(m.report.unproved.iter().all(|l| l.contains(" [invalid")));
            refuted += m.report.refuted;
        }
        // A second run on one dispatcher answers from memory and then from the memo.
        let dispatcher = Dispatcher::with_config(config());
        let first = verify_program_with(&dispatcher, &program, &lemmas);
        let again = verify_program_with(&dispatcher, &program, &lemmas);
        assert_eq!(outcome(&first), outcome(&fresh));
        assert_eq!(outcome(&again), outcome(&fresh));
        assert!(dispatcher.cache().stats().method_hits > 0);
        // And a dispatcher warm-started from a flushed store answers from disk.
        let writer = persistent();
        verify_program_with(&writer, &program, &lemmas);
        writer.flush_store().expect("flush");
        let reader = persistent();
        let from_disk = verify_program_with(&reader, &program, &lemmas);
        assert_eq!(outcome(&from_disk), outcome(&fresh));
        assert!(from_disk.iter().all(|m| m.report.cache_misses == 0));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(refuted, 33);
}
