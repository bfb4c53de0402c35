//! The result cache's method memo answers a method whose task was verified before in
//! the process, without generating, inlining or keying its obligations. It must be
//! invisible in every report.
//!
//! * **Differential.** perfbench's `edit_warm` stream (a fresh `requires` conjunct on a
//!   seeded quarter of each structure's methods, read through `#[path]`), each
//!   request followed by the unedited program, runs through one dispatcher. Before
//!   each program, the dispatcher's store is flushed and a fresh dispatcher, whose
//!   memo is empty, is warm-loaded from it: its per-obligation reports, times and
//!   disk-hit flags aside, must equal the memo's. At 4 threads two workers may race on
//!   a cold key, so the hit/miss split is set aside there too.
//! * **Invalidation.** Editing a method's contract or a class invariant, registering
//!   an obligation or a named lemma, and changing the configuration each make the
//!   affected methods miss the memo and report as a fresh dispatcher does; a method
//!   whose attempt crashed is not memoised.
//! * **Engagement.** Verifying the suite twice on one verifier answers every method
//!   from the memo the second time, with the same Figure 15 attribution.

#[path = "../perfbench/src/expected.rs"]
#[allow(dead_code)]
mod expected;

#[path = "../perfbench/src/mutate.rs"]
#[allow(dead_code)]
mod mutate;

#[path = "../perfbench/src/rng.rs"]
#[allow(dead_code)]
mod rng;

#[path = "../perfbench/src/workload.rs"]
#[allow(dead_code)]
mod workload;

use jahob_repro::frontend::{parse_program, program_tasks, Program};
use jahob_repro::jahob::batch::{assemble_program_batch, fold_method_results};
use jahob_repro::jahob::{suite, verify_program_with, MethodResult};
use jahob_repro::logic::parse_form;
use jahob_repro::prelude::*;
use jahob_repro::provers::{
    BatchReport, Dispatcher, LemmaLibrary, ObligationTag, ProverStats, VerificationReport,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use workload::{Inputs, Workload};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jahob-method-memo-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persistent(dir: &Path, threads: usize) -> DispatcherConfig {
    DispatcherConfig::builder()
        .threads(threads)
        .cache(CacheMode::Persistent {
            dir: dir.to_path_buf(),
            flush: false,
        })
        .build()
}

fn memory() -> DispatcherConfig {
    DispatcherConfig::builder().build()
}

/// One per-prover line: proved, attempted, cache hits, fuel aborts, crashes and
/// deadline stops.
type ProverLine = (ProverId, [usize; 6]);

/// One obligation's report with its times and disk-hit flags set aside; with
/// `accounting` off, its hit/miss split too.
#[derive(Debug, PartialEq, Eq)]
struct View {
    tag: ObligationTag,
    proved: usize,
    unproved: Vec<String>,
    per_prover: Vec<ProverLine>,
    lookups: (usize, usize),
}

fn view(report: &BatchReport, accounting: bool) -> Vec<View> {
    report
        .per_obligation
        .iter()
        .map(|tagged| {
            let r = &tagged.report;
            assert_eq!(r.total_sequents, 1);
            View {
                tag: tagged.tag.clone(),
                proved: r.proved_sequents,
                unproved: r.unproved.clone(),
                per_prover: r
                    .per_prover
                    .iter()
                    .map(|(id, s)| {
                        let hits = if accounting { s.cache_hits } else { 0 };
                        let counts = [
                            s.proved,
                            s.attempted,
                            hits,
                            s.budget_aborts,
                            s.crashes,
                            s.deadline_aborts,
                        ];
                        (*id, counts)
                    })
                    .collect(),
                lookups: if accounting {
                    (r.cache_hits, r.cache_misses)
                } else {
                    (r.cache_hits + r.cache_misses, 0)
                },
            }
        })
        .collect()
}

fn prove(dispatcher: &Dispatcher, program: &Program) -> BatchReport {
    let (batch, _) = assemble_program_batch("", program, &LemmaLibrary::new());
    dispatcher.prove_all(&batch)
}

fn method_hits(dispatcher: &Dispatcher) -> u64 {
    dispatcher.cache().stats().method_hits
}

fn edit_stream_matches_a_dispatcher_without_the_memo(threads: usize) {
    let dir = temp_dir(&format!("stream-{threads}"));
    let known = expected::Expected::parse(include_str!("../perfbench/expected.tsv"))
        .expect("known answers parse");
    let inputs = Inputs::build(&known).expect("inputs build");
    let unedited: BTreeMap<&str, &Program> = inputs.suite().collect();
    let memo = Dispatcher::with_config(persistent(&dir, threads));
    let mut programs = 0;
    for pass in 0..2 {
        for request in inputs.pass(Workload::EditWarm, 1, pass) {
            let name = request.label.split(" [").next().expect("a structure name");
            for program in [&request.program, unedited[name]] {
                memo.flush_store().expect("flush");
                let fresh = Dispatcher::with_config(persistent(&dir, threads));
                assert_eq!(method_hits(&fresh), 0);
                let with_memo = prove(&memo, program);
                let without = prove(&fresh, program);
                assert_eq!(method_hits(&fresh), 0, "a fresh memo answers nothing");
                assert_eq!(
                    view(&with_memo, threads == 1),
                    view(&without, threads == 1),
                    "threads={threads} pass {pass}: {}",
                    request.label
                );
                assert_eq!(with_memo.per_method, without.per_method);
                programs += 1;
            }
        }
    }
    assert_eq!(programs, 44);
    let hits = method_hits(&memo);
    assert!(
        hits >= 33,
        "threads={threads}: the memo answered {hits} methods of the stream"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_edit_stream_reports_as_a_dispatcher_without_the_memo_sequentially() {
    edit_stream_matches_a_dispatcher_without_the_memo(1);
}

#[test]
fn an_edit_stream_reports_as_a_dispatcher_without_the_memo_on_four_threads() {
    edit_stream_matches_a_dispatcher_without_the_memo(4);
}

/// The per-method view of a verification: verdicts, attribution and unproved lines.
fn methods_view(results: &[MethodResult]) -> Vec<(String, usize, usize, Vec<String>)> {
    results
        .iter()
        .map(|r| {
            (
                r.method.clone(),
                r.report.proved_sequents,
                r.report.total_sequents,
                r.report.unproved.clone(),
            )
        })
        .collect()
}

/// Per prover: proofs, attempts and fuel aborts.
type Attribution = BTreeMap<ProverId, (usize, usize, usize)>;

fn attribution_of(per_prover: &BTreeMap<ProverId, ProverStats>) -> Attribution {
    per_prover
        .iter()
        .map(|(id, s)| (*id, (s.proved, s.attempted, s.budget_aborts)))
        .collect()
}

fn attribution(report: &VerificationReport) -> Attribution {
    attribution_of(&report.per_prover)
}

/// The program `source` after replacing `from` by `to` once.
fn edited(source: &str, from: &str, to: &str) -> Program {
    assert_eq!(source.matches(from).count(), 1, "{from:?}");
    parse_program(&source.replace(from, to)).expect("the edit parses")
}

const GAUGE: &str = r#"
    public class Gauge {
        private static int level;
        private static int peak;
        /*: invariant levelNonNeg: "0 <= level"; */

        public static void raise(int by)
        /*: requires "0 <= by" modifies level ensures "level = old level + by" */
        {
            level = level + by;
        }

        public static void reset()
        /*: modifies level ensures "level = 0" */
        {
            level = 0;
        }

        public static void square()
        /*: modifies peak ensures "True" */
        {
            //: assert squared: "level * level >= peak * 0" by lemma squares;
        }
    }
"#;

#[test]
fn an_edited_contract_or_invariant_misses_the_memo() {
    let dispatcher = Dispatcher::with_config(memory());
    let program = parse_program(GAUGE).expect("parse");
    let lemmas = LemmaLibrary::new();
    let first = verify_program_with(&dispatcher, &program, &lemmas);
    assert_eq!(method_hits(&dispatcher), 0);
    let again = verify_program_with(&dispatcher, &program, &lemmas);
    assert_eq!(
        method_hits(&dispatcher),
        3,
        "an unchanged program is answered whole"
    );
    assert_eq!(methods_view(&again), methods_view(&first));
    // MiniJava has no calls, so a method's task holds its own contract and no other
    // method's: editing `raise`'s contract makes `raise` miss and leaves the others.
    let contract = edited(
        GAUGE,
        r#"ensures "level = old level + by""#,
        r#"ensures "level = old level + by & 0 <= level""#,
    );
    let results = verify_program_with(&dispatcher, &contract, &lemmas);
    assert_eq!(method_hits(&dispatcher), 5, "reset and square are answered");
    let fresh = verify_program_with(&Dispatcher::with_config(memory()), &contract, &lemmas);
    assert_eq!(methods_view(&results), methods_view(&fresh));
    // Every public method assumes and re-establishes the class invariants.
    let invariant = edited(
        GAUGE,
        r#""0 <= level""#,
        r#""0 <= level & level <= level + 1""#,
    );
    let results = verify_program_with(&dispatcher, &invariant, &lemmas);
    assert_eq!(method_hits(&dispatcher), 5, "every method misses");
    let fresh = verify_program_with(&Dispatcher::with_config(memory()), &invariant, &lemmas);
    assert_eq!(methods_view(&results), methods_view(&fresh));
}

#[test]
fn a_registered_lemma_or_obligation_misses_the_memo() {
    let dispatcher = Dispatcher::with_config(memory());
    let program = parse_program(GAUGE).expect("parse");
    let square = |results: &[MethodResult]| {
        let r = results
            .iter()
            .find(|r| r.method == "Gauge.square")
            .expect("square");
        (r.verified(), attribution(&r.report))
    };
    let none = LemmaLibrary::new();
    let before = verify_program_with(&dispatcher, &program, &none);
    assert!(!square(&before).0, "the product needs the lemma");
    // A named lemma the hint injects proves the product.
    let mut named = LemmaLibrary::new();
    named.register_lemma(
        "squares",
        parse_form("ALL (x :: int). x * x >= 0").expect("the lemma parses"),
    );
    let with_lemma = verify_program_with(&dispatcher, &program, &named);
    assert_eq!(
        method_hits(&dispatcher),
        0,
        "a new library is a new context"
    );
    let fresh = verify_program_with(&Dispatcher::with_config(memory()), &program, &named);
    assert_eq!(square(&with_lemma), square(&fresh));
    assert!(square(&with_lemma).0, "the lemma proves the product");
    // An obligation registered as interactively proven.
    let task = program_tasks(&program)
        .into_iter()
        .find(|t| t.qualified_name() == "Gauge.square")
        .expect("square's task");
    let mut registered = LemmaLibrary::new();
    for obligation in task.obligations() {
        registered.register(LemmaLibrary::key_of(&obligation));
    }
    let with_proof = verify_program_with(&dispatcher, &program, &registered);
    assert_eq!(
        method_hits(&dispatcher),
        0,
        "a new library is a new context"
    );
    let (verified, provers) = square(&with_proof);
    assert!(verified);
    assert!(provers[&ProverId::Interactive].0 > 0, "{provers:?}");
    // Each library's methods are answered on the next run under it.
    let again = verify_program_with(&dispatcher, &program, &named);
    assert_eq!(method_hits(&dispatcher), 3);
    assert_eq!(square(&again), square(&with_lemma));
}

#[test]
fn a_changed_configuration_misses_the_memo() {
    let program = suite::sized_list();
    let lemmas = LemmaLibrary::new();
    let dispatcher = Dispatcher::with_config(memory());
    verify_program_with(&dispatcher, &program, &lemmas);
    // A clone shares the cache, memo included.
    let mut unrouted = dispatcher.clone();
    unrouted.config.route = false;
    let results = verify_program_with(&unrouted, &program, &lemmas);
    assert_eq!(
        method_hits(&dispatcher),
        0,
        "the configuration is part of the key"
    );
    let fresh_config = DispatcherConfig::builder().route(false).build();
    let fresh = verify_program_with(&Dispatcher::with_config(fresh_config), &program, &lemmas);
    for (result, fresh) in results.iter().zip(&fresh) {
        assert_eq!(
            attribution(&result.report),
            attribution(&fresh.report),
            "{}",
            result.method
        );
    }
    verify_program_with(&unrouted, &program, &lemmas);
    assert_eq!(method_hits(&dispatcher), 2);
}

#[test]
fn a_method_whose_attempt_crashed_is_not_memoised() {
    let program = parse_program(GAUGE).expect("parse");
    let lemmas = LemmaLibrary::new();
    let spec = FaultSpec::parse("smt:panic@1;bapa:panic@1").expect("fault spec");
    let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().faults(spec).build());
    let first = verify_program_with(&dispatcher, &program, &lemmas);
    let crashed = first.iter().filter(|r| r.report.crashes() > 0).count();
    assert!(crashed > 0, "some method reaches SMT or BAPA");
    assert!(crashed < first.len(), "some method is proved without them");
    let second = verify_program_with(&dispatcher, &program, &lemmas);
    assert_eq!(
        method_hits(&dispatcher),
        (first.len() - crashed) as u64,
        "only the methods without a crash are answered"
    );
    for (first, second) in first.iter().zip(&second) {
        assert_eq!(
            first.report.crashes(),
            second.report.crashes(),
            "{}",
            first.method
        );
        assert_eq!(
            attribution(&first.report),
            attribution(&second.report),
            "{}",
            first.method
        );
    }
}

#[test]
fn verifying_the_suite_twice_answers_every_method_from_the_memo() {
    let verifier = Verifier::with_config(memory());
    let first = verifier.verify_suite();
    assert_eq!(verifier.cache_stats().method_hits, 0);
    let second = verifier.verify_suite();
    assert_eq!(verifier.cache_stats().method_hits, 33, "every suite method");
    let total: usize = second.iter().map(|r| r.total_sequents).sum();
    let proved: usize = second.iter().map(|r| r.proved_sequents).sum();
    assert_eq!((proved, total), (159, 159));
    assert!(second.iter().all(|r| r.cache_misses == 0));
    let figure15 = |rows: &[SuiteRow]| -> Vec<(String, Attribution)> {
        rows.iter()
            .map(|r| (r.name.clone(), attribution_of(&r.per_prover)))
            .collect()
    };
    assert_eq!(figure15(&second), figure15(&first));
    // The folded per-method reports come from the report's per-method counts.
    let program = suite::sized_list();
    let (batch, plan) = assemble_program_batch("", &program, &LemmaLibrary::new());
    let dispatcher = Dispatcher::with_config(memory());
    let cold = fold_method_results(&dispatcher.prove_all(&batch), "", &plan);
    let warm = fold_method_results(&dispatcher.prove_all(&batch), "", &plan);
    assert_eq!(methods_view(&cold), methods_view(&warm));
}
