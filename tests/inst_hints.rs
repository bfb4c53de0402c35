//! Pins the end-to-end value of `by inst` quantifier-instantiation hints (§3.5).
//!
//! Two suite methods — the hash table's bucket-membership lemma and the binary search
//! tree's ordering step — carry assertions whose proof needs a universally quantified
//! assumption specialised at a *compound* set witness. No prover finds that witness on
//! its own: the SMT interface only instantiates with ground candidate terms already in
//! the sequent, the resolution prover cannot bridge the cardinality arithmetic, and
//! BAPA/MONA cannot see through the quantifier. This harness asserts both directions:
//! with the hint the obligations are proved (identically across the whole
//! threads × cache × route matrix), and with the hint stripped they land in
//! `unproved` — so the hints are doing real work, not decorating sequents some prover
//! could discharge anyway.

use jahob_repro::frontend::{Program, Stmt};
use jahob_repro::jahob::{self, suite, VerifyOptions};

/// The two structures whose specs need instantiation hints, with the labels of the
/// hinted assertions.
fn hinted_programs() -> Vec<(&'static str, Program, &'static str)> {
    vec![
        ("Hash Table", suite::hash_table(), "residueBound"),
        (
            "Binary Search Tree",
            suite::binary_search_tree(),
            "splitBound",
        ),
    ]
}

/// Removes every `inst` hint from the program's assert/note statements (labels and
/// lemma hints are kept), recursing through control flow.
fn strip_inst_hints(program: &Program) -> Program {
    fn strip_stmts(stmts: &mut [Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::SpecAssert { hints, .. } | Stmt::SpecNote { hints, .. } => {
                    hints.retain(|h| !h.is_inst());
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    strip_stmts(then_branch);
                    strip_stmts(else_branch);
                }
                Stmt::While { body, .. } => strip_stmts(body),
                _ => {}
            }
        }
    }
    let mut stripped = program.clone();
    for class in &mut stripped.classes {
        for method in &mut class.methods {
            strip_stmts(&mut method.body);
        }
    }
    stripped
}

fn options(threads: usize, cache: bool, route: bool) -> VerifyOptions {
    let mode = if cache {
        jahob::CacheMode::Memory
    } else {
        jahob::CacheMode::Off
    };
    VerifyOptions {
        dispatcher: jahob::DispatcherConfig::builder()
            .threads(threads)
            .cache(mode)
            .route(route)
            .build(),
        ..VerifyOptions::default()
    }
}

#[test]
fn inst_hinted_suite_methods_are_fully_proved() {
    for (name, program, _) in hinted_programs() {
        for result in jahob::verify_program(&program, &options(1, true, true)) {
            assert!(
                result.verified(),
                "{name}::{} with inst hints: {:?}",
                result.method,
                result.report.unproved
            );
        }
    }
}

#[test]
fn stripping_the_inst_hint_loses_exactly_the_hinted_obligations() {
    for (name, program, label) in hinted_programs() {
        let stripped = strip_inst_hints(&program);
        assert_ne!(stripped, program, "{name}: stripping must remove a hint");
        let unproved: Vec<String> = jahob::verify_program(&stripped, &options(1, true, true))
            .iter()
            .flat_map(|r| r.report.unproved.clone())
            .collect();
        // Builder configs run with fuel budgets on, and without the witness MONA,
        // SMT and FOL all search until their fuel runs out, so the line names them.
        assert_eq!(
            unproved,
            vec![format!("{label} [out of fuel: mona, smt, fol]")],
            "{name}: without its inst hint exactly the `{label}` assertion must fail"
        );
    }
}

#[test]
fn inst_hints_prove_identically_across_the_dispatch_matrix() {
    // The instantiated sequents flow through routing, the cache (keyed per witness)
    // and the work-stealing queue like any other obligation: every configuration must
    // prove the identical set, in the identical deterministic report order.
    let verdicts = |opts: &VerifyOptions| -> Vec<(String, usize, usize, Vec<String>)> {
        hinted_programs()
            .iter()
            .flat_map(|(name, program, _)| {
                jahob::verify_program(program, opts)
                    .into_iter()
                    .map(move |r| {
                        (
                            format!("{name}::{}", r.method),
                            r.report.proved_sequents,
                            r.report.total_sequents,
                            r.report.unproved,
                        )
                    })
            })
            .collect()
    };
    let baseline = verdicts(&options(1, false, true));
    assert!(baseline.iter().all(|(_, p, t, _)| p == t), "{baseline:?}");
    for threads in [1usize, 2, 4, 8] {
        for cache in [false, true] {
            for route in [false, true] {
                let run = verdicts(&options(threads, cache, route));
                assert_eq!(
                    baseline, run,
                    "threads={threads} cache={cache} route={route} diverged"
                );
            }
        }
    }
}
