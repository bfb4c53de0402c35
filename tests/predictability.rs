//! A verdict must not hinge on how a sequent happens to be written.
//!
//! SMT keeps the first candidate terms of a sequent in the bank's order, which compares
//! names by their text, and the provers read assumptions in list order. So a renaming
//! or a reordered assumption list could change which terms SMT keeps or where a search
//! ends. This harness takes every obligation of the §7 suite and of the mutated methods
//! of perfbench's known-wrong mutants (`perfbench/expected.tsv`, read through `#[path]`).
//! It renames every user name by the bijection that reverses their text order and
//! reverses the assumptions, and requires the same verdict and the same attempt and
//! fuel-abort count per prover as the obligation as written, under the default
//! (budgeted, routed) configuration without a cache. Names the provers treat specially
//! keep their names: generated names (those with a `$`, or a `_` and digits, whose
//! definitions inlining substitutes) and the names of the standard type environment
//! (`alloc`, `arrayState`, `Array.length`, `Object` and `Array`), which SMT's array
//! reads and the `inst` pass's typecheck read. `null` is a constant, not a name.

#[path = "../perfbench/src/mutate.rs"]
#[allow(dead_code)]
mod mutate;

#[path = "../perfbench/src/expected.rs"]
#[allow(dead_code)]
mod expected;

use jahob_repro::frontend::{program_tasks, MethodTask, Program};
use jahob_repro::jahob::suite;
use jahob_repro::logic::norm::is_generated_name;
use jahob_repro::logic::{Form, Sequent, TypeEnv};
use jahob_repro::prelude::*;
use jahob_repro::provers::{Dispatcher, LemmaLibrary, ProverContext, VerificationReport};
use jahob_repro::vcgen::{Hint, ProofObligation};
use std::collections::{BTreeMap, BTreeSet};

fn user_names(f: &Form, out: &mut BTreeSet<String>) {
    let mut add = |name: &String| {
        if !is_generated_name(name) && !TypeEnv::standard().contains(name) {
            out.insert(name.clone());
        }
    };
    match f {
        Form::Var(v) => add(v),
        Form::Const(_) => {}
        Form::App(head, args) => {
            user_names(head, out);
            for a in args {
                user_names(a, out);
            }
        }
        Form::Binder(_, vars, body) => {
            for (v, _) in vars {
                add(v);
            }
            user_names(body, out);
        }
        Form::Typed(e, _) => user_names(e, out),
    }
}

fn rename(f: &Form, map: &BTreeMap<String, String>) -> Form {
    let name = |n: &String| map.get(n).unwrap_or(n).clone();
    match f {
        Form::Var(v) => Form::Var(name(v)),
        Form::Const(c) => Form::Const(c.clone()),
        Form::App(head, args) => Form::App(
            Box::new(rename(head, map)),
            args.iter().map(|a| rename(a, map)).collect(),
        ),
        Form::Binder(b, vars, body) => Form::Binder(
            *b,
            vars.iter().map(|(v, t)| (name(v), t.clone())).collect(),
            Box::new(rename(body, map)),
        ),
        Form::Typed(e, t) => Form::Typed(Box::new(rename(e, map)), t.clone()),
    }
}

/// The obligation and its context with every user name renamed by the bijection that
/// reverses their text order, and the assumptions reversed.
fn disguised(ob: &ProofObligation, context: &ProverContext) -> (ProofObligation, ProverContext) {
    let mut names = BTreeSet::new();
    for f in ob.sequent.assumptions.iter().chain([&ob.sequent.goal]) {
        user_names(f, &mut names);
    }
    for hint in &ob.hints {
        if let Hint::Inst { var, witness } = hint {
            user_names(&Form::var(var.clone()), &mut names);
            user_names(witness, &mut names);
        }
    }
    let map: BTreeMap<String, String> = names
        .iter()
        .cloned()
        .zip(names.iter().rev().cloned())
        .collect();
    let mut assumptions: Vec<Form> = ob
        .sequent
        .assumptions
        .iter()
        .map(|a| rename(a, &map))
        .collect();
    assumptions.reverse();
    let sequent = Sequent {
        assumptions,
        goal: rename(&ob.sequent.goal, &map),
        labels: ob.sequent.labels.clone(),
    };
    let hints = ob
        .hints
        .iter()
        .map(|hint| match hint {
            Hint::Inst { var, witness } => {
                Hint::inst(map.get(var).unwrap_or(var).clone(), rename(witness, &map))
            }
            other => other.clone(),
        })
        .collect();
    let classes = |vars: &BTreeSet<String>| -> BTreeSet<String> {
        vars.iter()
            .map(|v| map.get(v).unwrap_or(v).clone())
            .collect()
    };
    let context = ProverContext {
        set_vars: classes(&context.set_vars),
        fun_vars: classes(&context.fun_vars),
        lemmas: context.lemmas.clone(),
    };
    (ProofObligation { sequent, hints }, context)
}

/// The verdict and, per prover, proofs, attempts and fuel aborts.
fn outcome(report: &VerificationReport) -> (usize, BTreeMap<ProverId, (usize, usize, usize)>) {
    let provers = report
        .per_prover
        .iter()
        .map(|(id, s)| (*id, (s.proved, s.attempted, s.budget_aborts)))
        .collect();
    (report.proved_sequents, provers)
}

/// Proves every obligation of `tasks` as written and disguised, and returns how many
/// it compared.
fn compare(tasks: &[MethodTask]) -> usize {
    let dispatcher =
        Dispatcher::with_config(DispatcherConfig::builder().cache(CacheMode::Off).build());
    let lemmas = LemmaLibrary::new();
    let mut compared = 0;
    for task in tasks {
        let context = task.prover_context(&lemmas);
        for (i, ob) in task.obligations().iter().enumerate() {
            let (renamed, renamed_context) = disguised(ob, &context);
            assert_ne!(&renamed, ob, "{}#{i} is disguised", task.qualified_name());
            let written = dispatcher.prove_one(ob, &context);
            let disguised = dispatcher.prove_one(&renamed, &renamed_context);
            assert_eq!(written.crashes(), 0);
            assert_eq!(
                outcome(&written),
                outcome(&disguised),
                "{}#{i}: {}",
                task.qualified_name(),
                ob.sequent.describe()
            );
            compared += 1;
        }
    }
    compared
}

#[test]
fn renaming_and_reordering_change_no_suite_verdict_or_attempt() {
    let tasks: Vec<MethodTask> = suite::full_suite()
        .iter()
        .flat_map(|entry| program_tasks(&entry.program))
        .collect();
    assert_eq!(compare(&tasks), 159);
}

#[test]
fn renaming_and_reordering_change_no_mutant_verdict_or_attempt() {
    let entries = suite::full_suite();
    let known = expected::Expected::parse(include_str!("../perfbench/expected.tsv"))
        .expect("known answers parse");
    let mut tasks = Vec::new();
    for m in &known.mutants {
        let base: &Program = &entries
            .iter()
            .find(|e| e.name == m.structure)
            .expect("a suite structure")
            .program;
        let program = mutate::apply(base, &m.method, &m.mutation).expect("mutant applies");
        tasks.extend(
            program_tasks(&program)
                .into_iter()
                .filter(|t| t.qualified_name() == m.method),
        );
    }
    assert_eq!(tasks.len(), known.mutants.len());
    assert_eq!(compare(&tasks), 190);
}
