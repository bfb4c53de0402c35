//! SMT's and FOL's front end on a shared formula bank against the `Form` reference.
//!
//! The dispatcher approximates, grounds and clausifies each sequent on its worker's
//! bank, memoised per node, so a formula shared by several sequents is translated
//! once. A memo keyed too coarsely would hand one sequent another's translation. This
//! harness takes every sequent SMT or FOL can be handed on the §7 suite and on the
//! mutated methods of perfbench's known-wrong mutants: each obligation's inlined
//! sequent, with its `inst` instances, and its hint-filtered variant. It translates
//! all of them on one shared bank, once in order and once reversed, and checks each
//! against `crates/smt/tests/reference`, which translates the sequent alone on `Form`
//! trees: the ground clause list (the atoms in index order, then every clause), the
//! SMT verdict under the dispatcher's 32-step fuel, and FOL's clause set.

#[path = "../crates/smt/tests/reference/mod.rs"]
mod reference;

#[path = "../perfbench/src/mutate.rs"]
#[allow(dead_code)]
mod mutate;

#[path = "../perfbench/src/expected.rs"]
#[allow(dead_code)]
mod expected;

use jahob_repro::folp::{implication_to_clauses, Clause, TranslateOptions, TranslationOverflow};
use jahob_repro::frontend::{program_tasks, MethodTask, Program};
use jahob_repro::jahob::suite;
use jahob_repro::logic::approx::first_order_implication;
use jahob_repro::logic::bank::Bank;
use jahob_repro::logic::norm::inline_definitions;
use jahob_repro::logic::{Form, Sequent};
use jahob_repro::provers::inst::apply_inst_hints;
use jahob_repro::provers::LemmaLibrary;
use jahob_repro::smt::{ground_clauses, prove_interned, SmtMemo, SmtOptions};
use std::collections::BTreeSet;

/// One sequent a prover can be handed, with its context's variable classes.
struct Variant {
    name: String,
    sequent: Sequent,
    set_vars: BTreeSet<String>,
    fun_vars: BTreeSet<String>,
}

/// The inlined sequents of `tasks`' obligations: with `inst` instances, and
/// hint-filtered when the obligation has hints.
fn variants_of(tasks: &[MethodTask], out: &mut Vec<Variant>, seen: &mut BTreeSet<String>) {
    let lemmas = LemmaLibrary::new();
    for task in tasks {
        let context = task.prover_context(&lemmas);
        for (i, ob) in task.obligations().into_iter().enumerate() {
            let mut sequents = vec![apply_inst_hints(&ob.sequent, &ob.hints)];
            if !ob.hints.is_empty() {
                sequents.push(apply_inst_hints(&ob.hinted_sequent(), &ob.hints));
            }
            for (k, sequent) in sequents.iter().enumerate() {
                let sequent = inline_definitions(sequent);
                let text = format!("{:?} {:?} {sequent}", context.set_vars, context.fun_vars);
                if seen.insert(text) {
                    out.push(Variant {
                        name: format!("{}#{i}.{k}", task.qualified_name()),
                        sequent,
                        set_vars: context.set_vars.clone(),
                        fun_vars: context.fun_vars.clone(),
                    });
                }
            }
        }
    }
}

/// The suite's sequents, then those of every mutated method of
/// `perfbench/expected.tsv`.
fn variants() -> Vec<Variant> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    let entries = suite::full_suite();
    for entry in &entries {
        variants_of(&program_tasks(&entry.program), &mut out, &mut seen);
    }
    let text = include_str!("../perfbench/expected.tsv");
    let known = expected::Expected::parse(text).expect("known answers parse");
    for m in &known.mutants {
        let base: &Program = &entries
            .iter()
            .find(|e| e.name == m.structure)
            .expect("a suite structure")
            .program;
        let program = mutate::apply(base, &m.method, &m.mutation).expect("mutant applies");
        let tasks: Vec<MethodTask> = program_tasks(&program)
            .into_iter()
            .filter(|t| t.qualified_name() == m.method)
            .collect();
        variants_of(&tasks, &mut out, &mut seen);
    }
    out
}

fn smt_options(v: &Variant) -> SmtOptions {
    let mut options = SmtOptions {
        set_vars: v.set_vars.clone(),
        fun_vars: v.fun_vars.clone(),
        ..SmtOptions::default()
    };
    options.ground_limits.max_steps = 32;
    options
}

/// FOL's clauses of the `Form` approximation.
fn fol_reference(v: &Variant) -> Result<Vec<Clause>, TranslationOverflow> {
    let (assumptions, goal) = first_order_implication(&v.sequent, &v.set_vars, &v.fun_vars);
    implication_to_clauses(&assumptions, &goal, &fol_options(v))
}

fn fol_options(v: &Variant) -> TranslateOptions {
    TranslateOptions {
        set_vars: v.set_vars.clone(),
        fun_vars: v.fun_vars.clone(),
        ..TranslateOptions::new()
    }
}

#[test]
fn a_shared_bank_translates_every_sequent_as_the_form_reference_does() {
    let variants = variants();
    assert!(variants.len() > 150, "{} variants", variants.len());
    let expected: Vec<_> = variants
        .iter()
        .map(|v| {
            let options = smt_options(v);
            (
                reference::front_end::ground_clauses(&v.sequent, &options),
                reference::front_end::prove_sequent(&v.sequent, &options),
                fol_reference(v),
            )
        })
        .collect();
    // The sample holds proofs, countermodels and step-capped searches.
    let outcomes: BTreeSet<String> = expected
        .iter()
        .map(|(_, r, _)| format!("{:?}", r.outcome))
        .collect();
    assert!(outcomes.len() >= 3, "{outcomes:?}");
    for reversed in [false, true] {
        let mut order: Vec<usize> = (0..variants.len()).collect();
        if reversed {
            order.reverse();
        }
        let mut bank = Bank::new();
        let mut memo = SmtMemo::default();
        for i in order {
            let (v, (clauses, result, fol)) = (&variants[i], &expected[i]);
            let options = smt_options(v);
            let interned = bank.intern_sequent(&v.sequent);
            assert_eq!(
                &ground_clauses(&mut bank, &interned, &options, &mut memo),
                clauses,
                "{}: ground clauses",
                v.name
            );
            assert_eq!(
                &prove_interned(&mut bank, &interned, &options, &mut memo),
                result,
                "{}: SMT result",
                v.name
            );
            let vars = bank.first_order_vars(&v.set_vars, &v.fun_vars);
            let (assumptions, goal) =
                bank.first_order_implication(&interned.assumptions, interned.goal, vars);
            let assumptions: Vec<Form> = assumptions.iter().map(|a| bank.materialise(*a)).collect();
            assert_eq!(
                &implication_to_clauses(&assumptions, &bank.materialise(goal), &fol_options(v)),
                fol,
                "{}: FOL clauses",
                v.name
            );
        }
    }
}
