//! Every prover's front end on a shared formula bank against the `Form` reference.
//!
//! The dispatcher approximates, grounds and clausifies each sequent on its worker's
//! bank, memoised per node, so a formula shared by several sequents is translated
//! once. A memo keyed too coarsely would hand one sequent another's translation: the
//! approximation, for one, is memoised per fragment, node and polarity, and a memo
//! that left out the fragment would hand MONA SMT's approximation. This harness takes
//! every sequent a prover can be handed on the §7 suite and on the mutated methods of
//! perfbench's known-wrong mutants: each obligation's inlined sequent, with its `inst`
//! instances, and its hint-filtered variant. It translates all of them on one shared
//! bank, once in order and once reversed, and checks each against the `Form` front
//! ends (`crates/smt/tests/reference` and the logic crate's oracle it includes), which
//! translate the sequent alone: SMT's ground clause list (the atoms in index order,
//! then every clause) and its verdict under the dispatcher's 32-step fuel, FOL's
//! clause set, MONA's approximated implication, and BAPA's approximated implication
//! and the negation normal forms its reduction reads. MONA's verdict under both of the
//! dispatcher's fuel caps and BAPA's verdict on the shared bank must equal
//! `prove_sequent`'s on a fresh bank.

#[path = "../crates/smt/tests/reference/mod.rs"]
mod reference;

#[path = "../perfbench/src/mutate.rs"]
#[allow(dead_code)]
mod mutate;

#[path = "../perfbench/src/expected.rs"]
#[allow(dead_code)]
mod expected;

use jahob_repro::bapa::{self, BapaOptions, BapaResult};
use jahob_repro::folp::{
    implication_to_clauses, interned_to_clauses, Clause, TranslateOptions, TranslationOverflow,
};
use jahob_repro::frontend::{program_tasks, MethodTask, Program};
use jahob_repro::jahob::suite;
use jahob_repro::logic::bank::{Bank, NodeId};
use jahob_repro::logic::norm::inline_definitions;
use jahob_repro::logic::{Form, Sequent};
use jahob_repro::mona::{self, MonaOptions, MonaResult};
use jahob_repro::provers::inst::apply_inst_hints;
use jahob_repro::provers::LemmaLibrary;
use jahob_repro::smt::{
    ground_clauses, prove_interned, GroundClauses, SmtMemo, SmtOptions, SmtResult,
};
use reference::logic::approx::{
    bapa_implication, bapa_refutation, first_order_implication, monadic_implication,
};
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

/// FOL's clauses of the `Form` approximation, clausified on a fresh bank.
fn fol_reference(v: &Variant) -> Result<Vec<Clause>, TranslationOverflow> {
    let (assumptions, goal) = first_order_implication(&v.sequent, &v.set_vars, &v.fun_vars);
    let mut bank = Bank::new();
    let assumptions: Vec<NodeId> = assumptions.iter().map(|a| bank.intern(a)).collect();
    let goal = bank.intern(&goal);
    implication_to_clauses(&mut bank, &assumptions, goal, &fol_options(v))
}

fn fol_options(v: &Variant) -> TranslateOptions {
    TranslateOptions {
        set_vars: v.set_vars.clone(),
        fun_vars: v.fun_vars.clone(),
        ..TranslateOptions::new()
    }
}

/// The dispatcher's two MONA fuel caps, `(max_work, max_states)`: the small one for
/// most sequents, the large one for sequents that bind a set.
const MONA_CAPS: [(u64, usize); 2] = [(150_000, 256), (2_000_000, 768)];

fn mona_options((max_work, max_states): (u64, usize)) -> MonaOptions {
    MonaOptions {
        max_work,
        max_states,
        ..MonaOptions::default()
    }
}

/// What the `Form` front ends and a fresh bank give for one sequent alone.
struct Expected {
    ground: Result<GroundClauses, usize>,
    smt: SmtResult,
    fol: Result<Vec<Clause>, TranslationOverflow>,
    monadic: (Vec<Form>, Form),
    mona: Vec<MonaResult>,
    bapa: (Vec<Form>, Form),
    bapa_refutation: Vec<Form>,
    bapa_result: BapaResult,
}

fn expected(v: &Variant) -> Expected {
    let options = smt_options(v);
    let bapa = bapa_implication(&v.sequent);
    Expected {
        ground: reference::front_end::ground_clauses(&v.sequent, &options),
        smt: reference::front_end::prove_sequent(&v.sequent, &options),
        fol: fol_reference(v),
        monadic: monadic_implication(&v.sequent),
        mona: MONA_CAPS
            .iter()
            .map(|cap| mona::prove_sequent(&v.sequent, &mona_options(*cap)))
            .collect(),
        bapa_refutation: bapa_refutation(&bapa.0, &bapa.1),
        bapa,
        bapa_result: bapa::prove_sequent(&v.sequent, &BapaOptions::default()),
    }
}

/// An approximated implication in `bank`, as formulas.
fn materialised(bank: &Bank, (assumptions, goal): (Vec<NodeId>, NodeId)) -> (Vec<Form>, Form) {
    let assumptions = assumptions.iter().map(|a| bank.materialise(*a)).collect();
    (assumptions, bank.materialise(goal))
}

#[test]
fn a_shared_bank_translates_every_sequent_as_the_form_reference_does() {
    let variants = variants();
    assert!(variants.len() > 150, "{} variants", variants.len());
    let expected: Vec<Expected> = variants.iter().map(expected).collect();
    // The sample holds proofs, countermodels and step-capped searches, and proofs
    // and failures of MONA and BAPA.
    let outcomes: BTreeSet<String> = expected
        .iter()
        .map(|e| format!("{:?}", e.smt.outcome))
        .collect();
    assert!(outcomes.len() >= 3, "{outcomes:?}");
    for proved in [true, false] {
        assert!(expected.iter().any(|e| e.mona[1].proved == proved));
        assert!(expected.iter().any(|e| e.bapa_result.proved == proved));
    }
    for reversed in [false, true] {
        let mut order: Vec<usize> = (0..variants.len()).collect();
        if reversed {
            order.reverse();
        }
        let mut bank = Bank::new();
        let mut memo = SmtMemo::default();
        for i in order {
            let (v, e) = (&variants[i], &expected[i]);
            let options = smt_options(v);
            let interned = bank.intern_sequent(&v.sequent);
            assert_eq!(
                ground_clauses(&mut bank, &interned, &options, &mut memo),
                e.ground,
                "{}: ground clauses",
                v.name
            );
            assert_eq!(
                prove_interned(&mut bank, &interned, &options, &mut memo),
                e.smt,
                "{}: SMT result",
                v.name
            );
            assert_eq!(
                interned_to_clauses(&mut bank, &interned, &fol_options(v)),
                e.fol,
                "{}: FOL clauses",
                v.name
            );
            let monadic = mona::approximate(&mut bank, &interned);
            assert_eq!(materialised(&bank, monadic), e.monadic, "{}: MONA", v.name);
            for (cap, result) in MONA_CAPS.iter().zip(&e.mona) {
                let options = mona_options(*cap);
                let shared = mona::prove_interned(&mut bank, &interned, &options);
                assert_eq!(&shared, result, "{}: MONA result under {cap:?}", v.name);
            }
            let (assumptions, goal) = bapa::approximate(&mut bank, &interned);
            let negated = bank.not(goal);
            let refutation: Vec<Form> = assumptions
                .iter()
                .chain([&negated])
                .map(|f| {
                    let normal = bank.nnf(*f);
                    bank.materialise(normal)
                })
                .collect();
            assert_eq!(
                materialised(&bank, (assumptions, goal)),
                e.bapa,
                "{}: BAPA",
                v.name
            );
            assert_eq!(refutation, e.bapa_refutation, "{}: BAPA NNF", v.name);
            assert_eq!(
                bapa::prove_interned(&mut bank, &interned, &BapaOptions::default()),
                e.bapa_result,
                "{}: BAPA result",
                v.name
            );
        }
    }
}
