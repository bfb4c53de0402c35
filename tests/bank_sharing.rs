//! One formula bank shared by a whole batch must not let one obligation's normal
//! forms leak into another's.
//!
//! The dispatcher interns every obligation of a `prove_all` batch into one bank per
//! worker and memoises inlining, keying and the syntactic checks per node. A memo keyed
//! too coarsely would hand one obligation another's inlined goal, and a cached
//! "proved" verdict would then answer a sequent no prover saw. This harness interns
//! every obligation of the §7 suite into one shared bank, once in batch order and once
//! in reverse, and checks each obligation's inlined sequent, cache-key text, variable
//! classes and syntactic verdict against a reference computed for that obligation
//! alone on `Form` trees by `crates/logic/tests/reference`: its one-pass inlining, and
//! its key form and canonical form, with the key text and syntactic checks as they
//! were before the bank.

#[path = "../crates/logic/tests/reference/mod.rs"]
mod reference;

use jahob_repro::frontend::program_tasks;
use jahob_repro::jahob::suite;
use jahob_repro::logic::simplify::strip_comments_deep;
use jahob_repro::logic::{Form, Sequent};
use jahob_repro::provers::inst::apply_inst_hints;
use jahob_repro::provers::{syntactic_prover_on, KeyBank, LemmaLibrary, ProverContext, SequentKey};
use reference::simplify::simplify;
use std::collections::BTreeSet;

/// The key text of an inlined sequent: its assumptions' key forms, without `True`,
/// sorted and deduplicated, then its goal's.
fn key_text(inlined: &Sequent) -> String {
    let mut assumptions: Vec<String> = inlined
        .assumptions
        .iter()
        .map(reference::key_form)
        .filter(|a| !a.is_true())
        .map(|a| a.to_string())
        .collect();
    assumptions.sort();
    assumptions.dedup();
    format!(
        "{} |- {}",
        assumptions.join(" ;; "),
        reference::key_form(&inlined.goal)
    )
}

/// One pass of the syntactic checks on `Form` trees.
fn trivially_valid(sequent: &Sequent, canonical: bool) -> bool {
    let norm = |f: &Form| {
        if canonical {
            reference::canonicalize(f)
        } else {
            simplify(&strip_comments_deep(f))
        }
    };
    let goal = norm(&sequent.goal);
    if goal.is_true() || goal.as_eq().is_some_and(|(l, r)| l == r) {
        return true;
    }
    let assumptions: Vec<Form> = sequent.assumptions.iter().map(norm).collect();
    if assumptions.iter().any(Form::is_false) {
        return true;
    }
    let mut available: BTreeSet<Form> = BTreeSet::new();
    for a in &assumptions {
        for c in a.conjuncts() {
            available.insert(c.clone());
            if let Some((l, r)) = c.as_eq() {
                available.insert(Form::eq(r.clone(), l.clone()));
            }
        }
    }
    goal.conjuncts()
        .iter()
        .all(|c| available.contains(*c) || c.as_eq().is_some_and(|(l, r)| l == r) || c.is_true())
}

/// The syntactic prover's verdict on an inlined sequent: the plain checks, then the
/// canonical checks after inlining it a second time.
fn syntactic(inlined: &Sequent) -> bool {
    trivially_valid(inlined, false)
        || trivially_valid(&reference::inline_definitions(inlined), true)
}

/// The set/function classes of `vars` (in name order) under `context`.
fn classes<'a>(context: &ProverContext, vars: impl IntoIterator<Item = &'a str>) -> String {
    let mut out = String::new();
    for v in vars {
        if context.set_vars.contains(v) {
            out.push_str(&format!("S:{v};"));
        }
        if context.fun_vars.contains(v) {
            out.push_str(&format!("F:{v};"));
        }
    }
    out
}

/// Every suite obligation as generated and, when it has hints, instantiated and
/// hint-filtered, with its method's context.
fn suite_variants() -> Vec<(String, Sequent, ProverContext)> {
    let lemmas = LemmaLibrary::new();
    let mut variants = Vec::new();
    for entry in suite::full_suite() {
        for task in program_tasks(&entry.program) {
            let context = task.prover_context(&lemmas);
            for (i, ob) in task.obligations().into_iter().enumerate() {
                let name = format!("{}#{i}", task.qualified_name());
                if !ob.hints.is_empty() {
                    let inst = apply_inst_hints(&ob.sequent, &ob.hints);
                    let hinted = apply_inst_hints(&ob.hinted_sequent(), &ob.hints);
                    variants.push((format!("{name} inst"), inst, context.clone()));
                    variants.push((format!("{name} hinted"), hinted, context.clone()));
                }
                variants.push((name, ob.sequent, context.clone()));
            }
        }
    }
    variants
}

#[test]
fn a_shared_bank_normalises_every_suite_obligation_as_it_would_alone() {
    let variants = suite_variants();
    let expected: Vec<(Sequent, String, String, bool)> = variants
        .iter()
        .map(|(_, sequent, context)| {
            let inlined = reference::inline_definitions(sequent);
            let key = key_text(&inlined);
            let vars = inlined.free_vars();
            let classes = classes(context, vars.iter().map(String::as_str));
            let proved = syntactic(&inlined);
            (inlined, key, classes, proved)
        })
        .collect();
    assert!(variants.len() > 159, "{} variants", variants.len());
    for reversed in [false, true] {
        let mut order: Vec<usize> = (0..variants.len()).collect();
        if reversed {
            order.reverse();
        }
        let mut keys = KeyBank::new();
        for i in order {
            let (name, sequent, context) = &variants[i];
            let (inlined, key, var_classes, proved) = &expected[i];
            let interned = keys.bank.intern_sequent(sequent);
            let banked = keys.bank.inline_definitions(&interned);
            assert_eq!(
                &keys.bank.materialise_sequent(&banked),
                inlined,
                "{name}: inlined sequent"
            );
            assert_eq!(keys.key(&banked).repr(), key, "{name}: key");
            let vars = keys.bank.sequent_free_vars(&banked);
            assert_eq!(&classes(context, vars), var_classes, "{name}: classes");
            assert_eq!(
                syntactic_prover_on(&mut keys.bank, &banked),
                *proved,
                "{name}: syntactic verdict"
            );
        }
    }
    // The public one-off entry points agree too.
    for ((name, sequent, _), (_, key, _, _)) in variants.iter().zip(&expected).take(40) {
        assert_eq!(SequentKey::of(sequent).repr(), key, "{name}: fresh key");
    }
}
