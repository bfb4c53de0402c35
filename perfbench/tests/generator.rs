//! The seeded request generator: reproducible per seed, different across seeds, and
//! `edit_warm` edits that only strengthen preconditions with fresh facts.

use jahob_logic::{Const, Form};
use perfbench::expected::Expected;
use perfbench::mutate;
use perfbench::workload::{Check, Inputs, Workload, EDIT_PREFIX};

fn expected() -> Expected {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.tsv");
    let text = std::fs::read_to_string(path).expect("known-answer file");
    Expected::parse(&text).expect("known-answer file parses")
}

fn stream(inputs: &Inputs, workload: Workload, seed: u64) -> String {
    (0..3)
        .map(|pass| format!("{:?}", inputs.pass(workload, seed, pass)))
        .collect()
}

#[test]
fn one_seed_gives_a_byte_identical_stream() {
    let (a, b) = (
        Inputs::build(&expected()).unwrap(),
        Inputs::build(&expected()).unwrap(),
    );
    for workload in Workload::ALL {
        assert_eq!(stream(&a, workload, 42), stream(&b, workload, 42));
    }
}

#[test]
fn different_seeds_give_different_streams() {
    let inputs = Inputs::build(&expected()).unwrap();
    for workload in Workload::ALL {
        assert_ne!(
            stream(&inputs, workload, 1),
            stream(&inputs, workload, 2),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn known_answers_match_the_suite() {
    let expected = expected();
    let total: usize = expected.structures.iter().map(|s| s.obligations).sum();
    assert_eq!(total, 159, "the Figure 15 totals");
    let inputs = Inputs::build(&expected).expect("every mutant applies");
    assert_eq!(inputs.suite().count(), expected.structures.len());
    for m in &expected.excluded {
        let (_, base) = inputs
            .suite()
            .find(|(name, _)| *name == m.structure)
            .expect("excluded mutant names a suite structure");
        mutate::apply(base, &m.method, &m.mutation)
            .unwrap_or_else(|e| panic!("excluded mutant {}: {e}", m.id));
    }
}

/// `Some(name)` when `requires` is `original & name = n` for an integer literal `n`.
fn fresh_fact(requires: &Form, original: &Form) -> Option<String> {
    let conjuncts = requires.conjuncts();
    let (fact, rest) = conjuncts.split_last()?;
    let rest: Vec<Form> = rest.iter().map(|c| (*c).clone()).collect();
    if Form::and(rest) != *original {
        return None;
    }
    match fact.as_eq()? {
        (Form::Var(name), Form::Const(Const::IntLit(_))) => Some(name.clone()),
        _ => None,
    }
}

#[test]
fn edits_only_add_a_fresh_requires_conjunct() {
    let inputs = Inputs::build(&expected()).unwrap();
    for seed in 0..4 {
        for pass in 0..4 {
            for request in inputs.pass(Workload::EditWarm, seed, pass) {
                let structure = request.label.split(" [").next().unwrap();
                let (_, base) = inputs.suite().find(|(n, _)| *n == structure).unwrap();
                assert!(matches!(request.check, Check::Verified { .. }));
                let mut edited = 0;
                for (b, e) in base.methods().zip(request.program.methods()) {
                    assert_eq!(b.0.name, e.0.name, "methods stay in their classes");
                    let (b, e) = (b.1, e.1);
                    if b == e {
                        continue;
                    }
                    edited += 1;
                    let mut unedited = e.clone();
                    unedited.contract.requires = b.contract.requires.clone();
                    assert_eq!(&unedited, b, "only requires changes");
                    let var = fresh_fact(&e.contract.requires, &b.contract.requires)
                        .unwrap_or_else(|| panic!("{}: not `requires & v = n`", request.label));
                    assert!(var.starts_with(EDIT_PREFIX));
                    assert!(
                        !format!("{b:?}").contains(&var),
                        "{var} is not fresh in {}",
                        b.name
                    );
                }
                assert!(edited >= 1, "{}: nothing edited", request.label);
            }
        }
    }
}
