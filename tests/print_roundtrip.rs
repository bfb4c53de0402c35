//! Printed formulas parse back to themselves.
//!
//! Cache keys, the proof store, reports and the provers' opaque symbol names all carry
//! formulas as printed text, so the printer must spell every operator the way
//! `parse_form` reads it. This checks every assumption and goal of the §7 suite's
//! obligations: as generated, after definition inlining and after canonicalisation.

use jahob_repro::frontend::program_tasks;
use jahob_repro::jahob::suite;
use jahob_repro::logic::norm::{canonicalize, inline_definitions};
use jahob_repro::logic::{parse_form, Form};

#[test]
fn every_suite_formula_parses_back_from_its_printed_text() {
    let (mut obligations, mut checked) = (0, 0);
    let mut failures = Vec::new();
    for entry in suite::full_suite() {
        for task in program_tasks(&entry.program) {
            for ob in task.obligations() {
                obligations += 1;
                let inlined = inline_definitions(&ob.sequent);
                let raw = ob.sequent.assumptions.iter().chain([&ob.sequent.goal]);
                let inlined_forms = inlined.assumptions.iter().chain([&inlined.goal]);
                let canonical: Vec<Form> = inlined_forms.clone().map(canonicalize).collect();
                for form in raw.chain(inlined_forms).chain(&canonical) {
                    checked += 1;
                    let text = form.to_string();
                    match parse_form(&text) {
                        Ok(back) if back == *form => {}
                        Ok(back) => failures.push(format!("{text}\n  reads back as {back}")),
                        Err(e) => failures.push(format!("{text}\n  does not parse: {e}")),
                    }
                }
            }
        }
    }
    assert_eq!(obligations, 159);
    assert!(
        failures.is_empty(),
        "{} of {checked} printed formulas do not parse back, first:\n{}",
        failures.len(),
        failures[0]
    );
}
