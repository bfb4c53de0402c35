//! Pins the one-pass definition inlining against the fixpoint it replaced.
//!
//! `definition_substitution` used to resolve definition chains by rewriting every
//! binding with the whole map, round after round, until nothing changed. It now
//! resolves each binding once, depth first. Provers and cache keys must not see the
//! difference, so this harness keeps the old loop as a test-local oracle and compares
//! the inlined sequents structurally on every obligation of the §7 suite: as generated,
//! with `inst` hints applied, and hint-filtered.

use jahob_repro::frontend::program_tasks;
use jahob_repro::jahob::suite;
use jahob_repro::logic::norm::{inline_definitions, is_generated_name};
use jahob_repro::logic::simplify::{simplify, strip_comments_deep};
use jahob_repro::logic::subst::{free_vars, substitute, Subst};
use jahob_repro::logic::{Const, Form, Ident, Sequent};
use jahob_repro::provers::inst::apply_inst_hints;

/// The fixpoint `definition_substitution`: collect the definitional links, then
/// rewrite every binding by the whole map until nothing changes (at most one round
/// per binding; a rewrite that would mention its own variable is skipped).
fn fixpoint_substitution(assumptions: &[Form]) -> Subst {
    let mut map = Subst::new();
    for a in assumptions {
        let stripped = strip_comments_deep(a);
        for c in stripped.conjuncts() {
            let link = c.as_eq().or_else(|| {
                c.as_app_of(&Const::Iff).and_then(|args| match args {
                    [l, r] => Some((l, r)),
                    _ => None,
                })
            });
            let Some((l, r)) = link else { continue };
            for (lhs, rhs) in [(l, r), (r, l)] {
                let Form::Var(v) = lhs else { continue };
                if !is_generated_name(v) || map.contains_key(v) || free_vars(rhs).contains(v) {
                    continue;
                }
                map.insert(v.clone(), rhs.clone());
                break;
            }
        }
    }
    let names: Vec<Ident> = map.keys().cloned().collect();
    for _ in 0..names.len() {
        let mut changed = false;
        for v in &names {
            let current = map[v].clone();
            let next = substitute(&current, &map);
            if next != current && !free_vars(&next).contains(v) {
                map.insert(v.clone(), next);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    map
}

/// The fixpoint `inline_definitions`, substituting the map into each formula.
fn fixpoint_inline(sequent: &Sequent) -> Sequent {
    let sub = fixpoint_substitution(&sequent.assumptions);
    if sub.is_empty() {
        return sequent.clone();
    }
    Sequent {
        assumptions: sequent
            .assumptions
            .iter()
            .map(|a| simplify(&substitute(a, &sub)))
            .filter(|a| !a.is_true())
            .collect(),
        goal: simplify(&substitute(&sequent.goal, &sub)),
        labels: sequent.labels.clone(),
    }
}

#[test]
fn one_pass_inlining_matches_the_fixpoint_on_every_suite_obligation() {
    let mut compared = [0usize; 3];
    for entry in suite::full_suite() {
        for task in program_tasks(&entry.program) {
            for ob in task.obligations() {
                let mut variants = vec![(0, ob.sequent.clone())];
                if !ob.hints.is_empty() {
                    variants.push((1, apply_inst_hints(&ob.sequent, &ob.hints)));
                    variants.push((2, apply_inst_hints(&ob.hinted_sequent(), &ob.hints)));
                }
                for (kind, sequent) in variants {
                    assert_eq!(
                        inline_definitions(&sequent),
                        fixpoint_inline(&sequent),
                        "{}: {} (variant {kind})",
                        entry.name,
                        sequent.describe()
                    );
                    compared[kind] += 1;
                }
            }
        }
    }
    // Every obligation as generated, and each hinted one instantiated and filtered.
    assert_eq!(compared[0], 159);
    assert!(
        compared[1] > 0 && compared[1] == compared[2],
        "{compared:?}"
    );
}
