//! FOL's search on real sequents, pinned.
//!
//! `fixtures/logged_attempts.txt` holds sequents the dispatcher handed to
//! [`prove_sequent`], with the set and function variables of their context. For each
//! one it pins what the prover does under the two iteration caps of the dispatcher's
//! fuel policy: the verdict, the outcome and the exact `iterations`, `generated` and
//! `retained` counts. The counts follow every choice the given-clause loop makes
//! (which clause is given, which literal is selected, how variables are numbered, what
//! subsumption deletes), so a kernel that changes any of them fails here.

use jahob_folp::{prove_sequent, FolOptions, ResolutionOutcome};
use jahob_logic::{parse_form, Sequent};

/// `(max_iterations, proved, outcome, iterations, generated, retained)`.
type Pin = (usize, bool, ResolutionOutcome, usize, usize, usize);

/// One logged attempt and its pins.
struct Logged {
    label: String,
    options: FolOptions,
    sequent: Sequent,
    pins: Vec<Pin>,
}

fn outcome(name: &str) -> ResolutionOutcome {
    match name {
        "Proved" => ResolutionOutcome::Proved,
        "Saturated" => ResolutionOutcome::Saturated,
        "ResourceLimit" => ResolutionOutcome::ResourceLimit,
        "DeadlineLimit" => ResolutionOutcome::DeadlineLimit,
        other => panic!("unknown outcome {other}"),
    }
}

fn load() -> Vec<Logged> {
    let text = include_str!("fixtures/logged_attempts.txt");
    let mut out = Vec::new();
    for block in text.split("\n\n") {
        let mut label = None;
        let mut options = FolOptions::default();
        let mut assumptions = Vec::new();
        let mut goal = None;
        let mut pins = Vec::new();
        for line in block
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let words = || rest.split_whitespace().map(String::from);
            let form = || parse_form(rest).unwrap_or_else(|e| panic!("{rest}: {e:?}"));
            match key {
                "sequent" => label = Some(rest.to_string()),
                "set" => options.translate.set_vars = words().collect(),
                "fun" => options.translate.fun_vars = words().collect(),
                "assume" => assumptions.push(form()),
                "goal" => goal = Some(form()),
                "pin" => {
                    let w: Vec<String> = words().collect();
                    let num = |i: usize| w[i].parse::<usize>().expect("a count");
                    pins.push((
                        num(0),
                        w[1] == "true",
                        outcome(&w[2]),
                        num(3),
                        num(4),
                        num(5),
                    ));
                }
                _ => panic!("unexpected line {line}"),
            }
        }
        if let Some(label) = label {
            let goal = goal.expect("every record has a goal");
            out.push(Logged {
                label,
                options,
                sequent: Sequent::new(assumptions, goal),
                pins,
            });
        }
    }
    out
}

#[test]
fn logged_attempts_keep_their_search() {
    let logged = load();
    assert_eq!(logged.len(), 17);
    for attempt in &logged {
        assert_eq!(attempt.pins.len(), 2, "{}", attempt.label);
        for &(cap, proved, outcome, iterations, generated, retained) in &attempt.pins {
            let mut options = attempt.options.clone();
            options.limits.max_iterations = cap;
            // Only the search is pinned: no wall-clock stop may end it.
            options.limits.max_millis = 0;
            let result = prove_sequent(&attempt.sequent, &options);
            let got = (
                result.proved,
                result.outcome,
                result.stats.iterations,
                result.stats.generated,
                result.stats.retained,
            );
            let want = (proved, Some(outcome), iterations, generated, retained);
            assert_eq!(got, want, "{} at {cap} iterations", attempt.label);
        }
    }
}

#[test]
fn the_logged_attempts_cover_wins_caps_and_a_name_at_two_arities() {
    let logged = load();
    let pins = logged.iter().flat_map(|a| a.pins.iter());
    let (wins, capped): (Vec<&Pin>, Vec<&Pin>) = pins.partition(|p| p.1);
    assert!(wins.len() >= 6);
    assert!(capped
        .iter()
        .all(|p| p.2 == ResolutionOutcome::ResourceLimit && p.3 == p.0));
    // The Association List `post` sequent translates `content` membership both as a
    // key-value pair and as a single Skolem element.
    let mixed = logged.iter().any(|a| {
        let clauses =
            jahob_folp::sequent_to_clauses(&a.sequent, &a.options.translate).expect("translate");
        let arities: std::collections::BTreeSet<usize> = clauses
            .iter()
            .flat_map(|c| &c.literals)
            .filter(|l| l.atom.pred == "in$content")
            .map(|l| l.atom.args.len())
            .collect();
        arities.len() > 1
    });
    assert!(mixed);
}
