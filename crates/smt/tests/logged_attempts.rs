//! SMT's search on real sequents, pinned.
//!
//! `fixtures/logged_attempts.txt` holds sequents the dispatcher handed to
//! [`prove_sequent`], with the set and function variables of their context. For each
//! one it pins what the prover does under the dispatcher's 32-step fuel cap and under
//! the standing 6,000-step default: the verdict, the outcome and the number of ground
//! clauses. It also pins the completing step count, the least `max_steps` whose
//! outcome is not `Unknown`. That count follows every choice the DPLL search makes
//! (how atoms are numbered, which atom is decided and with which value first, where
//! propagation and theory checks cut branches), so a kernel that changes any of them
//! fails here.

use jahob_logic::{parse_form, Sequent};
use jahob_smt::{prove_sequent, GroundOutcome, SmtOptions};

/// `(max_steps, proved, outcome, clauses)`.
type Pin = (usize, bool, GroundOutcome, usize);

/// One logged attempt and its pins.
struct Logged {
    label: String,
    options: SmtOptions,
    sequent: Sequent,
    pins: Vec<Pin>,
    complete: usize,
}

fn outcome(name: &str) -> GroundOutcome {
    match name {
        "Unsat" => GroundOutcome::Unsat,
        "Sat" => GroundOutcome::Sat,
        "Unknown" => GroundOutcome::Unknown,
        "Deadline" => GroundOutcome::Deadline,
        other => panic!("unknown outcome {other}"),
    }
}

fn load() -> Vec<Logged> {
    let text = include_str!("fixtures/logged_attempts.txt");
    let mut out = Vec::new();
    for block in text.split("\n\n") {
        let mut label = None;
        let mut options = SmtOptions::default();
        let mut assumptions = Vec::new();
        let mut goal = None;
        let mut pins = Vec::new();
        let mut complete = None;
        for line in block
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let words = || rest.split_whitespace().map(String::from);
            let form = || parse_form(rest).unwrap_or_else(|e| panic!("{rest}: {e:?}"));
            let num = |w: &str| w.parse::<usize>().expect("a count");
            match key {
                "sequent" => label = Some(rest.to_string()),
                "set" => options.set_vars = words().collect(),
                "fun" => options.fun_vars = words().collect(),
                "assume" => assumptions.push(form()),
                "goal" => goal = Some(form()),
                "pin" => {
                    let w: Vec<String> = words().collect();
                    pins.push((num(&w[0]), w[1] == "true", outcome(&w[2]), num(&w[3])));
                }
                "complete" => complete = Some(num(rest)),
                _ => panic!("unexpected line {line}"),
            }
        }
        if let Some(label) = label {
            out.push(Logged {
                options,
                sequent: Sequent::new(assumptions, goal.expect("every record has a goal")),
                pins,
                complete: complete.unwrap_or_else(|| panic!("{label} has no `complete` line")),
                label,
            });
        }
    }
    out
}

fn run(attempt: &Logged, max_steps: usize) -> (bool, GroundOutcome, usize) {
    let mut options = attempt.options.clone();
    options.ground_limits.max_steps = max_steps;
    let result = prove_sequent(&attempt.sequent, &options);
    (result.proved, result.outcome, result.clauses)
}

#[test]
fn logged_attempts_keep_their_search() {
    let logged = load();
    assert_eq!(logged.len(), 20);
    for attempt in &logged {
        assert_eq!(attempt.pins.len(), 2, "{}", attempt.label);
        for &(cap, proved, outcome, clauses) in &attempt.pins {
            let want = (proved, outcome, clauses);
            assert_eq!(run(attempt, cap), want, "{} at {cap} steps", attempt.label);
        }
        // The search checks its step count on entering each node, so the outcome is
        // `Unknown` below the completing count and final from it on.
        let steps = attempt.complete;
        let (_, last_outcome, _) = run(attempt, steps);
        let (_, before, _) = run(attempt, steps - 1);
        let label = &attempt.label;
        assert_eq!(
            before,
            GroundOutcome::Unknown,
            "{label} at {} steps",
            steps - 1
        );
        assert_eq!(last_outcome, attempt.pins[1].2, "{label} at {steps} steps");
    }
}

#[test]
fn the_logged_attempts_cover_proofs_caps_and_countermodels() {
    let logged = load();
    let at_cap = |a: &Logged| a.pins[0];
    let proofs = logged.iter().filter(|a| at_cap(a).1).count();
    let capped: Vec<&Logged> = logged
        .iter()
        .filter(|a| at_cap(a).2 == GroundOutcome::Unknown)
        .collect();
    let countermodels = logged
        .iter()
        .filter(|a| at_cap(a).2 == GroundOutcome::Sat)
        .count();
    assert!(proofs >= 6 && capped.len() >= 6 && countermodels >= 4);
    // A step-capped search ran the whole budget and completes later.
    assert!(capped.iter().all(|a| at_cap(a).0 == 32 && a.complete > 32));
    // Some sequents divide by a literal; `define_divisions` names their quotients.
    let divides = logged.iter().any(|a| {
        let text = a.sequent.to_string();
        text.contains(" div ") || text.contains(" mod ")
    });
    assert!(divides);
}
