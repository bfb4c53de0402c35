//! The Jahob→MONA interface: translating sequents into WS1S.
//!
//! Jahob's MONA interface (§6.4) exposes the structure of a sequent to the automata-based
//! decision procedure. This reproduction supports the *monadic fragment*: formulas built
//! from
//!
//! * equalities between object variables (and `null`),
//! * membership of object variables in set-valued variables,
//! * subset and equality atoms between set-valued variables, and
//! * arbitrary quantification over objects and object sets,
//!
//! which covers many of the per-object invariant conjuncts that arise from the data
//! structure specifications (for example "every allocated node in `nodes` is also in
//! `alloc`"). The monadic class has the finite model property, and every finite model can
//! be laid out along a word, so deciding the WS1S encoding is sound and complete for this
//! fragment. Atoms outside the fragment (arithmetic, reachability, cardinality, field
//! dereferences) are approximated away by polarity (Figure 14), preserving soundness.
//!
//! The front end runs on a formula bank ([`approximate`]), memoised per node, so a
//! formula shared by the sequents of one bank is prepared and approximated once; the
//! WS1S translation reads the approximated implication as a formula.

use crate::ws1s::{Decider, Ws1s, Ws1sOutcome};
use jahob_logic::bank::{Bank, Fragment, InternedSequent, NodeId};
use jahob_logic::form::{Binder, Const, Form};
use jahob_logic::types::Type;
use jahob_logic::Sequent;
use std::collections::BTreeMap;

/// Options for the MONA-style prover.
#[derive(Debug, Clone)]
pub struct MonaOptions {
    /// Maximum number of free tracks ([`MonaResult::tracks`]); a sequent with more is
    /// not applicable. It bounds only the free count: the decider adds a track for
    /// every bound variable, so the automaton alphabet can be larger than `2^max_tracks`.
    pub max_tracks: usize,
    /// Work budget of the automata construction, in state×symbol units charged per
    /// intermediate automaton ([`Dfa::work_cost`](jahob_automata::Dfa::work_cost)):
    /// one unit per state and symbol of the `2^tracks` alphabet, although the kernel's
    /// table keeps only one column per class of symbols that act alike. `0` means
    /// unlimited. Exhausting it aborts the attempt cooperatively
    /// ([`MonaResult::budget_exhausted`]) instead of proving anything. Callers with
    /// a fuel policy (the dispatcher's budgeted cascade) pass a reduced budget here,
    /// and for them an attempt that exhausts it has failed.
    pub max_work: u64,
    /// Per-automaton state cap of intermediate products/determinisations; exceeding
    /// it also counts as budget exhaustion.
    pub max_states: usize,
    /// Wall-clock deadline for the attempt, checked cooperatively at the same sites
    /// as the work budget ([`Decider`]'s charge points). Passing the deadline stops
    /// the attempt with [`MonaResult::deadline_exceeded`] set — the verdict is
    /// unknown, exactly like budget exhaustion, but attributed to time rather than
    /// fuel. `None` (the default) disables the check.
    pub deadline: Option<std::time::Instant>,
}

impl Default for MonaOptions {
    fn default() -> Self {
        MonaOptions {
            max_tracks: 10,
            max_work: 4_000_000,
            max_states: 768,
            deadline: None,
        }
    }
}

/// Result of a MONA-style proof attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonaResult {
    /// `true` if the sequent was proved valid.
    pub proved: bool,
    /// `true` if the sequent (after approximation) was inside the supported fragment.
    pub applicable: bool,
    /// The number of free tracks: one per free variable of the translated sequent,
    /// plus one for `null` when it occurs. The decider gives every bound variable a
    /// track too, so the automata can run on more tracks than this: an attempt with
    /// `tracks = 8` and one bound variable runs on 9 tracks, i.e. 512 symbols.
    pub tracks: usize,
    /// `true` when the attempt stopped because the automata construction ran out of
    /// its work/state budget ([`MonaOptions::max_work`]/[`MonaOptions::max_states`])
    /// — the verdict is *unknown*, not "not proved": a larger budget might decide
    /// the sequent either way.
    pub budget_exhausted: bool,
    /// `true` when the attempt stopped because it passed its wall-clock deadline
    /// ([`MonaOptions::deadline`]) — also an *unknown* verdict, but attributed to
    /// time rather than fuel (and therefore never mistaken for budget exhaustion:
    /// when the deadline fires, `budget_exhausted` stays `false`).
    pub deadline_exceeded: bool,
}

/// Attempts to prove a sequent with the WS1S decision procedure, on a fresh bank.
pub fn prove_sequent(sequent: &Sequent, options: &MonaOptions) -> MonaResult {
    let mut bank = Bank::new();
    let interned = bank.intern_sequent(sequent);
    prove_interned(&mut bank, &interned, options)
}

/// MONA's front end on the bank: each formula with its comments stripped, membership
/// in set expressions expanded and simplified, then the implication approximated into
/// the monadic fragment ([`Fragment::Monadic`]). Returns the approximated assumptions,
/// without those that became `True`, and the approximated goal.
pub fn approximate(bank: &mut Bank, sequent: &InternedSequent) -> (Vec<NodeId>, NodeId) {
    let prepare = |bank: &mut Bank, f: NodeId| {
        let stripped = bank.strip_comments(f);
        let expanded = bank.expand_membership(stripped);
        bank.simplify(expanded)
    };
    let assumptions: Vec<NodeId> = sequent
        .assumptions
        .iter()
        .map(|a| prepare(bank, *a))
        .collect();
    let goal = prepare(bank, sequent.goal);
    bank.approximate_implication(&assumptions, goal, Fragment::Monadic)
}

/// [`prove_sequent`] of a sequent in `bank`: the approximation runs on the bank, the
/// WS1S translation on its formulas.
pub fn prove_interned(
    bank: &mut Bank,
    sequent: &InternedSequent,
    options: &MonaOptions,
) -> MonaResult {
    let not_applicable = |tracks| MonaResult {
        proved: false,
        applicable: false,
        tracks,
        budget_exhausted: false,
        deadline_exceeded: false,
    };
    let (assumptions, goal) = approximate(bank, sequent);
    if bank.is_false(goal) && assumptions.is_empty() {
        return not_applicable(0);
    }
    let premise = bank.and(assumptions);
    let implication = bank.implies(premise, goal);

    // Translate into WS1S.
    let mut cx = Translator::default();
    let Some(ws) = cx.translate(&bank.materialise(implication)) else {
        return not_applicable(cx.vars.len());
    };
    // `null` is modelled as a distinguished first-order position. Its identity is not
    // known to the decision procedure, so the implication must hold for *every* choice of
    // that position (universal quantification — an existential here would unsoundly let
    // the decider pick a convenient position for `null`).
    let ws = if cx.used_null {
        Ws1s::ForallPos("vnull".to_string(), Box::new(ws))
    } else {
        ws
    };
    let tracks = cx.vars.len() + usize::from(cx.used_null);
    if tracks > options.max_tracks {
        return not_applicable(tracks);
    }
    let decider = Decider::with_budget(&ws, options.max_work)
        .with_max_states(options.max_states)
        .with_deadline(options.deadline);
    let outcome = decider.decide(&ws);
    let deadline_exceeded = decider.deadline_exceeded();
    MonaResult {
        proved: matches!(outcome, Ws1sOutcome::Valid),
        applicable: true,
        tracks,
        budget_exhausted: matches!(outcome, Ws1sOutcome::ResourceLimit) && !deadline_exceeded,
        deadline_exceeded,
    }
}

fn is_element(f: &Form) -> bool {
    matches!(f, Form::Var(_) | Form::Const(Const::Null))
}

fn is_set_name(f: &Form) -> bool {
    matches!(f, Form::Var(_))
}

/// Translates approximated formulas into WS1S, assigning track names to variables.
#[derive(Default)]
struct Translator {
    /// Mapping from Jahob variable names to WS1S variable names. First-order variables
    /// receive lowercase names (`v0`, `v1`, ...), set variables uppercase (`S0`, ...).
    vars: BTreeMap<String, String>,
    next_fo: usize,
    next_so: usize,
    used_null: bool,
}

impl Translator {
    fn fo_var(&mut self, name: &str) -> String {
        if let Some(v) = self.vars.get(name) {
            return v.clone();
        }
        let v = format!("v{}", self.next_fo);
        self.next_fo += 1;
        self.vars.insert(name.to_string(), v.clone());
        v
    }

    fn so_var(&mut self, name: &str) -> String {
        if let Some(v) = self.vars.get(name) {
            return v.clone();
        }
        let v = format!("S{}", self.next_so);
        self.next_so += 1;
        self.vars.insert(name.to_string(), v.clone());
        v
    }

    fn element(&mut self, f: &Form) -> Option<String> {
        match f {
            Form::Var(v) => Some(self.fo_var(v)),
            Form::Const(Const::Null) => {
                self.used_null = true;
                Some("vnull".to_string())
            }
            _ => None,
        }
    }

    fn translate(&mut self, f: &Form) -> Option<Ws1s> {
        match f {
            Form::Const(Const::BoolLit(true)) => Some(Ws1s::True),
            Form::Const(Const::BoolLit(false)) => Some(Ws1s::False),
            Form::App(head, args) => match (head.as_ref(), args.as_slice()) {
                (Form::Const(Const::And), _) => Some(Ws1s::And(
                    args.iter()
                        .map(|a| self.translate(a))
                        .collect::<Option<Vec<_>>>()?,
                )),
                (Form::Const(Const::Or), _) => Some(Ws1s::Or(
                    args.iter()
                        .map(|a| self.translate(a))
                        .collect::<Option<Vec<_>>>()?,
                )),
                (Form::Const(Const::Not), [a]) => Some(Ws1s::Not(Box::new(self.translate(a)?))),
                (Form::Const(Const::Impl), [l, r]) => {
                    Some(Ws1s::implies(self.translate(l)?, self.translate(r)?))
                }
                (Form::Const(Const::Iff), [l, r]) => {
                    let a = self.translate(l)?;
                    let b = self.translate(r)?;
                    Some(Ws1s::And(vec![
                        Ws1s::implies(a.clone(), b.clone()),
                        Ws1s::implies(b, a),
                    ]))
                }
                (Form::Const(Const::Eq), [l, r]) => {
                    if is_element(l) && is_element(r) {
                        Some(Ws1s::EqPos(self.element(l)?, self.element(r)?))
                    } else if is_set_name(l) && is_set_name(r) {
                        let (Form::Var(a), Form::Var(b)) = (l, r) else {
                            return None;
                        };
                        Some(Ws1s::EqSet(self.so_var(a), self.so_var(b)))
                    } else {
                        None
                    }
                }
                (Form::Const(Const::Elem), [e, s]) => {
                    let Form::Var(sv) = s else { return None };
                    Some(Ws1s::In(self.element(e)?, self.so_var(sv)))
                }
                (Form::Const(Const::SubsetEq), [l, r]) => {
                    let (Form::Var(a), Form::Var(b)) = (l, r) else {
                        return None;
                    };
                    Some(Ws1s::Subset(self.so_var(a), self.so_var(b)))
                }
                _ => None,
            },
            Form::Binder(binder @ (Binder::Forall | Binder::Exists), vars, body) => {
                // Determine for each bound variable whether it is first-order (object) or
                // second-order (object set) from its annotation or its usage in the body.
                let mut result = self.translate(body)?;
                for (name, ty) in vars.iter().rev() {
                    let second_order = match ty {
                        Type::Set(_) => true,
                        Type::Obj => false,
                        _ => used_as_set(body, name),
                    };
                    let wsname = if second_order {
                        self.so_var(name)
                    } else {
                        self.fo_var(name)
                    };
                    result = match (binder, second_order) {
                        (Binder::Forall, false) => Ws1s::ForallPos(wsname, Box::new(result)),
                        (Binder::Forall, true) => Ws1s::ForallSet(wsname, Box::new(result)),
                        (Binder::Exists, false) => Ws1s::ExistsPos(wsname, Box::new(result)),
                        (Binder::Exists, true) => Ws1s::ExistsSet(wsname, Box::new(result)),
                        _ => unreachable!("binder restricted above"),
                    };
                    // Bound variables must not leak their track mapping outside their
                    // scope (names may be reused).
                    self.vars.remove(name);
                }
                Some(result)
            }
            _ => None,
        }
    }
}

/// Returns `true` if the variable occurs in set position (as the right-hand side of a
/// membership or in a subset/set-equality atom) in the formula.
fn used_as_set(f: &Form, name: &str) -> bool {
    match f {
        Form::App(head, args) => {
            if let Form::Const(Const::Elem) = head.as_ref() {
                if args.len() == 2 && args[1] == Form::var(name) {
                    return true;
                }
            }
            if let Form::Const(Const::SubsetEq) = head.as_ref() {
                if args.iter().any(|a| *a == Form::var(name)) {
                    return true;
                }
            }
            args.iter().any(|a| used_as_set(a, name))
        }
        Form::Binder(_, vars, body) => {
            !vars.iter().any(|(v, _)| v == name) && used_as_set(body, name)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::parse_form;

    fn seq(assumptions: &[&str], goal: &str) -> Sequent {
        Sequent::new(
            assumptions
                .iter()
                .map(|a| parse_form(a).expect("parse"))
                .collect(),
            parse_form(goal).expect("parse"),
        )
    }

    fn proves(assumptions: &[&str], goal: &str) -> bool {
        prove_sequent(&seq(assumptions, goal), &MonaOptions::default()).proved
    }

    #[test]
    fn proves_membership_propagation() {
        assert!(proves(
            &["ALL x. x : nodes --> x : alloc", "n : nodes"],
            "n : alloc"
        ));
        assert!(!proves(&["n : alloc"], "n : nodes"));
    }

    #[test]
    fn proves_set_equality_reasoning() {
        assert!(proves(&["nodes = nodes1", "x : nodes"], "x : nodes1"));
        assert!(proves(
            &["ALL x. x : a --> x : b", "ALL x. x : b --> x : c"],
            "ALL x. x : a --> x : c"
        ));
    }

    #[test]
    fn proves_quantified_set_goals() {
        // Extensionality expressed with quantifiers.
        assert!(proves(&["ALL e. e : a <-> e : b"], "a = b"));
    }

    #[test]
    fn proves_null_handling() {
        assert!(proves(
            &[
                "ALL x. x : nodes --> x ~= null",
                "null : nodes | ok : nodes"
            ],
            "ok : nodes | False"
        ));
    }

    #[test]
    fn set_algebra_is_expanded_before_translation() {
        assert!(proves(&["x : a"], "x : a Un b"));
        assert!(proves(&["x : a", "x ~: b"], "x : a - b"));
        assert!(!proves(&["x : a Un b"], "x : a"));
    }

    #[test]
    fn null_is_not_chosen_conveniently() {
        // Regression test: `null` is an unknown position, so a satisfiable assumption set
        // about a non-null object must not be declared contradictory (which would prove
        // any goal). An existential encoding of `null` exhibited exactly this unsoundness.
        assert!(!proves(
            &["~(n = null)", "~(n : alloc)", "n : List"],
            "False"
        ));
        assert!(!proves(
            &["~(n = null)", "~(n : alloc)", "n : List"],
            "n : alloc"
        ));
        // Valid facts about null still go through.
        assert!(proves(&["~(null : alloc)", "x : alloc"], "~(x = null)"));
    }

    #[test]
    fn declines_arithmetic_sequents() {
        let r = prove_sequent(&seq(&["size = 0"], "size + 1 = 1"), &MonaOptions::default());
        assert!(!r.proved);
    }

    #[test]
    fn respects_track_limit() {
        let opts = MonaOptions {
            max_tracks: 2,
            ..MonaOptions::default()
        };
        let r = prove_sequent(&seq(&["a : s", "b : t", "c : u"], "a : s"), &opts);
        assert!(!r.applicable);
        assert!(
            prove_sequent(
                &seq(&["a : s", "b : t", "c : u"], "a : s"),
                &MonaOptions::default()
            )
            .proved
        );
    }

    /// How [`prove_sequent`] ends under one MONA fuel cap.
    #[derive(Debug, Clone, Copy)]
    enum Pin {
        /// Proved, charging exactly this much work.
        Proved(u64),
        /// Decided not valid, charging exactly this much work.
        Refuted(u64),
        /// Ran out of work before deciding.
        OutOfWork,
        /// An intermediate automaton outgrew the state cap, however much work it had.
        OutOfStates,
    }

    /// The dispatcher's two MONA fuel caps, `(max_work, max_states)` (`fuel_for` in
    /// `jahob-provers`): the small one for most sequents, the large one for sequents
    /// that bind a set.
    const SMALL: (u64, usize) = (150_000, 256);
    const LARGE: (u64, usize) = (2_000_000, 768);

    /// Monadic sequents and how MONA ends on them under the small and the large cap.
    /// The work a decision charges is the sum of its intermediate automata's sizes, so
    /// these values change exactly when some automaton the decider builds changes size.
    const PINNED: &[(&[&str], &str, Pin, Pin)] = &[
        // The crate example and the sequents of the tests above.
        (
            &["ALL x. x : nodes --> x : alloc", "n : nodes"],
            "n : alloc",
            Pin::Proved(640),
            Pin::Proved(640),
        ),
        (
            &["n : alloc"],
            "n : nodes",
            Pin::Refuted(160),
            Pin::Refuted(160),
        ),
        (
            &["nodes = nodes1", "x : nodes"],
            "x : nodes1",
            Pin::Proved(400),
            Pin::Proved(400),
        ),
        (
            &["ALL x. x : a --> x : b", "ALL x. x : b --> x : c"],
            "ALL x. x : a --> x : c",
            Pin::Proved(5_696),
            Pin::Proved(5_696),
        ),
        (
            &["ALL e. e : a <-> e : b"],
            "a = b",
            Pin::Proved(424),
            Pin::Proved(424),
        ),
        (
            &[
                "ALL x. x : nodes --> x ~= null",
                "null : nodes | ok : nodes",
            ],
            "ok : nodes | False",
            Pin::Proved(1_536),
            Pin::Proved(1_536),
        ),
        (
            &["x : a", "x ~: b"],
            "x : a - b",
            Pin::Proved(208),
            Pin::Proved(208),
        ),
        (
            &["x : a Un b"],
            "x : a",
            Pin::Refuted(240),
            Pin::Refuted(240),
        ),
        (
            &["~(n = null)", "~(n : alloc)", "n : List"],
            "n : alloc",
            Pin::Refuted(1_168),
            Pin::Refuted(1_168),
        ),
        (
            &["~(null : alloc)", "x : alloc"],
            "~(x = null)",
            Pin::Proved(224),
            Pin::Proved(224),
        ),
        (
            &["a : s", "b : t", "c : u"],
            "a : s",
            Pin::Proved(3_328),
            Pin::Proved(3_328),
        ),
        // The set-quantified sequent only MONA proves, and only under the large cap.
        (
            &[
                "ALL x. x : a --> x : b | x : c",
                "ALL x. x : b --> x : d",
                "ALL x. x : c --> x : d",
                "ALL x. x : d --> x : e",
                "ALL x. x : e --> x : f",
            ],
            "EX s. ALL x. (x : a --> x : s) & (x : s --> x : f)",
            Pin::OutOfWork,
            Pin::Proved(1_810_432),
        ),
        // An inclusion chain that misses its goal: refuted only under the large cap.
        (
            &[
                "ALL x. x : a --> x : b",
                "ALL x. x : b --> x : c",
                "ALL x. x : c --> x : d",
                "ALL x. x : d --> x : e",
                "ALL x. x : e --> x : f",
            ],
            "ALL x. x : a --> x : g",
            Pin::OutOfWork,
            Pin::Refuted(1_466_368),
        ),
        // The monadic parts of MONA attempts on wrong `add`/`put` methods (the mutants of
        // the perfbench `reject_mutants` workload), as the approximation leaves them.
        (
            &[
                "~(null : PriorityQueue)",
                "~(null : alloc)",
                "~(heap = null)",
            ],
            "False",
            Pin::Refuted(1_360),
            Pin::Refuted(1_360),
        ),
        (
            &[
                "~(null : ArrayList)",
                "~(null : alloc)",
                "v = null | v : alloc",
                "~(v = null)",
                "~(elems = null)",
            ],
            "False",
            Pin::Refuted(4_384),
            Pin::Refuted(4_384),
        ),
        (
            &[
                "~(null : PriorityQueue)",
                "~(null : alloc)",
                "x = null | x : alloc",
                "~(x = null) & ~(x : content)",
                "~(heap = null)",
            ],
            "False",
            Pin::OutOfStates,
            Pin::Refuted(14_464),
        ),
        (
            &[
                "~(null : SllNode)",
                "~(null : SinglyLinkedList)",
                "~(null : alloc)",
                "x = null | x : alloc",
                "~(x = null) & ~(x : content)",
                "~(fresh$_1 = null) & ~(fresh$_1 : alloc) & fresh$_1 : SllNode",
            ],
            "False",
            Pin::OutOfStates,
            Pin::OutOfStates,
        ),
        (
            &[
                "~(null : DllNode)",
                "~(null : CircularList)",
                "~(null : alloc)",
                "x = null | x : alloc",
                "~(x = null) & ~(x : content) & ~(head = null) & head : nodes",
                "head = null | head : nodes",
                "~(fresh$_1 = null) & ~(fresh$_1 : alloc) & fresh$_1 : DllNode",
            ],
            "False",
            Pin::OutOfWork,
            Pin::OutOfStates,
        ),
        (
            &[
                "~(null : Node)",
                "~(null : AssocList)",
                "~(null : alloc)",
                "k0 = null | k0 : alloc",
                "v0 = null | v0 : alloc",
                "~(k0 = null) & ~(v0 = null) & ~(EX v. False)",
                "first = null | first : nodes",
                "~(fresh$_1 = null) & ~(fresh$_1 : alloc) & fresh$_1 : Node",
            ],
            "fresh$_1 = null | fresh$_1 : nodes",
            Pin::OutOfWork,
            Pin::OutOfStates,
        ),
    ];

    #[test]
    fn work_charges_and_verdicts_are_pinned() {
        for &(assumptions, goal, small, large) in PINNED {
            let sequent = seq(assumptions, goal);
            for ((cap_work, max_states), pin) in [(SMALL, small), (LARGE, large)] {
                let run = |max_work| {
                    let options = MonaOptions {
                        max_work,
                        max_states,
                        ..MonaOptions::default()
                    };
                    let result = prove_sequent(&sequent, &options);
                    assert!(result.applicable && !result.deadline_exceeded, "{goal}");
                    result
                };
                let context = format!("{goal} under ({cap_work}, {max_states}), pinned {pin:?}");
                match pin {
                    Pin::Proved(work) | Pin::Refuted(work) => {
                        // A decision that fits in `work` repeats exactly under any larger
                        // budget, so the run at `work` stands for the run at the cap.
                        assert!(1 < work && work <= cap_work, "{context}");
                        let decided = run(work);
                        assert!(!decided.budget_exhausted, "{context}");
                        assert_eq!(decided.proved, matches!(pin, Pin::Proved(_)), "{context}");
                        assert!(run(work - 1).budget_exhausted, "{context}");
                    }
                    Pin::OutOfWork => {
                        let stopped = run(cap_work);
                        assert!(stopped.budget_exhausted && !stopped.proved, "{context}");
                    }
                    Pin::OutOfStates => {
                        // `max_work = 0` lifts the work budget; the state cap alone stops it.
                        let stopped = run(0);
                        assert!(stopped.budget_exhausted && !stopped.proved, "{context}");
                    }
                }
            }
        }
    }
}
