//! WS1S: weak monadic second-order logic of one successor, decided by automata.
//!
//! This is the core of the MONA substitute (§6.4 of the paper). Formulas talk about
//! natural-number *positions* (first-order variables) and finite *sets of positions*
//! (second-order variables); the decision procedure compiles a formula into a finite
//! automaton over bit-vector tracks — one track per variable — such that the automaton
//! accepts exactly the encodings of satisfying assignments. Validity, satisfiability and
//! witness extraction then reduce to automaton emptiness.
//!
//! First-order variables are encoded as singleton sets (the standard MONA encoding): the
//! track of a first-order variable carries exactly one `1`, at the variable's position.
//!
//! Every variable, free or bound, owns a track of the alphabet. Connectives become
//! products of `jahob-automata`'s flat-table DFAs, each minimised. A quantifier projects
//! its variable's track away with [`Dfa::project`], a subset construction run on the
//! body's DFA, and then closes acceptance under trailing zero columns. The decider
//! charges every intermediate automaton's [`Dfa::work_cost`] against its work budget,
//! and a product or projection larger than the state cap stops the decision.

// The primitive-automaton constructors fill several transition rows per symbol index, so
// the symbol loop indexes `trans[state][a]` directly; an iterator rewrite would obscure
// the transition tables.
#![allow(clippy::needless_range_loop)]

use jahob_automata::Dfa;
use std::collections::BTreeMap;
use std::fmt;

/// A WS1S formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ws1s {
    /// `True`.
    True,
    /// `False`.
    False,
    /// Negation.
    Not(Box<Ws1s>),
    /// Conjunction.
    And(Vec<Ws1s>),
    /// Disjunction.
    Or(Vec<Ws1s>),
    /// Implication.
    Implies(Box<Ws1s>, Box<Ws1s>),
    /// First-order: position equality `x = y`.
    EqPos(String, String),
    /// First-order: strict order `x < y`.
    Less(String, String),
    /// First-order: successor `y = x + 1`.
    Succ(String, String),
    /// `x` is the first position (0).
    IsFirst(String),
    /// `x` is the last position of the word.
    IsLast(String),
    /// Membership `x ∈ X`.
    In(String, String),
    /// Set inclusion `X ⊆ Y`.
    Subset(String, String),
    /// Set equality `X = Y`.
    EqSet(String, String),
    /// `X` is empty.
    Empty(String),
    /// First-order existential quantification.
    ExistsPos(String, Box<Ws1s>),
    /// First-order universal quantification.
    ForallPos(String, Box<Ws1s>),
    /// Second-order existential quantification.
    ExistsSet(String, Box<Ws1s>),
    /// Second-order universal quantification.
    ForallSet(String, Box<Ws1s>),
}

impl fmt::Display for Ws1s {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ws1s::True => write!(f, "true"),
            Ws1s::False => write!(f, "false"),
            Ws1s::Not(a) => write!(f, "~({a})"),
            Ws1s::And(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Ws1s::Or(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Ws1s::Implies(a, b) => write!(f, "({a} => {b})"),
            Ws1s::EqPos(x, y) => write!(f, "{x} = {y}"),
            Ws1s::Less(x, y) => write!(f, "{x} < {y}"),
            Ws1s::Succ(x, y) => write!(f, "{y} = {x} + 1"),
            Ws1s::IsFirst(x) => write!(f, "{x} = 0"),
            Ws1s::IsLast(x) => write!(f, "{x} = $"),
            Ws1s::In(x, s) => write!(f, "{x} in {s}"),
            Ws1s::Subset(a, b) => write!(f, "{a} sub {b}"),
            Ws1s::EqSet(a, b) => write!(f, "{a} = {b}"),
            Ws1s::Empty(a) => write!(f, "empty({a})"),
            Ws1s::ExistsPos(x, a) => write!(f, "ex1 {x}. {a}"),
            Ws1s::ForallPos(x, a) => write!(f, "all1 {x}. {a}"),
            Ws1s::ExistsSet(x, a) => write!(f, "ex2 {x}. {a}"),
            Ws1s::ForallSet(x, a) => write!(f, "all2 {x}. {a}"),
        }
    }
}

impl Ws1s {
    /// Convenience: implication.
    pub fn implies(a: Ws1s, b: Ws1s) -> Ws1s {
        Ws1s::Implies(Box::new(a), Box::new(b))
    }

    /// Collects the free variables (both orders share one namespace here).
    pub fn free_vars(&self, out: &mut Vec<String>) {
        let add = |v: &String, out: &mut Vec<String>| {
            if !out.contains(v) {
                out.push(v.clone());
            }
        };
        match self {
            Ws1s::True | Ws1s::False => {}
            Ws1s::Not(a) => a.free_vars(out),
            Ws1s::And(ps) | Ws1s::Or(ps) => ps.iter().for_each(|p| p.free_vars(out)),
            Ws1s::Implies(a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
            Ws1s::EqPos(x, y)
            | Ws1s::Less(x, y)
            | Ws1s::Succ(x, y)
            | Ws1s::In(x, y)
            | Ws1s::Subset(x, y)
            | Ws1s::EqSet(x, y) => {
                add(x, out);
                add(y, out);
            }
            Ws1s::IsFirst(x) | Ws1s::IsLast(x) | Ws1s::Empty(x) => add(x, out),
            Ws1s::ExistsPos(v, a)
            | Ws1s::ForallPos(v, a)
            | Ws1s::ExistsSet(v, a)
            | Ws1s::ForallSet(v, a) => {
                let mut inner = Vec::new();
                a.free_vars(&mut inner);
                for w in inner {
                    if w != *v {
                        add(&w, out);
                    }
                }
            }
        }
    }
}

/// The result of deciding a WS1S formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ws1sOutcome {
    /// The formula is valid (true for every word and assignment).
    Valid,
    /// The formula is not valid; a counterexample word (one symbol per position, one bit
    /// per track in the order of [`Decider::tracks`]) is provided.
    CounterExample(Vec<usize>),
    /// The automaton construction exceeded its work budget before an answer was reached
    /// (large track counts make the intermediate automata explode; the dispatcher simply
    /// moves on to the next prover).
    ResourceLimit,
}

/// Compiles WS1S formulas into automata and decides them.
#[derive(Debug, Clone)]
pub struct Decider {
    tracks: BTreeMap<String, usize>,
    max_work: u64,
    max_states: usize,
    work: std::cell::Cell<u64>,
    deadline: Option<std::time::Instant>,
    deadline_hit: std::cell::Cell<bool>,
}

impl Decider {
    /// Creates a decider for a formula, assigning one track to every variable (free and
    /// bound — bound variables are projected away again during compilation, but
    /// reserving the track keeps the construction simple).
    pub fn new(formula: &Ws1s) -> Self {
        Decider::with_budget(formula, 4_000_000)
    }

    /// Creates a decider with an explicit work budget. The budget is measured in
    /// state×symbol units of the automata constructed during compilation; `0` means
    /// unlimited.
    pub fn with_budget(formula: &Ws1s, max_work: u64) -> Self {
        let mut vars = Vec::new();
        collect_all_vars(formula, &mut vars);
        let tracks = vars.into_iter().enumerate().map(|(i, v)| (v, i)).collect();
        Decider {
            tracks,
            max_work,
            max_states: 768,
            work: std::cell::Cell::new(0),
            deadline: None,
            deadline_hit: std::cell::Cell::new(false),
        }
    }

    /// Overrides the per-automaton state budget (the number of states an intermediate
    /// product or determinisation may reach before the decider gives up).
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states.max(2);
        self
    }

    /// Sets a wall-clock deadline, checked at every work-charge point (the same
    /// cooperative hooks the fuel budget uses). Passing the deadline stops the
    /// decision with [`Ws1sOutcome::ResourceLimit`] and marks
    /// [`Decider::deadline_exceeded`].
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// `true` when the last decision stopped because it passed its deadline.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline_hit.get()
    }

    /// Charges `amount` units of work; returns `None` once the budget is exhausted
    /// or the wall-clock deadline has passed.
    fn charge(&self, amount: u64) -> Option<()> {
        if let Some(deadline) = self.deadline {
            if std::time::Instant::now() >= deadline {
                self.deadline_hit.set(true);
                return None;
            }
        }
        if self.max_work == 0 {
            return Some(());
        }
        let spent = self.work.get().saturating_add(amount);
        self.work.set(spent);
        if spent > self.max_work {
            None
        } else {
            Some(())
        }
    }

    /// The track assignment (variable name to track index).
    pub fn tracks(&self) -> &BTreeMap<String, usize> {
        &self.tracks
    }

    fn num_tracks(&self) -> usize {
        self.tracks.len().max(1)
    }

    /// Decides validity of the formula.
    pub fn decide(&self, formula: &Ws1s) -> Ws1sOutcome {
        self.work.set(0);
        self.deadline_hit.set(false);
        // Valid iff the negation (conjoined with well-formedness of first-order tracks)
        // has empty language.
        let negated = Ws1s::Not(Box::new(formula.clone()));
        let Some(automaton) = self.compile(&negated) else {
            return Ws1sOutcome::ResourceLimit;
        };
        // First-order variables free in the formula must carry singleton tracks.
        let mut fvs = Vec::new();
        formula.free_vars(&mut fvs);
        let mut constrained = automaton;
        for v in fvs {
            if is_first_order(&v) {
                let Some(next) =
                    constrained.intersect_bounded(&self.singleton(self.track(&v)), self.max_states)
                else {
                    return Ws1sOutcome::ResourceLimit;
                };
                constrained = next;
                if self.charge(constrained.work_cost()).is_none() {
                    return Ws1sOutcome::ResourceLimit;
                }
            }
        }
        match constrained.shortest_accepted() {
            None => Ws1sOutcome::Valid,
            Some(word) => Ws1sOutcome::CounterExample(word),
        }
    }

    /// Returns `true` if the formula is satisfiable (by some word and assignment), or if
    /// the decision ran out of budget (unknown is treated as possibly satisfiable).
    pub fn satisfiable(&self, formula: &Ws1s) -> bool {
        !matches!(
            self.decide(&Ws1s::Not(Box::new(formula.clone()))),
            Ws1sOutcome::Valid
        )
    }

    fn track(&self, v: &str) -> usize {
        *self
            .tracks
            .get(v)
            .unwrap_or_else(|| panic!("unknown WS1S variable {v}"))
    }

    /// Compiles a formula to a DFA accepting the encodings of satisfying assignments.
    /// Returns `None` if the work budget is exhausted.
    pub fn compile(&self, formula: &Ws1s) -> Option<Dfa> {
        let k = self.num_tracks();
        let charged = |d: Dfa| -> Option<Dfa> {
            self.charge(d.work_cost())?;
            Some(d)
        };
        match formula {
            Ws1s::True => Some(Dfa::all(k)),
            Ws1s::False => Some(Dfa::none(k)),
            Ws1s::Not(a) => charged(self.compile(a)?.complement()),
            Ws1s::And(parts) => {
                let mut acc = Dfa::all(k);
                for p in parts {
                    let d = self.compile(p)?;
                    acc = charged(acc.intersect_bounded(&d, self.max_states)?.minimize())?;
                }
                Some(acc)
            }
            Ws1s::Or(parts) => {
                let mut acc = Dfa::none(k);
                for p in parts {
                    let d = self.compile(p)?;
                    acc = charged(acc.union_bounded(&d, self.max_states)?.minimize())?;
                }
                Some(acc)
            }
            Ws1s::Implies(a, b) => {
                let d = self.compile(&Ws1s::Or(vec![Ws1s::Not(a.clone()), (**b).clone()]))?;
                charged(d.minimize())
            }
            Ws1s::EqPos(x, y) => Some(self.eq_set(self.track(x), self.track(y))),
            Ws1s::EqSet(x, y) => Some(self.eq_set(self.track(x), self.track(y))),
            Ws1s::Subset(x, y) => Some(self.subset(self.track(x), self.track(y))),
            Ws1s::In(x, s) => Some(self.subset(self.track(x), self.track(s))),
            Ws1s::Empty(s) => Some(self.empty(self.track(s))),
            Ws1s::Less(x, y) => Some(self.less(self.track(x), self.track(y))),
            Ws1s::Succ(x, y) => Some(self.succ(self.track(x), self.track(y))),
            Ws1s::IsFirst(x) => Some(self.is_first(self.track(x))),
            Ws1s::IsLast(x) => Some(self.is_last(self.track(x))),
            Ws1s::ExistsPos(v, a) => {
                let body = self
                    .compile(a)?
                    .intersect_bounded(&self.singleton(self.track(v)), self.max_states)?;
                self.charge(body.work_cost())?;
                charged(
                    body.project(self.track(v), self.max_states)?
                        .accept_zero_extensions()
                        .minimize(),
                )
            }
            Ws1s::ForallPos(v, a) => {
                let d = self.compile(&Ws1s::Not(Box::new(Ws1s::ExistsPos(
                    v.clone(),
                    Box::new(Ws1s::Not(a.clone())),
                ))))?;
                charged(d.minimize())
            }
            Ws1s::ExistsSet(v, a) => {
                let body = self.compile(a)?;
                self.charge(body.work_cost())?;
                charged(
                    body.project(self.track(v), self.max_states)?
                        .accept_zero_extensions()
                        .minimize(),
                )
            }
            Ws1s::ForallSet(v, a) => {
                let d = self.compile(&Ws1s::Not(Box::new(Ws1s::ExistsSet(
                    v.clone(),
                    Box::new(Ws1s::Not(a.clone())),
                ))))?;
                charged(d.minimize())
            }
        }
    }

    // ---- primitive automata -------------------------------------------------------

    fn symbols(&self) -> usize {
        1usize << self.num_tracks()
    }

    fn bit(symbol: usize, track: usize) -> bool {
        symbol & (1 << track) != 0
    }

    /// Track `t` carries exactly one 1 (encodes a first-order variable).
    fn singleton(&self, t: usize) -> Dfa {
        // States: 0 = none seen, 1 = one seen, 2 = too many.
        let mut trans = vec![vec![0; self.symbols()]; 3];
        for a in 0..self.symbols() {
            let b = Self::bit(a, t);
            trans[0][a] = if b { 1 } else { 0 };
            trans[1][a] = if b { 2 } else { 1 };
            trans[2][a] = 2;
        }
        Dfa::new(self.num_tracks(), 0, vec![false, true, false], trans)
    }

    /// Tracks `x` and `y` agree at every position.
    fn eq_set(&self, x: usize, y: usize) -> Dfa {
        let mut trans = vec![vec![0; self.symbols()]; 2];
        for a in 0..self.symbols() {
            let same = Self::bit(a, x) == Self::bit(a, y);
            trans[0][a] = if same { 0 } else { 1 };
            trans[1][a] = 1;
        }
        Dfa::new(self.num_tracks(), 0, vec![true, false], trans)
    }

    /// Track `x` is a subset of track `y` (positionwise implication).
    fn subset(&self, x: usize, y: usize) -> Dfa {
        let mut trans = vec![vec![0; self.symbols()]; 2];
        for a in 0..self.symbols() {
            let ok = !Self::bit(a, x) || Self::bit(a, y);
            trans[0][a] = if ok { 0 } else { 1 };
            trans[1][a] = 1;
        }
        Dfa::new(self.num_tracks(), 0, vec![true, false], trans)
    }

    /// Track `s` is all zeros.
    fn empty(&self, s: usize) -> Dfa {
        let mut trans = vec![vec![0; self.symbols()]; 2];
        for a in 0..self.symbols() {
            trans[0][a] = if Self::bit(a, s) { 1 } else { 0 };
            trans[1][a] = 1;
        }
        Dfa::new(self.num_tracks(), 0, vec![true, false], trans)
    }

    /// The (singleton) position on track `x` precedes the one on track `y`.
    fn less(&self, x: usize, y: usize) -> Dfa {
        // States: 0 = seen neither, 1 = seen x only, 2 = seen y after x (accept),
        // 3 = reject.
        let mut trans = vec![vec![0; self.symbols()]; 4];
        for a in 0..self.symbols() {
            let bx = Self::bit(a, x);
            let by = Self::bit(a, y);
            trans[0][a] = match (bx, by) {
                (false, false) => 0,
                (true, false) => 1,
                _ => 3,
            };
            trans[1][a] = match (bx, by) {
                (false, false) => 1,
                (false, true) => 2,
                _ => 3,
            };
            trans[2][a] = if bx || by { 3 } else { 2 };
            trans[3][a] = 3;
        }
        Dfa::new(self.num_tracks(), 0, vec![false, false, true, false], trans)
    }

    /// The position on track `y` is the successor of the position on track `x`.
    fn succ(&self, x: usize, y: usize) -> Dfa {
        // States: 0 = before x, 1 = x seen (expect y immediately), 2 = accept, 3 = reject.
        let mut trans = vec![vec![0; self.symbols()]; 4];
        for a in 0..self.symbols() {
            let bx = Self::bit(a, x);
            let by = Self::bit(a, y);
            trans[0][a] = match (bx, by) {
                (false, false) => 0,
                (true, false) => 1,
                _ => 3,
            };
            trans[1][a] = match (bx, by) {
                (false, true) => 2,
                _ => 3,
            };
            trans[2][a] = if bx || by { 3 } else { 2 };
            trans[3][a] = 3;
        }
        Dfa::new(self.num_tracks(), 0, vec![false, false, true, false], trans)
    }

    /// The position on track `x` is position 0.
    fn is_first(&self, x: usize) -> Dfa {
        // States: 0 = at position 0 (expect the bit), 1 = ok, 2 = reject.
        let mut trans = vec![vec![0; self.symbols()]; 3];
        for a in 0..self.symbols() {
            let bx = Self::bit(a, x);
            trans[0][a] = if bx { 1 } else { 2 };
            trans[1][a] = if bx { 2 } else { 1 };
            trans[2][a] = 2;
        }
        Dfa::new(self.num_tracks(), 0, vec![false, true, false], trans)
    }

    /// The position on track `x` is the last position of the word.
    fn is_last(&self, x: usize) -> Dfa {
        // States: 0 = not yet seen, 1 = seen at previous position and nothing after it
        // yet (accepting only if the word ends here), 2 = reject.
        let mut trans = vec![vec![0; self.symbols()]; 3];
        for a in 0..self.symbols() {
            let bx = Self::bit(a, x);
            trans[0][a] = if bx { 1 } else { 0 };
            trans[1][a] = 2;
            trans[2][a] = 2;
        }
        Dfa::new(self.num_tracks(), 0, vec![false, true, false], trans)
    }
}

/// Heuristic used only to decide which free variables need the singleton constraint when
/// checking validity: by convention first-order variable names start with a lowercase
/// letter and second-order names with an uppercase letter (as in MONA examples).
fn is_first_order(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_lowercase())
}

fn collect_all_vars(f: &Ws1s, out: &mut Vec<String>) {
    let add = |v: &String, out: &mut Vec<String>| {
        if !out.contains(v) {
            out.push(v.clone());
        }
    };
    match f {
        Ws1s::True | Ws1s::False => {}
        Ws1s::Not(a) => collect_all_vars(a, out),
        Ws1s::And(ps) | Ws1s::Or(ps) => ps.iter().for_each(|p| collect_all_vars(p, out)),
        Ws1s::Implies(a, b) => {
            collect_all_vars(a, out);
            collect_all_vars(b, out);
        }
        Ws1s::EqPos(x, y)
        | Ws1s::Less(x, y)
        | Ws1s::Succ(x, y)
        | Ws1s::In(x, y)
        | Ws1s::Subset(x, y)
        | Ws1s::EqSet(x, y) => {
            add(x, out);
            add(y, out);
        }
        Ws1s::IsFirst(x) | Ws1s::IsLast(x) | Ws1s::Empty(x) => add(x, out),
        Ws1s::ExistsPos(v, a)
        | Ws1s::ForallPos(v, a)
        | Ws1s::ExistsSet(v, a)
        | Ws1s::ForallSet(v, a) => {
            add(v, out);
            collect_all_vars(a, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid(f: &Ws1s) -> bool {
        matches!(Decider::new(f).decide(f), Ws1sOutcome::Valid)
    }

    #[test]
    fn order_is_transitive_and_irreflexive() {
        // all1 x y z. x < y & y < z => x < z
        let f = Ws1s::ForallPos(
            "x".into(),
            Box::new(Ws1s::ForallPos(
                "y".into(),
                Box::new(Ws1s::ForallPos(
                    "z".into(),
                    Box::new(Ws1s::implies(
                        Ws1s::And(vec![
                            Ws1s::Less("x".into(), "y".into()),
                            Ws1s::Less("y".into(), "z".into()),
                        ]),
                        Ws1s::Less("x".into(), "z".into()),
                    )),
                )),
            )),
        );
        assert!(valid(&f));
        let irref = Ws1s::ForallPos(
            "x".into(),
            Box::new(Ws1s::Not(Box::new(Ws1s::Less("x".into(), "x".into())))),
        );
        assert!(valid(&irref));
    }

    #[test]
    fn successor_implies_order() {
        let f = Ws1s::ForallPos(
            "x".into(),
            Box::new(Ws1s::ForallPos(
                "y".into(),
                Box::new(Ws1s::implies(
                    Ws1s::Succ("x".into(), "y".into()),
                    Ws1s::Less("x".into(), "y".into()),
                )),
            )),
        );
        assert!(valid(&f));
    }

    #[test]
    fn subset_antisymmetry_gives_equality() {
        let f = Ws1s::ForallSet(
            "X".into(),
            Box::new(Ws1s::ForallSet(
                "Y".into(),
                Box::new(Ws1s::implies(
                    Ws1s::And(vec![
                        Ws1s::Subset("X".into(), "Y".into()),
                        Ws1s::Subset("Y".into(), "X".into()),
                    ]),
                    Ws1s::EqSet("X".into(), "Y".into()),
                )),
            )),
        );
        assert!(valid(&f));
    }

    #[test]
    fn induction_over_positions_is_valid() {
        // The hallmark of WS1S: if X contains 0 and is successor-closed, it contains
        // every position. (Expressed per-position: every position is in X.)
        let closed = Ws1s::ForallPos(
            "p".into(),
            Box::new(Ws1s::ForallPos(
                "q".into(),
                Box::new(Ws1s::implies(
                    Ws1s::And(vec![
                        Ws1s::In("p".into(), "X".into()),
                        Ws1s::Succ("p".into(), "q".into()),
                    ]),
                    Ws1s::In("q".into(), "X".into()),
                )),
            )),
        );
        let base = Ws1s::ForallPos(
            "z".into(),
            Box::new(Ws1s::implies(
                Ws1s::IsFirst("z".into()),
                Ws1s::In("z".into(), "X".into()),
            )),
        );
        let f = Ws1s::ForallSet(
            "X".into(),
            Box::new(Ws1s::implies(
                Ws1s::And(vec![base, closed]),
                Ws1s::ForallPos("r".into(), Box::new(Ws1s::In("r".into(), "X".into()))),
            )),
        );
        assert!(valid(&f));
    }

    #[test]
    fn invalid_formulas_have_counterexamples() {
        // "every position is in X" is not valid for a free X.
        let f = Ws1s::ForallPos("p".into(), Box::new(Ws1s::In("p".into(), "X".into())));
        let d = Decider::new(&f);
        // In WS1S the set X is finite while positions are unbounded, so the formula is
        // in fact unsatisfiable; the decision procedure must report a counterexample
        // (possibly the empty word, whose zero-extension provides the witness position).
        assert!(matches!(d.decide(&f), Ws1sOutcome::CounterExample(_)));
        // A satisfiable but non-valid formula also yields a counterexample.
        let g = Ws1s::ExistsPos("p".into(), Box::new(Ws1s::In("p".into(), "X".into())));
        let d2 = Decider::new(&g);
        assert!(matches!(d2.decide(&g), Ws1sOutcome::CounterExample(_)));
        assert!(d2.satisfiable(&g));
    }

    #[test]
    fn satisfiability_of_membership_constraints() {
        let d_formula = Ws1s::And(vec![
            Ws1s::In("x".into(), "X".into()),
            Ws1s::Not(Box::new(Ws1s::In("x".into(), "Y".into()))),
            Ws1s::Subset("Y".into(), "X".into()),
        ]);
        let d = Decider::new(&d_formula);
        assert!(d.satisfiable(&d_formula));
        let contradictory = Ws1s::And(vec![
            Ws1s::In("x".into(), "X".into()),
            Ws1s::Empty("X".into()),
        ]);
        let d2 = Decider::new(&contradictory);
        assert!(!d2.satisfiable(&contradictory));
    }

    #[test]
    fn there_is_always_a_first_position_in_nonempty_sets() {
        // all2 X. (ex1 x. x in X) => ex1 y. y in X & all1 z. z in X => ~(z < y)
        let f = Ws1s::ForallSet(
            "X".into(),
            Box::new(Ws1s::implies(
                Ws1s::ExistsPos("x".into(), Box::new(Ws1s::In("x".into(), "X".into()))),
                Ws1s::ExistsPos(
                    "y".into(),
                    Box::new(Ws1s::And(vec![
                        Ws1s::In("y".into(), "X".into()),
                        Ws1s::ForallPos(
                            "z".into(),
                            Box::new(Ws1s::implies(
                                Ws1s::In("z".into(), "X".into()),
                                Ws1s::Not(Box::new(Ws1s::Less("z".into(), "y".into()))),
                            )),
                        ),
                    ])),
                ),
            )),
        );
        assert!(valid(&f));
    }
}
