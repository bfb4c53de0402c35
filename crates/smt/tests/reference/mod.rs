//! The ground solver as it was before the flat kernel, and SMT's front end as it was
//! before the formula bank ([`front_end`]), kept as test oracles.
//!
//! Every theory check interns the assigned atoms' terms into a fresh
//! `CongruenceClosure` of `String`-named terms and numbers the arithmetic variables
//! in a `BTreeMap`. The kernel in `jahob_smt::ground` must return what
//! [`check_clauses`] returns on every clause set and under every limit.

#![allow(dead_code)]

pub mod front_end;

/// The `Form`-recursive approximation and simplification, from the logic crate's
/// oracle.
#[path = "../../../logic/tests/reference/mod.rs"]
pub mod logic;

use jahob_arith::{Constraint, LinExpr};
use jahob_smt::{GAtom, GClause, GTerm, GroundLimits, GroundOutcome};
use std::collections::BTreeMap;

/// Decides satisfiability of a conjunction of ground clauses modulo EUF + LIA.
pub fn check_clauses(clauses: &[GClause], limits: GroundLimits) -> GroundOutcome {
    // Collect the distinct atoms.
    let mut atoms: Vec<GAtom> = Vec::new();
    let mut atom_index: BTreeMap<GAtom, usize> = BTreeMap::new();
    for c in clauses {
        for l in c {
            if !atom_index.contains_key(&l.atom) {
                atom_index.insert(l.atom.clone(), atoms.len());
                atoms.push(l.atom.clone());
            }
        }
    }
    // Clauses as (atom index, sign) pairs.
    let mut index_clauses: Vec<Vec<(usize, bool)>> = clauses
        .iter()
        .map(|c| {
            c.iter()
                .map(|l| (atom_index[&l.atom], l.positive))
                .collect()
        })
        .collect();

    let mut steps = 0usize;
    let mut assignment: Vec<Option<bool>> = vec![None; atoms.len()];
    let mut deadline_hit = false;
    match dpll(
        &atoms,
        &mut index_clauses,
        &mut assignment,
        &mut steps,
        limits,
        &mut deadline_hit,
    ) {
        Some(true) => GroundOutcome::Sat,
        Some(false) => GroundOutcome::Unsat,
        None if deadline_hit => GroundOutcome::Deadline,
        None => GroundOutcome::Unknown,
    }
}

/// DPLL with chronological backtracking and theory checks on complete assignments and on
/// every extension (early conflict detection through the theory solver would be possible
/// but is not needed at the problem sizes the dispatcher sends here).
fn dpll(
    atoms: &[GAtom],
    clauses: &mut Vec<Vec<(usize, bool)>>,
    assignment: &mut Vec<Option<bool>>,
    steps: &mut usize,
    limits: GroundLimits,
    deadline_hit: &mut bool,
) -> Option<bool> {
    *steps += 1;
    if *steps > limits.max_steps {
        return None;
    }
    if let Some(deadline) = limits.deadline {
        if std::time::Instant::now() >= deadline {
            *deadline_hit = true;
            return None;
        }
    }
    // Unit propagation.
    let mut trail: Vec<usize> = Vec::new();
    loop {
        let mut changed = false;
        for clause in clauses.iter() {
            let mut unassigned = None;
            let mut satisfied = false;
            let mut num_unassigned = 0;
            for &(a, sign) in clause {
                match assignment[a] {
                    Some(v) if v == sign => {
                        satisfied = true;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        num_unassigned += 1;
                        unassigned = Some((a, sign));
                    }
                }
            }
            if satisfied {
                continue;
            }
            if num_unassigned == 0 {
                // Conflict.
                for a in trail {
                    assignment[a] = None;
                }
                return Some(false);
            }
            if num_unassigned == 1 {
                let (a, sign) = unassigned.expect("one unassigned literal");
                assignment[a] = Some(sign);
                trail.push(a);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Theory check on the current (partial) assignment.
    if !theory_consistent(atoms, assignment) {
        for a in trail {
            assignment[a] = None;
        }
        return Some(false);
    }

    // Pick an unassigned atom.
    let next = assignment.iter().position(Option::is_none);
    let result = match next {
        None => Some(true),
        Some(a) => {
            let mut res = None;
            for value in [true, false] {
                assignment[a] = Some(value);
                match dpll(atoms, clauses, assignment, steps, limits, deadline_hit) {
                    Some(true) => {
                        res = Some(true);
                        break;
                    }
                    Some(false) => {
                        assignment[a] = None;
                        res = Some(false);
                        continue;
                    }
                    None => {
                        res = None;
                        break;
                    }
                }
            }
            if res == Some(true) {
                res
            } else {
                assignment[a] = None;
                res
            }
        }
    };
    if result != Some(true) {
        for a in trail {
            assignment[a] = None;
        }
    }
    result
}

/// Checks whether the currently assigned atoms are consistent with EUF + LIA.
fn theory_consistent(atoms: &[GAtom], assignment: &[Option<bool>]) -> bool {
    // --- EUF ---
    let mut cc = CongruenceClosure::new();
    let intern = |cc: &mut CongruenceClosure, t: &GTerm| -> usize { intern_term(cc, t) };
    let true_id = cc.intern_const("$true");
    let false_id = cc.intern_const("$false");
    if !cc.assert_neq(true_id, false_id) {
        return false;
    }
    for (i, atom) in atoms.iter().enumerate() {
        let Some(value) = assignment[i] else { continue };
        match atom {
            GAtom::Eq(a, b) => {
                let ia = intern(&mut cc, a);
                let ib = intern(&mut cc, b);
                let ok = if value {
                    cc.assert_eq(ia, ib)
                } else {
                    cc.assert_neq(ia, ib)
                };
                if !ok {
                    return false;
                }
            }
            GAtom::Pred(p, args) => {
                let ids: Vec<usize> = args.iter().map(|a| intern(&mut cc, a)).collect();
                let app = cc.intern(format!("$pred${p}"), ids);
                let target = if value { true_id } else { false_id };
                if !cc.assert_eq(app, target) {
                    return false;
                }
            }
            GAtom::Le(_, _) | GAtom::Lt(_, _) => {}
        }
    }

    // --- LIA ---
    // Arithmetic atoms plus equalities over arithmetic terms become linear constraints.
    let mut vars: BTreeMap<GTerm, u32> = BTreeMap::new();
    let mut constraints: Vec<Constraint> = Vec::new();
    for (i, atom) in atoms.iter().enumerate() {
        let Some(value) = assignment[i] else { continue };
        match atom {
            GAtom::Le(a, b) => {
                let (ea, eb) = (to_linexpr(a, &mut vars), to_linexpr(b, &mut vars));
                constraints.push(if value {
                    Constraint::le(ea, eb)
                } else {
                    Constraint::gt(ea, eb)
                });
            }
            GAtom::Lt(a, b) => {
                let (ea, eb) = (to_linexpr(a, &mut vars), to_linexpr(b, &mut vars));
                constraints.push(if value {
                    Constraint::lt(ea, eb)
                } else {
                    Constraint::ge(ea, eb)
                });
            }
            GAtom::Eq(a, b) if value => {
                // Positive equalities are shared with the arithmetic solver regardless of
                // the shape of the terms (the Nelson-Oppen equality propagation direction
                // EUF → LIA): uninterpreted terms simply become arithmetic variables, so
                // an equality like `p = q` still links the constraints that mention `p`
                // and `q`.
                let (ea, eb) = (to_linexpr(a, &mut vars), to_linexpr(b, &mut vars));
                constraints.push(Constraint::eq(ea, eb));
            }
            GAtom::Eq(a, b) if !value && (is_arithmetic(a) || is_arithmetic(b)) => {
                // A disequality over integers is not convex; ignoring it is sound for
                // consistency checking (it only makes the constraints easier to satisfy,
                // so we may answer Sat more often, never Unsat wrongly).
                let _ = (a, b);
            }
            _ => {}
        }
    }
    if constraints.is_empty() {
        return true;
    }
    jahob_arith::check(&constraints) != jahob_arith::Outcome::Unsat
}

/// Returns `true` if the term contains arithmetic structure.
fn is_arithmetic(t: &GTerm) -> bool {
    matches!(
        t,
        GTerm::Int(_) | GTerm::Add(..) | GTerm::Sub(..) | GTerm::Mul(..)
    )
}

fn intern_term(cc: &mut CongruenceClosure, t: &GTerm) -> usize {
    match t {
        GTerm::Int(n) => cc.intern_const(format!("$int${n}")),
        GTerm::App(s, args) => {
            let ids: Vec<usize> = args.iter().map(|a| intern_term(cc, a)).collect();
            cc.intern(s.clone(), ids)
        }
        GTerm::Add(a, b) => {
            let ia = intern_term(cc, a);
            let ib = intern_term(cc, b);
            cc.intern("$add", vec![ia, ib])
        }
        GTerm::Sub(a, b) => {
            let ia = intern_term(cc, a);
            let ib = intern_term(cc, b);
            cc.intern("$sub", vec![ia, ib])
        }
        GTerm::Mul(k, a) => {
            let ik = cc.intern_const(format!("$int${k}"));
            let ia = intern_term(cc, a);
            cc.intern("$mul", vec![ik, ia])
        }
    }
}

fn to_linexpr(t: &GTerm, vars: &mut BTreeMap<GTerm, u32>) -> LinExpr {
    match t {
        GTerm::Int(n) => LinExpr::constant(*n as i128),
        GTerm::Add(a, b) => to_linexpr(a, vars).add(&to_linexpr(b, vars)),
        GTerm::Sub(a, b) => to_linexpr(a, vars).sub(&to_linexpr(b, vars)),
        GTerm::Mul(k, a) => to_linexpr(a, vars).scale(*k as i128),
        other => {
            let next = vars.len() as u32;
            let id = *vars.entry(other.clone()).or_insert(next);
            LinExpr::var(id)
        }
    }
}

/// A ground term handle (index into the term table).
pub type TermId = usize;

/// A ground term: a symbol applied to already-interned arguments.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroundTerm {
    /// Function symbol (constants have no arguments).
    pub symbol: String,
    /// Argument term ids.
    pub args: Vec<TermId>,
}

/// A congruence closure engine over interned ground terms.
#[derive(Debug, Clone, Default)]
pub struct CongruenceClosure {
    terms: Vec<GroundTerm>,
    index: BTreeMap<GroundTerm, TermId>,
    parent: Vec<TermId>,
    /// For each representative, the list of terms that have a member of this class as an
    /// argument (used to re-check congruence after merges).
    users: Vec<Vec<TermId>>,
    /// Disequalities asserted so far (pairs of term ids).
    disequalities: Vec<(TermId, TermId)>,
}

impl CongruenceClosure {
    /// Creates an empty engine.
    pub fn new() -> Self {
        CongruenceClosure::default()
    }

    /// Interns a term, returning its id. Equal terms always receive the same id.
    pub fn intern(&mut self, symbol: impl Into<String>, args: Vec<TermId>) -> TermId {
        let t = GroundTerm {
            symbol: symbol.into(),
            args,
        };
        if let Some(&id) = self.index.get(&t) {
            return id;
        }
        let id = self.terms.len();
        self.terms.push(t.clone());
        self.index.insert(t.clone(), id);
        self.parent.push(id);
        self.users.push(Vec::new());
        for &a in &t.args {
            let ra = self.find(a);
            self.users[ra].push(id);
        }
        // Congruence with existing terms is detected lazily on merges; a fresh term with
        // arguments already congruent to another application must be merged now.
        self.merge_congruent_with(id);
        id
    }

    /// Interns a constant.
    pub fn intern_const(&mut self, symbol: impl Into<String>) -> TermId {
        self.intern(symbol, Vec::new())
    }

    /// The number of interned terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    fn find(&self, mut x: TermId) -> TermId {
        while self.parent[x] != x {
            x = self.parent[x];
        }
        x
    }

    /// Returns `true` if the two terms are currently known to be equal.
    pub fn equal(&self, a: TermId, b: TermId) -> bool {
        self.find(a) == self.find(b)
    }

    /// Asserts an equality. Returns `false` if this makes the state inconsistent with a
    /// previously asserted disequality.
    pub fn assert_eq(&mut self, a: TermId, b: TermId) -> bool {
        self.merge(a, b);
        self.consistent()
    }

    /// Asserts a disequality. Returns `false` if the two terms are already equal.
    pub fn assert_neq(&mut self, a: TermId, b: TermId) -> bool {
        self.disequalities.push((a, b));
        self.consistent()
    }

    /// Returns `true` if no asserted disequality is violated.
    pub fn consistent(&self) -> bool {
        self.disequalities.iter().all(|&(a, b)| !self.equal(a, b))
    }

    fn merge(&mut self, a: TermId, b: TermId) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        // Union by moving ra under rb (rb becomes representative).
        self.parent[ra] = rb;
        let moved_users = std::mem::take(&mut self.users[ra]);
        // Collect congruent pairs among users of the merged classes.
        let mut to_merge: Vec<(TermId, TermId)> = Vec::new();
        for &u in &moved_users {
            for &v in &self.users[rb] {
                if u != v && self.congruent(u, v) && !self.equal(u, v) {
                    to_merge.push((u, v));
                }
            }
        }
        self.users[rb].extend(moved_users);
        for (u, v) in to_merge {
            self.merge(u, v);
        }
    }

    fn congruent(&self, a: TermId, b: TermId) -> bool {
        let ta = &self.terms[a];
        let tb = &self.terms[b];
        ta.symbol == tb.symbol
            && ta.args.len() == tb.args.len()
            && ta
                .args
                .iter()
                .zip(tb.args.iter())
                .all(|(&x, &y)| self.equal(x, y))
    }

    fn merge_congruent_with(&mut self, id: TermId) {
        let mut to_merge = Vec::new();
        for other in 0..self.terms.len() {
            if other != id && self.congruent(id, other) && !self.equal(id, other) {
                to_merge.push(other);
            }
        }
        for other in to_merge {
            self.merge(id, other);
        }
    }
}
