//! Ground SMT solving: DPLL over theory atoms with congruence closure and linear integer
//! arithmetic.
//!
//! After quantifier instantiation (see [`crate::translate`]) a proof obligation becomes a
//! ground formula over theory atoms. The solver abstracts each atom to a boolean, runs a
//! small DPLL search with unit propagation over a clausal abstraction, and checks every
//! node's assignment against the theories:
//!
//! * equalities/disequalities and uninterpreted predicates via [`crate::euf`],
//! * linear integer arithmetic via `jahob-arith`.
//!
//! An inconsistent assignment closes its branch and the search backtracks, so it ends
//! with either a theory-consistent total assignment (`Sat`: the obligation is not
//! proved) or a refutation (`Unsat`: the obligation is proved).
//!
//! The search runs on a flat kernel. A clause set is interned once: each distinct term
//! and atom gets an integer id, every term is a node of one congruence-closure graph,
//! and every arithmetic atom carries its linear row over the ids of its uninterpreted
//! terms. A theory check clears the closure and merges the assigned equalities and
//! predicate values over that graph, then builds the arithmetic constraints from the
//! assigned rows. Atoms are numbered by first occurrence in clause order, and the
//! arithmetic variables of a check by first occurrence in the assigned rows, as the
//! solver that interned `String`-named terms at every check numbered them.

use crate::euf::{CongruenceClosure, TermId};
use jahob_arith::{Constraint, LinExpr, Rel};
use jahob_logic::bank::FastMap;
use std::collections::HashMap;
use std::fmt;

/// A ground theory term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GTerm {
    /// An integer literal.
    Int(i64),
    /// An application of an uninterpreted symbol (constants have no arguments).
    App(String, Vec<GTerm>),
    /// Integer addition.
    Add(Box<GTerm>, Box<GTerm>),
    /// Integer subtraction.
    Sub(Box<GTerm>, Box<GTerm>),
    /// Multiplication by a constant (non-linear products are not supported).
    Mul(i64, Box<GTerm>),
}

impl GTerm {
    /// A constant symbol.
    pub fn constant(name: impl Into<String>) -> GTerm {
        GTerm::App(name.into(), Vec::new())
    }
}

impl fmt::Display for GTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GTerm::Int(n) => write!(f, "{n}"),
            GTerm::App(s, args) => {
                write!(f, "{s}")?;
                if !args.is_empty() {
                    write!(f, "(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            GTerm::Add(a, b) => write!(f, "({a} + {b})"),
            GTerm::Sub(a, b) => write!(f, "({a} - {b})"),
            GTerm::Mul(k, a) => write!(f, "({k} * {a})"),
        }
    }
}

/// A ground theory atom.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GAtom {
    /// Equality between terms.
    Eq(GTerm, GTerm),
    /// `lhs <= rhs` over the integers.
    Le(GTerm, GTerm),
    /// `lhs < rhs` over the integers.
    Lt(GTerm, GTerm),
    /// An uninterpreted predicate applied to terms (includes propositional atoms, which
    /// have no arguments).
    Pred(String, Vec<GTerm>),
}

impl fmt::Display for GAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GAtom::Eq(a, b) => write!(f, "{a} = {b}"),
            GAtom::Le(a, b) => write!(f, "{a} <= {b}"),
            GAtom::Lt(a, b) => write!(f, "{a} < {b}"),
            GAtom::Pred(p, args) => write!(f, "{}", GTerm::App(p.clone(), args.clone())),
        }
    }
}

/// A ground literal: an atom with a sign.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GLiteral {
    /// `true` for the positive occurrence of the atom.
    pub positive: bool,
    /// The atom.
    pub atom: GAtom,
}

impl GLiteral {
    /// Positive literal.
    pub fn pos(atom: GAtom) -> Self {
        GLiteral {
            positive: true,
            atom,
        }
    }

    /// Negative literal.
    pub fn neg(atom: GAtom) -> Self {
        GLiteral {
            positive: false,
            atom,
        }
    }
}

/// A ground clause (disjunction of literals).
pub type GClause = Vec<GLiteral>;

/// Result of a ground satisfiability check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroundOutcome {
    /// The clause set is unsatisfiable modulo the theories.
    Unsat,
    /// A theory-consistent assignment was found (or the solver cannot refute the set).
    Sat,
    /// Resource limits exceeded.
    Unknown,
    /// The wall-clock deadline ([`GroundLimits::deadline`]) passed before the search
    /// reached an answer. Like `Unknown`, the verdict is open — but the stop is
    /// attributed to time, not to the step budget.
    Deadline,
}

/// Limits for the ground search.
#[derive(Debug, Clone, Copy)]
pub struct GroundLimits {
    /// Maximum number of DPLL search nodes: the root, and each value tried for a
    /// decided atom. Every node propagates units and checks the theories.
    pub max_steps: usize,
    /// Absolute wall-clock deadline, checked at the same cooperative point as the
    /// step budget (once per DPLL step). Passing it stops the search with
    /// [`GroundOutcome::Deadline`]. `None` (the default) disables the check.
    pub deadline: Option<std::time::Instant>,
}

impl Default for GroundLimits {
    fn default() -> Self {
        GroundLimits {
            max_steps: 6_000,
            deadline: None,
        }
    }
}

/// Decides satisfiability of a conjunction of ground clauses modulo EUF + LIA.
pub fn check_clauses(clauses: &[GClause], limits: GroundLimits) -> GroundOutcome {
    let mut problem = Problem::default();
    let index_clauses: Vec<IndexClause> = clauses
        .iter()
        .map(|c| {
            c.iter()
                .map(|l| (problem.atom(&l.atom), l.positive))
                .collect()
        })
        .collect();
    problem.solve(index_clauses, limits)
}

/// A clause over interned atoms: `(atom index, sign)` pairs.
pub type IndexClause = Vec<(usize, bool)>;

/// DPLL with chronological backtracking. Each call is one search node and one step:
/// the root, or one value tried for the decided atom. A node checks the step budget
/// and the deadline, propagates units to a fixpoint, and then, unless propagation
/// conflicted, checks the assigned atoms against the theories; a theory conflict
/// closes the node like a propagation conflict. An open node decides the
/// lowest-numbered unassigned atom, `true` first.
fn dpll(
    theory: &mut Theory,
    clauses: &[Vec<(usize, bool)>],
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
        for clause in clauses {
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
    if !theory.consistent(assignment) {
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
                match dpll(theory, clauses, assignment, steps, limits, deadline_hit) {
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

/// A term's structural key: a tag and two fields. An application `f(a1, ..., ak)` is
/// a chain, the head `(f, k)` and then one link per argument, so that terms of every
/// arity have keys of one size; the links before the last are not terms.
type TermKey = (u8, u64, u32);

const INT: u8 = 0;
const HEAD: u8 = 1;
const LINK: u8 = 2;
const ADD: u8 = 3;
const SUB: u8 = 4;
const MUL: u8 = 5;
const PRED_HEAD: u8 = 6;

/// An atom's key: its kind and the ids of its terms (a predicate's chain end).
type AtomKey = (u8, u32, u32);

const EQ: u8 = 0;
const LE: u8 = 1;
const LT: u8 = 2;
const PRED: u8 = 3;

/// How a term reads as linear arithmetic; an uninterpreted term is a variable.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Int(i64),
    Add(u32, u32),
    Sub(u32, u32),
    Mul(i64, u32),
    Other,
}

/// What an assigned atom asserts in congruence closure.
#[derive(Debug, Clone, Copy)]
enum Euf {
    /// Equal (or, when false, distinct) terms.
    Eq(TermId, TermId),
    /// A predicate application, equal to `$true` or `$false`.
    Pred(TermId),
    /// Nothing: an inequality.
    None,
}

/// The relation an arithmetic atom's row holds in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Relation {
    Eq,
    Le,
    Lt,
}

/// The linear form `lhs - rhs` of an arithmetic atom, over the ids of its
/// uninterpreted terms.
#[derive(Debug, Clone)]
struct Row {
    relation: Relation,
    /// The uninterpreted terms in the order a left-to-right walk of `lhs` and then
    /// `rhs` first meets them, zero-sum ones included: the walk numbers them.
    walk: Vec<u32>,
    /// Non-zero coefficients by term id.
    terms: Vec<(u32, i128)>,
    constant: i128,
}

#[derive(Debug, Clone)]
struct Atom {
    euf: Euf,
    row: Option<Row>,
}

/// A clause set's terms and atoms, interned once. Every term gets an id, a node in
/// one congruence-closure graph and a linear shape; every atom an index, by first
/// occurrence ([`Problem::atom`]), and atoms whose terms intern alike share one.
#[derive(Default)]
pub struct Problem {
    /// Symbol names: the clause set's, and the closure's names for integers
    /// (`$int$5`), arithmetic (`$add`, `$sub`, `$mul`), predicates (`$pred$p`) and
    /// truth values. A term named like one of these is the same closure term.
    names: HashMap<String, u32>,
    keys: FastMap<TermKey, u32>,
    /// The closure node of each term id (unused for chain links).
    nodes: Vec<TermId>,
    shapes: Vec<Shape>,
    /// The arguments of the chains being interned, innermost last.
    stack: Vec<u32>,
    /// The closure's predicate name by predicate name.
    predicates: FastMap<u32, u32>,
    cc: CongruenceClosure,
    atom_ids: FastMap<AtomKey, usize>,
    atoms: Vec<Atom>,
}

impl Problem {
    fn name(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.insert(name.to_string(), id);
        id
    }

    /// Decides the clauses over this problem's atoms. The atoms are numbered by first
    /// occurrence in `clauses`; atoms no clause mentions take no part.
    pub fn solve(self, mut clauses: Vec<IndexClause>, limits: GroundLimits) -> GroundOutcome {
        let mut interned: Vec<Option<Atom>> = self.atoms.into_iter().map(Some).collect();
        let mut number = vec![usize::MAX; interned.len()];
        let mut atoms = Vec::new();
        for (a, _) in clauses.iter_mut().flatten() {
            if number[*a] == usize::MAX {
                number[*a] = atoms.len();
                atoms.push(interned[*a].take().expect("an atom is numbered once"));
            }
            *a = number[*a];
        }
        let mut theory = Theory::new(self.names, self.nodes.len(), self.cc, atoms);

        let mut steps = 0usize;
        let mut assignment: Vec<Option<bool>> = vec![None; theory.atoms.len()];
        let mut deadline_hit = false;
        match dpll(
            &mut theory,
            &clauses,
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

    /// The id for `key`, and whether it is new.
    fn key(&mut self, key: TermKey) -> (u32, bool) {
        let next = u32::try_from(self.nodes.len()).expect("fewer than 2^32 terms");
        let id = *self.keys.entry(key).or_insert(next);
        if id == next {
            self.nodes.push(TermId::MAX);
            self.shapes.push(Shape::Other);
        }
        (id, id == next)
    }

    /// Interns a term whose closure node is `symbol` applied to the nodes of `args`.
    fn operation(
        &mut self,
        key: TermKey,
        shape: Shape,
        symbol: &'static str,
        args: [u32; 2],
    ) -> u32 {
        let (id, new) = self.key(key);
        if new {
            let symbol = self.name(symbol);
            let nodes = args.map(|a| self.nodes[a as usize]);
            self.nodes[id as usize] = self.cc.intern(symbol, &nodes);
            self.shapes[id as usize] = shape;
        }
        id
    }

    fn int(&mut self, n: i64) -> u32 {
        let (id, new) = self.key((INT, n as u64, 0));
        if new {
            let symbol = self.name(&format!("$int${n}"));
            self.nodes[id as usize] = self.cc.intern(symbol, &[]);
            self.shapes[id as usize] = Shape::Int(n);
        }
        id
    }

    fn term(&mut self, t: &GTerm) -> u32 {
        match t {
            GTerm::Int(n) => self.int(*n),
            GTerm::App(name, args) => {
                let symbol = self.name(name);
                self.chain(HEAD, symbol, symbol, args)
            }
            GTerm::Add(a, b) => {
                let (a, b) = (self.term(a), self.term(b));
                self.operation((ADD, a.into(), b), Shape::Add(a, b), "$add", [a, b])
            }
            GTerm::Sub(a, b) => {
                let (a, b) = (self.term(a), self.term(b));
                self.operation((SUB, a.into(), b), Shape::Sub(a, b), "$sub", [a, b])
            }
            GTerm::Mul(k, a) => {
                let factor = self.int(*k);
                let a = self.term(a);
                self.operation((MUL, *k as u64, a), Shape::Mul(*k, a), "$mul", [factor, a])
            }
        }
    }

    /// Interns the chain of `symbol` applied to `args` under the head tag `head`, and
    /// gives a new chain end the closure node of `node_symbol` applied to the
    /// arguments' nodes.
    fn chain(&mut self, head: u8, symbol: u32, node_symbol: u32, args: &[GTerm]) -> u32 {
        let base = self.stack.len();
        let (mut id, mut new) = self.key((head, symbol.into(), args.len() as u32));
        for a in args {
            let a = self.term(a);
            self.stack.push(a);
            (id, new) = self.key((LINK, id.into(), a));
        }
        if new {
            let nodes: Vec<TermId> = self.stack[base..]
                .iter()
                .map(|&a| self.nodes[a as usize])
                .collect();
            self.nodes[id as usize] = self.cc.intern(node_symbol, &nodes);
        }
        self.stack.truncate(base);
        id
    }

    /// The closure's name for predicate `p` (named `name`), `$pred$p`.
    fn predicate(&mut self, name: u32, p: &str) -> u32 {
        if let Some(&symbol) = self.predicates.get(&name) {
            return symbol;
        }
        let symbol = self.name(&format!("$pred${p}"));
        self.predicates.insert(name, symbol);
        symbol
    }

    /// The index of `atom`: the index of an atom interned before whose terms intern
    /// alike, or the next index.
    pub fn atom(&mut self, atom: &GAtom) -> usize {
        let (key, terms) = match atom {
            GAtom::Eq(a, b) => (EQ, (self.term(a), self.term(b))),
            GAtom::Le(a, b) => (LE, (self.term(a), self.term(b))),
            GAtom::Lt(a, b) => (LT, (self.term(a), self.term(b))),
            GAtom::Pred(p, args) => {
                let name = self.name(p);
                let symbol = self.predicate(name, p);
                (PRED, (self.chain(PRED_HEAD, name, symbol, args), 0))
            }
        };
        let next = self.atoms.len();
        let index = *self.atom_ids.entry((key, terms.0, terms.1)).or_insert(next);
        if index == next {
            let (a, b) = terms;
            let node = |id: u32| self.nodes[id as usize];
            let (euf, relation) = match key {
                EQ => (Euf::Eq(node(a), node(b)), Some(Relation::Eq)),
                LE => (Euf::None, Some(Relation::Le)),
                LT => (Euf::None, Some(Relation::Lt)),
                _ => (Euf::Pred(node(a)), None),
            };
            let row = relation.map(|relation| self.row(relation, a, b));
            self.atoms.push(Atom { euf, row });
        }
        index
    }

    fn row(&self, relation: Relation, lhs: u32, rhs: u32) -> Row {
        let mut row = Row {
            relation,
            walk: Vec::new(),
            terms: Vec::new(),
            constant: 0,
        };
        self.linear(lhs, 1, &mut row);
        self.linear(rhs, -1, &mut row);
        row.terms.retain(|&(_, c)| c != 0);
        row
    }

    /// Adds `factor` times the linear form of term `t` to `row`.
    fn linear(&self, t: u32, factor: i128, row: &mut Row) {
        match self.shapes[t as usize] {
            Shape::Int(n) => row.constant += factor * n as i128,
            Shape::Add(a, b) => {
                self.linear(a, factor, row);
                self.linear(b, factor, row);
            }
            Shape::Sub(a, b) => {
                self.linear(a, factor, row);
                self.linear(b, -factor, row);
            }
            Shape::Mul(k, a) => self.linear(a, factor * k as i128, row),
            Shape::Other => match row.terms.iter_mut().find(|(u, _)| *u == t) {
                Some((_, c)) => *c += factor,
                None => {
                    row.walk.push(t);
                    row.terms.push((t, factor));
                }
            },
        }
    }
}

/// The theories over one interned clause set.
struct Theory {
    cc: CongruenceClosure,
    true_node: TermId,
    false_node: TermId,
    atoms: Vec<Atom>,
    /// The arithmetic variable number of each term id in the current check, and the
    /// check that gave it.
    numbers: Vec<(u32, u32)>,
    checks: u32,
}

impl Theory {
    fn new(
        mut names: HashMap<String, u32>,
        terms: usize,
        mut cc: CongruenceClosure,
        atoms: Vec<Atom>,
    ) -> Theory {
        let mut truth = |name: &str| {
            let next = names.len() as u32;
            let symbol = *names.entry(name.to_string()).or_insert(next);
            cc.intern(symbol, &[])
        };
        let (true_node, false_node) = (truth("$true"), truth("$false"));
        Theory {
            cc,
            true_node,
            false_node,
            atoms,
            numbers: vec![(0, 0); terms],
            checks: 0,
        }
    }

    /// Checks whether the currently assigned atoms are consistent with EUF + LIA.
    fn consistent(&mut self, assignment: &[Option<bool>]) -> bool {
        // --- EUF ---
        self.cc.clear();
        self.cc.separate(self.true_node, self.false_node);
        for (atom, value) in self.atoms.iter().zip(assignment) {
            let Some(value) = *value else { continue };
            match atom.euf {
                Euf::Eq(a, b) if value => self.cc.merge(a, b),
                Euf::Eq(a, b) => self.cc.separate(a, b),
                Euf::Pred(p) => {
                    let target = if value {
                        self.true_node
                    } else {
                        self.false_node
                    };
                    self.cc.merge(p, target);
                }
                Euf::None => {}
            }
        }
        if !self.cc.consistent() {
            return false;
        }

        // --- LIA ---
        // Inequalities with either value, and positive equalities, become linear
        // constraints in atom order. Positive equalities are shared with the
        // arithmetic solver regardless of the shape of the terms (the Nelson-Oppen
        // equality propagation direction EUF → LIA): uninterpreted terms simply become
        // arithmetic variables, so an equality like `p = q` still links the
        // constraints that mention `p` and `q`. A disequality over integers is not
        // convex; ignoring it is sound for consistency checking (it only makes the
        // constraints easier to satisfy, so we may answer Sat more often, never Unsat
        // wrongly). Variables are numbered as the assigned rows first meet them.
        self.checks += 1;
        let mut variables = 0;
        let mut constraints: Vec<Constraint> = Vec::new();
        for (atom, value) in self.atoms.iter().zip(assignment) {
            let (Some(value), Some(row)) = (*value, &atom.row) else {
                continue;
            };
            // `lhs - rhs`, negated for the flipped relations, plus one for the strict
            // ones: `lhs > rhs` is `rhs - lhs + 1 <= 0`.
            let (negate, strict, rel) = match (row.relation, value) {
                (Relation::Le, true) => (false, false, Rel::Le),
                (Relation::Le, false) => (true, true, Rel::Le),
                (Relation::Lt, true) => (false, true, Rel::Le),
                (Relation::Lt, false) => (true, false, Rel::Le),
                (Relation::Eq, true) => (false, false, Rel::Eq),
                (Relation::Eq, false) => continue,
            };
            for &t in &row.walk {
                let number = &mut self.numbers[t as usize];
                if number.0 != self.checks {
                    *number = (self.checks, variables);
                    variables += 1;
                }
            }
            let sign = if negate { -1 } else { 1 };
            let mut expr = LinExpr::constant(sign * row.constant + i128::from(strict));
            for &(t, c) in &row.terms {
                expr.add_term(self.numbers[t as usize].1, sign * c);
            }
            constraints.push(Constraint { expr, rel });
        }
        if constraints.is_empty() {
            return true;
        }
        jahob_arith::check(&constraints) != jahob_arith::Outcome::Unsat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(name: &str) -> GTerm {
        GTerm::constant(name)
    }

    #[test]
    fn propositional_conflict_is_unsat() {
        let p = GAtom::Pred("p".into(), vec![]);
        let clauses = vec![
            vec![GLiteral::pos(p.clone())],
            vec![GLiteral::neg(p.clone())],
        ];
        assert_eq!(
            check_clauses(&clauses, GroundLimits::default()),
            GroundOutcome::Unsat
        );
    }

    #[test]
    fn propositional_model_is_sat() {
        let p = GAtom::Pred("p".into(), vec![]);
        let q = GAtom::Pred("q".into(), vec![]);
        let clauses = vec![vec![GLiteral::pos(p.clone()), GLiteral::pos(q.clone())]];
        assert_eq!(
            check_clauses(&clauses, GroundLimits::default()),
            GroundOutcome::Sat
        );
    }

    #[test]
    fn euf_congruence_conflict() {
        // a = b, f(a) != f(b) is unsat.
        let fa = GTerm::App("f".into(), vec![c("a")]);
        let fb = GTerm::App("f".into(), vec![c("b")]);
        let clauses = vec![
            vec![GLiteral::pos(GAtom::Eq(c("a"), c("b")))],
            vec![GLiteral::neg(GAtom::Eq(fa, fb))],
        ];
        assert_eq!(
            check_clauses(&clauses, GroundLimits::default()),
            GroundOutcome::Unsat
        );
    }

    #[test]
    fn euf_transitivity_through_clauses() {
        // a = b, (b = c | b = d), a != c, a != d  is unsat.
        let clauses = vec![
            vec![GLiteral::pos(GAtom::Eq(c("a"), c("b")))],
            vec![
                GLiteral::pos(GAtom::Eq(c("b"), c("c"))),
                GLiteral::pos(GAtom::Eq(c("b"), c("d"))),
            ],
            vec![GLiteral::neg(GAtom::Eq(c("a"), c("c")))],
            vec![GLiteral::neg(GAtom::Eq(c("a"), c("d")))],
        ];
        assert_eq!(
            check_clauses(&clauses, GroundLimits::default()),
            GroundOutcome::Unsat
        );
    }

    #[test]
    fn lia_conflicts_are_detected() {
        // x <= 3, x >= 5 is unsat; predicates over integers interact with equalities.
        let x = c("x");
        let clauses = vec![
            vec![GLiteral::pos(GAtom::Le(x.clone(), GTerm::Int(3)))],
            vec![GLiteral::pos(GAtom::Le(GTerm::Int(5), x.clone()))],
        ];
        assert_eq!(
            check_clauses(&clauses, GroundLimits::default()),
            GroundOutcome::Unsat
        );
    }

    #[test]
    fn lia_with_arithmetic_terms() {
        // size1 = size0 + 1, size0 >= 0, size1 <= 0 is unsat.
        let size0 = c("size0");
        let size1 = c("size1");
        let clauses = vec![
            vec![GLiteral::pos(GAtom::Eq(
                size1.clone(),
                GTerm::Add(Box::new(size0.clone()), Box::new(GTerm::Int(1))),
            ))],
            vec![GLiteral::pos(GAtom::Le(GTerm::Int(0), size0.clone()))],
            vec![GLiteral::pos(GAtom::Le(size1.clone(), GTerm::Int(0)))],
        ];
        assert_eq!(
            check_clauses(&clauses, GroundLimits::default()),
            GroundOutcome::Unsat
        );
    }

    #[test]
    fn mixed_euf_and_boolean_structure() {
        // (a = b | a = c), f(b) = d, f(c) = d, f(a) != d  is unsat.
        let fa = GTerm::App("f".into(), vec![c("a")]);
        let fb = GTerm::App("f".into(), vec![c("b")]);
        let fc = GTerm::App("f".into(), vec![c("c")]);
        let clauses = vec![
            vec![
                GLiteral::pos(GAtom::Eq(c("a"), c("b"))),
                GLiteral::pos(GAtom::Eq(c("a"), c("c"))),
            ],
            vec![GLiteral::pos(GAtom::Eq(fb, c("d")))],
            vec![GLiteral::pos(GAtom::Eq(fc, c("d")))],
            vec![GLiteral::neg(GAtom::Eq(fa, c("d")))],
        ];
        assert_eq!(
            check_clauses(&clauses, GroundLimits::default()),
            GroundOutcome::Unsat
        );
    }

    #[test]
    fn atoms_are_numbered_by_first_occurrence_in_the_clauses() {
        // `a` is refuted at once when decided first and only after every `x_i` is
        // decided otherwise, so the completing step count shows the numbering.
        let p = |name: &str| GAtom::Pred(name.into(), vec![]);
        let mut clauses: Vec<GClause> = vec![
            vec![GLiteral::pos(p("a")), GLiteral::pos(p("b"))],
            vec![GLiteral::pos(p("a")), GLiteral::neg(p("b"))],
            vec![GLiteral::neg(p("a")), GLiteral::pos(p("c"))],
            vec![GLiteral::neg(p("a")), GLiteral::neg(p("c"))],
        ];
        for i in 0..4 {
            clauses.push(vec![
                GLiteral::pos(p(&format!("x{i}"))),
                GLiteral::pos(p(&format!("y{i}"))),
            ]);
        }
        let limits = |max_steps| GroundLimits {
            max_steps,
            deadline: None,
        };
        let complete = |solve: &dyn Fn(usize) -> GroundOutcome| {
            (1..).find(|&steps| solve(steps) != GroundOutcome::Unknown)
        };
        // The translation interns atoms as it converts them, which need not be the
        // order in which the clauses first mention them: here, the reverse.
        let interned_in_reverse = |steps| {
            let mut problem = Problem::default();
            for clause in clauses.iter().rev() {
                for l in clause.iter().rev() {
                    problem.atom(&l.atom);
                }
            }
            let index: Vec<IndexClause> = clauses
                .iter()
                .map(|c| {
                    c.iter()
                        .map(|l| (problem.atom(&l.atom), l.positive))
                        .collect()
                })
                .collect();
            problem.solve(index, limits(steps))
        };
        let in_order = |steps| check_clauses(&clauses, limits(steps));
        assert_eq!(complete(&in_order), Some(3));
        assert_eq!(complete(&interned_in_reverse), Some(3));
        assert_eq!(in_order(3), GroundOutcome::Unsat);
    }

    #[test]
    fn limits_return_unknown() {
        // Many independent atoms with a tiny step budget.
        let mut clauses = Vec::new();
        for i in 0..20 {
            let p = GAtom::Pred(format!("p{i}"), vec![]);
            let q = GAtom::Pred(format!("q{i}"), vec![]);
            clauses.push(vec![GLiteral::pos(p.clone()), GLiteral::pos(q.clone())]);
            clauses.push(vec![GLiteral::neg(p), GLiteral::neg(q)]);
        }
        let out = check_clauses(
            &clauses,
            GroundLimits {
                max_steps: 3,
                ..GroundLimits::default()
            },
        );
        assert_eq!(out, GroundOutcome::Unknown);
    }
}
