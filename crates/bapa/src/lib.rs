//! # jahob-bapa
//!
//! The BAPA decision procedure of the Jahob reproduction: quantifier-free **B**oolean
//! **A**lgebra of sets with **P**resburger **A**rithmetic cardinality constraints
//! (§6.5 of *Full Functional Verification of Linked Data Structures*, PLDI 2008;
//! Kuncak–Nguyen–Rinard, CADE'05/CADE'07).
//!
//! The procedure works on sequents whose atoms talk about object sets (`Un`, `Int`,
//! set difference, `{}`, finite-set displays of object variables), their cardinalities
//! and linear integer arithmetic. It decides validity by the classic Venn-region
//! reduction: for the `n` set variables occurring in the sequent, introduce one
//! non-negative integer unknown per Venn region (2^n of them), translate every set
//! atom into linear constraints over sums of region cardinalities, and hand the
//! negation to the Presburger solver in `jahob-arith`. An `Unsat` answer for the
//! negation proves the sequent.
//!
//! Quantified assumptions are dropped before translation (BAPA is quantifier-free;
//! an `inst`-hinted obligation is decided from its ground instance — see
//! `jahob_provers::inst` and `docs/SPEC_LANGUAGE.md`), and
//! atoms outside the BAPA fragment are approximated away by polarity (Figure 14), so
//! the prover is sound and simply declines sequents it cannot strengthen usefully.
//! That front end (comment stripping, simplification, the dropping, the approximation
//! and the negation normal forms the reduction reads) runs on the dispatcher's formula
//! bank ([`prove_interned`]); [`prove_sequent`] runs it on a fresh bank.
//!
//! # Example
//!
//! ```
//! use jahob_bapa::{prove_sequent, BapaOptions};
//! use jahob_logic::{parse_form, Sequent};
//!
//! // The sized-list invariant: inserting a fresh element grows the cardinality by one.
//! let sequent = Sequent::new(
//!     vec![
//!         parse_form("size = card content").unwrap(),
//!         parse_form("x ~: content").unwrap(),
//!         parse_form("content1 = content Un {x}").unwrap(),
//!     ],
//!     parse_form("size + 1 = card content1").unwrap(),
//! );
//! assert!(prove_sequent(&sequent, &BapaOptions::default()).proved);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use jahob_arith::{check_with_limits, Constraint, Limits, LinExpr, Outcome, VarId};
use jahob_logic::bank::{Bank, Fragment, InternedSequent, NodeId};
use jahob_logic::form::{Const, Form};
use jahob_logic::Sequent;
use std::collections::BTreeMap;

/// Options for the BAPA prover.
#[derive(Debug, Clone)]
pub struct BapaOptions {
    /// Maximum number of distinct set variables (the reduction introduces `2^n` Venn
    /// regions, so this must stay small).
    pub max_set_variables: usize,
    /// Limits for the underlying Presburger solver.
    pub arith_limits: Limits,
}

impl Default for BapaOptions {
    fn default() -> Self {
        BapaOptions {
            max_set_variables: 8,
            arith_limits: Limits::default(),
        }
    }
}

/// Result of a BAPA proof attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BapaResult {
    /// `true` if the sequent was proved valid.
    pub proved: bool,
    /// `true` if the sequent was (at least partially) inside the BAPA fragment.
    pub applicable: bool,
    /// Number of set variables in the reduction.
    pub set_variables: usize,
}

/// Attempts to prove a sequent using the BAPA decision procedure, on a fresh bank.
pub fn prove_sequent(sequent: &Sequent, options: &BapaOptions) -> BapaResult {
    let mut bank = Bank::new();
    let interned = bank.intern_sequent(sequent);
    prove_interned(&mut bank, &interned, options)
}

/// BAPA's front end on the bank: each formula with its comments stripped and
/// simplified, the quantified assumptions dropped, then the implication approximated
/// into the BAPA fragment ([`Fragment::Bapa`]). Returns the approximated assumptions,
/// without those that became `True`, and the approximated goal.
///
/// Quantified assumptions are dropped first: BAPA is quantifier-free, the constraint
/// builder would reject the whole sequent on meeting one, and discarding an assumption
/// only weakens the premise set (it can never prove more), so a sequent whose universal
/// assumption was specialised by a `by inst` hint is decided from the ground instance
/// alone.
pub fn approximate(bank: &mut Bank, sequent: &InternedSequent) -> (Vec<NodeId>, NodeId) {
    let prepare = |bank: &mut Bank, f: NodeId| {
        let stripped = bank.strip_comments(f);
        bank.simplify(stripped)
    };
    let mut assumptions = Vec::with_capacity(sequent.assumptions.len());
    for a in &sequent.assumptions {
        let prepared = prepare(bank, *a);
        if !bank.has_quantifier(prepared) {
            assumptions.push(prepared);
        }
    }
    let goal = prepare(bank, sequent.goal);
    bank.approximate_implication(&assumptions, goal, Fragment::Bapa)
}

/// [`prove_sequent`] of a sequent in `bank`: the approximation and the negation normal
/// forms the reduction reads run on the bank, the Venn reduction on their formulas.
pub fn prove_interned(
    bank: &mut Bank,
    sequent: &InternedSequent,
    options: &BapaOptions,
) -> BapaResult {
    let not_applicable = |set_variables| BapaResult {
        proved: false,
        applicable: false,
        set_variables,
    };
    let (assumptions, goal) = approximate(bank, sequent);
    if bank.is_false(goal) && assumptions.is_empty() {
        // Nothing useful survived approximation: the goal can only be established from
        // contradictory assumptions, and none are left.
        return not_applicable(0);
    }
    // The refutation: every assumption and the negated goal, in negation normal form.
    let negated = bank.not(goal);
    let refutation: Vec<Form> = assumptions
        .iter()
        .copied()
        .chain(std::iter::once(negated))
        .map(|f| {
            let normal = bank.nnf(f);
            bank.materialise(normal)
        })
        .collect();
    let assumptions: Vec<Form> = assumptions.iter().map(|a| bank.materialise(*a)).collect();
    let goal = bank.materialise(goal);

    // Collect set variables (and singleton elements) mentioned. Scanning is iterated so
    // that a bare variable equated with a set expression in one atom is recognised as a
    // set when it appears first in another atom.
    let mut env = VennEnv::default();
    let mut ok = true;
    for _pass in 0..3 {
        for a in assumptions.iter().chain(std::iter::once(&goal)) {
            ok &= env.scan(a);
        }
    }
    if !ok || env.sets.len() > options.max_set_variables {
        return not_applicable(env.sets.len());
    }

    // Build constraints for: assumptions AND NOT goal, as a small disjunction of
    // conjunctive branches (disequalities and disjunctions split into branches). The
    // sequent is proved when every branch is unsatisfiable.
    let mut builder = ConstraintBuilder::new(env);
    let mut branches = vec![builder.base_constraints()];
    let mut supported = true;
    for f in &refutation {
        supported &= builder.add_nnf(f, &mut branches);
    }
    if !supported || branches.len() > MAX_BRANCHES {
        return not_applicable(builder.env.sets.len());
    }
    let proved = branches
        .iter()
        .all(|b| check_with_limits(b, options.arith_limits) == Outcome::Unsat);
    BapaResult {
        proved,
        applicable: true,
        set_variables: builder.env.sets.len(),
    }
}

/// Maximum number of disjunctive branches explored by the reduction.
const MAX_BRANCHES: usize = 64;

fn is_set_expr(t: &Form) -> bool {
    match t {
        Form::Var(_) | Form::Const(Const::EmptySet) | Form::Const(Const::UnivSet) => true,
        Form::App(head, args) => match head.as_ref() {
            Form::Const(Const::Union)
            | Form::Const(Const::Inter)
            | Form::Const(Const::Diff)
            | Form::Const(Const::Minus) => args.iter().all(is_set_expr),
            Form::Const(Const::FiniteSet) => args.iter().all(is_element),
            _ => false,
        },
        _ => false,
    }
}

fn is_element(t: &Form) -> bool {
    matches!(t, Form::Var(_) | Form::Const(Const::Null))
}

/// The environment of the Venn-region reduction: which names denote sets and which
/// denote single elements. A variable used both as a set (in set position) and as an
/// integer is rejected.
#[derive(Debug, Clone, Default)]
struct VennEnv {
    /// Set variables, in first-seen order. Singleton elements `x` are modelled as the
    /// set `{x}` with an additional `card = 1` constraint, per the standard reduction.
    sets: Vec<String>,
    singletons: Vec<String>,
    ints: Vec<String>,
}

impl VennEnv {
    fn scan(&mut self, f: &Form) -> bool {
        match f {
            Form::App(head, args) => {
                if let Form::Const(c) = head.as_ref() {
                    match c {
                        Const::Elem if args.len() == 2 => {
                            return self.scan_element(&args[0]) && self.scan_set(&args[1]);
                        }
                        Const::SubsetEq | Const::Subset => {
                            return args.iter().all(|a| self.scan_set(a));
                        }
                        Const::Eq => {
                            // If either side is definitely a set, both sides are sets.
                            let definitely_set = |t: &Form, env: &VennEnv| {
                                (is_set_expr(t) && !matches!(t, Form::Var(_)))
                                    || matches!(t, Form::Var(v) if env.sets.contains(v))
                            };
                            if args.iter().any(|a| definitely_set(a, self)) {
                                return args.iter().all(|a| self.scan_set(a));
                            }
                            return args.iter().all(|a| self.scan_term(a));
                        }
                        Const::Lt | Const::LtEq | Const::Gt | Const::GtEq => {
                            return args.iter().all(|a| self.scan_term(a));
                        }
                        Const::And | Const::Or | Const::Not | Const::Impl | Const::Iff => {
                            return args.iter().all(|a| self.scan(a));
                        }
                        _ => {}
                    }
                }
                args.iter().all(|a| self.scan(a))
            }
            _ => true,
        }
    }

    fn scan_term(&mut self, t: &Form) -> bool {
        if is_set_expr(t) && !matches!(t, Form::Var(_)) {
            return self.scan_set(t);
        }
        match t {
            Form::Var(v) => {
                // Ambiguous: a bare variable compared with `=` could be a set or an
                // integer. Treat it as a set if it is already known as one, otherwise as
                // an integer (a variable used inside `card` or a set operation will have
                // been registered as a set by the time atoms are translated).
                if self.sets.contains(v) || self.singletons.contains(v) {
                    true
                } else {
                    if !self.ints.contains(v) {
                        self.ints.push(v.clone());
                    }
                    true
                }
            }
            Form::Const(Const::IntLit(_)) | Form::Const(Const::Null) => true,
            Form::App(head, args) => match head.as_ref() {
                Form::Const(Const::Plus)
                | Form::Const(Const::Minus)
                | Form::Const(Const::UMinus) => args.iter().all(|a| self.scan_term(a)),
                Form::Const(Const::Card) => args.len() == 1 && self.scan_set(&args[0]),
                _ => false,
            },
            _ => false,
        }
    }

    fn scan_set(&mut self, t: &Form) -> bool {
        match t {
            Form::Var(v) => {
                if !self.sets.contains(v) {
                    self.sets.push(v.clone());
                }
                true
            }
            Form::Const(Const::EmptySet) | Form::Const(Const::UnivSet) => true,
            Form::App(head, args) => match head.as_ref() {
                Form::Const(Const::Union)
                | Form::Const(Const::Inter)
                | Form::Const(Const::Diff)
                | Form::Const(Const::Minus) => args.iter().all(|a| self.scan_set(a)),
                Form::Const(Const::FiniteSet) => args.iter().all(|a| self.scan_element(a)),
                _ => false,
            },
            _ => false,
        }
    }

    fn scan_element(&mut self, t: &Form) -> bool {
        match t {
            Form::Var(v) => {
                if !self.singletons.contains(v) && !self.sets.contains(v) {
                    self.singletons.push(v.clone());
                }
                if !self.sets.contains(v) {
                    // The element is modelled as the singleton set named after it.
                    self.sets.push(v.clone());
                }
                true
            }
            Form::Const(Const::Null) => {
                if !self.sets.contains(&"$null".to_string()) {
                    self.sets.push("$null".to_string());
                    self.singletons.push("$null".to_string());
                }
                true
            }
            _ => false,
        }
    }
}

/// Builds Presburger constraints over Venn-region cardinalities.
struct ConstraintBuilder {
    env: VennEnv,
    /// Integer variables: Venn regions first, then the integer program variables.
    int_vars: BTreeMap<String, VarId>,
    next_var: VarId,
}

impl ConstraintBuilder {
    fn new(env: VennEnv) -> Self {
        let regions = 1usize << env.sets.len();
        ConstraintBuilder {
            env,
            int_vars: BTreeMap::new(),
            next_var: regions as VarId,
        }
    }

    /// One non-negative unknown per Venn region; singleton sets have cardinality one.
    fn base_constraints(&mut self) -> Vec<Constraint> {
        let n = self.env.sets.len();
        let mut out = Vec::new();
        for region in 0..(1u32 << n) {
            out.push(Constraint::non_negative(region));
        }
        let singles = self.env.singletons.clone();
        for name in singles {
            let denotation = SetDenotation::of_var(&self.env, &name);
            let e = self.set_cardinality(&denotation);
            out.push(Constraint::eq(e, LinExpr::constant(1)));
        }
        out
    }

    fn int_var(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.int_vars.get(name) {
            return v;
        }
        let v = self.next_var;
        self.next_var += 1;
        self.int_vars.insert(name.to_string(), v);
        v
    }

    /// Adds the constraints of a formula in negation normal form to every branch.
    /// Disjunctions (including the case splits arising from negated equalities)
    /// multiply the branch set. Returns `false` if the formula is unsupported.
    fn add_nnf(&mut self, f: &Form, branches: &mut Vec<Vec<Constraint>>) -> bool {
        if f.is_true() {
            return true;
        }
        if f.is_false() {
            // An impossible branch: 1 <= 0.
            for b in branches.iter_mut() {
                b.push(Constraint::le(LinExpr::constant(1), LinExpr::zero()));
            }
            return true;
        }
        if let Some(args) = f.as_app_of(&Const::And) {
            return args.iter().all(|a| self.add_nnf(a, branches));
        }
        if let Some(args) = f.as_app_of(&Const::Or) {
            let mut all = Vec::new();
            for a in args {
                let mut copy = branches.clone();
                if !self.add_nnf(a, &mut copy) {
                    return false;
                }
                all.extend(copy);
            }
            if all.len() > MAX_BRANCHES {
                return false;
            }
            *branches = all;
            return true;
        }
        if let Some(inner) = f.as_negation() {
            return self.add_atom(inner, false, branches);
        }
        self.add_atom(f, true, branches)
    }

    /// Pushes a constraint onto every branch.
    fn push_all(branches: &mut [Vec<Constraint>], c: Constraint) {
        for b in branches.iter_mut() {
            b.push(c.clone());
        }
    }

    fn add_atom(
        &mut self,
        atom: &Form,
        positive: bool,
        branches: &mut Vec<Vec<Constraint>>,
    ) -> bool {
        let Form::App(head, args) = atom else {
            return false;
        };
        let Form::Const(c) = head.as_ref() else {
            return false;
        };
        match (c, args.as_slice()) {
            (Const::Elem, [e, s]) if positive => {
                // {e} subseteq s  :  card({e} \ s) = 0
                let se = SetDenotation::of_form(&self.env, e);
                let ss = SetDenotation::of_form(&self.env, s);
                let diff = se.diff(&ss);
                let card = self.set_cardinality(&diff);
                Self::push_all(branches, Constraint::eq(card, LinExpr::zero()));
                true
            }
            (Const::Elem, [e, s]) => {
                // not (e : s)  :  card({e} Int s) = 0
                let se = SetDenotation::of_form(&self.env, e);
                let ss = SetDenotation::of_form(&self.env, s);
                let inter = se.inter(&ss);
                let card = self.set_cardinality(&inter);
                Self::push_all(branches, Constraint::eq(card, LinExpr::zero()));
                true
            }
            (Const::SubsetEq, [a, b]) if positive => {
                let sa = SetDenotation::of_form(&self.env, a);
                let sb = SetDenotation::of_form(&self.env, b);
                let card = self.set_cardinality(&sa.diff(&sb));
                Self::push_all(branches, Constraint::eq(card, LinExpr::zero()));
                true
            }
            (Const::Eq, [l, r]) => {
                if is_set_expr(l)
                    && is_set_expr(r)
                    && (self.is_known_set(l) || self.is_known_set(r))
                {
                    let sl = SetDenotation::of_form(&self.env, l);
                    let sr = SetDenotation::of_form(&self.env, r);
                    let lr = self.set_cardinality(&sl.diff(&sr));
                    let rl = self.set_cardinality(&sr.diff(&sl));
                    if positive {
                        // Symmetric difference empty.
                        Self::push_all(branches, Constraint::eq(lr, LinExpr::zero()));
                        Self::push_all(branches, Constraint::eq(rl, LinExpr::zero()));
                    } else {
                        // Sets differ: some element is in exactly one of them.
                        let mut with_left = branches.clone();
                        Self::push_all(&mut with_left, Constraint::ge(lr, LinExpr::constant(1)));
                        Self::push_all(branches, Constraint::ge(rl, LinExpr::constant(1)));
                        branches.extend(with_left);
                        if branches.len() > MAX_BRANCHES {
                            return false;
                        }
                    }
                    true
                } else {
                    let (Some(el), Some(er)) = (self.int_term(l), self.int_term(r)) else {
                        return false;
                    };
                    if positive {
                        Self::push_all(branches, Constraint::eq(el, er));
                    } else {
                        // l != r splits into l < r and l > r.
                        let mut with_lt = branches.clone();
                        Self::push_all(&mut with_lt, Constraint::lt(el.clone(), er.clone()));
                        Self::push_all(branches, Constraint::gt(el, er));
                        branches.extend(with_lt);
                        if branches.len() > MAX_BRANCHES {
                            return false;
                        }
                    }
                    true
                }
            }
            (Const::LtEq, [l, r]) | (Const::GtEq, [r, l]) => {
                let (Some(el), Some(er)) = (self.int_term(l), self.int_term(r)) else {
                    return false;
                };
                Self::push_all(
                    branches,
                    if positive {
                        Constraint::le(el, er)
                    } else {
                        Constraint::gt(el, er)
                    },
                );
                true
            }
            (Const::Lt, [l, r]) | (Const::Gt, [r, l]) => {
                let (Some(el), Some(er)) = (self.int_term(l), self.int_term(r)) else {
                    return false;
                };
                Self::push_all(
                    branches,
                    if positive {
                        Constraint::lt(el, er)
                    } else {
                        Constraint::ge(el, er)
                    },
                );
                true
            }
            _ => false,
        }
    }

    fn is_known_set(&self, f: &Form) -> bool {
        match f {
            Form::Var(v) => self.env.sets.contains(v),
            Form::App(_, _) | Form::Const(Const::EmptySet) | Form::Const(Const::UnivSet) => {
                is_set_expr(f)
            }
            _ => false,
        }
    }

    fn int_term(&mut self, t: &Form) -> Option<LinExpr> {
        match t {
            Form::Const(Const::IntLit(n)) => Some(LinExpr::constant(*n as i128)),
            Form::Var(v) => {
                if self.env.sets.contains(v) {
                    // A set variable in integer position is outside the fragment.
                    None
                } else {
                    Some(LinExpr::var(self.int_var(v)))
                }
            }
            Form::App(head, args) => match (head.as_ref(), args.as_slice()) {
                (Form::Const(Const::Plus), [a, b]) => {
                    Some(self.int_term(a)?.add(&self.int_term(b)?))
                }
                (Form::Const(Const::Minus), [a, b]) => {
                    Some(self.int_term(a)?.sub(&self.int_term(b)?))
                }
                (Form::Const(Const::UMinus), [a]) => Some(self.int_term(a)?.scale(-1)),
                (Form::Const(Const::Card), [s]) => {
                    let d = SetDenotation::of_form(&self.env, s);
                    Some(self.set_cardinality(&d))
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// The cardinality of a set denotation as the sum of its Venn regions.
    fn set_cardinality(&self, set: &SetDenotation) -> LinExpr {
        let mut e = LinExpr::zero();
        for region in &set.regions {
            e.add_term(*region, 1);
        }
        e
    }
}

/// A set denotation: the collection of Venn regions (bitmask-indexed integer variables)
/// the set covers.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SetDenotation {
    regions: Vec<VarId>,
}

impl SetDenotation {
    fn universe(env: &VennEnv) -> Self {
        SetDenotation {
            regions: (0..(1u32 << env.sets.len())).collect(),
        }
    }

    fn empty() -> Self {
        SetDenotation {
            regions: Vec::new(),
        }
    }

    fn of_var(env: &VennEnv, name: &str) -> Self {
        let Some(idx) = env.sets.iter().position(|s| s == name) else {
            return SetDenotation::empty();
        };
        let bit = 1u32 << idx;
        SetDenotation {
            regions: (0..(1u32 << env.sets.len()))
                .filter(|r| r & bit != 0)
                .collect(),
        }
    }

    fn of_form(env: &VennEnv, f: &Form) -> Self {
        match f {
            Form::Var(v) => SetDenotation::of_var(env, v),
            Form::Const(Const::Null) => SetDenotation::of_var(env, "$null"),
            Form::Const(Const::EmptySet) => SetDenotation::empty(),
            Form::Const(Const::UnivSet) => SetDenotation::universe(env),
            Form::App(head, args) => match head.as_ref() {
                Form::Const(Const::Union) => args
                    .iter()
                    .map(|a| SetDenotation::of_form(env, a))
                    .fold(SetDenotation::empty(), |acc, s| acc.union(&s)),
                Form::Const(Const::Inter) => args
                    .iter()
                    .map(|a| SetDenotation::of_form(env, a))
                    .fold(SetDenotation::universe(env), |acc, s| acc.inter(&s)),
                Form::Const(Const::Diff) | Form::Const(Const::Minus) => {
                    let first = SetDenotation::of_form(env, &args[0]);
                    args[1..]
                        .iter()
                        .fold(first, |acc, a| acc.diff(&SetDenotation::of_form(env, a)))
                }
                Form::Const(Const::FiniteSet) => args
                    .iter()
                    .map(|a| SetDenotation::of_form(env, a))
                    .fold(SetDenotation::empty(), |acc, s| acc.union(&s)),
                _ => SetDenotation::empty(),
            },
            _ => SetDenotation::empty(),
        }
    }

    fn union(&self, other: &Self) -> Self {
        let mut regions = self.regions.clone();
        for r in &other.regions {
            if !regions.contains(r) {
                regions.push(*r);
            }
        }
        regions.sort_unstable();
        SetDenotation { regions }
    }

    fn inter(&self, other: &Self) -> Self {
        SetDenotation {
            regions: self
                .regions
                .iter()
                .copied()
                .filter(|r| other.regions.contains(r))
                .collect(),
        }
    }

    fn diff(&self, other: &Self) -> Self {
        SetDenotation {
            regions: self
                .regions
                .iter()
                .copied()
                .filter(|r| !other.regions.contains(r))
                .collect(),
        }
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
        prove_sequent(&seq(assumptions, goal), &BapaOptions::default()).proved
    }

    #[test]
    fn proves_cardinality_of_insertion() {
        // The Figure 6 sized-list obligation: size invariant is preserved by addNew.
        assert!(proves(
            &[
                "size = card content",
                "x ~: content",
                "content1 = content Un {x}"
            ],
            "size + 1 = card content1"
        ));
    }

    #[test]
    fn does_not_prove_insertion_without_freshness() {
        // Without x ~: content the cardinality might not grow.
        assert!(!proves(
            &["size = card content", "content1 = content Un {x}"],
            "size + 1 = card content1"
        ));
    }

    #[test]
    fn proves_cardinality_monotonicity() {
        assert!(proves(&["a subseteq b"], "card a <= card b"));
        assert!(proves(&[], "card (a Int b) <= card a"));
        assert!(!proves(&[], "card a <= card (a Int b)"));
    }

    #[test]
    fn proves_emptiness_reasoning() {
        assert!(proves(&["content = {}"], "card content = 0"));
        assert!(proves(&["card content = 0", "x : content"], "1 <= 0"));
        assert!(proves(&[], "card {} = 0"));
    }

    #[test]
    fn proves_non_negativity_of_cardinality() {
        assert!(proves(&["size = card content"], "0 <= size"));
    }

    #[test]
    fn proves_membership_and_subset_interactions() {
        assert!(proves(&["x : a", "a subseteq b"], "x : b"));
        assert!(proves(&["x : a"], "1 <= card a"));
        assert!(!proves(&["x : a Un b"], "x : a"));
    }

    #[test]
    fn declines_sequents_outside_the_fragment() {
        // Reachability atoms are outside BAPA; they are approximated away, so the goal
        // cannot be established from them.
        let r = prove_sequent(
            &seq(&["rtrancl_pt (% u v. u..next = v) root x"], "x ~= root"),
            &BapaOptions::default(),
        );
        assert!(!r.proved);
        // A goal mentioning tree shape only is entirely outside the fragment.
        let r2 = prove_sequent(
            &seq(&["tree [Node.left]"], "tree [Node.left]"),
            &BapaOptions::default(),
        );
        assert!(!r2.applicable);
    }

    #[test]
    fn respects_set_variable_limit() {
        let opts = BapaOptions {
            max_set_variables: 2,
            ..BapaOptions::default()
        };
        let r = prove_sequent(
            &seq(
                &[],
                "card (a Un b Un c Un d) <= card a + card b + card c + card d",
            ),
            &opts,
        );
        assert!(!r.applicable);
    }

    #[test]
    fn proves_union_cardinality_bound() {
        assert!(proves(&[], "card (a Un b) <= card a + card b"));
        assert!(proves(
            &["card (a Int b) = 0"],
            "card (a Un b) = card a + card b"
        ));
    }
}
