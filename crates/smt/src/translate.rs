//! Translation of higher-order sequents into ground SMT problems.
//!
//! This is the Jahob SMT-LIB interface of §6.3, rebuilt on top of the ground solver in
//! [`crate::ground`]. It shares the first-order interface's rewriting and polarity
//! approximation ([`Bank::first_order_implication`]), but instead of clausal resolution
//! it *instantiates* universally quantified assumptions with the ground terms occurring
//! in the sequent — a simple, trigger-free variant of E-matching — and then decides the
//! resulting ground formula with DPLL + congruence closure + linear integer arithmetic.
//!
//! The front end runs on the dispatcher's formula bank ([`jahob_logic::bank`]). The
//! approximation and the negation normal form are memoised per node in the bank, and
//! the rest per node in an [`SmtMemo`] beside it: each node's candidate terms, whether
//! grounding or the division pass can change it, its converted atom, and each
//! formula's grounding (per candidate pool) and clauses. A formula shared by several
//! sequents of a batch, or by both instantiation rounds, is translated once.
//!
//! An existential is Skolemised by its Skolem term: a fresh symbol applied to the
//! variables of the enclosing universal quantifiers, outermost first (a constant when
//! there are none). Instantiating a universal instantiates the witnesses under it, so
//! `ALL x. EX y. y..next = x` says that every instance has its own witness. Each
//! round numbers the Skolem symbols from 0, so a Skolem term one round adds to the
//! candidate pool is the one the next round's formulas contain.

use crate::ground::{GAtom, GTerm, GroundLimits, GroundOutcome, IndexClause, Problem};
use jahob_logic::bank::{Bank, FastMap, FirstOrderVars, InternedSequent, Node, NodeId, Sym};
use jahob_logic::form::{Binder, Const};
use jahob_logic::Sequent;
use std::collections::BTreeSet;

/// Options for the SMT translation.
#[derive(Debug, Clone)]
pub struct SmtOptions {
    /// Variables known to denote sets.
    pub set_vars: BTreeSet<String>,
    /// Variables known to denote functions/fields.
    pub fun_vars: BTreeSet<String>,
    /// Maximum number of instances generated per quantified assumption.
    pub max_instances_per_quantifier: usize,
    /// Number of instantiation rounds (new terms produced by one round can trigger the
    /// next).
    pub instantiation_rounds: usize,
    /// Maximum number of ground clauses before giving up.
    pub max_clauses: usize,
    /// DPLL search limits.
    pub ground_limits: GroundLimits,
}

impl Default for SmtOptions {
    fn default() -> Self {
        SmtOptions {
            set_vars: BTreeSet::new(),
            fun_vars: BTreeSet::new(),
            max_instances_per_quantifier: 96,
            instantiation_rounds: 2,
            max_clauses: 9_000,
            ground_limits: GroundLimits::default(),
        }
    }
}

/// Result of an SMT proof attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmtResult {
    /// `true` if the sequent was proved.
    pub proved: bool,
    /// The underlying ground outcome (`Unsat` means proved).
    pub outcome: GroundOutcome,
    /// Number of ground clauses given to the solver.
    pub clauses: usize,
}

/// The ground clauses an attempt hands to the solver: each atom by its index (as the
/// first formula atom interned at that index converted), then the clauses over the
/// indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundClauses {
    /// The atoms, by index.
    pub atoms: Vec<GAtom>,
    /// The clauses, in order.
    pub clauses: Vec<IndexClause>,
}

/// The clauses of one ground formula over its own atoms: the formula's atoms in order
/// of first occurrence, each clause as `(position in atoms, sign)` pairs, and the
/// largest clause count the conversion checked against its budget.
#[derive(Debug)]
struct Cnf {
    atoms: Vec<NodeId>,
    clauses: Vec<Vec<(u32, bool)>>,
    peak: usize,
}

/// What the SMT attempts on one [`Bank`] share, per node of that bank: the converted
/// atom, the candidate terms, whether grounding and the division pass can change a
/// node, and each formula's grounding (per candidate pool and first Skolem number)
/// and clauses. A memo belongs to one bank and must only be used with it.
#[derive(Debug, Default)]
pub struct SmtMemo {
    atoms: FastMap<NodeId, GAtom>,
    terms: FastMap<NodeId, Box<[NodeId]>>,
    /// Per node: unknown, or whether grounding can change it.
    quantified: Vec<u8>,
    /// Per node: unknown, or whether the division pass can change it.
    divides: Vec<u8>,
    pools: FastMap<(Box<[NodeId]>, usize), u32>,
    grounded: FastMap<(NodeId, u32, u32), (NodeId, u32)>,
    cnfs: FastMap<(NodeId, usize), Option<Cnf>>,
    skolems: Vec<Sym>,
}

const UNKNOWN: u8 = u8::MAX;

/// A per-node yes/no memo slot.
fn memo_bit(memo: &[u8], id: NodeId) -> Option<bool> {
    match memo.get(id.index()) {
        Some(&v) if v != UNKNOWN => Some(v == 1),
        _ => None,
    }
}

fn set_memo_bit(memo: &mut Vec<u8>, id: NodeId, value: bool) {
    let i = id.index();
    if memo.len() <= i {
        memo.resize(i + 1, UNKNOWN);
    }
    memo[i] = value as u8;
}

/// Attempts to prove the sequent by refuting its negation modulo EUF + LIA, on a
/// fresh bank.
pub fn prove_sequent(sequent: &Sequent, options: &SmtOptions) -> SmtResult {
    let mut bank = Bank::new();
    let interned = bank.intern_sequent(sequent);
    prove_interned(&mut bank, &interned, options, &mut SmtMemo::default())
}

/// [`prove_sequent`] of a sequent in `bank`, with `memo` the SMT memo of that bank.
pub fn prove_interned(
    bank: &mut Bank,
    sequent: &InternedSequent,
    options: &SmtOptions,
    memo: &mut SmtMemo,
) -> SmtResult {
    match translate(bank, sequent, options, memo) {
        Ok((problem, clauses, _)) => {
            let n = clauses.len();
            let outcome = problem.solve(clauses, options.ground_limits);
            SmtResult {
                proved: outcome == GroundOutcome::Unsat,
                outcome,
                clauses: n,
            }
        }
        Err(clauses) => SmtResult {
            proved: false,
            outcome: GroundOutcome::Unknown,
            clauses,
        },
    }
}

/// The ground clauses [`prove_interned`] hands to the solver, or the clause count at
/// which they overflowed [`SmtOptions::max_clauses`].
pub fn ground_clauses(
    bank: &mut Bank,
    sequent: &InternedSequent,
    options: &SmtOptions,
    memo: &mut SmtMemo,
) -> Result<GroundClauses, usize> {
    let (_, clauses, atom_nodes) = translate(bank, sequent, options, memo)?;
    let atoms = atom_nodes.iter().map(|n| memo.atoms[n].clone()).collect();
    Ok(GroundClauses { atoms, clauses })
}

/// The translation of one sequent: the problem with its atoms, the clauses, and for
/// each atom index the formula atom first interned there; or the clause count at an
/// overflow.
type Translation = Result<(Problem, Vec<IndexClause>, Vec<NodeId>), usize>;

fn translate(
    bank: &mut Bank,
    sequent: &InternedSequent,
    options: &SmtOptions,
    memo: &mut SmtMemo,
) -> Translation {
    let vars = bank.first_order_vars(&options.set_vars, &options.fun_vars);
    let (assumptions, goal) =
        bank.first_order_implication(&sequent.assumptions, sequent.goal, vars);

    // The refutation target: assumptions and the negated goal, in negation normal form.
    let mut formulas = assumptions;
    formulas.push(bank.not(goal));
    let formulas: Vec<NodeId> = formulas.into_iter().map(|f| bank.nnf(f)).collect();

    let mut attempt = Attempt::new(bank, memo, options);
    let ground = attempt.ground_all(&formulas, vars);
    // Give meaning to integer division and remainder by positive literal divisors (the
    // priority queue's parent/child index arithmetic needs this).
    let ground = if ground.iter().any(|f| attempt.divides(*f)) {
        attempt.define_divisions(ground)
    } else {
        ground
    };
    attempt.clauses(&ground)
}

/// One attempt's view of the bank and the memo.
struct Attempt<'a> {
    bank: &'a mut Bank,
    memo: &'a mut SmtMemo,
    options: &'a SmtOptions,
    next_skolem: u32,
}

impl<'a> Attempt<'a> {
    fn new(bank: &'a mut Bank, memo: &'a mut SmtMemo, options: &'a SmtOptions) -> Self {
        Attempt {
            bank,
            memo,
            options,
            next_skolem: 0,
        }
    }

    // ------------------------------------------------------------- candidates

    /// The candidate terms of a node, as `collect_terms` finds them with no enclosing
    /// binder: free variables, `null`, and applications of a variable to one variable
    /// or `null`, each not mentioning a variable bound inside the node. Memoised per
    /// node; in no particular order.
    fn terms(&mut self, id: NodeId) -> &[NodeId] {
        if !self.memo.terms.contains_key(&id) {
            let out = self.collect_terms(id);
            self.memo.terms.insert(id, out.into());
        }
        &self.memo.terms[&id]
    }

    fn collect_terms(&mut self, id: NodeId) -> Vec<NodeId> {
        match self.bank.node(id).clone() {
            Node::Var(_) | Node::Const(Const::Null) => vec![id],
            Node::App(head, args) => {
                let mut out = Vec::new();
                if matches!(self.bank.node(head), Node::Var(_))
                    && args.len() == 1
                    && matches!(
                        self.bank.node(args[0]),
                        Node::Var(_) | Node::Const(Const::Null)
                    )
                {
                    out.push(id);
                }
                for a in args.iter() {
                    out.extend_from_slice(self.terms(*a));
                }
                out.sort_unstable_by_key(|t| t.index());
                out.dedup();
                out
            }
            Node::Binder(_, vars, body) => {
                let mut out = self.terms(body).to_vec();
                out.retain(|t| !vars.iter().any(|(v, _)| self.bank.is_free_in(*v, *t)));
                out
            }
            Node::Typed(f, _) => self.terms(f).to_vec(),
            _ => Vec::new(),
        }
    }

    /// `collect_candidate_terms`: the candidate terms of `formulas` and `null`,
    /// without function variables and the array state, sorted by [`Bank::order`] (as
    /// formulas sort) and cut to the first 20.
    fn candidates(&mut self, formulas: &[NodeId], vars: FirstOrderVars) -> Vec<NodeId> {
        let mut seen: FastMap<NodeId, ()> = FastMap::default();
        let null = self.bank.constant(Const::Null);
        seen.insert(null, ());
        for f in formulas {
            seen.extend(self.terms(*f).iter().map(|t| (*t, ())));
        }
        let bank = &*self.bank;
        let mut out: Vec<NodeId> = seen
            .into_keys()
            .filter(|t| match bank.node(*t) {
                Node::Var(v) => {
                    !(bank.is_fun_var(vars, *v)
                        || matches!(bank.name(*v), "arrayState" | "old$arrayState"))
                }
                _ => true,
            })
            .collect();
        let order = |a: &NodeId, b: &NodeId| bank.order(*a, *b);
        if out.len() > 20 {
            out.select_nth_unstable_by(19, order);
            out.truncate(20);
        }
        out.sort_unstable_by(order);
        out
    }

    /// The id of a candidate pool.
    fn pool(&mut self, pool: &[NodeId]) -> u32 {
        let next = self.memo.pools.len() as u32;
        let key = (pool.into(), self.options.max_instances_per_quantifier);
        *self.memo.pools.entry(key).or_insert(next)
    }

    // --------------------------------------------------------------- grounding

    /// Grounds `formulas` in up to [`SmtOptions::instantiation_rounds`] rounds. Each
    /// round grounds the formulas with the candidate pool enriched by the terms
    /// (Skolem terms, applications) the previous round produced; it stops early when
    /// a round adds no term.
    fn ground_all(&mut self, formulas: &[NodeId], vars: FirstOrderVars) -> Vec<NodeId> {
        let mut candidates = self.candidates(formulas, vars);
        let mut ground = Vec::new();
        let rounds = self.options.instantiation_rounds.max(1);
        for round in 1..=rounds {
            self.next_skolem = 0;
            let pool = self.pool(&candidates);
            ground = formulas
                .iter()
                .map(|f| self.ground(*f, &candidates, pool, &mut Vec::new()))
                .collect();
            if round == rounds {
                // No round reads the terms this one produced.
                break;
            }
            let mut enriched = self.candidates(&ground, vars);
            enriched.extend(candidates.iter().copied());
            let bank = &*self.bank;
            enriched.sort_unstable_by(|a, b| bank.order(*a, *b));
            enriched.dedup();
            if enriched.len() == candidates.len() {
                break;
            }
            candidates = enriched;
        }
        ground
    }

    /// Whether grounding can change a node: it holds an `ALL` or `EX` under `&`, `|`
    /// and `~` only, or one of those without arguments. Memoised per node.
    fn quantified(&mut self, id: NodeId) -> bool {
        if let Some(known) = memo_bit(&self.memo.quantified, id) {
            return known;
        }
        let out = match self.bank.node(id).clone() {
            Node::Binder(Binder::Forall | Binder::Exists, ..) => true,
            Node::App(head, args)
                if matches!(
                    self.bank.node(head),
                    Node::Const(Const::And | Const::Or | Const::Not)
                ) =>
            {
                args.is_empty() || args.iter().any(|a| self.quantified(*a))
            }
            _ => false,
        };
        set_memo_bit(&mut self.memo.quantified, id, out);
        out
    }

    /// The Skolem symbol `smt$sk<n>`.
    fn skolem(&mut self, n: u32) -> Sym {
        while self.memo.skolems.len() <= n as usize {
            let name = format!("smt$sk{}", self.memo.skolems.len());
            let sym = self.bank.symbol(&name);
            self.memo.skolems.push(sym);
        }
        self.memo.skolems[n as usize]
    }

    /// Removes quantifiers from an NNF formula by instantiation (universals, with the
    /// assignments of `candidates` in order, at most
    /// [`SmtOptions::max_instances_per_quantifier`]) and Skolemisation (existentials).
    /// `universals` holds the variables of the enclosing universal quantifiers,
    /// outermost first. A formula grounded outside every universal is memoised per
    /// pool and first Skolem number.
    fn ground(
        &mut self,
        id: NodeId,
        candidates: &[NodeId],
        pool: u32,
        universals: &mut Vec<Sym>,
    ) -> NodeId {
        if !self.quantified(id) {
            return id;
        }
        let key = (id, pool, self.next_skolem);
        if universals.is_empty() {
            if let Some(&(done, next)) = self.memo.grounded.get(&key) {
                self.next_skolem = next;
                return done;
            }
        }
        let out = match self.bank.node(id).clone() {
            Node::Binder(Binder::Forall, vars, body) => {
                let depth = universals.len();
                universals.extend(vars.iter().map(|(v, _)| *v));
                let grounded_body = self.ground(body, candidates, pool, universals);
                universals.truncate(depth);
                let max = self.options.max_instances_per_quantifier;
                let mut assignments: Vec<Vec<(Sym, NodeId)>> = vec![Vec::new()];
                for (v, _) in vars.iter() {
                    let mut next = Vec::new();
                    'bases: for base in &assignments {
                        for cand in candidates {
                            let mut s = base.clone();
                            s.push((*v, *cand));
                            next.push(s);
                            if next.len() >= max {
                                break 'bases;
                            }
                        }
                    }
                    assignments = next;
                }
                let instances = assignments
                    .into_iter()
                    .map(|s| {
                        let instance = self.bank.substitute_many(grounded_body, s);
                        self.bank.simplify(instance)
                    })
                    .collect();
                self.bank.and(instances)
            }
            Node::Binder(Binder::Exists, vars, body) => {
                let arguments: Vec<NodeId> = universals.iter().map(|v| self.bank.var(*v)).collect();
                let mut bindings = Vec::with_capacity(vars.len());
                for (v, _) in vars.iter() {
                    let symbol = self.skolem(self.next_skolem);
                    self.next_skolem += 1;
                    let head = self.bank.var(symbol);
                    bindings.push((*v, self.bank.app(head, arguments.clone())));
                }
                let skolemised = self.bank.substitute_many(body, bindings);
                self.ground(skolemised, candidates, pool, universals)
            }
            Node::App(head, args) => {
                let args = args
                    .iter()
                    .map(|a| self.ground(*a, candidates, pool, universals))
                    .collect();
                self.bank.app(head, args)
            }
            _ => id,
        };
        if universals.is_empty() {
            self.memo.grounded.insert(key, (out, self.next_skolem));
        }
        out
    }

    // ---------------------------------------------------------------- division

    /// Whether the division pass can change a node: it holds a `div` or `mod`
    /// application, or an application that [`Bank::app`] would rebuild differently
    /// (one with no arguments, or with an application as its head). Memoised per node.
    fn divides(&mut self, id: NodeId) -> bool {
        if let Some(known) = memo_bit(&self.memo.divides, id) {
            return known;
        }
        let out = match self.bank.node(id).clone() {
            Node::Var(_) | Node::Const(_) => false,
            Node::Typed(f, _) => self.divides(f),
            Node::Binder(_, _, body) => self.divides(body),
            Node::App(head, args) => {
                matches!(
                    self.bank.node(head),
                    Node::Const(Const::Div | Const::Mod) | Node::App(..)
                ) || args.is_empty()
                    || self.divides(head)
                    || args.iter().any(|a| self.divides(*a))
            }
        };
        set_memo_bit(&mut self.memo.divides, id, out);
        out
    }

    /// Replaces ground occurrences of `a div k` and `a mod k` (for positive integer
    /// literals `k`) by fresh variables constrained with the floor-division axioms
    /// `k*q <= a < k*(q+1)`, appending the defining constraints as extra formulas.
    /// Divisions by non-literal or non-positive divisors are left uninterpreted.
    ///
    /// Quotients are named `smt$div<n>` in order of first use, and their constraints
    /// follow in the order of their numerators, then divisors. One bottom-up pass
    /// suffices: a node is rewritten after its arguments, so a numerator holds no
    /// literal division any more, and a rewrite introduces none.
    fn define_divisions(&mut self, formulas: Vec<NodeId>) -> Vec<NodeId> {
        let mut pass = DivisionPass::default();
        let mut out: Vec<NodeId> = formulas
            .into_iter()
            .map(|f| pass.rewrite(self.bank, f))
            .collect();
        let bank = &mut *self.bank;
        let mut quotients = pass.quotients;
        quotients.sort_by(|(a, k, _), (b, l, _)| bank.order(*a, *b).then(k.cmp(l)));
        for (numerator, k, q) in quotients {
            let k_node = bank.constant(Const::IntLit(k));
            let q_node = bank.var(q);
            let kq = bank.app_of(Const::Times, vec![k_node, q_node]);
            // k*q <= a  and  a < k*q + k  (floor division, matching Isabelle/HOL's `div`).
            out.push(bank.app_of(Const::LtEq, vec![kq, numerator]));
            let bound = bank.app_of(Const::Plus, vec![kq, k_node]);
            out.push(bank.app_of(Const::Lt, vec![numerator, bound]));
        }
        out
    }

    // ------------------------------------------------------------ clauses

    /// The clauses of the ground formulas over atoms interned in a new problem, or the
    /// clause count at which they overflowed [`SmtOptions::max_clauses`].
    fn clauses(&mut self, ground: &[NodeId]) -> Translation {
        let max = self.options.max_clauses;
        let mut problem = Problem::default();
        let mut atom_nodes: Vec<NodeId> = Vec::new();
        // Each formula atom's index, so a node recurring across formulas is interned
        // once; interning it again would return the same index.
        let mut index_of: FastMap<NodeId, usize> = FastMap::default();
        let mut clauses: Vec<IndexClause> = Vec::new();
        for f in ground {
            let budget = max.saturating_sub(clauses.len());
            self.cnf(*f);
            let memo = &*self.memo;
            let Some(cnf) = &memo.cnfs[&(*f, max)] else {
                return Err(clauses.len());
            };
            if cnf.peak > budget {
                return Err(clauses.len());
            }
            let mut indices = Vec::with_capacity(cnf.atoms.len());
            for node in &cnf.atoms {
                let index = *index_of.entry(*node).or_insert_with(|| {
                    let index = problem.atom(&memo.atoms[node]);
                    if index == atom_nodes.len() {
                        atom_nodes.push(*node);
                    }
                    index
                });
                indices.push(index);
            }
            clauses.extend(cnf.clauses.iter().map(|clause| {
                clause
                    .iter()
                    .map(|&(slot, positive)| (indices[slot as usize], positive))
                    .collect::<IndexClause>()
            }));
            if clauses.len() > max {
                return Err(clauses.len());
            }
        }
        Ok((problem, clauses, atom_nodes))
    }

    /// Converts a quantifier-free NNF formula into clauses (CNF by distribution) with
    /// the largest budget, [`SmtOptions::max_clauses`], memoised per formula. `None`
    /// when that budget is exceeded; a smaller budget is exceeded exactly when the
    /// recorded peak is above it. Each atom is converted to a ground atom once per
    /// node.
    fn cnf(&mut self, id: NodeId) {
        let key = (id, self.options.max_clauses);
        if self.memo.cnfs.contains_key(&key) {
            return;
        }
        let mut cx = CnfCx {
            budget: self.options.max_clauses,
            slots: FastMap::default(),
            atoms: Vec::new(),
            peak: 0,
        };
        let cnf = cx.go(self.bank, id, true).map(|clauses| Cnf {
            atoms: cx.atoms,
            clauses,
            peak: cx.peak,
        });
        for atom in cnf.iter().flat_map(|c| &c.atoms) {
            if !self.memo.atoms.contains_key(atom) {
                let converted = convert_atom(self.bank, *atom);
                self.memo.atoms.insert(*atom, converted);
            }
        }
        self.memo.cnfs.insert(key, cnf);
    }
}

/// The state of one bottom-up division pass ([`Attempt::define_divisions`]).
#[derive(Default)]
struct DivisionPass {
    rewritten: FastMap<NodeId, NodeId>,
    /// `(numerator, divisor, quotient)`, in order of first use.
    quotients: Vec<(NodeId, i64, Sym)>,
    named: FastMap<(NodeId, i64), Sym>,
}

impl DivisionPass {
    /// The quotient variable of `numerator div k`, named on first use.
    fn quotient(&mut self, bank: &mut Bank, numerator: NodeId, k: i64) -> Sym {
        if let Some(&q) = self.named.get(&(numerator, k)) {
            return q;
        }
        let q = bank.symbol(&format!("smt$div{}", self.quotients.len()));
        self.named.insert((numerator, k), q);
        self.quotients.push((numerator, k, q));
        q
    }

    /// One bottom-up pass over `id`: children first, applications rebuilt through
    /// [`Bank::app`], then the division rule at the rebuilt node.
    fn rewrite(&mut self, bank: &mut Bank, id: NodeId) -> NodeId {
        if let Some(&done) = self.rewritten.get(&id) {
            return done;
        }
        let rebuilt = match bank.node(id).clone() {
            Node::Var(_) | Node::Const(_) => id,
            Node::Typed(f, t) => {
                let f = self.rewrite(bank, f);
                bank.make(Node::Typed(f, t))
            }
            Node::Binder(b, vars, body) => {
                let body = self.rewrite(bank, body);
                bank.make(Node::Binder(b, vars, body))
            }
            Node::App(f, args) => {
                let f = self.rewrite(bank, f);
                let args = args.iter().map(|a| self.rewrite(bank, *a)).collect();
                bank.app(f, args)
            }
        };
        let out = self.rule(bank, rebuilt).unwrap_or(rebuilt);
        self.rewritten.insert(id, out);
        out
    }

    fn rule(&mut self, bank: &mut Bank, id: NodeId) -> Option<NodeId> {
        let Node::App(head, args) = bank.node(id).clone() else {
            return None;
        };
        let &[numerator, divisor] = &args[..] else {
            return None;
        };
        let k = match bank.node(divisor) {
            Node::Const(Const::IntLit(k)) if *k > 0 => *k,
            _ => return None,
        };
        match bank.node(head) {
            Node::Const(Const::Div) => {
                let q = self.quotient(bank, numerator, k);
                Some(bank.var(q))
            }
            Node::Const(Const::Mod) => {
                // a mod k = a - k * (a div k)
                let q = self.quotient(bank, numerator, k);
                let q = bank.var(q);
                let k = bank.constant(Const::IntLit(k));
                let kq = bank.app_of(Const::Times, vec![k, q]);
                Some(bank.app_of(Const::Minus, vec![numerator, kq]))
            }
            _ => None,
        }
    }
}

/// The conversion of one formula to clauses ([`Attempt::cnf`]).
struct CnfCx {
    budget: usize,
    slots: FastMap<NodeId, u32>,
    atoms: Vec<NodeId>,
    peak: usize,
}

impl CnfCx {
    /// A count checked against the budget: recorded, and whether it is over.
    fn over(&mut self, count: usize) -> bool {
        self.peak = self.peak.max(count);
        count > self.budget
    }

    fn slot(&mut self, atom: NodeId) -> u32 {
        let next = self.atoms.len() as u32;
        let slot = *self.slots.entry(atom).or_insert(next);
        if slot == next {
            self.atoms.push(atom);
        }
        slot
    }

    /// The clauses of `id` at a polarity: conjunctions concatenate, disjunctions
    /// distribute, `-->` and `<->` expand, and every other formula is an atom.
    fn go(&mut self, bank: &mut Bank, id: NodeId, positive: bool) -> Option<Vec<Vec<(u32, bool)>>> {
        if let Node::App(head, args) = bank.node(id).clone() {
            if let Node::Const(c) = bank.node(head).clone() {
                match (c, positive) {
                    (Const::Not, _) => return self.go(bank, args[0], !positive),
                    (Const::And, true) | (Const::Or, false) => {
                        let mut out = Vec::new();
                        for a in args.iter() {
                            out.extend(self.go(bank, *a, positive)?);
                            if self.over(out.len()) {
                                return None;
                            }
                        }
                        return Some(out);
                    }
                    (Const::Or, true) | (Const::And, false) => {
                        let mut acc: Vec<Vec<(u32, bool)>> = vec![Vec::new()];
                        for a in args.iter() {
                            let sub = self.go(bank, *a, positive)?;
                            let mut next = Vec::new();
                            for base in &acc {
                                for s in &sub {
                                    let mut clause = base.clone();
                                    clause.extend_from_slice(s);
                                    next.push(clause);
                                    if self.over(next.len()) {
                                        return None;
                                    }
                                }
                            }
                            acc = next;
                        }
                        return Some(acc);
                    }
                    (Const::Impl, _) => {
                        let not_left = bank.not(args[0]);
                        let expanded = bank.or(vec![not_left, args[1]]);
                        return self.go(bank, expanded, positive);
                    }
                    (Const::Iff, _) => {
                        let forward = bank.implies(args[0], args[1]);
                        let backward = bank.implies(args[1], args[0]);
                        let expanded = bank.and(vec![forward, backward]);
                        return self.go(bank, expanded, positive);
                    }
                    _ => {}
                }
            }
        }
        match bank.node(id) {
            Node::Const(Const::BoolLit(b)) => {
                if *b == positive {
                    Some(Vec::new())
                } else {
                    Some(vec![Vec::new()])
                }
            }
            // Remaining quantifiers (nested under atoms we could not instantiate) are
            // approximated by polarity.
            Node::Binder(Binder::Forall | Binder::Exists, _, _) => {
                if positive {
                    Some(vec![Vec::new()])
                } else {
                    Some(Vec::new())
                }
            }
            _ => Some(vec![vec![(self.slot(id), positive)]]),
        }
    }
}

/// Converts a formula atom to a ground SMT atom.
fn convert_atom(bank: &Bank, atom: NodeId) -> GAtom {
    if let Node::App(head, args) = bank.node(atom) {
        if let Node::Const(c) = bank.node(*head) {
            let term = |id: &NodeId| convert_term(bank, *id);
            match (c, &args[..]) {
                (Const::Eq, [l, r]) => return GAtom::Eq(term(l), term(r)),
                (Const::Lt, [l, r]) => return GAtom::Lt(term(l), term(r)),
                (Const::Gt, [l, r]) => return GAtom::Lt(term(r), term(l)),
                (Const::LtEq, [l, r]) => return GAtom::Le(term(l), term(r)),
                (Const::GtEq, [l, r]) => return GAtom::Le(term(r), term(l)),
                (Const::Elem, [e, s]) => return convert_membership(bank, *e, *s),
                (Const::Rtrancl, [body, from, to]) => {
                    return GAtom::Pred(
                        format!("reach${}", bank.materialise(*body)),
                        vec![term(from), term(to)],
                    )
                }
                _ => {}
            }
        }
        if let Node::Var(p) = bank.node(*head) {
            return GAtom::Pred(
                format!("p${}", bank.name(*p)),
                args.iter().map(|a| convert_term(bank, *a)).collect(),
            );
        }
    }
    if let Node::Var(p) = bank.node(atom) {
        return GAtom::Pred(format!("p${}", bank.name(*p)), Vec::new());
    }
    GAtom::Pred(format!("opaque${}", bank.materialise(atom)), Vec::new())
}

fn convert_membership(bank: &Bank, elem: NodeId, set: NodeId) -> GAtom {
    let mut components = match bank.as_app_of(elem, &Const::Tuple) {
        Some(parts) => parts.iter().map(|p| convert_term(bank, *p)).collect(),
        None => vec![convert_term(bank, elem)],
    };
    match bank.node(set) {
        Node::Var(s) => GAtom::Pred(format!("in${}", bank.name(*s)), components),
        Node::App(head, args) if matches!(bank.node(*head), Node::Var(_)) => {
            let Node::Var(f) = bank.node(*head) else {
                unreachable!()
            };
            let mut all: Vec<GTerm> = args.iter().map(|a| convert_term(bank, *a)).collect();
            all.append(&mut components);
            GAtom::Pred(format!("in${}", bank.name(*f)), all)
        }
        _ => {
            components.push(convert_term(bank, set));
            GAtom::Pred("in$".to_string(), components)
        }
    }
}

/// Converts a formula term to a ground SMT term.
fn convert_term(bank: &Bank, term: NodeId) -> GTerm {
    match bank.node(term) {
        Node::Var(v) => GTerm::constant(bank.name(*v)),
        Node::Const(Const::Null) => GTerm::constant("null"),
        Node::Const(Const::IntLit(n)) => GTerm::Int(*n),
        Node::Const(Const::BoolLit(b)) => GTerm::constant(format!("bool${b}")),
        Node::Const(Const::EmptySet) => GTerm::constant("emptyset"),
        Node::Typed(inner, _) => convert_term(bank, *inner),
        Node::App(head, args) => {
            let conv: Vec<GTerm> = args.iter().map(|a| convert_term(bank, *a)).collect();
            let app = |name: &str, conv: Vec<GTerm>| GTerm::App(name.into(), conv);
            match bank.node(*head) {
                Node::Var(f) => GTerm::App(bank.name(*f).into(), conv),
                Node::Const(Const::Plus) if conv.len() == 2 => {
                    let mut it = conv.into_iter();
                    GTerm::Add(
                        Box::new(it.next().expect("2 args")),
                        Box::new(it.next().expect("2 args")),
                    )
                }
                Node::Const(Const::Minus) if conv.len() == 2 => {
                    let mut it = conv.into_iter();
                    GTerm::Sub(
                        Box::new(it.next().expect("2 args")),
                        Box::new(it.next().expect("2 args")),
                    )
                }
                Node::Const(Const::Times) if conv.len() == 2 => match (&conv[0], &conv[1]) {
                    (GTerm::Int(k), other) | (other, GTerm::Int(k)) => {
                        GTerm::Mul(*k, Box::new(other.clone()))
                    }
                    _ => app("int$times", conv),
                },
                Node::Const(Const::UMinus) if conv.len() == 1 => GTerm::Sub(
                    Box::new(GTerm::Int(0)),
                    Box::new(conv.into_iter().next().expect("1 arg")),
                ),
                Node::Const(Const::ArrayRead) => app("array$read", conv),
                Node::Const(Const::ArrayWrite) => app("array$write", conv),
                Node::Const(Const::FieldWrite) => app("field$write", conv),
                Node::Const(Const::Union) => app("set$union", conv),
                Node::Const(Const::Inter) => app("set$inter", conv),
                Node::Const(Const::Diff) => app("set$diff", conv),
                Node::Const(Const::FiniteSet) => app("set$mk", conv),
                Node::Const(Const::Tuple) => app("tuple", conv),
                Node::Const(Const::Card) => app("card", conv),
                _ => GTerm::App(format!("opaque${}", bank.materialise(*head)), conv),
            }
        }
        _ => GTerm::constant(format!("opaque${}", bank.materialise(term))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::{parse_form, Form};

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
        prove_sequent(&seq(assumptions, goal), &SmtOptions::default()).proved
    }

    /// [`define_divisions`] as it was, rewriting each formula to a fixpoint.
    fn fixpoint_define_divisions(formulas: Vec<Form>) -> Vec<Form> {
        use jahob_logic::rewrite::rewrite_fixpoint;
        use std::cell::RefCell;
        use std::collections::BTreeMap;
        let quotients: RefCell<BTreeMap<(Form, i64), String>> = RefCell::new(BTreeMap::new());
        let quotient_of = |a: &Form, k: i64| -> String {
            let mut map = quotients.borrow_mut();
            let next = map.len();
            map.entry((a.clone(), k))
                .or_insert_with(|| format!("smt$div{next}"))
                .clone()
        };
        let mut out: Vec<Form> = formulas
            .iter()
            .map(|f| {
                rewrite_fixpoint(f, &|t| {
                    let Form::App(head, args) = t else {
                        return None;
                    };
                    let [a, Form::Const(Const::IntLit(k))] = args.as_slice() else {
                        return None;
                    };
                    let k = *k;
                    match head.as_ref() {
                        Form::Const(Const::Div) if k > 0 => Some(Form::var(quotient_of(a, k))),
                        Form::Const(Const::Mod) if k > 0 => {
                            let q = Form::var(quotient_of(a, k));
                            Some(Form::minus(
                                a.clone(),
                                Form::app(Form::Const(Const::Times), vec![Form::int(k), q]),
                            ))
                        }
                        _ => None,
                    }
                })
            })
            .collect();
        for ((numerator, k), q) in quotients.into_inner() {
            let kq = Form::app(Form::Const(Const::Times), vec![Form::int(k), Form::var(q)]);
            out.push(Form::cmp(Const::LtEq, kq.clone(), numerator.clone()));
            out.push(Form::cmp(
                Const::Lt,
                numerator,
                Form::plus(kq, Form::int(k)),
            ));
        }
        out
    }

    #[test]
    fn one_division_pass_matches_the_fixpoint() {
        let formulas: Vec<Form> = [
            "(a div 2) div 3 = b mod 2",
            "a mod 2 = 0 | (a div 2) mod 3 < (c + a div 2) div 4",
            "ALL i. i div 2 <= i & x div 0 = x div (0 - 1)",
        ]
        .iter()
        .map(|f| parse_form(f).expect("parse"))
        .collect();
        let mut bank = Bank::new();
        let ids = formulas.iter().map(|f| bank.intern(f)).collect();
        let (mut memo, options) = (SmtMemo::default(), SmtOptions::default());
        let defined = Attempt::new(&mut bank, &mut memo, &options).define_divisions(ids);
        let defined: Vec<Form> = defined.iter().map(|d| bank.materialise(*d)).collect();
        assert_eq!(defined, fixpoint_define_divisions(formulas));
        // Each quotient is named once, numbered in order of first use: `a div 2` is
        // `smt$div0` wherever it occurs and `smt$div0 div 3` is `smt$div1`; the five
        // quotients add two constraints each, and divisors that are not positive
        // literals stay as written.
        let printed: Vec<String> = defined.iter().map(|f| f.to_string()).collect();
        assert_eq!(printed.len(), 3 + 2 * 5);
        assert_eq!(printed[0], "smt$div1 = b - 2 * smt$div2");
        assert_eq!(
            printed[1],
            "a - 2 * smt$div0 = 0 | smt$div0 - 3 * smt$div1 < smt$div3"
        );
        assert!(printed[2].contains("x div 0 = x div (0 - 1)"));
    }

    #[test]
    fn proves_ground_euf_sequents() {
        assert!(proves(&["x = y", "y = z"], "x = z"));
        assert!(proves(&["x = y"], "x..next = y..next"));
        assert!(!proves(&["x = y"], "y = z"));
    }

    #[test]
    fn proves_arithmetic_sequents() {
        assert!(proves(&["0 <= size"], "0 <= size + 1"));
        assert!(proves(
            &["size = old_size + 1", "0 <= old_size"],
            "1 <= size"
        ));
        assert!(!proves(&["0 <= size"], "1 <= size"));
    }

    #[test]
    fn proves_quantified_assumptions_by_instantiation() {
        assert!(proves(
            &["ALL x. x : Node --> x..next : Node", "n : Node"],
            "n..next : Node"
        ));
        assert!(proves(&["ALL x y. x..f = y..f", "a : S"], "b..f = c..f"));
    }

    #[test]
    fn proves_membership_goals_with_set_expansion() {
        assert!(proves(&["x : content"], "x : content Un {y}"));
        assert!(proves(&["x : content", "x ~= y"], "x : content - {y}"));
        assert!(!proves(&["x : content"], "x : content - {y}"));
    }

    #[test]
    fn proves_field_update_reasoning() {
        let mut opts = SmtOptions::default();
        opts.fun_vars.insert("next".to_string());
        let s = seq(&["next1 = next(x := y)", "z ~= x"], "next1 z = next z");
        let mut opts2 = opts.clone();
        opts2.fun_vars.insert("next1".to_string());
        assert!(prove_sequent(&s, &opts2).proved);
    }

    #[test]
    fn proves_null_check_obligations() {
        assert!(proves(
            &["current ~= null", "current : Node | current = null"],
            "current : Node"
        ));
    }

    #[test]
    fn proves_division_bounds() {
        // The priority queue's parent index: (i - 1) div 2 is non-negative when 1 <= i.
        assert!(proves(&["1 <= i", "p = (i - 1) div 2"], "0 <= p"));
        // Without the lower bound on i the quotient can be negative.
        assert!(!proves(&["p = (i - 1) div 2"], "0 <= p"));
        // Remainders by a positive literal are bounded.
        assert!(proves(&["m = i mod 4"], "m < 4"));
        assert!(proves(&["m = i mod 4"], "0 <= m"));
        assert!(!proves(&["m = i mod 4"], "m < 3"));
    }

    #[test]
    fn an_existential_under_a_universal_is_a_skolem_function() {
        // `next` onto a 3-cycle is a countermodel: one Skolem constant for every `x`
        // would make `next` constant and prove `a = b`.
        let mut opts = SmtOptions::default();
        opts.fun_vars.insert("next".to_string());
        let surjective = seq(&["ALL x. EX y. y..next = x", "a ~= b"], "False");
        assert!(!prove_sequent(&surjective, &opts).proved);
        assert!(!proves(&["ALL x. EX y. y ~= x"], "a = b"));
        assert!(!proves(&["ALL x. EX y. p x y", "ALL z. ~ p z z"], "a = b"));
        assert!(!proves(&["ALL x. q x x"], "EX x. ALL y. q x y"));
        // The witness is still a ground term the second round instantiates with.
        assert!(proves(
            &["ALL x. EX y. r x y", "ALL u v. r u v --> s u"],
            "s c"
        ));
    }

    #[test]
    fn each_round_names_the_existentials_alike() {
        // The witness of `EX y. p y` joins the pool after round 1; round 2 must call
        // it by the same name to instantiate the implication with it.
        assert!(proves(&["EX y. p y", "ALL x. p x --> q x"], "EX z. q z"));
    }

    #[test]
    fn does_not_prove_unsupported_cardinality_goals() {
        // Cardinality is outside the SMT fragment; the goal is approximated to False.
        assert!(!proves(&["content = {}"], "card content = 0"));
    }
}
