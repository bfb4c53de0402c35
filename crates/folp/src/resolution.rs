//! A saturation-based resolution prover.
//!
//! The prover implements the given-clause loop with binary resolution, factoring,
//! tautology deletion and forward subsumption. Equality is handled through the axioms
//! emitted by [`crate::translate`] (symmetry, transitivity, congruence) plus a built-in
//! reflexivity clause. Resolution uses *negative-literal selection*: a clause that
//! contains negative literals may only be resolved on its first negative literal, which
//! drastically curbs the explosion caused by the equality axioms while preserving
//! refutational completeness (every positive literal of the other premise remains
//! available). Derived clauses larger than a configurable bound are discarded, trading
//! completeness for predictable resource usage — acceptable because the dispatcher only
//! acts on `Proved` answers.
//!
//! The loop runs on a flat kernel. Symbol names are interned once per run, numbered in
//! name order. A clause is a run of `u32` cells in one arena, each literal a header
//! cell (sign, predicate, arity) followed by its arguments in prefix order, and the
//! clause keeps its size, literal count, variable bound and prefilter bit masks.
//! Unification reads both premises in place, offsetting the right premise's variables
//! as it reads them, and records bindings on a trail. The kernel makes the choices of
//! the plain loop over [`Clause`]s: literals are ordered by the derived `Ord` of
//! [`crate::Literal`] (a name's rank stands for the name, and arguments compare element
//! by element and then by count, so one name at two arities orders as it did), the
//! right premise is renamed by the left premise's variable bound, a variable-variable
//! pair binds the left variable, and nothing is renumbered.

use crate::fol::{Atom, Clause, Literal, Term, EQ};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Resource limits for the saturation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolutionLimits {
    /// Maximum number of given clauses processed.
    pub max_iterations: usize,
    /// Maximum number of clauses retained overall.
    pub max_clauses: usize,
    /// Derived clauses with more symbols than this are discarded.
    pub max_clause_size: usize,
    /// Derived clauses with more literals than this are discarded.
    pub max_literals: usize,
    /// Wall-clock budget in milliseconds, a safety net so that a single proof attempt
    /// cannot stall a verification run (`0` disables the check). Passing it is a
    /// stop on time, reported as [`ResolutionOutcome::DeadlineLimit`].
    pub max_millis: u64,
    /// Absolute wall-clock deadline, checked at the same cooperative point of the
    /// given-clause loop as `max_millis`. Passing it is reported as the distinguished
    /// [`ResolutionOutcome::DeadlineLimit`] so callers can attribute the stop to
    /// time rather than fuel. `None` (the default) disables the check.
    pub deadline: Option<Instant>,
}

impl Default for ResolutionLimits {
    fn default() -> Self {
        ResolutionLimits {
            max_iterations: 400,
            max_clauses: 4_000,
            max_clause_size: 48,
            max_literals: 6,
            max_millis: 2_000,
            deadline: None,
        }
    }
}

/// Outcome of a saturation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionOutcome {
    /// The empty clause was derived: the input clause set is unsatisfiable.
    Proved,
    /// The clause set was saturated without deriving the empty clause (under the
    /// incomplete strategy this does not guarantee satisfiability).
    Saturated,
    /// The iteration or clause limit was reached.
    ResourceLimit,
    /// A wall-clock limit ([`ResolutionLimits::max_millis`] or
    /// [`ResolutionLimits::deadline`]) passed before the loop reached an answer. Like
    /// `ResourceLimit`, the verdict is unknown — but the stop is attributed to time,
    /// not fuel.
    DeadlineLimit,
}

/// Statistics from a saturation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolutionStats {
    /// Number of given clauses processed.
    pub iterations: usize,
    /// Number of clauses generated (before deletion).
    pub generated: usize,
    /// Number of clauses retained.
    pub retained: usize,
}

/// Runs the saturation loop on the given clause set.
///
/// # Panics
///
/// Panics if a symbol has more than 255 arguments, a variable index reaches 2^31 or
/// the clauses kept reach 2^31 cells: the limits of the cell encoding.
pub fn saturate(
    clauses: &[Clause],
    limits: ResolutionLimits,
) -> (ResolutionOutcome, ResolutionStats) {
    let start = Instant::now();
    let net = (limits.max_millis > 0).then(|| Duration::from_millis(limits.max_millis));
    let mut stats = ResolutionStats::default();
    if clauses.iter().any(Clause::is_empty) {
        return (ResolutionOutcome::Proved, stats);
    }
    let mut k = Kernel::new(clauses);
    let mut active: Vec<u32> = Vec::new();
    // Passive clauses and their `(size, literal count)` keys, index for index.
    let mut passive: Vec<u32> = Vec::new();
    let mut keys: Vec<u64> = Vec::new();

    // Built-in reflexivity (kept out of tautology deletion).
    let reflexivity = Clause {
        literals: vec![Literal::pos(Atom::eq(Term::Var(0), Term::Var(0)))],
    };
    for c in std::iter::once(&reflexivity).chain(clauses.iter().filter(|c| !c.is_tautology())) {
        let id = k.store_input(c);
        passive.push(id);
        keys.push(k.key(id));
    }

    while let Some(idx) = pick_given(&keys) {
        if stats.iterations >= limits.max_iterations {
            return (ResolutionOutcome::ResourceLimit, stats);
        }
        if active.len() + passive.len() > limits.max_clauses {
            return (ResolutionOutcome::ResourceLimit, stats);
        }
        if net.is_some_and(|d| start.elapsed() > d)
            || limits.deadline.is_some_and(|d| Instant::now() >= d)
        {
            return (ResolutionOutcome::DeadlineLimit, stats);
        }
        stats.iterations += 1;
        let given = passive.swap_remove(idx);
        keys.swap_remove(idx);
        if k.subsumed(active.iter().copied(), k.view(given)) {
            continue;
        }

        k.generate(given, &active);
        active.push(given);

        for b in 0..k.fresh.len() {
            stats.generated += 1;
            let view = k.fresh_view(b);
            if view.nlits() == 0 {
                stats.retained = active.len() + passive.len();
                return (ResolutionOutcome::Proved, stats);
            }
            if view.is_tautology(k.eq_header)
                || view.nlits() > limits.max_literals
                || view.size() > limits.max_clause_size
            {
                continue;
            }
            // Every stored clause is active or passive, or a given clause that an
            // active clause subsumed, which subsumes nothing that clause does not.
            if k.subsumed(0..k.meta.len() as u32, view) {
                continue;
            }
            let id = k.store_fresh(b);
            passive.push(id);
            keys.push(k.key(id));
            if active.len() + passive.len() > limits.max_clauses {
                return (ResolutionOutcome::ResourceLimit, stats);
            }
        }
    }
    stats.retained = active.len();
    (ResolutionOutcome::Saturated, stats)
}

/// The index of the first passive clause of least `(size, literal count)`.
fn pick_given(keys: &[u64]) -> Option<usize> {
    keys.iter()
        .enumerate()
        .min_by_key(|&(_, key)| key)
        .map(|(i, _)| i)
}

// ------------------------------------------------------------------------ cells

/// The tag of a function-symbol cell; a term cell without it is a variable.
const FUN: u32 = 1 << 31;
/// The sign bit of a literal's header cell.
const POSITIVE: u32 = 1 << 31;
/// Header and function cells keep the arity in their low byte and the symbol's rank
/// above it, so shifting the arity out leaves what the derived `Ord` compares first.
const ARITY_BITS: u32 = 8;
/// No selected negative literal.
const NONE: u32 = u32::MAX;

fn arity(cell: u32) -> usize {
    (cell & ((1 << ARITY_BITS) - 1)) as usize
}

fn is_var(cell: u32) -> bool {
    cell & FUN == 0
}

/// One bit of a 64-bit prefilter mask for a header cell.
fn bit(header: u32) -> u64 {
    1 << (header.wrapping_mul(0x9E37_79B9) >> 26)
}

/// The position just past the term starting at `pos`.
fn skip(cells: &[u32], mut pos: usize) -> usize {
    let mut open = 1;
    while open > 0 {
        let cell = cells[pos];
        pos += 1;
        open -= 1;
        if !is_var(cell) {
            open += arity(cell);
        }
    }
    pos
}

/// Compares two terms as the derived `Ord` of [`Term`] does: a variable precedes every
/// application, variables compare by index, and applications by name rank, then by
/// arguments. Returns the ends of both terms when they are equal.
fn cmp_term(a: &[u32], pa: usize, b: &[u32], pb: usize) -> (Ordering, usize, usize) {
    let (ca, cb) = (a[pa], b[pb]);
    if is_var(ca) || is_var(cb) {
        return (ca.cmp(&cb), pa + 1, pb + 1);
    }
    match (ca >> ARITY_BITS).cmp(&(cb >> ARITY_BITS)) {
        Ordering::Equal => cmp_args(a, pa + 1, arity(ca), b, pb + 1, arity(cb)),
        unequal => (unequal, pa, pb),
    }
}

/// Compares argument lists as the derived `Ord` of `Vec<Term>` does: element by
/// element, then by length.
fn cmp_args(
    a: &[u32],
    mut pa: usize,
    na: usize,
    b: &[u32],
    mut pb: usize,
    nb: usize,
) -> (Ordering, usize, usize) {
    for _ in 0..na.min(nb) {
        let (order, ea, eb) = cmp_term(a, pa, b, pb);
        if order != Ordering::Equal {
            return (order, ea, eb);
        }
        (pa, pb) = (ea, eb);
    }
    (na.cmp(&nb), pa, pb)
}

/// Compares two literals (each starting at its header) as the derived `Ord` of
/// [`crate::Literal`] does: sign, predicate name, then arguments.
fn cmp_literal(cells: &[u32], a: usize, b: usize) -> Ordering {
    let (ha, hb) = (cells[a], cells[b]);
    (ha >> ARITY_BITS)
        .cmp(&(hb >> ARITY_BITS))
        .then_with(|| cmp_args(cells, a + 1, arity(ha), cells, b + 1, arity(hb)).0)
}

/// A clause in an arena: the cells and the literal boundaries (each literal's start,
/// then the end of the last).
#[derive(Clone, Copy)]
struct View<'a> {
    cells: &'a [u32],
    bounds: &'a [u32],
}

impl<'a> View<'a> {
    fn nlits(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The number of symbols, as [`Clause`] sizes count them.
    fn size(&self) -> usize {
        (self.bounds[self.nlits()] - self.bounds[0]) as usize
    }

    fn literal(&self, i: usize) -> &'a [u32] {
        &self.cells[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }

    /// The `(sign, predicate, arity)` mask subsumption prefilters with.
    fn signature(&self) -> u64 {
        (0..self.nlits()).fold(0, |m, i| m | bit(self.literal(i)[0]))
    }

    /// Whether the clause contains a positive `t = t` or a complementary pair, as
    /// [`Clause::is_tautology`] decides.
    fn is_tautology(&self, eq_header: u32) -> bool {
        (0..self.nlits()).any(|i| {
            let l = self.literal(i);
            if l[0] & POSITIVE == 0 {
                return false;
            }
            if l[0] == eq_header {
                let mid = skip(l, 1);
                if l[1..mid] == l[mid..] {
                    return true;
                }
            }
            (0..self.nlits()).any(|j| {
                let m = self.literal(j);
                m[0] == l[0] & !POSITIVE && m[1..] == l[1..]
            })
        })
    }
}

/// What the loop keeps about a stored clause.
#[derive(Clone, Copy)]
struct Meta {
    /// Index of the clause's first literal boundary in [`Kernel::bounds`].
    first: u32,
    nlits: u32,
    size: u32,
    var_bound: u32,
    /// Index of the selected (first) negative literal, or [`NONE`].
    selected: u32,
    /// Signature of the clause, see [`View::signature`].
    sig: u64,
    /// Unsigned headers of the positive literals.
    positive: u64,
    /// Unsigned header of the selected negative literal.
    negative: u64,
}

/// A reference to a term: its position in the arena and the premise it is read from
/// (0 for the left premise, 1 for the right one, whose variables are offset).
#[derive(Clone, Copy)]
struct Ref {
    pos: u32,
    side: u32,
}

/// The clause arena, the clauses derived from the current given clause, and the
/// unifier's trail.
struct Kernel {
    /// Rank of every symbol name, in name order.
    ranks: HashMap<String, u32>,
    /// Header of a positive binary equality literal.
    eq_header: u32,
    cells: Vec<u32>,
    bounds: Vec<u32>,
    meta: Vec<Meta>,
    /// Clauses derived from the current given clause: cells, literal boundaries and,
    /// per clause, its first boundary index.
    fresh_cells: Vec<u32>,
    fresh_bounds: Vec<u32>,
    fresh: Vec<u32>,
    /// Variable bindings of the current unification, in binding order.
    trail: Vec<(u32, Ref)>,
    /// Offset of the right premise's variables.
    offset: u32,
    /// One inference's literals before they are sorted, and their sorted order.
    draft: Vec<u32>,
    draft_bounds: Vec<u32>,
    order: Vec<u32>,
}

impl Kernel {
    /// Interns every symbol of `clauses` (and equality), numbered in name order.
    fn new(clauses: &[Clause]) -> Kernel {
        fn names<'a>(t: &'a Term, out: &mut BTreeSet<&'a str>) {
            if let Term::App(f, args) = t {
                out.insert(f);
                args.iter().for_each(|a| names(a, out));
            }
        }
        let mut all = BTreeSet::from([EQ]);
        for l in clauses.iter().flat_map(|c| &c.literals) {
            all.insert(&l.atom.pred);
            l.atom.args.iter().for_each(|a| names(a, &mut all));
        }
        assert!(all.len() < 1 << (31 - ARITY_BITS), "too many symbols");
        let ranks: HashMap<String, u32> = all
            .iter()
            .enumerate()
            .map(|(i, name)| (name.to_string(), i as u32))
            .collect();
        let eq_header = POSITIVE | ranks[EQ] << ARITY_BITS | 2;
        Kernel {
            ranks,
            eq_header,
            cells: Vec::new(),
            bounds: Vec::new(),
            meta: Vec::new(),
            fresh_cells: Vec::new(),
            fresh_bounds: Vec::new(),
            fresh: Vec::new(),
            trail: Vec::new(),
            offset: 0,
            draft: Vec::new(),
            draft_bounds: Vec::new(),
            order: Vec::new(),
        }
    }

    fn symbol(&self, name: &str, arity: usize) -> u32 {
        assert!(
            arity < 1 << ARITY_BITS,
            "{name} has more than 255 arguments"
        );
        self.ranks[name] << ARITY_BITS | arity as u32
    }

    fn encode(&self, t: &Term, out: &mut Vec<u32>) {
        match t {
            Term::Var(v) => {
                assert!(*v < FUN, "variable index X{v} too large");
                out.push(*v);
            }
            Term::App(f, args) => {
                out.push(FUN | self.symbol(f, args.len()));
                args.iter().for_each(|a| self.encode(a, out));
            }
        }
    }

    /// Stores an input clause as it is: its literal order, duplicates included.
    fn store_input(&mut self, c: &Clause) -> u32 {
        let first = self.bounds.len() as u32;
        let mut cells = std::mem::take(&mut self.cells);
        for l in &c.literals {
            self.bounds.push(cells.len() as u32);
            let sign = if l.positive { POSITIVE } else { 0 };
            cells.push(sign | self.symbol(&l.atom.pred, l.atom.args.len()));
            l.atom.args.iter().for_each(|a| self.encode(a, &mut cells));
        }
        self.bounds.push(cells.len() as u32);
        self.cells = cells;
        self.push_meta(first)
    }

    /// Stores derived clause `b` of the current batch.
    fn store_fresh(&mut self, b: usize) -> u32 {
        let first = self.bounds.len() as u32;
        let (lo, hi) = self.fresh_range(b);
        let base = self.cells.len() as u32;
        let from = self.fresh_bounds[lo];
        self.cells
            .extend_from_slice(&self.fresh_cells[from as usize..self.fresh_bounds[hi] as usize]);
        for i in lo..=hi {
            self.bounds.push(self.fresh_bounds[i] - from + base);
        }
        self.push_meta(first)
    }

    /// Records what the loop keeps about the clause whose boundaries start at `first`.
    fn push_meta(&mut self, first: u32) -> u32 {
        assert!(self.cells.len() < FUN as usize, "clause arena too large");
        let bounds = &self.bounds[first as usize..];
        let view = View {
            cells: &self.cells,
            bounds,
        };
        let mut meta = Meta {
            first,
            nlits: view.nlits() as u32,
            size: view.size() as u32,
            var_bound: 0,
            selected: NONE,
            sig: view.signature(),
            positive: 0,
            negative: 0,
        };
        for i in 0..view.nlits() {
            let l = view.literal(i);
            let (header, args) = (l[0], &l[1..]);
            if header & POSITIVE != 0 {
                meta.positive |= bit(header & !POSITIVE);
            } else if meta.selected == NONE {
                meta.selected = i as u32;
                meta.negative = bit(header);
            }
            for &cell in args.iter().filter(|&&c| is_var(c)) {
                meta.var_bound = meta.var_bound.max(cell + 1);
            }
        }
        self.meta.push(meta);
        self.meta.len() as u32 - 1
    }

    /// The `(size, literal count)` key the given clause is chosen by.
    fn key(&self, id: u32) -> u64 {
        let m = &self.meta[id as usize];
        u64::from(m.size) << 32 | u64::from(m.nlits)
    }

    fn view(&self, id: u32) -> View<'_> {
        let m = &self.meta[id as usize];
        let first = m.first as usize;
        View {
            cells: &self.cells,
            bounds: &self.bounds[first..=first + m.nlits as usize],
        }
    }

    /// The first and last boundary index of derived clause `b`.
    fn fresh_range(&self, b: usize) -> (usize, usize) {
        let lo = self.fresh[b] as usize;
        let hi = self
            .fresh
            .get(b + 1)
            .map_or(self.fresh_bounds.len(), |&n| n as usize)
            - 1;
        (lo, hi)
    }

    fn fresh_view(&self, b: usize) -> View<'_> {
        let (lo, hi) = self.fresh_range(b);
        View {
            cells: &self.fresh_cells,
            bounds: &self.fresh_bounds[lo..=hi],
        }
    }

    // ------------------------------------------------------------------ inferences

    /// Derives, in the loop's order, the factors of `given` and its resolvents with
    /// every active clause and with itself.
    fn generate(&mut self, given: u32, active: &[u32]) {
        self.fresh_cells.clear();
        self.fresh_bounds.clear();
        self.fresh.clear();
        let g = self.meta[given as usize];
        // Factoring: unify two literals of the same sign; the clause keeps both.
        self.offset = 0;
        for i in 0..g.nlits as usize {
            for j in i + 1..g.nlits as usize {
                let (li, lj) = (self.lit_start(&g, i), self.lit_start(&g, j));
                if self.cells[li] != self.cells[lj] {
                    continue;
                }
                self.trail.clear();
                if self.unify_args(li, 0, lj, 0) {
                    for l in 0..g.nlits as usize {
                        self.emit_literal(self.lit_start(&g, l), 0);
                    }
                    self.push_fresh();
                }
            }
        }
        // Binary resolution with every active clause and with the given clause.
        for &other in active.iter().chain(std::iter::once(&given)) {
            let o = self.meta[other as usize];
            if g.negative & o.positive == 0 && g.positive & o.negative == 0 {
                continue;
            }
            let total = u64::from(g.var_bound) + u64::from(o.var_bound);
            assert!(total <= u64::from(FUN), "variable index too large");
            self.offset = g.var_bound;
            self.resolve(&g, &o);
        }
    }

    /// All resolvents of `a` (left) and `b` (right) under negative-literal selection.
    fn resolve(&mut self, a: &Meta, b: &Meta) {
        for i in 0..a.nlits as usize {
            let la = self.lit_start(a, i);
            let ha = self.cells[la];
            let a_positive = ha & POSITIVE != 0;
            if !a_positive && i as u32 != a.selected {
                continue;
            }
            for j in 0..b.nlits as usize {
                let lb = self.lit_start(b, j);
                // Opposite signs, the same predicate and arity.
                if self.cells[lb] ^ ha != POSITIVE || (a_positive && j as u32 != b.selected) {
                    continue;
                }
                self.trail.clear();
                if self.unify_args(la, 0, lb, 1) {
                    for l in (0..a.nlits as usize).filter(|&l| l != i) {
                        self.emit_literal(self.lit_start(a, l), 0);
                    }
                    for l in (0..b.nlits as usize).filter(|&l| l != j) {
                        self.emit_literal(self.lit_start(b, l), 1);
                    }
                    self.push_fresh();
                }
            }
        }
    }

    fn lit_start(&self, m: &Meta, i: usize) -> usize {
        self.bounds[m.first as usize + i] as usize
    }

    /// Sorts and deduplicates the draft literals into a new derived clause, as
    /// [`Clause::new`] does.
    fn push_fresh(&mut self) {
        self.draft_bounds.push(self.draft.len() as u32);
        let n = self.draft_bounds.len() - 1;
        self.order.clear();
        self.order.extend(0..n as u32);
        let (cells, bounds) = (&self.draft, &self.draft_bounds);
        self.order.sort_by(|&x, &y| {
            cmp_literal(
                cells,
                bounds[x as usize] as usize,
                bounds[y as usize] as usize,
            )
        });
        self.fresh.push(self.fresh_bounds.len() as u32);
        let mut last: Option<&[u32]> = None;
        for &l in &self.order {
            let lit = &cells[bounds[l as usize] as usize..bounds[l as usize + 1] as usize];
            if last == Some(lit) {
                continue;
            }
            self.fresh_bounds.push(self.fresh_cells.len() as u32);
            self.fresh_cells.extend_from_slice(lit);
            last = Some(lit);
        }
        self.fresh_bounds.push(self.fresh_cells.len() as u32);
        self.draft.clear();
        self.draft_bounds.clear();
    }

    // ----------------------------------------------------------------- unification

    fn var_of(&self, cell: u32, side: u32) -> u32 {
        cell + side * self.offset
    }

    fn binding(&self, var: u32) -> Option<Ref> {
        self.trail.iter().find(|b| b.0 == var).map(|b| b.1)
    }

    /// Follows bindings from `r` to an unbound variable or an application.
    fn deref(&self, mut r: Ref) -> Ref {
        loop {
            let cell = self.cells[r.pos as usize];
            if !is_var(cell) {
                return r;
            }
            match self.binding(self.var_of(cell, r.side)) {
                Some(next) => r = next,
                None => return r,
            }
        }
    }

    /// Unifies the arguments of the literals whose headers sit at `a` and `b`.
    fn unify_args(&mut self, a: usize, side_a: u32, b: usize, side_b: u32) -> bool {
        let (mut pa, mut pb) = (a + 1, b + 1);
        for _ in 0..arity(self.cells[a]) {
            let ra = Ref {
                pos: pa as u32,
                side: side_a,
            };
            let rb = Ref {
                pos: pb as u32,
                side: side_b,
            };
            if !self.unify(ra, rb) {
                return false;
            }
            pa = skip(&self.cells, pa);
            pb = skip(&self.cells, pb);
        }
        true
    }

    fn unify(&mut self, a: Ref, b: Ref) -> bool {
        let (a, b) = (self.deref(a), self.deref(b));
        let (ca, cb) = (self.cells[a.pos as usize], self.cells[b.pos as usize]);
        match (is_var(ca), is_var(cb)) {
            (true, true) => {
                let (va, vb) = (self.var_of(ca, a.side), self.var_of(cb, b.side));
                if va != vb {
                    self.trail.push((va, b));
                }
                true
            }
            (true, false) => self.bind(self.var_of(ca, a.side), b),
            (false, true) => self.bind(self.var_of(cb, b.side), a),
            (false, false) => {
                ca == cb && self.unify_args(a.pos as usize, a.side, b.pos as usize, b.side)
            }
        }
    }

    /// Binds `var` to the application at `t` unless `var` occurs in it.
    fn bind(&mut self, var: u32, t: Ref) -> bool {
        if self.occurs(var, t) {
            return false;
        }
        self.trail.push((var, t));
        true
    }

    fn occurs(&self, var: u32, t: Ref) -> bool {
        let t = self.deref(t);
        let cell = self.cells[t.pos as usize];
        if is_var(cell) {
            return self.var_of(cell, t.side) == var;
        }
        let mut pos = t.pos as usize + 1;
        for _ in 0..arity(cell) {
            let arg = Ref {
                pos: pos as u32,
                side: t.side,
            };
            if self.occurs(var, arg) {
                return true;
            }
            pos = skip(&self.cells, pos);
        }
        false
    }

    /// Appends the literal at `pos`, read from premise `side`, to the draft clause
    /// with the current bindings applied.
    fn emit_literal(&mut self, pos: usize, side: u32) {
        self.draft_bounds.push(self.draft.len() as u32);
        let header = self.cells[pos];
        self.draft.push(header);
        let mut p = pos + 1;
        for _ in 0..arity(header) {
            p = self.emit(p, side);
        }
    }

    /// Appends the term at `pos` with the bindings applied; returns the position past it.
    fn emit(&mut self, pos: usize, side: u32) -> usize {
        let cell = self.cells[pos];
        if is_var(cell) {
            let var = self.var_of(cell, side);
            match self.binding(var) {
                Some(t) => {
                    self.emit(t.pos as usize, t.side);
                }
                None => self.draft.push(var),
            }
            return pos + 1;
        }
        self.draft.push(cell);
        let mut p = pos + 1;
        for _ in 0..arity(cell) {
            p = self.emit(p, side);
        }
        p
    }

    // ------------------------------------------------------------------ subsumption

    /// Whether one of the stored clauses `candidates` subsumes `specific`: it has no
    /// more literals, and one substitution of its variables maps each of its literals
    /// onto a literal of `specific`.
    fn subsumed(&self, candidates: impl IntoIterator<Item = u32>, specific: View<'_>) -> bool {
        let (sig, nlits) = (specific.signature(), specific.nlits() as u32);
        let mut bindings = Bindings::new();
        candidates.into_iter().any(|general| {
            let m = &self.meta[general as usize];
            if m.nlits > nlits || m.sig & !sig != 0 {
                return false;
            }
            bindings.clear();
            match_from(self.view(general), 0, specific, &mut bindings)
        })
    }
}

/// Pattern-variable bindings of a match: the variable and the target term's span.
type Bindings = Vec<(u32, usize, usize)>;

/// Whether literals `i..` of `general` map onto literals of `specific` under one
/// extension of `bindings`.
fn match_from(general: View<'_>, i: usize, specific: View<'_>, bindings: &mut Bindings) -> bool {
    if i == general.nlits() {
        return true;
    }
    let p = general.bounds[i] as usize;
    for j in 0..specific.nlits() {
        let t = specific.bounds[j] as usize;
        if specific.cells[t] != general.cells[p] {
            continue;
        }
        let mark = bindings.len();
        if match_args(general.cells, p, specific.cells, t, bindings).is_some()
            && match_from(general, i + 1, specific, bindings)
        {
            return true;
        }
        bindings.truncate(mark);
    }
    false
}

/// Matches the arguments of the header or function cell at `p` onto those of the
/// equal cell at `t`; returns the ends of both.
fn match_args(
    pattern: &[u32],
    mut p: usize,
    target: &[u32],
    mut t: usize,
    bindings: &mut Bindings,
) -> Option<(usize, usize)> {
    let n = arity(pattern[p]);
    (p, t) = (p + 1, t + 1);
    for _ in 0..n {
        (p, t) = match_term(pattern, p, target, t, bindings)?;
    }
    Some((p, t))
}

/// One-way matching of the term at `p` onto the term at `t`; returns both ends.
fn match_term(
    pattern: &[u32],
    p: usize,
    target: &[u32],
    t: usize,
    bindings: &mut Bindings,
) -> Option<(usize, usize)> {
    let cell = pattern[p];
    if !is_var(cell) {
        return (target[t] == cell)
            .then(|| match_args(pattern, p, target, t, bindings))
            .flatten();
    }
    let end = skip(target, t);
    match bindings.iter().find(|b| b.0 == cell) {
        Some(&(_, s, e)) => (target[s..e] == target[t..end]).then_some((p + 1, end)),
        None => {
            bindings.push((cell, t, end));
            Some((p + 1, end))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(name: &str) -> Term {
        Term::constant(name)
    }

    fn v(n: u32) -> Term {
        Term::Var(n)
    }

    fn p(name: &str, args: Vec<Term>) -> Atom {
        Atom::new(name, args)
    }

    #[test]
    fn derives_empty_clause_from_direct_contradiction() {
        let clauses = vec![
            Clause::new(vec![Literal::pos(p("q", vec![c("a")]))]),
            Clause::new(vec![Literal::neg(p("q", vec![c("a")]))]),
        ];
        let (outcome, _) = saturate(&clauses, ResolutionLimits::default());
        assert_eq!(outcome, ResolutionOutcome::Proved);
    }

    #[test]
    fn proves_modus_ponens_with_quantifiers() {
        // ALL x. p(x) -> q(x),  p(a),  ~q(a)
        let clauses = vec![
            Clause::new(vec![
                Literal::neg(p("p", vec![v(0)])),
                Literal::pos(p("q", vec![v(0)])),
            ]),
            Clause::new(vec![Literal::pos(p("p", vec![c("a")]))]),
            Clause::new(vec![Literal::neg(p("q", vec![c("a")]))]),
        ];
        let (outcome, stats) = saturate(&clauses, ResolutionLimits::default());
        assert_eq!(outcome, ResolutionOutcome::Proved);
        assert!(stats.iterations > 0);
    }

    #[test]
    fn saturates_on_satisfiable_sets() {
        let clauses = vec![
            Clause::new(vec![Literal::pos(p("p", vec![c("a")]))]),
            Clause::new(vec![Literal::pos(p("q", vec![c("b")]))]),
        ];
        let (outcome, _) = saturate(&clauses, ResolutionLimits::default());
        assert_eq!(outcome, ResolutionOutcome::Saturated);
    }

    #[test]
    fn transitivity_chain_with_equality_axioms() {
        // a = b, b = c, goal a = c (negated) with symmetry/transitivity axioms.
        let clauses = vec![
            Clause::new(vec![Literal::pos(Atom::eq(c("a"), c("b")))]),
            Clause::new(vec![Literal::pos(Atom::eq(c("b"), c("c")))]),
            Clause::new(vec![Literal::neg(Atom::eq(c("a"), c("c")))]),
            // transitivity
            Clause::new(vec![
                Literal::neg(Atom::eq(v(0), v(1))),
                Literal::neg(Atom::eq(v(1), v(2))),
                Literal::pos(Atom::eq(v(0), v(2))),
            ]),
        ];
        let (outcome, _) = saturate(&clauses, ResolutionLimits::default());
        assert_eq!(outcome, ResolutionOutcome::Proved);
    }

    #[test]
    fn factoring_is_applied() {
        // p(x) | p(a)  and  ~p(a): needs factoring (or two resolution steps).
        let clauses = vec![
            Clause::new(vec![
                Literal::pos(p("p", vec![v(0)])),
                Literal::pos(p("p", vec![c("a")])),
            ]),
            Clause::new(vec![Literal::neg(p("p", vec![c("a")]))]),
        ];
        let (outcome, _) = saturate(&clauses, ResolutionLimits::default());
        assert_eq!(outcome, ResolutionOutcome::Proved);
    }

    #[test]
    fn subsumption_discards_weaker_clauses() {
        let general = Clause::new(vec![Literal::pos(p("p", vec![v(0)]))]);
        let specific = Clause::new(vec![
            Literal::pos(p("p", vec![c("a")])),
            Literal::pos(p("q", vec![c("b")])),
        ]);
        let mut k = Kernel::new(&[general.clone(), specific.clone()]);
        let (g, s) = (k.store_input(&general), k.store_input(&specific));
        assert!(k.subsumed([g], k.view(s)));
        assert!(!k.subsumed([s], k.view(g)));
    }

    #[test]
    fn resource_limits_are_respected() {
        // An exploding clause set (a growing chain) with a tiny iteration budget.
        let clauses = vec![
            Clause::new(vec![Literal::pos(p("p", vec![c("a")]))]),
            Clause::new(vec![
                Literal::neg(p("p", vec![v(0)])),
                Literal::pos(p("p", vec![Term::App("f".into(), vec![v(0)])])),
            ]),
            Clause::new(vec![Literal::neg(p("q", vec![c("z")]))]),
        ];
        let limits = ResolutionLimits {
            max_iterations: 5,
            ..ResolutionLimits::default()
        };
        let (outcome, stats) = saturate(&clauses, limits);
        assert_eq!(outcome, ResolutionOutcome::ResourceLimit);
        assert!(stats.iterations <= 5);
    }
}
