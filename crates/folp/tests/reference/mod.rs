//! The given-clause loop the flat kernel replaced, kept as a test-only reference.
//!
//! It works on the public clause types directly: symbols are strings, substitutions are
//! `BTreeMap`s, and each inference renames and copies its premises. The kernel must
//! make exactly the same choices, so on every clause set and under every limit its
//! `(ResolutionOutcome, ResolutionStats)` must equal this loop's. The wall-clock limits
//! are left out: the comparison runs without them.

use jahob_folp::{
    Atom, Clause, Literal, ResolutionLimits, ResolutionOutcome, ResolutionStats, Term,
};
use std::collections::BTreeMap;

/// A substitution mapping variables to terms.
pub type Subst = BTreeMap<u32, Term>;

/// Runs the saturation loop on the given clause set, ignoring the wall-clock limits.
pub fn saturate(
    clauses: &[Clause],
    limits: ResolutionLimits,
) -> (ResolutionOutcome, ResolutionStats) {
    let mut stats = ResolutionStats::default();
    let mut active: Vec<Clause> = Vec::new();
    let mut passive: Vec<Clause> = Vec::new();

    // Built-in reflexivity (kept out of tautology deletion).
    passive.push(Clause {
        literals: vec![Literal::pos(Atom::eq(Term::Var(0), Term::Var(0)))],
    });
    for c in clauses {
        if c.is_empty() {
            return (ResolutionOutcome::Proved, stats);
        }
        if !c.is_tautology() {
            passive.push(c.clone());
        }
    }

    while let Some(idx) = pick_given(&passive) {
        if stats.iterations >= limits.max_iterations {
            return (ResolutionOutcome::ResourceLimit, stats);
        }
        if active.len() + passive.len() > limits.max_clauses {
            return (ResolutionOutcome::ResourceLimit, stats);
        }
        stats.iterations += 1;
        let given = passive.swap_remove(idx);
        if is_forward_subsumed(&given, &active) {
            continue;
        }

        let mut new_clauses = Vec::new();
        // Factoring on the given clause.
        new_clauses.extend(factors(&given));
        // Binary resolution with every active clause and with itself.
        for other in active.iter().chain(std::iter::once(&given)) {
            new_clauses.extend(resolvents(&given, other));
        }
        active.push(given);

        for c in new_clauses {
            stats.generated += 1;
            if c.is_empty() {
                stats.retained = active.len() + passive.len();
                return (ResolutionOutcome::Proved, stats);
            }
            if c.is_tautology()
                || c.literals.len() > limits.max_literals
                || clause_size(&c) > limits.max_clause_size
            {
                continue;
            }
            if is_forward_subsumed(&c, &active) || is_forward_subsumed(&c, &passive) {
                continue;
            }
            passive.push(c);
            if active.len() + passive.len() > limits.max_clauses {
                return (ResolutionOutcome::ResourceLimit, stats);
            }
        }
    }
    stats.retained = active.len();
    (ResolutionOutcome::Saturated, stats)
}

/// Picks the index of the smallest passive clause (a simple best-first heuristic).
fn pick_given(passive: &[Clause]) -> Option<usize> {
    passive
        .iter()
        .enumerate()
        .min_by_key(|(_, c)| (clause_size(c), c.literals.len()))
        .map(|(i, _)| i)
}

/// The index of the literal a clause is allowed to resolve on *negatively*: its first
/// negative literal, if any (negative-literal selection).
fn selected_negative(c: &Clause) -> Option<usize> {
    c.literals.iter().position(|l| !l.positive)
}

/// All binary resolvents of `a` and `b` under negative-literal selection: the negative
/// partner of every inference must be the selected negative literal of its clause.
fn resolvents(a: &Clause, b: &Clause) -> Vec<Clause> {
    let mut out = Vec::new();
    // Rename apart.
    let offset = var_bound(a);
    let b = shift_clause(b, offset);
    let sel_a = selected_negative(a);
    let sel_b = selected_negative(&b);
    for (i, la) in a.literals.iter().enumerate() {
        for (j, lb) in b.literals.iter().enumerate() {
            if la.positive == lb.positive {
                continue;
            }
            // Enforce selection on whichever premise contributes the negative literal.
            if !la.positive && sel_a != Some(i) {
                continue;
            }
            if !lb.positive && sel_b != Some(j) {
                continue;
            }
            let mut subst = Subst::new();
            if unify_atoms(&la.atom, &lb.atom, &mut subst) {
                let mut lits = Vec::new();
                for (k, l) in a.literals.iter().enumerate() {
                    if k != i {
                        lits.push(apply_literal(l, &subst));
                    }
                }
                for (k, l) in b.literals.iter().enumerate() {
                    if k != j {
                        lits.push(apply_literal(l, &subst));
                    }
                }
                out.push(Clause::new(lits));
            }
        }
    }
    out
}

/// All binary factors of a clause (unifying two literals of the same sign).
fn factors(c: &Clause) -> Vec<Clause> {
    let mut out = Vec::new();
    for i in 0..c.literals.len() {
        for j in (i + 1)..c.literals.len() {
            let (li, lj) = (&c.literals[i], &c.literals[j]);
            if li.positive != lj.positive {
                continue;
            }
            let mut subst = Subst::new();
            if unify_atoms(&li.atom, &lj.atom, &mut subst) {
                out.push(Clause::new(
                    c.literals
                        .iter()
                        .map(|l| apply_literal(l, &subst))
                        .collect(),
                ));
            }
        }
    }
    out
}

/// Returns `true` if `clause` is subsumed by some clause in `set`.
fn is_forward_subsumed(clause: &Clause, set: &[Clause]) -> bool {
    set.iter().any(|c| subsumes(c, clause))
}

/// Returns `true` if `general` subsumes `specific`: some substitution maps every literal
/// of `general` onto a literal of `specific`.
fn subsumes(general: &Clause, specific: &Clause) -> bool {
    if general.literals.len() > specific.literals.len() {
        return false;
    }
    // Cheap prefilter: every predicate symbol (with sign) of `general` must occur in
    // `specific`, otherwise no literal matching can exist.
    if !general.literals.iter().all(|lg| {
        specific
            .literals
            .iter()
            .any(|ls| ls.positive == lg.positive && ls.atom.pred == lg.atom.pred)
    }) {
        return false;
    }
    // Rename `general` apart from `specific` so matching cannot capture.
    let general = shift_clause(general, var_bound(specific));
    fn go(remaining: &[Literal], specific: &Clause, subst: &Subst) -> bool {
        let Some((first, rest)) = remaining.split_first() else {
            return true;
        };
        for target in &specific.literals {
            if target.positive != first.positive {
                continue;
            }
            let mut s = subst.clone();
            if match_atom(&first.atom, &target.atom, &mut s) && go(rest, specific, &s) {
                return true;
            }
        }
        false
    }
    go(&general.literals, specific, &Subst::new())
}

fn match_atom(pattern: &Atom, target: &Atom, subst: &mut Subst) -> bool {
    pattern.pred == target.pred
        && pattern.args.len() == target.args.len()
        && pattern
            .args
            .iter()
            .zip(target.args.iter())
            .all(|(p, t)| match_terms(p, t, subst))
}

// ------------------------------------------------------------------- term operations

/// The number of symbols in the term.
fn term_size(t: &Term) -> usize {
    match t {
        Term::Var(_) => 1,
        Term::App(_, args) => 1 + args.iter().map(term_size).sum::<usize>(),
    }
}

/// The number of symbols in the clause.
fn clause_size(c: &Clause) -> usize {
    c.literals
        .iter()
        .map(|l| 1 + l.atom.args.iter().map(term_size).sum::<usize>())
        .sum()
}

/// The largest variable index occurring in the clause plus one.
fn var_bound(c: &Clause) -> u32 {
    c.vars().into_iter().max().map_or(0, |v| v + 1)
}

/// Applies a substitution, following binding chains so that a variable bound to
/// another bound variable resolves all the way to its final value (unification
/// produces acyclic bindings, so the recursion terminates).
pub fn apply(t: &Term, subst: &Subst) -> Term {
    match t {
        Term::Var(v) => match subst.get(v) {
            Some(bound) => apply(bound, subst),
            None => t.clone(),
        },
        Term::App(f, args) => Term::App(f.clone(), args.iter().map(|a| apply(a, subst)).collect()),
    }
}

fn apply_literal(l: &Literal, subst: &Subst) -> Literal {
    Literal {
        positive: l.positive,
        atom: Atom::new(
            l.atom.pred.clone(),
            l.atom.args.iter().map(|a| apply(a, subst)).collect(),
        ),
    }
}

/// Renames every variable by adding `offset`.
fn shift(t: &Term, offset: u32) -> Term {
    match t {
        Term::Var(v) => Term::Var(v + offset),
        Term::App(f, args) => Term::App(f.clone(), args.iter().map(|a| shift(a, offset)).collect()),
    }
}

fn shift_clause(c: &Clause, offset: u32) -> Clause {
    Clause {
        literals: c
            .literals
            .iter()
            .map(|l| Literal {
                positive: l.positive,
                atom: Atom::new(
                    l.atom.pred.clone(),
                    l.atom.args.iter().map(|a| shift(a, offset)).collect(),
                ),
            })
            .collect(),
    }
}

// ----------------------------------------------------------------------- unification

/// Unifies two terms under an existing substitution, extending it on success.
pub fn unify_terms(a: &Term, b: &Term, subst: &mut Subst) -> bool {
    let a = walk(a, subst);
    let b = walk(b, subst);
    match (&a, &b) {
        (Term::Var(x), Term::Var(y)) if x == y => true,
        (Term::Var(x), t) | (t, Term::Var(x)) => {
            if occurs(*x, t, subst) {
                false
            } else {
                subst.insert(*x, t.clone());
                true
            }
        }
        (Term::App(f, fa), Term::App(g, ga)) => {
            if f != g || fa.len() != ga.len() {
                return false;
            }
            fa.iter()
                .zip(ga.iter())
                .all(|(x, y)| unify_terms(x, y, subst))
        }
    }
}

/// Unifies two atoms.
fn unify_atoms(a: &Atom, b: &Atom, subst: &mut Subst) -> bool {
    a.pred == b.pred
        && a.args.len() == b.args.len()
        && a.args
            .iter()
            .zip(b.args.iter())
            .all(|(x, y)| unify_terms(x, y, subst))
}

/// Follows the bindings of a variable to its value.
pub fn walk(t: &Term, subst: &Subst) -> Term {
    match t {
        Term::Var(v) => match subst.get(v) {
            Some(bound) => walk(bound, subst),
            None => t.clone(),
        },
        _ => t.clone(),
    }
}

fn occurs(v: u32, t: &Term, subst: &Subst) -> bool {
    match walk(t, subst) {
        Term::Var(w) => v == w,
        Term::App(_, args) => args.iter().any(|a| occurs(v, a, subst)),
    }
}

/// Matches `pattern` against `target` (one-way unification), extending `subst`.
pub fn match_terms(pattern: &Term, target: &Term, subst: &mut Subst) -> bool {
    match pattern {
        Term::Var(v) => match subst.get(v) {
            Some(bound) => bound == target,
            None => {
                subst.insert(*v, target.clone());
                true
            }
        },
        Term::App(f, fa) => match target {
            Term::App(g, ga) if f == g && fa.len() == ga.len() => fa
                .iter()
                .zip(ga.iter())
                .all(|(p, t)| match_terms(p, t, subst)),
            _ => false,
        },
    }
}
