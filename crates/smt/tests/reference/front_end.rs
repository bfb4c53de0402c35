//! SMT's front end as it was before it ran on the formula bank, kept as a test oracle.
//!
//! It approximates each sequent into the first-order fragment with the `Form`
//! oracle's `first_order_implication`, puts every formula in negation
//! normal form, instantiates universals with the sequent's candidate terms and
//! Skolemises existentials (a Skolem term is a function of the enclosing universal
//! variables), names literal quotients, and converts each formula to clauses over
//! atoms interned by `Problem::atom`, all on `Form` trees. `jahob_smt`'s bank front
//! end must hand the solver the same atoms in the same order and the same clauses.

use super::logic::approx::first_order_implication;
use super::logic::simplify::{nnf, simplify};
use jahob_logic::form::{Binder, Const, Form, Ident};
use jahob_logic::rewrite::rewrite_bottom_up;
use jahob_logic::subst::{free_vars, substitute, Subst};
use jahob_logic::Sequent;
use jahob_smt::ground::{GAtom, GTerm, GroundOutcome, IndexClause, Problem};
use jahob_smt::{GroundClauses, SmtOptions, SmtResult};
use std::collections::BTreeSet;

/// Attempts to prove the sequent by refuting its negation modulo EUF + LIA.
pub fn prove_sequent(sequent: &Sequent, options: &SmtOptions) -> SmtResult {
    match translate(sequent, options) {
        Ok((problem, ground)) => {
            let clauses = ground.clauses.len();
            let outcome = problem.solve(ground.clauses, options.ground_limits);
            SmtResult {
                proved: outcome == GroundOutcome::Unsat,
                outcome,
                clauses,
            }
        }
        Err(clauses) => SmtResult {
            proved: false,
            outcome: GroundOutcome::Unknown,
            clauses,
        },
    }
}

/// The ground clauses the solver gets for `sequent`, or the clause count at which
/// they overflowed `options.max_clauses`.
pub fn ground_clauses(sequent: &Sequent, options: &SmtOptions) -> Result<GroundClauses, usize> {
    translate(sequent, options).map(|(_, ground)| ground)
}

fn translate(sequent: &Sequent, options: &SmtOptions) -> Result<(Problem, GroundClauses), usize> {
    let (assumptions, goal) =
        first_order_implication(sequent, &options.set_vars, &options.fun_vars);

    // The refutation target: assumptions and the negated goal.
    let mut formulas: Vec<Form> = assumptions;
    formulas.push(Form::not(goal));
    let formulas: Vec<Form> = formulas.iter().map(nnf).collect();

    // Ground the quantifiers.
    let mut grounder = Grounder {
        next_skolem: 0,
        options: options.clone(),
    };
    let mut candidates = collect_candidate_terms(&formulas, &options.fun_vars);
    if candidates.is_empty() {
        candidates.insert(Form::null());
    }
    // Iterated instantiation: each round re-grounds the original formulas with the
    // candidate pool enriched by the terms (Skolem terms, applications) the previous
    // round produced.
    let mut ground: Vec<Form> = Vec::new();
    let rounds = options.instantiation_rounds.max(1);
    for round in 1..=rounds {
        // Each round names the existentials afresh from 0, so a Skolem term the
        // previous round added to the pool is the one this round's formulas use.
        grounder.next_skolem = 0;
        ground = formulas
            .iter()
            .map(|f| grounder.ground(f, &candidates, &mut Vec::new()))
            .collect();
        if round == rounds {
            // No round reads the terms this one produced.
            break;
        }
        let mut enriched = collect_candidate_terms(&ground, &options.fun_vars);
        enriched.extend(candidates.iter().cloned());
        if enriched.len() == candidates.len() {
            break;
        }
        candidates = enriched;
    }

    // Give meaning to integer division and remainder by positive literal divisors (the
    // priority queue's parent/child index arithmetic needs this).
    let ground = if ground.iter().any(division_pass_applies) {
        define_divisions(ground)
    } else {
        ground
    };

    // Convert to ground clauses over atoms interned as they are converted.
    let mut problem = Problem::default();
    let mut atoms: Vec<GAtom> = Vec::new();
    let mut clauses: Vec<IndexClause> = Vec::new();
    for f in &ground {
        let budget = options.max_clauses.saturating_sub(clauses.len());
        match formula_to_clauses(f, budget, &mut problem, &mut atoms) {
            Some(cs) => clauses.extend(cs),
            None => return Err(clauses.len()),
        }
        if clauses.len() > options.max_clauses {
            return Err(clauses.len());
        }
    }
    Ok((problem, GroundClauses { atoms, clauses }))
}

/// Replaces ground occurrences of `a div k` and `a mod k` (for positive integer literals
/// `k`) by fresh variables constrained with the floor-division axioms
/// `k*q <= a < k*(q+1)`, appending the defining constraints as extra formulas. Divisions
/// by non-literal or non-positive divisors are left uninterpreted.
///
/// One bottom-up pass suffices: a node is rewritten after its arguments, so a numerator
/// holds no literal division any more, and a rewrite introduces none.
fn define_divisions(formulas: Vec<Form>) -> Vec<Form> {
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    // (numerator, divisor) -> quotient variable name
    let quotients: RefCell<BTreeMap<(Form, i64), String>> = RefCell::new(BTreeMap::new());
    let quotient_of = |a: &Form, k: i64| -> String {
        let mut map = quotients.borrow_mut();
        let next = map.len();
        map.entry((a.clone(), k))
            .or_insert_with(|| format!("smt$div{next}"))
            .clone()
    };

    let positive_divisor = |f: &Form| -> Option<i64> {
        match f {
            Form::Const(Const::IntLit(k)) if *k > 0 => Some(*k),
            _ => None,
        }
    };

    let rewritten: Vec<Form> = formulas
        .iter()
        .map(|f| {
            rewrite_bottom_up(f, &|t| {
                if let Form::App(head, args) = t {
                    if args.len() == 2 {
                        if let Some(k) = positive_divisor(&args[1]) {
                            match head.as_ref() {
                                Form::Const(Const::Div) => {
                                    return Some(Form::var(quotient_of(&args[0], k)));
                                }
                                Form::Const(Const::Mod) => {
                                    // a mod k = a - k * (a div k)
                                    let q = Form::var(quotient_of(&args[0], k));
                                    return Some(Form::minus(
                                        args[0].clone(),
                                        Form::app(Form::Const(Const::Times), vec![Form::int(k), q]),
                                    ));
                                }
                                _ => {}
                            }
                        }
                    }
                }
                None
            })
        })
        .collect();

    let mut out = rewritten;
    for ((numerator, k), q) in quotients.into_inner() {
        let qv = Form::var(q);
        let kq = Form::app(Form::Const(Const::Times), vec![Form::int(k), qv]);
        // k*q <= a  and  a < k*q + k  (floor division, matching Isabelle/HOL's `div`).
        out.push(Form::cmp(Const::LtEq, kq.clone(), numerator.clone()));
        out.push(Form::cmp(
            Const::Lt,
            numerator,
            Form::plus(kq, Form::int(k)),
        ));
    }
    out
}

/// Whether [`define_divisions`] can change `form`. Its rewrite fires only on a `div`
/// or `mod` application, and its rebuilding through [`Form::app`] changes only an
/// application with no arguments or with an application as its head (it flattens
/// those); on a formula with none of the three the pass returns its input.
fn division_pass_applies(form: &Form) -> bool {
    match form {
        Form::Var(_) | Form::Const(_) => false,
        Form::Typed(f, _) => division_pass_applies(f),
        Form::Binder(_, _, body) => division_pass_applies(body),
        Form::App(head, args) => {
            matches!(
                head.as_ref(),
                Form::Const(Const::Div | Const::Mod) | Form::App(..)
            ) || args.is_empty()
                || division_pass_applies(head)
                || args.iter().any(division_pass_applies)
        }
    }
}

/// Collects ground candidate terms for quantifier instantiation: free variables and
/// ground applications occurring in the formulas (object-like terms, not boolean
/// connectives).
fn collect_candidate_terms(formulas: &[Form], fun_vars: &BTreeSet<String>) -> BTreeSet<Form> {
    let mut out = BTreeSet::new();
    for f in formulas {
        collect_terms(f, &mut out);
    }
    out.insert(Form::null());
    // Function-valued variables (fields) are not useful instantiation candidates for
    // object/integer quantifiers; dropping them keeps the pool focused.
    out.retain(|f| {
        !matches!(&f, Form::Var(v)
            if fun_vars.contains(v.as_str()) || v == "arrayState" || v == "old$arrayState")
    });
    // Cap the candidate pool to keep instantiation bounded.
    out.into_iter().take(20).collect()
}

fn collect_terms(form: &Form, out: &mut BTreeSet<Form>) {
    let mut bound = Vec::new();
    collect_terms_scoped(form, &mut bound, out);
}

/// Walks `form` collecting candidate terms, tracking the variables bound by enclosing
/// binders: a term mentioning a bound variable is not ground in the sequent's scope, so
/// instantiating with it would only add noise to the candidate pool.
fn collect_terms_scoped(form: &Form, bound: &mut Vec<Ident>, out: &mut BTreeSet<Form>) {
    let is_ground = |f: &Form, bound: &[Ident]| {
        bound.is_empty() || free_vars(f).iter().all(|v| !bound.contains(v))
    };
    match form {
        Form::Var(_) if is_ground(form, bound) => {
            out.insert(form.clone());
        }
        Form::Const(Const::Null) => {
            out.insert(form.clone());
        }
        Form::App(head, args) => {
            // Term-level applications of variables are candidates themselves (f x).
            if matches!(head.as_ref(), Form::Var(_))
                && is_ground(form, bound)
                && args.len() == 1
                && matches!(args[0], Form::Var(_) | Form::Const(Const::Null))
            {
                out.insert(form.clone());
            }
            for a in args {
                collect_terms_scoped(a, bound, out);
            }
        }
        Form::Binder(_, vars, body) => {
            let n = vars.len();
            bound.extend(vars.iter().map(|(v, _)| v.clone()));
            collect_terms_scoped(body, bound, out);
            bound.truncate(bound.len() - n);
        }
        Form::Typed(f, _) => collect_terms_scoped(f, bound, out),
        _ => {}
    }
}

struct Grounder {
    next_skolem: u32,
    options: SmtOptions,
}

impl Grounder {
    /// Removes quantifiers from an NNF formula by instantiation (universals) and
    /// skolemisation (existentials). `universals` holds the variables of the enclosing
    /// universal quantifiers, outermost first: an existential under them becomes its
    /// Skolem function applied to them, so instantiating a universal instantiates the
    /// witness with it.
    fn ground(
        &mut self,
        form: &Form,
        candidates: &BTreeSet<Form>,
        universals: &mut Vec<Ident>,
    ) -> Form {
        match form {
            Form::Binder(Binder::Forall, vars, body) => {
                let depth = universals.len();
                universals.extend(vars.iter().map(|(v, _)| v.clone()));
                let grounded_body = self.ground(body, candidates, universals);
                universals.truncate(depth);
                let mut instances = Vec::new();
                let mut assignments: Vec<Subst> = vec![Subst::new()];
                for (v, _) in vars {
                    let mut next = Vec::new();
                    for base in &assignments {
                        for cand in candidates {
                            let mut s = base.clone();
                            s.insert(v.clone(), cand.clone());
                            next.push(s);
                            if next.len() >= self.options.max_instances_per_quantifier {
                                break;
                            }
                        }
                        if next.len() >= self.options.max_instances_per_quantifier {
                            break;
                        }
                    }
                    assignments = next;
                }
                for s in assignments {
                    instances.push(simplify(&substitute(&grounded_body, &s)));
                }
                Form::and(instances)
            }
            Form::Binder(Binder::Exists, vars, body) => {
                let arguments: Vec<Form> = universals.iter().cloned().map(Form::var).collect();
                let mut s = Subst::new();
                for (v, _) in vars {
                    let name = format!("smt$sk{}", self.next_skolem);
                    self.next_skolem += 1;
                    s.insert(v.clone(), Form::app(Form::var(name), arguments.clone()));
                }
                let skolemised = substitute(body, &s);
                self.ground(&skolemised, candidates, universals)
            }
            Form::App(head, args) => {
                if let Form::Const(c) = head.as_ref() {
                    if matches!(c, Const::And | Const::Or | Const::Not) {
                        return Form::app(
                            head.as_ref().clone(),
                            args.iter()
                                .map(|a| self.ground(a, candidates, universals))
                                .collect(),
                        );
                    }
                }
                form.clone()
            }
            _ => form.clone(),
        }
    }
}

/// Converts a quantifier-free NNF formula into ground clauses (CNF by distribution, with
/// a budget) over atoms interned in `problem`. Returns `None` when the budget is
/// exceeded.
fn formula_to_clauses(
    form: &Form,
    budget: usize,
    problem: &mut Problem,
    atoms: &mut Vec<GAtom>,
) -> Option<Vec<IndexClause>> {
    fn go(
        form: &Form,
        positive: bool,
        budget: usize,
        problem: &mut Problem,
        atoms: &mut Vec<GAtom>,
    ) -> Option<Vec<IndexClause>> {
        if let Form::App(head, args) = form {
            if let Form::Const(c) = head.as_ref() {
                match (c, positive) {
                    (Const::Not, _) => return go(&args[0], !positive, budget, problem, atoms),
                    (Const::And, true) | (Const::Or, false) => {
                        let mut out = Vec::new();
                        for a in args {
                            out.extend(go(a, positive, budget, problem, atoms)?);
                            if out.len() > budget {
                                return None;
                            }
                        }
                        return Some(out);
                    }
                    (Const::Or, true) | (Const::And, false) => {
                        let mut acc: Vec<IndexClause> = vec![Vec::new()];
                        for a in args {
                            let sub = go(a, positive, budget, problem, atoms)?;
                            let mut next = Vec::new();
                            for base in &acc {
                                for s in &sub {
                                    let mut cl = base.clone();
                                    cl.extend(s.clone());
                                    next.push(cl);
                                    if next.len() > budget {
                                        return None;
                                    }
                                }
                            }
                            acc = next;
                        }
                        return Some(acc);
                    }
                    (Const::Impl, _) => {
                        let expanded = Form::or(vec![Form::not(args[0].clone()), args[1].clone()]);
                        return go(&expanded, positive, budget, problem, atoms);
                    }
                    (Const::Iff, _) => {
                        let expanded = Form::and(vec![
                            Form::implies(args[0].clone(), args[1].clone()),
                            Form::implies(args[1].clone(), args[0].clone()),
                        ]);
                        return go(&expanded, positive, budget, problem, atoms);
                    }
                    _ => {}
                }
            }
        }
        match form {
            Form::Const(Const::BoolLit(b)) => {
                if *b == positive {
                    Some(Vec::new())
                } else {
                    Some(vec![Vec::new()])
                }
            }
            // Remaining quantifiers (nested under atoms we could not instantiate) are
            // approximated by polarity.
            Form::Binder(Binder::Forall | Binder::Exists, _, _) => {
                if positive {
                    Some(vec![Vec::new()])
                } else {
                    Some(Vec::new())
                }
            }
            atom => {
                let converted = convert_atom(atom);
                let index = problem.atom(&converted);
                if index == atoms.len() {
                    atoms.push(converted);
                }
                Some(vec![vec![(index, positive)]])
            }
        }
    }
    go(form, true, budget, problem, atoms)
}

/// Converts a HOL atom to a ground SMT atom.
fn convert_atom(atom: &Form) -> GAtom {
    if let Form::App(head, args) = atom {
        if let Form::Const(c) = head.as_ref() {
            match (c, args.as_slice()) {
                (Const::Eq, [l, r]) => return GAtom::Eq(convert_term(l), convert_term(r)),
                (Const::Lt, [l, r]) => return GAtom::Lt(convert_term(l), convert_term(r)),
                (Const::Gt, [l, r]) => return GAtom::Lt(convert_term(r), convert_term(l)),
                (Const::LtEq, [l, r]) => return GAtom::Le(convert_term(l), convert_term(r)),
                (Const::GtEq, [l, r]) => return GAtom::Le(convert_term(r), convert_term(l)),
                (Const::Elem, [e, s]) => return convert_membership(e, s),
                (Const::Rtrancl, parts) if parts.len() == 3 => {
                    return GAtom::Pred(
                        format!("reach${}", parts[0]),
                        vec![convert_term(&parts[1]), convert_term(&parts[2])],
                    )
                }
                _ => {}
            }
        }
        if let Form::Var(p) = head.as_ref() {
            return GAtom::Pred(format!("p${p}"), args.iter().map(convert_term).collect());
        }
    }
    if let Form::Var(p) = atom {
        return GAtom::Pred(format!("p${p}"), Vec::new());
    }
    GAtom::Pred(format!("opaque${atom}"), Vec::new())
}

fn convert_membership(elem: &Form, set: &Form) -> GAtom {
    let mut components = match elem.as_app_of(&Const::Tuple) {
        Some(parts) => parts.iter().map(convert_term).collect::<Vec<_>>(),
        None => vec![convert_term(elem)],
    };
    match set {
        Form::Var(s) => GAtom::Pred(format!("in${s}"), components),
        Form::App(head, args) if matches!(head.as_ref(), Form::Var(_)) => {
            let Form::Var(f) = head.as_ref() else {
                unreachable!()
            };
            let mut all: Vec<GTerm> = args.iter().map(convert_term).collect();
            all.append(&mut components);
            GAtom::Pred(format!("in${f}"), all)
        }
        other => {
            components.push(convert_term(other));
            GAtom::Pred("in$".to_string(), components)
        }
    }
}

/// Converts a HOL term to a ground SMT term.
fn convert_term(term: &Form) -> GTerm {
    match term {
        Form::Var(v) => GTerm::constant(v.clone()),
        Form::Const(Const::Null) => GTerm::constant("null"),
        Form::Const(Const::IntLit(n)) => GTerm::Int(*n),
        Form::Const(Const::BoolLit(b)) => GTerm::constant(format!("bool${b}")),
        Form::Const(Const::EmptySet) => GTerm::constant("emptyset"),
        Form::Typed(inner, _) => convert_term(inner),
        Form::App(head, args) => {
            let conv: Vec<GTerm> = args.iter().map(convert_term).collect();
            match head.as_ref() {
                Form::Var(f) => GTerm::App(f.clone(), conv),
                Form::Const(Const::Plus) if conv.len() == 2 => {
                    let mut it = conv.into_iter();
                    GTerm::Add(
                        Box::new(it.next().expect("2 args")),
                        Box::new(it.next().expect("2 args")),
                    )
                }
                Form::Const(Const::Minus) if conv.len() == 2 => {
                    let mut it = conv.into_iter();
                    GTerm::Sub(
                        Box::new(it.next().expect("2 args")),
                        Box::new(it.next().expect("2 args")),
                    )
                }
                Form::Const(Const::Times) if conv.len() == 2 => match (&conv[0], &conv[1]) {
                    (GTerm::Int(k), other) | (other, GTerm::Int(k)) => {
                        GTerm::Mul(*k, Box::new(other.clone()))
                    }
                    _ => GTerm::App("int$times".into(), conv),
                },
                Form::Const(Const::UMinus) if conv.len() == 1 => GTerm::Sub(
                    Box::new(GTerm::Int(0)),
                    Box::new(conv.into_iter().next().expect("1 arg")),
                ),
                Form::Const(Const::ArrayRead) => GTerm::App("array$read".into(), conv),
                Form::Const(Const::ArrayWrite) => GTerm::App("array$write".into(), conv),
                Form::Const(Const::FieldWrite) => GTerm::App("field$write".into(), conv),
                Form::Const(Const::Union) => GTerm::App("set$union".into(), conv),
                Form::Const(Const::Inter) => GTerm::App("set$inter".into(), conv),
                Form::Const(Const::Diff) => GTerm::App("set$diff".into(), conv),
                Form::Const(Const::FiniteSet) => GTerm::App("set$mk".into(), conv),
                Form::Const(Const::Tuple) => GTerm::App("tuple".into(), conv),
                Form::Const(Const::Card) => GTerm::App("card".into(), conv),
                _ => GTerm::App(format!("opaque${head}"), conv),
            }
        }
        other => GTerm::constant(format!("opaque${other}")),
    }
}
