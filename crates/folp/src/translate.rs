//! Translation from higher-order Jahob sequents to first-order clauses.
//!
//! This follows the approach of Bouillaguet et al. (VMCAI'07) used by Jahob's first-order
//! prover interface (§6.2 of the paper): after rewriting (definition unfolding, beta
//! reduction, expansion of set operations into membership formulas and of complex
//! equalities into extensionality), the remaining formula is approximated into a
//! first-order fragment:
//!
//! * memberships `x : S` become applications of a predicate owned by the set expression,
//! * transitive closure becomes an uninterpreted predicate constrained by *sound* axioms
//!   (reflexivity, transitivity, step inclusion) — strong enough for many reachability
//!   goals, incomplete for induction,
//! * arithmetic comparisons become predicates with a partial ordering axiomatisation,
//! * cardinality, `tree [...]` and any remaining higher-order constructs are approximated
//!   away by polarity (Figure 14).
//!
//! The result is a set of clauses whose unsatisfiability implies validity of the original
//! sequent.

use crate::fol::{Atom, Clause, Literal, Term};
use jahob_logic::bank::{Bank, InternedSequent, NodeId};
use jahob_logic::form::{Binder, Const, Form};
use jahob_logic::types::Type;
use jahob_logic::Sequent;
use std::collections::{BTreeMap, BTreeSet};

/// The predicate standing for an atom that has no first-order translation, or that
/// mentions a term without one.
const UNTRANSLATED: &str = "untranslated$";

/// Options controlling the translation.
#[derive(Debug, Clone)]
pub struct TranslateOptions {
    /// Names of variables known to denote sets (so equalities on them expand to
    /// extensionality).
    pub set_vars: BTreeSet<String>,
    /// Names of variables known to denote functions/fields (so equalities on them expand
    /// pointwise).
    pub fun_vars: BTreeSet<String>,
    /// Maximum number of clauses produced before giving up.
    pub max_clauses: usize,
    /// Include ordering axioms for integer comparisons.
    pub arithmetic_axioms: bool,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        TranslateOptions::new()
    }
}

impl TranslateOptions {
    /// Default options with a clause budget.
    pub fn new() -> Self {
        TranslateOptions {
            set_vars: BTreeSet::new(),
            fun_vars: BTreeSet::new(),
            max_clauses: 4_000,
            arithmetic_axioms: true,
        }
    }
}

/// Error raised when the translation exceeds its clause budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslationOverflow;

/// Translates a sequent into a refutation task: a clause set that is unsatisfiable only
/// if the sequent is valid. Returns the clauses (assumptions, negated goal, and the
/// required theory axioms). The translation runs on a fresh formula bank.
///
/// # Errors
///
/// Returns [`TranslationOverflow`] if clausification exceeds the configured budget.
pub fn sequent_to_clauses(
    sequent: &Sequent,
    options: &TranslateOptions,
) -> Result<Vec<Clause>, TranslationOverflow> {
    let mut bank = Bank::new();
    let interned = bank.intern_sequent(sequent);
    interned_to_clauses(&mut bank, &interned, options)
}

/// [`sequent_to_clauses`] of a sequent in `bank`: rewriting and polarity approximation
/// into the first-order fragment ([`Bank::first_order_implication`]), memoised in the
/// bank, then [`implication_to_clauses`].
///
/// # Errors
///
/// Returns [`TranslationOverflow`] if clausification exceeds the configured budget.
pub fn interned_to_clauses(
    bank: &mut Bank,
    sequent: &InternedSequent,
    options: &TranslateOptions,
) -> Result<Vec<Clause>, TranslationOverflow> {
    let vars = bank.first_order_vars(&options.set_vars, &options.fun_vars);
    let (assumptions, goal) =
        bank.first_order_implication(&sequent.assumptions, sequent.goal, vars);
    implication_to_clauses(bank, &assumptions, goal, options)
}

/// The refutation task of an approximated sequent in `bank`: `assumptions` and `goal`
/// as [`Bank::first_order_implication`] returns them. Each formula, the negated goal
/// and each theory axiom is put in negation normal form on the bank ([`Bank::nnf`])
/// and clausified. Returns the clauses of the assumptions, the negated goal and the
/// required theory axioms.
///
/// # Errors
///
/// Returns [`TranslationOverflow`] if clausification exceeds the configured budget.
pub fn implication_to_clauses(
    bank: &mut Bank,
    assumptions: &[NodeId],
    goal: NodeId,
    options: &TranslateOptions,
) -> Result<Vec<Clause>, TranslationOverflow> {
    // Refutation set: assumptions plus negated goal.
    let mut cx = ClausifyCx {
        next_var: 0,
        next_skolem: 0,
        clauses: Vec::new(),
        max_clauses: options.max_clauses,
        rtrancl_bodies: Vec::new(),
        symbols: BTreeSet::new(),
        preds: BTreeSet::new(),
        used_arith: false,
        untranslated_term: false,
    };
    for a in assumptions {
        cx.clausify(&nnf(bank, *a))?;
    }
    let negated = bank.not(goal);
    cx.clausify(&nnf(bank, negated))?;

    // Reachability axioms for each distinct transitive-closure body encountered.
    let bodies = cx.rtrancl_bodies.clone();
    for (idx, body) in bodies.iter().enumerate() {
        for ax in rtrancl_axioms(idx, body) {
            let ax = bank.intern(&ax);
            cx.clausify(&nnf(bank, ax))?;
        }
    }

    // Equality and congruence axioms for the symbols that occur.
    let mut clauses = cx.clauses.clone();
    clauses.extend(equality_axioms(&cx.symbols, &cx.preds));
    if options.arithmetic_axioms && cx.used_arith {
        for ax in arithmetic_axioms() {
            let mut c2 = ClausifyCx {
                next_var: 0,
                next_skolem: 0,
                clauses: Vec::new(),
                max_clauses: options.max_clauses,
                rtrancl_bodies: Vec::new(),
                symbols: BTreeSet::new(),
                preds: BTreeSet::new(),
                used_arith: false,
                untranslated_term: false,
            };
            let ax = bank.intern(&ax);
            c2.clausify(&nnf(bank, ax))?;
            clauses.extend(c2.clauses);
        }
    }
    Ok(clauses)
}

/// The negation normal form of a formula in `bank`, as a formula.
fn nnf(bank: &mut Bank, f: NodeId) -> Form {
    let normal = bank.nnf(f);
    bank.materialise(normal)
}

/// Sound axioms for the reachability predicate `reach$idx` generated from a transitive
/// closure over `body` (a binary lambda): reflexivity, transitivity and step inclusion.
fn rtrancl_axioms(idx: usize, body: &Form) -> Vec<Form> {
    let r = |a: Form, b: Form| Form::app(Form::var(format!("reach${idx}")), vec![a, b]);
    let step = |a: Form, b: Form| -> Form { Form::app(body.clone(), vec![a, b]) };
    vec![
        // reflexivity
        Form::forall("rx", Type::Obj, r(Form::var("rx"), Form::var("rx"))),
        // step inclusion
        Form::forall_many(
            vec![("rx".to_string(), Type::Obj), ("ry".to_string(), Type::Obj)],
            Form::implies(
                step(Form::var("rx"), Form::var("ry")),
                r(Form::var("rx"), Form::var("ry")),
            ),
        ),
        // transitivity
        Form::forall_many(
            vec![
                ("rx".to_string(), Type::Obj),
                ("ry".to_string(), Type::Obj),
                ("rz".to_string(), Type::Obj),
            ],
            Form::implies(
                Form::and(vec![
                    r(Form::var("rx"), Form::var("ry")),
                    r(Form::var("ry"), Form::var("rz")),
                ]),
                r(Form::var("rx"), Form::var("rz")),
            ),
        ),
        // one-step unfolding: reach x y --> x = y | EX z. step x z & reach z y
        Form::forall_many(
            vec![("rx".to_string(), Type::Obj), ("ry".to_string(), Type::Obj)],
            Form::implies(
                r(Form::var("rx"), Form::var("ry")),
                Form::or(vec![
                    Form::eq(Form::var("rx"), Form::var("ry")),
                    Form::exists(
                        "rz",
                        Type::Obj,
                        Form::and(vec![
                            step(Form::var("rx"), Form::var("rz")),
                            r(Form::var("rz"), Form::var("ry")),
                        ]),
                    ),
                ]),
            ),
        ),
    ]
}

/// Partial axiomatisation of the integer ordering used when comparisons occur (§6.2:
/// "an incomplete set of axioms for ordering and addition").
fn arithmetic_axioms() -> Vec<Form> {
    let le = |a: Form, b: Form| Form::cmp(Const::LtEq, a, b);
    let lt = |a: Form, b: Form| Form::cmp(Const::Lt, a, b);
    let v = Form::var;
    vec![
        Form::forall("ax", Type::Int, le(v("ax"), v("ax"))),
        Form::forall_many(
            vec![
                ("ax".to_string(), Type::Int),
                ("ay".to_string(), Type::Int),
                ("az".to_string(), Type::Int),
            ],
            Form::implies(
                Form::and(vec![le(v("ax"), v("ay")), le(v("ay"), v("az"))]),
                le(v("ax"), v("az")),
            ),
        ),
        Form::forall_many(
            vec![("ax".to_string(), Type::Int), ("ay".to_string(), Type::Int)],
            Form::iff(
                lt(v("ax"), v("ay")),
                Form::and(vec![le(v("ax"), v("ay")), Form::neq(v("ax"), v("ay"))]),
            ),
        ),
        Form::forall_many(
            vec![("ax".to_string(), Type::Int), ("ay".to_string(), Type::Int)],
            Form::implies(
                Form::and(vec![le(v("ax"), v("ay")), le(v("ay"), v("ax"))]),
                Form::eq(v("ax"), v("ay")),
            ),
        ),
    ]
}

struct ClausifyCx {
    next_var: u32,
    next_skolem: u32,
    clauses: Vec<Clause>,
    max_clauses: usize,
    rtrancl_bodies: Vec<Form>,
    symbols: BTreeSet<(String, usize)>,
    preds: BTreeSet<(String, usize)>,
    used_arith: bool,
    /// Set when the atom being converted mentions a term without a first-order
    /// translation.
    untranslated_term: bool,
}

impl ClausifyCx {
    /// Clausifies an NNF formula and appends the clauses.
    fn clausify(&mut self, form: &Form) -> Result<(), TranslationOverflow> {
        let mut bound: BTreeMap<String, Term> = BTreeMap::new();
        let matrix = self.skolemize(form, &mut bound, &mut Vec::new());
        let cnf = self.to_cnf(&matrix)?;
        for clause in cnf {
            // Reading an atom without a translation as `true` satisfies its clause, so
            // dropping the clause only weakens the refutation set: Figure 14's polarity
            // approximation, at clause level.
            let untranslated = clause.literals.iter().any(|l| l.atom.pred == UNTRANSLATED);
            if untranslated || clause.is_tautology() {
                continue;
            }
            self.clauses.push(clause);
            if self.clauses.len() > self.max_clauses {
                return Err(TranslationOverflow);
            }
        }
        Ok(())
    }

    /// Removes quantifiers from an NNF formula: universals become fresh free FOL
    /// variables, existentials become Skolem functions of the enclosing universals.
    fn skolemize(
        &mut self,
        form: &Form,
        bound: &mut BTreeMap<String, Term>,
        universals: &mut Vec<Term>,
    ) -> CnfTree {
        match form {
            Form::Binder(Binder::Forall, vars, body) => {
                let saved: Vec<Option<Term>> =
                    vars.iter().map(|(v, _)| bound.get(v).cloned()).collect();
                for (v, _) in vars {
                    let t = Term::Var(self.next_var);
                    self.next_var += 1;
                    universals.push(t.clone());
                    bound.insert(v.clone(), t);
                }
                let out = self.skolemize(body, bound, universals);
                for _ in vars {
                    universals.pop();
                }
                for ((v, _), old) in vars.iter().zip(saved) {
                    match old {
                        Some(t) => bound.insert(v.clone(), t),
                        None => bound.remove(v),
                    };
                }
                out
            }
            Form::Binder(Binder::Exists, vars, body) => {
                let saved: Vec<Option<Term>> =
                    vars.iter().map(|(v, _)| bound.get(v).cloned()).collect();
                for (v, _) in vars {
                    let name = format!("sk${}", self.next_skolem);
                    self.next_skolem += 1;
                    let t = Term::App(name, universals.clone());
                    bound.insert(v.clone(), t);
                }
                let out = self.skolemize(body, bound, universals);
                for ((v, _), old) in vars.iter().zip(saved) {
                    match old {
                        Some(t) => bound.insert(v.clone(), t),
                        None => bound.remove(v),
                    };
                }
                out
            }
            Form::App(head, args) => {
                if let Form::Const(c) = head.as_ref() {
                    match c {
                        Const::And => {
                            return CnfTree::And(
                                args.iter()
                                    .map(|a| self.skolemize(a, bound, universals))
                                    .collect(),
                            )
                        }
                        Const::Or => {
                            return CnfTree::Or(
                                args.iter()
                                    .map(|a| self.skolemize(a, bound, universals))
                                    .collect(),
                            )
                        }
                        Const::Not => {
                            let lit = self.atom_to_literal(&args[0], false, bound);
                            return CnfTree::Lit(lit);
                        }
                        _ => {}
                    }
                }
                CnfTree::Lit(self.atom_to_literal(form, true, bound))
            }
            Form::Const(Const::BoolLit(true)) => CnfTree::And(Vec::new()),
            Form::Const(Const::BoolLit(false)) => CnfTree::Or(Vec::new()),
            _ => CnfTree::Lit(self.atom_to_literal(form, true, bound)),
        }
    }

    fn atom_to_literal(
        &mut self,
        atom: &Form,
        positive: bool,
        bound: &BTreeMap<String, Term>,
    ) -> Literal {
        self.untranslated_term = false;
        let mut a = self.convert_atom(atom, bound);
        if self.untranslated_term {
            // One symbol for every such term would merge unrelated terms, so the atom
            // goes the way of an untranslated one.
            a = Atom::new(UNTRANSLATED, Vec::new());
        }
        if positive {
            Literal::pos(a)
        } else {
            Literal::neg(a)
        }
    }

    fn convert_atom(&mut self, atom: &Form, bound: &BTreeMap<String, Term>) -> Atom {
        if let Form::App(head, args) = atom {
            if let Form::Const(c) = head.as_ref() {
                match (c, args.as_slice()) {
                    (Const::Eq, [l, r]) => {
                        return Atom::eq(self.convert_term(l, bound), self.convert_term(r, bound))
                    }
                    (Const::Lt, [l, r]) | (Const::Gt, [r, l]) => {
                        self.used_arith = true;
                        let a = Atom::new(
                            "int$lt",
                            vec![self.convert_term(l, bound), self.convert_term(r, bound)],
                        );
                        self.preds.insert(("int$lt".to_string(), 2));
                        return a;
                    }
                    (Const::LtEq, [l, r]) | (Const::GtEq, [r, l]) => {
                        self.used_arith = true;
                        let a = Atom::new(
                            "int$le",
                            vec![self.convert_term(l, bound), self.convert_term(r, bound)],
                        );
                        self.preds.insert(("int$le".to_string(), 2));
                        return a;
                    }
                    (Const::Elem, [e, s]) => return self.convert_membership(e, s, bound),
                    (Const::Rtrancl, parts) if parts.len() == 3 => {
                        let body = parts[0].clone();
                        let idx = match self.rtrancl_bodies.iter().position(|b| *b == body) {
                            Some(i) => i,
                            None => {
                                self.rtrancl_bodies.push(body);
                                self.rtrancl_bodies.len() - 1
                            }
                        };
                        // The axioms for this predicate are stated with an application
                        // of the variable `reach$idx`, which converts through the
                        // predicate-variable path below; use the same name here.
                        let name = format!("p$reach${idx}");
                        self.preds.insert((name.clone(), 2));
                        return Atom::new(
                            name,
                            vec![
                                self.convert_term(&parts[1], bound),
                                self.convert_term(&parts[2], bound),
                            ],
                        );
                    }
                    _ => {}
                }
            }
            // Boolean-valued application of a variable, e.g. `edge x y`.
            if let Form::Var(p) = head.as_ref() {
                let converted: Vec<Term> =
                    args.iter().map(|a| self.convert_term(a, bound)).collect();
                self.preds.insert((format!("p${p}"), converted.len()));
                return Atom::new(format!("p${p}"), converted);
            }
        }
        if let Form::Var(p) = atom {
            if let Some(t) = bound.get(p) {
                // A boolean bound variable: encode as `t = true$`.
                return Atom::eq(t.clone(), Term::constant("true$"));
            }
            self.preds.insert((format!("p${p}"), 0));
            return Atom::new(format!("p${p}"), Vec::new());
        }
        // No first-order reading: a placeholder whose clauses `clausify` drops.
        Atom::new(UNTRANSLATED, Vec::new())
    }

    fn convert_membership(
        &mut self,
        elem: &Form,
        set: &Form,
        bound: &BTreeMap<String, Term>,
    ) -> Atom {
        let mut components = match elem.as_app_of(&Const::Tuple) {
            Some(parts) => parts.iter().map(|p| self.convert_term(p, bound)).collect(),
            None => vec![self.convert_term(elem, bound)],
        };
        match set {
            Form::Var(s) => {
                let name = format!("in${s}");
                self.preds.insert((name.clone(), components.len()));
                Atom::new(name, components)
            }
            Form::App(head, args) => {
                if let Form::Var(f) = head.as_ref() {
                    let mut all: Vec<Term> =
                        args.iter().map(|a| self.convert_term(a, bound)).collect();
                    all.append(&mut components);
                    let name = format!("in${f}");
                    self.preds.insert((name.clone(), all.len()));
                    Atom::new(name, all)
                } else {
                    // Set-valued term we cannot decompose: use a binary membership
                    // predicate over an opaque set term.
                    let set_term = self.convert_term(set, bound);
                    components.push(set_term);
                    self.preds.insert(("in$".to_string(), components.len()));
                    Atom::new("in$", components)
                }
            }
            _ => {
                let set_term = self.convert_term(set, bound);
                components.push(set_term);
                self.preds.insert(("in$".to_string(), components.len()));
                Atom::new("in$", components)
            }
        }
    }

    fn convert_term(&mut self, term: &Form, bound: &BTreeMap<String, Term>) -> Term {
        match term {
            Form::Var(v) => match bound.get(v) {
                Some(t) => t.clone(),
                None => {
                    self.symbols.insert((v.clone(), 0));
                    Term::constant(v.clone())
                }
            },
            Form::Const(Const::Null) => Term::constant("null"),
            Form::Const(Const::IntLit(n)) => Term::constant(format!("int${n}")),
            Form::Const(Const::BoolLit(b)) => Term::constant(format!("bool${b}")),
            Form::Const(Const::EmptySet) => Term::constant("emptyset"),
            Form::Typed(inner, _) => self.convert_term(inner, bound),
            Form::App(head, args) => {
                let converted: Vec<Term> =
                    args.iter().map(|a| self.convert_term(a, bound)).collect();
                let name = match head.as_ref() {
                    Form::Var(f) => f.clone(),
                    Form::Const(Const::Plus) => {
                        self.used_arith = true;
                        "int$plus".to_string()
                    }
                    Form::Const(Const::Minus) => {
                        self.used_arith = true;
                        "int$minus".to_string()
                    }
                    Form::Const(Const::Times) => "int$times".to_string(),
                    Form::Const(Const::Div) => "int$div".to_string(),
                    Form::Const(Const::Mod) => "int$mod".to_string(),
                    Form::Const(Const::UMinus) => "int$uminus".to_string(),
                    Form::Const(Const::ArrayRead) => "array$read".to_string(),
                    Form::Const(Const::ArrayWrite) => "array$write".to_string(),
                    Form::Const(Const::FieldWrite) => "field$write".to_string(),
                    Form::Const(Const::Card) => "card".to_string(),
                    Form::Const(Const::Union) => "set$union".to_string(),
                    Form::Const(Const::Inter) => "set$inter".to_string(),
                    Form::Const(Const::Diff) => "set$diff".to_string(),
                    Form::Const(Const::FiniteSet) => "set$mk".to_string(),
                    Form::Const(Const::Tuple) => "tuple".to_string(),
                    _ => {
                        self.untranslated_term = true;
                        return Term::constant(UNTRANSLATED);
                    }
                };
                self.symbols.insert((name.clone(), converted.len()));
                Term::App(name, converted)
            }
            _ => {
                self.untranslated_term = true;
                Term::constant(UNTRANSLATED)
            }
        }
    }

    fn to_cnf(&self, tree: &CnfTree) -> Result<Vec<Clause>, TranslationOverflow> {
        match tree {
            CnfTree::Lit(l) => Ok(vec![Clause::new(vec![l.clone()])]),
            CnfTree::And(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend(self.to_cnf(p)?);
                    if out.len() > self.max_clauses {
                        return Err(TranslationOverflow);
                    }
                }
                Ok(out)
            }
            CnfTree::Or(parts) => {
                let mut acc: Vec<Clause> = vec![Clause::empty()];
                for p in parts {
                    let sub = self.to_cnf(p)?;
                    let mut next = Vec::new();
                    for a in &acc {
                        for s in &sub {
                            let mut lits = a.literals.clone();
                            lits.extend(s.literals.clone());
                            next.push(Clause::new(lits));
                            if next.len() > self.max_clauses {
                                return Err(TranslationOverflow);
                            }
                        }
                    }
                    acc = next;
                }
                Ok(acc)
            }
        }
    }
}

enum CnfTree {
    Lit(Literal),
    And(Vec<CnfTree>),
    Or(Vec<CnfTree>),
}

/// Equality axioms (symmetry, transitivity, and congruence for every symbol). A
/// reflexivity unit clause is added by the prover itself since it is syntactically a
/// tautology.
fn equality_axioms(
    symbols: &BTreeSet<(String, usize)>,
    preds: &BTreeSet<(String, usize)>,
) -> Vec<Clause> {
    let mut out = Vec::new();
    let x = Term::Var(0);
    let y = Term::Var(1);
    let z = Term::Var(2);
    // symmetry: x != y | y = x
    out.push(Clause::new(vec![
        Literal::neg(Atom::eq(x.clone(), y.clone())),
        Literal::pos(Atom::eq(y.clone(), x.clone())),
    ]));
    // transitivity: x != y | y != z | x = z
    out.push(Clause::new(vec![
        Literal::neg(Atom::eq(x.clone(), y.clone())),
        Literal::neg(Atom::eq(y.clone(), z.clone())),
        Literal::pos(Atom::eq(x.clone(), z.clone())),
    ]));
    // congruence for functions: xi != yi | f(xs) = f(ys)
    for (f, arity) in symbols {
        if *arity == 0 {
            continue;
        }
        let xs: Vec<Term> = (0..*arity as u32).map(Term::Var).collect();
        let ys: Vec<Term> = (0..*arity as u32)
            .map(|i| Term::Var(i + *arity as u32))
            .collect();
        let mut lits: Vec<Literal> = xs
            .iter()
            .zip(ys.iter())
            .map(|(a, b)| Literal::neg(Atom::eq(a.clone(), b.clone())))
            .collect();
        lits.push(Literal::pos(Atom::eq(
            Term::App(f.clone(), xs),
            Term::App(f.clone(), ys),
        )));
        out.push(Clause::new(lits));
    }
    // congruence for predicates: xi != yi | ~p(xs) | p(ys)
    for (p, arity) in preds {
        if *arity == 0 {
            continue;
        }
        let xs: Vec<Term> = (0..*arity as u32).map(Term::Var).collect();
        let ys: Vec<Term> = (0..*arity as u32)
            .map(|i| Term::Var(i + *arity as u32))
            .collect();
        let mut lits: Vec<Literal> = xs
            .iter()
            .zip(ys.iter())
            .map(|(a, b)| Literal::neg(Atom::eq(a.clone(), b.clone())))
            .collect();
        lits.push(Literal::neg(Atom::new(p.clone(), xs)));
        lits.push(Literal::pos(Atom::new(p.clone(), ys)));
        out.push(Clause::new(lits));
    }
    out
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

    #[test]
    fn translates_simple_ground_sequent() {
        let s = seq(&["x = y", "y = z"], "x = z");
        let clauses = sequent_to_clauses(&s, &TranslateOptions::new()).expect("translate");
        // Three unit clauses (two assumptions and the negated goal) plus equality axioms.
        assert!(clauses
            .iter()
            .any(|c| c.literals.len() == 1 && !c.literals[0].positive));
        assert!(clauses.len() >= 4);
    }

    #[test]
    fn membership_becomes_predicates() {
        let s = seq(&["x : content"], "x : content Un {y}");
        let clauses = sequent_to_clauses(&s, &TranslateOptions::new()).expect("translate");
        let text = clauses
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("in$content"));
    }

    #[test]
    fn quantified_assumptions_become_clauses_with_variables() {
        let s = seq(
            &["ALL x. x : Node --> x..next ~= x"],
            "n : Node --> n..next ~= n",
        );
        let clauses = sequent_to_clauses(&s, &TranslateOptions::new()).expect("translate");
        assert!(clauses.iter().any(|c| !c.vars().is_empty()));
    }

    #[test]
    fn existential_goals_are_skolemized_in_assumptions() {
        // The negated goal ~(EX v. p v) becomes ALL v. ~p v, i.e. a clause with a variable;
        // an existential assumption becomes a Skolem constant.
        let s = seq(&["EX v. (k, v) : content"], "EX v. (k, v) : content");
        let clauses = sequent_to_clauses(&s, &TranslateOptions::new()).expect("translate");
        let text = clauses
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("sk$"));
    }

    #[test]
    fn rtrancl_generates_reachability_axioms() {
        let s = seq(
            &["rtrancl_pt (% u v. u..next = v) root x"],
            "rtrancl_pt (% u v. u..next = v) root x",
        );
        let clauses = sequent_to_clauses(&s, &TranslateOptions::new()).expect("translate");
        let text = clauses
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("reach$0"));
        // The reach reflexivity axiom must be present as a unit clause (the predicate is
        // emitted through the predicate-variable path, hence the `p$` prefix).
        assert!(clauses
            .iter()
            .any(|c| c.literals.len() == 1 && c.literals[0].atom.pred == "p$reach$0"));
    }

    #[test]
    fn cardinality_atoms_are_approximated_away() {
        let s = seq(&["card content = size"], "x = x");
        let clauses = sequent_to_clauses(&s, &TranslateOptions::new()).expect("translate");
        let text = clauses
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!text.contains("card"));
    }

    #[test]
    fn function_equalities_expand_pointwise() {
        let mut opts = TranslateOptions::new();
        opts.fun_vars.insert("next".to_string());
        let s = seq(
            &["next = (old_next)(x := y)"],
            "next z = old_next z | z = x",
        );
        let clauses = sequent_to_clauses(&s, &opts).expect("translate");
        let text = clauses
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("next(X"));
    }

    #[test]
    fn overflow_is_reported() {
        // A goal with a large disjunction of conjunctions blows past a tiny budget.
        let mut big = String::from("a0 = b0 & c0 = d0");
        for i in 1..10 {
            big.push_str(&format!(" | a{i} = b{i} & c{i} = d{i}"));
        }
        let s = seq(&[], &big);
        let mut opts = TranslateOptions::new();
        opts.max_clauses = 8;
        assert_eq!(sequent_to_clauses(&s, &opts), Err(TranslationOverflow));
    }
}
