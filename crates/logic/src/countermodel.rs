//! Bounded, exact countermodel search: the refuter.
//!
//! A sequent `A1, ..., An ==> G` is invalid when some model makes every assumption true
//! and the goal false. This module looks for such a model among small finite ones, the
//! idea behind Alloy's Kodkod and Isabelle's Nitpick.
//!
//! * A model has `null` and 1–4 objects, the integers of a window around the sequent's
//!   literals, and the booleans. A set or tuple-set variable is a subset of its element
//!   type's domain; a field or other function is total, on `null` too.
//! * Evaluation is three-valued ([`Model::eval`]). A quantifier over `int`, a value
//!   outside the window, or a constant the evaluator does not interpret (`tree`,
//!   `objlocs`, a division by a negative number) makes a formula unknown, never true
//!   or false, so a reported countermodel is genuine. `card` is exact and `rtrancl_pt`
//!   is computed outright.
//! * Types come from typechecking the sequent ([`infer_jointly`]). A type the sequent
//!   leaves open is an abstract sort of two values, over which nothing quantifies: any
//!   type has two distinct values, so such a model stands for one of every type.
//!
//! The search ([`refute`]) is deterministic backtracking over point-wise choices: one
//! variable's value, one membership bit, or one function entry (a *cell*). A cell is
//! decided when the negated goal or an assumption first reads it, smallest value first:
//! the empty set, `null`, then `0`, `1`, `-1`, …. The negated goal and then each
//! assumption are evaluated as soon as their reads are decided. One that evaluates
//! false (or unknown) ends the branch, and the search jumps back to the latest choice
//! that evaluation read (conflict-directed backjumping). Universes of 1, 2, 3 and 4
//! objects are tried in turn under one cap on evaluation steps, with no wall clock, so
//! a result and its work repeat exactly. A model comes back only when every assumption
//! evaluates exactly true and the goal exactly false, and both are evaluated again on
//! the completed model before it is returned.

use crate::form::{Binder, Const, Form};
use crate::sequent::Sequent;
use crate::subst::free_vars;
use crate::typecheck::{infer_jointly, TypeEnv, TypeError};
use crate::types::Type;
use std::collections::BTreeMap;
use std::fmt::Write;

/// The objects of the largest universe the search tries, besides `null`.
pub const MAX_OBJECTS: usize = 4;

/// A cell no choice has decided yet.
const UNDECIDED: u32 = u32::MAX;
/// The most cells one variable may have; a variable with more is unknown.
const MAX_CELLS: u64 = 4096;
/// The most elements a domain may have; a larger one is unknown.
const MAX_DOMAIN: u64 = 4096;
/// A quantifier over sets enumerates the subsets of element domains up to this size.
const MAX_POWERSET: u32 = 6;

/// Domain ids every signature shares.
const BOOL: u32 = 0;
const OBJ: u32 = 1;
const INT: u32 = 2;

/// The kind of a finite domain. `Open` is the abstract sort of a type variable.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DomKind {
    Bool,
    Obj,
    Int,
    Open(u32),
    Prod(Vec<u32>),
}

/// A value during evaluation: a boolean, an integer, an element of an object, open or
/// tuple domain (its index there), or a set over an element domain (a bitmask; only a
/// quantified set variable holds one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    B(bool),
    I(i64),
    E(u32, u32),
    S(u32, u64),
}

/// Why an evaluation stopped without a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// The value is not determined by the model (or not interpreted at all).
    Unknown,
    /// The evaluation read this undecided cell.
    Undecided(u32),
    /// The work cap is spent.
    Cap,
}

type R<T> = Result<T, Stop>;

/// What a free variable's cells hold once all its arguments are given.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Shape {
    /// One value of this domain per argument tuple.
    Scalar(u32),
    /// One membership bit per argument tuple and element of this domain.
    Set(u32),
    /// A variable whose type the evaluator does not interpret.
    Unsupported,
}

/// A free variable: its name, type, argument domains and shape.
#[derive(Debug, Clone)]
struct VarSig {
    name: String,
    ty: Type,
    args: Vec<u32>,
    shape: Shape,
}

/// The universe-independent part of a model: domains and variables.
#[derive(Debug, Clone)]
struct Signature {
    domains: Vec<DomKind>,
    vars: Vec<VarSig>,
    slots: BTreeMap<String, usize>,
    window: (i64, i64),
}

/// How a quantifier ranges: over a domain's elements or a domain's subsets.
#[derive(Debug, Clone)]
enum Range {
    Elem(u32),
    Subsets(u32),
}

/// A compiled boolean or scalar term.
#[derive(Debug, Clone)]
enum Expr {
    Lit(Val),
    Bound(usize),
    Apply(Box<Fun>, Vec<Expr>),
    Tuple(u32, Vec<Expr>),
    Not(Box<Expr>),
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Impl(Box<Expr>, Box<Expr>),
    Iff(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    Eq(Box<Expr>, Box<Expr>),
    SetEq(u32, Box<SetExpr>, Box<SetExpr>),
    Subset(bool, u32, Box<SetExpr>, Box<SetExpr>),
    FunEq(Vec<u32>, Box<Fun>, Box<Fun>),
    Member(Box<Expr>, Box<SetExpr>),
    Arith(Const, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    Cmp(Const, Box<Expr>, Box<Expr>),
    Card(u32, Box<SetExpr>),
    Quant(bool, Vec<Range>, Box<Expr>),
    Rtrancl(u32, Box<Fun>, Box<Expr>, Box<Expr>),
    Unknown,
}

/// A compiled set term.
#[derive(Debug, Clone)]
enum SetExpr {
    Apply(Box<Fun>, Vec<Expr>),
    Bound(usize),
    Empty,
    Univ,
    Finite(Vec<Expr>),
    Union(Vec<SetExpr>),
    Inter(Vec<SetExpr>),
    Diff(Box<SetExpr>, Box<SetExpr>),
    /// `{x1 .. xk. body}`: the bound variables' domains and the element domain.
    Compr(Vec<u32>, u32, Box<Expr>),
    Unknown,
}

/// A compiled function term.
#[derive(Debug, Clone)]
enum Fun {
    Var(usize),
    Update(Box<Fun>, Expr, Box<Body>),
    Lambda(usize, Box<Body>),
    Partial(Box<Fun>, Vec<Expr>),
    Unknown,
}

/// What a function returns: a scalar or a set.
#[derive(Debug, Clone)]
enum Body {
    Scalar(Expr),
    Set(SetExpr),
}

// ------------------------------------------------------------------ compilation

impl Signature {
    fn new(window: (i64, i64)) -> Signature {
        Signature {
            domains: vec![DomKind::Bool, DomKind::Obj, DomKind::Int],
            vars: Vec::new(),
            slots: BTreeMap::new(),
            window,
        }
    }

    fn intern(&mut self, kind: DomKind) -> u32 {
        match self.domains.iter().position(|k| *k == kind) {
            Some(i) => i as u32,
            None => {
                self.domains.push(kind);
                self.domains.len() as u32 - 1
            }
        }
    }

    /// The domain of an element type; `None` for sets and functions.
    fn dom(&mut self, t: &Type) -> Option<u32> {
        match t {
            Type::Bool => Some(BOOL),
            Type::Obj => Some(OBJ),
            Type::Int => Some(INT),
            Type::Var(v) => Some(self.intern(DomKind::Open(*v))),
            Type::Prod(ts) => {
                let parts = ts
                    .iter()
                    .map(|t| self.dom(t))
                    .collect::<Option<Vec<u32>>>()?;
                Some(self.intern(DomKind::Prod(parts)))
            }
            Type::Set(_) | Type::Fun(_, _) => None,
        }
    }

    /// Whether the domain is the whole of its type in every model (no `int`, no open
    /// sort), so enumerating it enumerates the type.
    fn closed(&self, d: u32) -> bool {
        match &self.domains[d as usize] {
            DomKind::Bool | DomKind::Obj => true,
            DomKind::Int | DomKind::Open(_) => false,
            DomKind::Prod(parts) => parts.iter().all(|p| self.closed(*p)),
        }
    }

    fn declare(&mut self, name: &str, ty: &Type) {
        let (args, result) = ty.uncurry();
        let args: Option<Vec<u32>> = args.iter().map(|a| self.dom(a)).collect();
        let shape = match (&args, result) {
            (None, _) => Shape::Unsupported,
            (Some(_), Type::Set(elem)) => self.dom(elem).map_or(Shape::Unsupported, Shape::Set),
            (Some(_), result) => self.dom(result).map_or(Shape::Unsupported, Shape::Scalar),
        };
        self.slots.insert(name.to_string(), self.vars.len());
        self.vars.push(VarSig {
            name: name.to_string(),
            ty: ty.clone(),
            args: args.unwrap_or_default(),
            shape,
        });
    }
}

/// Compiles elaborated formulas against a signature.
struct Compiler<'s> {
    sig: &'s mut Signature,
    scope: Vec<(String, Type)>,
}

impl Compiler<'_> {
    fn var_type(&self, name: &str) -> Option<Type> {
        if let Some((_, t)) = self.scope.iter().rev().find(|(v, _)| v == name) {
            return Some(t.clone());
        }
        self.sig
            .slots
            .get(name)
            .map(|&s| self.sig.vars[s].ty.clone())
    }

    fn bound(&self, name: &str) -> Option<usize> {
        self.scope.iter().rposition(|(v, _)| v == name)
    }

    /// The type of a term, from its variables' types; `None` for `{}` and `UNIV`, which
    /// take theirs from the context.
    fn synth(&mut self, f: &Form) -> Option<Type> {
        match f {
            Form::Var(v) => self.var_type(v),
            Form::Typed(_, t) => Some(t.clone()),
            Form::Const(c) => match c {
                Const::BoolLit(_) => Some(Type::Bool),
                Const::IntLit(_) => Some(Type::Int),
                Const::Null => Some(Type::Obj),
                Const::ObjLocs => Some(Type::obj_set()),
                _ => None,
            },
            Form::Binder(b, vars, body) => match b {
                Binder::Forall | Binder::Exists => Some(Type::Bool),
                Binder::Lambda => {
                    self.scope.extend(vars.iter().cloned());
                    let body = self.synth(body);
                    self.scope.truncate(self.scope.len() - vars.len());
                    let args: Vec<Type> = vars.iter().map(|(_, t)| t.clone()).collect();
                    Some(Type::fun_n(&args, body?))
                }
                Binder::Comprehension => Some(Type::set(Type::prod(
                    vars.iter().map(|(_, t)| t.clone()).collect(),
                ))),
            },
            Form::App(head, args) => {
                let Form::Const(c) = head.as_ref() else {
                    let head = self.synth(head)?;
                    return peel(head, args.len());
                };
                use Const::*;
                match c {
                    Not | And | Or | Impl | Iff | Eq | Lt | LtEq | Gt | GtEq | Elem | Subset
                    | SubsetEq | Rtrancl | Tree | Comment(_) => Some(Type::Bool),
                    Plus | Times | Div | Mod | UMinus | Card => Some(Type::Int),
                    Minus | Union | Inter | Diff => args.iter().find_map(|a| self.synth(a)),
                    FiniteSet => Some(Type::set(self.synth(args.first()?)?)),
                    Tuple => Some(Type::prod(
                        args.iter().map(|a| self.synth(a)).collect::<Option<_>>()?,
                    )),
                    Ite => args.iter().skip(1).find_map(|a| self.synth(a)),
                    FieldWrite => {
                        let f = self.synth(args.first()?)?;
                        peel(f, args.len().saturating_sub(3))
                    }
                    FieldRead => {
                        let f = self.synth(args.first()?)?;
                        peel(f, args.len().saturating_sub(1))
                    }
                    ArrayRead => peel(Type::Obj, args.len().saturating_sub(3)),
                    ArrayWrite => Some(Type::obj_array_state()),
                    Old => self.synth(args.first()?),
                    _ => None,
                }
            }
        }
    }

    fn dom_of(&mut self, f: &Form) -> Option<u32> {
        let t = self.synth(f)?;
        self.sig.dom(&t)
    }

    fn elem_dom(&mut self, f: &Form) -> Option<u32> {
        match self.synth(f)? {
            Type::Set(e) => self.sig.dom(&e),
            _ => None,
        }
    }

    /// A boolean or scalar term.
    fn expr(&mut self, f: &Form) -> Expr {
        match f {
            Form::Typed(g, _) => self.expr(g),
            Form::Var(v) => match self.bound(v) {
                Some(i) => Expr::Bound(i),
                None => match self.sig.slots.get(v) {
                    Some(&slot) => Expr::Apply(Box::new(Fun::Var(slot)), Vec::new()),
                    None => Expr::Unknown,
                },
            },
            Form::Const(Const::BoolLit(b)) => Expr::Lit(Val::B(*b)),
            Form::Const(Const::IntLit(i)) => Expr::Lit(Val::I(*i)),
            Form::Const(Const::Null) => Expr::Lit(Val::E(OBJ, 0)),
            Form::Const(_) => Expr::Unknown,
            Form::Binder(b @ (Binder::Forall | Binder::Exists), vars, body) => {
                let ranges: Option<Vec<Range>> = vars.iter().map(|(_, t)| self.range(t)).collect();
                let Some(ranges) = ranges else {
                    return Expr::Unknown;
                };
                self.scope.extend(vars.iter().cloned());
                let body = self.expr(body);
                self.scope.truncate(self.scope.len() - vars.len());
                Expr::Quant(*b == Binder::Forall, ranges, Box::new(body))
            }
            Form::Binder(..) => Expr::Unknown,
            Form::App(head, args) => self.app(f, head, args),
        }
    }

    fn range(&mut self, t: &Type) -> Option<Range> {
        match t {
            Type::Set(e) => {
                let d = self.sig.dom(e)?;
                self.sig.closed(d).then_some(Range::Subsets(d))
            }
            t => {
                let d = self.sig.dom(t)?;
                self.sig.closed(d).then_some(Range::Elem(d))
            }
        }
    }

    fn app(&mut self, whole: &Form, head: &Form, args: &[Form]) -> Expr {
        let Form::Const(c) = head else {
            let (head, args) = flatten(head, args);
            let head_type = self.synth(head);
            if args.len() < args_in(&head_type) {
                return Expr::Unknown;
            }
            let fun = self.fun(head);
            let args = args.iter().map(|a| self.expr(a)).collect();
            return Expr::Apply(Box::new(fun), args);
        };
        let e = |s: &mut Self, i: usize| Box::new(s.expr(&args[i]));
        use Const::*;
        match (c, args.len()) {
            (Comment(_), 1) => self.expr(&args[0]),
            (Not, 1) => Expr::Not(e(self, 0)),
            (And, _) => Expr::And(args.iter().map(|a| self.expr(a)).collect()),
            (Or, _) => Expr::Or(args.iter().map(|a| self.expr(a)).collect()),
            (Impl, 2) => Expr::Impl(e(self, 0), e(self, 1)),
            (Iff, 2) => Expr::Iff(e(self, 0), e(self, 1)),
            (Eq, 2) => self.equality(&args[0], &args[1]),
            (Lt | LtEq | Gt | GtEq, 2) => Expr::Cmp(c.clone(), e(self, 0), e(self, 1)),
            (Plus | Minus | Times | Div | Mod, 2) => {
                if self.synth(whole) == Some(Type::Int) {
                    Expr::Arith(c.clone(), e(self, 0), e(self, 1))
                } else {
                    Expr::Unknown
                }
            }
            (UMinus, 1) => Expr::Neg(e(self, 0)),
            (Elem, 2) => Expr::Member(e(self, 0), Box::new(self.set(&args[1]))),
            (Subset | SubsetEq, 2) => match self.elem_dom(&args[0]).or(self.elem_dom(&args[1])) {
                Some(d) => self.whole_set(d, &args[0], &args[1], |d, l, r| {
                    Expr::Subset(*c == Subset, d, l, r)
                }),
                None => Expr::Unknown,
            },
            (Card, 1) => match self.elem_dom(&args[0]) {
                Some(d) => {
                    let s = self.set(&args[0]);
                    if self.sig.closed(d) || bounded(&s) {
                        Expr::Card(d, Box::new(s))
                    } else {
                        Expr::Unknown
                    }
                }
                None => Expr::Unknown,
            },
            (Tuple, _) => match self.dom_of(whole) {
                Some(d) => Expr::Tuple(d, args.iter().map(|a| self.expr(a)).collect()),
                None => Expr::Unknown,
            },
            (Ite, 3) => Expr::Ite(e(self, 0), e(self, 1), e(self, 2)),
            (FieldRead, n) if n >= 2 => self.apply(&args[0], &args[1..]),
            (FieldWrite, n) if n > 3 => {
                let updated = Form::App(head.clone().into(), args[..3].to_vec());
                self.apply(&updated, &args[3..])
            }
            (ArrayRead, 3) => self.apply(&args[0], &args[1..]),
            (Rtrancl, 3) => match self.dom_of(&args[1]) {
                Some(d) if self.sig.closed(d) => {
                    let p = self.fun(&args[0]);
                    Expr::Rtrancl(d, Box::new(p), e(self, 1), e(self, 2))
                }
                _ => Expr::Unknown,
            },
            _ => Expr::Unknown,
        }
    }

    fn apply(&mut self, fun: &Form, args: &[Form]) -> Expr {
        let fun = self.fun(fun);
        let args = args.iter().map(|a| self.expr(a)).collect();
        Expr::Apply(Box::new(fun), args)
    }

    fn equality(&mut self, l: &Form, r: &Form) -> Expr {
        match self.synth(l).or_else(|| self.synth(r)) {
            Some(Type::Bool) => Expr::Iff(Box::new(self.expr(l)), Box::new(self.expr(r))),
            Some(Type::Set(e)) => match self.sig.dom(&e) {
                Some(d) => self.whole_set(d, l, r, Expr::SetEq),
                None => Expr::Unknown,
            },
            Some(t @ Type::Fun(_, _)) => {
                let (args, _) = t.uncurry();
                let doms: Option<Vec<u32>> = args.iter().map(|a| self.sig.dom(a)).collect();
                match doms {
                    Some(doms) if doms.iter().all(|d| self.sig.closed(*d)) => {
                        Expr::FunEq(doms, Box::new(self.fun(l)), Box::new(self.fun(r)))
                    }
                    _ => Expr::Unknown,
                }
            }
            Some(_) => Expr::Eq(Box::new(self.expr(l)), Box::new(self.expr(r))),
            None => Expr::Unknown,
        }
    }

    /// An operation on two whole sets over domain `d`: exact when `d` is closed, or when
    /// both sets lie inside the window by construction.
    fn whole_set(
        &mut self,
        d: u32,
        l: &Form,
        r: &Form,
        make: impl FnOnce(u32, Box<SetExpr>, Box<SetExpr>) -> Expr,
    ) -> Expr {
        let (l, r) = (self.set(l), self.set(r));
        if self.sig.closed(d) || (bounded(&l) && bounded(&r)) {
            make(d, Box::new(l), Box::new(r))
        } else {
            Expr::Unknown
        }
    }

    fn set(&mut self, f: &Form) -> SetExpr {
        match f {
            Form::Typed(g, _) => self.set(g),
            Form::Var(v) => match self.bound(v) {
                Some(i) => SetExpr::Bound(i),
                None => match self.sig.slots.get(v) {
                    Some(&slot) => SetExpr::Apply(Box::new(Fun::Var(slot)), Vec::new()),
                    None => SetExpr::Unknown,
                },
            },
            Form::Const(Const::EmptySet) => SetExpr::Empty,
            Form::Const(Const::UnivSet) => match self.elem_dom(f) {
                Some(d) if self.sig.closed(d) => SetExpr::Univ,
                _ => SetExpr::Unknown,
            },
            Form::Const(_) => SetExpr::Unknown,
            Form::Binder(Binder::Comprehension, vars, body) => {
                let doms: Option<Vec<u32>> = vars.iter().map(|(_, t)| self.sig.dom(t)).collect();
                let elem = self.elem_dom(f);
                let (Some(doms), Some(elem)) = (doms, elem) else {
                    return SetExpr::Unknown;
                };
                self.scope.extend(vars.iter().cloned());
                let body = self.expr(body);
                self.scope.truncate(self.scope.len() - vars.len());
                SetExpr::Compr(doms, elem, Box::new(body))
            }
            Form::Binder(..) => SetExpr::Unknown,
            Form::App(head, args) => {
                let Form::Const(c) = head.as_ref() else {
                    let (head, args) = flatten(head, args);
                    let fun = self.fun(head);
                    let args = args.iter().map(|a| self.expr(a)).collect();
                    return SetExpr::Apply(Box::new(fun), args);
                };
                use Const::*;
                match (c, args.len()) {
                    (Union, _) => SetExpr::Union(args.iter().map(|a| self.set(a)).collect()),
                    (Inter, _) => SetExpr::Inter(args.iter().map(|a| self.set(a)).collect()),
                    (Diff | Minus, 2) => {
                        SetExpr::Diff(Box::new(self.set(&args[0])), Box::new(self.set(&args[1])))
                    }
                    (FiniteSet, _) => SetExpr::Finite(args.iter().map(|a| self.expr(a)).collect()),
                    (FieldRead, n) if n >= 2 => {
                        let fun = self.fun(&args[0]);
                        let rest = args[1..].iter().map(|a| self.expr(a)).collect();
                        SetExpr::Apply(Box::new(fun), rest)
                    }
                    (FieldWrite, n) if n > 3 => {
                        let updated = Form::App(head.clone(), args[..3].to_vec());
                        let fun = self.fun(&updated);
                        let rest = args[3..].iter().map(|a| self.expr(a)).collect();
                        SetExpr::Apply(Box::new(fun), rest)
                    }
                    _ => SetExpr::Unknown,
                }
            }
        }
    }

    fn fun(&mut self, f: &Form) -> Fun {
        match f {
            Form::Typed(g, _) => self.fun(g),
            Form::Var(v) if self.bound(v).is_none() => match self.sig.slots.get(v) {
                Some(&slot) => Fun::Var(slot),
                None => Fun::Unknown,
            },
            Form::Binder(Binder::Lambda, vars, body) => {
                self.scope.extend(vars.iter().cloned());
                let body = self.body(body);
                self.scope.truncate(self.scope.len() - vars.len());
                Fun::Lambda(vars.len(), Box::new(body))
            }
            Form::App(head, args) => match (head.as_ref(), args.len()) {
                (Form::Const(Const::FieldWrite), 3) => {
                    let base = self.fun(&args[0]);
                    let at = self.expr(&args[1]);
                    let value = self.body(&args[2]);
                    Fun::Update(Box::new(base), at, Box::new(value))
                }
                (Form::Const(_), _) => Fun::Unknown,
                _ => {
                    let (head, args) = flatten(head, args);
                    let fun = self.fun(head);
                    let args = args.iter().map(|a| self.expr(a)).collect();
                    Fun::Partial(Box::new(fun), args)
                }
            },
            _ => Fun::Unknown,
        }
    }

    fn body(&mut self, f: &Form) -> Body {
        match self.synth(f) {
            Some(Type::Set(_)) => Body::Set(self.set(f)),
            _ => Body::Scalar(self.expr(f)),
        }
    }
}

/// The result type of a function type applied to `n` arguments.
fn peel(mut t: Type, n: usize) -> Option<Type> {
    for _ in 0..n {
        match t {
            Type::Fun(_, r) => t = *r,
            _ => return None,
        }
    }
    Some(t)
}

/// The number of arguments a function type takes before its result.
fn args_in(t: &Option<Type>) -> usize {
    t.as_ref().map_or(0, |t| t.uncurry().0.len())
}

/// `(f a) b` as `f a b`.
fn flatten<'f>(head: &'f Form, args: &'f [Form]) -> (&'f Form, Vec<&'f Form>) {
    let mut all: Vec<&Form> = args.iter().collect();
    let mut head = head;
    while let Form::App(inner, first) = head {
        if matches!(inner.as_ref(), Form::Const(_)) {
            break;
        }
        all.splice(0..0, first.iter());
        head = inner;
    }
    (head, all)
}

/// Whether a set lies inside its domain's window in every model: built from variables,
/// finite sets and `{}` (whose elements are checked when it is enumerated).
fn bounded(s: &SetExpr) -> bool {
    match s {
        SetExpr::Apply(f, _) => matches!(f.as_ref(), Fun::Var(_)),
        SetExpr::Bound(_) | SetExpr::Empty | SetExpr::Finite(_) => true,
        SetExpr::Union(parts) => parts.iter().all(bounded),
        SetExpr::Inter(parts) => parts.iter().any(bounded),
        SetExpr::Diff(l, _) => bounded(l),
        SetExpr::Univ | SetExpr::Compr(..) | SetExpr::Unknown => false,
    }
}

// ------------------------------------------------------------------- universes

/// The sizes and cell layout of one universe.
#[derive(Debug, Clone)]
struct Layout {
    objects: u32,
    sizes: Vec<u32>,
    /// Per domain, its element indices in the order the search tries them.
    orders: Vec<Vec<u32>>,
    /// Per variable, its first cell, or `None` when it has too many.
    bases: Vec<Option<usize>>,
    /// Per cell, the domain of its value (`BOOL` for a membership bit).
    cell_dom: Vec<u32>,
}

impl Layout {
    fn new(sig: &Signature, objects: u32) -> Layout {
        let (lo, hi) = sig.window;
        let mut sizes: Vec<u32> = Vec::new();
        for kind in &sig.domains {
            let size: u64 = match kind {
                DomKind::Bool | DomKind::Open(_) => 2,
                DomKind::Obj => objects as u64 + 1,
                DomKind::Int => (hi - lo + 1) as u64,
                DomKind::Prod(parts) => parts
                    .iter()
                    .map(|p| sizes[*p as usize] as u64)
                    .try_fold(1u64, |acc, s| {
                        acc.checked_mul(s).filter(|n| *n <= MAX_DOMAIN)
                    })
                    .unwrap_or(0),
            };
            sizes.push(size.min(MAX_DOMAIN) as u32);
        }
        let orders = sig
            .domains
            .iter()
            .zip(&sizes)
            .map(|(kind, size)| match kind {
                DomKind::Int => {
                    let mut values: Vec<i64> = (lo..=hi).collect();
                    values.sort_by_key(|v| (v.unsigned_abs(), *v < 0));
                    values.iter().map(|v| (v - lo) as u32).collect()
                }
                _ => (0..*size).collect(),
            })
            .collect();
        let mut bases = Vec::new();
        let mut cell_dom = Vec::new();
        for var in &sig.vars {
            let (count, value) = match var.shape {
                Shape::Scalar(d) => (Some(1u64), d),
                Shape::Set(d) => (Some(sizes[d as usize] as u64), BOOL),
                Shape::Unsupported => (None, BOOL),
            };
            let count = var.args.iter().fold(count, |acc, a| {
                acc.and_then(|n| n.checked_mul(sizes[*a as usize] as u64))
            });
            match count.filter(|n| *n > 0 && *n <= MAX_CELLS) {
                Some(n) => {
                    bases.push(Some(cell_dom.len()));
                    cell_dom.extend(std::iter::repeat_n(value, n as usize));
                }
                None => bases.push(None),
            }
        }
        Layout {
            objects,
            sizes,
            orders,
            bases,
            cell_dom,
        }
    }
}

// ------------------------------------------------------------------- evaluation

/// One universe's cells and the evaluator over them.
struct Eval<'a> {
    sig: &'a Signature,
    lay: &'a Layout,
    cells: Vec<u32>,
    env: Vec<Val>,
    steps: u64,
    cap: u64,
    /// The decided cells the current evaluation read, and a per-cell epoch stamp that
    /// keeps each in the list once.
    reads: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl<'a> Eval<'a> {
    fn new(sig: &'a Signature, lay: &'a Layout, cap: u64) -> Eval<'a> {
        let n = lay.cell_dom.len();
        Eval {
            sig,
            lay,
            cells: vec![UNDECIDED; n],
            env: Vec::new(),
            steps: 0,
            cap,
            reads: Vec::new(),
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    fn tick(&mut self) -> R<()> {
        self.steps += 1;
        if self.steps > self.cap {
            Err(Stop::Cap)
        } else {
            Ok(())
        }
    }

    fn read(&mut self, cell: usize) -> R<u32> {
        let v = self.cells[cell];
        if v == UNDECIDED {
            return Err(Stop::Undecided(cell as u32));
        }
        if self.stamp[cell] != self.epoch {
            self.stamp[cell] = self.epoch;
            self.reads.push(cell as u32);
        }
        Ok(v)
    }

    fn size(&self, d: u32) -> u32 {
        self.lay.sizes[d as usize]
    }

    /// The index of a value in domain `d`; unknown outside the window.
    fn index(&self, v: Val, d: u32) -> R<u32> {
        match (v, d) {
            (Val::B(b), BOOL) => Ok(b as u32),
            (Val::I(i), INT) => {
                let (lo, hi) = self.sig.window;
                if (lo..=hi).contains(&i) {
                    Ok((i - lo) as u32)
                } else {
                    Err(Stop::Unknown)
                }
            }
            (Val::E(e, i), d) if e == d => Ok(i),
            _ => Err(Stop::Unknown),
        }
    }

    fn value(&self, d: u32, i: u32) -> Val {
        match d {
            BOOL => Val::B(i != 0),
            INT => Val::I(self.sig.window.0 + i as i64),
            _ => Val::E(d, i),
        }
    }

    /// The components of an element of a product domain.
    fn components(&self, d: u32, mut i: u32) -> R<Vec<Val>> {
        let DomKind::Prod(parts) = &self.sig.domains[d as usize] else {
            return Err(Stop::Unknown);
        };
        let mut out = vec![Val::B(false); parts.len()];
        for (k, p) in parts.iter().enumerate().rev() {
            let s = self.size(*p);
            out[k] = self.value(*p, i % s);
            i /= s;
        }
        Ok(out)
    }

    /// The cell of variable `slot` at the given argument values (and element, for a
    /// set-valued variable).
    fn cell(&self, slot: usize, args: &[Val], elem: Option<Val>) -> R<usize> {
        let var = &self.sig.vars[slot];
        let base = self.lay.bases[slot].ok_or(Stop::Unknown)?;
        if args.len() != var.args.len() {
            return Err(Stop::Unknown);
        }
        let mut index = 0usize;
        for (a, d) in args.iter().zip(&var.args) {
            index = index * self.size(*d) as usize + self.index(*a, *d)? as usize;
        }
        match (&var.shape, elem) {
            (Shape::Scalar(_), None) => Ok(base + index),
            (Shape::Set(d), Some(e)) => {
                Ok(base + index * self.size(*d) as usize + self.index(e, *d)? as usize)
            }
            _ => Err(Stop::Unknown),
        }
    }

    fn bool(&mut self, e: &Expr) -> R<bool> {
        match self.eval(e)? {
            Val::B(b) => Ok(b),
            _ => Err(Stop::Unknown),
        }
    }

    fn int(&mut self, e: &Expr) -> R<i64> {
        match self.eval(e)? {
            Val::I(i) => Ok(i),
            _ => Err(Stop::Unknown),
        }
    }

    /// A conjunction of lazily computed parts: false as soon as one part is; otherwise
    /// the first undecided read, then unknown, then true.
    fn all(&mut self, n: usize, mut part: impl FnMut(&mut Self, usize) -> R<bool>) -> R<bool> {
        let mut pending = None;
        for i in 0..n {
            match part(self, i) {
                Ok(true) => {}
                Ok(false) => return Ok(false),
                Err(Stop::Cap) => return Err(Stop::Cap),
                Err(stop @ Stop::Undecided(_)) => {
                    if !matches!(pending, Some(Stop::Undecided(_))) {
                        pending = Some(stop);
                    }
                }
                Err(Stop::Unknown) => {
                    pending.get_or_insert(Stop::Unknown);
                }
            }
        }
        pending.map_or(Ok(true), Err)
    }

    fn any(&mut self, n: usize, mut part: impl FnMut(&mut Self, usize) -> R<bool>) -> R<bool> {
        self.all(n, |s, i| part(s, i).map(|b| !b)).map(|b| !b)
    }

    fn eval(&mut self, e: &Expr) -> R<Val> {
        self.tick()?;
        Ok(match e {
            Expr::Lit(v) => *v,
            Expr::Bound(i) => self.env[*i],
            Expr::Apply(f, args) => {
                let args = self.args(args)?;
                self.apply(f, &args)?
            }
            Expr::Tuple(d, parts) => {
                let sig = self.sig;
                let DomKind::Prod(doms) = &sig.domains[*d as usize] else {
                    return Err(Stop::Unknown);
                };
                if self.size(*d) == 0 {
                    return Err(Stop::Unknown);
                }
                let mut index = 0u32;
                for (p, dom) in parts.iter().zip(doms) {
                    let v = self.eval(p)?;
                    index = index * self.size(*dom) + self.index(v, *dom)?;
                }
                Val::E(*d, index)
            }
            Expr::Not(a) => Val::B(!self.bool(a)?),
            Expr::And(parts) => Val::B(self.all(parts.len(), |s, i| s.bool(&parts[i]))?),
            Expr::Or(parts) => Val::B(self.any(parts.len(), |s, i| s.bool(&parts[i]))?),
            Expr::Impl(a, b) => Val::B(self.any(2, |s, i| {
                if i == 0 {
                    s.bool(a).map(|x| !x)
                } else {
                    s.bool(b)
                }
            })?),
            Expr::Iff(a, b) => {
                let (x, y) = pair(self.bool(a), self.bool(b))?;
                Val::B(x == y)
            }
            Expr::Ite(c, t, f) => {
                if self.bool(c)? {
                    self.eval(t)?
                } else {
                    self.eval(f)?
                }
            }
            Expr::Eq(a, b) => {
                let (x, y) = pair(self.eval(a), self.eval(b))?;
                Val::B(same(x, y)?)
            }
            Expr::SetEq(d, l, r) => {
                self.in_window(l)?;
                self.in_window(r)?;
                let n = self.size(*d);
                Val::B(self.all(n as usize, |s, i| {
                    let e = s.value(*d, i as u32);
                    let (x, y) = pair(s.member(e, l), s.member(e, r))?;
                    Ok(x == y)
                })?)
            }
            Expr::Subset(strict, d, l, r) => {
                self.in_window(l)?;
                self.in_window(r)?;
                let n = self.size(*d) as usize;
                let d = *d;
                let sub = self.all(n, |s, i| {
                    let e = s.value(d, i as u32);
                    s.any(2, |s, k| {
                        if k == 0 {
                            s.member(e, l).map(|x| !x)
                        } else {
                            s.member(e, r)
                        }
                    })
                })?;
                let proper = !*strict
                    || self.any(n, |s, i| {
                        let e = s.value(d, i as u32);
                        s.all(2, |s, k| {
                            if k == 0 {
                                s.member(e, r)
                            } else {
                                s.member(e, l).map(|x| !x)
                            }
                        })
                    })?;
                Val::B(sub && proper)
            }
            Expr::FunEq(doms, f, g) => {
                let total: usize = doms.iter().map(|d| self.size(*d) as usize).product();
                Val::B(self.all(total, |s, mut i| {
                    let mut args = vec![Val::B(false); doms.len()];
                    for (k, d) in doms.iter().enumerate().rev() {
                        let n = s.size(*d) as usize;
                        args[k] = s.value(*d, (i % n) as u32);
                        i /= n;
                    }
                    s.fun_eq(f, g, &args)
                })?)
            }
            Expr::Member(x, set) => {
                let x = self.eval(x)?;
                Val::B(self.member(x, set)?)
            }
            Expr::Arith(op, a, b) => {
                let (x, y) = pair(self.int(a), self.int(b))?;
                let r = match op {
                    Const::Plus => x.checked_add(y),
                    Const::Minus => x.checked_sub(y),
                    Const::Times => x.checked_mul(y),
                    // Truncating, floored and Euclidean division agree when neither
                    // operand is negative; other cases stay unknown.
                    Const::Div if x >= 0 && y > 0 => Some(x / y),
                    Const::Mod if x >= 0 && y > 0 => Some(x % y),
                    _ => None,
                };
                Val::I(r.ok_or(Stop::Unknown)?)
            }
            Expr::Neg(a) => Val::I(self.int(a)?.checked_neg().ok_or(Stop::Unknown)?),
            Expr::Cmp(op, a, b) => {
                let (x, y) = pair(self.int(a), self.int(b))?;
                Val::B(match op {
                    Const::Lt => x < y,
                    Const::LtEq => x <= y,
                    Const::Gt => x > y,
                    _ => x >= y,
                })
            }
            Expr::Card(d, set) => {
                self.in_window(set)?;
                let mut count = 0i64;
                let mut pending = None;
                for i in 0..self.size(*d) {
                    let e = self.value(*d, i);
                    match self.member(e, set) {
                        Ok(b) => count += b as i64,
                        Err(Stop::Cap) => return Err(Stop::Cap),
                        Err(stop) => {
                            pending.get_or_insert(stop);
                        }
                    }
                }
                match pending {
                    Some(stop) => return Err(stop),
                    None => Val::I(count),
                }
            }
            Expr::Quant(forall, ranges, body) => Val::B(self.quantify(*forall, ranges, body)?),
            Expr::Rtrancl(d, p, a, b) => {
                let (a, b) = (self.eval(a)?, self.eval(b)?);
                Val::B(self.reaches(*d, p, a, b)?)
            }
            Expr::Unknown => return Err(Stop::Unknown),
        })
    }

    fn args(&mut self, args: &[Expr]) -> R<Vec<Val>> {
        args.iter().map(|a| self.eval(a)).collect()
    }

    fn quantify(&mut self, forall: bool, ranges: &[Range], body: &Expr) -> R<bool> {
        let Some((first, rest)) = ranges.split_first() else {
            return self.bool(body);
        };
        let count = match *first {
            Range::Elem(d) => self.size(d) as usize,
            Range::Subsets(d) if self.size(d) <= MAX_POWERSET => 1 << self.size(d),
            Range::Subsets(_) => return Err(Stop::Unknown),
        };
        let mut one = |s: &mut Self, i: usize| {
            let v = match *first {
                Range::Elem(d) => s.value(d, i as u32),
                Range::Subsets(d) => Val::S(d, i as u64),
            };
            s.env.push(v);
            let r = s.quantify(forall, rest, body);
            s.env.pop();
            r
        };
        if forall {
            self.all(count, &mut one)
        } else {
            self.any(count, &mut one)
        }
    }

    fn apply(&mut self, f: &Fun, args: &[Val]) -> R<Val> {
        match f {
            Fun::Var(slot) => {
                let cell = self.cell(*slot, args, None)?;
                let v = self.read(cell)?;
                Ok(self.value(self.lay.cell_dom[cell], v))
            }
            Fun::Update(base, at, value) => {
                let (first, rest) = args.split_first().ok_or(Stop::Unknown)?;
                let at = self.eval(at)?;
                if !same(*first, at)? {
                    return self.apply(base, args);
                }
                match value.as_ref() {
                    Body::Scalar(v) if rest.is_empty() => self.eval(v),
                    _ => Err(Stop::Unknown),
                }
            }
            Fun::Lambda(n, body) => match body.as_ref() {
                Body::Scalar(b) if args.len() == *n => {
                    let depth = self.env.len();
                    self.env.extend_from_slice(args);
                    let r = self.eval(b);
                    self.env.truncate(depth);
                    r
                }
                _ => Err(Stop::Unknown),
            },
            Fun::Partial(g, fixed) => {
                let mut all = self.args(fixed)?;
                all.extend_from_slice(args);
                self.apply(g, &all)
            }
            Fun::Unknown => Err(Stop::Unknown),
        }
    }

    /// Whether `e` is in the set `f` returns at `args`.
    fn apply_member(&mut self, f: &Fun, args: &[Val], e: Val) -> R<bool> {
        match f {
            Fun::Var(slot) => {
                let cell = self.cell(*slot, args, Some(e))?;
                Ok(self.read(cell)? != 0)
            }
            Fun::Update(base, at, value) => {
                let (first, rest) = args.split_first().ok_or(Stop::Unknown)?;
                let at = self.eval(at)?;
                if !same(*first, at)? {
                    return self.apply_member(base, args, e);
                }
                match value.as_ref() {
                    Body::Set(s) if rest.is_empty() => self.member(e, s),
                    _ => Err(Stop::Unknown),
                }
            }
            Fun::Lambda(n, body) => match body.as_ref() {
                Body::Set(s) if args.len() == *n => {
                    let depth = self.env.len();
                    self.env.extend_from_slice(args);
                    let r = self.member(e, s);
                    self.env.truncate(depth);
                    r
                }
                _ => Err(Stop::Unknown),
            },
            Fun::Partial(g, fixed) => {
                let mut all = self.args(fixed)?;
                all.extend_from_slice(args);
                self.apply_member(g, &all, e)
            }
            Fun::Unknown => Err(Stop::Unknown),
        }
    }

    /// Whether two functions agree at `args`: on the value, or on every element of the
    /// set they return.
    fn fun_eq(&mut self, f: &Fun, g: &Fun, args: &[Val]) -> R<bool> {
        let (x, y) = (self.apply(f, args), self.apply(g, args));
        match (x, y) {
            (Ok(x), Ok(y)) => same(x, y),
            (Err(Stop::Cap), _) | (_, Err(Stop::Cap)) => Err(Stop::Cap),
            (Err(Stop::Undecided(c)), _) | (_, Err(Stop::Undecided(c))) => Err(Stop::Undecided(c)),
            _ => {
                // Set-valued: compare membership over the element domain.
                let Some(d) = self.set_result(f).or_else(|| self.set_result(g)) else {
                    return Err(Stop::Unknown);
                };
                if !self.sig.closed(d) {
                    return Err(Stop::Unknown);
                }
                self.all(self.size(d) as usize, |s, i| {
                    let e = s.value(d, i as u32);
                    let (x, y) = pair(s.apply_member(f, args, e), s.apply_member(g, args, e))?;
                    Ok(x == y)
                })
            }
        }
    }

    fn set_result(&self, f: &Fun) -> Option<u32> {
        match f {
            Fun::Var(slot) => match self.sig.vars[*slot].shape {
                Shape::Set(d) => Some(d),
                _ => None,
            },
            Fun::Update(base, ..) | Fun::Partial(base, _) => self.set_result(base),
            _ => None,
        }
    }

    fn member(&mut self, e: Val, set: &SetExpr) -> R<bool> {
        self.tick()?;
        match set {
            SetExpr::Apply(f, args) => {
                let args = self.args(args)?;
                self.apply_member(f, &args, e)
            }
            SetExpr::Bound(i) => match (self.env[*i], e) {
                (Val::S(d, mask), e) => Ok(mask >> self.index(e, d)? & 1 == 1),
                _ => Err(Stop::Unknown),
            },
            SetExpr::Empty => Ok(false),
            SetExpr::Univ => Ok(true),
            SetExpr::Finite(elems) => self.any(elems.len(), |s, i| {
                let x = s.eval(&elems[i])?;
                same(e, x)
            }),
            SetExpr::Union(parts) => self.any(parts.len(), |s, i| s.member(e, &parts[i])),
            SetExpr::Inter(parts) => self.all(parts.len(), |s, i| s.member(e, &parts[i])),
            SetExpr::Diff(l, r) => self.all(2, |s, k| {
                if k == 0 {
                    s.member(e, l)
                } else {
                    s.member(e, r).map(|x| !x)
                }
            }),
            SetExpr::Compr(doms, d, body) => {
                let depth = self.env.len();
                if doms.len() == 1 {
                    self.env.push(e);
                } else {
                    let i = self.index(e, *d)?;
                    let parts = self.components(*d, i)?;
                    self.env.extend(parts);
                }
                let r = self.bool(body);
                self.env.truncate(depth);
                r
            }
            SetExpr::Unknown => Err(Stop::Unknown),
        }
    }

    /// Checks that every listed element of a set enumerated over its domain lies in the
    /// domain: one outside the window would be missed by the enumeration.
    fn in_window(&mut self, set: &SetExpr) -> R<()> {
        match set {
            // A tuple is built inside the window or not at all; an integer is checked.
            SetExpr::Finite(elems) => elems.iter().try_for_each(|x| match self.eval(x)? {
                Val::I(i) => self.index(Val::I(i), INT).map(drop),
                _ => Ok(()),
            }),
            SetExpr::Union(parts) | SetExpr::Inter(parts) => {
                parts.iter().try_for_each(|p| self.in_window(p))
            }
            SetExpr::Diff(l, _) => self.in_window(l),
            _ => Ok(()),
        }
    }

    /// `rtrancl_pt p a b` over the closed domain `d`: whether `b` is reachable from `a`
    /// along `p` in zero or more steps.
    fn reaches(&mut self, d: u32, p: &Fun, a: Val, b: Val) -> R<bool> {
        if same(a, b)? {
            return Ok(true);
        }
        let n = self.size(d) as usize;
        let mut seen = vec![false; n];
        let mut frontier = vec![self.index(a, d)?];
        seen[frontier[0] as usize] = true;
        let target = self.index(b, d)?;
        while let Some(x) = frontier.pop() {
            for y in 0..n as u32 {
                if seen[y as usize] {
                    continue;
                }
                let (vx, vy) = (self.value(d, x), self.value(d, y));
                match self.apply(p, &[vx, vy])? {
                    Val::B(true) => {
                        if y == target {
                            return Ok(true);
                        }
                        seen[y as usize] = true;
                        frontier.push(y);
                    }
                    Val::B(false) => {}
                    _ => return Err(Stop::Unknown),
                }
            }
        }
        Ok(false)
    }
}

/// Both results, or the more telling stop of the two: the cap, then an undecided read
/// (deciding it may settle the other), then unknown.
fn pair<T>(x: R<T>, y: R<T>) -> R<(T, T)> {
    match (x, y) {
        (Ok(x), Ok(y)) => Ok((x, y)),
        (Err(Stop::Cap), _) | (_, Err(Stop::Cap)) => Err(Stop::Cap),
        (Err(s @ Stop::Undecided(_)), _) | (_, Err(s @ Stop::Undecided(_))) => Err(s),
        _ => Err(Stop::Unknown),
    }
}

/// Value equality; unknown across kinds, which a well-typed formula never compares.
fn same(x: Val, y: Val) -> R<bool> {
    match (x, y) {
        (Val::B(a), Val::B(b)) => Ok(a == b),
        (Val::I(a), Val::I(b)) => Ok(a == b),
        (Val::E(d, a), Val::E(e, b)) if d == e => Ok(a == b),
        (Val::S(d, a), Val::S(e, b)) if d == e => Ok(a == b),
        _ => Err(Stop::Unknown),
    }
}

// ------------------------------------------------------------------------ models

/// A finite model: a universe of `null` and some objects, an integer window, and a
/// value for every free variable of the formulas it was built for.
#[derive(Debug, Clone)]
pub struct Model {
    sig: Signature,
    lay: Layout,
    cells: Vec<u32>,
    /// Which cells a search decided (the others hold their smallest value).
    decided: Vec<bool>,
    env: TypeEnv,
}

impl Model {
    /// The model over `objects` objects (besides `null`) that gives every free variable
    /// of `forms` values picked by `seed`: each membership bit, function entry and
    /// scalar is drawn from its domain. The integer window covers the formulas'
    /// literals. Deterministic in its inputs.
    ///
    /// # Errors
    ///
    /// Returns the [`TypeError`] of formulas that do not typecheck under `env`.
    pub fn sample(
        forms: &[Form],
        env: &TypeEnv,
        objects: usize,
        seed: u64,
    ) -> Result<Model, TypeError> {
        let (sig, _) = compile(forms, env)?;
        let lay = Layout::new(&sig, objects.clamp(1, MAX_OBJECTS) as u32);
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let cells = lay
            .cell_dom
            .iter()
            .map(|d| {
                // SplitMix64.
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                (z % lay.sizes[*d as usize].max(1) as u64) as u32
            })
            .collect();
        let decided = vec![true; lay.cell_dom.len()];
        Ok(Model {
            sig,
            lay,
            cells,
            decided,
            env: env.clone(),
        })
    }

    /// The number of objects besides `null`.
    pub fn objects(&self) -> usize {
        self.lay.objects as usize
    }

    /// The truth value of `form` in this model: `None` when the model does not
    /// determine it (a quantifier over `int`, a value outside the window, a constant the
    /// evaluator does not interpret, or a free variable the model does not hold).
    pub fn eval(&self, form: &Form) -> Option<bool> {
        let mut env = self.env.clone();
        for var in &self.sig.vars {
            env.insert(var.name.clone(), var.ty.clone());
        }
        let (forms, undeclared) = infer_jointly(std::slice::from_ref(form), &env).ok()?;
        if !undeclared.is_empty() {
            return None;
        }
        let mut sig = self.sig.clone();
        let expr = Compiler {
            sig: &mut sig,
            scope: Vec::new(),
        }
        .expr(&forms[0]);
        // Compilation may add domains (a binder's tuple type), never variables.
        let lay = Layout {
            sizes: Layout::new(&sig, self.lay.objects).sizes,
            orders: Vec::new(),
            ..self.lay.clone()
        };
        let mut eval = Eval::new(&sig, &lay, u64::MAX);
        eval.cells.clone_from(&self.cells);
        eval.bool(&expr).ok()
    }

    /// The model restricted to the named free variables, as `name = value` pairs in
    /// name order: objects print as `null`, `o1`, `o2`, `o3`, the values of a type the
    /// formulas leave open as `a1` and `a2`, sets as `{…}`, and a function as the
    /// entries a search decided followed by `_ -> v` for all others.
    pub fn describe<'n>(&self, names: impl IntoIterator<Item = &'n str>) -> String {
        let mut names: Vec<&str> = names
            .into_iter()
            .filter(|n| self.sig.slots.contains_key(*n))
            .collect();
        names.sort_unstable();
        names.dedup();
        let parts: Vec<String> = names
            .iter()
            .map(|n| format!("{n} = {}", self.show_var(self.sig.slots[*n])))
            .collect();
        parts.join(", ")
    }

    fn show(&self, d: u32, i: u32) -> String {
        match &self.sig.domains[d as usize] {
            DomKind::Bool => if i != 0 { "True" } else { "False" }.to_string(),
            DomKind::Int => (self.sig.window.0 + i as i64).to_string(),
            DomKind::Obj if i == 0 => "null".to_string(),
            DomKind::Obj => format!("o{i}"),
            DomKind::Open(_) => format!("a{}", i + 1),
            DomKind::Prod(parts) => {
                let mut rest = i;
                let mut shown = Vec::new();
                for p in parts.iter().rev() {
                    let s = self.lay.sizes[*p as usize];
                    shown.push(self.show(*p, rest % s));
                    rest /= s;
                }
                shown.reverse();
                format!("({})", shown.join(", "))
            }
        }
    }

    /// The value of the cells `base .. base + n` read as a scalar (`n == 1`) or a set.
    fn show_value(&self, shape: &Shape, base: usize) -> String {
        match shape {
            Shape::Scalar(d) => self.show(*d, self.cells[base]),
            Shape::Set(d) => {
                let members: Vec<String> = (0..self.lay.sizes[*d as usize])
                    .filter(|i| self.cells[base + *i as usize] != 0)
                    .map(|i| self.show(*d, i))
                    .collect();
                format!("{{{}}}", members.join(", "))
            }
            Shape::Unsupported => "?".to_string(),
        }
    }

    fn show_var(&self, slot: usize) -> String {
        let var = &self.sig.vars[slot];
        let Some(base) = self.lay.bases[slot] else {
            return "?".to_string();
        };
        if var.args.is_empty() {
            return self.show_value(&var.shape, base);
        }
        let width = match var.shape {
            Shape::Set(d) => self.lay.sizes[d as usize] as usize,
            _ => 1,
        };
        let entries: usize = var
            .args
            .iter()
            .map(|a| self.lay.sizes[*a as usize] as usize)
            .product();
        let mut out = String::from("{");
        let mut first = true;
        let mut rest_default = false;
        for k in 0..entries {
            let cell = base + k * width;
            if !(cell..cell + width).any(|c| self.decided[c]) {
                rest_default = true;
                continue;
            }
            let mut args = Vec::new();
            let mut i = k;
            for a in var.args.iter().rev() {
                let s = self.lay.sizes[*a as usize] as usize;
                args.push(self.show(*a, (i % s) as u32));
                i /= s;
            }
            args.reverse();
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "{} -> {}",
                args.join(" "),
                self.show_value(&var.shape, cell)
            );
        }
        if rest_default {
            if !first {
                out.push_str(", ");
            }
            let default = match var.shape {
                Shape::Set(_) => "{}".to_string(),
                Shape::Scalar(d) => self.show(d, self.lay.orders[d as usize][0]),
                Shape::Unsupported => "?".to_string(),
            };
            let _ = write!(out, "_ -> {default}");
        }
        out.push('}');
        out
    }
}

// -------------------------------------------------------------------------- search

/// The outcome of a countermodel search.
#[derive(Debug, Clone)]
pub struct Refutation {
    /// A model in which every assumption is true and the goal false, if one was found.
    pub model: Option<Model>,
    /// The evaluation steps the search took, across every universe it tried.
    pub work: u64,
}

/// The integer window of formulas: their literals and 0, widened by one on each side.
fn window(forms: &[Form]) -> (i64, i64) {
    fn literals(f: &Form, out: &mut Vec<i64>) {
        match f {
            Form::Const(Const::IntLit(i)) => out.push(*i),
            Form::App(h, args) => {
                literals(h, out);
                args.iter().for_each(|a| literals(a, out));
            }
            Form::Binder(_, _, body) => literals(body, out),
            Form::Typed(g, _) => literals(g, out),
            _ => {}
        }
    }
    let mut lits = vec![0];
    forms.iter().for_each(|f| literals(f, &mut lits));
    let lo = lits.iter().min().copied().unwrap_or(0).saturating_sub(1);
    let hi = lits.iter().max().copied().unwrap_or(0).saturating_add(1);
    // A window wider than a domain may be is no window: keep it around 0.
    if hi.abs_diff(lo) >= MAX_DOMAIN / 8 {
        (-1, 1)
    } else {
        (lo, hi)
    }
}

/// Typechecks `forms` jointly under `env` and compiles each against one signature
/// holding their free variables.
fn compile(forms: &[Form], env: &TypeEnv) -> Result<(Signature, Vec<Expr>), TypeError> {
    let (elaborated, undeclared) = infer_jointly(forms, env)?;
    let mut sig = Signature::new(window(forms));
    let mut names: Vec<String> = Vec::new();
    for f in &elaborated {
        names.extend(free_vars(f));
    }
    names.sort();
    names.dedup();
    for name in &names {
        let ty = env
            .get(name)
            .or_else(|| undeclared.get(name))
            .cloned()
            .unwrap_or(Type::Obj);
        sig.declare(name, &ty);
    }
    let exprs = elaborated
        .iter()
        .map(|f| {
            Compiler {
                sig: &mut sig,
                scope: Vec::new(),
            }
            .expr(f)
        })
        .collect();
    Ok((sig, exprs))
}

/// Searches for a countermodel of `sequent` in universes of 1 to 4 objects, under
/// `cap` evaluation steps in all (see the [module docs](self)). Types come from
/// typechecking the sequent under `env`; a sequent that does not typecheck has none.
pub fn refute(sequent: &Sequent, env: &TypeEnv, cap: u64) -> Refutation {
    let mut forms = vec![Form::not(sequent.goal.clone())];
    forms.extend(sequent.assumptions.iter().cloned());
    let Ok((sig, exprs)) = compile(&forms, env) else {
        return Refutation {
            model: None,
            work: 0,
        };
    };
    let mut work = 0;
    for objects in 1..=MAX_OBJECTS as u32 {
        let lay = Layout::new(&sig, objects);
        let mut eval = Eval::new(&sig, &lay, cap - work);
        let found = search(&mut eval, &exprs);
        work += eval.steps.min(cap - work);
        match found {
            Ok(true) => {
                let decided = eval.cells.iter().map(|c| *c != UNDECIDED).collect();
                for (cell, d) in eval.cells.iter_mut().zip(&lay.cell_dom) {
                    if *cell == UNDECIDED {
                        *cell = lay.orders[*d as usize][0];
                    }
                }
                // The completed model is evaluated again, exactly: every formula anew,
                // with no choice left open.
                eval.cap = u64::MAX;
                let genuine = exprs.iter().all(|e| eval.bool(e) == Ok(true));
                let model = Model {
                    sig: sig.clone(),
                    lay: lay.clone(),
                    cells: eval.cells,
                    decided,
                    env: env.clone(),
                };
                return Refutation {
                    model: genuine.then_some(model),
                    work,
                };
            }
            Ok(false) => {}
            Err(_) => break,
        }
    }
    Refutation { model: None, work }
}

/// One decision of the search: the cell, the position of its value in its domain's
/// order, and the levels the failures of its earlier values read.
struct Level {
    cell: u32,
    pos: usize,
    conflicts: Vec<u32>,
}

/// Backtracking search over the cells of one universe: `Ok(true)` when every formula
/// evaluates true, `Ok(false)` when no assignment makes them all true, `Err` on the cap.
fn search(eval: &mut Eval<'_>, formulas: &[Expr]) -> R<bool> {
    let mut trail: Vec<Level> = Vec::new();
    let mut level_of: Vec<u32> = vec![u32::MAX; eval.cells.len()];
    // The trail height at which each formula of the satisfied prefix evaluated true.
    let mut satisfied: Vec<usize> = Vec::new();
    loop {
        let Some(formula) = formulas.get(satisfied.len()) else {
            return Ok(true);
        };
        eval.epoch += 1;
        eval.reads.clear();
        match eval.bool(formula) {
            Ok(true) => satisfied.push(trail.len()),
            Err(Stop::Undecided(cell)) => {
                let d = eval.lay.cell_dom[cell as usize];
                eval.cells[cell as usize] = eval.lay.orders[d as usize][0];
                level_of[cell as usize] = trail.len() as u32;
                trail.push(Level {
                    cell,
                    pos: 0,
                    conflicts: Vec::new(),
                });
            }
            Err(Stop::Cap) => return Err(Stop::Cap),
            Ok(false) | Err(Stop::Unknown) => {
                let mut conflict: Vec<u32> =
                    eval.reads.iter().map(|c| level_of[*c as usize]).collect();
                conflict.sort_unstable();
                conflict.dedup();
                loop {
                    let Some(d) = conflict.pop() else {
                        return Ok(false);
                    };
                    while trail.len() > d as usize + 1 {
                        let undone = trail.pop().expect("deeper levels exist");
                        eval.cells[undone.cell as usize] = UNDECIDED;
                        level_of[undone.cell as usize] = u32::MAX;
                    }
                    let level = trail.last_mut().expect("level d exists");
                    level.conflicts.extend_from_slice(&conflict);
                    level.conflicts.sort_unstable();
                    level.conflicts.dedup();
                    level.pos += 1;
                    let cell = level.cell as usize;
                    let order = &eval.lay.orders[eval.lay.cell_dom[cell] as usize];
                    if let Some(&next) = order.get(level.pos) {
                        eval.cells[cell] = next;
                        while satisfied.last().is_some_and(|h| *h > d as usize) {
                            satisfied.pop();
                        }
                        break;
                    }
                    conflict = std::mem::take(&mut level.conflicts);
                    trail.pop();
                    eval.cells[cell] = UNDECIDED;
                    level_of[cell] = u32::MAX;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;

    fn sequent(assumptions: &[&str], goal: &str) -> Sequent {
        Sequent::new(
            assumptions.iter().map(|a| parse_form(a).unwrap()).collect(),
            parse_form(goal).unwrap(),
        )
    }

    fn refuted(assumptions: &[&str], goal: &str) -> Option<String> {
        let s = sequent(assumptions, goal);
        let r = refute(&s, &TypeEnv::standard(), 1_000_000);
        r.model
            .map(|m| m.describe(free_vars(&s.goal).iter().map(String::as_str)))
    }

    #[test]
    fn small_countermodels_are_found_and_printed() {
        assert_eq!(
            refuted(
                &["x ~= null", "x ~: content"],
                "content Un {x} = content \\ {x}"
            ),
            Some("content = {}, x = o1".to_string())
        );
        assert_eq!(
            refuted(&["n < count_1"], "n <= count_1 - 2"),
            Some("count_1 = 1, n = 0".to_string())
        );
        assert_eq!(
            refuted(&[], "size + 2 = size + 1"),
            Some("size = 0".to_string())
        );
    }

    #[test]
    fn valid_sequents_have_no_countermodel() {
        for (assumptions, goal) in [
            (&["x : s"][..], "s ~= {}"),
            (&["ALL x. x : a --> x : b", "y : a"][..], "y : b"),
            (
                &["size = card content", "x ~: content"][..],
                "card (content Un {x}) = size + 1",
            ),
            (&["p --> q", "p"][..], "q"),
            (
                &["next x = y", "x ~= null"][..],
                "(fieldWrite next x null) x = null",
            ),
        ] {
            assert_eq!(
                refuted(assumptions, goal),
                None,
                "{assumptions:?} |- {goal}"
            );
        }
    }

    #[test]
    fn the_search_needs_as_many_objects_as_the_sequent_forces() {
        let mut distinct = vec!["a ~= null".to_string()];
        for (i, v) in ["b", "c", "d", "e"].iter().enumerate() {
            distinct.push(format!("{v} ~= null"));
            for w in &["a", "b", "c", "d"][..=i] {
                distinct.push(format!("{v} ~= {w}"));
            }
        }
        let forced = |n: usize| {
            let assumptions: Vec<&str> = distinct
                .iter()
                .take_while(|a| !a.starts_with(["a", "b", "c", "d", "e"][n]))
                .map(String::as_str)
                .collect();
            refute(
                &sequent(&assumptions, "False"),
                &TypeEnv::standard(),
                1_000_000,
            )
            .model
        };
        assert_eq!(forced(3).expect("three objects").objects(), 3);
        assert_eq!(forced(4).expect("four objects").objects(), MAX_OBJECTS);
        assert!(refute(
            &sequent(
                &distinct.iter().map(String::as_str).collect::<Vec<_>>(),
                "False"
            ),
            &TypeEnv::standard(),
            10_000_000
        )
        .model
        .is_none());
    }

    #[test]
    fn unknown_constructs_never_give_a_countermodel() {
        // A quantifier over int, a value outside the window and `tree` are unknown.
        assert_eq!(refuted(&["ALL (i::int). f i = 0"], "False"), None);
        assert_eq!(refuted(&[], "tree [next]"), None);
        assert_eq!(refuted(&["(-3) div 2 = k"], "False"), None);
        // An open type has two values but no quantifier ranges over it.
        assert_eq!(refuted(&[], "u = w"), Some("u = a1, w = a2".to_string()));
        assert_eq!(refuted(&["ALL y. y = u"], "False"), None);
    }

    #[test]
    fn the_work_cap_ends_the_search() {
        let s = sequent(&["x : s", "y : s", "x ~= y"], "card s >= 3");
        let capped = refute(&s, &TypeEnv::standard(), 5);
        assert!(capped.model.is_none());
        assert_eq!(capped.work, 5);
        let full = refute(&s, &TypeEnv::standard(), 1_000_000);
        assert!(full.model.is_some());
        assert!(full.work > 5);
        assert_eq!(refute(&s, &TypeEnv::standard(), 1_000_000).work, full.work);
    }

    #[test]
    fn fields_sets_of_pairs_and_reachability_evaluate() {
        assert!(refuted(
            &["~(EX v. (k0, v) : content)", "k0 ~= null", "v0 ~= null"],
            "content = content Un {(k0, v0)}"
        )
        .is_some());
        // `null` fixes the type of the nodes; without it they are an open sort.
        let reach = "rtrancl_pt (% u v. next u = v) a b";
        assert_eq!(refuted(&[reach], "a = b"), None);
        assert_eq!(
            refuted(&[reach, "a ~= null"], "a = b"),
            Some("a = o1, b = null".to_string())
        );
        assert_eq!(
            refuted(
                &["next a = b", "next b = c", "a ~= null"],
                "rtrancl_pt (% u v. next u = v) a c"
            ),
            None
        );
    }

    #[test]
    fn sampled_models_evaluate_formulas() {
        let forms = [
            parse_form("x : s & p").unwrap(),
            parse_form("i <= 3").unwrap(),
        ];
        let env = TypeEnv::standard();
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..32 {
            let model = Model::sample(&forms, &env, 2, seed).unwrap();
            let value = model.eval(&forms[0]).expect("exact");
            let split = model.eval(&parse_form("x : s").unwrap()).unwrap()
                && model.eval(&parse_form("p").unwrap()).unwrap();
            assert_eq!(value, split);
            seen.insert(value);
        }
        assert_eq!(seen.len(), 2, "the seed varies the model");
    }
}
