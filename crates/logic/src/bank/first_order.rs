//! The first-order front end of the SMT and FOL provers on the bank (§6.2, §6.3), and
//! the negation normal form every refuting prover reads, each memoised per node.
//!
//! [`Bank::first_order_implication`] strips a formula's comments and rewrites it into
//! first-order shape: function equalities pointwise, field-write applications into
//! `ite`, set and tuple equalities by extensionality, set operations into memberships,
//! and `ite` lifted out of atoms. It then simplifies the result and approximates it
//! into [`Fragment::FirstOrder`] ([`Bank::approximate`]), which drops the atoms neither
//! prover represents: `card`, `tree`, `old`, comprehensions, and lambdas outside an
//! `rtrancl_pt` atom.
//!
//! Two of the rewrites read the context's classification of variables:
//! function equalities are expanded pointwise for the function variables, and set
//! equalities by extensionality for the set variables. A classification is interned
//! once per bank ([`Bank::first_order_vars`]) and keys the memos of those two rewrites
//! and of the whole rewriting chain; every other memo is shared by all of them.
//!
//! Each rewrite is one rule applied bottom-up, one pass at a time, until a pass
//! changes nothing (at most 64 passes), as [`crate::rewrite::rewrite_fixpoint`] runs
//! a rule on `Form` trees: a pass rebuilds a node's children first, applications
//! through [`Form::app`]'s flattening, then applies the rule once to the rebuilt node.
//! A pass is memoised per node and rule. The `Form` front end this mirrors is kept as
//! a test oracle in `crates/logic/tests/reference`.
//!
//! [`Form::app`]: crate::form::Form::app

use super::{Bank, FastMap, Fragment, Node, NodeId, NodeMemo, SetId, Sym};
use crate::form::{Binder, Const};
use crate::subst::fresh_name_by;
use crate::types::Type;
use std::collections::BTreeSet;

/// A classification of set and function variables, interned in one [`Bank`] by
/// [`Bank::first_order_vars`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FirstOrderVars(u32);

/// A rewrite rule, applied bottom-up by [`Bank::rewrite_fixpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Rule {
    /// Membership in a set expression ([`Bank::expand_membership`]).
    Membership,
    /// Function equalities pointwise, for a classification.
    FunctionEqualities(FirstOrderVars),
    /// Field-write and array-write applications into `ite`.
    FieldWrites,
    /// Tuple equalities componentwise, set equalities and inclusions by
    /// extensionality, for a classification.
    ComplexEqualities(FirstOrderVars),
    /// `ite` lifted out of atoms.
    LiftIte,
}

/// The memos of one classification.
#[derive(Debug, Clone)]
struct Classified {
    set_vars: SetId,
    fun_vars: SetId,
    functions: NodeMemo,
    complex: NodeMemo,
    /// The whole rewriting chain, per comment-stripped formula.
    prepared: NodeMemo,
    /// The approximation of a rewritten formula, negative then positive.
    approximated: [NodeMemo; 2],
}

/// The bank's first-order memos.
#[derive(Debug, Clone, Default)]
pub(super) struct FirstOrderMemo {
    classes: Vec<Classified>,
    class_index: FastMap<(SetId, SetId), FirstOrderVars>,
    membership: NodeMemo,
    field_writes: NodeMemo,
    lifted: NodeMemo,
    /// The negation normal form of a node, then of its negation.
    nnf: [NodeMemo; 2],
    normal: NodeMemo,
}

impl Bank {
    /// Interns the classification of `set_vars` and `fun_vars`.
    pub fn first_order_vars(
        &mut self,
        set_vars: &BTreeSet<String>,
        fun_vars: &BTreeSet<String>,
    ) -> FirstOrderVars {
        let set_vars = set_vars.iter().map(|v| self.symbol(v)).collect();
        let set_vars = self.set(set_vars);
        let fun_vars = fun_vars.iter().map(|v| self.symbol(v)).collect();
        let fun_vars = self.set(fun_vars);
        if let Some(&vars) = self.first_order.class_index.get(&(set_vars, fun_vars)) {
            return vars;
        }
        let vars = FirstOrderVars(self.first_order.classes.len() as u32);
        self.first_order.classes.push(Classified {
            set_vars,
            fun_vars,
            functions: NodeMemo::default(),
            complex: NodeMemo::default(),
            prepared: NodeMemo::default(),
            approximated: Default::default(),
        });
        self.first_order
            .class_index
            .insert((set_vars, fun_vars), vars);
        vars
    }

    fn class(&self, vars: FirstOrderVars) -> &Classified {
        &self.first_order.classes[vars.0 as usize]
    }

    fn class_mut(&mut self, vars: FirstOrderVars) -> &mut Classified {
        &mut self.first_order.classes[vars.0 as usize]
    }

    /// Whether `sym` is one of the classification's function variables.
    pub fn is_fun_var(&self, vars: FirstOrderVars, sym: Sym) -> bool {
        self.contains(self.class(vars).fun_vars, sym)
    }

    // ------------------------------------------------------------- rewriting

    fn rule_memo(&mut self, rule: Rule) -> &mut NodeMemo {
        match rule {
            Rule::Membership => &mut self.first_order.membership,
            Rule::FunctionEqualities(vars) => &mut self.class_mut(vars).functions,
            Rule::FieldWrites => &mut self.first_order.field_writes,
            Rule::ComplexEqualities(vars) => &mut self.class_mut(vars).complex,
            Rule::LiftIte => &mut self.first_order.lifted,
        }
    }

    /// [`crate::rewrite::rewrite_fixpoint`] of `rule`: one pass at a time until a pass
    /// changes nothing, at most 64.
    pub(super) fn rewrite_fixpoint(&mut self, id: NodeId, rule: Rule) -> NodeId {
        let mut current = id;
        for _ in 0..64 {
            let next = self.rewrite_pass(current, rule);
            if next == current {
                return next;
            }
            current = next;
        }
        current
    }

    /// One pass of `rule` ([`crate::rewrite::rewrite_bottom_up`] on `Form`), memoised per node:
    /// the children are rebuilt first, applications through [`Form::app`]'s
    /// flattening, then the rule is applied once to the rebuilt node.
    ///
    /// [`Form::app`]: crate::form::Form::app
    fn rewrite_pass(&mut self, id: NodeId, rule: Rule) -> NodeId {
        if let Some(done) = self.rule_memo(rule).get(id) {
            return done;
        }
        let rebuilt = match self.node(id).clone() {
            Node::Var(_) | Node::Const(_) => id,
            Node::Typed(f, t) => {
                let f = self.rewrite_pass(f, rule);
                self.add(Node::Typed(f, t))
            }
            Node::Binder(b, vars, body) => {
                let body = self.rewrite_pass(body, rule);
                self.add(Node::Binder(b, vars, body))
            }
            Node::App(f, args) => {
                let f = self.rewrite_pass(f, rule);
                let args = args.iter().map(|a| self.rewrite_pass(*a, rule)).collect();
                self.app(f, args)
            }
        };
        let out = match rule {
            Rule::Membership => self.expand_membership_rule(rebuilt),
            Rule::FunctionEqualities(vars) => self.function_equality_rule(rebuilt, vars),
            Rule::FieldWrites => self.field_write_rule(rebuilt),
            Rule::ComplexEqualities(vars) => self.complex_equality_rule(rebuilt, vars),
            Rule::LiftIte => self.lift_ite_rule(rebuilt),
        }
        .unwrap_or(rebuilt);
        self.rule_memo(rule).set(id, out);
        out
    }

    /// [`crate::subst::fresh_name`] of `base` avoiding the free variables of `id`.
    fn fresh_for(&mut self, base: &str, id: NodeId) -> Sym {
        let free = self.info(id).free;
        let fresh = fresh_name_by(base, |name| {
            self.find_symbol(name)
                .is_some_and(|sym| self.contains(free, sym))
        });
        self.symbol(&fresh)
    }

    /// `ALL v :: obj. body`, as [`crate::form::Form::forall`] builds it.
    fn forall_obj(&mut self, v: Sym, body: NodeId) -> NodeId {
        self.quantify(Binder::Forall, &[(v, Type::Obj)], body)
    }

    /// Function equalities pointwise: `f = g` becomes `ALL ptr. f ptr = g ptr` when a
    /// side is a function variable (a declared field) or a partial `fieldWrite`.
    fn function_equality_rule(&mut self, id: NodeId, vars: FirstOrderVars) -> Option<NodeId> {
        let &[l, r] = self.as_app_of(id, &Const::Eq)? else {
            return None;
        };
        let is_fun = |bank: &Bank, f: NodeId| match bank.node(f) {
            Node::Var(v) => bank.is_fun_var(vars, *v),
            Node::App(head, args) => {
                matches!(bank.node(*head), Node::Const(Const::FieldWrite)) && args.len() == 3
            }
            _ => false,
        };
        if !is_fun(self, l) && !is_fun(self, r) {
            return None;
        }
        let z = self.fresh_for("ptr", id);
        let zv = self.var(z);
        let lz = self.app(l, vec![zv]);
        let rz = self.app(r, vec![zv]);
        let eq = self.eq(lz, rz);
        Some(self.forall_obj(z, eq))
    }

    /// `ite c t e`, as [`crate::form::Form::ite`] builds it.
    fn ite(&mut self, c: NodeId, t: NodeId, e: NodeId) -> NodeId {
        self.app_of(Const::Ite, vec![c, t, e])
    }

    /// Applications of function updates into `ite`, case for case:
    /// `fieldWrite f x v y ...` becomes `ite (y = x) v (f y) ...`, an unflattened
    /// `(fieldWrite f x v) y` likewise, and `arrayRead (arrayWrite st a i v) b j`
    /// becomes `ite (b = a & j = i) v (arrayRead st b j)`.
    fn field_write_rule(&mut self, id: NodeId) -> Option<NodeId> {
        let Node::App(fun, args) = self.node(id).clone() else {
            return None;
        };
        let fun_node = self.node(fun).clone();
        if matches!(fun_node, Node::Const(Const::FieldWrite)) && args.len() >= 4 {
            let (base, at, val, arg) = (args[0], args[1], args[2], args[3]);
            let cond = self.eq(arg, at);
            let old = self.app(base, vec![arg]);
            let applied = self.ite(cond, val, old);
            return Some(self.app(applied, args[4..].to_vec()));
        }
        if let Some(&[base, at, val]) = self.as_app_of(fun, &Const::FieldWrite) {
            if args.len() == 1 {
                let arg = args[0];
                let cond = self.eq(arg, at);
                let old = self.app(base, vec![arg]);
                return Some(self.ite(cond, val, old));
            }
        }
        if matches!(fun_node, Node::Const(Const::ArrayRead)) && args.len() == 3 {
            if let Some(&[st, a, i, v]) = self.as_app_of(args[0], &Const::ArrayWrite) {
                let (b, j) = (args[1], args[2]);
                let same_array = self.eq(b, a);
                let same_index = self.eq(j, i);
                let cond = self.and(vec![same_array, same_index]);
                let old = self.app_of(Const::ArrayRead, vec![st, b, j]);
                return Some(self.ite(cond, v, old));
            }
        }
        None
    }

    /// A syntactic test for "this expression denotes a set": set constants, set
    /// operations, comprehensions and set-typed ascriptions.
    fn looks_like_set(&self, id: NodeId) -> bool {
        match self.node(id) {
            Node::Const(Const::EmptySet | Const::UnivSet) => true,
            Node::Binder(Binder::Comprehension, ..) => true,
            Node::App(fun, _) => matches!(
                self.node(*fun),
                Node::Const(Const::Union | Const::Inter | Const::Diff | Const::FiniteSet)
            ),
            Node::Typed(inner, t) => t.is_set() || self.looks_like_set(*inner),
            _ => false,
        }
    }

    /// The set test of extensionality: a set-shaped expression, a set variable, or an
    /// application of one.
    fn set_typed(&self, id: NodeId, vars: FirstOrderVars) -> bool {
        let set_vars = self.class(vars).set_vars;
        self.looks_like_set(id)
            || match self.node(id) {
                Node::Var(v) => self.contains(set_vars, *v),
                Node::App(head, _) => {
                    matches!(self.node(*head), Node::Var(v) if self.contains(set_vars, *v))
                }
                _ => false,
            }
    }

    /// Tuple equalities componentwise, set equalities and `subseteq` by
    /// extensionality (`ALL elt. elt : l <-> elt : r`, `ALL elt. elt : l --> elt : r`).
    fn complex_equality_rule(&mut self, id: NodeId, vars: FirstOrderVars) -> Option<NodeId> {
        if let Some((l, r)) = self.as_eq(id) {
            if let (Some(ls), Some(rs)) = (
                self.as_app_of(l, &Const::Tuple),
                self.as_app_of(r, &Const::Tuple),
            ) {
                if ls.len() == rs.len() {
                    let pairs: Vec<(NodeId, NodeId)> =
                        ls.iter().copied().zip(rs.iter().copied()).collect();
                    let eqs = pairs.into_iter().map(|(a, b)| self.eq(a, b)).collect();
                    return Some(self.and(eqs));
                }
            }
            if self.set_typed(l, vars) || self.set_typed(r, vars) {
                let v = self.fresh_for("elt", id);
                let vv = self.var(v);
                let left = self.elem(vv, l);
                let right = self.elem(vv, r);
                let iff = self.app_of(Const::Iff, vec![left, right]);
                return Some(self.forall_obj(v, iff));
            }
        }
        if let Some(&[l, r]) = self.as_app_of(id, &Const::SubsetEq) {
            let v = self.fresh_for("elt", id);
            let vv = self.var(v);
            let left = self.elem(vv, l);
            let right = self.elem(vv, r);
            let implies = self.implies(left, right);
            return Some(self.forall_obj(v, implies));
        }
        None
    }

    /// `ite` lifted out of an atom: an equality, comparison, membership or `subseteq`
    /// with an `ite c t e` argument becomes `(c --> P t) & (~c --> P e)`, split at the
    /// first such argument.
    fn lift_ite_rule(&mut self, id: NodeId) -> Option<NodeId> {
        let Node::App(fun, args) = self.node(id).clone() else {
            return None;
        };
        let Node::Const(
            c @ (Const::Eq
            | Const::Lt
            | Const::LtEq
            | Const::Gt
            | Const::GtEq
            | Const::Elem
            | Const::SubsetEq),
        ) = self.node(fun).clone()
        else {
            return None;
        };
        for (idx, a) in args.iter().enumerate() {
            if let Some(&[cond, then, els]) = self.as_app_of(*a, &Const::Ite) {
                let mut then_args = args.to_vec();
                then_args[idx] = then;
                let mut else_args = args.to_vec();
                else_args[idx] = els;
                let then_atom = self.app_of(c.clone(), then_args);
                let else_atom = self.app_of(c, else_args);
                let when = self.implies(cond, then_atom);
                let not_cond = self.not(cond);
                let otherwise = self.implies(not_cond, else_atom);
                return Some(self.and(vec![when, otherwise]));
            }
        }
        None
    }

    /// The rewriting of [`Bank::first_order_implication`] on a formula whose comments
    /// are stripped, memoised per node and classification: function
    /// equalities, field-write applications, complex equalities, membership, `ite`
    /// lifting, then simplification.
    fn prepare(&mut self, id: NodeId, vars: FirstOrderVars) -> NodeId {
        if let Some(done) = self.class(vars).prepared.get(id) {
            return done;
        }
        let f = self.rewrite_fixpoint(id, Rule::FunctionEqualities(vars));
        let f = self.rewrite_fixpoint(f, Rule::FieldWrites);
        let f = self.rewrite_fixpoint(f, Rule::ComplexEqualities(vars));
        let f = self.expand_membership(f);
        let f = self.rewrite_fixpoint(f, Rule::LiftIte);
        let out = self.simplify(f);
        self.class_mut(vars).prepared.set(id, out);
        out
    }

    /// One formula of [`Bank::first_order_implication`]: comments stripped,
    /// rewritten, and approximated at its polarity, memoised per node, classification
    /// and polarity.
    fn first_order(&mut self, id: NodeId, vars: FirstOrderVars, positive: bool) -> NodeId {
        if let Some(done) = self.class(vars).approximated[positive as usize].get(id) {
            return done;
        }
        let stripped = self.strip_comments(id);
        let prepared = self.prepare(stripped, vars);
        let out = self.approximate(prepared, Fragment::FirstOrder, positive);
        self.class_mut(vars).approximated[positive as usize].set(id, out);
        out
    }

    /// The first-order front end of SMT and FOL: the assumptions, each rewritten and
    /// approximated in a negative position and dropped when it becomes `True`, and the
    /// goal, approximated in a positive position. `vars` classifies the set and
    /// function variables.
    pub fn first_order_implication(
        &mut self,
        assumptions: &[NodeId],
        goal: NodeId,
        vars: FirstOrderVars,
    ) -> (Vec<NodeId>, NodeId) {
        let mut kept = Vec::with_capacity(assumptions.len());
        for a in assumptions {
            let approximated = self.first_order(*a, vars, false);
            if !self.is_true(approximated) {
                kept.push(approximated);
            }
        }
        (kept, self.first_order(goal, vars, true))
    }

    // ------------------------------------------------------ negation normal form

    /// The simplified formula in negation normal form, memoised per node: negations
    /// pushed to the atoms, implications and bi-implications expanded, quantifiers
    /// dualised under a negation, comments dropped.
    pub fn nnf(&mut self, id: NodeId) -> NodeId {
        if let Some(done) = self.first_order.normal.get(id) {
            return done;
        }
        let simplified = self.simplify(id);
        let out = self.nnf_signed(simplified, true);
        self.first_order.normal.set(id, out);
        out
    }

    /// The negation normal form of a node (`positive`) or of its negation, memoised
    /// per node.
    fn nnf_signed(&mut self, id: NodeId, positive: bool) -> NodeId {
        if let Some(done) = self.first_order.nnf[positive as usize].get(id) {
            return done;
        }
        let out = match self.node(id).clone() {
            Node::Const(Const::BoolLit(b)) if !positive => self.bool_lit(!b),
            Node::App(fun, args) => match (self.node(fun).clone(), &args[..]) {
                (Node::Const(Const::Not), &[f]) => self.nnf_signed(f, !positive),
                (Node::Const(c @ (Const::And | Const::Or)), _) => {
                    let parts = args.iter().map(|a| self.nnf_signed(*a, positive)).collect();
                    self.junction((c == Const::And) == positive, parts)
                }
                (Node::Const(Const::Impl), &[l, r]) => {
                    let l = self.nnf_signed(l, !positive);
                    let r = self.nnf_signed(r, positive);
                    if positive {
                        self.junction(false, vec![l, r])
                    } else {
                        self.junction(true, vec![l, r])
                    }
                }
                (Node::Const(Const::Iff), &[l, r]) => {
                    let (lp, ln) = (self.nnf_signed(l, true), self.nnf_signed(l, false));
                    let (rp, rn) = (self.nnf_signed(r, true), self.nnf_signed(r, false));
                    if positive {
                        // (~l | r) & (l | ~r)
                        let forward = self.junction(false, vec![ln, rp]);
                        let backward = self.junction(false, vec![lp, rn]);
                        self.junction(true, vec![forward, backward])
                    } else {
                        // (l & ~r) | (~l & r)
                        let left = self.junction(true, vec![lp, rn]);
                        let right = self.junction(true, vec![ln, rp]);
                        self.junction(false, vec![left, right])
                    }
                }
                (Node::Const(Const::Comment(_)), &[f]) => self.nnf_signed(f, positive),
                _ if positive => id,
                _ => self.not(id),
            },
            Node::Binder(b @ (Binder::Forall | Binder::Exists), vars, body) => {
                let body = self.nnf_signed(body, positive);
                let b = match (b, positive) {
                    (b, true) => b,
                    (Binder::Forall, false) => Binder::Exists,
                    (_, false) => Binder::Forall,
                };
                self.quantify(b, &vars, body)
            }
            _ if positive => id,
            _ => self.not(id),
        };
        self.first_order.nnf[positive as usize].set(id, out);
        out
    }
}
