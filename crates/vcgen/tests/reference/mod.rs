//! Weakest preconditions and splitting as they were before the formula bank, kept as
//! the test oracle.
//!
//! [`wlp`] builds the verification condition as an owned [`Form`] tree with `Form`'s
//! smart constructors, copying the postcondition into every branch of a choice.
//! [`split`] walks it and, at each universal goal, collects the names to avoid into a
//! set, the free variables of every assumption on the path and of the body, and
//! rebuilds the body once per renamed variable. `jahob_vcgen::wlp` and
//! `jahob_vcgen::split`, which run on a formula bank, must build exactly what these
//! build: the same sequents, labels and hints, whatever else the bank holds.
//!
//! An `inst` hint's witness rides beside the goal as the second argument of its layer,
//! so renaming a havocked variable renames it too.

#![allow(dead_code)]

/// The `Form`-recursive simplifier, from the logic crate's oracle.
#[path = "../../../logic/tests/reference/mod.rs"]
mod logic;

use self::logic::simplify::simplify;
use jahob_logic::form::{Binder, Const, Form, Ident};
use jahob_logic::subst::{free_vars, fresh_name, substitute_one};
use jahob_logic::types::Type;
use jahob_logic::Sequent;
use jahob_vcgen::{DesugarEnv, Hint, ProofObligation, Simple, INST_HINT_PREFIX};
use std::collections::BTreeSet;

const HINT_LABEL_PREFIX: &str = "hint:";

/// The weakest precondition of `commands` with respect to `post` (Figure 10).
pub fn wlp(commands: &[Simple], post: Form, env: &DesugarEnv) -> Form {
    let mut current = post;
    for c in commands.iter().rev() {
        current = wlp_one(c, current, env);
    }
    current
}

fn wlp_one(command: &Simple, post: Form, env: &DesugarEnv) -> Form {
    match command {
        Simple::Assume { label, form } => {
            let f = match label {
                Some(l) => Form::comment(l.clone(), form.clone()),
                None => form.clone(),
            };
            Form::implies(f, post)
        }
        Simple::Assert { label, form, hints } => {
            let mut f = form.clone();
            for hint in hints.iter().rev() {
                let layer = Form::Const(Const::Comment(format!(
                    "{HINT_LABEL_PREFIX}{}",
                    hint.encode()
                )));
                f = match hint {
                    Hint::Inst { witness, .. } => Form::app(layer, vec![f, witness.clone()]),
                    _ => Form::app(layer, vec![f]),
                };
            }
            if let Some(l) = label {
                f = Form::comment(l.clone(), f);
            }
            Form::and(vec![f, post])
        }
        Simple::Havoc { vars } => {
            let typed: Vec<(Ident, Type)> =
                vars.iter().map(|v| (v.clone(), env.var_type(v))).collect();
            Form::forall_many(typed, post)
        }
        Simple::Choice(branches) => {
            Form::and(branches.iter().map(|b| wlp(b, post.clone(), env)).collect())
        }
    }
}

/// Weakest precondition followed by splitting.
pub fn verification_conditions(
    commands: &[Simple],
    post: Form,
    env: &DesugarEnv,
) -> Vec<ProofObligation> {
    split(&wlp(commands, post, env))
}

/// Splits a verification condition into sequents (Figure 13).
pub fn split(vc: &Form) -> Vec<ProofObligation> {
    let mut out = Vec::new();
    let mut used: BTreeSet<String> = BTreeSet::new();
    split_rec(
        &mut Vec::new(),
        &mut Vec::new(),
        &mut Vec::new(),
        vc,
        &mut out,
        &mut used,
    );
    out
}

/// `assumptions` holds each assumption on the path with its free variables.
fn split_rec(
    assumptions: &mut Vec<(Form, BTreeSet<String>)>,
    labels: &mut Vec<String>,
    hints: &mut Vec<Hint>,
    goal: &Form,
    out: &mut Vec<ProofObligation>,
    used_names: &mut BTreeSet<String>,
) {
    match goal {
        Form::Const(Const::BoolLit(true)) => {}
        Form::App(head, args) => {
            if let Form::Const(c) = head.as_ref() {
                match (c, args.as_slice()) {
                    (Const::Comment(l), [body]) => {
                        if let Some(token) = l.strip_prefix(HINT_LABEL_PREFIX) {
                            hints.push(Hint::decode(token, None));
                            split_rec(assumptions, labels, hints, body, out, used_names);
                            hints.pop();
                        } else {
                            labels.push(l.clone());
                            split_rec(assumptions, labels, hints, body, out, used_names);
                            labels.pop();
                        }
                        return;
                    }
                    (Const::Comment(l), [body, witness]) => {
                        if let Some(token) = l.strip_prefix(HINT_LABEL_PREFIX) {
                            if token.starts_with(INST_HINT_PREFIX) {
                                hints.push(Hint::decode(token, Some(witness.clone())));
                                split_rec(assumptions, labels, hints, body, out, used_names);
                                hints.pop();
                                return;
                            }
                        }
                    }
                    (Const::And, _) => {
                        for a in args {
                            split_rec(assumptions, labels, hints, a, out, used_names);
                        }
                        return;
                    }
                    (Const::Impl, [lhs, rhs]) => {
                        let new_assumptions = lhs.conjuncts();
                        let n = new_assumptions.len();
                        assumptions.extend(
                            new_assumptions
                                .into_iter()
                                .map(|a| (a.clone(), free_vars(a))),
                        );
                        split_rec(assumptions, labels, hints, rhs, out, used_names);
                        assumptions.truncate(assumptions.len() - n);
                        return;
                    }
                    _ => {}
                }
            }
            emit(assumptions, labels, hints, goal, out);
        }
        Form::Binder(Binder::Forall, vars, body) => {
            // Fig. 13: A --> ALL x. G  ~~>  A --> G[x := fresh].
            let mut avoid: BTreeSet<String> = used_names.clone();
            for (_, vars) in assumptions.iter() {
                avoid.extend(vars.iter().cloned());
            }
            avoid.extend(free_vars(body));
            let mut current = body.as_ref().clone();
            for (v, _) in vars {
                let fresh = fresh_name(v, &avoid);
                avoid.insert(fresh.clone());
                used_names.insert(fresh.clone());
                current = substitute_one(&current, v, &Form::var(fresh));
            }
            split_rec(assumptions, labels, hints, &current, out, used_names);
        }
        _ => emit(assumptions, labels, hints, goal, out),
    }
}

fn emit(
    assumptions: &[(Form, BTreeSet<String>)],
    labels: &[String],
    hints: &[Hint],
    goal: &Form,
    out: &mut Vec<ProofObligation>,
) {
    let goal = simplify(goal);
    if goal.is_true() {
        return;
    }
    let assumptions = assumptions.iter().map(|(a, _)| a.clone()).collect();
    let mut sequent = Sequent::new(assumptions, goal);
    sequent.labels = labels.to_vec();
    out.push(ProofObligation {
        sequent,
        hints: hints.to_vec(),
    });
}
