//! Mutation operators that turn a correct suite method into a known-wrong one.
//!
//! Each operator edits the *first* matching site of one method (pre-order over the
//! body, descending into branches and loops) and fails if the method has no such
//! site, so an entry of the known-answer file that no longer matches the suite stops
//! the benchmark instead of silently measuring an unmutated program.

use jahob_frontend::{Expr, Lvalue, MethodDef, Program, Stmt};
use jahob_logic::{Const, Form};

/// One mutation, as named in the known-answer file (`operator<TAB>argument`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// `drop-ghost <var>`: delete the first ghost update of `var`.
    DropGhost(String),
    /// `drop-field-write <field>`: delete the first write to instance field `field`.
    DropFieldWrite(String),
    /// `ensures-un-to-diff -`: turn the first binary `Un` of `ensures` into `-`.
    EnsuresUnToDiff,
    /// `off-by-one <var>`: in the first assignment `var = e + k` (or `e - k`), use
    /// `k + 1` instead of `k`.
    OffByOne(String),
    /// `drop-requires <label>`: delete the `requires` conjunct labelled `label`.
    DropRequires(String),
}

impl Mutation {
    /// Parses an operator name and its argument.
    pub fn parse(operator: &str, argument: &str) -> Result<Mutation, String> {
        let arg = argument.to_string();
        match operator {
            "drop-ghost" => Ok(Mutation::DropGhost(arg)),
            "drop-field-write" => Ok(Mutation::DropFieldWrite(arg)),
            "ensures-un-to-diff" => Ok(Mutation::EnsuresUnToDiff),
            "off-by-one" => Ok(Mutation::OffByOne(arg)),
            "drop-requires" => Ok(Mutation::DropRequires(arg)),
            other => Err(format!("unknown mutation operator {other:?}")),
        }
    }
}

/// Returns `program` with `mutation` applied to method `qualified` (`Class.method`).
pub fn apply(program: &Program, qualified: &str, mutation: &Mutation) -> Result<Program, String> {
    let (class, method) = qualified
        .split_once('.')
        .ok_or_else(|| format!("{qualified:?} is not Class.method"))?;
    let mut mutated = program.clone();
    let target = mutated
        .classes
        .iter_mut()
        .filter(|c| c.name == class)
        .flat_map(|c| c.methods.iter_mut())
        .find(|m| m.name == method)
        .ok_or_else(|| format!("no method {qualified}"))?;
    if mutate_method(target, mutation) {
        Ok(mutated)
    } else {
        Err(format!("{mutation:?} matches nothing in {qualified}"))
    }
}

fn mutate_method(method: &mut MethodDef, mutation: &Mutation) -> bool {
    match mutation {
        Mutation::DropGhost(var) => remove_first(
            &mut method.body,
            &|s| matches!(s, Stmt::GhostAssign { target, .. } if target == var),
        ),
        Mutation::DropFieldWrite(field) => remove_first(
            &mut method.body,
            &|s| matches!(s, Stmt::Assign(Lvalue::Field(_, f), _) if f == field),
        ),
        Mutation::EnsuresUnToDiff => union_to_diff(&mut method.contract.ensures),
        Mutation::OffByOne(var) => edit_first(&mut method.body, &mut |s| match s {
            Stmt::Assign(lv, Expr::Plus(_, k) | Expr::Minus(_, k)) if names(lv, var) => {
                match k.as_mut() {
                    Expr::IntLit(n) => {
                        *n += 1;
                        true
                    }
                    _ => false,
                }
            }
            _ => false,
        }),
        Mutation::DropRequires(label) => {
            let conjuncts: Vec<Form> = method
                .contract
                .requires
                .conjuncts()
                .into_iter()
                .cloned()
                .collect();
            let kept: Vec<Form> = conjuncts
                .iter()
                .filter(|c| !c.strip_comments().0.contains(&label.as_str()))
                .cloned()
                .collect();
            method.contract.requires = Form::and(kept.clone());
            kept.len() < conjuncts.len()
        }
    }
}

fn names(lv: &Lvalue, var: &str) -> bool {
    match lv {
        Lvalue::Local(v) | Lvalue::Static(v) | Lvalue::Field(_, v) => v == var,
        Lvalue::ArrayElem(..) => false,
    }
}

/// Removes the first statement (pre-order) satisfying `pred`.
fn remove_first(stmts: &mut Vec<Stmt>, pred: &dyn Fn(&Stmt) -> bool) -> bool {
    if let Some(i) = stmts.iter().position(pred) {
        stmts.remove(i);
        return true;
    }
    stmts.iter_mut().any(|s| match s {
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => remove_first(then_branch, pred) || remove_first(else_branch, pred),
        Stmt::While { body, .. } => remove_first(body, pred),
        _ => false,
    })
}

/// Applies `edit` to statements in pre-order until it reports a change.
fn edit_first(stmts: &mut [Stmt], edit: &mut dyn FnMut(&mut Stmt) -> bool) -> bool {
    stmts.iter_mut().any(|s| {
        edit(s)
            || match s {
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => edit_first(then_branch, edit) || edit_first(else_branch, edit),
                Stmt::While { body, .. } => edit_first(body, edit),
                _ => false,
            }
    })
}

/// Rewrites the first binary union (pre-order) into a set difference.
fn union_to_diff(form: &mut Form) -> bool {
    match form {
        Form::App(head, args) => {
            if args.len() == 2 && **head == Form::Const(Const::Union) {
                **head = Form::Const(Const::Diff);
                return true;
            }
            union_to_diff(head) || args.iter_mut().any(union_to_diff)
        }
        Form::Binder(_, _, body) => union_to_diff(body),
        Form::Typed(inner, _) => union_to_diff(inner),
        Form::Var(_) | Form::Const(_) => false,
    }
}
