//! The rewrites that brought a sequent into a prover's fragment, on `Form` trees, as
//! the library ran them before the formula bank (`Bank::expand_membership` and the
//! rules of `Bank::first_order_implication`).

use jahob_logic::form::{Binder, Const, Form};
use jahob_logic::rewrite::rewrite_fixpoint;
use jahob_logic::subst::{beta_reduce, free_vars, fresh_name};
use jahob_logic::types::Type;
use std::collections::BTreeSet;

/// Expands membership in set-algebraic expressions into propositional structure:
///
/// * `x : A Un B`   becomes `x : A | x : B`
/// * `x : A Int B`  becomes `x : A & x : B`
/// * `x : A \ B` and `x : A - B` become `x : A & ~(x : B)`
/// * `x : {a, b}`   becomes `x = a | x = b`
/// * `x : {}` / `x : UNIV` become `False` / `True`
/// * `x : {y. F}`   becomes `F[y := x]` (via beta reduction)
/// * `x : fieldWrite f y v` style terms are left untouched.
pub fn expand_set_membership(form: &Form) -> Form {
    rewrite_fixpoint(&beta_reduce(form), &|f| {
        let args = f.as_app_of(&Const::Elem)?;
        let [x, s] = args else { return None };
        if let Some(parts) = s.as_app_of(&Const::Union) {
            return Some(Form::or(
                parts
                    .iter()
                    .map(|p| Form::elem(x.clone(), p.clone()))
                    .collect(),
            ));
        }
        if let Some(parts) = s.as_app_of(&Const::Inter) {
            return Some(Form::and(
                parts
                    .iter()
                    .map(|p| Form::elem(x.clone(), p.clone()))
                    .collect(),
            ));
        }
        if let Some([a, b]) = s
            .as_app_of(&Const::Diff)
            .or_else(|| s.as_app_of(&Const::Minus))
        {
            return Some(Form::and(vec![
                Form::elem(x.clone(), a.clone()),
                Form::not(Form::elem(x.clone(), b.clone())),
            ]));
        }
        if let Some(elems) = s.as_app_of(&Const::FiniteSet) {
            return Some(Form::or(
                elems
                    .iter()
                    .map(|e| Form::eq(x.clone(), e.clone()))
                    .collect(),
            ));
        }
        if matches!(s, Form::Const(Const::EmptySet)) {
            return Some(Form::ff());
        }
        if matches!(s, Form::Const(Const::UnivSet)) {
            return Some(Form::tt());
        }
        if let Form::Binder(Binder::Comprehension, _, _) = s {
            // beta_reduce handles well-formed comprehension membership; reaching this
            // point means the element/tuple arity did not match, so leave it alone.
            return None;
        }
        None
    })
}

/// Expands equalities and subset relations over set-typed expressions into universally
/// quantified membership formulas (extensionality), and tuple equalities into
/// component-wise equalities. `set_typed` decides whether an expression denotes a set;
/// callers that have run type inference can supply a precise predicate, while a
/// syntactic heuristic ([`looks_like_set`]) is adequate for the VC shapes Jahob produces.
pub fn expand_complex_equalities(form: &Form, set_typed: &dyn Fn(&Form) -> bool) -> Form {
    rewrite_fixpoint(form, &|f| {
        if let Some([l, r]) = f.as_app_of(&Const::Eq) {
            // Tuple equality.
            if let (Some(ls), Some(rs)) = (l.as_app_of(&Const::Tuple), r.as_app_of(&Const::Tuple)) {
                if ls.len() == rs.len() {
                    return Some(Form::and(
                        ls.iter()
                            .zip(rs.iter())
                            .map(|(a, b)| Form::eq(a.clone(), b.clone()))
                            .collect(),
                    ));
                }
            }
            // Set extensionality.
            if set_typed(l) || set_typed(r) {
                let avoid = free_vars(f);
                let v = fresh_name("elt", &avoid);
                return Some(Form::forall(
                    v.clone(),
                    Type::Obj,
                    Form::iff(
                        Form::elem(Form::var(v.clone()), l.clone()),
                        Form::elem(Form::var(v), r.clone()),
                    ),
                ));
            }
        }
        if let Some([l, r]) = f.as_app_of(&Const::SubsetEq) {
            let avoid = free_vars(f);
            let v = fresh_name("elt", &avoid);
            return Some(Form::forall(
                v.clone(),
                Type::Obj,
                Form::implies(
                    Form::elem(Form::var(v.clone()), l.clone()),
                    Form::elem(Form::var(v), r.clone()),
                ),
            ));
        }
        None
    })
}

/// Expands equalities between function-typed expressions pointwise: `f = g` becomes
/// `ALL z. f z = g z` when either side is a partial `fieldWrite` expression or a
/// variable in `fun_vars` (the declared fields).
pub fn expand_function_equalities(form: &Form, fun_vars: &BTreeSet<String>) -> Form {
    let is_fun = |f: &Form| -> bool {
        match f {
            Form::Var(v) => fun_vars.contains(v),
            // A partial `fieldWrite f x v` (exactly three arguments) denotes a function;
            // with a fourth argument it is already applied to a point and is a value.
            Form::App(head, args) => {
                matches!(head.as_ref(), Form::Const(Const::FieldWrite)) && args.len() == 3
            }
            _ => false,
        }
    };
    rewrite_fixpoint(form, &|f| {
        let [l, r] = f.as_app_of(&Const::Eq)? else {
            return None;
        };
        if is_fun(l) || is_fun(r) {
            let avoid = free_vars(f);
            let z = fresh_name("ptr", &avoid);
            return Some(Form::forall(
                z.clone(),
                Type::Obj,
                Form::eq(
                    Form::app(l.clone(), vec![Form::var(z.clone())]),
                    Form::app(r.clone(), vec![Form::var(z)]),
                ),
            ));
        }
        None
    })
}

/// A syntactic heuristic for "this expression denotes a set": set constants, set
/// operations, comprehensions and variables with conventional set names.
pub fn looks_like_set(f: &Form) -> bool {
    match f {
        Form::Const(Const::EmptySet) | Form::Const(Const::UnivSet) => true,
        Form::Binder(Binder::Comprehension, _, _) => true,
        Form::App(fun, _) => matches!(
            fun.as_ref(),
            Form::Const(Const::Union)
                | Form::Const(Const::Inter)
                | Form::Const(Const::Diff)
                | Form::Const(Const::FiniteSet)
        ),
        Form::Typed(inner, t) => t.is_set() || looks_like_set(inner),
        _ => false,
    }
}

/// Expands applications of function updates: `(fieldWrite f x v) y` becomes
/// `ite (y = x) v (f y)`, and (after simplification by the caller) the `ite` can be lifted
/// by [`lift_ite`] for provers without if-then-else.
pub fn expand_field_write_applications(form: &Form) -> Form {
    rewrite_fixpoint(form, &|f| {
        if let Form::App(fun, args) = f {
            // Applications are kept flattened, so `(fieldWrite f x v) y` appears as
            // `App(fieldWrite, [f, x, v, y, ...])`.
            if let Form::Const(Const::FieldWrite) = fun.as_ref() {
                if args.len() >= 4 {
                    let (base, at, val, arg) = (&args[0], &args[1], &args[2], &args[3]);
                    let applied = Form::ite(
                        Form::eq(arg.clone(), at.clone()),
                        val.clone(),
                        Form::app(base.clone(), vec![arg.clone()]),
                    );
                    let rest: Vec<Form> = args[4..].to_vec();
                    return Some(Form::app(applied, rest));
                }
            }
            if let Some(parts) = fun.as_app_of(&Const::FieldWrite) {
                if parts.len() == 3 && args.len() == 1 {
                    let (base, at, val) = (&parts[0], &parts[1], &parts[2]);
                    let arg = &args[0];
                    return Some(Form::ite(
                        Form::eq(arg.clone(), at.clone()),
                        val.clone(),
                        Form::app(base.clone(), vec![arg.clone()]),
                    ));
                }
            }
            // arrayRead (arrayWrite st a i v) b j
            if let Form::Const(Const::ArrayRead) = fun.as_ref() {
                if args.len() == 3 {
                    if let Some(w) = args[0].as_app_of(&Const::ArrayWrite) {
                        if w.len() == 4 {
                            let (st, a, i, v) = (&w[0], &w[1], &w[2], &w[3]);
                            let (b, j) = (&args[1], &args[2]);
                            return Some(Form::ite(
                                Form::and(vec![
                                    Form::eq(b.clone(), a.clone()),
                                    Form::eq(j.clone(), i.clone()),
                                ]),
                                v.clone(),
                                Form::array_read(st.clone(), b.clone(), j.clone()),
                            ));
                        }
                    }
                }
            }
        }
        None
    })
}

/// Lifts `ite` terms appearing under atoms into propositional case splits:
/// `P(ite c t e)` becomes `(c --> P(t)) & (~c --> P(e))` for atoms `P` (equalities,
/// comparisons, membership). Runs to a fixpoint so nested `ite`s are fully removed.
pub fn lift_ite(form: &Form) -> Form {
    rewrite_fixpoint(form, &|f| {
        let (c, head_const) = match f {
            Form::App(fun, _) => match fun.as_ref() {
                Form::Const(
                    c2 @ (Const::Eq
                    | Const::Lt
                    | Const::LtEq
                    | Const::Gt
                    | Const::GtEq
                    | Const::Elem
                    | Const::SubsetEq),
                ) => (f, c2.clone()),
                _ => return None,
            },
            _ => return None,
        };
        let args = c.as_app_of(&head_const)?;
        for (idx, a) in args.iter().enumerate() {
            if let Some([cond, then, els]) = a.as_app_of(&Const::Ite) {
                let mut then_args = args.to_vec();
                then_args[idx] = then.clone();
                let mut else_args = args.to_vec();
                else_args[idx] = els.clone();
                return Some(Form::and(vec![
                    Form::implies(
                        cond.clone(),
                        Form::app(Form::Const(head_const.clone()), then_args),
                    ),
                    Form::implies(
                        Form::not(cond.clone()),
                        Form::app(Form::Const(head_const.clone()), else_args),
                    ),
                ]));
            }
        }
        None
    })
}
