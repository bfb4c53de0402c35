//! Type inference and checking for specification formulas.
//!
//! Jahob formulas are simply typed (§3.1). The frontend declares the types of program
//! variables, fields and specification variables in a [`TypeEnv`]; this module infers the
//! types of bound variables and checks consistency by unification. Remaining unconstrained
//! type variables default to `obj`, matching Jahob's convention that untyped specification
//! variables range over objects.

use crate::form::{Binder, Const, Form, Ident};
use crate::types::Type;
use std::collections::BTreeMap;
use std::fmt;

/// The typing environment: types of free variables (program variables, fields, class-name
/// sets, specification variables).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct TypeEnv {
    vars: BTreeMap<Ident, Type>,
}

impl TypeEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        TypeEnv::default()
    }

    /// Creates the standard Jahob environment containing `alloc`, `arrayState`,
    /// `Array.length` and the built-in `Object` class set.
    pub fn standard() -> Self {
        let mut env = TypeEnv::new();
        env.insert("alloc", Type::obj_set());
        env.insert("arrayState", Type::obj_array_state());
        env.insert("Array.length", Type::int_field());
        env.insert("Object", Type::obj_set());
        env.insert("Array", Type::obj_set());
        env
    }

    /// Declares (or overwrites) the type of a free variable.
    pub fn insert(&mut self, name: impl Into<Ident>, ty: Type) {
        self.vars.insert(name.into(), ty);
    }

    /// Looks up the type of a free variable.
    pub fn get(&self, name: &str) -> Option<&Type> {
        self.vars.get(name)
    }

    /// Returns `true` if the variable is declared.
    pub fn contains(&self, name: &str) -> bool {
        self.vars.contains_key(name)
    }

    /// Iterates over all declared variables.
    pub fn iter(&self) -> impl Iterator<Item = (&Ident, &Type)> {
        self.vars.iter()
    }

    /// Merges another environment into this one (later declarations win).
    pub fn extend(&mut self, other: &TypeEnv) {
        for (k, v) in &other.vars {
            self.vars.insert(k.clone(), v.clone());
        }
    }
}

/// A type error detected during inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.message)
    }
}

impl std::error::Error for TypeError {}

/// Result of type inference: the elaborated formula (binder annotations resolved), its
/// type, and the inferred types of free variables that were not declared in the
/// environment.
#[derive(Debug, Clone)]
pub struct Inference {
    /// The input formula with binder types resolved (defaulting unknowns to `obj`).
    pub form: Form,
    /// The type of the whole formula.
    pub ty: Type,
    /// Types inferred for free variables absent from the environment.
    pub undeclared: BTreeMap<Ident, Type>,
}

/// Infers the type of `form` under `env` and checks consistency.
///
/// # Errors
///
/// Returns a [`TypeError`] if the formula cannot be consistently typed (e.g. an integer
/// used as a set).
///
/// # Examples
///
/// ```
/// use jahob_logic::{parser::parse_form, typecheck::{infer, TypeEnv}, types::Type};
/// let mut env = TypeEnv::standard();
/// env.insert("content", Type::obj_set());
/// env.insert("x", Type::Obj);
/// let f = parse_form("x : content & card content >= 0").expect("parse");
/// let inf = infer(&f, &env).expect("well-typed");
/// assert_eq!(inf.ty, Type::Bool);
/// ```
pub fn infer(form: &Form, env: &TypeEnv) -> Result<Inference, TypeError> {
    let mut cx = Cx {
        unifier: BTreeMap::new(),
        next: 0,
        undeclared: BTreeMap::new(),
    };
    let mut scope: Vec<(Ident, Type)> = Vec::new();
    let ty = cx.infer(form, env, &mut scope)?;
    let resolved_ty = cx.default_unknowns(&cx.resolve(&ty));
    let resolved_form = cx.annotate(form, &mut Vec::new());
    let undeclared = cx
        .undeclared
        .clone()
        .into_iter()
        .map(|(k, v)| (k, cx.default_unknowns(&cx.resolve(&v))))
        .collect();
    Ok(Inference {
        form: resolved_form,
        ty: resolved_ty,
        undeclared,
    })
}

/// Infers the types of boolean `forms` jointly under `env`, so a free variable has one
/// type across all of them. Returns the forms with their binder types resolved and the
/// types of every free variable the environment does not declare. Unlike [`infer`], a
/// type no formula constrains stays a [`Type::Var`] instead of defaulting to `obj`: a
/// caller that builds models needs to know which types the formulas leave open. An open
/// type variable is numbered from [`OPEN_TYVARS`] up, apart from the numbers the parser
/// and inference invent, so the types can go into a later environment as they are.
///
/// # Errors
///
/// Returns a [`TypeError`] if the forms cannot be typed consistently as booleans.
pub fn infer_jointly(
    forms: &[Form],
    env: &TypeEnv,
) -> Result<(Vec<Form>, BTreeMap<Ident, Type>), TypeError> {
    let mut cx = Cx {
        unifier: BTreeMap::new(),
        next: 0,
        undeclared: BTreeMap::new(),
    };
    // The parser numbers each formula's open binder types from the same start, so two
    // formulas' binders get type variables of their own before they are unified.
    let forms: Vec<Form> = forms
        .iter()
        .map(|f| cx.freshen(f, &mut BTreeMap::new()))
        .collect();
    for form in &forms {
        let ty = cx.infer(form, env, &mut Vec::new())?;
        cx.unify(&ty, &Type::Bool)?;
    }
    let forms = forms
        .iter()
        .map(|f| cx.annotate_open(f, &mut Vec::new()))
        .collect();
    let undeclared = cx
        .undeclared
        .iter()
        .map(|(k, v)| (k.clone(), reopen(&cx.resolve(v))))
        .collect();
    Ok((forms, undeclared))
}

/// The first number of the type variables [`infer_jointly`] leaves open.
pub const OPEN_TYVARS: u32 = 1 << 31;

fn reopen(t: &Type) -> Type {
    match t {
        Type::Var(v) => Type::Var(v | OPEN_TYVARS),
        Type::Set(e) => Type::set(reopen(e)),
        Type::Prod(ts) => Type::Prod(ts.iter().map(reopen).collect()),
        Type::Fun(a, b) => Type::fun(reopen(a), reopen(b)),
        _ => t.clone(),
    }
}

/// Checks that `form` is a well-typed boolean formula under `env`.
///
/// # Errors
///
/// Returns a [`TypeError`] if inference fails or the result type is not `bool`.
pub fn check_bool(form: &Form, env: &TypeEnv) -> Result<Inference, TypeError> {
    let inf = infer(form, env)?;
    if inf.ty != Type::Bool {
        return Err(TypeError {
            message: format!("expected a boolean formula, found type {}", inf.ty),
        });
    }
    Ok(inf)
}

struct Cx {
    unifier: BTreeMap<u32, Type>,
    next: u32,
    undeclared: BTreeMap<Ident, Type>,
}

impl Cx {
    fn fresh(&mut self) -> Type {
        self.next += 1;
        Type::Var(self.next + 2_000_000)
    }

    fn resolve(&self, t: &Type) -> Type {
        match t {
            Type::Var(v) => match self.unifier.get(v) {
                Some(bound) => self.resolve(bound),
                None => t.clone(),
            },
            Type::Set(e) => Type::set(self.resolve(e)),
            Type::Prod(ts) => Type::Prod(ts.iter().map(|t| self.resolve(t)).collect()),
            Type::Fun(a, b) => Type::fun(self.resolve(a), self.resolve(b)),
            _ => t.clone(),
        }
    }

    fn default_unknowns(&self, t: &Type) -> Type {
        match t {
            Type::Var(_) => Type::Obj,
            Type::Set(e) => Type::set(self.default_unknowns(e)),
            Type::Prod(ts) => Type::Prod(ts.iter().map(|t| self.default_unknowns(t)).collect()),
            Type::Fun(a, b) => Type::fun(self.default_unknowns(a), self.default_unknowns(b)),
            _ => t.clone(),
        }
    }

    fn unify(&mut self, a: &Type, b: &Type) -> Result<(), TypeError> {
        let a = self.resolve(a);
        let b = self.resolve(b);
        match (&a, &b) {
            (Type::Var(v), _) => {
                if a != b {
                    self.bind(*v, b)?;
                }
                Ok(())
            }
            (_, Type::Var(v)) => self.bind(*v, a),
            (Type::Bool, Type::Bool) | (Type::Int, Type::Int) | (Type::Obj, Type::Obj) => Ok(()),
            (Type::Set(x), Type::Set(y)) => self.unify(x, y),
            (Type::Fun(a1, b1), Type::Fun(a2, b2)) => {
                self.unify(a1, a2)?;
                self.unify(b1, b2)
            }
            (Type::Prod(xs), Type::Prod(ys)) if xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys.iter()) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            _ => Err(TypeError {
                message: format!("cannot unify {a} with {b}"),
            }),
        }
    }

    fn bind(&mut self, v: u32, t: Type) -> Result<(), TypeError> {
        let mut occurs = Vec::new();
        t.type_vars(&mut occurs);
        if occurs.contains(&v) {
            return Err(TypeError {
                message: format!("occurs check failed binding ?t{v} to {t}"),
            });
        }
        self.unifier.insert(v, t);
        Ok(())
    }

    fn const_type(&mut self, c: &Const) -> Type {
        if let Some(t) = c.fixed_type() {
            return t;
        }
        use Const::*;
        match c {
            EmptySet | UnivSet => Type::set(self.fresh()),
            Eq => {
                let a = self.fresh();
                Type::fun_n(&[a.clone(), a], Type::Bool)
            }
            Ite => {
                let a = self.fresh();
                Type::fun_n(&[Type::Bool, a.clone(), a.clone()], a)
            }
            Elem => {
                let a = self.fresh();
                Type::fun_n(&[a.clone(), Type::set(a)], Type::Bool)
            }
            Union | Inter | Diff => {
                let a = Type::set(self.fresh());
                Type::fun_n(&[a.clone(), a.clone()], a)
            }
            // `-` is overloaded between integer subtraction and set difference; give it
            // the same-type signature so both uses are accepted.
            Minus => {
                let a = self.fresh();
                Type::fun_n(&[a.clone(), a.clone()], a)
            }
            Subset | SubsetEq => {
                let a = Type::set(self.fresh());
                Type::fun_n(&[a.clone(), a], Type::Bool)
            }
            Card => Type::fun(Type::set(self.fresh()), Type::Int),
            FieldWrite => {
                let a = self.fresh();
                let b = self.fresh();
                let f = Type::fun(a.clone(), b.clone());
                Type::fun_n(&[f.clone(), a, b], f)
            }
            FieldRead => {
                let a = self.fresh();
                let b = self.fresh();
                Type::fun_n(&[Type::fun(a.clone(), b.clone()), a], b)
            }
            ArrayRead => Type::fun_n(&[Type::obj_array_state(), Type::Obj, Type::Int], Type::Obj),
            ArrayWrite => Type::fun_n(
                &[Type::obj_array_state(), Type::Obj, Type::Int, Type::Obj],
                Type::obj_array_state(),
            ),
            Rtrancl => {
                let a = self.fresh();
                let p = Type::fun_n(&[a.clone(), a.clone()], Type::Bool);
                Type::fun_n(&[p, a.clone(), a], Type::Bool)
            }
            Old => {
                let a = self.fresh();
                Type::fun(a.clone(), a)
            }
            Comment(_) => Type::fun(Type::Bool, Type::Bool),
            Tree => Type::Bool,
            ObjLocs => Type::obj_set(),
            // FiniteSet and Tuple are variadic; handled specially in `infer_app`.
            FiniteSet | Tuple => self.fresh(),
            _ => self.fresh(),
        }
    }

    fn lookup_var(&mut self, name: &Ident, env: &TypeEnv, scope: &[(Ident, Type)]) -> Type {
        if let Some((_, t)) = scope.iter().rev().find(|(v, _)| v == name) {
            return t.clone();
        }
        if let Some(t) = env.get(name) {
            return t.clone();
        }
        if let Some(t) = self.undeclared.get(name) {
            return t.clone();
        }
        let t = self.fresh();
        self.undeclared.insert(name.clone(), t.clone());
        t
    }

    fn infer(
        &mut self,
        form: &Form,
        env: &TypeEnv,
        scope: &mut Vec<(Ident, Type)>,
    ) -> Result<Type, TypeError> {
        match form {
            Form::Var(name) => Ok(self.lookup_var(name, env, scope)),
            Form::Const(c) => Ok(self.const_type(c)),
            Form::Typed(f, t) => {
                let ft = self.infer(f, env, scope)?;
                self.unify(&ft, t)?;
                Ok(t.clone())
            }
            Form::Binder(binder, vars, body) => {
                let n = vars.len();
                scope.extend(vars.iter().cloned());
                let body_ty = self.infer(body, env, scope)?;
                let var_tys: Vec<Type> = scope[scope.len() - n..]
                    .iter()
                    .map(|(_, t)| t.clone())
                    .collect();
                scope.truncate(scope.len() - n);
                match binder {
                    Binder::Forall | Binder::Exists => {
                        self.unify(&body_ty, &Type::Bool)?;
                        Ok(Type::Bool)
                    }
                    Binder::Lambda => Ok(Type::fun_n(&var_tys, body_ty)),
                    Binder::Comprehension => {
                        self.unify(&body_ty, &Type::Bool)?;
                        Ok(Type::set(Type::prod(var_tys)))
                    }
                }
            }
            Form::App(fun, args) => self.infer_app(fun, args, env, scope),
        }
    }

    fn infer_app(
        &mut self,
        fun: &Form,
        args: &[Form],
        env: &TypeEnv,
        scope: &mut Vec<(Ident, Type)>,
    ) -> Result<Type, TypeError> {
        // Variadic constants.
        if let Form::Const(c) = fun {
            match c {
                Const::FiniteSet => {
                    let elem = self.fresh();
                    for a in args {
                        let t = self.infer(a, env, scope)?;
                        self.unify(&t, &elem).map_err(|e| TypeError {
                            message: format!("in finite set display {{...}}: {}", e.message),
                        })?;
                    }
                    return Ok(Type::set(elem));
                }
                Const::Tuple => {
                    let tys = args
                        .iter()
                        .map(|a| self.infer(a, env, scope))
                        .collect::<Result<Vec<_>, _>>()?;
                    return Ok(Type::prod(tys));
                }
                Const::And | Const::Or => {
                    for a in args {
                        let t = self.infer(a, env, scope)?;
                        self.unify(&t, &Type::Bool)?;
                    }
                    return Ok(Type::Bool);
                }
                Const::Tree => {
                    for a in args {
                        let t = self.infer(a, env, scope)?;
                        self.unify(&t, &Type::obj_field())?;
                    }
                    return Ok(Type::Bool);
                }
                _ => {}
            }
        }
        let mut fun_ty = self.infer(fun, env, scope)?;
        for (i, a) in args.iter().enumerate() {
            let arg_ty = self.infer(a, env, scope)?;
            let res = self.fresh();
            self.unify(&fun_ty, &Type::fun(arg_ty.clone(), res.clone()))
                .map_err(|e| TypeError {
                    message: format!("applying {fun} to argument {} ({a}): {}", i + 1, e.message),
                })?;
            fun_ty = res;
        }
        Ok(fun_ty)
    }

    /// Rewrites binder annotations with their resolved types.
    fn annotate(&self, form: &Form, scope: &mut Vec<(Ident, Type)>) -> Form {
        self.annotate_with(form, scope, true)
    }

    /// `form` with each type variable of its binder annotations replaced by a fresh one,
    /// the same variable by the same fresh one.
    fn freshen(&mut self, form: &Form, map: &mut BTreeMap<u32, Type>) -> Form {
        match form {
            Form::Var(_) | Form::Const(_) => form.clone(),
            Form::Typed(f, t) => Form::Typed(Box::new(self.freshen(f, map)), t.clone()),
            Form::App(f, args) => Form::App(
                Box::new(self.freshen(f, map)),
                args.iter().map(|a| self.freshen(a, map)).collect(),
            ),
            Form::Binder(b, vars, body) => {
                let vars = vars
                    .iter()
                    .map(|(v, t)| (v.clone(), self.freshen_type(t, map)))
                    .collect();
                Form::Binder(*b, vars, Box::new(self.freshen(body, map)))
            }
        }
    }

    fn freshen_type(&mut self, t: &Type, map: &mut BTreeMap<u32, Type>) -> Type {
        match t {
            Type::Var(v) => match map.get(v) {
                Some(fresh) => fresh.clone(),
                None => {
                    let fresh = self.fresh();
                    map.insert(*v, fresh.clone());
                    fresh
                }
            },
            Type::Set(e) => Type::set(self.freshen_type(e, map)),
            Type::Prod(ts) => Type::Prod(ts.iter().map(|t| self.freshen_type(t, map)).collect()),
            Type::Fun(a, b) => Type::fun(self.freshen_type(a, map), self.freshen_type(b, map)),
            _ => t.clone(),
        }
    }

    /// [`Cx::annotate`] that leaves unconstrained types open.
    fn annotate_open(&self, form: &Form, scope: &mut Vec<(Ident, Type)>) -> Form {
        self.annotate_with(form, scope, false)
    }

    fn annotate_with(&self, form: &Form, scope: &mut Vec<(Ident, Type)>, default: bool) -> Form {
        match form {
            Form::Var(_) | Form::Const(_) => form.clone(),
            Form::Typed(f, t) => {
                Form::Typed(Box::new(self.annotate_with(f, scope, default)), t.clone())
            }
            Form::App(f, args) => Form::App(
                Box::new(self.annotate_with(f, scope, default)),
                args.iter()
                    .map(|a| self.annotate_with(a, scope, default))
                    .collect(),
            ),
            Form::Binder(b, vars, body) => {
                let new_vars: Vec<(Ident, Type)> = vars
                    .iter()
                    .map(|(v, t)| {
                        let t = self.resolve(t);
                        (
                            v.clone(),
                            if default {
                                self.default_unknowns(&t)
                            } else {
                                reopen(&t)
                            },
                        )
                    })
                    .collect();
                let n = vars.len();
                scope.extend(vars.iter().cloned());
                let body = self.annotate_with(body, scope, default);
                scope.truncate(scope.len() - n);
                Form::Binder(*b, new_vars, Box::new(body))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;

    fn assoc_list_env() -> TypeEnv {
        let mut env = TypeEnv::standard();
        env.insert("Node", Type::obj_set());
        env.insert("AssocList", Type::obj_set());
        env.insert("Node.next", Type::obj_field());
        env.insert("next", Type::obj_field());
        env.insert("key", Type::obj_field());
        env.insert("value", Type::obj_field());
        env.insert("cnt", Type::fun(Type::Obj, Type::obj_rel()));
        env.insert("content", Type::obj_rel());
        env.insert("first", Type::Obj);
        env.insert("k0", Type::Obj);
        env.insert("v0", Type::Obj);
        env.insert("result", Type::Obj);
        env
    }

    #[test]
    fn infers_simple_boolean_formula() {
        let env = assoc_list_env();
        let f = parse_form("k0 ~= null & v0 ~= null").expect("parse");
        assert_eq!(infer(&f, &env).expect("ok").ty, Type::Bool);
    }

    #[test]
    fn infers_assoc_list_ensures_clause() {
        let env = assoc_list_env();
        let f = parse_form(
            "content = old content - {(k0, result)} Un {(k0, v0)} & \
             (result = null --> ~(EX v. (k0, v) : old content))",
        )
        .expect("parse");
        let inf = check_bool(&f, &env).expect("well-typed");
        assert_eq!(inf.ty, Type::Bool);
    }

    #[test]
    fn infers_cnt_invariant_with_field_reads() {
        let env = assoc_list_env();
        let f = parse_form(
            "ALL x. x : Node & x : alloc & x ~= null --> \
             x..cnt = {(x..key, x..value)} Un x..next..cnt",
        )
        .expect("parse");
        let inf = check_bool(&f, &env).expect("well-typed");
        // The bound variable must have been resolved to obj.
        match &inf.form {
            Form::Binder(Binder::Forall, vars, _) => assert_eq!(vars[0].1, Type::Obj),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infers_cardinality_invariant() {
        let mut env = TypeEnv::standard();
        env.insert("size", Type::Int);
        env.insert("content", Type::obj_set());
        let f = parse_form("size = card content").expect("parse");
        assert_eq!(check_bool(&f, &env).expect("ok").ty, Type::Bool);
    }

    #[test]
    fn infers_rtrancl_and_comprehension() {
        let mut env = TypeEnv::standard();
        env.insert("root", Type::Obj);
        env.insert("next", Type::obj_field());
        env.insert("nodes", Type::obj_set());
        let f = parse_form("nodes = {n. n ~= null & rtrancl_pt (% u v. u..next = v) root n}")
            .expect("parse");
        assert_eq!(check_bool(&f, &env).expect("ok").ty, Type::Bool);
    }

    #[test]
    fn rejects_ill_typed_formulas() {
        let mut env = TypeEnv::standard();
        env.insert("s", Type::obj_set());
        env.insert("i", Type::Int);
        let f = parse_form("i : s").expect("parse");
        assert!(infer(&f, &env).is_err());
        let g = parse_form("card i = 0").expect("parse");
        assert!(infer(&g, &env).is_err());
    }

    #[test]
    fn check_bool_rejects_non_boolean() {
        let mut env = TypeEnv::standard();
        env.insert("i", Type::Int);
        let f = parse_form("i + 1").expect("parse");
        assert!(check_bool(&f, &env).is_err());
    }

    #[test]
    fn undeclared_variables_are_reported_with_inferred_types() {
        let env = TypeEnv::standard();
        let f = parse_form("mystery : alloc").expect("parse");
        let inf = infer(&f, &env).expect("ok");
        assert_eq!(inf.undeclared.get("mystery"), Some(&Type::Obj));
    }

    #[test]
    fn minus_is_overloaded_for_sets_and_integers() {
        let mut env = TypeEnv::standard();
        env.insert("a", Type::obj_set());
        env.insert("b", Type::obj_set());
        env.insert("i", Type::Int);
        let f = parse_form("a - b = a & i - 1 < i").expect("parse");
        assert!(check_bool(&f, &env).is_ok());
    }

    #[test]
    fn function_update_preserves_field_type() {
        let mut env = TypeEnv::standard();
        env.insert("next", Type::obj_field());
        env.insert("x", Type::Obj);
        env.insert("y", Type::Obj);
        let f = parse_form("next(x := y) = next").expect("parse");
        assert!(check_bool(&f, &env).is_ok());
        let bad = parse_form("next(x := 3) = next").expect("parse");
        assert!(check_bool(&bad, &env).is_err());
    }
}
