//! Simple types for the Jahob specification logic.
//!
//! The logic is simply typed (following Isabelle/HOL as used by Jahob, §3.1 of the
//! paper) with ground types `bool`, `int` and `obj`, and type constructors for sets,
//! tuples and total functions. Type variables are used only internally during
//! inference ([`crate::typecheck`]).

use std::fmt;

/// A type of the specification logic.
///
/// # Examples
///
/// ```
/// use jahob_logic::types::Type;
/// let t = Type::fun(Type::Obj, Type::set(Type::Obj));
/// assert_eq!(t.to_string(), "obj => obj set");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// Boolean values.
    Bool,
    /// Unbounded mathematical integers (§4.1: Jahob models `int` as unbounded).
    Int,
    /// Object identifiers; the semantic domain `obj` of §2.1.
    Obj,
    /// `t set`: sets of elements of the given type.
    Set(Box<Type>),
    /// `t1 * t2 * ...`: tuples.
    Prod(Vec<Type>),
    /// `t1 => t2`: total functions.
    Fun(Box<Type>, Box<Type>),
    /// Inference variable; never appears in fully elaborated formulas.
    Var(u32),
}

impl Type {
    /// Builds a set type over `elem`.
    pub fn set(elem: Type) -> Type {
        Type::Set(Box::new(elem))
    }

    /// Builds a function type `from => to`.
    pub fn fun(from: Type, to: Type) -> Type {
        Type::Fun(Box::new(from), Box::new(to))
    }

    /// Builds an n-ary curried function type `args... => to`.
    pub fn fun_n(args: &[Type], to: Type) -> Type {
        args.iter()
            .rev()
            .fold(to, |acc, a| Type::fun(a.clone(), acc))
    }

    /// Builds a product (tuple) type. A singleton product collapses to its component.
    pub fn prod(components: Vec<Type>) -> Type {
        if components.len() == 1 {
            components.into_iter().next().expect("len checked")
        } else {
            Type::Prod(components)
        }
    }

    /// The type of object sets, `obj set`.
    pub fn obj_set() -> Type {
        Type::set(Type::Obj)
    }

    /// The type of object relations, `(obj * obj) set`.
    pub fn obj_rel() -> Type {
        Type::set(Type::prod(vec![Type::Obj, Type::Obj]))
    }

    /// The type of reference fields, `obj => obj`.
    pub fn obj_field() -> Type {
        Type::fun(Type::Obj, Type::Obj)
    }

    /// The type of integer fields, `obj => int`.
    pub fn int_field() -> Type {
        Type::fun(Type::Obj, Type::Int)
    }

    /// The type of object arrays, `obj => int => obj` (§4.1).
    pub fn obj_array_state() -> Type {
        Type::fun(Type::Obj, Type::fun(Type::Int, Type::Obj))
    }

    /// Returns `true` if the type contains no inference variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Type::Bool | Type::Int | Type::Obj => true,
            Type::Set(t) => t.is_ground(),
            Type::Prod(ts) => ts.iter().all(Type::is_ground),
            Type::Fun(a, b) => a.is_ground() && b.is_ground(),
            Type::Var(_) => false,
        }
    }

    /// Returns `true` if this is a function type.
    pub fn is_fun(&self) -> bool {
        matches!(self, Type::Fun(_, _))
    }

    /// Returns `true` if this is a set type.
    pub fn is_set(&self) -> bool {
        matches!(self, Type::Set(_))
    }

    /// Decomposes a curried function type into argument types and the final result.
    pub fn uncurry(&self) -> (Vec<&Type>, &Type) {
        let mut args = Vec::new();
        let mut cur = self;
        while let Type::Fun(a, b) = cur {
            args.push(a.as_ref());
            cur = b.as_ref();
        }
        (args, cur)
    }

    /// Collects the inference variables occurring in the type.
    pub fn type_vars(&self, acc: &mut Vec<u32>) {
        match self {
            Type::Bool | Type::Int | Type::Obj => {}
            Type::Set(t) => t.type_vars(acc),
            Type::Prod(ts) => ts.iter().for_each(|t| t.type_vars(acc)),
            Type::Fun(a, b) => {
                a.type_vars(acc);
                b.type_vars(acc);
            }
            Type::Var(v) => {
                if !acc.contains(v) {
                    acc.push(*v);
                }
            }
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Precedence: Fun (lowest, right assoc) < Prod < Set (postfix) < atoms.
        fn go(t: &Type, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
            match t {
                Type::Bool => write!(f, "bool"),
                Type::Int => write!(f, "int"),
                Type::Obj => write!(f, "obj"),
                Type::Var(v) => write!(f, "?t{v}"),
                Type::Set(e) => {
                    go(e, f, 3)?;
                    write!(f, " set")
                }
                Type::Prod(ts) => {
                    let open = prec > 1;
                    if open {
                        write!(f, "(")?;
                    }
                    for (i, t) in ts.iter().enumerate() {
                        if i > 0 {
                            write!(f, " * ")?;
                        }
                        go(t, f, 2)?;
                    }
                    if open {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Type::Fun(a, b) => {
                    let open = prec > 0;
                    if open {
                        write!(f, "(")?;
                    }
                    go(a, f, 1)?;
                    write!(f, " => ")?;
                    go(b, f, 0)?;
                    if open {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
            }
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_ground_types() {
        assert_eq!(Type::Bool.to_string(), "bool");
        assert_eq!(Type::obj_set().to_string(), "obj set");
        assert_eq!(Type::obj_rel().to_string(), "(obj * obj) set");
        assert_eq!(Type::obj_field().to_string(), "obj => obj");
        assert_eq!(Type::obj_array_state().to_string(), "obj => int => obj");
    }

    #[test]
    fn fun_n_builds_curried_type() {
        let t = Type::fun_n(&[Type::Obj, Type::Int], Type::Bool);
        let (args, res) = t.uncurry();
        assert_eq!(args.len(), 2);
        assert_eq!(*res, Type::Bool);
    }

    #[test]
    fn prod_singleton_collapses() {
        assert_eq!(Type::prod(vec![Type::Int]), Type::Int);
    }

    #[test]
    fn groundness() {
        assert!(Type::obj_rel().is_ground());
        assert!(!Type::set(Type::Var(0)).is_ground());
    }

    #[test]
    fn type_vars_collected_once() {
        let t = Type::fun(Type::Var(1), Type::set(Type::Var(1)));
        let mut vs = Vec::new();
        t.type_vars(&mut vs);
        assert_eq!(vs, vec![1]);
    }
}
