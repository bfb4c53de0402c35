//! Logical simplification and normal forms.
//!
//! The verification-condition generator produces large formulas with many trivially true
//! or redundant parts; the splitter and the syntactic prover (§6.1) rely on the
//! simplifications here. The provers use [`nnf`] (negation normal form) as the first step
//! of their translations.

use crate::form::{Binder, Const, Form};
use crate::subst::beta_normal;

/// Simplifies a formula bottom-up: folds boolean constants, removes double negations,
/// collapses trivial equalities and set operations with neutral elements, reduces
/// if-then-else with constant conditions, and beta-reduces lambda redexes.
///
/// The result is logically equivalent to the input.
pub fn simplify(form: &Form) -> Form {
    simp(&beta_normal(form))
}

fn simp(form: &Form) -> Form {
    match form {
        Form::Var(_) | Form::Const(_) => form.clone(),
        Form::Typed(f, t) => Form::Typed(Box::new(simp(f)), t.clone()),
        Form::Binder(b, vars, body) => {
            let body = simp(body);
            match b {
                Binder::Forall => Form::forall_many(vars.clone(), body),
                Binder::Exists => Form::exists_many(vars.clone(), body),
                _ => Form::Binder(*b, vars.clone(), Box::new(body)),
            }
        }
        Form::App(fun, args) => {
            let fun = simp(fun);
            let args: Vec<Form> = args.iter().map(simp).collect();
            simp_app(fun, args)
        }
    }
}

fn simp_app(fun: Form, args: Vec<Form>) -> Form {
    if let Form::Const(c) = &fun {
        match (c, args.as_slice()) {
            (Const::And, _) => return Form::and(args),
            (Const::Or, _) => return Form::or(args),
            (Const::Not, [f]) => return Form::not(f.clone()),
            (Const::Impl, [l, r]) => return Form::implies(l.clone(), r.clone()),
            (Const::Iff, [l, r]) => {
                if l == r {
                    return Form::tt();
                }
                if l.is_true() {
                    return r.clone();
                }
                if r.is_true() {
                    return l.clone();
                }
                if l.is_false() {
                    return Form::not(r.clone());
                }
                if r.is_false() {
                    return Form::not(l.clone());
                }
            }
            (Const::Eq, [l, r]) if l == r => return Form::tt(),
            (Const::Eq, [Form::Const(Const::IntLit(a)), Form::Const(Const::IntLit(b))]) => {
                return Form::Const(Const::BoolLit(a == b));
            }
            // Boolean equality with a literal collapses to the formula (or its negation):
            // `f = True` is `f`, `f = False` is `~f`.
            (Const::Eq, [f, Form::Const(Const::BoolLit(true))])
            | (Const::Eq, [Form::Const(Const::BoolLit(true)), f]) => return f.clone(),
            (Const::Eq, [f, Form::Const(Const::BoolLit(false))])
            | (Const::Eq, [Form::Const(Const::BoolLit(false)), f]) => return Form::not(f.clone()),
            // HOL equality between boolean-valued (formula-shaped) operands is a
            // bi-implication; normalising it to `<->` lets the propositional machinery of
            // the provers see through it.
            (Const::Eq, [l, r]) if is_formula_shaped(l) || is_formula_shaped(r) => {
                return simp_app(Form::Const(Const::Iff), vec![l.clone(), r.clone()]);
            }
            (Const::Eq, [Form::Const(Const::Null), Form::Const(Const::Null)]) => {
                return Form::tt();
            }
            (Const::Lt, [Form::Const(Const::IntLit(a)), Form::Const(Const::IntLit(b))]) => {
                return Form::Const(Const::BoolLit(a < b));
            }
            (Const::LtEq, [Form::Const(Const::IntLit(a)), Form::Const(Const::IntLit(b))]) => {
                return Form::Const(Const::BoolLit(a <= b));
            }
            (Const::Gt, [Form::Const(Const::IntLit(a)), Form::Const(Const::IntLit(b))]) => {
                return Form::Const(Const::BoolLit(a > b));
            }
            (Const::GtEq, [Form::Const(Const::IntLit(a)), Form::Const(Const::IntLit(b))]) => {
                return Form::Const(Const::BoolLit(a >= b));
            }
            (Const::Plus, [Form::Const(Const::IntLit(a)), Form::Const(Const::IntLit(b))]) => {
                return Form::int(a + b);
            }
            (Const::Minus, [Form::Const(Const::IntLit(a)), Form::Const(Const::IntLit(b))]) => {
                return Form::int(a - b);
            }
            (Const::Plus, [x, Form::Const(Const::IntLit(0))]) => return x.clone(),
            (Const::Plus, [Form::Const(Const::IntLit(0)), x]) => return x.clone(),
            (Const::Minus, [x, Form::Const(Const::IntLit(0))]) => return x.clone(),
            (Const::Ite, [c, t, e]) => {
                if c.is_true() {
                    return t.clone();
                }
                if c.is_false() {
                    return e.clone();
                }
                if t == e {
                    return t.clone();
                }
            }
            (Const::Elem, [_, Form::Const(Const::EmptySet)]) => return Form::ff(),
            (Const::Elem, [_, Form::Const(Const::UnivSet)]) => return Form::tt(),
            (Const::Elem, [x, s]) => {
                if let Some(elems) = s.as_app_of(&Const::FiniteSet) {
                    // x : {a} simplifies to x = a (and similarly for larger displays).
                    return Form::or(
                        elems
                            .iter()
                            .map(|e| Form::eq(x.clone(), e.clone()))
                            .collect(),
                    );
                }
            }
            (Const::Union, [Form::Const(Const::EmptySet), x]) => return x.clone(),
            (Const::Union, [x, Form::Const(Const::EmptySet)]) => return x.clone(),
            (Const::Inter, [Form::Const(Const::EmptySet), _]) => return Form::empty_set(),
            (Const::Inter, [_, Form::Const(Const::EmptySet)]) => return Form::empty_set(),
            (Const::Diff, [x, Form::Const(Const::EmptySet)]) => return x.clone(),
            (Const::Union, [x, y]) | (Const::Inter, [x, y]) if x == y => return x.clone(),
            (Const::SubsetEq, [Form::Const(Const::EmptySet), _]) => return Form::tt(),
            (Const::SubsetEq, [x, y]) if x == y => return Form::tt(),
            (Const::Comment(_), [f]) if f.is_true() => return Form::tt(),
            _ => {}
        }
    }
    Form::app(fun, args)
}

/// Returns `true` for expressions that are syntactically boolean-valued formulas:
/// propositional connectives, comparisons, membership/subset atoms, equalities,
/// quantified formulas and boolean literals.
pub fn is_formula_shaped(f: &Form) -> bool {
    match f {
        Form::Const(Const::BoolLit(_)) => true,
        Form::Binder(Binder::Forall | Binder::Exists, _, _) => true,
        Form::Typed(inner, t) => *t == crate::types::Type::Bool || is_formula_shaped(inner),
        Form::App(head, _) => matches!(
            head.as_ref(),
            Form::Const(
                Const::And
                    | Const::Or
                    | Const::Not
                    | Const::Impl
                    | Const::Iff
                    | Const::Eq
                    | Const::Lt
                    | Const::LtEq
                    | Const::Gt
                    | Const::GtEq
                    | Const::Elem
                    | Const::Subset
                    | Const::SubsetEq
                    | Const::Rtrancl
                    | Const::Tree
            )
        ),
        _ => false,
    }
}

/// Converts a formula to negation normal form: negations pushed to atoms, implications
/// and bi-implications expanded, `ite` over booleans expanded. Quantifiers are preserved
/// (and dualised under negation).
pub fn nnf(form: &Form) -> Form {
    nnf_pos(&simplify(form))
}

fn nnf_pos(form: &Form) -> Form {
    match form {
        Form::App(fun, args) => {
            if let Form::Const(c) = fun.as_ref() {
                match (c, args.as_slice()) {
                    (Const::Not, [f]) => return nnf_neg(f),
                    (Const::And, _) => return Form::and(args.iter().map(nnf_pos).collect()),
                    (Const::Or, _) => return Form::or(args.iter().map(nnf_pos).collect()),
                    (Const::Impl, [l, r]) => {
                        return Form::or(vec![nnf_neg(l), nnf_pos(r)]);
                    }
                    (Const::Iff, [l, r]) => {
                        return Form::and(vec![
                            Form::or(vec![nnf_neg(l), nnf_pos(r)]),
                            Form::or(vec![nnf_pos(l), nnf_neg(r)]),
                        ]);
                    }
                    (Const::Comment(_), [f]) => return nnf_pos(f),
                    _ => {}
                }
            }
            form.clone()
        }
        Form::Binder(Binder::Forall, vars, body) => Form::forall_many(vars.clone(), nnf_pos(body)),
        Form::Binder(Binder::Exists, vars, body) => Form::exists_many(vars.clone(), nnf_pos(body)),
        _ => form.clone(),
    }
}

fn nnf_neg(form: &Form) -> Form {
    match form {
        Form::Const(Const::BoolLit(b)) => Form::Const(Const::BoolLit(!b)),
        Form::App(fun, args) => {
            if let Form::Const(c) = fun.as_ref() {
                match (c, args.as_slice()) {
                    (Const::Not, [f]) => return nnf_pos(f),
                    (Const::And, _) => return Form::or(args.iter().map(nnf_neg).collect()),
                    (Const::Or, _) => return Form::and(args.iter().map(nnf_neg).collect()),
                    (Const::Impl, [l, r]) => {
                        return Form::and(vec![nnf_pos(l), nnf_neg(r)]);
                    }
                    (Const::Iff, [l, r]) => {
                        return Form::or(vec![
                            Form::and(vec![nnf_pos(l), nnf_neg(r)]),
                            Form::and(vec![nnf_neg(l), nnf_pos(r)]),
                        ]);
                    }
                    (Const::Comment(_), [f]) => return nnf_neg(f),
                    _ => {}
                }
            }
            Form::not(form.clone())
        }
        Form::Binder(Binder::Forall, vars, body) => Form::exists_many(vars.clone(), nnf_neg(body)),
        Form::Binder(Binder::Exists, vars, body) => Form::forall_many(vars.clone(), nnf_neg(body)),
        _ => Form::not(form.clone()),
    }
}

/// Removes all `comment` labels (deeply), keeping the labelled formulas.
pub fn strip_comments_deep(form: &Form) -> Form {
    match form {
        Form::Var(_) | Form::Const(_) => form.clone(),
        Form::Typed(f, t) => Form::Typed(Box::new(strip_comments_deep(f)), t.clone()),
        Form::Binder(b, vars, body) => {
            Form::Binder(*b, vars.clone(), Box::new(strip_comments_deep(body)))
        }
        Form::App(fun, args) => {
            if let Form::Const(Const::Comment(_)) = fun.as_ref() {
                if args.len() == 1 {
                    return strip_comments_deep(&args[0]);
                }
            }
            Form::App(
                Box::new(strip_comments_deep(fun)),
                args.iter().map(strip_comments_deep).collect(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_form;

    fn s(input: &str) -> String {
        simplify(&parse_form(input).expect("parse")).to_string()
    }

    #[test]
    fn folds_boolean_constants() {
        assert_eq!(s("True & p"), "p");
        assert_eq!(s("p | True"), "True");
        assert_eq!(s("False --> p"), "True");
        assert_eq!(s("~~p"), "p");
        assert_eq!(s("p <-> p"), "True");
    }

    #[test]
    fn folds_arithmetic_and_comparisons() {
        assert_eq!(s("1 + 2 = 3"), "True");
        assert_eq!(s("2 < 1"), "False");
        assert_eq!(s("x + 0 = x"), "True");
    }

    #[test]
    fn simplifies_set_operations() {
        assert_eq!(s("x : {}"), "False");
        assert_eq!(s("x : {a, b}"), "x = a | x = b");
        assert_eq!(s("s Un {} = s"), "True");
        assert_eq!(s("{} Int s = {}"), "True");
    }

    #[test]
    fn collapses_boolean_equalities() {
        assert_eq!(s("(first = null) = True"), "first = null");
        assert_eq!(s("result = False"), "~result");
        assert_eq!(s("True = (x : s)"), "x : s");
        // Equality between two formulas becomes a bi-implication.
        assert_eq!(
            s("(size = 0) = (card content = 0)"),
            "size = 0 <-> card content = 0"
        );
        // Plain term equalities are untouched.
        assert_eq!(s("x = y"), "x = y");
    }

    #[test]
    fn simplifies_ite() {
        assert_eq!(s("ite True x y = x"), "True");
        assert_eq!(s("ite p x x = x"), "True");
    }

    #[test]
    fn beta_reduces_during_simplification() {
        assert_eq!(s("(% x. x + 0) 5 = 5"), "True");
    }

    #[test]
    fn nnf_pushes_negations_inward() {
        let f = parse_form("~(p & (q --> r))").expect("parse");
        assert_eq!(nnf(&f).to_string(), "~p | q & ~r");
    }

    #[test]
    fn nnf_dualises_quantifiers() {
        let f = parse_form("~(ALL x. x : s)").expect("parse");
        assert_eq!(nnf(&f).to_string(), "EX x. ~(x : s)");
        let g = parse_form("~(EX x. p x)").expect("parse");
        assert_eq!(nnf(&g).to_string(), "ALL x. ~(p x)");
    }

    #[test]
    fn nnf_expands_iff() {
        let f = parse_form("p <-> q").expect("parse");
        assert_eq!(nnf(&f).to_string(), "(~p | q) & (p | ~q)");
    }

    #[test]
    fn strips_comments() {
        let f = parse_form("comment ''lbl'' (p & q)").expect("parse");
        assert_eq!(strip_comments_deep(&f).to_string(), "p & q");
    }
}
