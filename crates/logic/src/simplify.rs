//! Comment stripping.
//!
//! Simplification and negation normal form run on the formula bank
//! ([`crate::bank::Bank::simplify`], [`crate::bank::Bank::nnf`]); their `Form`-recursive
//! versions are kept as test oracles in `crates/logic/tests/reference`.

use crate::form::{Const, Form};

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
    use crate::bank::Bank;
    use crate::parser::parse_form;

    /// `input` simplified on a bank, printed.
    fn s(input: &str) -> String {
        let mut bank = Bank::new();
        let id = bank.intern(&parse_form(input).expect("parse"));
        let out = bank.simplify(id);
        bank.materialise(out).to_string()
    }

    /// `input` in negation normal form on a bank, printed.
    fn nnf(input: &str) -> String {
        let mut bank = Bank::new();
        let id = bank.intern(&parse_form(input).expect("parse"));
        let out = bank.nnf(id);
        bank.materialise(out).to_string()
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
        // `int` is unbounded: a sum or difference outside `i64` is left unfolded.
        assert_eq!(
            s("9223372036854775807 + 1 < 0"),
            "9223372036854775807 + 1 < 0"
        );
        assert_eq!(
            s("0 - 9223372036854775807 - 2 > 0"),
            "-9223372036854775807 - 2 > 0"
        );
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
        assert_eq!(nnf("~(p & (q --> r))"), "~p | q & ~r");
    }

    #[test]
    fn nnf_dualises_quantifiers() {
        assert_eq!(nnf("~(ALL x. x : s)"), "EX x. ~(x : s)");
        assert_eq!(nnf("~(EX x. p x)"), "ALL x. ~(p x)");
    }

    #[test]
    fn nnf_expands_iff() {
        assert_eq!(nnf("p <-> q"), "(~p | q) & (p | ~q)");
    }

    #[test]
    fn strips_comments() {
        let f = parse_form("comment ''lbl'' (p & q)").expect("parse");
        assert_eq!(strip_comments_deep(&f).to_string(), "p & q");
    }
}
