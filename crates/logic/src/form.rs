//! Abstract syntax of Jahob specification formulas.
//!
//! Following Jahob (and Isabelle/HOL, on which its notation is based, §3.1), formulas and
//! terms share one representation: a higher-order term language with variables, constants,
//! application and binders. Logical connectives, arithmetic, set operations, transitive
//! closure, the `tree` predicate and cardinality are all [`Const`]s applied to arguments.
//!
//! The module also provides smart constructors (e.g. [`Form::and`], [`Form::implies`]) that
//! perform light normalisation, and destructors used by the verification-condition splitter
//! and the provers.

use crate::types::Type;
use std::fmt;

/// Identifiers. Qualified names use a single dot, e.g. `Node.next`.
pub type Ident = String;

/// Built-in constants of the logic.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Const {
    // ---- literals ----
    /// Boolean literal.
    BoolLit(bool),
    /// Integer literal (unbounded in the semantics; `i64` suffices for specs).
    IntLit(i64),
    /// The `null` object.
    Null,
    /// The empty set `{}`.
    EmptySet,
    /// The universal set of the element type.
    UnivSet,

    // ---- propositional connectives ----
    /// Negation.
    Not,
    /// N-ary conjunction.
    And,
    /// N-ary disjunction.
    Or,
    /// Implication (binary, right associative in concrete syntax).
    Impl,
    /// Bi-implication.
    Iff,
    /// If-then-else over any type: `ite c t e`.
    Ite,

    // ---- equality and orders ----
    /// Polymorphic equality.
    Eq,
    /// Integer strict less-than.
    Lt,
    /// Integer less-or-equal.
    LtEq,
    /// Integer strict greater-than.
    Gt,
    /// Integer greater-or-equal.
    GtEq,

    // ---- arithmetic ----
    /// Addition.
    Plus,
    /// Subtraction (also used for set difference in concrete syntax; resolved by types).
    Minus,
    /// Multiplication.
    Times,
    /// Euclidean division.
    Div,
    /// Remainder.
    Mod,
    /// Unary minus.
    UMinus,

    // ---- sets and relations ----
    /// Membership `x : S`.
    Elem,
    /// Union `S Un T`.
    Union,
    /// Intersection `S Int T`.
    Inter,
    /// Set difference `S \ T`.
    Diff,
    /// Strict subset.
    Subset,
    /// Subset-or-equal.
    SubsetEq,
    /// Cardinality of a finite set.
    Card,
    /// Finite set display `{a, b, c}`; applied to the listed elements.
    FiniteSet,
    /// Tuple construction `(a, b, ...)`; applied to the components.
    Tuple,

    // ---- functions as data ----
    /// Function update: `fieldWrite f x v` is the function equal to `f` except at `x`.
    FieldWrite,
    /// Explicit function application marker: `fieldRead f x` is `f x`. Kept for
    /// compatibility with Jahob input; normalised away by [`crate::rewrite`].
    FieldRead,
    /// Array read: `arrayRead st a i` where `st : obj => int => obj`.
    ArrayRead,
    /// Array write: `arrayWrite st a i v`.
    ArrayWrite,

    // ---- reachability and shape ----
    /// Reflexive transitive closure of a binary predicate: `rtrancl_pt p a b`.
    Rtrancl,
    /// `tree [f1, ..., fn]`: the listed fields form a forest backbone (§3.1, §6.4).
    Tree,

    // ---- specification plumbing ----
    /// `old e`: the value of `e` in the method pre-state (resolved by the VC generator).
    Old,
    /// `comment ''label'' F`: attaches a label to a formula (used by splitting and by
    /// `by`-hint assumption selection; §3.5, §5.1).
    Comment(String),
    /// `objlocs C`: the set of allocated objects of class `C` (used in class axioms).
    ObjLocs,
}

impl Const {
    /// The fixed type of the constant, if it has one (literals and first-order
    /// connectives). Polymorphic constants (`Eq`, `Elem`, ...) return `None`.
    pub fn fixed_type(&self) -> Option<Type> {
        use Const::*;
        Some(match self {
            BoolLit(_) => Type::Bool,
            IntLit(_) => Type::Int,
            Null => Type::Obj,
            Not => Type::fun(Type::Bool, Type::Bool),
            And | Or | Impl | Iff => Type::fun_n(&[Type::Bool, Type::Bool], Type::Bool),
            Lt | LtEq | Gt | GtEq => Type::fun_n(&[Type::Int, Type::Int], Type::Bool),
            // `Minus` is intentionally absent: it is overloaded between integer
            // subtraction and set difference, so its type is assigned during inference.
            Plus | Times | Div | Mod => Type::fun_n(&[Type::Int, Type::Int], Type::Int),
            UMinus => Type::fun(Type::Int, Type::Int),
            _ => return None,
        })
    }
}

/// Binders of the logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Binder {
    /// Universal quantification `ALL x. F`.
    Forall,
    /// Existential quantification `EX x. F`.
    Exists,
    /// Lambda abstraction `% x. e`.
    Lambda,
    /// Set comprehension `{x. F}` / `{(x,y). F}` (the bound variables form a tuple).
    Comprehension,
}

/// A formula or term of the specification logic.
///
/// # Examples
///
/// ```
/// use jahob_logic::form::Form;
/// let f = Form::implies(Form::var("p"), Form::var("p"));
/// assert_eq!(f.to_string(), "p --> p");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Form {
    /// A variable (free or bound), including program variables, fields (of function
    /// type), specification variables and class-name sets.
    Var(Ident),
    /// A built-in constant.
    Const(Const),
    /// Application of a function to one or more arguments (kept n-ary and flattened).
    App(Box<Form>, Vec<Form>),
    /// A binder with one or more typed bound variables.
    Binder(Binder, Vec<(Ident, Type)>, Box<Form>),
    /// A type ascription `e :: t`.
    Typed(Box<Form>, Type),
}

impl Form {
    // ----------------------------------------------------------------- constructors

    /// The literal `True`.
    pub fn tt() -> Form {
        Form::Const(Const::BoolLit(true))
    }

    /// The literal `False`.
    pub fn ff() -> Form {
        Form::Const(Const::BoolLit(false))
    }

    /// An integer literal.
    pub fn int(i: i64) -> Form {
        Form::Const(Const::IntLit(i))
    }

    /// The `null` constant.
    pub fn null() -> Form {
        Form::Const(Const::Null)
    }

    /// The empty set.
    pub fn empty_set() -> Form {
        Form::Const(Const::EmptySet)
    }

    /// A variable.
    pub fn var(name: impl Into<Ident>) -> Form {
        Form::Var(name.into())
    }

    /// Applies `fun` to `args`, flattening nested applications and collapsing empty
    /// argument lists.
    pub fn app(fun: Form, args: Vec<Form>) -> Form {
        if args.is_empty() {
            return fun;
        }
        match fun {
            Form::App(f, mut prev) => {
                prev.extend(args);
                Form::App(f, prev)
            }
            other => Form::App(Box::new(other), args),
        }
    }

    /// Negation, with constant folding and double-negation elimination.
    ///
    /// This is an associated constructor taking the formula by value, not an `ops::Not`
    /// implementation: it is called as `Form::not(f)` throughout the workspace, alongside
    /// its siblings `Form::and` / `Form::or`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Form) -> Form {
        match f {
            Form::Const(Const::BoolLit(b)) => Form::Const(Const::BoolLit(!b)),
            Form::App(fun, mut args) if *fun == Form::Const(Const::Not) && args.len() == 1 => {
                args.pop().expect("len checked")
            }
            other => Form::app(Form::Const(Const::Not), vec![other]),
        }
    }

    /// N-ary conjunction with unit/absorbing-element folding and flattening.
    pub fn and(conjuncts: Vec<Form>) -> Form {
        let mut flat = Vec::new();
        for c in conjuncts {
            match c {
                Form::Const(Const::BoolLit(true)) => {}
                Form::Const(Const::BoolLit(false)) => return Form::ff(),
                Form::App(f, args) if *f == Form::Const(Const::And) => flat.extend(args),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Form::tt(),
            1 => flat.into_iter().next().expect("len checked"),
            _ => Form::App(Box::new(Form::Const(Const::And)), flat),
        }
    }

    /// N-ary disjunction with unit/absorbing-element folding and flattening.
    pub fn or(disjuncts: Vec<Form>) -> Form {
        let mut flat = Vec::new();
        for d in disjuncts {
            match d {
                Form::Const(Const::BoolLit(false)) => {}
                Form::Const(Const::BoolLit(true)) => return Form::tt(),
                Form::App(f, args) if *f == Form::Const(Const::Or) => flat.extend(args),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Form::ff(),
            1 => flat.into_iter().next().expect("len checked"),
            _ => Form::App(Box::new(Form::Const(Const::Or)), flat),
        }
    }

    /// Implication with trivial-case folding.
    pub fn implies(lhs: Form, rhs: Form) -> Form {
        match (&lhs, &rhs) {
            (Form::Const(Const::BoolLit(true)), _) => rhs,
            (Form::Const(Const::BoolLit(false)), _) => Form::tt(),
            (_, Form::Const(Const::BoolLit(true))) => Form::tt(),
            _ => Form::app(Form::Const(Const::Impl), vec![lhs, rhs]),
        }
    }

    /// Bi-implication.
    pub fn iff(lhs: Form, rhs: Form) -> Form {
        Form::app(Form::Const(Const::Iff), vec![lhs, rhs])
    }

    /// Equality.
    pub fn eq(lhs: Form, rhs: Form) -> Form {
        Form::app(Form::Const(Const::Eq), vec![lhs, rhs])
    }

    /// Disequality (negated equality).
    pub fn neq(lhs: Form, rhs: Form) -> Form {
        Form::not(Form::eq(lhs, rhs))
    }

    /// Membership `x : s`.
    pub fn elem(x: Form, s: Form) -> Form {
        Form::app(Form::Const(Const::Elem), vec![x, s])
    }

    /// Non-membership `x ~: s`.
    pub fn not_elem(x: Form, s: Form) -> Form {
        Form::not(Form::elem(x, s))
    }

    /// Set union.
    pub fn union(a: Form, b: Form) -> Form {
        Form::app(Form::Const(Const::Union), vec![a, b])
    }

    /// Set intersection.
    pub fn inter(a: Form, b: Form) -> Form {
        Form::app(Form::Const(Const::Inter), vec![a, b])
    }

    /// Set difference.
    pub fn diff(a: Form, b: Form) -> Form {
        Form::app(Form::Const(Const::Diff), vec![a, b])
    }

    /// Finite set display `{elems...}`.
    pub fn finite_set(elems: Vec<Form>) -> Form {
        if elems.is_empty() {
            Form::empty_set()
        } else {
            Form::App(Box::new(Form::Const(Const::FiniteSet)), elems)
        }
    }

    /// Singleton set `{e}`.
    pub fn singleton(e: Form) -> Form {
        Form::finite_set(vec![e])
    }

    /// Tuple `(components...)`; a one-component tuple collapses to the component.
    pub fn tuple(components: Vec<Form>) -> Form {
        if components.len() == 1 {
            components.into_iter().next().expect("len checked")
        } else {
            Form::App(Box::new(Form::Const(Const::Tuple)), components)
        }
    }

    /// Cardinality.
    pub fn card(s: Form) -> Form {
        Form::app(Form::Const(Const::Card), vec![s])
    }

    /// Universal quantification over one variable.
    pub fn forall(var: impl Into<Ident>, ty: Type, body: Form) -> Form {
        Form::forall_many(vec![(var.into(), ty)], body)
    }

    /// Universal quantification over several variables; collapses nested binders.
    pub fn forall_many(vars: Vec<(Ident, Type)>, body: Form) -> Form {
        if vars.is_empty() {
            return body;
        }
        if let Form::Const(Const::BoolLit(_)) = body {
            return body;
        }
        match body {
            Form::Binder(Binder::Forall, mut inner, b) => {
                let mut all = vars;
                all.append(&mut inner);
                Form::Binder(Binder::Forall, all, b)
            }
            other => Form::Binder(Binder::Forall, vars, Box::new(other)),
        }
    }

    /// Existential quantification over one variable.
    pub fn exists(var: impl Into<Ident>, ty: Type, body: Form) -> Form {
        Form::exists_many(vec![(var.into(), ty)], body)
    }

    /// Existential quantification over several variables.
    pub fn exists_many(vars: Vec<(Ident, Type)>, body: Form) -> Form {
        if vars.is_empty() {
            return body;
        }
        match body {
            Form::Binder(Binder::Exists, mut inner, b) => {
                let mut all = vars;
                all.append(&mut inner);
                Form::Binder(Binder::Exists, all, b)
            }
            other => Form::Binder(Binder::Exists, vars, Box::new(other)),
        }
    }

    /// Lambda abstraction.
    pub fn lambda(vars: Vec<(Ident, Type)>, body: Form) -> Form {
        if vars.is_empty() {
            body
        } else {
            Form::Binder(Binder::Lambda, vars, Box::new(body))
        }
    }

    /// Set comprehension `{vars. body}`.
    pub fn comprehension(vars: Vec<(Ident, Type)>, body: Form) -> Form {
        Form::Binder(Binder::Comprehension, vars, Box::new(body))
    }

    /// Integer comparison.
    pub fn cmp(op: Const, lhs: Form, rhs: Form) -> Form {
        debug_assert!(matches!(
            op,
            Const::Lt | Const::LtEq | Const::Gt | Const::GtEq
        ));
        Form::app(Form::Const(op), vec![lhs, rhs])
    }

    /// Integer addition.
    pub fn plus(lhs: Form, rhs: Form) -> Form {
        Form::app(Form::Const(Const::Plus), vec![lhs, rhs])
    }

    /// Integer subtraction.
    pub fn minus(lhs: Form, rhs: Form) -> Form {
        Form::app(Form::Const(Const::Minus), vec![lhs, rhs])
    }

    /// Function update `fieldWrite f x v` (the function `f(x := v)`).
    pub fn field_write(f: Form, x: Form, v: Form) -> Form {
        Form::app(Form::Const(Const::FieldWrite), vec![f, x, v])
    }

    /// Field dereference `x..f`, i.e. the application `f x`.
    pub fn field_read(field: Form, x: Form) -> Form {
        Form::app(field, vec![x])
    }

    /// Array read `arrayRead st a i`.
    pub fn array_read(state: Form, array: Form, index: Form) -> Form {
        Form::app(Form::Const(Const::ArrayRead), vec![state, array, index])
    }

    /// Array write `arrayWrite st a i v`.
    pub fn array_write(state: Form, array: Form, index: Form, value: Form) -> Form {
        Form::app(
            Form::Const(Const::ArrayWrite),
            vec![state, array, index, value],
        )
    }

    /// Reflexive transitive closure applied to endpoints: `rtrancl_pt p a b`.
    pub fn rtrancl(pred: Form, from: Form, to: Form) -> Form {
        Form::app(Form::Const(Const::Rtrancl), vec![pred, from, to])
    }

    /// `tree [fields...]`.
    pub fn tree(fields: Vec<Form>) -> Form {
        Form::App(Box::new(Form::Const(Const::Tree)), fields)
    }

    /// `old e`.
    pub fn old(e: Form) -> Form {
        Form::app(Form::Const(Const::Old), vec![e])
    }

    /// Labels a formula with a comment: `comment ''label'' f`.
    pub fn comment(label: impl Into<String>, f: Form) -> Form {
        Form::app(Form::Const(Const::Comment(label.into())), vec![f])
    }

    /// If-then-else.
    pub fn ite(cond: Form, then: Form, els: Form) -> Form {
        Form::app(Form::Const(Const::Ite), vec![cond, then, els])
    }

    // ----------------------------------------------------------------- destructors

    /// Is this the literal `True`?
    pub fn is_true(&self) -> bool {
        matches!(self, Form::Const(Const::BoolLit(true)))
    }

    /// Is this the literal `False`?
    pub fn is_false(&self) -> bool {
        matches!(self, Form::Const(Const::BoolLit(false)))
    }

    /// If the formula is an application of the given constant, returns its arguments.
    pub fn as_app_of(&self, c: &Const) -> Option<&[Form]> {
        match self {
            Form::App(f, args) if **f == Form::Const(c.clone()) => Some(args),
            _ => None,
        }
    }

    /// Splits a conjunction into its conjuncts (a non-conjunction is a single conjunct).
    pub fn conjuncts(&self) -> Vec<&Form> {
        match self.as_app_of(&Const::And) {
            Some(args) => args.iter().flat_map(|a| a.conjuncts()).collect(),
            None => vec![self],
        }
    }

    /// Splits a disjunction into its disjuncts.
    pub fn disjuncts(&self) -> Vec<&Form> {
        match self.as_app_of(&Const::Or) {
            Some(args) => args.iter().flat_map(|a| a.disjuncts()).collect(),
            None => vec![self],
        }
    }

    /// If this is `lhs --> rhs`, returns the pair.
    pub fn as_implication(&self) -> Option<(&Form, &Form)> {
        match self.as_app_of(&Const::Impl) {
            Some([lhs, rhs]) => Some((lhs, rhs)),
            _ => None,
        }
    }

    /// If this is a negation, returns the negated formula.
    pub fn as_negation(&self) -> Option<&Form> {
        match self.as_app_of(&Const::Not) {
            Some([f]) => Some(f),
            _ => None,
        }
    }

    /// If this is an equality, returns both sides.
    pub fn as_eq(&self) -> Option<(&Form, &Form)> {
        match self.as_app_of(&Const::Eq) {
            Some([l, r]) => Some((l, r)),
            _ => None,
        }
    }

    /// Strips `comment` labels from the head of the formula, returning the labels
    /// (outermost first) and the unlabelled formula.
    pub fn strip_comments(&self) -> (Vec<&str>, &Form) {
        let mut labels = Vec::new();
        let mut cur = self;
        loop {
            match cur {
                Form::App(f, args) if args.len() == 1 => {
                    if let Form::Const(Const::Comment(l)) = f.as_ref() {
                        labels.push(l.as_str());
                        cur = &args[0];
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        (labels, cur)
    }

    /// Counts the nodes of the formula (a rough size measure used for statistics and
    /// prover resource limits).
    pub fn size(&self) -> usize {
        match self {
            Form::Var(_) | Form::Const(_) => 1,
            Form::App(f, args) => 1 + f.size() + args.iter().map(Form::size).sum::<usize>(),
            Form::Binder(_, vs, b) => 1 + vs.len() + b.size(),
            Form::Typed(f, _) => f.size(),
        }
    }

    /// Returns `true` if the formula contains the given constant anywhere.
    pub fn contains_const(&self, c: &Const) -> bool {
        match self {
            Form::Const(k) => k == c,
            Form::Var(_) => false,
            Form::App(f, args) => f.contains_const(c) || args.iter().any(|a| a.contains_const(c)),
            Form::Binder(_, _, b) => b.contains_const(c),
            Form::Typed(f, _) => f.contains_const(c),
        }
    }

    /// Returns `true` if the formula contains any binder of the given kind.
    pub fn contains_binder(&self, binder: Binder) -> bool {
        match self {
            Form::Const(_) | Form::Var(_) => false,
            Form::App(f, args) => {
                f.contains_binder(binder) || args.iter().any(|a| a.contains_binder(binder))
            }
            Form::Binder(b, _, body) => *b == binder || body.contains_binder(binder),
            Form::Typed(f, _) => f.contains_binder(binder),
        }
    }

    /// Removes a type ascription at the root, if any.
    pub fn unascribe(&self) -> &Form {
        match self {
            Form::Typed(f, _) => f.unascribe(),
            other => other,
        }
    }
}

// --------------------------------------------------------------------- pretty printing

/// Operator precedence levels used by the printer (must agree with the parser).
fn const_infix(c: &Const) -> Option<(&'static str, u8)> {
    use Const::*;
    Some(match c {
        Iff => ("<->", 1),
        Impl => ("-->", 2),
        Or => ("|", 3),
        And => ("&", 4),
        Eq => ("=", 6),
        Lt => ("<", 6),
        LtEq => ("<=", 6),
        Gt => (">", 6),
        GtEq => (">=", 6),
        Elem => (":", 6),
        Subset => ("<s", 6),
        SubsetEq => ("<=s", 6),
        Union => ("Un", 7),
        Inter => ("Int", 7),
        Diff => ("\\", 7),
        Plus => ("+", 7),
        Minus => ("-", 7),
        Times => ("*", 8),
        Div => ("div", 8),
        Mod => ("mod", 8),
        _ => return None,
    })
}

impl fmt::Display for Form {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        print_form(self, f, 0)
    }
}

fn print_form(form: &Form, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
    match form {
        Form::Var(name) => write!(f, "{name}"),
        Form::Const(c) => print_const(c, f),
        Form::Typed(inner, ty) => {
            write!(f, "(")?;
            print_form(inner, f, 0)?;
            write!(f, " :: {ty})")
        }
        Form::Binder(binder, vars, body) => {
            let open = prec > 0;
            if open {
                write!(f, "(")?;
            }
            match binder {
                Binder::Forall => write!(f, "ALL ")?,
                Binder::Exists => write!(f, "EX ")?,
                Binder::Lambda => write!(f, "% ")?,
                Binder::Comprehension => write!(f, "{{")?,
            }
            if *binder == Binder::Comprehension && vars.len() > 1 {
                write!(f, "(")?;
                for (i, (v, _)) in vars.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")?;
            } else {
                for (i, (v, _)) in vars.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{v}")?;
                }
            }
            write!(f, ". ")?;
            print_form(body, f, 0)?;
            if *binder == Binder::Comprehension {
                write!(f, "}}")?;
            }
            if open {
                write!(f, ")")?;
            }
            Ok(())
        }
        Form::App(fun, args) => print_app(fun, args, f, prec),
    }
}

fn print_const(c: &Const, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    use Const::*;
    match c {
        BoolLit(true) => write!(f, "True"),
        BoolLit(false) => write!(f, "False"),
        IntLit(i) => write!(f, "{i}"),
        Null => write!(f, "null"),
        EmptySet => write!(f, "{{}}"),
        UnivSet => write!(f, "UNIV"),
        Not => write!(f, "Not"),
        And => write!(f, "(&)"),
        Or => write!(f, "(|)"),
        Impl => write!(f, "(-->)"),
        Iff => write!(f, "(<->)"),
        Ite => write!(f, "ite"),
        Eq => write!(f, "(=)"),
        Lt => write!(f, "(<)"),
        LtEq => write!(f, "(<=)"),
        Gt => write!(f, "(>)"),
        GtEq => write!(f, "(>=)"),
        Plus => write!(f, "(+)"),
        Minus => write!(f, "(-)"),
        Times => write!(f, "(*)"),
        Div => write!(f, "(div)"),
        Mod => write!(f, "(mod)"),
        UMinus => write!(f, "uminus"),
        Elem => write!(f, "(:)"),
        Union => write!(f, "(Un)"),
        Inter => write!(f, "(Int)"),
        Diff => write!(f, "(\\)"),
        Subset => write!(f, "(<s)"),
        SubsetEq => write!(f, "(<=s)"),
        Card => write!(f, "card"),
        FiniteSet => write!(f, "finiteset"),
        Tuple => write!(f, "tuple"),
        FieldWrite => write!(f, "fieldWrite"),
        FieldRead => write!(f, "fieldRead"),
        ArrayRead => write!(f, "arrayRead"),
        ArrayWrite => write!(f, "arrayWrite"),
        Rtrancl => write!(f, "rtrancl_pt"),
        Tree => write!(f, "tree"),
        Old => write!(f, "old"),
        Comment(l) => write!(f, "comment ''{l}''"),
        ObjLocs => write!(f, "objlocs"),
    }
}

fn print_app(fun: &Form, args: &[Form], f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
    if let Form::Const(c) = fun {
        // Infix operators.
        if let Some((sym, op_prec)) = const_infix(c) {
            if args.len() >= 2 {
                let open = prec > op_prec;
                if open {
                    write!(f, "(")?;
                }
                let last = args.len() - 1;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, " {sym} ")?;
                    }
                    // Associativity-aware child precedence: `-->` is right associative;
                    // `&`/`|` are associative (children of the same operator need no
                    // parentheses); the remaining operators are treated as left
                    // associative.
                    let child_prec = match c {
                        Const::Impl => {
                            if i == last {
                                op_prec
                            } else {
                                op_prec + 1
                            }
                        }
                        Const::And | Const::Or => {
                            if a.as_app_of(c).is_some() {
                                op_prec
                            } else {
                                op_prec + 1
                            }
                        }
                        _ => {
                            if i == 0 {
                                op_prec
                            } else {
                                op_prec + 1
                            }
                        }
                    };
                    print_form(a, f, child_prec)?;
                }
                if open {
                    write!(f, ")")?;
                }
                return Ok(());
            }
        }
        match c {
            Const::Not if args.len() == 1 => {
                let open = prec > 5;
                if open {
                    write!(f, "(")?;
                }
                write!(f, "~")?;
                print_form(&args[0], f, 10)?;
                if open {
                    write!(f, ")")?;
                }
                return Ok(());
            }
            Const::FiniteSet => {
                write!(f, "{{")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    print_form(a, f, 0)?;
                }
                return write!(f, "}}");
            }
            Const::Tuple => {
                write!(f, "(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    print_form(a, f, 0)?;
                }
                return write!(f, ")");
            }
            Const::Tree => {
                write!(f, "tree [")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    print_form(a, f, 0)?;
                }
                return write!(f, "]");
            }
            Const::Comment(l) if args.len() == 1 => {
                let open = prec > 0;
                if open {
                    write!(f, "(")?;
                }
                write!(f, "comment ''{l}'' ")?;
                print_form(&args[0], f, 10)?;
                if open {
                    write!(f, ")")?;
                }
                return Ok(());
            }
            _ => {}
        }
    }
    // Generic application: juxtaposition, tightest precedence.
    let open = prec > 9;
    if open {
        write!(f, "(")?;
    }
    print_form(fun, f, 10)?;
    for a in args {
        write!(f, " ")?;
        print_form(a, f, 10)?;
    }
    if open {
        write!(f, ")")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_folds_units() {
        assert_eq!(Form::and(vec![]), Form::tt());
        assert_eq!(Form::and(vec![Form::tt(), Form::var("p")]), Form::var("p"));
        assert_eq!(Form::and(vec![Form::var("p"), Form::ff()]), Form::ff());
    }

    #[test]
    fn and_flattens_nested() {
        let inner = Form::and(vec![Form::var("a"), Form::var("b")]);
        let outer = Form::and(vec![inner, Form::var("c")]);
        assert_eq!(outer.conjuncts().len(), 3);
    }

    #[test]
    fn or_folds_units() {
        assert_eq!(Form::or(vec![]), Form::ff());
        assert_eq!(Form::or(vec![Form::ff(), Form::var("p")]), Form::var("p"));
        assert_eq!(Form::or(vec![Form::var("p"), Form::tt()]), Form::tt());
    }

    #[test]
    fn not_eliminates_double_negation() {
        let f = Form::not(Form::not(Form::var("p")));
        assert_eq!(f, Form::var("p"));
        assert_eq!(Form::not(Form::tt()), Form::ff());
    }

    #[test]
    fn implies_folds_trivial_cases() {
        assert_eq!(Form::implies(Form::tt(), Form::var("q")), Form::var("q"));
        assert_eq!(Form::implies(Form::ff(), Form::var("q")), Form::tt());
        assert_eq!(Form::implies(Form::var("p"), Form::tt()), Form::tt());
    }

    #[test]
    fn forall_collapses_nested_binders() {
        let f = Form::forall("x", Type::Obj, Form::forall("y", Type::Obj, Form::var("p")));
        match f {
            Form::Binder(Binder::Forall, vars, _) => assert_eq!(vars.len(), 2),
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn display_connectives() {
        let f = Form::implies(
            Form::and(vec![Form::var("p"), Form::var("q")]),
            Form::or(vec![Form::var("r"), Form::not(Form::var("p"))]),
        );
        assert_eq!(f.to_string(), "p & q --> r | ~p");
    }

    #[test]
    fn display_quantifier_and_membership() {
        let f = Form::forall(
            "x",
            Type::Obj,
            Form::implies(
                Form::elem(Form::var("x"), Form::var("Node")),
                Form::eq(
                    Form::field_read(Form::var("next"), Form::var("x")),
                    Form::null(),
                ),
            ),
        );
        assert_eq!(f.to_string(), "ALL x. x : Node --> next x = null");
    }

    #[test]
    fn display_sets_and_tuples() {
        let f = Form::eq(
            Form::var("content"),
            Form::union(
                Form::var("old_content"),
                Form::singleton(Form::tuple(vec![Form::var("k"), Form::var("v")])),
            ),
        );
        assert_eq!(f.to_string(), "content = old_content Un {(k, v)}");
    }

    #[test]
    fn strip_comments_returns_labels() {
        let f = Form::comment("a", Form::comment("b", Form::var("p")));
        let (labels, inner) = f.strip_comments();
        assert_eq!(labels, vec!["a", "b"]);
        assert_eq!(*inner, Form::var("p"));
    }

    #[test]
    fn size_counts_nodes() {
        let f = Form::eq(Form::var("x"), Form::int(3));
        assert_eq!(f.size(), 4);
    }

    #[test]
    fn as_implication_and_eq() {
        let f = Form::implies(Form::var("p"), Form::var("q"));
        let (l, r) = f.as_implication().expect("implication");
        assert_eq!(*l, Form::var("p"));
        assert_eq!(*r, Form::var("q"));
        assert!(Form::eq(Form::var("x"), Form::var("y")).as_eq().is_some());
    }

    #[test]
    fn contains_const_and_binder() {
        let f = Form::forall("x", Type::Obj, Form::card(Form::var("s")));
        assert!(f.contains_const(&Const::Card));
        assert!(f.contains_binder(Binder::Forall));
        assert!(!f.contains_binder(Binder::Lambda));
    }
}
