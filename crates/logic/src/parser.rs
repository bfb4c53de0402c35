//! Parser for the ASCII concrete syntax of Jahob specification formulas.
//!
//! The syntax follows the Isabelle/HOL-inspired ASCII notation that Jahob accepts in its
//! specification comments (the paper shows the mathematical rendering; developers type the
//! ASCII form, §2.1 footnote 1). Examples:
//!
//! ```text
//! ALL x. x : Node & x : alloc & x ~= null --> x..cnt = {(x..key, x..value)} Un x..next..cnt
//! content = old content - {(k0, result)} Un {(k0, v0)}
//! nodes = {n. n ~= null & rtrancl_pt (% u v. u..next = v) root n}
//! size = card content
//! tree [List.next]
//! ```
//!
//! The parser produces [`Form`] values; types of bound variables default to
//! [`Type::Var`] placeholders that are later resolved by [`crate::typecheck`].

use crate::form::{Const, Form, Ident};
use crate::types::Type;
use std::fmt;

/// The number of the first type variable the parser invents. A binder written without a
/// type is given `Type::Var(FIRST_FRESH_TYVAR)` if it is the first such binder, and the
/// next number each time after. Code that builds a formula whose one binder is left open
/// gives the binder this type, and so builds the formula its text parses to.
pub const FIRST_FRESH_TYVAR: u32 = 1001;

/// An error produced while lexing or parsing a formula or type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input at which the error was detected.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a formula from its ASCII concrete syntax.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending token if the input is not a
/// well-formed formula.
///
/// # Examples
///
/// ```
/// use jahob_logic::parser::parse_form;
/// let f = parse_form("ALL x. x : Node --> x..next ~= x").expect("parses");
/// assert_eq!(f.to_string(), "ALL x. x : Node --> ~(next x = x)");
/// ```
pub fn parse_form(input: &str) -> Result<Form, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        next_tyvar: FIRST_FRESH_TYVAR,
    };
    let f = p.parse_formula()?;
    p.expect_eof()?;
    Ok(f)
}

/// Parses a type from its concrete syntax, e.g. `"(obj * obj) set"` or `"obj => int"`.
///
/// # Errors
///
/// Returns a [`ParseError`] if the input is not a well-formed type.
pub fn parse_type(input: &str) -> Result<Type, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        next_tyvar: FIRST_FRESH_TYVAR,
    };
    let t = p.parse_type()?;
    p.expect_eof()?;
    Ok(t)
}

// ------------------------------------------------------------------------------- lexer

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    StrLit(String),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Dot,
    DotDot,
    DotBracket, // ".[" for array reads
    Colon,
    ColonColon,
    NotColon, // ~:
    Assign,   // :=
    Eq,
    Neq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Arrow,    // -->
    IffArrow, // <->
    Amp,
    Bar,
    Tilde,
    Plus,
    Minus,
    Star,
    Backslash,
    Percent,
    FunArrow, // => (types)
    Eof,
}

struct Lexed {
    tok: Tok,
    pos: usize,
}

fn lex(input: &str) -> Result<Vec<Lexed>, ParseError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let tok = match c {
            '(' => {
                i += 1;
                Tok::LParen
            }
            ')' => {
                i += 1;
                Tok::RParen
            }
            '{' => {
                i += 1;
                Tok::LBrace
            }
            '}' => {
                i += 1;
                Tok::RBrace
            }
            '[' => {
                i += 1;
                Tok::LBracket
            }
            ']' => {
                i += 1;
                Tok::RBracket
            }
            ',' => {
                i += 1;
                Tok::Comma
            }
            '+' => {
                i += 1;
                Tok::Plus
            }
            '*' => {
                i += 1;
                Tok::Star
            }
            '\\' => {
                i += 1;
                Tok::Backslash
            }
            '%' => {
                i += 1;
                Tok::Percent
            }
            '&' => {
                i += 1;
                Tok::Amp
            }
            '|' => {
                i += 1;
                Tok::Bar
            }
            '.' => {
                if bytes.get(i + 1) == Some(&b'.') {
                    i += 2;
                    Tok::DotDot
                } else if bytes.get(i + 1) == Some(&b'[') {
                    i += 2;
                    Tok::DotBracket
                } else {
                    i += 1;
                    Tok::Dot
                }
            }
            ':' => {
                if bytes.get(i + 1) == Some(&b':') {
                    i += 2;
                    Tok::ColonColon
                } else if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Tok::Assign
                } else {
                    i += 1;
                    Tok::Colon
                }
            }
            '~' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Tok::Neq
                } else if bytes.get(i + 1) == Some(&b':') {
                    i += 2;
                    Tok::NotColon
                } else {
                    i += 1;
                    Tok::Tilde
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    i += 2;
                    Tok::FunArrow
                } else {
                    i += 1;
                    Tok::Eq
                }
            }
            '<' => {
                if input[i..].starts_with("<->") {
                    i += 3;
                    Tok::IffArrow
                } else if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Tok::LtEq
                } else {
                    i += 1;
                    Tok::Lt
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    Tok::GtEq
                } else {
                    i += 1;
                    Tok::Gt
                }
            }
            '-' => {
                if input[i..].starts_with("-->") {
                    i += 3;
                    Tok::Arrow
                } else {
                    i += 1;
                    Tok::Minus
                }
            }
            '\'' => {
                // String literal delimited by two single quotes on each side: ''label''.
                if !input[i..].starts_with("''") {
                    return Err(ParseError {
                        message: "expected string literal starting with ''".into(),
                        position: i,
                    });
                }
                let rest = &input[i + 2..];
                match rest.find("''") {
                    Some(end) => {
                        let lit = rest[..end].to_string();
                        i += 2 + end + 2;
                        Tok::StrLit(lit)
                    }
                    None => {
                        return Err(ParseError {
                            message: "unterminated string literal".into(),
                            position: i,
                        })
                    }
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                let n: i64 = input[i..j].parse().map_err(|_| ParseError {
                    message: "integer literal out of range".into(),
                    position: i,
                })?;
                i = j;
                Tok::Int(n)
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len() {
                    let cj = bytes[j] as char;
                    if cj.is_ascii_alphanumeric() || cj == '_' || cj == '$' {
                        j += 1;
                    } else if cj == '.'
                        && j + 1 < bytes.len()
                        && ((bytes[j + 1] as char).is_ascii_alphabetic() || bytes[j + 1] == b'_')
                        && bytes.get(j + 1) != Some(&b'.')
                        // ".." must remain a dereference token
                        && bytes.get(j.wrapping_sub(1)) != Some(&b'.')
                    {
                        // Qualified identifier such as `Node.next`; a single dot followed by
                        // a letter continues the identifier.
                        j += 1;
                    } else {
                        break;
                    }
                }
                let word = input[i..j].to_string();
                i = j;
                Tok::Ident(word)
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected character {other:?}"),
                    position: i,
                })
            }
        };
        out.push(Lexed { tok, pos: start });
    }
    out.push(Lexed {
        tok: Tok::Eof,
        pos: input.len(),
    });
    Ok(out)
}

// ------------------------------------------------------------------------------ parser

struct Parser {
    tokens: Vec<Lexed>,
    pos: usize,
    next_tyvar: u32,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        if self.pos + 1 < self.tokens.len() {
            &self.tokens[self.pos + 1].tok
        } else {
            &Tok::Eof
        }
    }

    fn here(&self) -> usize {
        self.tokens[self.pos].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if *self.peek() == Tok::Eof {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input: {:?}", self.peek())))
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError {
            message,
            position: self.here(),
        }
    }

    fn fresh_tyvar(&mut self) -> Type {
        self.next_tyvar += 1;
        Type::Var(self.next_tyvar - 1)
    }

    // -- formulas ------------------------------------------------------------------

    fn parse_formula(&mut self) -> Result<Form, ParseError> {
        self.parse_iff()
    }

    fn parse_iff(&mut self) -> Result<Form, ParseError> {
        let mut lhs = self.parse_impl()?;
        while self.eat(&Tok::IffArrow) {
            let rhs = self.parse_impl()?;
            lhs = Form::iff(lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_impl(&mut self) -> Result<Form, ParseError> {
        let lhs = self.parse_or()?;
        if self.eat(&Tok::Arrow) {
            let rhs = self.parse_impl()?; // right associative
            Ok(Form::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self) -> Result<Form, ParseError> {
        let mut parts = vec![self.parse_and()?];
        while self.eat(&Tok::Bar) {
            parts.push(self.parse_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Form::or(parts)
        })
    }

    fn parse_and(&mut self) -> Result<Form, ParseError> {
        let mut parts = vec![self.parse_not()?];
        while self.eat(&Tok::Amp) {
            parts.push(self.parse_not()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            Form::and(parts)
        })
    }

    fn parse_not(&mut self) -> Result<Form, ParseError> {
        if self.eat(&Tok::Tilde) {
            Ok(Form::not(self.parse_not()?))
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Form, ParseError> {
        let lhs = self.parse_additive()?;
        let op = match self.peek() {
            Tok::Eq => Some(Ok(Const::Eq)),
            Tok::Neq => Some(Err(Const::Eq)),
            Tok::Lt => Some(Ok(Const::Lt)),
            Tok::LtEq => Some(Ok(Const::LtEq)),
            Tok::Gt => Some(Ok(Const::Gt)),
            Tok::GtEq => Some(Ok(Const::GtEq)),
            Tok::Colon => Some(Ok(Const::Elem)),
            Tok::NotColon => Some(Err(Const::Elem)),
            Tok::Ident(w) if w == "subseteq" => Some(Ok(Const::SubsetEq)),
            Tok::Ident(w) if w == "subset" => Some(Ok(Const::Subset)),
            _ => None,
        };
        match op {
            None => Ok(lhs),
            Some(signed) => {
                self.bump();
                let rhs = self.parse_additive()?;
                Ok(match signed {
                    Ok(c) => Form::app(Form::Const(c), vec![lhs, rhs]),
                    Err(c) => Form::not(Form::app(Form::Const(c), vec![lhs, rhs])),
                })
            }
        }
    }

    fn parse_additive(&mut self) -> Result<Form, ParseError> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let c = match self.peek() {
                Tok::Plus => Const::Plus,
                Tok::Minus => Const::Minus,
                Tok::Backslash => Const::Diff,
                Tok::Ident(w) if w == "Un" => Const::Union,
                Tok::Ident(w) if w == "Int" => Const::Inter,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_multiplicative()?;
            lhs = Form::app(Form::Const(c), vec![lhs, rhs]);
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Form, ParseError> {
        let mut lhs = self.parse_unary_minus()?;
        loop {
            let c = match self.peek() {
                Tok::Star => Const::Times,
                Tok::Ident(w) if w == "div" => Const::Div,
                Tok::Ident(w) if w == "mod" => Const::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary_minus()?;
            lhs = Form::app(Form::Const(c), vec![lhs, rhs]);
        }
        Ok(lhs)
    }

    fn parse_unary_minus(&mut self) -> Result<Form, ParseError> {
        if self.eat(&Tok::Minus) {
            let operand = self.parse_unary_minus()?;
            Ok(match operand {
                Form::Const(Const::IntLit(n)) => Form::int(-n),
                other => Form::app(Form::Const(Const::UMinus), vec![other]),
            })
        } else {
            self.parse_application()
        }
    }

    /// Application by juxtaposition, plus function-update suffixes `f(x := v)`.
    fn parse_application(&mut self) -> Result<Form, ParseError> {
        let mut head = self.parse_postfix()?;
        // Special form: `tree [f1, ..., fn]`.
        if head == Form::Const(Const::Tree) && *self.peek() == Tok::LBracket {
            self.bump();
            let mut fields = Vec::new();
            if *self.peek() != Tok::RBracket {
                loop {
                    fields.push(self.parse_formula()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Tok::RBracket, "]")?;
            return Ok(Form::tree(fields));
        }
        loop {
            match self.peek() {
                // Function update or parenthesised argument.
                Tok::LParen => {
                    self.bump();
                    let first = self.parse_formula()?;
                    match self.peek() {
                        Tok::Assign => {
                            self.bump();
                            let value = self.parse_formula()?;
                            self.expect(&Tok::RParen, ")")?;
                            head = Form::field_write(head, first, value);
                        }
                        Tok::Comma => {
                            let mut comps = vec![first];
                            while self.eat(&Tok::Comma) {
                                comps.push(self.parse_formula()?);
                            }
                            self.expect(&Tok::RParen, ")")?;
                            let arg = self.parse_postfix_suffixes(Form::tuple(comps))?;
                            head = Form::app(head, vec![arg]);
                        }
                        _ => {
                            self.expect(&Tok::RParen, ")")?;
                            let arg = self.parse_postfix_suffixes(first)?;
                            head = Form::app(head, vec![arg]);
                        }
                    }
                }
                // Juxtaposed argument.
                t if starts_atom(t) => {
                    let arg = self.parse_postfix()?;
                    head = Form::app(head, vec![arg]);
                }
                _ => break,
            }
        }
        Ok(head)
    }

    /// Parses an atom followed by postfix `..field` and `.[index]` suffixes.
    fn parse_postfix(&mut self) -> Result<Form, ParseError> {
        let atom = self.parse_atom()?;
        self.parse_postfix_suffixes(atom)
    }

    fn parse_postfix_suffixes(&mut self, mut head: Form) -> Result<Form, ParseError> {
        loop {
            match self.peek() {
                Tok::DotDot => {
                    self.bump();
                    let field = match self.bump() {
                        Tok::Ident(name) => name,
                        other => {
                            return Err(self
                                .error(format!("expected field name after '..', found {other:?}")))
                        }
                    };
                    head = Form::field_read(Form::var(field), head);
                }
                Tok::DotBracket => {
                    self.bump();
                    let index = self.parse_formula()?;
                    self.expect(&Tok::RBracket, "]")?;
                    head = Form::array_read(Form::var("arrayState"), head, index);
                }
                _ => break,
            }
        }
        Ok(head)
    }

    fn parse_atom(&mut self) -> Result<Form, ParseError> {
        match self.peek().clone() {
            Tok::Int(n) => {
                self.bump();
                Ok(Form::int(n))
            }
            Tok::StrLit(_) => Err(self
                .error("string literals may only appear immediately after `comment`".to_string())),
            Tok::Percent => {
                self.bump();
                let vars = self.parse_binder_vars()?;
                let body = self.parse_formula()?;
                Ok(Form::lambda(vars, body))
            }
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Err(self.error("empty parentheses".to_string()));
                }
                let first = self.parse_formula()?;
                if self.eat(&Tok::Comma) {
                    let mut comps = vec![first];
                    loop {
                        comps.push(self.parse_formula()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen, ")")?;
                    Ok(Form::tuple(comps))
                } else if self.eat(&Tok::ColonColon) {
                    let ty = self.parse_type()?;
                    self.expect(&Tok::RParen, ")")?;
                    Ok(Form::Typed(Box::new(first), ty))
                } else {
                    self.expect(&Tok::RParen, ")")?;
                    Ok(first)
                }
            }
            Tok::LBrace => {
                self.bump();
                self.parse_set_braces()
            }
            Tok::Ident(word) => {
                self.bump();
                self.parse_ident_atom(word)
            }
            other => Err(self.error(format!("unexpected token {other:?}"))),
        }
    }

    fn parse_ident_atom(&mut self, word: String) -> Result<Form, ParseError> {
        Ok(match word.as_str() {
            "ALL" => {
                let vars = self.parse_binder_vars()?;
                let body = self.parse_formula()?;
                Form::forall_many(vars, body)
            }
            "EX" => {
                let vars = self.parse_binder_vars()?;
                let body = self.parse_formula()?;
                Form::exists_many(vars, body)
            }
            "True" => Form::tt(),
            "False" => Form::ff(),
            "null" => Form::null(),
            "UNIV" => Form::Const(Const::UnivSet),
            "card" | "cardinality" => Form::Const(Const::Card),
            "old" => Form::Const(Const::Old),
            "tree" => Form::Const(Const::Tree),
            "rtrancl_pt" => Form::Const(Const::Rtrancl),
            "fieldWrite" => Form::Const(Const::FieldWrite),
            "fieldRead" => Form::Const(Const::FieldRead),
            "arrayRead" => Form::Const(Const::ArrayRead),
            "arrayWrite" => Form::Const(Const::ArrayWrite),
            "ite" => Form::Const(Const::Ite),
            "objlocs" => Form::Const(Const::ObjLocs),
            "theinv" => {
                // `theinv name` is a frontend-level shorthand; keep it as a marked
                // application so the resolver can expand it.
                match self.bump() {
                    Tok::Ident(name) => Form::app(Form::var("theinv"), vec![Form::var(name)]),
                    other => {
                        return Err(self.error(format!(
                            "expected invariant name after theinv, found {other:?}"
                        )))
                    }
                }
            }
            "comment" => {
                let label = match self.bump() {
                    Tok::StrLit(l) => l,
                    other => {
                        return Err(self
                            .error(format!("expected ''label'' after comment, found {other:?}")))
                    }
                };
                let body = self.parse_postfix()?;
                Form::comment(label, body)
            }
            _ => Form::var(word),
        })
    }

    /// Parses the contents of `{...}`: empty set, finite set display, or comprehension.
    fn parse_set_braces(&mut self) -> Result<Form, ParseError> {
        if self.eat(&Tok::RBrace) {
            return Ok(Form::empty_set());
        }
        // Comprehension `{x. F}`: a single identifier followed by a single dot.
        if let (Tok::Ident(v), Tok::Dot) = (self.peek().clone(), self.peek2().clone()) {
            self.bump();
            self.bump();
            let body = self.parse_formula()?;
            self.expect(&Tok::RBrace, "}")?;
            let ty = self.fresh_tyvar();
            return Ok(Form::comprehension(vec![(v, ty)], body));
        }
        // Comprehension over a tuple `{(x, y). F}`: lookahead for `). `.
        if *self.peek() == Tok::LParen {
            if let Some(vars) = self.try_parse_tuple_pattern() {
                let body = self.parse_formula()?;
                self.expect(&Tok::RBrace, "}")?;
                let vars = vars
                    .into_iter()
                    .map(|v| (v, self.fresh_tyvar()))
                    .collect::<Vec<_>>();
                return Ok(Form::comprehension(vars, body));
            }
        }
        // Finite set display.
        let mut elems = vec![self.parse_formula()?];
        while self.eat(&Tok::Comma) {
            elems.push(self.parse_formula()?);
        }
        self.expect(&Tok::RBrace, "}")?;
        Ok(Form::finite_set(elems))
    }

    /// Attempts to parse `(x, y, ...).` as a comprehension binder pattern. On failure the
    /// parser position is restored and `None` is returned.
    fn try_parse_tuple_pattern(&mut self) -> Option<Vec<Ident>> {
        let save = self.pos;
        if !self.eat(&Tok::LParen) {
            return None;
        }
        let mut names = Vec::new();
        loop {
            match self.bump() {
                Tok::Ident(v) => names.push(v),
                _ => {
                    self.pos = save;
                    return None;
                }
            }
            match self.bump() {
                Tok::Comma => continue,
                Tok::RParen => break,
                _ => {
                    self.pos = save;
                    return None;
                }
            }
        }
        if names.len() >= 2 && self.eat(&Tok::Dot) {
            Some(names)
        } else {
            self.pos = save;
            None
        }
    }

    /// Parses binder variables up to and including the terminating dot:
    /// `x y z.`, `x::obj.`, `(x::obj) (y::int).`
    fn parse_binder_vars(&mut self) -> Result<Vec<(Ident, Type)>, ParseError> {
        let mut vars = Vec::new();
        loop {
            match self.peek().clone() {
                Tok::Ident(v) => {
                    self.bump();
                    if self.eat(&Tok::ColonColon) {
                        let ty = self.parse_type_atom_seq()?;
                        vars.push((v, ty));
                    } else {
                        let ty = self.fresh_tyvar();
                        vars.push((v, ty));
                    }
                }
                Tok::LParen => {
                    self.bump();
                    let name = match self.bump() {
                        Tok::Ident(v) => v,
                        other => {
                            return Err(
                                self.error(format!("expected binder variable, found {other:?}"))
                            )
                        }
                    };
                    self.expect(&Tok::ColonColon, "::")?;
                    let ty = self.parse_type()?;
                    self.expect(&Tok::RParen, ")")?;
                    vars.push((name, ty));
                }
                Tok::Dot => {
                    self.bump();
                    break;
                }
                other => {
                    return Err(
                        self.error(format!("expected binder variable or '.', found {other:?}"))
                    )
                }
            }
            if self.eat(&Tok::Dot) {
                break;
            }
        }
        if vars.is_empty() {
            return Err(self.error("binder with no variables".to_string()));
        }
        Ok(vars)
    }

    // -- types ---------------------------------------------------------------------

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        // Function types are right associative and have the lowest precedence.
        let lhs = self.parse_type_prod()?;
        if self.eat(&Tok::FunArrow) {
            let rhs = self.parse_type()?;
            Ok(Type::fun(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_type_prod(&mut self) -> Result<Type, ParseError> {
        let mut parts = vec![self.parse_type_postfix()?];
        while self.eat(&Tok::Star) {
            parts.push(self.parse_type_postfix()?);
        }
        Ok(Type::prod(parts))
    }

    fn parse_type_postfix(&mut self) -> Result<Type, ParseError> {
        let mut t = self.parse_type_atom()?;
        loop {
            match self.peek() {
                Tok::Ident(w) if w == "set" => {
                    self.bump();
                    t = Type::set(t);
                }
                _ => break,
            }
        }
        Ok(t)
    }

    /// Parses a type for binder annotations without parentheses, e.g. `ALL x::obj set. F`.
    fn parse_type_atom_seq(&mut self) -> Result<Type, ParseError> {
        self.parse_type_postfix()
    }

    fn parse_type_atom(&mut self) -> Result<Type, ParseError> {
        match self.bump() {
            Tok::Ident(w) => match w.as_str() {
                "bool" => Ok(Type::Bool),
                "int" => Ok(Type::Int),
                "obj" => Ok(Type::Obj),
                "objset" => Ok(Type::obj_set()),
                other => Err(self.error(format!("unknown type name {other:?}"))),
            },
            Tok::LParen => {
                let t = self.parse_type()?;
                self.expect(&Tok::RParen, ")")?;
                Ok(t)
            }
            other => Err(self.error(format!("expected a type, found {other:?}"))),
        }
    }
}

/// Tokens that may begin an atomic expression (used to detect juxtaposed application
/// arguments). Identifier-spelled infix operators must not be mistaken for arguments.
fn starts_atom(t: &Tok) -> bool {
    match t {
        Tok::Int(_) | Tok::LBrace | Tok::Percent => true,
        Tok::Ident(w) => !matches!(
            w.as_str(),
            "Un" | "Int" | "div" | "mod" | "subset" | "subseteq" | "set"
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::form::{Binder, Form};

    fn roundtrip(s: &str) -> String {
        parse_form(s)
            .unwrap_or_else(|e| panic!("parse {s:?}: {e}"))
            .to_string()
    }

    #[test]
    fn parses_propositional_structure() {
        assert_eq!(roundtrip("p & q --> r | ~p"), "p & q --> r | ~p");
        assert_eq!(roundtrip("p <-> q & r"), "p <-> q & r");
        assert_eq!(roundtrip("~(p & q)"), "~(p & q)");
    }

    #[test]
    fn implication_is_right_associative() {
        let f = parse_form("p --> q --> r").expect("parses");
        let (_, rhs) = f.as_implication().expect("impl");
        assert!(rhs.as_implication().is_some());
    }

    #[test]
    fn parses_quantifiers_and_field_deref() {
        assert_eq!(
            roundtrip("ALL x. x : Node & x ~= null --> x..next ~= x"),
            "ALL x. x : Node & ~(x = null) --> ~(next x = x)"
        );
    }

    #[test]
    fn parses_assoc_list_postcondition() {
        let s = "content = old content - {(k0, result)} Un {(k0, v0)} & \
                 (result = null --> ~(EX v. (k0, v) : old content)) & \
                 (result ~= null --> (k0, result) : old content)";
        let f = parse_form(s).expect("parses");
        assert_eq!(f.conjuncts().len(), 3);
        assert!(f.contains_const(&Const::Old));
    }

    #[test]
    fn parses_cnt_invariant() {
        let s = "ALL x. x : Node & x : alloc & x ~= null --> \
                 x..cnt = {(x..key, x..value)} Un x..next..cnt & \
                 (ALL v. (x..key, v) ~: x..next..cnt)";
        let f = parse_form(s).expect("parses");
        assert!(f.contains_binder(Binder::Forall));
        assert!(f.contains_const(&Const::Union));
    }

    #[test]
    fn parses_comprehensions_and_rtrancl() {
        let s = "nodes = {n. n ~= null & rtrancl_pt (% u v. u..next = v) root n}";
        let f = parse_form(s).expect("parses");
        assert!(f.contains_const(&Const::Rtrancl));
        assert!(f.contains_binder(Binder::Comprehension));
        assert!(f.contains_binder(Binder::Lambda));
    }

    #[test]
    fn parses_pair_comprehension() {
        let f = parse_form("content = {(k, v). (k, v) : raw}").expect("parses");
        match f.as_eq() {
            Some((_, rhs)) => match rhs {
                Form::Binder(Binder::Comprehension, vars, _) => assert_eq!(vars.len(), 2),
                other => panic!("expected comprehension, got {other}"),
            },
            None => panic!("expected equality"),
        }
    }

    #[test]
    fn parses_cardinality_and_tree() {
        assert_eq!(roundtrip("size = card content"), "size = card content");
        assert_eq!(
            roundtrip("toVisit - {x} subseteq content"),
            "toVisit - {x} subseteq content"
        );
        assert_eq!(
            roundtrip("larger subset content Un {x}"),
            "larger subset content Un {x}"
        );
        let f = parse_form("tree [List.next]").expect("parses");
        assert_eq!(f, Form::tree(vec![Form::var("List.next")]));
        let f2 = parse_form("tree [Node.left, Node.right]").expect("parses");
        assert_eq!(
            f2,
            Form::tree(vec![Form::var("Node.left"), Form::var("Node.right")])
        );
    }

    #[test]
    fn parses_function_update() {
        let f = parse_form("next(x := y)").expect("parses");
        assert_eq!(
            f,
            Form::field_write(Form::var("next"), Form::var("x"), Form::var("y"))
        );
        let g = parse_form("cnt = (old cnt)(n1 := {x} Un old content)").expect("parses");
        assert!(g.contains_const(&Const::FieldWrite));
    }

    #[test]
    fn parses_array_reads() {
        let f = parse_form("a.[i] = null").expect("parses");
        let (lhs, _) = f.as_eq().expect("eq");
        assert!(lhs.as_app_of(&Const::ArrayRead).is_some());
    }

    #[test]
    fn parses_comment_labels() {
        let f = parse_form("comment ''xFresh'' (x ~: content)").expect("parses");
        let (labels, inner) = f.strip_comments();
        assert_eq!(labels, vec!["xFresh"]);
        assert!(inner.as_negation().is_some());
    }

    #[test]
    fn parses_arithmetic_with_precedence() {
        assert_eq!(roundtrip("a + b * c - 2"), "a + b * c - 2");
        assert_eq!(roundtrip("size = old size + 1"), "size = old size + 1");
        assert_eq!(roundtrip("-x < 3"), "uminus x < 3");
        assert_eq!(roundtrip("i mod 2 = 0"), "i mod 2 = 0");
    }

    #[test]
    fn parses_typed_binders() {
        let f = parse_form("ALL x::obj. x : alloc").expect("parses");
        match &f {
            Form::Binder(Binder::Forall, vars, _) => assert_eq!(vars[0].1, Type::Obj),
            other => panic!("unexpected {other:?}"),
        }
        let g = parse_form("ALL (s::obj set) x. x : s | x ~: s").expect("parses");
        match &g {
            Form::Binder(Binder::Forall, vars, _) => {
                assert_eq!(vars[0].1, Type::obj_set());
                assert_eq!(vars.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_qualified_identifiers() {
        let f = parse_form("List.root ~= null").expect("parses");
        assert!(matches!(
            f.as_negation().and_then(Form::as_eq),
            Some((Form::Var(v), _)) if v == "List.root"
        ));
    }

    #[test]
    fn parses_types() {
        assert_eq!(parse_type("obj").expect("t"), Type::Obj);
        assert_eq!(parse_type("(obj * obj) set").expect("t"), Type::obj_rel());
        assert_eq!(parse_type("obj => obj").expect("t"), Type::obj_field());
        assert_eq!(parse_type("objset").expect("t"), Type::obj_set());
        assert_eq!(
            parse_type("obj => int => obj").expect("t"),
            Type::obj_array_state()
        );
        assert_eq!(
            parse_type("obj => obj => bool").expect("t"),
            Type::fun_n(&[Type::Obj, Type::Obj], Type::Bool)
        );
    }

    #[test]
    fn reports_errors_with_position() {
        let err = parse_form("p &").expect_err("should fail");
        assert!(err.position >= 2);
        assert!(parse_form("ALL . p").is_err());
        assert!(parse_form("{x. }").is_err());
        assert!(parse_type("obj =>").is_err());
    }

    #[test]
    fn set_difference_and_union_have_equal_precedence() {
        // `old content - {(k0, result)} Un {(k0, v0)}` parses left to right.
        let f = parse_form("old content - {(k0, result)} Un {(k0, v0)}").expect("parses");
        assert!(f.as_app_of(&Const::Union).is_some());
    }
}
