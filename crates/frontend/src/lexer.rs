//! Lexer for the MiniJava+spec surface syntax.
//!
//! Jahob programs are Java source files whose specifications live in special comments of
//! the form `/*: ... */` or `//: ...` (§2.1 of the paper), so that standard Java
//! compilers can ignore them. The lexer therefore distinguishes three kinds of comments:
//!
//! * ordinary comments (`/* ... */`, `// ...`) are skipped;
//! * specification comments are lexed *through*: the lexer emits a [`Token::SpecOpen`]
//!   marker, then tokenises the interior (where specification formulas appear as string
//!   literals), then emits [`Token::SpecClose`];
//! * string literals carry the text of specification formulas, which the parser hands to
//!   [`jahob_logic::parse_form`].

use std::fmt;

/// A lexical token of the MiniJava+spec language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// An identifier or keyword.
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A string literal (the text between the quotes, used for specification formulas).
    Str(String),
    /// Start of a specification comment (`/*:` or `//:`).
    SpecOpen,
    /// End of a specification comment (`*/` or the end of the `//:` line).
    SpecClose,
    /// A punctuation or operator symbol (`{`, `==`, `:=`, ...).
    Sym(&'static str),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(n) => write!(f, "{n}"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::SpecOpen => write!(f, "/*:"),
            Token::SpecClose => write!(f, "*/"),
            Token::Sym(s) => write!(f, "{s}"),
        }
    }
}

/// A lexical error with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Line on which the error occurred.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// A token paired with the line it started on (for error messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// 1-based source line.
    pub line: usize,
}

/// Tokenises MiniJava+spec source text.
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated comments or string literals and on characters
/// outside the language.
pub fn lex(source: &str) -> Result<Vec<Spanned>, LexError> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    out: Vec<Spanned>,
    /// Are we currently inside a `//:` spec comment (closed at end of line)?
    in_line_spec: bool,
    source: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            out: Vec::new(),
            in_line_spec: false,
            source,
        }
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn peek3(&self) -> Option<char> {
        self.chars.get(self.pos + 2).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, token: Token) {
        self.out.push(Spanned {
            token,
            line: self.line,
        });
    }

    fn run(mut self) -> Result<Vec<Spanned>, LexError> {
        let _ = self.source;
        while let Some(c) = self.peek() {
            if c == '\n' && self.in_line_spec {
                self.in_line_spec = false;
                self.push(Token::SpecClose);
                self.bump();
                continue;
            }
            if c.is_whitespace() {
                self.bump();
                continue;
            }
            // Comments and specification comments.
            if c == '/' && self.peek2() == Some('*') {
                if self.peek3() == Some(':') {
                    self.bump();
                    self.bump();
                    self.bump();
                    self.push(Token::SpecOpen);
                    continue;
                }
                self.skip_block_comment()?;
                continue;
            }
            if c == '*' && self.peek2() == Some('/') {
                // Closing a `/*:` specification comment.
                self.bump();
                self.bump();
                self.push(Token::SpecClose);
                continue;
            }
            if c == '/' && self.peek2() == Some('/') {
                if self.peek3() == Some(':') {
                    self.bump();
                    self.bump();
                    self.bump();
                    self.in_line_spec = true;
                    self.push(Token::SpecOpen);
                    continue;
                }
                while let Some(c) = self.peek() {
                    if c == '\n' {
                        break;
                    }
                    self.bump();
                }
                continue;
            }
            if c == '"' {
                self.lex_string()?;
                continue;
            }
            if c.is_ascii_digit() {
                self.lex_number()?;
                continue;
            }
            if c.is_alphabetic() || c == '_' || c == '$' {
                self.lex_ident();
                continue;
            }
            self.lex_symbol()?;
        }
        if self.in_line_spec {
            self.push(Token::SpecClose);
        }
        Ok(self.out)
    }

    fn skip_block_comment(&mut self) -> Result<(), LexError> {
        // Consume "/*".
        self.bump();
        self.bump();
        loop {
            match self.peek() {
                Some('*') if self.peek2() == Some('/') => {
                    self.bump();
                    self.bump();
                    return Ok(());
                }
                Some(_) => {
                    self.bump();
                }
                None => return Err(self.error("unterminated comment")),
            }
        }
    }

    fn lex_string(&mut self) -> Result<(), LexError> {
        self.bump(); // opening quote
        let mut text = String::new();
        loop {
            match self.bump() {
                Some('"') => break,
                Some('\\') => match self.bump() {
                    Some(c) => text.push(c),
                    None => return Err(self.error("unterminated string literal")),
                },
                Some(c) => text.push(c),
                None => return Err(self.error("unterminated string literal")),
            }
        }
        self.push(Token::Str(text));
        Ok(())
    }

    /// An integer literal. `int` is unbounded, but a literal must fit in `i64`.
    fn lex_number(&mut self) -> Result<(), LexError> {
        let mut n: i64 = 0;
        while let Some(c) = self.peek() {
            if let Some(d) = c.to_digit(10) {
                n = n
                    .checked_mul(10)
                    .and_then(|n| n.checked_add(i64::from(d)))
                    .ok_or_else(|| self.error("integer literal does not fit in 64 bits"))?;
                self.bump();
            } else {
                break;
            }
        }
        self.push(Token::Int(n));
        Ok(())
    }

    fn lex_ident(&mut self) {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '$' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(Token::Ident(s));
    }

    fn lex_symbol(&mut self) -> Result<(), LexError> {
        let c = self.peek().expect("symbol start");
        let two: Option<&'static str> = match (c, self.peek2()) {
            ('=', Some('=')) => Some("=="),
            ('!', Some('=')) => Some("!="),
            ('<', Some('=')) => Some("<="),
            ('>', Some('=')) => Some(">="),
            ('&', Some('&')) => Some("&&"),
            ('|', Some('|')) => Some("||"),
            (':', Some('=')) => Some(":="),
            (':', Some(':')) => Some("::"),
            _ => None,
        };
        if let Some(sym) = two {
            self.bump();
            self.bump();
            self.push(Token::Sym(sym));
            return Ok(());
        }
        let one: Option<&'static str> = match c {
            '{' => Some("{"),
            '}' => Some("}"),
            '(' => Some("("),
            ')' => Some(")"),
            '[' => Some("["),
            ']' => Some("]"),
            ';' => Some(";"),
            ',' => Some(","),
            '.' => Some("."),
            '=' => Some("="),
            '<' => Some("<"),
            '>' => Some(">"),
            '+' => Some("+"),
            '-' => Some("-"),
            '*' => Some("*"),
            '/' => Some("/"),
            '%' => Some("%"),
            '!' => Some("!"),
            ':' => Some(":"),
            _ => None,
        };
        match one {
            Some(sym) => {
                self.bump();
                self.push(Token::Sym(sym));
                Ok(())
            }
            None => Err(self.error(format!("unexpected character {c:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src)
            .expect("lex")
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn lexes_java_tokens() {
        assert_eq!(
            toks("class List { int size; }"),
            vec![
                Token::Ident("class".into()),
                Token::Ident("List".into()),
                Token::Sym("{"),
                Token::Ident("int".into()),
                Token::Ident("size".into()),
                Token::Sym(";"),
                Token::Sym("}"),
            ]
        );
    }

    #[test]
    fn distinguishes_spec_comments_from_ordinary_comments() {
        let ts = toks("/* ignored */ //: content := \"{}\";\nx = 1; // also ignored");
        assert_eq!(ts[0], Token::SpecOpen);
        assert!(ts.contains(&Token::Sym(":=")));
        assert!(ts.contains(&Token::Str("{}".into())));
        assert!(ts.contains(&Token::SpecClose));
        assert!(ts.contains(&Token::Ident("x".into())));
        assert!(!ts
            .iter()
            .any(|t| matches!(t, Token::Ident(s) if s == "ignored" || s == "also")));
    }

    #[test]
    fn block_spec_comments_are_lexed_through() {
        let ts = toks("/*: requires \"x ~= null\" ensures \"True\" */");
        assert_eq!(ts.first(), Some(&Token::SpecOpen));
        assert_eq!(ts.last(), Some(&Token::SpecClose));
        assert!(ts.contains(&Token::Ident("requires".into())));
        assert!(ts.contains(&Token::Str("x ~= null".into())));
    }

    #[test]
    fn lexes_operators_and_numbers() {
        let ts = toks("i <= 10 && a[i] != null");
        assert!(ts.contains(&Token::Sym("<=")));
        assert!(ts.contains(&Token::Int(10)));
        assert!(ts.contains(&Token::Sym("&&")));
        assert!(ts.contains(&Token::Sym("[")));
        assert!(ts.contains(&Token::Sym("!=")));
    }

    #[test]
    fn line_numbers_are_tracked() {
        let spanned = lex("class A {\n int x;\n}").expect("lex");
        let x = spanned
            .iter()
            .find(|s| s.token == Token::Ident("x".into()))
            .unwrap();
        assert_eq!(x.line, 2);
    }

    #[test]
    fn reports_unterminated_constructs() {
        assert!(lex("/* never closed").is_err());
        assert!(lex("\"never closed").is_err());
        assert!(lex("int x = `bad`;").is_err());
    }
}
