//! A small textual syntax for loop programs.
//!
//! The grammar mirrors the paper's C-like examples:
//!
//! ```text
//! program := arrays-block params-block? loop
//! arrays  := "arrays" "{" (name ":" type "[" len "]" "@" (int | "?") ";")* "}"
//! params  := "params" "{" (name ";")* "}"
//! loop    := "for" "i" "in" "0" ".." (int | "ub") "{" stmt* "}"
//! stmt    := ref "=" expr ";"
//! ref     := name "[" "i" (("+"|"-") int)? "]"
//! expr    := or-expr with C-like precedence; also min(e,e), max(e,e), abs(e), ~(e)
//! ```
//!
//! `@ ?` declares a runtime base alignment, `.. ub` a runtime trip count.

use crate::array::{AlignKind, ArrayRef};
use crate::builder::{ArrayHandle, LoopBuilder};
use crate::error::ValidateLoopError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::hash::HashMap;
use crate::program::{LoopProgram, TripCount};
use crate::types::ScalarType;
use std::error::Error;
use std::fmt;

/// An error produced while parsing the textual loop syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProgramError {
    message: String,
    position: usize,
}

impl ParseProgramError {
    /// Byte position in the source at which the error was detected.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for ParseProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.position)
    }
}

impl Error for ParseProgramError {}

impl From<ValidateLoopError> for ParseProgramError {
    fn from(e: ValidateLoopError) -> Self {
        ParseProgramError {
            message: e.to_string(),
            position: 0,
        }
    }
}

/// The deepest expression the parser accepts: the height of its tree,
/// where every operator, call and pair of parentheses is one level and
/// a load, constant or parameter the last.
///
/// The stages after the parser walk an expression by recursion
/// (reassociation, graph building, placement, code generation, the
/// scalar oracle, `Drop`), so without a bound a source as deep as it is
/// long — 5 000 nested parentheses, or a 5 000-term sum — overflows
/// the stack of the thread that compiles it. A debug build compiles and
/// evaluates loops of 1 600 levels on a 2 MiB thread and overflows
/// before 3 200; this bound keeps three times that margin, and
/// `tests/pipeline.rs` compiles a loop of exactly this depth there.
pub const MAX_EXPR_DEPTH: usize = 512;

/// Parses a [`LoopProgram`] from the textual syntax.
///
/// # Errors
///
/// Returns a [`ParseProgramError`] on malformed syntax, on an
/// expression deeper than [`MAX_EXPR_DEPTH`], or when the parsed loop
/// fails [`LoopProgram::validate`].
///
/// # Example
///
/// ```
/// let p = simdize_ir::parse_program(
///     "arrays { a: i32[128] @ 12; b: i32[128] @ 4; c: i32[128] @ 8; }
///      for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
/// )?;
/// assert_eq!(p.stmts().len(), 1);
/// # Ok::<(), simdize_ir::ParseProgramError>(())
/// ```
pub fn parse_program(src: &str) -> Result<LoopProgram, ParseProgramError> {
    let mut parser = Parser::new(src);
    let parsed = parser.parse();
    // A character the lexer rejects is the error wherever it stands,
    // even past a token the grammar rejected first.
    parser.lex_to_end()?;
    parsed
}

/// A token. Identifiers borrow the source text, so tokens are `Copy`
/// and lexing allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Punct(char),
    DotDot,
    Eof,
}

/// A token and the byte position it starts at.
type Spanned<'a> = (Tok<'a>, usize);

/// An expression and its depth, as [`MAX_EXPR_DEPTH`] counts it.
type Deep = (Expr, usize);

/// A recursive-descent parser over a two-token window: the source is
/// lexed one token ahead of the token being parsed.
struct Parser<'a> {
    src: &'a str,
    /// Where lexing resumes: just past `next`.
    cursor: usize,
    cur: Spanned<'a>,
    next: Spanned<'a>,
    /// The lexing error that ended the token stream, if any.
    lex_error: Option<ParseProgramError>,
    /// Operators, calls and parentheses open around the token being
    /// parsed.
    nesting: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let mut p = Parser {
            src,
            cursor: 0,
            cur: (Tok::Eof, src.len()),
            next: (Tok::Eof, src.len()),
            lex_error: None,
            nesting: 0,
        };
        p.cur = p.lex();
        p.next = p.lex();
        p
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseProgramError> {
        Err(ParseProgramError {
            message: message.into(),
            position: self.cur.1,
        })
    }

    /// The token at the cursor. After a lexing error, and at the end,
    /// the end of input.
    fn lex(&mut self) -> Spanned<'a> {
        let end = (Tok::Eof, self.src.len());
        if self.lex_error.is_some() {
            return end;
        }
        let bytes = self.src.as_bytes();
        let mut i = self.cursor;
        // Whitespace and `//` comments.
        loop {
            match bytes.get(i) {
                Some(&b) if (b as char).is_whitespace() => i += 1,
                Some(b'/') if bytes.get(i + 1) == Some(&b'/') => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        let Some(&c) = bytes.get(i) else {
            self.cursor = i;
            return end;
        };
        let start = i;
        let tok = match c {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                Tok::Ident(&self.src[start..i])
            }
            b'0'..=b'9' => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                match self.src[start..i].parse() {
                    Ok(n) => Tok::Int(n),
                    Err(_) => return self.lex_failed("integer literal out of range".into(), start),
                }
            }
            b'.' if bytes.get(i + 1) == Some(&b'.') => {
                i += 2;
                Tok::DotDot
            }
            b'{' | b'}' | b'[' | b']' | b'(' | b')' | b'@' | b';' | b':' | b'=' | b'+' | b'-'
            | b'*' | b'&' | b'|' | b'^' | b'~' | b',' | b'?' => {
                i += 1;
                Tok::Punct(c as char)
            }
            _ => {
                let c = c as char;
                return self.lex_failed(format!("unexpected character `{c}`"), start);
            }
        };
        self.cursor = i;
        (tok, start)
    }

    /// Ends the token stream at a lexing error.
    fn lex_failed(&mut self, message: String, position: usize) -> Spanned<'a> {
        self.lex_error = Some(ParseProgramError { message, position });
        self.cursor = self.src.len();
        (Tok::Eof, self.src.len())
    }

    /// Lexes what the parse left unread; the first lexing error in the
    /// source, if there is one.
    fn lex_to_end(&mut self) -> Result<(), ParseProgramError> {
        while self.next.0 != Tok::Eof {
            self.next = self.lex();
        }
        self.lex_error.take().map_or(Ok(()), Err)
    }

    fn peek(&self) -> Tok<'a> {
        self.cur.0
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.cur.0;
        self.cur = self.next;
        self.next = self.lex();
        t
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseProgramError> {
        if self.peek() == Tok::Punct(c) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{c}`"))
        }
    }

    fn expect_ident(&mut self, kw: &str) -> Result<(), ParseProgramError> {
        if self.peek() == Tok::Ident(kw) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{kw}`"))
        }
    }

    // The token is checked before it is consumed, so an error points
    // at the offending token itself — at the end of input too.
    fn ident(&mut self) -> Result<&'a str, ParseProgramError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => self.err("expected identifier"),
        }
    }

    fn int(&mut self) -> Result<i64, ParseProgramError> {
        match self.peek() {
            Tok::Int(n) => {
                self.bump();
                Ok(n)
            }
            _ => self.err("expected integer"),
        }
    }

    fn parse(&mut self) -> Result<LoopProgram, ParseProgramError> {
        // arrays { ... }
        self.expect_ident("arrays")?;
        self.expect_punct('{')?;
        // The first array's element type is the loop's.
        let mut builder: Option<LoopBuilder> = None;
        let mut arrays: HashMap<&str, ArrayHandle> = HashMap::default();
        while self.peek() != Tok::Punct('}') {
            let name = self.ident()?;
            self.expect_punct(':')?;
            let tyname = self.ident()?;
            let ty = match ScalarType::from_name(tyname) {
                Some(t) => t,
                None => return self.err(format!("unknown element type `{tyname}`")),
            };
            self.expect_punct('[')?;
            let len = self.int()?;
            if len < 0 {
                return self.err("array length must be non-negative");
            }
            self.expect_punct(']')?;
            self.expect_punct('@')?;
            let align = if self.peek() == Tok::Punct('?') {
                self.bump();
                AlignKind::Runtime
            } else {
                let off = self.int()?;
                if off < 0 {
                    return self.err("alignment offset must be non-negative");
                }
                AlignKind::Known(off as u32)
            };
            self.expect_punct(';')?;
            let decl = crate::ArrayDecl::new(name, ty, len as u64, align);
            let h = builder
                .get_or_insert_with(|| LoopBuilder::new(ty))
                .declare(decl);
            arrays.insert(name, h);
        }
        self.bump(); // }

        let Some(mut builder) = builder else {
            return self.err("at least one array must be declared");
        };

        // params { ... } (optional)
        let mut params: HashMap<&str, crate::ParamId> = HashMap::default();
        if self.peek() == Tok::Ident("params") {
            self.bump();
            self.expect_punct('{')?;
            while self.peek() != Tok::Punct('}') {
                let name = self.ident()?;
                self.expect_punct(';')?;
                let id = builder.param(name);
                params.insert(name, id);
            }
            self.bump();
        }

        // for i in 0..ub { stmts }
        self.expect_ident("for")?;
        self.expect_ident("i")?;
        self.expect_ident("in")?;
        let lo = self.int()?;
        if lo != 0 {
            return self.err("loops must be normalized: lower bound is 0");
        }
        if self.peek() != Tok::DotDot {
            return self.err("expected `..`");
        }
        self.bump();
        let trip = match self.peek() {
            Tok::Int(n) if n >= 0 => TripCount::Known(n as u64),
            Tok::Ident("ub") => TripCount::Runtime,
            _ => return self.err("expected trip count integer or `ub`"),
        };
        self.bump();
        self.expect_punct('{')?;
        while self.peek() != Tok::Punct('}') {
            let target = self.target(&arrays)?;
            // `target op= expr;` is a reduction (`+=`, `*=`, `&=`,
            // `|=`, `^=`, `min=`, `max=`); `target = expr;` a store.
            let reduction = match self.peek() {
                Tok::Punct('+') => Some(BinOp::Add),
                Tok::Punct('*') => Some(BinOp::Mul),
                Tok::Punct('&') => Some(BinOp::And),
                Tok::Punct('|') => Some(BinOp::Or),
                Tok::Punct('^') => Some(BinOp::Xor),
                Tok::Ident("min") => Some(BinOp::Min),
                Tok::Ident("max") => Some(BinOp::Max),
                _ => None,
            };
            if reduction.is_some() {
                self.bump();
            }
            self.expect_punct('=')?;
            let (rhs, _) = self.expr(&arrays, &params)?;
            self.expect_punct(';')?;
            match reduction {
                Some(op) => builder.reduce(target, op, rhs),
                None => builder.stmt(target, rhs),
            };
        }
        self.bump();

        Ok(builder.finish_trip(trip)?)
    }

    /// A store target: a declared array's name and its subscript.
    fn target(
        &mut self,
        arrays: &HashMap<&str, ArrayHandle>,
    ) -> Result<ArrayRef, ParseProgramError> {
        let name = self.ident()?;
        match arrays.get(name) {
            Some(&h) => self.subscript(h),
            None => self.err(format!("undeclared array `{name}`")),
        }
    }

    /// The subscript `[stride*i + offset]` after the name of `h`.
    fn subscript(&mut self, h: ArrayHandle) -> Result<ArrayRef, ParseProgramError> {
        self.expect_punct('[')?;
        // Optional stride multiplier: `name[2*i+3]`.
        let stride = if let Tok::Int(s) = self.peek() {
            self.bump();
            self.expect_punct('*')?;
            if !(1..=u32::MAX as i64).contains(&s) {
                return self.err("stride must be a positive integer");
            }
            s as u32
        } else {
            1
        };
        self.expect_ident("i")?;
        let offset = match self.peek() {
            Tok::Punct('+') => {
                self.bump();
                self.int()?
            }
            Tok::Punct('-') => {
                self.bump();
                -self.int()?
            }
            _ => 0,
        };
        self.expect_punct(']')?;
        Ok(h.at_strided(stride, offset))
    }

    fn expr(
        &mut self,
        arrays: &HashMap<&str, ArrayHandle>,
        params: &HashMap<&str, crate::ParamId>,
    ) -> Result<Deep, ParseProgramError> {
        self.bin_expr(arrays, params, 0)
    }

    /// `depth`, or the error for an expression deeper than
    /// [`MAX_EXPR_DEPTH`] ending just before the current token.
    fn check_depth(&self, depth: usize) -> Result<usize, ParseProgramError> {
        if depth > MAX_EXPR_DEPTH {
            self.err(format!(
                "expression nests deeper than {MAX_EXPR_DEPTH} levels"
            ))
        } else {
            Ok(depth)
        }
    }

    /// Opens the operator, call or parenthesis at the current token.
    /// What it encloses is one level deeper still, so the parser
    /// refuses before it recurses past [`MAX_EXPR_DEPTH`].
    fn open(&mut self) -> Result<(), ParseProgramError> {
        self.nesting += 1;
        self.check_depth(self.nesting + 1).map(|_| ())
    }

    /// Closes what [`Parser::open`] opened around an expression of
    /// `depth`; the depth with this level.
    fn close(&mut self, depth: usize) -> Result<usize, ParseProgramError> {
        self.nesting -= 1;
        self.check_depth(depth + 1)
    }

    fn bin_expr(
        &mut self,
        arrays: &HashMap<&str, ArrayHandle>,
        params: &HashMap<&str, crate::ParamId>,
        min_prec: u8,
    ) -> Result<Deep, ParseProgramError> {
        let (mut lhs, mut depth) = self.unary_expr(arrays, params)?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::Punct('|') => (BinOp::Or, 1),
                Tok::Punct('^') => (BinOp::Xor, 1),
                Tok::Punct('&') => (BinOp::And, 2),
                Tok::Punct('+') => (BinOp::Add, 3),
                Tok::Punct('-') => (BinOp::Sub, 3),
                Tok::Punct('*') => (BinOp::Mul, 4),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let (rhs, rhs_depth) = self.bin_expr(arrays, params, prec + 1)?;
            // A chain of operators deepens the tree without nesting.
            depth = self.check_depth(depth.max(rhs_depth) + 1)?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok((lhs, depth))
    }

    /// `op` applied to the unary expression after the operator token.
    fn unary(
        &mut self,
        arrays: &HashMap<&str, ArrayHandle>,
        params: &HashMap<&str, crate::ParamId>,
        op: UnOp,
    ) -> Result<Deep, ParseProgramError> {
        self.open()?;
        self.bump();
        let (inner, depth) = self.unary_expr(arrays, params)?;
        Ok((Expr::unary(op, inner), self.close(depth)?))
    }

    fn unary_expr(
        &mut self,
        arrays: &HashMap<&str, ArrayHandle>,
        params: &HashMap<&str, crate::ParamId>,
    ) -> Result<Deep, ParseProgramError> {
        match self.peek() {
            // Negative literal vs. unary negation of a subexpression.
            Tok::Punct('-') => match self.next.0 {
                Tok::Int(n) => {
                    self.bump();
                    self.bump();
                    Ok((Expr::constant(-n), 1))
                }
                _ => self.unary(arrays, params, UnOp::Neg),
            },
            Tok::Punct('~') => self.unary(arrays, params, UnOp::Not),
            Tok::Punct('(') => {
                self.open()?;
                self.bump();
                let (inner, depth) = self.expr(arrays, params)?;
                self.expect_punct(')')?;
                Ok((inner, self.close(depth)?))
            }
            Tok::Int(n) => {
                self.bump();
                Ok((Expr::constant(n), 1))
            }
            Tok::Ident(name) => {
                // min/max/abs calls, array loads, or parameter splats.
                match name {
                    "min" | "max" if self.next.0 == Tok::Punct('(') => {
                        self.open()?;
                        self.bump();
                        self.bump();
                        let (a, a_depth) = self.expr(arrays, params)?;
                        self.expect_punct(',')?;
                        let (b, b_depth) = self.expr(arrays, params)?;
                        self.expect_punct(')')?;
                        let op = if name == "min" {
                            BinOp::Min
                        } else {
                            BinOp::Max
                        };
                        Ok((Expr::binary(op, a, b), self.close(a_depth.max(b_depth))?))
                    }
                    "abs" if self.next.0 == Tok::Punct('(') => {
                        self.open()?;
                        self.bump();
                        self.bump();
                        let (a, depth) = self.expr(arrays, params)?;
                        self.expect_punct(')')?;
                        Ok((Expr::unary(UnOp::Abs, a), self.close(depth)?))
                    }
                    _ => {
                        if let Some(&h) = arrays.get(name) {
                            self.bump();
                            Ok((Expr::load(self.subscript(h)?), 1))
                        } else if let Some(&p) = params.get(name) {
                            self.bump();
                            Ok((Expr::param(p), 1))
                        } else {
                            self.err(format!("undeclared name `{name}`"))
                        }
                    }
                }
            }
            _ => self.err("expected expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripCount;

    #[test]
    fn parses_the_paper_example() {
        let p = parse_program(
            "arrays { a: i32[128] @ 12; b: i32[128] @ 4; c: i32[128] @ 8; }
             for i in 0..100 { a[i+3] = b[i+1] + c[i+2]; }",
        )
        .unwrap();
        assert_eq!(p.arrays().len(), 3);
        assert_eq!(p.stmts().len(), 1);
        assert_eq!(p.trip(), TripCount::Known(100));
        assert_eq!(p.array(p.stmts()[0].target.array).name(), "a");
    }

    #[test]
    fn parses_runtime_pieces_and_params() {
        let p = parse_program(
            "arrays { d: i16[64] @ ?; s: i16[64] @ 0; }
             params { gain; }
             for i in 0..ub { d[i] = s[i+1] * gain; }",
        )
        .unwrap();
        assert!(!p.all_alignments_known());
        assert_eq!(p.trip(), TripCount::Runtime);
        assert_eq!(p.params().len(), 1);
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 0; c: i32[64] @ 0; d: i32[64] @ 0; }
             for i in 0..10 { a[i] = b[i] + c[i] * d[i]; }",
        )
        .unwrap();
        assert_eq!(
            format!("{}", p.stmts()[0].rhs),
            "(arr1[i] + (arr2[i] * arr3[i]))"
        );
    }

    #[test]
    fn parses_calls_and_unary() {
        let p = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 0; c: i32[64] @ 0; }
             for i in 0..10 { a[i] = min(abs(b[i]), -(c[i])) + -5; }",
        )
        .unwrap();
        assert_eq!(p.stmts()[0].rhs.op_count(), 4);
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program(
            "// header comment
             arrays { a: i32[64] @ 0; b: i32[64] @ 0; } // trailing
             for i in 0..10 { a[i] = b[i]; }",
        )
        .unwrap();
        assert_eq!(p.stmts().len(), 1);
    }

    #[test]
    fn rejects_unknown_names() {
        let e = parse_program(
            "arrays { a: i32[64] @ 0; }
             for i in 0..10 { a[i] = zzz[i]; }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("zzz"));
    }

    #[test]
    fn rejects_non_normalized_loop() {
        let e = parse_program(
            "arrays { a: i32[64] @ 0; b: i32[64] @ 0; }
             for i in 1..10 { a[i] = b[i]; }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("normalized"));
    }

    #[test]
    fn rejects_bad_type_and_chars() {
        assert!(parse_program("arrays { a: f32[4] @ 0; } for i in 0..1 { a[i] = a[i]; }").is_err());
        assert!(parse_program("arrays { a: i32[4] @ 0; } $").is_err());
    }

    #[test]
    fn errors_at_end_of_input_point_at_the_end() {
        for (src, message) in [
            ("arrays {", "expected identifier"),
            ("arrays { a: i32[", "expected integer"),
            (
                "arrays { a: i32[4] @ 0; } for i in 0..",
                "expected trip count integer or `ub`",
            ),
            ("arrays { broken", "expected `:`"),
        ] {
            let e = parse_program(src).unwrap_err();
            assert_eq!(e.position(), src.len(), "{src}: {e}");
            assert!(e.to_string().starts_with(message), "{src}: {e}");
        }
    }

    #[test]
    fn errors_before_the_end_point_at_the_offending_token() {
        let src = "arrays { a: i32[x] @ 0; }";
        let e = parse_program(src).unwrap_err();
        assert_eq!(e.position(), src.find('x').unwrap(), "{e}");
        let src = "arrays { a: i32[4] @ 0; } for i in 0..; {}";
        let e = parse_program(src).unwrap_err();
        assert_eq!(e.position(), src.rfind(';').unwrap(), "{e}");
    }

    /// A loop storing `rhs` into `a`.
    fn with_rhs(rhs: &str) -> String {
        format!("arrays {{ a: i32[64] @ 0; b: i32[64] @ 4; }} for i in 0..10 {{ a[i] = {rhs}; }}")
    }

    fn height(e: &Expr) -> usize {
        match e {
            Expr::Binary(_, a, b) => 1 + height(a).max(height(b)),
            Expr::Unary(_, a) => 1 + height(a),
            _ => 1,
        }
    }

    /// Expressions of exactly [`MAX_EXPR_DEPTH`] levels parse, and one
    /// level more is refused, whether the depth comes from nesting
    /// (parentheses, unary operators, calls) or from a chain of binary
    /// operators, which the parser reads in a loop.
    #[test]
    fn expressions_deeper_than_the_limit_are_refused() {
        let max = MAX_EXPR_DEPTH;
        let parens = |n: usize| format!("{}b[i]{}", "(".repeat(n), ")".repeat(n));
        let negations = |n: usize| format!("{}b[i]", "-".repeat(n));
        let sum = |n: usize| vec!["b[i+1]"; n].join(" + ");
        let calls = |n: usize| format!("{}b[i]{}", "min(3, ".repeat(n), ")".repeat(n));
        let mixed = |n: usize| format!("{}b[i]{}", "(b[i] * ".repeat(n / 2), ")".repeat(n / 2));
        for (what, rhs, depth) in [
            ("parentheses", parens(max - 1), max),
            ("negations", negations(max - 1), max),
            ("a sum", sum(max), max),
            ("calls", calls(max - 1), max),
            ("parenthesized products", mixed(max - 1), max - 1),
        ] {
            let p = parse_program(&with_rhs(&rhs)).unwrap_or_else(|e| panic!("{what}: {e}"));
            // Parentheses are levels of the source, not of the tree.
            assert!(height(&p.stmts()[0].rhs) <= depth, "{what}");
        }
        for (what, rhs) in [
            ("parentheses", parens(max)),
            ("negations", negations(max)),
            ("a sum", sum(max + 1)),
            ("calls", calls(max)),
            ("parenthesized products", mixed(max + 1)),
            ("5 000 parentheses", parens(5000)),
            ("a 5 000-term sum", sum(5000)),
        ] {
            let e = parse_program(&with_rhs(&rhs)).unwrap_err();
            assert_eq!(
                e.to_string().split(" (at").next().unwrap(),
                format!("expression nests deeper than {max} levels"),
                "{what}"
            );
        }
    }

    #[test]
    fn a_lexing_error_anywhere_comes_before_a_parse_error() {
        let src = "arrays { a: i32[x] @ 0; } for i in 0..1 { a[i] = a[i]; } $";
        let e = parse_program(src).unwrap_err();
        assert_eq!(e.position(), src.len() - 1, "{e}");
        assert!(e.to_string().starts_with("unexpected character `$`"), "{e}");
        let src = "arrays { a: i32[4] @ 0; } for i in 0..1 { a[i] = a[i]; } 99999999999999999999";
        let e = parse_program(src).unwrap_err();
        assert!(
            e.to_string().starts_with("integer literal out of range"),
            "{e}"
        );
    }

    #[test]
    fn validation_errors_surface() {
        let e = parse_program(
            "arrays { a: i32[4] @ 0; b: i32[4] @ 0; }
             for i in 0..100 { a[i] = b[i]; }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("elements"));
    }
}

#[cfg(test)]
mod stride_tests {
    use super::*;

    #[test]
    fn parses_strided_references() {
        let p = parse_program(
            "arrays { out: i32[64] @ 0; inter: i32[200] @ 0; }
             for i in 0..64 { out[i] = inter[2*i] + inter[2*i+1]; }",
        )
        .unwrap();
        let loads = p.stmts()[0].rhs.loads();
        assert_eq!(loads[0].stride, 2);
        assert_eq!(loads[0].offset, 0);
        assert_eq!(loads[1].stride, 2);
        assert_eq!(loads[1].offset, 1);
        assert_eq!(p.stmts()[0].target.stride, 1);
    }

    #[test]
    fn strided_source_roundtrip() {
        let p = parse_program(
            "arrays { out: i16[300] @ 2; x: i16[800] @ 0; }
             for i in 0..128 { out[2*i+1] = x[4*i+3] * 2; }",
        )
        .unwrap();
        let q = parse_program(&p.to_source()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn strided_bounds_checked() {
        // 2·(ub−1) + 1 must stay below the length.
        let err = parse_program(
            "arrays { out: i32[64] @ 0; x: i32[127] @ 0; }
             for i in 0..64 { out[i] = x[2*i+1]; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("elements"), "{err}");
        // 2·63 = 126 fits in 127 elements exactly.
        assert!(parse_program(
            "arrays { out: i32[64] @ 0; x: i32[127] @ 0; }
             for i in 0..64 { out[i] = x[2*i]; }",
        )
        .is_ok());
        // 2·63 + 1 = 127 fits in 128 elements.
        assert!(parse_program(
            "arrays { out: i32[64] @ 0; x: i32[128] @ 0; }
             for i in 0..64 { out[i] = x[2*i+1]; }",
        )
        .is_ok());
    }

    #[test]
    fn parses_reductions() {
        let p = parse_program(
            "arrays { acc: i32[4] @ 0; x: i32[128] @ 4; }
             for i in 0..100 { acc[i] += x[i+1] * x[i+1]; }",
        )
        .unwrap();
        assert_eq!(p.stmts()[0].reduction, Some(BinOp::Add));
        let q = parse_program(&p.to_source()).unwrap();
        assert_eq!(p, q);

        for (src_op, op) in [
            ("*", BinOp::Mul),
            ("&", BinOp::And),
            ("|", BinOp::Or),
            ("^", BinOp::Xor),
            ("min", BinOp::Min),
            ("max", BinOp::Max),
        ] {
            let src = format!(
                "arrays {{ acc: i32[4] @ 0; x: i32[128] @ 4; }}
                 for i in 0..100 {{ acc[i+1] {src_op}= x[i]; }}"
            );
            let p = parse_program(&src).unwrap();
            assert_eq!(p.stmts()[0].reduction, Some(op), "{src_op}=");
            assert_eq!(parse_program(&p.to_source()).unwrap(), p);
        }
    }

    #[test]
    fn rejects_zero_stride() {
        let err = parse_program(
            "arrays { out: i32[64] @ 0; x: i32[64] @ 0; }
             for i in 0..64 { out[i] = x[0*i]; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("stride"), "{err}");
    }
}
