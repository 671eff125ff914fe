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
use crate::program::{LoopProgram, TripCount};
use crate::types::ScalarType;
use std::collections::HashMap;
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

/// Parses a [`LoopProgram`] from the textual syntax.
///
/// # Errors
///
/// Returns a [`ParseProgramError`] on malformed syntax or when the parsed
/// loop fails [`LoopProgram::validate`].
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
    Parser::new(src).parse()
}

/// A token. Identifiers borrow the source text, so tokens are `Copy`
/// and tokenizing allocates nothing per identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Punct(char),
    DotDot,
    Eof,
}

struct Parser<'a> {
    src: &'a str,
    toks: Vec<(Tok<'a>, usize)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser {
            src,
            toks: Vec::new(),
            pos: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseProgramError> {
        let position = self
            .toks
            .get(self.pos)
            .map(|&(_, p)| p)
            .unwrap_or(self.src.len());
        Err(ParseProgramError {
            message: message.into(),
            position,
        })
    }

    fn tokenize(&mut self) -> Result<(), ParseProgramError> {
        let bytes = self.src.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if c.is_whitespace() {
                i += 1;
            } else if c == '/' && bytes.get(i + 1) == Some(&b'/') {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            } else if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                self.toks.push((Tok::Ident(&self.src[start..i]), start));
            } else if c.is_ascii_digit() {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = self.src[start..i].parse().map_err(|_| ParseProgramError {
                    message: "integer literal out of range".into(),
                    position: start,
                })?;
                self.toks.push((Tok::Int(n), start));
            } else if c == '.' && bytes.get(i + 1) == Some(&b'.') {
                self.toks.push((Tok::DotDot, i));
                i += 2;
            } else if "{}[]()@;:=+-*&|^~,?".contains(c) {
                self.toks.push((Tok::Punct(c), i));
                i += 1;
            } else {
                return Err(ParseProgramError {
                    message: format!("unexpected character `{c}`"),
                    position: i,
                });
            }
        }
        self.toks.push((Tok::Eof, self.src.len()));
        Ok(())
    }

    fn peek(&self) -> Tok<'a> {
        self.toks[self.pos].0
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.toks[self.pos].0;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
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

    fn parse(mut self) -> Result<LoopProgram, ParseProgramError> {
        self.tokenize()?;

        // arrays { ... }
        self.expect_ident("arrays")?;
        self.expect_punct('{')?;
        let mut decls: Vec<(&str, ScalarType, u64, AlignKind)> = Vec::new();
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
            decls.push((name, ty, len as u64, align));
        }
        self.bump(); // }

        let elem = match decls.first() {
            Some(&(_, t, _, _)) => t,
            None => return self.err("at least one array must be declared"),
        };
        let mut builder = LoopBuilder::new(elem);
        let mut arrays: HashMap<&str, ArrayHandle> = HashMap::new();
        for (name, ty, len, align) in decls {
            let h = builder.declare(crate::ArrayDecl::new(name, ty, len, align));
            arrays.insert(name, h);
        }

        // params { ... } (optional)
        let mut params: HashMap<&str, crate::ParamId> = HashMap::new();
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
            let target = self.array_ref(&arrays)?;
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
            let rhs = self.expr(&arrays, &params)?;
            self.expect_punct(';')?;
            match reduction {
                Some(op) => builder.reduce(target, op, rhs),
                None => builder.stmt(target, rhs),
            };
        }
        self.bump();

        Ok(builder.finish_trip(trip)?)
    }

    fn array_ref(
        &mut self,
        arrays: &HashMap<&str, ArrayHandle>,
    ) -> Result<ArrayRef, ParseProgramError> {
        let name = self.ident()?;
        let h = match arrays.get(name) {
            Some(h) => *h,
            None => return self.err(format!("undeclared array `{name}`")),
        };
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
    ) -> Result<Expr, ParseProgramError> {
        self.bin_expr(arrays, params, 0)
    }

    fn bin_expr(
        &mut self,
        arrays: &HashMap<&str, ArrayHandle>,
        params: &HashMap<&str, crate::ParamId>,
        min_prec: u8,
    ) -> Result<Expr, ParseProgramError> {
        let mut lhs = self.unary_expr(arrays, params)?;
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
            let rhs = self.bin_expr(arrays, params, prec + 1)?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(
        &mut self,
        arrays: &HashMap<&str, ArrayHandle>,
        params: &HashMap<&str, crate::ParamId>,
    ) -> Result<Expr, ParseProgramError> {
        match self.peek() {
            Tok::Punct('-') => {
                self.bump();
                // Negative literal vs. unary negation of a subexpression.
                if let Tok::Int(n) = self.peek() {
                    self.bump();
                    Ok(Expr::constant(-n))
                } else {
                    let inner = self.unary_expr(arrays, params)?;
                    Ok(Expr::unary(UnOp::Neg, inner))
                }
            }
            Tok::Punct('~') => {
                self.bump();
                let inner = self.unary_expr(arrays, params)?;
                Ok(Expr::unary(UnOp::Not, inner))
            }
            Tok::Punct('(') => {
                self.bump();
                let inner = self.expr(arrays, params)?;
                self.expect_punct(')')?;
                Ok(inner)
            }
            Tok::Int(n) => {
                self.bump();
                Ok(Expr::constant(n))
            }
            Tok::Ident(name) => {
                // min/max/abs calls, array loads, or parameter splats.
                match name {
                    "min" | "max" if self.toks[self.pos + 1].0 == Tok::Punct('(') => {
                        self.bump();
                        self.bump();
                        let a = self.expr(arrays, params)?;
                        self.expect_punct(',')?;
                        let b = self.expr(arrays, params)?;
                        self.expect_punct(')')?;
                        let op = if name == "min" {
                            BinOp::Min
                        } else {
                            BinOp::Max
                        };
                        Ok(Expr::binary(op, a, b))
                    }
                    "abs" if self.toks[self.pos + 1].0 == Tok::Punct('(') => {
                        self.bump();
                        self.bump();
                        let a = self.expr(arrays, params)?;
                        self.expect_punct(')')?;
                        Ok(Expr::unary(UnOp::Abs, a))
                    }
                    _ => {
                        if arrays.contains_key(name) {
                            let r = self.array_ref(arrays)?;
                            Ok(Expr::load(r))
                        } else if let Some(&p) = params.get(name) {
                            self.bump();
                            Ok(Expr::param(p))
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
