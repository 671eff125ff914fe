//! The workspace's JSON reader and its one writer.
//!
//! The workspace is offline by policy (no serde), but the server has
//! to read `simdize-wire/v1` request lines and the tests read back the
//! documents the stack writes. [`parse`] is a straightforward
//! recursive-descent parser over the JSON grammar — objects, arrays,
//! strings (with the standard escapes), numbers (including scientific
//! notation), booleans and null — that keeps object keys in document
//! order. [`Writer`] is the other direction, and every document the
//! workspace emits goes through it: it places the commas, escapes
//! strings straight into its buffer and prints every float with a
//! fixed number of digits ([`Fixed`]), a non-finite one as `null`.

use std::fmt::{self, Write as _};

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (all JSON numbers are read as `f64`).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document; trailing content is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut p = Parser { text, bytes, at: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.at != bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.at,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one
            // piece. Both delimiters are ASCII, so the run starts and
            // ends on character boundaries of the (valid UTF-8) text:
            // one scan per byte, however long the string.
            let Some(run) = self.bytes[self.at..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.at = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.at..self.at + run]);
            self.at += run;
            if self.bytes[self.at] == b'"' {
                self.at += 1;
                return Ok(out);
            }
            self.at += 1;
            let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
            self.at += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.at..self.at + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    self.at += 4;
                    // Surrogates would need pairing; the bench
                    // schemas never emit them, so reject.
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| self.err("unsupported \\u surrogate"))?,
                    );
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.at += 1;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.at]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out` escaped. Every byte that needs an escape is
/// ASCII, so the runs between them, copied in one piece, start and end
/// on character boundaries.
fn escape_into(out: &mut String, s: &str) {
    let mut plain = 0;
    for (at, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[plain..at]);
        plain = at + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[plain..]);
}

/// A streaming JSON writer over one `String`.
///
/// Containers open with [`obj`](Writer::obj) / [`arr`](Writer::arr)
/// and close with [`end_obj`](Writer::end_obj) /
/// [`end_arr`](Writer::end_arr); members are a [`key`](Writer::key)
/// followed by a value, or [`field`](Writer::field) for both. The
/// buffer is the writer's only state: a value or key needs a
/// separating comma unless it is the document's first byte or follows
/// `{`, `[` or a key's `:`.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// An empty document with room for `bytes` before it reallocates.
    pub fn with_capacity(bytes: usize) -> Writer {
        Writer {
            out: String::with_capacity(bytes),
        }
    }

    fn sep(&mut self) -> &mut String {
        if !matches!(self.out.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.out.push(',');
        }
        &mut self.out
    }

    /// Opens an object.
    pub fn obj(&mut self) -> &mut Writer {
        self.sep().push('{');
        self
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Writer {
        self.out.push('}');
        self
    }

    /// Opens an array.
    pub fn arr(&mut self) -> &mut Writer {
        self.sep().push('[');
        self
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Writer {
        self.out.push(']');
        self
    }

    /// Writes an object member's key; the next value is its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.val(key).out.push(':');
        self
    }

    /// Writes one value: an array element, or the value of the key
    /// just written.
    pub fn val(&mut self, value: impl Value) -> &mut Writer {
        value.write(self.sep());
        self
    }

    /// Writes the object member `key: value`.
    pub fn field(&mut self, key: &str, value: impl Value) -> &mut Writer {
        self.key(key).val(value)
    }

    /// Embeds `json`, a complete document another writer rendered, as
    /// one value.
    pub fn raw(&mut self, json: &str) -> &mut Writer {
        self.sep().push_str(json);
        self
    }

    /// A position to [`rewind`](Writer::rewind) to.
    pub fn mark(&self) -> usize {
        self.out.len()
    }

    /// Drops everything written since `mark`.
    pub fn rewind(&mut self, mark: usize) {
        self.out.truncate(mark);
    }

    /// The document written.
    pub fn finish(self) -> String {
        self.out
    }
}

/// A scalar the [`Writer`] prints: an integer, a `bool`, a string,
/// a [`Fixed`] float, [`Text`], or an `Option` of one (`None` is
/// `null`).
pub trait Value {
    /// Appends the value's JSON text to `out`.
    fn write(self, out: &mut String);
}

macro_rules! plain_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write(self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

plain_values!(u32, u64, usize, bool);

impl<S: AsRef<str> + ?Sized> Value for &S {
    fn write(self, out: &mut String) {
        out.push('"');
        escape_into(out, self.as_ref());
        out.push('"');
    }
}

impl<T: Value> Value for Option<T> {
    fn write(self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

/// A float printed with a fixed number of fractional digits
/// (`Fixed(x, 3)` is `{x:.3}`), so documents are deterministic. JSON
/// has no NaN or infinity: a non-finite value prints as `null`.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn write(self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.*}", self.1, self.0);
        } else {
            out.push_str("null");
        }
    }
}

/// Any `Display` value, as a JSON string. It is printed straight into
/// the buffer and escaped there only if it needs it.
#[derive(Debug, Clone, Copy)]
pub struct Text<T>(pub T);

impl<T: fmt::Display> Value for Text<T> {
    fn write(self, out: &mut String) {
        out.push('"');
        let start = out.len();
        let _ = write!(out, "{}", self.0);
        if out.as_bytes()[start..]
            .iter()
            .any(|&b| b < 0x20 || b == b'"' || b == b'\\')
        {
            let text = out.split_off(start);
            escape_into(out, &text);
        }
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("3.466e8").unwrap(), Json::Num(346_600_000.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".to_string())
        );
        let doc = parse(r#"{"k": [1, {"x": false}], "s": "µs"}"#).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("µs"));
        let arr = doc.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("x"), Some(&Json::Bool(false)));
    }

    #[test]
    fn keys_keep_document_order() {
        let doc = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        match doc {
            Json::Obj(members) => {
                assert_eq!(members[0].0, "z");
                assert_eq!(members[1].0, "a");
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn reads_a_pretty_printed_document() {
        let doc = r#"{
  "schema": "simdize-trace/v1",
  "spans": [
    { "name": "bake", "total_ns": 3.466e8, "p50_us": 20.71 }
  ],
  "counters": []
}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("simdize-trace/v1"));
        let spans = v.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(
            spans[0].get("total_ns").unwrap().as_f64(),
            Some(346_600_000.0)
        );
    }

    #[test]
    fn the_writer_places_commas_and_prints_every_value_kind() {
        let mut w = Writer::default();
        w.obj()
            .field("a\"b", 1u64)
            .key("xs")
            .arr()
            .val(true)
            .val("q\n");
        w.obj().end_obj().arr().end_arr().end_arr();
        w.field("none", None::<u64>).field("t", Text('\u{1}'));
        let mark = w.mark();
        w.field("dropped", 0u64);
        w.rewind(mark);
        w.field("f", Fixed(1.23456, 3))
            .field("nan", Fixed(f64::NAN, 3));
        w.field("inf", Fixed(f64::INFINITY, 1))
            .key("doc")
            .raw("[1]")
            .end_obj();
        assert_eq!(
            w.finish(),
            r#"{"a\"b":1,"xs":[true,"q\n",{},[]],"none":null,"t":"\u0001","f":1.235,"nan":null,"inf":null,"doc":[1]}"#
        );
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn a_long_string_round_trips_through_escape_and_parse() {
        // Runs of plain text of every length up to 300 between every
        // control character (each becomes `\n`, `\r`, `\t` or `\u00XX`),
        // quotes, backslashes and 2-, 3- and 4-byte UTF-8.
        let specials: Vec<char> = (0..0x20u8)
            .map(char::from)
            .chain(['"', '\\', '/', 'µ', '€', '𝄞', '\u{7f}'])
            .collect();
        let mut s = String::new();
        for k in 0..3000 {
            s.extend(std::iter::repeat_n('a', k % 301));
            s.push(specials[k % specials.len()]);
            s.push_str("é—");
        }
        assert!(s.len() > 400_000);
        let doc = format!("{{\"s\":\"{}\"}}", escape(&s));
        assert_eq!(
            parse(&doc).unwrap().get("s").and_then(Json::as_str),
            Some(s.as_str())
        );
        // The escapes `escape` never writes, and an escaped non-ASCII
        // character next to a literal one.
        assert_eq!(
            parse(r#""\b\f\/\u00e9é\u20AC€\"""#).unwrap(),
            Json::Str("\u{8}\u{c}/éé€€\"".to_string())
        );
        for bad in [r#""\u12""#, r#""\x""#, r#""\ud800""#, "\"abc\\", "\"abc"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
