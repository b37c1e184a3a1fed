//! The workspace's one JSON implementation (there is no serde): a value
//! type with exact integers and stable insertion-order rendering, a strict
//! parser with positioned errors, and the string escaper.
//!
//! It lives in the bottom crate so every reader and writer shares it: the
//! commscope profiles, traces and diffs, the bench `--json` reports and
//! ledger, commtune overlays, the commprove certificate checker, and the
//! commintd protocol. Documents with a hand-laid-out shape (lint reports,
//! certificates, daemon frames) are formatted by their owners but escape
//! strings through [`Escaped`].

use std::fmt::{self, Write as _};

/// A JSON value. Integers are kept exact (`Int`) — virtual times must
/// round-trip bit-exactly through baseline and golden files.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object, in source (or insertion) order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// As a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Int(i) => usize::try_from(*i).ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialize with two-space indentation and stable (insertion) key
    /// order, so committed baselines diff cleanly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Serialize on a single line with no whitespace — the JSONL form used
    /// by the run-history ledger, where one record must stay one line.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Scalars render the same in both layouts.
    fn write_scalar(&self, out: &mut String) {
        let _ = match self {
            Json::Null => write!(out, "null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Int(i) => write!(out, "{i}"),
            // Always include a decimal point so ints/floats round-trip
            // into the same variant they were written from.
            Json::Num(n) if n.fract() == 0.0 && n.is_finite() => write!(out, "{n:.1}"),
            Json::Num(n) => write!(out, "{n}"),
            Json::Str(s) => write!(out, "\"{}\"", Escaped(s)),
            Json::Arr(_) | Json::Obj(_) => unreachable!("containers are not scalars"),
        };
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":", Escaped(k));
                    v.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write_scalar(out),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            // Scalar-only arrays stay on one line.
            Json::Arr(items)
                if items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_))) =>
            {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_scalar(out);
                }
                out.push(']');
            }
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    let _ = write!(out, "\"{}\": ", Escaped(k));
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
            scalar => scalar.write_scalar(out),
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Displays a string with JSON escapes applied (quote, backslash, control
/// characters), without the surrounding quotes, so hand-laid-out documents
/// can escape inside `format!` without an intermediate allocation.
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Every byte that needs escaping is ASCII and never part of a
        // multi-byte UTF-8 sequence, so slicing at it keeps runs valid.
        let s = self.0;
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x00..=0x1f => "",
                _ => continue,
            };
            f.write_str(&s[run..i])?;
            if esc.is_empty() {
                write!(f, "\\u{b:04x}")?;
            } else {
                f.write_str(esc)?;
            }
            run = i + 1;
        }
        f.write_str(&s[run..])
    }
}

/// A parse error with the byte position it was detected at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. Shipped documents nest
/// at most 7 deep; the cap keeps hostile input (a request frame of `[`s)
/// from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document. Numbers are integers (exact `i64`; one outside
/// that range is an error, never a lossy float) or, with a fraction or
/// exponent, floats; anything after the document but whitespace is an
/// error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage after document");
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            message: message.to_string(),
            at: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH}"))
            }
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        // The scanned bytes are ASCII, so the slice is valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        let parsed = if float {
            text.parse().map(Json::Num).map_err(|_| "bad number")
        } else {
            text.parse().map(Json::Int).map_err(|e| match e.kind() {
                std::num::IntErrorKind::PosOverflow | std::num::IntErrorKind::NegOverflow => {
                    "integer outside the i64 range"
                }
                _ => "bad number",
            })
        };
        parsed.map_err(|message| JsonError {
            message: message.to_string(),
            at: start,
        })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece:
            // `"` and `\` are ASCII and never occur inside a multi-byte
            // UTF-8 sequence, so the run boundary cannot split a
            // character.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            if self.pos > start {
                let run =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
                        message: "invalid utf-8".into(),
                        at: start,
                    })?;
                out.push_str(run);
            }
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // The run scan stops only at EOF, `"` or `\`.
                Some(_) => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5);
                            let Some(hex) = hex.and_then(|h| std::str::from_utf8(h).ok()) else {
                                return self.err("bad \\u escape");
                            };
                            let Ok(cp) = u32::from_str_radix(hex, 16) else {
                                return self.err("bad \\u escape");
                            };
                            let Some(c) = char::from_u32(cp) else {
                                return self.err("bad \\u codepoint");
                            };
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            out.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let j = parse(r#"{"a": [1, -2.5, "x\nyA"], "b": {"c": null, "d": true}}"#).unwrap();
        assert_eq!(
            j.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\nyA")
        );
        assert_eq!(
            j.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert_eq!(j.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(j.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));

        let v = parse("{ \"a\": [1, -2, null], \"b\": { \"c\": \"x\\n\\\"y\" }, \"t\": true }")
            .unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_usize(), Some(1));
        assert_eq!(a[1].as_usize(), None);
        assert!(a[2].is_null());
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\n\"y")
        );
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "{",
            "[1,]",
            "1 2",
            "{\"a\": 1} x",
            "\"unterminated",
            "+1",
            "-",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        // Not a literal: the error names what was expected, at its byte.
        let err = parse("not json").unwrap_err();
        assert_eq!(
            err.to_string(),
            "json error at byte 0: expected `null`",
            "{err}"
        );
        let err = parse("[1, +1]").unwrap_err();
        assert_eq!(err.at, 4, "{err}");
    }

    #[test]
    fn nesting_is_capped() {
        let ok = "{\"a\": ".repeat(MAX_DEPTH - 1) + "[]" + &"}".repeat(MAX_DEPTH - 1);
        assert!(parse(&ok).is_ok());
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        assert!(
            err.to_string().contains(&format!("at byte {MAX_DEPTH}")),
            "{err}"
        );
    }

    #[test]
    fn large_integers_stay_exact() {
        let big = 4_611_686_018_427_387_903i64; // ~2^62, beyond f64 precision
        let text = Json::Arr(vec![Json::Int(big)]).render();
        let back = parse(&text).unwrap();
        assert_eq!(back.as_arr().unwrap()[0].as_i64(), Some(big));
        for edge in [i64::MAX, i64::MIN] {
            assert_eq!(parse(&edge.to_string()).unwrap(), Json::Int(edge));
        }
        // Outside i64: a positioned error, not a lossy float.
        let err = parse("[0, 9223372036854775808]").unwrap_err();
        assert_eq!(err.at, 4, "{err}");
        assert!(err.message.contains("i64"), "{err}");
        assert!(parse("-9223372036854775809").is_err());
    }

    #[test]
    fn unicode_and_escapes_round() {
        let v = parse("\"\\u0041∀N\"").unwrap();
        assert_eq!(v.as_str(), Some("A∀N"));
        let s = "tab\tquote\"back\\slash\u{1}∀";
        let text = Json::Str(s.into()).render();
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
        assert!(parse("\"\\ud800\"").is_err());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(Escaped("a\"b\\c\nd").to_string(), "a\\\"b\\\\c\\nd");
        assert_eq!(Escaped("\u{1}\r\t").to_string(), "\\u0001\\r\\t");
        assert_eq!(Escaped("∀ plain").to_string(), "∀ plain");
    }

    #[test]
    fn render_is_stable() {
        let j = Json::Obj(vec![
            ("z".into(), Json::Int(1)),
            ("a".into(), Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("f".into(), Json::Num(2.0)),
        ]);
        assert_eq!(
            j.render(),
            "{\n  \"z\": 1,\n  \"a\": [1, 2],\n  \"f\": 2.0\n}"
        );
        assert_eq!(j.render_compact(), "{\"z\":1,\"a\":[1,2],\"f\":2.0}");
        assert_eq!(parse(&j.render()).unwrap(), j);
    }
}
