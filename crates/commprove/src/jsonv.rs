//! A minimal JSON reader for certificate checking.
//!
//! The workspace renders JSON by hand and has no serde; the checker needs
//! to *read* certificates back, so this module provides a small recursive-
//! descent parser over a generic [`JValue`]. It accepts exactly the subset
//! the certificate writer emits — integers (no floats or exponents),
//! strings with the writer's escapes, booleans, null, arrays, objects —
//! which is also enough to stay honest about malformed input: anything
//! else is an error, never a guess.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer (the certificate schema has no floats).
    Int(i64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<JValue>),
    /// Object, in source order.
    Obj(Vec<(String, JValue)>),
}

impl JValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JValue> {
        match self {
            JValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// As a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JValue::Int(v) if *v >= 0 => Some(*v as usize),
            _ => None,
        }
    }

    /// As a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As an array slice.
    pub fn as_arr(&self) -> Option<&[JValue]> {
        match self {
            JValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// As a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JValue::Null)
    }
}

/// A parse error with byte position.
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
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            message: message.to_string(),
            at: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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

    fn eat_lit(&mut self, lit: &str, v: JValue) -> Result<JValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    fn value(&mut self) -> Result<JValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_lit("null", JValue::Null),
            Some(b't') => self.eat_lit("true", JValue::Bool(true)),
            Some(b'f') => self.eat_lit("false", JValue::Bool(false)),
            Some(b'"') => self.string().map(JValue::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH}"))
            }
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.int(),
            _ => self.err("expected a value"),
        }
    }

    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<JValue, JsonError>,
    ) -> Result<JValue, JsonError> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn int(&mut self) -> Result<JValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return self.err("floats are not part of the certificate schema");
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match text.parse::<i64>() {
            Ok(v) => Ok(JValue::Int(v)),
            Err(_) => self.err("bad integer"),
        }
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
            while matches!(self.bytes.get(self.pos), Some(&b) if b != b'"' && b != b'\\') {
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
                Some(b'\\') => {
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
                // The run scan stops only at EOF, `"` or `\`.
                Some(_) => unreachable!("run scan stops at quote or escape"),
            }
        }
    }

    fn array(&mut self) -> Result<JValue, JsonError> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JValue::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JValue::Arr(out));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> Result<JValue, JsonError> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JValue::Obj(out));
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
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JValue::Obj(out));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }
}

/// Parse a JSON document.
pub fn parse(src: &str) -> Result<JValue, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_certificate_shapes() {
        let v = parse("{ \"a\": [1, -2, null], \"b\": { \"c\": \"x\\n\\\"y\" }, \"t\": true }")
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_usize(), Some(1));
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\n\"y")
        );
        assert_eq!(v.get("t").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(parse("1.5").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_position() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn unicode_and_escapes_round() {
        let v = parse("\"\\u0041∀N\"").unwrap();
        assert_eq!(v.as_str(), Some("A∀N"));
    }
}
