//! The workspace's one JSON implementation (there is no serde): a value
//! type with exact integers and stable insertion-order rendering, a strict
//! parser with positioned errors, and the one writer.
//!
//! It lives in the bottom crate so every reader and writer shares it: the
//! commscope profiles, traces and diffs, the bench `--json` reports and
//! ledger, commtune overlays, the commlint report, the commprove
//! certificate and its checker, and the commintd protocol. Owners build a
//! [`Json`] value; this module alone lays it out:
//!
//! - [`Json::render`]: two-space pretty-printing, arrays of scalars on
//!   one line;
//! - [`Json::render_with`]: the same, with a document's [`Layout`]
//!   naming the nodes that go on one line (the commlint report puts its
//!   `"span"`s there, the certificate each of its `"claims"`);
//! - [`Json::render_at`]: a node of such a document, rendered at its
//!   depth on its own (the certificate's per-region fragments);
//! - [`Json::render_line`]: the spaced one-line form, `{ "k": v }` and
//!   `[a, b]`, nested as `[{ … }, { … }]` (daemon frames);
//! - [`Json::render_compact`]: no whitespace at all (ledger lines).

use std::borrow::Cow;
use std::fmt;
use std::io::Write as _;

/// The text of a string value or an object key: a literal the program
/// names is borrowed, never copied; parsed text is owned.
pub type Text = Cow<'static, str>;

/// A JSON value. Integers are kept exact (`Int`) — virtual times must
/// round-trip bit-exactly through baseline and golden files.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(Text),
    Arr(Vec<Json>),
    /// Object, in source (or insertion) order.
    Obj(Vec<(Text, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

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
    /// order, so committed baselines diff cleanly. The no-hint case of
    /// [`Json::render_with`].
    pub fn render(&self) -> String {
        self.render_with(&Layout::default())
    }

    /// Serialize pretty-printed like [`Json::render`], writing the nodes
    /// `layout` names in the one-line form.
    pub fn render_with(&self, layout: &Layout) -> String {
        self.render_at(layout, 0)
    }

    /// Serialize like [`Json::render_with`], as the value sits `depth`
    /// levels into a document: its inner lines are indented for that
    /// depth and its first line not at all, so a document writer can
    /// splice pieces rendered once into one text.
    pub fn render_at(&self, layout: &Layout, depth: usize) -> String {
        let mut out = Vec::new();
        self.write(&mut out, depth, layout, false);
        into_string(out)
    }

    /// Serialize in the spaced one-line form, `{ "k": v }` and `[a, b]`:
    /// a daemon frame, or a node a [`Layout`] puts on one line.
    pub fn render_line(&self) -> String {
        self.render_one_line(SPACED)
    }

    /// Serialize on a single line with no whitespace — the JSONL form used
    /// by the run-history ledger, where one record must stay one line.
    pub fn render_compact(&self) -> String {
        self.render_one_line(COMPACT)
    }

    /// A one-line form, into a buffer sized from the document's text: a
    /// frame that embeds a 70 KB certificate is allocated once. (A
    /// pretty-printed document is all small nodes; sizing it costs more
    /// than growing it.)
    fn render_one_line(&self, seps: Seps) -> String {
        let mut out = Vec::with_capacity(self.size_hint() + ESCAPE_SLACK);
        self.write_line(&mut out, seps);
        into_string(out)
    }

    /// Bytes the one-line form takes, give or take escapes and number
    /// widths.
    fn size_hint(&self) -> usize {
        match self {
            Json::Str(s) => escaped_capacity(s.len()),
            Json::Arr(items) => 2 + items.iter().map(|i| i.size_hint() + 2).sum::<usize>(),
            Json::Obj(fields) => {
                4 + fields
                    .iter()
                    .map(|(k, v)| escaped_capacity(k.len()) + v.size_hint() + 4)
                    .sum::<usize>()
            }
            _ => 8,
        }
    }

    fn write_line(&self, out: &mut Vec<u8>, seps: Seps) {
        let [comma, colon, open, close] = seps.map(str::as_bytes);
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Json::Int(i) => {
                if *i < 0 {
                    out.push(b'-');
                }
                push_uint(out, i.unsigned_abs());
            }
            // Always include a decimal point so ints/floats round-trip
            // into the same variant they were written from.
            Json::Num(n) if n.fract() == 0.0 && n.is_finite() => {
                let _ = write!(out, "{n:.1}");
            }
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => push_str(out, s),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.extend_from_slice(comma);
                    }
                    item.write_line(out, seps);
                }
                out.push(b']');
            }
            Json::Obj(fields) if fields.is_empty() => out.extend_from_slice(b"{}"),
            Json::Obj(fields) => {
                out.extend_from_slice(open);
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.extend_from_slice(comma);
                    }
                    push_str(out, k);
                    out.extend_from_slice(colon);
                    v.write_line(out, seps);
                }
                out.extend_from_slice(close);
            }
        }
    }

    /// Pretty-print at `indent`; `line_items` writes each element of this
    /// array in the one-line form.
    fn write(&self, out: &mut Vec<u8>, indent: usize, layout: &Layout, line_items: bool) {
        match self {
            Json::Arr(items)
                if !items.is_empty()
                    && (line_items
                        || items
                            .iter()
                            .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_)))) =>
            {
                out.extend_from_slice(b"[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.extend_from_slice(b",\n");
                    }
                    pad(out, indent + 1);
                    if line_items {
                        item.write_line(out, SPACED);
                    } else {
                        item.write(out, indent + 1, layout, false);
                    }
                }
                out.push(b'\n');
                pad(out, indent);
                out.push(b']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.extend_from_slice(b"{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.extend_from_slice(b",\n");
                    }
                    pad(out, indent + 1);
                    push_str(out, k);
                    out.extend_from_slice(b": ");
                    let key: &str = k;
                    if layout.line_values.contains(&key) {
                        v.write_line(out, SPACED);
                    } else {
                        let items = layout.line_items.contains(&key);
                        v.write(out, indent + 1, layout, items);
                    }
                }
                out.push(b'\n');
                pad(out, indent);
                out.push(b'}');
            }
            // Scalars, empty containers and scalar-only arrays read the
            // same on one line.
            _ => self.write_line(out, SPACED),
        }
    }
}

/// Scalars convert into their variant.
macro_rules! from_scalar {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        })*
    };
}

from_scalar! {
    bool => |b| Json::Bool(b),
    i64 => |i| Json::Int(i),
    u32 => |i| Json::Int(i.into()),
    u64 => |i| Json::Int(i as i64),
    usize => |i| Json::Int(i as i64),
    &'static str => |s| Json::Str(Cow::Borrowed(s)),
    String => |s| Json::Str(Cow::Owned(s)),
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

/// Which nodes of a pretty-printed document go on one line. Each
/// hand-shaped document (the commlint report, the commprove certificate)
/// declares its layout once, as a constant next to its schema.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layout {
    /// Object keys whose value is written in the one-line form, wherever
    /// the key occurs.
    pub line_values: &'static [&'static str],
    /// Object keys of arrays whose elements each go on one line of their
    /// own.
    pub line_items: &'static [&'static str],
}

/// One-line punctuation: comma, colon, and a non-empty object's braces.
type Seps = [&'static str; 4];
const SPACED: Seps = [", ", ": ", "{ ", " }"];
const COMPACT: Seps = [",", ":", "{", "}"];

/// The writer's bytes as text: it copies input strings whole, so they
/// stay UTF-8, and writes nothing else but ASCII.
fn into_string(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("the writer emits UTF-8")
}

/// Digits without `fmt`: documents are mostly small integers.
fn push_uint(out: &mut Vec<u8>, n: u64) {
    if n >= 10 {
        push_uint(out, n / 10);
    }
    out.push(b'0' + (n % 10) as u8);
}

/// A quoted, escaped string.
fn push_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    escape_into(out, s);
    out.push(b'"');
}

fn pad(out: &mut Vec<u8>, indent: usize) {
    for _ in 0..indent {
        out.extend_from_slice(b"  ");
    }
}

/// Displays a string with JSON escapes applied (quote, backslash, control
/// characters), without the surrounding quotes: the escaper of
/// `commscope::chrome`'s streamed trace lines.
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::new();
        escape_into(&mut out, self.0);
        f.write_str(std::str::from_utf8(&out).expect("escaping keeps UTF-8"))
    }
}

/// Room for `len` bytes of string text once escaped, at a certificate's
/// density of short escapes (one in every ~6 bytes), quotes included.
fn escaped_capacity(len: usize) -> usize {
    len + len / 4 + 2
}

/// Input bytes [`escape_into`] escapes per step.
const CHUNK: usize = 128;

/// How far past its output [`escape_into`] may write while escaping one
/// step: every byte of it a six-byte escape, and the last one's 8-byte
/// store.
const ESCAPE_SLACK: usize = 6 * CHUNK + 2;

/// Every byte's escaped text, padded to 8 bytes, and its length: itself,
/// a two-byte escape (quote, backslash, `\n`, `\r`, `\t`) or a
/// `\u00XX` escape (every other control character). Bytes of multi-byte
/// UTF-8 sequences stand for themselves.
const ESCAPES: [([u8; 8], usize); 256] = {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut table = [([0u8; 8], 1); 256];
    let mut b = 0;
    while b < 256 {
        let short = match b as u8 {
            b'"' => b'"',
            b'\\' => b'\\',
            b'\n' => b'n',
            b'\r' => b'r',
            b'\t' => b't',
            _ => 0,
        };
        table[b] = if short != 0 {
            ([b'\\', short, 0, 0, 0, 0, 0, 0], 2)
        } else if b < 0x20 {
            ([b'\\', b'u', b'0', b'0', HEX[b >> 4], HEX[b & 15], 0, 0], 6)
        } else {
            ([b as u8, 0, 0, 0, 0, 0, 0, 0], 1)
        };
        b += 1;
    }
    table
};

/// Append `s` with JSON escapes applied, in one pass. The escape-free
/// prefix (all of a key or a name) is copied whole; from the first escape
/// on, every input byte stores its 8-byte table entry and advances the
/// output by the entry's length, so the loop never branches on the text
/// and clean runs cost what escapes cost. Each step of [`CHUNK`] bytes
/// first makes room for its worst case.
fn escape_into(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let clean = bytes
        .iter()
        .position(|&b| ESCAPES[usize::from(b)].1 != 1)
        .unwrap_or(bytes.len());
    out.extend_from_slice(&bytes[..clean]);
    let mut at = out.len();
    for chunk in bytes[clean..].chunks(CHUNK) {
        let need = at + 6 * chunk.len() + 2;
        if out.len() < need {
            out.resize(need, 0);
        }
        for &b in chunk {
            let (text, len) = &ESCAPES[usize::from(b)];
            out[at..at + 8].copy_from_slice(text);
            at += len;
        }
    }
    out.truncate(at);
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
            Some(b'"') => self.string().map(|s| Json::Str(s.into())),
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
            out.push((key.into(), value));
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

    #[test]
    fn layouts_put_named_nodes_on_one_line() {
        let span = Json::obj([("line", 3i64.into()), ("col", 1i64.into())]);
        let j = Json::obj([
            ("span", span.clone()),
            ("spans", Json::Arr(vec![span.clone(), Json::obj([])])),
            (
                "deep",
                Json::obj([("span", Json::Null), ("x", "a\"b".into())]),
            ),
            ("none", Json::Arr(vec![])),
        ]);
        const LAYOUT: Layout = Layout {
            line_values: &["span"],
            line_items: &["spans"],
        };
        assert_eq!(
            j.render_with(&LAYOUT),
            "{\n  \"span\": { \"line\": 3, \"col\": 1 },\n  \"spans\": [\n    \
             { \"line\": 3, \"col\": 1 },\n    {}\n  ],\n  \"deep\": {\n    \"span\": null,\n    \
             \"x\": \"a\\\"b\"\n  },\n  \"none\": []\n}"
        );
        assert_eq!(
            j.render_line(),
            "{ \"span\": { \"line\": 3, \"col\": 1 }, \"spans\": [{ \"line\": 3, \"col\": 1 }, {}], \
             \"deep\": { \"span\": null, \"x\": \"a\\\"b\" }, \"none\": [] }"
        );
        for text in [j.render_with(&LAYOUT), j.render_line()] {
            assert_eq!(parse(&text).unwrap(), j);
        }
        // A node rendered at its depth is the document's text for it.
        let deep = j.get("deep").unwrap().render_at(&LAYOUT, 1);
        assert_eq!(deep, "{\n    \"span\": null,\n    \"x\": \"a\\\"b\"\n  }");
        assert!(j
            .render_with(&LAYOUT)
            .contains(&format!("\"deep\": {deep},")));
        for i in [0, -7, 42, i64::MAX, i64::MIN] {
            assert_eq!(Json::Int(i).render(), i.to_string());
        }
    }
}
