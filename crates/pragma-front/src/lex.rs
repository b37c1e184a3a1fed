//! Tokenizer for the pragma directive syntax and its C-subset clause
//! expressions.

use std::fmt;

/// A source position (byte offset + 1-based line/column) for diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Byte offset in the input.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// `#pragma`
    Pragma,
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `&` (address-of in buffer expressions like `&buf1[p]`)
    Amp,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `.` (member access in buffer expressions)
    Dot,
    /// `;` (statement separator in skipped code)
    Semi,
    /// `=` (assignment in skipped code)
    Assign,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Pragma => write!(f, "#pragma"),
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::Comma => write!(f, ","),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Percent => write!(f, "%"),
            Tok::EqEq => write!(f, "=="),
            Tok::NotEq => write!(f, "!="),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::AndAnd => write!(f, "&&"),
            Tok::OrOr => write!(f, "||"),
            Tok::Bang => write!(f, "!"),
            Tok::Amp => write!(f, "&"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::Dot => write!(f, "."),
            Tok::Semi => write!(f, ";"),
            Tok::Assign => write!(f, "="),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub span: Span,
}

/// A lexical error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Offending character; `None` for an integer literal that overflows
    /// `i64`.
    pub ch: Option<char>,
    /// Where.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ch {
            Some(ch) => write!(f, "unexpected character `{ch}` at {}", self.span),
            None => write!(f, "integer literal out of range at {}", self.span),
        }
    }
}

impl std::error::Error for LexError {}

/// Tokenize `input`. `//` line comments and `/* */` block comments are
/// skipped; `#pragma` is recognized as one token.
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut col = 1usize;

    macro_rules! span {
        () => {
            Span {
                offset: i,
                line,
                col,
            }
        };
    }

    macro_rules! bump {
        ($n:expr) => {{
            for _ in 0..$n {
                if i < bytes.len() {
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        // Whitespace (pragma line continuations `\` + newline included).
        if c.is_whitespace() || c == '\\' {
            bump!(1);
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < bytes.len() {
            if bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!(1);
                }
                continue;
            }
            if bytes[i + 1] == b'*' {
                bump!(2);
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    bump!(1);
                }
                bump!(2);
                continue;
            }
        }
        let sp = span!();
        // #pragma
        if c == '#' {
            let rest = &input[i..];
            if rest.starts_with("#pragma") {
                out.push(Token {
                    tok: Tok::Pragma,
                    span: sp,
                });
                bump!(7);
                continue;
            }
            return Err(LexError {
                ch: Some(c),
                span: sp,
            });
        }
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                bump!(1);
            }
            out.push(Token {
                tok: Tok::Ident(input[start..i].to_string()),
                span: sp,
            });
            continue;
        }
        // Integers.
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                bump!(1);
            }
            let Ok(v) = input[start..i].parse::<i64>() else {
                return Err(LexError { ch: None, span: sp });
            };
            out.push(Token {
                tok: Tok::Int(v),
                span: sp,
            });
            continue;
        }
        // Multi-char operators, looked up on bytes: a multi-byte character
        // here must reach the unexpected-character error, not split a
        // string slice.
        let (tok, len) = match bytes.get(i..i + 2) {
            Some(b"==") => (Tok::EqEq, 2),
            Some(b"!=") => (Tok::NotEq, 2),
            Some(b"<=") => (Tok::Le, 2),
            Some(b">=") => (Tok::Ge, 2),
            Some(b"&&") => (Tok::AndAnd, 2),
            Some(b"||") => (Tok::OrOr, 2),
            _ => match c {
                '(' => (Tok::LParen, 1),
                ')' => (Tok::RParen, 1),
                '{' => (Tok::LBrace, 1),
                '}' => (Tok::RBrace, 1),
                ',' => (Tok::Comma, 1),
                '+' => (Tok::Plus, 1),
                '-' => (Tok::Minus, 1),
                '*' => (Tok::Star, 1),
                '/' => (Tok::Slash, 1),
                '%' => (Tok::Percent, 1),
                '<' => (Tok::Lt, 1),
                '>' => (Tok::Gt, 1),
                '!' => (Tok::Bang, 1),
                '&' => (Tok::Amp, 1),
                '[' => (Tok::LBracket, 1),
                ']' => (Tok::RBracket, 1),
                '.' => (Tok::Dot, 1),
                ';' => (Tok::Semi, 1),
                '=' => (Tok::Assign, 1),
                _ => {
                    return Err(LexError {
                        ch: input[i..].chars().next(),
                        span: sp,
                    })
                }
            },
        };
        out.push(Token { tok, span: sp });
        bump!(len);
    }
    out.push(Token {
        tok: Tok::Eof,
        span: span!(),
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn listing1_tokens() {
        let toks = kinds("#pragma comm_p2p sender(prev) receiver(next)\n  sbuf(buf1) rbuf(buf2)");
        assert_eq!(toks[0], Tok::Pragma);
        assert_eq!(toks[1], Tok::Ident("comm_p2p".into()));
        assert_eq!(toks[2], Tok::Ident("sender".into()));
        assert_eq!(toks[3], Tok::LParen);
        assert_eq!(toks[4], Tok::Ident("prev".into()));
        assert!(toks.contains(&Tok::Ident("rbuf".into())));
        assert_eq!(*toks.last().unwrap(), Tok::Eof);
    }

    #[test]
    fn operators_and_numbers() {
        let toks = kinds("(rank-1+nprocs)%nprocs == 0 && rank != 2");
        assert!(toks.contains(&Tok::Percent));
        assert!(toks.contains(&Tok::EqEq));
        assert!(toks.contains(&Tok::AndAnd));
        assert!(toks.contains(&Tok::NotEq));
        assert!(toks.contains(&Tok::Int(1)));
        assert!(toks.contains(&Tok::Int(0)));
    }

    #[test]
    fn comments_and_continuations_skipped() {
        let toks = kinds(
            "#pragma comm_p2p \\\n  sender(prev) // tail comment\n  /* block */ receiver(next)",
        );
        assert_eq!(
            toks.iter().filter(|t| matches!(t, Tok::Ident(_))).count(),
            5
        );
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("#pragma\ncomm_p2p").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 1);
    }

    #[test]
    fn address_and_index_tokens() {
        let toks = kinds("sbuf(&ev[3*p])");
        assert!(toks.contains(&Tok::Amp));
        assert!(toks.contains(&Tok::LBracket));
        assert!(toks.contains(&Tok::Star));
    }

    #[test]
    fn bad_character_reports_position() {
        let err = lex("sender(@)").unwrap_err();
        assert_eq!(err.ch, Some('@'));
        assert_eq!(err.span.col, 8);
        // An overflowing literal and a multi-byte character are errors at
        // their position, not panics.
        let err = lex("sender(rank+99999999999999999999)").unwrap_err();
        assert_eq!((err.ch, err.span.col), (None, 13));
        let err = lex("sender(rank\u{2014}1)").unwrap_err();
        assert_eq!((err.ch, err.span.col), (Some('\u{2014}'), 12));
    }
}
