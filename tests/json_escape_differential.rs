//! Differential test of the JSON writer's string escaping: every layout of
//! `netsim::json` (`render`, `render_line`, `render_compact`) and the
//! `Escaped` display must write exactly what a per-character reference
//! escaper writes, and `parse` must read every rendering back to the value
//! it came from.
//!
//! The generated strings cover every control byte 0x00–0x1f, the quote,
//! the backslash, DEL (0x7f, which JSON leaves alone), multi-byte UTF-8,
//! clean runs longer than the writer's escaping step, and the empty
//! string.

use netsim::json::{parse, Escaped, Json};

/// Strings per sweep.
const CASES: usize = 400;
/// Fixed seed: the sweep is reproducible.
const SEED: u64 = 0x0E5C_A9E5;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The reference: one character at a time, short escapes for quote,
/// backslash, `\n`, `\r` and `\t`, lower-case `\u00XX` for every other
/// control character.
fn reference(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One generated string: a mix of single specials, multi-byte characters
/// and clean runs of up to 700 bytes.
fn generate(rng: &mut Rng) -> String {
    const SPECIALS: [char; 6] = ['"', '\\', '\u{7f}', 'é', '∀', '🎉'];
    let mut s = String::new();
    for _ in 0..rng.below(24) {
        match rng.below(4) {
            0 => s.push(char::from(rng.below(0x20) as u8)),
            1 => s.push(SPECIALS[rng.below(SPECIALS.len())]),
            2 => {
                let len = rng.below(8);
                s.extend((0..len).map(|_| char::from(b'a' + rng.below(26) as u8)));
            }
            _ => {
                let len = rng.below(700);
                s.extend((0..len).map(|_| char::from(b' ' + rng.below(0x5e) as u8)));
            }
        }
    }
    s
}

fn corpus() -> Vec<String> {
    let mut rng = Rng(SEED);
    let mut all: Vec<String> = vec![
        String::new(),
        (0u8..0x20).map(char::from).collect(),
        "\"\\\u{7f}".into(),
        "x".repeat(1000),
        "\u{1}".repeat(300),
    ];
    all.extend((0..CASES).map(|_| generate(&mut rng)));
    all
}

#[test]
fn every_layout_escapes_like_the_reference() {
    let corpus = corpus();
    for s in &corpus {
        let want = format!("\"{}\"", reference(s));
        let v = Json::Str(s.clone().into());
        for text in [v.render(), v.render_line(), v.render_compact()] {
            assert_eq!(text, want, "{s:?}");
            assert_eq!(parse(&text).unwrap(), v, "{s:?}");
        }
        assert_eq!(Escaped(s).to_string(), reference(s), "{s:?}");
    }
}

#[test]
fn strings_in_documents_escape_like_the_reference() {
    let corpus = corpus();
    for pair in corpus.windows(2) {
        let (k, v) = (&pair[0], &pair[1]);
        let (rk, rv) = (reference(k), reference(v));
        let doc = Json::Obj(vec![
            (k.clone().into(), Json::Str(v.clone().into())),
            ("n".into(), Json::Int(1)),
        ]);
        assert_eq!(
            doc.render(),
            format!("{{\n  \"{rk}\": \"{rv}\",\n  \"n\": 1\n}}")
        );
        assert_eq!(
            doc.render_line(),
            format!("{{ \"{rk}\": \"{rv}\", \"n\": 1 }}")
        );
        assert_eq!(
            doc.render_compact(),
            format!("{{\"{rk}\":\"{rv}\",\"n\":1}}")
        );
        for text in [doc.render(), doc.render_line(), doc.render_compact()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }
    // Every string of the sweep in one array: the writer's buffer grows
    // across many escaped strings in a row.
    let all: Json = corpus.iter().map(|s| Json::Str(s.clone().into())).collect();
    let want: Vec<String> = corpus
        .iter()
        .map(|s| format!("\"{}\"", reference(s)))
        .collect();
    assert_eq!(all.render_compact(), format!("[{}]", want.join(",")));
    assert_eq!(parse(&all.render_line()).unwrap(), all);
}
