//! The JSON report of `commlint --format json`.
//!
//! The schema is stable — CI consumers and the golden-file tests depend on
//! it. Schema 2 adds the top-level `"schema"` marker and a per-diagnostic
//! `"verification"` object saying how broadly the finding was established
//! (`swept` for the concrete sweep; `proved`/`proved-congruent` when
//! `commprove` decided it for all rank counts):
//!
//! ```json
//! {
//!   "schema": 2,
//!   "files": [
//!     {
//!       "path": "...",
//!       "ranks": { "min": 2, "max": 16 },
//!       "diagnostics": [
//!         {
//!           "code": "CI001",
//!           "name": "unmatched-send",
//!           "severity": "error",
//!           "message": "...",
//!           "span": { "line": 3, "col": 28 },
//!           "region": 0,
//!           "site": 0,
//!           "witness": { "nranks": 3, "ranks": [2] },
//!           "verification": { "kind": "swept", "min": 2, "max": 16 }
//!         }
//!       ]
//!     }
//!   ],
//!   "summary": { "errors": 1, "warnings": 0, "notes": 0 }
//! }
//! ```
//!
//! The report is a [`Json`] value, rendered by `netsim::json` under
//! [`LAYOUT`] with a trailing newline so golden files diff cleanly.

use commint::clause::Severity;
use commint::diag::{Diag, SrcSpan, Verification};
use netsim::json::{Json, Layout};

use crate::{LintReport, RankRange};

/// Schema version of the JSON document.
pub const SCHEMA: u32 = 2;

/// The report's one-line nodes: every other container spans lines.
pub const LAYOUT: Layout = Layout {
    line_values: &["ranks", "span", "witness", "verification", "summary"],
    line_items: &[],
};

impl From<RankRange> for Json {
    fn from(r: RankRange) -> Json {
        Json::obj([("min", r.min.into()), ("max", r.max.into())])
    }
}

/// A source position as `{ "line", "col" }` (the certificate uses it too).
pub fn span(sp: &SrcSpan) -> Json {
    Json::obj([("line", sp.line.into()), ("col", sp.col.into())])
}

fn verification(v: &Verification) -> Json {
    match v {
        Verification::Proved { from } => {
            Json::obj([("kind", "proved".into()), ("from", (*from).into())])
        }
        Verification::ProvedCongruent {
            from,
            modulus,
            residues,
        } => Json::obj([
            ("kind", "proved-congruent".into()),
            ("from", (*from).into()),
            ("modulus", (*modulus).into()),
            ("residues", residues.iter().map(|&r| r.into()).collect()),
        ]),
        Verification::Swept { min, max } => Json::obj([
            ("kind", "swept".into()),
            ("min", (*min).into()),
            ("max", (*max).into()),
        ]),
    }
}

fn diagnostic(d: &Diag) -> Json {
    let witness = d.witness.as_ref().map(|w| {
        Json::obj([
            ("nranks", w.nranks.into()),
            ("ranks", w.ranks.iter().map(|&r| r.into()).collect()),
        ])
    });
    Json::obj([
        ("code", d.code.code().into()),
        ("name", d.code.name().into()),
        ("severity", d.severity.keyword().into()),
        ("message", d.message.clone().into()),
        ("span", d.span.as_ref().map(span).into()),
        ("region", d.region.into()),
        ("site", d.site.into()),
        ("witness", witness.into()),
        (
            "verification",
            d.verification.as_ref().map(verification).into(),
        ),
    ])
}

/// Render reports for a set of files as one JSON document.
pub fn render_json(files: &[(String, LintReport)]) -> String {
    let count = |sev| files.iter().map(|(_, r)| r.count(sev)).sum::<usize>();
    let doc = Json::obj([
        ("schema", SCHEMA.into()),
        (
            "files",
            files
                .iter()
                .map(|(path, r)| {
                    Json::obj([
                        ("path", path.clone().into()),
                        ("ranks", r.ranks.into()),
                        ("diagnostics", r.diags.iter().map(diagnostic).collect()),
                    ])
                })
                .collect(),
        ),
        (
            "summary",
            Json::obj([
                ("errors", count(Severity::Error).into()),
                ("warnings", count(Severity::Warning).into()),
                ("notes", count(Severity::Note).into()),
            ]),
        ),
    ]);
    let mut out = doc.render_with(&LAYOUT);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_source, LintOptions, RankRange};
    use pragma_front::SymbolTable;

    #[test]
    fn json_document_shape() {
        let src = "\
// @decl a: int[4]
// @decl b: int[4]
#pragma comm_p2p sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank<0) \
  sbuf(a) rbuf(b) count(4)";
        let report = lint_source(
            src,
            &SymbolTable::new(),
            &LintOptions {
                ranks: RankRange { min: 2, max: 4 },
                ..Default::default()
            },
        )
        .unwrap();
        let doc = render_json(&[("f.comm".to_string(), report)]);
        assert!(doc.contains("\"schema\": 2"), "{doc}");
        assert!(
            doc.contains("\"verification\": { \"kind\": \"swept\", \"min\": 2, \"max\": 4 }"),
            "{doc}"
        );
        assert!(doc.contains("\"path\": \"f.comm\""), "{doc}");
        assert!(
            doc.contains("\"ranks\": { \"min\": 2, \"max\": 4 }"),
            "{doc}"
        );
        assert!(doc.contains("\"code\": \"CI001\""), "{doc}");
        assert!(doc.contains("\"witness\": { \"nranks\": 2"), "{doc}");
        assert!(doc.ends_with("}\n"), "{doc}");
    }

    #[test]
    fn empty_input_summarizes_to_zero() {
        let doc = render_json(&[]);
        assert!(doc.contains("\"files\": []"));
        assert!(doc.contains("\"errors\": 0, \"warnings\": 0, \"notes\": 0"));
    }
}
