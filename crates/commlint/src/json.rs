//! Hand-rolled JSON rendering for `commlint --format json`.
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
//! Output is pretty-printed with two-space indent and a trailing newline so
//! golden files diff cleanly.

use commint::clause::Severity;
use commint::diag::Verification;
use netsim::json::Escaped;

use crate::LintReport;

/// Schema version of the JSON document.
pub const SCHEMA: u32 = 2;

/// Render a [`Verification`] as a one-line JSON object (`null` if absent).
/// Shared with `commprove`, which emits the same per-diagnostic shape.
pub fn verification_json(v: Option<&Verification>) -> String {
    match v {
        None => "null".to_string(),
        Some(Verification::Proved { from }) => {
            format!("{{ \"kind\": \"proved\", \"from\": {from} }}")
        }
        Some(Verification::ProvedCongruent {
            from,
            modulus,
            residues,
        }) => {
            let rs: Vec<String> = residues.iter().map(|r| r.to_string()).collect();
            format!(
                "{{ \"kind\": \"proved-congruent\", \"from\": {from}, \"modulus\": {modulus}, \
                 \"residues\": [{}] }}",
                rs.join(", ")
            )
        }
        Some(Verification::Swept { min, max }) => {
            format!("{{ \"kind\": \"swept\", \"min\": {min}, \"max\": {max} }}")
        }
    }
}

fn diag_json(d: &commint::diag::Diag, indent: &str) -> String {
    let span = match d.span {
        Some(sp) => format!("{{ \"line\": {}, \"col\": {} }}", sp.line, sp.col),
        None => "null".to_string(),
    };
    let site = match d.site {
        Some(s) => s.to_string(),
        None => "null".to_string(),
    };
    let witness = match &d.witness {
        Some(w) => {
            let ranks: Vec<String> = w.ranks.iter().map(|r| r.to_string()).collect();
            format!(
                "{{ \"nranks\": {}, \"ranks\": [{}] }}",
                w.nranks,
                ranks.join(", ")
            )
        }
        None => "null".to_string(),
    };
    let verification = verification_json(d.verification.as_ref());
    format!(
        "{indent}{{\n\
         {indent}  \"code\": \"{}\",\n\
         {indent}  \"name\": \"{}\",\n\
         {indent}  \"severity\": \"{}\",\n\
         {indent}  \"message\": \"{}\",\n\
         {indent}  \"span\": {span},\n\
         {indent}  \"region\": {},\n\
         {indent}  \"site\": {site},\n\
         {indent}  \"witness\": {witness},\n\
         {indent}  \"verification\": {verification}\n\
         {indent}}}",
        d.code.code(),
        d.code.name(),
        d.severity.keyword(),
        Escaped(&d.message),
        d.region,
    )
}

fn file_json(path: &str, report: &LintReport, indent: &str) -> String {
    let diags: Vec<String> = report
        .diags
        .iter()
        .map(|d| diag_json(d, &format!("{indent}    ")))
        .collect();
    let diags = if diags.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n{indent}  ]", diags.join(",\n"))
    };
    format!(
        "{indent}{{\n\
         {indent}  \"path\": \"{}\",\n\
         {indent}  \"ranks\": {{ \"min\": {}, \"max\": {} }},\n\
         {indent}  \"diagnostics\": {diags}\n\
         {indent}}}",
        Escaped(path),
        report.ranks.min,
        report.ranks.max,
    )
}

/// Render reports for a set of files as one JSON document.
pub fn render_json(files: &[(String, LintReport)]) -> String {
    let (mut errors, mut warnings, mut notes) = (0usize, 0usize, 0usize);
    for (_, r) in files {
        errors += r.count(Severity::Error);
        warnings += r.count(Severity::Warning);
        notes += r.count(Severity::Note);
    }
    let entries: Vec<String> = files
        .iter()
        .map(|(path, r)| file_json(path, r, "    "))
        .collect();
    let files_json = if entries.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n  ]", entries.join(",\n"))
    };
    format!(
        "{{\n  \"schema\": {SCHEMA},\n  \"files\": {files_json},\n  \"summary\": {{ \"errors\": {errors}, \"warnings\": {warnings}, \"notes\": {notes} }}\n}}\n"
    )
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
