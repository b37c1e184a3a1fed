//! Machine-checkable certificates for parametric lint verdicts.
//!
//! A certificate records, per region, the case analysis that justifies a
//! quantified claim: the normal forms of every clause, the case-split
//! parameters (`lcm`, `boundary`, `threshold`), the concrete lint outcomes
//! at every rank count the prover checked, and the claims extrapolated
//! from them. The independent checker ([`crate::check`]) re-derives the
//! parameters from source, replays [`commint::diag::lint_region_at`] at
//! every listed count, and verifies the claims are entailed — so a prover
//! bug cannot silently upgrade a verdict.
//!
//! Rank counts in `base_min..=checked_max` with no `outcomes` entry fired
//! nothing: empty outcomes are omitted, not implied unknown.

use std::fmt;

use commint::clause::Severity;
use commint::diag::{LintCode, SrcSpan};
use commlint::RankRange;
use netsim::json::{Json, Layout};

/// Certificate schema version (kept in lockstep with the commlint JSON
/// report schema).
pub const CERT_SCHEMA: u32 = 2;

/// One fired lint finding, as recorded in an outcome: the sweep-merge
/// identity plus severity (severity can differ across rank counts for the
/// same identity, e.g. CI002's note/warning split).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Lint code.
    pub code: LintCode,
    /// `comm_p2p` site id, `None` for region-level findings.
    pub site: Option<u32>,
    /// Stable identity key within `(code, site)`.
    pub key: String,
    /// Severity at this rank count.
    pub severity: Severity,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code.code())?;
        match self.site {
            Some(s) => write!(f, "@site{}", s)?,
            None => write!(f, "@region")?,
        }
        write!(f, ":{} ({})", self.key, self.severity.keyword())
    }
}

/// Normal forms of one `comm_p2p` site's clauses, for provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteCert {
    /// Site id.
    pub site: u32,
    /// Directive span in the pragma source, when available.
    pub span: Option<SrcSpan>,
    /// `(clause keyword, normal form)` pairs in clause order.
    pub forms: Vec<(String, String)>,
}

/// Concrete lint outcome at one rank count: the findings that fired.
/// Only non-empty outcomes are recorded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Communicator size.
    pub nranks: usize,
    /// Findings, sorted.
    pub fired: Vec<Finding>,
}

/// A quantified (or sweep-limited) claim about one finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The finding fires at no `N >= from`.
    Absent {
        /// Smallest size the claim covers.
        from: usize,
    },
    /// The finding fires at every `N >= from`.
    Present {
        /// Smallest size the claim covers.
        from: usize,
    },
    /// For `N >= from`, the finding fires exactly when `N mod modulus`
    /// is in `residues`.
    PresentCongruent {
        /// Smallest size the claim covers.
        from: usize,
        /// Case-split modulus (the region's `lcm`).
        modulus: usize,
        /// Firing residues of `N`.
        residues: Vec<usize>,
    },
    /// Only the finite sweep `min..=max` was checked (ineligible region).
    Swept {
        /// First swept size.
        min: usize,
        /// Last swept size.
        max: usize,
    },
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Absent { from } => write!(f, "absent ∀N≥{from}"),
            Verdict::Present { from } => write!(f, "present ∀N≥{from}"),
            Verdict::PresentCongruent {
                from,
                modulus,
                residues,
            } => {
                let rs = residues
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                write!(f, "present ∀N≥{from} with N≡{rs} (mod {modulus})")
            }
            Verdict::Swept { min, max } => write!(f, "swept {min}..={max}"),
        }
    }
}

/// One claim: a finding pattern plus its verdict. Absence claims use
/// `key == "*"` (any key under the `(code, site)`) and carry no severity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Claim {
    /// Lint code the claim is about.
    pub code: LintCode,
    /// Site, `None` for region-level.
    pub site: Option<u32>,
    /// Identity key, or `"*"` for an absence claim over the whole
    /// `(code, site)`.
    pub key: String,
    /// Severity of the claimed finding (absent for absence claims).
    pub severity: Option<Severity>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Per-region case analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionCert {
    /// Region index within the file (0-based).
    pub region: usize,
    /// Whether every clause normalized into the affine-congruence class.
    pub eligible: bool,
    /// Why not, when ineligible (also set when the prover downgraded an
    /// eligible region whose outcomes failed the periodicity check).
    pub reason: Option<String>,
    /// Case-split period `L` (1 for ineligible regions).
    pub lcm: usize,
    /// Boundary width `B`.
    pub boundary: usize,
    /// Threshold `N0 = max(base_min, 2B + 2)`: outcomes are claimed
    /// periodic in `N` with period `lcm` from here up.
    pub threshold: usize,
    /// First rank count checked (the configured sweep minimum).
    pub base_min: usize,
    /// Last rank count checked (`threshold + PERIODS * lcm` when eligible,
    /// the sweep maximum otherwise).
    pub checked_max: usize,
    /// Per-site clause normal forms (empty for ineligible regions).
    pub sites: Vec<SiteCert>,
    /// Non-empty concrete outcomes, ascending `nranks`.
    pub outcomes: Vec<Outcome>,
    /// Claims over the findings.
    pub claims: Vec<Claim>,
}

impl RegionCert {
    /// Findings recorded at rank count `n` (empty when none fired).
    pub fn outcome_at(&self, n: usize) -> &[Finding] {
        self.outcomes
            .iter()
            .find(|o| o.nranks == n)
            .map(|o| o.fired.as_slice())
            .unwrap_or(&[])
    }

    /// What the certificate says fires at rank count `n`: the recorded
    /// outcome inside the checked window, the claims' extrapolation above
    /// it (eligible regions only — `None` means the certificate makes no
    /// statement about `n`).
    pub fn predict(&self, n: usize) -> Option<Vec<Finding>> {
        if n < self.base_min {
            return None;
        }
        if n <= self.checked_max {
            return Some(self.outcome_at(n).to_vec());
        }
        if !self.eligible {
            return None;
        }
        let mut fired = Vec::new();
        for c in &self.claims {
            let hit = match &c.verdict {
                Verdict::Present { from } => n >= *from,
                Verdict::PresentCongruent {
                    from,
                    modulus,
                    residues,
                } => n >= *from && residues.contains(&(n % *modulus.max(&1))),
                Verdict::Absent { .. } | Verdict::Swept { .. } => false,
            };
            if hit {
                fired.push(Finding {
                    code: c.code,
                    site: c.site,
                    key: c.key.clone(),
                    severity: c.severity.unwrap_or(Severity::Note),
                });
            }
        }
        fired.sort();
        Some(fired)
    }
}

/// A full certificate for one pragma source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Schema version ([`CERT_SCHEMA`]).
    pub schema: u32,
    /// Source path as given to the prover.
    pub file: String,
    /// Configured sweep range (per-file `@ranks` already applied).
    pub ranks: RankRange,
    /// One entry per linted region, in source order.
    pub regions: Vec<RegionCert>,
}

// ---------------------------------------------------------------------------
// JSON document
// ---------------------------------------------------------------------------

/// The certificate's one-line nodes: the sweep range, and each site,
/// outcome and claim on a line of its own.
pub const CERT_LAYOUT: Layout = Layout {
    line_values: &["ranks"],
    line_items: &["sites", "outcomes", "claims"],
};

impl From<&Finding> for Json {
    fn from(f: &Finding) -> Json {
        Json::obj([
            ("code", f.code.code().into()),
            ("severity", f.severity.keyword().into()),
            ("site", f.site.into()),
            ("key", f.key.clone().into()),
        ])
    }
}

impl From<&Verdict> for Json {
    fn from(v: &Verdict) -> Json {
        match v {
            Verdict::Absent { from } => {
                Json::obj([("kind", "absent".into()), ("from", (*from).into())])
            }
            Verdict::Present { from } => {
                Json::obj([("kind", "present".into()), ("from", (*from).into())])
            }
            Verdict::PresentCongruent {
                from,
                modulus,
                residues,
            } => Json::obj([
                ("kind", "present-congruent".into()),
                ("from", (*from).into()),
                ("modulus", (*modulus).into()),
                ("residues", residues.iter().map(|&r| r.into()).collect()),
            ]),
            Verdict::Swept { min, max } => Json::obj([
                ("kind", "swept".into()),
                ("min", (*min).into()),
                ("max", (*max).into()),
            ]),
        }
    }
}

/// Clause `(keyword, normal form)` pairs as two-string arrays.
pub fn forms_json(forms: &[(String, String)]) -> Json {
    forms
        .iter()
        .map(|(kw, nf)| Json::Arr(vec![kw.clone().into(), nf.clone().into()]))
        .collect()
}

/// Depth of a region's object in the certificate document: inside the
/// document object and its `"regions"` array.
const REGION_DEPTH: usize = 2;

impl RegionCert {
    /// The region as a JSON value, with site `i` at `spans[i]`.
    fn json_at(&self, spans: &[Option<SrcSpan>]) -> Json {
        let sites = self.sites.iter().zip(spans).map(|(s, span)| {
            Json::obj([
                ("site", s.site.into()),
                ("span", span.as_ref().map(commlint::json::span).into()),
                ("forms", forms_json(&s.forms)),
            ])
        });
        let outcomes = self.outcomes.iter().map(|o| {
            Json::obj([
                ("nranks", o.nranks.into()),
                ("fired", o.fired.iter().map(Json::from).collect()),
            ])
        });
        let claims = self.claims.iter().map(|c| {
            Json::obj([
                ("code", c.code.code().into()),
                ("site", c.site.into()),
                ("key", c.key.clone().into()),
                ("severity", c.severity.map(|s| s.keyword()).into()),
                ("verdict", (&c.verdict).into()),
            ])
        });
        Json::obj([
            ("region", self.region.into()),
            ("eligible", self.eligible.into()),
            ("reason", self.reason.clone().into()),
            ("lcm", self.lcm.into()),
            ("boundary", self.boundary.into()),
            ("threshold", self.threshold.into()),
            ("base_min", self.base_min.into()),
            ("checked_max", self.checked_max.into()),
            ("sites", sites.collect()),
            ("outcomes", outcomes.collect()),
            ("claims", claims.collect()),
        ])
    }

    /// This region's element of the document's `"regions"` array, as
    /// [`render_certificate`] splices it: [`CERT_LAYOUT`] at the region's
    /// depth, first line unindented, with site `i` at `spans[i]` (the
    /// daemon's kept regions carry no spans of their own).
    pub fn fragment(&self, spans: &[Option<SrcSpan>]) -> String {
        self.json_at(spans).render_at(&CERT_LAYOUT, REGION_DEPTH)
    }
}

/// The one certificate writer: the header (`schema`, `file`, `ranks`) and
/// then each region's [`RegionCert::fragment`], in order, as the elements
/// of `"regions"`. [`Certificate::to_json`] renders every fragment and
/// calls it; the daemon calls it with fragments it rendered earlier.
pub fn render_certificate<S: AsRef<str>>(
    schema: u32,
    file: &str,
    ranks: RankRange,
    regions: &[S],
) -> String {
    let head = Json::obj([
        ("schema", schema.into()),
        ("file", file.to_string().into()),
        ("ranks", ranks.into()),
    ])
    .render_with(&CERT_LAYOUT);
    let head = head
        .strip_suffix("\n}")
        .expect("a non-empty object closes on a line of its own");
    let body: usize = regions.iter().map(|r| r.as_ref().len() + 6).sum();
    let mut out = String::with_capacity(head.len() + body + 24);
    out.push_str(head);
    out.push_str(",\n  \"regions\": ");
    if regions.is_empty() {
        out.push_str("[]");
    } else {
        for (i, r) in regions.iter().enumerate() {
            out.push_str(if i == 0 { "[\n    " } else { ",\n    " });
            out.push_str(r.as_ref());
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    out
}

impl Certificate {
    /// Render as a stable, pretty-printed JSON document (trailing newline,
    /// two-space indent, [`CERT_LAYOUT`]) suitable for golden-file byte
    /// diffs, through [`render_certificate`].
    pub fn to_json(&self) -> String {
        let regions: Vec<String> = self
            .regions
            .iter()
            .map(|r| {
                let spans: Vec<Option<SrcSpan>> = r.sites.iter().map(|s| s.span).collect();
                r.fragment(&spans)
            })
            .collect();
        render_certificate(self.schema, &self.file, self.ranks, &regions)
    }
}

/// Parse a `CIxxx` code string back into a [`LintCode`].
pub fn code_from_str(s: &str) -> Option<LintCode> {
    LintCode::ALL.into_iter().find(|c| c.code() == s)
}

/// Parse a severity keyword back into a [`Severity`].
pub fn severity_from_keyword(s: &str) -> Option<Severity> {
    [Severity::Note, Severity::Warning, Severity::Error]
        .into_iter()
        .find(|sev| sev.keyword() == s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> RegionCert {
        RegionCert {
            region: 0,
            eligible: true,
            reason: None,
            lcm: 2,
            boundary: 3,
            threshold: 8,
            base_min: 2,
            checked_max: 14,
            sites: vec![SiteCert {
                site: 1,
                span: Some(SrcSpan {
                    offset: 40,
                    line: 3,
                    col: 5,
                }),
                forms: vec![("sender".into(), "rank-1".into())],
            }],
            outcomes: vec![Outcome {
                nranks: 9,
                fired: vec![Finding {
                    code: LintCode::UnmatchedSend,
                    site: Some(1),
                    key: "p0:sends".into(),
                    severity: Severity::Error,
                }],
            }],
            claims: vec![Claim {
                code: LintCode::UnmatchedSend,
                site: Some(1),
                key: "p0:sends".into(),
                severity: Some(Severity::Error),
                verdict: Verdict::PresentCongruent {
                    from: 8,
                    modulus: 2,
                    residues: vec![1],
                },
            }],
        }
    }

    #[test]
    fn predict_uses_outcomes_then_extrapolates() {
        let r = region();
        assert_eq!(r.predict(1), None, "below base_min");
        assert_eq!(r.predict(2).unwrap(), vec![], "checked, nothing fired");
        assert_eq!(r.predict(9).unwrap().len(), 1, "recorded outcome");
        // Above checked_max: congruence extrapolation (odd fires).
        assert_eq!(r.predict(101).unwrap().len(), 1);
        assert_eq!(r.predict(100).unwrap(), vec![]);
    }

    #[test]
    fn json_round_keywords() {
        assert_eq!(code_from_str("CI004"), Some(LintCode::SizeMismatch));
        assert_eq!(code_from_str("CI999"), None);
        assert_eq!(severity_from_keyword("warning"), Some(Severity::Warning));
        let cert = Certificate {
            schema: CERT_SCHEMA,
            file: "x.comm".into(),
            ranks: RankRange { min: 2, max: 16 },
            regions: vec![region()],
        };
        let doc = cert.to_json();
        assert!(doc.contains("\"schema\": 2"), "{doc}");
        assert!(doc.contains("\"kind\": \"present-congruent\""), "{doc}");
        assert!(doc.ends_with("}\n"), "{doc}");
    }

    /// The spliced document is the one a single render of the whole value
    /// lays out, with zero, one and two regions.
    #[test]
    fn spliced_fragments_read_as_one_rendered_document() {
        for n in 0..3 {
            let cert = Certificate {
                schema: CERT_SCHEMA,
                file: "a \"quoted\" path.comm".into(),
                ranks: RankRange { min: 2, max: 16 },
                regions: vec![region(); n],
            };
            let whole = Json::obj([
                ("schema", cert.schema.into()),
                ("file", cert.file.clone().into()),
                ("ranks", cert.ranks.into()),
                (
                    "regions",
                    cert.regions
                        .iter()
                        .map(|r| r.json_at(&[r.sites[0].span]))
                        .collect(),
                ),
            ])
            .render_with(&CERT_LAYOUT);
            assert_eq!(cert.to_json(), whole + "\n");
        }
    }
}
