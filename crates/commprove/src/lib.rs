//! # commprove — parametric verification of communication intent
//!
//! `commlint` answers "does this spec lint clean at N ranks?" for a finite
//! sweep of N. This crate answers the question the sweep cannot: **does it
//! hold for *all* rank counts?**
//!
//! The approach is a small-model theorem for the affine-congruence class
//! (see `commint::nf` and DESIGN.md §6d). Every clause of a region is
//! normalized to `a·rank + n·nprocs + c` under at most one `mod`/`div`;
//! from the normal forms two numbers fall out — the case-split period `L`
//! (lcm of the constant moduli, divisors and rank strides) and the
//! boundary width `B` (how far the "special" ranks reach from rank 0 and
//! rank N−1). Above the threshold `N₀ = max(min, 2B+2)` the outcome of
//! every lint property is a function of `N mod L`, so checking the window
//! `[min, N₀ + PERIODS·L]` concretely and observing period-`L` stability
//! decides each finding **for every N ≥ N₀**:
//!
//! * fires at every residue → `proved ∀N≥N₀` ([`Verification::Proved`]),
//! * fires at some residues → `proved ∀N≥N₀, N≡r (mod L)`,
//! * fires at none → an absence claim ("holds for all N").
//!
//! Regions outside the class (opaque host code, unbound variables,
//! non-affine shapes, periods above `LCM_CAP`) degrade to exactly today's
//! behaviour: the concrete sweep over the configured range, stamped
//! `swept lo..=hi`.
//!
//! Every verdict is backed by a machine-checkable [`cert::Certificate`]
//! recording the normal forms, the case-split parameters, the concrete
//! outcomes and the claims. The independent checker ([`check`]) re-derives
//! the parameters from source and replays `lint_region_at` at every
//! checked count, so a prover bug cannot silently upgrade a verdict.

pub mod cert;
pub mod check;
/// [`netsim::json`] under its former name, for the repository benchmark
/// (`commbench/`), which imports the certificate reader by this path. The
/// tests pin the certificate shapes and the nesting cap this path promises.
pub mod jsonv {
    pub use netsim::json::{parse, Json as JValue};

    #[cfg(test)]
    mod tests {
        use super::*;
        use netsim::json::MAX_DEPTH;

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
        fn nesting_is_capped_with_a_position() {
            let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
            assert!(parse(&ok).is_ok());
            let err = parse(&"[".repeat(100_000)).unwrap_err();
            assert_eq!(err.at, MAX_DEPTH);
            assert!(err.message.contains("nesting"), "{err}");
        }
    }
}

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use commint::diag::{lint_region_at, Diag, LintCode, SrcSpan, Verification};
use commint::dir::ParamsSpec;
use commint::expr::VarTable;
use commint::nf::{normalize_cond, normalize_expr, ClassParams, NormExpr, LCM_CAP};
use commlint::{map_parse_diag, region_view, scan_annotations, LintOptions, LintReport, RankRange};
use pragma_front::{parse, ParseError, Parsed, SymbolTable};

use cert::{Certificate, Claim, Finding, Outcome, RegionCert, SiteCert, Verdict, CERT_SCHEMA};

/// Full periods checked above the threshold. One period fixes the residue
/// pattern; the extra periods are the observed-stability evidence the
/// certificate (and its checker) insist on.
pub const PERIODS: usize = 3;

/// Largest rank count the prover will check concretely. A window that
/// would exceed this (huge boundary or period) pushes the region out of
/// the decidable class rather than into an unbounded case analysis.
pub const CHECKED_CAP: usize = 4096;

/// The lint properties decided parametrically: for each of these (per
/// site and region-level), an eligible region's certificate carries either
/// presence claims or an explicit absence claim ("holds for all N").
pub const PROVED_CODES: [LintCode; 9] = [
    LintCode::UnmatchedSend,
    LintCode::BlockingDeadlockCycle,
    LintCode::SizeMismatch,
    LintCode::SendwhenPairing,
    LintCode::ConsolidationUnsafeOverlap,
    LintCode::OverlappingPuts,
    LintCode::GetPutConflict,
    LintCode::SourceReuseBeforeQuiet,
    LintCode::ReadBeforeSignalWait,
];

/// Result of proving one source: the (verification-stamped) lint report
/// plus the certificate that justifies the stamps.
#[derive(Clone, Debug)]
pub struct ProveReport {
    /// Diagnostics, most severe first — same shape `commlint` produces,
    /// with `verification` upgraded where the prover decided the finding.
    pub report: LintReport,
    /// The per-region case analyses backing the verdicts.
    pub certificate: Certificate,
}

/// The identity of a lint finding as recorded in certificates.
pub fn finding_of(d: &Diag) -> Finding {
    Finding {
        code: d.code,
        site: d.site,
        key: d.key.clone(),
        severity: d.severity,
    }
}

/// Normalize one site's merged clause set, joining its [`ClassParams`]
/// into `params` and appending `(keyword, normal form)` pairs to `forms`.
/// `Err` carries a human-readable reason naming the offending clause.
fn normalize_site(
    spec: &ParamsSpec,
    p2p: &commint::dir::P2pSpec,
    vars: &VarTable,
    params: &mut ClassParams,
    forms: &mut Vec<(String, String)>,
) -> Result<(), String> {
    let merged = p2p.clauses.merged_with(&spec.clauses);
    let mut joined = *params;
    {
        let mut expr =
            |kw: &str, e: &commint::expr::RankExpr, relax: bool| -> Result<ClassParams, String> {
                let nf = normalize_expr(e, vars)
                    .map_err(|err| format!("site {}: `{kw}`: {err}", p2p.site))?;
                forms.push((kw.to_string(), nf.to_string()));
                // A constant `count`/`max_comm_iter` has no rank-boundary
                // semantics — it names a payload size, not a rank — so it
                // must not inflate the boundary width (and with it the
                // threshold).
                if relax && matches!(nf, NormExpr::Lin(l) if l.is_const()) {
                    Ok(ClassParams::default())
                } else {
                    Ok(ClassParams::of_expr(&nf))
                }
            };
        if let Some(e) = &merged.sender {
            joined = joined.join(expr("sender", e, false)?);
        }
        if let Some(e) = &merged.receiver {
            joined = joined.join(expr("receiver", e, false)?);
        }
        if let Some(e) = &merged.count {
            joined = joined.join(expr("count", e, true)?);
        }
        if let Some(e) = &merged.max_comm_iter {
            joined = joined.join(expr("max_comm_iter", e, true)?);
        }
    }
    for (kw, c) in [
        ("sendwhen", &merged.sendwhen),
        ("receivewhen", &merged.receivewhen),
    ] {
        if let Some(c) = c {
            let nf = normalize_cond(c, vars)
                .map_err(|err| format!("site {}: `{kw}`: {err}", p2p.site))?;
            forms.push((kw.to_string(), nf.to_string()));
            joined = joined.join(ClassParams::of_cond(&nf));
        }
    }
    *params = joined;
    Ok(())
}

/// Normalize every clause of every site in a region. `Err` is the reason
/// the region is outside the decidable class.
pub fn region_forms(
    spec: &ParamsSpec,
    site_spans: &HashMap<u32, SrcSpan>,
    vars: &VarTable,
) -> Result<(Vec<SiteCert>, ClassParams), String> {
    let mut params = ClassParams::default();
    let mut sites = Vec::new();
    for p2p in &spec.body {
        let mut forms = Vec::new();
        normalize_site(spec, p2p, vars, &mut params, &mut forms)?;
        sites.push(SiteCert {
            site: p2p.site,
            span: site_spans.get(&p2p.site).copied(),
            forms,
        });
    }
    Ok((sites, params))
}

/// Merge per-count diagnostics exactly as `commlint`'s sweep does: dedupe
/// by `(code, region, site, key)` in ascending-count order, keeping the
/// first (smallest-count) witness.
fn merge_diags(per_count: &[(usize, Vec<Diag>)]) -> Vec<Diag> {
    let mut seen: HashSet<(LintCode, usize, Option<u32>, String)> = HashSet::new();
    let mut out = Vec::new();
    for (_, diags) in per_count {
        for d in diags {
            if seen.insert((d.code, d.region, d.site, d.key.clone())) {
                out.push(d.clone());
            }
        }
    }
    out
}

/// Sorted, deduplicated findings per checked count.
fn outcome_map(per_count: &[(usize, Vec<Diag>)]) -> BTreeMap<usize, Vec<Finding>> {
    per_count
        .iter()
        .map(|(n, diags)| {
            let mut fired: Vec<Finding> = diags.iter().map(finding_of).collect();
            fired.sort();
            fired.dedup();
            (*n, fired)
        })
        .collect()
}

fn nonempty_outcomes(outcomes: &BTreeMap<usize, Vec<Finding>>) -> Vec<Outcome> {
    outcomes
        .iter()
        .filter(|(_, fired)| !fired.is_empty())
        .map(|(n, fired)| Outcome {
            nranks: *n,
            fired: fired.clone(),
        })
        .collect()
}

/// Build the swept (non-quantified) result for a region: diagnostics
/// stamped `swept min..=max`, a certificate whose claims are all
/// [`Verdict::Swept`].
fn swept_region(
    region: usize,
    min: usize,
    max: usize,
    per_count: &[(usize, Vec<Diag>)],
    sites: Vec<SiteCert>,
    reason: String,
) -> (Vec<Diag>, RegionCert) {
    let mut diags = merge_diags(per_count);
    for d in &mut diags {
        d.verification = Some(Verification::Swept { min, max });
    }
    let outcomes = outcome_map(per_count);
    let mut seen: BTreeSet<Finding> = BTreeSet::new();
    for fired in outcomes.values() {
        seen.extend(fired.iter().cloned());
    }
    let claims = seen
        .into_iter()
        .map(|f| Claim {
            code: f.code,
            site: f.site,
            key: f.key,
            severity: Some(f.severity),
            verdict: Verdict::Swept { min, max },
        })
        .collect();
    let rc = RegionCert {
        region,
        eligible: false,
        reason: Some(reason),
        lcm: 1,
        boundary: 0,
        threshold: min,
        base_min: min,
        checked_max: max,
        sites,
        outcomes: nonempty_outcomes(&outcomes),
        claims,
    };
    (diags, rc)
}

/// Prove one region: decide every lint property for all `N ≥ N₀` when the
/// region is in the affine-congruence class, or fall back to the concrete
/// sweep over `ranks` when it is not.
pub fn prove_region(
    region: usize,
    spec: &ParamsSpec,
    site_spans: &HashMap<u32, SrcSpan>,
    ranks: RankRange,
    vars: &HashMap<String, i64>,
) -> (Vec<Diag>, RegionCert) {
    prove_region_with(region, spec, site_spans, ranks, vars, &|n| {
        lint_region_at(region, spec, n, vars)
    })
}

/// [`prove_region`] with the concrete lint step injected: `lint_at(n)`
/// must return exactly `lint_region_at(region, spec, n, vars)` — possibly
/// from a cache. The incremental service (`commintd`) passes a closure
/// backed by its per-count stripe store so a prove request reuses every
/// stripe an analyze request already computed (and vice versa); the
/// certificate and diagnostics are byte-identical because the inputs are.
pub fn prove_region_with(
    region: usize,
    spec: &ParamsSpec,
    site_spans: &HashMap<u32, SrcSpan>,
    ranks: RankRange,
    vars: &HashMap<String, i64>,
    lint_at: &dyn Fn(usize) -> Vec<Diag>,
) -> (Vec<Diag>, RegionCert) {
    let vt: VarTable = vars.into();
    let lint_window = |hi: usize| -> Vec<(usize, Vec<Diag>)> {
        (ranks.min..=hi).map(|n| (n, lint_at(n))).collect()
    };
    let (sites, params) = match region_forms(spec, site_spans, &vt) {
        Ok(ok) => ok,
        Err(reason) => {
            let per_count = lint_window(ranks.max);
            return swept_region(region, ranks.min, ranks.max, &per_count, vec![], reason);
        }
    };
    if !params.eligible() {
        let per_count = lint_window(ranks.max);
        let reason = format!("case-split period exceeds the lcm cap ({LCM_CAP})");
        return swept_region(region, ranks.min, ranks.max, &per_count, sites, reason);
    }
    let l = params.lcm as usize;
    let b = params.boundary as usize;
    let threshold = ranks.min.max(2 * b + 2);
    let hi = threshold + PERIODS * l;
    if hi > CHECKED_CAP {
        let per_count = lint_window(ranks.max);
        let reason = format!("checked window would reach N={hi}, beyond the cap ({CHECKED_CAP})");
        return swept_region(region, ranks.min, ranks.max, &per_count, sites, reason);
    }

    let per_count = lint_window(hi);
    let outcomes = outcome_map(&per_count);

    // Observed stability: outcomes must be periodic with period L from the
    // threshold up. The small-model argument says they are; if they are
    // not, the parameter extraction missed something and the only sound
    // verdict is the sweep itself.
    for n in threshold..=hi - l {
        if outcomes[&n] != outcomes[&(n + l)] {
            let reason = format!(
                "outcomes not periodic above the threshold (N={n} vs N={}, period {l})",
                n + l
            );
            return swept_region(region, ranks.min, hi, &per_count, sites, reason);
        }
    }

    let fires_at = |n: usize, f: &Finding| outcomes[&n].binary_search(f).is_ok();

    // Presence claims: one per distinct finding observed at N ≥ N₀. The
    // last full period fixes the residue pattern; the claim's `from` is
    // then extended downward through the concrete window as far as the
    // pattern keeps holding.
    let mut above: BTreeSet<Finding> = BTreeSet::new();
    for n in threshold..=hi {
        above.extend(outcomes[&n].iter().cloned());
    }
    let mut claims: Vec<Claim> = Vec::new();
    for f in &above {
        let residues: Vec<usize> = (0..l)
            .filter(|&r| {
                let n = (hi - l + 1..=hi).find(|n| n % l == r).expect("full period");
                fires_at(n, f)
            })
            .collect();
        let pred = |n: usize| residues.contains(&(n % l));
        let mut from = threshold;
        while from > ranks.min && fires_at(from - 1, f) == pred(from - 1) {
            from -= 1;
        }
        let verdict = if residues.len() == l {
            Verdict::Present { from }
        } else {
            Verdict::PresentCongruent {
                from,
                modulus: l,
                residues,
            }
        };
        claims.push(Claim {
            code: f.code,
            site: f.site,
            key: f.key.clone(),
            severity: Some(f.severity),
            verdict,
        });
    }

    // Absence claims: for each proved property and site (plus the region
    // level), "fires at no N ≥ from" — the quantified clean verdict.
    let mut slots: Vec<Option<u32>> = spec.body.iter().map(|p| Some(p.site)).collect();
    slots.push(None);
    for site in slots {
        for code in PROVED_CODES {
            if above.iter().any(|f| f.code == code && f.site == site) {
                continue;
            }
            let last_fire = (ranks.min..threshold)
                .rev()
                .find(|n| outcomes[n].iter().any(|f| f.code == code && f.site == site));
            let from = last_fire.map(|n| n + 1).unwrap_or(ranks.min);
            claims.push(Claim {
                code,
                site,
                key: "*".to_string(),
                severity: None,
                verdict: Verdict::Absent { from },
            });
        }
    }

    // Stamp the merged diagnostics from the matching claim; a finding that
    // only fired below the threshold keeps the honest sweep stamp.
    let mut diags = merge_diags(&per_count);
    for d in &mut diags {
        let claim = claims.iter().find(|c| {
            c.code == d.code && c.site == d.site && c.key == d.key && c.severity == Some(d.severity)
        });
        d.verification = Some(match claim.map(|c| &c.verdict) {
            Some(Verdict::Present { from }) => Verification::Proved { from: *from },
            Some(Verdict::PresentCongruent {
                from,
                modulus,
                residues,
            }) => Verification::ProvedCongruent {
                from: *from,
                modulus: *modulus,
                residues: residues.clone(),
            },
            _ => Verification::Swept {
                min: ranks.min,
                max: hi,
            },
        });
    }

    let rc = RegionCert {
        region,
        eligible: true,
        reason: None,
        lcm: l,
        boundary: b,
        threshold,
        base_min: ranks.min,
        checked_max: hi,
        sites,
        outcomes: nonempty_outcomes(&outcomes),
        claims,
    };
    (diags, rc)
}

fn sort_diags(diags: &mut [Diag]) {
    // Same ordering commlint reports in: most severe first, then stable
    // source order.
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.code.cmp(&b.code))
            .then(a.region.cmp(&b.region))
            .then(a.site.cmp(&b.site))
            .then(a.key.cmp(&b.key))
    });
}

/// Prove a list of regions directly (no pragma source). This is the entry
/// point the property tests drive with builder-made specs.
pub fn prove_regions(
    file: &str,
    regions: &[ParamsSpec],
    ranks: RankRange,
    vars: &HashMap<String, i64>,
) -> (Vec<Diag>, Certificate) {
    let site_spans = HashMap::new();
    let mut diags = Vec::new();
    let mut certs = Vec::new();
    for (ri, spec) in regions.iter().enumerate() {
        let (ds, rc) = prove_region(ri, spec, &site_spans, ranks, vars);
        diags.extend(ds);
        certs.push(rc);
    }
    sort_diags(&mut diags);
    let certificate = Certificate {
        schema: CERT_SCHEMA,
        file: file.to_string(),
        ranks,
        regions: certs,
    };
    (diags, certificate)
}

/// Prove every region of a parsed source. Parse-level diagnostics
/// (`CI000`) are syntactic and rank-count independent, so they are
/// stamped proved from the sweep minimum.
pub fn prove_parsed(
    file: &str,
    parsed: &Parsed,
    ranks: RankRange,
    vars: &HashMap<String, i64>,
) -> ProveReport {
    let site_spans: HashMap<u32, SrcSpan> = parsed
        .site_spans()
        .into_iter()
        .filter_map(|(site, span)| span.map(|sp| (site, sp)))
        .collect();
    let mut seen: HashSet<(LintCode, usize, Option<u32>, String)> = HashSet::new();
    let mut diags: Vec<Diag> = Vec::new();
    for d in &parsed.diagnostics {
        if let Some(mut diag) = map_parse_diag(d) {
            diag.verification = Some(Verification::Proved { from: ranks.min });
            if seen.insert((diag.code, diag.region, diag.site, diag.key.clone())) {
                diags.push(diag);
            }
        }
    }
    let regions: Vec<ParamsSpec> = parsed.items.iter().filter_map(region_view).collect();
    let mut certs = Vec::new();
    for (ri, spec) in regions.iter().enumerate() {
        let (ds, rc) = prove_region(ri, spec, &site_spans, ranks, vars);
        diags.extend(ds);
        certs.push(rc);
    }
    sort_diags(&mut diags);
    ProveReport {
        report: LintReport { ranks, diags },
        certificate: Certificate {
            schema: CERT_SCHEMA,
            file: file.to_string(),
            ranks,
            regions: certs,
        },
    }
}

/// Parse and prove one source, honoring the same `// @decl` / `// @var` /
/// `// @ranks` annotations `commlint` scans.
pub fn prove_source(
    file: &str,
    src: &str,
    symbols: &SymbolTable,
    opts: &LintOptions,
) -> Result<ProveReport, ParseError> {
    let ann = scan_annotations(src);
    let mut symbols = symbols.clone();
    commlint::apply_decls(&mut symbols, &ann);
    let mut vars = opts.vars.clone();
    vars.extend(ann.vars);
    let ranks = ann.ranks.unwrap_or(opts.ranks);
    let parsed = parse(src, &symbols)?;
    Ok(prove_parsed(file, &parsed, ranks, &vars))
}

/// Render the proof summary (region verdicts and claims) followed by the
/// diagnostics in `commlint`'s text format.
pub fn render_prove_text(path: &str, rep: &ProveReport) -> String {
    let mut out = String::new();
    for r in &rep.certificate.regions {
        if r.eligible {
            out.push_str(&format!(
                "{path}: region {}: in the affine-congruence class (period L={}, boundary \
                 B={}, threshold N0={}, checked {}..={})\n",
                r.region, r.lcm, r.boundary, r.threshold, r.base_min, r.checked_max
            ));
        } else {
            out.push_str(&format!(
                "{path}: region {}: outside the decidable class ({}); swept {}..={}\n",
                r.region,
                r.reason.as_deref().unwrap_or("unknown"),
                r.base_min,
                r.checked_max
            ));
        }
        for c in &r.claims {
            let site = match c.site {
                Some(s) => format!("site {s}"),
                None => "region".to_string(),
            };
            out.push_str(&format!(
                "{path}: region {}:   {} {} @{site} key `{}`: {}\n",
                r.region,
                c.code.code(),
                c.code.name(),
                c.key,
                c.verdict
            ));
        }
    }
    out.push_str(&commlint::render_text(path, &rep.report));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use commint::buffer::{BufMeta, ElemKind};
    use commint::clause::{ClauseSet, Severity};
    use commint::dir::P2pSpec;
    use commint::expr::RankExpr;
    use mpisim::dtype::BasicType;

    fn meta(name: &str, lo: usize, bytes: usize) -> BufMeta {
        BufMeta {
            name: name.to_string(),
            elem: ElemKind::Prim(BasicType::U8),
            len: bytes,
            addr: (lo, lo + bytes),
        }
    }

    fn p2p(clauses: ClauseSet) -> P2pSpec {
        P2pSpec {
            clauses,
            sbuf: vec![meta("s", 0, 8)],
            rbuf: vec![meta("r", 100, 8)],
            has_overlap_body: false,
            site: 1,
            spans: Default::default(),
        }
    }

    fn ring_spec() -> ParamsSpec {
        ParamsSpec {
            clauses: ClauseSet {
                sender: Some(
                    (RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks(),
                ),
                receiver: Some((RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks()),
                ..ClauseSet::default()
            },
            body: vec![p2p(ClauseSet::default())],
            spans: Default::default(),
        }
    }

    #[test]
    fn ring_proves_for_all_n() {
        let ranks = RankRange { min: 2, max: 16 };
        let (diags, cert) = prove_regions("ring", &[ring_spec()], ranks, &HashMap::new());
        let r = &cert.regions[0];
        assert!(r.eligible, "{:?}", r.reason);
        assert_eq!(r.lcm, 1);
        // Ring params: sender (rank+nprocs-1) mod nprocs -> B = 3 (|1|+|1|+|1|)
        // + nprocs-modulus 1; receiver (rank+1) mod nprocs -> 2 + 1. B = 7.
        assert_eq!(r.boundary, 7);
        assert_eq!(r.threshold, 16);
        assert_eq!(r.checked_max, 19);
        // The advisory CI002 note is proved present for every N >= 2 at the
        // site (the region level, where nothing fires, gets its absence
        // claim) ...
        let ci002 = claims_of(r, LintCode::BlockingDeadlockCycle);
        assert_eq!(ci002.len(), 2);
        assert!(ci002
            .iter()
            .any(|c| c.site == Some(1) && c.verdict == Verdict::Present { from: 2 }));
        assert!(ci002
            .iter()
            .any(|c| c.site.is_none() && c.verdict == Verdict::Absent { from: 2 }));
        // ... and the four other properties are proved absent.
        for code in [
            LintCode::UnmatchedSend,
            LintCode::SizeMismatch,
            LintCode::SendwhenPairing,
            LintCode::ConsolidationUnsafeOverlap,
        ] {
            let cs = claims_of(r, code);
            assert!(!cs.is_empty(), "{code:?}");
            assert!(
                cs.iter()
                    .all(|c| matches!(c.verdict, Verdict::Absent { from: 2 })),
                "{code:?}: {cs:?}"
            );
        }
        // The lone diagnostic carries the quantified stamp.
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0].verification,
            Some(Verification::Proved { from: 2 })
        );
    }

    fn claims_of(r: &RegionCert, code: LintCode) -> Vec<&Claim> {
        r.claims.iter().filter(|c| c.code == code).collect()
    }

    #[test]
    fn off_by_one_yields_congruent_or_counterexample() {
        // receiver((rank+1) % (nprocs-1)): rank N-1 collides with rank 0's
        // target — unmatched traffic at every N with a concrete witness.
        let spec = ParamsSpec {
            clauses: ClauseSet {
                sender: Some(
                    (RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks(),
                ),
                receiver: Some(
                    (RankExpr::rank() + RankExpr::lit(1)) % (RankExpr::nranks() - RankExpr::lit(1)),
                ),
                ..ClauseSet::default()
            },
            body: vec![p2p(ClauseSet::default())],
            spans: Default::default(),
        };
        let ranks = RankRange { min: 2, max: 16 };
        let (diags, cert) = prove_regions("broken", &[spec], ranks, &HashMap::new());
        let r = &cert.regions[0];
        assert!(r.eligible, "{:?}", r.reason);
        let ci001 = claims_of(r, LintCode::UnmatchedSend);
        assert!(
            ci001.iter().any(|c| matches!(
                c.verdict,
                Verdict::Present { .. } | Verdict::PresentCongruent { .. }
            )),
            "{ci001:?}"
        );
        // The report carries a concrete (N, rank) counterexample commlint's
        // sweep can reproduce.
        let d = diags
            .iter()
            .find(|d| d.code == LintCode::UnmatchedSend && d.severity == Severity::Error)
            .expect("CI001");
        let w = d.witness.as_ref().expect("witness");
        assert!(w.nranks >= 2 && !w.ranks.is_empty());
    }

    #[test]
    fn opaque_region_degrades_to_sweep() {
        let spec = ParamsSpec {
            clauses: ClauseSet {
                sender: Some(RankExpr::opaque("route", |e| (e.rank + 1) % e.nranks)),
                receiver: Some((RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks()),
                ..ClauseSet::default()
            },
            body: vec![p2p(ClauseSet::default())],
            spans: Default::default(),
        };
        let ranks = RankRange { min: 2, max: 8 };
        let (diags, cert) = prove_regions("opaque", &[spec], ranks, &HashMap::new());
        let r = &cert.regions[0];
        assert!(!r.eligible);
        assert!(
            r.reason.as_deref().unwrap().contains("opaque"),
            "{:?}",
            r.reason
        );
        assert_eq!((r.base_min, r.checked_max), (2, 8));
        assert!(r
            .claims
            .iter()
            .all(|c| matches!(c.verdict, Verdict::Swept { min: 2, max: 8 })));
        assert!(diags
            .iter()
            .all(|d| d.verification == Some(Verification::Swept { min: 2, max: 8 })));
        // The CI008 opaque diagnostic fires exactly once for the site.
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.code == LintCode::UnresolvedClause && d.key.ends_with(":opaque"))
                .count(),
            1
        );
    }

    #[test]
    fn certificate_predicts_concrete_outcomes() {
        // The certificate's predict() must agree with lint_region_at at
        // every count, including far beyond the checked window.
        let spec = ring_spec();
        let ranks = RankRange { min: 2, max: 16 };
        let (_, cert) = prove_regions("ring", std::slice::from_ref(&spec), ranks, &HashMap::new());
        let r = &cert.regions[0];
        for n in 2..=64usize {
            let mut fired: Vec<Finding> = lint_region_at(0, &spec, n, &HashMap::new())
                .iter()
                .map(finding_of)
                .collect();
            fired.sort();
            fired.dedup();
            assert_eq!(r.predict(n).expect("covered"), fired, "N={n}");
        }
    }

    #[test]
    fn source_level_prove_and_render() {
        let src = "\
// @decl buf1: double[16]
// @decl buf2: double[16]
// @ranks 2..=16
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) \
  sbuf(buf1) rbuf(buf2) count(16)";
        let rep = prove_source(
            "ring.comm",
            src,
            &SymbolTable::new(),
            &LintOptions::default(),
        )
        .unwrap();
        assert!(rep.certificate.regions[0].eligible);
        assert!(!rep.report.gate_fails());
        let text = render_prove_text("ring.comm", &rep);
        assert!(text.contains("affine-congruence class"), "{text}");
        assert!(text.contains("absent ∀N≥2"), "{text}");
        assert!(text.contains("[proved ∀N≥2]"), "{text}");
        let json = cert_is_stable(&rep.certificate);
        assert!(json.contains("\"kind\": \"absent\""), "{json}");
    }

    fn cert_is_stable(cert: &Certificate) -> String {
        let a = cert.to_json();
        let b = cert.to_json();
        assert_eq!(a, b);
        a
    }
}
