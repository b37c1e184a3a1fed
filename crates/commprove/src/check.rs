//! Independent certificate checker.
//!
//! The checker trusts nothing the prover wrote beyond the claim *shapes*:
//! it re-derives the case-split parameters from the source, replays
//! [`lint_region_at`] at **every** rank count the certificate names
//! (counts with no `outcomes` entry must fire nothing — absence of an
//! entry is a claim, not a gap), re-verifies period-`L` stability above
//! the threshold, and checks each claim is entailed by the replayed
//! outcomes. A prover bug can therefore make the checker fail, but cannot
//! make a wrong quantified verdict pass.

use std::collections::{BTreeMap, HashMap};

use commint::diag::{lint_region_at, LintCode};
use commint::dir::ParamsSpec;
use commint::expr::VarTable;
use commlint::{region_view, scan_annotations, LintOptions};
use netsim::json::{self, Json};
use pragma_front::{parse, SymbolTable};

use crate::cert::{
    code_from_str, severity_from_keyword, Certificate, Claim, Finding, Outcome, RegionCert,
    SiteCert, Verdict, CERT_SCHEMA,
};
use crate::{finding_of, region_forms, PERIODS};

// ---------------------------------------------------------------------------
// Certificate parsing (JSON -> data model)
// ---------------------------------------------------------------------------

fn want<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("{what}: missing `{key}`"))
}

fn want_usize(v: &Json, key: &str, what: &str) -> Result<usize, String> {
    want(v, key, what)?
        .as_usize()
        .ok_or_else(|| format!("{what}: `{key}` is not a non-negative integer"))
}

fn want_str<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    want(v, key, what)?
        .as_str()
        .ok_or_else(|| format!("{what}: `{key}` is not a string"))
}

fn want_arr<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a [Json], String> {
    want(v, key, what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: `{key}` is not an array"))
}

fn parse_code(v: &Json, key: &str, what: &str) -> Result<LintCode, String> {
    let s = want_str(v, key, what)?;
    code_from_str(s).ok_or_else(|| format!("{what}: unknown lint code `{s}`"))
}

fn parse_site(v: &Json, what: &str) -> Result<Option<u32>, String> {
    let site = want(v, "site", what)?;
    if site.is_null() {
        return Ok(None);
    }
    site.as_usize()
        .map(|s| Some(s as u32))
        .ok_or_else(|| format!("{what}: `site` is neither null nor an integer"))
}

fn parse_finding(v: &Json, what: &str) -> Result<Finding, String> {
    let sev = want_str(v, "severity", what)?;
    Ok(Finding {
        code: parse_code(v, "code", what)?,
        site: parse_site(v, what)?,
        key: want_str(v, "key", what)?.to_string(),
        severity: severity_from_keyword(sev)
            .ok_or_else(|| format!("{what}: unknown severity `{sev}`"))?,
    })
}

fn parse_verdict(v: &Json, what: &str) -> Result<Verdict, String> {
    match want_str(v, "kind", what)? {
        "absent" => Ok(Verdict::Absent {
            from: want_usize(v, "from", what)?,
        }),
        "present" => Ok(Verdict::Present {
            from: want_usize(v, "from", what)?,
        }),
        "present-congruent" => Ok(Verdict::PresentCongruent {
            from: want_usize(v, "from", what)?,
            modulus: want_usize(v, "modulus", what)?,
            residues: want_arr(v, "residues", what)?
                .iter()
                .map(|r| r.as_usize().ok_or_else(|| format!("{what}: bad residue")))
                .collect::<Result<_, _>>()?,
        }),
        "swept" => Ok(Verdict::Swept {
            min: want_usize(v, "min", what)?,
            max: want_usize(v, "max", what)?,
        }),
        kind => Err(format!("{what}: unknown verdict kind `{kind}`")),
    }
}

fn parse_region(v: &Json, idx: usize) -> Result<RegionCert, String> {
    let what = format!("region[{idx}]");
    let sites = want_arr(v, "sites", &what)?
        .iter()
        .map(|s| {
            let span = match want(s, "span", &what)? {
                Json::Null => None,
                sp => Some(commint::diag::SrcSpan {
                    offset: 0,
                    line: want_usize(sp, "line", &what)?,
                    col: want_usize(sp, "col", &what)?,
                }),
            };
            Ok(SiteCert {
                site: want_usize(s, "site", &what)? as u32,
                span,
                forms: want_arr(s, "forms", &what)?
                    .iter()
                    .map(|pair| {
                        let pair = pair
                            .as_arr()
                            .filter(|p| p.len() == 2)
                            .ok_or_else(|| format!("{what}: bad form pair"))?;
                        match (pair[0].as_str(), pair[1].as_str()) {
                            (Some(kw), Some(nf)) => Ok((kw.to_string(), nf.to_string())),
                            _ => Err(format!("{what}: bad form pair")),
                        }
                    })
                    .collect::<Result<_, String>>()?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let outcomes = want_arr(v, "outcomes", &what)?
        .iter()
        .map(|o| {
            Ok(Outcome {
                nranks: want_usize(o, "nranks", &what)?,
                fired: want_arr(o, "fired", &what)?
                    .iter()
                    .map(|f| parse_finding(f, &what))
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let claims = want_arr(v, "claims", &what)?
        .iter()
        .map(|c| {
            let severity = match want(c, "severity", &what)? {
                Json::Null => None,
                sev => {
                    let sev = sev
                        .as_str()
                        .ok_or_else(|| format!("{what}: bad claim severity"))?;
                    Some(
                        severity_from_keyword(sev)
                            .ok_or_else(|| format!("{what}: unknown severity `{sev}`"))?,
                    )
                }
            };
            Ok(Claim {
                code: parse_code(c, "code", &what)?,
                site: parse_site(c, &what)?,
                key: want_str(c, "key", &what)?.to_string(),
                severity,
                verdict: parse_verdict(want(c, "verdict", &what)?, &what)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RegionCert {
        region: want_usize(v, "region", &what)?,
        eligible: want(v, "eligible", &what)?
            .as_bool()
            .ok_or_else(|| format!("{what}: `eligible` is not a bool"))?,
        reason: match want(v, "reason", &what)? {
            Json::Null => None,
            r => Some(
                r.as_str()
                    .ok_or_else(|| format!("{what}: bad `reason`"))?
                    .to_string(),
            ),
        },
        lcm: want_usize(v, "lcm", &what)?,
        boundary: want_usize(v, "boundary", &what)?,
        threshold: want_usize(v, "threshold", &what)?,
        base_min: want_usize(v, "base_min", &what)?,
        checked_max: want_usize(v, "checked_max", &what)?,
        sites,
        outcomes,
        claims,
    })
}

/// Parse a certificate document produced by [`Certificate::to_json`].
pub fn parse_certificate(doc: &str) -> Result<Certificate, String> {
    let v = json::parse(doc).map_err(|e| e.to_string())?;
    let ranks = want(&v, "ranks", "certificate")?;
    Ok(Certificate {
        schema: want_usize(&v, "schema", "certificate")? as u32,
        file: want_str(&v, "file", "certificate")?.to_string(),
        ranks: commlint::RankRange {
            min: want_usize(ranks, "min", "certificate.ranks")?,
            max: want_usize(ranks, "max", "certificate.ranks")?,
        },
        regions: want_arr(&v, "regions", "certificate")?
            .iter()
            .enumerate()
            .map(|(i, r)| parse_region(r, i))
            .collect::<Result<_, _>>()?,
    })
}

// ---------------------------------------------------------------------------
// Checking
// ---------------------------------------------------------------------------

fn replay(
    region: usize,
    spec: &ParamsSpec,
    min: usize,
    max: usize,
    vars: &HashMap<String, i64>,
) -> BTreeMap<usize, Vec<Finding>> {
    (min..=max)
        .map(|n| {
            let mut fired: Vec<Finding> = lint_region_at(region, spec, n, vars)
                .iter()
                .map(finding_of)
                .collect();
            fired.sort();
            fired.dedup();
            (n, fired)
        })
        .collect()
}

fn check_region(
    rc: &RegionCert,
    spec: &ParamsSpec,
    ranks: commlint::RankRange,
    vars: &HashMap<String, i64>,
    errors: &mut Vec<String>,
) {
    let ctx = format!("region {}", rc.region);
    let mut err = |msg: String| errors.push(format!("{ctx}: {msg}"));

    if rc.base_min != ranks.min {
        err(format!(
            "base_min {} does not match the configured sweep minimum {}",
            rc.base_min, ranks.min
        ));
        return;
    }
    if rc.checked_max < rc.base_min {
        err("empty checked window".to_string());
        return;
    }

    // Re-derive the case-split parameters from source.
    let vt: VarTable = vars.into();
    let derived = region_forms(spec, &HashMap::new(), &vt);

    if rc.eligible {
        let (sites, params) = match derived {
            Ok(ok) => ok,
            Err(reason) => {
                err(format!(
                    "certificate says eligible but the region is outside the class: {reason}"
                ));
                return;
            }
        };
        if !params.eligible() {
            err("certificate says eligible but the derived period exceeds the cap".to_string());
            return;
        }
        let (l, b) = (params.lcm as usize, params.boundary as usize);
        if rc.lcm != l || rc.boundary != b {
            err(format!(
                "derived parameters (L={l}, B={b}) disagree with the certificate (L={}, B={})",
                rc.lcm, rc.boundary
            ));
            return;
        }
        if rc.threshold != ranks.min.max(2 * b + 2) {
            err(format!(
                "threshold {} is not max(min, 2B+2) = {}",
                rc.threshold,
                ranks.min.max(2 * b + 2)
            ));
            return;
        }
        if rc.checked_max != rc.threshold + PERIODS * l {
            err(format!(
                "checked_max {} is not threshold + {PERIODS}·L = {}",
                rc.checked_max,
                rc.threshold + PERIODS * l
            ));
            return;
        }
        // Recorded normal forms must match what the source normalizes to
        // (provenance honesty; spans are display-only and not compared).
        let recorded: Vec<(u32, &[(String, String)])> = rc
            .sites
            .iter()
            .map(|s| (s.site, s.forms.as_slice()))
            .collect();
        let fresh: Vec<(u32, &[(String, String)])> =
            sites.iter().map(|s| (s.site, s.forms.as_slice())).collect();
        if recorded != fresh {
            err("recorded clause normal forms disagree with the source".to_string());
        }
    } else {
        // A downgrade needs no justification beyond its weak (swept)
        // claims, but the sweep must cover the configured range.
        if rc.checked_max < ranks.max {
            err(format!(
                "swept region checked only up to {} but the configured range ends at {}",
                rc.checked_max, ranks.max
            ));
        }
        for c in &rc.claims {
            if !matches!(
                c.verdict,
                Verdict::Swept { min, max } if min == rc.base_min && max == rc.checked_max
            ) {
                err(format!(
                    "ineligible region carries a non-swept (or mis-ranged) claim: {} @{:?} `{}`",
                    c.code.code(),
                    c.site,
                    c.key
                ));
            }
        }
    }

    // Replay every checked count and compare with the recorded outcomes
    // (counts with no entry must fire nothing).
    let actual = replay(rc.region, spec, rc.base_min, rc.checked_max, vars);
    for (n, fired) in &actual {
        if rc.outcome_at(*n) != fired.as_slice() {
            err(format!(
                "recorded outcome at N={n} disagrees with a fresh lint run"
            ));
        }
    }
    for o in &rc.outcomes {
        if o.nranks < rc.base_min || o.nranks > rc.checked_max {
            err(format!(
                "outcome at N={} lies outside the checked window",
                o.nranks
            ));
        }
    }

    if !rc.eligible {
        // Swept claims are only existence notes; verify each fired at
        // least once.
        for c in &rc.claims {
            if c.key == "*" {
                continue;
            }
            let fired_somewhere = actual.values().flatten().any(|f| {
                f.code == c.code
                    && f.site == c.site
                    && f.key == c.key
                    && Some(f.severity) == c.severity
            });
            if !fired_somewhere {
                err(format!(
                    "swept claim {} @{:?} `{}` never fired in the replay",
                    c.code.code(),
                    c.site,
                    c.key
                ));
            }
        }
        return;
    }

    let l = rc.lcm;
    // Stability: period-L above the threshold.
    if rc.checked_max >= rc.threshold + l {
        for n in rc.threshold..=rc.checked_max - l {
            if actual[&n] != actual[&(n + l)] {
                err(format!(
                    "outcomes are not periodic above the threshold (N={n} vs N={})",
                    n + l
                ));
                return;
            }
        }
    }

    // Claim entailment against the replayed outcomes.
    for c in &rc.claims {
        let label = format!("claim {} @{:?} `{}`", c.code.code(), c.site, c.key);
        let fires = |n: usize, sev| {
            actual[&n].iter().any(|f| {
                f.code == c.code && f.site == c.site && f.key == c.key && f.severity == sev
            })
        };
        match &c.verdict {
            Verdict::Absent { from } => {
                if c.key != "*" || c.severity.is_some() {
                    err(format!(
                        "{label}: absence claims must use key `*` and no severity"
                    ));
                    continue;
                }
                if *from < rc.base_min {
                    err(format!(
                        "{label}: `from` {} precedes the checked window",
                        from
                    ));
                    continue;
                }
                for n in *from..=rc.checked_max {
                    if actual[&n]
                        .iter()
                        .any(|f| f.code == c.code && f.site == c.site)
                    {
                        err(format!("{label}: a matching finding fires at N={n}"));
                        break;
                    }
                }
            }
            Verdict::Present { from } => {
                let Some(sev) = c.severity else {
                    err(format!("{label}: presence claim without severity"));
                    continue;
                };
                if *from < rc.base_min {
                    err(format!(
                        "{label}: `from` {} precedes the checked window",
                        from
                    ));
                    continue;
                }
                for n in *from..=rc.checked_max {
                    if !fires(n, sev) {
                        err(format!("{label}: does not fire at N={n}"));
                        break;
                    }
                }
            }
            Verdict::PresentCongruent {
                from,
                modulus,
                residues,
            } => {
                let Some(sev) = c.severity else {
                    err(format!("{label}: presence claim without severity"));
                    continue;
                };
                if *modulus != l {
                    err(format!(
                        "{label}: modulus {} is not the region period {l}",
                        modulus
                    ));
                    continue;
                }
                if *from < rc.base_min || residues.iter().any(|r| r >= modulus) {
                    err(format!("{label}: bad `from` or out-of-range residue"));
                    continue;
                }
                for n in *from..=rc.checked_max {
                    if fires(n, sev) != residues.contains(&(n % modulus)) {
                        err(format!(
                            "{label}: firing at N={n} contradicts the residue set"
                        ));
                        break;
                    }
                }
            }
            Verdict::Swept { .. } => {
                err(format!("{label}: swept claim in an eligible region"));
            }
        }
    }

    // Completeness: above the threshold the claims must predict the
    // outcomes exactly — a finding with no covering claim would silently
    // vanish from extrapolated verdicts.
    for n in rc.threshold..=rc.checked_max {
        let mut predicted: Vec<Finding> = Vec::new();
        for c in &rc.claims {
            let hit = match &c.verdict {
                Verdict::Present { from } => n >= *from,
                Verdict::PresentCongruent {
                    from,
                    modulus,
                    residues,
                } => n >= *from && *modulus > 0 && residues.contains(&(n % modulus)),
                _ => false,
            };
            if hit {
                if let Some(sev) = c.severity {
                    predicted.push(Finding {
                        code: c.code,
                        site: c.site,
                        key: c.key.clone(),
                        severity: sev,
                    });
                }
            }
        }
        predicted.sort();
        predicted.dedup();
        if predicted != actual[&n] {
            err(format!(
                "claims do not reproduce the outcome at N={n} (above the threshold)"
            ));
            return;
        }
    }
}

/// Check a certificate against its source. Returns the list of problems
/// (empty = the certificate is valid and every claim is entailed).
pub fn check_source(
    src: &str,
    symbols: &SymbolTable,
    opts: &LintOptions,
    cert: &Certificate,
) -> Vec<String> {
    let mut errors = Vec::new();
    if cert.schema != CERT_SCHEMA {
        errors.push(format!(
            "schema {} is not the supported version {CERT_SCHEMA}",
            cert.schema
        ));
        return errors;
    }
    let ann = scan_annotations(src);
    let mut symbols = symbols.clone();
    commlint::apply_decls(&mut symbols, &ann);
    let mut vars = opts.vars.clone();
    vars.extend(ann.vars);
    let ranks = ann.ranks.unwrap_or(opts.ranks);
    if cert.ranks != ranks {
        errors.push(format!(
            "certificate ranks {} do not match the configured range {ranks}",
            cert.ranks
        ));
        return errors;
    }
    let parsed = match parse(src, &symbols) {
        Ok(p) => p,
        Err(e) => {
            errors.push(format!("source does not parse: {e}"));
            return errors;
        }
    };
    let regions: Vec<ParamsSpec> = parsed.items.iter().filter_map(region_view).collect();
    if cert.regions.len() != regions.len() {
        errors.push(format!(
            "certificate covers {} region(s) but the source has {}",
            cert.regions.len(),
            regions.len()
        ));
        return errors;
    }
    for (rc, spec) in cert.regions.iter().zip(&regions) {
        check_region(rc, spec, ranks, &vars, &mut errors);
    }
    errors
}

/// One-call library entry point for independent certificate validation:
/// parse a certificate document from raw bytes and check it against its
/// source. `Ok` carries the parsed (trustworthy) certificate; `Err`
/// carries every problem found — a non-UTF-8 or non-JSON document, a
/// schema mismatch, or any claim the replay does not entail.
///
/// This is what the `commprove --check` binary wraps, and what the
/// analysis daemon (`commintd`) runs over every certificate it loads from
/// its on-disk store: a corrupted or stale entry is rejected here and
/// recomputed rather than served.
pub fn check_cert_bytes(
    src: &str,
    symbols: &SymbolTable,
    opts: &LintOptions,
    cert_bytes: &[u8],
) -> Result<Certificate, Vec<String>> {
    let doc = std::str::from_utf8(cert_bytes)
        .map_err(|e| vec![format!("certificate is not UTF-8: {e}")])?;
    let cert = parse_certificate(doc).map_err(|e| vec![e])?;
    let errors = check_source(src, symbols, opts, &cert);
    if errors.is_empty() {
        Ok(cert)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prove_source;

    const RING: &str = "\
// @decl buf1: double[16]
// @decl buf2: double[16]
// @ranks 2..=16
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) \
  sbuf(buf1) rbuf(buf2) count(16)";

    #[test]
    fn honest_certificate_round_trips_and_checks() {
        let rep = prove_source(
            "ring.comm",
            RING,
            &SymbolTable::new(),
            &LintOptions::default(),
        )
        .unwrap();
        let doc = rep.certificate.to_json();
        let parsed = parse_certificate(&doc).expect("parses");
        // Span offsets are not serialized; compare modulo them.
        assert_eq!(parsed.schema, rep.certificate.schema);
        assert_eq!(parsed.regions.len(), rep.certificate.regions.len());
        assert_eq!(parsed.regions[0].claims, rep.certificate.regions[0].claims);
        let errors = check_source(RING, &SymbolTable::new(), &LintOptions::default(), &parsed);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn check_cert_bytes_accepts_honest_and_rejects_garbage() {
        let rep = prove_source(
            "ring.comm",
            RING,
            &SymbolTable::new(),
            &LintOptions::default(),
        )
        .unwrap();
        let opts = LintOptions::default();
        let doc = rep.certificate.to_json();
        let cert = check_cert_bytes(RING, &SymbolTable::new(), &opts, doc.as_bytes())
            .expect("honest certificate validates");
        assert_eq!(cert.regions.len(), rep.certificate.regions.len());
        // Bit rot: flip one byte mid-document.
        let mut rotten = doc.clone().into_bytes();
        let mid = rotten.len() / 2;
        rotten[mid] = if rotten[mid] == b'0' { b'1' } else { b'0' };
        assert!(check_cert_bytes(RING, &SymbolTable::new(), &opts, &rotten).is_err());
        // Not UTF-8 / not JSON.
        assert!(check_cert_bytes(RING, &SymbolTable::new(), &opts, &[0xff, 0xfe]).is_err());
        assert!(check_cert_bytes(RING, &SymbolTable::new(), &opts, b"{}").is_err());
        // Floats are not part of the schema: `"lcm": N.0` names the field.
        let at = doc.find("\"lcm\": ").expect("lcm field") + "\"lcm\": ".len();
        let digits = doc[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let float = format!("{}.0{}", &doc[..at + digits], &doc[at + digits..]);
        let err = check_cert_bytes(RING, &SymbolTable::new(), &opts, float.as_bytes())
            .expect_err("float lcm rejected");
        assert!(err.iter().any(|e| e.contains("`lcm`")), "{err:?}");
        // Valid document, wrong source: the replay disagrees.
        let other = RING.replace("count(16)", "count(8)");
        assert!(check_cert_bytes(&other, &SymbolTable::new(), &opts, doc.as_bytes()).is_err());
    }

    #[test]
    fn tampered_certificates_are_rejected() {
        let rep = prove_source(
            "ring.comm",
            RING,
            &SymbolTable::new(),
            &LintOptions::default(),
        )
        .unwrap();
        let opts = LintOptions::default();

        // Upgrade an absence claim into a wider one than checked.
        let mut forged = rep.certificate.clone();
        forged.regions[0]
            .claims
            .retain(|c| c.key != "*" || c.code != LintCode::UnmatchedSend);
        forged.regions[0].claims.push(Claim {
            code: LintCode::BlockingDeadlockCycle,
            site: Some(1),
            key: "*".to_string(),
            severity: None,
            verdict: Verdict::Absent { from: 2 },
        });
        let errors = check_source(RING, &SymbolTable::new(), &opts, &forged);
        assert!(
            errors.iter().any(|e| e.contains("fires at N=")),
            "{errors:?}"
        );

        // Shrink the checked window.
        let mut forged = rep.certificate.clone();
        forged.regions[0].checked_max -= 1;
        let errors = check_source(RING, &SymbolTable::new(), &opts, &forged);
        assert!(!errors.is_empty(), "window tamper must be caught");

        // Drop a recorded outcome: the replay disagrees.
        let mut forged = rep.certificate.clone();
        forged.regions[0].outcomes.clear();
        let errors = check_source(RING, &SymbolTable::new(), &opts, &forged);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("disagrees with a fresh lint run")),
            "{errors:?}"
        );

        // Flip the period: derived parameters no longer match.
        let mut forged = rep.certificate.clone();
        forged.regions[0].lcm = 4;
        let errors = check_source(RING, &SymbolTable::new(), &opts, &forged);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("disagree with the certificate") || e.contains("checked_max")),
            "{errors:?}"
        );
    }
}
