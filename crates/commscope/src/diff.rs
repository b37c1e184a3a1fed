//! Differential profiling: join two profile documents on the shared SiteId
//! namespace and emit per-site deltas of the wait-blame taxonomy, traffic,
//! and critical-path contribution.
//!
//! The load-bearing invariant is **exact accounting**: the per-site delta
//! rows partition the total delta, so for every reported quantity the sum
//! over site rows equals the whole-run delta — nothing is hidden by the
//! join. This holds by construction: every wait interval, path segment, and
//! counted byte lands in exactly one site row (unattributed activity lands
//! on the [`UNATTRIBUTED_SITE`] pseudo-site), sites present on only one
//! side are reported explicitly as `added`/`removed` with their full
//! contribution as the delta, and [`validate_diff`] re-derives the
//! invariant from the rendered document so `--check` and CI can enforce it
//! on the artifact itself.
//!
//! Both profile schemas are accepted: schema-1 documents (no
//! `wait.per_site` section) fold all wait onto the unattributed pseudo-site,
//! which keeps the accounting exact at coarser granularity.

use std::collections::BTreeMap;

use crate::profile::UNATTRIBUTED_SITE;
use netsim::json::Json;

/// Schema version of the diff document.
pub const DIFF_SCHEMA: i64 = 1;

/// The per-site quantities the diff tracks, in render order. Wait-taxonomy
/// fields first (they partition `total_wait_ns`), then the independent
/// critical-path and traffic totals.
const FIELDS: [&str; 10] = [
    "total_wait_ns",
    "late_sender_ns",
    "late_receiver_ns",
    "barrier_ns",
    "quiet_ns",
    "overhead_ns",
    "critical_path_ns",
    "msgs",
    "bytes",
    "dwell_ns",
];

/// One side's per-site aggregate, extracted from a profile document.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct SiteRow {
    vals: [i64; FIELDS.len()],
}

struct ProfSummary {
    workload: String,
    ranks: i64,
    makespan_ns: i64,
    sites: BTreeMap<i64, SiteRow>,
}

fn field_index(name: &str) -> usize {
    FIELDS.iter().position(|f| *f == name).expect("known field")
}

/// Extract the per-site aggregates from one profile document (schema 1 or
/// 2). Wait taxonomy comes from `wait.per_site` when present, else the
/// per-rank totals fold onto the unattributed pseudo-site; the critical
/// path is re-aggregated from the `critical_path` array; traffic comes from
/// `metrics.total` with the site-attributed share subtracted out so the
/// remainder lands on the pseudo-site and the column still sums exactly.
fn summarize(doc: &Json) -> Result<ProfSummary, String> {
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_i64())
        .ok_or("profile has no schema field")?;
    if !(1..=crate::PROFILE_SCHEMA).contains(&schema) {
        return Err(format!(
            "unsupported profile schema {schema} (this build reads 1..={})",
            crate::PROFILE_SCHEMA
        ));
    }
    let workload = doc
        .get("workload")
        .and_then(|v| v.as_str())
        .unwrap_or("?")
        .to_string();
    let ranks = doc.get("ranks").and_then(|v| v.as_i64()).unwrap_or(0);
    let makespan_ns = doc.get("makespan_ns").and_then(|v| v.as_i64()).unwrap_or(0);

    let mut sites: BTreeMap<i64, SiteRow> = BTreeMap::new();
    let mut add = |site: i64, field: &str, v: i64| {
        sites.entry(site).or_default().vals[field_index(field)] += v;
    };

    // Wait taxonomy.
    let taxonomy = [
        "total_wait_ns",
        "late_sender_ns",
        "late_receiver_ns",
        "barrier_ns",
        "quiet_ns",
        "overhead_ns",
    ];
    let per_site = doc
        .get("wait")
        .and_then(|w| w.get("per_site"))
        .and_then(|v| v.as_arr());
    match per_site {
        Some(rows) => {
            for row in rows {
                let site = row
                    .get("site")
                    .and_then(|v| v.as_i64())
                    .unwrap_or(UNATTRIBUTED_SITE);
                for f in taxonomy {
                    add(site, f, row.get(f).and_then(|v| v.as_i64()).unwrap_or(0));
                }
            }
        }
        None => {
            // Schema 1: only per-rank rows exist; all wait is unattributed.
            let rows = doc
                .get("wait")
                .and_then(|w| w.get("per_rank"))
                .and_then(|v| v.as_arr())
                .ok_or("profile has no wait.per_rank section")?;
            for row in rows {
                for f in taxonomy {
                    add(
                        UNATTRIBUTED_SITE,
                        f,
                        row.get(f).and_then(|v| v.as_i64()).unwrap_or(0),
                    );
                }
            }
        }
    }

    // Critical-path contribution, re-aggregated from the path itself so
    // schema-1 and schema-2 documents go through the identical derivation.
    if let Some(path) = doc.get("critical_path").and_then(|v| v.as_arr()) {
        for seg in path {
            let site = match seg.get("site") {
                Some(Json::Int(s)) => *s,
                _ => UNATTRIBUTED_SITE,
            };
            let ns = seg.get("end_ns").and_then(|v| v.as_i64()).unwrap_or(0)
                - seg.get("start_ns").and_then(|v| v.as_i64()).unwrap_or(0);
            add(site, "critical_path_ns", ns);
        }
    }

    // Traffic: per-site rows from the merged totals, remainder (messages
    // sent outside any directive site) on the pseudo-site. Site rows count
    // puts as sends, so the whole-run reference is sends + puts.
    if let Some(total) = doc.get("metrics").and_then(|m| m.get("total")) {
        let geti = |k: &str| total.get(k).and_then(|v| v.as_i64()).unwrap_or(0);
        let mut msgs_rest = geti("msgs_sent") + geti("puts");
        let mut bytes_rest = geti("bytes_sent") + geti("bytes_put");
        let mut dwell_rest = total
            .get("recv_dwell")
            .and_then(|h| h.get("sum"))
            .and_then(|v| v.as_i64())
            .unwrap_or(0);
        if let Some(site_rows) = total.get("sites").and_then(|v| v.as_arr()) {
            for row in site_rows {
                let site = row
                    .get("site")
                    .and_then(|v| v.as_i64())
                    .unwrap_or(UNATTRIBUTED_SITE);
                let msgs = row.get("msgs_sent").and_then(|v| v.as_i64()).unwrap_or(0);
                let bytes = row.get("bytes_sent").and_then(|v| v.as_i64()).unwrap_or(0);
                let dwell = row.get("dwell_ns").and_then(|v| v.as_i64()).unwrap_or(0);
                add(site, "msgs", msgs);
                add(site, "bytes", bytes);
                add(site, "dwell_ns", dwell);
                msgs_rest -= msgs;
                bytes_rest -= bytes;
                dwell_rest -= dwell;
            }
        }
        if msgs_rest != 0 || bytes_rest != 0 || dwell_rest != 0 {
            add(UNATTRIBUTED_SITE, "msgs", msgs_rest);
            add(UNATTRIBUTED_SITE, "bytes", bytes_rest);
            add(UNATTRIBUTED_SITE, "dwell_ns", dwell_rest);
        }
    }

    Ok(ProfSummary {
        workload,
        ranks,
        makespan_ns,
        sites,
    })
}

fn side_json(s: &ProfSummary) -> Json {
    let total_wait: i64 = s
        .sites
        .values()
        .map(|r| r.vals[field_index("total_wait_ns")])
        .sum();
    Json::Obj(vec![
        ("workload".into(), s.workload.clone().into()),
        ("ranks".into(), Json::Int(s.ranks)),
        ("makespan_ns".into(), Json::Int(s.makespan_ns)),
        ("total_wait_ns".into(), Json::Int(total_wait)),
    ])
}

/// Diff two parsed profile documents. Returns the diff document (schema
/// [`DIFF_SCHEMA`]); fails only on malformed inputs. The output is a pure
/// function of the inputs — profiles are byte-identical across execution
/// engines, so diffs are too.
pub fn diff_profiles(baseline: &Json, candidate: &Json) -> Result<Json, String> {
    let base = summarize(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cand = summarize(candidate).map_err(|e| format!("candidate: {e}"))?;

    let mut all_sites: Vec<i64> = base.sites.keys().copied().collect();
    for s in cand.sites.keys() {
        if !base.sites.contains_key(s) {
            all_sites.push(*s);
        }
    }
    all_sites.sort_unstable();

    let zero = SiteRow::default();
    let mut totals = [0i64; FIELDS.len()];
    let mut site_rows = Vec::with_capacity(all_sites.len());
    for site in all_sites {
        let b = base.sites.get(&site);
        let c = cand.sites.get(&site);
        let status = match (b, c) {
            (Some(_), Some(_)) => "matched",
            (None, Some(_)) => "added",
            (Some(_), None) => "removed",
            (None, None) => unreachable!(),
        };
        let b = b.unwrap_or(&zero);
        let c = c.unwrap_or(&zero);
        let mut fields = vec![
            ("site".into(), Json::Int(site)),
            ("status".into(), Json::Str(status.into())),
        ];
        for (i, name) in FIELDS.iter().enumerate() {
            let d = c.vals[i] - b.vals[i];
            totals[i] += d;
            fields.push(((*name).into(), Json::Int(d)));
        }
        fields.push((
            "baseline_wait_ns".into(),
            Json::Int(b.vals[field_index("total_wait_ns")]),
        ));
        fields.push((
            "candidate_wait_ns".into(),
            Json::Int(c.vals[field_index("total_wait_ns")]),
        ));
        site_rows.push(Json::Obj(fields));
    }

    // Top regressions (wait got worse) and wins (wait got better), by
    // magnitude of the total-wait delta; at most three each.
    let mut ranked: Vec<(i64, i64)> = site_rows
        .iter()
        .map(|r| {
            (
                r.get("site").and_then(|v| v.as_i64()).unwrap_or(0),
                r.get("total_wait_ns").and_then(|v| v.as_i64()).unwrap_or(0),
            )
        })
        .collect();
    ranked.sort_by_key(|&(site, d)| (d, site));
    let wins: Vec<Json> = ranked
        .iter()
        .filter(|&&(_, d)| d < 0)
        .take(3)
        .map(|&(site, d)| {
            Json::Obj(vec![
                ("site".into(), Json::Int(site)),
                ("total_wait_ns".into(), Json::Int(d)),
            ])
        })
        .collect();
    let regressions: Vec<Json> = ranked
        .iter()
        .rev()
        .filter(|&&(_, d)| d > 0)
        .take(3)
        .map(|&(site, d)| {
            Json::Obj(vec![
                ("site".into(), Json::Int(site)),
                ("total_wait_ns".into(), Json::Int(d)),
            ])
        })
        .collect();

    let mut delta_fields = vec![(
        "makespan_ns".into(),
        Json::Int(cand.makespan_ns - base.makespan_ns),
    )];
    for (i, name) in FIELDS.iter().enumerate() {
        delta_fields.push(((*name).into(), Json::Int(totals[i])));
    }

    Ok(Json::Obj(vec![
        ("schema".into(), Json::Int(DIFF_SCHEMA)),
        ("kind".into(), Json::Str("commdiff".into())),
        ("baseline".into(), side_json(&base)),
        ("candidate".into(), side_json(&cand)),
        ("delta".into(), Json::Obj(delta_fields)),
        ("sites".into(), Json::Arr(site_rows)),
        (
            "summary".into(),
            Json::Obj(vec![
                ("top_regressions".into(), Json::Arr(regressions)),
                ("top_wins".into(), Json::Arr(wins)),
            ]),
        ),
    ]))
}

/// Validate a diff document: shape, and the exact-accounting invariant
/// re-derived from the document itself (per-site deltas sum to the total
/// delta for every tracked field; wait-taxonomy columns partition the
/// total-wait column; side totals reconcile with the delta). Returns a
/// list of problems, empty when valid.
pub fn validate_diff(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    if doc.get("schema").and_then(|v| v.as_i64()) != Some(DIFF_SCHEMA) {
        problems.push(format!("schema is not {DIFF_SCHEMA}"));
    }
    if doc.get("kind").and_then(|v| v.as_str()) != Some("commdiff") {
        problems.push("kind is not 'commdiff'".into());
    }
    let sites = match doc.get("sites").and_then(|v| v.as_arr()) {
        Some(s) => s,
        None => {
            problems.push("missing sites array".into());
            return problems;
        }
    };
    let delta = match doc.get("delta") {
        Some(d) => d,
        None => {
            problems.push("missing delta object".into());
            return problems;
        }
    };
    for field in FIELDS {
        let total = delta.get(field).and_then(|v| v.as_i64());
        let sum: i64 = sites
            .iter()
            .filter_map(|r| r.get(field).and_then(|v| v.as_i64()))
            .sum();
        match total {
            Some(t) if t == sum => {}
            Some(t) => problems.push(format!(
                "field '{field}': site deltas sum to {sum}, delta reports {t}"
            )),
            None => problems.push(format!("delta missing field '{field}'")),
        }
    }
    for row in sites {
        let site = row.get("site").and_then(|v| v.as_i64());
        match row.get("status").and_then(|v| v.as_str()) {
            Some("matched") | Some("added") | Some("removed") => {}
            other => problems.push(format!("site {site:?}: bad status {other:?}")),
        }
        let total = row
            .get("total_wait_ns")
            .and_then(|v| v.as_i64())
            .unwrap_or(0);
        let buckets: i64 = [
            "late_sender_ns",
            "late_receiver_ns",
            "barrier_ns",
            "quiet_ns",
            "overhead_ns",
        ]
        .iter()
        .filter_map(|k| row.get(k).and_then(|v| v.as_i64()))
        .sum();
        if total != buckets {
            problems.push(format!(
                "site {site:?}: taxonomy deltas sum to {buckets}, total_wait_ns is {total}"
            ));
        }
        let b = row
            .get("baseline_wait_ns")
            .and_then(|v| v.as_i64())
            .unwrap_or(0);
        let c = row
            .get("candidate_wait_ns")
            .and_then(|v| v.as_i64())
            .unwrap_or(0);
        if c - b != total {
            problems.push(format!(
                "site {site:?}: candidate-baseline is {}, total_wait_ns is {total}",
                c - b
            ));
        }
    }
    // Side totals must reconcile with the headline wait delta.
    let side_wait = |key: &str| {
        doc.get(key)
            .and_then(|s| s.get("total_wait_ns"))
            .and_then(|v| v.as_i64())
            .unwrap_or(0)
    };
    let headline = delta
        .get("total_wait_ns")
        .and_then(|v| v.as_i64())
        .unwrap_or(0);
    if side_wait("candidate") - side_wait("baseline") != headline {
        problems.push("side totals do not reconcile with delta.total_wait_ns".into());
    }
    problems
}

/// True when every delta in the document is exactly zero and no site was
/// added or removed — the expected result of diffing a run against itself.
pub fn diff_is_zero(doc: &Json) -> bool {
    let delta_zero = doc
        .get("delta")
        .map(|d| match d {
            Json::Obj(fields) => fields.iter().all(|(_, v)| v.as_i64() == Some(0)),
            _ => false,
        })
        .unwrap_or(false);
    let sites_zero = doc
        .get("sites")
        .and_then(|v| v.as_arr())
        .map(|rows| {
            rows.iter().all(|r| {
                r.get("status").and_then(|v| v.as_str()) == Some("matched")
                    && FIELDS
                        .iter()
                        .all(|f| r.get(f).and_then(|v| v.as_i64()) == Some(0))
            })
        })
        .unwrap_or(false);
    delta_zero && sites_zero
}

fn fmt_site(site: i64) -> String {
    if site == UNATTRIBUTED_SITE {
        "(unattributed)".into()
    } else {
        format!("site {site}")
    }
}

fn fmt_signed(v: i64) -> String {
    if v > 0 {
        format!("+{v}")
    } else {
        format!("{v}")
    }
}

fn pct(delta: i64, base: i64) -> String {
    if base == 0 {
        "n/a".into()
    } else {
        format!("{:+.1}%", 100.0 * delta as f64 / base as f64)
    }
}

/// Render the human-readable report for a diff document: headline deltas,
/// a per-site table sorted by wait-delta magnitude, and the top
/// regressions / top wins summary.
pub fn render_diff_text(doc: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let side = |key: &str, field: &str| -> i64 {
        doc.get(key)
            .and_then(|s| s.get(field))
            .and_then(|v| v.as_i64())
            .unwrap_or(0)
    };
    let side_str = |key: &str| -> String {
        doc.get(key)
            .and_then(|s| s.get("workload"))
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let delta = |field: &str| -> i64 {
        doc.get("delta")
            .and_then(|d| d.get(field))
            .and_then(|v| v.as_i64())
            .unwrap_or(0)
    };
    let _ = writeln!(
        out,
        "commdiff: {} ({} ranks) -> {} ({} ranks)",
        side_str("baseline"),
        side("baseline", "ranks"),
        side_str("candidate"),
        side("candidate", "ranks"),
    );
    let _ = writeln!(
        out,
        "  makespan:   {} -> {} ns  ({}, {})",
        side("baseline", "makespan_ns"),
        side("candidate", "makespan_ns"),
        fmt_signed(delta("makespan_ns")),
        pct(delta("makespan_ns"), side("baseline", "makespan_ns")),
    );
    let _ = writeln!(
        out,
        "  total wait: {} -> {} ns  ({}, {})",
        side("baseline", "total_wait_ns"),
        side("candidate", "total_wait_ns"),
        fmt_signed(delta("total_wait_ns")),
        pct(delta("total_wait_ns"), side("baseline", "total_wait_ns")),
    );
    let _ = writeln!(
        out,
        "  traffic:    {} msgs, {} bytes; critical path {} ns",
        fmt_signed(delta("msgs")),
        fmt_signed(delta("bytes")),
        fmt_signed(delta("critical_path_ns")),
    );
    out.push('\n');

    let mut rows: Vec<&Json> = doc
        .get("sites")
        .and_then(|v| v.as_arr())
        .map(|r| r.iter().collect())
        .unwrap_or_default();
    let row_i64 = |r: &Json, k: &str| r.get(k).and_then(|v| v.as_i64()).unwrap_or(0);
    rows.sort_by_key(|r| (-row_i64(r, "total_wait_ns").abs(), row_i64(r, "site")));
    let _ = writeln!(
        out,
        "  {:<14} {:<8} {:>12} {:>12} {:>12} {:>10} {:>8} {:>12}",
        "site", "status", "wait", "late_send", "late_recv", "cp", "msgs", "bytes"
    );
    for r in &rows {
        let site = row_i64(r, "site");
        let _ = writeln!(
            out,
            "  {:<14} {:<8} {:>12} {:>12} {:>12} {:>10} {:>8} {:>12}",
            fmt_site(site),
            r.get("status").and_then(|v| v.as_str()).unwrap_or("?"),
            fmt_signed(row_i64(r, "total_wait_ns")),
            fmt_signed(row_i64(r, "late_sender_ns")),
            fmt_signed(row_i64(r, "late_receiver_ns")),
            fmt_signed(row_i64(r, "critical_path_ns")),
            fmt_signed(row_i64(r, "msgs")),
            fmt_signed(row_i64(r, "bytes")),
        );
    }
    out.push('\n');

    let list = |key: &str| -> Vec<(i64, i64)> {
        doc.get("summary")
            .and_then(|s| s.get(key))
            .and_then(|v| v.as_arr())
            .map(|rows| {
                rows.iter()
                    .map(|r| (row_i64(r, "site"), row_i64(r, "total_wait_ns")))
                    .collect()
            })
            .unwrap_or_default()
    };
    let regressions = list("top_regressions");
    let wins = list("top_wins");
    if regressions.is_empty() {
        let _ = writeln!(out, "  top regressions: none");
    } else {
        let items: Vec<String> = regressions
            .iter()
            .map(|&(s, d)| format!("{} ({} ns wait)", fmt_site(s), fmt_signed(d)))
            .collect();
        let _ = writeln!(out, "  top regressions: {}", items.join(", "));
    }
    if wins.is_empty() {
        let _ = writeln!(out, "  top wins: none");
    } else {
        let items: Vec<String> = wins
            .iter()
            .map(|&(s, d)| format!("{} ({} ns wait)", fmt_site(s), fmt_signed(d)))
            .collect();
        let _ = writeln!(out, "  top wins: {}", items.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::profile::profile_json;
    use netsim::json;
    use netsim::trace::{EventKind, TraceEvent};
    use netsim::Time;

    fn quiet_event(rank: usize, site: Option<u32>, start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            rank,
            time: Time(end),
            start: Time(start),
            site,
            kind: EventKind::Quiet {
                outstanding: 1,
                horizon: Time(end.saturating_sub(5)),
            },
        }
    }

    fn sample_profile(extra_site: bool) -> Json {
        let mut evs = vec![quiet_event(0, Some(1), 10, 50)];
        if extra_site {
            evs.push(quiet_event(0, Some(2), 60, 90));
        }
        let end = if extra_site { 90 } else { 50 };
        let a = analyze(&evs, 1, &[Time(end)]);
        profile_json("demo", &[], &a, &[])
    }

    #[test]
    fn self_diff_is_zero_and_valid() {
        let p = sample_profile(false);
        let d = diff_profiles(&p, &p).unwrap();
        assert!(validate_diff(&d).is_empty(), "{:?}", validate_diff(&d));
        assert!(diff_is_zero(&d));
    }

    #[test]
    fn added_site_is_reported_and_accounts_exactly() {
        let base = sample_profile(false);
        let cand = sample_profile(true);
        let d = diff_profiles(&base, &cand).unwrap();
        assert!(validate_diff(&d).is_empty(), "{:?}", validate_diff(&d));
        assert!(!diff_is_zero(&d));
        let rows = d.get("sites").unwrap().as_arr().unwrap();
        let added = rows
            .iter()
            .find(|r| r.get("site").unwrap().as_i64() == Some(2))
            .expect("site 2 present");
        assert_eq!(added.get("status").unwrap().as_str(), Some("added"));
        // Reversing the diff flips added to removed.
        let rev = diff_profiles(&cand, &base).unwrap();
        let rows = rev.get("sites").unwrap().as_arr().unwrap();
        let removed = rows
            .iter()
            .find(|r| r.get("site").unwrap().as_i64() == Some(2))
            .expect("site 2 present");
        assert_eq!(removed.get("status").unwrap().as_str(), Some("removed"));
        assert!(validate_diff(&rev).is_empty());
    }

    #[test]
    fn schema1_profiles_fold_onto_unattributed() {
        // A hand-written schema-1 document (no wait.per_site).
        let old = json::parse(
            r#"{"schema": 1, "workload": "legacy", "args": {}, "ranks": 1,
                "makespan_ns": 100,
                "wait": {"per_rank": [{"rank": 0, "total_wait_ns": 40,
                    "late_sender_ns": 30, "late_receiver_ns": 0,
                    "barrier_ns": 0, "quiet_ns": 0, "overhead_ns": 10,
                    "blame": [40]}]},
                "metrics": {"per_rank": [], "total": {}},
                "critical_path": []}"#,
        )
        .unwrap();
        let d = diff_profiles(&old, &old).unwrap();
        assert!(validate_diff(&d).is_empty(), "{:?}", validate_diff(&d));
        assert!(diff_is_zero(&d));
        let rows = d.get("sites").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("site").unwrap().as_i64(),
            Some(UNATTRIBUTED_SITE)
        );
        assert_eq!(rows[0].get("baseline_wait_ns").unwrap().as_i64(), Some(40));
    }

    #[test]
    fn validator_catches_broken_accounting() {
        let p = sample_profile(true);
        let mut d = diff_profiles(&p, &sample_profile(false)).unwrap();
        // Corrupt one site delta so the column no longer sums.
        if let Json::Obj(fields) = &mut d {
            if let Some((_, Json::Arr(rows))) = fields.iter_mut().find(|(k, _)| k == "sites") {
                if let Json::Obj(row) = &mut rows[0] {
                    for (k, v) in row.iter_mut() {
                        if k == "msgs" {
                            *v = Json::Int(999);
                        }
                    }
                }
            }
        }
        let problems = validate_diff(&d);
        assert!(problems.iter().any(|p| p.contains("msgs")), "{problems:?}");
    }
}
