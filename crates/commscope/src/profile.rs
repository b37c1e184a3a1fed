//! The stable profile JSON: per-rank and per-site metrics, the wait-state
//! decomposition with blame attribution, and the critical path, rendered
//! through [`netsim::json::Json`] with exact integers only. Every value is a
//! pure function of virtual time, so profiles are byte-identical across
//! execution engines and sweep widths — CI diffs them directly.

use netsim::{Hist, RankMetrics};

use crate::analysis::{Analysis, WaitKind};
use netsim::json::Json;

/// Schema version of the profile document.
///
/// History: schema 1 had per-rank wait rows only and no histogram
/// percentiles; schema 2 adds `p50`/`p99` to every histogram and the
/// `wait.per_site` section. Consumers (commtune, `commscope diff`) accept
/// both, treating missing schema-2 fields leniently — mirroring the
/// `--json` bench-stats precedent.
pub const PROFILE_SCHEMA: i64 = 2;

/// Pseudo-site id used for wait time, critical-path segments, and traffic
/// that carry no directive site attribution.
pub const UNATTRIBUTED_SITE: i64 = -1;

fn hist_json(h: &Hist) -> Json {
    // Trailing zero buckets are trimmed (deterministically) to keep
    // profiles compact; `count`/`sum`/`max` stay exact.
    let mut last = 0;
    for (i, &b) in h.buckets.iter().enumerate() {
        if b != 0 {
            last = i + 1;
        }
    }
    Json::Obj(vec![
        ("count".into(), Json::Int(h.count as i64)),
        ("sum".into(), Json::Int(h.sum as i64)),
        ("max".into(), Json::Int(h.max as i64)),
        ("p50".into(), Json::Int(h.percentile(50.0) as i64)),
        ("p99".into(), Json::Int(h.percentile(99.0) as i64)),
        (
            "buckets".into(),
            Json::Arr(
                h.buckets[..last]
                    .iter()
                    .map(|&b| Json::Int(b as i64))
                    .collect(),
            ),
        ),
    ])
}

fn rank_metrics_json(m: &RankMetrics) -> Json {
    Json::Obj(vec![
        ("msgs_sent".into(), Json::Int(m.msgs_sent as i64)),
        ("bytes_sent".into(), Json::Int(m.bytes_sent as i64)),
        ("msgs_recvd".into(), Json::Int(m.msgs_recvd as i64)),
        ("bytes_recvd".into(), Json::Int(m.bytes_recvd as i64)),
        ("puts".into(), Json::Int(m.puts as i64)),
        ("bytes_put".into(), Json::Int(m.bytes_put as i64)),
        ("wait_ns".into(), Json::Int(m.wait_ns as i64)),
        ("recv_dwell".into(), hist_json(&m.recv_dwell)),
        ("waitall_width".into(), hist_json(&m.waitall_width)),
        (
            "sites".into(),
            Json::Arr(
                m.sites
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("site".into(), Json::Int(s.site as i64)),
                            ("msgs_sent".into(), Json::Int(s.msgs_sent as i64)),
                            ("bytes_sent".into(), Json::Int(s.bytes_sent as i64)),
                            ("msgs_recvd".into(), Json::Int(s.msgs_recvd as i64)),
                            ("bytes_recvd".into(), Json::Int(s.bytes_recvd as i64)),
                            ("dwell_ns".into(), Json::Int(s.dwell_ns as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Aggregate the interval decomposition and the critical path by directive
/// site. Every wait interval lands in exactly one row (events with no site
/// attribution land on [`UNATTRIBUTED_SITE`]), so the per-site totals sum
/// exactly to the per-rank totals — the invariant `commscope diff` builds
/// its exact accounting on. Rows are ordered by site id (unattributed
/// first).
fn wait_per_site_json(analysis: &Analysis) -> Json {
    use std::collections::BTreeMap;
    #[derive(Default)]
    struct Row {
        total: u64,
        late_sender: u64,
        late_receiver: u64,
        barrier: u64,
        quiet: u64,
        overhead: u64,
        cp: u64,
    }
    let mut rows: BTreeMap<i64, Row> = BTreeMap::new();
    for iv in &analysis.intervals {
        let key = iv.site.map_or(UNATTRIBUTED_SITE, |s| s as i64);
        let r = rows.entry(key).or_default();
        r.total += iv.blocked_ns + iv.overhead_ns;
        match iv.kind {
            WaitKind::LateSender => r.late_sender += iv.blocked_ns,
            WaitKind::LateReceiver => r.late_receiver += iv.blocked_ns,
            WaitKind::Barrier => r.barrier += iv.blocked_ns,
            WaitKind::Quiet => r.quiet += iv.blocked_ns,
            WaitKind::Overhead => {}
        }
        r.overhead += iv.overhead_ns;
    }
    for seg in &analysis.critical_path {
        let key = seg.site.map_or(UNATTRIBUTED_SITE, |s| s as i64);
        rows.entry(key).or_default().cp += seg.end.saturating_sub(seg.start).as_nanos();
    }
    Json::Arr(
        rows.into_iter()
            .map(|(site, r)| {
                Json::Obj(vec![
                    ("site".into(), Json::Int(site)),
                    ("total_wait_ns".into(), Json::Int(r.total as i64)),
                    ("late_sender_ns".into(), Json::Int(r.late_sender as i64)),
                    ("late_receiver_ns".into(), Json::Int(r.late_receiver as i64)),
                    ("barrier_ns".into(), Json::Int(r.barrier as i64)),
                    ("quiet_ns".into(), Json::Int(r.quiet as i64)),
                    ("overhead_ns".into(), Json::Int(r.overhead as i64)),
                    ("critical_path_ns".into(), Json::Int(r.cp as i64)),
                ])
            })
            .collect(),
    )
}

/// Build the profile document for one observed run.
///
/// `args` are echoed verbatim (workload parameters); `metrics` is
/// [`RankMetrics::from_trace`] of the run's trace, or empty to omit
/// per-rank metrics.
pub fn profile_json(
    workload: &str,
    args: &[(String, i64)],
    analysis: &Analysis,
    metrics: &[RankMetrics],
) -> Json {
    profile_json_tuned(workload, args, analysis, metrics, None)
}

/// [`profile_json`] for a run executed under a tuning overlay: `tuning` is
/// the overlay's provenance document (generator, schema, decisions) and is
/// recorded under a `"tuning"` key so a profile says which decisions were
/// live when it was taken. `None` emits exactly the untuned document —
/// committed profile goldens are unaffected.
pub fn profile_json_tuned(
    workload: &str,
    args: &[(String, i64)],
    analysis: &Analysis,
    metrics: &[RankMetrics],
    tuning: Option<&Json>,
) -> Json {
    let wait_ranks: Vec<Json> = analysis
        .ranks
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("rank".into(), Json::Int(p.rank as i64)),
                ("total_wait_ns".into(), Json::Int(p.total_wait_ns as i64)),
                ("late_sender_ns".into(), Json::Int(p.late_sender_ns as i64)),
                (
                    "late_receiver_ns".into(),
                    Json::Int(p.late_receiver_ns as i64),
                ),
                ("barrier_ns".into(), Json::Int(p.barrier_ns as i64)),
                ("quiet_ns".into(), Json::Int(p.quiet_ns as i64)),
                ("overhead_ns".into(), Json::Int(p.overhead_ns as i64)),
                (
                    "blame".into(),
                    Json::Arr(p.blame.iter().map(|&b| Json::Int(b as i64)).collect()),
                ),
            ])
        })
        .collect();

    let mut total = RankMetrics::default();
    for m in metrics {
        total.merge(m);
    }

    let path: Vec<Json> = analysis
        .critical_path
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("rank".into(), Json::Int(s.rank as i64)),
                ("start_ns".into(), Json::Int(s.start.as_nanos() as i64)),
                ("end_ns".into(), Json::Int(s.end.as_nanos() as i64)),
                ("label".into(), s.label.to_string().into()),
                (
                    "site".into(),
                    s.site.map_or(Json::Null, |x| Json::Int(x as i64)),
                ),
            ])
        })
        .collect();

    let mut fields = vec![
        ("schema".into(), Json::Int(PROFILE_SCHEMA)),
        ("workload".into(), workload.to_string().into()),
        (
            "args".into(),
            Json::Obj(
                args.iter()
                    .map(|(k, v)| (k.clone().into(), Json::Int(*v)))
                    .collect(),
            ),
        ),
        ("ranks".into(), Json::Int(analysis.nranks as i64)),
        (
            "makespan_ns".into(),
            Json::Int(analysis.makespan.as_nanos() as i64),
        ),
        (
            "wait".into(),
            Json::Obj(vec![
                ("per_rank".into(), Json::Arr(wait_ranks)),
                ("per_site".into(), wait_per_site_json(analysis)),
            ]),
        ),
        (
            "metrics".into(),
            Json::Obj(vec![
                (
                    "per_rank".into(),
                    Json::Arr(metrics.iter().map(rank_metrics_json).collect()),
                ),
                ("total".into(), rank_metrics_json(&total)),
            ]),
        ),
        ("critical_path".into(), Json::Arr(path)),
    ];
    if let Some(t) = tuning {
        fields.push(("tuning".into(), t.clone()));
    }
    Json::Obj(fields)
}

/// Validate the shape of a profile document (used by `commscope --check`
/// and the CI smoke job). Returns a list of problems, empty when valid.
pub fn validate_profile(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let mut need_int = |key: &str| {
        if doc.get(key).and_then(|v| v.as_i64()).is_none() {
            problems.push(format!("missing integer field '{key}'"));
        }
    };
    need_int("schema");
    need_int("ranks");
    need_int("makespan_ns");
    if doc.get("workload").and_then(|v| v.as_str()).is_none() {
        problems.push("missing string field 'workload'".into());
    }
    let nranks = doc.get("ranks").and_then(|v| v.as_i64()).unwrap_or(0) as usize;
    match doc
        .get("wait")
        .and_then(|w| w.get("per_rank"))
        .and_then(|v| v.as_arr())
    {
        None => problems.push("missing wait.per_rank".into()),
        Some(rows) => {
            if rows.len() != nranks {
                problems.push(format!(
                    "wait.per_rank has {} rows for {} ranks",
                    rows.len(),
                    nranks
                ));
            }
            for row in rows {
                let total = row.get("total_wait_ns").and_then(|v| v.as_i64());
                let blame_sum: Option<i64> = row
                    .get("blame")
                    .and_then(|v| v.as_arr())
                    .map(|b| b.iter().filter_map(|x| x.as_i64()).sum());
                if let (Some(t), Some(b)) = (total, blame_sum) {
                    if t != b {
                        problems.push(format!(
                            "rank {:?}: blame sums to {b}, total wait is {t}",
                            row.get("rank").and_then(|v| v.as_i64())
                        ));
                    }
                } else {
                    problems.push("wait row missing total_wait_ns or blame".into());
                }
            }
        }
    }
    // `wait.per_site` is schema ≥ 2; older documents stay valid without
    // it (lenient old-version parse). When present, its totals must sum
    // exactly to the per-rank totals — the diff accounting invariant.
    if let Some(site_rows) = doc
        .get("wait")
        .and_then(|w| w.get("per_site"))
        .and_then(|v| v.as_arr())
    {
        let rank_total: i64 = doc
            .get("wait")
            .and_then(|w| w.get("per_rank"))
            .and_then(|v| v.as_arr())
            .map(|rows| {
                rows.iter()
                    .filter_map(|r| r.get("total_wait_ns").and_then(|v| v.as_i64()))
                    .sum()
            })
            .unwrap_or(0);
        let site_total: i64 = site_rows
            .iter()
            .filter_map(|r| r.get("total_wait_ns").and_then(|v| v.as_i64()))
            .sum();
        if rank_total != site_total {
            problems.push(format!(
                "wait.per_site sums to {site_total}, wait.per_rank to {rank_total}"
            ));
        }
        for row in site_rows {
            let total = row.get("total_wait_ns").and_then(|v| v.as_i64());
            let buckets: Option<i64> = [
                "late_sender_ns",
                "late_receiver_ns",
                "barrier_ns",
                "quiet_ns",
                "overhead_ns",
            ]
            .iter()
            .map(|k| row.get(k).and_then(|v| v.as_i64()))
            .sum();
            if let (Some(t), Some(b)) = (total, buckets) {
                if t != b {
                    problems.push(format!(
                        "site {:?}: kind buckets sum to {b}, total wait is {t}",
                        row.get("site").and_then(|v| v.as_i64())
                    ));
                }
            } else {
                problems.push("wait.per_site row missing a taxonomy field".into());
            }
        }
    }
    if doc.get("critical_path").and_then(|v| v.as_arr()).is_none() {
        problems.push("missing critical_path".into());
    }
    if doc
        .get("metrics")
        .and_then(|m| m.get("per_rank"))
        .and_then(|v| v.as_arr())
        .is_none()
    {
        problems.push("missing metrics.per_rank".into());
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use netsim::json;
    use netsim::trace::{EventKind, TraceEvent};
    use netsim::Time;

    #[test]
    fn profile_roundtrips_and_validates() {
        let evs = vec![TraceEvent {
            rank: 0,
            time: Time(50),
            start: Time(10),
            site: Some(1),
            kind: EventKind::Quiet {
                outstanding: 2,
                horizon: Time(45),
            },
        }];
        let a = analyze(&evs, 1, &[Time(50)]);
        let put = TraceEvent {
            rank: 0,
            time: Time(10),
            start: Time(10),
            site: Some(1),
            kind: EventKind::Put { dst: 0, bytes: 32 },
        };
        let m = RankMetrics::from_trace(&[put, evs[0].clone()], 1);
        assert_eq!(m[0].wait_ns, 40);
        let doc = profile_json("demo", &[("m".into(), 4)], &a, &m);
        let text = doc.render();
        let back = json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert!(
            validate_profile(&back).is_empty(),
            "{:?}",
            validate_profile(&back)
        );
        assert_eq!(
            back.get("metrics")
                .unwrap()
                .get("total")
                .unwrap()
                .get("bytes_put")
                .unwrap()
                .as_i64(),
            Some(32)
        );
    }

    #[test]
    fn tuned_profile_carries_provenance_and_none_is_identical() {
        let a = analyze(&[], 1, &[Time(10)]);
        let plain = profile_json("demo", &[], &a, &[]);
        let none = profile_json_tuned("demo", &[], &a, &[], None);
        assert_eq!(plain.render(), none.render(), "None must not change bytes");
        let prov = Json::Obj(vec![("generator".into(), Json::Str("commtune".into()))]);
        let tuned = profile_json_tuned("demo", &[], &a, &[], Some(&prov));
        assert_eq!(
            tuned
                .get("tuning")
                .and_then(|t| t.get("generator"))
                .and_then(|g| g.as_str()),
            Some("commtune")
        );
        assert!(
            validate_profile(&tuned).is_empty(),
            "tuning key stays valid"
        );
    }

    #[test]
    fn validator_flags_blame_mismatch() {
        let doc = json::parse(
            r#"{"schema": 1, "workload": "x", "args": {}, "ranks": 1,
                "makespan_ns": 10,
                "wait": {"per_rank": [{"rank": 0, "total_wait_ns": 5, "blame": [4]}]},
                "metrics": {"per_rank": [], "total": {}},
                "critical_path": []}"#,
        )
        .unwrap();
        let problems = validate_profile(&doc);
        assert!(problems.iter().any(|p| p.contains("blame")));
    }
}
