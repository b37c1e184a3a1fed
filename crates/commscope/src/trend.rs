//! Run-history trend analysis over the bench ledger (`results/LEDGER.jsonl`).
//!
//! The ledger is written by `bench::ledger` (one compact JSON object per
//! line, one line per `--json` bench run); this module is the reader. It is
//! deliberately generic over the entry shape — `commscope` sits below
//! `bench` in the dependency order, so it parses the JSONL rather than
//! sharing a struct — and tolerates unknown fields, mirroring the lenient
//! old-version parse used everywhere else.

use netsim::json::{self, Json};

/// Schema version of one ledger entry, written by `bench::ledger`.
/// Schema 2 names each series' virtual counters (`stats` is an object in
/// `RankStats` table order; schema 1 had a bare positional array). The
/// trend reads only `ranks`, `args`, `label`, `total_ns` and `time_ns`, so
/// both versions trend.
pub const LEDGER_SCHEMA: i64 = 2;

/// Parse a JSONL ledger: one entry per non-empty line. Malformed lines are
/// an error (the ledger is append-only machine output; a bad line means
/// corruption worth surfacing, not skipping).
pub fn parse_ledger(text: &str) -> Result<Vec<Json>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry = json::parse(line).map_err(|e| format!("ledger line {}: {e}", i + 1))?;
        entries.push(entry);
    }
    Ok(entries)
}

/// Trajectory of one benchmark series across ledger entries (file order =
/// chronological order, the ledger being append-only).
#[derive(Clone, Debug)]
pub struct SeriesTrend {
    pub bench: String,
    pub label: String,
    /// The runs' workload shape (see [`run_shape`]).
    pub shape: String,
    /// `time_ns` per run, oldest first.
    pub history: Vec<i64>,
    /// Git revision recorded with the newest run, if any.
    pub latest_rev: String,
    /// Mean of the up-to-`last_k` runs preceding the newest.
    pub reference_mean: f64,
    /// Latest-vs-reference change, percent (positive = slower).
    pub change_pct: f64,
    /// True when the newest run exceeds the reference mean by more than
    /// the configured tolerance.
    pub regressed: bool,
}

/// The workload shape of a ledger entry: its rank list and every `args`
/// entry except `workers`, as `ranks=[..]; key=value ..`. Only runs of one
/// shape are compared: a 513-rank and a 4097-rank run of one bench measure
/// different things. Virtual time does not depend on the carrier count
/// (`workers`), so runs at every carrier count share a series. An entry
/// that records neither ranks nor args has the empty shape, which groups it
/// by bench and label alone.
pub fn run_shape(entry: &Json) -> String {
    let ranks = entry
        .get("ranks")
        .map(|r| format!("ranks={}", r.render_compact()));
    let args = match entry.get("args") {
        Some(Json::Obj(args)) => &args[..],
        _ => &[],
    };
    let args: Vec<String> = args
        .iter()
        .filter(|(k, _)| *k != "workers")
        .map(|(k, v)| format!("{k}={}", v.render_compact()))
        .collect();
    let parts = ranks.into_iter().chain([args.join(" ")]);
    parts
        .filter(|p| !p.is_empty())
        .collect::<Vec<_>>()
        .join("; ")
}

/// Group ledger entries by (bench, series label, [`run_shape`]) and compare
/// each series' newest run against the mean of the `last_k` runs before it,
/// flagging a regression when it is more than `tolerance_pct` percent
/// slower.
pub fn trend(entries: &[Json], last_k: usize, tolerance_pct: f64) -> Vec<SeriesTrend> {
    // (bench, label, shape) -> (history, latest_rev), insertion-ordered so
    // the report is stable in ledger order.
    type Key = (String, String, String);
    let mut order: Vec<Key> = Vec::new();
    let mut series: std::collections::HashMap<Key, (Vec<i64>, String)> =
        std::collections::HashMap::new();
    for entry in entries {
        let bench = entry
            .get("bench")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string();
        let rev = entry
            .get("git_rev")
            .and_then(|v| v.as_str())
            .unwrap_or("unknown")
            .to_string();
        let Some(rows) = entry.get("series").and_then(|v| v.as_arr()) else {
            continue;
        };
        let shape = run_shape(entry);
        for row in rows {
            let label = row
                .get("label")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string();
            // The tracked scalar: `total_ns` (sum over the sweep) when the
            // entry provides it, else a scalar `time_ns`.
            let Some(t) = row
                .get("total_ns")
                .and_then(|v| v.as_i64())
                .or_else(|| row.get("time_ns").and_then(|v| v.as_i64()))
            else {
                continue;
            };
            let key = (bench.clone(), label, shape.clone());
            let slot = series.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                (Vec::new(), String::new())
            });
            slot.0.push(t);
            slot.1 = rev.clone();
        }
    }

    order
        .into_iter()
        .map(|key| {
            let (history, latest_rev) = series.remove(&key).expect("keyed by order");
            let latest = *history.last().expect("non-empty history");
            let prior = &history[..history.len() - 1];
            let window = &prior[prior.len().saturating_sub(last_k)..];
            let reference_mean = if window.is_empty() {
                latest as f64
            } else {
                window.iter().sum::<i64>() as f64 / window.len() as f64
            };
            let change_pct = if reference_mean == 0.0 {
                0.0
            } else {
                100.0 * (latest as f64 - reference_mean) / reference_mean
            };
            SeriesTrend {
                bench: key.0,
                label: key.1,
                shape: key.2,
                history,
                latest_rev,
                reference_mean,
                change_pct,
                regressed: change_pct > tolerance_pct,
            }
        })
        .collect()
}

/// Render the trend report. Each series gets one line: run count, the
/// trajectory endpoints, the latest-vs-reference change, and a regression
/// flag; a second line names its shape when the ledger recorded one.
pub fn render_trend_text(trends: &[SeriesTrend], last_k: usize, tolerance_pct: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trend: {} series (reference = mean of last {last_k} prior runs, tolerance {tolerance_pct}%)",
        trends.len()
    );
    for t in trends {
        let verdict = if t.history.len() < 2 {
            "baseline".to_string()
        } else if t.regressed {
            format!("REGRESSED {:+.1}%", t.change_pct)
        } else {
            format!("ok {:+.1}%", t.change_pct)
        };
        let _ = writeln!(
            out,
            "  {:<28} {:>3} runs  {:>14} -> {:>14} ns  [{}]  rev {}",
            format!("{}/{}", t.bench, t.label),
            t.history.len(),
            t.history.first().copied().unwrap_or(0),
            t.history.last().copied().unwrap_or(0),
            verdict,
            t.latest_rev,
        );
        if !t.shape.is_empty() {
            let _ = writeln!(out, "      shape: {}", t.shape);
        }
    }
    if trends.iter().any(|t| t.regressed) {
        let _ = writeln!(out, "  verdict: REGRESSION detected");
    } else {
        let _ = writeln!(out, "  verdict: no regression");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(bench: &str, rev: &str, times: &[(&str, i64)]) -> String {
        let series: Vec<Json> = times
            .iter()
            .map(|(l, t)| {
                Json::Obj(vec![
                    ("label".into(), l.to_string().into()),
                    ("time_ns".into(), Json::Int(*t)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Int(LEDGER_SCHEMA)),
            ("bench".into(), bench.to_string().into()),
            ("git_rev".into(), rev.to_string().into()),
            ("series".into(), Json::Arr(series)),
        ])
        .render_compact()
    }

    #[test]
    fn regression_flagged_against_window_mean() {
        let text = [
            entry("fig4", "aaa", &[("orig", 100)]),
            entry("fig4", "bbb", &[("orig", 102)]),
            entry("fig4", "ccc", &[("orig", 130)]),
        ]
        .join("\n");
        let entries = parse_ledger(&text).unwrap();
        let trends = trend(&entries, 5, 10.0);
        assert_eq!(trends.len(), 1);
        assert!(trends[0].regressed, "{:?}", trends[0]);
        assert_eq!(trends[0].latest_rev, "ccc");
        // Within tolerance: not a regression.
        let trends = trend(&entries[..2], 5, 10.0);
        assert!(!trends[0].regressed);
    }

    #[test]
    fn single_run_is_baseline_not_regression() {
        let entries = parse_ledger(&entry("fig3", "aaa", &[("run", 50)])).unwrap();
        let trends = trend(&entries, 3, 5.0);
        assert_eq!(trends[0].history, vec![50]);
        assert!(!trends[0].regressed);
        let text = render_trend_text(&trends, 3, 5.0);
        assert!(text.contains("baseline"), "{text}");
        assert!(text.contains("no regression"), "{text}");
    }

    /// A `fig_scale`-style entry of one series at `ranks` ranks and `steps`
    /// steps on `workers` carriers.
    fn scale_entry(ranks: i64, steps: i64, workers: i64, time_ns: i64) -> String {
        let text = entry("fig_scale", "rev", &[("Original + Waitall", time_ns)]);
        let Json::Obj(mut fields) = json::parse(&text).unwrap() else {
            unreachable!("an entry is an object")
        };
        let args = Json::Obj(vec![
            ("steps".into(), Json::Int(steps)),
            ("workers".into(), Json::Int(workers)),
            ("stack_kib".into(), Json::Int(256)),
        ]);
        fields.push(("args".into(), args));
        fields.push(("ranks".into(), Json::Arr(vec![Json::Int(ranks)])));
        Json::Obj(fields).render_compact()
    }

    fn trends_of(lines: &[String]) -> Vec<SeriesTrend> {
        trend(&parse_ledger(&lines.join("\n")).unwrap(), 5, 10.0)
    }

    #[test]
    fn committed_ledger_passes_check() {
        let text = include_str!("../../../results/LEDGER.jsonl");
        let trends = trend(&parse_ledger(text).unwrap(), 5, 10.0);
        let report = render_trend_text(&trends, 5, 10.0);
        assert!(trends.iter().all(|t| !t.regressed), "{report}");
        assert!(
            report.contains("shape: ranks=[4097]; steps=2 stack_kib=256"),
            "{report}"
        );
    }

    #[test]
    fn run_of_a_new_shape_starts_its_own_baseline() {
        let trends = trends_of(&[
            scale_entry(513, 1, 0, 482_480),
            scale_entry(513, 1, -1, 482_480),
            scale_entry(4097, 2, 0, 3_851_440),
        ]);
        assert_eq!(trends.len(), 2, "{trends:?}");
        assert_eq!(trends[0].history, vec![482_480, 482_480]);
        assert_eq!(trends[1].history, vec![3_851_440]);
        assert_eq!(trends[1].shape, "ranks=[4097]; steps=2 stack_kib=256");
        assert!(trends.iter().all(|t| !t.regressed), "{trends:?}");
        let text = render_trend_text(&trends, 5, 10.0);
        assert!(text.contains("[baseline]"), "{text}");
    }

    #[test]
    fn like_shaped_regression_fails_beside_another_shape() {
        // The 4097-rank runs are slower in absolute terms; mixed into the
        // 513-rank reference they would hide the 513-rank regression.
        let trends = trends_of(&[
            scale_entry(513, 1, 0, 100_000),
            scale_entry(4097, 2, 0, 1_000_000),
            scale_entry(4097, 2, 0, 1_000_000),
            scale_entry(513, 1, 1, 130_000),
        ]);
        assert_eq!(trends.len(), 2, "{trends:?}");
        assert!(trends[0].regressed, "{:?}", trends[0]);
        assert_eq!(trends[0].history, vec![100_000, 130_000]);
        assert!(!trends[1].regressed, "{:?}", trends[1]);
    }

    #[test]
    fn entry_without_shape_groups_by_label() {
        let trends = trends_of(&[
            entry("fig4", "aaa", &[("orig", 100)]),
            entry("fig4", "bbb", &[("orig", 130)]),
        ]);
        assert_eq!(trends.len(), 1);
        assert_eq!(trends[0].shape, "");
        assert!(trends[0].regressed);
        assert!(!render_trend_text(&trends, 5, 10.0).contains("shape:"));
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(parse_ledger("{\"bench\":\"x\"}\nnot json\n").is_err());
    }
}
