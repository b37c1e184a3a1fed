//! Machine-readable benchmark reports: the `--json` report schema shared by
//! the figure binaries and baseline comparison for the CI perf-smoke gate.
//! The JSON value type is the workspace's one, [`netsim::json::Json`].
//!
//! Schema (stable; bump `schema` on breaking changes):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "fig4",
//!   "args": {"stride": 4, "steps": 4, "workers": 0},
//!   "ranks": [33, 97],
//!   "series": [
//!     {"label": "...", "time_ns": [123, 456],
//!      "stats": {"sends": 1, "recvs": 1, "...": 0},
//!      "contention": [3, 120, 240]}
//!   ],
//!   "wall_s": 1.25
//! }
//! ```
//!
//! `time_ns` are per-step virtual times — pure functions of the workload,
//! identical across engines, worker counts and hosts, so a baseline diff on
//! them is exact (integer equality). `stats` carries the *virtual*
//! counters of the [`RankStats`] table, `contention` its *physical* ones,
//! both in table order. Contention is interleaving-dependent, so baseline
//! comparison only *warns* on drift (like `wall_s`, which is compared with a
//! slack factor) — it never fails the gate, and the CI engine byte-diff
//! filters the line out.

use netsim::json::{self, Json};
use netsim::{CounterKind, RankStats};

/// Virtual counters present since the first reports. Rows declared after
/// them read back as zero from a baseline that predates them (the physical
/// `contention` array likewise).
const REQUIRED_STATS: usize = 12;

/// One series of a benchmark report.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesReport {
    pub label: String,
    /// Per-x virtual times in ns (exact integers).
    pub time_ns: Vec<u64>,
    /// Counters merged across the series' runs. The physical ones are
    /// interleaving-dependent: recorded for tuning, soft-gated only.
    pub stats: RankStats,
}

impl SeriesReport {
    /// The virtual counters as a named object in table order: the series'
    /// `stats` in both the `--json` report and the ledger.
    pub fn stats_json(&self) -> Json {
        Json::Obj(
            self.stats
                .of_kind(CounterKind::Virtual)
                .map(|(c, v)| (c.name.into(), Json::Int(v as i64)))
                .collect(),
        )
    }

    pub fn new(label: impl Into<String>, time_ns: Vec<u64>, stats: &RankStats) -> Self {
        SeriesReport {
            label: label.into(),
            time_ns,
            stats: *stats,
        }
    }
}

/// A `--json` benchmark report: everything above `wall_s` except
/// `contention` is a pure function of the workload and engine-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub bench: String,
    /// Flat integer arguments (`workers` is the carrier count, `0` = auto;
    /// ledger entries written before the one engine carry `-1`).
    pub args: Vec<(String, i64)>,
    pub ranks: Vec<usize>,
    pub series: Vec<SeriesReport>,
    pub wall_s: f64,
}

impl BenchReport {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Int(1)),
            ("bench".into(), self.bench.clone().into()),
            (
                "args".into(),
                Json::Obj(
                    self.args
                        .iter()
                        .map(|(k, v)| (k.clone().into(), Json::Int(*v)))
                        .collect(),
                ),
            ),
            (
                "ranks".into(),
                Json::Arr(self.ranks.iter().map(|&r| Json::Int(r as i64)).collect()),
            ),
            (
                "series".into(),
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("label".into(), s.label.clone().into()),
                                (
                                    "time_ns".into(),
                                    Json::Arr(
                                        s.time_ns.iter().map(|&t| Json::Int(t as i64)).collect(),
                                    ),
                                ),
                                ("stats".into(), s.stats_json()),
                                (
                                    "contention".into(),
                                    Json::Arr(
                                        s.stats
                                            .of_kind(CounterKind::Physical)
                                            .map(|(_, v)| Json::Int(v as i64))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("wall_s".into(), Json::Num(self.wall_s)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<BenchReport, String> {
        let need = |k: &str| j.get(k).ok_or_else(|| format!("missing field '{k}'"));
        let schema = need("schema")?.as_i64().ok_or("schema not an int")?;
        if schema != 1 {
            return Err(format!("unsupported schema {schema}"));
        }
        let bench = need("bench")?.as_str().ok_or("bench not a string")?.into();
        let args = match need("args")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_i64()
                        .map(|v| (k.to_string(), v))
                        .ok_or("bad arg value")
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("args not an object".into()),
        };
        let ranks = need("ranks")?
            .as_arr()
            .ok_or("ranks not an array")?
            .iter()
            .map(|v| v.as_i64().map(|i| i as usize).ok_or("bad rank"))
            .collect::<Result<Vec<_>, _>>()?;
        let series = need("series")?
            .as_arr()
            .ok_or("series not an array")?
            .iter()
            .map(|s| {
                let label = s
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or("series missing label")?
                    .to_string();
                let time_ns = s
                    .get("time_ns")
                    .and_then(Json::as_arr)
                    .ok_or("series missing time_ns")?
                    .iter()
                    .map(|v| v.as_i64().map(|i| i as u64).ok_or("bad time_ns"))
                    .collect::<Result<Vec<_>, _>>()?;
                let stats_obj = s.get("stats").ok_or("series missing stats")?;
                // Reports written before the contention array existed (and
                // hand-trimmed baselines) read back as zeros.
                let mut contention = s
                    .get("contention")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter();
                let mut stats = RankStats::default();
                for (i, (c, slot)) in stats.values_mut().enumerate() {
                    let value = match c.kind {
                        CounterKind::Virtual => stats_obj.get(c.name).and_then(Json::as_i64),
                        CounterKind::Physical => contention
                            .next()
                            .map(|v| v.as_i64().ok_or("bad contention value"))
                            .transpose()?,
                    };
                    match value {
                        Some(v) => *slot = v as usize,
                        None if i >= REQUIRED_STATS => {}
                        None => return Err(format!("stats missing '{}'", c.name)),
                    }
                }
                Ok::<SeriesReport, String>(SeriesReport {
                    label,
                    time_ns,
                    stats,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let wall_s = need("wall_s")?.as_f64().ok_or("wall_s not a number")?;
        Ok(BenchReport {
            bench,
            args,
            ranks,
            series,
            wall_s,
        })
    }
}

/// Outcome of diffing a fresh report against a committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineDiff {
    /// Exact-match failures (virtual times, ranks, labels, counters) —
    /// these fail the CI gate.
    pub errors: Vec<String>,
    /// Soft signals (wall-time regression, physical contention drift) —
    /// these only warn.
    pub warnings: Vec<String>,
}

/// Wall-clock regression factor that triggers a warning.
pub const WALL_SLACK: f64 = 1.5;

/// Contention-counter growth factor that triggers a warning. Physical
/// counters jitter with interleaving; a doubling is a real signal (e.g. a
/// matching-engine regression), smaller drift is noise.
pub const CONTENTION_SLACK: f64 = 2.0;

/// Compare `report` against the baseline file contents (a JSON object with
/// a `benches` array of [`BenchReport`]s). The baseline entry is selected
/// by bench name + identical args; a missing entry is an error (the gate
/// must notice schema/arg drift, not silently pass).
pub fn compare_with_baseline(report: &BenchReport, baseline_text: &str) -> BaselineDiff {
    let mut diff = BaselineDiff {
        errors: Vec::new(),
        warnings: Vec::new(),
    };
    let parsed = match json::parse(baseline_text) {
        Ok(p) => p,
        Err(e) => {
            diff.errors.push(format!("baseline unparsable: {e}"));
            return diff;
        }
    };
    let benches = match parsed.get("benches").and_then(Json::as_arr) {
        Some(b) => b,
        None => {
            diff.errors.push("baseline has no 'benches' array".into());
            return diff;
        }
    };
    let base = benches
        .iter()
        .filter_map(|b| BenchReport::from_json(b).ok())
        .find(|b| b.bench == report.bench && b.args == report.args);
    let base = match base {
        Some(b) => b,
        None => {
            diff.errors.push(format!(
                "no baseline entry for bench '{}' with args {:?}",
                report.bench, report.args
            ));
            return diff;
        }
    };
    if base.ranks != report.ranks {
        diff.errors.push(format!(
            "rank axis changed: baseline {:?} vs current {:?}",
            base.ranks, report.ranks
        ));
    }
    // Hard race gate, independent of the baseline's contents: a run whose
    // shadow-state sanitizer attributed any conflicting access pair must
    // never pass, even if someone blesses a racy baseline.
    for rs in &report.series {
        if rs.stats.conflicts_found != 0 {
            diff.errors.push(format!(
                "series '{}': sanitizer found {} one-sided race conflict(s) (must be 0)",
                rs.label, rs.stats.conflicts_found
            ));
        }
    }
    for (bs, rs) in base.series.iter().zip(&report.series) {
        if bs.label != rs.label {
            diff.errors
                .push(format!("series label '{}' -> '{}'", bs.label, rs.label));
            continue;
        }
        for (i, (bt, rt)) in bs.time_ns.iter().zip(&rs.time_ns).enumerate() {
            if bt != rt {
                diff.errors.push(format!(
                    "series '{}' x={} time_ns {} -> {}",
                    bs.label,
                    report.ranks.get(i).copied().unwrap_or(i),
                    bt,
                    rt
                ));
            }
        }
        let mut changed = Vec::new();
        for ((c, bc), (_, rc)) in bs.stats.values().zip(rs.stats.values()) {
            match c.kind {
                CounterKind::Virtual if bc != rc => {
                    changed.push(format!("{} {bc} -> {rc}", c.name))
                }
                // Physical counters: soft gate. Warn only on substantial
                // growth, and only when the baseline recorded them
                // (non-zero).
                CounterKind::Physical if bc > 0 && rc as f64 > bc as f64 * CONTENTION_SLACK => {
                    diff.warnings.push(format!(
                        "series '{}' contention counter {} grew {bc} -> {rc} \
                         (>{CONTENTION_SLACK}x; physical, interleaving-dependent)",
                        bs.label, c.name
                    ))
                }
                _ => {}
            }
        }
        if !changed.is_empty() {
            diff.errors.push(format!(
                "series '{}' op counters changed: {}",
                bs.label,
                changed.join(", ")
            ));
        }
    }
    if base.series.len() != report.series.len() {
        diff.errors.push(format!(
            "series count {} -> {}",
            base.series.len(),
            report.series.len()
        ));
    }
    if report.wall_s > base.wall_s * WALL_SLACK {
        diff.warnings.push(format!(
            "wall time {:.2}s exceeds baseline {:.2}s by more than {WALL_SLACK}x",
            report.wall_s, base.wall_s
        ));
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stats with `values` assigned to the counter table in order.
    fn stats_of(values: &[usize]) -> RankStats {
        let mut stats = RankStats::default();
        for ((_, slot), &v) in stats.values_mut().zip(values) {
            *slot = v;
        }
        stats
    }

    fn field_mut<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
        match j {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("not an object"),
        }
    }

    fn sample_report() -> BenchReport {
        BenchReport {
            bench: "fig4".into(),
            args: vec![("stride".into(), 4), ("steps".into(), 4)],
            ranks: vec![33, 97],
            series: vec![SeriesReport {
                label: "Original Communication".into(),
                time_ns: vec![1_234_567_890_123, 42],
                stats: stats_of(&[
                    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 14, 3, 120, 240,
                ]),
            }],
            wall_s: 1.5,
        }
    }

    #[test]
    fn report_roundtrip_is_exact() {
        let r = sample_report();
        let text = r.to_json().render();
        let back = BenchReport::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn contention_renders_on_one_line_and_tolerates_absence() {
        let r = sample_report();
        let text = r.to_json().render();
        // One-line scalar array, so CI's engine byte-diff can grep it out.
        assert!(text.contains("\"contention\": [3, 120, 240]"));
        // Pre-contention reports parse with zeros.
        let legacy = text.replace(",\n      \"contention\": [3, 120, 240]", "");
        let back = BenchReport::from_json(&json::parse(&legacy).unwrap());
        match back {
            Ok(b) => assert!(b.series[0]
                .stats
                .of_kind(CounterKind::Physical)
                .all(|(_, v)| v == 0)),
            Err(e) => panic!("legacy report rejected: {e}"),
        }
    }

    #[test]
    fn baseline_identical_passes() {
        let r = sample_report();
        let baseline = Json::Obj(vec![
            ("schema".into(), Json::Int(1)),
            ("benches".into(), Json::Arr(vec![r.to_json()])),
        ])
        .render();
        let diff = compare_with_baseline(&r, &baseline);
        assert!(diff.errors.is_empty(), "{:?}", diff.errors);
        assert!(diff.warnings.is_empty());
    }

    #[test]
    fn baseline_flags_time_change_and_wall_regression() {
        let r = sample_report();
        let baseline = Json::Obj(vec![("benches".into(), Json::Arr(vec![r.to_json()]))]).render();
        let mut changed = r.clone();
        changed.series[0].time_ns[1] = 43;
        changed.wall_s = 100.0;
        let diff = compare_with_baseline(&changed, &baseline);
        assert_eq!(diff.errors.len(), 1);
        assert!(diff.errors[0].contains("time_ns 42 -> 43"));
        assert_eq!(diff.warnings.len(), 1);
    }

    #[test]
    fn contention_drift_warns_but_never_fails() {
        let r = sample_report();
        let baseline = Json::Obj(vec![("benches".into(), Json::Arr(vec![r.to_json()]))]).render();
        let mut noisy = r.clone();
        noisy.series[0].stats.match_scan_steps = 500; // >2x scan steps
        let diff = compare_with_baseline(&noisy, &baseline);
        assert!(diff.errors.is_empty(), "{:?}", diff.errors);
        assert_eq!(diff.warnings.len(), 1);
        assert!(diff.warnings[0].contains("match_scan_steps"));
        // Small jitter stays silent.
        let mut jitter = r.clone();
        jitter.series[0].stats.uq_high_water = 4;
        jitter.series[0].stats.match_scan_steps = 150;
        jitter.series[0].stats.mailbox_locks = 300;
        let diff = compare_with_baseline(&jitter, &baseline);
        assert!(diff.warnings.is_empty(), "{:?}", diff.warnings);
    }

    #[test]
    fn sanitizer_counters_tolerate_pre_race_reports() {
        let r = sample_report();
        let text = r.to_json().render();
        assert!(text.contains("\"race_checks\": 13"));
        assert!(text.contains("\"conflicts_found\": 0"));
        // A report written before the sanitizer counters existed parses
        // with zeros, exactly like the contention triple.
        let legacy = text
            .replace(",\n        \"race_checks\": 13", "")
            .replace(",\n        \"conflicts_found\": 0", "");
        assert!(!legacy.contains("race_checks"), "replace missed: {legacy}");
        let back = BenchReport::from_json(&json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(back.series[0].stats.race_checks, 0);
        assert_eq!(back.series[0].stats.conflicts_found, 0);
    }

    #[test]
    fn nonzero_conflicts_fail_the_gate_even_with_matching_baseline() {
        let mut r = sample_report();
        r.series[0].stats.conflicts_found = 2;
        // Baseline blessed with the same racy counters: the gate must still
        // refuse — conflicts_found is an absolute invariant, not a diff.
        let baseline = Json::Obj(vec![("benches".into(), Json::Arr(vec![r.to_json()]))]).render();
        let diff = compare_with_baseline(&r, &baseline);
        assert_eq!(diff.errors.len(), 1, "{:?}", diff.errors);
        assert!(
            diff.errors[0].contains("race conflict"),
            "{:?}",
            diff.errors
        );
    }

    #[test]
    fn every_counter_round_trips_through_its_table_slot() {
        let n = RankStats::COUNTERS.len();
        let mut r = sample_report();
        r.series[0].stats = stats_of(&(1..=n).map(|i| 100 + i).collect::<Vec<_>>());
        let text = r.to_json().render();
        let parsed = json::parse(&text).unwrap();
        let back = BenchReport::from_json(&parsed).unwrap();
        assert_eq!(back.series[0].stats, r.series[0].stats);

        // Virtual counters appear only under "stats", in table order;
        // physical ones only in the one-line "contention" array.
        let series = &parsed.get("series").unwrap().as_arr().unwrap()[0];
        let Some(Json::Obj(fields)) = series.get("stats") else {
            panic!("stats is not an object: {text}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| &**k).collect();
        let virtuals: Vec<&str> = r.series[0]
            .stats
            .of_kind(CounterKind::Virtual)
            .map(|(c, _)| c.name)
            .collect();
        assert_eq!(keys, virtuals);
        let physical: Vec<String> = r.series[0]
            .stats
            .of_kind(CounterKind::Physical)
            .map(|(c, v)| {
                assert!(!text.contains(c.name), "{} leaked into {text}", c.name);
                v.to_string()
            })
            .collect();
        assert!(text.contains(&format!("\"contention\": [{}]", physical.join(", "))));

        // `--stats` prints every table name exactly once.
        let line = crate::render_stats("x", &r.series[0].stats);
        for c in RankStats::COUNTERS {
            assert_eq!(line.matches(&format!(" {}=", c.name)).count(), 1, "{line}");
        }

        // Dropping a counter from a baseline: the first reports' counters
        // are required, later rows read back as zero.
        for (i, (c, _)) in r.series[0].stats.of_kind(CounterKind::Virtual).enumerate() {
            let mut trimmed = parsed.clone();
            let Json::Arr(series) = field_mut(&mut trimmed, "series") else {
                unreachable!()
            };
            let Json::Obj(stats) = field_mut(&mut series[0], "stats") else {
                unreachable!()
            };
            stats.retain(|(k, _)| k != c.name);
            match BenchReport::from_json(&trimmed) {
                Ok(b) if i >= REQUIRED_STATS => {
                    let pairs = b.series[0].stats.values().zip(r.series[0].stats.values());
                    for ((d, got), (_, want)) in pairs {
                        assert_eq!(got, if d == c { 0 } else { want }, "{}", d.name);
                    }
                }
                Ok(_) => panic!("baseline without '{}' accepted", c.name),
                Err(e) if i < REQUIRED_STATS => assert!(e.contains(c.name), "{e}"),
                Err(e) => panic!("baseline without '{}' rejected: {e}", c.name),
            }
        }
    }

    #[test]
    fn baseline_missing_entry_is_error() {
        let r = sample_report();
        let baseline = r#"{"benches": []}"#;
        let diff = compare_with_baseline(&r, baseline);
        assert_eq!(diff.errors.len(), 1);
        assert!(diff.errors[0].contains("no baseline entry"));
    }
}
