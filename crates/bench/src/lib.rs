//! Shared helpers for the figure-regeneration binaries and benches.

pub mod json;
pub mod ledger;

pub use json::{compare_with_baseline, BaselineDiff, BenchReport, SeriesReport};

use netsim::json::Json;
use netsim::{RankStats, Time};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parse `--name N` style integer flags.
pub fn arg_usize(args: &[String], name: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Parse `--name VALUE` style string flags.
pub fn arg_str<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Print a report as JSON on stdout and, when a baseline path is given,
/// gate against it: exact mismatches (virtual times, counters, axes) return
/// exit code 3, wall-time regressions only warn on stderr. Returns the
/// process exit code.
pub fn emit_json_report(report: &BenchReport, baseline_path: Option<&str>) -> i32 {
    println!("{}", report.to_json().render());
    let Some(path) = baseline_path else { return 0 };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[baseline] cannot read {path}: {e}");
            return 3;
        }
    };
    let diff = compare_with_baseline(report, &text);
    for w in &diff.warnings {
        eprintln!("[baseline] warning: {w}");
    }
    for e in &diff.errors {
        eprintln!("[baseline] MISMATCH: {e}");
    }
    if diff.errors.is_empty() {
        eprintln!("[baseline] ok: matches {path}");
        0
    } else {
        3
    }
}

/// Where a figure binary writes the observability exports of its
/// observed run: `--trace-out` (Perfetto-loadable Chrome trace),
/// `--profile` (commscope profile JSON) and `--folded` (flamegraph folded
/// stacks).
pub struct Exports<'a> {
    pub trace_out: Option<&'a str>,
    pub profile: Option<&'a str>,
    pub folded: Option<&'a str>,
}

impl<'a> Exports<'a> {
    /// Read the three export flags.
    pub fn from_args(args: &'a [String]) -> Self {
        Exports {
            trace_out: arg_str(args, "--trace-out"),
            profile: arg_str(args, "--profile"),
            folded: arg_str(args, "--folded"),
        }
    }

    /// Whether any export was asked for (the observed run is only worth
    /// running then).
    pub fn any(&self) -> bool {
        self.trace_out.is_some() || self.profile.is_some() || self.folded.is_some()
    }
}

/// Write the requested observability exports for one observed run and
/// print its wait-state summary to stderr (stdout stays the figure's
/// table). Every export is a pure function of virtual time, byte-identical
/// across engines and `--jobs` widths. The trace is re-parsed and the
/// profile schema-validated (including blame summing to wait); a problem
/// is reported on stderr and exits the process with code 3 once every
/// file is written. `tuning` is the overlay provenance document when the
/// observed run was executed under a tuning overlay (recorded in the
/// profile), `None` for untuned runs.
pub fn emit_observability(
    workload: &str,
    args: &[(String, i64)],
    obs: &wl_lsms::Observed,
    out: &Exports,
    tuning: Option<&Json>,
) {
    let nranks = obs.final_times.len();
    let analysis = commscope::analyze(&obs.trace, nranks, &obs.final_times);
    for line in analysis.summary().lines() {
        eprintln!("  [scope] {line}");
    }
    let mut problems = Vec::new();
    if let Some(path) = out.trace_out {
        let text = commscope::chrome_trace(&obs.trace, nranks);
        match netsim::json::parse(&text) {
            Ok(doc) if doc.get("traceEvents").and_then(Json::as_arr).is_some() => {}
            Ok(_) => problems.push("trace: no traceEvents array".to_string()),
            Err(e) => problems.push(format!("trace: {e}")),
        }
        std::fs::write(path, &text).expect("write --trace-out file");
        eprintln!("  [trace] wrote {path} ({} bytes)", text.len());
    }
    if let Some(path) = out.profile {
        let doc = commscope::profile_json_tuned(workload, args, &analysis, &obs.metrics, tuning);
        problems.extend(
            commscope::validate_profile(&doc)
                .into_iter()
                .map(|p| format!("profile: {p}")),
        );
        let text = doc.render();
        std::fs::write(path, &text).expect("write --profile file");
        eprintln!("  [profile] wrote {path} ({} bytes)", text.len());
    }
    if let Some(path) = out.folded {
        let text = commscope::folded_stacks(&obs.trace);
        std::fs::write(path, &text).expect("write --folded file");
        eprintln!("  [folded] wrote {path} ({} stacks)", text.lines().count());
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("  [check] {p}");
        }
        eprintln!("  [check] {} problem(s)", problems.len());
        std::process::exit(3);
    }
}

/// Run `f` over every item on a bounded worker pool and return the results
/// in input order.
///
/// Each figure point is an independent virtual-time simulation whose result
/// depends only on virtual quantities, so fanning points out across OS
/// threads changes wall-clock time but never the measured times: the output
/// is bit-identical to the sequential loop. Workers claim indices from a
/// shared counter (no per-worker stripes, so a slow point does not stall
/// the pool) and write into a per-index slot, which keeps collection
/// deterministic regardless of completion order.
pub fn sweep<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = f(&items[i]);
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("sweep worker panicked"))
        .collect()
}

/// Worker-pool width for the figure binaries: the host's available
/// parallelism unless overridden by `--jobs`.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Render merged [`RankStats`] as one `# `-prefixed comment line for the
/// figure binaries' `--stats` flag: every counter, in table order.
pub fn render_stats(label: &str, stats: &RankStats) -> String {
    let mut line = format!("# stats[{label}]");
    for (c, v) in stats.values() {
        let _ = write!(line, " {}={v}", c.name);
    }
    line
}

/// Render one figure series as an aligned table.
pub struct SeriesTable {
    /// x-axis values (number of processes).
    pub xs: Vec<usize>,
    /// (label, per-x virtual times) series.
    pub series: Vec<(String, Vec<Time>)>,
}

impl SeriesTable {
    /// New empty table over an x-axis.
    pub fn new(xs: Vec<usize>) -> Self {
        SeriesTable {
            xs,
            series: Vec::new(),
        }
    }

    /// Append a series (must match the x-axis length).
    pub fn push(&mut self, label: impl Into<String>, times: Vec<Time>) {
        assert_eq!(times.len(), self.xs.len(), "series length mismatch");
        self.series.push((label.into(), times));
    }

    /// Render with times in seconds, paper-style.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {title}\n"));
        out.push_str(&format!("{:>10}", "procs"));
        for (label, _) in &self.series {
            out.push_str(&format!("  {label:>42}"));
        }
        out.push('\n');
        for (i, &x) in self.xs.iter().enumerate() {
            out.push_str(&format!("{x:>10}"));
            for (_, times) in &self.series {
                out.push_str(&format!("  {:>42.9}", times[i].as_secs_f64()));
            }
            out.push('\n');
        }
        out
    }

    /// Average speedup of series `base` over series `other` across x.
    pub fn avg_speedup(&self, base: usize, other: usize) -> f64 {
        let b = &self.series[base].1;
        let o = &self.series[other].1;
        let mut acc = 0.0;
        for i in 0..self.xs.len() {
            acc += b[i].as_nanos() as f64 / o[i].as_nanos() as f64;
        }
        acc / self.xs.len() as f64
    }
}

/// The paper's process-count sweep (1 + 16·M, M = 2..=21), optionally
/// thinned for quick runs.
pub fn paper_ms(stride: usize) -> Vec<usize> {
    (2..=21).step_by(stride.max(1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_speedups() {
        let mut t = SeriesTable::new(vec![33, 49]);
        t.push("a", vec![Time::from_micros(100), Time::from_micros(200)]);
        t.push("b", vec![Time::from_micros(25), Time::from_micros(50)]);
        let text = t.render("demo");
        assert!(text.contains("procs"));
        assert!(text.contains("33"));
        assert!((t.avg_speedup(0, 1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_thinning() {
        assert_eq!(paper_ms(1).len(), 20);
        let thin = paper_ms(5);
        assert_eq!(thin, vec![2, 7, 12, 17]);
    }
}
