//! `commscope` — compare profiles and read the run history.
//!
//! Usage:
//!   commscope diff <baseline.json> <candidate.json>
//!             [--json-out FILE] [--text-out FILE] [--check] [--expect-zero]
//!   commscope trend <LEDGER.jsonl> [--last K] [--tolerance PCT] [--check]
//!
//! `diff` joins two profile JSONs on the SiteId namespace and reports
//! per-site deltas with exact accounting (see [`commscope::diff`]);
//! `--expect-zero` makes a nonzero diff fail (the identical-run CI gate).
//! `trend` renders the run-history trajectory from the bench ledger and
//! flags regressions against the mean of the last K prior entries.
//!
//! Profiles come from the figure binaries (`fig3|fig4|fig5 --profile`),
//! which also write the Chrome trace and folded stacks.

use commscope::{
    diff_is_zero, diff_profiles, parse_ledger, render_diff_text, render_trend_text, trend,
    validate_diff,
};
use netsim::json::{self, Json};

fn arg_usize(args: &[String], name: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn arg_str<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage() -> ! {
    eprintln!(
        "usage: commscope diff <baseline.json> <candidate.json>\n\
         \x20                [--json-out FILE] [--text-out FILE] [--check] [--expect-zero]\n\
         \x20      commscope trend <LEDGER.jsonl> [--last K] [--tolerance PCT] [--check]"
    );
    std::process::exit(2);
}

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: invalid JSON: {e}");
        std::process::exit(2);
    })
}

/// `commscope diff <baseline.json> <candidate.json>`: returns the exit code.
fn cmd_diff(args: &[String]) -> i32 {
    let (Some(base_path), Some(cand_path)) = (args.get(2), args.get(3)) else {
        usage();
    };
    if base_path.starts_with("--") || cand_path.starts_with("--") {
        usage();
    }
    let baseline = read_json(base_path);
    let candidate = read_json(cand_path);
    let doc = match diff_profiles(&baseline, &candidate) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("diff failed: {e}");
            return 2;
        }
    };
    let text = render_diff_text(&doc);
    print!("{text}");
    if let Some(path) = arg_str(args, "--json-out") {
        std::fs::write(path, doc.render()).expect("write --json-out file");
        eprintln!("[diff] wrote {path}");
    }
    if let Some(path) = arg_str(args, "--text-out") {
        std::fs::write(path, &text).expect("write --text-out file");
        eprintln!("[diff] wrote {path}");
    }
    let mut failures = 0;
    if args.iter().any(|a| a == "--check") {
        let problems = validate_diff(&doc);
        for p in &problems {
            eprintln!("[check] diff: {p}");
        }
        failures += problems.len();
    }
    if args.iter().any(|a| a == "--expect-zero") && !diff_is_zero(&doc) {
        eprintln!("[check] diff is not zero (expected identical runs)");
        failures += 1;
    }
    if failures > 0 {
        eprintln!("[check] {failures} problem(s)");
        3
    } else {
        0
    }
}

/// `commscope trend <LEDGER.jsonl>`: returns the exit code.
fn cmd_trend(args: &[String]) -> i32 {
    let Some(path) = args.get(2).filter(|p| !p.starts_with("--")) else {
        usage();
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let entries = match parse_ledger(&text) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 2;
        }
    };
    let last_k = arg_usize(args, "--last").unwrap_or(5);
    let tolerance = arg_str(args, "--tolerance")
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(10.0);
    let trends = trend(&entries, last_k, tolerance);
    print!("{}", render_trend_text(&trends, last_k, tolerance));
    if args.iter().any(|a| a == "--check") && trends.iter().any(|t| t.regressed) {
        return 3;
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("diff") => std::process::exit(cmd_diff(&args)),
        Some("trend") => std::process::exit(cmd_trend(&args)),
        _ => usage(),
    }
}
