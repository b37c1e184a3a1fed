//! Golden-file tests for the commdiff exporter: a deterministic synthetic
//! baseline/candidate profile pair (matched, added, removed, and
//! unattributed sites all present) produces byte-stable diff JSON and text
//! reports. The input profiles are golden-checked too, so a profile-schema
//! drift shows up here before it silently re-blesses the diff.
//!
//! Regenerate after an intentional output change with
//! `BLESS=1 cargo test -p integration --test commdiff_golden`.

use std::path::PathBuf;

use commscope::{
    analyze, diff_is_zero, diff_profiles, profile_json, render_diff_text, validate_diff,
    validate_profile,
};
use netsim::json::Json;
use netsim::{EventKind, RankMetrics, Time, TraceEvent};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/diff_golden")
}

fn check_golden(name: &str, text: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read golden {name}: {e} (run with BLESS=1 to create)"));
    assert_eq!(
        text, want,
        "{name}: output drifted from golden (run with BLESS=1 after intentional changes)"
    );
}

fn quiet(rank: usize, site: Option<u32>, start: u64, end: u64) -> TraceEvent {
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

fn send(site: Option<u32>, bytes: usize) -> TraceEvent {
    TraceEvent {
        rank: 0,
        time: Time(0),
        start: Time(0),
        site,
        kind: EventKind::SendPost {
            dst: 0,
            tag: 0,
            bytes,
        },
    }
}

/// Rank 0's metrics, folded from `n` sends of `bytes` at each `site`.
fn metrics(sends: &[(u32, u64, usize)]) -> Vec<RankMetrics> {
    let mut evs: Vec<TraceEvent> = sends
        .iter()
        .flat_map(|&(site, n, bytes)| (0..n).map(move |_| send(Some(site), bytes)))
        .collect();
    // One send outside any directive site: lands on the diff's
    // unattributed pseudo-site via the traffic remainder.
    evs.push(send(None, 8));
    RankMetrics::from_trace(&evs, 1)
}

/// Baseline: wait on sites 1 and 2 plus an unattributed tail.
fn baseline() -> Json {
    let evs = vec![
        quiet(0, Some(1), 10, 50),
        quiet(0, Some(2), 60, 90),
        quiet(0, None, 95, 100),
    ];
    let a = analyze(&evs, 1, &[Time(100)]);
    profile_json(
        "diff-golden-base",
        &[("case".into(), 1)],
        &a,
        &metrics(&[(1, 3, 64), (2, 1, 128)]),
    )
}

/// Candidate: site 1 got faster, site 2 disappeared, site 3 appeared.
fn candidate() -> Json {
    let evs = vec![
        quiet(0, Some(1), 10, 40),
        quiet(0, Some(3), 50, 70),
        quiet(0, None, 75, 95),
    ];
    let a = analyze(&evs, 1, &[Time(95)]);
    profile_json(
        "diff-golden-cand",
        &[("case".into(), 2)],
        &a,
        &metrics(&[(1, 2, 64), (3, 2, 32)]),
    )
}

#[test]
fn diff_outputs_match_goldens() {
    let base = baseline();
    let cand = candidate();
    for (name, doc) in [("base", &base), ("cand", &cand)] {
        let problems = validate_profile(doc);
        assert!(problems.is_empty(), "{name} profile invalid: {problems:?}");
    }
    check_golden("base.profile.json", &base.render());
    check_golden("cand.profile.json", &cand.render());

    let diff = diff_profiles(&base, &cand).expect("diff fixtures");
    let problems = validate_diff(&diff);
    assert!(problems.is_empty(), "diff invalid: {problems:?}");
    assert!(!diff_is_zero(&diff));

    // The fixture pair exercises every join status.
    let status_of = |site: i64| -> String {
        diff.get("sites")
            .and_then(Json::as_arr)
            .and_then(|rows| {
                rows.iter()
                    .find(|r| r.get("site").and_then(Json::as_i64) == Some(site))
            })
            .and_then(|r| r.get("status"))
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_string()
    };
    assert_eq!(status_of(1), "matched");
    assert_eq!(status_of(2), "removed");
    assert_eq!(status_of(3), "added");
    assert_eq!(status_of(commscope::UNATTRIBUTED_SITE), "matched");

    check_golden("diff.json", &diff.render());
    check_golden("diff.txt", &render_diff_text(&diff));
}

#[test]
fn self_diff_of_fixture_is_zero() {
    let base = baseline();
    let d = diff_profiles(&base, &base).expect("self-diff");
    assert!(validate_diff(&d).is_empty());
    assert!(diff_is_zero(&d));
}
