//! Golden-file tests for the commscope exporters: the Chrome trace and the
//! profile JSON for each figure workload match the committed goldens
//! byte-for-byte, and both artifacts are byte-identical at any carrier
//! count (one per rank, one, and auto) — the exports are pure functions of
//! virtual time.
//!
//! Regenerate goldens after an intentional output change with
//! `BLESS=1 cargo test -p integration --test commscope_golden`.

use std::path::PathBuf;

use commscope::{analyze, chrome_trace, profile_json, validate_profile};
use netsim::json::{self, Json};
use netsim::ExecPolicy;
use wl_lsms::{
    fig3_single_atom_observed, fig4_spin_observed, fig5_overlap_observed, AtomCommVariant,
    AtomSizes, CoreStateParams, Observed, SpinVariant, Topology,
};

const STEPS: usize = 2;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/scope_golden")
}

/// A small off-sweep topology (2 instances x 4 ranks + WL master = 9 ranks)
/// keeps the goldens a few kilobytes while exercising every event kind.
fn topo() -> Topology {
    Topology::new(2, 4)
}

fn observe(fig: &str, exec: ExecPolicy) -> Observed {
    match fig {
        "fig3" => fig3_single_atom_observed(
            &topo(),
            AtomCommVariant::DirectiveMpi2,
            AtomSizes::default(),
            exec,
        ),
        "fig4" => fig4_spin_observed(&topo(), SpinVariant::DirectiveMpi2, STEPS, exec),
        "fig5" => fig5_overlap_observed(
            &topo(),
            true,
            CoreStateParams::default().gpu(),
            AtomSizes::default(),
            STEPS,
            exec,
        ),
        other => panic!("unknown figure {other}"),
    }
}

/// Render both exports for one engine; the profile must self-validate.
fn exports(fig: &str, exec: ExecPolicy) -> (String, String) {
    let obs = observe(fig, exec);
    let nranks = obs.final_times.len();
    let trace = chrome_trace(&obs.trace, nranks);
    let analysis = analyze(&obs.trace, nranks, &obs.final_times);
    let doc = profile_json(
        fig,
        &[("steps".to_string(), STEPS as i64)],
        &analysis,
        &obs.metrics,
    );
    let problems = validate_profile(&doc);
    assert!(problems.is_empty(), "{fig}: invalid profile: {problems:?}");
    (trace, doc.render())
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
        "{name}: export drifted from golden (run with BLESS=1 after intentional changes)"
    );
}

fn check_figure(fig: &str) {
    let (trace, profile) = exports(fig, ExecPolicy::bounded(topo().total_ranks()));

    // The Chrome trace is well-formed JSON with a traceEvents array.
    let doc = json::parse(&trace).unwrap_or_else(|e| panic!("{fig}: trace unparsable: {e}"));
    assert!(
        doc.get("traceEvents").and_then(Json::as_arr).is_some(),
        "{fig}: no traceEvents array"
    );

    // Engine invariance: one carrier and the auto count must reproduce the
    // one-carrier-per-rank exports byte-for-byte.
    for workers in [1usize, 0] {
        let (t, p) = exports(fig, ExecPolicy::bounded(workers));
        assert_eq!(trace, t, "{fig}: trace differs under bounded({workers})");
        assert_eq!(
            profile, p,
            "{fig}: profile differs under bounded({workers})"
        );
    }

    check_golden(&format!("{fig}.trace.json"), &trace);
    check_golden(&format!("{fig}.profile.json"), &profile);
}

#[test]
fn fig3_exports_match_golden_and_engines_agree() {
    check_figure("fig3");
}

#[test]
fn fig4_exports_match_golden_and_engines_agree() {
    check_figure("fig4");
}

#[test]
fn fig5_exports_match_golden_and_engines_agree() {
    check_figure("fig5");
}
