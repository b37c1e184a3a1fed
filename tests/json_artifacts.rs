//! Every committed JSON artifact reads back through the workspace's one
//! JSON implementation, `netsim::json`, and re-renders byte-identically,
//! so reading and rewriting one never churns a committed file:
//!
//! - profiles, diffs, overlays and the bench baseline under
//!   `Json::render`;
//! - ledger lines under `Json::render_compact`;
//! - lint reports and certificates under their document's layout
//!   constant (`commlint::json::LAYOUT`, `commprove::cert::CERT_LAYOUT`),
//!   also where a daemon frame embeds them;
//! - daemon frames under `Json::render_line`.

use std::fs;
use std::path::{Path, PathBuf};

use commlint::json::LAYOUT;
use commprove::cert::CERT_LAYOUT;
use netsim::json::{self, Json, Layout};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn parse(path: &Path, text: &str) -> Json {
    json::parse(text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `*.json` files directly under `dir`, sorted.
fn json_files(dir: &str) -> Vec<PathBuf> {
    let dir = root().join(dir);
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("list {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no JSON artifacts in {}", dir.display());
    files
}

#[test]
fn every_committed_json_artifact_parses() {
    let dirs = [
        "tests/lint_fixtures/golden",
        "tests/prove_fixtures/golden",
        "tests/scope_golden",
        "tests/diff_golden",
        "tests/tune_golden",
        "tests/intd_golden/golden",
    ];
    for path in dirs.iter().flat_map(|d| json_files(d)) {
        parse(&path, &read(&path));
    }
    let baseline = root().join("results/BENCH_runtime.json");
    parse(&baseline, &read(&baseline));
    let ledger = root().join("results/LEDGER.jsonl");
    for line in read(&ledger).lines() {
        parse(&ledger, line);
    }
}

#[test]
fn rendered_artifacts_re_render_byte_identically() {
    let rendered = [
        "tests/scope_golden/fig3.profile.json",
        "tests/scope_golden/fig4.profile.json",
        "tests/scope_golden/fig5.profile.json",
        "tests/diff_golden/base.profile.json",
        "tests/diff_golden/cand.profile.json",
        "tests/diff_golden/diff.json",
        "tests/tune_golden/fig4.overlay.json",
        "results/BENCH_runtime.json",
    ];
    for rel in rendered {
        let path = root().join(rel);
        let text = read(&path);
        let body = text.strip_suffix('\n').unwrap_or(&text);
        assert!(
            parse(&path, &text).render() == body,
            "{rel}: re-render differs from the committed bytes"
        );
    }
    // A laid-out document ends in a newline; a frame does not.
    let re_renders = |path: &Path, text: &str, layout: &Layout| {
        let body = text
            .strip_suffix('\n')
            .unwrap_or_else(|| panic!("{}: document without a trailing newline", path.display()));
        assert!(
            parse(path, text).render_with(layout) == body,
            "{}: re-render under its layout differs from the committed bytes",
            path.display()
        );
    };
    for path in json_files("tests/lint_fixtures/golden") {
        re_renders(&path, &read(&path), &LAYOUT);
    }
    re_renders(
        Path::new("empty report"),
        &commlint::json::render_json(&[]),
        &LAYOUT,
    );
    for path in json_files("tests/prove_fixtures/golden") {
        re_renders(&path, &read(&path), &CERT_LAYOUT);
    }
    let mut embedded = 0;
    for path in json_files("tests/intd_golden/golden") {
        let text = read(&path);
        let frame = parse(&path, &text);
        assert!(
            frame.render_line() == text,
            "{}: frame re-render differs from the committed bytes",
            path.display()
        );
        for (key, layout) in [("report", &LAYOUT), ("cert", &CERT_LAYOUT)] {
            if let Some(doc) = frame.get(key).and_then(Json::as_str) {
                re_renders(&path, doc, layout);
                embedded += 1;
            }
        }
    }
    assert!(embedded >= 3, "only {embedded} embedded documents found");

    let ledger = root().join("results/LEDGER.jsonl");
    let text = read(&ledger);
    assert!(text.lines().count() > 0, "empty ledger");
    for (i, line) in text.lines().enumerate() {
        assert_eq!(
            parse(&ledger, line).render_compact(),
            line,
            "LEDGER.jsonl line {}",
            i + 1
        );
    }
}
