//! Property tests for the `commintd` incremental engine: under random
//! edit sequences the daemon's responses must stay byte-identical to the
//! batch CLIs, touching one region must never invalidate disjoint
//! regions, and concurrent clients sharing one engine must all receive
//! the same artifacts.
//!
//! Each property runs `PROPTEST_CASES` cases when it is set (CI runs
//! 128), and 16 otherwise.

use std::sync::Arc;

use commintd::Engine;
use commlint::json::render_json;
use commlint::{lint_source, LintOptions};
use commprove::prove_source;
use pragma_front::SymbolTable;
use proptest::prelude::*;

/// Number of buffers declared in every generated spec.
const BUFS: usize = 4;

/// Render a spec with one region per entry of `counts`. Region `i` is
/// structurally distinct from every other region regardless of the count
/// values (different shift, different buffer pairing), so two regions
/// never collide on a structural hash and `dirty` assertions are exact.
/// Region `i`'s `comm_p2p` is indented by `indents[i]` extra spaces (none
/// past the slice's end), which moves its column and no hash.
fn spec_src(counts: &[u32], indents: &[usize], fmt_lines: usize) -> String {
    let mut src = String::new();
    for _ in 0..fmt_lines {
        src.push_str("// formatting-only touch\n");
    }
    for b in 0..BUFS {
        src.push_str(&format!("// @decl b{b}: double[64]\n"));
    }
    src.push_str("// @ranks 2..=10\n");
    for (i, c) in counts.iter().enumerate() {
        let shift = i + 1;
        let sbuf = i % BUFS;
        let rbuf = (i + 1) % BUFS;
        let pad = " ".repeat(2 + indents.get(i).copied().unwrap_or(0));
        src.push_str(&format!(
            "#pragma comm_parameters sender((rank-{shift}+nprocs)%nprocs) \
             receiver((rank+{shift})%nprocs)\n{{\n{pad}#pragma comm_p2p \
             sbuf(b{sbuf}) rbuf(b{rbuf}) count({c})\n  {{ }}\n}}\n"
        ));
    }
    src
}

fn batch_lint_json(file: &str, src: &str) -> String {
    let report = lint_source(src, &SymbolTable::new(), &LintOptions::default()).expect("lints");
    render_json(&[(file.to_string(), report)])
}

fn batch_prove(file: &str, src: &str) -> (String, String) {
    let rep =
        prove_source(file, src, &SymbolTable::new(), &LintOptions::default()).expect("proves");
    (
        render_json(&[(file.to_string(), rep.report.clone())]),
        rep.certificate.to_json(),
    )
}

/// One step of an edit sequence.
#[derive(Clone, Debug)]
enum Edit {
    /// Change region `k`'s count clause (a semantic, single-region edit).
    Count(usize, u32),
    /// Prepend a comment line (formatting-only; every hash survives).
    Fmt,
    /// Indent region `k`'s `comm_p2p` one more space: only that site's
    /// column moves, so only its certificate fragment is rendered again.
    Indent(usize),
}

fn edits(regions: usize) -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec(
        prop_oneof![
            (0..regions, 1u32..=64).prop_map(|(k, c)| Edit::Count(k, c)),
            (0..regions, 1u32..=64).prop_map(|(k, c)| Edit::Count(k, c)),
            (0..regions, 1u32..=64).prop_map(|(k, c)| Edit::Count(k, c)),
            Just(Edit::Fmt),
            (0..regions).prop_map(Edit::Indent),
        ],
        1..=5,
    )
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// After every step of a random edit sequence, warm daemon output ==
    /// cold batch output, for both verbs, byte for byte.
    #[test]
    fn random_edit_sequences_stay_byte_identical(
        mut counts in proptest::collection::vec(1u32..=64, 2..=4),
        seq in edits(4),
    ) {
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        let mut fmt_lines = 0usize;
        let mut indents = vec![0usize; counts.len()];
        let check = |counts: &[u32], indents: &[usize], fmt_lines: usize| {
            let src = spec_src(counts, indents, fmt_lines);
            let a = engine.analyze("p.comm", &src).unwrap();
            prop_assert_eq!(&a.report_json, &batch_lint_json("p.comm", &src));
            let p = engine.prove("p.comm", &src).unwrap();
            let (want_report, want_cert) = batch_prove("p.comm", &src);
            prop_assert_eq!(&p.report_json, &want_report);
            prop_assert_eq!(&p.cert_json, &want_cert);
            Ok(())
        };
        check(&counts, &indents, fmt_lines)?;
        for e in seq {
            match e {
                Edit::Count(k, c) => {
                    let k = k % counts.len();
                    counts[k] = c;
                }
                Edit::Fmt => fmt_lines += 1,
                Edit::Indent(k) => indents[k % counts.len()] += 1,
            }
            check(&counts, &indents, fmt_lines)?;
        }
    }

    /// A count edit to region `k` dirties exactly `{k}`: every disjoint
    /// region's artifacts are reused, never invalidated.
    #[test]
    fn touching_one_region_never_invalidates_disjoint_regions(
        mut counts in proptest::collection::vec(1u32..=64, 2..=4),
        k in 0usize..4,
        new_count in 1u32..=64,
    ) {
        let k = k % counts.len();
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        engine.analyze("p.comm", &spec_src(&counts, &[], 0)).unwrap();
        // Force a real change: a replay of identical bytes dirties nothing.
        counts[k] = if new_count == counts[k] {
            (new_count % 64) + 1
        } else {
            new_count
        };
        let warm = engine.analyze("p.comm", &spec_src(&counts, &[], 0)).unwrap();
        prop_assert_eq!(&warm.dirty, &vec![k]);
        prop_assert_eq!(warm.reused, counts.len() - 1);
        prop_assert!(warm.evicted > 0, "the superseded cohort must be evicted");
        // And a formatting-only touch after the edit dirties nothing at all.
        let touched = engine.analyze("p.comm", &spec_src(&counts, &[], 1)).unwrap();
        prop_assert!(touched.dirty.is_empty());
        prop_assert_eq!(touched.reused, counts.len());
    }

    /// Concurrent clients racing both verbs against one engine all get
    /// responses byte-identical to the batch CLIs — the single-flight
    /// store never hands out a partially built or divergent artifact.
    #[test]
    fn concurrent_clients_get_identical_artifacts(
        counts in proptest::collection::vec(1u32..=64, 2..=3),
    ) {
        let src = spec_src(&counts, &[], 0);
        let want_lint = batch_lint_json("p.comm", &src);
        let (want_report, want_cert) = batch_prove("p.comm", &src);
        let engine = Arc::new(Engine::new(
            SymbolTable::new(),
            LintOptions::default(),
            None,
        ));
        let outcomes: Vec<(String, String, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    let src = src.clone();
                    scope.spawn(move || {
                        let a = engine.analyze("p.comm", &src).unwrap();
                        let p = engine.prove("p.comm", &src).unwrap();
                        (a.report_json, p.report_json, p.cert_json)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (lint, report, cert) in &outcomes {
            prop_assert_eq!(lint, &want_lint);
            prop_assert_eq!(report, &want_report);
            prop_assert_eq!(cert, &want_cert);
        }
    }
}
