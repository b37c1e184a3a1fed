//! Cross-link between static analysis and dynamic observability: commlint
//! diagnostics, the pragma front-end's per-directive reports, and runtime
//! trace spans all carry the same `SiteId` namespace, so a lint finding
//! joins directly to the profile rows of the directive it flagged.

use std::collections::BTreeSet;

use commint::prelude::*;
use commlint::{json::render_json, lint_source, scan_annotations, LintOptions};
use integration::with_world_session_observed;
use pragma_front::{parse, Item, SymbolTable};

/// The CI006 fixture: a two-p2p ring region whose sync consolidation would
/// be unsafe (`b` is written by site 1 and read by site 2). It lints with a
/// site-carrying warning *and* executes fine under per-call sync placement,
/// which makes it the ideal join witness.
const SRC: &str = include_str!("lint_fixtures/ci006_consolidation.comm");

fn symbols() -> SymbolTable {
    let mut s = SymbolTable::new();
    commlint::apply_decls(&mut s, &scan_annotations(SRC));
    s
}

#[test]
fn lint_sites_join_runtime_trace_sites() {
    // Static side: the lint report attaches the finding to a site, and the
    // JSON rendering exposes it for external joins.
    let report = lint_source(SRC, &symbols(), &LintOptions::default()).expect("fixture parses");
    let diag = report
        .diags
        .iter()
        .find(|d| d.code.code() == "CI006")
        .expect("fixture trips CI006");
    let lint_site = diag.site.expect("CI006 carries the conflicting p2p site");
    let json = render_json(&[("ci006_consolidation.comm".to_string(), report.clone())]);
    assert!(
        json.contains(&format!("\"site\": {lint_site}")),
        "lint JSON does not expose the site id:\n{json}"
    );

    // The front-end assigns directive sites ordinally; collect them.
    let parsed = parse(SRC, &symbols()).expect("fixture parses");
    let Item::Region(region) = &parsed.items[0] else {
        panic!("expected a region");
    };
    let static_sites: BTreeSet<u32> = region.body.iter().map(|p| p.site).collect();
    assert!(
        static_sites.contains(&lint_site),
        "lint site is a directive site"
    );

    // Dynamic side: execute the same parsed program with tracing on,
    // tagging each call with its parsed site (the pragmacc-generated code
    // does the same), and join the namespaces through the trace.
    let region = region.clone();
    let res = with_world_session_observed(4, move |s| {
        let me = s.rank() as f64;
        let a = [me; 8];
        let mut b = [0f64; 8];
        let mut c = [0f64; 8];
        let mut params = CommParams::new();
        params.clauses = region.clauses.clone();
        s.region(&params, |reg| {
            reg.p2p()
                .site(region.body[0].site)
                .sbuf(Prim::new("a", &a))
                .rbuf(PrimMut::new("b", &mut b))
                .run()
                .unwrap();
            reg.p2p()
                .site(region.body[1].site)
                .sbuf(Prim::new("b", &b))
                .rbuf(PrimMut::new("c", &mut c))
                .run()
                .unwrap();
        })
        .unwrap();
        (b[0], c[0])
    });

    let trace = res.trace.expect("trace enabled");
    let runtime_sites: BTreeSet<u32> = trace.iter().filter_map(|e| e.site).collect();
    assert_eq!(
        runtime_sites, static_sites,
        "runtime trace sites must be exactly the front-end's directive sites"
    );

    // The flagged directive produced site-attributed metrics rows too.
    let metrics = netsim::RankMetrics::from_trace(&trace, res.per_rank.len());
    assert!(
        metrics
            .iter()
            .any(|m| m.sites.iter().any(|sm| sm.site == lint_site)),
        "no metrics attributed to the linted site {lint_site}"
    );

    // And the program really ran: a ring shift of `a` into `b`, then of the
    // received `b` into `c`.
    let n = res.per_rank.len() as f64;
    for (rank, &(b0, c0)) in res.per_rank.iter().enumerate() {
        let left = (rank as f64 + n - 1.0) % n;
        assert_eq!(b0, left, "rank {rank}: b holds the left neighbour's a");
        let _ = c0;
    }
}
