//! # pragma-front — source-level front-end for the commint directives
//!
//! Parses the paper's literal directive syntax (`#pragma comm_parameters`,
//! `#pragma comm_p2p`, Listings 1–3/5/7 of the paper) into the `commint`
//! IR, runs the compiler-style analyses over it, and renders the translated
//! library calls per target — the role the Open64 lowering pass plays in
//! the paper.
//!
//! ```
//! use pragma_front::{analyze, SymbolTable};
//! use mpisim::dtype::BasicType;
//!
//! let mut syms = SymbolTable::new();
//! syms.declare_prim("buf1", BasicType::F64, 16)
//!     .declare_prim("buf2", BasicType::F64, 16);
//! let report = analyze(
//!     "#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) \
//!      sbuf(buf1) rbuf(buf2)",
//!     &syms,
//!     8,
//! )
//! .unwrap();
//! assert!(report.render().contains("cyclic shift by 1"));
//! ```

pub mod lex;
pub mod parse;

use std::collections::HashMap;

use commint::analysis::{buffer_independence, classify, resolve_graph, sync_report, Pattern};
use commint::clause::{Diagnostic, Target};
use commint::dir::ParamsSpec;
use commint::lower::lower;

pub use parse::{parse, Item, ParseError, Parsed, SymbolTable};

/// Analysis results for one `comm_p2p` instance.
#[derive(Clone, Debug)]
pub struct P2pReport {
    /// Rendered source location hint (site id). This is the same
    /// `netsim::SiteId` namespace carried on runtime trace events and
    /// metrics (and on `commlint` report JSON), so static findings and
    /// dynamic profiles for a directive join on this value.
    pub site: u32,
    /// Classified pattern at the requested rank count.
    pub pattern: Pattern,
    /// Unmatched sends/receives (statically detected mismatches).
    pub unmatched_sends: usize,
    pub unmatched_recvs: usize,
    /// Ranks unresolvable without executing (opaque/unknown vars).
    pub unresolved_ranks: usize,
    /// The generated code is structurally deadlock-free.
    pub nonblocking_safe: bool,
}

/// Whole-source analysis report.
#[derive(Clone, Debug)]
pub struct Report {
    /// Parse/validation diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-region: p2p reports plus consolidation info.
    pub regions: Vec<RegionReport>,
    /// Collective-directive reports.
    pub collectives: Vec<CollReport>,
}

/// Analysis of one collective directive.
#[derive(Clone, Debug)]
pub struct CollReport {
    /// Kind keyword.
    pub kind: String,
    /// Resolved participant count at the analyzed rank count.
    pub group_size: usize,
    /// Total payload bytes moved per execution (sum over participants).
    pub volume_bytes: usize,
}

/// Per-region analysis.
#[derive(Clone, Debug)]
pub struct RegionReport {
    /// Per-instance analyses.
    pub p2ps: Vec<P2pReport>,
    /// Whether buffers across the region's p2ps are independent (sync
    /// consolidation legal).
    pub buffers_independent: bool,
    /// Wait calls a per-request translation would make on the busiest rank.
    pub naive_wait_calls: usize,
    /// Calls after consolidation.
    pub consolidated_calls: usize,
}

impl Report {
    /// Render a human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        for (i, r) in self.regions.iter().enumerate() {
            out.push_str(&format!("region #{i}:\n"));
            out.push_str(&format!(
                "  buffers independent: {} (sync consolidation {})\n",
                r.buffers_independent,
                if r.buffers_independent {
                    "legal"
                } else {
                    "suppressed"
                }
            ));
            out.push_str(&format!(
                "  sync calls: {} naive -> {} consolidated\n",
                r.naive_wait_calls, r.consolidated_calls
            ));
            for p in &r.p2ps {
                out.push_str(&format!(
                    "  p2p site {}: pattern = {}, unmatched sends/recvs = {}/{}, unresolved ranks = {}, nonblocking-safe = {}\n",
                    p.site,
                    render_pattern(p.pattern),
                    p.unmatched_sends,
                    p.unmatched_recvs,
                    p.unresolved_ranks,
                    p.nonblocking_safe,
                ));
            }
        }
        for c in &self.collectives {
            out.push_str(&format!(
                "collective {}: group of {}, {} bytes per execution\n",
                c.kind, c.group_size, c.volume_bytes
            ));
        }
        out
    }
}

fn render_pattern(p: Pattern) -> String {
    match p {
        Pattern::Empty => "empty".to_string(),
        Pattern::CyclicShift { k } => format!("cyclic shift by {k} (ring)"),
        Pattern::LinearShift { k } => format!("linear shift by {k}"),
        Pattern::DisjointPairs => "disjoint sender/receiver pairs".to_string(),
        Pattern::FanOut { root } => format!("fan-out from rank {root}"),
        Pattern::FanIn { root } => format!("fan-in to rank {root}"),
        Pattern::Exchange => "pairwise exchange".to_string(),
        Pattern::Irregular => "irregular".to_string(),
    }
}

fn region_of(item: &Item) -> Option<ParamsSpec> {
    match item {
        Item::Region(r) => Some(r.clone()),
        Item::P2p(p) => Some(ParamsSpec {
            clauses: Default::default(),
            body: vec![p.clone()],
            spans: p.spans.clone(),
        }),
        Item::Coll(_) => None,
    }
}

fn coll_report(
    spec: &commint::dir::CollSpec,
    nranks: usize,
    vars: &HashMap<String, i64>,
) -> CollReport {
    let mut group = 0usize;
    for r in 0..nranks {
        let env = commint::expr::EvalEnv {
            rank: r as i64,
            nranks: nranks as i64,
            vars: vars.into(),
        };
        let participates = match &spec.groupwhen {
            Some(c) => c.eval(&env).unwrap_or(false),
            None => true,
        };
        if participates {
            group += 1;
        }
    }
    let count = spec
        .count
        .as_ref()
        .and_then(|e| {
            e.eval(&commint::expr::EvalEnv {
                rank: 0,
                nranks: nranks as i64,
                vars: vars.into(),
            })
            .ok()
        })
        .map(|v| v.max(0) as usize)
        .or_else(|| spec.sbuf.iter().chain(&spec.rbuf).map(|b| b.len).min())
        .unwrap_or(0);
    let elem = spec
        .sbuf
        .first()
        .or_else(|| spec.rbuf.first())
        .map(|b| b.elem.packed_size())
        .unwrap_or(1);
    use commint::coll::CollKind;
    let volume = match spec.kind {
        CollKind::Bcast | CollKind::Scatter | CollKind::Gather | CollKind::Reduce(_) => {
            group.saturating_sub(1) * count * elem
        }
        CollKind::AllToAll => group * group.saturating_sub(1) * count * elem,
    };
    CollReport {
        kind: spec.kind.keyword().to_string(),
        group_size: group,
        volume_bytes: volume,
    }
}

/// Parse and analyze pragma source at a given rank count.
pub fn analyze(src: &str, symbols: &SymbolTable, nranks: usize) -> Result<Report, ParseError> {
    analyze_with_vars(src, symbols, nranks, &HashMap::new())
}

/// [`analyze`] with clause variables bound.
pub fn analyze_with_vars(
    src: &str,
    symbols: &SymbolTable,
    nranks: usize,
    vars: &HashMap<String, i64>,
) -> Result<Report, ParseError> {
    let parsed = parse(src, symbols)?;
    let mut regions = Vec::new();
    let mut collectives = Vec::new();
    for item in &parsed.items {
        if let Item::Coll(c) = item {
            collectives.push(coll_report(c, nranks, vars));
            continue;
        }
        let spec = region_of(item).expect("non-coll items have a region view");
        let independence = buffer_independence(&spec);
        let sync = sync_report(&spec, nranks, vars);
        let mut p2ps = Vec::new();
        for p in &spec.body {
            let g = resolve_graph(p, Some(&spec.clauses), nranks, vars);
            let m = g.matching();
            p2ps.push(P2pReport {
                site: p.site,
                pattern: classify(&m, nranks),
                unmatched_sends: m.unmatched_sends.len(),
                unmatched_recvs: m.unmatched_recvs.len(),
                unresolved_ranks: g.unresolved.len(),
                nonblocking_safe: m.fully_matched(),
            });
        }
        regions.push(RegionReport {
            p2ps,
            buffers_independent: independence.independent(),
            naive_wait_calls: sync.naive_wait_calls,
            consolidated_calls: sync.consolidated_calls,
        });
    }
    Ok(Report {
        diagnostics: parsed.diagnostics,
        regions,
        collectives,
    })
}

/// Sites pinned by `// @pin` source annotations: each pin comment applies
/// to the next directive below it (by line), and marks that site as
/// off-limits to the tuner — `commtune` must emit `Keep` for it and later
/// passes must not change it. Returns the pinned site ids in source order;
/// pins with no directive below them are ignored (they pin nothing).
pub fn pinned_sites(src: &str, parsed: &Parsed) -> Vec<u32> {
    let spans = parsed.site_spans();
    let mut pinned = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let lineno = i + 1;
        let Some(comment) = line.split("//").nth(1) else {
            continue;
        };
        if !comment.split_whitespace().any(|w| w == "@pin") {
            continue;
        }
        // The nearest directive at or below the pin line.
        let target = spans
            .iter()
            .filter_map(|(site, sp)| sp.as_ref().map(|s| (*site, s.line)))
            .filter(|&(_, l)| l >= lineno)
            .min_by_key(|&(_, l)| l);
        if let Some((site, _)) = target {
            if !pinned.contains(&site) {
                pinned.push(site);
            }
        }
    }
    pinned
}

/// Parse pragma source and render the translated library calls for each
/// directive under `target` — the paper's compiler lowering, as text.
pub fn translate(src: &str, symbols: &SymbolTable, target: Target) -> Result<String, ParseError> {
    let parsed = parse(src, symbols)?;
    let mut out = String::new();
    for (i, item) in parsed.items.iter().enumerate() {
        out.push_str(&format!(
            "/* ===== directive #{i} -> {} ===== */\n",
            target.keyword()
        ));
        match region_of(item) {
            Some(spec) => out.push_str(&lower(&spec, target).render()),
            None => {
                let Item::Coll(c) = item else { unreachable!() };
                out.push_str(&commint::lower::lower_coll(c, target).render());
            }
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::dtype::BasicType;

    fn syms() -> SymbolTable {
        let mut s = SymbolTable::new();
        s.declare_prim("buf1", BasicType::F64, 16)
            .declare_prim("buf2", BasicType::F64, 16);
        s
    }

    const RING: &str = "#pragma comm_p2p sender((rank-1+nprocs)%nprocs) \
                        receiver((rank+1)%nprocs) sbuf(buf1) rbuf(buf2)";

    #[test]
    fn analyze_ring_end_to_end() {
        let report = analyze(RING, &syms(), 8).unwrap();
        assert_eq!(report.regions.len(), 1);
        let p = &report.regions[0].p2ps[0];
        assert_eq!(p.pattern, Pattern::CyclicShift { k: 1 });
        assert_eq!(p.unmatched_sends, 0);
        assert!(p.nonblocking_safe);
        assert!(report.render().contains("cyclic shift by 1"));
    }

    #[test]
    fn translate_ring_to_all_targets() {
        let mpi2 = translate(RING, &syms(), Target::Mpi2Side).unwrap();
        assert!(mpi2.contains("MPI_Isend(buf1"));
        assert!(mpi2.contains("MPI_Waitall"));

        let mpi1 = translate(RING, &syms(), Target::Mpi1Side).unwrap();
        assert!(mpi1.contains("MPI_Put(buf1"));
        assert!(mpi1.contains("MPI_Win_fence"));

        let shmem = translate(RING, &syms(), Target::Shmem).unwrap();
        assert!(shmem.contains("shmem_put64(buf1_sym"));
        assert!(shmem.contains("shmem_barrier_all"));
    }

    #[test]
    fn mismatched_program_reported() {
        let src = "#pragma comm_p2p sender(rank-2) receiver(rank+1) \
                   sendwhen(rank==0) receivewhen(rank==1) sbuf(buf1) rbuf(buf2)";
        let report = analyze(src, &syms(), 4).unwrap();
        let p = &report.regions[0].p2ps[0];
        assert!(p.unmatched_sends > 0 || p.unresolved_ranks > 0);
    }

    #[test]
    fn region_sync_savings_reported() {
        let src = r#"
#pragma comm_parameters sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs)
{
    #pragma comm_p2p sbuf(buf1) rbuf(buf2)
    { }
}
"#;
        let report = analyze(src, &syms(), 8).unwrap();
        let r = &report.regions[0];
        assert!(r.buffers_independent);
        // Every rank sends once and receives once: 2 naive waits -> 1.
        assert_eq!(r.naive_wait_calls, 2);
        assert_eq!(r.consolidated_calls, 1);
    }

    #[test]
    fn collective_directive_parses_analyzes_translates() {
        let mut s = SymbolTable::new();
        s.declare_prim("params", BasicType::F64, 32)
            .declare_prim("contrib", BasicType::F64, 4)
            .declare_prim("all", BasicType::F64, 128);
        // One-to-many: parameter broadcast from rank 0 to even ranks.
        let src = "#pragma comm_bcast root(0) groupwhen(rank%2==0) count(32) rbuf(params)";
        let report = analyze(src, &s, 8).unwrap();
        assert_eq!(report.collectives.len(), 1);
        assert_eq!(report.collectives[0].kind, "BCAST");
        assert_eq!(report.collectives[0].group_size, 4);
        assert_eq!(report.collectives[0].volume_bytes, 3 * 32 * 8);
        assert!(report.render().contains("collective BCAST"));

        let mpi = translate(src, &s, Target::Mpi2Side).unwrap();
        assert!(
            mpi.contains("MPI_Bcast(params, 32, MPI_DOUBLE, 0, group_comm);"),
            "{mpi}"
        );
        assert!(mpi.contains("MPI_Comm_split"));
        let shm = translate(src, &s, Target::Shmem).unwrap();
        assert!(shm.contains("shmem_put64"));
        assert!(shm.contains("shmem_barrier"));

        // Many-to-one with an operator.
        let src = "#pragma comm_reduce root(0) op(MAX) count(4) sbuf(contrib) rbuf(all)";
        let mpi = translate(src, &s, Target::Mpi2Side).unwrap();
        assert!(
            mpi.contains("MPI_Reduce(contrib, all, 4, MPI_DOUBLE, MPI_MAX, 0, comm);"),
            "{mpi}"
        );

        // All-to-all.
        let src = "#pragma comm_alltoall count(4) sbuf(all) rbuf(all)";
        let mpi = translate(src, &s, Target::Mpi2Side).unwrap();
        assert!(mpi.contains("MPI_Alltoall"));
    }

    #[test]
    fn collective_missing_root_diagnosed() {
        let mut s = SymbolTable::new();
        s.declare_prim("b", BasicType::F64, 4);
        let parsed = parse("#pragma comm_gather sbuf(b) rbuf(b)", &s).unwrap();
        assert!(parsed.has_errors());
        assert!(parsed
            .diagnostics
            .iter()
            .any(|d| d.message.contains("`root` missing")));
    }

    #[test]
    fn pin_annotations_map_to_next_directive() {
        let src = r#"
// @pin keep this site exactly as written
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(buf1) rbuf(buf2)

#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(buf1) rbuf(buf2)
"#;
        let parsed = parse(src, &syms()).unwrap();
        // Sites are assigned in source order; only the first is pinned.
        let sites: Vec<u32> = parsed.site_spans().iter().map(|(site, _)| *site).collect();
        assert_eq!(pinned_sites(src, &parsed), vec![sites[0]]);
        assert!(!pinned_sites(src, &parsed).contains(&sites[1]));
    }

    #[test]
    fn pin_without_directive_below_is_ignored() {
        let src = "#pragma comm_p2p sender((rank-1+nprocs)%nprocs) \
                   receiver((rank+1)%nprocs) sbuf(buf1) rbuf(buf2)\n// @pin trailing";
        let parsed = parse(src, &syms()).unwrap();
        assert!(pinned_sites(src, &parsed).is_empty());
    }

    #[test]
    fn variables_bound_at_analysis_time() {
        let src = "#pragma comm_p2p sender(root) receiver(dest) \
                   sendwhen(rank==root) receivewhen(rank==dest) sbuf(buf1) rbuf(buf2)";
        let vars: HashMap<String, i64> = [("root".to_string(), 0), ("dest".to_string(), 3)].into();
        let report = analyze_with_vars(src, &syms(), 6, &vars).unwrap();
        let p = &report.regions[0].p2ps[0];
        assert_eq!(p.unresolved_ranks, 0);
        assert_eq!(p.unmatched_sends, 0);
    }
}
