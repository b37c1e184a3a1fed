//! Compiler-style static analyses over the directive IR.
//!
//! This is the payoff the paper argues for: once communication is expressed
//! through directives with analyzable clauses, "all source and destination
//! information can be incorporated into an analysis framework for automated
//! analysis and optimization". Given a [`ParamsSpec`] (from the builder API
//! or the pragma parser) and a communicator size, these analyses:
//!
//! * resolve the per-rank communication graph ([`resolve_graph`]),
//! * classify the pattern ([`classify`]: cyclic/linear shifts, ring,
//!   nearest-neighbour pairs, fan-in/fan-out, exchanges),
//! * verify **buffer independence** across adjacent `comm_p2p` instances,
//!   the precondition for synchronization consolidation
//!   ([`buffer_independence`]),
//! * and estimate the synchronization savings of consolidation
//!   ([`sync_report`]), the effect Figure 4 measures.

use std::collections::HashMap;

use crate::clause::ClauseSet;
use crate::dir::{P2pSpec, ParamsSpec};
use crate::expr::EvalEnv;

/// One directed communication edge resolved for a concrete rank count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
}

/// The resolved communication graph of one `comm_p2p` instance.
#[derive(Clone, Debug, Default)]
pub struct CommGraph {
    /// Declared send edges (from the senders' perspective).
    pub sends: Vec<Edge>,
    /// Declared receive edges (from the receivers' perspective).
    pub recvs: Vec<Edge>,
    /// Ranks whose clauses could not be resolved statically (opaque
    /// expressions or unbound variables).
    pub unresolved: Vec<usize>,
    /// Ranks whose merged `sendwhen` evaluated true, recorded even when
    /// the receiver expression did not resolve. Every rank when the
    /// clause is absent — only meaningful to consumers (CI005) when the
    /// predicate pair is present.
    pub senders: Vec<usize>,
    /// Ranks whose merged `receivewhen` evaluated true (same caveats).
    pub receivers: Vec<usize>,
    /// Whether any `sendwhen`/`receivewhen` evaluation errored.
    pub when_unknown: bool,
}

/// The matching of one graph's declared sends against its declared
/// receives. Computed once per graph ([`CommGraph::matching`]: one sort
/// per side and one merge) and read by every analysis of that graph.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Matching {
    /// Edges declared by both a sender and a receiver: sorted,
    /// deduplicated.
    pub matched: Vec<Edge>,
    /// Send edges that no receiver declares, in declaration order, with
    /// multiplicity.
    pub unmatched_sends: Vec<Edge>,
    /// Receive edges that no sender declares, in declaration order, with
    /// multiplicity.
    pub unmatched_recvs: Vec<Edge>,
    /// Whether every rank's clauses resolved.
    pub resolved: bool,
}

impl Matching {
    /// Whether every declared send has a matching declared receive and vice
    /// versa (and everything resolved).
    pub fn fully_matched(&self) -> bool {
        self.resolved && self.unmatched_sends.is_empty() && self.unmatched_recvs.is_empty()
    }
}

impl CommGraph {
    /// Match the declared sends against the declared receives: sort each
    /// side once (with its declaration index), and one merge marks every
    /// edge the other side also declares.
    pub fn matching(&self) -> Matching {
        fn sorted(edges: &[Edge]) -> Vec<(Edge, usize)> {
            let mut v: Vec<(Edge, usize)> = edges.iter().copied().zip(0..).collect();
            v.sort_unstable();
            v
        }
        fn unmatched(edges: &[Edge], hit: &[bool]) -> Vec<Edge> {
            edges
                .iter()
                .zip(hit)
                .filter(|(_, &h)| !h)
                .map(|(e, _)| *e)
                .collect()
        }
        let (sends, recvs) = (sorted(&self.sends), sorted(&self.recvs));
        let mut send_hit = vec![false; sends.len()];
        let mut recv_hit = vec![false; recvs.len()];
        let mut matched = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < sends.len() && j < recvs.len() {
            let e = sends[i].0;
            match e.cmp(&recvs[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    matched.push(e);
                    while sends.get(i).is_some_and(|s| s.0 == e) {
                        send_hit[sends[i].1] = true;
                        i += 1;
                    }
                    while recvs.get(j).is_some_and(|r| r.0 == e) {
                        recv_hit[recvs[j].1] = true;
                        j += 1;
                    }
                }
            }
        }
        Matching {
            matched,
            unmatched_sends: unmatched(&self.sends, &send_hit),
            unmatched_recvs: unmatched(&self.recvs, &recv_hit),
            resolved: self.unresolved.is_empty(),
        }
    }
}

/// Resolve the communication graph of a `comm_p2p` instance (its clauses
/// merged with the enclosing region's) for `nranks` ranks, with `vars`
/// bound.
pub fn resolve_graph(
    p2p: &P2pSpec,
    outer: Option<&ClauseSet>,
    nranks: usize,
    vars: &HashMap<String, i64>,
) -> CommGraph {
    let merged = match outer {
        Some(o) => p2p.clauses.merged_with(o),
        None => p2p.clauses.clone(),
    };
    let mut g = CommGraph::default();
    // One environment for the whole scan: only the rank changes, and the
    // variable table conversion (allocation + sort) is paid once, not per
    // rank.
    let mut env = EvalEnv {
        rank: 0,
        nranks: nranks as i64,
        vars: vars.into(),
    };
    for r in 0..nranks {
        env.rank = r as i64;
        let sends = match &merged.sendwhen {
            Some(c) => c.eval(&env),
            None => Ok(true),
        };
        let recvs = match &merged.receivewhen {
            Some(c) => c.eval(&env),
            None => Ok(true),
        };
        let mut resolved = true;
        match &sends {
            Ok(true) => g.senders.push(r),
            Ok(false) => {}
            Err(_) => g.when_unknown = true,
        }
        match &recvs {
            Ok(true) => g.receivers.push(r),
            Ok(false) => {}
            Err(_) => g.when_unknown = true,
        }
        match sends {
            Ok(true) => match merged.receiver.as_ref().map(|e| e.eval(&env)) {
                Some(Ok(d)) if d >= 0 && (d as usize) < nranks => g.sends.push(Edge {
                    src: r,
                    dst: d as usize,
                }),
                // An unknown variable, a zero divisor or an overflow
                // leaves the rank unresolved: CI008.
                Some(Ok(_)) | None | Some(Err(_)) => resolved = false,
            },
            Ok(false) => {}
            Err(_) => resolved = false,
        }
        match recvs {
            Ok(true) => match merged.sender.as_ref().map(|e| e.eval(&env)) {
                Some(Ok(s)) if s >= 0 && (s as usize) < nranks => g.recvs.push(Edge {
                    src: s as usize,
                    dst: r,
                }),
                Some(Ok(_)) | None => resolved = false,
                Some(Err(_)) => resolved = false,
            },
            Ok(false) => {}
            Err(_) => resolved = false,
        }
        if !resolved {
            g.unresolved.push(r);
        }
    }
    g
}

/// Classified communication patterns ("there are a variety of
/// point-to-point communication patterns that are recurring in scientific
/// applications" — the basis for the directive interface).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// No communication.
    Empty,
    /// Every rank sends to `(rank + k) % n`; `k = 1` is the classic ring.
    CyclicShift { k: usize },
    /// Ranks `0..n-k` send to `rank + k` (no wraparound).
    LinearShift { k: usize },
    /// Disjoint sender→receiver pairs (e.g. even ranks to the next odd
    /// rank, paper Listing 2).
    DisjointPairs,
    /// One root sends to multiple ranks (scatter-flavoured).
    FanOut { root: usize },
    /// Multiple ranks send to one root (gather-flavoured).
    FanIn { root: usize },
    /// Symmetric pairwise exchange (both directions between pairs).
    Exchange,
    /// Anything else.
    Irregular,
}

/// Classify the *matched* edges of a graph over `nranks` ranks.
pub fn classify(m: &Matching, nranks: usize) -> Pattern {
    // Sorted by (src, dst) and deduplicated, so `srcs` comes out sorted.
    let edges = &m.matched;
    if edges.is_empty() {
        return Pattern::Empty;
    }
    let n = nranks;
    let mut srcs: Vec<usize> = edges.iter().map(|e| e.src).collect();
    srcs.dedup();
    let mut dsts: Vec<usize> = edges.iter().map(|e| e.dst).collect();
    dsts.sort_unstable();
    dsts.dedup();

    // Cyclic shift: all ranks send, dst = (src + k) mod n for one k.
    if edges.len() == n {
        let k0 = (edges[0].dst + n - edges[0].src) % n;
        if k0 != 0 && edges.iter().all(|e| (e.dst + n - e.src) % n == k0) && srcs.len() == n {
            return Pattern::CyclicShift { k: k0 };
        }
    }

    // Linear shift: srcs are 0..n-k, dst = src + k.
    let first = edges[0];
    if first.dst > first.src {
        let k = first.dst - first.src;
        if edges.len() == n.saturating_sub(k)
            && edges
                .iter()
                .enumerate()
                .all(|(s, e)| e.src == s && e.dst == s + k)
        {
            return Pattern::LinearShift { k };
        }
    }

    // Fan-out / fan-in.
    if srcs.len() == 1 && edges.len() > 1 {
        return Pattern::FanOut { root: srcs[0] };
    }
    if dsts.len() == 1 && edges.len() > 1 {
        return Pattern::FanIn { root: dsts[0] };
    }

    // Exchange: edge set symmetric under reversal, on disjoint pairs.
    if edges.iter().all(|e| {
        e.src != e.dst
            && edges
                .binary_search(&Edge {
                    src: e.dst,
                    dst: e.src,
                })
                .is_ok()
    }) {
        return Pattern::Exchange;
    }

    // Disjoint pairs: senders and receivers disjoint, each appears once.
    if srcs.len() == edges.len()
        && dsts.len() == edges.len()
        && srcs.iter().all(|s| dsts.binary_search(s).is_err())
    {
        return Pattern::DisjointPairs;
    }

    Pattern::Irregular
}

/// Buffer-independence verdict across the `comm_p2p` instances of a region:
/// the precondition for consolidating their synchronization into one call.
#[derive(Clone, Debug, Default)]
pub struct IndependenceReport {
    /// Pairs of p2p indices whose buffers overlap in memory, with the
    /// offending buffer names.
    pub conflicts: Vec<(usize, usize, String, String)>,
}

impl IndependenceReport {
    /// Whether consolidation is legal for the whole region.
    pub fn independent(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// Check pairwise buffer independence between adjacent `comm_p2p`
/// instances. Write-write and write-read overlaps are conflicts; two sends
/// reading the same buffer are not.
pub fn buffer_independence(spec: &ParamsSpec) -> IndependenceReport {
    use crate::interval::{Access, ByteSpan};
    let mut report = IndependenceReport::default();
    // Each phase pairs one access role of instance `a` with one of `b`;
    // the shared interval engine supplies the conflict rule (overlap with
    // at least one writer), so two sends reading the same buffer never
    // conflict. Phase order is part of the report's stable conflict order.
    let access = |b: &crate::buffer::BufMeta, write: bool| {
        let span = ByteSpan::of_buf(b);
        if write {
            Access::write(span)
        } else {
            Access::read(span)
        }
    };
    for i in 0..spec.body.len() {
        for j in (i + 1)..spec.body.len() {
            let (a, b) = (&spec.body[i], &spec.body[j]);
            let phases: [(&[_], bool, &[_], bool); 3] = [
                (&a.rbuf[..], true, &b.rbuf[..], true),
                (&a.rbuf[..], true, &b.sbuf[..], false),
                (&a.sbuf[..], false, &b.rbuf[..], true),
            ];
            for (xs, xw, ys, yw) in phases {
                for x in xs {
                    for y in ys {
                        if access(x, xw).conflicts(&access(y, yw)) {
                            report
                                .conflicts
                                .push((i, j, x.name.clone(), y.name.clone()));
                        }
                    }
                }
            }
        }
    }
    report
}

/// Synchronization-consolidation estimate for one region: how many wait
/// calls the naive per-request translation makes vs. the directive
/// translation's single consolidated call (per executing rank, per
/// iteration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncReport {
    /// Wait calls in the per-request translation (one `MPI_Wait` per send
    /// and per receive).
    pub naive_wait_calls: usize,
    /// Completion calls after consolidation (one `Waitall`-class call at
    /// the placed sync point).
    pub consolidated_calls: usize,
    /// Requests covered by the consolidated call.
    pub requests_covered: usize,
    /// Whether consolidation is legal (buffers independent).
    pub legal: bool,
}

/// Estimate synchronization savings for a region resolved at `nranks`.
/// Counts the busiest rank's requests (the paper's figures measure the
/// critical path).
pub fn sync_report(spec: &ParamsSpec, nranks: usize, vars: &HashMap<String, i64>) -> SyncReport {
    let mut per_rank: HashMap<usize, usize> = HashMap::new();
    for p in &spec.body {
        let g = resolve_graph(p, Some(&spec.clauses), nranks, vars);
        let nbuf = p.sbuf.len().max(1);
        for e in g.sends {
            *per_rank.entry(e.src).or_insert(0) += nbuf;
        }
        for e in g.recvs {
            *per_rank.entry(e.dst).or_insert(0) += nbuf;
        }
    }
    let busiest = per_rank.values().copied().max().unwrap_or(0);
    let legal = buffer_independence(spec).independent();
    SyncReport {
        naive_wait_calls: busiest,
        consolidated_calls: usize::from(busiest > 0),
        requests_covered: busiest,
        legal,
    }
}

/// Structural deadlock check: the directive translation only emits
/// non-blocking operations completed by one consolidated wait per region,
/// which cannot deadlock as long as matching is complete. For a
/// hypothetical blocking-call translation, a cycle in the matched graph
/// with no buffering would deadlock; this reports both facts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockReport {
    /// The generated (non-blocking) code is deadlock-free.
    pub nonblocking_safe: bool,
    /// A blocking-send translation would deadlock (matched graph has a
    /// cycle).
    pub blocking_would_deadlock: bool,
    /// The ranks of one wait-for cycle, in cycle order (empty when acyclic).
    pub cycle: Vec<usize>,
}

/// Find one directed cycle in `edges`, returned as the ranks along it in
/// cycle order. Iterative (explicit stack), so adversarially deep graphs —
/// e.g. a shift pattern over hundreds of thousands of ranks — cannot
/// overflow the call stack. Deterministic: neighbours are visited in sorted
/// order from the smallest root.
pub fn find_cycle(edges: &[Edge]) -> Option<Vec<usize>> {
    // Sorted adjacency: the deduplicated edges in (src, dst) order, cut
    // into one run per source. A node without out-edges is never on a
    // cycle and is not a node here.
    let mut sorted = edges.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut nodes: Vec<usize> = Vec::new();
    let mut starts: Vec<usize> = Vec::new();
    for (i, e) in sorted.iter().enumerate() {
        if nodes.last() != Some(&e.src) {
            nodes.push(e.src);
            starts.push(i);
        }
    }
    starts.push(sorted.len());
    let node = |rank: usize| nodes.binary_search(&rank).ok();

    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; nodes.len()];
    for root in 0..nodes.len() {
        if color[root] != WHITE {
            continue;
        }
        // Explicit DFS stack of (node, next edge index); `path` mirrors
        // the stack's ranks so a back edge can be cut into a cycle.
        let mut stack: Vec<(usize, usize)> = vec![(root, starts[root])];
        let mut path: Vec<usize> = vec![nodes[root]];
        color[root] = GRAY;
        while let Some(frame) = stack.last_mut() {
            let u = frame.0;
            if frame.1 == starts[u + 1] {
                color[u] = BLACK;
                stack.pop();
                path.pop();
                continue;
            }
            let v = sorted[frame.1].dst;
            frame.1 += 1;
            let Some(vi) = node(v) else { continue };
            match color[vi] {
                WHITE => {
                    color[vi] = GRAY;
                    stack.push((vi, starts[vi]));
                    path.push(v);
                }
                GRAY => {
                    // Back edge: every GRAY node is on `path`.
                    let start = path
                        .iter()
                        .position(|&p| p == v)
                        .expect("gray node is on the active path");
                    return Some(path[start..].to_vec());
                }
                _ => {}
            }
        }
    }
    None
}

/// Analyze deadlock freedom of one `comm_p2p`'s matched graph.
pub fn deadlock_report(m: &Matching) -> DeadlockReport {
    let cycle = find_cycle(&m.matched);
    DeadlockReport {
        nonblocking_safe: m.fully_matched(),
        blocking_would_deadlock: cycle.is_some(),
        cycle: cycle.unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufMeta, ElemKind};
    use crate::expr::RankExpr;
    use mpisim::dtype::BasicType;

    fn meta(name: &str, lo: usize, bytes: usize) -> BufMeta {
        BufMeta {
            name: name.to_string(),
            elem: ElemKind::Prim(BasicType::U8),
            len: bytes,
            addr: (lo, lo + bytes),
        }
    }

    fn p2p(clauses: ClauseSet) -> P2pSpec {
        P2pSpec {
            clauses,
            sbuf: vec![meta("s", 0, 8)],
            rbuf: vec![meta("r", 100, 8)],
            ..P2pSpec::default()
        }
    }

    fn ring_clauses() -> ClauseSet {
        ClauseSet {
            sender: Some(
                (RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks(),
            ),
            receiver: Some((RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks()),
            ..ClauseSet::default()
        }
    }

    #[test]
    fn ring_resolves_and_classifies() {
        let g = resolve_graph(&p2p(ring_clauses()), None, 5, &HashMap::new());
        assert!(g.matching().fully_matched());
        assert_eq!(g.matching().matched.len(), 5);
        assert_eq!(classify(&g.matching(), 5), Pattern::CyclicShift { k: 1 });
    }

    #[test]
    fn even_odd_classifies_as_pairs() {
        let clauses = ClauseSet {
            sender: Some(RankExpr::rank() - RankExpr::lit(1)),
            receiver: Some(RankExpr::rank() + RankExpr::lit(1)),
            sendwhen: Some((RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(0))),
            receivewhen: Some((RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(1))),
            ..ClauseSet::default()
        };
        let g = resolve_graph(&p2p(clauses), None, 8, &HashMap::new());
        assert!(
            g.matching().fully_matched(),
            "unmatched: {:?}/{:?}",
            g.matching().unmatched_sends,
            g.matching().unmatched_recvs
        );
        assert_eq!(classify(&g.matching(), 8), Pattern::DisjointPairs);
    }

    #[test]
    fn fan_out_from_root() {
        // Root 0 sends to `dest`; every rank evaluates the same var, only
        // the matching receiver accepts. Resolve per dest and union.
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for dest in 1..6i64 {
            let clauses = ClauseSet {
                sender: Some(RankExpr::lit(0)),
                receiver: Some(RankExpr::var("dest")),
                sendwhen: Some(RankExpr::rank().eq(RankExpr::lit(0))),
                receivewhen: Some(RankExpr::rank().eq(RankExpr::var("dest"))),
                ..ClauseSet::default()
            };
            let vars: HashMap<String, i64> = [("dest".to_string(), dest)].into();
            let g = resolve_graph(&p2p(clauses), None, 6, &vars);
            sends.extend(g.sends);
            recvs.extend(g.recvs);
        }
        let g = CommGraph {
            sends,
            recvs,
            unresolved: vec![],
            ..CommGraph::default()
        };
        assert!(g.matching().fully_matched());
        assert_eq!(classify(&g.matching(), 6), Pattern::FanOut { root: 0 });
    }

    #[test]
    fn fan_in_classification() {
        let g = CommGraph {
            sends: (1..5).map(|s| Edge { src: s, dst: 0 }).collect(),
            recvs: (1..5).map(|s| Edge { src: s, dst: 0 }).collect(),
            unresolved: vec![],
            ..CommGraph::default()
        };
        assert_eq!(classify(&g.matching(), 5), Pattern::FanIn { root: 0 });
    }

    #[test]
    fn exchange_classification() {
        let mut edges = Vec::new();
        for p in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            edges.push(Edge { src: p.0, dst: p.1 });
        }
        let g = CommGraph {
            sends: edges.clone(),
            recvs: edges,
            unresolved: vec![],
            ..CommGraph::default()
        };
        assert_eq!(classify(&g.matching(), 4), Pattern::Exchange);
    }

    #[test]
    fn linear_shift_classification() {
        let edges: Vec<Edge> = (0..6).map(|s| Edge { src: s, dst: s + 2 }).collect();
        let g = CommGraph {
            sends: edges.clone(),
            recvs: edges,
            unresolved: vec![],
            ..CommGraph::default()
        };
        assert_eq!(classify(&g.matching(), 8), Pattern::LinearShift { k: 2 });
    }

    #[test]
    fn empty_and_irregular() {
        let g = CommGraph::default();
        assert_eq!(classify(&g.matching(), 4), Pattern::Empty);
        let g = CommGraph {
            sends: vec![
                Edge { src: 0, dst: 1 },
                Edge { src: 1, dst: 0 },
                Edge { src: 2, dst: 1 },
            ],
            recvs: vec![
                Edge { src: 0, dst: 1 },
                Edge { src: 1, dst: 0 },
                Edge { src: 2, dst: 1 },
            ],
            unresolved: vec![],
            ..CommGraph::default()
        };
        assert_eq!(classify(&g.matching(), 3), Pattern::Irregular);
    }

    #[test]
    fn mismatch_detected() {
        // Senders declare rank+1, receivers expect rank-2: mismatched.
        let clauses = ClauseSet {
            sender: Some(RankExpr::rank() - RankExpr::lit(2)),
            receiver: Some(RankExpr::rank() + RankExpr::lit(1)),
            sendwhen: Some(RankExpr::rank().eq(RankExpr::lit(0))),
            receivewhen: Some(RankExpr::rank().eq(RankExpr::lit(1))),
            ..ClauseSet::default()
        };
        let g = resolve_graph(&p2p(clauses), None, 4, &HashMap::new());
        assert!(!g.matching().fully_matched());
        assert_eq!(g.matching().unmatched_sends, vec![Edge { src: 0, dst: 1 }]);
        // Rank 1 expects from rank -1... no: 1-2 = -1 -> unresolved rank 1.
        assert!(g.unresolved.contains(&1));
    }

    #[test]
    fn unknown_vars_mark_unresolved() {
        let clauses = ClauseSet {
            sender: Some(RankExpr::var("mystery")),
            receiver: Some(RankExpr::lit(0)),
            ..ClauseSet::default()
        };
        let g = resolve_graph(&p2p(clauses), None, 3, &HashMap::new());
        assert_eq!(g.unresolved.len(), 3);
        assert!(!g.matching().fully_matched());
    }

    #[test]
    fn opaque_exprs_resolve_dynamically() {
        // Opaque closures evaluate fine during resolution (we have the
        // closure); they are "unresolvable" only for a *source-level*
        // compiler, which pragma-front models separately.
        let clauses = ClauseSet {
            sender: Some(RankExpr::opaque("prev", |e| {
                (e.rank - 1 + e.nranks) % e.nranks
            })),
            receiver: Some(RankExpr::opaque("next", |e| (e.rank + 1) % e.nranks)),
            ..ClauseSet::default()
        };
        let g = resolve_graph(&p2p(clauses), None, 4, &HashMap::new());
        assert!(g.matching().fully_matched());
        assert_eq!(classify(&g.matching(), 4), Pattern::CyclicShift { k: 1 });
    }

    #[test]
    fn independence_conflicts_found() {
        let spec = ParamsSpec {
            clauses: ring_clauses(),
            spans: Default::default(),
            body: vec![
                P2pSpec {
                    clauses: ClauseSet::default(),
                    sbuf: vec![meta("a", 0, 16)],
                    rbuf: vec![meta("x", 100, 16)],
                    has_overlap_body: false,
                    site: 0,
                    spans: Default::default(),
                },
                P2pSpec {
                    clauses: ClauseSet::default(),
                    // reads the bytes p2p#0 writes
                    sbuf: vec![meta("x_alias", 108, 8)],
                    rbuf: vec![meta("y", 200, 8)],
                    has_overlap_body: false,
                    site: 1,
                    spans: Default::default(),
                },
            ],
        };
        let rep = buffer_independence(&spec);
        assert!(!rep.independent());
        assert_eq!(rep.conflicts.len(), 1);
        let (i, j, a, b) = &rep.conflicts[0];
        assert_eq!((*i, *j), (0, 1));
        assert_eq!((a.as_str(), b.as_str()), ("x", "x_alias"));
    }

    #[test]
    fn independence_shared_reads_allowed() {
        let spec = ParamsSpec {
            clauses: ring_clauses(),
            spans: Default::default(),
            body: vec![
                P2pSpec {
                    clauses: ClauseSet::default(),
                    sbuf: vec![meta("shared", 0, 16)],
                    rbuf: vec![meta("x", 100, 16)],
                    has_overlap_body: false,
                    site: 0,
                    spans: Default::default(),
                },
                P2pSpec {
                    clauses: ClauseSet::default(),
                    sbuf: vec![meta("shared", 0, 16)],
                    rbuf: vec![meta("y", 200, 16)],
                    has_overlap_body: false,
                    site: 1,
                    spans: Default::default(),
                },
            ],
        };
        assert!(buffer_independence(&spec).independent());
    }

    #[test]
    fn sync_savings_estimate() {
        // Fan-out of 16 messages from rank 0 (the setEvec shape): the naive
        // translation waits 16 times on the root; consolidation waits once.
        let mut body = Vec::new();
        for _ in 0..1 {
            body.push(P2pSpec {
                clauses: ClauseSet::default(),
                sbuf: vec![meta("ev", 0, 24)],
                rbuf: vec![meta("evec", 100, 24)],
                has_overlap_body: true,
                site: 0,
                spans: Default::default(),
            });
        }
        let spec = ParamsSpec {
            spans: Default::default(),
            clauses: ClauseSet {
                sender: Some(RankExpr::lit(0)),
                receiver: Some(RankExpr::var("dest")),
                sendwhen: Some(RankExpr::rank().eq(RankExpr::lit(0))),
                receivewhen: Some(RankExpr::rank().eq(RankExpr::var("dest"))),
                ..ClauseSet::default()
            },
            body,
        };
        // Resolve across all 16 destinations to count the root's requests.
        let mut total_naive = 0;
        for dest in 1..17i64 {
            let vars: HashMap<String, i64> = [("dest".to_string(), dest)].into();
            let rep = sync_report(&spec, 17, &vars);
            assert!(rep.legal);
            total_naive += rep.naive_wait_calls;
        }
        assert_eq!(total_naive, 16);
    }

    #[test]
    fn deadlock_reporting() {
        let ring = resolve_graph(&p2p(ring_clauses()), None, 4, &HashMap::new());
        let rep = deadlock_report(&ring.matching());
        assert!(rep.nonblocking_safe);
        assert!(
            rep.blocking_would_deadlock,
            "a blocking ring without buffering deadlocks"
        );
        // The witness cycle is the whole ring, in cycle order.
        assert_eq!(rep.cycle.len(), 4);
        for w in rep.cycle.windows(2) {
            assert_eq!(w[1], (w[0] + 1) % 4);
        }

        // A linear chain does not deadlock even blocking.
        let chain = CommGraph {
            sends: (0..3).map(|s| Edge { src: s, dst: s + 1 }).collect(),
            recvs: (0..3).map(|s| Edge { src: s, dst: s + 1 }).collect(),
            unresolved: vec![],
            ..CommGraph::default()
        };
        let rep = deadlock_report(&chain.matching());
        assert!(rep.nonblocking_safe);
        assert!(!rep.blocking_would_deadlock);
        assert!(rep.cycle.is_empty());
    }

    #[test]
    fn find_cycle_handles_adversarially_deep_graphs() {
        // A 200k-node chain closed into one giant cycle: the old recursive
        // DFS would overflow the (2 MiB test-thread) stack here.
        const N: usize = 200_000;
        let mut edges: Vec<Edge> = (0..N - 1).map(|s| Edge { src: s, dst: s + 1 }).collect();
        assert_eq!(find_cycle(&edges), None);
        edges.push(Edge { src: N - 1, dst: 0 });
        let cycle = find_cycle(&edges).expect("closed chain is cyclic");
        assert_eq!(cycle.len(), N);
        assert_eq!(cycle[0], 0);
        assert_eq!(*cycle.last().unwrap(), N - 1);
    }

    #[test]
    fn find_cycle_reports_inner_cycle_only() {
        // Tail 0->1->2 leading into the cycle 2->3->4->2.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2)].map(|(src, dst)| Edge { src, dst });
        assert_eq!(find_cycle(&edges), Some(vec![2, 3, 4]));
    }
}
