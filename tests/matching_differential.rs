//! Differential test of the communication-graph matching and the wait-for
//! cycle search: `CommGraph::matching`, `classify` and `find_cycle` must
//! agree exactly with the set-based definitions kept here, on random edge
//! lists with duplicates and self-edges.
//!
//! What "exactly" means: unmatched lists in declaration order with their
//! multiplicity, matched edges sorted and deduplicated, the same pattern,
//! and the same cycle (neighbours visited in sorted order from the
//! smallest root).

use std::collections::{BTreeMap, HashMap, HashSet};

use commint::analysis::{classify, deadlock_report, find_cycle, CommGraph, Edge, Pattern};

/// Graphs per sweep.
const CASES: usize = 3000;
/// Fixed seed: the sweep is reproducible.
const SEED: u64 = 0x3A7C_41D6;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// -- the set-based definitions ----------------------------------------------

fn ref_unmatched(edges: &[Edge], other: &[Edge]) -> Vec<Edge> {
    let other: HashSet<&Edge> = other.iter().collect();
    edges
        .iter()
        .filter(|e| !other.contains(e))
        .copied()
        .collect()
}

fn ref_matched(g: &CommGraph) -> Vec<Edge> {
    let recvs: HashSet<&Edge> = g.recvs.iter().collect();
    let mut out: Vec<Edge> = g
        .sends
        .iter()
        .filter(|e| recvs.contains(e))
        .copied()
        .collect();
    out.sort();
    out.dedup();
    out
}

fn ref_fully_matched(g: &CommGraph) -> bool {
    g.unresolved.is_empty()
        && ref_unmatched(&g.sends, &g.recvs).is_empty()
        && ref_unmatched(&g.recvs, &g.sends).is_empty()
}

fn ref_classify(edges: Vec<Edge>, n: usize) -> Pattern {
    if edges.is_empty() {
        return Pattern::Empty;
    }
    if edges.len() == n {
        let k0 = (edges[0].dst + n - edges[0].src) % n;
        if k0 != 0
            && edges.iter().all(|e| (e.dst + n - e.src) % n == k0)
            && edges.iter().map(|e| e.src).collect::<HashSet<_>>().len() == n
        {
            return Pattern::CyclicShift { k: k0 };
        }
    }
    if let Some(first) = edges.first() {
        if first.dst > first.src {
            let k = first.dst - first.src;
            let expected: Vec<Edge> = (0..n.saturating_sub(k))
                .map(|s| Edge { src: s, dst: s + k })
                .collect();
            let mut sorted = edges.clone();
            sorted.sort();
            if sorted == expected {
                return Pattern::LinearShift { k };
            }
        }
    }
    let srcs: HashSet<usize> = edges.iter().map(|e| e.src).collect();
    let dsts: HashSet<usize> = edges.iter().map(|e| e.dst).collect();
    if srcs.len() == 1 && edges.len() > 1 {
        return Pattern::FanOut {
            root: *srcs.iter().next().unwrap(),
        };
    }
    if dsts.len() == 1 && edges.len() > 1 {
        return Pattern::FanIn {
            root: *dsts.iter().next().unwrap(),
        };
    }
    let set: HashSet<Edge> = edges.iter().copied().collect();
    if edges.iter().all(|e| {
        set.contains(&Edge {
            src: e.dst,
            dst: e.src,
        })
    }) && edges.iter().all(|e| e.src != e.dst)
    {
        return Pattern::Exchange;
    }
    if srcs.is_disjoint(&dsts) && srcs.len() == edges.len() && dsts.len() == edges.len() {
        return Pattern::DisjointPairs;
    }
    Pattern::Irregular
}

/// Depth-first search over `BTreeMap` adjacency with a `HashMap` colour
/// table.
fn ref_find_cycle(edges: &[Edge]) -> Option<Vec<usize>> {
    let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.src).or_default().push(e.dst);
    }
    for next in adj.values_mut() {
        next.sort_unstable();
        next.dedup();
    }
    let mut color: HashMap<usize, u8> = HashMap::new();
    let roots: Vec<usize> = adj.keys().copied().collect();
    for root in roots {
        if color.get(&root).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        let mut path: Vec<usize> = vec![root];
        color.insert(root, 1);
        while let Some(frame) = stack.last_mut() {
            let u = frame.0;
            let next = adj.get(&u).and_then(|ns| ns.get(frame.1)).copied();
            frame.1 += 1;
            match next {
                Some(v) => match color.get(&v).copied().unwrap_or(0) {
                    0 => {
                        color.insert(v, 1);
                        stack.push((v, 0));
                        path.push(v);
                    }
                    1 => {
                        let start = path.iter().position(|&p| p == v).unwrap();
                        return Some(path[start..].to_vec());
                    }
                    _ => {}
                },
                None => {
                    color.insert(u, 2);
                    stack.pop();
                    path.pop();
                }
            }
        }
    }
    None
}

// -- generators -------------------------------------------------------------

/// Up to 30 edges over `n` ranks; about a third repeat an earlier edge.
fn edges(rng: &mut Rng, n: usize) -> Vec<Edge> {
    let mut out: Vec<Edge> = Vec::new();
    for _ in 0..rng.below(31) {
        let e = match out.len() {
            len if len > 0 && rng.below(3) == 0 => out[rng.below(len)],
            _ => Edge {
                src: rng.below(n),
                dst: rng.below(n),
            },
        };
        out.push(e);
    }
    out
}

/// A graph whose receive side copies, drops and adds to its send side, so
/// both matched and unmatched edges are common.
fn graph(rng: &mut Rng) -> (CommGraph, usize) {
    let n = 1 + rng.below(12);
    let sends = edges(rng, n);
    let mut recvs: Vec<Edge> = sends
        .iter()
        .copied()
        .filter(|_| rng.below(4) != 0)
        .collect();
    recvs.extend(edges(rng, n));
    for i in (1..recvs.len()).rev() {
        recvs.swap(i, rng.below(i + 1));
    }
    let unresolved = if rng.below(5) == 0 { vec![0] } else { vec![] };
    let g = CommGraph {
        sends,
        recvs,
        unresolved,
        ..CommGraph::default()
    };
    (g, n)
}

#[test]
fn one_matching_equals_the_set_definitions() {
    let mut rng = Rng(SEED);
    for _ in 0..CASES {
        let (g, n) = graph(&mut rng);
        let m = g.matching();
        assert_eq!(
            m.unmatched_sends,
            ref_unmatched(&g.sends, &g.recvs),
            "{g:?}"
        );
        assert_eq!(
            m.unmatched_recvs,
            ref_unmatched(&g.recvs, &g.sends),
            "{g:?}"
        );
        assert_eq!(m.matched, ref_matched(&g), "{g:?}");
        assert_eq!(m.fully_matched(), ref_fully_matched(&g), "{g:?}");
        assert_eq!(classify(&m, n), ref_classify(ref_matched(&g), n), "{g:?}");
        let dl = deadlock_report(&m);
        assert_eq!(dl.nonblocking_safe, ref_fully_matched(&g));
        assert_eq!(
            dl.cycle,
            ref_find_cycle(&ref_matched(&g)).unwrap_or_default()
        );
    }
}

#[test]
fn classify_agrees_on_regular_patterns() {
    // Random edge lists are almost all irregular; build each pattern.
    for n in 1..=12usize {
        let mut shapes: Vec<Vec<Edge>> = Vec::new();
        for k in 0..n {
            shapes.push(
                (0..n)
                    .map(|s| Edge {
                        src: s,
                        dst: (s + k) % n,
                    })
                    .collect(),
            );
            shapes.push(
                (0..n.saturating_sub(k))
                    .map(|s| Edge { src: s, dst: s + k })
                    .collect(),
            );
        }
        shapes.push((1..n).map(|d| Edge { src: 0, dst: d }).collect());
        shapes.push((1..n).map(|s| Edge { src: s, dst: 0 }).collect());
        shapes.push(
            (0..n / 2 * 2)
                .map(|s| Edge { src: s, dst: s ^ 1 })
                .collect(),
        );
        shapes.push(
            (0..n / 2)
                .map(|p| Edge {
                    src: 2 * p,
                    dst: 2 * p + 1,
                })
                .collect(),
        );
        for sends in shapes {
            let g = CommGraph {
                recvs: sends.clone(),
                sends,
                ..CommGraph::default()
            };
            assert_eq!(
                classify(&g.matching(), n),
                ref_classify(ref_matched(&g), n),
                "{g:?}"
            );
        }
    }
}

#[test]
fn find_cycle_equals_the_map_search() {
    let mut rng = Rng(SEED ^ 0xC7C1E);
    for case in 0..CASES {
        // Union lists like the region-wide check's: several matched lists
        // concatenated, so unsorted, with duplicates and self-edges; every
        // other case spreads ranks sparsely so some ranks have no out-edges.
        let n = 1 + rng.below(12);
        let scale = if case % 2 == 0 { 1 } else { 97 };
        let mut all: Vec<Edge> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            all.extend(edges(&mut rng, n).into_iter().map(|e| Edge {
                src: e.src * scale,
                dst: e.dst * scale,
            }));
        }
        assert_eq!(find_cycle(&all), ref_find_cycle(&all), "{all:?}");
    }
}
