//! Wait-state analysis over the runtime's event trace.
//!
//! The trace schema makes exact decomposition possible: every blocking
//! operation carries its span (`start..time`) *and* the raw completion
//! `horizon` it resolved to. A wait of duration `time - start` therefore
//! splits exactly into
//!
//! * a **blocked** part `min(time - start, horizon - start)` — virtual time
//!   the rank spent waiting on a remote event, blamed on a *culprit* rank
//!   (the late sender for a receive wait, the last-entering rank for a
//!   barrier, the rank itself for a quiet/drain), and
//! * an **overhead** part (the remainder) — software cost of the call
//!   itself, always blamed on the waiting rank.
//!
//! The two parts sum to the measured span by construction, so per-rank
//! blame totals sum exactly to total measured wait time — an invariant the
//! property tests enforce.
//!
//! The same trace supports exact **critical-path extraction**: walking
//! backward from the rank that finishes last, each blocked wait hops to the
//! event that released it (the matched `SendPost` for a late-sender wait,
//! the last-entering rank for a barrier), and everything else walks back
//! locally. Message pairing uses the fabric's per-channel FIFO guarantee:
//! the k-th receive completed on channel `(src, dst, tag)` matches the k-th
//! send posted on it.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use netsim::trace::{EventKind, SiteId, TraceEvent};
use netsim::Time;

/// Why a rank was blocked in a wait interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitKind {
    /// Blocked in wait/waitall for a receive whose sender posted late (or
    /// whose data was still in flight).
    LateSender,
    /// Blocked in wait for a send still draining toward its destination.
    LateReceiver,
    /// Blocked in a barrier for the last-entering rank.
    Barrier,
    /// Blocked in quiet/fence draining this rank's own outstanding puts.
    Quiet,
    /// Not blocked at all: pure software overhead of a completion call.
    Overhead,
}

impl WaitKind {
    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            WaitKind::LateSender => "late_sender",
            WaitKind::LateReceiver => "late_receiver",
            WaitKind::Barrier => "barrier",
            WaitKind::Quiet => "quiet",
            WaitKind::Overhead => "overhead",
        }
    }
}

/// One analyzed wait interval on one rank.
#[derive(Clone, Debug)]
pub struct WaitInterval {
    /// The waiting rank.
    pub rank: usize,
    /// Span of the completion call, virtual ns.
    pub start: Time,
    pub end: Time,
    /// Dominant classification of the interval.
    pub kind: WaitKind,
    /// Directive site of the completion call, when known.
    pub site: Option<SiteId>,
    /// Virtual ns blocked on the culprit.
    pub blocked_ns: u64,
    /// Virtual ns of call overhead (blamed on `rank` itself).
    pub overhead_ns: u64,
    /// Rank blamed for the blocked part.
    pub culprit: usize,
}

/// Per-rank wait-state summary. `blame[r]` is the virtual ns of this rank's
/// wait time attributable to rank `r`; the vector sums to `total_wait_ns`.
#[derive(Clone, Debug)]
pub struct RankWaitProfile {
    pub rank: usize,
    /// Total measured wait (sum of completion-call spans), virtual ns.
    pub total_wait_ns: u64,
    /// Blocked ns by classification.
    pub late_sender_ns: u64,
    pub late_receiver_ns: u64,
    pub barrier_ns: u64,
    pub quiet_ns: u64,
    /// Software overhead of completion calls, ns.
    pub overhead_ns: u64,
    /// Blame attribution, indexed by culprit rank. Sums to `total_wait_ns`.
    pub blame: Vec<u64>,
}

/// One segment of the critical path (in forward time order after
/// [`Analysis::critical_path`] is built).
#[derive(Clone, Debug)]
pub struct PathSegment {
    pub rank: usize,
    pub start: Time,
    pub end: Time,
    /// Stable label: an event-kind name (`"compute"`, `"waitall"`, ...) or
    /// `"local"` for untraced local progress between events.
    pub label: &'static str,
    pub site: Option<SiteId>,
}

/// The full analysis result.
#[derive(Clone, Debug)]
pub struct Analysis {
    pub nranks: usize,
    /// Job makespan: the latest final rank clock.
    pub makespan: Time,
    /// Every completion-call interval, in trace order.
    pub intervals: Vec<WaitInterval>,
    /// Per-rank summaries, indexed by rank.
    pub ranks: Vec<RankWaitProfile>,
    /// Exact critical path from t=0 to the makespan, forward time order.
    pub critical_path: Vec<PathSegment>,
}

/// Upper bound on critical-path segments; a correctly-formed trace of the
/// figure workloads stays far below this, and a malformed one must not spin.
const PATH_SEGMENT_CAP: usize = 100_000;

/// Stable lowercase label for an event kind (used in exports).
pub fn kind_label(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::SendPost { .. } => "send",
        EventKind::RecvPost { .. } => "recv_post",
        EventKind::RecvDone { .. } => "recv",
        EventKind::Wait { .. } => "wait",
        EventKind::Waitall { .. } => "waitall",
        EventKind::Put { .. } => "put",
        EventKind::Get { .. } => "get",
        EventKind::Quiet { .. } => "quiet",
        EventKind::Barrier { .. } => "barrier",
        EventKind::Compute { .. } => "compute",
        EventKind::Pack { .. } => "pack",
        EventKind::DatatypeCommit => "datatype_commit",
    }
}

/// Pair every `RecvDone` event with the `SendPost` that produced it, using
/// the fabric's FIFO non-overtaking guarantee per `(src, dst, tag)` channel.
/// Returns a map from `RecvDone` event index to `SendPost` event index.
pub fn pair_messages(events: &[TraceEvent]) -> HashMap<usize, usize> {
    // Per-channel FIFO of unmatched send event indices, in trace order.
    // The trace is sorted by (time, rank) with per-rank program order
    // preserved, and sends depart in post order per channel, so walking the
    // whole trace front-to-back visits each channel's sends in match order.
    let mut sends: HashMap<(usize, usize, i32), std::collections::VecDeque<usize>> = HashMap::new();
    let mut pairs = HashMap::new();
    // Receives must also be matched in completion order per channel, which
    // trace order does not guarantee (a rank may wait on recvs out of
    // completion order). Collect and sort by completion instead.
    let mut recvs: Vec<(usize, usize, usize, i32, Time)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        match &ev.kind {
            EventKind::SendPost { dst, tag, .. } => {
                sends.entry((ev.rank, *dst, *tag)).or_default().push_back(i);
            }
            EventKind::RecvDone {
                src,
                tag,
                completion,
                ..
            } => {
                recvs.push((i, *src, ev.rank, *tag, *completion));
            }
            _ => {}
        }
    }
    recvs.sort_by_key(|&(i, _, _, _, completion)| (completion, i));
    for (i, src, dst, tag, _) in recvs {
        if let Some(q) = sends.get_mut(&(src, dst, tag)) {
            if let Some(s) = q.pop_front() {
                pairs.insert(i, s);
            }
        }
    }
    pairs
}

/// Analyze a time-sorted trace (as returned by `TraceSink::take`).
///
/// `final_times[r]` is rank `r`'s final virtual clock (from
/// `SimResult::times`); `nranks` must cover every rank in the trace.
pub fn analyze(events: &[TraceEvent], nranks: usize, final_times: &[Time]) -> Analysis {
    assert_eq!(final_times.len(), nranks, "one final time per rank");

    // --- Index structures -------------------------------------------------
    // Per-rank event indices (trace order == per-rank program order).
    let mut per_rank: Vec<Vec<usize>> = vec![Vec::new(); nranks];
    // (rank, completion) -> RecvDone event index, first occurrence wins
    // (deterministic because trace order is deterministic).
    let mut recv_at: HashMap<(usize, u64), usize> = HashMap::new();
    // Barrier clusters keyed by (exit time, group_len): member event indices.
    let mut barrier_clusters: HashMap<(u64, usize), Vec<usize>> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        assert!(ev.rank < nranks, "trace rank {} out of range", ev.rank);
        per_rank[ev.rank].push(i);
        match &ev.kind {
            EventKind::RecvDone { completion, .. } => {
                recv_at.entry((ev.rank, completion.as_nanos())).or_insert(i);
            }
            EventKind::Barrier { group_len } => {
                barrier_clusters
                    .entry((ev.time.as_nanos(), *group_len))
                    .or_default()
                    .push(i);
            }
            _ => {}
        }
    }
    let pairs = pair_messages(events);

    // The culprit of a barrier cluster: the last rank to enter (greatest
    // span start; ties broken by rank for determinism).
    let barrier_culprit: HashMap<(u64, usize), usize> = barrier_clusters
        .iter()
        .map(|(key, members)| {
            let culprit = members
                .iter()
                .map(|&i| (events[i].start, events[i].rank))
                .max()
                .map(|(_, r)| r)
                .unwrap_or(0);
            (*key, culprit)
        })
        .collect();

    // --- Wait intervals ---------------------------------------------------
    let mut intervals = Vec::new();
    let mut ranks: Vec<RankWaitProfile> = (0..nranks)
        .map(|r| RankWaitProfile {
            rank: r,
            total_wait_ns: 0,
            late_sender_ns: 0,
            late_receiver_ns: 0,
            barrier_ns: 0,
            quiet_ns: 0,
            overhead_ns: 0,
            blame: vec![0; nranks],
        })
        .collect();

    for ev in events {
        let span = ev.time.saturating_sub(ev.start).as_nanos();
        let (horizon, base_kind) = match &ev.kind {
            EventKind::Wait { horizon } | EventKind::Waitall { horizon, .. } => {
                (*horizon, WaitKind::LateSender)
            }
            EventKind::Quiet { horizon, .. } => (*horizon, WaitKind::Quiet),
            EventKind::Barrier { .. } => (ev.time, WaitKind::Barrier),
            _ => continue,
        };
        let blocked = horizon.saturating_sub(ev.start).as_nanos().min(span);
        let overhead = span - blocked;
        let (kind, culprit) = if blocked == 0 {
            (WaitKind::Overhead, ev.rank)
        } else {
            match base_kind {
                WaitKind::Barrier => {
                    let key = (ev.time.as_nanos(), barrier_group_len(&ev.kind));
                    (WaitKind::Barrier, barrier_culprit[&key])
                }
                WaitKind::Quiet => (WaitKind::Quiet, ev.rank),
                _ => {
                    // A wait horizon matching a receive completion on this
                    // rank means a late sender; otherwise the call resolved
                    // to a send departure still draining toward a receiver.
                    match recv_at.get(&(ev.rank, horizon.as_nanos())) {
                        Some(&ri) => {
                            let src = match &events[ri].kind {
                                EventKind::RecvDone { src, .. } => *src,
                                _ => unreachable!(),
                            };
                            (WaitKind::LateSender, src)
                        }
                        None => (WaitKind::LateReceiver, ev.rank),
                    }
                }
            }
        };

        let p = &mut ranks[ev.rank];
        p.total_wait_ns += span;
        p.overhead_ns += overhead;
        p.blame[ev.rank] += overhead;
        p.blame[culprit] += blocked;
        match kind {
            WaitKind::LateSender => p.late_sender_ns += blocked,
            WaitKind::LateReceiver => p.late_receiver_ns += blocked,
            WaitKind::Barrier => p.barrier_ns += blocked,
            WaitKind::Quiet => p.quiet_ns += blocked,
            WaitKind::Overhead => {}
        }
        intervals.push(WaitInterval {
            rank: ev.rank,
            start: ev.start,
            end: ev.time,
            kind,
            site: ev.site,
            blocked_ns: blocked,
            overhead_ns: overhead,
            culprit,
        });
    }

    // --- Critical path ----------------------------------------------------
    let makespan = final_times.iter().copied().max().unwrap_or(Time::ZERO);
    let critical_path = extract_critical_path(
        events,
        &per_rank,
        &recv_at,
        &pairs,
        &barrier_clusters,
        final_times,
    );

    Analysis {
        nranks,
        makespan,
        intervals,
        ranks,
        critical_path,
    }
}

fn barrier_group_len(kind: &EventKind) -> usize {
    match kind {
        EventKind::Barrier { group_len } => *group_len,
        _ => 0,
    }
}

/// Backward walk from the last-finishing rank to t=0, hopping across ranks
/// at blocked waits, then reversed into forward order.
fn extract_critical_path(
    events: &[TraceEvent],
    per_rank: &[Vec<usize>],
    recv_at: &HashMap<(usize, u64), usize>,
    pairs: &HashMap<usize, usize>,
    barrier_clusters: &HashMap<(u64, usize), Vec<usize>>,
    final_times: &[Time],
) -> Vec<PathSegment> {
    let nranks = final_times.len();
    if nranks == 0 {
        return Vec::new();
    }
    // Last-finishing rank; ties to the lowest rank for determinism.
    let mut end_rank = 0usize;
    for r in 1..nranks {
        if final_times[r] > final_times[end_rank] {
            end_rank = r;
        }
    }

    let mut segments: Vec<PathSegment> = Vec::new();
    let mut rank = end_rank;
    let mut t = final_times[end_rank];
    // Per-rank walk frontier: events at positions >= cursor[rank] are
    // already on the path. Zero-span events leave `t` unchanged, so time
    // alone cannot guarantee progress — consuming each event at most once
    // does (the walk terminates within |events| + nranks segments).
    let mut cursor: Vec<usize> = per_rank.iter().map(Vec::len).collect();

    while t > Time::ZERO && segments.len() < PATH_SEGMENT_CAP {
        // Last unconsumed event on `rank` with time <= t. Per-rank times
        // are nondecreasing, so partition_point gives the boundary.
        let evs = &per_rank[rank];
        let n_le = evs
            .partition_point(|&i| events[i].time <= t)
            .min(cursor[rank]);
        if n_le == 0 {
            // Untraced prologue on this rank.
            segments.push(PathSegment {
                rank,
                start: Time::ZERO,
                end: t,
                label: "local",
                site: None,
            });
            break;
        }
        let ei = evs[n_le - 1];
        let ev = &events[ei];
        if ev.time < t {
            cursor[rank] = n_le;
            // Untraced local progress between the event and t.
            segments.push(PathSegment {
                rank,
                start: ev.time,
                end: t,
                label: "local",
                site: None,
            });
            t = ev.time;
            continue;
        }

        cursor[rank] = n_le - 1;
        segments.push(PathSegment {
            rank,
            start: ev.start,
            end: ev.time,
            label: kind_label(&ev.kind),
            site: ev.site,
        });

        // Where did the path come from?
        match &ev.kind {
            EventKind::Wait { horizon } | EventKind::Waitall { horizon, .. }
                if *horizon > ev.start =>
            {
                // Blocked on a remote completion: hop to the matched send
                // when the horizon is a receive completion on this rank.
                if let Some(&ri) = recv_at.get(&(rank, horizon.as_nanos())) {
                    if let Some(&si) = pairs.get(&ri) {
                        rank = events[si].rank;
                        t = events[si].time;
                        continue;
                    }
                }
                t = ev.start;
            }
            EventKind::RecvDone { completion, .. } if *completion > ev.start => {
                if let Some(&si) = pairs.get(&ei) {
                    rank = events[si].rank;
                    t = events[si].time;
                    continue;
                }
                t = ev.start;
            }
            EventKind::Barrier { group_len } if ev.time > ev.start => {
                // Hop to the last-entering member of this barrier cluster.
                let key = (ev.time.as_nanos(), *group_len);
                let last = barrier_clusters
                    .get(&key)
                    .and_then(|m| m.iter().map(|&i| (events[i].start, events[i].rank)).max());
                if let Some((start, r)) = last {
                    if r != rank {
                        rank = r;
                        t = start;
                        continue;
                    }
                }
                t = ev.start;
            }
            _ => {
                t = ev.start;
            }
        }
    }

    segments.reverse();
    segments
}

impl Analysis {
    /// Human-readable wait-state summary: the makespan, the job-wide wait
    /// decomposition, the five most-blamed ranks and the critical path's
    /// composition by event kind. One line per item, newline-terminated.
    pub fn summary(&self) -> String {
        let sum = |f: fn(&RankWaitProfile) -> u64| self.ranks.iter().map(f).sum::<u64>();
        let mut out = format!(
            "makespan: {} ({} ranks)\n\
             wait-state: total {}ns = late_sender {} + late_receiver {} + barrier {} \
             + quiet {} + overhead {}\n",
            self.makespan,
            self.nranks,
            sum(|p| p.total_wait_ns),
            sum(|p| p.late_sender_ns),
            sum(|p| p.late_receiver_ns),
            sum(|p| p.barrier_ns),
            sum(|p| p.quiet_ns),
            sum(|p| p.overhead_ns),
        );

        let mut blamed = vec![0u64; self.nranks];
        for p in &self.ranks {
            for (r, ns) in p.blame.iter().enumerate() {
                blamed[r] += ns;
            }
        }
        let mut order: Vec<usize> = (0..self.nranks).collect();
        order.sort_by_key(|&r| std::cmp::Reverse(blamed[r]));
        out.push_str("most blamed:");
        for &r in order.iter().take(5).filter(|&&r| blamed[r] > 0) {
            let _ = write!(out, " rank {r} ({}ns)", blamed[r]);
        }

        let mut on_path: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.critical_path {
            *on_path.entry(s.label).or_insert(0) += s.end.saturating_sub(s.start).as_nanos();
        }
        let _ = write!(
            out,
            "\ncritical path: {} segments, ends on rank {};",
            self.critical_path.len(),
            self.critical_path.last().map_or(0, |s| s.rank)
        );
        for (label, ns) in &on_path {
            let _ = write!(out, " {label}={ns}ns");
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: usize, start: u64, time: u64, site: Option<SiteId>, kind: EventKind) -> TraceEvent {
        TraceEvent {
            rank,
            time: Time(time),
            start: Time(start),
            site,
            kind,
        }
    }

    /// Rank 0 computes 100ns then sends; rank 1 posts early and waits,
    /// blocked ~from 10 to 150 on rank 0's late send.
    fn late_sender_trace() -> Vec<TraceEvent> {
        let mut evs = vec![
            ev(0, 0, 100, None, EventKind::Compute { ns: 100 }),
            ev(
                0,
                100,
                110,
                Some(3),
                EventKind::SendPost {
                    dst: 1,
                    tag: 7,
                    bytes: 64,
                },
            ),
            ev(
                1,
                0,
                10,
                Some(3),
                EventKind::RecvPost {
                    src: Some(0),
                    tag: Some(7),
                },
            ),
            ev(
                1,
                10,
                160,
                Some(3),
                EventKind::RecvDone {
                    src: 0,
                    tag: 7,
                    bytes: 64,
                    unexpected: false,
                    posted: Time(10),
                    completion: Time(150),
                },
            ),
            ev(1, 10, 160, Some(3), EventKind::Wait { horizon: Time(150) }),
        ];
        evs.sort_by_key(|e| (e.time, e.rank));
        evs
    }

    #[test]
    fn blame_sums_to_total_wait() {
        let evs = late_sender_trace();
        let a = analyze(&evs, 2, &[Time(110), Time(160)]);
        for p in &a.ranks {
            let blamed: u64 = p.blame.iter().sum();
            assert_eq!(blamed, p.total_wait_ns, "rank {}", p.rank);
        }
        // Rank 1 waited 150ns total: 140 blocked on rank 0, 10 overhead.
        assert_eq!(a.ranks[1].total_wait_ns, 150);
        assert_eq!(a.ranks[1].late_sender_ns, 140);
        assert_eq!(a.ranks[1].overhead_ns, 10);
        assert_eq!(a.ranks[1].blame[0], 140);
        assert_eq!(a.ranks[1].blame[1], 10);
        let summary = a.summary();
        assert!(
            summary.contains(
                "wait-state: total 150ns = late_sender 140 + late_receiver 0 + barrier 0 \
                 + quiet 0 + overhead 10\nmost blamed: rank 0 (140ns) rank 1 (10ns)\n"
            ),
            "{summary}"
        );
    }

    #[test]
    fn critical_path_hops_to_late_sender() {
        let evs = late_sender_trace();
        let a = analyze(&evs, 2, &[Time(110), Time(160)]);
        assert_eq!(a.makespan, Time(160));
        // Path must include rank 0's compute and end on rank 1.
        assert!(a
            .critical_path
            .iter()
            .any(|s| s.rank == 0 && s.label == "compute"));
        assert_eq!(a.critical_path.last().unwrap().rank, 1);
        // Forward order: times nondecreasing.
        for w in a.critical_path.windows(2) {
            assert!(w[0].end >= w[0].start);
        }
    }

    #[test]
    fn barrier_blames_last_entrant() {
        let evs = {
            let mut v = vec![
                ev(0, 5, 100, None, EventKind::Barrier { group_len: 2 }),
                ev(1, 90, 100, None, EventKind::Barrier { group_len: 2 }),
            ];
            v.sort_by_key(|e| (e.time, e.rank));
            v
        };
        let a = analyze(&evs, 2, &[Time(100), Time(100)]);
        assert_eq!(a.ranks[0].barrier_ns, 95);
        assert_eq!(a.ranks[0].blame[1], 95);
        assert_eq!(a.ranks[1].blame[1], 10);
        for p in &a.ranks {
            assert_eq!(p.blame.iter().sum::<u64>(), p.total_wait_ns);
        }
    }

    #[test]
    fn quiet_blamed_on_self() {
        let evs = vec![ev(
            0,
            10,
            50,
            Some(2),
            EventKind::Quiet {
                outstanding: 3,
                horizon: Time(45),
            },
        )];
        let a = analyze(&evs, 1, &[Time(50)]);
        assert_eq!(a.ranks[0].quiet_ns, 35);
        assert_eq!(a.ranks[0].overhead_ns, 5);
        assert_eq!(a.ranks[0].blame[0], 40);
        assert_eq!(a.intervals[0].kind, WaitKind::Quiet);
        assert_eq!(a.intervals[0].site, Some(2));
    }

    /// A zero-span event at the walk frontier leaves `t` unchanged; the
    /// per-rank cursor must still guarantee progress (regression: the walk
    /// used to re-select the same event until the segment cap).
    #[test]
    fn zero_span_events_do_not_stall_the_walk() {
        let evs = vec![
            ev(0, 0, 100, None, EventKind::Compute { ns: 100 }),
            ev(0, 100, 100, None, EventKind::DatatypeCommit),
            ev(0, 100, 100, None, EventKind::Pack { bytes: 8 }),
        ];
        let a = analyze(&evs, 1, &[Time(100)]);
        assert!(
            a.critical_path.len() <= evs.len() + 1,
            "walk stalled: {} segments",
            a.critical_path.len()
        );
        assert_eq!(a.critical_path.last().expect("non-empty").end, Time(100));
        assert_eq!(a.critical_path.first().expect("non-empty").start, Time(0));
    }
}
