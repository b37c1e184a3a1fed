//! Event tracing: an optional, low-overhead record of every communication
//! operation with its virtual timestamp. Used by tests to assert on the
//! *structure* of generated communication (e.g. "the directive version
//! issues exactly one waitall"), by examples to print timelines, and by
//! `commscope` for wait-state analysis and Chrome-trace export.
//!
//! Every event carries a *span* (`start..time` in virtual ns) and, when the
//! operation was issued from inside a directive, the [`SiteId`] of the
//! `comm_p2p` instance that caused it — the link between fabric-level
//! events and the source-level communication intent.

use parking_lot::Mutex;

use crate::time::Time;

/// Stable identity of a directive call site (the `site(u32)` passed to the
/// directive builder / recorded in `P2pSpec::site`). The same numbering is
/// used by `commlint`'s report JSON, so static findings and dynamic
/// profiles join on it.
pub type SiteId = u32;

/// What happened.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Non-blocking send initiated.
    SendPost { dst: usize, tag: i32, bytes: usize },
    /// Non-blocking receive posted.
    RecvPost {
        src: Option<usize>,
        tag: Option<i32>,
    },
    /// A receive completed. `posted` is the virtual time the receive was
    /// posted; `completion` is the virtual time the data was available
    /// (independent of when the waiting clock charge lands).
    RecvDone {
        src: usize,
        tag: i32,
        bytes: usize,
        unexpected: bool,
        posted: Time,
        completion: Time,
    },
    /// A single-request wait call (clock charged `o_wait`). `horizon` is
    /// the raw completion the wait resolved to (send departure or receive
    /// completion) — `horizon > start` means the rank was blocked.
    Wait { horizon: Time },
    /// A consolidated completion over `n` requests; `horizon` is the
    /// maximum completion folded into the clock.
    Waitall { n: usize, horizon: Time },
    /// One-sided put initiated.
    Put { dst: usize, bytes: usize },
    /// One-sided get performed.
    Get { src: usize, bytes: usize },
    /// Quiet/flush of outstanding puts; `horizon` is the latest arrival.
    Quiet { outstanding: usize, horizon: Time },
    /// Barrier crossed (clock reconciled). The span `start..time` is this
    /// rank's entry..exit; the last-entering rank had the shortest span.
    Barrier { group_len: usize },
    /// Local computation block.
    Compute { ns: u64 },
    /// Explicit pack/unpack copy of `bytes`.
    Pack { bytes: usize },
    /// Derived datatype committed.
    DatatypeCommit,
}

/// One trace record.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Emitting rank.
    pub rank: usize,
    /// The rank's virtual clock *after* the operation.
    pub time: Time,
    /// The rank's virtual clock when the operation began (`start == time`
    /// for instantaneous records).
    pub start: Time,
    /// Directive call site that issued this operation, when known.
    pub site: Option<SiteId>,
    /// The operation.
    pub kind: EventKind,
}

/// A shared sink collecting events from all ranks.
#[derive(Default)]
pub struct TraceSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event.
    pub fn record(&self, ev: TraceEvent) {
        self.events.lock().push(ev);
    }

    /// Drain all events, sorted by (time, rank) for stable inspection.
    pub fn take(&self) -> Vec<TraceEvent> {
        let mut evs = std::mem::take(&mut *self.events.lock());
        evs.sort_by_key(|e| (e.time, e.rank));
        evs
    }
}

/// Whether a counter is a pure function of the simulated program or of the
/// host's thread interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterKind {
    /// Identical under every engine and worker count: reports carry it
    /// under `stats` and baselines gate it exactly.
    Virtual,
    /// Interleaving-dependent hot-path contention: reports carry it in the
    /// one-line `contention` array and baselines only warn on drift.
    Physical,
}

/// How per-rank values combine into a whole-job total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    Sum,
    /// High-water marks: the job-wide value is the worst single rank.
    Max,
}

/// One row of the counter table ([`RankStats::COUNTERS`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter {
    pub name: &'static str,
    pub kind: CounterKind,
    pub merge: Merge,
}

/// Declares [`RankStats`] from the counter table below: the struct (one
/// plain `usize` field per row, so hot-path increments stay field adds),
/// the ordered row metadata, and by-value and by-reference iteration in
/// table order. Everything else — merging, reports, the ledger, `--stats`
/// and the engine-equivalence tests — iterates the table.
macro_rules! rank_stats {
    ($($(#[doc = $doc:literal])+ $name:ident: $kind:ident, $merge:ident;)+) => {
        /// Per-rank running statistics, kept unconditionally (cheap counters).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct RankStats {
            $($(#[doc = $doc])+ pub $name: usize,)+
        }

        impl RankStats {
            /// The counter table, in declaration order (the `--json`
            /// schema order).
            pub const COUNTERS: &'static [Counter] = &[$(Counter {
                name: stringify!($name),
                kind: CounterKind::$kind,
                merge: Merge::$merge,
            },)+];

            /// Every counter with its value, in table order.
            pub fn values(&self) -> impl Iterator<Item = (&'static Counter, usize)> {
                Self::COUNTERS.iter().zip([$(self.$name),+])
            }

            /// Every counter with a mutable reference to its value, in
            /// table order.
            pub fn values_mut(&mut self) -> impl Iterator<Item = (&'static Counter, &mut usize)> {
                Self::COUNTERS.iter().zip([$(&mut self.$name),+])
            }
        }
    };
}

// The counter table. Adding a counter is one row here plus its increment
// site. Rows are in report-schema order: append new rows, never reorder.
rank_stats! {
    /// Two-sided messages initiated.
    sends: Virtual, Sum;
    /// Receives posted.
    recvs: Virtual, Sum;
    /// Bytes moved by two-sided sends.
    bytes_sent: Virtual, Sum;
    /// Single-request wait calls.
    waits: Virtual, Sum;
    /// Consolidated waitall calls.
    waitalls: Virtual, Sum;
    /// One-sided puts initiated.
    puts: Virtual, Sum;
    /// Bytes moved by puts.
    bytes_put: Virtual, Sum;
    /// One-sided gets.
    gets: Virtual, Sum;
    /// Barriers crossed.
    barriers: Virtual, Sum;
    /// Quiet/flush calls.
    quiets: Virtual, Sum;
    /// Explicit pack/unpack bytes copied.
    packed_bytes: Virtual, Sum;
    /// Derived datatypes committed.
    datatype_commits: Virtual, Sum;
    /// Accesses checked by the race sanitizer on this rank (0 when off).
    race_checks: Virtual, Sum;
    /// Conflicting unordered access pairs the sanitizer attributed to this
    /// rank (the second access of each pair). Zero on a clean run.
    conflicts_found: Virtual, Sum;
    /// Datatype-cache lookups that found an already-committed layout (the
    /// commit cost was elided on these region executions).
    dtype_cache_hits: Virtual, Sum;
    /// High-water mark of this rank's unexpected-message queue.
    uq_high_water: Physical, Max;
    /// Matching-engine scan steps in this rank's mailbox.
    match_scan_steps: Physical, Sum;
    /// Mailbox lock acquisitions (deliveries into + posts on this rank).
    mailbox_locks: Physical, Sum;
}

impl Merge {
    fn apply(self, a: usize, b: usize) -> usize {
        match self {
            Merge::Sum => a + b,
            Merge::Max => a.max(b),
        }
    }
}

impl RankStats {
    /// Merge another rank's counters into this one (for whole-job totals).
    pub fn merge(&mut self, other: &RankStats) {
        for ((c, slot), (_, v)) in self.values_mut().zip(other.values()) {
            *slot = c.merge.apply(*slot, v);
        }
    }

    /// The counters of one kind with their values, in table order.
    pub fn of_kind(&self, kind: CounterKind) -> impl Iterator<Item = (&'static Counter, usize)> {
        self.values().filter(move |(c, _)| c.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_records_and_sorts() {
        let sink = TraceSink::new();
        sink.record(TraceEvent {
            rank: 1,
            time: Time(20),
            start: Time(5),
            site: None,
            kind: EventKind::Wait { horizon: Time(18) },
        });
        sink.record(TraceEvent {
            rank: 0,
            time: Time(10),
            start: Time(10),
            site: Some(3),
            kind: EventKind::Waitall {
                n: 4,
                horizon: Time(9),
            },
        });
        let evs = sink.take();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].time, Time(10));
        assert_eq!(evs[1].rank, 1);
        assert!(sink.take().is_empty());
    }

    #[test]
    fn stats_merge() {
        let mut a = RankStats {
            sends: 1,
            bytes_sent: 100,
            waits: 2,
            uq_high_water: 7,
            ..RankStats::default()
        };
        let b = RankStats {
            sends: 3,
            bytes_sent: 50,
            waitalls: 1,
            barriers: 2,
            uq_high_water: 4,
            ..RankStats::default()
        };
        a.merge(&b);
        assert_eq!(a.sends, 4);
        assert_eq!(a.bytes_sent, 150);
        assert_eq!(a.waits, 2);
        assert_eq!(a.waitalls, 1);
        assert_eq!(a.barriers, 2);
        // A job-wide high-water mark is the worst single mailbox, not a sum.
        assert_eq!(a.uq_high_water, 7);
    }
}
