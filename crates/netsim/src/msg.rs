//! Two-sided message envelopes, match selectors, and completion plumbing.
//!
//! The matching rules mirror MPI semantics: receives match on `(source, tag)`
//! with wildcards, in posting order; messages from one source arrive in
//! program order. Completion *times* are computed purely from virtual
//! quantities (sender departure clock, receiver posting clock, payload size
//! and the wire cost parameters riding in the envelope), so the measured
//! timings are deterministic even though the simulator's ranks interleave
//! nondeterministically in wall-clock time.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::model::CostModel;
use crate::time::Time;

/// Source selector for a receive: a specific rank or any sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SrcSel {
    /// Match only messages from this global rank.
    Exact(usize),
    /// Match a message from any rank (`MPI_ANY_SOURCE`).
    Any,
}

impl SrcSel {
    /// Whether a message from `src` satisfies this selector.
    #[inline]
    pub fn matches(self, src: usize) -> bool {
        match self {
            SrcSel::Exact(r) => r == src,
            SrcSel::Any => true,
        }
    }
}

/// Tag selector for a receive: a specific tag, a half-open range, or any tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagSel {
    /// Match only this tag.
    Exact(i32),
    /// Match any tag in `lo..hi` (used by communicator layers to implement
    /// `MPI_ANY_TAG` within a per-communicator tag namespace).
    Range { lo: i32, hi: i32 },
    /// Match any tag (`MPI_ANY_TAG`).
    Any,
}

impl TagSel {
    /// Whether a message carrying `tag` satisfies this selector.
    #[inline]
    pub fn matches(self, tag: i32) -> bool {
        match self {
            TagSel::Exact(t) => t == tag,
            TagSel::Range { lo, hi } => lo <= tag && tag < hi,
            TagSel::Any => true,
        }
    }
}

/// The subset of [`CostModel`] parameters that travel with a message and
/// determine its transfer timing.
#[derive(Clone, Copy, Debug)]
pub struct WireCosts {
    /// Wire latency in ns.
    pub latency: u64,
    /// ns per byte.
    pub byte_time_ns: f64,
    /// Rendezvous handshake extra latency (ns).
    pub handshake: u64,
    /// Per-byte copy penalty for eagerly-arrived unexpected messages.
    pub unexpected_per_byte: f64,
    /// Whether this message uses the eager protocol.
    pub eager: bool,
}

impl WireCosts {
    /// Extract the wire parameters for a payload of `bytes` under `model`.
    pub fn for_message(model: &CostModel, bytes: usize) -> Self {
        WireCosts {
            latency: model.latency,
            byte_time_ns: model.byte_time_ns,
            handshake: model.rendezvous_handshake,
            unexpected_per_byte: model.unexpected_copy_per_byte,
            eager: model.is_eager(bytes),
        }
    }

    /// Virtual arrival time of an eager payload that departed at `depart`.
    #[inline]
    pub fn eager_arrival(&self, depart: Time, bytes: usize) -> Time {
        depart
            + Time::from_nanos(self.latency)
            + Time::from_nanos_f64(self.byte_time_ns * bytes as f64)
    }
}

/// Outcome of matching one envelope with one posted receive: the virtual
/// completion times on both sides.
#[derive(Clone, Copy, Debug)]
pub struct MatchTiming {
    /// When the receive completes (data available in the receive buffer).
    pub recv_complete: Time,
    /// When the send buffer becomes reusable.
    pub send_complete: Time,
    /// Whether the message (virtually) arrived before the receive was posted
    /// and paid the unexpected-message copy.
    pub unexpected: bool,
}

/// Compute the match timing for a message of `bytes` that departed the
/// sender's NIC at `depart`, matched by a receive posted at `post`.
///
/// Eager: the payload is in flight regardless of the receiver; if it arrives
/// (virtually) before the receive is posted it lands in the unexpected queue
/// and pays a copy. Rendezvous: the payload departs only after the
/// ready-to-send / clear-to-send exchange completes, which requires the
/// receive to be posted.
pub fn match_timing(costs: &WireCosts, bytes: usize, depart: Time, post: Time) -> MatchTiming {
    if costs.eager {
        let arrival = costs.eager_arrival(depart, bytes);
        let unexpected = arrival < post;
        let copy = if unexpected {
            Time::from_nanos_f64(costs.unexpected_per_byte * bytes as f64)
        } else {
            Time::ZERO
        };
        MatchTiming {
            recv_complete: arrival.max(post) + copy,
            // The eager protocol copies the payload out immediately; the send
            // buffer is reusable as soon as the call returns.
            send_complete: depart,
            unexpected,
        }
    } else {
        // RTS departs at `depart`, reaches the receiver after `latency`; the
        // transfer starts once both the RTS has arrived and the receive is
        // posted, plus the handshake round.
        let rts_arrival = depart + Time::from_nanos(costs.latency);
        let xfer_start = rts_arrival.max(post) + Time::from_nanos(costs.handshake);
        let arrival = xfer_start
            + Time::from_nanos(costs.latency)
            + Time::from_nanos_f64(costs.byte_time_ns * bytes as f64);
        MatchTiming {
            recv_complete: arrival,
            send_complete: arrival,
            unexpected: false,
        }
    }
}

/// A message in flight (or parked in the unexpected queue).
#[derive(Debug)]
pub struct Envelope {
    /// Global rank of the sender.
    pub src: usize,
    /// Global rank of the destination.
    pub dst: usize,
    /// Message tag (already namespaced by the communicator layer above).
    pub tag: i32,
    /// The payload bytes. Cheap to clone (refcounted).
    pub payload: Bytes,
    /// Sender's virtual clock when the message departed.
    pub depart: Time,
    /// Wire-cost parameters for this message.
    pub costs: WireCosts,
    /// Send-side completion cell, shared with the sender's [`SendRequest`].
    pub send_done: Arc<Completion>,
}

/// A one-shot completion cell carrying a virtual completion time.
#[derive(Debug, Default)]
pub struct Completion {
    state: Mutex<CompletionState>,
}

#[derive(Debug, Default)]
struct CompletionState {
    done: Option<Time>,
    /// Single-wake registration: the rank parked on this cell, queued on
    /// its carrier by the completer.
    waiter: Option<crate::sched::Waiter>,
}

impl Completion {
    pub fn new() -> Arc<Self> {
        Arc::new(Completion::default())
    }

    /// Mark complete at `t`. Idempotent (keeps the first value).
    pub fn set(&self, t: Time) {
        let mut g = self.state.lock();
        if g.done.is_some() {
            return;
        }
        g.done = Some(t);
        let waiter = g.waiter.take();
        drop(g);
        if let Some(w) = waiter {
            w.wake(t);
        }
    }

    /// Physically block until complete; returns the virtual completion time.
    /// The caller parks, switching back to its carrier, until the completer
    /// wakes it (single-wake protocol, see [`crate::sched`]); only a rank
    /// body may wait on a cell that is not complete yet.
    pub fn wait(&self) -> Time {
        let mut g = self.state.lock();
        if g.done.is_none() {
            debug_assert!(g.waiter.is_none(), "two ranks waiting one completion");
            g.waiter = Some(crate::sched::yield_slot());
            drop(g);
            crate::sched::park_self();
            g = self.state.lock();
        }
        g.done.expect("rank woken before completion")
    }

    /// Non-blocking poll.
    pub fn poll(&self) -> Option<Time> {
        self.state.lock().done
    }
}

/// Everything the receiver learns when its receive completes.
#[derive(Debug, Clone)]
pub struct RecvDone {
    /// The payload.
    pub payload: Bytes,
    /// Virtual time at which the receive completed.
    pub completion: Time,
    /// Whether the unexpected-message copy was paid.
    pub unexpected: bool,
    /// Actual source rank (useful with [`SrcSel::Any`]).
    pub src: usize,
    /// Actual tag (useful with [`TagSel::Any`]).
    pub tag: i32,
}

/// Receive-side completion cell.
#[derive(Debug, Default)]
pub struct RecvSlot {
    state: Mutex<RecvState>,
}

#[derive(Debug, Default)]
struct RecvState {
    done: Option<RecvDone>,
    /// Single-wake registration (see [`Completion`]).
    waiter: Option<crate::sched::Waiter>,
}

impl RecvSlot {
    pub fn new() -> Arc<Self> {
        Arc::new(RecvSlot::default())
    }

    pub fn set(&self, done: RecvDone) {
        let mut g = self.state.lock();
        debug_assert!(g.done.is_none(), "receive completed twice");
        let t = done.completion;
        g.done = Some(done);
        let waiter = g.waiter.take();
        drop(g);
        if let Some(w) = waiter {
            w.wake(t);
        }
    }

    /// Physically block until the matching message has been delivered,
    /// parking the calling rank as [`Completion::wait`] does.
    pub fn wait(&self) -> RecvDone {
        let mut g = self.state.lock();
        if g.done.is_none() {
            debug_assert!(g.waiter.is_none(), "two ranks waiting one receive");
            g.waiter = Some(crate::sched::yield_slot());
            drop(g);
            crate::sched::park_self();
            g = self.state.lock();
        }
        g.done.clone().expect("rank woken before delivery")
    }

    pub fn poll(&self) -> Option<RecvDone> {
        self.state.lock().done.clone()
    }
}

/// Handle for a pending (or complete) non-blocking send.
#[derive(Debug, Clone)]
pub struct SendRequest {
    pub(crate) done: Arc<Completion>,
    /// Payload size, for bookkeeping/stats.
    pub bytes: usize,
}

impl SendRequest {
    /// Physically block until the send buffer is (virtually) reusable;
    /// returns the completion time. Does **not** advance any clock — the
    /// caller decides how to charge the wait (per-call `o_wait` vs.
    /// consolidated `waitall`), which is the whole point of the paper.
    pub fn wait_raw(&self) -> Time {
        self.done.wait()
    }

    /// Non-blocking completion poll.
    pub fn poll(&self) -> Option<Time> {
        self.done.poll()
    }
}

/// Handle for a pending (or complete) non-blocking receive.
#[derive(Debug, Clone)]
pub struct RecvRequest {
    pub(crate) slot: Arc<RecvSlot>,
    /// Virtual time the receive was posted (receiver clock after `o_recv`);
    /// `completion - posted` is the posted-receive dwell.
    pub posted: Time,
}

impl RecvRequest {
    /// Physically block until the message is delivered; returns payload and
    /// virtual completion time. Does **not** advance any clock.
    pub fn wait_raw(&self) -> RecvDone {
        self.slot.wait()
    }

    /// Non-blocking completion poll.
    pub fn poll(&self) -> Option<RecvDone> {
        self.slot.poll()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(eager: bool) -> WireCosts {
        WireCosts {
            latency: 1_000,
            byte_time_ns: 1.0,
            handshake: 500,
            unexpected_per_byte: 0.5,
            eager,
        }
    }

    #[test]
    fn eager_expected_message() {
        // Receive posted before arrival: completes at arrival, no copy.
        let t = match_timing(&costs(true), 100, Time(0), Time(0));
        assert_eq!(t.recv_complete, Time(1_100));
        assert_eq!(t.send_complete, Time(0));
        assert!(!t.unexpected);
    }

    #[test]
    fn eager_unexpected_pays_copy() {
        // Receive posted long after arrival: completes at post + copy.
        let t = match_timing(&costs(true), 100, Time(0), Time(5_000));
        assert!(t.unexpected);
        assert_eq!(t.recv_complete, Time(5_000 + 50));
    }

    #[test]
    fn eager_boundary_not_unexpected() {
        // Arrival exactly at post time counts as expected.
        let t = match_timing(&costs(true), 100, Time(0), Time(1_100));
        assert!(!t.unexpected);
        assert_eq!(t.recv_complete, Time(1_100));
    }

    #[test]
    fn rendezvous_waits_for_post() {
        // depart=0, RTS arrives at 1000; post at 10_000 dominates.
        let t = match_timing(&costs(false), 1_000, Time(0), Time(10_000));
        // xfer_start = 10_000 + 500, arrival = +1_000 + 1_000 bytes
        assert_eq!(t.recv_complete, Time(12_500));
        assert_eq!(t.send_complete, t.recv_complete);
        assert!(!t.unexpected);
    }

    #[test]
    fn rendezvous_waits_for_rts() {
        // post long before depart: RTS arrival dominates.
        let t = match_timing(&costs(false), 1_000, Time(50_000), Time(0));
        assert_eq!(t.recv_complete, Time(50_000 + 1_000 + 500 + 1_000 + 1_000));
    }

    #[test]
    fn completion_cell_roundtrip() {
        let c = Completion::new();
        assert!(c.poll().is_none());
        c.set(Time(42));
        assert_eq!(c.poll(), Some(Time(42)));
        assert_eq!(c.wait(), Time(42));
        // Idempotent: second set keeps the first value.
        c.set(Time(99));
        assert_eq!(c.wait(), Time(42));
    }

    #[test]
    fn recv_slot_roundtrip() {
        let s = RecvSlot::new();
        assert!(s.poll().is_none());
        s.set(RecvDone {
            payload: Bytes::from_static(b"hi"),
            completion: Time(7),
            unexpected: false,
            src: 3,
            tag: 9,
        });
        let d = s.wait();
        assert_eq!(&d.payload[..], b"hi");
        assert_eq!(d.completion, Time(7));
        assert_eq!((d.src, d.tag), (3, 9));
    }

    #[test]
    #[should_panic(expected = "outside a simulated rank")]
    fn recv_slot_wait_outside_a_rank_panics() {
        // Nothing will ever set this slot, and a plain thread cannot park.
        RecvSlot::new().wait();
    }

    #[test]
    fn selectors() {
        assert!(SrcSel::Any.matches(5));
        assert!(SrcSel::Exact(5).matches(5));
        assert!(!SrcSel::Exact(5).matches(4));
        assert!(TagSel::Any.matches(-1));
        assert!(TagSel::Exact(2).matches(2));
        assert!(!TagSel::Exact(2).matches(3));
    }
}
