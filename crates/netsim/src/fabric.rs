//! The shared machine state: per-rank mailboxes (tag matching), group
//! barriers with clock reconciliation, and the one-sided symmetric segment
//! store with per-delivery signals.

use std::borrow::Borrow;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::msg::{
    match_timing, Completion, Envelope, RecvDone, RecvRequest, RecvSlot, SendRequest, SrcSel,
    TagSel, WireCosts,
};
use crate::time::Time;
use crate::trace::RankStats;

// ---------------------------------------------------------------------------
// Mailboxes / tag matching
// ---------------------------------------------------------------------------

struct PostedRecv {
    tag: TagSel,
    post_time: Time,
    /// Global posting-order stamp across both lanes; MPI requires receives
    /// to match in posting order regardless of selector shape.
    post_seq: u64,
    slot: Arc<RecvSlot>,
}

/// Indexed matching state. Instead of one flat unexpected queue scanned (and
/// a `HashMap` rebuilt) on every post, both sides of the match are indexed by
/// source rank:
///
/// * `unexpected[src]` — parked envelopes from `src`, in arrival order. A
///   source's messages enter the mailbox in program order, so the front-most
///   tag match in its lane *is* that source's oldest eligible candidate
///   (MPI non-overtaking), found without touching other sources' traffic.
/// * `posted_exact[src]` — posted receives pinned to `SrcSel::Exact(src)`.
/// * `posted_any` — the wildcard lane (`SrcSel::Any` receives).
///
/// The exact-source/exact-tag fast path is O(1); wildcard posts are
/// O(active sources); deliveries scan one exact lane plus the wildcard lane.
/// `active_srcs` keeps the set of non-empty unexpected lanes sorted so
/// wildcard scans are deterministic and skip idle sources.
struct MailboxInner {
    unexpected: Lanes<Envelope>,
    /// Sources with a non-empty `unexpected` lane, ascending.
    active_srcs: Vec<usize>,
    unexpected_total: usize,
    posted_exact: Lanes<PostedRecv>,
    posted_any: VecDeque<PostedRecv>,
    posted_total: usize,
    /// Only the physical (contention) counters are bumped here, under the
    /// lock the matching engine already holds; the runtime merges them
    /// into the owning rank's stats after the run.
    stats: RankStats,
}

/// One mailbox's per-source queues, sorted by source and each created on
/// its source's first use. A rank hears from few sources; a lane per rank
/// would cost every run of `n` ranks `n²` lanes before its first message.
struct Lanes<T>(Vec<(usize, VecDeque<T>)>);

impl<T> Lanes<T> {
    /// The entries of `src`'s lane, front first (none if it was never used).
    fn iter(&self, src: usize) -> impl Iterator<Item = &T> {
        let i = self.0.binary_search_by_key(&src, |(s, _)| *s).ok();
        i.into_iter().flat_map(|i| &self.0[i].1)
    }

    /// `src`'s lane, created empty on first use.
    fn lane(&mut self, src: usize) -> &mut VecDeque<T> {
        let i = match self.0.binary_search_by_key(&src, |(s, _)| *s) {
            Ok(i) => i,
            Err(i) => {
                self.0.insert(i, (src, VecDeque::new()));
                i
            }
        };
        &mut self.0[i].1
    }
}

/// One rank's incoming-message matching engine.
pub struct Mailbox {
    inner: Mutex<MailboxInner>,
    /// Posting-order stamp, taken outside the matching lock. Only the owning
    /// rank posts receives to its own mailbox, so an atomic fetch-add
    /// preserves program order exactly.
    post_seq: AtomicU64,
}

impl MailboxInner {
    fn note_parked(&mut self, src: usize) {
        if self.unexpected.lane(src).len() == 1 {
            // Lane just became non-empty.
            let pos = self.active_srcs.partition_point(|&s| s < src);
            self.active_srcs.insert(pos, src);
        }
        self.unexpected_total += 1;
        if self.unexpected_total > self.stats.uq_high_water {
            self.stats.uq_high_water = self.unexpected_total;
        }
    }

    fn take_unexpected(&mut self, src: usize, idx: usize) -> Envelope {
        let lane = self.unexpected.lane(src);
        let env = lane.remove(idx).expect("index valid");
        if lane.is_empty() {
            if let Ok(pos) = self.active_srcs.binary_search(&src) {
                self.active_srcs.remove(pos);
            }
        }
        self.unexpected_total -= 1;
        env
    }

    /// Front-most tag match in `src`'s unexpected lane: the oldest eligible
    /// candidate from that source under non-overtaking.
    fn oldest_match(&mut self, src: usize, tag: TagSel) -> Option<usize> {
        let mut steps = 0;
        let mut hit = None;
        for (i, e) in self.unexpected.iter(src).enumerate() {
            steps += 1;
            if tag.matches(e.tag) {
                hit = Some(i);
                break;
            }
        }
        self.stats.match_scan_steps += steps;
        hit
    }
}

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            inner: Mutex::new(MailboxInner {
                unexpected: Lanes(Vec::new()),
                active_srcs: Vec::new(),
                unexpected_total: 0,
                posted_exact: Lanes(Vec::new()),
                posted_any: VecDeque::new(),
                posted_total: 0,
                stats: RankStats::default(),
            }),
            post_seq: AtomicU64::new(0),
        }
    }

    /// Deliver an envelope: match against posted receives (in posting order)
    /// or park it in the per-source unexpected lane.
    fn deliver(&self, env: Envelope) {
        let mut g = self.inner.lock();
        g.stats.mailbox_locks += 1;
        // Earliest-posted matching receive: the front-most tag match in the
        // sender's exact lane vs. the front-most match in the wildcard
        // lane, whichever was posted first. Each lane is in posting order,
        // so the two lane-firsts bracket every candidate.
        let mut steps = 0;
        let mut exact_hit: Option<(usize, u64)> = None;
        for (i, p) in g.posted_exact.iter(env.src).enumerate() {
            steps += 1;
            if p.tag.matches(env.tag) {
                exact_hit = Some((i, p.post_seq));
                break;
            }
        }
        let mut any_hit: Option<(usize, u64)> = None;
        for (i, p) in g.posted_any.iter().enumerate() {
            steps += 1;
            if p.tag.matches(env.tag) {
                any_hit = Some((i, p.post_seq));
                break;
            }
        }
        g.stats.match_scan_steps += steps;
        let winner = match (exact_hit, any_hit) {
            (Some((i, a)), Some((_, b))) if a < b => Some((true, i)),
            (Some(_), Some((j, _))) => Some((false, j)),
            (Some((i, _)), None) => Some((true, i)),
            (None, Some((j, _))) => Some((false, j)),
            (None, None) => None,
        };
        match winner {
            Some((in_exact, idx)) => {
                let posted = if in_exact {
                    g.posted_exact
                        .lane(env.src)
                        .remove(idx)
                        .expect("index valid")
                } else {
                    g.posted_any.remove(idx).expect("index valid")
                };
                g.posted_total -= 1;
                drop(g);
                complete_match(env, posted.post_time, &posted.slot);
            }
            None => {
                // Eager messages complete the sender immediately; rendezvous
                // sends stay pending until matched.
                if env.costs.eager {
                    env.send_done.set(env.depart);
                }
                let src = env.src;
                g.unexpected.lane(src).push_back(env);
                g.note_parked(src);
            }
        }
    }

    /// Post a receive at virtual time `post_time`. If a matching message is
    /// already parked, the receive completes immediately; otherwise it is
    /// queued for the next matching delivery.
    fn post(&self, src: SrcSel, tag: TagSel, post_time: Time, slot: Arc<RecvSlot>) {
        let seq = self.post_seq.fetch_add(1, Ordering::Relaxed);
        let mut g = self.inner.lock();
        g.stats.mailbox_locks += 1;
        // MPI non-overtaking: per source, messages match in send order, so
        // only each source's *oldest* parked candidate is eligible — the
        // front-most tag match in its lane. Among eligible candidates from
        // different sources, pick the earliest virtual arrival, tie-broken
        // by source rank. Both key components are virtual quantities, so the
        // choice is independent of the physical order in which the parked
        // messages were delivered — and therefore of the execution engine.
        let best: Option<(usize, usize)> = match src {
            SrcSel::Exact(s) => g.oldest_match(s, tag).map(|i| (s, i)),
            SrcSel::Any => {
                let active = std::mem::take(&mut g.active_srcs);
                let mut best: Option<(usize, usize, (Time, usize))> = None;
                for &s in &active {
                    if let Some(i) = g.oldest_match(s, tag) {
                        let e = &g.unexpected.lane(s)[i];
                        let key = (e.costs.eager_arrival(e.depart, e.payload.len()), s);
                        if best.map(|(_, _, k)| key < k).unwrap_or(true) {
                            best = Some((s, i, key));
                        }
                    }
                }
                g.active_srcs = active;
                best.map(|(s, i, _)| (s, i))
            }
        };
        match best {
            Some((s, i)) => {
                let env = g.take_unexpected(s, i);
                drop(g);
                complete_match(env, post_time, &slot);
            }
            None => {
                let posted = PostedRecv {
                    tag,
                    post_time,
                    post_seq: seq,
                    slot,
                };
                match src {
                    SrcSel::Exact(s) => g.posted_exact.lane(s).push_back(posted),
                    SrcSel::Any => g.posted_any.push_back(posted),
                }
                g.posted_total += 1;
            }
        }
    }

    /// Number of parked unexpected messages (diagnostics).
    pub fn unexpected_len(&self) -> usize {
        self.inner.lock().unexpected_total
    }

    /// Number of outstanding posted receives (diagnostics).
    pub fn posted_len(&self) -> usize {
        self.inner.lock().posted_total
    }

    /// Snapshot of the hot-path contention counters.
    pub fn stats(&self) -> RankStats {
        self.inner.lock().stats
    }
}

fn complete_match(env: Envelope, post_time: Time, slot: &RecvSlot) {
    let bytes = env.payload.len();
    let timing = match_timing(&env.costs, bytes, env.depart, post_time);
    env.send_done.set(timing.send_complete);
    slot.set(RecvDone {
        payload: env.payload,
        completion: timing.recv_complete,
        unexpected: timing.unexpected,
        src: env.src,
        tag: env.tag,
    });
}

// ---------------------------------------------------------------------------
// Group barriers with clock reconciliation
// ---------------------------------------------------------------------------

struct BarrierInner {
    arrived: usize,
    max_entry: Time,
    exit_time: Time,
    /// Single-wake registrations: ranks parked in this generation, woken
    /// through the scheduler by the last arriver.
    waiters: Vec<crate::sched::Waiter>,
    /// The previous generation's list, emptied: the last arriver swaps it
    /// in for the next generation. Both lists hold room for every waiter
    /// from the start, so no arriver allocates, whichever arrives first.
    spare: Vec<crate::sched::Waiter>,
}

/// A reusable barrier over a fixed group size that also reconciles virtual
/// clocks: every participant leaves with `max(entry clocks) + cost`.
struct GroupBarrier {
    size: usize,
    inner: Mutex<BarrierInner>,
}

impl GroupBarrier {
    fn new(size: usize) -> Self {
        let waiters = size.saturating_sub(1);
        GroupBarrier {
            size,
            inner: Mutex::new(BarrierInner {
                arrived: 0,
                max_entry: Time::ZERO,
                exit_time: Time::ZERO,
                waiters: Vec::with_capacity(waiters),
                spare: Vec::with_capacity(waiters),
            }),
        }
    }

    /// Enter with local clock `entry`; returns the reconciled exit clock.
    /// `cost` is charged once on top of the max entry time (the last
    /// arriver's model decides it; all participants pass the same value in
    /// practice since they use the same library for the barrier).
    fn enter(&self, entry: Time, cost: Time) -> Time {
        let mut g = self.inner.lock();
        g.max_entry = g.max_entry.max(entry);
        g.arrived += 1;
        if g.arrived < self.size {
            g.waiters.push(crate::sched::yield_slot());
            drop(g);
            crate::sched::park_self();
            // Woken ⇒ our generation completed. The next generation cannot
            // finish (and overwrite `exit_time`) before we re-enter.
            return self.inner.lock().exit_time;
        }
        let exit = g.max_entry + cost;
        g.exit_time = exit;
        g.arrived = 0;
        g.max_entry = Time::ZERO;
        let spare = std::mem::take(&mut g.spare);
        let mut waiters = std::mem::replace(&mut g.waiters, spare);
        drop(g);
        // Wake parked ranks through the scheduler: each is queued on its
        // carrier at the reconciled exit clock.
        for w in waiters.drain(..) {
            w.wake(exit);
        }
        // The next generation cannot complete before this rank re-enters,
        // so the emptied list is back before anyone swaps it in again.
        self.inner.lock().spare = waiters;
        exit
    }
}

// ---------------------------------------------------------------------------
// Interned groups
// ---------------------------------------------------------------------------

/// A group of global ranks, ascending, interned by [`Fabric::group`]: equal
/// member lists on one fabric are one `Group`, so ranks that reach a group
/// by different routes (a communicator, the world, an ad-hoc team slice)
/// meet in one barrier and one symmetric-allocation rendezvous. The group
/// holds both, so entering either is O(1) whatever the group's size; only
/// interning reads the member list. Cloning is an `Arc` clone.
#[derive(Clone)]
pub struct Group(Arc<GroupState>);

struct GroupState {
    members: Arc<[usize]>,
    barrier: GroupBarrier,
    alloc: Mutex<AllocRendezvous>,
}

impl Group {
    fn new(members: &[usize]) -> Group {
        Group(Arc::new(GroupState {
            members: members.into(),
            barrier: GroupBarrier::new(members.len()),
            alloc: Mutex::default(),
        }))
    }

    /// The member global ranks, ascending.
    pub(crate) fn members(&self) -> &[usize] {
        &self.0.members
    }

    /// The member list itself, for a holder that wants it without a copy
    /// (the world communicator).
    pub fn shared_members(&self) -> Arc<[usize]> {
        Arc::clone(&self.0.members)
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.0.members.len()
    }

    /// Enter the group's barrier with local clock `entry`; every member
    /// leaves with `max(entry clocks) + cost`.
    pub(crate) fn barrier(&self, entry: Time, cost: Time) -> Time {
        self.0.barrier.enter(entry, cost)
    }
}

// Equality and hashing are the member list's, so the intern table can be
// probed with a plain slice (`Borrow<[usize]>`).
impl PartialEq for Group {
    fn eq(&self, other: &Group) -> bool {
        self.members() == other.members()
    }
}

impl Eq for Group {}

impl Hash for Group {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.members().hash(state);
    }
}

impl Borrow<[usize]> for Group {
    fn borrow(&self) -> &[usize] {
        self.members()
    }
}

impl fmt::Debug for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.members().fmt(f)
    }
}

// ---------------------------------------------------------------------------
// Symmetric segments (one-sided memory)
// ---------------------------------------------------------------------------

/// Identifier of a symmetric segment, valid on every participating rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SegId(pub usize);

/// One rank's copy of a segment.
struct Slot {
    data: Vec<u8>,
    /// Virtual arrival times of signalled deliveries, in delivery order.
    signals: Vec<Time>,
    /// Number of signalled deliveries the owner has consumed (flow control).
    consumed: u64,
    /// Single-wake registration: the owner parked until the `.0`-th
    /// (1-based) signal lands; the delivering put wakes it through the
    /// scheduler.
    waiting: Option<(usize, crate::sched::Waiter)>,
    /// Senders parked on flow control; `mark_consumed` wakes them all, and
    /// each re-checks the window.
    blocked_senders: Vec<crate::sched::Waiter>,
}

/// A symmetric allocation: `bytes` of memory on each rank of `group`.
pub struct Segment {
    bytes: usize,
    /// Participating global ranks.
    group: Group,
    /// One slot per participating rank, indexed by position in `group`.
    slots: Vec<Mutex<Slot>>,
    /// Flow-control window: a signalled put physically blocks while
    /// `signals - consumed >= window` (staging-slot reuse safety).
    window: u64,
}

impl Segment {
    fn slot_of(&self, rank: usize) -> &Mutex<Slot> {
        let idx = self
            .group
            .members()
            .binary_search(&rank)
            .unwrap_or_else(|_| panic!("rank {rank} not in segment group {:?}", self.group));
        &self.slots[idx]
    }

    /// Size in bytes of the per-rank allocation.
    pub fn len(&self) -> usize {
        self.bytes
    }

    /// Whether the allocation is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }
}

#[derive(Default)]
struct AllocRendezvous {
    arrived: usize,
    bytes: usize,
    window: u64,
    /// The last completed generation's segment. Written only by a last
    /// arriver, so it stays valid until every waiter of that generation has
    /// read it (the next generation cannot complete without them).
    result: Option<SegId>,
    /// Single-wake registrations of this generation's earlier arrivers,
    /// woken by the last arriver.
    waiters: Vec<crate::sched::Waiter>,
}

/// The one-sided memory store: symmetric segments. The collective
/// allocation rendezvous of each group lives in its [`Group`].
#[derive(Default)]
pub struct SegmentStore {
    segments: RwLock<Vec<Arc<Segment>>>,
}

impl SegmentStore {
    /// Collective symmetric allocation over `group`. Every rank in the
    /// group must call with identical arguments;
    /// all receive the same [`SegId`]. Mirrors `shmalloc` semantics (which
    /// synchronizes all PEs). `window` bounds outstanding signalled
    /// deliveries per destination (use `u64::MAX` for none).
    pub fn alloc(&self, group: &Group, bytes: usize, window: u64) -> SegId {
        let state = &group.0.alloc;
        let mut g = state.lock();
        if g.arrived == 0 {
            g.bytes = bytes;
            g.window = window;
        } else {
            assert_eq!(
                g.bytes, bytes,
                "symmetric alloc size mismatch across ranks in group {group:?}"
            );
            assert_eq!(
                g.window, window,
                "symmetric alloc window mismatch across ranks in group {group:?}"
            );
        }
        g.arrived += 1;
        if g.arrived < group.len() {
            g.waiters.push(crate::sched::yield_slot());
            drop(g);
            crate::sched::park_self();
            // Woken ⇒ our generation completed.
            return state.lock().result.expect("set by the last arriver");
        }
        let seg = Arc::new(Segment {
            bytes,
            group: group.clone(),
            window,
            slots: group
                .members()
                .iter()
                .map(|_| {
                    Mutex::new(Slot {
                        data: vec![0u8; bytes],
                        signals: Vec::new(),
                        consumed: 0,
                        waiting: None,
                        blocked_senders: Vec::new(),
                    })
                })
                .collect(),
        });
        let id = {
            let mut segs = self.segments.write();
            segs.push(seg);
            SegId(segs.len() - 1)
        };
        g.result = Some(id);
        g.arrived = 0;
        let waiters = std::mem::take(&mut g.waiters);
        drop(g);
        // Allocation is untimed: the wake clock is only a queue order.
        for w in waiters {
            w.wake(Time::ZERO);
        }
        id
    }

    fn seg(&self, id: SegId) -> Arc<Segment> {
        Arc::clone(&self.segments.read()[id.0])
    }

    /// Flow-control window of a segment (deliveries that may be in flight
    /// before the owner consumes; `u64::MAX` = unbounded).
    pub fn window_of(&self, id: SegId) -> u64 {
        self.seg(id).window
    }

    /// Write `data` into `target`'s copy of the segment at `offset`.
    /// If `signal_arrival` is set, appends a delivery signal with that
    /// virtual arrival time and wakes waiters; returns the signal's
    /// 1-based ordinal on the target's copy (the race sanitizer keys its
    /// signal-wait edge on it).
    pub fn put(
        &self,
        id: SegId,
        target: usize,
        offset: usize,
        data: &[u8],
        signal_arrival: Option<Time>,
    ) -> Option<u64> {
        let seg = self.seg(id);
        let slot = seg.slot_of(target);
        let mut g = slot.lock();
        if signal_arrival.is_some() {
            // Flow control: do not overwrite a staging slot the owner has
            // not consumed yet. Purely physical (no virtual-time charge):
            // models adequately-sized staging on the critical path.
            while (g.signals.len() as u64).saturating_sub(g.consumed) >= seg.window {
                g.blocked_senders.push(crate::sched::yield_slot());
                drop(g);
                crate::sched::park_self();
                g = slot.lock();
            }
        }
        assert!(
            offset + data.len() <= g.data.len(),
            "put out of bounds: {}+{} > {}",
            offset,
            data.len(),
            g.data.len()
        );
        g.data[offset..offset + data.len()].copy_from_slice(data);
        let mut waker = None;
        let mut ordinal = None;
        if let Some(t) = signal_arrival {
            g.signals.push(t);
            ordinal = Some(g.signals.len() as u64);
            if let Some((need, _)) = g.waiting.as_ref() {
                if g.signals.len() >= *need {
                    let (need, w) = g.waiting.take().unwrap();
                    waker = Some((w, g.signals[need - 1]));
                }
            }
        }
        drop(g);
        if let Some((w, t)) = waker {
            // Single-wake handoff to the parked owner, queued at the
            // virtual arrival time of the signal it was waiting for.
            w.wake(t);
        }
        ordinal
    }

    /// Mark `count` additional signalled deliveries as consumed by `rank`
    /// (releases flow-controlled senders).
    pub fn mark_consumed(&self, id: SegId, rank: usize, count: u64) {
        let seg = self.seg(id);
        let mut g = seg.slot_of(rank).lock();
        g.consumed += count;
        let senders = std::mem::take(&mut g.blocked_senders);
        // Flow control is untimed; the latest consumed signal's arrival
        // orders the woken senders among other ready ranks.
        let t = (g.consumed as usize)
            .checked_sub(1)
            .and_then(|i| g.signals.get(i).copied())
            .unwrap_or(Time::ZERO);
        drop(g);
        for w in senders {
            w.wake(t);
        }
    }

    /// Read `out.len()` bytes from `target`'s copy at `offset`.
    pub fn read(&self, id: SegId, target: usize, offset: usize, out: &mut [u8]) {
        let seg = self.seg(id);
        let g = seg.slot_of(target).lock();
        assert!(
            offset + out.len() <= g.data.len(),
            "read out of bounds: {}+{} > {}",
            offset,
            out.len(),
            g.data.len()
        );
        out.copy_from_slice(&g.data[offset..offset + out.len()]);
    }

    /// Physically block until at least `count` signalled deliveries have
    /// landed in `rank`'s copy of the segment; returns the virtual arrival
    /// time of the `count`-th (1-based) delivery.
    pub fn wait_signals(&self, id: SegId, rank: usize, count: usize) -> Time {
        assert!(count >= 1, "must wait for at least one signal");
        let seg = self.seg(id);
        let slot = seg.slot_of(rank);
        let mut g = slot.lock();
        if g.signals.len() < count {
            debug_assert!(g.waiting.is_none(), "two waiters on one slot");
            g.waiting = Some((count, crate::sched::yield_slot()));
            drop(g);
            crate::sched::park_self();
            // Woken ⇒ the count-th signal landed (signals only grow).
            g = slot.lock();
        }
        g.signals[count - 1]
    }

    /// Number of signalled deliveries so far on `rank`'s copy.
    pub fn signal_count(&self, id: SegId, rank: usize) -> usize {
        let seg = self.seg(id);
        let n = seg.slot_of(rank).lock().signals.len();
        n
    }
}

// ---------------------------------------------------------------------------
// Fabric: everything a rank reaches through
// ---------------------------------------------------------------------------

/// The shared interconnect + memory fabric of one simulated machine.
pub struct Fabric {
    nranks: usize,
    /// Every rank, ascending: interned once, shared by every rank's world.
    world: Group,
    /// The intern table of [`Fabric::group`]. Entries are never removed:
    /// groups are stable for a simulation's lifetime.
    groups: Mutex<HashSet<Group>>,
    mailboxes: Vec<Mailbox>,
    segments: SegmentStore,
}

impl Fabric {
    pub fn new(nranks: usize) -> Arc<Self> {
        let world = Group::new(&(0..nranks).collect::<Vec<_>>());
        Arc::new(Fabric {
            nranks,
            groups: Mutex::new(HashSet::from([world.clone()])),
            world,
            mailboxes: (0..nranks).map(|_| Mailbox::new()).collect(),
            segments: SegmentStore::default(),
        })
    }

    /// Total number of ranks on the machine.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The group of every rank of the machine.
    pub fn world(&self) -> &Group {
        &self.world
    }

    /// The interned group of `members` (ascending global ranks): a
    /// communicator interns its members once when it is built, and an
    /// ad-hoc slice is interned where it is used. Hashes the list.
    pub fn group(&self, members: &[usize]) -> Group {
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "group must be sorted"
        );
        let mut groups = self.groups.lock();
        if let Some(g) = groups.get(members) {
            return g.clone();
        }
        let g = Group::new(members);
        groups.insert(g.clone());
        g
    }

    /// The one-sided segment store.
    pub fn segments(&self) -> &SegmentStore {
        &self.segments
    }

    /// Mailbox of `rank` (diagnostics).
    pub fn mailbox(&self, rank: usize) -> &Mailbox {
        &self.mailboxes[rank]
    }

    /// Initiate a non-blocking two-sided send. `depart` is the sender's
    /// clock after charging `o_send`.
    pub fn send(
        &self,
        src: usize,
        dst: usize,
        tag: i32,
        payload: Bytes,
        depart: Time,
        costs: WireCosts,
    ) -> SendRequest {
        assert!(dst < self.nranks, "send to nonexistent rank {dst}");
        let done = Completion::new();
        let bytes = payload.len();
        let env = Envelope {
            src,
            dst,
            tag,
            payload,
            depart,
            costs,
            send_done: Arc::clone(&done),
        };
        self.mailboxes[dst].deliver(env);
        SendRequest { done, bytes }
    }

    /// Post a non-blocking receive on `rank`'s mailbox. `post_time` is the
    /// receiver's clock after charging `o_recv`.
    pub fn recv(&self, rank: usize, src: SrcSel, tag: TagSel, post_time: Time) -> RecvRequest {
        if let SrcSel::Exact(s) = src {
            assert!(s < self.nranks, "receive from nonexistent rank {s}");
        }
        let slot = RecvSlot::new();
        self.mailboxes[rank].post(src, tag, post_time, Arc::clone(&slot));
        RecvRequest {
            slot,
            posted: post_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecPolicy, SimConfig};

    fn eager_costs() -> WireCosts {
        WireCosts {
            latency: 1_000,
            byte_time_ns: 1.0,
            handshake: 0,
            unexpected_per_byte: 0.5,
            eager: true,
        }
    }

    #[test]
    fn send_then_recv_matches() {
        let f = Fabric::new(2);
        let req = f.send(
            0,
            1,
            7,
            Bytes::from_static(b"abcd"),
            Time(100),
            eager_costs(),
        );
        assert_eq!(f.mailbox(1).unexpected_len(), 1);
        let r = f.recv(1, SrcSel::Exact(0), TagSel::Exact(7), Time(0));
        let done = r.wait_raw();
        assert_eq!(&done.payload[..], b"abcd");
        // depart 100 + L 1000 + 4 bytes = 1104; post at 0 => arrival wins.
        assert_eq!(done.completion, Time(1_104));
        // Virtual arrival (1104) is after the post (0), so even though the
        // message physically sat in the unexpected queue, no copy is charged.
        assert!(!done.unexpected);
        assert_eq!(req.wait_raw(), Time(100));
    }

    #[test]
    fn recv_then_send_matches() {
        let f = Fabric::new(2);
        let r = f.recv(1, SrcSel::Exact(0), TagSel::Exact(3), Time(50));
        assert_eq!(f.mailbox(1).posted_len(), 1);
        f.send(0, 1, 3, Bytes::from_static(b"xy"), Time(0), eager_costs());
        let done = r.wait_raw();
        assert_eq!(&done.payload[..], b"xy");
        assert!(!done.unexpected);
        assert_eq!(done.completion, Time(1_002)); // max(50, 0+1000+2)
    }

    #[test]
    fn unexpected_flag_on_late_post() {
        let f = Fabric::new(2);
        f.send(0, 1, 1, Bytes::from_static(b"zz"), Time(0), eager_costs());
        // Virtual arrival = 1002; post at 10_000 => unexpected.
        let r = f.recv(1, SrcSel::Exact(0), TagSel::Exact(1), Time(10_000));
        let done = r.wait_raw();
        assert!(done.unexpected);
        assert_eq!(done.completion, Time(10_001)); // 10_000 + 0.5*2
    }

    #[test]
    fn tag_and_source_selective_matching() {
        let f = Fabric::new(3);
        f.send(0, 2, 5, Bytes::from_static(b"A"), Time(0), eager_costs());
        f.send(1, 2, 6, Bytes::from_static(b"B"), Time(0), eager_costs());
        let r6 = f.recv(2, SrcSel::Any, TagSel::Exact(6), Time(0));
        assert_eq!(&r6.wait_raw().payload[..], b"B");
        let r5 = f.recv(2, SrcSel::Exact(0), TagSel::Any, Time(0));
        let d5 = r5.wait_raw();
        assert_eq!(&d5.payload[..], b"A");
        assert_eq!(d5.src, 0);
        assert_eq!(d5.tag, 5);
    }

    #[test]
    fn wildcard_prefers_earliest_virtual_arrival() {
        let f = Fabric::new(3);
        // Physically delivered first but departs later virtually.
        f.send(
            0,
            2,
            1,
            Bytes::from_static(b"late"),
            Time(9_000),
            eager_costs(),
        );
        f.send(
            1,
            2,
            1,
            Bytes::from_static(b"early"),
            Time(0),
            eager_costs(),
        );
        let r = f.recv(2, SrcSel::Any, TagSel::Exact(1), Time(20_000));
        assert_eq!(&r.wait_raw().payload[..], b"early");
    }

    #[test]
    fn same_source_fifo_order() {
        let f = Fabric::new(2);
        for (i, t) in [(0u8, 0u64), (1, 10), (2, 20)] {
            f.send(
                0,
                1,
                9,
                Bytes::copy_from_slice(&[i]),
                Time(t),
                eager_costs(),
            );
        }
        for expect in 0u8..3 {
            let r = f.recv(1, SrcSel::Exact(0), TagSel::Exact(9), Time(0));
            assert_eq!(r.wait_raw().payload[0], expect);
        }
    }

    #[test]
    fn rendezvous_send_completion_requires_match() {
        let mut costs = eager_costs();
        costs.eager = false;
        costs.handshake = 500;
        let f = Fabric::new(2);
        let s = f.send(0, 1, 2, Bytes::from_static(&[0u8; 16]), Time(0), costs);
        assert!(s.poll().is_none(), "rendezvous send pending until matched");
        let r = f.recv(1, SrcSel::Exact(0), TagSel::Exact(2), Time(4_000));
        let d = r.wait_raw();
        // xfer_start = max(0+1000, 4000) + 500 = 4500; arrival = +1000+16
        assert_eq!(d.completion, Time(5_516));
        assert_eq!(s.wait_raw(), d.completion);
    }

    /// Run `body(rank, fabric)` on `nranks` rank bodies under one carrier
    /// (every blocking wait parks its rank) and under two, and return the
    /// per-rank results and the scheduler's counters of each run.
    fn on_ranks<T: Send>(
        nranks: usize,
        body: impl Fn(usize, &Fabric) -> T + Sync,
    ) -> Vec<(usize, Vec<T>, crate::SchedStats)> {
        [1, 2]
            .into_iter()
            .map(|workers| {
                let cfg = SimConfig::new(nranks).with_exec(ExecPolicy::bounded(workers));
                let res = crate::run(cfg, |ctx| body(ctx.rank(), ctx.fabric()));
                (workers, res.per_rank, res.sched.expect("every run reports"))
            })
            .collect()
    }

    #[test]
    fn cross_thread_blocking_wait() {
        for (workers, got, sched) in on_ranks(2, |rank, f| {
            if rank == 0 {
                let r = f.recv(0, SrcSel::Exact(1), TagSel::Exact(0), Time(0));
                r.wait_raw().payload.to_vec()
            } else {
                f.send(1, 0, 0, Bytes::from_static(b"ping"), Time(5), eager_costs());
                Vec::new()
            }
        }) {
            assert_eq!(got[0], b"ping", "workers={workers}");
            if workers == 1 {
                // Rank 0 runs first, parks in the wait and is resumed once
                // more after rank 1's send.
                assert_eq!(sched.grants, 3);
            }
        }
    }

    #[test]
    fn barrier_reconciles_clocks() {
        for (workers, exits, _) in on_ranks(4, |rank, f| {
            f.group(&[0, 1, 2, 3])
                .barrier(Time(100 * (rank as u64 + 1)), Time(50))
        }) {
            // max entry 400 + 50
            assert_eq!(exits, vec![Time(450); 4], "workers={workers}");
        }
    }

    #[test]
    fn barrier_reusable_across_generations() {
        for (workers, exits, _) in on_ranks(2, |rank, f| {
            (0..3u64)
                .map(|round| {
                    f.group(&[0, 1])
                        .barrier(Time(round * 10 + 5 * rank as u64), Time(1))
                })
                .collect::<Vec<_>>()
        }) {
            let want: Vec<_> = (0..3).map(|round| Time(round * 10 + 6)).collect();
            assert_eq!(exits, vec![want; 2], "workers={workers}");
        }
    }

    #[test]
    fn subgroup_barriers_are_independent() {
        for (workers, exits, _) in on_ranks(4, |rank, f| {
            let group = if rank < 2 { [0, 1] } else { [2, 3] };
            let base = if rank < 2 { 10 } else { 100 };
            f.group(&group)
                .barrier(Time(base * (rank as u64 % 2 + 1)), Time(1))
        }) {
            assert_eq!(
                exits,
                vec![Time(21), Time(21), Time(201), Time(201)],
                "workers={workers}"
            );
        }
    }

    #[test]
    fn symmetric_alloc_and_put_get() {
        for (workers, ids, _) in on_ranks(2, |rank, f| {
            let id = f.segments().alloc(&f.group(&[0, 1]), 64, u64::MAX);
            if rank == 0 {
                f.segments().put(id, 1, 8, b"hello", None);
                let mut out = [0u8; 5];
                f.segments().read(id, 1, 8, &mut out);
                assert_eq!(&out, b"hello");
                // Rank 0's copy untouched.
                f.segments().read(id, 0, 8, &mut out);
                assert_eq!(&out, &[0u8; 5]);
            }
            id
        }) {
            assert_eq!(ids[0], ids[1], "workers={workers}");
        }
    }

    #[test]
    fn signalled_puts_wake_waiters_in_order() {
        for (workers, got, _) in on_ranks(2, |rank, f| {
            let id = f.segments().alloc(&f.group(&[0, 1]), 16, u64::MAX);
            if rank == 0 {
                f.segments().put(id, 1, 0, &[1u8; 4], Some(Time(111)));
                f.segments().put(id, 1, 4, &[2u8; 4], Some(Time(222)));
                return None;
            }
            let t1 = f.segments().wait_signals(id, 1, 1);
            let t2 = f.segments().wait_signals(id, 1, 2);
            let counts = (
                f.segments().signal_count(id, 1),
                f.segments().signal_count(id, 0),
            );
            Some((t1, t2, counts))
        }) {
            assert_eq!(
                got[1],
                Some((Time(111), Time(222), (2, 0))),
                "workers={workers}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn put_out_of_bounds_panics() {
        let f = Fabric::new(1);
        let id = f.segments().alloc(&f.group(&[0]), 4, u64::MAX);
        f.segments().put(id, 0, 2, &[0u8; 4], None);
    }

    #[test]
    fn flow_control_blocks_until_consumed() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Window = 2. Rank 1 publishes how many deliveries it has consumed
        // before each `mark_consumed`, and rank 0 reads that after each of
        // its puts: the third put must wait for one consumption, the fourth
        // for the rest.
        for workers in [1, 2] {
            let freed = AtomicU64::new(0);
            let cfg = SimConfig::new(2).with_exec(ExecPolicy::bounded(workers));
            let res = crate::run(cfg, |ctx| {
                let f = ctx.fabric();
                let id = f.segments().alloc(&f.group(&[0, 1]), 8, 2);
                if ctx.rank() == 0 {
                    return (0..4u8)
                        .map(|k| {
                            f.segments().put(id, 1, 0, &[k], Some(Time(k as u64)));
                            freed.load(Ordering::SeqCst)
                        })
                        .collect();
                }
                f.segments().wait_signals(id, 1, 2);
                freed.store(1, Ordering::SeqCst);
                f.segments().mark_consumed(id, 1, 1);
                f.segments().wait_signals(id, 1, 3);
                freed.store(4, Ordering::SeqCst);
                f.segments().mark_consumed(id, 1, 3);
                f.segments().wait_signals(id, 1, 4);
                assert_eq!(f.segments().signal_count(id, 1), 4);
                Vec::new()
            });
            let seen = &res.per_rank[0];
            assert!(
                seen[2] >= 1,
                "third put blocked (workers={workers}): {seen:?}"
            );
            assert_eq!(seen[3], 4, "one slot freed one put (workers={workers})");
        }
    }

    #[test]
    fn unsignalled_puts_ignore_flow_control() {
        let f = Fabric::new(1);
        let id = f.segments().alloc(&f.group(&[0]), 8, 1);
        // Plain memory writes (no signal) never block.
        for k in 0..10u8 {
            f.segments().put(id, 0, 0, &[k], None);
        }
        let mut out = [0u8; 1];
        f.segments().read(id, 0, 0, &mut out);
        assert_eq!(out[0], 9);
    }
}
