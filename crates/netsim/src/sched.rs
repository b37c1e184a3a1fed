//! The execution engine: rank bodies run as stackful coroutines (`coro`)
//! on `w` carrier threads, and switch in user space.
//!
//! Ranks live on carriers in contiguous blocks whose sizes differ by at
//! most one ([`carrier_of`]): rank `r` of `n` runs on carrier
//! `r·w / n` for its whole life. A communicator is usually a contiguous
//! block of ranks, so neighbours that exchange messages share a carrier,
//! and waking a neighbour is a coroutine switch rather than a futex wake
//! of another thread. Each carrier keeps a ready queue and resumes the
//! ready rank with the lowest `(virtual clock, rank)` — the
//! conservative-PDES order, since the rank whose clock is furthest behind
//! is the one most likely to unblock others. A rank never migrates, so
//! thread-locals it touches (its own, and std's panic count and
//! `thread::current`) always see one thread. With
//! `w = nranks` every rank has a carrier of its own and the OS schedules
//! them all at once: the engine differentials use that as their reference.
//!
//! Every blocking point uses the *single-wake* protocol: the waiter takes
//! its [`Waiter`] handle ([`yield_slot`]), registers it in the fabric
//! object it waits on under the same lock hold that saw the wait predicate
//! false, drops its locks, and parks ([`park_self`]), which switches back to
//! its carrier. The completing rank hands the handle back ([`Waiter::wake`])
//! with the completion's virtual time; that queues the rank on its carrier,
//! and unparks the carrier only if it was idle. A coroutine never blocks its
//! carrier, and no rank ever sleeps on a condvar.
//!
//! Every wake comes from a running rank. So once no rank is running or
//! queued, none ever will be again: if ranks are still unfinished they are
//! deadlocked, and the run fails with `deadlock: ranks [..] parked with none
//! runnable` (or with the panic of a rank that panicked before). The parked
//! ranks are unwound first, so their stacks and borrows are released.
//!
//! Determinism is *not* a property of the schedule: completion times are
//! computed from virtual quantities only (see `msg::match_timing`), so any
//! interleaving — one carrier, a few, or one per rank — produces
//! bit-identical results. LVT-first is purely a wall-clock optimization.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use parking_lot::{Condvar, Mutex};

use crate::coro::{self, Coroutine};
use crate::metrics::SchedStats;
use crate::time::Time;

struct SchedInner {
    /// Per carrier: its ready ranks, ordered by (virtual clock, rank).
    ready: Vec<BinaryHeap<Reverse<(Time, usize)>>>,
    /// Per carrier: waiting on its condvar for a rank to become ready.
    idle: Vec<bool>,
    /// Ranks running on a carrier or queued on one. Only a running rank
    /// wakes another, so once this reaches zero it stays there.
    runnable: usize,
    /// Ranks running right now.
    running: usize,
    /// Peak `running` (physical; for tuning reports only).
    max_occupied: usize,
    /// Resumptions of a rank by its carrier.
    grants: u64,
    /// Times a rank was queued behind its busy carrier.
    parks: u64,
    /// Wakes that unparked an idle carrier (one per idle spell).
    handoffs: u64,
}

/// The engine's carriers and ready queues.
pub struct Scheduler {
    inner: Mutex<SchedInner>,
    /// Per carrier: where it waits while idle.
    wakeup: Vec<Condvar>,
    carriers: usize,
    nranks: usize,
    /// `runnable` reached zero: every carrier drains and exits, and a rank
    /// resumed after this is being unwound out of a deadlock.
    stopped: AtomicBool,
}

/// What a finished rank left behind.
enum Outcome<R> {
    Done(R),
    Panicked(Box<dyn Any + Send>),
    /// Unwound out of a deadlock.
    Cancelled,
}

/// Payload of the unwind that clears a deadlocked rank off its stack.
struct Deadlocked;

impl Scheduler {
    /// `workers` carriers (clamped to `1..=nranks`) over `nranks` ranks, each
    /// queued at virtual time zero.
    pub fn new(nranks: usize, workers: usize) -> Arc<Self> {
        let carriers = workers.clamp(1, nranks.max(1));
        let ready = (0..carriers)
            .map(|c| {
                (first_rank(c, carriers, nranks)..first_rank(c + 1, carriers, nranks))
                    .map(|rank| Reverse((Time::ZERO, rank)))
                    .collect()
            })
            .collect();
        Arc::new(Scheduler {
            inner: Mutex::new(SchedInner {
                ready,
                idle: vec![false; carriers],
                runnable: nranks,
                running: 0,
                max_occupied: 0,
                grants: 0,
                // Every rank beyond its carrier's first waits for a turn.
                parks: nranks.saturating_sub(carriers) as u64,
                handoffs: 0,
            }),
            wakeup: (0..carriers).map(|_| Condvar::new()).collect(),
            carriers,
            nranks,
            stopped: AtomicBool::new(false),
        })
    }

    /// Number of carrier threads.
    pub fn workers(&self) -> usize {
        self.carriers
    }

    /// Snapshot of the occupancy counters. Physical (wall-clock
    /// interleaving dependent) — reported for tuning, never folded into
    /// deterministic profile output.
    pub fn stats(&self) -> SchedStats {
        let g = self.inner.lock();
        SchedStats {
            slots: self.carriers,
            max_occupied: g.max_occupied,
            grants: g.grants,
            parks: g.parks,
            handoffs: g.handoffs,
        }
    }

    /// Run `body(rank)` for every rank on the carriers, each rank on a
    /// stack of `stack_size` bytes, and return the results in rank order.
    /// `Err` carries the run's failure report: the lowest panicking rank's
    /// `rank N panicked: msg`, else the deadlock.
    pub(crate) fn run<R: Send>(
        self: &Arc<Self>,
        stack_size: usize,
        body: &(dyn Fn(usize) -> R + Sync),
    ) -> Result<Vec<R>, String> {
        let mut outcomes: Vec<Option<Outcome<R>>> = (0..self.nranks).map(|_| None).collect();
        thread::scope(|scope| {
            let carriers: Vec<_> = (0..self.carriers)
                .map(|c| {
                    thread::Builder::new()
                        .name(format!("carrier-{c}"))
                        .spawn_scoped(scope, move || self.carry(c, stack_size, body))
                        .expect("failed to spawn carrier thread")
                })
                .collect();
            for h in carriers {
                let outs = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                for (rank, out) in outs {
                    outcomes[rank] = Some(out);
                }
            }
        });
        let mut done = Vec::with_capacity(self.nranks);
        let mut parked = Vec::new();
        for (rank, out) in outcomes.into_iter().enumerate() {
            match out.expect("every rank ran on its carrier") {
                Outcome::Done(r) => done.push(r),
                Outcome::Panicked(p) => return Err(panic_report(rank, &*p)),
                Outcome::Cancelled => parked.push(rank),
            }
        }
        if parked.is_empty() {
            return Ok(done);
        }
        const SHOWN: usize = 16;
        let mut list = parked
            .iter()
            .take(SHOWN)
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        if parked.len() > SHOWN {
            list += &format!(", ... ({} more)", parked.len() - SHOWN);
        }
        Err(format!(
            "deadlock: ranks [{list}] parked with none runnable"
        ))
    }

    /// Carrier `c`'s loop: make its coroutines, resume ready ones until the
    /// run stops, then unwind any left parked.
    fn carry<'a, R: Send>(
        self: &Arc<Self>,
        c: usize,
        stack_size: usize,
        body: &'a (dyn Fn(usize) -> R + Sync),
    ) -> Vec<(usize, Outcome<R>)> {
        let first = first_rank(c, self.carriers, self.nranks);
        let mut coros: Vec<Option<Coroutine<'a, R>>> = (first
            ..first_rank(c + 1, self.carriers, self.nranks))
            .map(|rank| {
                let local = Current {
                    sched: Arc::clone(self),
                    rank,
                };
                Some(Coroutine::new(stack_size, local, move || body(rank)))
            })
            .collect();
        let mut outcomes = Vec::with_capacity(coros.len());
        let mut switched_out = false;
        while let Some(rank) = self.next(c, switched_out) {
            let slot = &mut coros[rank - first];
            let co = slot.as_mut().expect("a finished rank is never queued");
            if let Some(res) = co.resume() {
                *slot = None;
                outcomes.push((rank, res.map_or_else(Outcome::Panicked, Outcome::Done)));
            }
            switched_out = true;
        }
        // Stopped with ranks unfinished: resuming one makes its `park_self`
        // unwind with `Deadlocked`.
        for (i, slot) in coros.iter_mut().enumerate() {
            if let Some(mut co) = slot.take() {
                let res = co.resume();
                debug_assert!(
                    matches!(&res, Some(Err(p)) if p.is::<Deadlocked>()),
                    "a deadlocked rank unwinds in one resumption"
                );
                outcomes.push((first + i, Outcome::Cancelled));
            }
        }
        outcomes
    }

    /// Carrier `c`'s next rank to resume, waiting while none is ready;
    /// `None` once the run stopped. `switched_out` accounts the rank the
    /// carrier just got back (parked or finished) under the same lock hold.
    fn next(&self, c: usize, switched_out: bool) -> Option<usize> {
        let mut g = self.inner.lock();
        if switched_out {
            g.running -= 1;
            g.runnable -= 1;
            if g.runnable == 0 {
                self.stopped.store(true, Ordering::Relaxed);
                for cv in &self.wakeup {
                    cv.notify_one();
                }
            }
        }
        loop {
            if let Some(Reverse((_, rank))) = g.ready[c].pop() {
                g.grants += 1;
                g.running += 1;
                g.max_occupied = g.max_occupied.max(g.running);
                return Some(rank);
            }
            if g.runnable == 0 {
                return None;
            }
            g.idle[c] = true;
            self.wakeup[c].wait(&mut g);
            g.idle[c] = false;
        }
    }

    /// Queue parked `rank` on its carrier at virtual time `clock`, and
    /// unpark the carrier if it is idle. Called by the completing rank;
    /// never blocks beyond the queue lock, and safe with fabric locks held.
    fn make_ready(&self, rank: usize, clock: Time) {
        let c = carrier_of(rank, self.carriers, self.nranks);
        let mut g = self.inner.lock();
        g.runnable += 1;
        g.ready[c].push(Reverse((clock, rank)));
        if g.idle[c] {
            // One unpark per idle spell: until the carrier resumes, later
            // wakes only queue.
            g.idle[c] = false;
            g.handoffs += 1;
            self.wakeup[c].notify_one();
        } else {
            g.parks += 1;
        }
    }
}

/// The carrier `rank` lives on, of `carriers` over `nranks` ranks: the ranks
/// are dealt out in contiguous blocks whose sizes differ by at most one.
fn carrier_of(rank: usize, carriers: usize, nranks: usize) -> usize {
    rank * carriers / nranks
}

/// The lowest rank on carrier `c` (`nranks` for `c == carriers`), so carrier
/// `c` runs ranks `first_rank(c)..first_rank(c + 1)`: the inverse of
/// [`carrier_of`].
fn first_rank(c: usize, carriers: usize, nranks: usize) -> usize {
    (c * nranks).div_ceil(carriers)
}

/// The failure report of a rank that panicked with payload `p`.
fn panic_report(rank: usize, p: &(dyn Any + Send)) -> String {
    let msg = p
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| p.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>");
    format!("rank {rank} panicked: {msg}")
}

/// Identity of a parked rank. The completing rank hands it back via
/// [`Waiter::wake`], so the parked rank wakes exactly once.
pub(crate) struct Waiter {
    sched: Arc<Scheduler>,
    rank: usize,
}

impl Waiter {
    /// Completer side: mark the parked rank runnable at virtual time
    /// `clock` (its ready-queue priority). Never blocks.
    pub(crate) fn wake(self, clock: Time) {
        self.sched.make_ready(self.rank, clock);
    }
}

impl std::fmt::Debug for Waiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Waiter(rank {})", self.rank)
    }
}

/// The record every coroutine carries: which scheduler runs it, as which
/// rank. [`coro::with_local`] reaches the running one's.
pub(crate) struct Current {
    sched: Arc<Scheduler>,
    rank: usize,
}

/// Begin a single-wake wait: return the handle a completer must later
/// [`Waiter::wake`]. Safe to call with fabric locks held (never blocks).
/// Panics outside a simulated rank: only a rank body can park.
///
/// The caller must register the handle (under the same lock hold that
/// established the wait predicate is false), drop its locks, and then
/// [`park_self`]. Registering under one continuous lock hold is what makes
/// the protocol race-free: the completer cannot observe-and-miss the waiter.
#[inline]
pub(crate) fn yield_slot() -> Waiter {
    coro::with_local(|cur| Waiter {
        sched: Arc::clone(&cur.sched),
        rank: cur.rank,
    })
    .expect("blocking wait outside a simulated rank")
}

/// Complete a single-wake wait: switch back to the carrier until a
/// completer wakes this rank via [`Waiter::wake`]. On return the awaited
/// predicate is true. Must be called with **no** fabric lock held. If the
/// run deadlocked instead, this unwinds the rank (no `Drop` of a rank's
/// data may wait on another rank).
#[inline]
pub(crate) fn park_self() {
    coro::suspend();
    if coro::with_local(|cur| cur.sched.stopped.load(Ordering::Relaxed)) == Some(true) {
        std::panic::resume_unwind(Box::new(Deadlocked));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn workers_clamped() {
        assert_eq!(Scheduler::new(4, 0).workers(), 1);
        assert_eq!(Scheduler::new(4, 99).workers(), 4);
    }

    #[test]
    fn blocks_partition_the_ranks_evenly() {
        for nranks in 1..40 {
            for carriers in 1..=nranks {
                let sizes: Vec<usize> = (0..carriers)
                    .map(|c| {
                        let block =
                            first_rank(c, carriers, nranks)..first_rank(c + 1, carriers, nranks);
                        assert!(block.clone().all(|r| carrier_of(r, carriers, nranks) == c));
                        block.len()
                    })
                    .collect();
                assert_eq!(sizes.iter().sum::<usize>(), nranks);
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(
                    *lo >= 1 && hi - lo <= 1,
                    "{nranks} on {carriers}: {sizes:?}"
                );
            }
        }
    }

    #[test]
    fn slots_bound_concurrency() {
        // Eight ranks on two carriers: at most two bodies ever run at once,
        // even while each holds its carrier through a wall-clock sleep.
        let sched = Scheduler::new(8, 2);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        sched
            .run(1 << 16, &|_| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                thread::sleep(std::time::Duration::from_millis(2));
                running.fetch_sub(1, Ordering::SeqCst);
            })
            .unwrap();
        assert!(peak.load(Ordering::SeqCst) <= 2);
        assert!(sched.stats().max_occupied <= 2);
    }

    /// Handoffs of a ping-pong between ranks `a` and `b` of 4 on 2
    /// carriers (ranks {0, 1} and {2, 3}): `rounds` times each passes the
    /// turn to the other, which waits for it parked. A rank whose partner
    /// lives on the other carrier passes only once that carrier idles, so
    /// every wake there finds it idle.
    fn ping_pong_handoffs(a: usize, b: usize, rounds: usize) -> u64 {
        let sched = Scheduler::new(4, 2);
        let carrier = |rank| carrier_of(rank, 2, 4);
        // Whose turn it is, and the other rank's handle while it waits.
        let turn = Mutex::new((a, None::<Waiter>));
        sched
            .run(1 << 16, &|rank| {
                if rank != a && rank != b {
                    return;
                }
                let peer = a + b - rank;
                for _ in 0..rounds {
                    loop {
                        let mut g = turn.lock();
                        if g.0 == rank {
                            break;
                        }
                        g.1 = Some(yield_slot());
                        drop(g);
                        park_self();
                    }
                    if carrier(peer) != carrier(rank) {
                        while !sched.inner.lock().idle[carrier(peer)] {
                            thread::yield_now();
                        }
                    }
                    let mut g = turn.lock();
                    g.0 = peer;
                    if let Some(w) = g.1.take() {
                        w.wake(Time::ZERO);
                    }
                }
            })
            .unwrap();
        sched.stats().handoffs
    }

    #[test]
    fn only_wakes_into_an_idle_carrier_are_handoffs() {
        // Ranks 0 and 1 share a carrier: every wake is a coroutine switch.
        assert_eq!(ping_pong_handoffs(0, 1, 16), 0);
        // Ranks 0 and 3 do not: each pass wakes a parked partner on an
        // idle carrier, except the last, whose partner has finished.
        assert_eq!(ping_pong_handoffs(0, 3, 16), 2 * 16 - 1);
    }

    #[test]
    fn release_hands_off_to_lowest_clock() {
        // One carrier, four ranks, all runnable at clock zero so they start
        // in rank order: ranks 0..3 park, and rank 3 wakes them at
        // decreasing clocks, so they must resume in reverse rank order.
        let sched = Scheduler::new(4, 1);
        let order = Mutex::new(Vec::new());
        let waiters = Mutex::new(Vec::<Waiter>::new());
        let out = sched
            .run(1 << 16, &|rank| {
                if rank == 3 {
                    for w in std::mem::take(&mut *waiters.lock()) {
                        let clock = Time(100 - w.rank as u64);
                        w.wake(clock);
                    }
                } else {
                    waiters.lock().push(yield_slot());
                    park_self();
                    order.lock().push(rank);
                }
                rank
            })
            .unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(*order.lock(), vec![2, 1, 0]);
        let stats = sched.stats();
        assert_eq!((stats.grants, stats.parks), (7, 6));
    }
}
