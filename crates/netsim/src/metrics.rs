//! Per-rank and per-site communication metrics: counters and histograms
//! folded from the event trace by [`RankMetrics::from_trace`].
//!
//! The trace carries every send, put, completed receive and
//! synchronization span, so a run that wants metrics enables the trace
//! ([`crate::SimConfig::with_trace`]) and folds it; the rank runtime keeps
//! no metrics of its own.
//!
//! Every folded quantity is a pure function of *virtual* time and workload
//! structure (post/completion clocks, message sizes, waitall widths),
//! never of thread interleaving — so a metrics dump is bit-identical
//! across `ExecPolicy::bounded(w)` for any `w` and any sweep-pool width. The interleaving-dependent *physical*
//! counters (unexpected-queue high water, matcher scan steps, mailbox
//! locks, scheduler slot occupancy) live in [`crate::RankStats`] /
//! [`SchedStats`] instead and are never folded into metric dumps that
//! promise byte equality.

use crate::trace::{EventKind, SiteId, TraceEvent};

/// Number of power-of-two buckets in a [`Hist`]. Bucket `i` counts values
/// `v` with `2^(i-1) < v <= 2^i` (bucket 0 counts zero).
pub const HIST_BUCKETS: usize = 40;

/// A deterministic log2 histogram over `u64` samples, with exact count,
/// sum, and max so means are reconstructible without bucket error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Power-of-two buckets; see [`HIST_BUCKETS`].
    pub buckets: [u64; HIST_BUCKETS],
    /// Number of recorded samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Largest recorded sample.
    pub max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Hist {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// The `p`-th percentile (0–100), resolved at bucket granularity: the
    /// upper bound of the first bucket whose cumulative count covers the
    /// percentile rank, clamped to the exact recorded max. A pure function
    /// of the (deterministic) bucket counts, so it is byte-stable across
    /// execution engines. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let upper = if i == 0 { 0 } else { 1u64 << i.min(63) };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Per-directive-site counters on one rank. Sites appear in first-touch
/// (program) order, which is deterministic per rank.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteMetrics {
    /// The directive call site.
    pub site: SiteId,
    /// Two-sided messages initiated at this site.
    pub msgs_sent: u64,
    /// Bytes moved by sends and puts at this site.
    pub bytes_sent: u64,
    /// Receives completed at this site.
    pub msgs_recvd: u64,
    /// Bytes received at this site.
    pub bytes_recvd: u64,
    /// Total posted-receive dwell (completion - post) at this site, ns.
    pub dwell_ns: u64,
}

/// Per-rank metrics, built by [`RankMetrics::from_trace`] (or by merging
/// other ranks' metrics).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankMetrics {
    /// Two-sided messages initiated.
    pub msgs_sent: u64,
    /// Bytes moved by two-sided sends.
    pub bytes_sent: u64,
    /// Receives completed.
    pub msgs_recvd: u64,
    /// Bytes delivered to this rank's receives.
    pub bytes_recvd: u64,
    /// One-sided puts initiated / bytes put.
    pub puts: u64,
    /// Bytes moved by puts.
    pub bytes_put: u64,
    /// Virtual ns spent in synchronization operations (wait, waitall,
    /// barrier, quiet), including their software overhead.
    pub wait_ns: u64,
    /// Posted-receive dwell times (completion - post), ns.
    pub recv_dwell: Hist,
    /// Widths of consolidated completions (waitall / region sync).
    pub waitall_width: Hist,
    /// Per-site breakdown, first-touch order.
    pub sites: Vec<SiteMetrics>,
}

impl RankMetrics {
    /// Fold a trace into per-rank metrics, indexed by rank (`nranks`
    /// entries; every event's rank must be below it).
    ///
    /// `SendPost`, `Put` and `RecvDone` feed the traffic counters and the
    /// per-site rows; only they create site rows, so a row's position is
    /// the rank's first traffic at that site. The spans of `Wait`,
    /// `Waitall`, `Quiet` and `Barrier` feed `wait_ns`, and `Waitall { n }`
    /// feeds `waitall_width`. Site order relies on each rank's events
    /// being in program order, which [`crate::TraceSink::take`] keeps: a
    /// rank's clock never goes backwards and the sort is stable.
    pub fn from_trace(events: &[TraceEvent], nranks: usize) -> Vec<RankMetrics> {
        let mut out = vec![RankMetrics::default(); nranks];
        for ev in events {
            out[ev.rank].record(ev);
        }
        out
    }

    fn record(&mut self, ev: &TraceEvent) {
        match ev.kind {
            EventKind::SendPost { bytes, .. } => {
                self.msgs_sent += 1;
                self.bytes_sent += bytes as u64;
                self.record_site_send(ev.site, bytes);
            }
            EventKind::Put { bytes, .. } => {
                self.puts += 1;
                self.bytes_put += bytes as u64;
                self.record_site_send(ev.site, bytes);
            }
            EventKind::RecvDone {
                bytes,
                posted,
                completion,
                ..
            } => {
                self.msgs_recvd += 1;
                self.bytes_recvd += bytes as u64;
                let dwell = completion.saturating_sub(posted).as_nanos();
                self.recv_dwell.record(dwell);
                if let Some(s) = ev.site {
                    let sm = self.site_mut(s);
                    sm.msgs_recvd += 1;
                    sm.bytes_recvd += bytes as u64;
                    sm.dwell_ns += dwell;
                }
            }
            EventKind::Waitall { n, .. } => {
                self.waitall_width.record(n as u64);
                self.wait_ns += ev.time.saturating_sub(ev.start).as_nanos();
            }
            EventKind::Wait { .. } | EventKind::Quiet { .. } | EventKind::Barrier { .. } => {
                self.wait_ns += ev.time.saturating_sub(ev.start).as_nanos();
            }
            _ => {}
        }
    }

    /// A send or put of `bytes` at `site` (if any): both count as traffic
    /// initiated at the site.
    fn record_site_send(&mut self, site: Option<SiteId>, bytes: usize) {
        if let Some(s) = site {
            let sm = self.site_mut(s);
            sm.msgs_sent += 1;
            sm.bytes_sent += bytes as u64;
        }
    }

    /// The per-site slot for `site`, created on first touch.
    fn site_mut(&mut self, site: SiteId) -> &mut SiteMetrics {
        // Linear scan: directive programs have a handful of sites, and the
        // vec stays cache-resident (same shape as the engine's site tables).
        let idx = match self.sites.iter().position(|s| s.site == site) {
            Some(i) => i,
            None => {
                self.sites.push(SiteMetrics {
                    site,
                    ..Default::default()
                });
                self.sites.len() - 1
            }
        };
        &mut self.sites[idx]
    }

    /// Merge another rank's metrics (for whole-job aggregates). Per-site
    /// entries merge by site id; the union keeps the callee's first-touch
    /// order, then the other's unseen sites.
    pub fn merge(&mut self, other: &RankMetrics) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_recvd += other.msgs_recvd;
        self.bytes_recvd += other.bytes_recvd;
        self.puts += other.puts;
        self.bytes_put += other.bytes_put;
        self.wait_ns += other.wait_ns;
        self.recv_dwell.merge(&other.recv_dwell);
        self.waitall_width.merge(&other.waitall_width);
        for os in &other.sites {
            let sm = self.site_mut(os.site);
            sm.msgs_sent += os.msgs_sent;
            sm.bytes_sent += os.bytes_sent;
            sm.msgs_recvd += os.msgs_recvd;
            sm.bytes_recvd += os.bytes_recvd;
            sm.dwell_ns += os.dwell_ns;
        }
    }
}

/// Physical occupancy counters from the scheduler. These depend on
/// wall-clock interleaving and are reported for tuning only — never part of
/// deterministic profile output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Carrier threads (the engine's execution slots).
    pub slots: usize,
    /// Peak number of carriers running a rank at once.
    pub max_occupied: usize,
    /// Resumptions of a rank by its carrier (first runs + wakeups).
    pub grants: u64,
    /// Times a rank was queued behind its busy carrier.
    pub parks: u64,
    /// Wakes that unparked an idle carrier: each a futex wake of another
    /// thread, which runs once the OS schedules it, where a wake within a
    /// busy carrier only queues the rank for a coroutine switch.
    pub handoffs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    #[test]
    fn hist_buckets_and_moments() {
        let mut h = Hist::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(1024);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1027);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 1); // zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 1); // 2
        assert_eq!(h.buckets[11], 1); // 1024 = 2^10, ceil bucket
        assert!((h.mean() - 1027.0 / 4.0).abs() < 1e-12);
    }

    fn ev(rank: usize, start: u64, time: u64, site: Option<SiteId>, kind: EventKind) -> TraceEvent {
        TraceEvent {
            rank,
            time: Time(time),
            start: Time(start),
            site,
            kind,
        }
    }

    fn send(rank: usize, site: Option<SiteId>, bytes: usize) -> TraceEvent {
        ev(
            rank,
            0,
            0,
            site,
            EventKind::SendPost {
                dst: 0,
                tag: 0,
                bytes,
            },
        )
    }

    #[test]
    fn site_attribution_first_touch_order() {
        let evs = [
            // A waitall at site 5 opens no site row: only traffic does.
            ev(
                0,
                0,
                20,
                Some(5),
                EventKind::Waitall {
                    n: 4,
                    horizon: Time(15),
                },
            ),
            send(0, Some(7), 10),
            send(0, Some(3), 20),
            ev(
                0,
                400,
                400,
                Some(7),
                EventKind::RecvDone {
                    src: 1,
                    tag: 0,
                    bytes: 5,
                    unexpected: false,
                    posted: Time(100),
                    completion: Time(400),
                },
            ),
            send(1, Some(3), 8),
        ];
        let ms = RankMetrics::from_trace(&evs, 2);
        let m = &ms[0];
        assert_eq!(m.sites.len(), 2);
        assert_eq!(m.sites[0].site, 7);
        assert_eq!(m.sites[1].site, 3);
        assert_eq!(m.sites[0].bytes_sent, 10);
        assert_eq!(m.sites[0].dwell_ns, 300);
        assert_eq!(m.msgs_sent, 2);
        assert_eq!(m.bytes_recvd, 5);
        assert_eq!(m.recv_dwell.sum, 300);
        assert_eq!(m.wait_ns, 20);
        assert_eq!((m.waitall_width.count, m.waitall_width.max), (1, 4));
        assert_eq!(ms[1].msgs_sent, 1);
        assert_eq!(ms[1].sites[0].site, 3);
    }

    #[test]
    fn merge_folds_sites_by_id() {
        let evs = [
            send(0, Some(1), 10),
            ev(0, 0, 50, None, EventKind::Wait { horizon: Time(40) }),
            send(1, Some(1), 30),
            ev(1, 0, 0, Some(9), EventKind::Put { dst: 0, bytes: 4 }),
        ];
        let [mut a, b] = <[RankMetrics; 2]>::try_from(RankMetrics::from_trace(&evs, 2)).unwrap();
        a.merge(&b);
        assert_eq!(a.sites.len(), 2);
        assert_eq!(a.sites[0].bytes_sent, 40);
        assert_eq!(a.sites[1].site, 9);
        assert_eq!(a.wait_ns, 50);
        assert_eq!(a.puts, 1);
    }
}
