//! Shadow-state race sanitizer for one-sided communication (the dynamic
//! half of commrace).
//!
//! Opt-in ([`crate::ExecPolicy::with_sanitize`]): every access
//! to a symmetric-segment byte range — put delivery, put source read, get,
//! local load/store — is tagged with the accessor's rank, epoch
//! (full-barrier count), site, and synchronization snapshots, and checked
//! against every prior access to the same owner's copy under the
//! happens-before rules of `commint::race`. A conflicting unordered pair is
//! recorded with enough context to print a span-carrying diagnostic
//! ([`SanitizeReport::assert_clean`] aborts with it).
//!
//! ## Happens-before rules (mirror of the static analyzer)
//!
//! Two accesses to the same owner's copy are ordered iff
//!
//! 1. same accessor rank — program order — **except** a put's source read
//!    vs. a later local store by the same rank, which stays racy until a
//!    quiet retires the source read (CI011);
//! 2. different accessor epochs: a full barrier separates them;
//! 3. a signalled delivery with ordinal `o` vs. an owner-local access that
//!    has waited ≥ `o` signals (the signal-wait edge), or whose consumed
//!    count keeps the delivery flow-controlled behind it
//!    (`o > consumed + window`);
//! 4. two signalled deliveries at least one flow-control window apart.
//!
//! Everything the rules read is a deterministic function of per-rank
//! program state plus signal ordinals; ordinal assignment is the one
//! physically-ordered input, and it only permutes *which* delivery a
//! conflict names, never *how many* conflicting pairs exist — so
//! `race_checks` and `conflicts_found` are bit-stable across engines and
//! interleavings, and the CI cross-engine equality gate covers them.
//!
//! Records are kept for the whole run (no purging): pair-counting must not
//! depend on when a purge raced a late delivery. Shadow memory is
//! proportional to the number of segment accesses, which is fine for the
//! shipped workloads and the differential corpus.

use std::collections::BTreeSet;
use std::collections::HashMap;

use parking_lot::Mutex;

use crate::fabric::SegId;
use crate::trace::SiteId;

/// Lint-catalog code strings for conflict classes. `netsim` sits below
/// `commint`, so the sanitizer reports codes as strings; the differential
/// harness joins them against `commint::LintCode` by code.
pub const CODE_OVERLAPPING_PUTS: &str = "CI009";
/// See [`CODE_OVERLAPPING_PUTS`].
pub const CODE_GET_PUT_CONFLICT: &str = "CI010";
/// See [`CODE_OVERLAPPING_PUTS`].
pub const CODE_SOURCE_REUSE: &str = "CI011";
/// See [`CODE_OVERLAPPING_PUTS`].
pub const CODE_READ_BEFORE_WAIT: &str = "CI012";

/// How a shadow record touches the owner's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A remote delivery (writes); `ordinal` numbers signalled deliveries
    /// into this owner's copy, `None` for unsignalled puts.
    PutData { ordinal: Option<u64> },
    /// The origin-side source read of a put (on the origin's own copy),
    /// live until the origin's `quiet_seq`-th quiet.
    PutSrc { quiet_seq: u64 },
    /// A remote get (reads).
    Get,
    /// Owner-local load.
    LocalRead,
    /// Owner-local store.
    LocalWrite,
}

impl Kind {
    fn writes(self) -> bool {
        matches!(self, Kind::PutData { .. } | Kind::LocalWrite)
    }
}

/// One shadow record: who touched which bytes of whose copy, and under
/// which synchronization state.
#[derive(Clone, Copy, Debug)]
struct Record {
    lo: usize,
    hi: usize,
    /// Accessing rank.
    rank: usize,
    /// Accessor's full-barrier count at the access.
    epoch: u64,
    /// Accessor's per-rank insertion index (program order within a rank).
    seq: u64,
    /// Accessor's cumulative signal wait on this segment (local accesses).
    waited: u64,
    /// Accessor's consumed-delivery count on this segment (flow control).
    consumed: u64,
    /// Accessor's quiet count (retires `PutSrc`).
    quiets: u64,
    site: Option<SiteId>,
    kind: Kind,
}

/// One conflicting unordered pair, with diagnostic context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Conflict {
    /// `CI009`–`CI012` code string.
    pub code: &'static str,
    /// The symmetric segment.
    pub seg: SegId,
    /// Rank whose copy holds the conflicting bytes.
    pub owner: usize,
    /// Overlap start (byte offset into the segment).
    pub lo: usize,
    /// Overlap end (exclusive).
    pub hi: usize,
    /// The two accessing ranks (sorted).
    pub ranks: (usize, usize),
    /// Directive sites of the two accesses, if known.
    pub sites: (Option<SiteId>, Option<SiteId>),
    /// Epoch the conflict occurred in.
    pub epoch: u64,
}

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: ranks {} and {} touch bytes [{}, {}) of rank {}'s copy of segment {} \
             concurrently in epoch {} (sites {:?}/{:?})",
            self.code,
            self.ranks.0,
            self.ranks.1,
            self.lo,
            self.hi,
            self.owner,
            self.seg.0,
            self.epoch,
            self.sites.0,
            self.sites.1,
        )
    }
}

/// Per-rank synchronization state the happens-before rules snapshot.
#[derive(Default)]
struct RankState {
    epoch: u64,
    seq: u64,
    quiets: u64,
    /// Cumulative signals waited per segment.
    waited: HashMap<usize, u64>,
    /// Cumulative deliveries consumed per segment.
    consumed: HashMap<usize, u64>,
    /// Accesses recorded by this rank.
    race_checks: u64,
    /// Conflicts detected at this rank's accesses.
    conflicts_found: u64,
}

/// Per-(segment, owner) shadow memory.
#[derive(Default)]
struct SlotShadow {
    window: u64,
    records: Vec<Record>,
}

/// The sanitizer: shared shadow state across all ranks of one run.
pub struct Sanitizer {
    ranks: Vec<Mutex<RankState>>,
    slots: Mutex<HashMap<(usize, usize), SlotShadow>>,
    conflicts: Mutex<Vec<Conflict>>,
}

impl Sanitizer {
    /// Shadow state for `nranks` ranks.
    pub fn new(nranks: usize) -> Sanitizer {
        Sanitizer {
            ranks: (0..nranks).map(|_| Mutex::default()).collect(),
            slots: Mutex::default(),
            conflicts: Mutex::default(),
        }
    }

    // -- rank-state hooks (called by RankCtx) -------------------------------

    /// A full barrier bumps the rank's epoch.
    pub(crate) fn on_full_barrier(&self, rank: usize) {
        self.ranks[rank].lock().epoch += 1;
    }

    /// `quiet` retires the rank's outstanding put source reads.
    pub(crate) fn on_quiet(&self, rank: usize) {
        self.ranks[rank].lock().quiets += 1;
    }

    /// The rank has now waited for `count` cumulative signals on `seg`.
    pub(crate) fn on_wait(&self, rank: usize, seg: SegId, count: u64) {
        let mut st = self.ranks[rank].lock();
        let w = st.waited.entry(seg.0).or_insert(0);
        *w = (*w).max(count);
    }

    /// The rank consumed `count` more deliveries on `seg`.
    pub(crate) fn on_consumed(&self, rank: usize, seg: SegId, count: u64) {
        *self.ranks[rank].lock().consumed.entry(seg.0).or_insert(0) += count;
    }

    // -- access hooks -------------------------------------------------------

    /// A put delivery into `target`'s copy. `ordinal` is the signal ordinal
    /// the fabric assigned (None for unsignalled).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_put_data(
        &self,
        origin: usize,
        seg: SegId,
        window: u64,
        target: usize,
        offset: usize,
        len: usize,
        ordinal: Option<u64>,
        site: Option<SiteId>,
    ) {
        self.record(
            origin,
            seg,
            window,
            target,
            offset,
            len,
            site,
            Kind::PutData { ordinal },
        );
    }

    /// The origin-side source read of a put from the origin's own copy.
    pub(crate) fn on_put_src(
        &self,
        origin: usize,
        seg: SegId,
        window: u64,
        offset: usize,
        len: usize,
        site: Option<SiteId>,
    ) {
        let quiet_seq = self.ranks[origin].lock().quiets;
        self.record(
            origin,
            seg,
            window,
            origin,
            offset,
            len,
            site,
            Kind::PutSrc { quiet_seq },
        );
    }

    /// A get from `target`'s copy.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_get(
        &self,
        origin: usize,
        seg: SegId,
        window: u64,
        target: usize,
        offset: usize,
        len: usize,
        site: Option<SiteId>,
    ) {
        self.record(origin, seg, window, target, offset, len, site, Kind::Get);
    }

    /// An owner-local load.
    pub(crate) fn on_local_read(
        &self,
        rank: usize,
        seg: SegId,
        window: u64,
        offset: usize,
        len: usize,
        site: Option<SiteId>,
    ) {
        self.record(rank, seg, window, rank, offset, len, site, Kind::LocalRead);
    }

    /// An owner-local store.
    pub(crate) fn on_local_write(
        &self,
        rank: usize,
        seg: SegId,
        window: u64,
        offset: usize,
        len: usize,
        site: Option<SiteId>,
    ) {
        self.record(rank, seg, window, rank, offset, len, site, Kind::LocalWrite);
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        rank: usize,
        seg: SegId,
        window: u64,
        owner: usize,
        offset: usize,
        len: usize,
        site: Option<SiteId>,
        kind: Kind,
    ) {
        if len == 0 {
            return;
        }
        let rec = {
            let mut st = self.ranks[rank].lock();
            st.race_checks += 1;
            st.seq += 1;
            Record {
                lo: offset,
                hi: offset + len,
                rank,
                epoch: st.epoch,
                seq: st.seq,
                waited: st.waited.get(&seg.0).copied().unwrap_or(0),
                consumed: st.consumed.get(&seg.0).copied().unwrap_or(0),
                quiets: st.quiets,
                site,
                kind,
            }
        };
        let mut found = Vec::new();
        {
            let mut slots = self.slots.lock();
            let shadow = slots.entry((seg.0, owner)).or_default();
            shadow.window = window;
            for old in &shadow.records {
                if old.hi.min(rec.hi) <= old.lo.max(rec.lo) {
                    continue;
                }
                if !(old.kind.writes() || rec.kind.writes()) {
                    continue;
                }
                if ordered(old, &rec, owner, window) {
                    continue;
                }
                found.push(Conflict {
                    code: classify(old, &rec),
                    seg,
                    owner,
                    lo: old.lo.max(rec.lo),
                    hi: old.hi.min(rec.hi),
                    ranks: (old.rank.min(rec.rank), old.rank.max(rec.rank)),
                    sites: (old.site, rec.site),
                    epoch: rec.epoch,
                });
            }
            shadow.records.push(rec);
        }
        if !found.is_empty() {
            self.ranks[rank].lock().conflicts_found += found.len() as u64;
            self.conflicts.lock().extend(found);
        }
    }

    /// Per-rank `(race_checks, conflicts_found)` counters.
    pub(crate) fn rank_counters(&self, rank: usize) -> (u64, u64) {
        let st = self.ranks[rank].lock();
        (st.race_checks, st.conflicts_found)
    }

    /// Consume the sanitizer into its report.
    pub(crate) fn into_report(self) -> SanitizeReport {
        let race_checks = self.ranks.iter().map(|r| r.lock().race_checks).sum::<u64>();
        let mut conflicts = self.conflicts.into_inner();
        // Stable order for diffing across engines and interleavings.
        conflicts.sort_by_key(|c| (c.code, c.seg.0, c.owner, c.lo, c.hi, c.ranks, c.epoch));
        SanitizeReport {
            race_checks,
            conflicts,
        }
    }
}

/// Happens-before on two records over the same owner's copy. Must match
/// `commint::race::analyze_ops` — the differential harness enforces it.
fn ordered(a: &Record, b: &Record, owner: usize, window: u64) -> bool {
    if a.rank == b.rank {
        // CI011: the NIC's source read escapes program order until a quiet
        // retires it. `seq` is per-rank program order.
        let pair = match (a.kind, b.kind) {
            (Kind::PutSrc { quiet_seq }, Kind::LocalWrite) => Some((quiet_seq, a.seq, b)),
            (Kind::LocalWrite, Kind::PutSrc { quiet_seq }) => Some((quiet_seq, b.seq, a)),
            _ => None,
        };
        if let Some((quiet_seq, src_seq, wr)) = pair {
            return wr.seq < src_seq || wr.quiets > quiet_seq;
        }
        return true;
    }
    if a.epoch != b.epoch {
        return true;
    }
    // Signal-wait and flow-control edges between a delivery and an
    // owner-local access. A remote getter's `waited` concerns its own
    // copy, so the edge exists only when the non-delivery side IS the
    // owner.
    let sig = |del: &Record, loc: &Record| -> bool {
        if loc.rank != owner {
            return false;
        }
        match del.kind {
            Kind::PutData { ordinal: Some(o) } => {
                loc.waited >= o || o > loc.consumed.saturating_add(window)
            }
            _ => false,
        }
    };
    if matches!(a.kind, Kind::PutData { .. })
        && !matches!(b.kind, Kind::PutData { .. })
        && sig(a, b)
    {
        return true;
    }
    if matches!(b.kind, Kind::PutData { .. })
        && !matches!(a.kind, Kind::PutData { .. })
        && sig(b, a)
    {
        return true;
    }
    // Two signalled deliveries a full flow-control window apart.
    if let (Kind::PutData { ordinal: Some(x) }, Kind::PutData { ordinal: Some(y) }) =
        (a.kind, b.kind)
    {
        return x.abs_diff(y) >= window;
    }
    false
}

/// Conflict classification, mirroring `commint::race`.
fn classify(a: &Record, b: &Record) -> &'static str {
    use Kind::*;
    match (a.kind, b.kind) {
        (PutData { .. }, PutData { .. })
        | (PutData { .. }, LocalWrite)
        | (LocalWrite, PutData { .. }) => CODE_OVERLAPPING_PUTS,
        (PutData { .. }, Get) | (Get, PutData { .. }) | (Get, LocalWrite) | (LocalWrite, Get) => {
            CODE_GET_PUT_CONFLICT
        }
        (PutSrc { .. }, LocalWrite) | (LocalWrite, PutSrc { .. }) => CODE_SOURCE_REUSE,
        _ => CODE_READ_BEFORE_WAIT,
    }
}

/// The sanitizer's verdict for one run.
#[derive(Clone, Debug, Default)]
pub struct SanitizeReport {
    /// Total accesses recorded (deterministic).
    pub race_checks: u64,
    /// Every conflicting unordered pair, in stable order.
    pub conflicts: Vec<Conflict>,
}

impl SanitizeReport {
    /// Number of conflicting pairs found.
    pub fn conflicts_found(&self) -> usize {
        self.conflicts.len()
    }

    /// The distinct conflict codes, for differential comparison against the
    /// static analyzer's verdict.
    pub fn codes(&self) -> BTreeSet<&'static str> {
        self.conflicts.iter().map(|c| c.code).collect()
    }

    /// Abort with a full diagnostic if any conflict was recorded.
    pub fn assert_clean(&self) {
        if self.conflicts.is_empty() {
            return;
        }
        let mut msg = format!(
            "one-sided race sanitizer found {} conflicting access pair(s):\n",
            self.conflicts.len()
        );
        for c in &self.conflicts {
            msg.push_str(&format!("  {c}\n"));
        }
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(rank: usize, kind: Kind) -> Record {
        Record {
            lo: 0,
            hi: 8,
            rank,
            epoch: 0,
            seq: 1,
            waited: 0,
            consumed: 0,
            quiets: 0,
            site: None,
            kind,
        }
    }

    #[test]
    fn epoch_and_program_order_dominate() {
        let a = rec(0, Kind::PutData { ordinal: Some(1) });
        let mut b = rec(1, Kind::LocalRead);
        assert!(!ordered(&a, &b, 1, u64::MAX), "unwaited read races");
        b.waited = 1;
        assert!(ordered(&a, &b, 1, u64::MAX), "signal wait orders");
        b.waited = 0;
        b.epoch = 1;
        assert!(ordered(&a, &b, 1, u64::MAX), "barrier orders");
        let same = rec(0, Kind::LocalWrite);
        assert!(ordered(&a, &same, 1, u64::MAX), "program order");
    }

    #[test]
    fn put_src_outlives_program_order_until_quiet() {
        let src = rec(0, Kind::PutSrc { quiet_seq: 0 });
        let mut wr = rec(0, Kind::LocalWrite);
        wr.seq = 2;
        assert!(!ordered(&src, &wr, 0, u64::MAX), "write-before-quiet races");
        wr.quiets = 1;
        assert!(ordered(&src, &wr, 0, u64::MAX), "quiet retires the source");
        let mut early = rec(0, Kind::LocalWrite);
        early.seq = 0;
        assert!(ordered(&src, &early, 0, u64::MAX), "write before the put");
    }

    #[test]
    fn flow_control_window_orders_distant_deliveries() {
        let a = rec(0, Kind::PutData { ordinal: Some(1) });
        let b = rec(1, Kind::PutData { ordinal: Some(3) });
        assert!(!ordered(&a, &b, 2, u64::MAX));
        assert!(ordered(&a, &b, 2, 2), "a full window apart");
        assert!(!ordered(&a, &b, 2, 3));
    }

    #[test]
    fn report_classifies_and_aborts() {
        let san = Sanitizer::new(2);
        san.on_put_data(0, SegId(0), u64::MAX, 1, 0, 8, Some(1), Some(7));
        san.on_local_read(1, SegId(0), u64::MAX, 4, 8, None);
        let report = san.into_report();
        assert_eq!(report.race_checks, 2);
        assert_eq!(report.conflicts_found(), 1);
        assert_eq!(
            report.codes().into_iter().collect::<Vec<_>>(),
            vec![CODE_READ_BEFORE_WAIT]
        );
        let c = &report.conflicts[0];
        assert_eq!((c.lo, c.hi), (4, 8));
        assert_eq!(c.ranks, (0, 1));
        let result = std::panic::catch_unwind(|| report.assert_clean());
        assert!(result.is_err(), "assert_clean aborts on conflicts");
    }
}
