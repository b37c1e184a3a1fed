//! Parametric one-sided race detection (the static half of commrace).
//!
//! The one-sided and SHMEM lowerings buy their speed by removing the
//! receiver from the critical path: data lands in the target's window
//! asynchronously and ordering comes only from the explicit
//! synchronization points — per-site signal waits, the placed region sync
//! (quiet/fence), and barriers. That re-introduces a bug class the
//! two-sided lints (CI001–CI008) never see: conflicting remote accesses
//! racing *between* synchronization points.
//!
//! This module adds the directive-level happens-before analysis behind
//! lint codes CI009–CI012 ([`lint_races`], called from
//! [`crate::diag::lint_region_at`]) and the op-level race semantics
//! ([`RaceOp`], [`analyze_ops`]) that the runtime shadow-state sanitizer
//! in `netsim` mirrors — the differential harness asserts the two halves
//! agree on generated programs.
//!
//! ## The epoch model
//!
//! A consolidated region under a one-sided target is one *epoch*: puts
//! issued anywhere in the region complete only at the placed sync
//! (`place_sync`), and the only intra-epoch ordering edges are
//!
//! * program order within one rank,
//! * a signal wait, which orders the waited deliveries before everything
//!   after the wait on the waiting rank, and
//! * the staging flow-control window, which orders a delivery after the
//!   consumption of the delivery one window earlier.
//!
//! Remote access intervals are half-open byte spans
//! `[base, base + count·elem)` built on the shared interval engine
//! ([`crate::interval`]); a rank-dependent `count` clause contributes its
//! affine normal form scaled by the element size
//! ([`crate::nf::NormExpr::scaled`]), which keeps the findings inside the
//! affine-congruence class `commprove` quantifies over.

use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::analysis::resolve_graph;
use crate::buffer::BufMeta;
use crate::clause::{ClauseSet, PlaceSync, Severity, Target};
use crate::diag::{Diag, LintCode, RankWitness, SrcSpan};
use crate::dir::{P2pSpec, ParamsSpec};
use crate::expr::{EvalEnv, RankExpr, VarTable};
use crate::interval::ByteSpan;
use crate::nf::{normalize_expr, NormExpr};

/// Whether a merged target lowers to one-sided transfers.
fn one_sided(target: Target) -> bool {
    matches!(target, Target::Mpi1Side | Target::Shmem)
}

/// Transfer element count for `rank` under the site's merged clauses.
fn count_at(
    merged: &ClauseSet,
    p2p: &P2pSpec,
    rank: usize,
    nranks: usize,
    vars: &HashMap<String, i64>,
) -> Option<usize> {
    let env = EvalEnv {
        rank: rank as i64,
        nranks: nranks as i64,
        vars: vars.into(),
    };
    let c = match &merged.count {
        Some(c) => c.eval(&env).ok()?,
        None => p2p.inferred_count().map(|c| c as i64)?,
    };
    (c > 0).then_some(c as usize)
}

/// Render the remote-access interval of `buf` symbolically when the count
/// clause normalizes to an affine form, concretely otherwise: the witness
/// text `commprove` quantifies carries `[base, base+extent)` with the
/// extent in `rank`/`nprocs` terms.
fn interval_text(
    merged: &ClauseSet,
    buf: &BufMeta,
    concrete: ByteSpan,
    vars: &HashMap<String, i64>,
) -> String {
    let elem = buf.elem.packed_size() as i64;
    let symbolic = merged.count.as_ref().and_then(|c: &RankExpr| {
        let table: VarTable = vars.into();
        match normalize_expr(c, &table).ok()?.scaled(elem)? {
            // Only a genuinely parametric extent earns the symbolic form;
            // a constant one reads better as concrete bytes.
            NormExpr::Lin(l) if !l.is_const() => {
                Some(format!("[{}, {}+{})", buf.addr.0, buf.addr.0, l))
            }
            _ => None,
        }
    });
    symbolic.unwrap_or_else(|| concrete.to_string())
}

/// Per-site facts the race lints consume.
struct SiteView {
    idx: usize,
    one_sided: bool,
    place: PlaceSync,
    iterated: bool,
    /// Put edges, as declared by the send side (one-sided transfers fire
    /// without receiver participation).
    sends: Vec<(usize, usize)>,
}

fn site_views(spec: &ParamsSpec, nranks: usize, vars: &HashMap<String, i64>) -> Vec<SiteView> {
    spec.body
        .iter()
        .enumerate()
        .map(|(idx, p2p)| {
            let merged = p2p.clauses.merged_with(&spec.clauses);
            let g = resolve_graph(p2p, Some(&spec.clauses), nranks, vars);
            let env = EvalEnv {
                rank: 0,
                nranks: nranks as i64,
                vars: vars.into(),
            };
            let iterated = match &merged.max_comm_iter {
                Some(e) => e.eval(&env).map(|n| n >= 2).unwrap_or(true),
                None => true,
            };
            SiteView {
                idx,
                one_sided: one_sided(merged.target.unwrap_or_default()),
                place: merged.place_sync.unwrap_or_default(),
                iterated,
                sends: g.sends.iter().map(|e| (e.src, e.dst)).collect(),
            }
        })
        .collect()
}

/// Lint one region at one concrete rank count for the one-sided race
/// catalog (CI009–CI012). Like every `lint_region_at` check, this is
/// evaluated per rank count; `commlint` merges the sweep into
/// smallest-failing-N witnesses and `commprove` replays it across a
/// verified window to quantify ∀N.
pub fn lint_races(
    region: usize,
    spec: &ParamsSpec,
    nranks: usize,
    vars: &HashMap<String, i64>,
) -> Vec<Diag> {
    let mut out = Vec::new();
    // Every race code needs at least one one-sided site to anchor on
    // (two-sided views only ever appear as the read side of a one-sided
    // conflict), so a region whose merged targets are all two-sided can
    // skip the per-rank graph resolution entirely. The target clause is
    // a plain enum — this costs two Option reads per site.
    if !spec.body.iter().any(|p2p| {
        one_sided(
            p2p.clauses
                .target
                .or(spec.clauses.target)
                .unwrap_or_default(),
        )
    }) {
        return out;
    }
    let views = site_views(spec, nranks, vars);

    // -- CI009: overlapping concurrent puts to the same target window -------
    // A one-sided lowering turns every declared send edge into a put into
    // the destination's `rbuf` window. Two origins mapped to one
    // destination write the same interval with no ordering edge between
    // them inside the epoch.
    for view in views.iter().filter(|v| v.one_sided) {
        let p2p = &spec.body[view.idx];
        let merged = p2p.clauses.merged_with(&spec.clauses);
        let mut by_dst: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &(src, dst) in &view.sends {
            by_dst.entry(dst).or_default().push(src);
        }
        for (k, rb) in p2p.rbuf.iter().enumerate() {
            let mut witness_ranks: Vec<usize> = Vec::new();
            let mut sample: Option<(usize, ByteSpan)> = None;
            for (&dst, srcs) in &by_dst {
                if srcs.len() < 2 {
                    continue;
                }
                // All origins put from the window base; the writes overlap
                // as soon as two of them transfer at least one element.
                let writers: Vec<usize> = srcs
                    .iter()
                    .copied()
                    .filter(|&s| count_at(&merged, p2p, s, nranks, vars).is_some())
                    .collect();
                if writers.len() < 2 {
                    continue;
                }
                let c = count_at(&merged, p2p, writers[0], nranks, vars).unwrap_or(1);
                sample.get_or_insert((dst, ByteSpan::of_transfer(rb, c)));
                witness_ranks.extend(&writers);
            }
            if let Some((dst, span)) = sample {
                witness_ranks.sort_unstable();
                witness_ranks.dedup();
                let interval = interval_text(&merged, rb, span, vars);
                out.push(Diag {
                    code: LintCode::OverlappingPuts,
                    severity: Severity::Error,
                    message: format!(
                        "{} origins put into the same target window `{}` {} of rank {} \
                         within one epoch: concurrent one-sided writes overlap with no \
                         ordering edge between them, so the destination bytes are \
                         undefined",
                        witness_ranks.len(),
                        rb.name,
                        interval,
                        dst
                    ),
                    span: p2p
                        .spans
                        .rbuf
                        .get(k)
                        .copied()
                        .or_else(|| p2p.spans.buffers())
                        .or_else(|| spec.spans.buffers()),
                    region,
                    site: Some(p2p.site),
                    key: format!("p{}:pair{k}:fanin", view.idx),
                    witness: Some(RankWitness {
                        nranks,
                        ranks: witness_ranks,
                    }),
                    verification: None,
                });
            }
        }
    }

    // -- CI010 / CI012: a put delivery vs. a source read across sites -------
    // Rank r receives a put into `rbuf` at site w and reads an overlapping
    // `sbuf` as the source of site rd. Program order decides the severity:
    //
    // * w < rd — the put lowering is safe (r's signal wait at site w
    //   precedes the read at site rd), but the intent equally admits a get
    //   lowering where site rd's transfer pulls r's `sbuf` remotely,
    //   unordered with site w's delivery: a portability hazard (warning).
    // * w > rd — r reads the source at site rd *before* reaching site w's
    //   signal wait, while a faster origin may already have passed its own
    //   site w and fired the put: the delivery races the read under every
    //   one-sided lowering (error).
    for w in &views {
        if !w.one_sided {
            continue;
        }
        let wp = &spec.body[w.idx];
        let wmerged = wp.clauses.merged_with(&spec.clauses);
        for rd in &views {
            if rd.idx == w.idx {
                continue;
            }
            let rp = &spec.body[rd.idx];
            let rmerged = rp.clauses.merged_with(&spec.clauses);
            let mut shared: Vec<usize> = w
                .sends
                .iter()
                .map(|&(_, dst)| dst)
                .filter(|&r| rd.sends.iter().any(|&(src, _)| src == r))
                .collect();
            shared.sort_unstable();
            shared.dedup();
            if shared.is_empty() {
                continue;
            }
            for (kw, rb) in wp.rbuf.iter().enumerate() {
                for (kr, sb) in rp.sbuf.iter().enumerate() {
                    let racy: Vec<usize> = shared
                        .iter()
                        .copied()
                        .filter(|&r| {
                            let cw = count_at(&wmerged, wp, r, nranks, vars);
                            let cr = count_at(&rmerged, rp, r, nranks, vars);
                            match (cw, cr) {
                                (Some(cw), Some(cr)) => ByteSpan::of_transfer(rb, cw)
                                    .overlaps(&ByteSpan::of_transfer(sb, cr)),
                                _ => false,
                            }
                        })
                        .collect();
                    if racy.is_empty() {
                        continue;
                    }
                    let r0 = racy[0];
                    let cw = count_at(&wmerged, wp, r0, nranks, vars).unwrap_or(1);
                    let interval = interval_text(&wmerged, rb, ByteSpan::of_transfer(rb, cw), vars);
                    let (code, severity, message, span): (_, _, String, Option<SrcSpan>) =
                        if w.idx < rd.idx {
                            (
                                LintCode::GetPutConflict,
                                Severity::Warning,
                                format!(
                                    "rank {r0} receives a put into `{}` {} at comm_p2p #{} and \
                                     sources `{}` from overlapping memory at comm_p2p #{}: safe \
                                     under the put lowering (the signal wait orders the sites), \
                                     but a get lowering of #{} reads the source remotely, \
                                     unordered with #{}'s delivery — a get/put conflict in the \
                                     same epoch",
                                    rb.name, interval, w.idx, sb.name, rd.idx, rd.idx, w.idx
                                ),
                                rp.spans
                                    .sbuf
                                    .get(kr)
                                    .copied()
                                    .or_else(|| rp.spans.buffers())
                                    .or_else(|| spec.spans.buffers()),
                            )
                        } else {
                            (
                                LintCode::ReadBeforeSignalWait,
                                Severity::Error,
                                format!(
                                    "rank {r0} reads `{}` as the source of comm_p2p #{} before \
                                     reaching the signal wait of comm_p2p #{}, whose put \
                                     delivery into `{}` {} overlaps it: a faster origin's \
                                     delivery lands mid-read (read of a signalled region \
                                     before the signal wait)",
                                    sb.name, rd.idx, w.idx, rb.name, interval
                                ),
                                wp.spans
                                    .rbuf
                                    .get(kw)
                                    .copied()
                                    .or_else(|| wp.spans.buffers())
                                    .or_else(|| spec.spans.buffers()),
                            )
                        };
                    out.push(Diag {
                        code,
                        severity,
                        message,
                        span,
                        region,
                        site: Some(rp.site),
                        key: format!("w{}:r{}:{kw}:{kr}", w.idx, rd.idx),
                        witness: Some(RankWitness {
                            nranks,
                            ranks: racy,
                        }),
                        verification: None,
                    });
                }
            }
        }
    }

    // -- CI011: source-buffer reuse before put completion --------------------
    // With the quiet deferred past the region end (`place_sync` other than
    // END_PARAM_REGION) and the region executing again, iteration k+1's
    // delivery into `rbuf` rewrites memory that iteration k's put is still
    // entitled to read as its source: write-before-quiet.
    for j in views.iter().filter(|v| v.one_sided) {
        if j.place == PlaceSync::EndParamRegion || !j.iterated {
            continue;
        }
        let jp = &spec.body[j.idx];
        let jmerged = jp.clauses.merged_with(&spec.clauses);
        for i in &views {
            if i.idx == j.idx {
                continue;
            }
            let ip = &spec.body[i.idx];
            let imerged = ip.clauses.merged_with(&spec.clauses);
            let mut reusers: Vec<usize> = j
                .sends
                .iter()
                .map(|&(src, _)| src)
                .filter(|&r| i.sends.iter().any(|&(_, dst)| dst == r))
                .collect();
            reusers.sort_unstable();
            reusers.dedup();
            if reusers.is_empty() {
                continue;
            }
            for (kj, sb) in jp.sbuf.iter().enumerate() {
                for (ki, rb) in ip.rbuf.iter().enumerate() {
                    let racy: Vec<usize> = reusers
                        .iter()
                        .copied()
                        .filter(|&r| {
                            let cj = count_at(&jmerged, jp, r, nranks, vars);
                            let ci = count_at(&imerged, ip, r, nranks, vars);
                            match (cj, ci) {
                                (Some(cj), Some(ci)) => ByteSpan::of_transfer(sb, cj)
                                    .overlaps(&ByteSpan::of_transfer(rb, ci)),
                                _ => false,
                            }
                        })
                        .collect();
                    if racy.is_empty() {
                        continue;
                    }
                    let r0 = racy[0];
                    let cj = count_at(&jmerged, jp, r0, nranks, vars).unwrap_or(1);
                    let interval = interval_text(&jmerged, sb, ByteSpan::of_transfer(sb, cj), vars);
                    out.push(Diag {
                        code: LintCode::SourceReuseBeforeQuiet,
                        severity: Severity::Error,
                        message: format!(
                            "`{}` {} is the put source of comm_p2p #{} but the quiet is \
                             deferred past the region ({}); on the next execution the \
                             delivery of comm_p2p #{} into `{}` rewrites it while the \
                             previous put may still read it (source reuse before quiet)",
                            sb.name,
                            interval,
                            j.idx,
                            j.place.keyword(),
                            i.idx,
                            rb.name
                        ),
                        span: jp
                            .spans
                            .place_sync
                            .or(spec.spans.place_sync)
                            .or_else(|| jp.spans.sbuf.get(kj).copied())
                            .or_else(|| jp.spans.buffers())
                            .or_else(|| spec.spans.buffers()),
                        region,
                        site: Some(jp.site),
                        key: format!("q{}:{}:{kj}:{ki}", j.idx, i.idx),
                        witness: Some(RankWitness {
                            nranks,
                            ranks: racy,
                        }),
                        verification: None,
                    });
                }
            }
        }
    }

    out
}

// ---------------------------------------------------------------------------
// Op-level race semantics: the contract the runtime sanitizer mirrors.
// ---------------------------------------------------------------------------

/// One operation of a rank's program over a single symmetric segment.
/// This is the common language of the static analyzer ([`analyze_ops`])
/// and the `netsim` shadow-state sanitizer: the differential harness
/// executes the same [`RaceProgram`] through both and asserts the verdicts
/// agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaceOp {
    /// One-sided put into `target`'s copy at `[offset, offset+len)`.
    /// `src_offset` names the source interval in the origin's own copy
    /// (`None` for a private source the race model cannot see).
    Put {
        /// Destination rank.
        target: usize,
        /// Destination byte offset.
        offset: usize,
        /// Bytes transferred.
        len: usize,
        /// Source byte offset in the origin's copy, if symmetric.
        src_offset: Option<usize>,
        /// Whether the delivery is signalled.
        signal: bool,
    },
    /// One-sided get from `target`'s copy at `[offset, offset+len)`.
    Get {
        /// Source rank.
        target: usize,
        /// Source byte offset.
        offset: usize,
        /// Bytes read.
        len: usize,
    },
    /// Local load from this rank's own copy.
    LocalRead {
        /// Byte offset.
        offset: usize,
        /// Bytes read.
        len: usize,
    },
    /// Local store into this rank's own copy.
    LocalWrite {
        /// Byte offset.
        offset: usize,
        /// Bytes written.
        len: usize,
    },
    /// Wait until `count` signalled deliveries (cumulative) have landed in
    /// this rank's copy.
    WaitSignals {
        /// Cumulative signal count to wait for.
        count: usize,
    },
    /// Complete all of this rank's outstanding puts.
    Quiet,
    /// Full barrier over all ranks (epoch boundary).
    Barrier,
}

/// A per-rank op program over one symmetric segment.
#[derive(Clone, Debug, Default)]
pub struct RaceProgram {
    /// `per_rank[r]` is rank `r`'s op sequence. Barriers must align: every
    /// rank executes the same number of `Barrier` ops.
    pub per_rank: Vec<Vec<RaceOp>>,
    /// Flow-control window of the segment (`None` = unbounded).
    pub window: Option<u64>,
}

/// One conflicting access pair found by [`analyze_ops`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceFinding {
    /// The lint code the conflict instantiates (`CI009`–`CI012`).
    pub code: LintCode,
    /// Rank whose segment copy holds the conflicting bytes.
    pub owner: usize,
    /// The overlapping bytes.
    pub span: ByteSpan,
    /// The two accessing ranks.
    pub ranks: (usize, usize),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cause {
    /// Remote delivery into the owner's copy; `ordinal` numbers signalled
    /// deliveries per owner (1-based), `None` when unsignalled.
    PutData { ordinal: Option<u64> },
    /// The origin-side source read of a put, live until the origin quiets.
    PutSrc { quiet_seq: usize },
    /// Remote read of the owner's copy.
    Get,
    /// Owner-local load.
    LocalRead,
    /// Owner-local store.
    LocalWrite,
}

impl Cause {
    fn writes(self) -> bool {
        matches!(self, Cause::PutData { .. } | Cause::LocalWrite)
    }
}

#[derive(Clone, Copy, Debug)]
struct OpAccess {
    owner: usize,
    span: ByteSpan,
    rank: usize,
    epoch: usize,
    /// Index in the rank's program (program order).
    seq: usize,
    /// The accessor's cumulative signal wait at this point. The op model
    /// folds delivery consumption into the wait (the runtime harness
    /// marks waited deliveries consumed), so this also drives the
    /// flow-control edge.
    waited: u64,
    /// The accessor's quiet count at this point (retires its `PutSrc`s).
    quiets: usize,
    cause: Cause,
}

/// Classify an unordered conflicting pair. `a` precedes `b` in the
/// canonical order; the mapping mirrors the sanitizer's.
fn classify(a: &OpAccess, b: &OpAccess) -> LintCode {
    use Cause::*;
    let pair = (a.cause, b.cause);
    match pair {
        (PutData { .. }, PutData { .. })
        | (PutData { .. }, LocalWrite)
        | (LocalWrite, PutData { .. }) => LintCode::OverlappingPuts,
        (PutData { .. }, Get) | (Get, PutData { .. }) | (Get, LocalWrite) | (LocalWrite, Get) => {
            LintCode::GetPutConflict
        }
        (PutSrc { .. }, LocalWrite) | (LocalWrite, PutSrc { .. }) => {
            LintCode::SourceReuseBeforeQuiet
        }
        _ => LintCode::ReadBeforeSignalWait,
    }
}

/// The intra-rank `PutSrc`/`LocalWrite` pair, if this is one.
fn putsrc_write_pair<'x>(a: &'x OpAccess, b: &'x OpAccess) -> Option<(&'x OpAccess, &'x OpAccess)> {
    match (a.cause, b.cause) {
        (Cause::PutSrc { .. }, Cause::LocalWrite) => Some((a, b)),
        (Cause::LocalWrite, Cause::PutSrc { .. }) => Some((b, a)),
        _ => None,
    }
}

/// Whether happens-before orders the pair (no race). Mirrors the runtime
/// sanitizer's rules exactly; see the module docs for the edge list.
fn ordered(a: &OpAccess, b: &OpAccess, window: Option<u64>) -> bool {
    use Cause::*;
    if a.rank == b.rank {
        // CI011 is the one intra-rank hazard: the NIC's source read
        // outlives program order until a quiet retires it. A write before
        // the put issue is simply read by the put (ordered); a write after
        // it races unless a quiet intervened.
        if let Some((src, wr)) = putsrc_write_pair(a, b) {
            let PutSrc { quiet_seq } = src.cause else {
                unreachable!("putsrc_write_pair")
            };
            return wr.seq < src.seq || wr.quiets > quiet_seq;
        }
        // Program order covers everything else on one rank.
        return true;
    }
    // A full barrier separates epochs: every rank's epoch-e accesses
    // precede every rank's epoch-(e+1) accesses.
    if a.epoch != b.epoch {
        return true;
    }
    // Signal-wait edge: a signalled delivery with ordinal o precedes an
    // owner-local access that has waited >= o signals; the flow-control
    // window conversely admits delivery o only after delivery o-w was
    // consumed, ordering the delivery *after* accesses that consumed less.
    let sig = |del: &OpAccess, loc: &OpAccess| -> bool {
        if del.owner != loc.rank {
            return false;
        }
        match del.cause {
            PutData { ordinal: Some(o) } => {
                loc.waited >= o || window.is_some_and(|w| o > loc.waited.saturating_add(w))
            }
            _ => false,
        }
    };
    if matches!(a.cause, PutData { .. })
        && !matches!(b.cause, PutData { .. })
        && b.rank == a.owner
        && sig(a, b)
    {
        return true;
    }
    if matches!(b.cause, PutData { .. })
        && !matches!(a.cause, PutData { .. })
        && a.rank == b.owner
        && sig(b, a)
    {
        return true;
    }
    // Flow-control edge between two signalled deliveries: the window
    // admits a delivery only after the one `window` earlier was consumed,
    // and consumption happens-after the earlier delivery's wait.
    if let (PutData { ordinal: Some(x) }, PutData { ordinal: Some(y) }) = (a.cause, b.cause) {
        if let Some(w) = window {
            return x.abs_diff(y) >= w;
        }
    }
    false
}

/// Statically analyze a [`RaceProgram`]: enumerate all access pairs under
/// the epoch/signal/quiet happens-before relation and report every
/// unordered conflicting pair, classified to the CI009–CI012 catalog.
///
/// Signal ordinals are assigned in canonical order (epoch-major, then
/// origin rank, then program order), which matches any physical delivery
/// order whenever the program's waits are all-or-nothing per epoch — the
/// fragment the differential generator stays inside.
pub fn analyze_ops(prog: &RaceProgram) -> Vec<RaceFinding> {
    let nranks = prog.per_rank.len();
    let mut accesses: Vec<OpAccess> = Vec::new();
    // Per-owner signalled-delivery ordinal counter; bumped only in the
    // active epoch of the epoch-major sweep, so ordinals are canonical.
    let mut ordinals: Vec<u64> = vec![0; nranks];
    let total_epochs = prog
        .per_rank
        .iter()
        .map(|ops| ops.iter().filter(|o| matches!(o, RaceOp::Barrier)).count())
        .max()
        .unwrap_or(0)
        + 1;

    // Walk epoch-major so ordinal assignment is canonical across ranks:
    // epoch, then origin rank, then program order.
    for epoch in 0..total_epochs {
        for (rank, ops) in prog.per_rank.iter().enumerate() {
            let mut cur_epoch = 0usize;
            let mut waited = 0u64;
            let mut quiets = 0usize;
            for (seq, op) in ops.iter().enumerate() {
                if cur_epoch > epoch {
                    break;
                }
                let active = cur_epoch == epoch;
                match *op {
                    RaceOp::Put {
                        target,
                        offset,
                        len,
                        src_offset,
                        signal,
                    } => {
                        if !active {
                            continue;
                        }
                        let ordinal = signal.then(|| {
                            ordinals[target] += 1;
                            ordinals[target]
                        });
                        accesses.push(OpAccess {
                            owner: target,
                            span: ByteSpan::sized(offset, len),
                            rank,
                            epoch,
                            seq,
                            waited,
                            quiets,
                            cause: Cause::PutData { ordinal },
                        });
                        if let Some(src) = src_offset {
                            accesses.push(OpAccess {
                                owner: rank,
                                span: ByteSpan::sized(src, len),
                                rank,
                                epoch,
                                seq,
                                waited,
                                quiets,
                                cause: Cause::PutSrc { quiet_seq: quiets },
                            });
                        }
                    }
                    RaceOp::Get {
                        target,
                        offset,
                        len,
                    } => {
                        if active {
                            accesses.push(OpAccess {
                                owner: target,
                                span: ByteSpan::sized(offset, len),
                                rank,
                                epoch,
                                seq,
                                waited,
                                quiets,
                                cause: Cause::Get,
                            });
                        }
                    }
                    RaceOp::LocalRead { offset, len } => {
                        if active {
                            accesses.push(OpAccess {
                                owner: rank,
                                span: ByteSpan::sized(offset, len),
                                rank,
                                epoch,
                                seq,
                                waited,
                                quiets,
                                cause: Cause::LocalRead,
                            });
                        }
                    }
                    RaceOp::LocalWrite { offset, len } => {
                        if active {
                            accesses.push(OpAccess {
                                owner: rank,
                                span: ByteSpan::sized(offset, len),
                                rank,
                                epoch,
                                seq,
                                waited,
                                quiets,
                                cause: Cause::LocalWrite,
                            });
                        }
                    }
                    RaceOp::WaitSignals { count } => waited = waited.max(count as u64),
                    RaceOp::Quiet => quiets += 1,
                    RaceOp::Barrier => cur_epoch += 1,
                }
            }
        }
    }

    let mut findings = Vec::new();
    for i in 0..accesses.len() {
        for j in (i + 1)..accesses.len() {
            let (a, b) = (&accesses[i], &accesses[j]);
            if a.owner != b.owner
                || !(a.cause.writes() || b.cause.writes())
                || !a.span.overlaps(&b.span)
            {
                continue;
            }
            if ordered(a, b, prog.window) {
                continue;
            }
            let span = a.span.intersect(&b.span).expect("overlap checked");
            findings.push(RaceFinding {
                code: classify(a, b),
                owner: a.owner,
                span,
                ranks: (a.rank.min(b.rank), a.rank.max(b.rank)),
            });
        }
    }
    findings.sort_by_key(|f| (f.code, f.owner, f.span, f.ranks));
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::ElemKind;
    use crate::diag::DirSpans;
    use crate::dir::P2pSpec;
    use mpisim::dtype::BasicType;

    fn meta(name: &str, lo: usize, bytes: usize) -> BufMeta {
        BufMeta {
            name: name.to_string(),
            elem: ElemKind::Prim(BasicType::U8),
            len: bytes,
            addr: (lo, lo + bytes),
        }
    }

    fn p2p(clauses: ClauseSet, sbuf: Vec<BufMeta>, rbuf: Vec<BufMeta>, site: u32) -> P2pSpec {
        P2pSpec {
            clauses,
            sbuf,
            rbuf,
            has_overlap_body: false,
            site,
            spans: DirSpans::default(),
        }
    }

    fn shmem_region(body: Vec<P2pSpec>, clauses: ClauseSet) -> ParamsSpec {
        let mut clauses = clauses;
        clauses.target = Some(Target::Shmem);
        ParamsSpec {
            clauses,
            body,
            spans: DirSpans::default(),
        }
    }

    fn codes(diags: &[Diag]) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = diags.iter().map(|d| d.code.code()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn fan_in_puts_fire_ci009_from_three_ranks() {
        // Everybody puts into rank 0's window: in-degree >= 2 from N = 3.
        let clauses = ClauseSet {
            receiver: Some(RankExpr::lit(0)),
            sendwhen: Some(RankExpr::rank().gt(RankExpr::lit(0))),
            ..ClauseSet::default()
        };
        let spec = shmem_region(
            vec![p2p(
                ClauseSet::default(),
                vec![meta("src", 0, 8)],
                vec![meta("win", 100, 8)],
                1,
            )],
            clauses,
        );
        let two = lint_races(0, &spec, 2, &HashMap::new());
        assert!(
            !two.iter().any(|d| d.code == LintCode::OverlappingPuts),
            "one origin is not a race: {two:?}"
        );
        let three = lint_races(0, &spec, 3, &HashMap::new());
        let d = three
            .iter()
            .find(|d| d.code == LintCode::OverlappingPuts)
            .expect("CI009 at N=3");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.witness.as_ref().unwrap().ranks, vec![1, 2]);
    }

    #[test]
    fn two_sided_target_is_exempt() {
        let clauses = ClauseSet {
            receiver: Some(RankExpr::lit(0)),
            sendwhen: Some(RankExpr::rank().gt(RankExpr::lit(0))),
            target: Some(Target::Mpi2Side),
            ..ClauseSet::default()
        };
        let spec = ParamsSpec {
            clauses,
            body: vec![p2p(
                ClauseSet::default(),
                vec![meta("src", 0, 8)],
                vec![meta("win", 100, 8)],
                1,
            )],
            spans: DirSpans::default(),
        };
        assert!(lint_races(0, &spec, 8, &HashMap::new()).is_empty());
    }

    #[test]
    fn later_site_reading_earlier_delivery_warns_get_put() {
        // Site 0 delivers into `staged` on rank 1; site 1 sources `staged`
        // from rank 1. Put lowering is ordered; get lowering races: CI010.
        let edge = |src: i64, dst: i64| ClauseSet {
            sender: Some(RankExpr::lit(src)),
            receiver: Some(RankExpr::lit(dst)),
            sendwhen: Some(RankExpr::rank().eq(RankExpr::lit(src))),
            receivewhen: Some(RankExpr::rank().eq(RankExpr::lit(dst))),
            ..ClauseSet::default()
        };
        let spec = shmem_region(
            vec![
                p2p(
                    edge(0, 1),
                    vec![meta("ev", 0, 8)],
                    vec![meta("staged", 100, 8)],
                    1,
                ),
                p2p(
                    edge(1, 2),
                    vec![meta("staged", 100, 8)],
                    vec![meta("evec", 200, 8)],
                    2,
                ),
            ],
            ClauseSet::default(),
        );
        let diags = lint_races(0, &spec, 3, &HashMap::new());
        assert_eq!(codes(&diags), vec!["CI010"]);
        let d = &diags[0];
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.witness.as_ref().unwrap().ranks, vec![1]);

        // Swap the site order: the source read now precedes the wait —
        // CI012, an error under every one-sided lowering.
        let spec = shmem_region(
            vec![
                p2p(
                    edge(1, 2),
                    vec![meta("staged", 100, 8)],
                    vec![meta("evec", 200, 8)],
                    1,
                ),
                p2p(
                    edge(0, 1),
                    vec![meta("ev", 0, 8)],
                    vec![meta("staged", 100, 8)],
                    2,
                ),
            ],
            ClauseSet::default(),
        );
        let diags = lint_races(0, &spec, 3, &HashMap::new());
        assert_eq!(codes(&diags), vec!["CI012"]);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn deferred_quiet_with_iteration_fires_ci011() {
        let edge = |src: i64, dst: i64| ClauseSet {
            sender: Some(RankExpr::lit(src)),
            receiver: Some(RankExpr::lit(dst)),
            sendwhen: Some(RankExpr::rank().eq(RankExpr::lit(src))),
            receivewhen: Some(RankExpr::rank().eq(RankExpr::lit(dst))),
            ..ClauseSet::default()
        };
        let clauses = ClauseSet {
            place_sync: Some(PlaceSync::EndAdjParamRegions),
            max_comm_iter: Some(RankExpr::lit(16)),
            ..ClauseSet::default()
        };
        // Site 0 delivers into `staged` on rank 1; site 1 puts *from*
        // `staged` on rank 1. The deferred quiet leaves site 1's source
        // live past the region; the next iteration's site-0 delivery
        // rewrites it.
        let spec = shmem_region(
            vec![
                p2p(
                    edge(0, 1),
                    vec![meta("ev", 0, 8)],
                    vec![meta("staged", 100, 8)],
                    1,
                ),
                p2p(
                    edge(1, 2),
                    vec![meta("staged", 100, 8)],
                    vec![meta("evec", 200, 8)],
                    2,
                ),
            ],
            clauses.clone(),
        );
        let diags = lint_races(0, &spec, 3, &HashMap::new());
        assert!(
            diags.iter().any(
                |d| d.code == LintCode::SourceReuseBeforeQuiet && d.severity == Severity::Error
            ),
            "{diags:?}"
        );

        // Synchronizing at the region end removes exactly the CI011.
        let mut synced = clauses;
        synced.place_sync = Some(PlaceSync::EndParamRegion);
        let spec = shmem_region(
            vec![
                p2p(
                    edge(0, 1),
                    vec![meta("ev", 0, 8)],
                    vec![meta("staged", 100, 8)],
                    1,
                ),
                p2p(
                    edge(1, 2),
                    vec![meta("staged", 100, 8)],
                    vec![meta("evec", 200, 8)],
                    2,
                ),
            ],
            synced,
        );
        let diags = lint_races(0, &spec, 3, &HashMap::new());
        assert!(!diags
            .iter()
            .any(|d| d.code == LintCode::SourceReuseBeforeQuiet));
    }

    // -- op-level semantics -------------------------------------------------

    fn codes_of(findings: &[RaceFinding]) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = findings.iter().map(|f| f.code.code()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn op_overlapping_puts_race_and_barrier_separates() {
        let put = |target, offset| RaceOp::Put {
            target,
            offset,
            len: 8,
            src_offset: None,
            signal: true,
        };
        let racy = RaceProgram {
            per_rank: vec![vec![put(2, 0)], vec![put(2, 4)], vec![]],
            window: None,
        };
        assert_eq!(codes_of(&analyze_ops(&racy)), vec!["CI009"]);

        let clean = RaceProgram {
            per_rank: vec![
                vec![put(2, 0), RaceOp::Quiet, RaceOp::Barrier],
                vec![RaceOp::Barrier, put(2, 4)],
                vec![
                    RaceOp::WaitSignals { count: 1 },
                    RaceOp::Barrier,
                    RaceOp::WaitSignals { count: 2 },
                ],
            ],
            window: None,
        };
        assert!(analyze_ops(&clean).is_empty());
    }

    #[test]
    fn op_unwaited_read_is_ci012_and_wait_orders_it() {
        let put = RaceOp::Put {
            target: 1,
            offset: 0,
            len: 8,
            src_offset: None,
            signal: true,
        };
        let racy = RaceProgram {
            per_rank: vec![vec![put], vec![RaceOp::LocalRead { offset: 4, len: 8 }]],
            window: None,
        };
        assert_eq!(codes_of(&analyze_ops(&racy)), vec!["CI012"]);

        let clean = RaceProgram {
            per_rank: vec![
                vec![put],
                vec![
                    RaceOp::WaitSignals { count: 1 },
                    RaceOp::LocalRead { offset: 4, len: 8 },
                ],
            ],
            window: None,
        };
        assert!(analyze_ops(&clean).is_empty());
    }

    #[test]
    fn op_get_against_put_is_ci010() {
        let prog = RaceProgram {
            per_rank: vec![
                vec![RaceOp::Put {
                    target: 2,
                    offset: 0,
                    len: 16,
                    src_offset: None,
                    signal: true,
                }],
                vec![RaceOp::Get {
                    target: 2,
                    offset: 8,
                    len: 16,
                }],
                vec![],
            ],
            window: None,
        };
        assert_eq!(codes_of(&analyze_ops(&prog)), vec!["CI010"]);
    }

    #[test]
    fn op_source_rewrite_before_quiet_is_ci011() {
        let racy = RaceProgram {
            per_rank: vec![
                vec![
                    RaceOp::Put {
                        target: 1,
                        offset: 0,
                        len: 8,
                        src_offset: Some(32),
                        signal: true,
                    },
                    RaceOp::LocalWrite { offset: 32, len: 8 },
                ],
                vec![RaceOp::WaitSignals { count: 1 }],
            ],
            window: None,
        };
        assert_eq!(codes_of(&analyze_ops(&racy)), vec!["CI011"]);

        let clean = RaceProgram {
            per_rank: vec![
                vec![
                    RaceOp::Put {
                        target: 1,
                        offset: 0,
                        len: 8,
                        src_offset: Some(32),
                        signal: true,
                    },
                    RaceOp::Quiet,
                    RaceOp::LocalWrite { offset: 32, len: 8 },
                ],
                vec![RaceOp::WaitSignals { count: 1 }],
            ],
            window: None,
        };
        assert!(analyze_ops(&clean).is_empty());
    }

    #[test]
    fn op_flow_control_window_orders_slot_reuse() {
        // Two deliveries one full window apart are ordered by the consume
        // edge; inside the window they race.
        let put = |signal| RaceOp::Put {
            target: 1,
            offset: 0,
            len: 8,
            src_offset: None,
            signal,
        };
        let base = |window| RaceProgram {
            per_rank: vec![vec![put(true)], vec![], vec![put(true)]],
            window,
        };
        assert_eq!(codes_of(&analyze_ops(&base(None))), vec!["CI009"]);
        assert!(analyze_ops(&base(Some(1))).is_empty());
        assert_eq!(codes_of(&analyze_ops(&base(Some(2)))), vec!["CI009"]);
    }
}
