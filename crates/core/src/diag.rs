//! Span-aware communication-intent diagnostics: the lint catalog behind
//! `commlint`.
//!
//! The paper's payoff is that directives make communication *analyzable* —
//! "all source and destination information can be incorporated into an
//! analysis framework for automated analysis and optimization". This module
//! turns the one-off reports of [`crate::analysis`] into coded, clippy-style
//! diagnostics with source spans and rank-count witnesses, so a build can
//! *fail* on a communication bug before any rank executes.
//!
//! Each lint has a stable `CIxxx` code (see [`LintCode`]); [`lint_region_at`]
//! evaluates one region at one concrete rank count, and the `commlint` crate
//! sweeps a rank range and merges the per-count findings into deduplicated
//! diagnostics with a failing-rank-count witness.

use std::collections::HashMap;
use std::fmt;

use crate::analysis::{buffer_independence, deadlock_report, find_cycle, resolve_graph, Edge};
use crate::clause::{PlaceSync, Severity, Target};
use crate::dir::ParamsSpec;
use crate::expr::EvalEnv;
use crate::interval::{Access, ByteSpan};

/// A source position (byte offset plus 1-based line/column). `pragma-front`
/// converts its lexer spans into this; builder-API specs carry none.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SrcSpan {
    /// Byte offset in the source text.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for SrcSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Source locations of one directive instance: the directive keyword itself
/// plus each clause that was written, in the order the buffer lists were
/// written. Every field is optional because the builder API records no
/// source text.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DirSpans {
    /// The `#pragma` / directive keyword.
    pub directive: Option<SrcSpan>,
    /// `sender(...)` clause keyword.
    pub sender: Option<SrcSpan>,
    /// `receiver(...)` clause keyword.
    pub receiver: Option<SrcSpan>,
    /// `sendwhen(...)` clause keyword.
    pub sendwhen: Option<SrcSpan>,
    /// `receivewhen(...)` clause keyword.
    pub receivewhen: Option<SrcSpan>,
    /// `count(...)` clause keyword.
    pub count: Option<SrcSpan>,
    /// `target(...)` clause keyword.
    pub target: Option<SrcSpan>,
    /// `place_sync(...)` clause keyword.
    pub place_sync: Option<SrcSpan>,
    /// `max_comm_iter(...)` clause keyword.
    pub max_comm_iter: Option<SrcSpan>,
    /// One span per `sbuf` list entry.
    pub sbuf: Vec<SrcSpan>,
    /// One span per `rbuf` list entry.
    pub rbuf: Vec<SrcSpan>,
}

impl DirSpans {
    /// Best span for routing problems: `sender`/`receiver`, falling back to
    /// the directive keyword.
    pub fn routing(&self) -> Option<SrcSpan> {
        self.sender.or(self.receiver).or(self.directive)
    }

    /// Best span for predicate problems: `sendwhen`/`receivewhen`, falling
    /// back to the directive keyword.
    pub fn when(&self) -> Option<SrcSpan> {
        self.sendwhen.or(self.receivewhen).or(self.directive)
    }

    /// Best span for buffer problems: the first `sbuf` entry, the first
    /// `rbuf` entry, or the directive keyword.
    pub fn buffers(&self) -> Option<SrcSpan> {
        self.sbuf
            .first()
            .or(self.rbuf.first())
            .copied()
            .or(self.directive)
    }

    /// Heuristic span for a validation message produced without span
    /// context: route by the clause keyword the message names. All messages
    /// matched here are produced by this crate, so the patterns are stable.
    pub fn for_message(&self, message: &str) -> Option<SrcSpan> {
        let by_kw = [
            ("`place_sync`", self.place_sync),
            ("`max_comm_iter`", self.max_comm_iter),
            ("`sendwhen`", self.sendwhen.or(self.receivewhen)),
            ("`receivewhen`", self.receivewhen.or(self.sendwhen)),
            ("`sender`", self.sender),
            ("`receiver`", self.receiver),
            ("`sbuf`", self.sbuf.first().copied()),
            ("`rbuf`", self.rbuf.first().copied()),
            ("`count`", self.count),
        ];
        for (kw, span) in by_kw {
            if message.contains(kw) {
                if let Some(sp) = span {
                    return Some(sp);
                }
            }
        }
        self.directive
    }
}

/// Declares [`LintCode`] from the catalog table below: the enum (one
/// variant per row) with its code string, kebab-case name, one-line summary,
/// provability and the ordered list of every code. Adding a code is one row
/// here plus the analysis that emits it.
macro_rules! lint_codes {
    ($($(#[doc = $doc:literal])+
       $variant:ident: $code:literal, $name:literal, provable = $provable:literal,
       $summary:literal;)+) => {
        /// The lint catalog. Codes are stable; `commlint --format json` emits
        /// them verbatim and CI gates on them.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum LintCode {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl LintCode {
            /// The stable `CIxxx` code string.
            pub fn code(self) -> &'static str {
                match self {
                    $(LintCode::$variant => $code,)+
                }
            }

            /// The short kebab-case lint name.
            pub fn name(self) -> &'static str {
                match self {
                    $(LintCode::$variant => $name,)+
                }
            }

            /// One-line catalog summary (`commlint --list-codes`).
            pub fn summary(self) -> &'static str {
                match self {
                    $(LintCode::$variant => $summary,)+
                }
            }

            /// Whether `commprove` can upgrade findings (or their absence)
            /// for this code to a ∀N verdict with a machine-checkable
            /// certificate. The remaining codes are swept over finite rank
            /// ranges only.
            pub fn provable(self) -> bool {
                match self {
                    $(LintCode::$variant => $provable,)+
                }
            }

            /// Every catalogued code, in code order.
            pub const ALL: [LintCode; [$($code),+].len()] = [$(LintCode::$variant),+];
        }
    };
}

// The catalog, in code order: append new rows, never reorder or renumber.
lint_codes! {
    /// `CI000` — a directive admissibility rule was violated (clause
    /// requiredness, admissibility per directive kind, buffer list shape).
    DirectiveRule: "CI000", "directive-rule", provable = false,
        "a directive admissibility rule is violated (clause requiredness, buffer shape)";
    /// `CI001` — a declared send has no matching declared receive, or vice
    /// versa: the matching-completeness guarantee hand-written MPI cannot
    /// give.
    UnmatchedSend: "CI001", "unmatched-send", provable = true,
        "a declared send has no matching declared receive, or vice versa";
    /// `CI002` — the matched graph has a wait-for cycle: a blocking-send
    /// translation (or a consolidated region of them) would deadlock.
    BlockingDeadlockCycle: "CI002", "blocking-deadlock-cycle", provable = true,
        "the matched graph has a wait-for cycle; a blocking translation deadlocks";
    /// `CI003` — a rank that both sends and receives uses overlapping
    /// `sbuf`/`rbuf` memory: undefined behaviour under an MPI one-sided
    /// translation (`MPI_Put` into memory concurrently read as the origin).
    SbufRbufAliasing: "CI003", "sbuf-rbuf-aliasing", provable = false,
        "a rank that both sends and receives uses overlapping sbuf/rbuf memory";
    /// `CI004` — sender and receiver disagree on the transfer size of a
    /// paired `sbuf`/`rbuf`, or the transfer overflows the receive buffer.
    SizeMismatch: "CI004", "size-mismatch", provable = true,
        "sender and receiver disagree on transfer size, or the transfer's layout \
         byte extent overflows rbuf memory";
    /// `CI005` — `sendwhen` without `receivewhen` (or vice versa), or the
    /// two predicates select inconsistent participant sets.
    SendwhenPairing: "CI005", "sendwhen-pairing", provable = true,
        "sendwhen/receivewhen are unpaired or select inconsistent participants";
    /// `CI006` — buffers of adjacent `comm_p2p` instances overlap, so the
    /// synchronization consolidation the region promises is unsafe.
    ConsolidationUnsafeOverlap: "CI006", "consolidation-unsafe-overlap", provable = true,
        "buffers of adjacent comm_p2p instances overlap; consolidation is unsafe";
    /// `CI007` — a clause combination the requested target cannot lower
    /// (e.g. deferred sync on a one-sided target without a
    /// `max_comm_iter` bound to size the symmetric staging window).
    TargetInfeasible: "CI007", "target-infeasible", provable = false,
        "a clause combination the requested lowering target cannot implement";
    /// `CI008` — a clause expression could not be resolved statically
    /// (unknown variables, out-of-range rank values).
    UnresolvedClause: "CI008", "unresolved-clause", provable = false,
        "a clause expression could not be resolved statically";
    /// `CI009` — two or more origins put into the same target window in
    /// one epoch under a one-sided target: the overlapping writes have no
    /// ordering edge between them.
    OverlappingPuts: "CI009", "overlapping-puts", provable = true,
        "overlapping concurrent puts into the same target window in one epoch";
    /// `CI010` — a put delivery and a get (or get-lowered source read) of
    /// overlapping memory race within one epoch.
    GetPutConflict: "CI010", "get-put-conflict", provable = true,
        "a get and a put touch overlapping remote memory in the same epoch";
    /// `CI011` — a put's local source buffer is rewritten before the quiet
    /// that completes the put (write-before-quiet), possible when
    /// `place_sync` defers the quiet past an iterating region.
    SourceReuseBeforeQuiet: "CI011", "source-reuse-before-quiet", provable = true,
        "a put's local source buffer is rewritten before the completing quiet";
    /// `CI012` — a rank reads a signalled region before reaching the
    /// corresponding signal wait; a faster origin's delivery lands
    /// mid-read.
    ReadBeforeSignalWait: "CI012", "read-before-signal-wait", provable = true,
        "a signalled region is read before the corresponding signal wait";
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A concrete rank-count witness: the smallest analyzed `nranks` at which
/// the finding holds, plus the ranks involved (cycle members, unmatched
/// senders, aliasing self-transfer ranks, ...).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankWitness {
    /// Communicator size at which the finding was established.
    pub nranks: usize,
    /// Ranks that exhibit it (may be empty for rank-independent findings).
    pub ranks: Vec<usize>,
}

/// How broadly a finding was established across communicator sizes.
///
/// `commlint` stamps every finding [`Verification::Swept`] — it checked a
/// finite rank range and knows nothing beyond it. `commprove` upgrades
/// findings in the affine-congruence class to the quantified forms, backed
/// by a certificate (see the `commprove` crate).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verification {
    /// Holds for every communicator size `N >= from`.
    Proved {
        /// Smallest size the claim covers.
        from: usize,
    },
    /// Holds for every `N >= from` whose residue `N mod modulus` is in
    /// `residues` (and for no other `N >= from`).
    ProvedCongruent {
        /// Smallest size the claim covers.
        from: usize,
        /// Case-split modulus.
        modulus: usize,
        /// Residues of `N` at which the finding fires.
        residues: Vec<usize>,
    },
    /// Only the finite sweep `min..=max` was checked.
    Swept {
        /// First swept size.
        min: usize,
        /// Last swept size.
        max: usize,
    },
}

impl fmt::Display for Verification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verification::Proved { from } => write!(f, "proved ∀N≥{from}"),
            Verification::ProvedCongruent {
                from,
                modulus,
                residues,
            } => {
                let rs = residues
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                write!(f, "proved ∀N≥{from}, N≡{rs} (mod {modulus})")
            }
            Verification::Swept { min, max } => write!(f, "swept {min}..={max}"),
        }
    }
}

/// One coded diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// Catalogue code.
    pub code: LintCode,
    /// Severity (the CI gate fails on [`Severity::Warning`] and above).
    pub severity: Severity,
    /// Human-readable description. Concrete numbers come from the witness
    /// rank count.
    pub message: String,
    /// Source location, when the spec came from pragma text.
    pub span: Option<SrcSpan>,
    /// Region index within the linted source (0-based).
    pub region: usize,
    /// `comm_p2p` site id, if the finding is instance-specific.
    pub site: Option<u32>,
    /// Stable identity across rank counts: the sweep driver merges diags
    /// with equal `(code, region, site, key)` and keeps the first witness.
    pub key: String,
    /// Failing rank-count witness.
    pub witness: Option<RankWitness>,
    /// How broadly the finding was established. `lint_region_at` leaves it
    /// `None` (one concrete count proves nothing about a range); the sweep
    /// and prover drivers stamp it.
    pub verification: Option<Verification>,
}

impl Diag {
    /// Merge identity across rank counts.
    pub fn identity(&self) -> (LintCode, usize, Option<u32>, &str) {
        (self.code, self.region, self.site, self.key.as_str())
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} {}]",
            self.severity.keyword(),
            self.code.code(),
            self.code.name()
        )?;
        if let Some(sp) = self.span {
            write!(f, " at {sp}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(w) = &self.witness {
            write!(f, " (fails at nranks={}", w.nranks)?;
            if !w.ranks.is_empty() {
                write!(f, "; ranks {}", join_ranks(&w.ranks))?;
            }
            write!(f, ")")?;
        }
        if let Some(v) = &self.verification {
            write!(f, " [{v}]")?;
        }
        Ok(())
    }
}

fn join_ranks(ranks: &[usize]) -> String {
    const SHOWN: usize = 8;
    let mut out = ranks
        .iter()
        .take(SHOWN)
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join(",");
    if ranks.len() > SHOWN {
        out.push_str(&format!(",… ({} total)", ranks.len()));
    }
    out
}

fn witness(nranks: usize, ranks: Vec<usize>) -> Option<RankWitness> {
    Some(RankWitness { nranks, ranks })
}

/// Lint one `comm_parameters` region (or standalone `comm_p2p` wrapped in a
/// default region) at one concrete rank count, with `vars` bound. Returns
/// every finding that holds at this count; the caller sweeps rank counts
/// and merges (see `commlint`).
pub fn lint_region_at(
    region: usize,
    spec: &ParamsSpec,
    nranks: usize,
    vars: &HashMap<String, i64>,
) -> Vec<Diag> {
    let mut out = Vec::new();
    let mut union_edges: Vec<Edge> = Vec::new();
    let mut any_single_cycle = false;
    let mut all_matched = true;

    for (idx, p2p) in spec.body.iter().enumerate() {
        let merged = p2p.clauses.merged_with(&spec.clauses);
        let g = resolve_graph(p2p, Some(&spec.clauses), nranks, vars);
        let m = g.matching();
        let site = Some(p2p.site);

        // -- CI008: opaque host code in clauses -----------------------------
        // Rank-count independent by construction, so the witness is
        // deliberately absent: the sweep's identity merge collapses the
        // per-count firings into exactly one finding per site.
        let mut opaque: Vec<&'static str> = Vec::new();
        for e in [
            &merged.sender,
            &merged.receiver,
            &merged.count,
            &merged.max_comm_iter,
        ]
        .into_iter()
        .flatten()
        {
            e.opaque_labels(&mut opaque);
        }
        for c in [&merged.sendwhen, &merged.receivewhen]
            .into_iter()
            .flatten()
        {
            c.opaque_labels(&mut opaque);
        }
        if !opaque.is_empty() {
            let labels = opaque
                .iter()
                .map(|l| format!("<{l}>"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push(Diag {
                code: LintCode::UnresolvedClause,
                severity: Severity::Warning,
                message: format!(
                    "clause expression(s) contain opaque host code ({labels}) that static \
                     analysis cannot reason about: verdicts degrade to concrete \
                     per-rank-count evaluation"
                ),
                span: p2p.spans.routing().or(spec.spans.routing()),
                region,
                site,
                key: format!("p{idx}:opaque"),
                witness: None,
                verification: None,
            });
        }

        // -- CI008: unresolved clause expressions ---------------------------
        if !g.unresolved.is_empty() {
            out.push(Diag {
                code: LintCode::UnresolvedClause,
                severity: Severity::Warning,
                message: "clause expressions could not be resolved statically (unknown \
                          variables or out-of-range rank values)"
                    .into(),
                span: p2p.spans.routing().or(spec.spans.routing()),
                region,
                site,
                key: format!("p{idx}"),
                witness: witness(nranks, g.unresolved.clone()),
                verification: None,
            });
        }

        // -- CI001: matching completeness ----------------------------------
        if let Some(&first) = m.unmatched_sends.first() {
            out.push(Diag {
                code: LintCode::UnmatchedSend,
                severity: Severity::Error,
                message: format!(
                    "declared send(s) have no matching declared receive (first: rank {} -> \
                     rank {}); a blocking receiver would hang",
                    first.src, first.dst
                ),
                span: p2p.spans.routing().or(spec.spans.routing()),
                region,
                site,
                key: format!("p{idx}:sends"),
                witness: witness(nranks, m.unmatched_sends.iter().map(|e| e.src).collect()),
                verification: None,
            });
        }
        if let Some(&first) = m.unmatched_recvs.first() {
            out.push(Diag {
                code: LintCode::UnmatchedSend,
                severity: Severity::Error,
                message: format!(
                    "declared receive(s) have no matching declared send (first: rank {} <- \
                     rank {}); the receive would block forever",
                    first.dst, first.src
                ),
                span: p2p.spans.routing().or(spec.spans.routing()),
                region,
                site,
                key: format!("p{idx}:recvs"),
                witness: witness(nranks, m.unmatched_recvs.iter().map(|e| e.dst).collect()),
                verification: None,
            });
        }

        // -- CI002 (per instance): blocking wait-for cycle -----------------
        let dl = deadlock_report(&m);
        if dl.blocking_would_deadlock {
            any_single_cycle = true;
            let severity = if dl.nonblocking_safe {
                Severity::Note
            } else {
                Severity::Warning
            };
            out.push(Diag {
                code: LintCode::BlockingDeadlockCycle,
                severity,
                message: if dl.nonblocking_safe {
                    "a blocking-send translation of this pattern would deadlock (wait-for \
                     cycle among the witness ranks); the directive's non-blocking \
                     translation is safe"
                        .into()
                } else {
                    "wait-for cycle among the witness ranks, and matching is incomplete: \
                     even the non-blocking translation is not known to be safe"
                        .into()
                },
                span: p2p.spans.routing().or(spec.spans.routing()),
                region,
                site,
                key: format!("p{idx}"),
                witness: witness(nranks, dl.cycle.clone()),
                verification: None,
            });
        }
        if !m.fully_matched() {
            all_matched = false;
        }
        union_edges.extend_from_slice(&m.matched);

        // -- CI003: intra-directive sbuf/rbuf aliasing ----------------------
        let senders: Vec<usize> = g.sends.iter().map(|e| e.src).collect();
        let both: Vec<usize> = g
            .recvs
            .iter()
            .map(|e| e.dst)
            .filter(|d| senders.contains(d))
            .collect();
        if !both.is_empty() {
            for (si, sb) in p2p.sbuf.iter().enumerate() {
                for (ri, rb) in p2p.rbuf.iter().enumerate() {
                    let send = Access::read(ByteSpan::of_buf(sb));
                    let recv = Access::write(ByteSpan::of_buf(rb));
                    if send.conflicts(&recv) {
                        out.push(Diag {
                            code: LintCode::SbufRbufAliasing,
                            severity: Severity::Error,
                            message: format!(
                                "sbuf `{}` overlaps rbuf `{}` in memory on rank(s) that both \
                                 send and receive: the receive writes bytes the send is \
                                 reading (undefined behaviour under an MPI one-sided \
                                 translation)",
                                sb.name, rb.name
                            ),
                            span: p2p
                                .spans
                                .sbuf
                                .get(si)
                                .copied()
                                .or_else(|| p2p.spans.buffers()),
                            region,
                            site,
                            key: format!("p{idx}:s{si}:r{ri}"),
                            witness: witness(nranks, both.clone()),
                            verification: None,
                        });
                    }
                }
            }
        }

        // -- CI004: send/receive byte-size mismatch -------------------------
        // One reusable environment: only the rank varies per query.
        let mut count_env = EvalEnv {
            rank: 0,
            nranks: nranks as i64,
            vars: vars.into(),
        };
        let mut count_at = |rank: usize| -> Option<i64> {
            count_env.rank = rank as i64;
            match &merged.count {
                Some(c) => c.eval(&count_env).ok(),
                None => p2p.inferred_count().map(|c| c as i64),
            }
        };
        if p2p.sbuf.len() != p2p.rbuf.len() && !p2p.sbuf.is_empty() && !p2p.rbuf.is_empty() {
            out.push(Diag {
                code: LintCode::SizeMismatch,
                severity: Severity::Error,
                message: format!(
                    "`sbuf` lists {} buffer(s) but `rbuf` lists {}: buffers pair \
                     positionally, so the lists must have equal length",
                    p2p.sbuf.len(),
                    p2p.rbuf.len()
                ),
                span: p2p.spans.buffers(),
                region,
                site,
                key: format!("p{idx}:lists"),
                witness: witness(nranks, vec![]),
                verification: None,
            });
        }
        'pairs: for (k, (sb, rb)) in p2p.sbuf.iter().zip(&p2p.rbuf).enumerate() {
            for &e in &m.matched {
                let (Some(cs), Some(cr)) = (count_at(e.src), count_at(e.dst)) else {
                    continue;
                };
                let (cs, cr) = (cs.max(0) as usize, cr.max(0) as usize);
                let send_bytes = cs * sb.elem.packed_size();
                let recv_bytes = cr * rb.elem.packed_size();
                if send_bytes != recv_bytes {
                    out.push(Diag {
                        code: LintCode::SizeMismatch,
                        severity: Severity::Error,
                        message: format!(
                            "paired sbuf `{}` / rbuf `{}` disagree on transfer size for \
                             edge rank {} -> rank {}: {} byte(s) sent vs {} byte(s) \
                             expected",
                            sb.name, rb.name, e.src, e.dst, send_bytes, recv_bytes
                        ),
                        span: p2p
                            .spans
                            .count
                            .or(spec.spans.count)
                            .or_else(|| p2p.spans.buffers()),
                        region,
                        site,
                        key: format!("p{idx}:pair{k}:size"),
                        witness: witness(nranks, vec![e.src, e.dst]),
                        verification: None,
                    });
                    continue 'pairs;
                }
                if rb.len > 0 && cr > rb.len {
                    out.push(Diag {
                        code: LintCode::SizeMismatch,
                        severity: Severity::Error,
                        message: format!(
                            "transfer of {} element(s) overflows rbuf `{}` (capacity {} \
                             element(s))",
                            cr, rb.name, rb.len
                        ),
                        span: p2p
                            .spans
                            .rbuf
                            .get(k)
                            .copied()
                            .or_else(|| p2p.spans.buffers()),
                        region,
                        site,
                        key: format!("p{idx}:pair{k}:overflow"),
                        witness: witness(nranks, vec![e.dst]),
                        verification: None,
                    });
                    continue 'pairs;
                }
                // Layout-aware extent check: a strided layout touches
                // memory beyond its packed size, so the byte extent must
                // be computed through the descriptor, not from the element
                // count (which the check above already covered). Skipped
                // for struct-of-arrays, whose summary address range is a
                // hull over unrelated member arrays.
                let have = rb.addr.1.saturating_sub(rb.addr.0);
                if have > 0
                    && !matches!(rb.elem, crate::buffer::ElemKind::Soa(_))
                    && rb.elem.span_bytes(cr) > have
                {
                    out.push(Diag {
                        code: LintCode::SizeMismatch,
                        severity: Severity::Error,
                        message: format!(
                            "transfer of {} element(s) spans {} byte(s) through the \
                             layout of rbuf `{}`, overflowing its {} byte(s) of memory",
                            cr,
                            rb.elem.span_bytes(cr),
                            rb.name,
                            have
                        ),
                        span: p2p
                            .spans
                            .rbuf
                            .get(k)
                            .copied()
                            .or_else(|| p2p.spans.buffers()),
                        region,
                        site,
                        key: format!("p{idx}:pair{k}:extent"),
                        witness: witness(nranks, vec![e.dst]),
                        verification: None,
                    });
                    continue 'pairs;
                }
            }
        }

        // -- CI005: sendwhen/receivewhen pairing and consistency ------------
        match (&merged.sendwhen, &merged.receivewhen) {
            (Some(_), None) | (None, Some(_)) => {
                let present = if merged.sendwhen.is_some() {
                    "`sendwhen`"
                } else {
                    "`receivewhen`"
                };
                out.push(Diag {
                    code: LintCode::SendwhenPairing,
                    severity: Severity::Error,
                    message: format!(
                        "{present} without its partner: `sendwhen` and `receivewhen` must \
                         both be present or both be omitted"
                    ),
                    span: p2p.spans.when().or(spec.spans.when()),
                    region,
                    site,
                    key: format!("p{idx}:pairing"),
                    witness: witness(nranks, vec![]),
                    verification: None,
                });
            }
            (Some(_), Some(_)) => {
                // The graph resolution already evaluated both predicates
                // at every rank; consume its record instead of re-scanning.
                let senders = &g.senders;
                let receivers = &g.receivers;
                if !g.when_unknown && senders.is_empty() != receivers.is_empty() {
                    let (what, who) = if receivers.is_empty() {
                        (
                            "`sendwhen` selects sender(s) but `receivewhen` selects no receiver",
                            senders.clone(),
                        )
                    } else {
                        (
                            "`receivewhen` selects receiver(s) but `sendwhen` selects no sender",
                            receivers.clone(),
                        )
                    };
                    out.push(Diag {
                        code: LintCode::SendwhenPairing,
                        severity: Severity::Warning,
                        message: format!(
                            "{what}: the predicates are inconsistent and every \
                                          selected participant would wait forever"
                        ),
                        span: p2p.spans.when().or(spec.spans.when()),
                        region,
                        site,
                        key: format!("p{idx}:consistency"),
                        witness: witness(nranks, who),
                        verification: None,
                    });
                }
            }
            (None, None) => {}
        }

        // -- CI007: target-infeasible clause combination --------------------
        let target = merged.target.unwrap_or_default();
        let place = merged.place_sync.unwrap_or_default();
        if target != Target::Mpi2Side
            && place != PlaceSync::EndParamRegion
            && merged.max_comm_iter.is_none()
        {
            out.push(Diag {
                code: LintCode::TargetInfeasible,
                severity: Severity::Warning,
                message: format!(
                    "{} defers synchronization ({}) but `max_comm_iter` is absent: the \
                     symmetric staging window cannot be sized statically and repeated \
                     executions overflow it",
                    target.keyword(),
                    place.keyword()
                ),
                span: p2p
                    .spans
                    .place_sync
                    .or(spec.spans.place_sync)
                    .or(p2p.spans.target)
                    .or(spec.spans.target)
                    .or_else(|| p2p.spans.routing().or(spec.spans.routing())),
                region,
                site,
                key: format!("p{idx}"),
                witness: witness(nranks, vec![]),
                verification: None,
            });
        }
    }

    // -- CI006: cross-directive buffer overlap (consolidation safety) -------
    for (i, j, a, b) in buffer_independence(spec).conflicts {
        out.push(Diag {
            code: LintCode::ConsolidationUnsafeOverlap,
            severity: Severity::Warning,
            message: format!(
                "buffer `{a}` of comm_p2p #{i} overlaps buffer `{b}` of comm_p2p #{j}: \
                 consolidating their synchronization would reorder conflicting accesses, \
                 so the region falls back to per-instance synchronization"
            ),
            span: spec
                .body
                .get(j)
                .and_then(|p| p.spans.buffers())
                .or_else(|| spec.spans.buffers()),
            region,
            site: spec.body.get(j).map(|p| p.site),
            key: format!("c{i}:{j}:{a}:{b}"),
            witness: witness(nranks, vec![]),
            verification: None,
        });
    }

    // -- CI009–CI012: one-sided races between synchronization points -------
    out.extend(crate::race::lint_races(region, spec, nranks, vars));

    // -- CI002 (cross-directive): cycle spanning the consolidated region ----
    if spec.body.len() > 1 && !any_single_cycle {
        if let Some(cycle) = find_cycle(&union_edges) {
            let severity = if all_matched {
                Severity::Note
            } else {
                Severity::Warning
            };
            out.push(Diag {
                code: LintCode::BlockingDeadlockCycle,
                severity,
                message: "blocking wait-for cycle spans the consolidated region (no single \
                          comm_p2p is cyclic on its own): a blocking translation of the \
                          region would deadlock across directive boundaries"
                    .into(),
                span: spec.spans.routing(),
                region,
                site: None,
                key: "region".into(),
                witness: witness(nranks, cycle),
                verification: None,
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufMeta, ElemKind};
    use crate::clause::ClauseSet;
    use crate::dir::P2pSpec;
    use crate::expr::{CondExpr, RankExpr};
    use mpisim::dtype::BasicType;

    fn meta(name: &str, lo: usize, bytes: usize) -> BufMeta {
        BufMeta {
            name: name.to_string(),
            elem: ElemKind::Prim(BasicType::U8),
            len: bytes,
            addr: (lo, lo + bytes),
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

    fn p2p(clauses: ClauseSet, sbuf: Vec<BufMeta>, rbuf: Vec<BufMeta>) -> P2pSpec {
        P2pSpec {
            clauses,
            sbuf,
            rbuf,
            has_overlap_body: false,
            site: 1,
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
    fn clean_ring_only_notes() {
        let spec = ParamsSpec {
            clauses: ring_clauses(),
            body: vec![p2p(
                ClauseSet::default(),
                vec![meta("s", 0, 8)],
                vec![meta("r", 100, 8)],
            )],
            spans: DirSpans::default(),
        };
        let diags = lint_region_at(0, &spec, 5, &HashMap::new());
        // The ring triggers only the advisory blocking-deadlock note.
        assert_eq!(codes(&diags), vec!["CI002"]);
        assert!(diags.iter().all(|d| d.severity == Severity::Note));
        assert_eq!(diags[0].witness.as_ref().unwrap().nranks, 5);
        assert_eq!(diags[0].witness.as_ref().unwrap().ranks.len(), 5);
    }

    #[test]
    fn overflowing_clause_is_unresolved_ci008() {
        // `rank + MAX + MAX + 2` would wrap back to `rank` (a valid
        // self-send); C calls the overflow undefined, so every rank is
        // unresolved instead.
        let max = || RankExpr::lit(i64::MAX);
        let spec = ParamsSpec {
            clauses: ClauseSet {
                sender: Some(RankExpr::rank()),
                receiver: Some(RankExpr::rank() + max() + max() + RankExpr::lit(2)),
                ..ClauseSet::default()
            },
            body: vec![p2p(
                ClauseSet::default(),
                vec![meta("s", 0, 8)],
                vec![meta("r", 100, 8)],
            )],
            spans: DirSpans::default(),
        };
        let diags = lint_region_at(0, &spec, 3, &HashMap::new());
        let unresolved: Vec<&Diag> = diags
            .iter()
            .filter(|d| d.code == LintCode::UnresolvedClause)
            .collect();
        assert_eq!(unresolved.len(), 1, "{diags:?}");
        let witness = unresolved[0].witness.as_ref().expect("witness");
        assert_eq!(witness.ranks, vec![0, 1, 2]);
    }

    #[test]
    fn aliasing_detected_only_for_self_transfer_ranks() {
        // Ring: every rank both sends and receives; same buffer on both
        // sides -> CI003.
        let spec = ParamsSpec {
            clauses: ring_clauses(),
            body: vec![p2p(
                ClauseSet::default(),
                vec![meta("buf", 0, 8)],
                vec![meta("buf", 0, 8)],
            )],
            spans: DirSpans::default(),
        };
        let diags = lint_region_at(0, &spec, 4, &HashMap::new());
        assert!(diags.iter().any(|d| d.code == LintCode::SbufRbufAliasing));

        // Disjoint sender/receiver sets: the same aliasing is fine
        // (different processes own the two sides).
        let clauses = ClauseSet {
            sender: Some(RankExpr::lit(0)),
            receiver: Some(RankExpr::lit(1)),
            sendwhen: Some(RankExpr::rank().eq(RankExpr::lit(0))),
            receivewhen: Some(RankExpr::rank().eq(RankExpr::lit(1))),
            ..ClauseSet::default()
        };
        let spec = ParamsSpec {
            clauses,
            body: vec![p2p(
                ClauseSet::default(),
                vec![meta("buf", 0, 8)],
                vec![meta("buf", 0, 8)],
            )],
            spans: DirSpans::default(),
        };
        let diags = lint_region_at(0, &spec, 4, &HashMap::new());
        assert!(!diags.iter().any(|d| d.code == LintCode::SbufRbufAliasing));
    }

    #[test]
    fn size_mismatch_with_rank_dependent_count() {
        // count(rank+1): sender and receiver of each ring edge disagree.
        let mut clauses = ring_clauses();
        clauses.count = Some(RankExpr::rank() + RankExpr::lit(1));
        let spec = ParamsSpec {
            clauses,
            body: vec![p2p(
                ClauseSet::default(),
                vec![meta("s", 0, 64)],
                vec![meta("r", 100, 64)],
            )],
            spans: DirSpans::default(),
        };
        let diags = lint_region_at(0, &spec, 4, &HashMap::new());
        let d = diags
            .iter()
            .find(|d| d.code == LintCode::SizeMismatch)
            .expect("CI004");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.witness.is_some());
    }

    #[test]
    fn predicate_inconsistency_flagged() {
        let clauses = ClauseSet {
            sender: Some(RankExpr::lit(0)),
            receiver: Some(RankExpr::lit(1)),
            sendwhen: Some(RankExpr::rank().eq(RankExpr::lit(0))),
            // Nobody ever receives.
            receivewhen: Some(RankExpr::rank().lt(RankExpr::lit(0))),
            ..ClauseSet::default()
        };
        let spec = ParamsSpec {
            clauses,
            body: vec![p2p(
                ClauseSet::default(),
                vec![meta("s", 0, 8)],
                vec![meta("r", 100, 8)],
            )],
            spans: DirSpans::default(),
        };
        let diags = lint_region_at(0, &spec, 4, &HashMap::new());
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::SendwhenPairing && d.key.ends_with("consistency")));
    }

    #[test]
    fn one_sided_deferred_sync_without_bound_flagged() {
        let mut clauses = ring_clauses();
        clauses.target = Some(Target::Shmem);
        clauses.place_sync = Some(PlaceSync::EndAdjParamRegions);
        let spec = ParamsSpec {
            clauses: clauses.clone(),
            body: vec![p2p(
                ClauseSet::default(),
                vec![meta("s", 0, 8)],
                vec![meta("r", 100, 8)],
            )],
            spans: DirSpans::default(),
        };
        let diags = lint_region_at(0, &spec, 4, &HashMap::new());
        assert!(diags.iter().any(|d| d.code == LintCode::TargetInfeasible));

        // With the bound the combination is lowerable.
        let mut bounded = clauses;
        bounded.max_comm_iter = Some(RankExpr::lit(16));
        let spec = ParamsSpec {
            clauses: bounded,
            body: vec![p2p(
                ClauseSet::default(),
                vec![meta("s", 0, 8)],
                vec![meta("r", 100, 8)],
            )],
            spans: DirSpans::default(),
        };
        let diags = lint_region_at(0, &spec, 4, &HashMap::new());
        assert!(!diags.iter().any(|d| d.code == LintCode::TargetInfeasible));
    }

    #[test]
    fn cross_directive_cycle_detected() {
        // p2p#0: 0 -> 1, p2p#1: 1 -> 0. Neither is cyclic alone; the
        // consolidated region is.
        let one_way = |src: i64, dst: i64| ClauseSet {
            sender: Some(RankExpr::lit(src)),
            receiver: Some(RankExpr::lit(dst)),
            sendwhen: Some(RankExpr::rank().eq(RankExpr::lit(src))),
            receivewhen: Some(RankExpr::rank().eq(RankExpr::lit(dst))),
            ..ClauseSet::default()
        };
        let spec = ParamsSpec {
            clauses: ClauseSet::default(),
            body: vec![
                p2p(
                    one_way(0, 1),
                    vec![meta("a", 0, 8)],
                    vec![meta("b", 100, 8)],
                ),
                p2p(
                    one_way(1, 0),
                    vec![meta("c", 200, 8)],
                    vec![meta("d", 300, 8)],
                ),
            ],
            spans: DirSpans::default(),
        };
        let diags = lint_region_at(0, &spec, 2, &HashMap::new());
        let d = diags
            .iter()
            .find(|d| d.code == LintCode::BlockingDeadlockCycle && d.site.is_none())
            .expect("region-level CI002");
        let w = d.witness.as_ref().unwrap();
        assert_eq!(w.nranks, 2);
        let mut ranks = w.ranks.clone();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1]);
    }

    #[test]
    fn opaque_clause_fires_one_witness_free_ci008_per_site() {
        // An opaque guard nested under Not/And must still be reported, and
        // the diagnostic must be identical at every rank count (no witness)
        // so the sweep merges it into a single finding.
        let clauses = ClauseSet {
            sender: Some(RankExpr::opaque("route", |e| e.rank)),
            receiver: Some(RankExpr::rank()),
            sendwhen: Some(CondExpr::opaque("gate", |_| true).not().and(CondExpr::True)),
            receivewhen: Some(CondExpr::True),
            ..ClauseSet::default()
        };
        let spec = ParamsSpec {
            clauses,
            body: vec![p2p(
                ClauseSet::default(),
                vec![meta("s", 0, 8)],
                vec![meta("r", 100, 8)],
            )],
            spans: DirSpans::default(),
        };
        let per_count: Vec<Vec<Diag>> = (2..=6)
            .map(|n| {
                lint_region_at(0, &spec, n, &HashMap::new())
                    .into_iter()
                    .filter(|d| d.key.ends_with(":opaque"))
                    .collect()
            })
            .collect();
        for diags in &per_count {
            assert_eq!(diags.len(), 1, "exactly one opaque CI008 per site");
            let d = &diags[0];
            assert_eq!(d.code, LintCode::UnresolvedClause);
            assert!(d.witness.is_none());
            assert!(d.message.contains("<route>") && d.message.contains("<gate>"));
            // Identical across counts -> the sweep dedups to one finding.
            assert_eq!(d, &per_count[0][0]);
        }
    }

    #[test]
    fn display_includes_code_span_and_witness() {
        let d = Diag {
            code: LintCode::UnmatchedSend,
            severity: Severity::Error,
            message: "boom".into(),
            span: Some(SrcSpan {
                offset: 10,
                line: 3,
                col: 7,
            }),
            region: 0,
            site: Some(1),
            key: "k".into(),
            witness: Some(RankWitness {
                nranks: 3,
                ranks: vec![0, 2],
            }),
            verification: Some(Verification::Swept { min: 2, max: 16 }),
        };
        let s = d.to_string();
        assert!(s.contains("CI001"), "{s}");
        assert!(s.contains("3:7"), "{s}");
        assert!(s.contains("fails at nranks=3"), "{s}");
        assert!(s.contains("ranks 0,2"), "{s}");
        assert!(s.contains("[swept 2..=16]"), "{s}");
    }
}
