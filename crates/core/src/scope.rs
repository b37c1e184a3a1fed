//! The runtime directive engine: `comm_parameters` regions and `comm_p2p`
//! instances executing against a chosen target library, with the paper's
//! automatic behaviours — data-type handling, count inference,
//! synchronization consolidation and placement, communication/computation
//! overlap, and symmetric staging-buffer reuse.
//!
//! ## Timing semantics
//!
//! Data movement is physical (the receive buffer really is filled), but the
//! *cost* of waiting is deferred: a `comm_p2p` records virtual completion
//! times, and the region's synchronization point folds them into the rank's
//! clock as one consolidated charge ("for every set of adjacent comm_p2p
//! directives with independent buffers, synchronization is consolidated and
//! reduced in most cases to one call at the end"). Computation overlapped
//! via [`P2pCall::overlap`] therefore advances the clock concurrently with
//! the in-flight transfer, exactly like the generated overlap code.

use std::collections::HashMap;
use std::sync::Arc;

use mpisim::dtype::DtypeCache;
use mpisim::Comm;
use netsim::{RankCtx, SegId, SendRequest, Time};

use crate::buffer::{BufMeta, ElemKind, RecvBuf, RecvSlot, SendBuf, SendSlot};
use crate::clause::{ClauseSet, Diagnostic, DirectiveKind, PlaceSync, Target};
use crate::dir::{P2pSpec, ParamsSpec};
use crate::expr::{CompiledCond, CompiledExpr, CondExpr, EvalEnv, ExprError, RankExpr, VarTable};
use crate::interval::{Access, AccessKind, ByteSpan};
use crate::lower::{model_for, Lowering, LoweringPolicy};
use crate::overlay::{Decision, Overlay};

mod loop_form;
pub use loop_form::{CommLoop, LoopIter, LoopP2p};

/// Distinct clause sets whose compiled programs a session keeps; the
/// oldest is dropped beyond this. Applications reopen a handful of regions,
/// and the lookup compares clause sets one by one.
const COMPILED_REGIONS: usize = 16;

/// Base user tag reserved for directive-generated messages.
const DIR_TAG_BASE: i32 = 1 << 18;

/// User-tag base for coalesced (batched) directive messages — disjoint
/// from [`DIR_TAG_BASE`] so packed and per-instance traffic for the same
/// site can never cross-match. Still inside mpisim's user-tag space.
const COAL_TAG_BASE: i32 = DIR_TAG_BASE + (1 << 17);

/// Errors from directive execution.
#[derive(Clone, Debug)]
pub enum DirectiveError {
    /// Clause/buffer validation failed.
    Invalid(Vec<Diagnostic>),
    /// A clause expression failed to evaluate.
    Expr(ExprError),
    /// An evaluated rank was outside the communicator.
    RankOutOfRange {
        clause: &'static str,
        value: i64,
        size: usize,
    },
    /// A site executed more times than `max_comm_iter` allows.
    MaxIterExceeded { site: u32, bound: i64 },
    /// A later execution's payload exceeded the staging capacity fixed at
    /// first execution (increase `max_comm_iter` or keep counts uniform).
    StagingOverflow { site: u32, need: usize, have: usize },
}

impl std::fmt::Display for DirectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectiveError::Invalid(diags) => {
                writeln!(f, "directive validation failed:")?;
                for d in diags {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
            DirectiveError::Expr(e) => write!(f, "clause expression error: {e}"),
            DirectiveError::RankOutOfRange {
                clause,
                value,
                size,
            } => write!(
                f,
                "`{clause}` evaluated to {value}, outside communicator of size {size}"
            ),
            DirectiveError::MaxIterExceeded { site, bound } => write!(
                f,
                "comm_p2p site {site} executed more than max_comm_iter={bound} times"
            ),
            DirectiveError::StagingOverflow { site, need, have } => write!(
                f,
                "comm_p2p site {site}: payload {need}B exceeds staging capacity {have}B"
            ),
        }
    }
}

impl std::error::Error for DirectiveError {}

impl From<ExprError> for DirectiveError {
    fn from(e: ExprError) -> Self {
        DirectiveError::Expr(e)
    }
}

/// Builder for the `comm_parameters` directive's clause list.
#[derive(Clone, Debug, Default)]
pub struct CommParams {
    /// The clause payload.
    pub clauses: ClauseSet,
}

impl CommParams {
    /// Empty clause list.
    pub fn new() -> Self {
        Self::default()
    }

    /// `sender(expr)`.
    pub fn sender(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses.sender = Some(e.into());
        self
    }

    /// `receiver(expr)`.
    pub fn receiver(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses.receiver = Some(e.into());
        self
    }

    /// `sendwhen(cond)`.
    pub fn sendwhen(mut self, c: CondExpr) -> Self {
        self.clauses.sendwhen = Some(c);
        self
    }

    /// `receivewhen(cond)`.
    pub fn receivewhen(mut self, c: CondExpr) -> Self {
        self.clauses.receivewhen = Some(c);
        self
    }

    /// `count(expr)`.
    pub fn count(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses.count = Some(e.into());
        self
    }

    /// `target(keyword)`.
    pub fn target(mut self, t: Target) -> Self {
        self.clauses.target = Some(t);
        self
    }

    /// `place_sync(keyword)`.
    pub fn place_sync(mut self, p: PlaceSync) -> Self {
        self.clauses.place_sync = Some(p);
        self
    }

    /// `max_comm_iter(expr)`.
    pub fn max_comm_iter(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses.max_comm_iter = Some(e.into());
        self
    }
}

/// Deferred synchronization state accumulated by directive executions.
#[derive(Default)]
struct PendingSync {
    /// Outstanding non-blocking sends (MPI two-sided).
    send_reqs: Vec<SendRequest>,
    /// Completion times of already-delivered receives (MPI two-sided).
    recv_completions: Vec<Time>,
    /// Latest put arrival per one-sided target, sender and receiver side
    /// alike: the time its region-end quiet waits for.
    mpi1_horizon: Time,
    shmem_horizon: Time,
    /// Whether any directive in scope used each one-sided target (uniform
    /// across ranks, so the collective fence/barrier is safe).
    used_mpi1: bool,
    used_shmem: bool,
}

impl PendingSync {
    fn is_empty(&self) -> bool {
        self.send_reqs.is_empty()
            && self.recv_completions.is_empty()
            && !self.used_mpi1
            && !self.used_shmem
    }

    fn absorb(&mut self, mut other: PendingSync) {
        self.send_reqs.append(&mut other.send_reqs);
        self.recv_completions.append(&mut other.recv_completions);
        self.mpi1_horizon = self.mpi1_horizon.max(other.mpi1_horizon);
        self.shmem_horizon = self.shmem_horizon.max(other.shmem_horizon);
        self.used_mpi1 |= other.used_mpi1;
        self.used_shmem |= other.used_shmem;
    }

    /// Fold a put's arrival into the horizon of its one-sided `target`,
    /// whose region-end quiet or fence then waits for it.
    fn note_arrival(&mut self, target: Target, arrival: Time) {
        let (used, horizon) = match target {
            Target::Mpi1Side => (&mut self.used_mpi1, &mut self.mpi1_horizon),
            _ => (&mut self.used_shmem, &mut self.shmem_horizon),
        };
        *used = true;
        *horizon = (*horizon).max(arrival);
    }
}

/// Where one transfer lands in a [`Staging`]: its segment, the byte base of
/// its slot, and the number of signals the segment had taken before it.
#[derive(Clone, Copy)]
struct Slot {
    seg: SegId,
    base: usize,
    signals_before: usize,
}

/// A site's symmetric staging for one-sided targets: `slots` slots of
/// `slot_bytes`, each holding one transfer of one or more pieces. A
/// per-instance transfer has one piece per buffer; a coalesced flush is one
/// piece (`[u32 total][framed pieces...]`). Each piece is one signalled put,
/// so the segment's in-flight window is `slots × pieces`. Which slot and
/// which signals a transfer uses is decided here and nowhere else.
struct Staging {
    site: u32,
    coalesced: bool,
    seg: SegId,
    /// Byte offset of each piece within a slot.
    piece_offsets: Vec<usize>,
    slot_bytes: usize,
    /// `max_comm_iter` at the site's first execution, else 1.
    slots: usize,
    /// Transfers sent to each destination.
    send_counts: HashMap<usize, u64>,
    /// Transfers received.
    recv_count: u64,
}

impl Staging {
    fn signals_per_slot(&self) -> usize {
        self.piece_offsets.len()
    }

    fn slot(&self, k: u64) -> Slot {
        Slot {
            seg: self.seg,
            base: (k % self.slots as u64) as usize * self.slot_bytes,
            signals_before: k as usize * self.signals_per_slot(),
        }
    }

    /// The slot of the next transfer this rank sends to `dest`.
    fn send_slot(&mut self, dest: usize) -> Slot {
        let sent = *self
            .send_counts
            .entry(dest)
            .and_modify(|n| *n += 1)
            .or_insert(1);
        self.slot(sent - 1)
    }

    /// The slot of the next transfer this rank receives.
    fn recv_slot(&mut self) -> Slot {
        self.recv_count += 1;
        self.slot(self.recv_count - 1)
    }

    /// Byte offset of piece `i` of `slot`, and the signal count that marks
    /// its arrival.
    fn piece(&self, slot: Slot, i: usize) -> (usize, usize) {
        (
            slot.base + self.piece_offsets[i],
            slot.signals_before + i + 1,
        )
    }
}

/// Sender-side accumulator for one (site, destination) coalescing stream.
#[derive(Default)]
struct CoalesceOut {
    site: u32,
    dest: usize,
    target: Target,
    /// Directive instances accumulated since the last flush.
    instances: usize,
    /// Length-framed pieces awaiting one packed send.
    buf: Vec<u8>,
    /// Latest data-dependency horizon among the accumulated pieces: the
    /// packed send departs no earlier than its newest piece's data.
    horizon: Time,
}

/// Receiver-side buffer of one packed message being peeled piece by piece.
struct CoalesceIn {
    site: u32,
    src: usize,
    payload: bytes::Bytes,
    pos: usize,
    /// Virtual completion time of the packed message that carried `payload`.
    completion: Time,
}

/// Runtime state of an installed tuning overlay: the decisions plus the
/// coalescing accumulators they drive.
struct OverlayState {
    overlay: Overlay,
    out: Vec<CoalesceOut>,
    inbox: Vec<CoalesceIn>,
}

/// A directive session: binds a rank context to a communicator and holds
/// the cross-region state — the per-scope datatype cache, carried
/// synchronizations (`place_sync` deferral), symmetric staging sites, and
/// the recorded IR of every region executed (for analysis).
pub struct CommSession<'a> {
    ctx: &'a mut RankCtx,
    comm: Comm,
    /// Cached evaluation environment (rank/size are session constants; the
    /// variable bindings are updated in place by `set_var`). Kept ready so
    /// the directive hot path never clones a variable map per instance.
    env: EvalEnv,
    dtype_cache: DtypeCache,
    carried_next: PendingSync,
    carried_adj: PendingSync,
    /// Per-site staging allocations, linear-scanned by (site, coalesced): a
    /// session has a handful of one-sided sites but the lookup runs on every
    /// directive instance, where a short scan beats hashing.
    staging: Vec<Staging>,
    /// Arrival horizons of physically-received-but-unsynced buffers, keyed
    /// by address range. A later send reading such a buffer is forced to
    /// depart no earlier than the data's virtual arrival (causality under
    /// deferred synchronization — the "relaxed" sync stays legal).
    recv_horizons: Vec<((usize, usize), Time)>,
    /// Recorded region IR (first instance per call order), for analysis.
    program: Vec<ParamsSpec>,
    record_ir: bool,
    /// The compiled programs of each distinct clause set a region has
    /// opened with, newest last. Programs read variables by `VarTable` slot
    /// and slots are never removed, so a program compiled for an equal
    /// clause set in this session is the program compiling would build.
    compiled: Vec<(ClauseSet, Arc<RegionPrograms>)>,
    /// A region's working lists, kept between regions so that reopening
    /// one reuses their capacity.
    spare: RegionLists,
    /// Installed tuning overlay plus its coalescing state. `None` (the
    /// untuned hot path) costs a single branch per directive instance.
    overlay: Option<Box<OverlayState>>,
    /// Marshalling strategy policy: `Auto` runs the layout engine's
    /// per-site chooser; the fixed policies exist for A/B benchmarking.
    lowering: LoweringPolicy,
}

impl<'a> CommSession<'a> {
    /// Create a session over `comm`.
    pub fn new(ctx: &'a mut RankCtx, comm: Comm) -> Self {
        let env = EvalEnv::new(comm.rank(ctx), comm.size());
        CommSession {
            ctx,
            comm,
            env,
            dtype_cache: DtypeCache::new(),
            carried_next: PendingSync::default(),
            carried_adj: PendingSync::default(),
            staging: Vec::new(),
            recv_horizons: Vec::new(),
            program: Vec::new(),
            record_ir: true,
            compiled: Vec::new(),
            spare: RegionLists::default(),
            overlay: None,
            lowering: LoweringPolicy::default(),
        }
    }

    /// Override the marshalling-strategy policy (default `Auto`). The
    /// fixed policies (`AlwaysPack`, `AlwaysDatatype`) exist to benchmark
    /// the layout engine's chooser against what it replaces.
    pub fn with_lowering(mut self, policy: LoweringPolicy) -> Self {
        self.lowering = policy;
        self
    }

    /// Install a tuning overlay (profile-guided decisions from `commtune`).
    /// Decisions apply to every directive executed afterwards; `Keep`
    /// decisions are behaviorally inert by construction, so an all-keep
    /// overlay reproduces the untuned run bit for bit.
    pub fn with_overlay(mut self, overlay: Overlay) -> Self {
        self.overlay = Some(Box::new(OverlayState {
            overlay,
            out: Vec::new(),
            inbox: Vec::new(),
        }));
        self
    }

    /// The installed tuning overlay, if any.
    pub fn overlay(&self) -> Option<&Overlay> {
        self.overlay.as_deref().map(|s| &s.overlay)
    }

    /// The latest arrival horizon of received data overlapping `range`
    /// (data-dependency fence for sends under deferred sync).
    fn data_horizon(&self, range: (usize, usize)) -> Option<Time> {
        self.recv_horizons
            .iter()
            .filter(|((lo, hi), _)| *lo < range.1 && range.0 < *hi)
            .map(|&(_, t)| t)
            .max()
    }

    /// `data_horizon` over a buffer's exact constituent ranges when it
    /// exposes them (struct-of-arrays), else its summary range. The summary
    /// hull of unrelated heap arrays is allocator-dependent, so dependence
    /// decisions must never consult it where exact ranges exist — engines
    /// could otherwise diverge on identical programs.
    fn buf_data_horizon(
        &self,
        ranges: Option<&[(usize, usize)]>,
        addr: (usize, usize),
    ) -> Option<Time> {
        match ranges {
            Some(rs) => rs.iter().filter_map(|&r| self.data_horizon(r)).max(),
            None => self.data_horizon(addr),
        }
    }

    /// Record an arrival horizon per exact constituent range (see
    /// `buf_data_horizon`), else on the summary range.
    fn push_recv_horizon(
        &mut self,
        ranges: Option<&[(usize, usize)]>,
        addr: (usize, usize),
        t: Time,
    ) {
        match ranges {
            Some(rs) => {
                for &r in rs {
                    self.recv_horizons.push((r, t));
                }
            }
            None => self.recv_horizons.push((addr, t)),
        }
    }

    /// Index of the site's staging for per-instance (`coalesced == false`)
    /// or coalesced transfers, once `join_collectives` has created it.
    fn staging_index(&self, site: u32, coalesced: bool) -> Option<usize> {
        self.staging
            .iter()
            .position(|st| st.site == site && st.coalesced == coalesced)
    }

    /// Disable IR recording (hot loops in benches).
    pub fn without_ir(mut self) -> Self {
        self.record_ir = false;
        self
    }

    /// Bind a clause variable.
    pub fn set_var(&mut self, name: &str, value: i64) {
        self.env.set(name, value);
    }

    /// The underlying rank context.
    pub fn ctx(&mut self) -> &mut RankCtx {
        self.ctx
    }

    /// The session's communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// This rank's communicator-local id.
    pub fn rank(&self) -> usize {
        self.comm.rank(self.ctx)
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// Recorded directive IR so far.
    pub fn program(&self) -> &[ParamsSpec] {
        &self.program
    }

    /// This rank's clause-evaluation environment: its identity and the
    /// session's variables.
    pub(crate) fn env(&self) -> &EvalEnv {
        &self.env
    }

    /// The communicator ranks, ascending, for which `c` holds against the
    /// session's variables with that rank in place of this one. `c` is
    /// compiled once and run once per rank.
    pub(crate) fn ranks_where(&mut self, c: &CondExpr) -> Result<Vec<usize>, ExprError> {
        let program = c.compile(&mut self.env.vars);
        let mut scratch = vec![0; program.depth()];
        let me = self.env.rank;
        let mut ranks = Vec::new();
        let result = (0..self.size()).try_for_each(|r| {
            self.env.rank = r as i64;
            if program.eval(&self.env, &mut scratch)? {
                ranks.push(r);
            }
            Ok(())
        });
        self.env.rank = me;
        result.map(|()| ranks)
    }

    /// The compiled programs of `clauses`: those of an equal clause set
    /// this session has compiled, else compiled now and kept.
    fn region_programs(&mut self, clauses: &ClauseSet) -> Arc<RegionPrograms> {
        if let Some((_, programs)) = self.compiled.iter().find(|(c, _)| c == clauses) {
            return Arc::clone(programs);
        }
        let programs = Arc::new(RegionPrograms::compile(clauses, &mut self.env.vars));
        if self.compiled.len() == COMPILED_REGIONS {
            self.compiled.remove(0);
        }
        self.compiled.push((clauses.clone(), Arc::clone(&programs)));
        programs
    }

    /// Execute a `comm_parameters` region: validates the clause list,
    /// applies any synchronization deferred to the region's beginning, runs
    /// `body`, then places this region's synchronization per `place_sync`.
    pub fn region<R>(
        &mut self,
        params: &CommParams,
        body: impl FnOnce(&mut Region<'_, 'a>) -> R,
    ) -> Result<R, DirectiveError> {
        // A region's sender/receiver may be supplied by its p2ps, and the
        // placement rules bind only `comm_p2p`: the pairing rule is the one
        // clause check a region makes when it opens.
        if let Some(d) = params
            .clauses
            .unpaired_when(DirectiveKind::CommParameters, None)
        {
            return Err(DirectiveError::Invalid(vec![d]));
        }

        // BEGIN_NEXT_PARAM_REGION syncs land here.
        let carried = std::mem::take(&mut self.carried_next);
        self.apply_sync(carried);

        let max_iter = match &params.clauses.max_comm_iter {
            Some(e) => Some(e.eval(self.env())?),
            None => None,
        };

        let programs = self.region_programs(&params.clauses);
        let mut lists = std::mem::take(&mut self.spare);
        lists.scratch.resize(programs.depth(), 0);
        let mut region = Region {
            session: self,
            clauses: &params.clauses,
            programs,
            lists,
            pending: PendingSync::default(),
            body: Vec::new(),
            max_iter,
            error: None,
            split_syncs: 0,
        };
        let out = body(&mut region);
        let Region {
            mut pending,
            mut lists,
            body,
            error,
            ..
        } = region;
        let placement = placement(&params.clauses, &lists.sites);
        lists.clear();
        self.spare = lists;
        if let Some(e) = error {
            // Abandon half-built coalescing batches; the receiver side of
            // this region is aborting too, so nothing will wait for them.
            if let Some(ov) = self.overlay.as_deref_mut() {
                ov.out.clear();
            }
            // Every other rank's region takes the MPI one-sided fence, a
            // barrier over the communicator, so this rank still joins it
            // where they do. The rest of its sync is rank-local and dropped.
            let fence = PendingSync {
                used_mpi1: pending.used_mpi1,
                mpi1_horizon: pending.mpi1_horizon,
                ..PendingSync::default()
            };
            self.place_sync(placement, fence);
            return Err(e);
        }

        // Region-end flush: coalesced batches never outlive their region,
        // keeping the flush rule a pure function of the instance schedule.
        flush_batches(self, &mut pending, None);
        self.place_sync(placement, pending);
        if self.record_ir {
            self.program.push(ParamsSpec {
                clauses: params.clauses.clone(),
                body,
                spans: Default::default(),
            });
        }
        Ok(out)
    }

    /// Apply or carry a region's `pending` sync at `placement`.
    fn place_sync(&mut self, placement: PlaceSync, pending: PendingSync) {
        match placement {
            PlaceSync::EndParamRegion => {
                let adj = std::mem::take(&mut self.carried_adj);
                self.apply_sync(adj);
                self.apply_sync(pending);
            }
            PlaceSync::BeginNextParamRegion => {
                self.carried_next.absorb(pending);
            }
            PlaceSync::EndAdjParamRegions => {
                self.carried_adj.absorb(pending);
            }
        }
    }

    /// Execute a standalone `comm_p2p` (outside any region): synchronizes
    /// immediately after the instance (plus any overlap body).
    #[inline(always)]
    pub fn p2p<'r, 'data>(&'r mut self) -> P2pCall<'r, 'r, 'a, 'data> {
        P2pCall {
            region: RegionRef::Standalone(self),
            clauses: None,
            site: 0,
            sbufs: BufList::new(),
            rbufs: BufList::new(),
        }
    }

    /// Force application of all deferred synchronizations (the end of a run
    /// of adjacent regions, or program end).
    pub fn flush(&mut self) {
        // Coalesced leftovers exist only if a region was abandoned without
        // its end-of-region flush; drain them so no packed send is lost.
        let mut extra = PendingSync::default();
        flush_batches(self, &mut extra, None);
        self.apply_sync(extra);
        let next = std::mem::take(&mut self.carried_next);
        self.apply_sync(next);
        let adj = std::mem::take(&mut self.carried_adj);
        self.apply_sync(adj);
    }

    /// Flush and return the recorded IR.
    pub fn finish(mut self) -> Vec<ParamsSpec> {
        self.flush();
        std::mem::take(&mut self.program)
    }

    fn apply_sync(&mut self, pending: PendingSync) {
        if pending.is_empty() {
            return;
        }
        let mpi = self.ctx.machine().mpi;
        let shmem = self.ctx.machine().shmem;

        // MPI two-sided: one consolidated Waitall over sends + receives.
        let n2 = pending.send_reqs.len() + pending.recv_completions.len();
        if n2 > 0 {
            let mut completions = pending.recv_completions;
            for req in &pending.send_reqs {
                completions.push(req.wait_raw());
            }
            self.ctx.charge_consolidated(&completions, n2, &mpi);
        }

        // MPI one-sided: fence = quiet + barrier over the communicator.
        if pending.used_mpi1 {
            let horizon = pending.mpi1_horizon;
            let t0 = self.ctx.now();
            let outstanding = self.ctx.take_outstanding_puts().len();
            self.ctx.advance_to(horizon);
            self.ctx.charge(Time::from_nanos(mpi.o_quiet));
            self.ctx.emit_event(
                t0,
                self.ctx.now(),
                netsim::EventKind::Quiet {
                    outstanding,
                    horizon,
                },
            );
            self.ctx.barrier_group(self.comm.group(), &mpi);
        }

        // SHMEM: quiet (sender-side put completion) plus point-wise
        // completion of incoming signalled deliveries (`shmem_wait`-style).
        // No collective barrier: SHMEM's one-sided model needs none, which
        // is precisely why it scales on small frequent transfers (paper
        // §IV-B and refs [13][14]).
        if pending.used_shmem {
            let horizon = pending.shmem_horizon;
            let t0 = self.ctx.now();
            let outstanding = self.ctx.take_outstanding_puts().len();
            self.ctx.advance_to(horizon);
            self.ctx.charge(Time::from_nanos(shmem.o_quiet));
            self.ctx.stats.quiets += 1;
            self.ctx.emit_event(
                t0,
                self.ctx.now(),
                netsim::EventKind::Quiet {
                    outstanding,
                    horizon,
                },
            );
        }

        // Horizons covered by the charges above are no longer needed.
        let now = self.ctx.now();
        self.recv_horizons.retain(|&(_, t)| t > now);
    }
}

/// Where a region's sync goes: the written `place_sync`, overridden by the
/// overlay's decision for the last site the region executed that has one.
fn placement(clauses: &ClauseSet, sites: &[SiteRecord]) -> PlaceSync {
    sites
        .iter()
        .rev()
        .find_map(|s| match s.decision {
            Some(Decision::PlaceSync(p)) => Some(p),
            _ => None,
        })
        .unwrap_or(clauses.place_sync.unwrap_or_default())
}

/// A region's inherited `sendwhen`, `receivewhen`, `count`, `sender` and
/// `receiver`, compiled against the session's variables the first time a
/// region with that clause set opens (`CommSession::region_programs`). A
/// name the region's body binds later gets an unbound slot then and is
/// read through it once bound.
struct RegionPrograms {
    sendwhen: Option<CompiledCond>,
    receivewhen: Option<CompiledCond>,
    count: Option<CompiledExpr>,
    sender: Option<CompiledExpr>,
    receiver: Option<CompiledExpr>,
}

impl RegionPrograms {
    fn compile(c: &ClauseSet, vars: &mut VarTable) -> Self {
        RegionPrograms {
            sendwhen: c.sendwhen.as_ref().map(|e| e.compile(vars)),
            receivewhen: c.receivewhen.as_ref().map(|e| e.compile(vars)),
            count: c.count.as_ref().map(|e| e.compile(vars)),
            sender: c.sender.as_ref().map(|e| e.compile(vars)),
            receiver: c.receiver.as_ref().map(|e| e.compile(vars)),
        }
    }

    /// Operand stack depth the deepest program needs.
    fn depth(&self) -> usize {
        let conds = [&self.sendwhen, &self.receivewhen];
        let exprs = [&self.count, &self.sender, &self.receiver];
        let cond_depths = conds.into_iter().flatten().map(CompiledCond::depth);
        let expr_depths = exprs.into_iter().flatten().map(CompiledExpr::depth);
        cond_depths.chain(expr_depths).max().unwrap_or(0)
    }
}

/// What a region knows about one of its `comm_p2p` sites, found by a linear
/// scan on every instance (a region has a few lexical sites).
struct SiteRecord {
    site: u32,
    /// Executions seen, for `max_comm_iter`.
    executions: u64,
    /// The installed overlay's decision for the site, resolved on its first
    /// execution in the region.
    decision: Option<Decision>,
}

/// A region's working lists. The session lends them to each region it
/// opens and takes them back, emptied, when the region ends.
#[derive(Default)]
struct RegionLists {
    /// Operand stack shared by the region's programs, sized when it opens
    /// and kept here rather than in the frames of every rank's stack.
    scratch: Vec<i64>,
    sites: Vec<SiteRecord>,
    /// Address ranges touched by pending (unsynced) directives in this
    /// region, each read or written. A new directive whose buffers conflict
    /// (write-write or read-write overlap) forces an intermediate sync —
    /// the paper consolidates only "adjacent comm_p2p directives with
    /// independent buffers".
    used_bufs: Vec<Access>,
    /// A loop-form region's variable slots and the iterations this rank
    /// solved for (`loop_form`).
    slots: Vec<crate::expr::Slot>,
    iters: Vec<u64>,
    /// The box a `comm_p2p`'s clause overrides were built in, emptied and
    /// kept for the next instance that overrides one.
    overrides: Option<Box<ClauseSet>>,
}

impl RegionLists {
    fn clear(&mut self) {
        self.scratch.clear();
        self.sites.clear();
        self.used_bufs.clear();
        self.slots.clear();
        self.iters.clear();
    }
}

/// An open `comm_parameters` region.
pub struct Region<'s, 'a> {
    session: &'s mut CommSession<'a>,
    /// The clauses the region's p2ps inherit.
    clauses: &'s ClauseSet,
    programs: Arc<RegionPrograms>,
    lists: RegionLists,
    pending: PendingSync,
    /// The IR of the region's p2ps, built only when the session records IR.
    body: Vec<P2pSpec>,
    max_iter: Option<i64>,
    error: Option<DirectiveError>,
    /// Number of intermediate syncs forced by buffer dependences.
    pub split_syncs: usize,
}

impl<'s, 'a> Region<'s, 'a> {
    /// Start a `comm_p2p` instance in this region.
    #[inline(always)]
    pub fn p2p<'r, 'data>(&'r mut self) -> P2pCall<'r, 's, 'a, 'data> {
        P2pCall {
            region: RegionRef::InRegion(self),
            clauses: None,
            site: 0,
            sbufs: BufList::new(),
            rbufs: BufList::new(),
        }
    }

    /// The rank context (for computation between directives).
    pub fn ctx(&mut self) -> &mut RankCtx {
        self.session.ctx
    }

    /// Bind a clause variable mid-region.
    pub fn set_var(&mut self, name: &str, value: i64) {
        self.session.set_var(name, value);
    }

    /// The first error raised by a p2p in this region, if any (errors also
    /// abort the enclosing [`CommSession::region`] call).
    pub fn error(&self) -> Option<&DirectiveError> {
        self.error.as_ref()
    }
}

/// Where a `comm_p2p` executes. Two references, so the builder stays
/// small: it is moved through every chained call on every rank.
enum RegionRef<'r, 's, 'a> {
    InRegion(&'r mut Region<'s, 'a>),
    Standalone(&'r mut CommSession<'a>),
}

impl RegionRef<'_, '_, '_> {
    /// The working lists the instance may borrow from: its region's, or
    /// the session's own outside a region.
    fn lists(&mut self) -> &mut RegionLists {
        match self {
            RegionRef::InRegion(r) => &mut r.lists,
            RegionRef::Standalone(s) => &mut s.spare,
        }
    }
}

/// A buffer list with four inline slots, heap beyond that. A `comm_p2p`
/// overwhelmingly carries one send and one receive buffer, and at most the
/// four of Listing 5's core-state site; the builder is constructed on every
/// directive instance of every rank, so keeping those off the allocator is
/// worth the larger builder.
pub(crate) struct BufList<T> {
    inline: [Option<T>; 4],
    rest: Vec<T>,
}

impl<T> BufList<T> {
    fn new() -> Self {
        BufList {
            inline: [None, None, None, None],
            rest: Vec::new(),
        }
    }

    fn push(&mut self, v: T) {
        for slot in &mut self.inline {
            if slot.is_none() {
                *slot = Some(v);
                return;
            }
        }
        self.rest.push(v);
    }

    pub(crate) fn len(&self) -> usize {
        self.inline.iter().filter(|s| s.is_some()).count() + self.rest.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.inline[0].is_none() && self.rest.is_empty()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline.iter().flatten().chain(self.rest.iter())
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.inline.iter_mut().flatten().chain(self.rest.iter_mut())
    }
}

/// A `comm_p2p` call under construction. Finish with [`P2pCall::run`] or
/// [`P2pCall::overlap`].
///
/// Every rank builds every instance, so the common chain (`p2p`, `site`,
/// `sbuf`, `rbuf`, `run`) is `#[inline(always)]`: left to the caller
/// crate's inlining heuristics, each call can copy the whole builder in
/// and out.
pub struct P2pCall<'r, 's, 'a, 'data> {
    region: RegionRef<'r, 's, 'a>,
    /// Per-call clause overrides; boxed lazily because the hot path (clauses
    /// inherited wholesale from the region) never overrides any. The box is
    /// borrowed from the working lists and handed back after the instance.
    clauses: Option<Box<ClauseSet>>,
    site: u32,
    sbufs: BufList<SendSlot<'data>>,
    rbufs: BufList<RecvSlot<'data>>,
}

impl<'r, 's, 'a, 'data> P2pCall<'r, 's, 'a, 'data> {
    fn clauses_mut(&mut self) -> &mut ClauseSet {
        let region = &mut self.region;
        self.clauses
            .get_or_insert_with(|| region.lists().overrides.take().unwrap_or_default())
    }

    /// Distinguish lexical `comm_p2p` sites sharing a region (the macro
    /// passes `line!()`; manual callers pass any stable id).
    #[inline(always)]
    pub fn site(mut self, site: u32) -> Self {
        self.site = site;
        self
    }

    /// `sender(expr)` override.
    pub fn sender(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses_mut().sender = Some(e.into());
        self
    }

    /// `receiver(expr)` override.
    pub fn receiver(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses_mut().receiver = Some(e.into());
        self
    }

    /// `sendwhen(cond)` override.
    pub fn sendwhen(mut self, c: CondExpr) -> Self {
        self.clauses_mut().sendwhen = Some(c);
        self
    }

    /// `receivewhen(cond)` override.
    pub fn receivewhen(mut self, c: CondExpr) -> Self {
        self.clauses_mut().receivewhen = Some(c);
        self
    }

    /// `count(expr)` override.
    pub fn count(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses_mut().count = Some(e.into());
        self
    }

    /// `target(keyword)` override.
    pub fn target(mut self, t: Target) -> Self {
        self.clauses_mut().target = Some(t);
        self
    }

    /// Add a send buffer (`sbuf` list element).
    #[inline(always)]
    pub fn sbuf(mut self, b: impl SendBuf + 'data) -> Self {
        self.sbufs.push(b.into_send_slot());
        self
    }

    /// Add a receive buffer (`rbuf` list element).
    #[inline(always)]
    pub fn rbuf(mut self, b: impl RecvBuf + 'data) -> Self {
        self.rbufs.push(b.into_recv_slot());
        self
    }

    /// Execute with an empty body.
    #[inline(always)]
    pub fn run(self) -> Result<(), DirectiveError> {
        self.execute(|_| {})
    }

    /// Execute with a computation body overlapped with the communication.
    pub fn overlap(self, f: impl FnOnce(&mut RankCtx)) -> Result<(), DirectiveError> {
        self.execute(f)
    }

    fn execute(mut self, body: impl FnOnce(&mut RankCtx)) -> Result<(), DirectiveError> {
        let own_clauses = self.clauses.as_deref();
        let result = match &mut self.region {
            RegionRef::InRegion(r) => {
                // Borrow the region's fields individually so the enclosing
                // clauses can be passed by reference (this runs once per
                // directive instance — no clones on the hot path).
                let Region {
                    session,
                    clauses,
                    programs,
                    lists,
                    pending,
                    body: ir,
                    max_iter,
                    error: _,
                    split_syncs,
                } = &mut **r;
                let region = InRegion {
                    clauses,
                    programs,
                    scratch: &mut lists.scratch,
                    max_iter: *max_iter,
                    sites: &mut lists.sites,
                    used_bufs: &mut lists.used_bufs,
                    split_syncs,
                };
                let ir = session.record_ir.then_some(ir);
                execute_p2p(
                    session,
                    pending,
                    Some(region),
                    ir,
                    own_clauses,
                    self.site,
                    &self.sbufs,
                    &mut self.rbufs,
                    body,
                )
            }
            RegionRef::Standalone(session) => execute_standalone(
                session,
                own_clauses,
                self.site,
                &self.sbufs,
                &mut self.rbufs,
                body,
            ),
        };
        if let (Err(e), RegionRef::InRegion(r)) = (&result, &mut self.region) {
            if r.error.is_none() {
                r.error = Some(region_error(e));
            }
        }
        if let Some(mut own) = self.clauses.take() {
            *own = ClauseSet::default();
            self.region.lists().overrides = Some(own);
        }
        result
    }
}

/// A standalone p2p: executed, then synchronized immediately, its IR
/// recorded if the session records IR. Kept out of line (as are the other
/// cold paths below) so the in-region hot path carries none of its state
/// on the stack of every rank.
#[inline(never)]
fn execute_standalone(
    session: &mut CommSession<'_>,
    own: Option<&ClauseSet>,
    site: u32,
    sbufs: &BufList<SendSlot<'_>>,
    rbufs: &mut BufList<RecvSlot<'_>>,
    body: impl FnOnce(&mut RankCtx),
) -> Result<(), DirectiveError> {
    let mut pending = PendingSync::default();
    let mut spec = ParamsSpec::default();
    let ir = session.record_ir.then_some(&mut spec.body);
    execute_p2p(
        session,
        &mut pending,
        None,
        ir,
        own,
        site,
        sbufs,
        rbufs,
        body,
    )?;
    session.apply_sync(pending);
    if session.record_ir {
        session.program.push(spec);
    }
    Ok(())
}

/// The installed overlay's decision for `site`, if any.
fn overlay_decision(session: &CommSession<'_>, site: u32) -> Option<Decision> {
    let ov = session.overlay.as_deref()?;
    ov.overlay.decision_for(site).map(|d| d.decision)
}

/// The error a failed instance leaves on its region (which aborts).
#[cold]
fn region_error(e: &DirectiveError) -> DirectiveError {
    DirectiveError::Invalid(vec![Diagnostic::error(format!("{e}"))])
}

/// The enclosing region's state an instance reads and updates.
struct InRegion<'r> {
    clauses: &'r ClauseSet,
    programs: &'r RegionPrograms,
    scratch: &'r mut [i64],
    max_iter: Option<i64>,
    sites: &'r mut Vec<SiteRecord>,
    /// Buffer-dependence tracking: the address ranges touched by pending
    /// directives, and the split-sync counter.
    used_bufs: &'r mut Vec<Access>,
    split_syncs: &'r mut usize,
}

/// The p2p's own assertion of a clause when it makes one, else the
/// enclosing region's. Resolved by reference: this runs for every rank on
/// every loop iteration.
fn inherited<'c, T>(
    own: Option<&'c ClauseSet>,
    outer: Option<&'c ClauseSet>,
    field: impl Fn(&'c ClauseSet) -> Option<&'c T>,
) -> Option<&'c T> {
    own.and_then(&field).or_else(|| outer.and_then(&field))
}

/// Evaluate a condition clause: the p2p's own assertion by the tree walk
/// (the reference semantics), else the region's compiled program. Forced
/// inline: three of these run on every instance of every rank, and as
/// calls each returned its `Result` through memory (≈4 ns per instance).
#[inline(always)]
fn eval_cond(
    own: Option<&CondExpr>,
    compiled: Option<&CompiledCond>,
    env: &EvalEnv,
    scratch: &mut [i64],
) -> Result<Option<bool>, ExprError> {
    match (own, compiled) {
        (Some(c), _) => c.eval(env).map(Some),
        (None, Some(p)) => p.eval(env, scratch).map(Some),
        (None, None) => Ok(None),
    }
}

/// Evaluate an integer clause like [`eval_cond`].
#[inline(always)]
fn eval_int(
    own: Option<&RankExpr>,
    compiled: Option<&CompiledExpr>,
    env: &EvalEnv,
    scratch: &mut [i64],
) -> Result<Option<i64>, ExprError> {
    match (own, compiled) {
        (Some(e), _) => e.eval(env).map(Some),
        (None, Some(p)) => p.eval(env, scratch).map(Some),
        (None, None) => Ok(None),
    }
}

/// Evaluate a `sender`/`receiver` clause and check it against the
/// communicator.
#[inline(always)]
fn peer_rank(
    own: Option<&RankExpr>,
    compiled: Option<&CompiledExpr>,
    clause: &'static str,
    env: &EvalEnv,
    scratch: &mut [i64],
) -> Result<usize, DirectiveError> {
    let value = eval_int(own, compiled, env, scratch)?.expect("validated");
    if value < 0 || value >= env.nranks {
        let size = env.nranks as usize;
        return Err(DirectiveError::RankOutOfRange {
            clause,
            value,
            size,
        });
    }
    Ok(value as usize)
}

/// Append the non-empty address ranges one buffer touches: its exact
/// constituent ranges where it has them (struct-of-arrays), else its
/// summary range. The summary hull spans whatever the allocator placed
/// between the member arrays, and a guard decision based on it would be
/// allocator-dependent.
fn push_touched(
    used: &mut Vec<Access>,
    sub: Option<&[(usize, usize)]>,
    addr: impl FnOnce() -> (usize, usize),
    kind: AccessKind,
) {
    let mut push = |(lo, hi): (usize, usize)| {
        if lo < hi {
            used.push(Access {
                span: ByteSpan::new(lo, hi),
                kind,
            });
        }
    };
    match sub {
        Some(rs) => rs.iter().copied().for_each(push),
        None => push(addr()),
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_p2p(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    region: Option<InRegion<'_>>,
    ir: Option<&mut Vec<P2pSpec>>,
    own: Option<&ClauseSet>,
    site: u32,
    sbufs: &BufList<SendSlot<'_>>,
    rbufs: &mut BufList<RecvSlot<'_>>,
    body: impl FnOnce(&mut RankCtx),
) -> Result<(), DirectiveError> {
    // Count this execution of the site (and enforce `max_comm_iter`). The
    // site's record also carries its overlay decision, resolved once.
    let in_region = region.is_some();
    let mut first_execution_of_site = true;
    let (outer, programs, scratch, max_iter, used_bufs, decision) = match region {
        Some(r) => {
            let rec = match r.sites.iter_mut().position(|s| s.site == site) {
                Some(i) => {
                    first_execution_of_site = false;
                    &mut r.sites[i]
                }
                None => {
                    r.sites.push(SiteRecord {
                        site,
                        executions: 0,
                        decision: overlay_decision(session, site),
                    });
                    r.sites.last_mut().expect("just pushed")
                }
            };
            rec.executions += 1;
            if let Some(bound) = r.max_iter {
                if rec.executions as i64 > bound {
                    return Err(DirectiveError::MaxIterExceeded { site, bound });
                }
            }
            let decision = rec.decision;
            (
                Some(r.clauses),
                Some(r.programs),
                r.scratch,
                r.max_iter,
                Some((r.used_bufs, r.split_syncs)),
                decision,
            )
        }
        None => (
            None,
            None,
            &mut [][..],
            None,
            None,
            overlay_decision(session, site),
        ),
    };

    // -- validation ----------------------------------------------------------
    // Checked over name-free descriptors built on the fly; full diagnostics
    // (with buffer names) are materialized only when something is wrong.
    // The clause set and the buffer list shape at a site are call-site
    // constants (the builder chain is the same code every iteration), so
    // validation runs on the first execution only; later iterations of the
    // directive loop would merely re-confirm the first result.
    if first_execution_of_site {
        validate_and_record(own, outer, ir, site, sbufs, rbufs)?;
    }

    // -- participation ---------------------------------------------------------
    // Decided before any per-rank work. A rank that neither sends nor
    // receives does only what other ranks or the caller can observe (see
    // DESIGN.md, "Directive engine hot path"): the iteration count and
    // first-execution work above, the count check, the collective
    // obligations and the overlap body below. A clause the p2p does not
    // override runs as the region's compiled program.
    let env = session.env();
    let is_sender = eval_cond(
        own.and_then(|c| c.sendwhen.as_ref()),
        programs.and_then(|p| p.sendwhen.as_ref()),
        env,
        scratch,
    )?
    .unwrap_or(true);
    let is_receiver = eval_cond(
        own.and_then(|c| c.receivewhen.as_ref()),
        programs.and_then(|p| p.receivewhen.as_ref()),
        env,
        scratch,
    )?
    .unwrap_or(true);
    let participant = is_sender || is_receiver;
    // Evaluated on every rank, so a negative count fails everywhere; the
    // inferred count (smallest buffer) is computed only where it is used.
    let count_clause = match eval_int(
        own.and_then(|c| c.count.as_ref()),
        programs.and_then(|p| p.count.as_ref()),
        env,
        scratch,
    )? {
        Some(v) if v < 0 => {
            return Err(DirectiveError::RankOutOfRange {
                clause: "count",
                value: v,
                size: usize::MAX,
            });
        }
        v => v.map(|v| v as usize),
    };
    let mut target = inherited(own, outer, |c| c.target.as_ref())
        .copied()
        .unwrap_or_default();

    // -- overlay application -----------------------------------------------------
    // Profile-guided decisions resolve here, after the written clauses: the
    // source states intent, the overlay refines mechanism. Coalescing only
    // applies inside regions — a standalone p2p synchronizes immediately,
    // so batching it could never elide anything. MPI one-sided flushes
    // through a collective fence; batching puts under it would change
    // nothing, so there Coalesce degrades to Keep.
    let mut coalesce = None;
    match decision {
        Some(Decision::Retarget(t)) => target = t,
        Some(Decision::Coalesce { batch })
            if batch >= 2 && in_region && target != Target::Mpi1Side =>
        {
            coalesce = Some(batch);
        }
        _ => {}
    }

    // A `sender`/`receiver` that fails to evaluate or falls outside the
    // communicator is reported only after `join_collectives`: the rank still
    // owes the site's staging rendezvous, and leaving it would stall every
    // other rank of the communicator.
    let ends = (|| {
        let receiver = (
            own.and_then(|c| c.receiver.as_ref()),
            programs.and_then(|p| p.receiver.as_ref()),
        );
        let sender = (
            own.and_then(|c| c.sender.as_ref()),
            programs.and_then(|p| p.sender.as_ref()),
        );
        let dest = is_sender.then(|| peer_rank(receiver.0, receiver.1, "receiver", env, scratch));
        let src = is_receiver.then(|| peer_rank(sender.0, sender.1, "sender", env, scratch));
        Ok((dest.transpose()?, src.transpose()?))
    })();
    if participant && ends.is_ok() {
        // -- buffer-independence guard -------------------------------------------
        // Consolidation is legal only across independent buffers (paper
        // §III-A). A directive that writes memory an unsynced directive
        // touched (or reads memory one wrote) forces the generated code to
        // synchronize first; the engine models exactly that split. This
        // instance's ranges are appended after the pending ones, then
        // checked against them.
        if let Some((used, splits)) = used_bufs {
            let prior = used.len();
            if is_sender {
                for b in sbufs.iter() {
                    push_touched(used, b.sub_ranges(), || b.desc().addr, AccessKind::Read);
                }
            }
            if is_receiver {
                for b in rbufs.iter() {
                    push_touched(used, b.sub_ranges(), || b.desc().addr, AccessKind::Write);
                }
            }
            let (pending_ranges, current) = used.split_at(prior);
            let conflict = current
                .iter()
                .any(|a| pending_ranges.iter().any(|u| a.conflicts(u)));
            if conflict {
                let mut p = std::mem::take(pending);
                // A forced split is a flush point: in-flight coalesced batches
                // belong to the synchronization that the dependence demands.
                flush_batches(session, &mut p, None);
                session.apply_sync(p);
                used.drain(..prior);
                *splits += 1;
            }
        }
    }

    // Attribute every runtime operation issued below (including by the
    // overlap body) to this directive's call site, so fabric-level trace
    // events and metrics join back to the `comm_p2p` clause that caused
    // them. The previous attribution is restored even on error.
    let prev_site = session.ctx.set_site(Some(site));
    join_collectives(
        session,
        pending,
        site,
        target,
        coalesce,
        sbufs,
        rbufs,
        count_clause,
        max_iter,
    );

    // -- dispatch ---------------------------------------------------------------
    let dispatched = match ends {
        Ok((dest, src)) if participant => {
            let count = count_clause.unwrap_or_else(|| p2p_specless_inferred_count(sbufs, rbufs));
            transfer(
                session, pending, site, target, coalesce, sbufs, rbufs, count, dest, src,
            )
        }
        ends => ends.map(|_| ()),
    };

    // -- overlapped computation --------------------------------------------------
    if dispatched.is_ok() {
        body(session.ctx);
    }
    session.ctx.set_site(prev_site);
    dispatched
}

/// First execution of a site in a region: validate the clauses and the
/// buffer list (allocating only to report a failure), and record the
/// site's IR into `ir` when the session records IR. Cold and out of line
/// (see `execute_standalone`).
#[cold]
#[inline(never)]
fn validate_and_record(
    own: Option<&ClauseSet>,
    outer: Option<&ClauseSet>,
    ir: Option<&mut Vec<P2pSpec>>,
    site: u32,
    sbufs: &BufList<SendSlot<'_>>,
    rbufs: &BufList<RecvSlot<'_>>,
) -> Result<(), DirectiveError> {
    let no_overrides = ClauseSet::default();
    let clauses = own.unwrap_or(&no_overrides);
    let clause_diags = clauses.validate(DirectiveKind::CommP2p, outer);
    let bufs_ok = !sbufs.is_empty()
        && !rbufs.is_empty()
        && sbufs.len() == rbufs.len()
        && sbufs
            .iter()
            .zip(rbufs.iter())
            .all(|(s, r)| s.desc().elem.compatible(&r.desc().elem));
    if ClauseSet::has_errors(&clause_diags) || !bufs_ok {
        let sb_meta: Vec<BufMeta> = sbufs.iter().map(|b| b.meta()).collect();
        let rb_meta: Vec<BufMeta> = rbufs.iter().map(|b| b.meta()).collect();
        return Err(DirectiveError::Invalid(
            crate::dir::validate_p2p_call(clauses, outer, &sb_meta, &rb_meta)
                .into_iter()
                .filter(|d| d.severity == crate::clause::Severity::Error)
                .collect(),
        ));
    }
    // Record the region IR from this first instance.
    if let Some(ir) = ir {
        ir.push(P2pSpec {
            clauses: clauses.clone(),
            sbuf: sbufs.iter().map(|b| b.meta()).collect(),
            rbuf: rbufs.iter().map(|b| b.meta()).collect(),
            has_overlap_body: true, // unknown statically; body may be empty
            site,
            spans: Default::default(),
        });
    }
    Ok(())
}

/// The collective side of a directive instance, owed by every rank of the
/// communicator whether or not it moves data: the fence flag of the
/// resolved one-sided target (the region-end MPI-1 fence is a barrier over
/// the communicator; the SHMEM quiet is charged on every rank whose region
/// used SHMEM), and the site's symmetric staging allocation the first time
/// the session executes the site (a rendezvous of the whole communicator).
/// Skipping either on a non-participant would stall the participants or
/// change its own virtual time.
#[allow(clippy::too_many_arguments)]
fn join_collectives(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    site: u32,
    target: Target,
    coalesce: Option<usize>,
    sbufs: &BufList<SendSlot<'_>>,
    rbufs: &BufList<RecvSlot<'_>>,
    count: Option<usize>,
    max_iter: Option<i64>,
) {
    let model = match target {
        Target::Mpi2Side => return,
        Target::Mpi1Side => {
            pending.used_mpi1 = true;
            &session.ctx.machine().mpi
        }
        Target::Shmem => {
            pending.used_shmem = true;
            &session.ctx.machine().shmem
        }
    };
    let coalesced = coalesce.is_some();
    if session.staging_index(site, coalesced).is_some() {
        return;
    }
    let model = *model;
    // Sized by the SPMD-uniform count, NOT the local buffer length:
    // non-participating ranks may pass empty placeholder buffers, but the
    // collective symmetric allocation must agree everywhere.
    let count = count.unwrap_or_else(|| p2p_specless_inferred_count(sbufs, rbufs));
    let (piece_offsets, slot_bytes) = match coalesce {
        // One slot holds one packed flush; `max_comm_iter` bounds flushes
        // per region, so slots never wrap within a region.
        Some(batch) => {
            let per_instance: usize = sbufs
                .iter()
                .map(|b| 4 + count * b.desc().elem.packed_size())
                .sum();
            (vec![0], (4 + batch * per_instance).max(8))
        }
        None => {
            let mut offsets = Vec::with_capacity(sbufs.len());
            let mut off = 0usize;
            for b in sbufs.iter() {
                offsets.push(off);
                off += count * b.desc().elem.packed_size();
            }
            (offsets, off.max(1))
        }
    };
    let slots = max_iter.map(|m| m.max(1) as usize).unwrap_or(1);
    // Windowed staging: a sender physically blocks (no virtual charge)
    // rather than overwrite a slot the receiver has not drained —
    // `max_comm_iter` sizes the in-flight window, as the paper intends
    // ("facilitate code generation for synchronizations").
    let window = (slots * piece_offsets.len()) as u64;
    let seg =
        session
            .ctx
            .sym_alloc_windowed(session.comm.group(), slot_bytes * slots, window, &model);
    session.staging.push(Staging {
        site,
        coalesced,
        seg,
        piece_offsets,
        slot_bytes,
        slots,
        send_counts: HashMap::new(),
        recv_count: 0,
    });
}

fn p2p_specless_inferred_count(sb: &BufList<SendSlot<'_>>, rb: &BufList<RecvSlot<'_>>) -> usize {
    sb.iter()
        .map(|b| b.desc().len)
        .chain(rb.iter().map(|b| b.desc().len))
        .min()
        .unwrap_or(0)
}

/// How one instance's buffers travel.
#[derive(Clone, Copy)]
enum Transport {
    /// MPI two-sided: one message per buffer on `DIR_TAG_BASE + site`.
    Message,
    /// MPI one-sided or SHMEM: one signalled put per buffer into a slot of
    /// the site's staging, `CommSession::staging[st]`.
    Staged { st: usize },
    /// Coalescing: one length-framed piece per buffer in the (site, peer)
    /// batch, which [`flush_batches`] sends `batch` instances at a time.
    Batch { batch: usize },
}

/// One instance's transfer: its site, resolved target and transport, and
/// the SPMD-uniform element count its lowering is chosen for.
#[derive(Clone, Copy)]
struct Route {
    site: u32,
    target: Target,
    transport: Transport,
    count: usize,
}

/// The end of a transfer a marshalling charge is for.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Send,
    Recv,
}

/// The marshalling charge table (DESIGN §9): what moving `bytes` of `elem`
/// costs this rank on `side`, keyed by the [`Lowering`] and the target. A
/// per-instance transfer takes the site's lowering from the layout engine,
/// on SPMD-uniform inputs, so both ends agree without negotiation. A
/// batched piece frames a primitive as it is and sends a composite through
/// the target's gather: a datatype on MPI, a pack loop on SHMEM, whose
/// bytes the flush's one pack of the batch counts.
fn charge_marshalling(
    session: &mut CommSession<'_>,
    route: Route,
    side: Side,
    elem: &ElemKind,
    bytes: usize,
) {
    let target = route.target;
    let two_sided = target == Target::Mpi2Side;
    // A one-sided receiver's staging drain is its unpack under every
    // lowering ([`take_staged`]).
    if side == Side::Recv && !two_sided {
        return;
    }
    let model = model_for(target, session.ctx.machine());
    let batched = matches!(route.transport, Transport::Batch { .. });
    let lowering = match (batched, elem, target) {
        (false, ..) => session.lowering.resolve(elem, route.count, target, &model),
        (true, ElemKind::Prim(_), _) => Lowering::Direct,
        (true, _, Target::Shmem) => Lowering::Pack,
        (true, ..) => Lowering::Datatype,
    };
    let ctx = &mut *session.ctx;
    match (side, lowering) {
        // The transfer engine reads or writes the user buffer in place.
        (_, Lowering::Direct) => {}
        // A split's extra messages or puts pay their software overheads.
        (Side::Send, Lowering::Split { n }) => {
            let per = if two_sided { model.o_send } else { model.o_put };
            ctx.charge(Time::from_nanos(n.saturating_sub(1) as u64 * per));
        }
        (Side::Recv, Lowering::Split { n }) => ctx.charge(Time::from_nanos(
            n.saturating_sub(1) as u64 * (model.o_recv + model.o_req_poll),
        )),
        // A one-time commit per layout, then the library walks it.
        (_, Lowering::Datatype) => {
            session
                .dtype_cache
                .ensure_committed(ctx, &elem.datatype(), &model);
            ctx.charge(model.byte_cost(model.datatype_per_byte, bytes));
        }
        (Side::Send, Lowering::Pack) if batched => {
            ctx.charge(model.byte_cost(model.pack_per_byte, bytes))
        }
        // Listing-4 shape: an explicit pack (or unpack) copy of every byte.
        (_, Lowering::Pack) => ctx.charge_pack(bytes, &model),
    }
    // A two-sided batch piece is unpacked out of the packed wire buffer.
    if batched && side == Side::Recv && two_sided {
        ctx.charge_pack(bytes, &model);
    }
}

/// Move one instance's buffers over the transport of its target, or of its
/// coalescing decision: this rank's sends, then its receives. Completion
/// is deferred to the region sync.
#[allow(clippy::too_many_arguments)]
fn transfer(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    site: u32,
    target: Target,
    coalesce: Option<usize>,
    sbufs: &BufList<SendSlot<'_>>,
    rbufs: &mut BufList<RecvSlot<'_>>,
    count: usize,
    dest: Option<usize>,
    src: Option<usize>,
) -> Result<(), DirectiveError> {
    let transport = match (coalesce, target) {
        (Some(batch), _) => Transport::Batch { batch },
        (None, Target::Mpi2Side) => Transport::Message,
        (None, Target::Mpi1Side | Target::Shmem) => {
            // Joined before dispatch, and stays put while this instance runs.
            let st = session
                .staging_index(site, false)
                .expect("staging joined before dispatch");
            // The slot layout is fixed by the site's first execution. A
            // later call reusing the site id with another buffer list has
            // the same shape on every rank, so both ends refuse it rather
            // than miscount signals.
            let pieces = session.staging[st].signals_per_slot();
            if sbufs.len() != pieces {
                return Err(DirectiveError::Invalid(vec![Diagnostic::error(format!(
                    "comm_p2p site {site}: {} buffers, but its staging holds {pieces} per slot",
                    sbufs.len()
                ))]));
            }
            Transport::Staged { st }
        }
    };
    let route = Route {
        site,
        target,
        transport,
        count,
    };
    if let Some(dest) = dest {
        send_loop(session, pending, route, sbufs, dest)?;
    }
    if let Some(src) = src {
        recv_loop(session, pending, route, rbufs, src);
    }
    // The engine tracks put arrivals itself; drain the ctx list so a later
    // unrelated `quiet` doesn't double-count.
    session.ctx.take_outstanding_puts();
    Ok(())
}

/// The send loop: each buffer is fenced on its data horizon, gathered,
/// charged its marshalling and handed to the transport.
fn send_loop(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    route: Route,
    sbufs: &BufList<SendSlot<'_>>,
    dest: usize,
) -> Result<(), DirectiveError> {
    let (site, target, transport) = (route.site, route.target, route.transport);
    let slot = match transport {
        Transport::Staged { st } => Some(session.staging[st].send_slot(dest)),
        _ => None,
    };
    let (mut payload, mut need, mut framed) = (Vec::new(), 0, Vec::new());
    let mut horizon = Time::ZERO;
    for (i, sb) in sbufs.iter().enumerate() {
        let desc = sb.desc();
        let n = route.count.min(desc.len);
        // Causality under deferred sync: reading a buffer filled by an
        // unsynced receive fences the departure to the data's arrival (a
        // data dependency, not a wait call: no overhead charged). A batch
        // departs at its flush, carrying its newest piece's fence.
        if let Some(h) = session.buf_data_horizon(sb.sub_ranges(), desc.addr) {
            match transport {
                Transport::Batch { .. } => horizon = horizon.max(h),
                _ => session.ctx.advance_to(h),
            }
        }
        payload.reserve(n * desc.elem.packed_size());
        sb.gather(n, &mut payload);
        charge_marshalling(session, route, Side::Send, &desc.elem, payload.len());
        match transport {
            Transport::Message => {
                let tag = DIR_TAG_BASE + site as i32;
                let bytes = bytes::Bytes::from(std::mem::take(&mut payload));
                let req = session.comm.isend_bytes(session.ctx, dest, tag, bytes);
                pending.send_reqs.push(req);
            }
            Transport::Staged { st } => {
                let slot = slot.expect("a staged transfer takes its slot first");
                let have = session.staging[st].slot_bytes;
                need += payload.len();
                if need > have {
                    return Err(DirectiveError::StagingOverflow { site, need, have });
                }
                let (offset, _) = session.staging[st].piece(slot, i);
                put_piece(session, pending, target, slot.seg, offset, dest, &payload);
            }
            Transport::Batch { .. } => mpisim::pack::frame_piece(&mut framed, &payload),
        }
        payload.clear();
    }
    let Transport::Batch { batch } = transport else {
        return Ok(());
    };
    // Append the framed pieces to the (site, dest) batch, which must fit
    // the staging slot where the target has one.
    let capacity = session
        .staging_index(site, true)
        .map(|i| session.staging[i].slot_bytes);
    let ov = session
        .overlay
        .as_deref_mut()
        .expect("coalescing implies an installed overlay");
    let acc = match ov.out.iter().position(|a| a.site == site && a.dest == dest) {
        Some(i) => &mut ov.out[i],
        None => {
            ov.out.push(CoalesceOut {
                site,
                dest,
                target,
                ..Default::default()
            });
            ov.out.last_mut().expect("just pushed")
        }
    };
    let need = 4 + acc.buf.len() + framed.len();
    if let Some(have) = capacity.filter(|&have| need > have) {
        return Err(DirectiveError::StagingOverflow { site, need, have });
    }
    acc.buf.append(&mut framed);
    acc.horizon = acc.horizon.max(horizon);
    acc.instances += 1;
    if acc.instances >= batch {
        flush_batches(session, pending, Some((site, dest)));
    }
    Ok(())
}

/// The receive loop: each buffer's bytes are taken from the transport,
/// charged their unmarshalling and scattered, and their arrival becomes the
/// buffer's data horizon.
fn recv_loop(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    route: Route,
    rbufs: &mut BufList<RecvSlot<'_>>,
    src: usize,
) {
    let (site, target, transport) = (route.site, route.target, route.transport);
    let slot = match transport {
        Transport::Staged { st } => Some(session.staging[st].recv_slot()),
        _ => None,
    };
    // A staged or batched piece is copied out into `taken`; a message is
    // scattered from its own bytes.
    let mut taken = Vec::new();
    for (i, rb) in rbufs.iter_mut().enumerate() {
        let desc = rb.desc();
        let n = route.count.min(desc.len);
        let (message, arrival) = match transport {
            Transport::Message => {
                let tag = DIR_TAG_BASE + site as i32;
                let req = session.comm.irecv(session.ctx, Some(src), Some(tag));
                // Physically complete now; the virtual wait cost is deferred
                // to the region sync point.
                let done = req.wait_raw();
                let completion = done.completion;
                (Some((req, done)), completion)
            }
            Transport::Staged { st } => {
                let slot = slot.expect("a staged transfer takes its slot first");
                let piece = session.staging[st].piece(slot, i);
                let len = Some(n * desc.elem.packed_size());
                let t = take_staged(session, pending, target, slot.seg, piece, len, &mut taken);
                (None, t)
            }
            Transport::Batch { .. } => (None, next_piece(session, pending, route, src, &mut taken)),
        };
        let bytes = message
            .as_ref()
            .map_or(&taken[..], |(_, done)| &done.payload[..]);
        charge_marshalling(session, route, Side::Recv, &desc.elem, bytes.len());
        rb.scatter(n, bytes);
        if let Some((req, done)) = message {
            // The trace still carries a site-attributed RecvDone; the
            // virtual charge lands in the consolidated region sync.
            session.ctx.note_recv_completion(&req, &done);
            pending.recv_completions.push(done.completion);
        }
        session.push_recv_horizon(rb.sub_ranges(), rb.desc().addr, arrival);
    }
}

/// The staged-put step: put `bytes` at `offset` of `dest`'s copy of
/// staging segment `seg`, signalled, and fold in its arrival.
fn put_piece(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    target: Target,
    seg: SegId,
    offset: usize,
    dest: usize,
    bytes: &[u8],
) {
    let model = model_for(target, session.ctx.machine());
    let dest = session.comm.global(dest);
    let arrival = session.ctx.put(seg, dest, offset, bytes, &model, true);
    pending.note_arrival(target, arrival);
}

/// The staged-take step: wait (physically) for the `(offset, signals)`
/// piece of segment `seg`, copy it into `out` at memcpy rate and free the
/// slot for flow-controlled senders. `len` of `None` reads a batch flush's
/// `u32` length header first. Returns the piece's arrival.
fn take_staged(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    target: Target,
    seg: SegId,
    (offset, signals): (usize, usize),
    len: Option<usize>,
    out: &mut Vec<u8>,
) -> Time {
    let model = model_for(target, session.ctx.machine());
    let arrival = session.ctx.wait_signals_raw(seg, signals);
    let (offset, len) = match len {
        Some(len) => (offset, len),
        None => {
            let mut hdr = [0u8; 4];
            session.ctx.read_local(seg, offset, &mut hdr);
            (offset + 4, u32::from_le_bytes(hdr) as usize)
        }
    };
    out.clear();
    out.resize(len, 0);
    session.ctx.read_local(seg, offset, out);
    session.ctx.charge_memcpy(len, &model);
    session.ctx.mark_consumed(seg, 1);
    pending.note_arrival(target, arrival);
    arrival
}

/// Copy the next piece of `src`'s batches at the route's site into `out`,
/// receiving the next batch once the buffered one is used up; returns the
/// arrival of the batch that carried it.
fn next_piece(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    route: Route,
    src: usize,
    out: &mut Vec<u8>,
) -> Time {
    let (site, target) = (route.site, route.target);
    loop {
        let ov = session.overlay.as_deref_mut().expect("overlay installed");
        if let Some(e) = ov.inbox.iter_mut().find(|e| e.site == site && e.src == src) {
            if let Some(piece) = mpisim::pack::peel_piece(&e.payload, &mut e.pos) {
                out.clear();
                out.extend_from_slice(piece);
                return e.completion;
            }
        }
        // About to physically block for the next batch: flush our own
        // batches first, so a rank never waits on a peer while holding
        // pieces that peer (or a cycle through it) needs.
        flush_batches(session, pending, None);
        let (payload, completion) = match target {
            Target::Mpi2Side => {
                let tag = COAL_TAG_BASE + site as i32;
                let req = session.comm.irecv(session.ctx, Some(src), Some(tag));
                let done = req.wait_raw();
                session.ctx.note_recv_completion(&req, &done);
                // One deferred completion per batch: the receiver's share
                // of the Waitall shrinks with the batch factor.
                pending.recv_completions.push(done.completion);
                (done.payload, done.completion)
            }
            Target::Mpi1Side | Target::Shmem => {
                let st = session
                    .staging_index(site, true)
                    .expect("staging joined before dispatch");
                let slot = session.staging[st].recv_slot();
                let piece = session.staging[st].piece(slot, 0);
                let t = take_staged(session, pending, target, slot.seg, piece, None, out);
                (bytes::Bytes::from(std::mem::take(out)), t)
            }
        };
        let ov = session.overlay.as_deref_mut().expect("overlay installed");
        ov.inbox.retain(|e| e.site != site || e.src != src);
        ov.inbox.push(CoalesceIn {
            site,
            src,
            payload,
            pos: 0,
            completion,
        });
    }
}

/// Send the coalesced batches into `pending`. `which` of `None` flushes
/// everything — the region-end rule, a dependence-forced sync, or a
/// receiver about to physically block (so a rank can never wait on a peer
/// whose pieces it is itself still holding); `Some((site, dest))` flushes
/// one full batch. Every flush point is a pure function of the per-rank
/// instance schedule, never of engine interleaving, which is what keeps
/// coalesced runs bit-identical across execution engines. A batch departs
/// no earlier than its newest piece's data, pays one pack of the whole
/// batch, and travels as one message on `COAL_TAG_BASE + site` or as one
/// length-prefixed staged put into the site's coalesced staging.
fn flush_batches(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    which: Option<(u32, usize)>,
) {
    let Some(ov) = session.overlay.as_deref_mut() else {
        return;
    };
    let mut work = Vec::new();
    for a in ov.out.iter_mut() {
        if !a.buf.is_empty() && which.is_none_or(|w| w == (a.site, a.dest)) {
            a.instances = 0;
            let batch = (std::mem::take(&mut a.buf), std::mem::take(&mut a.horizon));
            work.push((a.site, a.dest, a.target, batch));
        }
    }
    for (site, dest, target, (payload, horizon)) in work {
        session.ctx.advance_to(horizon);
        match target {
            Target::Mpi2Side => {
                let tag = COAL_TAG_BASE + site as i32;
                let bytes = bytes::Bytes::from(payload);
                let req = session.comm.isend_packed(session.ctx, dest, tag, bytes);
                pending.send_reqs.push(req);
            }
            Target::Mpi1Side | Target::Shmem => {
                let st = session
                    .staging_index(site, true)
                    .expect("staging created at first coalesced execution");
                let slot = session.staging[st].send_slot(dest);
                let (offset, _) = session.staging[st].piece(slot, 0);
                let mut wire = Vec::with_capacity(4 + payload.len());
                wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                wire.extend_from_slice(&payload);
                let model = model_for(target, session.ctx.machine());
                session.ctx.charge_pack(wire.len(), &model);
                put_piece(session, pending, target, slot.seg, offset, dest, &wire);
            }
        }
    }
    session.ctx.take_outstanding_puts();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Prim, PrimMut};
    use crate::overlay::SiteDecision;
    use netsim::{run, ExecPolicy, SimConfig};

    fn ring_params(n: usize) -> CommParams {
        let _ = n;
        CommParams::new()
            .sender((RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks())
            .receiver((RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks())
    }

    fn run_ring(target: Target, n: usize) -> Vec<i64> {
        let res = run(SimConfig::new(n), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let me = session.rank() as i64;
            let src = [me; 4];
            let mut dst = [0i64; 4];
            let params = ring_params(n).target(target);
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            dst[0]
        });
        res.per_rank
    }

    #[test]
    fn ring_all_targets_deliver() {
        for target in Target::ALL {
            let n = 6;
            let got = run_ring(target, n);
            for (r, &v) in got.iter().enumerate() {
                assert_eq!(
                    v as usize,
                    (r + n - 1) % n,
                    "target {target}: rank {r} got {v}"
                );
            }
        }
    }

    #[test]
    fn count_inference_uses_smallest_buffer() {
        run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let src = [7.0f64; 10];
            let mut dst = [0.0f64; 3]; // smallest => count 3
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)));
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            if session.rank() == 1 {
                assert_eq!(dst, [7.0; 3]);
            }
        });
    }

    #[test]
    fn even_odd_grouping() {
        // Listing 2: even ranks send to rank+1; odd ranks receive.
        let n = 8;
        let res = run(SimConfig::new(n), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let me = session.rank() as i64;
            let src = [me * 100];
            let mut dst = [-1i64];
            let params = CommParams::new()
                .sender(RankExpr::rank() - RankExpr::lit(1))
                .receiver(RankExpr::rank() + RankExpr::lit(1))
                .sendwhen((RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(0)))
                .receivewhen((RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(1)));
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            dst[0]
        });
        for (r, &v) in res.per_rank.iter().enumerate() {
            if r % 2 == 1 {
                assert_eq!(v, (r as i64 - 1) * 100);
            } else {
                assert_eq!(v, -1);
            }
        }
    }

    #[test]
    fn consolidated_sync_beats_per_message_wait() {
        // Three adjacent p2ps with independent buffers must produce exactly
        // one consolidated waitall charge on each participating rank.
        let res = run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let a = [1.0f64; 8];
            let b = [2.0f64; 8];
            let c = [3.0f64; 8];
            let (mut ra, mut rb, mut rc) = ([0.0f64; 8], [0.0f64; 8], [0.0f64; 8]);
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)));
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .site(1)
                        .sbuf(Prim::new("a", &a))
                        .rbuf(PrimMut::new("ra", &mut ra))
                        .run()
                        .unwrap();
                    reg.p2p()
                        .site(2)
                        .sbuf(Prim::new("b", &b))
                        .rbuf(PrimMut::new("rb", &mut rb))
                        .run()
                        .unwrap();
                    reg.p2p()
                        .site(3)
                        .sbuf(Prim::new("c", &c))
                        .rbuf(PrimMut::new("rc", &mut rc))
                        .run()
                        .unwrap();
                })
                .unwrap();
            if session.rank() == 1 {
                assert_eq!(ra, [1.0; 8]);
                assert_eq!(rb, [2.0; 8]);
                assert_eq!(rc, [3.0; 8]);
            }
            ctx.stats.waitalls
        });
        assert_eq!(res.per_rank, vec![1, 1], "one consolidated sync per rank");
    }

    #[test]
    fn reopened_regions_keep_their_own_programs() {
        // Two clause sets alternate in one session: each reopening must
        // run its own compiled programs, never the other set's.
        let one_way = |from: i64| {
            CommParams::new()
                .sender(RankExpr::lit(from))
                .receiver(RankExpr::var("to"))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(from)))
                .receivewhen(RankExpr::rank().eq(RankExpr::var("to")))
        };
        let res = run(SimConfig::new(2), move |ctx| {
            let comm = Comm::world(ctx);
            let mut s = CommSession::new(ctx, comm).without_ir();
            let me = s.rank() as i64;
            let mut got = Vec::new();
            for round in 0..3i64 {
                for (from, to) in [(0, 1), (1, 0)] {
                    s.set_var("to", to);
                    let src = [10 * round + me];
                    let mut dst = [-1i64];
                    s.region(&one_way(from), |reg| {
                        reg.p2p()
                            .site(1)
                            .sbuf(Prim::new("src", &src))
                            .rbuf(PrimMut::new("dst", &mut dst))
                            .run()
                            .unwrap();
                    })
                    .unwrap();
                    got.push(dst[0]);
                }
            }
            s.flush();
            (got, s.compiled.len())
        });
        assert_eq!(res.per_rank[0], (vec![-1, 1, -1, 11, -1, 21], 2));
        assert_eq!(res.per_rank[1], (vec![0, -1, 10, -1, 20, -1], 2));
    }

    #[test]
    fn region_rejects_unpaired_when_clauses() {
        run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let params = ring_params(2).sendwhen(CondExpr::True);
            let mut ran = false;
            let err = session.region(&params, |_| ran = true).unwrap_err();
            assert!(!ran, "the body of a rejected region must not run");
            let DirectiveError::Invalid(diags) = err else {
                panic!("expected a validation error, got {err}");
            };
            assert_eq!(
                diags,
                vec![Diagnostic::error(
                    "comm_parameters: `sendwhen` and `receivewhen` must both be present or \
                     both be omitted"
                )]
            );
        });
    }

    #[test]
    fn max_comm_iter_enforced() {
        run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let src = [1i32];
            let mut dst = [0i32];
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                .max_comm_iter(2);
            let err = session.region(&params, |reg| {
                for i in 0..3 {
                    let r = reg
                        .p2p()
                        .site(9)
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run();
                    if i < 2 {
                        assert!(r.is_ok(), "iteration {i} should pass");
                    } else {
                        assert!(matches!(
                            r,
                            Err(DirectiveError::MaxIterExceeded { bound: 2, .. })
                        ));
                    }
                }
            });
            assert!(err.is_err(), "region must surface the iteration overflow");
        });
    }

    #[test]
    fn deferred_sync_to_next_region() {
        let res = run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let src = [5i64; 4];
            let mut dst = [0i64; 4];
            let params1 = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                .place_sync(PlaceSync::BeginNextParamRegion);
            session
                .region(&params1, |reg| {
                    reg.p2p()
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            let w1 = session.ctx().stats.waitalls;
            // Second region: carried sync applies at its beginning.
            let params2 = CommParams::new()
                .sender(RankExpr::lit(1))
                .receiver(RankExpr::lit(0));
            let src2 = [1i64];
            let mut dst2 = [0i64];
            session
                .region(&params2, |reg| {
                    reg.p2p()
                        .site(2)
                        .sendwhen(RankExpr::rank().eq(RankExpr::lit(1)))
                        .receivewhen(RankExpr::rank().eq(RankExpr::lit(0)))
                        .sbuf(Prim::new("src2", &src2))
                        .rbuf(PrimMut::new("dst2", &mut dst2))
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            (w1, ctx.stats.waitalls)
        });
        // No sync inside/after region 1; both syncs complete by the end.
        for (w1, w2) in res.per_rank {
            assert_eq!(w1, 0, "region 1 sync was deferred");
            assert!(w2 >= 1);
        }
    }

    #[test]
    fn standalone_p2p_syncs_immediately() {
        let res = run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let me = session.rank() as i64;
            let src = [me + 10];
            let mut dst = [0i64];
            session
                .p2p()
                .sender(
                    (RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks(),
                )
                .receiver((RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks())
                .sbuf(Prim::new("src", &src))
                .rbuf(PrimMut::new("dst", &mut dst))
                .run()
                .unwrap();
            (dst[0], ctx.stats.waitalls)
        });
        assert_eq!(res.per_rank[0].0, 11); // rank 0 got rank 1's value
        assert_eq!(res.per_rank[1].0, 10);
        assert!(res.per_rank.iter().all(|&(_, w)| w == 1));
    }

    #[test]
    fn invalid_clauses_rejected_at_execution() {
        run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let src = [0u8; 4];
            let mut dst = [0u8; 4];
            // Missing receiver clause.
            let r = session
                .p2p()
                .sender(RankExpr::lit(0))
                .sbuf(Prim::new("s", &src))
                .rbuf(PrimMut::new("r", &mut dst))
                .run();
            assert!(matches!(r, Err(DirectiveError::Invalid(_))));
        });
    }

    #[test]
    fn rank_out_of_range_detected() {
        run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let src = [0u8; 4];
            let mut dst = [0u8; 4];
            let r = session
                .p2p()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(7)) // no rank 7 of 2
                .sbuf(Prim::new("s", &src))
                .rbuf(PrimMut::new("r", &mut dst))
                .run();
            assert!(matches!(
                r,
                Err(DirectiveError::RankOutOfRange {
                    clause: "receiver",
                    value: 7,
                    ..
                })
            ));
        });
    }

    #[test]
    fn overlap_advances_clock_concurrently() {
        // The overlapped computation must not delay the recorded message
        // completion: total time ≈ max(comm, compute) + sync, not sum.
        let compute = Time::from_micros(300);
        let run_one = |with_overlap: bool| {
            let res = run(SimConfig::new(2), move |ctx| {
                let comm = Comm::world(ctx);
                let mut session = CommSession::new(ctx, comm);
                let src = [1.0f64; 512];
                let mut dst = [0.0f64; 512];
                let params = CommParams::new()
                    .sender(RankExpr::lit(0))
                    .receiver(RankExpr::lit(1))
                    .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                    .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)));
                session
                    .region(&params, |reg| {
                        let call = reg
                            .p2p()
                            .sbuf(Prim::new("src", &src))
                            .rbuf(PrimMut::new("dst", &mut dst));
                        if with_overlap {
                            call.overlap(|ctx| ctx.compute(compute)).unwrap();
                        } else {
                            call.run().unwrap();
                        }
                    })
                    .unwrap();
                if !with_overlap {
                    // Sequential version: compute after the region sync.
                    ctx.compute(compute);
                }
                ctx.now()
            });
            res.final_times[1]
        };
        let overlapped = run_one(true);
        let sequential = run_one(false);
        assert!(
            overlapped < sequential,
            "overlap ({overlapped}) must beat sequential ({sequential})"
        );
    }

    #[test]
    fn shmem_loop_reuses_staging_with_max_iter_slots() {
        // A loop of puts within one region: distinct slots prevent
        // overwrite before the receiver drains them.
        let iters = 4usize;
        let res = run(SimConfig::new(2), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let mut got = Vec::new();
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                .target(Target::Shmem)
                .max_comm_iter(iters as i64);
            session
                .region(&params, |reg| {
                    for i in 0..iters {
                        let src = [i as i64; 2];
                        let mut dst = [0i64; 2];
                        reg.p2p()
                            .site(5)
                            .sbuf(Prim::new("src", &src))
                            .rbuf(PrimMut::new("dst", &mut dst))
                            .run()
                            .unwrap();
                        got.push(dst[0]);
                    }
                })
                .unwrap();
            session.flush();
            got
        });
        assert_eq!(res.per_rank[1], vec![0, 1, 2, 3]);
        assert!(res.per_rank[0].iter().all(|&v| v == 0));
    }

    /// Run an `iters`-deep pairwise loop (rank 0 → rank 1, `count` i64s per
    /// instance) under an optional overlay; returns (received values,
    /// sends, recvs, packed_bytes, final time of rank 1).
    fn run_pair_loop(
        target: Target,
        iters: usize,
        overlay: Option<Overlay>,
    ) -> (Vec<i64>, usize, usize, usize, Time) {
        let res = run(SimConfig::new(2), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            if let Some(ov) = overlay.clone() {
                session = session.with_overlay(ov);
            }
            let mut got = Vec::new();
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                .target(target)
                .max_comm_iter(iters as i64);
            session
                .region(&params, |reg| {
                    for i in 0..iters {
                        let src = [i as i64 * 3, i as i64 * 3 + 1];
                        let mut dst = [0i64; 2];
                        reg.p2p()
                            .site(9)
                            .sbuf(Prim::new("src", &src))
                            .rbuf(PrimMut::new("dst", &mut dst))
                            .run()
                            .unwrap();
                        got.extend_from_slice(&dst);
                    }
                })
                .unwrap();
            session.flush();
            (
                got,
                ctx.stats.sends,
                ctx.stats.recvs,
                ctx.stats.packed_bytes,
                ctx.now(),
            )
        });
        res.per_rank.into_iter().nth(1).unwrap()
    }

    fn coalesce_overlay(batch: usize) -> Overlay {
        let mut ov = Overlay::default();
        ov.set(SiteDecision::new(9, Decision::Coalesce { batch }));
        ov
    }

    #[test]
    fn coalesced_mpi2_delivers_and_batches() {
        let iters = 8;
        let (base_vals, _, base_recvs, base_packed, base_t) =
            run_pair_loop(Target::Mpi2Side, iters, None);
        let (vals, _, recvs, packed, t) =
            run_pair_loop(Target::Mpi2Side, iters, Some(coalesce_overlay(4)));
        assert_eq!(vals, base_vals, "coalescing must not change payloads");
        assert_eq!(base_recvs, iters);
        assert_eq!(recvs, iters / 4, "one packed receive per full batch");
        assert_eq!(base_packed, 0, "uncoalesced small sends never pack");
        assert!(packed > 0, "coalesced path must count packed bytes");
        assert!(
            t < base_t,
            "batching 4x must beat per-instance sends ({t} vs {base_t})"
        );
    }

    #[test]
    fn coalesced_partial_batch_flushes_at_region_end() {
        // 5 instances at batch 4: one full flush mid-region, the 5th
        // piece rides the deterministic region-end flush.
        let (base_vals, ..) = run_pair_loop(Target::Mpi2Side, 5, None);
        let (vals, _, recvs, _, _) = run_pair_loop(Target::Mpi2Side, 5, Some(coalesce_overlay(4)));
        assert_eq!(vals, base_vals);
        assert_eq!(recvs, 2, "full batch + region-end remainder");
    }

    #[test]
    fn coalesced_shmem_delivers_and_batches() {
        let iters = 8;
        let (base_vals, ..) = run_pair_loop(Target::Shmem, iters, None);
        let (vals, ..) = run_pair_loop(Target::Shmem, iters, Some(coalesce_overlay(4)));
        assert_eq!(vals, base_vals, "shmem coalescing must not change payloads");
        let res = run(SimConfig::new(2), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).with_overlay(coalesce_overlay(4));
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                .target(Target::Shmem)
                .max_comm_iter(iters as i64);
            session
                .region(&params, |reg| {
                    for i in 0..iters {
                        let src = [i as i64, i as i64];
                        let mut dst = [0i64; 2];
                        reg.p2p()
                            .site(9)
                            .sbuf(Prim::new("src", &src))
                            .rbuf(PrimMut::new("dst", &mut dst))
                            .run()
                            .unwrap();
                    }
                })
                .unwrap();
            session.flush();
            ctx.stats.puts
        });
        assert_eq!(res.per_rank[0], 2, "one signalled put per full batch");
    }

    #[test]
    fn out_of_range_sender_still_joins_the_staging_rendezvous() {
        // Rank 0 sends to rank 1. Rank 3 also receives, from `2*rank - 2`,
        // which is nranks for it: it must still join the site's staging
        // allocation, or every other rank waits for it there forever, and on
        // MPI one-sided the region-end fence, a communicator barrier.
        let cases = [
            (Target::Shmem, None),
            (Target::Shmem, Some(coalesce_overlay(2))),
            (Target::Mpi1Side, None),
        ];
        for (target, overlay) in cases {
            // One carrier per rank, one for all, and two.
            for exec in [4, 1, 2].map(ExecPolicy::bounded) {
                let overlay = &overlay;
                let res = run(SimConfig::new(4).with_exec(exec), move |ctx| {
                    let comm = Comm::world(ctx);
                    let mut session = CommSession::new(ctx, comm);
                    if let Some(ov) = &overlay {
                        session = session.with_overlay(ov.clone());
                    }
                    let is = |r: i64| RankExpr::rank().eq(RankExpr::lit(r));
                    let params = CommParams::new()
                        .sender(RankExpr::lit(2) * RankExpr::rank() - RankExpr::lit(2))
                        .receiver(RankExpr::rank() + RankExpr::lit(1))
                        .sendwhen(is(0))
                        .receivewhen(is(1).or(is(3)))
                        .target(target)
                        .place_sync(PlaceSync::EndParamRegion)
                        .max_comm_iter(2);
                    let mut runs = Vec::new();
                    // One receive buffer per instance: reusing one would
                    // split the region on the receiver (see DESIGN §12).
                    let mut dst = [[0i64]; 2];
                    let region = session.region(&params, |reg| {
                        for (i, dst) in (0..2i64).zip(&mut dst) {
                            let src = [10 + i];
                            runs.push(
                                reg.p2p()
                                    .site(9)
                                    .sbuf(Prim::new("src", &src))
                                    .rbuf(PrimMut::new("dst", dst))
                                    .run(),
                            );
                        }
                    });
                    session.flush();
                    (region.is_ok(), runs, dst.map(|d| d[0]).to_vec())
                });
                for (rank, (region_ok, runs, got)) in res.per_rank.into_iter().enumerate() {
                    if rank == 3 {
                        assert!(!region_ok);
                        for r in runs {
                            assert!(matches!(
                                r,
                                Err(DirectiveError::RankOutOfRange {
                                    clause: "sender",
                                    value: 4,
                                    size: 4
                                })
                            ));
                        }
                    } else {
                        assert!(region_ok, "rank {rank}");
                        assert!(runs.iter().all(Result::is_ok), "rank {rank}");
                        let want = if rank == 1 { vec![10, 11] } else { vec![0, 0] };
                        assert_eq!(got, want, "rank {rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn keep_overlay_is_behaviorally_inert() {
        let base = run_pair_loop(Target::Mpi2Side, 6, None);
        let mut ov = Overlay::default();
        ov.set(SiteDecision::new(9, Decision::Keep));
        ov.set(SiteDecision::new(12, Decision::Coalesce { batch: 1 }));
        let kept = run_pair_loop(Target::Mpi2Side, 6, Some(ov));
        assert_eq!(base, kept, "all-keep overlay must be bit-identical");
    }

    #[test]
    fn overlay_retarget_switches_mechanism() {
        let mut ov = Overlay::default();
        ov.set(SiteDecision::new(9, Decision::Retarget(Target::Shmem)));
        let res = run(SimConfig::new(2), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).with_overlay(ov.clone());
            let src = [41i64, 42];
            let mut dst = [0i64; 2];
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                .max_comm_iter(1);
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .site(9)
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            (dst, ctx.stats.sends, ctx.stats.puts)
        });
        let (dst1, sends1, _) = res.per_rank[1];
        let (_, _, puts0) = res.per_rank[0];
        assert_eq!(dst1, [41, 42]);
        assert_eq!(sends1, 0, "retargeted site must not use two-sided sends");
        assert_eq!(puts0, 1, "retargeted site delivers via a put");
    }

    #[test]
    fn overlay_place_sync_defers_region_sync() {
        let mut ov = Overlay::default();
        ov.set(SiteDecision::new(
            9,
            Decision::PlaceSync(PlaceSync::BeginNextParamRegion),
        ));
        let res = run(SimConfig::new(2), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).with_overlay(ov.clone());
            let src = [1i64; 2];
            let mut dst = [0i64; 2];
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)));
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .site(9)
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            let deferred = session.ctx().stats.waitalls;
            session.flush();
            (deferred, ctx.stats.waitalls)
        });
        for (w1, w2) in res.per_rank {
            assert_eq!(w1, 0, "overlay deferred the region-end sync");
            assert!(w2 >= 1, "flush applies the carried sync");
        }
    }

    #[test]
    fn coalesced_bidirectional_exchange_does_not_deadlock() {
        // Both ranks send AND receive at the coalesced site: the
        // flush-before-wait rule must prevent each rank blocking on the
        // other's unflushed batch.
        let iters = 4usize;
        let res = run(SimConfig::new(2), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).with_overlay(coalesce_overlay(8));
            let me = session.rank() as i64;
            let mut got = Vec::new();
            let params = CommParams::new()
                .sender(RankExpr::lit(1) - RankExpr::rank())
                .receiver(RankExpr::lit(1) - RankExpr::rank())
                .target(Target::Mpi2Side)
                .max_comm_iter(iters as i64);
            session
                .region(&params, |reg| {
                    for i in 0..iters {
                        let src = [me * 100 + i as i64];
                        let mut dst = [0i64];
                        reg.p2p()
                            .site(9)
                            .sbuf(Prim::new("src", &src))
                            .rbuf(PrimMut::new("dst", &mut dst))
                            .run()
                            .unwrap();
                        got.push(dst[0]);
                    }
                })
                .unwrap();
            session.flush();
            got
        });
        // Batch 8 > iters, so nothing flushes until a receiver is about to
        // block — which forces its own accumulator out first.
        assert_eq!(res.per_rank[0], vec![100, 101, 102, 103]);
        assert_eq!(res.per_rank[1], vec![0, 1, 2, 3]);
    }

    #[test]
    fn ir_recorded_for_analysis() {
        run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let src = [1i32; 3];
            let mut dst = [0i32; 3];
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)));
            session
                .region(&params, |reg| {
                    for _ in 0..3 {
                        let s = [0i32; 3];
                        let mut d = [0i32; 3];
                        let _ = (&src, &dst);
                        reg.p2p()
                            .site(1)
                            .sbuf(Prim::new("s", &s))
                            .rbuf(PrimMut::new("d", &mut d))
                            .run()
                            .unwrap();
                    }
                })
                .unwrap();
            let _ = (&mut dst, &src);
            let program = session.finish();
            assert_eq!(program.len(), 1);
            // Loop iterations collapse to one recorded site.
            assert_eq!(program[0].body.len(), 1);
            assert_eq!(program[0].body[0].site, 1);
        });
    }

    /// Ring of a 3-array struct-of-arrays payload, delivered intact on
    /// every target and both lowering extremes.
    fn run_soa_ring(target: Target, policy: crate::lower::LoweringPolicy, n: usize) -> Vec<i64> {
        use crate::buffer::{Soa, SoaMut};
        let res = run(SimConfig::new(n), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).with_lowering(policy);
            let me = session.rank() as i64;
            let a = vec![me; 64];
            let b = vec![me as f64 + 0.5; 64];
            let c = vec![me as i32; 128];
            let mut ra = vec![0i64; 64];
            let mut rb = vec![0f64; 64];
            let mut rc = vec![0i32; 128];
            let params = ring_params(n).target(target);
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .count(RankExpr::lit(64))
                        .sbuf(
                            Soa::new("s")
                                .field("a", &a)
                                .field("b", &b)
                                .field_blocks("c", &c, 2),
                        )
                        .rbuf(
                            SoaMut::new("r")
                                .field("a", &mut ra)
                                .field("b", &mut rb)
                                .field_blocks("c", &mut rc, 2),
                        )
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            assert!(rb.iter().all(|&v| v == ra[0] as f64 + 0.5));
            assert!(rc.iter().all(|&v| v as i64 == ra[0]));
            ra[0]
        });
        res.per_rank
    }

    #[test]
    fn soa_ring_all_targets_and_policies_deliver() {
        use crate::lower::LoweringPolicy;
        for target in Target::ALL {
            for policy in [
                LoweringPolicy::Auto,
                LoweringPolicy::AlwaysPack,
                LoweringPolicy::AlwaysDatatype,
            ] {
                let n = 4;
                let got = run_soa_ring(target, policy, n);
                for (r, &v) in got.iter().enumerate() {
                    assert_eq!(
                        v as usize,
                        (r + n - 1) % n,
                        "target {target}, policy {policy:?}: rank {r} got {v}"
                    );
                }
            }
        }
    }

    /// The chooser's zero-copy split beats the Listing-4 always-pack
    /// baseline on a large struct-of-arrays transfer, and the pack
    /// baseline actually records packed bytes (observability).
    #[test]
    fn auto_lowering_beats_always_pack_on_large_soa() {
        use crate::buffer::{Soa, SoaMut};
        use crate::lower::LoweringPolicy;
        let time_with = |policy: LoweringPolicy| {
            let res = run(SimConfig::new(2), move |ctx| {
                let comm = Comm::world(ctx);
                let mut session = CommSession::new(ctx, comm).with_lowering(policy);
                let a = vec![1i64; 4096];
                let b = vec![2i64; 4096];
                let c = vec![3i64; 4096];
                let mut ra = vec![0i64; 4096];
                let mut rb = vec![0i64; 4096];
                let mut rc = vec![0i64; 4096];
                let params = CommParams::new()
                    .sender(RankExpr::lit(0))
                    .receiver(RankExpr::lit(1))
                    .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                    .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                    .target(Target::Mpi2Side);
                session
                    .region(&params, |reg| {
                        reg.p2p()
                            .count(RankExpr::lit(4096))
                            .sbuf(Soa::new("s").field("a", &a).field("b", &b).field("c", &c))
                            .rbuf(
                                SoaMut::new("r")
                                    .field("a", &mut ra)
                                    .field("b", &mut rb)
                                    .field("c", &mut rc),
                            )
                            .run()
                            .unwrap();
                    })
                    .unwrap();
                session.flush();
                assert_eq!(ra[4095], if session.rank() == 1 { 1 } else { 0 });
            });
            (
                res.final_times.iter().max().copied().unwrap(),
                res.total_stats().packed_bytes,
            )
        };
        let (auto_t, auto_packed) = time_with(LoweringPolicy::Auto);
        let (pack_t, pack_packed) = time_with(LoweringPolicy::AlwaysPack);
        assert!(
            auto_t < pack_t,
            "auto {auto_t:?} should beat always-pack {pack_t:?}"
        );
        // 3 arrays x 4096 x 8B, packed on the send side and unpacked on
        // the receive side under the baseline; never copied under auto.
        assert_eq!(auto_packed, 0);
        assert_eq!(pack_packed, 2 * 3 * 4096 * 8);
    }
}
