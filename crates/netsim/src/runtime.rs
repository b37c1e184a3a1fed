//! The SPMD rank runtime: runs one body per simulated rank, each owning a
//! virtual clock and a handle to the shared [`Fabric`]. The engine
//! ([`crate::sched`]) runs ranks as coroutines on a few carrier threads.
//!
//! Clock-charging policy lives here. Crucially, the *physical* completion of
//! an operation (data delivered) is decoupled from the *virtual* cost of
//! waiting for it: `wait_raw` on a request parks the rank but does not
//! touch the clock, and the `charge_*` family implements the different
//! synchronization-cost policies (`MPI_Wait` loop vs. `MPI_Waitall` vs. the
//! directive layer's consolidated region sync) whose comparison is the
//! subject of the paper's Figure 4.

use std::sync::Arc;

use bytes::Bytes;

use crate::fabric::{Fabric, Group, SegId};
use crate::metrics::SchedStats;
use crate::model::{CostModel, MachineModel};
use crate::msg::{RecvDone, RecvRequest, SendRequest, SrcSel, TagSel, WireCosts};
use crate::progress::{ProgressBoard, Snapshot, WatchCfg};
use crate::sanitize::{SanitizeReport, Sanitizer};
use crate::sched::Scheduler;
use crate::time::Time;
use crate::trace::{EventKind, RankStats, SiteId, TraceEvent, TraceSink};

/// Simulation configuration.
#[derive(Clone)]
pub struct SimConfig {
    /// Number of SPMD ranks.
    pub nranks: usize,
    /// The machine's per-library cost models.
    pub machine: MachineModel,
    /// Record a full event trace (tests/examples; off for benches). Fold
    /// it with [`crate::RankMetrics::from_trace`] for per-site metrics.
    pub trace: bool,
    /// Collect live progress telemetry ([`crate::progress`]) and attach the
    /// deterministic post-run snapshot to [`SimResult::progress`]. Off by
    /// default: every hook is a single branch when disabled.
    pub progress: bool,
    /// Engine, stack size and protocol knobs.
    pub exec: ExecPolicy,
}

impl SimConfig {
    /// A Gemini-like machine with `nranks` ranks and tracing off.
    pub fn new(nranks: usize) -> Self {
        SimConfig {
            nranks,
            machine: MachineModel::default(),
            trace: false,
            progress: false,
            exec: ExecPolicy::default(),
        }
    }

    /// Enable event tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Use a specific machine model.
    pub fn with_machine(mut self, machine: MachineModel) -> Self {
        self.machine = machine;
        self
    }

    /// Collect progress telemetry (deterministic post-run snapshot, no
    /// watchdog thread).
    pub fn with_progress(mut self) -> Self {
        self.progress = true;
        self
    }

    /// Run under `exec` (engine + stack size + protocol knobs).
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }
}

/// Engine selection a caller can thread through higher layers (experiment
/// drivers, bench binaries) without rebuilding a [`SimConfig`] by hand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Carrier threads the ranks run on, clamped to `nranks` (`0` = auto:
    /// `min(nranks, available_parallelism)`). `nranks` carriers give every
    /// rank one of its own, all OS-runnable at once. Results are
    /// bit-identical at any count — virtual time, not execution order,
    /// defines the output (see [`crate::sched`]).
    pub workers: usize,
    /// Stack size per rank coroutine in bytes (`None`:
    /// [`ExecPolicy::DEFAULT_STACK_SIZE`]).
    pub stack_size: Option<usize>,
    /// Eager-vs-rendezvous protocol threshold override in bytes for the
    /// MPI cost model (`None` keeps the machine model's constant). A
    /// first-class tuning knob: messages at or below the threshold ship
    /// eagerly; larger ones pay the rendezvous handshake. SHMEM puts never
    /// rendezvous, so the SHMEM model is left untouched.
    pub eager_threshold: Option<usize>,
    /// Run the one-sided race sanitizer ([`crate::sanitize`]): shadow-tag
    /// every symmetric-segment access and report conflicting unordered
    /// pairs. Off by default: every hook is a single branch when disabled.
    pub sanitize: bool,
    /// Run the `--watch` stall watchdog: a reader thread that periodically
    /// snapshots the progress board and prints progress / stall lines to
    /// stderr. Implies [`SimConfig::progress`]. Snapshots only read state,
    /// so all deterministic outputs are bit-identical with the watchdog on.
    pub watch: Option<WatchCfg>,
}

impl ExecPolicy {
    /// Rank stack size when [`ExecPolicy::stack_size`] is unset: 1 MiB.
    pub const DEFAULT_STACK_SIZE: usize = 1 << 20;

    /// The engine on `workers` carrier threads (`0` = auto, the default).
    pub fn bounded(workers: usize) -> Self {
        ExecPolicy {
            workers,
            ..ExecPolicy::default()
        }
    }

    /// Override the per-rank stack size in bytes.
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = Some(bytes);
        self
    }

    /// Override the MPI eager-vs-rendezvous threshold in bytes.
    pub fn with_eager_threshold(mut self, bytes: usize) -> Self {
        self.eager_threshold = Some(bytes);
        self
    }

    /// Enable the one-sided race sanitizer.
    pub fn with_sanitize(mut self) -> Self {
        self.sanitize = true;
        self
    }

    /// Run the `--watch` stall watchdog alongside the simulation.
    pub fn with_watch(mut self, cfg: WatchCfg) -> Self {
        self.watch = Some(cfg);
        self
    }
}

/// Result of a simulation: per-rank return values, final virtual clocks,
/// per-rank statistics, and (optionally) the event trace.
#[derive(Debug)]
pub struct SimResult<T> {
    /// Value returned by each rank's closure, indexed by rank.
    pub per_rank: Vec<T>,
    /// Final virtual clock of each rank.
    pub final_times: Vec<Time>,
    /// Per-rank operation counters.
    pub stats: Vec<RankStats>,
    /// Scheduler slot-occupancy counters (physical, interleaving-dependent).
    /// Always `Some`, since every run goes through the one engine; the
    /// field stays an `Option` so existing readers keep compiling.
    pub sched: Option<SchedStats>,
    /// The event trace, if enabled.
    pub trace: Option<Vec<TraceEvent>>,
    /// The race sanitizer's report, if enabled.
    pub sanitize: Option<SanitizeReport>,
    /// The deterministic post-run progress snapshot, if progress telemetry
    /// (or `--watch`) was enabled. `ranks` is engine-invariant; `sched` is
    /// physical.
    pub progress: Option<Snapshot>,
}

impl<T> SimResult<T> {
    /// The job's makespan: the maximum final clock over all ranks.
    pub fn makespan(&self) -> Time {
        self.final_times.iter().copied().max().unwrap_or(Time::ZERO)
    }

    /// Whole-job operation totals.
    pub fn total_stats(&self) -> RankStats {
        let mut total = RankStats::default();
        for s in &self.stats {
            total.merge(s);
        }
        total
    }
}

/// Run an SPMD program: `body` is executed once per rank, in parallel.
///
/// Panics in any rank are propagated (with the rank id) after all other
/// ranks have finished or also panicked. A run whose unfinished ranks are
/// all parked with none runnable panics with a `deadlock: ranks [..]`
/// report instead of hanging.
pub fn run<T, F>(cfg: SimConfig, body: F) -> SimResult<T>
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    assert!(cfg.nranks > 0, "need at least one rank");
    let mut cfg = cfg;
    let exec = cfg.exec;
    if let Some(bytes) = exec.eager_threshold {
        cfg.machine.mpi.eager_threshold = bytes;
    }
    let cfg = cfg;
    let fabric = Fabric::new(cfg.nranks);
    let sink = if cfg.trace {
        Some(Arc::new(TraceSink::new()))
    } else {
        None
    };
    let sanitizer = exec.sanitize.then(|| Arc::new(Sanitizer::new(cfg.nranks)));
    let workers = match exec.workers {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        w => w,
    };
    let sched = Scheduler::new(cfg.nranks, workers);
    let board =
        (cfg.progress || exec.watch.is_some()).then(|| Arc::new(ProgressBoard::new(cfg.nranks)));
    let watch_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = exec.watch.map(|wcfg| {
        crate::progress::spawn_watcher(
            Arc::clone(board.as_ref().expect("watch implies board")),
            Arc::clone(&sched),
            wcfg,
            Arc::clone(&watch_stop),
        )
    });
    let rank_main = |rank: usize| {
        let mut ctx = RankCtx {
            rank,
            nranks: cfg.nranks,
            clock: Time::ZERO,
            fabric: Arc::clone(&fabric),
            machine: cfg.machine,
            outstanding_puts: Vec::new(),
            stats: RankStats::default(),
            sink: sink.clone(),
            cur_site: None,
            san: sanitizer.clone(),
            progress: board.clone(),
        };
        let out = body(&mut ctx);
        if let Some(p) = &ctx.progress {
            p.on_finish(rank, ctx.clock.as_nanos());
        }
        (out, ctx.clock, ctx.stats)
    };
    let stack_size = exec.stack_size.unwrap_or(ExecPolicy::DEFAULT_STACK_SIZE);
    let outputs = sched.run(stack_size, &rank_main);
    // All ranks have quiesced: stop the watchdog, then take the final
    // (deterministic) snapshot.
    watch_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(h) = watcher {
        let _ = h.join();
    }
    let outputs = outputs.unwrap_or_else(|report| panic!("{report}"));

    let mut per_rank = Vec::with_capacity(cfg.nranks);
    let mut final_times = Vec::with_capacity(cfg.nranks);
    let mut stats = Vec::with_capacity(cfg.nranks);
    for (rank, (out, t, mut s)) in outputs.into_iter().enumerate() {
        // The matching engine's hot-path counters live in the rank's
        // mailbox; fold them in now that all ranks are quiescent.
        s.merge(&fabric.mailbox(rank).stats());
        if let Some(san) = &sanitizer {
            let (checks, conflicts) = san.rank_counters(rank);
            s.race_checks = checks as usize;
            s.conflicts_found = conflicts as usize;
        }
        per_rank.push(out);
        final_times.push(t);
        stats.push(s);
    }
    let sched_stats = sched.stats();
    let progress = board.map(|b| b.snapshot(sched_stats));

    SimResult {
        per_rank,
        final_times,
        stats,
        sched: Some(sched_stats),
        trace: sink.map(|s| s.take()),
        sanitize: sanitizer.map(|s| {
            Arc::into_inner(s)
                .expect("all ranks finished")
                .into_report()
        }),
        progress,
    }
}

/// Deterministic per-message jitter source (splitmix64 over the message
/// identity) — reproducible non-uniform latencies.
fn deterministic_jitter(a: u64, b: u64, c: u64, d: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.rotate_left(33))
        .wrapping_add(d.rotate_left(49));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The `RecvDone` trace record of `req` completing with `done`.
fn recv_done_event(req: &RecvRequest, done: &RecvDone) -> EventKind {
    EventKind::RecvDone {
        src: done.src,
        tag: done.tag,
        bytes: done.payload.len(),
        unexpected: done.unexpected,
        posted: req.posted,
        completion: done.completion,
    }
}

/// Per-rank execution context: identity, virtual clock, fabric access, and
/// clock-charging policy helpers.
pub struct RankCtx {
    rank: usize,
    nranks: usize,
    clock: Time,
    fabric: Arc<Fabric>,
    machine: MachineModel,
    outstanding_puts: Vec<Time>,
    /// Operation counters for this rank.
    pub stats: RankStats,
    sink: Option<Arc<TraceSink>>,
    cur_site: Option<SiteId>,
    san: Option<Arc<Sanitizer>>,
    progress: Option<Arc<ProgressBoard>>,
}

impl RankCtx {
    /// This rank's global id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks in the job.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The machine's library cost models.
    #[inline]
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Current virtual clock.
    #[inline]
    pub fn now(&self) -> Time {
        self.clock
    }

    /// The shared fabric (escape hatch for substrate layers).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Report the current clock to the progress board ahead of an
    /// operation that may physically park.
    #[inline]
    fn note_block(&self) {
        if let Some(p) = &self.progress {
            p.on_block(
                self.rank,
                self.clock.as_nanos(),
                self.outstanding_puts.len(),
            );
        }
    }

    fn trace(&self, start: Time, kind: EventKind) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                rank: self.rank,
                time: self.clock,
                start,
                site: self.cur_site,
                kind,
            });
        }
    }

    // -- observability --------------------------------------------------------

    /// Attribute subsequent operations to the directive call site `site`
    /// (or clear the attribution with `None`). Returns the previous value
    /// so nested scopes can restore it.
    #[inline]
    pub fn set_site(&mut self, site: Option<SiteId>) -> Option<SiteId> {
        std::mem::replace(&mut self.cur_site, site)
    }

    /// Record a trace event on behalf of a higher layer spanning
    /// `start..end` in virtual time, without touching the clock. Substrate
    /// engines that implement their own charging policies use this to keep
    /// the trace complete (e.g. the directive layer's region sync).
    pub fn emit_event(&self, start: Time, end: Time, kind: EventKind) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                rank: self.rank,
                time: end,
                start,
                site: self.cur_site,
                kind,
            });
        }
    }

    /// Record the completion of a receive whose physical wait was performed
    /// by a higher layer (the directive engine completes receives eagerly
    /// and defers the clock charge): emits the `RecvDone` trace event. No
    /// clock change.
    pub fn note_recv_completion(&self, req: &RecvRequest, done: &RecvDone) {
        self.trace(self.clock, recv_done_event(req, done));
    }

    // -- computation --------------------------------------------------------

    /// Model a block of local computation costing `t` of virtual time.
    pub fn compute(&mut self, t: Time) {
        let t0 = self.clock;
        self.clock += t;
        self.trace(t0, EventKind::Compute { ns: t.as_nanos() });
        if let Some(p) = &self.progress {
            p.on_advance(self.rank, self.clock.as_nanos());
        }
    }

    /// Charge an arbitrary local overhead without a trace event.
    pub fn charge(&mut self, t: Time) {
        self.clock += t;
    }

    /// Force the clock forward to at least `t` (used by substrate layers for
    /// custom reconciliation). Never moves the clock backwards.
    pub fn advance_to(&mut self, t: Time) {
        self.clock = self.clock.max(t);
    }

    // -- two-sided ----------------------------------------------------------

    /// Initiate a non-blocking send of `payload` to `dst` under `model`.
    /// Charges `o_send` and departs at the resulting clock.
    pub fn isend(
        &mut self,
        dst: usize,
        tag: i32,
        payload: &[u8],
        model: &CostModel,
    ) -> SendRequest {
        self.isend_bytes(dst, tag, Bytes::copy_from_slice(payload), model)
    }

    /// Like [`RankCtx::isend`] but takes ownership of the payload without a
    /// copy.
    pub fn isend_bytes(
        &mut self,
        dst: usize,
        tag: i32,
        payload: Bytes,
        model: &CostModel,
    ) -> SendRequest {
        let t0 = self.clock;
        self.clock += Time::from_nanos(model.o_send);
        let bytes = payload.len();
        self.stats.sends += 1;
        self.stats.bytes_sent += bytes;
        self.trace(t0, EventKind::SendPost { dst, tag, bytes });
        let mut costs = WireCosts::for_message(model, bytes);
        if model.latency_jitter_ns > 0 {
            costs.latency += deterministic_jitter(
                self.rank as u64,
                dst as u64,
                tag as u64,
                self.stats.sends as u64,
            ) % (model.latency_jitter_ns + 1);
        }
        self.fabric
            .send(self.rank, dst, tag, payload, self.clock, costs)
    }

    /// Post a non-blocking receive. Charges `o_recv`; the post time is the
    /// resulting clock.
    pub fn irecv(&mut self, src: SrcSel, tag: TagSel, model: &CostModel) -> RecvRequest {
        let t0 = self.clock;
        self.clock += Time::from_nanos(model.o_recv);
        self.stats.recvs += 1;
        self.trace(
            t0,
            EventKind::RecvPost {
                src: match src {
                    SrcSel::Exact(r) => Some(r),
                    SrcSel::Any => None,
                },
                tag: match tag {
                    TagSel::Exact(t) => Some(t),
                    TagSel::Range { .. } | TagSel::Any => None,
                },
            },
        );
        self.fabric.recv(self.rank, src, tag, self.clock)
    }

    /// Blocking send: initiate and wait with a single-request charge.
    pub fn send(&mut self, dst: usize, tag: i32, payload: &[u8], model: &CostModel) {
        let req = self.isend(dst, tag, payload, model);
        self.wait_send(&req, model);
    }

    /// Blocking receive: post and wait with a single-request charge.
    pub fn recv(&mut self, src: SrcSel, tag: TagSel, model: &CostModel) -> RecvDone {
        let req = self.irecv(src, tag, model);
        self.wait_recv(&req, model)
    }

    /// Wait for a single send request, charging `o_wait` (the expensive
    /// per-call pattern).
    pub fn wait_send(&mut self, req: &SendRequest, model: &CostModel) {
        self.note_block();
        let t0 = self.clock;
        let done = req.wait_raw();
        self.clock = self.clock.max(done) + Time::from_nanos(model.o_wait);
        self.stats.waits += 1;
        self.trace(t0, EventKind::Wait { horizon: done });
    }

    /// Wait for a single receive request, charging `o_wait`.
    pub fn wait_recv(&mut self, req: &RecvRequest, model: &CostModel) -> RecvDone {
        self.note_block();
        let t0 = self.clock;
        let done = req.wait_raw();
        self.clock = self.clock.max(done.completion) + Time::from_nanos(model.o_wait);
        self.stats.waits += 1;
        self.trace(
            t0,
            EventKind::Wait {
                horizon: done.completion,
            },
        );
        self.trace(self.clock, recv_done_event(req, &done));
        done
    }

    /// Consolidated completion over a mixed set of requests (`MPI_Waitall`):
    /// the clock advances to the max completion plus one amortized charge.
    /// Returns the receive results in request order.
    pub fn waitall(
        &mut self,
        sends: &[SendRequest],
        recvs: &[RecvRequest],
        model: &CostModel,
    ) -> Vec<RecvDone> {
        self.note_block();
        let t0 = self.clock;
        let mut max_t = self.clock;
        for s in sends {
            max_t = max_t.max(s.wait_raw());
        }
        let mut dones = Vec::with_capacity(recvs.len());
        for r in recvs {
            let d = r.wait_raw();
            max_t = max_t.max(d.completion);
            dones.push(d);
        }
        let n = sends.len() + recvs.len();
        // User-level Waitall fills per-request status objects.
        self.clock = max_t + model.waitall_cost(n) + Time::from_nanos(model.o_status * n as u64);
        self.stats.waitalls += 1;
        for (r, d) in recvs.iter().zip(&dones) {
            self.trace(self.clock, recv_done_event(r, d));
        }
        self.trace(t0, EventKind::Waitall { n, horizon: max_t });
        dones
    }

    /// Fold a set of pre-collected virtual completion times into the clock
    /// as one consolidated sync (the directive layer's deferred region
    /// sync). `n` is the number of requests covered.
    pub fn charge_consolidated(&mut self, completions: &[Time], n: usize, model: &CostModel) {
        let t0 = self.clock;
        let max_t = completions.iter().copied().fold(self.clock, Time::max);
        self.clock = max_t + model.waitall_cost(n);
        self.stats.waitalls += 1;
        self.trace(t0, EventKind::Waitall { n, horizon: max_t });
    }

    // -- one-sided -----------------------------------------------------------

    /// Collective symmetric allocation over `group` (which must include
    /// this rank). Synchronizes the group like `shmalloc` does.
    pub fn sym_alloc(&mut self, group: &Group, bytes: usize, model: &CostModel) -> SegId {
        self.sym_alloc_windowed(group, bytes, u64::MAX, model)
    }

    /// [`RankCtx::sym_alloc`] with a flow-control window: a signalled put
    /// physically blocks while `window` deliveries are unconsumed at the
    /// destination (staging-slot reuse safety for layered engines).
    pub fn sym_alloc_windowed(
        &mut self,
        group: &Group,
        bytes: usize,
        window: u64,
        model: &CostModel,
    ) -> SegId {
        self.note_block();
        let id = self.fabric.segments().alloc(group, bytes, window);
        // shmalloc implies a barrier across the participants.
        self.barrier_group(group, model);
        id
    }

    /// Release flow-controlled senders: mark `count` signalled deliveries
    /// into this rank's copy of `seg` as consumed.
    pub fn mark_consumed(&self, seg: SegId, count: u64) {
        self.fabric.segments().mark_consumed(seg, self.rank, count);
        if let Some(san) = &self.san {
            san.on_consumed(self.rank, seg, count);
        }
    }

    /// One-sided put of `data` into `target`'s copy of segment `seg` at
    /// `offset`. Charges `o_put`; the remote data is signalled with its
    /// virtual arrival time so receivers can (physically) wait for it.
    /// Returns the arrival time; it is also recorded as an outstanding put
    /// for [`RankCtx::quiet`].
    pub fn put(
        &mut self,
        seg: SegId,
        target: usize,
        offset: usize,
        data: &[u8],
        model: &CostModel,
        signal: bool,
    ) -> Time {
        let t0 = self.clock;
        self.clock += Time::from_nanos(model.o_put);
        self.note_block(); // a signalled put may park on flow control
        let mut arrival = self.clock + model.wire_time(data.len());
        if model.latency_jitter_ns > 0 {
            arrival += Time::from_nanos(
                deterministic_jitter(
                    self.rank as u64,
                    target as u64,
                    seg.0 as u64,
                    self.stats.puts as u64,
                ) % (model.latency_jitter_ns + 1),
            );
        }
        let ordinal =
            self.fabric
                .segments()
                .put(seg, target, offset, data, signal.then_some(arrival));
        if let Some(san) = &self.san {
            let window = self.fabric.segments().window_of(seg);
            san.on_put_data(
                self.rank,
                seg,
                window,
                target,
                offset,
                data.len(),
                ordinal,
                self.cur_site,
            );
        }
        self.outstanding_puts.push(arrival);
        self.stats.puts += 1;
        self.stats.bytes_put += data.len();
        self.trace(
            t0,
            EventKind::Put {
                dst: target,
                bytes: data.len(),
            },
        );
        arrival
    }

    /// [`RankCtx::put`] whose source bytes come from this rank's own copy
    /// of `seg` at `src_offset` (the staged-slot idiom). The sanitizer
    /// additionally tracks the source read so reuse of the source region
    /// before a `quiet` is diagnosed (CI011).
    #[allow(clippy::too_many_arguments)]
    pub fn put_from(
        &mut self,
        seg: SegId,
        target: usize,
        offset: usize,
        src_offset: usize,
        len: usize,
        model: &CostModel,
        signal: bool,
    ) -> Time {
        let mut data = vec![0u8; len];
        self.fabric
            .segments()
            .read(seg, self.rank, src_offset, &mut data);
        if let Some(san) = &self.san {
            let window = self.fabric.segments().window_of(seg);
            san.on_put_src(self.rank, seg, window, src_offset, len, self.cur_site);
        }
        self.put(seg, target, offset, &data, model, signal)
    }

    /// Blocking one-sided get from `target`'s copy of `seg` into `out`.
    /// Charges the full software + wire round trip.
    pub fn get(
        &mut self,
        seg: SegId,
        target: usize,
        offset: usize,
        out: &mut [u8],
        model: &CostModel,
    ) {
        self.fabric.segments().read(seg, target, offset, out);
        if let Some(san) = &self.san {
            let window = self.fabric.segments().window_of(seg);
            san.on_get(
                self.rank,
                seg,
                window,
                target,
                offset,
                out.len(),
                self.cur_site,
            );
        }
        let t0 = self.clock;
        self.clock += Time::from_nanos(model.o_get)
            + Time::from_nanos(model.latency)
            + model.wire_time(out.len());
        self.stats.gets += 1;
        self.trace(
            t0,
            EventKind::Get {
                src: target,
                bytes: out.len(),
            },
        );
    }

    /// Read this rank's own copy of a segment (free: local load).
    pub fn read_local(&self, seg: SegId, offset: usize, out: &mut [u8]) {
        self.fabric.segments().read(seg, self.rank, offset, out);
        if let Some(san) = &self.san {
            let window = self.fabric.segments().window_of(seg);
            san.on_local_read(self.rank, seg, window, offset, out.len(), self.cur_site);
        }
    }

    /// Write this rank's own copy of a segment (free: local store).
    pub fn write_local(&self, seg: SegId, offset: usize, data: &[u8]) {
        self.fabric
            .segments()
            .put(seg, self.rank, offset, data, None);
        if let Some(san) = &self.san {
            let window = self.fabric.segments().window_of(seg);
            san.on_local_write(self.rank, seg, window, offset, data.len(), self.cur_site);
        }
    }

    /// Physically wait until at least `count` signalled deliveries landed in
    /// this rank's copy of `seg`; returns the `count`-th arrival time.
    /// Does **not** advance the clock — pair with [`RankCtx::advance_to`] or
    /// a consolidated charge.
    pub fn wait_signals_raw(&self, seg: SegId, count: usize) -> Time {
        self.note_block();
        let t = self.fabric.segments().wait_signals(seg, self.rank, count);
        if let Some(san) = &self.san {
            san.on_wait(self.rank, seg, count as u64);
        }
        t
    }

    /// Complete all outstanding puts (`shmem_quiet`): clock advances to the
    /// latest arrival plus `o_quiet`.
    pub fn quiet(&mut self, model: &CostModel) {
        let t0 = self.clock;
        let outstanding = self.outstanding_puts.len();
        let max_arrival = self.outstanding_puts.drain(..).fold(self.clock, Time::max);
        self.clock = max_arrival + Time::from_nanos(model.o_quiet);
        if let Some(san) = &self.san {
            san.on_quiet(self.rank);
        }
        self.stats.quiets += 1;
        self.trace(
            t0,
            EventKind::Quiet {
                outstanding,
                horizon: max_arrival,
            },
        );
    }

    /// Drain the outstanding-put list, returning the arrival times.
    pub fn take_outstanding_puts(&mut self) -> Vec<Time> {
        std::mem::take(&mut self.outstanding_puts)
    }

    // -- collectives ----------------------------------------------------------

    /// Barrier over all ranks.
    pub fn barrier(&mut self, model: &CostModel) {
        let fabric = Arc::clone(&self.fabric);
        self.barrier_group(fabric.world(), model);
    }

    /// Barrier over a group containing this rank.
    pub fn barrier_group(&mut self, group: &Group, model: &CostModel) {
        debug_assert!(
            group.members().binary_search(&self.rank).is_ok(),
            "barrier group excludes caller"
        );
        self.note_block();
        let t0 = self.clock;
        let cost = model.barrier_cost(group.len());
        let exit = group.barrier(self.clock, cost);
        self.clock = exit;
        if group.len() == self.nranks {
            if let Some(san) = &self.san {
                san.on_full_barrier(self.rank);
            }
        }
        self.stats.barriers += 1;
        self.trace(
            t0,
            EventKind::Barrier {
                group_len: group.len(),
            },
        );
    }

    // -- explicit data handling costs ----------------------------------------

    /// Charge an explicit pack/unpack copy of `bytes` (`MPI_Pack` path).
    pub fn charge_pack(&mut self, bytes: usize, model: &CostModel) {
        let t0 = self.clock;
        self.clock += model.byte_cost(model.pack_per_byte, bytes);
        self.stats.packed_bytes += bytes;
        self.trace(t0, EventKind::Pack { bytes });
    }

    /// Charge a derived-datatype build + commit.
    pub fn charge_datatype_commit(&mut self, model: &CostModel) {
        let t0 = self.clock;
        self.clock += Time::from_nanos(model.datatype_commit);
        self.stats.datatype_commits += 1;
        self.trace(t0, EventKind::DatatypeCommit);
    }

    /// Record a datatype-cache hit: the layout was already committed, so the
    /// commit cost is elided. Counter only — the virtual clock does not move.
    pub fn note_dtype_cache_hit(&mut self) {
        self.stats.dtype_cache_hits += 1;
    }

    /// Charge a local staging copy of `bytes`.
    pub fn charge_memcpy(&mut self, bytes: usize, model: &CostModel) {
        self.clock += model.byte_cost(model.memcpy_per_byte, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MachineModel;

    fn uniform_cfg(n: usize) -> SimConfig {
        SimConfig::new(n).with_machine(MachineModel::uniform(1_000, 1.0))
    }

    #[test]
    fn single_rank_compute() {
        let res = run(uniform_cfg(1), |ctx| {
            ctx.compute(Time::from_micros(5));
            ctx.now()
        });
        assert_eq!(res.per_rank[0], Time::from_micros(5));
        assert_eq!(res.makespan(), Time::from_micros(5));
    }

    #[test]
    fn ping_message_clock_charges() {
        let res = run(uniform_cfg(2), |ctx| {
            let m = ctx.machine().mpi;
            if ctx.rank() == 0 {
                ctx.send(1, 0, &[7u8; 100], &m);
            } else {
                let d = ctx.recv(SrcSel::Exact(0), TagSel::Exact(0), &m);
                assert_eq!(d.payload.len(), 100);
            }
            ctx.now()
        });
        // Sender: o_send(100) + wait: completion=depart(100) => max(100,100)+o_wait(100)=200
        assert_eq!(res.per_rank[0], Time(200));
        // Receiver: o_recv(100) posts at 100; arrival = 100 + 1000 + 100 = 1200;
        // wait => max(100,1200)+100 = 1300.
        assert_eq!(res.per_rank[1], Time(1300));
        assert_eq!(res.total_stats().sends, 1);
        assert_eq!(res.total_stats().recvs, 1);
    }

    #[test]
    fn waitall_vs_wait_loop_ordering() {
        // With n requests, a wait loop charges n*o_wait while waitall charges
        // o_waitall + n*o_req_poll; verify end-to-end through the runtime.
        let n_msgs = 8usize;
        let run_one = |consolidated: bool| {
            let res = run(SimConfig::new(2), move |ctx| {
                let m = ctx.machine().mpi;
                if ctx.rank() == 0 {
                    let reqs: Vec<_> = (0..n_msgs)
                        .map(|i| ctx.isend(1, i as i32, &[0u8; 24], &m))
                        .collect();
                    if consolidated {
                        ctx.waitall(&reqs, &[], &m);
                    } else {
                        for r in &reqs {
                            ctx.wait_send(r, &m);
                        }
                    }
                } else {
                    let reqs: Vec<_> = (0..n_msgs)
                        .map(|i| ctx.irecv(SrcSel::Exact(0), TagSel::Exact(i as i32), &m))
                        .collect();
                    if consolidated {
                        ctx.waitall(&[], &reqs, &m);
                    } else {
                        for r in &reqs {
                            ctx.wait_recv(r, &m);
                        }
                    }
                }
                ctx.now()
            });
            res.makespan()
        };
        let loop_time = run_one(false);
        let all_time = run_one(true);
        assert!(
            all_time < loop_time,
            "waitall ({all_time}) should beat wait loop ({loop_time})"
        );
    }

    #[test]
    fn barrier_all_ranks_same_exit() {
        let res = run(uniform_cfg(4), |ctx| {
            ctx.compute(Time::from_nanos(100 * (ctx.rank() as u64 + 1)));
            let m = ctx.machine().mpi;
            ctx.barrier(&m);
            ctx.now()
        });
        let t0 = res.per_rank[0];
        assert!(res.per_rank.iter().all(|&t| t == t0));
        assert!(t0 > Time(400));
    }

    #[test]
    fn one_sided_put_and_signal() {
        let res = run(uniform_cfg(2), |ctx| {
            let m = ctx.machine().shmem;
            let g = ctx.fabric().group(&[0, 1]);
            let seg = ctx.sym_alloc(&g, 64, &m);
            if ctx.rank() == 0 {
                let arrival = ctx.put(seg, 1, 0, &[42u8; 8], &m, true);
                ctx.quiet(&m);
                assert!(ctx.now() >= arrival);
            } else {
                let arrival = ctx.wait_signals_raw(seg, 1);
                ctx.advance_to(arrival);
                let mut out = [0u8; 8];
                ctx.read_local(seg, 0, &mut out);
                assert_eq!(out, [42u8; 8]);
            }
            ctx.now()
        });
        assert!(res.per_rank[1] > Time::ZERO);
        assert_eq!(res.total_stats().puts, 1);
    }

    #[test]
    fn sanitizer_clean_on_signalled_put_wait_read() {
        let res = run(
            uniform_cfg(2).with_exec(ExecPolicy::bounded(2).with_sanitize()),
            |ctx| {
                let m = ctx.machine().shmem;
                let g = ctx.fabric().group(&[0, 1]);
                let seg = ctx.sym_alloc(&g, 64, &m);
                if ctx.rank() == 0 {
                    ctx.put(seg, 1, 0, &[42u8; 8], &m, true);
                    ctx.quiet(&m);
                } else {
                    let arrival = ctx.wait_signals_raw(seg, 1);
                    ctx.advance_to(arrival);
                    let mut out = [0u8; 8];
                    ctx.read_local(seg, 0, &mut out);
                }
            },
        );
        let report = res.sanitize.as_ref().expect("sanitizer enabled");
        assert_eq!(report.conflicts_found(), 0);
        assert!(report.race_checks >= 2, "put + read were both checked");
        assert_eq!(res.total_stats().conflicts_found, 0);
        assert_eq!(res.total_stats().race_checks, report.race_checks as usize);
        report.assert_clean();
    }

    #[test]
    fn sanitizer_flags_overlapping_unordered_puts() {
        let res = run(
            uniform_cfg(3).with_exec(ExecPolicy::bounded(3).with_sanitize()),
            |ctx| {
                let m = ctx.machine().shmem;
                let g = ctx.fabric().group(&[0, 1, 2]);
                let seg = ctx.sym_alloc(&g, 64, &m);
                if ctx.rank() < 2 {
                    // Both rank 0 and rank 1 blindly put into rank 2's window.
                    ctx.put(seg, 2, 0, &[ctx.rank() as u8; 8], &m, false);
                    ctx.quiet(&m);
                }
                ctx.barrier(&m);
            },
        );
        let report = res.sanitize.as_ref().expect("sanitizer enabled");
        assert_eq!(report.conflicts_found(), 1);
        assert!(
            report.codes().contains("CI009"),
            "codes: {:?}",
            report.codes()
        );
        assert_eq!(res.total_stats().conflicts_found, 1);
        let c = &report.conflicts[0];
        assert_eq!(c.owner, 2);
        assert_eq!(c.ranks, (0, 1));
    }

    #[test]
    fn sanitizer_flags_unwaited_read_and_put_from_source_reuse() {
        // Rank 0 rewrites its staged source before quiet (CI011); rank 1
        // reads the landing zone without waiting for the signal (CI012).
        let res = run(
            uniform_cfg(2).with_exec(ExecPolicy::bounded(2).with_sanitize()),
            |ctx| {
                let m = ctx.machine().shmem;
                let g = ctx.fabric().group(&[0, 1]);
                let seg = ctx.sym_alloc(&g, 64, &m);
                if ctx.rank() == 0 {
                    ctx.write_local(seg, 32, &[7u8; 8]);
                    ctx.put_from(seg, 1, 0, 32, 8, &m, true);
                    ctx.write_local(seg, 32, &[9u8; 8]); // before quiet: CI011
                    ctx.quiet(&m);
                } else {
                    let mut out = [0u8; 8];
                    ctx.read_local(seg, 0, &mut out); // no wait: CI012
                    ctx.wait_signals_raw(seg, 1);
                }
            },
        );
        let report = res.sanitize.as_ref().expect("sanitizer enabled");
        let codes = report.codes();
        assert!(codes.contains("CI011"), "codes: {codes:?}");
        assert!(codes.contains("CI012"), "codes: {codes:?}");
    }

    #[test]
    fn trace_records_events() {
        let res = run(uniform_cfg(2).with_trace(), |ctx| {
            let m = ctx.machine().mpi;
            if ctx.rank() == 0 {
                ctx.send(1, 0, b"x", &m);
            } else {
                ctx.recv(SrcSel::Exact(0), TagSel::Exact(0), &m);
            }
        });
        let trace = res.trace.expect("trace enabled");
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, EventKind::SendPost { dst: 1, .. })));
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, EventKind::RecvDone { src: 0, .. })));
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn rank_panic_propagates_with_id() {
        run(uniform_cfg(2), |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn pack_and_datatype_charges() {
        let res = run(SimConfig::new(1), |ctx| {
            let m = ctx.machine().mpi;
            let before = ctx.now();
            ctx.charge_pack(1_000, &m);
            let after_pack = ctx.now();
            ctx.charge_datatype_commit(&m);
            (before, after_pack, ctx.now())
        });
        let (a, b, c) = res.per_rank[0];
        assert!(b > a);
        assert!(c > b);
        assert_eq!(res.stats[0].packed_bytes, 1_000);
        assert_eq!(res.stats[0].datatype_commits, 1);
    }

    #[test]
    fn charge_consolidated_folds_completions() {
        let res = run(SimConfig::new(1), |ctx| {
            let m = ctx.machine().mpi;
            ctx.compute(Time(500));
            ctx.charge_consolidated(&[Time(10_000), Time(2_000)], 2, &m);
            ctx.now()
        });
        let m = crate::model::CostModel::gemini_mpi();
        assert_eq!(res.per_rank[0], Time(10_000) + m.waitall_cost(2));
    }

    #[test]
    fn engines_match_one_carrier_per_rank() {
        // A mixed workload (p2p, barrier, one-sided put/signal) must produce
        // bit-identical results at every carrier count: one carrier per
        // rank (the reference), one, two, five, and auto.
        let body = |ctx: &mut RankCtx| {
            let m = ctx.machine().mpi;
            let shm = ctx.machine().shmem;
            let n = ctx.nranks();
            let right = (ctx.rank() + 1) % n;
            let left = (ctx.rank() + n - 1) % n;
            let s = ctx.isend(right, 1, &[ctx.rank() as u8; 64], &m);
            let r = ctx.irecv(SrcSel::Exact(left), TagSel::Exact(1), &m);
            ctx.waitall(&[s], &[r], &m);
            ctx.barrier(&m);
            let group: Vec<usize> = (0..n).collect();
            let group = ctx.fabric().group(&group);
            let seg = ctx.sym_alloc(&group, 16, &shm);
            ctx.put(seg, right, 0, &[7u8; 16], &shm, true);
            ctx.quiet(&shm);
            let arrival = ctx.wait_signals_raw(seg, 1);
            ctx.advance_to(arrival);
            ctx.barrier(&m);
            ctx.now()
        };
        let reference = run(uniform_cfg(6).with_exec(ExecPolicy::bounded(6)), body);
        for workers in [1usize, 2, 5, 0] {
            let res = run(uniform_cfg(6).with_exec(ExecPolicy::bounded(workers)), body);
            assert_eq!(res.final_times, reference.final_times, "workers={workers}");
            assert_eq!(res.per_rank, reference.per_rank, "workers={workers}");
        }
    }

    #[test]
    fn bounded_engine_single_worker_no_deadlock_rendezvous() {
        // Rendezvous sends block until matched; with one worker slot the
        // sender must yield so the receiver can run.
        let mut machine = MachineModel::default();
        machine.mpi.eager_threshold = 0; // force rendezvous for every message
        let cfg = SimConfig::new(4)
            .with_machine(machine)
            .with_exec(ExecPolicy::bounded(1));
        let res = run(cfg, |ctx| {
            let m = ctx.machine().mpi;
            if ctx.rank() == 0 {
                for dst in 1..ctx.nranks() {
                    ctx.send(dst, 0, &[1u8; 4096], &m);
                }
            } else {
                ctx.recv(SrcSel::Exact(0), TagSel::Exact(0), &m);
            }
            ctx.now()
        });
        assert!(res.makespan() > Time::ZERO);
    }

    #[test]
    fn eager_threshold_config_overrides_model() {
        // The same 4 KiB message is eager under the default Gemini model
        // (threshold 8 KiB) and pays the rendezvous handshake once the
        // SimConfig knob pulls the threshold below the message size.
        let elapsed = |cfg: SimConfig| {
            run(cfg, |ctx| {
                let m = ctx.machine().mpi;
                if ctx.rank() == 0 {
                    ctx.send(1, 0, &[9u8; 4096], &m);
                } else {
                    ctx.recv(SrcSel::Exact(0), TagSel::Exact(0), &m);
                }
                ctx.now()
            })
            .makespan()
        };
        let eager = elapsed(SimConfig::new(2));
        // ExecPolicy carries the knob through with_exec.
        let via_exec =
            elapsed(SimConfig::new(2).with_exec(ExecPolicy::default().with_eager_threshold(1024)));
        assert!(
            via_exec > eager,
            "rendezvous {via_exec:?} must cost more than {eager:?}"
        );
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn bounded_engine_panic_releases_slot() {
        // The panicking rank's slot must be released so the others finish
        // and the panic propagates instead of deadlocking the pool.
        run(uniform_cfg(4).with_exec(ExecPolicy::bounded(1)), |ctx| {
            let m = ctx.machine().mpi;
            ctx.barrier(&m);
            if ctx.rank() == 1 {
                panic!("boom");
            }
            let g = ctx.fabric().group(&[0, 2, 3]);
            ctx.barrier_group(&g, &m);
        });
    }

    #[test]
    fn bounded_engine_parks_flow_controlled_senders() {
        // A one-slot window: rank 0's second signalled put must wait for
        // rank 1 to consume the first. Under one carrier that wait has to
        // park the sender, or rank 1 never runs.
        let body = |ctx: &mut RankCtx| {
            let m = ctx.machine().shmem;
            let g = ctx.fabric().group(&[0, 1]);
            let seg = ctx.sym_alloc_windowed(&g, 8, 1, &m);
            let mut got = Vec::new();
            for k in 0..4u8 {
                if ctx.rank() == 0 {
                    ctx.put(seg, 1, 0, &[k; 8], &m, true);
                } else {
                    let arrival = ctx.wait_signals_raw(seg, k as usize + 1);
                    ctx.advance_to(arrival);
                    let mut out = [0u8; 8];
                    ctx.read_local(seg, 0, &mut out);
                    got.push(out[0]);
                    ctx.mark_consumed(seg, 1);
                }
            }
            ctx.quiet(&m);
            (got, ctx.now())
        };
        let reference = run(uniform_cfg(2).with_exec(ExecPolicy::bounded(2)), body);
        assert_eq!(reference.per_rank[1].0, vec![0, 1, 2, 3]);
        for workers in [1, 2] {
            let res = run(uniform_cfg(2).with_exec(ExecPolicy::bounded(workers)), body);
            assert_eq!(res.per_rank, reference.per_rank, "workers={workers}");
        }
    }

    /// The report a failed run panicked with.
    fn run_failure(cfg: SimConfig, body: impl Fn(&mut RankCtx) + Sync) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(cfg, body)))
            .expect_err("the run must fail");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn bounded_engine_reports_a_deadlock() {
        // Each rank only receives from the other: no rank can ever run again.
        for workers in [1, 2] {
            let report = run_failure(
                uniform_cfg(2).with_exec(ExecPolicy::bounded(workers)),
                |ctx| {
                    let m = ctx.machine().mpi;
                    let other = 1 - ctx.rank();
                    ctx.recv(SrcSel::Exact(other), TagSel::Exact(0), &m);
                },
            );
            assert_eq!(
                report, "deadlock: ranks [0, 1] parked with none runnable",
                "workers={workers}"
            );
        }
    }

    #[test]
    fn default_engine_reports_a_skipped_collective() {
        // Rank 1 skips the barrier rank 0 waits in: the default engine
        // fails the run with a report rather than hanging.
        let report = run_failure(SimConfig::new(2), |ctx| {
            let m = ctx.machine().mpi;
            if ctx.rank() == 0 {
                ctx.barrier(&m);
            }
        });
        assert_eq!(report, "deadlock: ranks [0] parked with none runnable");
    }

    #[test]
    fn bounded_engine_reports_the_panic_that_strands_a_barrier() {
        // Rank 1 never reaches the barrier the others wait in: the run is
        // deadlocked, but the panic that caused it is the report.
        for workers in [1, 2] {
            let report = run_failure(
                uniform_cfg(4).with_exec(ExecPolicy::bounded(workers)),
                |ctx| {
                    let m = ctx.machine().mpi;
                    if ctx.rank() == 1 {
                        panic!("boom");
                    }
                    ctx.barrier(&m);
                },
            );
            assert_eq!(report, "rank 1 panicked: boom", "workers={workers}");
        }
    }

    #[test]
    fn bounded_ranks_resume_on_the_thread_they_parked_on() {
        // 64 ranks on 2 carriers; every ring wait and barrier below parks
        // (all but the last arriver), and each must resume on its carrier.
        let res = run(uniform_cfg(64).with_exec(ExecPolicy::bounded(2)), |ctx| {
            let m = ctx.machine().mpi;
            let n = ctx.nranks();
            let (right, left) = ((ctx.rank() + 1) % n, (ctx.rank() + n - 1) % n);
            let mut seen = Vec::new();
            for round in 0..8 {
                let before = std::thread::current().id();
                let s = ctx.isend(right, round, &[0u8; 8], &m);
                let r = ctx.irecv(SrcSel::Exact(left), TagSel::Exact(round), &m);
                ctx.waitall(&[s], &[r], &m);
                seen.push((before, std::thread::current().id()));
                let before = std::thread::current().id();
                ctx.barrier(&m);
                seen.push((before, std::thread::current().id()));
            }
            seen
        });
        for (rank, seen) in res.per_rank.iter().enumerate() {
            for (before, after) in seen {
                assert_eq!(before, after, "rank {rank} migrated across a park");
            }
        }
        // Both carriers ran ranks (under the baton fallback, each rank has
        // a thread of its own).
        let threads: std::collections::HashSet<_> =
            res.per_rank.iter().map(|seen| seen[0].0).collect();
        assert!(threads.len() >= 2);
        assert!(res.sched.expect("every run reports").grants > 64 * 8);
    }

    // Under the baton fallback every rank has a thread of its own, so
    // thread ids cannot name its carrier there.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(netsim_baton)))]
    #[test]
    fn bounded_carriers_run_contiguous_rank_blocks() {
        // 7 ranks on 3 carriers: blocks of 3, 2 and 2 neighbouring ranks,
        // one thread each.
        let res = run(uniform_cfg(7).with_exec(ExecPolicy::bounded(3)), |_| {
            std::thread::current().id()
        });
        let ids = &res.per_rank;
        for block in [0..3, 3..5, 5..7] {
            let first = ids[block.start];
            assert!(
                ids[block.clone()].iter().all(|&id| id == first),
                "{block:?}"
            );
        }
        assert_ne!(ids[0], ids[3]);
        assert_ne!(ids[0], ids[5]);
        assert_ne!(ids[3], ids[5]);
    }

    /// Recurse `depth` frames of about 1 KiB each.
    fn deep(depth: usize) -> usize {
        let frame = std::hint::black_box([depth as u8; 1024]);
        if depth == 0 {
            return frame[0] as usize;
        }
        deep(depth - 1) + std::hint::black_box(frame)[1] as usize
    }

    #[cfg(unix)]
    #[test]
    fn rank_stack_overflow_hits_the_guard_page() {
        // Run in a child process (this test binary, filtered to this test):
        // a rank overflowing its 64 KiB stack must kill the child by signal
        // or abort rather than run on into other memory.
        use std::os::unix::process::ExitStatusExt;
        const CHILD: &str = "NETSIM_STACK_OVERFLOW_CHILD";
        if std::env::var_os(CHILD).is_some() {
            let exec = ExecPolicy::bounded(1).with_stack_size(64 << 10);
            run(SimConfig::new(1).with_exec(exec), |_| deep(1024));
            return;
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "runtime::tests::rank_stack_overflow_hits_the_guard_page",
                "--test-threads=1",
            ])
            .env(CHILD, "1")
            .output()
            .unwrap();
        assert!(
            out.status.signal().is_some(),
            "child must die by a signal, got {:?}; stdout: {}",
            out.status,
            String::from_utf8_lossy(&out.stdout)
        );
    }

    #[test]
    fn many_ranks_scale() {
        // Smoke test that the default engine handles Fig-3-scale rank
        // counts.
        let res = run(SimConfig::new(97), |ctx| {
            let m = ctx.machine().mpi;
            ctx.barrier(&m);
            ctx.rank()
        });
        assert_eq!(res.per_rank.len(), 97);
        assert!(res.per_rank.iter().enumerate().all(|(i, &r)| i == r));
    }
}
