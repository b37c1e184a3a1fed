//! # shmemsim — a SHMEM-flavoured one-sided library over `netsim`
//!
//! The second translation target of the `commint` directives
//! (`TARGET_COMM_SHMEM`). Models the characteristics the paper exploits:
//! symmetric data objects, thin typed put calls whose name encodes the
//! element size ("data type selection is tightly coupled with the
//! communication call, in that the data type is embedded in the name of the
//! library call"), and explicit ordering primitives (`fence`, `quiet`,
//! `barrier_all`) instead of per-message completion.
//!
//! Element-size-matched puts are what the directive translator must select
//! when targeting SHMEM; [`TypedPut::for_elem_size`] reproduces that
//! compiler decision and is unit-tested against it.

use mpisim::pod::{as_bytes, as_bytes_mut, Pod};
use netsim::{CostModel, Group, RankCtx, SegId, Time};

/// Which `shmem_put` variant a transfer maps to, by element size — the
/// name-encoded type selection the paper describes for SHMEM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TypedPut {
    /// `shmem_putmem` (byte-granular).
    PutMem,
    /// `shmem_put16`.
    Put16,
    /// `shmem_put32` (e.g. `int`, `float`).
    Put32,
    /// `shmem_put64` (e.g. `long long`, `double`).
    Put64,
    /// `shmem_put128` (long double / vector pairs).
    Put128,
}

impl TypedPut {
    /// Select the put variant whose granularity matches an element size, as
    /// the compiler does when translating a directive to SHMEM.
    pub fn for_elem_size(bytes: usize) -> TypedPut {
        match bytes {
            2 => TypedPut::Put16,
            4 => TypedPut::Put32,
            8 => TypedPut::Put64,
            16 => TypedPut::Put128,
            _ => TypedPut::PutMem,
        }
    }

    /// The SHMEM call name (for generated-code rendering and traces).
    pub fn call_name(self) -> &'static str {
        match self {
            TypedPut::PutMem => "shmem_putmem",
            TypedPut::Put16 => "shmem_put16",
            TypedPut::Put32 => "shmem_put32",
            TypedPut::Put64 => "shmem_put64",
            TypedPut::Put128 => "shmem_put128",
        }
    }

    /// The strided-put (`shmem_iput*`) call name of the same granularity:
    /// ships a strided layout in one call with no intermediate pack copy
    /// (the transfer engine walks the stride). Byte-granular layouts have
    /// no strided variant and fall back to `shmem_putmem`.
    pub fn iput_name(self) -> &'static str {
        match self {
            TypedPut::PutMem => "shmem_putmem",
            TypedPut::Put16 => "shmem_iput16",
            TypedPut::Put32 => "shmem_iput32",
            TypedPut::Put64 => "shmem_iput64",
            TypedPut::Put128 => "shmem_iput128",
        }
    }
}

/// The SHMEM "processing element" view of a rank context: `my_pe`/`n_pes`
/// naming plus the global symmetric-heap operations.
pub fn my_pe(ctx: &RankCtx) -> usize {
    ctx.rank()
}

/// Number of PEs in the job.
pub fn n_pes(ctx: &RankCtx) -> usize {
    ctx.nranks()
}

fn model(ctx: &RankCtx) -> CostModel {
    ctx.machine().shmem
}

/// A symmetric array of `T`: the same allocation exists on every PE of the
/// team. Created collectively (like `shmalloc`, which synchronizes).
#[derive(Clone, Copy, Debug)]
pub struct SymSlice<T: Pod> {
    seg: SegId,
    len: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Pod> SymSlice<T> {
    /// Collective allocation of `len` elements on every PE of the whole job.
    pub fn new(ctx: &mut RankCtx, len: usize) -> Self {
        let world = ctx.fabric().world().clone();
        Self::alloc(ctx, &world, len)
    }

    /// Collective allocation over an explicit team (ascending global ranks,
    /// must include the caller). Mirrors SHMEM teams.
    pub fn new_team(ctx: &mut RankCtx, team: &[usize], len: usize) -> Self {
        let team = ctx.fabric().group(team);
        Self::alloc(ctx, &team, len)
    }

    fn alloc(ctx: &mut RankCtx, team: &Group, len: usize) -> Self {
        let m = model(ctx);
        let seg = ctx.sym_alloc(team, len * std::mem::size_of::<T>(), &m);
        SymSlice {
            seg,
            len,
            _marker: std::marker::PhantomData,
        }
    }

    /// Elements per PE.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the allocation is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Underlying segment id (directive-engine interop).
    pub fn segment(&self) -> SegId {
        self.seg
    }

    /// `shmem_putN`: deposit `data` into `target`'s copy at element offset
    /// `dst_off`. Completion is deferred to `quiet`/`barrier_all`. Returns
    /// the virtual arrival time. The delivery is signalled so a receiver can
    /// wait for it (`shmem_wait`-style).
    pub fn put(&self, ctx: &mut RankCtx, target: usize, dst_off: usize, data: &[T]) -> Time {
        let m = model(ctx);
        ctx.put(
            self.seg,
            target,
            dst_off * std::mem::size_of::<T>(),
            as_bytes(data),
            &m,
            true,
        )
    }

    /// `shmem_getN`: blocking fetch from `target`'s copy.
    pub fn get(&self, ctx: &mut RankCtx, target: usize, src_off: usize, out: &mut [T]) {
        let m = model(ctx);
        ctx.get(
            self.seg,
            target,
            src_off * std::mem::size_of::<T>(),
            as_bytes_mut(out),
            &m,
        );
    }

    /// Read this PE's own copy (local load, free).
    pub fn read_local(&self, ctx: &RankCtx, off: usize, out: &mut [T]) {
        ctx.read_local(self.seg, off * std::mem::size_of::<T>(), as_bytes_mut(out));
    }

    /// Write this PE's own copy (local store, free).
    pub fn write_local(&self, ctx: &RankCtx, off: usize, data: &[T]) {
        ctx.write_local(self.seg, off * std::mem::size_of::<T>(), as_bytes(data));
    }

    /// Physically wait until `count` signalled puts have landed in this
    /// PE's copy; returns the virtual arrival time of the `count`-th.
    /// Does not advance the clock (pair with `advance_to` or a consolidated
    /// charge) — this is the `shmem_int_wait_until` analogue used by the
    /// directive engine.
    pub fn wait_deliveries_raw(&self, ctx: &RankCtx, count: usize) -> Time {
        ctx.wait_signals_raw(self.seg, count)
    }
}

/// Coalesced packed put: charge the pack copy for assembling a framed
/// batch of small messages, then issue one signalled `shmem_putmem` of the
/// whole batch. The SHMEM half of the directive layer's small-message
/// aggregation: one put (one `o_put`, one signal) replaces a batch of
/// element-wise puts. Returns the virtual arrival time.
pub fn put_packed(
    ctx: &mut RankCtx,
    seg: SegId,
    target: usize,
    dst_off: usize,
    payload: &[u8],
) -> Time {
    let m = model(ctx);
    ctx.charge_pack(payload.len(), &m);
    ctx.put(seg, target, dst_off, payload, &m, true)
}

/// `shmem_fence`: order puts to each PE (charged as a light quiet here —
/// Gemini implements fence as a lightweight ordering point).
pub fn fence(ctx: &mut RankCtx) {
    let m = model(ctx);
    // Ordering only: charge the quiet overhead but do not wait for arrival.
    ctx.charge(Time::from_nanos(m.o_quiet / 2));
}

/// `shmem_quiet`: complete all outstanding puts from this PE.
pub fn quiet(ctx: &mut RankCtx) {
    let m = model(ctx);
    ctx.quiet(&m);
}

/// `shmem_barrier_all`: quiet + barrier over all PEs, reconciling clocks.
pub fn barrier_all(ctx: &mut RankCtx) {
    let m = model(ctx);
    ctx.quiet(&m);
    ctx.barrier(&m);
}

/// Team barrier (quiet + barrier over `team`).
pub fn barrier_team(ctx: &mut RankCtx, team: &[usize]) {
    let m = model(ctx);
    let team = ctx.fabric().group(team);
    ctx.quiet(&m);
    ctx.barrier_group(&team, &m);
}

/// `shmem_broadcast`-alike: root puts to every other PE of `team`, then a
/// team barrier. Simple linear fan-out (SHMEM implementations on Gemini use
/// the BTE for exactly this in small teams).
pub fn broadcast<T: Pod>(
    ctx: &mut RankCtx,
    sym: &SymSlice<T>,
    team: &[usize],
    root: usize,
    data: &mut [T],
) {
    if ctx.rank() == root {
        sym.write_local(ctx, 0, data);
        for &pe in team.iter().filter(|&&p| p != root) {
            sym.put(ctx, pe, 0, data);
        }
    }
    barrier_team(ctx, team);
    if ctx.rank() != root {
        sym.read_local(ctx, 0, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{run, SimConfig};

    #[test]
    fn typed_put_selection() {
        assert_eq!(TypedPut::for_elem_size(8), TypedPut::Put64);
        assert_eq!(TypedPut::for_elem_size(4), TypedPut::Put32);
        assert_eq!(TypedPut::for_elem_size(2), TypedPut::Put16);
        assert_eq!(TypedPut::for_elem_size(16), TypedPut::Put128);
        assert_eq!(TypedPut::for_elem_size(1), TypedPut::PutMem);
        assert_eq!(TypedPut::for_elem_size(3), TypedPut::PutMem);
        assert_eq!(TypedPut::Put64.call_name(), "shmem_put64");
    }

    #[test]
    fn put_barrier_read() {
        run(SimConfig::new(3), |ctx| {
            let sym = SymSlice::<f64>::new(ctx, 4);
            if my_pe(ctx) == 0 {
                for pe in 1..n_pes(ctx) {
                    sym.put(ctx, pe, 1, &[pe as f64 * 10.0]);
                }
            }
            barrier_all(ctx);
            if my_pe(ctx) != 0 {
                let mut out = [0f64; 1];
                sym.read_local(ctx, 1, &mut out);
                assert_eq!(out[0], my_pe(ctx) as f64 * 10.0);
            }
        });
    }

    #[test]
    fn quiet_completes_puts() {
        let res = run(SimConfig::new(2), |ctx| {
            let sym = SymSlice::<i32>::new(ctx, 1024);
            if my_pe(ctx) == 0 {
                let data = vec![7i32; 1024];
                let arrival = sym.put(ctx, 1, 0, &data);
                let before = ctx.now();
                assert!(before < arrival, "put initiation returns early");
                quiet(ctx);
                assert!(ctx.now() >= arrival, "quiet waits for arrival");
            }
            barrier_all(ctx);
            ctx.now()
        });
        assert_eq!(res.per_rank[0], res.per_rank[1]);
    }

    #[test]
    fn signalled_delivery_wait() {
        run(SimConfig::new(2), |ctx| {
            let sym = SymSlice::<f64>::new(ctx, 3);
            if my_pe(ctx) == 0 {
                sym.put(ctx, 1, 0, &[1.0, 2.0, 3.0]);
                quiet(ctx);
            } else {
                let arrival = sym.wait_deliveries_raw(ctx, 1);
                ctx.advance_to(arrival);
                let mut out = [0f64; 3];
                sym.read_local(ctx, 0, &mut out);
                assert_eq!(out, [1.0, 2.0, 3.0]);
            }
        });
    }

    #[test]
    fn packed_put_delivers_and_charges_pack() {
        let res = run(SimConfig::new(2), |ctx| {
            let sym = SymSlice::<u8>::new(ctx, 64);
            if my_pe(ctx) == 0 {
                let batch: Vec<u8> = (0..48u8).collect();
                put_packed(ctx, sym.segment(), 1, 0, &batch);
                quiet(ctx);
            } else {
                let arrival = sym.wait_deliveries_raw(ctx, 1);
                ctx.advance_to(arrival);
                let mut out = [0u8; 48];
                sym.read_local(ctx, 0, &mut out);
                assert!(out.iter().enumerate().all(|(i, &b)| b == i as u8));
            }
        });
        assert_eq!(res.stats[0].packed_bytes, 48);
        assert_eq!(res.stats[0].puts, 1);
    }

    #[test]
    fn team_broadcast() {
        run(SimConfig::new(4), |ctx| {
            let team = [0usize, 1, 2, 3];
            let sym = SymSlice::<i64>::new(ctx, 2);
            let mut data = if my_pe(ctx) == 2 { [5i64, 6] } else { [0; 2] };
            broadcast(ctx, &sym, &team, 2, &mut data);
            assert_eq!(data, [5, 6]);
        });
    }

    #[test]
    fn get_round_trip_charges() {
        run(SimConfig::new(2), |ctx| {
            let sym = SymSlice::<u8>::new(ctx, 8);
            if my_pe(ctx) == 1 {
                sym.write_local(ctx, 0, b"SYMHEAP!");
            }
            barrier_all(ctx);
            if my_pe(ctx) == 0 {
                let before = ctx.now();
                let mut out = [0u8; 8];
                sym.get(ctx, 1, 0, &mut out);
                assert_eq!(&out, b"SYMHEAP!");
                assert!(ctx.now() > before);
            }
        });
    }

    #[test]
    fn sanitizer_sees_through_shmem_wrappers_clean_workload() {
        // The SymSlice wrappers delegate to the instrumented RankCtx
        // entry points, so the shadow-state sanitizer covers SHMEM-level
        // programs with no extra plumbing. A properly synchronized
        // put/barrier/read workload must come out clean.
        let res = run(
            SimConfig::new(3).with_exec(netsim::ExecPolicy::bounded(3).with_sanitize()),
            |ctx| {
                let sym = SymSlice::<f64>::new(ctx, 4);
                if my_pe(ctx) == 0 {
                    for pe in 1..n_pes(ctx) {
                        sym.put(ctx, pe, 1, &[pe as f64 * 10.0]);
                    }
                }
                barrier_all(ctx);
                if my_pe(ctx) != 0 {
                    let mut out = [0f64; 1];
                    sym.read_local(ctx, 1, &mut out);
                    assert_eq!(out[0], my_pe(ctx) as f64 * 10.0);
                }
            },
        );
        let report = res.sanitize.expect("sanitizer enabled");
        assert!(report.race_checks > 0, "wrappers bypassed the sanitizer");
        report.assert_clean();
    }

    #[test]
    fn sanitizer_flags_unwaited_shmem_read() {
        // Same workload with the receive-side wait removed: reading the
        // landing zone without waiting for the signalled delivery is the
        // CI012 shape, and the sanitizer attributes it to the reader.
        let res = run(
            SimConfig::new(2).with_exec(netsim::ExecPolicy::bounded(2).with_sanitize()),
            |ctx| {
                let sym = SymSlice::<f64>::new(ctx, 3);
                if my_pe(ctx) == 0 {
                    sym.put(ctx, 1, 0, &[1.0, 2.0, 3.0]);
                    quiet(ctx);
                } else {
                    let mut out = [0f64; 3];
                    sym.read_local(ctx, 0, &mut out);
                    let arrival = sym.wait_deliveries_raw(ctx, 1);
                    ctx.advance_to(arrival);
                }
            },
        );
        let report = res.sanitize.expect("sanitizer enabled");
        assert_eq!(report.conflicts_found(), 1, "{report:?}");
        assert!(report.codes().contains("CI012"), "{report:?}");
    }

    #[test]
    fn subteam_allocation() {
        run(SimConfig::new(4), |ctx| {
            // Only PEs 1..4 participate.
            let team = [1usize, 2, 3];
            if team.contains(&my_pe(ctx)) {
                let sym = SymSlice::<i32>::new_team(ctx, &team, 2);
                if my_pe(ctx) == 1 {
                    sym.put(ctx, 3, 0, &[42, 43]);
                }
                barrier_team(ctx, &team);
                if my_pe(ctx) == 3 {
                    let mut out = [0i32; 2];
                    sym.read_local(ctx, 0, &mut out);
                    assert_eq!(out, [42, 43]);
                }
            }
        });
    }
}
