//! One-sided communication: `MPI_Win` windows with `MPI_Put` and fence
//! synchronization — the `TARGET_COMM_MPI_1SIDE` translation target of the
//! directives.

use netsim::{Group, RankCtx, SegId, Time};

use crate::comm::Comm;
use crate::pod::{as_bytes, as_bytes_mut, Pod};

/// An RMA window: symmetric memory exposed by every rank of a communicator.
#[derive(Clone, Debug)]
pub struct Win {
    seg: SegId,
    group: Group,
    bytes: usize,
}

impl Win {
    /// Collective window creation over `comm` (`MPI_Win_create`); every
    /// member allocates `bytes` of exposed memory. Synchronizes the group.
    pub fn create(ctx: &mut RankCtx, comm: &Comm, bytes: usize) -> Win {
        let m = ctx.machine().mpi;
        let group = comm.group().clone();
        let seg = ctx.sym_alloc(&group, bytes, &m);
        Win { seg, group, bytes }
    }

    /// Window size per rank in bytes.
    pub fn len(&self) -> usize {
        self.bytes
    }

    /// Whether the window is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// The underlying segment id (for interop with the directive engine).
    pub fn segment(&self) -> SegId {
        self.seg
    }

    /// `MPI_Put` of raw bytes into `target` (global rank) at byte offset
    /// `disp`. Charges the MPI one-sided initiation cost; completion is
    /// deferred to the next fence. Returns the virtual arrival time.
    pub fn put(&self, ctx: &mut RankCtx, target: usize, disp: usize, data: &[u8]) -> Time {
        let m = ctx.machine().mpi;
        ctx.put(self.seg, target, disp, data, &m, true)
    }

    /// `MPI_Get` of raw bytes from `target` at byte offset `disp`
    /// (blocking round trip in this simulator).
    pub fn get(&self, ctx: &mut RankCtx, target: usize, disp: usize, out: &mut [u8]) {
        let m = ctx.machine().mpi;
        ctx.get(self.seg, target, disp, out, &m);
    }

    /// `MPI_Win_fence`: complete all outstanding puts and synchronize the
    /// group, reconciling clocks.
    pub fn fence(&self, ctx: &mut RankCtx) {
        let m = ctx.machine().mpi;
        ctx.quiet(&m);
        ctx.barrier_group(&self.group, &m);
    }

    /// Read this rank's own window memory.
    pub fn read_local<T: Pod>(&self, ctx: &RankCtx, elem_disp: usize, out: &mut [T]) {
        ctx.read_local(
            self.seg,
            elem_disp * std::mem::size_of::<T>(),
            as_bytes_mut(out),
        );
    }

    /// Write this rank's own window memory.
    pub fn write_local<T: Pod>(&self, ctx: &RankCtx, elem_disp: usize, data: &[T]) {
        ctx.write_local(
            self.seg,
            elem_disp * std::mem::size_of::<T>(),
            as_bytes(data),
        );
    }

    /// Physically wait for `count` signalled deliveries into this rank's
    /// window, returning the virtual arrival time of the last one (used by
    /// the directive engine; does not advance the clock).
    pub fn wait_deliveries_raw(&self, ctx: &RankCtx, count: usize) -> Time {
        ctx.wait_signals_raw(self.seg, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{run, SimConfig};

    #[test]
    fn put_fence_read() {
        run(SimConfig::new(2), |ctx| {
            let w = Comm::world(ctx);
            let win = Win::create(ctx, &w, 64);
            if w.rank(ctx) == 0 {
                win.put(ctx, 1, 2 * 8, as_bytes(&[3.5f64, 4.5]));
            }
            win.fence(ctx);
            if w.rank(ctx) == 1 {
                let mut out = [0f64; 2];
                win.read_local(ctx, 2, &mut out);
                assert_eq!(out, [3.5, 4.5]);
            }
        });
    }

    #[test]
    fn fence_reconciles_clocks() {
        let res = run(SimConfig::new(3), |ctx| {
            let w = Comm::world(ctx);
            let win = Win::create(ctx, &w, 8);
            if w.rank(ctx) == 2 {
                ctx.compute(Time::from_micros(500));
            }
            win.fence(ctx);
            ctx.now()
        });
        let t0 = res.per_rank[0];
        assert!(res.per_rank.iter().all(|&t| t == t0));
        assert!(t0 >= Time::from_micros(500));
    }

    #[test]
    fn get_round_trip() {
        run(SimConfig::new(2), |ctx| {
            let w = Comm::world(ctx);
            let win = Win::create(ctx, &w, 16);
            if w.rank(ctx) == 1 {
                win.write_local(ctx, 0, &[7i64, 8]);
            }
            win.fence(ctx);
            if w.rank(ctx) == 0 {
                let before = ctx.now();
                let mut out = [0u8; 16];
                win.get(ctx, 1, 0, &mut out);
                assert!(ctx.now() > before, "get must charge a round trip");
                let vals: Vec<i64> = crate::pod::vec_from_bytes(&out);
                assert_eq!(vals, vec![7, 8]);
            }
        });
    }
}
