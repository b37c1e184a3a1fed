//! Minimal collective operations built from point-to-point messages.
//!
//! The paper's directives cover point-to-point only, with collectives named
//! as future work; WL-LSMS and the benchmark harness still need a few
//! (parameter broadcast, result reduction), so we provide tree-based
//! implementations on top of [`Comm`].

use bytes::Bytes;
use netsim::RankCtx;

use crate::comm::Comm;
use crate::pod::{as_bytes, copy_from_bytes, Pod};

/// Reserved user-tag base for collectives (top of the user tag space).
const COLL_TAG: i32 = (1 << 20) - 16;

/// Binomial-tree broadcast from local rank `root`; `buf` is the source on
/// the root and the destination elsewhere.
pub fn bcast<T: Pod>(ctx: &mut RankCtx, comm: &Comm, root: usize, buf: &mut [T]) {
    let n = comm.size();
    if n <= 1 {
        return;
    }
    let me = comm.rank(ctx);
    // Rotate so the root is virtual rank 0.
    let vrank = (me + n - root) % n;
    let mut mask = 1usize;
    // Receive phase: find my parent.
    while mask < n {
        if vrank & mask != 0 {
            let parent = (vrank - mask + root) % n;
            comm.recv_into(ctx, Some(parent), Some(COLL_TAG), buf);
            break;
        }
        mask <<= 1;
    }
    // Send phase: fan out to children below my lowest set bit. One physical
    // copy of the payload, refcount-shared across children (the virtual
    // charges — o_send + per-child wait — are unchanged).
    let mut child_mask = mask >> 1;
    let mut shared: Option<Bytes> = None;
    while child_mask > 0 {
        let vchild = vrank + child_mask;
        if vchild < n {
            let child = (vchild + root) % n;
            let payload = shared
                .get_or_insert_with(|| Bytes::copy_from_slice(as_bytes(buf)))
                .clone();
            let req = comm.isend_bytes(ctx, child, COLL_TAG, payload);
            comm.wait_send(ctx, &req);
        }
        child_mask >>= 1;
    }
}

/// Binomial-tree reduction to local rank `root` with operator `op`
/// (elementwise). `buf` holds this rank's contribution on entry; on the
/// root it holds the reduced result on exit.
pub fn reduce<T: Pod>(
    ctx: &mut RankCtx,
    comm: &Comm,
    root: usize,
    buf: &mut [T],
    mut op: impl FnMut(T, T) -> T,
) {
    let n = comm.size();
    if n <= 1 {
        return;
    }
    let me = comm.rank(ctx);
    let vrank = (me + n - root) % n;
    let mut mask = 1usize;
    let mut scratch = vec![buf[0]; buf.len()];
    while mask < n {
        if vrank & mask == 0 {
            let vsrc = vrank | mask;
            if vsrc < n {
                let src = (vsrc + root) % n;
                comm.recv_into(ctx, Some(src), Some(COLL_TAG + 1), &mut scratch);
                for (b, s) in buf.iter_mut().zip(scratch.iter()) {
                    *b = op(*b, *s);
                }
            }
        } else {
            let vdst = vrank & !mask;
            let dst = (vdst + root) % n;
            comm.send(ctx, dst, COLL_TAG + 1, as_bytes(buf));
            return;
        }
        mask <<= 1;
    }
}

/// Linear gather of equal-size contributions to local rank `root`.
/// On the root, `recv` must have `comm.size() * send.len()` elements.
pub fn gather<T: Pod>(ctx: &mut RankCtx, comm: &Comm, root: usize, send: &[T], recv: &mut [T]) {
    let n = comm.size();
    let me = comm.rank(ctx);
    let k = send.len();
    if me == root {
        assert_eq!(recv.len(), n * k, "gather buffer size mismatch");
        recv[root * k..(root + 1) * k].copy_from_slice(send);
        let mut reqs = Vec::new();
        let mut order = Vec::new();
        for src in (0..n).filter(|&r| r != root) {
            reqs.push(comm.irecv(ctx, Some(src), Some(COLL_TAG + 2)));
            order.push(src);
        }
        let outs = comm.waitall(ctx, &[], &reqs);
        for (src, out) in order.into_iter().zip(outs) {
            copy_from_bytes(&mut recv[src * k..(src + 1) * k], &out.data);
        }
    } else {
        comm.send(ctx, root, COLL_TAG + 2, as_bytes(send));
    }
}

/// Linear scatter of equal-size pieces from local rank `root`.
/// On the root, `send` must have `comm.size() * recv.len()` elements.
pub fn scatter<T: Pod>(ctx: &mut RankCtx, comm: &Comm, root: usize, send: &[T], recv: &mut [T]) {
    let n = comm.size();
    let me = comm.rank(ctx);
    let k = recv.len();
    if me == root {
        assert_eq!(send.len(), n * k, "scatter buffer size mismatch");
        let mut reqs = Vec::new();
        for dst in (0..n).filter(|&r| r != root) {
            reqs.push(comm.isend(
                ctx,
                dst,
                COLL_TAG + 3,
                as_bytes(&send[dst * k..(dst + 1) * k]),
            ));
        }
        recv.copy_from_slice(&send[root * k..(root + 1) * k]);
        comm.waitall(ctx, &reqs, &[]);
    } else {
        comm.recv_into(ctx, Some(root), Some(COLL_TAG + 3), recv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{run, SimConfig};

    #[test]
    fn bcast_all_roots_all_sizes() {
        for n in [1usize, 2, 3, 5, 8] {
            for root in 0..n {
                let res = run(SimConfig::new(n), move |ctx| {
                    let w = Comm::world(ctx);
                    let mut v = if w.rank(ctx) == root {
                        [10i64, 20, 30]
                    } else {
                        [0i64; 3]
                    };
                    bcast(ctx, &w, root, &mut v);
                    v
                });
                for v in res.per_rank {
                    assert_eq!(v, [10, 20, 30], "n={n} root={root}");
                }
            }
        }
    }

    #[test]
    fn reduce_sum() {
        for n in [1usize, 2, 4, 7] {
            let res = run(SimConfig::new(n), move |ctx| {
                let w = Comm::world(ctx);
                let mut v = [w.rank(ctx) as f64, 1.0];
                reduce(ctx, &w, 0, &mut v, |a, b| a + b);
                v
            });
            let expect_sum = (0..n).sum::<usize>() as f64;
            assert_eq!(res.per_rank[0], [expect_sum, n as f64]);
        }
    }

    #[test]
    fn gather_and_scatter_roundtrip() {
        let n = 5;
        let res = run(SimConfig::new(n), move |ctx| {
            let w = Comm::world(ctx);
            let me = w.rank(ctx);
            let mine = [me as i32 * 2, me as i32 * 2 + 1];
            let mut all = vec![0i32; if me == 1 { n * 2 } else { 0 }];
            gather(ctx, &w, 1, &mine, &mut all);
            let mut back = [0i32; 2];
            let send = if me == 1 { all.clone() } else { Vec::new() };
            scatter(ctx, &w, 1, &send, &mut back);
            back
        });
        for (r, v) in res.per_rank.iter().enumerate() {
            assert_eq!(*v, [r as i32 * 2, r as i32 * 2 + 1]);
        }
    }
}
