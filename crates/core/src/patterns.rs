//! Reusable structured communication patterns built on the directives.
//!
//! The paper motivates the clause vocabulary with "a variety of
//! point-to-point communication patterns that are recurring in scientific
//! applications" (Vetter & Mueller; Kim & Lilja; Riesen). These helpers
//! package the common ones so applications get a one-liner and the analyses
//! still see ordinary directive IR — "the directives also enable
//! opportunities for reusing structured communication patterns on different
//! code regions".

use crate::buffer::{Prim, PrimElem, PrimMut, PrimStridedMut};
use crate::clause::Target;
use crate::expr::RankExpr;
use crate::scope::{CommParams, CommSession, DirectiveError};

/// Cyclic ring: every rank sends `send` to `(rank+1) % n` and receives
/// into `recv` from `(rank-1+n) % n` (paper Listing 1).
pub fn ring<T: PrimElem>(
    session: &mut CommSession<'_>,
    target: Target,
    send: &[T],
    recv: &mut [T],
) -> Result<(), DirectiveError> {
    cyclic_shift(session, target, 1, send, recv)
}

/// Cyclic shift by `k`: send to `(rank+k) % n`, receive from
/// `(rank-k+n) % n`.
pub fn cyclic_shift<T: PrimElem>(
    session: &mut CommSession<'_>,
    target: Target,
    k: i64,
    send: &[T],
    recv: &mut [T],
) -> Result<(), DirectiveError> {
    let n = RankExpr::nranks;
    let params = CommParams::new()
        .sender(((RankExpr::rank() - RankExpr::lit(k)) % n() + n()) % n())
        .receiver((RankExpr::rank() + RankExpr::lit(k)) % n())
        .target(target);
    session.region(&params, |reg| {
        reg.p2p()
            .sbuf(Prim::new("shift_send", send))
            .rbuf(PrimMut::new("shift_recv", recv))
            .run()
    })?
}

/// Linear (non-cyclic) right shift by one: ranks `0..n-1` send to `rank+1`;
/// ranks `1..n` receive from `rank-1`. Boundary ranks are excluded by the
/// `sendwhen`/`receivewhen` pair.
pub fn linear_shift<T: PrimElem>(
    session: &mut CommSession<'_>,
    target: Target,
    send: &[T],
    recv: &mut [T],
) -> Result<(), DirectiveError> {
    let params = CommParams::new()
        .sender(RankExpr::rank() - RankExpr::lit(1))
        .receiver(RankExpr::rank() + RankExpr::lit(1))
        .sendwhen(RankExpr::rank().lt(RankExpr::nranks() - RankExpr::lit(1)))
        .receivewhen(RankExpr::rank().gt(RankExpr::lit(0)))
        .target(target);
    session.region(&params, |reg| {
        reg.p2p()
            .sbuf(Prim::new("lshift_send", send))
            .rbuf(PrimMut::new("lshift_recv", recv))
            .run()
    })?
}

/// Even→odd nearest-neighbour pairs (paper Listing 2): even ranks send to
/// `rank+1`, odd ranks receive from `rank-1`.
pub fn even_odd_pairs<T: PrimElem>(
    session: &mut CommSession<'_>,
    target: Target,
    send: &[T],
    recv: &mut [T],
) -> Result<(), DirectiveError> {
    let two = || RankExpr::lit(2);
    let params = CommParams::new()
        .sender(RankExpr::rank() - RankExpr::lit(1))
        .receiver(RankExpr::rank() + RankExpr::lit(1))
        .sendwhen(
            (RankExpr::rank() % two())
                .eq(RankExpr::lit(0))
                .and(RankExpr::rank().lt(RankExpr::nranks() - RankExpr::lit(1))),
        )
        .receivewhen((RankExpr::rank() % two()).eq(RankExpr::lit(1)))
        .target(target);
    session.region(&params, |reg| {
        reg.p2p()
            .sbuf(Prim::new("pair_send", send))
            .rbuf(PrimMut::new("pair_recv", recv))
            .run()
    })?
}

/// Fan-out from `root`: the root sends `chunks[d]` to each rank `d != root`;
/// every other rank receives its chunk into `recv`. One region, one
/// consolidated sync (the setEvec shape).
pub fn fan_out<T: PrimElem>(
    session: &mut CommSession<'_>,
    target: Target,
    root: usize,
    chunks: &[Vec<T>],
    recv: &mut [T],
) -> Result<(), DirectiveError> {
    let n = session.size();
    assert!(root < n, "root out of range");
    let iters = (n - 1) as i64;
    let params = CommParams::new()
        .sender(RankExpr::lit(root as i64))
        .receiver(RankExpr::var("fan_dest"))
        .sendwhen(RankExpr::rank().eq(RankExpr::lit(root as i64)))
        .receivewhen(RankExpr::rank().eq(RankExpr::var("fan_dest")))
        .max_comm_iter(iters.max(1))
        .target(target);
    let me = session.rank();
    if me == root {
        assert_eq!(chunks.len(), n, "fan_out needs one chunk per rank");
    }
    let count = recv.len();
    session.region(&params, |reg| {
        let empty: [T; 0] = [];
        for d in (0..n).filter(|&d| d != root) {
            reg.set_var("fan_dest", d as i64);
            // Non-root senders never fire; an empty well-typed dummy
            // satisfies the sbuf clause (the explicit count rules).
            let src: &[T] = if me == root { &chunks[d] } else { &empty };
            reg.p2p()
                .site(7001)
                .count(count)
                .sbuf(Prim::new("fan_chunk", src))
                .rbuf(PrimMut::new("fan_recv", &mut *recv))
                .run()?;
        }
        Ok(())
    })?
}

/// Fan-in to `root`: every rank `d != root` sends `send`; the root
/// receives each rank's contribution into `out[d]`.
pub fn fan_in<T: PrimElem>(
    session: &mut CommSession<'_>,
    target: Target,
    root: usize,
    send: &[T],
    out: &mut [Vec<T>],
) -> Result<(), DirectiveError> {
    let n = session.size();
    assert!(root < n, "root out of range");
    let params = CommParams::new()
        .sender(RankExpr::var("fan_src"))
        .receiver(RankExpr::lit(root as i64))
        .sendwhen(RankExpr::rank().eq(RankExpr::var("fan_src")))
        .receivewhen(RankExpr::rank().eq(RankExpr::lit(root as i64)))
        .max_comm_iter((n as i64 - 1).max(1))
        .target(target);
    let me = session.rank();
    session.region(&params, |reg| {
        for s in (0..n).filter(|&s| s != root) {
            reg.set_var("fan_src", s as i64);
            if me == root {
                assert_eq!(out.len(), n, "fan_in needs one slot per rank");
            }
            let dst: &mut [T] = if me == root {
                &mut out[s]
            } else {
                // Non-root receivers never fire; any same-typed target works.
                &mut []
            };
            // Count must be SPMD-uniform: use the sender's length.
            let r = reg
                .p2p()
                .site(7002)
                .count(send.len())
                .sbuf(Prim::new("fanin_send", send))
                .rbuf(PrimMut::new("fanin_out", dst))
                .run();
            r?;
        }
        Ok(())
    })?
}

/// 1-D halo exchange: each rank sends its left edge to `rank-1` and its
/// right edge to `rank+1`, receiving ghosts from both, within one region
/// (two `comm_p2p` sites, one consolidated sync).
#[allow(clippy::too_many_arguments)]
pub fn halo_1d<T: PrimElem>(
    session: &mut CommSession<'_>,
    target: Target,
    left_edge: &[T],
    right_edge: &[T],
    left_ghost: &mut [T],
    right_ghost: &mut [T],
) -> Result<(), DirectiveError> {
    let params = CommParams::new().target(target);
    session.region(&params, |reg| {
        // Rightward: send right edge to rank+1, receive left ghost from rank-1.
        reg.p2p()
            .site(7101)
            .sender(RankExpr::rank() - RankExpr::lit(1))
            .receiver(RankExpr::rank() + RankExpr::lit(1))
            .sendwhen(RankExpr::rank().lt(RankExpr::nranks() - RankExpr::lit(1)))
            .receivewhen(RankExpr::rank().gt(RankExpr::lit(0)))
            .sbuf(Prim::new("right_edge", right_edge))
            .rbuf(PrimMut::new("left_ghost", left_ghost))
            .run()?;
        // Leftward: send left edge to rank-1, receive right ghost from rank+1.
        reg.p2p()
            .site(7102)
            .sender(RankExpr::rank() + RankExpr::lit(1))
            .receiver(RankExpr::rank() - RankExpr::lit(1))
            .sendwhen(RankExpr::rank().gt(RankExpr::lit(0)))
            .receivewhen(RankExpr::rank().lt(RankExpr::nranks() - RankExpr::lit(1)))
            .sbuf(Prim::new("left_edge", left_edge))
            .rbuf(PrimMut::new("right_ghost", right_ghost))
            .run()?;
        Ok(())
    })?
}

/// 2-D halo exchange on a `rows x cols` column-major local grid arranged on
/// a `px x py` process grid: column halos move contiguously, row halos move
/// through **strided buffers** (the directive's automatic vector-datatype
/// handling — no manual packing).
///
/// `grid` has `(rows+2) x (cols+2)` storage including the ghost frame.
/// Ghosts are filled from the four neighbours where they exist.
#[allow(clippy::too_many_arguments)]
pub fn halo_2d<T: PrimElem>(
    session: &mut CommSession<'_>,
    target: Target,
    px: i64,
    py: i64,
    rows: usize,
    cols: usize,
    grid: &mut [T],
) -> Result<(), DirectiveError> {
    let ld = rows + 2; // leading dimension (column-major with ghost frame)
    assert_eq!(
        grid.len(),
        ld * (cols + 2),
        "grid must include the ghost frame"
    );
    let pxr = || RankExpr::lit(px);

    // Left/right neighbours exchange interior edge columns (contiguous).
    let my_col = RankExpr::rank() % pxr();
    let left_cond = my_col.clone().gt(RankExpr::lit(0));
    let right_cond = (RankExpr::rank() % pxr()).lt(RankExpr::lit(px - 1));
    let _ = py;

    // Columns are contiguous slices; rows are strided views.
    // Extract the four edges (copies for sends; ghosts written in place).
    let first_col: Vec<T> = grid[ld + 1..ld + 1 + rows].to_vec();
    let last_col: Vec<T> = grid[cols * ld + 1..cols * ld + 1 + rows].to_vec();

    let params = CommParams::new().target(target);
    session.region(&params, |reg| {
        // Rightward column: send last interior column to rank+1, receive
        // left ghost column from rank-1.
        let (ghost_left, rest) = grid.split_at_mut(ld);
        reg.p2p()
            .site(7201)
            .sender(RankExpr::rank() - RankExpr::lit(1))
            .receiver(RankExpr::rank() + RankExpr::lit(1))
            .sendwhen(right_cond.clone())
            .receivewhen(left_cond.clone())
            .count(rows)
            .sbuf(Prim::new("last_col", &last_col))
            .rbuf(PrimMut::new("ghost_left", &mut ghost_left[1..1 + rows]))
            .run()?;
        // Leftward column.
        let ghost_right_start = cols * ld; // within `rest` (offset by ld)
        reg.p2p()
            .site(7202)
            .sender(RankExpr::rank() + RankExpr::lit(1))
            .receiver(RankExpr::rank() - RankExpr::lit(1))
            .sendwhen(left_cond.clone())
            .receivewhen(right_cond.clone())
            .count(rows)
            .sbuf(Prim::new("first_col", &first_col))
            .rbuf(PrimMut::new(
                "ghost_right",
                &mut rest[ghost_right_start + 1..ghost_right_start + 1 + rows],
            ))
            .run()?;
        Ok::<(), DirectiveError>(())
    })??;

    // Up/down neighbours exchange interior edge rows via strided buffers.
    let up_cond = (RankExpr::rank() / pxr()).gt(RankExpr::lit(0));
    let down_cond = (RankExpr::rank() / pxr()).lt(RankExpr::lit(py - 1));
    let first_row: Vec<T> = (0..cols).map(|c| grid[(c + 1) * ld + 1]).collect();
    let last_row: Vec<T> = (0..cols).map(|c| grid[(c + 1) * ld + rows]).collect();

    let params = CommParams::new().target(target);
    session.region(&params, |reg| {
        // Downward row: send last interior row to rank+px; ghost row 0
        // (top) comes from rank-px — written through a strided view, the
        // MPI_Type_vector case.
        reg.p2p()
            .site(7203)
            .sender(RankExpr::rank() - pxr())
            .receiver(RankExpr::rank() + pxr())
            .sendwhen(down_cond.clone())
            .receivewhen(up_cond.clone())
            .count(cols)
            .sbuf(Prim::new("last_row", &last_row))
            .rbuf(PrimStridedMut::new("ghost_top_row", &mut grid[ld..], 1, ld))
            .run()?;
        Ok::<(), DirectiveError>(())
    })??;

    let params = CommParams::new().target(target);
    session.region(&params, |reg| {
        // Upward row into the bottom ghost row (index rows+1 of each col).
        reg.p2p()
            .site(7204)
            .sender(RankExpr::rank() + pxr())
            .receiver(RankExpr::rank() - pxr())
            .sendwhen(up_cond)
            .receivewhen(down_cond)
            .count(cols)
            .sbuf(Prim::new("first_row", &first_row))
            .rbuf(PrimStridedMut::new(
                "ghost_bottom_row",
                &mut grid[ld + rows + 1..],
                1,
                ld,
            ))
            .run()?;
        Ok::<(), DirectiveError>(())
    })??;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::Comm;
    use netsim::{run, SimConfig};

    fn with_session<R: Send>(n: usize, f: impl Fn(&mut CommSession<'_>) -> R + Sync) -> Vec<R> {
        run(SimConfig::new(n), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let out = f(&mut session);
            session.flush();
            out
        })
        .per_rank
    }

    #[test]
    fn ring_rotates_all_targets() {
        for target in Target::ALL {
            let n = 5;
            let got = with_session(n, move |s| {
                let me = s.rank() as i64;
                let send = [me, me * 10];
                let mut recv = [0i64; 2];
                ring(s, target, &send, &mut recv).unwrap();
                recv
            });
            for (r, v) in got.iter().enumerate() {
                let prev = ((r + n - 1) % n) as i64;
                assert_eq!(*v, [prev, prev * 10], "target {target}");
            }
        }
    }

    #[test]
    fn cyclic_shift_by_k() {
        let n = 7;
        for k in [2i64, 3, 6] {
            let got = with_session(n, move |s| {
                let me = s.rank() as i64;
                let send = [me];
                let mut recv = [-1i64];
                cyclic_shift(s, Target::Mpi2Side, k, &send, &mut recv).unwrap();
                recv[0]
            });
            for (r, &v) in got.iter().enumerate() {
                assert_eq!(v as usize, (r + n - k as usize) % n, "k={k}");
            }
        }
    }

    #[test]
    fn linear_shift_excludes_boundaries() {
        let n = 6;
        let got = with_session(n, move |s| {
            let me = s.rank() as i64;
            let send = [me + 100];
            let mut recv = [-1i64];
            linear_shift(s, Target::Mpi2Side, &send, &mut recv).unwrap();
            recv[0]
        });
        assert_eq!(got[0], -1, "rank 0 receives nothing");
        for (r, &v) in got.iter().enumerate().skip(1) {
            assert_eq!(v, r as i64 - 1 + 100);
        }
    }

    #[test]
    fn even_odd_delivery() {
        let n = 8;
        let got = with_session(n, move |s| {
            let me = s.rank() as i64;
            let send = [me * 2];
            let mut recv = [-1i64];
            even_odd_pairs(s, Target::Mpi2Side, &send, &mut recv).unwrap();
            recv[0]
        });
        for (r, &v) in got.iter().enumerate() {
            if r % 2 == 1 {
                assert_eq!(v, (r as i64 - 1) * 2);
            } else {
                assert_eq!(v, -1);
            }
        }
    }

    #[test]
    fn fan_out_distributes_chunks() {
        let n = 5;
        let root = 2usize;
        let got = with_session(n, move |s| {
            let me = s.rank();
            let chunks: Vec<Vec<i64>> = (0..n).map(|d| vec![d as i64 * 11, 7]).collect();
            let mut recv = [0i64; 2];
            fan_out(s, Target::Mpi2Side, root, &chunks, &mut recv).unwrap();
            (me, recv)
        });
        for (r, (me, recv)) in got.iter().enumerate() {
            assert_eq!(r, *me);
            if r != root {
                assert_eq!(*recv, [r as i64 * 11, 7]);
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // rank-indexed assertions
    fn fan_in_collects_contributions() {
        let n = 4;
        let root = 0usize;
        let got = with_session(n, move |s| {
            let me = s.rank() as i64;
            let send = [me + 50];
            let mut out: Vec<Vec<i64>> = if s.rank() == root {
                (0..n).map(|_| vec![0i64]).collect()
            } else {
                Vec::new()
            };
            // Root needs slots even though it doesn't send.
            if s.rank() == root {
                fan_in(s, Target::Mpi2Side, root, &send, &mut out).unwrap();
                Some(out)
            } else {
                let mut dummy: Vec<Vec<i64>> = Vec::new();
                fan_in(s, Target::Mpi2Side, root, &send, &mut dummy).unwrap();
                None
            }
        });
        let collected = got[0].as_ref().expect("root output");
        for s in 1..n {
            assert_eq!(collected[s], vec![s as i64 + 50]);
        }
    }

    #[test]
    fn halo_exchange_both_directions() {
        let n = 5;
        let got = with_session(n, move |s| {
            let me = s.rank() as i64;
            let left_edge = [me * 10];
            let right_edge = [me * 10 + 1];
            let mut left_ghost = [-1i64];
            let mut right_ghost = [-1i64];
            halo_1d(
                s,
                Target::Mpi2Side,
                &left_edge,
                &right_edge,
                &mut left_ghost,
                &mut right_ghost,
            )
            .unwrap();
            (left_ghost[0], right_ghost[0])
        });
        for (r, &(lg, rg)) in got.iter().enumerate() {
            if r > 0 {
                assert_eq!(lg, (r as i64 - 1) * 10 + 1, "left ghost of {r}");
            } else {
                assert_eq!(lg, -1);
            }
            if r < n - 1 {
                assert_eq!(rg, (r as i64 + 1) * 10, "right ghost of {r}");
            } else {
                assert_eq!(rg, -1);
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // row-indexed assertions
    fn halo_2d_fills_ghosts_via_strided_rows() {
        // 2x2 process grid, 3x2 interior per rank, column-major + ghosts.
        let (px, py) = (2usize, 2usize);
        let (rows, cols) = (3usize, 2usize);
        let ld = rows + 2;
        let got = with_session(px * py, move |s| {
            let me = s.rank() as i64;
            let mut grid = vec![-1.0f64; ld * (cols + 2)];
            for c in 1..=cols {
                for r in 1..=rows {
                    grid[c * ld + r] = me as f64 * 100.0 + (c * 10 + r) as f64;
                }
            }
            halo_2d(
                s,
                Target::Mpi2Side,
                px as i64,
                py as i64,
                rows,
                cols,
                &mut grid,
            )
            .unwrap();
            grid
        });
        // Rank 1 (process col 1, row 0): left ghost = rank 0's last column.
        let g1 = &got[1];
        for r in 1..=rows {
            assert_eq!(
                g1[r],
                0.0 * 100.0 + (cols * 10 + r) as f64,
                "left ghost r={r}"
            );
        }
        // Rank 0: right ghost = rank 1's first column.
        let g0 = &got[0];
        for r in 1..=rows {
            assert_eq!(
                g0[(cols + 1) * ld + r],
                100.0 + (10 + r) as f64,
                "right ghost r={r}"
            );
        }
        // Rank 2 (process row 1): top ghost row = rank 0's last row.
        let g2 = &got[2];
        for c in 1..=cols {
            assert_eq!(g2[c * ld], (c * 10 + rows) as f64, "top ghost c={c}");
        }
        // Rank 0: bottom ghost row = rank 2's first row.
        for c in 1..=cols {
            assert_eq!(
                g0[c * ld + rows + 1],
                200.0 + (c * 10 + 1) as f64,
                "bottom ghost c={c}"
            );
        }
        // Untouched frame corners stay at the sentinel.
        assert_eq!(g0[0], -1.0);
    }

    #[test]
    fn patterns_record_analyzable_ir() {
        use crate::analysis::{classify, resolve_graph, Pattern};
        let n = 6;
        let reports = with_session(n, move |s| {
            let me = s.rank() as i64;
            let send = [me];
            let mut recv = [0i64];
            ring(s, Target::Mpi2Side, &send, &mut recv).unwrap();
            let program = s.program().to_vec();
            let g = resolve_graph(
                &program[0].body[0],
                Some(&program[0].clauses),
                n,
                &std::collections::HashMap::new(),
            );
            classify(&g.matching(), n)
        });
        assert!(reports.iter().all(|p| *p == Pattern::CyclicShift { k: 1 }));
    }
}
