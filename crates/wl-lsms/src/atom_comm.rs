//! Single-atom-data communication: the paper's first case study (Fig. 3).
//!
//! Two implementations of the same transfer, kept faithful to the paper's
//! listings:
//!
//! * [`transfer_atom_original`] — Listing 4: 20+ `MPI_Pack` calls into a
//!   staging buffer, one `MPI_Send` of `MPI_PACKED`, then `MPI_Recv` +
//!   `MPI_Unpack` with the receive-side `resizePotential`/`resizeCore`
//!   logic.
//! * [`transfer_atom_directive`] — Listing 5: one `comm_parameters` region
//!   with three `comm_p2p` instances (scalars as one composite; `vr`+
//!   `rhotot` grouped; `ec`+`nc`+`lc`+`kc` grouped), automatic datatype
//!   handling, and one consolidated synchronization.

use std::sync::LazyLock;

use commint::buffer::{Prim, PrimMut, Soa, SoaMut, Struc, StrucMut};
use commint::{CommParams, CommSession, DirectiveError, RankExpr, Target};
use mpisim::{Comm, PackBuf};
use netsim::RankCtx;

use crate::atom::{AtomData, AtomScalars};

/// Tag used by the original pack/send path.
const ATOM_TAG: i32 = 40;

/// Listing 4, sender+receiver: move `atom` from local rank `from` to local
/// rank `to` of `comm`. On `to`, `atom` is overwritten (with the original's
/// resize-on-receive behaviour); other ranks do nothing.
pub fn transfer_atom_original(
    ctx: &mut RankCtx,
    comm: &Comm,
    from: usize,
    to: usize,
    atom: &mut AtomData,
) {
    let m = comm.model(ctx);
    let me = comm.rank(ctx);
    if me == from {
        // if(comm.rank==from) { MPI_Pack(...) * 20; MPI_Send(buf, s, MPI_PACKED, to, ...) }
        let s = atom.payload_bytes() + 64;
        let mut buf = PackBuf::with_capacity(s);
        let a = &atom.scalars;
        buf.pack_one(ctx, &a.local_id, &m);
        buf.pack_one(ctx, &a.jmt, &m);
        buf.pack_one(ctx, &a.jws, &m);
        buf.pack_one(ctx, &a.xstart, &m);
        buf.pack_one(ctx, &a.rmt, &m);
        buf.pack(ctx, &a.header, &m);
        buf.pack_one(ctx, &a.alat, &m);
        buf.pack_one(ctx, &a.efermi, &m);
        buf.pack_one(ctx, &a.vdif, &m);
        buf.pack_one(ctx, &a.ztotss, &m);
        buf.pack_one(ctx, &a.zcorss, &m);
        buf.pack(ctx, &a.evec, &m);
        buf.pack_one(ctx, &a.nspin, &m);
        buf.pack_one(ctx, &a.numc, &m);

        let t = atom.vr.n_row() as i32;
        buf.pack_one(ctx, &t, &m);
        buf.pack(ctx, atom.vr.prefix(2 * t as usize), &m);
        buf.pack(ctx, atom.rhotot.prefix(2 * t as usize), &m);

        let t = atom.ec.n_row() as i32;
        buf.pack_one(ctx, &t, &m);
        buf.pack(ctx, atom.ec.prefix(2 * t as usize), &m);
        buf.pack(ctx, atom.nc.prefix(2 * t as usize), &m);
        buf.pack(ctx, atom.lc.prefix(2 * t as usize), &m);
        buf.pack(ctx, atom.kc.prefix(2 * t as usize), &m);

        let req = comm.isend_bytes(ctx, to, ATOM_TAG, buf.into_bytes());
        comm.wait_send(ctx, &req);
    }
    if me == to {
        // if(comm.rank==to) { MPI_Recv; MPI_Unpack * 20 with resizes }
        let out = comm.recv(ctx, Some(from), Some(ATOM_TAG));
        let mut buf = PackBuf::received(out.data);
        let a = &mut atom.scalars;
        a.local_id = buf.unpack_one(ctx, &m);
        a.jmt = buf.unpack_one(ctx, &m);
        a.jws = buf.unpack_one(ctx, &m);
        a.xstart = buf.unpack_one(ctx, &m);
        a.rmt = buf.unpack_one(ctx, &m);
        buf.unpack(ctx, &mut a.header, &m);
        a.alat = buf.unpack_one(ctx, &m);
        a.efermi = buf.unpack_one(ctx, &m);
        a.vdif = buf.unpack_one(ctx, &m);
        a.ztotss = buf.unpack_one(ctx, &m);
        a.zcorss = buf.unpack_one(ctx, &m);
        buf.unpack(ctx, &mut a.evec, &m);
        a.nspin = buf.unpack_one(ctx, &m);
        a.numc = buf.unpack_one(ctx, &m);

        let t: i32 = buf.unpack_one(ctx, &m);
        let t = t as usize;
        if t > atom.vr.n_row() {
            // Original: if(t<atom.vr.n_row()) atom.resizePotential(t+50);
            // (the guard direction in the listing grows the buffer when the
            // incoming mesh is larger than the local one)
            atom.resize_potential(t + 50);
        }
        buf.unpack(ctx, atom.vr.prefix_mut(2 * t), &m);
        buf.unpack(ctx, atom.rhotot.prefix_mut(2 * t), &m);

        let t: i32 = buf.unpack_one(ctx, &m);
        let t = t as usize;
        if t > atom.nc.n_row() {
            atom.resize_core(t);
        }
        buf.unpack(ctx, atom.ec.prefix_mut(2 * t), &m);
        buf.unpack(ctx, atom.nc.prefix_mut(2 * t), &m);
        buf.unpack(ctx, atom.lc.prefix_mut(2 * t), &m);
        buf.unpack(ctx, atom.kc.prefix_mut(2 * t), &m);
    }
}

/// Listing 5's `comm_parameters` clauses for `target`: `from_rank` sends
/// to `to_rank`. They are constants of the code, as the pragma text is, so
/// each target's list is built once per process.
fn listing5_params(target: Target) -> &'static CommParams {
    static PARAMS: LazyLock<[CommParams; 3]> = LazyLock::new(|| {
        Target::ALL.map(|target| {
            CommParams::new()
                .sendwhen(RankExpr::rank().eq(RankExpr::var("from_rank")))
                .receivewhen(RankExpr::rank().eq(RankExpr::var("to_rank")))
                .sender(RankExpr::var("from_rank"))
                .receiver(RankExpr::var("to_rank"))
                .target(target)
        })
    });
    let i = Target::ALL.iter().position(|&t| t == target);
    &PARAMS[i.expect("Target::ALL lists every target")]
}

/// Listing 5: the same transfer through the directives. Every rank of the
/// communicator executes this (SPMD); the `sendwhen`/`receivewhen` clauses
/// select the participants. Three `comm_p2p` instances share one region and
/// one consolidated synchronization.
///
/// # Panics
///
/// If `from == to`: the sender reads the arrays the receiver writes.
pub fn transfer_atom_directive(
    session: &mut CommSession<'_>,
    from: usize,
    to: usize,
    target: Target,
    atom: &mut AtomData,
) -> Result<(), DirectiveError> {
    session.set_var("from_rank", from as i64);
    session.set_var("to_rank", to as i64);
    // Sizes are SPMD-uniform (all atoms share the mesh).
    let size1 = 2 * atom.vr.n_row();
    let size2 = 2 * atom.ec.n_row();
    session.set_var("size1", size1 as i64);
    session.set_var("size2", size2 as i64);

    let v = AtomViews::new(atom, session.rank(), from, to);
    session.region(listing5_params(target), |reg| {
        // #pragma comm_p2p sbuf(scalaratomdata) rbuf(scalaratomdata) count(1)
        reg.p2p()
            .site(1)
            .count(1)
            .sbuf(Struc::new("scalaratomdata", v.scalars.send))
            .rbuf(StrucMut::new("scalaratomdata", v.scalars.recv))
            .run()?;
        // #pragma comm_p2p sbuf(vr,rhotot) rbuf(vr,rhotot) count(size1)
        reg.p2p()
            .site(2)
            .count(RankExpr::var("size1"))
            .sbuf(Prim::new("vr", v.vr.send))
            .sbuf(Prim::new("rhotot", v.rhotot.send))
            .rbuf(PrimMut::new("vr", v.vr.recv))
            .rbuf(PrimMut::new("rhotot", v.rhotot.recv))
            .run()?;
        // #pragma comm_p2p sbuf(ec,nc,lc,kc) rbuf(ec,nc,lc,kc) count(size2)
        reg.p2p()
            .site(3)
            .count(RankExpr::var("size2"))
            .sbuf(Prim::new("ec", v.ec.send))
            .sbuf(Prim::new("nc", v.nc.send))
            .sbuf(Prim::new("lc", v.lc.send))
            .sbuf(Prim::new("kc", v.kc.send))
            .rbuf(PrimMut::new("ec", v.ec.recv))
            .rbuf(PrimMut::new("nc", v.nc.recv))
            .rbuf(PrimMut::new("lc", v.lc.recv))
            .rbuf(PrimMut::new("kc", v.kc.recv))
            .run()?;
        Ok(())
    })?
}

/// One array of an atom split by role for a transfer: what this rank
/// receives into and what it sends from.
struct RoleSplit<'d, T> {
    recv: &'d mut [T],
    send: &'d [T],
}

impl<'d, T> RoleSplit<'d, T> {
    /// A receive prefix of `n` elements if `recvs`, then a send view of the
    /// next `n` if `sends`; each empty otherwise.
    fn new(data: &'d mut [T], n: usize, sends: bool, recvs: bool) -> Self {
        let (recv, rest) = data.split_at_mut(usize::from(recvs) * n);
        let send = &rest[..usize::from(sends) * n];
        RoleSplit { recv, send }
    }
}

/// An atom's storage split by role for one transfer from `from` to `to`.
/// A site's send buffers name the same arrays as its receive buffers, and
/// a rank is never both sender and receiver, so the sender borrows its
/// arrays, the receiver writes in place, and every other rank passes empty
/// views: no staging copies anywhere. The views stay empty-but-typed so
/// that the collective staging allocation and the lowering decision, which
/// read the element descriptor on every rank, agree everywhere; the
/// counts are explicit.
struct AtomViews<'d> {
    scalars: RoleSplit<'d, AtomScalars>,
    vr: RoleSplit<'d, f64>,
    rhotot: RoleSplit<'d, f64>,
    ec: RoleSplit<'d, f64>,
    nc: RoleSplit<'d, i32>,
    lc: RoleSplit<'d, i32>,
    kc: RoleSplit<'d, i32>,
}

impl<'d> AtomViews<'d> {
    fn new(atom: &'d mut AtomData, me: usize, from: usize, to: usize) -> Self {
        assert_ne!(from, to, "an atom transfer moves data between two ranks");
        let (s, r) = (me == from, me == to);
        // The first two columns of each matrix, as Listing 4 packs them.
        let (n1, n2) = (2 * atom.vr.n_row(), 2 * atom.ec.n_row());
        AtomViews {
            scalars: RoleSplit::new(std::slice::from_mut(&mut atom.scalars), 1, s, r),
            vr: RoleSplit::new(atom.vr.as_mut_slice(), n1, s, r),
            rhotot: RoleSplit::new(atom.rhotot.as_mut_slice(), n1, s, r),
            ec: RoleSplit::new(atom.ec.as_mut_slice(), n2, s, r),
            nc: RoleSplit::new(atom.nc.as_mut_slice(), n2, s, r),
            lc: RoleSplit::new(atom.lc.as_mut_slice(), n2, s, r),
            kc: RoleSplit::new(atom.kc.as_mut_slice(), n2, s, r),
        }
    }
}

/// The layout-engine shape of the same transfer: **one** `comm_p2p`
/// directive carries the whole single-atom payload — the 14 scalars as a
/// composite struct, the two potential matrices as one struct-of-arrays,
/// and the four core-state matrices as another — and the per-target
/// lowering chooser decides pack vs derived datatype vs typed put per
/// buffer. No staging copies are made on either side: the send views
/// borrow the atom's storage directly, and the receive views are written
/// in place.
///
/// Every rank executes this (SPMD). Non-participating roles pass empty
/// placeholder views that still carry the full layout descriptors — the
/// collective staging allocation and the (SPMD-uniform) lowering decision
/// need the descriptor on every rank, but no payload.
///
/// # Panics
///
/// If `from == to`, as [`transfer_atom_directive`].
pub fn transfer_atom_composite(
    session: &mut CommSession<'_>,
    from: usize,
    to: usize,
    target: Target,
    atom: &mut AtomData,
) -> Result<(), DirectiveError> {
    session.set_var("from_rank", from as i64);
    session.set_var("to_rank", to as i64);
    // Sizes are SPMD-uniform (all atoms share the mesh).
    let size1 = 2 * atom.vr.n_row();
    let size2 = 2 * atom.ec.n_row();

    let v = AtomViews::new(atom, session.rank(), from, to);
    session.region(listing5_params(target), |reg| {
        // #pragma comm_p2p count(1)
        //   sbuf(scalaratomdata, potential, corestate)
        //   rbuf(scalaratomdata, potential, corestate)
        // count(1) is explicit: the placeholder views would infer 0.
        reg.p2p()
            .site(1)
            .count(1)
            .sbuf(Struc::new("scalaratomdata", v.scalars.send))
            .sbuf(
                Soa::new("potential")
                    .field_blocks("vr", v.vr.send, size1)
                    .field_blocks("rhotot", v.rhotot.send, size1),
            )
            .sbuf(
                Soa::new("corestate")
                    .field_blocks("ec", v.ec.send, size2)
                    .field_blocks("nc", v.nc.send, size2)
                    .field_blocks("lc", v.lc.send, size2)
                    .field_blocks("kc", v.kc.send, size2),
            )
            .rbuf(StrucMut::new("scalaratomdata", v.scalars.recv))
            .rbuf(
                SoaMut::new("potential")
                    .field_blocks("vr", v.vr.recv, size1)
                    .field_blocks("rhotot", v.rhotot.recv, size1),
            )
            .rbuf(
                SoaMut::new("corestate")
                    .field_blocks("ec", v.ec.recv, size2)
                    .field_blocks("nc", v.nc.recv, size2)
                    .field_blocks("lc", v.lc.recv, size2)
                    .field_blocks("kc", v.kc.recv, size2),
            )
            .run()?;
        Ok(())
    })?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{AtomData, AtomSizes};
    use netsim::{run, SimConfig};

    fn small_sizes() -> AtomSizes {
        AtomSizes { jmt: 40, numc: 6 }
    }

    #[test]
    fn original_transfer_roundtrips() {
        let res = run(SimConfig::new(3), |ctx| {
            let comm = Comm::world(ctx);
            let golden = AtomData::synthetic_fe(7, small_sizes());
            let mut atom = if comm.rank(ctx) == 0 {
                golden.clone()
            } else {
                AtomData::new(small_sizes())
            };
            transfer_atom_original(ctx, &comm, 0, 2, &mut atom);
            (comm.rank(ctx), atom == golden)
        });
        assert!(res.per_rank[0].1, "sender keeps its copy");
        assert!(res.per_rank[2].1, "receiver got an identical atom");
        assert!(!res.per_rank[1].1, "bystander untouched");
        // The original path pays pack+unpack copies.
        assert!(res.total_stats().packed_bytes > 0);
    }

    #[test]
    fn original_transfer_resizes_smaller_receiver() {
        let res = run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let golden = AtomData::synthetic_fe(1, small_sizes());
            let mut atom = if comm.rank(ctx) == 0 {
                golden.clone()
            } else {
                AtomData::new(AtomSizes { jmt: 10, numc: 2 }) // too small
            };
            transfer_atom_original(ctx, &comm, 0, 1, &mut atom);
            if comm.rank(ctx) == 1 {
                assert!(atom.vr.n_row() >= 40);
                assert_eq!(atom.ec.n_row(), 6);
                // Payload data matches on the transferred prefix.
                assert_eq!(atom.vr.prefix(80), golden.vr.prefix(80));
                assert_eq!(atom.scalars, golden.scalars);
            }
        });
        drop(res);
    }

    #[test]
    fn directive_transfer_roundtrips_all_targets() {
        for target in [Target::Mpi2Side, Target::Shmem, Target::Mpi1Side] {
            let res = run(SimConfig::new(3), move |ctx| {
                let comm = Comm::world(ctx);
                let golden = AtomData::synthetic_fe(9, small_sizes());
                let mut atom = if comm.rank(ctx) == 0 {
                    golden.clone()
                } else {
                    AtomData::new(small_sizes())
                };
                let mut session = CommSession::new(ctx, comm.clone());
                transfer_atom_directive(&mut session, 0, 1, target, &mut atom).unwrap();
                session.flush();
                (comm.rank(ctx), atom == golden)
            });
            assert!(res.per_rank[1].1, "target {target}: receiver identical");
            assert!(!res.per_rank[2].1, "target {target}: bystander untouched");
        }
    }

    #[test]
    fn directive_consolidates_to_one_sync() {
        // Three comm_p2p in the region; exactly one waitall per
        // participating rank (the paper: "automatically reduces
        // synchronization calls ... to one synchronization call for the
        // adjacent comm_p2p directives").
        let res = run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut atom = if comm.rank(ctx) == 0 {
                AtomData::synthetic_fe(2, small_sizes())
            } else {
                AtomData::new(small_sizes())
            };
            let mut session = CommSession::new(ctx, comm);
            transfer_atom_directive(&mut session, 0, 1, Target::Mpi2Side, &mut atom).unwrap();
            session.flush();
            ctx.stats.waitalls
        });
        assert_eq!(res.per_rank, vec![1, 1]);
    }

    #[test]
    fn directive_commits_datatype_once_across_transfers() {
        // Scalars use a derived struct type; a second transfer in the same
        // session must reuse the committed type ("reused within the
        // function scope").
        let res = run(SimConfig::new(3), |ctx| {
            let comm = Comm::world(ctx);
            let golden = AtomData::synthetic_fe(3, small_sizes());
            let mut atom = if comm.rank(ctx) == 0 {
                golden
            } else {
                AtomData::new(small_sizes())
            };
            let mut session = CommSession::new(ctx, comm);
            transfer_atom_directive(&mut session, 0, 1, Target::Mpi2Side, &mut atom).unwrap();
            transfer_atom_directive(&mut session, 0, 2, Target::Mpi2Side, &mut atom).unwrap();
            session.flush();
            ctx.stats.datatype_commits
        });
        assert!(res.per_rank.iter().all(|&c| c <= 1), "{:?}", res.per_rank);
    }

    #[test]
    fn composite_transfer_roundtrips_all_targets() {
        for target in [Target::Mpi2Side, Target::Shmem, Target::Mpi1Side] {
            let res = run(SimConfig::new(3), move |ctx| {
                let comm = Comm::world(ctx);
                let golden = AtomData::synthetic_fe(11, small_sizes());
                let mut atom = if comm.rank(ctx) == 0 {
                    golden.clone()
                } else {
                    AtomData::new(small_sizes())
                };
                let mut session = CommSession::new(ctx, comm.clone());
                transfer_atom_composite(&mut session, 0, 1, target, &mut atom).unwrap();
                session.flush();
                (comm.rank(ctx), atom == golden)
            });
            assert!(res.per_rank[0].1, "target {target}: sender keeps its copy");
            assert!(res.per_rank[1].1, "target {target}: receiver identical");
            assert!(!res.per_rank[2].1, "target {target}: bystander untouched");
        }
    }

    #[test]
    fn composite_transfer_is_one_directive_one_sync() {
        let res = run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut atom = if comm.rank(ctx) == 0 {
                AtomData::synthetic_fe(5, small_sizes())
            } else {
                AtomData::new(small_sizes())
            };
            let mut session = CommSession::new(ctx, comm);
            transfer_atom_composite(&mut session, 0, 1, Target::Mpi2Side, &mut atom).unwrap();
            let sites: Vec<u32> = session.program()[0].body.iter().map(|p| p.site).collect();
            session.flush();
            (sites, ctx.stats.waitalls)
        });
        for (sites, waitalls) in &res.per_rank {
            assert_eq!(sites, &[1], "one comm_p2p site");
            assert_eq!(*waitalls, 1, "one consolidated sync");
        }
    }

    #[test]
    fn composite_transfer_beats_listing4_and_skips_pack_copies() {
        // The layout engine's claim on the paper's case study: the full
        // atom moves as one directive, the potential matrices go zero-copy
        // (per-array sends instead of pack/unpack), and the end-to-end
        // virtual time beats the 20+-pack Listing-4 shape.
        let run_one = |composite: bool| {
            run(SimConfig::new(2), move |ctx| {
                let comm = Comm::world(ctx);
                let mut atom = if comm.rank(ctx) == 0 {
                    AtomData::synthetic_fe(0, AtomSizes::default())
                } else {
                    AtomData::new(AtomSizes::default())
                };
                if composite {
                    let mut session = CommSession::new(ctx, comm);
                    transfer_atom_composite(&mut session, 0, 1, Target::Mpi2Side, &mut atom)
                        .unwrap();
                    session.flush();
                } else {
                    transfer_atom_original(ctx, &comm, 0, 1, &mut atom);
                }
                ctx.now()
            })
        };
        let orig = run_one(false);
        let comp = run_one(true);
        assert!(
            comp.makespan() < orig.makespan(),
            "composite {:?} should beat Listing 4 {:?}",
            comp.makespan(),
            orig.makespan()
        );
        // Listing 4 packs the whole payload; the composite directive packs
        // at most the small corestate/scalars leftovers the chooser keeps
        // on the pack path.
        let orig_packed = orig.total_stats().packed_bytes;
        let comp_packed = comp.total_stats().packed_bytes;
        assert!(
            comp_packed * 4 < orig_packed,
            "composite packed {comp_packed} B vs original {orig_packed} B"
        );
    }

    #[test]
    fn directive_faster_or_comparable_to_original() {
        // Fig. 3's qualitative claim: the directive translation is
        // comparable (the pack copies it eliminates buy a small edge).
        let time_of = |directive: bool| {
            let res = run(SimConfig::new(2), move |ctx| {
                let comm = Comm::world(ctx);
                let mut atom = if comm.rank(ctx) == 0 {
                    AtomData::synthetic_fe(0, AtomSizes::default())
                } else {
                    AtomData::new(AtomSizes::default())
                };
                if directive {
                    let mut session = CommSession::new(ctx, comm);
                    transfer_atom_directive(&mut session, 0, 1, Target::Mpi2Side, &mut atom)
                        .unwrap();
                    session.flush();
                } else {
                    transfer_atom_original(ctx, &comm, 0, 1, &mut atom);
                }
                ctx.now()
            });
            res.makespan()
        };
        let orig = time_of(false);
        let dir = time_of(true);
        let ratio = orig.as_nanos() as f64 / dir.as_nanos() as f64;
        assert!(
            (0.8..3.0).contains(&ratio),
            "expected comparable times, got original={orig} directive={dir}"
        );
    }
}
