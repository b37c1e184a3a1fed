//! `setEvec`: distribution of random spin configurations — the paper's
//! second case study (Figs. 4 and 5).
//!
//! Per Wang–Landau step, the WL master generates one spin direction (three
//! doubles) per atom per LSMS instance and distributes them in two hops:
//! WL → privileged (one 24-byte message per atom, Listing 6's
//! `MPI_Isend(&ev[3*p], 3, MPI_DOUBLE, n, p, ...)` granularity), then
//! privileged → owning worker within each LIZ.
//!
//! Variants measured by Figure 4:
//! * [`SpinVariant::Original`] — Listing 6: non-blocking sends/receives
//!   completed by a **loop of `MPI_Wait`** calls;
//! * [`SpinVariant::OriginalWaitall`] — the paper's validation experiment:
//!   "we changed the synchronization in the original communication to an
//!   MPI_Waitall for each loop" (≈2.6x);
//! * [`SpinVariant::DirectiveMpi2`] / [`SpinVariant::DirectiveShmem`] —
//!   Listing 7: one `comm_parameters` region per hop with consolidated
//!   sync (`place_sync(END_PARAM_REGION)`, `max_comm_iter`), retargetable,
//!   optionally overlapping `calculateCoreStates` (Figure 5).

use commint::buffer::{Prim, PrimMut};
use commint::{CommLoop, CommParams, CommSession, DirectiveError, RankExpr, Target};
use netsim::RankCtx;

use crate::atom::AtomData;
use crate::core_states::{calculate_core_states, CoreStateParams};
use crate::topology::{Comms, Topology};

/// Which implementation of `setEvec` to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpinVariant {
    /// Listing 6: Isend/Irecv + per-request `MPI_Wait` loops.
    Original,
    /// Original sends with `MPI_Waitall` per loop (the paper's 2.6x
    /// validation variant).
    OriginalWaitall,
    /// Directive translation, MPI two-sided target.
    DirectiveMpi2,
    /// Directive translation, SHMEM target.
    DirectiveShmem,
}

impl SpinVariant {
    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            SpinVariant::Original => "Original Communication",
            SpinVariant::OriginalWaitall => "Original + Waitall",
            SpinVariant::DirectiveMpi2 => "MPI Target w/ Directive Communication",
            SpinVariant::DirectiveShmem => "SHMEM Target w/ Directive Communication",
        }
    }
}

/// Per-rank spin-step state.
#[derive(Clone, Debug, Default)]
pub struct SpinState {
    /// WL master only: spin per (instance, atom), flattened
    /// `instance * atoms + atom`.
    pub ev: Vec<[f64; 3]>,
    /// Privileged only: staged spins for this instance (len = atoms).
    pub staged: Vec<[f64; 3]>,
    /// Every LSMS rank: this rank's atom spin after the step.
    pub my_spin: [f64; 3],
}

impl SpinState {
    /// Initialize for a rank of `topo`: the WL master gets `ev` slots,
    /// privileged ranks get staging.
    pub fn new(topo: &Topology, global_rank: usize) -> Self {
        let mut s = SpinState::default();
        if global_rank == topo.wl_rank() {
            s.ev = vec![[0.0; 3]; topo.instances * topo.ranks_per_lsms];
        }
        if topo.is_privileged(global_rank) {
            s.staged = vec![[0.0; 3]; topo.ranks_per_lsms];
        }
        s
    }
}

/// Tags for the original path (stage-1 uses the atom index, like Listing 6;
/// stage-2 the worker index).
const SPIN_TAG_BASE: i32 = 300;

/// Listing 6 path. `waitall` selects the paper's Waitall-modified variant.
pub fn set_evec_original(
    ctx: &mut RankCtx,
    topo: &Topology,
    comms: &Comms,
    state: &mut SpinState,
    waitall: bool,
) {
    let world = &comms.world;
    let n = topo.ranks_per_lsms;
    let me = ctx.rank();

    if me == topo.wl_rank() {
        // WL: one Isend per (instance, atom), then the completion loop.
        let mut reqs = Vec::with_capacity(topo.instances * n);
        for m in 0..topo.instances {
            let dest = topo.privileged_rank(m);
            for p in 0..n {
                let spin = state.ev[m * n + p];
                reqs.push(world.isend_slice(ctx, dest, SPIN_TAG_BASE + p as i32, &spin));
            }
        }
        if waitall {
            world.waitall(ctx, &reqs, &[]);
        } else {
            for r in &reqs {
                world.wait_send(ctx, r);
            }
        }
    } else if topo.is_privileged(me) {
        // Stage 1: receive my instance's spins from WL.
        let mut reqs = Vec::with_capacity(n);
        for p in 0..n {
            reqs.push(world.irecv(ctx, Some(topo.wl_rank()), Some(SPIN_TAG_BASE + p as i32)));
        }
        if waitall {
            let outs = world.waitall(ctx, &[], &reqs);
            for (p, out) in outs.iter().enumerate() {
                state.staged[p] = [
                    f64::from_ne_bytes(out.data[0..8].try_into().expect("8 bytes")),
                    f64::from_ne_bytes(out.data[8..16].try_into().expect("8 bytes")),
                    f64::from_ne_bytes(out.data[16..24].try_into().expect("8 bytes")),
                ];
            }
        } else {
            for (p, r) in reqs.iter().enumerate() {
                let out = world.wait_recv(ctx, r);
                let v: Vec<f64> = out.to_vec();
                state.staged[p] = [v[0], v[1], v[2]];
            }
        }
        state.my_spin = state.staged[0];
        // Stage 2: relay to the owning workers within the LIZ.
        let lsms = comms.lsms.as_ref().expect("privileged is an LSMS member");
        let mut reqs = Vec::with_capacity(n - 1);
        for w in 1..n {
            let spin = state.staged[w];
            reqs.push(lsms.isend_slice(ctx, w, SPIN_TAG_BASE + w as i32, &spin));
        }
        if waitall {
            lsms.waitall(ctx, &reqs, &[]);
        } else {
            for r in &reqs {
                lsms.wait_send(ctx, r);
            }
        }
    } else {
        // Worker: num_local = 1 receive, then the (length-1) wait loop.
        let lsms = comms.lsms.as_ref().expect("worker is an LSMS member");
        let w = lsms.rank(ctx);
        let req = lsms.irecv(ctx, Some(0), Some(SPIN_TAG_BASE + w as i32));
        let out = if waitall {
            lsms.waitall(ctx, &[], std::slice::from_ref(&req))
                .pop()
                .expect("one receive")
        } else {
            lsms.wait_recv(ctx, &req)
        };
        let v: Vec<f64> = out.to_vec();
        state.my_spin = [v[0], v[1], v[2]];
    }
}

/// Listing 7 path: two directive regions over the world session (WL →
/// privileged, privileged → worker), consolidated synchronization, optional
/// overlapped `calculateCoreStates` (Figure 5's configuration). Returns the
/// overlapped core-energy result when computed. Both regions are written
/// as loop-form regions ([`CommSession::region_loop`]), except the
/// overlapped one, which stays Listing 7's per-instance loop.
#[allow(clippy::needless_range_loop)] // worker loops index rank-shaped arrays
pub fn set_evec_directive(
    session: &mut CommSession<'_>,
    topo: &Topology,
    state: &mut SpinState,
    target: Target,
    overlap: Option<(&AtomData, &CoreStateParams)>,
) -> Result<Option<f64>, DirectiveError> {
    let n = topo.ranks_per_lsms;
    let m_cnt = topo.instances;
    let me = session.ctx().rank();
    let is_wl = me == topo.wl_rank();
    let is_priv = topo.is_privileged(me);

    let SpinState {
        ev,
        staged,
        my_spin,
    } = state;

    // ---- Region 1: WL -> privileged (16*M messages of 3 doubles) ----------
    // The loop `for m, for p` binds `sp_dest = privileged_rank(m)`; the
    // engine solves `rank == sp_dest` for each rank's 16 iterations.
    let first = topo.privileged_rank(0) as i64;
    let stride = n as i64;
    let params1 = CommParams::new()
        .sender(RankExpr::lit(topo.wl_rank() as i64))
        .receiver(RankExpr::var("sp_dest"))
        .sendwhen(RankExpr::rank().eq(RankExpr::lit(topo.wl_rank() as i64)))
        .receivewhen(RankExpr::rank().eq(RankExpr::var("sp_dest")))
        .count(3)
        .max_comm_iter((m_cnt * n) as i64)
        // Both hops are adjacent regions; all synchronization is
        // consolidated into ONE call at the end of the last region ("delays
        // all synchronization to the last comm_parameters region in a
        // series of adjacent instances"). The engine's data-dependency
        // fence keeps the privileged relay causally ordered after its
        // staged data arrives.
        .place_sync(commint::PlaceSync::EndAdjParamRegions)
        .target(target);
    let loop1 = CommLoop::new(0..m_cnt as i64)
        .inner(0..n as i64)
        .bind("sp_dest", first, &[stride]);
    session.region_loop(&params1, &loop1, |ix, it| {
        let (m, p) = (ix[0] as usize, ix[1] as usize);
        let src: &[f64] = if is_wl { &ev[m * n + p] } else { &[] };
        let dst: &mut [f64] = if is_priv && topo.privileged_rank(m) == me {
            &mut staged[p]
        } else {
            &mut []
        };
        it.p2p()
            .site(11)
            .sbuf(Prim::new("ev[3*p]", src))
            .rbuf(PrimMut::new("staged[p]", dst))
            .run()
    })?;

    if is_priv {
        *my_spin = staged[0];
    }

    // ---- Region 2: privileged -> workers, optionally overlapped -----------
    let params2 = CommParams::new()
        .sender(RankExpr::var("sp_src"))
        .receiver(RankExpr::var("sp_dst"))
        .sendwhen(RankExpr::rank().eq(RankExpr::var("sp_src")))
        .receivewhen(RankExpr::rank().eq(RankExpr::var("sp_dst")))
        .count(3)
        .max_comm_iter((m_cnt * (n - 1)) as i64)
        .target(target);
    let Some((atom, cparams)) = overlap else {
        // `for m, for w in 1..n`: `sp_src = privileged_rank(m)`,
        // `sp_dst = sp_src + w`.
        let loop2 = CommLoop::new(0..m_cnt as i64)
            .inner(1..n as i64)
            .bind("sp_src", first, &[stride])
            .bind("sp_dst", first, &[stride, 1]);
        session.region_loop(&params2, &loop2, |ix, it| {
            let (src_rank, w) = (topo.privileged_rank(ix[0] as usize), ix[1] as usize);
            let sb: &[f64] = if is_priv && src_rank == me {
                &staged[w]
            } else {
                &[]
            };
            let rb: &mut [f64] = if src_rank + w == me {
                &mut my_spin[..]
            } else {
                &mut []
            };
            it.p2p()
                .site(12)
                .sbuf(Prim::new("staged[w]", sb))
                .rbuf(PrimMut::new("atom.evec", rb))
                .run()
        })?;
        return Ok(None);
    };
    // Figure 5 keeps Listing 7's per-instance loop: the overlap body runs
    // on every LSMS rank's first iteration, which for most ranks is one
    // they take no part in, so no iteration can be skipped.
    let mut core_energy: Option<f64> = None;
    session.region(&params2, |reg| {
        let empty: [f64; 0] = [];
        let mut core_done = false;
        for m in 0..m_cnt {
            let src_rank = topo.privileged_rank(m);
            reg.set_var("sp_src", src_rank as i64);
            for w in 1..n {
                let dst_rank = src_rank + w;
                reg.set_var("sp_dst", dst_rank as i64);
                let sb: &[f64] = if is_priv && src_rank == me {
                    &staged[w]
                } else {
                    &empty
                };
                let rb: &mut [f64] = if dst_rank == me {
                    &mut my_spin[..]
                } else {
                    &mut []
                };
                let call = reg
                    .p2p()
                    .site(12)
                    .sbuf(Prim::new("staged[w]", sb))
                    .rbuf(PrimMut::new("atom.evec", rb));
                if !core_done && !is_wl {
                    // Listing 7: the first core-state slice does not
                    // depend on the incoming spins and overlaps the
                    // communication.
                    core_done = true;
                    let mut e = 0.0;
                    call.overlap(|ctx| {
                        e = calculate_core_states(ctx, atom, cparams);
                    })?;
                    core_energy = Some(e);
                } else {
                    call.run()?;
                }
            }
        }
        Ok::<(), DirectiveError>(())
    })??;

    Ok(core_energy)
}

/// **Extension (beyond the paper)**: the same two-hop spin distribution
/// expressed with the collective directives of `commint::coll` — a
/// `SCATTER` from the WL master to the privileged group (selected with
/// `groupwhen`), then one `SCATTER` per LIZ. The paper names collective
/// directives as future work (§V); this validates that the clause
/// vocabulary extends to them cleanly.
pub fn set_evec_collective(
    session: &mut CommSession<'_>,
    topo: &Topology,
    state: &mut SpinState,
    target: Target,
) -> Result<(), DirectiveError> {
    use commint::coll::CollKind;
    let n = topo.ranks_per_lsms;
    let me = session.ctx().rank();
    let is_wl = me == topo.wl_rank();
    let is_priv = topo.is_privileged(me);

    // Hop 1: WL -> privileged group. Group (ascending) = {WL} U {privileged};
    // the WL master is group index 0 and scatters one n*3-double chunk per
    // member (its own chunk is padding).
    let chunk = n * 3;
    let mut send: Vec<f64> = Vec::new();
    if is_wl {
        send = vec![0.0; chunk]; // root's own chunk
        for m in 0..topo.instances {
            for p in 0..n {
                send.extend_from_slice(&state.ev[m * n + p]);
            }
        }
    }
    let mut recv = vec![0.0f64; chunk];
    let nper = n as i64;
    session
        .coll(CollKind::Scatter)
        .site(9600)
        .root(topo.wl_rank() as i64)
        .groupwhen(
            RankExpr::rank()
                .eq(RankExpr::lit(topo.wl_rank() as i64))
                .or((RankExpr::rank() % RankExpr::lit(nper)).eq(RankExpr::lit(1 % nper))),
        )
        .count(chunk)
        .target(target)
        .scatter(&send, &mut recv)?;
    if is_priv {
        for p in 0..n {
            state.staged[p] = [recv[3 * p], recv[3 * p + 1], recv[3 * p + 2]];
        }
        state.my_spin = staged_first(&state.staged);
    }

    // Hop 2: privileged -> LIZ members, one scatter per instance.
    for m in 0..topo.instances {
        let root = topo.privileged_rank(m);
        let base = root as i64;
        let mut send2: Vec<f64> = Vec::new();
        if me == root {
            for p in 0..n {
                send2.extend_from_slice(&state.staged[p]);
            }
        }
        let mut spin = [0.0f64; 3];
        session
            .coll(CollKind::Scatter)
            .site(9700 + m as u32)
            .root(base)
            .groupwhen(
                RankExpr::rank()
                    .ge(RankExpr::lit(base))
                    .and(RankExpr::rank().lt(RankExpr::lit(base + nper))),
            )
            .count(3)
            .target(target)
            .scatter(&send2, &mut spin)?;
        if topo.instance_of(me) == Some(m) {
            state.my_spin = spin;
        }
    }
    Ok(())
}

fn staged_first(staged: &[[f64; 3]]) -> [f64; 3] {
    staged.first().copied().unwrap_or([0.0; 3])
}

/// Deterministic per-step spin generator (the Wang–Landau proposal). The
/// WL master fills `ev`; a splitmix-style hash keeps it reproducible
/// without a stateful RNG.
pub fn generate_spins(step: u64, count: usize) -> Vec<[f64; 3]> {
    (0..count).map(|i| spin_at(step, i)).collect()
}

/// The spin at index `i` of step `step`'s proposal — each index is hashed
/// independently, so verifying one rank's spin does not require
/// regenerating the whole configuration.
pub fn spin_at(step: u64, i: usize) -> [f64; 3] {
    let mut z = step
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(i as u64)
        .wrapping_add(0x5851F42D4C957F2D);
    let mut next = || {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^ (x >> 31)
    };
    // Marsaglia-style point on the unit sphere.
    loop {
        let u = next() as f64 / u64::MAX as f64 * 2.0 - 1.0;
        let v = next() as f64 / u64::MAX as f64 * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let f = 2.0 * (1.0 - s).sqrt();
            break [u * f, v * f, 1.0 - 2.0 * s];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{run, SimConfig};

    fn run_variant(topo: Topology, variant: SpinVariant) -> Vec<([f64; 3], bool)> {
        let nranks = topo.total_ranks();
        run(SimConfig::new(nranks), move |ctx| {
            let comms = topo.build_comms(ctx);
            let mut state = SpinState::new(&topo, ctx.rank());
            if ctx.rank() == topo.wl_rank() {
                state.ev = generate_spins(1, topo.instances * topo.ranks_per_lsms);
            }
            match variant {
                SpinVariant::Original => set_evec_original(ctx, &topo, &comms, &mut state, false),
                SpinVariant::OriginalWaitall => {
                    set_evec_original(ctx, &topo, &comms, &mut state, true)
                }
                SpinVariant::DirectiveMpi2 | SpinVariant::DirectiveShmem => {
                    let target = if variant == SpinVariant::DirectiveMpi2 {
                        Target::Mpi2Side
                    } else {
                        Target::Shmem
                    };
                    let mut session = CommSession::new(ctx, comms.world.clone()).without_ir();
                    set_evec_directive(&mut session, &topo, &mut state, target, None).unwrap();
                    session.flush();
                }
            }
            // Validate against an independently generated copy.
            let expected_all = generate_spins(1, topo.instances * topo.ranks_per_lsms);
            let ok = match topo.instance_of(ctx.rank()) {
                None => true,
                Some(m) => {
                    let local = ctx.rank() - topo.privileged_rank(m);
                    state.my_spin == expected_all[m * topo.ranks_per_lsms + local]
                }
            };
            (state.my_spin, ok)
        })
        .per_rank
    }

    #[test]
    fn all_variants_deliver_correct_spins() {
        let topo = Topology::new(2, 4); // 9 ranks, small
        for variant in [
            SpinVariant::Original,
            SpinVariant::OriginalWaitall,
            SpinVariant::DirectiveMpi2,
            SpinVariant::DirectiveShmem,
        ] {
            let got = run_variant(topo.clone(), variant);
            assert!(
                got.iter().all(|(_, ok)| *ok),
                "variant {variant:?} delivered wrong spins: {got:?}"
            );
        }
    }

    #[test]
    fn variants_agree_with_each_other() {
        let topo = Topology::new(3, 4);
        let a = run_variant(topo.clone(), SpinVariant::Original);
        let b = run_variant(topo.clone(), SpinVariant::DirectiveMpi2);
        let c = run_variant(topo.clone(), SpinVariant::DirectiveShmem);
        for r in 0..a.len() {
            assert_eq!(a[r].0, b[r].0, "rank {r} MPI directive mismatch");
            assert_eq!(a[r].0, c[r].0, "rank {r} SHMEM directive mismatch");
        }
    }

    #[test]
    fn collective_extension_agrees_with_p2p_directives() {
        let topo = Topology::new(3, 4);
        let nranks = topo.total_ranks();
        let collective = run(SimConfig::new(nranks), {
            let topo = topo.clone();
            move |ctx| {
                let comms = topo.build_comms(ctx);
                let mut state = SpinState::new(&topo, ctx.rank());
                if ctx.rank() == topo.wl_rank() {
                    state.ev = generate_spins(5, topo.instances * topo.ranks_per_lsms);
                }
                let mut session = CommSession::new(ctx, comms.world.clone()).without_ir();
                set_evec_collective(&mut session, &topo, &mut state, Target::Mpi2Side).unwrap();
                session.flush();
                state.my_spin
            }
        })
        .per_rank;
        // Reference: the paper's p2p directive path.
        let reference = run(SimConfig::new(nranks), move |ctx| {
            let comms = topo.build_comms(ctx);
            let mut state = SpinState::new(&topo, ctx.rank());
            if ctx.rank() == topo.wl_rank() {
                state.ev = generate_spins(5, topo.instances * topo.ranks_per_lsms);
            }
            let mut session = CommSession::new(ctx, comms.world.clone()).without_ir();
            set_evec_directive(&mut session, &topo, &mut state, Target::Mpi2Side, None).unwrap();
            session.flush();
            state.my_spin
        })
        .per_rank;
        assert_eq!(collective, reference);
    }

    #[test]
    fn generated_spins_are_unit_and_deterministic() {
        let a = generate_spins(7, 32);
        let b = generate_spins(7, 32);
        assert_eq!(a, b);
        let c = generate_spins(8, 32);
        assert_ne!(a, c);
        for s in &a {
            let norm = (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]).sqrt();
            assert!((norm - 1.0).abs() < 1e-9, "non-unit spin {s:?}");
        }
    }

    #[test]
    fn directive_overlap_produces_core_energy() {
        use crate::atom::{AtomData, AtomSizes};
        let topo = Topology::new(2, 4);
        let nranks = topo.total_ranks();
        let res = run(SimConfig::new(nranks), move |ctx| {
            let comms = topo.build_comms(ctx);
            let mut state = SpinState::new(&topo, ctx.rank());
            if ctx.rank() == topo.wl_rank() {
                state.ev = generate_spins(2, topo.instances * topo.ranks_per_lsms);
            }
            let atom = AtomData::synthetic_fe(ctx.rank(), AtomSizes { jmt: 32, numc: 4 });
            let cparams = CoreStateParams {
                base_ns_per_atom: 10_000,
                speedup: 1.0,
                iterations: 2,
            };
            let mut session = CommSession::new(ctx, comms.world.clone()).without_ir();
            let e = set_evec_directive(
                &mut session,
                &topo,
                &mut state,
                Target::Mpi2Side,
                Some((&atom, &cparams)),
            )
            .unwrap();
            session.flush();
            e
        });
        // WL has no atom => None; every LSMS rank computed an energy.
        assert!(res.per_rank[0].is_none());
        assert!(res.per_rank[1..].iter().all(|e| e.is_some()));
    }

    #[test]
    fn waitall_variant_faster_than_wait_loop() {
        let topo = Topology::paper(3); // 49 ranks
        let time_of = |variant: SpinVariant| {
            let t = topo.clone();
            let res = run(SimConfig::new(t.total_ranks()), move |ctx| {
                let comms = t.build_comms(ctx);
                let mut state = SpinState::new(&t, ctx.rank());
                if ctx.rank() == t.wl_rank() {
                    state.ev = generate_spins(1, t.instances * t.ranks_per_lsms);
                }
                match variant {
                    SpinVariant::Original => set_evec_original(ctx, &t, &comms, &mut state, false),
                    SpinVariant::OriginalWaitall => {
                        set_evec_original(ctx, &t, &comms, &mut state, true)
                    }
                    _ => unreachable!(),
                }
                ctx.now()
            });
            res.makespan()
        };
        let wait_loop = time_of(SpinVariant::Original);
        let waitall = time_of(SpinVariant::OriginalWaitall);
        assert!(
            waitall < wait_loop,
            "waitall ({waitall}) must beat the wait loop ({wait_loop})"
        );
    }
}
