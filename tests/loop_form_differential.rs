//! Differential test of the loop form of a `comm_parameters` region
//! (`CommSession::region_loop`) against the per-instance loop it stands
//! for: the same region, with the body's loop written out and every
//! variable bound by `set_var` before each `comm_p2p`.
//!
//! Each generated case is a rectangular space of 1–3 indices (extents
//! 0–9) with two bindings affine in the indices, `src` and `dst`, and one
//! message `src -> dst` per iteration. Its clauses mix the shapes the loop
//! form solves (`rank == e` atoms, flipped, with arithmetic, under
//! `&&`/`||`, with conjuncts that do not vary) with shapes it must fall
//! back on (`rank % 2 == v`, an opaque predicate, a comparison that is not
//! a rank atom, a `count` naming a loop variable). Cases cover MPI
//! two-sided, MPI one-sided and SHMEM (with one sender, which is what
//! one-sided staging supports), with and without a coalescing overlay, and
//! `max_comm_iter` below, at and above the iteration count.
//!
//! Per rank, the loop form must reproduce the per-instance run exactly:
//! final virtual time, every virtual `RankStats` counter, the recorded IR,
//! the error value and the received data, with one carrier per rank (the
//! per-instance reference's engine) and with two (`bounded(2)`). A spin-shaped case also holds
//! `wl_lsms::spin::set_evec_directive`, which writes both regions as
//! loops, to Listing 7's per-instance loop, kept here as the reference.
//!
//! Runs `LOOP_FORM_CASES` generated cases when it is set (CI runs 4096),
//! else 256.

use std::ops::Range;

use commint::prelude::*;
use commint::{DirectiveError, ParamsSpec};
use mpisim::Comm;
use netsim::{run, CounterKind, ExecPolicy, RankCtx, SimConfig, Time};
use wl_lsms::spin::{generate_spins, set_evec_directive, SpinState};
use wl_lsms::Topology;

/// The generated loops' `comm_p2p` site.
const SITE: u32 = 7;
/// Fixed corpus seed: the sweep is reproducible case for case.
const SEED: u64 = 0x100F_F0A4;

fn cases() -> usize {
    std::env::var("LOOP_FORM_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

// -- deterministic RNG (no external deps) -----------------------------------

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    fn within(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as usize) as i64
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

// -- cases --------------------------------------------------------------------

/// The `sendwhen`/`receivewhen` pair of a case.
#[derive(Clone, Copy, Debug)]
enum When {
    /// `rank == src`, `rank == dst`.
    Plain,
    /// `src == rank`, `dst == rank`.
    Flipped,
    /// `rank == 2*src - src`, `rank == -(3 - dst) + 3`.
    Arith,
    /// `&& nprocs > 0`: a conjunct that does not vary.
    AndInvariant,
    /// `|| nprocs < 0`.
    OrInvariant,
    /// `(rank == src) && (src == rank)`.
    AndAtoms,
    /// `(rank == src) || (rank == src + 0)`.
    OrAtoms,
    /// Fallback: `&& rank % 2 == v` on the sender, `&& src % 2 == v` on the
    /// receiver (the same iterations, since the sender is `src`).
    RankParity(i64),
    /// Fallback: `&& <opaque predicate on src>` on both.
    Opaque,
    /// Fallback: `&& src >= 0`, a comparison that is not a rank atom.
    NonRankCompare,
}

#[derive(Clone, Copy, Debug)]
enum Count {
    Inferred,
    Literal,
    /// Fallback: `count(src - src + 2)` names a loop variable.
    Varying,
}

/// `base + Σ strides[d]·i_d`.
#[derive(Clone, Debug)]
struct Bind {
    base: i64,
    strides: Vec<i64>,
}

impl Bind {
    fn at(&self, ix: &[i64]) -> i64 {
        self.base + self.strides.iter().zip(ix).map(|(s, i)| s * i).sum::<i64>()
    }
}

#[derive(Clone, Debug)]
struct Case {
    nranks: usize,
    ranges: Vec<Range<i64>>,
    src: Bind,
    dst: Bind,
    when: When,
    count: Count,
    target: Target,
    coalesce: Option<usize>,
    max_iter: Option<i64>,
    place: PlaceSync,
    /// Every iteration receives into one buffer, so consecutive receives
    /// conflict and split the region's synchronization.
    shared_rbuf: bool,
}

/// A binding whose value stays inside `0..nranks` over the whole space;
/// constant unless `varying`.
fn rank_binding(rng: &mut Rng, ranges: &[Range<i64>], nranks: usize, varying: bool) -> Bind {
    let stride = |rng: &mut Rng| if varying { rng.within(-2, 2) } else { 0 };
    let mut strides: Vec<i64> = ranges.iter().map(|_| stride(rng)).collect();
    let span = |s: &[i64]| -> i64 {
        s.iter()
            .zip(ranges)
            .map(|(s, r)| s.abs() * (r.end - r.start - 1).max(0))
            .sum()
    };
    while span(&strides) >= nranks as i64 {
        let d = rng.below(strides.len());
        strides[d] = 0;
    }
    // The smallest value of the strided terms; the base shifts it into
    // range with room for the span.
    let low: i64 = strides
        .iter()
        .zip(ranges)
        .map(|(s, r)| (s * r.start).min(s * (r.end - 1).max(r.start)))
        .sum();
    let room = nranks as i64 - 1 - span(&strides);
    let base = rng.within(0, room) - low;
    Bind { base, strides }
}

impl Case {
    fn generate(rng: &mut Rng) -> Case {
        let nranks = 2 + rng.below(5);
        let dims = 1 + rng.below(3);
        let ranges: Vec<Range<i64>> = (0..dims)
            .map(|_| {
                let start = rng.within(-3, 3);
                start..start + rng.below(10) as i64
            })
            .collect();
        let total: i64 = ranges.iter().map(|r| r.end - r.start).product();
        let target = rng.pick(&[Target::Mpi2Side, Target::Mpi1Side, Target::Shmem]);
        let coalesce = (rng.below(3) == 0).then(|| 2 + rng.below(3));
        // A region that fails abandons its coalesced batches, which would
        // leave their receivers waiting: coalescing runs only with a bound
        // the loop stays within.
        let max_iter = match rng.below(4) {
            0 => None,
            1 if coalesce.is_none() => Some(total - 1 - rng.within(0, 2)),
            1 | 2 => Some(total),
            _ => Some(total + rng.within(1, 3)),
        };
        let when = match rng.below(10) {
            0 => When::Plain,
            1 => When::Flipped,
            2 => When::Arith,
            3 => When::AndInvariant,
            4 => When::OrInvariant,
            5 => When::AndAtoms,
            6 => When::OrAtoms,
            7 => When::RankParity(rng.within(0, 1)),
            8 => When::Opaque,
            _ => When::NonRankCompare,
        };
        // One-sided staging numbers a receiver's slots across all its
        // senders but a sender's per destination, so it supports one
        // sender per receiver: on those targets `src` is fixed.
        let src = rank_binding(rng, &ranges, nranks, target == Target::Mpi2Side);
        Case {
            nranks,
            src,
            dst: rank_binding(rng, &ranges, nranks, true),
            ranges,
            when,
            count: rng.pick(&[Count::Inferred, Count::Literal, Count::Varying]),
            target,
            coalesce,
            max_iter,
            place: rng.pick(&[
                PlaceSync::EndParamRegion,
                PlaceSync::BeginNextParamRegion,
                PlaceSync::EndAdjParamRegions,
            ]),
            shared_rbuf: target != Target::Mpi1Side && rng.below(3) == 0,
        }
    }

    fn total(&self) -> usize {
        self.ranges
            .iter()
            .map(|r| (r.end - r.start) as usize)
            .product()
    }

    /// The index tuple of iteration `k`, the last index fastest.
    fn index(&self, mut k: usize) -> Vec<i64> {
        let mut ix = vec![0; self.ranges.len()];
        for (d, r) in self.ranges.iter().enumerate().rev() {
            let extent = (r.end - r.start) as usize;
            ix[d] = r.start + (k % extent) as i64;
            k /= extent;
        }
        ix
    }

    /// The number of the iteration at `ix`.
    fn number(&self, ix: &[i64]) -> usize {
        self.ranges.iter().zip(ix).fold(0, |k, (r, &i)| {
            k * (r.end - r.start) as usize + (i - r.start) as usize
        })
    }

    fn space(&self) -> CommLoop {
        let mut ranges = self.ranges.iter().cloned();
        let outer = ranges.next().expect("one index or more");
        ranges
            .fold(CommLoop::new(outer), CommLoop::inner)
            .bind("src", self.src.base, &self.src.strides)
            .bind("dst", self.dst.base, &self.dst.strides)
    }

    fn params(&self) -> CommParams {
        let rank = RankExpr::rank;
        let lit = RankExpr::lit;
        let src = || RankExpr::var("src");
        let dst = || RankExpr::var("dst");
        let plain = |v: RankExpr| rank().eq(v);
        let (send, recv) = match self.when {
            When::Plain => (plain(src()), plain(dst())),
            When::Flipped => (src().eq(rank()), dst().eq(rank())),
            When::Arith => (
                plain(lit(2) * src() - src()),
                plain(-(lit(3) - dst()) + lit(3)),
            ),
            When::AndInvariant => {
                let holds = || RankExpr::nranks().gt(lit(0));
                (plain(src()).and(holds()), plain(dst()).and(holds()))
            }
            When::OrInvariant => {
                let fails = || RankExpr::nranks().lt(lit(0));
                (plain(src()).or(fails()), plain(dst()).or(fails()))
            }
            When::AndAtoms => (
                plain(src()).and(src().eq(rank())),
                plain(dst()).and(dst().eq(rank())),
            ),
            When::OrAtoms => (
                plain(src()).or(plain(src() + lit(0))),
                plain(dst()).or(plain(dst() + lit(0))),
            ),
            When::RankParity(v) => (
                plain(src()).and((rank() % lit(2)).eq(lit(v))),
                plain(dst()).and((src() % lit(2)).eq(lit(v))),
            ),
            When::Opaque => {
                let every_third = || {
                    CondExpr::opaque("src_not_multiple_of_3", |env| {
                        env.vars.get("src").is_some_and(|s| s % 3 != 0)
                    })
                };
                (
                    plain(src()).and(every_third()),
                    plain(dst()).and(every_third()),
                )
            }
            When::NonRankCompare => (
                plain(src()).and(src().ge(lit(0))),
                plain(dst()).and(dst().ge(lit(0))),
            ),
        };
        let mut p = CommParams::new()
            .sender(src())
            .receiver(dst())
            .sendwhen(send)
            .receivewhen(recv)
            .target(self.target)
            .place_sync(self.place);
        p = match self.count {
            Count::Inferred => p,
            Count::Literal => p.count(2),
            Count::Varying => p.count(src() - src() + lit(2)),
        };
        match self.max_iter {
            Some(m) => p.max_comm_iter(m),
            None => p,
        }
    }
}

// -- running both forms ---------------------------------------------------------

/// What one rank can tell about its run.
#[derive(Debug, PartialEq)]
struct Outcome {
    now: Time,
    counters: Vec<(&'static str, usize)>,
    ir: String,
    error: Option<String>,
    recv: Vec<[f64; 2]>,
}

/// The recorded IR without buffer addresses, which differ between runs.
fn ir_text(mut program: Vec<ParamsSpec>) -> String {
    for p2p in program.iter_mut().flat_map(|r| r.body.iter_mut()) {
        for b in p2p.sbuf.iter_mut().chain(p2p.rbuf.iter_mut()) {
            b.addr = (0, 0);
        }
    }
    format!("{program:?}")
}

fn outcome(
    ctx: &mut RankCtx,
    ir: Vec<ParamsSpec>,
    result: Result<(), DirectiveError>,
    recv: Vec<[f64; 2]>,
) -> Outcome {
    Outcome {
        now: ctx.now(),
        counters: ctx
            .stats
            .of_kind(CounterKind::Virtual)
            .map(|(c, v)| (c.name, v))
            .collect(),
        ir: ir_text(ir),
        error: result.err().map(|e| format!("{e:?}")),
        recv,
    }
}

fn run_case(case: &Case, loop_form: bool, exec: ExecPolicy) -> Vec<Outcome> {
    run(SimConfig::new(case.nranks).with_exec(exec), |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm);
        if let Some(batch) = case.coalesce {
            let mut ov = Overlay::default();
            ov.set(SiteDecision::new(SITE, Decision::Coalesce { batch }));
            s = s.with_overlay(ov);
        }
        let me = s.rank() as f64;
        let total = case.total();
        let send: Vec<[f64; 2]> = (0..total).map(|k| [me, k as f64]).collect();
        let mut recv = vec![[-1.0; 2]; if case.shared_rbuf { 1 } else { total }];
        let slot = |k: usize| if case.shared_rbuf { 0 } else { k };
        let params = case.params();
        let result = if loop_form {
            s.region_loop(&params, &case.space(), |ix, it| {
                let k = case.number(ix);
                it.p2p()
                    .site(SITE)
                    .sbuf(Prim::new("send", &send[k]))
                    .rbuf(PrimMut::new("recv", &mut recv[slot(k)]))
                    .run()
            })
        } else {
            s.region(&params, |reg| {
                for k in 0..total {
                    let ix = case.index(k);
                    reg.set_var("src", case.src.at(&ix));
                    reg.set_var("dst", case.dst.at(&ix));
                    reg.p2p()
                        .site(SITE)
                        .sbuf(Prim::new("send", &send[k]))
                        .rbuf(PrimMut::new("recv", &mut recv[slot(k)]))
                        .run()?;
                }
                Ok(())
            })
            .and_then(|r| r)
        };
        let ir = s.finish();
        outcome(ctx, ir, result, recv)
    })
    .per_rank
}

#[test]
fn loop_form_matches_per_instance_loop() {
    let mut rng = Rng(SEED);
    let (mut solved, mut failed) = (0, 0);
    for n in 0..cases() {
        let case = Case::generate(&mut rng);
        let per_rank = ExecPolicy::bounded(case.nranks);
        let reference = run_case(&case, false, per_rank);
        for (engine, exec) in [
            ("bounded(nranks)", per_rank),
            ("bounded(2)", ExecPolicy::bounded(2)),
        ] {
            let got = run_case(&case, true, exec);
            for (rank, (want, got)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(got, want, "case {n} rank {rank} under {engine}: {case:?}");
            }
        }
        solved += usize::from(matches!(
            (case.when, case.count),
            (
                When::Plain
                    | When::Flipped
                    | When::Arith
                    | When::AndInvariant
                    | When::OrInvariant
                    | When::AndAtoms
                    | When::OrAtoms,
                Count::Inferred | Count::Literal
            )
        ));
        failed += usize::from(reference.iter().any(|o| o.error.is_some()));
    }
    // The corpus exercises both paths and the `max_comm_iter` failure.
    assert!(solved > 0 && solved < cases(), "{solved} solvable cases");
    assert!(failed > 0, "no case exceeded max_comm_iter");
}

// -- the spin workload ----------------------------------------------------------

/// Listing 7's `setEvec`, both regions as per-instance loops: the reference
/// for `set_evec_directive`, which writes them as loop-form regions.
#[allow(clippy::needless_range_loop)] // worker loops index rank-shaped arrays
fn set_evec_per_instance(
    session: &mut CommSession<'_>,
    topo: &Topology,
    state: &mut SpinState,
    target: Target,
) -> Result<(), DirectiveError> {
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
    let params1 = CommParams::new()
        .sender(RankExpr::lit(topo.wl_rank() as i64))
        .receiver(RankExpr::var("sp_dest"))
        .sendwhen(RankExpr::rank().eq(RankExpr::lit(topo.wl_rank() as i64)))
        .receivewhen(RankExpr::rank().eq(RankExpr::var("sp_dest")))
        .count(3)
        .max_comm_iter((m_cnt * n) as i64)
        .place_sync(PlaceSync::EndAdjParamRegions)
        .target(target);
    session.region(&params1, |reg| {
        for m in 0..m_cnt {
            let dest = topo.privileged_rank(m);
            reg.set_var("sp_dest", dest as i64);
            for p in 0..n {
                let src: &[f64] = if is_wl { &ev[m * n + p] } else { &[] };
                let dst: &mut [f64] = if is_priv && dest == me {
                    &mut staged[p]
                } else {
                    &mut []
                };
                reg.p2p()
                    .site(11)
                    .sbuf(Prim::new("ev[3*p]", src))
                    .rbuf(PrimMut::new("staged[p]", dst))
                    .run()?;
            }
        }
        Ok::<(), DirectiveError>(())
    })??;
    if is_priv {
        *my_spin = staged[0];
    }
    let params2 = CommParams::new()
        .sender(RankExpr::var("sp_src"))
        .receiver(RankExpr::var("sp_dst"))
        .sendwhen(RankExpr::rank().eq(RankExpr::var("sp_src")))
        .receivewhen(RankExpr::rank().eq(RankExpr::var("sp_dst")))
        .count(3)
        .max_comm_iter((m_cnt * (n - 1)) as i64)
        .target(target);
    session.region(&params2, |reg| {
        for m in 0..m_cnt {
            let src_rank = topo.privileged_rank(m);
            reg.set_var("sp_src", src_rank as i64);
            for w in 1..n {
                let dst_rank = src_rank + w;
                reg.set_var("sp_dst", dst_rank as i64);
                let sb: &[f64] = if is_priv && src_rank == me {
                    &staged[w]
                } else {
                    &[]
                };
                let rb: &mut [f64] = if dst_rank == me {
                    &mut my_spin[..]
                } else {
                    &mut []
                };
                reg.p2p()
                    .site(12)
                    .sbuf(Prim::new("staged[w]", sb))
                    .rbuf(PrimMut::new("atom.evec", rb))
                    .run()?;
            }
        }
        Ok::<(), DirectiveError>(())
    })?
}

/// Two `setEvec` steps on every rank of `topo`; per rank the outcome and
/// the spin it ends with.
fn spin_run(
    topo: &Topology,
    target: Target,
    coalesce: bool,
    loop_form: bool,
    exec: ExecPolicy,
) -> Vec<(Outcome, [f64; 3])> {
    run(SimConfig::new(topo.total_ranks()).with_exec(exec), |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm);
        if coalesce {
            let mut ov = Overlay::default();
            for site in [11, 12] {
                ov.set(SiteDecision::new(site, Decision::Coalesce { batch: 4 }));
            }
            s = s.with_overlay(ov);
        }
        let mut state = SpinState::new(topo, s.rank());
        let mut result = Ok(());
        for step in 0..2 {
            if s.rank() == topo.wl_rank() {
                state.ev = generate_spins(step, topo.instances * topo.ranks_per_lsms);
            }
            result = if loop_form {
                set_evec_directive(&mut s, topo, &mut state, target, None).map(|_| ())
            } else {
                set_evec_per_instance(&mut s, topo, &mut state, target)
            };
            s.flush();
        }
        let ir = s.finish();
        (outcome(ctx, ir, result, Vec::new()), state.my_spin)
    })
    .per_rank
}

#[test]
fn spin_loop_regions_match_listing_7() {
    let topo = Topology::new(3, 4);
    for (target, coalesce) in [
        (Target::Mpi2Side, false),
        (Target::Mpi2Side, true),
        (Target::Mpi1Side, false),
        (Target::Shmem, false),
        (Target::Shmem, true),
    ] {
        let per_rank = ExecPolicy::bounded(topo.total_ranks());
        let reference = spin_run(&topo, target, coalesce, false, per_rank);
        let expected = generate_spins(1, topo.instances * topo.ranks_per_lsms);
        for (rank, (_, spin)) in reference.iter().enumerate().skip(1) {
            let m = topo.instance_of(rank).expect("LSMS rank");
            let local = rank - topo.privileged_rank(m);
            assert_eq!(*spin, expected[m * topo.ranks_per_lsms + local]);
        }
        for exec in [per_rank, ExecPolicy::bounded(2)] {
            let got = spin_run(&topo, target, coalesce, true, exec);
            for (rank, (want, got)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(
                    got, want,
                    "{target} coalesce={coalesce} rank {rank} under {exec:?}"
                );
            }
        }
    }
}
