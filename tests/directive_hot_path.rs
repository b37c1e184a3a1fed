//! The directive engine's non-participant path: a rank whose `sendwhen`
//! and `receivewhen` are both false makes no heap allocation per
//! `comm_p2p` instance, yet still does everything another rank or the
//! caller can observe — the `max_comm_iter` count, the overlap body under
//! the site's attribution, the collective staging allocation and the
//! one-sided fence of the resolved (overlay-retargeted) target. A region's
//! clauses are compiled when it opens, so the tests also cover variables
//! bound only after that, and ones never bound. Collectives are entered
//! through interned groups, so the last tests check that every route to
//! one member list meets in one barrier and one symmetric allocation, and
//! that a world barrier entry allocates nothing. Fig. 3's Listing 5 transfer
//! allocates nothing on a bystander, nor does checking a received atom. A
//! participating composite transfer under derived datatypes allocates no
//! more than a primitive transfer of the same bytes, on either side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use commint::prelude::*;
use mpisim::Comm;
use netsim::{run, EventKind, ExecPolicy, SimConfig, Time};

/// Counts heap allocations made by the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown land after the
    // counter is gone and are not ours to count.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Two ranks, each on a carrier of its own: the allocation counter is
/// per thread, and ranks sharing a carrier would count each other's
/// allocations.
fn two_carriers() -> SimConfig {
    SimConfig::new(2).with_exec(ExecPolicy::bounded(2))
}

/// Clauses under which rank `from` sends to rank `to` and every other
/// rank of the communicator is a non-participant.
fn pair(from: i64, to: i64, target: Target, iters: usize) -> CommParams {
    CommParams::new()
        .sender(RankExpr::lit(from))
        .receiver(RankExpr::lit(to))
        .sendwhen(RankExpr::rank().eq(RankExpr::lit(from)))
        .receivewhen(RankExpr::rank().eq(RankExpr::lit(to)))
        .count(3)
        .max_comm_iter(iters as i64)
        .target(target)
}

#[test]
fn non_participant_instances_do_not_allocate() {
    const N: usize = 1000;
    for target in [Target::Mpi2Side, Target::Shmem, Target::Mpi1Side] {
        // Ranks 0 and 1 of 2; the pair (5 -> 6) names neither, so both are
        // non-participants on every instance.
        let params = pair(5, 6, target, N + 1);
        let res = run(two_carriers(), |ctx| {
            let comm = Comm::world(ctx);
            let mut s = CommSession::new(ctx, comm);
            let src = [1.0f64; 3];
            let mut dst = [0.0f64; 3];
            s.region(&params, |reg| {
                // Warm-up: the first execution validates, records the IR
                // and joins the staging allocation.
                reg.p2p()
                    .site(1)
                    .sbuf(Prim::new("src", &src))
                    .rbuf(PrimMut::new("dst", &mut dst))
                    .run()
                    .unwrap();
                let before = thread_allocs();
                for _ in 0..N {
                    reg.p2p()
                        .site(1)
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                        .unwrap();
                }
                thread_allocs() - before
            })
            .unwrap()
        });
        for (rank, allocs) in res.per_rank.iter().enumerate() {
            assert_eq!(
                *allocs, 0,
                "{target}: rank {rank} allocated {allocs} times over {N} non-participant instances"
            );
        }
    }
}

#[test]
fn non_participant_var_clause_instances_do_not_allocate() {
    // Fig. 4 spin's second region: every clause names a variable, and the
    // loop rebinds one before each instance.
    const N: usize = 1000;
    for target in [Target::Mpi2Side, Target::Shmem, Target::Mpi1Side] {
        let params = CommParams::new()
            .sender(RankExpr::var("sp_src"))
            .receiver(RankExpr::var("sp_dst"))
            .sendwhen(RankExpr::rank().eq(RankExpr::var("sp_src")))
            .receivewhen(RankExpr::rank().eq(RankExpr::var("sp_dst")))
            .count(3)
            .max_comm_iter(N as i64 + 1)
            .target(target);
        let res = run(two_carriers(), |ctx| {
            let comm = Comm::world(ctx);
            let mut s = CommSession::new(ctx, comm);
            let src = [1.0f64; 3];
            let mut dst = [0.0f64; 3];
            s.region(&params, |reg| {
                // Ranks 5 and 6 are outside the communicator: both ranks
                // are non-participants on every instance.
                reg.set_var("sp_src", 5);
                reg.set_var("sp_dst", 6);
                reg.p2p()
                    .site(12)
                    .sbuf(Prim::new("staged[w]", &src))
                    .rbuf(PrimMut::new("atom.evec", &mut dst))
                    .run()
                    .unwrap();
                let before = thread_allocs();
                for i in 0..N {
                    reg.set_var("sp_dst", 6 + (i % 3) as i64);
                    reg.p2p()
                        .site(12)
                        .sbuf(Prim::new("staged[w]", &src))
                        .rbuf(PrimMut::new("atom.evec", &mut dst))
                        .run()
                        .unwrap();
                }
                thread_allocs() - before
            })
            .unwrap()
        });
        for (rank, allocs) in res.per_rank.iter().enumerate() {
            assert_eq!(
                *allocs, 0,
                "{target}: rank {rank} allocated {allocs} times over {N} var-clause instances"
            );
        }
    }
}

#[test]
fn variable_first_bound_inside_the_region_is_resolved() {
    // `late` is unbound when the region opens (and its clauses are
    // compiled); the body binds it before each instance.
    let params = CommParams::new()
        .sender(RankExpr::lit(0))
        .receiver(RankExpr::var("late"))
        .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
        .receivewhen(RankExpr::rank().eq(RankExpr::var("late")))
        .count(1)
        .max_comm_iter(2);
    let res = run(SimConfig::new(3), |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm);
        let mut got = [[0i64; 1]; 2];
        s.region(&params, |reg| {
            for (dest, g) in [1i64, 2].into_iter().zip(&mut got) {
                reg.set_var("late", dest);
                reg.p2p()
                    .site(2)
                    .sbuf(Prim::new("src", &[10 + dest]))
                    .rbuf(PrimMut::new("got", g))
                    .run()
                    .unwrap();
            }
        })
        .unwrap();
        s.flush();
        got
    });
    assert_eq!(res.per_rank[1], [[11], [0]]);
    assert_eq!(res.per_rank[2], [[0], [12]]);
}

#[test]
fn never_bound_variable_reports_unknown_variable() {
    let params = CommParams::new()
        .sender(RankExpr::lit(0))
        .receiver(RankExpr::lit(1))
        .sendwhen(RankExpr::rank().eq(RankExpr::var("never_set")))
        .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)));
    let res = run(SimConfig::new(2), |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm);
        let src = [1.0f64; 3];
        let mut dst = [0.0f64; 3];
        let mut instance = Ok(());
        let region = s.region(&params, |reg| {
            instance = reg
                .p2p()
                .site(3)
                .sbuf(Prim::new("src", &src))
                .rbuf(PrimMut::new("dst", &mut dst))
                .run();
        });
        (
            instance.unwrap_err().to_string(),
            region.unwrap_err().to_string(),
        )
    });
    for (instance, region) in &res.per_rank {
        assert_eq!(
            instance,
            "clause expression error: unknown variable `never_set`"
        );
        assert_eq!(
            region,
            "directive validation failed:\n  \
             error: clause expression error: unknown variable `never_set`\n"
        );
    }
}

#[test]
fn non_participant_still_counts_toward_max_comm_iter() {
    // Rank 2 of 3 never takes part; the pair 0 -> 1 does. All three ranks
    // must reject the third execution of a two-iteration site.
    let params = pair(0, 1, Target::Mpi2Side, 2);
    let res = run(SimConfig::new(3), |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm);
        let src = [1.0f64; 3];
        let mut dst = [0.0f64; 3];
        let mut last = Ok(());
        // The region itself fails too, with the error folded into a
        // diagnostic; the instance reports the precise cause.
        let region = s.region(&params, |reg| {
            for _ in 0..3 {
                last = reg
                    .p2p()
                    .site(4)
                    .sbuf(Prim::new("src", &src))
                    .rbuf(PrimMut::new("dst", &mut dst))
                    .run();
            }
        });
        assert!(region.is_err());
        s.flush();
        last.unwrap_err()
    });
    for (rank, err) in res.per_rank.iter().enumerate() {
        assert!(
            matches!(err, DirectiveError::MaxIterExceeded { site: 4, bound: 2 }),
            "rank {rank}: expected MaxIterExceeded, got {err}"
        );
    }
}

#[test]
fn non_participant_runs_overlap_body_under_the_site() {
    let params = pair(0, 1, Target::Mpi2Side, 1);
    let res = run(SimConfig::new(3).with_trace(), |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm);
        let src = [1.0f64; 3];
        let mut dst = [0.0f64; 3];
        let mut ran = false;
        s.region(&params, |reg| {
            reg.p2p()
                .site(77)
                .sbuf(Prim::new("src", &src))
                .rbuf(PrimMut::new("dst", &mut dst))
                .overlap(|ctx| {
                    ran = true;
                    ctx.compute(Time::from_nanos(500));
                })
                .unwrap();
        })
        .unwrap();
        s.flush();
        ran
    });
    assert_eq!(res.per_rank, vec![true; 3], "every rank runs the body");
    let trace = res.trace.expect("trace enabled");
    let computes: Vec<_> = trace
        .iter()
        .filter(|e| e.rank == 2 && matches!(e.kind, EventKind::Compute { ns: 500 }))
        .collect();
    assert_eq!(computes.len(), 1, "the non-participant's body ran once");
    assert_eq!(
        computes[0].site,
        Some(77),
        "the body's compute is attributed to the directive site"
    );
    assert!(res.final_times[2] >= Time::from_nanos(500));
}

/// Six ranks, only 1 -> 4 moves data; the others join the site's staging
/// allocation and the region's fence. Per-rank compute skews the clocks so
/// the collectives have something to reconcile. Returns (final times,
/// barriers, quiets, rank 4's buffer).
fn two_of_six(target: Target, cfg: SimConfig) -> (Vec<Time>, Vec<usize>, Vec<usize>, [f64; 3]) {
    const ITERS: usize = 3;
    let params = pair(1, 4, target, ITERS);
    let res = run(cfg, |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm);
        let me = s.rank();
        let mut dst = [0.0f64; 3];
        for i in 0..ITERS {
            let src = [i as f64, me as f64, 7.0];
            s.ctx().compute(Time::from_nanos(100 * (me as u64 + 1)));
            s.region(&params, |reg| {
                reg.p2p()
                    .site(3)
                    .sbuf(Prim::new("src", &src))
                    .rbuf(PrimMut::new("dst", &mut dst))
                    .run()
                    .unwrap();
            })
            .unwrap();
        }
        s.flush();
        (s.ctx().stats.barriers, s.ctx().stats.quiets, dst)
    });
    let barriers = res.per_rank.iter().map(|r| r.0).collect();
    let quiets = res.per_rank.iter().map(|r| r.1).collect();
    (res.final_times, barriers, quiets, res.per_rank[4].2)
}

#[test]
fn non_participants_join_staging_and_fence_identically_across_engines() {
    for target in [Target::Mpi1Side, Target::Shmem] {
        let per_rank = two_of_six(target, SimConfig::new(6).with_exec(ExecPolicy::bounded(6)));
        let bounded = two_of_six(target, SimConfig::new(6).with_exec(ExecPolicy::bounded(1)));
        assert_eq!(
            per_rank.0, bounded.0,
            "{target}: final times differ across engines"
        );
        assert_eq!(per_rank.1, bounded.1);
        assert_eq!(per_rank.2, bounded.2);
        assert_eq!(
            per_rank.3,
            [2.0, 1.0, 7.0],
            "{target}: payload of the last instance"
        );
        let (_, barriers, quiets, _) = per_rank;
        // The staging allocation is a barrier over all six ranks; the
        // MPI-1 fence adds one per region.
        let want = if target == Target::Mpi1Side { 4 } else { 1 };
        assert_eq!(barriers, vec![want; 6], "{target}: barriers per rank");
        if target == Target::Shmem {
            assert_eq!(quiets, vec![3; 6], "shmem: one quiet per region per rank");
        }
    }
}

/// Per rank: (barriers, quiets, sends, `dst`, `got`).
type OverlayRun = (usize, usize, usize, [f64; 3], [[f64; 3]; 2]);

/// Rank 0 sends to rank 1 of 3 through two sites under an overlay: site 5
/// is written for MPI two-sided but retargeted to MPI one-sided, site 6
/// runs on SHMEM, coalesced in batches of two.
fn overlay_run(cfg: SimConfig) -> netsim::SimResult<OverlayRun> {
    let mut ov = Overlay::default();
    ov.set(SiteDecision::new(5, Decision::Retarget(Target::Mpi1Side)));
    ov.set(SiteDecision::new(6, Decision::Coalesce { batch: 2 }));
    let params = pair(0, 1, Target::Shmem, 4);
    run(cfg, |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm).with_overlay(ov.clone());
        let src = [3.0f64; 3];
        let mut dst = [0.0f64; 3];
        // Independent buffers per instance: a write-write dependence
        // would split the region's synchronization on the receiver.
        let mut got = [[0.0f64; 3]; 2];
        s.region(&params, |reg| {
            reg.p2p()
                .site(5)
                .target(Target::Mpi2Side)
                .sbuf(Prim::new("src", &src))
                .rbuf(PrimMut::new("dst", &mut dst))
                .run()
                .unwrap();
            for g in &mut got {
                reg.p2p()
                    .site(6)
                    .sbuf(Prim::new("src", &src))
                    .rbuf(PrimMut::new("got", g))
                    .run()
                    .unwrap();
            }
        })
        .unwrap();
        s.flush();
        let st = &s.ctx().stats;
        (st.barriers, st.quiets, st.sends, dst, got)
    })
}

#[test]
fn non_participant_fences_follow_the_overlay() {
    // A non-participant must join the MPI-1 fence of the retargeted site
    // and quiet for the coalesced one exactly like the pair.
    let res = overlay_run(SimConfig::new(3).with_exec(ExecPolicy::bounded(3)));
    let (barriers, quiets, _, dst, got) = res.per_rank[1];
    assert_eq!((dst, got), ([3.0; 3], [[3.0; 3]; 2]), "the pair delivered");
    assert_eq!(
        res.per_rank[0].2, 0,
        "retargeted site must not use two-sided sends"
    );
    // Two staging allocations (one per site) plus the MPI-1 fence.
    assert_eq!(barriers, 3);
    assert_eq!(quiets, 1);
    let bystander = res.per_rank[2];
    assert_eq!(
        (bystander.0, bystander.1),
        (barriers, quiets),
        "the non-participant joins the same fence and quiet"
    );
    let bounded = overlay_run(SimConfig::new(3).with_exec(ExecPolicy::bounded(1)));
    assert_eq!(res.final_times, bounded.final_times);
}

// -- the loop form ------------------------------------------------------------

/// A `10 × 3` loop on 5 ranks: rank 0 sends in every iteration, to rank
/// `1 + j`, so ranks 1–3 each receive in 10 iterations (rank 1 in the
/// first) and rank 4 in none. `when` picks the receiver's clause.
fn fan_out_loop(when: CondExpr, bound: i64) -> (CommParams, CommLoop) {
    let params = CommParams::new()
        .sender(RankExpr::lit(0))
        .receiver(RankExpr::var("dst"))
        .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
        .receivewhen(when)
        .count(3)
        .max_comm_iter(bound);
    (
        params,
        CommLoop::new(0..10).inner(0..3).bind("dst", 1, &[0, 1]),
    )
}

/// Per rank: the iterations whose body ran, and the last `comm_p2p`
/// result.
type FanOut = (Vec<[i64; 2]>, Result<(), DirectiveError>);

fn run_fan_out(params: &CommParams, space: &CommLoop) -> Vec<FanOut> {
    run(SimConfig::new(5), |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm);
        let src = [1.0f64; 3];
        let mut dst = [[0.0f64; 3]; 30];
        let mut seen = Vec::new();
        let mut last = Ok(());
        let _ = s.region_loop(params, space, |ix, it| {
            seen.push([ix[0], ix[1]]);
            let k = (ix[0] * 3 + ix[1]) as usize;
            last = it
                .p2p()
                .site(5)
                .sbuf(Prim::new("src", &src))
                .rbuf(PrimMut::new("dst", &mut dst[k]))
                .run();
            last.clone()
        });
        s.flush();
        (seen, last)
    })
    .per_rank
}

#[test]
fn loop_form_runs_a_rank_s_own_iterations_plus_the_first() {
    let (params, space) = fan_out_loop(RankExpr::rank().eq(RankExpr::var("dst")), 30);
    let res = run_fan_out(&params, &space);
    assert_eq!(res[0].0.len(), 30, "the sender takes part everywhere");
    for (rank, (seen, last)) in res.iter().enumerate().skip(1) {
        assert!(last.is_ok(), "rank {rank}: {last:?}");
        let own: Vec<[i64; 2]> = (0..10)
            .map(|i| [i, rank as i64 - 1])
            .filter(|&ix| rank == 1 || ix != [0, 0])
            .collect();
        let want: Vec<[i64; 2]> = match rank {
            1 => own,
            2 | 3 => std::iter::once([0, 0]).chain(own).collect(),
            _ => vec![[0, 0]],
        };
        assert_eq!(seen, &want, "rank {rank}: the first iteration plus its own");
    }
}

#[test]
fn loop_form_falls_back_to_every_iteration() {
    // `rank % 4 == dst % 4` is the same predicate but not a `rank == e`
    // atom, so no rank can skip an iteration.
    let rem = |e: RankExpr| e % RankExpr::lit(4);
    let (params, space) = fan_out_loop(rem(RankExpr::rank()).eq(rem(RankExpr::var("dst"))), 30);
    for (rank, (seen, last)) in run_fan_out(&params, &space).iter().enumerate() {
        assert!(last.is_ok(), "rank {rank}: {last:?}");
        assert_eq!(seen.len(), 30, "rank {rank} ran every iteration");
    }
}

#[test]
fn loop_form_fails_max_comm_iter_at_the_same_iteration_everywhere() {
    // Iteration 7 is `(2, 1)`; rank 2's next own iteration after it is
    // `(3, 1)`, rank 3's `(2, 2)`, and rank 4 has none.
    let (params, space) = fan_out_loop(RankExpr::rank().eq(RankExpr::var("dst")), 7);
    for (rank, (seen, last)) in run_fan_out(&params, &space).iter().enumerate() {
        assert_eq!(seen.last(), Some(&[2, 1]), "rank {rank} failed elsewhere");
        assert!(
            matches!(
                last,
                Err(DirectiveError::MaxIterExceeded { site: 5, bound: 7 })
            ),
            "rank {rank}: {last:?}"
        );
    }
}

#[test]
fn skipped_loop_iterations_do_not_allocate() {
    // The pair (5 -> 6) names neither of the 2 ranks, so each runs the
    // first iteration and skips the rest: what a region allocates must not
    // grow with the iterations it skips.
    for target in [Target::Mpi2Side, Target::Shmem, Target::Mpi1Side] {
        // No `max_comm_iter`: one-sided staging would hold a slot per
        // iteration.
        let params = CommParams::new()
            .sender(RankExpr::lit(5))
            .receiver(RankExpr::lit(6))
            .sendwhen(RankExpr::rank().eq(RankExpr::lit(5)))
            .receivewhen(RankExpr::rank().eq(RankExpr::lit(6)))
            .count(3)
            .target(target);
        let allocs = |iterations: i64| {
            let space = CommLoop::new(0..iterations);
            run(two_carriers(), |ctx| {
                let comm = Comm::world(ctx);
                let mut s = CommSession::new(ctx, comm);
                let src = [1.0f64; 3];
                let mut dst = [0.0f64; 3];
                let mut run_loop = || {
                    s.region_loop(&params, &space, |_, it| {
                        it.p2p()
                            .site(1)
                            .sbuf(Prim::new("src", &src))
                            .rbuf(PrimMut::new("dst", &mut dst))
                            .run()
                    })
                    .unwrap();
                };
                // Warm-up: the first region joins the site's staging.
                run_loop();
                let before = thread_allocs();
                run_loop();
                thread_allocs() - before
            })
            .per_rank
        };
        assert_eq!(
            allocs(10),
            allocs(1 << 30),
            "{target}: allocations per rank over 10 vs 2^30 skipped iterations"
        );
    }
}

#[test]
fn bystander_reopening_a_solved_loop_does_not_allocate() {
    // Spin's region 2 over ranks 5 and up: both ranks solve
    // `rank == sp_src` and `rank == sp_dst` to no iteration. The loop's
    // variable slots and the solved lists are lent by the session, and the
    // solver reads the clauses' names in place, so once the first region
    // has run a reopening allocates nothing.
    for target in [Target::Mpi2Side, Target::Shmem, Target::Mpi1Side] {
        let params = CommParams::new()
            .sender(RankExpr::var("sp_src"))
            .receiver(RankExpr::var("sp_dst"))
            .sendwhen(RankExpr::rank().eq(RankExpr::var("sp_src")))
            .receivewhen(RankExpr::rank().eq(RankExpr::var("sp_dst")))
            .count(3)
            .target(target);
        let space = CommLoop::new(0..21)
            .inner(1..16)
            .bind("sp_src", 5, &[16])
            .bind("sp_dst", 5, &[16, 1]);
        let allocs = run(two_carriers(), |ctx| {
            let comm = Comm::world(ctx);
            let mut s = CommSession::new(ctx, comm).without_ir();
            let src = [1.0f64; 3];
            let mut dst = [0.0f64; 3];
            let mut run_loop = || {
                s.region_loop(&params, &space, |_, it| {
                    it.p2p()
                        .site(1)
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                })
                .unwrap();
            };
            run_loop();
            let before = thread_allocs();
            for _ in 0..100 {
                run_loop();
            }
            thread_allocs() - before
        })
        .per_rank;
        assert_eq!(allocs, vec![0, 0], "{target}: allocations per rank");
    }
}

// -- reopening a region ---------------------------------------------------------

commint::comm_datatype! {
    /// A small composite for the reopening tests.
    struct Probe {
        id: i32,
        pos: [f64; 3],
        tag: [u8; 5],
    }
}

#[test]
fn described_layout_is_built_once() {
    use commint::buffer::Described;
    let first = Probe::layout();
    let before = thread_allocs();
    let second = Probe::layout();
    assert_eq!(thread_allocs() - before, 0, "a second layout() allocated");
    assert!(
        std::sync::Arc::ptr_eq(&first, &second),
        "one layout per type"
    );
}

/// Allocations per rank over `reopenings` reopenings of a two-site region
/// (a primitive and a composite buffer) with one clause set, in which both
/// ranks are non-participants. Two warm-up regions come first: the first
/// compiles the clauses and joins each site's staging allocation.
fn reopening_allocs(target: Target, reopenings: usize) -> Vec<u64> {
    let params = pair(5, 6, target, 1);
    run(two_carriers(), |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm).without_ir();
        let (src, mut dst) = ([1.0f64; 3], [0.0f64; 3]);
        let probe = Probe {
            id: 1,
            pos: [2.0; 3],
            tag: [3; 5],
        };
        let mut got = [probe; 3];
        let mut open = |s: &mut CommSession<'_>| {
            s.region(&params, |reg| {
                reg.p2p()
                    .site(1)
                    .sbuf(Prim::new("src", &src))
                    .rbuf(PrimMut::new("dst", &mut dst))
                    .run()
                    .unwrap();
                reg.p2p()
                    .site(2)
                    .sbuf(Struc::new("probe", &[probe; 3]))
                    .rbuf(StrucMut::new("got", &mut got))
                    .run()
                    .unwrap();
            })
            .unwrap();
        };
        open(&mut s);
        open(&mut s);
        let before = thread_allocs();
        for _ in 0..reopenings {
            open(&mut s);
        }
        thread_allocs() - before
    })
    .per_rank
}

#[test]
fn non_participant_reopening_an_equal_region_does_not_allocate() {
    for target in [Target::Mpi2Side, Target::Shmem, Target::Mpi1Side] {
        let (few, many) = (reopening_allocs(target, 10), reopening_allocs(target, 1000));
        assert_eq!(
            few, many,
            "{target}: allocations over 10 vs 1000 reopenings"
        );
        assert_eq!(many, vec![0, 0], "{target}: allocations per rank");
    }
}

#[test]
fn overlay_place_sync_applies_without_ir() {
    // Site 9's overlay decision defers its region's sync to the next
    // region; with IR off the region keeps no IR to find the site in.
    let mut ov = Overlay::default();
    ov.set(SiteDecision::new(
        9,
        Decision::PlaceSync(PlaceSync::BeginNextParamRegion),
    ));
    let params = pair(0, 1, Target::Mpi2Side, 1);
    let res = run(SimConfig::new(2), |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm)
            .without_ir()
            .with_overlay(ov.clone());
        let (src, mut dst) = ([1.0f64; 3], [0.0f64; 3]);
        s.region(&params, |reg| {
            reg.p2p()
                .site(9)
                .sbuf(Prim::new("src", &src))
                .rbuf(PrimMut::new("dst", &mut dst))
                .run()
                .unwrap();
        })
        .unwrap();
        let deferred = s.ctx().stats.waitalls;
        s.flush();
        (deferred, s.ctx().stats.waitalls, s.program().len(), dst)
    });
    for (rank, &(deferred, flushed, regions, dst)) in res.per_rank.iter().enumerate() {
        assert_eq!(deferred, 0, "rank {rank}: the overlay deferred the sync");
        assert_eq!(flushed, 1, "rank {rank}: flush applies the carried sync");
        assert_eq!(regions, 0, "rank {rank}: no IR recorded");
        if rank == 1 {
            assert_eq!(dst, [1.0; 3]);
        }
    }
}

// -- interned groups -------------------------------------------------------------

#[test]
fn every_route_to_one_member_list_meets_in_one_group() {
    // Each rank reaches all four ranks by a different route: the world
    // communicator, the rank context's full barrier, a communicator
    // subset of every rank, and an ad-hoc SHMEM team slice. If any route
    // had a barrier or rendezvous of its own, its rank would wait alone
    // and the run would end in a deadlock report.
    let res = run(SimConfig::new(4), |ctx| {
        let all = [0, 1, 2, 3];
        let world = Comm::world(ctx);
        let subset = world.subset(ctx, 1, &all);
        ctx.compute(Time(100 * (ctx.rank() as u64 + 1)));
        match ctx.rank() {
            0 => world.barrier(ctx),
            1 => {
                let m = ctx.machine().mpi;
                ctx.barrier(&m);
            }
            2 => subset.barrier(ctx),
            _ => shmemsim::barrier_team(ctx, &all),
        }
        let exit = ctx.now();
        let seg = match ctx.rank() {
            0 => mpisim::Win::create(ctx, &world, 8).segment(),
            1 => shmemsim::SymSlice::<u8>::new(ctx, 8).segment(),
            2 => mpisim::Win::create(ctx, &subset, 8).segment(),
            _ => shmemsim::SymSlice::<u8>::new_team(ctx, &all, 8).segment(),
        };
        (exit, seg)
    });
    let (exits, segs): (Vec<_>, Vec<_>) = res.per_rank.into_iter().unzip();
    assert!(
        exits.iter().all(|&t| t == exits[0] && t > Time(400)),
        "{exits:?}"
    );
    assert!(segs.iter().all(|&s| s == segs[0]), "{segs:?}");
}

#[test]
fn world_barrier_entries_after_the_first_do_not_allocate() {
    let entries = |n: usize| {
        run(two_carriers(), move |ctx| {
            let m = ctx.machine().mpi;
            Comm::world(ctx).barrier(ctx);
            let before = thread_allocs();
            // Building the world shares the fabric's group: no copy.
            let world = Comm::world(ctx);
            for _ in 0..n {
                world.barrier(ctx);
                ctx.barrier(&m);
            }
            thread_allocs() - before
        })
        .per_rank
    };
    assert_eq!(entries(10), vec![0, 0]);
    assert_eq!(entries(1000), vec![0, 0]);
}

/// Fig. 3's directive transfer (Listing 5) of one small atom from rank 0
/// to rank 1, `transfers` times after two warm-ups, with rank 2 a
/// bystander of every one; each rank on a carrier of its own. Returns per
/// rank the allocations over the timed transfers and, after them, over
/// checking what the rank holds against the generator (ranks 0 and 1 hold
/// the atom; rank 0 first refills it).
fn atom_transfer_allocs(target: Target, transfers: usize) -> Vec<(u64, u64)> {
    use wl_lsms::atom_comm::transfer_atom_directive;
    use wl_lsms::{AtomData, AtomSizes, SyntheticFe};
    let fe = &SyntheticFe::new(AtomSizes { jmt: 40, numc: 6 });
    let cfg = SimConfig::new(3).with_exec(ExecPolicy::bounded(3));
    run(cfg, move |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm).without_ir();
        let mut atom = match s.rank() {
            0 => fe.atom(7),
            _ => AtomData::new(fe.sizes()),
        };
        let mut transfer = |s: &mut CommSession<'_>| {
            transfer_atom_directive(s, 0, 1, target, &mut atom).expect("directive transfer")
        };
        transfer(&mut s);
        transfer(&mut s);
        let before = thread_allocs();
        for _ in 0..transfers {
            transfer(&mut s);
        }
        let during = thread_allocs() - before;
        s.flush();
        let before = thread_allocs();
        if s.rank() == 0 {
            // As Fig. 3's master refills its one send buffer.
            fe.fill(&mut atom, 7);
        }
        let holds = fe.matches(&atom, 7);
        let checking = thread_allocs() - before;
        assert_eq!(holds, s.rank() != 2, "rank {}", s.rank());
        (during, checking)
    })
    .per_rank
}

#[test]
fn bystander_atom_transfers_do_not_allocate() {
    for target in [Target::Mpi2Side, Target::Shmem] {
        let (few, many) = (
            atom_transfer_allocs(target, 10),
            atom_transfer_allocs(target, 1000),
        );
        assert_eq!(few[2], many[2], "{target}: bystander over 10 vs 1000");
        assert_eq!(many[2].0, 0, "{target}: bystander allocations");
        for (rank, &(_, checking)) in many.iter().enumerate() {
            assert_eq!(checking, 0, "{target}: rank {rank} filling or checking");
        }
    }
}

// -- a participating transfer of each buffer shape ---------------------------

/// The buffer shape a participating transfer moves.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// A `u8` slice of the payload bytes.
    Primitive,
    /// Two `AtomScalars` through their described layout.
    Composite,
    /// Every other `u8` of a slice twice the payload: blocks of one value,
    /// two apart.
    Strided,
    /// Two parallel arrays, eight `f64` and eight `i32` records.
    Soa,
}

/// Allocations per rank over `transfers` directive-MPI transfers of one
/// buffer of `shape` from rank 0 to rank 1 under `policy`, after two
/// warm-ups. The primitive, composite and strided shapes carry the same
/// payload bytes.
fn participant_allocs(shape: Shape, policy: LoweringPolicy, transfers: usize) -> Vec<u64> {
    use commint::buffer::Described;
    use wl_lsms::AtomScalars;
    let params = CommParams::new()
        .sender(RankExpr::lit(0))
        .receiver(RankExpr::lit(1))
        .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
        .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
        .target(Target::Mpi2Side);
    run(two_carriers(), |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm)
            .without_ir()
            .with_lowering(policy);
        let (src, mut dst) = ([AtomScalars::default(); 2], [AtomScalars::default(); 2]);
        let bytes = 2 * AtomScalars::layout().packed_size();
        let (raw, mut raw_dst) = (vec![7u8; 2 * bytes], vec![0u8; 2 * bytes]);
        let (ec, mut ec_dst) = ([1.5f64; 8], [0f64; 8]);
        let (nc, mut nc_dst) = ([3i32; 8], [0i32; 8]);
        let mut transfer = |s: &mut CommSession<'_>| {
            s.region(&params, |reg| {
                let p2p = reg.p2p().site(1);
                let p2p = match shape {
                    Shape::Primitive => p2p
                        .sbuf(Prim::new("src", &raw[..bytes]))
                        .rbuf(PrimMut::new("dst", &mut raw_dst[..bytes])),
                    Shape::Composite => p2p
                        .sbuf(Struc::new("src", &src))
                        .rbuf(StrucMut::new("dst", &mut dst)),
                    Shape::Strided => p2p
                        .sbuf(PrimStrided::new("src", &raw, 1, 2))
                        .rbuf(PrimStridedMut::new("dst", &mut raw_dst, 1, 2)),
                    Shape::Soa => p2p
                        .sbuf(Soa::new("src").field("ec", &ec).field("nc", &nc))
                        .rbuf(
                            SoaMut::new("dst")
                                .field("ec", &mut ec_dst)
                                .field("nc", &mut nc_dst),
                        ),
                };
                p2p.run().unwrap();
            })
            .unwrap();
        };
        transfer(&mut s);
        transfer(&mut s);
        let before = thread_allocs();
        for _ in 0..transfers {
            transfer(&mut s);
        }
        thread_allocs() - before
    })
    .per_rank
}

#[test]
fn participating_composite_transfer_allocates_no_more_than_primitive() {
    // The two carriers interleave differently run to run, which moves a
    // few queue reallocations either way; an allocation per transfer on
    // either side would add 990 between 10 and 1000 transfers.
    const SLACK: u64 = 16;
    let policy = LoweringPolicy::AlwaysDatatype;
    for transfers in [10, 1000] {
        let primitive = participant_allocs(Shape::Primitive, policy, transfers);
        for shape in [Shape::Composite, Shape::Strided] {
            let allocs = participant_allocs(shape, policy, transfers);
            for (rank, side) in ["sender", "receiver"].iter().enumerate() {
                assert!(
                    allocs[rank] <= primitive[rank] + SLACK,
                    "{side} over {transfers} transfers: {shape:?} {} vs primitive {}",
                    allocs[rank],
                    primitive[rank]
                );
            }
        }
    }
}

#[test]
fn soa_transfer_allocations_stay_under_their_ceiling() {
    // Per transfer, (sender, receiver). Every rank builds both views, and
    // each view is 8 allocations: its layout (`Arc`, group name, field
    // list), one name per array, its two per-array lists and its box. The
    // rest is a primitive transfer's own 5 and 2; under derived datatypes
    // the participating view also builds its struct type once (5 more).
    const CEILING: [(LoweringPolicy, [u64; 2]); 2] = [
        (LoweringPolicy::AlwaysDatatype, [26, 23]),
        (LoweringPolicy::Auto, [21, 18]),
    ];
    const SLACK: u64 = 16;
    const TRANSFERS: u64 = 1000;
    for (policy, ceiling) in CEILING {
        let allocs = participant_allocs(Shape::Soa, policy, TRANSFERS as usize);
        for (rank, side) in ["sender", "receiver"].iter().enumerate() {
            assert!(
                allocs[rank] <= TRANSFERS * ceiling[rank] + SLACK,
                "{policy:?} {side}: {} allocations over {TRANSFERS} transfers, ceiling {} each",
                allocs[rank],
                ceiling[rank]
            );
        }
    }
}

#[test]
fn buffer_descriptors_are_lent_without_allocating() {
    use commint::buffer::Buf;
    let (mut prim, mut comp) = ([1.0f64; 8], [wl_lsms::AtomScalars::default(); 2]);
    let (mut ec, mut nc) = ([1.5f64; 8], [3i32; 8]);
    let lent = |view: &dyn Buf| {
        let before = thread_allocs();
        let len = std::hint::black_box(view.desc()).len;
        (thread_allocs() - before, len)
    };
    assert_eq!(lent(&Prim::new("p", &prim)), (0, 8));
    assert_eq!(lent(&Struc::new("c", &comp)), (0, 2));
    assert_eq!(lent(&PrimStrided::new("s", &prim, 1, 2)), (0, 4));
    let soa = Soa::new("a").field("ec", &ec).field("nc", &nc);
    assert_eq!(lent(&soa), (0, 8));
    assert_eq!(lent(&PrimMut::new("p", &mut prim)), (0, 8));
    assert_eq!(lent(&StrucMut::new("c", &mut comp)), (0, 2));
    assert_eq!(lent(&PrimStridedMut::new("s", &mut prim, 1, 2)), (0, 4));
    let soa = SoaMut::new("a").field("ec", &mut ec).field("nc", &mut nc);
    assert_eq!(lent(&soa), (0, 8));
}
