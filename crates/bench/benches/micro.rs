//! Microbenchmarks of the framework itself: clause-expression evaluation,
//! pragma parsing, lowering/codegen, derived-datatype gather/scatter, the
//! tag-matching engine, and the directive engine's cost per `comm_p2p`
//! instance, per loop-form region and per reopened region. These bound the
//! overhead the directive abstraction adds over raw library calls. One
//! case times Fig. 3's test data alone (generating and checking an atom),
//! which is not communication and should stay small beside it. The
//! `sched_handoffs` cases count how often a simulation unparks an idle
//! carrier: a 337-rank Fig. 3 or Fig. 4 simulation on two carriers, and
//! commbench's `engine_probe` shape on one carrier and on two. The
//! `intd_edit_exchange`, `json_escape_cert` and `lint_sweep_region` cases
//! split the analysis service's cost of one edit: the whole exchange, the
//! frame's escaping, and the one-region lint sweep.
//!
//! A name after `--` runs only the cases whose name contains it, e.g.
//! `cargo bench -p bench --features harness --bench micro -- directive_region`.

use commint::analysis::{classify, resolve_graph};
use commint::buffer::{gather_described, scatter_described};
use commint::clause::Target;
use commint::expr::{EvalEnv, RankExpr};
use criterion::{criterion_group, criterion_main, Criterion};
use mpisim::dtype::BasicType;
use pragma_front::{parse, SymbolTable};

commint::comm_datatype! {
    struct MicroAtom {
        id: i32,
        pos: [f64; 3],
        charge: f64,
        tags: [u8; 16],
    }
}

fn micro_expr(c: &mut Criterion) {
    let next = (RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks();
    let env = EvalEnv::new(7, 64);
    c.bench_function("expr_eval_ring", |b| {
        b.iter(|| next.eval(std::hint::black_box(&env)).unwrap())
    });

    let cond = (RankExpr::rank() % RankExpr::lit(2))
        .eq(RankExpr::lit(0))
        .and(RankExpr::rank().lt(RankExpr::nranks() - RankExpr::lit(1)));
    c.bench_function("cond_eval_even_odd", |b| {
        b.iter(|| cond.eval(std::hint::black_box(&env)).unwrap())
    });

    // The same two clauses compiled to slot-resolved programs, as the
    // directive engine runs a region's inherited clauses. One call is
    // close to the timer's resolution, so each sample times a batch and
    // the line below reports nanoseconds per pair of evaluations, tree
    // walk next to compiled.
    const BATCH: u32 = 100_000;
    let mut env = env;
    let next_c = next.compile(&mut env.vars);
    let cond_c = cond.compile(&mut env.vars);
    let mut scratch = vec![0; next_c.depth().max(cond_c.depth())];
    let batch_ns = |f: &mut dyn FnMut() -> (i64, bool)| {
        let start = std::time::Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(f());
        }
        start.elapsed().as_nanos() as f64 / f64::from(BATCH)
    };
    let (mut tree, mut compiled) = (Vec::new(), Vec::new());
    c.bench_function("expr_eval_compiled", |b| {
        b.iter(|| {
            tree.push(batch_ns(&mut || {
                let env = std::hint::black_box(&env);
                (next.eval(env).unwrap(), cond.eval(env).unwrap())
            }));
            compiled.push(batch_ns(&mut || {
                let env = std::hint::black_box(&env);
                let v = next_c.eval(env, &mut scratch).unwrap();
                (v, cond_c.eval(env, &mut scratch).unwrap())
            }));
        })
    });
    if tree.is_empty() {
        return;
    }
    tree.sort_by(f64::total_cmp);
    compiled.sort_by(f64::total_cmp);
    println!(
        "{:<60} ns/eval pair median tree walk {:.1} compiled {:.1}",
        "expr_eval_compiled",
        tree[tree.len() / 2],
        compiled[compiled.len() / 2]
    );
}

fn micro_parse(c: &mut Criterion) {
    let mut syms = SymbolTable::new();
    syms.declare_prim("buf1", BasicType::F64, 16)
        .declare_prim("buf2", BasicType::F64, 16);
    let src = "#pragma comm_parameters sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) \
               sendwhen(rank%2==0) receivewhen(rank%2==1) count(16) max_comm_iter(8) \
               place_sync(END_PARAM_REGION) { #pragma comm_p2p sbuf(buf1) rbuf(buf2) { } }";
    c.bench_function("pragma_parse_region", |b| {
        b.iter(|| parse(std::hint::black_box(src), &syms).unwrap())
    });

    let parsed = parse(src, &syms).unwrap();
    let pragma_front::Item::Region(spec) = &parsed.items[0] else {
        panic!()
    };
    c.bench_function("lower_to_mpi2", |b| {
        b.iter(|| commint::lower::lower(std::hint::black_box(spec), Target::Mpi2Side).render())
    });
    let vars = std::collections::HashMap::new();
    c.bench_function("resolve_and_classify_256", |b| {
        b.iter(|| {
            let g = resolve_graph(&spec.body[0], Some(&spec.clauses), 256, &vars);
            classify(&g.matching(), 256)
        })
    });
}

fn micro_datatype(c: &mut Criterion) {
    let atoms = vec![
        MicroAtom {
            id: 1,
            pos: [1.0, 2.0, 3.0],
            charge: -1.0,
            tags: [7; 16],
        };
        256
    ];
    let mut packed = Vec::new();
    c.bench_function("gather_described_256", |b| {
        b.iter(|| {
            packed.clear();
            gather_described(std::hint::black_box(&atoms), 256, &mut packed);
            packed.len()
        })
    });
    gather_described(&atoms, 256, &mut packed);
    let mut out = atoms.clone();
    c.bench_function("scatter_described_256", |b| {
        b.iter(|| scatter_described(std::hint::black_box(&mut out), 256, &packed))
    });
}

fn micro_matching(c: &mut Criterion) {
    use netsim::{run, SimConfig, SrcSel, TagSel};
    c.bench_function("matching_engine_64msgs", |b| {
        b.iter(|| {
            run(SimConfig::new(2), |ctx| {
                let m = ctx.machine().mpi;
                if ctx.rank() == 0 {
                    let reqs: Vec<_> = (0..64).map(|i| ctx.isend(1, i, &[0u8; 32], &m)).collect();
                    ctx.waitall(&reqs, &[], &m);
                } else {
                    // Reverse tag order: every post scans the queue.
                    let reqs: Vec<_> = (0..64)
                        .rev()
                        .map(|i| ctx.irecv(SrcSel::Exact(0), TagSel::Exact(i), &m))
                        .collect();
                    ctx.waitall(&[], &reqs, &m);
                }
            })
            .makespan()
        })
    });
}

/// CPU time consumed by the calling thread, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`): a rank's own cost, whatever the other
/// ranks and the machine's other tenants do meanwhile.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The clause shape of a measured directive site.
#[derive(Clone, Copy)]
enum Shape {
    /// Literal clauses: `sendwhen(rank == 2)`, `sender(0)`, ...
    Literal,
    /// Fig. 4 spin's second region: every clause names a variable, and the
    /// loop rebinds `sp_dst` before each instance.
    Vars,
}

/// Host CPU nanoseconds per `comm_p2p` instance of a 2-rank region
/// running `n` instances of one Prim→PrimMut site, measured on rank 1's
/// thread around the region. A one-instance region first validates the
/// site and joins its staging allocation, so neither is timed. With
/// `participate` off neither rank's `sendwhen`/`receivewhen` holds, so
/// every instance is the non-participant path; with it on, rank 0 sends 3
/// doubles to rank 1 on every instance, in batches of `coalesce` instances
/// when that is set (a tuning overlay's `Coalesce` decision).
fn directive_ns_per_instance(
    target: Target,
    shape: Shape,
    participate: bool,
    coalesce: Option<usize>,
    n: usize,
) -> f64 {
    use commint::overlay::{Decision, Overlay, SiteDecision};
    use commint::{CommParams, CommSession, DirectiveError, Prim, PrimMut};
    use netsim::{run, ExecPolicy, SimConfig};
    let (s, r) = if participate { (0, 1) } else { (2, 2) };
    let params = match shape {
        Shape::Literal => CommParams::new()
            .sender(RankExpr::lit(0))
            .receiver(RankExpr::lit(1))
            .sendwhen(RankExpr::rank().eq(RankExpr::lit(s)))
            .receivewhen(RankExpr::rank().eq(RankExpr::lit(r))),
        Shape::Vars => CommParams::new()
            .sender(RankExpr::var("sp_src"))
            .receiver(RankExpr::var("sp_dst"))
            .sendwhen(RankExpr::rank().eq(RankExpr::var("sp_src")))
            .receivewhen(RankExpr::rank().eq(RankExpr::var("sp_dst"))),
    }
    .count(3)
    .max_comm_iter(n as i64)
    .target(target);
    let res = run(SimConfig::new(2).with_exec(ExecPolicy::bounded(2)), |ctx| {
        let comm = mpisim::Comm::world(ctx);
        let mut session = CommSession::new(ctx, comm).without_ir();
        if let Some(batch) = coalesce {
            let mut overlay = Overlay::default();
            overlay.set(SiteDecision::new(1, Decision::Coalesce { batch }));
            session = session.with_overlay(overlay);
        }
        let src = [1.0f64; 3];
        let mut dst = [0.0f64; 3];
        let mut region = |session: &mut CommSession<'_>, instances: usize| {
            session
                .region(&params, |reg| {
                    let vars = matches!(shape, Shape::Vars);
                    if vars {
                        reg.set_var("sp_src", s);
                    }
                    for _ in 0..instances {
                        if vars {
                            reg.set_var("sp_dst", std::hint::black_box(r));
                        }
                        reg.p2p()
                            .site(1)
                            .sbuf(Prim::new("src", &src))
                            .rbuf(PrimMut::new("dst", &mut dst))
                            .run()?;
                    }
                    Ok::<(), DirectiveError>(())
                })
                .unwrap()
                .unwrap();
        };
        region(&mut session, 1);
        let start = thread_cpu_ns();
        region(&mut session, n);
        (thread_cpu_ns() - start) as f64 / n as f64
    });
    res.per_rank[1]
}

fn micro_directive(c: &mut Criterion) {
    let cases = [
        (
            "directive_nonparticipant_mpi2",
            Target::Mpi2Side,
            Shape::Literal,
            false,
            None,
            100_000,
        ),
        (
            "directive_nonparticipant_shmem",
            Target::Shmem,
            Shape::Literal,
            false,
            None,
            100_000,
        ),
        (
            "directive_nonparticipant_vars",
            Target::Mpi2Side,
            Shape::Vars,
            false,
            None,
            100_000,
        ),
        (
            "directive_participant_mpi2",
            Target::Mpi2Side,
            Shape::Literal,
            true,
            None,
            20_000,
        ),
        (
            "directive_participant_shmem",
            Target::Shmem,
            Shape::Literal,
            true,
            None,
            20_000,
        ),
        (
            "directive_participant_coalesced",
            Target::Mpi2Side,
            Shape::Literal,
            true,
            Some(8),
            20_000,
        ),
    ];
    for (name, target, shape, participate, coalesce, n) in cases {
        let mut per_instance = Vec::new();
        c.bench_function(name, |b| {
            b.iter(|| {
                per_instance.push(directive_ns_per_instance(
                    target,
                    shape,
                    participate,
                    coalesce,
                    n,
                ))
            })
        });
        if per_instance.is_empty() {
            continue;
        }
        per_instance.sort_by(f64::total_cmp);
        println!(
            "{:<60} ns/instance median {:.1} min {:.1}",
            name,
            per_instance[per_instance.len() / 2],
            per_instance[0]
        );
    }
}

/// Fig. 4 spin's second region (privileged → workers) at the paper's
/// largest shape: 337 ranks, 21 instances of 16, nine times on every rank.
/// The region runs as a loop form (`loop_form`) or as Listing 7's
/// per-instance loop. Only the whole run is timed: ranks share carriers,
/// so a thread's CPU time would include the other ranks it ran.
fn spin_regions(loop_form: bool) {
    use commint::{CommLoop, CommParams, CommSession, DirectiveError, Prim, PrimMut};
    use netsim::{run, ExecPolicy, SimConfig};
    const REGIONS: usize = 9;
    let (m_cnt, n) = (21i64, 16i64);
    let params = CommParams::new()
        .sender(RankExpr::var("sp_src"))
        .receiver(RankExpr::var("sp_dst"))
        .sendwhen(RankExpr::rank().eq(RankExpr::var("sp_src")))
        .receivewhen(RankExpr::rank().eq(RankExpr::var("sp_dst")))
        .count(3)
        .max_comm_iter(m_cnt * (n - 1));
    let space = CommLoop::new(0..m_cnt)
        .inner(1..n)
        .bind("sp_src", 1, &[n])
        .bind("sp_dst", 1, &[n, 1]);
    let nranks = (1 + m_cnt * n) as usize;
    run(
        SimConfig::new(nranks).with_exec(ExecPolicy::bounded(2)),
        |ctx| {
            let comm = mpisim::Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).without_ir();
            let me = session.rank() as i64;
            let staged = [[1.0f64; 3]; 16];
            let mut spin = [0.0f64; 3];
            let mut region = |session: &mut CommSession<'_>| {
                if loop_form {
                    session
                        .region_loop(&params, &space, |ix, it| {
                            let (src, w) = (1 + n * ix[0], ix[1]);
                            let sb: &[f64] = if src == me { &staged[w as usize] } else { &[] };
                            let rb: &mut [f64] = if src + w == me { &mut spin } else { &mut [] };
                            it.p2p()
                                .site(12)
                                .sbuf(Prim::new("staged[w]", sb))
                                .rbuf(PrimMut::new("atom.evec", rb))
                                .run()
                        })
                        .unwrap();
                    return;
                }
                session
                    .region(&params, |reg| {
                        for m in 0..m_cnt {
                            let src = 1 + n * m;
                            reg.set_var("sp_src", src);
                            for w in 1..n {
                                reg.set_var("sp_dst", src + w);
                                let sb: &[f64] = if src == me { &staged[w as usize] } else { &[] };
                                let rb: &mut [f64] =
                                    if src + w == me { &mut spin } else { &mut [] };
                                reg.p2p()
                                    .site(12)
                                    .sbuf(Prim::new("staged[w]", sb))
                                    .rbuf(PrimMut::new("atom.evec", rb))
                                    .run()?;
                            }
                        }
                        Ok::<(), DirectiveError>(())
                    })
                    .unwrap()
                    .unwrap();
            };
            for _ in 0..REGIONS {
                region(&mut session);
            }
        },
    );
}

/// Host CPU nanoseconds per reopening of Listing 5's three-site region
/// (`wl_lsms::transfer_atom_directive`, MPI two-sided) on a bystander:
/// rank 0 sends a full atom to rank 1 `n` times after one warm-up
/// transfer, and rank 2, which takes part in none of them, is timed on its
/// own carrier thread. The warm-up compiles the region's clauses and
/// validates its sites, so neither is timed.
fn reopen_ns_per_region(n: usize) -> f64 {
    use commint::CommSession;
    use netsim::{run, ExecPolicy, SimConfig};
    use wl_lsms::atom_comm::transfer_atom_directive;
    use wl_lsms::{AtomData, AtomSizes};
    let res = run(SimConfig::new(3).with_exec(ExecPolicy::bounded(3)), |ctx| {
        let comm = mpisim::Comm::world(ctx);
        let mut session = CommSession::new(ctx, comm).without_ir();
        let mut atom = match session.rank() {
            0 => AtomData::synthetic_fe(7, AtomSizes::default()),
            _ => AtomData::new(AtomSizes::default()),
        };
        let mut transfer = |session: &mut CommSession<'_>| {
            transfer_atom_directive(session, 0, 1, Target::Mpi2Side, &mut atom)
                .expect("directive transfer")
        };
        transfer(&mut session);
        let start = thread_cpu_ns();
        for _ in 0..n {
            transfer(&mut session);
        }
        let ns = (thread_cpu_ns() - start) as f64 / n as f64;
        session.flush();
        ns
    });
    res.per_rank[2]
}

fn micro_region(c: &mut Criterion) {
    for (name, loop_form) in [
        ("directive_region_spin_loop", true),
        ("directive_region_spin_instances", false),
    ] {
        c.bench_function(name, |b| b.iter(|| spin_regions(loop_form)));
    }
    let name = "directive_region_reopen_atom";
    let mut per_region = Vec::new();
    c.bench_function(name, |b| {
        b.iter(|| per_region.push(reopen_ns_per_region(2_000)))
    });
    if !per_region.is_empty() {
        per_region.sort_by(f64::total_cmp);
        println!(
            "{:<60} ns/region median {:.1} min {:.1}",
            name,
            per_region[per_region.len() / 2],
            per_region[0]
        );
    }
}

/// Host nanoseconds per atom of Fig. 3's test data (default mesh): a
/// master writes atom `id` into its one send buffer and a receiver checks
/// that it arrived intact, both through one `SyntheticFe`.
fn atom_data_ns_per_atom(n: usize) -> f64 {
    use wl_lsms::{AtomData, AtomSizes, SyntheticFe};
    let sizes = AtomSizes::default();
    let fe = SyntheticFe::new(sizes);
    let mut atom = AtomData::new(sizes);
    let start = std::time::Instant::now();
    for id in 0..n {
        fe.fill(&mut atom, id);
        assert!(fe.matches(std::hint::black_box(&atom), id), "atom {id}");
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

fn micro_atom_data(c: &mut Criterion) {
    let name = "atom_data_generate_verify";
    let mut per_atom = Vec::new();
    c.bench_function(name, |b| {
        b.iter(|| per_atom.push(atom_data_ns_per_atom(200)))
    });
    if !per_atom.is_empty() {
        per_atom.sort_by(f64::total_cmp);
        println!(
            "{:<60} ns/atom median {:.1} min {:.1}",
            name,
            per_atom[per_atom.len() / 2],
            per_atom[0]
        );
    }
}

/// Host nanoseconds per world barrier entry (`RankCtx::barrier`) at
/// `nranks` ranks, all on one carrier so wall time is one thread's CPU:
/// rank 0 times `rounds` generations between its exits from the first
/// and the last, and each generation is `nranks` entries and wakes.
fn barrier_ns_per_entry(nranks: usize, rounds: usize) -> f64 {
    use netsim::{run, ExecPolicy, SimConfig};
    let exec = ExecPolicy::bounded(1).with_stack_size(256 << 10);
    let res = run(SimConfig::new(nranks).with_exec(exec), |ctx| {
        let m = ctx.machine().mpi;
        ctx.barrier(&m);
        let start = std::time::Instant::now();
        for _ in 0..rounds {
            ctx.barrier(&m);
        }
        start.elapsed().as_nanos() as f64 / (rounds * nranks) as f64
    });
    res.per_rank[0]
}

fn micro_fabric(c: &mut Criterion) {
    for (name, nranks) in [
        ("fabric_world_barrier_337", 337),
        ("fabric_world_barrier_4097", 4097),
    ] {
        let mut per_entry = Vec::new();
        c.bench_function(name, |b| {
            b.iter(|| per_entry.push(barrier_ns_per_entry(nranks, 20)))
        });
        if per_entry.is_empty() {
            continue;
        }
        per_entry.sort_by(f64::total_cmp);
        println!(
            "{:<60} ns/entry median {:.1} min {:.1}",
            name,
            per_entry[per_entry.len() / 2],
            per_entry[0]
        );
    }
}

/// Carrier handoffs per 337-rank simulation on two carriers (the engine
/// commbench runs): wakes that unparked an idle carrier, each a futex wake
/// of another thread. Printed with the resumptions (`grants`) they are a
/// share of.
fn micro_sched(c: &mut Criterion) {
    use netsim::ExecPolicy;
    use wl_lsms::{
        fig3_single_atom_exec, fig4_spin_exec, AtomCommVariant, AtomSizes, Measurement,
        SpinVariant, Topology,
    };
    let topo = Topology::paper(21);
    let exec = ExecPolicy::bounded(2);
    let mut sims: Vec<(String, Box<dyn Fn() -> Measurement>)> = Vec::new();
    for v in [
        AtomCommVariant::Original,
        AtomCommVariant::DirectiveMpi2,
        AtomCommVariant::DirectiveShmem,
    ] {
        let topo = topo.clone();
        sims.push((
            format!("sched_handoffs_337_atom_{v:?}"),
            Box::new(move || fig3_single_atom_exec(&topo, v, AtomSizes::default(), exec)),
        ));
    }
    for v in [
        SpinVariant::Original,
        SpinVariant::OriginalWaitall,
        SpinVariant::DirectiveMpi2,
        SpinVariant::DirectiveShmem,
    ] {
        let topo = topo.clone();
        sims.push((
            format!("sched_handoffs_337_spin_{v:?}"),
            Box::new(move || fig4_spin_exec(&topo, v, 4, exec)),
        ));
    }
    for (name, sim) in &sims {
        let mut counts = Vec::new();
        c.bench_function(name.as_str(), |b| {
            b.iter(|| {
                let meas = sim();
                assert!(meas.correct, "{name}");
                counts.push((meas.sched.handoffs, meas.sched.grants));
            })
        });
        if counts.is_empty() {
            continue;
        }
        counts.sort_unstable();
        let (handoffs, grants) = counts[counts.len() / 2];
        println!(
            "{:<60} handoffs median {} min {} max {} (of {} grants)",
            name,
            handoffs,
            counts[0].0,
            counts[counts.len() - 1].0,
            grants
        );
    }
    for (label, target) in [("mpi2", Target::Mpi2Side), ("shmem", Target::Shmem)] {
        for workers in [1, 2] {
            let name = format!("sched_handoffs_engine_probe_{label}_w{workers}");
            let mut calls = Vec::new();
            c.bench_function(name.as_str(), |b| {
                b.iter(|| calls.push(engine_probe_shape(target, workers)))
            });
            if calls.is_empty() {
                continue;
            }
            calls.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (ns, handoffs) = calls[calls.len() / 2];
            println!(
                "{:<60} ns/call median {:.0} min {:.0}, handoffs/call {:.2}",
                name, ns, calls[0].0, handoffs
            );
        }
    }
}

/// Commbench's `engine_probe` shape: 500 one-instance regions, each moving
/// 3 doubles from rank 0 to rank 1 of 2, on `workers` carriers. Returns
/// rank 0's wall ns per `comm_p2p` and the run's handoffs per call.
fn engine_probe_shape(target: Target, workers: usize) -> (f64, f64) {
    use commint::{CommParams, CommSession, DirectiveError, Prim, PrimMut};
    use netsim::{run, ExecPolicy, SimConfig};
    const K: usize = 500;
    let params = CommParams::new()
        .sender(RankExpr::lit(0))
        .receiver(RankExpr::lit(1))
        .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
        .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
        .count(3)
        .target(target);
    let res = run(
        SimConfig::new(2).with_exec(ExecPolicy::bounded(workers)),
        |ctx| {
            let me = ctx.rank();
            let src = [1.0f64; 3];
            let mut dst = [0.0f64; 3];
            let comm = mpisim::Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).without_ir();
            let mut spent = std::time::Duration::ZERO;
            for _ in 0..K {
                session
                    .region(&params, |reg| {
                        let s: &[f64] = if me == 0 { &src } else { &[] };
                        let d: &mut [f64] = if me == 1 { &mut dst } else { &mut [] };
                        let t0 = std::time::Instant::now();
                        reg.p2p()
                            .site(1)
                            .sbuf(Prim::new("a", s))
                            .rbuf(PrimMut::new("b", d))
                            .run()?;
                        spent += t0.elapsed();
                        Ok::<(), DirectiveError>(())
                    })
                    .unwrap()
                    .unwrap();
            }
            session.flush();
            spent
        },
    );
    let handoffs = res.sched.expect("every run reports").handoffs;
    (
        res.per_rank[0].as_nanos() as f64 / K as f64,
        handoffs as f64 / K as f64,
    )
}

/// The shipped spec the analysis-service cases edit: Listing 7's two
/// regions, swept over 9..=49 ranks.
const SPIN_SPEC: &str = include_str!("../../wl-lsms/pragmas/spin_exchange.comm");
/// A one-region count edit of [`SPIN_SPEC`] (its second region).
const SPIN_EDIT: (&str, &str) = ("count(3) max_comm_iter(45)", "count(4) max_comm_iter(45)");

/// Median of `samples` after sorting.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The analysis service's costs on one edit: the daemon's `analyze` plus
/// `prove` exchange after a one-region count edit (each iteration toggles
/// the edit, so the edited region is rebuilt every time, as in commbench's
/// `edit` workload), escaping a certificate into a frame, and the lint
/// sweep of the edited region alone.
fn micro_service(c: &mut Criterion) {
    use commintd::proto::{handle, request_json};
    use commintd::Engine;
    use commlint::{apply_decls, region_view, scan_annotations, sweep_region, LintOptions};
    use netsim::json::Json;

    let file = "spin_exchange.comm";
    let edited = SPIN_SPEC.replace(SPIN_EDIT.0, SPIN_EDIT.1);
    let frames = [SPIN_SPEC, edited.as_str()].map(|src| {
        [
            request_json("analyze", 1, file, src),
            request_json("prove", 2, file, src),
        ]
    });
    let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
    for f in frames.iter().flatten() {
        handle(&engine, f.as_bytes());
    }
    let mut toggle = 0;
    c.bench_function("intd_edit_exchange", |b| {
        b.iter(|| {
            toggle ^= 1;
            let [a, p] = &frames[toggle];
            handle(&engine, a.as_bytes()).len() + handle(&engine, p.as_bytes()).len()
        })
    });

    let cert = commprove::prove_source(
        file,
        SPIN_SPEC,
        &SymbolTable::new(),
        &LintOptions::default(),
    )
    .expect("the shipped spec proves")
    .certificate
    .to_json();
    let doc = Json::Str(cert.clone().into());
    const BATCH: u32 = 200;
    let mut per_byte = Vec::new();
    c.bench_function("json_escape_cert", |b| {
        b.iter(|| {
            let start = std::time::Instant::now();
            for _ in 0..BATCH {
                std::hint::black_box(std::hint::black_box(&doc).render_line());
            }
            per_byte.push(start.elapsed().as_nanos() as f64 / f64::from(BATCH) / cert.len() as f64);
        })
    });
    if !per_byte.is_empty() {
        println!(
            "{:<60} ns/byte median {:.3} ({} bytes of certificate)",
            "json_escape_cert",
            median(per_byte),
            cert.len()
        );
    }

    let ann = scan_annotations(&edited);
    let mut symbols = SymbolTable::new();
    apply_decls(&mut symbols, &ann);
    let parsed = parse(&edited, &symbols).expect("the shipped spec parses");
    let region = parsed
        .items
        .iter()
        .filter_map(region_view)
        .nth(1)
        .expect("two regions");
    let ranks = ann.ranks.expect("the spec names its rank range");
    c.bench_function("lint_sweep_region", |b| {
        b.iter(|| sweep_region(1, std::hint::black_box(&region), ranks, &ann.vars))
    });
}

criterion_group!(
    benches,
    micro_expr,
    micro_parse,
    micro_datatype,
    micro_matching,
    micro_directive,
    micro_region,
    micro_atom_data,
    micro_fabric,
    micro_sched,
    micro_service
);
criterion_main!(benches);
