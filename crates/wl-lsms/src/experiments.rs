//! The paper's evaluation experiments (§IV-B), as runnable functions.
//!
//! Each returns virtual-time measurements from a full SPMD execution of the
//! corresponding code paths on the Gemini machine model:
//!
//! * [`fig3_single_atom`] — "communication of the system's potentials and
//!   electron densities": the WL master distributes every atom's data to
//!   the privileged ranks (pack/send), which relay per-atom data within
//!   their LIZ using either the original Listing-4 path or the Listing-5
//!   directives (MPI or SHMEM target).
//! * [`fig4_spin`] — "communication of random spin configurations ...
//!   within the main loop": per-step `setEvec` under the four variants.
//! * [`fig5_overlap`] — spin communication + the first core-state
//!   computation, with the 10x GPU projection, original vs. directive
//!   overlap.
//! * [`run_full_app`] — the assembled WL-LSMS mini-app (atom distribution,
//!   per-step spin scatter, distributed energy evaluation, Wang–Landau
//!   bookkeeping), used to check that every communication variant computes
//!   identical physics.

use commint::{CommSession, Overlay, Target};
use netsim::trace::TraceEvent;
use netsim::{run, ExecPolicy, RankMetrics, RankStats, SchedStats, SimConfig, SimResult, Time};

use crate::atom::{AtomData, AtomSizes, SyntheticFe};
use crate::atom_comm::{transfer_atom_directive, transfer_atom_original};
use crate::core_states::{calculate_core_states, CoreStateParams};
use crate::spin::{
    generate_spins, set_evec_directive, set_evec_original, spin_at, SpinState, SpinVariant,
};
use crate::topology::Topology;
use crate::wang_landau::{heisenberg_ring_energy, WangLandau};

/// Implementation variants for the single-atom-data distribution (Fig. 3
/// series).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomCommVariant {
    /// Listing 4 everywhere.
    Original,
    /// Listing 5, MPI two-sided target.
    DirectiveMpi2,
    /// Listing 5, SHMEM target.
    DirectiveShmem,
}

impl AtomCommVariant {
    /// Figure legend label.
    pub fn label(self) -> &'static str {
        match self {
            AtomCommVariant::Original => "Original Communication",
            AtomCommVariant::DirectiveMpi2 => "MPI Target w/ Directive Communication",
            AtomCommVariant::DirectiveShmem => "SHMEM Target w/ Directive Communication",
        }
    }
}

/// One measured experiment point.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Total ranks in the run.
    pub nranks: usize,
    /// Virtual makespan of the measured phase.
    pub time: Time,
    /// All ranks verified their received data.
    pub correct: bool,
    /// Whole-job operation counters.
    pub stats: RankStats,
    /// The engine's occupancy and handoff counters: physical, so they vary
    /// with the carrier count and the wall-clock interleaving.
    pub sched: SchedStats,
}

/// Full observability capture of one experiment run: the event trace, the
/// per-rank metrics folded from it, and the final per-rank clocks —
/// everything `commscope` needs for wait-state analysis and export. All
/// values are pure functions of virtual time, so an `Observed` is
/// bit-identical across execution engines. For the per-step figures the
/// trace covers the *whole* run (including warmup), while
/// `Measurement::time` remains the steady-state per-step number.
#[derive(Clone, Debug)]
pub struct Observed {
    /// The measurement, identical to the unobserved run's.
    pub measurement: Measurement,
    /// Time-sorted event trace from all ranks.
    pub trace: Vec<TraceEvent>,
    /// Per-rank metrics ([`RankMetrics::from_trace`] of `trace`), indexed
    /// by rank.
    pub metrics: Vec<RankMetrics>,
    /// Final virtual clock of each rank.
    pub final_times: Vec<Time>,
}

impl Observed {
    /// The capture of a traced run `res` that measured `measurement`.
    fn new<T>(measurement: Measurement, res: SimResult<T>) -> Self {
        let trace = res.trace.expect("observed run enables the trace");
        let metrics = RankMetrics::from_trace(&trace, res.final_times.len());
        Observed {
            measurement,
            trace,
            metrics,
            final_times: res.final_times,
        }
    }
}

/// Fig. 3: time to distribute every atom's single-atom data.
pub fn fig3_single_atom(
    topo: &Topology,
    variant: AtomCommVariant,
    sizes: AtomSizes,
) -> Measurement {
    fig3_single_atom_exec(topo, variant, sizes, ExecPolicy::default())
}

/// [`fig3_single_atom`] with an explicit execution engine. The measurement
/// is bit-identical for every [`ExecPolicy`].
pub fn fig3_single_atom_exec(
    topo: &Topology,
    variant: AtomCommVariant,
    sizes: AtomSizes,
    exec: ExecPolicy,
) -> Measurement {
    fig3_single_atom_run(topo, variant, sizes, exec, false).0
}

/// [`fig3_single_atom_exec`] traced, with metrics folded from the trace;
/// the measurement is unchanged by observation.
pub fn fig3_single_atom_observed(
    topo: &Topology,
    variant: AtomCommVariant,
    sizes: AtomSizes,
    exec: ExecPolicy,
) -> Observed {
    fig3_single_atom_run(topo, variant, sizes, exec, true)
        .1
        .expect("observed run captures trace")
}

#[allow(clippy::needless_range_loop)] // worker loops index rank-shaped arrays
fn fig3_single_atom_run(
    topo: &Topology,
    variant: AtomCommVariant,
    sizes: AtomSizes,
    exec: ExecPolicy,
    observe: bool,
) -> (Measurement, Option<Observed>) {
    let t = topo.clone();
    let mut cfg = SimConfig::new(t.total_ranks()).with_exec(exec);
    if observe {
        cfg = cfg.with_trace();
    }
    // The atoms' data is test input: every rank reads the one generator,
    // the master to fill what it sends, the others to check what arrived.
    let fe = &SyntheticFe::new(sizes);
    let res = run(cfg, move |ctx| {
        let comms = t.build_comms(ctx);
        let n = t.ranks_per_lsms;
        let me = ctx.rank();

        // Stage A (identical in every variant): the WL master holds all
        // atoms (loaded from disk in the real app) and pack/sends each
        // instance's set to its privileged rank, one at a time from one
        // buffer.
        let mut received: Vec<AtomData> = Vec::new();
        if me == t.wl_rank() {
            let mut atom = AtomData::new(sizes);
            for inst in 0..t.instances {
                let dest = t.privileged_rank(inst);
                for a in 0..n {
                    fe.fill(&mut atom, inst * n + a);
                    transfer_atom_original(ctx, &comms.world, 0, dest, &mut atom);
                }
            }
        } else if t.is_privileged(me) {
            for _ in 0..n {
                let mut atom = AtomData::new(sizes);
                transfer_atom_original(ctx, &comms.world, 0, me, &mut atom);
                received.push(atom);
            }
        }

        // Stage B: LIZ-internal distribution, the paper's rewritten path.
        let mut correct = true;
        if let (Some(lsms), Some(inst)) = (comms.lsms.clone(), comms.instance) {
            let local = lsms.rank(ctx);
            match variant {
                AtomCommVariant::Original => {
                    if local == 0 {
                        for w in 1..n {
                            transfer_atom_original(ctx, &lsms, 0, w, &mut received[w]);
                        }
                    } else {
                        let mut atom = AtomData::new(sizes);
                        transfer_atom_original(ctx, &lsms, 0, local, &mut atom);
                        correct = fe.matches(&atom, inst * n + local);
                    }
                }
                AtomCommVariant::DirectiveMpi2 | AtomCommVariant::DirectiveShmem => {
                    let target = if variant == AtomCommVariant::DirectiveMpi2 {
                        Target::Mpi2Side
                    } else {
                        Target::Shmem
                    };
                    let mut session = CommSession::new(ctx, lsms).without_ir();
                    let mut my_atom = AtomData::new(sizes);
                    for w in 1..n {
                        // SPMD: every LSMS rank executes every transfer.
                        let atom_ref: &mut AtomData = if local == 0 {
                            &mut received[w]
                        } else if local == w {
                            &mut my_atom
                        } else {
                            // Bystander placeholder of the same shape.
                            &mut my_atom
                        };
                        transfer_atom_directive(&mut session, 0, w, target, atom_ref)
                            .expect("directive transfer");
                    }
                    session.flush();
                    if local != 0 {
                        correct = fe.matches(&my_atom, inst * n + local);
                    }
                }
            }
            if local == 0 {
                // Privileged keeps atom 0 and verifies it.
                correct &= fe.matches(&received[0], inst * n);
            }
        }
        (ctx.now(), correct)
    });
    let measurement = Measurement {
        nranks: topo.total_ranks(),
        time: res.makespan(),
        correct: res.per_rank.iter().all(|&(_, ok)| ok),
        stats: res.total_stats(),
        sched: res.sched.unwrap_or_default(),
    };
    let observed = observe.then(|| Observed::new(measurement, res));
    (measurement, observed)
}

/// Fig. 4: average per-step time of the random-spin-configuration
/// communication (`setEvec`).
pub fn fig4_spin(topo: &Topology, variant: SpinVariant, steps: usize) -> Measurement {
    fig4_spin_exec(topo, variant, steps, ExecPolicy::default())
}

/// [`fig4_spin`] with an explicit execution engine. The measurement is
/// bit-identical for every [`ExecPolicy`].
pub fn fig4_spin_exec(
    topo: &Topology,
    variant: SpinVariant,
    steps: usize,
    exec: ExecPolicy,
) -> Measurement {
    fig4_spin_run(topo, variant, steps, exec, false, None).0
}

/// [`fig4_spin_exec`] traced, with metrics folded from the trace; the
/// measurement is unchanged by observation.
pub fn fig4_spin_observed(
    topo: &Topology,
    variant: SpinVariant,
    steps: usize,
    exec: ExecPolicy,
) -> Observed {
    fig4_spin_run(topo, variant, steps, exec, true, None)
        .1
        .expect("observed run captures trace")
}

/// [`fig4_spin_exec`] with a tuning overlay installed on the directive
/// session (commtune's decisions applied on the next run). The overlay has
/// no effect on the Original variants, which bypass the directive engine.
pub fn fig4_spin_tuned(
    topo: &Topology,
    variant: SpinVariant,
    steps: usize,
    exec: ExecPolicy,
    overlay: Option<&Overlay>,
) -> Measurement {
    fig4_spin_run(topo, variant, steps, exec, false, overlay.cloned()).0
}

/// [`fig4_spin_tuned`] traced, with metrics folded from the trace.
pub fn fig4_spin_tuned_observed(
    topo: &Topology,
    variant: SpinVariant,
    steps: usize,
    exec: ExecPolicy,
    overlay: Option<&Overlay>,
) -> Observed {
    fig4_spin_run(topo, variant, steps, exec, true, overlay.cloned())
        .1
        .expect("observed run captures trace")
}

fn fig4_spin_run(
    topo: &Topology,
    variant: SpinVariant,
    steps: usize,
    exec: ExecPolicy,
    observe: bool,
    overlay: Option<Overlay>,
) -> (Measurement, Option<Observed>) {
    let t = topo.clone();
    let mut cfg = SimConfig::new(t.total_ranks()).with_exec(exec);
    if observe {
        cfg = cfg.with_trace();
    }
    let res = run(cfg, move |ctx| {
        let comms = t.build_comms(ctx);
        let mut state = SpinState::new(&t, ctx.rank());
        let natoms = t.instances * t.ranks_per_lsms;
        let overlay = overlay.clone();
        let mut correct = true;
        // One warmup step (one-time staging/datatype setup), then a
        // clock-aligning barrier, then the measured steps — the paper's
        // numbers are steady-state main-loop iterations.
        let total_steps = steps as u64 + 1;
        let mut phase_start = Time::ZERO;
        match variant {
            SpinVariant::Original | SpinVariant::OriginalWaitall => {
                for step in 0..total_steps {
                    if ctx.rank() == t.wl_rank() {
                        state.ev = generate_spins(step, natoms);
                    }
                    set_evec_original(
                        ctx,
                        &t,
                        &comms,
                        &mut state,
                        variant == SpinVariant::OriginalWaitall,
                    );
                    correct &= check_spin(&t, ctx.rank(), step, &state);
                    if step == 0 {
                        let m = ctx.machine().mpi;
                        ctx.barrier(&m);
                        phase_start = ctx.now();
                    }
                }
            }
            SpinVariant::DirectiveMpi2 | SpinVariant::DirectiveShmem => {
                let target = if variant == SpinVariant::DirectiveMpi2 {
                    Target::Mpi2Side
                } else {
                    Target::Shmem
                };
                let mut session = CommSession::new(ctx, comms.world.clone()).without_ir();
                if let Some(ov) = overlay {
                    session = session.with_overlay(ov);
                }
                for step in 0..total_steps {
                    if session.ctx().rank() == t.wl_rank() {
                        state.ev = generate_spins(step, natoms);
                    }
                    set_evec_directive(&mut session, &t, &mut state, target, None)
                        .expect("directive setEvec");
                    correct &= check_spin(&t, session.ctx().rank(), step, &state);
                    if step == 0 {
                        session.flush();
                        let cx = session.ctx();
                        let m = cx.machine().mpi;
                        cx.barrier(&m);
                        phase_start = cx.now();
                    }
                }
                session.flush();
            }
        }
        (ctx.now() - phase_start, correct)
    });
    let phase = res
        .per_rank
        .iter()
        .map(|&(t, _)| t)
        .max()
        .unwrap_or(Time::ZERO);
    let measurement = Measurement {
        nranks: topo.total_ranks(),
        time: Time::from_nanos(phase.as_nanos() / steps as u64),
        correct: res.per_rank.iter().all(|&(_, ok)| ok),
        stats: res.total_stats(),
        sched: res.sched.unwrap_or_default(),
    };
    let observed = observe.then(|| Observed::new(measurement, res));
    (measurement, observed)
}

fn check_spin(topo: &Topology, rank: usize, step: u64, state: &SpinState) -> bool {
    match topo.instance_of(rank) {
        None => true,
        Some(m) => {
            let local = rank - topo.privileged_rank(m);
            state.my_spin == spin_at(step, m * topo.ranks_per_lsms + local)
        }
    }
}

/// Fig. 5: per-step time of spin communication + first core-state slice
/// under the 10x GPU computation projection. `directive=false` is the
/// original communication followed by (non-overlapped) computation;
/// `directive=true` overlaps the computation with the directive
/// communication (Listing 7).
pub fn fig5_overlap(
    topo: &Topology,
    directive: bool,
    cparams: CoreStateParams,
    sizes: AtomSizes,
    steps: usize,
) -> Measurement {
    fig5_overlap_exec(
        topo,
        directive,
        cparams,
        sizes,
        steps,
        ExecPolicy::default(),
    )
}

/// [`fig5_overlap`] with an explicit execution engine. The measurement is
/// bit-identical for every [`ExecPolicy`].
pub fn fig5_overlap_exec(
    topo: &Topology,
    directive: bool,
    cparams: CoreStateParams,
    sizes: AtomSizes,
    steps: usize,
    exec: ExecPolicy,
) -> Measurement {
    fig5_overlap_run(topo, directive, cparams, sizes, steps, exec, false).0
}

/// [`fig5_overlap_exec`] traced, with metrics folded from the trace; the
/// measurement is unchanged by observation.
pub fn fig5_overlap_observed(
    topo: &Topology,
    directive: bool,
    cparams: CoreStateParams,
    sizes: AtomSizes,
    steps: usize,
    exec: ExecPolicy,
) -> Observed {
    fig5_overlap_run(topo, directive, cparams, sizes, steps, exec, true)
        .1
        .expect("observed run captures trace")
}

#[allow(clippy::too_many_arguments)]
fn fig5_overlap_run(
    topo: &Topology,
    directive: bool,
    cparams: CoreStateParams,
    sizes: AtomSizes,
    steps: usize,
    exec: ExecPolicy,
    observe: bool,
) -> (Measurement, Option<Observed>) {
    let t = topo.clone();
    let mut cfg = SimConfig::new(t.total_ranks()).with_exec(exec);
    if observe {
        cfg = cfg.with_trace();
    }
    let fe = &SyntheticFe::new(sizes);
    let res = run(cfg, move |ctx| {
        let comms = t.build_comms(ctx);
        let mut state = SpinState::new(&t, ctx.rank());
        let natoms = t.instances * t.ranks_per_lsms;
        let my_atom_id = t
            .instance_of(ctx.rank())
            .map(|m| m * t.ranks_per_lsms + (ctx.rank() - t.privileged_rank(m)));
        let atom = my_atom_id.map(|id| fe.atom(id));

        if directive {
            let mut session = CommSession::new(ctx, comms.world.clone()).without_ir();
            for step in 0..steps as u64 {
                if session.ctx().rank() == t.wl_rank() {
                    state.ev = generate_spins(step, natoms);
                }
                let overlap = atom.as_ref().map(|a| (a, &cparams));
                set_evec_directive(&mut session, &t, &mut state, Target::Mpi2Side, overlap)
                    .expect("directive setEvec w/ overlap");
            }
            session.flush();
        } else {
            for step in 0..steps as u64 {
                if ctx.rank() == t.wl_rank() {
                    state.ev = generate_spins(step, natoms);
                }
                set_evec_original(ctx, &t, &comms, &mut state, false);
                if let Some(a) = &atom {
                    // Computation after the communication completes.
                    calculate_core_states(ctx, a, &cparams);
                }
            }
        }
        ctx.now()
    });
    let measurement = Measurement {
        nranks: topo.total_ranks(),
        time: Time::from_nanos(res.makespan().as_nanos() / steps as u64),
        correct: true,
        stats: res.total_stats(),
        sched: res.sched.unwrap_or_default(),
    };
    let observed = observe.then(|| Observed::new(measurement, res));
    (measurement, observed)
}

/// Result of the assembled mini-app.
#[derive(Clone, Debug)]
pub struct AppResult {
    /// Energy trajectory per step (walker 0, as recorded by the WL master).
    pub energies: Vec<f64>,
    /// Wang–Landau stages completed (ln f halvings).
    pub wl_stages: usize,
    /// Virtual makespan of the whole run.
    pub time: Time,
}

/// Run the assembled WL-LSMS mini-app for `steps` Wang–Landau steps with
/// the given spin-communication variant. The physics (energies, acceptance
/// decisions) must be bit-identical across variants — only the virtual time
/// differs.
#[allow(clippy::needless_range_loop)] // worker loops index rank-shaped arrays
pub fn run_full_app(
    topo: &Topology,
    variant: SpinVariant,
    sizes: AtomSizes,
    steps: usize,
) -> AppResult {
    let t = topo.clone();
    let fe = &SyntheticFe::new(sizes);
    let res = run(SimConfig::new(t.total_ranks()), move |ctx| {
        let comms = t.build_comms(ctx);
        let n = t.ranks_per_lsms;
        let natoms = t.instances * n;
        let me = ctx.rank();

        // -- one-time atom distribution (original path; Fig. 3 covers the
        //    variants there) ---------------------------------------------
        let mut my_atom = AtomData::new(sizes);
        let mut staged_atoms: Vec<AtomData> = Vec::new();
        if me == t.wl_rank() {
            let mut atom = AtomData::new(sizes);
            for inst in 0..t.instances {
                let dest = t.privileged_rank(inst);
                for a in 0..n {
                    fe.fill(&mut atom, inst * n + a);
                    transfer_atom_original(ctx, &comms.world, 0, dest, &mut atom);
                }
            }
        } else if t.is_privileged(me) {
            for _ in 0..n {
                let mut atom = AtomData::new(sizes);
                transfer_atom_original(ctx, &comms.world, 0, me, &mut atom);
                staged_atoms.push(atom);
            }
        }
        if let Some(lsms) = &comms.lsms {
            let local = lsms.rank(ctx);
            if local == 0 {
                for w in 1..n {
                    transfer_atom_original(ctx, lsms, 0, w, &mut staged_atoms[w]);
                }
                my_atom = staged_atoms[0].clone();
            } else {
                transfer_atom_original(ctx, lsms, 0, local, &mut my_atom);
            }
        }

        // -- Wang–Landau main loop ----------------------------------------
        let cparams = CoreStateParams {
            base_ns_per_atom: 20_000,
            speedup: 1.0,
            iterations: 2,
        };
        let mut wl = (me == t.wl_rank())
            .then(|| WangLandau::new(-(n as f64) * 1.5, (n as f64) * 1.5, 48, 12345));
        let mut state = SpinState::new(&t, me);
        let mut energies = Vec::new();
        let mut current_e = vec![f64::INFINITY; t.instances];
        let mut stages = 0usize;

        // A session is created regardless of variant (the original paths
        // just reach the raw context through it), keeping one borrow of the
        // rank context alive for the whole loop.
        let mut session = CommSession::new(ctx, comms.world.clone()).without_ir();

        for step in 0..steps as u64 {
            // Propose: fresh random spins for every walker.
            if me == t.wl_rank() {
                state.ev = generate_spins(step, natoms);
            }
            match variant {
                SpinVariant::Original => {
                    set_evec_original(session.ctx(), &t, &comms, &mut state, false)
                }
                SpinVariant::OriginalWaitall => {
                    set_evec_original(session.ctx(), &t, &comms, &mut state, true)
                }
                SpinVariant::DirectiveMpi2 => {
                    set_evec_directive(&mut session, &t, &mut state, Target::Mpi2Side, None)
                        .expect("setEvec");
                }
                SpinVariant::DirectiveShmem => {
                    set_evec_directive(&mut session, &t, &mut state, Target::Shmem, None)
                        .expect("setEvec");
                }
            }

            // LSMS energy evaluation: workers compute their core-state
            // slice; the privileged rank adds the Heisenberg term of the
            // staged configuration and reduces.
            let ctx_ref: &mut netsim::RankCtx = session.ctx();
            if let Some(lsms) = &comms.lsms {
                let mut atom_now = my_atom.clone();
                atom_now.scalars.evec = state.my_spin;
                let core_e = calculate_core_states(ctx_ref, &atom_now, &cparams) * 1e-4;
                let mut contributions = vec![0.0f64; lsms.size()];
                mpisim::coll::gather(
                    ctx_ref,
                    lsms,
                    0,
                    &[core_e],
                    &mut contributions[..if lsms.rank(ctx_ref) == 0 {
                        lsms.size()
                    } else {
                        0
                    }],
                );
                if lsms.rank(ctx_ref) == 0 {
                    let spins: Vec<[f64; 3]> = state.staged.clone();
                    let e = heisenberg_ring_energy(&spins, 1.0) + contributions.iter().sum::<f64>();
                    comms.world.send_slice(ctx_ref, t.wl_rank(), 900, &[e]);
                }
            } else {
                // WL master: collect each walker's energy, do the WL update.
                let wl_state = wl.as_mut().expect("WL master state");
                for inst in 0..t.instances {
                    let src = t.privileged_rank(inst);
                    let mut e = [0.0f64];
                    comms.world.recv_into(ctx_ref, Some(src), Some(900), &mut e);
                    let e = e[0];
                    let accepted =
                        current_e[inst].is_infinite() || wl_state.accept(current_e[inst], e);
                    if accepted {
                        current_e[inst] = e;
                    }
                    if wl_state.step(current_e[inst]) {
                        stages += 1;
                    }
                    if inst == 0 {
                        energies.push(current_e[0]);
                    }
                }
            }
        }
        session.finish();
        (energies, stages, ctx.now())
    });
    let (energies, stages, _) = res.per_rank[0].clone();
    AppResult {
        energies,
        wl_stages: stages,
        time: res.makespan(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sizes() -> AtomSizes {
        AtomSizes { jmt: 24, numc: 4 }
    }

    #[test]
    fn fig3_all_variants_correct_small() {
        let topo = Topology::new(2, 3);
        for v in [
            AtomCommVariant::Original,
            AtomCommVariant::DirectiveMpi2,
            AtomCommVariant::DirectiveShmem,
        ] {
            let m = fig3_single_atom(&topo, v, small_sizes());
            assert!(m.correct, "variant {v:?} delivered wrong data");
            assert!(m.time > Time::ZERO);
        }
    }

    #[test]
    fn fig3_directive_comparable_to_original() {
        let topo = Topology::new(2, 4);
        let orig = fig3_single_atom(&topo, AtomCommVariant::Original, AtomSizes::default());
        let mpi = fig3_single_atom(&topo, AtomCommVariant::DirectiveMpi2, AtomSizes::default());
        let shm = fig3_single_atom(&topo, AtomCommVariant::DirectiveShmem, AtomSizes::default());
        for (label, m) in [("mpi", &mpi), ("shmem", &shm)] {
            let ratio = orig.time.as_nanos() as f64 / m.time.as_nanos() as f64;
            assert!(
                (0.7..4.0).contains(&ratio),
                "{label} not comparable: orig={} dir={}",
                orig.time,
                m.time
            );
        }
    }

    #[test]
    fn fig4_speedup_ordering() {
        // The qualitative Fig. 4 result: original (wait loop) slowest;
        // waitall faster; directive MPI faster still; directive SHMEM much
        // faster.
        let topo = Topology::new(4, 8);
        let t = |v| fig4_spin(&topo, v, 3);
        let orig = t(SpinVariant::Original);
        let wall = t(SpinVariant::OriginalWaitall);
        let mpi = t(SpinVariant::DirectiveMpi2);
        let shm = t(SpinVariant::DirectiveShmem);
        assert!(orig.correct && wall.correct && mpi.correct && shm.correct);
        assert!(
            wall.time < orig.time,
            "waitall {} !< original {}",
            wall.time,
            orig.time
        );
        assert!(
            mpi.time < orig.time,
            "directive MPI {} !< original {}",
            mpi.time,
            orig.time
        );
        assert!(
            shm.time < mpi.time,
            "directive SHMEM {} !< directive MPI {}",
            shm.time,
            mpi.time
        );
    }

    #[test]
    fn fig5_overlap_beats_sequential() {
        let topo = Topology::new(2, 4);
        let cparams = CoreStateParams {
            base_ns_per_atom: 200_000,
            speedup: 10.0,
            iterations: 2,
        };
        let orig = fig5_overlap(&topo, false, cparams, small_sizes(), 2);
        let dir = fig5_overlap(&topo, true, cparams, small_sizes(), 2);
        assert!(
            dir.time < orig.time,
            "overlap {} must beat sequential {}",
            dir.time,
            orig.time
        );
    }

    #[test]
    fn observation_does_not_change_the_measurement() {
        let topo = Topology::new(2, 3);
        for v in [SpinVariant::DirectiveMpi2, SpinVariant::DirectiveShmem] {
            let plain = fig4_spin(&topo, v, 2);
            let obs = fig4_spin_observed(&topo, v, 2, ExecPolicy::default());
            assert_eq!(plain.time, obs.measurement.time, "{v:?}");
            assert!(obs.measurement.correct);
            assert!(!obs.trace.is_empty());
            assert_eq!(obs.metrics.len(), topo.total_ranks());
            assert_eq!(obs.final_times.len(), topo.total_ranks());
            // Directive-issued operations carry their call site.
            assert!(
                obs.trace.iter().any(|e| e.site.is_some()),
                "{v:?}: no site-tagged events"
            );
        }
    }

    #[test]
    fn full_app_physics_identical_across_variants() {
        let topo = Topology::new(2, 3);
        let steps = 4;
        let base = run_full_app(&topo, SpinVariant::Original, small_sizes(), steps);
        assert_eq!(base.energies.len(), steps);
        assert!(base.energies.iter().all(|e| e.is_finite()));
        for v in [
            SpinVariant::OriginalWaitall,
            SpinVariant::DirectiveMpi2,
            SpinVariant::DirectiveShmem,
        ] {
            let other = run_full_app(&topo, v, small_sizes(), steps);
            assert_eq!(
                base.energies, other.energies,
                "variant {v:?} changed the physics"
            );
        }
    }
}
