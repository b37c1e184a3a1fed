//! Determinism guarantees of the live-progress telemetry and the run
//! ledger: the post-run progress snapshot is engine-invariant, enabling the
//! `--watch` watchdog changes no deterministic artifact byte, and ledger
//! entries for the same workload differ only in their physical fields
//! (`git_rev`, `engine`, `wall_s` — pinned here).

use bench::{BenchReport, SeriesReport};
use commscope::{analyze, chrome_trace, profile_json};
use netsim::progress::STATE_DONE;
use netsim::{run, ExecPolicy, RankMetrics, SimConfig, SimResult, SrcSel, TagSel, Time, WatchCfg};

const NRANKS: usize = 4;

/// A fixed mixed workload: skewed compute (late senders), a ring shift, a
/// fan-in with waitall, and a closing barrier — every blocking-op hook
/// fires at least once.
fn workload(ctx: &mut netsim::RankCtx) {
    let model = ctx.machine().mpi;
    let me = ctx.rank();
    let n = ctx.nranks();
    ctx.compute(Time::from_nanos(500 * (me as u64 + 1)));
    let payload = vec![me as u8; 64];
    let req = ctx.isend((me + 1) % n, 7, &payload, &model);
    ctx.recv(SrcSel::Exact((me + n - 1) % n), TagSel::Exact(7), &model);
    ctx.wait_send(&req, &model);
    if me == 0 {
        let reqs: Vec<_> = (1..n)
            .map(|src| ctx.irecv(SrcSel::Exact(src), TagSel::Exact(9), &model))
            .collect();
        ctx.waitall(&[], &reqs, &model);
    } else {
        ctx.send(0, 9, &[me as u8; 32], &model);
    }
    ctx.barrier(&model);
}

fn run_with(cfg: SimConfig) -> SimResult<()> {
    run(cfg, workload)
}

#[test]
fn final_snapshot_is_engine_invariant() {
    let engines = [
        ExecPolicy::bounded(NRANKS),
        ExecPolicy::bounded(1),
        ExecPolicy::bounded(3),
    ];
    let mut reference: Option<Vec<netsim::RankProgress>> = None;
    for exec in engines {
        let res = run_with(SimConfig::new(NRANKS).with_exec(exec).with_progress());
        let snap = res.progress.expect("progress enabled");
        assert_eq!(snap.ranks.len(), NRANKS);
        for (rank, r) in snap.ranks.iter().enumerate() {
            assert_eq!(r.rank, rank);
            assert_eq!(
                r.state, STATE_DONE,
                "rank {rank} not DONE in final snapshot"
            );
            assert_eq!(
                r.lvt_ns,
                res.final_times[rank].as_nanos(),
                "rank {rank}: snapshot LVT differs from final clock"
            );
            assert!(r.blocks > 0, "rank {rank}: no blocking entries counted");
        }
        match &reference {
            None => reference = Some(snap.ranks.clone()),
            Some(want) => assert_eq!(
                &snap.ranks, want,
                "final snapshot differs across engines (only `sched` may)"
            ),
        }
    }
}

#[test]
fn progress_off_by_default() {
    let res = run_with(SimConfig::new(NRANKS));
    assert!(res.progress.is_none());
}

/// Enabling the watchdog must not perturb any deterministic artifact: the
/// trace, profile, and final clocks are byte-identical with `--watch` on,
/// with one carrier per rank and with two.
#[test]
fn artifacts_bit_identical_with_watch_on() {
    let observe = |exec: ExecPolicy| {
        let res = run_with(SimConfig::new(NRANKS).with_exec(exec).with_trace());
        let trace = res.trace.expect("trace enabled");
        let metrics = RankMetrics::from_trace(&trace, NRANKS);
        let analysis = analyze(&trace, NRANKS, &res.final_times);
        (
            chrome_trace(&trace, NRANKS),
            profile_json("watchtest", &[], &analysis, &metrics).render(),
            res.final_times,
        )
    };
    // Long interval/stall so the watcher thread exists but stays quiet for
    // the duration of the test; its output would go to stderr regardless.
    let watch = WatchCfg {
        interval_ms: 60_000,
        stall_ms: 60_000,
    };
    for base in [ExecPolicy::bounded(NRANKS), ExecPolicy::bounded(2)] {
        let (t0, p0, f0) = observe(base);
        let (t1, p1, f1) = observe(base.with_watch(watch));
        assert_eq!(t0, t1, "trace drifted with --watch on");
        assert_eq!(p0, p1, "profile drifted with --watch on");
        assert_eq!(f0, f1, "final clocks drifted with --watch on");
    }
}

/// Ledger entries are a pure function of virtual time once the declared
/// physical fields are pinned: the same workload with one carrier per rank
/// and with two yields byte-identical JSONL lines.
#[test]
fn ledger_entries_engine_invariant() {
    let report_for = |exec: ExecPolicy| {
        let res = run_with(SimConfig::new(NRANKS).with_exec(exec));
        BenchReport {
            bench: "watchtest".into(),
            args: vec![("ranks".into(), NRANKS as i64)],
            ranks: vec![NRANKS],
            series: vec![SeriesReport::new(
                "mixed",
                vec![res.makespan().as_nanos()],
                &res.total_stats(),
            )],
            // wall_s is physical by declaration; pin it so the remaining
            // fields carry the whole determinism claim.
            wall_s: 0.0,
        }
    };
    let a = bench::ledger::entry_json(
        &report_for(ExecPolicy::bounded(NRANKS)),
        "pinned",
        "deadbeef",
    )
    .render_compact();
    let b = bench::ledger::entry_json(&report_for(ExecPolicy::bounded(2)), "pinned", "deadbeef")
        .render_compact();
    assert_eq!(a, b, "ledger entries differ beyond the physical fields");

    // And the reader round-trips the line into a trend series.
    let entries = commscope::parse_ledger(&a).expect("reader parses writer output");
    let trends = commscope::trend(&entries, 5, 10.0);
    assert_eq!(trends.len(), 1);
    assert_eq!(trends[0].bench, "watchtest");
}
