//! Scale-out sweep past the paper's 337-process ceiling: the fig-4 spin
//! workload at 512/1024/2048/4096 ranks.
//!
//! The paper's sweep tops out at M=21 LSMS instances (337 ranks); this
//! binary extends the same workload shape to thousands of ranks, where
//! making every rank OS-runnable at once stops being a reasonable way to
//! drive a simulation. Virtual times stay exact at any scale — only wall
//! time depends on the carrier count.
//!
//! Usage: `fig_scale [--ranks 512,1024,2048,4096] [--steps N] [--workers W]
//!                   [--stack-kib K] [--sanitize] [--stats]
//!                   [--watch SECS] [--json] [--baseline FILE]
//!                   [--ledger FILE]`
//! `--workers` sets the engine's carrier threads (0 = auto, default).
//! `--sanitize` runs under the one-sided race sanitizer (fills
//! `race_checks`/`conflicts_found` in the report; the baseline gate
//! refuses non-zero conflicts). `--watch` runs
//! the stall watchdog: progress lines on stderr every second, and any rank
//! whose LVT has not advanced in SECS wall-seconds is flagged — stdout and
//! every deterministic artifact stay bit-identical. `--ledger` appends the
//! `--json` report to the run-history ledger (`commscope trend` reads it).
//! Points run sequentially — at these rank counts a single simulation
//! saturates the host.

use std::time::Instant;

use bench::{arg_str, arg_usize, emit_json_report, render_stats, BenchReport, SeriesReport};
use netsim::{ExecPolicy, RankStats, WatchCfg};
use wl_lsms::{fig4_spin_exec, SpinVariant, Topology};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps = arg_usize(&args, "--steps").unwrap_or(2);
    let stats = args.iter().any(|a| a == "--stats");
    let json = args.iter().any(|a| a == "--json");
    let baseline = arg_str(&args, "--baseline");
    let workers = arg_usize(&args, "--workers").unwrap_or(0);
    let stack_kib = arg_usize(&args, "--stack-kib").unwrap_or(256);
    let targets: Vec<usize> = arg_str(&args, "--ranks")
        .map(|s| {
            s.split(',')
                .map(|v| v.trim().parse().expect("bad --ranks entry"))
                .collect()
        })
        .unwrap_or_else(|| vec![512, 1024, 2048, 4096]);

    let mut exec = ExecPolicy::bounded(workers).with_stack_size(stack_kib << 10);
    if args.iter().any(|a| a == "--sanitize") {
        exec = exec.with_sanitize();
    }
    if let Some(secs) = arg_usize(&args, "--watch") {
        exec = exec.with_watch(WatchCfg::stall_secs(secs as u64));
    }

    // Map each target to the nearest paper-shaped topology (16 ranks per
    // LSMS instance + 1 Wang-Landau master).
    let ms: Vec<usize> = targets.iter().map(|&r| (r / 16).max(2)).collect();
    let xs: Vec<usize> = ms
        .iter()
        .map(|&m| Topology::paper(m).total_ranks())
        .collect();

    // Two scale-relevant communication shapes: consolidated two-sided
    // (waitall) and one-sided signalled puts.
    let variants = [SpinVariant::OriginalWaitall, SpinVariant::DirectiveShmem];

    let t0 = Instant::now();
    let mut per_variant: Vec<Vec<(u64, f64)>> = Vec::new(); // (time_ns, wall_s)
    let mut totals: Vec<RankStats> = Vec::new();
    for &variant in &variants {
        let mut col = Vec::new();
        let mut total = RankStats::default();
        for &m in &ms {
            let topo = Topology::paper(m);
            let p0 = Instant::now();
            let meas = fig4_spin_exec(&topo, variant, steps, exec);
            let wall = p0.elapsed().as_secs_f64();
            assert!(meas.correct, "spin validation failed for {variant:?}");
            total.merge(&meas.stats);
            eprintln!(
                "  [done] {} n={} ({wall:.2}s wall)",
                variant.label(),
                topo.total_ranks()
            );
            col.push((meas.time.as_nanos(), wall));
        }
        per_variant.push(col);
        totals.push(total);
    }
    let wall_s = t0.elapsed().as_secs_f64();

    if json {
        let report = BenchReport {
            bench: "fig_scale".into(),
            args: vec![
                ("steps".into(), steps as i64),
                ("workers".into(), workers as i64),
                ("stack_kib".into(), stack_kib as i64),
            ],
            ranks: xs,
            series: variants
                .iter()
                .zip(&per_variant)
                .zip(&totals)
                .map(|((v, col), total)| {
                    SeriesReport::new(v.label(), col.iter().map(|&(t, _)| t).collect(), total)
                })
                .collect(),
            wall_s,
        };
        let engine = bench::ledger::engine_label(workers);
        bench::ledger::maybe_record(&args, &report, &engine);
        std::process::exit(emit_json_report(&report, baseline));
    }

    println!("# Scale-out — fig4 spin workload beyond the paper's 337 processes");
    println!(
        "# engine=bounded(workers={workers}) stack={stack_kib}KiB steps={steps} (virtual s per WL step; wall s per point)"
    );
    print!("{:>10}", "procs");
    for v in &variants {
        print!("  {:>42}  {:>8}", v.label(), "wall_s");
    }
    println!();
    for (i, &x) in xs.iter().enumerate() {
        print!("{x:>10}");
        for col in &per_variant {
            let (t, w) = col[i];
            print!("  {:>42.9}  {w:>8.2}", netsim::Time(t).as_secs_f64());
        }
        println!();
    }
    if stats {
        for (v, total) in variants.iter().zip(&totals) {
            println!("{}", render_stats(v.label(), total));
        }
    }
}
