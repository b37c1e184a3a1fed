//! Figure 3: experimental results for communication of single atom data
//! (potentials + electron densities).
//!
//! Usage: `fig3 [--stride K] [--jobs J] [--workers W] [--eager-threshold B]
//!              [--stats] [--json] [--baseline FILE] [--ledger FILE]
//!              [--trace-out FILE] [--profile FILE] [--folded FILE]`
//! (`--workers` sets the engine's carrier threads, 0 = auto (the default);
//! `--eager-threshold` overrides the cost model's eager/rendezvous
//! protocol switch, in bytes; `--ledger` appends the `--json` report to the
//! run-history ledger read by `commscope trend`).

use std::time::Instant;

use bench::{
    arg_str, arg_usize, default_jobs, emit_json_report, emit_observability, paper_ms, render_stats,
    sweep, BenchReport, Exports, SeriesReport, SeriesTable,
};
use netsim::{ExecPolicy, RankStats};
use wl_lsms::{
    fig3_single_atom_exec, fig3_single_atom_observed, AtomCommVariant, AtomSizes, Topology,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let stride = arg_usize(&args, "--stride").unwrap_or(1);
    let jobs = arg_usize(&args, "--jobs").unwrap_or_else(default_jobs);
    let stats = args.iter().any(|a| a == "--stats");
    let json = args.iter().any(|a| a == "--json");
    let baseline = arg_str(&args, "--baseline");
    let exports = Exports::from_args(&args);
    let workers = arg_usize(&args, "--workers").unwrap_or(0);
    let eager = arg_usize(&args, "--eager-threshold");
    let mut exec = ExecPolicy::bounded(workers);
    if let Some(b) = eager {
        exec = exec.with_eager_threshold(b);
    }

    let ms = paper_ms(stride);
    let xs: Vec<usize> = ms
        .iter()
        .map(|&m| Topology::paper(m).total_ranks())
        .collect();
    let mut table = SeriesTable::new(xs.clone());

    let variants = [
        AtomCommVariant::Original,
        AtomCommVariant::DirectiveMpi2,
        AtomCommVariant::DirectiveShmem,
    ];
    let points: Vec<(AtomCommVariant, usize)> = variants
        .iter()
        .flat_map(|&v| ms.iter().map(move |&m| (v, m)))
        .collect();
    let t0 = Instant::now();
    let results = sweep(&points, jobs, |&(variant, m)| {
        let topo = Topology::paper(m);
        let meas = fig3_single_atom_exec(&topo, variant, AtomSizes::default(), exec);
        assert!(meas.correct, "atom data validation failed for {variant:?}");
        meas
    });
    let wall_s = t0.elapsed().as_secs_f64();

    if exports.any() {
        // Observability re-run: directive-MPI at the largest sweep point.
        let m = *ms.last().expect("non-empty sweep");
        let obs = fig3_single_atom_observed(
            &Topology::paper(m),
            AtomCommVariant::DirectiveMpi2,
            AtomSizes::default(),
            exec,
        );
        emit_observability("fig3", &[("m".into(), m as i64)], &obs, &exports, None);
    }

    let mut stat_lines = Vec::new();
    let mut series = Vec::new();
    for (vi, variant) in variants.iter().enumerate() {
        let runs = &results[vi * ms.len()..(vi + 1) * ms.len()];
        table.push(variant.label(), runs.iter().map(|r| r.time).collect());
        let mut total = RankStats::default();
        for r in runs {
            total.merge(&r.stats);
        }
        series.push(SeriesReport::new(
            variant.label(),
            runs.iter().map(|r| r.time.as_nanos()).collect(),
            &total,
        ));
        if stats {
            stat_lines.push(render_stats(variant.label(), &total));
        }
        eprintln!("  [done] {}", variant.label());
    }

    if json {
        let report = BenchReport {
            bench: "fig3".into(),
            args: vec![
                ("stride".into(), stride as i64),
                ("workers".into(), workers as i64),
                ("eager_threshold".into(), eager.map_or(-1, |b| b as i64)),
            ],
            ranks: xs,
            series,
            wall_s,
        };
        bench::ledger::maybe_record(&args, &report, &bench::ledger::engine_label(workers));
        std::process::exit(emit_json_report(&report, baseline));
    }

    println!(
        "{}",
        table.render("Fig. 3 — Single atom data communication (s; paper: all three comparable)")
    );
    println!(
        "# Ratios vs original (paper shows comparable performance, directives slightly ahead)"
    );
    println!(
        "original/directive-MPI   = {:5.2}x",
        table.avg_speedup(0, 1)
    );
    println!(
        "original/directive-SHMEM = {:5.2}x",
        table.avg_speedup(0, 2)
    );
    for line in stat_lines {
        println!("{line}");
    }
}
