//! The collective-directive extension (the paper's §V future work) plus the
//! trace tooling: broadcast parameters to a group, reduce results back, and
//! break the traced run down with `commscope` — per-rank wait states and
//! flamegraph folded stacks of virtual time.
//!
//! Run with: `cargo run -p bench --example collectives_and_trace`

use commint::coll::{CollKind, ReduceOp};
use commint::prelude::*;
use mpisim::Comm;
use netsim::{run, SimConfig, Time};

fn main() {
    let nranks = 6;
    let res = run(SimConfig::new(nranks).with_trace(), |ctx| {
        let comm = Comm::world(ctx);
        let mut session = CommSession::new(ctx, comm);
        let me = session.rank();

        // comm_bcast root(0): simulation parameters to everyone.
        let mut params = if me == 0 {
            [0.01f64, 300.0, 1.5]
        } else {
            [0.0; 3]
        };
        comm_coll!(session, BCAST { root(0) count(3) } => bcast(&mut params)).unwrap();
        assert_eq!(params, [0.01, 300.0, 1.5]);

        // Local "work" proportional to rank.
        ctx_compute(&mut session, me);

        // comm_reduce root(0) op(SUM): partial results back to the master.
        let mut partial = [me as f64 * params[0] * 100.0];
        comm_coll!(session, REDUCE(ReduceOp::Sum) { root(0) site(9801) } => reduce(&mut partial))
            .unwrap();

        // comm_alltoall among the even group: exchange boundary ids.
        let send: Vec<f64> = (0..nranks).map(|j| (me * 10 + j) as f64).collect();
        let mut recv = vec![0.0f64; nranks];
        session
            .coll(CollKind::AllToAll)
            .site(9802)
            .groupwhen((RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(0)))
            .count(1)
            .alltoall(&send, &mut recv)
            .unwrap();

        session.flush();
        partial[0]
    });

    println!("reduced result on rank 0: {:.2}\n", res.per_rank[0]);

    let trace = res.trace.as_deref().unwrap_or(&[]);
    let analysis = commscope::analyze(trace, nranks, &res.final_times);
    println!("== wait states (virtual ns) ==");
    for p in &analysis.ranks {
        println!(
            "rank {}: {} = late_sender {} + late_receiver {} + barrier {} + quiet {} + overhead {}",
            p.rank,
            p.total_wait_ns,
            p.late_sender_ns,
            p.late_receiver_ns,
            p.barrier_ns,
            p.quiet_ns,
            p.overhead_ns
        );
    }
    println!("\n== folded stacks (rank;op;site virtual ns) ==");
    print!("{}", commscope::folded_stacks(trace));
}

fn ctx_compute(session: &mut CommSession<'_>, me: usize) {
    session
        .ctx()
        .compute(Time::from_micros(5 * (me as u64 + 1)));
}
