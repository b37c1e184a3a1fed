//! Quickstart: the paper's Listing 1 — a ring communication pattern
//! expressed with one `comm_p2p` directive and its four required clauses —
//! run on a simulated 8-rank machine, then statically analyzed.
//!
//! ```text
//! prev = (rank-1+nprocs)%nprocs;
//! next = (rank+1)%nprocs;
//! #pragma comm_p2p sender(prev) receiver(next) sbuf(buf1) rbuf(buf2)
//! ```
//!
//! Run with: `cargo run -p bench --example quickstart`

use commint::analysis::{classify, deadlock_report, resolve_graph};
use commint::prelude::*;
use mpisim::Comm;
use netsim::{run, SimConfig};

fn main() {
    let nranks = 8;

    let res = run(SimConfig::new(nranks), |ctx| {
        let comm = Comm::world(ctx);
        let mut session = CommSession::new(ctx, comm);
        let me = session.rank() as i64;

        // prev = (rank-1+nprocs)%nprocs ; next = (rank+1)%nprocs
        let prev = (RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks();
        let next = (RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks();

        let buf1 = [me * 10, me * 10 + 1, me * 10 + 2];
        let mut buf2 = [0i64; 3];

        // #pragma comm_p2p sender(prev) receiver(next) sbuf(buf1) rbuf(buf2)
        session
            .p2p()
            .sender(prev)
            .receiver(next)
            .sbuf(Prim::new("buf1", &buf1))
            .rbuf(PrimMut::new("buf2", &mut buf2))
            .run()
            .expect("ring directive");

        let program = session.finish();
        (buf2, program)
    });

    println!("== data after the ring shift ==");
    for (rank, (buf2, _)) in res.per_rank.iter().enumerate() {
        println!("rank {rank}: received {buf2:?}");
        let prev = (rank + nranks - 1) % nranks;
        assert_eq!(buf2[0] as usize, prev * 10, "wrong neighbour data");
    }

    // Static analysis on the IR rank 0 recorded.
    let program = &res.per_rank[0].1;
    let p2p = &program[0].body[0];
    let graph = resolve_graph(p2p, Some(&program[0].clauses), nranks, &Default::default());
    println!("\n== compiler-style analysis ==");
    let matching = graph.matching();
    println!("pattern        : {:?}", classify(&matching, nranks));
    println!("fully matched  : {}", matching.fully_matched());
    println!("deadlock report: {:?}", deadlock_report(&matching));
    println!("\nvirtual makespan: {}", res.makespan());
}
