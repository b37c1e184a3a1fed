//! Integration: the pragma front-end and the execution engine agree — a
//! directive parsed from the paper's literal syntax executes with the same
//! behaviour as the equivalent builder-API program, and the static analyses
//! predict what execution then does.

use commint::analysis::{classify, resolve_graph, Pattern};
use commint::prelude::*;
use integration::with_world_session;
use mpisim::dtype::BasicType;
use pragma_front::{parse, Item, SymbolTable};

fn symbols() -> SymbolTable {
    let mut s = SymbolTable::new();
    s.declare_prim("buf1", BasicType::F64, 8)
        .declare_prim("buf2", BasicType::F64, 8);
    s
}

/// Execute a parsed single-p2p spec (clauses only; fresh buffers supplied).
fn execute_parsed(clauses: commint::ClauseSet, nranks: usize) -> Vec<Vec<f64>> {
    with_world_session(nranks, move |s| {
        let me = s.rank() as f64;
        let send: Vec<f64> = (0..8).map(|i| me * 10.0 + i as f64).collect();
        let mut recv = vec![-1f64; 8];
        let mut params = CommParams::new();
        params.clauses = clauses.clone();
        s.region(&params, |reg| {
            reg.p2p()
                .sbuf(Prim::new("buf1", &send))
                .rbuf(PrimMut::new("buf2", &mut recv))
                .run()
                .unwrap();
        })
        .unwrap();
        recv
    })
    .per_rank
}

#[test]
fn parsed_ring_executes_like_builder_ring() {
    let src = "#pragma comm_p2p sender((rank-1+nprocs)%nprocs) \
               receiver((rank+1)%nprocs) sbuf(buf1) rbuf(buf2)";
    let parsed = parse(src, &symbols()).unwrap();
    let Item::P2p(spec) = &parsed.items[0] else {
        panic!("expected p2p")
    };

    let n = 6;
    let from_text = execute_parsed(spec.clauses.clone(), n);

    let from_builder = with_world_session(n, |s| {
        let me = s.rank() as f64;
        let send: Vec<f64> = (0..8).map(|i| me * 10.0 + i as f64).collect();
        let mut recv = vec![-1f64; 8];
        commint::patterns::ring(s, Target::Mpi2Side, &send, &mut recv).unwrap();
        recv
    })
    .per_rank;

    assert_eq!(from_text, from_builder);
}

#[test]
fn parsed_even_odd_executes_and_matches_prediction() {
    let src = "#pragma comm_p2p sbuf(buf1) rbuf(buf2) \
               sender(rank-1) receiver(rank+1) \
               sendwhen(rank%2==0) receivewhen(rank%2==1)";
    let parsed = parse(src, &symbols()).unwrap();
    let Item::P2p(spec) = &parsed.items[0] else {
        panic!()
    };
    let n = 8;

    // Static prediction.
    let g = resolve_graph(spec, None, n, &Default::default());
    let m = g.matching();
    assert_eq!(classify(&m, n), Pattern::DisjointPairs);
    let receivers: Vec<usize> = m.matched.iter().map(|e| e.dst).collect();

    // Dynamic behaviour agrees.
    let data = execute_parsed(spec.clauses.clone(), n);
    for (rank, recv) in data.iter().enumerate() {
        if receivers.contains(&rank) {
            assert_eq!(recv[0], (rank as f64 - 1.0) * 10.0, "rank {rank}");
        } else {
            assert!(recv.iter().all(|&v| v == -1.0), "rank {rank} untouched");
        }
    }
}

#[test]
fn parsed_region_with_variables_executes() {
    let src = r#"
#pragma comm_parameters sendwhen(rank==from_rank) receivewhen(rank==to_rank)
    sender(from_rank) receiver(to_rank) count(8)
{
    #pragma comm_p2p sbuf(buf1) rbuf(buf2)
    { }
}
"#;
    let parsed = parse(src, &symbols()).unwrap();
    let Item::Region(region) = &parsed.items[0] else {
        panic!()
    };
    let region = region.clone();

    let res = with_world_session(4, move |s| {
        s.set_var("from_rank", 2);
        s.set_var("to_rank", 0);
        let me = s.rank() as f64;
        let send = [me + 0.5; 8];
        let mut recv = [0f64; 8];
        let mut params = CommParams::new();
        params.clauses = region.clauses.clone();
        let inner = region.body[0].clauses.clone();
        s.region(&params, |reg| {
            let mut call = reg.p2p();
            // Apply the parsed p2p-level clause overrides (none here, but
            // keep the path honest).
            if let Some(c) = &inner.count {
                call = call.count(c.clone());
            }
            call.sbuf(Prim::new("buf1", &send))
                .rbuf(PrimMut::new("buf2", &mut recv))
                .run()
                .unwrap();
        })
        .unwrap();
        recv[0]
    });
    assert_eq!(res.per_rank[0], 2.5, "rank 0 received rank 2's payload");
    assert_eq!(res.per_rank[1], 0.0);
}

#[test]
fn translation_matches_execution_structure() {
    // The generated MPI code claims one Waitall over 2 requests per rank;
    // execution produces exactly one consolidated sync per rank.
    let src = r#"
#pragma comm_parameters sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs)
{
    #pragma comm_p2p sbuf(buf1) rbuf(buf2)
    { }
}
"#;
    let text = pragma_front::translate(src, &symbols(), Target::Mpi2Side).unwrap();
    assert!(text.contains("MPI_Waitall(2, req"), "{text}");

    let parsed = parse(src, &symbols()).unwrap();
    let Item::Region(region) = &parsed.items[0] else {
        panic!()
    };
    let clauses = region.clauses.clone();
    let res = with_world_session(5, move |s| {
        let send = [1f64; 8];
        let mut recv = [0f64; 8];
        let mut params = CommParams::new();
        params.clauses = clauses.clone();
        s.region(&params, |reg| {
            reg.p2p()
                .sbuf(Prim::new("buf1", &send))
                .rbuf(PrimMut::new("buf2", &mut recv))
                .run()
                .unwrap();
        })
        .unwrap();
        s.ctx().stats.waitalls
    });
    assert!(res.per_rank.iter().all(|&w| w == 1));
}

#[test]
fn diagnostics_block_bad_programs_in_both_paths() {
    // Text path: pairing violation diagnosed at parse time.
    let src = "#pragma comm_p2p sender(a) receiver(b) sendwhen(rank==0) sbuf(buf1) rbuf(buf2)";
    let parsed = parse(src, &symbols()).unwrap();
    assert!(parsed.has_errors());

    // Builder path: same violation rejected at execution time.
    let res = with_world_session(2, |s| {
        let src_buf = [0f64; 2];
        let mut dst = [0f64; 2];
        let r = s
            .p2p()
            .sender(RankExpr::var("a"))
            .receiver(RankExpr::var("b"))
            .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
            .sbuf(Prim::new("buf1", &src_buf))
            .rbuf(PrimMut::new("buf2", &mut dst))
            .run();
        matches!(r, Err(commint::DirectiveError::Invalid(_)))
    });
    assert!(res.per_rank.iter().all(|&rejected| rejected));
}
