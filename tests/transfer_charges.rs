//! Golden for the directive engine's marshalling charges. Every target,
//! every lowering policy and every buffer shape runs per instance, and
//! coalesced with batch 2 where coalescing applies (MPI two-sided and
//! SHMEM). Each rank records its final virtual time, `packed_bytes`,
//! `datatype_commits`, `dtype_cache_hits` and a checksum of the values it
//! received, so a change to what a lowering charges, on which side and for
//! which target, shows up as a diff of one named row.
//!
//! Regenerate after an intentional change with
//! `BLESS=1 cargo test -p integration --test transfer_charges`.

use std::fmt::Write as _;
use std::path::PathBuf;

use commint::prelude::*;
use mpisim::Comm;
use netsim::{run, SimConfig};

/// A chain 0 → 1 → 2: rank 1 both receives and sends, so its coalesced
/// batches leave by the flush-before-block rule, rank 0's by a full batch
/// and the region-end flush.
const RANKS: usize = 3;
/// Instances of the site per region.
const ITERS: usize = 3;
/// Regions per run: the second one finds every layout committed.
const REGIONS: usize = 2;
/// Elements (records, blocks) per buffer.
const COUNT: usize = 8;
const SITE: u32 = 7;

commint::comm_datatype! {
    struct Rec {
        id: i32,
        w: [f64; 2],
        tag: [u8; 3],
    }
}

#[derive(Clone, Copy)]
enum Shape {
    Primitive,
    Strided,
    Struct,
    Soa,
}

const SHAPES: [(Shape, &str); 4] = [
    (Shape::Primitive, "prim"),
    (Shape::Strided, "strided"),
    (Shape::Struct, "struct"),
    (Shape::Soa, "soa"),
];

const POLICIES: [(LoweringPolicy, &str); 3] = [
    (LoweringPolicy::Auto, "auto"),
    (LoweringPolicy::AlwaysPack, "pack"),
    (LoweringPolicy::AlwaysDatatype, "ddt"),
];

fn target_name(t: Target) -> &'static str {
    match t {
        Target::Mpi2Side => "mpi2",
        Target::Mpi1Side => "mpi1",
        Target::Shmem => "shmem",
    }
}

/// FNV-1a over the little-endian bytes of received values.
struct Checksum(u64);

impl Checksum {
    fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One rank's record: final time (ns), packed bytes, datatype commits,
/// datatype-cache hits, checksum of the received values.
type Row = (u64, usize, usize, usize, u64);

fn run_case(
    target: Target,
    policy: LoweringPolicy,
    shape: Shape,
    batch: Option<usize>,
) -> Vec<Row> {
    let res = run(SimConfig::new(RANKS), move |ctx| {
        let comm = Comm::world(ctx);
        let mut s = CommSession::new(ctx, comm).with_lowering(policy);
        if let Some(batch) = batch {
            let mut ov = Overlay::default();
            ov.set(SiteDecision::new(SITE, Decision::Coalesce { batch }));
            s = s.with_overlay(ov);
        }
        let me = s.rank() as i64;
        let last = RANKS as i64 - 1;
        let params = CommParams::new()
            .sender(RankExpr::rank() - RankExpr::lit(1))
            .receiver(RankExpr::rank() + RankExpr::lit(1))
            .sendwhen(RankExpr::rank().lt(RankExpr::lit(last)))
            .receivewhen(RankExpr::rank().gt(RankExpr::lit(0)))
            .count(RankExpr::lit(COUNT as i64))
            .target(target)
            .max_comm_iter(RankExpr::lit(ITERS as i64));
        let mut sum = Checksum(0xcbf2_9ce4_8422_2325);
        // Every instance of a region moves its own slice of the buffers: a
        // region's instances are independent, so none forces a split sync.
        let n = ITERS * COUNT;
        for region in 0..REGIONS {
            let seed = (me * 1000 + region as i64 * 100) as i32;
            let hdr: Vec<i64> = (0..n as i64).map(|i| seed as i64 + i).collect();
            let mut hdr_dst = vec![0i64; n];
            let prim: Vec<f64> = (0..n).map(|i| seed as f64 + i as f64 / 4.0).collect();
            let mut prim_dst = vec![0f64; n];
            let strided: Vec<i32> = (0..4 * n as i32).map(|i| seed + i).collect();
            let mut strided_dst = vec![0i32; 4 * n];
            let rec = |i: usize| Rec {
                id: seed + i as i32,
                w: [seed as f64 * 0.5, i as f64],
                tag: [i as u8, seed as u8, 7],
            };
            let recs: Vec<Rec> = (0..n).map(rec).collect();
            let mut recs_dst: Vec<Rec> = (0..n).map(|_| rec(0)).collect();
            let soa_a: Vec<f64> = (0..n).map(|i| seed as f64 + i as f64).collect();
            let soa_b: Vec<i32> = (0..2 * n as i32).map(|i| seed - i).collect();
            let (mut soa_a_dst, mut soa_b_dst) = (vec![0f64; n], vec![0i32; 2 * n]);
            s.region(&params, |reg| {
                let chunks = hdr
                    .chunks(COUNT)
                    .zip(hdr_dst.chunks_mut(COUNT))
                    .zip(prim.chunks(COUNT).zip(prim_dst.chunks_mut(COUNT)))
                    .zip(
                        strided
                            .chunks(4 * COUNT)
                            .zip(strided_dst.chunks_mut(4 * COUNT)),
                    )
                    .zip(recs.chunks(COUNT).zip(recs_dst.chunks_mut(COUNT)))
                    .zip(soa_a.chunks(COUNT).zip(soa_a_dst.chunks_mut(COUNT)))
                    .zip(soa_b.chunks(2 * COUNT).zip(soa_b_dst.chunks_mut(2 * COUNT)));
                for ((((((hdr, hdr_dst), prim), strided), recs), soa_a), soa_b) in chunks {
                    let p2p = reg.p2p().site(SITE);
                    let p2p = match shape {
                        Shape::Primitive => p2p
                            .sbuf(Prim::new("src", prim.0))
                            .rbuf(PrimMut::new("dst", prim.1)),
                        Shape::Strided => p2p
                            .sbuf(PrimStrided::new("src", strided.0, 2, 4))
                            .rbuf(PrimStridedMut::new("dst", strided.1, 2, 4)),
                        Shape::Struct => p2p
                            .sbuf(Struc::new("src", recs.0))
                            .rbuf(StrucMut::new("dst", recs.1)),
                        Shape::Soa => p2p
                            .sbuf(
                                Soa::new("src")
                                    .field("a", soa_a.0)
                                    .field_blocks("b", soa_b.0, 2),
                            )
                            .rbuf(
                                SoaMut::new("dst")
                                    .field("a", soa_a.1)
                                    .field_blocks("b", soa_b.1, 2),
                            ),
                    };
                    p2p.sbuf(Prim::new("hdr", hdr))
                        .rbuf(PrimMut::new("hdr", hdr_dst))
                        .run()
                        .unwrap();
                }
            })
            .unwrap();
            let received: Vec<u8> = match shape {
                Shape::Primitive => prim_dst.iter().flat_map(|v| v.to_le_bytes()).collect(),
                Shape::Strided => strided_dst.iter().flat_map(|v| v.to_le_bytes()).collect(),
                Shape::Struct => recs_dst
                    .iter()
                    .flat_map(|r| {
                        let w = r.w.iter().flat_map(|v| v.to_le_bytes());
                        r.id.to_le_bytes().into_iter().chain(w).chain(r.tag)
                    })
                    .collect(),
                Shape::Soa => soa_a_dst
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .chain(soa_b_dst.iter().flat_map(|v| v.to_le_bytes()))
                    .collect(),
            };
            sum.add(&received);
            hdr_dst.iter().for_each(|v| sum.add(&v.to_le_bytes()));
        }
        s.flush();
        drop(s);
        let st = &ctx.stats;
        (
            st.packed_bytes,
            st.datatype_commits,
            st.dtype_cache_hits,
            sum.0,
        )
    });
    res.final_times
        .iter()
        .zip(res.per_rank)
        .map(|(t, (packed, commits, hits, sum))| (t.as_nanos(), packed, commits, hits, sum))
        .collect()
}

fn render() -> String {
    let mut out = String::new();
    for target in [Target::Mpi2Side, Target::Mpi1Side, Target::Shmem] {
        let modes: &[Option<usize>] = match target {
            Target::Mpi1Side => &[None],
            _ => &[None, Some(2)],
        };
        for &batch in modes {
            for (policy, pname) in POLICIES {
                for (shape, sname) in SHAPES {
                    let mode = if batch.is_some() { "batch2" } else { "each" };
                    for (rank, (t, packed, commits, hits, sum)) in
                        run_case(target, policy, shape, batch)
                            .into_iter()
                            .enumerate()
                    {
                        writeln!(
                            out,
                            "{} {pname} {sname} {mode} r{rank} t_ns={t} packed={packed} \
                             commits={commits} hits={hits} sum={sum:016x}",
                            target_name(target)
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    out
}

#[test]
fn transfer_charges_match_golden() {
    let text = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/scope_golden/transfer_charges.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read golden: {e} (run with BLESS=1 to create)"));
    assert_eq!(
        text, want,
        "transfer charges drifted from golden (run with BLESS=1 after intentional changes)"
    );
}
