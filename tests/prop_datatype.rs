//! Property tests: datatype machinery — struct gather/scatter, pack/unpack
//! identity, vector-type strides — over randomized layouts and contents.
//! The one layout walk (`Datatype::walk`, which merges blocks adjacent in
//! wire and memory order) is checked against field-by-field and
//! block-by-block references kept in this file: through
//! `Datatype::gather`/`scatter`, through `gather_described`/
//! `scatter_described` on a padded composite whose fields are declared out
//! of memory order, and through strided views.
//!
//! The tests outside `lowering_differential` run `PROPTEST_CASES` cases
//! when it is set (CI also runs this file with 1024), else 64.

use std::sync::{Arc, OnceLock};

use commint::buffer::{
    gather_described, scatter_described, Buf, CompositeLayout, Described, FieldDef, NestedField,
    PrimStrided, PrimStridedMut, RecvBuf, SendBuf,
};
use integration::with_ranks;
use mpisim::dtype::{BasicType, Datatype, FieldKind};
use mpisim::PackBuf;
use proptest::prelude::*;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn basic_type() -> impl Strategy<Value = BasicType> {
    prop_oneof![
        Just(BasicType::U8),
        Just(BasicType::I32),
        Just(BasicType::I64),
        Just(BasicType::F32),
        Just(BasicType::F64),
    ]
}

/// A struct layout as `(offset, blocklen, type)` triples in declaration
/// order.
type Fields = Vec<(usize, usize, BasicType)>;

/// `n` pseudo-random bytes from `seed`.
fn noise(seed: u64, n: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

/// A random valid struct layout and its extent. Fields are placed in memory
/// order, each aligned to its element size after a gap of 0, 1 or 2
/// alignment units (a 0 gap makes neighbours adjacent, so the walk merges
/// them), then 0–2 words of trailing padding. An odd `shuffle` declares
/// the fields in a shuffled order, where memory neighbours are mostly not
/// wire neighbours and must not merge.
fn layout_strategy() -> impl Strategy<Value = (Fields, usize)> {
    (
        proptest::collection::vec((basic_type(), 1usize..5, 0usize..3), 1..8),
        0usize..3,
        any::<u64>(),
    )
        .prop_map(|(blocks, trailing, shuffle)| {
            let mut fields = Vec::new();
            let mut off = 0usize;
            for (ty, blocklen, gap) in blocks {
                let align = ty.size();
                off = off.div_ceil(align) * align + gap * align;
                fields.push((off, blocklen, ty));
                off += blocklen * ty.size();
            }
            if shuffle % 2 == 1 {
                let picks = noise(shuffle, fields.len());
                for i in (1..fields.len()).rev() {
                    fields.swap(i, picks[i] as usize % (i + 1));
                }
            }
            (fields, off.div_ceil(8) * 8 + trailing * 8)
        })
}

fn struct_type(fields: &Fields, extent: usize) -> Datatype {
    let descr: Vec<(&str, usize, usize, FieldKind)> = fields
        .iter()
        .map(|&(off, bl, ty)| ("f", off, bl, FieldKind::Basic(ty)))
        .collect();
    Datatype::try_struct(&descr, extent).unwrap()
}

/// The reference gather: every field of every element, one at a time, in
/// declaration order.
fn gather_fieldwise(fields: &Fields, extent: usize, raw: &[u8], count: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for e in 0..count {
        for &(off, bl, ty) in fields {
            let lo = e * extent + off;
            out.extend_from_slice(&raw[lo..lo + bl * ty.size()]);
        }
    }
    out
}

/// The reference scatter, the inverse of [`gather_fieldwise`].
fn scatter_fieldwise(fields: &Fields, extent: usize, packed: &[u8], count: usize, dst: &mut [u8]) {
    let mut pos = 0;
    for e in 0..count {
        for &(off, bl, ty) in fields {
            let (lo, n) = (e * extent + off, bl * ty.size());
            dst[lo..lo + n].copy_from_slice(&packed[pos..pos + n]);
            pos += n;
        }
    }
}

commint::comm_datatype! {
    /// The composite [`Site`] embeds.
    struct Moment {
        m: [f64; 2],
        weight: f64,
    }
}

/// A padded composite (4 bytes after `tag`, 7 after `flag`) whose
/// hand-written layout declares its fields out of memory order: `energy`,
/// the nested `moment`, `tag`, `flag`. Only `moment.m` and `moment.weight`
/// are neighbours in both orders; `moment` ends where `energy` starts and
/// `energy` ends where `flag` starts, but neither pair is in wire order.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq)]
struct Site {
    tag: i32,
    moment: Moment,
    energy: f64,
    flag: u8,
}

// SAFETY: every declared field is an initialized primitive block of `Site`
// at its `offset_of!` offset.
unsafe impl Described for Site {
    fn layout() -> Arc<CompositeLayout> {
        static LAYOUT: OnceLock<Arc<CompositeLayout>> = OnceLock::new();
        let prim = |name: &str, offset, ty| {
            let name = name.into();
            NestedField::Prim(FieldDef {
                name,
                offset,
                ty,
                blocklen: 1,
            })
        };
        let layout = LAYOUT.get_or_init(|| {
            Arc::new(CompositeLayout::nested::<Site>(
                "Site",
                vec![
                    prim("energy", std::mem::offset_of!(Site, energy), BasicType::F64),
                    NestedField::Nested {
                        name: "moment".into(),
                        offset: std::mem::offset_of!(Site, moment),
                        layout: Moment::layout(),
                    },
                    prim("tag", std::mem::offset_of!(Site, tag), BasicType::I32),
                    prim("flag", std::mem::offset_of!(Site, flag), BasicType::U8),
                ],
            ))
        });
        Arc::clone(layout)
    }
}

/// Random sites. Floats are small integers, so every value is exact and
/// never NaN.
fn sites() -> impl Strategy<Value = Vec<Site>> {
    let site = (
        any::<i32>(),
        any::<i16>(),
        any::<i16>(),
        any::<i16>(),
        any::<u8>(),
    );
    proptest::collection::vec(site, 0..5).prop_map(|v| {
        v.into_iter()
            .map(|(tag, a, b, c, flag)| Site {
                tag,
                moment: Moment {
                    m: [a as f64, b as f64],
                    weight: c as f64,
                },
                energy: (a ^ b) as f64,
                flag,
            })
            .collect()
    })
}

/// The reference wire bytes of `sites`, field by field.
fn sites_wire(sites: &[Site]) -> Vec<u8> {
    let mut out = Vec::new();
    for s in sites {
        for v in [s.energy, s.moment.m[0], s.moment.m[1], s.moment.weight] {
            out.extend_from_slice(&v.to_ne_bytes());
        }
        out.extend_from_slice(&s.tag.to_ne_bytes());
        out.push(s.flag);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn struct_gather_scatter_roundtrip(
        (fields, extent) in layout_strategy(),
        len in 0usize..5,
        count_pick in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let dt = struct_type(&fields, extent);
        let count = count_pick % (len + 1);
        let raw = noise(seed, len * extent);

        // The walk covers exactly the payload, in maximal runs: no visited
        // range starts where the one before it ended.
        let mut ranges = Vec::new();
        dt.walk(count, |r| ranges.push(r));
        let walked: usize = ranges.iter().map(|r| r.len()).sum();
        prop_assert_eq!(walked, count * dt.packed_size());
        for w in ranges.windows(2) {
            prop_assert!(w[0].end != w[1].start, "unmerged neighbours {:?}", w);
        }

        // Gather appends the reference bytes after what `out` held.
        let mut got = vec![0xEE; 3];
        dt.gather(&raw, count, &mut got);
        let mut want = vec![0xEE; 3];
        want.extend(gather_fieldwise(&fields, extent, &raw, count));
        prop_assert_eq!(&got, &want);

        // Scatter writes exactly the reference bytes: padding and the
        // elements past `count` keep what they held.
        let packed = noise(seed ^ 0x5A5A, count * dt.packed_size());
        let mut got = noise(seed ^ 0xA5A5, len * extent);
        let mut want = got.clone();
        dt.scatter(&packed, count, &mut got);
        scatter_fieldwise(&fields, extent, &packed, count, &mut want);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn gather_then_scatter_is_idempotent(
        (fields, extent) in layout_strategy(),
    ) {
        let dt = struct_type(&fields, extent);
        let raw = vec![0xABu8; extent];
        let mut p1 = Vec::new();
        dt.gather(&raw, 1, &mut p1);
        let mut img = vec![0u8; extent];
        dt.scatter(&p1, 1, &mut img);
        let mut p2 = Vec::new();
        dt.gather(&img, 1, &mut p2);
        prop_assert_eq!(p1, p2);
    }

    #[test]
    fn pack_unpack_identity(
        ints in proptest::collection::vec(any::<i32>(), 0..16),
        doubles in proptest::collection::vec(any::<f64>().prop_filter("finite", |v| v.is_finite()), 0..16),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let ints2 = ints.clone();
        let doubles2 = doubles.clone();
        let bytes2 = bytes.clone();
        let res = with_ranks(1, move |ctx| {
            let m = ctx.machine().mpi;
            let size = ints2.len() * 4 + doubles2.len() * 8 + bytes2.len() + 16;
            let mut pb = PackBuf::with_capacity(size);
            pb.pack(ctx, &ints2, &m);
            pb.pack(ctx, &doubles2, &m);
            pb.pack(ctx, &bytes2, &m);

            let mut rb = PackBuf::from_bytes(pb.packed());
            let mut i_out = vec![0i32; ints2.len()];
            let mut d_out = vec![0f64; doubles2.len()];
            let mut b_out = vec![0u8; bytes2.len()];
            rb.unpack(ctx, &mut i_out, &m);
            rb.unpack(ctx, &mut d_out, &m);
            rb.unpack(ctx, &mut b_out, &m);
            (i_out, d_out, b_out)
        });
        let (i_out, d_out, b_out) = res.per_rank[0].clone();
        prop_assert_eq!(i_out, ints);
        prop_assert_eq!(d_out, doubles);
        prop_assert_eq!(b_out, bytes);
    }

    #[test]
    fn vector_type_strided_roundtrip(
        count in 1usize..6,
        blocklen in 1usize..4,
        extra_stride in 0usize..4,
        picks in (any::<usize>(), any::<usize>()),
        vals in proptest::collection::vec(any::<i64>(), 64),
    ) {
        let stride = blocklen + extra_stride;
        let dt = Datatype::Vector { count, blocklen, stride, elem: BasicType::I64 };
        let needed = dt.extent() / 8;
        prop_assume!(needed <= vals.len());

        let raw = mpisim::as_bytes(&vals);
        let mut packed = Vec::new();
        dt.gather(raw, 1, &mut packed);
        let vals_ref = &vals;
        let expected: Vec<i64> = (0..count)
            .flat_map(|b| (0..blocklen).map(move |k| vals_ref[b * stride + k]))
            .collect();
        let got: Vec<i64> = mpisim::vec_from_bytes(&packed);
        prop_assert_eq!(&got, &expected);

        let mut img = vec![0i64; vals.len()];
        dt.scatter(&packed, 1, mpisim::as_bytes_mut(&mut img));
        for b in 0..count {
            for k in 0..blocklen {
                prop_assert_eq!(img[b * stride + k], vals[b * stride + k]);
            }
        }

        // A strided view over those blocks, plus a tail too short for
        // another, moves its first `prefix` blocks as the reference does.
        let (prefix, len) = (picks.0 % (count + 1), needed + picks.1 % stride);
        let view = PrimStrided::new("s", &vals[..len], blocklen, stride);
        prop_assert_eq!(view.meta().len, count);
        let mut got = Vec::new();
        view.gather(prefix, &mut got);
        prop_assert_eq!(&got[..], mpisim::as_bytes(&expected[..prefix * blocklen]));
        let mut img = vec![0i64; len];
        PrimStridedMut::new("d", &mut img, blocklen, stride).scatter(prefix, &got);
        for (i, v) in img.iter().enumerate() {
            let moved = i % stride < blocklen && i / stride < prefix;
            prop_assert_eq!(*v, if moved { vals[i] } else { 0 });
        }
    }

    #[test]
    fn packed_size_never_exceeds_extent_for_structs(
        (fields, extent) in layout_strategy(),
    ) {
        let dt = struct_type(&fields, extent);
        prop_assert!(dt.packed_size() <= dt.extent());
    }

    #[test]
    fn described_gather_scatter_match_fieldwise_reference(
        items in sites(),
        incoming in sites(),
        count_pick in any::<usize>(),
    ) {
        let count = count_pick % (items.len().min(incoming.len()) + 1);
        let mut got = Vec::new();
        gather_described(&items, count, &mut got);
        prop_assert_eq!(got, sites_wire(&items[..count]));

        // The first `count` sites become the incoming ones; the rest keep
        // theirs.
        let mut back = items.clone();
        scatter_described(&mut back, count, &sites_wire(&incoming[..count]));
        prop_assert_eq!(&back[..count], &incoming[..count]);
        prop_assert_eq!(&back[count..], &items[count..]);
    }
}

/// Differential check of the lowering chooser: one ring exchange of a
/// random strided-plus-SoA payload, executed under every lowering policy
/// (pack, derived datatype, cost-model auto), every backend, and both
/// execution engines. The lowering strategy decides how the runtime
/// *charges* the transfer, never what arrives: all combinations must
/// deliver bit-identical buffers.
mod lowering_differential {
    use commint::prelude::*;
    use mpisim::Comm;
    use netsim::{run, ExecPolicy, SimConfig};
    use proptest::prelude::*;

    #[derive(Clone, Copy, Debug)]
    struct Layout {
        blocklen: usize,
        stride: usize,
        count: usize,
    }

    /// Per-rank (strided dst bits, SoA int field, SoA float field bits).
    type RingSnapshot = Vec<(Vec<u64>, Vec<i64>, Vec<u64>)>;

    fn ring(
        l: Layout,
        target: Target,
        policy: LoweringPolicy,
        exec: ExecPolicy,
        seed: u64,
        n: usize,
    ) -> RingSnapshot {
        let res = run(SimConfig::new(n).with_exec(exec), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).with_lowering(policy);
            let me = session.rank() as u64;
            let mem = (l.count - 1) * l.stride + l.blocklen;
            let src: Vec<f64> = (0..mem)
                .map(|i| (seed ^ (me << 32) ^ i as u64) as f64)
                .collect();
            let mut dst = vec![0f64; mem];
            let sa: Vec<i64> = (0..l.count)
                .map(|i| (seed as i64) + (me as i64) * 1000 + i as i64)
                .collect();
            let sb: Vec<f64> = (0..l.count)
                .map(|i| (seed ^ me ^ (i as u64) << 8) as f64)
                .collect();
            let mut ra = vec![0i64; l.count];
            let mut rb = vec![0f64; l.count];
            let params = CommParams::new()
                .sender(
                    (RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks(),
                )
                .receiver((RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks())
                .target(target);
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .site(1)
                        .count(RankExpr::lit(l.count as i64))
                        .sbuf(PrimStrided::new("s", &src, l.blocklen, l.stride))
                        .rbuf(PrimStridedMut::new("r", &mut dst, l.blocklen, l.stride))
                        .run()
                        .unwrap();
                    reg.p2p()
                        .site(2)
                        .count(RankExpr::lit(l.count as i64))
                        .sbuf(Soa::new("ss").field("a", &sa).field("b", &sb))
                        .rbuf(SoaMut::new("sr").field("a", &mut ra).field("b", &mut rb))
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            (
                dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ra,
                rb.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            )
        });
        res.per_rank
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn every_policy_backend_engine_combo_is_bit_identical(
            blocklen in 1usize..4,
            extra_stride in 0usize..4,
            count in 1usize..8,
            seed in any::<u64>(),
        ) {
            let l = Layout { blocklen, stride: blocklen + extra_stride, count };
            let n = 4;
            let mut reference: Option<RingSnapshot> = None;
            for target in Target::ALL {
                let mut per_target: Option<RingSnapshot> = None;
                for policy in [
                    LoweringPolicy::Auto,
                    LoweringPolicy::AlwaysPack,
                    LoweringPolicy::AlwaysDatatype,
                ] {
                    for exec in [ExecPolicy::bounded(n), ExecPolicy::bounded(2)] {
                        let got = ring(l, target, policy, exec, seed, n);
                        // Within a target: every policy and engine agrees.
                        match &per_target {
                            None => per_target = Some(got),
                            Some(want) => prop_assert_eq!(
                                &got, want,
                                "divergent payload: {:?} {:?} {:?}", target, policy, l
                            ),
                        }
                    }
                }
                // Across targets the delivered bytes agree too (same ring).
                match &reference {
                    None => reference = Some(per_target.unwrap()),
                    Some(want) => prop_assert_eq!(
                        &per_target.unwrap(), want,
                        "divergent across targets at {:?} {:?}", target, l
                    ),
                }
            }
            // And the data is actually the neighbour's, not just consistent.
            let got = reference.unwrap();
            for (r, (_, ra, _)) in got.iter().enumerate() {
                let prev = ((r + n - 1) % n) as i64;
                prop_assert_eq!(ra[0], seed as i64 + prev * 1000);
            }
        }
    }
}
