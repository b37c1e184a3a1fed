//! Derived datatypes — the MPI feature the directive translation leans on.
//!
//! The paper's translator replaces explicit `MPI_Pack` sequences with an
//! automatically-constructed *MPI struct*: "information about the type is
//! extracted at compile time ... for each element in the composite type, its
//! displacement within the type, block length and correlating MPI basic type
//! are accumulated into corresponding arrays ... MPI library calls are
//! generated to create and commit an MPI struct type. Pointers within a
//! composite type are prohibited as well as recursively nested composite
//! types. This new MPI data type is reused within the function scope."
//!
//! This module implements exactly that: [`Datatype`] with basic, vector and
//! struct constructors; the pointer / nested-composite prohibitions as typed
//! errors; and a per-scope [`DtypeCache`] so the commit cost is charged once
//! per layout. It is also the one place that turns a layout into byte
//! ranges: [`Datatype::walk`] visits a type's memory blocks in wire order,
//! merging blocks adjacent in both wire and memory order into one copy (the
//! dataloop idea), and every gather and scatter of a layout drives it.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::mem::MaybeUninit;
use std::ops::Range;

use netsim::{CostModel, RankCtx};

/// MPI basic types supported in composite layouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BasicType {
    /// `MPI_CHAR` / `MPI_BYTE`
    U8,
    /// `MPI_INT`
    I32,
    /// `MPI_LONG_LONG`
    I64,
    /// `MPI_FLOAT`
    F32,
    /// `MPI_DOUBLE`
    F64,
}

impl BasicType {
    /// Size of one element in bytes.
    #[inline]
    pub const fn size(self) -> usize {
        match self {
            BasicType::U8 => 1,
            BasicType::I32 | BasicType::F32 => 4,
            BasicType::I64 | BasicType::F64 => 8,
        }
    }

    /// MPI-style display name.
    pub const fn mpi_name(self) -> &'static str {
        match self {
            BasicType::U8 => "MPI_CHAR",
            BasicType::I32 => "MPI_INT",
            BasicType::I64 => "MPI_LONG_LONG",
            BasicType::F32 => "MPI_FLOAT",
            BasicType::F64 => "MPI_DOUBLE",
        }
    }
}

/// What a would-be field of a composite type contains. Used by the checked
/// constructor to reproduce the paper's prohibitions with diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldKind {
    /// A block of basic-typed elements — allowed.
    Basic(BasicType),
    /// A pointer — prohibited ("Pointers within a composite type are
    /// prohibited").
    Pointer,
    /// A nested composite — prohibited ("as well as recursively nested
    /// composite types").
    Composite,
}

/// One `(displacement, block length, basic type)` triple of an MPI struct.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StructField {
    /// Byte displacement of the block within the composite.
    pub offset: usize,
    /// Number of consecutive `ty` elements.
    pub blocklen: usize,
    /// Element type of the block.
    pub ty: BasicType,
}

/// Errors from datatype construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DtypeError {
    /// A composite field was a pointer.
    PointerField { field: String },
    /// A composite field was itself a composite.
    NestedComposite { field: String },
    /// A field block overlaps a previous one or exceeds the extent.
    BadLayout { field: String, reason: String },
}

impl std::fmt::Display for DtypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DtypeError::PointerField { field } => {
                write!(
                    f,
                    "pointer field `{field}` prohibited in composite datatype"
                )
            }
            DtypeError::NestedComposite { field } => write!(
                f,
                "recursively nested composite `{field}` prohibited in composite datatype"
            ),
            DtypeError::BadLayout { field, reason } => {
                write!(f, "bad layout at field `{field}`: {reason}")
            }
        }
    }
}

impl std::error::Error for DtypeError {}

/// A (possibly derived) MPI datatype.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Datatype {
    /// One basic element.
    Basic(BasicType),
    /// `count` blocks of `blocklen` elements, block starts `stride` elements
    /// apart (`MPI_Type_vector`). Strided matrix rows/columns.
    Vector {
        count: usize,
        blocklen: usize,
        stride: usize,
        elem: BasicType,
    },
    /// An MPI struct (`MPI_Type_create_struct`), built and validated by
    /// [`Datatype::try_struct`].
    Struct(StructType),
}

/// A validated MPI struct: displacement/blocklength/type triples over a
/// memory extent, plus what the walk copies, derived once from them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructType {
    /// The field blocks, in declaration (wire) order.
    fields: Vec<StructField>,
    /// Bytes from the start of one element to the start of the next.
    extent: usize,
    /// One element's `(offset, length)` byte runs in wire order: the field
    /// blocks with wire-order neighbours adjacent in memory merged.
    runs: Vec<(usize, usize)>,
    /// The commit-cache key: a hash of the unmerged fields and the extent,
    /// so two layouts that merge to the same runs but split their fields
    /// differently commit separately.
    key: u64,
}

impl Hash for StructType {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Everything else is derived from what `key` hashes.
        state.write_u64(self.key);
    }
}

/// `bytes` as bytes that may be uninitialized (they are not).
fn uninit(bytes: &[u8]) -> &[MaybeUninit<u8>] {
    // SAFETY: `MaybeUninit<u8>` has the layout of `u8`, and every `u8` is
    // a valid `MaybeUninit<u8>`.
    unsafe { &*(bytes as *const [u8] as *const [MaybeUninit<u8>]) }
}

impl Datatype {
    /// Build a struct datatype from field descriptors, applying the paper's
    /// prohibitions. `fields` are `(name, offset, blocklen, kind)`.
    pub fn try_struct(
        fields: &[(&str, usize, usize, FieldKind)],
        extent: usize,
    ) -> Result<Datatype, DtypeError> {
        let mut out = Vec::with_capacity(fields.len());
        for (name, offset, blocklen, kind) in fields {
            let ty = match kind {
                FieldKind::Basic(t) => *t,
                FieldKind::Pointer => {
                    return Err(DtypeError::PointerField {
                        field: (*name).to_string(),
                    })
                }
                FieldKind::Composite => {
                    return Err(DtypeError::NestedComposite {
                        field: (*name).to_string(),
                    })
                }
            };
            let end = offset + blocklen * ty.size();
            if end > extent {
                return Err(DtypeError::BadLayout {
                    field: (*name).to_string(),
                    reason: format!("block [{offset}, {end}) exceeds extent {extent}"),
                });
            }
            out.push(StructField {
                offset: *offset,
                blocklen: *blocklen,
                ty,
            });
        }
        // Overlap check (sorted sweep).
        let mut sorted = out.clone();
        sorted.sort_by_key(|f| f.offset);
        for w in sorted.windows(2) {
            let prev_end = w[0].offset + w[0].blocklen * w[0].ty.size();
            if prev_end > w[1].offset {
                return Err(DtypeError::BadLayout {
                    field: format!("@{}", w[1].offset),
                    reason: "field blocks overlap".to_string(),
                });
            }
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (&out, extent).hash(&mut h);
        // One field per run, merged by walking one element.
        let mut dt = Datatype::Struct(StructType {
            runs: out
                .iter()
                .map(|f| (f.offset, f.blocklen * f.ty.size()))
                .collect(),
            fields: out,
            extent,
            key: h.finish(),
        });
        let mut runs = Vec::new();
        dt.walk(1, |r| runs.push((r.start, r.len())));
        if let Datatype::Struct(st) = &mut dt {
            st.runs = runs;
        }
        Ok(dt)
    }

    /// Number of payload bytes one element of this datatype contributes.
    pub fn packed_size(&self) -> usize {
        match self {
            Datatype::Basic(t) => t.size(),
            Datatype::Vector {
                count,
                blocklen,
                elem,
                ..
            } => count * blocklen * elem.size(),
            Datatype::Struct(s) => s.runs.iter().map(|r| r.1).sum(),
        }
    }

    /// Memory extent (bytes from the start of one element to the start of
    /// the next).
    pub fn extent(&self) -> usize {
        match self {
            Datatype::Basic(t) => t.size(),
            Datatype::Vector {
                count,
                blocklen,
                stride,
                elem,
            } => {
                if *count == 0 {
                    0
                } else {
                    ((count - 1) * stride + blocklen) * elem.size()
                }
            }
            Datatype::Struct(s) => s.extent,
        }
    }

    /// The one layout walk: visit the memory byte ranges of `count`
    /// consecutive elements (element `e` at byte `e * extent`) in wire
    /// order. Blocks adjacent in both wire order and memory order arrive as
    /// one range, also across elements, so a dense layout is one copy.
    pub fn walk(&self, count: usize, mut visit: impl FnMut(Range<usize>)) {
        let extent = self.extent();
        let mut run = 0..0;
        let mut push = |start: usize, len: usize| {
            if start != run.end && len > 0 {
                if !run.is_empty() {
                    visit(run.clone());
                }
                run = start..start;
            }
            run.end += len;
        };
        match self {
            Datatype::Basic(t) => push(0, count * t.size()),
            Datatype::Vector {
                count: blocks,
                blocklen,
                stride,
                elem,
            } => {
                let es = elem.size();
                for e in 0..count {
                    for b in 0..*blocks {
                        push(e * extent + b * stride * es, blocklen * es);
                    }
                }
            }
            Datatype::Struct(s) => {
                for e in 0..count {
                    for &(off, len) in &s.runs {
                        push(e * extent + off, len);
                    }
                }
            }
        }
        if !run.is_empty() {
            visit(run);
        }
    }

    /// Gather (pack) `count` elements starting at `src` (raw memory image,
    /// at least `count * extent` bytes) into `out`.
    pub fn gather(&self, src: &[u8], count: usize, out: &mut Vec<u8>) {
        // SAFETY: every byte of `src` is initialized.
        unsafe { self.gather_uninit(uninit(src), count, out) }
    }

    /// [`Datatype::gather`] from memory whose bytes outside the type's
    /// blocks may be uninitialized (a composite's padding): only the walked
    /// blocks are read.
    ///
    /// # Safety
    ///
    /// Every byte of the blocks [`Datatype::walk`] visits for `count`
    /// elements must be initialized.
    pub unsafe fn gather_uninit(&self, src: &[MaybeUninit<u8>], count: usize, out: &mut Vec<u8>) {
        let need = count * self.extent();
        assert!(
            src.len() >= need,
            "gather source too small: {} < {need}",
            src.len()
        );
        out.reserve(count * self.packed_size());
        self.walk(count, |r| {
            let block = &src[r];
            // SAFETY: the caller vouches that walked blocks are initialized.
            out.extend_from_slice(unsafe { &*(block as *const [MaybeUninit<u8>] as *const [u8]) });
        });
    }

    /// Scatter (unpack) packed bytes into `count` elements at `dst` (raw
    /// memory image, at least `count * extent` bytes).
    pub fn scatter(&self, packed: &[u8], count: usize, dst: &mut [u8]) {
        // SAFETY: `scatter_uninit` writes only initialized bytes, so `dst`
        // stays initialized.
        let dst = unsafe { &mut *(dst as *mut [u8] as *mut [MaybeUninit<u8>]) };
        self.scatter_uninit(packed, count, dst);
    }

    /// [`Datatype::scatter`] into memory whose bytes outside the type's
    /// blocks may be uninitialized: only the walked blocks are written.
    pub fn scatter_uninit(&self, packed: &[u8], count: usize, dst: &mut [MaybeUninit<u8>]) {
        let need = count * self.extent();
        assert!(
            dst.len() >= need,
            "scatter destination too small: {} < {need}",
            dst.len()
        );
        let packed = uninit(packed);
        let need = count * self.packed_size();
        assert!(
            packed.len() >= need,
            "scatter source too small: {} < {need}",
            packed.len()
        );
        let mut pos = 0usize;
        self.walk(count, |r| {
            let n = r.len();
            dst[r].copy_from_slice(&packed[pos..pos + n]);
            pos += n;
        });
    }

    /// A stable hash identifying this layout, used as the cache key for
    /// commit-once-per-scope reuse. A struct's key is the hash of its
    /// declaration-order field triples and extent, taken once when it is
    /// built.
    pub fn layout_key(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }

    /// Emit the MPI calls a compiler would generate to build this type
    /// (for the pragma front-end's code generator and for documentation).
    pub fn describe_mpi_calls(&self, var: &str) -> Vec<String> {
        match self {
            Datatype::Basic(t) => vec![format!("/* {var}: basic {} */", t.mpi_name())],
            Datatype::Vector {
                count,
                blocklen,
                stride,
                elem,
            } => vec![
                format!(
                    "MPI_Type_vector({count}, {blocklen}, {stride}, {}, &{var});",
                    elem.mpi_name()
                ),
                format!("MPI_Type_commit(&{var});"),
            ],
            Datatype::Struct(StructType { fields, .. }) => {
                let mut lines = Vec::new();
                let n = fields.len();
                let blocklens: Vec<String> =
                    fields.iter().map(|f| f.blocklen.to_string()).collect();
                let disps: Vec<String> = fields.iter().map(|f| f.offset.to_string()).collect();
                let types: Vec<String> =
                    fields.iter().map(|f| f.ty.mpi_name().to_string()).collect();
                lines.push(format!(
                    "int {var}_blocklens[{n}] = {{{}}};",
                    blocklens.join(", ")
                ));
                lines.push(format!(
                    "MPI_Aint {var}_disps[{n}] = {{{}}};",
                    disps.join(", ")
                ));
                lines.push(format!(
                    "MPI_Datatype {var}_types[{n}] = {{{}}};",
                    types.join(", ")
                ));
                lines.push(format!(
                    "MPI_Type_create_struct({n}, {var}_blocklens, {var}_disps, {var}_types, &{var});"
                ));
                lines.push(format!("MPI_Type_commit(&{var});"));
                lines
            }
        }
    }
}

/// Per-scope cache of committed datatypes: the commit cost is charged only
/// the first time a layout is used, matching the paper's "reused within the
/// function scope for any communication directive with buffers of the same
/// type".
#[derive(Default)]
pub struct DtypeCache {
    committed: HashMap<u64, ()>,
}

impl DtypeCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure `dt` is committed under `model`, charging the commit cost on
    /// first use. Returns `true` if this call performed the commit.
    pub fn ensure_committed(
        &mut self,
        ctx: &mut RankCtx,
        dt: &Datatype,
        model: &CostModel,
    ) -> bool {
        if matches!(dt, Datatype::Basic(_)) {
            return false; // basic types are predefined, never committed
        }
        let key = dt.layout_key();
        if let std::collections::hash_map::Entry::Vacant(e) = self.committed.entry(key) {
            e.insert(());
            ctx.charge_datatype_commit(model);
            true
        } else {
            ctx.note_dtype_cache_hit();
            false
        }
    }

    /// Number of distinct layouts committed in this scope.
    pub fn len(&self) -> usize {
        self.committed.len()
    }

    /// Whether nothing has been committed yet.
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basic_struct(fields: &[(usize, usize, BasicType)], extent: usize) -> Datatype {
        let descr: Vec<(&str, usize, usize, FieldKind)> = fields
            .iter()
            .map(|&(off, bl, ty)| ("f", off, bl, FieldKind::Basic(ty)))
            .collect();
        Datatype::try_struct(&descr, extent).unwrap()
    }

    /// The ranges one walk over `count` elements visits.
    fn walked(dt: &Datatype, count: usize) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::new();
        dt.walk(count, |r| out.push(r));
        out
    }

    #[test]
    fn sizes() {
        assert_eq!(Datatype::Basic(BasicType::F64).packed_size(), 8);
        let v = Datatype::Vector {
            count: 5,
            blocklen: 1,
            stride: 1,
            elem: BasicType::I32,
        };
        assert_eq!(v.packed_size(), 20);
        assert_eq!(v.extent(), 20);
        let s = basic_struct(&[(0, 2, BasicType::I32), (8, 1, BasicType::F64)], 24);
        assert_eq!(s.packed_size(), 16);
        assert_eq!(s.extent(), 24);
    }

    #[test]
    fn walk_merges_blocks_adjacent_in_wire_and_memory_order() {
        // Two i32 (an empty block declared between them breaks nothing),
        // padding and an f64: two runs, and the second element's first run
        // joins the first element's last one.
        let fields = [
            (0, 1, BasicType::I32),
            (12, 0, BasicType::U8),
            (4, 1, BasicType::I32),
            (16, 1, BasicType::F64),
        ];
        let s = basic_struct(&fields, 24);
        assert_eq!(walked(&s, 1), vec![0..8, 16..24]);
        assert_eq!(walked(&s, 2), vec![0..8, 16..32, 40..48]);
        assert!(walked(&s, 0).is_empty());
        // Declared against memory order, neighbours do not merge.
        let swapped = basic_struct(&[(8, 1, BasicType::F64), (0, 1, BasicType::F64)], 16);
        assert_eq!(walked(&swapped, 1), vec![8..16, 0..8]);
        // A dense vector, and any count of a basic type, is one copy.
        let dense = Datatype::Vector {
            count: 3,
            blocklen: 2,
            stride: 2,
            elem: BasicType::F32,
        };
        assert_eq!(walked(&dense, 2), vec![0..48]);
        assert_eq!(walked(&Datatype::Basic(BasicType::I64), 4), vec![0..32]);
    }

    #[test]
    fn vector_extent_and_pack() {
        // 3 blocks of 2 f32, stride 4 elements => extent (2*4+2)*4 = 40
        let v = Datatype::Vector {
            count: 3,
            blocklen: 2,
            stride: 4,
            elem: BasicType::F32,
        };
        assert_eq!(v.packed_size(), 24);
        assert_eq!(v.extent(), 40);

        let src: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let raw = crate::pod::as_bytes(&src);
        let mut packed = Vec::new();
        v.gather(raw, 1, &mut packed);
        let vals: Vec<f32> = crate::pod::vec_from_bytes(&packed);
        assert_eq!(vals, vec![0.0, 1.0, 4.0, 5.0, 8.0, 9.0]);

        let mut dst = vec![0f32; 10];
        v.scatter(&packed, 1, crate::pod::as_bytes_mut(&mut dst));
        assert_eq!(&dst[0..2], &[0.0, 1.0]);
        assert_eq!(&dst[4..6], &[4.0, 5.0]);
        assert_eq!(&dst[8..10], &[8.0, 9.0]);
        assert_eq!(dst[2], 0.0);
    }

    #[test]
    fn struct_roundtrip() {
        // A struct resembling {i32 a; f64 b; u8 c[3];} with padding.
        let dt = Datatype::try_struct(
            &[
                ("a", 0, 1, FieldKind::Basic(BasicType::I32)),
                ("b", 8, 1, FieldKind::Basic(BasicType::F64)),
                ("c", 16, 3, FieldKind::Basic(BasicType::U8)),
            ],
            24,
        )
        .unwrap();
        assert_eq!(dt.packed_size(), 4 + 8 + 3);
        assert_eq!(dt.extent(), 24);

        let mut raw = vec![0u8; 48]; // two elements
        raw[0..4].copy_from_slice(&7i32.to_ne_bytes());
        raw[8..16].copy_from_slice(&1.5f64.to_ne_bytes());
        raw[16..19].copy_from_slice(&[1, 2, 3]);
        raw[24..28].copy_from_slice(&9i32.to_ne_bytes());
        raw[32..40].copy_from_slice(&2.5f64.to_ne_bytes());
        raw[40..43].copy_from_slice(&[4, 5, 6]);

        let mut packed = Vec::new();
        dt.gather(&raw, 2, &mut packed);
        assert_eq!(packed.len(), 30);

        let mut back = vec![0u8; 48];
        dt.scatter(&packed, 2, &mut back);
        // Padding differs (stays zero) but all field bytes roundtrip.
        assert_eq!(&back[0..4], &raw[0..4]);
        assert_eq!(&back[8..19], &raw[8..19]);
        assert_eq!(&back[24..28], &raw[24..28]);
        assert_eq!(&back[32..43], &raw[32..43]);
    }

    #[test]
    fn pointer_field_rejected() {
        let err = Datatype::try_struct(
            &[
                ("a", 0, 1, FieldKind::Basic(BasicType::I32)),
                ("p", 8, 1, FieldKind::Pointer),
            ],
            16,
        )
        .unwrap_err();
        assert!(matches!(err, DtypeError::PointerField { .. }));
        assert!(err.to_string().contains("pointer field `p`"));
    }

    #[test]
    fn nested_composite_rejected() {
        let err = Datatype::try_struct(&[("inner", 0, 1, FieldKind::Composite)], 8).unwrap_err();
        assert!(matches!(err, DtypeError::NestedComposite { .. }));
    }

    #[test]
    fn layout_violations_rejected() {
        // Block past extent.
        let err =
            Datatype::try_struct(&[("a", 4, 2, FieldKind::Basic(BasicType::F64))], 16).unwrap_err();
        assert!(matches!(err, DtypeError::BadLayout { .. }));
        // Overlapping blocks.
        let err = Datatype::try_struct(
            &[
                ("a", 0, 2, FieldKind::Basic(BasicType::I32)),
                ("b", 4, 1, FieldKind::Basic(BasicType::I32)),
            ],
            12,
        )
        .unwrap_err();
        assert!(matches!(err, DtypeError::BadLayout { .. }));
    }

    #[test]
    fn layout_key_stable_and_discriminating() {
        let vector = |count| Datatype::Vector {
            count,
            blocklen: 1,
            stride: 2,
            elem: BasicType::F64,
        };
        assert_eq!(vector(3).layout_key(), vector(3).layout_key());
        assert_ne!(vector(3).layout_key(), vector(4).layout_key());
        let a = basic_struct(&[(0, 1, BasicType::I32), (8, 1, BasicType::F64)], 16);
        let b = basic_struct(&[(0, 1, BasicType::I32), (8, 1, BasicType::F64)], 16);
        let wider = basic_struct(&[(0, 1, BasicType::I32), (8, 1, BasicType::F64)], 24);
        assert_eq!(a.layout_key(), b.layout_key());
        assert_ne!(a.layout_key(), wider.layout_key());
        // One run of 16 bytes either way, split into fields differently:
        // the key is the declared fields', so each commits on its own.
        let two = basic_struct(&[(0, 1, BasicType::F64), (8, 1, BasicType::F64)], 16);
        let one = basic_struct(&[(0, 2, BasicType::F64)], 16);
        assert_eq!(walked(&two, 1), walked(&one, 1));
        assert_ne!(two.layout_key(), one.layout_key());
    }

    #[test]
    fn cache_commits_once_per_layout_and_counts_hits() {
        let cfg = netsim::SimConfig::new(1);
        let res = netsim::run(cfg, |ctx| {
            let model = ctx.machine().mpi;
            let mut cache = DtypeCache::new();
            let vec_t = Datatype::Vector {
                count: 4,
                blocklen: 1,
                stride: 8,
                elem: BasicType::F64,
            };
            let strct =
                Datatype::try_struct(&[("a", 0, 1, FieldKind::Basic(BasicType::I32))], 4).unwrap();
            // First use of each layout commits; every reuse is a cache hit.
            assert!(cache.ensure_committed(ctx, &vec_t, &model));
            assert!(!cache.ensure_committed(ctx, &vec_t, &model));
            assert!(cache.ensure_committed(ctx, &strct, &model));
            for _ in 0..3 {
                assert!(!cache.ensure_committed(ctx, &strct, &model));
            }
            // Basic types are predefined: neither a commit nor a cache hit.
            assert!(!cache.ensure_committed(ctx, &Datatype::Basic(BasicType::F64), &model));
            assert_eq!(cache.len(), 2);
        });
        let stats = res.stats[0];
        assert_eq!(stats.datatype_commits, 2);
        assert_eq!(stats.dtype_cache_hits, 4);
    }

    #[test]
    fn describe_struct_calls() {
        let dt = Datatype::try_struct(
            &[
                ("a", 0, 1, FieldKind::Basic(BasicType::I32)),
                ("b", 8, 2, FieldKind::Basic(BasicType::F64)),
            ],
            24,
        )
        .unwrap();
        let calls = dt.describe_mpi_calls("atom_t");
        assert!(calls.iter().any(|l| l.contains("MPI_Type_create_struct")));
        assert!(calls.iter().any(|l| l.contains("MPI_Type_commit")));
        assert!(calls.iter().any(|l| l.contains("MPI_DOUBLE")));
    }
}
