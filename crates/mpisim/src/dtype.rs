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
//! This module implements exactly that: [`Datatype`] with basic, contiguous,
//! vector and struct constructors; the pointer / nested-composite
//! prohibitions as typed errors; gather/scatter through the datatype; and a
//! per-scope [`DtypeCache`] so the commit cost is charged once per layout.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

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
    /// `count` consecutive basic elements (`MPI_Type_contiguous`).
    Contiguous { count: usize, elem: BasicType },
    /// `count` blocks of `blocklen` elements, block starts `stride` elements
    /// apart (`MPI_Type_vector`). Strided matrix rows/columns.
    Vector {
        count: usize,
        blocklen: usize,
        stride: usize,
        elem: BasicType,
    },
    /// An MPI struct: displacement/blocklength/type triples over a memory
    /// extent of `extent` bytes (`MPI_Type_create_struct`).
    Struct {
        fields: Vec<StructField>,
        extent: usize,
    },
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
        Ok(Datatype::Struct {
            fields: out,
            extent,
        })
    }

    /// Number of payload bytes one element of this datatype contributes.
    pub fn packed_size(&self) -> usize {
        match self {
            Datatype::Basic(t) => t.size(),
            Datatype::Contiguous { count, elem } => count * elem.size(),
            Datatype::Vector {
                count,
                blocklen,
                elem,
                ..
            } => count * blocklen * elem.size(),
            Datatype::Struct { fields, .. } => {
                fields.iter().map(|f| f.blocklen * f.ty.size()).sum()
            }
        }
    }

    /// Memory extent (bytes from the start of one element to the start of
    /// the next).
    pub fn extent(&self) -> usize {
        match self {
            Datatype::Basic(t) => t.size(),
            Datatype::Contiguous { count, elem } => count * elem.size(),
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
            Datatype::Struct { extent, .. } => *extent,
        }
    }

    /// Gather (pack) `count` elements starting at `src` (raw memory image,
    /// at least `count * extent` bytes) into `out`.
    pub fn gather(&self, src: &[u8], count: usize, out: &mut Vec<u8>) {
        let extent = self.extent();
        assert!(
            src.len() >= count * extent,
            "gather source too small: {} < {}",
            src.len(),
            count * extent
        );
        match self {
            Datatype::Basic(_) | Datatype::Contiguous { .. } => {
                out.extend_from_slice(&src[..count * extent]);
            }
            Datatype::Vector {
                count: vcount,
                blocklen,
                stride,
                elem,
            } => {
                let es = elem.size();
                for e in 0..count {
                    let base = e * extent;
                    for b in 0..*vcount {
                        let start = base + b * stride * es;
                        out.extend_from_slice(&src[start..start + blocklen * es]);
                    }
                }
            }
            Datatype::Struct { fields, extent } => {
                for e in 0..count {
                    let base = e * extent;
                    for f in fields {
                        let start = base + f.offset;
                        let len = f.blocklen * f.ty.size();
                        out.extend_from_slice(&src[start..start + len]);
                    }
                }
            }
        }
    }

    /// Scatter (unpack) packed bytes into `count` elements at `dst` (raw
    /// memory image, at least `count * extent` bytes).
    pub fn scatter(&self, packed: &[u8], count: usize, dst: &mut [u8]) {
        let extent = self.extent();
        assert!(
            dst.len() >= count * extent,
            "scatter destination too small: {} < {}",
            dst.len(),
            count * extent
        );
        assert!(
            packed.len() >= count * self.packed_size(),
            "scatter source too small: {} < {}",
            packed.len(),
            count * self.packed_size()
        );
        let mut pos = 0usize;
        match self {
            Datatype::Basic(_) | Datatype::Contiguous { .. } => {
                dst[..count * extent].copy_from_slice(&packed[..count * extent]);
            }
            Datatype::Vector {
                count: vcount,
                blocklen,
                stride,
                elem,
            } => {
                let es = elem.size();
                for e in 0..count {
                    let base = e * extent;
                    for b in 0..*vcount {
                        let start = base + b * stride * es;
                        let len = blocklen * es;
                        dst[start..start + len].copy_from_slice(&packed[pos..pos + len]);
                        pos += len;
                    }
                }
            }
            Datatype::Struct { fields, extent } => {
                for e in 0..count {
                    let base = e * extent;
                    for f in fields {
                        let start = base + f.offset;
                        let len = f.blocklen * f.ty.size();
                        dst[start..start + len].copy_from_slice(&packed[pos..pos + len]);
                        pos += len;
                    }
                }
            }
        }
    }

    /// A stable hash identifying this layout, used as the cache key for
    /// commit-once-per-scope reuse.
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
            Datatype::Contiguous { count, elem } => vec![format!(
                "MPI_Type_contiguous({count}, {}, &{var});",
                elem.mpi_name()
            )],
            Datatype::Vector {
                count,
                blocklen,
                stride,
                elem,
            } => vec![format!(
                "MPI_Type_vector({count}, {blocklen}, {stride}, {}, &{var});",
                elem.mpi_name()
            )],
            Datatype::Struct { fields, .. } => {
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

    #[test]
    fn sizes() {
        assert_eq!(Datatype::Basic(BasicType::F64).packed_size(), 8);
        let c = Datatype::Contiguous {
            count: 5,
            elem: BasicType::I32,
        };
        assert_eq!(c.packed_size(), 20);
        assert_eq!(c.extent(), 20);
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
        let a = Datatype::Contiguous {
            count: 3,
            elem: BasicType::F64,
        };
        let b = Datatype::Contiguous {
            count: 3,
            elem: BasicType::F64,
        };
        let c = Datatype::Contiguous {
            count: 4,
            elem: BasicType::F64,
        };
        assert_eq!(a.layout_key(), b.layout_key());
        assert_ne!(a.layout_key(), c.layout_key());
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
