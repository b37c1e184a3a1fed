//! Buffer descriptors for the `sbuf`/`rbuf` clauses.
//!
//! A directive buffer is a slice of primitive elements or of *described
//! composite* values (the paper's composite types: scalar structs like the
//! WL-LSMS single-atom data). The buffer carries everything the translator
//! needs: element kind (→ automatic data-type handling), length (→ count
//! inference from "the size of the smallest array"), and the address range
//! (→ buffer-independence analysis for synchronization consolidation).
//!
//! Every gather and scatter here is a walk of an `mpisim` [`Datatype`]:
//! basic for primitive slices and struct-of-arrays members, vector for
//! strided views, and a composite's own struct type, built once with its
//! layout. A composite's memory is read through `MaybeUninit<u8>` and only
//! its field blocks are touched, so padding bytes are never read — the
//! same discipline the generated MPI-struct code follows. Pointers inside
//! composites are unrepresentable (the [`FieldSpec`] trait has no pointer
//! impl), turning the paper's runtime prohibition into a compile-time
//! guarantee; nested composites are likewise rejected because only
//! primitive field specs exist.

use std::borrow::Cow;
use std::mem::MaybeUninit;
use std::ops::Deref;
use std::sync::Arc;

use mpisim::dtype::{BasicType, Datatype, FieldKind};
use mpisim::pod::{as_bytes, as_bytes_mut, Pod};

/// A primitive element type admissible in buffers.
pub trait PrimElem: Pod {
    /// The corresponding MPI basic type.
    const BASIC: BasicType;
}

impl PrimElem for u8 {
    const BASIC: BasicType = BasicType::U8;
}
impl PrimElem for i32 {
    const BASIC: BasicType = BasicType::I32;
}
impl PrimElem for i64 {
    const BASIC: BasicType = BasicType::I64;
}
impl PrimElem for f32 {
    const BASIC: BasicType = BasicType::F32;
}
impl PrimElem for f64 {
    const BASIC: BasicType = BasicType::F64;
}

/// Field shape inside a composite: `(basic type, block length)`.
/// Implemented for primitives and fixed-size arrays of primitives only —
/// pointers and nested composites cannot occur, by construction.
pub trait FieldSpec {
    /// The element type of the block.
    const TY: BasicType;
    /// Number of consecutive elements.
    const BLOCKLEN: usize;
}

impl<P: PrimElem> FieldSpec for P {
    const TY: BasicType = P::BASIC;
    const BLOCKLEN: usize = 1;
}

impl<P: PrimElem, const N: usize> FieldSpec for [P; N] {
    const TY: BasicType = P::BASIC;
    const BLOCKLEN: usize = N;
}

/// One field of a composite layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name (diagnostics, codegen).
    pub name: String,
    /// Byte offset within the composite.
    pub offset: usize,
    /// Element type of the block.
    pub ty: BasicType,
    /// Number of consecutive elements.
    pub blocklen: usize,
}

/// The declared layout of a composite element type, with the MPI struct
/// datatype built and validated from it once, at construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompositeLayout {
    name: String,
    fields: Vec<FieldDef>,
    datatype: Datatype,
}

/// One member of a one-level-nested composite declaration: either a plain
/// primitive block or an embedded composite whose (already flat) layout is
/// spliced in at a byte offset. Because [`CompositeLayout`] itself holds
/// only primitive [`FieldDef`]s, nesting deeper than one level is
/// unrepresentable — the paper's recursive-nesting prohibition, relaxed by
/// exactly one level.
#[derive(Clone, Debug)]
pub enum NestedField {
    /// A primitive field block.
    Prim(FieldDef),
    /// An embedded composite: `layout` placed at byte `offset`, its fields
    /// flattened into the parent as `name.field`.
    Nested {
        /// Member name in the outer struct.
        name: String,
        /// Byte offset of the embedded value within the outer struct.
        offset: usize,
        /// The inner composite's layout.
        layout: Arc<CompositeLayout>,
    },
}

impl CompositeLayout {
    /// Build and validate a layout for `T`, and its struct datatype. Panics
    /// on layout violations (overlaps, blocks past the extent) — these are
    /// programming errors in the type description, equivalent to compiler
    /// bugs in the paper's setting.
    pub fn new<T>(name: &str, fields: Vec<FieldDef>) -> CompositeLayout {
        let descr: Vec<(&str, usize, usize, FieldKind)> = fields
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.offset,
                    f.blocklen,
                    FieldKind::Basic(f.ty),
                )
            })
            .collect();
        let datatype = Datatype::try_struct(&descr, std::mem::size_of::<T>())
            .unwrap_or_else(|e| panic!("invalid composite layout for {name}: {e}"));
        CompositeLayout {
            name: name.to_string(),
            fields,
            datatype,
        }
    }

    /// Build a layout for `T` from members that may embed one level of
    /// composite: each [`NestedField::Nested`] member is flattened into the
    /// parent (inner offsets shifted by the member offset, names qualified
    /// as `member.field`), then validated like [`CompositeLayout::new`].
    /// The result is an ordinary flat layout — every analysis, datatype
    /// conversion and wire format downstream is unchanged.
    pub fn nested<T>(name: &str, members: Vec<NestedField>) -> CompositeLayout {
        let mut fields = Vec::new();
        for m in members {
            match m {
                NestedField::Prim(f) => fields.push(f),
                NestedField::Nested {
                    name: member,
                    offset,
                    layout,
                } => {
                    for f in &layout.fields {
                        fields.push(FieldDef {
                            name: format!("{member}.{}", f.name),
                            offset: offset + f.offset,
                            ty: f.ty,
                            blocklen: f.blocklen,
                        });
                    }
                }
            }
        }
        CompositeLayout::new::<T>(name, fields)
    }

    /// Type name (diagnostics, codegen).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Field blocks, in declaration order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Memory extent of one element (`size_of::<T>()`).
    pub fn extent(&self) -> usize {
        self.datatype.extent()
    }

    /// Bytes of payload one element contributes (sum of field blocks).
    pub fn packed_size(&self) -> usize {
        self.datatype.packed_size()
    }

    /// The equivalent MPI struct datatype, built when the layout was.
    pub fn datatype(&self) -> &Datatype {
        &self.datatype
    }
}

/// A composite type whose layout is declared for communication.
///
/// The layout is a property of the type, so it is built and validated once
/// and shared: [`comm_datatype!`](crate::comm_datatype) keeps it in a
/// `OnceLock`, and every buffer, descriptor and gather of the type reads
/// that one copy (MPI's commit-once, reuse model for derived datatypes).
///
/// # Safety
///
/// The layout must describe only initialized, padding-free field ranges of
/// `Self`, with correct offsets and block lengths. Use the
/// [`comm_datatype!`](crate::comm_datatype) macro, which derives offsets
/// with `std::mem::offset_of!` and is always correct.
pub unsafe trait Described: Copy + Send + Sync + 'static {
    /// The communication layout of this type, shared by every caller.
    fn layout() -> Arc<CompositeLayout>;
}

/// Gather the described fields of `items` into packed bytes (appending to
/// `out`). Padding is never read.
pub fn gather_described<T: Described>(items: &[T], count: usize, out: &mut Vec<u8>) {
    Struc::new("", items).gather(count, out);
}

/// Scatter packed bytes into the described fields of `items`.
pub fn scatter_described<T: Described>(items: &mut [T], count: usize, packed: &[u8]) {
    StrucMut::new("", items).scatter(count, packed);
}

/// One parallel array of a struct-of-arrays group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoaField {
    /// Array name (diagnostics, codegen).
    pub name: String,
    /// Element type of the array.
    pub ty: BasicType,
    /// Values each record contributes to this array.
    pub blocklen: usize,
}

/// Struct-of-arrays layout: one logical record is `blocklen` values in
/// each of several *parallel arrays* (the wl-lsms core-state shape: `ec`,
/// `nc`, `lc`, `kc` indexed by the same core-state number). The wire
/// format is field-major — all records of the first array, then all of the
/// second — so a per-array transfer is a plain split of the packed stream
/// and each array ships as one contiguous block, copy-free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoaLayout {
    /// Group name (diagnostics, codegen).
    pub name: String,
    /// Parallel arrays, in declaration order.
    pub fields: Vec<SoaField>,
}

impl SoaLayout {
    /// Bytes of payload one record contributes (sum over arrays).
    pub fn packed_size(&self) -> usize {
        self.fields.iter().map(|f| f.blocklen * f.ty.size()).sum()
    }

    /// The packed-equivalent MPI struct datatype (sequential offsets): the
    /// layout key for commit caching, and what an absolute-addressed
    /// `MPI_Type_create_struct` over the arrays commits to.
    pub fn to_datatype(&self) -> Datatype {
        let mut off = 0usize;
        let descr: Vec<(&str, usize, usize, FieldKind)> = self
            .fields
            .iter()
            .map(|f| {
                let at = off;
                off += f.blocklen * f.ty.size();
                (f.name.as_str(), at, f.blocklen, FieldKind::Basic(f.ty))
            })
            .collect();
        Datatype::try_struct(&descr, off).expect("sequential blocks fit their sum")
    }
}

/// Element kind of a buffer, as the analyses and lowering see it.
#[derive(Clone, Debug, PartialEq)]
pub enum ElemKind {
    /// A primitive element.
    Prim(BasicType),
    /// A described composite element: the type's shared, once-built layout.
    Composite(Arc<CompositeLayout>),
    /// A strided block of primitives: one "element" is `blocklen`
    /// consecutive values, placed `stride` values apart in memory — the
    /// `MPI_Type_vector` case (e.g. a matrix row in column-major storage).
    Strided {
        /// Underlying primitive type.
        ty: BasicType,
        /// Values per block.
        blocklen: usize,
        /// Values between block starts (≥ blocklen).
        stride: usize,
    },
    /// A struct-of-arrays record spread over parallel arrays.
    Soa(SoaLayout),
}

impl ElemKind {
    /// Payload bytes per element.
    pub fn packed_size(&self) -> usize {
        match self {
            ElemKind::Prim(t) => t.size(),
            ElemKind::Composite(l) => l.packed_size(),
            ElemKind::Strided { ty, blocklen, .. } => blocklen * ty.size(),
            ElemKind::Soa(l) => l.packed_size(),
        }
    }

    /// Memory extent per element. For struct-of-arrays the records live in
    /// disjoint arrays with no shared stride, so the payload size stands in;
    /// exact per-array address ranges come from the buffer's
    /// [`SendBuf::sub_ranges`]/[`RecvBuf::sub_ranges`].
    pub fn extent(&self) -> usize {
        match self {
            ElemKind::Prim(t) => t.size(),
            ElemKind::Composite(l) => l.extent(),
            ElemKind::Strided { ty, stride, .. } => stride * ty.size(),
            ElemKind::Soa(l) => l.packed_size(),
        }
    }

    /// Bytes a transfer of `count` elements spans in *memory* (not on the
    /// wire): the footprint the receiving allocation must cover. For a
    /// strided view the final block does not extend to a full stride.
    pub fn span_bytes(&self, count: usize) -> usize {
        match self {
            ElemKind::Strided {
                ty,
                blocklen,
                stride,
            } => {
                if count == 0 {
                    0
                } else {
                    ((count - 1) * stride + blocklen) * ty.size()
                }
            }
            _ => count * self.extent(),
        }
    }

    /// Number of independently-contiguous blocks one transfer decomposes
    /// into per element: the message/put fan-out of a non-packing lowering
    /// (1 for primitives and strided views — an `iput` ships all blocks in
    /// one call — the field count for composites and struct-of-arrays).
    pub fn field_count(&self) -> usize {
        match self {
            ElemKind::Prim(_) | ElemKind::Strided { .. } => 1,
            ElemKind::Composite(l) => l.fields().len().max(1),
            ElemKind::Soa(l) => l.fields.len().max(1),
        }
    }

    /// The MPI datatype equivalent (basic, struct or vector; the vector
    /// type is per-element: one block). A composite lends the struct type
    /// its layout built once.
    pub fn datatype(&self) -> Cow<'_, Datatype> {
        match self {
            ElemKind::Prim(t) => Cow::Owned(Datatype::Basic(*t)),
            ElemKind::Composite(l) => Cow::Borrowed(l.datatype()),
            ElemKind::Strided {
                ty,
                blocklen,
                stride,
            } => Cow::Owned(Datatype::Vector {
                count: 1,
                blocklen: *blocklen,
                stride: *stride,
                elem: *ty,
            }),
            ElemKind::Soa(l) => Cow::Owned(l.to_datatype()),
        }
    }

    /// Whether two buffers can be paired in one transfer (identical wire
    /// representation). Strided and contiguous layouts are interchangeable
    /// when the block payloads agree — the wire format is packed either
    /// way (this is how a column scatters into a contiguous halo buffer).
    pub fn compatible(&self, other: &ElemKind) -> bool {
        match (self, other) {
            (ElemKind::Prim(a), ElemKind::Prim(b)) => a == b,
            (ElemKind::Composite(a), ElemKind::Composite(b)) => {
                a.packed_size() == b.packed_size()
                    && a.fields.len() == b.fields.len()
                    && a.fields
                        .iter()
                        .zip(&b.fields)
                        .all(|(x, y)| x.ty == y.ty && x.blocklen == y.blocklen)
            }
            (
                ElemKind::Strided {
                    ty: a,
                    blocklen: la,
                    ..
                },
                ElemKind::Strided {
                    ty: b,
                    blocklen: lb,
                    ..
                },
            ) => a == b && la == lb,
            (
                ElemKind::Strided {
                    ty: a, blocklen, ..
                },
                ElemKind::Prim(b),
            )
            | (
                ElemKind::Prim(b),
                ElemKind::Strided {
                    ty: a, blocklen, ..
                },
            ) => a == b && *blocklen == 1,
            // Struct-of-arrays pairs only with the same field sequence: the
            // field-major wire format is positional per array.
            (ElemKind::Soa(a), ElemKind::Soa(b)) => {
                a.fields.len() == b.fields.len()
                    && a.fields
                        .iter()
                        .zip(&b.fields)
                        .all(|(x, y)| x.ty == y.ty && x.blocklen == y.blocklen)
            }
            _ => false,
        }
    }
}

/// Metadata about a buffer, detached from its borrow — what the static
/// analyses operate on.
#[derive(Clone, Debug, PartialEq)]
pub struct BufMeta {
    /// Display name.
    pub name: String,
    /// Element kind.
    pub elem: ElemKind,
    /// Element count.
    pub len: usize,
    /// Address range `[lo, hi)` in bytes, for independence analysis.
    pub addr: (usize, usize),
}

/// Name-free buffer descriptor for the directive execution hot path:
/// everything `comm_p2p` needs per instance. The display name stays out so
/// the common case allocates nothing (the engine evaluates every directive
/// on every rank of every loop iteration); diagnostics and IR recording
/// fetch the full [`BufMeta`] on their cold paths.
#[derive(Clone, Debug, PartialEq)]
pub struct BufDesc {
    /// Element kind.
    pub elem: ElemKind,
    /// Element count.
    pub len: usize,
    /// Address range `[lo, hi)` in bytes.
    pub addr: (usize, usize),
}

impl From<BufMeta> for BufDesc {
    fn from(m: BufMeta) -> Self {
        BufDesc {
            elem: m.elem,
            len: m.len,
            addr: m.addr,
        }
    }
}

/// A send-side buffer: read access plus metadata.
pub trait SendBuf {
    /// Buffer metadata.
    fn meta(&self) -> BufMeta;
    /// Hot-path descriptor; implementations override to skip the name.
    fn desc(&self) -> BufDesc {
        BufDesc::from(self.meta())
    }
    /// Exact per-array address ranges for views spanning multiple disjoint
    /// allocations (struct-of-arrays). `None` means the single `addr` range
    /// in the descriptor is exact. Dependence analyses must prefer these:
    /// the convex hull of unrelated heap arrays can cover other buffers,
    /// and whether it does depends on the allocator, not the program.
    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        None
    }
    /// Append `count` elements' packed bytes to `out`.
    fn gather(&self, count: usize, out: &mut Vec<u8>);
    /// The form a `comm_p2p` builder stores this buffer in. The default
    /// boxes it; primitive and composite buffers stay off the heap.
    fn into_send_slot<'d>(self) -> SendSlot<'d>
    where
        Self: Sized + 'd,
    {
        SendSlot::Boxed(Box::new(self))
    }
}

/// A receive-side buffer: write access plus metadata.
pub trait RecvBuf {
    /// Buffer metadata.
    fn meta(&self) -> BufMeta;
    /// Hot-path descriptor; implementations override to skip the name.
    fn desc(&self) -> BufDesc {
        BufDesc::from(self.meta())
    }
    /// Exact per-array address ranges (see [`SendBuf::sub_ranges`]).
    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        None
    }
    /// Fill `count` elements from packed bytes.
    fn scatter(&mut self, count: usize, packed: &[u8]);
    /// The form a `comm_p2p` builder stores this buffer in (see
    /// [`SendBuf::into_send_slot`]).
    fn into_recv_slot<'d>(self) -> RecvSlot<'d>
    where
        Self: Sized + 'd,
    {
        RecvSlot::Boxed(Box::new(self))
    }
}

/// A send buffer as a `comm_p2p` builder holds it. Every rank builds every
/// directive instance, participant or not, so the common primitive and
/// composite cases are kept inline as byte views instead of a heap box.
pub enum SendSlot<'d> {
    /// A primitive slice.
    Prim(Prim<'d>),
    /// A described-composite slice.
    Composite(Struc<'d>),
    /// Any other buffer.
    Boxed(Box<dyn SendBuf + 'd>),
}

/// A receive buffer as a `comm_p2p` builder holds it (see [`SendSlot`]).
pub enum RecvSlot<'d> {
    /// A primitive slice.
    Prim(PrimMut<'d>),
    /// A described-composite slice.
    Composite(StrucMut<'d>),
    /// Any other buffer.
    Boxed(Box<dyn RecvBuf + 'd>),
}

impl SendBuf for SendSlot<'_> {
    fn meta(&self) -> BufMeta {
        match self {
            SendSlot::Prim(v) => v.meta(),
            SendSlot::Composite(v) => v.meta(),
            SendSlot::Boxed(b) => b.meta(),
        }
    }

    fn desc(&self) -> BufDesc {
        match self {
            SendSlot::Prim(v) => v.desc(),
            SendSlot::Composite(v) => v.desc(),
            SendSlot::Boxed(b) => b.desc(),
        }
    }

    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        match self {
            SendSlot::Prim(_) | SendSlot::Composite(_) => None,
            SendSlot::Boxed(b) => b.sub_ranges(),
        }
    }

    fn gather(&self, count: usize, out: &mut Vec<u8>) {
        match self {
            SendSlot::Prim(v) => v.gather(count, out),
            SendSlot::Composite(v) => v.gather(count, out),
            SendSlot::Boxed(b) => b.gather(count, out),
        }
    }
}

impl RecvBuf for RecvSlot<'_> {
    fn meta(&self) -> BufMeta {
        match self {
            RecvSlot::Prim(v) => v.meta(),
            RecvSlot::Composite(v) => v.meta(),
            RecvSlot::Boxed(b) => b.meta(),
        }
    }

    fn desc(&self) -> BufDesc {
        match self {
            RecvSlot::Prim(v) => v.desc(),
            RecvSlot::Composite(v) => v.desc(),
            RecvSlot::Boxed(b) => b.desc(),
        }
    }

    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        match self {
            RecvSlot::Prim(_) | RecvSlot::Composite(_) => None,
            RecvSlot::Boxed(b) => b.sub_ranges(),
        }
    }

    fn scatter(&mut self, count: usize, packed: &[u8]) {
        match self {
            RecvSlot::Prim(v) => v.scatter(count, packed),
            RecvSlot::Composite(v) => v.scatter(count, packed),
            RecvSlot::Boxed(b) => b.scatter(count, packed),
        }
    }
}

fn with_name(name: &str, desc: BufDesc) -> BufMeta {
    let BufDesc { elem, len, addr } = desc;
    BufMeta {
        name: name.to_string(),
        elem,
        len,
        addr,
    }
}

/// The address range of `bytes`.
fn addr_of<T>(bytes: &[T]) -> (usize, usize) {
    let lo = bytes.as_ptr() as usize;
    (lo, lo + std::mem::size_of_val(bytes))
}

/// A named primitive slice viewed as bytes: `B` is `&[u8]` for a send
/// buffer ([`Prim`]) and `&mut [u8]` for a receive buffer ([`PrimMut`]).
pub struct PrimView<'a, B> {
    name: &'a str,
    ty: BasicType,
    bytes: B,
}

/// A named primitive send buffer.
pub type Prim<'a> = PrimView<'a, &'a [u8]>;

/// A named primitive receive buffer.
pub type PrimMut<'a> = PrimView<'a, &'a mut [u8]>;

impl<'a> Prim<'a> {
    /// Wrap a primitive slice with a display name.
    pub fn new<T: PrimElem>(name: &'a str, data: &'a [T]) -> Self {
        let bytes = as_bytes(data);
        PrimView {
            name,
            ty: T::BASIC,
            bytes,
        }
    }
}

impl<'a> PrimMut<'a> {
    /// Wrap a mutable primitive slice with a display name.
    pub fn new<T: PrimElem>(name: &'a str, data: &'a mut [T]) -> Self {
        let bytes = as_bytes_mut(data);
        PrimView {
            name,
            ty: T::BASIC,
            bytes,
        }
    }
}

impl<B: Deref<Target = [u8]>> PrimView<'_, B> {
    fn describe(&self) -> BufDesc {
        BufDesc {
            elem: ElemKind::Prim(self.ty),
            len: self.bytes.len() / self.ty.size(),
            addr: addr_of(&self.bytes),
        }
    }
}

impl SendBuf for Prim<'_> {
    fn meta(&self) -> BufMeta {
        with_name(self.name, self.describe())
    }

    fn desc(&self) -> BufDesc {
        self.describe()
    }

    fn gather(&self, count: usize, out: &mut Vec<u8>) {
        Datatype::Basic(self.ty).gather(self.bytes, count, out);
    }

    fn into_send_slot<'d>(self) -> SendSlot<'d>
    where
        Self: 'd,
    {
        SendSlot::Prim(self)
    }
}

impl RecvBuf for PrimMut<'_> {
    fn meta(&self) -> BufMeta {
        with_name(self.name, self.describe())
    }

    fn desc(&self) -> BufDesc {
        self.describe()
    }

    fn scatter(&mut self, count: usize, packed: &[u8]) {
        Datatype::Basic(self.ty).scatter(packed, count, self.bytes);
    }

    fn into_recv_slot<'d>(self) -> RecvSlot<'d>
    where
        Self: 'd,
    {
        RecvSlot::Prim(self)
    }
}

/// A named described-composite slice with its element type erased. `raw`
/// is the elements' memory, padding included, as `&[MaybeUninit<u8>]` for
/// a send buffer ([`Struc`]) or its `&mut` form for a receive buffer
/// ([`StrucMut`]); only the blocks of the layout's datatype are read or
/// written. The fields are private and only the two `new`s build one, so
/// `raw` always holds `len` elements of the type `layout` describes.
pub struct CompositeView<'a, R> {
    name: &'a str,
    layout: Arc<CompositeLayout>,
    len: usize,
    raw: R,
}

/// A named composite send buffer.
pub type Struc<'a> = CompositeView<'a, &'a [MaybeUninit<u8>]>;

/// A named composite receive buffer.
pub type StrucMut<'a> = CompositeView<'a, &'a mut [MaybeUninit<u8>]>;

impl<'a> Struc<'a> {
    /// Wrap a described-composite slice with a display name.
    pub fn new<T: Described>(name: &'a str, data: &'a [T]) -> Self {
        // SAFETY: every byte, initialized or not, is a valid
        // `MaybeUninit<u8>`, and the view covers exactly the memory `data`
        // borrows.
        let raw = unsafe {
            std::slice::from_raw_parts(data.as_ptr().cast(), std::mem::size_of_val(data))
        };
        CompositeView {
            name,
            layout: T::layout(),
            len: data.len(),
            raw,
        }
    }
}

impl<'a> StrucMut<'a> {
    /// Wrap a mutable described-composite slice with a display name. Only
    /// `scatter` writes through it, and only initialized bytes into
    /// described fields, whose primitive types accept every byte pattern.
    pub fn new<T: Described>(name: &'a str, data: &'a mut [T]) -> Self {
        let len = data.len();
        // SAFETY: as in `Struc::new`; the writes keep every `T` valid
        // (above).
        let raw = unsafe {
            std::slice::from_raw_parts_mut(data.as_mut_ptr().cast(), std::mem::size_of_val(data))
        };
        CompositeView {
            name,
            layout: T::layout(),
            len,
            raw,
        }
    }
}

impl<R: Deref<Target = [MaybeUninit<u8>]>> CompositeView<'_, R> {
    fn describe(&self) -> BufDesc {
        BufDesc {
            elem: ElemKind::Composite(Arc::clone(&self.layout)),
            len: self.len,
            addr: addr_of(&self.raw),
        }
    }
}

impl SendBuf for Struc<'_> {
    fn meta(&self) -> BufMeta {
        with_name(self.name, self.describe())
    }

    fn desc(&self) -> BufDesc {
        self.describe()
    }

    fn gather(&self, count: usize, out: &mut Vec<u8>) {
        assert!(count <= self.len, "gather count exceeds buffer length");
        // SAFETY: `raw` holds elements of a `Described` type, whose layout
        // contract makes every block of its datatype an initialized field.
        unsafe { self.layout.datatype.gather_uninit(self.raw, count, out) }
    }

    fn into_send_slot<'d>(self) -> SendSlot<'d>
    where
        Self: 'd,
    {
        SendSlot::Composite(self)
    }
}

impl RecvBuf for StrucMut<'_> {
    fn meta(&self) -> BufMeta {
        with_name(self.name, self.describe())
    }

    fn desc(&self) -> BufDesc {
        self.describe()
    }

    fn scatter(&mut self, count: usize, packed: &[u8]) {
        assert!(count <= self.len, "scatter count exceeds buffer length");
        self.layout.datatype.scatter_uninit(packed, count, self.raw);
    }

    fn into_recv_slot<'d>(self) -> RecvSlot<'d>
    where
        Self: 'd,
    {
        RecvSlot::Composite(self)
    }
}

/// A named strided view over bytes `B` (`&[u8]` to send, `&mut [u8]` to
/// receive): blocks of `blocklen` values whose starts are `stride` values
/// apart. It ships a matrix row/column without copying it contiguous first
/// (the directive's automatic `MPI_Type_vector` handling).
pub struct StridedView<'a, B> {
    name: &'a str,
    ty: BasicType,
    blocklen: usize,
    stride: usize,
    bytes: B,
}

/// A strided send view.
pub type PrimStrided<'a> = StridedView<'a, &'a [u8]>;

/// A strided receive view.
pub type PrimStridedMut<'a> = StridedView<'a, &'a mut [u8]>;

impl<'a> PrimStrided<'a> {
    /// Wrap a strided view. `data` must cover every addressed block;
    /// `stride >= blocklen >= 1`.
    pub fn new<T: PrimElem>(name: &'a str, data: &'a [T], blocklen: usize, stride: usize) -> Self {
        StridedView::with(name, T::BASIC, blocklen, stride, as_bytes(data))
    }
}

impl<'a> PrimStridedMut<'a> {
    /// Wrap a mutable strided view.
    pub fn new<T: PrimElem>(
        name: &'a str,
        data: &'a mut [T],
        blocklen: usize,
        stride: usize,
    ) -> Self {
        StridedView::with(name, T::BASIC, blocklen, stride, as_bytes_mut(data))
    }
}

impl<'a, B: Deref<Target = [u8]>> StridedView<'a, B> {
    fn with(name: &'a str, ty: BasicType, blocklen: usize, stride: usize, bytes: B) -> Self {
        assert!(blocklen >= 1 && stride >= blocklen, "invalid stride layout");
        StridedView {
            name,
            ty,
            blocklen,
            stride,
            bytes,
        }
    }

    /// Whole blocks that start and end inside the view.
    fn n_blocks(&self) -> usize {
        let values = self.bytes.len() / self.ty.size();
        if values < self.blocklen {
            0
        } else {
            (values - self.blocklen) / self.stride + 1
        }
    }

    fn describe(&self) -> BufDesc {
        BufDesc {
            elem: ElemKind::Strided {
                ty: self.ty,
                blocklen: self.blocklen,
                stride: self.stride,
            },
            len: self.n_blocks(),
            addr: addr_of(&self.bytes),
        }
    }

    /// The first `count` blocks as one vector datatype, after checking that
    /// the view holds them (`what` names the direction).
    fn vector(&self, count: usize, what: &str) -> Datatype {
        assert!(count <= self.n_blocks(), "{what} count exceeds block count");
        Datatype::Vector {
            count,
            blocklen: self.blocklen,
            stride: self.stride,
            elem: self.ty,
        }
    }
}

impl SendBuf for PrimStrided<'_> {
    fn meta(&self) -> BufMeta {
        with_name(self.name, self.describe())
    }

    fn desc(&self) -> BufDesc {
        self.describe()
    }

    fn gather(&self, count: usize, out: &mut Vec<u8>) {
        self.vector(count, "gather").gather(self.bytes, 1, out);
    }
}

impl RecvBuf for PrimStridedMut<'_> {
    fn meta(&self) -> BufMeta {
        with_name(self.name, self.describe())
    }

    fn desc(&self) -> BufDesc {
        self.describe()
    }

    fn scatter(&mut self, count: usize, packed: &[u8]) {
        let vector = self.vector(count, "scatter");
        vector.scatter(packed, 1, self.bytes);
    }
}

/// A named struct-of-arrays view over parallel arrays held as byte slices
/// `B` (`&[u8]` to send, `&mut [u8]` to receive): one logical record is
/// `blocklen` values in each declared array (the wl-lsms core-state shape).
/// Build with the chainable `field`/`field_blocks`; the record count is
/// the smallest per-array record count, so a set of empty slices is a
/// valid zero-length placeholder on non-participating ranks.
pub struct SoaView<'a, B> {
    name: &'a str,
    fields: Vec<SoaField>,
    bytes: Vec<B>,
    ranges: Vec<(usize, usize)>,
}

/// A struct-of-arrays send view.
pub type Soa<'a> = SoaView<'a, &'a [u8]>;

/// A struct-of-arrays receive view.
pub type SoaMut<'a> = SoaView<'a, &'a mut [u8]>;

impl<'a> Soa<'a> {
    /// Add a parallel array contributing one value per record.
    pub fn field<T: PrimElem>(self, name: &str, data: &'a [T]) -> Self {
        self.field_blocks(name, data, 1)
    }

    /// Add a parallel array contributing `blocklen` values per record.
    pub fn field_blocks<T: PrimElem>(self, name: &str, data: &'a [T], blocklen: usize) -> Self {
        self.push(name, T::BASIC, blocklen, as_bytes(data))
    }
}

impl<'a> SoaMut<'a> {
    /// Add a parallel array receiving one value per record.
    pub fn field<T: PrimElem>(self, name: &str, data: &'a mut [T]) -> Self {
        self.field_blocks(name, data, 1)
    }

    /// Add a parallel array receiving `blocklen` values per record.
    pub fn field_blocks<T: PrimElem>(self, name: &str, data: &'a mut [T], blocklen: usize) -> Self {
        self.push(name, T::BASIC, blocklen, as_bytes_mut(data))
    }
}

impl<'a, B: Deref<Target = [u8]>> SoaView<'a, B> {
    /// Start an empty group with a display name.
    pub fn new(name: &'a str) -> Self {
        SoaView {
            name,
            fields: Vec::new(),
            bytes: Vec::new(),
            ranges: Vec::new(),
        }
    }

    fn push(mut self, name: &str, ty: BasicType, blocklen: usize, bytes: B) -> Self {
        assert!(blocklen >= 1, "soa blocklen must be at least 1");
        self.fields.push(SoaField {
            name: name.to_string(),
            ty,
            blocklen,
        });
        self.ranges.push(addr_of(&bytes));
        self.bytes.push(bytes);
        self
    }

    /// Whole records: the smallest per-array record count.
    fn records(&self) -> usize {
        self.fields
            .iter()
            .zip(&self.bytes)
            .map(|(f, b)| b.len() / (f.blocklen * f.ty.size()))
            .min()
            .unwrap_or(0)
    }

    fn view_meta(&self) -> BufMeta {
        let lo = self.ranges.iter().map(|r| r.0).min().unwrap_or(0);
        let hi = self.ranges.iter().map(|r| r.1).max().unwrap_or(0);
        BufMeta {
            name: self.name.to_string(),
            elem: ElemKind::Soa(SoaLayout {
                name: self.name.to_string(),
                fields: self.fields.clone(),
            }),
            len: self.records(),
            addr: (lo, hi.max(lo)),
        }
    }
}

impl SendBuf for Soa<'_> {
    fn meta(&self) -> BufMeta {
        self.view_meta()
    }

    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        Some(&self.ranges)
    }

    // Field-major wire format: all records of the first array, then all of
    // the second — each array contributes one contiguous copy-free block.
    fn gather(&self, count: usize, out: &mut Vec<u8>) {
        assert!(count <= self.records(), "gather count exceeds record count");
        for (f, b) in self.fields.iter().zip(&self.bytes) {
            Datatype::Basic(f.ty).gather(b, count * f.blocklen, out);
        }
    }
}

impl RecvBuf for SoaMut<'_> {
    fn meta(&self) -> BufMeta {
        self.view_meta()
    }

    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        Some(&self.ranges)
    }

    fn scatter(&mut self, count: usize, packed: &[u8]) {
        assert!(
            count <= self.records(),
            "scatter count exceeds record count"
        );
        let mut pos = 0usize;
        for (f, b) in self.fields.iter().zip(&mut self.bytes) {
            Datatype::Basic(f.ty).scatter(&packed[pos..], count * f.blocklen, b);
            pos += count * f.blocklen * f.ty.size();
        }
    }
}

/// Declare a communication-ready composite struct: emits a `#[repr(C)]`
/// struct plus its [`Described`] layout derived with `offset_of!`.
///
/// Pointer fields and nested composites do not compile — the paper's
/// prohibitions are enforced by the type system ([`FieldSpec`] has impls
/// only for primitives and fixed arrays of primitives).
///
/// ```
/// commint::comm_datatype! {
///     /// Example particle.
///     pub struct Particle {
///         id: i32,
///         position: [f64; 3],
///         charge: f64,
///     }
/// }
/// let layout = <Particle as commint::buffer::Described>::layout();
/// assert_eq!(layout.fields().len(), 3);
/// ```
#[macro_export]
macro_rules! comm_datatype {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[repr(C)]
        #[derive(Clone, Copy, Debug, PartialEq)]
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field : $ty, )*
        }

        unsafe impl $crate::buffer::Described for $name {
            fn layout() -> std::sync::Arc<$crate::buffer::CompositeLayout> {
                static LAYOUT: std::sync::OnceLock<std::sync::Arc<$crate::buffer::CompositeLayout>> =
                    std::sync::OnceLock::new();
                let layout = LAYOUT.get_or_init(|| {
                    std::sync::Arc::new($crate::buffer::CompositeLayout::new::<$name>(
                        stringify!($name),
                        vec![
                            $( $crate::buffer::FieldDef {
                                name: stringify!($field).to_string(),
                                offset: std::mem::offset_of!($name, $field),
                                ty: <$ty as $crate::buffer::FieldSpec>::TY,
                                blocklen: <$ty as $crate::buffer::FieldSpec>::BLOCKLEN,
                            }, )*
                        ],
                    ))
                });
                std::sync::Arc::clone(layout)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::comm_datatype! {
        struct Mixed {
            a: i32,
            b: f64,
            tag3: [u8; 3],
            v: [f64; 2],
        }
    }

    #[test]
    fn macro_layout_offsets_correct() {
        let layout = Mixed::layout();
        assert_eq!(layout.name, "Mixed");
        assert_eq!(layout.extent(), std::mem::size_of::<Mixed>());
        assert_eq!(layout.fields.len(), 4);
        assert_eq!(layout.fields[0].offset, std::mem::offset_of!(Mixed, a));
        assert_eq!(layout.fields[1].offset, std::mem::offset_of!(Mixed, b));
        assert_eq!(layout.fields[2].blocklen, 3);
        assert_eq!(layout.fields[3].ty, BasicType::F64);
        assert_eq!(layout.packed_size(), 4 + 8 + 3 + 16);
    }

    #[test]
    fn described_gather_scatter_roundtrip() {
        let items = [
            Mixed {
                a: 1,
                b: 2.5,
                tag3: [7, 8, 9],
                v: [0.1, 0.2],
            },
            Mixed {
                a: -4,
                b: -1.5,
                tag3: [0, 1, 2],
                v: [9.9, 8.8],
            },
        ];
        let mut packed = Vec::new();
        gather_described(&items, 2, &mut packed);
        assert_eq!(packed.len(), 2 * Mixed::layout().packed_size());

        let mut back = [Mixed {
            a: 0,
            b: 0.0,
            tag3: [0; 3],
            v: [0.0; 2],
        }; 2];
        scatter_described(&mut back, 2, &packed);
        assert_eq!(back, items);
    }

    #[test]
    fn partial_count_gathers_prefix() {
        let items = [
            Mixed {
                a: 1,
                b: 1.0,
                tag3: [1; 3],
                v: [1.0; 2],
            },
            Mixed {
                a: 2,
                b: 2.0,
                tag3: [2; 3],
                v: [2.0; 2],
            },
        ];
        let mut packed = Vec::new();
        gather_described(&items, 1, &mut packed);
        assert_eq!(packed.len(), Mixed::layout().packed_size());
        let mut back = [Mixed {
            a: 0,
            b: 0.0,
            tag3: [0; 3],
            v: [0.0; 2],
        }; 2];
        scatter_described(&mut back, 1, &packed);
        assert_eq!(back[0], items[0]);
        assert_eq!(back[1].a, 0);
    }

    #[test]
    fn composite_slots_match_described_gather_and_scatter() {
        let items = [
            Mixed {
                a: 5,
                b: 0.5,
                tag3: [4, 5, 6],
                v: [1.5, 2.5],
            },
            Mixed {
                a: -6,
                b: -0.5,
                tag3: [7, 8, 9],
                v: [3.5, 4.5],
            },
        ];
        let sb = Struc::new("items", &items);
        let want = sb.meta();
        let slot = sb.into_send_slot();
        assert_eq!(slot.meta(), want);
        assert_eq!(BufDesc::from(want), slot.desc());
        let (mut packed, mut direct) = (Vec::new(), Vec::new());
        slot.gather(2, &mut packed);
        gather_described(&items, 2, &mut direct);
        assert_eq!(packed, direct);

        let mut back = [Mixed {
            a: 0,
            b: 0.0,
            tag3: [0; 3],
            v: [0.0; 2],
        }; 2];
        let mut rslot = StrucMut::new("back", &mut back).into_recv_slot();
        assert_eq!(rslot.desc().elem, ElemKind::Composite(Mixed::layout()));
        assert_eq!(rslot.desc().len, 2);
        rslot.scatter(1, &packed);
        drop(rslot);
        assert_eq!(back[0], items[0]);
        assert_eq!(back[1].a, 0, "only `count` elements are written");
    }

    #[test]
    fn prim_buffers_roundtrip() {
        let src = [1.5f64, 2.5, 3.5, 4.5];
        let sb = Prim::new("src", &src);
        let meta = sb.meta();
        assert_eq!(meta.len, 4);
        assert_eq!(meta.elem, ElemKind::Prim(BasicType::F64));
        assert_eq!(meta.addr.1 - meta.addr.0, 32);

        let mut packed = Vec::new();
        sb.gather(3, &mut packed);
        assert_eq!(packed.len(), 24);

        let mut dst = [0f64; 3];
        let mut rb = PrimMut::new("dst", &mut dst);
        rb.scatter(3, &packed);
        assert_eq!(dst, [1.5, 2.5, 3.5]);
    }

    #[test]
    fn strided_gather_scatter_roundtrip() {
        // A 4x3 column-major matrix; ship row 1 (blocklen 1, stride 4).
        let m: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let row = PrimStrided::new("row1", &m[1..], 1, 4);
        let meta = row.meta();
        assert_eq!(meta.len, 3, "three row elements");
        assert_eq!(meta.elem.packed_size(), 8);
        assert_eq!(meta.elem.extent(), 32);

        let mut packed = Vec::new();
        row.gather(3, &mut packed);
        let vals: Vec<f64> = mpisim::pod::vec_from_bytes(&packed);
        assert_eq!(vals, vec![1.0, 5.0, 9.0]);

        // Scatter into another matrix's row 0.
        let mut dst = vec![0.0f64; 12];
        let mut drow = PrimStridedMut::new("row0", &mut dst, 1, 4);
        drow.scatter(3, &packed);
        assert_eq!(dst[0], 1.0);
        assert_eq!(dst[4], 5.0);
        assert_eq!(dst[8], 9.0);
        assert_eq!(dst[1], 0.0);
    }

    #[test]
    fn strided_blocks_with_blocklen() {
        // blocks of 2 every 5.
        let data: Vec<i32> = (0..12).collect();
        let s = PrimStrided::new("blocks", &data, 2, 5);
        assert_eq!(s.meta().len, 3); // starts at 0, 5, 10
        let mut packed = Vec::new();
        s.gather(3, &mut packed);
        let vals: Vec<i32> = mpisim::pod::vec_from_bytes(&packed);
        assert_eq!(vals, vec![0, 1, 5, 6, 10, 11]);
    }

    #[test]
    fn strided_compatibility_rules() {
        let col = ElemKind::Strided {
            ty: BasicType::F64,
            blocklen: 1,
            stride: 8,
        };
        let other_stride = ElemKind::Strided {
            ty: BasicType::F64,
            blocklen: 1,
            stride: 3,
        };
        let contig = ElemKind::Prim(BasicType::F64);
        // Same block payload, different strides: compatible (wire format
        // is packed either way).
        assert!(col.compatible(&other_stride));
        // blocklen-1 strided <-> contiguous: compatible.
        assert!(col.compatible(&contig));
        assert!(contig.compatible(&col));
        // Wider blocks are not interchangeable with single values.
        let wide = ElemKind::Strided {
            ty: BasicType::F64,
            blocklen: 2,
            stride: 8,
        };
        assert!(!wide.compatible(&contig));
        assert!(!wide.compatible(&col));
    }

    #[test]
    #[should_panic(expected = "invalid stride layout")]
    fn stride_smaller_than_blocklen_rejected() {
        let data = [0f32; 8];
        let _ = PrimStrided::new("bad", &data, 3, 2);
    }

    #[test]
    fn elem_compatibility() {
        let f = ElemKind::Prim(BasicType::F64);
        let i = ElemKind::Prim(BasicType::I32);
        assert!(f.compatible(&f));
        assert!(!f.compatible(&i));
        let comp = ElemKind::Composite(Mixed::layout());
        assert!(comp.compatible(&ElemKind::Composite(Mixed::layout())));
        assert!(!comp.compatible(&f));
    }

    #[test]
    fn soa_gather_scatter_roundtrip_field_major() {
        let ec = [1.5f64, 2.5, 3.5];
        let nc = [10i32, 20, 30];
        let sb = Soa::new("core").field("ec", &ec).field("nc", &nc);
        let meta = sb.meta();
        assert_eq!(meta.len, 3);
        assert_eq!(meta.elem.packed_size(), 12);
        assert_eq!(meta.elem.field_count(), 2);

        let mut packed = Vec::new();
        sb.gather(2, &mut packed);
        assert_eq!(packed.len(), 24);
        // Field-major: both ec records precede both nc records.
        let ec_back: Vec<f64> = mpisim::pod::vec_from_bytes(&packed[..16]);
        let nc_back: Vec<i32> = mpisim::pod::vec_from_bytes(&packed[16..]);
        assert_eq!(ec_back, vec![1.5, 2.5]);
        assert_eq!(nc_back, vec![10, 20]);

        let mut ec2 = [0f64; 3];
        let mut nc2 = [0i32; 3];
        let mut rb = SoaMut::new("core")
            .field("ec", &mut ec2)
            .field("nc", &mut nc2);
        rb.scatter(2, &packed);
        assert_eq!(ec2, [1.5, 2.5, 0.0]);
        assert_eq!(nc2, [10, 20, 0]);
    }

    #[test]
    fn soa_sub_ranges_exact_and_hull_summary() {
        let a = [0f64; 4];
        let b = [0i32; 4];
        let sb = Soa::new("g").field("a", &a).field("b", &b);
        let subs = SendBuf::sub_ranges(&sb).unwrap();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0], (a.as_ptr() as usize, a.as_ptr() as usize + 32));
        assert_eq!(subs[1], (b.as_ptr() as usize, b.as_ptr() as usize + 16));
        let meta = sb.meta();
        assert!(meta.addr.0 <= subs[0].0 && meta.addr.1 >= subs[1].1);
    }

    #[test]
    fn soa_blocklen_and_empty_placeholder() {
        let vr = [1.0f64, 2.0, 3.0, 4.0];
        let sb = Soa::new("pot").field_blocks("vr", &vr, 4);
        assert_eq!(sb.meta().len, 1, "one record of four values");
        assert_eq!(sb.meta().elem.packed_size(), 32);

        let empty: [f64; 0] = [];
        let ph = Soa::new("pot").field_blocks("vr", &empty, 4);
        assert_eq!(ph.meta().len, 0, "placeholder has zero records");
        assert!(ph.meta().elem.compatible(&sb.meta().elem));
    }

    #[test]
    fn soa_compatibility_is_positional() {
        let a = [0f64; 2];
        let b = [0i32; 2];
        let x = Soa::new("x").field("a", &a).field("b", &b).meta().elem;
        let y = Soa::new("y").field("p", &a).field("q", &b).meta().elem;
        let flipped = Soa::new("z").field("b", &b).field("a", &a).meta().elem;
        assert!(x.compatible(&y), "names are irrelevant, layout is not");
        assert!(!x.compatible(&flipped));
        assert!(!x.compatible(&ElemKind::Prim(BasicType::F64)));
    }

    #[test]
    fn nested_layout_flattens_one_level() {
        #[repr(C)]
        #[derive(Clone, Copy)]
        struct Inner {
            x: f64,
            n: [i32; 2],
        }
        #[repr(C)]
        #[derive(Clone, Copy)]
        struct Outer {
            tag: i32,
            inner: Inner,
            w: f64,
        }
        let inner_layout = CompositeLayout::new::<Inner>(
            "Inner",
            vec![
                FieldDef {
                    name: "x".into(),
                    offset: std::mem::offset_of!(Inner, x),
                    ty: BasicType::F64,
                    blocklen: 1,
                },
                FieldDef {
                    name: "n".into(),
                    offset: std::mem::offset_of!(Inner, n),
                    ty: BasicType::I32,
                    blocklen: 2,
                },
            ],
        );
        let outer = CompositeLayout::nested::<Outer>(
            "Outer",
            vec![
                NestedField::Prim(FieldDef {
                    name: "tag".into(),
                    offset: std::mem::offset_of!(Outer, tag),
                    ty: BasicType::I32,
                    blocklen: 1,
                }),
                NestedField::Nested {
                    name: "inner".into(),
                    offset: std::mem::offset_of!(Outer, inner),
                    layout: Arc::new(inner_layout),
                },
                NestedField::Prim(FieldDef {
                    name: "w".into(),
                    offset: std::mem::offset_of!(Outer, w),
                    ty: BasicType::F64,
                    blocklen: 1,
                }),
            ],
        );
        assert_eq!(outer.fields.len(), 4, "inner fields spliced into parent");
        assert_eq!(outer.fields[1].name, "inner.x");
        assert_eq!(
            outer.fields[1].offset,
            std::mem::offset_of!(Outer, inner) + std::mem::offset_of!(Inner, x)
        );
        assert_eq!(outer.fields[2].name, "inner.n");
        assert_eq!(outer.packed_size(), 4 + 8 + 8 + 8);
        // The flattened result is an ordinary valid struct datatype.
        assert_eq!(outer.datatype().packed_size(), outer.packed_size());
        assert_eq!(outer.datatype().extent(), std::mem::size_of::<Outer>());
        let calls = outer.datatype().describe_mpi_calls("outer_t");
        assert!(calls.contains(&"int outer_t_blocklens[4] = {1, 1, 2, 1};".to_string()));
    }

    #[test]
    fn strided_span_bytes_excludes_tail_padding() {
        let col = ElemKind::Strided {
            ty: BasicType::F64,
            blocklen: 2,
            stride: 4,
        };
        // 3 blocks: (3-1)*4 + 2 = 10 doubles of footprint, 6 of payload.
        assert_eq!(col.span_bytes(3), 80);
        assert_eq!(col.packed_size() * 3, 48);
        assert_eq!(col.span_bytes(0), 0);
        assert_eq!(ElemKind::Prim(BasicType::I32).span_bytes(5), 20);
    }

    #[test]
    fn elem_datatype_mapping() {
        assert_eq!(
            *ElemKind::Prim(BasicType::I32).datatype(),
            Datatype::Basic(BasicType::I32)
        );
        let layout = Mixed::layout();
        match ElemKind::Composite(Arc::clone(&layout)).datatype() {
            Cow::Borrowed(dt) => assert!(std::ptr::eq(dt, layout.datatype())),
            Cow::Owned(dt) => panic!("composite datatype rebuilt: {dt:?}"),
        }
        assert_eq!(layout.datatype().extent(), std::mem::size_of::<Mixed>());
    }
}
