//! Buffer descriptors for the `sbuf`/`rbuf` clauses.
//!
//! A directive buffer is a slice of primitive elements or of *described
//! composite* values (the paper's composite types: scalar structs like the
//! WL-LSMS single-atom data). The buffer carries everything the translator
//! needs: element kind (→ automatic data-type handling), length (→ count
//! inference from "the size of the smallest array"), and the address range
//! (→ buffer-independence analysis for synchronization consolidation).
//!
//! A view holds its name and one [`BufDesc`], built with the view; its
//! [`BufMeta`], lowering, gather and scatter all derive from that one
//! descriptor. Primitive, composite and strided slices are one
//! [`SliceView`]; a struct-of-arrays group is a [`SoaView`].
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
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

use mpisim::dtype::{BasicType, Datatype, DtypeError, FieldKind};
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
        let blocks = fields
            .iter()
            .map(|f| (&*f.name, f.offset, f.blocklen, f.ty));
        let datatype = struct_datatype(blocks, std::mem::size_of::<T>())
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

/// The MPI struct datatype of `(name, offset, blocklen, type)` field
/// blocks over `extent` bytes, validated.
fn struct_datatype<'f>(
    blocks: impl Iterator<Item = (&'f str, usize, usize, BasicType)>,
    extent: usize,
) -> Result<Datatype, DtypeError> {
    let descr: Vec<_> = blocks
        .map(|(name, offset, blocklen, ty)| (name, offset, blocklen, FieldKind::Basic(ty)))
        .collect();
    Datatype::try_struct(&descr, extent)
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
#[derive(Clone, Debug)]
pub struct SoaLayout {
    name: String,
    fields: Vec<SoaField>,
    /// The packed-equivalent struct datatype, built on first use.
    datatype: OnceLock<Datatype>,
}

impl SoaLayout {
    /// A layout of `fields`, in declaration order.
    pub fn new(name: &str, fields: Vec<SoaField>) -> SoaLayout {
        SoaLayout {
            name: name.to_string(),
            fields,
            datatype: OnceLock::new(),
        }
    }

    /// Group name (diagnostics, codegen).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parallel arrays, in declaration order.
    pub fn fields(&self) -> &[SoaField] {
        &self.fields
    }

    /// Bytes of payload one record contributes (sum over arrays).
    pub fn packed_size(&self) -> usize {
        self.fields.iter().map(|f| f.blocklen * f.ty.size()).sum()
    }

    /// The packed-equivalent MPI struct datatype (sequential offsets): the
    /// layout key for commit caching, and what an absolute-addressed
    /// `MPI_Type_create_struct` over the arrays commits to. Built once,
    /// on first use.
    pub fn datatype(&self) -> &Datatype {
        self.datatype.get_or_init(|| {
            let mut off = 0;
            let blocks = self.fields.iter().map(|f| {
                let at = off;
                off += f.blocklen * f.ty.size();
                (&*f.name, at, f.blocklen, f.ty)
            });
            struct_datatype(blocks, self.packed_size()).expect("sequential blocks fit their sum")
        })
    }
}

// The datatype derives from the fields, whether built yet or not.
impl PartialEq for SoaLayout {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.fields == other.fields
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
    Soa(Arc<SoaLayout>),
}

impl ElemKind {
    /// Payload bytes per element: the sum of its blocks.
    pub fn packed_size(&self) -> usize {
        self.blocks().map(|(ty, n)| n * ty.size()).sum()
    }

    /// Memory extent per element. For struct-of-arrays the records live in
    /// disjoint arrays with no shared stride, so the payload size stands in;
    /// exact per-array address ranges come from the buffer's
    /// [`Buf::sub_ranges`].
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
        let (datatype, n) = self.walked(count);
        n * datatype.extent()
    }

    /// The datatype whose walk of `n` elements visits `count` elements of
    /// this kind, as `(datatype, n)`. Strided blocks sit a stride apart,
    /// not a block's extent, so `count` of them walk as one vector.
    fn walked(&self, count: usize) -> (Cow<'_, Datatype>, usize) {
        match *self {
            ElemKind::Strided {
                ty,
                blocklen,
                stride,
            } => {
                let vector = Datatype::Vector {
                    count,
                    blocklen,
                    stride,
                    elem: ty,
                };
                (Cow::Owned(vector), 1)
            }
            ref elem => (elem.datatype(), count),
        }
    }

    /// Number of independently-contiguous blocks one transfer decomposes
    /// into per element: the message/put fan-out of a non-packing lowering
    /// (1 for primitives and strided views — an `iput` ships all blocks in
    /// one call — the field count for composites and struct-of-arrays).
    pub fn field_count(&self) -> usize {
        self.blocks().count().max(1)
    }

    /// The MPI datatype equivalent (basic, struct or vector; the vector
    /// type is per-element: one block). Composite and struct-of-arrays
    /// layouts lend the struct type they built once; no kind allocates.
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
            ElemKind::Soa(l) => Cow::Borrowed(l.datatype()),
        }
    }

    /// One element's `(type, blocklen)` blocks in wire order.
    fn blocks(&self) -> impl Iterator<Item = (BasicType, usize)> + '_ {
        let (block, fields, arrays): (_, &[FieldDef], &[SoaField]) = match self {
            ElemKind::Prim(t) => (Some((*t, 1)), &[], &[]),
            ElemKind::Strided { ty, blocklen, .. } => (Some((*ty, *blocklen)), &[], &[]),
            ElemKind::Composite(l) => (None, l.fields(), &[]),
            ElemKind::Soa(l) => (None, &[], l.fields()),
        };
        let fields = fields.iter().map(|f| (f.ty, f.blocklen));
        let arrays = arrays.iter().map(|f| (f.ty, f.blocklen));
        block.into_iter().chain(fields).chain(arrays)
    }

    /// Whether two buffers can be paired in one transfer (identical wire
    /// representation): the same positional `(type, blocklen)` blocks, so
    /// names, offsets and strides are irrelevant. A strided view pairs with
    /// a contiguous slice (how a column scatters into a halo buffer); a
    /// composite or a struct-of-arrays only with its own kind.
    pub fn compatible(&self, other: &ElemKind) -> bool {
        let family = |k: &ElemKind| match k {
            ElemKind::Prim(_) | ElemKind::Strided { .. } => 0,
            ElemKind::Composite(_) => 1,
            ElemKind::Soa(_) => 2,
        };
        family(self) == family(other) && self.blocks().eq(other.blocks())
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

/// Name-free buffer descriptor: everything `comm_p2p` needs per instance
/// (every rank evaluates every directive of every loop iteration). A view
/// builds it once, with the view, and lends it; diagnostics and IR
/// recording fetch the named [`BufMeta`] on their cold paths.
#[derive(Clone, Debug, PartialEq)]
pub struct BufDesc {
    /// Element kind.
    pub elem: ElemKind,
    /// Element count.
    pub len: usize,
    /// Address range `[lo, hi)` in bytes.
    pub addr: (usize, usize),
}

/// A named buffer: its descriptor, built with it, and its metadata.
pub trait Buf {
    /// Display name.
    fn name(&self) -> &str;
    /// Hot-path descriptor.
    fn desc(&self) -> &BufDesc;
    /// Buffer metadata: the name plus the descriptor.
    fn meta(&self) -> BufMeta {
        let desc = self.desc();
        BufMeta {
            name: self.name().to_string(),
            elem: desc.elem.clone(),
            len: desc.len,
            addr: desc.addr,
        }
    }
    /// Exact per-array address ranges for views spanning multiple disjoint
    /// allocations (struct-of-arrays). `None` means the single `addr` range
    /// in the descriptor is exact. Dependence analyses must prefer these:
    /// the convex hull of unrelated heap arrays can cover other buffers,
    /// and whether it does depends on the allocator, not the program.
    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        None
    }
}

/// A send-side buffer: read access.
pub trait SendBuf: Buf {
    /// Append `count` elements' packed bytes to `out`.
    fn gather(&self, count: usize, out: &mut Vec<u8>);
    /// The form a `comm_p2p` builder stores this buffer in. The default
    /// boxes it; a single-slice view stays off the heap.
    fn into_send_slot<'d>(self) -> SendSlot<'d>
    where
        Self: Sized + 'd,
    {
        Slot::Boxed(Box::new(self))
    }
}

/// A receive-side buffer: write access.
pub trait RecvBuf: Buf {
    /// Fill `count` elements from packed bytes.
    fn scatter(&mut self, count: usize, packed: &[u8]);
    /// The form a `comm_p2p` builder stores this buffer in (see
    /// [`SendBuf::into_send_slot`]).
    fn into_recv_slot<'d>(self) -> RecvSlot<'d>
    where
        Self: Sized + 'd,
    {
        Slot::Boxed(Box::new(self))
    }
}

/// A buffer as a `comm_p2p` builder holds it. Every rank builds every
/// directive instance, participant or not, so a single-slice view (a
/// primitive, composite or strided slice) is kept inline; any other buffer
/// (a struct-of-arrays view) is boxed.
pub enum Slot<V, B: ?Sized> {
    /// A single-slice view.
    View(V),
    /// Any other buffer.
    Boxed(Box<B>),
}

/// A send buffer as a `comm_p2p` builder holds it.
pub type SendSlot<'d> = Slot<SendView<'d>, dyn SendBuf + 'd>;

/// A receive buffer as a `comm_p2p` builder holds it.
pub type RecvSlot<'d> = Slot<RecvView<'d>, dyn RecvBuf + 'd>;

// A slot lends the buffer it holds, so the engine reads and fills either
// kind through the one trait.
impl<'d> Deref for SendSlot<'d> {
    type Target = dyn SendBuf + 'd;

    fn deref(&self) -> &Self::Target {
        match self {
            Slot::View(v) => v,
            Slot::Boxed(b) => &**b,
        }
    }
}

impl<'d> Deref for RecvSlot<'d> {
    type Target = dyn RecvBuf + 'd;

    fn deref(&self) -> &Self::Target {
        match self {
            Slot::View(v) => v,
            Slot::Boxed(b) => &**b,
        }
    }
}

impl DerefMut for RecvSlot<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            Slot::View(v) => v,
            Slot::Boxed(b) => &mut **b,
        }
    }
}

/// The address range of `bytes`.
fn addr_of<T>(bytes: &[T]) -> (usize, usize) {
    let lo = bytes.as_ptr() as usize;
    (lo, lo + std::mem::size_of_val(bytes))
}

/// The memory of `data`, padding included, as bytes that may be
/// uninitialized.
fn raw<T: Copy>(data: &[T]) -> &[MaybeUninit<u8>] {
    // SAFETY: every byte, initialized or not, is a valid `MaybeUninit<u8>`,
    // and the result covers exactly the memory `data` borrows.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast(), std::mem::size_of_val(data)) }
}

/// [`raw`] for writing.
///
/// # Safety
///
/// The caller writes through the result only initialized bytes that keep
/// every `T` valid.
unsafe fn raw_mut<T: Copy>(data: &mut [T]) -> &mut [MaybeUninit<u8>] {
    // SAFETY: as in `raw`; the caller keeps every `T` valid.
    unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr().cast(), std::mem::size_of_val(data)) }
}

/// A named buffer over one slice: its descriptor and the elements' memory,
/// padding included, as `&[MaybeUninit<u8>]` to send ([`SendView`]) or its
/// `&mut` form to receive ([`RecvView`]). Primitive, composite and strided
/// slices differ only in the element kind; [`Prim`], [`Struc`],
/// [`PrimStrided`] and their `Mut` forms build one. Gather and scatter walk
/// the kind's datatype, whose blocks only those constructors decide: each
/// is initialized and accepts every byte pattern, and padding is untouched.
pub struct SliceView<'a, R> {
    name: &'a str,
    desc: BufDesc,
    raw: R,
}

/// A single-slice send buffer.
pub type SendView<'a> = SliceView<'a, &'a [MaybeUninit<u8>]>;

/// A single-slice receive buffer.
pub type RecvView<'a> = SliceView<'a, &'a mut [MaybeUninit<u8>]>;

impl<'a, R: Deref<Target = [MaybeUninit<u8>]>> SliceView<'a, R> {
    fn with(name: &'a str, elem: ElemKind, len: usize, raw: R) -> Self {
        let addr = addr_of(&raw);
        SliceView {
            name,
            desc: BufDesc { elem, len, addr },
            raw,
        }
    }

    /// A strided view of `v` values of `T`: the `(v - blocklen) / stride + 1`
    /// blocks that start and end inside it, or none when `v < blocklen`.
    fn strided<T: PrimElem>(name: &'a str, raw: R, blocklen: usize, stride: usize) -> Self {
        assert!(blocklen >= 1 && stride >= blocklen, "invalid stride layout");
        let len = (raw.len() / size_of::<T>() + stride - blocklen) / stride;
        let elem = ElemKind::Strided {
            ty: T::BASIC,
            blocklen,
            stride,
        };
        SliceView::with(name, elem, len, raw)
    }
}

impl<R> Buf for SliceView<'_, R> {
    fn name(&self) -> &str {
        self.name
    }

    fn desc(&self) -> &BufDesc {
        &self.desc
    }
}

impl SendBuf for SendView<'_> {
    fn gather(&self, count: usize, out: &mut Vec<u8>) {
        let (datatype, n) = self.desc.elem.walked(count);
        // SAFETY: a view's walked blocks are initialized (see `SliceView`).
        unsafe { datatype.gather_uninit(self.raw, n, out) }
    }

    fn into_send_slot<'d>(self) -> SendSlot<'d>
    where
        Self: 'd,
    {
        Slot::View(self)
    }
}

impl RecvBuf for RecvView<'_> {
    fn scatter(&mut self, count: usize, packed: &[u8]) {
        let (datatype, n) = self.desc.elem.walked(count);
        datatype.scatter_uninit(packed, n, self.raw);
    }

    fn into_recv_slot<'d>(self) -> RecvSlot<'d>
    where
        Self: 'd,
    {
        Slot::View(self)
    }
}

/// Builds primitive send views ([`Prim::new`]).
pub enum Prim {}

impl Prim {
    /// Wrap a primitive slice with a display name.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'a, T: PrimElem>(name: &'a str, data: &'a [T]) -> SendView<'a> {
        SliceView::with(name, ElemKind::Prim(T::BASIC), data.len(), raw(data))
    }
}

/// Builds primitive receive views ([`PrimMut::new`]).
pub enum PrimMut {}

impl PrimMut {
    /// Wrap a mutable primitive slice with a display name.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'a, T: PrimElem>(name: &'a str, data: &'a mut [T]) -> RecvView<'a> {
        let len = data.len();
        // SAFETY: a scatter writes initialized bytes, and a primitive
        // accepts every byte pattern.
        SliceView::with(name, ElemKind::Prim(T::BASIC), len, unsafe {
            raw_mut(data)
        })
    }
}

/// Builds described-composite send views ([`Struc::new`]).
pub enum Struc {}

impl Struc {
    /// Wrap a described-composite slice with a display name.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'a, T: Described>(name: &'a str, data: &'a [T]) -> SendView<'a> {
        SliceView::with(
            name,
            ElemKind::Composite(T::layout()),
            data.len(),
            raw(data),
        )
    }
}

/// Builds described-composite receive views ([`StrucMut::new`]).
pub enum StrucMut {}

impl StrucMut {
    /// Wrap a mutable described-composite slice with a display name.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'a, T: Described>(name: &'a str, data: &'a mut [T]) -> RecvView<'a> {
        let len = data.len();
        // SAFETY: a scatter writes initialized bytes only into the
        // described fields, whose primitive types accept every byte pattern.
        SliceView::with(name, ElemKind::Composite(T::layout()), len, unsafe {
            raw_mut(data)
        })
    }
}

/// Builds strided send views ([`PrimStrided::new`]): blocks of `blocklen`
/// values whose starts are `stride` values apart. One ships a matrix
/// row/column without copying it contiguous first (the directive's
/// automatic `MPI_Type_vector` handling).
pub enum PrimStrided {}

impl PrimStrided {
    /// Wrap a strided view. `data` must cover every addressed block;
    /// `stride >= blocklen >= 1`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'a, T: PrimElem>(
        name: &'a str,
        data: &'a [T],
        blocklen: usize,
        stride: usize,
    ) -> SendView<'a> {
        SliceView::strided::<T>(name, raw(data), blocklen, stride)
    }
}

/// Builds strided receive views ([`PrimStridedMut::new`]).
pub enum PrimStridedMut {}

impl PrimStridedMut {
    /// Wrap a mutable strided view.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'a, T: PrimElem>(
        name: &'a str,
        data: &'a mut [T],
        blocklen: usize,
        stride: usize,
    ) -> RecvView<'a> {
        // SAFETY: as in `PrimMut::new`.
        SliceView::strided::<T>(name, unsafe { raw_mut(data) }, blocklen, stride)
    }
}

/// A named struct-of-arrays view over parallel arrays held as byte slices
/// `B` (`&[u8]` to send, `&mut [u8]` to receive): one logical record is
/// `blocklen` values in each declared array (the wl-lsms core-state shape).
/// Build with the chainable `field`/`field_blocks`, each of which extends
/// the view's one descriptor and shared layout; the record count is the
/// smallest per-array record count, so a set of empty slices is a valid
/// zero-length placeholder on non-participating ranks.
pub struct SoaView<'a, B> {
    name: &'a str,
    desc: BufDesc,
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
            desc: BufDesc {
                elem: ElemKind::Soa(Arc::new(SoaLayout::new(name, Vec::new()))),
                len: 0,
                addr: (0, 0),
            },
            bytes: Vec::new(),
            ranges: Vec::new(),
        }
    }

    fn push(mut self, name: &str, ty: BasicType, blocklen: usize, bytes: B) -> Self {
        assert!(blocklen >= 1, "soa blocklen must be at least 1");
        let ElemKind::Soa(layout) = &mut self.desc.elem else {
            unreachable!("a struct-of-arrays view has a struct-of-arrays layout")
        };
        let layout = Arc::make_mut(layout);
        layout.datatype = OnceLock::new();
        layout.fields.push(SoaField {
            name: name.to_string(),
            ty,
            blocklen,
        });
        let records = bytes.len() / (blocklen * ty.size());
        let (lo, hi) = addr_of(&bytes);
        let d = &mut self.desc;
        (d.len, d.addr) = if self.bytes.is_empty() {
            (records, (lo, hi))
        } else {
            (d.len.min(records), (d.addr.0.min(lo), d.addr.1.max(hi)))
        };
        self.ranges.push((lo, hi));
        self.bytes.push(bytes);
        self
    }
}

impl<B> Buf for SoaView<'_, B> {
    fn name(&self) -> &str {
        self.name
    }

    fn desc(&self) -> &BufDesc {
        &self.desc
    }

    fn sub_ranges(&self) -> Option<&[(usize, usize)]> {
        Some(&self.ranges)
    }
}

impl SendBuf for Soa<'_> {
    // Field-major wire format: all records of the first array, then all of
    // the second — each array contributes one contiguous copy-free block.
    fn gather(&self, count: usize, out: &mut Vec<u8>) {
        assert!(count <= self.desc.len, "gather count exceeds record count");
        for ((ty, blocklen), b) in self.desc.elem.blocks().zip(&self.bytes) {
            Datatype::Basic(ty).gather(b, count * blocklen, out);
        }
    }
}

impl RecvBuf for SoaMut<'_> {
    fn scatter(&mut self, count: usize, packed: &[u8]) {
        assert!(count <= self.desc.len, "scatter count exceeds record count");
        let mut pos = 0usize;
        for ((ty, blocklen), b) in self.desc.elem.blocks().zip(&mut self.bytes) {
            Datatype::Basic(ty).scatter(&packed[pos..], count * blocklen, b);
            pos += count * blocklen * ty.size();
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
        let (want, desc) = (sb.meta(), sb.desc().clone());
        let slot = sb.into_send_slot();
        assert!(
            matches!(slot, Slot::View(_)),
            "a composite slice stays inline"
        );
        assert_eq!(slot.meta(), want);
        assert_eq!(slot.desc(), &desc);
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
        let subs = sb.sub_ranges().unwrap();
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
