//! Static lowering: render the library calls the compiler would generate
//! for a directive region, per target — "the directives can then be
//! translated by the compiler into message passing calls that efficiently
//! implement the intended pattern and be targeted to multiple communication
//! libraries".
//!
//! The output is C-flavoured source text (what an Open64 lowering pass
//! emits), used by the pragma front-end's `--emit` mode, by documentation,
//! and by golden tests that pin the translation's shape: non-blocking
//! operations, automatic datatype construction, and exactly one
//! consolidated synchronization per region at the placed sync point.

use crate::buffer::ElemKind;
use crate::clause::{PlaceSync, Target};
use crate::dir::{P2pSpec, ParamsSpec};
use crate::expr::EvalEnv;
use mpisim::dtype::BasicType;
use netsim::{CostModel, MachineModel};

/// Generated code for one region, split by role so SPMD readers can see
/// which guard each block sits under.
#[derive(Clone, Debug, Default)]
pub struct GeneratedCode {
    /// Declarations and one-time datatype construction.
    pub prologue: Vec<String>,
    /// The per-`comm_p2p` communication calls (with their guards).
    pub body: Vec<String>,
    /// The consolidated synchronization block.
    pub sync: Vec<String>,
}

impl GeneratedCode {
    /// Render as one source listing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for section in [&self.prologue, &self.body, &self.sync] {
            for line in section {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

fn c_type(b: BasicType) -> &'static str {
    match b {
        BasicType::U8 => "char",
        BasicType::I32 => "int",
        BasicType::I64 => "long long",
        BasicType::F32 => "float",
        BasicType::F64 => "double",
    }
}

fn mpi_type_expr(elem: &ElemKind, var_hint: &str) -> String {
    match elem {
        ElemKind::Prim(b) => b.mpi_name().to_string(),
        ElemKind::Composite(layout) => format!("{}_{}_mpitype", var_hint, layout.name()),
        ElemKind::Strided { .. } => format!("{var_hint}_vec_mpitype"),
        // Struct-of-arrays never lowers through a reusable relative
        // datatype (the arrays' base addresses are unrelated); the hint
        // only appears in diagnostics.
        ElemKind::Soa(_) => format!("{var_hint}_soa_mpitype"),
    }
}

fn shmem_put_call(elem: &ElemKind) -> &'static str {
    match elem {
        ElemKind::Prim(b) => shmemsim::TypedPut::for_elem_size(b.size()).call_name(),
        // Strided layouts ship in one strided typed put — the transfer
        // engine walks the stride, no intermediate copy.
        ElemKind::Strided { ty, .. } => shmemsim::TypedPut::for_elem_size(ty.size()).iput_name(),
        ElemKind::Composite(_) | ElemKind::Soa(_) => "shmem_putmem",
    }
}

/// How one buffer of a directive is marshalled for a target — the decision
/// the layout engine makes per directive site, per buffer and per target
/// from the machine's cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lowering {
    /// Contiguous memory: hand the pointer to the library unchanged.
    Direct,
    /// Commit and use a derived datatype; the library's gather engine
    /// walks the layout (MPI vector/struct types).
    Datatype,
    /// `n` zero-copy transfers, one per contiguous constituent of the
    /// layout: per-array direct sends for struct-of-arrays on MPI
    /// two-sided, size-matched typed/strided puts (`shmem_iput*`) on the
    /// one-sided targets.
    Split {
        /// Constituent transfers per directive execution.
        n: usize,
    },
    /// Pack into a contiguous intermediate and unpack on the receiver —
    /// the Listing-4 shape, kept only where the constituent fan-out costs
    /// more than one copy of the payload.
    Pack,
}

impl Lowering {
    /// Short label for benchmarks and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Lowering::Direct => "direct",
            Lowering::Datatype => "ddt",
            Lowering::Split { .. } => "typed-put",
            Lowering::Pack => "pack",
        }
    }
}

/// Pick the cheapest marshalling strategy for `count` elements of `elem`
/// on `target` under `model` (decision table in DESIGN.md §9).
///
/// The inputs are SPMD-uniform — the element descriptor, the directive's
/// count clause and the job-wide model — so every rank of a directive
/// site reaches the same decision without negotiation.
pub fn choose_lowering(
    elem: &ElemKind,
    count: usize,
    target: Target,
    model: &CostModel,
) -> Lowering {
    let bytes = count.saturating_mul(elem.packed_size()) as f64;
    match elem {
        ElemKind::Prim(_) => Lowering::Direct,
        ElemKind::Strided { .. } => match target {
            // One strided typed put ships the whole layout with no
            // intermediate copy and no extra call: nothing beats free.
            Target::Shmem => Lowering::Split { n: 1 },
            Target::Mpi2Side | Target::Mpi1Side => datatype_or_pack(model),
        },
        ElemKind::Composite(_) => match target {
            Target::Mpi2Side | Target::Mpi1Side => datatype_or_pack(model),
            // One strided put per field walks the array-of-structs without
            // a copy; packing touches every byte once on the sender.
            Target::Shmem => {
                split_or_pack(elem.field_count(), model.o_put as f64, 1.0, bytes, model)
            }
        },
        ElemKind::Soa(_) => {
            let n = elem.field_count();
            match target {
                // Each parallel array is contiguous: n direct sends move
                // the payload copy-free at (n-1) extra per-message
                // software overheads, while packing copies every byte on
                // the sender (pack) and again on the receiver (unpack).
                Target::Mpi2Side => split_or_pack(
                    n,
                    (model.o_send + model.o_recv + model.o_req_poll) as f64,
                    2.0,
                    bytes,
                    model,
                ),
                // One-sided receivers drain staging either way; only the
                // sender-side pack copy is at stake.
                Target::Mpi1Side | Target::Shmem => {
                    split_or_pack(n, model.o_put as f64, 1.0, bytes, model)
                }
            }
        }
    }
}

/// Session-level override of the lowering chooser, for A/B benchmarking
/// the layout engine against the fixed strategies it replaces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoweringPolicy {
    /// Cost-model-driven per-site choice (`choose_lowering`) — the layout
    /// engine proper, and the default.
    #[default]
    Auto,
    /// Listing-4 baseline: every buffer is packed into a contiguous
    /// intermediate and unpacked on the receiver, contiguous or not.
    AlwaysPack,
    /// Derived datatypes wherever the target has a datatype engine;
    /// degrades to Pack on SHMEM (which has none).
    AlwaysDatatype,
}

impl LoweringPolicy {
    /// Resolve the marshalling strategy this policy uses for `count`
    /// elements of `elem` on `target` under `model`.
    pub fn resolve(
        self,
        elem: &ElemKind,
        count: usize,
        target: Target,
        model: &CostModel,
    ) -> Lowering {
        match self {
            LoweringPolicy::Auto => choose_lowering(elem, count, target, model),
            LoweringPolicy::AlwaysPack => Lowering::Pack,
            LoweringPolicy::AlwaysDatatype => match (elem, target) {
                (ElemKind::Prim(_), _) => Lowering::Direct,
                (_, Target::Shmem) => Lowering::Pack,
                _ => Lowering::Datatype,
            },
        }
    }
}

fn datatype_or_pack(model: &CostModel) -> Lowering {
    // Both engines touch every payload byte; the cheaper per-byte one wins
    // (the one-time commit amortizes through the per-scope datatype cache).
    if model.datatype_per_byte <= model.pack_per_byte {
        Lowering::Datatype
    } else {
        Lowering::Pack
    }
}

fn split_or_pack(
    n: usize,
    per_msg: f64,
    pack_sides: f64,
    bytes: f64,
    model: &CostModel,
) -> Lowering {
    let split_cost = n.saturating_sub(1) as f64 * per_msg;
    let pack_cost = pack_sides * model.pack_per_byte * bytes;
    // Ties go to the zero-copy side.
    if split_cost <= pack_cost {
        Lowering::Split { n }
    } else {
        Lowering::Pack
    }
}

/// The cost model of `target`'s library.
pub(crate) fn model_for(target: Target, machine: &MachineModel) -> CostModel {
    match target {
        Target::Shmem => machine.shmem,
        Target::Mpi2Side | Target::Mpi1Side => machine.mpi,
    }
}

fn count_expr(p2p: &P2pSpec, outer: &ParamsSpec) -> String {
    let merged = p2p.clauses.merged_with(&outer.clauses);
    match merged.count {
        Some(e) => e.to_string(),
        None => p2p
            .inferred_count()
            .map(|c| c.to_string())
            .unwrap_or_else(|| "/* inferred */".to_string()),
    }
}

/// Best static estimate of the per-execution element count, for the
/// lowering chooser: a constant count clause, else the inferred minimum
/// buffer length.
fn static_count(p2p: &P2pSpec, outer: &ParamsSpec) -> usize {
    let merged = p2p.clauses.merged_with(&outer.clauses);
    if let Some(e) = &merged.count {
        if let Ok(v) = e.eval(&EvalEnv::new(0, 2)) {
            if v >= 0 {
                return v as usize;
            }
        }
    }
    p2p.inferred_count().unwrap_or(1)
}

/// Lower a region to the calls generated for `target`, using the default
/// Gemini machine description for lowering decisions.
pub fn lower(spec: &ParamsSpec, target: Target) -> GeneratedCode {
    lower_with_model(spec, target, &MachineModel::gemini())
}

/// Lower a region to the calls generated for `target`, choosing each
/// buffer's marshalling (pack vs derived datatype vs typed put) per
/// directive site from `machine`'s cost model.
pub fn lower_with_model(
    spec: &ParamsSpec,
    target: Target,
    machine: &MachineModel,
) -> GeneratedCode {
    let model = model_for(target, machine);
    let mut code = GeneratedCode::default();
    let mut req_count = 0usize;
    let mut datatypes_emitted: Vec<String> = Vec::new();
    let mut packs_emitted: Vec<String> = Vec::new();
    let mut deferred_unpacks: Vec<String> = Vec::new();

    let merged_of = |p2p: &P2pSpec| p2p.clauses.merged_with(&spec.clauses);

    // Prologue: derived datatypes (MPI targets) and pack staging buffers,
    // one per distinct buffer, only where the chooser selected them.
    for p2p in &spec.body {
        let scount = static_count(p2p, spec);
        for b in p2p.sbuf.iter().chain(&p2p.rbuf) {
            match choose_lowering(&b.elem, scount, target, &model) {
                Lowering::Datatype => {
                    if let ElemKind::Composite(_) | ElemKind::Strided { .. } = b.elem {
                        let var = mpi_type_expr(&b.elem, &b.name);
                        if !datatypes_emitted.contains(&var) {
                            code.prologue.push(format!("MPI_Datatype {var};"));
                            code.prologue
                                .extend(b.elem.datatype().describe_mpi_calls(&var));
                            datatypes_emitted.push(var);
                        }
                    }
                }
                Lowering::Pack => {
                    let var = format!("{}_pack", b.name);
                    if !packs_emitted.contains(&var) {
                        packs_emitted.push(var.clone());
                        let cap = scount.max(1) * b.elem.packed_size();
                        code.prologue.push(format!(
                            "char {var}[{cap}]; int {var}_pos = 0; /* pack staging: fan-out dearer than one copy */"
                        ));
                    }
                }
                Lowering::Direct | Lowering::Split { .. } => {}
            }
        }
    }

    for (i, p2p) in spec.body.iter().enumerate() {
        let merged = merged_of(p2p);
        let cnt = count_expr(p2p, spec);
        let scount = static_count(p2p, spec);
        let sendwhen = merged
            .sendwhen
            .as_ref()
            .map(|c| c.to_string())
            .unwrap_or_else(|| "1".to_string());
        let recvwhen = merged
            .receivewhen
            .as_ref()
            .map(|c| c.to_string())
            .unwrap_or_else(|| "1".to_string());
        let receiver = merged
            .receiver
            .as_ref()
            .map(|e| e.to_string())
            .unwrap_or_else(|| "/*receiver*/".to_string());
        let sender = merged
            .sender
            .as_ref()
            .map(|e| e.to_string())
            .unwrap_or_else(|| "/*sender*/".to_string());
        let tag = format!("COMM_DIR_TAG+{}", p2p.site);

        // Per-field count expression of a struct-of-arrays member.
        let field_cnt = |blocklen: usize| {
            if blocklen == 1 {
                cnt.clone()
            } else {
                format!("({cnt})*{blocklen}")
            }
        };

        code.body
            .push(format!("/* comm_p2p #{i} (site {}) */", p2p.site));
        match target {
            Target::Mpi2Side => {
                code.body.push(format!("if ({sendwhen}) {{"));
                for b in &p2p.sbuf {
                    let low = choose_lowering(&b.elem, scount, target, &model);
                    match (&b.elem, low) {
                        (ElemKind::Soa(l), Lowering::Split { .. }) => {
                            code.body.push(format!(
                                "  /* soa {}: one direct send per array (zero-copy) */",
                                b.name
                            ));
                            for f in l.fields() {
                                code.body.push(format!(
                                    "  MPI_Isend({fname}, {fc}, {ty}, {receiver}, {tag}, comm, &req[{r}]);",
                                    fname = f.name,
                                    fc = field_cnt(f.blocklen),
                                    ty = f.ty.mpi_name(),
                                    r = req_count
                                ));
                                req_count += 1;
                            }
                        }
                        (ElemKind::Soa(l), _) => {
                            for f in l.fields() {
                                code.body.push(format!(
                                    "  MPI_Pack({fname}, {fc}, {ty}, {buf}_pack, sizeof {buf}_pack, &{buf}_pack_pos, comm);",
                                    fname = f.name,
                                    fc = field_cnt(f.blocklen),
                                    ty = f.ty.mpi_name(),
                                    buf = b.name,
                                ));
                            }
                            code.body.push(format!(
                                "  MPI_Isend({buf}_pack, {buf}_pack_pos, MPI_PACKED, {receiver}, {tag}, comm, &req[{r}]);",
                                buf = b.name,
                                r = req_count
                            ));
                            req_count += 1;
                        }
                        (_, Lowering::Pack) => {
                            code.body.push(format!(
                                "  pack_fields({buf}_pack, &{buf}_pack_pos, {buf}, {cnt}); /* field-wise pack */",
                                buf = b.name,
                            ));
                            code.body.push(format!(
                                "  MPI_Isend({buf}_pack, {buf}_pack_pos, MPI_PACKED, {receiver}, {tag}, comm, &req[{r}]);",
                                buf = b.name,
                                r = req_count
                            ));
                            req_count += 1;
                        }
                        _ => {
                            let ty = mpi_type_expr(&b.elem, &b.name);
                            code.body.push(format!(
                                "  MPI_Isend({buf}, {cnt}, {ty}, {receiver}, {tag}, comm, &req[{r}]);",
                                buf = b.name,
                                r = req_count
                            ));
                            req_count += 1;
                        }
                    }
                }
                code.body.push("}".to_string());
                code.body.push(format!("if ({recvwhen}) {{"));
                for b in &p2p.rbuf {
                    let low = choose_lowering(&b.elem, scount, target, &model);
                    match (&b.elem, low) {
                        (ElemKind::Soa(l), Lowering::Split { .. }) => {
                            for f in l.fields() {
                                code.body.push(format!(
                                    "  MPI_Irecv({fname}, {fc}, {ty}, {sender}, {tag}, comm, &req[{r}]);",
                                    fname = f.name,
                                    fc = field_cnt(f.blocklen),
                                    ty = f.ty.mpi_name(),
                                    r = req_count
                                ));
                                req_count += 1;
                            }
                        }
                        (ElemKind::Soa(l), _) => {
                            let psize = b.elem.packed_size();
                            code.body.push(format!(
                                "  MPI_Irecv({buf}_pack, ({cnt})*{psize}, MPI_PACKED, {sender}, {tag}, comm, &req[{r}]);",
                                buf = b.name,
                                r = req_count
                            ));
                            req_count += 1;
                            let mut cum = 0usize;
                            for f in l.fields() {
                                deferred_unpacks.push(format!(
                                    "memcpy({fname}, {buf}_pack + ({cnt})*{cum}, ({fc})*{es}); /* unpack */",
                                    fname = f.name,
                                    buf = b.name,
                                    fc = field_cnt(f.blocklen),
                                    es = f.ty.size(),
                                ));
                                cum += f.blocklen * f.ty.size();
                            }
                        }
                        (_, Lowering::Pack) => {
                            let psize = b.elem.packed_size();
                            code.body.push(format!(
                                "  MPI_Irecv({buf}_pack, ({cnt})*{psize}, MPI_PACKED, {sender}, {tag}, comm, &req[{r}]);",
                                buf = b.name,
                                r = req_count
                            ));
                            req_count += 1;
                            deferred_unpacks.push(format!(
                                "unpack_fields({buf}, {buf}_pack, {cnt}); /* field-wise unpack */",
                                buf = b.name,
                            ));
                        }
                        _ => {
                            let ty = mpi_type_expr(&b.elem, &b.name);
                            code.body.push(format!(
                                "  MPI_Irecv({buf}, {cnt}, {ty}, {sender}, {tag}, comm, &req[{r}]);",
                                buf = b.name,
                                r = req_count
                            ));
                            req_count += 1;
                        }
                    }
                }
                code.body.push("}".to_string());
            }
            Target::Mpi1Side => {
                code.body.push(format!("if ({sendwhen}) {{"));
                for b in &p2p.sbuf {
                    let low = choose_lowering(&b.elem, scount, target, &model);
                    match (&b.elem, low) {
                        (ElemKind::Soa(l), Lowering::Split { .. }) => {
                            code.body.push(format!(
                                "  /* soa {}: one put per array (zero-copy) */",
                                b.name
                            ));
                            for f in l.fields() {
                                code.body.push(format!(
                                    "  MPI_Put({fname}, {fc}, {ty}, {receiver}, {fname}_disp, {fc}, {ty}, win);",
                                    fname = f.name,
                                    fc = field_cnt(f.blocklen),
                                    ty = f.ty.mpi_name(),
                                ));
                            }
                        }
                        (ElemKind::Soa(l), _) => {
                            for f in l.fields() {
                                code.body.push(format!(
                                    "  MPI_Pack({fname}, {fc}, {ty}, {buf}_pack, sizeof {buf}_pack, &{buf}_pack_pos, comm);",
                                    fname = f.name,
                                    fc = field_cnt(f.blocklen),
                                    ty = f.ty.mpi_name(),
                                    buf = b.name,
                                ));
                            }
                            code.body.push(format!(
                                "  MPI_Put({buf}_pack, {buf}_pack_pos, MPI_BYTE, {receiver}, {buf}_disp, {buf}_pack_pos, MPI_BYTE, win);",
                                buf = b.name,
                            ));
                        }
                        (_, Lowering::Pack) => {
                            code.body.push(format!(
                                "  pack_fields({buf}_pack, &{buf}_pack_pos, {buf}, {cnt}); /* field-wise pack */",
                                buf = b.name,
                            ));
                            code.body.push(format!(
                                "  MPI_Put({buf}_pack, {buf}_pack_pos, MPI_BYTE, {receiver}, {buf}_disp, {buf}_pack_pos, MPI_BYTE, win);",
                                buf = b.name,
                            ));
                        }
                        _ => {
                            let ty = mpi_type_expr(&b.elem, &b.name);
                            code.body.push(format!(
                                "  MPI_Put({buf}, {cnt}, {ty}, {receiver}, {buf}_disp, {cnt}, {ty}, win);",
                                buf = b.name,
                            ));
                        }
                    }
                    req_count += 1;
                }
                code.body.push("}".to_string());
            }
            Target::Shmem => {
                code.body.push(format!("if ({sendwhen}) {{"));
                for b in &p2p.sbuf {
                    let low = choose_lowering(&b.elem, scount, target, &model);
                    match (&b.elem, low) {
                        (
                            ElemKind::Strided {
                                ty,
                                blocklen,
                                stride,
                            },
                            _,
                        ) => {
                            let tp = shmemsim::TypedPut::for_elem_size(ty.size());
                            if *blocklen == 1 {
                                code.body.push(format!(
                                    "  {call}({buf}_sym, {buf}, {stride}, {stride}, {cnt}, {receiver});",
                                    call = tp.iput_name(),
                                    buf = b.name,
                                ));
                            } else {
                                code.body.push(format!(
                                    "  {call}({buf}_sym, {buf}, ({cnt})*{blocklen}, {receiver}); /* {cnt} blocks of {blocklen}, stride {stride} */",
                                    call = tp.call_name(),
                                    buf = b.name,
                                ));
                            }
                        }
                        (ElemKind::Soa(l), Lowering::Split { .. }) => {
                            code.body.push(format!(
                                "  /* soa {}: one typed put per array (zero-copy) */",
                                b.name
                            ));
                            for f in l.fields() {
                                let tp = shmemsim::TypedPut::for_elem_size(f.ty.size());
                                code.body.push(format!(
                                    "  {call}({fname}_sym, {fname}, {fc}, {receiver});",
                                    call = tp.call_name(),
                                    fname = f.name,
                                    fc = field_cnt(f.blocklen),
                                ));
                            }
                        }
                        (ElemKind::Composite(lay), Lowering::Split { .. }) => {
                            code.body.push(format!(
                                "  /* {}: one strided put per field walks the structs in place */",
                                b.name
                            ));
                            for f in lay.fields() {
                                let es = f.ty.size();
                                let tp = shmemsim::TypedPut::for_elem_size(es);
                                if f.blocklen == 1 && lay.extent() % es == 0 {
                                    let stride = lay.extent() / es;
                                    code.body.push(format!(
                                        "  {call}({buf}_{fname}_sym, &{buf}[0].{fname}, {stride}, {stride}, {cnt}, {receiver});",
                                        call = tp.iput_name(),
                                        buf = b.name,
                                        fname = f.name,
                                    ));
                                } else {
                                    code.body.push(format!(
                                        "  {call}({buf}_{fname}_sym, &{buf}[0].{fname}, {bytes}, {receiver}); /* x {cnt} records */",
                                        call = tp.call_name(),
                                        buf = b.name,
                                        fname = f.name,
                                        bytes = f.blocklen * es,
                                    ));
                                }
                            }
                        }
                        (ElemKind::Soa(l), _) => {
                            for f in l.fields() {
                                code.body.push(format!(
                                    "  pack_bytes({buf}_pack, &{buf}_pack_pos, {fname}, ({fc})*{es});",
                                    buf = b.name,
                                    fname = f.name,
                                    fc = field_cnt(f.blocklen),
                                    es = f.ty.size(),
                                ));
                            }
                            code.body.push(format!(
                                "  shmem_putmem({buf}_sym, {buf}_pack, {buf}_pack_pos, {receiver});",
                                buf = b.name,
                            ));
                        }
                        (_, Lowering::Pack) => {
                            code.body.push(format!(
                                "  pack_bytes({buf}_pack, &{buf}_pack_pos, {buf}, ({cnt})*{psize});",
                                buf = b.name,
                                psize = b.elem.packed_size(),
                            ));
                            code.body.push(format!(
                                "  shmem_putmem({buf}_sym, {buf}_pack, {buf}_pack_pos, {receiver});",
                                buf = b.name,
                            ));
                        }
                        _ => {
                            let call = shmem_put_call(&b.elem);
                            let size = if call == "shmem_putmem" {
                                format!("({cnt})*sizeof({})", elem_c_size_hint(&b.elem))
                            } else {
                                cnt.clone()
                            };
                            code.body.push(format!(
                                "  {call}({buf}_sym, {buf}, {size}, {receiver});",
                                buf = b.name,
                            ));
                        }
                    }
                    req_count += 1;
                }
                code.body.push("}".to_string());
            }
        }
    }

    // Consolidated synchronization at the placed point.
    let placement = match spec.place_sync() {
        PlaceSync::EndParamRegion => "end of this comm_parameters region",
        PlaceSync::BeginNextParamRegion => "beginning of next comm_parameters region",
        PlaceSync::EndAdjParamRegions => "end of last adjacent comm_parameters region",
    };
    code.sync.push(format!("/* sync placed at: {placement} */"));
    match target {
        Target::Mpi2Side => {
            code.sync.push(format!(
                "MPI_Waitall({req_count}, req, MPI_STATUSES_IGNORE);"
            ));
            code.sync.extend(deferred_unpacks);
        }
        Target::Mpi1Side => {
            code.sync.push("MPI_Win_fence(0, win);".to_string());
        }
        Target::Shmem => {
            code.sync.push("shmem_quiet();".to_string());
            code.sync.push("shmem_barrier_all();".to_string());
        }
    }
    code
}

fn elem_c_size_hint(elem: &ElemKind) -> String {
    match elem {
        ElemKind::Prim(b) | ElemKind::Strided { ty: b, .. } => c_type(*b).to_string(),
        ElemKind::Composite(l) => l.name().to_string(),
        ElemKind::Soa(l) => l.name().to_string(),
    }
}

/// Lower a collective directive (the §V extension): MPI targets get the
/// native collective over a derived group communicator; SHMEM gets
/// generated puts plus synchronization.
pub fn lower_coll(spec: &crate::dir::CollSpec, target: Target) -> GeneratedCode {
    use crate::coll::CollKind;
    let mut code = GeneratedCode::default();
    let cnt = spec
        .count
        .as_ref()
        .map(|e| e.to_string())
        .unwrap_or_else(|| {
            spec.sbuf
                .iter()
                .chain(&spec.rbuf)
                .map(|b| b.len)
                .min()
                .unwrap_or(0)
                .to_string()
        });
    let root = spec
        .root
        .as_ref()
        .map(|e| e.to_string())
        .unwrap_or_else(|| "0".to_string());
    let sname = spec
        .sbuf
        .first()
        .map(|b| b.name.clone())
        .unwrap_or_else(|| "sbuf".into());
    let rname = spec
        .rbuf
        .first()
        .map(|b| b.name.clone())
        .unwrap_or_else(|| "rbuf".into());
    let ty = spec
        .sbuf
        .first()
        .or_else(|| spec.rbuf.first())
        .map(|b| mpi_type_expr(&b.elem, &b.name))
        .unwrap_or_else(|| "MPI_BYTE".into());

    // Group construction from groupwhen (the "groups of processes" part).
    let comm_var = match &spec.groupwhen {
        Some(c) => {
            code.prologue.push(format!(
                "MPI_Comm group_comm; MPI_Comm_split(comm, ({c}) ? 1 : MPI_UNDEFINED, rank, &group_comm);"
            ));
            "group_comm"
        }
        None => "comm",
    };

    match target {
        Target::Mpi2Side | Target::Mpi1Side => {
            let call = match spec.kind {
                CollKind::Bcast => format!("MPI_Bcast({rname}, {cnt}, {ty}, {root}, {comm_var});"),
                CollKind::Gather => format!(
                    "MPI_Gather({sname}, {cnt}, {ty}, {rname}, {cnt}, {ty}, {root}, {comm_var});"
                ),
                CollKind::Scatter => format!(
                    "MPI_Scatter({sname}, {cnt}, {ty}, {rname}, {cnt}, {ty}, {root}, {comm_var});"
                ),
                CollKind::AllToAll => {
                    format!("MPI_Alltoall({sname}, {cnt}, {ty}, {rname}, {cnt}, {ty}, {comm_var});")
                }
                CollKind::Reduce(op) => format!(
                    "MPI_Reduce({sname}, {rname}, {cnt}, {ty}, {}, {root}, {comm_var});",
                    op.mpi_name()
                ),
            };
            code.body.push(call);
        }
        Target::Shmem => {
            // Generated one-sided translation: puts + consolidated sync.
            match spec.kind {
                CollKind::Bcast => {
                    code.body.push(format!("if (rank == {root}) {{"));
                    code.body.push(format!(
                        "  for (pe = 0; pe < npes; pe++) if (group[pe]) {}({rname}_sym, {rname}, {cnt}, pe);",
                        shmem_put_call(&spec.rbuf.first().map(|b| b.elem.clone()).unwrap_or(ElemKind::Prim(BasicType::U8)))
                    ));
                    code.body.push("}".to_string());
                }
                CollKind::Gather | CollKind::Reduce(_) => {
                    code.body.push(format!(
                        "{}({rname}_sym + my_group_index*{cnt}, {sname}, {cnt}, {root});",
                        shmem_put_call(
                            &spec
                                .sbuf
                                .first()
                                .map(|b| b.elem.clone())
                                .unwrap_or(ElemKind::Prim(BasicType::U8))
                        )
                    ));
                }
                CollKind::Scatter => {
                    code.body.push(format!("if (rank == {root}) {{"));
                    code.body.push(format!(
                        "  for (pe = 0; pe < npes; pe++) if (group[pe]) {}({rname}_sym, {sname} + idx(pe)*{cnt}, {cnt}, pe);",
                        shmem_put_call(&spec.rbuf.first().map(|b| b.elem.clone()).unwrap_or(ElemKind::Prim(BasicType::U8)))
                    ));
                    code.body.push("}".to_string());
                }
                CollKind::AllToAll => {
                    code.body.push(format!(
                        "for (pe = 0; pe < npes; pe++) if (group[pe]) {}({rname}_sym + my_group_index*{cnt}, {sname} + idx(pe)*{cnt}, {cnt}, pe);",
                        shmem_put_call(&spec.sbuf.first().map(|b| b.elem.clone()).unwrap_or(ElemKind::Prim(BasicType::U8)))
                    ));
                }
            }
            code.sync.push("shmem_quiet();".to_string());
            code.sync
                .push("shmem_barrier(group_start, 0, group_size, pSync);".to_string());
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufMeta, Described};
    use crate::clause::ClauseSet;
    use crate::expr::RankExpr;

    fn prim_meta(name: &str, ty: BasicType, len: usize) -> BufMeta {
        BufMeta {
            name: name.to_string(),
            elem: ElemKind::Prim(ty),
            len,
            addr: (0, len * ty.size()),
        }
    }

    fn ring_spec() -> ParamsSpec {
        ParamsSpec {
            clauses: ClauseSet {
                sender: Some(
                    (RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks(),
                ),
                receiver: Some((RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks()),
                ..ClauseSet::default()
            },
            body: vec![P2pSpec {
                clauses: ClauseSet::default(),
                sbuf: vec![prim_meta("buf1", BasicType::F64, 16)],
                rbuf: vec![prim_meta("buf2", BasicType::F64, 16)],
                ..P2pSpec::default()
            }],
            spans: Default::default(),
        }
    }

    #[test]
    fn mpi2_translation_shape() {
        let code = lower(&ring_spec(), Target::Mpi2Side);
        let text = code.render();
        assert!(text.contains("MPI_Isend(buf1, 16, MPI_DOUBLE"));
        assert!(text.contains("MPI_Irecv(buf2, 16, MPI_DOUBLE"));
        assert!(text.contains("MPI_Waitall(2, req"));
        assert!(!text.contains("MPI_Wait(")); // never per-request waits
    }

    #[test]
    fn mpi1_translation_shape() {
        let code = lower(&ring_spec(), Target::Mpi1Side);
        let text = code.render();
        assert!(text.contains("MPI_Put(buf1"));
        assert!(text.contains("MPI_Win_fence"));
        assert!(!text.contains("MPI_Isend"));
    }

    #[test]
    fn shmem_translation_selects_typed_put() {
        let code = lower(&ring_spec(), Target::Shmem);
        let text = code.render();
        assert!(text.contains("shmem_put64(buf1_sym, buf1, 16"), "{text}");
        assert!(text.contains("shmem_quiet();"));
        assert!(text.contains("shmem_barrier_all();"));
    }

    crate::comm_datatype! {
        struct AtomScalars {
            jmt: i32,
            xstart: f64,
        }
    }

    crate::comm_datatype! {
        struct S {
            a: i32,
            b: f64,
        }
    }

    #[test]
    fn composite_gets_datatype_prologue_for_mpi_only() {
        let mut spec = ring_spec();
        spec.body[0].sbuf = vec![BufMeta {
            name: "atom".to_string(),
            elem: ElemKind::Composite(AtomScalars::layout()),
            len: 1,
            addr: (0, 16),
        }];
        spec.body[0].rbuf = spec.body[0].sbuf.clone();
        spec.body[0].clauses.count = Some(RankExpr::lit(1));

        let mpi = lower(&spec, Target::Mpi2Side).render();
        assert!(mpi.contains("MPI_Type_create_struct"));
        assert!(mpi.contains("MPI_Type_commit"));
        assert!(mpi.contains("atom_AtomScalars_mpitype"));

        let shm = lower(&spec, Target::Shmem).render();
        assert!(!shm.contains("MPI_Type_create_struct"));
        assert!(shm.contains("shmem_putmem"));
    }

    fn soa4_meta(name: &str, len: usize) -> BufMeta {
        use crate::buffer::{SoaField, SoaLayout};
        let fields = ["vr", "rhotot", "ec", "nc"]
            .iter()
            .map(|f| SoaField {
                name: format!("{name}_{f}"),
                ty: BasicType::F64,
                blocklen: 1,
            })
            .collect();
        BufMeta {
            name: name.to_string(),
            elem: ElemKind::Soa(std::sync::Arc::new(SoaLayout::new(
                &format!("{name}Soa"),
                fields,
            ))),
            len,
            addr: (0, len * 32),
        }
    }

    #[test]
    fn chooser_decision_table_gemini() {
        let m = MachineModel::gemini();
        let prim = ElemKind::Prim(BasicType::F64);
        let strided = ElemKind::Strided {
            ty: BasicType::F64,
            blocklen: 1,
            stride: 4,
        };
        let comp = ElemKind::Composite(S::layout());
        let soa = soa4_meta("x", 0).elem;

        // Contiguous memory is always handed over unchanged.
        assert_eq!(
            choose_lowering(&prim, 16, Target::Mpi2Side, &m.mpi),
            Lowering::Direct
        );
        assert_eq!(
            choose_lowering(&prim, 16, Target::Shmem, &m.shmem),
            Lowering::Direct
        );
        // MPI's datatype engine is cheaper per byte than packing on Gemini.
        assert_eq!(
            choose_lowering(&strided, 16, Target::Mpi2Side, &m.mpi),
            Lowering::Datatype
        );
        assert_eq!(
            choose_lowering(&comp, 16, Target::Mpi1Side, &m.mpi),
            Lowering::Datatype
        );
        // SHMEM strided: one iput, no copy, regardless of size.
        assert_eq!(
            choose_lowering(&strided, 1, Target::Shmem, &m.shmem),
            Lowering::Split { n: 1 }
        );
        // SHMEM composite: small payload packs (fan-out o_put dominates)...
        assert_eq!(
            choose_lowering(&comp, 1, Target::Shmem, &m.shmem),
            Lowering::Pack
        );
        // ...large payload splits into per-field strided puts.
        assert_eq!(
            choose_lowering(&comp, 100, Target::Shmem, &m.shmem),
            Lowering::Split { n: 2 }
        );
        // MPI two-sided SoA: per-array sends win only once the double
        // pack/unpack copy outweighs (n-1) message overheads.
        assert_eq!(
            choose_lowering(&soa, 10, Target::Mpi2Side, &m.mpi),
            Lowering::Pack
        );
        assert_eq!(
            choose_lowering(&soa, 1000, Target::Mpi2Side, &m.mpi),
            Lowering::Split { n: 4 }
        );
        // One-sided SoA: only the sender-side copy is at stake, but o_put
        // is cheap, so the crossover sits low.
        assert_eq!(
            choose_lowering(&soa, 100, Target::Shmem, &m.shmem),
            Lowering::Split { n: 4 }
        );
    }

    #[test]
    fn soa_split_emits_per_array_sends_on_mpi2() {
        let mut spec = ring_spec();
        spec.body[0].sbuf = vec![soa4_meta("s", 1000)];
        spec.body[0].rbuf = vec![soa4_meta("r", 1000)];
        spec.body[0].clauses.count = Some(RankExpr::lit(1000));
        let text = lower(&spec, Target::Mpi2Side).render();
        assert!(text.contains("MPI_Isend(s_vr, 1000, MPI_DOUBLE"), "{text}");
        assert!(text.contains("MPI_Isend(s_nc, 1000, MPI_DOUBLE"), "{text}");
        assert!(
            text.contains("MPI_Irecv(r_rhotot, 1000, MPI_DOUBLE"),
            "{text}"
        );
        assert!(text.contains("MPI_Waitall(8, req"), "{text}");
        assert!(!text.contains("MPI_Pack"), "{text}");
        assert!(!text.contains("MPI_Type_create_struct"), "{text}");
    }

    #[test]
    fn soa_small_packs_on_mpi2() {
        let mut spec = ring_spec();
        spec.body[0].sbuf = vec![soa4_meta("s", 10)];
        spec.body[0].rbuf = vec![soa4_meta("r", 10)];
        spec.body[0].clauses.count = Some(RankExpr::lit(10));
        let text = lower(&spec, Target::Mpi2Side).render();
        assert!(text.contains("char s_pack["), "{text}");
        assert!(
            text.contains("MPI_Pack(s_vr, 10, MPI_DOUBLE, s_pack"),
            "{text}"
        );
        assert!(
            text.contains("MPI_Isend(s_pack, s_pack_pos, MPI_PACKED"),
            "{text}"
        );
        assert!(
            text.contains("MPI_Irecv(r_pack, (10)*32, MPI_PACKED"),
            "{text}"
        );
        // Unpacks are deferred to after the consolidated waitall.
        assert!(
            text.contains("memcpy(r_vr, r_pack + (10)*0, (10)*8)"),
            "{text}"
        );
        assert!(
            text.contains("memcpy(r_nc, r_pack + (10)*24, (10)*8)"),
            "{text}"
        );
    }

    #[test]
    fn soa_split_emits_typed_puts_on_shmem() {
        let mut spec = ring_spec();
        spec.body[0].sbuf = vec![soa4_meta("s", 100)];
        spec.body[0].rbuf = vec![soa4_meta("r", 100)];
        spec.body[0].clauses.count = Some(RankExpr::lit(100));
        let text = lower(&spec, Target::Shmem).render();
        assert!(text.contains("shmem_put64(s_vr_sym, s_vr, 100"), "{text}");
        assert!(text.contains("shmem_put64(s_nc_sym, s_nc, 100"), "{text}");
        assert!(!text.contains("pack_bytes"), "{text}");
    }

    #[test]
    fn strided_lowers_to_iput_on_shmem() {
        let mut spec = ring_spec();
        spec.body[0].sbuf = vec![BufMeta {
            name: "v".to_string(),
            elem: ElemKind::Strided {
                ty: BasicType::F64,
                blocklen: 1,
                stride: 4,
            },
            len: 61,
            addr: (0, 61 * 8),
        }];
        spec.body[0].rbuf = vec![prim_meta("w", BasicType::F64, 16)];
        spec.body[0].clauses.count = Some(RankExpr::lit(16));
        let text = lower(&spec, Target::Shmem).render();
        assert!(text.contains("shmem_iput64(v_sym, v, 4, 4, 16"), "{text}");
        assert!(!text.contains("pack_bytes"), "{text}");
    }

    #[test]
    fn sync_placement_annotated() {
        let mut spec = ring_spec();
        spec.clauses.place_sync = Some(PlaceSync::EndAdjParamRegions);
        let text = lower(&spec, Target::Mpi2Side).render();
        assert!(text.contains("end of last adjacent"));
    }

    #[test]
    fn guards_render_conditions() {
        let mut spec = ring_spec();
        spec.clauses.sendwhen = Some((RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(0)));
        spec.clauses.receivewhen = Some((RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(1)));
        let text = lower(&spec, Target::Mpi2Side).render();
        assert!(text.contains("if (((rank%2)==0))"));
        assert!(text.contains("if (((rank%2)==1))"));
    }
}
