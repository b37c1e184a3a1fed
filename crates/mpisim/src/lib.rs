//! # mpisim — an MPI-flavoured message-passing library over `netsim`
//!
//! One of the two communication libraries the `commint` directives translate
//! to (the other is [`shmemsim`](../shmemsim)). Provides the MPI features
//! the paper's translation relies on:
//!
//! * communicators with private tag namespaces ([`comm::Comm`]);
//! * non-blocking `isend`/`irecv` with request objects and the two
//!   completion disciplines whose cost difference drives Figure 4:
//!   per-request `wait` (expensive) and consolidated `waitall` (amortized);
//! * explicit [`pack::PackBuf`] marshalling (`MPI_Pack`/`MPI_Unpack`), the
//!   original WL-LSMS style;
//! * derived [`dtype::Datatype`]s — vector and struct — with the paper's
//!   pointer / nested-composite prohibitions, the one layout walk every
//!   gather and scatter drives, and a per-scope commit cache
//!   ([`dtype::DtypeCache`]);
//! * one-sided [`win::Win`] windows with `put` and fence synchronization
//!   (the `TARGET_COMM_MPI_1SIDE` target);
//! * tree-based [`coll`] collectives for app scaffolding.
//!
//! All timing is virtual (see `netsim`); all data movement is real.

pub mod coll;
pub mod comm;
pub mod dtype;
pub mod pack;
pub mod pod;
pub mod win;

pub use comm::{Comm, RecvOut, MAX_USER_TAG, TAG_BITS};
pub use dtype::{BasicType, Datatype, DtypeCache, DtypeError, FieldKind, StructField};
pub use pack::PackBuf;
pub use pod::{as_bytes, as_bytes_mut, copy_from_bytes, vec_from_bytes, Pod};
pub use win::Win;
