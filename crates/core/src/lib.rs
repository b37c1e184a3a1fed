//! # commint — communication-intent directives for message passing
//!
//! A Rust reproduction of the directive system from *"Toward Abstracting
//! the Communication Intent in Applications to Improve Portability and
//! Productivity"* (Mintz et al., IPDPSW 2013).
//!
//! The paper proposes two compiler directives — `comm_parameters` and
//! `comm_p2p` with ten clauses — that express *what* point-to-point
//! communication a program intends, leaving the *how* (library calls,
//! data-type handling, synchronization) to the translator. The same
//! annotated region retargets between MPI two-sided, MPI one-sided
//! (`MPI_Put`) and SHMEM.
//!
//! Rust has no pragmas, so the directive surface here is twofold:
//! * a typed builder API ([`CommSession::region`], [`Region::p2p`]) plus
//!   the [`comm_parameters!`]/[`comm_p2p!`] macros, and
//! * the `pragma-front` crate, which parses the paper's literal
//!   `#pragma comm_p2p …` syntax into the same IR.
//!
//! Both feed one directive IR ([`dir::ParamsSpec`]) that the static
//! analyses ([`analysis`]) and the execution engine ([`scope`]) consume.
//! The engine implements the paper's automatic behaviours: data-type
//! inference with derived-datatype caching, count inference from the
//! smallest buffer, synchronization consolidation with `place_sync`
//! placement and `max_comm_iter` budgeting, communication/computation
//! overlap, and symmetric staging management for one-sided targets.
//!
//! ## Quick example — the paper's Listing 1 ring
//!
//! ```
//! use commint::prelude::*;
//! use mpisim::Comm;
//! use netsim::{run, SimConfig};
//!
//! let res = run(SimConfig::new(4), |ctx| {
//!     let comm = Comm::world(ctx);
//!     let mut session = CommSession::new(ctx, comm);
//!     let me = session.rank() as i64;
//!     let buf1 = [me; 8];
//!     let mut buf2 = [0i64; 8];
//!     // #pragma comm_p2p sender(prev) receiver(next) sbuf(buf1) rbuf(buf2)
//!     session
//!         .p2p()
//!         .sender((RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks())
//!         .receiver((RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks())
//!         .sbuf(Prim::new("buf1", &buf1))
//!         .rbuf(PrimMut::new("buf2", &mut buf2))
//!         .run()
//!         .unwrap();
//!     buf2[0]
//! });
//! assert_eq!(res.per_rank, vec![3, 0, 1, 2]);
//! ```

pub mod analysis;
pub mod buffer;
pub mod cas;
pub mod clause;
pub mod coll;
pub mod diag;
pub mod dir;
pub mod expr;
pub mod interval;
pub mod lower;
pub mod macros;
pub mod nf;
pub mod overlay;
pub mod patterns;
pub mod race;
pub mod scope;

pub use buffer::{
    Buf, Prim, PrimMut, PrimStrided, PrimStridedMut, RecvBuf, SendBuf, Struc, StrucMut,
};
pub use clause::{ClauseSet, Diagnostic, DirectiveKind, PlaceSync, Severity, Target};
pub use coll::{CollKind, ReduceOp};
pub use diag::{Diag, DirSpans, LintCode, RankWitness, SrcSpan, Verification};
pub use dir::{P2pSpec, ParamsSpec};
pub use expr::{CondExpr, EvalEnv, ExprError, RankExpr};
pub use interval::{Access, AccessKind, ByteSpan};
pub use nf::{ClassParams, LinForm, ModForm, NormCond, NormErr, NormExpr};
pub use overlay::{Decision, Overlay, SiteDecision, OVERLAY_SCHEMA};
pub use race::{analyze_ops, RaceFinding, RaceOp, RaceProgram};
pub use scope::{
    CommLoop, CommParams, CommSession, DirectiveError, LoopIter, LoopP2p, P2pCall, Region,
};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::buffer::{
        Prim, PrimMut, PrimStrided, PrimStridedMut, Soa, SoaMut, Struc, StrucMut,
    };
    pub use crate::clause::{PlaceSync, Target};
    pub use crate::expr::{CondExpr, EvalEnv, RankExpr};
    pub use crate::lower::{choose_lowering, Lowering, LoweringPolicy};
    pub use crate::overlay::{Decision, Overlay, SiteDecision};
    pub use crate::scope::{CommLoop, CommParams, CommSession, DirectiveError};
    pub use crate::{comm_coll, comm_p2p, comm_parameters};
}
