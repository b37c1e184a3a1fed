//! # netsim — a virtual-time SPMD rank runtime
//!
//! The measurement substrate for the `commint` workspace (a reproduction of
//! *"Toward Abstracting the Communication Intent in Applications to Improve
//! Portability and Productivity"*, IPDPSW 2013).
//!
//! The paper's evaluation compares the communication generated from
//! intent-level directives against hand-written MPI on a Cray XK7: the
//! interesting quantities are the *relative* costs of call sequences
//! (per-call wait overhead vs. consolidated waitall, MPI two-sided vs.
//! SHMEM one-sided small-message paths, pack copies vs. derived datatypes).
//! This crate reproduces those quantities with:
//!
//! * one body per simulated rank (a coroutine on one of a few carrier
//!   threads, [`sched`]) and real shared-memory data movement, so programs
//!   are *functionally* executed, not just modeled;
//! * a per-rank **virtual clock** advanced by a parametric [`model::CostModel`]
//!   (Hockney/LogGP superset with library software overheads, eager/rendezvous
//!   protocols and unexpected-message costs), so *timing* is deterministic,
//!   machine-independent and calibrated to the paper's platform;
//! * MPI-style tag matching, group barriers with clock reconciliation, and a
//!   symmetric-heap segment store with signalled deliveries for one-sided
//!   libraries.
//!
//! Substrate crates [`mpisim`](../mpisim) and [`shmemsim`](../shmemsim) wrap
//! this runtime in library-shaped APIs; the `commint` core lowers
//! communication directives onto either.
//!
//! ## Example
//!
//! ```
//! use netsim::{run, SimConfig, SrcSel, TagSel, Time};
//!
//! let res = run(SimConfig::new(2), |ctx| {
//!     let mpi = ctx.machine().mpi;
//!     if ctx.rank() == 0 {
//!         ctx.send(1, 0, b"hello", &mpi);
//!     } else {
//!         let msg = ctx.recv(SrcSel::Exact(0), TagSel::Exact(0), &mpi);
//!         assert_eq!(&msg.payload[..], b"hello");
//!     }
//!     ctx.now()
//! });
//! assert!(res.makespan() > Time::ZERO);
//! ```

mod coro;
pub mod fabric;
pub mod json;
pub mod metrics;
pub mod model;
pub mod msg;
pub mod progress;
pub mod runtime;
pub mod sanitize;
pub mod sched;
pub mod time;
pub mod trace;

pub use fabric::{Fabric, Group, SegId};
pub use metrics::{Hist, RankMetrics, SchedStats, SiteMetrics};
pub use model::{CostModel, MachineModel};
pub use msg::{
    match_timing, MatchTiming, RecvDone, RecvRequest, SendRequest, SrcSel, TagSel, WireCosts,
};
pub use progress::{ProgressBoard, RankProgress, Snapshot, WatchCfg};
pub use runtime::{run, ExecPolicy, RankCtx, SimConfig, SimResult};
pub use sanitize::{Conflict, SanitizeReport, Sanitizer};
pub use sched::Scheduler;
pub use time::Time;
pub use trace::{Counter, CounterKind, EventKind, RankStats, SiteId, TraceEvent, TraceSink};
