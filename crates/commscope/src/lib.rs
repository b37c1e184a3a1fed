//! # commscope — end-to-end communication observability
//!
//! The runtime's event trace records every communication operation with its
//! virtual-time span, completion horizon, and (when issued from a
//! directive) the [`netsim::trace::SiteId`] of the `comm_p2p` instance that
//! caused it. This crate turns those traces — plus the per-rank metrics
//! folded from them ([`netsim::RankMetrics::from_trace`]) — into
//! actionable observability:
//!
//! * [`analysis`] — wait-state classification (late sender / late receiver
//!   / barrier / quiet), per-rank blame attribution that sums exactly to
//!   measured wait time, and exact critical-path extraction over the event
//!   DAG.
//! * [`chrome`] — Chrome `trace_event` JSON (Perfetto-loadable), one track
//!   per rank, with message flow arrows.
//! * [`profile`] — a stable, integer-only profile JSON document.
//! * [`folded`] — flamegraph folded stacks of virtual time.
//! * [`diff`] — differential profiling: join two profiles on the SiteId
//!   namespace and emit per-site deltas with exact accounting.
//! * [`trend`] — run-history trajectory over the bench ledger
//!   (`results/LEDGER.jsonl`) with regression detection.
//!
//! Profiles, diffs and ledger entries are [`netsim::json::Json`] values;
//! the crate depends on `netsim` alone and runs no workload.
//!
//! Everything here is a pure function of virtual quantities, so every
//! export is byte-identical across `ExecPolicy::bounded(w)` for any `w`
//! and across sweep-pool widths.
//!
//! The figure binaries in `bench` run the workloads and write these
//! exports (`--trace-out`, `--profile`, `--folded`); the `commscope` binary
//! (see `src/main.rs`) diffs two profiles and reads the run-history ledger.

pub mod analysis;
pub mod chrome;
pub mod diff;
pub mod folded;
pub mod profile;
pub mod trend;

pub use analysis::{
    analyze, kind_label, pair_messages, Analysis, PathSegment, RankWaitProfile, WaitInterval,
    WaitKind,
};
pub use chrome::chrome_trace;
pub use diff::{diff_is_zero, diff_profiles, render_diff_text, validate_diff, DIFF_SCHEMA};
pub use folded::folded_stacks;
pub use profile::{
    profile_json, profile_json_tuned, validate_profile, PROFILE_SCHEMA, UNATTRIBUTED_SITE,
};
pub use trend::{parse_ledger, render_trend_text, trend, SeriesTrend, LEDGER_SCHEMA};
