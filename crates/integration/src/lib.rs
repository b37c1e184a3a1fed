//! Shared helpers for the workspace-level integration tests (the test
//! sources themselves live in `/tests` at the repository root and are wired
//! in through `[[test]]` path entries).

use commint::CommSession;
use mpisim::Comm;
use netsim::{run, RankCtx, SimConfig, SimResult};

/// Run an SPMD body with a ready-made world [`CommSession`] per rank,
/// flushing deferred synchronization afterwards.
pub fn with_world_session<T: Send>(
    nranks: usize,
    f: impl Fn(&mut CommSession<'_>) -> T + Sync,
) -> SimResult<T> {
    run(SimConfig::new(nranks), |ctx| {
        let comm = Comm::world(ctx);
        let mut session = CommSession::new(ctx, comm);
        let out = f(&mut session);
        session.flush();
        out
    })
}

/// Run a plain SPMD body.
pub fn with_ranks<T: Send>(nranks: usize, f: impl Fn(&mut RankCtx) -> T + Sync) -> SimResult<T> {
    run(SimConfig::new(nranks), f)
}

/// Like [`with_world_session`], but with the event trace enabled, for
/// observability tests (fold it with [`netsim::RankMetrics::from_trace`]
/// for per-site metrics).
pub fn with_world_session_observed<T: Send>(
    nranks: usize,
    f: impl Fn(&mut CommSession<'_>) -> T + Sync,
) -> SimResult<T> {
    run(SimConfig::new(nranks).with_trace(), |ctx| {
        let comm = Comm::world(ctx);
        let mut session = CommSession::new(ctx, comm);
        let out = f(&mut session);
        session.flush();
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_run() {
        let res = with_ranks(3, |ctx| ctx.rank());
        assert_eq!(res.per_rank, vec![0, 1, 2]);
        let res = with_world_session(2, |s| s.size());
        assert_eq!(res.per_rank, vec![2, 2]);
    }
}
