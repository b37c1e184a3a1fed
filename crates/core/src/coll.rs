//! Collective-communication directives — the paper's stated future work,
//! implemented: "we are working to extend the directives to express groups
//! of processes, and their collective communication/synchronization in a
//! variety of many-to-one, one-to-many and all-to-all patterns" (§V).
//!
//! One directive, `comm_coll`, with the familiar clause style:
//!
//! * `kind` — `BCAST` (one-to-many), `GATHER` (many-to-one), `SCATTER`
//!   (one-to-many, distinct payloads), `ALLTOALL` (all-to-all), `REDUCE`
//!   (many-to-one with combination);
//! * `root(expr)` — the distinguished rank for rooted kinds;
//! * `groupwhen(cond)` — *which processes participate*: the group-of-
//!   processes expression the paper calls for (default: every rank);
//! * `count(expr)`, `target(keyword)` — as for `comm_p2p`.
//!
//! Lowering follows the point-to-point machinery: MPI two-sided kinds
//! generate non-blocking trees/fan-outs with one consolidated completion;
//! one-sided targets generate puts into per-site symmetric staging with
//! point-wise delivery waits. The code generator emits the native MPI
//! collective (`MPI_Bcast`, ...) where one exists.

use crate::buffer::{Prim, PrimElem, PrimMut};
use crate::clause::{Diagnostic, Target};
use crate::expr::{CondExpr, RankExpr};
use crate::scope::{CommParams, CommSession, DirectiveError};

/// The collective pattern kinds (paper §V's taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollKind {
    /// One-to-many: the root's buffer lands on every participant.
    Bcast,
    /// Many-to-one: every participant's buffer lands on the root,
    /// concatenated in participant order.
    Gather,
    /// One-to-many with distinct payloads: participant `i` receives the
    /// `i`-th chunk of the root's buffer.
    Scatter,
    /// All-to-all personalized exchange among the participants.
    AllToAll,
    /// Many-to-one with elementwise combination on the root.
    Reduce(ReduceOp),
}

/// Reduction operators for [`CollKind::Reduce`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    fn combine_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }

    /// MPI operator name (codegen).
    pub fn mpi_name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "MPI_SUM",
            ReduceOp::Max => "MPI_MAX",
            ReduceOp::Min => "MPI_MIN",
        }
    }
}

impl CollKind {
    /// The directive keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            CollKind::Bcast => "BCAST",
            CollKind::Gather => "GATHER",
            CollKind::Scatter => "SCATTER",
            CollKind::AllToAll => "ALLTOALL",
            CollKind::Reduce(_) => "REDUCE",
        }
    }

    /// Whether the kind has a distinguished root.
    pub fn rooted(self) -> bool {
        !matches!(self, CollKind::AllToAll)
    }
}

/// Builder for a `comm_coll` directive on a session. Executes immediately
/// with one consolidated synchronization (collectives are synchronization
/// points by nature).
pub struct CollCall<'s, 'a> {
    session: &'s mut CommSession<'a>,
    kind: CollKind,
    root: Option<RankExpr>,
    groupwhen: Option<CondExpr>,
    count: Option<usize>,
    target: Target,
    site: u32,
}

impl<'a> CommSession<'a> {
    /// Start a `comm_coll` directive.
    pub fn coll<'s>(&'s mut self, kind: CollKind) -> CollCall<'s, 'a> {
        CollCall {
            session: self,
            kind,
            root: None,
            groupwhen: None,
            count: None,
            target: Target::Mpi2Side,
            site: 9000,
        }
    }
}

impl<'s, 'a> CollCall<'s, 'a> {
    /// `root(expr)` — required for rooted kinds.
    pub fn root(mut self, e: impl Into<RankExpr>) -> Self {
        self.root = Some(e.into());
        self
    }

    /// `groupwhen(cond)` — which ranks participate (default: all).
    pub fn groupwhen(mut self, c: CondExpr) -> Self {
        self.groupwhen = Some(c);
        self
    }

    /// `count(n)` — elements per participant chunk.
    pub fn count(mut self, n: usize) -> Self {
        self.count = Some(n);
        self
    }

    /// `target(keyword)`.
    pub fn target(mut self, t: Target) -> Self {
        self.target = t;
        self
    }

    /// Distinguish lexical sites (staging/tag separation in loops).
    pub fn site(mut self, site: u32) -> Self {
        self.site = site;
        self
    }

    /// Resolve the participant group (communicator-local ranks, ascending)
    /// and this rank's position in it. `groupwhen` sees the session's
    /// variables, with each candidate rank in place of this one.
    fn resolve_group(&mut self) -> Result<(Vec<usize>, Option<usize>), DirectiveError> {
        let group = match &self.groupwhen {
            Some(c) => self.session.ranks_where(c)?,
            None => (0..self.session.size()).collect(),
        };
        let me = self.session.rank();
        let pos = group.iter().position(|&g| g == me);
        Ok((group, pos))
    }

    fn resolve_root(&mut self, group: &[usize]) -> Result<usize, DirectiveError> {
        let root = match &self.root {
            Some(e) => e.eval(self.session.env())?,
            None => {
                return Err(DirectiveError::Invalid(vec![Diagnostic::error(format!(
                    "comm_coll {}: required clause `root` missing",
                    self.kind.keyword()
                ))]))
            }
        };
        if root < 0 || !group.contains(&(root as usize)) {
            return Err(DirectiveError::RankOutOfRange {
                clause: "root",
                value: root,
                size: group.len(),
            });
        }
        Ok(root as usize)
    }

    /// Execute a broadcast: on the root, `buf` is the source; elsewhere the
    /// destination. Non-participants leave `buf` untouched.
    pub fn bcast<T: PrimElem>(mut self, buf: &mut [T]) -> Result<(), DirectiveError> {
        assert_eq!(self.kind, CollKind::Bcast, "call matches the kind");
        let (group, pos) = self.resolve_group()?;
        let root = self.resolve_root(&group)?;
        if pos.is_none() {
            return Ok(());
        }
        let n = self.count.unwrap_or(buf.len()).min(buf.len());
        // Fan-out from the root through one p2p region: the directive
        // machinery supplies targets, staging and the consolidated sync.
        let src_copy: Vec<T> = buf[..n].to_vec();
        let me = self.session.rank();
        let params = CommParams::new()
            .sender(RankExpr::lit(root as i64))
            .receiver(RankExpr::var("coll_dest"))
            .sendwhen(RankExpr::rank().eq(RankExpr::lit(root as i64)))
            .receivewhen(RankExpr::rank().eq(RankExpr::var("coll_dest")))
            .count(n)
            .max_comm_iter(group.len().max(2) as i64 - 1)
            .target(self.target);
        let site = self.site;
        self.session.region(&params, |reg| {
            let empty: [T; 0] = [];
            for &dest in group.iter().filter(|&&d| d != root) {
                reg.set_var("coll_dest", dest as i64);
                let sb: &[T] = if me == root { &src_copy } else { &empty };
                reg.p2p()
                    .site(site)
                    .sbuf(Prim::new("coll_bcast_src", sb))
                    .rbuf(PrimMut::new("coll_bcast_dst", &mut buf[..n]))
                    .run()?;
            }
            Ok::<(), DirectiveError>(())
        })??;
        Ok(())
    }

    /// Execute a gather: every participant contributes `send`; on the root,
    /// `recv` receives `group.len() * count` elements in participant order.
    pub fn gather<T: PrimElem>(mut self, send: &[T], recv: &mut [T]) -> Result<(), DirectiveError> {
        assert_eq!(self.kind, CollKind::Gather, "call matches the kind");
        let (group, pos) = self.resolve_group()?;
        let root = self.resolve_root(&group)?;
        let Some(_my_pos) = pos else {
            return Ok(());
        };
        let n = self.count.unwrap_or(send.len()).min(send.len());
        let me = self.session.rank();
        if me == root {
            assert!(
                recv.len() >= group.len() * n,
                "gather root buffer too small: {} < {}",
                recv.len(),
                group.len() * n
            );
        }
        let params = CommParams::new()
            .sender(RankExpr::var("coll_src"))
            .receiver(RankExpr::lit(root as i64))
            .sendwhen(RankExpr::rank().eq(RankExpr::var("coll_src")))
            .receivewhen(RankExpr::rank().eq(RankExpr::lit(root as i64)))
            .count(n)
            .max_comm_iter(group.len().max(2) as i64 - 1)
            .target(self.target);
        let site = self.site;
        self.session.region(&params, |reg| {
            let empty: [T; 0] = [];
            for (i, &src) in group.iter().enumerate() {
                if src == root {
                    continue;
                }
                reg.set_var("coll_src", src as i64);
                let sb: &[T] = if me == src { &send[..n] } else { &empty };
                let rb: &mut [T] = if me == root {
                    &mut recv[i * n..(i + 1) * n]
                } else {
                    &mut []
                };
                reg.p2p()
                    .site(site + 1)
                    .sbuf(Prim::new("coll_gather_src", sb))
                    .rbuf(PrimMut::new("coll_gather_dst", rb))
                    .run()?;
            }
            Ok::<(), DirectiveError>(())
        })??;
        if me == root {
            let my_pos = group
                .iter()
                .position(|&g| g == root)
                .expect("root in group");
            recv[my_pos * n..(my_pos + 1) * n].copy_from_slice(&send[..n]);
        }
        Ok(())
    }

    /// Execute a scatter: on the root, `send` holds `group.len() * count`
    /// elements; participant `i` receives chunk `i` into `recv`.
    pub fn scatter<T: PrimElem>(
        mut self,
        send: &[T],
        recv: &mut [T],
    ) -> Result<(), DirectiveError> {
        assert_eq!(self.kind, CollKind::Scatter, "call matches the kind");
        let (group, pos) = self.resolve_group()?;
        let root = self.resolve_root(&group)?;
        let Some(my_pos) = pos else {
            return Ok(());
        };
        let n = self.count.unwrap_or(recv.len()).min(recv.len().max(1));
        let me = self.session.rank();
        if me == root {
            assert!(
                send.len() >= group.len() * n,
                "scatter root buffer too small: {} < {}",
                send.len(),
                group.len() * n
            );
        }
        let params = CommParams::new()
            .sender(RankExpr::lit(root as i64))
            .receiver(RankExpr::var("coll_dest"))
            .sendwhen(RankExpr::rank().eq(RankExpr::lit(root as i64)))
            .receivewhen(RankExpr::rank().eq(RankExpr::var("coll_dest")))
            .count(n)
            .max_comm_iter(group.len().max(2) as i64 - 1)
            .target(self.target);
        let site = self.site;
        self.session.region(&params, |reg| {
            let empty: [T; 0] = [];
            for (i, &dest) in group.iter().enumerate() {
                if dest == root {
                    continue;
                }
                reg.set_var("coll_dest", dest as i64);
                let sb: &[T] = if me == root {
                    &send[i * n..(i + 1) * n]
                } else {
                    &empty
                };
                let rb: &mut [T] = if me == dest { &mut recv[..n] } else { &mut [] };
                reg.p2p()
                    .site(site + 2)
                    .sbuf(Prim::new("coll_scatter_src", sb))
                    .rbuf(PrimMut::new("coll_scatter_dst", rb))
                    .run()?;
            }
            Ok::<(), DirectiveError>(())
        })??;
        if me == root {
            recv[..n].copy_from_slice(&send[my_pos * n..my_pos * n + n]);
        }
        Ok(())
    }

    /// Execute an all-to-all personalized exchange: `send` holds one
    /// `count`-element chunk per participant (in group order); `recv`
    /// receives one chunk from each participant.
    pub fn alltoall<T: PrimElem>(
        mut self,
        send: &[T],
        recv: &mut [T],
    ) -> Result<(), DirectiveError> {
        assert_eq!(self.kind, CollKind::AllToAll, "call matches the kind");
        let (group, pos) = self.resolve_group()?;
        let Some(my_pos) = pos else {
            return Ok(());
        };
        let g = group.len();
        let n = self.count.unwrap_or(recv.len() / g.max(1));
        assert!(
            send.len() >= g * n && recv.len() >= g * n,
            "alltoall buffers too small"
        );
        let me = self.session.rank();
        let params = CommParams::new()
            .sender(RankExpr::var("coll_src"))
            .receiver(RankExpr::var("coll_dest"))
            .sendwhen(RankExpr::rank().eq(RankExpr::var("coll_src")))
            .receivewhen(RankExpr::rank().eq(RankExpr::var("coll_dest")))
            .count(n)
            .max_comm_iter((g * g).max(2) as i64)
            .target(self.target);
        let site = self.site;
        self.session.region(&params, |reg| {
            let empty: [T; 0] = [];
            for (i, &src) in group.iter().enumerate() {
                for (j, &dest) in group.iter().enumerate() {
                    if src == dest {
                        continue;
                    }
                    reg.set_var("coll_src", src as i64);
                    reg.set_var("coll_dest", dest as i64);
                    let sb: &[T] = if me == src {
                        &send[j * n..(j + 1) * n]
                    } else {
                        &empty
                    };
                    let rb: &mut [T] = if me == dest {
                        &mut recv[i * n..(i + 1) * n]
                    } else {
                        &mut []
                    };
                    reg.p2p()
                        .site(site + 3)
                        .sbuf(Prim::new("coll_a2a_src", sb))
                        .rbuf(PrimMut::new("coll_a2a_dst", rb))
                        .run()?;
                }
            }
            Ok::<(), DirectiveError>(())
        })??;
        // Self chunk.
        recv[my_pos * n..(my_pos + 1) * n].copy_from_slice(&send[my_pos * n..(my_pos + 1) * n]);
        Ok(())
    }

    /// Execute a reduction of `f64` values to the root with the configured
    /// operator. Every participant contributes `buf`; the root's `buf`
    /// holds the result afterwards. (Combination work is charged as
    /// computation on the root.)
    pub fn reduce(mut self, buf: &mut [f64]) -> Result<(), DirectiveError> {
        let CollKind::Reduce(op) = self.kind else {
            panic!("call matches the kind");
        };
        let (group, pos) = self.resolve_group()?;
        let root = self.resolve_root(&group)?;
        let Some(_my_pos) = pos else {
            return Ok(());
        };
        let n = self.count.unwrap_or(buf.len()).min(buf.len());
        let me = self.session.rank();
        let mut contributions = vec![0.0f64; group.len() * n];
        let target = self.target;
        let site = self.site;
        let groupwhen = self.groupwhen.clone();
        // Gather contributions to the root...
        {
            let mut call = self
                .session
                .coll(CollKind::Gather)
                .root(root as i64)
                .count(n)
                .target(target)
                .site(site + 4);
            if let Some(c) = groupwhen {
                call = call.groupwhen(c);
            }
            call.gather(&buf[..n], &mut contributions)?;
        }
        // ...and combine (charged as root-side computation).
        if me == root {
            let m = self.session.ctx().machine().mpi;
            let flop_cost = m.byte_cost(0.25, group.len() * n * 8);
            self.session.ctx().compute(flop_cost);
            for i in 0..n {
                let mut acc = contributions[i];
                for k in 1..group.len() {
                    acc = op.combine_f64(acc, contributions[k * n + i]);
                }
                buf[i] = acc;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::Comm;
    use netsim::{run, SimConfig};

    fn with_session<R: Send>(n: usize, f: impl Fn(&mut CommSession<'_>) -> R + Sync) -> Vec<R> {
        run(SimConfig::new(n), |ctx| {
            let comm = Comm::world(ctx);
            let mut s = CommSession::new(ctx, comm).without_ir();
            let out = f(&mut s);
            s.flush();
            out
        })
        .per_rank
    }

    #[test]
    fn bcast_all_targets() {
        for target in Target::ALL {
            let got = with_session(5, move |s| {
                let mut buf = if s.rank() == 2 { [7i64, 8, 9] } else { [0; 3] };
                s.coll(CollKind::Bcast)
                    .root(2)
                    .target(target)
                    .bcast(&mut buf)
                    .unwrap();
                buf
            });
            for v in got {
                assert_eq!(v, [7, 8, 9], "target {target}");
            }
        }
    }

    #[test]
    fn bcast_respects_group() {
        // Only even ranks participate; odd ranks keep their buffers.
        let got = with_session(6, |s| {
            let mut buf = if s.rank() == 0 { [42i32] } else { [-1] };
            s.coll(CollKind::Bcast)
                .root(0)
                .groupwhen((RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(0)))
                .bcast(&mut buf)
                .unwrap();
            buf[0]
        });
        assert_eq!(got, vec![42, -1, 42, -1, 42, -1]);
    }

    #[test]
    fn gather_collects_in_group_order() {
        let got = with_session(4, |s| {
            let me = s.rank() as i64;
            let send = [me * 10, me * 10 + 1];
            let mut recv = if s.rank() == 1 {
                vec![0i64; 8]
            } else {
                Vec::new()
            };
            s.coll(CollKind::Gather)
                .root(1)
                .count(2)
                .gather(&send, &mut recv)
                .unwrap();
            recv
        });
        assert_eq!(got[1], vec![0, 1, 10, 11, 20, 21, 30, 31]);
    }

    #[test]
    fn scatter_distributes_chunks() {
        for target in [Target::Mpi2Side, Target::Shmem] {
            let got = with_session(4, move |s| {
                let send: Vec<f64> = if s.rank() == 0 {
                    (0..8).map(|i| i as f64).collect()
                } else {
                    Vec::new()
                };
                let mut recv = [0f64; 2];
                s.coll(CollKind::Scatter)
                    .root(0)
                    .count(2)
                    .target(target)
                    .scatter(&send, &mut recv)
                    .unwrap();
                recv
            });
            for (r, v) in got.iter().enumerate() {
                assert_eq!(
                    *v,
                    [r as f64 * 2.0, r as f64 * 2.0 + 1.0],
                    "target {target}"
                );
            }
        }
    }

    #[test]
    fn clauses_see_session_variables() {
        // `root(var)` / `groupwhen(rank < var)` resolve against the
        // session's variables like `comm_p2p` clauses do, and scatter
        // exactly what the literal form scatters.
        let scatter = |by_name: bool| {
            with_session(5, move |s| {
                let send: Vec<i64> = if s.rank() == 1 {
                    (0..8).collect()
                } else {
                    Vec::new()
                };
                let mut recv = [-1i64; 2];
                let call = if by_name {
                    s.set_var("scatter_root", 1);
                    s.set_var("group_end", 4);
                    s.coll(CollKind::Scatter)
                        .root(RankExpr::var("scatter_root"))
                        .groupwhen(RankExpr::rank().lt(RankExpr::var("group_end")))
                } else {
                    s.coll(CollKind::Scatter)
                        .root(1)
                        .groupwhen(RankExpr::rank().lt(RankExpr::lit(4)))
                };
                call.count(2).scatter(&send, &mut recv).unwrap();
                recv
            })
        };
        let literal = scatter(false);
        assert_eq!(literal[3], [6, 7]);
        assert_eq!(literal[4], [-1, -1], "rank 4 is outside the group");
        assert_eq!(scatter(true), literal);
    }

    #[test]
    fn unbound_clause_variable_is_reported() {
        let got = with_session(2, |s| {
            let mut buf = [0i64];
            match s
                .coll(CollKind::Bcast)
                .root(0)
                .groupwhen(RankExpr::rank().lt(RankExpr::var("never_set")))
                .bcast(&mut buf)
            {
                Err(e) => e.to_string(),
                Ok(()) => String::new(),
            }
        });
        for e in got {
            assert_eq!(e, "clause expression error: unknown variable `never_set`");
        }
    }

    #[test]
    fn alltoall_personalized_exchange() {
        let n = 4;
        let got = with_session(n, move |s| {
            let me = s.rank() as i64;
            // Chunk for destination j: [me, j].
            let send: Vec<i64> = (0..n as i64).flat_map(|j| [me, j]).collect();
            let mut recv = vec![-1i64; 2 * n];
            s.coll(CollKind::AllToAll)
                .count(2)
                .alltoall(&send, &mut recv)
                .unwrap();
            recv
        });
        for (r, v) in got.iter().enumerate() {
            for src in 0..n {
                assert_eq!(v[2 * src], src as i64, "rank {r} chunk from {src}");
                assert_eq!(v[2 * src + 1], r as i64);
            }
        }
    }

    #[test]
    fn reduce_sum_and_max() {
        let got = with_session(5, |s| {
            let me = s.rank() as f64;
            let mut sum = [me, 1.0];
            s.coll(CollKind::Reduce(ReduceOp::Sum))
                .root(0)
                .site(9100)
                .reduce(&mut sum)
                .unwrap();
            let mut max = [me];
            s.coll(CollKind::Reduce(ReduceOp::Max))
                .root(0)
                .site(9200)
                .reduce(&mut max)
                .unwrap();
            (sum, max[0])
        });
        assert_eq!(got[0].0, [10.0, 5.0]);
        assert_eq!(got[0].1, 4.0);
    }

    #[test]
    fn missing_root_rejected() {
        let got = with_session(2, |s| {
            let mut buf = [0i64];
            matches!(
                s.coll(CollKind::Bcast).bcast(&mut buf),
                Err(DirectiveError::Invalid(_))
            )
        });
        assert!(got.iter().all(|&ok| ok));
    }

    #[test]
    fn root_outside_group_rejected() {
        let got = with_session(4, |s| {
            let mut buf = [0i64];
            let r = s
                .coll(CollKind::Bcast)
                .root(1) // odd rank...
                .groupwhen((RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(0)))
                .bcast(&mut buf);
            matches!(
                r,
                Err(DirectiveError::RankOutOfRange { clause: "root", .. })
            )
        });
        assert!(got.iter().all(|&ok| ok));
    }

    #[test]
    fn collective_sync_is_consolidated() {
        let got = with_session(6, |s| {
            let mut buf = if s.rank() == 0 { [1i64; 4] } else { [0; 4] };
            s.coll(CollKind::Bcast).root(0).bcast(&mut buf).unwrap();
            s.ctx().stats.waitalls
        });
        // Root covers 5 sends with one waitall; receivers one each.
        assert!(got.iter().all(|&w| w == 1), "{got:?}");
    }
}
