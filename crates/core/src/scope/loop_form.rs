//! The loop form of a `comm_parameters` region
//! ([`CommSession::region_loop`]).
//!
//! Listing 7 runs every `comm_p2p` instance of its loop on every rank, so
//! host work is ranks × instances although only the pairs move data. The
//! loop form hands the engine the loop itself: a rectangular iteration
//! space and clause variables bound to affine functions of its indices.
//! When the region opens, each rank reduces `sendwhen`/`receivewhen` to
//! atoms `rank == e` with `e` affine in the indices, solves them for its
//! own iterations, and runs only those. The first iteration runs on every
//! rank and stands in for the skipped ones (DESIGN.md §9b, "Loop form").
//! Every executed iteration goes through the same `execute_p2p` as a
//! per-instance `comm_p2p`; a clause the solver cannot reduce makes the
//! loop run every iteration instead.

use std::ops::Range;

use super::{CommParams, CommSession, DirectiveError, P2pCall, Region, SiteRecord};
use crate::buffer::{RecvBuf, SendBuf};
use crate::clause::Diagnostic;
use crate::expr::{BinOp, CondExpr, EvalEnv, ExprError, RankExpr, Slot};
use crate::nf::{normalize_expr, Leaves, LinForm, NormErr, NormExpr, MAX_DIMS};

/// The iteration space and clause-variable bindings of a loop-form region
/// ([`CommSession::region_loop`]): one to three nested indices, each over
/// a half-open range, and variables that each iteration binds to
/// `base + Σ strides[d]·i_d` before its `comm_p2p` (`i_0` outermost).
///
/// Iterations are numbered in row-major order (the last index fastest),
/// which is the order they run in.
#[derive(Clone, Debug)]
pub struct CommLoop {
    dims: usize,
    start: [i64; MAX_DIMS],
    extent: [u64; MAX_DIMS],
    total: u64,
    binds: Vec<(String, LinForm)>,
}

impl CommLoop {
    /// The loop over `range`, with no inner indices or bindings yet.
    pub fn new(range: Range<i64>) -> CommLoop {
        CommLoop {
            dims: 0,
            start: [0; MAX_DIMS],
            extent: [0; MAX_DIMS],
            total: 1,
            binds: Vec::new(),
        }
        .inner(range)
    }

    /// Nest an index over `range` inside the existing ones.
    ///
    /// # Panics
    ///
    /// If the loop would nest more than three indices, or its iteration
    /// count would not fit in a `u64`.
    pub fn inner(mut self, range: Range<i64>) -> CommLoop {
        assert!(self.dims < MAX_DIMS, "a loop form nests at most 3 indices");
        let extent = (i128::from(range.end) - i128::from(range.start)).max(0) as u64;
        self.start[self.dims] = range.start;
        self.extent[self.dims] = extent;
        self.total = self
            .total
            .checked_mul(extent)
            .expect("the iteration count fits in a u64");
        self.dims += 1;
        self
    }

    /// Bind `name` to `base + Σ strides[d]·i_d` in every iteration (a
    /// missing stride is 0), replacing an earlier binding of `name`.
    ///
    /// # Panics
    ///
    /// If there are more strides than indices.
    pub fn bind(mut self, name: &str, base: i64, strides: &[i64]) -> CommLoop {
        assert!(
            strides.len() <= self.dims,
            "`{name}` has {} strides for {} indices",
            strides.len(),
            self.dims
        );
        let mut a = LinForm::konst(base);
        a.k[..strides.len()].copy_from_slice(strides);
        self.binds.retain(|(n, _)| n != name);
        self.binds.push((name.to_string(), a));
        self
    }

    /// The last value of index `d` (its range is non-empty).
    fn last(&self, d: usize) -> i64 {
        (i128::from(self.start[d]) + i128::from(self.extent[d]) - 1) as i64
    }

    fn binding(&self, name: &str) -> Option<LinForm> {
        self.binds.iter().find(|(n, _)| n == name).map(|&(_, a)| a)
    }

    /// Whether `f`, a form with no `rank` or `nprocs` term, evaluates
    /// without overflow everywhere in the space (when it is non-empty).
    /// Each term is monotone in its index, so at every point each partial
    /// sum of [`LinForm::at`] lies between the partial sums of the smallest
    /// and of the largest terms; if those two sums never overflow, no
    /// point's does.
    fn bounded(&self, f: &LinForm) -> bool {
        let extreme = |largest: bool| -> Result<i64, ExprError> {
            (0..self.dims).try_fold(f.c, |v, d| {
                let lo = BinOp::Mul.apply(f.k[d], self.start[d])?;
                let hi = BinOp::Mul.apply(f.k[d], self.last(d))?;
                BinOp::Add.apply(v, if largest { lo.max(hi) } else { lo.min(hi) })
            })
        };
        extreme(false).is_ok() && extreme(true).is_ok()
    }

    /// The index tuple of iteration `k < total`.
    fn index(&self, mut k: u64) -> [i64; MAX_DIMS] {
        let mut ix = [0; MAX_DIMS];
        for d in (0..self.dims).rev() {
            ix[d] = (i128::from(self.start[d]) + i128::from(k % self.extent[d])) as i64;
            k /= self.extent[d];
        }
        ix
    }

    /// The number of the iteration at index tuple `ix` (inside the space).
    fn number(&self, ix: &[i64; MAX_DIMS]) -> u64 {
        (0..self.dims).fold(0, |k, d| {
            k * self.extent[d] + (i128::from(ix[d]) - i128::from(self.start[d])) as u64
        })
    }
}

/// Which iterations of a loop a rank takes part in. `Listed` ones are in
/// the caller's buffer: the part that [`Solver::iters`] appended,
/// ascending and without duplicates.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Iters {
    All,
    Listed,
}

/// Reduces a region's clauses over a loop for one rank. `None` from any
/// method means the clause is outside what it solves.
struct Solver<'c> {
    space: &'c CommLoop,
    /// This rank and the session's variables when the region opens.
    env: &'c EvalEnv,
}

impl Solver<'_> {
    fn bound(&self, name: &str) -> bool {
        self.space.binding(name).is_some()
    }

    /// Whether `e` can change between iterations: it reads a bound name,
    /// or runs an opaque closure, which might.
    fn varies(&self, e: &RankExpr) -> bool {
        e.has_opaque() || e.any_var(&mut |n| self.bound(n))
    }

    /// [`Solver::varies`] for a condition.
    fn cond_varies(&self, c: &CondExpr) -> bool {
        c.has_opaque() || c.any_var(&mut |n| self.bound(n))
    }

    /// The iterations in which `c` holds for this rank. Listed iterations
    /// are appended to `out`; `&&` and `||` combine their operands' lists
    /// in place there, so one buffer serves the whole condition.
    fn iters(&self, c: &CondExpr, out: &mut Vec<u64>) -> Option<Iters> {
        if !self.cond_varies(c) {
            return Some(if c.eval(self.env).ok()? {
                Iters::All
            } else {
                Iters::Listed
            });
        }
        let start = out.len();
        match c {
            CondExpr::And(a, b) => {
                let x = self.iters(a, out)?;
                let mid = out.len();
                match (x, self.iters(b, out)?) {
                    (Iters::All, y) => Some(y),
                    (Iters::Listed, Iters::All) => Some(Iters::Listed),
                    (Iters::Listed, Iters::Listed) => {
                        intersect(out, start, mid);
                        Some(Iters::Listed)
                    }
                }
            }
            CondExpr::Or(a, b) => {
                let x = self.iters(a, out)?;
                let y = self.iters(b, out)?;
                if x == Iters::All || y == Iters::All {
                    out.truncate(start);
                    return Some(Iters::All);
                }
                out[start..].sort_unstable();
                dedup_from(out, start);
                Some(Iters::Listed)
            }
            CondExpr::Eq(RankExpr::Rank, e) | CondExpr::Eq(e, RankExpr::Rank) => {
                match normalize_expr(e, self) {
                    Ok(NormExpr::Lin(e)) => Some(self.solve(e, out)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// The iterations where `rank == e`, appended to `out`. With `j` the
    /// innermost index of nonzero stride, only the nonzero-stride indices
    /// before `j` are enumerated, each over the part of its range where
    /// the terms after it can still reach `rank`; `i_j` is then solved by
    /// exact division. Every index of zero stride takes every value: one
    /// after `j` makes a block of consecutive iteration numbers. So a rank
    /// that takes part in no iteration costs O(1) whatever the extents,
    /// as long as the clipped ranges hold at most a solution or so each.
    fn solve(&self, e: LinForm, out: &mut Vec<u64>) -> Iters {
        let space = self.space;
        let rank = i128::from(self.env.rank);
        let Some(j) = (0..space.dims).rev().find(|&d| e.k[d] != 0) else {
            return if i128::from(e.c) == rank {
                Iters::All
            } else {
                Iters::Listed
            };
        };
        if space.total == 0 {
            return Iters::Listed;
        }
        // `reach[d]`: the least and greatest sum of the terms of indices
        // `d..=j`. Terms are monotone, so the extremes are at the ends of
        // each range; `e` is bounded, so every term fits in `i64`.
        let mut reach = [(0i128, 0i128); MAX_DIMS + 1];
        for d in (0..=j).rev() {
            let ends = (
                i128::from(e.k[d]) * i128::from(space.start[d]),
                i128::from(e.k[d]) * i128::from(space.last(d)),
            );
            reach[d] = (
                reach[d + 1].0 + ends.0.min(ends.1),
                reach[d + 1].1 + ends.0.max(ends.1),
            );
        }
        let start = out.len();
        let mut ix = space.start;
        self.walk(&e, j, &reach, 0, rank - i128::from(e.c), &mut ix, out);
        if (0..j).any(|d| e.k[d] == 0) {
            // A free index before `j` interleaves the blocks.
            out[start..].sort_unstable();
        }
        Iters::Listed
    }

    /// Fix the nonzero-stride indices `d..=j` so the terms from `d` on
    /// sum to `rest`, and emit the iterations of each solution.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        e: &LinForm,
        j: usize,
        reach: &[(i128, i128); MAX_DIMS + 1],
        d: usize,
        rest: i128,
        ix: &mut [i64; MAX_DIMS],
        out: &mut Vec<u64>,
    ) {
        let space = self.space;
        let k = i128::from(e.k[d]);
        if k == 0 {
            return self.walk(e, j, reach, d + 1, rest, ix, out);
        }
        let (lo, hi) = (i128::from(space.start[d]), i128::from(space.last(d)));
        if d == j {
            if rest % k == 0 && (lo..=hi).contains(&(rest / k)) {
                ix[j] = (rest / k) as i64;
                self.emit(e, j, ix, out);
            }
            return;
        }
        // `k·i_d` must lie in `rest - reach[d + 1]`.
        let (a, b) = (rest - reach[d + 1].1, rest - reach[d + 1].0);
        let (a, b) = if k > 0 { (a, b) } else { (b, a) };
        let (from, to) = (div_ceil(a, k).max(lo), div_floor(b, k).min(hi));
        for i in from..=to {
            ix[d] = i as i64;
            self.walk(e, j, reach, d + 1, rest - k * i, ix, out);
        }
    }

    /// Emit the iterations of a solution `ix` of the nonzero-stride
    /// indices: every value of each zero-stride index before `j`, each with
    /// the block of every index after `j` (those of `ix` are at their start).
    fn emit(&self, e: &LinForm, j: usize, ix: &mut [i64; MAX_DIMS], out: &mut Vec<u64>) {
        let space = self.space;
        let block: u64 = space.extent[j + 1..space.dims].iter().product();
        let free = |d: usize| e.k[d] == 0;
        loop {
            let first = space.number(ix);
            out.extend(first..first + block);
            // Next tuple of the free indices before `j`, the last fastest.
            let Some(d) = (0..j).rev().find(|&d| free(d) && ix[d] < space.last(d)) else {
                break;
            };
            ix[d] += 1;
            for d in (d + 1..j).filter(|&d| free(d)) {
                ix[d] = space.start[d];
            }
        }
        for d in (0..j).filter(|&d| free(d)) {
            ix[d] = space.start[d];
        }
    }
}

/// The solver's leaves: `rank` and `nprocs` are this rank's, a loop-bound
/// variable is its binding, and any other variable its value when the
/// region opens. Every node must stay bounded over the space, so the atom's
/// form evaluates without error at every point.
impl Leaves for Solver<'_> {
    fn rank(&self) -> LinForm {
        LinForm::konst(self.env.rank)
    }

    fn nprocs(&self) -> LinForm {
        LinForm::konst(self.env.nranks)
    }

    fn var(&self, name: &str) -> Result<LinForm, NormErr> {
        match self.space.binding(name) {
            Some(b) => Ok(b),
            None => self.env.vars.var(name),
        }
    }

    fn accept(&self, form: &LinForm) -> Result<(), NormErr> {
        if self.space.bounded(form) {
            Ok(())
        } else {
            Err(NormErr::Overflow)
        }
    }
}

fn div_floor(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i128, b: i128) -> i128 {
    -div_floor(-a, b)
}

/// Keep in `out[start..mid]` what is also in `out[mid..]`; both ascending.
fn intersect(out: &mut Vec<u64>, start: usize, mid: usize) {
    let (mut w, mut y) = (start, mid);
    for x in start..mid {
        let v = out[x];
        while y < out.len() && out[y] < v {
            y += 1;
        }
        if y < out.len() && out[y] == v {
            out[w] = v;
            w += 1;
        }
    }
    out.truncate(w);
}

/// Drop repeats from the ascending `out[start..]`.
fn dedup_from(out: &mut Vec<u64>, start: usize) {
    let mut w = start;
    for x in start..out.len() {
        if w == start || out[x] != out[w - 1] {
            out[w] = out[x];
            w += 1;
        }
    }
    out.truncate(w);
}

/// One iteration of a loop-form region: it runs the iteration's single
/// `comm_p2p`, which inherits every clause from the region.
pub struct LoopIter<'r, 's, 'a> {
    region: &'r mut Region<'s, 'a>,
}

impl<'r, 's, 'a> LoopIter<'r, 's, 'a> {
    /// Start the iteration's `comm_p2p`.
    #[inline(always)]
    pub fn p2p<'data>(self) -> LoopP2p<'r, 's, 'a, 'data> {
        LoopP2p(self.region.p2p())
    }
}

/// The `comm_p2p` of a loop-form iteration: buffers and a site only. A
/// clause override or an overlap body would have to run on iterations
/// this rank skips, so the handle has neither.
pub struct LoopP2p<'r, 's, 'a, 'data>(P2pCall<'r, 's, 'a, 'data>);

impl<'data> LoopP2p<'_, '_, '_, 'data> {
    /// See [`P2pCall::site`]; every iteration must name the same site.
    #[inline(always)]
    pub fn site(self, site: u32) -> Self {
        LoopP2p(self.0.site(site))
    }

    /// See [`P2pCall::sbuf`].
    #[inline(always)]
    pub fn sbuf(self, b: impl SendBuf + 'data) -> Self {
        LoopP2p(self.0.sbuf(b))
    }

    /// See [`P2pCall::rbuf`].
    #[inline(always)]
    pub fn rbuf(self, b: impl RecvBuf + 'data) -> Self {
        LoopP2p(self.0.rbuf(b))
    }

    /// Execute; see [`P2pCall::run`].
    #[inline(always)]
    pub fn run(self) -> Result<(), DirectiveError> {
        self.0.run()
    }
}

impl<'a> CommSession<'a> {
    /// Execute a `comm_parameters` region whose body is a loop over
    /// `space`: before each iteration the space's variables are bound, then
    /// `body` gets the iteration's indices and runs its one `comm_p2p`.
    /// Region-level behaviour is [`CommSession::region`]'s.
    ///
    /// When the region opens, this rank solves `sendwhen`/`receivewhen`
    /// for the iterations it takes part in, and `body` runs for those and
    /// for the first iteration only. That needs each clause to be built
    /// from atoms `rank == e` (`e` affine in the bound variables and
    /// literals) under `&&`/`||`, or to not vary across the loop, and
    /// `count` to not vary. Otherwise `body` runs for every iteration, as
    /// in the per-instance loop. Either way every rank sees the same
    /// `max_comm_iter` failure at the same iteration, and afterwards the
    /// variables hold their last iteration's values.
    ///
    /// `body` must run exactly one `comm_p2p` at one site and do nothing
    /// else another rank could observe; an iteration that runs none fails
    /// the region. A binding that overflows `i64` anywhere in the space
    /// fails with [`ExprError::Overflow`] before the region opens.
    pub fn region_loop<B>(
        &mut self,
        params: &CommParams,
        space: &CommLoop,
        mut body: B,
    ) -> Result<(), DirectiveError>
    where
        B: for<'r, 's> FnMut(&[i64], LoopIter<'r, 's, 'a>) -> Result<(), DirectiveError>,
    {
        if space.total > 0 && !space.binds.iter().all(|(_, b)| space.bounded(b)) {
            return Err(DirectiveError::Expr(ExprError::Overflow));
        }
        self.region(params, |reg| reg.run_loop(space, &mut body))?
    }
}

impl<'a> Region<'_, 'a> {
    fn run_loop<B>(&mut self, space: &CommLoop, body: &mut B) -> Result<(), DirectiveError>
    where
        B: for<'r, 's> FnMut(&[i64], LoopIter<'r, 's, 'a>) -> Result<(), DirectiveError>,
    {
        if space.total == 0 {
            return Ok(());
        }
        // Both lists are lent by the session, like the region's others.
        let mut slots = std::mem::take(&mut self.lists.slots);
        let vars = &mut self.session.env.vars;
        slots.extend(space.binds.iter().map(|(name, _)| vars.slot(name)));
        let mut own = std::mem::take(&mut self.lists.iters);
        let out = self.run_iterations(space, &slots, &mut own, body);
        slots.clear();
        own.clear();
        self.lists.slots = slots;
        self.lists.iters = own;
        out
    }

    fn run_iterations<B>(
        &mut self,
        space: &CommLoop,
        slots: &[Slot],
        own: &mut Vec<u64>,
        body: &mut B,
    ) -> Result<(), DirectiveError>
    where
        B: for<'r, 's> FnMut(&[i64], LoopIter<'r, 's, 'a>) -> Result<(), DirectiveError>,
    {
        let total = space.total;
        if self.own_iterations(space, own) {
            // Iteration `cap` is where every rank exceeds
            // `max_comm_iter`; it runs (and fails) on every rank.
            let cap = self.max_iter.map_or(u64::MAX, |b| b.max(0) as u64);
            self.iteration(space, slots, 0, body)?;
            for &k in own.iter().filter(|&&k| k > 0).take_while(|&&k| k < cap) {
                self.iteration(space, slots, k, body)?;
            }
            if total > cap {
                self.iteration(space, slots, cap, body)?;
            }
        } else {
            for k in 0..total {
                self.iteration(space, slots, k, body)?;
            }
        }
        if let Some(rec) = self.lists.sites.first_mut() {
            rec.executions = total;
        }
        self.bind(space, slots, &space.index(total - 1));
        Ok(())
    }

    /// Whether the clauses reduce to a list of this rank's iterations,
    /// which is then in `own`; otherwise every iteration runs.
    fn own_iterations(&self, space: &CommLoop, own: &mut Vec<u64>) -> bool {
        let solver = Solver {
            space,
            env: &self.session.env,
        };
        let clauses = self.clauses;
        if clauses.count.as_ref().is_some_and(|c| solver.varies(c)) {
            return false;
        }
        // `sendwhen || receivewhen`, each true when absent.
        let mut when = |c: &Option<CondExpr>| {
            c.as_ref()
                .map_or(Some(Iters::All), |c| solver.iters(c, own))
        };
        let listed = matches!(
            (when(&clauses.sendwhen), when(&clauses.receivewhen)),
            (Some(Iters::Listed), Some(Iters::Listed))
        );
        if listed {
            own.sort_unstable();
            dedup_from(own, 0);
        }
        listed
    }

    fn bind(&mut self, space: &CommLoop, slots: &[Slot], ix: &[i64; MAX_DIMS]) {
        // A binding has no `rank` or `nprocs` term.
        for ((_, b), &slot) in space.binds.iter().zip(slots) {
            let v = b.at(0, 0, &ix[..space.dims]).expect("bindings are bounded");
            self.session.env.vars.set_slot(slot, v);
        }
    }

    /// Run iteration `k` as the per-instance loop would, with its site's
    /// count as if every earlier iteration had run here too.
    fn iteration<B>(
        &mut self,
        space: &CommLoop,
        slots: &[Slot],
        k: u64,
        body: &mut B,
    ) -> Result<(), DirectiveError>
    where
        B: for<'r, 's> FnMut(&[i64], LoopIter<'r, 's, 'a>) -> Result<(), DirectiveError>,
    {
        let ix = space.index(k);
        self.bind(space, slots, &ix);
        if let Some(rec) = self.lists.sites.first_mut() {
            rec.executions = k;
        }
        let out = body(&ix[..space.dims], LoopIter { region: self });
        // A failed `comm_p2p` ends the loop even if `body` swallowed it.
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        out?;
        match self.lists.sites[..] {
            [SiteRecord { executions, .. }] if executions == k + 1 => Ok(()),
            _ => Err(self.broken_contract()),
        }
    }

    #[cold]
    fn broken_contract(&mut self) -> DirectiveError {
        let e = DirectiveError::Invalid(vec![Diagnostic::error(
            "comm_parameters loop: every iteration must run exactly one comm_p2p, at one site",
        )]);
        self.error.get_or_insert_with(|| e.clone());
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Prim, PrimMut};
    use mpisim::Comm;
    use netsim::{run, SimConfig};

    /// The iterations `when` selects for `rank`, if the solver reduces it.
    fn solve(space: &CommLoop, when: &CondExpr, rank: usize) -> Option<Vec<u64>> {
        let env = EvalEnv::new(rank, 8).with("x", 3);
        let mut own = vec![u64::MAX];
        let iters = Solver { space, env: &env }.iters(when, &mut own)?;
        assert_eq!(own[0], u64::MAX, "the solver keeps what the buffer held");
        Some(match iters {
            Iters::All => {
                assert_eq!(own.len(), 1, "nothing listed for all iterations");
                (0..space.total).collect()
            }
            Iters::Listed => own.split_off(1),
        })
    }

    /// The same by testing every iteration, as the per-instance loop does.
    fn brute(space: &CommLoop, when: &CondExpr, rank: usize) -> Vec<u64> {
        let mut env = EvalEnv::new(rank, 8).with("x", 3);
        (0..space.total)
            .filter(|&k| {
                let ix = space.index(k);
                for (name, b) in &space.binds {
                    env.set(name, b.at(0, 0, &ix[..space.dims]).unwrap());
                }
                when.eval(&env).unwrap()
            })
            .collect()
    }

    #[test]
    fn solver_matches_testing_every_iteration() {
        let space = CommLoop::new(0..4)
            .inner(-2..3)
            .inner(1..3)
            .bind("a", 1, &[2])
            .bind("b", 0, &[1, 1, 0])
            .bind("c", -9, &[0, 3, 5]);
        let (rank, lit, var) = (RankExpr::rank, RankExpr::lit, RankExpr::var);
        let whens = [
            rank().eq(var("a")),
            var("b").eq(rank()),
            rank().eq(var("c")),
            rank().eq(lit(2) * var("a") - var("b") + var("x")),
            rank().eq(var("a")).or(rank().eq(var("b"))),
            rank().eq(var("a")).and(rank().eq(var("b"))),
            rank().eq(var("a")).and(RankExpr::nranks().gt(lit(2))),
            rank().eq(lit(3)),
            CondExpr::True,
        ];
        for when in &whens {
            for r in 0..8 {
                assert_eq!(
                    solve(&space, when, r),
                    Some(brute(&space, when, r)),
                    "{when} at rank {r}"
                );
            }
        }
    }

    /// SplitMix64: a small deterministic generator for the spaces below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..hi`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo) as u64) as i64
        }
    }

    #[test]
    fn solver_matches_testing_every_iteration_on_generated_spaces() {
        // One to three indices over ranges that may be empty, bindings
        // whose strides are zero a third of the time and otherwise in
        // -3..=3, and ranks past every value, so clipped ranges are often
        // empty. `seen` counts the stride shapes the generator produced.
        // The last atoms mix bound variables with `rank`, `nprocs` and
        // `%` or `/` subterms that do not vary, which the solver folds.
        let (rank, lit, var) = (RankExpr::rank, RankExpr::lit, RankExpr::var);
        let nprocs = RankExpr::nranks;
        let whens = [
            rank().eq(var("a")),
            var("b").eq(rank()),
            rank().eq(var("a") + var("b") - var("c")),
            rank().eq(lit(2) * var("c") + var("x")),
            rank().eq(var("a")).or(rank().eq(var("b"))),
            rank().eq(var("b")).and(rank().eq(var("c"))),
            rank()
                .eq(var("a"))
                .or(rank().eq(var("b")).and(rank().eq(var("c")))),
            rank().eq(var("a") + rank() / lit(2) - nprocs() % lit(3)),
            (var("c") - (rank() + var("x")) % lit(4) + nprocs() / lit(3)).eq(rank()),
            rank()
                .eq(var("b") * ((nprocs() - rank()) / lit(5)) + rank() % nprocs())
                .or(rank().eq(-var("a") + (lit(2) * nprocs() - var("x")) / lit(-3))),
        ];
        let mut rng = Rng(0x1f0_2a5e);
        let mut seen = [0; 5];
        for _ in 0..300 {
            let range = |rng: &mut Rng| {
                let start = rng.range(-3, 3);
                let extent = if rng.range(0, 8) == 0 {
                    0
                } else {
                    rng.range(1, 5)
                };
                start..start + extent
            };
            let dims = 1 + (rng.next() % 3) as usize;
            let mut space = CommLoop::new(range(&mut rng));
            for _ in 1..dims {
                space = space.inner(range(&mut rng));
            }
            for name in ["a", "b", "c"] {
                let strides: Vec<i64> = (0..dims)
                    .map(|_| match rng.range(0, 3) {
                        0 => 0,
                        _ => [-3, -2, -1, 1, 2, 3][rng.range(0, 6) as usize],
                    })
                    .collect();
                let nonzero = |d: usize| strides[d] != 0;
                let j = (0..dims).rev().find(|&d| nonzero(d));
                seen[0] += usize::from(j.is_some_and(|j| (0..j).any(|d| !nonzero(d))));
                seen[1] += usize::from(j.is_some_and(|j| j + 1 < dims));
                seen[2] += usize::from(strides.iter().any(|&k| k < 0));
                seen[3] += usize::from(strides.iter().any(|&k| k.abs() > 1));
                seen[4] += usize::from(dims == 3 && (0..dims).all(nonzero));
                space = space.bind(name, rng.range(-2, 9), &strides);
            }
            for when in &whens {
                for r in 0..12 {
                    assert_eq!(
                        solve(&space, when, r),
                        Some(brute(&space, when, r)),
                        "{when} at rank {r} over {space:?}"
                    );
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "stride shapes seen: {seen:?}");
    }

    #[test]
    fn a_bystander_solves_a_huge_loop_at_once() {
        // Spin's region 2 with 2^40 instances: enumerating `m` would take
        // hours; the solver clips it to the one value that can reach the
        // rank, or to none.
        let m = 1i64 << 40;
        let space = CommLoop::new(0..m)
            .inner(1..16)
            .bind("src", 1, &[16])
            .bind("dst", 1, &[16, 1]);
        let (rank, var) = (RankExpr::rank, RankExpr::var);
        let dst = rank().eq(var("dst"));
        assert_eq!(solve(&space, &dst, 0), Some(vec![]));
        // 1000 = 1 + 16·62 + 7: iteration 62·15 + (7 - 1).
        assert_eq!(solve(&space, &dst, 1000), Some(vec![62 * 15 + 6]));
        assert_eq!(solve(&space, &dst, 1 << 50), Some(vec![]));
        // A privileged rank sends in a block of 15 consecutive iterations.
        let src = rank().eq(var("src")).or(dst);
        assert_eq!(solve(&space, &src, 17), Some((15..30).collect()));
    }

    #[test]
    fn solver_declines_what_it_cannot_reduce() {
        let space = CommLoop::new(0..4).bind("a", 0, &[1]);
        let (rank, lit, var) = (RankExpr::rank, RankExpr::lit, RankExpr::var);
        for when in [
            (rank() % lit(2)).eq(var("a")),
            rank().eq(var("a") * var("a")),
            rank().eq(var("a") / lit(2)),
            rank().ne(var("a")),
            var("a").lt(lit(2)),
            rank().eq(var("a")).not(),
            rank().eq(var("a") + var("unbound_but_invariant")),
            CondExpr::opaque("any", |_| true),
            // Every value fits, but `a * MAX` does not at a = 2 and 3.
            rank().eq(var("a") * lit(i64::MAX) - var("a") * lit(i64::MAX)),
        ] {
            assert!(solve(&space, &when, 1).is_none(), "{when} was reduced");
        }
    }

    #[test]
    fn overflowing_binding_fails_before_the_region_opens() {
        let res = run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut s = CommSession::new(ctx, comm);
            let space = CommLoop::new(0..3).bind("v", i64::MAX - 1, &[1]);
            let params = CommParams::new().sender(0i64).receiver(1i64);
            let out = s.region_loop(&params, &space, |_, _| unreachable!());
            (format!("{out:?}"), s.program().len())
        });
        for (out, regions) in res.per_rank {
            assert_eq!(out, "Err(Expr(Overflow))");
            assert_eq!(regions, 0);
        }
    }

    #[test]
    fn variables_keep_the_last_iteration_and_a_silent_body_fails() {
        let res = run(SimConfig::new(3), |ctx| {
            let comm = Comm::world(ctx);
            let mut s = CommSession::new(ctx, comm);
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::var("to"))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::var("to")));
            let space = CommLoop::new(0..2)
                .inner(0..2)
                .bind("to", 1, &[1])
                .bind("j", 0, &[0, 1]);
            let src = [1.0f64];
            let mut dst = [[0.0f64]; 2];
            s.region_loop(&params, &space, |ix, it| {
                it.p2p()
                    .site(3)
                    .sbuf(Prim::new("src", &src))
                    .rbuf(PrimMut::new("dst", &mut dst[ix[1] as usize]))
                    .run()
            })
            .unwrap();
            let vars = (s.env().vars.get("to"), s.env().vars.get("j"));
            let silent = s.region_loop(&params, &space, |_, _| Ok(()));
            (vars, dst, silent.unwrap_err().to_string())
        });
        for (rank, (vars, dst, silent)) in res.per_rank.into_iter().enumerate() {
            assert_eq!(vars, (Some(2), Some(1)), "rank {rank}");
            if rank > 0 {
                assert_eq!(dst, [[1.0], [1.0]], "rank {rank}");
            }
            assert!(silent.contains("exactly one comm_p2p"), "{silent}");
        }
    }
}
