//! Backend-agnostic communication layer for MCM-DIST.
//!
//! The paper's Algorithms 2–4 are written purely in terms of collective
//! primitives — expand/fold SpMV, personalized all-to-alls (INVERT),
//! allreduce emptiness checks, and one-sided RMA path walks. This module
//! abstracts that surface into the [`Communicator`] trait so the whole
//! pipeline in `mcm-core` is written once and executes on either backend:
//!
//! * **Simulator** ([`DistCtx`]) — the cost-model backend. It executes in
//!   one address space: collectives route data locally, matrices live in a
//!   single physical block ([`Communicator::exec_grid`] is `1 × 1`), and
//!   SpMSpV is one fused product. Every operation charges the α–β–γ model
//!   for the logical `p_r × p_c` grid of its machine, so figure harnesses
//!   reproduce their modeled-time output bit for bit.
//! * **Engine** ([`EngineComm`]) — `p` real ranks (OS threads) over the
//!   [`crate::engine::RankComm`] channel mesh, promoted from a per-kernel
//!   validation harness to a first-class execution backend. Every
//!   collective moves real message buffers; RMA epochs run on atomic
//!   windows ([`mcm_sparse::DenseVec::as_atomic_view`]). The same cost
//!   formulas are still charged (from the same observed volumes), so the
//!   two backends stay account-comparable.
//!
//! The distributed SpMSpV is one method on both backends,
//! [`Communicator::spmspv`]`(a, kernel, plan, x, mul, fold)`: `fold` is the
//! semiring addition, any associative `Fn(&mut U, U)` — the matching
//! semirings' selections, the initializers' picks and their degree counts
//! alike.
//!
//! RMA is abstracted the same way: origins implement [`RmaTask`] against
//! the [`RmaWin`] one-sided surface (get/put/fetch_and_put), and
//! [`Communicator::rma_epoch`] runs an exposure epoch — through the
//! schedule-driven [`SimWindow`] interleaver on the simulator, or through
//! per-rank atomic windows closed by a zero-payload all-to-all fence on
//! the engine. The simtest [`Schedule`] perturbs both: the simulator's
//! epoch consumes the identical decision stream the old hard-wired path
//! did (replay seeds stay valid), and the engine additionally perturbs
//! rank skew *inside* the epoch via [`RankComm::perturb_point`], with the
//! closing fence exercising the per-source FIFO stash.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::collectives::max_count;
use crate::ctx::DistCtx;
use crate::distmat::{DistMatrix, SpmvPlan};
use crate::engine::{run_ranks, run_ranks_sched, RankComm};
use crate::machine::MachineConfig;
use crate::sched::{FaultPlan, Schedule, SimWindow};
use crate::timers::Kernel;
use mcm_sparse::{DenseVec, SpVec, Vidx, NIL};

/// Reduction operator for [`Communicator::allreduce`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of contributions (the `f ≠ φ` emptiness checks).
    Sum,
    /// Maximum contribution.
    Max,
    /// Minimum contribution.
    Min,
}

impl ReduceOp {
    /// Folds an iterator of per-rank contributions.
    pub fn fold(self, it: impl Iterator<Item = u64>) -> u64 {
        match self {
            ReduceOp::Sum => it.sum(),
            ReduceOp::Max => it.max().unwrap_or(0),
            ReduceOp::Min => it.min().unwrap_or(u64::MAX),
        }
    }
}

/// One-sided window surface: `MPI_Get` / `MPI_Put` / `MPI_Fetch_and_op`
/// (with replace), over a set of window-exposed vectors indexed by `win`.
pub trait RmaWin {
    /// `MPI_Get`.
    fn get(&mut self, win: usize, idx: Vidx) -> Vidx;
    /// `MPI_Put`.
    fn put(&mut self, win: usize, idx: Vidx, v: Vidx);
    /// `MPI_Fetch_and_op` with replace: atomically swap in `v`, return the
    /// previous value.
    fn fetch_and_put(&mut self, win: usize, idx: Vidx, v: Vidx) -> Vidx;
}

impl RmaWin for SimWindow<'_> {
    fn get(&mut self, win: usize, idx: Vidx) -> Vidx {
        SimWindow::get(self, win, idx)
    }
    fn put(&mut self, win: usize, idx: Vidx, v: Vidx) {
        SimWindow::put(self, win, idx, v)
    }
    fn fetch_and_put(&mut self, win: usize, idx: Vidx, v: Vidx) -> Vidx {
        SimWindow::fetch_and_put(self, win, idx, v)
    }
}

/// A concurrent origin's op stream, driven one one-sided call at a time by
/// [`Communicator::rma_epoch`]. The backend-agnostic counterpart of
/// [`crate::sched::OriginTask`].
pub trait RmaTask {
    /// Issues the next one-sided call; `false` = this origin is done.
    fn step(&mut self, win: &mut dyn RmaWin) -> bool;
}

/// Engine-backend RMA window: shared atomic views of the exposed vectors.
/// All accesses are `SeqCst`, so a `fetch_and_put` is a real atomic swap —
/// the property Algorithm 4's disjointness argument needs under true
/// thread concurrency. Honors [`FaultPlan::drop_fetch`] like [`SimWindow`]
/// so fault-injection sweeps cover the engine path too.
pub struct AtomicWin<'a> {
    vecs: &'a [&'a [AtomicU32]],
    fault: FaultPlan,
    ops: u64,
}

impl<'a> AtomicWin<'a> {
    /// Opens a window over shared atomic views.
    pub fn new(vecs: &'a [&'a [AtomicU32]], fault: FaultPlan) -> Self {
        Self { vecs, fault, ops: 0 }
    }

    /// One-sided calls issued through this origin's window handle.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

impl RmaWin for AtomicWin<'_> {
    fn get(&mut self, win: usize, idx: Vidx) -> Vidx {
        self.ops += 1;
        self.vecs[win][idx as usize].load(Ordering::SeqCst)
    }
    fn put(&mut self, win: usize, idx: Vidx, v: Vidx) {
        self.ops += 1;
        self.vecs[win][idx as usize].store(v, Ordering::SeqCst);
    }
    fn fetch_and_put(&mut self, win: usize, idx: Vidx, v: Vidx) -> Vidx {
        self.ops += 1;
        let prev = self.vecs[win][idx as usize].swap(v, Ordering::SeqCst);
        if self.fault.drop_fetch {
            return NIL;
        }
        prev
    }
}

/// Records one completed RMA exposure epoch and its one-sided op count.
#[inline]
fn record_rma_epoch(backend: &'static str, ops: u64) {
    if mcm_obs::metrics_enabled() {
        let labels = [("backend", backend)];
        mcm_obs::counter_add("mcm_rma_epochs_total", &labels, 1);
        mcm_obs::counter_add("mcm_rma_ops_total", &labels, ops);
    }
}

/// Interleaves RMA task streams under a schedule-chosen service order —
/// the [`RmaTask`] twin of [`crate::sched::run_interleaved`], consuming
/// picks from the same decision stream.
fn interleave_tasks<W: RmaWin, T: RmaTask>(
    win: &mut W,
    sched: &mut Schedule,
    tasks: &mut [T],
) -> u64 {
    let mut live: Vec<usize> = (0..tasks.len()).collect();
    let mut steps = 0u64;
    while !live.is_empty() {
        let k = sched.pick(live.len());
        steps += 1;
        if !tasks[live[k]].step(win) {
            live.swap_remove(k);
        }
    }
    steps
}

/// The backend-agnostic communication surface MCM-DIST is written against.
///
/// Every method presents the *global* exchange, one entry per rank, with
/// each backend deciding how to execute it (a local routing pass and a
/// cost charge on the simulator, a real channel-mesh collective per rank
/// on the engine). `words_per_elem` converts element counts to the 8-byte
/// words the cost model charges (2 for `(index, value)` pairs, 1 for bare
/// indices).
pub trait Communicator {
    /// The accounting context (grid, cost model, timers, schedule).
    fn ctx(&self) -> &DistCtx;

    /// Mutable accounting context.
    fn ctx_mut(&mut self) -> &mut DistCtx;

    /// Process count `p`.
    fn p(&self) -> usize {
        self.ctx().p()
    }

    /// Threads per process `t`.
    fn threads(&self) -> usize {
        self.ctx().threads()
    }

    /// The **physical** grid this backend executes matrix blocks on: the
    /// accounting grid itself on the engine, a single `1 × 1` block on the
    /// simulator (which still charges the logical grid). Matrix assembly
    /// must use this grid so blocks match the execution layout.
    fn exec_grid(&self) -> (usize, usize);

    /// Personalized all-to-all: `sends[src]` lists rank `src`'s outgoing
    /// `(dst, item)` pairs; the result holds one list per destination, its
    /// items in source-ascending, then send, order. Charges
    /// `words_per_elem · max(sent, received)` of the bottleneck rank.
    fn alltoallv<T: Send + Clone>(
        &mut self,
        kernel: Kernel,
        words_per_elem: u64,
        sends: Vec<Vec<(usize, T)>>,
    ) -> Vec<Vec<T>>;

    /// Allgather: every rank contributes `contribs[rank]`; every rank ends
    /// with all contributions in rank order (returned once — the backends
    /// verify replication, the caller sees one copy).
    fn allgatherv<T: Send + Clone>(
        &mut self,
        kernel: Kernel,
        words_per_elem: u64,
        contribs: Vec<Vec<T>>,
    ) -> Vec<Vec<T>>;

    /// Allreduce of one control word per rank (NOT work-scaled — control
    /// traffic does not grow with the matrix).
    fn allreduce(&mut self, kernel: Kernel, per_rank: &[u64], op: ReduceOp) -> u64;

    /// Distributed semiring SpMSpV `y = A ⊗ x` (expand allgather → local
    /// multiply → fold alltoallv), reusing `plan`'s per-block buffers.
    /// `fold(acc, inc)` is the semiring addition and must be associative
    /// (a selection, a first- or last-arrival pick, a count). Deterministic
    /// on both backends: per-row candidates fold in ascending global column
    /// order.
    fn spmspv<T, U>(
        &mut self,
        a: &DistMatrix,
        kernel: Kernel,
        plan: &mut SpmvPlan<U>,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        fold: impl Fn(&mut U, U) + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync;

    /// One RMA exposure epoch: exposes `wins`, drives every task's op
    /// stream to completion, closes the epoch (a fence on the engine).
    /// Returns the interleaver's service-step count under a perturbed
    /// schedule, 0 on the friendly schedule.
    fn rma_epoch<W: RmaTask + Send>(
        &mut self,
        kernel: Kernel,
        wins: Vec<&mut DenseVec>,
        tasks: &mut [W],
    ) -> u64;
}

/// The accounting both backends share for [`Communicator::alltoallv`]:
/// counts each rank's sent and received items, charges one alltoallv over
/// all `p` ranks at the bottleneck rank's volume, and returns the
/// per-destination receive counts.
fn charge_routed<T>(
    ctx: &mut DistCtx,
    kernel: Kernel,
    words_per_elem: u64,
    sends: &[Vec<(usize, T)>],
) -> Vec<u64> {
    let p = ctx.p();
    assert_eq!(sends.len(), p, "one send list per rank");
    let mut recv_tot = vec![0u64; p];
    let mut send_max = 0u64;
    for list in sends {
        send_max = send_max.max(list.len() as u64);
        for &(dst, _) in list {
            recv_tot[dst] += 1;
        }
    }
    let bottleneck = send_max.max(max_count(&recv_tot));
    ctx.charge_alltoallv(kernel, p, words_per_elem * bottleneck);
    recv_tot
}

// ---------------------------------------------------------------------------
// Simulator backend
// ---------------------------------------------------------------------------

impl Communicator for DistCtx {
    fn ctx(&self) -> &DistCtx {
        self
    }

    fn ctx_mut(&mut self) -> &mut DistCtx {
        self
    }

    fn exec_grid(&self) -> (usize, usize) {
        (1, 1)
    }

    fn alltoallv<T: Send + Clone>(
        &mut self,
        kernel: Kernel,
        words_per_elem: u64,
        sends: Vec<Vec<(usize, T)>>,
    ) -> Vec<Vec<T>> {
        let _span = mcm_obs::kernel_span("alltoallv", kernel.name());
        let recv_tot = charge_routed(self, kernel, words_per_elem, &sends);
        // One pass over the pairs, sources ascending: O(p + nnz).
        let mut recvd: Vec<Vec<T>> =
            recv_tot.iter().map(|&n| Vec::with_capacity(n as usize)).collect();
        for (dst, item) in sends.into_iter().flatten() {
            recvd[dst].push(item);
        }
        recvd
    }

    fn allgatherv<T: Send + Clone>(
        &mut self,
        kernel: Kernel,
        words_per_elem: u64,
        contribs: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let _span = mcm_obs::kernel_span("allgatherv", kernel.name());
        let p = self.p();
        assert_eq!(contribs.len(), p, "one contribution per rank");
        let total: u64 = contribs.iter().map(|c| c.len() as u64).sum();
        self.charge_allgather(kernel, p, words_per_elem * total);
        contribs
    }

    fn allreduce(&mut self, kernel: Kernel, per_rank: &[u64], op: ReduceOp) -> u64 {
        let _span = mcm_obs::kernel_span("allreduce", kernel.name());
        assert_eq!(per_rank.len(), self.p(), "one contribution per rank");
        self.charge_allreduce(kernel, 1);
        op.fold(per_rank.iter().copied())
    }

    fn spmspv<T, U>(
        &mut self,
        a: &DistMatrix,
        kernel: Kernel,
        plan: &mut SpmvPlan<U>,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        fold: impl Fn(&mut U, U) + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        let _span = mcm_obs::kernel_span("spmspv", kernel.name());
        a.spmspv_fused(self, kernel, plan, x, mul, fold)
    }

    fn rma_epoch<W: RmaTask + Send>(
        &mut self,
        kernel: Kernel,
        wins: Vec<&mut DenseVec>,
        tasks: &mut [W],
    ) -> u64 {
        let _span = mcm_obs::kernel_span("rma_epoch", kernel.name());
        match self.sched.take() {
            Some(mut sched) => {
                // Adversarial interleaving, consuming the schedule's pick
                // stream exactly like the pre-trait epochs did — replay
                // seeds and trace hashes stay valid.
                let (steps, ops) = {
                    let mut win = SimWindow::new(wins, sched.fault());
                    let steps = interleave_tasks(&mut win, &mut sched, tasks);
                    (steps, win.ops())
                };
                self.sched = Some(sched);
                record_rma_epoch("sim", ops);
                steps
            }
            None => {
                // Friendly schedule: origins complete in program order.
                let mut win = SimWindow::new(wins, FaultPlan::default());
                for t in tasks.iter_mut() {
                    while t.step(&mut win) {}
                }
                record_rma_epoch("sim", win.ops());
                0
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Engine backend
// ---------------------------------------------------------------------------

/// The thread-per-rank execution backend: every collective runs as a real
/// exchange over the [`RankComm`] channel mesh, with `p` ranks on a square
/// `√p × √p` grid. Each rank runs one serial local multiply on its block;
/// its `threads` are modeled only, dividing charged compute as on the
/// simulator.
///
/// The embedded [`DistCtx`] mirrors the simulator's cost accounting from
/// the volumes the engine actually moves, so per-kernel call counts and
/// modeled times stay comparable across backends. Install a [`Schedule`]
/// with [`EngineComm::with_schedule`] to run every collective and RMA
/// epoch under deterministic adversarial perturbation (each epoch forks a
/// decorrelated per-rank stream).
///
/// # Example
///
/// ```
/// use mcm_bsp::comm::{Communicator, EngineComm, ReduceOp};
/// use mcm_bsp::Kernel;
///
/// let mut eng = EngineComm::new(4, 1);
/// let total = eng.allreduce(Kernel::Other, &[1, 2, 3, 4], ReduceOp::Sum);
/// assert_eq!(total, 10);
/// ```
pub struct EngineComm {
    ctx: DistCtx,
    /// Monotonic collective/epoch counter; decorrelates the schedule fork
    /// each session runs under.
    epoch: u64,
}

impl EngineComm {
    /// An engine over `p` ranks (must be a perfect square — the 2D
    /// SpMV grid) with `threads` modeled threads per rank.
    pub fn new(p: usize, threads: usize) -> Self {
        Self { ctx: DistCtx::new(MachineConfig::square_ranks(p, threads)), epoch: 0 }
    }

    /// Installs a simtest schedule: every subsequent collective and RMA
    /// epoch runs under deterministic per-rank perturbation forked from
    /// `sched` (see [`crate::engine::run_ranks_sched`]).
    pub fn with_schedule(mut self, sched: Schedule) -> Self {
        self.ctx.sched = Some(sched);
        self
    }

    /// Runs one engine session: `f` on every rank, under this backend's
    /// schedule (if any), each session forking a fresh decorrelated
    /// per-rank decision stream.
    pub(crate) fn session<T, R, F>(&mut self, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(RankComm<T>) -> R + Sync,
    {
        let p = self.ctx.p();
        self.epoch += 1;
        match self.ctx.sched.as_ref() {
            Some(s) => run_ranks_sched(p, &s.fork(0xE9C0_11EC ^ self.epoch), f),
            None => run_ranks(p, f),
        }
    }
}

impl Communicator for EngineComm {
    fn ctx(&self) -> &DistCtx {
        &self.ctx
    }

    fn ctx_mut(&mut self) -> &mut DistCtx {
        &mut self.ctx
    }

    fn exec_grid(&self) -> (usize, usize) {
        let g = &self.ctx.machine.grid;
        (g.pr, g.pc)
    }

    fn alltoallv<T: Send + Clone>(
        &mut self,
        kernel: Kernel,
        words_per_elem: u64,
        sends: Vec<Vec<(usize, T)>>,
    ) -> Vec<Vec<T>> {
        let _span = mcm_obs::kernel_span("alltoallv", kernel.name());
        charge_routed(&mut self.ctx, kernel, words_per_elem, &sends);
        let p = self.ctx.p();
        let slots: Vec<_> = sends.into_iter().map(|list| Mutex::new(Some(list))).collect();
        let group: Vec<usize> = (0..p).collect();
        self.session::<T, _, _>(|mut comm| {
            let mine =
                slots[comm.rank()].lock().unwrap().take().expect("rank input consumed twice");
            // Bucket this rank's pairs into one mesh message per destination.
            let mut msgs: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
            for (dst, item) in mine {
                msgs[dst].push(item);
            }
            comm.alltoallv(&group, msgs).into_iter().flatten().collect()
        })
    }

    fn allgatherv<T: Send + Clone>(
        &mut self,
        kernel: Kernel,
        words_per_elem: u64,
        contribs: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let _span = mcm_obs::kernel_span("allgatherv", kernel.name());
        let p = self.ctx.p();
        assert_eq!(contribs.len(), p, "one contribution per rank");
        let total: u64 = contribs.iter().map(|c| c.len() as u64).sum();
        self.ctx.charge_allgather(kernel, p, words_per_elem * total);

        let slots: Vec<Mutex<Option<Vec<T>>>> =
            contribs.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let group: Vec<usize> = (0..p).collect();
        let mut per_rank = self.session::<T, _, _>(|mut comm| {
            let mine =
                slots[comm.rank()].lock().unwrap().take().expect("rank input consumed twice");
            comm.allgatherv(&group, mine)
        });
        // Every rank received an identical replica; hand the caller one.
        per_rank.swap_remove(0)
    }

    fn allreduce(&mut self, kernel: Kernel, per_rank: &[u64], op: ReduceOp) -> u64 {
        let _span = mcm_obs::kernel_span("allreduce", kernel.name());
        let p = self.ctx.p();
        assert_eq!(per_rank.len(), p, "one contribution per rank");
        self.ctx.charge_allreduce(kernel, 1);
        let group: Vec<usize> = (0..p).collect();
        let mut results = self.session::<u64, _, _>(|mut comm| {
            let gathered = comm.allgatherv(&group, vec![per_rank[comm.rank()]]);
            op.fold(gathered.into_iter().flatten())
        });
        let out = results.swap_remove(0);
        debug_assert!(results.iter().all(|&r| r == out), "allreduce replicas diverged");
        out
    }

    fn spmspv<T, U>(
        &mut self,
        a: &DistMatrix,
        kernel: Kernel,
        plan: &mut SpmvPlan<U>,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        fold: impl Fn(&mut U, U) + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        let _span = mcm_obs::kernel_span("spmspv", kernel.name());
        a.spmspv_mesh(self, kernel, plan, x, mul, fold)
    }

    fn rma_epoch<W: RmaTask + Send>(
        &mut self,
        kernel: Kernel,
        wins: Vec<&mut DenseVec>,
        tasks: &mut [W],
    ) -> u64 {
        let _span = mcm_obs::kernel_span("rma_epoch", kernel.name());
        let p = self.ctx.p();
        let fault = self.ctx.sched.as_ref().map(|s| s.fault()).unwrap_or_default();
        let total_ops = std::sync::atomic::AtomicU64::new(0);

        fn view(w: &mut DenseVec) -> &[AtomicU32] {
            w.as_atomic_view()
        }
        let views: Vec<&[AtomicU32]> = wins.into_iter().map(view).collect();
        let views = &views[..];

        // Origins are distributed round-robin over the ranks.
        let mut buckets: Vec<Vec<&mut W>> = (0..p).map(|_| Vec::new()).collect();
        for (i, t) in tasks.iter_mut().enumerate() {
            buckets[i % p].push(t);
        }
        let slots: Vec<Mutex<Option<Vec<&mut W>>>> =
            buckets.into_iter().map(|b| Mutex::new(Some(b))).collect();

        self.epoch += 1;
        let epoch_sched = self.ctx.sched.as_ref().map(|s| s.fork(0xE9C0_11EC ^ self.epoch));
        let group: Vec<usize> = (0..p).collect();

        let body = |mut comm: RankComm<u8>| -> u64 {
            let mut mine =
                slots[comm.rank()].lock().unwrap().take().expect("epoch tasks consumed twice");
            let mut win = AtomicWin::new(views, fault);
            let mut steps = 0u64;
            match epoch_sched.as_ref() {
                None => {
                    for t in mine.iter_mut() {
                        while t.step(&mut win) {}
                    }
                }
                Some(base) => {
                    // Interleave this rank's origins under a decorrelated
                    // pick stream, yielding to the transport schedule
                    // between calls so real rank skew develops.
                    let mut picks = base.fork(0x7A5C ^ comm.rank() as u64);
                    let mut live: Vec<usize> = (0..mine.len()).collect();
                    while !live.is_empty() {
                        comm.perturb_point();
                        let k = picks.pick(live.len());
                        steps += 1;
                        if !mine[live[k]].step(&mut win) {
                            live.swap_remove(k);
                        }
                    }
                }
            }
            // Close the exposure epoch with a zero-payload fence over the
            // full mesh. Under a perturbed schedule its permuted service
            // orders route through the per-source FIFO stash, so epoch
            // completion tolerates arbitrary rank skew.
            let _ = comm.alltoallv(&group, (0..p).map(|_| Vec::new()).collect());
            total_ops.fetch_add(win.ops(), Ordering::Relaxed);
            steps
        };
        let per_rank: Vec<u64> = match epoch_sched.as_ref() {
            Some(s) => run_ranks_sched(p, s, body),
            None => run_ranks(p, body),
        };
        record_rma_epoch("engine", total_ops.into_inner());
        per_rank.into_iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(dim: usize) -> DistCtx {
        DistCtx::new(MachineConfig::hybrid(dim, 1))
    }

    /// Rank `src` sends `src*10 + dst` to every `dst`, the canonical
    /// routing probe.
    fn probe_sends(p: usize) -> Vec<Vec<(usize, u32)>> {
        (0..p).map(|src| (0..p).map(|dst| (dst, (src * 10 + dst) as u32)).collect()).collect()
    }

    /// Every rank sends five items to the last rank, in descending value
    /// order, interleaved with one item to rank 0.
    fn crowd_sends(p: usize) -> Vec<Vec<(usize, u32)>> {
        (0..p as u32)
            .map(|src| {
                let mut list: Vec<(usize, u32)> =
                    (0..5).rev().map(|k| (p - 1, 100 * src + k)).collect();
                list.insert(2, (0, 10_000 + src));
                list
            })
            .collect()
    }

    #[test]
    fn alltoallv_routes_identically_on_both_backends() {
        for p in [1usize, 4, 9] {
            let dim = (p as f64).sqrt() as usize;
            let a = sim(dim).alltoallv(Kernel::Invert, 2, probe_sends(p));
            let b = EngineComm::new(p, 1).alltoallv(Kernel::Invert, 2, probe_sends(p));
            assert_eq!(a, b, "p = {p}");
            for (dst, got) in a.iter().enumerate() {
                let want: Vec<u32> = (0..p).map(|src| (src * 10 + dst) as u32).collect();
                assert_eq!(got, &want, "p = {p}");
            }

            // A shared destination receives sources ascending, each
            // source's items in send order (not value order).
            let sends = crowd_sends(p);
            let mut want: Vec<Vec<u32>> = vec![Vec::new(); p];
            for list in &sends {
                for &(dst, v) in list {
                    want[dst].push(v);
                }
            }
            if p > 1 {
                assert_eq!(want[p - 1][..6], [4, 3, 2, 1, 0, 104][..]);
            }
            let a = sim(dim).alltoallv(Kernel::Invert, 2, sends.clone());
            let b = EngineComm::new(p, 1).alltoallv(Kernel::Invert, 2, sends);
            assert_eq!(a, want, "simulator, p = {p}");
            assert_eq!(b, want, "engine, p = {p}");
        }
    }

    #[test]
    fn allgatherv_and_allreduce_agree_across_backends() {
        for p in [1usize, 4] {
            let dim = (p as f64).sqrt() as usize;
            let contribs: Vec<Vec<u32>> = (0..p).map(|r| vec![r as u32; r + 1]).collect();
            let a = sim(dim).allgatherv(Kernel::Prune, 1, contribs.clone());
            let b = EngineComm::new(p, 1).allgatherv(Kernel::Prune, 1, contribs.clone());
            assert_eq!(a, b, "p = {p}");
            assert_eq!(a, contribs);

            let vals: Vec<u64> = (0..p as u64).map(|r| r + 3).collect();
            for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
                let x = sim(dim).allreduce(Kernel::Other, &vals, op);
                let y = EngineComm::new(p, 1).allreduce(Kernel::Other, &vals, op);
                assert_eq!(x, y, "p = {p} op {op:?}");
            }
        }
    }

    #[test]
    fn trait_alltoallv_charges_the_direct_formula() {
        // The trait-routed simulator collective must charge exactly what
        // the hard-wired kernels charged: alltoallv(p, wpe·max(send, recv)).
        let mut direct = sim(2);
        direct.charge_alltoallv(Kernel::Invert, 4, 2 * 4);
        let mut routed = sim(2);
        // Rank 0 sends 4 elements to rank 1; everyone else is idle:
        // bottleneck = 4 elements, 2 words each.
        let mut sends: Vec<Vec<(usize, u32)>> = vec![Vec::new(); 4];
        sends[0] = vec![(1, 1), (1, 2), (1, 3), (1, 4)];
        let _ = routed.alltoallv(Kernel::Invert, 2, sends);
        assert_eq!(direct.timers.seconds(Kernel::Invert), routed.timers.seconds(Kernel::Invert));
        assert_eq!(direct.timers.calls(Kernel::Invert), routed.timers.calls(Kernel::Invert));
    }

    #[test]
    fn engine_collectives_are_schedule_oblivious() {
        let p = 4;
        let friendly = EngineComm::new(p, 1).alltoallv(Kernel::Invert, 2, probe_sends(p));
        for seed in [0u64, 1, 0xFEED] {
            let mut eng = EngineComm::new(p, 1).with_schedule(Schedule::new(seed));
            let perturbed = eng.alltoallv(Kernel::Invert, 2, probe_sends(p));
            assert_eq!(perturbed, friendly, "seed {seed}");
        }
    }

    /// One origin racing a single fetch_and_put on a shared slot.
    struct Racer {
        id: Vidx,
        saw: Option<Vidx>,
    }

    impl RmaTask for Racer {
        fn step(&mut self, win: &mut dyn RmaWin) -> bool {
            self.saw = Some(win.fetch_and_put(0, 0, self.id));
            false
        }
    }

    fn assert_swap_chain(racers: &[Racer], n: usize, what: &str) {
        let winners = racers.iter().filter(|r| r.saw == Some(NIL)).count();
        assert_eq!(winners, 1, "{what}: atomicity violated");
        let mut seen: Vec<Vidx> = racers.iter().map(|r| r.saw.unwrap()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n, "{what}: lost update");
    }

    #[test]
    fn rma_epoch_swap_chains_hold_on_both_backends() {
        let n = 8;
        // Simulator, friendly and perturbed.
        for sched in [None, Some(Schedule::new(11))] {
            let mut ctx = sim(2);
            ctx.sched = sched;
            let mut slot = DenseVec::nil(1);
            let mut racers: Vec<Racer> = (0..n).map(|id| Racer { id, saw: None }).collect();
            let steps = ctx.rma_epoch(Kernel::Augment, vec![&mut slot], &mut racers);
            assert_eq!(steps > 0, ctx.sched.is_some());
            assert_swap_chain(&racers, n as usize, "simulator");
        }
        // Engine: real threads, real atomics, friendly and perturbed.
        for sched in [None, Some(Schedule::new(11))] {
            let mut eng = EngineComm::new(4, 1);
            if let Some(s) = sched {
                eng = eng.with_schedule(s);
            }
            let perturbed = eng.ctx().sched.is_some();
            let mut slot = DenseVec::nil(1);
            let mut racers: Vec<Racer> = (0..n).map(|id| Racer { id, saw: None }).collect();
            let steps = eng.rma_epoch(Kernel::Augment, vec![&mut slot], &mut racers);
            assert_eq!(steps > 0, perturbed);
            assert_swap_chain(&racers, n as usize, "engine");
        }
    }

    #[test]
    fn engine_rma_epoch_honors_fault_injection() {
        use crate::sched::SchedConfig;
        let cfg = SchedConfig { fault: FaultPlan::broken_fetch_and_put(), ..Default::default() };
        let mut eng = EngineComm::new(4, 1).with_schedule(Schedule::with_config(3, cfg));
        let mut slot = DenseVec::nil(1);
        let mut racers: Vec<Racer> = (0..6).map(|id| Racer { id, saw: None }).collect();
        let _ = eng.rma_epoch(Kernel::Augment, vec![&mut slot], &mut racers);
        let winners = racers.iter().filter(|r| r.saw == Some(NIL)).count();
        assert!(winners > 1, "the injected drop-fetch bug must be observable on the engine");
    }
}
