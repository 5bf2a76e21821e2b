//! 2D block-distributed sparse matrices and the distributed SpMSpV.
//!
//! §IV-A of the paper: CombBLAS distributes an `n1 × n2` matrix over a
//! `p_r × p_c` grid; process `P(i,j)` stores submatrix `A_{i,j}` in DCSC.
//! The 2D SpMV has two communication phases \[26\]: **expand** (allgather of
//! frontier slices along each process *column*) and **fold** (personalized
//! all-to-all of partial products along each process *row*).
//!
//! The plan has two executions, one per [`Communicator`]:
//!
//! * **Simulator** ([`DistCtx`]): the whole matrix is one physical DCSC
//!   block and each product is one *fused* traversal
//!   ([`SpmvWorkspace::spmspv_fused_into`]). Its sparse accumulator stands
//!   in for the expand and fold buffers: a contribution is written straight
//!   into its destination row's slot, so no slice is copied and no partial
//!   is merge-sorted. The kernel counts, in the same traversal, the
//!   per-block volumes the logical `p_r × p_c` grid of `ctx.machine.grid`
//!   would ship, and the α–β–γ model charges those.
//! * **Engine** ([`EngineComm`]): the matrix is split into the grid's
//!   blocks and rank `(i, j)` runs block `(i, j)`. Frontier slices really
//!   are allgathered along grid columns and partials really fold along
//!   grid rows over the channel mesh, and the observed volumes are charged.
//!   This split execution is the reference the fused charges are tested
//!   against, to the bit.
//!
//! Both return identical vectors: per-row candidates fold in ascending
//! global column order, exactly like the serial kernel.
//!
//! ## SpMSpV plans
//!
//! The MS-BFS hot loop calls the distributed product once per iteration per
//! phase. A [`SpmvPlan`] keeps one [`SpmvWorkspace`] and one output
//! [`SpVec`] per physical block, so every sparse-accumulator allocation is
//! reused across iterations. [`DistMatrix::spmspv`] and
//! [`DistMatrix::spmspv_monoid`] remain as one-shot wrappers that build a
//! throwaway plan.

use crate::collectives::balanced_owner;
use crate::comm::{Communicator, EngineComm};
use crate::ctx::DistCtx;
use crate::timers::Kernel;
use mcm_sparse::permute::Permutation;
use mcm_sparse::triples::{block_offsets, block_owner};
use mcm_sparse::workspace::{FusedVolumes, SpmvWorkspace, WorkspaceStats};
use mcm_sparse::{CscView, Dcsc, SpVec, Triples, Vidx};
use std::sync::Mutex;

/// Fold semantics of the engine-mesh product: semiring selection
/// (`spmspv`) or commutative-monoid accumulation (`spmspv_monoid`).
enum MeshFold<'f, U> {
    Select(&'f (dyn Fn(&U, &U) -> bool + Sync)),
    Monoid(&'f (dyn Fn(&mut U, U) + Sync)),
}

/// Wire format of the engine-mesh SpMSpV: expand payloads (block-local
/// column index + frontier value) and fold payloads (block-local row
/// index + partial product).
#[derive(Clone)]
enum Wire<T, U> {
    X(Vidx, T),
    Y(Vidx, U),
}

/// Per-rank outcome of one engine-mesh product session, carrying the
/// observed volumes the cost mirror charges from.
struct MeshOut<U> {
    entries: Vec<(Vidx, U)>,
    flops: u64,
    slice_nnz: u64,
    sent_pairs: u64,
    recv_pairs: u64,
}

/// Per-block reusable state of a [`SpmvPlan`].
#[derive(Debug)]
struct PlanBlock<U: Copy> {
    ws: SpmvWorkspace<U>,
    out: SpVec<U>,
}

impl<U: Copy> PlanBlock<U> {
    fn new() -> Self {
        Self { ws: SpmvWorkspace::new(), out: SpVec::new(0) }
    }
}

/// Reusable buffers for [`Communicator::spmspv`] /
/// [`Communicator::spmspv_monoid`]: one SpMSpV workspace and output vector
/// per physical block. Create once, pass to every distributed product
/// against matrices on the same grid — buffers grow to the high-water mark
/// and are then reused, so steady-state iterations allocate nothing in the
/// kernel layer.
#[derive(Debug)]
pub struct SpmvPlan<U: Copy> {
    blocks: Vec<PlanBlock<U>>,
}

impl<U: Copy> Default for SpmvPlan<U> {
    fn default() -> Self {
        Self::new()
    }
}

impl<U: Copy> SpmvPlan<U> {
    /// An empty plan; buffers materialize on first use.
    pub fn new() -> Self {
        Self { blocks: Vec::new() }
    }

    fn ensure(&mut self, nblocks: usize) {
        if self.blocks.len() < nblocks {
            self.blocks.resize_with(nblocks, PlanBlock::new);
        }
    }

    /// Aggregated workspace reuse counters over all blocks.
    pub fn stats(&self) -> WorkspaceStats {
        let mut total = WorkspaceStats::default();
        for b in &self.blocks {
            total.merge(&b.ws.stats);
        }
        total
    }
}

/// The logical `pr × pc` grid a simulator kernel is charged at: block
/// offsets of one matrix over `ctx.machine.grid`.
struct LogicalGrid {
    pc: usize,
    row_off: Vec<usize>,
    col_off: Vec<usize>,
}

impl LogicalGrid {
    fn of(ctx: &DistCtx, nrows: usize, ncols: usize) -> Self {
        let g = &ctx.machine.grid;
        Self { pc: g.pc, row_off: block_offsets(nrows, g.pr), col_off: block_offsets(ncols, g.pc) }
    }

    fn pr(&self) -> usize {
        self.row_off.len() - 1
    }

    /// Row boundaries of the fold destinations: each block row's rows split
    /// into `pc` balanced ranges, so segment `bi · pc + d` is the rows grid
    /// rank `(bi, d)` owns in the balanced fold distribution
    /// ([`balanced_owner`]).
    fn fold_offsets(&self) -> Vec<usize> {
        let mut off = vec![0];
        for w in self.row_off.windows(2) {
            off.extend(block_offsets(w[1] - w[0], self.pc)[1..].iter().map(|&o| w[0] + o));
        }
        off
    }

    /// Bottleneck expand volume of a frontier: `max_bj 2 · |{entries in
    /// column block bj}|`.
    fn expand_max<T>(&self, xs: &[(Vidx, T)]) -> u64 {
        let mut expand_max = 0u64;
        for w in self.col_off.windows(2) {
            let lo = xs.partition_point(|&(j, _)| (j as usize) < w[0]);
            let hi = xs.partition_point(|&(j, _)| (j as usize) < w[1]);
            expand_max = expand_max.max(2 * (hi - lo) as u64);
        }
        expand_max
    }
}

/// A sparse matrix distributed over a 2D process grid in DCSC blocks.
///
/// # Example
///
/// ```
/// use mcm_bsp::{DistCtx, DistMatrix, Kernel, MachineConfig};
/// use mcm_sparse::{SpVec, Triples};
///
/// let t = Triples::from_edges(4, 4, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
/// let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1)); // 2x2 accounting
/// let a = DistMatrix::from_triples(&ctx, &t); // one block
/// let x = SpVec::from_pairs(4, vec![(0, 0u32), (2, 2)]);
/// let y = a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, _| j, |acc, inc| inc < acc);
/// assert_eq!(y.entries(), &[(0, 0), (2, 2)]);
/// assert!(ctx.timers.seconds(Kernel::SpMV) > 0.0); // modeled time accrued
/// ```
#[derive(Clone, Debug)]
pub struct DistMatrix {
    nrows: usize,
    ncols: usize,
    pr: usize,
    pc: usize,
    /// Global row index where each block row starts (`len == pr + 1`).
    row_off: Vec<usize>,
    /// Global column index where each block column starts (`len == pc + 1`).
    col_off: Vec<usize>,
    /// Row-major `pr × pc` DCSC blocks with block-local coordinates.
    blocks: Vec<Dcsc>,
    nnz: usize,
}

impl DistMatrix {
    /// Distributes `t` over the grid `comm` executes on
    /// ([`Communicator::exec_grid`]): one block for the simulator, the
    /// rank grid for the engine.
    pub fn from_triples(comm: &impl Communicator, t: &Triples) -> Self {
        let (pr, pc) = comm.exec_grid();
        Self::with_grid(t, pr, pc)
    }

    /// Distributes `t` over an explicit `pr × pc` grid.
    pub fn with_grid(t: &Triples, pr: usize, pc: usize) -> Self {
        Self::with_grid_csc(&t.to_csc().view(), pr, pc, None, None)
    }

    /// Builds `A` and `Aᵀ` together from a borrowed CSC view with the
    /// relabeling fused into one scatter pass: entry `(i, j)` lands as
    /// `(rowp(i), colp(j))` in `A` and swapped in `Aᵀ`, so permutation
    /// lookups and block routing are paid once for both orientations. Used
    /// by the matching pipeline, which needs the transpose for every
    /// row-proposing initializer and for bottom-up BFS.
    ///
    /// On a 1×1 grid (the simulator's execution grid) no pair list ever
    /// exists and nothing is comparison-sorted. The unpermuted case
    /// compacts the view straight into DCSC ([`Dcsc::from_csc_view`]) and
    /// transposes it. The permuted case builds `Aᵀ` first
    /// ([`Dcsc::relabeled_transpose`]: walk the target columns in relabeled
    /// order and scatter by relabeled row, so entries arrive sorted), and
    /// `A` is its counting transpose. Multi-block grids scatter into
    /// per-block pair buffers.
    pub fn with_grid_csc_pair(
        v: &CscView<'_>,
        pr: usize,
        pc: usize,
        rowp: Option<&Permutation>,
        colp: Option<&Permutation>,
    ) -> (Self, Self) {
        if pr == 1 && pc == 1 {
            let (a, at) = if rowp.is_none() && colp.is_none() {
                let a = Dcsc::from_csc_view(v);
                let at = a.transposed();
                (a, at)
            } else {
                let at = Dcsc::relabeled_transpose(v, rowp, colp);
                (at.transposed(), at)
            };
            return (Self::single_block(a), Self::single_block(at));
        }
        let row_off = block_offsets(v.nrows(), pr);
        let col_off = block_offsets(v.ncols(), pc);
        let t_row_off = block_offsets(v.ncols(), pr);
        let t_col_off = block_offsets(v.nrows(), pc);
        let cap = v.nnz() / (pr * pc) + 8;
        let mut parts: Vec<Vec<(Vidx, Vidx)>> =
            (0..pr * pc).map(|_| Vec::with_capacity(cap)).collect();
        let mut t_parts: Vec<Vec<(Vidx, Vidx)>> =
            (0..pr * pc).map(|_| Vec::with_capacity(cap)).collect();
        for (i, j) in v.iter() {
            let pi = rowp.map_or(i, |p| p.apply(i));
            let pj = colp.map_or(j, |p| p.apply(j));
            let bi = block_owner(&row_off, pi as usize);
            let bj = block_owner(&col_off, pj as usize);
            parts[bi * pc + bj].push((pi - row_off[bi] as Vidx, pj - col_off[bj] as Vidx));
            let tbi = block_owner(&t_row_off, pj as usize);
            let tbj = block_owner(&t_col_off, pi as usize);
            t_parts[tbi * pc + tbj]
                .push((pj - t_row_off[tbi] as Vidx, pi - t_col_off[tbj] as Vidx));
        }
        let a = Self::from_parts(v.nrows(), v.ncols(), pr, pc, row_off, col_off, &parts);
        let at = Self::from_parts(v.ncols(), v.nrows(), pr, pc, t_row_off, t_col_off, &t_parts);
        (a, at)
    }

    /// `A` alone from a borrowed CSC view, relabeled as in
    /// [`DistMatrix::with_grid_csc_pair`].
    pub fn with_grid_csc(
        v: &CscView<'_>,
        pr: usize,
        pc: usize,
        rowp: Option<&Permutation>,
        colp: Option<&Permutation>,
    ) -> Self {
        if pr == 1 && pc == 1 {
            let block = if rowp.is_none() && colp.is_none() {
                Dcsc::from_csc_view(v)
            } else {
                Dcsc::relabeled_transpose(v, rowp, colp).transposed()
            };
            return Self::single_block(block);
        }
        let row_off = block_offsets(v.nrows(), pr);
        let col_off = block_offsets(v.ncols(), pc);
        let mut parts: Vec<Vec<(Vidx, Vidx)>> =
            (0..pr * pc).map(|_| Vec::with_capacity(v.nnz() / (pr * pc) + 8)).collect();
        for (i, j) in v.iter() {
            let pi = rowp.map_or(i, |p| p.apply(i));
            let pj = colp.map_or(j, |p| p.apply(j));
            let bi = block_owner(&row_off, pi as usize);
            let bj = block_owner(&col_off, pj as usize);
            parts[bi * pc + bj].push((pi - row_off[bi] as Vidx, pj - col_off[bj] as Vidx));
        }
        Self::from_parts(v.nrows(), v.ncols(), pr, pc, row_off, col_off, &parts)
    }

    /// A 1×1 grid holding `block` whole.
    fn single_block(block: Dcsc) -> Self {
        let (nrows, ncols, nnz) = (block.nrows(), block.ncols(), block.nnz());
        Self {
            nrows,
            ncols,
            pr: 1,
            pc: 1,
            row_off: vec![0, nrows],
            col_off: vec![0, ncols],
            blocks: vec![block],
            nnz,
        }
    }

    /// Compacts per-block pair buffers (block-local coordinates, row-major
    /// block order) into DCSC blocks, one block per worker task.
    fn from_parts(
        nrows: usize,
        ncols: usize,
        pr: usize,
        pc: usize,
        row_off: Vec<usize>,
        col_off: Vec<usize>,
        parts: &[Vec<(Vidx, Vidx)>],
    ) -> Self {
        let blocks: Vec<Dcsc> = mcm_par::par_map_range(parts.len(), mcm_par::max_threads(), |b| {
            let (bi, bj) = (b / pc, b % pc);
            Dcsc::from_unsorted_pairs(
                row_off[bi + 1] - row_off[bi],
                col_off[bj + 1] - col_off[bj],
                &parts[b],
            )
        });
        let nnz = blocks.iter().map(|b| b.nnz()).sum();
        Self { nrows, ncols, pr, pc, row_off, col_off, blocks, nnz }
    }

    /// Global row count.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Global column count.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Total stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Grid shape `(pr, pc)`.
    #[inline]
    pub fn grid(&self) -> (usize, usize) {
        (self.pr, self.pc)
    }

    /// The DCSC block at grid position `(bi, bj)`.
    #[inline]
    pub fn block(&self, bi: usize, bj: usize) -> &Dcsc {
        &self.blocks[bi * self.pc + bj]
    }

    /// Fraction of blocks that are hypersparse (`nnz < ncols`); grows with
    /// the grid and motivates DCSC (storage ablation).
    pub fn hypersparse_fraction(&self) -> f64 {
        let h = self.blocks.iter().filter(|b| b.is_hypersparse()).count();
        h as f64 / self.blocks.len() as f64
    }

    /// Distributed semiring SpMSpV: `y = A ⊗ x` where `x` is a sparse vector
    /// over the columns and `y` over the rows.
    ///
    /// One-shot wrapper over [`Communicator::spmspv`] with a throwaway plan;
    /// iteration loops should hold their own [`SpmvPlan`].
    ///
    /// * `mul(j, xj)` — semiring multiply, receives the **global** column
    ///   index (BFS rewrites the parent to `j` here). Evaluated once per
    ///   matched column; its value is cloned per traversed edge.
    /// * `take_incoming(acc, inc)` — semiring addition as a selection.
    ///
    /// Charges to `kernel`: expand allgather (bottleneck grid column), local
    /// multiply (`γ · max-block-flops / t`), fold alltoallv (bottleneck grid
    /// row). Deterministic: candidates arrive per row in ascending global
    /// column order, exactly like the serial kernel.
    pub fn spmspv<T, U>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        take_incoming: impl Fn(&U, &U) -> bool + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        ctx.spmspv(self, kernel, &mut SpmvPlan::new(), x, mul, take_incoming)
    }

    /// Distributed SpMSpV over a general *monoid* addition (`combine`
    /// folds a candidate into the accumulator — must be commutative and
    /// associative, e.g. `+` for the counting semirings the maximal-matching
    /// initializers use for dynamic degree updates). Same communication plan
    /// and charging as [`DistMatrix::spmspv`]; one-shot wrapper over
    /// [`Communicator::spmspv_monoid`].
    pub fn spmspv_monoid<T, U>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        combine: impl Fn(&mut U, U) + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        ctx.spmspv_monoid(self, kernel, &mut SpmvPlan::new(), x, mul, combine)
    }

    /// Bottom-up ("pull") frontier expansion — the direction-optimizing
    /// counterpart of [`DistMatrix::spmspv`], per the paper's §VII future
    /// work ("the bottom-up BFS in distributed memory", after Beamer's
    /// direction-optimizing BFS).
    ///
    /// `self` must be the **transpose** `Aᵀ` (an `n2 × n1` matrix whose
    /// columns are the rows of `A`). Instead of scanning the frontier
    /// columns' adjacency, every *candidate* (unvisited) row scans its own
    /// adjacency and stops at the first frontier member — a large win when
    /// the frontier covers much of the graph, because most rows stop after
    /// O(1) probes.
    ///
    /// The scan runs per block of the **logical** grid `ctx.machine.grid`,
    /// whatever blocks `self` is physically stored in: each logical block
    /// row keeps its own early exit, and a candidate's hits fold in
    /// ascending block-row order. Adjacency is scanned in ascending column
    /// order, so with the `minParent` semiring the result is bit-identical
    /// to the top-down product. (Randomized semirings get a valid but
    /// possibly different parent choice; MCM correctness does not depend on
    /// which.) Result and charges are the same on one physical block as on
    /// the logical grid's blocks.
    ///
    /// Charges to `kernel`: an allgather of the frontier slice along each
    /// grid column (bitmap + values — the frontier is dense here, which is
    /// precisely when bottom-up is chosen), the scanned-edge compute at the
    /// bottleneck block, and the candidate-merge alltoallv along grid rows.
    pub fn bottom_up_spmspv<T, U>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        candidates: &[Vidx],
        frontier: &[Option<T>],
        mul: impl Fn(Vidx, &T) -> U + Sync,
        take_incoming: impl Fn(&U, &U) -> bool + Sync,
    ) -> SpVec<U>
    where
        T: Sync,
        U: Send,
    {
        // In Aᵀ terms: nrows = n2 (A's columns = frontier side),
        // ncols = n1 (A's rows = candidate side).
        assert_eq!(frontier.len(), self.nrows, "frontier must cover A's columns");
        debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]));
        let lg = LogicalGrid::of(ctx, self.nrows, self.ncols);
        let lpr = lg.pr();

        // ---- Frontier replication along each grid column. -----------------
        // Every process needs the frontier slice matching its block's
        // A-column range: a bitmap word per 64 columns plus the values.
        let mut expand_max = 0u64;
        for w in lg.row_off.windows(2) {
            let slice_nnz = frontier[w[0]..w[1]].iter().filter(|v| v.is_some()).count() as u64;
            expand_max = expand_max.max((w[1] - w[0]) as u64 / 64 + 2 * slice_nnz);
        }
        // The slice for block row bi is replicated across that grid row's
        // pc ranks (on the square grids the paper uses, pr == pc).
        ctx.charge_allgather(kernel, lg.pc, expand_max);

        // ---- Candidate scans, one task per logical block column. ----------
        struct ColOut<U> {
            /// (global candidate index, folded value), ascending.
            hits: Vec<(Vidx, U)>,
            /// Probes and hits per logical block row of this block column.
            flops: Vec<u64>,
            nhits: Vec<u64>,
        }
        let outs: Vec<ColOut<U>> = mcm_par::par_map_range(lg.pc, mcm_par::max_threads(), |bj| {
            let lo = candidates.partition_point(|&r| (r as usize) < lg.col_off[bj]);
            let hi = candidates.partition_point(|&r| (r as usize) < lg.col_off[bj + 1]);
            let mut out = ColOut { hits: Vec::new(), flops: vec![0; lpr], nhits: vec![0; lpr] };
            for &r in &candidates[lo..hi] {
                let pbj = block_owner(&self.col_off, r as usize);
                let local = r as usize - self.col_off[pbj];
                let mut acc: Option<U> = None;
                let mut bi = 0; // logical block row: ascending with the scan
                for pbi in 0..self.pr {
                    let rows = self.block(pbi, pbj).col(local);
                    let base = self.row_off[pbi];
                    let mut k = 0;
                    while k < rows.len() {
                        let gcol = rows[k] as usize + base; // a column of A
                        while gcol >= lg.row_off[bi + 1] {
                            bi += 1;
                        }
                        out.flops[bi] += 1;
                        let Some(v) = &frontier[gcol] else {
                            k += 1;
                            continue;
                        };
                        out.nhits[bi] += 1;
                        let inc = mul(gcol as Vidx, v);
                        match acc.as_mut() {
                            Some(a) => {
                                if take_incoming(a, &inc) {
                                    *a = inc;
                                }
                            }
                            None => acc = Some(inc),
                        }
                        // Early exit: skip the rest of this logical block.
                        let end = lg.row_off[bi + 1];
                        k += rows[k..].partition_point(|&li| li as usize + base < end);
                    }
                }
                if let Some(a) = acc {
                    out.hits.push((r, a));
                }
            }
            out
        });
        let max_flops = outs.iter().flat_map(|o| &o.flops).copied().max().unwrap_or(0);
        ctx.charge_compute(kernel, max_flops);

        // ---- Merge candidate hits across block rows (grid-row reduce). ----
        let max_hits = outs.iter().flat_map(|o| &o.nhits).map(|&h| 2 * h).max().unwrap_or(0);
        ctx.charge_alltoallv(kernel, lpr, max_hits);
        // Block columns cover ascending candidate ranges.
        let mut result = Vec::with_capacity(outs.iter().map(|o| o.hits.len()).sum());
        for o in outs {
            result.extend(o.hits);
        }
        SpVec::from_sorted_pairs(self.ncols, result)
    }

    /// Simulator SpMSpV: one **fused** product over the single physical
    /// block, charged at the logical grid of `ctx.machine.grid`.
    ///
    /// Where the engine's split execution slices the frontier per block
    /// column (expand) and ships per-block partials that each block row
    /// merges and sorts (fold), this writes every contribution **directly
    /// into the destination's region of one sparse accumulator**: no slice
    /// copies, no partial buffers, no merge sort. The fused kernel counts,
    /// in-line, exactly the per-logical-block volumes the split execution
    /// ships (see [`SpmvWorkspace::spmspv_fused_into`]), so the charges
    /// equal [`EngineComm`]'s on the same grid.
    pub(crate) fn spmspv_fused<T, U>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        plan: &mut SpmvPlan<U>,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        take_incoming: impl Fn(&U, &U) -> bool + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        self.fused(ctx, kernel, plan, x, |ws, lg, y| {
            ws.spmspv_fused_into(
                &self.blocks[0],
                x,
                &lg.col_off,
                &lg.fold_offsets(),
                |j, v| mul(j, v),
                |acc, inc| take_incoming(acc, inc),
                y,
            )
        })
    }

    /// Monoid counterpart of [`DistMatrix::spmspv_fused`].
    pub(crate) fn spmspv_monoid_fused<T, U>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        plan: &mut SpmvPlan<U>,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        combine: impl Fn(&mut U, U) + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        self.fused(ctx, kernel, plan, x, |ws, lg, y| {
            ws.spmspv_monoid_fused_into(
                &self.blocks[0],
                x,
                &lg.col_off,
                &lg.fold_offsets(),
                |j, v| mul(j, v),
                |acc, inc| combine(acc, inc),
                y,
            )
        })
    }

    /// The charging frame of a fused product: the logical expand, then
    /// `run`'s traversal, then its counted compute and fold volumes.
    fn fused<T, U: Copy>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        plan: &mut SpmvPlan<U>,
        x: &SpVec<T>,
        run: impl FnOnce(&mut SpmvWorkspace<U>, &LogicalGrid, &mut SpVec<U>) -> FusedVolumes,
    ) -> SpVec<U> {
        assert_eq!(x.len(), self.ncols, "frontier length must match ncols");
        assert_eq!((self.pr, self.pc), (1, 1), "the simulator executes a single physical block");
        plan.ensure(1);
        let lg = LogicalGrid::of(ctx, self.nrows, self.ncols);
        // Logical expand: the bottleneck frontier slice along a grid column
        // (no slice is materialized — the fused kernel reads `x` in place).
        ctx.charge_allgather(kernel, lg.pr(), lg.expand_max(x.entries()));
        let mut y = SpVec::new(0);
        let vols = run(&mut plan.blocks[0].ws, &lg, &mut y);
        ctx.charge_compute(kernel, vols.max_flops);
        ctx.charge_alltoallv(kernel, lg.pc, vols.fold_bottleneck);
        y
    }

    /// Engine-backend SpMSpV: the split expand → multiply → fold plan,
    /// executed as one real session on the [`EngineComm`] channel mesh with
    /// rank `(bi, bj)` owning plan block `(bi, bj)` — the frontier
    /// allgathers along each grid column and partials fold along each grid
    /// row, exactly the CombBLAS 2D pattern the simulator models.
    /// Bit-identical to the simulator's fused product (candidates fold per
    /// row in ascending global column order) and charged from the observed
    /// per-rank volumes.
    pub(crate) fn spmspv_mesh<T, U>(
        &self,
        eng: &mut EngineComm,
        kernel: Kernel,
        plan: &mut SpmvPlan<U>,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        take_incoming: impl Fn(&U, &U) -> bool + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        self.mesh_product(eng, kernel, plan, x, &mul, MeshFold::Select(&take_incoming))
    }

    /// Monoid counterpart of [`DistMatrix::spmspv_mesh`].
    pub(crate) fn spmspv_monoid_mesh<T, U>(
        &self,
        eng: &mut EngineComm,
        kernel: Kernel,
        plan: &mut SpmvPlan<U>,
        x: &SpVec<T>,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        combine: impl Fn(&mut U, U) + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        self.mesh_product(eng, kernel, plan, x, &mul, MeshFold::Monoid(&combine))
    }

    fn mesh_product<T, U>(
        &self,
        eng: &mut EngineComm,
        kernel: Kernel,
        plan: &mut SpmvPlan<U>,
        x: &SpVec<T>,
        mul: &(dyn Fn(Vidx, &T) -> U + Sync),
        fold: MeshFold<'_, U>,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        assert_eq!(x.len(), self.ncols, "frontier length must match ncols");
        let (pr, pc) = (self.pr, self.pc);
        let grid = &eng.ctx().machine.grid;
        assert_eq!((grid.pr, grid.pc), (pr, pc), "matrix grid must match the engine mesh");
        let nblocks = pr * pc;
        let p = nblocks;
        plan.ensure(nblocks);

        // Owner distribution of the frontier: block column bj's x-range is
        // sub-split across that grid column's pr ranks, so the expand
        // allgather moves exactly the volume the cost model charges.
        let xs = x.entries();
        let mut piece_data: Vec<Vec<Wire<T, U>>> = (0..p).map(|_| Vec::new()).collect();
        for bj in 0..pc {
            let lo = xs.partition_point(|&(j, _)| (j as usize) < self.col_off[bj]);
            let hi = xs.partition_point(|&(j, _)| (j as usize) < self.col_off[bj + 1]);
            let off = self.col_off[bj] as Vidx;
            let offs = block_offsets(hi - lo, pr);
            for bi in 0..pr {
                let seg = &xs[lo + offs[bi]..lo + offs[bi + 1]];
                piece_data[bi * pc + bj] = seg.iter().map(|&(j, v)| Wire::X(j - off, v)).collect();
            }
        }
        type PieceSlot<T, U> = Mutex<Option<Vec<Wire<T, U>>>>;
        let pieces: Vec<PieceSlot<T, U>> =
            piece_data.into_iter().map(|d| Mutex::new(Some(d))).collect();

        // 1:1 rank ↔ plan block — the mesh *is* the matrix grid, so every
        // rank reuses "its" workspace and output buffer across calls.
        let slots: Vec<Mutex<&mut PlanBlock<U>>> =
            plan.blocks[..nblocks].iter_mut().map(Mutex::new).collect();

        let threads = eng.ctx().threads();
        let row_off = &self.row_off;
        let col_off = &self.col_off;
        let blocks = &self.blocks;
        let fold = &fold;

        let results: Vec<MeshOut<U>> = eng.session::<Wire<T, U>, _, _>(|mut comm| {
            let q = comm.rank();
            let (bi, bj) = (q / pc, q % pc);

            // -- Expand: allgather frontier pieces along this grid column.
            // Group order is ascending bi and pieces are consecutive
            // subranges, so concatenation rebuilds the sorted slice.
            let mine = pieces[q].lock().unwrap().take().expect("frontier piece consumed twice");
            let col_group: Vec<usize> = (0..pr).map(|i| i * pc + bj).collect();
            let gathered = comm.allgatherv(&col_group, mine);
            let mut slice_entries: Vec<(Vidx, T)> = Vec::new();
            for msg in gathered {
                for w in msg {
                    match w {
                        Wire::X(lj, v) => slice_entries.push((lj, v)),
                        Wire::Y(..) => unreachable!("fold payload during expand"),
                    }
                }
            }
            let slice_nnz = slice_entries.len() as u64;
            let slice = SpVec::from_sorted_pairs(col_off[bj + 1] - col_off[bj], slice_entries);

            // -- Local multiply into this rank's plan block.
            let mut guard = slots[q].lock().unwrap();
            let st = &mut **guard;
            let off = col_off[bj] as Vidx;
            let block = &blocks[q];
            let flops = match fold {
                MeshFold::Select(take) => {
                    if threads > 1 {
                        st.ws.spmspv_parallel_into(
                            block,
                            &slice,
                            threads,
                            |lj, v| mul(lj + off, v),
                            |acc, inc| take(acc, inc),
                            &mut st.out,
                        )
                    } else {
                        st.ws.spmspv_into(
                            block,
                            &slice,
                            |lj, v| mul(lj + off, v),
                            |acc, inc| take(acc, inc),
                            &mut st.out,
                        )
                    }
                }
                MeshFold::Monoid(comb) => st.ws.spmspv_monoid_into(
                    block,
                    &slice,
                    |lj, v| mul(lj + off, v),
                    |acc, inc| comb(acc, inc),
                    &mut st.out,
                ),
            };

            // -- Fold: route partials to their row owners along this grid
            // row; group order (ascending bj) plus the stable by-row sort
            // keeps per-row candidates in ascending global column order.
            let block_rows = (row_off[bi + 1] - row_off[bi]).max(1);
            let mut sends: Vec<Vec<Wire<T, U>>> = (0..pc).map(|_| Vec::new()).collect();
            for (i, v) in st.out.iter() {
                let owner = balanced_owner(block_rows, pc, i as usize);
                sends[owner].push(Wire::Y(i, *v));
            }
            let sent_pairs = st.out.nnz() as u64;
            drop(guard);
            let row_group: Vec<usize> = (0..pc).map(|j| bi * pc + j).collect();
            let recvd = comm.alltoallv(&row_group, sends);
            let mut merged: Vec<(Vidx, U)> = Vec::new();
            for msg in recvd {
                for w in msg {
                    match w {
                        Wire::Y(i, v) => merged.push((i, v)),
                        Wire::X(..) => unreachable!("expand payload during fold"),
                    }
                }
            }
            let recv_pairs = merged.len() as u64;
            merged.sort_by_key(|&(i, _)| i);
            let mut folded: Vec<(Vidx, U)> = Vec::with_capacity(merged.len());
            for (i, v) in merged {
                match folded.last_mut() {
                    Some((last, acc)) if *last == i => match fold {
                        MeshFold::Select(take) => {
                            if take(acc, &v) {
                                *acc = v;
                            }
                        }
                        MeshFold::Monoid(comb) => comb(acc, v),
                    },
                    _ => folded.push((i, v)),
                }
            }
            let roff = row_off[bi] as Vidx;
            let entries: Vec<(Vidx, U)> = folded.into_iter().map(|(i, v)| (i + roff, v)).collect();
            MeshOut { entries, flops, slice_nnz, sent_pairs, recv_pairs }
        });

        // Charge the observed volumes with the formulas the fused kernel
        // counts in-line (send/recv pairs are 2 words each, slices 2 words
        // per entry).
        let expand_max = results.iter().map(|r| 2 * r.slice_nnz).max().unwrap_or(0);
        let max_flops = results.iter().map(|r| r.flops).max().unwrap_or(0);
        let fold_bottleneck =
            results.iter().map(|r| (2 * r.sent_pairs).max(2 * r.recv_pairs)).max().unwrap_or(0);
        let ctx = eng.ctx_mut();
        ctx.charge_allgather(kernel, pr, expand_max);
        ctx.charge_compute(kernel, max_flops);
        ctx.charge_alltoallv(kernel, pc, fold_bottleneck);

        // Rank order is row-major over the grid and outputs are globalized
        // per block row, so rank-order concatenation is globally ascending.
        let mut entries = Vec::with_capacity(results.iter().map(|r| r.entries.len()).sum());
        for r in results {
            entries.extend(r.entries);
        }
        SpVec::from_sorted_pairs(self.nrows, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    fn fig2_triples() -> Triples {
        Triples::from_edges(
            4,
            5,
            vec![(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4)],
        )
    }

    fn serial_reference(t: &Triples, x: &SpVec<(Vidx, Vidx)>) -> SpVec<(Vidx, Vidx)> {
        let a = Dcsc::from_triples(t);
        mcm_sparse::spmspv(&a, x, |j, &(_, r)| (j, r), |acc, inc| inc.0 < acc.0).y
    }

    #[test]
    fn distributed_matches_serial_on_all_grids() {
        let t = fig2_triples();
        let x = SpVec::from_pairs(5, vec![(0, (0u32, 0u32)), (1, (1, 1)), (4, (4, 4))]);
        let want = serial_reference(&t, &x);
        for dim in 1..=4 {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let a = DistMatrix::from_triples(&ctx, &t);
            let y =
                a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, &(_, r)| (j, r), |acc, inc| inc.0 < acc.0);
            assert_eq!(y, want, "grid {dim}x{dim}");
        }
    }

    #[test]
    fn single_block_assembly_matches_the_pair_scatter_builder() {
        // The 1×1 path builds both orientations by linear passes only; the
        // blocks must equal, byte for byte, what scattering the relabeled
        // pairs through the sorting builder gives.
        use mcm_sparse::permute::{relabel_permutations, SplitMix64};
        let mut rng = SplitMix64::new(0xB10C);
        let mut shapes = vec![fig2_triples()];
        for (n1, n2) in [(30usize, 50usize), (50, 30), (1, 7)] {
            let mut t = Triples::new(n1, n2);
            for _ in 0..3 * n1.max(n2) {
                t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
            }
            t.sort_dedup();
            shapes.push(t);
        }
        for t in &shapes {
            let csc = t.to_csc();
            let v = csc.view();
            let (n1, n2) = (v.nrows(), v.ncols());
            let (rp, cp) = relabel_permutations(n1, n2, 0x5EED);
            for (rowp, colp) in [(None, None), (Some(&rp), Some(&cp)), (Some(&rp), None)] {
                let pairs: Vec<(Vidx, Vidx)> = v
                    .iter()
                    .map(|(i, j)| (rowp.map_or(i, |p| p.apply(i)), colp.map_or(j, |p| p.apply(j))))
                    .collect();
                let swapped: Vec<(Vidx, Vidx)> = pairs.iter().map(|&(i, j)| (j, i)).collect();
                let want_a = Dcsc::from_unsorted_pairs(n1, n2, &pairs);
                let want_at = Dcsc::from_unsorted_pairs(n2, n1, &swapped);
                let (a, at) = DistMatrix::with_grid_csc_pair(&v, 1, 1, rowp, colp);
                let tag = format!("{n1}x{n2} rowp={} colp={}", rowp.is_some(), colp.is_some());
                assert_eq!(a.block(0, 0), &want_a, "{tag}: A");
                assert_eq!(at.block(0, 0), &want_at, "{tag}: Aᵀ");
                let alone = DistMatrix::with_grid_csc(&v, 1, 1, rowp, colp);
                assert_eq!(alone.block(0, 0), &want_a, "{tag}: A alone");
            }
        }
    }

    #[test]
    fn plan_reuse_matches_one_shot_across_iterations() {
        // The same plan serves many products (different frontiers) with
        // identical results, and its workspaces report steady-state reuse.
        let t = fig2_triples();
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let a = DistMatrix::from_triples(&ctx, &t);
        let mut plan: SpmvPlan<(Vidx, Vidx)> = SpmvPlan::new();
        let frontiers = [
            SpVec::from_pairs(5, vec![(0, (0u32, 0u32)), (1, (1, 1)), (4, (4, 4))]),
            SpVec::from_pairs(5, vec![(2, (2, 2))]),
            SpVec::from_pairs(5, vec![(0, (0, 0)), (3, (3, 3))]),
        ];
        for x in &frontiers {
            let via_plan = ctx.spmspv(
                &a,
                Kernel::SpMV,
                &mut plan,
                x,
                |j, &(_, r)| (j, r),
                |acc, inc| inc.0 < acc.0,
            );
            let one_shot =
                a.spmspv(&mut ctx, Kernel::SpMV, x, |j, &(_, r)| (j, r), |acc, inc| inc.0 < acc.0);
            assert_eq!(via_plan, one_shot);
        }
        let stats = plan.stats();
        assert!(stats.calls >= 3);
        assert!(stats.reuse_hits > 0, "later iterations must reuse warm buffers");
    }

    #[test]
    fn blocks_partition_nnz() {
        let t = fig2_triples();
        let a = DistMatrix::with_grid(&t, 3, 2);
        assert_eq!(a.nnz(), 9);
        let sum: usize = (0..3)
            .flat_map(|i| (0..2).map(move |j| (i, j)))
            .map(|(i, j)| a.block(i, j).nnz())
            .sum();
        assert_eq!(sum, 9);
    }

    #[test]
    fn charges_grow_with_grid() {
        let t = fig2_triples();
        let x = SpVec::from_pairs(5, vec![(0, 0u32), (1, 1), (4, 4)]);
        let run = |dim: usize| {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let a = DistMatrix::from_triples(&ctx, &t);
            let _ = a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, _| j, |acc, inc| inc < acc);
            ctx.timers.seconds(Kernel::SpMV)
        };
        // On one process the latency terms vanish; on a 2x2 grid they don't.
        assert!(run(2) > run(1));
    }

    #[test]
    fn empty_frontier_yields_empty_result() {
        let t = fig2_triples();
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let a = DistMatrix::from_triples(&ctx, &t);
        let x: SpVec<u32> = SpVec::new(5);
        let y = a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, _| j, |_, _| false);
        assert!(y.is_empty());
        assert_eq!(y.len(), 4);
    }

    #[test]
    fn bottom_up_matches_top_down_under_min_parent() {
        let t = fig2_triples();
        let x = SpVec::from_pairs(5, vec![(0, (0u32, 0u32)), (1, (1, 1)), (4, (4, 4))]);
        // Dense frontier map over the 5 columns.
        let mut fmap: Vec<Option<(Vidx, Vidx)>> = vec![None; 5];
        for (j, &v) in x.iter() {
            fmap[j as usize] = Some(v);
        }
        for dim in 1..=3 {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let a = DistMatrix::from_triples(&ctx, &t);
            let top =
                a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, &(_, r)| (j, r), |acc, inc| inc.0 < acc.0);
            let at = DistMatrix::from_triples(&ctx, &t.transposed());
            let candidates: Vec<Vidx> = (0..4).collect(); // all rows unvisited
            let bottom = at.bottom_up_spmspv(
                &mut ctx,
                Kernel::SpMV,
                &candidates,
                &fmap,
                |j, &(_, r)| (j, r),
                |acc: &(Vidx, Vidx), inc| inc.0 < acc.0,
            );
            assert_eq!(bottom, top, "grid {dim}x{dim}");
        }
    }

    #[test]
    fn bottom_up_respects_candidate_subset() {
        let t = fig2_triples();
        let mut fmap: Vec<Option<u32>> = vec![None; 5];
        fmap[0] = Some(7); // only c1 in frontier
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let at = DistMatrix::from_triples(&ctx, &t.transposed());
        // Only rows r2 (adjacent to c1) and r3 (not adjacent) are candidates.
        let y = at.bottom_up_spmspv(
            &mut ctx,
            Kernel::SpMV,
            &[1, 2],
            &fmap,
            |j, &v| (j, v),
            |_, _| false,
        );
        assert_eq!(y.entries(), &[(1, (0, 7))]);
    }

    #[test]
    fn bottom_up_early_exit_saves_flops() {
        // Full frontier: every candidate stops at its first neighbour, so
        // scanned edges = number of candidates (rows with any neighbour).
        let t = fig2_triples();
        let fmap: Vec<Option<u32>> = (0..5).map(Some).collect();
        let mut ctx = DistCtx::new(MachineConfig::hybrid(1, 1));
        let at = DistMatrix::from_triples(&ctx, &t.transposed());
        let before = ctx.timers.seconds(Kernel::SpMV);
        let _ = at.bottom_up_spmspv(
            &mut ctx,
            Kernel::SpMV,
            &[0, 1, 2, 3],
            &fmap,
            |j, &v| (j, v),
            |_, _| false,
        );
        // With gamma = 8 ns and 4 single-probe candidates on one process:
        // exactly 4 probes charged (p = 1: no comm terms).
        let scanned = (ctx.timers.seconds(Kernel::SpMV) - before) / ctx.cost.gamma;
        assert!((scanned - 4.0).abs() < 1e-6, "scanned {scanned} edges, expected 4");
    }

    #[test]
    fn monoid_matches_serial_counting() {
        let t = fig2_triples();
        let x = SpVec::from_pairs(5, vec![(0, ()), (1, ()), (4, ())]);
        let a_serial = Dcsc::from_triples(&t);
        let want = mcm_sparse::spmspv_monoid(&a_serial, &x, |_, _| 1u32, |a, b| *a += b).y;
        for dim in 1..=3 {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let a = DistMatrix::from_triples(&ctx, &t);
            let y = a.spmspv_monoid(&mut ctx, Kernel::Init, &x, |_, _| 1u32, |a, b| *a += b);
            assert_eq!(y, want, "grid {dim}x{dim}");
        }
    }

    #[test]
    fn hypersparse_fraction_increases_with_grid() {
        // A sparse-ish random-ish structure: diagonal of a 64x64.
        let t = Triples::from_edges(64, 64, (0..64).map(|i| (i as Vidx, i as Vidx)).collect());
        let small = DistMatrix::with_grid(&t, 2, 2);
        let large = DistMatrix::with_grid(&t, 16, 16);
        assert!(large.hypersparse_fraction() >= small.hypersparse_fraction());
    }

    #[test]
    fn mesh_product_matches_simulator_bit_for_bit() {
        // The engine mesh runs real ranks over real channels; the result —
        // including tie-breaks of the order-sensitive min-column semiring —
        // must equal the simulator's on every square grid, for both the
        // select and monoid folds, at 1 and 2 intra-rank threads.
        let t = fig2_triples();
        let x: SpVec<(Vidx, Vidx)> =
            SpVec::from_pairs(5, vec![(0, (0, 0)), (2, (2, 2)), (3, (3, 3)), (4, (4, 4))]);
        let cnt = SpVec::from_pairs(5, vec![(0, ()), (1, ()), (3, ()), (4, ())]);
        for dim in 1..=3usize {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let a = DistMatrix::from_triples(&ctx, &t);
            let want =
                a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, &(_, r)| (j, r), |acc, inc| inc.0 < acc.0);
            let want_cnt =
                a.spmspv_monoid(&mut ctx, Kernel::Init, &cnt, |_, _| 1u32, |a, b| *a += b);
            let a = DistMatrix::with_grid(&t, dim, dim);
            for threads in [1usize, 2] {
                let mut eng = EngineComm::new(dim * dim, threads);
                let mut plan = SpmvPlan::new();
                let got = a.spmspv_mesh(
                    &mut eng,
                    Kernel::SpMV,
                    &mut plan,
                    &x,
                    |j, &(_, r)| (j, r),
                    |acc, inc| inc.0 < acc.0,
                );
                assert_eq!(got, want, "grid {dim}x{dim} threads {threads}");
                // Plan buffers reused across engine calls, still identical.
                let again = a.spmspv_mesh(
                    &mut eng,
                    Kernel::SpMV,
                    &mut plan,
                    &x,
                    |j, &(_, r)| (j, r),
                    |acc, inc| inc.0 < acc.0,
                );
                assert_eq!(again, want, "grid {dim}x{dim} threads {threads} (reused plan)");

                let mut cnt_plan = SpmvPlan::new();
                let got_cnt = a.spmspv_monoid_mesh(
                    &mut eng,
                    Kernel::Init,
                    &mut cnt_plan,
                    &cnt,
                    |_, _| 1u32,
                    |a, b| *a += b,
                );
                assert_eq!(got_cnt, want_cnt, "monoid grid {dim}x{dim} threads {threads}");
            }
        }
    }

    #[test]
    fn fused_charges_equal_the_split_mesh_execution() {
        // Same logical grid, different physical execution: the simulator's
        // fused single-block product must return the identical vector AND
        // charge the identical modeled time and call count as the engine's
        // block-split product over real ranks, for both folds.
        let nine = Triples::from_edges(
            9,
            9,
            vec![
                (0, 0),
                (1, 0),
                (2, 4),
                (3, 2),
                (4, 4),
                (4, 7),
                (5, 1),
                (6, 8),
                (7, 5),
                (8, 8),
                (8, 0),
                (2, 2),
            ],
        );
        for t in [fig2_triples(), nine] {
            let x: SpVec<Vidx> = SpVec::from_pairs(
                t.ncols(),
                (0..t.ncols() as Vidx).step_by(2).map(|j| (j, j)).collect(),
            );
            let cnt =
                SpVec::from_pairs(t.ncols(), (0..t.ncols() as Vidx).map(|j| (j, ())).collect());
            for dim in 1..=3usize {
                let mut sim = DistCtx::new(MachineConfig::hybrid(dim, 1));
                let mut eng = EngineComm::new(dim * dim, 1);
                let fused = DistMatrix::from_triples(&sim, &t);
                let split = DistMatrix::from_triples(&eng, &t);
                assert_eq!((fused.grid(), split.grid()), ((1, 1), (dim, dim)));
                let (mut ps, mut pe) = (SpmvPlan::new(), SpmvPlan::new());
                let take = |acc: &Vidx, inc: &Vidx| inc < acc;
                let ys = sim.spmspv(&fused, Kernel::SpMV, &mut ps, &x, |j, _| j, take);
                let ye = eng.spmspv(&split, Kernel::SpMV, &mut pe, &x, |j, _| j, take);
                assert_eq!(ys, ye, "grid {dim}x{dim}");
                let (mut ps, mut pe) = (SpmvPlan::new(), SpmvPlan::new());
                let count = |acc: &mut u32, inc: u32| *acc += inc;
                let cs = sim.spmspv_monoid(&fused, Kernel::Init, &mut ps, &cnt, |_, _| 1, count);
                let ce = eng.spmspv_monoid(&split, Kernel::Init, &mut pe, &cnt, |_, _| 1, count);
                assert_eq!(cs, ce, "monoid grid {dim}x{dim}");
                for k in [Kernel::SpMV, Kernel::Init] {
                    let (a, b) = (&sim.timers, &eng.ctx().timers);
                    assert_eq!(a.seconds(k), b.seconds(k), "grid {dim}x{dim}: {k:?} seconds");
                    assert_eq!(a.calls(k), b.calls(k), "grid {dim}x{dim}: {k:?} calls");
                }
            }
        }
    }

    #[test]
    fn bottom_up_charges_the_logical_grid_on_any_physical_layout() {
        // A single physical block must scan, exit early and charge per
        // logical block exactly like the logical grid's own blocks.
        let t = fig2_triples().transposed();
        let fmap: Vec<Option<Vidx>> = vec![Some(0), None, Some(2), Some(3), Some(4)];
        for dim in 1..=3usize {
            let run = |physical: usize| {
                let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
                let at = DistMatrix::with_grid(&t, physical, physical);
                let y = at.bottom_up_spmspv(
                    &mut ctx,
                    Kernel::SpMV,
                    &[0, 1, 2, 3],
                    &fmap,
                    |j, &v| (j, v),
                    |acc: &(Vidx, Vidx), inc| inc.0 < acc.0,
                );
                (y, ctx.timers.seconds(Kernel::SpMV), ctx.timers.calls(Kernel::SpMV))
            };
            assert_eq!(run(1), run(dim), "grid {dim}x{dim}");
        }
    }
}
