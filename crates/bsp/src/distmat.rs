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
//!   would ship, and the α–β–γ model charges those. Assembled from a CSC
//!   view, `A` is not copied: the block is the view read through the
//!   random relabeling's index maps ([`RelabeledView`]), and only `Aᵀ` is
//!   built, by one counting scatter straight from the view
//!   ([`Dcsc::transpose_of`]). The kernel does not need sorted rows: it
//!   looks each row's fold segment up in a [`FoldGrid`] the plan caches
//!   per matrix shape and grid (on the view, composed with `rowp` so that
//!   the product runs in the view's own row labels), and counts flops and
//!   fold pairs per (block column, segment).
//! * **Engine** ([`EngineComm`]): the matrix is split into the grid's
//!   blocks and rank `(i, j)` runs block `(i, j)`. Frontier slices really
//!   are allgathered along grid columns and partials really fold along
//!   grid rows over the channel mesh, and the observed volumes are charged.
//!   This split execution is the reference the fused charges are tested
//!   against, to the bit.
//!
//! Both take the semiring addition as one associative fold,
//! `fold(&mut acc, inc)`, and return identical vectors: per-row candidates
//! fold in ascending global column order, exactly like the serial kernel,
//! and the split execution only re-parenthesizes that sequence.
//!
//! ## SpMSpV plans
//!
//! The MS-BFS hot loop calls the distributed product once per iteration per
//! phase. A [`SpmvPlan`] keeps one [`SpmvWorkspace`] and one output
//! [`SpVec`] per physical block, so every sparse-accumulator allocation is
//! reused across iterations. [`DistMatrix::spmspv`] remains as a one-shot
//! wrapper that builds a throwaway plan.

use crate::collectives::balanced_owner;
use crate::comm::{Communicator, EngineComm};
use crate::ctx::DistCtx;
use crate::timers::Kernel;
use mcm_sparse::permute::Permutation;
use mcm_sparse::triples::{block_offsets, block_owner};
use mcm_sparse::view::RelabeledView;
use mcm_sparse::workspace::{Columns, FoldGrid, SegCounts, SpmvWorkspace, WorkspaceStats};
use mcm_sparse::{CscView, Dcsc, SpVec, Triples, Vidx};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Reusable buffers for [`Communicator::spmspv`]: one SpMSpV workspace and
/// output vector per physical block. Create once, pass to every distributed product
/// against matrices on the same grid — buffers grow to the high-water mark
/// and are then reused, so steady-state iterations allocate nothing in the
/// kernel layer.
#[derive(Debug)]
pub struct SpmvPlan<U: Copy> {
    blocks: Vec<PlanBlock<U>>,
    /// Simulator only: the fold geometry of the last fused product,
    /// rebuilt when the matrix shape or the logical grid changes.
    fold: Option<FoldGrid>,
    /// Simulator only: the last relabeled matrix's fold geometry composed
    /// with its row map ([`FoldGrid::composed`]), keyed by the matrix's
    /// identity; rebuilt when the matrix or the logical grid changes.
    composed: Option<(u64, FoldGrid)>,
}

impl<U: Copy> Default for SpmvPlan<U> {
    fn default() -> Self {
        Self::new()
    }
}

impl<U: Copy> SpmvPlan<U> {
    /// An empty plan; buffers materialize on first use.
    pub fn new() -> Self {
        Self { blocks: Vec::new(), fold: None, composed: None }
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

    /// The single physical block's workspace and the fold geometry of an
    /// `nrows × ncols` product on the logical `pr × pc` grid, rebuilt only
    /// when the shape or the grid changed since the last product.
    fn single(
        &mut self,
        nrows: usize,
        ncols: usize,
        pr: usize,
        pc: usize,
    ) -> (&mut SpmvWorkspace<U>, &FoldGrid) {
        self.ensure(1);
        let SpmvPlan { blocks, fold, .. } = self;
        if fold.as_ref().is_some_and(|g| !g.fits(nrows, ncols, pr, pc)) {
            *fold = None;
        }
        let grid = fold.get_or_insert_with(|| FoldGrid::new(nrows, ncols, pr, pc));
        (&mut blocks[0].ws, grid)
    }

    /// [`SpmvPlan::single`] for the relabeled matrix `id`, whose stored
    /// rows map through `rowp`: the grid composed with `rowp`, built once
    /// per matrix and grid.
    fn single_composed(
        &mut self,
        id: u64,
        rowp: &[Vidx],
        ncols: usize,
        pr: usize,
        pc: usize,
    ) -> (&mut SpmvWorkspace<U>, &FoldGrid) {
        self.ensure(1);
        let SpmvPlan { blocks, composed, .. } = self;
        let nrows = rowp.len();
        if composed.as_ref().is_some_and(|(k, g)| *k != id || !g.fits(nrows, ncols, pr, pc)) {
            *composed = None;
        }
        let (_, grid) = composed
            .get_or_insert_with(|| (id, FoldGrid::new(nrows, ncols, pr, pc).composed(rowp)));
        (&mut blocks[0].ws, grid)
    }
}

/// Bottleneck expand volume of a frontier over the logical block columns
/// `col_off`: `max_bj 2 · |{entries in column block bj}|`.
fn expand_max<T>(col_off: &[usize], xs: &[(Vidx, T)]) -> u64 {
    let mut expand_max = 0u64;
    for w in col_off.windows(2) {
        let lo = xs.partition_point(|&(j, _)| (j as usize) < w[0]);
        let hi = xs.partition_point(|&(j, _)| (j as usize) < w[1]);
        expand_max = expand_max.max(2 * (hi - lo) as u64);
    }
    expand_max
}

/// The set bits of `bits`, ascending.
fn set_bits(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut b = word;
        std::iter::from_fn(move || {
            (b != 0).then(|| {
                let i = 64 * w + b.trailing_zeros() as usize;
                b &= b - 1;
                i
            })
        })
    })
}

/// Each stored row's neighbours among `x`'s columns, per side of the
/// block-column boundary `mid`: the low half of `cnt[r]` counts those
/// before it, the high half those at or past it. One pass over the storage
/// slots, skipping the columns not in `x`.
fn count_sides<A: Columns, T>(a: &A, x: &SpVec<T>, mid: usize) -> Vec<u64> {
    let mut member = vec![0u64; a.ncols().div_ceil(64)];
    for &(j, _) in x.entries() {
        member[j as usize / 64] |= 1 << (j % 64);
    }
    let mut cnt = vec![0u64; a.nrows()];
    for k in 0..a.nstored() {
        let (j, rows) = a.stored(k);
        if member[j as usize / 64] >> (j % 64) & 1 == 1 {
            let inc = 1u64 << (32 * u32::from(j as usize >= mid));
            for &r in rows {
                cnt[r as usize] += inc;
            }
        }
    }
    cnt
}

/// The member rows a [`DistMatrix::min_pull`] copies out of the matrix are
/// at most `1 / MEMBER_SHARE` of its nonzeros, plus one column; a pull
/// whose members hold more keeps reading the matrix.
const MEMBER_SHARE: usize = 4;

/// Writes the members among `rows` to `dst`, in order, and returns how many
/// there are and how many of them lie past the block boundary, by the
/// stored rows' `tags` (bit 0: a member, bit 1: a member at or past the
/// boundary). Branch-free: every row is written and only a member advances,
/// since membership is about as likely as not. `dst` may be the cells
/// `rows` reads, as long as each write lands at or behind the row last
/// read.
#[inline]
fn sift(rows: impl Iterator<Item = Vidx>, dst: &[Cell<Vidx>], tags: &[u8]) -> (usize, u64) {
    let (mut n, mut nright) = (0usize, 0u64);
    for r in rows {
        let tag = tags[r as usize];
        nright += u64::from(tag >> 1);
        dst[n].set(r);
        n += usize::from(tag & 1);
    }
    (n, nright)
}

/// Each live column's least key among its stored rows that are frontier
/// members, counted on one or two logical block columns of `grid`. `keys`
/// and `tags` are indexed by stored row label: the keys, and the [`sift`]
/// tags saying which rows are members and which of those lie at or past
/// the block boundary (a flop of the right block column). Members are the
/// flops; a column with none is charged nothing, yields no entry and
/// leaves `live`. Each column's members are sifted out first and only
/// their keys read, except when every row is a member. The columns are read
/// in storage order (sequential for a relabeled view), since neither the
/// minima nor the counts depend on it, and the minima are gathered in
/// ascending column order at the end.
///
/// The first pull reads every storage slot and keeps the live ones. The
/// next copies the live columns' member rows out of `t` when they fit in
/// `nnz / MEMBER_SHARE` rows plus one column, and later pulls read and
/// compact that copy; otherwise pulls keep reading the live slots.
fn least_keys<A: Columns>(
    t: &A,
    nnz: usize,
    keys: &[u64],
    tags: &[u8],
    grid: &FoldGrid,
    counts: &mut SegCounts,
    live: &mut LiveCols,
) -> Vec<(Vidx, u64)> {
    let (pc, seg_of) = (grid.col_off().len() - 1, grid.seg());
    let mut least = vec![0u64; t.ncols()];
    let mut filled = vec![0u64; t.ncols().div_ceil(64)];
    // Column `c`'s `n` members, `nright` of them right, with least key
    // `best`: charged and kept. `false` when it has none.
    let mut keep = |c: Vidx, n: usize, nright: u64, best: u64| {
        if n > 0 {
            let seg = usize::from(seg_of[c as usize]);
            counts.add(0, seg, n as u64 - nright);
            if pc == 2 {
                counts.add(1, seg, nright);
            }
            least[c as usize] = best;
            filled[c as usize / 64] |= 1 << (c % 64);
        }
        n > 0
    };
    let least_of = |sifted: &[Cell<Vidx>]| {
        sifted.iter().map(|r| keys[r.get() as usize]).min().unwrap_or(u64::MAX)
    };
    // Sifts the columns in `slots` out of `t`, copying their members into
    // one buffer while they fit; returns the slots still live, or the copy.
    let mut sift_slots = |slots: &mut dyn Iterator<Item = u32>| {
        let mut buf = vec![0 as Vidx; nnz / MEMBER_SHARE + t.nrows()];
        let (mut cols, mut len, mut copy) = (Vec::new(), 0, true);
        let kept: Vec<u32> = slots
            .filter(|&k| {
                let (c, rows) = t.stored(k as usize);
                copy &= len + rows.len() <= buf.len();
                let at = if copy { len } else { 0 };
                let dst = Cell::from_mut(&mut buf[at..]).as_slice_of_cells();
                let (n, nright) = sift(rows.iter().copied(), dst, tags);
                let live = keep(c, n, nright, least_of(&dst[..n]));
                if copy && live {
                    len += n;
                    cols.push((c, len));
                }
                live
            })
            .collect();
        if copy {
            buf.truncate(len);
            Live::Members { cols, rows: buf }
        } else {
            Live::Slots(kept)
        }
    };
    live.0 = match std::mem::take(&mut live.0) {
        // Every row a member (a first round): one pass over the keys, where
        // the sift would write every row and read it back (1.2–1.6×
        // slower on g500 s17, EXPERIMENTS.md).
        Live::Every if tags.iter().all(|&tag| tag & 1 == 1) => {
            // The block sides alone, one bit a row: a first-level-cache
            // table for the pass that reads every key.
            let mut right = vec![0u64; tags.len().div_ceil(64)];
            for (r, &tag) in tags.iter().enumerate() {
                right[r / 64] |= u64::from(tag >> 1) << (r % 64);
            }
            Live::Slots(
                (0..t.nstored() as u32)
                    .filter(|&k| {
                        let (c, rows) = t.stored(k as usize);
                        let (mut best, mut nright) = (u64::MAX, 0);
                        for &r in rows {
                            best = best.min(keys[r as usize]);
                            nright += right[r as usize / 64] >> (r % 64) & 1;
                        }
                        keep(c, rows.len(), nright, best)
                    })
                    .collect(),
            )
        }
        Live::Every => sift_slots(&mut (0..t.nstored() as u32)),
        Live::Slots(slots) => sift_slots(&mut slots.into_iter()),
        Live::Members { mut cols, mut rows } => {
            // Members only leave, so each column's survivors are written
            // back in place, never past the rows still to be read.
            let cells = Cell::from_mut(&mut rows[..]).as_slice_of_cells();
            let (mut start, mut end, mut kept) = (0, 0, 0);
            for i in 0..cols.len() {
                let (c, stop) = cols[i];
                let dst = &cells[end..];
                let (n, nright) = sift(cells[start..stop].iter().map(Cell::get), dst, tags);
                let best = least_of(&dst[..n]);
                (start, end) = (stop, end + n);
                if keep(c, n, nright, best) {
                    cols[kept] = (c, end);
                    kept += 1;
                }
            }
            cols.truncate(kept);
            rows.truncate(end);
            Live::Members { cols, rows }
        }
    };
    set_bits(&filled).map(|c| (c as Vidx, least[c])).collect()
}

/// What a sequence of [`DistMatrix::min_pull`]s over one matrix still
/// reads: every column at first, then those that had a frontier member in
/// the last pull, and from the third pull on only those columns' member
/// rows, copied out of the matrix when they are a small share of it. Sound
/// while each frontier's members are a subset of the last one's, so that a
/// row that left stays out: the unmatched rows of a growing matching, for
/// instance.
#[derive(Clone, Debug, Default)]
pub struct LiveCols(Live);

/// The states of [`LiveCols`].
#[derive(Clone, Debug, Default)]
enum Live {
    /// Before the first pull.
    #[default]
    Every,
    /// The live storage slots.
    Slots(Vec<u32>),
    /// The live columns, each with the end of its member rows (stored
    /// labels) in `rows`.
    Members { cols: Vec<(Vidx, usize)>, rows: Vec<Vidx> },
}

/// A sparse matrix distributed over a 2D process grid in DCSC blocks.
///
/// The lifetime is that of the CSC view and the permutations a 1×1
/// assembly reads in place ([`DistMatrix::with_grid_csc`]); matrices built
/// from owned data borrow nothing.
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
/// let y = a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, _| j, |acc, inc| *acc = inc.min(*acc));
/// assert_eq!(y.entries(), &[(0, 0), (2, 2)]);
/// assert!(ctx.timers.seconds(Kernel::SpMV) > 0.0); // modeled time accrued
/// ```
#[derive(Clone, Debug)]
pub struct DistMatrix<'a> {
    nrows: usize,
    ncols: usize,
    pr: usize,
    pc: usize,
    /// Global row index where each block row starts (`len == pr + 1`).
    row_off: Vec<usize>,
    /// Global column index where each block column starts (`len == pc + 1`).
    col_off: Vec<usize>,
    blocks: Blocks<'a>,
    nnz: usize,
}

/// The physical blocks of a [`DistMatrix`].
#[derive(Clone, Debug)]
enum Blocks<'a> {
    /// Row-major `pr × pc` DCSC blocks with block-local coordinates.
    Dcsc(Vec<Dcsc>),
    /// One block (a 1×1 grid): a CSC view read through the relabeling's
    /// index maps, with an identity that [`SpmvPlan`]s key the view's
    /// composed fold geometry by (clones share it, as they share the view).
    Relabeled(RelabeledView<'a>, u64),
}

/// `true` when a matrix assembled on the physical grid `physical` reads its
/// products on `ctx` off its structure ([`DistMatrix::reads_structure`]):
/// one block, charged on at most two logical block columns. Pass
/// [`Communicator::exec_grid`] and [`Communicator::ctx`] to ask before the
/// matrix exists.
pub fn reads_structure(physical: (usize, usize), ctx: &DistCtx) -> bool {
    physical == (1, 1) && ctx.machine.grid.pc <= 2
}

/// Source of [`Blocks::Relabeled`] identities.
static NEXT_VIEW_ID: AtomicU64 = AtomicU64::new(0);

impl<'a> DistMatrix<'a> {
    /// Distributes `t` over the grid `comm` executes on
    /// ([`Communicator::exec_grid`]): one block for the simulator, the
    /// rank grid for the engine.
    pub fn from_triples(comm: &impl Communicator, t: &Triples) -> Self {
        let (pr, pc) = comm.exec_grid();
        Self::with_grid(t, pr, pc)
    }

    /// Distributes `t` over an explicit `pr × pc` grid, in DCSC blocks.
    pub fn with_grid(t: &Triples, pr: usize, pc: usize) -> Self {
        Self::scattered(t.nrows(), t.ncols(), pr, pc, t.len(), t.entries().iter().copied())
    }

    /// Builds `A` and `Aᵀ` together from a borrowed CSC view, relabeled so
    /// that entry `(i, j)` is `(rowp(i), colp(j))` in `A` and swapped in
    /// `Aᵀ`. The matching pipeline calls it only when an initializer needs
    /// the transpose: Karp–Sipser, and dynamic mindegree where it cannot
    /// read `A`'s structure instead (wider logical grids, multi-block
    /// engine meshes); otherwise it assembles `A` alone
    /// ([`DistMatrix::with_grid_csc`]). Each call counts one
    /// `mcm_transpose_builds_total`.
    ///
    /// On a 1×1 grid (the simulator's execution grid) `A` is not
    /// materialized: its block is `v` itself read through `colp⁻¹` and
    /// `rowp` ([`RelabeledView`]), so target column `j'` is source column
    /// `colp⁻¹(j')` with its rows mapped through `rowp`, in source order.
    /// `Aᵀ` is one counting scatter straight from the view
    /// ([`Dcsc::transpose_of`]), canonical (sorted columns) because the
    /// target columns are walked in ascending `j'`. No pair list exists
    /// and nothing is sorted. Multi-block grids scatter into per-block
    /// pair buffers, paying permutation lookups and block routing once for
    /// both orientations.
    pub fn with_grid_csc_pair(
        v: &CscView<'a>,
        pr: usize,
        pc: usize,
        rowp: Option<&'a Permutation>,
        colp: Option<&'a Permutation>,
    ) -> (Self, Self) {
        mcm_obs::counter_add("mcm_transpose_builds_total", &[], 1);
        if pr == 1 && pc == 1 {
            let a = RelabeledView::new(*v, rowp, colp);
            let at = Dcsc::transpose_of(&a);
            return (Self::relabeled(a), Self::single_block(at));
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
    /// [`DistMatrix::with_grid_csc_pair`]: on a 1×1 grid, the view itself
    /// read through the index maps.
    pub fn with_grid_csc(
        v: &CscView<'a>,
        pr: usize,
        pc: usize,
        rowp: Option<&'a Permutation>,
        colp: Option<&'a Permutation>,
    ) -> Self {
        if pr == 1 && pc == 1 {
            return Self::relabeled(RelabeledView::new(*v, rowp, colp));
        }
        let relabel = |(i, j)| (rowp.map_or(i, |p| p.apply(i)), colp.map_or(j, |p| p.apply(j)));
        Self::scattered(v.nrows(), v.ncols(), pr, pc, v.nnz(), v.iter().map(relabel))
    }

    /// Scatters `entries` (global coordinates, possibly duplicated) into
    /// per-block pair buffers and compacts them into DCSC blocks.
    fn scattered(
        nrows: usize,
        ncols: usize,
        pr: usize,
        pc: usize,
        nnz: usize,
        entries: impl Iterator<Item = (Vidx, Vidx)>,
    ) -> Self {
        let row_off = block_offsets(nrows, pr);
        let col_off = block_offsets(ncols, pc);
        let mut parts: Vec<Vec<(Vidx, Vidx)>> =
            (0..pr * pc).map(|_| Vec::with_capacity(nnz / (pr * pc) + 8)).collect();
        for (i, j) in entries {
            let bi = block_owner(&row_off, i as usize);
            let bj = block_owner(&col_off, j as usize);
            parts[bi * pc + bj].push((i - row_off[bi] as Vidx, j - col_off[bj] as Vidx));
        }
        Self::from_parts(nrows, ncols, pr, pc, row_off, col_off, &parts)
    }

    /// A 1×1 grid over `blocks`, of `nrows × ncols` with `nnz` entries.
    fn one(nrows: usize, ncols: usize, nnz: usize, blocks: Blocks<'a>) -> Self {
        let (row_off, col_off) = (vec![0, nrows], vec![0, ncols]);
        Self { nrows, ncols, pr: 1, pc: 1, row_off, col_off, blocks, nnz }
    }

    /// A 1×1 grid holding `block` whole.
    fn single_block(block: Dcsc) -> Self {
        Self::one(block.nrows(), block.ncols(), block.nnz(), Blocks::Dcsc(vec![block]))
    }

    /// A 1×1 grid reading `v` in place.
    fn relabeled(v: RelabeledView<'a>) -> Self {
        let id = NEXT_VIEW_ID.fetch_add(1, Ordering::Relaxed);
        Self::one(v.nrows(), v.ncols(), v.nnz(), Blocks::Relabeled(v, id))
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
        Self { nrows, ncols, pr, pc, row_off, col_off, blocks: Blocks::Dcsc(blocks), nnz }
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
    ///
    /// # Panics
    ///
    /// On a 1×1 matrix assembled from a CSC view, whose block is the view
    /// read in place ([`DistMatrix::relabeled_view`]).
    #[inline]
    pub fn block(&self, bi: usize, bj: usize) -> &Dcsc {
        &self.dcsc_blocks()[bi * self.pc + bj]
    }

    /// The block of a 1×1 matrix assembled from a CSC view: the view read
    /// through the relabeling's index maps. `None` for DCSC blocks.
    pub fn relabeled_view(&self) -> Option<&RelabeledView<'a>> {
        match &self.blocks {
            Blocks::Relabeled(v, _) => Some(v),
            Blocks::Dcsc(_) => None,
        }
    }

    fn dcsc_blocks(&self) -> &[Dcsc] {
        match &self.blocks {
            Blocks::Dcsc(b) => b,
            Blocks::Relabeled(..) => panic!("a block read off a CSC view holds no DCSC"),
        }
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
    /// * `fold(acc, inc)` — semiring addition, folding an incoming candidate
    ///   into the row's accumulator; must be associative (a selection, a
    ///   first- or last-arrival pick, or a count).
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
        fold: impl Fn(&mut U, U) + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        ctx.spmspv(self, kernel, &mut SpmvPlan::new(), x, mul, fold)
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
        fold: impl Fn(&mut U, U) + Sync,
    ) -> SpVec<U>
    where
        T: Copy + Send + Sync,
        U: Copy + Send + Sync,
    {
        assert_eq!(x.len(), self.ncols, "frontier length must match ncols");
        assert_eq!((self.pr, self.pc), (1, 1), "the simulator executes a single physical block");
        let (pr, pc) = (ctx.machine.grid.pr, ctx.machine.grid.pc);
        // A relabeled view's product runs in stored row labels, on the grid
        // composed with its row map.
        let (ws, grid) = self.plan_grid(plan, pr, pc);
        // Logical expand: the bottleneck frontier slice along a grid column
        // (no slice is materialized — the fused kernel reads `x` in place).
        ctx.charge_allgather(kernel, pr, expand_max(grid.col_off(), x.entries()));
        let mut y = SpVec::new(0);
        let vols = match &self.blocks {
            Blocks::Dcsc(b) => ws.spmspv_fused_into(&b[0], x, grid, mul, fold, &mut y),
            Blocks::Relabeled(v, _) => ws.spmspv_fused_into(v, x, grid, mul, fold, &mut y),
        };
        ctx.charge_compute(kernel, vols.max_flops);
        ctx.charge_alltoallv(kernel, pc, vols.fold_bottleneck);
        y
    }

    /// `true` when this matrix's products on `ctx` can be read off its own
    /// structure ([`DistMatrix::count_cols`], [`DistMatrix::min_pull`]):
    /// one physical block charged on at most two logical block columns.
    /// Those kernels split a row's or a column's neighbours at the one
    /// block boundary; wider logical grids push through the fused product.
    pub fn reads_structure(&self, ctx: &DistCtx) -> bool {
        reads_structure(self.grid(), ctx)
    }

    /// The single physical block's workspace and fold geometry for a
    /// product of this matrix on the logical `pr × pc` grid: composed with
    /// the row map of a relabeled view, so that the product runs in stored
    /// row labels.
    fn plan_grid<'p, U: Copy>(
        &self,
        plan: &'p mut SpmvPlan<U>,
        pr: usize,
        pc: usize,
    ) -> (&'p mut SpmvWorkspace<U>, &'p FoldGrid) {
        match (&self.blocks, self.relabeled_view().and_then(|v| v.row_map())) {
            (Blocks::Relabeled(_, id), Some(rowp)) => {
                plan.single_composed(*id, rowp, self.ncols, pr, pc)
            }
            _ => plan.single(self.nrows, self.ncols, pr, pc),
        }
    }

    /// The counting product `y = self ⊗ x` over `(+, 1)` — each row's
    /// number of neighbours among `x`'s columns — on one physical block,
    /// as one counting pass over `self`'s storage slots into per-row
    /// counters, one per side of the logical block-column boundary (a
    /// column's side is its label against the boundary), skipping the
    /// columns not in `x`. On a relabeled view that is a sequential read,
    /// which measured faster than seeking `x`'s columns even when they are
    /// few (EXPERIMENTS.md), and the counters run in stored row labels, on
    /// the fold geometry composed with `rowp`, so an edge reads no map.
    ///
    /// Result and charges equal the fused product
    /// ([`Communicator::spmspv`] on [`DistCtx`] with `|_, _| 1` and `+=`),
    /// charged in the same order: a row's count on side `bj` is the flops
    /// from block column `bj` into the row's fold segment, and a nonzero
    /// count is one fold pair. Only for [`DistMatrix::reads_structure`]
    /// contexts.
    pub fn count_cols<T>(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        plan: &mut SpmvPlan<u32>,
        x: &SpVec<T>,
    ) -> SpVec<u32> {
        let _span = mcm_obs::kernel_span("count_cols", kernel.name());
        assert_eq!(x.len(), self.ncols, "frontier length must match ncols");
        assert!(self.reads_structure(ctx), "structure kernels count at most two block columns");
        let (pr, pc) = (ctx.machine.grid.pr, ctx.machine.grid.pc);
        let (ws, grid) = self.plan_grid(plan, pr, pc);
        ctx.charge_allgather(kernel, pr, expand_max(grid.col_off(), x.entries()));
        let mid = grid.col_off()[1];
        let cnt = match &self.blocks {
            Blocks::Dcsc(b) => count_sides(&b[0], x, mid),
            Blocks::Relabeled(v, _) => count_sides(v, x, mid),
        };
        let counts = ws.seg_counts();
        counts.reset(pr, pc);
        // Ascending target rows: stored row `stored[t]` is row `t`.
        let (seg, stored) = (grid.seg(), grid.stored());
        let mut y = Vec::new();
        for t in 0..self.nrows {
            let r = stored.map_or(t, |s| s[t] as usize);
            let (c, s) = (cnt[r], usize::from(seg[r]));
            if c != 0 {
                counts.add(0, s, c & 0xFFFF_FFFF);
                if pc == 2 {
                    counts.add(1, s, c >> 32);
                }
                y.push((t as Vidx, (c & 0xFFFF_FFFF) as u32 + (c >> 32) as u32));
            }
        }
        let vols = counts.volumes();
        ctx.charge_compute(kernel, vols.max_flops);
        ctx.charge_alltoallv(kernel, pc, vols.fold_bottleneck);
        SpVec::from_sorted_pairs(self.nrows, y)
    }

    /// The selection product `y = selfᵀ ⊗ x` over `(min, select)` — each
    /// column's least key among its neighbours in the frontier `x`, a
    /// sparse vector over the rows — computed on one physical block by one
    /// pull over the columns of `self`, without its transpose. Non-members
    /// are keyed `u64::MAX` (so `x` may not hold that key) and not counted.
    /// The keys and the block sides are composed with `rowp` once, in a
    /// relabeled view's stored row labels, so an edge reads no map, and the
    /// view's columns are read in storage order. Only the slots still in
    /// `live` are read ([`LiveCols`]), so `live` belongs to one sequence
    /// of shrinking frontiers over this matrix.
    ///
    /// Result and charges equal the fused product of the transpose
    /// ([`Communicator::spmspv`] on [`DistCtx`] over `selfᵀ` with
    /// `|_, &k| k` and a `min` fold), charged in the same order. The
    /// minimum does not depend on the order the keys are compared in, and
    /// neither do the counts: column `c`'s flops from logical block column
    /// `bj` of the transpose are its member neighbours in `bj`'s row range,
    /// and each block column with any is one fold pair into `c`'s segment.
    /// Only for [`DistMatrix::reads_structure`] contexts, so that is one
    /// compare per edge against the one block boundary.
    pub fn min_pull(
        &self,
        ctx: &mut DistCtx,
        kernel: Kernel,
        plan: &mut SpmvPlan<u64>,
        x: &SpVec<u64>,
        live: &mut LiveCols,
    ) -> SpVec<u64> {
        let _span = mcm_obs::kernel_span("min_pull", kernel.name());
        assert_eq!(x.len(), self.nrows, "frontier length must match nrows");
        assert!(self.reads_structure(ctx), "structure kernels count at most two block columns");
        let (pr, pc) = (ctx.machine.grid.pr, ctx.machine.grid.pc);
        // Charged as the product of the `ncols × nrows` transpose.
        let (ws, grid) = plan.single(self.ncols, self.nrows, pr, pc);
        ctx.charge_allgather(kernel, pr, expand_max(grid.col_off(), x.entries()));
        let mut keys = vec![u64::MAX; self.nrows];
        for &(r, k) in x.entries() {
            debug_assert_ne!(k, u64::MAX, "u64::MAX keys a non-member");
            keys[r as usize] = k;
        }
        let counts = ws.seg_counts();
        counts.reset(pr, pc);
        let mid = grid.col_off()[1];
        // Keys and tags in stored labels, composed with `rowp` once, so an
        // edge reads no map.
        let rowp = self.relabeled_view().and_then(|v| v.row_map());
        if let Some(p) = rowp {
            keys = p.iter().map(|&r| keys[r as usize]).collect();
        }
        let tags: Vec<u8> = (0..self.nrows)
            .map(|s| {
                let member = keys[s] != u64::MAX;
                let right = rowp.map_or(s, |p| p[s] as usize) >= mid;
                u8::from(member) | u8::from(member && right) << 1
            })
            .collect();
        let y = match &self.blocks {
            Blocks::Dcsc(b) => least_keys(&b[0], self.nnz, &keys, &tags, grid, counts, live),
            Blocks::Relabeled(v, _) => least_keys(v, self.nnz, &keys, &tags, grid, counts, live),
        };
        let vols = counts.volumes();
        ctx.charge_compute(kernel, vols.max_flops);
        ctx.charge_alltoallv(kernel, pc, vols.fold_bottleneck);
        SpVec::from_sorted_pairs(self.ncols, y)
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
        fold: impl Fn(&mut U, U) + Sync,
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

        let row_off = &self.row_off;
        let col_off = &self.col_off;
        let blocks = &self.blocks;
        let (mul, fold) = (&mul, &fold);

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
            let local_mul = |lj, v: &T| mul(lj + off, v);
            let flops = match blocks {
                Blocks::Dcsc(b) => st.ws.spmspv_into(&b[q], &slice, local_mul, fold, &mut st.out),
                // A one-rank mesh over a view: the plain product reads it in place.
                Blocks::Relabeled(v, _) => {
                    st.ws.spmspv_into(v, &slice, local_mul, fold, &mut st.out)
                }
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
                    Some((last, acc)) if *last == i => fold(acc, v),
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
    use mcm_sparse::workspace::FusedVolumes;

    fn fig2_triples() -> Triples {
        Triples::from_edges(
            4,
            5,
            vec![(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4)],
        )
    }

    fn min_parent(acc: &mut (Vidx, Vidx), inc: (Vidx, Vidx)) {
        if inc.0 < acc.0 {
            *acc = inc;
        }
    }

    fn min(acc: &mut Vidx, inc: Vidx) {
        *acc = inc.min(*acc);
    }

    fn first<U>(_: &mut U, _: U) {}

    fn last<U>(acc: &mut U, inc: U) {
        *acc = inc;
    }

    fn count(acc: &mut u32, inc: u32) {
        *acc += inc;
    }

    fn serial_reference(t: &Triples, x: &SpVec<(Vidx, Vidx)>) -> SpVec<(Vidx, Vidx)> {
        let a = Dcsc::from_triples(t);
        mcm_sparse::spmspv(&a, x, |j, &(_, r)| (j, r), min_parent).y
    }

    #[test]
    fn distributed_matches_serial_on_all_grids() {
        let t = fig2_triples();
        let x = SpVec::from_pairs(5, vec![(0, (0u32, 0u32)), (1, (1, 1)), (4, (4, 4))]);
        let want = serial_reference(&t, &x);
        for dim in 1..=4 {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let a = DistMatrix::from_triples(&ctx, &t);
            let y = a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, &(_, r)| (j, r), min_parent);
            assert_eq!(y, want, "grid {dim}x{dim}");
        }
    }

    #[test]
    fn single_block_assembly_maps_the_view_and_scatters_a_canonical_transpose() {
        // The 1×1 path keeps A as the view read through the index maps and
        // builds Aᵀ by one scatter from the view. For all four (rowp, colp)
        // combinations: A's column j', as the kernels read it, must be
        // source column colp⁻¹(j') with its rows mapped through rowp, in
        // source order; Aᵀ must equal, byte for byte, what scattering the
        // relabeled pairs through the sorting builder gives; and the fused
        // products on the view must equal those on an assembled DCSC of the
        // relabeled pairs, in values and charges, for the min, last and
        // count folds on square and rectangular logical grids.
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
        let mut unsorted_seen = false;
        for t in &shapes {
            let csc = t.to_csc();
            let v = csc.view();
            let (n1, n2) = (v.nrows(), v.ncols());
            let (rp, cp) = relabel_permutations(n1, n2, 0x5EED);
            for (rowp, colp) in
                [(None, None), (Some(&rp), Some(&cp)), (Some(&rp), None), (None, Some(&cp))]
            {
                let tag = format!("{n1}x{n2} rowp={} colp={}", rowp.is_some(), colp.is_some());
                let cinv = colp.map(Permutation::inverse);
                let want_a: Vec<(Vidx, Vec<Vidx>)> = (0..n2 as Vidx)
                    .map(|jp| (jp, cinv.as_ref().map_or(jp, |c| c.apply(jp))))
                    .map(|(jp, j)| {
                        let rows = v.col(j as usize).iter();
                        (jp, rows.map(|&i| rowp.map_or(i, |p| p.apply(i))).collect::<Vec<_>>())
                    })
                    .filter(|(_, rows)| !rows.is_empty())
                    .collect();
                let (a, at) = DistMatrix::with_grid_csc_pair(&v, 1, 1, rowp, colp);
                assert_eq!((a.nrows(), a.ncols(), a.nnz()), (n1, n2, t.len()), "{tag}: A shape");
                let view = a.relabeled_view().expect("A is read off the view");
                let read = |v: &RelabeledView| -> Vec<(Vidx, Vec<Vidx>)> {
                    let mut cursor = 0;
                    (0..n2 as Vidx)
                        .map(|j| (j, v.seek(&mut cursor, j).iter().map(|&i| v.row(i)).collect()))
                        .filter(|(_, rows): &(Vidx, Vec<Vidx>)| !rows.is_empty())
                        .collect()
                };
                assert_eq!(read(view), want_a, "{tag}: A");
                let pairs: Vec<(Vidx, Vidx)> = want_a
                    .iter()
                    .flat_map(|(j, rows)| rows.iter().map(move |&i| (i, *j)))
                    .collect();
                let swapped: Vec<(Vidx, Vidx)> = pairs.iter().map(|&(i, j)| (j, i)).collect();
                assert_eq!(
                    at.block(0, 0),
                    &Dcsc::from_unsorted_pairs(n2, n1, &swapped),
                    "{tag}: Aᵀ"
                );
                let alone = DistMatrix::with_grid_csc(&v, 1, 1, rowp, colp);
                let alone = alone.relabeled_view().expect("A alone is read off the view");
                assert_eq!(read(alone), want_a, "{tag}: A alone");
                unsorted_seen |=
                    want_a.iter().any(|(_, rows)| rows.windows(2).any(|w| w[0] > w[1]));

                let assembled = DistMatrix::with_grid(&Triples::from_edges(n1, n2, pairs), 1, 1);
                let x: SpVec<Vidx> =
                    SpVec::from_pairs(n2, (0..n2 as Vidx).step_by(3).map(|j| (j, j ^ 5)).collect());
                let cnt = SpVec::from_pairs(n2, (0..n2 as Vidx).map(|j| (j, ())).collect());
                for (pr, pc) in [(1, 1), (2, 2), (3, 3), (2, 1), (1, 3)] {
                    let machine = || MachineConfig {
                        grid: crate::machine::ProcGrid { pr, pc },
                        ..MachineConfig::hybrid(1, 1)
                    };
                    let (mut on_view, mut on_dcsc) =
                        (DistCtx::new(machine()), DistCtx::new(machine()));
                    let run = |m: &DistMatrix, ctx: &mut DistCtx| {
                        let mut plan = SpmvPlan::new();
                        let ym = ctx.spmspv(m, Kernel::SpMV, &mut plan, &x, |j, &k| j ^ k, min);
                        let yl = ctx.spmspv(m, Kernel::SpMV, &mut plan, &x, |j, _| j, last);
                        let mut counting = SpmvPlan::new();
                        let yc = ctx.spmspv(m, Kernel::Init, &mut counting, &cnt, |_, _| 1, count);
                        (ym, yl, yc)
                    };
                    let tag = format!("{tag} on {pr}x{pc}");
                    assert_eq!(run(&a, &mut on_view), run(&assembled, &mut on_dcsc), "{tag}");
                    assert_eq!(on_view.timers, on_dcsc.timers, "{tag}: charges");
                }
            }
        }
        assert!(unsorted_seen, "some relabeled column must read its rows unsorted");
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
            let via_plan =
                ctx.spmspv(&a, Kernel::SpMV, &mut plan, x, |j, &(_, r)| (j, r), min_parent);
            let one_shot = a.spmspv(&mut ctx, Kernel::SpMV, x, |j, &(_, r)| (j, r), min_parent);
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
            let _ = a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, _| j, min);
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
        let y = a.spmspv(&mut ctx, Kernel::SpMV, &x, |j, _| j, first);
        assert!(y.is_empty());
        assert_eq!(y.len(), 4);
    }

    #[test]
    fn counting_fold_matches_serial_counting() {
        let t = fig2_triples();
        let x = SpVec::from_pairs(5, vec![(0, ()), (1, ()), (4, ())]);
        let a_serial = Dcsc::from_triples(&t);
        let want = mcm_sparse::spmspv(&a_serial, &x, |_, _| 1u32, count).y;
        for dim in 1..=3 {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
            let a = DistMatrix::from_triples(&ctx, &t);
            let y = a.spmspv(&mut ctx, Kernel::Init, &x, |_, _| 1u32, count);
            assert_eq!(y, want, "grid {dim}x{dim}");
        }
    }

    /// A 512 × 512 matrix with 200 random draws per column: a full
    /// frontier folds many candidates per row in every block of the 3×3
    /// grid.
    fn dense_triples() -> Triples {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(0xF01D);
        let mut t = Triples::new(512, 512);
        for j in 0..512 {
            for _ in 0..200 {
                t.push(rng.below(512) as Vidx, j);
            }
        }
        t.sort_dedup();
        t
    }

    #[test]
    fn mesh_product_matches_simulator_bit_for_bit() {
        // The engine mesh runs real ranks over real channels; the result —
        // including tie-breaks of the order-sensitive min-column selection
        // and the last-arrival fold — must equal the simulator's on every
        // square grid for every fold, at 1 and 2 modeled threads per rank.
        let fig2 = fig2_triples();
        let fig2_x: SpVec<(Vidx, Vidx)> =
            SpVec::from_pairs(5, vec![(0, (0, 0)), (2, (2, 2)), (3, (3, 3)), (4, (4, 4))]);
        let dense = dense_triples();
        let dense_x = SpVec::from_pairs(512, (0..512).map(|j| (j, (j, 511 - j))).collect());
        for (t, x) in [(fig2, fig2_x), (dense, dense_x)] {
            let cnt = SpVec::from_pairs(x.len(), x.iter().map(|(j, _)| (j, ())).collect());
            for dim in 1..=3usize {
                let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
                let a = DistMatrix::from_triples(&ctx, &t);
                let mul = |j, &(_, r): &(Vidx, Vidx)| (j, r);
                let want = a.spmspv(&mut ctx, Kernel::SpMV, &x, mul, min_parent);
                let want_last = a.spmspv(&mut ctx, Kernel::SpMV, &x, mul, last);
                let want_cnt = a.spmspv(&mut ctx, Kernel::Init, &cnt, |_, _| 1u32, count);
                let a = DistMatrix::with_grid(&t, dim, dim);
                for threads in [1usize, 2] {
                    let tag =
                        format!("{}x{} grid {dim}x{dim} threads {threads}", t.nrows(), t.ncols());
                    let mut eng = EngineComm::new(dim * dim, threads);
                    let mut plan = SpmvPlan::new();
                    let got = a.spmspv_mesh(&mut eng, Kernel::SpMV, &mut plan, &x, mul, min_parent);
                    assert_eq!(got, want, "{tag}");
                    // Plan buffers reused across engine calls, still identical.
                    let again =
                        a.spmspv_mesh(&mut eng, Kernel::SpMV, &mut plan, &x, mul, min_parent);
                    assert_eq!(again, want, "{tag} (reused plan)");
                    let got_last = a.spmspv_mesh(&mut eng, Kernel::SpMV, &mut plan, &x, mul, last);
                    assert_eq!(got_last, want_last, "last-arrival {tag}");

                    let mut cnt_plan = SpmvPlan::new();
                    let got_cnt = a.spmspv_mesh(
                        &mut eng,
                        Kernel::Init,
                        &mut cnt_plan,
                        &cnt,
                        |_, _| 1u32,
                        count,
                    );
                    assert_eq!(got_cnt, want_cnt, "counting {tag}");
                }
            }
        }
    }

    #[test]
    fn fused_charges_equal_the_split_mesh_execution() {
        // Same logical grid, different physical execution: the simulator's
        // fused single-block product must return the identical vector AND
        // charge the identical modeled time and call count as the engine's
        // block-split product over real ranks, for a selection and a count.
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
                let ys = sim.spmspv(&fused, Kernel::SpMV, &mut ps, &x, |j, _| j, min);
                let ye = eng.spmspv(&split, Kernel::SpMV, &mut pe, &x, |j, _| j, min);
                assert_eq!(ys, ye, "grid {dim}x{dim}");
                let (mut ps, mut pe) = (SpmvPlan::new(), SpmvPlan::new());
                let cs = sim.spmspv(&fused, Kernel::Init, &mut ps, &cnt, |_, _| 1, count);
                let ce = eng.spmspv(&split, Kernel::Init, &mut pe, &cnt, |_, _| 1, count);
                assert_eq!(cs, ce, "counting grid {dim}x{dim}");
                for k in [Kernel::SpMV, Kernel::Init] {
                    let (a, b) = (&sim.timers, &eng.ctx().timers);
                    assert_eq!(a.seconds(k), b.seconds(k), "grid {dim}x{dim}: {k:?} seconds");
                    assert_eq!(a.calls(k), b.calls(k), "grid {dim}x{dim}: {k:?} calls");
                }
            }
        }
    }

    /// Seeded test matrices for the structure kernels: rectangular both
    /// ways with skewed degrees, one with a dense row and a dense column,
    /// and one with no entries.
    fn structure_cases() -> Vec<(&'static str, Triples)> {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(0x57C7);
        let mut skewed = |n1: usize, n2: usize| {
            let mut t = Triples::new(n1, n2);
            for j in 0..n2 {
                let deg = if rng.below(8) == 0 { 20 + rng.below(40) } else { rng.below(5) };
                for _ in 0..deg {
                    t.push(rng.below(n1 as u64) as Vidx, j as Vidx);
                }
            }
            t.sort_dedup();
            t
        };
        let (tall, wide) = (skewed(90, 40), skewed(40, 90));
        // Dense enough that a later frontier's member rows overflow the
        // room a pull copies them into.
        let mut dense = Triples::new(40, 36);
        for i in 0..40 {
            for j in 0..36 {
                if rng.below(5) < 3 {
                    dense.push(i, j);
                }
            }
        }
        let mut cross = Triples::new(50, 50);
        for k in 0..50 {
            cross.push(7, k);
            cross.push(k, 31);
        }
        cross.sort_dedup();
        let empty = Triples::new(12, 9);
        vec![("tall", tall), ("wide", wide), ("dense", dense), ("cross", cross), ("empty", empty)]
    }

    /// A 60 × 44 matrix whose entries, once relabeled by `rowp` and `colp`,
    /// all lie in the first half of the rows and of the columns: on two
    /// logical block columns every row's neighbours and every column's
    /// neighbours sit on one side, and the other halves are empty rows and
    /// columns.
    fn one_sided(rowp: Option<&Permutation>, colp: Option<&Permutation>) -> Triples {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(0x51DE);
        let (rinv, cinv) = (rowp.map(Permutation::inverse), colp.map(Permutation::inverse));
        let mut t = Triples::new(60, 44);
        for _ in 0..150 {
            let (i, j) = (rng.below(30) as Vidx, rng.below(22) as Vidx);
            t.push(
                rinv.as_ref().map_or(i, |p| p.apply(i)),
                cinv.as_ref().map_or(j, |p| p.apply(j)),
            );
        }
        t.sort_dedup();
        t
    }

    /// The volumes a plan's single workspace counted for its last product.
    fn last_volumes<U: Copy>(plan: &mut SpmvPlan<U>) -> FusedVolumes {
        plan.blocks[0].ws.seg_counts().volumes()
    }

    #[test]
    fn structure_kernels_equal_the_fused_products() {
        // `count_cols` and `min_pull` read a product off `A`'s own columns;
        // on every logical grid of at most two block columns they must
        // return the fused product's vector, count its volumes and charge
        // its timers to the bit: with `A` read off the view through the
        // index maps (all four `rowp`/`colp` combinations, rows unsorted)
        // or assembled as a DCSC, `min_pull` against the fused product of
        // the transpose along sequences of shrinking frontiers that share
        // one `LiveCols`, from every row and from a partial first frontier
        // (rows without neighbours and rows whose key has degree 0 stay
        // members throughout; some later pulls copy the live columns'
        // members, the dense case's overflow the room and read the matrix
        // again), and `count_cols` on every column, on partial sets of
        // columns and on none.
        use mcm_sparse::permute::relabel_permutations;
        let grids = [(1, 1), (2, 2), (1, 2), (2, 1), (16, 1), (5, 2), (7, 2)];
        let min = |acc: &mut u64, k: u64| *acc = (*acc).min(k);
        let (mut checked, mut read_again, mut copied) = (0, false, false);
        let mut cases: Vec<_> = structure_cases().into_iter().map(|(n, t)| (n, Some(t))).collect();
        cases.push(("one-sided", None));
        for (name, t) in cases {
            for maps in 0..4u64 {
                let (n1, n2) = t.as_ref().map_or((60, 44), |t| (t.nrows(), t.ncols()));
                let (rp, cp) = relabel_permutations(n1, n2, 0x5EED ^ maps);
                let rowp = (maps & 1 == 1).then_some(&rp);
                let colp = (maps & 2 == 2).then_some(&cp);
                let csc = t.clone().unwrap_or_else(|| one_sided(rowp, colp)).to_csc();
                let (a, at) = DistMatrix::with_grid_csc_pair(&csc.view(), 1, 1, rowp, colp);
                let view = a.relabeled_view().expect("A is read off the view");
                let mut pairs = Vec::new();
                for j in 0..n2 {
                    pairs.extend(view.col(j).iter().map(|&i| (view.row(i), j as Vidx)));
                }
                let dcsc = DistMatrix::with_grid(&Triples::from_edges(n1, n2, pairs), 1, 1);
                let col_sets: Vec<SpVec<()>> = [1usize, 2, 5, 0]
                    .iter()
                    .map(|&step| {
                        let js = (0..n2 as Vidx)
                            .filter(|&j| step != 0 && (j as usize).is_multiple_of(step));
                        SpVec::from_sorted_pairs(n2, js.map(|j| (j, ())).collect())
                    })
                    .collect();
                // Shrinking frontiers keyed `(degree, row)`, some degrees 0.
                let key = |r: Vidx| (u64::from(r * 7 % 5) << 32) | u64::from(r);
                let frontiers: Vec<SpVec<u64>> = (0..7u32)
                    .map(|round| {
                        let keep = |r: Vidx| (0..round).all(|k| !(r * 31 + k).is_multiple_of(3));
                        let rs = (0..n1 as Vidx).filter(|&r| keep(r) || r.is_multiple_of(8));
                        SpVec::from_sorted_pairs(n1, rs.map(|r| (r, key(r))).collect())
                    })
                    .collect();
                for (kind, m) in [("view", &a), ("dcsc", &dcsc)] {
                    for &(pr, pc) in &grids {
                        let machine = || MachineConfig {
                            grid: crate::machine::ProcGrid { pr, pc },
                            ..MachineConfig::hybrid(1, 1)
                        };
                        let (mut pulled, mut pushed) =
                            (DistCtx::new(machine()), DistCtx::new(machine()));
                        let tag = format!("{name} {kind} maps {maps} on {pr}x{pc}");
                        let (mut pp, mut fp) = (SpmvPlan::new(), SpmvPlan::new());
                        for x in &col_sets {
                            let got = m.count_cols(&mut pulled, Kernel::Init, &mut pp, x);
                            let want = m.spmspv_fused(
                                &mut pushed,
                                Kernel::Init,
                                &mut fp,
                                x,
                                |_, _| 1u32,
                                count,
                            );
                            assert_eq!(got, want, "{tag}: counts of {} columns", x.nnz());
                            let (g, w) = (last_volumes(&mut pp), last_volumes(&mut fp));
                            assert_eq!(g, w, "{tag}: count volumes of {} columns", x.nnz());
                        }
                        // From every row, and from a partial first frontier.
                        let sequences = [(0, LiveCols::default()), (2, LiveCols::default())];
                        for (first, mut live) in sequences {
                            let (mut pp, mut fp) = (SpmvPlan::new(), SpmvPlan::new());
                            for (round, x) in frontiers.iter().enumerate().skip(first) {
                                let got =
                                    m.min_pull(&mut pulled, Kernel::Init, &mut pp, x, &mut live);
                                let want = at.spmspv_fused(
                                    &mut pushed,
                                    Kernel::Init,
                                    &mut fp,
                                    x,
                                    |_, &k| k,
                                    min,
                                );
                                assert_eq!(got, want, "{tag}: least keys, round {round}");
                                let (g, w) = (last_volumes(&mut pp), last_volumes(&mut fp));
                                assert_eq!(g, w, "{tag}: least-key volumes, round {round}");
                                // A pull after the sequence's first that
                                // leaves slots overflowed the room.
                                match &live.0 {
                                    Live::Slots(_) if round > first => read_again = true,
                                    Live::Members { .. } => copied = true,
                                    _ => {}
                                }
                            }
                        }
                        assert_eq!(pulled.timers, pushed.timers, "{tag}: charges");
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 6 * 4 * 2 * grids.len());
        assert!(read_again && copied, "later pulls must both copy and overflow the room");
        let wide = DistCtx::new(MachineConfig::hybrid(3, 1));
        let a = DistMatrix::with_grid(&structure_cases().remove(0).1, 1, 1);
        assert!(!a.reads_structure(&wide), "three block columns push");
    }
}
