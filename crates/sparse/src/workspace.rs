//! Reusable, zero-allocation SpMSpV workspaces.
//!
//! The seed kernels in [`crate::spmv`] allocate and zero an `O(nrows)`
//! sparse accumulator (SPA) plus a `touched` list on **every call** — once
//! per DCSC block per MS-BFS iteration. That allocation traffic, not the
//! semiring arithmetic, dominates the hot path (frontier kernels are
//! memory-bound). This module amortizes it the way CombBLAS-style
//! implementations do:
//!
//! * [`SpmvWorkspace`] owns a **generation-stamped SPA**: each call
//!   reserves fresh `u32` stamp values above every stamp written before and
//!   a slot is live only when its stamp is at least the call's first value,
//!   so "resetting" the accumulator costs one integer increment instead of
//!   an `O(nrows)` sweep or a fresh allocation. A plain product reserves one
//!   value (`stamp[i] == epoch`); the fused product reserves one per logical
//!   block column. Wraparound (after 2³² values) triggers the one hard
//!   reset.
//! * The SPA keeps **split index/value streams**: a bare `stamp: Vec<u32>`
//!   array scanned by the hot loops and a parallel value array with no
//!   per-slot discriminant (`MaybeUninit<U>`; a slot is initialized exactly
//!   when its stamp matches the epoch). The inner loops touch one
//!   branch-light `u32` stream instead of chasing `Option` tags through
//!   interleaved memory, which keeps them autovectorizable. Value types are
//!   `Copy` (frontier records are small PODs — `(parent, root)` pairs,
//!   counters), so slots are overwritten freely with no drop obligations.
//! * Draining is adaptive: a sparse result sorts its touched list, a dense
//!   result (≥ 1/8 of the rows) switches to a **chunked dense sweep** over
//!   the stamp array — a sequential, predictable scan that beats the
//!   `O(k log k)` sort as soon as the output stops being tiny.
//! * The `*_into` kernels write into a **caller-owned** [`SpVec`] via
//!   [`SpVec::reset`], so output allocations are reused across iterations
//!   too. In steady state (buffers warm) a call performs **zero heap
//!   allocation**; `tests/spmv_workspace.rs` pins this down by checking
//!   pointer/capacity stability across iterations.
//! * [`SpmvWorkspace::spmspv_fused_into`] is the simulator's kernel: one
//!   physical product over the whole (single-block) matrix whose SPA
//!   doubles as the communication arena — logical ranks' "messages" are
//!   writes into their destination's SPA region, the epoch stamp is the
//!   exchange barrier, and the per-logical-block volumes the α–β–γ model
//!   charges (flops, fold send/recv) are counted in-line from the same
//!   traversal: one stamp per row records both the generation and the
//!   logical block column that last touched it, and a [`FoldGrid`] table
//!   gives each row's fold segment, so flops and first-touch fold pairs
//!   are plain increments per (segment, block column). Rows need not be
//!   sorted within a column. See `mcm-bsp`'s `DistMatrix::spmspv_fused`
//!   for the charging this plugs into.
//!
//! ### Fold contract
//!
//! The semiring addition is one fold, `fold(&mut acc, inc)`, and it must be
//! **associative**: every kernel folds a row's candidates in ascending
//! global column order, and the distributed product only re-parenthesizes
//! that sequence (each block folds its own sub-range, then the partials
//! fold in ascending block order), so associativity makes every execution
//! equal to the serial one, value for value. Commutativity is not needed,
//! because the arrival order never changes: a last-arrival
//! `|acc, inc| *acc = inc` is as valid as a `minParent` selection or a
//! counting `+`.
//!
//! The column-level semiring multiply `mul(j, xj)` is invoked **once per
//! matched column** and its value copied per traversed edge (the multiply
//! depends only on `(j, xj)`, never on the row), which the seed kernels
//! re-evaluated per nonzero.

use crate::triples::block_offsets;
use crate::view::RelabeledView;
use crate::{Csc, Dcsc, SpVec, Vidx};
use std::mem::MaybeUninit;

/// A generation-stamped sparse accumulator: values are live only when their
/// stamp lies in the current generation `base..=epoch`, so reset is O(1).
/// Index and value streams are split — `stamp` is the only array the
/// membership test touches, and `vals` carries bare `U` slots (initialized
/// iff stamped in this generation).
#[derive(Debug)]
struct SpaBuf<U> {
    /// First stamp value of the current generation.
    base: u32,
    /// Last stamp value reserved so far; every stamp in `stamp` is `<= epoch`.
    epoch: u32,
    /// Rows covered by the current generation (`begin`'s `nrows`); the
    /// buffers themselves only ever grow.
    active: usize,
    stamp: Vec<u32>,
    vals: Vec<MaybeUninit<U>>,
    touched: Vec<Vidx>,
}

impl<U: Copy> Clone for SpaBuf<U> {
    fn clone(&self) -> Self {
        Self {
            base: self.base,
            epoch: self.epoch,
            active: self.active,
            stamp: self.stamp.clone(),
            vals: self.vals.clone(),
            touched: self.touched.clone(),
        }
    }
}

impl<U> SpaBuf<U> {
    fn new() -> Self {
        Self {
            base: 0,
            epoch: 0,
            active: 0,
            stamp: Vec::new(),
            vals: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Opens a new one-value generation over `nrows` rows: live slots are
    /// exactly those with `stamp == epoch`.
    fn begin(&mut self, nrows: usize) {
        self.begin_span(nrows, 1);
    }

    /// Opens a new generation over `nrows` rows that reserves `width` fresh
    /// stamp values `base..base + width`, all above any stamp written
    /// before, and returns `base`. Grows the buffers on first use (or when
    /// a larger matrix arrives); otherwise allocation-free.
    fn begin_span(&mut self, nrows: usize, width: u32) -> u32 {
        debug_assert!(width >= 1);
        if self.stamp.len() < nrows {
            self.stamp.resize(nrows, 0);
            self.vals.resize_with(nrows, MaybeUninit::uninit);
        }
        self.active = nrows;
        if self.epoch > u32::MAX - width {
            // u32 wraparound: stale stamps could collide with the new values.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.base = self.epoch + 1;
        self.epoch += width;
        self.touched.clear();
        self.base
    }

    /// Folds `cand` into row `i`; a row's first candidate is stored as is.
    #[inline]
    fn accum(&mut self, i: Vidx, cand: U, fold: &mut impl FnMut(&mut U, U))
    where
        U: Copy,
    {
        let iu = i as usize;
        if self.stamp[iu] != self.epoch {
            self.stamp[iu] = self.epoch;
            self.vals[iu].write(cand);
            self.touched.push(i);
        } else {
            // SAFETY: `stamp[iu] == epoch` implies the slot was written in
            // this generation.
            fold(unsafe { self.vals[iu].assume_init_mut() }, cand);
        }
    }

    /// The live value at row `i`. Caller must know `i` was touched this
    /// generation (stamp check is debug-asserted, not branched).
    #[inline]
    fn take(&self, i: Vidx) -> U
    where
        U: Copy,
    {
        debug_assert!(self.stamp[i as usize] >= self.base, "untouched row drained");
        // SAFETY: stamped ⇒ initialized this generation.
        unsafe { self.vals[i as usize].assume_init_read() }
    }

    /// Moves the touched rows' values into `y` in ascending row order:
    /// a sort of the touched list when the result is sparse, a dense sweep
    /// of the stamp stream when it isn't (the sweep is sequential and
    /// branch-predictable; the crossover sits near `active / 8`).
    fn drain_into(&mut self, y: &mut SpVec<U>)
    where
        U: Copy,
    {
        if 8 * self.touched.len() >= self.active {
            let base = self.base;
            for (iu, &s) in self.stamp[..self.active].iter().enumerate() {
                if s >= base {
                    y.push(iu as Vidx, self.take(iu as Vidx));
                }
            }
        } else {
            self.touched.sort_unstable();
            for k in 0..self.touched.len() {
                let i = self.touched[k];
                y.push(i, self.take(i));
            }
        }
    }

    /// [`SpaBuf::drain_into`] for an SPA indexed by stored row label:
    /// stored row `s` is row `rowp[s]` of the output, and `rinv` is
    /// `rowp`'s inverse. A sparse result maps the touched list and sorts
    /// it; a dense one sweeps the output rows in order, reading each one's
    /// stored slot.
    fn drain_mapped_into(&mut self, y: &mut SpVec<U>, rowp: &[Vidx], rinv: &[Vidx])
    where
        U: Copy,
    {
        if 8 * self.touched.len() >= self.active {
            let base = self.base;
            for (t, &s) in rinv[..self.active].iter().enumerate() {
                if self.stamp[s as usize] >= base {
                    y.push(t as Vidx, self.take(s));
                }
            }
        } else {
            for k in 0..self.touched.len() {
                self.touched[k] = rowp[self.touched[k] as usize];
            }
            self.touched.sort_unstable();
            for k in 0..self.touched.len() {
                let t = self.touched[k];
                y.push(t, self.take(rinv[t as usize]));
            }
        }
    }

    /// Heap bytes currently held by this SPA (capacity-based).
    fn heap_bytes(&self) -> u64 {
        (self.stamp.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<U>()
            + self.touched.capacity() * std::mem::size_of::<Vidx>()) as u64
    }
}

/// Reuse counters exposed through `McmStats` (see `mcm-core`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Kernel calls served by this workspace.
    pub calls: u64,
    /// Calls that ran without growing any internal buffer — the steady
    /// state. The first call on a given matrix shape is a miss; everything
    /// after should hit.
    pub reuse_hits: u64,
    /// Bytes of SPA capacity reused instead of freshly allocated, summed
    /// over hits: what the non-workspace kernels would have allocated (and
    /// zeroed) per call.
    pub bytes_reused: u64,
}

impl WorkspaceStats {
    /// Merges another workspace's counters into this one.
    pub fn merge(&mut self, other: &WorkspaceStats) {
        self.calls += other.calls;
        self.reuse_hits += other.reuse_hits;
        self.bytes_reused += other.bytes_reused;
    }
}

/// Communication volumes of one fused (single-physical-block) product,
/// accounted at the **logical** grid the simulator charges for: exactly the
/// quantities the engine's physically-split execution observes, recovered
/// here from one traversal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusedVolumes {
    /// Traversed edges in the busiest logical block (`γ` term).
    pub max_flops: u64,
    /// Fold-phase bottleneck: max over logical block rows of
    /// max(largest per-block send, largest per-destination receive), in
    /// 2-words-per-pair units.
    pub fold_bottleneck: u64,
}

/// Per-(logical block column, fold segment) counters of one product on a
/// logical `pr × pc` grid, indexed `bj · pr·pc + seg`: the edges traversed
/// from block column `bj` into rows of segment `seg` (flops), and the
/// distinct `(row, bj)` contributions among them — the pre-merge fold
/// pairs. [`SegCounts::volumes`] is the one reduction to charged volumes,
/// shared by [`SpmvWorkspace::spmspv_fused_into`] and the kernels that read
/// a product's counts off the matrix's structure (`mcm-bsp`'s
/// `DistMatrix::count_cols` and `DistMatrix::min_pull`).
#[derive(Clone, Debug, Default)]
pub struct SegCounts {
    pr: usize,
    pc: usize,
    flops: Vec<u64>,
    pairs: Vec<u64>,
}

impl SegCounts {
    /// Zeroes the counters for a logical `pr × pc` grid.
    pub fn reset(&mut self, pr: usize, pc: usize) {
        (self.pr, self.pc) = (pr, pc);
        for v in [&mut self.flops, &mut self.pairs] {
            v.clear();
            v.resize(pc * pr * pc, 0);
        }
    }

    /// Records one row of segment `seg` reached by `flops` edges from block
    /// column `bj`: one fold pair when any.
    #[inline]
    pub fn add(&mut self, bj: usize, seg: usize, flops: u64) {
        let k = bj * self.pr * self.pc + seg;
        self.flops[k] += flops;
        self.pairs[k] += u64::from(flops > 0);
    }

    /// Reduces the counters to the two bottleneck volumes the cost model
    /// charges: block `(bi, bj)` traverses the edges and sends the pairs
    /// its `pc` fold segments counted from block column `bj`, and the fold
    /// destination owning segment `seg` receives two words per pair of
    /// `seg` from every block column.
    pub fn volumes(&self) -> FusedVolumes {
        let (pr, pc) = (self.pr, self.pc);
        let nseg = pr * pc;
        let mut max_flops = 0u64;
        let mut fold_bottleneck = 0u64;
        for bj in 0..pc {
            let at = bj * nseg..(bj + 1) * nseg;
            let (flops, pairs) = (&self.flops[at.clone()], &self.pairs[at]);
            for blk in 0..pr {
                let segs = blk * pc..(blk + 1) * pc;
                max_flops = max_flops.max(flops[segs.clone()].iter().sum());
                fold_bottleneck = fold_bottleneck.max(2 * pairs[segs].iter().sum::<u64>());
            }
        }
        for seg in 0..nseg {
            let recv: u64 = (0..pc).map(|bj| self.pairs[bj * nseg + seg]).sum();
            fold_bottleneck = fold_bottleneck.max(2 * recv);
        }
        FusedVolumes { max_flops, fold_bottleneck }
    }
}

/// Charging geometry of [`SpmvWorkspace::spmspv_fused_into`]: the logical
/// `pr × pc` grid over one `nrows × ncols` matrix, held as its block-column
/// boundaries and the fold segment of every row. Segment `bi · pc + d` is
/// the rows of logical block row `bi` that grid-row rank `d` owns in the
/// balanced fold distribution. It depends only on the shape and the grid,
/// so callers build it once and reuse it across products.
///
/// A grid [composed](FoldGrid::composed) with a row map is indexed by
/// *stored* row label instead, for products over a [`RelabeledView`]: the
/// kernel's accumulator then runs in stored labels, so an edge reads no
/// map, and rows take their labels only when the accumulator drains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FoldGrid {
    /// `(nrows, ncols, pr, pc)`.
    shape: (usize, usize, usize, usize),
    col_off: Vec<usize>,
    /// The fold segment of every row, by stored label when composed.
    seg: Vec<u16>,
    /// Composed grids only: the stored label of every row (`rowp⁻¹`).
    stored: Option<Vec<Vidx>>,
}

impl FoldGrid {
    /// The most ranks a logical grid may have: segment ids are `u16`.
    pub const MAX_RANKS: usize = 1 << 16;

    /// The fold geometry of an `nrows × ncols` matrix on a logical
    /// `pr × pc` grid.
    ///
    /// # Panics
    ///
    /// When the grid has more than [`FoldGrid::MAX_RANKS`] ranks.
    pub fn new(nrows: usize, ncols: usize, pr: usize, pc: usize) -> Self {
        assert!(pr * pc <= Self::MAX_RANKS, "a {pr}x{pc} logical grid has too many ranks");
        let mut seg = Vec::with_capacity(nrows);
        for (bi, w) in block_offsets(nrows, pr).windows(2).enumerate() {
            for (d, s) in block_offsets(w[1] - w[0], pc).windows(2).enumerate() {
                seg.resize(seg.len() + s[1] - s[0], (bi * pc + d) as u16);
            }
        }
        Self { shape: (nrows, ncols, pr, pc), col_off: block_offsets(ncols, pc), seg, stored: None }
    }

    /// This grid for a matrix whose stored row `i` is row `rowp[i]`: the
    /// segment table re-indexed by stored label (`seg[rowp[i]]`), plus
    /// `rowp`'s inverse for the drain. One pass over the rows.
    pub fn composed(&self, rowp: &[Vidx]) -> Self {
        assert!(self.stored.is_none(), "the grid is composed already");
        assert_eq!(rowp.len(), self.shape.0, "rowp must cover the rows");
        let mut stored = vec![0 as Vidx; rowp.len()];
        for (i, &t) in rowp.iter().enumerate() {
            stored[t as usize] = i as Vidx;
        }
        let seg = rowp.iter().map(|&t| self.seg[t as usize]).collect();
        Self { shape: self.shape, col_off: self.col_off.clone(), seg, stored: Some(stored) }
    }

    /// `true` when this is the geometry of `nrows × ncols` on `pr × pc`.
    pub fn fits(&self, nrows: usize, ncols: usize, pr: usize, pc: usize) -> bool {
        self.shape == (nrows, ncols, pr, pc)
    }

    /// The `pc + 1` logical block-column boundaries.
    pub fn col_off(&self) -> &[usize] {
        &self.col_off
    }

    /// The fold segment of every row (by stored label when composed).
    pub fn seg(&self) -> &[u16] {
        &self.seg
    }

    /// Composed grids only: the stored label of every row (`rowp⁻¹`).
    pub fn stored(&self) -> Option<&[Vidx]> {
        self.stored.as_deref()
    }
}

/// First position at or after `from` whose column is `>= j` in the sorted
/// `cols`: exponential probes, then a binary search of the last bracket.
/// A frontier far sparser than `cols` skips each gap in O(log gap) steps
/// instead of walking it; a dense one finds its column at the first probe.
#[inline]
fn gallop(cols: &[Vidx], from: usize, j: Vidx) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < cols.len() && cols[hi] < j {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    lo + cols[lo..hi.min(cols.len())].partition_point(|&c| c < j)
}

/// Column access of the single-block kernels: an assembled [`Dcsc`] or
/// [`Csc`], or a CSC view read through the relabeling's index maps
/// ([`RelabeledView`]).
/// A column's rows come in *stored* labels; [`Columns::row_map`] maps them
/// to the matrix's row labels.
pub trait Columns {
    /// Number of rows.
    fn nrows(&self) -> usize;
    /// Number of columns.
    fn ncols(&self) -> usize;
    /// The stored rows of column `j`, empty when it has none, for lookups
    /// in ascending `j`: `cursor` starts at 0 and carries the search
    /// position from one call to the next.
    fn seek(&self, cursor: &mut usize, j: Vidx) -> &[Vidx];
    /// Number of stored column slots ([`Columns::stored`]).
    fn nstored(&self) -> usize;
    /// The column in storage slot `k` (`k < nstored()`): its label and its
    /// stored rows, possibly none. Slots in ascending order are the
    /// cheapest walk for readers that do not depend on the column order.
    fn stored(&self, k: usize) -> (Vidx, &[Vidx]);
    /// Stored row label → row label (`slice[i]`), or `None` when they are
    /// the same.
    fn row_map(&self) -> Option<&[Vidx]>;
    /// Hints that column `far` and then column `near` will be sought soon,
    /// for layouts whose columns are not stored in ascending order. A
    /// cache hint only: no effect on any result.
    #[inline]
    fn prefetch(&self, _near: Vidx, _far: Vidx) {}
}

impl Columns for Dcsc {
    fn nrows(&self) -> usize {
        Dcsc::nrows(self)
    }

    fn ncols(&self) -> usize {
        Dcsc::ncols(self)
    }

    /// Gallops the nonzero columns from `cursor`, so a sparse frontier
    /// does not walk every one of them.
    #[inline]
    fn seek(&self, cursor: &mut usize, j: Vidx) -> &[Vidx] {
        let cols = self.nonzero_cols();
        *cursor = gallop(cols, *cursor, j);
        if *cursor < cols.len() && cols[*cursor] == j {
            *cursor += 1;
            self.nth_col(*cursor - 1).0
        } else {
            &[]
        }
    }

    fn nstored(&self) -> usize {
        self.nzc()
    }

    #[inline]
    fn stored(&self, k: usize) -> (Vidx, &[Vidx]) {
        let (rows, j) = self.nth_col(k);
        (j, rows)
    }

    fn row_map(&self) -> Option<&[Vidx]> {
        None
    }
}

impl Columns for Csc {
    fn nrows(&self) -> usize {
        Csc::nrows(self)
    }

    fn ncols(&self) -> usize {
        Csc::ncols(self)
    }

    /// Direct column indexing: no search.
    #[inline]
    fn seek(&self, _: &mut usize, j: Vidx) -> &[Vidx] {
        self.col(j as usize)
    }

    fn nstored(&self) -> usize {
        self.ncols()
    }

    #[inline]
    fn stored(&self, k: usize) -> (Vidx, &[Vidx]) {
        (k as Vidx, self.col(k))
    }

    fn row_map(&self) -> Option<&[Vidx]> {
        None
    }
}

impl Columns for RelabeledView<'_> {
    fn nrows(&self) -> usize {
        RelabeledView::nrows(self)
    }

    fn ncols(&self) -> usize {
        RelabeledView::ncols(self)
    }

    /// Direct: the column map names the source column.
    #[inline]
    fn seek(&self, _: &mut usize, j: Vidx) -> &[Vidx] {
        self.col(j as usize)
    }

    fn nstored(&self) -> usize {
        self.ncols()
    }

    /// Source column `k` under its target label: slots in order are a
    /// sequential read of the view.
    #[inline]
    fn stored(&self, k: usize) -> (Vidx, &[Vidx]) {
        (self.target_col(k), self.source().col(k))
    }

    fn row_map(&self) -> Option<&[Vidx]> {
        RelabeledView::row_map(self)
    }

    /// Target columns sit at random places in the source: `far`'s column
    /// pointer and `near`'s first rows are pulled toward the cache.
    #[inline]
    fn prefetch(&self, near: Vidx, far: Vidx) {
        self.prefetch_col(near, far);
    }
}

/// How many frontier columns ahead the fused kernel hints a column's rows
/// ([`Columns::prefetch`]); its column pointer is hinted twice as far.
const PREFETCH_NEAR: usize = 8;

/// Reusable state for the two SpMSpV kernels, [`SpmvWorkspace::spmspv_into`]
/// and [`SpmvWorkspace::spmspv_fused_into`]: one stamped SPA, the fused
/// kernel's counters and the reuse statistics.
#[derive(Clone, Debug)]
pub struct SpmvWorkspace<U: Copy> {
    spa: SpaBuf<U>,
    /// Fused-kernel scratch: flops and fold pairs per (logical block
    /// column, fold segment).
    counts: SegCounts,
    /// Reuse counters.
    pub stats: WorkspaceStats,
}

impl<U: Copy> Default for SpmvWorkspace<U> {
    fn default() -> Self {
        Self::new()
    }
}

impl<U: Copy> SpmvWorkspace<U> {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self { spa: SpaBuf::new(), counts: SegCounts::default(), stats: WorkspaceStats::default() }
    }

    /// Records one call's reuse accounting: `nrows` rows against what the
    /// SPA already held.
    fn note_call(&mut self, nrows: usize) {
        self.stats.calls += 1;
        if self.spa.stamp.len() >= nrows {
            self.stats.reuse_hits += 1;
            self.stats.bytes_reused += self.spa.heap_bytes();
        }
    }

    /// Single-block SpMSpV into a caller-owned output vector, over any
    /// [`Columns`] (a DCSC block, a CSC matrix or a relabeled view);
    /// returns the traversed edge count (`flops`), identical to
    /// [`crate::spmv::spmspv`].
    ///
    /// `y` is [`SpVec::reset`] to `a.nrows()` and filled in ascending row
    /// order; its allocation is reused.
    pub fn spmspv_into<A: Columns, T>(
        &mut self,
        a: &A,
        x: &SpVec<T>,
        mul: impl FnMut(Vidx, &T) -> U,
        fold: impl FnMut(&mut U, U),
        y: &mut SpVec<U>,
    ) -> u64 {
        match a.row_map() {
            None => self.product_into(a, |i| i, x, mul, fold, y),
            Some(p) => self.product_into(a, |i| p[i as usize], x, mul, fold, y),
        }
    }

    /// [`SpmvWorkspace::spmspv_into`] with the row map `row` applied to
    /// every stored row.
    fn product_into<A: Columns, T>(
        &mut self,
        a: &A,
        row: impl Fn(Vidx) -> Vidx,
        x: &SpVec<T>,
        mut mul: impl FnMut(Vidx, &T) -> U,
        mut fold: impl FnMut(&mut U, U),
        y: &mut SpVec<U>,
    ) -> u64 {
        self.note_call(a.nrows());
        self.spa.begin(a.nrows());
        let mut flops = 0u64;
        let mut cursor = 0;
        for (j, xj) in x.iter() {
            let rows = a.seek(&mut cursor, j);
            if rows.is_empty() {
                continue;
            }
            // The multiply depends only on (j, xj): hoist it out of the
            // row loop and copy per edge.
            let colv = mul(j, xj);
            flops += rows.len() as u64;
            for &i in rows {
                self.spa.accum(row(i), colv, &mut fold);
            }
        }

        y.reset(a.nrows());
        self.spa.drain_into(y);
        flops
    }

    /// The fused kernel's per-(block column, segment) counters, lent to
    /// the single-block kernels that count a product's volumes from the
    /// matrix's structure instead of running it.
    pub fn seg_counts(&mut self) -> &mut SegCounts {
        &mut self.counts
    }

    /// Fused single-block SpMSpV for the simulator: one physical
    /// product over the whole matrix (`a` spans all rows and columns) whose
    /// SPA serves as the communication arena of a **logical** `pr × pc`
    /// grid, given by `grid`. Every "remote contribution" a distributed
    /// execution would ship through expand/fold buffers is instead written
    /// directly into the destination's SPA region — zero copies, zero
    /// per-message allocation — while the α–β–γ volumes of the logical
    /// execution are counted in-line.
    ///
    /// The product reserves `pc` SPA stamp values and a row's stamp is
    /// `base + bj` for the last logical block column `bj` that touched it.
    /// Block columns are visited in ascending order, so `stamp < base` is
    /// the row's first touch in this product and `stamp != base + bj` is
    /// the first touch from block column `bj`: one distinct pre-merge fold
    /// pair. Each edge looks its row's fold segment up in `grid` and adds
    /// one flop to that (block column, segment) counter; each first touch
    /// adds one fold pair the same way. Nothing depends on the order of the
    /// rows within a column, so `a` may be a [`RelabeledView`], whose
    /// mapped rows are unsorted. Its product runs in stored row labels on
    /// the grid [composed](FoldGrid::composed) with its `rowp`, so an edge
    /// reads no map, and the drain gives the rows their labels. A DCSC
    /// block is merge-joined with the frontier by galloping
    /// ([`Columns::seek`]), so a sparse frontier does not walk every
    /// nonzero column.
    ///
    /// A block's flops and fold send are the sums over its block row's `pc`
    /// segments; a destination's receive is its segment's pairs over all
    /// block columns ([`SegCounts::volumes`]).
    ///
    /// Results are bit-identical to the serial kernel (candidates fold per
    /// row in ascending global column order, and the drain sorts rows),
    /// hence — by grid independence — to the engine's split execution on
    /// any grid, and the returned [`FusedVolumes`] match that execution's
    /// charges exactly.
    pub fn spmspv_fused_into<A: Columns, T>(
        &mut self,
        a: &A,
        x: &SpVec<T>,
        grid: &FoldGrid,
        mut mul: impl FnMut(Vidx, &T) -> U,
        mut fold: impl FnMut(&mut U, U),
        y: &mut SpVec<U>,
    ) -> FusedVolumes {
        let (nrows, ncols, pr, pc) = grid.shape;
        assert_eq!((a.nrows(), a.ncols()), (nrows, ncols), "fold grid of another shape");
        let maps = match (a.row_map(), &grid.stored) {
            (None, None) => None,
            (Some(rowp), Some(stored)) => Some((rowp, stored)),
            (Some(_), None) => panic!("a relabeled matrix needs its composed fold grid"),
            (None, Some(_)) => panic!("a composed fold grid needs a relabeled matrix"),
        };
        let nseg = pr * pc;
        self.note_call(nrows);
        self.counts.reset(pr, pc);
        let base = self.spa.begin_span(nrows, pc as u32);
        // Split borrows into slices: the hot loop holds every array in a
        // local, so a `touched` push cannot force the others to be reloaded.
        let SpaBuf { stamp, vals, touched, .. } = &mut self.spa;
        let (stamp, vals) = (&mut stamp[..nrows], &mut vals[..nrows]);
        let seg_of = &grid.seg[..];

        // An explicit loop: the hot arrays stay locals, which measured
        // faster than capturing them in a closure. Rows stay in
        // stored labels throughout: the accumulator and `seg_of` are
        // indexed by them.
        let mut cursor = 0usize;
        let mut bj = 0usize; // logical column block: ascending with j
        let xs = x.entries();
        for (k, (j, xj)) in xs.iter().enumerate() {
            let (j, xj) = (*j, xj);
            let ahead = |d: usize| xs.get(k + d).map_or(j, |e| e.0);
            a.prefetch(ahead(PREFETCH_NEAR), ahead(2 * PREFETCH_NEAR));
            let rows = a.seek(&mut cursor, j);
            if rows.is_empty() {
                continue;
            }
            while (j as usize) >= grid.col_off[bj + 1] {
                bj += 1;
            }
            let colv = mul(j, xj);
            let tag = base + bj as u32;
            let at = bj * nseg..(bj + 1) * nseg;
            let (flops, pairs) = (&mut self.counts.flops[at.clone()], &mut self.counts.pairs[at]);
            for &i in rows {
                let iu = i as usize;
                let seg = seg_of[iu] as usize;
                flops[seg] += 1;
                let st = stamp[iu];
                if st != tag {
                    pairs[seg] += 1;
                    stamp[iu] = tag;
                    if st < base {
                        vals[iu].write(colv);
                        touched.push(i);
                        continue;
                    }
                }
                // SAFETY: stamped in this generation ⇒ initialized.
                fold(unsafe { vals[iu].assume_init_mut() }, colv);
            }
        }

        y.reset(nrows);
        match maps {
            None => self.spa.drain_into(y),
            Some((rowp, stored)) => self.spa.drain_mapped_into(y, rowp, stored),
        }
        self.counts.volumes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::spmspv;
    use crate::Triples;

    fn min_parent(acc: &mut (Vidx, Vidx), inc: (Vidx, Vidx)) {
        if inc.0 < acc.0 {
            *acc = inc;
        }
    }

    fn min(acc: &mut Vidx, inc: Vidx) {
        *acc = inc.min(*acc);
    }

    fn fig2_matrix() -> Dcsc {
        Dcsc::from_triples(&Triples::from_edges(
            4,
            5,
            vec![(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4)],
        ))
    }

    #[test]
    fn into_matches_seed_kernel() {
        let a = fig2_matrix();
        let x = SpVec::from_pairs(5, vec![(0, (0u32, 0u32)), (1, (1, 1)), (4, (4, 4))]);
        let seed = spmspv(&a, &x, |j, &(_, r)| (j, r), min_parent);
        let mut ws = SpmvWorkspace::new();
        let mut y = SpVec::new(0);
        let flops = ws.spmspv_into(&a, &x, |j, &(_, r)| (j, r), min_parent, &mut y);
        assert_eq!(y, seed.y);
        assert_eq!(flops, seed.flops);
    }

    #[test]
    fn epoch_bump_does_not_leak_state() {
        let a = fig2_matrix();
        let mut ws: SpmvWorkspace<Vidx> = SpmvWorkspace::new();
        let mut y = SpVec::new(0);
        // First call touches rows 0..4.
        let full = SpVec::from_pairs(5, vec![(0, 0u32), (1, 1), (3, 3), (4, 4)]);
        ws.spmspv_into(&a, &full, |j, _| j, min, &mut y);
        assert_eq!(y.nnz(), 4);
        // Second call with a tiny frontier: rows from call 1 must be gone.
        let tiny = SpVec::from_pairs(5, vec![(1, 1u32)]);
        ws.spmspv_into(&a, &tiny, |j, _| j, min, &mut y);
        assert_eq!(y.entries(), &[(1, 1)]);
    }

    #[test]
    fn reuse_is_counted() {
        let a = fig2_matrix();
        let x = SpVec::from_pairs(5, vec![(0, 0u32), (4, 4)]);
        let mut ws: SpmvWorkspace<Vidx> = SpmvWorkspace::new();
        let mut y = SpVec::new(0);
        for _ in 0..3 {
            ws.spmspv_into(&a, &x, |j, _| j, min, &mut y);
        }
        assert_eq!(ws.stats.calls, 3);
        assert_eq!(ws.stats.reuse_hits, 2); // first call is the cold miss
        assert!(ws.stats.bytes_reused > 0);
    }

    #[test]
    fn dense_drain_matches_sparse_drain() {
        // A matrix whose product touches every row: the dense-sweep drain
        // path must produce the identical (ascending) output the sort path
        // produces on a tiny frontier.
        let n = 64usize;
        let mut edges = Vec::new();
        for j in 0..n as Vidx {
            for k in 0..4u32 {
                edges.push(((j * 7 + k * 13) % n as Vidx, j));
            }
        }
        let a = Dcsc::from_triples(&Triples::from_edges(n, n, edges));
        let full: SpVec<Vidx> = SpVec::from_pairs(n, (0..n as Vidx).map(|j| (j, j)).collect());
        let seed = spmspv(&a, &full, |j, _| j, min);
        let mut ws = SpmvWorkspace::new();
        let mut y = SpVec::new(0);
        let flops = ws.spmspv_into(&a, &full, |j, _| j, min, &mut y);
        assert_eq!(y, seed.y);
        assert_eq!(flops, seed.flops);
        assert!(8 * y.nnz() >= n, "test must exercise the dense-sweep drain");
    }

    #[test]
    fn fused_matches_serial_and_counts_single_block_volumes() {
        let a = fig2_matrix();
        let x = SpVec::from_pairs(5, vec![(0, (0u32, 0u32)), (1, (1, 1)), (4, (4, 4))]);
        let seed = spmspv(&a, &x, |j, &(_, r)| (j, r), min_parent);
        let mut ws = SpmvWorkspace::new();
        let mut y = SpVec::new(0);
        // Logical 1×1: flops = serial flops, fold send = 2 · nnz(y).
        let grid = FoldGrid::new(4, 5, 1, 1);
        let vols = ws.spmspv_fused_into(&a, &x, &grid, |j, &(_, r)| (j, r), min_parent, &mut y);
        assert_eq!(y, seed.y);
        assert_eq!(vols.max_flops, seed.flops);
        assert_eq!(vols.fold_bottleneck, 2 * seed.y.nnz() as u64);
    }

    /// The fused kernel's volumes recounted per edge from first principles:
    /// block `(bi, bj)` traverses the frontier columns of `bj` in its row
    /// range, and every distinct `(row, bj)` is one fold pair sent by
    /// `(bi, bj)` and received by the owner of the row's fold segment.
    fn recounted_volumes(a: &Dcsc, x: &SpVec<u32>, pr: usize, pc: usize) -> FusedVolumes {
        use crate::triples::block_owner;
        let row_off = block_offsets(a.nrows(), pr);
        let col_off = block_offsets(a.ncols(), pc);
        let mut flops = vec![0u64; pr * pc];
        let mut pairs = std::collections::BTreeSet::new();
        for (j, _) in x.iter() {
            let bj = block_owner(&col_off, j as usize);
            for &i in a.col(j as usize) {
                let bi = block_owner(&row_off, i as usize);
                let sub = block_offsets(row_off[bi + 1] - row_off[bi], pc);
                let d = block_owner(&sub, i as usize - row_off[bi]);
                flops[bi * pc + bj] += 1;
                pairs.insert((bi, d, bj, i));
            }
        }
        let (mut send, mut recv) = (vec![0u64; pr * pc], vec![0u64; pr * pc]);
        for (bi, d, bj, _) in pairs {
            send[bi * pc + bj] += 2;
            recv[bi * pc + d] += 2;
        }
        let fold_bottleneck = send.into_iter().chain(recv).max().unwrap_or(0);
        FusedVolumes { max_flops: flops.into_iter().max().unwrap_or(0), fold_bottleneck }
    }

    #[test]
    fn unsorted_rows_give_the_canonical_product_and_volumes_on_every_grid() {
        // One seeded random matrix read two ways: as a relabeled view, whose
        // mapped rows come in source order (unsorted), and assembled
        // canonically (ascending) from the relabeled pairs. For all four
        // (rowp, colp) combinations, on every logical grid from 1×1 to 16×16
        // (the 64–256-rank shapes included) and a few rectangular ones, both
        // must give the same vector for order-sensitive and counting folds,
        // and the same volumes, equal to a per-edge recount.
        use crate::permute::{Permutation, SplitMix64};
        for seed in [0x5EED_u64, 7, 23] {
            let mut rng = SplitMix64::new(seed);
            let (n1, n2) = (300usize, 200usize);
            let mut t = Triples::new(n1, n2);
            for j in 0..n2 {
                // Skewed degrees: a few heavy columns, many light ones.
                let deg = if rng.below(10) == 0 { 40 + rng.below(60) } else { rng.below(6) };
                for _ in 0..deg {
                    t.push(rng.below(n1 as u64) as Vidx, j as Vidx);
                }
            }
            t.sort_dedup();
            let csc = t.to_csc();
            let (rp, cp) = (Permutation::random(n1, seed ^ 1), Permutation::random(n2, seed ^ 2));
            let frontiers: Vec<SpVec<u32>> = [1u64, 3, 40]
                .iter()
                .map(|&keep| {
                    let js = (0..n2 as Vidx).filter(|_| rng.below(keep) == 0);
                    SpVec::from_sorted_pairs(n2, js.map(|j| (j, j ^ 0x55)).collect())
                })
                .collect();
            let mut grids: Vec<(usize, usize)> = (1..=16).map(|d| (d, d)).collect();
            grids.extend([(1, 16), (16, 1), (3, 5), (5, 3)]);
            for (rowp, colp) in
                [(None, None), (Some(&rp), Some(&cp)), (Some(&rp), None), (None, Some(&cp))]
            {
                let mapped = RelabeledView::new(csc.view(), rowp, colp);
                let pairs: Vec<(Vidx, Vidx)> = (0..mapped.nstored())
                    .map(|k| mapped.stored(k))
                    .flat_map(|(j, rows)| rows.iter().map(move |&i| (i, j)))
                    .map(|(i, j)| (mapped.row(i), j))
                    .collect();
                let canonical = Dcsc::from_unsorted_pairs(n1, n2, &pairs);
                let (mut wu, mut wc) = (SpmvWorkspace::new(), SpmvWorkspace::new());
                for &(pr, pc) in &grids {
                    let grid = FoldGrid::new(n1, n2, pr, pc);
                    // The view's product runs in stored labels on the grid
                    // composed with its row map.
                    let composed = mapped.row_map().map(|p| grid.composed(p));
                    let mgrid = composed.as_ref().unwrap_or(&grid);
                    for x in &frontiers {
                        let tag = format!(
                            "seed {seed:#x} rowp={} colp={} grid {pr}x{pc} nnz(x) {}",
                            rowp.is_some(),
                            colp.is_some(),
                            x.nnz()
                        );
                        let want = spmspv(&canonical, x, |j, &v| j ^ v, min);
                        let last = |acc: &mut u32, inc: u32| *acc = inc;
                        let count = |acc: &mut u32, inc: u32| *acc += inc;
                        let (mut ym, mut yl, mut yc) =
                            (SpVec::new(0), SpVec::new(0), SpVec::new(0));
                        let vm =
                            wu.spmspv_fused_into(&mapped, x, mgrid, |j, &v| j ^ v, min, &mut ym);
                        let vl = wu.spmspv_fused_into(&mapped, x, mgrid, |j, _| j, last, &mut yl);
                        let vc = wu.spmspv_fused_into(&mapped, x, mgrid, |_, _| 1, count, &mut yc);
                        assert_eq!(
                            (vm, vl),
                            (vc, vc),
                            "{tag}: volumes must not depend on the fold"
                        );
                        let (mut zm, mut zl, mut zc) =
                            (SpVec::new(0), SpVec::new(0), SpVec::new(0));
                        let um =
                            wc.spmspv_fused_into(&canonical, x, &grid, |j, &v| j ^ v, min, &mut zm);
                        wc.spmspv_fused_into(&canonical, x, &grid, |j, _| j, last, &mut zl);
                        wc.spmspv_fused_into(&canonical, x, &grid, |_, _| 1, count, &mut zc);
                        assert_eq!((&ym, &yl, &yc, vm), (&zm, &zl, &zc, um), "{tag}");
                        assert_eq!(ym, want.y, "{tag}: serial product");
                        assert_eq!(vm, recounted_volumes(&canonical, x, pr, pc), "{tag}: volumes");
                        let flops = wu.spmspv_into(&mapped, x, |j, _| j, last, &mut yl);
                        assert_eq!((&yl, flops), (&zl, want.flops), "{tag}: plain product");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_stamps_survive_wraparound() {
        // A logical 2×2 grid reserves two stamp values per product. Starting
        // the counter just below u32::MAX makes products end at or next to
        // the top, and a later one wrap: the stale top stamps must not read
        // as live rows afterwards.
        let a = fig2_matrix();
        let grid = FoldGrid::new(4, 5, 2, 2);
        let full = SpVec::from_pairs(5, (0..5).map(|j| (j, j)).collect());
        let tiny = SpVec::from_pairs(5, vec![(1, 1u32)]);
        type Out = (SpVec<u32>, FusedVolumes, SpVec<u32>, FusedVolumes);
        let run = |ws: &mut SpmvWorkspace<u32>, x: &SpVec<u32>| -> Out {
            let (mut yc, mut ys) = (SpVec::new(0), SpVec::new(0));
            let count = |acc: &mut u32, inc: u32| *acc += inc;
            let vc = ws.spmspv_fused_into(&a, x, &grid, |_, _| 1, count, &mut yc);
            let vs = ws.spmspv_fused_into(&a, x, &grid, |j, _| j, min, &mut ys);
            (yc, vc, ys, vs)
        };
        for start in (0..=6).map(|k| u32::MAX - k) {
            let (mut ws, mut fresh) = (SpmvWorkspace::new(), SpmvWorkspace::new());
            run(&mut ws, &full);
            ws.spa.epoch = start;
            for x in [&full, &tiny, &full, &tiny, &full] {
                assert_eq!(run(&mut ws, x), run(&mut fresh, x), "counter started at {start}");
            }
            assert!(ws.spa.epoch < start, "the counter must have wrapped");
        }
    }
}
