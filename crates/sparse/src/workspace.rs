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
//! * [`SpmvWorkspace::spmspv_parallel_into`] adds an intra-block thread
//!   level (the paper's OpenMP axis): the matched frontier columns are
//!   split into contiguous chunks by traversed-edge count, each chunk runs
//!   against its own stamped SPA on its own thread, and the chunk results
//!   merge in **ascending chunk (hence ascending column) order** through an
//!   allocation-free k-way merge. Because every supported combiner is an
//!   associative selection (see below), the merged result is bit-identical
//!   to the serial kernel's — `MinParent`, `RandParent`/`RandRoot`, and
//!   first-arrival combiners all included — and `flops` is exactly the
//!   serial count.
//! * [`SpmvWorkspace::spmspv_fused_into`] is the simulator's kernel: one
//!   physical product over the whole (single-block) matrix whose SPA
//!   doubles as the communication arena — logical ranks' "messages" are
//!   writes into their destination's SPA region, the epoch stamp is the
//!   exchange barrier, and the per-logical-block volumes the α–β–γ model
//!   charges (flops, fold send/recv) are counted in-line from the same
//!   traversal: one stamp per row records both the generation and the
//!   logical block column that last touched it, flops are added once per
//!   block-row run of a column, and fold pairs only at first touches —
//!   nothing is counted per edge. See `mcm-bsp`'s
//!   `DistMatrix::spmspv_fused` for the charging this plugs into.
//!
//! ### Combiner contract
//!
//! `take_incoming(acc, inc) -> bool` must implement an **associative
//! selection**: `fold(a, b) = if take_incoming(a, b) { b } else { a }` must
//! be associative (every total-order "keep the minimum key" selection is,
//! as is first-arrival `|_, _| false`). The serial kernel folds candidates
//! per row in ascending column order; the chunked kernel folds each chunk's
//! sub-range in that same order and then folds the per-chunk survivors in
//! ascending chunk order — associativity makes the two parenthesizations
//! equal, value for value. Monoid `combine(&mut acc, inc)` must be
//! commutative and associative, as [`crate::spmv::spmspv_monoid`] already
//! requires.
//!
//! The column-level semiring multiply `mul(j, xj)` is invoked **once per
//! matched column** and its value copied per traversed edge (the multiply
//! depends only on `(j, xj)`, never on the row), which the seed kernels
//! re-evaluated per nonzero.

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

    /// Folds `cand` into row `i` under a selection combiner.
    #[inline]
    fn accum_select(&mut self, i: Vidx, cand: U, take_incoming: &mut impl FnMut(&U, &U) -> bool)
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
            let acc = unsafe { self.vals[iu].assume_init_mut() };
            if take_incoming(acc, &cand) {
                *acc = cand;
            }
        }
    }

    /// Folds `cand` into row `i` under a monoid combiner.
    #[inline]
    fn accum_monoid(&mut self, i: Vidx, cand: U, combine: &mut impl FnMut(&mut U, U))
    where
        U: Copy,
    {
        let iu = i as usize;
        if self.stamp[iu] != self.epoch {
            self.stamp[iu] = self.epoch;
            self.vals[iu].write(cand);
            self.touched.push(i);
        } else {
            // SAFETY: stamped ⇒ initialized this generation.
            let acc = unsafe { self.vals[iu].assume_init_mut() };
            combine(acc, cand);
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

/// Reusable state for the `*_into` SpMSpV kernels: one stamped SPA for the
/// serial path, per-chunk SPAs for the intra-block parallel path, and the
/// merge-join scratch shared by both.
#[derive(Clone, Debug)]
pub struct SpmvWorkspace<U: Copy> {
    spa: SpaBuf<U>,
    /// One SPA per chunk of the parallel path (grown on demand).
    chunk_spas: Vec<SpaBuf<U>>,
    /// Matched `(frontier position, nonzero-column position)` pairs from the
    /// merge-join, reused across calls.
    pairs: Vec<(u32, u32)>,
    /// Per-chunk cursors for the k-way merge.
    heads: Vec<usize>,
    /// Per-chunk pair-range boundaries (`chunk c` owns `bounds[c]..bounds[c+1]`).
    bounds: Vec<usize>,
    /// Fused-kernel scratch: traversed edges per logical block.
    blk_flops: Vec<u64>,
    /// Fused-kernel scratch: distinct `(row, block column)` contributions
    /// per (fold segment, logical block column) — pre-merge fold pairs.
    seg_pairs: Vec<u64>,
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
        Self {
            spa: SpaBuf::new(),
            chunk_spas: Vec::new(),
            pairs: Vec::new(),
            heads: Vec::new(),
            bounds: Vec::new(),
            blk_flops: Vec::new(),
            seg_pairs: Vec::new(),
            stats: WorkspaceStats::default(),
        }
    }

    /// Records one call's reuse accounting: `needed` rows against what the
    /// buffers already held.
    fn note_call(&mut self, nrows: usize, chunks_used: usize) {
        self.stats.calls += 1;
        let warm = self.spa.stamp.len() >= nrows
            && self.chunk_spas.len() >= chunks_used
            && self.chunk_spas[..chunks_used].iter().all(|s| s.stamp.len() >= nrows);
        if warm {
            self.stats.reuse_hits += 1;
            self.stats.bytes_reused += self.spa.heap_bytes()
                + self.chunk_spas[..chunks_used].iter().map(|s| s.heap_bytes()).sum::<u64>();
        }
    }

    /// DCSC SpMSpV into a caller-owned output vector; returns the traversed
    /// edge count (`flops`), identical to [`crate::spmv::spmspv`].
    ///
    /// `y` is [`SpVec::reset`] to `a.nrows()` and filled in ascending row
    /// order; its allocation is reused.
    pub fn spmspv_into<T>(
        &mut self,
        a: &Dcsc,
        x: &SpVec<T>,
        mut mul: impl FnMut(Vidx, &T) -> U,
        mut take_incoming: impl FnMut(&U, &U) -> bool,
        y: &mut SpVec<U>,
    ) -> u64 {
        self.note_call(a.nrows(), 0);
        self.spa.begin(a.nrows());
        let mut flops = 0u64;

        let cols = a.nonzero_cols();
        let xs = x.entries();
        let (mut p, mut q) = (0usize, 0usize);
        while p < xs.len() && q < cols.len() {
            let (j, xj) = (&xs[p].0, &xs[p].1);
            match cols[q].cmp(j) {
                std::cmp::Ordering::Less => q += 1,
                std::cmp::Ordering::Greater => p += 1,
                std::cmp::Ordering::Equal => {
                    let (rows, _) = a.nth_col(q);
                    if !rows.is_empty() {
                        // The multiply depends only on (j, xj): hoist it out
                        // of the row loop and copy per edge.
                        let colv = mul(*j, xj);
                        flops += rows.len() as u64;
                        for &i in rows {
                            self.spa.accum_select(i, colv, &mut take_incoming);
                        }
                    }
                    p += 1;
                    q += 1;
                }
            }
        }

        y.reset(a.nrows());
        self.spa.drain_into(y);
        flops
    }

    /// CSC SpMSpV into a caller-owned output vector (same contract as
    /// [`SpmvWorkspace::spmspv_into`]; direct column indexing replaces the
    /// merge-join).
    pub fn spmspv_csc_into<T>(
        &mut self,
        a: &Csc,
        x: &SpVec<T>,
        mut mul: impl FnMut(Vidx, &T) -> U,
        mut take_incoming: impl FnMut(&U, &U) -> bool,
        y: &mut SpVec<U>,
    ) -> u64 {
        self.note_call(a.nrows(), 0);
        self.spa.begin(a.nrows());
        let mut flops = 0u64;

        for (j, xj) in x.iter() {
            let rows = a.col(j as usize);
            if rows.is_empty() {
                continue;
            }
            let colv = mul(j, xj);
            flops += rows.len() as u64;
            for &i in rows {
                self.spa.accum_select(i, colv, &mut take_incoming);
            }
        }

        y.reset(a.nrows());
        self.spa.drain_into(y);
        flops
    }

    /// DCSC SpMSpV over a monoid "addition" into a caller-owned output
    /// vector (the workspace counterpart of
    /// [`crate::spmv::spmspv_monoid`]).
    pub fn spmspv_monoid_into<T>(
        &mut self,
        a: &Dcsc,
        x: &SpVec<T>,
        mut mul: impl FnMut(Vidx, &T) -> U,
        mut combine: impl FnMut(&mut U, U),
        y: &mut SpVec<U>,
    ) -> u64 {
        self.note_call(a.nrows(), 0);
        self.spa.begin(a.nrows());
        let mut flops = 0u64;

        let cols = a.nonzero_cols();
        let xs = x.entries();
        let (mut p, mut q) = (0usize, 0usize);
        while p < xs.len() && q < cols.len() {
            let (j, xj) = (&xs[p].0, &xs[p].1);
            match cols[q].cmp(j) {
                std::cmp::Ordering::Less => q += 1,
                std::cmp::Ordering::Greater => p += 1,
                std::cmp::Ordering::Equal => {
                    let (rows, _) = a.nth_col(q);
                    if !rows.is_empty() {
                        let colv = mul(*j, xj);
                        flops += rows.len() as u64;
                        for &i in rows {
                            self.spa.accum_monoid(i, colv, &mut combine);
                        }
                    }
                    p += 1;
                    q += 1;
                }
            }
        }

        y.reset(a.nrows());
        self.spa.drain_into(y);
        flops
    }

    /// Reduces the per-block and per-segment counters to the two bottleneck
    /// volumes the cost model charges: block `(bi, bj)` sends the pairs its
    /// `pc` fold segments counted from block column `bj`, and fold
    /// destination `(bi, d)` receives two words per pair of segment
    /// `bi · pc + d` from every block column.
    fn fused_volumes(&self, pr: usize, pc: usize) -> FusedVolumes {
        let mut max_flops = 0u64;
        let mut fold_bottleneck = 0u64;
        for bi in 0..pr {
            let segs = bi * pc..(bi + 1) * pc;
            let mut send = 0u64;
            for bj in 0..pc {
                let pairs: u64 = segs.clone().map(|seg| self.seg_pairs[seg * pc + bj]).sum();
                max_flops = max_flops.max(self.blk_flops[bi * pc + bj]);
                send = send.max(2 * pairs);
            }
            let recv = segs
                .map(|seg| 2 * self.seg_pairs[seg * pc..(seg + 1) * pc].iter().sum::<u64>())
                .max()
                .unwrap_or(0);
            fold_bottleneck = fold_bottleneck.max(send.max(recv));
        }
        FusedVolumes { max_flops, fold_bottleneck }
    }

    /// Fused single-block SpMSpV for the simulator: one physical
    /// product over the whole matrix (`a` spans all rows and columns) whose
    /// SPA serves as the communication arena of a **logical** `pr × pc`
    /// grid. Every "remote contribution" a distributed execution would ship
    /// through expand/fold buffers is instead written directly into the
    /// destination's SPA region — zero copies, zero per-message allocation —
    /// while the α–β–γ volumes of the logical execution are counted in-line.
    ///
    /// `col_off` holds the `pc + 1` logical block-column boundaries.
    /// `fold_off` holds the `pr · pc + 1` row boundaries of the fold
    /// destinations: segment `bi · pc + d` is the rows of logical block row
    /// `bi` that grid-row rank `d` owns in the balanced fold distribution,
    /// so block row `bi` starts at `fold_off[bi · pc]`.
    ///
    /// The product reserves `pc` SPA stamp values and a row's stamp is
    /// `base + bj` for the last logical block column `bj` that touched it.
    /// Block columns are visited in ascending order, so `stamp < base` is
    /// the row's first touch in this product and `stamp != base + bj` is
    /// the first touch from block column `bj`: one distinct pre-merge fold
    /// pair. Nothing is counted per edge:
    ///
    /// * edges per logical block `(bi, bj)` — each column's sorted rows are
    ///   split at the `pr - 1` block-row boundaries by binary search and
    ///   the run lengths added once per column;
    /// * fold pairs per `(segment, bj)` — counted only at a first touch from
    ///   `bj`, whose segment a forward-moving cursor over `fold_off` finds
    ///   (rows ascend within a column).
    ///
    /// A block's fold send is its pairs; a destination's receive is its
    /// segment's pairs over all block columns (see [`FusedVolumes`]).
    ///
    /// Results are bit-identical to the serial kernel (candidates fold per
    /// row in ascending global column order), hence — by grid independence —
    /// to the engine's split execution on any grid, and the returned
    /// [`FusedVolumes`] match that execution's charges exactly.
    #[allow(clippy::too_many_arguments)] // mirrors the distributed kernel's surface
    pub fn spmspv_fused_into<T>(
        &mut self,
        a: &Dcsc,
        x: &SpVec<T>,
        col_off: &[usize],
        fold_off: &[usize],
        mul: impl FnMut(Vidx, &T) -> U,
        mut take_incoming: impl FnMut(&U, &U) -> bool,
        y: &mut SpVec<U>,
    ) -> FusedVolumes {
        let fold = |acc: &mut U, inc: U| {
            if take_incoming(acc, &inc) {
                *acc = inc;
            }
        };
        self.fused_into(a, x, col_off, fold_off, mul, fold, y)
    }

    /// Monoid counterpart of [`SpmvWorkspace::spmspv_fused_into`] (same
    /// arena/accounting scheme, commutative-associative `combine` fold).
    #[allow(clippy::too_many_arguments)] // mirrors the distributed kernel's surface
    pub fn spmspv_monoid_fused_into<T>(
        &mut self,
        a: &Dcsc,
        x: &SpVec<T>,
        col_off: &[usize],
        fold_off: &[usize],
        mul: impl FnMut(Vidx, &T) -> U,
        combine: impl FnMut(&mut U, U),
        y: &mut SpVec<U>,
    ) -> FusedVolumes {
        self.fused_into(a, x, col_off, fold_off, mul, combine, y)
    }

    /// The fused traversal both public kernels share; `fold` merges a
    /// candidate into a row's live accumulator.
    #[allow(clippy::too_many_arguments)] // mirrors the distributed kernel's surface
    fn fused_into<T>(
        &mut self,
        a: &Dcsc,
        x: &SpVec<T>,
        col_off: &[usize],
        fold_off: &[usize],
        mut mul: impl FnMut(Vidx, &T) -> U,
        mut fold: impl FnMut(&mut U, U),
        y: &mut SpVec<U>,
    ) -> FusedVolumes {
        let pc = col_off.len() - 1;
        let pr = (fold_off.len() - 1) / pc;
        debug_assert_eq!(pr * pc + 1, fold_off.len(), "fold_off must hold pr · pc segments");
        self.note_call(a.nrows(), 0);
        self.blk_flops.clear();
        self.blk_flops.resize(pr * pc, 0);
        self.seg_pairs.clear();
        self.seg_pairs.resize(pr * pc * pc, 0);
        let base = self.spa.begin_span(a.nrows(), pc as u32);
        // Split borrows into slices: the hot loop holds every array in a
        // local, so a `touched` push cannot force the others to be reloaded.
        let SpaBuf { stamp, vals, touched, .. } = &mut self.spa;
        let (stamp, vals) = (&mut stamp[..], &mut vals[..]);
        let (blk_flops, seg_pairs) = (&mut self.blk_flops[..], &mut self.seg_pairs[..]);

        let cols = a.nonzero_cols();
        let xs = x.entries();
        let (mut p, mut q) = (0usize, 0usize);
        let mut bj = 0usize; // logical column block: ascending with j
        while p < xs.len() && q < cols.len() {
            match cols[q].cmp(&xs[p].0) {
                std::cmp::Ordering::Less => q += 1,
                std::cmp::Ordering::Greater => p += 1,
                std::cmp::Ordering::Equal => {
                    // DCSC stores nonempty columns only.
                    let (rows, _) = a.nth_col(q);
                    let j = xs[p].0;
                    while (j as usize) >= col_off[bj + 1] {
                        bj += 1;
                    }
                    let colv = mul(j, &xs[p].1);
                    let tag = base + bj as u32;
                    // Rows ascend within a column: edges per logical block
                    // are the runs between the block-row boundaries. Empty
                    // block rows are stepped over, not searched.
                    let (mut lo, mut bi) = (0usize, 0usize);
                    while lo < rows.len() {
                        while rows[lo] as usize >= fold_off[(bi + 1) * pc] {
                            bi += 1;
                        }
                        let hi = if bi + 1 == pr {
                            rows.len()
                        } else {
                            let b = fold_off[(bi + 1) * pc];
                            lo + 1 + rows[lo + 1..].partition_point(|&i| (i as usize) < b)
                        };
                        blk_flops[bi * pc + bj] += (hi - lo) as u64;
                        lo = hi;
                    }
                    // Fold pairs: a stamp other than `tag` is a first touch
                    // from this block column; only those look up their
                    // segment, with cursors that move forward over block
                    // rows, then over the segments of one block row.
                    let (mut seg, mut seg_bi) = (0usize, 0usize);
                    for &i in rows {
                        let iu = i as usize;
                        let st = stamp[iu];
                        if st != tag {
                            if iu >= fold_off[seg + 1] {
                                while iu >= fold_off[(seg_bi + 1) * pc] {
                                    seg_bi += 1;
                                    seg = seg_bi * pc;
                                }
                                let ends = &fold_off[seg + 1..(seg_bi + 1) * pc];
                                seg += ends.partition_point(|&b| b <= iu);
                            }
                            seg_pairs[seg * pc + bj] += 1;
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
                    p += 1;
                    q += 1;
                }
            }
        }

        y.reset(a.nrows());
        self.spa.drain_into(y);
        self.fused_volumes(pr, pc)
    }

    /// Intra-block thread-parallel DCSC SpMSpV: the matched frontier columns
    /// are split into up to `threads` contiguous chunks (balanced by
    /// traversed-edge count), each chunk accumulates into its own stamped
    /// SPA on its own thread, and the per-chunk results merge in ascending
    /// chunk order through an allocation-free k-way merge.
    ///
    /// Output and `flops` are **bit-identical** to
    /// [`SpmvWorkspace::spmspv_into`] (see the module docs for the combiner
    /// associativity contract). `threads <= 1` — or a frontier too small to
    /// be worth splitting — falls through to the serial path.
    pub fn spmspv_parallel_into<T>(
        &mut self,
        a: &Dcsc,
        x: &SpVec<T>,
        threads: usize,
        mul: impl Fn(Vidx, &T) -> U + Sync,
        take_incoming: impl Fn(&U, &U) -> bool + Sync,
        y: &mut SpVec<U>,
    ) -> u64
    where
        T: Sync,
        U: Send,
    {
        // Merge-join once, into the reusable pair list.
        self.pairs.clear();
        let cols = a.nonzero_cols();
        let xs = x.entries();
        let (mut p, mut q) = (0usize, 0usize);
        let mut total_edges = 0u64;
        while p < xs.len() && q < cols.len() {
            match cols[q].cmp(&xs[p].0) {
                std::cmp::Ordering::Less => q += 1,
                std::cmp::Ordering::Greater => p += 1,
                std::cmp::Ordering::Equal => {
                    let (rows, _) = a.nth_col(q);
                    if !rows.is_empty() {
                        self.pairs.push((p as u32, q as u32));
                        total_edges += rows.len() as u64;
                    }
                    p += 1;
                    q += 1;
                }
            }
        }

        /// Below this many traversed edges, thread spawn costs more than it
        /// saves; run serial.
        const MIN_PARALLEL_EDGES: u64 = 4096;
        let chunks = threads
            .min(self.pairs.len())
            .min((total_edges / MIN_PARALLEL_EDGES.max(1)).max(1) as usize);
        if chunks <= 1 {
            // Reuse the already-computed merge-join: run the serial SPA over
            // the pair list directly.
            self.note_call(a.nrows(), 0);
            self.spa.begin(a.nrows());
            let mut flops = 0u64;
            for &(p, q) in &self.pairs {
                let (j, xj) = (&xs[p as usize].0, &xs[p as usize].1);
                let (rows, _) = a.nth_col(q as usize);
                let colv = mul(*j, xj);
                flops += rows.len() as u64;
                for &i in rows {
                    let mut take = |acc: &U, inc: &U| take_incoming(acc, inc);
                    self.spa.accum_select(i, colv, &mut take);
                }
            }
            y.reset(a.nrows());
            self.spa.drain_into(y);
            return flops;
        }

        // Chunk boundaries balanced by edge count (deterministic in the
        // input, independent of the worker count actually scheduled).
        self.bounds.clear();
        self.bounds.push(0);
        let per_chunk = total_edges.div_ceil(chunks as u64);
        let mut acc_edges = 0u64;
        for (k, &(_, q)) in self.pairs.iter().enumerate() {
            let deg = {
                let (rows, _) = a.nth_col(q as usize);
                rows.len() as u64
            };
            acc_edges += deg;
            if acc_edges >= per_chunk && self.bounds.len() < chunks && k + 1 < self.pairs.len() {
                self.bounds.push(k + 1);
                acc_edges = 0;
            }
        }
        self.bounds.push(self.pairs.len());
        let used = self.bounds.len() - 1;

        if self.chunk_spas.len() < used {
            self.chunk_spas.resize_with(used, SpaBuf::new);
        }
        self.note_call(a.nrows(), used);

        // Parallel phase: one stamped SPA per chunk, ascending columns
        // within each chunk.
        let pairs = &self.pairs;
        let bounds = &self.bounds;
        let per_chunk_flops =
            mcm_par::par_for_each_mut(&mut self.chunk_spas[..used], used, |c, spa| {
                spa.begin(a.nrows());
                let mut flops = 0u64;
                for &(p, q) in &pairs[bounds[c]..bounds[c + 1]] {
                    let (j, xj) = (&xs[p as usize].0, &xs[p as usize].1);
                    let (rows, _) = a.nth_col(q as usize);
                    let colv = mul(*j, xj);
                    flops += rows.len() as u64;
                    for &i in rows {
                        let mut take = |acc: &U, inc: &U| take_incoming(acc, inc);
                        spa.accum_select(i, colv, &mut take);
                    }
                }
                spa.touched.sort_unstable();
                flops
            });
        let flops: u64 = per_chunk_flops.into_iter().sum();

        // Deterministic fold: k-way merge of the per-chunk sorted rows,
        // ties resolved toward the lower chunk (= earlier columns), values
        // folded left-to-right with the combiner — exactly the serial
        // arrival order, re-parenthesized per chunk.
        y.reset(a.nrows());
        self.heads.clear();
        self.heads.resize(used, 0);
        loop {
            let mut best: Option<(Vidx, usize)> = None;
            for c in 0..used {
                let spa = &self.chunk_spas[c];
                if self.heads[c] < spa.touched.len() {
                    let r = spa.touched[self.heads[c]];
                    if best.is_none_or(|(br, _)| r < br) {
                        best = Some((r, c));
                    }
                }
            }
            let Some((r, c)) = best else { break };
            self.heads[c] += 1;
            let v = self.chunk_spas[c].take(r);
            match y.entries_mut().last_mut() {
                Some((last, acc)) if *last == r => {
                    if take_incoming(acc, &v) {
                        *acc = v;
                    }
                }
                _ => y.push(r, v),
            }
        }
        flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::spmspv;
    use crate::Triples;

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
        let seed = spmspv(&a, &x, |j, &(_, r)| (j, r), |acc: &(Vidx, Vidx), inc| inc.0 < acc.0);
        let mut ws = SpmvWorkspace::new();
        let mut y = SpVec::new(0);
        let flops = ws.spmspv_into(&a, &x, |j, &(_, r)| (j, r), |acc, inc| inc.0 < acc.0, &mut y);
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
        ws.spmspv_into(&a, &full, |j, _| j, |acc, inc| inc < acc, &mut y);
        assert_eq!(y.nnz(), 4);
        // Second call with a tiny frontier: rows from call 1 must be gone.
        let tiny = SpVec::from_pairs(5, vec![(1, 1u32)]);
        ws.spmspv_into(&a, &tiny, |j, _| j, |acc, inc| inc < acc, &mut y);
        assert_eq!(y.entries(), &[(1, 1)]);
    }

    #[test]
    fn parallel_matches_serial_on_fig2() {
        let a = fig2_matrix();
        let x = SpVec::from_pairs(5, vec![(0, (0u32, 0u32)), (1, (1, 1)), (4, (4, 4))]);
        let seed = spmspv(&a, &x, |j, &(_, r)| (j, r), |acc: &(Vidx, Vidx), inc| inc.0 < acc.0);
        let mut ws = SpmvWorkspace::new();
        let mut y = SpVec::new(0);
        let flops = ws.spmspv_parallel_into(
            &a,
            &x,
            4,
            |j, &(_, r)| (j, r),
            |acc, inc| inc.0 < acc.0,
            &mut y,
        );
        assert_eq!(y, seed.y);
        assert_eq!(flops, seed.flops);
    }

    #[test]
    fn reuse_is_counted() {
        let a = fig2_matrix();
        let x = SpVec::from_pairs(5, vec![(0, 0u32), (4, 4)]);
        let mut ws: SpmvWorkspace<Vidx> = SpmvWorkspace::new();
        let mut y = SpVec::new(0);
        for _ in 0..3 {
            ws.spmspv_into(&a, &x, |j, _| j, |acc, inc| inc < acc, &mut y);
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
        let seed = spmspv(&a, &full, |j, _| j, |acc: &Vidx, inc| inc < acc);
        let mut ws = SpmvWorkspace::new();
        let mut y = SpVec::new(0);
        let flops = ws.spmspv_into(&a, &full, |j, _| j, |acc, inc| inc < acc, &mut y);
        assert_eq!(y, seed.y);
        assert_eq!(flops, seed.flops);
        assert!(8 * y.nnz() >= n, "test must exercise the dense-sweep drain");
    }

    #[test]
    fn fused_matches_serial_and_counts_single_block_volumes() {
        let a = fig2_matrix();
        let x = SpVec::from_pairs(5, vec![(0, (0u32, 0u32)), (1, (1, 1)), (4, (4, 4))]);
        let seed = spmspv(&a, &x, |j, &(_, r)| (j, r), |acc: &(Vidx, Vidx), inc| inc.0 < acc.0);
        let mut ws = SpmvWorkspace::new();
        let mut y = SpVec::new(0);
        // Logical 1×1: flops = serial flops, fold send = 2 · nnz(y).
        let vols = ws.spmspv_fused_into(
            &a,
            &x,
            &[0, 5],
            &[0, 4],
            |j, &(_, r)| (j, r),
            |acc, inc| inc.0 < acc.0,
            &mut y,
        );
        assert_eq!(y, seed.y);
        assert_eq!(vols.max_flops, seed.flops);
        assert_eq!(vols.fold_bottleneck, 2 * seed.y.nnz() as u64);
    }

    #[test]
    fn fused_stamps_survive_wraparound() {
        // A logical 2×2 grid reserves two stamp values per product. Starting
        // the counter just below u32::MAX makes products end at or next to
        // the top, and a later one wrap: the stale top stamps must not read
        // as live rows afterwards.
        let a = fig2_matrix();
        let (col_off, fold_off) = ([0, 3, 5], [0, 1, 2, 3, 4]);
        let full = SpVec::from_pairs(5, (0..5).map(|j| (j, j)).collect());
        let tiny = SpVec::from_pairs(5, vec![(1, 1u32)]);
        type Out = (SpVec<u32>, FusedVolumes, SpVec<u32>, FusedVolumes);
        let run = |ws: &mut SpmvWorkspace<u32>, x: &SpVec<u32>| -> Out {
            let (mut yc, mut ys) = (SpVec::new(0), SpVec::new(0));
            let count = |acc: &mut u32, inc: u32| *acc += inc;
            let vc =
                ws.spmspv_monoid_fused_into(&a, x, &col_off, &fold_off, |_, _| 1, count, &mut yc);
            let take = |acc: &u32, inc: &u32| inc < acc;
            let vs = ws.spmspv_fused_into(&a, x, &col_off, &fold_off, |j, _| j, take, &mut ys);
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
