//! MCM-DIST: the distributed maximum-cardinality-matching driver
//! (Algorithm 2 of the paper).
//!
//! Each *phase* runs a level-synchronous multi-source BFS from all unmatched
//! column vertices, tracking `(parent, root)` pairs over a semiring SpMSpV,
//! records at most one augmenting path per alternating tree, optionally
//! prunes trees that already found a path, and finally augments by all
//! discovered vertex-disjoint paths (Algorithm 3 or 4). Phases repeat until
//! one finds no augmenting path, which certifies maximum cardinality
//! (Berge's theorem; `verify::is_maximum` re-checks this independently in
//! the tests).

use crate::augment::{augment, AugmentMode, AugmentReport};
use crate::matching::Matching;
use crate::maximal::Initializer;
use crate::primitives::{invert_by, prune, select, set_dense};
use crate::semirings::SemiringKind;
use crate::vertex::Vertex;
use mcm_bsp::collectives::per_rank_counts;
use mcm_bsp::{Communicator, DistMatrix, Kernel, ReduceOp, SpmvPlan};
use mcm_sparse::permute::{relabel_permutations, Permutation};
use mcm_sparse::{CscView, DenseVec, SpVec, Vidx, NIL};

/// Tunables of MCM-DIST.
#[derive(Clone, Copy, Debug)]
pub struct McmOptions {
    /// Frontier-expansion semiring (§III-B).
    pub semiring: SemiringKind,
    /// Prune trees that already discovered a path (Step 6; Fig. 8 ablation).
    pub prune: bool,
    /// Augmentation kernel selection (§IV-B).
    pub augment: AugmentMode,
    /// Maximal-matching initializer (§VI-A).
    pub init: Initializer,
    /// Randomly permute rows/columns for load balance (§IV-A) with this
    /// seed. The returned matching is mapped back to original labels.
    pub permute_seed: Option<u64>,
    /// Seed for the randomized initializer (Karp–Sipser's fallback
    /// order). Randomized *semirings* carry their own seed inside
    /// [`SemiringKind`].
    pub seed: u64,
}

impl Default for McmOptions {
    fn default() -> Self {
        Self {
            semiring: SemiringKind::MinParent,
            prune: true,
            augment: AugmentMode::Auto,
            init: Initializer::DynamicMindegree,
            permute_seed: Some(0x5EED),
            seed: 1,
        }
    }
}

/// Counters describing one MCM-DIST run.
#[derive(Clone, Debug, Default)]
pub struct McmStats {
    /// Phases executed (including the final, path-free one).
    pub phases: usize,
    /// Level-synchronous BFS iterations across all phases.
    pub iterations: usize,
    /// Total augmenting paths applied.
    pub augmentations: usize,
    /// Cardinality contributed by the initializer.
    pub init_cardinality: usize,
    /// One report per phase that augmented.
    pub augment_reports: Vec<AugmentReport>,
    /// Kernel calls served by the reused SpMSpV plan (all blocks).
    pub spmv_workspace_calls: u64,
    /// Plan calls that ran entirely on warm buffers (no allocation).
    pub spmv_workspace_hits: u64,
    /// Seed of the simtest schedule this run executed under (`None` on the
    /// friendly fixed schedule) — the failure-report handle that replays
    /// the exact perturbation.
    pub sched_seed: Option<u64>,
    /// One-sided calls serviced under perturbed interleavings, summed over
    /// all path-parallel augmentation epochs.
    pub sched_interleave_steps: u64,
    /// Which engine produced the result (`"msbfs"` or `"ppf"`; see
    /// `portfolio::MatchingAlgo`). Empty only on default-constructed
    /// stats.
    pub algo: &'static str,
    /// `true` when `--algo auto` picked the engine from measured graph
    /// stats rather than an explicit request.
    pub algo_auto: bool,
}

/// The result of [`maximum_matching`].
#[derive(Clone, Debug)]
pub struct McmResult {
    /// A maximum cardinality matching (in the caller's vertex labels).
    pub matching: Matching,
    /// Run counters.
    pub stats: McmStats,
}

/// Where a solve starts from.
#[derive(Clone, Debug)]
pub enum Start {
    /// From the empty matching, after running `opts.init`.
    Cold,
    /// From an existing valid (not necessarily maximal) matching in the
    /// caller's labels; the initializer is skipped.
    ///
    /// §V of the paper shows a warm start removes most of the BFS work: the
    /// phase loop only has to repair what the start matching leaves free.
    Warm(Matching),
}

/// Computes a maximum cardinality matching of the bipartite graph `a` on
/// the machine behind `comm`: the cost-model simulator ([`mcm_bsp::DistCtx`])
/// or the thread-per-rank engine ([`mcm_bsp::EngineComm`]). Modeled time
/// accrues into the backend's timers either way, and both backends return
/// the identical matching and charges (the `backend_differential` suite
/// asserts this).
///
/// `a` is read in place: on the simulator the load-balancing relabeling
/// (§IV-A) is two index maps over `a`, so no permuted copy of `a` and no
/// edge list is ever materialized, and an mmap'ed MCSB view is solved
/// zero-copy. The default solve builds no nnz-sized structure at all:
/// dynamic mindegree reads `A` alone where it reads structure (one physical
/// block charged on at most two logical block columns). The transpose is
/// built only for an initializer that needs it — Karp–Sipser, or dynamic
/// mindegree on wider logical grids and multi-block engine meshes
/// ([`Initializer::needs_transpose`]) — and is dropped as soon as the
/// initializer returns, since the phases read `A` alone. The
/// engine's multi-block grids fuse the relabeling into their block scatter.
/// An owned [`Csc`](mcm_sparse::Csc) lends its view for free
/// ([`Csc::view`](mcm_sparse::Csc::view)); `Triples` convert once with
/// `t.to_csc()`.
///
/// # Panics
/// Panics when a warm matching's dimensions do not match `a`'s;
/// debug-panics when it is not a valid matching of `a`.
pub fn maximum_matching<C: Communicator>(
    comm: &mut C,
    a: &CscView<'_>,
    start: Start,
    opts: &McmOptions,
) -> McmResult {
    if let Start::Warm(warm) = &start {
        assert!(
            warm.n1() == a.nrows() && warm.n2() == a.ncols(),
            "warm matching is {}x{} but the graph is {}x{}",
            warm.n1(),
            warm.n2(),
            a.nrows(),
            a.ncols()
        );
        debug_assert!(warm.validate(a).is_ok());
    }
    let perms = opts.permute_seed.map(|seed| relabel_permutations(a.nrows(), a.ncols(), seed));
    let (rowp, colp) = (perms.as_ref().map(|p| &p.0), perms.as_ref().map(|p| &p.1));

    // The transpose is needed only by the initializers that cannot do
    // without it here; when one wants it, build both orientations together.
    // Blocks live on the backend's *physical* execution grid (1×1 for the
    // simulator, where `A` is `a` itself read through the relabeling's
    // index maps; the rank grid for the engine).
    let (epr, epc) = comm.exec_grid();
    let run_init = matches!(start, Start::Cold) && !matches!(opts.init, Initializer::None);
    let (da, dat) = if run_init && opts.init.needs_transpose(comm) {
        let (da, dat) = DistMatrix::with_grid_csc_pair(a, epr, epc, rowp, colp);
        (da, Some(dat))
    } else {
        (DistMatrix::with_grid_csc(a, epr, epc, rowp, colp), None)
    };
    let mut m = match start {
        Start::Warm(warm) => match &perms {
            None => warm,
            Some((rowp, colp)) => permute_matching(warm, rowp, colp),
        },
        Start::Cold if run_init => opts.init.maximal(comm, &da, dat.as_ref(), opts.seed),
        Start::Cold => Matching::empty(a.nrows(), a.ncols()),
    };
    // The phases read `A` alone: free the transpose's nnz-sized arrays
    // before they run.
    drop(dat);
    let mut stats =
        McmStats { init_cardinality: m.cardinality(), algo: "msbfs", ..Default::default() };

    run_phases(comm, &da, None, &mut m, opts, &mut stats);

    let matching = match perms {
        None => m,
        Some((rowp, colp)) => unpermute(m, &rowp, &colp),
    };
    McmResult { matching, stats }
}

/// Maps a matching in original labels into relabeled vertices (the inverse
/// of [`unpermute`], used by warm starts).
fn permute_matching(m: Matching, rowp: &Permutation, colp: &Permutation) -> Matching {
    let mut out = Matching::empty(m.n1(), m.n2());
    for j in 0..m.n2() as Vidx {
        let i = m.mate_c.get(j);
        if i != NIL {
            out.add(rowp.apply(i), colp.apply(j));
        }
    }
    out
}

/// The phase loop of Algorithm 2, operating on an already-distributed
/// matrix and matching (used directly by harnesses that time assembly and
/// the phases apart).
/// `_at` (a transpose) is ignored: the phases read `A` alone. The
/// parameter stays only for callers that still pass one.
pub fn run_phases<C: Communicator>(
    comm: &mut C,
    a: &DistMatrix,
    _at: Option<&DistMatrix>,
    m: &mut Matching,
    opts: &McmOptions,
    stats: &mut McmStats,
) {
    let (n1, n2) = (a.nrows(), a.ncols());
    let mut plan: SpmvPlan<Vertex> = SpmvPlan::new();
    let mut parent_r = DenseVec::nil(n1);
    let mut path_c = DenseVec::nil(n2);
    stats.sched_seed = comm.ctx().sched.as_ref().map(|s| s.seed());

    loop {
        stats.phases += 1;
        let _phase_span = mcm_obs::span("ms_bfs_phase");
        mcm_obs::counter_add("mcm_phases_total", &[], 1);
        // Decorrelate the perturbations of each phase's RMA epochs: the
        // schedule stream is reseeded as a pure function of (seed, phase),
        // so a failing phase replays exactly from the run's seed.
        if let Some(sched) = comm.ctx_mut().sched.as_mut() {
            sched.next_phase(stats.phases as u64);
        }
        parent_r.fill_nil();
        path_c.fill_nil();

        // Initial column frontier: unmatched columns seed their own trees.
        let mut f_c: SpVec<Vertex> = SpVec::from_sorted_pairs(
            n2,
            m.unmatched_cols().into_iter().map(|c| (c, Vertex::seed(c))).collect(),
        );

        while !f_c.is_empty() {
            stats.iterations += 1;
            // f_c ≠ φ check: a real allreduce of the per-rank frontier
            // counts (one control word each — charged identically to the
            // old hard-wired charge_allreduce).
            let total =
                comm.allreduce(Kernel::Other, &per_rank_counts(&f_c, comm.p()), ReduceOp::Sum);
            debug_assert_eq!(total as usize, f_c.nnz());

            // Step 1: explore neighbours of the column frontier (SpMSpV),
            // timed into the obs registry's latency histogram.
            let semiring = opts.semiring;
            mcm_obs::counter_add("mcm_bfs_iterations_total", &[], 1);
            let sw = mcm_obs::Stopwatch::new();
            let f_r_all = comm.spmspv(
                a,
                Kernel::SpMV,
                &mut plan,
                &f_c,
                |j, v: &Vertex| Vertex::new(j, v.root),
                |acc, inc| semiring.fold(acc, inc),
            );
            mcm_obs::observe_ns("mcm_spmv_iteration_seconds", &[], sw.elapsed_ns());
            // Step 2: keep rows not yet visited in this phase.
            let f_r_new = select(comm, Kernel::Select, &f_r_all, &parent_r, |p| p == NIL);
            // Step 3: record their parents.
            set_dense(comm, Kernel::Select, &mut parent_r, &f_r_new, |v| v.parent);
            // Step 4: split into unmatched (path endpoints) and matched rows.
            let uf_r = select(comm, Kernel::Select, &f_r_new, &m.mate_r, |v| v == NIL);
            let mut f_r = select(comm, Kernel::Select, &f_r_new, &m.mate_r, |v| v != NIL);

            if !uf_r.is_empty() {
                // Step 5: record one augmenting-path endpoint per tree.
                let t_c = invert_by(comm, Kernel::Invert, &uf_r, n2, |v| v.root, |i, _| i);
                set_dense(comm, Kernel::Select, &mut path_c, &t_c, |&r| r);
                // Step 6: prune the rest of those trees from the frontier.
                if opts.prune {
                    let roots: Vec<Vidx> = t_c.ind();
                    f_r = prune(comm, Kernel::Prune, &f_r, &roots, |v| v.root);
                }
            }

            // Step 7: next column frontier from the mates of matched rows.
            // Replace each row's parent with its mate (a local dense gather),
            // then INVERT to land on the mate columns.
            let stepped = SpVec::from_sorted_pairs(
                n1,
                f_r.iter().map(|(i, v)| (i, Vertex::new(m.mate_r.get(i), v.root))).collect(),
            );
            comm.ctx_mut().charge_compute_stream(Kernel::Select, stepped.nnz() as u64);
            f_c = invert_by(
                comm,
                Kernel::Invert,
                &stepped,
                n2,
                |v| v.parent,
                |i, v| Vertex::new(i, v.root),
            );
        }

        // Step 8: augment by every path discovered in this phase.
        let report = augment(comm, opts.augment, &path_c, &parent_r, m);
        if report.paths == 0 {
            break; // no augmenting path: maximum reached
        }
        stats.augmentations += report.paths;
        stats.sched_interleave_steps += report.sched_steps;
        stats.augment_reports.push(report);
    }

    // Workspace accounting is measured once (by the plan itself) and fans
    // out to the compat `McmStats` fields and the obs registry.
    let ws = plan.stats();
    stats.spmv_workspace_calls += ws.calls;
    stats.spmv_workspace_hits += ws.reuse_hits;
    if mcm_obs::metrics_enabled() {
        mcm_obs::counter_add("mcm_spmv_workspace_calls_total", &[], ws.calls);
        mcm_obs::counter_add("mcm_spmv_workspace_hits_total", &[], ws.reuse_hits);
        mcm_obs::counter_add("mcm_spmv_workspace_bytes_reused_total", &[], ws.bytes_reused);
        mcm_obs::counter_add("mcm_augmentations_total", &[], stats.augmentations as u64);
    }
}

/// Maps a matching computed on relabeled vertices back to original labels.
fn unpermute(m: Matching, rowp: &Permutation, colp: &Permutation) -> Matching {
    // The permuted graph had edge (rowp(i), colp(j)) for original (i, j);
    // translate mates back through the inverses.
    let rinv = rowp.inverse();
    let cinv = colp.inverse();
    let mut out = Matching::empty(m.n1(), m.n2());
    for jp in 0..m.n2() as Vidx {
        let ip = m.mate_c.get(jp);
        if ip != NIL {
            out.add(rinv.apply(ip), cinv.apply(jp));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::hopcroft_karp;
    use crate::verify::assert_maximum;
    use mcm_bsp::{DistCtx, MachineConfig};
    use mcm_sparse::Triples;

    /// One solve of `t` on `comm`.
    fn solve<C: Communicator>(
        comm: &mut C,
        t: &Triples,
        start: Start,
        opts: &McmOptions,
    ) -> McmResult {
        maximum_matching(comm, &t.to_csc().view(), start, opts)
    }

    fn fig2() -> Triples {
        Triples::from_edges(
            4,
            5,
            vec![(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 4)],
        )
    }

    #[test]
    fn finds_maximum_on_fig2() {
        let t = fig2();
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 2));
        let r = solve(&mut ctx, &t, Start::Cold, &McmOptions::default());
        let a = t.to_csc();
        assert_maximum(&a, &r.matching);
        assert_eq!(r.matching.cardinality(), 4);
        assert!(r.stats.phases >= 1);
    }

    #[test]
    fn matches_hk_on_random_graphs_across_grids_and_options() {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(2024);
        for trial in 0..15 {
            let n1 = 8 + (rng.next_u64() % 40) as usize;
            let n2 = 8 + (rng.next_u64() % 40) as usize;
            let edges = (rng.next_u64() % (4 * n1.max(n2) as u64)) as usize;
            let mut t = Triples::new(n1, n2);
            for _ in 0..edges {
                t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
            }
            let want = hopcroft_karp(&t.to_csc(), None).cardinality();
            for (dim, semiring, prune_on) in [
                (1usize, SemiringKind::MinParent, true),
                (2, SemiringKind::MinParent, false),
                (3, SemiringKind::RandRoot(9), true),
                (2, SemiringKind::RandParent(5), true),
            ] {
                let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
                let opts = McmOptions { semiring, prune: prune_on, ..Default::default() };
                let r = solve(&mut ctx, &t, Start::Cold, &opts);
                r.matching.validate(&t.to_csc()).unwrap();
                assert_eq!(
                    r.matching.cardinality(),
                    want,
                    "trial {trial} dim {dim} semiring {semiring:?} prune {prune_on}"
                );
            }
        }
    }

    #[test]
    fn all_initializers_reach_the_same_maximum() {
        let t = fig2();
        let want = hopcroft_karp(&t.to_csc(), None).cardinality();
        for init in [
            Initializer::None,
            Initializer::Greedy,
            Initializer::KarpSipser,
            Initializer::DynamicMindegree,
        ] {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
            let opts = McmOptions { init, ..Default::default() };
            let r = solve(&mut ctx, &t, Start::Cold, &opts);
            assert_eq!(r.matching.cardinality(), want, "init {init:?}");
        }
    }

    #[test]
    fn permutation_is_transparent() {
        let t = fig2();
        let serial = |opts: &McmOptions| solve(&mut DistCtx::serial(), &t, Start::Cold, opts);
        let base = serial(&McmOptions { permute_seed: None, ..Default::default() });
        let perm = serial(&McmOptions { permute_seed: Some(77), ..Default::default() });
        assert_eq!(base.matching.cardinality(), perm.matching.cardinality());
        perm.matching.validate(&t.to_csc()).unwrap();
    }

    #[test]
    fn good_initializer_reduces_bfs_work() {
        let t = fig2();
        let run = |init| {
            let opts = McmOptions { init, permute_seed: None, ..Default::default() };
            solve(&mut DistCtx::serial(), &t, Start::Cold, &opts).stats
        };
        let cold = run(Initializer::None);
        let warm = run(Initializer::DynamicMindegree);
        assert!(warm.init_cardinality > 0);
        assert!(warm.augmentations <= cold.augmentations);
    }

    #[test]
    fn workspace_counters_report_steady_state_reuse() {
        // Cold start (no initializer) forces many BFS iterations through the
        // shared plan: everything after the first iteration must hit warm
        // buffers.
        let t = fig2();
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let opts = McmOptions { init: Initializer::None, ..Default::default() };
        let r = solve(&mut ctx, &t, Start::Cold, &opts);
        let s = &r.stats;
        assert!(s.spmv_workspace_calls > 0);
        assert!(s.spmv_workspace_hits > 0, "later iterations must reuse buffers");
    }

    #[test]
    fn warm_start_resumes_and_reaches_maximum() {
        use mcm_sparse::permute::SplitMix64;
        let mut rng = SplitMix64::new(0x3A57);
        for trial in 0..10 {
            let (n1, n2) =
                (10 + (rng.next_u64() % 20) as usize, 10 + (rng.next_u64() % 20) as usize);
            let mut t = Triples::new(n1, n2);
            for _ in 0..3 * n1.max(n2) {
                t.push(rng.below(n1 as u64) as Vidx, rng.below(n2 as u64) as Vidx);
            }
            let a = t.to_csc();
            let want = hopcroft_karp(&a, None).cardinality();
            // A deliberately stale warm start: a greedy matching on a
            // subsample of the columns (valid, far from maximal).
            let mut warm = Matching::empty(n1, n2);
            for j in (0..n2 as Vidx).step_by(3) {
                for &i in a.col(j as usize) {
                    if !warm.row_matched(i) && !warm.col_matched(j) {
                        warm.add(i, j);
                        break;
                    }
                }
            }
            // Both the unpermuted and the relabeled paths must repair it.
            for permute_seed in [None, Some(0xBEEF + trial)] {
                let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
                let opts = McmOptions { permute_seed, ..Default::default() };
                let r = solve(&mut ctx, &t, Start::Warm(warm.clone()), &opts);
                r.matching.validate(&a).unwrap();
                assert_eq!(
                    r.matching.cardinality(),
                    want,
                    "trial {trial} permute {permute_seed:?}"
                );
                assert_eq!(r.stats.init_cardinality, warm.cardinality());
                assert_maximum(&a, &r.matching);
            }
        }
    }

    #[test]
    fn warm_start_from_maximum_does_no_augmentation() {
        let t = fig2();
        let a = t.to_csc();
        let warm = hopcroft_karp(&a, None);
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let r = solve(&mut ctx, &t, Start::Warm(warm), &McmOptions::default());
        assert_eq!(r.stats.augmentations, 0, "an already-maximum warm start needs no paths");
        assert_eq!(r.stats.phases, 1, "one certifying phase only");
        assert_eq!(r.matching.cardinality(), 4);
    }

    #[test]
    #[should_panic(expected = "warm matching is")]
    fn warm_start_rejects_dimension_mismatch() {
        let t = fig2();
        let mut ctx = DistCtx::serial();
        let _ = solve(&mut ctx, &t, Start::Warm(Matching::empty(2, 2)), &McmOptions::default());
    }

    #[test]
    fn charges_all_kernel_categories() {
        let t = fig2();
        let mut ctx = DistCtx::new(MachineConfig::hybrid(2, 1));
        let _ = solve(&mut ctx, &t, Start::Cold, &McmOptions::default());
        assert!(ctx.timers.calls(Kernel::SpMV) > 0);
        assert!(ctx.timers.calls(Kernel::Invert) > 0);
        assert!(ctx.timers.calls(Kernel::Select) > 0);
        assert!(ctx.timers.calls(Kernel::Init) > 0);
    }
}
