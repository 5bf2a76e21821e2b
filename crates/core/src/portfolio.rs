//! The algorithm portfolio: the one solve entry point ([`solve`]) over
//! the two first-class cardinality engines — MS-BFS (the paper's
//! MCM-DIST) and parallel Pothen–Fan ([`crate::ppf`]) — plus the `auto`
//! selector that picks one from cheap measured graph statistics
//! (DESIGN.md §15). `mcm match` and the simtest sweep solve through
//! [`solve`], on one [`PortfolioBackend`] that `mcm match` builds from its
//! command-line spellings with [`PortfolioBackend::from_cli`].
//!
//! The selector reads three numbers off one O(nnz) pass over the
//! deduplicated graph: density, side ratio and degree skew. All three are
//! label-permutation-invariant (they depend only on the degree multisets
//! and the dimensions), so `auto` is deterministic and cannot be steered
//! by vertex relabeling — properties pinned by `tests/algo_portfolio.rs`.
//! The placement heuristic: heavy degree skew, a strongly rectangular
//! shape or a dense block goes to Pothen–Fan (lookahead DFS drains
//! hub-dominated, deficient and crowded instances in few phases), and
//! everything else takes MS-BFS, the paper's engine. Every run is
//! differential-tested against the serial oracles regardless of the pick.

use crate::mcm::{maximum_matching, McmOptions, McmResult, McmStats, Start};
use crate::ppf::{ppf, PpfOptions};
use mcm_bsp::{Communicator, DistCtx, EngineComm, MachineConfig, Timers};
use mcm_sparse::workspace::FoldGrid;
use mcm_sparse::{CscView, Triples};
use std::fmt;
use std::str::FromStr;

/// Which matching engine to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchingAlgo {
    /// The paper's distributed MS-BFS (MCM-DIST) on a `Communicator`.
    MsBfs,
    /// Parallel Pothen–Fan lookahead-DFS ([`crate::ppf`]).
    Ppf,
    /// Pick one of the above from measured graph stats.
    Auto,
}

impl MatchingAlgo {
    /// Every concrete engine (excludes `Auto`).
    pub const CONCRETE: [MatchingAlgo; 2] = [MatchingAlgo::MsBfs, MatchingAlgo::Ppf];

    /// The CLI / metrics-label name.
    pub fn name(self) -> &'static str {
        match self {
            MatchingAlgo::MsBfs => "msbfs",
            MatchingAlgo::Ppf => "ppf",
            MatchingAlgo::Auto => "auto",
        }
    }
}

impl fmt::Display for MatchingAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for MatchingAlgo {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "msbfs" => Ok(MatchingAlgo::MsBfs),
            "ppf" => Ok(MatchingAlgo::Ppf),
            "auto" => Ok(MatchingAlgo::Auto),
            other => Err(format!("unknown algorithm '{other}' (expected msbfs|ppf|auto)")),
        }
    }
}

/// Cheap measured statistics the `auto` selector decides by. Computed in
/// one pass over the deduplicated CSC; invariant under row/column
/// relabeling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelectorStats {
    /// Row count.
    pub nrows: usize,
    /// Column count.
    pub ncols: usize,
    /// Distinct edges.
    pub nnz: usize,
    /// `nnz / (nrows · ncols)`; 0 on degenerate shapes.
    pub density: f64,
    /// `max(nrows, ncols) / min(nrows, ncols)`; 1 on degenerate shapes.
    pub side_ratio: f64,
    /// `max degree / mean nonzero-side degree`, the worse of the two
    /// orientations; 1 on empty graphs.
    pub degree_skew: f64,
}

impl SelectorStats {
    /// Density above which Pothen–Fan is preferred.
    pub const DENSE: f64 = 0.05;
    /// Degree skew above which Pothen–Fan is preferred.
    pub const SKEWED: f64 = 8.0;
    /// Side ratio above which Pothen–Fan is preferred.
    pub const RECTANGULAR: f64 = 4.0;

    /// Measures the selector inputs of an edge list (deduplicates via CSC
    /// assembly).
    pub fn measure(t: &Triples) -> SelectorStats {
        Self::measure_csc(&t.to_csc())
    }

    /// Measures the selector inputs from an owned CSC or a borrowed view.
    pub fn measure_csc<'a>(a: impl Into<CscView<'a>>) -> SelectorStats {
        let a = a.into();
        let (n1, n2) = (a.nrows(), a.ncols());
        let mut nnz = 0usize;
        let mut max_col = 0usize;
        let mut row_deg = vec![0usize; n1];
        for c in 0..n2 {
            let col = a.col(c);
            nnz += col.len();
            max_col = max_col.max(col.len());
            for &r in col {
                row_deg[r as usize] += 1;
            }
        }
        let max_row = row_deg.iter().copied().max().unwrap_or(0);
        let skew = |max_deg: usize, n: usize| -> f64 {
            if nnz == 0 || n == 0 {
                1.0
            } else {
                max_deg as f64 / (nnz as f64 / n as f64)
            }
        };
        SelectorStats {
            nrows: n1,
            ncols: n2,
            nnz,
            density: if n1 == 0 || n2 == 0 { 0.0 } else { nnz as f64 / (n1 as f64 * n2 as f64) },
            side_ratio: if n1 == 0 || n2 == 0 {
                1.0
            } else {
                n1.max(n2) as f64 / n1.min(n2) as f64
            },
            degree_skew: skew(max_row, n1).max(skew(max_col, n2)),
        }
    }

    /// The selector decision; always a concrete engine, never `Auto`.
    /// Skewed, strongly rectangular and dense graphs go to PPF, whose
    /// greedy + lookahead DFS drains them in few phases; balanced sparse
    /// graphs go to MS-BFS.
    pub fn choose(&self) -> MatchingAlgo {
        if self.nnz == 0 {
            MatchingAlgo::MsBfs
        } else if self.degree_skew >= Self::SKEWED
            || self.side_ratio >= Self::RECTANGULAR
            || self.density >= Self::DENSE
        {
            MatchingAlgo::Ppf
        } else {
            MatchingAlgo::MsBfs
        }
    }
}

/// Which machine MS-BFS runs on when the portfolio picks it. PPF is a
/// shared-memory engine — it takes [`PortfolioOptions::threads`] directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortfolioBackend {
    /// Cost-model simulator on a `grid × grid` process grid.
    Sim {
        /// Process-grid side (ranks = grid²).
        grid: usize,
        /// Modeled threads per rank.
        threads: usize,
    },
    /// Thread-per-rank channel-mesh engine.
    Engine {
        /// Real ranks (perfect square).
        p: usize,
        /// Modeled threads per rank.
        threads: usize,
    },
}

impl Default for PortfolioBackend {
    fn default() -> Self {
        PortfolioBackend::Sim { grid: 2, threads: 1 }
    }
}

impl PortfolioBackend {
    /// The backend the command-line spellings name: `sim` is the
    /// simulator on a `grid × grid` grid, `engine` the mesh of `ranks`
    /// ranks, and `shared` the simulator on the `√ranks × √ranks` grid.
    /// Rejects zero `grid` or `threads`, a rank count that is not a
    /// positive perfect square (`engine`, `shared`) and a simulator grid
    /// past [`FoldGrid::MAX_RANKS`]; the error names the flag.
    pub fn from_cli(kind: &str, grid: usize, ranks: usize, threads: usize) -> Result<Self, String> {
        if threads == 0 {
            return Err("--threads must be at least 1".into());
        }
        if grid == 0 {
            return Err("--grid must be at least 1".into());
        }
        let dim = (ranks as f64).sqrt().round() as usize;
        if matches!(kind, "engine" | "shared") && (ranks == 0 || dim * dim != ranks) {
            return Err(format!("--ranks must be a positive perfect square, got {ranks}"));
        }
        let grid = match kind {
            "sim" => grid,
            "shared" => dim,
            "engine" => return Ok(PortfolioBackend::Engine { p: ranks, threads }),
            other => return Err(format!("bad --backend value: {other} (want sim|engine|shared)")),
        };
        if grid.saturating_mul(grid) > FoldGrid::MAX_RANKS {
            let most = FoldGrid::MAX_RANKS;
            return Err(format!(
                "the simulator takes at most {most} ranks, got a {grid}x{grid} grid"
            ));
        }
        Ok(PortfolioBackend::Sim { grid, threads })
    }
}

/// Options of [`solve`].
#[derive(Clone, Copy, Debug)]
pub struct PortfolioOptions {
    /// Engine to run; `Auto` measures [`SelectorStats`] and picks.
    pub algo: MatchingAlgo,
    /// Machine for the MS-BFS engine.
    pub backend: PortfolioBackend,
    /// Worker threads for PPF.
    pub threads: usize,
    /// MS-BFS tunables (ignored by PPF).
    pub mcm: McmOptions,
    /// Deterministic order-perturbation seed for PPF (the simtest
    /// schedule analogue); `0` keeps natural order.
    pub seed: u64,
}

impl Default for PortfolioOptions {
    fn default() -> Self {
        Self {
            algo: MatchingAlgo::Auto,
            backend: PortfolioBackend::default(),
            threads: 1,
            mcm: McmOptions::default(),
            seed: 0,
        }
    }
}

/// Resolves `Auto` to a concrete engine for this graph (measures only
/// when needed); returns the engine together with the measured stats.
pub fn resolve_algo(a: &CscView<'_>, algo: MatchingAlgo) -> (MatchingAlgo, Option<SelectorStats>) {
    match algo {
        MatchingAlgo::Auto => {
            let s = SelectorStats::measure_csc(a);
            (s.choose(), Some(s))
        }
        concrete => (concrete, None),
    }
}

/// The one solve entry point: resolves `Auto`, runs the engine from
/// `start` (cold, or warm from a valid matching as in the paper's §V),
/// and stamps `McmStats::algo`/`algo_auto` plus the
/// `mcm_algo_runs_total{algo,selector}` metric. MS-BFS runs on
/// `opts.backend` and hands back the backend's modeled per-kernel
/// [`Timers`]; PPF hands back `None`.
pub fn solve(
    a: &CscView<'_>,
    start: Start,
    opts: &PortfolioOptions,
) -> (McmResult, Option<Timers>) {
    let was_auto = opts.algo == MatchingAlgo::Auto;
    let (algo, _) = resolve_algo(a, opts.algo);
    mcm_obs::counter_add(
        "mcm_algo_runs_total",
        &[("algo", algo.name()), ("selector", if was_auto { "auto" } else { "explicit" })],
        1,
    );
    let (mut result, timers) = match algo {
        MatchingAlgo::MsBfs => {
            fn run<C: Communicator>(
                mut comm: C,
                a: &CscView<'_>,
                start: Start,
                opts: &McmOptions,
            ) -> (McmResult, Option<Timers>) {
                let r = maximum_matching(&mut comm, a, start, opts);
                (r, Some(std::mem::take(&mut comm.ctx_mut().timers)))
            }
            match opts.backend {
                PortfolioBackend::Sim { grid, threads } => {
                    let ctx = DistCtx::new(MachineConfig::hybrid(grid, threads));
                    run(ctx, a, start, &opts.mcm)
                }
                PortfolioBackend::Engine { p, threads } => {
                    run(EngineComm::new(p, threads), a, start, &opts.mcm)
                }
            }
        }
        MatchingAlgo::Ppf => {
            let warm = match start {
                Start::Cold => None,
                Start::Warm(m) => Some(m),
            };
            let ppf_opts = PpfOptions { threads: opts.threads, fairness: true, seed: opts.seed };
            let r = ppf(a, warm, &ppf_opts);
            let stats = McmStats {
                phases: r.stats.phases,
                augmentations: r.stats.paths,
                ..Default::default()
            };
            (McmResult { matching: r.matching, stats }, None)
        }
        MatchingAlgo::Auto => unreachable!("resolve_algo returns concrete engines"),
    };
    result.stats.algo = algo.name();
    result.stats.algo_auto = was_auto;
    (result, timers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::hopcroft_karp;
    use mcm_sparse::permute::SplitMix64;
    use mcm_sparse::Vidx;

    #[test]
    fn parse_and_display_round_trip() {
        for algo in [MatchingAlgo::MsBfs, MatchingAlgo::Ppf, MatchingAlgo::Auto] {
            assert_eq!(algo.name().parse::<MatchingAlgo>().unwrap(), algo);
            assert_eq!(format!("{algo}"), algo.name());
        }
        assert!("frobnicate".parse::<MatchingAlgo>().is_err());
        assert!("MSBFS".parse::<MatchingAlgo>().is_err(), "names are case-sensitive");
        assert!("auction".parse::<MatchingAlgo>().is_err(), "the cardinality auction is gone");
    }

    #[test]
    fn backend_from_cli_spellings() {
        let sim = |grid, threads| PortfolioBackend::Sim { grid, threads };
        assert_eq!(PortfolioBackend::from_cli("sim", 3, 7, 2), Ok(sim(3, 2)));
        assert_eq!(PortfolioBackend::from_cli("shared", 3, 16, 2), Ok(sim(4, 2)));
        assert_eq!(
            PortfolioBackend::from_cli("engine", 3, 9, 2),
            Ok(PortfolioBackend::Engine { p: 9, threads: 2 })
        );
        for (kind, grid, ranks, threads, msg) in [
            ("sim", 1, 4, 0, "--threads must be at least 1"),
            ("sim", 0, 4, 1, "--grid"),
            ("engine", 1, 3, 1, "--ranks must be a positive perfect square"),
            ("shared", 1, 0, 1, "--ranks must be a positive perfect square"),
            ("sim", 257, 4, 1, "at most 65536 ranks"),
            ("shared", 1, 257 * 257, 1, "at most 65536 ranks"),
            ("frob", 1, 4, 1, "bad --backend value: frob"),
        ] {
            let err = PortfolioBackend::from_cli(kind, grid, ranks, threads).unwrap_err();
            assert!(err.contains(msg), "{kind} {grid} {ranks} {threads}: {err}");
        }
    }

    #[test]
    fn selector_routes_the_intended_shapes() {
        // Dense with genuine degree variance → ppf. A 10-cycle of
        // degree-2 columns plus one degree-5 hub column: density 0.23,
        // skew ≈ 2.2, below SKEWED.
        let mut dense = Triples::new(10, 10);
        for j in 0..10u32 {
            dense.push(j, j);
            dense.push((j + 1) % 10, j);
        }
        for r in 2..5u32 {
            dense.push(r, 0);
        }
        let s = SelectorStats::measure(&dense);
        assert!(s.density >= SelectorStats::DENSE, "density {}", s.density);
        assert!(s.degree_skew < SelectorStats::SKEWED, "skew {}", s.degree_skew);
        assert!(s.side_ratio < SelectorStats::RECTANGULAR);
        assert_eq!(s.choose(), MatchingAlgo::Ppf);

        // Dense and degree-uniform (complete block, skew exactly 1) → ppf.
        let mut block = Triples::new(8, 8);
        for r in 0..8u32 {
            for c in 0..8u32 {
                block.push(r, c);
            }
        }
        let s = SelectorStats::measure(&block);
        assert_eq!(s.degree_skew, 1.0);
        assert_eq!(s.choose(), MatchingAlgo::Ppf);

        // Hub-dominated sparse graph → ppf.
        let mut hub = Triples::new(64, 64);
        for c in 0..64u32 {
            hub.push(0, c);
        }
        for i in 1..64u32 {
            hub.push(i, i);
        }
        let s = SelectorStats::measure(&hub);
        assert!(s.degree_skew >= SelectorStats::SKEWED, "skew {}", s.degree_skew);
        assert_eq!(s.choose(), MatchingAlgo::Ppf);

        // Strongly rectangular sparse graph → ppf.
        let mut rect = Triples::new(8, 64);
        for c in 0..64u32 {
            rect.push(c % 8, c);
        }
        assert_eq!(SelectorStats::measure(&rect).choose(), MatchingAlgo::Ppf);

        // Balanced sparse graph → msbfs; empty graph → msbfs.
        let mut plain = Triples::new(64, 64);
        for i in 0..64u32 {
            plain.push(i, i);
            plain.push((i + 1) % 64, i);
        }
        assert_eq!(SelectorStats::measure(&plain).choose(), MatchingAlgo::MsBfs);
        assert_eq!(SelectorStats::measure(&Triples::new(64, 64)).choose(), MatchingAlgo::MsBfs);
    }

    #[test]
    fn every_engine_agrees_with_the_oracle() {
        let mut rngv = SplitMix64::new(0x60_7F);
        for _ in 0..12 {
            let n1 = 4 + (rngv.next_u64() % 24) as usize;
            let n2 = 4 + (rngv.next_u64() % 24) as usize;
            let mut t = Triples::new(n1, n2);
            for _ in 0..2 * n1.max(n2) {
                t.push(rngv.below(n1 as u64) as Vidx, rngv.below(n2 as u64) as Vidx);
            }
            let a = t.to_csc();
            let want = hopcroft_karp(&a, None).cardinality();
            for algo in MatchingAlgo::CONCRETE {
                let opts = PortfolioOptions { algo, ..PortfolioOptions::default() };
                let r = solve(&a.view(), Start::Cold, &opts).0;
                assert_eq!(r.matching.cardinality(), want, "algo {algo}");
                assert_eq!(r.stats.algo, algo.name());
                assert!(!r.stats.algo_auto);
            }
            let auto = solve(&a.view(), Start::Cold, &PortfolioOptions::default()).0;
            assert_eq!(auto.matching.cardinality(), want);
            assert!(auto.stats.algo_auto);
            assert_ne!(auto.stats.algo, "auto", "auto must resolve to a concrete engine");
        }
    }
}
