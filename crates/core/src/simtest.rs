//! Differential oracle sweeps under schedule perturbation (the simtest
//! driver; DESIGN.md §10).
//!
//! One entry point, [`differential_sweep`], runs MCM-DIST end-to-end over
//! a matrix of {grid dims × semirings × initializers × augmentation modes
//! × schedule seeds} on seeded adversarial schedules
//! ([`mcm_bsp::sched`]) and checks, for every configuration:
//!
//! 1. **Cardinality oracle** — the distributed result equals the serial
//!    Hopcroft–Karp *and* Pothen–Fan cardinalities (which are first
//!    cross-checked against each other);
//! 2. **Berge certificate** — [`crate::verify::verify`] accepts the
//!    matching (structural validity + no augmenting path);
//! 3. **Accounting** — on the channel engine, the elements each rank
//!    really sent/received under the perturbed schedule exactly match the
//!    per-rank volumes the cost model charges for the same INVERT routing.
//!
//! Every failure carries the schedule seed that replays it
//! ([`SweepFailure`] formats the full repro recipe; EXPERIMENTS.md
//! "Reproducing a failing schedule"). [`detect_injected_fault`] arms the
//! deliberate `fetch_and_put` bug of [`FaultPlan::broken_fetch_and_put`]
//! and reports the first seed on which the same checks catch it — the
//! harness's own acceptance test; [`detect_injected_auction_fault`] does
//! the same for the parallel auction's lost-bidder bug.

use crate::augment::AugmentMode;
use crate::maximal::Initializer;
use crate::mcm::{maximum_matching, McmOptions, Start};
use crate::portfolio::{solve, MatchingAlgo, PortfolioOptions};
use crate::primitives::invert;
use crate::semirings::SemiringKind;
use crate::serial::{hopcroft_karp, pothen_fan};
use crate::verify;
use crate::weighted::{auction_mwm, auction_mwm_par, AuctionOptions};
use mcm_bsp::collectives::{balanced_owner, per_rank_counts, per_rank_index_counts};
use mcm_bsp::engine::run_ranks_sched;
use mcm_bsp::sched::{FaultPlan, SchedConfig, Schedule};
use mcm_bsp::{DistCtx, Kernel, MachineConfig};
use mcm_sparse::permute::SplitMix64;
use mcm_sparse::{Csc, SpVec, Triples, Vidx, WCsc};
use std::fmt;

/// The configuration matrix of one sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Process-grid dimensions (`dim × dim` grids, so `p = dim²`).
    pub dims: Vec<usize>,
    /// Frontier-expansion semirings.
    pub semirings: Vec<SemiringKind>,
    /// Maximal-matching initializers.
    pub inits: Vec<Initializer>,
    /// Augmentation kernels.
    pub augments: Vec<AugmentMode>,
    /// Schedule seeds; each seed is one deterministic adversarial
    /// perturbation of every configuration.
    pub sched_seeds: Vec<u64>,
    /// Also run the channel-engine accounting differential per
    /// (case, dim, seed).
    pub engine_check: bool,
    /// Portfolio engines swept alongside MS-BFS: each runs per
    /// (case, dim, seed) with `dim²` worker threads and the schedule seed
    /// as its order-perturbation seed, against the same oracles plus a
    /// seeded `is_maximum_from` Berge certificate.
    pub algos: Vec<MatchingAlgo>,
}

impl SweepConfig {
    /// The per-PR CI matrix: p ∈ {1, 4, 9}, three seeds (ROADMAP's small
    /// scale). The nightly/manual job widens `sched_seeds`.
    pub fn ci() -> Self {
        Self {
            dims: vec![1, 2, 3],
            semirings: vec![SemiringKind::MinParent, SemiringKind::RandRoot(9)],
            inits: vec![Initializer::None, Initializer::KarpSipser],
            augments: vec![AugmentMode::LevelParallel, AugmentMode::PathParallel],
            sched_seeds: vec![0xA11CE, 0xB0B5EED, 0xC0FFEE],
            engine_check: true,
            algos: vec![MatchingAlgo::Ppf],
        }
    }

    /// The CI matrix with `extra` additional seeds derived from `base`
    /// (the manual larger sweep).
    pub fn ci_with_extra_seeds(base: u64, extra: usize) -> Self {
        let mut cfg = Self::ci();
        let mut rng = SplitMix64::new(base);
        cfg.sched_seeds.extend((0..extra).map(|_| rng.next_u64()));
        cfg
    }
}

/// What a completed sweep covered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Input cases swept.
    pub cases: usize,
    /// End-to-end MCM-DIST runs (every one individually checked).
    pub runs: usize,
    /// One-sided calls serviced under perturbed interleavings, total.
    pub interleave_steps: u64,
    /// Channel-engine accounting differentials executed.
    pub engine_checks: usize,
    /// Portfolio-engine (ppf) runs, each individually checked.
    pub portfolio_runs: usize,
}

/// A checked configuration that failed, with everything needed to replay
/// the exact schedule: `Schedule::new(sched_seed)` (or the same
/// `SchedConfig`) plus the recorded options reproduces it deterministically.
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// Input case name (from the suite).
    pub case: String,
    /// Grid dimension (`p = dim²`).
    pub dim: usize,
    /// Semiring of the failing run.
    pub semiring: SemiringKind,
    /// Initializer of the failing run.
    pub init: Initializer,
    /// Augmentation mode of the failing run.
    pub augment: AugmentMode,
    /// The seed that replays the failing schedule.
    pub sched_seed: u64,
    /// Engine of the failing run (`"msbfs"`, `"ppf"`, `"wauction"`).
    pub algo: &'static str,
    /// Which check tripped, with its diagnostic.
    pub detail: String,
}

impl fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "simtest failure [case {}, algo {}, grid {}x{}, {:?}, init {:?}, augment {:?}, \
             sched seed {:#x}]: {}",
            self.case,
            self.algo,
            self.dim,
            self.dim,
            self.semiring,
            self.init,
            self.augment,
            self.sched_seed,
            self.detail
        )?;
        write!(
            f,
            "  reproduce: DistCtx::new(MachineConfig::hybrid({}, 1))\
             .with_schedule(Schedule::new({:#x})) with the options above \
             (see EXPERIMENTS.md, 'Reproducing a failing schedule')",
            self.dim, self.sched_seed
        )
    }
}

impl std::error::Error for SweepFailure {}

/// Runs the full differential sweep; the error is the first failing
/// configuration, carrying its replay seed.
pub fn differential_sweep(
    cases: &[(String, Triples)],
    cfg: &SweepConfig,
) -> Result<SweepReport, Box<SweepFailure>> {
    let mut report = SweepReport { cases: cases.len(), ..Default::default() };
    for (name, graph) in cases {
        let a = graph.to_csc();
        let want = oracle_cardinality(&a).map_err(|detail| {
            Box::new(SweepFailure {
                case: name.clone(),
                dim: 1,
                semiring: SemiringKind::MinParent,
                init: Initializer::None,
                augment: AugmentMode::Auto,
                sched_seed: 0,
                algo: "oracle",
                detail,
            })
        })?;
        for &dim in &cfg.dims {
            for &semiring in &cfg.semirings {
                for &init in &cfg.inits {
                    for &augment in &cfg.augments {
                        for &seed in &cfg.sched_seeds {
                            let sched = Schedule::new(seed);
                            report.runs += 1;
                            report.interleave_steps += run_one(
                                &a, want, dim, semiring, init, augment, sched,
                            )
                            .map_err(|detail| {
                                Box::new(SweepFailure {
                                    case: name.clone(),
                                    dim,
                                    semiring,
                                    init,
                                    augment,
                                    sched_seed: seed,
                                    algo: "msbfs",
                                    detail,
                                })
                            })?;
                        }
                    }
                }
            }
            if cfg.engine_check {
                for &seed in &cfg.sched_seeds {
                    report.engine_checks += 1;
                    engine_invert_differential(graph, dim * dim, seed).map_err(|detail| {
                        Box::new(SweepFailure {
                            case: name.clone(),
                            dim,
                            semiring: SemiringKind::MinParent,
                            init: Initializer::None,
                            augment: AugmentMode::Auto,
                            sched_seed: seed,
                            algo: "msbfs",
                            detail,
                        })
                    })?;
                }
            }
            for &algo in &cfg.algos {
                for &seed in &cfg.sched_seeds {
                    report.portfolio_runs += 1;
                    run_portfolio_one(&a, want, algo, dim * dim, seed).map_err(|detail| {
                        Box::new(SweepFailure {
                            case: name.clone(),
                            dim,
                            semiring: SemiringKind::MinParent,
                            init: Initializer::None,
                            augment: AugmentMode::Auto,
                            sched_seed: seed,
                            algo: algo.name(),
                            detail,
                        })
                    })?;
                }
            }
        }
    }
    Ok(report)
}

/// One checked portfolio-engine run: `algo` with `threads` workers under
/// order-perturbation seed `seed`, against the serial-oracle cardinality,
/// the full Berge certificate, and the seeded dirty-region certificate
/// (`is_maximum_from` from every unmatched column).
fn run_portfolio_one(
    a: &Csc,
    want: usize,
    algo: MatchingAlgo,
    threads: usize,
    seed: u64,
) -> Result<(), String> {
    let opts = PortfolioOptions { algo, threads, seed, ..PortfolioOptions::default() };
    let (r, _) = solve(&a.view(), Start::Cold, &opts);
    if r.stats.algo != algo.name() {
        return Err(format!("stats.algo reports '{}', expected '{}'", r.stats.algo, algo.name()));
    }
    if r.matching.cardinality() != want {
        return Err(format!(
            "cardinality {} diverged from serial oracles ({want})",
            r.matching.cardinality()
        ));
    }
    verify::verify(a, &r.matching).map_err(|e| e.to_string())?;
    let seeds = r.matching.unmatched_cols();
    if !verify::is_maximum_from(a, &r.matching, &seeds) {
        return Err("seeded is_maximum_from certificate rejected the matching".to_string());
    }
    Ok(())
}

/// Serial oracle cardinality, with Hopcroft–Karp and Pothen–Fan
/// cross-checked against each other first.
fn oracle_cardinality(a: &Csc) -> Result<usize, String> {
    let hk = hopcroft_karp(a, None);
    hk.validate(a).map_err(|e| format!("HK oracle invalid: {e}"))?;
    let pf = pothen_fan(a, None);
    pf.validate(a).map_err(|e| format!("PF oracle invalid: {e}"))?;
    if hk.cardinality() != pf.cardinality() {
        return Err(format!(
            "serial oracles disagree: HK {} vs PF {}",
            hk.cardinality(),
            pf.cardinality()
        ));
    }
    Ok(hk.cardinality())
}

/// One checked end-to-end run under one schedule; `Ok` carries the
/// interleaved service steps it contributed.
#[allow(clippy::too_many_arguments)]
fn run_one(
    a: &Csc,
    want: usize,
    dim: usize,
    semiring: SemiringKind,
    init: Initializer,
    augment: AugmentMode,
    sched: Schedule,
) -> Result<u64, String> {
    let seed = sched.seed();
    let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1)).with_schedule(sched);
    let opts = McmOptions {
        semiring,
        augment,
        init,
        permute_seed: Some(seed),
        seed,
        ..Default::default()
    };
    let r = maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts);
    if r.matching.cardinality() != want {
        return Err(format!(
            "cardinality {} diverged from serial oracles ({want})",
            r.matching.cardinality()
        ));
    }
    verify::verify(a, &r.matching).map_err(|e| e.to_string())?;
    debug_assert_eq!(r.stats.sched_seed, Some(seed));
    Ok(r.stats.sched_interleave_steps)
}

/// The accounting differential: INVERT routing executed on `p` real ranks
/// under a perturbed schedule must (a) reproduce the simulator's result
/// bit-for-bit and (b) send/receive exactly the per-rank element counts
/// the cost model charges — stalls, retries, and reordering included.
fn engine_invert_differential(graph: &Triples, p: usize, seed: u64) -> Result<(), String> {
    // An injective routed vector derived from the case: entry i ↦ a
    // pseudo-random distinct destination, the shape INVERT sees from the
    // matching algorithms.
    let n = graph.nrows().max(graph.ncols()).max(p);
    let mut dests: Vec<Vidx> = (0..n as Vidx).collect();
    let mut rng = SplitMix64::new(seed ^ 0x1274E57);
    for k in (1..n).rev() {
        let j = rng.below(k as u64 + 1) as usize;
        dests.swap(k, j);
    }
    let x: SpVec<Vidx> =
        SpVec::from_sorted_pairs(n, (0..n).step_by(2).map(|i| (i as Vidx, dests[i])).collect());

    // Real ranks, perturbed schedule.
    let sched = Schedule::new(seed);
    let per_rank_pairs: Vec<Vec<(Vidx, Vidx)>> = {
        let mut v: Vec<Vec<(Vidx, Vidx)>> = (0..p).map(|_| Vec::new()).collect();
        for (i, &val) in x.iter() {
            v[balanced_owner(n, p, i as usize)].push((i, val));
        }
        v
    };
    let results = run_ranks_sched::<(Vidx, Vidx), _, _>(p, &sched, |mut comm| {
        let rank = comm.rank();
        let group: Vec<usize> = (0..p).collect();
        let mut sends: Vec<Vec<(Vidx, Vidx)>> = (0..p).map(|_| Vec::new()).collect();
        for &(i, val) in &per_rank_pairs[rank] {
            sends[balanced_owner(n, p, val as usize)].push((val, i));
        }
        let received = comm.alltoallv(&group, sends);
        let recv_count: u64 = received.iter().map(|m| m.len() as u64).sum();
        let mut mine: Vec<(Vidx, Vidx)> = received.into_iter().flatten().collect();
        mine.sort_unstable();
        mine.dedup_by_key(|&mut (k, _)| k);
        (mine, comm.sent_elems(), recv_count)
    });

    let mut entries = Vec::new();
    let mut sent = Vec::new();
    let mut recvd = Vec::new();
    for (mine, s, r) in results {
        entries.extend(mine);
        sent.push(s);
        recvd.push(r);
    }
    entries.sort_unstable_by_key(|&(i, _)| i);
    let real = SpVec::from_sorted_pairs(n, entries);

    // Simulator reference and charged per-rank volumes.
    let mut ctx = DistCtx::new(MachineConfig::hybrid(1, 1));
    let simulated = invert(&mut ctx, Kernel::Invert, &x, n);
    if real != simulated {
        return Err(format!("perturbed engine INVERT diverged from the simulator (p = {p})"));
    }
    let model_send = per_rank_counts(&x, p);
    let model_recv = per_rank_index_counts(n, p, x.iter().map(|(_, &v)| v));
    if sent != model_send {
        return Err(format!(
            "sent-element accounting diverged from charged volumes: engine {sent:?} vs model \
             {model_send:?} (p = {p})"
        ));
    }
    if recvd != model_recv {
        return Err(format!(
            "received-element accounting diverged from charged volumes: engine {recvd:?} vs \
             model {model_recv:?} (p = {p})"
        ));
    }
    Ok(())
}

/// Arms [`FaultPlan::broken_fetch_and_put`] (the deliberately injected
/// interleaving bug: `fetch_and_put` loses its fetch) and runs the same
/// checks the sweep applies, path-parallel, on `graph`. Returns the first
/// seed on which the harness catches the bug together with the failure it
/// reported — `None` means the bug escaped the whole seed budget (which
/// the harness's own tests treat as a harness regression).
pub fn detect_injected_fault(
    graph: &Triples,
    sched_seeds: &[u64],
) -> Option<(u64, Box<SweepFailure>)> {
    let a = graph.to_csc();
    let want = oracle_cardinality(&a).expect("oracle failed on fault-injection input");
    let cfg = SchedConfig { fault: FaultPlan::broken_fetch_and_put(), ..SchedConfig::default() };
    for &seed in sched_seeds {
        let sched = Schedule::with_config(seed, cfg);
        let (semiring, init, augment) =
            (SemiringKind::MinParent, Initializer::Greedy, AugmentMode::PathParallel);
        if let Err(detail) = run_one(&a, want, 1, semiring, init, augment, sched) {
            return Some((
                seed,
                Box::new(SweepFailure {
                    case: "fault-injection".into(),
                    dim: 1,
                    semiring,
                    init,
                    augment,
                    sched_seed: seed,
                    algo: "msbfs",
                    detail,
                }),
            ));
        }
    }
    None
}

/// The auction analogue of [`detect_injected_fault`]: arms the deliberate
/// "lost bidder" bid-update bug ([`AuctionOptions::fault_lost_bidder`] —
/// evicted owners are dropped instead of re-enqueued) in the parallel
/// auction [`auction_mwm_par`], run on `graph` with unit weights, and
/// checks every run against the serial oracle's weight ([`auction_mwm`])
/// and the ε-CS certificate. Returns the first seed on which the harness
/// catches the bug; `None` means it escaped the whole seed budget (a
/// harness regression, pinned by tests on eviction-heavy instances).
pub fn detect_injected_auction_fault(
    graph: &Triples,
    sched_seeds: &[u64],
) -> Option<(u64, Box<SweepFailure>)> {
    let a = unit_weights(graph);
    let want = auction_oracle_weight(&a);
    for &seed in sched_seeds {
        let opts = AuctionOptions { seed, fault_lost_bidder: true, ..AuctionOptions::default() };
        if let Err(detail) = run_auction_one(&a, want, &opts) {
            return Some((
                seed,
                Box::new(SweepFailure {
                    case: "auction-fault-injection".into(),
                    dim: 1,
                    semiring: SemiringKind::MinParent,
                    init: Initializer::None,
                    augment: AugmentMode::Auto,
                    sched_seed: seed,
                    algo: "wauction",
                    detail,
                }),
            ));
        }
    }
    None
}

/// `graph` with every edge weighted 1: its maximum weight is its maximum
/// cardinality.
fn unit_weights(graph: &Triples) -> WCsc {
    let entries = graph.entries().iter().map(|&(r, c)| (r, c, 1.0)).collect();
    WCsc::from_weighted_triples(graph.nrows(), graph.ncols(), entries)
}

/// The serial auction's weight at an ε inside the integer exactness bound.
fn auction_oracle_weight(a: &WCsc) -> f64 {
    auction_mwm(a, 0.5 / (a.nrows().max(a.ncols()) as f64 + 1.0)).weight
}

/// One checked parallel-auction run on a unit-weight graph: its weight
/// against the serial oracle's, the Berge certificate (unit weights make
/// a maximum weight matching a maximum cardinality one), then the ε-CS
/// certificate on its own prices.
fn run_auction_one(a: &WCsc, want: f64, opts: &AuctionOptions) -> Result<(), String> {
    let r = auction_mwm_par(a, opts);
    if (r.weight - want).abs() > 1e-9 {
        return Err(format!(
            "weight {} diverged from the serial auction oracle ({want})",
            r.weight
        ));
    }
    verify::verify(a.pattern(), &r.matching).map_err(|e| e.to_string())?;
    verify::verify_eps_cs(a, &r.matching, &r.prices, r.eps).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_graph(k: usize) -> Triples {
        // c_i — r_i and r_i — c_{i+1}: one maximal-length augmenting chain
        // (mirrors mcm-gen's `hard::chain` without a core→gen dependency).
        let mut t = Triples::new(k, k);
        for i in 0..k as Vidx {
            t.push(i, i);
            if (i as usize) + 1 < k {
                t.push(i, i + 1);
            }
        }
        t
    }

    #[test]
    fn tiny_sweep_passes() {
        let cases = vec![("chain_5".to_string(), chain_graph(5))];
        let cfg = SweepConfig {
            dims: vec![1, 2],
            semirings: vec![SemiringKind::MinParent],
            inits: vec![Initializer::None],
            augments: vec![AugmentMode::PathParallel],
            sched_seeds: vec![1, 2],
            engine_check: true,
            algos: vec![],
        };
        let report = differential_sweep(&cases, &cfg).unwrap_or_else(|e| panic!("{e}"));
        // 2 dims × 1 semiring × 1 init × 1 augment × 2 seeds.
        assert_eq!(report.runs, 4);
        assert_eq!(report.engine_checks, 2 * 2);
        assert_eq!(report.portfolio_runs, 0);
        assert!(report.interleave_steps > 0, "perturbed RMA epochs never ran");
    }

    #[test]
    fn tiny_sweep_covers_portfolio_engines() {
        let cases = vec![("chain_5".to_string(), chain_graph(5))];
        let cfg = SweepConfig {
            dims: vec![1, 2],
            semirings: vec![SemiringKind::MinParent],
            inits: vec![Initializer::None],
            augments: vec![AugmentMode::PathParallel],
            sched_seeds: vec![1, 2],
            engine_check: false,
            algos: vec![MatchingAlgo::Ppf],
        };
        let report = differential_sweep(&cases, &cfg).unwrap_or_else(|e| panic!("{e}"));
        // 2 dims × 1 algo × 2 seeds.
        assert_eq!(report.portfolio_runs, 4);
    }

    #[test]
    fn injected_auction_fault_is_caught_and_replays() {
        // chain(6) forces an eviction cascade (see the weighted.rs
        // tests), so the lost-bidder bug strands the tail row.
        let g = chain_graph(6);
        let budget: Vec<u64> = (0..3).collect();
        let (seed, failure) = detect_injected_auction_fault(&g, &budget)
            .expect("lost-bidder auction bug escaped the harness");
        let msg = failure.to_string();
        assert_eq!(failure.algo, "wauction");
        assert!(
            msg.contains(&format!("{seed:#x}")),
            "failure report must print the replay seed: {msg}"
        );
        let (seed2, failure2) =
            detect_injected_auction_fault(&g, &[seed]).expect("replay lost the bug");
        assert_eq!(seed2, seed);
        assert_eq!(failure2.detail, failure.detail, "replay diverged from original failure");
        // Clean auction runs pass the identical checks on the same seeds,
        // and the oracle weight is the graph's maximum cardinality.
        let a = unit_weights(&g);
        let want = auction_oracle_weight(&a);
        assert_eq!(want, oracle_cardinality(&g.to_csc()).unwrap() as f64);
        for seed in budget {
            let opts = AuctionOptions { seed, ..AuctionOptions::default() };
            run_auction_one(&a, want, &opts)
                .unwrap_or_else(|e| panic!("clean auction run failed under seed {seed}: {e}"));
        }
    }

    #[test]
    fn injected_fault_is_caught_and_replays() {
        let g = chain_graph(6);
        let budget: Vec<u64> = (0..3).collect();
        let (seed, failure) =
            detect_injected_fault(&g, &budget).expect("broken fetch_and_put escaped the harness");
        let msg = failure.to_string();
        assert!(
            msg.contains(&format!("{seed:#x}")),
            "failure report must print the replay seed: {msg}"
        );
        // Replaying the same seed must reproduce the identical failure.
        let (seed2, failure2) = detect_injected_fault(&g, &[seed]).expect("replay lost the bug");
        assert_eq!(seed2, seed);
        assert_eq!(failure2.detail, failure.detail, "replay diverged from original failure");
    }

    #[test]
    fn clean_schedules_pass_where_fault_is_caught() {
        // Sanity: the detection above is due to the armed fault, not the
        // perturbation itself.
        let g = chain_graph(6);
        let a = g.to_csc();
        let want = oracle_cardinality(&a).unwrap();
        for seed in 0..3 {
            run_one(
                &a,
                want,
                1,
                SemiringKind::MinParent,
                Initializer::Greedy,
                AugmentMode::PathParallel,
                Schedule::new(seed),
            )
            .unwrap_or_else(|e| panic!("clean schedule {seed} failed: {e}"));
        }
    }
}
