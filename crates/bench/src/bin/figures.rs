//! `figures [NAME...]`: regenerates Table II and Figs. 3–9 of the paper's
//! evaluation (all eight when no name is given; DESIGN.md §4), checks each
//! against its golden in `crates/bench/goldens/`, and exits 1 naming the
//! figure, row and column of any difference. The figures are deterministic
//! modeled numbers; to accept an intended change, copy the new
//! `target/figures/<name>.{csv,txt}` over the goldens.

use mcm_bench::{mcm_time, run_mcm_scaled, share_mcm, standin_scale, Report};
use mcm_bsp::{DistCtx, Kernel, MachineConfig};
use mcm_core::gather::centralized_cost;
use mcm_core::maximal::Initializer;
use mcm_core::serial::{greedy_serial, hopcroft_karp};
use mcm_core::McmOptions;
use mcm_gen::realistic::by_name;
use mcm_gen::rmat::{rmat, RmatParams};
use mcm_gen::{representative4, table2};
use mcm_sparse::stats::MatrixStats;
use std::path::PathBuf;
use std::process::ExitCode;

/// One regenerated output: its name and the function that computes it.
type Figure = (&'static str, fn() -> Report);

const FIGURES: [Figure; 8] = [
    ("table2", table2_inventory),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
];

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = names.iter().find(|n| FIGURES.iter().all(|(f, _)| f != n)) {
        let known: Vec<&str> = FIGURES.iter().map(|(f, _)| *f).collect();
        eprintln!("figures: unknown figure `{bad}`; usage: figures [{}]...", known.join("|"));
        return ExitCode::from(2);
    }
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let (out_dir, goldens) = (manifest.join("../../target/figures"), manifest.join("goldens"));
    let chosen = FIGURES.iter().filter(|(f, _)| names.is_empty() || names.iter().any(|n| n == f));
    // The figures are independent single-threaded sweeps: compute them
    // concurrently, then print and check them in order.
    let reports: Vec<(&str, Report)> = std::thread::scope(|s| {
        let runs: Vec<_> = chosen.map(|&(name, run)| (name, s.spawn(run))).collect();
        runs.into_iter().map(|(name, r)| (name, r.join().expect("a figure panicked"))).collect()
    });
    let mut failed = Vec::new();
    for (name, rep) in &reports {
        if let Err(diff) = rep.finish(&out_dir, &goldens) {
            eprintln!("figures: {diff}");
            failed.push(*name);
        }
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("figures: {} differ from {}", failed.join(", "), goldens.display());
    ExitCode::FAILURE
}

/// Table II: the matrix inventory.
///
/// For each of the paper's 13 matrices, the UF-collection sizes the paper
/// quotes next to the stand-in generated here (DESIGN.md §2), plus the
/// structural deficiency (unmatched columns under a maximal matching): the
/// paper selected "matrices that have at least several thousands of
/// unmatched vertices after computing a maximal matching", so the stand-ins
/// must leave the MCM phase real work.
fn table2_inventory() -> Report {
    let mut rep = Report::new(
        "table2",
        "Table II — matrix inventory (paper scale vs stand-in scale)",
        &[
            "matrix",
            "class",
            "paper n",
            "paper nnz",
            "ours n1",
            "ours n2",
            "ours nnz",
            "avg deg",
            "max |M|",
            "unmatched after maximal",
        ],
    );
    for s in table2() {
        let t = s.generate();
        let a = t.to_csc();
        let stats = MatrixStats::from_csc(&a);
        let maximal = greedy_serial(&a);
        let maximum = hopcroft_karp(&a, Some(maximal.clone()));
        rep.row(vec![
            s.name.to_string(),
            s.class.label().to_string(),
            s.paper_nrows.to_string(),
            s.paper_nnz.to_string(),
            stats.nrows.to_string(),
            stats.ncols.to_string(),
            stats.nnz.to_string(),
            format!("{:.1}", stats.avg_row_degree),
            maximum.cardinality().to_string(),
            (stats.ncols - maximal.cardinality()).to_string(),
        ]);
    }
    rep
}

/// Fig. 3: impact of the maximal-matching initializer on MCM runtime.
///
/// For four representative matrices and each of {greedy, Karp–Sipser,
/// dynamic mindegree}: the modeled initialization time, the modeled MCM
/// time on top of it, and the cardinality the initializer delivered. The
/// paper's finding: Karp–Sipser is always the slowest initializer in
/// distributed memory, and dynamic mindegree gives the best (or nearly
/// best) total time, which is why it is the default everywhere else.
fn fig3() -> Report {
    // The paper reports Fig. 3 at high concurrency; 972 cores = 9x9 x 12.
    let cfg = MachineConfig::hybrid(9, 12);
    let title = format!(
        "Fig. 3 — initializer impact at {} cores ({}x{} grid, {} threads/process)",
        cfg.cores(),
        cfg.grid.pr,
        cfg.grid.pc,
        cfg.threads_per_process
    );
    let mut rep = Report::new(
        "fig3",
        title,
        &["matrix", "initializer", "init |M|", "final |M|", "init(ms)", "mcm(ms)", "total(ms)"],
    );
    for s in representative4() {
        let t = s.generate();
        let scale = standin_scale(&s, &t);
        for init in [Initializer::Greedy, Initializer::KarpSipser, Initializer::DynamicMindegree] {
            let opts = McmOptions { init, ..Default::default() };
            let out = run_mcm_scaled(cfg, &t, &opts, scale);
            let init_ms = out.timers.seconds(Kernel::Init) * 1e3;
            let total_ms = out.modeled_s * 1e3;
            rep.row(vec![
                s.name.to_string(),
                init.name().to_string(),
                out.stats.init_cardinality.to_string(),
                out.cardinality.to_string(),
                format!("{init_ms:.3}"),
                format!("{:.3}", total_ms - init_ms),
                format!("{total_ms:.3}"),
            ]);
        }
    }
    rep.note("paper shape to check: karp-sipser has the largest init time on every");
    rep.note("matrix; its higher init |M| sometimes (wikipedia-like inputs) wins on");
    rep.note("total time, but dynamic mindegree is close everywhere.");
    rep
}

/// Fig. 4: strong scaling of MCM-DIST on the 13 real matrices.
///
/// Sweeps the paper's hybrid machine configurations from one node (24
/// cores) to 2028 cores and reports the modeled MCM-DIST time and the
/// speedup relative to 24 cores for every Table II stand-in. The paper's
/// headline numbers: ~9× average speedup at 972 cores (40.5× more cores),
/// up to ~18× at ~2048 cores on the largest matrices, and larger matrices
/// scaling further than smaller ones.
fn fig4() -> Report {
    let configs = MachineConfig::paper_sweep(2028);
    let mut rep = Report::new(
        "fig4",
        "Fig. 4 — strong scaling on real-matrix stand-ins (modeled time, ms)",
        &["matrix", "cores", "modeled_ms", "speedup", "|M|"],
    );
    let mut at972: Vec<f64> = Vec::new();
    for s in table2() {
        let t = s.generate();
        let scale = standin_scale(&s, &t);
        let mut base: Option<f64> = None;
        for cfg in &configs {
            let out = run_mcm_scaled(*cfg, &t, &McmOptions::default(), scale);
            let secs = mcm_time(&out).max(1e-12);
            let speedup = *base.get_or_insert(secs) / secs;
            if cfg.cores() == 972 {
                at972.push(speedup);
            }
            rep.row(vec![
                s.name.to_string(),
                cfg.cores().to_string(),
                format!("{:.3}", secs * 1e3),
                format!("{speedup:.2}"),
                out.cardinality.to_string(),
            ]);
        }
    }
    let mean = at972.iter().sum::<f64>() / at972.len() as f64;
    let min = at972.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = at972.iter().cloned().fold(0.0, f64::max);
    rep.note(format!(
        "speedup at 972 cores over 24 cores: mean {mean:.1}x, min {min:.1}x, max {max:.1}x"
    ));
    rep.note("paper reference at 972 cores: mean 9x, min 5x (amazon-2008), max 13x (delaunay_n24)");
    rep
}

/// Fig. 5: runtime breakdown of MCM-DIST across kernels.
///
/// For four representative matrices over the strong-scaling sweep, the
/// percentage of modeled time spent in SpMV, INVERT, PRUNE, SELECT, AUGMENT
/// and the rest. The paper's shape: SpMV dominates at low concurrency (~80%
/// on road_usa at 48 cores), and the synchronization-heavy INVERT grows
/// with the core count, fastest on small matrices like amazon-2008 where
/// shrinking local work cannot hide latency.
fn fig5() -> Report {
    let mut rep = Report::new(
        "fig5",
        "Fig. 5 — modeled runtime breakdown (% of total)",
        &[
            "matrix", "cores", "SpMV%", "Invert%", "Prune%", "Select%", "Augment%", "Other%",
            "mcm_ms",
        ],
    );
    for s in representative4() {
        let t = s.generate();
        let scale = standin_scale(&s, &t);
        for cfg in MachineConfig::paper_sweep(2028) {
            let out = run_mcm_scaled(cfg, &t, &McmOptions::default(), scale);
            rep.row(vec![
                s.name.to_string(),
                cfg.cores().to_string(),
                format!("{:.1}", share_mcm(&out.timers, Kernel::SpMV)),
                format!("{:.1}", share_mcm(&out.timers, Kernel::Invert)),
                format!("{:.1}", share_mcm(&out.timers, Kernel::Prune)),
                format!("{:.1}", share_mcm(&out.timers, Kernel::Select)),
                format!("{:.1}", share_mcm(&out.timers, Kernel::Augment)),
                format!("{:.1}", share_mcm(&out.timers, Kernel::Other)),
                format!("{:.3}", mcm_time(&out) * 1e3),
            ]);
        }
    }
    rep.note("paper shape to check: SpMV share falls and Invert share rises with");
    rep.note("core count; the crossover comes earliest on the smallest matrix.");
    rep
}

/// Fig. 6: strong scaling on large synthetic RMAT matrices.
///
/// ER, G500 and SSCA classes at two scales each, swept up to the
/// 12,288-core configuration (32×32 grid × 12 threads) the paper tops out
/// at. The paper runs scales 26 and 30 on Edison; the simulator runs the
/// same generators with the same seed parameters at laptop scales (see
/// DESIGN.md §2), so compare *shapes*: runtime falling ~√t when cores grow
/// t-fold, the smaller scale flattening earlier, the larger scale scaling
/// to the full sweep.
fn fig6() -> Report {
    // Stand-ins for the paper's scale-26 ("small") and scale-30 ("large").
    let small_scale = 13u32;
    let large_scale = 16u32;
    let title = format!(
        "Fig. 6 — strong scaling on RMAT classes (scales {small_scale} and {large_scale} standing in for 26/30)"
    );
    type ParamsFor = fn(u32) -> RmatParams;
    let classes: [(&str, ParamsFor); 3] =
        [("ER", RmatParams::er), ("G500", RmatParams::g500), ("SSCA", RmatParams::ssca)];

    let mut rep =
        Report::new("fig6", title, &["class", "scale", "cores", "modeled_ms", "speedup", "|M|"]);
    for (name, params) in classes {
        for (scale, paper_scale) in [(small_scale, 26u32), (large_scale, 30u32)] {
            let t = rmat(params(scale), 20_160_000 + scale as u64);
            // Work scale: paper-scale edge count over the stand-in's.
            let p = params(paper_scale);
            let paper_edges = (p.edge_factor as f64) * (1u64 << paper_scale) as f64;
            let ws = (paper_edges / t.len() as f64).max(1.0);
            let mut base: Option<f64> = None;
            for cfg in MachineConfig::paper_sweep(12_288) {
                let out = run_mcm_scaled(cfg, &t, &McmOptions::default(), ws);
                let secs = mcm_time(&out).max(1e-12);
                let speedup = *base.get_or_insert(secs) / secs;
                rep.row(vec![
                    name.to_string(),
                    format!("{scale} (for {paper_scale})"),
                    cfg.cores().to_string(),
                    format!("{:.3}", secs * 1e3),
                    format!("{speedup:.2}"),
                    out.cardinality.to_string(),
                ]);
            }
        }
    }
    rep.note("paper shape to check: the smaller scale stops scaling well before the");
    rep.note("12288-core end of the sweep; the larger scale keeps improving.");
    rep
}

/// Fig. 7: impact of intra-node multithreading (hybrid vs flat MPI).
///
/// For two representative matrices, compares the hybrid layout (12 threads
/// per process, small process grid) against flat MPI (1 thread per process,
/// large grid) at matched core counts. The paper's findings: hybrid is at
/// least ~2× faster everywhere because the smaller communicators shrink
/// latency and synchronization costs, and flat MPI stops scaling much
/// earlier, most dramatically on small matrices like amazon-2008.
fn fig7() -> Report {
    let mut rep = Report::new(
        "fig7",
        "Fig. 7 — hybrid (t=12) vs flat MPI (t=1) at matched core counts",
        &["matrix", "cores(hybrid)", "hybrid_ms", "cores(flat)", "flat_ms", "flat/hybrid"],
    );
    for name in ["amazon-2008", "road_usa"] {
        let s = by_name(name).expect("matrix in table2");
        let t = s.generate();
        let scale = standin_scale(&s, &t);
        for dim in [2usize, 3, 4, 6, 9, 13] {
            let hybrid = MachineConfig::hybrid(dim, 12);
            // Flat grid with (approximately) the same number of cores:
            // dim_flat² ≈ 12·dim².
            let dim_flat = ((12.0f64).sqrt() * dim as f64).round() as usize;
            let flat = MachineConfig::flat(dim_flat);
            let oh = run_mcm_scaled(hybrid, &t, &McmOptions::default(), scale);
            let of = run_mcm_scaled(flat, &t, &McmOptions::default(), scale);
            assert_eq!(oh.cardinality, of.cardinality);
            rep.row(vec![
                s.name.to_string(),
                hybrid.cores().to_string(),
                format!("{:.3}", mcm_time(&oh) * 1e3),
                flat.cores().to_string(),
                format!("{:.3}", mcm_time(&of) * 1e3),
                format!("{:.2}", mcm_time(&of) / mcm_time(&oh).max(1e-12)),
            ]);
        }
    }
    rep.note("paper shape to check: flat/hybrid ratio ≥ ~2 and growing with cores;");
    rep.note("flat MPI on amazon-2008 stops improving beyond a few hundred cores.");
    rep
}

/// Fig. 8: impact of pruning (Step 6 of Algorithm 2).
///
/// For every Table II stand-in at 972 cores, the percentage of modeled MCM
/// runtime saved by pruning vertices from alternating trees that have
/// already yielded an augmenting path. The paper reports 10–65% savings for
/// all but two matrices.
fn fig8() -> Report {
    // 1024 cores in the paper; closest hybrid square layout: 9x9x12 = 972.
    let cfg = MachineConfig::hybrid(9, 12);
    let mut rep = Report::new(
        "fig8",
        format!("Fig. 8 — runtime reduction from pruning at {} cores", cfg.cores()),
        &["matrix", "with_prune_ms", "no_prune_ms", "reduction_%", "iters_with", "iters_without"],
    );
    for s in table2() {
        let t = s.generate();
        let scale = standin_scale(&s, &t);
        let on = run_mcm_scaled(cfg, &t, &McmOptions { prune: true, ..Default::default() }, scale);
        let off =
            run_mcm_scaled(cfg, &t, &McmOptions { prune: false, ..Default::default() }, scale);
        assert_eq!(on.cardinality, off.cardinality, "{}: pruning must not change |M|", s.name);
        let (on_s, off_s) = (mcm_time(&on), mcm_time(&off));
        let red = 100.0 * (off_s - on_s) / off_s.max(1e-12);
        rep.row(vec![
            s.name.to_string(),
            format!("{:.3}", on_s * 1e3),
            format!("{:.3}", off_s * 1e3),
            format!("{red:.1}"),
            on.stats.iterations.to_string(),
            off.stats.iterations.to_string(),
        ]);
    }
    rep.note("paper shape to check: positive reductions (10-65%) on most matrices,");
    rep.note("near zero on a couple; pruning never changes the cardinality.");
    rep
}

/// Fig. 9: the cost of centralizing a distributed graph (§VI-E).
///
/// Models the gather-to-rank-0 + scatter-mates-back pipeline that the
/// "collect and run a shared-memory matcher" state of the practice pays, on
/// 2025 simulated MPI ranks (the paper's 2048), across a sweep of edge
/// counts. The paper's punchline: for nlpkkt200 (~900M nonzeros) this
/// communication alone costs ~20 s, twice the *entire* distributed MCM-DIST
/// runtime; the notes compare the two on a 2028-core hybrid allocation.
fn fig9() -> Report {
    // 2048 MPI processes as in the paper's toy experiment (flat layout).
    let p_dim = 45; // 45^2 = 2025 ≈ 2048 ranks
    let mut rep = Report::new(
        "fig9",
        format!(
            "Fig. 9 — gather+scatter time of the centralized pipeline on {} ranks",
            p_dim * p_dim
        ),
        &["edges", "gather_s", "scatter_s", "total_s"],
    );
    for exp in 20..=33u32 {
        let m = 1u64 << exp; // 1M .. 8.6B edges
        let n = m / 16; // a typical average degree of 16 on each side
        let mut ctx = DistCtx::new(MachineConfig::flat(p_dim));
        let c = centralized_cost(&mut ctx, m, n, n);
        rep.row(vec![
            m.to_string(),
            format!("{:.4}", c.gather_s),
            format!("{:.4}", c.scatter_s),
            format!("{:.4}", c.total()),
        ]);
    }

    // The nlpkkt200 comparison of §VI-E, at stand-in scale: centralization
    // cost vs the full distributed MCM time on the same simulated machine.
    let s = by_name("nlpkkt200").expect("nlpkkt200 stand-in");
    let t = s.generate();
    let scale = standin_scale(&s, &t);
    let mut ctx = DistCtx::new(MachineConfig::hybrid(13, 12)).with_work_scale(scale);
    let central = centralized_cost(&mut ctx, t.len() as u64, t.nrows() as u64, t.ncols() as u64);
    let dist = run_mcm_scaled(MachineConfig::hybrid(13, 12), &t, &McmOptions::default(), scale);
    rep.note(format!(
        "nlpkkt200 stand-in ({} edges): centralization {:.4} s vs full MCM-DIST {:.4} s \
         (ratio {:.2})",
        t.len(),
        central.total(),
        dist.modeled_s,
        central.total() / dist.modeled_s.max(1e-12)
    ));
    rep.note("paper shape to check: gather+scatter grows linearly with edges and");
    rep.note("rivals or exceeds the whole distributed matching time.");
    rep
}
