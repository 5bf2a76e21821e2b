//! `mcm` — command-line front end for the matching library.
//!
//! ```text
//! mcm stats   <file.mtx>                     structural statistics
//! mcm match   <file.mtx> [options]           maximum cardinality matching
//! mcm permute <file.mtx> --out <out.mtx>     zero-free diagonal permutation
//! mcm dm      <file.mtx>                     Dulmage–Mendelsohn block sizes
//! mcm gen     <family> --scale <s> --out <f> generate a test matrix
//!
//! match options:
//!   --algo dist|hk|pf|pr|msbfs|graft|ppf|auto
//!                                      algorithm (default dist); `ppf` is
//!                                      parallel Pothen–Fan, `auto` measures
//!                                      the graph and picks an engine
//!   --backend sim|engine|shared        cost-model simulator (default) or real
//!                                      thread-per-rank mesh; `shared` is the
//!                                      simulator on a √p×√p grid (--ranks p)
//!   --grid <d>                         simulated d×d process grid (sim)
//!   --ranks <p>                        engine/shared rank count, a perfect square
//!   --threads <t>                      threads per process/rank (dist)
//!   --breakdown                        print the measured wall-clock
//!                                      per-kernel breakdown next to the
//!                                      modeled α–β–γ one (dist)
//!   --trace-out <file>                 write a chrome://tracing JSON trace
//!   --out <file>                       write "row col" pairs
//!   --weighted                         maximum *weight* matching instead:
//!                                      values are weights, the parallel
//!                                      ε-scaled auction solves it and its
//!                                      ε-CS certificate is checked; takes
//!                                      --threads and --out only
//! gen families: g500, ssca, er (RMAT presets); road, mesh (2D meshes)
//! ```
//!
//! Matrices are Matrix Market files; values are ignored except with
//! `match --weighted`.

use mcm_bsp::{Communicator, DistCtx, EngineComm, MachineConfig};
use mcm_core::dm::{dulmage_mendelsohn, DmBlock};
// btf used via full path in cmd_btf
use mcm_core::serial::{hopcroft_karp, ms_bfs_graft, ms_bfs_serial, pothen_fan, push_relabel};
use mcm_core::verify::verify;
use mcm_core::{
    maximum_matching, Matching, MatchingAlgo, McmOptions, PortfolioBackend, PortfolioOptions,
    SolverPool, Start,
};
use mcm_sparse::io::{read_matrix_market_file, write_matrix_market_file};
use mcm_sparse::permute::{permute_triples, Permutation};
use mcm_sparse::stats::MatrixStats;
use mcm_sparse::{CscView, Triples, Vidx, NIL};
use mcm_store::{GraphFormat, McsbFile, McsbStreamWriter};
use std::process::ExitCode;

fn main() -> ExitCode {
    // Piping into `head` closes stdout early; exit like a Unix tool instead
    // of letting std's print machinery panic on the broken pipe.
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.contains("Broken pipe") {
            std::process::exit(141); // 128 + SIGPIPE
        }
        eprintln!("{info}");
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `mcm help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("match") => cmd_match(&args[1..]),
        Some("permute") => cmd_permute(&args[1..]),
        Some("dm") => cmd_dm(&args[1..]),
        Some("btf") => cmd_btf(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("help") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command: {other}")),
    }
}

const USAGE: &str = "\
mcm — maximum cardinality matching in bipartite graphs (Azad & Buluc, IPDPS 2016)

usage:
  mcm stats   <file.mtx>
  mcm match   <file.mtx> [--algo dist|hk|pf|pr|msbfs|graft|ppf|auto]
              [--backend sim|engine|shared]  shared = sim on a sqrt(p) x sqrt(p)
                                           grid, p from --ranks
              [--grid d] [--ranks p] [--threads t] [--breakdown] [--trace-out file] [--out file]
  mcm match   <file.mtx> --weighted [--threads t] [--out file]
                                           maximum weight matching (values used,
                                           parallel eps-scaled auction, eps-CS certified)
  mcm permute <file.mtx> --out <out.mtx>
  mcm dm      <file.mtx>
  mcm btf     <file.mtx>
  mcm gen     <g500|ssca|er|road|mesh> --scale <s> --out <file> [--seed n]
              [--format mtx|mcsb]      mcsb streams RMAT edges straight to the
                                       binary store (bounded memory at any scale)
  mcm convert <in.mtx> --out <out.mcsb>  stream a Matrix Market file into MCSB

Graph inputs are sniffed by content: Matrix Market text or the MCSB binary
store (mcm-store). MCSB files are mmap'ed and matched zero-copy with
--algo dist|ppf|auto; the serial algorithms materialize an in-RAM copy.
";

/// Pulls `--flag value` out of an argument list.
fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Flags that take no value.
const SWITCHES: [&str; 2] = ["--breakdown", "--weighted"];

fn positional(args: &[String]) -> Option<&str> {
    // First token that is not a flag and not a flag's value.
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = !SWITCHES.contains(&a.as_str());
            continue;
        }
        return Some(a);
    }
    None
}

/// A loaded graph: Matrix Market text parsed to triples, or an MCSB file
/// whose CSC arrays stay on their mmap'ed pages (the zero-copy path).
enum Input {
    Mtx(Triples),
    Mcsb(McsbFile),
}

/// Sniffs `path` by content (MCSB magic vs `%%MatrixMarket`) and opens it.
/// Corrupt or truncated MCSB files surface as structured errors here, not
/// panics deeper in the pipeline.
fn load_input(path: &str) -> Result<Input, String> {
    match mcm_store::sniff_format(path).map_err(|e| format!("{path}: {e}"))? {
        GraphFormat::MatrixMarket => {
            read_matrix_market_file(path).map(Input::Mtx).map_err(|e| format!("{path}: {e}"))
        }
        GraphFormat::Mcsb => {
            McsbFile::open(path).map(Input::Mcsb).map_err(|e| format!("{path}: {e}"))
        }
    }
}

fn load(args: &[String]) -> Result<Triples, String> {
    let path = positional(args).ok_or("missing input file")?;
    match load_input(path)? {
        Input::Mtx(t) => Ok(t),
        // Commands that need triples (stats, permute, dm, btf) materialize
        // the edge list; `match` reads the mapped view instead.
        Input::Mcsb(f) => {
            let v = f.view();
            Ok(Triples::from_edges(v.nrows(), v.ncols(), v.iter().collect()))
        }
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let t = load(args)?;
    let s = MatrixStats::from_triples(&t);
    println!("rows:            {}", s.nrows);
    println!("cols:            {}", s.ncols);
    println!("nonzeros:        {}", s.nnz);
    println!("avg row degree:  {:.2}", s.avg_row_degree);
    println!("avg col degree:  {:.2}", s.avg_col_degree);
    println!("max row degree:  {}", s.max_row_degree);
    println!("max col degree:  {}", s.max_col_degree);
    println!("empty rows:      {}", s.empty_rows);
    println!("empty cols:      {}", s.empty_cols);
    Ok(())
}

/// The distributed driver's choice of backend plus the modeled per-kernel
/// rows it leaves behind (for `--breakdown`).
struct DistRun {
    matching: Matching,
    /// `(kernel name, modeled seconds, modeled calls)` per kernel.
    modeled: Vec<(&'static str, f64, u64)>,
    /// Engine that actually ran (reported in the stats line).
    algo: &'static str,
    /// Whether `--algo auto` picked the engine.
    auto: bool,
}

fn compute_dist(
    g: &CscView<'_>,
    backend: &str,
    grid: usize,
    ranks: usize,
    threads: usize,
) -> Result<DistRun, String> {
    fn solve<C: Communicator>(comm: &mut C, g: &CscView<'_>) -> DistRun {
        let r =
            maximum_matching(comm, g, Start::Cold, &McmOptions::default(), &mut SolverPool::new());
        let modeled =
            comm.ctx().timers.breakdown().into_iter().map(|(k, s, c)| (k.name(), s, c)).collect();
        DistRun { matching: r.matching, modeled, algo: "msbfs", auto: false }
    }
    let (run, total) = match backend {
        "sim" => {
            let mut ctx = DistCtx::new(MachineConfig::hybrid(grid, threads));
            let run = solve(&mut ctx, g);
            eprint!(
                "simulated {} cores ({grid}x{grid} grid, {threads} threads/process)",
                ctx.machine.cores()
            );
            (run, ctx.timers.total())
        }
        "engine" => {
            let mut comm = EngineComm::new(ranks, threads);
            let run = solve(&mut comm, g);
            eprint!("engine: {ranks} ranks x {threads} threads");
            (run, comm.ctx().timers.total())
        }
        other => return Err(format!("bad --backend value: {other} (want sim|engine|shared)")),
    };
    eprintln!("; modeled time {:.3} ms", total * 1e3);
    Ok(run)
}

fn compute(
    g: &CscView<'_>,
    algo: &str,
    backend: &str,
    grid: usize,
    ranks: usize,
    threads: usize,
) -> Result<DistRun, String> {
    if let "ppf" | "auto" = algo {
        let palgo: MatchingAlgo = algo.parse()?;
        let pbackend = match backend {
            "sim" => PortfolioBackend::Sim { grid, threads },
            "engine" => PortfolioBackend::Engine { p: ranks, threads },
            other => return Err(format!("bad --backend value: {other} (want sim|engine|shared)")),
        };
        let opts =
            PortfolioOptions { algo: palgo, backend: pbackend, threads, ..Default::default() };
        let r = mcm_core::portfolio::solve(g, &opts);
        return Ok(DistRun {
            matching: r.matching,
            modeled: Vec::new(),
            algo: r.stats.algo,
            auto: r.stats.algo_auto,
        });
    }
    if algo == "dist" {
        return compute_dist(g, backend, grid, ranks, threads);
    }
    let a = g.to_csc();
    let (matching, label) = match algo {
        "hk" => (hopcroft_karp(&a, None), "hk"),
        "pf" => (pothen_fan(&a, None), "pf"),
        "pr" => (push_relabel(&a), "pr"),
        "msbfs" => (ms_bfs_serial(&a, None).0, "msbfs-serial"),
        "graft" => (ms_bfs_graft(&a, None).0, "graft"),
        other => return Err(format!("unknown algorithm: {other}")),
    };
    Ok(DistRun { matching, modeled: Vec::new(), algo: label, auto: false })
}

/// `match` flags that choose or instrument a cardinality engine; the
/// weighted path has one engine and rejects them rather than ignore them.
const CARDINALITY_ONLY: [&str; 6] =
    ["--algo", "--backend", "--grid", "--ranks", "--breakdown", "--trace-out"];

/// `mcm match --weighted`: maximum *weight* matching through the
/// portfolio's parallel eps-scaled auction, with the eps-complementary-
/// slackness certificate checked before anything is printed.
fn cmd_match_weighted(args: &[String]) -> Result<(), String> {
    if let Some(flag) = args.iter().find(|a| CARDINALITY_ONLY.contains(&a.as_str())) {
        return Err(format!("{flag} does not apply to --weighted (it takes --threads and --out)"));
    }
    let path = positional(args).ok_or("missing input file")?;
    let a = load_weighted(path)?;
    let threads: usize =
        opt(args, "--threads").unwrap_or("4").parse().map_err(|_| "bad --threads")?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let opts = PortfolioOptions { threads, ..PortfolioOptions::default() };
    let r = mcm_core::portfolio::solve_weighted(&a, &opts);
    r.matching
        .validate(a.pattern())
        .map_err(|e| format!("internal error, invalid matching: {e}"))?;
    mcm_core::verify::verify_eps_cs(&a, &r.matching, &r.prices, r.eps)
        .map_err(|e| format!("internal error, eps-CS certificate failed: {e}"))?;
    println!(
        "maximum weight matching: |M| = {} of {} columns, total weight {:.6}",
        r.matching.cardinality(),
        a.ncols(),
        r.weight,
    );
    println!("algo: wauction ({threads} threads, {} bids, eps {:.2e})", r.bids, r.eps);
    if let Some(out) = opt(args, "--out") {
        let mut body = String::new();
        for c in 0..a.ncols() as Vidx {
            let row = r.matching.mate_c.get(c);
            if row != NIL {
                let w = a.weight(row, c as usize).unwrap_or(0.0);
                body.push_str(&format!("{} {} {w}\n", row + 1, c + 1));
            }
        }
        std::fs::write(out, body).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote 1-based (row, col, weight) triples to {out}");
    }
    Ok(())
}

fn cmd_match(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--weighted") {
        return cmd_match_weighted(args);
    }
    let path = positional(args).ok_or("missing input file")?;
    // Matrix Market text is compressed once into an owned CSC (the triples
    // drop here); MCSB stays on its mmap'ed pages. Both lend one view.
    let (owned, file);
    let g = match load_input(path)? {
        Input::Mtx(t) => {
            owned = t.to_csc();
            owned.view()
        }
        Input::Mcsb(f) => {
            file = f;
            file.view()
        }
    };
    let algo = opt(args, "--algo").unwrap_or("dist");
    let backend = opt(args, "--backend").unwrap_or("sim");
    let mut grid: usize = opt(args, "--grid").unwrap_or("2").parse().map_err(|_| "bad --grid")?;
    let ranks: usize = opt(args, "--ranks").unwrap_or("4").parse().map_err(|_| "bad --ranks")?;
    let threads: usize =
        opt(args, "--threads").unwrap_or("4").parse().map_err(|_| "bad --threads")?;
    if grid == 0 || threads == 0 {
        return Err("--grid and --threads must be at least 1".into());
    }
    // Every engine can land on the rank-grid backends (`auto` may pick
    // MS-BFS), so the rank count is checked here, whatever the `--algo`.
    let dim = (ranks as f64).sqrt().round() as usize;
    if matches!(backend, "engine" | "shared") && (ranks == 0 || dim * dim != ranks) {
        return Err(format!("--ranks must be a positive perfect square, got {ranks}"));
    }
    // `shared` spells the simulator on the √p × √p grid of `--ranks p`.
    let backend = if backend == "shared" {
        grid = dim;
        "sim"
    } else {
        backend
    };
    let breakdown = args.iter().any(|a| a == "--breakdown");
    let trace_out = opt(args, "--trace-out");
    if (breakdown || trace_out.is_some()) && algo != "dist" {
        return Err("--breakdown and --trace-out need --algo dist".into());
    }
    if breakdown || trace_out.is_some() {
        mcm_obs::enable_tracing(true);
        drop(mcm_obs::take_trace()); // start the run from an empty sink
    }
    let DistRun { matching: m, modeled, algo: ran, auto } =
        compute(&g, algo, backend, grid, ranks, threads)?;
    if breakdown || trace_out.is_some() {
        mcm_obs::enable_tracing(false);
        let trace = mcm_obs::take_trace();
        if breakdown {
            let measured = mcm_obs::WallBreakdown::from_trace(&trace);
            eprintln!("per-kernel breakdown (measured wall clock vs modeled alpha-beta-gamma):");
            eprint!("{}", mcm_obs::side_by_side(&measured, &modeled));
        }
        if let Some(path) = trace_out {
            std::fs::write(path, trace.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote chrome://tracing JSON ({} events) to {path}", trace.events.len());
        }
    }
    // Berge-certify the result against the graph as loaded — for MCSB that
    // means against the mapped pages themselves, no owned copy.
    verify(g, &m).map_err(|e| format!("internal error: {e}"))?;
    println!(
        "maximum matching: {} of {} columns ({} rows) matched",
        m.cardinality(),
        g.ncols(),
        g.nrows()
    );
    println!("algo: {ran}{}", if auto { " (selected by auto)" } else { "" });
    if let Some(out) = opt(args, "--out") {
        let mut body = String::new();
        for c in 0..g.ncols() as Vidx {
            let r = m.mate_c.get(c);
            if r != NIL {
                body.push_str(&format!("{} {}\n", r + 1, c + 1));
            }
        }
        std::fs::write(out, body).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote 1-based (row, col) pairs to {out}");
    }
    Ok(())
}

fn cmd_permute(args: &[String]) -> Result<(), String> {
    let t = load(args)?;
    if t.nrows() != t.ncols() {
        return Err("permute requires a square matrix".into());
    }
    let out = opt(args, "--out").ok_or("missing --out")?;
    let a = t.to_csc();
    let m = hopcroft_karp(&a, None);
    if m.cardinality() != t.ncols() {
        return Err(format!(
            "matrix is structurally singular: maximum matching covers only {} of {} columns",
            m.cardinality(),
            t.ncols()
        ));
    }
    let forward: Vec<Vidx> = (0..t.nrows() as Vidx).map(|i| m.mate_r.get(i)).collect();
    let perm = Permutation::from_forward(forward);
    let pt = permute_triples(&t, &perm, &Permutation::identity(t.ncols()));
    write_matrix_market_file(&pt, out).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote row-permuted matrix with zero-free diagonal to {out}");
    Ok(())
}

fn cmd_dm(args: &[String]) -> Result<(), String> {
    let t = load(args)?;
    let a = t.to_csc();
    let m = hopcroft_karp(&a, None);
    let dm = dulmage_mendelsohn(&a, &m);
    println!("maximum matching: {}", m.cardinality());
    for block in [DmBlock::Horizontal, DmBlock::Square, DmBlock::Vertical] {
        println!(
            "{:<12} {:>8} rows {:>8} cols",
            format!("{block:?}"),
            dm.rows_in(block).len(),
            dm.cols_in(block).len()
        );
    }
    if dm.is_structurally_nonsingular() {
        println!("matrix is structurally nonsingular");
    }
    Ok(())
}

fn cmd_btf(args: &[String]) -> Result<(), String> {
    let t = load(args)?;
    if t.nrows() != t.ncols() {
        return Err("btf requires a square matrix".into());
    }
    let a = t.to_csc();
    let m = hopcroft_karp(&a, None);
    if m.cardinality() != t.ncols() {
        return Err(format!(
            "structurally singular: rank {} of {} (try `mcm dm`)",
            m.cardinality(),
            t.ncols()
        ));
    }
    let btf = mcm_core::btf::block_triangular_form(&a, &m);
    println!("diagonal blocks: {}", btf.num_blocks());
    println!("largest block:   {}", btf.max_block());
    let singletons =
        (0..btf.num_blocks()).filter(|&b| btf.block_ptr[b + 1] - btf.block_ptr[b] == 1).count();
    println!("singleton blocks: {singletons}");
    Ok(())
}

/// Loads a weighted graph (`WCsc`): Matrix Market with values, or a
/// weighted MCSB file (decoded on the heap; the auction mutates
/// prices next to the weights, so there is no zero-copy weighted path).
fn load_weighted(path: &str) -> Result<mcm_sparse::WCsc, String> {
    match mcm_store::sniff_format(path).map_err(|e| format!("{path}: {e}"))? {
        GraphFormat::MatrixMarket => mcm_sparse::io::read_matrix_market_weighted_file(path)
            .map_err(|e| format!("{path}: {e}")),
        GraphFormat::Mcsb => {
            let f = McsbFile::open_heap(path).map_err(|e| format!("{path}: {e}"))?;
            f.to_wcsc().ok_or_else(|| {
                format!("{path}: MCSB file has no values (unweighted); use `mcm match`")
            })
        }
    }
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let family = positional(args).ok_or("missing family")?;
    let scale: u32 = opt(args, "--scale").unwrap_or("10").parse().map_err(|_| "bad --scale")?;
    let seed: u64 = opt(args, "--seed").unwrap_or("1").parse().map_err(|_| "bad --seed")?;
    let out = opt(args, "--out").ok_or("missing --out")?;
    let format = opt(args, "--format").unwrap_or("mtx");
    if !matches!(format, "mtx" | "mcsb") {
        return Err(format!("bad --format value: {format} (want mtx|mcsb)"));
    }
    let rmat_params = match family {
        "g500" => Some(mcm_gen::rmat::RmatParams::g500(scale)),
        "ssca" => Some(mcm_gen::rmat::RmatParams::ssca(scale)),
        "er" => Some(mcm_gen::rmat::RmatParams::er(scale)),
        _ => None,
    };
    if format == "mcsb" {
        // Stream straight into the store: for RMAT families the edge list is
        // never materialized, so scale is bounded by disk, not RAM.
        let p = rmat_params
            .ok_or_else(|| format!("--format mcsb streams RMAT families only, not {family}"))?;
        let n = p.n();
        let mut w =
            McsbStreamWriter::create(out, n, n, false).map_err(|e| format!("{out}: {e}"))?;
        let mut push_err = None;
        mcm_gen::stream_edges(&p, seed, |chunk| {
            if push_err.is_none() {
                push_err = w.push_edges(chunk).err();
            }
        });
        if let Some(e) = push_err {
            return Err(format!("{out}: {e}"));
        }
        let s = w.finish(mcm_par::max_threads()).map_err(|e| format!("{out}: {e}"))?;
        println!(
            "wrote {n} x {n} matrix with {} nonzeros to {out} ({} bytes, MCSB)",
            s.nnz, s.bytes
        );
        return Ok(());
    }
    let t = match family {
        "g500" | "ssca" | "er" => mcm_gen::rmat::rmat(rmat_params.unwrap(), seed),
        "road" => {
            let side = 1usize << (scale / 2);
            mcm_gen::mesh::road_grid(side, side, 0.12, seed)
        }
        "mesh" => {
            let side = 1usize << (scale / 2);
            mcm_gen::mesh::triangulated_grid(side, side, seed)
        }
        other => return Err(format!("unknown family: {other}")),
    };
    write_matrix_market_file(&t, out).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {} x {} matrix with {} nonzeros to {out}", t.nrows(), t.ncols(), t.len());
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let src = positional(args).ok_or("missing input file")?;
    let out = opt(args, "--out").ok_or("missing --out")?;
    let s = mcm_store::convert_matrix_market(src, out).map_err(|e| format!("{src}: {e}"))?;
    println!(
        "converted {} x {} matrix, {} nonzeros{} -> {out} ({} bytes, MCSB)",
        s.nrows,
        s.ncols,
        s.nnz,
        if s.weighted { " (weighted)" } else { "" },
        s.bytes
    );
    Ok(())
}
