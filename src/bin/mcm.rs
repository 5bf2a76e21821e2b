//! `mcm` — command-line front end for the matching library.
//!
//! ```text
//! mcm stats   <file.mtx>                     structural statistics
//! mcm match   <file.mtx> [options]           maximum cardinality matching
//! mcm permute <file.mtx> --out <out.mtx>     zero-free diagonal permutation
//! mcm dm      <file.mtx>                     Dulmage–Mendelsohn block sizes
//! mcm btf     <file.mtx>                     block triangular form
//! mcm gen     <family> --scale <s> --out <f> generate a test matrix
//!
//! match options:
//!   --algo dist|hk|pf|msbfs|ppf|auto
//!                                      algorithm (default dist); `ppf` is
//!                                      parallel Pothen–Fan, `auto` measures
//!                                      the graph and picks an engine
//!   --backend sim|engine|shared        cost-model simulator (default) or real
//!                                      thread-per-rank mesh; `shared` is the
//!                                      simulator on a √p×√p grid (--ranks p)
//!   --grid <d>                         simulated d×d process grid (sim)
//!   --ranks <p>                        engine/shared rank count, a perfect square
//!   --threads <t>                      dist: modeled threads per process/rank
//!                                      on both backends (divides charged
//!                                      compute; the matching is the same);
//!                                      ppf/auto: real worker threads
//!   --breakdown                        print the measured wall-clock
//!                                      per-kernel breakdown next to the
//!                                      modeled α–β–γ one (dist)
//!   --trace-out <file>                 write a chrome://tracing JSON trace
//!   --out <file>                       write "row col" pairs
//!   --weighted                         maximum *weight* matching instead:
//!                                      values are weights, the parallel
//!                                      auction solves it and its
//!                                      ε-CS certificate is checked; takes
//!                                      --threads and --out only
//! gen families: g500, ssca, er (RMAT presets); road, mesh (2D meshes);
//! a `.mcsb` --out gets MCSB unless --format says otherwise
//! ```
//!
//! Matrices are Matrix Market files or MCSB stores; values are ignored
//! except with `match --weighted`. `match`, `dm` and `btf` read one graph
//! view: MCSB stays on its mmap'ed pages, Matrix Market is compressed once.

use mcm_bsp::Timers;
use mcm_core::btf::block_triangular_form;
use mcm_core::dm::{dulmage_mendelsohn, DmBlock};
use mcm_core::portfolio::solve;
use mcm_core::serial::{hopcroft_karp, ms_bfs_serial, pothen_fan};
use mcm_core::verify::verify;
use mcm_core::weighted::{auction_mwm_par, AuctionOptions};
use mcm_core::{MatchingAlgo, McmResult, McmStats, PortfolioBackend, PortfolioOptions, Start};
use mcm_sparse::io::{read_matrix_market_file, write_matrix_market_file};
use mcm_sparse::stats::MatrixStats;
use mcm_sparse::{Csc, CscView, Triples, Vidx, NIL};
use mcm_store::{GraphFormat, McsbFile, McsbStreamWriter, StoreError};
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

type Command = fn(&[String]) -> Result<(), String>;

fn run(args: &[String]) -> Result<(), String> {
    // Each subcommand with the flags that take a value and the ones that
    // take none.
    let (cmd, valued, switches): (Command, &[&str], &[&str]) =
        match args.first().map(String::as_str) {
            Some("stats") => (cmd_stats, &[], &[]),
            Some("match") => (
                cmd_match,
                &["--algo", "--backend", "--grid", "--ranks", "--threads", "--trace-out", "--out"],
                &SWITCHES,
            ),
            Some("permute") => (cmd_permute, &["--out"], &[]),
            Some("dm") => (cmd_dm, &[], &[]),
            Some("btf") => (cmd_btf, &[], &[]),
            Some("gen") => (cmd_gen, &["--scale", "--seed", "--out", "--format"], &[]),
            Some("convert") => (cmd_convert, &["--out"], &[]),
            Some("help") | None => {
                print!("{}", USAGE);
                return Ok(());
            }
            Some(other) => return Err(format!("unknown command: {other}")),
        };
    let rest = &args[1..];
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        if valued.contains(&a.as_str()) {
            it.next();
        } else if a.starts_with("--") && !switches.contains(&a.as_str()) {
            return Err(format!("unknown flag for `mcm {}`: {a}", args[0]));
        }
    }
    cmd(rest)
}

const USAGE: &str = "\
mcm — maximum cardinality matching in bipartite graphs (Azad & Buluc, IPDPS 2016)

usage:
  mcm stats   <file.mtx>
  mcm match   <file.mtx> [--algo dist|hk|pf|msbfs|ppf|auto]
              [--backend sim|engine|shared]  shared = sim on a sqrt(p) x sqrt(p)
                                           grid, p from --ranks
              [--grid d] [--ranks p] [--threads t] [--breakdown] [--trace-out file] [--out file]
                                           --threads: modeled per rank for dist,
                                           worker threads for ppf/auto
  mcm match   <file.mtx> --weighted [--threads t] [--out file]
                                           maximum weight matching (values used,
                                           parallel auction, eps-CS certified)
  mcm permute <file.mtx> --out <out.mtx>
  mcm dm      <file.mtx>
  mcm btf     <file.mtx>
  mcm gen     <g500|ssca|er|road|mesh> --scale <s> --out <file> [--seed n]
              [--format mtx|mcsb]      mcsb streams RMAT edges straight to the
                                       binary store (bounded memory at any scale);
                                       default: mcsb for a .mcsb --out, else mtx
  mcm convert <in.mtx> --out <out.mcsb>  stream a Matrix Market file into MCSB

Graph inputs are sniffed by content: Matrix Market text or the MCSB binary
store (mcm-store). match, dm and btf read MCSB files zero-copy from their
mmap'ed pages.
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

/// An opened graph: Matrix Market text compressed once into an owned CSC
/// (the triples drop), or MCSB left on its mmap'ed pages (the zero-copy
/// path). Both lend one [`CscView`].
enum Graph {
    Owned(Csc),
    Mapped(McsbFile),
}

impl Graph {
    fn view(&self) -> CscView<'_> {
        match self {
            Graph::Owned(a) => a.view(),
            Graph::Mapped(f) => f.view(),
        }
    }
}

/// Sniffs the input file by content (MCSB magic vs `%%MatrixMarket`) and
/// opens it. Corrupt or truncated MCSB files surface as structured errors
/// here, not panics deeper in the pipeline.
fn load_graph(args: &[String]) -> Result<Graph, String> {
    let path = positional(args).ok_or("missing input file")?;
    let at = |e: &dyn std::fmt::Display| format!("{path}: {e}");
    Ok(match mcm_store::sniff_format(path).map_err(|e| at(&e))? {
        GraphFormat::MatrixMarket => {
            Graph::Owned(read_matrix_market_file(path).map_err(|e| at(&e))?.to_csc())
        }
        GraphFormat::Mcsb => Graph::Mapped(McsbFile::open(path).map_err(|e| at(&e))?),
    })
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let graph = load_graph(args)?;
    let s = MatrixStats::from_csc(graph.view());
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

/// Runs `--algo` on `g`: the serial oracles directly, everything else
/// through the portfolio's one solve entry point (`dist` is explicit
/// MS-BFS on `backend`, whose modeled timers come back with it).
fn compute(
    g: &CscView<'_>,
    algo: &str,
    backend: PortfolioBackend,
    threads: usize,
) -> Result<(McmResult, Option<Timers>), String> {
    let serial = |matching, algo| {
        (McmResult { matching, stats: McmStats { algo, ..Default::default() } }, None)
    };
    let algo = match algo {
        "dist" => MatchingAlgo::MsBfs,
        "ppf" | "auto" => algo.parse()?,
        "hk" => return Ok(serial(hopcroft_karp(g, None), "hk")),
        "pf" => return Ok(serial(pothen_fan(g, None), "pf")),
        "msbfs" => return Ok(serial(ms_bfs_serial(g, None).0, "msbfs-serial")),
        other => return Err(format!("unknown algorithm: {other}")),
    };
    let opts = PortfolioOptions { algo, backend, threads, ..Default::default() };
    Ok(solve(g, Start::Cold, &opts))
}

/// `match` flags that choose or instrument a cardinality engine; the
/// weighted path has one engine and rejects them rather than ignore them.
const CARDINALITY_ONLY: [&str; 6] =
    ["--algo", "--backend", "--grid", "--ranks", "--breakdown", "--trace-out"];

/// `mcm match --weighted`: maximum *weight* matching by the parallel
/// auction (fine eps first, eps-scaling after a price war), with the
/// eps-complementary-slackness certificate checked before anything is
/// printed.
fn cmd_match_weighted(args: &[String]) -> Result<(), String> {
    if let Some(flag) = args.iter().find(|a| CARDINALITY_ONLY.contains(&a.as_str())) {
        return Err(format!("{flag} does not apply to --weighted (it takes --threads and --out)"));
    }
    let path = positional(args).ok_or("missing input file")?;
    let a = mcm_store::load_weighted(path).map_err(|e| match e {
        StoreError::Unweighted => format!("{path}: {e}; use `mcm match`"),
        e => format!("{path}: {e}"),
    })?;
    let threads: usize =
        opt(args, "--threads").unwrap_or("4").parse().map_err(|_| "bad --threads")?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let r = auction_mwm_par(&a, &AuctionOptions { threads, ..AuctionOptions::default() });
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
    println!(
        "algo: wauction ({threads} threads, {} bids, {} eps-scales, eps {:.2e})",
        r.bids, r.stats.scales, r.eps
    );
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
    let graph = load_graph(args)?;
    let g = graph.view();
    let algo = opt(args, "--algo").unwrap_or("dist");
    let kind = opt(args, "--backend").unwrap_or("sim");
    let grid: usize = opt(args, "--grid").unwrap_or("2").parse().map_err(|_| "bad --grid")?;
    let ranks: usize = opt(args, "--ranks").unwrap_or("4").parse().map_err(|_| "bad --ranks")?;
    let threads: usize =
        opt(args, "--threads").unwrap_or("4").parse().map_err(|_| "bad --threads")?;
    // Every engine can land on the rank-grid backends (`auto` may pick
    // MS-BFS), so the backend is checked here, whatever the `--algo`.
    let backend = PortfolioBackend::from_cli(kind, grid, ranks, threads)?;
    let breakdown = args.iter().any(|a| a == "--breakdown");
    let trace_out = opt(args, "--trace-out");
    if (breakdown || trace_out.is_some()) && algo != "dist" {
        return Err("--breakdown and --trace-out need --algo dist".into());
    }
    if breakdown || trace_out.is_some() {
        mcm_obs::enable_tracing(true);
        drop(mcm_obs::take_trace()); // start the run from an empty sink
    }
    let (McmResult { matching: m, stats }, modeled) = compute(&g, algo, backend, threads)?;
    let modeled = match modeled {
        Some(timers) if algo == "dist" => {
            match backend {
                PortfolioBackend::Sim { grid, threads } => eprint!(
                    "simulated {} cores ({grid}x{grid} grid, {threads} threads/process)",
                    grid * grid * threads
                ),
                PortfolioBackend::Engine { p, threads } => {
                    eprint!("engine: {p} ranks x {threads} threads")
                }
            }
            eprintln!("; modeled time {:.3} ms", timers.total() * 1e3);
            timers.breakdown().into_iter().map(|(k, s, c)| (k.name(), s, c)).collect()
        }
        _ => Vec::new(),
    };
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
    println!("algo: {}{}", stats.algo, if stats.algo_auto { " (selected by auto)" } else { "" });
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
    let graph = load_graph(args)?;
    let a = graph.view();
    let n = a.ncols();
    if a.nrows() != n {
        return Err("permute requires a square matrix".into());
    }
    let out = opt(args, "--out").ok_or("missing --out")?;
    let m = hopcroft_karp(a, None);
    if m.cardinality() != n {
        return Err(format!(
            "matrix is structurally singular: maximum matching covers only {} of {n} columns",
            m.cardinality()
        ));
    }
    // Row i moves to its mate's column index: the diagonal is zero-free.
    let pt = Triples::from_edges(n, n, a.iter().map(|(i, j)| (m.mate_r.get(i), j)).collect());
    write_matrix_market_file(&pt, out).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote row-permuted matrix with zero-free diagonal to {out}");
    Ok(())
}

fn cmd_dm(args: &[String]) -> Result<(), String> {
    let graph = load_graph(args)?;
    let a = graph.view();
    let m = hopcroft_karp(a, None);
    let dm = dulmage_mendelsohn(a, &m);
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
    let graph = load_graph(args)?;
    let a = graph.view();
    if a.nrows() != a.ncols() {
        return Err("btf requires a square matrix".into());
    }
    let m = hopcroft_karp(a, None);
    if m.cardinality() != a.ncols() {
        return Err(format!(
            "structurally singular: rank {} of {} (try `mcm dm`)",
            m.cardinality(),
            a.ncols()
        ));
    }
    let btf = block_triangular_form(a, &m);
    println!("diagonal blocks: {}", btf.num_blocks());
    println!("largest block:   {}", btf.max_block());
    let singletons =
        (0..btf.num_blocks()).filter(|&b| btf.block_ptr[b + 1] - btf.block_ptr[b] == 1).count();
    println!("singleton blocks: {singletons}");
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let family = positional(args).ok_or("missing family")?;
    let scale: u32 = opt(args, "--scale").unwrap_or("10").parse().map_err(|_| "bad --scale")?;
    let seed: u64 = opt(args, "--seed").unwrap_or("1").parse().map_err(|_| "bad --seed")?;
    let out = opt(args, "--out").ok_or("missing --out")?;
    // Without `--format`, the `--out` extension names the format, so a
    // `.mcsb` path never receives Matrix Market text.
    let mcsb_path = std::path::Path::new(out).extension().is_some_and(|e| e == "mcsb");
    let format = opt(args, "--format").unwrap_or(if mcsb_path { "mcsb" } else { "mtx" });
    if !matches!(format, "mtx" | "mcsb") {
        return Err(format!("bad --format value: {format} (want mtx|mcsb)"));
    }
    if format == "mtx" && mcsb_path {
        return Err(format!("--format mtx would write Matrix Market text into {out}"));
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
