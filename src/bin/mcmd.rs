//! `mcmd` — streaming update service for dynamic maximum matching.
//!
//! Two modes share one protocol (`mcm_serve::proto`, plain text or
//! JSONL):
//!
//! * **stdin** (default, also `--input <file>`): the classic serial
//!   loop. Updates are *batched*: nothing is repaired until a `query`,
//!   `state`, `sync`, `stats`, `snapshot`, or `quit` forces a flush, so
//!   a burst of inserts costs one repair pass. Each flush prints a
//!   `batch ...` line with the per-batch repair report — the running
//!   Berge certificate described in DESIGN.md §11.
//! * **socket** (`--listen <addr>`): the concurrent daemon from
//!   `mcm-serve` (DESIGN.md §16). A worker thread per connection admits
//!   updates through a bounded queue (`busy` backpressure) into a single
//!   writer thread that batches at size/latency watermarks, while
//!   `query`/`state`/`stats`/`snapshot` answer from an epoch-published
//!   snapshot and never block behind a repair. `quit` closes one
//!   connection; `shutdown` drains and stops the daemon.
//!
//! ```text
//! insert <row> <col>      stage (stdin) / admit (socket) an edge insertion
//! delete <row> <col>      stage / admit an edge deletion
//! query                   print "matching <card>"
//! state                   print "state seq <s> epoch <e> cardinality <c> nnz <z>"
//! sync                    barrier; print "synced seq <s> cardinality <c>"
//! stats                   print cumulative engine counters
//! metrics                 dump the Prometheus registry ("# EOF" ends it)
//! snapshot <path>         write the graph as Matrix Market
//! quit                    end the session (stdin: exit; socket: this connection)
//! shutdown                stop the daemon after draining admitted updates
//! ```
//!
//! With `--backend engine`, large-dirty-set fallback recomputes run on
//! the real thread-per-rank `EngineComm` mesh (`--ranks × --threads`
//! cores) instead of the serial cost-model simulator — warm-started
//! recomputes actually use all cores. `--backend shared` routes them
//! through the fused shared-memory arena instead: same logical-rank
//! accounting, lowest wall-clock cost per recompute.
//!
//! The `mcm-obs` metrics registry is always live in `mcmd`: per-request
//! latency histograms (`mcmd_request_seconds{verb}`), per-batch repair
//! metrics and the incremental-vs-warm-start strategy counters
//! (`mcm_dyn_batches_total{strategy}`) are all served by the `metrics`
//! command. `--trace-out` additionally records spans for the whole
//! session and writes a `chrome://tracing` JSON file at exit.

use mcm_core::MatchingAlgo;
use mcm_dyn::{DynMatching, DynOptions, FallbackBackend, WDynMatching, WDynOptions, WUpdate};
use mcm_serve::proto::{parse_command, verb_of, Command, LineFramer};
use mcm_serve::{format_stats_line, format_wstats_line, Server, ServerConfig};
use mcm_sparse::io::{
    read_matrix_market_file, read_matrix_market_weighted_file, write_matrix_market_file,
    write_matrix_market_weighted_file,
};
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
mcmd — streaming update service for dynamic maximum matching

usage:
  mcmd [--weighted] [--rows n] [--cols n] [--load file.mtx] [--input file]
       [--listen addr] [--max-batch n] [--max-delay-ms ms] [--queue-cap n]
       [--fallback f] [--algo msbfs|ppf|auction|auto]
       [--backend sim|engine|shared] [--ranks p] [--threads t]
       [--trace-out file] [--full-verify] [--quiet]

  --weighted            serve maximum *weight* matching: `insert u v [w]`
                        (missing weight = 1.0), `query` answers
                        \"matching <n> weight <w>\", repairs re-auction only
                        the eps-CS-violated columns from persistent prices,
                        cold-solving only when a re-auction spends the bid
                        count of the last cold solve
  --rows n / --cols n   vertex counts of an initially empty graph (default 1024)
  --load file           start from a graph file instead (solves it first; the
                        format — Matrix Market text or MCSB binary — is sniffed
                        by content; with --weighted, entry values / MCSB values
                        become edge weights)
  --input file          read commands from a file instead of stdin
  --listen addr         serve concurrent TCP clients at addr (e.g. 127.0.0.1:7171;
                        port 0 picks a free port, printed as \"listening <addr>\").
                        Runs until a client sends `shutdown`.
  --max-batch n         socket mode: close an update batch at n updates (default 512)
  --max-delay-ms ms     socket mode: ... or this many ms after it opened (default 1)
  --queue-cap n         socket mode: admission queue bound; a full queue answers
                        `busy` (default 4096)
  --fallback f          cardinality mode: dirty fraction of n1+n2 above which
                        repair falls back to the warm-started MS-BFS driver
                        (default 0.25); ignored with --weighted
  --algo a              engine servicing fallback solves: warm-started MS-BFS
                        (msbfs, default), parallel Pothen-Fan (ppf), the
                        eps-scaled auction (auction), or a per-fallback
                        measured pick (auto)
  --backend b           run fallback recomputes on the serial cost-model
                        simulator (sim, default), the real thread-per-rank
                        mesh (engine), or the shared-memory arena (shared)
  --ranks p             engine/shared: rank count, a perfect square (default 4)
  --threads t           engine/shared: worker threads per rank (default 1)
  --trace-out file      record spans; write chrome://tracing JSON at exit
  --full-verify         re-verify the full matching after every batch
  --quiet               suppress per-batch report lines (stdin mode)

commands (one per line, plain text or JSONL {\"op\":..,\"u\":..,\"v\":..}):
  insert <row> <col> [w] | delete <row> <col> | query | state | sync | stats |
  metrics | snapshot <path> | quit | shutdown
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h" || a == "help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `mcmd --help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// `--load` for the cardinality engine: sniffs MCSB magic vs Matrix Market
/// text by content. MCSB decodes straight to a CSC frozen base (no triple
/// list); corrupt or truncated files surface as structured errors here.
fn load_card(path: &str, opts: DynOptions) -> Result<DynMatching, String> {
    match mcm_store::sniff_format(path).map_err(|e| format!("{path}: {e}"))? {
        mcm_store::GraphFormat::MatrixMarket => {
            let t = read_matrix_market_file(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(DynMatching::from_triples(&t, opts))
        }
        mcm_store::GraphFormat::Mcsb => {
            let f = mcm_store::McsbFile::open_heap(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(DynMatching::from_csc(f.to_csc(), opts))
        }
    }
}

/// `--load` for the weighted engine: Matrix Market values or a weighted
/// MCSB file become edge weights.
fn load_weighted(path: &str) -> Result<mcm_sparse::WCsc, String> {
    match mcm_store::sniff_format(path).map_err(|e| format!("{path}: {e}"))? {
        mcm_store::GraphFormat::MatrixMarket => {
            read_matrix_market_weighted_file(path).map_err(|e| format!("{path}: {e}"))
        }
        mcm_store::GraphFormat::Mcsb => {
            let f = mcm_store::McsbFile::open_heap(path).map_err(|e| format!("{path}: {e}"))?;
            f.to_wcsc().ok_or_else(|| {
                format!("{path}: MCSB file has no values (unweighted); drop --weighted")
            })
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let fallback = match opt(args, "--fallback") {
        Some(f) => f.parse::<f64>().map_err(|_| format!("bad --fallback value: {f}"))?,
        None => 0.25,
    };
    let parse_usize = |v: Option<&str>, what: &str, default: usize| -> Result<usize, String> {
        match v {
            Some(s) => s.parse().map_err(|_| format!("bad {what} value: {s}")),
            None => Ok(default),
        }
    };
    let backend = match opt(args, "--backend") {
        None | Some("sim") => FallbackBackend::Simulator,
        Some(kind @ ("engine" | "shared")) => {
            let p = parse_usize(opt(args, "--ranks"), "--ranks", 4)?;
            let dim = (p as f64).sqrt().round() as usize;
            if p == 0 || dim * dim != p {
                return Err(format!("--ranks must be a positive perfect square, got {p}"));
            }
            let threads = parse_usize(opt(args, "--threads"), "--threads", 1)?;
            if threads == 0 {
                return Err("--threads must be positive".to_string());
            }
            if kind == "engine" {
                FallbackBackend::Engine { p, threads }
            } else {
                FallbackBackend::Shared { p, threads }
            }
        }
        Some(other) => {
            return Err(format!("bad --backend value: {other} (want sim|engine|shared)"))
        }
    };
    let algo: MatchingAlgo = match opt(args, "--algo") {
        Some(s) => s.parse()?,
        None => MatchingAlgo::MsBfs,
    };
    let opts = DynOptions {
        fallback_threshold: fallback,
        full_verify: args.iter().any(|a| a == "--full-verify"),
        backend,
        algo,
        ..DynOptions::default()
    };
    let quiet = args.iter().any(|a| a == "--quiet");

    // The registry is the service's own telemetry (request latencies,
    // per-batch repair counters, strategy decisions); the `metrics`
    // command serves it, so it is always live.
    mcm_obs::enable_metrics(true);
    let trace_out = opt(args, "--trace-out").map(str::to_string);
    if trace_out.is_some() {
        mcm_obs::enable_tracing(true);
        drop(mcm_obs::take_trace()); // start the session from an empty sink
    }

    let listen_cfg = |addr: &str| -> Result<ServerConfig, String> {
        Ok(ServerConfig {
            addr: addr.to_string(),
            max_batch: parse_usize(opt(args, "--max-batch"), "--max-batch", 512)?,
            max_delay: Duration::from_millis(parse_usize(
                opt(args, "--max-delay-ms"),
                "--max-delay-ms",
                1,
            )? as u64),
            queue_cap: parse_usize(opt(args, "--queue-cap"), "--queue-cap", 4096)?,
            on_apply: None,
        })
    };

    let served = if args.iter().any(|a| a == "--weighted") {
        let wopts = WDynOptions {
            threads: parse_usize(opt(args, "--threads"), "--threads", 1)?,
            full_verify: args.iter().any(|a| a == "--full-verify"),
            ..WDynOptions::default()
        };
        let mut wm = match opt(args, "--load") {
            Some(path) => {
                let a = load_weighted(path)?;
                let (n1, n2) = (a.nrows(), a.ncols());
                let wm = WDynMatching::from_wcsc(a, wopts);
                println!(
                    "loaded {} {}x{} nnz {} matching {} weight {}",
                    path,
                    n1,
                    n2,
                    wm.nnz(),
                    wm.cardinality(),
                    wm.weight()
                );
                wm
            }
            None => {
                let n1 = parse_usize(opt(args, "--rows"), "--rows", 1024)?;
                let n2 = parse_usize(opt(args, "--cols"), "--cols", 1024)?;
                WDynMatching::new(n1, n2, wopts)
            }
        };
        match opt(args, "--listen") {
            Some(addr) => {
                let server = Server::start_weighted(wm, listen_cfg(addr)?)
                    .map_err(|e| format!("{addr}: {e}"))?;
                println!("listening {}", server.local_addr());
                std::io::stdout().flush().ok();
                let wm = server.join().expect_weighted();
                println!(
                    "shutdown cardinality {} weight {} nnz {}",
                    wm.cardinality(),
                    wm.weight(),
                    wm.nnz()
                );
                Ok(())
            }
            None => match opt(args, "--input") {
                Some(path) => {
                    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
                    serve_weighted(&mut wm, std::io::BufReader::new(f), quiet)
                }
                None => serve_weighted(&mut wm, std::io::stdin().lock(), quiet),
            },
        }
    } else {
        let mut dm = match opt(args, "--load") {
            Some(path) => {
                let dm = load_card(path, opts)?;
                println!(
                    "loaded {} {}x{} nnz {} matching {}",
                    path,
                    dm.graph().n1(),
                    dm.graph().n2(),
                    dm.graph().nnz(),
                    dm.cardinality()
                );
                dm
            }
            None => {
                let n1 = parse_usize(opt(args, "--rows"), "--rows", 1024)?;
                let n2 = parse_usize(opt(args, "--cols"), "--cols", 1024)?;
                DynMatching::new(n1, n2, opts)
            }
        };
        match opt(args, "--listen") {
            Some(addr) => {
                let server =
                    Server::start(dm, listen_cfg(addr)?).map_err(|e| format!("{addr}: {e}"))?;
                println!("listening {}", server.local_addr());
                std::io::stdout().flush().ok();
                // Blocks until a client sends `shutdown`; admitted updates
                // are drained before the engine comes back.
                let dm = server.join().expect_card();
                println!("shutdown cardinality {} nnz {}", dm.cardinality(), dm.graph().nnz());
                Ok(())
            }
            None => match opt(args, "--input") {
                Some(path) => {
                    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
                    serve(&mut dm, std::io::BufReader::new(f), quiet)
                }
                None => serve(&mut dm, std::io::stdin().lock(), quiet),
            },
        }
    };
    if let Some(path) = trace_out {
        mcm_obs::enable_tracing(false);
        let trace = mcm_obs::take_trace();
        std::fs::write(&path, trace.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote chrome://tracing JSON ({} events) to {path}", trace.events.len());
    }
    served
}

fn serve(dm: &mut DynMatching, mut input: impl BufRead, quiet: bool) -> Result<(), String> {
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut staged: Vec<mcm_dyn::Update> = Vec::new();
    let (n1, n2) = (dm.graph().n1(), dm.graph().n2());
    let mut framer = LineFramer::new();

    'session: loop {
        let chunk = input.fill_buf().map_err(|e| format!("read error: {e}"))?;
        if chunk.is_empty() {
            // EOF. A half-received final command is reported, never run.
            if let Err(e) = framer.finish() {
                writeln!(out, "error line {}: {e}", framer.lines_seen() + 1).ok();
            }
            break;
        }
        let n = chunk.len();
        let lines = framer.push(chunk);
        input.consume(n);
        let mut lineno = framer.lines_seen() - lines.len() as u64;
        for line in lines {
            lineno += 1;
            if handle_stdin_line(dm, &line, lineno, &mut staged, &mut out, quiet, n1, n2) {
                break 'session;
            }
            out.flush().ok();
        }
    }
    // EOF flushes too, so piped traces that end in updates still repair.
    flush(dm, &mut staged, &mut out, quiet);
    out.flush().ok();
    Ok(())
}

/// Handles one stdin-mode line; returns `true` when the session ends.
#[allow(clippy::too_many_arguments)]
fn handle_stdin_line(
    dm: &mut DynMatching,
    line: &str,
    lineno: u64,
    staged: &mut Vec<mcm_dyn::Update>,
    out: &mut impl Write,
    quiet: bool,
    n1: usize,
    n2: usize,
) -> bool {
    let cmd = match parse_command(line) {
        Ok(Some(cmd)) => cmd,
        Ok(None) => return false,
        Err(e) => {
            writeln!(out, "error line {lineno}: {e}").ok();
            return false;
        }
    };
    let sw = mcm_obs::Stopwatch::new();
    let verb = verb_of(&cmd);
    // Range-check updates here so the engine can keep dense scratch.
    if let Command::Insert(r, c, w) = cmd {
        if r as usize >= n1 || c as usize >= n2 {
            writeln!(out, "error line {lineno}: vertex out of range ({r}, {c})").ok();
        } else if w.is_some_and(|w| w != 1.0) {
            writeln!(out, "error line {lineno}: weighted insert needs a --weighted daemon").ok();
        } else {
            staged.push(mcm_dyn::Update::Insert(r, c));
        }
        mcm_obs::observe_ns("mcmd_request_seconds", &[("verb", verb)], sw.elapsed_ns());
        return false;
    }
    if let Command::Delete(r, c) = cmd {
        if r as usize >= n1 || c as usize >= n2 {
            writeln!(out, "error line {lineno}: vertex out of range ({r}, {c})").ok();
        } else {
            staged.push(mcm_dyn::Update::Delete(r, c));
        }
        mcm_obs::observe_ns("mcmd_request_seconds", &[("verb", verb)], sw.elapsed_ns());
        return false;
    }
    flush(dm, staged, out, quiet);
    let ends = matches!(cmd, Command::Quit | Command::Shutdown);
    match cmd {
        Command::Query => {
            writeln!(out, "matching {}", dm.cardinality()).ok();
        }
        Command::State => {
            // The stdin loop is serial, so the batch counter doubles as
            // the writer sequence number of the socket mode.
            writeln!(
                out,
                "state seq {} epoch {} cardinality {} nnz {}",
                dm.stats().batches,
                dm.graph().epoch(),
                dm.cardinality(),
                dm.graph().nnz()
            )
            .ok();
        }
        Command::Sync => {
            writeln!(out, "synced seq {} cardinality {}", dm.stats().batches, dm.cardinality())
                .ok();
        }
        Command::Stats => {
            let line = format_stats_line(
                dm.stats(),
                dm.cardinality(),
                dm.graph().nnz(),
                dm.graph().epoch(),
                dm.opts().algo.name(),
            );
            writeln!(out, "{line}").ok();
        }
        Command::Metrics => {
            out.write_all(mcm_obs::prom::expose(mcm_obs::registry()).as_bytes()).ok();
            writeln!(out, "# EOF").ok();
        }
        Command::Snapshot(path) => {
            match write_matrix_market_file(&dm.graph().to_triples(), &path) {
                Ok(()) => {
                    writeln!(out, "snapshot {} nnz {}", path, dm.graph().nnz()).ok();
                }
                Err(e) => {
                    writeln!(out, "error line {lineno}: {path}: {e}").ok();
                }
            }
        }
        Command::Quit | Command::Shutdown => {}
        Command::Insert(..) | Command::Delete(..) => unreachable!("staged above"),
    }
    mcm_obs::observe_ns("mcmd_request_seconds", &[("verb", verb)], sw.elapsed_ns());
    ends
}

fn flush(
    dm: &mut DynMatching,
    staged: &mut Vec<mcm_dyn::Update>,
    out: &mut impl Write,
    quiet: bool,
) {
    if staged.is_empty() {
        return;
    }
    let rep = dm.apply_batch(staged);
    staged.clear();
    if !quiet {
        writeln!(
            out,
            "batch applied {} dirty {} repaired {} path_edges {} sweeps {} fallback {} \
             cert {:?} seeds {} cardinality {}",
            rep.applied,
            rep.dirty,
            rep.repaired,
            rep.repair_path_edges,
            rep.global_sweeps,
            rep.fallback,
            rep.cert_scope,
            rep.cert_seeds,
            rep.cardinality,
        )
        .ok();
    }
}

/// The stdin loop of `mcmd --weighted`: same batching discipline as
/// [`serve`], repairs via the price-carrying weighted engine.
fn serve_weighted(
    wm: &mut WDynMatching,
    mut input: impl BufRead,
    quiet: bool,
) -> Result<(), String> {
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut staged: Vec<WUpdate> = Vec::new();
    let (n1, n2) = (wm.graph().nrows(), wm.graph().ncols());
    let mut framer = LineFramer::new();

    'session: loop {
        let chunk = input.fill_buf().map_err(|e| format!("read error: {e}"))?;
        if chunk.is_empty() {
            if let Err(e) = framer.finish() {
                writeln!(out, "error line {}: {e}", framer.lines_seen() + 1).ok();
            }
            break;
        }
        let n = chunk.len();
        let lines = framer.push(chunk);
        input.consume(n);
        let mut lineno = framer.lines_seen() - lines.len() as u64;
        for line in lines {
            lineno += 1;
            if handle_weighted_line(wm, &line, lineno, &mut staged, &mut out, quiet, n1, n2) {
                break 'session;
            }
            out.flush().ok();
        }
    }
    flush_weighted(wm, &mut staged, &mut out, quiet);
    out.flush().ok();
    Ok(())
}

/// Handles one weighted stdin-mode line; returns `true` at session end.
#[allow(clippy::too_many_arguments)]
fn handle_weighted_line(
    wm: &mut WDynMatching,
    line: &str,
    lineno: u64,
    staged: &mut Vec<WUpdate>,
    out: &mut impl Write,
    quiet: bool,
    n1: usize,
    n2: usize,
) -> bool {
    let cmd = match parse_command(line) {
        Ok(Some(cmd)) => cmd,
        Ok(None) => return false,
        Err(e) => {
            writeln!(out, "error line {lineno}: {e}").ok();
            return false;
        }
    };
    let sw = mcm_obs::Stopwatch::new();
    let verb = verb_of(&cmd);
    match cmd {
        Command::Insert(r, c, w) => {
            if r as usize >= n1 || c as usize >= n2 {
                writeln!(out, "error line {lineno}: vertex out of range ({r}, {c})").ok();
            } else {
                staged.push(WUpdate::Insert(r, c, w.unwrap_or(1.0)));
            }
            mcm_obs::observe_ns("mcmd_request_seconds", &[("verb", verb)], sw.elapsed_ns());
            return false;
        }
        Command::Delete(r, c) => {
            if r as usize >= n1 || c as usize >= n2 {
                writeln!(out, "error line {lineno}: vertex out of range ({r}, {c})").ok();
            } else {
                staged.push(WUpdate::Delete(r, c));
            }
            mcm_obs::observe_ns("mcmd_request_seconds", &[("verb", verb)], sw.elapsed_ns());
            return false;
        }
        _ => {}
    }
    flush_weighted(wm, staged, out, quiet);
    let ends = matches!(cmd, Command::Quit | Command::Shutdown);
    match cmd {
        Command::Query => {
            writeln!(out, "matching {} weight {}", wm.cardinality(), wm.weight()).ok();
        }
        Command::State => {
            writeln!(
                out,
                "state seq {} epoch {} cardinality {} nnz {} weight {}",
                wm.stats().batches,
                wm.epoch(),
                wm.cardinality(),
                wm.nnz(),
                wm.weight()
            )
            .ok();
        }
        Command::Sync => {
            writeln!(out, "synced seq {} cardinality {}", wm.stats().batches, wm.cardinality())
                .ok();
        }
        Command::Stats => {
            let line =
                format_wstats_line(wm.stats(), wm.cardinality(), wm.weight(), wm.nnz(), wm.epoch());
            writeln!(out, "{line}").ok();
        }
        Command::Metrics => {
            out.write_all(mcm_obs::prom::expose(mcm_obs::registry()).as_bytes()).ok();
            writeln!(out, "# EOF").ok();
        }
        Command::Snapshot(path) => {
            let written =
                write_matrix_market_weighted_file(n1, n2, &wm.graph().to_weighted_triples(), &path);
            match written {
                Ok(()) => {
                    writeln!(out, "snapshot {} nnz {}", path, wm.nnz()).ok();
                }
                Err(e) => {
                    writeln!(out, "error line {lineno}: {path}: {e}").ok();
                }
            }
        }
        Command::Quit | Command::Shutdown => {}
        Command::Insert(..) | Command::Delete(..) => unreachable!("staged above"),
    }
    mcm_obs::observe_ns("mcmd_request_seconds", &[("verb", verb)], sw.elapsed_ns());
    ends
}

fn flush_weighted(
    wm: &mut WDynMatching,
    staged: &mut Vec<WUpdate>,
    out: &mut impl Write,
    quiet: bool,
) {
    if staged.is_empty() {
        return;
    }
    let rep = wm.apply_batch(staged);
    staged.clear();
    if !quiet {
        writeln!(
            out,
            "batch applied {} dirty {} repaired {} rebids {} budget {} cold {} weight_delta {} \
             weight {} cardinality {}",
            rep.applied,
            rep.dirty,
            rep.repaired,
            rep.rebids,
            rep.budget,
            rep.cold,
            rep.weight_delta,
            rep.weight,
            rep.cardinality,
        )
        .ok();
    }
}
