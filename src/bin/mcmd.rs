//! `mcmd` — streaming update service for dynamic maximum matching.
//!
//! Two modes share one protocol (`mcm_serve::proto`, plain text or
//! JSONL):
//!
//! * **stdin** (default, also `--input <file>`): the serial session of
//!   `mcm_serve::session`. Updates are *batched*: nothing is repaired
//!   until a `query`, `state`, `sync`, `stats`, `snapshot`, or `quit`
//!   forces a flush, so a burst of inserts costs one repair pass. Each
//!   flush prints a `batch ...` line with the per-batch repair report —
//!   the running Berge certificate described in DESIGN.md §11.
//! * **socket** (`--listen <addr>`): the concurrent daemon from
//!   `mcm-serve` (DESIGN.md §16). A worker thread per connection admits
//!   updates through a bounded queue (`busy` backpressure) into a single
//!   writer thread that batches at size/latency watermarks, while
//!   `query`/`state`/`stats` answer from an epoch-published snapshot
//!   and never block behind a repair. `sync` and `snapshot` are
//!   barriers: they answer once everything admitted before them is
//!   applied. `quit` closes one connection; `shutdown` drains and stops
//!   the daemon.
//!
//! Both modes admit updates and answer read verbs through the same
//! `mcm_serve::engine` functions, generic over the `Repair` trait; this
//! binary only parses flags, builds the engine `--weighted` names, and
//! hands it to one generic `serve`.
//!
//! ```text
//! insert <row> <col>      stage (stdin) / admit (socket) an edge insertion
//! delete <row> <col>      stage / admit an edge deletion
//! query                   print "matching <card>"
//! state                   print "state seq <s> epoch <e> cardinality <c> nnz <z>"
//! sync                    barrier; print "synced seq <s> cardinality <c>"
//! stats                   print cumulative engine counters
//! metrics                 dump the Prometheus registry ("# EOF" ends it)
//! snapshot <path>         barrier; write the graph as Matrix Market
//! quit                    end the session (stdin: exit; socket: this connection)
//! shutdown                stop the daemon after draining admitted updates
//! ```
//!
//! When a batch dirties more than `--fallback` of the vertices, the
//! cardinality engine recomputes with serial MS-BFS warm-started from the
//! stale matching (`mcm_core::serial::ms_bfs_serial`); the `stats` line
//! names it `algo msbfs-serial`. `--threads` sizes the weighted engine's
//! auction; it and `--queue-cap` must be at least 1, checked in both
//! modes. An unknown flag is an error naming it.
//!
//! The `mcm-obs` metrics registry is always live in `mcmd`: per-request
//! latency histograms (`mcmd_request_seconds{verb}`), per-batch repair
//! metrics and the incremental-vs-warm-start strategy counters
//! (`mcm_dyn_batches_total{strategy}`) are all served by the `metrics`
//! command. `--trace-out` additionally records spans for the whole
//! session and writes a `chrome://tracing` JSON file at exit.

use mcm_dyn::{DynMatching, DynOptions, WDynMatching, WDynOptions};
use mcm_serve::{run_session, Repair, Server, ServerConfig};
use mcm_sparse::io::read_matrix_market_file;
use mcm_store::{GraphFormat, McsbFile, StoreError};
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
mcmd — streaming update service for dynamic maximum matching

usage:
  mcmd [--weighted] [--rows n] [--cols n] [--load file] [--input file]
       [--listen addr] [--max-batch n] [--max-delay-ms ms] [--queue-cap n]
       [--fallback f] [--threads t] [--trace-out file] [--full-verify] [--quiet]

  --weighted            serve maximum *weight* matching: `insert u v [w]`
                        (missing weight = 1.0), `query` answers
                        \"matching <n> weight <w>\", repairs bid from
                        persistent prices (forward from eps-CS-violated
                        columns, reverse from freed rows), cold-solving
                        only when a repair spends the bid count of the last
                        cold solve
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
  --queue-cap n         socket mode: admission queue bound, at least 1; a full
                        queue answers `busy` (default 4096)
  --fallback f          cardinality mode: fraction of n1+n2 that a batch's
                        still-free dirty vertices must reach for repair to
                        fall back to serial MS-BFS warm-started from the
                        stale matching (default 0.018); ignored with
                        --weighted
  --threads t           with --weighted, the auction's worker threads (default 1)
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

/// Flags that take a value, and flags that take none.
const VALUED: [&str; 11] = [
    "--rows",
    "--cols",
    "--load",
    "--input",
    "--listen",
    "--max-batch",
    "--max-delay-ms",
    "--queue-cap",
    "--fallback",
    "--threads",
    "--trace-out",
];
const SWITCHES: [&str; 3] = ["--weighted", "--full-verify", "--quiet"];

/// Rejects the first flag `mcmd` does not take, naming it.
fn check_flags(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if VALUED.contains(&a.as_str()) {
            it.next();
        } else if a.starts_with("--") && !SWITCHES.contains(&a.as_str()) {
            return Err(format!("unknown flag: {a}"));
        }
    }
    Ok(())
}

fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// `--load` for the cardinality engine: sniffs MCSB magic vs Matrix Market
/// text by content. MCSB decodes straight to a CSC frozen base (no triple
/// list); corrupt or truncated files surface as structured errors here.
fn load_card(path: &str, opts: DynOptions) -> Result<DynMatching, String> {
    match mcm_store::sniff_format(path).map_err(|e| format!("{path}: {e}"))? {
        GraphFormat::MatrixMarket => {
            let t = read_matrix_market_file(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(DynMatching::from_triples(&t, opts))
        }
        GraphFormat::Mcsb => {
            let f = McsbFile::open_heap(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(DynMatching::from_csc(f.to_csc(), opts))
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    check_flags(args)?;
    let fallback = match opt(args, "--fallback") {
        Some(f) => f.parse::<f64>().map_err(|_| format!("bad --fallback value: {f}"))?,
        None => DynOptions::default().fallback_threshold,
    };
    let parse_usize = |v: Option<&str>, what: &str, default: usize| -> Result<usize, String> {
        match v {
            Some(s) => s.parse().map_err(|_| format!("bad {what} value: {s}")),
            None => Ok(default),
        }
    };
    let threads = parse_usize(opt(args, "--threads"), "--threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let cfg = ServerConfig {
        addr: opt(args, "--listen").unwrap_or_default().to_string(),
        max_batch: parse_usize(opt(args, "--max-batch"), "--max-batch", 512)?,
        max_delay: Duration::from_millis(parse_usize(
            opt(args, "--max-delay-ms"),
            "--max-delay-ms",
            1,
        )? as u64),
        queue_cap: parse_usize(opt(args, "--queue-cap"), "--queue-cap", 4096)?,
        on_apply: None,
    };
    if cfg.queue_cap == 0 {
        return Err("--queue-cap must be at least 1".into());
    }
    let full_verify = args.iter().any(|a| a == "--full-verify");

    // The registry is the service's own telemetry (request latencies,
    // per-batch repair counters, strategy decisions); the `metrics`
    // command serves it, so it is always live.
    mcm_obs::enable_metrics(true);
    let trace_out = opt(args, "--trace-out").map(str::to_string);
    if trace_out.is_some() {
        mcm_obs::enable_tracing(true);
        drop(mcm_obs::take_trace()); // start the session from an empty sink
    }

    let dims = || -> Result<(usize, usize), String> {
        Ok((
            parse_usize(opt(args, "--rows"), "--rows", 1024)?,
            parse_usize(opt(args, "--cols"), "--cols", 1024)?,
        ))
    };
    let served = if args.iter().any(|a| a == "--weighted") {
        let wopts = WDynOptions { threads, full_verify, ..WDynOptions::default() };
        let wm = match opt(args, "--load") {
            Some(path) => {
                let a = mcm_store::load_weighted(path).map_err(|e| match e {
                    StoreError::Unweighted => format!("{path}: {e}; drop --weighted"),
                    e => format!("{path}: {e}"),
                })?;
                WDynMatching::from_wcsc(a, wopts)
            }
            None => {
                let (n1, n2) = dims()?;
                WDynMatching::new(n1, n2, wopts)
            }
        };
        serve(wm, args, cfg)
    } else {
        let opts = DynOptions { fallback_threshold: fallback, full_verify };
        let dm = match opt(args, "--load") {
            Some(path) => load_card(path, opts)?,
            None => {
                let (n1, n2) = dims()?;
                DynMatching::new(n1, n2, opts)
            }
        };
        serve(dm, args, cfg)
    };
    if let Some(path) = trace_out {
        mcm_obs::enable_tracing(false);
        let trace = mcm_obs::take_trace();
        std::fs::write(&path, trace.to_chrome_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote chrome://tracing JSON ({} events) to {path}", trace.events.len());
    }
    served
}

/// Serves `engine`: over TCP with `--listen`, else as the stdin (or
/// `--input`) session.
fn serve<R: Repair>(mut engine: R, args: &[String], cfg: ServerConfig) -> Result<(), String> {
    if let Some(path) = opt(args, "--load") {
        let (s, (n1, n2)) = (R::summary(&engine.state()), engine.dims());
        println!(
            "loaded {path} {n1}x{n2} nnz {} matching {}{}",
            s.nnz,
            s.cardinality,
            s.weight_field()
        );
    }
    if let Some(addr) = opt(args, "--listen") {
        let server = Server::start(engine, cfg).map_err(|e| format!("{addr}: {e}"))?;
        println!("listening {}", server.local_addr());
        std::io::stdout().flush().ok();
        // Blocks until a client sends `shutdown`; admitted updates are
        // drained before the engine comes back.
        let s = R::summary(&server.join().state());
        println!("shutdown cardinality {}{} nnz {}", s.cardinality, s.weight_field(), s.nnz);
        return Ok(());
    }
    let input: Box<dyn BufRead> = match opt(args, "--input") {
        Some(path) => Box::new(std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?,
        )),
        None => Box::new(std::io::stdin().lock()),
    };
    let quiet = args.iter().any(|a| a == "--quiet");
    run_session(&mut engine, input, std::io::stdout().lock(), quiet)
}
