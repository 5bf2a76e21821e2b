//! Library probe of the benchmark's traced run. It times calls into each
//! layer's public functions on the benchmark's own inputs and prints one
//! `key value` line per figure.
//!
//! ```text
//! probe solve <file.mcsb> [--ranks p] [--threads t]
//!     store: McsbFile::open + view; bsp: grid assembly; core: the
//!     initializer, the MS-BFS phase loop, the Berge certificate and the
//!     portfolio selector's measurement; sparse: SpMSpV workspace counters
//! probe serve <file.mcsb> <stream.txt> [--weighted]
//!     dyn: apply_batch per window; serve: the snapshot the daemon
//!     publishes after each batch (a clone of the engine state)
//! ```
//!
//! The stream file holds `insert r c [w]` and `delete r c` lines; each
//! `sync` line closes a batch, as it does in the daemon.

use mcm_bsp::{Communicator, DistMatrix, SharedComm};
use mcm_core::mcm::{run_phases, McmOptions, McmStats};
use mcm_core::verify::verify_view;
use mcm_core::{Matching, SelectorStats};
use mcm_dyn::{DynMatching, DynOptions, Update, WDynMatching, WDynOptions, WUpdate};
use mcm_sparse::permute::{relabel_permutations, Permutation};
use mcm_sparse::{Triples, Vidx, NIL};
use mcm_store::McsbFile;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = match args.first().map(String::as_str) {
        Some("solve") => solve(&args[1..]),
        Some("serve") => serve(&args[1..]),
        _ => Err("usage: probe solve <file.mcsb> | probe serve <file.mcsb> <stream.txt>".into()),
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("probe: {e}");
            ExitCode::FAILURE
        }
    }
}

fn opt(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&v| v > 0)
            .ok_or_else(|| format!("bad {flag} value")),
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One MS-BFS solve split at the layer boundaries `mcm match --algo dist
/// --backend shared` crosses, with the same options and backend.
fn solve(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing input file")?;
    let ranks = opt(args, "--ranks", 4)?;
    let threads = opt(args, "--threads", 1)?;
    let opts = McmOptions::default();

    let all = Instant::now();
    let t = Instant::now();
    let file = McsbFile::open(path).map_err(|e| format!("{path}: {e}"))?;
    let v = file.view();
    let open_ms = ms(t);

    let t = Instant::now();
    let mut comm = SharedComm::new(ranks, threads);
    let perms = opts.permute_seed.map(|s| relabel_permutations(v.nrows(), v.ncols(), s));
    let (rowp, colp) = (perms.as_ref().map(|p| &p.0), perms.as_ref().map(|p| &p.1));
    let (epr, epc) = comm.exec_grid();
    let (a, at) = DistMatrix::with_grid_csc_pair(&v, epr, epc, rowp, colp);
    let assemble_ms = ms(t);

    let t = Instant::now();
    let mut m = opts.init.run(&mut comm, &a, &at, opts.seed);
    let init_ms = ms(t);

    let t = Instant::now();
    let mut stats = McmStats::default();
    run_phases(&mut comm, &a, Some(&at), &mut m, &opts, &mut stats);
    let phases_ms = ms(t);

    let t = Instant::now();
    let m = match &perms {
        Some((rowp, colp)) => unpermute(&m, rowp, colp),
        None => m,
    };
    let unpermute_ms = ms(t);

    let t = Instant::now();
    verify_view(&v, &m).map_err(|e| format!("certificate failed: {e}"))?;
    let verify_ms = ms(t);
    let wall_ms = ms(all);

    // `--algo auto` measures the graph from an owned edge list.
    let t = Instant::now();
    let triples = Triples::from_edges(v.nrows(), v.ncols(), v.iter().collect());
    let select_input_ms = ms(t);
    let t = Instant::now();
    let sel = SelectorStats::measure(&triples);
    let select_ms = ms(t);

    println!("cardinality {}", m.cardinality());
    println!("open_ms {open_ms}");
    println!("assemble_ms {assemble_ms}");
    println!("init_ms {init_ms}");
    println!("phases_ms {phases_ms}");
    println!("unpermute_ms {unpermute_ms}");
    println!("verify_ms {verify_ms}");
    println!("wall_ms {wall_ms}");
    println!("phases {}", stats.phases);
    println!("bfs_iters {}", stats.iterations);
    println!("spmv_calls {}", stats.spmv_workspace_calls);
    println!("spmv_reuse_hits {}", stats.spmv_workspace_hits);
    println!("select_input_ms {select_input_ms}");
    println!("select_ms {select_ms}");
    println!("select_pick {}", sel.choose().name());
    Ok(())
}

fn unpermute(m: &Matching, rowp: &Permutation, colp: &Permutation) -> Matching {
    let (rinv, cinv) = (rowp.inverse(), colp.inverse());
    let mut out = Matching::empty(m.n1(), m.n2());
    for jp in 0..m.n2() as Vidx {
        let ip = m.mate_c.get(jp);
        if ip != NIL {
            out.add(rinv.apply(ip), cinv.apply(jp));
        }
    }
    out
}

/// One staged update: insert (with weight) or delete of `(row, col)`.
type Staged = (bool, Vidx, Vidx, f64);

/// Reads the stream into batches.
fn read_stream(path: &str) -> Result<Vec<Vec<Staged>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut batches = Vec::new();
    let mut batch = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let w: Vec<&str> = line.split_whitespace().collect();
        let num = |k: usize| -> Result<Vidx, String> {
            w.get(k).and_then(|s| s.parse().ok()).ok_or(format!("{path}:{}: bad line", i + 1))
        };
        match w.first().copied() {
            Some("sync") => batches.push(std::mem::take(&mut batch)),
            Some("insert") => {
                let weight = w.get(3).and_then(|s| s.parse().ok()).unwrap_or(1.0);
                batch.push((true, num(1)?, num(2)?, weight));
            }
            Some("delete") => batch.push((false, num(1)?, num(2)?, 0.0)),
            Some("query") | None => {}
            Some(other) => return Err(format!("{path}:{}: unknown verb {other}", i + 1)),
        }
    }
    Ok(batches)
}

/// Replays the stream through the engine the daemon runs (options as
/// `mcmd` sets them by default), timing each batch's repair and the
/// snapshot published after it.
fn serve(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing input file")?;
    let stream = args.get(1).ok_or("missing stream file")?;
    let weighted = args.iter().any(|a| a == "--weighted");
    let batches = read_stream(stream)?;
    let file = McsbFile::open_heap(path).map_err(|e| format!("{path}: {e}"))?;
    let (mut apply_ms, mut publish_ms) = (0.0, 0.0);
    let (cardinality, weight) = if weighted {
        let a = file.to_wcsc().ok_or("MCSB file has no values")?;
        let wopts = WDynOptions { fallback_threshold: 0.25, threads: 1, ..WDynOptions::default() };
        let mut wm = WDynMatching::from_wcsc(a, wopts);
        for b in &batches {
            let ups: Vec<WUpdate> = b
                .iter()
                .map(|&(ins, r, c, w)| if ins { WUpdate::Insert(r, c, w) } else { WUpdate::Delete(r, c) })
                .collect();
            let t = Instant::now();
            wm.apply_batch(&ups);
            apply_ms += ms(t);
            let t = Instant::now();
            drop(wm.snapshot_state());
            publish_ms += ms(t);
        }
        (wm.cardinality(), wm.weight())
    } else {
        let opts = DynOptions { fallback_threshold: 0.25, ..DynOptions::default() };
        let mut dm = DynMatching::from_csc(file.to_csc(), opts);
        for b in &batches {
            let ups: Vec<Update> = b
                .iter()
                .map(|&(ins, r, c, _)| if ins { Update::Insert(r, c) } else { Update::Delete(r, c) })
                .collect();
            let t = Instant::now();
            dm.apply_batch(&ups);
            apply_ms += ms(t);
            let t = Instant::now();
            drop(dm.snapshot_state());
            publish_ms += ms(t);
        }
        (dm.cardinality(), 0.0)
    };
    let n = batches.len().max(1) as f64;
    println!("batches {}", batches.len());
    println!("apply_ms {}", apply_ms / n);
    println!("publish_ms {}", publish_ms / n);
    println!("cardinality {cardinality}");
    println!("weight {weight}");
    Ok(())
}
