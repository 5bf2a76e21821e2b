//! `serve_load` — loopback load harness for the `mcmd` socket daemon.
//!
//! Starts an in-process [`mcm_serve::Server`], drives it with the
//! closed- and open-loop generators from `mcm_serve::load`, cross-checks
//! the client-side response counts and percentiles against the daemon's
//! own `mcmd_request_seconds{verb}` Prometheus histograms (same process,
//! same registry), and writes `BENCH_serve.json`.
//!
//! ```text
//! serve_load [--conns n] [--secs s] [--rows n] [--cols n]
//!            [--rate r] [--weighted] [--out path]
//! ```
//!
//! With `--weighted` the daemon runs the weighted engine: inserts carry
//! integer weights and `query` responses are validated against the
//! `matching <n> weight <w>` shape.
//!
//! Exits non-zero if any response was corrupted, any read was dropped,
//! the daemon's histogram disagrees with the client's ledger, or the
//! drained engine fails its certificate (Berge, or ε-CS when weighted) —
//! `BENCH_serve.json` is only written by a clean run. The file records
//! the host (cores, CPU model), the commit (`git describe --dirty`) and
//! the command line.

use mcm_dyn::{DynMatching, DynOptions, WDynMatching, WDynOptions};
use mcm_serve::{report_summary, run_load, LoadConfig, LoadMode, Repair, Server, ServerConfig};
use std::process::ExitCode;
use std::time::Duration;

fn opt(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    opt(args, flag).and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Server-side observation count + bucket-resolved percentiles for one
/// verb, from the shared in-process registry.
fn server_view(verb: &str) -> (u64, f64, f64) {
    let h = mcm_obs::registry().histogram("mcmd_request_seconds", &[("verb", verb)]);
    (h.count(), h.quantile_ns(0.50) as f64 / 1_000.0, h.quantile_ns(0.99) as f64 / 1_000.0)
}

/// A JSON string literal.
fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows: usize = num(&args, "--rows", 2048);
    let cols: usize = num(&args, "--cols", 2048);
    if args.iter().any(|a| a == "--weighted") {
        drive(WDynMatching::new(rows, cols, WDynOptions::default()), &args)
    } else {
        drive(DynMatching::new(rows, cols, DynOptions::default()), &args)
    }
}

/// Serves `engine`, loads it in both modes, and writes the report.
fn drive<R: Repair>(engine: R, args: &[String]) -> ExitCode {
    let conns: usize = num(args, "--conns", 256);
    let secs: f64 = num(args, "--secs", 2.0);
    let rate: f64 = num(args, "--rate", 25.0);
    let weighted = R::WEIGHTED;
    let (rows, cols) = engine.dims();
    let default_out = if weighted { "BENCH_serve_weighted.json" } else { "BENCH_serve.json" };
    let out_path = opt(args, "--out").unwrap_or_else(|| default_out.to_string());

    mcm_obs::enable_metrics(true);
    let server = match Server::start(engine, ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve_load: failed to start daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    eprintln!(
        "serve_load: {} daemon at {addr}, {conns} connections, {secs}s per mode",
        if weighted { "weighted" } else { "cardinality" }
    );

    let mut blocks = Vec::new();
    let mut failed = false;
    for mode in [LoadMode::Closed, LoadMode::Open] {
        let before: Vec<(u64, f64, f64)> =
            ["insert", "delete", "query"].iter().map(|v| server_view(v)).collect();
        let cfg = LoadConfig {
            addr,
            connections: conns,
            duration: Duration::from_secs_f64(secs),
            mode,
            rate_per_conn: rate,
            rows,
            cols,
            query_every: 8,
            weighted,
            seed: 0x5EED,
        };
        let report = match run_load(&cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("serve_load: {} run failed: {e}", mode.name());
                failed = true;
                continue;
            }
        };
        // Cross-check against the daemon's histograms: the server must
        // have observed at least every response the clients received
        // (it also observes requests whose response was never read).
        let mut extra = String::new();
        extra.push_str("      \"server\": [\n");
        for (i, verb) in ["insert", "delete", "query"].iter().enumerate() {
            let (count, p50, p99) = server_view(verb);
            let delta = count - before[i].0;
            let client = report.verbs.iter().find(|v| v.verb == *verb).map_or(0, |v| v.count);
            if delta < client {
                eprintln!(
                    "serve_load: CROSS-CHECK FAILED: {} mode, verb {verb}: daemon observed \
                     {delta} requests but clients hold {client} responses",
                    mode.name()
                );
                failed = true;
            }
            extra.push_str(&format!(
                "        {{\"verb\": \"{verb}\", \"count\": {delta}, \
                 \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}}}{}\n",
                if i < 2 { "," } else { "" }
            ));
        }
        extra.push_str("      ]");
        if report.corrupted > 0 {
            eprintln!("serve_load: {} mode: {} corrupted responses", mode.name(), report.corrupted);
            failed = true;
        }
        eprintln!("serve_load: {}", report_summary(&report));
        for v in &report.verbs {
            eprintln!(
                "serve_load:   {:>6}: n {:>7}  p50 {:>8.1}us  p99 {:>8.1}us  p999 {:>8.1}us",
                v.verb, v.count, v.p50_us, v.p99_us, v.p999_us
            );
        }
        blocks.push(mcm_serve::load::report_to_json(&report, &extra));
    }

    let engine = server.shutdown();
    if let Err(e) = engine.verify() {
        eprintln!("serve_load: FINAL CERTIFICATE FAILED: {e}");
        failed = true;
    }
    let s = R::summary(&engine.state());
    let (cardinality, nnz, batches, weight) = (s.cardinality, s.nnz, s.batches, s.weight);
    eprintln!(
        "serve_load: daemon drained: cardinality {cardinality} nnz {nnz} batches {batches}{}",
        weight.map(|w| format!(" weight {w}")).unwrap_or_default()
    );
    if failed {
        eprintln!("serve_load: FAILED — not writing {out_path}");
        return ExitCode::FAILURE;
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"serve\",\n");
    let command = ["cargo run --release -p mcm-bench --bin serve_load --"]
        .into_iter()
        .chain(args.iter().map(String::as_str))
        .collect::<Vec<_>>()
        .join(" ");
    json.push_str(&format!(
        "  \"command\": {},\n  \"host\": {},\n  \"commit\": {},\n",
        quoted(&command),
        quoted(&mcm_bench::host()),
        quoted(&mcm_bench::commit())
    ));
    json.push_str(&format!(
        "  \"engine\": \"{}\",\n",
        if weighted { "weighted" } else { "cardinality" }
    ));
    json.push_str(&format!(
        "  \"rows\": {rows},\n  \"cols\": {cols},\n  \"connections\": {conns},\n"
    ));
    json.push_str(&format!(
        "  \"final_cardinality\": {cardinality},\n  \"final_nnz\": {nnz},\n  \
         \"batches\": {batches},\n"
    ));
    if let Some(w) = weight {
        json.push_str(&format!("  \"final_weight\": {w},\n"));
    }
    json.push_str("  \"results\": [\n");
    json.push_str(&blocks.join(",\n"));
    json.push_str("\n  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("serve_load: {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("serve_load: wrote {out_path}");
    ExitCode::SUCCESS
}
