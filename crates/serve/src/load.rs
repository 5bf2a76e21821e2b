//! Load harness: closed- and open-loop generators driving N concurrent
//! loopback connections against a running daemon.
//!
//! * **Closed loop** — each connection sends one request, waits for its
//!   response, then sends the next: measures per-request service latency
//!   at whatever rate the daemon sustains (the classic saturation
//!   number).
//! * **Open loop** — each connection sends on a fixed schedule
//!   regardless of whether earlier responses have arrived, and latency
//!   is measured from the *scheduled* send time: the
//!   coordinated-omission-resistant view a real client population sees.
//!   Responses are matched FIFO per connection (the daemon answers
//!   pipelined requests in order).
//!
//! Every response is validated against the shape its verb promises
//! (`ok`/`busy` for updates, `matching <n>` for query, …); anything else
//! counts as corrupted. The report carries exact client-side
//! percentiles; `serve_load` cross-checks counts and p50/p99 against the
//! daemon's own `mcmd_request_seconds` histograms.

use mcm_sparse::permute::SplitMix64;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Send-pacing discipline (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    Closed,
    Open,
}

impl LoadMode {
    pub fn name(self) -> &'static str {
        match self {
            LoadMode::Closed => "closed",
            LoadMode::Open => "open",
        }
    }
}

/// One load run's shape.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    pub addr: SocketAddr,
    pub connections: usize,
    pub duration: Duration,
    pub mode: LoadMode,
    /// Open loop only: requests per second *per connection*.
    pub rate_per_conn: f64,
    /// Row/column space updates are drawn from (must fit the daemon's).
    pub rows: usize,
    pub cols: usize,
    /// Issue a `query` every this many requests (0 = updates only).
    pub query_every: usize,
    /// Emit weighted inserts (`insert r c w`, integer weights 1..=50)
    /// for a daemon running the weighted engine.
    pub weighted: bool,
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            connections: 256,
            duration: Duration::from_secs(2),
            mode: LoadMode::Closed,
            rate_per_conn: 50.0,
            rows: 1024,
            cols: 1024,
            query_every: 8,
            weighted: false,
            seed: 0x5EED,
        }
    }
}

const VERBS: [&str; 3] = ["insert", "delete", "query"];

/// Per-verb client-side outcome of a run.
#[derive(Clone, Debug, Default)]
pub struct VerbReport {
    pub verb: &'static str,
    /// Responses received (ok + busy + error — each request got exactly
    /// one line back).
    pub count: u64,
    pub busy: u64,
    pub errors: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
}

/// The whole run's outcome.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    pub mode: &'static str,
    pub connections: usize,
    pub elapsed_secs: f64,
    /// Responses whose shape did not match their verb's contract.
    pub corrupted: u64,
    /// Requests sent but never answered before the drain grace expired.
    pub unanswered: u64,
    /// Accepted (non-busy) updates per second over the run.
    pub updates_per_sec: f64,
    /// Open loop only: the longest any request waited past its scheduled
    /// send time before it was written, i.e. how late the generator ran.
    pub schedule_slip_secs: f64,
    pub verbs: Vec<VerbReport>,
}

/// A (verb index, request line) drawn from the workload mix.
fn next_request(rng: &mut SplitMix64, i: u64, cfg: &LoadConfig) -> (usize, String) {
    if cfg.query_every > 0 && i % cfg.query_every as u64 == cfg.query_every as u64 - 1 {
        return (2, "query\n".to_string());
    }
    let r = rng.below(cfg.rows as u64);
    let c = rng.below(cfg.cols as u64);
    // 3:1 insert:delete keeps the graph growing while exercising both.
    if rng.below(4) < 3 {
        if cfg.weighted {
            let w = rng.below(50) + 1;
            (0, format!("insert {r} {c} {w}\n"))
        } else {
            (0, format!("insert {r} {c}\n"))
        }
    } else {
        (1, format!("delete {r} {c}\n"))
    }
}

/// ok / busy / error / corrupted classification per the verb's contract.
fn classify(verb_idx: usize, resp: &str) -> Result<Class, ()> {
    let resp = resp.trim_end();
    match verb_idx {
        0 | 1 => match resp {
            "ok" => Ok(Class::Ok),
            "busy" => Ok(Class::Busy),
            _ if resp.starts_with("error ") => Ok(Class::Error),
            _ => Err(()),
        },
        _ => {
            // `matching <n>` (cardinality daemon) or
            // `matching <n> weight <w>` (weighted daemon).
            let is_matching = resp.strip_prefix("matching ").is_some_and(|rest| {
                let toks: Vec<&str> = rest.split_whitespace().collect();
                match toks.as_slice() {
                    [n] => n.parse::<u64>().is_ok(),
                    [n, "weight", w] => n.parse::<u64>().is_ok() && w.parse::<f64>().is_ok(),
                    _ => false,
                }
            });
            if is_matching {
                Ok(Class::Ok)
            } else if resp.starts_with("error ") {
                Ok(Class::Error)
            } else {
                Err(())
            }
        }
    }
}

enum Class {
    Ok,
    Busy,
    Error,
}

#[derive(Default)]
struct ConnOutcome {
    /// Latency samples in ns, one vec per verb in `VERBS` order.
    samples: [Vec<u64>; 3],
    busy: [u64; 3],
    errors: [u64; 3],
    ok_updates: u64,
    corrupted: u64,
    unanswered: u64,
    /// Largest delay from a scheduled send time to the actual write.
    slip: Duration,
}

/// Runs the configured load against a daemon already listening at
/// `cfg.addr`. Connections are real loopback TCP sockets, one OS thread
/// each.
pub fn run_load(cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    let started = Instant::now();
    let outcomes: Vec<std::io::Result<ConnOutcome>> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cfg.connections);
        for conn_id in 0..cfg.connections {
            let cfg = cfg.clone();
            handles.push(s.spawn(move || match cfg.mode {
                LoadMode::Closed => closed_loop_conn(&cfg, conn_id as u64),
                LoadMode::Open => open_loop_conn(&cfg, conn_id as u64),
            }));
        }
        handles.into_iter().map(|h| h.join().expect("load connection panicked")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut merged = ConnOutcome::default();
    for o in outcomes {
        let o = o?;
        for v in 0..VERBS.len() {
            merged.samples[v].extend_from_slice(&o.samples[v]);
            merged.busy[v] += o.busy[v];
            merged.errors[v] += o.errors[v];
        }
        merged.ok_updates += o.ok_updates;
        merged.corrupted += o.corrupted;
        merged.unanswered += o.unanswered;
        merged.slip = merged.slip.max(o.slip);
    }

    let mut verbs = Vec::new();
    for (v, name) in VERBS.iter().enumerate() {
        let samples = &mut merged.samples[v];
        if samples.is_empty() {
            continue;
        }
        samples.sort_unstable();
        let pct = |q: f64| -> f64 {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            samples[rank - 1] as f64 / 1_000.0
        };
        verbs.push(VerbReport {
            verb: name,
            count: samples.len() as u64,
            busy: merged.busy[v],
            errors: merged.errors[v],
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            p999_us: pct(0.999),
        });
    }
    Ok(LoadReport {
        mode: cfg.mode.name(),
        connections: cfg.connections,
        elapsed_secs: elapsed,
        corrupted: merged.corrupted,
        unanswered: merged.unanswered,
        updates_per_sec: merged.ok_updates as f64 / elapsed.max(1e-9),
        schedule_slip_secs: merged.slip.as_secs_f64(),
        verbs,
    })
}

fn record(out: &mut ConnOutcome, verb_idx: usize, ns: u64, resp: &str) {
    match classify(verb_idx, resp) {
        Ok(class) => {
            out.samples[verb_idx].push(ns);
            match class {
                Class::Ok if verb_idx < 2 => out.ok_updates += 1,
                Class::Ok => {}
                Class::Busy => out.busy[verb_idx] += 1,
                Class::Error => out.errors[verb_idx] += 1,
            }
        }
        Err(()) => out.corrupted += 1,
    }
}

fn closed_loop_conn(cfg: &LoadConfig, conn_id: u64) -> std::io::Result<ConnOutcome> {
    let mut stream = TcpStream::connect(cfg.addr)?;
    stream.set_nodelay(true)?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let mut rng = SplitMix64::new(cfg.seed ^ conn_id.wrapping_mul(0xA5A5A5A5));
    let mut out = ConnOutcome::default();
    let deadline = Instant::now() + cfg.duration;
    let mut i = 0u64;
    while Instant::now() < deadline {
        let (verb_idx, line) = next_request(&mut rng, i, cfg);
        i += 1;
        let t0 = Instant::now();
        stream.write_all(line.as_bytes())?;
        let mut resp = String::new();
        std::io::BufRead::read_line(&mut reader, &mut resp)?;
        if resp.is_empty() {
            out.unanswered += 1;
            break; // daemon closed on us
        }
        record(&mut out, verb_idx, t0.elapsed().as_nanos() as u64, &resp);
    }
    stream.write_all(b"quit\n").ok();
    Ok(out)
}

fn open_loop_conn(cfg: &LoadConfig, conn_id: u64) -> std::io::Result<ConnOutcome> {
    let mut stream = TcpStream::connect(cfg.addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let mut rng = SplitMix64::new(cfg.seed ^ conn_id.wrapping_mul(0xC3C3C3C3));
    let mut out = ConnOutcome::default();
    let mut framer = crate::proto::LineFramer::new();
    // FIFO of (verb, scheduled send instant) awaiting responses; latency
    // is measured from the schedule, not the actual send — the
    // coordinated-omission-resistant convention.
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let interval = Duration::from_secs_f64(1.0 / cfg.rate_per_conn.max(0.001));
    let start = Instant::now();
    let deadline = start + cfg.duration;
    let mut next_send = start;
    let mut buf = [0u8; 4096];
    let mut i = 0u64;
    while Instant::now() < deadline {
        let now = Instant::now();
        if now >= next_send {
            let (verb_idx, line) = next_request(&mut rng, i, cfg);
            i += 1;
            stream.write_all(line.as_bytes())?;
            out.slip = out.slip.max(now - next_send);
            pending.push_back((verb_idx, next_send));
            next_send += interval;
        }
        drain_available(&mut stream, &mut framer, &mut pending, &mut out, &mut buf)?;
        let wake = next_send.min(deadline);
        if let Some(sleep) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep.min(Duration::from_millis(1)));
        }
    }
    // Grace drain: collect stragglers for up to 5s, then count the rest
    // as unanswered (they would be the dropped-response signal).
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let grace = Instant::now() + Duration::from_secs(5);
    while !pending.is_empty() && Instant::now() < grace {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                for line in framer.push(&buf[..n]) {
                    pop_pending(&mut pending, &mut out, &line);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
    out.unanswered += pending.len() as u64;
    stream.write_all(b"quit\n").ok();
    Ok(out)
}

fn drain_available(
    stream: &mut TcpStream,
    framer: &mut crate::proto::LineFramer,
    pending: &mut VecDeque<(usize, Instant)>,
    out: &mut ConnOutcome,
    buf: &mut [u8],
) -> std::io::Result<()> {
    loop {
        match stream.read(buf) {
            Ok(0) => return Ok(()),
            Ok(n) => {
                for line in framer.push(&buf[..n]) {
                    pop_pending(pending, out, &line);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(());
            }
            Err(e) => return Err(e),
        }
    }
}

fn pop_pending(pending: &mut VecDeque<(usize, Instant)>, out: &mut ConnOutcome, line: &str) {
    match pending.pop_front() {
        Some((verb_idx, scheduled)) => {
            let ns = scheduled.elapsed().as_nanos() as u64;
            record(out, verb_idx, ns, line);
        }
        // A response with no matching request would be corruption.
        None => out.corrupted += 1,
    }
}

/// The one-line text summary of a run.
pub fn report_summary(r: &LoadReport) -> String {
    format!(
        "{:>6} loop: {:.0} updates/sec, {} responses, {} busy, {} corrupted, {} unanswered, \
         schedule slip {:.3}s",
        r.mode,
        r.updates_per_sec,
        r.verbs.iter().map(|v| v.count).sum::<u64>(),
        r.verbs.iter().map(|v| v.busy).sum::<u64>(),
        r.corrupted,
        r.unanswered,
        r.schedule_slip_secs,
    )
}

/// Serializes a report as one JSON object (hand-rolled: the workspace is
/// std-only). `extra` lets the caller append cross-check fields.
pub fn report_to_json(r: &LoadReport, extra: &str) -> String {
    let mut s = String::new();
    s.push_str("    {\n");
    s.push_str(&format!("      \"mode\": \"{}\",\n", r.mode));
    s.push_str(&format!("      \"connections\": {},\n", r.connections));
    s.push_str(&format!("      \"elapsed_secs\": {:.3},\n", r.elapsed_secs));
    s.push_str(&format!("      \"corrupted\": {},\n", r.corrupted));
    s.push_str(&format!("      \"unanswered\": {},\n", r.unanswered));
    s.push_str(&format!("      \"updates_per_sec\": {:.1},\n", r.updates_per_sec));
    s.push_str(&format!("      \"schedule_slip_secs\": {:.3},\n", r.schedule_slip_secs));
    s.push_str("      \"verbs\": [\n");
    for (i, v) in r.verbs.iter().enumerate() {
        s.push_str(&format!(
            "        {{\"verb\": \"{}\", \"count\": {}, \"busy\": {}, \"errors\": {}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}}}{}\n",
            v.verb,
            v.count,
            v.busy,
            v.errors,
            v.p50_us,
            v.p99_us,
            v.p999_us,
            if i + 1 < r.verbs.len() { "," } else { "" }
        ));
    }
    s.push_str("      ]");
    if !extra.is_empty() {
        s.push_str(",\n");
        s.push_str(extra);
        s.push('\n');
    } else {
        s.push('\n');
    }
    s.push_str("    }");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig};
    use mcm_dyn::{DynMatching, DynOptions};

    #[test]
    fn open_loop_reports_how_late_its_generator_ran() {
        let dm = DynMatching::new(64, 64, DynOptions::default());
        let server = Server::start(dm, ServerConfig::default()).unwrap();
        let tiny = LoadConfig {
            addr: server.local_addr(),
            connections: 2,
            duration: Duration::from_millis(100),
            rows: 64,
            cols: 64,
            ..LoadConfig::default()
        };
        // One request per microsecond per connection: no generator keeps
        // that schedule, so the run must report a slip, bounded by the run.
        let open =
            run_load(&LoadConfig { mode: LoadMode::Open, rate_per_conn: 1e6, ..tiny.clone() })
                .unwrap();
        assert!(open.schedule_slip_secs > 0.0, "{open:?}");
        assert!(open.schedule_slip_secs <= open.elapsed_secs, "{open:?}");
        let json = report_to_json(&open, "");
        let field = format!("\"schedule_slip_secs\": {:.3},", open.schedule_slip_secs);
        assert!(json.contains(&field), "{json}");
        let line = report_summary(&open);
        assert!(line.contains(&format!("schedule slip {:.3}s", open.schedule_slip_secs)), "{line}");
        // A closed loop has no schedule to slip from.
        let closed = run_load(&LoadConfig { mode: LoadMode::Closed, ..tiny }).unwrap();
        assert_eq!(closed.schedule_slip_secs, 0.0);
        assert!(report_summary(&closed).ends_with("schedule slip 0.000s"));
        server.shutdown();
    }
}
