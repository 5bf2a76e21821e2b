//! Integration tests for the `mcm-serve` socket daemon: concurrency
//! equivalence, snapshot isolation, backpressure, framing at the edges,
//! and graceful shutdown. All sockets are loopback; every wait is a
//! timed channel or a bounded poll — no bare sleeps as assertions.

use mcm_dyn::{DynMatching, DynOptions, Update, WDynMatching, WDynOptions, WUpdate};
use mcm_serve::{ApplyHook, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deterministic interleaving seed; override with `MCM_TEST_SEED`.
fn test_seed() -> u64 {
    std::env::var("MCM_TEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xD15C0)
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    /// Sends one line, returns the one response line (trimmed).
    fn roundtrip(&mut self, line: &str) -> String {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read");
        assert!(!resp.is_empty(), "daemon closed connection after {line:?}");
        resp.trim_end().to_string()
    }

    /// Sends an update, retrying while the daemon answers `busy`.
    fn update_retrying(&mut self, line: &str) -> String {
        for _ in 0..10_000 {
            let resp = self.roundtrip(line);
            if resp != "busy" {
                return resp;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        panic!("daemon answered busy 10k times for {line:?}");
    }
}

fn start(n: usize, cfg: ServerConfig) -> Server<DynMatching> {
    let dm = DynMatching::new(n, n, DynOptions::default());
    Server::start(dm, cfg).expect("server start")
}

/// A queue that holds no update would answer `busy` forever.
#[test]
fn zero_queue_cap_is_refused() {
    let dm = DynMatching::new(4, 4, DynOptions::default());
    let cfg = ServerConfig { queue_cap: 0, ..ServerConfig::default() };
    let err = Server::start(dm, cfg).err().expect("queue_cap 0 must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// N interleaved clients inserting disjoint row ranges must leave the
/// daemon in exactly the state a serialized replay of the same update
/// stream reaches: same cardinality, same nnz, same overlay epoch, and
/// a Berge-certified maximum matching.
#[test]
fn interleaved_clients_match_serialized_replay() {
    let seed = test_seed();
    let (n, clients, per_client) = (64usize, 8usize, 60usize);
    let rows_per = n / clients;
    // Pre-generate each client's stream so the replay sees the same one.
    let streams: Vec<Vec<Update>> = (0..clients)
        .map(|k| {
            let mut rng = SplitMix64(seed ^ (k as u64).wrapping_mul(0x9E37));
            (0..per_client)
                .map(|_| {
                    let r = (k * rows_per) as u32 + rng.below(rows_per as u64) as u32;
                    let c = rng.below(n as u64) as u32;
                    Update::Insert(r, c)
                })
                .collect()
        })
        .collect();

    let server = start(n, ServerConfig::default());
    let addr = server.local_addr();
    std::thread::scope(|s| {
        for stream in &streams {
            s.spawn(move || {
                let mut c = Client::connect(addr);
                for u in stream {
                    let Update::Insert(r, col) = u else { unreachable!() };
                    let resp = c.update_retrying(&format!("insert {r} {col}"));
                    assert_eq!(resp, "ok");
                }
                let resp = c.roundtrip("sync");
                assert!(resp.starts_with("synced seq "), "{resp}");
                assert_eq!(c.roundtrip("quit"), "bye");
            });
        }
    });
    assert_eq!(Client::connect(addr).roundtrip("shutdown"), "bye");
    let dm = server.join();

    // Serialized replay: same per-client streams, applied client by
    // client on a fresh engine.
    let mut serial = DynMatching::new(n, n, DynOptions::default());
    for stream in &streams {
        serial.apply_batch(stream);
    }
    assert_eq!(dm.cardinality(), serial.cardinality(), "cardinality diverged (seed {seed})");
    assert_eq!(dm.graph().nnz(), serial.graph().nnz(), "nnz diverged (seed {seed})");
    assert_eq!(dm.graph().epoch(), serial.graph().epoch(), "epoch diverged (seed {seed})");
    dm.verify_full().expect("interleaved result must be Berge-certified");
    serial.verify_full().expect("replay result must be Berge-certified");
}

/// A `query` issued while a repair batch is held mid-apply must answer
/// from the pre-batch snapshot — and answer at all (timed channel, not a
/// sleep, proves it did not block behind the writer).
#[test]
fn query_mid_batch_is_snapshot_isolated_and_nonblocking() {
    let (applying_tx, applying_rx) = mpsc::channel::<usize>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let applying_tx = Mutex::new(applying_tx);
    let gate_rx = Mutex::new(gate_rx);
    let hook: ApplyHook = Arc::new(move |batch: &[WUpdate]| {
        applying_tx.lock().unwrap().send(batch.len()).ok();
        // Held until the test releases (or drops) the gate.
        gate_rx.lock().unwrap().recv().ok();
    });
    let cfg = ServerConfig { on_apply: Some(hook), ..ServerConfig::default() };
    let server = start(16, cfg);
    let addr = server.local_addr();

    let mut writer_conn = Client::connect(addr);
    assert_eq!(writer_conn.roundtrip("insert 0 0"), "ok");
    let held =
        applying_rx.recv_timeout(Duration::from_secs(5)).expect("writer never opened the batch");
    assert_eq!(held, 1);

    // The batch is now mid-apply (held by the gate). A reader on a
    // second connection must answer promptly from the pre-batch state.
    let (res_tx, res_rx) = mpsc::channel::<(String, String)>();
    std::thread::spawn(move || {
        let mut reader_conn = Client::connect(addr);
        let q = reader_conn.roundtrip("query");
        let st = reader_conn.roundtrip("state");
        res_tx.send((q, st)).ok();
    });
    let (q, st) = res_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("query blocked behind the held repair batch");
    assert_eq!(q, "matching 0", "mid-batch query must see the pre-batch snapshot");
    assert!(st.starts_with("state seq 0 "), "pre-batch snapshot is seq 0: {st}");

    // Release the writer; the barrier then observes the new state.
    drop(gate_tx);
    let resp = writer_conn.roundtrip("sync");
    assert!(resp.starts_with("synced seq 1 cardinality 1"), "{resp}");
    assert_eq!(writer_conn.roundtrip("query"), "matching 1");
    server.shutdown();
}

/// A scratch path for a snapshot file, unique per test and process.
fn snap_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("mcm-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.mtx", std::process::id())).to_str().unwrap().to_string()
}

/// The `(row, col)` entries (0-based) of a Matrix Market snapshot file.
fn snapshot_edges(path: &str) -> Vec<(u32, u32)> {
    let text = std::fs::read_to_string(path).expect("snapshot file");
    std::fs::remove_file(path).ok();
    text.lines()
        .filter(|l| !l.starts_with('%'))
        .skip(1)
        .map(|l| {
            let w: Vec<u32> = l.split_whitespace().take(2).map(|x| x.parse().unwrap()).collect();
            (w[0] - 1, w[1] - 1)
        })
        .collect()
}

/// `snapshot` is a barrier: sent right after updates on the same
/// connection, with no `sync` and watermarks that would never close the
/// batch, the file holds those updates (read-your-writes).
#[test]
fn snapshot_reads_its_own_writes_without_sync() {
    let cfg = ServerConfig {
        max_batch: 1 << 20,
        max_delay: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    let server = start(8, cfg);
    let mut c = Client::connect(server.local_addr());
    for (r, col) in [(0, 1), (1, 0), (2, 2)] {
        assert_eq!(c.update_retrying(&format!("insert {r} {col}")), "ok");
    }
    assert_eq!(c.update_retrying("delete 2 2"), "ok");
    let path = snap_path("own-writes");
    assert_eq!(c.roundtrip(&format!("snapshot {path}")), format!("snapshot {path} nnz 2"));
    assert_eq!(snapshot_edges(&path), [(1, 0), (0, 1)]);
    // The barrier published the batch it closed.
    assert!(c.roundtrip("state").starts_with("state seq 1 epoch 0 cardinality 2 nnz 2"));
    let dm = server.shutdown();
    assert_eq!(dm.graph().nnz(), 2);
}

/// A `snapshot` issued while a repair batch is held mid-apply waits for
/// it (timed channel), then writes the state that batch produced.
#[test]
fn snapshot_waits_for_a_held_batch_then_reflects_it() {
    let (applying_tx, applying_rx) = mpsc::channel::<usize>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let applying_tx = Mutex::new(applying_tx);
    let gate_rx = Mutex::new(gate_rx);
    let hook: ApplyHook = Arc::new(move |batch: &[WUpdate]| {
        applying_tx.lock().unwrap().send(batch.len()).ok();
        gate_rx.lock().unwrap().recv().ok();
    });
    let cfg = ServerConfig { on_apply: Some(hook), ..ServerConfig::default() };
    let server = start(16, cfg);
    let addr = server.local_addr();

    let mut writer_conn = Client::connect(addr);
    assert_eq!(writer_conn.roundtrip("insert 3 5"), "ok");
    let held =
        applying_rx.recv_timeout(Duration::from_secs(5)).expect("writer never opened the batch");
    assert_eq!(held, 1);

    let path = snap_path("held-batch");
    let (res_tx, res_rx) = mpsc::channel::<String>();
    let line = format!("snapshot {path}");
    std::thread::spawn(move || {
        res_tx.send(Client::connect(addr).roundtrip(&line)).ok();
    });
    // Scalar reads still answer from the pre-batch state meanwhile.
    assert_eq!(writer_conn.roundtrip("query"), "matching 0");
    assert!(
        res_rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "snapshot answered while the batch before it was still held"
    );
    drop(gate_tx);
    let resp = res_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("snapshot never answered after the batch was released");
    assert_eq!(resp, format!("snapshot {path} nnz 1"));
    assert_eq!(snapshot_edges(&path), [(3, 5)]);
    server.shutdown();
}

/// The daemon's own `metrics` times the per-batch publish and the
/// on-demand edge copy behind `snapshot`.
#[test]
fn metrics_time_the_publish_and_the_snapshot_copy() {
    let server = start(8, ServerConfig::default());
    let mut c = Client::connect(server.local_addr());
    assert_eq!(c.update_retrying("insert 0 0"), "ok");
    assert!(c.update_retrying("sync").starts_with("synced seq 1 "));
    let path = snap_path("metrics");
    assert_eq!(c.update_retrying(&format!("snapshot {path}")), format!("snapshot {path} nnz 1"));
    std::fs::remove_file(&path).ok();
    c.stream.write_all(b"metrics\n").expect("write");
    let mut text = String::new();
    while !text.ends_with("# EOF\n") {
        assert!(c.reader.read_line(&mut text).expect("read") > 0, "metrics cut short: {text}");
    }
    for name in ["mcmd_publish_seconds", "mcmd_snapshot_seconds"] {
        let count = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name}_count ")))
            .unwrap_or_else(|| panic!("no {name} histogram: {text}"));
        assert!(count.parse::<u64>().unwrap() >= 1, "{name}: {text}");
    }
    server.shutdown();
}

/// With a held writer and a 1-slot admission queue the daemon must
/// answer `busy` (bounded backpressure), then recover and apply every
/// acknowledged update once released.
#[test]
fn full_queue_answers_busy_then_recovers() {
    let (applying_tx, applying_rx) = mpsc::channel::<usize>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let applying_tx = Mutex::new(applying_tx);
    let gate_rx = Mutex::new(gate_rx);
    let hook: ApplyHook = Arc::new(move |batch: &[WUpdate]| {
        applying_tx.lock().unwrap().send(batch.len()).ok();
        gate_rx.lock().unwrap().recv().ok();
    });
    let cfg = ServerConfig {
        queue_cap: 1,
        max_batch: 1,
        max_delay: Duration::from_millis(1),
        on_apply: Some(hook),
        ..ServerConfig::default()
    };
    let server = start(64, cfg);
    let mut c = Client::connect(server.local_addr());

    // First insert is absorbed by the (now held) writer; the queue and
    // then the client keep filling until `busy` appears.
    let mut acked: Vec<(u32, u32)> = Vec::new();
    let mut saw_busy = false;
    for i in 0..64u32 {
        let resp = c.roundtrip(&format!("insert {i} {i}"));
        match resp.as_str() {
            "ok" => acked.push((i, i)),
            "busy" => {
                saw_busy = true;
                break;
            }
            other => panic!("unexpected response: {other}"),
        }
    }
    assert!(saw_busy, "a 1-slot queue under a held writer must answer busy");
    applying_rx.recv_timeout(Duration::from_secs(5)).expect("writer never started");

    // Release everything; the barrier proves the acked updates landed.
    // (`sync` rides the same bounded queue, so it too can be told busy
    // until the writer drains — retry like any client would.)
    drop(gate_tx);
    let resp = c.update_retrying("sync");
    assert!(resp.starts_with("synced "), "{resp}");
    let dm = server.shutdown();
    assert_eq!(dm.graph().nnz(), acked.len(), "every acked insert must be applied");
    for (r, col) in acked {
        assert!(dm.graph().contains(r, col), "acked insert ({r},{col}) missing");
    }
    dm.verify_full().expect("post-recovery matching must verify");
}

/// A connection that dies mid-line must have its complete lines executed
/// and its unterminated tail reported (counted), never executed.
#[test]
fn truncated_tail_is_counted_not_executed() {
    let server = start(16, ServerConfig::default());
    let addr = server.local_addr();
    let truncated = mcm_obs::registry().counter("mcmd_truncated_lines_total", &[]);
    let before = truncated.get();

    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        // One complete command, one half command, then EOF.
        stream.write_all(b"insert 1 1\ninsert 2").expect("write");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read");
        assert_eq!(resp.trim_end(), "ok");
        stream.shutdown(std::net::Shutdown::Write).ok();
        // Wait (bounded) for the worker to see EOF and report the tail.
        let deadline = Instant::now() + Duration::from_secs(5);
        while truncated.get() == before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    assert_eq!(truncated.get(), before + 1, "the truncated tail must be counted");

    let mut c = Client::connect(addr);
    let resp = c.roundtrip("sync");
    assert!(resp.starts_with("synced "), "{resp}");
    let st = c.roundtrip("state");
    assert!(st.contains("nnz 1"), "only the complete line may execute: {st}");
    let dm = server.shutdown();
    assert!(dm.graph().contains(1, 1));
    assert_eq!(dm.graph().nnz(), 1, "the half-received insert must not run");
}

/// A client that pipelines updates and vanishes without reading anything
/// must not hurt the daemon or other connections.
#[test]
fn abrupt_disconnect_is_tolerated() {
    let server = start(32, ServerConfig::default());
    let addr = server.local_addr();
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut burst = String::new();
        for i in 0..16 {
            burst.push_str(&format!("insert {i} {i}\n"));
        }
        stream.write_all(burst.as_bytes()).expect("write");
        // Drop without reading a single response.
    }
    let mut c = Client::connect(addr);
    // The vanished connection's worker drains its 16 buffered inserts
    // concurrently with us; `sync` only barriers updates admitted so
    // far, so poll (bounded) until the burst has landed.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = c.roundtrip("sync");
        assert!(resp.starts_with("synced "), "{resp}");
        let q = c.roundtrip("query");
        if q == "matching 16" {
            break;
        }
        assert!(Instant::now() < deadline, "dropped connection's burst never fully applied: {q}");
        std::thread::sleep(Duration::from_millis(2));
    }
    let dm = server.shutdown();
    assert_eq!(dm.cardinality(), 16);
}

/// Responses to a pipelined burst come back in request order, and a
/// `sync` inside the burst is a true barrier for the `query` behind it.
#[test]
fn pipelined_burst_answers_in_order() {
    let server = start(8, ServerConfig::default());
    let mut c = Client::connect(server.local_addr());
    c.stream.write_all(b"insert 0 0\ninsert 1 1\nsync\nquery\n").expect("write");
    let mut lines = Vec::new();
    for _ in 0..4 {
        let mut l = String::new();
        c.reader.read_line(&mut l).expect("read");
        lines.push(l.trim_end().to_string());
    }
    assert_eq!(lines[0], "ok");
    assert_eq!(lines[1], "ok");
    assert!(lines[2].starts_with("synced "), "{}", lines[2]);
    assert_eq!(lines[3], "matching 2");
    server.shutdown();
}

/// `shutdown` must drain every acknowledged update before the daemon
/// stops — admitted work is never dropped.
#[test]
fn shutdown_drains_admitted_updates() {
    let server = start(64, ServerConfig::default());
    let mut c = Client::connect(server.local_addr());
    for i in 0..48u32 {
        assert_eq!(c.update_retrying(&format!("insert {i} {}", 63 - i)), "ok");
    }
    assert_eq!(c.roundtrip("shutdown"), "bye");
    let dm = server.join();
    assert_eq!(dm.graph().nnz(), 48, "shutdown dropped admitted updates");
    assert_eq!(dm.cardinality(), 48);
    dm.verify_full().expect("drained state must verify");
}

/// Weighted daemon round-trip: weighted inserts (both spellings), a
/// reweight that reroutes the matching, a matched-edge delete, weighted
/// `query`/`state`/`stats` shapes, and a certified final engine.
#[test]
fn weighted_daemon_round_trips_weights() {
    let wm = WDynMatching::new(8, 8, WDynOptions::default());
    let server = Server::start(wm, ServerConfig::default()).expect("server start");
    let mut c = Client::connect(server.local_addr());

    // A 2x2 block where the heavy diagonal wins.
    assert_eq!(c.update_retrying("insert 0 0 10"), "ok");
    assert_eq!(c.update_retrying("insert 0 1 1"), "ok");
    assert_eq!(c.update_retrying("insert 1 1 10"), "ok");
    // A bare insert defaults to weight 1.0 — still legal when weighted.
    assert_eq!(c.update_retrying("insert 2 2"), "ok");
    let resp = c.roundtrip("sync");
    assert!(resp.starts_with("synced seq "), "{resp}");
    assert_eq!(c.roundtrip("query"), "matching 3 weight 21");

    let st = c.roundtrip("state");
    assert!(st.contains(" cardinality 3 "), "{st}");
    assert!(st.contains(" weight 21"), "weighted state must carry the weight: {st}");
    let stats = c.roundtrip("stats");
    assert!(stats.starts_with("stats batches "), "{stats}");
    assert!(stats.ends_with("algo wauction"), "{stats}");
    assert!(stats.contains(" weight 21 "), "{stats}");

    // Reweighting the matched diagonal edge down reroutes through the
    // cross pairing: (0,1)+(1,1) is impossible, so optimal keeps the
    // heavier of the two diagonals plus the cross edge.
    assert_eq!(c.update_retrying("insert 0 0 2"), "ok");
    let resp = c.update_retrying("sync");
    assert!(resp.starts_with("synced "), "{resp}");
    assert_eq!(c.roundtrip("query"), "matching 3 weight 13");

    // Deleting the heavy edge leaves column 1 isolated: the optimum is
    // (0,0) at its reduced weight 2 plus (2,2) at 1.
    assert_eq!(c.update_retrying("delete 1 1"), "ok");
    let resp = c.update_retrying("sync");
    assert!(resp.starts_with("synced "), "{resp}");
    assert_eq!(c.roundtrip("query"), "matching 2 weight 3");

    assert_eq!(c.roundtrip("shutdown"), "bye");
    let wm = server.join();
    assert_eq!(wm.cardinality(), 2);
    assert!((wm.weight() - 3.0).abs() < 1e-9, "weight {}", wm.weight());
    wm.verify_full().expect("final weighted state must be eps-CS certified");
}

/// A cardinality daemon must reject weight-carrying inserts (except the
/// no-op weight 1.0) instead of silently dropping the weight.
#[test]
fn card_daemon_rejects_weighted_inserts() {
    let server = start(8, ServerConfig::default());
    let mut c = Client::connect(server.local_addr());
    assert_eq!(c.roundtrip("insert 0 0 5"), "error weighted insert needs a --weighted daemon");
    // Weight 1.0 is the cardinality semantics — accepted.
    assert_eq!(c.update_retrying("insert 0 0 1"), "ok");
    let resp = c.roundtrip("sync");
    assert!(resp.starts_with("synced "), "{resp}");
    assert_eq!(c.roundtrip("query"), "matching 1");
    server.shutdown();
}

/// A hook that reports each batch's size and holds the writer until the
/// returned gate sender is dropped.
fn holding_hook() -> (ApplyHook, mpsc::Receiver<usize>, mpsc::Sender<()>) {
    let (applying_tx, applying_rx) = mpsc::channel::<usize>();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let applying_tx = Mutex::new(applying_tx);
    let gate_rx = Mutex::new(gate_rx);
    let hook: ApplyHook = Arc::new(move |batch: &[WUpdate]| {
        applying_tx.lock().unwrap().send(batch.len()).ok();
        gate_rx.lock().unwrap().recv().ok();
    });
    (hook, applying_rx, gate_tx)
}

/// One write of 64 inserts against an 8-update queue, with the writer
/// held: the first 8 are admitted as one run, exactly the other 56 are
/// answered `busy`, and every acked insert lands once released.
#[test]
fn one_write_over_a_full_queue_answers_busy_for_exactly_the_overflow() {
    let (hook, applying_rx, gate_tx) = holding_hook();
    let cfg = ServerConfig { queue_cap: 8, on_apply: Some(hook), ..ServerConfig::default() };
    let server = start(128, cfg);
    let mut c = Client::connect(server.local_addr());
    assert_eq!(c.roundtrip("insert 127 127"), "ok");
    assert_eq!(applying_rx.recv_timeout(Duration::from_secs(5)).expect("writer never held"), 1);

    let burst: String = (0..64).map(|i| format!("insert {i} {i}\n")).collect();
    c.stream.write_all(burst.as_bytes()).expect("write");
    let answers: Vec<String> = (0..64)
        .map(|_| {
            let mut l = String::new();
            c.reader.read_line(&mut l).expect("read");
            l.trim_end().to_string()
        })
        .collect();
    let acked: Vec<u32> = (0..64).filter(|&i| answers[i as usize] == "ok").collect();
    assert_eq!(acked, (0..8).collect::<Vec<u32>>(), "{answers:?}");
    assert!(answers[8..].iter().all(|a| a == "busy"), "{answers:?}");

    drop(gate_tx);
    let resp = c.update_retrying("sync");
    assert!(resp.starts_with("synced "), "{resp}");
    let dm = server.shutdown();
    assert_eq!(dm.graph().nnz(), 9, "exactly the acked inserts land");
    assert!(acked.iter().all(|&i| dm.graph().contains(i, i)) && dm.graph().contains(127, 127));
    dm.verify_full().expect("post-release matching must verify");
}

/// A single run longer than `max_batch` is split: every batch but the
/// one `sync` closes holds exactly `max_batch` updates, and replaying
/// the stream with the same batch boundaries reaches the same matching.
#[test]
fn a_run_longer_than_max_batch_closes_batches_of_at_most_max_batch() {
    let seed = test_seed();
    let (n, max_batch) = (48usize, 16usize);
    let mut rng = SplitMix64(seed ^ 0xBA7C);
    let stream: Vec<Update> = (0..150)
        .map(|_| {
            let (r, col) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
            if rng.below(4) == 0 {
                Update::Delete(r, col)
            } else {
                Update::Insert(r, col)
            }
        })
        .collect();
    let sizes = Arc::new(Mutex::new(Vec::new()));
    let hook: ApplyHook = {
        let sizes = sizes.clone();
        Arc::new(move |batch: &[WUpdate]| sizes.lock().unwrap().push(batch.len()))
    };
    let cfg = ServerConfig {
        max_batch,
        max_delay: Duration::from_secs(600),
        on_apply: Some(hook),
        ..ServerConfig::default()
    };
    let server = start(n, cfg);
    let mut c = Client::connect(server.local_addr());
    let mut burst = String::new();
    for u in &stream {
        match *u {
            Update::Insert(r, col) => burst.push_str(&format!("insert {r} {col}\n")),
            Update::Delete(r, col) => burst.push_str(&format!("delete {r} {col}\n")),
        }
    }
    burst.push_str("sync\n");
    c.stream.write_all(burst.as_bytes()).expect("write");
    for i in 0..stream.len() {
        let mut l = String::new();
        c.reader.read_line(&mut l).expect("read");
        assert_eq!(l.trim_end(), "ok", "update {i}");
    }
    let mut l = String::new();
    c.reader.read_line(&mut l).expect("read");
    assert!(l.starts_with("synced "), "{l}");
    let dm = server.shutdown();

    let sizes = sizes.lock().unwrap().clone();
    assert_eq!(sizes.iter().sum::<usize>(), stream.len(), "{sizes:?}");
    let (last, full) = sizes.split_last().unwrap();
    assert!(full.iter().all(|&s| s == max_batch) && *last <= max_batch, "{sizes:?}");
    let mut serial = DynMatching::new(n, n, DynOptions::default());
    let mut at = 0;
    for s in sizes {
        serial.apply_batch(&stream[at..at + s]);
        at += s;
    }
    assert_eq!(dm.matching(), serial.matching(), "seed {seed}");
    assert_eq!(dm.graph().nnz(), serial.graph().nnz(), "seed {seed}");
    dm.verify_full().expect("split batches must certify");
}

/// If the writer is gone, a run's updates were never queued: each of
/// them is answered with a shutdown error, in place, with the read's
/// other answers around them kept in order.
#[test]
fn a_run_the_writer_cannot_take_answers_errors_in_order() {
    let hook: ApplyHook = Arc::new(|_: &[WUpdate]| panic!("writer stops here (test)"));
    let server = start(8, ServerConfig { on_apply: Some(hook), ..ServerConfig::default() });
    let mut c = Client::connect(server.local_addr());
    assert_eq!(c.roundtrip("insert 0 0"), "ok");
    let deadline = Instant::now() + Duration::from_secs(5);
    while c.roundtrip("insert 5 5") == "ok" {
        assert!(Instant::now() < deadline, "writer never stopped");
        std::thread::sleep(Duration::from_millis(2));
    }
    c.stream.write_all(b"insert 1 1\nquery\ninsert 2 2\n").expect("write");
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut l = String::new();
        c.reader.read_line(&mut l).expect("read");
        lines.push(l.trim_end().to_string());
    }
    assert_eq!(lines, ["error daemon shutting down", "matching 0", "error daemon shutting down"]);
    let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.shutdown()));
    assert!(joined.is_err(), "the writer's panic surfaces at join");
}
