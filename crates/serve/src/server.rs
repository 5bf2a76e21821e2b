//! The socket daemon: a non-blocking acceptor, one worker thread per
//! connection, a single writer thread owning the matching engine, and a
//! lock-free-published snapshot readers serve from.
//!
//! ## Snapshot isolation
//!
//! The writer is the only thread that touches the engine. After every
//! applied batch it publishes `Arc<Published>` — a writer sequence
//! number plus an engine snapshot (graph clone + counters + cardinality,
//! and in weighted mode the matching weight) — through a [`SwapCell`].
//! `query`/`state`/`stats`/`snapshot` readers grab the current `Arc`
//! wait-free and answer from it: a read issued mid-repair sees the
//! pre-batch snapshot, never waits for the repair to finish, and — since
//! the swap cell replaced the old mutex-guarded `Arc` — never contends
//! on a lock with other readers either.
//!
//! ## Engines
//!
//! The daemon serves either engine behind one protocol:
//!
//! * [`Server::start`] — cardinality ([`DynMatching`]): the original
//!   service; `insert u v` / `delete u v`, `query` answers
//!   `matching <n>`.
//! * [`Server::start_weighted`] — weighted ([`WDynMatching`]):
//!   `insert u v [w]` (missing weight = 1.0, so unweighted clients work
//!   unchanged), `query` answers `matching <n> weight <w>`, and `stats`
//!   reports the auction-repair counters. A weighted insert sent to a
//!   cardinality daemon is answered with an error rather than silently
//!   dropping the weight.
//!
//! Updates pass the same [`Admission`] check, and reads get the same
//! [`answer_read`] answers, as in the stdin session
//! ([`crate::session`]); this module adds only the socket framing
//! (`ok`/`busy` per update, `bye`, `error <reason>`) and the threads.
//!
//! ## Adaptive admission batching and backpressure
//!
//! Updates are admitted through a bounded queue
//! ([`ServerConfig::queue_cap`]). The writer coalesces admitted updates
//! into one repair batch per wake-up, closing the batch at either
//! watermark: [`ServerConfig::max_batch`] updates (size) or
//! [`ServerConfig::max_delay`] since the batch opened (latency). When
//! the queue is full the connection worker answers `busy` immediately —
//! explicit backpressure instead of unbounded buffering — and the client
//! retries. `sync` is a barrier: it rides the same queue, closes the
//! open batch, and is acked only after everything admitted before it has
//! been applied *and published*.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] (or a client's `shutdown` verb, awaited by
//! [`Server::join`]) stops the acceptor, lets workers finish their
//! current frames, then drains every admitted update through the writer
//! before returning the engine — admitted work is never dropped.

use crate::engine::{answer_read, Admission, Engine, Published};
use crate::proto::{parse_command, verb_of, Command, LineFramer};
use crate::swap::SwapCell;
use mcm_dyn::{DynMatching, WDynMatching, WUpdate};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Called with each batch after it is closed and before it is applied —
/// the hook the isolation tests use to hold a repair mid-flight while
/// asserting that reads still answer. Batches are delivered in the
/// weighted update vocabulary for both engines (a cardinality daemon's
/// inserts carry weight 1.0).
pub type ApplyHook = Arc<dyn Fn(&[WUpdate]) + Send + Sync>;

/// Daemon tuning knobs; the defaults suit a loopback service.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Size watermark: close the open batch at this many updates.
    pub max_batch: usize,
    /// Latency watermark: close the open batch this long after it opened.
    pub max_delay: Duration,
    /// Bound of the admission queue; a full queue answers `busy`.
    pub queue_cap: usize,
    /// Test hook run with each closed batch before it is applied.
    pub on_apply: Option<ApplyHook>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_batch: 512,
            max_delay: Duration::from_millis(1),
            queue_cap: 4096,
            on_apply: None,
        }
    }
}

enum WriterMsg {
    Update(WUpdate),
    /// Barrier: acked with the state published once everything admitted
    /// before it has been applied.
    Sync(mpsc::Sender<Arc<Published>>),
}

struct Shared {
    /// Lock-free snapshot cell: the read path never takes a mutex.
    published: SwapCell<Published>,
    /// Updates admitted but not yet absorbed by the writer.
    queue_depth: AtomicUsize,
    /// Live connections (drives the `mcmd_connections` gauge).
    connections: AtomicUsize,
    /// Set by [`Server::shutdown`]/[`Server::finish`].
    stop: AtomicBool,
    /// Set by a client's `shutdown` verb; [`Server::join`] watches it.
    shutdown_verb: AtomicBool,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.shutdown_verb.load(Ordering::Relaxed)
    }

    fn published(&self) -> Arc<Published> {
        self.published.load()
    }
}

/// A running daemon. Dropping the handle without calling
/// [`shutdown`](Server::shutdown)/[`join`](Server::join) detaches the
/// threads (the process exit reaps them); tests always join.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    tx: Option<SyncSender<WriterMsg>>,
    acceptor: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<Engine>>,
}

impl Server {
    /// Binds, publishes the initial snapshot, and starts the acceptor and
    /// writer threads around the cardinality engine. Returns once the
    /// socket is listening.
    pub fn start(dm: DynMatching, cfg: ServerConfig) -> std::io::Result<Server> {
        Server::start_engine(Engine::Card(Box::new(dm)), cfg)
    }

    /// As [`Server::start`], but serving the weighted engine: weighted
    /// inserts are accepted and `query`/`state`/`stats` report the
    /// matching weight.
    pub fn start_weighted(wm: WDynMatching, cfg: ServerConfig) -> std::io::Result<Server> {
        Server::start_engine(Engine::Weighted(Box::new(wm)), cfg)
    }

    /// As [`Server::start`], for either engine.
    pub fn start_engine(engine: Engine, cfg: ServerConfig) -> std::io::Result<Server> {
        mcm_obs::enable_metrics(true);
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let admission = engine.admission();
        let shared = Arc::new(Shared {
            published: SwapCell::new(Arc::new(Published { seq: 0, snap: engine.snapshot() })),
            queue_depth: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            shutdown_verb: AtomicBool::new(false),
        });
        let (tx, rx) = mpsc::sync_channel::<WriterMsg>(cfg.queue_cap);
        let writer = {
            let shared = shared.clone();
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("mcmd-writer".into())
                .spawn(move || writer_loop(engine, rx, shared, cfg))?
        };
        let acceptor = {
            let shared = shared.clone();
            let tx = tx.clone();
            std::thread::Builder::new()
                .name("mcmd-accept".into())
                .spawn(move || accept_loop(listener, shared, tx, admission))?
        };
        Ok(Server {
            local_addr,
            shared,
            tx: Some(tx),
            acceptor: Some(acceptor),
            writer: Some(writer),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The currently published snapshot (what readers would answer from).
    pub fn published(&self) -> Arc<Published> {
        self.shared.published()
    }

    /// Stops accepting, drains every admitted update through the writer,
    /// and returns the engine.
    pub fn shutdown(mut self) -> Engine {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.finish()
    }

    /// Blocks until a client issues the `shutdown` verb, then drains and
    /// returns the engine (what `mcmd --listen` runs on its main thread).
    pub fn join(mut self) -> Engine {
        while !self.shared.shutdown_verb.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.finish()
    }

    fn finish(&mut self) -> Engine {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Acceptor joins its workers; when they and our handle drop the
        // last senders, the writer drains the queue and exits.
        if let Some(a) = self.acceptor.take() {
            a.join().expect("acceptor thread panicked");
        }
        drop(self.tx.take());
        self.writer.take().expect("server already finished").join().expect("writer panicked")
    }
}

fn writer_loop(
    mut engine: Engine,
    rx: mpsc::Receiver<WriterMsg>,
    shared: Arc<Shared>,
    cfg: ServerConfig,
) -> Engine {
    let mut seq = 0u64;
    let mut batch: Vec<WUpdate> = Vec::new();
    let mut syncs: Vec<mpsc::Sender<Arc<Published>>> = Vec::new();
    loop {
        let Ok(first) = rx.recv() else { break };
        let opened = Instant::now();
        absorb(first, &mut batch, &mut syncs, &shared);
        // A sync closes the batch immediately: its ack must cover exactly
        // what was admitted before it.
        if syncs.is_empty() {
            let deadline = opened + cfg.max_delay;
            while batch.len() < cfg.max_batch {
                let Some(left) = deadline.checked_duration_since(Instant::now()) else { break };
                match rx.recv_timeout(left) {
                    Ok(msg) => {
                        absorb(msg, &mut batch, &mut syncs, &shared);
                        if !syncs.is_empty() {
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        seq = apply_and_publish(&mut engine, &mut batch, &mut syncs, seq, &shared, &cfg);
    }
    // Senders are gone; everything queued was already delivered by the
    // draining recv() above. Apply any final partial batch.
    apply_and_publish(&mut engine, &mut batch, &mut syncs, seq, &shared, &cfg);
    engine
}

fn absorb(
    msg: WriterMsg,
    batch: &mut Vec<WUpdate>,
    syncs: &mut Vec<mpsc::Sender<Arc<Published>>>,
    shared: &Shared,
) {
    match msg {
        WriterMsg::Update(u) => {
            batch.push(u);
            let d = shared.queue_depth.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
            mcm_obs::gauge_set("mcmd_queue_depth", &[], d as f64);
        }
        WriterMsg::Sync(ack) => syncs.push(ack),
    }
}

fn apply_and_publish(
    engine: &mut Engine,
    batch: &mut Vec<WUpdate>,
    syncs: &mut Vec<mpsc::Sender<Arc<Published>>>,
    mut seq: u64,
    shared: &Shared,
    cfg: &ServerConfig,
) -> u64 {
    if !batch.is_empty() {
        if let Some(hook) = &cfg.on_apply {
            hook(batch);
        }
        let sw = mcm_obs::Stopwatch::new();
        engine.apply_batch(batch);
        mcm_obs::observe_ns("mcmd_batch_apply_seconds", &[], sw.elapsed_ns());
        mcm_obs::observe_ns("mcmd_batch_size", &[], batch.len() as u64);
        seq += 1;
        shared.published.store(Arc::new(Published { seq, snap: engine.snapshot() }));
        batch.clear();
    }
    for ack in syncs.drain(..) {
        ack.send(shared.published()).ok();
    }
    seq
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    tx: SyncSender<WriterMsg>,
    admission: Admission,
) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = shared.clone();
                let tx = tx.clone();
                let spawned = std::thread::Builder::new()
                    .name("mcmd-conn".into())
                    .spawn(move || conn_loop(stream, shared, tx, admission));
                match spawned {
                    Ok(h) => workers.push(h),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
        workers.retain(|h| !h.is_finished());
    }
    drop(tx);
    for h in workers {
        h.join().ok();
    }
}

enum Flow {
    Continue,
    /// `quit`: close this connection, keep serving.
    Close,
    /// `shutdown`: close this connection and stop the daemon.
    Shutdown,
}

fn conn_loop(
    stream: TcpStream,
    shared: Arc<Shared>,
    tx: SyncSender<WriterMsg>,
    admission: Admission,
) {
    let conns = shared.connections.fetch_add(1, Ordering::Relaxed) + 1;
    mcm_obs::gauge_set("mcmd_connections", &[], conns as f64);
    serve_conn(&stream, &shared, &tx, admission);
    let conns = shared.connections.fetch_sub(1, Ordering::Relaxed) - 1;
    mcm_obs::gauge_set("mcmd_connections", &[], conns as f64);
}

fn serve_conn(
    stream: &TcpStream,
    shared: &Shared,
    tx: &SyncSender<WriterMsg>,
    admission: Admission,
) {
    // The read timeout doubles as the stop-flag poll interval.
    stream.set_read_timeout(Some(Duration::from_millis(25))).ok();
    stream.set_nodelay(true).ok();
    let Ok(write_half) = stream.try_clone() else { return };
    let mut out = std::io::BufWriter::new(write_half);
    let mut framer = LineFramer::new();
    // Histogram handles cached per connection: the registry lookup takes
    // a lock, the observation itself is lock-free.
    let mut hists: HashMap<&'static str, mcm_obs::Histogram> = HashMap::new();
    let mut buf = [0u8; 8192];
    let mut reader = stream;
    'conn: loop {
        match reader.read(&mut buf) {
            Ok(0) => {
                // Orderly EOF. A half-sent command is reported, not run.
                if framer.finish().is_err() {
                    mcm_obs::counter_add("mcmd_truncated_lines_total", &[], 1);
                }
                break;
            }
            Ok(n) => {
                for line in framer.push(&buf[..n]) {
                    match handle_line(&line, &mut out, shared, tx, admission, &mut hists) {
                        Flow::Continue => {}
                        Flow::Close => {
                            out.flush().ok();
                            break 'conn;
                        }
                        Flow::Shutdown => {
                            out.flush().ok();
                            shared.shutdown_verb.store(true, Ordering::Relaxed);
                            break 'conn;
                        }
                    }
                }
                if out.flush().is_err() {
                    // Client went away mid-response (abrupt disconnect).
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.stopping() {
                    break;
                }
            }
            // Connection reset / broken pipe: tolerated, never fatal to
            // the daemon.
            Err(_) => break,
        }
        if shared.stopping() {
            break;
        }
    }
}

fn handle_line(
    line: &str,
    out: &mut impl Write,
    shared: &Shared,
    tx: &SyncSender<WriterMsg>,
    admission: Admission,
    hists: &mut HashMap<&'static str, mcm_obs::Histogram>,
) -> Flow {
    let cmd = match parse_command(line) {
        Ok(Some(cmd)) => cmd,
        Ok(None) => return Flow::Continue,
        Err(e) => {
            writeln!(out, "error {e}").ok();
            return Flow::Continue;
        }
    };
    let sw = mcm_obs::Stopwatch::new();
    let verb = verb_of(&cmd);
    let flow = match (admission.admit(&cmd), &cmd) {
        (Some(Err(e)), _) => {
            writeln!(out, "error {e}").ok();
            Flow::Continue
        }
        (Some(Ok(u)), _) => {
            // Count the admission *before* sending: the writer may
            // absorb (and decrement) the instant the send lands.
            let d = shared.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
            match tx.try_send(WriterMsg::Update(u)) {
                Ok(()) => {
                    mcm_obs::gauge_set("mcmd_queue_depth", &[], d as f64);
                    writeln!(out, "ok").ok();
                }
                Err(TrySendError::Full(_)) => {
                    shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    mcm_obs::counter_add("mcmd_busy_total", &[("verb", verb)], 1);
                    writeln!(out, "busy").ok();
                }
                Err(TrySendError::Disconnected(_)) => {
                    shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    writeln!(out, "error daemon shutting down").ok();
                }
            }
            Flow::Continue
        }
        (None, Command::Sync) => {
            let (ack_tx, ack_rx) = mpsc::channel();
            match tx.try_send(WriterMsg::Sync(ack_tx)) {
                Ok(()) => match ack_rx.recv() {
                    Ok(p) => {
                        answer_read(&cmd, p.seq, p.snap.state(), out).ok();
                    }
                    Err(_) => {
                        writeln!(out, "error daemon shutting down").ok();
                    }
                },
                Err(TrySendError::Full(_)) => {
                    mcm_obs::counter_add("mcmd_busy_total", &[("verb", verb)], 1);
                    writeln!(out, "busy").ok();
                }
                Err(TrySendError::Disconnected(_)) => {
                    writeln!(out, "error daemon shutting down").ok();
                }
            }
            Flow::Continue
        }
        (None, Command::Quit) => {
            writeln!(out, "bye").ok();
            Flow::Close
        }
        (None, Command::Shutdown) => {
            writeln!(out, "bye").ok();
            Flow::Shutdown
        }
        (None, _) => {
            let p = shared.published();
            if let Err(e) = answer_read(&cmd, p.seq, p.snap.state(), out) {
                writeln!(out, "error {e}").ok();
            }
            Flow::Continue
        }
    };
    hists
        .entry(verb)
        .or_insert_with(|| mcm_obs::registry().histogram("mcmd_request_seconds", &[("verb", verb)]))
        .observe_ns(sw.elapsed_ns());
    flow
}
