//! The socket daemon: a non-blocking acceptor, one worker thread per
//! connection, a single writer thread owning the matching engine, and a
//! lock-free-published snapshot readers serve from.
//!
//! ## Snapshot isolation
//!
//! The writer is the only thread that touches the engine. After every
//! applied batch it publishes `Arc<Published>` — a writer sequence
//! number plus the scalars the read verbs answer from (cardinality, edge
//! count, epoch, counters, and in weighted mode the matching weight), an
//! O(1) copy with no graph in it — through a [`SwapCell`].
//! `query`/`state`/`stats` readers grab the current `Arc` wait-free and
//! answer from it: a read issued mid-repair sees the pre-batch snapshot,
//! never waits for the repair to finish, and never contends on a lock
//! with other readers either.
//!
//! ## Engines
//!
//! [`Server::start`] serves any [`Repair`] engine behind one protocol:
//!
//! * [`DynMatching`](mcm_dyn::DynMatching) — maximum cardinality:
//!   `insert u v` / `delete u v`, `query` answers `matching <n>`.
//! * [`WDynMatching`](mcm_dyn::WDynMatching) — maximum weight:
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
//! A connection worker handles each socket read as one *run*: it parses
//! every line of the read, answers reads and errors in order, admits
//! each update against the bounded queue ([`ServerConfig::queue_cap`],
//! counted in updates), and then sends the run's admitted updates to the
//! writer as one message before any of their `ok` lines leave for the
//! socket. When the queue is full an update is answered `busy` at once —
//! explicit backpressure instead of unbounded buffering — and the client
//! retries. The `mcmd_queue_depth` gauge is set once per run on each
//! side.
//!
//! The writer *stages* each run as it arrives (the graph edits and the
//! freeing of matched deletes, `mcmd_batch_stage_seconds`), so on a
//! multi-core host the edits overlap the worker's parsing of the next
//! read. It closes the batch (classify, repair, certify, publish;
//! `mcmd_batch_apply_seconds` times the close) at either watermark:
//! exactly [`ServerConfig::max_batch`] updates, splitting a run across
//! batches when needed, or [`ServerConfig::max_delay`] since the batch
//! opened. `sync` and `snapshot <path>` are barriers: the worker first
//! sends its pending run, a full queue answers `busy`, and the barrier
//! closes the open batch and is answered only after everything admitted
//! before it has been applied *and published*. `quit` and `shutdown`
//! send the pending run too. For `snapshot` the writer then copies the
//! live edge set ([`Repair::edges`]) and hands it to the connection, whose
//! thread writes the file: the writer does no file I/O, and the file
//! holds every update the connection sent before it.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] (or a client's `shutdown` verb, awaited by
//! [`Server::join`]) stops the acceptor, lets workers finish their
//! current frames, then drains every admitted update through the writer
//! before returning the engine — admitted work is never dropped.

use crate::engine::{
    answer_read, answer_snapshot, close_batch, copy_edges, stage_run, Admission, Published, Repair,
    RequestTimers,
};
use crate::proto::{parse_command, verb_of, Command, LineFramer};
use crate::swap::SwapCell;
use mcm_dyn::WUpdate;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Called with each batch's updates when the batch closes: after its runs
/// were staged (the graph edits are done, nothing is published) and
/// before the repair, certificate and publication — the hook the
/// isolation tests use to hold a repair mid-flight while asserting that
/// reads still answer. Batches are delivered in the weighted update
/// vocabulary for both engines (a cardinality daemon's inserts carry
/// weight 1.0).
pub type ApplyHook = Arc<dyn Fn(&[WUpdate]) + Send + Sync>;

/// Daemon tuning knobs; the defaults suit a loopback service.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Size watermark: close the open batch at exactly this many updates
    /// (0 counts as 1).
    pub max_batch: usize,
    /// Latency watermark: close the open batch this long after it opened.
    pub max_delay: Duration,
    /// Bound of the admission queue, in updates; a full queue answers
    /// `busy`. At least 1: [`Server::start`] refuses 0.
    pub queue_cap: usize,
    /// Test hook run with each batch before it is closed (see
    /// [`ApplyHook`]).
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

enum WriterMsg<R: Repair> {
    /// One read's admitted updates, in arrival order.
    Run(Vec<WUpdate>),
    /// Closes the open batch; acked once everything admitted before it has
    /// been applied and published.
    Barrier(Barrier<R>),
}

enum Barrier<R: Repair> {
    /// `sync`: acked with the published state.
    Sync(mpsc::Sender<Arc<Published<R>>>),
    /// `snapshot`: acked with a copy of the live edge set.
    Snapshot(mpsc::Sender<R::Edges>),
}

struct Shared<R: Repair> {
    /// Lock-free snapshot cell: the read path never takes a mutex.
    published: SwapCell<Published<R>>,
    /// Updates admitted but not yet taken by the writer, including those
    /// a connection holds in its not-yet-sent run.
    queue_depth: AtomicUsize,
    /// Bound on `queue_depth` ([`ServerConfig::queue_cap`]).
    queue_cap: usize,
    /// Live connections (drives the `mcmd_connections` gauge).
    connections: AtomicUsize,
    /// Set by [`Server::shutdown`]/[`Server::finish`].
    stop: AtomicBool,
    /// Set by a client's `shutdown` verb; [`Server::join`] watches it.
    shutdown_verb: AtomicBool,
}

impl<R: Repair> Shared<R> {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.shutdown_verb.load(Ordering::Relaxed)
    }
}

/// A running daemon. Dropping the handle without calling
/// [`shutdown`](Server::shutdown)/[`join`](Server::join) detaches the
/// threads (the process exit reaps them); tests always join.
pub struct Server<R: Repair> {
    local_addr: SocketAddr,
    shared: Arc<Shared<R>>,
    tx: Sender<WriterMsg<R>>,
    acceptor: JoinHandle<()>,
    writer: JoinHandle<R>,
}

impl<R: Repair> Server<R> {
    /// Binds, publishes the initial snapshot, and starts the acceptor and
    /// writer threads around `engine`. Returns once the socket is
    /// listening; a `queue_cap` of 0 is an `InvalidInput` error.
    pub fn start(engine: R, cfg: ServerConfig) -> std::io::Result<Server<R>> {
        if cfg.queue_cap == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "queue_cap must be at least 1",
            ));
        }
        mcm_obs::enable_metrics(true);
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let admission = Admission::of(&engine);
        let shared = Arc::new(Shared {
            published: SwapCell::new(Arc::new(Published { seq: 0, snap: engine.state() })),
            queue_depth: AtomicUsize::new(0),
            queue_cap: cfg.queue_cap,
            connections: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            shutdown_verb: AtomicBool::new(false),
        });
        // Unbounded in messages: the bound is `queue_cap` updates, kept by
        // `queue_depth`, and each connection has at most one barrier out.
        let (tx, rx) = mpsc::channel::<WriterMsg<R>>();
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
        Ok(Server { local_addr, shared, tx, acceptor, writer })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The currently published snapshot (what readers would answer from).
    pub fn published(&self) -> Arc<Published<R>> {
        self.shared.published.load()
    }

    /// Stops accepting, drains every admitted update through the writer,
    /// and returns the engine.
    pub fn shutdown(self) -> R {
        self.finish()
    }

    /// Blocks until a client issues the `shutdown` verb, then drains and
    /// returns the engine (what `mcmd --listen` runs on its main thread).
    pub fn join(self) -> R {
        while !self.shared.shutdown_verb.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.finish()
    }

    fn finish(self) -> R {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Acceptor joins its workers; when they and our handle drop the
        // last senders, the writer drains the queue and exits.
        self.acceptor.join().expect("acceptor thread panicked");
        drop(self.tx);
        self.writer.join().expect("writer panicked")
    }
}

fn writer_loop<R: Repair>(
    engine: R,
    rx: mpsc::Receiver<WriterMsg<R>>,
    shared: Arc<Shared<R>>,
    cfg: ServerConfig,
) -> R {
    let mut w = Writer { engine, shared, cfg, seq: 0, staged: 0, opened: None, held: Vec::new() };
    loop {
        let msg = match w.opened {
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break,
            },
            // The latency watermark: an open batch closes `max_delay`
            // after it opened, whatever is still in flight.
            Some(opened) => match (opened + w.cfg.max_delay).checked_duration_since(Instant::now())
            {
                None => {
                    w.close();
                    continue;
                }
                Some(left) => match rx.recv_timeout(left) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => {
                        w.close();
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                },
            },
        };
        match msg {
            WriterMsg::Run(run) => w.take_run(&run),
            // A barrier closes the batch immediately: its ack must cover
            // exactly what was admitted before it.
            WriterMsg::Barrier(barrier) => {
                w.close();
                match barrier {
                    Barrier::Sync(ack) => ack.send(w.shared.published.load()).ok(),
                    Barrier::Snapshot(ack) => ack.send(copy_edges(&w.engine)).ok(),
                };
            }
        }
    }
    // Senders are gone; everything queued was already delivered by the
    // draining recv() above. Close any final partial batch.
    w.close();
    w.engine
}

/// The writer thread's state: the engine and the open batch.
struct Writer<R: Repair> {
    engine: R,
    shared: Arc<Shared<R>>,
    cfg: ServerConfig,
    /// Batches published so far.
    seq: u64,
    /// Updates staged into the open batch.
    staged: usize,
    /// When the open batch took its first update; `None` when none is open.
    opened: Option<Instant>,
    /// The open batch's updates, kept only for [`ServerConfig::on_apply`].
    held: Vec<WUpdate>,
}

impl<R: Repair> Writer<R> {
    /// Stages a run as it arrives, closing a batch each time it reaches
    /// exactly `max_batch` updates (a run may span batches).
    fn take_run(&mut self, run: &[WUpdate]) {
        let depth = self.shared.queue_depth.fetch_sub(run.len(), Ordering::Relaxed) - run.len();
        mcm_obs::gauge_set("mcmd_queue_depth", &[], depth as f64);
        let max = self.cfg.max_batch.max(1);
        let mut rest = run;
        while !rest.is_empty() {
            let (part, later) = rest.split_at(rest.len().min(max - self.staged));
            self.opened.get_or_insert_with(Instant::now);
            stage_run(&mut self.engine, part);
            self.staged += part.len();
            if self.cfg.on_apply.is_some() {
                self.held.extend_from_slice(part);
            }
            if self.staged == max {
                self.close();
            }
            rest = later;
        }
    }

    /// Closes the open batch, if any: repair and certificate
    /// (`mcmd_batch_apply_seconds`), then publication.
    fn close(&mut self) {
        if self.staged == 0 {
            return;
        }
        if let Some(hook) = &self.cfg.on_apply {
            hook(&self.held);
            self.held.clear();
        }
        close_batch(&mut self.engine, self.staged);
        self.staged = 0;
        self.opened = None;
        self.seq += 1;
        let _span = mcm_obs::span("mcmd_publish");
        let sw = mcm_obs::Stopwatch::new();
        let published = Published { seq: self.seq, snap: self.engine.state() };
        self.shared.published.store(Arc::new(published));
        mcm_obs::observe_ns("mcmd_publish_seconds", &[], sw.elapsed_ns());
    }
}

fn accept_loop<R: Repair>(
    listener: TcpListener,
    shared: Arc<Shared<R>>,
    tx: Sender<WriterMsg<R>>,
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
            // Nothing to accept yet (`WouldBlock`), or a transient error.
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

fn conn_loop<R: Repair>(
    stream: TcpStream,
    shared: Arc<Shared<R>>,
    tx: Sender<WriterMsg<R>>,
    admission: Admission,
) {
    let conns = shared.connections.fetch_add(1, Ordering::Relaxed) + 1;
    mcm_obs::gauge_set("mcmd_connections", &[], conns as f64);
    // The read timeout doubles as the stop-flag poll interval.
    stream.set_read_timeout(Some(Duration::from_millis(25))).ok();
    stream.set_nodelay(true).ok();
    let mut conn = Conn {
        shared: &shared,
        tx: &tx,
        admission,
        out: Vec::new(),
        run: Vec::new(),
        oks: Vec::new(),
        timers: RequestTimers::default(),
    };
    let mut framer = LineFramer::new();
    let mut buf = [0u8; 8192];
    let (mut reader, mut writer) = (&stream, &stream);
    loop {
        let flow = match reader.read(&mut buf) {
            Ok(0) => {
                // Orderly EOF. A half-sent command is reported, not run.
                if framer.finish().is_err() {
                    mcm_obs::counter_add("mcmd_truncated_lines_total", &[], 1);
                }
                break;
            }
            Ok(n) => {
                let mut flow = Flow::Continue;
                for line in framer.push(&buf[..n]) {
                    flow = conn.handle_line(&line);
                    if !matches!(flow, Flow::Continue) {
                        break;
                    }
                }
                // The read's run is queued before any of its `ok`s leave.
                conn.send_run();
                let written = writer.write_all(&conn.out).is_ok();
                conn.out.clear();
                match flow {
                    // Client went away mid-response (abrupt disconnect);
                    // a `shutdown` still stops the daemon.
                    Flow::Continue if !written => Flow::Close,
                    flow => flow,
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Flow::Continue
            }
            // Connection reset / broken pipe: tolerated, never fatal to
            // the daemon.
            Err(_) => break,
        };
        match flow {
            Flow::Continue if !shared.stopping() => {}
            Flow::Continue | Flow::Close => break,
            Flow::Shutdown => {
                shared.shutdown_verb.store(true, Ordering::Relaxed);
                break;
            }
        }
    }
    let conns = shared.connections.fetch_sub(1, Ordering::Relaxed) - 1;
    mcm_obs::gauge_set("mcmd_connections", &[], conns as f64);
}

/// One connection's worker state.
struct Conn<'a, R: Repair> {
    shared: &'a Shared<R>,
    tx: &'a Sender<WriterMsg<R>>,
    admission: Admission,
    /// Responses to the current read, written once its run is queued.
    out: Vec<u8>,
    /// The current read's admitted updates, in order, not yet queued.
    run: Vec<WUpdate>,
    /// Where each of the run's `ok` lines starts in `out`.
    oks: Vec<usize>,
    timers: RequestTimers,
}

impl<R: Repair> Conn<'_, R> {
    fn handle_line(&mut self, line: &str) -> Flow {
        let cmd = match parse_command(line) {
            Ok(Some(cmd)) => cmd,
            Ok(None) => return Flow::Continue,
            Err(e) => {
                writeln!(self.out, "error {e}").ok();
                return Flow::Continue;
            }
        };
        let sw = mcm_obs::Stopwatch::new();
        let verb = verb_of(&cmd);
        let flow = match (self.admission.admit(&cmd), &cmd) {
            (Some(Err(e)), _) => {
                writeln!(self.out, "error {e}").ok();
                Flow::Continue
            }
            (Some(Ok(u)), _) => {
                // The bound is in updates, counted at admission: the
                // writer subtracts a run when it takes it.
                let depth = &self.shared.queue_depth;
                if depth.fetch_add(1, Ordering::Relaxed) >= self.shared.queue_cap {
                    depth.fetch_sub(1, Ordering::Relaxed);
                    mcm_obs::counter_add("mcmd_busy_total", &[("verb", verb)], 1);
                    self.out.extend_from_slice(b"busy\n");
                } else {
                    self.oks.push(self.out.len());
                    self.out.extend_from_slice(OK);
                    self.run.push(u);
                }
                Flow::Continue
            }
            (None, Command::Sync) => {
                if let Some(p) = self.barrier(Barrier::Sync, verb) {
                    answer_read(&cmd, &p, &mut self.out);
                }
                Flow::Continue
            }
            (None, Command::Snapshot(path)) => {
                if let Some(edges) = self.barrier(Barrier::Snapshot, verb) {
                    if let Err(e) = answer_snapshot::<R>(path, &edges, &mut self.out) {
                        writeln!(self.out, "error {e}").ok();
                    }
                }
                Flow::Continue
            }
            (None, Command::Quit) => {
                self.send_run();
                self.out.extend_from_slice(b"bye\n");
                Flow::Close
            }
            (None, Command::Shutdown) => {
                self.send_run();
                self.out.extend_from_slice(b"bye\n");
                Flow::Shutdown
            }
            (None, _) => {
                let p = self.shared.published.load();
                answer_read(&cmd, &p, &mut self.out);
                Flow::Continue
            }
        };
        self.timers.observe(verb, sw.elapsed_ns());
        flow
    }

    /// Queues the pending run as one writer message. If the writer is
    /// gone, none of it was queued: its `ok`s become shutdown errors.
    fn send_run(&mut self) {
        if self.run.is_empty() {
            return;
        }
        let n = self.run.len();
        let run = std::mem::replace(&mut self.run, Vec::with_capacity(n));
        let depth = self.shared.queue_depth.load(Ordering::Relaxed);
        if self.tx.send(WriterMsg::Run(run)).is_ok() {
            mcm_obs::gauge_set("mcmd_queue_depth", &[], depth as f64);
        } else {
            self.shared.queue_depth.fetch_sub(n, Ordering::Relaxed);
            let mut out = Vec::with_capacity(self.out.len() + n * SHUTTING_DOWN.len());
            let mut at = 0;
            for &ok in &self.oks {
                out.extend_from_slice(&self.out[at..ok]);
                out.extend_from_slice(SHUTTING_DOWN);
                at = ok + OK.len();
            }
            out.extend_from_slice(&self.out[at..]);
            self.out = out;
        }
        self.oks.clear();
    }

    /// Queues the pending run, then a barrier, and waits for the writer's
    /// ack. Answers `busy` (full queue) or a shutdown error itself and
    /// returns `None` then.
    fn barrier<T>(
        &mut self,
        make: impl FnOnce(mpsc::Sender<T>) -> Barrier<R>,
        verb: &'static str,
    ) -> Option<T> {
        self.send_run();
        if self.shared.queue_depth.load(Ordering::Relaxed) >= self.shared.queue_cap {
            mcm_obs::counter_add("mcmd_busy_total", &[("verb", verb)], 1);
            self.out.extend_from_slice(b"busy\n");
            return None;
        }
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.tx.send(WriterMsg::Barrier(make(ack_tx))).is_ok() {
            if let Ok(ack) = ack_rx.recv() {
                return Some(ack);
            }
        }
        self.out.extend_from_slice(SHUTTING_DOWN);
        None
    }
}

const OK: &[u8] = b"ok\n";
const SHUTTING_DOWN: &[u8] = b"error daemon shutting down\n";
