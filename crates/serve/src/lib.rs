//! # mcm-serve — the concurrent matching service
//!
//! Turns the `mcm-dyn` incremental engine into a daemon thousands of
//! clients can hit at once, std-only:
//!
//! * [`proto`] — the `mcmd` line protocol (plain text or JSONL), plus
//!   [`proto::LineFramer`], the partial-line/pipelining-tolerant
//!   byte-to-line layer whose EOF check reports a truncated tail as a
//!   structured error;
//! * [`engine`] — the protocol handler both modes share: [`Engine`] and
//!   [`Snap`] (the only code that asks which engine runs), the update
//!   [`Admission`] check, and [`answer_read`], the one answer to each read
//!   verb, from the live engine or a published snapshot;
//! * [`session`] — `mcmd` without `--listen`: the serial stdin loop,
//!   batching updates until the next read verb;
//! * [`server`] — `mcmd --listen`: a non-blocking acceptor, a worker
//!   thread per connection, a single writer thread applying admitted
//!   updates in bounded batches (size + latency watermarks, `busy`
//!   backpressure), and **lock-free-published snapshots** so
//!   `query`/`state`/`stats`/`snapshot` never block behind a repair (or
//!   each other). Serves either engine: maximum cardinality or, with
//!   `mcmd --weighted`, maximum weight (`insert u v [w]`, weight-carrying
//!   `query`/`stats`);
//! * [`swap`] — [`SwapCell`], the wait-free-read `Arc` publication cell
//!   behind the snapshot path (external reader counting, no read-side
//!   locks);
//! * [`load`] — the closed-/open-loop load harness behind `serve_load`
//!   and the CI smoke job (p50/p99/p999 per verb, sustained updates/sec,
//!   zero-corruption accounting).
//!
//! DESIGN.md §16 describes the serving architecture and its contracts.

pub mod engine;
pub mod load;
pub mod proto;
pub mod server;
pub mod session;
pub mod swap;

pub use engine::{
    answer_read, format_stats_line, format_wstats_line, Admission, Engine, Published, ReadState,
    Snap, Summary,
};
pub use load::{run_load, LoadConfig, LoadMode, LoadReport, VerbReport};
pub use proto::{parse_command, verb_of, Command, FrameError, LineFramer};
pub use server::{ApplyHook, Server, ServerConfig};
pub use session::run_session;
pub use swap::SwapCell;
