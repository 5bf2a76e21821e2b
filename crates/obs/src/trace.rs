//! Structured tracing core: nestable spans recorded into per-thread
//! buffers, keyed by rank, stamped with monotonic nanoseconds.
//!
//! Hot path (enabled): read the monotonic clock twice and push one
//! [`TraceEvent`] onto a thread-local `Vec` — no locks, no allocation once
//! the buffer is warm. Disabled path: one `Relaxed` atomic load.
//!
//! Buffers drain to a global sink when a thread exits (TLS drop) or when
//! the owning thread calls [`flush_thread`] / [`take_trace`]. The engine
//! backend joins its per-rank threads before the driver collects the
//! trace, so rank buffers are always flushed by the time [`take_trace`]
//! runs on the main thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::tracing_enabled;

/// Hard cap on buffered events per thread; beyond it events are counted in
/// [`Trace::dropped`] instead of stored, so a runaway loop cannot exhaust
/// memory.
const MAX_EVENTS_PER_THREAD: usize = 1 << 20;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Site label, e.g. `"spmspv"`, `"ms_bfs_phase"`.
    pub name: &'static str,
    /// Per-`Kernel` tag (`Kernel::name()`), if this span should roll up
    /// into the measured per-kernel breakdown.
    pub kernel: Option<&'static str>,
    /// Logical rank of the recording thread ([`set_thread_rank`]).
    pub rank: u32,
    /// Stable per-thread id (assignment order, not OS tid).
    pub tid: u64,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// True when this kernel-tagged span was opened inside another
    /// kernel-tagged span on the same thread; the breakdown skips it to
    /// avoid double-counting (e.g. an `alltoallv` span inside `invert`).
    pub nested_kernel: bool,
}

/// A drained set of spans, ready for export or aggregation.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
    /// Events discarded because a thread buffer hit its cap.
    pub dropped: u64,
}

impl Trace {
    /// Chrome `chrome://tracing` JSON (see [`crate::chrome`]).
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::to_chrome_json(self)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the (lazily initialized) process trace
/// epoch. All spans share this timeline, so cross-thread events order
/// correctly in the Chrome view.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn sink() -> &'static Mutex<Trace> {
    static SINK: OnceLock<Mutex<Trace>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Trace::default()))
}

struct ThreadBuf {
    events: Vec<TraceEvent>,
    dropped: u64,
    rank: u32,
    tid: u64,
    /// Open kernel-tagged spans on this thread (nesting detector).
    kernel_depth: u32,
}

impl ThreadBuf {
    fn new() -> Self {
        static NEXT_TID: AtomicU64 = AtomicU64::new(0);
        ThreadBuf {
            events: Vec::new(),
            dropped: 0,
            rank: 0,
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            kernel_depth: 0,
        }
    }

    fn flush(&mut self) {
        if self.events.is_empty() && self.dropped == 0 {
            return;
        }
        let mut sink = sink().lock().unwrap();
        sink.events.append(&mut self.events);
        sink.dropped += self.dropped;
        self.dropped = 0;
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// Tags spans recorded by the calling thread with a logical rank. The
/// engine backend calls this at the top of every rank closure; the main
/// thread (simulator backend, `mcmd`) defaults to rank 0.
pub fn set_thread_rank(rank: usize) {
    let _ = BUF.try_with(|b| b.borrow_mut().rank = rank as u32);
}

/// Drains the calling thread's buffer into the global sink. Buffers of
/// exited threads are drained automatically; call this on long-lived
/// threads before collecting with [`take_trace`] from elsewhere.
///
/// Note: the automatic drain runs in the thread's TLS destructor, which
/// only an explicit `JoinHandle::join` is guaranteed to wait for. The
/// implicit wait at the end of `std::thread::scope` signals when the
/// spawned closure returns and can race the destructor — join handles
/// explicitly (as the engine backend does) or call this before exiting.
pub fn flush_thread() {
    let _ = BUF.try_with(|b| b.borrow_mut().flush());
}

/// Flushes the calling thread, then drains and returns the global sink.
/// Spans still open (guard alive) are not included.
pub fn take_trace() -> Trace {
    flush_thread();
    std::mem::take(&mut *sink().lock().unwrap())
}

/// RAII span: records one [`TraceEvent`] covering its lifetime when
/// dropped. Created by [`span`] / [`kernel_span`]; inert (and free apart
/// from the flag check) when tracing is disabled at open time.
#[must_use = "a span measures its guard's lifetime; binding to _ drops it immediately"]
pub struct SpanGuard {
    name: &'static str,
    kernel: Option<&'static str>,
    /// `None` when tracing was disabled at open — the drop is then free.
    start_ns: Option<u64>,
    nested_kernel: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start_ns) = self.start_ns else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(start_ns);
        let _ = BUF.try_with(|b| {
            let mut b = b.borrow_mut();
            if self.kernel.is_some() {
                b.kernel_depth = b.kernel_depth.saturating_sub(1);
            }
            if b.events.len() >= MAX_EVENTS_PER_THREAD {
                b.dropped += 1;
                return;
            }
            let (rank, tid) = (b.rank, b.tid);
            b.events.push(TraceEvent {
                name: self.name,
                kernel: self.kernel,
                rank,
                tid,
                start_ns,
                dur_ns,
                nested_kernel: self.nested_kernel,
            });
        });
    }
}

fn open(name: &'static str, kernel: Option<&'static str>) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard { name, kernel: None, start_ns: None, nested_kernel: false };
    }
    let mut nested_kernel = false;
    if kernel.is_some() {
        let _ = BUF.try_with(|b| {
            let mut b = b.borrow_mut();
            nested_kernel = b.kernel_depth > 0;
            b.kernel_depth += 1;
        });
    }
    SpanGuard { name, kernel, start_ns: Some(now_ns()), nested_kernel }
}

/// Opens an untagged span named `name`.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    open(name, None)
}

/// Opens a span that rolls up into the measured per-kernel breakdown under
/// `kernel` (pass `Kernel::name()`).
#[inline]
pub fn kernel_span(name: &'static str, kernel: &'static str) -> SpanGuard {
    open(name, Some(kernel))
}

/// A plain always-on wall-clock stopwatch (no tracing flag involved).
/// Used where a measurement must exist regardless of observability state —
/// e.g. the staging time a dynamic matcher reports in its batch stats
/// stays populated with tracing off.
pub struct Stopwatch(Instant);

impl Stopwatch {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Stopwatch(Instant::now())
    }

    pub fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enable_tracing, test_guard};

    // Tests in this file share the global flag + sink with lib.rs tests;
    // serialize on the crate-wide guard and keep each test self-contained:
    // enable, record, take, disable.

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = test_guard();
        enable_tracing(false);
        let _ = take_trace();
        {
            let _s = span("never");
            let _k = kernel_span("never_k", "SpMV");
        }
        assert!(take_trace().events.iter().all(|e| e.name != "never" && e.name != "never_k"));
    }

    #[test]
    fn spans_nest_and_tag_kernels() {
        let _g = test_guard();
        enable_tracing(true);
        let _ = take_trace();
        {
            let _outer = kernel_span("trace_test_outer", "SpMV");
            let _plain = span("trace_test_plain");
            let _inner = kernel_span("trace_test_inner", "SpMV");
        }
        enable_tracing(false);
        let t = take_trace();
        let get = |n: &str| t.events.iter().find(|e| e.name == n).unwrap();
        let (outer, plain, inner) =
            (get("trace_test_outer"), get("trace_test_plain"), get("trace_test_inner"));
        assert!(!outer.nested_kernel);
        assert!(inner.nested_kernel, "inner kernel span must be flagged");
        assert!(!plain.nested_kernel, "plain spans never count as nested");
        // Containment: inner lies within outer on the shared timeline.
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert_eq!(outer.kernel, Some("SpMV"));
        assert_eq!(plain.kernel, None);
    }

    #[test]
    fn exited_threads_flush_automatically() {
        let _g = test_guard();
        enable_tracing(true);
        let _ = take_trace();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3usize)
                .map(|rank| {
                    s.spawn(move || {
                        set_thread_rank(rank);
                        let _g = kernel_span("trace_test_rank_span", "Augment");
                    })
                })
                .collect();
            // Join each handle explicitly: a real join returns only after
            // the thread fully terminated, TLS destructors (the flush)
            // included. The scope's implicit wait signals earlier — at
            // closure return — and would race the collection below.
            for h in handles {
                h.join().unwrap();
            }
        });
        enable_tracing(false);
        let t = take_trace();
        let ranks: std::collections::BTreeSet<u32> =
            t.events.iter().filter(|e| e.name == "trace_test_rank_span").map(|e| e.rank).collect();
        assert_eq!(ranks.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn stopwatch_runs_without_tracing() {
        let _g = test_guard();
        enable_tracing(false);
        let sw = Stopwatch::new();
        std::thread::yield_now();
        let _ns = sw.elapsed_ns(); // monotonic elapsed, no panic
    }
}
