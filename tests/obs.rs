//! Integration tests for the `mcm-obs` observability subsystem wired
//! through the real engine backend (DESIGN.md §13):
//!
//! * the Chrome trace exported from a multi-threaded `EngineComm` run is
//!   syntactically valid JSON with well-formed "X" events;
//! * spans recorded on one thread nest properly (disjoint or contained,
//!   never partially overlapping);
//! * the Prometheus exposition format is locked by a golden test;
//! * the disabled-recorder overhead stays under the 2% gate;
//! * the initializer's rounds and the transpose builds are counted as they
//!   ran: a default solve on the simulator builds no transpose.
//!
//! The obs globals (two flags, one trace sink, one registry) are shared
//! by every test in this binary, so each test serializes on [`GUARD`].

use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_gen::rmat::{rmat, RmatParams};
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

/// Runs MCM-DIST on the thread-per-rank engine with tracing enabled and
/// returns the collected trace.
fn traced_engine_run(p: usize, threads: usize) -> mcm_obs::Trace {
    let t = rmat(RmatParams::g500(8), 7);
    mcm_obs::enable_tracing(true);
    drop(mcm_obs::take_trace());
    let mut comm = mcm_bsp::EngineComm::new(p, threads);
    let r = maximum_matching(&mut comm, &t.to_csc().view(), Start::Cold, &McmOptions::default());
    assert!(r.matching.cardinality() > 0);
    mcm_obs::enable_tracing(false);
    mcm_obs::take_trace()
}

#[test]
fn chrome_trace_from_engine_run_is_valid_json() {
    let _g = GUARD.lock().unwrap();
    let trace = traced_engine_run(4, 2);
    assert!(!trace.events.is_empty(), "engine run recorded no spans");
    assert_eq!(trace.dropped, 0);
    // Rank threads must have stamped their rank ids: a 4-rank run records
    // spans under more than one pid.
    let ranks: std::collections::BTreeSet<u32> = trace.events.iter().map(|e| e.rank).collect();
    assert!(ranks.len() > 1, "all spans on one rank: {ranks:?}");

    let json = trace.to_chrome_json();
    let v = json::parse(&json).unwrap_or_else(|e| panic!("invalid JSON at byte {e}:\n{json}"));
    let json::Value::Object(top) = v else { panic!("top level is not an object") };
    let Some(json::Value::Array(events)) = top.get("traceEvents") else {
        panic!("no traceEvents array")
    };
    assert_eq!(events.len(), trace.events.len());
    for ev in events {
        let json::Value::Object(ev) = ev else { panic!("event is not an object") };
        assert_eq!(ev.get("ph"), Some(&json::Value::String("X".into())));
        for key in ["name", "cat", "ts", "dur", "pid", "tid"] {
            assert!(ev.contains_key(key), "event missing {key}");
        }
        let Some(json::Value::Number(dur)) = ev.get("dur") else { panic!("dur not a number") };
        assert!(*dur >= 0.0);
    }
}

#[test]
fn spans_nest_per_thread_under_the_engine_backend() {
    let _g = GUARD.lock().unwrap();
    let trace = traced_engine_run(4, 2);
    // Group by recording thread; within one thread, any two spans must be
    // disjoint or properly contained — scopes cannot partially overlap.
    let mut by_tid: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for e in &trace.events {
        by_tid.entry(e.tid).or_default().push((e.start_ns, e.start_ns + e.dur_ns));
    }
    for (tid, mut spans) in by_tid {
        // Outermost-first: by start ascending, then longest first.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for (start, end) in spans {
            while let Some(&(_, top_end)) = stack.last() {
                if start >= top_end {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(top_start, top_end)) = stack.last() {
                assert!(
                    top_start <= start && end <= top_end,
                    "thread {tid}: span [{start}, {end}) partially overlaps [{top_start}, {top_end})"
                );
            }
            stack.push((start, end));
        }
    }
    // The nested-kernel marker is self-consistent: some comm-level spans
    // run inside pipeline-level kernel spans.
    assert!(trace.events.iter().any(|e| e.nested_kernel), "no nested kernel spans recorded");
    // And the measured breakdown counts only outermost kernel spans, so
    // the per-kernel seconds can never exceed the trace's total extent.
    let bd = mcm_obs::WallBreakdown::from_trace(&trace);
    let extent_ns = trace.events.iter().map(|e| e.start_ns + e.dur_ns).max().unwrap();
    let ranks = trace.events.iter().map(|e| e.rank).collect::<std::collections::BTreeSet<_>>();
    assert!(
        bd.total_seconds() <= (ranks.len() as f64) * extent_ns as f64 * 1e-9,
        "breakdown double-counts nested spans"
    );
}

#[test]
fn prometheus_exposition_golden() {
    let _g = GUARD.lock().unwrap();
    mcm_obs::enable_metrics(true);
    let reg = mcm_obs::registry();
    reg.clear();
    reg.counter("golden_requests_total", &[("verb", "query")]).add(3);
    reg.counter("golden_requests_total", &[("verb", "insert")]).add(5);
    reg.gauge("golden_live_edges", &[]).set(12.5);
    let h = reg.histogram("golden_latency_seconds", &[("op", "batch")]);
    h.observe_ns(900); // le 1024ns bucket
    h.observe_ns(900);
    h.observe_ns(70_000); // le 131072ns bucket
    let text = mcm_obs::prom::expose(reg);
    reg.clear();
    mcm_obs::enable_metrics(false);
    let expect = "\
# TYPE golden_requests_total counter
golden_requests_total{verb=\"insert\"} 5
golden_requests_total{verb=\"query\"} 3
# TYPE golden_live_edges gauge
golden_live_edges 12.5
# TYPE golden_latency_seconds histogram
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000000001\"} 0
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000000002\"} 0
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000000004\"} 0
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000000008\"} 0
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000000016\"} 0
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000000032\"} 0
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000000064\"} 0
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000000128\"} 0
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000000256\"} 0
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000000512\"} 0
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000001024\"} 2
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000002048\"} 2
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000004096\"} 2
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000008192\"} 2
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000016384\"} 2
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000032768\"} 2
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000065536\"} 2
golden_latency_seconds_bucket{op=\"batch\",le=\"0.000131072\"} 3
golden_latency_seconds_bucket{op=\"batch\",le=\"+Inf\"} 3
golden_latency_seconds_sum{op=\"batch\"} 0.0000718
golden_latency_seconds_count{op=\"batch\"} 3
";
    assert_eq!(text, expect, "exposition drifted:\n{text}");
}

/// `mcm_init_rounds_total{exec}` says how each dynamic-mindegree round
/// ran: a cold solve on the simulator's single block pulls every round from
/// the structure; the engine's 2×2 mesh pushes every round.
#[test]
fn init_rounds_record_how_they_ran() {
    let _g = GUARD.lock().unwrap();
    let t = rmat(RmatParams::g500(12), 7);
    let a = t.to_csc();
    let opts = McmOptions::default();
    let rounds = |solve: &dyn Fn() -> usize| {
        mcm_obs::enable_metrics(true);
        let reg = mcm_obs::registry();
        reg.clear();
        assert!(solve() > 0);
        let read = |exec| reg.counter("mcm_init_rounds_total", &[("exec", exec)]).get();
        let counts = (read("structure"), read("product"));
        reg.clear();
        mcm_obs::enable_metrics(false);
        counts
    };
    let (sim_structure, sim_product) = rounds(&|| {
        let mut ctx = mcm_bsp::DistCtx::new(mcm_bsp::MachineConfig::hybrid(2, 1));
        maximum_matching(&mut ctx, &a.view(), Start::Cold, &opts).matching.cardinality()
    });
    let (eng_structure, eng_product) = rounds(&|| {
        let mut eng = mcm_bsp::EngineComm::new(4, 1);
        maximum_matching(&mut eng, &a.view(), Start::Cold, &opts).matching.cardinality()
    });
    assert!(sim_structure > 1, "the simulator pulls every round from the structure");
    assert_eq!(sim_product, 0, "no simulator round pushes its proposals");
    assert_eq!(eng_structure, 0, "the mesh engine runs every round as a product");
    assert_eq!(eng_product, sim_structure + sim_product, "both backends run the same rounds");
}

#[test]
fn only_what_needs_the_transpose_builds_it() {
    // The default cold solve on the 2 × 2 simulator reads `A` alone; the
    // transpose is built once for Karp–Sipser and for dynamic mindegree on
    // a logical grid three blocks wide, and never for a warm start, which
    // skips the initializer.
    use mcm_bsp::{DistCtx, MachineConfig};
    use mcm_core::maximal::Initializer;
    let _g = GUARD.lock().unwrap();
    let a = rmat(RmatParams::g500(10), 7).to_csc();
    let builds = |dim: usize, start: Start, opts: McmOptions| {
        mcm_obs::enable_metrics(true);
        let reg = mcm_obs::registry();
        reg.clear();
        let mut ctx = DistCtx::new(MachineConfig::hybrid(dim, 1));
        assert!(maximum_matching(&mut ctx, &a.view(), start, &opts).matching.cardinality() > 0);
        let n = reg.counter("mcm_transpose_builds_total", &[]).get();
        reg.clear();
        mcm_obs::enable_metrics(false);
        n
    };
    let default = McmOptions::default();
    assert_eq!(builds(2, Start::Cold, default), 0, "default solve on 2 x 2");
    let ks = McmOptions { init: Initializer::KarpSipser, ..default };
    assert_eq!(builds(2, Start::Cold, ks), 1, "Karp-Sipser");
    let empty = mcm_core::Matching::empty(a.nrows(), a.ncols());
    assert_eq!(builds(2, Start::Warm(empty), ks), 0, "Karp-Sipser on a warm start");
    assert_eq!(builds(3, Start::Cold, default), 1, "dynamic mindegree on 3 x 3");
}

/// The <2% disabled-recorder gate (CI runs this under `--release`).
///
/// The instrumented baseline *is* the shipped code, so compiled-in-but-off
/// overhead cannot be measured differentially. Model it instead: count
/// the instrumentation sites a real engine run passes (event count of an
/// enabled run; metrics helpers guard identically, cheaper), microbench
/// the disabled per-site cost (one `Relaxed` load), and compare their
/// product against the run's disabled wall time.
#[test]
fn disabled_recorder_overhead_is_under_two_percent() {
    let _g = GUARD.lock().unwrap();
    let t = rmat(RmatParams::g500(8), 7);
    let opts = McmOptions::default();
    let run = |t: &mcm_sparse::Triples| {
        let mut comm = mcm_bsp::EngineComm::new(4, 2);
        maximum_matching(&mut comm, &t.to_csc().view(), Start::Cold, &opts).matching.cardinality()
    };

    // Sites per run, from an enabled run's trace (span sites; each is one
    // guard-load when disabled). Double it to cover the metrics helpers.
    mcm_obs::enable_tracing(true);
    drop(mcm_obs::take_trace());
    run(&t);
    mcm_obs::enable_tracing(false);
    let sites = 2 * mcm_obs::take_trace().events.len() as u64;
    assert!(sites > 0);

    // Disabled per-site cost, amortized over a big loop.
    let reps: u64 = 1_000_000;
    let sw = mcm_obs::Stopwatch::new();
    for i in 0..reps {
        drop(std::hint::black_box(mcm_obs::span(std::hint::black_box("gate_site"))));
        mcm_obs::counter_add(std::hint::black_box("gate_site_total"), &[], i);
    }
    let ns_per_site = sw.elapsed_ns() as f64 / (2 * reps) as f64;

    // Disabled wall time of the same run (best of 3 to shed scheduler
    // noise; the modeled overhead is compared against real run time).
    let mut best = u64::MAX;
    for _ in 0..3 {
        let sw = mcm_obs::Stopwatch::new();
        std::hint::black_box(run(&t));
        best = best.min(sw.elapsed_ns());
    }

    let overhead = sites as f64 * ns_per_site / best as f64;
    assert!(
        overhead < 0.02,
        "disabled-recorder overhead {:.4}% over the 2% gate \
         ({sites} sites x {ns_per_site:.2} ns vs {best} ns run)",
        overhead * 100.0
    );
}

/// A minimal validating JSON parser — just enough to check the Chrome
/// export is real JSON without pulling a serde dependency into the
/// workspace. Returns the byte offset of the first error.
mod json {
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(BTreeMap<String, Value>),
    }

    pub fn parse(s: &str) -> Result<Value, usize> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i == b.len() {
            Ok(v)
        } else {
            Err(i)
        }
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, usize> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => Ok(Value::String(string(b, i)?)),
            Some(b't') => lit(b, i, "true", Value::Bool(true)),
            Some(b'f') => lit(b, i, "false", Value::Bool(false)),
            Some(b'n') => lit(b, i, "null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            _ => Err(*i),
        }
    }

    fn lit(b: &[u8], i: &mut usize, word: &str, v: Value) -> Result<Value, usize> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(v)
        } else {
            Err(*i)
        }
    }

    fn number(b: &[u8], i: &mut usize) -> Result<Value, usize> {
        let start = *i;
        while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *i += 1;
        }
        std::str::from_utf8(&b[start..*i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Number)
            .ok_or(start)
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, usize> {
        if b.get(*i) != Some(&b'"') {
            return Err(*i);
        }
        *i += 1;
        let mut out = String::new();
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = b.get(*i + 1..*i + 5).ok_or(*i)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| *i)?, 16)
                                    .map_err(|_| *i)?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *i += 4;
                        }
                        _ => return Err(*i),
                    }
                    *i += 1;
                }
                c if c < 0x20 => return Err(*i),
                _ => {
                    let ch_start = *i;
                    while *i < b.len() && !matches!(b[*i], b'"' | b'\\') && b[*i] >= 0x20 {
                        *i += 1;
                    }
                    out.push_str(std::str::from_utf8(&b[ch_start..*i]).map_err(|_| ch_start)?);
                }
            }
        }
        Err(*i)
    }

    fn array(b: &[u8], i: &mut usize) -> Result<Value, usize> {
        *i += 1; // [
        let mut items = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(value(b, i)?);
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(*i),
            }
        }
    }

    fn object(b: &[u8], i: &mut usize) -> Result<Value, usize> {
        *i += 1; // {
        let mut map = BTreeMap::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(Value::Object(map));
        }
        loop {
            skip_ws(b, i);
            let k = string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(*i);
            }
            *i += 1;
            map.insert(k, value(b, i)?);
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(*i),
            }
        }
    }
}
