//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this workspace member
//! shadows crates.io `criterion` with the subset of its API the benches in
//! `crates/bench/benches/` use: `criterion_group!` / `criterion_main!`,
//! `Criterion::benchmark_group`, `BenchmarkGroup::{sample_size, throughput,
//! bench_with_input, bench_function, finish}`, `Bencher::iter`,
//! `BenchmarkId`, and `Throughput`.
//!
//! Measurement is deliberately simple: a short warm-up sizes a batch so one
//! sample costs a few tens of milliseconds, then `sample_size` batches are
//! timed with `std::time::Instant` and summarized by min / median / mean
//! ns-per-iteration. Every result is printed and, at `criterion_main!`
//! exit, appended to a JSON summary under `target/bench-json/<bench>.json`
//! (override the path with the `MCM_BENCH_JSON` environment variable; a
//! relative path is taken from the workspace root, not from the bench
//! crate `cargo bench` runs in) so perf trajectories can be recorded
//! without the real criterion's report machinery.

use std::hint::black_box as std_black_box;
use std::time::Instant;

/// Re-export matching `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Throughput annotation attached to a benchmark (reported, not enforced).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: `function_name/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("kernel", 1024)` → `kernel/1024`.
    pub fn new(function_name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        Self { id: format!("{function_name}/{parameter}") }
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self { id: parameter.to_string() }
    }
}

/// One measured benchmark, as recorded into the JSON summary.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Group name (`Criterion::benchmark_group` argument).
    pub group: String,
    /// Benchmark id within the group.
    pub name: String,
    /// Minimum observed ns per iteration.
    pub ns_min: f64,
    /// Median ns per iteration across samples.
    pub ns_median: f64,
    /// Mean ns per iteration across samples.
    pub ns_mean: f64,
    /// Number of samples taken.
    pub samples: usize,
    /// Iterations per sample batch.
    pub iters_per_sample: u64,
    /// Optional throughput annotation (elements or bytes per iteration).
    pub throughput: Option<Throughput>,
}

/// The top-level harness: collects results from every group.
pub struct Criterion {
    bench_name: String,
    records: Vec<BenchRecord>,
    default_sample_size: usize,
}

impl Criterion {
    /// Harness for the named bench binary (used by `criterion_main!`).
    pub fn from_env(bench_name: &str) -> Self {
        Self { bench_name: bench_name.to_string(), records: Vec::new(), default_sample_size: 12 }
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { parent: self, name: name.to_string(), sample_size: None, throughput: None }
    }

    /// Benchmarks a function outside any group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.default_sample_size;
        let rec = run_one(&self.bench_name, "", name, sample_size, None, |b| f(b));
        self.records.push(rec);
        self
    }

    /// Writes the JSON summary; called by `criterion_main!` after all groups.
    pub fn finish_all(&self) {
        let path = match std::env::var("MCM_BENCH_JSON") {
            Ok(p) => resolve_bench_json(std::path::Path::new(&p), &workspace_root()),
            Err(_) => {
                let dir = std::path::Path::new("target").join("bench-json");
                if std::fs::create_dir_all(&dir).is_err() {
                    return;
                }
                dir.join(format!("{}.json", self.bench_name))
            }
        };
        match std::fs::File::create(&path) {
            Ok(f) => {
                use std::io::Write;
                let mut w = std::io::BufWriter::new(f);
                let _ = writeln!(w, "{}", self.to_json());
                let _ = w.flush();
                println!("\n[bench-json] {}", path.display());
            }
            Err(e) => eprintln!("[bench-json] write failed: {e}"),
        }
    }

    /// Renders every record as a JSON document (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{{\n  \"bench\": \"{}\",\n  \"results\": [\n", self.bench_name));
        for (k, r) in self.records.iter().enumerate() {
            let (tp_kind, tp_val) = match r.throughput {
                Some(Throughput::Elements(n)) => ("elements", n),
                Some(Throughput::Bytes(n)) => ("bytes", n),
                None => ("none", 0),
            };
            s.push_str(&format!(
                "    {{\"group\": \"{}\", \"name\": \"{}\", \"ns_min\": {:.1}, \"ns_median\": {:.1}, \"ns_mean\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}, \"throughput_kind\": \"{}\", \"throughput_per_iter\": {}}}{}\n",
                r.group,
                r.name,
                r.ns_min,
                r.ns_median,
                r.ns_mean,
                r.samples,
                r.iters_per_sample,
                tp_kind,
                tp_val,
                if k + 1 < self.records.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}");
        s
    }

    /// All records measured so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }
}

/// A group of benchmarks sharing a name, sample size, and throughput label.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples (clamped to `3..=25` to keep the
    /// offline harness fast).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.clamp(3, 25));
        self
    }

    /// Attaches a throughput annotation to subsequent benches in the group.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmarks `f` with a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let samples = self.sample_size.unwrap_or(self.parent.default_sample_size);
        let rec =
            run_one(&self.parent.bench_name, &self.name, &id.id, samples, self.throughput, |b| {
                f(b, input)
            });
        self.parent.records.push(rec);
        self
    }

    /// Benchmarks a closure with no extra input.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkIdOrStr>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into().0;
        let samples = self.sample_size.unwrap_or(self.parent.default_sample_size);
        let rec =
            run_one(&self.parent.bench_name, &self.name, &id, samples, self.throughput, |b| f(b));
        self.parent.records.push(rec);
        self
    }

    /// Ends the group (measurements are recorded eagerly; this is a no-op
    /// kept for API compatibility).
    pub fn finish(self) {}
}

/// Accepts both `&str` and [`BenchmarkId`] where criterion does.
pub struct BenchmarkIdOrStr(String);

impl From<&str> for BenchmarkIdOrStr {
    fn from(s: &str) -> Self {
        Self(s.to_string())
    }
}

impl From<String> for BenchmarkIdOrStr {
    fn from(s: String) -> Self {
        Self(s)
    }
}

impl From<BenchmarkId> for BenchmarkIdOrStr {
    fn from(id: BenchmarkId) -> Self {
        Self(id.id)
    }
}

/// Passed to the measured closure; `iter` runs and times the workload.
pub struct Bencher {
    /// Iterations to run per timed batch.
    iters: u64,
    /// Total elapsed nanoseconds across the batch, written by `iter`.
    elapsed_ns: f64,
}

impl Bencher {
    /// Times `iters` calls of `f` as one batch.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std_black_box(f());
        }
        self.elapsed_ns = start.elapsed().as_nanos() as f64;
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is excluded
    /// from the measurement. The [`BatchSize`] hint is accepted for API
    /// compatibility (inputs are always built one at a time here).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut elapsed = std::time::Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            std_black_box(routine(input));
            elapsed += start.elapsed();
        }
        self.elapsed_ns = elapsed.as_nanos() as f64;
    }
}

/// Batch sizing hint for [`Bencher::iter_batched`] (accepted, not used —
/// the offline harness builds inputs one at a time).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Input is cheap to hold; batch many.
    SmallInput,
    /// Input is large; batch few.
    LargeInput,
    /// One input per measurement.
    PerIteration,
}

/// Target wall-clock cost of one timed sample batch.
const TARGET_SAMPLE_NS: f64 = 25_000_000.0;
/// Cap on the total warm-up + calibration spend per benchmark.
const CALIBRATION_BUDGET_NS: f64 = 200_000_000.0;

fn run_one(
    bench: &str,
    group: &str,
    name: &str,
    samples: usize,
    throughput: Option<Throughput>,
    mut call: impl FnMut(&mut Bencher),
) -> BenchRecord {
    // Calibrate: grow the batch geometrically until one batch costs enough
    // to time reliably (or the calibration budget runs out for slow cases).
    let mut iters = 1u64;
    let mut spent = 0.0f64;
    let mut per_iter;
    loop {
        let mut b = Bencher { iters, elapsed_ns: 0.0 };
        call(&mut b);
        spent += b.elapsed_ns;
        per_iter = b.elapsed_ns / iters as f64;
        if b.elapsed_ns >= TARGET_SAMPLE_NS || spent >= CALIBRATION_BUDGET_NS {
            break;
        }
        let want = (TARGET_SAMPLE_NS / per_iter.max(1.0)).ceil() as u64;
        iters = want.clamp(iters + 1, iters.saturating_mul(8)).max(1);
    }

    let mut per_iter_samples: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher { iters, elapsed_ns: 0.0 };
        call(&mut b);
        per_iter_samples.push(b.elapsed_ns / iters as f64);
    }
    per_iter_samples.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    let ns_min = per_iter_samples.first().copied().unwrap_or(per_iter);
    let ns_median = per_iter_samples.get(per_iter_samples.len() / 2).copied().unwrap_or(per_iter);
    let ns_mean = if per_iter_samples.is_empty() {
        per_iter
    } else {
        per_iter_samples.iter().sum::<f64>() / per_iter_samples.len() as f64
    };

    let full = if group.is_empty() {
        format!("{bench}::{name}")
    } else {
        format!("{bench}::{group}/{name}")
    };
    let tp = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  ({:.1} Melem/s)", n as f64 * 1e3 / ns_median.max(1e-9))
        }
        Some(Throughput::Bytes(n)) => {
            format!("  ({:.1} MB/s)", n as f64 * 1e3 / ns_median.max(1e-9))
        }
        None => String::new(),
    };
    println!(
        "{full:<56} time: [{:.2} {:.2} {:.2}] µs/iter{tp}",
        ns_min / 1e3,
        ns_median / 1e3,
        ns_mean / 1e3
    );

    BenchRecord {
        group: group.to_string(),
        name: name.to_string(),
        ns_min,
        ns_median,
        ns_mean,
        samples: per_iter_samples.len(),
        iters_per_sample: iters,
        throughput,
    }
}

/// Bundles bench functions into a group runner, as criterion's macro does.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Entry point: runs every group and writes the JSON summary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_env(env!("CARGO_CRATE_NAME"));
            $( $group(&mut c); )+
            c.finish_all();
        }
    };
}

/// Where a custom-harness bench writes its JSON: `$MCM_BENCH_JSON`, else
/// `default`; a relative path is taken from the workspace root.
pub fn bench_json_path(default: &str) -> std::path::PathBuf {
    let p = std::env::var("MCM_BENCH_JSON").unwrap_or_else(|_| default.to_string());
    resolve_bench_json(std::path::Path::new(&p), &workspace_root())
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> std::path::PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).unwrap_or(manifest).to_path_buf()
}

/// Where `MCM_BENCH_JSON=path` writes: an absolute path as given, a
/// relative one under `root`.
fn resolve_bench_json(path: &std::path::Path, root: &std::path::Path) -> std::path::PathBuf {
    if path.is_absolute() {
        path.to_path_buf()
    } else {
        root.join(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn bench_json_paths_resolve_against_the_workspace_root() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").is_file(), "{}", root.display());
        assert!(root.join("crates").join("criterion").is_dir(), "{}", root.display());
        assert_eq!(resolve_bench_json(Path::new("BENCH_x.json"), &root), root.join("BENCH_x.json"));
        assert_eq!(resolve_bench_json(Path::new("out/b.json"), &root), root.join("out/b.json"));
        let abs = std::env::temp_dir().join("b.json");
        assert_eq!(resolve_bench_json(&abs, &root), abs);
    }

    fn record(c: &mut Criterion) {
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        g.throughput(Throughput::Elements(4));
        g.bench_with_input(BenchmarkId::new("add", 4), &[1u64, 2, 3, 4][..], |b, xs| {
            b.iter(|| xs.iter().sum::<u64>())
        });
        g.finish();
    }

    #[test]
    fn measures_and_serializes() {
        let mut c = Criterion::from_env("selftest");
        record(&mut c);
        assert_eq!(c.records().len(), 1);
        let r = &c.records()[0];
        assert!(r.ns_median > 0.0 && r.ns_min <= r.ns_median);
        let json = c.to_json();
        assert!(json.contains("\"group\": \"g\""));
        assert!(json.contains("\"name\": \"add/4\""));
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("f", 10).id, "f/10");
        assert_eq!(BenchmarkId::from_parameter("x").id, "x");
    }
}
