//! `store` — the out-of-core scaling curve behind BENCH_store.json
//! (DESIGN.md §18, EXPERIMENTS.md "Scaling past RAM-resident inputs").
//!
//! For each scale the harness stream-generates a G500 RMAT graph straight
//! into an MCSB file (bounded memory — the edge list never materializes),
//! then measures the read side of the zero-copy chain:
//!
//! * `load` — `McsbFile::open` (mmap + header/colptr validation only);
//! * `rss_delta` — resident-set growth across open + full view
//!   construction, the number the format exists to keep small;
//! * `solve` — `maximum_matching` on the simulator (4 logical ranks), end-to-end
//!   on the borrowed view, Berge-certified at the smallest scale;
//! * `solve_hwm` — the process's `VmHWM` after the solve. Each run is a
//!   child process of its own (this binary, re-run with `MCM_STORE_RUN`
//!   set to the scale), so the figure is that run's solve peak
//!   (generation peaks far lower).
//!
//! Each scale runs [`RUNS`] times; the record keeps the median of each
//! figure, and the min and max of `gen_secs`, `solve_secs` and
//! `solve_hwm_bytes`, since one run's `VmHWM` and times vary by several
//! percent. The record carries the host (cores, CPU model) and the commit.
//!
//! Custom harness (not the criterion stand-in): the record carries RSS and
//! file-size fields that the shared `BenchRecord` schema has no slots for.
//! Writes to `$MCM_BENCH_JSON` or `BENCH_store.json`, a relative path
//! taken from the workspace root. Scales default to
//! `15,18,20`; override with `MCM_STORE_SCALES=s1,s2,...` (CI uses a
//! smaller list — see .github/workflows/ci.yml).

use mcm_bench::proc_status_bytes;
use mcm_bsp::{DistCtx, MachineConfig};
use mcm_core::verify::is_maximum;
use mcm_core::{maximum_matching, McmOptions, McmResult, Start};
use mcm_gen::RmatParams;
use mcm_sparse::CscView;
use mcm_store::{McsbFile, McsbStreamWriter};
use std::time::Instant;

/// Runs per scale.
const RUNS: usize = 3;

/// One cold solve of `v` on the simulator with 4 logical ranks.
fn solve_sim(v: &CscView<'_>, threads: usize) -> McmResult {
    let mut comm = DistCtx::new(MachineConfig::hybrid(2, threads));
    maximum_matching(&mut comm, v, Start::Cold, &McmOptions::default())
}

struct ScaleRecord {
    scale: u32,
    nnz: u64,
    file_bytes: u64,
    gen_secs: f64,
    load_secs: f64,
    rss_delta_bytes: Option<u64>,
    solve_secs: f64,
    solve_hwm_bytes: Option<u64>,
    cardinality: usize,
}

impl ScaleRecord {
    /// The one line a child run prints for its parent.
    fn to_line(&self) -> String {
        let opt = |b: Option<u64>| b.map_or("null".to_string(), |b| b.to_string());
        format!(
            "{} {} {} {} {} {} {} {} {}",
            self.scale,
            self.nnz,
            self.file_bytes,
            self.gen_secs,
            self.load_secs,
            opt(self.rss_delta_bytes),
            self.solve_secs,
            opt(self.solve_hwm_bytes),
            self.cardinality
        )
    }

    fn from_line(line: &str) -> Option<ScaleRecord> {
        let f: Vec<&str> = line.split_whitespace().collect();
        let opt = |s: &str| if s == "null" { Some(None) } else { s.parse().ok().map(Some) };
        match f[..] {
            [scale, nnz, file_bytes, gen, load, rss, solve, hwm, card] => Some(ScaleRecord {
                scale: scale.parse().ok()?,
                nnz: nnz.parse().ok()?,
                file_bytes: file_bytes.parse().ok()?,
                gen_secs: gen.parse().ok()?,
                load_secs: load.parse().ok()?,
                rss_delta_bytes: opt(rss)?,
                solve_secs: solve.parse().ok()?,
                solve_hwm_bytes: opt(hwm)?,
                cardinality: card.parse().ok()?,
            }),
            _ => None,
        }
    }
}

/// Runs one scale in a child process of this binary.
fn run_child(scale: u32, dir: &std::path::Path) -> ScaleRecord {
    let exe = std::env::current_exe().expect("bench binary path");
    let out = std::process::Command::new(exe)
        .env("MCM_STORE_RUN", scale.to_string())
        .env("MCM_STORE_DIR", dir)
        .output()
        .expect("spawn a store run");
    assert!(
        out.status.success(),
        "store run at scale {scale}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    ScaleRecord::from_line(text.trim()).unwrap_or_else(|| panic!("bad store run output: {text}"))
}

/// Median, min and max of one figure over a scale's runs, as JSON numbers
/// (`null` if a run lacks the figure).
fn spread(runs: &[ScaleRecord], figure: impl Fn(&ScaleRecord) -> Option<f64>) -> [String; 3] {
    match runs.iter().map(figure).collect::<Option<Vec<f64>>>() {
        Some(mut v) => {
            v.sort_by(f64::total_cmp);
            [v[v.len() / 2], v[0], v[v.len() - 1]].map(|x| x.to_string())
        }
        None => ["null"; 3].map(String::from),
    }
}

fn run_scale(scale: u32, dir: &std::path::Path) -> ScaleRecord {
    // Edge factor 16 keeps scale 20 around 16M edges — ~10× the largest
    // in-RAM instance the other benches touch, still CI-feasible.
    let p = RmatParams { edge_factor: 16, ..RmatParams::g500(scale) };
    let path = dir.join(format!("g500_s{scale}.mcsb"));

    let t0 = Instant::now();
    let mut w = McsbStreamWriter::create(&path, p.n(), p.n(), false).expect("create stream writer");
    let mut push_err = None;
    mcm_gen::stream_edges(&p, 42, |chunk| {
        if push_err.is_none() {
            push_err = w.push_edges(chunk).err();
        }
    });
    if let Some(e) = push_err {
        panic!("stream write failed: {e}");
    }
    let summary = w.finish(mcm_par::max_threads()).expect("finish stream");
    let gen_secs = t0.elapsed().as_secs_f64();

    let rss_before = proc_status_bytes("VmRSS:");
    let t1 = Instant::now();
    let file = McsbFile::open(&path).expect("mmap open");
    let v = file.view();
    let load_secs = t1.elapsed().as_secs_f64();
    let rss_delta_bytes = match (rss_before, proc_status_bytes("VmRSS:")) {
        (Some(b), Some(a)) => Some(a.saturating_sub(b)),
        _ => None,
    };

    let t2 = Instant::now();
    let res = solve_sim(&v, mcm_par::max_threads());
    let solve_secs = t2.elapsed().as_secs_f64();
    let solve_hwm_bytes = proc_status_bytes("VmHWM:");

    std::fs::remove_file(&path).ok();
    ScaleRecord {
        scale,
        nnz: summary.nnz,
        file_bytes: summary.bytes,
        gen_secs,
        load_secs,
        rss_delta_bytes,
        solve_secs,
        solve_hwm_bytes,
        cardinality: res.matching.cardinality(),
    }
}

fn main() {
    if let Ok(scale) = std::env::var("MCM_STORE_RUN") {
        let dir = std::path::PathBuf::from(std::env::var("MCM_STORE_DIR").expect("MCM_STORE_DIR"));
        let r = run_scale(scale.parse().expect("MCM_STORE_RUN is a scale"), &dir);
        println!("{}", r.to_line());
        return;
    }
    let mut scales: Vec<u32> = std::env::var("MCM_STORE_SCALES")
        .ok()
        .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![15, 18, 20]);
    scales.sort_unstable();
    let dir = std::env::temp_dir().join(format!("mcm_bench_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench scratch dir");

    // Berge-certify the chain once, at the smallest scale, so the curve is
    // anchored to a verified result without re-verifying at every size.
    {
        let smallest = *scales.iter().min().expect("at least one scale");
        let p = RmatParams { edge_factor: 16, ..RmatParams::g500(smallest.min(12)) };
        let path = dir.join("certify.mcsb");
        let mut w = McsbStreamWriter::create(&path, p.n(), p.n(), false).unwrap();
        mcm_gen::stream_edges(&p, 42, |chunk| w.push_edges(chunk).unwrap());
        w.finish(mcm_par::max_threads()).unwrap();
        let f = McsbFile::open(&path).unwrap();
        let v = f.view();
        let res = solve_sim(&v, 2);
        assert!(is_maximum(v, &res.matching), "Berge certificate failed");
        std::fs::remove_file(&path).ok();
        eprintln!("certified: scale {} matching is maximum (Berge)", smallest.min(12));
    }

    let mib = |b: u64| format!("{:.1} MiB", b as f64 / 1048576.0);
    let mut json = format!(
        "{{\n  \"bench\": \"store\",\n  \"host\": {:?},\n  \"commit\": {:?},\n  \
         \"edge_factor\": 16,\n  \"runs\": {RUNS},\n  \"scales\": [\n",
        mcm_bench::host(),
        mcm_bench::commit()
    );
    for (k, &scale) in scales.iter().enumerate() {
        let runs: Vec<ScaleRecord> = (0..RUNS).map(|_| run_child(scale, &dir)).collect();
        for r in &runs {
            assert_eq!(
                (r.scale, r.nnz, r.file_bytes, r.cardinality),
                (scale, runs[0].nnz, runs[0].file_bytes, runs[0].cardinality),
                "runs of scale {scale} disagree"
            );
            eprintln!(
                "store/g500_s{scale}: nnz {} file {} gen {:.3}s load {:.6}s rss_delta {} \
                 solve {:.3}s solve_hwm {} card {}",
                r.nnz,
                mib(r.file_bytes),
                r.gen_secs,
                r.load_secs,
                r.rss_delta_bytes.map_or("n/a".into(), mib),
                r.solve_secs,
                r.solve_hwm_bytes.map_or("n/a".into(), mib),
                r.cardinality
            );
        }
        let bytes = |b: Option<u64>| b.map(|b| b as f64);
        let [gen, gen_min, gen_max] = spread(&runs, |r| Some(r.gen_secs));
        let [solve, solve_min, solve_max] = spread(&runs, |r| Some(r.solve_secs));
        let [hwm, hwm_min, hwm_max] = spread(&runs, |r| bytes(r.solve_hwm_bytes));
        let [load, ..] = spread(&runs, |r| Some(r.load_secs));
        let [rss, ..] = spread(&runs, |r| bytes(r.rss_delta_bytes));
        json.push_str(&format!(
            "    {{\"scale\": {scale}, \"nnz\": {}, \"file_bytes\": {}, \"gen_secs\": {gen}, \
             \"gen_secs_min\": {gen_min}, \"gen_secs_max\": {gen_max}, \"load_secs\": {load}, \
             \"rss_delta_bytes\": {rss}, \"solve_secs\": {solve}, \"solve_secs_min\": {solve_min}, \
             \"solve_secs_max\": {solve_max}, \"solve_hwm_bytes\": {hwm}, \
             \"solve_hwm_bytes_min\": {hwm_min}, \"solve_hwm_bytes_max\": {hwm_max}, \
             \"cardinality\": {}}}{}\n",
            runs[0].nnz,
            runs[0].file_bytes,
            runs[0].cardinality,
            if k + 1 < scales.len() { "," } else { "" }
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
    json.push_str("  ]\n}\n");
    let out = criterion::bench_json_path("BENCH_store.json");
    std::fs::write(&out, json).expect("write BENCH_store.json");
    eprintln!("wrote {}", out.display());
}
