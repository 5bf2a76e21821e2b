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
//! * `solve_hwm` — the process's `VmHWM` after the solve. Scales run in
//!   ascending order in one process, so each figure is that scale's solve
//!   peak (generation peaks far lower).
//!
//! The record carries the host (cores, CPU model) and the commit.
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

    let mut records = Vec::new();
    for &scale in &scales {
        let r = run_scale(scale, &dir);
        eprintln!(
            "store/g500_s{}: nnz {} file {:.1} MiB gen {:.2}s load {:.6}s rss_delta {} solve {:.3}s \
             solve_hwm {} card {}",
            r.scale,
            r.nnz,
            r.file_bytes as f64 / (1024.0 * 1024.0),
            r.gen_secs,
            r.load_secs,
            r.rss_delta_bytes.map_or("n/a".into(), |b| format!("{:.1} MiB", b as f64 / 1048576.0)),
            r.solve_secs,
            r.solve_hwm_bytes.map_or("n/a".into(), |b| format!("{:.1} MiB", b as f64 / 1048576.0)),
            r.cardinality
        );
        records.push(r);
    }
    std::fs::remove_dir_all(&dir).ok();

    let out = criterion::bench_json_path("BENCH_store.json");
    let mut json = format!(
        "{{\n  \"bench\": \"store\",\n  \"host\": {:?},\n  \"commit\": {:?},\n  \
         \"edge_factor\": 16,\n  \"scales\": [\n",
        mcm_bench::host(),
        mcm_bench::commit()
    );
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scale\": {}, \"nnz\": {}, \"file_bytes\": {}, \"gen_secs\": {:.6}, \
             \"load_secs\": {:.6}, \"rss_delta_bytes\": {}, \"solve_secs\": {:.6}, \
             \"solve_hwm_bytes\": {}, \"cardinality\": {}}}{}\n",
            r.scale,
            r.nnz,
            r.file_bytes,
            r.gen_secs,
            r.load_secs,
            r.rss_delta_bytes.map_or("null".to_string(), |b| b.to_string()),
            r.solve_secs,
            r.solve_hwm_bytes.map_or("null".to_string(), |b| b.to_string()),
            r.cardinality,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write BENCH_store.json");
    eprintln!("wrote {}", out.display());
}
