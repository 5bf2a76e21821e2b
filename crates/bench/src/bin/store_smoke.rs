//! `store_smoke` — the CI acceptance check for the out-of-core chain
//! (DESIGN.md §18): stream-generate a scale-16 G500 RMAT graph into MCSB,
//! mmap it, assert the load stayed out-of-core (resident-set growth a
//! small fraction of the on-disk size), solve on the simulator from the
//! borrowed view, hold the solve's memory to a budget, and Berge-certify
//! the result.
//!
//! The memory gate reads `VmHWM` after `maximum_matching` against `VmRSS`
//! before it. The rise may not exceed the mapped file's bytes plus
//! [`VERTEX_BYTES`] per vertex: a solve that also built any nnz-sized
//! structure, a copy of the matrix or its transpose, fails.
//!
//! Exits non-zero on any failed step. `--scale n` overrides the size.

use mcm_bench::proc_status_bytes;
use mcm_bsp::{DistCtx, MachineConfig};
use mcm_core::verify::is_maximum;
use mcm_core::{maximum_matching, McmOptions, Start};
use mcm_gen::RmatParams;
use mcm_store::{McsbFile, McsbStreamWriter};
use std::process::ExitCode;

/// Edges generated per vertex. Dense enough that an nnz-sized copy of the
/// matrix (4 bytes an entry) is several times the per-vertex workspace, so
/// the memory gate tells the two apart.
const EDGE_FACTOR: usize = 64;

/// The solve's per-vertex allowance beyond the mapped file, in bytes per
/// vertex (rows plus columns): matchings, parent and path vectors,
/// permutations and their inverses, fold tables, the SpMSpV accumulators
/// and frontiers, and the initializer's degree counters, keys and copied
/// member rows. Fitted on scales 14–18 at this edge factor (at most 38.5
/// bytes a vertex, EXPERIMENTS.md), plus 20% headroom.
const VERTEX_BYTES: u64 = 47;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: u32 = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let p = RmatParams { edge_factor: EDGE_FACTOR, ..RmatParams::g500(scale) };
    let path = std::env::temp_dir().join(format!("mcm_store_smoke_{}.mcsb", std::process::id()));

    // Stream-generate: the full edge list never materializes.
    let mut w = McsbStreamWriter::create(&path, p.n(), p.n(), false).expect("create writer");
    let mut push_err = None;
    mcm_gen::stream_edges(&p, 7, |chunk| {
        if push_err.is_none() {
            push_err = w.push_edges(chunk).err();
        }
    });
    if let Some(e) = push_err {
        eprintln!("store_smoke: stream write failed: {e}");
        return ExitCode::FAILURE;
    }
    let summary = w.finish(mcm_par::max_threads()).expect("finish");
    eprintln!(
        "store_smoke: wrote scale-{scale} MCSB: {} nnz, {} bytes",
        summary.nnz, summary.bytes
    );

    // Mmap-load and check the residency claim: opening + building the view
    // touches the header and colptr pages only, so RSS growth must stay a
    // small fraction of the on-disk size (budget: 1/4, generous vs. the
    // ~3% a scale-16 colptr section actually is).
    let rss_before = proc_status_bytes("VmRSS:");
    let file = McsbFile::open(&path).expect("mmap open");
    let v = file.view();
    if let (Some(before), Some(after)) = (rss_before, proc_status_bytes("VmRSS:")) {
        let delta = after.saturating_sub(before);
        let budget = summary.bytes / 4;
        if file.is_mapped() && delta > budget {
            eprintln!(
                "store_smoke: FAIL: mmap load grew RSS by {delta} bytes (> {budget} = file/4)"
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "store_smoke: load rss delta {delta} bytes ({:.1}% of file, mapped={})",
            100.0 * delta as f64 / summary.bytes as f64,
            file.is_mapped()
        );
    } else {
        eprintln!("store_smoke: /proc/self/status unavailable; skipping RSS assertion");
    }

    // Solve from the borrowed view and certify maximality.
    let mut comm = DistCtx::new(MachineConfig::hybrid(2, mcm_par::max_threads()));
    let opts = McmOptions::default();
    let rss_before = proc_status_bytes("VmRSS:");
    let res = maximum_matching(&mut comm, &v, Start::Cold, &opts);
    let hwm_after = proc_status_bytes("VmHWM:");
    if let (Some(before), Some(peak)) = (rss_before, hwm_after) {
        // The rise bounds the solve's own growth from above: exact when the
        // solve set the peak, and generation peaks far lower.
        let rise = peak.saturating_sub(before);
        let vertices = (v.nrows() + v.ncols()) as u64;
        let budget = summary.bytes + VERTEX_BYTES * vertices;
        eprintln!(
            "store_smoke: solve VmHWM rise {rise} bytes; budget {budget} = file {} + \
             {VERTEX_BYTES} x {vertices} vertices ({:.1} bytes a vertex beyond the file)",
            summary.bytes,
            (rise as f64 - summary.bytes as f64) / vertices as f64
        );
        if rise > budget {
            eprintln!("store_smoke: FAIL: the solve's memory rise {rise} exceeds {budget} bytes");
            return ExitCode::FAILURE;
        }
    } else {
        eprintln!("store_smoke: /proc/self/status unavailable; skipping the memory gate");
    }
    if !is_maximum(v, &res.matching) {
        eprintln!("store_smoke: FAIL: Berge certificate rejected the matching");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "store_smoke: OK: cardinality {} of {} columns, Berge-certified",
        res.matching.cardinality(),
        v.ncols()
    );
    std::fs::remove_file(&path).ok();
    ExitCode::SUCCESS
}
