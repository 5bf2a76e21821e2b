//! Streaming Matrix Market → MCSB conversion.
//!
//! The converter never holds the edge list: lines are read in chunks,
//! parsed in parallel (`mcm-par`), and pushed straight into a
//! [`McsbStreamWriter`](crate::McsbStreamWriter), so memory is bounded by
//! the chunk size plus the stream writer's bucket budget regardless of the
//! input size. Header and entries go through the `mcm_sparse::io` parsers
//! the in-memory readers use: 1-based coordinates,
//! `general`/`symmetric`/`skew-symmetric` symmetry with mirror expansion,
//! finite values kept iff the field is not `pattern` (`complex` keeps the
//! real part), and a declared-count check at EOF.

use crate::format::StoreError;
use crate::stream::McsbStreamWriter;
use mcm_sparse::io::{is_mm_comment, parse_mm_entry, parse_mm_header, MmError};
use mcm_sparse::Vidx;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Lines parsed per parallel chunk.
const CHUNK_LINES: usize = 1 << 16;

/// What a conversion produced.
#[derive(Clone, Copy, Debug)]
pub struct ConvertSummary {
    /// Rows in the converted graph.
    pub nrows: usize,
    /// Columns in the converted graph.
    pub ncols: usize,
    /// Nonzeros after symmetry expansion and deduplication.
    pub nnz: u64,
    /// Whether the MCSB file carries values.
    pub weighted: bool,
    /// MCSB file size in bytes.
    pub bytes: u64,
}

/// Converts a Matrix Market file to MCSB using [`mcm_par::max_threads`]
/// parse workers.
pub fn convert_matrix_market(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
) -> Result<ConvertSummary, StoreError> {
    convert_matrix_market_with(src, dst, mcm_par::max_threads())
}

/// Converts a Matrix Market file to MCSB with an explicit parse-worker
/// count. The output is weighted iff the source field is not `pattern`.
pub fn convert_matrix_market_with(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    threads: usize,
) -> Result<ConvertSummary, StoreError> {
    let src = src.as_ref();
    let mut lines = BufReader::new(std::fs::File::open(src)?).lines();

    let h = parse_mm_header(&mut lines).map_err(mm_error)?;
    let (nrows, ncols, has_value) = (h.nrows, h.ncols, h.has_value);

    let mut writer = McsbStreamWriter::create(&dst, nrows, ncols, has_value)?;
    let threads = threads.max(1);
    let mut chunk: Vec<String> = Vec::with_capacity(CHUNK_LINES);
    let mut seen = 0usize;
    let flush_chunk = |chunk: &mut Vec<String>,
                       writer: &mut McsbStreamWriter,
                       seen: &mut usize|
     -> Result<(), StoreError> {
        if chunk.is_empty() {
            return Ok(());
        }
        let parsed: Vec<Result<(Vidx, Vidx, f64), MmError>> =
            mcm_par::par_map_range(chunk.len(), threads, |k| parse_mm_entry(&chunk[k], &h));
        let mut out: Vec<(Vidx, Vidx, f64)> =
            Vec::with_capacity(chunk.len() * if h.mirror { 2 } else { 1 });
        for r in parsed {
            let e = r.map_err(mm_error)?;
            out.push(e);
            out.extend(h.mirrored(e));
        }
        *seen += chunk.len();
        if has_value {
            writer.push_weighted_edges(&out)?;
        } else {
            let pairs: Vec<(Vidx, Vidx)> = out.iter().map(|&(i, j, _)| (i, j)).collect();
            writer.push_edges(&pairs)?;
        }
        chunk.clear();
        Ok(())
    };

    for line in lines {
        let line = line?;
        if is_mm_comment(&line) {
            continue;
        }
        chunk.push(line);
        if chunk.len() >= CHUNK_LINES {
            flush_chunk(&mut chunk, &mut writer, &mut seen)?;
        }
    }
    flush_chunk(&mut chunk, &mut writer, &mut seen)?;
    if seen != h.nnz {
        return Err(StoreError::Format(format!("expected {} entries, found {seen}", h.nnz)));
    }
    let summary = writer.finish(threads)?;
    Ok(ConvertSummary { nrows, ncols, nnz: summary.nnz, weighted: has_value, bytes: summary.bytes })
}

/// Parse failures keep their text; I/O failures stay I/O errors.
fn mm_error(e: MmError) -> StoreError {
    match e {
        MmError::Io(e) => StoreError::Io(e),
        e => StoreError::Format(e.to_string()),
    }
}
