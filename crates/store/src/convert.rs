//! Streaming Matrix Market → MCSB conversion.
//!
//! The converter never holds the edge list or the text: the body is read
//! in fixed-size byte blocks by [`MmReader`], the one Matrix Market parser
//! the in-memory readers use too, and each chunk of parsed entries is
//! pushed straight into a [`McsbStreamWriter`].
//! Memory is bounded by one block of text and one chunk of entries plus
//! the stream writer's bucket budget, regardless of the input size. The
//! parse is `MmReader`'s: 1-based coordinates,
//! `general`/`symmetric`/`skew-symmetric` symmetry with mirror expansion,
//! finite values kept iff the field is not `pattern` (`complex` keeps the
//! real part), and a declared-count check at the end of the body.

use crate::format::StoreError;
use crate::stream::McsbStreamWriter;
use mcm_sparse::io::MmReader;
use mcm_sparse::Vidx;
use std::path::Path;

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

/// Converts a Matrix Market file to MCSB, sorting the spilled buckets on
/// [`mcm_par::max_threads`] workers.
pub fn convert_matrix_market(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
) -> Result<ConvertSummary, StoreError> {
    convert_matrix_market_with(src, dst, mcm_par::max_threads())
}

/// Converts a Matrix Market file to MCSB; `threads` sizes only the
/// stream writer's bucket sort (the parse is one sequential pass). The
/// output is weighted iff the source field is not `pattern`.
pub fn convert_matrix_market_with(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    threads: usize,
) -> Result<ConvertSummary, StoreError> {
    let reader = MmReader::new(std::fs::File::open(src.as_ref())?)?;
    let h = *reader.header();
    let mut writer = McsbStreamWriter::create(&dst, h.nrows, h.ncols, h.has_value)?;
    let mut pairs: Vec<(Vidx, Vidx)> = Vec::new();
    reader.for_each_chunk(|chunk| {
        if h.has_value {
            writer.push_weighted_edges(chunk)
        } else {
            pairs.clear();
            pairs.extend(chunk.iter().map(|&(i, j, _)| (i, j)));
            writer.push_edges(&pairs)
        }
    })?;
    let summary = writer.finish(threads.max(1))?;
    Ok(ConvertSummary {
        nrows: h.nrows,
        ncols: h.ncols,
        nnz: summary.nnz,
        weighted: h.has_value,
        bytes: summary.bytes,
    })
}
