//! Writing MCSB files from in-RAM matrices.
//!
//! These one-shot writers serve graphs that already fit in memory (tests,
//! small conversions, `Csc`/`WCsc` snapshots). The bounded-memory ingest
//! paths live in [`crate::stream`]. Both write under a temporary name beside
//! the target and rename the finished file over it, so a reader never sees
//! a half-written graph at the target path and one that has the old file
//! mapped keeps reading the old bytes.

use crate::format::{fnv1a, Header, StoreError, FNV_OFFSET};
use mcm_sparse::{Csc, Vidx, WCsc};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes a pattern matrix as an MCSB file. Returns the file size in bytes.
pub fn write_csc_file(path: impl AsRef<Path>, a: &Csc) -> Result<u64, StoreError> {
    write_parts(path, a.nrows(), a.ncols(), a.colptr(), a.rowind(), None)
}

/// Writes a weighted matrix as an MCSB file. Returns the file size in bytes.
pub fn write_wcsc_file(path: impl AsRef<Path>, a: &WCsc) -> Result<u64, StoreError> {
    write_parts(
        path,
        a.nrows(),
        a.ncols(),
        a.pattern().colptr(),
        a.pattern().rowind(),
        Some(a.values()),
    )
}

/// Writes raw CSC arrays as an MCSB file. `colptr` must be the usual
/// `ncols + 1` monotone offsets; `values`, when present, must align
/// one-to-one with `rowind`.
pub fn write_parts(
    path: impl AsRef<Path>,
    nrows: usize,
    ncols: usize,
    colptr: &[u64],
    rowind: &[Vidx],
    values: Option<&[f64]>,
) -> Result<u64, StoreError> {
    if colptr.len() != ncols + 1 || colptr.last().copied() != Some(rowind.len() as u64) {
        return Err(StoreError::Format(format!(
            "colptr ({} entries, end {:?}) does not describe rowind ({} entries)",
            colptr.len(),
            colptr.last(),
            rowind.len()
        )));
    }
    if let Some(v) = values {
        if v.len() != rowind.len() {
            return Err(StoreError::Format(format!(
                "values ({}) must align with rowind ({})",
                v.len(),
                rowind.len()
            )));
        }
    }
    let mut header =
        Header::layout(nrows as u64, ncols as u64, rowind.len() as u64, values.is_some());

    // Hash the payload first so the header can be written up front and the
    // file emitted in one sequential pass.
    let mut h = FNV_OFFSET;
    for &p in colptr {
        h = fnv1a(h, &p.to_le_bytes());
    }
    for &i in rowind {
        h = fnv1a(h, &i.to_le_bytes());
    }
    if let Some(vals) = values {
        for &w in vals {
            h = fnv1a(h, &w.to_le_bytes());
        }
    }
    header.payload_checksum = h;

    let path = path.as_ref();
    let tmp = sibling_tmp(path);
    let result = write_sections(&tmp, &header, colptr, rowind, values).and_then(|written| {
        std::fs::rename(&tmp, path)?;
        Ok(written)
    });
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// A fresh name beside `path` (same directory, so same file system, so a
/// rename over `path` is atomic), unique across processes and threads.
fn sibling_tmp(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!("{}.{}-{n}.tmp", path.display(), std::process::id()))
}

/// Emits the header and sections to a new file at `path` in one pass.
fn write_sections(
    path: &Path,
    header: &Header,
    colptr: &[u64],
    rowind: &[Vidx],
    values: Option<&[f64]>,
) -> Result<u64, StoreError> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0u64;
    w.write_all(&header.encode())?;
    written += header.encode().len() as u64;
    for &p in colptr {
        w.write_all(&p.to_le_bytes())?;
        written += 8;
    }
    written = pad_to(&mut w, written, header.rowind_off)?;
    for &i in rowind {
        w.write_all(&i.to_le_bytes())?;
        written += 4;
    }
    if let Some(vals) = values {
        written = pad_to(&mut w, written, header.values_off)?;
        for &v in vals {
            w.write_all(&v.to_le_bytes())?;
            written += 8;
        }
    }
    w.flush()?;
    debug_assert_eq!(written, header.file_len());
    Ok(written)
}

/// Writes zero padding from `pos` up to `target`, returning `target`.
pub(crate) fn pad_to<W: Write>(w: &mut W, pos: u64, target: u64) -> Result<u64, StoreError> {
    debug_assert!(target >= pos, "sections must be emitted in ascending order");
    const ZEROS: [u8; 64] = [0; 64];
    let mut gap = (target - pos) as usize;
    while gap > 0 {
        let n = gap.min(ZEROS.len());
        w.write_all(&ZEROS[..n])?;
        gap -= n;
    }
    Ok(target)
}
