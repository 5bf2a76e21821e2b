//! Reading MCSB files: mmap-backed zero-copy views and a heap fallback.

use crate::format::{Header, StoreError, FNV_OFFSET, HEADER_LEN};
use crate::mmap::MmapRegion;
use mcm_sparse::{Csc, CscView, Vidx, WCsc};
use std::io::Read;
use std::path::Path;

/// How the file's bytes are held in memory.
enum Backing {
    /// The file is mapped; sections are reinterpreted in place.
    Mapped(MmapRegion),
    /// Sections were read and decoded onto the heap (portable fallback,
    /// also the path that eagerly verifies the payload checksum).
    Heap { colptr: Vec<u64>, rowind: Vec<Vidx>, values: Vec<f64> },
}

/// An opened MCSB graph file.
///
/// [`McsbFile::open`] maps the file and borrows the CSC arrays straight out
/// of the mapped pages — opening touches only the header page, so resident
/// memory stays far below the file size until the solver actually walks the
/// graph. [`McsbFile::open_heap`] reads and decodes the file instead; it is
/// the portable fallback and the integrity path (it verifies the payload
/// checksum eagerly, which the mmap path deliberately does not — hashing a
/// mapping faults in every page, defeating the point of mapping; call
/// [`McsbFile::verify_payload`] when you want that check).
pub struct McsbFile {
    header: Header,
    backing: Backing,
}

impl McsbFile {
    /// Opens an MCSB file via `mmap` (falling back to the heap path on
    /// platforms without the mapping wrapper). Validates magic, version,
    /// header checksum, that every section fits in the file, the colptr
    /// section, and that every row index is below `nrows` and above its
    /// predecessor in the same column; does **not** hash the payload.
    pub fn open(path: impl AsRef<Path>) -> Result<McsbFile, StoreError> {
        let path = path.as_ref();
        // The in-place view reinterprets little-endian file bytes as native
        // integers, so big-endian hosts must decode instead of map.
        if !cfg!(unix) || cfg!(target_endian = "big") {
            return Self::open_heap(path);
        }
        let mut f = std::fs::File::open(path)?;
        let file_len = f.metadata()?.len();
        let mut head = [0u8; HEADER_LEN];
        let got = read_up_to(&mut f, &mut head)?;
        let header = Header::decode(&head[..got])?;
        header.validate_extent(file_len)?;
        let map = MmapRegion::map_file(&f, header.file_len() as usize)?;
        // Validate the colptr section eagerly so `view()` cannot panic on a
        // corrupt payload. This faults in only the colptr pages (a small
        // fraction of the file); the rowind/values pages stay untouched.
        let colptr = section_as::<u64>(map.bytes(), header.colptr_off, header.ncols as usize + 1);
        check_colptr(&header, colptr)?;
        check_rowind_stream(&mut f, &header, colptr)?;
        Ok(McsbFile { header, backing: Backing::Mapped(map) })
    }

    /// Opens an MCSB file by reading it onto the heap, verifying the payload
    /// checksum, and decoding the sections into owned arrays.
    pub fn open_heap(path: impl AsRef<Path>) -> Result<McsbFile, StoreError> {
        let bytes = std::fs::read(path)?;
        let header = Header::decode(&bytes)?;
        header.validate_extent(bytes.len() as u64)?;
        let section = |off: u64, len: u64| &bytes[off as usize..(off + len) as usize];
        let mut h = crate::format::fnv1a(FNV_OFFSET, section(header.colptr_off, header.colptr_len));
        h = crate::format::fnv1a(h, section(header.rowind_off, header.rowind_len));
        if header.weighted {
            h = crate::format::fnv1a(h, section(header.values_off, header.values_len));
        }
        if h != header.payload_checksum {
            return Err(StoreError::ChecksumMismatch {
                stored: header.payload_checksum,
                computed: h,
            });
        }
        let colptr: Vec<u64> = section(header.colptr_off, header.colptr_len)
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let rowind: Vec<Vidx> = section(header.rowind_off, header.rowind_len)
            .chunks_exact(4)
            .map(|c| Vidx::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let values: Vec<f64> = if header.weighted {
            section(header.values_off, header.values_len)
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect()
        } else {
            Vec::new()
        };
        validate_payload(&header, &colptr, &rowind, &values)?;
        Ok(McsbFile { header, backing: Backing::Heap { colptr, rowind, values } })
    }

    /// The decoded header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.header.nrows as usize
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.header.ncols as usize
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.header.nnz as usize
    }

    /// Whether the file carries a values section.
    pub fn is_weighted(&self) -> bool {
        self.header.weighted
    }

    /// Whether this handle is mmap-backed (as opposed to the heap fallback).
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_))
    }

    /// The borrowed CSC view of the graph. On the mmap backing this borrows
    /// the mapped pages directly; nothing is copied or decoded.
    pub fn view(&self) -> CscView<'_> {
        match &self.backing {
            Backing::Mapped(map) => {
                let colptr =
                    section_as::<u64>(map.bytes(), self.header.colptr_off, self.ncols() + 1);
                let rowind = section_as::<Vidx>(map.bytes(), self.header.rowind_off, self.nnz());
                CscView::new(self.nrows(), self.ncols(), colptr, rowind)
            }
            Backing::Heap { colptr, rowind, .. } => {
                CscView::new(self.nrows(), self.ncols(), colptr, rowind)
            }
        }
    }

    /// The values aligned with the view's `rowind`, when weighted.
    pub fn values(&self) -> Option<&[f64]> {
        if !self.header.weighted {
            return None;
        }
        Some(match &self.backing {
            Backing::Mapped(map) => {
                section_as::<f64>(map.bytes(), self.header.values_off, self.nnz())
            }
            Backing::Heap { values, .. } => values,
        })
    }

    /// Recomputes the payload checksum and compares it to the header.
    ///
    /// On the mmap backing this faults in every page of the file — call it
    /// when integrity matters more than residency. The heap backing already
    /// verified at open, so this re-checks the decoded arrays' structure
    /// and returns `Ok`.
    pub fn verify_payload(&self) -> Result<(), StoreError> {
        match &self.backing {
            Backing::Mapped(map) => {
                let bytes = map.bytes();
                let section = |off: u64, len: u64| &bytes[off as usize..(off + len) as usize];
                let mut h = crate::format::fnv1a(
                    FNV_OFFSET,
                    section(self.header.colptr_off, self.header.colptr_len),
                );
                h = crate::format::fnv1a(
                    h,
                    section(self.header.rowind_off, self.header.rowind_len),
                );
                if self.header.weighted {
                    h = crate::format::fnv1a(
                        h,
                        section(self.header.values_off, self.header.values_len),
                    );
                }
                if h != self.header.payload_checksum {
                    return Err(StoreError::ChecksumMismatch {
                        stored: self.header.payload_checksum,
                        computed: h,
                    });
                }
                let v = self.view();
                validate_payload(&self.header, v.colptr(), v.rowind(), self.values().unwrap_or(&[]))
            }
            Backing::Heap { colptr, rowind, values } => {
                validate_payload(&self.header, colptr, rowind, values)
            }
        }
    }

    /// Materializes an owned [`Csc`] (for consumers that need ownership,
    /// e.g. the dynamic overlay base).
    pub fn to_csc(&self) -> Csc {
        self.view().to_csc()
    }

    /// Materializes an owned [`WCsc`] when the file is weighted.
    pub fn to_wcsc(&self) -> Option<WCsc> {
        let values = self.values()?;
        Some(WCsc::from_sorted_parts(self.to_csc(), values.to_vec()))
    }

    /// Consumes the file into an owned [`Csc`]. The heap backing hands
    /// over its decoded arrays without a copy; the mmap backing copies
    /// like [`McsbFile::to_csc`].
    pub fn into_csc(self) -> Csc {
        self.into_parts().0
    }

    /// Consumes the file into an owned [`WCsc`] when it is weighted, with
    /// the same moves as [`McsbFile::into_csc`].
    pub fn into_wcsc(self) -> Option<WCsc> {
        let weighted = self.is_weighted();
        let (pattern, values) = self.into_parts();
        weighted.then(|| WCsc::from_sorted_parts(pattern, values))
    }

    /// The pattern and the values (empty when unweighted), moved out of a
    /// heap backing or copied out of a mapping.
    fn into_parts(self) -> (Csc, Vec<f64>) {
        let (nrows, ncols) = (self.nrows(), self.ncols());
        match self.backing {
            Backing::Heap { colptr, rowind, values } => {
                (Csc::from_parts(nrows, ncols, colptr, rowind), values)
            }
            Backing::Mapped(_) => {
                (self.to_csc(), self.values().map(<[f64]>::to_vec).unwrap_or_default())
            }
        }
    }
}

/// Checks that a colptr section is a monotone `0..=nnz` offset array, so
/// [`CscView::new`]'s assertions can never fire on untrusted input.
fn check_colptr(h: &Header, colptr: &[u64]) -> Result<(), StoreError> {
    if colptr.first() != Some(&0)
        || colptr.last() != Some(&h.nnz)
        || colptr.windows(2).any(|w| w[0] > w[1])
    {
        return Err(StoreError::HeaderCorrupt(
            "colptr section is not a monotone 0..=nnz offset array".to_string(),
        ));
    }
    Ok(())
}

/// Fails on a bad row index among `rows`, the nonzeros at positions
/// `first..`: one not below the header's row count, or one not above its
/// predecessor in the same column (`CscView`'s rows are sorted and
/// deduplicated within each column). `prev` is the row of nonzero
/// `first - 1`, if any.
///
/// The fast path is branch-free: every descent must sit where a column
/// starts, and then each column's highest row is its last, so only the
/// rows that end a column are range-checked. Rows that fail it are
/// searched in order, and the first bad one (or `prev`, which only its
/// own column's end bounds) is reported.
fn check_rows(
    h: &Header,
    colptr: &[u64],
    first: u64,
    prev: Option<Vidx>,
    rows: &[Vidx],
) -> Result<(), StoreError> {
    let Some(&head) = rows.first() else { return Ok(()) };
    let end = first + rows.len() as u64;
    // Counted in `u32` lanes, which vectorize twice as wide as `u64`, over
    // blocks too short to overflow them.
    const BLOCK: usize = 1 << 20;
    let descents = rows[..rows.len() - 1]
        .chunks(BLOCK)
        .zip(rows[1..].chunks(BLOCK))
        .map(|(a, b)| u64::from(a.iter().zip(b).map(|(x, y)| u32::from(x >= y)).sum::<u32>()))
        .sum::<u64>()
        + u64::from(prev.is_some_and(|p| p >= head));
    // Column starts in `first..=end`: the row before each ends a column.
    let from = colptr.partition_point(|&p| p < first);
    let to = from + colptr[from..].partition_point(|&p| p <= end);
    let (mut at_starts, mut high, mut last) = (0, 0, None);
    for &p in &colptr[from..to] {
        if last != Some(p) {
            let k = (p - first) as usize;
            let before = if k == 0 { prev } else { Some(rows[k - 1]) };
            if k > 0 {
                high = high.max(rows[k - 1]);
            }
            if p < end && before.is_some_and(|r| r >= rows[k]) {
                at_starts += 1;
            }
        }
        last = Some(p);
    }
    if descents == at_starts && u64::from(high) < h.nrows {
        return Ok(());
    }
    let out_of_range = |index: u64, row: Vidx| StoreError::RowOutOfRange {
        index,
        row: u64::from(row),
        nrows: h.nrows,
    };
    if let Some(r) = prev.filter(|&r| u64::from(r) >= h.nrows) {
        return Err(out_of_range(first - 1, r));
    }
    let mut col = colptr.partition_point(|&p| p <= first) - 1;
    let mut before = prev;
    for (k, &row) in rows.iter().enumerate() {
        let p = first + k as u64;
        if u64::from(row) >= h.nrows {
            return Err(out_of_range(p, row));
        }
        while colptr[col + 1] <= p {
            col += 1;
        }
        match before {
            Some(r) if p > colptr[col] && r >= row => {
                return Err(StoreError::UnsortedColumn {
                    col: col as u64,
                    index: p,
                    row: u64::from(row),
                    prev: u64::from(r),
                });
            }
            _ => before = Some(row),
        }
    }
    unreachable!("the branch-free scans flagged rows the search found sound")
}

/// Checks the rowind section (see [`check_rows`]) with one sequential
/// pass of ordinary reads rather than through the mapping: the bytes come
/// from the page cache, so the open stays out-of-core (the mapped rowind
/// pages are faulted in only when the solver walks them), yet no solver
/// ever indexes with an out-of-range row or walks an unsorted column.
fn check_rowind_stream(
    f: &mut std::fs::File,
    h: &Header,
    colptr: &[u64],
) -> Result<(), StoreError> {
    use std::io::{Seek, SeekFrom};
    const CHUNK: usize = 1 << 16;
    f.seek(SeekFrom::Start(h.rowind_off))?;
    let mut buf = vec![0u8; CHUNK];
    let mut rows: Vec<Vidx> = Vec::with_capacity(CHUNK / 4);
    let (mut done, total) = (0u64, h.rowind_len);
    while done < total {
        let n = (total - done).min(CHUNK as u64) as usize;
        f.read_exact(&mut buf[..n])?;
        let prev = rows.last().copied();
        rows.clear();
        rows.extend(buf[..n].chunks_exact(4).map(|c| Vidx::from_le_bytes(c.try_into().unwrap())));
        check_rows(h, colptr, done / 4, prev, &rows)?;
        done += n as u64;
    }
    Ok(())
}

/// Full payload validation: colptr monotonicity, row indices in range
/// and strictly increasing within each column, and finite values (empty
/// for an unweighted file). Used on the heap
/// path (which holds all sections anyway) and by
/// [`McsbFile::verify_payload`].
fn validate_payload(
    h: &Header,
    colptr: &[u64],
    rowind: &[Vidx],
    values: &[f64],
) -> Result<(), StoreError> {
    check_colptr(h, colptr)?;
    check_rows(h, colptr, 0, None, rowind)?;
    if let Some((k, &value)) = values.iter().enumerate().find(|(_, w)| !w.is_finite()) {
        return Err(StoreError::NonFiniteValue { index: k as u64, value });
    }
    Ok(())
}

/// Reinterprets an aligned section of the mapped file as a typed slice.
///
/// `T` is one of `u64`/`u32`/`f64`; MCSB stores them little-endian, and the
/// mmap view path is only taken on little-endian hosts (see `McsbFile::open`
/// via the `cfg!` below) so the in-memory and on-disk representations agree.
fn section_as<T: Copy>(bytes: &[u8], off: u64, n: usize) -> &[T] {
    let off = off as usize;
    let len = n * std::mem::size_of::<T>();
    let slice = &bytes[off..off + len];
    assert_eq!(
        slice.as_ptr() as usize % std::mem::align_of::<T>(),
        0,
        "MCSB section offset must be aligned (64-byte sections over a page-aligned map)"
    );
    // SAFETY: the range is in bounds (sliced above), aligned (asserted), and
    // `T` is a plain-old-data numeric type for which any bit pattern is a
    // valid value. The lifetime is tied to `bytes`, i.e. the mapping.
    unsafe { std::slice::from_raw_parts(slice.as_ptr() as *const T, n) }
}

fn read_up_to(f: &mut std::fs::File, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        let n = f.read(&mut buf[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first order violation by a plain per-column walk, or `(ncols,
    /// 0)` when the only violations are out-of-range rows.
    fn naive(colptr: &[u64], rows: &[Vidx]) -> Option<(u64, u64)> {
        let unsorted = (0..colptr.len() - 1).find_map(|j| {
            let col = &rows[colptr[j] as usize..colptr[j + 1] as usize];
            let k = col.windows(2).position(|w| w[0] >= w[1])?;
            Some((j as u64, colptr[j] + k as u64 + 1))
        });
        let ncols = colptr.len() as u64 - 1;
        unsorted.or(rows.iter().any(|&r| r >= 6).then_some((ncols, 0)))
    }

    #[test]
    fn chunked_order_check_matches_a_per_column_walk() {
        let mut x = 0x0DDu64;
        let mut next = |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        for _ in 0..300 {
            // Columns of 0..4 distinct sorted rows (empty columns included),
            // then sometimes one row overwritten.
            let ncols = 1 + next(8) as usize;
            let mut colptr = vec![0u64];
            let mut rows: Vec<Vidx> = Vec::new();
            for _ in 0..ncols {
                let mut col: Vec<Vidx> = (0..next(5)).map(|_| next(6) as Vidx).collect();
                col.sort_unstable();
                col.dedup();
                rows.extend(&col);
                colptr.push(rows.len() as u64);
            }
            // Rows 6..9 are out of range for the 6-row header.
            let range = if next(4) == 0 { 10 } else { 6 };
            if !rows.is_empty() && next(2) == 0 {
                let k = next(rows.len() as u64) as usize;
                rows[k] = next(range) as Vidx;
            }
            let h = Header::layout(6, ncols as u64, rows.len() as u64, false);
            let want = naive(&colptr, &rows);
            // Every chunking of the same rows finds the same first violation.
            for chunk in 1..=rows.len().max(1) {
                let mut got = None;
                let mut prev = None;
                for (i, part) in rows.chunks(chunk).enumerate() {
                    match check_rows(&h, &colptr, (i * chunk) as u64, prev, part) {
                        Ok(()) => prev = part.last().copied(),
                        Err(e) => {
                            got = Some(e);
                            break;
                        }
                    }
                }
                let ctx = format!("colptr {colptr:?} rows {rows:?} chunk {chunk}");
                match (got, want) {
                    (None, None) => {}
                    // Out-of-range rows are reported where they are.
                    (Some(StoreError::RowOutOfRange { index, row, .. }), Some(_)) => {
                        assert!(row >= 6 && u64::from(rows[index as usize]) == row, "{ctx}")
                    }
                    (Some(StoreError::UnsortedColumn { col, index, .. }), Some(w)) => {
                        assert_eq!((col, index), w, "{ctx}")
                    }
                    (got, want) => panic!("got {got:?}, want {want:?}: {ctx}"),
                }
            }
        }
    }
}
