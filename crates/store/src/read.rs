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
    /// header checksum, and that every section fits in the file; does
    /// **not** hash the payload.
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

/// Full payload validation: colptr monotonicity, row indices in range,
/// and finite values (empty for an unweighted file). Used on the heap
/// path (which holds all sections anyway) and by
/// [`McsbFile::verify_payload`].
fn validate_payload(
    h: &Header,
    colptr: &[u64],
    rowind: &[Vidx],
    values: &[f64],
) -> Result<(), StoreError> {
    check_colptr(h, colptr)?;
    if let Some(&bad) = rowind.iter().find(|&&i| i as u64 >= h.nrows) {
        return Err(StoreError::HeaderCorrupt(format!(
            "row index {bad} out of range for {} rows",
            h.nrows
        )));
    }
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
