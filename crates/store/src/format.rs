//! The MCSB on-disk format: header layout, checksums, and typed errors.
//!
//! MCSB ("Matching CSc Binary") is a fixed little-endian container whose
//! payload is *exactly* the CSC arrays the solvers consume:
//!
//! ```text
//! offset   size                content
//! ------   ------------------  ----------------------------------------
//! 0        128                 header (see below)
//! 128      8·(ncols+1)         colptr  — u64 LE, monotone, ends at nnz
//! align64  4·nnz               rowind  — u32 LE, sorted within columns
//! align64  8·nnz (weighted)    values  — f64 LE, aligned with rowind
//! ```
//!
//! Each section starts at the next 64-byte boundary after the previous one
//! (padding bytes are zero). Because the header is 128 bytes and every
//! section offset is a multiple of 64, a page-aligned `mmap` of the file
//! yields 8-byte-aligned section pointers, so the arrays can be viewed in
//! place with no decode step — the on-disk layout *is* the in-memory layout.
//!
//! Header (all integers little-endian):
//!
//! ```text
//! 0   [u8; 4]  magic  = "MCSB"
//! 4   u32      version = 1
//! 8   u64      flags   (bit 0: weighted — a values section is present)
//! 16  u64      nrows
//! 24  u64      ncols
//! 32  u64      nnz
//! 40  u64      colptr_off     48  u64  colptr_len  (bytes)
//! 56  u64      rowind_off     64  u64  rowind_len  (bytes)
//! 72  u64      values_off     80  u64  values_len  (bytes, 0 unweighted)
//! 88  u64      payload_checksum  — FNV-1a over the section bytes in file
//!              order (colptr ‖ rowind ‖ values), padding excluded
//! 96  u64      header_checksum   — FNV-1a over header bytes 0..96
//! 104 [u8;24]  reserved, zero
//! ```
//!
//! Versioning: readers reject any magic mismatch with [`StoreError::NotMcsb`]
//! and any version other than [`VERSION`] with
//! [`StoreError::UnsupportedVersion`]. Future revisions that keep the payload
//! readable by old readers must keep version 1 and use a flag bit; anything
//! that changes the array layout bumps the version.

/// The four magic bytes opening every MCSB file.
pub const MAGIC: [u8; 4] = *b"MCSB";

/// Current (and only) format version.
pub const VERSION: u32 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 128;

/// Section alignment in bytes.
pub const ALIGN: usize = 64;

/// Flag bit: a values section is present (weighted graph).
pub const FLAG_WEIGHTED: u64 = 1;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Feeds `bytes` through the FNV-1a 64-bit hash, continuing from state `h`
/// (start from [`FNV_OFFSET`]). FNV is sequential, so streaming writers can
/// hash sections as they go without buffering them.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Rounds `off` up to the next multiple of [`ALIGN`].
pub fn align_up(off: u64) -> u64 {
    off.div_ceil(ALIGN as u64) * ALIGN as u64
}

/// Errors from reading, writing, or converting MCSB files.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the MCSB magic bytes.
    NotMcsb,
    /// The file is MCSB but a newer (or corrupt) version.
    UnsupportedVersion(u32),
    /// The file is shorter than its header says it must be.
    Truncated {
        /// Bytes the header requires the file to contain.
        need: u64,
        /// Bytes actually present.
        have: u64,
    },
    /// The header fails its own checksum or is internally inconsistent.
    HeaderCorrupt(String),
    /// The payload bytes do not hash to the stored checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum recomputed from the payload.
        computed: u64,
    },
    /// A structural problem in data being converted or written.
    Format(String),
    /// A row index in the rowind section is not below the header's row
    /// count.
    RowOutOfRange {
        /// Position of the row index among the nonzeros.
        index: u64,
        /// The row index.
        row: u64,
        /// Row count the header declares.
        nrows: u64,
    },
    /// A column's row indices are not strictly increasing: unsorted, or
    /// the same row stored twice.
    UnsortedColumn {
        /// The column.
        col: u64,
        /// Position of the offending row index among the nonzeros.
        index: u64,
        /// The offending row index.
        row: u64,
        /// The row index before it in the same column.
        prev: u64,
    },
    /// A Matrix Market source that does not parse (`mcm convert`).
    MatrixMarket(mcm_sparse::io::MmError),
    /// A weighted load met an MCSB file that has no values section.
    Unweighted,
    /// A weighted file's values section holds an infinite or NaN value.
    NonFiniteValue {
        /// Position of the value among the nonzeros.
        index: u64,
        /// The value.
        value: f64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::NotMcsb => write!(f, "not an MCSB file (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported MCSB version {v} (this reader supports {VERSION})")
            }
            StoreError::Truncated { need, have } => {
                write!(f, "truncated MCSB file: header requires {need} bytes, found {have}")
            }
            StoreError::HeaderCorrupt(msg) => write!(f, "corrupt MCSB header: {msg}"),
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "MCSB payload checksum mismatch: header says {stored:#018x}, payload hashes to {computed:#018x}"
            ),
            StoreError::Format(msg) => write!(f, "{msg}"),
            StoreError::RowOutOfRange { index, row, nrows } => {
                write!(f, "MCSB row index {row} at nonzero {index} is out of range for {nrows} rows")
            }
            StoreError::UnsortedColumn { col, index, row, prev } => write!(
                f,
                "MCSB column {col} is not sorted: row {row} at nonzero {index} follows row {prev}"
            ),
            StoreError::MatrixMarket(e) => write!(f, "{e}"),
            StoreError::Unweighted => write!(f, "MCSB file has no values (unweighted)"),
            StoreError::NonFiniteValue { index, value } => {
                write!(f, "MCSB value {value} at nonzero {index} is not finite")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Parse failures stay typed; I/O failures stay I/O errors.
impl From<mcm_sparse::io::MmError> for StoreError {
    fn from(e: mcm_sparse::io::MmError) -> Self {
        match e {
            mcm_sparse::io::MmError::Io(e) => StoreError::Io(e),
            e => StoreError::MatrixMarket(e),
        }
    }
}

/// A decoded MCSB header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Format version (always [`VERSION`] after a successful decode).
    pub version: u32,
    /// Whether a values section is present.
    pub weighted: bool,
    /// Number of rows.
    pub nrows: u64,
    /// Number of columns.
    pub ncols: u64,
    /// Number of stored nonzeros.
    pub nnz: u64,
    /// Byte offset of the colptr section.
    pub colptr_off: u64,
    /// Byte length of the colptr section.
    pub colptr_len: u64,
    /// Byte offset of the rowind section.
    pub rowind_off: u64,
    /// Byte length of the rowind section.
    pub rowind_len: u64,
    /// Byte offset of the values section (0 when unweighted).
    pub values_off: u64,
    /// Byte length of the values section (0 when unweighted).
    pub values_len: u64,
    /// FNV-1a over the section bytes in file order.
    pub payload_checksum: u64,
}

impl Header {
    /// Lays out a header for a graph of the given shape, computing the
    /// aligned section offsets. `payload_checksum` starts at 0; the writer
    /// fills it in once the payload has been hashed.
    pub fn layout(nrows: u64, ncols: u64, nnz: u64, weighted: bool) -> Header {
        let colptr_off = HEADER_LEN as u64;
        let colptr_len = 8 * (ncols + 1);
        let rowind_off = align_up(colptr_off + colptr_len);
        let rowind_len = 4 * nnz;
        let (values_off, values_len) =
            if weighted { (align_up(rowind_off + rowind_len), 8 * nnz) } else { (0, 0) };
        Header {
            version: VERSION,
            weighted,
            nrows,
            ncols,
            nnz,
            colptr_off,
            colptr_len,
            rowind_off,
            rowind_len,
            values_off,
            values_len,
            payload_checksum: 0,
        }
    }

    /// Total file size this header describes (end of the last section).
    pub fn file_len(&self) -> u64 {
        if self.weighted {
            self.values_off + self.values_len
        } else {
            self.rowind_off + self.rowind_len
        }
    }

    /// Encodes the 128-byte header, computing the header checksum.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut b = [0u8; HEADER_LEN];
        b[0..4].copy_from_slice(&MAGIC);
        b[4..8].copy_from_slice(&self.version.to_le_bytes());
        let flags = if self.weighted { FLAG_WEIGHTED } else { 0 };
        b[8..16].copy_from_slice(&flags.to_le_bytes());
        b[16..24].copy_from_slice(&self.nrows.to_le_bytes());
        b[24..32].copy_from_slice(&self.ncols.to_le_bytes());
        b[32..40].copy_from_slice(&self.nnz.to_le_bytes());
        b[40..48].copy_from_slice(&self.colptr_off.to_le_bytes());
        b[48..56].copy_from_slice(&self.colptr_len.to_le_bytes());
        b[56..64].copy_from_slice(&self.rowind_off.to_le_bytes());
        b[64..72].copy_from_slice(&self.rowind_len.to_le_bytes());
        b[72..80].copy_from_slice(&self.values_off.to_le_bytes());
        b[80..88].copy_from_slice(&self.values_len.to_le_bytes());
        b[88..96].copy_from_slice(&self.payload_checksum.to_le_bytes());
        let hc = fnv1a(FNV_OFFSET, &b[0..96]);
        b[96..104].copy_from_slice(&hc.to_le_bytes());
        b
    }

    /// Decodes and validates a header: magic, version, header checksum, and
    /// internal consistency (section lengths implied by the shape, section
    /// alignment, non-overlapping ascending sections, `Vidx`-sized
    /// dimensions). File-extent checks need the file length and live in
    /// [`Header::validate_extent`].
    pub fn decode(b: &[u8]) -> Result<Header, StoreError> {
        if b.len() < 4 || b[0..4] != MAGIC {
            return Err(StoreError::NotMcsb);
        }
        if b.len() < HEADER_LEN {
            return Err(StoreError::Truncated { need: HEADER_LEN as u64, have: b.len() as u64 });
        }
        let u32_at = |o: usize| u32::from_le_bytes(b[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
        let version = u32_at(4);
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let stored_hc = u64_at(96);
        let computed_hc = fnv1a(FNV_OFFSET, &b[0..96]);
        if stored_hc != computed_hc {
            return Err(StoreError::HeaderCorrupt(format!(
                "header checksum mismatch: stored {stored_hc:#018x}, computed {computed_hc:#018x}"
            )));
        }
        let flags = u64_at(8);
        if flags & !FLAG_WEIGHTED != 0 {
            return Err(StoreError::HeaderCorrupt(format!("unknown flag bits {flags:#x}")));
        }
        let h = Header {
            version,
            weighted: flags & FLAG_WEIGHTED != 0,
            nrows: u64_at(16),
            ncols: u64_at(24),
            nnz: u64_at(32),
            colptr_off: u64_at(40),
            colptr_len: u64_at(48),
            rowind_off: u64_at(56),
            rowind_len: u64_at(64),
            values_off: u64_at(72),
            values_len: u64_at(80),
            payload_checksum: u64_at(88),
        };
        let mut expect = Header::layout(h.nrows, h.ncols, h.nnz, h.weighted);
        expect.payload_checksum = h.payload_checksum;
        if h != expect {
            return Err(StoreError::HeaderCorrupt(
                "section offsets/lengths do not match the declared shape".to_string(),
            ));
        }
        if h.nrows >= u32::MAX as u64 || h.ncols >= u32::MAX as u64 {
            return Err(StoreError::HeaderCorrupt(format!(
                "dimensions {}x{} exceed the 32-bit vertex index space",
                h.nrows, h.ncols
            )));
        }
        if h.nnz > h.nrows.saturating_mul(h.ncols) {
            return Err(StoreError::HeaderCorrupt(format!(
                "nnz {} exceeds {}x{}",
                h.nnz, h.nrows, h.ncols
            )));
        }
        Ok(h)
    }

    /// Checks that every section this header declares fits inside a file of
    /// `file_len` bytes.
    pub fn validate_extent(&self, file_len: u64) -> Result<(), StoreError> {
        let need = self.file_len();
        if file_len < need {
            return Err(StoreError::Truncated { need, have: file_len });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_aligned_and_ordered() {
        let h = Header::layout(1000, 777, 4242, true);
        assert_eq!(h.colptr_off, 128);
        assert_eq!(h.colptr_len, 8 * 778);
        assert_eq!(h.rowind_off % ALIGN as u64, 0);
        assert_eq!(h.values_off % ALIGN as u64, 0);
        assert!(h.rowind_off >= h.colptr_off + h.colptr_len);
        assert!(h.values_off >= h.rowind_off + h.rowind_len);
        assert_eq!(h.file_len(), h.values_off + 8 * 4242);
    }

    #[test]
    fn encode_decode_round_trips() {
        for weighted in [false, true] {
            let mut h = Header::layout(10, 20, 30, weighted);
            h.payload_checksum = 0xDEAD_BEEF;
            let b = h.encode();
            assert_eq!(Header::decode(&b).unwrap(), h, "weighted={weighted}");
        }
    }

    #[test]
    fn decode_rejects_bad_magic_version_and_checksum() {
        let h = Header::layout(4, 4, 4, false);
        let good = h.encode();

        let mut bad_magic = good;
        bad_magic[0] = b'X';
        assert!(matches!(Header::decode(&bad_magic), Err(StoreError::NotMcsb)));

        let mut bad_version = good;
        bad_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(Header::decode(&bad_version), Err(StoreError::UnsupportedVersion(99))));

        let mut flipped = good;
        flipped[20] ^= 1; // corrupt nrows under the checksum
        assert!(matches!(Header::decode(&flipped), Err(StoreError::HeaderCorrupt(_))));

        assert!(matches!(
            Header::decode(&good[..64]),
            Err(StoreError::Truncated { need: 128, have: 64 })
        ));
    }

    #[test]
    fn fnv_streams_identically_to_one_shot() {
        let data = b"the quick brown fox";
        let whole = fnv1a(FNV_OFFSET, data);
        let split = fnv1a(fnv1a(FNV_OFFSET, &data[..7]), &data[7..]);
        assert_eq!(whole, split);
    }
}
