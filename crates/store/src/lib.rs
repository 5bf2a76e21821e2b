//! # mcm-store — out-of-core graph storage
//!
//! The storage subsystem behind the repo's scaling story (DESIGN.md §18):
//! every other crate assumes a graph that fits in RAM and arrives through a
//! Matrix Market parse; this crate makes the on-disk layout
//! *be* the in-memory layout so graphs 10–100× larger load in O(1) work.
//!
//! * [`format`](mod@format) — **MCSB**, a compact versioned binary format whose payload
//!   is exactly the CSC arrays (`colptr`/`rowind`, optional `f64` values)
//!   in fixed little-endian layout with 64-byte section alignment.
//! * [`McsbFile`] — an mmap-backed reader exposing a borrowed
//!   [`CscView`](mcm_sparse::CscView) over the mapped pages (plus a
//!   read-to-heap fallback that eagerly verifies the payload checksum), so
//!   `DistMatrix`/`Dcsc` construction never materializes a triple list.
//! * [`McsbStreamWriter`] / [`convert_matrix_market`] — bounded-memory
//!   ingest: unsorted edges (an RMAT generator stream, a Matrix Market
//!   file) spill into column-range buckets, each bucket sorts in RAM, and
//!   the sorted sections stream into their final file positions.
//! * [`sniff_format`] — magic-byte dispatch between MCSB and Matrix Market
//!   for the `--load` paths of `mcm` and `mcmd`; [`load_weighted`] is the
//!   one weighted loader both binaries use.

pub mod convert;
pub mod format;
mod mmap;
pub mod read;
pub mod stream;
pub mod write;

pub use convert::{convert_matrix_market, convert_matrix_market_with, ConvertSummary};
pub use format::{Header, StoreError};
pub use read::McsbFile;
pub use stream::{McsbStreamWriter, StreamSummary, DEFAULT_BUCKETS};
pub use write::{write_csc_file, write_parts, write_wcsc_file};

use std::io::Read;
use std::path::Path;

/// A graph file format recognizable by its leading bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFormat {
    /// The MCSB binary format of this crate.
    Mcsb,
    /// Matrix Market coordinate text (`%%MatrixMarket ...`).
    MatrixMarket,
}

/// Sniffs a graph file's format from its magic bytes: MCSB binary or
/// `%%MatrixMarket` text. Anything else is a [`StoreError::Format`].
pub fn sniff_format(path: impl AsRef<Path>) -> Result<GraphFormat, StoreError> {
    let path = path.as_ref();
    let mut head = [0u8; 14]; // len("%%MatrixMarket")
    let mut f = std::fs::File::open(path)?;
    let mut got = 0;
    while got < head.len() {
        let n = f.read(&mut head[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    if got >= format::MAGIC.len() && head[..format::MAGIC.len()] == format::MAGIC {
        return Ok(GraphFormat::Mcsb);
    }
    if got == head.len() && head.eq_ignore_ascii_case(b"%%MatrixMarket") {
        return Ok(GraphFormat::MatrixMarket);
    }
    Err(StoreError::Format(
        "unrecognized graph format (expected MCSB magic or a %%MatrixMarket header)".to_string(),
    ))
}

/// Loads a weighted graph by content: Matrix Market entry values, or a
/// weighted MCSB file decoded on the heap (the auction mutates prices
/// next to the weights, so there is no zero-copy weighted path). An MCSB
/// file without values is [`StoreError::Unweighted`].
pub fn load_weighted(path: impl AsRef<Path>) -> Result<mcm_sparse::WCsc, StoreError> {
    let path = path.as_ref();
    match sniff_format(path)? {
        GraphFormat::MatrixMarket => Ok(mcm_sparse::io::read_matrix_market_weighted_file(path)?),
        GraphFormat::Mcsb => McsbFile::open_heap(path)?.to_wcsc().ok_or(StoreError::Unweighted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mcm_store_{name}_{}", std::process::id()))
    }

    #[test]
    fn sniffs_both_formats_and_rejects_garbage() {
        let m = tmp("sniff.mtx");
        std::fs::File::create(&m)
            .unwrap()
            .write_all(b"%%MatrixMarket matrix coordinate pattern general\n1 1 0\n")
            .unwrap();
        assert_eq!(sniff_format(&m).unwrap(), GraphFormat::MatrixMarket);

        let b = tmp("sniff.mcsb");
        let a = mcm_sparse::Triples::from_edges(2, 2, vec![(0, 0), (1, 1)]).to_csc();
        write_csc_file(&b, &a).unwrap();
        assert_eq!(sniff_format(&b).unwrap(), GraphFormat::Mcsb);

        let g = tmp("sniff.bin");
        std::fs::File::create(&g).unwrap().write_all(b"not a graph").unwrap();
        assert!(matches!(sniff_format(&g), Err(StoreError::Format(_))));

        for p in [m, b, g] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn csc_round_trip_through_both_backings() {
        let t = mcm_sparse::Triples::from_edges(6, 5, vec![(0, 0), (5, 4), (2, 2), (3, 2)]);
        let a = t.to_csc();
        let p = tmp("roundtrip.mcsb");
        write_csc_file(&p, &a).unwrap();
        for file in [McsbFile::open(&p).unwrap(), McsbFile::open_heap(&p).unwrap()] {
            let v = file.view();
            assert_eq!((v.nrows(), v.ncols(), v.nnz()), (6, 5, 4));
            for j in 0..5 {
                assert_eq!(v.col(j), a.col(j), "column {j}");
            }
            assert!(file.values().is_none());
            file.verify_payload().unwrap();
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn weighted_round_trip_keeps_bit_identical_values() {
        let a = mcm_sparse::WCsc::from_weighted_triples(
            3,
            3,
            vec![(0, 0, 1.5), (2, 1, -0.0), (1, 2, f64::MIN_POSITIVE)],
        );
        let p = tmp("weighted.mcsb");
        write_wcsc_file(&p, &a).unwrap();
        let file = McsbFile::open(&p).unwrap();
        assert!(file.is_weighted());
        let back = file.to_wcsc().unwrap();
        assert_eq!(back.pattern(), a.pattern());
        let bits: Vec<u64> = back.values().iter().map(|w| w.to_bits()).collect();
        let want: Vec<u64> = a.values().iter().map(|w| w.to_bits()).collect();
        assert_eq!(bits, want);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn nan_in_the_values_section_is_a_typed_error() {
        let a = mcm_sparse::WCsc::from_weighted_triples(
            2,
            2,
            vec![(0, 0, 1.0), (1, 0, f64::NAN), (1, 1, 2.0)],
        );
        let p = tmp("nan.mcsb");
        write_wcsc_file(&p, &a).unwrap();
        let err = McsbFile::open_heap(&p).err().expect("heap open must reject a NaN value");
        assert!(matches!(err, StoreError::NonFiniteValue { index: 1, .. }), "{err}");
        assert!(err.to_string().contains("NaN"), "{err}");
        // The mmap path defers payload checks to verify_payload.
        let mapped = McsbFile::open(&p).unwrap();
        let err = mapped.verify_payload().unwrap_err();
        assert!(matches!(err, StoreError::NonFiniteValue { index: 1, .. }), "{err}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn stream_writer_matches_one_shot_writer() {
        // Unsorted, duplicated edges through 3 buckets must produce the
        // same file contents as sorting in RAM and writing one-shot.
        let edges: Vec<(u32, u32)> =
            vec![(4, 9), (0, 0), (4, 9), (2, 3), (1, 3), (3, 0), (0, 9), (2, 5)];
        let mut t = mcm_sparse::Triples::from_edges(5, 10, edges.clone());
        t.sort_dedup();
        let a = t.to_csc();

        let p1 = tmp("stream_a.mcsb");
        let p2 = tmp("stream_b.mcsb");
        write_csc_file(&p1, &a).unwrap();
        let mut w = McsbStreamWriter::create_with(&p2, 5, 10, false, 3).unwrap();
        for chunk in edges.chunks(3) {
            w.push_edges(chunk).unwrap();
        }
        let summary = w.finish(2).unwrap();
        assert_eq!(summary.nnz as usize, a.nnz());
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(p1).ok();
        std::fs::remove_file(p2).ok();
    }

    /// A `coordinate` file of `k` seeded entries in an `n × n` shape (`m`
    /// columns for a `general` one); value fields cycle through decimal,
    /// exponent, negative and integer spellings, and the last entry
    /// repeats the first coordinate with another value.
    fn seeded_mtx(field: &str, symmetry: &str, (n, m): (u64, u64), k: usize, seed: u64) -> String {
        let mut x = seed;
        let mut entries = Vec::new();
        for e in 0..k {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (i, j) = ((x >> 33) % n + 1, (x >> 3) % m + 1);
            let value = match e % 5 {
                0 => format!("{}.{}", x % 97, x % 13),
                1 => format!("{}e{}", x % 9 + 1, (x % 7) as i64 - 3),
                2 => format!("-{}.25", x % 31),
                3 => format!("{}", x % 50),
                _ => format!("-{}E+1", x % 11),
            };
            entries.push((i, j, value));
        }
        let (i, j, _) = entries[0].clone();
        entries.push((i, j, "-1e-3".to_string()));
        let mut text = format!("%%MatrixMarket matrix coordinate {field} {symmetry}\n");
        text += &format!("{n} {m} {}\n", entries.len());
        for (i, j, value) in entries {
            text += &if field == "pattern" {
                format!("{i} {j}\n")
            } else {
                format!("{i} {j} {value}\n")
            };
        }
        text
    }

    #[test]
    fn convert_matches_in_ram_parse() {
        // `mcm convert` and the in-memory readers are the two drivers of
        // the one Matrix Market reader: the converted file must be the
        // one-shot writer's file of the in-memory read, byte for byte, on
        // pattern, weighted, symmetric and skew-symmetric inputs.
        let cases = [
            ("pattern", "general", (40, 30)),
            ("real", "general", (40, 30)),
            ("pattern", "symmetric", (35, 35)),
            ("real", "symmetric", (35, 35)),
            ("integer", "skew-symmetric", (35, 35)),
            ("real", "skew-symmetric", (35, 35)),
        ];
        for (k, &(field, symmetry, shape)) in cases.iter().enumerate() {
            let mtx = tmp(&format!("convert_{k}.mtx"));
            std::fs::write(&mtx, seeded_mtx(field, symmetry, shape, 300, 7 + k as u64)).unwrap();
            let mcsb = tmp(&format!("convert_{k}.mcsb"));
            let want = tmp(&format!("convert_{k}_want.mcsb"));
            let summary = convert_matrix_market_with(&mtx, &mcsb, 2).unwrap();
            let nnz = if field == "pattern" {
                let a = mcm_sparse::io::read_matrix_market_file(&mtx).unwrap().to_csc();
                write_csc_file(&want, &a).unwrap();
                a.nnz()
            } else {
                let a = mcm_sparse::io::read_matrix_market_weighted_file(&mtx).unwrap();
                write_wcsc_file(&want, &a).unwrap();
                a.nnz()
            };
            assert_eq!(summary.nnz as usize, nnz, "{field} {symmetry}");
            assert_eq!(summary.weighted, field != "pattern", "{field} {symmetry}");
            assert!(nnz > 150, "{field} {symmetry}: dedup collapsed the instance to {nnz}");
            let (got, want_bytes) = (std::fs::read(&mcsb).unwrap(), std::fs::read(&want).unwrap());
            assert!(got == want_bytes, "{field} {symmetry}: converted bytes differ");
            for p in [mtx, mcsb, want] {
                std::fs::remove_file(p).ok();
            }
        }
    }

    #[test]
    fn convert_keeps_matrix_market_errors_typed() {
        use mcm_sparse::io::MmError;
        let banner = "%%MatrixMarket matrix coordinate real general\n";
        type Check = fn(&StoreError) -> bool;
        let cases: [(String, Check); 3] = [
            (format!("{banner}2 2 2\n1 1 1.5\n2 x 1\n"), |e| {
                matches!(e, StoreError::MatrixMarket(MmError::BadEntry { line: 4, .. }))
            }),
            (format!("{banner}2 2 3\n1 1 1.5\n"), |e| {
                matches!(
                    e,
                    StoreError::MatrixMarket(MmError::CountMismatch { declared: 3, found: 1, .. })
                )
            }),
            (format!("{banner}2 2 1\n1 1 nan\n"), |e| {
                matches!(e, StoreError::MatrixMarket(MmError::NonFinite { line: 3, .. }))
            }),
        ];
        for (k, (text, want)) in cases.iter().enumerate() {
            let mtx = tmp(&format!("convert_err_{k}.mtx"));
            let mcsb = tmp(&format!("convert_err_{k}.mcsb"));
            std::fs::write(&mtx, text).unwrap();
            let err = convert_matrix_market_with(&mtx, &mcsb, 1).unwrap_err();
            assert!(want(&err), "{text:?}: {err:?}");
            assert!(err.to_string().starts_with("Matrix Market parse error: line "), "{err}");
            assert!(!mcsb.exists(), "a failed convert wrote {}", mcsb.display());
            std::fs::remove_file(mtx).ok();
        }
        let missing = convert_matrix_market_with(tmp("convert_missing.mtx"), tmp("x.mcsb"), 1);
        assert!(matches!(missing, Err(StoreError::Io(_))), "{missing:?}");
    }
}
