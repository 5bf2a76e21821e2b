//! Integration tests for the out-of-core storage subsystem (DESIGN.md §18):
//! MCSB round-trips across both backings, corruption injection at every
//! structural boundary (typed errors, never panics), and the differential
//! guarantee the zero-copy chain advertises — an mmap'ed [`CscView`] fed to
//! `maximum_matching` produces the *identical* matching the view of an
//! owned `Csc` (built from the generator's triples) produces.

use mcm_bsp::{Communicator, DistCtx, EngineComm, MachineConfig};
use mcm_core::verify::{is_maximum, verify};
use mcm_core::{maximum_matching, McmOptions, McmResult, Start};
use mcm_gen::{assign_weights, simtest_suite};
use mcm_sparse::{CscView, Triples, WCsc};
use mcm_store::{write_csc_file, write_wcsc_file, McsbFile, McsbStreamWriter, StoreError};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcm_store_it_{name}_{}", std::process::id()))
}

/// Graphs that stress the layout's edges rather than the solver: the empty
/// matrix, an empty column range, a single dense column, a 1×1 graph.
fn degenerate_cases() -> Vec<(String, Triples)> {
    vec![
        ("empty_0x0".into(), Triples::from_edges(0, 0, vec![])),
        ("no_edges_7x9".into(), Triples::from_edges(7, 9, vec![])),
        ("single_1x1".into(), Triples::from_edges(1, 1, vec![(0, 0)])),
        ("dense_col_16x1".into(), Triples::from_edges(16, 1, (0..16).map(|r| (r, 0)).collect())),
        ("last_col_only_4x6".into(), Triples::from_edges(4, 6, vec![(2, 5), (0, 5)])),
    ]
}

// ---------------------------------------------------------------- round trip

#[test]
fn round_trip_is_bit_identical_across_the_suite_and_degenerate_shapes() {
    let mut cases = simtest_suite(0x5709E);
    cases.extend(degenerate_cases());
    for (name, mut t) in cases {
        t.sort_dedup();
        let a = t.to_csc();
        let p = tmp(&format!("rt_{name}"));
        write_csc_file(&p, &a).unwrap();
        for (backing, file) in
            [("mmap", McsbFile::open(&p).unwrap()), ("heap", McsbFile::open_heap(&p).unwrap())]
        {
            let v = file.view();
            assert_eq!(
                (v.nrows(), v.ncols(), v.nnz()),
                (a.nrows(), a.ncols(), a.nnz()),
                "{name}/{backing}: shape"
            );
            for j in 0..a.ncols() {
                assert_eq!(v.col(j), a.col(j), "{name}/{backing}: column {j}");
            }
            assert!(file.values().is_none(), "{name}/{backing}: unweighted file has no values");
            file.verify_payload().unwrap();
            assert_eq!(file.to_csc(), a, "{name}/{backing}: to_csc");
        }
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn weighted_round_trip_preserves_value_bits_across_the_suite() {
    for (name, mut t) in simtest_suite(0xBEE5) {
        t.sort_dedup();
        let w = assign_weights(t.entries(), 0xD00D ^ t.len() as u64, 50);
        let a = WCsc::from_weighted_triples(t.nrows(), t.ncols(), w);
        let p = tmp(&format!("wrt_{name}"));
        write_wcsc_file(&p, &a).unwrap();
        for (backing, file) in
            [("mmap", McsbFile::open(&p).unwrap()), ("heap", McsbFile::open_heap(&p).unwrap())]
        {
            assert!(file.is_weighted(), "{name}/{backing}");
            file.verify_payload().unwrap();
            let back = file.to_wcsc().unwrap();
            assert_eq!(back.pattern(), a.pattern(), "{name}/{backing}: pattern");
            let bits: Vec<u64> = back.values().iter().map(|x| x.to_bits()).collect();
            let want: Vec<u64> = a.values().iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, want, "{name}/{backing}: value bits");
        }
        std::fs::remove_file(p).ok();
    }
}

// ---------------------------------------------------------------- corruption

/// A well-formed weighted reference file (all three sections present) as
/// raw bytes, plus its path prefix for derived corrupted copies.
fn reference_file(tag: &str) -> (Vec<u8>, PathBuf) {
    let t = Triples::from_edges(12, 10, {
        let mut e = Vec::new();
        let mut x = 0x2A2Au64;
        for _ in 0..60 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            e.push((((x >> 33) % 12) as u32, ((x >> 3) % 10) as u32));
        }
        e
    });
    let w = assign_weights(t.entries(), 0x77, 9);
    let a = WCsc::from_weighted_triples(12, 10, w);
    let p = tmp(&format!("corrupt_{tag}"));
    write_wcsc_file(&p, &a).unwrap();
    let bytes = std::fs::read(&p).unwrap();
    std::fs::remove_file(&p).ok();
    (bytes, p)
}

fn open_both(path: &PathBuf) -> [Result<McsbFile, StoreError>; 2] {
    [McsbFile::open(path), McsbFile::open_heap(path)]
}

#[test]
fn truncation_at_every_section_boundary_is_a_typed_error() {
    let (bytes, p) = reference_file("trunc");
    let h = mcm_store::Header::decode(&bytes).unwrap();
    // Cut points: inside the header, at each section start (+1 byte so the
    // section itself is short), and one byte shy of the full file.
    let cuts = [
        1usize,
        mcm_store::format::HEADER_LEN - 1,
        h.colptr_off as usize + 1,
        h.rowind_off as usize + 1,
        h.values_off as usize + 1,
        bytes.len() - 1,
    ];
    for cut in cuts {
        std::fs::write(&p, &bytes[..cut]).unwrap();
        for (i, r) in open_both(&p).into_iter().enumerate() {
            let backing = ["mmap", "heap"][i];
            match r {
                Err(StoreError::Truncated { need, have }) => {
                    assert!(have < need, "cut at {cut} ({backing}): have {have} >= need {need}")
                }
                // A 1-byte file cannot even prove its magic.
                Err(StoreError::NotMcsb) if cut < 4 => {}
                Ok(_) => panic!("cut at {cut} ({backing}): truncated file opened"),
                Err(other) => {
                    panic!("cut at {cut} ({backing}): expected Truncated, got {other:?}")
                }
            }
        }
    }
    std::fs::remove_file(p).ok();
}

#[test]
fn flipped_payload_byte_fails_the_checksum_on_the_heap_path() {
    let (bytes, p) = reference_file("flip");
    let h = mcm_store::Header::decode(&bytes).unwrap();
    // Flip one byte in each section; the eager heap path must report a
    // checksum mismatch, and the mapped path's explicit verify must too.
    for off in [h.colptr_off + 3, h.rowind_off, h.values_off + 5] {
        let mut bad = bytes.clone();
        bad[off as usize] ^= 0x40;
        std::fs::write(&p, &bad).unwrap();
        match McsbFile::open_heap(&p) {
            // Flipping colptr bytes may instead break monotonicity, which
            // the section validator catches first — also a typed error.
            Err(StoreError::ChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed)
            }
            Err(StoreError::HeaderCorrupt(_)) if off < h.rowind_off => {}
            Ok(_) => panic!("flip at {off}: corrupt file opened"),
            Err(other) => panic!("flip at {off}: expected ChecksumMismatch, got {other:?}"),
        }
    }
    // The mapped open defers payload hashing; verify_payload catches it.
    let mut bad = bytes.clone();
    let off = (h.values_off + 5) as usize;
    bad[off] ^= 0x40;
    std::fs::write(&p, &bad).unwrap();
    let f = McsbFile::open(&p).unwrap();
    assert!(matches!(f.verify_payload(), Err(StoreError::ChecksumMismatch { .. })));
    std::fs::remove_file(p).ok();
}

#[test]
fn bad_magic_version_flags_and_header_bytes_are_typed_errors() {
    let (bytes, p) = reference_file("hdr");

    // Wrong magic: not an MCSB file at all.
    let mut bad = bytes.clone();
    bad[0..4].copy_from_slice(b"MCSA");
    std::fs::write(&p, &bad).unwrap();
    for r in open_both(&p) {
        assert!(matches!(r, Err(StoreError::NotMcsb)), "bad magic");
    }

    // Future version (checked before the header checksum, so a reader can
    // say *why* it cannot proceed rather than "corrupt").
    let mut bad = bytes.clone();
    bad[4..8].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(&p, &bad).unwrap();
    for r in open_both(&p) {
        assert!(matches!(r, Err(StoreError::UnsupportedVersion(2))), "future version");
    }

    // A flipped header byte (here: nrows) breaks the header checksum.
    let mut bad = bytes.clone();
    bad[16] ^= 0xFF;
    std::fs::write(&p, &bad).unwrap();
    for r in open_both(&p) {
        assert!(matches!(r, Err(StoreError::HeaderCorrupt(_))), "flipped header byte");
    }

    // Unknown flag bits, with the header checksum made valid again — the
    // consistency check itself must reject them, not just the checksum.
    let mut bad = bytes.clone();
    bad[8] |= 0x02;
    let hc = mcm_store::format::fnv1a(mcm_store::format::FNV_OFFSET, &bad[0..96]);
    bad[96..104].copy_from_slice(&hc.to_le_bytes());
    std::fs::write(&p, &bad).unwrap();
    for r in open_both(&p) {
        assert!(matches!(r, Err(StoreError::HeaderCorrupt(_))), "unknown flags");
    }
    std::fs::remove_file(p).ok();
}

/// Recomputes both checksums of an edited weighted MCSB image, so that
/// only the structural checks stand between the edit and the solver.
fn reseal(bad: &mut [u8], h: &mcm_store::Header) {
    use mcm_store::format::{fnv1a, FNV_OFFSET};
    let section = |off: u64, len: u64| off as usize..(off + len) as usize;
    let mut ph = fnv1a(FNV_OFFSET, &bad[section(h.colptr_off, h.colptr_len)]);
    ph = fnv1a(ph, &bad[section(h.rowind_off, h.rowind_len)]);
    ph = fnv1a(ph, &bad[section(h.values_off, h.values_len)]);
    bad[88..96].copy_from_slice(&ph.to_le_bytes());
    let hc = fnv1a(FNV_OFFSET, &bad[0..96]);
    bad[96..104].copy_from_slice(&hc.to_le_bytes());
}

#[test]
fn out_of_range_row_index_is_a_typed_error_on_both_backings() {
    // One row index far past `nrows`, with both checksums re-sealed so the
    // range check is the only line of defence. The mapped open used to
    // accept this and let the solver index out of bounds.
    let (bytes, p) = reference_file("rowrange");
    let h = mcm_store::Header::decode(&bytes).unwrap();
    let mut bad = bytes.clone();
    let at = (h.rowind_off + 4 * 7) as usize;
    bad[at..at + 4].copy_from_slice(&0x7FFF_FF00u32.to_le_bytes());
    reseal(&mut bad, &h);
    std::fs::write(&p, &bad).unwrap();
    for (backing, r) in ["mmap", "heap"].into_iter().zip(open_both(&p)) {
        match r {
            Err(StoreError::RowOutOfRange { index: 7, row: 0x7FFF_FF00, nrows: 12 }) => {}
            Ok(_) => panic!("{backing}: out-of-range row index opened"),
            Err(other) => panic!("{backing}: expected RowOutOfRange, got {other:?}"),
        }
    }
    std::fs::remove_file(p).ok();
}

#[test]
fn unsorted_or_duplicated_column_rows_are_a_typed_error_on_both_backings() {
    // Rows swapped (then repeated) inside one column, checksums re-sealed.
    // Both used to open: the solvers then certified edges the graph does
    // not have, and the dynamic overlay counted a live edge twice.
    let (bytes, p) = reference_file("unsorted");
    let h = mcm_store::Header::decode(&bytes).unwrap();
    let word = |b: &[u8], off: u64, k: u64, w: u64| {
        let at = (off + w * k) as usize;
        u64::from_le_bytes(b[at..at + 8].try_into().unwrap()) & (u64::MAX >> (64 - 8 * w))
    };
    // The first column with at least two nonzeros.
    let col = (0..h.ncols)
        .find(|&j| word(&bytes, h.colptr_off, j + 1, 8) - word(&bytes, h.colptr_off, j, 8) >= 2)
        .unwrap();
    let k = word(&bytes, h.colptr_off, col, 8);
    let (r0, r1) = (word(&bytes, h.rowind_off, k, 4), word(&bytes, h.rowind_off, k + 1, 4));
    assert!(r0 < r1);
    let at = (h.rowind_off + 4 * k) as usize;
    for (second, prev) in [(r0, r1), (r0, r0)] {
        let mut bad = bytes.clone();
        bad[at..at + 4].copy_from_slice(&(prev as u32).to_le_bytes());
        bad[at + 4..at + 8].copy_from_slice(&(second as u32).to_le_bytes());
        reseal(&mut bad, &h);
        std::fs::write(&p, &bad).unwrap();
        for (backing, r) in ["mmap", "heap"].into_iter().zip(open_both(&p)) {
            match r {
                Err(StoreError::UnsortedColumn { col: c, index, row, prev: pr })
                    if (c, index, row, pr) == (col, k + 1, second, prev) =>
                {
                    let msg = StoreError::UnsortedColumn { col: c, index, row, prev: pr };
                    assert!(msg.to_string().contains(&format!("column {col} is not sorted")));
                }
                Ok(_) => panic!("{backing}: column {col} stored as [{prev}, {second}] opened"),
                Err(other) => panic!("{backing}: expected UnsortedColumn, got {other:?}"),
            }
        }
    }
    std::fs::remove_file(p).ok();
}

// ---------------------------------------------- mmap-vs-heap differential

/// The promise `mcm match --load <mcsb>` relies on: solving from a borrowed
/// view (mmap or heap backing) yields the *identical* matching as solving
/// from an owned `Csc` assembled from the triples, across the whole simtest
/// generator suite and both backends.
#[test]
fn view_solves_match_triples_solves_across_the_suite() {
    fn solve(comm: &mut impl Communicator, v: &CscView<'_>) -> McmResult {
        maximum_matching(comm, v, Start::Cold, &McmOptions::default())
    }
    for (name, mut t) in simtest_suite(0xCA11) {
        t.sort_dedup();
        let sim = || DistCtx::new(MachineConfig::hybrid(2, 2));
        let want = solve(&mut sim(), &t.to_csc().view());
        let p = tmp(&format!("diff_{name}"));
        write_csc_file(&p, &t.to_csc()).unwrap();

        let mapped = McsbFile::open(&p).unwrap();
        #[cfg(unix)]
        assert!(mapped.is_mapped(), "{name}: unix open must map");
        let heap = McsbFile::open_heap(&p).unwrap();
        assert!(!heap.is_mapped());

        for (backing, file) in [("mmap", &mapped), ("heap", &heap)] {
            let v = file.view();
            let shared = solve(&mut sim(), &v);
            assert_eq!(
                shared.matching, want.matching,
                "{name}/{backing}: sim view != owned triples"
            );
            let engine = solve(&mut EngineComm::new(4, 2), &v);
            assert_eq!(
                engine.matching, want.matching,
                "{name}/{backing}: engine view != owned triples"
            );
            verify(v, &shared.matching).unwrap_or_else(|e| panic!("{name}/{backing}: {e}"));
            assert!(is_maximum(v, &shared.matching), "{name}/{backing}: Berge");
        }
        std::fs::remove_file(p).ok();
    }
}

// ------------------------------------------------------------ seal by rename

/// The file's graph and stored checksum, read through its view.
fn contents(file: &McsbFile) -> (mcm_sparse::Csc, u64) {
    (file.view().to_csc(), file.header().payload_checksum)
}

#[test]
fn a_mapped_reader_keeps_the_old_graph_while_the_path_is_regenerated() {
    let graph = |scale, seed| mcm_gen::rmat(mcm_gen::RmatParams::g500(scale), seed);
    let p = tmp("regen");
    // Each writer regenerates a mapped path with a smaller graph (a read of
    // the old mapping past the new end of an in-place rewrite would fault):
    // the old mapping must not move, and a fresh open must see the new graph.
    for streamed in [true, false] {
        let (old, new) = (graph(10, 1), graph(8, 2));
        write_csc_file(&p, &old.to_csc()).unwrap();
        let mapped = McsbFile::open(&p).unwrap();
        let before = contents(&mapped);
        assert_eq!(before.0, old.to_csc());
        if streamed {
            let mut w = McsbStreamWriter::create(&p, new.nrows(), new.ncols(), false).unwrap();
            w.push_edges(new.entries()).unwrap();
            w.finish(2).unwrap();
        } else {
            write_csc_file(&p, &new.to_csc()).unwrap();
        }
        assert!(contents(&mapped) == before, "streamed {streamed}: the mapped graph moved");
        mapped.verify_payload().unwrap();
        let fresh = McsbFile::open(&p).unwrap();
        fresh.verify_payload().unwrap();
        assert_eq!(fresh.view().to_csc(), new.to_csc(), "streamed {streamed}");
    }
    // Nothing but the target is left beside it.
    let dir = p.parent().unwrap();
    let stem = p.file_name().unwrap().to_str().unwrap();
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with(stem) && n != stem)
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    std::fs::remove_file(p).ok();
}
