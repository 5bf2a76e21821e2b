//! A thin read-only `mmap` wrapper — the crate's `unsafe` boundary.
//!
//! # Safety argument (see DESIGN.md §18)
//!
//! The single `unsafe` block below calls `mmap(2)` / `munmap(2)` directly
//! (the workspace carries no `libc` crate) and exposes the mapping only as
//! `&[u8]` borrowed from the owning [`MmapRegion`]. Soundness rests on:
//!
//! * **Validity**: `mmap` either returns `MAP_FAILED` (turned into an
//!   `io::Error`) or a pointer to `len` readable bytes; we never map with
//!   `len == 0` (MCSB files are at least one header long, enforced by the
//!   caller).
//! * **Lifetime**: the `&[u8]` from [`MmapRegion::bytes`] borrows `self`, so
//!   the borrow checker prevents use after `Drop` runs `munmap`.
//! * **Aliasing**: the mapping is `PROT_READ | MAP_PRIVATE`; this process
//!   never writes through it, so shared `&[u8]` access is sound. The
//!   crate's writers never write a file in place: they build it under a
//!   temporary name beside the target and `rename(2)` it over the target
//!   once sealed, so regenerating a path swaps in a new inode while a live
//!   mapping keeps the old one, bytes and checksum intact. Only a *foreign*
//!   writer to the mapped inode could still change bytes under us (or
//!   truncate it, which raises `SIGBUS` on a read past the new end); every
//!   array index read out of a mapping is bounds-checked against the
//!   header before use, so such torn reads can produce wrong answers but
//!   never memory unsafety.
//! * **Alignment**: `mmap` returns page-aligned memory and MCSB sections
//!   sit at 64-byte offsets, so the `u64`/`u32`/`f64` reinterpretations in
//!   `read.rs` are aligned (each cast re-asserts this).

use std::fs::File;
use std::io;

#[cfg(unix)]
mod sys {
    use std::os::unix::io::AsRawFd;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, length: usize) -> i32;
    }

    /// Maps `len` bytes of `file` read-only. Returns a raw page-aligned
    /// pointer or an `io::Error` from the OS.
    pub fn map(file: &std::fs::File, len: usize) -> std::io::Result<*const u8> {
        // SAFETY: arguments follow the mmap(2) contract — a null hint, a
        // nonzero length (checked by the caller), PROT_READ|MAP_PRIVATE, a
        // live fd borrowed from `file`, offset 0. The returned region is
        // only ever read, and only through `MmapRegion::bytes`.
        let ptr =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0) };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(ptr as *const u8)
    }

    /// Unmaps a region previously returned by [`map`].
    pub fn unmap(ptr: *const u8, len: usize) {
        // SAFETY: called exactly once, from Drop, with the pointer/length
        // pair `map` returned.
        unsafe {
            munmap(ptr as *mut core::ffi::c_void, len);
        }
    }
}

/// An owned read-only memory mapping of a file.
pub struct MmapRegion {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the region is immutable shared memory; all access is through
// `&self`, and Drop is the only mutation (unmapping), which requires
// exclusive ownership.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Maps `len` bytes of `file` read-only. `len` must be nonzero and at
    /// most the file's length.
    #[cfg(unix)]
    pub fn map_file(file: &File, len: usize) -> io::Result<MmapRegion> {
        assert!(len > 0, "cannot map an empty region");
        let ptr = sys::map(file, len)?;
        Ok(MmapRegion { ptr, len })
    }

    /// On non-Unix targets there is no mmap wrapper; callers fall back to
    /// the heap read path.
    #[cfg(not(unix))]
    pub fn map_file(_file: &File, _len: usize) -> io::Result<MmapRegion> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "mmap unavailable on this platform"))
    }

    /// The mapped bytes. The slice borrows `self`, so it cannot outlive the
    /// mapping.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` points to `len` mapped readable bytes for as long
        // as `self` lives (see module docs).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        #[cfg(unix)]
        sys::unmap(self.ptr, self.len);
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_file_contents() {
        let path = std::env::temp_dir().join("mcm_store_mmap_selftest.bin");
        let data: Vec<u8> = (0..=255u8).cycle().take(8192).collect();
        std::fs::File::create(&path).unwrap().write_all(&data).unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let map = MmapRegion::map_file(&f, data.len()).unwrap();
        assert_eq!(map.bytes(), &data[..]);
        // Page alignment makes the 64-byte section offsets 8-byte aligned.
        assert_eq!(map.bytes().as_ptr() as usize % 4096, 0);
        drop(map);
        std::fs::remove_file(&path).ok();
    }
}
