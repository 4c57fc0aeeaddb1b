//! Read-only file bytes for the zero-copy artifact store: a std-only
//! `mmap(2)` shim on unix with an owned, 8-byte-aligned read fallback
//! everywhere else.
//!
//! The dependency list of this crate is closed (no `libc` crate), so the
//! unix path declares the two syscall wrappers it needs — `mmap` and
//! `munmap` — directly as `extern "C"` items and passes the raw fd from
//! [`std::os::unix::io::AsRawFd`]. This is the only module in the crate
//! allowed to use `unsafe`; everything it exposes is a safe, bounds- and
//! alignment-checked slice.
//!
//! # Alignment
//!
//! Artifact payload planes are raw little-endian `f64` bits at 8-byte
//! aligned file offsets, and the store reinterprets them in place (see
//! [`as_f64s`]). An `mmap` base is page-aligned, which implies 8-byte
//! alignment; the owned fallback therefore cannot use a plain
//! `Vec<u8>` (1-byte alignment) and instead copies the file into `u64`
//! storage ([`AlignedBytes`]).
//!
//! # Swap safety
//!
//! Artifacts are replaced on disk by atomic rename, which points the
//! *name* at a new inode and never touches the bytes of the old one; an
//! existing mapping therefore stays valid for as long as the store that
//! owns it is alive, even across hot swaps.

#![allow(unsafe_code)]

use std::fs;
use std::io;
use std::path::Path;
use std::slice;

/// How [`read_file`] acquires the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapMode {
    /// Memory-map when the platform supports it, falling back to an
    /// owned read on failure (empty file, exotic filesystem, non-unix).
    Auto,
    /// Always read into owned memory — the differential-testing and
    /// benchmarking knob.
    Owned,
}

/// The bytes backing an open artifact: a live mapping or an owned copy.
///
/// Dereferences to `&[u8]` either way; [`ArtifactBytes::is_mapped`]
/// reports which path was taken (telemetry and the load benchmarks care,
/// decoding does not).
#[derive(Debug)]
pub enum ArtifactBytes {
    /// A read-only private mapping of the file.
    #[cfg(unix)]
    Mapped(MappedFile),
    /// An owned, 8-byte-aligned copy of the file.
    Owned(AlignedBytes),
}

impl ArtifactBytes {
    /// The bytes, however they are backed.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            ArtifactBytes::Mapped(m) => m.as_slice(),
            ArtifactBytes::Owned(b) => b.as_slice(),
        }
    }

    /// Whether the bytes are a live memory mapping.
    pub fn is_mapped(&self) -> bool {
        match self {
            #[cfg(unix)]
            ArtifactBytes::Mapped(_) => true,
            ArtifactBytes::Owned(_) => false,
        }
    }
}

impl std::ops::Deref for ArtifactBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Reads `path` according to `mode`.
pub fn read_file(path: &Path, mode: MapMode) -> io::Result<ArtifactBytes> {
    let file = fs::File::open(path)?;
    let len = file.metadata()?.len();
    let len = usize::try_from(len)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space"))?;
    if mode == MapMode::Auto {
        #[cfg(unix)]
        if let Some(mapped) = MappedFile::map(&file, len) {
            return Ok(ArtifactBytes::Mapped(mapped));
        }
    }
    // Straight into aligned storage: one allocation, no staging copy.
    let mut owned = AlignedBytes::zeroed(len);
    io::Read::read_exact(&mut { &file }, owned.as_mut_slice())?;
    Ok(ArtifactBytes::Owned(owned))
}

/// Owned bytes stored in `u64` words so the base address is 8-byte
/// aligned (a `Vec<u8>` allocation only guarantees 1-byte alignment).
#[derive(Debug)]
pub struct AlignedBytes {
    words: Box<[u64]>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into 8-byte-aligned storage.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        let mut owned = AlignedBytes::zeroed(bytes.len());
        owned.as_mut_slice().copy_from_slice(&bytes);
        owned
    }

    /// `len` zero bytes in 8-byte-aligned storage.
    fn zeroed(len: usize) -> Self {
        AlignedBytes {
            words: vec![0u64; len.div_ceil(8)].into_boxed_slice(),
            len,
        }
    }

    /// The stored bytes, writable.
    fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: `words` holds at least `len` initialized bytes and is
        // exclusively borrowed for the returned lifetime; any byte
        // pattern written through it is a valid `u64`.
        unsafe { slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }

    /// The stored bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `words` holds at least `len` initialized bytes and
        // outlives the returned borrow; `u64` storage is valid as `u8`s.
        unsafe { slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

/// Reinterprets an 8-byte-aligned byte slice as `f64`s in place.
///
/// Returns `None` when the slice is misaligned, its length is not a
/// multiple of 8, or the target is big-endian (file bytes are
/// little-endian, so an in-place view would read swapped values — the
/// caller must decode an owned copy instead).
pub fn as_f64s(bytes: &[u8]) -> Option<&[f64]> {
    if !cfg!(target_endian = "little") {
        return None;
    }
    if bytes.as_ptr() as usize % 8 != 0 || bytes.len() % 8 != 0 {
        return None;
    }
    // SAFETY: alignment and length were just checked, every bit pattern
    // is a valid `f64`, and the lifetime is inherited from `bytes`.
    Some(unsafe { slice::from_raw_parts(bytes.as_ptr().cast::<f64>(), bytes.len() / 8) })
}

/// A read-only private memory mapping of a whole file.
#[cfg(unix)]
#[derive(Debug)]
pub struct MappedFile {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE — immutable shared reads
// from any thread are fine, and `munmap` runs exactly once on drop.
#[cfg(unix)]
unsafe impl Send for MappedFile {}
#[cfg(unix)]
unsafe impl Sync for MappedFile {}

#[cfg(unix)]
impl MappedFile {
    /// Maps `len` bytes of `file` read-only; `None` on any failure
    /// (including `len == 0`, which `mmap` rejects) so the caller can
    /// fall back to an owned read.
    fn map(file: &fs::File, len: usize) -> Option<MappedFile> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return None;
        }
        // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of an open fd;
        // the kernel validates the fd and length, and failure returns
        // MAP_FAILED which is checked below.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED || ptr.is_null() {
            return None;
        }
        Some(MappedFile {
            ptr: ptr.cast::<u8>(),
            len,
        })
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
        // bytes, unmapped only in `drop`.
        unsafe { slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for MappedFile {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` came from a successful `mmap` and are
        // unmapped exactly once.
        unsafe {
            sys::munmap(self.ptr.cast(), self.len);
        }
    }
}

/// The two syscall wrappers the shim needs, declared directly so the
/// closed dependency list stays closed (no `libc` crate).
#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mfgcp-mmap-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn mapped_and_owned_reads_agree() {
        let path = temp_path("agree");
        let payload: Vec<u8> = (0..100_000u32).flat_map(|i| i.to_le_bytes()).collect();
        fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let auto = read_file(&path, MapMode::Auto).unwrap();
        let owned = read_file(&path, MapMode::Owned).unwrap();
        assert!(!owned.is_mapped());
        assert_eq!(auto.as_slice(), owned.as_slice());
        assert_eq!(auto.as_slice(), payload.as_slice());
        #[cfg(unix)]
        assert!(auto.is_mapped(), "unix should take the mmap path");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn empty_files_fall_back_to_owned() {
        let path = temp_path("empty");
        fs::File::create(&path).unwrap();
        let bytes = read_file(&path, MapMode::Auto).unwrap();
        assert!(!bytes.is_mapped());
        assert!(bytes.as_slice().is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn aligned_bytes_are_8_aligned_and_roundtrip() {
        for len in [0usize, 1, 7, 8, 9, 4096, 4097] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let aligned = AlignedBytes::from_vec(src.clone());
            assert_eq!(aligned.as_slice(), src.as_slice());
            assert_eq!(aligned.as_slice().as_ptr() as usize % 8, 0);
        }
    }

    #[test]
    fn f64_view_checks_alignment_length_and_endianness() {
        let vals = [1.5f64, f64::NAN, f64::NEG_INFINITY, -0.0];
        let bytes: Vec<u8> = vals
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let aligned = AlignedBytes::from_vec(bytes);
        if cfg!(target_endian = "little") {
            let view = as_f64s(aligned.as_slice()).expect("aligned LE view");
            assert_eq!(view.len(), vals.len());
            for (a, b) in view.iter().zip(&vals) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            // Odd length is rejected.
            assert!(as_f64s(&aligned.as_slice()[..9]).is_none());
            // Misaligned start is rejected.
            assert!(as_f64s(&aligned.as_slice()[1..9]).is_none());
        } else {
            assert!(as_f64s(aligned.as_slice()).is_none());
        }
    }
}
