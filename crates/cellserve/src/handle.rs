//! The artifact entry point: open a sealed CELLSERV file and get back
//! something that serves lookups.
//!
//! [`Artifact::open`] seal-checks and validates a v2 file *in place*
//! and returns an [`ArtifactHandle`] — the owning form of the one
//! serving representation, [`MappedIndex`] over [`ArtifactBytes`]: the
//! file is `mmap`ed (Unix) or read once into an 8-byte-aligned buffer,
//! and cold start copies nothing but a per-level offset table. The
//! [`QueryEngine`](crate::QueryEngine), the serving daemon and the
//! delta path all run over that handle.
//!
//! CELLSERV v1 is no longer served: `open`/`from_bytes` refuse it with
//! [`ServeError::UnsupportedVersion`]`(1)`, whose message names
//! `cellspot index migrate`. The v1 codec survives only behind
//! [`Artifact::decode`] / [`Artifact::encode`], which is what `migrate`
//! calls to convert files sealed before v2.
//!
//! The handle also reports *how it booted* — [`ArtifactHandle::copied_bytes`]
//! is the measured cold-start copy cost that `cellbench` records as
//! `cellserve.artifact.bytes_copied` — and keeps the sealed bytes reachable
//! ([`MappedIndex::sealed_bytes`]) because CELLDELT deltas chain on
//! their content hash.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use crate::artifact::{decode_v1, encode_v1, ARTIFACT_MAGIC, ARTIFACT_VERSION};
use crate::error::ServeError;
use crate::frozen::FrozenIndex;
use crate::hash::content_hash;
use crate::v2::{self, MappedIndex, ARTIFACT_V2_VERSION};

/// Which sealed encoding an artifact uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactFormat {
    /// The original interleaved encoding. Migrate-only: it can be
    /// decoded and re-encoded, never served.
    V1,
    /// The 8-byte-aligned flat-array body served zero-copy.
    V2,
}

impl ArtifactFormat {
    /// Parse a CLI-style format name (`"v1"` / `"v2"`).
    pub fn parse(s: &str) -> Option<ArtifactFormat> {
        match s {
            "v1" | "1" => Some(ArtifactFormat::V1),
            "v2" | "2" => Some(ArtifactFormat::V2),
            _ => None,
        }
    }

    /// The version number sealed into the header.
    pub fn version(self) -> u32 {
        match self {
            ArtifactFormat::V1 => ARTIFACT_VERSION,
            ArtifactFormat::V2 => ARTIFACT_V2_VERSION,
        }
    }
}

impl std::fmt::Display for ArtifactFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ArtifactFormat::V1 => "v1",
            ArtifactFormat::V2 => "v2",
        })
    }
}

/// Namespace for the artifact load/encode entry points.
pub struct Artifact;

impl Artifact {
    /// Open a sealed v2 artifact file: `mmap`ed read-only where the
    /// platform allows (falling back to one read into an aligned
    /// buffer) and validated in place. The returned handle has passed
    /// the full seal + structural checks.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the file cannot be read,
    /// [`ServeError::Corrupt`] / [`ServeError::UnsupportedVersion`] on
    /// validation failure — a v1 file is `UnsupportedVersion(1)`.
    pub fn open(path: &Path) -> Result<ArtifactHandle, ServeError> {
        let io = |e: std::io::Error| ServeError::Io(format!("{}: {e}", path.display()));
        #[cfg(unix)]
        {
            let file = File::open(path).map_err(io)?;
            let len = file.metadata().map_err(io)?.len() as usize;
            if let Ok(map) = mm::Mmap::map(&file, len) {
                return MappedIndex::new(ArtifactBytes(Buf::Mapped(map)));
            }
        }
        Self::from_bytes(&std::fs::read(path).map_err(io)?)
    }

    /// Validate v2 artifact bytes into an owning handle (the bytes are
    /// copied once into an aligned buffer).
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] or [`ServeError::UnsupportedVersion`]
    /// (v1 bytes included).
    pub fn from_bytes(bytes: &[u8]) -> Result<ArtifactHandle, ServeError> {
        MappedIndex::new(ArtifactBytes(Buf::Owned(AlignedBytes::from_slice(bytes))))
    }

    /// Serialize an index into the requested sealed format.
    pub fn encode(index: &FrozenIndex, format: ArtifactFormat) -> Vec<u8> {
        match format {
            ArtifactFormat::V1 => encode_v1(index),
            ArtifactFormat::V2 => v2::encode(index),
        }
    }

    /// Decode sealed bytes of either format back into the builder-side
    /// [`FrozenIndex`] — the `index migrate` path, and the only reader
    /// of v1 files.
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] or [`ServeError::UnsupportedVersion`].
    pub fn decode(bytes: &[u8]) -> Result<FrozenIndex, ServeError> {
        match Self::sniff_version(bytes) {
            Some(ARTIFACT_V2_VERSION) => Ok(MappedIndex::new(bytes)?.to_frozen()),
            _ => decode_v1(bytes),
        }
    }

    /// The sealed format version claimed by the (unvalidated) header,
    /// when the magic matches.
    pub fn sniff_version(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < 12 || bytes[..8] != ARTIFACT_MAGIC {
            return None;
        }
        Some(u32::from_le_bytes(
            bytes[8..12].try_into().expect("4 bytes"),
        ))
    }

    /// The sealed format claimed by the (unvalidated) header, when the
    /// magic matches and the version is one this build can decode.
    pub fn sniff_format(bytes: &[u8]) -> Option<ArtifactFormat> {
        match Self::sniff_version(bytes) {
            Some(ARTIFACT_VERSION) => Some(ArtifactFormat::V1),
            Some(ARTIFACT_V2_VERSION) => Some(ArtifactFormat::V2),
            _ => None,
        }
    }

    /// A cheap content fingerprint of an artifact file, for reload
    /// watchers: v2 files answer from the 64-byte header's
    /// `quick_hash` field without reading the body; other files hash
    /// their full contents. The value is *only* a change detector —
    /// nothing is validated here.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the file cannot be read.
    pub fn quick_fingerprint(path: &Path) -> Result<u64, ServeError> {
        let io = |e: std::io::Error| ServeError::Io(format!("{}: {e}", path.display()));
        let mut file = File::open(path).map_err(io)?;
        let mut header = [0u8; v2::HEADER_LEN];
        let got = read_fully(&mut file, &mut header).map_err(io)?;
        if got >= 24 && Self::sniff_version(&header) == Some(ARTIFACT_V2_VERSION) {
            return Ok(u64::from_le_bytes(
                header[16..24].try_into().expect("8 bytes"),
            ));
        }
        let mut rest = Vec::new();
        file.read_to_end(&mut rest).map_err(io)?;
        let mut all = header[..got].to_vec();
        all.extend_from_slice(&rest);
        Ok(content_hash(&all))
    }
}

fn read_fully(file: &mut File, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        let n = file.read(&mut buf[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    Ok(got)
}

/// A loaded, validated artifact that owns its bytes: the one serving
/// representation ([`MappedIndex`]) over an mmap or an aligned buffer.
/// Lookups go through [`IndexView`](crate::IndexView).
pub type ArtifactHandle = MappedIndex<ArtifactBytes>;

/// The byte owner behind an [`ArtifactHandle`]: the sealed file as an
/// `mmap` or as one aligned read.
pub struct ArtifactBytes(Buf);

enum Buf {
    Owned(AlignedBytes),
    #[cfg(unix)]
    Mapped(mm::Mmap),
}

impl Buf {
    // `MappedIndex<B>`'s lookup methods are generic over the byte
    // owner, hence instantiated in the calling crate; the accessors
    // under them are `#[inline]` so a probe still costs no call.
    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            Buf::Owned(b) => b.as_slice(),
            #[cfg(unix)]
            Buf::Mapped(m) => m.as_slice(),
        }
    }
}

impl AsRef<[u8]> for ArtifactBytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.0.as_slice()
    }
}

impl ArtifactHandle {
    /// Sealed file size in bytes.
    pub fn source_len(&self) -> u64 {
        self.sealed_bytes().len() as u64
    }

    /// Bytes materialized in memory to boot this handle: an mmap pays
    /// only the header and per-level offset table, the aligned-buffer
    /// fallback one copy of the file.
    pub fn copied_bytes(&self) -> u64 {
        if self.is_mapped() {
            self.directory_bytes() as u64
        } else {
            self.source_len()
        }
    }

    /// True when the handle serves straight out of an `mmap`.
    pub fn is_mapped(&self) -> bool {
        !matches!(self.owner().0, Buf::Owned(_))
    }
}

impl std::fmt::Debug for ArtifactHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactHandle")
            .field("source_len", &self.source_len())
            .field("copied_bytes", &self.copied_bytes())
            .field("mapped", &self.is_mapped())
            .finish_non_exhaustive()
    }
}

/// One read's worth of bytes at 8-byte alignment: a `Vec<u64>` backing
/// store reinterpreted as bytes, the mmap fallback the v2 spec allows.
struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    fn from_slice(bytes: &[u8]) -> AlignedBytes {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: the words buffer holds ≥ `bytes.len()` initialized
        // bytes, u64 → u8 loosens alignment, and the view ends with this
        // statement, before `words` is moved.
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, bytes.len()) }
            .copy_from_slice(bytes);
        AlignedBytes {
            words,
            len: bytes.len(),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        // SAFETY: the words buffer holds ≥ `len` initialized bytes and
        // u64 → u8 loosens alignment; `from_slice` copied the bytes in
        // through the same view, so their order is the original's.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }
}

/// Minimal read-only mmap over a file, done with direct libc calls so
/// no new dependency is needed (same std-only idiom as the CLI's
/// signal handling). The mapping outlives the `File`; artifacts are
/// published with atomic renames, so the mapped inode can never be
/// truncated under us.
#[cfg(unix)]
mod mm {
    use core::ffi::c_void;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    pub(super) struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ and never mutated.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        pub(super) fn map(file: &std::fs::File, len: usize) -> std::io::Result<Mmap> {
            if len == 0 {
                return Err(std::io::Error::other("cannot map an empty file"));
            }
            // SAFETY: fd is valid for the duration of the call; we map
            // read-only/private and check the sentinel return.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Mmap {
                ptr: ptr as *const u8,
                len,
            })
        }

        #[inline]
        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: the mapping covers `len` readable bytes for the
            // life of `self`.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are exactly what mmap returned.
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }
}

/// Seal and load: lookups live on the v2 view, so the crate's unit
/// tests observe what a builder froze through it.
#[cfg(test)]
pub(crate) fn served(index: &FrozenIndex) -> ArtifactHandle {
    Artifact::from_bytes(&Artifact::encode(index, ArtifactFormat::V2))
        .expect("a built index seals to a valid artifact")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::{AsClass, ServeLabel};
    use crate::view::IndexView;
    use netaddr::Asn;

    fn sample_index() -> FrozenIndex {
        let mut b = FrozenIndex::builder();
        b.insert_v4(
            "10.0.0.0/8".parse().expect("cidr"),
            ServeLabel {
                asn: Asn(1),
                class: AsClass::Mixed,
            },
        );
        b.insert_v6(
            "2001:db8::/48".parse().expect("cidr"),
            ServeLabel {
                asn: Asn(2),
                class: AsClass::Dedicated,
            },
        );
        b.build()
    }

    fn tmpfile(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cellserve-handle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write artifact");
        path
    }

    #[test]
    fn open_and_from_bytes_serve_the_sealed_v2_bytes() {
        let index = sample_index();
        let bytes = Artifact::encode(&index, ArtifactFormat::V2);
        let path = tmpfile("open.cellserv", &bytes);
        let opened = Artifact::open(&path).expect("open");
        let loaded = Artifact::from_bytes(&bytes).expect("load");
        for handle in [&opened, &loaded] {
            assert_eq!(handle.sealed_bytes(), &bytes[..]);
            assert_eq!(handle.content_hash(), content_hash(&bytes));
            assert_eq!(handle.source_len(), bytes.len() as u64);
            let (net, label) = handle.lookup_v4(0x0A000001).expect("10.0.0.1 is served");
            assert_eq!(
                (net.to_string().as_str(), label.asn),
                ("10.0.0.0/8", Asn(1))
            );
            assert_eq!(handle.lookup_v4(0x0B000001), None);
            let v6 = 0x2001_0db8_0000_0000_0000_0000_0000_0001u128;
            assert_eq!(handle.lookup_v6(v6).expect("served").1.asn, Asn(2));
            assert_eq!(handle.prefix_counts(), index.prefix_counts());
        }
        assert!(!loaded.is_mapped());
        assert_eq!(loaded.copied_bytes(), bytes.len() as u64);
        // Every view carries the hash of the bytes it validated — mmap
        // and owned above, borrowed here.
        assert_eq!(opened.is_mapped(), cfg!(unix));
        let borrowed = MappedIndex::new(&bytes[..]).expect("borrowed view");
        assert_eq!(
            borrowed.content_hash(),
            content_hash(borrowed.sealed_bytes())
        );
    }

    #[test]
    fn v2_open_maps_and_copies_almost_nothing() {
        let bytes = Artifact::encode(&sample_index(), ArtifactFormat::V2);
        let path = tmpfile("mapped.cellserv", &bytes);
        let handle = Artifact::open(&path).expect("open");
        if cfg!(unix) {
            assert!(handle.is_mapped(), "v2 files mmap on unix");
            assert!(
                handle.copied_bytes() < bytes.len() as u64,
                "mapped boot copies less than the file: {} vs {}",
                handle.copied_bytes(),
                bytes.len()
            );
        }
    }

    #[test]
    fn v1_files_are_refused_with_the_migrate_hint() {
        let bytes = Artifact::encode(&sample_index(), ArtifactFormat::V1);
        let path = tmpfile("legacy-v1.cellserv", &bytes);
        for err in [
            Artifact::from_bytes(&bytes).expect_err("v1 bytes"),
            Artifact::open(&path).expect_err("v1 file"),
        ] {
            assert_eq!(err, ServeError::UnsupportedVersion(1));
            assert!(err.to_string().contains("cellspot index migrate"), "{err}");
        }
    }

    #[test]
    fn decode_and_encode_roundtrip_across_formats() {
        let index = sample_index();
        let v1 = Artifact::encode(&index, ArtifactFormat::V1);
        let v2 = Artifact::encode(&index, ArtifactFormat::V2);
        assert_eq!(Artifact::decode(&v1).expect("v1"), index);
        assert_eq!(Artifact::decode(&v2).expect("v2"), index);
        assert_eq!(Artifact::sniff_version(&v1), Some(1));
        assert_eq!(Artifact::sniff_version(&v2), Some(2));
        assert_eq!(Artifact::sniff_version(b"nope"), None);
    }

    #[test]
    fn quick_fingerprint_matches_header_and_tracks_content() {
        let index = sample_index();
        let v2 = Artifact::encode(&index, ArtifactFormat::V2);
        let path = tmpfile("fp.cellserv", &v2);
        let fp = Artifact::quick_fingerprint(&path).expect("fingerprint");
        let mapped = MappedIndex::new(&v2).expect("v2 view");
        assert_eq!(fp, mapped.quick_hash());

        // Anything that is not v2 falls back to a full-content hash, so
        // a v1 file dropped in the watch path still reads as a change.
        let v1 = Artifact::encode(&index, ArtifactFormat::V1);
        let p1 = tmpfile("fp-v1.cellserv", &v1);
        assert_eq!(
            Artifact::quick_fingerprint(&p1).expect("fingerprint"),
            content_hash(&v1)
        );

        // Different contents, different fingerprints.
        let mut b = FrozenIndex::builder();
        b.insert_v4(
            "192.0.2.0/24".parse().expect("cidr"),
            ServeLabel {
                asn: Asn(9),
                class: AsClass::Unknown,
            },
        );
        let other = Artifact::encode(&b.build(), ArtifactFormat::V2);
        let p2 = tmpfile("fp-other.cellserv", &other);
        assert_ne!(fp, Artifact::quick_fingerprint(&p2).expect("fingerprint"));
    }

    #[test]
    fn open_missing_file_is_an_io_error() {
        let err = Artifact::open(Path::new("/nonexistent/cellserv")).expect_err("no file");
        assert!(matches!(err, ServeError::Io(_)), "{err:?}");
    }

    #[test]
    fn corrupt_files_are_rejected_through_open() {
        let mut bytes = Artifact::encode(&sample_index(), ArtifactFormat::V2);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let path = tmpfile("bad.cellserv", &bytes);
        assert!(matches!(Artifact::open(&path), Err(ServeError::Corrupt(_))));
    }
}
