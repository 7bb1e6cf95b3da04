//! The unified artifact entry point: open a sealed file of either
//! format and get back something that serves lookups.
//!
//! [`Artifact::open`] sniffs the version, seal-checks, and returns an
//! [`ArtifactHandle`]: v2 files are `mmap`ed (Unix) or read once into
//! an 8-byte-aligned buffer and validated *in place* — cold start
//! copies nothing but a per-level offset table — while v1 files decode
//! into the owned [`FrozenIndex`] as before. The handle owns its bytes
//! and implements [`IndexView`](crate::IndexView), so the
//! [`QueryEngine`](crate::QueryEngine), the serving daemon, and the
//! delta path run identically over either representation.
//!
//! The handle also reports *how it booted* — [`ArtifactHandle::copied_bytes`]
//! is the measured cold-start copy cost that `bench_lookup` records as
//! `cold_start.bytes_copied` — and keeps the sealed bytes reachable
//! ([`ArtifactHandle::sealed_bytes`]) because CELLDELT deltas chain on
//! their content hash.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use netaddr::{Ipv4Net, Ipv6Net};

use crate::artifact::{decode_v1, encode_v1, ARTIFACT_MAGIC, ARTIFACT_VERSION};
use crate::error::ServeError;
use crate::frozen::{FrozenIndex, ServeLabel};
use crate::hash::content_hash;
use crate::v2::{self, V2Layout, ARTIFACT_V2_VERSION};
use crate::view::IndexView;

/// Which sealed encoding an artifact uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactFormat {
    /// The original interleaved encoding, decoded into owned `Vec`s.
    V1,
    /// The 8-byte-aligned flat-array body served zero-copy (default).
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
            ArtifactFormat::V1 => crate::artifact::ARTIFACT_VERSION,
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
    /// Open a sealed artifact file of either format.
    ///
    /// v2 files are `mmap`ed read-only where the platform allows
    /// (falling back to one read into an aligned buffer) and validated
    /// in place; v1 files are read and decoded. Either way the
    /// returned handle has passed the full seal + structural checks.
    ///
    /// # Errors
    /// [`ServeError::Io`] when the file cannot be read,
    /// [`ServeError::Corrupt`] / [`ServeError::UnsupportedVersion`] on
    /// validation failure.
    pub fn open(path: &Path) -> Result<ArtifactHandle, ServeError> {
        let io = |e: std::io::Error| ServeError::Io(format!("{}: {e}", path.display()));
        match Self::sniff_file(path).map_err(io)? {
            ARTIFACT_V2_VERSION => {
                #[cfg(unix)]
                {
                    let file = File::open(path).map_err(io)?;
                    let len = file.metadata().map_err(io)?.len() as usize;
                    if let Ok(map) = mm::Mmap::map(&file, len) {
                        let layout = v2::parse(map.as_slice())?;
                        let copied = (v2::HEADER_LEN + 32 * layout.level_count()) as u64;
                        let hash = content_hash(map.as_slice());
                        return Ok(ArtifactHandle {
                            repr: Repr::V2 {
                                buf: V2Buf::Mapped(map),
                                layout,
                            },
                            source_len: len as u64,
                            content_hash: hash,
                            copied_bytes: copied,
                            mapped: true,
                        });
                    }
                }
                let bytes = std::fs::read(path).map_err(io)?;
                Self::from_bytes(&bytes)
            }
            _ => {
                // v1 — and anything unrecognized, so the validators
                // produce their precise error.
                let bytes = std::fs::read(path).map_err(io)?;
                Self::from_bytes(&bytes)
            }
        }
    }

    /// Validate artifact bytes of either format into an owning handle
    /// (v2 bytes are copied once into an aligned buffer).
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] or [`ServeError::UnsupportedVersion`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ArtifactHandle, ServeError> {
        match Self::sniff_version(bytes) {
            Some(ARTIFACT_V2_VERSION) => {
                let buf = AlignedBytes::from_slice(bytes);
                let layout = v2::parse(buf.as_slice())?;
                Ok(ArtifactHandle {
                    repr: Repr::V2 {
                        buf: V2Buf::Owned(buf),
                        layout,
                    },
                    source_len: bytes.len() as u64,
                    content_hash: content_hash(bytes),
                    copied_bytes: bytes.len() as u64,
                    mapped: false,
                })
            }
            _ => {
                let index = decode_v1(bytes)?;
                let copied = bytes.len() as u64 + decoded_heap_bytes(&index);
                Ok(ArtifactHandle {
                    repr: Repr::V1 {
                        index,
                        bytes: bytes.to_vec(),
                    },
                    source_len: bytes.len() as u64,
                    content_hash: content_hash(bytes),
                    copied_bytes: copied,
                    mapped: false,
                })
            }
        }
    }

    /// Serialize an index into the requested sealed format.
    pub fn encode(index: &FrozenIndex, format: ArtifactFormat) -> Vec<u8> {
        match format {
            ArtifactFormat::V1 => encode_v1(index),
            ArtifactFormat::V2 => v2::encode(index),
        }
    }

    /// Decode sealed bytes of either format into the owned
    /// [`FrozenIndex`] form (the build, migrate, and delta paths).
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] or [`ServeError::UnsupportedVersion`].
    pub fn decode(bytes: &[u8]) -> Result<FrozenIndex, ServeError> {
        match Self::sniff_version(bytes) {
            Some(ARTIFACT_V2_VERSION) => Ok(v2::parse(bytes)?.to_frozen(bytes)),
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
    /// magic matches and the version is one this build can serve.
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
        if got >= 24
            && header[..8] == ARTIFACT_MAGIC
            && u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) == ARTIFACT_V2_VERSION
        {
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

    fn sniff_file(path: &Path) -> std::io::Result<u32> {
        let mut file = File::open(path)?;
        let mut head = [0u8; 12];
        let got = read_fully(&mut file, &mut head)?;
        if got == 12 && head[..8] == ARTIFACT_MAGIC {
            Ok(u32::from_le_bytes(head[8..12].try_into().expect("4 bytes")))
        } else {
            Ok(0)
        }
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

/// Heap bytes a decoded [`FrozenIndex`] holds — the copy cost a v1
/// load pays on top of reading the file.
fn decoded_heap_bytes(index: &FrozenIndex) -> u64 {
    let (v4, v6) = index.prefix_counts();
    index.label_count() as u64 * std::mem::size_of::<ServeLabel>() as u64
        + v4 as u64 * (4 + 4)
        + v6 as u64 * (16 + 4)
}

/// A loaded, validated artifact: the owning counterpart of the
/// borrowed views. Serves lookups through [`IndexView`] (and inherent
/// mirrors of the common methods, so `Arc<ArtifactHandle>` call sites
/// need no trait import).
pub struct ArtifactHandle {
    repr: Repr,
    source_len: u64,
    content_hash: u64,
    copied_bytes: u64,
    mapped: bool,
}

impl std::fmt::Debug for ArtifactHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactHandle")
            .field("format", &self.format())
            .field("source_len", &self.source_len)
            .field("copied_bytes", &self.copied_bytes)
            .field("mapped", &self.mapped)
            .finish_non_exhaustive()
    }
}

enum Repr {
    V1 { index: FrozenIndex, bytes: Vec<u8> },
    V2 { buf: V2Buf, layout: V2Layout },
}

enum V2Buf {
    Owned(AlignedBytes),
    #[cfg(unix)]
    Mapped(mm::Mmap),
}

impl V2Buf {
    fn as_slice(&self) -> &[u8] {
        match self {
            V2Buf::Owned(b) => b.as_slice(),
            #[cfg(unix)]
            V2Buf::Mapped(m) => m.as_slice(),
        }
    }
}

impl ArtifactHandle {
    /// Which format the handle was loaded from.
    pub fn format(&self) -> ArtifactFormat {
        match &self.repr {
            Repr::V1 { .. } => ArtifactFormat::V1,
            Repr::V2 { .. } => ArtifactFormat::V2,
        }
    }

    /// The sealed bytes exactly as loaded — what delta chains hash.
    pub fn sealed_bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::V1 { bytes, .. } => bytes,
            Repr::V2 { buf, .. } => buf.as_slice(),
        }
    }

    /// FNV-1a content hash of [`ArtifactHandle::sealed_bytes`].
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Sealed file size in bytes.
    pub fn source_len(&self) -> u64 {
        self.source_len
    }

    /// Bytes materialized in memory to boot this handle: a v1 load
    /// pays the file read plus the decoded structure; a v2 mmap pays
    /// only the header and per-level offset table.
    pub fn copied_bytes(&self) -> u64 {
        self.copied_bytes
    }

    /// True when the handle serves straight out of an `mmap`.
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// Decode into the owned [`FrozenIndex`] form (v1: clone; v2:
    /// in-order decode) — the delta-apply and migrate paths.
    pub fn to_frozen(&self) -> FrozenIndex {
        match &self.repr {
            Repr::V1 { index, .. } => index.clone(),
            Repr::V2 { buf, layout } => layout.to_frozen(buf.as_slice()),
        }
    }

    /// Inherent mirror of [`IndexView::lookup_v4`].
    pub fn lookup_v4(&self, addr: u32) -> Option<(Ipv4Net, ServeLabel)> {
        IndexView::lookup_v4(self, addr)
    }

    /// Inherent mirror of [`IndexView::lookup_v6`].
    pub fn lookup_v6(&self, addr: u128) -> Option<(Ipv6Net, ServeLabel)> {
        IndexView::lookup_v6(self, addr)
    }

    /// Inherent mirror of [`IndexView::prefix_counts`].
    pub fn prefix_counts(&self) -> (usize, usize) {
        IndexView::prefix_counts(self)
    }

    /// Inherent mirror of [`IndexView::len`].
    pub fn len(&self) -> usize {
        IndexView::len(self)
    }

    /// Inherent mirror of [`IndexView::is_empty`].
    pub fn is_empty(&self) -> bool {
        IndexView::is_empty(self)
    }

    /// Inherent mirror of [`IndexView::label_count`].
    pub fn label_count(&self) -> usize {
        IndexView::label_count(self)
    }

    /// Inherent mirror of [`IndexView::as_count`].
    pub fn as_count(&self) -> usize {
        IndexView::as_count(self)
    }
}

impl IndexView for ArtifactHandle {
    fn lpm_v4(&self, addr: u32) -> Option<(u8, u32)> {
        match &self.repr {
            Repr::V1 { index, .. } => index.lpm_v4(addr),
            Repr::V2 { buf, layout } => layout.lpm_v4(buf.as_slice(), addr),
        }
    }

    fn lpm_v6(&self, addr: u128) -> Option<(u8, u32)> {
        match &self.repr {
            Repr::V1 { index, .. } => index.lpm_v6(addr),
            Repr::V2 { buf, layout } => layout.lpm_v6(buf.as_slice(), addr),
        }
    }

    fn label_at(&self, idx: u32) -> ServeLabel {
        match &self.repr {
            Repr::V1 { index, .. } => index.label_at(idx),
            Repr::V2 { buf, layout } => layout.label_at(buf.as_slice(), idx),
        }
    }

    fn longest_len_v4(&self) -> Option<u8> {
        match &self.repr {
            Repr::V1 { index, .. } => index.longest_len_v4(),
            Repr::V2 { layout, .. } => layout.longest_len_v4(),
        }
    }

    fn longest_len_v6(&self) -> Option<u8> {
        match &self.repr {
            Repr::V1 { index, .. } => index.longest_len_v6(),
            Repr::V2 { layout, .. } => layout.longest_len_v6(),
        }
    }

    fn prefix_counts(&self) -> (usize, usize) {
        match &self.repr {
            Repr::V1 { index, .. } => IndexView::prefix_counts(index),
            Repr::V2 { layout, .. } => layout.prefix_counts(),
        }
    }

    fn label_count(&self) -> usize {
        match &self.repr {
            Repr::V1 { index, .. } => IndexView::label_count(index),
            Repr::V2 { layout, .. } => layout.label_count(),
        }
    }

    fn for_each_v4(&self, f: &mut dyn FnMut(Ipv4Net, ServeLabel)) {
        match &self.repr {
            Repr::V1 { index, .. } => index.for_each_v4(f),
            Repr::V2 { buf, layout } => layout.for_each_v4(buf.as_slice(), f),
        }
    }

    fn for_each_v6(&self, f: &mut dyn FnMut(Ipv6Net, ServeLabel)) {
        match &self.repr {
            Repr::V1 { index, .. } => index.for_each_v6(f),
            Repr::V2 { buf, layout } => layout.for_each_v6(buf.as_slice(), f),
        }
    }

    fn prefetch_v4(&self, addr: u32) {
        if let Repr::V2 { buf, layout } = &self.repr {
            layout.prefetch_v4(buf.as_slice(), addr);
        }
    }

    fn prefetch_v6(&self, addr: u128) {
        if let Repr::V2 { buf, layout } = &self.repr {
            layout.prefetch_v6(buf.as_slice(), addr);
        }
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
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            words[i] = u64::from_ne_bytes(w);
        }
        AlignedBytes {
            words,
            len: bytes.len(),
        }
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: the words buffer holds ≥ `len` initialized bytes and
        // u64 → u8 loosens alignment; `from_ne_bytes` above preserved
        // the original byte order.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::AsClass;
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
    fn open_sniffs_both_formats_and_answers_identically() {
        let index = sample_index();
        for format in [ArtifactFormat::V1, ArtifactFormat::V2] {
            let bytes = Artifact::encode(&index, format);
            let path = tmpfile(&format!("open-{format}.cellserv"), &bytes);
            let handle = Artifact::open(&path).expect("open");
            assert_eq!(handle.format(), format);
            assert_eq!(handle.sealed_bytes(), &bytes[..]);
            assert_eq!(handle.content_hash(), content_hash(&bytes));
            assert_eq!(handle.source_len(), bytes.len() as u64);
            assert_eq!(handle.lookup_v4(0x0A000001), index.lookup_v4(0x0A000001));
            assert_eq!(handle.lookup_v4(0x0B000001), None);
            let v6 = 0x2001_0db8_0000_0000_0000_0000_0000_0001u128;
            assert_eq!(handle.lookup_v6(v6), index.lookup_v6(v6));
            assert_eq!(handle.prefix_counts(), index.prefix_counts());
            assert_eq!(handle.to_frozen(), index);
        }
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
        assert_eq!(handle.format(), ArtifactFormat::V2);
    }

    #[test]
    fn v1_load_pays_the_decode_copy() {
        let bytes = Artifact::encode(&sample_index(), ArtifactFormat::V1);
        let handle = Artifact::from_bytes(&bytes).expect("load");
        assert!(!handle.is_mapped());
        assert!(handle.copied_bytes() > bytes.len() as u64);
        assert_eq!(handle.format(), ArtifactFormat::V1);
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
        let mapped = crate::MappedIndex::new(&v2).expect("v2 view");
        assert_eq!(fp, mapped.quick_hash());

        // v1 files fall back to a full-content hash.
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
        for format in [ArtifactFormat::V1, ArtifactFormat::V2] {
            let mut bytes = Artifact::encode(&sample_index(), format);
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            let path = tmpfile(&format!("bad-{format}.cellserv"), &bytes);
            assert!(
                Artifact::open(&path).is_err(),
                "{format} corruption accepted"
            );
        }
    }
}
