//! Crash-safe checkpoint files: atomic writes, integrity footers, and a
//! retained-depth checkpoint store.
//!
//! A torn or bit-rotted checkpoint must never be deserialized silently —
//! a resumed run folding from corrupt state would bias every downstream
//! measurement while looking perfectly healthy. Three layers prevent it:
//!
//! * **Atomic writes** ([`write_atomic`]) — content lands in a temp file
//!   in the target directory, is fsynced, then renamed over the final
//!   path, so a crash mid-write can tear only the temp file, never a
//!   checkpoint a restart would read.
//! * **Integrity footer** ([`seal`]/[`unseal`]) — every checkpoint ends
//!   with a one-line footer carrying the body's byte length and CRC-32.
//!   Truncation (length mismatch or missing footer) and corruption
//!   (checksum mismatch) are told apart and reported; CRC-32 detects all
//!   single-bit and single-byte errors.
//! * **Retained depth** ([`CheckpointStore`]) — the newest N checkpoints
//!   are kept, so when the newest fails verification a restart falls back
//!   to the last known-good one and replays the missing epochs.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cellseal::{crc32, write_atomic_bytes};

use crate::snapshot::Snapshot;

/// Footer marker. The `v1` tag versions the footer layout itself,
/// independently of the snapshot schema version inside the body.
pub const FOOTER_PREFIX: &str = "#cellstream-checkpoint v1 ";

/// Default number of checkpoints a [`CheckpointStore`] retains.
pub const DEFAULT_RETAIN: usize = 3;

/// Why a sealed checkpoint failed verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntegrityError {
    /// No footer line found — the file was truncated before (or inside)
    /// the footer, or was never sealed.
    MissingFooter,
    /// A footer line is present but unparsable.
    BadFooter(String),
    /// The body is shorter or longer than the footer's recorded length.
    Truncated {
        /// Body length recorded in the footer.
        expected: usize,
        /// Body length actually present.
        actual: usize,
    },
    /// The body's checksum does not match the footer's.
    ChecksumMismatch {
        /// CRC-32 recorded in the footer.
        expected: u32,
        /// CRC-32 of the body as read.
        actual: u32,
    },
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityError::MissingFooter => {
                write!(f, "integrity footer missing (file truncated or unsealed)")
            }
            IntegrityError::BadFooter(why) => write!(f, "bad integrity footer: {why}"),
            IntegrityError::Truncated { expected, actual } => write!(
                f,
                "checkpoint truncated: footer records {expected} body bytes, found {actual}"
            ),
            IntegrityError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint corrupt: footer crc32 {expected:08x}, body crc32 {actual:08x}"
            ),
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Append the integrity footer to a checkpoint body.
///
/// The body must be the canonical snapshot JSON (newline-terminated); the
/// sealed form is what [`Snapshot::write_to`] puts on disk.
pub fn seal(body: &str) -> String {
    format!(
        "{body}{FOOTER_PREFIX}len={} crc32={:08x}\n",
        body.len(),
        crc32(body.as_bytes())
    )
}

/// Strict decimal parse for the footer's `len=` field: plain ASCII
/// digits only. `str::parse` alone would accept a leading `+`, letting
/// some single-byte corruptions of the field parse to the original value.
fn parse_len(v: &str) -> Option<usize> {
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    v.parse().ok()
}

/// Strict parse for the footer's `crc32=` field: exactly 8 lowercase hex
/// digits, matching what [`seal`] writes. `from_str_radix` alone would
/// accept uppercase (so the single-bit flip `a` → `A` would parse to the
/// same value) and a leading `+`.
fn parse_crc(v: &str) -> Option<u32> {
    if v.len() != 8 || !v.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u32::from_str_radix(v, 16).ok()
}

/// Verify a sealed checkpoint and return its body.
///
/// Any truncation or byte-level corruption of the sealed form is rejected
/// with a specific [`IntegrityError`]; the body is returned only when both
/// the recorded length and checksum match exactly.
pub fn unseal(data: &str) -> Result<&str, IntegrityError> {
    let idx = data
        .rfind(FOOTER_PREFIX)
        .ok_or(IntegrityError::MissingFooter)?;
    let (body, footer_line) = data.split_at(idx);
    let footer = footer_line
        .strip_prefix(FOOTER_PREFIX)
        .expect("split at match start")
        .strip_suffix('\n')
        .ok_or_else(|| IntegrityError::BadFooter("footer not newline-terminated".into()))?;
    let mut len = None;
    let mut crc = None;
    for field in footer.split(' ') {
        if let Some(v) = field.strip_prefix("len=") {
            len = parse_len(v);
        } else if let Some(v) = field.strip_prefix("crc32=") {
            crc = parse_crc(v);
        }
    }
    let footer_err = || IntegrityError::BadFooter("missing len or crc32 field".into());
    let expected_len = len.ok_or_else(footer_err)?;
    let expected_crc = crc.ok_or_else(footer_err)?;
    if body.len() != expected_len {
        return Err(IntegrityError::Truncated {
            expected: expected_len,
            actual: body.len(),
        });
    }
    let actual = crc32(body.as_bytes());
    if actual != expected_crc {
        return Err(IntegrityError::ChecksumMismatch {
            expected: expected_crc,
            actual,
        });
    }
    Ok(body)
}

/// Write `content` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, directory fsync. A crash at any point
/// leaves either the old file or the new one, never a tear; once this
/// returns, the new file survives a crash (the rename is flushed too).
pub fn write_atomic(path: &Path, content: &str) -> io::Result<()> {
    write_atomic_bytes(path, content.as_bytes())
}

/// Read a sealed checkpoint file, rejecting any corruption.
///
/// Invalid UTF-8 (a bit flip can produce it) is reported as corruption,
/// not a panic.
pub fn read_verified(path: &Path) -> io::Result<String> {
    let bytes = fs::read(path)?;
    let text = String::from_utf8(bytes).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: checkpoint is not valid UTF-8 (corrupt)",
                path.display()
            ),
        )
    })?;
    let body = unseal(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })?;
    Ok(body.to_string())
}

/// Outcome of [`CheckpointStore::load_latest_good`].
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// The newest checkpoint that passed verification, with its path, or
    /// `None` when the store holds no usable checkpoint.
    pub snapshot: Option<(Snapshot, PathBuf)>,
    /// Checkpoints that failed verification (newest first), with the
    /// reason each was rejected.
    pub skipped: Vec<(PathBuf, String)>,
}

/// A directory of sealed, atomically-written checkpoints, retained N deep
/// so recovery can fall back past a corrupt newest file.
///
/// File layout: `ckpt-ep<NNNNNN>.json`, where the number is the
/// checkpoint's `epochs_done` — one file per epoch boundary, pruned to
/// the newest `retain` after every save.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
    obs: cellobs::Observer,
}

impl CheckpointStore {
    /// A store over `dir`, retaining the newest `retain` checkpoints
    /// (clamped to at least 1). The directory is created on first save.
    pub fn new(dir: impl Into<PathBuf>, retain: usize) -> Self {
        CheckpointStore {
            dir: dir.into(),
            retain: retain.max(1),
            obs: cellobs::Observer::disabled(),
        }
    }

    /// Attach an observer: every save reports checkpoint count and sealed
    /// bytes written (`stream.checkpoint.*`). Note the byte counter
    /// depends on the shard count — per-shard snapshot sections grow with
    /// the shard budget — unlike the engine's event counters.
    pub fn with_observer(mut self, obs: cellobs::Observer) -> Self {
        self.obs = obs;
        self
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Retained depth.
    pub fn retain(&self) -> usize {
        self.retain
    }

    /// Path a checkpoint with the given `epochs_done` is stored at.
    pub fn path_for(&self, epochs_done: u32) -> PathBuf {
        self.dir.join(format!("ckpt-ep{epochs_done:06}.json"))
    }

    /// The `epochs_done` encoded in a store file name, if it is one.
    fn epoch_of(name: &str) -> Option<u32> {
        name.strip_prefix("ckpt-ep")?
            .strip_suffix(".json")?
            .parse()
            .ok()
    }

    /// Seal and atomically write `snapshot`, then prune beyond the
    /// retained depth. Returns the path written.
    pub fn save(&self, snapshot: &Snapshot) -> io::Result<PathBuf> {
        let path = self.path_for(snapshot.epochs_done);
        let sealed = seal(&snapshot.to_json());
        write_atomic(&path, &sealed)?;
        self.prune()?;
        if self.obs.is_enabled() {
            self.obs.counter("stream.checkpoint.writes").inc();
            self.obs
                .counter("stream.checkpoint.bytes")
                .add(sealed.len() as u64);
        }
        Ok(path)
    }

    /// All checkpoint files in the store, oldest first. A missing
    /// directory is an empty store, not an error.
    pub fn list(&self) -> io::Result<Vec<(u32, PathBuf)>> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry?;
            if let Some(epoch) = entry.file_name().to_str().and_then(Self::epoch_of) {
                out.push((epoch, entry.path()));
            }
        }
        out.sort();
        Ok(out)
    }

    fn prune(&self) -> io::Result<()> {
        let list = self.list()?;
        if list.len() > self.retain {
            for (_, path) in &list[..list.len() - self.retain] {
                fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    /// Load the newest checkpoint that passes integrity *and* schema
    /// verification, walking backwards past corrupt files and recording
    /// why each was rejected.
    pub fn load_latest_good(&self) -> io::Result<RecoveryOutcome> {
        let mut skipped = Vec::new();
        for (_, path) in self.list()?.into_iter().rev() {
            let loaded = read_verified(&path)
                .and_then(|body| Snapshot::from_json(&body))
                .and_then(|snap| {
                    snap.validate()
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                    Ok(snap)
                });
            match loaded {
                Ok(snapshot) => {
                    return Ok(RecoveryOutcome {
                        snapshot: Some((snapshot, path)),
                        skipped,
                    })
                }
                Err(e) => skipped.push((path, e.to_string())),
            }
        }
        Ok(RecoveryOutcome {
            snapshot: None,
            skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_roundtrips() {
        let body = "{\"hello\": 1}\n";
        let sealed = seal(body);
        assert!(sealed.starts_with(body));
        assert!(sealed.contains(FOOTER_PREFIX));
        assert_eq!(unseal(&sealed).expect("verifies"), body);
    }
}
