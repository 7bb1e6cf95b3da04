//! The retained-depth checkpoint store.
//!
//! A torn or bit-rotted checkpoint must never be restored silently — a
//! resumed run folding from corrupt state would bias every downstream
//! measurement while looking perfectly healthy. Three layers prevent it:
//!
//! * **Atomic writes** ([`cellseal::write_atomic_bytes`]) — content
//!   lands in a temp file in the target directory, is fsynced, then
//!   renamed over the final path, so a crash mid-write can tear only the
//!   temp file, never a checkpoint a restart would read.
//! * **The seal** — a checkpoint is a `cellseal` file like every other
//!   the system writes ([`Snapshot::to_bytes`]): truncation and
//!   corruption are told apart and reported, and the decoder checks the
//!   body's structure past the seal.
//! * **Retained depth** ([`CheckpointStore`]) — the newest N checkpoints
//!   are kept, so when the newest fails verification a restart falls back
//!   to the last known-good one and replays the missing epochs.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::snapshot::Snapshot;

/// Default number of checkpoints a [`CheckpointStore`] retains.
pub const DEFAULT_RETAIN: usize = 3;

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
/// File layout: `ckpt-ep<NNNNNN>.ckpt`, where the number is the
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
        self.dir.join(format!("ckpt-ep{epochs_done:06}.ckpt"))
    }

    /// The `epochs_done` encoded in a store file name, if it is one.
    fn epoch_of(name: &str) -> Option<u32> {
        name.strip_prefix("ckpt-ep")?
            .strip_suffix(".ckpt")?
            .parse()
            .ok()
    }

    /// Seal and atomically write `snapshot`, then prune beyond the
    /// retained depth. Returns the path written.
    pub fn save(&self, snapshot: &Snapshot) -> io::Result<PathBuf> {
        let path = self.path_for(snapshot.epochs_done);
        let sealed = snapshot.to_bytes();
        cellseal::write_atomic_bytes(&path, &sealed)?;
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

    /// Load the newest checkpoint [`Snapshot::read_from`] accepts,
    /// walking backwards past corrupt files and recording why each was
    /// rejected.
    pub fn load_latest_good(&self) -> io::Result<RecoveryOutcome> {
        let mut skipped = Vec::new();
        for (_, path) in self.list()?.into_iter().rev() {
            match Snapshot::read_from(&path) {
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
