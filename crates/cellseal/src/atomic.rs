//! Crash-safe file publication.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// One step of the atomic-write durability sequence, recorded in order
/// so tests can assert the full temp → fsync → rename → dir-fsync chain
/// actually ran (and in that order) rather than trusting the prose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AtomicStep {
    /// Content written into the temp file.
    WriteTemp,
    /// Temp file contents fsynced to stable storage.
    SyncTemp,
    /// Temp file renamed over the target path.
    Rename,
    /// Parent directory fsynced, making the rename itself durable.
    SyncDir,
}

/// The directory whose entry must be fsynced for a rename of `path` to
/// be durable. A bare file name lives in the current directory, which
/// needs the flush just as much as an explicit parent does.
fn fsync_dir_of(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

fn write_atomic_impl(
    path: &Path,
    content: &[u8],
    trace: &mut dyn FnMut(AtomicStep),
) -> io::Result<()> {
    let dir = fsync_dir_of(path);
    fs::create_dir_all(&dir)?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(content)?;
        trace(AtomicStep::WriteTemp);
        f.sync_all()?;
        trace(AtomicStep::SyncTemp);
    }
    fs::rename(&tmp, path)?;
    trace(AtomicStep::Rename);
    // Make the rename itself durable: until the directory entry is
    // flushed, a crash can forget the new name and resurface the old
    // file — or nothing at all for a first write. A directory that
    // cannot be fsynced is therefore a real durability failure and the
    // error propagates.
    #[cfg(unix)]
    {
        let df = fs::File::open(&dir)?;
        df.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        // Directories cannot be opened as files on every platform;
        // flush best-effort there rather than failing the write.
        if let Ok(df) = fs::File::open(&dir) {
            let _ = df.sync_all();
        }
    }
    trace(AtomicStep::SyncDir);
    Ok(())
}

/// Write `content` to `path` atomically: temp file in the same
/// directory, fsync, rename over the target, directory fsync. A crash at
/// any point leaves either the old file or the new one, never a tear;
/// once this returns, the new file survives a crash (the rename is
/// flushed too).
pub fn write_atomic_bytes(path: &Path, content: &[u8]) -> io::Result<()> {
    write_atomic_impl(path, content, &mut |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cellseal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let dir = scratch_dir("atomic");
        let path = dir.join("ckpt-ep000001.json");
        write_atomic_bytes(&path, b"content\n").expect("write");
        assert_eq!(fs::read(&path).expect("read back"), b"content\n");
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file must be renamed away"
        );
        // Overwrite goes through the same path.
        write_atomic_bytes(&path, b"newer\n").expect("overwrite");
        assert_eq!(fs::read(&path).expect("read back"), b"newer\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_runs_the_full_durability_sequence() {
        let dir = scratch_dir("sequence");
        let path = dir.join("ckpt-ep000001.json");
        let mut steps = Vec::new();
        write_atomic_impl(&path, b"content\n", &mut |s| steps.push(s)).expect("write");
        assert_eq!(
            steps,
            [
                AtomicStep::WriteTemp,
                AtomicStep::SyncTemp,
                AtomicStep::Rename,
                AtomicStep::SyncDir,
            ],
            "every durability step must run, in order"
        );
        assert_eq!(fs::read(&path).expect("read back"), b"content\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bare_filenames_fsync_the_current_directory() {
        // A path with no parent component must map to `.` so the rename
        // still gets made durable.
        assert_eq!(fsync_dir_of(Path::new("ckpt.json")), PathBuf::from("."));
        assert_eq!(
            fsync_dir_of(Path::new("store/ckpt.json")),
            PathBuf::from("store")
        );
        assert_eq!(fsync_dir_of(Path::new("/ckpt.json")), PathBuf::from("/"));
        // And the full sequence — including the dir fsync — runs for a
        // bare name (written into the test cwd, then cleaned up).
        let name = Path::new("it-cellseal-bare-name.tmp.json");
        let mut steps = Vec::new();
        write_atomic_impl(name, b"bare\n", &mut |s| steps.push(s)).expect("write bare name");
        assert_eq!(*steps.last().expect("steps recorded"), AtomicStep::SyncDir);
        assert_eq!(fs::read(name).expect("read back"), b"bare\n");
        let _ = fs::remove_file(name);
    }

    #[test]
    fn binary_payloads_roundtrip() {
        let dir = scratch_dir("bytes");
        let path = dir.join("artifact.bin");
        let payload: Vec<u8> = (0..=255u8).collect();
        write_atomic_bytes(&path, &payload).expect("write");
        assert_eq!(fs::read(&path).expect("read back"), payload);
        assert!(!path.with_extension("tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
