//! File-path watchers for zero-downtime reload and delta hot-patching.
//!
//! A dedicated thread polls the watched path in two stages. Stage one
//! is a bare `stat`: while the `(mtime, size)` pair is unchanged the
//! poll costs one syscall and nothing more. Only when the stat moves
//! does stage two read a content fingerprint —
//! [`cellserve::Artifact::quick_fingerprint`], a 64-byte header read
//! for v2 artifacts, a full-content hash otherwise. A republished but
//! byte-identical file (same fingerprint, new mtime) is *not* offered
//! for reload; the `<name>.polls.skipped` counter records each such
//! short-circuit so operators can see republish churn that never
//! touches the serving generation.
//!
//! When the content fingerprint does change — the publisher is expected
//! to use `cellseal::write_atomic_bytes`, so a change is a whole new
//! file, never a partial write — the candidate is offered to the
//! [`GenerationStore`](crate::GenerationStore), which validates it
//! fully (full-artifact swap for the reload watcher, base-hash-chained
//! delta apply for the delta watcher) before touching the live
//! generation. The fingerprint is remembered after *every* attempt,
//! successful or rejected, so a corrupt candidate is tried once instead
//! of on every poll; the old generation keeps serving either way.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use cellobs::Observer;
use cellserve::Artifact;

/// Two-stage change detector for the watched file: a cheap stat pair
/// gating a content fingerprint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Fingerprint {
    stat: (SystemTime, u64),
    content: u64,
}

pub(crate) fn stat_of(path: &Path) -> Option<(SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

/// The full two-stage fingerprint: stat plus content hash. `None` when
/// the file is missing or unreadable.
pub(crate) fn fingerprint(path: &Path) -> Option<Fingerprint> {
    let stat = stat_of(path)?;
    let content = Artifact::quick_fingerprint(path).ok()?;
    Some(Fingerprint { stat, content })
}

/// What one watcher polls, and under which names.
pub(crate) struct Watch {
    /// The polling thread's name.
    pub name: &'static str,
    /// The observer prefix (`served.reload` / `served.delta`) under
    /// which the `.polls.skipped` counter is kept.
    pub metric: &'static str,
    /// The watched file.
    pub path: PathBuf,
    /// Time between polls.
    pub poll: Duration,
    /// The file's fingerprint when the watch starts, if it has one.
    pub initial: Option<Fingerprint>,
}

/// Spawn the polling thread for `watch`, calling `on_change` with the
/// path whenever the file's bytes change.
pub(crate) fn spawn_watcher<F>(
    watch: Watch,
    obs: Observer,
    on_change: F,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<JoinHandle<()>>
where
    F: Fn(&Path) + Send + 'static,
{
    let Watch {
        name,
        metric,
        path,
        poll,
        initial,
    } = watch;
    let skip_counter = format!("{metric}.polls.skipped");
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            let mut last = initial;
            while !shutdown.load(Ordering::SeqCst) {
                sleep_with_cancel(poll, &shutdown);
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Stage one: while the stat pair is unchanged, the poll
                // ends here without touching file contents.
                let Some(stat) = stat_of(&path) else { continue };
                if last.map(|f| f.stat) == Some(stat) {
                    continue;
                }
                // Stage two: the stat moved; read the content
                // fingerprint (header-only for v2) to decide whether
                // the bytes actually changed.
                let Ok(content) = Artifact::quick_fingerprint(&path) else {
                    // Unreadable mid-publish; retry on the next poll.
                    continue;
                };
                let now = Fingerprint { stat, content };
                if last.map(|f| f.content) == Some(content) {
                    // Republished byte-identical file: remember the new
                    // stat, skip the reload entirely.
                    obs.counter(&skip_counter).inc();
                    last = Some(now);
                    continue;
                }
                last = Some(now);
                // Rejections already count via the store; a vanished
                // or unreadable file likewise leaves the old
                // generation serving.
                on_change(&path);
            }
        })
}

/// Sleep `total`, waking early (within ~20 ms) if `shutdown` is set.
fn sleep_with_cancel(total: Duration, shutdown: &AtomicBool) {
    let deadline = Instant::now() + total;
    while !shutdown.load(Ordering::SeqCst) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        std::thread::sleep(left.min(Duration::from_millis(20)));
    }
}
