//! What the read-side workloads are set up with: a generated world
//! classified, frozen, sealed to a file and opened the way a serving
//! process boots — each step one span around one public call.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cellload::{AnswerDigest, Preset, Trace, TraceSpec, Universe};
use cellserve::{
    Artifact, ArtifactFormat, ArtifactHandle, FrozenIndex, IndexView, IpKey, LookupMatch,
    ServeLabel,
};
use cellspot::Pipeline;
use netaddr::DualPrefixTrie;
use worldgen::{World, WorldConfig};

use crate::trace::Tracer;

/// A per-process scratch directory beside the benchmark's executable
/// (so inside the checkout's build directory), removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create the directory.
    pub fn create() -> Result<WorkDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join("cellbench-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A fresh file path inside the directory.
    pub fn file(&self, stem: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        self.0
            .join(format!("{stem}-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// World seed and trace seed, both derived from the run's `--seed`.
pub fn derive_seeds(seed: u64) -> (u64, u64) {
    (
        worldgen::sampling::split_seed(seed, 1),
        worldgen::sampling::split_seed(seed, 2),
    )
}

/// A sealed artifact on disk and the handle opened from it.
pub struct Served {
    /// Where the sealed artifact was written.
    pub path: PathBuf,
    /// The opened (mmapped, for v2) handle.
    pub handle: ArtifactHandle,
}

/// Seal `index` in the v2 format.
pub fn seal(index: &FrozenIndex) -> Vec<u8> {
    Artifact::encode(index, ArtifactFormat::V2)
}

/// Encode, write and open `index`, one span per step.
pub fn publish(
    index: &FrozenIndex,
    dir: &WorkDir,
    tracer: &mut Tracer,
    run: u64,
) -> Result<Served, String> {
    let (bytes, _) = tracer.time("cellserve.artifact.encode", run, || seal(index));
    let path = dir.file("index.cellserv");
    let (written, _) = tracer.time("harness.write_artifact", run, || {
        std::fs::write(&path, &bytes)
    });
    written.map_err(|e| format!("{}: {e}", path.display()))?;
    let (opened, _) = tracer.time("cellserve.artifact.open", run, || Artifact::open(&path));
    let handle = opened.map_err(|e| format!("open {}: {e}", path.display()))?;
    Ok(Served { path, handle })
}

/// World → datasets → classify → freeze → [`publish`].
pub fn build_served(
    cfg: WorldConfig,
    dir: &WorkDir,
    tracer: &mut Tracer,
    run: u64,
) -> Result<Served, String> {
    let (world, _) = tracer.time("worldgen.generate", run, || World::generate(cfg));
    let ((beacons, demand), _) =
        tracer.time("cdnsim.datasets", run, || cdnsim::generate_datasets(&world));
    let (classified, _) = tracer.time("cellspot.classify", run, || {
        Pipeline::new(&beacons, &demand).classify()
    });
    let (_, class) = classified.map_err(|e| format!("classify: {e}"))?;
    let (frozen, _) = tracer.time("cellserve.frozen.build", run, || {
        FrozenIndex::from_classification(&class, None)
    });
    publish(&frozen, dir, tracer, run)
}

/// Generate a single-segment trace over the blocks `handle` serves.
pub fn generate_trace(
    handle: &ArtifactHandle,
    preset: Preset,
    seed: u64,
    queries: usize,
    tracer: &mut Tracer,
    run: u64,
) -> Trace {
    let (trace, _) = tracer.time("cellload.trace.gen", run, || {
        let universe = Universe::from_view(handle);
        TraceSpec {
            preset,
            seed,
            queries,
            epochs: 1,
        }
        .generate(std::slice::from_ref(&universe))
    });
    trace
}

/// The queries of a single-segment trace.
pub fn queries_of(trace: &Trace) -> &[IpKey] {
    &trace.segments[0].queries
}

/// Fold engine answers into the transport-independent answer digest.
pub fn digest_engine(answers: &[Option<LookupMatch>]) -> u64 {
    let mut digest = AnswerDigest::new();
    for a in answers {
        digest.push(cellload::replay::normalize_engine(a));
    }
    digest.value()
}

/// The correctness oracle: a reference trie built from what the view
/// says it serves (`for_each_v4` / `for_each_v6`) must answer every
/// query exactly as the engine did — same matched prefix, same label.
pub fn check_against_reference<V: IndexView + ?Sized>(
    view: &V,
    queries: &[IpKey],
    answers: &[Option<LookupMatch>],
) -> Result<(), String> {
    if answers.len() != queries.len() {
        return Err(format!(
            "oracle: {} answers for {} queries",
            answers.len(),
            queries.len()
        ));
    }
    let mut reference: DualPrefixTrie<ServeLabel> = DualPrefixTrie::new();
    view.for_each_v4(&mut |net, label| {
        reference.insert_v4(net, label);
    });
    view.for_each_v6(&mut |net, label| {
        reference.insert_v6(net, label);
    });
    if reference.len() != view.len() {
        return Err(format!(
            "oracle: view lists {} prefixes but reports {}",
            reference.len(),
            view.len()
        ));
    }
    for (i, (query, got)) in queries.iter().zip(answers).enumerate() {
        let want = match *query {
            IpKey::V4(a) => reference
                .lookup_v4(a)
                .map(|(net, label)| (cellserve::MatchedPrefix::V4(net), *label)),
            IpKey::V6(a) => reference
                .lookup_v6(a)
                .map(|(net, label)| (cellserve::MatchedPrefix::V6(net), *label)),
        };
        let got = got.map(|m| (m.prefix, m.label));
        if got != want {
            return Err(format!(
                "oracle: query {i} ({query}) answered {got:?}, the reference trie says {want:?}"
            ));
        }
    }
    Ok(())
}

/// Remove a file, ignoring a failure (the work directory is removed at
/// exit anyway).
pub fn discard(path: &Path) {
    let _ = std::fs::remove_file(path);
}
