//! Artifact generations and the atomic swap that makes reloads
//! zero-downtime.
//!
//! The daemon never mutates a served index. Instead it holds an
//! [`Arc<Generation>`] behind an `RwLock`: lookups take a read lock just
//! long enough to clone the `Arc` (nanoseconds), then run entirely on
//! the immutable [`ArtifactHandle`] snapshot they hold — validated v2
//! bytes, served in place off an mmap or an aligned buffer. A reload
//! validates the candidate artifact *outside* any lock — seal,
//! structure, and version, exactly the checks [`cellserve::Artifact`]
//! performs — and only then takes the write lock for a pointer swap.
//! A corrupt, truncated, newer-version, or CELLSERV v1 candidate (the
//! last refused with a pointer to `cellspot index migrate`) is rejected
//! before the swap point, so the old generation keeps serving
//! untouched; in-flight requests that cloned the old `Arc` finish on it
//! and drop it when done.
//!
//! Generations also carry the content hash of their sealed bytes and an
//! epoch, which together let sealed [`celldelta`] deltas patch the live
//! index in place of a full reload: a delta is accepted only if its
//! base hash matches the serving generation and its epoch advances past
//! the generation's. The patch runs on the generation's own handle —
//! validated and hashed once, when it was installed — and its output is
//! validated in full before it can serve. The same
//! validate-outside-the-lock discipline applies — a wrong-base, stale,
//! or corrupt delta never reaches the swap point.
//!
//! Reloads and deltas share one `install`: the write lock covers the
//! base re-check and the pointer swap, nothing else; the `served.*`
//! gauges are set after it is released.

use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use celldelta::{Delta, DeltaError};
use cellobs::Observer;
use cellserve::{Artifact, ArtifactHandle, ServeError};

use crate::error::ServedError;

/// One immutable, validated artifact generation.
pub struct Generation {
    /// The loaded artifact this generation serves: answers through
    /// [`cellserve::IndexView`] straight out of its sealed v2 bytes,
    /// which are also what deltas chain on.
    pub index: Arc<ArtifactHandle>,
    /// Monotonic generation number, starting at 1 for the boot artifact.
    pub number: u64,
    /// Size of the sealed artifact this generation was loaded from.
    pub artifact_bytes: u64,
    /// FNV-1a 64 content hash of this generation's sealed bytes; a
    /// delta applies only if its base hash equals this value.
    pub artifact_hash: u64,
    /// Epoch of the delta that produced this generation; 0 for a
    /// generation born from a full artifact (boot or full reload).
    pub epoch: u64,
}

/// The daemon's current generation, swappable under live traffic.
pub struct GenerationStore {
    current: RwLock<Arc<Generation>>,
    obs: Observer,
}

impl GenerationStore {
    /// A store serving an already-loaded artifact as generation 1 at
    /// epoch 0.
    pub fn from_handle(handle: ArtifactHandle, obs: Observer) -> Self {
        let gen = Generation {
            number: 1,
            artifact_bytes: handle.source_len(),
            artifact_hash: handle.content_hash(),
            epoch: 0,
            index: Arc::new(handle),
        };
        obs.gauge("served.generation").set(1);
        Self::set_artifact_gauges(&obs, &gen);
        GenerationStore {
            current: RwLock::new(Arc::new(gen)),
            obs,
        }
    }

    /// Open and validate a sealed artifact file into generation 1 —
    /// mmap-backed and near-zero-copy where the platform allows.
    pub fn load(path: &Path, obs: Observer) -> Result<Self, ServedError> {
        let handle = Artifact::open(path)?;
        Ok(Self::from_handle(handle, obs))
    }

    fn set_artifact_gauges(obs: &Observer, gen: &Generation) {
        obs.gauge("served.artifact.hash").set(gen.artifact_hash);
        obs.gauge("served.epoch").set(gen.epoch);
        obs.gauge("served.artifact.copied.bytes")
            .set(gen.index.copied_bytes());
        obs.gauge("served.artifact.mapped")
            .set(u64::from(gen.index.is_mapped()));
    }

    /// The generation serving right now. Callers keep the returned
    /// `Arc` for the duration of one request; a concurrent swap never
    /// invalidates it.
    pub fn current(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().expect("generation lock poisoned"))
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.current().number
    }

    /// Install a validated handle as the next generation — the one
    /// install path: the write lock is held for the pointer swap only,
    /// and the gauges are refreshed after it is released. A delta names
    /// the `base` hash it chained on, which is re-checked under the
    /// lock (a concurrent reload may have swapped underneath, and the
    /// chain rule holds against whatever serves *now*); `Err` carries
    /// the hash serving instead.
    fn install(&self, handle: ArtifactHandle, epoch: u64, base: Option<u64>) -> Result<u64, u64> {
        let gen;
        {
            let mut cur = self.current.write().expect("generation lock poisoned");
            if base.is_some_and(|base| base != cur.artifact_hash) {
                return Err(cur.artifact_hash);
            }
            gen = Arc::new(Generation {
                number: cur.number + 1,
                artifact_bytes: handle.source_len(),
                artifact_hash: handle.content_hash(),
                epoch,
                index: Arc::new(handle),
            });
            *cur = Arc::clone(&gen);
        }
        self.obs.gauge("served.generation").set(gen.number);
        Self::set_artifact_gauges(&self.obs, &gen);
        Ok(gen.number)
    }

    /// Swap a loaded candidate in as the next generation, or count the
    /// load failure as a rejected reload.
    fn reload(&self, loaded: Result<ArtifactHandle, ServeError>) -> Result<u64, ServeError> {
        let handle = loaded.inspect_err(|_| self.obs.counter("served.reload.rejected").inc())?;
        let number = self
            .install(handle, 0, None)
            .expect("a full reload names no base to mismatch");
        self.obs.counter("served.reload.ok").inc();
        Ok(number)
    }

    /// Validate candidate artifact bytes and, on success, atomically
    /// swap them in as the next generation; returns its number. On any
    /// validation failure (broken seal, structural violation past a
    /// forged seal, unsupported version — CELLSERV v1 included) the old
    /// generation keeps serving and the `served.reload.rejected`
    /// counter is bumped.
    pub fn try_swap_bytes(&self, bytes: &[u8]) -> Result<u64, ServeError> {
        // Validate outside the lock: candidate cost never stalls readers.
        self.reload(Artifact::from_bytes(bytes))
    }

    /// [`try_swap_bytes`](Self::try_swap_bytes) from a file, loading
    /// through [`Artifact::open`] so the candidate is mapped rather
    /// than copied; an unreadable or invalid candidate counts as a
    /// rejected reload.
    pub fn try_swap_path(&self, path: &Path) -> Result<u64, ServedError> {
        Ok(self.reload(Artifact::open(path))?)
    }

    /// Validate sealed delta bytes against the live generation and, on
    /// success, swap in the patched artifact as the next generation;
    /// returns its number. A delta is accepted only if its base hash
    /// matches the serving generation's content hash and its epoch
    /// advances past the generation's (a generation born from a full
    /// artifact sits at epoch 0 and accepts any delta that chains on
    /// it). Every failure — broken seal, wrong base, stale epoch, patch
    /// conflict, target-hash mismatch — bumps `served.delta.rejected`
    /// and leaves the old generation serving untouched. An accepted
    /// delta adds its op count to `served.delta.ops` and its wall time,
    /// decode to swap, to the `served.delta.patch.ns` histogram.
    pub fn try_apply_delta_bytes(&self, delta_bytes: &[u8]) -> Result<u64, ServedError> {
        let started = Instant::now();
        let reject = |e: ServedError| {
            self.obs.counter("served.delta.rejected").inc();
            e
        };
        let delta = Delta::from_bytes(delta_bytes).map_err(|e| reject(e.into()))?;
        let cur = self.current();
        if cur.epoch > 0 && delta.epoch <= cur.epoch {
            return Err(reject(ServedError::Delta(DeltaError::StaleEpoch {
                current: cur.epoch,
                delta: delta.epoch,
            })));
        }
        // Patch the view this generation serves — validated when it was
        // installed, its content hash with it — outside any lock;
        // `apply_to_view` checks the base hash before touching anything
        // and the target hash after re-encoding, and the patched bytes
        // are validated in full before they can serve.
        let patched = celldelta::apply_to_view(&cur.index, &delta).map_err(|e| reject(e.into()))?;
        let handle = Artifact::from_bytes(&patched).map_err(|e| reject(e.into()))?;
        let number = self
            .install(handle, delta.epoch, Some(delta.base_hash))
            .map_err(|artifact| {
                reject(ServedError::Delta(DeltaError::BaseMismatch {
                    delta_base: delta.base_hash,
                    artifact,
                }))
            })?;
        self.obs.counter("served.delta.ok").inc();
        let ops = delta.op_count() as u64;
        self.obs.counter("served.delta.ops").add(ops);
        let patch_ns = started.elapsed().as_nanos() as u64;
        self.obs.histogram("served.delta.patch.ns").record(patch_ns);
        Ok(number)
    }

    /// [`try_apply_delta_bytes`](Self::try_apply_delta_bytes) from a
    /// file; an unreadable candidate also counts as a rejected delta.
    pub fn try_apply_delta_path(&self, path: &Path) -> Result<u64, ServedError> {
        let bytes = std::fs::read(path).map_err(|e| {
            self.obs.counter("served.delta.rejected").inc();
            ServedError::Io(e)
        })?;
        self.try_apply_delta_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellserve::{
        ArtifactFormat, AsClass, FrozenIndex, IndexView, ServeLabel, ARTIFACT_V2_VERSION,
    };
    use netaddr::Asn;

    fn index(asn: u32) -> FrozenIndex {
        let mut b = FrozenIndex::builder();
        b.insert_v4(
            "10.0.0.0/8".parse().expect("cidr"),
            ServeLabel {
                asn: Asn(asn),
                class: AsClass::Dedicated,
            },
        );
        b.build()
    }

    fn sealed(asn: u32) -> Vec<u8> {
        Artifact::encode(&index(asn), ArtifactFormat::V2)
    }

    /// A store serving `index(1)` as generation 1.
    fn store(obs: &Observer) -> GenerationStore {
        let handle = Artifact::from_bytes(&sealed(1)).expect("just-encoded artifact validates");
        GenerationStore::from_handle(handle, obs.clone())
    }

    #[test]
    fn swap_replaces_the_generation_and_counts() {
        let obs = Observer::enabled();
        let store = store(&obs);
        assert_eq!(store.generation(), 1);
        let held = store.current();

        let n = store
            .try_swap_bytes(&sealed(2))
            .expect("valid candidate swaps");
        assert_eq!(n, 2);
        assert_eq!(store.generation(), 2);
        // The generation held across the swap still answers, unchanged.
        let (_, label) = held.index.lookup_v4(0x0A000001).expect("old gen serves");
        assert_eq!(label.asn, Asn(1));
        let (_, label) = store
            .current()
            .index
            .lookup_v4(0x0A000001)
            .expect("new gen serves");
        assert_eq!(label.asn, Asn(2));
        assert_eq!(obs.snapshot().counters["served.reload.ok"], 1);
    }

    #[test]
    fn v1_candidates_are_refused_with_the_migrate_hint() {
        let obs = Observer::enabled();
        let store = store(&obs);
        let v1 = Artifact::encode(&index(3), ArtifactFormat::V1);
        let err = store.try_swap_bytes(&v1).expect_err("v1 candidate");
        assert_eq!(err, ServeError::UnsupportedVersion(1));
        assert!(err.to_string().contains("cellspot index migrate"), "{err}");

        assert_eq!(store.generation(), 1, "generation 1 keeps serving");
        let (_, label) = store.current().index.lookup_v4(0x0A000001).expect("serves");
        assert_eq!(label.asn, Asn(1));
        let snap = obs.snapshot();
        assert_eq!(snap.counters["served.reload.rejected"], 1);
        assert!(!snap.counters.contains_key("served.reload.ok"));
    }

    #[test]
    fn rejected_candidates_leave_the_old_generation() {
        let obs = Observer::enabled();
        let store = store(&obs);

        let mut corrupt = sealed(2);
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(store.try_swap_bytes(&corrupt).is_err());

        // Candidate claiming a version newer than any this build can
        // serve, re-sealed so only the version check can reject it.
        let mut newer = sealed(2);
        let v = ARTIFACT_V2_VERSION + 1;
        newer[8..12].copy_from_slice(&v.to_le_bytes());
        cellseal::reseal(&mut newer);
        assert_eq!(
            store.try_swap_bytes(&newer),
            Err(ServeError::UnsupportedVersion(v))
        );

        assert_eq!(store.generation(), 1, "both rejections left gen 1");
        let (_, label) = store.current().index.lookup_v4(0x0A000001).expect("serves");
        assert_eq!(label.asn, Asn(1));
        let snap = obs.snapshot();
        assert_eq!(snap.counters["served.reload.rejected"], 2);
        assert!(!snap.counters.contains_key("served.reload.ok"));
    }

    #[test]
    fn deltas_patch_the_live_generation() {
        let obs = Observer::enabled();
        let store = store(&obs);
        let base = sealed(1);
        let target = sealed(2);
        let delta = celldelta::build_delta(&base, &target, 0, 1).expect("build");

        let n = store
            .try_apply_delta_bytes(&delta)
            .expect("chained delta applies");
        assert_eq!(n, 2);
        let cur = store.current();
        assert_eq!(cur.epoch, 1);
        assert_eq!(cur.artifact_hash, cellserve::content_hash(&target));
        let (_, label) = cur.index.lookup_v4(0x0A000001).expect("patched gen serves");
        assert_eq!(label.asn, Asn(2));
        // Patching the served view and patching the bytes are one path.
        let offline = celldelta::apply_delta(&base, &delta).expect("apply");
        assert_eq!(cur.index.sealed_bytes(), &offline[..]);
        assert_eq!(cur.artifact_bytes, offline.len() as u64);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["served.delta.ok"], 1);
        assert_eq!(snap.counters["served.delta.ops"], 1);
        assert_eq!(snap.histograms["served.delta.patch.ns"].count, 1);
        assert_eq!(snap.gauges["served.epoch"], 1);
        assert_eq!(snap.gauges["served.generation"], 2);
        assert_eq!(snap.gauges["served.artifact.hash"], cur.artifact_hash);

        // Replaying the same delta is stale: epoch 1 does not advance
        // past the live epoch 1, and its base no longer chains anyway.
        assert!(matches!(
            store.try_apply_delta_bytes(&delta),
            Err(ServedError::Delta(DeltaError::StaleEpoch { .. }))
        ));
        assert_eq!(store.generation(), 2);
    }

    #[test]
    fn wrong_base_and_corrupt_deltas_are_rejected() {
        let obs = Observer::enabled();
        let store = store(&obs);
        let base = sealed(1);
        let other = sealed(7);
        let target = sealed(2);

        // Chains on index(7), not the serving index(1).
        let wrong_base = celldelta::build_delta(&other, &target, 0, 1).expect("build");
        assert!(matches!(
            store.try_apply_delta_bytes(&wrong_base),
            Err(ServedError::Delta(DeltaError::BaseMismatch { .. }))
        ));

        // A bit flip anywhere breaks the seal or the chain.
        let mut corrupt = celldelta::build_delta(&base, &target, 0, 1).expect("build");
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x20;
        assert!(store.try_apply_delta_bytes(&corrupt).is_err());

        assert_eq!(store.generation(), 1, "all rejections left gen 1");
        let (_, label) = store.current().index.lookup_v4(0x0A000001).expect("serves");
        assert_eq!(label.asn, Asn(1));
        let snap = obs.snapshot();
        assert_eq!(snap.counters["served.delta.rejected"], 2);
        assert!(!snap.counters.contains_key("served.delta.ok"));
        assert!(!snap.counters.contains_key("served.delta.ops"));
        assert!(!snap.histograms.contains_key("served.delta.patch.ns"));
    }
}
