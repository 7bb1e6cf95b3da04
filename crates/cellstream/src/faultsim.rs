//! Deterministic fault injection for the streaming ingest path.
//!
//! A [`FaultPlan`] is a list of faults, read from JSON, pinned to exact
//! stream offsets — "crash the process after 500 events of epoch 3",
//! "flip two bits in the epoch-4 checkpoint" — so a chaos run is fully
//! reproducible from `(world seed, fault plan)` alone: no wall clocks,
//! no OS scheduling, no randomness outside the plan's own seed.
//!
//! One [`FaultInjector`] drives every seam at once. It implements
//! [`cdnsim::EpochGate`] (source stalls/failures, consulted by
//! [`EventSource::try_epoch`]) and [`IngestObserver`] (shard kills and
//! process crashes, consulted before every fold), and tampers with
//! checkpoint files after they are written ([`FaultInjector::tamper_checkpoint`]).
//! Each fault fires exactly once (stalls fire their configured count),
//! so recovery replays cannot re-trigger the fault that necessitated
//! them.
//!
//! [`run_chaos`] is the supervisor loop the `stream --fault-plan` CLI
//! and the chaos test suite share: ingest epochs, checkpoint each
//! boundary through a [`CheckpointStore`], and on every injected
//! failure do what a production operator would — retry stalled epochs,
//! rebuild killed shards from the last good checkpoint plus a replay of
//! the missing epoch slice, restart crashed processes from disk. The
//! chaos suite asserts the result is byte-identical to a fault-free run.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

use cdnsim::{EpochGate, EventSource, SourceError, SourceErrorKind};
use cellobs::json::Json;

use crate::engine::{
    FoldAction, IngestEngine, IngestError, IngestObserver, ResolverMap, StreamConfig,
};
use crate::hll::mix64;
use crate::integrity::{CheckpointStore, RecoveryOutcome};

/// One injected fault, pinned to a deterministic stream offset.
///
/// Event counts are *within-epoch* offsets counted before the triggering
/// event, so `after_events: 0` fires before the first event (an epoch
/// boundary) and `after_events: n` fires once `n` events were counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Kill the whole process mid-epoch: the epoch does not complete and
    /// a restart must restore from the last good checkpoint.
    Crash {
        /// Epoch the crash hits.
        epoch: u32,
        /// Fire once this many events of the epoch were processed
        /// (across all shards).
        after_events: u64,
    },
    /// Kill one shard's worker mid-epoch: the other shards finish the
    /// epoch and only this shard must be rebuilt.
    ShardKill {
        /// Epoch the kill hits.
        epoch: u32,
        /// The shard to poison.
        shard: u32,
        /// Fire once this shard folded this many events of the epoch.
        after_events: u64,
    },
    /// Truncate the checkpoint file written after `epoch` epochs
    /// completed, simulating a torn write the atomic path cannot cause
    /// but a dying disk can.
    TruncateCheckpoint {
        /// `epochs_done` of the checkpoint file to tamper with.
        epoch: u32,
        /// Bytes to keep from the front of the file.
        keep_bytes: u64,
    },
    /// Flip bits in the checkpoint file written after `epoch` epochs
    /// completed. Offsets derive from the plan seed, so the same plan
    /// always corrupts the same bytes.
    FlipCheckpointBytes {
        /// `epochs_done` of the checkpoint file to tamper with.
        epoch: u32,
        /// Number of single-bit flips to apply.
        flips: u32,
    },
    /// Stall the event source at an epoch: serving it fails transiently
    /// this many times, then succeeds.
    SourceStall {
        /// Epoch the stall hits.
        epoch: u32,
        /// Failures before the source recovers.
        times: u32,
    },
    /// Fail the event source at an epoch permanently: the run cannot
    /// finish and must surface a clean error.
    SourceFail {
        /// Epoch the failure hits.
        epoch: u32,
    },
}

/// A reproducible chaos scenario: a seed (drives bit-flip offsets) plus
/// the faults to inject. Read from JSON for the `stream --fault-plan`
/// CLI flag, each fault an object keyed by its kind:
/// `{"seed":9,"faults":[{"Crash":{"epoch":2,"after_events":100}}]}`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for fault-internal randomness (checkpoint bit-flip offsets).
    pub seed: u64,
    /// The faults, in any order; each is matched by its own trigger.
    pub faults: Vec<Fault>,
}

const U32: u64 = u32::MAX as u64;

/// The members of the object `value`, which must be exactly `keys`.
fn members<'a, const N: usize>(
    value: &'a Json,
    what: &str,
    keys: [&str; N],
) -> Result<[&'a Json; N], String> {
    let Json::Obj(object) = value else {
        return Err(format!("{what}: expected an object, got {value}"));
    };
    if let Some((unknown, _)) = object.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        let expected = keys.join(", ");
        return Err(format!(
            "{what}: unknown field {unknown:?} (expected {expected})"
        ));
    }
    if let Some(missing) = keys.iter().find(|key| value[**key] == Json::Null) {
        return Err(format!("{what}: missing field {missing:?}"));
    }
    Ok(keys.map(|key| &value[key]))
}

/// `value` as the integer field `key`, at most `max`.
fn uint(value: &Json, what: &str, key: &str, max: u64) -> Result<u64, String> {
    match value {
        Json::Int(n) if *n <= max => Ok(*n),
        _ => Err(format!(
            "{what}: field {key:?} must be an integer in 0..={max}, got {value}"
        )),
    }
}

/// The fields `keys` of the fault body `body`, each with its maximum;
/// every field of every fault is an unsigned integer.
fn fields<const N: usize>(
    body: &Json,
    kind: &str,
    keys: [(&str, u64); N],
) -> Result<[u64; N], String> {
    let values = members(body, kind, keys.map(|(key, _)| key))?;
    let mut out = [0; N];
    for ((slot, value), (key, max)) in out.iter_mut().zip(values).zip(keys) {
        *slot = uint(value, kind, key, max)?;
    }
    Ok(out)
}

impl Fault {
    /// One fault from its externally tagged form, `{"<Kind>": {fields}}`.
    fn from_json(value: &Json) -> Result<Fault, String> {
        let Json::Obj(tagged) = value else {
            return Err(format!("expected an object, got {value}"));
        };
        let [(kind, body)] = tagged.as_slice() else {
            return Err(format!("expected one key, the fault kind, got {value}"));
        };
        Ok(match kind.as_str() {
            "Crash" => {
                let [epoch, after_events] =
                    fields(body, kind, [("epoch", U32), ("after_events", u64::MAX)])?;
                Fault::Crash {
                    epoch: epoch as u32,
                    after_events,
                }
            }
            "ShardKill" => {
                let [epoch, shard, after_events] = fields(
                    body,
                    kind,
                    [("epoch", U32), ("shard", U32), ("after_events", u64::MAX)],
                )?;
                Fault::ShardKill {
                    epoch: epoch as u32,
                    shard: shard as u32,
                    after_events,
                }
            }
            "TruncateCheckpoint" => {
                let [epoch, keep_bytes] =
                    fields(body, kind, [("epoch", U32), ("keep_bytes", u64::MAX)])?;
                Fault::TruncateCheckpoint {
                    epoch: epoch as u32,
                    keep_bytes,
                }
            }
            "FlipCheckpointBytes" => {
                let [epoch, flips] = fields(body, kind, [("epoch", U32), ("flips", U32)])?;
                Fault::FlipCheckpointBytes {
                    epoch: epoch as u32,
                    flips: flips as u32,
                }
            }
            "SourceStall" => {
                let [epoch, times] = fields(body, kind, [("epoch", U32), ("times", U32)])?;
                Fault::SourceStall {
                    epoch: epoch as u32,
                    times: times as u32,
                }
            }
            "SourceFail" => {
                let [epoch] = fields(body, kind, [("epoch", U32)])?;
                Fault::SourceFail {
                    epoch: epoch as u32,
                }
            }
            other => return Err(format!("unknown fault kind {other:?}")),
        })
    }
}

impl FaultPlan {
    /// Parse a plan from JSON, strictly: an unknown fault kind, an
    /// unknown, duplicate or missing field, or an integer out of its
    /// field's range is an error naming the offender — a misspelt plan
    /// must not run as a different scenario.
    pub fn from_json(json: &str) -> io::Result<Self> {
        let parse = || -> Result<FaultPlan, String> {
            let doc = Json::parse(json)?;
            let [seed, faults] = members(&doc, "fault plan", ["seed", "faults"])?;
            let seed = uint(seed, "fault plan", "seed", u64::MAX)?;
            let Json::Arr(faults) = faults else {
                return Err(format!(
                    "fault plan: field \"faults\" must be an array, got {faults}"
                ));
            };
            let faults = faults
                .iter()
                .enumerate()
                .map(|(i, fault)| Fault::from_json(fault).map_err(|e| format!("fault {i}: {e}")))
                .collect::<Result<_, _>>()?;
            Ok(FaultPlan { seed, faults })
        };
        parse().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Load a plan from a JSON file.
    pub fn read_from(path: &Path) -> io::Result<Self> {
        Self::from_json(&fs::read_to_string(path)?)
    }
}

/// Per-fault progress: how many times each fault has fired.
struct InjectorState {
    fired: Vec<u32>,
    log: Vec<String>,
}

/// Executes a [`FaultPlan`] across every injection seam. Interior
/// mutability lets one `Arc<FaultInjector>` serve as both the source's
/// [`EpochGate`] and the engine's [`IngestObserver`].
pub struct FaultInjector {
    plan: FaultPlan,
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    /// An injector that will execute `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = vec![0u32; plan.faults.len()];
        FaultInjector {
            plan,
            state: Mutex::new(InjectorState {
                fired,
                log: Vec::new(),
            }),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Lock the injector state, recovering from a poisoned mutex. A
    /// shard panicking while the injector is held is exactly the kind
    /// of fault this module *simulates*, and the state behind the lock
    /// (fire counts plus a log) is updated one field at a time with no
    /// cross-field invariant a mid-update panic could break — so poison
    /// here carries no information and recovery is always safe. The
    /// previous `.expect("injector mutex poisoned")` turned a simulated
    /// shard death into a real supervisor panic.
    fn state(&self) -> MutexGuard<'_, InjectorState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drain the injection log (one line per fault fired since the last
    /// drain).
    pub fn drain_log(&self) -> Vec<String> {
        std::mem::take(&mut self.state().log)
    }

    /// Apply any pending checkpoint-tampering faults to the file at
    /// `path` (the checkpoint written after `epochs_done` epochs).
    /// Returns the number of faults applied. Tampering writes directly —
    /// not atomically — because it *simulates* torn writes and bit rot.
    pub fn tamper_checkpoint(&self, epochs_done: u32, path: &Path) -> io::Result<u32> {
        let mut st = self.state();
        let mut applied = 0u32;
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if st.fired[i] > 0 {
                continue;
            }
            match *fault {
                Fault::TruncateCheckpoint { epoch, keep_bytes } if epoch == epochs_done => {
                    let mut bytes = fs::read(path)?;
                    bytes.truncate(keep_bytes.min(bytes.len() as u64) as usize);
                    fs::write(path, &bytes)?;
                    st.fired[i] = 1;
                    st.log.push(format!(
                        "truncated checkpoint {} to {} bytes",
                        path.display(),
                        keep_bytes
                    ));
                    applied += 1;
                }
                Fault::FlipCheckpointBytes { epoch, flips } if epoch == epochs_done => {
                    let mut bytes = fs::read(path)?;
                    if !bytes.is_empty() {
                        for k in 0..flips {
                            let h = mix64(self.plan.seed ^ ((epoch as u64) << 32) ^ (k as u64));
                            let off = (h % bytes.len() as u64) as usize;
                            bytes[off] ^= 1u8 << ((h >> 61) as u32 % 8);
                        }
                        fs::write(path, &bytes)?;
                    }
                    st.fired[i] = 1;
                    st.log.push(format!(
                        "flipped {} bit(s) in checkpoint {}",
                        flips,
                        path.display()
                    ));
                    applied += 1;
                }
                _ => {}
            }
        }
        Ok(applied)
    }
}

impl EpochGate for FaultInjector {
    fn check(&self, epoch: u32) -> Result<(), SourceError> {
        let mut st = self.state();
        for (i, fault) in self.plan.faults.iter().enumerate() {
            match *fault {
                Fault::SourceStall { epoch: e, times } if e == epoch && st.fired[i] < times => {
                    st.fired[i] += 1;
                    let left = times - st.fired[i];
                    st.log
                        .push(format!("source stalled at epoch {epoch} ({left} left)"));
                    return Err(SourceError {
                        epoch,
                        kind: SourceErrorKind::Stall,
                    });
                }
                Fault::SourceFail { epoch: e } if e == epoch => {
                    if st.fired[i] == 0 {
                        st.fired[i] = 1;
                        st.log.push(format!("source failed at epoch {epoch}"));
                    }
                    return Err(SourceError {
                        epoch,
                        kind: SourceErrorKind::Failed,
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl IngestObserver for FaultInjector {
    fn before_apply(
        &self,
        epoch: u32,
        shard: u32,
        epoch_events: u64,
        shard_events: u64,
    ) -> FoldAction {
        let mut st = self.state();
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if st.fired[i] > 0 {
                continue;
            }
            match *fault {
                Fault::Crash {
                    epoch: e,
                    after_events,
                } if e == epoch && epoch_events >= after_events => {
                    st.fired[i] = 1;
                    st.log.push(format!(
                        "crashed process at epoch {epoch} after {epoch_events} events"
                    ));
                    return FoldAction::CrashProcess;
                }
                Fault::ShardKill {
                    epoch: e,
                    shard: s,
                    after_events,
                } if e == epoch && s == shard && shard_events >= after_events => {
                    st.fired[i] = 1;
                    st.log.push(format!(
                        "killed shard {shard} at epoch {epoch} after {shard_events} shard events"
                    ));
                    return FoldAction::KillShard;
                }
                _ => {}
            }
        }
        FoldAction::Continue
    }
}

/// Counters a chaos run reports alongside its outputs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Simulated process crashes survived.
    pub crashes: u32,
    /// Process restarts performed (equals `crashes` unless restarts ran
    /// out).
    pub restarts: u32,
    /// Shards rebuilt after an injected panic.
    pub shard_recoveries: u32,
    /// Total epochs replayed across all shard recoveries.
    pub replayed_epochs: u32,
    /// Transient source stalls retried.
    pub stalls: u32,
    /// Checkpoint files rejected by integrity or schema verification
    /// (counted per recovery scan, so a corrupt file left on disk counts
    /// each time it is skipped over).
    pub checkpoints_rejected: u32,
    /// Human-readable event log, in order.
    pub log: Vec<String>,
}

/// Why a chaos run could not complete.
#[derive(Debug)]
pub enum ChaosError {
    /// The engine reported an unrecoverable ingest error (e.g. a
    /// permanent source failure).
    Ingest(IngestError),
    /// Checkpoint I/O failed for real (not an injected corruption).
    Io(io::Error),
    /// The run crashed more times than the restart budget allows.
    RestartsExhausted {
        /// The budget that was exceeded.
        limit: u32,
    },
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Ingest(e) => write!(f, "ingest failed: {e}"),
            ChaosError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            ChaosError::RestartsExhausted { limit } => {
                write!(f, "gave up after {limit} restarts")
            }
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<io::Error> for ChaosError {
    fn from(e: io::Error) -> Self {
        ChaosError::Io(e)
    }
}

impl From<IngestError> for ChaosError {
    fn from(e: IngestError) -> Self {
        ChaosError::Ingest(e)
    }
}

fn note_rejected(report: &mut ChaosReport, outcome: &RecoveryOutcome) {
    for (path, why) in &outcome.skipped {
        report.checkpoints_rejected += 1;
        report
            .log
            .push(format!("rejected checkpoint {}: {why}", path.display()));
    }
}

/// Run a full stream under fault injection, surviving everything the
/// plan throws at it (except permanent source failures and an exhausted
/// restart budget).
///
/// The supervisor loop mirrors a production deployment:
///
/// * each completed epoch is checkpointed through `store` (then handed
///   to the injector, which may tamper with the file);
/// * a transient source stall retries the same epoch;
/// * a shard panic rebuilds the dead shard from the newest checkpoint
///   that verifies (or from scratch when none does) plus a replay of the
///   missing epochs, then continues — the epoch itself already completed
///   for the healthy shards;
/// * a process crash drops the engine and restarts from the newest good
///   checkpoint, at most `max_restarts` times.
///
/// Pass a `source` gated on the same injector
/// ([`EventSource::with_gate`]) so source faults actually fire. The
/// returned engine finished every epoch; the chaos test suite asserts
/// its state is byte-identical to a fault-free run's.
pub fn run_chaos(
    source: &EventSource<'_>,
    cfg: StreamConfig,
    resolvers: &ResolverMap,
    store: &CheckpointStore,
    injector: &FaultInjector,
    max_restarts: u32,
) -> Result<(IngestEngine, ChaosReport), ChaosError> {
    run_chaos_observed(
        source,
        cfg,
        resolvers,
        store,
        injector,
        max_restarts,
        &cellobs::Observer::disabled(),
    )
}

/// [`run_chaos`] with observability: every engine the supervisor builds
/// (initial, restarted) reports into `obs`, and the final
/// [`ChaosReport`]'s fault-trip totals land in `stream.faults.*`
/// counters. Trip counters are a function of `(stream, fault plan)`
/// alone, so they stay byte-identical across thread counts.
#[allow(clippy::too_many_arguments)]
pub fn run_chaos_observed(
    source: &EventSource<'_>,
    cfg: StreamConfig,
    resolvers: &ResolverMap,
    store: &CheckpointStore,
    injector: &FaultInjector,
    max_restarts: u32,
    obs: &cellobs::Observer,
) -> Result<(IngestEngine, ChaosReport), ChaosError> {
    let result = run_chaos_inner(source, cfg, resolvers, store, injector, max_restarts, obs);
    if let (Ok((_, report)), true) = (&result, obs.is_enabled()) {
        obs.counter("stream.faults.crashes")
            .add(report.crashes as u64);
        obs.counter("stream.faults.restarts")
            .add(report.restarts as u64);
        obs.counter("stream.faults.stalls")
            .add(report.stalls as u64);
        obs.counter("stream.faults.checkpoints_rejected")
            .add(report.checkpoints_rejected as u64);
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn run_chaos_inner(
    source: &EventSource<'_>,
    cfg: StreamConfig,
    resolvers: &ResolverMap,
    store: &CheckpointStore,
    injector: &FaultInjector,
    max_restarts: u32,
    obs: &cellobs::Observer,
) -> Result<(IngestEngine, ChaosReport), ChaosError> {
    let mut report = ChaosReport::default();
    'restart: loop {
        let recovered = store.load_latest_good()?;
        note_rejected(&mut report, &recovered);
        let mut engine = match &recovered.snapshot {
            Some((snap, path)) => {
                report.log.push(format!("restored from {}", path.display()));
                IngestEngine::try_restore(snap, resolvers.clone())?
            }
            None => IngestEngine::try_for_source(cfg, source, resolvers.clone())?,
        };
        engine.set_observer(obs.clone());
        while !engine.finished() {
            match engine.try_ingest_epoch(source, Some(injector)) {
                Ok(_) => {}
                Err(IngestError::Source(e)) if e.kind == SourceErrorKind::Stall => {
                    report.stalls += 1;
                    report.log.extend(injector.drain_log());
                    continue;
                }
                Err(IngestError::ShardPanic { .. }) => {
                    report.log.extend(injector.drain_log());
                    // Several shards can die in one epoch; recover all of
                    // them before checkpointing (a checkpoint of poisoned
                    // state would corrupt the recovery chain).
                    while let Some(shard) = engine.poisoned_shards().first().copied() {
                        let rec = store.load_latest_good()?;
                        note_rejected(&mut report, &rec);
                        let base = rec.snapshot.as_ref().map(|(s, _)| s);
                        let replayed = engine.recover_shard(shard, base, source)?;
                        report.shard_recoveries += 1;
                        report.replayed_epochs += replayed;
                        report.log.push(format!(
                            "recovered shard {shard} (replayed {replayed} epoch(s))"
                        ));
                    }
                }
                Err(IngestError::Crashed { epoch }) => {
                    report.crashes += 1;
                    report.restarts += 1;
                    report.log.extend(injector.drain_log());
                    if report.restarts > max_restarts {
                        return Err(ChaosError::RestartsExhausted {
                            limit: max_restarts,
                        });
                    }
                    report
                        .log
                        .push(format!("restarting after crash in epoch {epoch}"));
                    continue 'restart;
                }
                Err(e) => return Err(ChaosError::Ingest(e)),
            }
            let snap = engine.snapshot();
            let path = store.save(&snap)?;
            injector.tamper_checkpoint(snap.epochs_done, &path)?;
            report.log.extend(injector.drain_log());
        }
        report.log.extend(injector.drain_log());
        return Ok((engine, report));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `CARGO_TARGET_TMPDIR` is only defined for integration tests.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cellstream-{name}-{}", std::process::id()))
    }

    #[test]
    fn plans_parse_strictly() {
        // README §Deterministic fault injection, verbatim.
        let readme = r#"
  { "seed": 9,
    "faults": [ { "Crash":               { "epoch": 2, "after_events": 100 } },
                { "ShardKill":           { "epoch": 3, "shard": 1, "after_events": 30 } },
                { "FlipCheckpointBytes": { "epoch": 2, "flips": 2 } },
                { "TruncateCheckpoint":  { "epoch": 1, "keep_bytes": 64 } },
                { "SourceStall":         { "epoch": 0, "times": 3 } } ] }
"#;
        let plan = FaultPlan {
            seed: 9,
            faults: vec![
                Fault::Crash {
                    epoch: 2,
                    after_events: 100,
                },
                Fault::ShardKill {
                    epoch: 3,
                    shard: 1,
                    after_events: 30,
                },
                Fault::FlipCheckpointBytes { epoch: 2, flips: 2 },
                Fault::TruncateCheckpoint {
                    epoch: 1,
                    keep_bytes: 64,
                },
                Fault::SourceStall { epoch: 0, times: 3 },
            ],
        };
        assert_eq!(FaultPlan::from_json(readme).expect("parses"), plan);
        // Field order is free, and every integer reaches its type's maximum.
        let extremes = r#"{"faults":[{"SourceFail":{"epoch":4294967295}},
            {"Crash":{"after_events":18446744073709551615,"epoch":0}}],
            "seed":18446744073709551615}"#;
        assert_eq!(
            FaultPlan::from_json(extremes).expect("parses"),
            FaultPlan {
                seed: u64::MAX,
                faults: vec![
                    Fault::SourceFail { epoch: u32::MAX },
                    Fault::Crash {
                        epoch: 0,
                        after_events: u64::MAX,
                    },
                ],
            }
        );
        assert_eq!(
            FaultPlan::from_json(r#"{"seed":0,"faults":[]}"#).expect("parses"),
            FaultPlan::default()
        );

        // A plan that says something else than it means is refused, and
        // the error names the offender.
        for (json, offender) in [
            (r#"{"seed":1,"fault":[]}"#, r#"unknown field "fault""#),
            (r#"{"seed":1}"#, r#"missing field "faults""#),
            (r#"{"faults":[]}"#, r#"missing field "seed""#),
            (
                r#"{"seed":1,"faults":[],"seed":2}"#,
                r#"duplicate key "seed""#,
            ),
            (r#"{"seed":-1,"faults":[]}"#, r#"field "seed""#),
            (
                r#"{"seed":1,"faults":{}}"#,
                r#"field "faults" must be an array"#,
            ),
            (r#"[]"#, "fault plan: expected an object"),
            (
                r#"{"seed":1,"faults":[{"Crash":{"epoch":2,"after_event":0,"after_events":9}}]}"#,
                r#"fault 0: Crash: unknown field "after_event""#,
            ),
            (
                r#"{"seed":1,"faults":[{"SourceFail":{"epoch":1}},{"Crash":{"epoch":2}}]}"#,
                r#"fault 1: Crash: missing field "after_events""#,
            ),
            (
                r#"{"seed":1,"faults":[{"Crash":{"epoch":2,"epoch":3,"after_events":0}}]}"#,
                r#"duplicate key "epoch""#,
            ),
            (
                r#"{"seed":1,"faults":[{"Meteor":{"epoch":2}}]}"#,
                r#"fault 0: unknown fault kind "Meteor""#,
            ),
            (
                r#"{"seed":1,"faults":[{"crash":{"epoch":2,"after_events":0}}]}"#,
                r#"unknown fault kind "crash""#,
            ),
            (
                r#"{"seed":1,"faults":["Crash"]}"#,
                r#"fault 0: expected an object, got "Crash""#,
            ),
            (
                r#"{"seed":1,"faults":[{"SourceFail":{"epoch":1},"SourceStall":{"epoch":1,"times":1}}]}"#,
                "fault 0: expected one key, the fault kind",
            ),
            (
                r#"{"seed":1,"faults":[{"SourceFail":7}]}"#,
                "SourceFail: expected an object, got 7",
            ),
            (
                r#"{"seed":1,"faults":[{"SourceFail":{"epoch":null}}]}"#,
                r#"SourceFail: missing field "epoch""#,
            ),
            (
                r#"{"seed":1,"faults":[{"SourceFail":{"epoch":1099511627776}}]}"#,
                r#"field "epoch" must be an integer in 0..=4294967295, got 1099511627776"#,
            ),
            (
                r#"{"seed":1,"faults":[{"SourceStall":{"epoch":1,"times":-3}}]}"#,
                r#"field "times" must be an integer in 0..=4294967295, got -3.0"#,
            ),
            (
                r#"{"seed":1,"faults":[{"Crash":{"epoch":1,"after_events":2.5}}]}"#,
                r#"field "after_events" must be an integer in 0..=18446744073709551615, got 2.5"#,
            ),
            (
                r#"{"seed":1,"faults":[{"Crash":{"epoch":1,"after_events":18446744073709551616}}]}"#,
                r#"field "after_events""#,
            ),
            (
                r#"{"seed":1,"faults":[{"ShardKill":{"epoch":1,"shard":"0","after_events":1}}]}"#,
                r#"field "shard" must be an integer"#,
            ),
            (r#"{"seed":1,"faults":[]} trailing"#, "trailing characters"),
        ] {
            let err = FaultPlan::from_json(json).expect_err(json);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{json}");
            assert!(err.to_string().contains(offender), "{json}: {err}");
        }
    }

    #[test]
    fn crash_fires_once_at_its_offset() {
        let injector = FaultInjector::new(FaultPlan {
            seed: 1,
            faults: vec![Fault::Crash {
                epoch: 2,
                after_events: 10,
            }],
        });
        // Wrong epoch, and offsets before the trigger: no fire.
        assert_eq!(injector.before_apply(1, 0, 10, 10), FoldAction::Continue);
        assert_eq!(injector.before_apply(2, 0, 9, 9), FoldAction::Continue);
        // At the trigger: fires.
        assert_eq!(injector.before_apply(2, 0, 10, 3), FoldAction::CrashProcess);
        // Never again.
        assert_eq!(injector.before_apply(2, 0, 11, 4), FoldAction::Continue);
        assert_eq!(injector.drain_log().len(), 1);
        assert!(injector.drain_log().is_empty(), "drain empties the log");
    }

    #[test]
    fn shard_kill_matches_shard_and_offset() {
        let injector = FaultInjector::new(FaultPlan {
            seed: 1,
            faults: vec![Fault::ShardKill {
                epoch: 0,
                shard: 2,
                after_events: 5,
            }],
        });
        assert_eq!(injector.before_apply(0, 1, 100, 5), FoldAction::Continue);
        assert_eq!(injector.before_apply(0, 2, 100, 4), FoldAction::Continue);
        assert_eq!(injector.before_apply(0, 2, 100, 5), FoldAction::KillShard);
        assert_eq!(injector.before_apply(0, 2, 100, 6), FoldAction::Continue);
    }

    #[test]
    fn stall_fires_its_count_then_clears() {
        let injector = FaultInjector::new(FaultPlan {
            seed: 1,
            faults: vec![Fault::SourceStall { epoch: 1, times: 2 }],
        });
        assert!(injector.check(0).is_ok());
        assert_eq!(injector.check(1).unwrap_err().kind, SourceErrorKind::Stall);
        assert_eq!(injector.check(1).unwrap_err().kind, SourceErrorKind::Stall);
        assert!(injector.check(1).is_ok(), "stall clears after its count");
    }

    #[test]
    fn tampering_is_deterministic_per_seed() {
        let dir = scratch_dir("faultsim_tamper");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt-ep000002.ckpt");
        let plan = FaultPlan {
            seed: 7,
            faults: vec![Fault::FlipCheckpointBytes { epoch: 2, flips: 2 }],
        };
        let original = "0123456789abcdef0123456789abcdef\n";

        fs::write(&path, original).expect("write");
        let a = FaultInjector::new(plan.clone());
        assert_eq!(a.tamper_checkpoint(2, &path).expect("tamper"), 1);
        let first = fs::read(&path).expect("read");

        fs::write(&path, original).expect("rewrite");
        let b = FaultInjector::new(plan);
        assert_eq!(b.tamper_checkpoint(2, &path).expect("tamper"), 1);
        let second = fs::read(&path).expect("read");

        assert_ne!(first.as_slice(), original.as_bytes(), "bytes changed");
        assert_eq!(first, second, "same seed, same corruption");
        // Wrong epoch: untouched and unfired.
        fs::write(&path, original).expect("rewrite");
        let c = FaultInjector::new(FaultPlan {
            seed: 7,
            faults: vec![Fault::TruncateCheckpoint {
                epoch: 3,
                keep_bytes: 4,
            }],
        });
        assert_eq!(c.tamper_checkpoint(2, &path).expect("tamper"), 0);
        assert_eq!(fs::read(&path).expect("read"), original.as_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Panic a thread while it holds the injector lock, poisoning the
    /// mutex the way a shard dying inside the critical section would.
    fn poison(injector: &FaultInjector) {
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = injector.state.lock().expect("not yet poisoned");
                panic!("simulated shard panic while holding the injector");
            })
            .join()
        });
        assert!(panicked.is_err(), "the holder must have panicked");
        assert!(injector.state.is_poisoned(), "the mutex must be poisoned");
    }

    #[test]
    fn every_seam_survives_a_poisoned_injector() {
        let injector = FaultInjector::new(FaultPlan {
            seed: 9,
            faults: vec![
                Fault::Crash {
                    epoch: 0,
                    after_events: 0,
                },
                Fault::SourceStall { epoch: 2, times: 1 },
                Fault::TruncateCheckpoint {
                    epoch: 5,
                    keep_bytes: 2,
                },
            ],
        });
        poison(&injector);
        // Every entry point still works — the poison is recovered, not
        // re-thrown into the supervisor (which would turn a *simulated*
        // fault into a real panic).
        assert_eq!(injector.before_apply(0, 0, 0, 0), FoldAction::CrashProcess);
        assert_eq!(injector.check(2).unwrap_err().kind, SourceErrorKind::Stall);
        assert!(injector.check(2).is_ok(), "stall cleared after its count");
        let log = injector.drain_log();
        assert!(log.iter().any(|l| l.contains("crashed process")));
        assert!(log.iter().any(|l| l.contains("stalled")));
        let dir = scratch_dir("faultsim_poison");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt-ep000005.ckpt");
        fs::write(&path, "0123456789\n").expect("write");
        assert_eq!(injector.tamper_checkpoint(5, &path).expect("tamper"), 1);
        assert_eq!(fs::read(&path).expect("read"), b"01");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_run_completes_with_a_poisoned_injector() {
        use std::sync::Arc;

        use cdnsim::{CdnConfig, EventSource};

        let world = worldgen::World::generate(worldgen::WorldConfig::mini());
        let dns = dnssim::generate_dns(&world);
        let resolvers = crate::ResolverMap::from_dns(&dns);
        let cfg = StreamConfig {
            shards: 3,
            ..Default::default()
        };
        let epochs = 3;

        // Fault-free truth.
        let source = EventSource::new(&world, CdnConfig::default(), epochs);
        let mut reference = IngestEngine::for_source(cfg, &source, resolvers.clone());
        reference.run_to_end(&source);
        let want = reference.snapshot();

        // A chaos run whose injector was poisoned by a holder's panic
        // *before* the supervisor ever touches it: the kill still fires,
        // the shard is rebuilt, and the result is identical.
        let injector = Arc::new(FaultInjector::new(FaultPlan {
            seed: 11,
            faults: vec![Fault::ShardKill {
                epoch: 1,
                shard: 0,
                after_events: 5,
            }],
        }));
        poison(&injector);
        let gate: Arc<dyn EpochGate> = injector.clone();
        let source = EventSource::new(&world, CdnConfig::default(), epochs).with_gate(gate);
        let dir = scratch_dir("faultsim_poison_chaos");
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, 3);
        let (engine, report) =
            run_chaos(&source, cfg, &resolvers, &store, &injector, 4).expect("chaos run recovers");
        assert_eq!(report.shard_recoveries, 1, "the kill fired and recovered");
        assert_eq!(engine.snapshot(), want, "identical result");
        let _ = fs::remove_dir_all(&dir);
    }
}
