//! The canonical epoch classifier and its memoized incremental form.
//!
//! This module *defines* what a generation's label set is, as a pure
//! function of one epoch's counters:
//!
//! 1. **Block classification** — a block is cellular iff it has NETINFO
//!    coverage and `cellular_hits / netinfo_hits ≥ threshold` (the
//!    paper's §4 rule; [`cellspot::DEFAULT_THRESHOLD`] is 0.5).
//! 2. **AS classification** — for every AS with at least one cellular
//!    block: `cfd = cell_du / total_du`, both sums taken serially in
//!    block order over that AS's blocks; the AS is *dedicated* when
//!    `cfd >` [`cellspot::DEDICATED_CFD`], *mixed* otherwise (the §6
//!    rule). No AS with a cellular block is ever labeled `Unknown`.
//! 3. **Labels** — every cellular block becomes a served prefix
//!    labeled with its AS's verdict, frozen through
//!    [`cellserve::FrozenIndexBuilder`] (canonical by construction).
//!
//! `cellspot::Pipeline` computes the same verdicts through its chunked
//! parallel aggregation; this serial formulation exists so the result
//! is a *deterministic function of each AS's own counters alone* —
//! which is what makes per-AS memoization sound, and what lets
//! `apply(base, delta)` be byte-identical to a full rebuild: both sides
//! call exactly this code.
//!
//! [`IncrementalClassifier`] adds the memo: per AS, a FNV-1a 64 hash of
//! its input counters (block ids, integer counters, `du` bit patterns,
//! and the threshold) keys the cached verdict, so an AS whose counters
//! did not move between epochs is never reclassified. Hits and misses
//! are exported as the `delta.memo.hits` / `delta.memo.misses`
//! counters.

use std::collections::{BTreeMap, HashMap};

use cellobs::Observer;
use cellseal::Fnv64;
use cellserve::{AsClass, FrozenIndex, FrozenIndexBuilder, ServeLabel};
use cellspot::DEDICATED_CFD;
use netaddr::{Asn, BlockId};

use crate::counters::{BlockCounters, EpochCounters};

fn block_is_cellular(c: &BlockCounters, threshold: f64) -> bool {
    c.netinfo_hits > 0 && (c.cellular_hits as f64) / (c.netinfo_hits as f64) >= threshold
}

/// One AS's classification result: its verdict and its cellular
/// blocks, in block order. `None` when the AS has no cellular block
/// (it contributes nothing to the index).
type AsResult = Option<(AsClass, Vec<BlockId>)>;

/// Classify one AS's blocks (already in block order). The sums are
/// serial in block order, so the result is a pure function of exactly
/// these counters — the property the memo key hashes.
fn classify_as(blocks: &[&BlockCounters], threshold: f64) -> AsResult {
    let cellular: Vec<BlockId> = blocks
        .iter()
        .filter(|c| block_is_cellular(c, threshold))
        .map(|c| c.block)
        .collect();
    if cellular.is_empty() {
        return None;
    }
    let mut total_du = 0.0f64;
    let mut cell_du = 0.0f64;
    for c in blocks {
        total_du += c.du;
        if block_is_cellular(c, threshold) {
            cell_du += c.du;
        }
    }
    let cfd = if total_du > 0.0 {
        cell_du / total_du
    } else {
        0.0
    };
    let class = if cfd <= DEDICATED_CFD {
        AsClass::Mixed
    } else {
        AsClass::Dedicated
    };
    Some((class, cellular))
}

/// Group counters per AS, preserving block order within each group.
fn group_by_as(counters: &EpochCounters) -> BTreeMap<Asn, Vec<&BlockCounters>> {
    let mut groups: BTreeMap<Asn, Vec<&BlockCounters>> = BTreeMap::new();
    for c in counters.blocks() {
        groups.entry(c.asn).or_default().push(c);
    }
    groups
}

fn freeze(results: impl Iterator<Item = (Asn, AsClass, BlockId)>) -> FrozenIndex {
    let mut builder = FrozenIndexBuilder::new();
    for (asn, class, block) in results {
        let label = ServeLabel { asn, class };
        match block {
            BlockId::V4(blk) => builder.insert_v4(blk.network(), label),
            BlockId::V6(blk) => builder.insert_v6(blk.network(), label),
        }
    }
    builder.build()
}

/// One-shot canonical classification of an epoch's counters.
pub fn classify_epoch(counters: &EpochCounters, threshold: f64) -> FrozenIndex {
    let mut labeled: Vec<(Asn, AsClass, BlockId)> = Vec::new();
    for (asn, blocks) in group_by_as(counters) {
        if let Some((class, cellular)) = classify_as(&blocks, threshold) {
            labeled.extend(cellular.into_iter().map(|b| (asn, class, b)));
        }
    }
    freeze(labeled.into_iter())
}

/// The memoization key: a content hash of everything [`classify_as`]
/// reads — the AS's blocks (family tag + index), their integer
/// counters, the exact `du` bit patterns, and the threshold. Equal
/// hashes ⇒ (collisions aside, at FNV-64 odds) equal inputs ⇒ equal
/// verdicts, because the classification is a pure serial function of
/// these values.
fn as_input_hash(blocks: &[&BlockCounters], threshold: f64) -> u64 {
    let mut h = Fnv64::new();
    h.write(&threshold.to_bits().to_le_bytes());
    h.write(&(blocks.len() as u64).to_le_bytes());
    for c in blocks {
        match c.block {
            BlockId::V4(b) => {
                h.write(&[4]);
                h.write(&(b.index() as u64).to_le_bytes());
            }
            BlockId::V6(b) => {
                h.write(&[6]);
                h.write(&b.index().to_le_bytes());
            }
        }
        h.write(&c.netinfo_hits.to_le_bytes());
        h.write(&c.cellular_hits.to_le_bytes());
        h.write(&c.du.to_bits().to_le_bytes());
    }
    h.finish()
}

struct MemoEntry {
    input_hash: u64,
    result: AsResult,
}

/// Epoch-over-epoch classifier: recomputes only ASes whose input
/// counters changed since the last classified epoch, reusing the
/// memoized verdict for everyone else. Produces bit-identical output
/// to [`classify_epoch`] on the same counters (pinned by the crate's
/// test suite); the only difference is which work gets skipped.
pub struct IncrementalClassifier {
    threshold: f64,
    memo: HashMap<Asn, MemoEntry>,
    obs: Observer,
}

impl IncrementalClassifier {
    /// A fresh classifier with an empty memo. `obs` receives the
    /// `delta.memo.hits` / `delta.memo.misses` counters.
    pub fn new(threshold: f64, obs: Observer) -> IncrementalClassifier {
        IncrementalClassifier {
            threshold,
            memo: HashMap::new(),
            obs,
        }
    }

    /// The block-classification threshold this classifier was built
    /// with (part of every memo key).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Classify one epoch's counters, reusing memoized per-AS verdicts
    /// where the input hash is unchanged. ASes absent from this epoch
    /// are dropped from the memo, so memory tracks the live AS set.
    pub fn classify(&mut self, counters: &EpochCounters) -> FrozenIndex {
        let groups = group_by_as(counters);
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut next: HashMap<Asn, MemoEntry> = HashMap::with_capacity(groups.len());
        let mut labeled: Vec<(Asn, AsClass, BlockId)> = Vec::new();
        for (asn, blocks) in groups {
            let input_hash = as_input_hash(&blocks, self.threshold);
            let result = match self.memo.remove(&asn) {
                Some(entry) if entry.input_hash == input_hash => {
                    hits += 1;
                    entry.result
                }
                _ => {
                    misses += 1;
                    classify_as(&blocks, self.threshold)
                }
            };
            if let Some((class, cellular)) = &result {
                labeled.extend(cellular.iter().map(|&b| (asn, *class, b)));
            }
            next.insert(asn, MemoEntry { input_hash, result });
        }
        self.memo = next;
        // Only touch a counter that actually moved: `Observer::counter`
        // registers the name at 0, and a cold classifier should not
        // export a `hits` counter it never earned.
        if hits > 0 {
            self.obs.counter("delta.memo.hits").add(hits);
        }
        if misses > 0 {
            self.obs.counter("delta.memo.misses").add(misses);
        }
        freeze(labeled.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellserve::{Artifact, ArtifactFormat, IndexView};
    use netaddr::{Block24, Block48};

    fn block(i: u32, asn: u32, netinfo: u64, cellular: u64, du: f64) -> BlockCounters {
        BlockCounters {
            block: BlockId::V4(Block24::from_index(i)),
            asn: Asn(asn),
            netinfo_hits: netinfo,
            cellular_hits: cellular,
            du,
        }
    }

    fn block6(i: u64, asn: u32, netinfo: u64, cellular: u64, du: f64) -> BlockCounters {
        BlockCounters {
            block: BlockId::V6(Block48::from_index(i)),
            asn: Asn(asn),
            netinfo_hits: netinfo,
            cellular_hits: cellular,
            du,
        }
    }

    #[test]
    fn cellular_blocks_get_their_as_verdict() {
        // AS 1: both blocks cellular, all demand cellular → dedicated.
        // AS 2: one cellular block carrying a third of the demand → mixed.
        // AS 3: nothing cellular → absent from the index.
        let counters = EpochCounters::new(
            1,
            vec![
                block(1, 1, 10, 10, 5.0),
                block6(1, 1, 10, 9, 5.0),
                block(2, 2, 10, 10, 1.0),
                block(3, 2, 10, 0, 2.0),
                block(4, 3, 10, 0, 9.0),
            ],
        );
        // Observed the way consumers see it: sealed, loaded, looked up.
        let sealed = Artifact::encode(&classify_epoch(&counters, 0.5), ArtifactFormat::V2);
        let index = Artifact::from_bytes(&sealed).expect("classified index seals");
        assert_eq!(index.prefix_counts(), (2, 1));
        let (_, l1) = index
            .lookup_v4(Block24::from_index(1).addr(9))
            .expect("served");
        assert_eq!(l1.asn, Asn(1));
        assert_eq!(l1.class, AsClass::Dedicated);
        let (_, l6) = index
            .lookup_v6(Block48::from_index(1).addr(0, 9))
            .expect("served");
        assert_eq!(l6.class, AsClass::Dedicated);
        let (_, l2) = index
            .lookup_v4(Block24::from_index(2).addr(9))
            .expect("served");
        assert_eq!(l2.asn, Asn(2));
        assert_eq!(l2.class, AsClass::Mixed);
        assert_eq!(index.lookup_v4(Block24::from_index(3).addr(9)), None);
        assert_eq!(index.lookup_v4(Block24::from_index(4).addr(9)), None);
    }

    #[test]
    fn zero_netinfo_blocks_are_never_cellular() {
        let counters = EpochCounters::new(1, vec![block(1, 1, 0, 0, 5.0)]);
        assert!(classify_epoch(&counters, 0.5).is_empty());
    }

    #[test]
    fn incremental_matches_one_shot_and_memoizes() {
        let obs = Observer::enabled();
        let mut inc = IncrementalClassifier::new(0.5, obs.clone());

        let epoch1 = EpochCounters::new(
            1,
            vec![
                block(1, 1, 10, 10, 5.0),
                block(2, 2, 10, 10, 1.0),
                block(3, 2, 10, 0, 2.0),
            ],
        );
        assert_eq!(inc.classify(&epoch1), classify_epoch(&epoch1, 0.5));
        let snap = obs.snapshot();
        assert_eq!(snap.counters["delta.memo.misses"], 2, "cold memo");
        assert!(!snap.counters.contains_key("delta.memo.hits"));

        // Epoch 2: only AS 2 moves; AS 1 must be a memo hit.
        let epoch2 = EpochCounters::new(
            2,
            vec![
                block(1, 1, 10, 10, 5.0),
                block(2, 2, 20, 20, 1.5),
                block(3, 2, 10, 0, 2.0),
            ],
        );
        assert_eq!(inc.classify(&epoch2), classify_epoch(&epoch2, 0.5));
        let snap = obs.snapshot();
        assert_eq!(snap.counters["delta.memo.hits"], 1);
        assert_eq!(snap.counters["delta.memo.misses"], 3);

        // Epoch 3: nothing moves at all — every AS is a hit.
        let epoch3 = EpochCounters::new(3, epoch2.blocks().to_vec());
        assert_eq!(inc.classify(&epoch3), classify_epoch(&epoch3, 0.5));
        let snap = obs.snapshot();
        assert_eq!(snap.counters["delta.memo.hits"], 3);
        assert_eq!(snap.counters["delta.memo.misses"], 3);
    }

    #[test]
    fn memo_key_sees_du_and_threshold_bits() {
        let a = [block(1, 1, 10, 10, 5.0)];
        let refs: Vec<&BlockCounters> = a.iter().collect();
        let h = as_input_hash(&refs, 0.5);
        // One ulp away from 5.0 (`5.0 + f64::EPSILON` would round back
        // to exactly 5.0 — epsilon is below the ulp at that magnitude).
        let b = [block(1, 1, 10, 10, f64::from_bits(5.0f64.to_bits() + 1))];
        let refs_b: Vec<&BlockCounters> = b.iter().collect();
        assert_ne!(as_input_hash(&refs_b, 0.5), h, "du bits are in the key");
        assert_ne!(as_input_hash(&refs, 0.25), h, "threshold is in the key");
    }

    #[test]
    fn departed_ases_leave_the_memo() {
        let obs = Observer::enabled();
        let mut inc = IncrementalClassifier::new(0.5, obs.clone());
        let both = EpochCounters::new(1, vec![block(1, 1, 10, 10, 5.0), block(2, 2, 10, 10, 1.0)]);
        inc.classify(&both);
        let only_one = EpochCounters::new(2, vec![block(1, 1, 10, 10, 5.0)]);
        let index = inc.classify(&only_one);
        assert_eq!(
            index.prefix_counts(),
            (1, 0),
            "departed AS is no longer served"
        );
        // AS 2 returns unchanged — but it was evicted, so it's a miss,
        // while the continuously present AS 1 hits in both later epochs.
        let back = EpochCounters::new(3, both.blocks().to_vec());
        inc.classify(&back);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["delta.memo.misses"], 2 + 1);
        assert_eq!(snap.counters["delta.memo.hits"], 1 + 1);
    }
}
