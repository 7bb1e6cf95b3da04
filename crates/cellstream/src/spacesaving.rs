//! Space-Saving weighted heavy-hitter sketch.
//!
//! Metwally et al.'s algorithm over weighted updates, used to track which
//! blocks concentrate demand (the paper's §5.3 observation that a handful
//! of carrier-grade-NAT front blocks carry outsized demand). State is
//! bounded by `capacity` counters. Guarantees, with `W` the total weight
//! offered:
//!
//! * every tracked key's estimate **over**-counts: `true ≤ estimate`;
//! * the slack is bounded per key: `estimate − error ≤ true`, where
//!   `error` is the counter inherited at eviction time;
//! * any key whose true weight exceeds `W / capacity` is tracked.
//!
//! Sketches (of one capacity) merge by adding counters key by key — a
//! key only one side holds takes the other side's
//! [`SpaceSaving::error_bound`] instead, all that side can have seen of
//! it, evicted or never tracked — and keeping the `capacity` heaviest, so
//! the per-key bounds survive shard merging (the estimates themselves may
//! differ slightly between shard counts — unlike HyperLogLog, Space-Saving
//! merging is not exact — which is why the equivalence test checks bounds,
//! not bit-equality, here).

use cellseal::Reader;
use netaddr::BlockId;

use crate::error::StreamError;
use crate::snapshot::{decode_block, encode_block, put_count, put_u64};

/// One tracked counter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeavyHitter {
    /// The tracked block.
    pub block: BlockId,
    /// Estimated total weight (never below the true weight).
    pub weight: f64,
    /// Maximum over-count: `weight − error ≤ true weight ≤ weight`.
    pub error: f64,
}

/// Bounded-size weighted heavy-hitter tracker.
#[derive(Clone, Debug, PartialEq)]
pub struct SpaceSaving {
    capacity: usize,
    /// Counters in insertion order — kept stable so serialized snapshots
    /// restore to a sketch with identical future eviction behavior.
    entries: Vec<HeavyHitter>,
    total_weight: f64,
}

impl SpaceSaving {
    /// An empty sketch tracking at most `capacity` keys.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "space-saving needs at least one counter");
        SpaceSaving {
            capacity,
            entries: Vec::new(),
            total_weight: 0.0,
        }
    }

    /// Counter budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total weight offered so far (exact, not estimated).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Number of live counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was offered yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Worst-case over-count of any reported estimate: the smallest live
    /// counter (≤ `total_weight / capacity` once the sketch is full).
    pub fn error_bound(&self) -> f64 {
        if self.entries.len() < self.capacity {
            0.0
        } else {
            self.entries
                .iter()
                .map(|e| e.weight)
                .fold(f64::INFINITY, f64::min)
        }
    }

    /// Offer `weight` for `block`.
    pub fn offer(&mut self, block: BlockId, weight: f64) {
        self.total_weight += weight;
        if let Some(e) = self.entries.iter_mut().find(|e| e.block == block) {
            e.weight += weight;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(HeavyHitter {
                block,
                weight,
                error: 0.0,
            });
            return;
        }
        // Evict the smallest counter (first among ties, so eviction is
        // deterministic) and inherit its estimate as the new key's error.
        let victim = self
            .entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.weight.total_cmp(&b.weight))
            .map(|(i, _)| i)
            .expect("capacity > 0");
        let inherited = self.entries[victim].weight;
        self.entries[victim] = HeavyHitter {
            block,
            weight: inherited + weight,
            error: inherited,
        };
    }

    /// Fold another sketch (of the same capacity) into this one. Per-key
    /// bounds (`estimate − error ≤ true ≤ estimate`) hold on the result
    /// for the combined stream, and [`error_bound`](Self::error_bound)
    /// still covers every key it does not track.
    pub fn merge(&mut self, other: &SpaceSaving) {
        // A key a full sketch does not hold weighs at most its smallest
        // counter there (0 while it is not full): the side that does hold
        // it takes that much as over-count.
        let (mine, theirs) = (self.error_bound(), other.error_bound());
        let held = self.entries.len();
        for e in &mut self.entries {
            let seen = other.entries.iter().find(|o| o.block == e.block);
            let (weight, error) = seen.map_or((theirs, theirs), |o| (o.weight, o.error));
            e.weight += weight;
            e.error += error;
        }
        for o in &other.entries {
            self.total_weight += o.weight;
            if !self.entries[..held].iter().any(|e| e.block == o.block) {
                self.entries.push(HeavyHitter {
                    block: o.block,
                    weight: o.weight + mine,
                    error: o.error + mine,
                });
            }
        }
        // Keep the heaviest counters (earlier ones among ties). A dropped
        // key weighs at most its counter, and every counter is at least
        // `mine + theirs`, so the smallest kept one is the new bound.
        if self.entries.len() > self.capacity {
            self.entries.sort_by(|a, b| b.weight.total_cmp(&a.weight));
            self.entries.truncate(self.capacity);
        }
    }

    /// The `n` heaviest counters, sorted by estimate descending (block id
    /// breaks ties deterministically).
    pub fn top(&self, n: usize) -> Vec<HeavyHitter> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.block.cmp(&b.block)));
        out.truncate(n);
        out
    }

    /// All live counters in internal order (for snapshots).
    pub fn entries(&self) -> &[HeavyHitter] {
        &self.entries
    }

    /// Approximate bytes of counter state.
    pub fn state_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<HeavyHitter>()
    }

    /// Checkpoint encoding: capacity, total weight, then the counters in
    /// internal order. Floats travel as their bit patterns.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.capacity as u64);
        put_u64(out, self.total_weight.to_bits());
        put_count(out, self.entries.len());
        for e in &self.entries {
            encode_block(out, e.block);
            put_u64(out, e.weight.to_bits());
            put_u64(out, e.error.to_bits());
        }
    }

    /// Decode what [`encode`](Self::encode) wrote, refusing a sketch
    /// [`new`](Self::new) would panic on or that holds more counters
    /// than its budget.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, StreamError> {
        let capacity = usize::try_from(r.u64()?)
            .ok()
            .filter(|&c| c > 0)
            .ok_or_else(|| StreamError::Corrupt("heavy-hitter capacity out of range".into()))?;
        let total_weight = f64::from_bits(r.u64()?);
        let count = r.u32()? as usize;
        if count > capacity {
            return Err(StreamError::Corrupt(format!(
                "heavy-hitter sketch holds {count} counters, capacity {capacity}"
            )));
        }
        let mut entries = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            entries.push(HeavyHitter {
                block: decode_block(r)?,
                weight: f64::from_bits(r.u64()?),
                error: f64::from_bits(r.u64()?),
            });
        }
        Ok(SpaceSaving {
            capacity,
            entries,
            total_weight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaddr::Block24;

    fn b(i: u32) -> BlockId {
        BlockId::V4(Block24::from_index(i))
    }

    #[test]
    fn decode_refuses_sketches_over_their_budget() {
        let mut s = SpaceSaving::new(2);
        s.offer(b(1), 2.5);
        s.offer(b(2), -0.0);
        let mut bytes = Vec::new();
        s.encode(&mut bytes);
        let decode = |bytes: &[u8]| SpaceSaving::decode(&mut Reader::new(bytes));
        assert_eq!(decode(&bytes).expect("decodes"), s);

        // Capacity 1 under two counters; capacity 0.
        for (capacity, why) in [
            (1u64, "2 counters, capacity 1"),
            (0, "capacity out of range"),
        ] {
            let mut bad = bytes.clone();
            bad[..8].copy_from_slice(&capacity.to_le_bytes());
            assert!(
                matches!(decode(&bad), Err(StreamError::Corrupt(got)) if got.contains(why)),
                "{why}"
            );
        }
        // A counter count far past the bytes present is truncation, not
        // an allocation.
        let mut bad = bytes.clone();
        bad[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        bad[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&bad),
            Err(StreamError::Integrity(cellseal::SealError::Truncated))
        ));
    }

    #[test]
    fn exact_below_capacity() {
        let mut s = SpaceSaving::new(8);
        for i in 0..5u32 {
            s.offer(b(i), (i + 1) as f64);
            s.offer(b(i), (i + 1) as f64);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.error_bound(), 0.0);
        let top = s.top(5);
        assert_eq!(top[0].block, b(4));
        assert_eq!(top[0].weight, 10.0);
        assert_eq!(top[0].error, 0.0);
    }

    #[test]
    fn heavy_keys_survive_and_bounds_hold() {
        // 4 heavy keys + 100 light ones through a 10-counter sketch.
        let mut s = SpaceSaving::new(10);
        let mut truth = std::collections::HashMap::new();
        for round in 0..50u32 {
            for i in 0..4u32 {
                let w = 100.0;
                s.offer(b(i), w);
                *truth.entry(b(i)).or_insert(0.0) += w;
            }
            for i in 0..100u32 {
                let w = 1.0;
                s.offer(b(1000 + (round * 100 + i) % 100), w);
                *truth
                    .entry(b(1000 + (round * 100 + i) % 100))
                    .or_insert(0.0) += w;
            }
        }
        let total: f64 = truth.values().sum();
        assert!((s.total_weight() - total).abs() < 1e-6);
        let top = s.top(4);
        let heavy: Vec<BlockId> = top.iter().map(|h| h.block).collect();
        for i in 0..4u32 {
            assert!(heavy.contains(&b(i)), "heavy key {i} lost");
        }
        for h in s.entries() {
            let t = truth.get(&h.block).copied().unwrap_or(0.0);
            assert!(h.weight + 1e-9 >= t, "estimate under-counts {:?}", h.block);
            assert!(
                h.weight - h.error <= t + 1e-9,
                "error bound violated for {:?}: est {} err {} true {}",
                h.block,
                h.weight,
                h.error,
                t
            );
        }
        assert!(s.error_bound() <= s.total_weight() / 10.0 + 1e-9);
    }

    #[test]
    fn merge_preserves_bounds() {
        let mut a = SpaceSaving::new(6);
        let mut c = SpaceSaving::new(6);
        let mut truth = std::collections::HashMap::new();
        for i in 0..30u32 {
            let w = ((i % 7) + 1) as f64;
            if i % 2 == 0 {
                a.offer(b(i % 9), w);
            } else {
                c.offer(b(i % 9), w);
            }
            *truth.entry(b(i % 9)).or_insert(0.0) += w;
        }
        let total_a = a.total_weight();
        a.merge(&c);
        assert!((a.total_weight() - (total_a + c.total_weight())).abs() < 1e-9);
        for h in a.entries() {
            let t = truth.get(&h.block).copied().unwrap_or(0.0);
            assert!(h.weight + 1e-9 >= t);
            assert!(h.weight - h.error <= t + 1e-9);
        }
    }

    /// The bound a plain replay of `a`'s counters loses: `a` saw 10 of
    /// key 1 and evicted it, so merging `a` into a sketch that tracks key
    /// 1 at 50 must not leave the estimate at 50 against a true 60.
    #[test]
    fn merge_covers_a_key_the_other_sketch_evicted() {
        let mut a = SpaceSaving::new(2);
        a.offer(b(1), 10.0);
        a.offer(b(2), 10.0);
        a.offer(b(3), 1.0); // evicts key 1 (first among the tied minima)
        assert!(a.entries().iter().all(|e| e.block != b(1)));
        assert_eq!(a.error_bound(), 10.0);

        let mut m = SpaceSaving::new(2);
        m.offer(b(1), 50.0);
        m.merge(&a);
        let counters: Vec<_> = (m.entries().iter().map(|e| (e.block, e.weight, e.error))).collect();
        // Key 1: 50 + all `a` can have seen of it. Key 3 (true 1) keeps
        // `a`'s counter; key 2 (true 10) is dropped, under the new bound.
        assert_eq!(counters, [(b(1), 60.0, 10.0), (b(3), 11.0, 10.0)]);
        assert_eq!(m.error_bound(), 11.0);
        assert_eq!(m.total_weight(), 71.0, "the total stays the exact sum");
    }

    #[test]
    fn top_is_deterministic_under_ties() {
        let mut s = SpaceSaving::new(4);
        s.offer(b(3), 5.0);
        s.offer(b(1), 5.0);
        s.offer(b(2), 5.0);
        let top = s.top(3);
        assert_eq!(
            top.iter().map(|h| h.block).collect::<Vec<_>>(),
            vec![b(1), b(2), b(3)]
        );
    }
}
