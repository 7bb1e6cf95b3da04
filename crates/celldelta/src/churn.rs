//! Seeded epoch-churn worlds for the delta test and bench suites.
//!
//! Real streams accumulate counters, so nearly every block's counters
//! move every epoch — great for ingest tests, useless for exercising
//! the *incremental* path, whose whole premise is that most blocks
//! hold still. [`ChurnWorld`] generates the workload the delta
//! machinery is built for: a stable base population of blocks where
//! each epoch mutates only a small, seeded fraction — flipping blocks
//! between cellular and wifi shapes, jittering demand, and toggling
//! blocks in and out of existence — with every epoch's counters a pure
//! function of `(seed, epoch)`, so any epoch can be regenerated
//! independently and two runs never disagree.

use netaddr::{Asn, Block24, Block48, BlockId};
use std::collections::HashMap;

use crate::counters::{BlockCounters, EpochCounters};

const K1: u64 = 0x9E37_79B9_7F4A_7C15;
const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const K3: u64 = 0x1656_67B1_9E37_79F9;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// Hash tags: one namespace per derived attribute.
const TAG_ASN: u64 = 1;
const TAG_SHAPE: u64 = 2;
const TAG_NETINFO: u64 = 3;
const TAG_DU: u64 = 4;
const TAG_MUT_IDX: u64 = 5;
const TAG_MUT_KIND: u64 = 6;

/// A deterministic world whose counters churn a bounded amount per
/// epoch. Epoch 0 is the base state; epoch `e` applies `e` seeded
/// mutation rounds on top of it.
#[derive(Clone, Copy, Debug)]
pub struct ChurnWorld {
    /// Root seed; every derived value mixes it in.
    pub seed: u64,
    /// IPv4 /24 blocks in the base population.
    pub v4_blocks: u32,
    /// IPv6 /48 blocks in the base population.
    pub v6_blocks: u32,
    /// Distinct origin ASes blocks are hashed across.
    pub ases: u32,
    /// Blocks mutated per epoch, in thousandths of the population.
    pub churn_per_mille: u32,
}

impl ChurnWorld {
    /// The preset the acceptance tests and `cellspot replay --preset churn` run on:
    /// 720 blocks across 90 ASes, ~1.5% of blocks mutated per epoch —
    /// comfortably inside the "<10% of blocks change between epochs"
    /// regime the delta path is specified against.
    pub fn demo(seed: u64) -> ChurnWorld {
        ChurnWorld {
            seed,
            v4_blocks: 600,
            v6_blocks: 120,
            ases: 90,
            churn_per_mille: 15,
        }
    }

    /// Total blocks in the base population.
    pub fn total_blocks(&self) -> u64 {
        self.v4_blocks as u64 + self.v6_blocks as u64
    }

    fn h(&self, tag: u64, a: u64, b: u64) -> u64 {
        mix(self.seed ^ mix(tag.wrapping_mul(K1) ^ a.wrapping_mul(K2) ^ b.wrapping_mul(K3)))
    }

    fn block_id(&self, i: u64) -> BlockId {
        if i < self.v4_blocks as u64 {
            BlockId::V4(Block24::from_index(i as u32))
        } else {
            BlockId::V6(Block48::from_index(i - self.v4_blocks as u64))
        }
    }

    /// Mutations applied per round.
    fn mutations_per_round(&self) -> u64 {
        (self.total_blocks() * self.churn_per_mille as u64 / 1000).max(1)
    }

    /// The complete counters at epoch `epoch`: the base state plus
    /// rounds `1..=epoch` of seeded mutations. Pure in `(self, epoch)`.
    pub fn epoch_counters(&self, epoch: u64) -> EpochCounters {
        let total = self.total_blocks();
        // Per block: (class flips, du jitters, presence toggles).
        let mut muts: HashMap<u64, (u32, u32, u32)> = HashMap::new();
        let per_round = self.mutations_per_round();
        for round in 1..=epoch {
            for j in 0..per_round {
                let i = self.h(TAG_MUT_IDX, round, j) % total;
                let entry = muts.entry(i).or_default();
                match self.h(TAG_MUT_KIND, round, j) % 4 {
                    0 | 1 => entry.0 += 1,
                    2 => entry.1 += 1,
                    _ => entry.2 += 1,
                }
            }
        }

        let mut blocks = Vec::with_capacity(total as usize);
        for i in 0..total {
            let (flips, jitters, toggles) = muts.get(&i).copied().unwrap_or((0, 0, 0));
            if toggles % 2 == 1 {
                continue; // toggled out of existence this epoch
            }
            let asn = Asn(64_500 + (self.h(TAG_ASN, i, 0) % self.ases as u64) as u32);
            let base_cellular = !self.h(TAG_SHAPE, i, 0).is_multiple_of(4);
            let cellular_now = base_cellular ^ (flips % 2 == 1);
            let netinfo = 40 + self.h(TAG_NETINFO, i, 0) % 60;
            let cellular_hits = if cellular_now {
                netinfo - netinfo / 10
            } else {
                netinfo / 10
            };
            let base_du = 1.0 + (self.h(TAG_DU, i, 0) % 900) as f64 / 100.0;
            let du = base_du * (1.0 + 0.01 * jitters as f64);
            blocks.push(BlockCounters {
                block: self.block_id(i),
                asn,
                netinfo_hits: netinfo,
                cellular_hits,
                du,
            });
        }
        EpochCounters::new(epoch, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::changed_blocks;

    #[test]
    fn epochs_are_deterministic_and_independent() {
        let world = ChurnWorld::demo(7);
        assert_eq!(world.epoch_counters(3), world.epoch_counters(3));
        // Epoch 0 is the untouched base population.
        assert_eq!(world.epoch_counters(0).len() as u64, world.total_blocks());
    }

    #[test]
    fn consecutive_epochs_change_a_bounded_block_fraction() {
        let world = ChurnWorld::demo(42);
        for epoch in 0..6 {
            let a = world.epoch_counters(epoch);
            let b = world.epoch_counters(epoch + 1);
            let changed = changed_blocks(&a, &b);
            // One mutation round touches at most `mutations_per_round`
            // distinct blocks.
            assert!(
                changed as u64 <= world.mutations_per_round(),
                "epoch {epoch}: {changed}"
            );
            assert!(
                (changed as f64) < 0.10 * world.total_blocks() as f64,
                "epoch {epoch}: {changed} of {} blocks churned",
                world.total_blocks()
            );
            assert!(changed > 0, "churn must actually happen (epoch {epoch})");
        }
    }

    #[test]
    fn different_seeds_give_different_worlds() {
        let a = ChurnWorld::demo(1).epoch_counters(1);
        let b = ChurnWorld::demo(2).epoch_counters(1);
        assert!(changed_blocks(&a, &b) > 0);
    }
}
