//! The joined per-block view: BEACON hit counts merged with DEMAND units.
//!
//! Every analysis in the paper operates on this join — ratios come from
//! beacons, weights come from demand, and blocks may appear in either
//! dataset alone (Table 2's BEACON ⊂ DEMAND asymmetry for IPv4, and the
//! reverse for ephemeral IPv6 space).

use netaddr::{Asn, BlockId};

use cdnsim::{BeaconDataset, DemandDataset};

use crate::error::CellspotError;

/// One block's joined observation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockObs {
    /// The block.
    pub block: BlockId,
    /// Origin AS.
    pub asn: Asn,
    /// NetInfo-enabled beacon hits (0 when the block never beaconed or no
    /// hit carried NetInfo data).
    pub netinfo_hits: u64,
    /// NetInfo hits labeled `cellular`.
    pub cellular_hits: u64,
    /// All beacon hits.
    pub beacon_hits: u64,
    /// Normalized Demand Units (0 when absent from DEMAND).
    pub du: f64,
}

impl BlockObs {
    /// Cellular ratio, `None` when no NetInfo hits exist (§4.1).
    pub fn cellular_ratio(&self) -> Option<f64> {
        if self.netinfo_hits == 0 {
            None
        } else {
            Some(self.cellular_hits as f64 / self.netinfo_hits as f64)
        }
    }
}

/// The joined dataset, sorted by block id.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockIndex {
    blocks: Vec<BlockObs>,
}

impl BlockIndex {
    /// Join BEACON and DEMAND on block id (full outer join).
    ///
    /// Both inputs must be sorted by block id with no duplicates — the
    /// dataset constructors guarantee this, and the merge join silently
    /// corrupts the output otherwise, so debug builds verify it.
    ///
    /// When both datasets carry a block but disagree on its origin AS,
    /// the DEMAND-side label wins, deterministically: DEMAND covers all
    /// traffic (Table 2's BEACON ⊂ DEMAND for IPv4), so its AS mapping
    /// reflects the broader routing view a disagreement would have come
    /// from. (The pre-fix code silently took the beacon-side ASN.) Use
    /// [`BlockIndex::try_build`] to reject such inputs instead — the
    /// [`Pipeline`](crate::Pipeline) entry points do.
    pub fn build(beacons: &BeaconDataset, demand: &DemandDataset) -> Self {
        Self::join(beacons, demand, false).expect("lenient join reconciles instead of failing")
    }

    /// [`BlockIndex::build`], but a BEACON/DEMAND disagreement on a
    /// block's origin AS is rejected as
    /// [`CellspotError::InconsistentDatasets`] instead of reconciled —
    /// mismatched labels mean the two datasets were produced against
    /// different routing tables, and every per-AS aggregate downstream
    /// would silently blend them.
    pub fn try_build(
        beacons: &BeaconDataset,
        demand: &DemandDataset,
    ) -> Result<Self, CellspotError> {
        Self::join(beacons, demand, true)
    }

    /// The shared merge join. `strict` decides what an ASN disagreement
    /// on a both-present block does: error out, or resolve to the
    /// demand-side label.
    fn join(
        beacons: &BeaconDataset,
        demand: &DemandDataset,
        strict: bool,
    ) -> Result<Self, CellspotError> {
        debug_assert!(
            beacons
                .iter()
                .zip(beacons.iter().skip(1))
                .all(|(a, b)| a.block < b.block),
            "BEACON input to BlockIndex::build must be strictly sorted by block id"
        );
        debug_assert!(
            demand
                .iter()
                .zip(demand.iter().skip(1))
                .all(|(a, b)| a.block < b.block),
            "DEMAND input to BlockIndex::build must be strictly sorted by block id"
        );
        let mut blocks = Vec::with_capacity(beacons.len().max(demand.len()));
        let mut b_iter = beacons.iter().peekable();
        let mut d_iter = demand.iter().peekable();
        loop {
            match (b_iter.peek(), d_iter.peek()) {
                (Some(b), Some(d)) => {
                    if b.block < d.block {
                        let b = b_iter.next().expect("peeked");
                        blocks.push(BlockObs {
                            block: b.block,
                            asn: b.asn,
                            netinfo_hits: b.netinfo_hits,
                            cellular_hits: b.cellular_hits,
                            beacon_hits: b.hits_total,
                            du: 0.0,
                        });
                    } else if d.block < b.block {
                        let d = d_iter.next().expect("peeked");
                        blocks.push(BlockObs {
                            block: d.block,
                            asn: d.asn,
                            netinfo_hits: 0,
                            cellular_hits: 0,
                            beacon_hits: 0,
                            du: d.du,
                        });
                    } else {
                        let b = b_iter.next().expect("peeked");
                        let d = d_iter.next().expect("peeked");
                        if strict && b.asn != d.asn {
                            return Err(CellspotError::InconsistentDatasets(format!(
                                "block {:?} is labeled AS{} in BEACON but AS{} in DEMAND",
                                b.block,
                                b.asn.value(),
                                d.asn.value()
                            )));
                        }
                        blocks.push(BlockObs {
                            block: b.block,
                            // Demand-side label (they agree on consistent
                            // inputs; see the build/try_build docs).
                            asn: d.asn,
                            netinfo_hits: b.netinfo_hits,
                            cellular_hits: b.cellular_hits,
                            beacon_hits: b.hits_total,
                            du: d.du,
                        });
                    }
                }
                (Some(_), None) => {
                    let b = b_iter.next().expect("peeked");
                    blocks.push(BlockObs {
                        block: b.block,
                        asn: b.asn,
                        netinfo_hits: b.netinfo_hits,
                        cellular_hits: b.cellular_hits,
                        beacon_hits: b.hits_total,
                        du: 0.0,
                    });
                }
                (None, Some(_)) => {
                    let d = d_iter.next().expect("peeked");
                    blocks.push(BlockObs {
                        block: d.block,
                        asn: d.asn,
                        netinfo_hits: 0,
                        cellular_hits: 0,
                        beacon_hits: 0,
                        du: d.du,
                    });
                }
                (None, None) => break,
            }
        }
        Ok(BlockIndex { blocks })
    }

    /// Number of joined blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the join is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// All observations, ordered by block id.
    pub fn iter(&self) -> impl Iterator<Item = &BlockObs> {
        self.blocks.iter()
    }

    /// The observations as a slice (ordered by block id) — lets callers
    /// chunk the join for deterministic parallel aggregation.
    pub fn as_slice(&self) -> &[BlockObs] {
        &self.blocks
    }

    /// Binary-search lookup.
    pub fn get(&self, block: BlockId) -> Option<&BlockObs> {
        self.blocks
            .binary_search_by_key(&block, |b| b.block)
            .ok()
            .map(|i| &self.blocks[i])
    }

    /// (IPv4, IPv6) block counts in the join.
    pub fn block_counts(&self) -> (usize, usize) {
        let v4 = self.blocks.iter().filter(|b| b.block.is_v4()).count();
        (v4, self.blocks.len() - v4)
    }

    /// Total demand in the join (≈ 100,000 DU for a full platform join).
    pub fn total_du(&self) -> f64 {
        self.blocks.iter().map(|b| b.du).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnsim::{BeaconRecord, DemandRecord};
    use netaddr::Block24;

    fn b(i: u32) -> BlockId {
        BlockId::V4(Block24::from_index(i))
    }

    fn beacon(i: u32, netinfo: u64, cell: u64) -> BeaconRecord {
        BeaconRecord {
            block: b(i),
            asn: Asn(1),
            hits_total: netinfo * 8,
            netinfo_hits: netinfo,
            cellular_hits: cell,
            wifi_hits: netinfo - cell,
            other_hits: 0,
        }
    }

    fn demand(i: u32, du: f64) -> DemandRecord {
        DemandRecord {
            block: b(i),
            asn: Asn(1),
            du,
        }
    }

    #[test]
    fn full_outer_join() {
        let beacons = BeaconDataset::from_records("t", vec![beacon(1, 10, 9), beacon(3, 4, 0)]);
        let dem = DemandDataset::from_raw("t", vec![demand(1, 3.0), demand(2, 1.0)]);
        let idx = BlockIndex::build(&beacons, &dem);
        assert_eq!(idx.len(), 3);
        // Block 1: joined.
        let o1 = idx.get(b(1)).unwrap();
        assert_eq!(o1.netinfo_hits, 10);
        assert!((o1.du - 75_000.0).abs() < 1e-6);
        assert!((o1.cellular_ratio().unwrap() - 0.9).abs() < 1e-12);
        // Block 2: demand only.
        let o2 = idx.get(b(2)).unwrap();
        assert_eq!(o2.netinfo_hits, 0);
        assert_eq!(o2.cellular_ratio(), None);
        assert!(o2.du > 0.0);
        // Block 3: beacon only.
        let o3 = idx.get(b(3)).unwrap();
        assert_eq!(o3.du, 0.0);
        assert_eq!(o3.cellular_ratio(), Some(0.0));
        assert!(idx.get(b(9)).is_none());
    }

    #[test]
    fn mismatched_asn_join_reconciles_or_rejects() {
        // Block 1 is labeled AS1 by BEACON but AS7 by DEMAND.
        let mut d1 = demand(1, 3.0);
        d1.asn = Asn(7);
        let beacons = BeaconDataset::from_records("t", vec![beacon(1, 10, 9), beacon(3, 4, 0)]);
        let dem = DemandDataset::from_raw("t", vec![d1, demand(2, 1.0)]);

        // Lenient build reconciles deterministically: demand-side wins
        // (the pre-fix code silently took the beacon side instead).
        let idx = BlockIndex::build(&beacons, &dem);
        assert_eq!(idx.get(b(1)).unwrap().asn, Asn(7));
        // One-sided blocks keep their only label.
        assert_eq!(idx.get(b(2)).unwrap().asn, Asn(1));
        assert_eq!(idx.get(b(3)).unwrap().asn, Asn(1));
        // The rest of the joined observation is intact.
        let o1 = idx.get(b(1)).unwrap();
        assert_eq!(o1.netinfo_hits, 10);
        assert!(o1.du > 0.0);

        // Strict build rejects, naming the block and both labels.
        let err =
            BlockIndex::try_build(&beacons, &dem).expect_err("mismatched ASN must be rejected");
        let msg = err.to_string();
        assert!(msg.contains("AS1"), "beacon label in {msg:?}");
        assert!(msg.contains("AS7"), "demand label in {msg:?}");
    }

    #[test]
    fn consistent_inputs_build_identically_strict_or_not() {
        let beacons = BeaconDataset::from_records("t", vec![beacon(1, 10, 9), beacon(3, 4, 0)]);
        let dem = DemandDataset::from_raw("t", vec![demand(1, 3.0), demand(2, 1.0)]);
        let lenient = BlockIndex::build(&beacons, &dem);
        let strict = BlockIndex::try_build(&beacons, &dem).expect("consistent inputs");
        assert_eq!(lenient.len(), strict.len());
        for (a, c) in lenient.iter().zip(strict.iter()) {
            assert_eq!(a, c);
        }
    }

    #[test]
    fn join_is_sorted_and_counts() {
        let beacons = BeaconDataset::from_records(
            "t",
            vec![beacon(5, 1, 1), beacon(1, 1, 0), beacon(3, 1, 1)],
        );
        let dem = DemandDataset::from_raw("t", vec![demand(2, 1.0), demand(4, 1.0)]);
        let idx = BlockIndex::build(&beacons, &dem);
        let ids: Vec<_> = idx.iter().map(|o| o.block).collect();
        assert_eq!(ids, vec![b(1), b(2), b(3), b(4), b(5)]);
        assert_eq!(idx.block_counts(), (5, 0));
        assert!((idx.total_du() - 100_000.0).abs() < 1e-6);
    }
}
