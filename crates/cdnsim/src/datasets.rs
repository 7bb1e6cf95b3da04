//! The two observable datasets of the study (Table 2).

use netaddr::{Asn, BlockId};

/// Per-block aggregate of RUM beacon hits for the collection month.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BeaconRecord {
    /// The /24 or /48 block the client IPs aggregate into.
    pub block: BlockId,
    /// Origin AS (the CDN maps client IPs through BGP feeds).
    pub asn: Asn,
    /// All beacon hits, regardless of NetInfo availability.
    pub hits_total: u64,
    /// Hits that carried Network Information API data.
    pub netinfo_hits: u64,
    /// NetInfo hits whose ConnectionType was `cellular`.
    pub cellular_hits: u64,
    /// NetInfo hits whose ConnectionType was `wifi`.
    pub wifi_hits: u64,
    /// NetInfo hits with any other ConnectionType.
    pub other_hits: u64,
}

impl BeaconRecord {
    /// The cellular ratio: cellular hits over NetInfo-enabled hits, or
    /// `None` when no hit carried NetInfo data (the block cannot be
    /// classified).
    pub fn cellular_ratio(&self) -> Option<f64> {
        if self.netinfo_hits == 0 {
            None
        } else {
            Some(self.cellular_hits as f64 / self.netinfo_hits as f64)
        }
    }
}

/// The BEACON dataset: one month of RUM beacons aggregated per block,
/// sorted by block id.
#[derive(Clone, Debug, Default)]
pub struct BeaconDataset {
    /// Collection period label (e.g. `2016-12`).
    pub period: String,
    records: Vec<BeaconRecord>,
}

impl BeaconDataset {
    /// Build from unsorted records: sorts by block and merges duplicate
    /// blocks by summing their hit counters (first record's AS wins).
    ///
    /// The generators never emit duplicates, but CSV inputs reaching the
    /// CLI can — silently keeping both rows would corrupt the merge join
    /// in `BlockIndex::build`, so duplicates are folded into one record
    /// here, in release builds too.
    pub fn from_records(period: impl Into<String>, mut records: Vec<BeaconRecord>) -> Self {
        records.sort_by_key(|r| r.block);
        records.dedup_by(|dup, keep| {
            if dup.block != keep.block {
                return false;
            }
            keep.hits_total += dup.hits_total;
            keep.netinfo_hits += dup.netinfo_hits;
            keep.cellular_hits += dup.cellular_hits;
            keep.wifi_hits += dup.wifi_hits;
            keep.other_hits += dup.other_hits;
            true
        });
        BeaconDataset {
            period: period.into(),
            records,
        }
    }

    /// Number of blocks observed.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no blocks were observed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, ordered by block id.
    pub fn iter(&self) -> impl Iterator<Item = &BeaconRecord> {
        self.records.iter()
    }

    /// Binary-search lookup by block.
    pub fn get(&self, block: BlockId) -> Option<&BeaconRecord> {
        self.records
            .binary_search_by_key(&block, |r| r.block)
            .ok()
            .map(|i| &self.records[i])
    }

    /// (IPv4, IPv6) block counts — Table 2's BEACON row.
    pub fn block_counts(&self) -> (usize, usize) {
        let v4 = self.records.iter().filter(|r| r.block.is_v4()).count();
        (v4, self.records.len() - v4)
    }

    /// Total NetInfo-enabled hits across the dataset.
    pub fn netinfo_hits_total(&self) -> u64 {
        self.records.iter().map(|r| r.netinfo_hits).sum()
    }

    /// Total beacon hits across the dataset.
    pub fn hits_total(&self) -> u64 {
        self.records.iter().map(|r| r.hits_total).sum()
    }
}

/// Per-block demand after normalization: Demand Units out of 100,000
/// across the whole platform (1,000 DU = 1% of global request demand).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DemandRecord {
    /// The /24 or /48 block.
    pub block: BlockId,
    /// Origin AS.
    pub asn: Asn,
    /// Normalized Demand Units.
    pub du: f64,
}

/// The DEMAND dataset: one smoothed week of platform-wide request demand,
/// sorted by block id and normalized to 100,000 DU.
#[derive(Clone, Debug, Default)]
pub struct DemandDataset {
    /// Collection period label (e.g. `2016-12-24..2016-12-31`).
    pub period: String,
    records: Vec<DemandRecord>,
}

/// Total Demand Units across the platform (`1,000 DU = 1%`).
pub const TOTAL_DU: f64 = 100_000.0;

impl DemandDataset {
    /// Build from unsorted, unnormalized records: sorts by block, merges
    /// duplicate blocks by summing their demand (first record's AS wins),
    /// and rescales so the dataset sums to [`TOTAL_DU`].
    ///
    /// Sorting happens *before* the normalization sum so the float total —
    /// and therefore every normalized DU value — depends only on the
    /// multiset of records, never on input order. The streaming ingest
    /// engine (`cellstream`) relies on this to reproduce batch output
    /// bit-for-bit from shard-merged records.
    pub fn from_raw(period: impl Into<String>, mut records: Vec<DemandRecord>) -> Self {
        records.retain(|r| r.du > 0.0);
        records.sort_by_key(|r| r.block);
        records.dedup_by(|dup, keep| {
            if dup.block != keep.block {
                return false;
            }
            keep.du += dup.du;
            true
        });
        let total: f64 = records.iter().map(|r| r.du).sum();
        if total > 0.0 {
            let scale = TOTAL_DU / total;
            for r in &mut records {
                r.du *= scale;
            }
        }
        DemandDataset {
            period: period.into(),
            records,
        }
    }

    /// Number of blocks with demand.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, ordered by block id.
    pub fn iter(&self) -> impl Iterator<Item = &DemandRecord> {
        self.records.iter()
    }

    /// Binary-search lookup by block.
    pub fn get(&self, block: BlockId) -> Option<&DemandRecord> {
        self.records
            .binary_search_by_key(&block, |r| r.block)
            .ok()
            .map(|i| &self.records[i])
    }

    /// Demand Units for a block, zero when absent.
    pub fn du(&self, block: BlockId) -> f64 {
        self.get(block).map(|r| r.du).unwrap_or(0.0)
    }

    /// (IPv4, IPv6) block counts — Table 2's DEMAND row.
    pub fn block_counts(&self) -> (usize, usize) {
        let v4 = self.records.iter().filter(|r| r.block.is_v4()).count();
        (v4, self.records.len() - v4)
    }

    /// Sum of DU over the dataset (≈ [`TOTAL_DU`] after normalization).
    pub fn total_du(&self) -> f64 {
        self.records.iter().map(|r| r.du).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaddr::{Block24, Block48};

    fn b4(i: u32) -> BlockId {
        BlockId::V4(Block24::from_index(i))
    }

    fn b6(i: u64) -> BlockId {
        BlockId::V6(Block48::from_index(i))
    }

    #[test]
    fn beacon_ratio_handles_empty_netinfo() {
        let r = BeaconRecord {
            block: b4(1),
            asn: Asn(64500),
            hits_total: 10,
            netinfo_hits: 0,
            cellular_hits: 0,
            wifi_hits: 0,
            other_hits: 0,
        };
        assert_eq!(r.cellular_ratio(), None);
        let r = BeaconRecord {
            netinfo_hits: 8,
            cellular_hits: 6,
            ..r
        };
        assert!((r.cellular_ratio().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn beacon_dataset_sorts_and_looks_up() {
        let mk = |i: u32| BeaconRecord {
            block: b4(i),
            asn: Asn(1),
            hits_total: i as u64,
            netinfo_hits: 0,
            cellular_hits: 0,
            wifi_hits: 0,
            other_hits: 0,
        };
        let ds = BeaconDataset::from_records("t", vec![mk(5), mk(1), mk(3)]);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.get(b4(3)).unwrap().hits_total, 3);
        assert!(ds.get(b4(2)).is_none());
        let blocks: Vec<_> = ds.iter().map(|r| r.block).collect();
        assert_eq!(blocks, vec![b4(1), b4(3), b4(5)]);
    }

    #[test]
    fn demand_normalizes_to_100k() {
        let ds = DemandDataset::from_raw(
            "w",
            vec![
                DemandRecord {
                    block: b4(1),
                    asn: Asn(1),
                    du: 3.0,
                },
                DemandRecord {
                    block: b6(2),
                    asn: Asn(2),
                    du: 1.0,
                },
                DemandRecord {
                    block: b4(9),
                    asn: Asn(1),
                    du: 0.0, // dropped
                },
            ],
        );
        assert_eq!(ds.len(), 2);
        assert!((ds.total_du() - TOTAL_DU).abs() < 1e-6);
        assert!((ds.du(b4(1)) - 75_000.0).abs() < 1e-6);
        assert_eq!(ds.du(b4(9)), 0.0);
        assert_eq!(ds.block_counts(), (1, 1));
    }

    #[test]
    fn duplicate_beacon_blocks_are_merged() {
        let mk = |asn: u32, hits: u64, cell: u64| BeaconRecord {
            block: b4(7),
            asn: Asn(asn),
            hits_total: hits,
            netinfo_hits: hits,
            cellular_hits: cell,
            wifi_hits: hits - cell,
            other_hits: 0,
        };
        let ds = BeaconDataset::from_records("t", vec![mk(1, 10, 4), mk(2, 30, 6)]);
        assert_eq!(ds.len(), 1);
        let r = ds.get(b4(7)).unwrap();
        assert_eq!(r.asn, Asn(1), "first record's AS wins");
        assert_eq!(r.hits_total, 40);
        assert_eq!(r.netinfo_hits, 40);
        assert_eq!(r.cellular_hits, 10);
        assert_eq!(r.wifi_hits, 30);
        assert_eq!(
            r.cellular_hits + r.wifi_hits + r.other_hits,
            r.netinfo_hits,
            "merged labels still partition netinfo hits"
        );
    }

    #[test]
    fn duplicate_demand_blocks_are_merged_before_normalization() {
        let mk = |i: u32, du: f64| DemandRecord {
            block: b4(i),
            asn: Asn(1),
            du,
        };
        let ds = DemandDataset::from_raw("t", vec![mk(1, 2.0), mk(2, 1.0), mk(1, 1.0)]);
        assert_eq!(ds.len(), 2);
        // Merged block 1 carries 3/4 of the raw demand.
        assert!((ds.du(b4(1)) - 75_000.0).abs() < 1e-6);
        assert!((ds.total_du() - TOTAL_DU).abs() < 1e-6);
    }

    #[test]
    fn demand_normalization_is_input_order_independent() {
        let mk = |i: u32, du: f64| DemandRecord {
            block: b4(i),
            asn: Asn(1),
            du,
        };
        let rows = vec![mk(3, 0.1234), mk(1, 9.77), mk(2, 0.001), mk(5, 3.3)];
        let mut rev = rows.clone();
        rev.reverse();
        let a = DemandDataset::from_raw("t", rows);
        let b = DemandDataset::from_raw("t", rev);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.block, y.block);
            assert_eq!(
                x.du.to_bits(),
                y.du.to_bits(),
                "bit-identical normalization"
            );
        }
    }
}
