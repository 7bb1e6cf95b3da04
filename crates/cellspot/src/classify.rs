//! Threshold classification of blocks (§4.1).
//!
//! A block is labeled cellular when its cellular ratio — cellular NetInfo
//! hits over all NetInfo hits — meets the threshold. Blocks without
//! NetInfo data cannot be classified and default to non-cellular, which
//! is what gives the method its "lower bound with high confidence"
//! character (§4.2): inactive cellular space surfaces as false negatives,
//! almost never as false positives.

use netaddr::{Asn, BlockId};

use crate::index::BlockIndex;
use crate::stats::Ecdf;

/// The paper's operating threshold: a simple majority (§4.2).
pub const DEFAULT_THRESHOLD: f64 = 0.5;

/// The set of blocks labeled cellular at a given threshold.
#[derive(Clone, Debug, PartialEq)]
pub struct Classification {
    /// The ratio threshold used.
    pub threshold: f64,
    /// Cellular-labeled blocks with their origin AS, sorted by block id.
    cellular: Vec<(BlockId, Asn)>,
}

impl Classification {
    /// Classify every block in the index at `threshold`.
    pub fn new(index: &BlockIndex, threshold: f64) -> Self {
        let cellular = index
            .iter()
            .filter(|o| matches!(o.cellular_ratio(), Some(r) if r >= threshold))
            .map(|o| (o.block, o.asn))
            .collect();
        Classification {
            threshold,
            cellular,
        }
    }

    /// Classify at the paper's default 0.5 threshold.
    pub fn with_default_threshold(index: &BlockIndex) -> Self {
        Self::new(index, DEFAULT_THRESHOLD)
    }

    /// Number of cellular-labeled blocks.
    pub fn len(&self) -> usize {
        self.cellular.len()
    }

    /// True when nothing was labeled cellular.
    pub fn is_empty(&self) -> bool {
        self.cellular.is_empty()
    }

    /// Is the block labeled cellular?
    pub fn is_cellular(&self, block: BlockId) -> bool {
        self.cellular
            .binary_search_by_key(&block, |(b, _)| *b)
            .is_ok()
    }

    /// All cellular-labeled blocks in order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, Asn)> + '_ {
        self.cellular.iter().copied()
    }

    /// (IPv4 /24, IPv6 /48) cellular block counts — the headline numbers
    /// (350,687 and 23,230 in the paper).
    pub fn block_counts(&self) -> (usize, usize) {
        let v4 = self.cellular.iter().filter(|(b, _)| b.is_v4()).count();
        (v4, self.cellular.len() - v4)
    }
}

/// Fig. 2's four distributions: cellular-ratio CDFs for IPv4 and IPv6
/// blocks, by subnet count and weighted by demand.
#[derive(Clone, Debug, PartialEq)]
pub struct RatioDistributions {
    /// CDF of ratios over IPv4 blocks.
    pub v4_subnets: Ecdf,
    /// CDF of ratios over IPv4 blocks weighted by DU.
    pub v4_demand: Ecdf,
    /// CDF of ratios over IPv6 blocks.
    pub v6_subnets: Ecdf,
    /// CDF of ratios over IPv6 blocks weighted by DU.
    pub v6_demand: Ecdf,
}

impl RatioDistributions {
    /// Build all four distributions from the joined index. Blocks without
    /// NetInfo data are excluded (they have no ratio).
    pub fn build(index: &BlockIndex) -> Self {
        let mut v4s = Vec::new();
        let mut v4d = Vec::new();
        let mut v6s = Vec::new();
        let mut v6d = Vec::new();
        for o in index.iter() {
            if let Some(r) = o.cellular_ratio() {
                if o.block.is_v4() {
                    v4s.push(r);
                    v4d.push((r, o.du));
                } else {
                    v6s.push(r);
                    v6d.push((r, o.du));
                }
            }
        }
        RatioDistributions {
            v4_subnets: Ecdf::new(v4s),
            v4_demand: Ecdf::weighted(v4d),
            v6_subnets: Ecdf::new(v6s),
            v6_demand: Ecdf::weighted(v6d),
        }
    }

    /// The paper's Fig. 2 summary cuts: fraction below 0.1, fraction above
    /// 0.9, and the intermediate remainder, for a given CDF.
    pub fn cuts(cdf: &Ecdf) -> (f64, f64, f64) {
        let below = cdf.eval(0.1 - 1e-12);
        let above = 1.0 - cdf.eval(0.9);
        (below, above, (1.0 - below - above).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnsim::{BeaconDataset, BeaconRecord, DemandDataset, DemandRecord};
    use netaddr::Block24;

    fn b(i: u32) -> BlockId {
        BlockId::V4(Block24::from_index(i))
    }

    fn index_from(rows: &[(u32, u64, u64, f64)]) -> BlockIndex {
        let beacons = BeaconDataset::from_records(
            "t",
            rows.iter()
                .filter(|(_, n, _, _)| *n > 0)
                .map(|&(i, netinfo, cell, _)| BeaconRecord {
                    block: b(i),
                    asn: Asn(1),
                    hits_total: netinfo,
                    netinfo_hits: netinfo,
                    cellular_hits: cell,
                    wifi_hits: netinfo - cell,
                    other_hits: 0,
                })
                .collect(),
        );
        let demand = DemandDataset::from_raw(
            "t",
            rows.iter()
                .map(|&(i, _, _, du)| DemandRecord {
                    block: b(i),
                    asn: Asn(1),
                    du,
                })
                .collect(),
        );
        BlockIndex::build(&beacons, &demand)
    }

    #[test]
    fn threshold_is_inclusive_and_unclassified_default_noncellular() {
        // (block, netinfo, cellular, du)
        let idx = index_from(&[
            (1, 10, 5, 1.0),  // ratio 0.5  → cellular at 0.5
            (2, 10, 4, 1.0),  // ratio 0.4  → not
            (3, 0, 0, 1.0),   // no NetInfo → not classifiable
            (4, 10, 10, 1.0), // ratio 1.0  → cellular
        ]);
        let c = Classification::with_default_threshold(&idx);
        assert!(c.is_cellular(b(1)));
        assert!(!c.is_cellular(b(2)));
        assert!(!c.is_cellular(b(3)));
        assert!(c.is_cellular(b(4)));
        assert_eq!(c.len(), 2);
        assert_eq!(c.block_counts(), (2, 0));
    }

    #[test]
    fn higher_threshold_shrinks_the_set() {
        let idx = index_from(&[(1, 10, 5, 1.0), (2, 10, 9, 1.0), (3, 10, 10, 1.0)]);
        let loose = Classification::new(&idx, 0.1);
        let strict = Classification::new(&idx, 0.95);
        assert!(loose.len() >= strict.len());
        assert_eq!(loose.len(), 3);
        assert_eq!(strict.len(), 1);
        // Monotone containment.
        for (block, _) in strict.iter() {
            assert!(loose.is_cellular(block));
        }
    }

    #[test]
    fn ratio_distributions_cuts() {
        let idx = index_from(&[
            (1, 100, 0, 10.0),
            (2, 100, 2, 10.0),
            (3, 100, 98, 1.0),
            (4, 100, 100, 1.0),
            (5, 100, 50, 78.0),
        ]);
        let dist = RatioDistributions::build(&idx);
        let (below, above, mid) = RatioDistributions::cuts(&dist.v4_subnets);
        assert!((below - 0.4).abs() < 1e-9, "below {below}");
        assert!((above - 0.4).abs() < 1e-9, "above {above}");
        assert!((mid - 0.2).abs() < 1e-9, "mid {mid}");
        // Demand-weighted: the middle block carries most demand.
        let (_, _, mid_d) = RatioDistributions::cuts(&dist.v4_demand);
        assert!(mid_d > 0.7, "demand-weighted middle {mid_d}");
        assert!(dist.v6_subnets.is_empty());
    }
}
