//! Validation metrics (§4.2, Table 3): confusion matrices, precision,
//! recall and F1 against carrier ground truth, both by CIDR count and
//! weighted by each block's traffic demand.

use asdb::{AccessType, CarrierGroundTruth};

use crate::classify::Classification;
use crate::index::BlockIndex;

/// A (possibly demand-weighted) confusion matrix.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Confusion {
    /// Ground-truth cellular, classified cellular.
    pub tp: f64,
    /// Ground-truth fixed, classified cellular.
    pub fp: f64,
    /// Ground-truth fixed, classified fixed.
    pub tn: f64,
    /// Ground-truth cellular, classified fixed.
    pub fn_: f64,
}

impl Confusion {
    /// Precision: TP / (TP + FP); 0 when no positives were predicted.
    pub fn precision(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom > 0.0 {
            self.tp / denom
        } else {
            0.0
        }
    }

    /// Recall: TP / (TP + FN); 0 when no ground-truth positives exist.
    pub fn recall(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom > 0.0 {
            self.tp / denom
        } else {
            0.0
        }
    }

    /// F1: harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r > 0.0 {
            2.0 * p * r / (p + r)
        } else {
            0.0
        }
    }

    /// Accuracy: (TP + TN) / total.
    pub fn accuracy(&self) -> f64 {
        let total = self.tp + self.fp + self.tn + self.fn_;
        if total > 0.0 {
            (self.tp + self.tn) / total
        } else {
            0.0
        }
    }
}

/// One carrier's Table 3 row pair: CIDR-count and demand-weighted
/// confusion matrices.
#[derive(Clone, Debug, PartialEq)]
pub struct CarrierValidation {
    /// Carrier codename.
    pub carrier: String,
    /// Counting blocks.
    pub by_cidr: Confusion,
    /// Weighting blocks by Demand Units.
    pub by_demand: Confusion,
}

/// Validate a classification against one carrier's ground truth.
///
/// Every /24 the ground truth covers is scored: blocks the classifier
/// never saw (no beacons at all) count as classified non-cellular — this
/// is exactly how the paper's validation produces its large CIDR-level
/// false-negative counts for carriers with much inactive cellular space.
pub fn validate_carrier(
    gt: &CarrierGroundTruth,
    classification: &Classification,
    index: &BlockIndex,
) -> CarrierValidation {
    let mut by_cidr = Confusion::default();
    let mut by_demand = Confusion::default();
    for (block, truth) in gt.blocks24() {
        let id = netaddr::BlockId::V4(block);
        let predicted_cell = classification.is_cellular(id);
        let du = index.get(id).map(|o| o.du).unwrap_or(0.0);
        match (truth, predicted_cell) {
            (AccessType::Cellular, true) => {
                by_cidr.tp += 1.0;
                by_demand.tp += du;
            }
            (AccessType::Cellular, false) => {
                by_cidr.fn_ += 1.0;
                by_demand.fn_ += du;
            }
            (AccessType::Fixed, true) => {
                by_cidr.fp += 1.0;
                by_demand.fp += du;
            }
            (AccessType::Fixed, false) => {
                by_cidr.tn += 1.0;
                by_demand.tn += du;
            }
        }
    }
    CarrierValidation {
        carrier: gt.name.clone(),
        by_cidr,
        by_demand,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb::GroundTruthEntry;
    use cdnsim::{BeaconDataset, BeaconRecord, DemandDataset, DemandRecord};
    use netaddr::{Asn, Block24, BlockId, Ipv4Net};

    #[test]
    fn confusion_metrics() {
        let c = Confusion {
            tp: 8.0,
            fp: 2.0,
            tn: 85.0,
            fn_: 5.0,
        };
        assert!((c.precision() - 0.8).abs() < 1e-12);
        assert!((c.recall() - 8.0 / 13.0).abs() < 1e-12);
        let f1 = c.f1();
        assert!((f1 - 2.0 * 0.8 * (8.0 / 13.0) / (0.8 + 8.0 / 13.0)).abs() < 1e-12);
        assert!((c.accuracy() - 0.93).abs() < 1e-12);
        // Degenerate cases return 0, never NaN.
        let z = Confusion::default();
        assert_eq!(z.precision(), 0.0);
        assert_eq!(z.recall(), 0.0);
        assert_eq!(z.f1(), 0.0);
        assert_eq!(z.accuracy(), 0.0);
    }

    #[test]
    fn carrier_validation_counts_and_weights() {
        // Ground truth: 4 cellular /24s (10.0.0-3), 4 fixed (10.1.0-3).
        let gt = CarrierGroundTruth::new(
            "T",
            vec![Asn(64500)],
            vec![
                GroundTruthEntry::V4(
                    "10.0.0.0/22".parse::<Ipv4Net>().unwrap(),
                    AccessType::Cellular,
                ),
                GroundTruthEntry::V4("10.1.0.0/22".parse::<Ipv4Net>().unwrap(), AccessType::Fixed),
            ],
        );
        // Beacons: 2 cellular blocks detected, 1 fixed misdetected, 1
        // cellular block active but below threshold, rest unobserved.
        let beacon = |addr: u32, netinfo: u64, cell: u64| BeaconRecord {
            block: BlockId::V4(Block24::of_addr(addr)),
            asn: Asn(64500),
            hits_total: netinfo,
            netinfo_hits: netinfo,
            cellular_hits: cell,
            wifi_hits: netinfo - cell,
            other_hits: 0,
        };
        let beacons = BeaconDataset::from_records(
            "t",
            vec![
                beacon(0x0A000000, 100, 95), // TP
                beacon(0x0A000100, 100, 80), // TP
                beacon(0x0A000200, 100, 10), // FN (active, low ratio)
                beacon(0x0A010000, 100, 60), // FP (fixed, high ratio)
            ],
        );
        let demand = DemandDataset::from_raw(
            "t",
            vec![
                DemandRecord {
                    block: BlockId::V4(Block24::of_addr(0x0A000000)),
                    asn: Asn(64500),
                    du: 70.0,
                },
                DemandRecord {
                    block: BlockId::V4(Block24::of_addr(0x0A000200)),
                    asn: Asn(64500),
                    du: 20.0,
                },
                DemandRecord {
                    block: BlockId::V4(Block24::of_addr(0x0A010000)),
                    asn: Asn(64500),
                    du: 10.0,
                },
            ],
        );
        let index = BlockIndex::build(&beacons, &demand);
        let c = Classification::with_default_threshold(&index);
        let v = validate_carrier(&gt, &c, &index);

        assert_eq!(v.by_cidr.tp, 2.0);
        assert_eq!(v.by_cidr.fn_, 2.0); // 1 low-ratio + 1 never observed
        assert_eq!(v.by_cidr.fp, 1.0);
        assert_eq!(v.by_cidr.tn, 3.0);
        assert!((v.by_cidr.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((v.by_cidr.recall() - 0.5).abs() < 1e-12);

        // Demand weighting: DU normalization rescales 70/20/10 to sum
        // 100,000; ratios are preserved.
        assert!((v.by_demand.tp / v.by_demand.fn_ - 70.0 / 20.0).abs() < 1e-9);
        assert!((v.by_demand.recall() - 7.0 / 9.0).abs() < 1e-9);
        assert!(
            v.by_demand.recall() > v.by_cidr.recall(),
            "Table 3's pattern"
        );
    }
}
