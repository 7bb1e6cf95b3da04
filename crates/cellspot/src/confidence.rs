//! Confidence-aware classification — an extension of the paper's plain
//! ratio threshold.
//!
//! The paper classifies on the raw cellular ratio, acknowledging that
//! sparsely-sampled blocks are noisy (§4.1). This module quantifies that
//! noise with the Wilson score interval on the binomial cellular-hit
//! proportion and splits blocks into three classes: **cellular** (the
//! interval's lower bound clears the threshold), **non-cellular** (its
//! upper bound stays below), and **uncertain** (the interval straddles
//! the threshold — typically blocks with a handful of NetInfo hits).
//!
//! This turns the paper's qualitative "our labels are a lower bound with
//! high confidence" into an explicit evidence requirement, and the
//! `ext-confidence` experiment reports how much of the cellular set and
//! its demand survives increasingly strict evidence levels.

use crate::index::BlockIndex;

/// Wilson score interval for a binomial proportion: the range of true
/// rates consistent with `successes` out of `trials` at confidence level
/// `z` (1.96 ≈ 95%, 2.58 ≈ 99%). Returns `(0, 1)` when there are no
/// trials — no evidence constrains nothing.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    if z <= 0.0 {
        return (p, p);
    }
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// A block's evidence-aware label.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfidentLabel {
    /// The Wilson lower bound clears the threshold.
    Cellular,
    /// The Wilson upper bound stays below the threshold.
    NonCellular,
    /// The interval straddles the threshold: more evidence needed.
    Uncertain,
}

/// Aggregate outcome of confidence-aware classification.
#[derive(Clone, Debug, Default)]
pub struct ConfidenceSummary {
    /// Confidence parameter used.
    pub z: f64,
    /// Blocks confidently cellular.
    pub cellular: usize,
    /// Blocks confidently non-cellular.
    pub non_cellular: usize,
    /// Blocks with straddling intervals.
    pub uncertain: usize,
    /// DU on confidently-cellular blocks.
    pub cellular_du: f64,
    /// DU on uncertain blocks.
    pub uncertain_du: f64,
}

impl ConfidenceSummary {
    /// Blocks with a defined ratio, total.
    pub fn classified(&self) -> usize {
        self.cellular + self.non_cellular + self.uncertain
    }

    /// Fraction of ratio-bearing blocks left uncertain at this evidence
    /// level.
    pub fn uncertain_fraction(&self) -> f64 {
        let total = self.classified();
        if total > 0 {
            self.uncertain as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// Label one observation at threshold `t` and confidence `z`.
pub fn confident_label(
    cellular_hits: u64,
    netinfo_hits: u64,
    threshold: f64,
    z: f64,
) -> Option<ConfidentLabel> {
    if netinfo_hits == 0 {
        return None;
    }
    let (lo, hi) = wilson_interval(cellular_hits, netinfo_hits, z);
    Some(if lo >= threshold {
        ConfidentLabel::Cellular
    } else if hi < threshold {
        ConfidentLabel::NonCellular
    } else {
        ConfidentLabel::Uncertain
    })
}

/// Classify the whole index with an evidence requirement.
pub fn classify_with_confidence(index: &BlockIndex, threshold: f64, z: f64) -> ConfidenceSummary {
    let mut s = ConfidenceSummary {
        z,
        ..Default::default()
    };
    for o in index.iter() {
        match confident_label(o.cellular_hits, o.netinfo_hits, threshold, z) {
            Some(ConfidentLabel::Cellular) => {
                s.cellular += 1;
                s.cellular_du += o.du;
            }
            Some(ConfidentLabel::NonCellular) => s.non_cellular += 1,
            Some(ConfidentLabel::Uncertain) => {
                s.uncertain += 1;
                s.uncertain_du += o.du;
            }
            None => {}
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_known_values() {
        // 8/10 at 95%: the classic Wilson interval ≈ (0.49, 0.94).
        let (lo, hi) = wilson_interval(8, 10, 1.96);
        assert!((lo - 0.49).abs() < 0.01, "lo {lo}");
        assert!((hi - 0.943).abs() < 0.01, "hi {hi}");
        // No trials → vacuous interval.
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
        // z = 0 collapses to the point estimate.
        let (lo, hi) = wilson_interval(3, 4, 0.0);
        assert_eq!((lo, hi), (0.75, 0.75));
        // Extremes stay within [0, 1].
        let (lo, hi) = wilson_interval(10, 10, 3.0);
        assert!(lo > 0.5 && hi <= 1.0);
        let (lo, _) = wilson_interval(0, 10, 3.0);
        assert!(lo.abs() < 1e-12, "lo {lo}");
    }

    #[test]
    fn interval_narrows_with_evidence() {
        let narrow = wilson_interval(800, 1000, 1.96);
        let wide = wilson_interval(8, 10, 1.96);
        assert!(narrow.1 - narrow.0 < wide.1 - wide.0);
        // Both centered near 0.8.
        assert!((0.75..0.85).contains(&((narrow.0 + narrow.1) / 2.0)));
    }

    #[test]
    fn labels_by_evidence() {
        // 1/1 hit: ratio 1.0 but uncertain at 95%.
        assert_eq!(
            confident_label(1, 1, 0.5, 1.96),
            Some(ConfidentLabel::Uncertain)
        );
        // 95/100: confidently cellular.
        assert_eq!(
            confident_label(95, 100, 0.5, 1.96),
            Some(ConfidentLabel::Cellular)
        );
        // 2/100: confidently not.
        assert_eq!(
            confident_label(2, 100, 0.5, 1.96),
            Some(ConfidentLabel::NonCellular)
        );
        // No NetInfo data: unclassifiable.
        assert_eq!(confident_label(0, 0, 0.5, 1.96), None);
        // z = 0 degenerates to the paper's plain threshold rule.
        assert_eq!(
            confident_label(1, 1, 0.5, 0.0),
            Some(ConfidentLabel::Cellular)
        );
    }

    #[test]
    fn summary_stricter_z_means_fewer_confident_blocks() {
        use cdnsim::{BeaconDataset, BeaconRecord, DemandDataset, DemandRecord};
        use netaddr::{Asn, Block24, BlockId};
        let mk = |i: u32, netinfo: u64, cell: u64| BeaconRecord {
            block: BlockId::V4(Block24::from_index(i)),
            asn: Asn(1),
            hits_total: netinfo,
            netinfo_hits: netinfo,
            cellular_hits: cell,
            wifi_hits: netinfo - cell,
            other_hits: 0,
        };
        let beacons = BeaconDataset::from_records(
            "t",
            vec![mk(1, 500, 480), mk(2, 4, 4), mk(3, 3, 2), mk(4, 200, 2)],
        );
        let demand = DemandDataset::from_raw(
            "t",
            vec![
                DemandRecord {
                    block: BlockId::V4(Block24::from_index(1)),
                    asn: Asn(1),
                    du: 80.0,
                },
                DemandRecord {
                    block: BlockId::V4(Block24::from_index(2)),
                    asn: Asn(1),
                    du: 20.0,
                },
            ],
        );
        let index = BlockIndex::build(&beacons, &demand);
        let loose = classify_with_confidence(&index, 0.5, 0.0);
        let strict = classify_with_confidence(&index, 0.5, 1.96);
        let paranoid = classify_with_confidence(&index, 0.5, 3.0);
        assert_eq!(loose.uncertain, 0, "z=0 never abstains");
        assert!(strict.cellular <= loose.cellular);
        assert!(paranoid.cellular <= strict.cellular);
        assert!(strict.uncertain > 0, "sparse blocks become uncertain");
        // The heavy block stays confidently cellular even at z=3.
        assert!(paranoid.cellular >= 1);
        assert!(paranoid.cellular_du >= 80.0 * 0.79); // normalized to 100k over 100
    }
}
