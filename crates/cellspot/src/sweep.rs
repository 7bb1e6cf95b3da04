//! Threshold sensitivity analysis (§4.2, Fig. 3): classifier F1 against
//! carrier ground truth across the whole range of ratio thresholds.

use asdb::CarrierGroundTruth;

use crate::classify::Classification;
use crate::index::BlockIndex;
use crate::metrics::{validate_carrier, CarrierValidation};

/// One point of a sensitivity curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Ratio threshold.
    pub threshold: f64,
    /// CIDR-count F1 at this threshold.
    pub f1_cidr: f64,
    /// Demand-weighted F1.
    pub f1_demand: f64,
    /// CIDR-count precision (the quantity the paper credits for the
    /// curve's flatness — cellular labels rarely lie).
    pub precision_cidr: f64,
    /// CIDR-count recall.
    pub recall_cidr: f64,
}

/// A carrier's full sensitivity curve.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCurve {
    /// Carrier codename.
    pub carrier: String,
    /// Points in ascending threshold order.
    pub points: Vec<SweepPoint>,
}

impl SweepCurve {
    /// The widest threshold interval over which demand-weighted F1 stays
    /// within `tolerance` of its maximum — the paper's robustness claim
    /// (stable from 0.1 to 0.96 for its carriers).
    pub fn stable_range(&self, tolerance: f64) -> Option<(f64, f64)> {
        let max = self
            .points
            .iter()
            .map(|p| p.f1_demand)
            .fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() || max <= 0.0 {
            return None;
        }
        let ok: Vec<&SweepPoint> = self
            .points
            .iter()
            .filter(|p| p.f1_demand >= max - tolerance)
            .collect();
        // The paper's claim is about a contiguous plateau; take the
        // longest contiguous run of qualifying points.
        let mut best: Option<(f64, f64)> = None;
        let mut run_start: Option<f64> = None;
        let mut prev_ok = false;
        for p in &self.points {
            let is_ok = ok.iter().any(|q| q.threshold == p.threshold);
            if is_ok && !prev_ok {
                run_start = Some(p.threshold);
            }
            if is_ok {
                let start = run_start.expect("run_start set when a run begins");
                let cand = (start, p.threshold);
                if best.is_none()
                    || cand.1 - cand.0
                        > best.expect("checked is_none").1 - best.expect("checked is_none").0
                {
                    best = Some(cand);
                }
            }
            prev_ok = is_ok;
        }
        best
    }
}

/// Sweep thresholds over `(0, 1]` for one carrier.
///
/// `steps` points are evaluated at `k / steps` for `k = 1..=steps`
/// (threshold 0 is excluded: everything with any cellular hit would be
/// labeled cellular, which the paper's range `(0,1]` likewise excludes).
/// Points are independent, so they are evaluated in parallel and
/// collected in threshold order.
pub fn threshold_sweep(gt: &CarrierGroundTruth, index: &BlockIndex, steps: usize) -> SweepCurve {
    use rayon::prelude::*;
    let steps = steps.max(2);
    let points: Vec<SweepPoint> = (1..=steps)
        .into_par_iter()
        .map(|k| {
            let t = k as f64 / steps as f64;
            let c = Classification::new(index, t);
            let v: CarrierValidation = validate_carrier(gt, &c, index);
            SweepPoint {
                threshold: t,
                f1_cidr: v.by_cidr.f1(),
                f1_demand: v.by_demand.f1(),
                precision_cidr: v.by_cidr.precision(),
                recall_cidr: v.by_cidr.recall(),
            }
        })
        .collect();
    SweepCurve {
        carrier: gt.name.clone(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb::{AccessType, GroundTruthEntry};
    use cdnsim::{BeaconDataset, BeaconRecord, DemandDataset, DemandRecord};
    use netaddr::{Asn, Block24, BlockId, Ipv4Net};

    /// A toy carrier: 8 cellular blocks with high ratios and solid demand,
    /// 32 fixed blocks with near-zero ratios.
    fn toy() -> (CarrierGroundTruth, BlockIndex) {
        let gt = CarrierGroundTruth::new(
            "Toy",
            vec![Asn(1)],
            vec![
                GroundTruthEntry::V4(
                    "10.0.0.0/21".parse::<Ipv4Net>().unwrap(),
                    AccessType::Cellular,
                ),
                GroundTruthEntry::V4("10.8.0.0/19".parse::<Ipv4Net>().unwrap(), AccessType::Fixed),
            ],
        );
        let mut beacons = Vec::new();
        let mut demand = Vec::new();
        for i in 0..8u32 {
            let block = BlockId::V4(Block24::of_addr(0x0A000000 + (i << 8)));
            beacons.push(BeaconRecord {
                block,
                asn: Asn(1),
                hits_total: 500,
                netinfo_hits: 500,
                cellular_hits: 440 + (i as u64 * 7) % 50, // ratios ≈ 0.88-0.97
                wifi_hits: 0,
                other_hits: 0,
            });
            demand.push(DemandRecord {
                block,
                asn: Asn(1),
                du: 50.0,
            });
        }
        for i in 0..32u32 {
            let block = BlockId::V4(Block24::of_addr(0x0A080000 + (i << 8)));
            beacons.push(BeaconRecord {
                block,
                asn: Asn(1),
                hits_total: 500,
                netinfo_hits: 500,
                cellular_hits: u64::from(i % 7 == 0), // the odd switch flip
                wifi_hits: 499,
                other_hits: 0,
            });
            demand.push(DemandRecord {
                block,
                asn: Asn(1),
                du: 20.0,
            });
        }
        let index = BlockIndex::build(
            &BeaconDataset::from_records("t", beacons),
            &DemandDataset::from_raw("t", demand),
        );
        (gt, index)
    }

    #[test]
    fn sweep_shape_matches_fig3() {
        let (gt, index) = toy();
        let curve = threshold_sweep(&gt, &index, 50);
        assert_eq!(curve.points.len(), 50);
        // Perfect classification across a wide middle range.
        for p in &curve.points {
            if (0.1..=0.85).contains(&p.threshold) {
                assert!(
                    p.f1_cidr > 0.99,
                    "t={}: F1={} — Fig 3 expects a wide plateau",
                    p.threshold,
                    p.f1_cidr
                );
            }
        }
        // Very high thresholds fall off (ratios top out below 1.0).
        let last = curve.points.last().expect("non-empty sweep");
        assert!(last.recall_cidr < 1.0);
        let range = curve.stable_range(0.02).expect("plateau exists");
        // The toy's cellular ratios span 0.88-0.98, so the plateau runs
        // from near zero to the smallest cellular ratio.
        assert!(range.0 <= 0.1 && range.1 >= 0.85, "stable range {range:?}");
    }

    #[test]
    fn precision_stays_high_everywhere() {
        // The Fig. 3 flatness argument: cellular false positives are rare
        // at any threshold above noise level.
        let (gt, index) = toy();
        let curve = threshold_sweep(&gt, &index, 20);
        for p in &curve.points {
            if (0.1..=0.95).contains(&p.threshold) {
                assert!(
                    p.precision_cidr > 0.99,
                    "t={}: precision {}",
                    p.threshold,
                    p.precision_cidr
                );
            }
        }
    }

    #[test]
    fn stable_range_handles_degenerate_curves() {
        let empty = SweepCurve {
            carrier: "x".into(),
            points: vec![],
        };
        assert_eq!(empty.stable_range(0.05), None);
        let zero = SweepCurve {
            carrier: "x".into(),
            points: vec![SweepPoint {
                threshold: 0.5,
                f1_cidr: 0.0,
                f1_demand: 0.0,
                precision_cidr: 0.0,
                recall_cidr: 0.0,
            }],
        };
        assert_eq!(zero.stable_range(0.05), None);
    }
}
