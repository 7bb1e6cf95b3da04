//! Temporal analysis of cellular address space — the measurement side of
//! the paper's §8 future work: given classifications of consecutive
//! monthly snapshots, quantify how stable cellular labels are, how much
//! address space churns, and how demand shifts across it.

use std::collections::HashSet;

use netaddr::BlockId;

use crate::classify::Classification;
use crate::index::BlockIndex;

/// Stability of the cellular set between two consecutive months.
#[derive(Clone, Copy, Debug)]
pub struct MonthTransition {
    /// Month index of the later snapshot.
    pub month: u32,
    /// Cellular blocks in the earlier month.
    pub prev_cellular: usize,
    /// Cellular blocks in the later month.
    pub cellular: usize,
    /// Blocks cellular in both months.
    pub persisted: usize,
    /// Blocks newly cellular.
    pub appeared: usize,
    /// Blocks no longer cellular.
    pub disappeared: usize,
    /// Jaccard similarity of the two cellular sets.
    pub jaccard: f64,
    /// Fraction of the later month's cellular demand carried by blocks
    /// that were already cellular a month earlier.
    pub persisted_demand_fraction: f64,
}

impl MonthTransition {
    /// Fraction of the earlier month's cellular blocks that persisted.
    pub fn persistence(&self) -> f64 {
        if self.prev_cellular > 0 {
            self.persisted as f64 / self.prev_cellular as f64
        } else {
            0.0
        }
    }
}

/// A multi-month stability study.
#[derive(Clone, Debug)]
pub struct TemporalAnalysis {
    /// One transition per consecutive month pair.
    pub transitions: Vec<MonthTransition>,
}

impl TemporalAnalysis {
    /// Build from per-month `(classification, index)` pairs in month
    /// order. The index supplies each month's demand weights.
    pub fn build(months: &[(Classification, BlockIndex)]) -> Self {
        let sets: Vec<HashSet<BlockId>> = months
            .iter()
            .map(|(c, _)| c.iter().map(|(b, _)| b).collect())
            .collect();
        let mut transitions = Vec::new();
        for m in 1..months.len() {
            let prev = &sets[m - 1];
            let cur = &sets[m];
            let persisted = prev.intersection(cur).count();
            let union = prev.union(cur).count();
            let (_, index) = &months[m];
            let mut cell_du = 0.0;
            let mut persisted_du = 0.0;
            for b in cur {
                let du = index.get(*b).map(|o| o.du).unwrap_or(0.0);
                cell_du += du;
                if prev.contains(b) {
                    persisted_du += du;
                }
            }
            transitions.push(MonthTransition {
                month: m as u32,
                prev_cellular: prev.len(),
                cellular: cur.len(),
                persisted,
                appeared: cur.len() - persisted,
                disappeared: prev.len() - persisted,
                jaccard: if union > 0 {
                    persisted as f64 / union as f64
                } else {
                    0.0
                },
                persisted_demand_fraction: if cell_du > 0.0 {
                    persisted_du / cell_du
                } else {
                    0.0
                },
            });
        }
        TemporalAnalysis { transitions }
    }

    /// Mean monthly persistence of the cellular block set.
    pub fn mean_persistence(&self) -> f64 {
        if self.transitions.is_empty() {
            return 0.0;
        }
        self.transitions
            .iter()
            .map(|t| t.persistence())
            .sum::<f64>()
            / self.transitions.len() as f64
    }

    /// Mean fraction of cellular demand carried by persistent blocks —
    /// the study's practical takeaway: even with address churn, demand
    /// concentrates in stable CGN blocks.
    pub fn mean_persisted_demand(&self) -> f64 {
        if self.transitions.is_empty() {
            return 0.0;
        }
        self.transitions
            .iter()
            .map(|t| t.persisted_demand_fraction)
            .sum::<f64>()
            / self.transitions.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnsim::{BeaconDataset, BeaconRecord, DemandDataset, DemandRecord};
    use netaddr::{Asn, Block24};

    fn month(blocks: &[(u32, f64)]) -> (Classification, BlockIndex) {
        let beacons = BeaconDataset::from_records(
            "t",
            blocks
                .iter()
                .map(|&(i, _)| BeaconRecord {
                    block: BlockId::V4(Block24::from_index(i)),
                    asn: Asn(1),
                    hits_total: 100,
                    netinfo_hits: 100,
                    cellular_hits: 95,
                    wifi_hits: 5,
                    other_hits: 0,
                })
                .collect(),
        );
        let demand = DemandDataset::from_raw(
            "t",
            blocks
                .iter()
                .map(|&(i, du)| DemandRecord {
                    block: BlockId::V4(Block24::from_index(i)),
                    asn: Asn(1),
                    du,
                })
                .collect(),
        );
        let index = BlockIndex::build(&beacons, &demand);
        let class = Classification::with_default_threshold(&index);
        (class, index)
    }

    #[test]
    fn transition_accounting() {
        // Month 0: blocks 1,2,3. Month 1: 2,3,4,5 (1 gone, 4+5 new).
        let months = vec![
            month(&[(1, 10.0), (2, 50.0), (3, 40.0)]),
            month(&[(2, 50.0), (3, 30.0), (4, 10.0), (5, 10.0)]),
        ];
        let t = TemporalAnalysis::build(&months);
        assert_eq!(t.transitions.len(), 1);
        let tr = &t.transitions[0];
        assert_eq!(tr.persisted, 2);
        assert_eq!(tr.appeared, 2);
        assert_eq!(tr.disappeared, 1);
        assert!((tr.persistence() - 2.0 / 3.0).abs() < 1e-12);
        assert!((tr.jaccard - 2.0 / 5.0).abs() < 1e-12);
        // Demand: persisted blocks carry 80 of 100 normalized DU.
        assert!((tr.persisted_demand_fraction - 0.8).abs() < 1e-12);
        assert!((t.mean_persistence() - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.mean_persisted_demand() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn identical_months_are_fully_stable() {
        let months = vec![month(&[(1, 1.0), (2, 1.0)]), month(&[(1, 1.0), (2, 1.0)])];
        let t = TemporalAnalysis::build(&months);
        assert!((t.mean_persistence() - 1.0).abs() < 1e-12);
        assert!((t.transitions[0].jaccard - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_safe() {
        let t = TemporalAnalysis::build(&[]);
        assert!(t.transitions.is_empty());
        assert_eq!(t.mean_persistence(), 0.0);
        assert_eq!(t.mean_persisted_demand(), 0.0);
    }
}
