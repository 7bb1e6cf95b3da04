//! Demand distribution analyses (§6.2): how cellular traffic concentrates
//! across operators (Fig. 7, Table 7) and across subnets within an
//! operator (Fig. 8).

use std::collections::HashMap;

use asdb::AsDatabase;
use netaddr::{Asn, CountryCode};

use crate::asid::AsAggregate;
use crate::classify::Classification;
use crate::index::BlockIndex;
use crate::mixed::MixedAnalysis;
use crate::stats::{count_for_share, top_k_share};

/// One row of the ranked operator table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankedAs {
    /// Rank, 1-based.
    pub rank: usize,
    /// The AS.
    pub asn: Asn,
    /// Registration country.
    pub country: CountryCode,
    /// Share of global cellular demand, as a fraction of 1.
    pub cell_share: f64,
    /// Whether §6.1 classified the AS as mixed.
    pub mixed: bool,
}

/// Fig. 7 / Table 7: cellular demand ranked across operators.
#[derive(Clone, Debug, PartialEq)]
pub struct AsDemandRanking {
    /// All cellular ASes in descending demand order.
    pub rows: Vec<RankedAs>,
}

impl AsDemandRanking {
    /// Build the ranking for the identified cellular AS set.
    pub fn build(mixed: &MixedAnalysis, as_db: &AsDatabase) -> Self {
        let total: f64 = mixed.verdicts.iter().map(|v| v.cell_du).sum();
        let rows = mixed
            .verdicts
            .iter()
            .enumerate()
            .map(|(i, v)| RankedAs {
                rank: i + 1,
                asn: v.asn,
                country: as_db
                    .get(v.asn)
                    .map(|r| r.country)
                    .unwrap_or_else(|| CountryCode::literal("ZZ")),
                cell_share: if total > 0.0 { v.cell_du / total } else { 0.0 },
                mixed: v.is_mixed,
            })
            .collect();
        AsDemandRanking { rows }
    }

    /// Top-k rows (Table 7 uses k = 10).
    pub fn top(&self, k: usize) -> &[RankedAs] {
        &self.rows[..k.min(self.rows.len())]
    }

    /// Share of global cellular demand held by the top-k ASes
    /// (paper: top-5 ≈ 35.9%, top-10 ≈ 38%).
    pub fn top_share(&self, k: usize) -> f64 {
        self.rows.iter().take(k).map(|r| r.cell_share).sum()
    }

    /// Fig. 7's series: (rank, share of global cellular demand).
    pub fn series(&self) -> Vec<(usize, f64)> {
        self.rows.iter().map(|r| (r.rank, r.cell_share)).collect()
    }
}

/// Fig. 8: demand of an operator's subnets ranked within each access
/// label.
#[derive(Clone, Debug)]
pub struct SubnetDemandProfile {
    /// The AS.
    pub asn: Asn,
    /// DU per cellular-labeled block, descending.
    pub cellular: Vec<f64>,
    /// DU per non-cellular block, descending.
    pub fixed: Vec<f64>,
}

impl SubnetDemandProfile {
    /// Build the profile for one AS.
    pub fn build(asn: Asn, index: &BlockIndex, classification: &Classification) -> Self {
        let mut cellular = Vec::new();
        let mut fixed = Vec::new();
        for o in index.iter().filter(|o| o.asn == asn) {
            if classification.is_cellular(o.block) {
                cellular.push(o.du);
            } else {
                fixed.push(o.du);
            }
        }
        let desc = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| b.partial_cmp(a).expect("DU is finite"));
        };
        desc(&mut cellular);
        desc(&mut fixed);
        SubnetDemandProfile {
            asn,
            cellular,
            fixed,
        }
    }

    /// Share of the AS's cellular demand held by its top-k cellular
    /// blocks (paper: 24-25 blocks ≈ 99.3-99.5% in the mixed showcase).
    pub fn cellular_top_share(&self, k: usize) -> f64 {
        top_k_share(&self.cellular, k)
    }

    /// Blocks needed to cover `share` of the cellular demand.
    pub fn cellular_blocks_for_share(&self, share: f64) -> usize {
        count_for_share(&self.cellular, share)
    }

    /// Blocks needed to cover `share` of the fixed demand (the paper's
    /// contrast: orders of magnitude more than cellular).
    pub fn fixed_blocks_for_share(&self, share: f64) -> usize {
        count_for_share(&self.fixed, share)
    }
}

/// Per-AS cellular demand values, used for Fig. 4a's candidate-set CDF.
pub fn cellular_demand_values(aggregates: &HashMap<Asn, AsAggregate>) -> Vec<f64> {
    aggregates
        .values()
        .filter(|a| a.cell_blocks() > 0)
        .map(|a| a.cell_du)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixed::MixedVerdict;

    fn verdict(asn: u32, cell_du: f64, mixed: bool) -> MixedVerdict {
        MixedVerdict {
            asn: Asn(asn),
            cell_du,
            cfd: if mixed { 0.3 } else { 0.99 },
            cell_subnet_fraction: 0.5,
            is_mixed: mixed,
        }
    }

    #[test]
    fn ranking_orders_and_shares() {
        let mixed = MixedAnalysis {
            verdicts: vec![
                verdict(1, 50.0, false),
                verdict(2, 30.0, true),
                verdict(3, 20.0, false),
            ],
        };
        let ranking = AsDemandRanking::build(&mixed, &AsDatabase::new());
        assert_eq!(ranking.rows.len(), 3);
        assert_eq!(ranking.rows[0].asn, Asn(1));
        assert!((ranking.top_share(2) - 0.8).abs() < 1e-12);
        assert!((ranking.top_share(99) - 1.0).abs() < 1e-12);
        assert!(ranking.rows[1].mixed);
        assert_eq!(ranking.top(2).len(), 2);
        let series = ranking.series();
        assert_eq!(series[2], (3, 0.2));
    }

    #[test]
    fn subnet_profile_concentration() {
        let profile = SubnetDemandProfile {
            asn: Asn(1),
            cellular: vec![500.0, 300.0, 190.0, 5.0, 3.0, 2.0],
            fixed: vec![100.0; 50],
        };
        assert!(profile.cellular_top_share(3) > 0.98);
        assert_eq!(profile.cellular_blocks_for_share(0.98), 3);
        // Fixed demand spreads: covering 98% takes nearly all 50 blocks.
        assert!(profile.fixed_blocks_for_share(0.98) >= 49);
    }
}
