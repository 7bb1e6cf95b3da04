//! Mixed vs. dedicated operator analysis (§6.1): cellular demand (CD),
//! cellular fraction of demand (CFD), the 0.9 dedication threshold, and
//! the per-AS distributions behind Fig. 5 and Fig. 6.

use std::collections::HashMap;

use netaddr::Asn;

use crate::asid::AsAggregate;
use crate::index::BlockIndex;
use crate::stats::Ecdf;

/// The paper's dedication threshold on CFD (§6.1: CFD > 0.9 ⇒ dedicated).
pub const DEDICATED_CFD: f64 = 0.9;

/// One cellular AS's §6.1 classification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MixedVerdict {
    /// The AS.
    pub asn: Asn,
    /// Cellular demand, DU.
    pub cell_du: f64,
    /// Cellular fraction of demand.
    pub cfd: f64,
    /// Fraction of the AS's blocks labeled cellular.
    pub cell_subnet_fraction: f64,
    /// CFD ≤ 0.9 ⇒ mixed.
    pub is_mixed: bool,
}

/// §6.1 results across the cellular AS set.
#[derive(Clone, Debug, PartialEq)]
pub struct MixedAnalysis {
    /// Per-AS verdicts, sorted by descending cellular demand.
    pub verdicts: Vec<MixedVerdict>,
}

impl MixedAnalysis {
    /// Classify every AS in the cellular set.
    pub fn build(
        cellular_ases: &[Asn],
        aggregates: &HashMap<Asn, AsAggregate>,
        dedicated_cfd: f64,
    ) -> Self {
        let mut verdicts: Vec<MixedVerdict> = cellular_ases
            .iter()
            .filter_map(|asn| aggregates.get(asn).map(|a| (asn, a)))
            .map(|(asn, a)| MixedVerdict {
                asn: *asn,
                cell_du: a.cell_du,
                cfd: a.cfd(),
                cell_subnet_fraction: if a.blocks > 0 {
                    a.cell_blocks() as f64 / a.blocks as f64
                } else {
                    0.0
                },
                is_mixed: a.cfd() <= dedicated_cfd,
            })
            .collect();
        verdicts.sort_by(|x, y| y.cell_du.partial_cmp(&x.cell_du).expect("DU is finite"));
        MixedAnalysis { verdicts }
    }

    /// (mixed, dedicated) counts — the paper's 392 / 276.
    pub fn counts(&self) -> (usize, usize) {
        let mixed = self.verdicts.iter().filter(|v| v.is_mixed).count();
        (mixed, self.verdicts.len() - mixed)
    }

    /// Fraction of cellular ASes that are mixed (paper: 58.6%).
    pub fn mixed_fraction(&self) -> f64 {
        if self.verdicts.is_empty() {
            0.0
        } else {
            self.counts().0 as f64 / self.verdicts.len() as f64
        }
    }

    /// Share of cellular demand originating in mixed ASes (paper: 32.7%).
    pub fn mixed_demand_share(&self) -> f64 {
        let total: f64 = self.verdicts.iter().map(|v| v.cell_du).sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.verdicts
            .iter()
            .filter(|v| v.is_mixed)
            .map(|v| v.cell_du)
            .sum::<f64>()
            / total
    }

    /// Fig. 5's two CDFs: per-AS cellular demand fraction and cellular
    /// subnet fraction.
    pub fn fig5(&self) -> (Ecdf, Ecdf) {
        (
            Ecdf::new(self.verdicts.iter().map(|v| v.cfd)),
            Ecdf::new(self.verdicts.iter().map(|v| v.cell_subnet_fraction)),
        )
    }

    /// ASes designated mixed.
    pub fn mixed_asns(&self) -> Vec<Asn> {
        self.verdicts
            .iter()
            .filter(|v| v.is_mixed)
            .map(|v| v.asn)
            .collect()
    }
}

/// Fig. 6's per-AS breakdown: CDFs over the cellular ratio axis of (a)
/// the fraction of the AS's blocks at or below each ratio and (b) the
/// fraction of the AS's demand at or below each ratio.
#[derive(Clone, Debug)]
pub struct AsRatioBreakdown {
    /// The AS.
    pub asn: Asn,
    /// CDF of blocks over cellular ratio.
    pub subnet_cdf: Ecdf,
    /// Demand-weighted CDF over cellular ratio.
    pub demand_cdf: Ecdf,
}

impl AsRatioBreakdown {
    /// Build for one AS from the joined index. Only IPv4 /24 blocks with
    /// a defined ratio participate — the paper's Fig. 6 plots "/24
    /// subnets" and their "calculated cellular percentage".
    pub fn build(asn: Asn, index: &BlockIndex) -> Self {
        let mut subnet = Vec::new();
        let mut demand = Vec::new();
        for o in index.iter().filter(|o| o.asn == asn && o.block.is_v4()) {
            if let Some(r) = o.cellular_ratio() {
                subnet.push(r);
                demand.push((r, o.du));
            }
        }
        AsRatioBreakdown {
            asn,
            subnet_cdf: Ecdf::new(subnet),
            demand_cdf: Ecdf::weighted(demand),
        }
    }
}

/// Convenience used by reports: is the analysis's CFD spectrum continuous
/// (§6.1 finds "no particularly popular configurations")? Returns the
/// maximum gap between consecutive CFD values among mixed ASes.
pub fn max_cfd_gap(analysis: &MixedAnalysis) -> f64 {
    let mut cfds: Vec<f64> = analysis.verdicts.iter().map(|v| v.cfd).collect();
    cfds.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    cfds.windows(2).map(|w| w[1] - w[0]).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asid::AsAggregate;

    fn agg(blocks: usize, cell: usize, total_du: f64, cell_du: f64) -> AsAggregate {
        AsAggregate {
            blocks,
            cell_blocks24: cell,
            cell_blocks48: 0,
            total_du,
            cell_du,
            netinfo_hits: 1_000,
            beacon_hits: 8_000,
        }
    }

    #[test]
    fn dedication_threshold() {
        let mut aggs = HashMap::new();
        aggs.insert(Asn(1), agg(100, 95, 100.0, 99.0)); // dedicated
        aggs.insert(Asn(2), agg(100, 10, 100.0, 20.0)); // mixed
        aggs.insert(Asn(3), agg(100, 50, 100.0, 90.0)); // boundary ⇒ mixed
        let m = MixedAnalysis::build(&[Asn(1), Asn(2), Asn(3)], &aggs, DEDICATED_CFD);
        let (mixed, dedicated) = m.counts();
        assert_eq!((mixed, dedicated), (2, 1));
        assert!((m.mixed_fraction() - 2.0 / 3.0).abs() < 1e-12);
        // Verdicts ranked by cellular demand.
        assert_eq!(m.verdicts[0].asn, Asn(1));
        // Mixed demand share = (20 + 90) / 209.
        assert!((m.mixed_demand_share() - 110.0 / 209.0).abs() < 1e-12);
    }

    #[test]
    fn fig5_gap_between_subnet_and_demand_fraction() {
        // The paper's Fig. 5 observation: demand fractions exceed subnet
        // fractions because idle non-cellular blocks dilute the subnet
        // count. Model an AS where most blocks are non-cellular but most
        // demand is cellular.
        let mut aggs = HashMap::new();
        aggs.insert(Asn(1), agg(1_000, 30, 100.0, 80.0));
        let m = MixedAnalysis::build(&[Asn(1)], &aggs, DEDICATED_CFD);
        let (cfd_cdf, subnet_cdf) = m.fig5();
        // At x=0.5: all subnet fractions (0.03) are below, CFD (0.8) is not.
        assert!(subnet_cdf.eval(0.5) > cfd_cdf.eval(0.5));
    }

    #[test]
    fn empty_analysis_is_safe() {
        let m = MixedAnalysis::build(&[], &HashMap::new(), DEDICATED_CFD);
        assert_eq!(m.counts(), (0, 0));
        assert_eq!(m.mixed_fraction(), 0.0);
        assert_eq!(m.mixed_demand_share(), 0.0);
        assert_eq!(max_cfd_gap(&m), 0.0);
    }
}
