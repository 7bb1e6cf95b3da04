//! Ablations of the paper's design choices.
//!
//! The paper argues three methodological points that these ablations make
//! measurable:
//!
//! 1. **Prefix-level beats ASN-level identification** (§1, §6.1): most
//!    cellular networks are mixed, so labeling whole ASes mislabels
//!    fixed-line demand as cellular (or vice versa).
//!    [`asn_level_ablation`] quantifies the demand that changes label when
//!    AS-granularity classification replaces block-granularity.
//! 2. **/24 and /48 are the right aggregation grain** (§4.1, citing the
//!    Hobbit /24-homogeneity result): coarser aggregates mix access types.
//!    [`granularity_ablation`] re-aggregates the beacon data at shorter
//!    prefixes and measures the label churn.
//! 3. **Each AS-filter rule pulls its weight** (§5.1):
//!    [`rule_ablation`] re-runs the filter with one rule disabled at a
//!    time and reports how the final AS set inflates.

use std::collections::{HashMap, HashSet};

use asdb::AsDatabase;
use netaddr::{Asn, Block24, BlockId};

use crate::asid::{identify_cellular_ases, AsAggregate, AsFilterOutcome, FilterConfig};
use crate::classify::Classification;
use crate::index::BlockIndex;

/// How an ASN-granularity classifier decides that a whole AS is cellular.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AsnStrategy {
    /// Any detected cellular block makes the AS cellular (the §5
    /// straw-man).
    AnyCellularBlock,
    /// A majority of classified blocks are cellular.
    MajorityBlocks,
    /// A majority of demand sits in cellular blocks.
    MajorityDemand,
}

/// Result of replacing block-level labels with AS-level labels.
#[derive(Clone, Debug)]
pub struct AsnLevelAblation {
    /// Strategy used.
    pub strategy: AsnStrategy,
    /// ASes the strategy labels cellular.
    pub cellular_ases: Vec<Asn>,
    /// DU that the AS-level labeling marks cellular but block-level does
    /// not (fixed-line demand swept up inside "cellular" ASes).
    pub overcounted_du: f64,
    /// DU that block-level marks cellular but AS-level misses (cellular
    /// demand inside ASes the strategy calls non-cellular).
    pub undercounted_du: f64,
    /// Total cellular DU under block-level labels (the reference).
    pub reference_cell_du: f64,
}

impl AsnLevelAblation {
    /// Relative error of the AS-granularity cellular demand estimate.
    pub fn relative_error(&self) -> f64 {
        if self.reference_cell_du > 0.0 {
            (self.overcounted_du + self.undercounted_du) / self.reference_cell_du
        } else {
            0.0
        }
    }
}

/// Quantify the damage of ASN-granularity classification.
pub fn asn_level_ablation(
    index: &BlockIndex,
    classification: &Classification,
    aggregates: &HashMap<Asn, AsAggregate>,
    strategy: AsnStrategy,
) -> AsnLevelAblation {
    let cellular_ases: HashSet<Asn> = aggregates
        .iter()
        .filter(|(_, a)| match strategy {
            AsnStrategy::AnyCellularBlock => a.cell_blocks() > 0,
            AsnStrategy::MajorityBlocks => a.cell_blocks() * 2 > a.blocks,
            AsnStrategy::MajorityDemand => a.cell_du * 2.0 > a.total_du,
        })
        .map(|(asn, _)| *asn)
        .collect();

    let mut over = 0.0;
    let mut under = 0.0;
    let mut reference = 0.0;
    for o in index.iter() {
        let block_cell = classification.is_cellular(o.block);
        let as_cell = cellular_ases.contains(&o.asn);
        if block_cell {
            reference += o.du;
        }
        match (as_cell, block_cell) {
            (true, false) => over += o.du,
            (false, true) => under += o.du,
            _ => {}
        }
    }
    let mut cellular_ases: Vec<Asn> = cellular_ases.into_iter().collect();
    cellular_ases.sort();
    AsnLevelAblation {
        strategy,
        cellular_ases,
        overcounted_du: over,
        undercounted_du: under,
        reference_cell_du: reference,
    }
}

/// Result of re-aggregating IPv4 beacons at a shorter prefix.
#[derive(Clone, Debug)]
pub struct GranularityAblation {
    /// Prefix length used (24 − merge shift).
    pub prefix_len: u8,
    /// Number of aggregates classified cellular at this grain.
    pub cellular_aggregates: usize,
    /// DU whose label changed relative to /24-grain classification.
    pub relabeled_du: f64,
    /// Share of /24 blocks whose label changed.
    pub relabeled_blocks_fraction: f64,
}

/// Re-aggregate IPv4 beacon observations at `prefix_len` (≤ 24), classify
/// the aggregates with the same threshold, and measure how many /24
/// blocks (and how much demand) change label versus the /24 reference.
pub fn granularity_ablation(
    index: &BlockIndex,
    classification: &Classification,
    prefix_len: u8,
) -> GranularityAblation {
    assert!(prefix_len <= 24, "can only coarsen, not refine, /24 data");
    let shift = 24 - prefix_len as u32;

    // Aggregate hit counts per supernet.
    #[derive(Default)]
    struct Agg {
        netinfo: u64,
        cellular: u64,
    }
    let mut supers: HashMap<u32, Agg> = HashMap::new();
    for o in index.iter() {
        if let BlockId::V4(b) = o.block {
            let key = b.index() >> shift;
            let a = supers.entry(key).or_default();
            a.netinfo += o.netinfo_hits;
            a.cellular += o.cellular_hits;
        }
    }
    let super_cellular: HashSet<u32> = supers
        .iter()
        .filter(|(_, a)| {
            a.netinfo > 0 && a.cellular as f64 / a.netinfo as f64 >= classification.threshold
        })
        .map(|(k, _)| *k)
        .collect();

    let mut relabeled_du = 0.0;
    let mut relabeled = 0usize;
    let mut total = 0usize;
    for o in index.iter() {
        if let BlockId::V4(b) = o.block {
            total += 1;
            let coarse = super_cellular.contains(&(b.index() >> shift));
            let fine = classification.is_cellular(o.block);
            if coarse != fine {
                relabeled += 1;
                relabeled_du += o.du;
            }
        }
    }
    GranularityAblation {
        prefix_len,
        cellular_aggregates: super_cellular.len(),
        relabeled_du,
        relabeled_blocks_fraction: if total > 0 {
            relabeled as f64 / total as f64
        } else {
            0.0
        },
    }
}

/// Outcomes of disabling one AS-filter rule at a time.
#[derive(Clone, Debug)]
pub struct RuleAblation {
    /// The baseline (all rules active).
    pub baseline: AsFilterOutcome,
    /// Rule 1 (demand) disabled.
    pub without_demand_rule: AsFilterOutcome,
    /// Rule 2 (hits) disabled.
    pub without_hits_rule: AsFilterOutcome,
    /// Rule 3 (class) disabled.
    pub without_class_rule: AsFilterOutcome,
}

impl RuleAblation {
    /// Extra ASes admitted when each rule is dropped, in rule order.
    pub fn extra_admitted(&self) -> [usize; 3] {
        let base = self.baseline.cellular_ases.len();
        [
            self.without_demand_rule.cellular_ases.len() - base,
            self.without_hits_rule.cellular_ases.len() - base,
            self.without_class_rule.cellular_ases.len() - base,
        ]
    }
}

/// Run the §5 filter with each rule individually disabled.
pub fn rule_ablation(
    aggregates: &HashMap<Asn, AsAggregate>,
    as_db: &AsDatabase,
    cfg: &FilterConfig,
) -> RuleAblation {
    let baseline = identify_cellular_ases(aggregates, as_db, cfg);
    let without_demand_rule = identify_cellular_ases(
        aggregates,
        as_db,
        &FilterConfig {
            min_cell_du: 0.0,
            ..*cfg
        },
    );
    let without_hits_rule = identify_cellular_ases(
        aggregates,
        as_db,
        &FilterConfig {
            min_netinfo_hits: 0.0,
            ..*cfg
        },
    );
    // Rule 3 off: accept every class by scoring against a database where
    // every candidate passes — simplest is a permissive re-run.
    let mut permissive = AsFilterOutcome {
        candidates: baseline.candidates.clone(),
        removed_low_demand: Vec::new(),
        removed_low_hits: Vec::new(),
        removed_class: Vec::new(),
        cellular_ases: Vec::new(),
    };
    for &asn in &permissive.candidates {
        let a = &aggregates[&asn];
        if a.cell_du < cfg.min_cell_du {
            permissive.removed_low_demand.push(asn);
        } else if (a.netinfo_hits as f64) < cfg.min_netinfo_hits {
            permissive.removed_low_hits.push(asn);
        } else {
            permissive.cellular_ases.push(asn);
        }
    }
    RuleAblation {
        baseline,
        without_demand_rule,
        without_hits_rule,
        without_class_rule: permissive,
    }
}

/// Convenience for reports: which /24 supernet grains to sweep.
pub const GRANULARITY_SWEEP: [u8; 4] = [24, 22, 20, 16];

/// Sweep the granularity ablation over [`GRANULARITY_SWEEP`].
pub fn granularity_sweep(
    index: &BlockIndex,
    classification: &Classification,
) -> Vec<GranularityAblation> {
    GRANULARITY_SWEEP
        .iter()
        .map(|len| granularity_ablation(index, classification, *len))
        .collect()
}

/// Helper for tests and reports: the /20 supernet of a block.
pub fn supernet_key(block: Block24, prefix_len: u8) -> u32 {
    block.index() >> (24 - prefix_len as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnsim::{BeaconDataset, BeaconRecord, DemandDataset, DemandRecord};

    fn b(i: u32) -> BlockId {
        BlockId::V4(Block24::from_index(i))
    }

    /// Two ASes: one mixed (3 fixed + 1 cellular block), one dedicated.
    fn setup() -> (BlockIndex, Classification) {
        let mk = |i: u32, asn: u32, netinfo: u64, cell: u64| BeaconRecord {
            block: b(i),
            asn: Asn(asn),
            hits_total: netinfo,
            netinfo_hits: netinfo,
            cellular_hits: cell,
            wifi_hits: netinfo - cell,
            other_hits: 0,
        };
        let du = |i: u32, asn: u32, v: f64| DemandRecord {
            block: b(i),
            asn: Asn(asn),
            du: v,
        };
        // Mixed AS 1: blocks 0..4 in the same /22 supernet.
        let beacons = BeaconDataset::from_records(
            "t",
            vec![
                mk(0, 1, 100, 2),
                mk(1, 1, 100, 1),
                mk(2, 1, 100, 3),
                mk(3, 1, 100, 95), // the cellular block
                mk(16, 2, 100, 97),
                mk(17, 2, 100, 92),
            ],
        );
        let demand = DemandDataset::from_raw(
            "t",
            vec![
                du(0, 1, 30.0),
                du(1, 1, 25.0),
                du(2, 1, 20.0),
                du(3, 1, 5.0),
                du(16, 2, 15.0),
                du(17, 2, 5.0),
            ],
        );
        let index = BlockIndex::build(&beacons, &demand);
        let class = Classification::with_default_threshold(&index);
        (index, class)
    }

    #[test]
    fn asn_level_overcounts_mixed_networks() {
        let (index, class) = setup();
        let aggs = crate::asid::aggregate_by_as(&index, &class);
        // "Any cellular block" labels both ASes cellular; all of AS 1's
        // fixed demand (75 of 100 raw → normalized) is overcounted.
        let any = asn_level_ablation(&index, &class, &aggs, AsnStrategy::AnyCellularBlock);
        assert_eq!(any.cellular_ases.len(), 2);
        assert!(any.overcounted_du > 0.0);
        assert!(any.relative_error() > 1.0, "error {}", any.relative_error());
        // Majority-demand labels only the dedicated AS cellular, missing
        // the mixed AS's cellular block.
        let maj = asn_level_ablation(&index, &class, &aggs, AsnStrategy::MajorityDemand);
        assert_eq!(maj.cellular_ases, vec![Asn(2)]);
        assert!(maj.undercounted_du > 0.0);
        assert_eq!(maj.overcounted_du, 0.0);
    }

    #[test]
    fn coarser_prefixes_relabel_demand() {
        let (index, class) = setup();
        // At /22 the mixed AS's supernet has ratio (2+1+3+95)/400 ≈ 0.25 →
        // non-cellular → block 3 flips to fixed. The dedicated /22 keeps
        // its label.
        let g22 = granularity_ablation(&index, &class, 22);
        assert_eq!(g22.prefix_len, 22);
        assert!(g22.relabeled_du > 0.0, "mixed supernet must mislabel");
        let g24 = granularity_ablation(&index, &class, 24);
        assert_eq!(g24.relabeled_du, 0.0, "native grain is the reference");
        assert_eq!(g24.relabeled_blocks_fraction, 0.0);
        // Coarser is never better in this construction.
        let g16 = granularity_ablation(&index, &class, 16);
        assert!(g16.relabeled_du >= g22.relabeled_du);
    }

    #[test]
    fn rule_ablation_reports_extra_admissions() {
        let (index, class) = setup();
        let aggs = crate::asid::aggregate_by_as(&index, &class);
        let db = AsDatabase::from_records(vec![
            asdb::AsRecord::new(
                Asn(1),
                "mixed",
                netaddr::CountryCode::literal("DE"),
                netaddr::Continent::Europe,
                asdb::AsKind::MixedAccess,
            ),
            asdb::AsRecord::new(
                Asn(2),
                "cloud",
                netaddr::CountryCode::literal("US"),
                netaddr::Continent::NorthAmerica,
                asdb::AsKind::CloudProxy,
            ),
        ]);
        let abl = rule_ablation(
            &aggs,
            &db,
            &FilterConfig {
                min_cell_du: 0.1,
                min_netinfo_hits: 50.0,
            },
        );
        // AS 2 is Content-class: baseline excludes it, the class-rule
        // ablation admits it.
        assert!(!abl.baseline.cellular_ases.contains(&Asn(2)));
        assert!(abl.without_class_rule.cellular_ases.contains(&Asn(2)));
        let extra = abl.extra_admitted();
        assert_eq!(extra[2], 1, "dropping rule 3 admits the proxy");
    }

    #[test]
    fn supernet_key_math() {
        let block = Block24::from_index(0x0A0B0C);
        assert_eq!(supernet_key(block, 24), 0x0A0B0C);
        assert_eq!(supernet_key(block, 16), 0x0A0B);
        assert_eq!(supernet_key(block, 8), 0x0A);
    }
}
