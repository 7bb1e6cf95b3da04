//! AS-level cellular identification (§5): per-AS aggregates, the straw-man
//! candidate set, and the three filtering heuristics of Table 5.

use std::collections::HashMap;

use asdb::AsDatabase;
use netaddr::Asn;

use crate::classify::Classification;
use crate::index::BlockIndex;

/// Per-AS aggregate of the joined observations.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AsAggregate {
    /// Blocks observed in either dataset.
    pub blocks: usize,
    /// IPv4 blocks labeled cellular.
    pub cell_blocks24: usize,
    /// IPv6 blocks labeled cellular.
    pub cell_blocks48: usize,
    /// Demand Units over all of the AS's blocks.
    pub total_du: f64,
    /// Demand Units over the cellular-labeled blocks — the paper's
    /// Cellular Demand (CD).
    pub cell_du: f64,
    /// NetInfo-enabled beacon hits across the AS.
    pub netinfo_hits: u64,
    /// All beacon hits across the AS.
    pub beacon_hits: u64,
}

impl AsAggregate {
    /// Cellular blocks across both families.
    pub fn cell_blocks(&self) -> usize {
        self.cell_blocks24 + self.cell_blocks48
    }

    /// The paper's Cellular Fraction of Demand (CFD).
    pub fn cfd(&self) -> f64 {
        if self.total_du > 0.0 {
            self.cell_du / self.total_du
        } else {
            0.0
        }
    }
}

/// Chunk size for the parallel per-AS fold. Fixed (never derived from the
/// thread count) so chunk boundaries — and with them the order of the
/// non-associative `f64` additions — depend only on the data.
const AGG_CHUNK: usize = 4096;

/// Aggregate the joined index per AS under a given classification.
///
/// The index is folded over fixed-size chunks in parallel; chunk partials
/// are merged sequentially in chunk order, so every AS's demand sums
/// accumulate in the same order for any thread count and the result is
/// bit-deterministic.
pub fn aggregate_by_as(
    index: &BlockIndex,
    classification: &Classification,
) -> HashMap<Asn, AsAggregate> {
    use rayon::prelude::*;
    let partials: Vec<HashMap<Asn, AsAggregate>> = index
        .as_slice()
        .par_chunks(AGG_CHUNK)
        .map(|chunk| {
            let mut map: HashMap<Asn, AsAggregate> = HashMap::new();
            for o in chunk {
                let a = map.entry(o.asn).or_default();
                a.blocks += 1;
                a.total_du += o.du;
                a.netinfo_hits += o.netinfo_hits;
                a.beacon_hits += o.beacon_hits;
                if classification.is_cellular(o.block) {
                    if o.block.is_v4() {
                        a.cell_blocks24 += 1;
                    } else {
                        a.cell_blocks48 += 1;
                    }
                    a.cell_du += o.du;
                }
            }
            map
        })
        .collect();
    let mut map: HashMap<Asn, AsAggregate> = HashMap::new();
    for partial in partials {
        for (asn, p) in partial {
            let a = map.entry(asn).or_default();
            a.blocks += p.blocks;
            a.cell_blocks24 += p.cell_blocks24;
            a.cell_blocks48 += p.cell_blocks48;
            a.total_du += p.total_du;
            a.cell_du += p.cell_du;
            a.netinfo_hits += p.netinfo_hits;
            a.beacon_hits += p.beacon_hits;
        }
    }
    map
}

/// Thresholds for the three AS-filter rules (§5.1).
#[derive(Clone, Copy, Debug)]
pub struct FilterConfig {
    /// Rule 1: minimum cumulative cellular demand, in DU (paper: 0.1).
    pub min_cell_du: f64,
    /// Rule 2: minimum NetInfo-enabled beacon responses (paper: 300 at the
    /// paper's hit volume; scale together with the world's hit budget).
    pub min_netinfo_hits: f64,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            min_cell_du: 0.1,
            min_netinfo_hits: 300.0,
        }
    }
}

/// The outcome of the §5 pipeline — Table 5's rows.
#[derive(Clone, Debug, PartialEq)]
pub struct AsFilterOutcome {
    /// Straw-man candidates: every AS with ≥ 1 cellular-labeled block.
    pub candidates: Vec<Asn>,
    /// Removed by rule 1 (cellular demand < threshold).
    pub removed_low_demand: Vec<Asn>,
    /// Removed by rule 2 (beacon responses < threshold).
    pub removed_low_hits: Vec<Asn>,
    /// Removed by rule 3 (CAIDA class is Content or unknown).
    pub removed_class: Vec<Asn>,
    /// The surviving cellular AS set (paper: 668).
    pub cellular_ases: Vec<Asn>,
}

impl AsFilterOutcome {
    /// Table 5 row counts: (candidates, after rule 1, after rule 2, final).
    pub fn table5_counts(&self) -> (usize, usize, usize, usize) {
        let c = self.candidates.len();
        let r1 = c - self.removed_low_demand.len();
        let r2 = r1 - self.removed_low_hits.len();
        let r3 = r2 - self.removed_class.len();
        (c, r1, r2, r3)
    }
}

/// Run the straw-man tagging plus the three filtering heuristics.
///
/// Rules apply in the paper's order; each AS lands in exactly one removal
/// bucket (the first rule that rejects it) or in the final set.
pub fn identify_cellular_ases(
    aggregates: &HashMap<Asn, AsAggregate>,
    as_db: &AsDatabase,
    cfg: &FilterConfig,
) -> AsFilterOutcome {
    let mut candidates: Vec<Asn> = aggregates
        .iter()
        .filter(|(_, a)| a.cell_blocks() > 0)
        .map(|(asn, _)| *asn)
        .collect();
    candidates.sort();

    let mut removed_low_demand = Vec::new();
    let mut removed_low_hits = Vec::new();
    let mut removed_class = Vec::new();
    let mut cellular_ases = Vec::new();

    for &asn in &candidates {
        let a = &aggregates[&asn];
        if a.cell_du < cfg.min_cell_du {
            removed_low_demand.push(asn);
            continue;
        }
        if (a.netinfo_hits as f64) < cfg.min_netinfo_hits {
            removed_low_hits.push(asn);
            continue;
        }
        let keeps = as_db
            .get(asn)
            .map(|r| r.class.passes_access_filter())
            // ASes absent from the classification dataset have "no known
            // class", which the paper filters out.
            .unwrap_or(false);
        if !keeps {
            removed_class.push(asn);
            continue;
        }
        cellular_ases.push(asn);
    }

    AsFilterOutcome {
        candidates,
        removed_low_demand,
        removed_low_hits,
        removed_class,
        cellular_ases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb::{AsKind, AsRecord};
    use cdnsim::{BeaconDataset, BeaconRecord, DemandDataset, DemandRecord};
    use netaddr::{Block24, BlockId, Continent, CountryCode};

    /// Build an index with four ASes: a healthy cellular op, a tiny one,
    /// a low-visibility one, and a proxy (Content class).
    fn setup() -> (BlockIndex, Classification, AsDatabase) {
        let mut beacons = Vec::new();
        let mut demand = Vec::new();
        let mut add = |asn: u32, idx: u32, netinfo: u64, cell: u64, du: f64| {
            let block = BlockId::V4(Block24::from_index(idx));
            if netinfo > 0 {
                beacons.push(BeaconRecord {
                    block,
                    asn: Asn(asn),
                    hits_total: netinfo * 8,
                    netinfo_hits: netinfo,
                    cellular_hits: cell,
                    wifi_hits: netinfo - cell,
                    other_hits: 0,
                });
            }
            if du > 0.0 {
                demand.push(DemandRecord {
                    block,
                    asn: Asn(asn),
                    du,
                });
            }
        };
        // AS 1: healthy cellular — two cellular blocks, lots of demand.
        add(1, 100, 5_000, 4_600, 500.0);
        add(1, 101, 2_000, 1_900, 100.0);
        // AS 2: tiny cellular — rule 1 (du sums below threshold after
        // normalization: 0.05 of 1000 → 5 DU... keep raw DU small).
        add(2, 200, 50, 48, 0.0005);
        // AS 3: demand but almost no beacons — rule 2.
        add(3, 300, 40, 38, 300.0);
        // AS 4: proxy (Content class) — rule 3.
        add(4, 400, 8_000, 7_000, 99.0);
        // AS 5: fixed-line, never a candidate.
        add(5, 500, 9_000, 5, 400.0);
        let index = BlockIndex::build(
            &BeaconDataset::from_records("t", beacons),
            &DemandDataset::from_raw("t", demand),
        );
        let class = Classification::with_default_threshold(&index);
        let db = AsDatabase::from_records(vec![
            rec(1, AsKind::DedicatedCellular),
            rec(2, AsKind::DedicatedCellular),
            rec(3, AsKind::DedicatedCellular),
            rec(4, AsKind::CloudProxy),
            rec(5, AsKind::FixedOnly),
        ]);
        (index, class, db)
    }

    fn rec(asn: u32, kind: AsKind) -> AsRecord {
        AsRecord::new(
            Asn(asn),
            format!("as{asn}"),
            CountryCode::literal("US"),
            Continent::NorthAmerica,
            kind,
        )
    }

    #[test]
    fn aggregates_sum_correctly() {
        let (index, class, _) = setup();
        let aggs = aggregate_by_as(&index, &class);
        let a1 = &aggs[&Asn(1)];
        assert_eq!(a1.blocks, 2);
        assert_eq!(a1.cell_blocks24, 2);
        assert_eq!(a1.netinfo_hits, 7_000);
        assert!((a1.cfd() - 1.0).abs() < 1e-12);
        let a5 = &aggs[&Asn(5)];
        assert_eq!(a5.cell_blocks(), 0);
        assert_eq!(a5.cfd(), 0.0);
    }

    #[test]
    fn filter_rules_apply_in_order() {
        let (index, class, db) = setup();
        let aggs = aggregate_by_as(&index, &class);
        // DU normalization: raw demand sums to 1399.0005 → 100k; rule-1
        // threshold of 0.1 DU ≈ raw 0.0014. AS2's 0.0005 falls below.
        let cfg = FilterConfig {
            min_cell_du: 0.1,
            min_netinfo_hits: 300.0,
        };
        let out = identify_cellular_ases(&aggs, &db, &cfg);
        assert_eq!(out.candidates, vec![Asn(1), Asn(2), Asn(3), Asn(4)]);
        assert_eq!(out.removed_low_demand, vec![Asn(2)]);
        assert_eq!(out.removed_low_hits, vec![Asn(3)]);
        assert_eq!(out.removed_class, vec![Asn(4)]);
        assert_eq!(out.cellular_ases, vec![Asn(1)]);
        assert_eq!(out.table5_counts(), (4, 3, 2, 1));
    }

    #[test]
    fn unknown_as_is_filtered_by_class_rule() {
        let (index, class, _) = setup();
        let aggs = aggregate_by_as(&index, &class);
        // Empty database: everything that survives rules 1-2 dies at 3.
        let out = identify_cellular_ases(&aggs, &AsDatabase::new(), &FilterConfig::default());
        assert!(out.cellular_ases.is_empty());
        assert_eq!(out.removed_class, vec![Asn(1), Asn(4)]);
    }
}
