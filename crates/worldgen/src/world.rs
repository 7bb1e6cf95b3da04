//! World assembly: countries → operators → blocks → AS database → carriers.

use std::collections::HashMap;

use asdb::{AsClass, AsDatabase, AsRecord, CarrierGroundTruth};
use netaddr::Asn;

use crate::blocks::{generate_blocks, BlockSet};
use crate::carriers::build_carriers;
use crate::config::WorldConfig;
use crate::countries::{build_countries, CountrySpec};
use crate::operators::{generate_operators, OperatorInfo, OperatorRole, OperatorSet};
use crate::sampling::rng_for;

/// The fully generated synthetic world: the ground truth the measurement
/// pipeline is evaluated against.
#[derive(Clone, Debug)]
pub struct World {
    /// The configuration this world was generated from.
    pub config: WorldConfig,
    /// All countries (named anchors + fillers).
    pub countries: Vec<CountrySpec>,
    /// The operator population with showcase designations.
    pub operators: OperatorSet,
    /// Public AS metadata (what the pipeline is allowed to see).
    pub as_db: AsDatabase,
    /// All active blocks plus per-operator allocation spans.
    pub blocks: BlockSet,
    /// Validation carriers (ground-truth prefix lists).
    pub carriers: Vec<CarrierGroundTruth>,
    op_index: HashMap<Asn, usize>,
}

impl World {
    /// Generate a world from the configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails [`WorldConfig::validate`] — a
    /// nonsense config is a programming error, not a runtime condition.
    pub fn generate(config: WorldConfig) -> World {
        World::generate_with(config, &cellobs::Observer::disabled())
    }

    /// [`World::generate`] with observability: each construction step
    /// runs under a span (`worldgen/<step>`), and block/operator counts
    /// land in counters. The world — and therefore every counter — is a
    /// pure function of the config, identical across thread counts.
    ///
    /// # Panics
    /// Panics if the configuration fails [`WorldConfig::validate`], like
    /// [`World::generate`].
    pub fn generate_with(config: WorldConfig, obs: &cellobs::Observer) -> World {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid WorldConfig: {e}"));
        let mut root = obs.span("worldgen");
        let countries = build_countries();
        let operators = {
            let mut span = obs.span("operators");
            let ops = generate_operators(&config, &countries);
            span.set_items(ops.ops.len() as u64);
            ops
        };
        let blocks = {
            let mut span = obs.span("blocks");
            let blocks = generate_blocks(&config, &operators);
            span.set_items(blocks.records.len() as u64);
            blocks
        };
        let as_db = build_as_db(&config, &operators);
        let carriers = if config.with_carriers {
            build_carriers(&operators, &blocks.spans)
        } else {
            Vec::new()
        };
        root.set_items(blocks.records.len() as u64);
        drop(root);
        if obs.is_enabled() {
            obs.counter("worldgen.operators")
                .add(operators.ops.len() as u64);
            obs.counter("worldgen.blocks")
                .add(blocks.records.len() as u64);
            obs.counter("worldgen.carriers").add(carriers.len() as u64);
        }
        let op_index = operators
            .ops
            .iter()
            .enumerate()
            .map(|(i, o)| (o.asn, i))
            .collect();
        World {
            config,
            countries,
            operators,
            as_db,
            blocks,
            carriers,
            op_index,
        }
    }

    /// Look up an operator by ASN in O(1).
    pub fn operator(&self, asn: Asn) -> Option<&OperatorInfo> {
        self.op_index.get(&asn).map(|&i| &self.operators.ops[i])
    }

    /// Total raw demand weight across all blocks (the quantity the CDN
    /// simulator normalizes to 100,000 DU).
    ///
    /// Summed over fixed-size chunks whose partials are merged in chunk
    /// order, so the (non-associative) float total is identical for any
    /// thread count.
    pub fn total_demand_weight(&self) -> f64 {
        use rayon::prelude::*;
        self.blocks
            .records
            .par_chunks(SUM_CHUNK)
            .map(|chunk| chunk.iter().map(|r| r.demand_weight as f64).sum::<f64>())
            .collect::<Vec<f64>>()
            .iter()
            .sum()
    }

    /// Ground-truth summary counters, used by calibration tests and the
    /// experiment harness for paper-vs-measured reporting.
    pub fn summary(&self) -> WorldSummary {
        use rayon::prelude::*;
        let mut s = WorldSummary {
            operators: self.operators.ops.len(),
            ..WorldSummary::default()
        };
        for op in &self.operators.ops {
            if op.role == OperatorRole::Normal && op.kind.is_cellular_access() {
                s.true_cellular_ases += 1;
                if op.kind == asdb::AsKind::MixedAccess {
                    s.true_mixed_ases += 1;
                }
            }
        }
        // Per-chunk partials accumulated sequentially inside each
        // fixed-size chunk, merged in chunk order: deterministic float
        // sums regardless of thread count.
        let partials: Vec<SummaryPartial> = self
            .blocks
            .records
            .par_chunks(SUM_CHUNK)
            .map(|chunk| {
                let mut p = SummaryPartial::default();
                for r in chunk {
                    let d = r.demand_weight as f64;
                    p.total_demand += d;
                    match r.block {
                        netaddr::BlockId::V4(_) => {
                            p.blocks24 += 1;
                            if r.beacon_weight > 0.0 {
                                p.beacon_blocks24 += 1;
                            }
                            if r.access.is_cellular() {
                                p.cell_blocks24 += 1;
                                p.cell_demand += d;
                            }
                        }
                        netaddr::BlockId::V6(_) => {
                            p.blocks48 += 1;
                            if r.beacon_weight > 0.0 {
                                p.beacon_blocks48 += 1;
                            }
                            if r.access.is_cellular() {
                                p.cell_blocks48 += 1;
                                p.cell_demand += d;
                            }
                        }
                    }
                }
                p
            })
            .collect();
        let mut cell_demand = 0.0f64;
        let mut total_demand = 0.0f64;
        for p in &partials {
            s.blocks24 += p.blocks24;
            s.blocks48 += p.blocks48;
            s.beacon_blocks24 += p.beacon_blocks24;
            s.beacon_blocks48 += p.beacon_blocks48;
            s.cell_blocks24 += p.cell_blocks24;
            s.cell_blocks48 += p.cell_blocks48;
            cell_demand += p.cell_demand;
            total_demand += p.total_demand;
        }
        s.cell_demand_fraction = if total_demand > 0.0 {
            cell_demand / total_demand
        } else {
            0.0
        };
        s
    }
}

/// Chunk size for parallel summary/demand sums. Fixed (never derived from
/// the thread count) so chunk boundaries — and therefore float-summation
/// order — depend only on the data.
const SUM_CHUNK: usize = 8192;

/// Per-chunk accumulator for [`World::summary`].
#[derive(Clone, Copy, Debug, Default)]
struct SummaryPartial {
    blocks24: usize,
    blocks48: usize,
    beacon_blocks24: usize,
    beacon_blocks48: usize,
    cell_blocks24: usize,
    cell_blocks48: usize,
    cell_demand: f64,
    total_demand: f64,
}

/// Ground-truth counters for a generated world.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorldSummary {
    /// Total operators (the platform's AS census).
    pub operators: usize,
    /// Genuine cellular access ASes (dedicated + mixed).
    pub true_cellular_ases: usize,
    /// Mixed ASes among them.
    pub true_mixed_ases: usize,
    /// Active IPv4 /24 blocks.
    pub blocks24: usize,
    /// Active IPv6 /48 blocks.
    pub blocks48: usize,
    /// IPv4 blocks visible to RUM beacons.
    pub beacon_blocks24: usize,
    /// IPv6 blocks visible to RUM beacons.
    pub beacon_blocks48: usize,
    /// Ground-truth cellular IPv4 blocks.
    pub cell_blocks24: usize,
    /// Ground-truth cellular IPv6 blocks.
    pub cell_blocks48: usize,
    /// Ground-truth fraction of demand that is cellular.
    pub cell_demand_fraction: f64,
}

/// The public AS database: every operator surfaces its CAIDA-style class.
/// A fraction of proxy ASes surface as `Unknown` — absent from the
/// classification dataset — which rule 3 filters just the same.
fn build_as_db(cfg: &WorldConfig, ops: &OperatorSet) -> AsDatabase {
    use rand::Rng;
    let mut rng = rng_for(cfg.seed, 0x60_0000);
    let mut db = AsDatabase::new();
    for op in &ops.ops {
        let mut rec = AsRecord::new(op.asn, op.name.clone(), op.country, op.continent, op.kind);
        if op.role == OperatorRole::Proxy && rng.gen::<f64>() < 0.4 {
            rec.class = AsClass::Unknown;
        }
        db.insert(rec);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_world_generates_and_summarizes() {
        let world = World::generate(WorldConfig::mini());
        let s = world.summary();
        assert_eq!(s.operators, world.operators.ops.len());
        assert_eq!(s.true_cellular_ases, 669);
        // Mixed majority (paper: 58.6%).
        let frac = s.true_mixed_ases as f64 / s.true_cellular_ases as f64;
        assert!((0.5..0.7).contains(&frac), "mixed fraction {frac}");
        assert!(s.blocks24 > 5_000, "blocks24 = {}", s.blocks24);
        assert!(s.cell_blocks24 > 300, "cell24 = {}", s.cell_blocks24);
        assert!(s.blocks48 > 0 && s.cell_blocks48 > 0);
        // Ground-truth global cellular demand fraction near the paper's
        // 16.2% (the country table makes ~15-20% the natural landing zone).
        assert!(
            (0.12..0.24).contains(&s.cell_demand_fraction),
            "cellular demand fraction {:.4}",
            s.cell_demand_fraction
        );
        assert_eq!(world.carriers.len(), 3);
    }

    #[test]
    fn operator_lookup_works() {
        let world = World::generate(WorldConfig::mini());
        let asn = world.operators.showcase_mixed;
        assert_eq!(world.operator(asn).unwrap().asn, asn);
        assert!(world.operator(Asn(4_294_000_000)).is_none());
    }

    #[test]
    fn as_db_covers_all_operators_with_some_unknown_proxies() {
        let world = World::generate(WorldConfig::mini());
        assert_eq!(world.as_db.len(), world.operators.ops.len());
        let unknown = world
            .as_db
            .iter()
            .filter(|r| r.class == AsClass::Unknown)
            .count();
        assert!(unknown > 0, "some proxies must surface as Unknown class");
    }

    #[test]
    fn beacon_visibility_is_partial() {
        let world = World::generate(WorldConfig::mini());
        let s = world.summary();
        // Table 2: BEACON sees ~73% of DEMAND /24 blocks.
        let frac = s.beacon_blocks24 as f64 / s.blocks24 as f64;
        assert!(
            (0.55..0.92).contains(&frac),
            "beacon /24 coverage {frac:.3}"
        );
    }
}
