//! Temporal evolution of the world — the paper's §8 future-work
//! direction ("how cellular addresses evolve over time, both in their
//! assignment to cellular end-users, and how demand shifts across
//! cellular address space").
//!
//! [`evolve_blocks`] produces the block set as it would look `month`
//! months after the base snapshot:
//!
//! * **Address churn**: each month a fraction of cellular blocks is
//!   renumbered — its traffic moves to a previously idle block inside the
//!   operator's allocation (CGN pools rotate much faster than fixed
//!   assignments, per the paper's observation that cellular space is
//!   CGN-concentrated).
//! * **Demand drift**: per-operator demand random-walks month over month.
//! * **Cellular growth**: cellular demand compounds relative to fixed
//!   demand, mirroring the era's mobile traffic growth.
//!
//! Evolution is deterministic in `(seed, month)` and months are
//! *cumulative*: month 3 applies three months of churn to the base world.

use netaddr::{Block24, BlockId};

use crate::blocks::BlockSet;
use crate::sampling::{lognormal_jitter, rng_for, uniform};
use crate::world::World;

/// Evolution knobs.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Monthly probability that a cellular block is renumbered.
    pub cell_block_churn: f64,
    /// Monthly probability that a fixed block is renumbered.
    pub fixed_block_churn: f64,
    /// Log-normal sigma of the per-operator monthly demand drift.
    pub demand_drift_sigma: f64,
    /// Monthly multiplicative growth of cellular demand (1.04 ≈ the
    /// 40-60%/year mobile growth the era's industry reports describe).
    pub cellular_growth: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            cell_block_churn: 0.08,
            fixed_block_churn: 0.01,
            demand_drift_sigma: 0.10,
            cellular_growth: 1.04,
        }
    }
}

/// The world's blocks `month` months after the base snapshot
/// (`month = 0` returns an identical copy).
pub fn evolve_blocks(world: &World, cfg: &ChurnConfig, month: u32) -> BlockSet {
    let mut out = world.blocks.clone();
    if month == 0 {
        return out;
    }

    // Per-operator demand drift factors, compounded over months. Derive
    // each month's factor from its own stream so that month k is a true
    // prefix of month k+1's history.
    let mut op_factor: std::collections::HashMap<netaddr::Asn, f64> = Default::default();
    for (oi, op) in world.operators.ops.iter().enumerate() {
        let mut f = 1.0;
        for m in 1..=month {
            let mut rng = rng_for(
                world.config.seed ^ 0xE0_0000_0000,
                (m as u64) << 32 | oi as u64,
            );
            f *= lognormal_jitter(&mut rng, cfg.demand_drift_sigma);
        }
        op_factor.insert(op.asn, f);
    }
    let growth = cfg.cellular_growth.powi(month as i32);

    // Span lookup for renumbering targets.
    let span_of: std::collections::HashMap<netaddr::Asn, &crate::blocks::OpSpans> =
        world.blocks.spans.iter().map(|s| (s.asn, s)).collect();

    for (i, r) in out.records.iter_mut().enumerate() {
        let factor = op_factor.get(&r.asn).copied().unwrap_or(1.0);
        let g = if r.access.is_cellular() { growth } else { 1.0 };
        r.demand_weight = (r.demand_weight as f64 * factor * g) as f32;
        r.beacon_weight = (r.beacon_weight as f64 * factor * g) as f32;

        // Renumbering: each record owns a single lifetime draw `u`; it
        // survives through month m iff `u < (1-churn)^m`. This makes the
        // snapshots a coherent time series — a block that survived month
        // m has, by construction, survived every earlier month — so
        // consecutive-month transitions measure exactly one month of
        // churn. The jump destination is likewise fixed per record.
        let churn = if r.access.is_cellular() {
            cfg.cell_block_churn
        } else {
            cfg.fixed_block_churn
        };
        let survive = (1.0 - churn).powi(month as i32);
        let mut rng = rng_for(world.config.seed ^ 0xE1_0000_0000, i as u64);
        if uniform(&mut rng, 0.0, 1.0) >= survive {
            if let (BlockId::V4(_), Some(span)) = (r.block, span_of.get(&r.asn)) {
                let (start, len) = if r.access.is_cellular() {
                    (span.cell24_start, span.cell24_active + span.cell24_extra)
                } else {
                    (span.fixed24_start, span.fixed24_active + span.fixed24_extra)
                };
                if len > 0 {
                    let offset = (uniform(&mut rng, 0.0, 1.0) * len as f64) as u32 % len;
                    r.block = BlockId::V4(Block24::from_index(start + offset));
                }
            }
        }
    }

    // Renumbering can land two records on the same index; keep the
    // higher-demand one per block (the CGN pool that actually uses it).
    out.records.sort_by(|a, b| {
        a.block.cmp(&b.block).then(
            b.demand_weight
                .partial_cmp(&a.demand_weight)
                .expect("weights are finite"),
        )
    });
    out.records.dedup_by_key(|r| r.block);
    out
}

/// A world snapshot for one month: the evolved blocks plus the month id,
/// ready to feed the CDN simulator.
#[derive(Clone, Debug)]
pub struct MonthSnapshot {
    /// Months since the base world.
    pub month: u32,
    /// Evolved block set.
    pub blocks: BlockSet,
}

/// Evolve a world over `months` months (inclusive of month 0).
pub fn evolve_timeline(world: &World, cfg: &ChurnConfig, months: u32) -> Vec<MonthSnapshot> {
    (0..=months)
        .map(|month| MonthSnapshot {
            month,
            blocks: evolve_blocks(world, cfg, month),
        })
        .collect()
}

/// Swap a world's blocks for an evolved snapshot, producing a world whose
/// datasets the CDN simulator can sample. Cheap at demo scale; clones the
/// block set.
pub fn world_at_month(world: &World, cfg: &ChurnConfig, month: u32) -> World {
    let mut w = world.clone();
    w.blocks = evolve_blocks(world, cfg, month);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn base() -> World {
        World::generate(WorldConfig::mini())
    }

    #[test]
    fn month_zero_is_identity() {
        let world = base();
        let evolved = evolve_blocks(&world, &ChurnConfig::default(), 0);
        assert_eq!(world.blocks.records.len(), evolved.records.len());
        for (a, b) in world.blocks.records.iter().zip(&evolved.records) {
            assert_eq!(a.block, b.block);
            assert_eq!(a.demand_weight, b.demand_weight);
        }
    }

    #[test]
    fn evolution_is_deterministic() {
        let world = base();
        let cfg = ChurnConfig::default();
        let a = evolve_blocks(&world, &cfg, 3);
        let b = evolve_blocks(&world, &cfg, 3);
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.block, y.block);
            assert_eq!(x.demand_weight, y.demand_weight);
        }
    }

    #[test]
    fn cellular_blocks_churn_faster_than_fixed() {
        let world = base();
        let cfg = ChurnConfig::default();
        let evolved = evolve_blocks(&world, &cfg, 6);
        let evolved_ids: std::collections::HashSet<BlockId> =
            evolved.records.iter().map(|r| r.block).collect();
        let (mut cell_kept, mut cell_total) = (0usize, 0usize);
        let (mut fixed_kept, mut fixed_total) = (0usize, 0usize);
        for r in &world.blocks.records {
            if !r.block.is_v4() {
                continue;
            }
            if r.access.is_cellular() {
                cell_total += 1;
                cell_kept += usize::from(evolved_ids.contains(&r.block));
            } else {
                fixed_total += 1;
                fixed_kept += usize::from(evolved_ids.contains(&r.block));
            }
        }
        let cell_rate = cell_kept as f64 / cell_total as f64;
        let fixed_rate = fixed_kept as f64 / fixed_total as f64;
        assert!(
            cell_rate < fixed_rate,
            "cellular persistence {cell_rate:.3} should trail fixed {fixed_rate:.3}"
        );
        // Six months at 8%/month → ~60% survival; renumbering-in-place
        // keeps some indexes occupied, so allow a broad band.
        assert!((0.40..0.90).contains(&cell_rate), "cellular {cell_rate:.3}");
        assert!(fixed_rate > 0.90, "fixed {fixed_rate:.3}");
    }

    #[test]
    fn cellular_demand_grows_relative_to_fixed() {
        let world = base();
        let cfg = ChurnConfig {
            demand_drift_sigma: 0.0,
            ..Default::default()
        };
        let evolved = evolve_blocks(&world, &cfg, 12);
        let sum = |blocks: &BlockSet, cellular: bool| -> f64 {
            blocks
                .records
                .iter()
                .filter(|r| r.access.is_cellular() == cellular)
                .map(|r| r.demand_weight as f64)
                .sum()
        };
        let cell_growth = sum(&evolved, true) / sum(&world.blocks, true);
        let fixed_growth = sum(&evolved, false) / sum(&world.blocks, false);
        // 1.04^12 ≈ 1.60 for cellular; fixed only loses a little demand
        // to renumbering dedup.
        assert!(
            (1.3..1.9).contains(&cell_growth),
            "cellular {cell_growth:.3}"
        );
        assert!(
            (0.9..1.1).contains(&fixed_growth),
            "fixed {fixed_growth:.3}"
        );
    }

    #[test]
    fn survival_is_monotone_across_months() {
        // A block still at its original index in month m must also have
        // been there in month m-1 — the snapshots form a coherent
        // time series, not independent redraws.
        let world = base();
        let cfg = ChurnConfig::default();
        let original: std::collections::HashSet<BlockId> =
            world.blocks.records.iter().map(|r| r.block).collect();
        let mut prev_kept: Option<std::collections::HashSet<BlockId>> = None;
        for m in 1..=5 {
            let evolved = evolve_blocks(&world, &cfg, m);
            let kept: std::collections::HashSet<BlockId> = evolved
                .records
                .iter()
                .map(|r| r.block)
                .filter(|b| original.contains(b))
                .collect();
            if let Some(prev) = &prev_kept {
                // Blocks can also be *re-occupied* by a churned record
                // jumping onto an original index; restrict to blocks kept
                // both months and require near-total containment.
                let regressions = kept.difference(prev).count();
                assert!(
                    regressions as f64 <= kept.len() as f64 * 0.02,
                    "month {m}: {regressions} blocks reappeared out of {}",
                    kept.len()
                );
            }
            prev_kept = Some(kept);
        }
    }

    #[test]
    fn no_duplicate_blocks_after_churn() {
        let world = base();
        let evolved = evolve_blocks(&world, &ChurnConfig::default(), 4);
        let mut ids: Vec<BlockId> = evolved.records.iter().map(|r| r.block).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }
}
