//! Block-level generation: turns the operator population into concrete
//! /24 and /48 subnet records with ground-truth access types, demand
//! weights, RUM visibility, and latent NetInfo label rates.
//!
//! The demand model inside an operator follows the paper's observations:
//!
//! * **Cellular**: a small CGN tier of /24s carries nearly all demand
//!   (§6.2: 24-25 blocks ≈ 99.3-99.5% in the showcase mixed AS), a long
//!   tail of active-but-idle blocks carries almost nothing, and dedicated
//!   operators additionally expose ratio-0 infrastructure space (Fig. 6a:
//!   ~40% of the dedicated showcase's /24s).
//! * **Fixed**: demand spreads gradually across orders of magnitude more
//!   blocks (Fig. 8's fixed curve).
//! * **Proxies**: connection-terminating proxies inside cellular ASes have
//!   demand but no RUM beacons; proxy-front blocks in cloud ASes have
//!   beacons whose NetInfo labels reflect the *clients'* cellular links.

use asdb::{AccessType, AsKind};
use netaddr::{Asn, Block24, Block48, BlockId};
use rayon::prelude::*;

use crate::config::WorldConfig;
use crate::operators::{OperatorInfo, OperatorRole, OperatorSet};
use crate::sampling::{rng_for, uniform, zipf_split, GenRng};

/// What a block is for, in ground truth. Analyses never read this — it
/// exists for the generator and for test oracles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockRole {
    /// Ordinary eyeball space (cellular or fixed).
    Eyeball,
    /// Cellular CGN gateway block: concentrates the operator's demand.
    CgnGateway,
    /// Active cellular block with negligible demand (idle pool).
    IdlePool,
    /// Cellular-side infrastructure: ratio-0, essentially no demand.
    Infra,
    /// Connection-terminating HTTP proxy inside a cellular AS: demand but
    /// no RUM beacons (the paper's "dedicated operator at 0.9 CFD" case).
    TermProxy,
    /// Proxy/VPN front block in a cloud AS: beacons carry the clients'
    /// cellular labels (§5's false positives).
    ProxyFront,
}

/// One active measurement block with its latent ground truth.
#[derive(Clone, Copy, Debug)]
pub struct SubnetRecord {
    /// The /24 or /48 block.
    pub block: BlockId,
    /// Owning AS.
    pub asn: Asn,
    /// Ground-truth access type of the lines behind this block.
    pub access: AccessType,
    /// Generative role (oracle only).
    pub role: BlockRole,
    /// Raw platform demand weight (global units; the CDN simulator
    /// normalizes the world to 100,000 DU). Zero means the block never
    /// appears in the DEMAND dataset.
    pub demand_weight: f32,
    /// Raw RUM beacon volume weight. Zero means the block never appears in
    /// the BEACON dataset.
    pub beacon_weight: f32,
    /// Latent probability that a NetInfo-enabled hit from this block
    /// reports `cellular`.
    pub cell_rate: f32,
}

/// Address-space allocation for one operator: contiguous index runs for
/// each section. Carrier ground-truth lists are derived from these spans
/// (allocated space includes blocks that never appear in any dataset).
#[derive(Clone, Copy, Debug)]
pub struct OpSpans {
    /// Owning AS.
    pub asn: Asn,
    /// First /24 index of the cellular run.
    pub cell24_start: u32,
    /// Active cellular /24s (traffic + idle + infra).
    pub cell24_active: u32,
    /// The traffic-bearing prefix of the cellular run (CGN tier plus the
    /// idle tail, excluding terminating proxies and ratio-0 infra). Some
    /// carriers' ground truth covers only this section.
    pub cell24_traffic: u32,
    /// Allocated-but-unobserved cellular /24s following the active run.
    pub cell24_extra: u32,
    /// First /24 index of the fixed run.
    pub fixed24_start: u32,
    /// Active fixed /24s.
    pub fixed24_active: u32,
    /// Allocated-but-unobserved fixed /24s.
    pub fixed24_extra: u32,
    /// First /48 index of the cellular IPv6 run.
    pub cell48_start: u64,
    /// Active cellular /48s.
    pub cell48_active: u64,
    /// First /48 index of the fixed IPv6 run.
    pub fixed48_start: u64,
    /// Active fixed /48s.
    pub fixed48_active: u64,
}

/// Output of block generation.
#[derive(Clone, Debug, Default)]
pub struct BlockSet {
    /// All active blocks across the world.
    pub records: Vec<SubnetRecord>,
    /// Per-operator allocation spans (same order as the operator set).
    pub spans: Vec<OpSpans>,
}

/// First /24 index handed out (1.0.0.0; the low space is left unused the
/// way the real v4 space reserves 0/8).
const BASE24: u32 = 0x0001_0000;
/// First /48 index handed out (2001::/16 space).
const BASE48: u64 = 0x2001_0000_0000;

/// Generate all blocks for the operator population.
pub fn generate_blocks(cfg: &WorldConfig, ops: &OperatorSet) -> BlockSet {
    // Phase 1: sequential address allocation.
    let mut cursor24: u32 = BASE24;
    let mut cursor48: u64 = BASE48;
    let mut spans = Vec::with_capacity(ops.ops.len());
    let mut layout_rng = rng_for(cfg.seed, 0x40_0000);

    // Demand-only blocks ride along with fixed space, apportioned by fixed
    // demand share.
    let fixed_demand_total: f64 = ops.ops.iter().map(|o| o.fixed_demand).sum();

    // Pre-compute per-op infra expansion and reserves.
    let mut layouts: Vec<OpLayout> = Vec::with_capacity(ops.ops.len());
    for op in &ops.ops {
        let infra_frac = infra_fraction(&mut layout_rng, op, ops);
        let traffic = op.cell_blocks24;
        let infra = if traffic > 0 {
            ((traffic as f64) * infra_frac / (1.0 - infra_frac)).round() as u64
        } else {
            0
        };
        let demand_only = if fixed_demand_total > 0.0 {
            (cfg.demand_only_blocks24 as f64 * op.fixed_demand / fixed_demand_total).round() as u64
        } else {
            0
        };
        let fixed_reserve = if op.asn == ops.showcase_mixed {
            // Carrier A's ground truth has ~89.6k fixed CIDRs against ~57k
            // active ones.
            (op.fixed_blocks24 as f64 * 0.57).round() as u64
        } else {
            (op.fixed_blocks24 as f64 * 0.10).round() as u64
        };
        layouts.push(OpLayout {
            traffic_cell24: traffic,
            infra_cell24: infra,
            demand_only24: demand_only,
            fixed_reserve24: fixed_reserve,
        });
    }

    for (op, layout) in ops.ops.iter().zip(&layouts) {
        let cell_active = (layout.traffic_cell24 + layout.infra_cell24) as u32;
        let cell_extra = op.cell_alloc_extra24 as u32;
        let fixed_active = (op.fixed_blocks24 + layout.demand_only24) as u32;
        let fixed_extra = layout.fixed_reserve24 as u32;
        let span = OpSpans {
            asn: op.asn,
            cell24_start: cursor24,
            cell24_active: cell_active,
            cell24_traffic: layout.traffic_cell24 as u32,
            cell24_extra: cell_extra,
            fixed24_start: cursor24 + cell_active + cell_extra,
            fixed24_active: fixed_active,
            fixed24_extra: fixed_extra,
            cell48_start: cursor48,
            cell48_active: op.cell_blocks48,
            fixed48_start: cursor48 + op.cell_blocks48,
            fixed48_active: op.fixed_blocks48,
        };
        cursor24 = span.fixed24_start + fixed_active + fixed_extra;
        cursor48 = span.fixed48_start + op.fixed_blocks48;
        assert!(
            cursor24 < 0x00FF_0000,
            "IPv4 /24 space exhausted; lower block_scale"
        );
        spans.push(span);
    }

    // Phase 2: per-operator block records, each from its own RNG stream so
    // the result is independent of iteration strategy.
    //
    // The beacon floor (the trickle of hits idle blocks attract) is
    // expressed in the same weight units as demand, so it must be sized
    // relative to the world's total weight and hit budget: a floor block
    // should land ~3 NetInfo hits whether the world is paper-scale or a
    // 500× reduction.
    let total_weight: f64 = ops.ops.iter().map(|o| o.total_demand()).sum::<f64>() * 1.08;
    let per_block_floor = 3.0 * total_weight / cfg.netinfo_hits_total;
    // Operators are independent — each has its own RNG stream keyed by
    // its position — so phase 2 fans out across threads; per-operator
    // record vectors are concatenated in operator order, making the
    // output bit-identical to a sequential pass for any thread count.
    let per_op: Vec<Vec<SubnetRecord>> = ops
        .ops
        .par_iter()
        .enumerate()
        .map(|(i, op)| {
            let mut rng = rng_for(cfg.seed, 0x50_0000 + i as u64);
            // Some CGN gateways front app-only (JS-free) traffic and never
            // beacon; their demand is real but invisible to classification —
            // the source of the paper's demand-weighted false negatives
            // (Carrier A's demand recall is 0.82, not 1.0). The showcase
            // mixed operator carries a paper-calibrated share of such space.
            // Elsewhere the rate is zero: a dark rank-1 gateway would siphon
            // 15-20% of an operator's cellular demand and silently flip
            // dedicated operators below the 0.9 CFD threshold.
            let dark_cgn_rate = if op.asn == ops.showcase_mixed {
                0.12
            } else {
                0.0
            };
            // Fig. 6a: large dedicated operators' demand concentrates at
            // ratios 0.7-0.9 — their gateway blocks are hotspot-heavy.
            let cgn_hotspot_prob = if op.asn == ops.showcase_dedicated
                || (op.kind == AsKind::DedicatedCellular && op.cell_demand > 3.0)
            {
                0.85
            } else {
                0.25
            };
            let tuning = OpTuning {
                floor_weight: per_block_floor,
                dark_cgn_rate,
                cgn_hotspot_prob,
            };
            let mut out = Vec::new();
            generate_op_blocks(cfg, op, &spans[i], &layouts[i], &tuning, &mut rng, &mut out);
            out
        })
        .collect();
    let mut records = Vec::with_capacity(per_op.iter().map(Vec::len).sum());
    for v in per_op {
        records.extend(v);
    }

    BlockSet { records, spans }
}

struct OpLayout {
    traffic_cell24: u64,
    infra_cell24: u64,
    demand_only24: u64,
    fixed_reserve24: u64,
}

/// Per-operator sampling knobs resolved by `generate_blocks`.
struct OpTuning {
    /// Beacon-weight floor giving idle blocks ~3 NetInfo hits.
    floor_weight: f64,
    /// Share of CGN gateways that are RUM-invisible (demand FNs).
    dark_cgn_rate: f64,
    /// Probability a gateway is hotspot-heavy (ratio 0.65-0.9).
    cgn_hotspot_prob: f64,
}

/// Fraction of an operator's active cellular space that is ratio-0
/// infrastructure. The showcase dedicated operator is pinned at the
/// paper's 40% (Fig. 6a).
fn infra_fraction(rng: &mut GenRng, op: &OperatorInfo, ops: &OperatorSet) -> f64 {
    if op.asn == ops.showcase_dedicated {
        0.40
    } else if op.asn == ops.showcase_mixed {
        // Fig. 6b: the mixed showcase's cellular space is dominated by the
        // idle tail rather than infra.
        0.05
    } else {
        match op.kind {
            // Large dedicated carriers hold big ratio-0 infrastructure
            // pools (Fig. 6a's ~40%); the showcase selection may land on
            // any of the top US operators, so the shape must hold for all
            // of them.
            AsKind::DedicatedCellular if op.cell_demand > 3.0 => uniform(rng, 0.32, 0.45),
            AsKind::DedicatedCellular => uniform(rng, 0.05, 0.45),
            AsKind::MixedAccess => uniform(rng, 0.02, 0.15),
            _ => 0.0,
        }
    }
}

fn generate_op_blocks(
    cfg: &WorldConfig,
    op: &OperatorInfo,
    span: &OpSpans,
    layout: &OpLayout,
    tuning: &OpTuning,
    rng: &mut GenRng,
    out: &mut Vec<SubnetRecord>,
) {
    let beacon_cov = cfg.beacon_demand_coverage * op.beacon_coverage;
    // Per-block beacon floor: active eyeball space attracts a trickle of
    // hits regardless of demand (idle pools still host a few devices).
    let floor = tuning.floor_weight * op.beacon_coverage;

    // ---------------- IPv4 cellular ----------------
    let v4_cell_demand = op.cell_demand * (1.0 - op.v6_demand_frac);
    let n_traffic = layout.traffic_cell24 as usize;
    if n_traffic > 0 && op.role != OperatorRole::Proxy {
        let n_cgn = (op.cgn_blocks as usize).min(n_traffic).max(1);
        let n_tail = n_traffic - n_cgn;
        // Dedicated operators sometimes host terminating proxies that
        // siphon demand into beacon-invisible blocks (§6.1's 0.9-CFD
        // dedicated Asian operator).
        let term_proxy = op.kind == AsKind::DedicatedCellular
            && op.role == OperatorRole::Normal
            && n_traffic >= 20
            && layout.infra_cell24 >= 2
            && uniform(rng, 0.0, 1.0) < 0.06;
        let proxy_demand = if term_proxy {
            v4_cell_demand * uniform(rng, 0.04, 0.10)
        } else {
            0.0
        };
        let eyeball_demand = v4_cell_demand - proxy_demand;

        // With no tail blocks the CGN tier absorbs everything — otherwise
        // the tail share would silently vanish.
        let cgn_demand = if n_tail == 0 {
            eyeball_demand
        } else {
            eyeball_demand * op.cgn_share
        };
        let tail_demand = eyeball_demand - cgn_demand;
        let cgn_shares = zipf_split(rng, cgn_demand, n_cgn, 0.8, 0.3);
        let tail_shares = zipf_split(rng, tail_demand, n_tail, 1.5, 0.6);
        // Deterministic count of dark gateways, taken from the ranks just
        // below the top so the largest gateway always stays RUM-visible
        // and the dark share of demand is roughly scale-independent.
        let n_dark =
            ((tuning.dark_cgn_rate * n_cgn as f64).round() as usize).min(n_cgn.saturating_sub(1));

        for (j, &d) in cgn_shares.iter().chain(tail_shares.iter()).enumerate() {
            let is_cgn = j < n_cgn;
            let role = if is_cgn {
                BlockRole::CgnGateway
            } else if d < eyeball_demand * 1e-6 {
                BlockRole::IdlePool
            } else {
                BlockRole::Eyeball
            };
            // Tethering depresses the cellular label rate. Most CGN
            // gateways stay above 0.9 (Fig. 2: most cellular *demand*
            // sits above ratio 0.9), but a quarter are hotspot-heavy and
            // land in the 0.65-0.9 band — the source of the paper's
            // intermediate-ratio demand mass (6.9% of IPv4 demand) and of
            // Fig. 6a's 0.7-0.9 concentration.
            let cell_rate = match role {
                BlockRole::CgnGateway => {
                    if uniform(rng, 0.0, 1.0) < tuning.cgn_hotspot_prob {
                        1.0 - op.tether_rate * uniform(rng, 0.8, 2.0)
                    } else {
                        1.0 - op.tether_rate * uniform(rng, 0.1, 0.35)
                    }
                }
                BlockRole::Eyeball => 1.0 - op.tether_rate * uniform(rng, 0.3, 0.8),
                _ => 1.0 - op.tether_rate * uniform(rng, 0.05, 0.3),
            }
            .clamp(0.35, 1.0);
            let dark = is_cgn && n_dark > 0 && (1..=n_dark).contains(&j);
            out.push(SubnetRecord {
                block: BlockId::V4(Block24::from_index(span.cell24_start + j as u32)),
                asn: op.asn,
                access: AccessType::Cellular,
                role,
                demand_weight: d as f32,
                beacon_weight: if dark {
                    0.0
                } else {
                    (d * beacon_cov + floor) as f32
                },
                cell_rate: cell_rate as f32,
            });
        }

        // Terminating proxy blocks sit right after the traffic run, inside
        // the cellular span (they are cellular infrastructure addresses,
        // but no radio sits in front of the *proxy's* own traffic).
        if term_proxy {
            let n_proxy = 2usize;
            let shares = zipf_split(rng, proxy_demand, n_proxy, 0.5, 0.2);
            for (j, &d) in shares.iter().enumerate() {
                out.push(SubnetRecord {
                    block: BlockId::V4(Block24::from_index(
                        span.cell24_start + (n_traffic + j) as u32,
                    )),
                    asn: op.asn,
                    access: AccessType::Fixed,
                    role: BlockRole::TermProxy,
                    demand_weight: d as f32,
                    beacon_weight: 0.0,
                    cell_rate: 0.0,
                });
            }
        }

        // Infra blocks: ratio-0 space with a trickle of non-cellular hits.
        let infra_start = n_traffic + if term_proxy { 2 } else { 0 };
        let infra_end = (layout.traffic_cell24 + layout.infra_cell24) as usize;
        for j in infra_start..infra_end {
            out.push(SubnetRecord {
                block: BlockId::V4(Block24::from_index(span.cell24_start + j as u32)),
                asn: op.asn,
                access: AccessType::Cellular,
                role: BlockRole::Infra,
                demand_weight: 1.0e-8,
                // A full beacon floor so nearly every infra block gets a
                // defined (zero) ratio — Fig. 6a plots them at ratio 0.
                beacon_weight: floor as f32,
                cell_rate: 0.0,
            });
        }
    }

    // Proxy-front blocks for cloud ASes: labeled space reflects clients.
    if op.role == OperatorRole::Proxy && layout.traffic_cell24 > 0 {
        let n = layout.traffic_cell24 as usize;
        let shares = zipf_split(rng, op.cell_demand, n, 1.0, 0.4);
        for (j, &d) in shares.iter().enumerate() {
            let rate = (op.proxy_cell_rate * uniform(rng, 0.85, 1.1)).clamp(0.0, 1.0);
            out.push(SubnetRecord {
                block: BlockId::V4(Block24::from_index(span.cell24_start + j as u32)),
                asn: op.asn,
                access: AccessType::Fixed,
                role: BlockRole::ProxyFront,
                demand_weight: d as f32,
                beacon_weight: (d * beacon_cov + floor) as f32,
                cell_rate: rate as f32,
            });
        }
    }

    // ---------------- IPv4 fixed ----------------
    // Fixed-line IPv6 demand share: operators with fixed /48 space carry
    // some demand over it even when their *cellular* side has no IPv6
    // (the common mixed-incumbent case).
    let v6_fixed_frac = if op.fixed_blocks48 > 0 {
        if op.v6_demand_frac > 0.0 {
            op.v6_demand_frac * 0.4
        } else {
            0.08
        }
    } else {
        0.0
    };
    let n_fixed = op.fixed_blocks24 as usize;
    if n_fixed > 0 {
        let v4_fixed_demand = op.fixed_demand * (1.0 - v6_fixed_frac);
        // Gradual spread: much flatter than the cellular tiers (Fig. 8).
        let shares = zipf_split(rng, v4_fixed_demand, n_fixed, 0.85, 0.4);
        for (j, &d) in shares.iter().enumerate() {
            out.push(SubnetRecord {
                block: BlockId::V4(Block24::from_index(span.fixed24_start + j as u32)),
                asn: op.asn,
                access: AccessType::Fixed,
                role: BlockRole::Eyeball,
                demand_weight: d as f32,
                beacon_weight: (d * beacon_cov + floor) as f32,
                cell_rate: cfg.fixed_cell_noise as f32,
            });
        }
    }

    // Demand-only fixed blocks: seen by the platform, invisible to RUM.
    let n_donly = layout.demand_only24 as usize;
    if n_donly > 0 {
        // These carry the demand RUM misses (≈8% of platform demand);
        // apportioned off the operator's fixed demand.
        let donly_total = op.fixed_demand * (1.0 - cfg.beacon_demand_coverage);
        let shares = zipf_split(rng, donly_total, n_donly, 0.9, 0.4);
        for (j, &d) in shares.iter().enumerate() {
            out.push(SubnetRecord {
                block: BlockId::V4(Block24::from_index(
                    span.fixed24_start + (n_fixed + j) as u32,
                )),
                asn: op.asn,
                access: AccessType::Fixed,
                role: BlockRole::Eyeball,
                demand_weight: d as f32,
                beacon_weight: 0.0,
                cell_rate: 0.0,
            });
        }
    }

    // ---------------- IPv6 ----------------
    let n_cell48 = op.cell_blocks48 as usize;
    if n_cell48 > 0 {
        let v6_demand = op.cell_demand * op.v6_demand_frac;
        let n_cgn = ((n_cell48 as f64).sqrt().round() as usize)
            .clamp(1, 12)
            .min(n_cell48);
        let cgn = v6_demand * 0.97;
        let mut shares = zipf_split(rng, cgn, n_cgn, 0.8, 0.3);
        shares.extend(zipf_split(rng, v6_demand - cgn, n_cell48 - n_cgn, 1.4, 0.5));
        for (j, &d) in shares.iter().enumerate() {
            let in_demand = uniform(rng, 0.0, 1.0) < cfg.v6_demand_coverage || d > v6_demand * 0.01;
            let cell_rate = (1.0 - op.tether_rate * uniform(rng, 0.6, 1.4)).clamp(0.35, 1.0);
            out.push(SubnetRecord {
                block: BlockId::V6(Block48::from_index(span.cell48_start + j as u64)),
                asn: op.asn,
                access: AccessType::Cellular,
                role: if j < n_cgn {
                    BlockRole::CgnGateway
                } else {
                    BlockRole::IdlePool
                },
                demand_weight: if in_demand { d as f32 } else { 0.0 },
                beacon_weight: (d * beacon_cov + floor) as f32,
                cell_rate: cell_rate as f32,
            });
        }
    }

    let n_fixed48 = op.fixed_blocks48 as usize;
    if n_fixed48 > 0 {
        let v6_fixed = op.fixed_demand * v6_fixed_frac;
        let shares = zipf_split(rng, v6_fixed, n_fixed48, 0.9, 0.4);
        for (j, &d) in shares.iter().enumerate() {
            let in_demand = uniform(rng, 0.0, 1.0) < cfg.v6_demand_coverage || d > v6_fixed * 0.01;
            out.push(SubnetRecord {
                block: BlockId::V6(Block48::from_index(span.fixed48_start + j as u64)),
                asn: op.asn,
                access: AccessType::Fixed,
                role: BlockRole::Eyeball,
                demand_weight: if in_demand { d as f32 } else { 0.0 },
                beacon_weight: (d * beacon_cov + floor) as f32,
                cell_rate: cfg.fixed_cell_noise as f32,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::countries::build_countries;
    use crate::operators::generate_operators;

    fn mini_blocks() -> (OperatorSet, BlockSet) {
        let cfg = WorldConfig::mini();
        let ops = generate_operators(&cfg, &build_countries());
        let blocks = generate_blocks(&cfg, &ops);
        (ops, blocks)
    }

    #[test]
    fn spans_do_not_overlap_and_cover_records() {
        let (_, bs) = mini_blocks();
        let mut spans = bs.spans.clone();
        spans.sort_by_key(|s| s.cell24_start);
        for w in spans.windows(2) {
            let end = w[0].fixed24_start + w[0].fixed24_active + w[0].fixed24_extra;
            assert!(
                end <= w[1].cell24_start,
                "overlapping /24 spans: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        // Every v4 record lands inside its operator's span.
        let by_asn: std::collections::HashMap<_, _> = bs.spans.iter().map(|s| (s.asn, s)).collect();
        for r in &bs.records {
            if let BlockId::V4(b) = r.block {
                let s = by_asn[&r.asn];
                let idx = b.index();
                let in_cell = idx >= s.cell24_start && idx < s.cell24_start + s.cell24_active;
                let in_fixed = idx >= s.fixed24_start && idx < s.fixed24_start + s.fixed24_active;
                assert!(in_cell || in_fixed, "record {r:?} outside spans {s:?}");
            }
        }
    }

    #[test]
    fn block_ids_are_unique() {
        let (_, bs) = mini_blocks();
        let mut ids: Vec<BlockId> = bs.records.iter().map(|r| r.block).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate block generated");
    }

    #[test]
    fn demand_is_preserved_per_operator() {
        let (ops, bs) = mini_blocks();
        let mut by_asn: std::collections::HashMap<Asn, f64> = Default::default();
        for r in &bs.records {
            // Use beacon-invisible demand too: compare on demand_weight
            // for blocks that are in DEMAND plus the v6 out-of-window cut.
            *by_asn.entry(r.asn).or_default() += r.demand_weight as f64;
        }
        for op in &ops.ops {
            let got = by_asn.get(&op.asn).copied().unwrap_or(0.0);
            let expect = op.total_demand();
            // The v6 demand-window cut and demand-only apportioning allow
            // some slack; v4-only operators should land close.
            if expect > 1e-6 && op.cell_blocks48 == 0 && op.fixed_blocks48 == 0 {
                let lo = expect * 0.9;
                let hi = expect * 1.15;
                assert!(
                    (lo..hi).contains(&got),
                    "{}: demand {got} vs expected {expect}",
                    op.asn
                );
            }
        }
    }

    #[test]
    fn cellular_blocks_have_high_cell_rates() {
        let (_, bs) = mini_blocks();
        let mut cgn_rates = Vec::new();
        let mut fixed_rates = Vec::new();
        for r in &bs.records {
            match (r.access, r.role) {
                (AccessType::Cellular, BlockRole::CgnGateway) => cgn_rates.push(r.cell_rate),
                (AccessType::Fixed, BlockRole::Eyeball) => fixed_rates.push(r.cell_rate),
                _ => {}
            }
        }
        assert!(!cgn_rates.is_empty() && !fixed_rates.is_empty());
        let cgn_mean: f32 = cgn_rates.iter().sum::<f32>() / cgn_rates.len() as f32;
        let fixed_max = fixed_rates.iter().cloned().fold(0.0f32, f32::max);
        assert!(cgn_mean > 0.6, "CGN mean cell rate {cgn_mean}");
        assert!(
            fixed_max <= 0.01,
            "fixed blocks must almost never label cellular (max {fixed_max})"
        );
    }

    #[test]
    fn showcase_dedicated_has_infra_share() {
        let (ops, bs) = mini_blocks();
        let recs: Vec<_> = bs
            .records
            .iter()
            .filter(|r| r.asn == ops.showcase_dedicated && r.block.is_v4())
            .collect();
        let infra = recs.iter().filter(|r| r.role == BlockRole::Infra).count();
        let frac = infra as f64 / recs.len() as f64;
        assert!(
            (0.30..0.50).contains(&frac),
            "Fig 6a pins ~40% infra; got {frac:.3} of {}",
            recs.len()
        );
    }

    #[test]
    fn showcase_mixed_cgn_concentration() {
        let (ops, bs) = mini_blocks();
        let mut cell: Vec<f64> = bs
            .records
            .iter()
            .filter(|r| {
                r.asn == ops.showcase_mixed && r.access == AccessType::Cellular && r.block.is_v4()
            })
            .map(|r| r.demand_weight as f64)
            .collect();
        cell.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = cell.iter().sum();
        let cgn = ops.get(ops.showcase_mixed).unwrap().cgn_blocks as usize;
        let top: f64 = cell.iter().take(cgn).sum();
        assert!(
            top / total > 0.97,
            "CGN tier should hold ≈99.4% of cellular demand; got {:.4}",
            top / total
        );
    }

    #[test]
    fn proxy_blocks_are_fixed_access_with_cellular_labels() {
        let (ops, bs) = mini_blocks();
        let proxy_asns: std::collections::HashSet<Asn> = ops
            .ops
            .iter()
            .filter(|o| o.role == OperatorRole::Proxy)
            .map(|o| o.asn)
            .collect();
        let fronts: Vec<_> = bs
            .records
            .iter()
            .filter(|r| proxy_asns.contains(&r.asn) && r.role == BlockRole::ProxyFront)
            .collect();
        assert!(!fronts.is_empty());
        for r in &fronts {
            assert_eq!(r.access, AccessType::Fixed);
            assert!(r.cell_rate > 0.4, "proxy front rate {}", r.cell_rate);
        }
    }

    #[test]
    fn demand_only_blocks_have_no_beacon_weight() {
        let (_, bs) = mini_blocks();
        let demand_only = bs
            .records
            .iter()
            .filter(|r| r.beacon_weight == 0.0 && r.demand_weight > 0.0)
            .count();
        assert!(demand_only > 0, "demand-only blocks must exist (Table 2)");
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, a) = mini_blocks();
        let (_, b) = mini_blocks();
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.block, y.block);
            assert_eq!(x.demand_weight, y.demand_weight);
            assert_eq!(x.cell_rate, y.cell_rate);
        }
    }
}
