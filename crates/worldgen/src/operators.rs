//! Operator (AS-level) generation.
//!
//! Turns the country calibration table into a concrete population of
//! autonomous systems: dedicated and mixed cellular operators with their
//! demand shares, fixed-line ISPs, the three classes of AS-filter victims
//! (tiny cellular operators, low-RUM-visibility operators, cloud/proxy
//! networks), and filler content/enterprise ASes that pad the platform's
//! AS census to the paper's 46,936.
//!
//! Demand here is expressed in *global cellular percent* units: the sum of
//! all cellular demand across named countries is ≈99.8 (the paper's
//! continent totals), and each country's fixed-line demand is derived from
//! its cellular fraction anchor. The CDN simulator later normalizes all of
//! it to 100,000 Demand Units.

use asdb::AsKind;
use netaddr::{Asn, Continent, CountryCode};

use crate::config::WorldConfig;
use crate::countries::{continent_targets, CountrySpec};
use crate::sampling::{rng_for, stochastic_round, uniform, weighted_choice, zipf_split, GenRng};

/// Why an operator exists in the generated population; drives both block
/// generation and the expectations of the AS-filter experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OperatorRole {
    /// A genuine access operator (cellular, mixed, or fixed-only).
    Normal,
    /// Cellular operator with < 0.1 DU of demand (rule-1 victim).
    TinyCell,
    /// Real demand, negligible RUM visibility (rule-2 victim).
    LowBeacon,
    /// Cloud/proxy network carrying cellular-labeled hits (rule-3 victim).
    Proxy,
    /// Census filler: small content/enterprise/transit AS.
    Filler,
}

/// One generated autonomous system with everything block generation and
/// the DNS substrate need to know about it.
#[derive(Clone, Debug)]
pub struct OperatorInfo {
    /// Assigned AS number.
    pub asn: Asn,
    /// Synthetic operator name.
    pub name: String,
    /// Ground-truth kind (dedicated/mixed/fixed/proxy/…).
    pub kind: AsKind,
    /// Why this operator exists in the population.
    pub role: OperatorRole,
    /// Registration country.
    pub country: CountryCode,
    /// Continent of that country.
    pub continent: Continent,
    /// Cellular demand weight (global-cellular-percent units).
    pub cell_demand: f64,
    /// Fixed-line demand weight (same units).
    pub fixed_demand: f64,
    /// Active cellular /24 blocks (already world-scaled).
    pub cell_blocks24: u64,
    /// Allocated-but-mostly-idle cellular /24 blocks beyond the active
    /// ones (they appear in carrier ground truth and as ratio-0 space).
    pub cell_alloc_extra24: u64,
    /// Active fixed-line /24 blocks.
    pub fixed_blocks24: u64,
    /// Active cellular /48 blocks (0 for non-IPv6 operators).
    pub cell_blocks48: u64,
    /// Active fixed-line /48 blocks.
    pub fixed_blocks48: u64,
    /// CGN heavy-hitter tier size: how many /24s concentrate nearly all of
    /// the operator's cellular demand (§6.2, Fig. 8).
    pub cgn_blocks: u64,
    /// Share of cellular demand carried by the CGN tier (≈0.993 for the
    /// showcase mixed operator).
    pub cgn_share: f64,
    /// Fraction of this operator's demand that flows over its IPv6 blocks.
    pub v6_demand_frac: f64,
    /// Tethering/hotspot rate: P(wifi label | cellular block) baseline.
    pub tether_rate: f64,
    /// Multiplier on RUM visibility (rule-2 victims sit near zero).
    pub beacon_coverage: f64,
    /// Cellular-label rate on proxy-front blocks (proxy ASes only).
    pub proxy_cell_rate: f64,
    /// Fraction of DNS demand resolved through public resolvers (Fig. 10).
    pub public_dns_fraction: f64,
    /// Resolver pool size for the DNS substrate.
    pub n_resolvers: u32,
    /// For mixed operators: fraction of resolvers shared between cellular
    /// and fixed clients (Fig. 9 shows ≈60% shared at the median AS).
    pub resolver_shared_fraction: f64,
    /// Mixed operator whose shared resolvers are geographically distant
    /// from cellular clients (the paper's Brazilian example).
    pub distant_cell_resolvers: bool,
}

impl OperatorInfo {
    /// Total demand weight across access types.
    pub fn total_demand(&self) -> f64 {
        self.cell_demand + self.fixed_demand
    }

    /// Ground-truth cellular fraction of demand.
    pub fn true_cfd(&self) -> f64 {
        let t = self.total_demand();
        if t <= 0.0 {
            0.0
        } else {
            self.cell_demand / t
        }
    }
}

/// The generated operator population plus the designated showcase and
/// validation-carrier ASes.
#[derive(Clone, Debug)]
pub struct OperatorSet {
    /// All operators.
    pub ops: Vec<OperatorInfo>,
    /// Fig. 6a's large dedicated US operator (also validation Carrier B).
    pub showcase_dedicated: Asn,
    /// Fig. 6b / Fig. 8's large mixed European operator (also Carrier A).
    pub showcase_mixed: Asn,
    /// Validation Carrier C: a large mixed Middle-East operator.
    pub carrier_c: Asn,
    /// A large mixed Brazilian operator with distant cellular resolvers
    /// (§6.3's geolocation example).
    pub brazil_mixed: Asn,
}

impl OperatorSet {
    /// Look up an operator by ASN (linear; used in tests and setup paths).
    pub fn get(&self, asn: Asn) -> Option<&OperatorInfo> {
        self.ops.iter().find(|o| o.asn == asn)
    }
}

/// Explicit top-rank cellular demand shares for countries the paper's
/// Table 7 pins down (global-cellular-percent units), with the kind of
/// each of those top operators.
fn top_op_plan(code: &str) -> &'static [(f64, AsKind)] {
    use AsKind::{DedicatedCellular as D, MixedAccess as M};
    match code {
        // Table 7: US holds ranks 1, 2, 3, 5 — all dedicated.
        "US" => &[(9.4, D), (9.2, D), (5.7, D), (3.8, D)],
        // Rank 4: India, dedicated.
        "IN" => &[(4.5, D)],
        // Ranks 6, 7, 10: Japan — one dedicated, two mixed.
        "JP" => &[(3.3, D), (2.4, M), (1.0, M)],
        // Rank 8: Indonesia, dedicated.
        "ID" => &[(1.5, D)],
        // Rank 9: Australia, mixed.
        "AU" => &[(1.2, M)],
        // The showcase mixed European operator leads the UK market.
        "GB" => &[(1.15, M)],
        // Carrier C leads the Saudi market as a mixed operator.
        "SA" => &[(0.30, M)],
        // The §6.3 Brazilian mixed operator with distant resolvers.
        "BR" => &[(0.70, M)],
        _ => &[],
    }
}

/// Sequentially allocates ASNs, reserving a couple of recognizable proxy
/// ASNs (populated later by proxy generation).
struct AsnAlloc {
    next: u32,
}

impl AsnAlloc {
    fn new() -> Self {
        AsnAlloc { next: 100 }
    }

    fn next(&mut self) -> Asn {
        // Skip the reserved proxy ASNs.
        while self.next == 15_169 || self.next == 21_837 {
            self.next += 1;
        }
        let asn = Asn(self.next);
        self.next += 1;
        asn
    }
}

/// Generate the full operator population for the given countries.
pub fn generate_operators(cfg: &WorldConfig, countries: &[CountrySpec]) -> OperatorSet {
    let mut alloc = AsnAlloc::new();
    let mut ops: Vec<OperatorInfo> = Vec::new();
    let mut showcase_dedicated = None;
    let mut showcase_mixed = None;
    let mut carrier_c = None;
    let mut brazil_mixed = None;

    let continent_cell_share: [f64; 6] = {
        let mut s = [0.0; 6];
        for c in countries {
            s[c.continent.index()] += c.cell_share;
        }
        s
    };
    let continent_total_share: [f64; 6] = {
        let mut s = [0.0; 6];
        for c in countries {
            s[c.continent.index()] += c.cell_share / c.cfd;
        }
        s
    };

    for (country_idx, country) in countries.iter().enumerate() {
        let mut rng = rng_for(cfg.seed, 0x10_0000 + country_idx as u64);
        let tgt = continent_targets(country.continent);

        // --- cellular operators -----------------------------------------
        let n_cell = country.cell_ases as usize;
        let plan = top_op_plan(country.code.as_str());
        let planned: f64 = plan.iter().map(|(s, _)| *s).sum();
        let remainder = (country.cell_share - planned).max(country.cell_share * 0.02);
        let tail_n = n_cell.saturating_sub(plan.len());
        let tail_shares = zipf_split(&mut rng, remainder, tail_n, 1.15, 0.25);

        let mut cell_shares: Vec<(f64, Option<AsKind>)> = plan
            .iter()
            .map(|(s, k)| (*s, Some(*k)))
            .chain(tail_shares.into_iter().map(|s| (s, None)))
            .collect();
        // Keep the invariant: shares sum to the country's anchor.
        let sum: f64 = cell_shares.iter().map(|(s, _)| *s).sum();
        for (s, _) in &mut cell_shares {
            *s *= country.cell_share / sum;
        }

        // Decide mixing for unplanned operators so the continental mixed
        // fraction lands on target.
        let mixed_target = stochastic_round(&mut rng, n_cell as f64 * tgt.mixed_fraction) as usize;
        let planned_mixed = plan
            .iter()
            .filter(|(_, k)| *k == AsKind::MixedAccess)
            .count();
        let mut unplanned_mixed_left = mixed_target.saturating_sub(planned_mixed);

        // Country block budgets.
        let cont_i = country.continent.index();
        let cell24_budget = tgt.cell24 as f64
            * (country.cell_share / continent_cell_share[cont_i])
            * cfg.block_scale;
        let country_total = country.cell_share / country.cfd;
        let fixed24_budget = (tgt.active24 - tgt.cell24) as f64
            * (country_total / continent_total_share[cont_i])
            * cfg.block_scale;
        let fixed48_budget = (tgt.active48.saturating_sub(tgt.cell48)) as f64
            * (country_total / continent_total_share[cont_i])
            * cfg.block_scale;

        // Cellular block allocation weights: sub-linear in demand so small
        // operators keep disproportionate address space (Africa's block
        // counts vs. its demand depend on this).
        let blk_weights: Vec<f64> = cell_shares
            .iter()
            .map(|(s, _)| s.powf(0.6) * uniform(&mut rng, 0.7, 1.4))
            .collect();
        let blk_wsum: f64 = blk_weights.iter().sum();

        // IPv6 deployers: the top `v6_cell_ases` operators by demand.
        let n_v6 = country.v6_cell_ases as usize;
        let cell48_budget = tgt.cell48 as f64
            * (if n_v6 > 0 {
                // Weight continents' v6 space toward this country by its
                // demand share among v6-deploying countries.
                let v6_weight_sum: f64 = countries
                    .iter()
                    .filter(|c| c.continent == country.continent && c.v6_cell_ases > 0)
                    .map(|c| c.cell_share * c.v6_cell_ases as f64)
                    .sum();
                country.cell_share * n_v6 as f64 / v6_weight_sum.max(1e-12)
            } else {
                0.0
            })
            * cfg.block_scale;

        let mut country_cell_ops: Vec<usize> = Vec::new();
        for (rank, (share, planned_kind)) in cell_shares.iter().enumerate() {
            let kind = planned_kind.unwrap_or_else(|| {
                // Fill the continent's mixed quota, biased away from the
                // top ranks: large cellular demand is mostly carried by
                // dedicated MNOs (Table 7: the top 6 global ASes are all
                // dedicated; mixed ASes hold only 32.7% of cellular
                // demand despite outnumbering dedicated ones).
                let remaining = n_cell - rank;
                let need = unplanned_mixed_left;
                let take = if need == 0 {
                    false
                } else if need >= remaining {
                    true
                } else {
                    let base = need as f64 / remaining as f64;
                    let bias = if rank < 2 {
                        0.35
                    } else if rank < 5 {
                        0.9
                    } else {
                        1.35
                    };
                    rng.gen_bool_like((base * bias).min(1.0))
                };
                if take {
                    unplanned_mixed_left -= 1;
                    AsKind::MixedAccess
                } else {
                    AsKind::DedicatedCellular
                }
            });

            let blocks24 = stochastic_round(
                &mut rng,
                (cell24_budget * blk_weights[rank] / blk_wsum).max(0.0),
            )
            .max(1);
            let has_v6 = rank < n_v6;
            let blocks48 = if has_v6 {
                stochastic_round(&mut rng, (cell48_budget / n_v6.max(1) as f64).max(0.0)).max(1)
            } else {
                0
            };

            // CGN concentration tier: a handful of /24s carry nearly all
            // cellular demand (§6.2). Tier size grows slowly with space.
            let cgn_blocks = ((blocks24 as f64).sqrt() * 1.1).round().clamp(1.0, 30.0) as u64;
            let cgn_share = uniform(&mut rng, 0.985, 0.997);

            let v6_demand_frac = if has_v6 {
                match country.continent {
                    Continent::NorthAmerica => uniform(&mut rng, 0.20, 0.50),
                    _ => uniform(&mut rng, 0.05, 0.30),
                }
            } else {
                0.0
            };

            let idx = ops.len();
            ops.push(OperatorInfo {
                asn: alloc.next(),
                name: format!("{}-{} {}", country.code, rank + 1, kind_label(kind)),
                kind,
                role: OperatorRole::Normal,
                country: country.code,
                continent: country.continent,
                cell_demand: *share,
                fixed_demand: 0.0, // assigned below for mixed operators
                cell_blocks24: blocks24,
                cell_alloc_extra24: stochastic_round(&mut rng, blocks24 as f64 * 1.5),
                fixed_blocks24: 0,
                cell_blocks48: blocks48,
                fixed_blocks48: 0,
                cgn_blocks,
                cgn_share,
                v6_demand_frac,
                // Large dedicated carriers get a moderate tether rate so
                // their hotspot-heavy gateways stay in Fig. 6a's 0.7-0.9
                // band (and above the 0.5 detection threshold).
                tether_rate: if kind == AsKind::DedicatedCellular && *share > 3.0 {
                    uniform(&mut rng, 0.08, 0.16)
                } else {
                    uniform(&mut rng, cfg.tether_rate_range.0, cfg.tether_rate_range.1)
                },
                beacon_coverage: 1.0,
                proxy_cell_rate: 0.0,
                public_dns_fraction: (country.public_dns * uniform(&mut rng, 0.5, 1.6))
                    .clamp(0.0, 0.99),
                n_resolvers: (2.0 + share.sqrt() * 12.0).round() as u32,
                resolver_shared_fraction: if kind == AsKind::MixedAccess {
                    uniform(&mut rng, 0.35, 0.85)
                } else {
                    0.0
                },
                distant_cell_resolvers: false,
            });
            country_cell_ops.push(idx);
        }

        // --- fixed-line demand and fixed-only ISPs ----------------------
        let fixed_total = country.cell_share * (1.0 - country.cfd) / country.cfd;
        let n_fixed_only = ((2.0 + (1.0 + country_total).ln() * 1.5).round() as usize).max(1);
        let mixed_ops: Vec<usize> = country_cell_ops
            .iter()
            .copied()
            .filter(|&i| ops[i].kind == AsKind::MixedAccess)
            .collect();

        // Fixed demand holders: fixed-only ISPs first, then mixed ASes.
        let n_holders = n_fixed_only + mixed_ops.len();
        let fixed_shares = zipf_split(&mut rng, fixed_total, n_holders, 1.1, 0.5);
        // Randomize which holder occupies which Zipf rank so mixed ASes do
        // not always rank below fixed-only ISPs — but usually hand the
        // incumbent's share (rank 1) to the largest mixed operator: real
        // mixed ASes are incumbent telecoms whose fixed arm dwarfs their
        // cellular side, which is what keeps large mixed operators below
        // the 0.9 CFD dedication threshold (Table 7's mixed entries).
        let mut order: Vec<usize> = (0..n_holders).collect();
        shuffle_idx(&mut rng, &mut order);
        if !mixed_ops.is_empty() && rng.gen_bool_like(0.7) {
            let top_mixed_holder = n_fixed_only; // first mixed op = largest
            let pos = order
                .iter()
                .position(|&h| h == top_mixed_holder)
                .expect("holder indices are a permutation");
            order.swap(0, pos);
        }
        // fixed_shares is in descending Zipf-rank order; holder `order[k]`
        // receives the k-th largest share.
        let mut holder_share = vec![0.0f64; n_holders];
        for (k, &h) in order.iter().enumerate() {
            holder_share[h] = fixed_shares[k];
        }
        let fixed_shares = holder_share;

        let fixed_blk_weights: Vec<f64> = fixed_shares
            .iter()
            .map(|s| s.powf(0.75) * uniform(&mut rng, 0.7, 1.4))
            .collect();
        let fixed_blk_wsum: f64 = fixed_blk_weights.iter().sum::<f64>().max(1e-12);

        for h in 0..n_holders {
            let blocks24 = stochastic_round(
                &mut rng,
                fixed24_budget * fixed_blk_weights[h] / fixed_blk_wsum,
            )
            .max(1);
            let blocks48 = stochastic_round(
                &mut rng,
                fixed48_budget * fixed_blk_weights[h] / fixed_blk_wsum,
            );
            if h < n_fixed_only {
                ops.push(OperatorInfo {
                    asn: alloc.next(),
                    name: format!("{}-Fixed-{}", country.code, h + 1),
                    kind: AsKind::FixedOnly,
                    role: OperatorRole::Normal,
                    country: country.code,
                    continent: country.continent,
                    cell_demand: 0.0,
                    fixed_demand: fixed_shares[h],
                    cell_blocks24: 0,
                    cell_alloc_extra24: 0,
                    fixed_blocks24: blocks24,
                    cell_blocks48: 0,
                    fixed_blocks48: blocks48,
                    cgn_blocks: 0,
                    cgn_share: 0.0,
                    v6_demand_frac: if blocks48 > 0 {
                        uniform(&mut rng, 0.02, 0.15)
                    } else {
                        0.0
                    },
                    tether_rate: 0.0,
                    beacon_coverage: 1.0,
                    proxy_cell_rate: 0.0,
                    public_dns_fraction: (country.public_dns * uniform(&mut rng, 0.3, 1.2))
                        .clamp(0.0, 0.99),
                    n_resolvers: (2.0 + fixed_shares[h].sqrt() * 10.0).round() as u32,
                    resolver_shared_fraction: 0.0,
                    distant_cell_resolvers: false,
                });
            } else {
                let op = &mut ops[mixed_ops[h - n_fixed_only]];
                op.fixed_demand = fixed_shares[h];
                op.fixed_blocks24 = blocks24;
                op.fixed_blocks48 = blocks48;
            }
        }

        // --- showcase / carrier designation and overrides ----------------
        if country.code.as_str() == "US" && showcase_dedicated.is_none() {
            let i = country_cell_ops[0];
            // Carrier B's ground truth is ≈3k cellular CIDRs; force the
            // showcase dedicated operator's space to that magnitude.
            ops[i].cell_blocks24 = ((2_972.0 * cfg.block_scale).round() as u64).max(30);
            // Fig. 6a: ~40% of its /24s are ratio-0 infrastructure.
            ops[i].cell_alloc_extra24 = 0;
            ops[i].cgn_blocks = ((ops[i].cell_blocks24 as f64) * 0.02)
                .round()
                .clamp(3.0, 40.0) as u64;
            ops[i].cgn_share = 0.97;
            // Fig. 6a: its gateway ratios sit in the 0.7-0.9 band — a
            // hotspot-heavy population with a moderate tether rate keeps
            // every gateway above the 0.5 detection threshold.
            ops[i].tether_rate = 0.12;
            showcase_dedicated = Some(ops[i].asn);
        }
        if country.code.as_str() == "GB" && showcase_mixed.is_none() {
            let i = country_cell_ops[0];
            let op = &mut ops[i];
            op.kind = AsKind::MixedAccess;
            // Paper: cellular is 4.9% of this AS's demand.
            op.fixed_demand = op.cell_demand * (1.0 / 0.049 - 1.0);
            // Paper: 514 active cellular /24s, 24-25 carrying 99.3-99.5%.
            op.cell_blocks24 = ((514.0 * cfg.block_scale).round() as u64).max(40);
            // The allocated:active ratio (≈9:1) is what generates Carrier
            // A's false negatives; keep it even at small world scales.
            op.cell_alloc_extra24 =
                ((4_608.0 * cfg.block_scale).round() as u64).max(op.cell_blocks24 * 9);
            op.fixed_blocks24 = ((57_000.0 * cfg.block_scale).round() as u64).max(400);
            op.cgn_blocks = (25.0 * cfg.block_scale.max(0.04)).round().clamp(5.0, 25.0) as u64;
            op.cgn_share = 0.994;
            op.resolver_shared_fraction = 0.6;
            showcase_mixed = Some(op.asn);
        }
        if country.code.as_str() == "SA" && carrier_c.is_none() {
            let i = country_cell_ops[0];
            let op = &mut ops[i];
            op.kind = AsKind::MixedAccess;
            op.cell_blocks24 = ((460.0 * cfg.block_scale).round() as u64).max(25);
            op.cell_alloc_extra24 = ((90.0 * cfg.block_scale).round() as u64).max(8);
            op.fixed_blocks24 = ((3_050.0 * cfg.block_scale).round() as u64).max(60);
            if op.fixed_demand <= 0.0 {
                op.fixed_demand = op.cell_demand * 2.0;
            }
            carrier_c = Some(op.asn);
        }
        if country.code.as_str() == "BR" && brazil_mixed.is_none() {
            let i = country_cell_ops[0];
            let op = &mut ops[i];
            op.kind = AsKind::MixedAccess;
            if op.fixed_demand <= 0.0 {
                op.fixed_demand = op.cell_demand * 3.0;
            }
            op.distant_cell_resolvers = true;
            op.resolver_shared_fraction = 0.7;
            brazil_mixed = Some(op.asn);
        }
    }

    generate_rule_victims(cfg, countries, &mut alloc, &mut ops);
    generate_fillers(cfg, countries, &mut alloc, &mut ops);

    OperatorSet {
        ops,
        showcase_dedicated: showcase_dedicated.expect("US is always in the country table"),
        showcase_mixed: showcase_mixed.expect("GB is always in the country table"),
        carrier_c: carrier_c.expect("SA is always in the country table"),
        brazil_mixed: brazil_mixed.expect("BR is always in the country table"),
    }
}

fn kind_label(kind: AsKind) -> &'static str {
    match kind {
        AsKind::DedicatedCellular => "Mobile",
        AsKind::MixedAccess => "Telecom",
        _ => "Net",
    }
}

/// Tiny cellular ASes (rule 1), low-visibility operators (rule 2), and
/// proxy/cloud ASes (rule 3).
fn generate_rule_victims(
    cfg: &WorldConfig,
    countries: &[CountrySpec],
    alloc: &mut AsnAlloc,
    ops: &mut Vec<OperatorInfo>,
) {
    let mut rng = rng_for(cfg.seed, 0x20_0000);
    let weights: Vec<f64> = countries.iter().map(|c| c.cell_ases as f64).collect();

    for i in 0..cfg.tiny_cell_ases {
        let ci = weighted_choice(&mut rng, &weights).expect("weights are non-zero");
        let country = &countries[ci];
        let kind = if rng.gen_bool_like(0.8) {
            AsKind::DedicatedCellular
        } else {
            AsKind::MixedAccess
        };
        ops.push(OperatorInfo {
            asn: alloc.next(),
            name: format!("{}-MVNO-{}", country.code, i + 1),
            kind,
            role: OperatorRole::TinyCell,
            country: country.code,
            continent: country.continent,
            // Below 0.1 DU, log-uniform across several decades: Fig. 4a
            // shows ~40% of candidate ASes sitting six or more orders of
            // magnitude below the largest cellular AS.
            cell_demand: 10f64.powf(uniform(&mut rng, -6.8, -3.45)),
            fixed_demand: if kind == AsKind::MixedAccess {
                uniform(&mut rng, 0.00002, 0.0002)
            } else {
                0.0
            },
            cell_blocks24: rng.gen_range_u64(1, 4),
            cell_alloc_extra24: rng.gen_range_u64(0, 3),
            fixed_blocks24: u64::from(kind == AsKind::MixedAccess),
            cell_blocks48: 0,
            fixed_blocks48: 0,
            cgn_blocks: 1,
            cgn_share: 0.9,
            v6_demand_frac: 0.0,
            tether_rate: uniform(&mut rng, cfg.tether_rate_range.0, cfg.tether_rate_range.1),
            beacon_coverage: 1.0,
            proxy_cell_rate: 0.0,
            public_dns_fraction: country.public_dns,
            n_resolvers: 1,
            resolver_shared_fraction: 0.0,
            distant_cell_resolvers: false,
        });
    }

    for i in 0..cfg.low_beacon_ases {
        let ci = weighted_choice(&mut rng, &weights).expect("weights are non-zero");
        let country = &countries[ci];
        ops.push(OperatorInfo {
            asn: alloc.next(),
            name: format!("{}-M2M-{}", country.code, i + 1),
            kind: AsKind::DedicatedCellular,
            role: OperatorRole::LowBeacon,
            country: country.code,
            continent: country.continent,
            // Comfortably above 0.1 DU so only rule 2 removes them.
            cell_demand: uniform(&mut rng, 0.0012, 0.01),
            fixed_demand: 0.0,
            cell_blocks24: rng.gen_range_u64(2, 8),
            cell_alloc_extra24: rng.gen_range_u64(0, 5),
            fixed_blocks24: 0,
            cell_blocks48: 0,
            fixed_blocks48: 0,
            cgn_blocks: 1,
            cgn_share: 0.9,
            v6_demand_frac: 0.0,
            tether_rate: uniform(&mut rng, 0.02, 0.1),
            // Machine-to-machine / app-only traffic: almost no JS beacons.
            beacon_coverage: uniform(&mut rng, 0.004, 0.02),
            proxy_cell_rate: 0.0,
            public_dns_fraction: country.public_dns,
            n_resolvers: 1,
            resolver_shared_fraction: 0.0,
            distant_cell_resolvers: false,
        });
    }

    // Proxy/cloud ASes concentrate where cloud regions are.
    let proxy_weights: Vec<f64> = countries
        .iter()
        .map(|c| match c.code.as_str() {
            "US" => 20.0,
            "DE" | "GB" | "NL" | "SG" | "JP" | "IN" | "BR" => 4.0,
            _ if !c.filler => 0.5,
            _ => 0.0,
        })
        .collect();
    for i in 0..cfg.proxy_ases {
        let ci = weighted_choice(&mut rng, &proxy_weights).expect("US weight is non-zero");
        let country = &countries[ci];
        // The first two proxies get the recognizable ASNs of the paper's
        // examples (Google's and Opera's proxy fleets).
        let asn = match i {
            0 => Asn(15_169),
            1 => Asn(21_837),
            _ => alloc.next(),
        };
        ops.push(OperatorInfo {
            asn,
            name: match i {
                0 => "WebGiant Proxy".to_string(),
                1 => "MiniBrowser Proxy".to_string(),
                _ => format!("{}-Cloud-{}", country.code, i + 1),
            },
            kind: AsKind::CloudProxy,
            role: OperatorRole::Proxy,
            country: country.code,
            continent: country.continent,
            // Their *apparent* cellular demand; platform-visible demand on
            // proxy-front blocks.
            cell_demand: uniform(&mut rng, 0.001, 0.05),
            fixed_demand: uniform(&mut rng, 0.0005, 0.01),
            cell_blocks24: rng.gen_range_u64(2, 40),
            cell_alloc_extra24: 0,
            fixed_blocks24: rng.gen_range_u64(2, 20),
            cell_blocks48: 0,
            fixed_blocks48: 0,
            cgn_blocks: 2,
            cgn_share: 0.8,
            v6_demand_frac: 0.0,
            tether_rate: 0.0,
            beacon_coverage: 1.0,
            proxy_cell_rate: uniform(
                &mut rng,
                cfg.proxy_cell_rate_range.0,
                cfg.proxy_cell_rate_range.1,
            ),
            public_dns_fraction: 0.0,
            n_resolvers: 1,
            resolver_shared_fraction: 0.0,
            distant_cell_resolvers: false,
        });
    }
}

/// Census fillers: small content/enterprise/transit ASes with negligible
/// demand, padding the platform AS count to the paper's 46,936.
fn generate_fillers(
    cfg: &WorldConfig,
    countries: &[CountrySpec],
    alloc: &mut AsnAlloc,
    ops: &mut Vec<OperatorInfo>,
) {
    let mut rng = rng_for(cfg.seed, 0x30_0000);
    let existing = ops.len() as u64;
    let target = (cfg.total_ases_target as f64 * cfg.filler_as_scale) as u64;
    let n = target.saturating_sub(existing);
    // Flattened demand weighting so filler ASes spread across countries.
    let weights: Vec<f64> = countries
        .iter()
        .map(|c| (c.cell_share / c.cfd).sqrt())
        .collect();
    for i in 0..n {
        let ci = weighted_choice(&mut rng, &weights).expect("weights are non-zero");
        let country = &countries[ci];
        let kind = match rng.gen_range_u64(0, 100) {
            0..=54 => AsKind::FixedOnly,
            55..=79 => AsKind::Enterprise,
            80..=92 => AsKind::ContentCdn,
            _ => AsKind::TransitOnly,
        };
        ops.push(OperatorInfo {
            asn: alloc.next(),
            name: format!("{}-Org-{}", country.code, i + 1),
            kind,
            role: OperatorRole::Filler,
            country: country.code,
            continent: country.continent,
            cell_demand: 0.0,
            fixed_demand: uniform(&mut rng, 1e-6, 3e-4),
            cell_blocks24: 0,
            cell_alloc_extra24: 0,
            fixed_blocks24: rng.gen_range_u64(1, 5),
            cell_blocks48: 0,
            fixed_blocks48: 0,
            cgn_blocks: 0,
            cgn_share: 0.0,
            v6_demand_frac: 0.0,
            tether_rate: 0.0,
            beacon_coverage: 1.0,
            proxy_cell_rate: 0.0,
            public_dns_fraction: 0.1,
            n_resolvers: 1,
            resolver_shared_fraction: 0.0,
            distant_cell_resolvers: false,
        });
    }
}

/// Fisher–Yates shuffle on holder indices (we avoid pulling in the `rand`
/// SliceRandom trait to keep the RNG surface to the one seeded type).
fn shuffle_idx(rng: &mut GenRng, v: &mut [usize]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range_u64(0, i as u64) as usize;
        v.swap(i, j);
    }
}

/// Small extension helpers on the generation RNG.
trait RngExt {
    fn gen_bool_like(&mut self, p: f64) -> bool;
    fn gen_range_u64(&mut self, lo: u64, hi_inclusive: u64) -> u64;
}

impl RngExt for GenRng {
    fn gen_bool_like(&mut self, p: f64) -> bool {
        use rand::Rng;
        self.gen::<f64>() < p.clamp(0.0, 1.0)
    }

    fn gen_range_u64(&mut self, lo: u64, hi_inclusive: u64) -> u64 {
        use rand::Rng;
        if lo >= hi_inclusive {
            lo
        } else {
            self.gen_range(lo..=hi_inclusive)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::countries::build_countries;

    fn demo_ops() -> OperatorSet {
        generate_operators(&WorldConfig::demo(), &build_countries())
    }

    #[test]
    fn asn_allocation_skips_reserved_and_is_unique() {
        let set = demo_ops();
        let mut asns: Vec<u32> = set.ops.iter().map(|o| o.asn.value()).collect();
        let before = asns.len();
        asns.sort();
        asns.dedup();
        assert_eq!(asns.len(), before, "duplicate ASN allocated");
        // Reserved proxies exist exactly once, as proxies.
        for reserved in [15_169u32, 21_837] {
            let hits: Vec<_> = set
                .ops
                .iter()
                .filter(|o| o.asn.value() == reserved)
                .collect();
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].role, OperatorRole::Proxy);
        }
    }

    #[test]
    fn real_cellular_as_count_matches_table6() {
        let set = demo_ops();
        let real_cell = set
            .ops
            .iter()
            .filter(|o| o.role == OperatorRole::Normal && o.kind.is_cellular_access())
            .count();
        assert_eq!(real_cell, 669, "country table pins 669 cellular ASes");
    }

    #[test]
    fn mixed_fraction_is_majority() {
        let set = demo_ops();
        let cell: Vec<_> = set
            .ops
            .iter()
            .filter(|o| o.role == OperatorRole::Normal && o.kind.is_cellular_access())
            .collect();
        let mixed = cell
            .iter()
            .filter(|o| o.kind == AsKind::MixedAccess)
            .count();
        let frac = mixed as f64 / cell.len() as f64;
        assert!(
            (0.50..0.70).contains(&frac),
            "paper: 58.6% mixed; got {frac:.3}"
        );
    }

    #[test]
    fn rule_victim_counts_match_config() {
        let cfg = WorldConfig::demo();
        let set = generate_operators(&cfg, &build_countries());
        let count = |r: OperatorRole| set.ops.iter().filter(|o| o.role == r).count() as u32;
        assert_eq!(count(OperatorRole::TinyCell), cfg.tiny_cell_ases);
        assert_eq!(count(OperatorRole::LowBeacon), cfg.low_beacon_ases);
        assert_eq!(count(OperatorRole::Proxy), cfg.proxy_ases);
    }

    #[test]
    fn total_as_census_near_target() {
        let cfg = WorldConfig::demo();
        let set = generate_operators(&cfg, &build_countries());
        let target = (cfg.total_ases_target as f64 * cfg.filler_as_scale) as usize;
        // Structural ASes may exceed a very small filler target; with demo
        // scale the total should land at or slightly above target.
        assert!(
            set.ops.len() >= target,
            "got {} ops, target {target}",
            set.ops.len()
        );
    }

    #[test]
    fn showcase_overrides_applied() {
        let set = demo_ops();
        let ded = set.get(set.showcase_dedicated).unwrap();
        assert_eq!(ded.kind, AsKind::DedicatedCellular);
        assert_eq!(ded.country.as_str(), "US");
        assert!(ded.fixed_demand == 0.0);

        let mixed = set.get(set.showcase_mixed).unwrap();
        assert_eq!(mixed.kind, AsKind::MixedAccess);
        assert_eq!(mixed.country.as_str(), "GB");
        // Paper: cellular ≈ 4.9% of the AS's demand.
        assert!(
            (0.03..0.07).contains(&mixed.true_cfd()),
            "showcase mixed CFD = {:.3}",
            mixed.true_cfd()
        );
        assert!(mixed.cell_alloc_extra24 > mixed.cell_blocks24 * 4);

        let c = set.get(set.carrier_c).unwrap();
        assert_eq!(c.kind, AsKind::MixedAccess);
        assert_eq!(c.country.as_str(), "SA");

        let br = set.get(set.brazil_mixed).unwrap();
        assert!(br.distant_cell_resolvers);
    }

    #[test]
    fn demand_totals_preserved_per_country() {
        let countries = build_countries();
        let set = demo_ops();
        for code in ["US", "GB", "GH", "JP"] {
            let anchor = countries.iter().find(|c| c.code.as_str() == code).unwrap();
            let cell: f64 = set
                .ops
                .iter()
                .filter(|o| o.country.as_str() == code && o.role == OperatorRole::Normal)
                .map(|o| o.cell_demand)
                .sum();
            assert!(
                (cell - anchor.cell_share).abs() < anchor.cell_share * 0.05,
                "{code}: cellular demand {cell} vs anchor {}",
                anchor.cell_share
            );
        }
    }

    #[test]
    fn top_us_operators_match_table7_shares() {
        let set = demo_ops();
        let mut us: Vec<&OperatorInfo> = set
            .ops
            .iter()
            .filter(|o| {
                o.country.as_str() == "US"
                    && o.role == OperatorRole::Normal
                    && o.kind.is_cellular_access()
            })
            .collect();
        us.sort_by(|a, b| b.cell_demand.total_cmp(&a.cell_demand));
        // Table 7: 9.4, 9.2, 5.7, 3.8 — allow the renormalization wiggle.
        assert!(
            (us[0].cell_demand - 9.4).abs() < 0.5,
            "{}",
            us[0].cell_demand
        );
        assert!((us[1].cell_demand - 9.2).abs() < 0.5);
        assert!((us[2].cell_demand - 5.7).abs() < 0.4);
        assert!(us
            .iter()
            .take(4)
            .all(|o| o.kind == AsKind::DedicatedCellular));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = demo_ops();
        let b = demo_ops();
        assert_eq!(a.ops.len(), b.ops.len());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.kind, y.kind);
            assert!((x.cell_demand - y.cell_demand).abs() < 1e-12);
            assert_eq!(x.cell_blocks24, y.cell_blocks24);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_operators(&WorldConfig::demo().with_seed(1), &build_countries());
        let b = generate_operators(&WorldConfig::demo().with_seed(2), &build_countries());
        let diff = a
            .ops
            .iter()
            .zip(&b.ops)
            .filter(|(x, y)| (x.cell_demand - y.cell_demand).abs() > 1e-12)
            .count();
        assert!(diff > 0, "seeds produced identical worlds");
    }
}
