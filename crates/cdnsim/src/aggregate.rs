//! Aggregate-mode dataset generation: closed-form per-block draws.
//!
//! For a paper-scale world (~10M blocks) simulating individual page loads
//! is wasteful — the classifier only ever sees per-block sufficient
//! statistics. This module draws those statistics directly from the same
//! distributions the event-level simulator (`crate::events`) walks through
//! one page load at a time; `tests/` asserts the two modes converge.

use worldgen::{SubnetRecord, World};

use crate::datasets::{BeaconDataset, BeaconRecord, DemandDataset, DemandRecord};
use crate::netinfo::{netinfo_share, DEC_2016};
use crate::stream::{block_stream, BEACON_SEED_TAG, DEMAND_SEED_TAG};
use worldgen::sampling::{binomial, lognormal_jitter, poisson, rng_for};

/// Collection-period label of the BEACON dataset (the paper's month).
pub const BEACON_PERIOD: &str = "2016-12";

/// Collection-period label of the DEMAND dataset (the smoothed week).
pub const DEMAND_PERIOD: &str = "2016-12-24..2016-12-31";

/// Knobs for dataset sampling (sensible defaults match the paper's
/// collection setup).
#[derive(Clone, Debug)]
pub struct CdnConfig {
    /// Month index for NetInfo availability (default: December 2016).
    pub month_index: u32,
    /// Among non-cellular NetInfo labels, the share reported as `wifi`
    /// (the rest split across ethernet/bluetooth/wimax — §4.1 footnote:
    /// those are rare because NetInfo browsers are mobile).
    pub wifi_share_noncell: f64,
    /// Number of daily demand snapshots smoothed together (§3.2: 7).
    pub smoothing_days: u32,
    /// Day-to-day demand jitter (log-normal sigma) smoothed away.
    pub daily_jitter: f64,
}

impl Default for CdnConfig {
    fn default() -> Self {
        CdnConfig {
            month_index: DEC_2016,
            wifi_share_noncell: 0.97,
            smoothing_days: 7,
            daily_jitter: 0.25,
        }
    }
}

/// The per-world constants of BEACON sampling plus the per-block draw.
/// [`generate_beacons`] and the streaming [`crate::EventSource`] both take
/// a block's month from [`BeaconSampler::sample`], so they cannot drift.
pub(crate) struct BeaconSampler {
    seed: u64,
    share: f64,
    weight_sum: f64,
    hits_budget: f64,
    wifi_share_noncell: f64,
}

impl BeaconSampler {
    pub(crate) fn new(world: &World, cfg: &CdnConfig) -> Self {
        let share = netinfo_share(cfg.month_index).total() / 100.0;
        let weight_sum: f64 = world
            .blocks
            .records
            .iter()
            .map(|r| r.beacon_weight as f64)
            .sum();
        BeaconSampler {
            seed: world.config.seed ^ BEACON_SEED_TAG,
            share,
            weight_sum,
            // The world's hit budget counts NetInfo-enabled hits; scale up
            // to all RUM hits so `netinfo_hits ≈ budget` in expectation.
            hits_budget: world.config.netinfo_hits_total / share,
            wifi_share_noncell: cfg.wifi_share_noncell,
        }
    }

    /// One block's month, or `None` when it drew no hits. Each block draws
    /// from its own RNG stream keyed by block identity, not vector
    /// position: the sampled dataset depends only on the world's contents
    /// and the seed, so neither record reordering (e.g. after temporal
    /// evolution) nor the parallel iteration order changes anything.
    pub(crate) fn sample(&self, b: &SubnetRecord) -> Option<BeaconRecord> {
        if b.beacon_weight <= 0.0 {
            return None;
        }
        let mut rng = rng_for(self.seed, block_stream(b.block));
        let mean = self.hits_budget * b.beacon_weight as f64 / self.weight_sum;
        let hits_total = poisson(&mut rng, mean);
        if hits_total == 0 {
            return None;
        }
        let netinfo_hits = binomial(&mut rng, hits_total, self.share);
        let cellular_hits = binomial(&mut rng, netinfo_hits, b.cell_rate as f64);
        let noncell = netinfo_hits - cellular_hits;
        let wifi_hits = binomial(&mut rng, noncell, self.wifi_share_noncell);
        Some(BeaconRecord {
            block: b.block,
            asn: b.asn,
            hits_total,
            netinfo_hits,
            cellular_hits,
            wifi_hits,
            other_hits: noncell - wifi_hits,
        })
    }
}

/// Sample the BEACON dataset for a world.
///
/// Per block: total RUM hits are Poisson around the block's beacon weight
/// share of the global hit budget; NetInfo availability thins them by the
/// month's adoption share; the ConnectionType of each NetInfo hit is
/// cellular with the block's latent rate.
pub fn generate_beacons(world: &World, cfg: &CdnConfig) -> BeaconDataset {
    use rayon::prelude::*;
    let sampler = BeaconSampler::new(world, cfg);
    let records: Vec<BeaconRecord> = world
        .blocks
        .records
        .par_iter()
        .filter_map(|b| sampler.sample(b))
        .collect();
    BeaconDataset::from_records(BEACON_PERIOD, records)
}

/// Sample the DEMAND dataset for a world: per block, `smoothing_days`
/// daily draws around the latent demand weight are averaged (mirroring
/// the platform's 7-day smoothing) and the result normalized to
/// 100,000 DU.
pub fn generate_demand(world: &World, cfg: &CdnConfig) -> DemandDataset {
    use rayon::prelude::*;
    let records: Vec<DemandRecord> = world
        .blocks
        .records
        .par_iter()
        .filter_map(|b| {
            if b.demand_weight <= 0.0 {
                return None;
            }
            let mut rng = rng_for(world.config.seed ^ DEMAND_SEED_TAG, block_stream(b.block));
            let mut acc = 0.0;
            for _ in 0..cfg.smoothing_days.max(1) {
                acc += b.demand_weight as f64 * lognormal_jitter(&mut rng, cfg.daily_jitter);
            }
            let du = acc / cfg.smoothing_days.max(1) as f64;
            Some(DemandRecord {
                block: b.block,
                asn: b.asn,
                du,
            })
        })
        .collect();
    DemandDataset::from_raw(DEMAND_PERIOD, records)
}

/// Convenience: both datasets with default CDN knobs.
pub fn generate_datasets(world: &World) -> (BeaconDataset, DemandDataset) {
    generate_datasets_observed(world, &cellobs::Observer::disabled())
}

/// [`generate_beacons`] under a span (`beacon_sample`) with record and
/// hit counters. Every reported quantity is a function of the world and
/// config alone, so counters are byte-identical across thread counts.
pub fn generate_beacons_observed(
    world: &World,
    cfg: &CdnConfig,
    obs: &cellobs::Observer,
) -> BeaconDataset {
    let mut span = obs.span("beacon_sample");
    let ds = generate_beacons(world, cfg);
    span.set_items(ds.len() as u64);
    drop(span);
    if obs.is_enabled() {
        obs.counter("cdnsim.beacon.records").add(ds.len() as u64);
        obs.counter("cdnsim.beacon.hits_total").add(ds.hits_total());
        obs.counter("cdnsim.beacon.netinfo_hits")
            .add(ds.netinfo_hits_total());
    }
    ds
}

/// [`generate_demand`] under a span (`demand_sample`) with record
/// counters and the normalized DU total as a gauge.
pub fn generate_demand_observed(
    world: &World,
    cfg: &CdnConfig,
    obs: &cellobs::Observer,
) -> DemandDataset {
    let mut span = obs.span("demand_sample");
    let ds = generate_demand(world, cfg);
    span.set_items(ds.len() as u64);
    drop(span);
    if obs.is_enabled() {
        obs.counter("cdnsim.demand.records").add(ds.len() as u64);
        obs.gauge("cdnsim.demand.total_du")
            .set(ds.total_du().round() as u64);
    }
    ds
}

/// Both datasets with default CDN knobs, instrumented: one `datasets`
/// span over the two sampling spans.
pub fn generate_datasets_observed(
    world: &World,
    obs: &cellobs::Observer,
) -> (BeaconDataset, DemandDataset) {
    let cfg = CdnConfig::default();
    let mut span = obs.span("datasets");
    let beacons = generate_beacons_observed(world, &cfg, obs);
    let demand = generate_demand_observed(world, &cfg, obs);
    span.set_items((beacons.len() + demand.len()) as u64);
    (beacons, demand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use worldgen::WorldConfig;

    fn mini_world() -> World {
        World::generate(WorldConfig::mini())
    }

    #[test]
    fn beacon_netinfo_budget_is_respected() {
        let world = mini_world();
        let ds = generate_beacons(&world, &CdnConfig::default());
        let total = ds.netinfo_hits_total() as f64;
        let budget = world.config.netinfo_hits_total;
        assert!(
            (total - budget).abs() < budget * 0.05,
            "netinfo hits {total} vs budget {budget}"
        );
        // NetInfo share of all hits ≈ 13.2% (Fig. 1, Dec 2016).
        let share = total / ds.hits_total() as f64;
        assert!((0.115..0.15).contains(&share), "share {share:.4}");
    }

    #[test]
    fn hit_accounting_is_consistent() {
        let world = mini_world();
        let ds = generate_beacons(&world, &CdnConfig::default());
        for r in ds.iter() {
            assert!(r.netinfo_hits <= r.hits_total);
            assert_eq!(
                r.cellular_hits + r.wifi_hits + r.other_hits,
                r.netinfo_hits,
                "label counts must partition netinfo hits"
            );
        }
    }

    #[test]
    fn cellular_blocks_show_high_ratios() {
        let world = mini_world();
        let ds = generate_beacons(&world, &CdnConfig::default());
        let truth: std::collections::HashMap<_, _> =
            world.blocks.records.iter().map(|r| (r.block, r)).collect();
        let mut cell_hi = 0;
        let mut cell_n = 0;
        let mut fixed_hi = 0;
        let mut fixed_n = 0;
        for r in ds.iter() {
            let t = truth[&r.block];
            if let Some(ratio) = r.cellular_ratio() {
                if r.netinfo_hits < 20 {
                    continue; // small samples are noisy by design
                }
                if t.access.is_cellular() && t.cell_rate > 0.5 {
                    cell_n += 1;
                    if ratio > 0.5 {
                        cell_hi += 1;
                    }
                } else if !t.access.is_cellular() && t.role != worldgen::BlockRole::ProxyFront {
                    fixed_n += 1;
                    if ratio > 0.5 {
                        fixed_hi += 1;
                    }
                }
            }
        }
        assert!(
            cell_n > 20 && fixed_n > 100,
            "need samples: {cell_n}/{fixed_n}"
        );
        assert!(
            cell_hi as f64 / cell_n as f64 > 0.95,
            "cellular blocks with ratio>0.5: {cell_hi}/{cell_n}"
        );
        assert_eq!(fixed_hi, 0, "no well-sampled fixed block crosses 0.5");
    }

    #[test]
    fn demand_totals_and_smoothing() {
        let world = mini_world();
        let ds = generate_demand(&world, &CdnConfig::default());
        assert!((ds.total_du() - 100_000.0).abs() < 1e-6);
        // Smoothing: a 1-day snapshot is noisier than the 7-day average
        // relative to latent weights.
        let one_day = generate_demand(
            &world,
            &CdnConfig {
                smoothing_days: 1,
                ..Default::default()
            },
        );
        let latent_total: f64 = world.total_demand_weight();
        let err = |ds: &DemandDataset| -> f64 {
            let mut e = 0.0;
            let mut n = 0;
            for b in &world.blocks.records {
                if b.demand_weight as f64 > latent_total * 1e-5 {
                    let latent_du = b.demand_weight as f64 / latent_total * 100_000.0;
                    let got = ds.du(b.block);
                    e += ((got - latent_du) / latent_du).abs();
                    n += 1;
                }
            }
            e / n as f64
        };
        assert!(
            err(&ds) < err(&one_day),
            "7-day smoothing must reduce relative error"
        );
    }

    #[test]
    fn beacon_only_and_demand_only_blocks_exist() {
        let world = mini_world();
        let (beacons, demand) = generate_datasets(&world);
        let demand_only = demand
            .iter()
            .filter(|r| beacons.get(r.block).is_none())
            .count();
        let beacon_only = beacons
            .iter()
            .filter(|r| demand.get(r.block).is_none())
            .count();
        assert!(demand_only > 0, "Table 2: DEMAND sees blocks BEACON misses");
        assert!(beacon_only > 0, "Table 2: v6 BEACON blocks exceed DEMAND");
    }

    #[test]
    fn generation_is_deterministic() {
        let world = mini_world();
        let a = generate_beacons(&world, &CdnConfig::default());
        let b = generate_beacons(&world, &CdnConfig::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn earlier_months_have_less_netinfo() {
        // Running the same platform in Sep 2015 (month 0) yields a far
        // smaller NetInfo share than Dec 2016 — Fig. 1's adoption curve
        // flows through dataset sampling.
        let world = mini_world();
        let dec = generate_beacons(&world, &CdnConfig::default());
        let sep = generate_beacons(
            &world,
            &CdnConfig {
                month_index: 0,
                ..Default::default()
            },
        );
        let share =
            |ds: &crate::BeaconDataset| ds.netinfo_hits_total() as f64 / ds.hits_total() as f64;
        assert!(
            share(&sep) < share(&dec) * 0.5,
            "Sep 2015 share {:.3} vs Dec 2016 {:.3}",
            share(&sep),
            share(&dec)
        );
    }

    #[test]
    fn zero_smoothing_days_is_guarded() {
        let world = mini_world();
        let ds = generate_demand(
            &world,
            &CdnConfig {
                smoothing_days: 0,
                ..Default::default()
            },
        );
        assert!((ds.total_du() - 100_000.0).abs() < 1e-6);
        assert!(!ds.is_empty());
    }

    #[test]
    fn wifi_share_controls_noncellular_split() {
        let world = mini_world();
        let all_wifi = generate_beacons(
            &world,
            &CdnConfig {
                wifi_share_noncell: 1.0,
                ..Default::default()
            },
        );
        let other: u64 = all_wifi.iter().map(|r| r.other_hits).sum();
        assert_eq!(other, 0, "wifi share 1.0 leaves no other labels");
        let no_wifi = generate_beacons(
            &world,
            &CdnConfig {
                wifi_share_noncell: 0.0,
                ..Default::default()
            },
        );
        let wifi: u64 = no_wifi.iter().map(|r| r.wifi_hits).sum();
        assert_eq!(wifi, 0, "wifi share 0.0 leaves no wifi labels");
    }
}
