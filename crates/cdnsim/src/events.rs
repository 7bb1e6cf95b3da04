//! Event-level RUM simulation: the full causal chain, one page load at a
//! time.
//!
//! Aggregate mode (`crate::aggregate`) draws per-block hit counts in
//! closed form. This module instead walks the chain the paper describes:
//! a client device behind some access link loads a page of an opted-in
//! CDN customer → the RUM beacon fires → if the browser implements the
//! Network Information API, the beacon carries a ConnectionType — which
//! reflects the *device's* view, so a laptop behind a phone hotspot
//! reports `wifi` even though the path is cellular (§3.1).
//!
//! Event mode is meant for small worlds, tests, and demonstrations; an
//! integration test asserts that aggregating its events converges to the
//! same per-block cellular ratios aggregate mode produces.

use asdb::AccessType;
use netaddr::{Asn, BlockId};
use rand::Rng;
use worldgen::sampling::{poisson, rng_for, weighted_choice, zipf_weights, GenRng};
use worldgen::{BlockRole, World};

use crate::connection::{Browser, ConnectionType};
use crate::datasets::{BeaconDataset, BeaconRecord};
use crate::netinfo::{browser_mix, DEC_2016};

/// One RUM beacon, as logged by the CDN.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BeaconEvent {
    /// Block the client IP aggregates into.
    pub block: BlockId,
    /// Origin AS.
    pub asn: Asn,
    /// Browser that fired the beacon.
    pub browser: Browser,
    /// ConnectionType reported by the Network Information API, or `None`
    /// when the browser does not implement it.
    pub connection: Option<ConnectionType>,
}

/// Event-simulation knobs.
#[derive(Clone, Debug)]
pub struct EventSimConfig {
    /// Month index for browser mix / NetInfo availability.
    pub month_index: u32,
    /// Total page loads to simulate across the world.
    pub page_loads: u64,
    /// Clients per active block (hits spread across them by a Zipf law —
    /// a few heavy users per block dominate, matching CGN behaviour).
    pub clients_per_block: usize,
    /// Probability that the network interface changed between IP capture
    /// and NetInfo poll, flipping the label (§3.1's rarer noise case).
    pub interface_switch_rate: f64,
}

impl Default for EventSimConfig {
    fn default() -> Self {
        EventSimConfig {
            month_index: DEC_2016,
            page_loads: 300_000,
            clients_per_block: 12,
            interface_switch_rate: 0.004,
        }
    }
}

/// Simulate page loads across the world's beacon-visible blocks.
///
/// Blocks are simulated in parallel; every block draws from its own RNG
/// stream keyed by block identity, and per-block event vectors are
/// concatenated in record order, so the output is bit-identical for any
/// thread count.
pub fn simulate_events(world: &World, cfg: &EventSimConfig) -> Vec<BeaconEvent> {
    use rayon::prelude::*;
    let weight_sum: f64 = world
        .blocks
        .records
        .iter()
        .map(|r| r.beacon_weight as f64)
        .sum();
    let mix = browser_mix(cfg.month_index);
    let mix_weights: Vec<f64> = mix.iter().map(|(_, p)| *p).collect();

    let per_block: Vec<Vec<BeaconEvent>> = world
        .blocks
        .records
        .par_iter()
        .map(|b| {
            if b.beacon_weight <= 0.0 {
                return Vec::new();
            }
            let mut rng = rng_for(
                world.config.seed ^ 0xE7E7_0000_0000_0000,
                crate::stream::block_stream(b.block),
            );
            let mean = cfg.page_loads as f64 * b.beacon_weight as f64 / weight_sum;
            let loads = poisson(&mut rng, mean);
            if loads == 0 {
                return Vec::new();
            }
            let clients = ClientPool::new(&mut rng, b, cfg.clients_per_block);
            let client_weights = zipf_weights(clients.len(), 1.1);
            let mut events = Vec::with_capacity(loads as usize);
            for _ in 0..loads {
                let c =
                    weighted_choice(&mut rng, &client_weights).expect("client pool is never empty");
                events.push(clients.page_load(&mut rng, c, &mix, &mix_weights, cfg));
            }
            events
        })
        .collect();
    per_block.into_iter().flatten().collect()
}

/// [`simulate_events`] under a span (`simulate_events`) with event and
/// NetInfo-label counters. The event stream is bit-identical for any
/// thread count, so the counters are too.
pub fn simulate_events_observed(
    world: &World,
    cfg: &EventSimConfig,
    obs: &cellobs::Observer,
) -> Vec<BeaconEvent> {
    let mut span = obs.span("simulate_events");
    let events = simulate_events(world, cfg);
    span.set_items(events.len() as u64);
    drop(span);
    if obs.is_enabled() {
        obs.counter("cdnsim.events.page_loads")
            .add(events.len() as u64);
        let labeled = events.iter().filter(|e| e.connection.is_some()).count();
        obs.counter("cdnsim.events.netinfo_labeled")
            .add(labeled as u64);
    }
    events
}

/// Aggregate raw events into the BEACON dataset shape.
pub fn aggregate_events(period: impl Into<String>, events: &[BeaconEvent]) -> BeaconDataset {
    use std::collections::HashMap;
    let mut map: HashMap<BlockId, BeaconRecord> = HashMap::new();
    for e in events {
        let r = map.entry(e.block).or_insert(BeaconRecord {
            block: e.block,
            asn: e.asn,
            hits_total: 0,
            netinfo_hits: 0,
            cellular_hits: 0,
            wifi_hits: 0,
            other_hits: 0,
        });
        r.hits_total += 1;
        if let Some(conn) = e.connection {
            r.netinfo_hits += 1;
            match conn {
                ConnectionType::Cellular => r.cellular_hits += 1,
                ConnectionType::Wifi => r.wifi_hits += 1,
                _ => r.other_hits += 1,
            }
        }
    }
    BeaconDataset::from_records(period, map.into_values().collect())
}

/// The devices active inside one block.
struct ClientPool {
    block: BlockId,
    asn: Asn,
    /// Per-client stable ConnectionType (what NetInfo reports while the
    /// client keeps its current interface).
    conns: Vec<ConnectionType>,
}

impl ClientPool {
    fn new(rng: &mut GenRng, b: &worldgen::SubnetRecord, n: usize) -> Self {
        let n = n.max(1);
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n {
            conns.push(Self::draw_conn(rng, b));
        }
        ClientPool {
            block: b.block,
            asn: b.asn,
            conns,
        }
    }

    /// A client's stable ConnectionType given the block's ground truth:
    /// the latent `cell_rate` already encodes the operator's tethering
    /// profile, so clients behind a cellular path report cellular with
    /// that rate and `wifi` otherwise (they sit behind a hotspot); proxy
    /// fronts mirror their mobile clientele; fixed paths are wifi-heavy
    /// with a rare cellular switch captured at page-load time instead.
    fn draw_conn(rng: &mut GenRng, b: &worldgen::SubnetRecord) -> ConnectionType {
        let roll: f64 = rng.gen();
        match (b.access, b.role) {
            (AccessType::Cellular, _) | (AccessType::Fixed, BlockRole::ProxyFront) => {
                if roll < b.cell_rate as f64 {
                    ConnectionType::Cellular
                } else {
                    ConnectionType::Wifi
                }
            }
            (AccessType::Fixed, _) => {
                if roll < 0.70 {
                    ConnectionType::Wifi
                } else if roll < 0.97 {
                    ConnectionType::Ethernet
                } else {
                    ConnectionType::Bluetooth
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.conns.len()
    }

    fn page_load(
        &self,
        rng: &mut GenRng,
        client: usize,
        mix: &[(Browser, f64)],
        mix_weights: &[f64],
        cfg: &EventSimConfig,
    ) -> BeaconEvent {
        let browser = mix[weighted_choice(rng, mix_weights).expect("mix is non-empty")].0;
        let connection = if browser.supports_netinfo() {
            let mut conn = self.conns[client];
            // Interface switched between IP capture and the NetInfo poll —
            // a symmetric toggle: a device that was on cellular lands on
            // wifi, anything else lands on cellular. The noise adds *and*
            // removes cellular labels, so event-mode ratios converge to
            // the latent rate from both sides (§3.1).
            if rng.gen::<f64>() < cfg.interface_switch_rate {
                conn = if conn == ConnectionType::Cellular {
                    ConnectionType::Wifi
                } else {
                    ConnectionType::Cellular
                };
            }
            Some(conn)
        } else {
            None
        };
        BeaconEvent {
            block: self.block,
            asn: self.asn,
            browser,
            connection,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use worldgen::WorldConfig;

    fn small_events() -> (World, Vec<BeaconEvent>) {
        let world = World::generate(WorldConfig::mini());
        let cfg = EventSimConfig {
            page_loads: 250_000,
            ..Default::default()
        };
        let events = simulate_events(&world, &cfg);
        (world, events)
    }

    #[test]
    fn volume_and_netinfo_share() {
        let (_, events) = small_events();
        let n = events.len() as f64;
        assert!((200_000.0..300_000.0).contains(&n), "events: {n}");
        let netinfo = events.iter().filter(|e| e.connection.is_some()).count() as f64;
        let share = netinfo / n;
        assert!(
            (0.11..0.16).contains(&share),
            "NetInfo share {share:.3} (Dec 2016 ≈ 0.132)"
        );
    }

    #[test]
    fn netinfo_only_from_supporting_browsers() {
        let (_, events) = small_events();
        for e in &events {
            if e.connection.is_some() {
                assert!(e.browser.supports_netinfo(), "{:?}", e.browser);
            }
        }
    }

    #[test]
    fn aggregation_matches_manual_counts() {
        let (_, events) = small_events();
        let ds = aggregate_events("t", &events);
        assert_eq!(ds.hits_total() as usize, events.len());
        let cellular_manual = events
            .iter()
            .filter(|e| e.connection == Some(ConnectionType::Cellular))
            .count() as u64;
        let cellular_ds: u64 = ds.iter().map(|r| r.cellular_hits).sum();
        assert_eq!(cellular_manual, cellular_ds);
    }

    #[test]
    fn event_ratios_track_latent_rates() {
        let (world, events) = small_events();
        let ds = aggregate_events("t", &events);
        let truth: std::collections::HashMap<_, _> =
            world.blocks.records.iter().map(|r| (r.block, r)).collect();
        let mut checked = 0;
        let mut abs_dev = 0.0;
        for r in ds.iter() {
            if r.netinfo_hits >= 100 {
                let t = truth[&r.block];
                let ratio = r.cellular_ratio().unwrap();
                let latent = t.cell_rate as f64;
                // A block's ratio is driven by ~a dozen clustered clients,
                // so individual blocks wander; the population must track.
                assert!(
                    (ratio - latent).abs() < 0.45,
                    "{}: ratio {ratio:.3} vs latent {latent:.3}",
                    r.block
                );
                abs_dev += (ratio - latent).abs();
                checked += 1;
            }
        }
        assert!(
            checked >= 4,
            "need several well-sampled blocks, got {checked}"
        );
        let mean_dev = abs_dev / checked as f64;
        assert!(mean_dev < 0.15, "mean |ratio − latent| = {mean_dev:.3}");
    }
}
