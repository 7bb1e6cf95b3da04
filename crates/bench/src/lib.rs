//! Shared setup for the `repro` harness and the Criterion benches: build
//! a world, sample its datasets, and run the full study in one call.
//! The serving workloads themselves live in `cellload`.

use cdnsim::{generate_datasets_observed, BeaconDataset, DemandDataset};
use cellobs::Observer;
use cellspot::{Pipeline, Study, StudyConfig, TimingReport};
use dnssim::DnsSim;
use worldgen::{World, WorldConfig};

/// Everything a harness needs, bundled.
pub struct Bundle {
    /// The generated ground-truth world.
    pub world: World,
    /// Sampled BEACON dataset.
    pub beacons: BeaconDataset,
    /// Sampled DEMAND dataset.
    pub demand: DemandDataset,
    /// Generated DNS substrate.
    pub dns: DnsSim,
    /// The full study output.
    pub study: Study,
    /// Wall-clock for the setup stages (world generation, dataset
    /// sampling, DNS substrate); the study's own stage timings live in
    /// `study.timing`.
    pub timing: TimingReport,
}

/// Generate world + datasets + DNS and run the full study, timing each
/// setup stage along the way.
pub fn build_bundle(config: WorldConfig) -> Bundle {
    build_bundle_with(config, &Observer::disabled())
}

/// [`build_bundle`] with an observer: world generation, dataset
/// sampling, and every study stage report spans and counters into `obs`
/// (a disabled observer records nothing at near-zero cost).
pub fn build_bundle_with(config: WorldConfig, obs: &Observer) -> Bundle {
    let mut timing = TimingReport::new();
    let min_hits = config.scaled_min_beacon_hits();
    let world = timing.stage(
        "worldgen",
        |w: &World| w.blocks.records.len() as u64,
        || World::generate_with(config, obs),
    );
    let (beacons, demand) = timing.stage(
        "datasets",
        |(b, d): &(BeaconDataset, DemandDataset)| (b.len() + d.len()) as u64,
        || generate_datasets_observed(&world, obs),
    );
    let dns = timing.stage(
        "dns",
        |d: &DnsSim| d.resolvers.len() as u64,
        || dnssim::generate_dns(&world),
    );
    let study = Pipeline::new(&beacons, &demand)
        .as_db(&world.as_db)
        .carriers(&world.carriers)
        .dns(&dns)
        .study_config(StudyConfig::default().with_min_hits(min_hits))
        .observer(obs.clone())
        .run()
        .expect("the default study config is valid")
        .into_study();
    Bundle {
        world,
        beacons,
        demand,
        dns,
        study,
        timing,
    }
}

/// Resolve a scale argument (`mini`, `demo`, `paper`, or a float block
/// scale) into a world config.
pub fn config_for_scale(scale: &str) -> Result<WorldConfig, String> {
    match scale {
        "mini" => Ok(WorldConfig::mini()),
        "demo" => Ok(WorldConfig::demo()),
        "paper" => Ok(WorldConfig::paper()),
        other => {
            let s: f64 = other
                .parse()
                .map_err(|_| format!("unknown scale {other:?} (use mini|demo|paper|<float>)"))?;
            if !(s > 0.0 && s <= 4.0) {
                return Err(format!("scale {s} out of (0, 4]"));
            }
            let mut cfg = WorldConfig::paper();
            cfg.block_scale = s;
            cfg.filler_as_scale = s.min(1.0);
            cfg.netinfo_hits_total = 300.0e6 * s;
            cfg.demand_only_blocks24 = (2_000_000.0 * s) as u64;
            Ok(cfg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert!(config_for_scale("mini").is_ok());
        assert!(config_for_scale("demo").is_ok());
        assert!(config_for_scale("paper").is_ok());
        let c = config_for_scale("0.1").unwrap();
        assert!((c.block_scale - 0.1).abs() < 1e-12);
        assert!((c.netinfo_hits_total - 30.0e6).abs() < 1.0);
        assert!(config_for_scale("nope").is_err());
        assert!(config_for_scale("9.5").is_err());
        assert!(config_for_scale("-1").is_err());
    }

    #[test]
    fn bundle_builds_at_mini_scale() {
        let b = build_bundle(WorldConfig::mini());
        assert!(b.study.classification.len() > 100);
        assert!(!b.beacons.is_empty());
        assert!(!b.demand.is_empty());
    }
}
