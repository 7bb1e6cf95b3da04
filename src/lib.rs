//! # cellspotting — facade crate
//!
//! Umbrella crate for the Cell Spotting (IMC 2017) reproduction. It
//! re-exports every workspace crate under one roof so examples, integration
//! tests, and downstream users can depend on a single package:
//!
//! * [`netaddr`] — IP prefixes, /24 & /48 blocks, LPM tries, ASNs, geo.
//! * [`asdb`] — AS metadata (CAIDA-style classes) and carrier ground truth.
//! * [`worldgen`] — synthetic global-Internet ground truth generator.
//! * [`cdnsim`] — CDN measurement platform: BEACON and DEMAND datasets.
//! * [`dnssim`] — DNS resolver assignment and public-DNS usage substrate.
//! * [`cellspot`] — the paper's methodology: classification and analyses.
//! * [`cellstream`] — streaming ingest: sharded incremental aggregation,
//!   sketches, and checkpoint/restore over the event stream.
//! * [`cellserve`] — serving: the sealed classification artifact, the
//!   frozen flat-array LPM index, and the batch query engine.
//! * [`cellobs`] — zero-dependency observability: spans, counters, gauges,
//!   histograms, and the JSON/Prometheus exporters.
//! * [`report`] — tables, figure series, and rendering.
//!
//! The [`Pipeline`] builder here is the one-call entry point — synthetic
//! world to finished study:
//!
//! ```no_run
//! use cellspotting::{worldgen::WorldConfig, Pipeline};
//!
//! let report = Pipeline::new(WorldConfig::mini())
//!     .run()
//!     .expect("default config is valid");
//! println!("{} cellular blocks", report.study.classification.len());
//! ```
//!
//! See `DESIGN.md` for the full system inventory and the per-experiment
//! index, and `EXPERIMENTS.md` for paper-vs-measured results.

pub use asdb;
pub use cdnsim;
pub use cellobs;
pub use cellserve;
pub use cellspot;
pub use cellstream;
pub use dnssim;
pub use netaddr;
pub use report;
pub use worldgen;

use cellobs::Observer;
use cellspot::{CellspotError, Study, StudyConfig};
use worldgen::WorldConfig;

/// End-to-end pipeline builder: generate a synthetic world from a
/// [`WorldConfig`], sample its BEACON/DEMAND datasets (and, by default,
/// the DNS substrate), and run the full `cellspot` study.
///
/// This is the facade over [`cellspot::Pipeline`], which starts from
/// already-sampled datasets — use that one when you have your own logs
/// and must keep the ground-truth firewall (the study never sees the
/// generated world).
///
/// ```no_run
/// use cellspotting::{cellobs::Observer, worldgen::WorldConfig, Pipeline};
///
/// let obs = Observer::enabled();
/// let report = Pipeline::new(WorldConfig::mini())
///     .threads(4)
///     .observer(obs.clone())
///     .run()
///     .expect("default config is valid");
/// println!("{}", obs.snapshot().to_canonical_json());
/// # drop(report);
/// ```
pub struct Pipeline {
    config: WorldConfig,
    study_config: Option<StudyConfig>,
    threads: Option<usize>,
    observer: Observer,
    with_dns: bool,
}

impl Pipeline {
    /// Start a pipeline over the world described by `config`.
    pub fn new(config: WorldConfig) -> Self {
        Pipeline {
            config,
            study_config: None,
            threads: None,
            observer: Observer::disabled(),
            with_dns: true,
        }
    }

    /// Replace the default study configuration. The default scales the
    /// paper's rule-2 hit threshold to the world's size
    /// ([`WorldConfig::scaled_min_beacon_hits`]).
    pub fn study_config(mut self, cfg: StudyConfig) -> Self {
        self.study_config = Some(cfg);
        self
    }

    /// Pin the rayon pool (flag-level precedence: beats
    /// `CELLSPOT_THREADS`). Results never depend on the width.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Attach an observer; every stage reports spans and counters into
    /// it. The default disabled observer records nothing.
    pub fn observer(mut self, obs: Observer) -> Self {
        self.observer = obs;
        self
    }

    /// Skip the DNS substrate (the §6.3 resolver analyses are omitted
    /// from the study).
    pub fn without_dns(mut self) -> Self {
        self.with_dns = false;
        self
    }

    /// Run end to end: world → datasets → (DNS) → study.
    pub fn run(self) -> Result<PipelineReport, CellspotError> {
        let obs = self.observer;
        cellspot::configure_threads(cellspot::resolve_threads(self.threads));
        let world = worldgen::World::generate_with(self.config, &obs);
        let (beacons, demand) = cdnsim::generate_datasets_observed(&world, &obs);
        let dns = self.with_dns.then(|| {
            let mut span = obs.span("dns");
            let dns = dnssim::generate_dns(&world);
            span.set_items(dns.resolvers.len() as u64);
            dns
        });
        let study_config = self.study_config.unwrap_or_else(|| {
            StudyConfig::default().with_min_hits(world.config.scaled_min_beacon_hits())
        });
        let mut pipeline = cellspot::Pipeline::new(&beacons, &demand)
            .as_db(&world.as_db)
            .carriers(&world.carriers)
            .study_config(study_config)
            .observer(obs.clone());
        if let Some(dns) = dns.as_ref() {
            pipeline = pipeline.dns(dns);
        }
        let study = pipeline.run()?.into_study();
        Ok(PipelineReport {
            world,
            beacons,
            demand,
            dns,
            study,
        })
    }
}

/// Everything a [`Pipeline`] run produces: the ground-truth world, the
/// sampled datasets, the optional DNS substrate, and the finished study.
pub struct PipelineReport {
    /// The generated ground-truth world (synthetic-substrate perk: real
    /// studies never see this).
    pub world: worldgen::World,
    /// Sampled BEACON dataset.
    pub beacons: cdnsim::BeaconDataset,
    /// Sampled DEMAND dataset.
    pub demand: cdnsim::DemandDataset,
    /// DNS substrate, unless [`Pipeline::without_dns`] was used.
    pub dns: Option<dnssim::DnsSim>,
    /// The full study output.
    pub study: Study,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The facade reports every top-level stage as one span with a
    /// workload count — what `repro --metrics` exports as the stage
    /// clock.
    #[test]
    fn facade_spans_every_top_level_stage() {
        let obs = Observer::enabled();
        let report = Pipeline::new(WorldConfig::mini())
            .observer(obs.clone())
            .run()
            .expect("default config is valid");
        assert!(report.study.classification.len() > 100);
        assert!(report.dns.is_some());
        let snap = obs.snapshot();
        let top: Vec<&str> = snap
            .spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| {
                assert!(s.items > 0, "span {} carries no item count", s.path);
                s.path.as_str()
            })
            .collect();
        assert_eq!(top, ["worldgen", "datasets", "dns", "study"]);
    }
}
