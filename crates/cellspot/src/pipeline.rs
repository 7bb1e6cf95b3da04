//! End-to-end study orchestration: the [`Pipeline`] builder is the
//! crate's blessed entry point; it joins the datasets, runs every stage
//! of the paper's methodology, and reports spans/metrics for each stage
//! into an attached [`cellobs::Observer`].

use asdb::{AsDatabase, CarrierGroundTruth};
use cellobs::Observer;

use cdnsim::{BeaconDataset, DemandDataset};
use dnssim::DnsSim;

use crate::asid::{
    aggregate_by_as, identify_cellular_ases, AsAggregate, AsFilterOutcome, FilterConfig,
};
use crate::classify::{Classification, RatioDistributions, DEFAULT_THRESHOLD};
use crate::demand::AsDemandRanking;
use crate::dns::DnsAnalysis;
use crate::error::CellspotError;
use crate::index::BlockIndex;
use crate::metrics::{validate_carrier, CarrierValidation};
use crate::mixed::{MixedAnalysis, DEDICATED_CFD};
use crate::sweep::{threshold_sweep, SweepCurve};
use crate::threads::{configure_threads, resolve_threads};
use crate::world_view::WorldView;

/// Knobs for a full study run (defaults are the paper's choices).
#[derive(Clone, Debug, PartialEq)]
pub struct StudyConfig {
    /// Cellular-ratio threshold (paper: 0.5).
    pub threshold: f64,
    /// AS-filter rule 1 threshold, DU (paper: 0.1).
    pub min_cell_du: f64,
    /// AS-filter rule 2 threshold, NetInfo beacon responses (paper: 300;
    /// scale along with the world's hit budget for scaled worlds).
    pub min_netinfo_hits: f64,
    /// Dedication threshold on CFD (paper: 0.9).
    pub dedicated_cfd: f64,
    /// Points per threshold-sweep curve (Fig. 3).
    pub sweep_steps: usize,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            threshold: DEFAULT_THRESHOLD,
            min_cell_du: 0.1,
            min_netinfo_hits: 300.0,
            dedicated_cfd: DEDICATED_CFD,
            sweep_steps: 50,
        }
    }
}

impl StudyConfig {
    /// Paper defaults with rule 2's hit threshold rescaled for a world
    /// generated at a reduced beacon-hit budget.
    pub fn with_min_hits(mut self, min_netinfo_hits: f64) -> Self {
        self.min_netinfo_hits = min_netinfo_hits;
        self
    }

    /// Check every knob is in range before any stage runs.
    pub fn validate(&self) -> Result<(), CellspotError> {
        if !(0.0..=1.0).contains(&self.threshold) {
            return Err(CellspotError::Config(format!(
                "threshold {} outside [0, 1]",
                self.threshold
            )));
        }
        if !(0.0..=1.0).contains(&self.dedicated_cfd) {
            return Err(CellspotError::Config(format!(
                "dedicated_cfd {} outside [0, 1]",
                self.dedicated_cfd
            )));
        }
        if !(self.min_cell_du.is_finite() && self.min_cell_du >= 0.0) {
            return Err(CellspotError::Config(format!(
                "min_cell_du {} must be finite and non-negative",
                self.min_cell_du
            )));
        }
        if !(self.min_netinfo_hits.is_finite() && self.min_netinfo_hits >= 0.0) {
            return Err(CellspotError::Config(format!(
                "min_netinfo_hits {} must be finite and non-negative",
                self.min_netinfo_hits
            )));
        }
        if self.sweep_steps == 0 {
            return Err(CellspotError::Config(
                "sweep_steps must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Everything the study produces. Field by field this maps onto the
/// paper's tables and figures; the `report` crate renders them.
#[derive(Clone, Debug, PartialEq)]
pub struct Study {
    /// Configuration used.
    pub config: StudyConfig,
    /// The joined BEACON ⨝ DEMAND view.
    pub index: BlockIndex,
    /// Subnet classification at the operating threshold (§4).
    pub classification: Classification,
    /// Fig. 2's ratio distributions.
    pub ratio_distributions: RatioDistributions,
    /// Carrier validations at the operating threshold (Table 3).
    pub validations: Vec<CarrierValidation>,
    /// Fig. 3's sensitivity curves.
    pub sweeps: Vec<SweepCurve>,
    /// Per-AS aggregates.
    pub as_aggregates: std::collections::HashMap<netaddr::Asn, AsAggregate>,
    /// §5's filter pipeline outcome (Table 5).
    pub filter: AsFilterOutcome,
    /// §6.1's mixed/dedicated analysis (Fig. 5).
    pub mixed: MixedAnalysis,
    /// §6.2's operator demand ranking (Fig. 7 / Table 7).
    pub ranking: AsDemandRanking,
    /// §6.3's DNS analysis, when resolver data was supplied.
    pub dns: Option<DnsAnalysis>,
    /// §7's geographic rollups (Tables 4/8, Figs. 11/12).
    pub view: WorldView,
}

/// Builder for a full study run: the one public entry point for the
/// batch pipeline.
///
/// ```ignore
/// let report = Pipeline::new(&beacons, &demand)
///     .as_db(&world.as_db)
///     .carriers(&world.carriers)
///     .dns(&dns)
///     .threads(8)
///     .observer(obs.clone())
///     .run()?;
/// ```
///
/// The builder deliberately takes *observable* inputs only (datasets, AS
/// metadata, resolver affinities) — never the synthetic world itself, so
/// the methodology can't peek at hidden ground truth (`worldgen` stays a
/// dev-dependency). The umbrella `cellspotting` crate offers a
/// `Pipeline` over a `WorldConfig` for the common world-to-study path.
pub struct Pipeline<'a> {
    beacons: &'a BeaconDataset,
    demand: &'a DemandDataset,
    as_db: Option<&'a AsDatabase>,
    carriers: &'a [CarrierGroundTruth],
    dns: Option<&'a DnsSim>,
    config: StudyConfig,
    threads: Option<usize>,
    observer: Observer,
}

impl<'a> Pipeline<'a> {
    /// A pipeline over a dataset pair, with paper-default configuration,
    /// no AS metadata, no carriers, no DNS, auto threads, and a disabled
    /// observer.
    pub fn new(beacons: &'a BeaconDataset, demand: &'a DemandDataset) -> Self {
        Pipeline {
            beacons,
            demand,
            as_db: None,
            carriers: &[],
            dns: None,
            config: StudyConfig::default(),
            threads: None,
            observer: Observer::disabled(),
        }
    }

    /// AS metadata for the §5 filters and §7 rollups. Without it those
    /// stages still run, over an empty database.
    pub fn as_db(mut self, as_db: &'a AsDatabase) -> Self {
        self.as_db = Some(as_db);
        self
    }

    /// Ground-truth carriers to validate against (Table 3 / Fig. 3).
    pub fn carriers(mut self, carriers: &'a [CarrierGroundTruth]) -> Self {
        self.carriers = carriers;
        self
    }

    /// Resolver data for the §6.3 DNS analysis.
    pub fn dns(mut self, dns: &'a DnsSim) -> Self {
        self.dns = Some(dns);
        self
    }

    /// Replace the whole study configuration.
    pub fn study_config(mut self, config: StudyConfig) -> Self {
        self.config = config;
        self
    }

    /// Set just the classification threshold.
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.config.threshold = threshold;
        self
    }

    /// Pin the rayon pool width for this process. Resolution follows the
    /// documented precedence (builder/flag > `CELLSPOT_THREADS` > auto);
    /// results never depend on the width.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Attach an observer; every stage reports a span plus
    /// `pipeline.<stage>.items` counters into it.
    pub fn observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Run the full methodology.
    pub fn run(self) -> Result<PipelineReport, CellspotError> {
        self.config.validate()?;
        configure_threads(resolve_threads(self.threads));
        let empty_db;
        let as_db = match self.as_db {
            Some(db) => db,
            None => {
                empty_db = AsDatabase::new();
                &empty_db
            }
        };
        let study = run_study_observed(
            self.beacons,
            self.demand,
            as_db,
            self.carriers,
            self.dns,
            self.config,
            &self.observer,
        )?;
        Ok(PipelineReport { study })
    }

    /// Run only the join + classification front of the pipeline — the
    /// light path behind `cellspot classify`.
    pub fn classify(self) -> Result<(BlockIndex, Classification), CellspotError> {
        self.config.validate()?;
        configure_threads(resolve_threads(self.threads));
        let obs = &self.observer;
        let index = stage(
            obs,
            "join",
            |i: &Result<BlockIndex, CellspotError>| i.as_ref().map_or(0, |i| i.len() as u64),
            || BlockIndex::try_build(self.beacons, self.demand),
        )?;
        let classification = stage(
            obs,
            "classify",
            |c: &Classification| c.len() as u64,
            || Classification::new(&index, self.config.threshold),
        );
        record_classify_detail(obs, &index, &classification);
        Ok((index, classification))
    }
}

/// The typed result of a [`Pipeline`] run.
///
/// Dereferences to the underlying [`Study`] (every table/figure field),
/// and adds the headline accessors most callers reach for.
pub struct PipelineReport {
    /// The full study output.
    pub study: Study,
}

impl std::ops::Deref for PipelineReport {
    type Target = Study;

    fn deref(&self) -> &Study {
        &self.study
    }
}

impl PipelineReport {
    /// Unwrap into the raw [`Study`].
    pub fn into_study(self) -> Study {
        self.study
    }

    /// (IPv4 /24, IPv6 /48) cellular block counts.
    pub fn cellular_blocks(&self) -> (usize, usize) {
        self.study.classification.block_counts()
    }

    /// Number of ASes the §5 filters retained as cellular.
    pub fn cellular_as_count(&self) -> usize {
        self.study.filter.cellular_ases.len()
    }

    /// Fraction of cellular ASes that are mixed (§6.1).
    pub fn mixed_fraction(&self) -> f64 {
        self.study.mixed.mixed_fraction()
    }

    /// Global cellular share of demand, percent (§7).
    pub fn global_cellular_pct(&self) -> f64 {
        self.study.view.global_cellular_pct()
    }
}

/// Run `f` as one pipeline stage: a span plus a `pipeline.<name>.items`
/// counter into the observer.
fn stage<T>(obs: &Observer, name: &str, items: impl FnOnce(&T) -> u64, f: impl FnOnce() -> T) -> T {
    let mut span = obs.span(name);
    let out = f();
    let n = items(&out);
    span.set_items(n);
    drop(span);
    obs.counter(&format!("pipeline.{name}.items")).add(n);
    out
}

/// Classification detail metrics shared by `run` and `classify`.
fn record_classify_detail(obs: &Observer, index: &BlockIndex, classification: &Classification) {
    if !obs.is_enabled() {
        return;
    }
    let (v4, v6) = classification.block_counts();
    obs.counter("pipeline.classify.cellular_v4").add(v4 as u64);
    obs.counter("pipeline.classify.cellular_v6").add(v6 as u64);
    let hist = obs.histogram("pipeline.join.netinfo_hits_per_block");
    for o in index.iter() {
        hist.record(o.netinfo_hits);
    }
}

/// The instrumented study runner behind [`Pipeline::run`]. Errors when
/// the datasets disagree on a block's origin AS (see
/// [`BlockIndex::try_build`]).
pub(crate) fn run_study_observed(
    beacons: &BeaconDataset,
    demand: &DemandDataset,
    as_db: &AsDatabase,
    carriers: &[CarrierGroundTruth],
    dns: Option<&DnsSim>,
    config: StudyConfig,
    obs: &Observer,
) -> Result<Study, CellspotError> {
    use rayon::prelude::*;
    let mut root = obs.span("study");

    let index = stage(
        obs,
        "join",
        |i: &Result<BlockIndex, CellspotError>| i.as_ref().map_or(0, |i| i.len() as u64),
        || BlockIndex::try_build(beacons, demand),
    )?;
    root.set_items(index.len() as u64);
    let classification = stage(
        obs,
        "classify",
        |c: &Classification| c.len() as u64,
        || Classification::new(&index, config.threshold),
    );
    record_classify_detail(obs, &index, &classification);
    let ratio_distributions = stage(
        obs,
        "ratio_distributions",
        |_: &RatioDistributions| index.len() as u64,
        || RatioDistributions::build(&index),
    );

    let validations = stage(
        obs,
        "validate",
        |v: &Vec<CarrierValidation>| v.len() as u64,
        || {
            carriers
                .par_iter()
                .map(|gt| validate_carrier(gt, &classification, &index))
                .collect()
        },
    );
    let sweeps = stage(
        obs,
        "sweep",
        |s: &Vec<SweepCurve>| s.iter().map(|c| c.points.len() as u64).sum(),
        || {
            carriers
                .par_iter()
                .map(|gt| threshold_sweep(gt, &index, config.sweep_steps))
                .collect()
        },
    );

    let as_aggregates = stage(
        obs,
        "aggregate_by_as",
        |m: &std::collections::HashMap<netaddr::Asn, AsAggregate>| m.len() as u64,
        || aggregate_by_as(&index, &classification),
    );
    let filter = stage(
        obs,
        "as_filter",
        |f: &AsFilterOutcome| f.candidates.len() as u64,
        || {
            identify_cellular_ases(
                &as_aggregates,
                as_db,
                &FilterConfig {
                    min_cell_du: config.min_cell_du,
                    min_netinfo_hits: config.min_netinfo_hits,
                },
            )
        },
    );
    obs.counter("pipeline.as_filter.cellular_ases")
        .add(filter.cellular_ases.len() as u64);
    let mixed = stage(
        obs,
        "mixed",
        |m: &MixedAnalysis| m.verdicts.len() as u64,
        || MixedAnalysis::build(&filter.cellular_ases, &as_aggregates, config.dedicated_cfd),
    );
    if obs.is_enabled() {
        let (n_mixed, n_dedicated) = mixed.counts();
        obs.counter("pipeline.mixed.mixed_ases").add(n_mixed as u64);
        obs.counter("pipeline.mixed.dedicated_ases")
            .add(n_dedicated as u64);
    }
    let ranking = stage(
        obs,
        "ranking",
        |r: &AsDemandRanking| r.rows.len() as u64,
        || AsDemandRanking::build(&mixed, as_db),
    );
    let dns_analysis = stage(
        obs,
        "dns",
        |d: &Option<DnsAnalysis>| u64::from(d.is_some()),
        || dns.map(|d| DnsAnalysis::build(d, &index, &classification)),
    );
    let view = stage(
        obs,
        "world_view",
        |_: &WorldView| index.len() as u64,
        || WorldView::build(&index, &classification, as_db),
    );
    drop(root);

    Ok(Study {
        config,
        index,
        classification,
        ratio_distributions,
        validations,
        sweeps,
        as_aggregates,
        filter,
        mixed,
        ranking,
        dns: dns_analysis,
        view,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnsim::generate_datasets;
    use worldgen::{World, WorldConfig};

    /// One shared mini-world study for the smoke assertions below.
    fn mini_study() -> (World, Study) {
        let wcfg = WorldConfig::mini();
        let min_hits = wcfg.scaled_min_beacon_hits();
        let world = World::generate(wcfg);
        let (beacons, demand) = generate_datasets(&world);
        let dns = dnssim::generate_dns(&world);
        let study = Pipeline::new(&beacons, &demand)
            .as_db(&world.as_db)
            .carriers(&world.carriers)
            .dns(&dns)
            .study_config(StudyConfig::default().with_min_hits(min_hits))
            .run()
            .expect("default config is valid")
            .into_study();
        (world, study)
    }

    #[test]
    fn pipeline_end_to_end_smoke() {
        let (world, study) = mini_study();
        // Something was classified and the filter retained a cellular set
        // close to ground truth (669 genuine cellular ASes).
        assert!(study.classification.len() > 300);
        let n = study.filter.cellular_ases.len();
        assert!(
            (560..=720).contains(&n),
            "cellular ASes detected: {n} (ground truth 669)"
        );
        // Mixed majority.
        let frac = study.mixed.mixed_fraction();
        assert!((0.45..0.75).contains(&frac), "mixed fraction {frac}");
        // Global cellular percent in the paper's ballpark.
        let pct = study.view.global_cellular_pct();
        assert!((10.0..25.0).contains(&pct), "global cellular {pct:.1}%");
        // Validations exist for the three carriers.
        assert_eq!(study.validations.len(), 3);
        assert_eq!(study.sweeps.len(), 3);
        // DNS analysis populated.
        assert!(study.dns.is_some());
        let _ = &world;
    }

    #[test]
    fn filter_recovers_mostly_true_cellular_ases() {
        let (world, study) = mini_study();
        let truth: std::collections::HashSet<_> = world
            .operators
            .ops
            .iter()
            .filter(|o| o.role == worldgen::OperatorRole::Normal && o.kind.is_cellular_access())
            .map(|o| o.asn)
            .collect();
        let detected: std::collections::HashSet<_> =
            study.filter.cellular_ases.iter().copied().collect();
        let tp = detected.intersection(&truth).count();
        let precision = tp as f64 / detected.len() as f64;
        let recall = tp as f64 / truth.len() as f64;
        assert!(precision > 0.9, "AS-level precision {precision:.3}");
        assert!(recall > 0.8, "AS-level recall {recall:.3}");
    }

    #[test]
    fn carrier_validation_matches_paper_shape() {
        let (_, study) = mini_study();
        for v in &study.validations {
            // Precision is always high (Table 3: ≥ 0.97 everywhere).
            assert!(
                v.by_cidr.precision() > 0.9,
                "{}: CIDR precision {:.3}",
                v.carrier,
                v.by_cidr.precision()
            );
            // Demand-weighted recall beats CIDR recall (inactive space).
            assert!(
                v.by_demand.recall() >= v.by_cidr.recall(),
                "{}: demand recall should dominate",
                v.carrier
            );
        }
        // Carrier A (mixed, much inactive space): low CIDR recall.
        let a = &study.validations[0];
        assert!(
            a.by_cidr.recall() < 0.4,
            "Carrier A CIDR recall {:.3} (paper: 0.10)",
            a.by_cidr.recall()
        );
        assert!(
            a.by_demand.recall() > 0.6,
            "Carrier A demand recall {:.3} (paper: 0.82)",
            a.by_demand.recall()
        );
        // Carrier B (dedicated, active): high recall on both.
        let b = &study.validations[1];
        assert!(
            b.by_cidr.recall() > 0.8,
            "Carrier B CIDR recall {:.3} (paper: 0.99)",
            b.by_cidr.recall()
        );
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        assert!(StudyConfig::default().validate().is_ok());
        let c = StudyConfig {
            threshold: 1.5,
            ..Default::default()
        };
        assert!(matches!(c.validate(), Err(CellspotError::Config(_))));
        let c = StudyConfig {
            dedicated_cfd: -0.1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = StudyConfig {
            min_cell_du: f64::NAN,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = StudyConfig {
            sweep_steps: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn pipeline_rejects_bad_threshold() {
        let wcfg = WorldConfig::mini();
        let world = World::generate(wcfg);
        let (beacons, demand) = generate_datasets(&world);
        let err = Pipeline::new(&beacons, &demand)
            .threshold(2.0)
            .run()
            .err()
            .expect("threshold 2.0 must be rejected");
        assert!(matches!(err, CellspotError::Config(_)));
        assert!(Pipeline::new(&beacons, &demand)
            .threshold(2.0)
            .classify()
            .is_err());
    }

    #[test]
    fn pipeline_rejects_mismatched_asn_datasets() {
        use cdnsim::{BeaconRecord, DemandRecord};
        use netaddr::{Asn, Block24, BlockId};

        let block = BlockId::V4(Block24::from_index(1));
        let beacons = BeaconDataset::from_records(
            "t",
            vec![BeaconRecord {
                block,
                asn: Asn(1),
                hits_total: 80,
                netinfo_hits: 10,
                cellular_hits: 9,
                wifi_hits: 1,
                other_hits: 0,
            }],
        );
        let demand = DemandDataset::from_raw(
            "t",
            vec![DemandRecord {
                block,
                asn: Asn(7),
                du: 5.0,
            }],
        );
        let err = Pipeline::new(&beacons, &demand)
            .run()
            .err()
            .expect("a BEACON/DEMAND ASN disagreement must be rejected");
        assert!(matches!(err, CellspotError::InconsistentDatasets(_)));
        assert!(Pipeline::new(&beacons, &demand).classify().is_err());
    }

    #[test]
    fn observer_sees_every_stage() {
        let wcfg = WorldConfig::mini();
        let min_hits = wcfg.scaled_min_beacon_hits();
        let world = World::generate(wcfg);
        let (beacons, demand) = generate_datasets(&world);
        let obs = Observer::enabled();
        let report = Pipeline::new(&beacons, &demand)
            .as_db(&world.as_db)
            .carriers(&world.carriers)
            .study_config(StudyConfig::default().with_min_hits(min_hits))
            .observer(obs.clone())
            .run()
            .expect("valid config");
        let snap = obs.snapshot();
        for stage in [
            "join",
            "classify",
            "ratio_distributions",
            "validate",
            "sweep",
            "aggregate_by_as",
            "as_filter",
            "mixed",
            "ranking",
            "dns",
            "world_view",
        ] {
            assert!(
                snap.counters
                    .contains_key(&format!("pipeline.{stage}.items")),
                "missing counter for stage {stage}"
            );
            assert!(
                snap.spans
                    .iter()
                    .any(|s| s.path == format!("study/{stage}")),
                "missing span for stage {stage}"
            );
        }
        assert_eq!(
            snap.counters["pipeline.classify.items"],
            report.classification.len() as u64
        );
    }
}
