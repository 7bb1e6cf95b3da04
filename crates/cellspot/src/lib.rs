//! # cellspot — the Cell Spotting methodology
//!
//! This crate is the paper's primary contribution, implemented in full:
//!
//! * **§4 Cellular subnet identification** — per-block cellular ratios
//!   from Network Information API beacons ([`BlockIndex`],
//!   [`Classification`]), the ratio distributions of Fig. 2
//!   ([`RatioDistributions`]), carrier validation with precision/recall/F1
//!   by CIDR count and by demand ([`validate_carrier`]), and the threshold
//!   sensitivity sweep of Fig. 3 ([`threshold_sweep`]).
//! * **§5 Cellular AS identification** — straw-man tagging plus the three
//!   filtering heuristics of Table 5 ([`identify_cellular_ases`]).
//! * **§6 The shape of cell networks** — mixed/dedicated splitting on
//!   cellular fraction of demand ([`MixedAnalysis`]), operator demand
//!   ranking ([`AsDemandRanking`]), per-operator subnet concentration
//!   ([`SubnetDemandProfile`]), and DNS resolver analysis ([`DnsAnalysis`]).
//! * **§7 Macroscopic view** — continent and country rollups
//!   ([`WorldView`]).
//!
//! The [`Pipeline`] builder chains all of it — attach an
//! [`Observer`](cellobs::Observer) to get per-stage spans and metrics —
//! and each piece stays equally usable on its own. The crate
//! deliberately depends only on *observable* data — datasets, AS
//! metadata, resolver affinities — never on the synthetic world's hidden
//! ground truth (enforced by the dependency graph: `worldgen` is a
//! dev-dependency only).
//!
//! ```ignore
//! use cellspot::prelude::*;
//!
//! let report = Pipeline::new(&beacons, &demand)
//!     .as_db(&as_db)
//!     .carriers(&carriers)
//!     .threads(8)
//!     .observer(obs.clone())
//!     .run()?;
//! println!("cellular ASes: {}", report.cellular_as_count());
//! ```

mod ablation;
mod asid;
mod classify;
mod confidence;
mod demand;
mod dns;
mod error;
mod index;
mod metrics;
mod mixed;
mod pipeline;
mod stats;
mod sweep;
mod temporal;
mod threads;
mod world_view;

pub use ablation::{
    asn_level_ablation, granularity_ablation, granularity_sweep, rule_ablation, supernet_key,
    AsnLevelAblation, AsnStrategy, GranularityAblation, RuleAblation, GRANULARITY_SWEEP,
};
pub use asid::{
    aggregate_by_as, identify_cellular_ases, AsAggregate, AsFilterOutcome, FilterConfig,
};
pub use classify::{Classification, RatioDistributions, DEFAULT_THRESHOLD};
pub use confidence::{
    classify_with_confidence, confident_label, wilson_interval, ConfidenceSummary, ConfidentLabel,
};
pub use demand::{cellular_demand_values, AsDemandRanking, RankedAs, SubnetDemandProfile};
pub use dns::{DnsAnalysis, PublicDnsUsage, ResolverDemand};
pub use error::CellspotError;
pub use index::{BlockIndex, BlockObs};
pub use metrics::{validate_carrier, CarrierValidation, Confusion};
pub use mixed::{max_cfd_gap, AsRatioBreakdown, MixedAnalysis, MixedVerdict, DEDICATED_CFD};
pub use pipeline::{Pipeline, PipelineReport, Study, StudyConfig};
pub use stats::{count_for_share, gini, top_k_share, Ecdf};
pub use sweep::{threshold_sweep, SweepCurve, SweepPoint};
pub use temporal::{MonthTransition, TemporalAnalysis};
pub use threads::{
    configure_threads, resolve_threads, resolve_threads_with, ThreadsChoice, THREADS_ENV,
};
pub use world_view::{
    continent_rows, v6_deployment, ContinentDemand, ContinentSubnets, CountryDemand, V6Deployment,
    WorldView,
};

/// The blessed public surface in one import: the [`Pipeline`] builder,
/// its report and error types, configuration, and the observability
/// types a caller needs to attach and export metrics.
pub mod prelude {
    pub use crate::error::CellspotError;
    pub use crate::pipeline::{Pipeline, PipelineReport, Study, StudyConfig};
    pub use crate::threads::{resolve_threads, ThreadsChoice, THREADS_ENV};
    pub use cellobs::{ExportFormat, ObsSnapshot, Observer};
}
