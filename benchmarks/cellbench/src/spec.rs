//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is
//! [`benchmark_json`] printed; a test keeps the two equal.

use crate::json::Json;
use crate::obj;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, gated by `bound`.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A metric of one layer; diagnostic, no bound.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name, `<crate>.<module>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "lookup-skew",
        "Zipf(1.1) diurnal trace through QueryEngine::run on the mmapped index: the CGN heavy-hitter regime, hot-block cache and chunk bookkeeping do the work",
    ),
    (
        "lookup-scan",
        "Same index and engine, scan trace (every query another block, ~30% unserved): the cache is pure overhead, the bare LPM walk and prefetch do the work",
    ),
    (
        "serve-tcp",
        "In-process daemon over framed TCP on loopback, 2 connections x 64-query frames: closed-loop saturation then open loop at four fixed rates; framing, batch queue and linger dominate",
    ),
    (
        "refresh",
        "Write side: study build x5, 4-epoch streaming ingest at 2 shards, then churn epochs of classify, encode, build_delta, apply_delta, live hot-patch; the lookup path does none of it",
    ),
];

/// Seconds one run measures (`run_seconds`); work counts are calibrated to it.
pub const RUN_SECONDS: u64 = 10;

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, gated by the driver and by `cellbench compare`.
///
/// The contract makes every workload report every one of them, never 0,
/// so the workload-specific metrics of the issue cannot be listed here
/// under their own names. `setup_s` applies to all four workloads as it
/// is; the two slots take, per workload, the value of the named metric
/// [`SLOTS`] assigns them. Every value is a median. The bounds are what
/// ten-seed spreads on the baseline machine allow (README, "Bounds");
/// `peak_rss_mb` spread up to 18 % there and is listed in [`PER_LAYER`].
pub const END_TO_END: [EndToEnd; 3] = [
    e2e("throughput_per_s", "1/s", Better::Higher, 0.25),
    e2e("request_p50_us", "us", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// The named metric behind a slot on one workload.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    /// Workload name.
    pub workload: &'static str,
    /// The slot, an [`END_TO_END`] name.
    pub slot: &'static str,
    /// The metric whose value the slot reports.
    pub source: &'static str,
    /// Factor from the source's unit to the slot's.
    pub scale: f64,
}

const fn slot(
    workload: &'static str,
    slot: &'static str,
    source: &'static str,
    scale: f64,
) -> Slot {
    Slot {
        workload,
        slot,
        source,
        scale,
    }
}

/// What `throughput_per_s` and `request_p50_us` mean on each workload:
/// the issue's own end-to-end metric where it names one, and on the
/// lookup workloads (for which it names no latency) the time of one
/// 64-address `QueryEngine::run` call.
pub const SLOTS: [Slot; 8] = [
    slot("lookup-skew", "throughput_per_s", "lookups_per_s", 1.0),
    slot(
        "lookup-skew",
        "request_p50_us",
        "cellserve.engine.frame_us_p50",
        1.0,
    ),
    slot("lookup-scan", "throughput_per_s", "lookups_per_s", 1.0),
    slot(
        "lookup-scan",
        "request_p50_us",
        "cellserve.engine.frame_us_p50",
        1.0,
    ),
    slot("serve-tcp", "throughput_per_s", "sat_lookups_per_s", 1.0),
    slot("serve-tcp", "request_p50_us", "p50_us", 1.0),
    slot("refresh", "throughput_per_s", "ingest_events_per_s", 1.0),
    slot("refresh", "request_p50_us", "epoch_refresh_ms", 1e3),
];

/// The metric an end-to-end name reads on `workload`: the slot's source
/// and scale, or the name itself.
pub fn source_of<'a>(workload: &str, name: &'a str) -> (&'a str, f64) {
    SLOTS
        .iter()
        .find(|s| s.workload == workload && s.slot == name)
        .map_or((name, 1.0), |s| (s.source, s.scale))
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, printed by a `--trace 1` run. A workload reports
/// 0 for a layer it does not execute. The first eleven are the issue's
/// other end-to-end metrics under the issue's names: ten that the
/// contract cannot hold in [`END_TO_END`] (no workload reports them
/// all), which reach the gate through [`SLOTS`] or, for the exact
/// counts, through `compare`'s refusals; and `peak_rss_mb`.
pub const PER_LAYER: [PerLayer; 81] = [
    layer("peak_rss_mb", "MB", Lower),
    layer("lookups_per_s", "1/s", Higher),
    layer("sat_lookups_per_s", "1/s", Higher),
    layer("p50_us", "us", Lower),
    layer("p99_us", "us", Lower),
    layer("max_ok_rate", "1/s", Higher),
    layer("study_s", "s", Lower),
    layer("ingest_events_per_s", "1/s", Higher),
    layer("epoch_refresh_ms", "ms", Lower),
    layer("delta_bytes_ratio", "ratio", Lower),
    layer("failed_share", "ratio", Lower),
    // Set-up spans (all workloads that build a world).
    layer("worldgen.generate_s", "s", Lower),
    layer("cdnsim.datasets_s", "s", Lower),
    layer("cellspot.classify_s", "s", Lower),
    layer("cellserve.frozen.build_ms", "ms", Lower),
    layer("cellserve.artifact.encode_ms", "ms", Lower),
    layer("cellserve.artifact.open_ms", "ms", Lower),
    layer("cellserve.artifact.bytes", "B", Lower),
    layer("cellserve.artifact.bytes_copied", "B", Lower),
    layer("cellload.trace.gen_s", "s", Lower),
    // Lookup path.
    layer("cellserve.view.lpm_v4_ns", "ns", Lower),
    layer("cellserve.view.lpm_v6_ns", "ns", Lower),
    layer("cellserve.engine.lookup_ns", "ns", Lower),
    layer("cellserve.engine.run_ns", "ns", Lower),
    layer("cellserve.engine.overhead_ns", "ns", Lower),
    layer("cellserve.engine.cache_hit_ratio", "ratio", Higher),
    layer("cellserve.engine.matched_share", "ratio", Higher),
    layer("cellserve.engine.threads2_speedup", "ratio", Higher),
    layer("cellserve.engine.frame_us_p50", "us", Lower),
    layer("cellserve.engine.frame_us_p99", "us", Lower),
    layer("cellserve.engine.pass_ms_p50", "ms", Lower),
    layer("cellserve.engine.pass_ms_tail", "ms", Lower),
    // Daemon and transport.
    layer("cellserved.daemon.start_ms", "ms", Lower),
    layer("cellserved.daemon.shutdown_ms", "ms", Lower),
    layer("cellserved.tcp.sat_frames_per_s", "1/s", Higher),
    layer("cellserved.tcp.frame_us_p50.r1", "us", Lower),
    layer("cellserved.tcp.frame_us_p50.r2", "us", Lower),
    layer("cellserved.tcp.frame_us_p50.r3", "us", Lower),
    layer("cellserved.tcp.frame_us_p50.r4", "us", Lower),
    layer("cellserved.tcp.frame_us_p99.r1", "us", Lower),
    layer("cellserved.tcp.frame_us_p99.r2", "us", Lower),
    layer("cellserved.tcp.frame_us_p99.r3", "us", Lower),
    layer("cellserved.tcp.frame_us_p99.r4", "us", Lower),
    layer("cellserved.tcp.frame_us_p999.r1", "us", Lower),
    layer("cellserved.tcp.frame_us_p999.r2", "us", Lower),
    layer("cellserved.tcp.frame_us_p999.r3", "us", Lower),
    layer("cellserved.tcp.frame_us_p999.r4", "us", Lower),
    layer("gen.late_us_p99.r1", "us", Lower),
    layer("gen.late_us_p99.r2", "us", Lower),
    layer("gen.late_us_p99.r3", "us", Lower),
    layer("gen.late_us_p99.r4", "us", Lower),
    layer("serve.engine_frame_us", "us", Lower),
    layer("cellserved.overhead_us", "us", Lower),
    layer("cellserved.tcp.frame1_us_p50", "us", Lower),
    layer("cellserved.tcp.frame512_ns_per_lookup", "ns", Lower),
    layer("cellserved.http.lookups_per_s", "1/s", Higher),
    layer("cellload.replay.framed_lookups_per_s", "1/s", Higher),
    layer("cellload.replay.engine_lookups_per_s", "1/s", Higher),
    layer("ledger.sum_gap_share", "ratio", Lower),
    layer("client.retries", "count", Lower),
    layer("client.reconnects", "count", Lower),
    // Write side.
    layer("dnssim.generate_s", "s", Lower),
    layer("cellspot.study_s", "s", Lower),
    layer("cellstream.ingest_s", "s", Lower),
    layer("cellstream.events", "count", Higher),
    layer("cellstream.state_bytes", "B", Lower),
    layer("celldelta.classify_ms", "ms", Lower),
    layer("celldelta.classify_full_ms", "ms", Lower),
    layer("celldelta.encode_ms", "ms", Lower),
    layer("celldelta.build_ms", "ms", Lower),
    layer("celldelta.apply_ms", "ms", Lower),
    layer("celldelta.delta_bytes", "B", Lower),
    layer("celldelta.ops_per_epoch", "count", Lower),
    layer("celldelta.changed_blocks", "count", Lower),
    layer("celldelta.apply_us_per_op", "us", Lower),
    layer("cellserved.generation.patch_ms", "ms", Lower),
    layer("cellserved.generation.swap_ms", "ms", Lower),
    // The harness itself.
    layer("harness.measure_wall_s", "s", Lower),
    layer("harness.sys_time_share", "ratio", Lower),
    layer("harness.minor_faults", "count", Lower),
    layer("harness.trace_overhead_share", "ratio", Lower),
];

/// The program and arguments the driver runs; it appends
/// `--workload W --seed N --seconds S --trace 0|1`. The script builds
/// `cellbench` and runs `cellbench run` with those arguments.
pub const COMMAND: [&str; 2] = ["bash", "benchmarks/cellbench/bench.sh"];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmarks/cellbench"];

/// The whole contract as the `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::from(*s)).collect());
    obj! {
        "command" => strings(&COMMAND),
        "paths" => strings(&PATHS),
        "run_seconds" => RUN_SECONDS,
        "workloads" => Json::Arr(WORKLOADS.iter().map(|(name, why)| obj! {"name" => *name, "why" => *why}).collect()),
        "end_to_end" => Json::Arr(
            END_TO_END
                .iter()
                .map(|m| obj! {"name" => m.name, "unit" => m.unit, "better" => m.better.as_str(), "bound" => m.bound})
                .collect(),
        ),
        "per_layer" => Json::Arr(
            PER_LAYER.iter().map(|m| obj! {"name" => m.name, "unit" => m.unit, "better" => m.better.as_str()}).collect(),
        ),
    }
}
