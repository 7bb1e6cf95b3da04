//! The four workloads. Each builds its inputs from the seed, runs its
//! frozen plan against the program's public functions, verifies the
//! answers, and returns one [`Record`]; any mismatch is an `Err`, so a
//! wrong answer never becomes a number.

pub mod lookup;
pub mod refresh;
pub mod serve;

use std::time::Instant;

use crate::record::{Metrics, Record, Usage};
use crate::stats::{median, summarize};
use crate::trace::Tracer;

/// The arguments of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--trace 1`: record spans, run the per-layer legs.
    pub traced: bool,
    /// `--smoke`: mini world, ~1/100 counts.
    pub smoke: bool,
}

/// Run the workload called `name`.
pub fn run(name: &str, args: RunArgs, tracer: &mut Tracer) -> Result<Record, String> {
    match name {
        "lookup-skew" => lookup::run(lookup::Kind::Skew, args, tracer),
        "lookup-scan" => lookup::run(lookup::Kind::Scan, args, tracer),
        "serve-tcp" => serve::run(args, tracer),
        "refresh" => refresh::run(args, tracer),
        other => Err(format!(
            "unknown workload `{other}` (lookup-skew, lookup-scan, serve-tcp, refresh)"
        )),
    }
}

/// A span name, the metric its durations become, the metric's unit and
/// the factor from seconds to that unit.
type SpanMetric = (&'static str, &'static str, &'static str, f64);

/// For each row, `metric = median of the span's durations × scale` with
/// the sample summary attached; a span that never ran adds nothing.
fn put_spans(metrics: &mut Metrics, tracer: &Tracer, table: &[SpanMetric]) {
    for &(span, metric, unit, scale) in table {
        let samples: Vec<f64> = tracer
            .seconds(span)
            .into_iter()
            .map(|s| s * scale)
            .collect();
        if !samples.is_empty() {
            metrics.put_summarized(metric, median(&samples), unit, summarize(&samples));
        }
    }
}

/// The set-up layers shared by the workloads that build a world.
const SETUP_LAYERS: [SpanMetric; 7] = [
    ("worldgen.generate", "worldgen.generate_s", "s", 1.0),
    ("cdnsim.datasets", "cdnsim.datasets_s", "s", 1.0),
    ("cellspot.classify", "cellspot.classify_s", "s", 1.0),
    (
        "cellserve.frozen.build",
        "cellserve.frozen.build_ms",
        "ms",
        1e3,
    ),
    (
        "cellserve.artifact.encode",
        "cellserve.artifact.encode_ms",
        "ms",
        1e3,
    ),
    (
        "cellserve.artifact.open",
        "cellserve.artifact.open_ms",
        "ms",
        1e3,
    ),
    ("cellload.trace.gen", "cellload.trace.gen_s", "s", 1.0),
];

/// The measured phases of a run: their wall time, and what they cost
/// the kernel. The page faults are mostly the allocator mapping and
/// first-touching fresh memory (on the lookup workloads, the ~100 MB
/// answer vector `QueryEngine::run` returns per pass); they are inside
/// every end-to-end figure, and these two metrics say how much of it
/// they are.
pub struct Measured {
    started: Instant,
    usage: Usage,
}

impl Measured {
    /// Start of the measured phases.
    pub fn begin() -> Result<Measured, String> {
        Ok(Measured {
            usage: Usage::now()?,
            started: Instant::now(),
        })
    }

    /// End of the measured phases: `harness.measure_wall_s`,
    /// `harness.sys_time_share`, `harness.minor_faults`. Returns the wall.
    pub fn end(self, metrics: &mut Metrics) -> Result<f64, String> {
        let wall_s = self.started.elapsed().as_secs_f64();
        let (faults, sys_share) = Usage::now()?.since(&self.usage);
        metrics.put("harness.measure_wall_s", wall_s, "s");
        metrics.put("harness.sys_time_share", sys_share, "ratio");
        metrics.put("harness.minor_faults", faults as f64, "count");
        Ok(wall_s)
    }
}

/// `setup_s`, `peak_rss_mb`, `failed_share` and the tracing overhead
/// estimate: the metrics every workload ends with.
fn put_common(
    metrics: &mut Metrics,
    tracer: &Tracer,
    measure_wall_s: f64,
    attempted: u64,
    failed: u64,
) -> Result<(), String> {
    put_spans(metrics, tracer, &[("harness.setup", "setup_s", "s", 1.0)]);
    metrics.put("peak_rss_mb", crate::record::peak_rss_mb()?, "MB");
    metrics.put_exact("failed_share", failed as f64 / attempted as f64, "ratio");
    let overhead = if tracer.enabled() {
        Tracer::calibrate_span_cost().as_secs_f64() * tracer.spans().len() as f64 / measure_wall_s
    } else {
        0.0
    };
    metrics.put("harness.trace_overhead_share", overhead, "ratio");
    Ok(())
}
