//! Prometheus text-format export and the exporter format knob.

use std::fmt;
use std::str::FromStr;

use crate::hist::{bucket_bound_label, HISTOGRAM_BUCKETS};
use crate::snapshot::ObsSnapshot;

/// Which exporter a `--metrics` file is written with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExportFormat {
    /// Canonical JSON ([`ObsSnapshot::to_canonical_json`]).
    Json,
    /// Prometheus text exposition format
    /// ([`ObsSnapshot::to_prometheus`]).
    Prometheus,
}

impl ExportFormat {
    /// Render a snapshot in this format.
    pub fn render(&self, snapshot: &ObsSnapshot) -> String {
        match self {
            ExportFormat::Json => snapshot.to_canonical_json(),
            ExportFormat::Prometheus => snapshot.to_prometheus(),
        }
    }
}

impl FromStr for ExportFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "json" => Ok(ExportFormat::Json),
            "prometheus" | "prom" => Ok(ExportFormat::Prometheus),
            other => Err(format!(
                "unknown metrics format {other:?} (json|prometheus)"
            )),
        }
    }
}

impl fmt::Display for ExportFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExportFormat::Json => "json",
            ExportFormat::Prometheus => "prometheus",
        })
    }
}

impl ObsSnapshot {
    /// Prometheus text exposition format. Metric names are sanitized
    /// (`.` and `-` become `_`); spans export as `span_millis` /
    /// `span_items` gauges labeled by path. Families are emitted in name
    /// order, so identical state renders identical bytes.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for (name, value) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            // Prometheus buckets are cumulative; ours are sparse per-bucket
            // counts in ascending order. Emit only occupied bounds plus the
            // +Inf terminator to keep the export compact.
            let mut cumulative = 0u64;
            for &(bucket, count) in &h.buckets {
                cumulative += count;
                if bucket < HISTOGRAM_BUCKETS - 1 {
                    out.push_str(&format!(
                        "{n}_bucket{{le=\"{}\"}} {cumulative}\n",
                        bucket_bound_label(bucket)
                    ));
                }
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n", h.sum));
            out.push_str(&format!("{n}_count {}\n", h.count));
        }
        if !self.spans.is_empty() {
            out.push_str("# TYPE span_millis gauge\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "span_millis{{path=\"{}\"}} {:.3}\n",
                    escape_label(&s.path),
                    s.millis
                ));
            }
            out.push_str("# TYPE span_items gauge\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "span_items{{path=\"{}\"}} {}\n",
                    escape_label(&s.path),
                    s.items
                ));
            }
        }
        out
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; map everything else
/// to `_`. A leading digit gets an underscore prefix.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Prometheus label values escape backslash, quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::HistogramSnapshot;

    #[test]
    fn format_knob_parses() {
        assert_eq!("json".parse::<ExportFormat>(), Ok(ExportFormat::Json));
        assert_eq!(
            "prometheus".parse::<ExportFormat>(),
            Ok(ExportFormat::Prometheus)
        );
        assert_eq!("prom".parse::<ExportFormat>(), Ok(ExportFormat::Prometheus));
        assert!("yaml".parse::<ExportFormat>().is_err());
        assert_eq!(ExportFormat::Json.to_string(), "json");
        assert_eq!(ExportFormat::Prometheus.to_string(), "prometheus");
    }

    #[test]
    fn prometheus_lines_are_well_formed() {
        let mut snap = ObsSnapshot::default();
        snap.counters.insert("ingest.events".into(), 10);
        snap.gauges.insert("ingest.state-bytes.peak".into(), 2048);
        snap.histograms.insert(
            "epoch.events".into(),
            HistogramSnapshot {
                count: 3,
                sum: 12,
                buckets: vec![(1, 1), (3, 2)],
            },
        );
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE ingest_events counter\ningest_events 10\n"));
        assert!(text.contains("ingest_state_bytes_peak 2048"));
        // Cumulative buckets: le=2 sees 1 value, le=8 sees all 3.
        assert!(text.contains("epoch_events_bucket{le=\"2\"} 1"));
        assert!(text.contains("epoch_events_bucket{le=\"8\"} 3"));
        assert!(text.contains("epoch_events_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("epoch_events_sum 12"));
        assert!(text.contains("epoch_events_count 3"));
        // The JSON face of the same fixture, byte for byte.
        assert_eq!(
            ExportFormat::Json.render(&snap),
            "{\n  \"counters\": {\n    \"ingest.events\": 10\n  },\n  \"gauges\": {\n    \
             \"ingest.state-bytes.peak\": 2048\n  },\n  \"histograms\": {\n    \
             \"epoch.events\": {\"count\": 3, \"sum\": 12, \"buckets\": [[\"2\", 1], [\"8\", 2]]}\n  },\n  \
             \"spans\": []\n}\n"
        );
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }
}
