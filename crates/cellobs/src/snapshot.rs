//! Point-in-time observability state and its canonical JSON export.

use std::collections::BTreeMap;

use crate::hist::{bucket_bound_label, HistogramSnapshot};
use crate::json::write_str;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// `/`-joined path from the outermost open span (`study/classify`).
    pub path: String,
    /// Nesting depth (0 = root).
    pub depth: usize,
    /// Wall-clock duration in milliseconds. Explicitly outside the
    /// determinism contract — redacted exports drop it.
    pub millis: f64,
    /// Items the span processed (its throughput denominator).
    pub items: u64,
}

/// Everything an [`crate::Observer`] recorded, frozen for export.
///
/// Maps are ordered by name and spans by open order, so serializing the
/// same logical state always produces the same bytes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Finished spans in open order.
    pub spans: Vec<SpanRecord>,
}

impl ObsSnapshot {
    /// Canonical JSON: stable key order, stable formatting, durations
    /// included. Byte-identical for identical metric *and* timing state;
    /// use [`to_canonical_json_redacted`](Self::to_canonical_json_redacted)
    /// when comparing across runs.
    pub fn to_canonical_json(&self) -> String {
        self.render_json(true)
    }

    /// Canonical JSON with every wall-clock field removed: the
    /// deterministic projection that is byte-identical across runs and
    /// rayon thread counts for the same configuration.
    pub fn to_canonical_json_redacted(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, with_timings: bool) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"counters\": {");
        render_u64_map(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        render_u64_map(&mut out, &self.gauges);
        out.push_str("},\n  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            write_str(&mut out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                h.count, h.sum
            ));
            for (i, (bucket, count)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('[');
                write_str(&mut out, &bucket_bound_label(*bucket));
                out.push_str(&format!(", {count}]"));
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"path\": ");
            write_str(&mut out, &s.path);
            out.push_str(&format!(", \"depth\": {}, \"items\": {}", s.depth, s.items));
            if with_timings {
                out.push_str(&format!(", \"millis\": {:.3}", s.millis));
            }
            out.push('}');
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn render_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        write_str(out, k);
        out.push_str(&format!(": {v}"));
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample() -> ObsSnapshot {
        let mut s = ObsSnapshot::default();
        s.counters.insert("b.count".into(), 2);
        s.counters.insert("a.count".into(), 1);
        s.gauges.insert("peak".into(), 7);
        s.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                count: 3,
                sum: 9,
                buckets: vec![(0, 1), (2, 2)],
            },
        );
        s.spans.push(SpanRecord {
            path: "study/classify".into(),
            depth: 1,
            millis: 1.5,
            items: 42,
        });
        s
    }

    #[test]
    fn json_is_canonical_and_sorted() {
        let json = sample().to_canonical_json();
        // Keys come out in map order, i.e. sorted.
        let a = json.find("a.count").expect("a.count present");
        let b = json.find("b.count").expect("b.count present");
        assert!(a < b);
        assert!(json.contains("\"millis\": 1.500"));
        assert!(json.contains("[\"1\", 1], [\"4\", 2]"));
        // Identical state renders identical bytes.
        assert_eq!(json, sample().to_canonical_json());
    }

    #[test]
    fn redacted_json_drops_wall_clock() {
        let mut a = sample();
        let mut b = sample();
        a.spans[0].millis = 1.0;
        b.spans[0].millis = 99.0;
        assert_eq!(
            a.to_canonical_json_redacted(),
            b.to_canonical_json_redacted()
        );
        assert!(!a.to_canonical_json_redacted().contains("millis"));
    }

    /// The export's bytes are a contract (`--metrics` files are diffed
    /// across runs): pinned here on the sample, with and without
    /// timings, on a name that needs every escape, and empty.
    #[test]
    fn export_bytes_are_pinned_and_parse() {
        let full = "{\n  \"counters\": {\n    \"a.count\": 1,\n    \"b.count\": 2\n  },\n  \
                    \"gauges\": {\n    \"peak\": 7\n  },\n  \"histograms\": {\n    \
                    \"h\": {\"count\": 3, \"sum\": 9, \"buckets\": [[\"1\", 1], [\"4\", 2]]}\n  },\n  \
                    \"spans\": [\n    {\"path\": \"study/classify\", \"depth\": 1, \"items\": 42, \
                    \"millis\": 1.500}\n  ]\n}\n";
        assert_eq!(sample().to_canonical_json(), full);
        assert_eq!(
            sample().to_canonical_json_redacted(),
            full.replace(", \"millis\": 1.500", "")
        );
        assert_eq!(
            ObsSnapshot::default().to_canonical_json(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {},\n  \"spans\": []\n}\n"
        );
        let mut odd = ObsSnapshot::default();
        odd.counters
            .insert("q\"b\\n\nr\rt\tc\u{1}é".into(), u64::MAX);
        let json = odd.to_canonical_json();
        assert!(
            json.contains(r#""q\"b\\n\nr\rt\tc\u0001é": 18446744073709551615"#),
            "{json}"
        );

        // Whatever the exporter writes, the workspace's parser reads back.
        let parsed = Json::parse(&json).expect("export parses");
        assert_eq!(
            parsed["counters"]["q\"b\\n\nr\rt\tc\u{1}é"],
            Json::Int(u64::MAX)
        );
        let parsed = Json::parse(full).expect("export parses");
        assert_eq!(
            parsed["histograms"]["h"]["buckets"],
            Json::parse(r#"[["1", 1], ["4", 2]]"#).unwrap()
        );
        assert_eq!(
            parsed["spans"],
            Json::Arr(vec![crate::obj! {
                "path" => "study/classify", "depth" => 1u64, "items" => 42u64, "millis" => 1.5f64,
            }])
        );
    }

    #[test]
    fn strings_escape() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }
}
