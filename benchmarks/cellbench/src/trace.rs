//! Harness-side spans: one per call across a layer boundary, recorded
//! from outside the program under test.
//!
//! Every measured call goes through [`Tracer::begin`] / [`Tracer::end`]
//! whether or not tracing is on, and `end` returns the duration the
//! metrics are computed from — so traced and untraced runs time with
//! the same two clock reads, and a traced run differs only by one
//! `Vec::push` per span (its cost is calibrated and reported as
//! `trace_overhead_share`).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::obj;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<crate>.<module>.<call>` of the layer entered.
    pub name: &'static str,
    /// Identifier shared by the spans of one pass, frame or epoch.
    pub run: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// An open span, returned by [`Tracer::begin`].
#[must_use = "a span that is not ended records nothing"]
pub struct Open {
    name: &'static str,
    run: u64,
    started: Instant,
}

/// A span recorder for one thread. Threads that measure concurrently
/// each [`fork`](Tracer::fork) their own and are [`merge`](Tracer::merge)d
/// back.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    // Indices into `spans` reserved by `begin` for spans still open.
    open: Vec<usize>,
    // Every duration `end` returned, by span name; kept whether or not
    // spans are recorded, because the metrics are computed from it.
    durations: BTreeMap<&'static str, Vec<Duration>>,
}

impl Tracer {
    /// A tracer that records spans (`true`) or only times them.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            durations: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread, sharing this one's epoch.
    pub fn fork(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            ..Tracer::new(self.enabled)
        }
    }

    /// Fold a forked tracer's spans back in (parents re-indexed).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, durations) in other.durations {
            self.durations.entry(name).or_default().extend(durations);
        }
    }

    /// Open a span; the innermost span still open on this tracer
    /// becomes its parent.
    pub fn begin(&mut self, name: &'static str, run: u64) -> Open {
        if self.enabled {
            let parent = self.open.last().copied();
            self.open.push(self.spans.len());
            self.spans.push(Span {
                name,
                run,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
        }
        Open {
            name,
            run,
            started: Instant::now(),
        }
    }

    /// Close the innermost open span and return how long it took.
    pub fn end(&mut self, open: Open) -> Duration {
        let elapsed = open.started.elapsed();
        if self.enabled {
            let idx = self.open.pop().expect("end without begin");
            let span = &mut self.spans[idx];
            debug_assert!(
                span.name == open.name && span.run == open.run,
                "spans must nest"
            );
            span.start_ns = open.started.duration_since(self.epoch).as_nanos() as u64;
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
        }
        self.durations.entry(open.name).or_default().push(elapsed);
        elapsed
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.begin(name, run);
        let result = f();
        (result, self.end(open))
    }

    /// Record a span whose endpoints were measured elsewhere (an
    /// open-loop frame runs from its due time, not from a `begin`).
    pub fn record(&mut self, name: &'static str, run: u64, start: Instant, end: Instant) {
        if self.enabled {
            let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
            let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                run,
                parent: self.open.last().copied(),
                start_ns,
                end_ns,
            });
        }
    }

    /// Every duration measured under `name`, in seconds, in order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.durations
            .get(name)
            .map(|d| d.iter().map(Duration::as_secs_f64).collect())
            .unwrap_or_default()
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: count, total time, and self time — a span's
    /// duration minus the part its direct children cover.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = totals.entry(span.name).or_default();
            let dur = span.end_ns - span.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        totals
    }

    /// Mean cost of recording one span on this machine, from a burst
    /// of empty spans on a scratch tracer.
    pub fn calibrate_span_cost() -> Duration {
        const N: u32 = 20_000;
        let cost = |enabled: bool| {
            let mut t = Tracer::new(enabled);
            let started = Instant::now();
            for i in 0..N {
                let open = t.begin("calibrate", u64::from(i));
                std::hint::black_box(t.end(open));
            }
            started.elapsed()
        };
        cost(true).saturating_sub(cost(false)) / N
    }

    /// The trace file: every span, then the per-name totals.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj! {
                    "name" => s.name,
                    "run" => s.run,
                    "parent" => s.parent.map_or(Json::Null, Json::from),
                    "start_ns" => s.start_ns,
                    "end_ns" => s.end_ns,
                }
            })
            .collect();
        let totals = self
            .by_name()
            .into_iter()
            .map(|(name, t)| {
                let value =
                    obj! {"count" => t.count, "total_ns" => t.total_ns, "self_ns" => t.self_ns};
                (name.to_string(), value)
            })
            .collect();
        obj! {"spans" => Json::Arr(spans), "by_name" => Json::Obj(totals)}
    }
}

/// Aggregate of the spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus time covered by direct children.
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        let ((), inner_a) = t.time("inner", 1, || std::thread::sleep(Duration::from_millis(3)));
        let ((), inner_b) = t.time("inner", 1, || std::thread::sleep(Duration::from_millis(2)));
        let outer_dur = t.end(outer);
        let by = t.by_name();
        assert_eq!(by["inner"].count, 2);
        assert_eq!(by["inner"].total_ns, (inner_a + inner_b).as_nanos() as u64);
        assert_eq!(by["outer"].total_ns, outer_dur.as_nanos() as u64);
        assert_eq!(
            by["outer"].self_ns,
            by["outer"].total_ns - by["inner"].total_ns
        );
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let ((), d) = t.time("x", 0, || std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert!(t.spans().is_empty());
        let mut fork = t.fork();
        let _ = fork.time("y", 0, || ());
        t.merge(fork);
        assert!(t.spans().is_empty());
        assert_eq!(t.seconds("x"), [d.as_secs_f64()]);
        assert_eq!(t.seconds("y").len(), 1);
    }
}
