//! The open-loop schedule: requests are due at fixed times whatever the
//! system under test does, and each is timed **from when it was due**,
//! so a stall is charged to every request it delays, not only to the
//! one in flight.

use std::time::{Duration, Instant};

/// Time as the scheduler sees it: an offset from the schedule's start.
pub trait Clock {
    /// Offset now.
    fn now(&self) -> Duration;
    /// Block until the offset is at least `t` (returns at once if it already is).
    fn wait_until(&self, t: Duration);
}

/// The wall clock, counted from a fixed start (which may still lie
/// ahead: the offset is zero until it is reached).
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        Instant::now().saturating_duration_since(self.0)
    }

    fn wait_until(&self, t: Duration) {
        // Plain sleep, no spinning: on the two-core sandbox a spinning
        // generator would take a core from the daemon it is loading. The
        // oversleep is reported as generator lateness.
        let remaining = (self.0 + t).saturating_duration_since(Instant::now());
        if !remaining.is_zero() {
            std::thread::sleep(remaining);
        }
    }
}

/// One scheduled request, all times offsets on the schedule's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// When the request was due.
    pub due: Duration,
    /// When it was actually issued (≥ `due`).
    pub sent: Duration,
    /// When its answer arrived.
    pub done: Duration,
}

impl Timing {
    /// What the caller waited: answer time minus **due** time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator issued it.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Issue `op(i)` for each due time in order: wait for the due time (or
/// go at once if it has passed), run the request to completion, record
/// its timing. One request is in flight at a time on this schedule;
/// callers run one schedule per connection.
///
/// # Errors
/// Stops at and returns the first error `op` reports.
pub fn run_schedule<C: Clock, E>(
    clock: &C,
    dues: impl IntoIterator<Item = Duration>,
    mut op: impl FnMut(usize) -> Result<(), E>,
) -> Result<Vec<Timing>, E> {
    let mut timings = Vec::new();
    for (i, due) in dues.into_iter().enumerate() {
        clock.wait_until(due);
        let sent = clock.now();
        op(i)?;
        timings.push(Timing {
            due,
            sent,
            done: clock.now(),
        });
    }
    Ok(timings)
}

/// Due times of a fixed-rate schedule split round-robin over `lanes`
/// connections: request `k` of `total` is due at `k / rate_per_s` and
/// belongs to lane `k % lanes`. Returns `(k, due)` for `lane`.
pub fn lane_dues(
    total: usize,
    rate_per_s: f64,
    lanes: usize,
    lane: usize,
) -> Vec<(usize, Duration)> {
    (lane..total)
        .step_by(lanes.max(1))
        .map(|k| (k, Duration::from_secs_f64(k as f64 / rate_per_s)))
        .collect()
}
