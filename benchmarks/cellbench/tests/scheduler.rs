//! The open-loop scheduler times each request from when it was due.

use std::cell::Cell;
use std::time::Duration;

use cellbench::sched::{lane_dues, run_schedule, Clock, Timing};

/// A clock that only moves when told to.
struct FakeClock(Cell<Duration>);

impl Clock for FakeClock {
    fn now(&self) -> Duration {
        self.0.get()
    }
    fn wait_until(&self, t: Duration) {
        self.0.set(self.0.get().max(t));
    }
}

const MS: fn(u64) -> Duration = Duration::from_millis;

#[test]
fn a_slow_server_is_charged_from_due_time_not_send_time() {
    let clock = FakeClock(Cell::new(Duration::ZERO));
    // Due every 10 ms; the server takes 25 ms per request.
    let timings = run_schedule(&clock, [MS(0), MS(10), MS(20)], |_| -> Result<(), ()> {
        clock.0.set(clock.0.get() + MS(25));
        Ok(())
    })
    .expect("no request fails");
    let latencies: Vec<Duration> = timings.iter().map(Timing::latency).collect();
    let lateness: Vec<Duration> = timings.iter().map(Timing::lateness).collect();
    // Timed from send time these would all read 25 ms.
    assert_eq!(latencies, [MS(25), MS(40), MS(55)]);
    assert_eq!(lateness, [MS(0), MS(15), MS(30)]);
}

#[test]
fn a_fast_server_waits_for_each_due_time() {
    let clock = FakeClock(Cell::new(Duration::ZERO));
    let timings = run_schedule(&clock, [MS(0), MS(10), MS(20)], |_| -> Result<(), ()> {
        clock.0.set(clock.0.get() + MS(1));
        Ok(())
    })
    .expect("no request fails");
    assert!(timings
        .iter()
        .all(|t| t.sent == t.due && t.latency() == MS(1)));
    assert_eq!(clock.now(), MS(21));
}

#[test]
fn the_first_error_stops_the_schedule() {
    let clock = FakeClock(Cell::new(Duration::ZERO));
    let mut issued = 0;
    let result = run_schedule(&clock, [MS(0), MS(1), MS(2)], |i| {
        issued += 1;
        if i == 1 {
            Err("boom")
        } else {
            Ok(())
        }
    });
    assert_eq!(result, Err("boom"));
    assert_eq!(issued, 2);
}

#[test]
fn lanes_interleave_one_global_schedule() {
    let a = lane_dues(5, 1000.0, 2, 0);
    let b = lane_dues(5, 1000.0, 2, 1);
    assert_eq!(a.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [0, 2, 4]);
    assert_eq!(b.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [1, 3]);
    assert_eq!(a[1].1, MS(2));
    assert_eq!(b[1].1, MS(3));
}
