//! A percentile is reported only with at least ten samples beyond it.

use cellbench::stats::{highest_reportable, percentile, percentile_if_reportable, MIN_BEYOND};

#[test]
fn the_highest_reported_percentile_has_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    // Fewer than 20 samples: not even the median has ten beyond it.
    assert_eq!(highest_reportable(0), None);
    assert_eq!(highest_reportable(19), None);
    assert_eq!(highest_reportable(20), Some(50.0));
    // p90 needs 100 samples (rank 90, ten beyond), p99 needs 1000, p99.9 needs 10000.
    assert_eq!(highest_reportable(99), Some(50.0));
    assert_eq!(highest_reportable(100), Some(90.0));
    assert_eq!(highest_reportable(999), Some(90.0));
    assert_eq!(highest_reportable(1000), Some(99.0));
    assert_eq!(highest_reportable(9_999), Some(99.0));
    assert_eq!(highest_reportable(10_000), Some(99.9));
}

#[test]
fn an_unreportable_level_yields_nothing_rather_than_a_guess() {
    let samples: Vec<f64> = (1..=500).map(f64::from).collect();
    assert_eq!(percentile_if_reportable(&samples, 50.0), Some(250.0));
    assert_eq!(percentile_if_reportable(&samples, 90.0), Some(450.0));
    assert_eq!(percentile_if_reportable(&samples, 99.0), None);
    assert_eq!(percentile_if_reportable(&samples, 99.9), None);
    // The value is always one that was measured, never interpolated.
    let odd = [3.0, 1.0, 4.0, 1.5, 9.25];
    assert!(odd.contains(&percentile(&odd, 50.0)));
    assert_eq!(percentile(&odd, 100.0), 9.25);
}
