//! Network Information API adoption model (Fig. 1).
//!
//! Fig. 1 plots, per month from September 2015 to June 2017, the share of
//! RUM beacon hits that carried NetInfo data, stacked by browser. The
//! shape is a steady climb driven almost entirely by Google-developed
//! browsers (96.7% of enabled requests in December 2016), landing at
//! 13.2% in December 2016 and ~15% by June 2017.

use crate::connection::Browser;

/// One month's NetInfo-enabled share of beacon hits, by browser.
#[derive(Clone, Copy, Debug)]
pub struct MonthShare {
    /// Months since 2015-09 (0 = Sep 2015; 15 = Dec 2016; 21 = Jun 2017).
    pub month_index: u32,
    /// Share from Chrome Mobile, in percent of all beacon hits.
    pub chrome_mobile: f64,
    /// Share from Android WebKit.
    pub android_webkit: f64,
    /// Share from Firefox Mobile.
    pub firefox_mobile: f64,
    /// Share from desktop Chrome.
    pub chrome_desktop: f64,
}

impl MonthShare {
    /// Total NetInfo-enabled share for the month, percent.
    pub fn total(&self) -> f64 {
        self.chrome_mobile + self.android_webkit + self.firefox_mobile + self.chrome_desktop
    }

    /// Human-readable `YYYY-MM` for the month index.
    pub fn label(&self) -> String {
        let months_from_jan2015 = 8 + self.month_index; // Sep 2015 = 8
        let year = 2015 + months_from_jan2015 / 12;
        let month = months_from_jan2015 % 12 + 1;
        format!("{year}-{month:02}")
    }
}

/// Month index of December 2016 (the BEACON collection month).
pub const DEC_2016: u32 = 15;
/// Month index of June 2017 (Fig. 1's right edge).
pub const JUN_2017: u32 = 21;

/// NetInfo-enabled share of beacon hits for a given month index.
///
/// A saturating-growth curve calibrated so Dec 2016 ≈ 13.2% and
/// Jun 2017 ≈ 15%, starting from ≈5% in Sep 2015 (Chrome for Android had
/// shipped NetInfo a year earlier, so adoption starts non-zero).
pub fn netinfo_share(month_index: u32) -> MonthShare {
    let t = month_index as f64;
    // Logistic toward a ~16.2% ceiling, calibrated through the two points
    // the paper reports: 13.2% at Dec 2016 (t=15) and 15% at Jun 2017.
    let total = 16.2 / (1.0 + (-(t - 6.47) / 5.75).exp());
    // Browser composition: Chrome Mobile grows at WebKit's expense as
    // devices upgrade; Google browsers hold ≈96.7% of enabled hits.
    let webkit_frac = 0.30 * (1.0 - t / 30.0).max(0.15);
    let firefox_frac = 0.02;
    let desktop_frac = 0.013;
    let chrome_frac = 1.0 - webkit_frac - firefox_frac - desktop_frac;
    MonthShare {
        month_index,
        chrome_mobile: total * chrome_frac,
        android_webkit: total * webkit_frac,
        firefox_mobile: total * firefox_frac,
        chrome_desktop: total * desktop_frac,
    }
}

/// The full Fig. 1 timeline (Sep 2015 … Jun 2017).
pub fn netinfo_timeline() -> Vec<MonthShare> {
    (0..=JUN_2017).map(netinfo_share).collect()
}

/// Beacon-hit mix across browsers for a month: the probability that a
/// beacon hit comes from each browser family. NetInfo-enabled families
/// carry exactly the Fig. 1 shares; the rest splits between Safari and
/// other non-supporting browsers.
pub fn browser_mix(month_index: u32) -> Vec<(Browser, f64)> {
    let s = netinfo_share(month_index);
    let enabled = s.total() / 100.0;
    let rest = 1.0 - enabled;
    vec![
        (Browser::ChromeMobile, s.chrome_mobile / 100.0),
        (Browser::AndroidWebkit, s.android_webkit / 100.0),
        (Browser::FirefoxMobile, s.firefox_mobile / 100.0),
        (Browser::ChromeDesktop, s.chrome_desktop / 100.0),
        (Browser::SafariMobile, rest * 0.35),
        (Browser::Other, rest * 0.65),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn december_2016_matches_paper() {
        let s = netinfo_share(DEC_2016);
        assert!(
            (12.2..14.2).contains(&s.total()),
            "Dec 2016 share {:.2}% (paper: 13.2%)",
            s.total()
        );
        assert_eq!(s.label(), "2016-12");
    }

    #[test]
    fn june_2017_matches_paper() {
        let s = netinfo_share(JUN_2017);
        assert!(
            (14.0..16.0).contains(&s.total()),
            "Jun 2017 share {:.2}% (paper: 15%)",
            s.total()
        );
        assert_eq!(s.label(), "2017-06");
    }

    #[test]
    fn google_browsers_dominate() {
        let s = netinfo_share(DEC_2016);
        let google = s.chrome_mobile + s.android_webkit + s.chrome_desktop;
        assert!(
            google / s.total() > 0.95,
            "paper: 96.7% of enabled hits are Google browsers"
        );
        assert!(s.chrome_mobile > s.android_webkit);
    }

    #[test]
    fn timeline_is_monotonic() {
        let tl = netinfo_timeline();
        assert_eq!(tl.len(), 22);
        for w in tl.windows(2) {
            assert!(w[1].total() >= w[0].total(), "adoption never regresses");
        }
        assert_eq!(tl[0].label(), "2015-09");
    }

    #[test]
    fn browser_mix_sums_to_one() {
        for m in [0, DEC_2016, JUN_2017] {
            let mix = browser_mix(m);
            let total: f64 = mix.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9, "month {m}: mix sums to {total}");
            assert!(mix.iter().all(|(_, p)| *p >= 0.0));
        }
    }
}
