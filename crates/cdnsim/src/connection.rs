use std::fmt;

/// The `ConnectionType` enumeration exposed by the Network Information
/// API (§3.1): the browser's view of the active network interface.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConnectionType {
    /// Cellular radio (2G/3G/LTE).
    Cellular,
    /// WiFi — including tethered devices whose upstream is cellular, which
    /// is the API's dominant mislabeling mode.
    Wifi,
    /// Wired Ethernet.
    Ethernet,
    /// Bluetooth PAN.
    Bluetooth,
    /// WiMAX (rare).
    Wimax,
    /// The API reported `unknown`.
    Unknown,
}

impl ConnectionType {
    /// True for [`ConnectionType::Cellular`] — the only label the paper's
    /// classifier counts toward the cellular ratio.
    #[inline]
    pub fn is_cellular(&self) -> bool {
        matches!(self, ConnectionType::Cellular)
    }
}

impl fmt::Display for ConnectionType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConnectionType::Cellular => "cellular",
            ConnectionType::Wifi => "wifi",
            ConnectionType::Ethernet => "ethernet",
            ConnectionType::Bluetooth => "bluetooth",
            ConnectionType::Wimax => "wimax",
            ConnectionType::Unknown => "unknown",
        })
    }
}

/// Browser families relevant to Network Information API availability
/// (Fig. 1: Chrome Mobile and Android WebKit dominate enabled hits).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Browser {
    /// Chrome for Android (NetInfo since v38, Oct 2014).
    ChromeMobile,
    /// The legacy native Android WebKit browser.
    AndroidWebkit,
    /// Firefox Mobile.
    FirefoxMobile,
    /// Desktop Chrome (NetInfo-enabled, small share of mobile networks).
    ChromeDesktop,
    /// Mobile Safari — no NetInfo support at collection time.
    SafariMobile,
    /// Everything else without NetInfo support.
    Other,
}

/// All browser families, for iteration in reports.
pub const BROWSERS: [Browser; 6] = [
    Browser::ChromeMobile,
    Browser::AndroidWebkit,
    Browser::FirefoxMobile,
    Browser::ChromeDesktop,
    Browser::SafariMobile,
    Browser::Other,
];

impl Browser {
    /// Whether this browser implements the Network Information API.
    pub fn supports_netinfo(&self) -> bool {
        matches!(
            self,
            Browser::ChromeMobile
                | Browser::AndroidWebkit
                | Browser::FirefoxMobile
                | Browser::ChromeDesktop
        )
    }

    /// Short label used in figure series.
    pub fn label(&self) -> &'static str {
        match self {
            Browser::ChromeMobile => "Chrome Mobile",
            Browser::AndroidWebkit => "Android Webkit",
            Browser::FirefoxMobile => "Firefox Mobile",
            Browser::ChromeDesktop => "Chrome",
            Browser::SafariMobile => "Mobile Safari",
            Browser::Other => "Other",
        }
    }
}

impl fmt::Display for Browser {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_cellular_counts() {
        assert!(ConnectionType::Cellular.is_cellular());
        for c in [
            ConnectionType::Wifi,
            ConnectionType::Ethernet,
            ConnectionType::Bluetooth,
            ConnectionType::Wimax,
            ConnectionType::Unknown,
        ] {
            assert!(!c.is_cellular());
        }
    }

    #[test]
    fn netinfo_support_matches_fig1() {
        assert!(Browser::ChromeMobile.supports_netinfo());
        assert!(Browser::AndroidWebkit.supports_netinfo());
        assert!(!Browser::SafariMobile.supports_netinfo());
        assert!(!Browser::Other.supports_netinfo());
    }
}
