use std::fmt;

use netaddr::{Asn, Continent, CountryCode};

/// The access technology a customer line ultimately traverses.
///
/// This is the *ground truth* binary the paper's classifier estimates: a
/// connection is [`AccessType::Cellular`] iff its path crosses a cellular
/// radio link, regardless of the end device (a laptop tethered through a
/// phone is cellular; a phone on home WiFi is fixed).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessType {
    /// Path traverses a cellular radio (2G/3G/LTE…).
    Cellular,
    /// Fixed-line broadband (DSL, cable, FTTH, campus Ethernet…).
    Fixed,
}

impl AccessType {
    /// True for [`AccessType::Cellular`].
    #[inline]
    pub fn is_cellular(&self) -> bool {
        matches!(self, AccessType::Cellular)
    }
}

impl fmt::Display for AccessType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessType::Cellular => "cellular",
            AccessType::Fixed => "fixed",
        })
    }
}

/// CAIDA-style AS class labels, as used by the paper's heuristic 3
/// ("Exclude non-access ASes").
///
/// The original dataset labels ASes `Transit/Access`, `Content`, or
/// `Enterprise`; ASes absent from the dataset have no known class, which
/// the heuristic also treats as excludable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AsClass {
    /// Transit providers and access (eyeball) networks.
    TransitAccess,
    /// Content networks: CDNs, hosting, cloud platforms.
    Content,
    /// Enterprise networks.
    Enterprise,
    /// Not present in the classification dataset.
    Unknown,
}

impl AsClass {
    /// Does heuristic 3 keep an AS of this class in the cellular set?
    ///
    /// The paper filters out ASes "labeled as Content or had no known
    /// class"; Enterprise ASes survive the filter (they are simply rare in
    /// the candidate set).
    #[inline]
    pub fn passes_access_filter(&self) -> bool {
        matches!(self, AsClass::TransitAccess | AsClass::Enterprise)
    }
}

impl fmt::Display for AsClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AsClass::TransitAccess => "Transit/Access",
            AsClass::Content => "Content",
            AsClass::Enterprise => "Enterprise",
            AsClass::Unknown => "Unknown",
        })
    }
}

/// Hidden generative kind of an AS in the synthetic world.
///
/// This is ground truth that the measurement pipeline must *not* consult
/// (it does not exist for the real Internet); it drives the generator and
/// serves as the oracle for validation and shape tests.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AsKind {
    /// Offers only cellular access (may include home broadband delivered
    /// over a cellular link).
    DedicatedCellular,
    /// Offers both cellular and fixed-line access out of the same AS —
    /// the paper's "mixed networks".
    MixedAccess,
    /// Fixed-line access only.
    FixedOnly,
    /// Cloud/hosting/proxy infrastructure. Clients of connection-
    /// terminating mobile proxies surface here with cellular ConnectionType
    /// labels — the paper's AS-level false positives.
    CloudProxy,
    /// Content/CDN networks.
    ContentCdn,
    /// Enterprise network.
    Enterprise,
    /// Pure transit, no customers of its own.
    TransitOnly,
}

impl AsKind {
    /// Does the AS terminate any cellular customer traffic? (Oracle for
    /// "should the pipeline count this AS as cellular".)
    #[inline]
    pub fn is_cellular_access(&self) -> bool {
        matches!(self, AsKind::DedicatedCellular | AsKind::MixedAccess)
    }

    /// Does the AS serve end customers at all?
    #[inline]
    pub fn is_access(&self) -> bool {
        matches!(
            self,
            AsKind::DedicatedCellular | AsKind::MixedAccess | AsKind::FixedOnly
        )
    }

    /// The public CAIDA-style class this kind surfaces as. The mapping is
    /// lossy on purpose: the classifier only ever sees the [`AsClass`].
    pub fn public_class(&self) -> AsClass {
        match self {
            AsKind::DedicatedCellular | AsKind::MixedAccess | AsKind::FixedOnly => {
                AsClass::TransitAccess
            }
            AsKind::CloudProxy | AsKind::ContentCdn => AsClass::Content,
            AsKind::Enterprise => AsClass::Enterprise,
            AsKind::TransitOnly => AsClass::TransitAccess,
        }
    }
}

impl fmt::Display for AsKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AsKind::DedicatedCellular => "dedicated-cellular",
            AsKind::MixedAccess => "mixed-access",
            AsKind::FixedOnly => "fixed-only",
            AsKind::CloudProxy => "cloud-proxy",
            AsKind::ContentCdn => "content-cdn",
            AsKind::Enterprise => "enterprise",
            AsKind::TransitOnly => "transit-only",
        })
    }
}

/// One autonomous system's metadata record.
#[derive(Clone, Debug, PartialEq)]
pub struct AsRecord {
    /// The AS number.
    pub asn: Asn,
    /// Operator name (synthetic names at generation time).
    pub name: String,
    /// Registration country.
    pub country: CountryCode,
    /// Continent of the registration country.
    pub continent: Continent,
    /// Public CAIDA-style class (visible to the pipeline).
    pub class: AsClass,
    /// Hidden generative kind (oracle only — see [`AsKind`]).
    pub kind: AsKind,
}

impl AsRecord {
    /// Build a record, deriving the public class from the kind.
    pub fn new(
        asn: Asn,
        name: impl Into<String>,
        country: CountryCode,
        continent: Continent,
        kind: AsKind,
    ) -> Self {
        AsRecord {
            asn,
            name: name.into(),
            country,
            continent,
            class: kind.public_class(),
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_filter_matches_paper_heuristic() {
        assert!(AsClass::TransitAccess.passes_access_filter());
        assert!(AsClass::Enterprise.passes_access_filter());
        assert!(!AsClass::Content.passes_access_filter());
        assert!(!AsClass::Unknown.passes_access_filter());
    }

    #[test]
    fn kind_to_class_mapping_is_lossy() {
        // Both cellular and fixed access surface as the same public class —
        // this is exactly why the paper needs prefix-level classification.
        assert_eq!(
            AsKind::DedicatedCellular.public_class(),
            AsKind::FixedOnly.public_class()
        );
        assert_eq!(AsKind::CloudProxy.public_class(), AsClass::Content);
        assert_eq!(AsKind::Enterprise.public_class(), AsClass::Enterprise);
    }

    #[test]
    fn cellular_access_oracle() {
        assert!(AsKind::DedicatedCellular.is_cellular_access());
        assert!(AsKind::MixedAccess.is_cellular_access());
        for k in [
            AsKind::FixedOnly,
            AsKind::CloudProxy,
            AsKind::ContentCdn,
            AsKind::Enterprise,
            AsKind::TransitOnly,
        ] {
            assert!(!k.is_cellular_access(), "{k} should not be cellular access");
        }
    }

    #[test]
    fn record_new_derives_class() {
        let r = AsRecord::new(
            Asn(64500),
            "Test Mobile",
            CountryCode::literal("US"),
            Continent::NorthAmerica,
            AsKind::DedicatedCellular,
        );
        assert_eq!(r.class, AsClass::TransitAccess);
        assert_eq!(r.kind, AsKind::DedicatedCellular);
    }
}
