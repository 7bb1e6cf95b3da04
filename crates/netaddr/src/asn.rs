use std::fmt;
use std::str::FromStr;

use crate::error::NetAddrError;

/// An autonomous system number.
///
/// 32-bit per RFC 6793. Displayed as `AS15169`; parsing accepts both the
/// prefixed (`AS15169`) and bare (`15169`) forms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl Asn {
    /// The raw number.
    #[inline]
    pub fn value(&self) -> u32 {
        self.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

impl FromStr for Asn {
    type Err = NetAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .unwrap_or(s);
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|_| NetAddrError::Parse(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse() {
        assert_eq!(Asn(15169).to_string(), "AS15169");
        assert_eq!("AS15169".parse::<Asn>().unwrap(), Asn(15169));
        assert_eq!("as7018".parse::<Asn>().unwrap(), Asn(7018));
        assert_eq!("701".parse::<Asn>().unwrap(), Asn(701));
        assert!("ASfoo".parse::<Asn>().is_err());
        assert!("".parse::<Asn>().is_err());
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Asn(9) < Asn(10));
        assert!(Asn(65535) < Asn(4200000000));
    }
}
