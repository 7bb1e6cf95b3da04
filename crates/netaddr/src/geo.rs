use std::fmt;
use std::str::FromStr;

use crate::error::NetAddrError;

/// The six populated continents, as used by the paper's per-continent
/// rollups (Table 4, Table 6, Table 8).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Continent {
    /// Africa (AF).
    Africa,
    /// Asia (AS).
    Asia,
    /// Europe (EU).
    Europe,
    /// North America (NA).
    NorthAmerica,
    /// Oceania (OC).
    Oceania,
    /// South America (SA).
    SouthAmerica,
}

/// All continents in the paper's table order (alphabetical by code).
pub const CONTINENTS: [Continent; 6] = [
    Continent::Africa,
    Continent::Asia,
    Continent::Europe,
    Continent::NorthAmerica,
    Continent::Oceania,
    Continent::SouthAmerica,
];

impl Continent {
    /// Two-letter continent code as used in the paper's Table 6.
    pub fn code(&self) -> &'static str {
        match self {
            Continent::Africa => "AF",
            Continent::Asia => "AS",
            Continent::Europe => "EU",
            Continent::NorthAmerica => "NA",
            Continent::Oceania => "OC",
            Continent::SouthAmerica => "SA",
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Continent::Africa => "Africa",
            Continent::Asia => "Asia",
            Continent::Europe => "Europe",
            Continent::NorthAmerica => "North America",
            Continent::Oceania => "Oceania",
            Continent::SouthAmerica => "South America",
        }
    }

    /// Dense index in `CONTINENTS` order, usable for per-continent arrays.
    pub fn index(&self) -> usize {
        match self {
            Continent::Africa => 0,
            Continent::Asia => 1,
            Continent::Europe => 2,
            Continent::NorthAmerica => 3,
            Continent::Oceania => 4,
            Continent::SouthAmerica => 5,
        }
    }
}

impl fmt::Display for Continent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// ITU mobile-cellular subscriptions in millions per continent, as reported
/// in the paper's Table 8 (all mobile subscriptions including voice; the
/// Asia figure excludes China, matching the paper's exclusion of Chinese
/// demand data).
pub fn ituc_subscribers_millions(continent: Continent) -> f64 {
    match continent {
        Continent::Oceania => 43.3,
        Continent::Africa => 954.0,
        Continent::SouthAmerica => 499.0,
        Continent::Europe => 968.0,
        Continent::NorthAmerica => 594.0,
        Continent::Asia => 2766.0,
    }
}

/// An ISO 3166-1 alpha-2 country code, stored inline as two ASCII
/// uppercase bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryCode([u8; 2]);

impl CountryCode {
    /// Build from two ASCII letters; lowercase input is uppercased.
    pub fn new(s: &str) -> Result<Self, NetAddrError> {
        let bytes = s.as_bytes();
        if bytes.len() != 2 || !bytes.iter().all(|b| b.is_ascii_alphabetic()) {
            return Err(NetAddrError::BadCountryCode(s.to_string()));
        }
        Ok(CountryCode([
            bytes[0].to_ascii_uppercase(),
            bytes[1].to_ascii_uppercase(),
        ]))
    }

    /// Infallible constructor for string literals known to be valid;
    /// panics on invalid input (used for static tables).
    pub fn literal(s: &str) -> Self {
        Self::new(s).expect("invalid country code literal")
    }

    /// The code as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("country codes are always ASCII")
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for CountryCode {
    type Err = NetAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CountryCode::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continent_codes_and_indices_are_distinct() {
        let codes: Vec<_> = CONTINENTS.iter().map(|c| c.code()).collect();
        let mut dedup = codes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 6);
        for (i, c) in CONTINENTS.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn subscriber_totals_match_paper_table8() {
        let total: f64 = CONTINENTS
            .iter()
            .map(|c| ituc_subscribers_millions(*c))
            .sum();
        assert!((total - 5824.3).abs() < 1.0, "paper total is 5,825M (≈)");
    }

    #[test]
    fn country_code_normalizes_case() {
        assert_eq!(CountryCode::new("us").unwrap().as_str(), "US");
        assert_eq!("gh".parse::<CountryCode>().unwrap().as_str(), "GH");
    }

    #[test]
    fn country_code_rejects_bad_input() {
        for s in ["", "U", "USA", "U1", "  "] {
            assert!(CountryCode::new(s).is_err(), "accepted {s:?}");
        }
    }
}
