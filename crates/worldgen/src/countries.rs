//! Country calibration table.
//!
//! Every country the paper's figures name carries explicit anchors: its
//! share of global cellular demand (Fig. 11), the cellular fraction of its
//! own demand (Fig. 12 — e.g. Ghana 0.959, Laos 0.871, Indonesia 0.63,
//! US 0.166, France 0.121), the number of cellular ASes it hosts at paper
//! scale (so Table 6's continental counts come out right), its IPv6
//! cellular deployment (Table 4 / §4.3), and typical public-DNS adoption
//! for its operators (Fig. 10).
//!
//! The real Internet has ~180 countries with at least one cellular AS; we
//! name the ~70 that the paper's figures reference and top up each
//! continent with synthetic "filler" countries (ISO user-assigned-style
//! codes) so per-continent totals and averages match Table 6.

use netaddr::{Continent, CountryCode};

/// Calibration anchors for one named country.
#[derive(Clone, Copy, Debug)]
pub struct CountryAnchor {
    /// ISO-style alpha-2 code.
    pub code: &'static str,
    /// Continent.
    pub continent: Continent,
    /// Share of *global cellular* demand, in percent (Fig. 11). The named
    /// table sums to ≈99.8 matching the paper's per-continent totals.
    pub cell_share: f64,
    /// Cellular fraction of the country's own demand (Fig. 12), in \[0,1\].
    pub cfd: f64,
    /// Number of genuine cellular access ASes at paper scale (dedicated +
    /// mixed), per Table 6's continental sums.
    pub cell_ases: u32,
    /// How many of those deploy IPv6 in their cellular section (§4.3:
    /// 52 ASes across ~24 countries globally).
    pub v6_cell_ases: u32,
    /// Mean public-DNS adoption for operators in this country (Fig. 10).
    pub public_dns: f64,
}

const fn c(
    code: &'static str,
    continent: Continent,
    cell_share: f64,
    cfd: f64,
    cell_ases: u32,
    v6_cell_ases: u32,
    public_dns: f64,
) -> CountryAnchor {
    CountryAnchor {
        code,
        continent,
        cell_share,
        cfd,
        cell_ases,
        v6_cell_ases,
        public_dns,
    }
}

use Continent::*;

/// The named-country calibration table. See the module docs for the
/// provenance of each column.
pub const NAMED_COUNTRIES: &[CountryAnchor] = &[
    // --- North America (Table 8: 35% of global cellular; Fig. 11 top-10) ---
    c("US", NorthAmerica, 30.50, 0.166, 40, 5, 0.015),
    c("CA", NorthAmerica, 1.80, 0.100, 8, 2, 0.030),
    c("MX", NorthAmerica, 1.20, 0.250, 7, 0, 0.120),
    c("GT", NorthAmerica, 0.35, 0.450, 3, 0, 0.200),
    c("PR", NorthAmerica, 0.30, 0.350, 2, 0, 0.050),
    c("PA", NorthAmerica, 0.25, 0.400, 2, 0, 0.200),
    c("DO", NorthAmerica, 0.20, 0.450, 3, 0, 0.250),
    c("CR", NorthAmerica, 0.15, 0.350, 2, 0, 0.200),
    c("SV", NorthAmerica, 0.13, 0.500, 2, 0, 0.250),
    c("HN", NorthAmerica, 0.12, 0.550, 2, 0, 0.250),
    // --- Europe (15.9%; France anchored at 0.121) ---
    c("GB", Europe, 3.20, 0.100, 12, 2, 0.040),
    c("RU", Europe, 2.80, 0.110, 29, 0, 0.080),
    c("FR", Europe, 2.00, 0.121, 8, 1, 0.040),
    c("DE", Europe, 1.90, 0.085, 10, 2, 0.040),
    c("IT", Europe, 1.50, 0.140, 9, 0, 0.050),
    c("ES", Europe, 1.20, 0.120, 7, 0, 0.050),
    c("PL", Europe, 0.90, 0.130, 7, 1, 0.060),
    c("FI", Europe, 0.80, 0.350, 5, 1, 0.030),
    c("NL", Europe, 0.70, 0.080, 6, 1, 0.030),
    c("SE", Europe, 0.60, 0.110, 6, 1, 0.030),
    c("CH", Europe, 0.15, 0.090, 4, 1, 0.030),
    c("NO", Europe, 0.15, 0.100, 4, 0, 0.030),
    // --- South America (4.1%; Bolivia on the Fig. 12 frontier) ---
    c("BR", SouthAmerica, 1.60, 0.120, 10, 6, 0.300),
    c("CO", SouthAmerica, 0.60, 0.140, 5, 0, 0.250),
    c("AR", SouthAmerica, 0.50, 0.120, 6, 0, 0.200),
    c("BO", SouthAmerica, 0.35, 0.450, 3, 0, 0.250),
    c("EC", SouthAmerica, 0.30, 0.200, 3, 1, 0.250),
    c("CL", SouthAmerica, 0.25, 0.120, 5, 0, 0.150),
    c("VE", SouthAmerica, 0.20, 0.250, 4, 0, 0.300),
    c("PE", SouthAmerica, 0.15, 0.200, 4, 1, 0.250),
    c("UY", SouthAmerica, 0.08, 0.150, 2, 0, 0.150),
    c("PY", SouthAmerica, 0.07, 0.300, 2, 0, 0.250),
    // --- Africa (2.9%; Ghana anchored at 0.959) ---
    c("EG", Africa, 0.70, 0.220, 10, 1, 0.300),
    c("ZA", Africa, 0.50, 0.180, 8, 1, 0.200),
    c("DZ", Africa, 0.35, 0.300, 4, 0, 0.970),
    c("TN", Africa, 0.25, 0.250, 4, 0, 0.300),
    c("NG", Africa, 0.25, 0.700, 7, 0, 0.450),
    c("GH", Africa, 0.20, 0.959, 4, 0, 0.400),
    c("CI", Africa, 0.15, 0.600, 3, 0, 0.350),
    c("CM", Africa, 0.15, 0.650, 3, 0, 0.350),
    c("MA", Africa, 0.20, 0.220, 5, 0, 0.300),
    c("GN", Africa, 0.15, 0.700, 2, 0, 0.400),
    // --- Asia (38.9% excl. China; Laos 0.871, Indonesia 0.63) ---
    c("IN", Asia, 9.00, 0.280, 13, 4, 0.400),
    c("JP", Asia, 8.00, 0.200, 17, 5, 0.020),
    c("ID", Asia, 4.70, 0.630, 12, 1, 0.300),
    c("KR", Asia, 3.20, 0.180, 8, 2, 0.050),
    c("TW", Asia, 2.40, 0.220, 7, 1, 0.100),
    c("TH", Asia, 2.40, 0.350, 9, 1, 0.250),
    c("AE", Asia, 1.60, 0.750, 5, 1, 0.200),
    c("IR", Asia, 1.50, 0.500, 11, 0, 0.300),
    c("TR", Asia, 1.40, 0.280, 10, 0, 0.150),
    c("SG", Asia, 1.20, 0.220, 4, 1, 0.100),
    c("VN", Asia, 0.80, 0.550, 9, 0, 0.350),
    c("HK", Asia, 0.60, 0.400, 8, 0, 0.570),
    c("PH", Asia, 0.60, 0.650, 8, 0, 0.300),
    c("SA", Asia, 0.50, 0.450, 5, 0, 0.300),
    c("MY", Asia, 0.40, 0.500, 7, 1, 0.250),
    c("MM", Asia, 0.35, 0.800, 4, 5, 0.350),
    c("LA", Asia, 0.25, 0.871, 3, 0, 0.350),
    // --- Oceania (3.0%; Fiji on the Fig. 12 frontier) ---
    c("AU", Oceania, 2.00, 0.220, 4, 2, 0.040),
    c("NZ", Oceania, 0.45, 0.200, 3, 1, 0.040),
    c("FJ", Oceania, 0.15, 0.800, 2, 0, 0.200),
    c("GU", Oceania, 0.10, 0.450, 1, 0, 0.100),
    c("NC", Oceania, 0.08, 0.500, 1, 0, 0.150),
    c("WS", Oceania, 0.06, 0.750, 1, 0, 0.250),
    c("PF", Oceania, 0.06, 0.550, 1, 0, 0.150),
    c("PG", Oceania, 0.04, 0.850, 1, 0, 0.300),
    c("TL", Oceania, 0.03, 0.850, 1, 0, 0.300),
    c("SB", Oceania, 0.03, 0.850, 1, 0, 0.300),
];

/// Per-continent generation targets derived from the paper's tables.
#[derive(Clone, Copy, Debug)]
pub struct ContinentTargets {
    /// Cellular /24 blocks (Table 4).
    pub cell24: u64,
    /// Cellular /48 blocks (Table 4).
    pub cell48: u64,
    /// Active /24 blocks observed in BEACON (cell24 / Table 4's "% active").
    pub active24: u64,
    /// Active /48 blocks observed in BEACON.
    pub active48: u64,
    /// Fraction of the continent's cellular ASes that are mixed (§6.1).
    pub mixed_fraction: f64,
    /// Filler countries to synthesize beyond the named ones, so Table 6's
    /// "average cellular ASes per country" works out.
    pub filler_countries: u32,
    /// Total cellular ASes across filler countries.
    pub filler_cell_ases: u32,
}

/// Continent targets in `netaddr::CONTINENTS` order (AF, AS, EU, NA, OC, SA).
pub const CONTINENT_TARGETS: [ContinentTargets; 6] = [
    // Africa: 79,091 cellular /24 = 53.2% of active; 28 /48 = 2.0%.
    ContinentTargets {
        cell24: 79_091,
        cell48: 28,
        active24: 148_667,
        active48: 1_400,
        mixed_fraction: 0.51,
        filler_countries: 34,
        filler_cell_ases: 64,
    },
    // Asia: 86,618 /24 = 5.7%; 4,613 /48 = 0.5%.
    ContinentTargets {
        cell24: 86_618,
        cell48: 4_613,
        active24: 1_519_614,
        active48: 922_600,
        mixed_fraction: 0.53,
        filler_countries: 30,
        filler_cell_ases: 73,
    },
    // Europe: 65,442 /24 = 4.8%; 2,117 /48 = 0.3%.
    ContinentTargets {
        cell24: 65_442,
        cell48: 2_117,
        active24: 1_363_375,
        active48: 705_667,
        mixed_fraction: 0.61,
        filler_countries: 32,
        filler_cell_ases: 78,
    },
    // North America: 27,595 /24 = 2.1%; 16,166 /48 = 9.9%.
    ContinentTargets {
        cell24: 27_595,
        cell48: 16_166,
        active24: 1_314_048,
        active48: 163_293,
        mixed_fraction: 0.69,
        filler_countries: 14,
        filler_cell_ases: 22,
    },
    // Oceania: 4,352 /24 = 5.4%; 35 /48 = 0.07%.
    ContinentTargets {
        cell24: 4_352,
        cell48: 35,
        active24: 80_593,
        active48: 50_000,
        mixed_fraction: 0.56,
        filler_countries: 0,
        filler_cell_ases: 0,
    },
    // South America: 87,589 /24 = 22.6%; 271 /48 = 0.9%.
    ContinentTargets {
        cell24: 87_589,
        cell48: 271,
        active24: 387_562,
        active48: 30_111,
        mixed_fraction: 0.71,
        filler_countries: 2,
        filler_cell_ases: 4,
    },
];

/// Targets for a continent.
pub fn continent_targets(continent: Continent) -> &'static ContinentTargets {
    &CONTINENT_TARGETS[continent.index()]
}

/// A resolved country in the generated world: either a named anchor or a
/// synthesized filler.
#[derive(Clone, Debug)]
pub struct CountrySpec {
    /// The country code (named or synthetic filler code).
    pub code: CountryCode,
    /// Continent.
    pub continent: Continent,
    /// Share of global cellular demand, percent.
    pub cell_share: f64,
    /// Cellular fraction of the country's own demand.
    pub cfd: f64,
    /// Cellular access ASes at paper scale.
    pub cell_ases: u32,
    /// IPv6-deploying cellular ASes among them.
    pub v6_cell_ases: u32,
    /// Mean public-DNS adoption.
    pub public_dns: f64,
    /// True for synthesized filler countries.
    pub filler: bool,
}

/// Cellular-demand share given to each filler country (percent of global
/// cellular demand). Small enough that named-country anchors dominate every
/// aggregate, non-zero so filler operators survive activity floors.
pub const FILLER_CELL_SHARE: f64 = 0.006;

/// Build the full country list: the named anchors plus per-continent
/// fillers with synthetic codes (AA, AB, … skipping codes already named).
pub fn build_countries() -> Vec<CountrySpec> {
    let mut out: Vec<CountrySpec> = NAMED_COUNTRIES
        .iter()
        .map(|a| CountrySpec {
            code: CountryCode::literal(a.code),
            continent: a.continent,
            cell_share: a.cell_share,
            cfd: a.cfd,
            cell_ases: a.cell_ases,
            v6_cell_ases: a.v6_cell_ases,
            public_dns: a.public_dns,
            filler: false,
        })
        .collect();

    let named: std::collections::HashSet<&str> = NAMED_COUNTRIES.iter().map(|a| a.code).collect();
    let mut synth = synthetic_codes(named);

    for (ci, targets) in CONTINENT_TARGETS.iter().enumerate() {
        let continent = netaddr::CONTINENTS[ci];
        let n = targets.filler_countries as usize;
        if n == 0 {
            continue;
        }
        // Spread the filler AS budget as evenly as integer division allows.
        let total = targets.filler_cell_ases;
        for i in 0..n {
            let ases = (total as usize * (i + 1) / n - total as usize * i / n) as u32;
            out.push(CountrySpec {
                code: synth.next().expect("synthetic code space is ample"),
                continent,
                cell_share: FILLER_CELL_SHARE,
                cfd: 0.5,
                cell_ases: ases.max(1),
                v6_cell_ases: 0,
                public_dns: default_public_dns(continent),
                filler: true,
            });
        }
    }
    out
}

/// Default public-DNS adoption for operators without a named anchor.
pub fn default_public_dns(continent: Continent) -> f64 {
    match continent {
        Continent::NorthAmerica => 0.02,
        Continent::Europe => 0.05,
        Continent::Asia => 0.25,
        Continent::Africa => 0.35,
        Continent::SouthAmerica => 0.25,
        Continent::Oceania => 0.05,
    }
}

/// Infinite-ish iterator over synthetic alpha-2 codes, skipping named ones.
fn synthetic_codes(
    named: std::collections::HashSet<&'static str>,
) -> impl Iterator<Item = CountryCode> {
    (0..26 * 26).filter_map(move |k| {
        let a = (b'A' + (k / 26) as u8) as char;
        let b = (b'A' + (k % 26) as u8) as char;
        let code: String = [a, b].iter().collect();
        if named.contains(code.as_str()) {
            None
        } else {
            Some(CountryCode::literal(&code))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_shares_sum_to_paper_continent_totals() {
        // Table 8 column 2: AF 2.9, AS 38.9, EU 15.9, NA 35, OC 3.0, SA 4.1.
        let expect = [2.9, 38.9, 15.9, 35.0, 3.0, 4.1];
        for (ci, want) in expect.iter().enumerate() {
            let cont = netaddr::CONTINENTS[ci];
            let sum: f64 = NAMED_COUNTRIES
                .iter()
                .filter(|a| a.continent == cont)
                .map(|a| a.cell_share)
                .sum();
            assert!(
                (sum - want).abs() < 0.05,
                "{cont}: named cell_share sums to {sum}, paper says {want}"
            );
        }
    }

    #[test]
    fn paper_figure12_anchors_present() {
        let find = |code: &str| {
            NAMED_COUNTRIES
                .iter()
                .find(|a| a.code == code)
                .unwrap_or_else(|| panic!("{code} missing"))
        };
        assert!((find("GH").cfd - 0.959).abs() < 1e-9);
        assert!((find("LA").cfd - 0.871).abs() < 1e-9);
        assert!((find("ID").cfd - 0.63).abs() < 1e-9);
        assert!((find("US").cfd - 0.166).abs() < 1e-9);
        assert!((find("FR").cfd - 0.121).abs() < 1e-9);
    }

    #[test]
    fn cellular_as_counts_match_table6() {
        // Table 6: AF 114, AS 213, EU 185, NA 93, OC 16, SA 48.
        let expect = [114u32, 213, 185, 93, 16, 48];
        let countries = build_countries();
        for (ci, want) in expect.iter().enumerate() {
            let cont = netaddr::CONTINENTS[ci];
            let sum: u32 = countries
                .iter()
                .filter(|c| c.continent == cont)
                .map(|c| c.cell_ases)
                .sum();
            assert_eq!(sum, *want, "{cont}");
        }
        let total: u32 = countries.iter().map(|c| c.cell_ases).sum();
        assert_eq!(total, 669); // paper's 668 is the post-filter count; ±1
    }

    #[test]
    fn v6_deployment_matches_section_4_3() {
        let countries = build_countries();
        let total: u32 = countries.iter().map(|c| c.v6_cell_ases).sum();
        assert_eq!(total, 52, "§4.3: 52 IPv6 cellular ASes");
        let n_countries = countries.iter().filter(|c| c.v6_cell_ases > 0).count();
        assert!(
            (20..=30).contains(&n_countries),
            "§4.3 says ~24 countries, got {n_countries}"
        );
        // Brazil leads, then MM/US/JP with 5 each.
        let find = |code: &str| {
            countries
                .iter()
                .find(|c| c.code.as_str() == code)
                .unwrap()
                .v6_cell_ases
        };
        assert_eq!(find("BR"), 6);
        assert_eq!(find("US"), 5);
        assert_eq!(find("MM"), 5);
        assert_eq!(find("JP"), 5);
    }

    #[test]
    fn filler_codes_are_unique_and_disjoint_from_named() {
        let countries = build_countries();
        let mut codes: Vec<&str> = countries.iter().map(|c| c.code.as_str()).collect();
        let before = codes.len();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), before, "duplicate country code generated");
    }

    #[test]
    fn continent_block_targets_match_table4() {
        let total24: u64 = CONTINENT_TARGETS.iter().map(|t| t.cell24).sum();
        let total48: u64 = CONTINENT_TARGETS.iter().map(|t| t.cell48).sum();
        assert_eq!(total24, 350_687, "Table 4 total cellular /24");
        assert_eq!(total48, 23_230, "Table 4 total cellular /48");
        // Active space ≈ BEACON dataset sizes (Table 2).
        let active24: u64 = CONTINENT_TARGETS.iter().map(|t| t.active24).sum();
        let active48: u64 = CONTINENT_TARGETS.iter().map(|t| t.active48).sum();
        assert!((4_500_000..5_100_000).contains(&active24), "{active24}");
        assert!((1_600_000..2_000_000).contains(&active48), "{active48}");
    }

    #[test]
    fn cfd_anchors_reproduce_continent_ordering() {
        // Weighted continent cellular fraction must order like Table 8:
        // AS ≳ AF > OC > NA > SA > EU.
        let mut frac = [0.0f64; 6];
        for (ci, cont) in netaddr::CONTINENTS.iter().enumerate() {
            let (cell, total): (f64, f64) = NAMED_COUNTRIES
                .iter()
                .filter(|a| a.continent == *cont)
                .fold((0.0, 0.0), |(c, t), a| {
                    (c + a.cell_share, t + a.cell_share / a.cfd)
                });
            frac[ci] = cell / total;
        }
        let af = frac[0];
        let asia = frac[1];
        let eu = frac[2];
        let na = frac[3];
        let oc = frac[4];
        let sa = frac[5];
        assert!(asia > na && af > na, "Asia/Africa above North America");
        assert!(oc > na, "Oceania above North America");
        assert!(na > sa && sa > eu, "NA > SA > EU");
    }
}
