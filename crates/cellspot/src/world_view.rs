//! Geographic rollups: Table 4 (cellular subnets by continent), Table 6
//! (cellular ASes by continent), Table 8 (continental demand statistics)
//! and the country-level views of Fig. 11 and Fig. 12.

use std::collections::HashMap;

use asdb::AsDatabase;
use netaddr::{ituc_subscribers_millions, Asn, Continent, CountryCode, CONTINENTS};

use crate::classify::Classification;
use crate::index::BlockIndex;

/// One continent's Table 4 row.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ContinentSubnets {
    /// Cellular /24 blocks detected.
    pub cell24: usize,
    /// Cellular /48 blocks detected.
    pub cell48: usize,
    /// Active (observed) /24 blocks.
    pub active24: usize,
    /// Active /48 blocks.
    pub active48: usize,
}

impl ContinentSubnets {
    /// Percent of active IPv4 space that is cellular.
    pub fn pct_active_v4(&self) -> f64 {
        if self.active24 > 0 {
            100.0 * self.cell24 as f64 / self.active24 as f64
        } else {
            0.0
        }
    }

    /// Percent of active IPv6 space that is cellular.
    pub fn pct_active_v6(&self) -> f64 {
        if self.active48 > 0 {
            100.0 * self.cell48 as f64 / self.active48 as f64
        } else {
            0.0
        }
    }
}

/// One continent's Table 8 row.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ContinentDemand {
    /// Cellular DU.
    pub cell_du: f64,
    /// Total DU.
    pub total_du: f64,
}

impl ContinentDemand {
    /// Percent of the continent's demand that is cellular (col. 1).
    pub fn cellular_fraction_pct(&self) -> f64 {
        if self.total_du > 0.0 {
            100.0 * self.cell_du / self.total_du
        } else {
            0.0
        }
    }
}

/// One country's rollup (Fig. 11 / Fig. 12).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CountryDemand {
    /// Cellular DU.
    pub cell_du: f64,
    /// Total DU.
    pub total_du: f64,
    /// Continent (for per-continent top-10 lists).
    pub continent: Option<Continent>,
}

impl CountryDemand {
    /// Cellular fraction of the country's demand (Fig. 12's x-axis).
    pub fn cfd(&self) -> f64 {
        if self.total_du > 0.0 {
            self.cell_du / self.total_du
        } else {
            0.0
        }
    }
}

/// The geographic rollup of a classified world.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldView {
    /// Table 4 rows, indexed in `CONTINENTS` order.
    pub subnets: [ContinentSubnets; 6],
    /// Table 8 rows, indexed in `CONTINENTS` order.
    pub demand: [ContinentDemand; 6],
    /// Country rollups.
    pub countries: HashMap<CountryCode, CountryDemand>,
    /// Global cellular DU.
    pub global_cell_du: f64,
    /// Global total DU.
    pub global_total_du: f64,
}

impl WorldView {
    /// Roll up the joined index by geography. Blocks whose AS is missing
    /// from the database are skipped (they cannot be geolocated).
    pub fn build(index: &BlockIndex, classification: &Classification, as_db: &AsDatabase) -> Self {
        // Pre-resolve ASN → (continent, country) once.
        let mut geo: HashMap<Asn, (Continent, CountryCode)> = HashMap::new();
        for r in as_db.iter() {
            geo.insert(r.asn, (r.continent, r.country));
        }

        let mut subnets = [ContinentSubnets::default(); 6];
        let mut demand = [ContinentDemand::default(); 6];
        let mut countries: HashMap<CountryCode, CountryDemand> = HashMap::new();
        let mut global_cell = 0.0;
        let mut global_total = 0.0;

        for o in index.iter() {
            let Some(&(continent, country)) = geo.get(&o.asn) else {
                continue;
            };
            let ci = continent.index();
            let is_cell = classification.is_cellular(o.block);
            // Table 4 counts "active" space as blocks with beacons (the
            // BEACON dataset is the denominator for "% active").
            if o.beacon_hits > 0 {
                if o.block.is_v4() {
                    subnets[ci].active24 += 1;
                } else {
                    subnets[ci].active48 += 1;
                }
            }
            if is_cell {
                if o.block.is_v4() {
                    subnets[ci].cell24 += 1;
                } else {
                    subnets[ci].cell48 += 1;
                }
            }
            demand[ci].total_du += o.du;
            global_total += o.du;
            let c = countries.entry(country).or_default();
            c.total_du += o.du;
            c.continent = Some(continent);
            if is_cell {
                demand[ci].cell_du += o.du;
                global_cell += o.du;
                c.cell_du += o.du;
            }
        }

        WorldView {
            subnets,
            demand,
            countries,
            global_cell_du: global_cell,
            global_total_du: global_total,
        }
    }

    /// Global percent of demand that is cellular (paper: 16.2%).
    pub fn global_cellular_pct(&self) -> f64 {
        if self.global_total_du > 0.0 {
            100.0 * self.global_cell_du / self.global_total_du
        } else {
            0.0
        }
    }

    /// Table 8 column 2: percent of global cellular demand per continent.
    pub fn continent_cell_share_pct(&self, continent: Continent) -> f64 {
        if self.global_cell_du > 0.0 {
            100.0 * self.demand[continent.index()].cell_du / self.global_cell_du
        } else {
            0.0
        }
    }

    /// Table 8 column 4: cellular DU per 1,000 subscribers (the paper
    /// divides each continent's cellular demand by its ITU subscriber
    /// count).
    pub fn demand_per_1000_subscribers(&self, continent: Continent) -> f64 {
        let subs_thousands = ituc_subscribers_millions(continent) * 1_000.0;
        if subs_thousands > 0.0 {
            self.demand[continent.index()].cell_du / subs_thousands
        } else {
            0.0
        }
    }

    /// Fig. 11: the top-k countries of a continent by share of *global*
    /// cellular demand, as `(country, share)` with share in \[0,1\].
    pub fn top_countries(&self, continent: Continent, k: usize) -> Vec<(CountryCode, f64)> {
        let mut rows: Vec<(CountryCode, f64)> = self
            .countries
            .iter()
            .filter(|(_, c)| c.continent == Some(continent))
            .map(|(code, c)| {
                (
                    *code,
                    if self.global_cell_du > 0.0 {
                        c.cell_du / self.global_cell_du
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("shares are finite"));
        rows.truncate(k);
        rows
    }

    /// Fig. 12: every country as `(code, cfd, cellular DU)`.
    pub fn country_scatter(&self) -> Vec<(CountryCode, f64, f64)> {
        let mut rows: Vec<(CountryCode, f64, f64)> = self
            .countries
            .iter()
            .filter(|(_, c)| c.total_du > 0.0)
            .map(|(code, c)| (*code, c.cfd(), c.cell_du))
            .collect();
        rows.sort_by_key(|(code, _, _)| *code);
        rows
    }

    /// Cellular AS counts per continent (Table 6), given the final AS set.
    pub fn table6(cellular_ases: &[Asn], as_db: &AsDatabase) -> ([usize; 6], [f64; 6]) {
        let mut counts = [0usize; 6];
        let mut countries: [std::collections::HashSet<CountryCode>; 6] = Default::default();
        for asn in cellular_ases {
            if let Some(r) = as_db.get(*asn) {
                let ci = r.continent.index();
                counts[ci] += 1;
                countries[ci].insert(r.country);
            }
        }
        let mut avg = [0.0f64; 6];
        for (i, set) in countries.iter().enumerate() {
            if !set.is_empty() {
                avg[i] = counts[i] as f64 / set.len() as f64;
            }
        }
        (counts, avg)
    }
}

/// Convenience: continents with their Table 4 and Table 8 rows zipped for
/// rendering.
pub fn continent_rows(view: &WorldView) -> Vec<(Continent, ContinentSubnets, ContinentDemand)> {
    CONTINENTS
        .iter()
        .map(|c| (*c, view.subnets[c.index()], view.demand[c.index()]))
        .collect()
}

/// §4.3's IPv6 deployment findings: how many cellular ASes expose IPv6
/// cellular space, across how many countries, and which countries lead.
#[derive(Clone, Debug)]
pub struct V6Deployment {
    /// Cellular ASes with at least one cellular /48 detected.
    pub v6_ases: usize,
    /// Size of the cellular AS set examined.
    pub cellular_ases: usize,
    /// Countries hosting at least one IPv6-cellular AS.
    pub countries: usize,
    /// Countries ranked by IPv6-cellular AS count, descending.
    pub top_countries: Vec<(CountryCode, usize)>,
}

impl V6Deployment {
    /// Fraction of cellular ASes deploying IPv6 (paper: 52/668 = 7.7%).
    pub fn fraction(&self) -> f64 {
        if self.cellular_ases > 0 {
            self.v6_ases as f64 / self.cellular_ases as f64
        } else {
            0.0
        }
    }
}

/// Measure IPv6 cellular deployment over the identified cellular AS set.
pub fn v6_deployment(
    cellular_ases: &[Asn],
    index: &BlockIndex,
    classification: &Classification,
    as_db: &AsDatabase,
) -> V6Deployment {
    let cell_set: std::collections::HashSet<Asn> = cellular_ases.iter().copied().collect();
    let mut v6_ases: std::collections::HashSet<Asn> = Default::default();
    for o in index.iter() {
        if o.block.is_v6() && cell_set.contains(&o.asn) && classification.is_cellular(o.block) {
            v6_ases.insert(o.asn);
        }
    }
    let mut per_country: HashMap<CountryCode, usize> = HashMap::new();
    for asn in &v6_ases {
        if let Some(r) = as_db.get(*asn) {
            *per_country.entry(r.country).or_default() += 1;
        }
    }
    let mut top_countries: Vec<(CountryCode, usize)> = per_country.into_iter().collect();
    top_countries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    V6Deployment {
        v6_ases: v6_ases.len(),
        cellular_ases: cellular_ases.len(),
        countries: top_countries.len(),
        top_countries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb::{AsKind, AsRecord};
    use cdnsim::{BeaconDataset, BeaconRecord, DemandDataset, DemandRecord};
    use netaddr::{Block24, BlockId};

    fn setup() -> (BlockIndex, Classification, AsDatabase) {
        let mk = |idx: u32, asn: u32, netinfo: u64, cell: u64| BeaconRecord {
            block: BlockId::V4(Block24::from_index(idx)),
            asn: Asn(asn),
            hits_total: netinfo.max(1),
            netinfo_hits: netinfo,
            cellular_hits: cell,
            wifi_hits: netinfo - cell,
            other_hits: 0,
        };
        let du = |idx: u32, asn: u32, du: f64| DemandRecord {
            block: BlockId::V4(Block24::from_index(idx)),
            asn: Asn(asn),
            du,
        };
        let beacons = BeaconDataset::from_records(
            "t",
            vec![
                mk(1, 10, 100, 95), // cellular, US AS
                mk(2, 10, 100, 2),  // fixed, US AS
                mk(3, 20, 100, 80), // cellular, GH AS
                mk(4, 20, 100, 1),  // fixed, GH AS
            ],
        );
        let demand = DemandDataset::from_raw(
            "t",
            vec![
                du(1, 10, 16.6),
                du(2, 10, 83.4),
                du(3, 20, 9.6),
                du(4, 20, 0.4),
            ],
        );
        let index = BlockIndex::build(&beacons, &demand);
        let class = Classification::with_default_threshold(&index);
        let db = AsDatabase::from_records(vec![
            AsRecord::new(
                Asn(10),
                "us-op",
                CountryCode::literal("US"),
                Continent::NorthAmerica,
                AsKind::MixedAccess,
            ),
            AsRecord::new(
                Asn(20),
                "gh-op",
                CountryCode::literal("GH"),
                Continent::Africa,
                AsKind::MixedAccess,
            ),
        ]);
        (index, class, db)
    }

    #[test]
    fn rollups_match_hand_computation() {
        let (index, class, db) = setup();
        let view = WorldView::build(&index, &class, &db);
        // US: 16.6 of 100 cellular; GH: 9.6 of 10 cellular. Total demand
        // normalizes to 100,000 but fractions are preserved.
        let na = &view.demand[Continent::NorthAmerica.index()];
        assert!((na.cellular_fraction_pct() - 16.6).abs() < 1e-6);
        let af = &view.demand[Continent::Africa.index()];
        assert!((af.cellular_fraction_pct() - 96.0).abs() < 1e-6);
        // Global: (16.6 + 9.6) / 110.
        assert!((view.global_cellular_pct() - 100.0 * 26.2 / 110.0).abs() < 1e-6);
        // Table 4 rows.
        let nas = &view.subnets[Continent::NorthAmerica.index()];
        assert_eq!((nas.cell24, nas.active24), (1, 2));
        assert!((nas.pct_active_v4() - 50.0).abs() < 1e-12);
        // Country scatter.
        let scatter = view.country_scatter();
        let gh = scatter
            .iter()
            .find(|(c, _, _)| c.as_str() == "GH")
            .expect("GH present");
        assert!((gh.1 - 0.96).abs() < 1e-9);
    }

    #[test]
    fn top_countries_and_table6() {
        let (index, class, db) = setup();
        let view = WorldView::build(&index, &class, &db);
        let top = view.top_countries(Continent::Africa, 10);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0.as_str(), "GH");
        let (counts, avg) = WorldView::table6(&[Asn(10), Asn(20)], &db);
        assert_eq!(counts[Continent::NorthAmerica.index()], 1);
        assert_eq!(counts[Continent::Africa.index()], 1);
        assert!((avg[Continent::Africa.index()] - 1.0).abs() < 1e-12);
        assert_eq!(counts[Continent::Europe.index()], 0);
    }

    #[test]
    fn unknown_asn_blocks_are_skipped() {
        let (index, class, _) = setup();
        let empty_db = AsDatabase::new();
        let view = WorldView::build(&index, &class, &empty_db);
        assert_eq!(view.global_total_du, 0.0);
        assert!(view.countries.is_empty());
    }
}
