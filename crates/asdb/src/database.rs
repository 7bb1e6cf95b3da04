use std::collections::HashMap;

use netaddr::{Asn, Continent, CountryCode};

use crate::record::AsRecord;

/// An indexed collection of [`AsRecord`]s — the reproduction's stand-in for
/// the CAIDA AS classification dataset plus WHOIS-style registration data.
#[derive(Clone, Debug, Default)]
pub struct AsDatabase {
    records: Vec<AsRecord>,
    index: HashMap<Asn, usize>,
}

impl AsDatabase {
    /// An empty database.
    pub fn new() -> Self {
        AsDatabase::default()
    }

    /// Build from a list of records. Later duplicates of the same ASN
    /// replace earlier ones.
    pub fn from_records(records: Vec<AsRecord>) -> Self {
        let mut db = AsDatabase::new();
        for r in records {
            db.insert(r);
        }
        db
    }

    /// Insert or replace a record, returning the previous record for the
    /// same ASN if any.
    pub fn insert(&mut self, record: AsRecord) -> Option<AsRecord> {
        match self.index.get(&record.asn) {
            Some(&i) => Some(std::mem::replace(&mut self.records[i], record)),
            None => {
                self.index.insert(record.asn, self.records.len());
                self.records.push(record);
                None
            }
        }
    }

    /// Look up a record by ASN.
    pub fn get(&self, asn: Asn) -> Option<&AsRecord> {
        self.index.get(&asn).map(|&i| &self.records[i])
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the database holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate over all records in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &AsRecord> {
        self.records.iter()
    }

    /// All records registered in a given country.
    pub fn by_country(&self, country: CountryCode) -> impl Iterator<Item = &AsRecord> {
        self.records.iter().filter(move |r| r.country == country)
    }

    /// All records registered in a given continent.
    pub fn by_continent(&self, continent: Continent) -> impl Iterator<Item = &AsRecord> {
        self.records
            .iter()
            .filter(move |r| r.continent == continent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AsKind;

    fn rec(asn: u32, cc: &str, continent: Continent, kind: AsKind) -> AsRecord {
        AsRecord::new(
            Asn(asn),
            format!("op-{asn}"),
            CountryCode::literal(cc),
            continent,
            kind,
        )
    }

    #[test]
    fn insert_get_replace() {
        let mut db = AsDatabase::new();
        assert!(db
            .insert(rec(1, "US", Continent::NorthAmerica, AsKind::FixedOnly))
            .is_none());
        assert!(db
            .insert(rec(2, "DE", Continent::Europe, AsKind::MixedAccess))
            .is_none());
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(Asn(2)).unwrap().kind, AsKind::MixedAccess);
        // Replacing keeps len stable and returns the old record.
        let old = db
            .insert(rec(2, "DE", Continent::Europe, AsKind::DedicatedCellular))
            .unwrap();
        assert_eq!(old.kind, AsKind::MixedAccess);
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(Asn(2)).unwrap().kind, AsKind::DedicatedCellular);
        assert!(db.get(Asn(99)).is_none());
    }

    #[test]
    fn filters_by_geo() {
        let db = AsDatabase::from_records(vec![
            rec(1, "US", Continent::NorthAmerica, AsKind::FixedOnly),
            rec(2, "US", Continent::NorthAmerica, AsKind::DedicatedCellular),
            rec(3, "FR", Continent::Europe, AsKind::MixedAccess),
        ]);
        assert_eq!(db.by_country(CountryCode::literal("US")).count(), 2);
        assert_eq!(db.by_continent(Continent::Europe).count(), 1);
        assert_eq!(db.by_country(CountryCode::literal("JP")).count(), 0);
    }
}
