//! The canonical entry set an artifact is sealed from.
//!
//! [`FrozenIndex`] is the *builder-side* form of a serving index: per
//! address family, one *level* per distinct prefix length, ordered
//! longest-first; a level is two parallel flat arrays — the masked
//! prefix keys, sorted strictly ascending, and the index of each
//! prefix's label in the shared, deduplicated label table. That is
//! exactly the order both CELLSERV encoders write, so
//! [`Artifact::encode`](crate::Artifact::encode) serializes it without
//! transformation and the same entries always seal to the same bytes.
//!
//! [`FrozenIndexBuilder`] gets there by sorting at most once: inserts
//! append to one vector per family, and `build` leaves a vector alone
//! when it is already strictly ascending by `(len, key)` — which is how
//! a delta merge and every [`IndexView`](crate::IndexView) walk feed it
//! — and otherwise stable-sorts it and keeps the last insert of each
//! prefix. The label table is the labels sorted and deduplicated; a
//! label's id is its position there.
//!
//! It does not answer lookups. Serving runs over the sealed v2 bytes
//! ([`MappedIndex`](crate::MappedIndex) / [`ArtifactHandle`](crate::ArtifactHandle)),
//! whose longest-prefix match is pinned against [`netaddr::PrefixTrie`]
//! in `tests/lpm_oracle.rs`; a `FrozenIndex` exists between
//! [`FrozenIndexBuilder::build`] (or [`FrozenIndex::from_classification`])
//! and the encoder, and when `index migrate` decodes an old file.
//!
//! This module also owns the label and key-codec types every sealed
//! format shares ([`ServeLabel`], [`AsClass`], [`PrefixCodec`]).

use std::collections::HashMap;

use cellspot::{Classification, MixedAnalysis};
use netaddr::{Asn, BlockId, Ipv4Net, Ipv6Net};

/// How the prefix's origin AS serves its traffic (§6 of the paper).
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub enum AsClass {
    /// The AS carries (almost) exclusively cellular demand.
    Dedicated,
    /// The AS mixes cellular and fixed-line demand.
    Mixed,
    /// No mixed/dedicated verdict was available when the artifact was
    /// built (e.g. the AS fell below the demand floor of the §5 filter).
    Unknown,
}

impl AsClass {
    /// The single-byte wire encoding shared by the CELLSERV artifact
    /// and the CELLDELT delta format: the mapping is part of both
    /// formats' v1 contracts and must never change.
    pub fn to_byte(self) -> u8 {
        match self {
            AsClass::Unknown => 0,
            AsClass::Dedicated => 1,
            AsClass::Mixed => 2,
        }
    }

    /// Decode the wire byte; anything above 2 is not a class.
    pub fn from_byte(byte: u8) -> Option<AsClass> {
        match byte {
            0 => Some(AsClass::Unknown),
            1 => Some(AsClass::Dedicated),
            2 => Some(AsClass::Mixed),
            _ => None,
        }
    }
}

impl std::fmt::Display for AsClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AsClass::Dedicated => "dedicated",
            AsClass::Mixed => "mixed",
            AsClass::Unknown => "unknown",
        })
    }
}

/// The label attached to every served prefix: origin AS plus its
/// mixed/dedicated class. Deduplicated into one table per artifact —
/// prefixes store a `u32` index into it.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub struct ServeLabel {
    /// Origin AS of the prefix.
    pub asn: Asn,
    /// Mixed/dedicated verdict for that AS.
    pub class: AsClass,
}

/// The wire codec of a left-aligned prefix key — the integer address
/// type of one family: width, masking and little-endian
/// (de)serialization. Implemented for `u32` (IPv4) and `u128` (IPv6);
/// every sealed format that stores prefixes (CELLSERV, CELLDELT) reads
/// and writes its keys through this one trait.
pub trait PrefixCodec: Copy + Ord + std::fmt::LowerHex {
    /// Family bit width (32 or 128).
    const BITS: u8;
    /// Serialized size in bytes (4 or 16).
    const SIZE: usize;
    /// Network mask for a prefix length; `mask(0)` is all-zeros and
    /// `mask(BITS)` is all-ones.
    fn mask(len: u8) -> Self;
    /// Bitwise AND.
    fn and(self, other: Self) -> Self;
    /// Append the key in little-endian byte order.
    fn write_le(self, out: &mut Vec<u8>);
    /// Read a key from exactly [`PrefixCodec::SIZE`] little-endian bytes.
    fn read_le(bytes: &[u8]) -> Self;
}

/// A [`PrefixCodec`] key plus what only the lookup structures need:
/// cache-slot hashing and root-table bucketing.
pub(crate) trait PrefixKey: PrefixCodec {
    /// A well-mixed 64-bit hash, used to pick a hot-cache slot.
    fn cache_hash(self) -> u64;
    /// The low 32 bits of the key — the v2 root table buckets IPv4
    /// keys by `low32() >> 16` (lossy for IPv6, which never uses it).
    fn low32(self) -> u32;
    /// Store the key into exactly [`PrefixCodec::SIZE`] little-endian
    /// bytes of an output buffer.
    fn put_le(self, out: &mut [u8]);
}

/// Fibonacci-hashing multiplier (2^64 / φ): mixes the high bits well
/// even when keys differ only in a narrow bit range, as /24-aligned
/// prefixes do.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl PrefixCodec for u32 {
    const BITS: u8 = 32;
    const SIZE: usize = 4;

    #[inline]
    fn mask(len: u8) -> u32 {
        debug_assert!(len <= 32);
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    #[inline]
    fn and(self, other: u32) -> u32 {
        self & other
    }

    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn read_le(bytes: &[u8]) -> u32 {
        u32::from_le_bytes(bytes.try_into().expect("caller passes SIZE bytes"))
    }
}

impl PrefixKey for u32 {
    #[inline]
    fn cache_hash(self) -> u64 {
        (self as u64).wrapping_mul(HASH_MUL)
    }

    #[inline]
    fn low32(self) -> u32 {
        self
    }

    #[inline]
    fn put_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
}

impl PrefixCodec for u128 {
    const BITS: u8 = 128;
    const SIZE: usize = 16;

    #[inline]
    fn mask(len: u8) -> u128 {
        debug_assert!(len <= 128);
        if len == 0 {
            0
        } else {
            u128::MAX << (128 - len)
        }
    }

    #[inline]
    fn and(self, other: u128) -> u128 {
        self & other
    }

    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn read_le(bytes: &[u8]) -> u128 {
        u128::from_le_bytes(bytes.try_into().expect("caller passes SIZE bytes"))
    }
}

impl PrefixKey for u128 {
    #[inline]
    fn cache_hash(self) -> u64 {
        (((self >> 64) as u64) ^ (self as u64)).wrapping_mul(HASH_MUL)
    }

    #[inline]
    fn low32(self) -> u32 {
        self as u32
    }

    #[inline]
    fn put_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
}

/// All prefixes of one length: masked keys sorted strictly ascending,
/// with the parallel label-table indexes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Level<K> {
    /// Prefix length shared by every key in the level.
    pub(crate) len: u8,
    /// Masked prefix keys, sorted strictly ascending.
    pub(crate) keys: Vec<K>,
    /// `labels[i]` is the label-table index of `keys[i]`.
    pub(crate) labels: Vec<u32>,
}

/// One address family's levels, ordered longest prefix first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FamilyIndex<K> {
    pub(crate) levels: Vec<Level<K>>,
}

impl<K: PrefixKey> FamilyIndex<K> {
    pub(crate) fn prefix_count(&self) -> usize {
        self.levels.iter().map(|l| l.keys.len()).sum()
    }
}

/// The canonical entry set of one artifact: label table plus per-family
/// flat-array levels. Built with [`FrozenIndexBuilder`] or decoded from
/// a sealed artifact with [`Artifact::decode`](crate::Artifact::decode);
/// never mutated after either, and consumed by
/// [`Artifact::encode`](crate::Artifact::encode).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenIndex {
    pub(crate) labels: Vec<ServeLabel>,
    pub(crate) v4: FamilyIndex<u32>,
    pub(crate) v6: FamilyIndex<u128>,
}

impl FrozenIndex {
    /// Start building an index prefix by prefix.
    pub fn builder() -> FrozenIndexBuilder {
        FrozenIndexBuilder::new()
    }

    /// Freeze a [`Classification`] into a serving index: every cellular
    /// block becomes a served prefix (/24 for IPv4, /48 for IPv6)
    /// labeled with its origin AS. When a [`MixedAnalysis`] is supplied
    /// its per-AS verdicts become the [`AsClass`]; ASes without a
    /// verdict — and every AS when `mixed` is `None` — are labeled
    /// [`AsClass::Unknown`].
    pub fn from_classification(
        classification: &Classification,
        mixed: Option<&MixedAnalysis>,
    ) -> FrozenIndex {
        let verdicts: HashMap<Asn, bool> = mixed
            .map(|m| m.verdicts.iter().map(|v| (v.asn, v.is_mixed)).collect())
            .unwrap_or_default();
        let mut builder = FrozenIndexBuilder::new();
        for (block, asn) in classification.iter() {
            let class = match verdicts.get(&asn) {
                Some(true) => AsClass::Mixed,
                Some(false) => AsClass::Dedicated,
                None => AsClass::Unknown,
            };
            let label = ServeLabel { asn, class };
            match block {
                BlockId::V4(blk) => builder.insert_v4(blk.network(), label),
                BlockId::V6(blk) => builder.insert_v6(blk.network(), label),
            }
        }
        builder.build()
    }

    /// Total served prefixes across both families.
    pub fn len(&self) -> usize {
        self.v4.prefix_count() + self.v6.prefix_count()
    }

    /// True when no prefix is served.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(IPv4, IPv6)` served-prefix counts.
    pub fn prefix_counts(&self) -> (usize, usize) {
        (self.v4.prefix_count(), self.v6.prefix_count())
    }

    /// Number of distinct labels in the table.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of distinct origin ASes across the label table.
    pub fn as_count(&self) -> usize {
        // Labels are sorted by (asn, class), so equal ASes are adjacent.
        let mut count = 0;
        let mut last: Option<Asn> = None;
        for l in &self.labels {
            if last != Some(l.asn) {
                count += 1;
                last = Some(l.asn);
            }
        }
        count
    }

    /// Every served IPv4 prefix with its label, in canonical artifact
    /// order: shortest prefix length first, keys ascending within a
    /// length — the iteration order [`FrozenIndexBuilder`] would
    /// reproduce, so `collect → rebuild` round-trips byte-identically.
    pub fn entries_v4(&self) -> impl Iterator<Item = (Ipv4Net, ServeLabel)> + '_ {
        self.v4.levels.iter().rev().flat_map(move |level| {
            level
                .keys
                .iter()
                .zip(&level.labels)
                .map(move |(&key, &idx)| {
                    let net =
                        Ipv4Net::new(key, level.len).expect("level length ≤ 32 by construction");
                    (net, self.labels[idx as usize])
                })
        })
    }

    /// Every served IPv6 prefix with its label, in canonical order (see
    /// [`FrozenIndex::entries_v4`]).
    pub fn entries_v6(&self) -> impl Iterator<Item = (Ipv6Net, ServeLabel)> + '_ {
        self.v6.levels.iter().rev().flat_map(move |level| {
            level
                .keys
                .iter()
                .zip(&level.labels)
                .map(move |(&key, &idx)| {
                    let net =
                        Ipv6Net::new(key, level.len).expect("level length ≤ 128 by construction");
                    (net, self.labels[idx as usize])
                })
        })
    }
}

/// Accumulates prefixes for a [`FrozenIndex`]. Duplicate prefixes
/// resolve last-wins, matching [`netaddr::PrefixTrie::insert`]'s
/// replacement semantics, so a builder fed the same sequence as a trie
/// freezes to an index with identical lookups.
#[derive(Clone, Debug, Default)]
pub struct FrozenIndexBuilder {
    v4: Vec<((u8, u32), ServeLabel)>,
    v6: Vec<((u8, u128), ServeLabel)>,
}

impl FrozenIndexBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) an IPv4 prefix.
    pub fn insert_v4(&mut self, net: Ipv4Net, label: ServeLabel) {
        self.v4.push(((net.len(), net.addr()), label));
    }

    /// Add (or replace) an IPv6 prefix.
    pub fn insert_v6(&mut self, net: Ipv6Net, label: ServeLabel) {
        self.v6.push(((net.len(), net.addr()), label));
    }

    /// Freeze into the immutable index. Canonical by construction: the
    /// label table is deduplicated and sorted, levels are ordered
    /// longest-first, keys within a level strictly ascending — the same
    /// builder contents always freeze to byte-identical artifacts.
    pub fn build(mut self) -> FrozenIndex {
        canonicalize(&mut self.v4);
        canonicalize(&mut self.v6);
        let (v4, v6) = (self.v4.iter().map(|e| e.1), self.v6.iter().map(|e| e.1));
        let mut labels: Vec<ServeLabel> = v4.chain(v6).collect();
        labels.sort_unstable();
        labels.dedup();
        FrozenIndex {
            v4: family_from_sorted(&self.v4, &labels),
            v6: family_from_sorted(&self.v6, &labels),
            labels,
        }
    }
}

/// Put one family's entries in `(len, key)` order with one entry per
/// prefix, the last inserted. Strictly ascending input is left alone.
fn canonicalize<K: Ord + Copy>(entries: &mut Vec<((u8, K), ServeLabel)>) {
    if entries.windows(2).all(|w| w[0].0 < w[1].0) {
        return;
    }
    // Stable, so equal prefixes stay in insertion order; `dedup_by`
    // hands over (later, kept) and drops `later`, so carrying its label
    // across first leaves the last insert standing.
    entries.sort_by_key(|&(at, _)| at);
    entries.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 = later.1;
        }
        same
    });
}

/// Group `(len, key)`-ascending entries into longest-first levels.
fn family_from_sorted<K: PrefixKey>(
    entries: &[((u8, K), ServeLabel)],
    labels: &[ServeLabel],
) -> FamilyIndex<K> {
    let mut levels: Vec<Level<K>> = Vec::new();
    // Neighbouring prefixes mostly share an origin AS, so the previous
    // entry's id answers most look-ups before the binary search.
    let mut last: Option<(ServeLabel, u32)> = None;
    // One contiguous run per length, already sorted within it.
    for &((len, key), label) in entries {
        let idx = match last {
            Some((l, idx)) if l == label => idx,
            _ => labels
                .binary_search(&label)
                .expect("the table holds every entry's label") as u32,
        };
        last = Some((label, idx));
        match levels.last_mut() {
            Some(level) if level.len == len => {
                level.keys.push(key);
                level.labels.push(idx);
            }
            _ => levels.push(Level {
                len,
                keys: vec![key],
                labels: vec![idx],
            }),
        }
    }
    levels.reverse();
    FamilyIndex { levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::served;
    use crate::view::IndexView;
    use std::collections::{BTreeMap, BTreeSet};

    fn label(asn: u32, class: AsClass) -> ServeLabel {
        ServeLabel {
            asn: Asn(asn),
            class,
        }
    }

    fn v4(s: &str) -> Ipv4Net {
        s.parse().expect("valid v4 cidr")
    }

    fn v6(s: &str) -> Ipv6Net {
        s.parse().expect("valid v6 cidr")
    }

    #[test]
    fn longest_prefix_wins() {
        let mut b = FrozenIndex::builder();
        b.insert_v4(v4("10.0.0.0/8"), label(1, AsClass::Mixed));
        b.insert_v4(v4("10.1.0.0/16"), label(2, AsClass::Dedicated));
        b.insert_v4(v4("10.1.2.0/24"), label(3, AsClass::Unknown));
        let idx = served(&b.build());
        // 10.1.2.3 → the /24.
        let (net, l) = idx.lookup_v4(0x0A010203).expect("covered");
        assert_eq!(net, v4("10.1.2.0/24"));
        assert_eq!(l.asn, Asn(3));
        // 10.1.9.1 → the /16.
        let (net, l) = idx.lookup_v4(0x0A010901).expect("covered");
        assert_eq!(net, v4("10.1.0.0/16"));
        assert_eq!(l.asn, Asn(2));
        // 10.200.0.1 → the /8.
        let (net, l) = idx.lookup_v4(0x0AC80001).expect("covered");
        assert_eq!(net, v4("10.0.0.0/8"));
        assert_eq!(l, label(1, AsClass::Mixed));
        // 11.0.0.1 → miss.
        assert_eq!(idx.lookup_v4(0x0B000001), None);
    }

    #[test]
    fn duplicate_insert_is_last_wins() {
        let mut b = FrozenIndex::builder();
        b.insert_v4(v4("10.0.0.0/8"), label(1, AsClass::Unknown));
        b.insert_v4(v4("10.0.0.0/8"), label(9, AsClass::Dedicated));
        let idx = served(&b.build());
        assert_eq!(idx.len(), 1);
        let (_, l) = idx.lookup_v4(0x0A000000).expect("covered");
        assert_eq!(l, label(9, AsClass::Dedicated));
    }

    #[test]
    fn default_route_catches_everything() {
        let mut b = FrozenIndex::builder();
        b.insert_v4(
            Ipv4Net::new(0, 0).expect("default"),
            label(1, AsClass::Unknown),
        );
        b.insert_v4(v4("203.0.113.0/24"), label(2, AsClass::Mixed));
        let idx = served(&b.build());
        assert_eq!(
            idx.lookup_v4(0xCB007105).expect("covered").0,
            v4("203.0.113.0/24")
        );
        assert_eq!(
            idx.lookup_v4(0x01020304).expect("default catches").0,
            Ipv4Net::new(0, 0).expect("default")
        );
    }

    #[test]
    fn v6_lookups_work_and_families_are_disjoint() {
        let mut b = FrozenIndex::builder();
        b.insert_v6(v6("2001:db8::/48"), label(5, AsClass::Dedicated));
        let idx = served(&b.build());
        let addr = 0x2001_0db8_0000_0000_0000_0000_0000_0001u128;
        let (net, l) = idx.lookup_v6(addr).expect("covered");
        assert_eq!(net, v6("2001:db8::/48"));
        assert_eq!(l.asn, Asn(5));
        assert_eq!(idx.lookup_v6(addr ^ (1 << 100)), None);
        // No v4 prefixes were inserted at all.
        assert_eq!(idx.lookup_v4(0x2001_0db8), None);
        assert_eq!(idx.prefix_counts(), (0, 1));
    }

    #[test]
    fn labels_are_deduplicated() {
        let mut b = FrozenIndex::builder();
        let shared = label(7, AsClass::Mixed);
        b.insert_v4(v4("10.0.0.0/24"), shared);
        b.insert_v4(v4("10.0.1.0/24"), shared);
        b.insert_v6(v6("2001:db8::/48"), shared);
        b.insert_v4(v4("10.0.2.0/24"), label(8, AsClass::Dedicated));
        let idx = b.build();
        assert_eq!(idx.label_count(), 2);
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn build_is_canonical_regardless_of_insert_order() {
        let entries = [
            (v4("10.0.0.0/8"), label(1, AsClass::Mixed)),
            (v4("10.1.0.0/16"), label(2, AsClass::Dedicated)),
            (v4("192.0.2.0/24"), label(3, AsClass::Unknown)),
        ];
        let mut fwd = FrozenIndex::builder();
        for (n, l) in entries {
            fwd.insert_v4(n, l);
        }
        let mut rev = FrozenIndex::builder();
        for (n, l) in entries.iter().rev() {
            rev.insert_v4(*n, *l);
        }
        assert_eq!(fwd.build(), rev.build());
    }

    /// The builder this one replaced, kept as the model: `BTreeMap`s
    /// give last-wins and `(len, key)` order by construction.
    fn model_family<K: PrefixKey>(
        map: &BTreeMap<(u8, K), ServeLabel>,
        ids: &BTreeMap<ServeLabel, u32>,
    ) -> FamilyIndex<K> {
        let mut levels: Vec<Level<K>> = Vec::new();
        for (&(len, key), label) in map {
            if levels.last().map(|l| l.len) != Some(len) {
                levels.push(Level {
                    len,
                    keys: Vec::new(),
                    labels: Vec::new(),
                });
            }
            let level = levels.last_mut().expect("just pushed");
            level.keys.push(key);
            level.labels.push(ids[label]);
        }
        levels.reverse();
        FamilyIndex { levels }
    }

    #[test]
    fn shuffled_duplicated_inserts_build_what_the_last_wins_model_builds() {
        let mut x = 0x5EED_CE11_5707_0001u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let classes = [AsClass::Unknown, AsClass::Dedicated, AsClass::Mixed];
        let any_label = |r: u64| label((r >> 8) as u32 % 97, classes[(r >> 40) as usize % 3]);
        // Keys drawn from a universe smaller than the insert count, in
        // shuffled (hash) order: duplicates at every length, and three
        // lengths per family so every level boundary is crossed.
        let mut seq4: Vec<(Ipv4Net, ServeLabel)> = Vec::new();
        let mut seq6: Vec<(Ipv6Net, ServeLabel)> = Vec::new();
        for _ in 0..9_000 {
            let r = next();
            let len = [8u8, 16, 24][(r >> 4) as usize % 3];
            let key = ((r >> 16) as u32 % 6_000).wrapping_mul(0x9E37_79B1) & u32::mask(len);
            seq4.push((Ipv4Net::new(key, len).expect("masked"), any_label(next())));
        }
        for _ in 0..3_000 {
            let r = next();
            let len = [32u8, 48, 64][(r >> 4) as usize % 3];
            let key = (((r >> 16) % 2_000) as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15 << 64)
                & u128::mask(len);
            seq6.push((Ipv6Net::new(key, len).expect("masked"), any_label(next())));
        }
        // One prefix per family inserted first, in the middle and last,
        // under three labels: only the last may survive.
        let (p4, p6) = (v4("198.51.100.0/24"), v6("2001:db8:7::/48"));
        let (first, middle, last) = (
            label(1, AsClass::Mixed),
            label(2, AsClass::Unknown),
            label(3, AsClass::Dedicated),
        );
        seq4.insert(0, (p4, first));
        seq4.insert(seq4.len() / 2, (p4, middle));
        seq4.push((p4, last));
        seq6.insert(0, (p6, first));
        seq6.insert(seq6.len() / 2, (p6, middle));
        seq6.push((p6, last));
        assert!(seq4.len() + seq6.len() >= 10_000);

        let mut shuffled = FrozenIndex::builder();
        let mut m4: BTreeMap<(u8, u32), ServeLabel> = BTreeMap::new();
        let mut m6: BTreeMap<(u8, u128), ServeLabel> = BTreeMap::new();
        for &(net, l) in &seq4 {
            shuffled.insert_v4(net, l);
            m4.insert((net.len(), net.addr()), l);
        }
        for &(net, l) in &seq6 {
            shuffled.insert_v6(net, l);
            m6.insert((net.len(), net.addr()), l);
        }
        assert!(m4.len() < seq4.len() && m6.len() < seq6.len(), "duplicates");
        assert_eq!(m4[&(24, p4.addr())], last);
        assert_eq!(m6[&(48, p6.addr())], last);

        let labels: Vec<ServeLabel> = (m4.values().chain(m6.values()).copied())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let ids = (labels.iter().enumerate().map(|(i, l)| (*l, i as u32))).collect();
        let model = FrozenIndex {
            v4: model_family(&m4, &ids),
            v6: model_family(&m6, &ids),
            labels,
        };
        let shuffled = shuffled.build();
        assert_eq!(shuffled, model);
        assert_eq!(shuffled.v4.levels.len(), 3);
        assert_eq!(shuffled.v6.levels.len(), 3);

        // The same entries arriving already ascending — what a delta
        // merge or a view walk feeds the builder — skip the sort and
        // must land on the same index.
        let mut ascending = FrozenIndex::builder();
        for (&(len, key), &l) in &m4 {
            ascending.insert_v4(Ipv4Net::new(key, len).expect("masked"), l);
        }
        for (&(len, key), &l) in &m6 {
            ascending.insert_v6(Ipv6Net::new(key, len).expect("masked"), l);
        }
        assert_eq!(ascending.build(), model);
    }

    #[test]
    fn class_bytes_round_trip_and_reject_garbage() {
        for class in [AsClass::Unknown, AsClass::Dedicated, AsClass::Mixed] {
            assert_eq!(AsClass::from_byte(class.to_byte()), Some(class));
        }
        for bad in 3u8..=255 {
            assert_eq!(AsClass::from_byte(bad), None);
        }
    }

    #[test]
    fn entries_round_trip_through_a_fresh_builder() {
        let mut b = FrozenIndex::builder();
        b.insert_v4(v4("10.0.0.0/8"), label(1, AsClass::Mixed));
        b.insert_v4(v4("10.1.0.0/16"), label(2, AsClass::Dedicated));
        b.insert_v4(v4("10.1.2.0/24"), label(1, AsClass::Mixed));
        b.insert_v6(v6("2001:db8::/48"), label(3, AsClass::Unknown));
        let idx = b.build();

        let v4_entries: Vec<_> = idx.entries_v4().collect();
        assert_eq!(v4_entries.len(), 3);
        // Canonical order: shortest length first, keys ascending.
        assert_eq!(v4_entries[0].0, v4("10.0.0.0/8"));
        assert_eq!(v4_entries[1].0, v4("10.1.0.0/16"));
        assert_eq!(v4_entries[2].0, v4("10.1.2.0/24"));
        assert_eq!(idx.entries_v6().count(), 1);
        assert_eq!(idx.as_count(), 3);

        let mut rebuilt = FrozenIndex::builder();
        for (net, l) in idx.entries_v4() {
            rebuilt.insert_v4(net, l);
        }
        for (net, l) in idx.entries_v6() {
            rebuilt.insert_v6(net, l);
        }
        assert_eq!(rebuilt.build(), idx, "entries fully describe the index");
    }

    #[test]
    fn from_classification_serves_every_cellular_block() {
        use cdnsim::{BeaconDataset, BeaconRecord, DemandDataset, DemandRecord};
        use cellspot::BlockIndex;
        use netaddr::Block24;

        let block = |i: u32| BlockId::V4(Block24::from_index(i));
        let beacons = BeaconDataset::from_records(
            "t",
            vec![
                BeaconRecord {
                    block: block(1),
                    asn: Asn(1),
                    hits_total: 80,
                    netinfo_hits: 10,
                    cellular_hits: 9,
                    wifi_hits: 1,
                    other_hits: 0,
                },
                BeaconRecord {
                    block: block(2),
                    asn: Asn(2),
                    hits_total: 80,
                    netinfo_hits: 10,
                    cellular_hits: 0,
                    wifi_hits: 10,
                    other_hits: 0,
                },
            ],
        );
        let demand = DemandDataset::from_raw(
            "t",
            vec![
                DemandRecord {
                    block: block(1),
                    asn: Asn(1),
                    du: 3.0,
                },
                DemandRecord {
                    block: block(2),
                    asn: Asn(2),
                    du: 1.0,
                },
            ],
        );
        let index = BlockIndex::build(&beacons, &demand);
        let class = Classification::with_default_threshold(&index);
        assert_eq!(class.len(), 1, "only block 1 is cellular");

        let frozen = served(&FrozenIndex::from_classification(&class, None));
        assert_eq!(frozen.prefix_counts(), (1, 0));
        let addr = Block24::from_index(1).addr(5);
        let (net, l) = frozen.lookup_v4(addr).expect("cellular block served");
        assert_eq!(net, Block24::from_index(1).network());
        assert_eq!(l.asn, Asn(1));
        assert_eq!(l.class, AsClass::Unknown, "no mixed analysis supplied");
        // The wifi block is not served.
        assert_eq!(frozen.lookup_v4(Block24::from_index(2).addr(5)), None);
    }
}
