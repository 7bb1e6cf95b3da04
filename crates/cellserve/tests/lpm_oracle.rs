//! The one longest-prefix-match oracle.
//!
//! The served representation — validated v2 bytes behind
//! [`cellserve::IndexView`] — must answer **exactly** like the
//! pointer-chasing [`netaddr::PrefixTrie`] fed the same insertion
//! sequence (duplicates resolve last-wins in both): matched prefix and
//! label, hit or miss, both families. Nothing else in the workspace is
//! allowed to be the expected value of a lookup.
//!
//! Random mixed-length prefix sets cover the ordinary cases; the
//! hand-built shapes below are the ones that break LPM code: a prefix
//! nested at *every* length, /0, /32, /128, the address-space edges, a
//! first IPv4 level on both sides of the 4096-entry root-table
//! threshold (including one shorter than the /16 the table buckets by),
//! and dense Eytzinger levels that are not the first.
//!
//! Every artifact built here also has its traversal order, counts, and
//! decode/re-encode round trip checked against the entry set it was
//! sealed from.

use proptest::prelude::*;

use cellserve::{
    Artifact, ArtifactFormat, AsClass, FrozenIndex, FrozenIndexBuilder, IndexView, MappedIndex,
    ServeLabel,
};
use netaddr::{Asn, DualPrefixTrie, Ipv4Net, Ipv6Net};

fn label(asn: u32) -> ServeLabel {
    ServeLabel {
        asn: Asn(asn),
        class: [AsClass::Dedicated, AsClass::Mixed, AsClass::Unknown][asn as usize % 3],
    }
}

fn v4(addr: u32, len: u8) -> Ipv4Net {
    Ipv4Net::new(addr, len).expect("len ≤ 32")
}

fn v6(addr: u128, len: u8) -> Ipv6Net {
    Ipv6Net::new(addr, len).expect("len ≤ 128")
}

/// Last address covered by a v6 prefix (the v4 type has `last()`).
fn v6_last(net: Ipv6Net) -> u128 {
    let host_mask = if net.len() == 0 {
        u128::MAX
    } else {
        !(u128::MAX << (128 - net.len()))
    };
    net.addr() | host_mask
}

/// One prefix set, as the reference trie and as the sealed artifact.
struct Case {
    trie: DualPrefixTrie<ServeLabel>,
    frozen: FrozenIndex,
    sealed: Vec<u8>,
}

impl Case {
    fn new(v4_entries: &[(Ipv4Net, ServeLabel)], v6_entries: &[(Ipv6Net, ServeLabel)]) -> Case {
        let mut trie = DualPrefixTrie::new();
        let mut builder = FrozenIndexBuilder::new();
        for &(net, l) in v4_entries {
            trie.insert_v4(net, l);
            builder.insert_v4(net, l);
        }
        for &(net, l) in v6_entries {
            trie.insert_v6(net, l);
            builder.insert_v6(net, l);
        }
        let frozen = builder.build();
        let sealed = Artifact::encode(&frozen, ArtifactFormat::V2);
        Case {
            trie,
            frozen,
            sealed,
        }
    }

    /// Probe addresses that matter for every entry: first and last
    /// covered address and the two just outside, plus the family edges.
    fn boundary_probes(&self) -> (Vec<u32>, Vec<u128>) {
        let mut p4 = vec![0, 1, u32::MAX - 1, u32::MAX];
        for (net, _) in self.frozen.entries_v4() {
            p4.extend([
                net.first(),
                net.last(),
                net.first().wrapping_sub(1),
                net.last().wrapping_add(1),
            ]);
        }
        let mut p6 = vec![0, 1, u128::MAX - 1, u128::MAX];
        for (net, _) in self.frozen.entries_v6() {
            p6.extend([
                net.addr(),
                v6_last(net),
                net.addr().wrapping_sub(1),
                v6_last(net).wrapping_add(1),
            ]);
        }
        (p4, p6)
    }

    /// The whole contract for one view of this case's sealed bytes.
    fn check_view<V: IndexView>(&self, view: &V, extra4: &[u32], extra6: &[u128]) {
        let (mut p4, mut p6) = self.boundary_probes();
        p4.extend_from_slice(extra4);
        p6.extend_from_slice(extra6);
        for a in p4 {
            let want = self.trie.lookup_v4(a).map(|(net, l)| (net, *l));
            assert_eq!(view.lookup_v4(a), want, "v4 {a:#010x}");
        }
        for a in p6 {
            let want = self.trie.lookup_v6(a).map(|(net, l)| (net, *l));
            assert_eq!(view.lookup_v6(a), want, "v6 {a:#034x}");
        }

        // Traversal is the canonical order the artifact was sealed in,
        // and the aggregates describe the same entry set.
        let mut seen4 = Vec::new();
        view.for_each_v4(&mut |net, l| seen4.push((net, l)));
        assert_eq!(seen4, self.frozen.entries_v4().collect::<Vec<_>>());
        let mut seen6 = Vec::new();
        view.for_each_v6(&mut |net, l| seen6.push((net, l)));
        assert_eq!(seen6, self.frozen.entries_v6().collect::<Vec<_>>());
        assert_eq!(view.prefix_counts(), self.frozen.prefix_counts());
        assert_eq!(view.len(), self.trie.len());
        assert_eq!(view.is_empty(), self.trie.is_empty());
        assert_eq!(view.label_count(), self.frozen.label_count());
        assert_eq!(view.as_count(), self.frozen.as_count());
        assert_eq!(
            view.longest_len_v4(),
            self.frozen.entries_v4().map(|(n, _)| n.len()).max()
        );
        assert_eq!(
            view.longest_len_v6(),
            self.frozen.entries_v6().map(|(n, _)| n.len()).max()
        );
    }

    /// Check the owning handle (what the daemon serves) and the
    /// borrowed view, then the decode/re-encode round trip.
    fn check(&self, extra4: &[u32], extra6: &[u128]) {
        let handle = Artifact::from_bytes(&self.sealed).expect("freshly sealed v2 loads");
        self.check_view(&handle, extra4, extra6);
        let borrowed = MappedIndex::new(&self.sealed[..]).expect("freshly sealed v2 validates");
        self.check_view(&borrowed, extra4, extra6);
        let decoded = Artifact::decode(&self.sealed).expect("sealed v2 decodes");
        assert_eq!(decoded, self.frozen);
        assert_eq!(
            Artifact::encode(&decoded, ArtifactFormat::V2),
            self.sealed,
            "re-encoding the decoded entry set is byte-identical"
        );
    }
}

/// Deterministic pseudo-random probes (mostly misses on sparse sets).
fn scatter(n: u32) -> Vec<u32> {
    (0..n).map(|i| i.wrapping_mul(0x9E37_79B9)).collect()
}

/// `n` distinct /24s: the first and last /24 of the address space (the
/// root table's edge stems), a run of 600 consecutive /24s from
/// 10.0.0.0 (full /16 stems, so the within-stem search has hundreds of
/// keys to bisect), and the rest spread one or two to a stem (×7919 is
/// odd, hence a bijection mod 2^24).
fn spread_24s(n: u32) -> Vec<(Ipv4Net, ServeLabel)> {
    let mut nets: Vec<Ipv4Net> = vec![v4(0, 24), v4(0xFFFF_FF00, 24)];
    nets.extend((0..600u32).map(|i| v4(0x0A00_0000 + (i << 8), 24)));
    let mut i = 1u32;
    while (nets.len() as u32) < n {
        let net = v4((i.wrapping_mul(7919) & 0x00FF_FFFF) << 8, 24);
        if !nets[..602].contains(&net) {
            nets.push(net);
        }
        i += 1;
    }
    nets.into_iter()
        .enumerate()
        .map(|(i, net)| (net, label(i as u32 % 97)))
        .collect()
}

#[test]
fn nested_prefixes_at_every_length_v4() {
    // Three chains nested at every length 0..=32: around an interior
    // address and down both edges of the address space.
    let mut entries = Vec::new();
    for (c, anchor) in [0xC633_64C7u32, 0, u32::MAX].into_iter().enumerate() {
        for len in 0..=32u8 {
            entries.push((v4(anchor, len), label(100 * c as u32 + len as u32)));
        }
    }
    let case = Case::new(&entries, &[]);
    // For every length, the address that leaves the chain exactly
    // there: it agrees with the anchor on `len` bits and differs on
    // the next, so the /len is the longest match.
    let mut probes = Vec::new();
    for anchor in [0xC633_64C7u32, 0, u32::MAX] {
        for len in 0..32u8 {
            probes.push(anchor ^ (1 << (31 - len)));
        }
    }
    case.check(&probes, &[]);
}

#[test]
fn nested_prefixes_at_every_length_v6() {
    let interior = 0x2001_0db8_85a3_0000_0000_8a2e_0370_7334u128;
    let mut entries = Vec::new();
    for (c, anchor) in [interior, 0, u128::MAX].into_iter().enumerate() {
        for len in 0..=128u8 {
            entries.push((v6(anchor, len), label(1000 * c as u32 + len as u32)));
        }
    }
    let case = Case::new(&[], &entries);
    let mut probes = Vec::new();
    for anchor in [interior, 0, u128::MAX] {
        for len in 0..128u8 {
            probes.push(anchor ^ (1 << (127 - len)));
        }
    }
    case.check(&[], &probes);
}

#[test]
fn host_routes_and_default_routes_at_the_address_space_edges() {
    // /0 plus /32 and /128 host routes on the first and last address.
    let case = Case::new(
        &[
            (v4(0, 0), label(1)),
            (v4(0, 32), label(2)),
            (v4(u32::MAX, 32), label(3)),
        ],
        &[
            (v6(0, 0), label(4)),
            (v6(0, 128), label(5)),
            (v6(u128::MAX, 128), label(6)),
        ],
    );
    case.check(&scatter(64), &[1 << 127, (1 << 127) - 1]);

    // Host routes alone: everything but the two edges is a miss.
    let case = Case::new(
        &[(v4(0, 32), label(2)), (v4(u32::MAX, 32), label(3))],
        &[(v6(0, 128), label(5)), (v6(u128::MAX, 128), label(6))],
    );
    case.check(&scatter(64), &[1 << 127]);

    // And the empty index answers nothing.
    Case::new(&[], &[]).check(&scatter(16), &[1 << 127]);
}

#[test]
fn first_v4_level_on_both_sides_of_the_root_table_threshold() {
    let mut sizes = Vec::new();
    for n in [4095u32, 4096, 4097] {
        let mut entries = spread_24s(n);
        // Shorter levels underneath, so first-level misses fall
        // through: a /16 over some of the /24s, a /8, and the default.
        entries.push((v4(0x1EEF_0000, 16), label(200)));
        entries.push((v4(0x0A00_0000, 8), label(201)));
        entries.push((v4(0, 0), label(202)));
        let case = Case::new(&entries, &[]);
        case.check(&scatter(20_000), &[]);
        sizes.push(case.sealed.len());

        // The same artifact served off an mmap answers identically.
        if n == 4096 {
            let dir = std::env::temp_dir().join(format!("cellserve-oracle-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("temp dir");
            let path = dir.join("dense.cellserv");
            std::fs::write(&path, &case.sealed).expect("write artifact");
            let opened = Artifact::open(&path).expect("open");
            case.check_view(&opened, &scatter(20_000), &[]);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    // 4096 entries is where the 2^16+1-entry root table appears: one
    // more /24 costs a few bytes, crossing the threshold costs 256 KiB.
    assert!(sizes[1] - sizes[0] > 4 * (1 << 16), "{sizes:?}");
    assert!(sizes[2] - sizes[1] < 64, "{sizes:?}");
}

#[test]
fn root_table_levels_that_are_not_slash_24() {
    // A /32 first level over the threshold: hundreds of keys in each
    // of a few adjacent /16 stems.
    let hosts: Vec<(Ipv4Net, ServeLabel)> = (0..5000u32)
        .map(|i| (v4(0xC0A8_0000 + i * 131, 32), label(i % 50)))
        .chain([(v4(0, 32), label(7)), (v4(u32::MAX, 32), label(8))])
        .chain([(v4(0xC0A8_0000, 16), label(9))])
        .collect();
    Case::new(&hosts, &[]).check(&scatter(5000), &[]);

    // Every one of the 4096 /12s: a first level *shorter* than the /16
    // the table buckets by, exactly at the threshold, no miss anywhere.
    let twelves: Vec<(Ipv4Net, ServeLabel)> =
        (0..4096u32).map(|i| (v4(i << 20, 12), label(i))).collect();
    Case::new(&twelves, &[]).check(&scatter(20_000), &[]);
}

#[test]
fn dense_levels_that_are_not_the_first_search_eytzinger() {
    // v4: a thin /32 level first, so the 5000-entry /24 level behind it
    // is Eytzinger-ordered (> 4096 entries, no root table). v6 never
    // gets a root table; give it a dense /48 level behind a /64.
    let mut v4_entries = spread_24s(5000);
    v4_entries.push((v4(0x0102_0304, 32), label(300)));
    v4_entries.push((v4(0, 32), label(301)));
    v4_entries.push((v4(0, 0), label(302)));
    let base = 0x2a00_0000_0000_0000_0000_0000_0000_0000u128;
    let mut v6_entries: Vec<(Ipv6Net, ServeLabel)> = (0..5000u128)
        .map(|i| (v6(base + ((i * 7919) << 80), 48), label(i as u32 % 89)))
        .collect();
    v6_entries.push((v6(base + 0xdead_beef, 64), label(303)));
    v6_entries.push((v6(0, 48), label(304)));
    v6_entries.push((v6(u128::MAX, 48), label(305)));
    let case = Case::new(&v4_entries, &v6_entries);
    let probes6: Vec<u128> = (0..5000u128)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835))
        .collect();
    case.check(&scatter(20_000), &probes6);
}

fn arb_label() -> impl Strategy<Value = ServeLabel> {
    (0u32..50).prop_map(label)
}

proptest! {
    /// Arbitrary mixed-length prefix sets in both families, duplicates
    /// included (last wins), probed at every entry's boundaries plus
    /// random addresses.
    #[test]
    fn the_view_answers_like_the_trie(
        v4_raw in prop::collection::vec((any::<u32>(), 0u8..=32, arb_label()), 0..48),
        v6_raw in prop::collection::vec((any::<u128>(), 0u8..=128, arb_label()), 0..48),
        v4_probes in prop::collection::vec(any::<u32>(), 0..64),
        v6_probes in prop::collection::vec(any::<u128>(), 0..64),
    ) {
        let v4_entries: Vec<_> = v4_raw.iter().map(|&(a, len, l)| (v4(a, len), l)).collect();
        let v6_entries: Vec<_> = v6_raw.iter().map(|&(a, len, l)| (v6(a, len), l)).collect();
        Case::new(&v4_entries, &v6_entries).check(&v4_probes, &v6_probes);
    }
}
