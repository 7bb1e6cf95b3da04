use crate::{Ipv4Net, Ipv6Net};

/// A binary radix trie over left-aligned 128-bit keys with longest-prefix
/// match.
///
/// Both address families are represented in the same node layout: IPv4
/// prefixes are shifted into the top 32 bits of the key. A single trie must
/// hold only one family — [`DualPrefixTrie`] wraps a pair when both are
/// needed, which is the common case for carrier ground-truth lookups.
///
/// The node pool is a flat `Vec`, children are indices; this keeps the trie
/// compact, serializable, and free of unsafe code or pointer juggling —
/// simplicity and robustness over micro-optimization, per the smoltcp
/// design philosophy this workspace follows.
#[derive(Clone, Debug, Default)]
pub struct PrefixTrie<V> {
    nodes: Vec<Node>,
    values: Vec<Entry<V>>,
}

#[derive(Clone, Debug)]
struct Node {
    /// Child node indices for bit 0 / bit 1; `u32::MAX` means absent.
    children: [u32; 2],
    /// Index into `values`, or `u32::MAX` when no prefix terminates here.
    value: u32,
}

const NONE: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Entry<V> {
    bits: u128,
    len: u8,
    value: V,
}

impl Node {
    fn empty() -> Self {
        Node {
            children: [NONE, NONE],
            value: NONE,
        }
    }
}

impl<V> PrefixTrie<V> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::empty()],
            values: Vec::new(),
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Insert a prefix given as left-aligned bits + length. Replaces and
    /// returns the previous value if the exact prefix was already present.
    pub fn insert_bits(&mut self, bits: u128, len: u8, value: V) -> Option<V> {
        debug_assert!(len <= 128);
        debug_assert_eq!(bits & mask_low(len), 0, "host bits set below mask");
        let mut node = 0usize;
        for i in 0..len {
            let bit = ((bits >> (127 - i)) & 1) as usize;
            let child = self.nodes[node].children[bit];
            node = if child == NONE {
                self.nodes.push(Node::empty());
                let idx = (self.nodes.len() - 1) as u32;
                self.nodes[node].children[bit] = idx;
                idx as usize
            } else {
                child as usize
            };
        }
        let slot = self.nodes[node].value;
        if slot == NONE {
            self.values.push(Entry { bits, len, value });
            self.nodes[node].value = (self.values.len() - 1) as u32;
            None
        } else {
            let entry = &mut self.values[slot as usize];
            Some(std::mem::replace(&mut entry.value, value))
        }
    }

    /// Exact-match lookup of a prefix.
    pub fn get_bits(&self, bits: u128, len: u8) -> Option<&V> {
        let mut node = 0usize;
        for i in 0..len {
            let bit = ((bits >> (127 - i)) & 1) as usize;
            let child = self.nodes[node].children[bit];
            if child == NONE {
                return None;
            }
            node = child as usize;
        }
        let slot = self.nodes[node].value;
        if slot == NONE {
            None
        } else {
            Some(&self.values[slot as usize].value)
        }
    }

    /// Longest-prefix match for a full 128-bit key. Returns the matched
    /// prefix (as bits + length) and its value.
    pub fn lookup_bits(&self, key: u128) -> Option<((u128, u8), &V)> {
        let mut node = 0usize;
        let mut best: Option<u32> = slot_of(&self.nodes[0]);
        for i in 0..128u8 {
            let bit = ((key >> (127 - i)) & 1) as usize;
            let child = self.nodes[node].children[bit];
            if child == NONE {
                break;
            }
            node = child as usize;
            if let Some(slot) = slot_of(&self.nodes[node]) {
                best = Some(slot);
            }
        }
        best.map(|slot| {
            let e = &self.values[slot as usize];
            ((e.bits, e.len), &e.value)
        })
    }

    /// Iterate over all stored `(bits, len, value)` entries in insertion
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u128, u8, &V)> {
        self.values.iter().map(|e| (e.bits, e.len, &e.value))
    }
}

fn slot_of(node: &Node) -> Option<u32> {
    if node.value == NONE {
        None
    } else {
        Some(node.value)
    }
}

/// Low `128 - len` bits set — the host-bit mask for a left-aligned prefix.
#[inline]
fn mask_low(len: u8) -> u128 {
    if len == 0 {
        u128::MAX
    } else if len >= 128 {
        0
    } else {
        u128::MAX >> len
    }
}

/// Left-align an IPv4 prefix into the 128-bit key space.
#[inline]
fn v4_bits(net: &Ipv4Net) -> u128 {
    (net.addr() as u128) << 96
}

/// Left-align an IPv4 address into the 128-bit key space.
#[inline]
fn v4_key(addr: u32) -> u128 {
    (addr as u128) << 96
}

impl<V> PrefixTrie<V> {
    /// Insert an IPv4 prefix.
    pub fn insert(&mut self, net: Ipv4Net, value: V) -> Option<V> {
        self.insert_bits(v4_bits(&net), net.len(), value)
    }

    /// Insert an IPv6 prefix.
    pub fn insert_v6(&mut self, net: Ipv6Net, value: V) -> Option<V> {
        self.insert_bits(net.addr(), net.len(), value)
    }

    /// Longest-prefix match for an IPv4 address; the trie must contain only
    /// IPv4 prefixes for the result to be meaningful.
    pub fn lookup_v4(&self, addr: u32) -> Option<(Ipv4Net, &V)> {
        self.lookup_bits(v4_key(addr)).map(|((bits, len), v)| {
            let net = Ipv4Net::new((bits >> 96) as u32, len)
                .expect("stored IPv4 prefix lengths are always ≤ 32");
            (net, v)
        })
    }

    /// Longest-prefix match for an IPv6 address; the trie must contain only
    /// IPv6 prefixes for the result to be meaningful.
    pub fn lookup_v6(&self, addr: u128) -> Option<(Ipv6Net, &V)> {
        self.lookup_bits(addr).map(|((bits, len), v)| {
            let net = Ipv6Net::new(bits, len).expect("stored IPv6 prefix lengths are always ≤ 128");
            (net, v)
        })
    }

    /// Exact-match lookup of an IPv4 prefix.
    pub fn get(&self, net: &Ipv4Net) -> Option<&V> {
        self.get_bits(v4_bits(net), net.len())
    }

    /// Exact-match lookup of an IPv6 prefix.
    pub fn get_v6(&self, net: &Ipv6Net) -> Option<&V> {
        self.get_bits(net.addr(), net.len())
    }
}

/// A pair of tries, one per address family, with family-dispatching
/// operations. This is what consumers use for ground-truth prefix lists
/// that mix IPv4 and IPv6 CIDRs.
#[derive(Clone, Debug, Default)]
pub struct DualPrefixTrie<V> {
    /// IPv4 prefixes.
    pub v4: PrefixTrie<V>,
    /// IPv6 prefixes.
    pub v6: PrefixTrie<V>,
}

impl<V> DualPrefixTrie<V> {
    /// An empty pair of tries.
    pub fn new() -> Self {
        DualPrefixTrie {
            v4: PrefixTrie::new(),
            v6: PrefixTrie::new(),
        }
    }

    /// Total number of stored prefixes across both families.
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// True when no prefixes are stored in either family.
    pub fn is_empty(&self) -> bool {
        self.v4.is_empty() && self.v6.is_empty()
    }

    /// Insert an IPv4 prefix.
    pub fn insert_v4(&mut self, net: Ipv4Net, value: V) -> Option<V> {
        self.v4.insert(net, value)
    }

    /// Insert an IPv6 prefix.
    pub fn insert_v6(&mut self, net: Ipv6Net, value: V) -> Option<V> {
        self.v6.insert_v6(net, value)
    }

    /// Longest-prefix match for an IPv4 address.
    pub fn lookup_v4(&self, addr: u32) -> Option<(Ipv4Net, &V)> {
        self.v4.lookup_v4(addr)
    }

    /// Longest-prefix match for an IPv6 address.
    pub fn lookup_v6(&self, addr: u128) -> Option<(Ipv6Net, &V)> {
        self.v6.lookup_v6(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trie_matches_nothing() {
        let trie: PrefixTrie<u32> = PrefixTrie::new();
        assert!(trie.is_empty());
        assert!(trie.lookup_v4(0x01020304).is_none());
        assert!(trie.lookup_v6(1).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut trie = PrefixTrie::new();
        trie.insert("0.0.0.0/0".parse().unwrap(), "default");
        let (net, v) = trie.lookup_v4(0xDEADBEEF).unwrap();
        assert_eq!(net.to_string(), "0.0.0.0/0");
        assert_eq!(*v, "default");
    }

    #[test]
    fn longest_prefix_wins() {
        let mut trie = PrefixTrie::new();
        trie.insert("10.0.0.0/8".parse().unwrap(), 8);
        trie.insert("10.1.0.0/16".parse().unwrap(), 16);
        trie.insert("10.1.2.0/24".parse().unwrap(), 24);
        assert_eq!(trie.lookup_v4(0x0A010203).map(|(_, v)| *v), Some(24));
        assert_eq!(trie.lookup_v4(0x0A01FF00).map(|(_, v)| *v), Some(16));
        assert_eq!(trie.lookup_v4(0x0AFF0000).map(|(_, v)| *v), Some(8));
        assert_eq!(trie.lookup_v4(0x0B000000), None);
    }

    #[test]
    fn insert_replaces_and_returns_old_value() {
        let mut trie = PrefixTrie::new();
        let net: Ipv4Net = "192.0.2.0/24".parse().unwrap();
        assert_eq!(trie.insert(net, 1), None);
        assert_eq!(trie.insert(net, 2), Some(1));
        assert_eq!(trie.get(&net), Some(&2));
        assert_eq!(trie.len(), 1);
    }

    #[test]
    fn exact_get_does_not_fall_back() {
        let mut trie = PrefixTrie::new();
        trie.insert("10.0.0.0/8".parse().unwrap(), 8);
        assert_eq!(trie.get(&"10.1.0.0/16".parse().unwrap()), None);
        assert_eq!(trie.get(&"10.0.0.0/8".parse().unwrap()), Some(&8));
    }

    #[test]
    fn v6_lookup() {
        let mut trie = PrefixTrie::new();
        trie.insert_v6("2001:db8::/32".parse().unwrap(), "doc");
        trie.insert_v6("2001:db8:42::/48".parse().unwrap(), "sub");
        let hit = trie
            .lookup_v6(0x2001_0db8_0042_0000_0000_0000_0000_0001)
            .unwrap();
        assert_eq!(*hit.1, "sub");
        let hit = trie
            .lookup_v6(0x2001_0db8_9999_0000_0000_0000_0000_0001)
            .unwrap();
        assert_eq!(*hit.1, "doc");
    }

    #[test]
    fn host_route_matches_only_itself() {
        let mut trie = PrefixTrie::new();
        trie.insert("192.0.2.1/32".parse().unwrap(), ());
        assert!(trie.lookup_v4(0xC0000201).is_some());
        assert!(trie.lookup_v4(0xC0000202).is_none());
    }

    #[test]
    fn dual_trie_dispatch() {
        let mut dual = DualPrefixTrie::new();
        dual.insert_v4("198.51.100.0/24".parse().unwrap(), "v4");
        dual.insert_v6("2001:db8::/48".parse().unwrap(), "v6");
        assert_eq!(dual.len(), 2);
        assert_eq!(dual.lookup_v4(0xC6336405).map(|(_, v)| *v), Some("v4"));
        assert_eq!(
            dual.lookup_v6(0x2001_0db8_0000_0000_0000_0000_0000_0001)
                .map(|(_, v)| *v),
            Some("v6")
        );
        assert_eq!(dual.lookup_v4(0x01010101), None);
    }

    #[test]
    fn iter_returns_all_entries() {
        let mut trie = PrefixTrie::new();
        trie.insert("10.0.0.0/8".parse().unwrap(), 1);
        trie.insert("172.16.0.0/12".parse().unwrap(), 2);
        let collected: Vec<_> = trie.iter().map(|(_, len, v)| (len, *v)).collect();
        assert_eq!(collected, vec![(8, 1), (12, 2)]);
    }
}
