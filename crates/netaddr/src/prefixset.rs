//! Normalized prefix sets: sorted, non-overlapping, maximally aggregated
//! collections of IPv4 prefixes.
//!
//! Carrier ground-truth lists and operator allocations arrive as
//! arbitrary, possibly overlapping CIDR lists; a [`Ipv4PrefixSet`]
//! canonicalizes them — two sets are equal iff they cover exactly the
//! same addresses — and supports fast membership tests over the merged
//! ranges.

use crate::Ipv4Net;

/// A canonicalized set of IPv4 addresses represented as the minimal list
/// of disjoint CIDR prefixes, sorted by address.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ipv4PrefixSet {
    prefixes: Vec<Ipv4Net>,
}

impl Ipv4PrefixSet {
    /// An empty set.
    pub fn new() -> Self {
        Ipv4PrefixSet::default()
    }

    /// Build from any collection of prefixes: overlaps are merged,
    /// adjacent aligned prefixes are aggregated, and the result is the
    /// unique minimal representation.
    pub fn from_prefixes(prefixes: impl IntoIterator<Item = Ipv4Net>) -> Self {
        // 1. Convert to inclusive address ranges and merge.
        let mut ranges: Vec<(u32, u32)> = prefixes
            .into_iter()
            .map(|p| (p.first(), p.last()))
            .collect();
        ranges.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(ranges.len());
        for (start, end) in ranges {
            match merged.last_mut() {
                // Extend when overlapping or exactly adjacent.
                Some((_, last_end))
                    if start <= last_end.saturating_add(1)
                        && *last_end >= start.saturating_sub(1) =>
                {
                    if end > *last_end {
                        *last_end = end;
                    }
                }
                _ => merged.push((start, end)),
            }
        }
        // 2. Minimal CIDR cover per merged range.
        let mut prefixes = Vec::new();
        for (start, end) in merged {
            cover_range(start, end, &mut prefixes);
        }
        Ipv4PrefixSet { prefixes }
    }

    /// The canonical prefixes, ascending and disjoint.
    pub fn prefixes(&self) -> &[Ipv4Net] {
        &self.prefixes
    }

    /// Number of prefixes in the canonical representation.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// True when the set covers no addresses.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// Total number of addresses covered.
    pub fn num_addresses(&self) -> u64 {
        self.prefixes.iter().map(|p| p.num_addresses()).sum()
    }

    /// Does the set contain the address? Binary search over the sorted
    /// disjoint prefixes.
    pub fn contains(&self, ip: u32) -> bool {
        // partition_point: first prefix whose network address exceeds ip.
        let idx = self.prefixes.partition_point(|p| p.first() <= ip);
        idx > 0 && self.prefixes[idx - 1].contains(ip)
    }

    /// Does the set fully cover the given prefix?
    pub fn contains_net(&self, net: &Ipv4Net) -> bool {
        // A canonical set covers `net` iff one canonical prefix does:
        // merged ranges are maximal, so coverage cannot be split across
        // two disjoint canonical prefixes without a gap.
        let idx = self.prefixes.partition_point(|p| p.first() <= net.first());
        idx > 0 && self.prefixes[idx - 1].contains_net(net)
    }

    /// Set union.
    pub fn union(&self, other: &Ipv4PrefixSet) -> Ipv4PrefixSet {
        Ipv4PrefixSet::from_prefixes(self.prefixes.iter().chain(other.prefixes.iter()).copied())
    }
}

impl FromIterator<Ipv4Net> for Ipv4PrefixSet {
    fn from_iter<T: IntoIterator<Item = Ipv4Net>>(iter: T) -> Self {
        Ipv4PrefixSet::from_prefixes(iter)
    }
}

/// Append the minimal CIDR cover of the inclusive range `[start, end]`.
fn cover_range(mut start: u32, end: u32, out: &mut Vec<Ipv4Net>) {
    loop {
        // Largest prefix aligned at `start` that does not overshoot `end`.
        let max_align = if start == 0 {
            32
        } else {
            start.trailing_zeros()
        };
        let span = (end - start) as u64 + 1;
        let max_size = 63 - span.leading_zeros() as u64; // floor(log2(span))
        let size_log = (max_align as u64).min(max_size).min(32) as u32;
        let len = (32 - size_log) as u8;
        out.push(Ipv4Net::new(start, len).expect("length derived within bounds"));
        let step = 1u64 << size_log;
        let next = start as u64 + step;
        if next > end as u64 {
            break;
        }
        start = next as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(prefixes: &[&str]) -> Ipv4PrefixSet {
        Ipv4PrefixSet::from_prefixes(prefixes.iter().map(|s| s.parse().unwrap()))
    }

    #[test]
    fn merges_adjacent_and_overlapping() {
        // Two adjacent /25s aggregate into one /24.
        let s = set(&["10.0.0.0/25", "10.0.0.128/25"]);
        assert_eq!(s.prefixes().len(), 1);
        assert_eq!(s.prefixes()[0].to_string(), "10.0.0.0/24");
        // Contained prefixes disappear.
        let s = set(&["10.0.0.0/8", "10.1.0.0/16"]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.prefixes()[0].to_string(), "10.0.0.0/8");
        // Four consecutive /24s merge into a /22.
        let s = set(&["10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"]);
        assert_eq!(s.prefixes()[0].to_string(), "10.0.0.0/22");
    }

    #[test]
    fn unaligned_adjacency_keeps_minimal_cover() {
        // /24s at indices 1..=2 cannot merge into one prefix (misaligned).
        let s = set(&["10.0.1.0/24", "10.0.2.0/24"]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_addresses(), 512);
    }

    #[test]
    fn membership() {
        let s = set(&["10.0.0.0/24", "192.168.0.0/16"]);
        assert!(s.contains(0x0A000001));
        assert!(s.contains(0xC0A8FFFF));
        assert!(!s.contains(0x0A000100));
        assert!(!s.contains(0x0B000000));
        assert!(s.contains_net(&"192.168.5.0/24".parse().unwrap()));
        assert!(!s.contains_net(&"192.0.0.0/8".parse().unwrap()));
    }

    #[test]
    fn canonical_equality() {
        let a = set(&["10.0.0.0/25", "10.0.0.128/25", "10.0.1.0/24"]);
        let b = set(&["10.0.0.0/23"]);
        assert_eq!(a, b);
        assert_eq!(a.num_addresses(), 512);
    }

    #[test]
    fn union_and_empty() {
        let a = set(&["10.0.0.0/24"]);
        let b = set(&["10.0.1.0/24"]);
        let u = a.union(&b);
        assert_eq!(u, set(&["10.0.0.0/23"]));
        let e = Ipv4PrefixSet::new();
        assert!(e.is_empty());
        assert_eq!(e.num_addresses(), 0);
        assert!(!e.contains(0));
        assert_eq!(e.union(&a), a);
    }

    #[test]
    fn full_space_round_trip() {
        let s = set(&["0.0.0.0/0"]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.num_addresses(), 1u64 << 32);
        assert!(s.contains(0));
        assert!(s.contains(u32::MAX));
        // Two halves merge back into the default route.
        let halves = set(&["0.0.0.0/1", "128.0.0.0/1"]);
        assert_eq!(halves, s);
    }

    #[test]
    fn top_edge_of_space() {
        // Ranges ending at u32::MAX must not overflow.
        let s = set(&["255.255.255.0/24", "255.255.254.0/24"]);
        assert_eq!(s.prefixes()[0].to_string(), "255.255.254.0/23");
        assert!(s.contains(u32::MAX));
    }
}
