use std::fmt;

use crate::{Ipv4Net, Ipv6Net};

/// A /24 IPv4 aggregation block — the paper's unit of IPv4 measurement.
///
/// Stored as the upper 24 bits of the network address, so the full range of
/// blocks fits in `0..2^24` and the type can be used directly as a dense
/// array index or sort key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Block24(u32);

impl Block24 {
    /// Build from the upper-24-bit index (i.e. `network_address >> 8`).
    ///
    /// Values above 2^24 − 1 are masked, preserving the dense-index
    /// invariant.
    #[inline]
    pub fn from_index(index: u32) -> Self {
        Block24(index & 0x00FF_FFFF)
    }

    /// The block containing a raw IPv4 address.
    #[inline]
    pub fn of_addr(addr: u32) -> Self {
        Block24(addr >> 8)
    }

    /// The block containing the network address of a prefix of length ≥ 24;
    /// for shorter prefixes, the first /24 inside it.
    #[inline]
    pub fn of_net(net: &Ipv4Net) -> Self {
        Self::of_addr(net.addr())
    }

    /// Dense index in `0..2^24`.
    #[inline]
    pub fn index(&self) -> u32 {
        self.0
    }

    /// The first address in the block.
    #[inline]
    pub fn base_addr(&self) -> u32 {
        self.0 << 8
    }

    /// The block as a /24 prefix.
    #[inline]
    pub fn network(&self) -> Ipv4Net {
        Ipv4Net::new(self.base_addr(), 24).expect("24 is a valid IPv4 prefix length")
    }

    /// The `i`-th address inside the block (`i` is truncated to 8 bits).
    #[inline]
    pub fn addr(&self, i: u8) -> u32 {
        self.base_addr() | i as u32
    }

    /// The next block in address order, wrapping at the top of the space.
    #[inline]
    pub fn next(&self) -> Block24 {
        Block24((self.0 + 1) & 0x00FF_FFFF)
    }

    /// Minimal CIDR cover of a contiguous run of `count` /24 blocks
    /// starting at `start`: the shortest list of prefixes (each /24 or
    /// shorter) whose union is exactly the run.
    ///
    /// Used to express operators' contiguous allocations as the kind of
    /// mixed-length CIDR lists carriers hand out as ground truth.
    pub fn cover(start: Block24, count: u32) -> Vec<Ipv4Net> {
        let mut out = Vec::new();
        let mut idx = start.index();
        let mut left = count;
        while left > 0 {
            // Largest power-of-two run that is both aligned at `idx` and
            // no longer than what remains.
            let align = if idx == 0 { 24 } else { idx.trailing_zeros() };
            let size_log = align.min(31 - left.leading_zeros()).min(24);
            let run = 1u32 << size_log;
            let len = 24 - size_log as u8;
            out.push(Ipv4Net::new(idx << 8, len).expect("cover lengths are always within 0..=24"));
            idx += run;
            left -= run;
        }
        out
    }
}

impl fmt::Display for Block24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.network())
    }
}

impl fmt::Debug for Block24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A /48 IPv6 aggregation block — the paper's unit of IPv6 measurement.
///
/// Stored as the upper 48 bits of the network address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Block48(u64);

impl Block48 {
    /// Build from the upper-48-bit index (`network_address >> 80`).
    #[inline]
    pub fn from_index(index: u64) -> Self {
        Block48(index & 0x0000_FFFF_FFFF_FFFF)
    }

    /// The block containing a raw IPv6 address.
    #[inline]
    pub fn of_addr(addr: u128) -> Self {
        Block48((addr >> 80) as u64)
    }

    /// The block containing the network address of a prefix.
    #[inline]
    pub fn of_net(net: &Ipv6Net) -> Self {
        Self::of_addr(net.addr())
    }

    /// Dense index in `0..2^48`.
    #[inline]
    pub fn index(&self) -> u64 {
        self.0
    }

    /// The first address in the block.
    #[inline]
    pub fn base_addr(&self) -> u128 {
        (self.0 as u128) << 80
    }

    /// The block as a /48 prefix.
    #[inline]
    pub fn network(&self) -> Ipv6Net {
        Ipv6Net::new(self.base_addr(), 48).expect("48 is a valid IPv6 prefix length")
    }

    /// A host address inside the block: interface id `iid` within subnet
    /// `subnet` (the 16 bits right of the /48 boundary).
    #[inline]
    pub fn addr(&self, subnet: u16, iid: u64) -> u128 {
        self.base_addr() | ((subnet as u128) << 64) | iid as u128
    }
}

impl fmt::Display for Block48 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.network())
    }
}

impl fmt::Debug for Block48 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Either kind of aggregation block. All measurement datasets key on this.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum BlockId {
    /// An IPv4 /24 block.
    V4(Block24),
    /// An IPv6 /48 block.
    V6(Block48),
}

impl BlockId {
    /// Is this an IPv4 block?
    #[inline]
    pub fn is_v4(&self) -> bool {
        matches!(self, BlockId::V4(_))
    }

    /// Is this an IPv6 block?
    #[inline]
    pub fn is_v6(&self) -> bool {
        matches!(self, BlockId::V6(_))
    }

    /// The IPv4 block, if this is one.
    #[inline]
    pub fn as_v4(&self) -> Option<Block24> {
        match self {
            BlockId::V4(b) => Some(*b),
            BlockId::V6(_) => None,
        }
    }

    /// The IPv6 block, if this is one.
    #[inline]
    pub fn as_v6(&self) -> Option<Block48> {
        match self {
            BlockId::V4(_) => None,
            BlockId::V6(b) => Some(*b),
        }
    }
}

impl From<Block24> for BlockId {
    fn from(b: Block24) -> Self {
        BlockId::V4(b)
    }
}

impl From<Block48> for BlockId {
    fn from(b: Block48) -> Self {
        BlockId::V6(b)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockId::V4(b) => write!(f, "{b}"),
            BlockId::V6(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block24_round_trip() {
        let b = Block24::of_addr(0xCB007105); // 203.0.113.5
        assert_eq!(b.to_string(), "203.0.113.0/24");
        assert_eq!(b.base_addr(), 0xCB007100);
        assert_eq!(b.addr(5), 0xCB007105);
        assert_eq!(Block24::of_net(&b.network()), b);
        assert_eq!(Block24::from_index(b.index()), b);
    }

    #[test]
    fn cover_produces_minimal_exact_cover() {
        // 10.0.0.0 is index 0x0A0000; a run of 5 blocks from an aligned
        // start covers as /22 + /24.
        let start = Block24::from_index(0x0A0000);
        let cover = Block24::cover(start, 5);
        let strs: Vec<String> = cover.iter().map(|n| n.to_string()).collect();
        assert_eq!(strs, vec!["10.0.0.0/22", "10.0.4.0/24"]);

        // Unaligned start forces /24s until alignment is reached.
        let cover = Block24::cover(Block24::from_index(0x0A0001), 7);
        let total: u64 = cover.iter().map(|n| n.num_block24()).sum();
        assert_eq!(total, 7);
        for w in cover.windows(2) {
            assert!(!w[0].overlaps(&w[1]));
        }
        // Every covered block maps back into the run.
        for net in &cover {
            let first = Block24::of_net(net).index();
            assert!((0x0A0001..0x0A0001 + 7).contains(&first));
        }

        assert!(Block24::cover(start, 0).is_empty());
        // A run of 1 is a single /24.
        assert_eq!(Block24::cover(start, 1)[0].len(), 24);
    }

    #[test]
    fn block24_next_wraps() {
        let last = Block24::from_index(0x00FF_FFFF);
        assert_eq!(last.next(), Block24::from_index(0));
    }

    #[test]
    fn block48_round_trip() {
        let net: Ipv6Net = "2001:db8:42::/48".parse().unwrap();
        let b = Block48::of_net(&net);
        assert_eq!(b.network(), net);
        assert_eq!(Block48::from_index(b.index()), b);
        let host = b.addr(7, 0x1234);
        assert!(net.contains(host));
        assert_eq!(Block48::of_addr(host), b);
    }

    #[test]
    fn block_id_accessors() {
        let v4: BlockId = Block24::of_addr(0x01020304).into();
        let v6: BlockId = Block48::of_addr(0x2001_0db8 << 96).into();
        assert!(v4.is_v4() && !v4.is_v6());
        assert!(v6.is_v6() && !v6.is_v4());
        assert!(v4.as_v4().is_some() && v4.as_v6().is_none());
        assert!(v6.as_v6().is_some() && v6.as_v4().is_none());
    }

    #[test]
    fn block_id_orders_v4_before_v6() {
        let v4: BlockId = Block24::from_index(u32::MAX >> 8).into();
        let v6: BlockId = Block48::from_index(0).into();
        assert!(v4 < v6);
    }
}
