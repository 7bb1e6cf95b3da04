use std::fmt;
use std::str::FromStr;

use crate::error::NetAddrError;
use crate::fmt_ipv4;

/// An IPv4 network prefix in CIDR form, e.g. `203.0.113.0/24`.
///
/// The address is stored in host byte order with all host bits cleared —
/// the type maintains the invariant `addr & !mask == 0`, so two prefixes
/// are equal iff they describe the same set of addresses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Net {
    addr: u32,
    len: u8,
}

impl Ipv4Net {
    /// Maximum prefix length for IPv4.
    pub const MAX_LEN: u8 = 32;

    /// Build a prefix, silently clearing any host bits below the mask.
    ///
    /// # Errors
    /// Returns [`NetAddrError::BadPrefixLen`] if `len > 32`.
    pub fn new(addr: u32, len: u8) -> Result<Self, NetAddrError> {
        if len > Self::MAX_LEN {
            return Err(NetAddrError::BadPrefixLen {
                len,
                max: Self::MAX_LEN,
            });
        }
        Ok(Self {
            addr: addr & mask(len),
            len,
        })
    }

    /// Build a prefix, rejecting inputs with host bits set.
    ///
    /// Use this when parsing external data where `10.1.2.3/8` is more likely
    /// a transcription error than an intentional network address.
    pub fn new_strict(addr: u32, len: u8) -> Result<Self, NetAddrError> {
        let net = Self::new(addr, len)?;
        if net.addr != addr {
            return Err(NetAddrError::HostBitsSet(format!(
                "{}/{len}",
                fmt_ipv4(addr)
            )));
        }
        Ok(net)
    }

    /// The canonical (masked) network address.
    #[inline]
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The prefix length. (`len` here is CIDR terminology, not a
    /// container length, so no `is_empty` counterpart exists.)
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True only for the default route `0.0.0.0/0`.
    #[inline]
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// The network mask as a `u32`.
    #[inline]
    pub fn mask(&self) -> u32 {
        mask(self.len)
    }

    /// First address covered by the prefix (the network address itself).
    #[inline]
    pub fn first(&self) -> u32 {
        self.addr
    }

    /// Last address covered by the prefix (the broadcast address for
    /// conventional subnets).
    #[inline]
    pub fn last(&self) -> u32 {
        self.addr | !mask(self.len)
    }

    /// Number of addresses covered, saturating at `u64::MAX` is unnecessary
    /// since 2^32 fits in `u64`.
    #[inline]
    pub fn num_addresses(&self) -> u64 {
        1u64 << (Self::MAX_LEN - self.len)
    }

    /// Does the prefix cover the given address?
    #[inline]
    pub fn contains(&self, ip: u32) -> bool {
        ip & mask(self.len) == self.addr
    }

    /// Does `self` cover every address of `other`?
    #[inline]
    pub fn contains_net(&self, other: &Ipv4Net) -> bool {
        self.len <= other.len && other.addr & mask(self.len) == self.addr
    }

    /// Do the two prefixes share any address?
    #[inline]
    pub fn overlaps(&self, other: &Ipv4Net) -> bool {
        self.contains_net(other) || other.contains_net(self)
    }

    /// The immediately containing prefix (one bit shorter), or `None` for
    /// the default route.
    pub fn supernet(&self) -> Option<Ipv4Net> {
        if self.len == 0 {
            None
        } else {
            Some(Self {
                addr: self.addr & mask(self.len - 1),
                len: self.len - 1,
            })
        }
    }

    /// Iterate over all subnets of `self` at prefix length `new_len`.
    ///
    /// Returns an empty iterator when `new_len < self.len` or `new_len > 32`.
    pub fn subnets(&self, new_len: u8) -> impl Iterator<Item = Ipv4Net> {
        let valid = new_len >= self.len && new_len <= Self::MAX_LEN;
        let count: u64 = if valid {
            1u64 << (new_len - self.len)
        } else {
            0
        };
        let base = self.addr;
        let step: u64 = if valid && new_len < 32 {
            1u64 << (32 - new_len)
        } else {
            1
        };
        (0..count).map(move |i| Ipv4Net {
            addr: base.wrapping_add((i * step) as u32),
            len: new_len,
        })
    }

    /// Number of /24 blocks this prefix spans (0 if longer than /24 yet
    /// not aligned — a prefix longer than /24 still lies inside exactly one
    /// /24, and we report 1 in that case).
    pub fn num_block24(&self) -> u64 {
        if self.len >= 24 {
            1
        } else {
            1u64 << (24 - self.len)
        }
    }
}

/// Network mask for a prefix length, `mask(0) == 0`, `mask(32) == !0`.
#[inline]
fn mask(len: u8) -> u32 {
    debug_assert!(len <= 32);
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", fmt_ipv4(self.addr), self.len)
    }
}

impl fmt::Debug for Ipv4Net {
    // Debug renders the CIDR form: strictly more readable in test output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Ipv4Net {
    type Err = NetAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| NetAddrError::Parse(s.to_string()))?;
        let len: u8 = len_s
            .parse()
            .map_err(|_| NetAddrError::Parse(s.to_string()))?;
        let addr = parse_ipv4(addr_s).ok_or_else(|| NetAddrError::Parse(s.to_string()))?;
        Ipv4Net::new_strict(addr, len)
    }
}

/// Parse a dotted-quad IPv4 address into host byte order.
pub(crate) fn parse_ipv4(s: &str) -> Option<u32> {
    let mut out: u32 = 0;
    let mut octets = 0;
    for part in s.split('.') {
        if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let v: u32 = part.parse().ok()?;
        if v > 255 {
            return None;
        }
        out = (out << 8) | v;
        octets += 1;
    }
    if octets == 4 {
        Some(out)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "203.0.113.0/24", "192.0.2.1/32"] {
            let net: Ipv4Net = s.parse().unwrap();
            assert_eq!(net.to_string(), s);
        }
    }

    #[test]
    fn strict_rejects_host_bits() {
        assert!(matches!(
            "10.0.0.1/8".parse::<Ipv4Net>(),
            Err(NetAddrError::HostBitsSet(_))
        ));
        // Non-strict clears them instead.
        let net = Ipv4Net::new(0x0A000001, 8).unwrap();
        assert_eq!(net.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "10.0.0.0",     // missing length
            "10.0.0/8",     // three octets
            "10.0.0.0.0/8", // five octets
            "10.0.0.256/8", // octet out of range
            "10.0.0.0/33",  // length out of range
            "10.0.0.0/x",   // non-numeric length
            "10.0.0.+1/8",  // sign not allowed
            "",             // empty
        ] {
            assert!(s.parse::<Ipv4Net>().is_err(), "accepted {s:?}");
        }
    }

    #[test]
    fn containment() {
        let outer: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let inner: Ipv4Net = "10.1.0.0/16".parse().unwrap();
        let other: Ipv4Net = "11.0.0.0/8".parse().unwrap();
        assert!(outer.contains_net(&inner));
        assert!(!inner.contains_net(&outer));
        assert!(outer.overlaps(&inner));
        assert!(inner.overlaps(&outer));
        assert!(!outer.overlaps(&other));
        assert!(outer.contains(0x0AFFFFFF));
        assert!(!outer.contains(0x0B000000));
    }

    #[test]
    fn first_last_count() {
        let net: Ipv4Net = "203.0.113.0/24".parse().unwrap();
        assert_eq!(net.first(), 0xCB007100);
        assert_eq!(net.last(), 0xCB0071FF);
        assert_eq!(net.num_addresses(), 256);
        let all: Ipv4Net = "0.0.0.0/0".parse().unwrap();
        assert_eq!(all.num_addresses(), 1u64 << 32);
    }

    #[test]
    fn supernet_chain_reaches_default() {
        let mut net: Ipv4Net = "203.0.113.0/24".parse().unwrap();
        let mut steps = 0;
        while let Some(up) = net.supernet() {
            assert!(up.contains_net(&net));
            net = up;
            steps += 1;
        }
        assert_eq!(steps, 24);
        assert!(net.is_default());
    }

    #[test]
    fn subnets_enumeration() {
        let net: Ipv4Net = "10.0.0.0/22".parse().unwrap();
        let subs: Vec<_> = net.subnets(24).collect();
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0].to_string(), "10.0.0.0/24");
        assert_eq!(subs[3].to_string(), "10.0.3.0/24");
        // Degenerate requests yield nothing.
        assert_eq!(net.subnets(8).count(), 0);
        assert_eq!(net.subnets(40).count(), 0);
        // Same-length request yields the prefix itself.
        assert_eq!(net.subnets(22).collect::<Vec<_>>(), vec![net]);
    }

    #[test]
    fn block24_span() {
        assert_eq!("10.0.0.0/22".parse::<Ipv4Net>().unwrap().num_block24(), 4);
        assert_eq!("10.0.0.0/24".parse::<Ipv4Net>().unwrap().num_block24(), 1);
        assert_eq!("10.0.0.0/30".parse::<Ipv4Net>().unwrap().num_block24(), 1);
        assert_eq!(
            "0.0.0.0/0".parse::<Ipv4Net>().unwrap().num_block24(),
            1 << 24
        );
    }

    #[test]
    fn ordering_is_by_address_then_length() {
        let a: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let b: Ipv4Net = "10.0.0.0/16".parse().unwrap();
        let c: Ipv4Net = "11.0.0.0/8".parse().unwrap();
        assert!(a < b && b < c);
    }
}
