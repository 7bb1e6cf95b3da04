use std::fmt;
use std::str::FromStr;

use crate::error::NetAddrError;
use crate::fmt_ipv6;

/// An IPv6 network prefix in CIDR form, e.g. `2001:db8::/48`.
///
/// Stored as a `u128` in host byte order with host bits cleared, mirroring
/// [`crate::Ipv4Net`]. Textual parsing accepts the standard compressed form
/// (`::` elision) but always prints the uncompressed form.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv6Net {
    addr: u128,
    len: u8,
}

impl Ipv6Net {
    /// Maximum prefix length for IPv6.
    pub const MAX_LEN: u8 = 128;

    /// Build a prefix, clearing host bits below the mask.
    pub fn new(addr: u128, len: u8) -> Result<Self, NetAddrError> {
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
    pub fn new_strict(addr: u128, len: u8) -> Result<Self, NetAddrError> {
        let net = Self::new(addr, len)?;
        if net.addr != addr {
            return Err(NetAddrError::HostBitsSet(format!(
                "{}/{len}",
                fmt_ipv6(addr)
            )));
        }
        Ok(net)
    }

    /// The canonical (masked) network address.
    #[inline]
    pub fn addr(&self) -> u128 {
        self.addr
    }

    /// The prefix length. (`len` here is CIDR terminology, not a
    /// container length, so no `is_empty` counterpart exists.)
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True only for `::/0`.
    #[inline]
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// Does the prefix cover the given address?
    #[inline]
    pub fn contains(&self, ip: u128) -> bool {
        ip & mask(self.len) == self.addr
    }

    /// Does `self` cover every address of `other`?
    #[inline]
    pub fn contains_net(&self, other: &Ipv6Net) -> bool {
        self.len <= other.len && other.addr & mask(self.len) == self.addr
    }

    /// Do the two prefixes share any address?
    #[inline]
    pub fn overlaps(&self, other: &Ipv6Net) -> bool {
        self.contains_net(other) || other.contains_net(self)
    }

    /// The immediately containing prefix, or `None` for the default route.
    pub fn supernet(&self) -> Option<Ipv6Net> {
        if self.len == 0 {
            None
        } else {
            Some(Self {
                addr: self.addr & mask(self.len - 1),
                len: self.len - 1,
            })
        }
    }

    /// Iterate over all subnets at prefix length `new_len` (empty iterator
    /// for invalid lengths). Capped to 2^20 subnets to keep accidental
    /// `::/0 → /48` enumerations from running forever; worldgen enumerates
    /// within operator allocations, which are far smaller.
    pub fn subnets(&self, new_len: u8) -> impl Iterator<Item = Ipv6Net> {
        const CAP: u128 = 1 << 20;
        let valid = new_len >= self.len && new_len <= Self::MAX_LEN;
        let count: u128 = if valid {
            (1u128 << (new_len - self.len).min(127)).min(CAP)
        } else {
            0
        };
        let base = self.addr;
        let step: u128 = if valid && new_len < 128 {
            1u128 << (128 - new_len)
        } else {
            1
        };
        (0..count).map(move |i| Ipv6Net {
            addr: base.wrapping_add(i * step),
            len: new_len,
        })
    }

    /// Number of /48 blocks this prefix spans (1 when the prefix is /48 or
    /// longer), capped at `u64::MAX` for very short prefixes.
    pub fn num_block48(&self) -> u64 {
        if self.len >= 48 {
            1
        } else {
            let shift = 48 - self.len;
            if shift >= 64 {
                u64::MAX
            } else {
                1u64 << shift
            }
        }
    }
}

#[inline]
fn mask(len: u8) -> u128 {
    debug_assert!(len <= 128);
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len)
    }
}

impl fmt::Display for Ipv6Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", fmt_ipv6(self.addr), self.len)
    }
}

impl fmt::Debug for Ipv6Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Ipv6Net {
    type Err = NetAddrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| NetAddrError::Parse(s.to_string()))?;
        let len: u8 = len_s
            .parse()
            .map_err(|_| NetAddrError::Parse(s.to_string()))?;
        let addr = parse_ipv6(addr_s).ok_or_else(|| NetAddrError::Parse(s.to_string()))?;
        Ipv6Net::new_strict(addr, len)
    }
}

/// Parse an IPv6 address, supporting one `::` elision. IPv4-mapped tails
/// (`::ffff:1.2.3.4`) are intentionally unsupported: they never appear in
/// the prefix lists this library consumes.
pub(crate) fn parse_ipv6(s: &str) -> Option<u128> {
    if s.is_empty() {
        return None;
    }
    let (head, tail) = match s.find("::") {
        Some(pos) => {
            // A second "::" is invalid.
            if s[pos + 2..].contains("::") {
                return None;
            }
            (&s[..pos], &s[pos + 2..])
        }
        None => (s, ""),
    };
    let parse_groups = |part: &str| -> Option<Vec<u16>> {
        if part.is_empty() {
            return Some(Vec::new());
        }
        part.split(':')
            .map(|g| {
                if g.is_empty() || g.len() > 4 {
                    None
                } else {
                    u16::from_str_radix(g, 16).ok()
                }
            })
            .collect()
    };
    let head_groups = parse_groups(head)?;
    let has_elision = s.contains("::");
    let tail_groups = if has_elision {
        parse_groups(tail)?
    } else {
        Vec::new()
    };
    let total = head_groups.len() + tail_groups.len();
    if (has_elision && total >= 8) || (!has_elision && head_groups.len() != 8) {
        return None;
    }
    let mut groups = [0u16; 8];
    for (i, g) in head_groups.iter().enumerate() {
        groups[i] = *g;
    }
    let offset = 8 - tail_groups.len();
    for (i, g) in tail_groups.iter().enumerate() {
        groups[offset + i] = *g;
    }
    let mut out: u128 = 0;
    for g in groups {
        out = (out << 16) | g as u128;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_compressed_forms() {
        assert_eq!(parse_ipv6("::"), Some(0));
        assert_eq!(parse_ipv6("::1"), Some(1));
        assert_eq!(parse_ipv6("1::"), Some(1u128 << 112));
        assert_eq!(
            parse_ipv6("2001:db8::1"),
            Some(0x2001_0db8_0000_0000_0000_0000_0000_0001)
        );
        assert_eq!(
            parse_ipv6("1:2:3:4:5:6:7:8"),
            Some(0x0001_0002_0003_0004_0005_0006_0007_0008)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "",
            ":::",
            "1::2::3",
            "1:2:3:4:5:6:7",     // seven groups, no elision
            "1:2:3:4:5:6:7:8:9", // nine groups
            "12345::",           // group too wide
            "g::1",              // non-hex
            "1:2:3:4:5:6:7:8::", // elision with 8 groups already
        ] {
            assert_eq!(parse_ipv6(s), None, "accepted {s:?}");
        }
    }

    #[test]
    fn net_parse_display_round_trip() {
        let net: Ipv6Net = "2001:db8::/48".parse().unwrap();
        assert_eq!(net.to_string(), "2001:db8:0:0:0:0:0:0/48");
        assert_eq!(net.len(), 48);
        let default: Ipv6Net = "::/0".parse().unwrap();
        assert!(default.is_default());
    }

    #[test]
    fn strict_rejects_host_bits() {
        assert!("2001:db8::1/48".parse::<Ipv6Net>().is_err());
        assert!("2001:db8::1/128".parse::<Ipv6Net>().is_ok());
    }

    #[test]
    fn containment() {
        let outer: Ipv6Net = "2001:db8::/32".parse().unwrap();
        let inner: Ipv6Net = "2001:db8:42::/48".parse().unwrap();
        assert!(outer.contains_net(&inner));
        assert!(!inner.contains_net(&outer));
        assert!(outer.contains(0x2001_0db8_ffff_0000_0000_0000_0000_0001));
        assert!(!outer.contains(0x2001_0db9_0000_0000_0000_0000_0000_0000));
    }

    #[test]
    fn subnets_enumeration_and_cap() {
        let net: Ipv6Net = "2001:db8::/46".parse().unwrap();
        let subs: Vec<_> = net.subnets(48).collect();
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[1].to_string(), "2001:db8:1:0:0:0:0:0/48");
        // The enumeration cap bounds pathological requests.
        let all: Ipv6Net = "::/0".parse().unwrap();
        assert_eq!(all.subnets(48).count(), 1 << 20);
    }

    #[test]
    fn block48_span() {
        assert_eq!("2001:db8::/48".parse::<Ipv6Net>().unwrap().num_block48(), 1);
        assert_eq!(
            "2001:db8::/32".parse::<Ipv6Net>().unwrap().num_block48(),
            1 << 16
        );
        assert_eq!("2001:db8::/64".parse::<Ipv6Net>().unwrap().num_block48(), 1);
    }
}
