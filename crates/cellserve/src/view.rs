//! The read API over a serving index.
//!
//! [`IndexView`] is the borrowed trait every consumer of a loaded
//! artifact programs against. It has one implementation —
//! [`MappedIndex`](crate::MappedIndex) over validated v2 bytes, which
//! [`ArtifactHandle`](crate::ArtifactHandle) is the owning form of —
//! plus the `&V` / `Arc<V>` / `Box<V>` delegations below. It stays a
//! trait because the [`QueryEngine`](crate::QueryEngine),
//! `cellserved::Generation`, `cellload` and the benchmark are bound on
//! `V: IndexView + ?Sized` and hand it through those smart pointers;
//! the builder-side [`FrozenIndex`](crate::FrozenIndex) is not a view.
//!
//! The primitive surface is deliberately small — longest-prefix match
//! returning `(prefix_len, label_index)`, label-table access, and
//! canonical entry iteration — with the user-facing conveniences
//! (`lookup_v4`, `len`, `as_count`, …) derived from it.

use netaddr::{Ipv4Net, Ipv6Net};

use crate::frozen::ServeLabel;

/// A borrowed, immutable view of a serving index.
///
/// Implementors guarantee the canonical invariants the artifact formats
/// seal: per family the levels are longest-prefix-first, keys within a
/// level are masked and strictly ascending, and the label table is
/// deduplicated and sorted by `(asn, class)`. The derived methods rely
/// on those invariants.
pub trait IndexView: Sync {
    /// Longest-prefix match for an IPv4 address: `(prefix_len,
    /// label_index)` of the most specific served prefix covering it.
    fn lpm_v4(&self, addr: u32) -> Option<(u8, u32)>;

    /// Longest-prefix match for an IPv6 address.
    fn lpm_v6(&self, addr: u128) -> Option<(u8, u32)>;

    /// The label at a table index previously returned by a lookup.
    fn label_at(&self, idx: u32) -> ServeLabel;

    /// Longest served IPv4 prefix length, `None` when the family is
    /// empty — the mask the batch engine keys its hot cache on.
    fn longest_len_v4(&self) -> Option<u8>;

    /// Longest served IPv6 prefix length.
    fn longest_len_v6(&self) -> Option<u8>;

    /// `(IPv4, IPv6)` served-prefix counts.
    fn prefix_counts(&self) -> (usize, usize);

    /// Number of distinct labels in the table.
    fn label_count(&self) -> usize;

    /// Visit every served IPv4 prefix in canonical artifact order:
    /// shortest prefix length first, keys ascending within a length.
    fn for_each_v4(&self, f: &mut dyn FnMut(Ipv4Net, ServeLabel));

    /// Visit every served IPv6 prefix in canonical order.
    fn for_each_v6(&self, f: &mut dyn FnMut(Ipv6Net, ServeLabel));

    /// Hint that `addr` will be looked up shortly; zero-copy views
    /// prefetch the first probe's cache lines. No-op by default.
    #[inline]
    fn prefetch_v4(&self, _addr: u32) {}

    /// IPv6 counterpart of [`IndexView::prefetch_v4`].
    #[inline]
    fn prefetch_v6(&self, _addr: u128) {}

    /// Longest-prefix match returning the matched net and label.
    fn lookup_v4(&self, addr: u32) -> Option<(Ipv4Net, ServeLabel)> {
        let (len, idx) = self.lpm_v4(addr)?;
        let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
        let net = Ipv4Net::new(addr & mask, len).expect("validated length ≤ 32");
        Some((net, self.label_at(idx)))
    }

    /// Longest-prefix match returning the matched net and label.
    fn lookup_v6(&self, addr: u128) -> Option<(Ipv6Net, ServeLabel)> {
        let (len, idx) = self.lpm_v6(addr)?;
        let mask = if len == 0 {
            0
        } else {
            u128::MAX << (128 - len)
        };
        let net = Ipv6Net::new(addr & mask, len).expect("validated length ≤ 128");
        Some((net, self.label_at(idx)))
    }

    /// Total served prefixes across both families.
    fn len(&self) -> usize {
        let (v4, v6) = self.prefix_counts();
        v4 + v6
    }

    /// True when no prefix is served.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct origin ASes across the label table (labels
    /// are sorted by `(asn, class)`, so equal ASes are adjacent).
    fn as_count(&self) -> usize {
        let mut count = 0;
        let mut last = None;
        for i in 0..self.label_count() {
            let asn = self.label_at(i as u32).asn;
            if last != Some(asn) {
                count += 1;
                last = Some(asn);
            }
        }
        count
    }
}

macro_rules! delegate_index_view {
    ($($target:ty),* $(,)?) => {$(
        impl<V: IndexView + Send + Sync + ?Sized> IndexView for $target {
            fn lpm_v4(&self, addr: u32) -> Option<(u8, u32)> {
                (**self).lpm_v4(addr)
            }
            fn lpm_v6(&self, addr: u128) -> Option<(u8, u32)> {
                (**self).lpm_v6(addr)
            }
            fn label_at(&self, idx: u32) -> ServeLabel {
                (**self).label_at(idx)
            }
            fn longest_len_v4(&self) -> Option<u8> {
                (**self).longest_len_v4()
            }
            fn longest_len_v6(&self) -> Option<u8> {
                (**self).longest_len_v6()
            }
            fn prefix_counts(&self) -> (usize, usize) {
                (**self).prefix_counts()
            }
            fn label_count(&self) -> usize {
                (**self).label_count()
            }
            fn for_each_v4(&self, f: &mut dyn FnMut(Ipv4Net, ServeLabel)) {
                (**self).for_each_v4(f)
            }
            fn for_each_v6(&self, f: &mut dyn FnMut(Ipv6Net, ServeLabel)) {
                (**self).for_each_v6(f)
            }
            fn prefetch_v4(&self, addr: u32) {
                (**self).prefetch_v4(addr)
            }
            fn prefetch_v6(&self, addr: u128) {
                (**self).prefetch_v6(addr)
            }
        }
    )*};
}

delegate_index_view!(&V, std::sync::Arc<V>, Box<V>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::{AsClass, FrozenIndex};
    use crate::handle::served;
    use netaddr::Asn;

    fn label(asn: u32, class: AsClass) -> ServeLabel {
        ServeLabel {
            asn: Asn(asn),
            class,
        }
    }

    #[test]
    fn derived_methods_and_delegations_agree_with_the_sealed_entry_set() {
        let mut b = FrozenIndex::builder();
        b.insert_v4(
            "10.0.0.0/8".parse().expect("cidr"),
            label(1, AsClass::Mixed),
        );
        b.insert_v4(
            "10.1.0.0/16".parse().expect("cidr"),
            label(2, AsClass::Dedicated),
        );
        b.insert_v6(
            "2001:db8::/48".parse().expect("cidr"),
            label(3, AsClass::Unknown),
        );
        let idx = b.build();
        let handle = std::sync::Arc::new(served(&idx));
        // Through the Arc delegation and as a trait object.
        let view: &dyn IndexView = &handle;
        assert_eq!(view.len(), idx.len());
        assert!(!view.is_empty());
        assert_eq!(view.as_count(), idx.as_count());
        assert_eq!(view.prefix_counts(), idx.prefix_counts());
        assert_eq!(
            view.lookup_v4(0x0A010203),
            Some((
                "10.1.0.0/16".parse().expect("cidr"),
                label(2, AsClass::Dedicated)
            ))
        );
        assert_eq!(view.lookup_v4(0x0B000001), None);
        let addr = 0x2001_0db8_0000_0000_0000_0000_0000_0001u128;
        assert_eq!(
            view.lookup_v6(addr),
            Some((
                "2001:db8::/48".parse().expect("cidr"),
                label(3, AsClass::Unknown)
            ))
        );
        let mut seen = Vec::new();
        view.for_each_v4(&mut |net, l| seen.push((net, l)));
        assert_eq!(seen, idx.entries_v4().collect::<Vec<_>>());
    }
}
