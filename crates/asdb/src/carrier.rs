use netaddr::{Asn, Block24, Block48, DualPrefixTrie, Ipv4Net, Ipv6Net};

use crate::record::AccessType;

/// One labeled prefix in a carrier's ground-truth list.
#[derive(Clone, Debug, PartialEq)]
pub enum GroundTruthEntry {
    /// An IPv4 CIDR with its access label.
    V4(Ipv4Net, AccessType),
    /// An IPv6 CIDR with its access label.
    V6(Ipv6Net, AccessType),
}

impl GroundTruthEntry {
    /// The entry's access label.
    pub fn access(&self) -> AccessType {
        match self {
            GroundTruthEntry::V4(_, a) | GroundTruthEntry::V6(_, a) => *a,
        }
    }
}

/// A carrier's ground-truth subnet labeling, as provided to the authors by
/// three mobile operators (the paper's §4.2): a list of CIDRs, each marked
/// as belonging to the cellular or the fixed-line side of the network.
///
/// Validation joins these CIDRs against observed /24 and /48 blocks via a
/// longest-prefix-match trie: a block inherits the label of the most
/// specific ground-truth prefix covering it.
#[derive(Clone, Debug)]
pub struct CarrierGroundTruth {
    /// Operator codename ("Carrier A", …).
    pub name: String,
    /// ASNs the operator's address space lives in.
    pub asns: Vec<Asn>,
    /// Labeled CIDRs.
    pub entries: Vec<GroundTruthEntry>,
    trie: DualPrefixTrie<AccessType>,
}

impl CarrierGroundTruth {
    /// Build from labeled entries.
    pub fn new(name: impl Into<String>, asns: Vec<Asn>, entries: Vec<GroundTruthEntry>) -> Self {
        let mut trie = DualPrefixTrie::new();
        for e in &entries {
            match e {
                GroundTruthEntry::V4(net, a) => {
                    trie.insert_v4(*net, *a);
                }
                GroundTruthEntry::V6(net, a) => {
                    trie.insert_v6(*net, *a);
                }
            }
        }
        CarrierGroundTruth {
            name: name.into(),
            asns,
            entries,
            trie,
        }
    }

    /// Ground-truth label for an IPv4 /24 block, if any prefix covers its
    /// base address. Blocks outside the carrier's space return `None`.
    pub fn label_block24(&self, block: Block24) -> Option<AccessType> {
        self.trie.lookup_v4(block.base_addr()).map(|(_, a)| *a)
    }

    /// Ground-truth label for an IPv6 /48 block.
    pub fn label_block48(&self, block: Block48) -> Option<AccessType> {
        self.trie.lookup_v6(block.base_addr()).map(|(_, a)| *a)
    }

    /// Every /24 block covered by the carrier's IPv4 ground truth, with its
    /// label. Prefixes longer than /24 contribute the single block that
    /// contains them (labels from the most specific prefix win via LPM).
    pub fn blocks24(&self) -> Vec<(Block24, AccessType)> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for e in &self.entries {
            if let GroundTruthEntry::V4(net, _) = e {
                if net.len() >= 24 {
                    let b = Block24::of_net(net);
                    if seen.insert(b) {
                        if let Some(a) = self.label_block24(b) {
                            out.push((b, a));
                        }
                    }
                } else {
                    for sub in net.subnets(24) {
                        let b = Block24::of_net(&sub);
                        if seen.insert(b) {
                            if let Some(a) = self.label_block24(b) {
                                out.push((b, a));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Every /48 block covered by the carrier's IPv6 ground truth.
    pub fn blocks48(&self) -> Vec<(Block48, AccessType)> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for e in &self.entries {
            if let GroundTruthEntry::V6(net, _) = e {
                if net.len() >= 48 {
                    let b = Block48::of_net(net);
                    if seen.insert(b) {
                        if let Some(a) = self.label_block48(b) {
                            out.push((b, a));
                        }
                    }
                } else {
                    for sub in net.subnets(48) {
                        let b = Block48::of_net(&sub);
                        if seen.insert(b) {
                            if let Some(a) = self.label_block48(b) {
                                out.push((b, a));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Counts of (cellular, fixed) /24 blocks in the ground truth.
    pub fn count_blocks24(&self) -> (usize, usize) {
        let mut cell = 0;
        let mut fixed = 0;
        for (_, a) in self.blocks24() {
            match a {
                AccessType::Cellular => cell += 1,
                AccessType::Fixed => fixed += 1,
            }
        }
        (cell, fixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(s: &str, a: AccessType) -> GroundTruthEntry {
        GroundTruthEntry::V4(s.parse().unwrap(), a)
    }

    fn v6(s: &str, a: AccessType) -> GroundTruthEntry {
        GroundTruthEntry::V6(s.parse().unwrap(), a)
    }

    #[test]
    fn block_labels_via_lpm() {
        let gt = CarrierGroundTruth::new(
            "Carrier T",
            vec![Asn(64500)],
            vec![
                v4("10.0.0.0/14", AccessType::Fixed),
                // A more specific cellular carve-out inside the fixed range.
                v4("10.1.0.0/16", AccessType::Cellular),
            ],
        );
        let fixed_block = Block24::of_addr(0x0A000100);
        let cell_block = Block24::of_addr(0x0A010200);
        assert_eq!(gt.label_block24(fixed_block), Some(AccessType::Fixed));
        assert_eq!(gt.label_block24(cell_block), Some(AccessType::Cellular));
        // Outside the carrier's space.
        assert_eq!(gt.label_block24(Block24::of_addr(0xC0000200)), None);
    }

    #[test]
    fn blocks24_enumeration_respects_lpm() {
        let gt = CarrierGroundTruth::new(
            "Carrier T",
            vec![],
            vec![
                v4("10.0.0.0/22", AccessType::Fixed),
                v4("10.0.1.0/24", AccessType::Cellular),
            ],
        );
        let blocks = gt.blocks24();
        assert_eq!(blocks.len(), 4);
        let (cell, fixed) = gt.count_blocks24();
        assert_eq!((cell, fixed), (1, 3));
    }

    #[test]
    fn v6_blocks() {
        let gt = CarrierGroundTruth::new(
            "Carrier T",
            vec![],
            vec![v6("2001:db8::/46", AccessType::Cellular)],
        );
        let blocks = gt.blocks48();
        assert_eq!(blocks.len(), 4);
        assert!(blocks.iter().all(|(_, a)| a.is_cellular()));
        let b = Block48::of_addr(0x2001_0db8_0001_0000_0000_0000_0000_0000);
        assert_eq!(gt.label_block48(b), Some(AccessType::Cellular));
    }
}
