//! The prefix universe traces are generated over.

use cellserve::IndexView;
use cellspot::Classification;
use netaddr::{Block24, Block48, BlockId};

/// The served prefix universe: the cellular-labeled /24 and /48 blocks
/// a trace draws its hit traffic from.
///
/// Both constructors produce the **same block order** for the same
/// logical classification — v4 blocks ascending by index, then v6
/// blocks ascending by index — which is what lets a trace generated
/// from a live [`Classification`] replay bit-identically against an
/// artifact round-tripped through `index build`:
///
/// - [`Universe::from_classification`] keeps [`Classification::iter`]'s
///   sorted-by-block-id order.
/// - [`Universe::from_view`] walks a loaded artifact's
///   [`IndexView::for_each_v4`] / [`IndexView::for_each_v6`] (canonical
///   order: shortest prefix first, keys ascending) and collapses each
///   served prefix to the /24 or /48 block containing its first
///   address. For artifacts built from a classification — all-/24 and
///   all-/48 — that is exactly the classification's block list.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Universe {
    /// IPv4 /24 blocks, ascending by block index.
    pub v4: Vec<Block24>,
    /// IPv6 /48 blocks, ascending by block index.
    pub v6: Vec<Block48>,
}

impl Universe {
    /// The universe of a classification, in its canonical block order.
    pub fn from_classification(class: &Classification) -> Universe {
        let mut v4 = Vec::new();
        let mut v6 = Vec::new();
        for (block, _) in class.iter() {
            match block {
                BlockId::V4(b) => v4.push(b),
                BlockId::V6(b) => v6.push(b),
            }
        }
        Universe { v4, v6 }
    }

    /// The universe of a loaded artifact — a
    /// [`cellserve::ArtifactHandle`] or a borrowed
    /// [`cellserve::MappedIndex`]: one block per served prefix,
    /// deduplicated.
    pub fn from_view<V: IndexView + ?Sized>(index: &V) -> Universe {
        let mut v4: Vec<Block24> = Vec::new();
        index.for_each_v4(&mut |net, _| v4.push(Block24::of_net(&net)));
        v4.sort_by_key(|b| b.index());
        v4.dedup();
        let mut v6: Vec<Block48> = Vec::new();
        index.for_each_v6(&mut |net, _| v6.push(Block48::of_net(&net)));
        v6.sort_by_key(|b| b.index());
        v6.dedup();
        Universe { v4, v6 }
    }

    /// Total number of blocks across both families.
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// True when no family has any served block.
    pub fn is_empty(&self) -> bool {
        self.v4.is_empty() && self.v6.is_empty()
    }
}
