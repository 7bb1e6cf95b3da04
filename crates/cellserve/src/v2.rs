//! CELLSERV v2: the directly-mappable artifact body.
//!
//! Where v1 interleaves variable-size records that must be copied into
//! owned `Vec`s, v2 lays the index out as 8-byte-aligned little-endian
//! flat arrays with a fixed header of offsets, so a loaded file (mmap
//! or one read into an aligned buffer) validates *in place* and serves
//! lookups with near-zero copies:
//!
//! ```text
//! header (64 bytes):
//!   magic          8   "CELLSERV"
//!   version        u32  2
//!   header_len     u32  64
//!   quick_hash     u64  FNV-1a of bytes [64, body_len) — the cheap
//!                       content fingerprint reload watchers read
//!   label_count    u32
//!   v4_levels      u32
//!   v6_levels      u32
//!   reserved       u32  0
//!   labels_off     u64  64
//!   dir_off        u64
//!   body_len       u64  duplicate of the trailer field
//! labels:          label_count × { asn: u32, class: u32 }
//! directory:       (v4_levels + v6_levels) × 32 bytes, v4 levels
//!                  first, longest prefix first within a family:
//!   family         u8   4 or 6
//!   prefix_len     u8
//!   layout         u8   0 = Eytzinger, 1 = sorted + /16 root table
//!   pad            u8   0
//!   entry_count    u32  nonzero
//!   keys_off       u64  key array (entry_count × key size)
//!   labels_off     u64  label-index array (entry_count × u32)
//!   aux_off        u64  root table for layout 1, else 0
//! data sections:   per level in directory order: keys, label indexes,
//!                  aux — each zero-padded to the next 8-byte boundary
//! trailer:         the cellseal envelope, trailer magic "CSRV" as in v1
//! ```
//!
//! **Inner-loop layouts.** Every level except the hot one stores its
//! keys in Eytzinger (BFS) order: the binary search becomes a
//! branchless descent `k = 2k + (keys[k-1] < target)` whose first few
//! probes share cache lines, with a software prefetch 4 levels ahead.
//! The longest IPv4 level — the /24s that dominate the paper's serving
//! workload — keeps its keys sorted and, once it is at least
//! [`ROOT_TABLE_MIN`] entries, prepends a 2^16+1-entry cumulative
//! table indexed by the address's top 16 bits, so a lookup lands
//! directly in its /16 stem's run and binary-searches only that.
//!
//! **In-place validation contract.** [`parse`] accepts a byte slice
//! and proves, without building any owned structure beyond a per-level
//! offset table: the seal ([`cellseal::open`]), the header invariants,
//! that every section offset equals the canonical packing (which also
//! rules out overlap), that every key is
//! masked to its level's length and strictly ascending in logical
//! (in-order) position, that the root table is exactly the cumulative
//! /16 histogram of its keys, and that every label index and class
//! byte is in range. Encoding is canonical — the same index always
//! produces byte-identical files — so `encode(decode(b)) == b` and any
//! single-byte corruption is rejected.

use crate::artifact::{ARTIFACT_MAGIC, TRAILER_MAGIC};
use crate::error::ServeError;
use crate::frozen::{AsClass, FamilyIndex, FrozenIndex, Level, PrefixCodec, PrefixKey, ServeLabel};
use crate::hash::content_hash;
use crate::view::IndexView;
use cellseal::TRAILER_LEN;
use netaddr::{Asn, Ipv4Net, Ipv6Net};

/// Format version sealed into v2 headers.
pub const ARTIFACT_V2_VERSION: u32 = 2;

/// Fixed v2 header size.
pub(crate) const HEADER_LEN: usize = 64;

/// Keys stored in Eytzinger (BFS) order.
const LAYOUT_EYTZINGER: u8 = 0;

/// Keys sorted ascending with a /16 root table in the aux section.
const LAYOUT_ROOT16: u8 = 1;

/// Minimum entry count before the longest IPv4 level pays for a
/// 256 KiB root table.
pub(crate) const ROOT_TABLE_MIN: usize = 4096;

/// Root-table entries: one cumulative count per /16 stem, plus the
/// closing total.
const ROOT_ENTRIES: usize = (1 << 16) + 1;

/// During the Eytzinger descent at node `k`, prefetch the subtree
/// `PREFETCH_AHEAD` levels down (`k << 4`), so the line is resident by
/// the time the walk reaches it.
const PREFETCH_AHEAD: usize = 4;

fn corrupt(why: impl Into<String>) -> ServeError {
    ServeError::Corrupt(why.into())
}

#[inline]
fn align8(n: usize) -> usize {
    (n + 7) & !7
}

#[inline]
fn prefetch(buf: &[u8], off: usize) {
    #[cfg(target_arch = "x86_64")]
    if off < buf.len() {
        // SAFETY: `off` is in bounds; prefetch has no memory effects.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(buf.as_ptr().add(off) as *const i8, _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (buf, off);
}

#[inline]
fn read_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"))
}

#[inline]
fn read_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"))
}

#[inline]
fn key_at<K: PrefixKey>(buf: &[u8], keys_off: usize, i: usize) -> K {
    K::read_le(&buf[keys_off + i * K::SIZE..keys_off + (i + 1) * K::SIZE])
}

/// One level's location inside the buffer — the only owned state a
/// mapped index keeps per level.
#[derive(Clone, Copy, Debug)]
struct LevelRef {
    len: u8,
    layout: u8,
    count: usize,
    keys_off: usize,
    labels_off: usize,
    aux_off: usize,
}

/// Validated offsets of every section: the parse result that, together
/// with the raw bytes, answers lookups.
#[derive(Clone, Debug)]
struct V2Layout {
    label_count: usize,
    labels_off: usize,
    v4: Vec<LevelRef>,
    v6: Vec<LevelRef>,
    quick_hash: u64,
    content_hash: u64,
}

impl V2Layout {
    // The two walks are deliberately *not* generic over the byte
    // owner: `MappedIndex<B>`'s methods are instantiated in whichever
    // crate names `B`, and these keep the hot loop compiled (and
    // inlined as one unit) here, behind a single call.
    fn lpm_v4(&self, buf: &[u8], addr: u32) -> Option<(u8, u32)> {
        lpm(buf, &self.v4, addr)
    }

    fn lpm_v6(&self, buf: &[u8], addr: u128) -> Option<(u8, u32)> {
        lpm(buf, &self.v6, addr)
    }
}

/// Copy one family's levels out of the buffer, keys back in ascending
/// order — the owned half of [`MappedIndex::to_frozen`].
fn family_to_frozen<K: PrefixKey>(buf: &[u8], levels: &[LevelRef]) -> FamilyIndex<K> {
    let levels = levels
        .iter()
        .map(|level| {
            let mut keys = Vec::with_capacity(level.count);
            let mut labels = Vec::with_capacity(level.count);
            visit_in_order::<K>(buf, level, &mut |key, idx| {
                keys.push(key);
                labels.push(idx);
            });
            Level {
                len: level.len,
                keys,
                labels,
            }
        })
        .collect();
    FamilyIndex { levels }
}

/// Walk a level's entries in ascending-key order, whatever its
/// physical layout, yielding `(key, label_index)` pairs.
fn visit_in_order<K: PrefixKey>(buf: &[u8], level: &LevelRef, f: &mut dyn FnMut(K, u32)) {
    if level.layout == LAYOUT_ROOT16 {
        for i in 0..level.count {
            f(
                key_at::<K>(buf, level.keys_off, i),
                read_u32(buf, level.labels_off + i * 4),
            );
        }
    } else {
        in_order_eytzinger::<K>(buf, level, 1, f);
    }
}

/// Recursive in-order traversal of the implicit Eytzinger tree
/// (1-indexed node `k`); depth is `log2(count)` ≤ 32.
fn in_order_eytzinger<K: PrefixKey>(
    buf: &[u8],
    level: &LevelRef,
    k: usize,
    f: &mut dyn FnMut(K, u32),
) {
    if k > level.count {
        return;
    }
    in_order_eytzinger::<K>(buf, level, 2 * k, f);
    f(
        key_at::<K>(buf, level.keys_off, k - 1),
        read_u32(buf, level.labels_off + (k - 1) * 4),
    );
    in_order_eytzinger::<K>(buf, level, 2 * k + 1, f);
}

/// Branchless Eytzinger exact-match search: descend `k = 2k + (key <
/// target)`, then peel trailing ones to recover the lower bound.
/// Returns the *physical* (Eytzinger) position, whose label sits at the
/// same position in the label array.
#[inline]
fn eytzinger_search<K: PrefixKey>(buf: &[u8], level: &LevelRef, target: K) -> Option<usize> {
    let n = level.count;
    let mut k = 1usize;
    while k <= n {
        prefetch(
            buf,
            level.keys_off + ((k << PREFETCH_AHEAD).min(n)) * K::SIZE,
        );
        let key = key_at::<K>(buf, level.keys_off, k - 1);
        k = 2 * k + usize::from(key < target);
    }
    k >>= k.trailing_ones() + 1;
    if k == 0 {
        return None;
    }
    (key_at::<K>(buf, level.keys_off, k - 1) == target).then_some(k - 1)
}

/// Branchless binary search over a sorted key range (the within-stem
/// search of a root-table level). Returns the position relative to the
/// full key array.
#[inline]
fn sorted_range_search<K: PrefixKey>(
    buf: &[u8],
    keys_off: usize,
    lo: usize,
    hi: usize,
    target: K,
) -> Option<usize> {
    if lo >= hi {
        return None;
    }
    let mut base = lo;
    let mut size = hi - lo;
    while size > 1 {
        let half = size / 2;
        let probe = base + half;
        prefetch(buf, keys_off + (probe + half / 2) * K::SIZE);
        base = if key_at::<K>(buf, keys_off, probe) <= target {
            probe
        } else {
            base
        };
        size -= half;
    }
    (key_at::<K>(buf, keys_off, base) == target).then_some(base)
}

/// Exact-match probe of one level for an already-masked key.
#[inline]
fn level_find<K: PrefixKey>(buf: &[u8], level: &LevelRef, masked: K) -> Option<usize> {
    if level.layout == LAYOUT_ROOT16 {
        let h = key_stem(masked) as usize;
        let lo = read_u32(buf, level.aux_off + h * 4) as usize;
        let hi = read_u32(buf, level.aux_off + (h + 1) * 4) as usize;
        sorted_range_search::<K>(buf, level.keys_off, lo, hi, masked)
    } else {
        eytzinger_search::<K>(buf, level, masked)
    }
}

/// Root-table stem of a key: its top 16 bits. Only meaningful for
/// 32-bit keys; every call site is behind the [`LAYOUT_ROOT16`] flag,
/// which the validator only accepts on IPv4 levels.
#[inline]
fn key_stem<K: PrefixKey>(key: K) -> u32 {
    debug_assert_eq!(K::SIZE, 4, "root tables only exist on IPv4 levels");
    key.low32() >> 16
}

/// Longest-prefix match over one family's levels (longest first).
fn lpm<K: PrefixKey>(buf: &[u8], levels: &[LevelRef], addr: K) -> Option<(u8, u32)> {
    for level in levels {
        let masked = addr.and(K::mask(level.len));
        if let Some(i) = level_find::<K>(buf, level, masked) {
            return Some((level.len, read_u32(buf, level.labels_off + i * 4)));
        }
    }
    None
}

/// Build the Eytzinger permutation of `0..n`: `perm[i]` is the sorted
/// position stored at physical slot `i`.
fn eytzinger_perm(n: usize) -> Vec<usize> {
    fn fill(perm: &mut [usize], k: usize, next: &mut usize) {
        if k > perm.len() {
            return;
        }
        fill(perm, 2 * k, next);
        perm[k - 1] = *next;
        *next += 1;
        fill(perm, 2 * k + 1, next);
    }
    let mut perm = vec![0usize; n];
    let mut next = 0;
    fill(&mut perm, 1, &mut next);
    perm
}

/// Serialize an index into a sealed v2 artifact. Canonical: the same
/// index always produces byte-identical output.
pub(crate) fn encode(index: &FrozenIndex) -> Vec<u8> {
    let nlevels = index.v4.levels.len() + index.v6.levels.len();
    let labels_off = HEADER_LEN;
    let dir_off = labels_off + index.labels.len() * 8;
    let data_off = dir_off + nlevels * 32;

    // First pass: compute each level's section offsets.
    struct Plan {
        family: u8,
        len: u8,
        layout: u8,
        count: usize,
        key_size: usize,
        keys_off: usize,
        labels_off: usize,
        aux_off: usize,
    }
    let mut plans: Vec<Plan> = Vec::with_capacity(nlevels);
    let mut cur = data_off;
    let mut plan_family = |family: u8, key_size: usize, lens_counts: Vec<(u8, usize)>| {
        for (i, (len, count)) in lens_counts.into_iter().enumerate() {
            let layout = if key_size == 4 && i == 0 && count >= ROOT_TABLE_MIN {
                LAYOUT_ROOT16
            } else {
                LAYOUT_EYTZINGER
            };
            let keys_off = cur;
            cur += align8(count * key_size);
            let labels_off = cur;
            cur += align8(count * 4);
            let aux_off = if layout == LAYOUT_ROOT16 {
                let off = cur;
                cur += align8(ROOT_ENTRIES * 4);
                off
            } else {
                0
            };
            plans.push(Plan {
                family,
                len,
                layout,
                count,
                key_size,
                keys_off,
                labels_off,
                aux_off,
            });
        }
    };
    plan_family(
        4,
        4,
        index
            .v4
            .levels
            .iter()
            .map(|l| (l.len, l.keys.len()))
            .collect(),
    );
    plan_family(
        6,
        16,
        index
            .v6
            .levels
            .iter()
            .map(|l| (l.len, l.keys.len()))
            .collect(),
    );
    let body_len = cur;

    let mut out = vec![0u8; body_len + TRAILER_LEN];
    // Labels.
    for (i, label) in index.labels.iter().enumerate() {
        let off = labels_off + i * 8;
        out[off..off + 4].copy_from_slice(&label.asn.value().to_le_bytes());
        out[off + 4..off + 8].copy_from_slice(&(label.class.to_byte() as u32).to_le_bytes());
    }
    // Directory.
    for (i, p) in plans.iter().enumerate() {
        let off = dir_off + i * 32;
        out[off] = p.family;
        out[off + 1] = p.len;
        out[off + 2] = p.layout;
        out[off + 4..off + 8].copy_from_slice(&(p.count as u32).to_le_bytes());
        out[off + 8..off + 16].copy_from_slice(&(p.keys_off as u64).to_le_bytes());
        out[off + 16..off + 24].copy_from_slice(&(p.labels_off as u64).to_le_bytes());
        out[off + 24..off + 32].copy_from_slice(&(p.aux_off as u64).to_le_bytes());
    }
    // Data sections.
    fn write_level<K: PrefixKey>(
        out: &mut [u8],
        plan_layout: u8,
        level: &Level<K>,
        p: (usize, usize, usize),
    ) {
        let (keys_off, labels_off, aux_off) = p;
        let n = level.keys.len();
        if plan_layout == LAYOUT_ROOT16 {
            for (i, &key) in level.keys.iter().enumerate() {
                key.put_le(&mut out[keys_off + i * K::SIZE..keys_off + (i + 1) * K::SIZE]);
                out[labels_off + i * 4..labels_off + i * 4 + 4]
                    .copy_from_slice(&level.labels[i].to_le_bytes());
            }
            // Cumulative /16 histogram: root[h] = keys with stem < h.
            let mut i = 0usize;
            for h in 0..ROOT_ENTRIES {
                while i < n && (key_stem(level.keys[i]) as usize) < h {
                    i += 1;
                }
                out[aux_off + h * 4..aux_off + h * 4 + 4]
                    .copy_from_slice(&(i as u32).to_le_bytes());
            }
        } else {
            let perm = eytzinger_perm(n);
            for (phys, &sorted) in perm.iter().enumerate() {
                level.keys[sorted]
                    .put_le(&mut out[keys_off + phys * K::SIZE..keys_off + (phys + 1) * K::SIZE]);
                out[labels_off + phys * 4..labels_off + phys * 4 + 4]
                    .copy_from_slice(&level.labels[sorted].to_le_bytes());
            }
        }
    }
    let mut pi = 0;
    for level in &index.v4.levels {
        let p = &plans[pi];
        debug_assert_eq!(p.key_size, 4);
        write_level::<u32>(
            &mut out,
            p.layout,
            level,
            (p.keys_off, p.labels_off, p.aux_off),
        );
        pi += 1;
    }
    for level in &index.v6.levels {
        let p = &plans[pi];
        write_level::<u128>(
            &mut out,
            p.layout,
            level,
            (p.keys_off, p.labels_off, p.aux_off),
        );
        pi += 1;
    }

    // Header (after data, so quick_hash can cover the sections).
    out[0..8].copy_from_slice(&ARTIFACT_MAGIC);
    out[8..12].copy_from_slice(&ARTIFACT_V2_VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&(HEADER_LEN as u32).to_le_bytes());
    let quick = content_hash(&out[HEADER_LEN..body_len]);
    out[16..24].copy_from_slice(&quick.to_le_bytes());
    out[24..28].copy_from_slice(&(index.labels.len() as u32).to_le_bytes());
    out[28..32].copy_from_slice(&(index.v4.levels.len() as u32).to_le_bytes());
    out[32..36].copy_from_slice(&(index.v6.levels.len() as u32).to_le_bytes());
    out[40..48].copy_from_slice(&(labels_off as u64).to_le_bytes());
    out[48..56].copy_from_slice(&(dir_off as u64).to_le_bytes());
    out[56..64].copy_from_slice(&(body_len as u64).to_le_bytes());

    cellseal::seal_in_place(&mut out, TRAILER_MAGIC);
    out
}

/// Validate a v2 artifact in place and return its section layout.
///
/// # Errors
/// [`ServeError::Corrupt`] on any seal, header, layout, or structural
/// failure; [`ServeError::UnsupportedVersion`] when an intact seal
/// closes any other CELLSERV version — including version 1, which is
/// only readable through [`Artifact::decode`](crate::Artifact::decode)
/// (`cellspot index migrate`).
fn parse(buf: &[u8]) -> Result<V2Layout, ServeError> {
    let body = cellseal::open(buf, TRAILER_MAGIC)?;
    // Magic and version come first and need only 12 bytes, so a sealed
    // v1 file of any size is named as such rather than as a short v2.
    if body.len() < 12 || body[0..8] != ARTIFACT_MAGIC {
        return Err(corrupt("bad artifact magic"));
    }
    let version = read_u32(body, 8);
    if version != ARTIFACT_V2_VERSION {
        return Err(ServeError::UnsupportedVersion(version));
    }
    if body.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "{}-byte body is shorter than the {HEADER_LEN}-byte v2 header",
            body.len()
        )));
    }
    if read_u32(body, 12) as usize != HEADER_LEN {
        return Err(corrupt("bad v2 header length"));
    }
    let quick_hash = read_u64(body, 16);
    let label_count = read_u32(body, 24) as usize;
    let v4_levels = read_u32(body, 28) as usize;
    let v6_levels = read_u32(body, 32) as usize;
    if read_u32(body, 36) != 0 {
        return Err(corrupt("nonzero reserved header field"));
    }
    let labels_off = read_u64(body, 40) as usize;
    let dir_off = read_u64(body, 48) as usize;
    let body_len = read_u64(body, 56) as usize;
    if body_len != body.len() {
        return Err(corrupt("header body length disagrees with the trailer"));
    }
    // One pass names the file (what delta chains hash) and checks the
    // header's fingerprint of the sections.
    let (content_hash, sections_hash) = cellseal::fnv1a64_nested(buf, HEADER_LEN..body_len);
    if quick_hash != sections_hash {
        return Err(corrupt("quick-hash fingerprint mismatch"));
    }

    // Canonical section packing: recompute every offset and require the
    // sealed ones to match — this proves alignment, bounds, and
    // non-overlap in one stroke.
    if labels_off != HEADER_LEN {
        return Err(corrupt("labels section not at the canonical offset"));
    }
    let expect_dir = labels_off
        .checked_add(
            label_count
                .checked_mul(8)
                .ok_or_else(|| corrupt("label count overflow"))?,
        )
        .ok_or_else(|| corrupt("label section overflow"))?;
    if dir_off != expect_dir {
        return Err(corrupt("directory not at the canonical offset"));
    }
    let nlevels = v4_levels + v6_levels;
    let data_off = dir_off
        .checked_add(nlevels * 32)
        .filter(|&o| o <= body.len())
        .ok_or_else(|| corrupt("directory exceeds the body"))?;

    // Labels: class bytes must decode.
    for i in 0..label_count {
        let class = read_u32(body, labels_off + i * 8 + 4);
        if class > u8::MAX as u32 || AsClass::from_byte(class as u8).is_none() {
            return Err(corrupt(format!("invalid label class value {class}")));
        }
    }

    // Directory + data sections.
    let mut v4: Vec<LevelRef> = Vec::with_capacity(v4_levels);
    let mut v6: Vec<LevelRef> = Vec::with_capacity(v6_levels);
    let mut cur = data_off;
    for i in 0..nlevels {
        let off = dir_off + i * 32;
        let family = body[off];
        let len = body[off + 1];
        let layout = body[off + 2];
        if body[off + 3] != 0 {
            return Err(corrupt("nonzero directory pad byte"));
        }
        let count = read_u32(body, off + 4) as usize;
        let keys_off = read_u64(body, off + 8) as usize;
        let labels_sec = read_u64(body, off + 16) as usize;
        let aux_off = read_u64(body, off + 24) as usize;

        let is_v4 = i < v4_levels;
        let (family_idx, key_size, bits) = if is_v4 {
            (i, 4, 32u8)
        } else {
            (i - v4_levels, 16, 128)
        };
        if family != if is_v4 { 4 } else { 6 } {
            return Err(corrupt(format!("directory entry {i} has family {family}")));
        }
        if len > bits {
            return Err(corrupt(format!(
                "prefix length {len} exceeds the family width {bits}"
            )));
        }
        if count == 0 {
            return Err(corrupt(format!("empty level /{len}")));
        }
        let prev = if is_v4 { v4.last() } else { v6.last() };
        if let Some(prev) = prev {
            if prev.len <= len {
                return Err(corrupt(format!(
                    "levels not longest-first: /{} after /{}",
                    len, prev.len
                )));
            }
        }
        let canonical_layout = if key_size == 4 && family_idx == 0 && count >= ROOT_TABLE_MIN {
            LAYOUT_ROOT16
        } else {
            LAYOUT_EYTZINGER
        };
        if layout != canonical_layout {
            return Err(corrupt(format!(
                "level /{len} has layout {layout}, canonical is {canonical_layout}"
            )));
        }
        if keys_off != cur {
            return Err(corrupt(format!(
                "level /{len} keys not at the canonical offset"
            )));
        }
        cur = cur
            .checked_add(align8(
                count
                    .checked_mul(key_size)
                    .ok_or_else(|| corrupt("key section overflow"))?,
            ))
            .ok_or_else(|| corrupt("key section overflow"))?;
        if labels_sec != cur {
            return Err(corrupt(format!(
                "level /{len} labels not at the canonical offset"
            )));
        }
        cur = cur
            .checked_add(align8(count * 4))
            .ok_or_else(|| corrupt("label section overflow"))?;
        if layout == LAYOUT_ROOT16 {
            if aux_off != cur {
                return Err(corrupt(format!(
                    "level /{len} root table not at the canonical offset"
                )));
            }
            cur = cur
                .checked_add(align8(ROOT_ENTRIES * 4))
                .ok_or_else(|| corrupt("root table overflow"))?;
        } else if aux_off != 0 {
            return Err(corrupt("aux offset set on a level without a root table"));
        }
        if cur > body.len() {
            return Err(corrupt(format!("level /{len} sections exceed the body")));
        }
        // Canonical encoding zero-fills the alignment padding.
        let key_end = keys_off + count * key_size;
        let lab_end = labels_sec + count * 4;
        let mut pads = vec![key_end..align8(key_end), lab_end..align8(lab_end)];
        if layout == LAYOUT_ROOT16 {
            let aux_end = aux_off + ROOT_ENTRIES * 4;
            pads.push(aux_end..align8(aux_end));
        }
        if pads.into_iter().any(|r| body[r].iter().any(|&b| b != 0)) {
            return Err(corrupt(format!("nonzero section padding in level /{len}")));
        }
        let level = LevelRef {
            len,
            layout,
            count,
            keys_off,
            labels_off: labels_sec,
            aux_off,
        };
        if is_v4 {
            v4.push(level);
        } else {
            v6.push(level);
        }
    }
    if cur != body.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last section",
            body.len() - cur
        )));
    }

    let layout = V2Layout {
        label_count,
        labels_off,
        v4,
        v6,
        quick_hash,
        content_hash,
    };

    // Structural validation of every level's contents, in place.
    for level in &layout.v4 {
        validate_level::<u32>(body, level, label_count)?;
    }
    for level in &layout.v6 {
        validate_level::<u128>(body, level, label_count)?;
    }
    Ok(layout)
}

/// Prove a level's keys are masked + strictly ascending in logical
/// order, its label indexes in range, and (root-table levels) the aux
/// table exactly the cumulative /16 histogram.
fn validate_level<K: PrefixKey>(
    body: &[u8],
    level: &LevelRef,
    label_count: usize,
) -> Result<(), ServeError> {
    let mask = K::mask(level.len);
    let mut prev: Option<K> = None;
    let mut bad: Option<ServeError> = None;
    visit_in_order::<K>(body, level, &mut |key, idx| {
        if bad.is_some() {
            return;
        }
        if key.and(mask) != key {
            bad = Some(corrupt(format!(
                "non-canonical key in level /{}",
                level.len
            )));
        } else if prev.is_some_and(|p| p >= key) {
            bad = Some(corrupt(format!("unsorted keys in level /{}", level.len)));
        } else if idx as usize >= label_count {
            bad = Some(corrupt(format!(
                "label index {idx} out of range (table has {label_count})"
            )));
        }
        prev = Some(key);
    });
    if let Some(err) = bad {
        return Err(err);
    }
    if level.layout == LAYOUT_ROOT16 {
        let mut i = 0usize;
        for h in 0..ROOT_ENTRIES {
            while i < level.count && (key_stem(key_at::<K>(body, level.keys_off, i)) as usize) < h {
                i += 1;
            }
            if read_u32(body, level.aux_off + h * 4) as usize != i {
                return Err(corrupt(format!(
                    "root table disagrees with the keys at stem {h}"
                )));
            }
        }
    }
    Ok(())
}

/// The one serving representation: a validated v2 byte buffer `B` plus
/// the section offsets validation proved about it.
///
/// Construction runs the full in-place validation; afterwards every
/// lookup reads straight out of the bytes. `B` is whatever holds them:
/// a borrowed `&[u8]` (tests, one-shot validation), or the owning
/// [`ArtifactBytes`](crate::ArtifactBytes) behind
/// [`ArtifactHandle`](crate::ArtifactHandle) — an mmap or one aligned
/// read. Both answer through the single [`IndexView`] impl below.
pub struct MappedIndex<B> {
    bytes: B,
    layout: V2Layout,
}

impl<B: AsRef<[u8]> + Sync> MappedIndex<B> {
    /// Validate `bytes` as a sealed v2 artifact and serve from them.
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] on any seal, header, layout, or
    /// structural failure; [`ServeError::UnsupportedVersion`] for an
    /// intact seal around any other version (v1 included).
    pub fn new(bytes: B) -> Result<MappedIndex<B>, ServeError> {
        let layout = parse(bytes.as_ref())?;
        Ok(MappedIndex { bytes, layout })
    }

    /// The header's cheap content fingerprint (FNV-1a of the sections).
    pub fn quick_hash(&self) -> u64 {
        self.layout.quick_hash
    }

    /// FNV-1a content hash of [`sealed_bytes`](Self::sealed_bytes) —
    /// the name delta chains know this artifact by, summed once, by the
    /// validation pass.
    pub fn content_hash(&self) -> u64 {
        self.layout.content_hash
    }

    /// The sealed bytes exactly as validated — what delta chains hash.
    pub fn sealed_bytes(&self) -> &[u8] {
        self.bytes.as_ref()
    }

    pub(crate) fn owner(&self) -> &B {
        &self.bytes
    }

    /// Bytes of header + level directory: all a load copies out of a
    /// mapped file.
    pub(crate) fn directory_bytes(&self) -> usize {
        HEADER_LEN + 32 * (self.layout.v4.len() + self.layout.v6.len())
    }

    /// Copy out into the builder-side [`FrozenIndex`]; reachable only
    /// through [`Artifact::decode`](crate::Artifact::decode).
    pub(crate) fn to_frozen(&self) -> FrozenIndex {
        let buf = self.sealed_bytes();
        FrozenIndex {
            labels: (0..self.layout.label_count as u32)
                .map(|i| self.label_at(i))
                .collect(),
            v4: family_to_frozen(buf, &self.layout.v4),
            v6: family_to_frozen(buf, &self.layout.v6),
        }
    }
}

impl<B: AsRef<[u8]> + Sync> IndexView for MappedIndex<B> {
    fn lpm_v4(&self, addr: u32) -> Option<(u8, u32)> {
        self.layout.lpm_v4(self.sealed_bytes(), addr)
    }

    fn lpm_v6(&self, addr: u128) -> Option<(u8, u32)> {
        self.layout.lpm_v6(self.sealed_bytes(), addr)
    }

    fn label_at(&self, idx: u32) -> ServeLabel {
        let buf = self.sealed_bytes();
        let off = self.layout.labels_off + idx as usize * 8;
        let asn = Asn(read_u32(buf, off));
        let class = AsClass::from_byte(read_u32(buf, off + 4) as u8)
            .expect("class validated at parse time");
        ServeLabel { asn, class }
    }

    fn longest_len_v4(&self) -> Option<u8> {
        self.layout.v4.first().map(|l| l.len)
    }

    fn longest_len_v6(&self) -> Option<u8> {
        self.layout.v6.first().map(|l| l.len)
    }

    fn prefix_counts(&self) -> (usize, usize) {
        let sum = |levels: &[LevelRef]| levels.iter().map(|l| l.count).sum();
        (sum(&self.layout.v4), sum(&self.layout.v6))
    }

    fn label_count(&self) -> usize {
        self.layout.label_count
    }

    fn for_each_v4(&self, f: &mut dyn FnMut(Ipv4Net, ServeLabel)) {
        for level in self.layout.v4.iter().rev() {
            visit_in_order::<u32>(self.sealed_bytes(), level, &mut |key, idx| {
                let net = Ipv4Net::new(key, level.len).expect("validated length ≤ 32");
                f(net, self.label_at(idx));
            });
        }
    }

    fn for_each_v6(&self, f: &mut dyn FnMut(Ipv6Net, ServeLabel)) {
        for level in self.layout.v6.iter().rev() {
            visit_in_order::<u128>(self.sealed_bytes(), level, &mut |key, idx| {
                let net = Ipv6Net::new(key, level.len).expect("validated length ≤ 128");
                f(net, self.label_at(idx));
            });
        }
    }

    fn prefetch_v4(&self, addr: u32) {
        if let Some(level) = self.layout.v4.first() {
            let buf = self.sealed_bytes();
            let masked = addr.and(u32::mask(level.len));
            if level.layout == LAYOUT_ROOT16 {
                prefetch(buf, level.aux_off + (masked >> 16) as usize * 4);
            } else {
                prefetch(buf, level.keys_off);
            }
        }
    }

    fn prefetch_v6(&self, _addr: u128) {
        if let Some(level) = self.layout.v6.first() {
            prefetch(self.sealed_bytes(), level.keys_off);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label(asn: u32, class: AsClass) -> ServeLabel {
        ServeLabel {
            asn: Asn(asn),
            class,
        }
    }

    fn sample_index() -> FrozenIndex {
        let mut b = FrozenIndex::builder();
        b.insert_v4(
            "10.0.0.0/8".parse().expect("cidr"),
            label(1, AsClass::Mixed),
        );
        b.insert_v4(
            "10.1.0.0/16".parse().expect("cidr"),
            label(2, AsClass::Dedicated),
        );
        b.insert_v4(
            "203.0.113.0/24".parse().expect("cidr"),
            label(2, AsClass::Dedicated),
        );
        b.insert_v6(
            "2001:db8::/48".parse().expect("cidr"),
            label(3, AsClass::Unknown),
        );
        b.insert_v6(
            "2001:db8:1::/64".parse().expect("cidr"),
            label(1, AsClass::Mixed),
        );
        b.build()
    }

    #[test]
    fn eytzinger_permutation_is_the_bfs_order() {
        // Sorted [0..7) lands as [3,1,5,0,2,4,6].
        assert_eq!(eytzinger_perm(7), vec![3, 1, 5, 0, 2, 4, 6]);
        assert_eq!(eytzinger_perm(0), Vec::<usize>::new());
        assert_eq!(eytzinger_perm(1), vec![0]);
        for n in 0..50 {
            let mut seen = eytzinger_perm(n);
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..n).collect::<Vec<_>>(),
                "perm({n}) is a permutation"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_the_index_and_is_canonical() {
        let index = sample_index();
        let bytes = encode(&index);
        let mapped = MappedIndex::new(&bytes).expect("intact v2 artifact parses");
        assert_eq!(mapped.to_frozen(), index);
        assert_eq!(
            encode(&mapped.to_frozen()),
            bytes,
            "re-encoding is byte-identical"
        );
    }

    #[test]
    fn empty_index_roundtrips() {
        let index = FrozenIndex::builder().build();
        let bytes = encode(&index);
        let mapped = MappedIndex::new(&bytes).expect("empty v2 artifact parses");
        assert!(mapped.is_empty());
        assert_eq!(mapped.lpm_v4(0x0A000001), None);
        assert_eq!(mapped.to_frozen(), index);
    }

    #[test]
    fn v1_bytes_are_a_version_mismatch_not_a_panic() {
        // Any sealed v1 file, down to the 18-byte body of an empty
        // index, is named as version 1 — not as a short or corrupt v2.
        for index in [sample_index(), FrozenIndex::builder().build()] {
            let v1 = crate::artifact::encode_v1(&index);
            assert_eq!(
                MappedIndex::new(&v1).err(),
                Some(ServeError::UnsupportedVersion(1))
            );
        }
    }
}
