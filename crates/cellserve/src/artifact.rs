//! The original (v1) sealed artifact format — a migrate-only codec.
//!
//! Nothing serves v1: the encoder and decoder here are reached only
//! through [`Artifact::encode`](crate::Artifact::encode)`(.., V1)` and
//! [`Artifact::decode`](crate::Artifact::decode), which is how
//! `cellspot index migrate` converts files sealed before v2 (see
//! [`crate::MappedIndex`] for the served layout). A [`FrozenIndex`]
//! serializes to a compact, versioned byte layout, sealed with the
//! shared [`cellseal`] envelope. All integers are little-endian.
//!
//! ```text
//! body:
//!   magic            8 bytes  "CELLSERV"
//!   version          u32      ARTIFACT_VERSION (1)
//!   label_count      u32
//!   labels           label_count × { asn: u32, class: u8 }
//!   v4 family:
//!     level_count    u8       levels ordered longest prefix first
//!     levels         level_count × {
//!       prefix_len   u8
//!       entry_count  u32
//!       keys         entry_count × u32   masked, strictly ascending
//!       label_idx    entry_count × u32   indexes into the label table
//!     }
//!   v6 family:       same shape with u128 (16-byte) keys
//! trailer:           the cellseal envelope, trailer magic "CSRV"
//! ```
//!
//! [`decode_v1`] verifies the seal ([`cellseal::open`]) before touching
//! the body, then re-validates every structural invariant the v2
//! encoder relies on — sorted keys, canonical (masked) prefixes,
//! longest-first level order, in-range label indexes. Encoding is
//! canonical, so `encode_v1(decode_v1(b)?) == b`.

use crate::error::ServeError;
use crate::frozen::{AsClass, FamilyIndex, FrozenIndex, Level, PrefixKey, ServeLabel};
use cellseal::Reader;
use netaddr::Asn;

/// Leading magic identifying a cellserve artifact.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"CELLSERV";

/// Version number of the v1 format (the served format is
/// [`ARTIFACT_V2_VERSION`](crate::ARTIFACT_V2_VERSION)).
pub const ARTIFACT_VERSION: u32 = 1;

/// Trailing magic closing the seal (both CELLSERV versions).
pub(crate) const TRAILER_MAGIC: [u8; 4] = *b"CSRV";

fn corrupt(why: impl Into<String>) -> ServeError {
    ServeError::Corrupt(why.into())
}

fn decode_class(byte: u8) -> Result<AsClass, ServeError> {
    AsClass::from_byte(byte).ok_or_else(|| corrupt(format!("invalid label class byte {byte}")))
}

/// Serialize an index into a sealed v1 artifact (crate-internal name;
/// the public surface is [`Artifact::encode`](crate::Artifact::encode)).
pub(crate) fn encode_v1(index: &FrozenIndex) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&ARTIFACT_MAGIC);
    out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
    out.extend_from_slice(&(index.labels.len() as u32).to_le_bytes());
    for label in &index.labels {
        out.extend_from_slice(&label.asn.value().to_le_bytes());
        out.push(label.class.to_byte());
    }
    encode_family(&mut out, &index.v4);
    encode_family(&mut out, &index.v6);
    cellseal::seal(out, TRAILER_MAGIC)
}

fn encode_family<K: PrefixKey>(out: &mut Vec<u8>, fam: &FamilyIndex<K>) {
    out.push(fam.levels.len() as u8);
    for level in &fam.levels {
        out.push(level.len);
        out.extend_from_slice(&(level.keys.len() as u32).to_le_bytes());
        for &key in &level.keys {
            key.write_le(out);
        }
        for &idx in &level.labels {
            out.extend_from_slice(&idx.to_le_bytes());
        }
    }
}

/// Verify the seal and decode a v1 artifact back into a
/// [`FrozenIndex`].
///
/// # Errors
///
/// [`ServeError::Corrupt`] on any integrity or structural failure,
/// [`ServeError::UnsupportedVersion`] when the (intact) artifact was
/// written by a different format revision (including v2 — route
/// mixed-version reads through [`Artifact::decode`](crate::Artifact::decode)).
pub(crate) fn decode_v1(bytes: &[u8]) -> Result<FrozenIndex, ServeError> {
    let mut r = Reader::new(cellseal::open(bytes, TRAILER_MAGIC)?);
    if r.take(ARTIFACT_MAGIC.len())? != ARTIFACT_MAGIC {
        return Err(corrupt("bad artifact magic"));
    }
    let version = r.u32()?;
    if version != ARTIFACT_VERSION {
        return Err(ServeError::UnsupportedVersion(version));
    }
    let label_count = r.u32()?;
    let mut labels = Vec::with_capacity(label_count.min(1 << 20) as usize);
    for _ in 0..label_count {
        let asn = Asn(r.u32()?);
        let class = decode_class(r.u8()?)?;
        labels.push(ServeLabel { asn, class });
    }
    let v4 = decode_family::<u32>(&mut r, label_count)?;
    let v6 = decode_family::<u128>(&mut r, label_count)?;
    r.finish()?;
    Ok(FrozenIndex { labels, v4, v6 })
}

fn decode_family<K: PrefixKey>(
    r: &mut Reader<'_>,
    label_count: u32,
) -> Result<FamilyIndex<K>, ServeError> {
    let level_count = r.u8()?;
    let mut levels: Vec<Level<K>> = Vec::with_capacity(level_count as usize);
    for _ in 0..level_count {
        let len = r.u8()?;
        if len > K::BITS {
            return Err(corrupt(format!(
                "prefix length {len} exceeds the family width {}",
                K::BITS
            )));
        }
        if let Some(prev) = levels.last() {
            if prev.len <= len {
                return Err(corrupt(format!(
                    "levels not longest-first: /{} after /{}",
                    len, prev.len
                )));
            }
        }
        let entry_count = r.u32()? as usize;
        if entry_count == 0 {
            return Err(corrupt(format!("empty level /{len}")));
        }
        let key_bytes = entry_count
            .checked_mul(K::SIZE)
            .ok_or_else(|| corrupt("level entry count overflows"))?;
        let raw_keys = r.take(key_bytes)?;
        let mask = K::mask(len);
        let mut keys = Vec::with_capacity(entry_count);
        for chunk in raw_keys.chunks_exact(K::SIZE) {
            let key = K::read_le(chunk);
            if key.and(mask) != key {
                return Err(corrupt(format!("non-canonical key in level /{len}")));
            }
            if let Some(&prev) = keys.last() {
                if prev >= key {
                    return Err(corrupt(format!("unsorted keys in level /{len}")));
                }
            }
            keys.push(key);
        }
        let mut label_idx = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            let idx = r.u32()?;
            if idx >= label_count {
                return Err(corrupt(format!(
                    "label index {idx} out of range (table has {label_count})"
                )));
            }
            label_idx.push(idx);
        }
        levels.push(Level {
            len,
            keys,
            labels: label_idx,
        });
    }
    Ok(FamilyIndex { levels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaddr::{Ipv4Net, Ipv6Net};

    fn sample_index() -> FrozenIndex {
        let mut b = FrozenIndex::builder();
        let label = |asn: u32, class: AsClass| ServeLabel {
            asn: Asn(asn),
            class,
        };
        b.insert_v4(
            "10.0.0.0/8".parse::<Ipv4Net>().expect("cidr"),
            label(1, AsClass::Mixed),
        );
        b.insert_v4(
            "10.1.0.0/16".parse::<Ipv4Net>().expect("cidr"),
            label(2, AsClass::Dedicated),
        );
        b.insert_v4(
            "203.0.113.0/24".parse::<Ipv4Net>().expect("cidr"),
            label(2, AsClass::Dedicated),
        );
        b.insert_v6(
            "2001:db8::/48".parse::<Ipv6Net>().expect("cidr"),
            label(3, AsClass::Unknown),
        );
        b.insert_v6(
            "2001:db8:1::/64".parse::<Ipv6Net>().expect("cidr"),
            label(1, AsClass::Mixed),
        );
        b.build()
    }

    #[test]
    fn roundtrip_preserves_the_index_and_is_canonical() {
        let index = sample_index();
        let bytes = encode_v1(&index);
        let back = decode_v1(&bytes).expect("intact artifact loads");
        assert_eq!(back, index);
        assert_eq!(encode_v1(&back), bytes, "re-encoding is byte-identical");
    }

    #[test]
    fn empty_index_roundtrips() {
        let index = FrozenIndex::builder().build();
        let back = decode_v1(&encode_v1(&index)).expect("empty artifact loads");
        assert!(back.is_empty());
        assert_eq!(back, index);
    }
}
