//! The sealed CELLDELT delta format: the patch set and its codec. (The
//! diff that produces one and the merge that applies one live in
//! `artifact.rs`, next to the artifacts they read.)
//!
//! A delta is a *sorted patch set* chained onto a base CELLSERV
//! artifact by content hash:
//!
//! ```text
//! body:
//!   magic         8 bytes  "CELLDELT"
//!   version       u32      DELTA_VERSION (1)
//!   base_hash     u64      FNV-1a 64 of the base artifact bytes
//!   target_hash   u64      FNV-1a 64 of the patched artifact bytes
//!   base_epoch    u64      epoch the base artifact was built at
//!   epoch         u64      epoch this delta advances to (> base_epoch)
//!   v4 patch:
//!     op_count    u32
//!     ops         op_count × {
//!       op        u8       0 = remove, 1 = add, 2 = update
//!       len       u8       prefix length ≤ 32
//!       key       u32      masked network address, little-endian
//!       value              add/update only: { asn: u32, class: u8 }
//!     }                    sorted strictly ascending by (len, key)
//!   v6 patch:              same shape with u128 keys
//! trailer:      the cellseal envelope, trailer magic "CDLT"
//! ```
//!
//! The discipline matches `cellserve`'s artifacts exactly: little-endian
//! fixed-width fields, canonical encoding (`to_bytes(from_bytes(b)) ==
//! b`), the shared [`cellseal`] envelope rejecting any single-byte
//! corruption or truncation, and structural re-validation (sortedness,
//! masked keys, op/class byte ranges) past the seal.

use std::fmt;

use cellseal::Reader;
use cellserve::PrefixCodec;

/// Leading bytes of every delta artifact.
pub const DELTA_MAGIC: [u8; 8] = *b"CELLDELT";
/// Format version this build reads and writes.
pub const DELTA_VERSION: u32 = 1;

const TRAILER_MAGIC: [u8; 4] = *b"CDLT";

/// Everything that can go wrong building, decoding, or applying a
/// delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta bytes fail the seal or structural validation.
    Corrupt(String),
    /// The delta was written by a newer format version.
    UnsupportedVersion(u32),
    /// The delta chains on a different base artifact.
    BaseMismatch {
        /// Base hash embedded in the delta.
        delta_base: u64,
        /// Hash of the artifact the apply was attempted against.
        artifact: u64,
    },
    /// The delta's epoch does not advance past the current one.
    StaleEpoch {
        /// Epoch of the generation currently live.
        current: u64,
        /// Epoch the delta claims to advance to.
        delta: u64,
    },
    /// The base (or patched) CELLSERV artifact is itself unusable.
    Artifact(String),
    /// A patch op contradicts the base entry set (add of a present
    /// prefix, update/remove of an absent one).
    PatchConflict(String),
    /// The patched artifact does not hash to the delta's target — the
    /// delta was built against different contents than it claims.
    TargetMismatch {
        /// Target hash embedded in the delta.
        expected: u64,
        /// Hash of the artifact the patch actually produced.
        actual: u64,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Corrupt(why) => write!(f, "corrupt delta: {why}"),
            DeltaError::UnsupportedVersion(v) => write!(f, "unsupported delta version {v}"),
            DeltaError::BaseMismatch {
                delta_base,
                artifact,
            } => write!(
                f,
                "delta chains on base {delta_base:016x} but the artifact hashes to {artifact:016x}"
            ),
            DeltaError::StaleEpoch { current, delta } => write!(
                f,
                "stale delta: epoch {delta} does not advance past the current epoch {current}"
            ),
            DeltaError::Artifact(why) => write!(f, "artifact error: {why}"),
            DeltaError::PatchConflict(why) => write!(f, "patch conflict: {why}"),
            DeltaError::TargetMismatch { expected, actual } => write!(
                f,
                "patched artifact hashes to {actual:016x}, delta promised {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<cellseal::SealError> for DeltaError {
    fn from(e: cellseal::SealError) -> Self {
        DeltaError::Corrupt(e.to_string())
    }
}

fn corrupt(why: impl Into<String>) -> DeltaError {
    DeltaError::Corrupt(why.into())
}

/// What a patch op does to its prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchChange {
    /// The prefix leaves the served set.
    Remove,
    /// The prefix joins the served set with this label.
    Add {
        /// Origin AS number.
        asn: u32,
        /// Class byte (`cellserve::AsClass::to_byte`).
        class: u8,
    },
    /// The prefix stays served but its label changes.
    Update {
        /// Origin AS number.
        asn: u32,
        /// Class byte (`cellserve::AsClass::to_byte`).
        class: u8,
    },
}

impl PatchChange {
    fn op_byte(self) -> u8 {
        match self {
            PatchChange::Remove => 0,
            PatchChange::Add { .. } => 1,
            PatchChange::Update { .. } => 2,
        }
    }
}

/// One prefix's change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatchOp<K> {
    /// Prefix length.
    pub len: u8,
    /// Masked network address.
    pub key: K,
    /// What happens to it.
    pub change: PatchChange,
}

/// A decoded delta artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delta {
    /// Content hash of the base artifact this delta chains on.
    pub base_hash: u64,
    /// Content hash the patched artifact must have.
    pub target_hash: u64,
    /// Epoch the base artifact was built at.
    pub base_epoch: u64,
    /// Epoch this delta advances to; always `> base_epoch`.
    pub epoch: u64,
    /// IPv4 patch ops, sorted strictly ascending by `(len, key)`.
    pub v4: Vec<PatchOp<u32>>,
    /// IPv6 patch ops, same order.
    pub v6: Vec<PatchOp<u128>>,
}

impl Delta {
    /// Total patch ops across both families.
    pub fn op_count(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// Serialize into a sealed delta artifact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&DELTA_MAGIC);
        out.extend_from_slice(&DELTA_VERSION.to_le_bytes());
        out.extend_from_slice(&self.base_hash.to_le_bytes());
        out.extend_from_slice(&self.target_hash.to_le_bytes());
        out.extend_from_slice(&self.base_epoch.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        encode_ops(&mut out, &self.v4);
        encode_ops(&mut out, &self.v6);
        cellseal::seal(out, TRAILER_MAGIC)
    }

    /// Decode and fully validate a sealed delta: seal first
    /// ([`cellseal::open`]), then structure (header magic, version,
    /// epoch ordering, op sortedness, masked keys, op/class byte
    /// ranges, no trailing bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<Delta, DeltaError> {
        let mut r = Reader::new(cellseal::open(bytes, TRAILER_MAGIC)?);
        if r.take(DELTA_MAGIC.len())? != DELTA_MAGIC {
            return Err(corrupt("header magic mismatch"));
        }
        let version = r.u32()?;
        if version != DELTA_VERSION {
            return Err(DeltaError::UnsupportedVersion(version));
        }
        let base_hash = r.u64()?;
        let target_hash = r.u64()?;
        let base_epoch = r.u64()?;
        let epoch = r.u64()?;
        if epoch <= base_epoch {
            return Err(corrupt(format!(
                "delta epoch {epoch} does not advance past base epoch {base_epoch}"
            )));
        }
        let v4 = decode_ops::<u32>(&mut r)?;
        let v6 = decode_ops::<u128>(&mut r)?;
        r.finish()?;
        Ok(Delta {
            base_hash,
            target_hash,
            base_epoch,
            epoch,
            v4,
            v6,
        })
    }
}

fn encode_ops<K: PrefixCodec>(out: &mut Vec<u8>, ops: &[PatchOp<K>]) {
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        out.push(op.change.op_byte());
        out.push(op.len);
        op.key.write_le(out);
        match op.change {
            PatchChange::Remove => {}
            PatchChange::Add { asn, class } | PatchChange::Update { asn, class } => {
                out.extend_from_slice(&asn.to_le_bytes());
                out.push(class);
            }
        }
    }
}

fn decode_ops<K: PrefixCodec>(r: &mut Reader<'_>) -> Result<Vec<PatchOp<K>>, DeltaError> {
    let count = r.u32()? as usize;
    let mut ops = Vec::with_capacity(count.min(1 << 20));
    let mut prev: Option<(u8, K)> = None;
    for i in 0..count {
        let op_byte = r.u8()?;
        let len = r.u8()?;
        if len > K::BITS {
            return Err(corrupt(format!(
                "prefix length {len} exceeds family width {} in op {i}",
                K::BITS
            )));
        }
        let key = K::read_le(r.take(K::SIZE)?);
        if key.and(K::mask(len)) != key {
            return Err(corrupt(format!("non-canonical key in op {i}")));
        }
        if let Some(p) = prev {
            if (len, key) <= p {
                return Err(corrupt(format!("ops out of order at op {i}")));
            }
        }
        prev = Some((len, key));
        let change = match op_byte {
            0 => PatchChange::Remove,
            1 | 2 => {
                let asn = r.u32()?;
                let class = r.u8()?;
                if class > 2 {
                    return Err(corrupt(format!("invalid class byte {class} in op {i}")));
                }
                if op_byte == 1 {
                    PatchChange::Add { asn, class }
                } else {
                    PatchChange::Update { asn, class }
                }
            }
            other => return Err(corrupt(format!("invalid op byte {other} in op {i}"))),
        };
        ops.push(PatchOp { len, key, change });
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Delta {
        Delta {
            base_hash: 0x1111_2222_3333_4444,
            target_hash: 0x5555_6666_7777_8888,
            base_epoch: 3,
            epoch: 4,
            v4: vec![
                PatchOp {
                    len: 8,
                    key: 0x0A00_0000,
                    change: PatchChange::Add {
                        asn: 64500,
                        class: 1,
                    },
                },
                PatchOp {
                    len: 24,
                    key: 0xC000_0200,
                    change: PatchChange::Update {
                        asn: 64501,
                        class: 2,
                    },
                },
                PatchOp {
                    len: 24,
                    key: 0xC633_6400,
                    change: PatchChange::Remove,
                },
            ],
            v6: vec![PatchOp {
                len: 48,
                key: 0x2001_0db8_0000_0000_0000_0000_0000_0000,
                change: PatchChange::Add {
                    asn: 64502,
                    class: 2,
                },
            }],
        }
    }

    #[test]
    fn roundtrip_is_canonical() {
        let delta = sample();
        let bytes = delta.to_bytes();
        let decoded = Delta::from_bytes(&bytes).expect("valid delta");
        assert_eq!(decoded, delta);
        assert_eq!(decoded.to_bytes(), bytes, "canonical encoding");
        assert_eq!(decoded.op_count(), 4);
    }

    #[test]
    fn empty_patch_roundtrips() {
        let delta = Delta {
            base_hash: 1,
            target_hash: 1,
            base_epoch: 0,
            epoch: 1,
            v4: Vec::new(),
            v6: Vec::new(),
        };
        let bytes = delta.to_bytes();
        let decoded = Delta::from_bytes(&bytes).expect("valid empty delta");
        assert_eq!(decoded, delta);
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn epoch_must_advance_past_base_epoch() {
        let mut delta = sample();
        delta.epoch = delta.base_epoch;
        let err = Delta::from_bytes(&delta.to_bytes()).expect_err("non-advancing epoch");
        assert!(err.to_string().contains("does not advance"), "{err}");
    }

    #[test]
    fn out_of_order_and_duplicate_ops_are_rejected() {
        let mut delta = sample();
        delta.v4.swap(0, 1);
        let err = Delta::from_bytes(&delta.to_bytes()).expect_err("unsorted ops");
        assert!(err.to_string().contains("out of order"), "{err}");

        let mut dup = sample();
        let first = dup.v4[0];
        dup.v4.insert(1, first);
        let err = Delta::from_bytes(&dup.to_bytes()).expect_err("duplicate op key");
        assert!(err.to_string().contains("out of order"), "{err}");
    }

    #[test]
    fn forged_op_and_class_bytes_are_rejected() {
        // Body offset of the first v4 op: 8 magic + 4 version + 32
        // hashes/epochs + 4 op count.
        let op_at = 8 + 4 + 32 + 4;
        let mut bad_op = sample().to_bytes();
        bad_op[op_at] = 7;
        cellseal::reseal(&mut bad_op);
        let err = Delta::from_bytes(&bad_op).expect_err("invalid op byte");
        assert!(err.to_string().contains("op byte"), "{err}");

        // The first op is an Add: op, len, 4-byte key, 4-byte asn, class.
        let class_at = op_at + 1 + 1 + 4 + 4;
        let mut bad_class = sample().to_bytes();
        bad_class[class_at] = 9;
        cellseal::reseal(&mut bad_class);
        let err = Delta::from_bytes(&bad_class).expect_err("invalid class byte");
        assert!(err.to_string().contains("class byte"), "{err}");
    }

    #[test]
    fn non_canonical_keys_are_rejected() {
        let mut delta = sample();
        delta.v4[0].key |= 1; // bits below the /8 mask
        let err = Delta::from_bytes(&delta.to_bytes()).expect_err("unmasked key");
        assert!(err.to_string().contains("non-canonical"), "{err}");
    }
}
