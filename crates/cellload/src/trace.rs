//! The sealed CLOAD trace file format.
//!
//! A generated workload serializes to a compact, versioned byte layout
//! sealed with the same [`cellseal`] envelope as the CELLSERV artifact
//! and CELLDELT delta formats. All integers are little-endian except
//! query addresses, which reuse the framed protocol's big-endian
//! (network order) encoding.
//!
//! ```text
//! body:
//!   magic            8 bytes  "CELLLOAD"
//!   version          u32      TRACE_VERSION (1)
//!   seed             u64      the generator seed
//!   preset_len       u8
//!   preset           preset_len bytes, UTF-8 preset name
//!   segment_count    u32
//!   segments         segment_count × {
//!     epoch          u64      CELLDELT epoch this segment expects
//!     query_count    u32
//!     queries        query_count × { family u8 (4|6),
//!                                    addr 4 or 16 bytes BE }
//!   }
//! trailer:           the cellseal envelope, trailer magic "CLDT"
//! ```
//!
//! [`Trace::from_bytes`] verifies the seal ([`cellseal::open`]) before
//! touching the body, then parses strictly: bad family bytes, short
//! bodies, and trailing garbage are all rejected, so the encoding is
//! canonical — `to_bytes(from_bytes(b)?) == b` — and the
//! trace digest ([`Trace::digest`]) identifies a workload the way an
//! artifact's content hash identifies a generation.

use cellseal::Reader;
use cellserve::IpKey;

use crate::error::LoadError;

/// Leading magic identifying a CLOAD trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"CELLLOAD";

/// Format version this build writes and reads.
pub const TRACE_VERSION: u32 = 1;

/// Trailing magic closing the seal.
const TRAILER_MAGIC: [u8; 4] = *b"CLDT";

fn corrupt(why: impl Into<String>) -> LoadError {
    LoadError::Corrupt(why.into())
}

/// One contiguous run of queries generated against a single serving
/// epoch.
///
/// Non-churn presets emit exactly one segment at epoch 0. The `churn`
/// preset emits one segment per CELLDELT epoch; the replay driver
/// announces each boundary so the harness can hot-patch the daemon (or
/// swap engines) before the segment's queries are issued.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSegment {
    /// The CELLDELT epoch the serving side is expected to be at.
    pub epoch: u64,
    /// The queries, in replay order.
    pub queries: Vec<IpKey>,
}

/// A complete generated workload: metadata plus ordered segments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Name of the preset that generated this trace.
    pub preset: String,
    /// The generator seed.
    pub seed: u64,
    /// Ordered segments; replay issues them first to last.
    pub segments: Vec<TraceSegment>,
}

impl Trace {
    /// Total queries across all segments.
    pub fn total_queries(&self) -> usize {
        self.segments.iter().map(|s| s.queries.len()).sum()
    }

    /// FNV-1a 64 content hash of the sealed encoding — the workload's
    /// identity. Two traces digest equal iff they replay byte-identical
    /// query streams.
    pub fn digest(&self) -> u64 {
        cellserve::content_hash(&self.to_bytes())
    }

    /// Serialize into a sealed CLOAD file.
    ///
    /// # Panics
    /// When the preset name exceeds 255 bytes or a segment exceeds
    /// `u32::MAX` queries — both far beyond anything the generator
    /// emits.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(
            self.preset.len() <= u8::MAX as usize,
            "preset name too long"
        );
        let mut out = Vec::with_capacity(64 + self.total_queries() * 5);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.push(self.preset.len() as u8);
        out.extend_from_slice(self.preset.as_bytes());
        out.extend_from_slice(
            &u32::try_from(self.segments.len())
                .expect("segment count")
                .to_le_bytes(),
        );
        for seg in &self.segments {
            out.extend_from_slice(&seg.epoch.to_le_bytes());
            out.extend_from_slice(
                &u32::try_from(seg.queries.len())
                    .expect("query count")
                    .to_le_bytes(),
            );
            for q in &seg.queries {
                match q {
                    IpKey::V4(a) => {
                        out.push(4);
                        out.extend_from_slice(&a.to_be_bytes());
                    }
                    IpKey::V6(a) => {
                        out.push(6);
                        out.extend_from_slice(&a.to_be_bytes());
                    }
                }
            }
        }
        cellseal::seal(out, TRAILER_MAGIC)
    }

    /// Verify the seal and decode.
    ///
    /// # Errors
    /// [`LoadError::Corrupt`] on any seal or structural violation;
    /// [`LoadError::UnsupportedVersion`] when the file is from a newer
    /// format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, LoadError> {
        let mut r = Reader::new(cellseal::open(bytes, TRAILER_MAGIC)?);
        if r.take(8)? != TRACE_MAGIC {
            return Err(corrupt("bad leading magic"));
        }
        let version = r.u32()?;
        if version != TRACE_VERSION {
            return Err(LoadError::UnsupportedVersion(version));
        }
        let seed = r.u64()?;
        let preset_len = r.u8()? as usize;
        let preset = String::from_utf8(r.take(preset_len)?.to_vec())
            .map_err(|_| corrupt("preset name is not UTF-8"))?;
        let segment_count = r.u32()? as usize;
        let mut segments = Vec::with_capacity(segment_count.min(1024));
        for _ in 0..segment_count {
            let epoch = r.u64()?;
            let query_count = r.u32()? as usize;
            let mut queries = Vec::with_capacity(query_count.min(1 << 20));
            for _ in 0..query_count {
                match r.u8()? {
                    4 => queries.push(IpKey::V4(u32::from_be_bytes(r.array()?))),
                    6 => queries.push(IpKey::V6(u128::from_be_bytes(r.array()?))),
                    f => return Err(corrupt(format!("invalid family byte {f}"))),
                }
            }
            segments.push(TraceSegment { epoch, queries });
        }
        r.finish()?;
        Ok(Trace {
            preset,
            seed,
            segments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            preset: "steady".to_string(),
            seed: 42,
            segments: vec![
                TraceSegment {
                    epoch: 0,
                    queries: vec![IpKey::V4(0x0A00_0001), IpKey::V6(1 << 80)],
                },
                TraceSegment {
                    epoch: 1,
                    queries: vec![IpKey::V4(0xC000_0201)],
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_canonical() {
        let t = sample();
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("decode");
        assert_eq!(back, t);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.digest(), t.digest());
    }
}
