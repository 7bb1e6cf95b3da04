//! HyperLogLog distinct-count sketch.
//!
//! Flajolet et al.'s estimator with the linear-counting small-range
//! correction: `m = 2^p` one-byte registers record, per hashed item, the
//! longest run of leading zero bits seen in the item's bucket. The
//! estimate's standard error is `1.04 / sqrt(m)` (< 1.63% at the default
//! precision 12, 4 KiB of state), and two sketches over different event
//! substreams merge by register-wise max into *exactly* the sketch of the
//! union — the property the sharded ingest engine relies on: per-shard
//! sketches merged at snapshot time equal the single-shard sketch bit for
//! bit, regardless of shard count.

use cellseal::Reader;

use crate::error::StreamError;

/// Lowest supported precision (16 registers).
pub const MIN_PRECISION: u8 = 4;
/// Highest supported precision (65,536 registers, 64 KiB per sketch).
pub const MAX_PRECISION: u8 = 16;

/// A HyperLogLog sketch with `2^precision` registers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// An empty sketch.
    ///
    /// # Panics
    /// Panics when `precision` is outside
    /// [`MIN_PRECISION`]`..=`[`MAX_PRECISION`].
    pub fn new(precision: u8) -> Self {
        assert!(
            (MIN_PRECISION..=MAX_PRECISION).contains(&precision),
            "precision {precision} outside {MIN_PRECISION}..={MAX_PRECISION}"
        );
        HyperLogLog {
            precision,
            registers: vec![0; 1 << precision],
        }
    }

    /// The sketch's precision parameter.
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Number of registers (`m = 2^precision`).
    pub fn registers(&self) -> usize {
        self.registers.len()
    }

    /// Standard error of [`estimate`](Self::estimate): `1.04 / sqrt(m)`.
    pub fn relative_error(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }

    /// Observe an item by its 64-bit id. Ids are scrambled through a
    /// finalizer before bucketing, so structured ids (e.g. sequential
    /// block indices) are fine.
    pub fn insert_u64(&mut self, item: u64) {
        self.insert_hash(mix64(item));
    }

    /// Observe an item by an already well-mixed 64-bit hash.
    pub fn insert_hash(&mut self, hash: u64) {
        let idx = (hash >> (64 - self.precision)) as usize;
        // Rank: position of the first 1 in the remaining bits, 1-based,
        // saturating when they are all zero.
        let rest = hash << self.precision;
        let rank = if rest == 0 {
            64 - self.precision + 1
        } else {
            rest.leading_zeros() as u8 + 1
        };
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimated number of distinct items observed.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let mut sum = 0.0;
        let mut zeros = 0usize;
        for &r in &self.registers {
            sum += 1.0 / (1u64 << r) as f64;
            if r == 0 {
                zeros += 1;
            }
        }
        let raw = alpha(self.registers.len()) * m * m / sum;
        // Linear counting handles the small-cardinality regime where the
        // raw estimator is biased high.
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// True when no item was ever observed.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// Fold another sketch into this one: after the merge, `self` is
    /// exactly the sketch that would have observed both input streams.
    ///
    /// # Panics
    /// Panics when precisions differ.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge HLLs of different precision"
        );
        for (a, &b) in self.registers.iter_mut().zip(&other.registers) {
            if b > *a {
                *a = b;
            }
        }
    }

    /// Bytes of register state (the sketch's memory bound).
    pub fn state_bytes(&self) -> usize {
        self.registers.len()
    }

    /// Checkpoint encoding: the precision byte, then the `2^precision`
    /// registers.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.precision);
        out.extend_from_slice(&self.registers);
    }

    /// Decode what [`encode`](Self::encode) wrote, refusing a precision
    /// [`new`](Self::new) would panic on and register values no hash can
    /// produce (a rank above `64 - precision + 1` would overflow the
    /// shift in [`estimate`](Self::estimate)).
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, StreamError> {
        let precision = r.u8()?;
        if !(MIN_PRECISION..=MAX_PRECISION).contains(&precision) {
            return Err(StreamError::Corrupt(format!(
                "hll precision {precision} outside {MIN_PRECISION}..={MAX_PRECISION}"
            )));
        }
        let registers = r.take(1 << precision)?.to_vec();
        let max_rank = 64 - precision + 1;
        if let Some(rank) = registers.iter().find(|&&rank| rank > max_rank) {
            return Err(StreamError::Corrupt(format!(
                "hll register holds rank {rank}, above {max_rank} at precision {precision}"
            )));
        }
        Ok(HyperLogLog {
            precision,
            registers,
        })
    }
}

/// Bias-correction constant `alpha_m`.
fn alpha(m: usize) -> f64 {
    match m {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

/// SplitMix64 finalizer: a cheap, well-distributed 64→64 bit mix.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimates_zero() {
        let h = HyperLogLog::new(12);
        assert!(h.is_empty());
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h = HyperLogLog::new(12);
        for _ in 0..1000 {
            h.insert_u64(42);
        }
        let e = h.estimate();
        assert!((0.5..=1.5).contains(&e), "estimate {e} for one item");
    }

    #[test]
    fn estimate_within_three_sigma() {
        for &n in &[100u64, 1_000, 30_000] {
            let mut h = HyperLogLog::new(12);
            for i in 0..n {
                h.insert_u64(i);
            }
            let e = h.estimate();
            let tol = 3.0 * h.relative_error() * n as f64 + 1.0;
            assert!(
                (e - n as f64).abs() <= tol,
                "n={n}: estimate {e} off by more than {tol}"
            );
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(10);
        let mut b = HyperLogLog::new(10);
        let mut u = HyperLogLog::new(10);
        for i in 0..5_000u64 {
            if i % 2 == 0 {
                a.insert_u64(i);
            }
            if i % 3 == 0 {
                b.insert_u64(i);
            }
            if i % 2 == 0 || i % 3 == 0 {
                u.insert_u64(i);
            }
        }
        a.merge(&b);
        assert_eq!(a, u, "merge must be exactly the union sketch");
    }

    #[test]
    fn merge_is_commutative_and_idempotent() {
        let mut a = HyperLogLog::new(8);
        let mut b = HyperLogLog::new(8);
        for i in 0..500u64 {
            a.insert_u64(i);
            b.insert_u64(i + 250);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let before = ab.clone();
        ab.merge(&before.clone());
        assert_eq!(ab, before, "self-merge must not change the sketch");
    }

    #[test]
    fn decode_refuses_sketches_no_stream_produces() {
        let mut h = HyperLogLog::new(4);
        h.insert_u64(7);
        let mut bytes = Vec::new();
        h.encode(&mut bytes);
        assert_eq!(bytes.len(), 1 + 16);
        let decode = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            HyperLogLog::decode(&mut r).map(|h| (h, r.finish()))
        };
        assert!(matches!(decode(&bytes), Ok((back, Ok(()))) if back == h));

        for precision in [0, MIN_PRECISION - 1, MAX_PRECISION + 1, u8::MAX] {
            let mut bad = bytes.clone();
            bad[0] = precision;
            assert!(
                matches!(decode(&bad), Err(StreamError::Corrupt(why)) if why.contains("precision")),
                "precision {precision}"
            );
        }
        // Rank 61 is the most 60 hash bits can show; 62 would later
        // overflow the shift in `estimate`.
        let mut bad = bytes.clone();
        bad[1] = 61;
        assert!(decode(&bad).is_ok());
        bad[1] = 62;
        assert!(matches!(decode(&bad), Err(StreamError::Corrupt(why)) if why.contains("rank 62")));
        // Fewer registers than the precision promises.
        assert!(matches!(
            decode(&bytes[..16]),
            Err(StreamError::Integrity(cellseal::SealError::Truncated))
        ));
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn precision_out_of_range_panics() {
        let _ = HyperLogLog::new(3);
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn mixed_precision_merge_panics() {
        let mut a = HyperLogLog::new(8);
        let b = HyperLogLog::new(9);
        a.merge(&b);
    }
}
