//! The two checksums sealed files are built from: CRC-32 guards a body
//! against corruption, FNV-1a 64 names a file's content.

/// IEEE CRC-32 slicing-by-8 tables (reflected, polynomial
/// `0xEDB88320`), 8 KiB: `CRC_TABLES[0]` is the classic per-byte table,
/// `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let c = tables[k - 1][i];
            tables[k][i] = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Fold `bytes` into the running (pre-inverted) CRC state one table
/// look-up per byte: the tail of [`crc32`], and the reference its tests
/// compare the sliced kernel against.
fn crc32_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE CRC-32 of `bytes` (the zlib/PNG variant), eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes")) ^ c as u64;
        let at = |k: usize| (word >> (8 * k)) as u8 as usize;
        c = t[7][at(0)]
            ^ t[6][at(1)]
            ^ t[5][at(2)]
            ^ t[4][at(3)]
            ^ t[3][at(4)]
            ^ t[2][at(5)]
            ^ t[1][at(6)]
            ^ t[0][at(7)];
    }
    crc32_bytewise(c, chunks.remainder()) ^ 0xFFFF_FFFF
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 of `bytes` — the content hash sealed files are identified
/// and chained by.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64 of `bytes` and of `bytes[inner]` in one pass: the two
/// multiply chains are independent, so over `inner` they cost what one
/// does. CELLSERV v2 validation reads a file's content hash and its
/// header's quick hash (the sections alone) this way.
///
/// # Panics
/// When `inner` does not lie within `bytes`.
pub fn fnv1a64_nested(bytes: &[u8], inner: std::ops::Range<usize>) -> (u64, u64) {
    let mut whole = Fnv64::new();
    whole.write(&bytes[..inner.start]);
    let (mut h, mut part) = (whole.0, FNV_OFFSET);
    for &b in &bytes[inner.start..inner.end] {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        part = (part ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    let mut whole = Fnv64(h);
    whole.write(&bytes[inner.end..]);
    (whole.finish(), part)
}

/// Incremental FNV-1a 64: hashing the concatenation of two byte
/// streams equals continuing one hasher across both, so
/// `Fnv64::new().write(a).write(b)` and `fnv1a64(a ++ b)` agree.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Fold `bytes` in.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A seeded byte stream (xorshift64), so the kernels are compared
    /// on the same buffer every run.
    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference_at_every_length_and_offset() {
        let buf = seeded_bytes(80);
        for start in 0..8 {
            for len in 0..=67 {
                let bytes = &buf[start..start + len];
                let reference = crc32_bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF;
                assert_eq!(crc32(bytes), reference, "start {start}, length {len}");
            }
        }
    }

    #[test]
    fn nested_hash_equals_the_two_separate_hashes() {
        // The CELLSERV v2 shape: a 64-byte header, the sections, and a
        // 16-byte trailer the inner hash leaves out.
        for body_len in 64..=200 {
            let bytes = seeded_bytes(body_len + 16);
            assert_eq!(
                fnv1a64_nested(&bytes, 64..body_len),
                (fnv1a64(&bytes), fnv1a64(&bytes[64..body_len])),
                "body length {body_len}"
            );
        }
        // Degenerate ranges: everything, nothing, an empty input.
        let bytes = seeded_bytes(33);
        assert_eq!(
            fnv1a64_nested(&bytes, 0..33),
            (fnv1a64(&bytes), fnv1a64(&bytes))
        );
        assert_eq!(
            fnv1a64_nested(&bytes, 7..7),
            (fnv1a64(&bytes), fnv1a64(b""))
        );
        assert_eq!(fnv1a64_nested(b"", 0..0), (fnv1a64(b""), fnv1a64(b"")));
    }

    #[test]
    fn known_fnv1a_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn single_byte_changes_change_the_hash() {
        let base = b"CELLSERV-something".to_vec();
        let h = fnv1a64(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x01;
            assert_ne!(fnv1a64(&flipped), h, "flip at {i}");
        }
    }

    #[test]
    fn incremental_hashing_matches_one_shot_at_every_split() {
        let bytes = b"the quick brown fox";
        for cut in 0..=bytes.len() {
            let mut h = Fnv64::new();
            h.write(&bytes[..cut]);
            h.write(&bytes[cut..]);
            assert_eq!(h.finish(), fnv1a64(bytes), "split at {cut}");
        }
        assert_eq!(Fnv64::default().finish(), fnv1a64(b""));
    }
}
