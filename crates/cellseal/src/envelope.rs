//! The trailer every sealed binary file ends with, and its one
//! verifier.

use std::fmt;

use crate::checksum::crc32;

/// Trailer size: body length (8) + CRC-32 (4) + trailer magic (4).
pub const TRAILER_LEN: usize = 16;

/// Why sealed bytes were refused: by [`open`] (the first four) or, past
/// the seal, by a [`Reader`](crate::Reader) walking the body (the last
/// two). Each format maps these into its own `Corrupt` error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SealError {
    /// Fewer bytes than a trailer.
    TooShort {
        /// Length of the input.
        len: usize,
    },
    /// The last four bytes are not the expected trailer magic.
    TrailerMagic,
    /// The trailer's recorded body length is not the body's length.
    Length {
        /// Body length recorded in the trailer.
        sealed: u64,
        /// Body length actually present.
        actual: usize,
    },
    /// The body's CRC-32 does not match the trailer's.
    Crc {
        /// CRC-32 recorded in the trailer.
        sealed: u32,
        /// CRC-32 of the body as read.
        computed: u32,
    },
    /// The body ended before a field the format requires.
    Truncated,
    /// Bytes were left over after the last field.
    Trailing {
        /// How many.
        extra: usize,
    },
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::TooShort { len } => write!(
                f,
                "{len} bytes is shorter than the {TRAILER_LEN}-byte seal trailer"
            ),
            SealError::TrailerMagic => write!(f, "bad trailer magic"),
            SealError::Length { sealed, actual } => write!(
                f,
                "length seal mismatch: trailer says {sealed}, body is {actual}"
            ),
            SealError::Crc { sealed, computed } => write!(
                f,
                "CRC mismatch: sealed {sealed:#010x}, computed {computed:#010x}"
            ),
            SealError::Truncated => write!(f, "truncated body"),
            SealError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
        }
    }
}

impl std::error::Error for SealError {}

/// Seal a buffer whose last [`TRAILER_LEN`] bytes are reserved for the
/// trailer: everything before them is the body. For writers that size
/// the whole file up front (CELLSERV v2).
///
/// # Panics
/// When `buf` is shorter than a trailer — a writer bug.
pub fn seal_in_place(buf: &mut [u8], trailer_magic: [u8; 4]) {
    let body_len = buf
        .len()
        .checked_sub(TRAILER_LEN)
        .expect("the buffer reserves room for the trailer");
    let (body, trailer) = buf.split_at_mut(body_len);
    trailer[0..8].copy_from_slice(&(body_len as u64).to_le_bytes());
    trailer[8..12].copy_from_slice(&crc32(body).to_le_bytes());
    trailer[12..16].copy_from_slice(&trailer_magic);
}

/// Append the trailer to a finished body.
pub fn seal(mut body: Vec<u8>, trailer_magic: [u8; 4]) -> Vec<u8> {
    body.resize(body.len() + TRAILER_LEN, 0);
    seal_in_place(&mut body, trailer_magic);
    body
}

/// Verify the seal — trailer magic, then length, then CRC — and return
/// the body.
///
/// # Errors
/// The first check that fails, as a [`SealError`].
pub fn open(bytes: &[u8], trailer_magic: [u8; 4]) -> Result<&[u8], SealError> {
    let body_len = bytes
        .len()
        .checked_sub(TRAILER_LEN)
        .ok_or(SealError::TooShort { len: bytes.len() })?;
    let (body, trailer) = bytes.split_at(body_len);
    if trailer[12..16] != trailer_magic {
        return Err(SealError::TrailerMagic);
    }
    let sealed = u64::from_le_bytes(trailer[0..8].try_into().expect("8 bytes"));
    if sealed != body_len as u64 {
        return Err(SealError::Length {
            sealed,
            actual: body_len,
        });
    }
    let sealed = u32::from_le_bytes(trailer[8..12].try_into().expect("4 bytes"));
    let computed = crc32(body);
    if sealed != computed {
        return Err(SealError::Crc { sealed, computed });
    }
    Ok(body)
}

/// Re-seal sealed bytes whose body was edited in place, keeping their
/// trailer magic — so only the checks *past* the seal can refuse them.
/// What a buggy writer would produce, and what tests of those checks
/// need.
///
/// # Panics
/// When `bytes` is shorter than a trailer.
pub fn reseal(bytes: &mut [u8]) {
    let magic_at = bytes
        .len()
        .checked_sub(4)
        .expect("sealed bytes end in a trailer");
    let magic = bytes[magic_at..].try_into().expect("4 bytes");
    seal_in_place(bytes, magic);
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    fn sample() -> Vec<u8> {
        seal(b"MAGICMAG\x01\x00\x00\x00 some body bytes".to_vec(), MAGIC)
    }

    #[test]
    fn seal_then_open_returns_the_body() {
        let body = b"MAGICMAG\x01\x00\x00\x00 some body bytes";
        let sealed = sample();
        assert_eq!(sealed.len(), body.len() + TRAILER_LEN);
        assert_eq!(open(&sealed, MAGIC), Ok(&body[..]));
        // An empty body seals and opens too.
        assert_eq!(open(&seal(Vec::new(), MAGIC), MAGIC), Ok(&[][..]));
    }

    #[test]
    fn sealing_in_place_writes_the_same_bytes() {
        let sealed = sample();
        let mut buf = sealed[..sealed.len() - TRAILER_LEN].to_vec();
        buf.extend_from_slice(&[0xAA; TRAILER_LEN]);
        seal_in_place(&mut buf, MAGIC);
        assert_eq!(buf, sealed);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let sealed = sample();
        for i in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    open(&bad, MAGIC).is_err(),
                    "flip of bit {bit} at byte {i}/{} accepted",
                    sealed.len()
                );
            }
        }
    }

    #[test]
    fn every_truncation_and_every_short_input_is_rejected() {
        let sealed = sample();
        for keep in 0..sealed.len() {
            assert!(
                open(&sealed[..keep], MAGIC).is_err(),
                "truncation to {keep}/{} bytes accepted",
                sealed.len()
            );
        }
        for len in 0..TRAILER_LEN {
            assert_eq!(
                open(&vec![0u8; len], MAGIC),
                Err(SealError::TooShort { len })
            );
        }
    }

    #[test]
    fn checks_run_magic_then_length_then_crc() {
        let sealed = sample();
        let body_len = sealed.len() - TRAILER_LEN;
        let damaged = |at: &[usize]| {
            let mut bad = sealed.clone();
            for &i in at {
                bad[i] ^= 0x01;
            }
            open(&bad, MAGIC).expect_err("damaged")
        };
        let (in_body, in_len, in_crc, in_magic) = (3, body_len, body_len + 8, body_len + 12);
        assert!(matches!(damaged(&[in_body]), SealError::Crc { .. }));
        assert!(matches!(damaged(&[in_crc]), SealError::Crc { .. }));
        assert!(matches!(damaged(&[in_len]), SealError::Length { .. }));
        assert_eq!(damaged(&[in_magic]), SealError::TrailerMagic);
        // With several fields wrong, the earliest check names the failure.
        assert!(matches!(
            damaged(&[in_body, in_len]),
            SealError::Length { .. }
        ));
        assert_eq!(
            damaged(&[in_body, in_len, in_magic]),
            SealError::TrailerMagic
        );
        // Another format's trailer magic is a magic failure, not a CRC one.
        assert_eq!(open(&sealed, *b"ELSE"), Err(SealError::TrailerMagic));
    }

    #[test]
    fn reseal_makes_an_edited_body_open_again() {
        let mut sealed = sample();
        sealed[8] = 2;
        assert!(open(&sealed, MAGIC).is_err());
        reseal(&mut sealed);
        let body = open(&sealed, MAGIC).expect("re-sealed bytes open");
        assert_eq!(body[8], 2);
        // Resealing intact bytes changes nothing.
        let intact = sample();
        let mut again = intact.clone();
        reseal(&mut again);
        assert_eq!(again, intact);
    }
}
