//! Bounds-checked sequential reader over a verified body.

use crate::envelope::SealError;

/// Walks a body front to back; every read past the end is
/// [`SealError::Truncated`], never a panic. Integers are little-endian;
/// formats that store a field in another byte order read it with
/// [`Reader::array`].
pub struct Reader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start at the first byte of `body`.
    pub fn new(body: &'a [u8]) -> Reader<'a> {
        Reader { body, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SealError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.body.len())
            .ok_or(SealError::Truncated)?;
        let slice = &self.body[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// The next `N` bytes as a fixed array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], SealError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, SealError> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SealError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SealError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Done: anything left over is [`SealError::Trailing`], which is
    /// what keeps every encoding canonical.
    pub fn finish(self) -> Result<(), SealError> {
        match self.body.len() - self.pos {
            0 => Ok(()),
            extra => Err(SealError::Trailing { extra }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_read_in_order_and_finish_checks_the_end() {
        let mut body = vec![7u8];
        body.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        body.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        body.extend_from_slice(b"abc");
        let mut r = Reader::new(&body);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(0x0102_0304_0506_0708));
        assert_eq!(r.array::<2>(), Ok(*b"ab"));
        assert_eq!(r.take(1), Ok(&b"c"[..]));
        assert_eq!(r.finish(), Ok(()));

        let mut r = Reader::new(&body);
        r.u8().expect("one byte");
        assert_eq!(r.finish(), Err(SealError::Trailing { extra: 15 }));
    }

    #[test]
    fn reading_past_the_end_is_truncation_at_every_length() {
        let body = [1u8, 2, 3, 4, 5, 6, 7, 8];
        for keep in 0..body.len() {
            assert_eq!(
                Reader::new(&body[..keep]).u64(),
                Err(SealError::Truncated),
                "{keep} bytes"
            );
        }
        let mut r = Reader::new(&body);
        assert_eq!(r.take(usize::MAX), Err(SealError::Truncated));
        // A failed read consumes nothing.
        assert_eq!(r.u64(), Ok(u64::from_le_bytes(body)));
        assert_eq!(r.u8(), Err(SealError::Truncated));
    }
}
