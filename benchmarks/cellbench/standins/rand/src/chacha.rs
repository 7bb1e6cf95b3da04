//! The ChaCha stream cipher as a random number generator, in the
//! layout `rand_chacha` uses: 256-bit key from the seed, 64-bit block
//! counter in words 12–13, 64-bit stream id (zero) in words 14–15, and
//! a 64-word output buffer refilled four blocks at a time.

use crate::{RngCore, SeedableRng};

const BUF_WORDS: usize = 64;
const BLOCK_WORDS: usize = 16;

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One 16-word ChaCha block with `ROUNDS` rounds.
fn block<const ROUNDS: usize>(key: &[u32; 8], counter: u64, stream: u64, out: &mut [u32]) {
    let input: [u32; 16] = [
        0x6170_7865,
        0x3320_646e,
        0x7962_2d32,
        0x6b20_6574,
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
        stream as u32,
        (stream >> 32) as u32,
    ];
    let mut s = input;
    for _ in 0..ROUNDS / 2 {
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    for (o, (a, b)) in out.iter_mut().zip(s.iter().zip(input.iter())) {
        *o = a.wrapping_add(*b);
    }
}

/// A ChaCha generator with `ROUNDS` rounds.
#[derive(Clone, Debug)]
pub struct ChaChaRng<const ROUNDS: usize> {
    key: [u32; 8],
    counter: u64,
    stream: u64,
    buf: [u32; BUF_WORDS],
    index: usize,
}

/// ChaCha with 8 rounds.
pub type ChaCha8Rng = ChaChaRng<8>;
/// ChaCha with 12 rounds.
pub type ChaCha12Rng = ChaChaRng<12>;
/// ChaCha with 20 rounds.
pub type ChaCha20Rng = ChaChaRng<20>;

impl<const ROUNDS: usize> ChaChaRng<ROUNDS> {
    fn refill(&mut self) {
        for (i, chunk) in self.buf.chunks_exact_mut(BLOCK_WORDS).enumerate() {
            block::<ROUNDS>(
                &self.key,
                self.counter.wrapping_add(i as u64),
                self.stream,
                chunk,
            );
        }
        self.counter = self.counter.wrapping_add((BUF_WORDS / BLOCK_WORDS) as u64);
        self.index = 0;
    }

    /// Position the generator at a block counter and stream id.
    #[cfg(test)]
    pub(crate) fn set_block(&mut self, counter: u64, stream: u64) {
        self.counter = counter;
        self.stream = stream;
        self.index = BUF_WORDS;
    }
}

impl<const ROUNDS: usize> SeedableRng for ChaChaRng<ROUNDS> {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        ChaChaRng {
            key,
            counter: 0,
            stream: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

impl<const ROUNDS: usize> RngCore for ChaChaRng<ROUNDS> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // Same word pairing as `rand_core::block::BlockRng`: low word
        // first, and a value may straddle a refill.
        let join = |lo: u32, hi: u32| (u64::from(hi) << 32) | u64::from(lo);
        if self.index < BUF_WORDS - 1 {
            let v = join(self.buf[self.index], self.buf[self.index + 1]);
            self.index += 2;
            v
        } else if self.index == BUF_WORDS - 1 {
            let lo = self.buf[BUF_WORDS - 1];
            self.refill();
            self.index = 1;
            join(lo, self.buf[0])
        } else {
            self.refill();
            self.index = 2;
            join(self.buf[0], self.buf[1])
        }
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let bytes = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}
