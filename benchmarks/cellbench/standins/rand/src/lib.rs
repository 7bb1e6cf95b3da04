//! Offline stand-in for the published `rand` 0.8 crate.
//!
//! The benchmark builds against the published crate wherever cargo can
//! resolve it. Where it cannot (a sandbox with no crate registry),
//! `standins/offline.toml` patches `rand` (and `rand_chacha`, which
//! re-exports from here) to this package. It provides exactly the
//! API surface the repository's library crates call — `Rng::gen`,
//! `Rng::gen_range`, `SeedableRng::seed_from_u64`, `rngs::StdRng`,
//! `distributions::Distribution` — over a real ChaCha block function
//! with the published crate's sampling algorithms (widening-multiply
//! rejection for integers, 53-bit mantissa fill for floats), so
//! generated worlds have the same statistics and the generator costs
//! what the real one costs. Bit-for-bit equality with the published
//! crate's streams is intended but cannot be checked offline; nothing
//! in the benchmark relies on it.

pub mod chacha;
pub mod distributions;

use distributions::uniform::SampleRange;
use distributions::{Distribution, Standard};

/// The core of a random number generator: raw integer output.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// The seed type, a byte array.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Build the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build the generator from a `u64`, expanded to a full seed with
    /// PCG32 as the published crate does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&x[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// User-level sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value of `T` from the [`Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// A value uniformly distributed over `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators.
pub mod rngs {
    use crate::chacha::ChaCha12Rng;
    use crate::{RngCore, SeedableRng};

    /// The standard generator: ChaCha with 12 rounds, as in `rand` 0.8.
    #[derive(Clone, Debug)]
    pub struct StdRng(ChaCha12Rng);

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            self.0.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.0.fill_bytes(dest)
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];
        fn from_seed(seed: Self::Seed) -> Self {
            StdRng(ChaCha12Rng::from_seed(seed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};
    use crate::chacha::ChaCha20Rng;

    /// RFC 7539 §2.3.2 block-function vector, which pins the quarter
    /// round, the state layout and the little-endian word order.
    #[test]
    fn chacha20_matches_rfc7539_keystream() {
        let mut seed = [0u8; 32];
        for (i, b) in seed.iter_mut().enumerate() {
            *b = i as u8;
        }
        // The RFC vector uses a 32-bit counter of 1 and a 96-bit nonce;
        // in the 64/64 layout that is counter = 1 | (0x09000000 << 32)
        // and stream = 0x4a000000 | (0 << 32).
        let mut rng = ChaCha20Rng::from_seed(seed);
        rng.set_block(1 | (0x0900_0000u64 << 32), 0x4a00_0000);
        let first: Vec<u32> = (0..4).map(|_| rng.gen::<u32>()).collect();
        assert_eq!(first, [0xe4e7_f110, 0x1559_3bd1, 0x1fdd_0f50, 0xc471_20a3]);
    }

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = a.gen_range(3u32..9);
            assert!((3..9).contains(&x));
            let y = a.gen_range(0usize..=4);
            assert!(y <= 4);
            let f = a.gen_range(0.25f64..0.5);
            assert!((0.25..0.5).contains(&f));
            let u: f64 = a.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        assert!(
            (sum / 10_000.0 - 0.5).abs() < 0.02,
            "mean of U(0,1) was {}",
            sum / 10_000.0
        );
    }
}
