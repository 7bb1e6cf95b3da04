//! `Distribution`, the `Standard` distribution and uniform ranges.

use crate::Rng;

/// A type that can produce values of `T` from a generator.
pub trait Distribution<T> {
    /// Draw one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

impl<T, D: Distribution<T> + ?Sized> Distribution<T> for &D {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        (**self).sample(rng)
    }
}

/// The default distribution of a type: all bit patterns for integers,
/// `[0, 1)` for floats, a fair coin for `bool`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Standard;

macro_rules! standard_int {
    ($($ty:ty => $next:ident),* $(,)?) => {$(
        impl Distribution<$ty> for Standard {
            #[inline]
            fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $ty {
                rng.$next() as $ty
            }
        }
    )*};
}

standard_int! {
    u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64, usize => next_u64,
    i8 => next_u32, i16 => next_u32, i32 => next_u32, i64 => next_u64, isize => next_u64,
}

impl Distribution<u128> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u128 {
        let lo = u128::from(rng.next_u64());
        let hi = u128::from(rng.next_u64());
        (hi << 64) | lo
    }
}

impl Distribution<bool> for Standard {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        (rng.next_u32() as i32) < 0
    }
}

impl Distribution<f64> for Standard {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 53 random mantissa bits scaled into [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Distribution<f32> for Standard {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Uniform sampling over ranges.
pub mod uniform {
    use std::ops::{Range, RangeInclusive};

    use crate::Rng;

    /// A type `Rng::gen_range` can sample.
    pub trait SampleUniform: Sized {
        /// Uniform over `[low, high)`.
        fn sample_exclusive<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
        /// Uniform over `[low, high]`.
        fn sample_inclusive<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    }

    /// A range `Rng::gen_range` accepts.
    pub trait SampleRange<T> {
        /// Draw one value from the range.
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
    }

    impl<T: SampleUniform> SampleRange<T> for Range<T> {
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
            T::sample_exclusive(self.start, self.end, rng)
        }
    }

    impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
            let (low, high) = self.into_inner();
            T::sample_inclusive(low, high, rng)
        }
    }

    // Widening-multiply rejection sampling, as in `rand` 0.8's
    // `UniformInt::sample_single_inclusive`: draw a word of the "large"
    // type, multiply by the range width, keep the high half unless the
    // low half falls in the biased zone.
    macro_rules! uniform_int {
        ($($ty:ty, $unsigned:ty, $large:ty, $wide:ty);* $(;)?) => {$(
            impl SampleUniform for $ty {
                #[inline]
                fn sample_exclusive<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                    assert!(low < high, "gen_range: empty range");
                    Self::sample_inclusive(low, high - 1, rng)
                }

                #[inline]
                fn sample_inclusive<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                    assert!(low <= high, "gen_range: empty range");
                    let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $large;
                    if range == 0 {
                        return rng.gen::<$large>() as $ty;
                    }
                    let zone = if <$unsigned>::MAX as u64 <= u64::from(u16::MAX) {
                        let ints_to_reject = (<$large>::MAX - range + 1) % range;
                        <$large>::MAX - ints_to_reject
                    } else {
                        (range << range.leading_zeros()).wrapping_sub(1)
                    };
                    loop {
                        let v: $large = rng.gen();
                        let wide = <$wide>::from(v) * <$wide>::from(range);
                        let hi = (wide >> <$large>::BITS) as $large;
                        let lo = wide as $large;
                        if lo <= zone {
                            return low.wrapping_add(hi as $ty);
                        }
                    }
                }
            }
        )*};
    }

    uniform_int! {
        u8, u8, u32, u64;
        u16, u16, u32, u64;
        u32, u32, u32, u64;
        u64, u64, u64, u128;
        usize, usize, u64, u128;
        i8, u8, u32, u64;
        i16, u16, u32, u64;
        i32, u32, u32, u64;
        i64, u64, u64, u128;
        isize, usize, u64, u128;
    }

    macro_rules! uniform_float {
        ($($ty:ty, $bits:ty, $shift:expr, $one_bits:expr);* $(;)?) => {$(
            impl SampleUniform for $ty {
                fn sample_exclusive<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                    assert!(low < high, "gen_range: empty range");
                    let scale = high - low;
                    assert!(scale.is_finite(), "gen_range: range overflow");
                    loop {
                        // A float in [1, 2) from random mantissa bits.
                        let value1_2 = <$ty>::from_bits((rng.gen::<$bits>() >> $shift) | $one_bits);
                        let res = (value1_2 - 1.0) * scale + low;
                        if res < high {
                            return res;
                        }
                    }
                }

                fn sample_inclusive<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                    assert!(low <= high, "gen_range: empty range");
                    if low == high {
                        return low;
                    }
                    let scale = high - low;
                    assert!(scale.is_finite(), "gen_range: range overflow");
                    let value1_2 = <$ty>::from_bits((rng.gen::<$bits>() >> $shift) | $one_bits);
                    ((value1_2 - 1.0) * scale + low).min(high)
                }
            }
        )*};
    }

    uniform_float! {
        f64, u64, 12, 0x3FF0_0000_0000_0000u64;
        f32, u32, 9, 0x3F80_0000u32;
    }
}
