//! In-repo shim for the `rand` crate (see `crates/shims/`), exposing the
//! rand-0.9-style surface this workspace uses: `SeedableRng::seed_from_u64`,
//! `Rng::random` / `Rng::random_range`, `rngs::StdRng`, and
//! `seq::SliceRandom::shuffle`.
//!
//! The generator is xoshiro256++ seeded via SplitMix64 — deterministic for a
//! given seed on every platform, which is all the benchmark requires (its
//! virtual-time experiments derive reproducibility from seeds, not from
//! matching upstream rand's stream).

/// Low-level entropy source: a stream of `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a deterministic generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Creates a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling helpers over any [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of `T` from its standard distribution
    /// (`f64`/`f32`: uniform in `[0, 1)`; integers: uniform over the domain;
    /// `bool`: fair coin).
    #[inline]
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from a half-open or inclusive range.
    ///
    /// Panics when the range is empty.
    #[inline]
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: IntoBounds<T>,
        Self: Sized,
    {
        let (lo, hi_inclusive) = range.into_bounds();
        T::sample_between(self, lo, hi_inclusive)
    }
}

impl<R: RngCore> Rng for R {}

/// Types samplable by [`Rng::random`].
pub trait Standard: Sized {
    /// Draws one value from the type's standard distribution.
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample<R: RngCore>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn sample<R: RngCore>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    #[inline]
    fn sample<R: RngCore>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample<R: RngCore>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for usize {
    #[inline]
    fn sample<R: RngCore>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl Standard for i64 {
    #[inline]
    fn sample<R: RngCore>(rng: &mut R) -> i64 {
        rng.next_u64() as i64
    }
}

impl Standard for i32 {
    #[inline]
    fn sample<R: RngCore>(rng: &mut R) -> i32 {
        (rng.next_u64() >> 32) as i32
    }
}

/// Types samplable by [`Rng::random_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi]` (both inclusive).
    fn sample_between<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Uniform `u64` in `[0, span)` without modulo bias (Lemire multiply-shift
/// with rejection).
#[inline]
fn uniform_below<R: RngCore>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Rejection zone keeps the multiply-shift exact.
    let zone = span.wrapping_neg() % span;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        if (m as u64) >= zone {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_between<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty sampling range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Whole-domain 64-bit range: every pattern is valid.
                    return rng.next_u64() as $t;
                }
                let off = uniform_below(rng, span as u64);
                ((lo as i128) + off as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_between<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "empty sampling range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// Range forms accepted by [`Rng::random_range`], normalized to inclusive
/// `(lo, hi)` bounds.
pub trait IntoBounds<T> {
    /// The inclusive bounds of the range.
    fn into_bounds(self) -> (T, T);
}

impl IntoBounds<f64> for std::ops::Range<f64> {
    #[inline]
    fn into_bounds(self) -> (f64, f64) {
        assert!(self.start < self.end, "empty sampling range");
        (self.start, self.end)
    }
}

impl IntoBounds<f64> for std::ops::RangeInclusive<f64> {
    #[inline]
    fn into_bounds(self) -> (f64, f64) {
        (*self.start(), *self.end())
    }
}

macro_rules! impl_into_bounds_int {
    ($($t:ty),*) => {$(
        impl IntoBounds<$t> for std::ops::Range<$t> {
            #[inline]
            fn into_bounds(self) -> ($t, $t) {
                assert!(self.start < self.end, "empty sampling range");
                (self.start, self.end - 1)
            }
        }
        impl IntoBounds<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn into_bounds(self) -> ($t, $t) {
                (*self.start(), *self.end())
            }
        }
    )*};
}

impl_into_bounds_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Equality compares the full stream state, so two generators are equal
    /// exactly when they will produce the same stream.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Slice sampling helpers.
pub mod seq {
    use super::{Rng, RngCore};

    /// Random-order operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// A uniformly random element, `None` when empty.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.random_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn random_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1_000 {
            let v: f64 = rng.random();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn random_range_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1_000 {
            let v = rng.random_range(3..7u32);
            assert!((3..7).contains(&v));
            let w = rng.random_range(1..=4usize);
            assert!((1..=4).contains(&w));
            let x = rng.random_range(-5..5i64);
            assert!((-5..5).contains(&x));
        }
    }

    #[test]
    fn range_distribution_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.random_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle moved something");
    }

    #[test]
    fn choose_picks_members() {
        let mut rng = StdRng::seed_from_u64(5);
        let v = [10, 20, 30];
        for _ in 0..50 {
            assert!(v.contains(v.choose(&mut rng).unwrap()));
        }
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
