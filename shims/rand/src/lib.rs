//! Offline stand-in for the crates.io `rand` crate.
//!
//! The build container has no network access, so this shim provides exactly
//! the API subset the workspace uses — `StdRng`, `SeedableRng::seed_from_u64`,
//! `Rng::gen_range` over integer/float ranges and `seq::SliceRandom::shuffle`
//! — with the same module paths as upstream `rand 0.8`. The generator is
//! SplitMix64: deterministic for a given seed, statistically solid for
//! simulation seeding, and *not* cryptographic (neither is upstream
//! `StdRng`'s contract; only determinism per seed is relied upon here).
//!
//! Swapping back to the registry crate is a one-line change in the workspace
//! `Cargo.toml`; no call site mentions this shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Low-level source of pseudo-random 64-bit values.
pub trait RngCore {
    /// Returns the next pseudo-random `u64`.
    fn next_u64(&mut self) -> u64;
}

/// Extension methods over [`RngCore`] (the `rand::Rng` subset in use).
pub trait Rng: RngCore {
    /// Samples uniformly from `range` (half-open or inclusive).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }
}

impl<T: RngCore> Rng for T {}

/// Types constructible from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Reduce one raw draw into `0..span`, for spans up to 2⁶⁴. Any span that
/// fits in a `u64` reduces with a 64-bit remainder, which yields the same
/// value as the 128-bit one because the draw is below 2⁶⁴; the only larger
/// span, 2⁶⁴ itself (a full-width inclusive range), leaves the draw as it
/// is.
#[inline]
fn reduce(draw: u64, span: u128) -> u64 {
    match u64::try_from(span) {
        Ok(span) => draw % span,
        Err(_) => draw,
    }
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + reduce(rng.next_u64(), span) as i128) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from an empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + reduce(rng.next_u64(), span) as i128) as $t
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from an empty range");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

/// Concrete generators (the `rand::rngs` subset in use).
pub mod rngs {
    /// Deterministic SplitMix64 generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl crate::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl crate::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}

/// Sequence-related helpers (the `rand::seq` subset in use).
pub mod seq {
    /// In-place uniform shuffling of slices.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle driven by `rng`.
        fn shuffle<R: crate::RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: crate::RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<usize> = (0..32).map(|_| a.gen_range(0..1000usize)).collect();
        let ys: Vec<usize> = (0..32).map(|_| b.gen_range(0..1000usize)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(3..17usize);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(5..=5u64);
            assert_eq!(y, 5);
            let z = rng.gen_range(-4i64..4);
            assert!((-4..4).contains(&z));
            let f = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle should move something");
    }

    /// The integer `gen_range` formula before spans were reduced in
    /// `u64`: a 128-bit remainder of every draw.
    fn wide<T: TryFrom<i128>>(draw: u64, start: i128, span: u128) -> T {
        match T::try_from(start + (u128::from(draw) % span) as i128) {
            Ok(value) => value,
            Err(_) => panic!("the reference draw leaves the range"),
        }
    }

    #[test]
    fn integer_ranges_draw_what_the_u128_formula_drew() {
        use super::RngCore;
        let mut rng = StdRng::seed_from_u64(3);
        let mut raw = StdRng::seed_from_u64(3);
        // `raw` replays the draw `rng` consumes, for the reference formula.
        macro_rules! same {
            ($range:expr, $t:ty, $start:expr, $span:expr) => {{
                let draw = raw.next_u64();
                assert_eq!(rng.gen_range($range), wide::<$t>(draw, $start, $span));
            }};
        }
        let full = 1u128 << 64;
        for _ in 0..2000 {
            same!(0..1usize, usize, 0, 1);
            same!(7..=7u32, u32, 7, 1);
            for w in [2usize, 3, 7, 10, 16, 97] {
                same!(0..w, usize, 0, w as u128);
            }
            same!(-5i8..=5, i8, -5, 11);
            same!(0..u64::MAX, u64, 0, full - 1);
            same!(0..=u64::MAX, u64, 0, full);
            same!(i64::MIN..i64::MAX, i64, i64::MIN.into(), full - 1);
            same!(i64::MIN..=i64::MAX, i64, i64::MIN.into(), full);
            same!(0..usize::MAX, usize, 0, usize::MAX as u128);
            same!(0..=usize::MAX, usize, 0, usize::MAX as u128 + 1);
        }
    }

    #[test]
    fn all_range_values_reachable() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
