//! Division by a run-time constant as a multiplication.
//!
//! The closed-form route walk divides leaf indices by the per-level radices
//! `m_1…m_h` and `w_1…w_h` of the machine, which are fixed once the topology
//! is built. A hardware division costs tens of cycles; with the divisor's
//! reciprocal precomputed, quotient and remainder cost one multiplication
//! each (Lemire, Kaser & Kurz, "Faster Remainder by Direct Computation",
//! 2019).

/// A divisor `d` with its precomputed 64-bit reciprocal.
///
/// It stores `c = ⌈2⁶⁴ / d⌉` and computes `n / d = ⌊c·n / 2⁶⁴⌋` and
/// `n % d = ⌊(c·n mod 2⁶⁴)·d / 2⁶⁴⌋`. Both identities hold for every
/// `n, d < 2³²`, and only there: the divisor and every dividend must fit in
/// a `u32` (debug builds assert the dividend, [`Divisor::new`] the
/// divisor).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    /// `⌈2⁶⁴ / d⌉`, which wraps to 0 for `d = 1`.
    c: u64,
    d: u64,
    /// All ones for `d = 1` (where `c` wrapped and the quotient is `n`
    /// itself), zero otherwise.
    unit: u64,
}

impl Divisor {
    /// The reciprocal of `d`.
    ///
    /// # Panics
    /// Panics unless `1 ≤ d < 2³²`.
    pub(crate) fn new(d: usize) -> Self {
        assert!(
            d >= 1 && d <= u32::MAX as usize,
            "divisor {d} outside 1..2^32"
        );
        let d = d as u64;
        // ⌊(2⁶⁴ − 1) / d⌋ + 1 = ⌈2⁶⁴ / d⌉ for d > 1. For d = 1 it wraps to
        // 0: the remainder formula then yields 0, as it must, and `unit`
        // supplies the quotient.
        Divisor {
            c: (u64::MAX / d).wrapping_add(1),
            d,
            unit: if d == 1 { u64::MAX } else { 0 },
        }
    }

    /// The divisor `d` itself.
    #[inline]
    pub(crate) fn get(self) -> usize {
        self.d as usize
    }

    /// `n / d`, for `n < 2³²`.
    #[inline]
    pub(crate) fn div(self, n: usize) -> usize {
        debug_assert!(
            n <= u32::MAX as usize,
            "dividend {n} outside the u32 domain"
        );
        let n = n as u64;
        (mul_hi(self.c, n) + (n & self.unit)) as usize
    }

    /// `n % d`, for `n < 2³²`.
    #[inline]
    pub(crate) fn rem(self, n: usize) -> usize {
        debug_assert!(
            n <= u32::MAX as usize,
            "dividend {n} outside the u32 domain"
        );
        mul_hi(self.c.wrapping_mul(n as u64), self.d) as usize
    }
}

/// The high 64 bits of the 128-bit product `a·b`.
#[inline]
fn mul_hi(a: u64, b: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Values where a reciprocal is most likely to be off by one: 0, 1,
    /// every power of two below 2³² and its neighbours, and 2³² − 1.
    fn edge_values() -> Vec<usize> {
        let mut values = vec![0, 1, u32::MAX as usize];
        for k in 1..32 {
            let p = 1usize << k;
            values.extend([p - 1, p, p + 1]);
        }
        values
    }

    fn assert_matches(n: usize, d: usize) {
        let divisor = Divisor::new(d);
        assert_eq!(divisor.div(n), n / d, "{n} / {d}");
        assert_eq!(divisor.rem(n), n % d, "{n} % {d}");
        assert_eq!(divisor.get(), d);
    }

    #[test]
    fn edge_values_match_hardware_division() {
        let values = edge_values();
        for &d in values.iter().filter(|&&d| d > 0) {
            for &n in &values {
                assert_matches(n, d);
            }
        }
    }

    #[test]
    fn small_divisors_match_on_a_dense_range() {
        for d in 1..=64 {
            for n in 0..4096 {
                assert_matches(n, d);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..2^32")]
    fn zero_is_rejected() {
        Divisor::new(0);
    }

    #[test]
    #[should_panic(expected = "outside 1..2^32")]
    fn divisors_past_u32_are_rejected() {
        Divisor::new(1 << 32);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn divisor_matches_hardware_division(
            n in 0usize..=u32::MAX as usize,
            d in 1usize..=u32::MAX as usize,
            small in 1usize..=1 << 16,
            edge in 0usize..1024,
        ) {
            // A uniform `d` is almost always huge (quotient 0 or 1), so
            // pair every `n` with a small divisor and an edge value too.
            let edges = edge_values();
            let edge = edges[edge % edges.len()];
            assert_matches(n, d);
            assert_matches(n, small);
            assert_matches(edge, d);
            if edge > 0 {
                assert_matches(n, edge);
            }
        }
    }
}
