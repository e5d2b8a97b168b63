//! Word-sized prime moduli with fast Barrett and Shoup reduction.
//!
//! Every polynomial limb in the residue number system (RNS) lives in
//! `Z_q` for a word-sized prime `q`. All hot loops in the library reduce
//! modulo such primes, so this module provides:
//!
//! - [`Modulus`]: a prime modulus with a precomputed 128-bit Barrett
//!   ratio, supporting constant-time-ish `mul_mod` on arbitrary pairs;
//! - [`ShoupPrecomp`]: Shoup precomputation for repeated multiplication
//!   by a *fixed* operand (twiddle factors, base-table entries), which
//!   replaces one 128-bit division with one `u128` multiply and a shift.
//!
//! Moduli are limited to 62 bits so that lazy sums of two residues never
//! overflow 63 bits and the Barrett quotient fits comfortably.

/// Maximum supported modulus bit width.
pub const MAX_MODULUS_BITS: u32 = 62;

/// A word-sized prime modulus with precomputed Barrett constants.
///
/// # Examples
///
/// ```
/// use ark_math::modulus::Modulus;
///
/// let q = Modulus::new(0x1fff_ffff_ffe0_0001).unwrap(); // 61-bit NTT prime
/// let a = 0x1234_5678_9abc_def0 % q.value();
/// let b = 0x0fed_cba9_8765_4321 % q.value();
/// assert_eq!(q.mul(a, b), ((a as u128 * b as u128) % q.value() as u128) as u64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    value: u64,
    /// `floor(2^128 / value)` stored as `[low, high]` 64-bit words.
    const_ratio: [u64; 2],
}

/// Error returned when constructing a [`Modulus`] from an invalid value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModulusError {
    /// The value was 0 or 1.
    TooSmall,
    /// The value exceeded [`MAX_MODULUS_BITS`] bits.
    TooLarge,
}

impl std::fmt::Display for ModulusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModulusError::TooSmall => write!(f, "modulus must be at least 2"),
            ModulusError::TooLarge => {
                write!(f, "modulus must fit in {MAX_MODULUS_BITS} bits")
            }
        }
    }
}

impl std::error::Error for ModulusError {}

impl Modulus {
    /// Creates a modulus, precomputing the Barrett ratio.
    ///
    /// # Errors
    ///
    /// Returns [`ModulusError`] if `value < 2` or `value >= 2^62`.
    pub fn new(value: u64) -> Result<Self, ModulusError> {
        if value < 2 {
            return Err(ModulusError::TooSmall);
        }
        if value >> MAX_MODULUS_BITS != 0 {
            return Err(ModulusError::TooLarge);
        }
        // floor(2^128 / value) via long division of 2^128 by value using
        // u128 arithmetic: first divide 2^64 * (2^64 - 1 ...)—simplest is
        // schoolbook: hi word = floor(2^64 / value) is 0 unless value == 1,
        // so compute quotient digit by digit.
        // Let R = 2^64. 2^128 = (R - value_inv_part)... Use:
        //   hi = (u128::MAX / value) gives floor((2^128 - 1)/value).
        // floor(2^128/value) = floor((2^128 - 1)/value) unless value divides
        // 2^128, which is impossible for value > 1 unless value is a power
        // of two; handle that case exactly.
        let ratio = if value.is_power_of_two() {
            // 2^128 / 2^k = 2^(128-k)
            let k = value.trailing_zeros();
            let shift = 128 - k;
            if shift >= 128 {
                [0, 0] // unreachable: value >= 2 means k >= 1
            } else if shift >= 64 {
                [0, 1u64 << (shift - 64)]
            } else {
                [1u64 << shift, 0]
            }
        } else {
            let q = u128::MAX / value as u128; // == floor(2^128/value) here
            [q as u64, (q >> 64) as u64]
        };
        Ok(Self {
            value,
            const_ratio: ratio,
        })
    }

    /// The modulus value `q`.
    #[inline(always)]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Number of significant bits in `q`.
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.value.leading_zeros()
    }

    /// Reduces an arbitrary `u64` modulo `q` (Barrett).
    #[inline(always)]
    pub fn reduce(&self, x: u64) -> u64 {
        // Single-word Barrett: estimate floor(x / q) using the high ratio word.
        let estimated = (((x as u128) * (self.const_ratio[1] as u128)) >> 64) as u64;
        let r = x.wrapping_sub(estimated.wrapping_mul(self.value));
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// Reduces a 128-bit value modulo `q` (Barrett, two correction steps).
    #[inline(always)]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        let x0 = x as u64;
        let x1 = (x >> 64) as u64;
        let r0 = self.const_ratio[0];
        let r1 = self.const_ratio[1];
        // q_hat = floor(x * ratio / 2^128), computed from the three
        // cross-products that contribute to bits >= 128.
        let lo = (x0 as u128) * (r0 as u128);
        let mid1 = (x0 as u128) * (r1 as u128);
        let mid2 = (x1 as u128) * (r0 as u128);
        let hi = (x1 as u128) * (r1 as u128);
        let carry = ((lo >> 64) + (mid1 as u64 as u128) + (mid2 as u64 as u128)) >> 64;
        let q_hat = hi + (mid1 >> 64) + (mid2 >> 64) + carry;
        let mut r = (x as u64).wrapping_sub((q_hat as u64).wrapping_mul(self.value));
        // q_hat underestimates the true quotient by at most 2.
        if r >= self.value {
            r -= self.value;
        }
        if r >= self.value {
            r -= self.value;
        }
        r
    }

    /// Modular addition of residues already in `[0, q)`.
    #[inline(always)]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let s = a + b;
        if s >= self.value {
            s - self.value
        } else {
            s
        }
    }

    /// Modular subtraction of residues already in `[0, q)`.
    #[inline(always)]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        if a >= b {
            a - b
        } else {
            a + self.value - b
        }
    }

    /// Modular negation of a residue in `[0, q)`.
    #[inline(always)]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.value);
        if a == 0 {
            0
        } else {
            self.value - a
        }
    }

    /// Modular multiplication of residues in `[0, q)`.
    #[inline(always)]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.reduce_u128((a as u128) * (b as u128))
    }

    /// Fused multiply-add: `(a * b + c) mod q`.
    #[inline(always)]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        self.reduce_u128((a as u128) * (b as u128) + c as u128)
    }

    /// Modular exponentiation `base^exp mod q` by square-and-multiply.
    pub fn pow(&self, base: u64, mut exp: u64) -> u64 {
        let mut base = self.reduce(base);
        let mut acc = 1u64;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse of `a` (requires `q` prime and `a != 0 mod q`).
    ///
    /// # Panics
    ///
    /// Panics if `a` reduces to zero.
    pub fn inv(&self, a: u64) -> u64 {
        let a = self.reduce(a);
        assert!(a != 0, "attempted to invert 0 mod {}", self.value);
        // Fermat: a^(q-2) mod q.
        self.pow(a, self.value - 2)
    }

    /// Converts a signed value to its canonical residue.
    #[inline]
    pub fn from_i64(&self, x: i64) -> u64 {
        if x >= 0 {
            self.reduce(x as u64)
        } else {
            self.neg(self.reduce(x.unsigned_abs()))
        }
    }

    /// Interprets a residue as a signed value in `(-q/2, q/2]`.
    #[inline]
    pub fn to_signed(&self, x: u64) -> i64 {
        debug_assert!(x < self.value);
        if x > self.value / 2 {
            -((self.value - x) as i64)
        } else {
            x as i64
        }
    }

    /// Precomputes a Shoup constant for repeated multiplication by `w`.
    #[inline]
    pub fn shoup(&self, w: u64) -> ShoupPrecomp {
        debug_assert!(w < self.value);
        ShoupPrecomp {
            w,
            w_shoup: (((w as u128) << 64) / self.value as u128) as u64,
        }
    }

    /// Shoup multiplication: `(a * pre.w) mod q` using the precomputed
    /// quotient. Roughly 2x faster than [`Modulus::mul`] in NTT loops.
    #[inline(always)]
    pub fn mul_shoup(&self, a: u64, pre: &ShoupPrecomp) -> u64 {
        let r = self.mul_shoup_lazy(a, pre);
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// Lazy Shoup multiplication: congruent to `a * pre.w mod q` but the
    /// result stays in `[0, 2q)` — the final conditional subtraction is
    /// deferred to the caller. Valid for *any* `a < 2^64` (not just
    /// canonical residues), which is what lets Harvey-style NTT
    /// butterflies keep values in `[0, 4q)` between stages and reduce
    /// once per limb pass instead of once per element.
    #[inline(always)]
    pub fn mul_shoup_lazy(&self, a: u64, pre: &ShoupPrecomp) -> u64 {
        let hi = (((a as u128) * (pre.w_shoup as u128)) >> 64) as u64;
        a.wrapping_mul(pre.w)
            .wrapping_sub(hi.wrapping_mul(self.value))
    }

    /// Branch-free canonicalization of a lazy residue in `[0, 2q)`.
    #[inline(always)]
    pub fn reduce_lazy2(&self, x: u64) -> u64 {
        debug_assert!(x < 2 * self.value);
        x - (self.value & ((x >= self.value) as u64).wrapping_neg())
    }

    /// Branch-free canonicalization of a lazy residue in `[0, 4q)` —
    /// the state a Harvey forward NTT leaves its outputs in. Safe
    /// because moduli are capped at [`MAX_MODULUS_BITS`] bits, so `4q`
    /// fits a `u64`.
    #[inline(always)]
    pub fn reduce_lazy4(&self, x: u64) -> u64 {
        let two_q = 2 * self.value;
        debug_assert!(x < 2 * two_q);
        let x = x - (two_q & ((x >= two_q) as u64).wrapping_neg());
        self.reduce_lazy2(x)
    }

    /// Maximum number of `(p − 1)·(q − 1)` products (with `p` at most
    /// `max_operand + 1`) that can be summed in a `u128` accumulator
    /// before it could overflow. This is the per-modulus chunk bound the
    /// lazy BConv MAC uses to reduce once per limb pass: for typical
    /// 40–50-bit primes the bound far exceeds any limb count, so whole
    /// rows accumulate with a single final Barrett reduction.
    pub fn max_lazy_mac_terms(&self, max_operand: u64) -> usize {
        let prod = (max_operand.max(1) as u128) * ((self.value - 1).max(1) as u128);
        usize::try_from(u128::MAX / prod)
            .unwrap_or(usize::MAX)
            .max(1)
    }
}

impl std::fmt::Display for Modulus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.value)
    }
}

/// Precomputed Shoup constant for multiplication by a fixed operand.
///
/// `repr(C)` pins the layout to `[w, w_shoup]`, so a twiddle table
/// `&[ShoupPrecomp]` is also a flat `u64` array that the vector NTT
/// kernel loads and de-interleaves directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct ShoupPrecomp {
    /// The fixed operand `w`, already reduced modulo `q`.
    pub w: u64,
    /// `floor(w * 2^64 / q)`.
    pub w_shoup: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q61: u64 = 0x1fff_ffff_ffe0_0001; // 61-bit NTT-friendly prime
    const Q50: u64 = 1_125_899_906_826_241; // 2^50 + ... a 51-bit prime? validated below

    fn naive_mul(a: u64, b: u64, q: u64) -> u64 {
        ((a as u128 * b as u128) % q as u128) as u64
    }

    #[test]
    fn rejects_bad_moduli() {
        assert_eq!(Modulus::new(0), Err(ModulusError::TooSmall));
        assert_eq!(Modulus::new(1), Err(ModulusError::TooSmall));
        assert_eq!(Modulus::new(1 << 63), Err(ModulusError::TooLarge));
    }

    #[test]
    fn accepts_power_of_two() {
        let q = Modulus::new(1 << 20).unwrap();
        assert_eq!(q.reduce((1 << 20) + 7), 7);
        assert_eq!(q.mul(1 << 19, 2), 0);
    }

    #[test]
    fn mul_matches_naive() {
        let q = Modulus::new(Q61).unwrap();
        let pairs = [
            (0u64, 0u64),
            (1, 1),
            (Q61 - 1, Q61 - 1),
            (Q61 / 2, Q61 / 3),
            (123_456_789, 987_654_321),
        ];
        for (a, b) in pairs {
            assert_eq!(q.mul(a, b), naive_mul(a, b, Q61), "a={a} b={b}");
        }
    }

    #[test]
    fn mul_matches_naive_many_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for &qv in &[Q61, Q50, 65537, (1u64 << 61) - 1] {
            let q = Modulus::new(qv).unwrap();
            for _ in 0..2000 {
                let a = rng.gen::<u64>() % qv;
                let b = rng.gen::<u64>() % qv;
                assert_eq!(q.mul(a, b), naive_mul(a, b, qv));
            }
        }
    }

    #[test]
    fn reduce_u128_extremes() {
        let q = Modulus::new(Q61).unwrap();
        assert_eq!(q.reduce_u128(0), 0);
        assert_eq!(q.reduce_u128(u128::MAX), (u128::MAX % Q61 as u128) as u64);
        let x = (Q61 as u128) * (Q61 as u128) - 1;
        assert_eq!(q.reduce_u128(x), (x % Q61 as u128) as u64);
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let q = Modulus::new(Q61).unwrap();
        let a = Q61 - 5;
        let b = 17;
        assert_eq!(q.sub(q.add(a, b), b), a);
        assert_eq!(q.add(a, q.neg(a)), 0);
        assert_eq!(q.neg(0), 0);
    }

    #[test]
    fn pow_and_inv() {
        let q = Modulus::new(Q61).unwrap();
        assert_eq!(q.pow(3, 0), 1);
        assert_eq!(q.pow(3, 1), 3);
        assert_eq!(q.pow(2, 62), q.mul(q.pow(2, 31), q.pow(2, 31)));
        for a in [1u64, 2, 12345, Q61 - 2] {
            assert_eq!(q.mul(a, q.inv(a)), 1, "a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "invert 0")]
    fn inv_zero_panics() {
        let q = Modulus::new(Q61).unwrap();
        q.inv(0);
    }

    #[test]
    fn signed_conversions() {
        let q = Modulus::new(101).unwrap();
        assert_eq!(q.from_i64(-1), 100);
        assert_eq!(q.to_signed(100), -1);
        assert_eq!(q.to_signed(50), 50);
        assert_eq!(q.to_signed(51), -50);
        assert_eq!(q.from_i64(q.to_signed(77)), 77);
    }

    #[test]
    fn shoup_matches_mul() {
        use rand::{Rng, SeedableRng};
        let q = Modulus::new(Q61).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let w = rng.gen::<u64>() % Q61;
            let a = rng.gen::<u64>() % Q61;
            let pre = q.shoup(w);
            assert_eq!(q.mul_shoup(a, &pre), q.mul(a, w));
        }
    }

    #[test]
    fn lazy_shoup_stays_congruent_and_bounded() {
        use rand::{Rng, SeedableRng};
        let q = Modulus::new(Q61).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            let w = rng.gen::<u64>() % Q61;
            let a = rng.gen::<u64>(); // arbitrary, not necessarily reduced
            let pre = q.shoup(w);
            let lazy = q.mul_shoup_lazy(a, &pre);
            assert!(lazy < 2 * Q61, "lazy result must stay below 2q");
            assert_eq!(q.reduce_lazy2(lazy), q.mul(q.reduce(a), w));
        }
    }

    #[test]
    fn lazy_canonicalization_covers_both_ranges() {
        let q = Modulus::new(101).unwrap();
        for x in 0..202 {
            assert_eq!(q.reduce_lazy2(x), x % 101);
        }
        for x in 0..404 {
            assert_eq!(q.reduce_lazy4(x), x % 101);
        }
    }

    #[test]
    fn mac_term_bound_is_safe() {
        let q = Modulus::new(Q61).unwrap();
        let terms = q.max_lazy_mac_terms(Q61 - 1);
        // terms products of (q-1)^2 must fit u128
        let prod = (Q61 as u128 - 1) * (Q61 as u128 - 1);
        assert!(prod.checked_mul(terms as u128).is_some());
        assert!(terms >= 16, "61-bit primes admit at least 16 lazy terms");
        // small primes admit enormous spans
        let small = Modulus::new((1 << 40) - 87).unwrap();
        assert!(small.max_lazy_mac_terms((1 << 40) - 88) > 1 << 40);
    }

    #[test]
    fn mul_add_matches() {
        let q = Modulus::new(Q61).unwrap();
        let (a, b, c) = (Q61 - 1, Q61 - 2, Q61 - 3);
        let expect = ((a as u128 * b as u128 + c as u128) % Q61 as u128) as u64;
        assert_eq!(q.mul_add(a, b, c), expect);
    }
}
