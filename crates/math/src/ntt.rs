//! Negacyclic number-theoretic transform (NTT).
//!
//! CKKS keeps polynomials of `R_q = Z_q[X]/(X^N + 1)` in their *evaluation
//! representation* so that polynomial multiplication is element-wise
//! (Section II-B of the paper). The forward transform here evaluates a
//! polynomial at the odd powers of a primitive `2N`-th root of unity
//! `ψ`; `INTT` inverts it. The implementation is the standard in-place
//! Harvey butterfly pair (Cooley–Tukey decimation-in-time forward with
//! merged `ψ` powers, Gentleman–Sande inverse), with Shoup-precomputed
//! twiddles.
//!
//! The forward transform consumes natural-order input and produces
//! bit-reversed-order output; the inverse consumes bit-reversed order and
//! restores natural order. Element-wise products are order-agnostic, so
//! the library never pays an explicit bit-reversal.
//!
//! # Lazy reduction
//!
//! Both passes defer modular reduction in the Harvey style: butterfly
//! outputs stay in the *redundant* ranges `[0, 4q)` (forward) and
//! `[0, 2q)` (inverse), exploiting `mul_shoup_lazy`'s tolerance of any
//! 64-bit operand, and a single normalization pass canonicalizes each
//! limb at the end. With `q < 2^62` (the [`Modulus`] ceiling) every
//! intermediate fits a `u64`, and because the final canonical residue of
//! each element is unique, the lazy pipeline is bit-identical to eager
//! per-butterfly reduction.
//!
//! # Kernels
//!
//! Each [`NttTable`] picks its butterfly kernel once, at construction
//! ([`NttTable::kernel`]). Tables with `q <` [`IFMA_MODULUS_LIMIT`]
//! (`2^50`) and `N >= 16` run the AVX-512 IFMA kernel when the host
//! reports `avx512f` and `avx512ifma` at run time: eight 52-bit lazy
//! Harvey butterflies per instruction, after Intel HEXL's IFMA NTT
//! (Boemer et al., WAHC 2021). It reuses the scalar twiddle tables (the
//! 52-bit Shoup quotient is `w_shoup >> 12`). Every other table runs the
//! portable scalar kernel ([`NttTable::forward_scalar`] /
//! [`NttTable::inverse_scalar`]), which is also the bit-identity
//! reference: both kernels canonicalize at the end, so they return the
//! same words for every input.

use crate::modulus::{Modulus, ShoupPrecomp};
use crate::par::ThreadPool;
use crate::primes::primitive_root_of_unity;

/// Which way a batched limb transform runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NttDirection {
    /// Coefficient → evaluation (natural → bit-reversed order).
    Forward,
    /// Evaluation → coefficient (bit-reversed → natural order).
    Inverse,
}

/// Transforms every limb row of a flat limb-major buffer (limb `pos`
/// at `data[pos*n..(pos+1)*n]`) with its own table, fanning the rows
/// out across `pool` — the limb-level hot loop behind
/// [`crate::poly::RnsPoly::to_eval`]/[`crate::poly::RnsPoly::to_coeff`].
/// Each limb's transform is independent and exact, so any pool width is
/// bit-identical to the serial loop.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `n` or a table's degree
/// differs from `n`.
pub fn transform_limbs<'t, F>(
    data: &mut [u64],
    n: usize,
    table_for: F,
    direction: NttDirection,
    pool: &ThreadPool,
) where
    F: Fn(usize) -> &'t NttTable + Sync,
{
    assert_eq!(data.len() % n, 0, "flat buffer must hold whole limbs");
    pool.par_for_each_row(data, n, |pos, row| match direction {
        NttDirection::Forward => table_for(pos).forward(row),
        NttDirection::Inverse => table_for(pos).inverse(row),
    });
}

/// Largest modulus (exclusive) the IFMA kernel takes: lazy butterfly
/// values reach `4q`, which must fit the 52-bit IFMA multiplier lanes.
pub const IFMA_MODULUS_LIMIT: u64 = 1 << 50;

/// The butterfly kernel an [`NttTable`] runs (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NttKernel {
    /// Portable scalar Harvey butterflies: every table's fallback and
    /// the bit-identity reference.
    Scalar,
    /// AVX-512 IFMA butterflies in 52-bit lanes, eight at a time.
    Ifma,
}

/// The kernel a `(q, n)` table runs on this host.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn select_kernel(q: u64, n: usize) -> NttKernel {
    #[cfg(target_arch = "x86_64")]
    if q < IFMA_MODULUS_LIMIT && n >= ifma::MIN_DEGREE && ifma::available() {
        return NttKernel::Ifma;
    }
    NttKernel::Scalar
}

/// Precomputed twiddle tables for one `(modulus, degree)` pair.
///
/// # Examples
///
/// ```
/// use ark_math::modulus::Modulus;
/// use ark_math::ntt::NttTable;
///
/// let q = Modulus::new(ark_math::primes::generate_ntt_primes(8, 30, 1)[0]).unwrap();
/// let table = NttTable::new(q, 8);
/// let mut a = vec![1, 2, 3, 4, 5, 6, 7, 8];
/// let orig = a.clone();
/// table.forward(&mut a);
/// table.inverse(&mut a);
/// assert_eq!(a, orig);
/// ```
#[derive(Debug, Clone)]
pub struct NttTable {
    modulus: Modulus,
    n: usize,
    log_n: u32,
    /// ψ^br(i) in bit-reversed order for the CT forward pass.
    root_powers: Vec<ShoupPrecomp>,
    /// ψ^{-br(i)} for the GS inverse pass.
    inv_root_powers: Vec<ShoupPrecomp>,
    /// n^{-1} mod q for the inverse scaling.
    n_inv: ShoupPrecomp,
    /// The primitive 2N-th root ψ itself (for callers building twisting
    /// factors, e.g. the 4-step NTT).
    psi: u64,
    /// The butterfly kernel `forward`/`inverse` dispatch to.
    kernel: NttKernel,
}

fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Debug-build check of the kernels' input contract: every word is a
/// canonical residue.
#[inline]
fn debug_assert_canonical(a: &[u64], q: u64) {
    debug_assert!(
        a.iter().all(|&x| x < q),
        "NTT input must be canonical (every word < q = {q})"
    );
}

impl NttTable {
    /// Builds twiddle tables for degree `n` under `modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or the modulus does not
    /// support a `2n`-th root of unity.
    pub fn new(modulus: Modulus, n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "degree must be a power of two >= 2"
        );
        let log_n = n.trailing_zeros();
        let psi = primitive_root_of_unity(&modulus, 2 * n as u64);
        let psi_inv = modulus.inv(psi);

        let mut root_powers = vec![ShoupPrecomp { w: 0, w_shoup: 0 }; n];
        let mut inv_root_powers = vec![ShoupPrecomp { w: 0, w_shoup: 0 }; n];
        let mut power = 1u64;
        let mut inv_power = 1u64;
        for i in 0..n {
            let r = bit_reverse(i, log_n);
            root_powers[r] = modulus.shoup(power);
            inv_root_powers[r] = modulus.shoup(inv_power);
            power = modulus.mul(power, psi);
            inv_power = modulus.mul(inv_power, psi_inv);
        }
        let n_inv = modulus.shoup(modulus.inv(n as u64));
        Self {
            modulus,
            n,
            log_n,
            root_powers,
            inv_root_powers,
            n_inv,
            psi,
            kernel: select_kernel(modulus.value(), n),
        }
    }

    /// The modulus these tables were built for.
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The transform degree `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The primitive `2N`-th root of unity `ψ` used by this table.
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// The butterfly kernel [`Self::forward`] and [`Self::inverse`] run.
    pub fn kernel(&self) -> NttKernel {
        self.kernel
    }

    /// In-place forward negacyclic NTT (natural → bit-reversed order),
    /// on this table's [`Self::kernel`].
    ///
    /// Runs the Harvey lazy pipeline: butterflies keep values in
    /// `[0, 4q)` and one normalization pass per limb canonicalizes at
    /// the end — `N` reductions instead of `N·log2 N`.
    ///
    /// Inputs must be canonical (`< q`). The IFMA kernel reads only the
    /// low 52 bits of each word, so a larger input would silently lose
    /// bits; debug builds check the contract on entry to both kernels.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal the degree");
        #[cfg(target_arch = "x86_64")]
        if self.kernel == NttKernel::Ifma {
            // SAFETY: `kernel` is `Ifma` only when `ifma::available()`
            // confirmed avx512f and avx512ifma on this host at table
            // construction, for q < 2^50 and n >= 16; `a` holds `n`
            // words (asserted above) and `root_powers` holds `n` entries.
            unsafe { ifma::forward(a, &self.root_powers, self.modulus.value()) };
            return;
        }
        self.forward_scalar(a);
    }

    /// [`Self::forward`] on the portable scalar kernel, whatever
    /// [`Self::kernel`] is: the reference the IFMA kernel is tested
    /// against bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn forward_scalar(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal the degree");
        let m = &self.modulus;
        debug_assert_canonical(a, m.value());
        let two_q = 2 * m.value();
        let mut t = self.n;
        let mut groups = 1usize;
        while groups < self.n {
            t >>= 1;
            for i in 0..groups {
                let w = &self.root_powers[groups + i];
                let base = 2 * i * t;
                // Split the group into its low/high halves so the inner
                // loop indexes two disjoint slices without bounds checks.
                // The loop stays scalar: x86-64 has no 64×64→128-bit
                // vector multiply, so the `u128` Shoup product compiles
                // to scalar `mul` (the IFMA kernel is the vector path).
                let (lo, hi) = a[base..base + 2 * t].split_at_mut(t);
                for j in 0..t {
                    // lo[j] < 4q → bring into [0, 2q) branch-free.
                    let x = lo[j] - (two_q & ((lo[j] >= two_q) as u64).wrapping_neg());
                    // hi[j] < 4q < 2^64 is fine as a lazy Shoup operand;
                    // the product lands in [0, 2q).
                    let v = m.mul_shoup_lazy(hi[j], w);
                    lo[j] = x + v; // < 4q
                    hi[j] = x + two_q - v; // < 4q
                }
            }
            groups <<= 1;
        }
        for x in a.iter_mut() {
            *x = m.reduce_lazy4(*x);
        }
    }

    /// In-place inverse negacyclic NTT (bit-reversed → natural order),
    /// on this table's [`Self::kernel`].
    ///
    /// Lazy Gentleman–Sande: values stay in `[0, 2q)` across stages and
    /// the final `n^{-1}` scaling pass canonicalizes.
    ///
    /// Inputs must be canonical (`< q`), as for [`Self::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal the degree");
        #[cfg(target_arch = "x86_64")]
        if self.kernel == NttKernel::Ifma {
            // SAFETY: as in `forward` — `Ifma` implies the host features
            // were detected for this q < 2^50, n >= 16 table; `a` and
            // `inv_root_powers` both hold `n` words.
            unsafe { ifma::inverse(a, &self.inv_root_powers, &self.n_inv, self.modulus.value()) };
            return;
        }
        self.inverse_scalar(a);
    }

    /// [`Self::inverse`] on the portable scalar kernel (the bit-identity
    /// reference, as for [`Self::forward_scalar`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn inverse_scalar(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal the degree");
        let m = &self.modulus;
        debug_assert_canonical(a, m.value());
        let two_q = 2 * m.value();
        let mut t = 1usize;
        let mut groups = self.n >> 1;
        while groups >= 1 {
            let mut base = 0usize;
            for i in 0..groups {
                let w = &self.inv_root_powers[groups + i];
                let (lo, hi) = a[base..base + 2 * t].split_at_mut(t);
                for j in 0..t {
                    // Invariant: lo[j], hi[j] < 2q.
                    let x = lo[j];
                    let y = hi[j];
                    let u = x + y; // < 4q
                    lo[j] = u - (two_q & ((u >= two_q) as u64).wrapping_neg());
                    // x + 2q − y < 4q < 2^64; lazy product lands < 2q.
                    hi[j] = m.mul_shoup_lazy(x + two_q - y, w);
                }
                base += 2 * t;
            }
            t <<= 1;
            groups >>= 1;
        }
        // Full Shoup reduction canonicalizes any 64-bit operand.
        for x in a.iter_mut() {
            *x = m.mul_shoup(*x, &self.n_inv);
        }
    }

    /// Negacyclic convolution via NTT: `out = a * b mod (X^N + 1, q)`.
    ///
    /// Both inputs are in coefficient (natural) order; so is the output.
    pub fn negacyclic_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward(&mut fa);
        self.forward(&mut fb);
        for (x, y) in fa.iter_mut().zip(&fb) {
            *x = self.modulus.mul(*x, *y);
        }
        self.inverse(&mut fa);
        fa
    }

    /// Number of butterfly operations in one forward or inverse pass:
    /// `N/2 · log2 N`, each costing one modular multiply. This is the
    /// figure the paper uses to size NTT units.
    pub fn butterfly_count(&self) -> usize {
        (self.n / 2) * self.log_n as usize
    }
}

/// The AVX-512 IFMA butterfly kernel.
///
/// Each 64-bit lane holds one residue. `vpmadd52luq`/`vpmadd52huq`
/// multiply the low 52 bits of two lanes and add the low/high 52 bits
/// of the 104-bit product to a third lane. With `q < 2^50` every lazy
/// value (`< 4q`) fits 52 bits, and Shoup's product with the 52-bit
/// quotient `w' = ⌊w·2^52/q⌋ = w_shoup >> 12` gives
/// `w·y − ⌊y·w'/2^52⌋·q ∈ [0, 2q)`, exact modulo `2^52`. The butterflies
/// and range invariants are those of the scalar kernel. Stages of
/// half-width `t >= 8` broadcast one twiddle per group across a vector;
/// the `t = 4, 2, 1` stages split each 16-word chunk into its butterfly
/// halves (and de-interleave the `[w, w_shoup]` twiddle words) with
/// in-register permutes.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use crate::modulus::ShoupPrecomp;
    use std::arch::x86_64::*;

    /// Smallest degree the kernel takes: the `t = 4` stage works on
    /// 16-word chunks.
    pub(super) const MIN_DEGREE: usize = 16;

    // `as_words` reinterprets twiddle tables as flat `[w, w_shoup]` words.
    const _: () = assert!(std::mem::size_of::<ShoupPrecomp>() == 16);

    /// Whether this host runs the kernel.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
    }

    /// Broadcast per-modulus constants.
    struct Consts {
        q: __m512i,
        two_q: __m512i,
        /// `2^64 − q`: its low 52 bits are `−q mod 2^52`.
        neg_q: __m512i,
        mask52: __m512i,
    }

    impl Consts {
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn new(q: u64) -> Self {
            Self {
                q: _mm512_set1_epi64(q as i64),
                two_q: _mm512_set1_epi64((2 * q) as i64),
                neg_q: _mm512_set1_epi64(q.wrapping_neg() as i64),
                mask52: _mm512_set1_epi64((1i64 << 52) - 1),
            }
        }
    }

    /// A twiddle table as its flat `[w, w_shoup]` words.
    fn as_words(tw: &[ShoupPrecomp]) -> &[u64] {
        // SAFETY: `ShoupPrecomp` is `repr(C)` with two `u64` fields, so
        // it has size 16 (asserted above), alignment 8 and no padding:
        // `tw.len()` entries are `2 * tw.len()` initialized `u64`s,
        // borrowed for the lifetime of `tw`.
        unsafe { std::slice::from_raw_parts(tw.as_ptr().cast::<u64>(), 2 * tw.len()) }
    }

    /// Loads the first 8 words of `s`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(s: &[u64]) -> __m512i {
        let s = &s[..8];
        // SAFETY: the bounds-checked slice above holds 8 initialized
        // words, and `loadu` has no alignment requirement.
        unsafe { _mm512_loadu_epi64(s.as_ptr().cast::<i64>()) }
    }

    /// Loads the first `min(8, s.len())` words of `s`, zeroing the rest.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_partial(s: &[u64]) -> __m512i {
        let k = s.len().min(8);
        let mask = ((1u16 << k) - 1) as __mmask8;
        // SAFETY: the mask enables exactly the first `k <= s.len()`
        // lanes, all inside `s`; masked-off lanes are not accessed, and
        // `loadu` has no alignment requirement.
        unsafe { _mm512_maskz_loadu_epi64(mask, s.as_ptr().cast::<i64>()) }
    }

    /// Stores `v` to the first 8 words of `s`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store(s: &mut [u64], v: __m512i) {
        let s = &mut s[..8];
        // SAFETY: the bounds-checked slice above holds 8 writable words,
        // and `storeu` has no alignment requirement.
        unsafe { _mm512_storeu_epi64(s.as_mut_ptr().cast::<i64>(), v) }
    }

    /// `x mod m` for `x < 2m`: `x − m` wraps above `x` exactly when
    /// `x < m`, so the unsigned minimum picks the reduced value.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn csub(x: __m512i, m: __m512i) -> __m512i {
        _mm512_min_epu64(x, _mm512_sub_epi64(x, m))
    }

    /// Lazy Shoup product `w·y mod q` in `[0, 2q)` for `y < 2^52`, with
    /// `w52 = ⌊w·2^52/q⌋`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_shoup52(y: __m512i, w: __m512i, w52: __m512i, c: &Consts) -> __m512i {
        let zero = _mm512_setzero_si512();
        let quot = _mm512_madd52hi_epu64(zero, y, w52);
        let wy = _mm512_madd52lo_epu64(zero, y, w);
        // (w·y − quot·q) mod 2^52, which is exact: the true value is in
        // [0, 2q) and 2q < 2^52
        _mm512_and_si512(_mm512_madd52lo_epu64(wy, quot, c.neg_q), c.mask52)
    }

    /// One butterfly: Cooley–Tukey (`FWD`, inputs `< 4q`, outputs `< 4q`)
    /// or Gentleman–Sande (inputs `< 2q`, outputs `< 2q`).
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn butterfly<const FWD: bool>(
        x: __m512i,
        y: __m512i,
        w: __m512i,
        w52: __m512i,
        c: &Consts,
    ) -> (__m512i, __m512i) {
        if FWD {
            let x = csub(x, c.two_q);
            let v = mul_shoup52(y, w, w52, c);
            let lo = _mm512_add_epi64(x, v);
            let hi = _mm512_sub_epi64(_mm512_add_epi64(x, c.two_q), v);
            (lo, hi)
        } else {
            let lo = csub(_mm512_add_epi64(x, y), c.two_q);
            let d = _mm512_sub_epi64(_mm512_add_epi64(x, c.two_q), y);
            (lo, mul_shoup52(d, w, w52, c))
        }
    }

    /// Lane permutes of a stage with half-width `t < 8`, over a 16-word
    /// chunk `v0 ‖ v1` (indices 8..16 select from the second operand).
    struct Shape {
        /// Twiddles per chunk: `8 / t`.
        groups: usize,
        /// `x` (low halves) and `y` (high halves) of every butterfly.
        split_x: [i64; 8],
        split_y: [i64; 8],
        /// Back from `x ‖ y` to chunk order.
        merge_lo: [i64; 8],
        merge_hi: [i64; 8],
        /// `w` and `w_shoup` of each lane's group from the chunk's
        /// flat twiddle words.
        tw_w: [i64; 8],
        tw_shoup: [i64; 8],
    }

    const T4: Shape = Shape {
        groups: 2,
        split_x: [0, 1, 2, 3, 8, 9, 10, 11],
        split_y: [4, 5, 6, 7, 12, 13, 14, 15],
        merge_lo: [0, 1, 2, 3, 8, 9, 10, 11],
        merge_hi: [4, 5, 6, 7, 12, 13, 14, 15],
        tw_w: [0, 0, 0, 0, 2, 2, 2, 2],
        tw_shoup: [1, 1, 1, 1, 3, 3, 3, 3],
    };
    const T2: Shape = Shape {
        groups: 4,
        split_x: [0, 1, 4, 5, 8, 9, 12, 13],
        split_y: [2, 3, 6, 7, 10, 11, 14, 15],
        merge_lo: [0, 1, 8, 9, 2, 3, 10, 11],
        merge_hi: [4, 5, 12, 13, 6, 7, 14, 15],
        tw_w: [0, 0, 2, 2, 4, 4, 6, 6],
        tw_shoup: [1, 1, 3, 3, 5, 5, 7, 7],
    };
    const T1: Shape = Shape {
        groups: 8,
        split_x: [0, 2, 4, 6, 8, 10, 12, 14],
        split_y: [1, 3, 5, 7, 9, 11, 13, 15],
        merge_lo: [0, 8, 1, 9, 2, 10, 3, 11],
        merge_hi: [4, 12, 5, 13, 6, 14, 7, 15],
        tw_w: [0, 2, 4, 6, 8, 10, 12, 14],
        tw_shoup: [1, 3, 5, 7, 9, 11, 13, 15],
    };

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn index(lanes: &[i64; 8]) -> __m512i {
        let [e0, e1, e2, e3, e4, e5, e6, e7] = *lanes;
        _mm512_setr_epi64(e0, e1, e2, e3, e4, e5, e6, e7)
    }

    /// One stage of half-width `t`; `tw[i]` is the twiddle of group `i`
    /// (the words `a[2ti..2t(i+1)]`).
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn stage<const FWD: bool>(a: &mut [u64], t: usize, tw: &[ShoupPrecomp], c: &Consts) {
        let shape = match t {
            1 => &T1,
            2 => &T2,
            4 => &T4,
            _ => {
                for (block, w) in a.chunks_exact_mut(2 * t).zip(tw) {
                    let wv = _mm512_set1_epi64(w.w as i64);
                    let w52 = _mm512_set1_epi64((w.w_shoup >> 12) as i64);
                    let (lo, hi) = block.split_at_mut(t);
                    for (l, h) in lo.chunks_exact_mut(8).zip(hi.chunks_exact_mut(8)) {
                        let (x, y) = butterfly::<FWD>(load(l), load(h), wv, w52, c);
                        store(l, x);
                        store(h, y);
                    }
                }
                return;
            }
        };
        let (split_x, split_y) = (index(&shape.split_x), index(&shape.split_y));
        let (merge_lo, merge_hi) = (index(&shape.merge_lo), index(&shape.merge_hi));
        let (tw_w, tw_shoup) = (index(&shape.tw_w), index(&shape.tw_shoup));
        for (chunk, tws) in a.chunks_exact_mut(16).zip(tw.chunks_exact(shape.groups)) {
            let words = as_words(tws);
            let t0 = load_partial(words);
            let t1 = load_partial(&words[words.len().min(8)..]);
            let w = _mm512_permutex2var_epi64(t0, tw_w, t1);
            let w52 = _mm512_srli_epi64::<12>(_mm512_permutex2var_epi64(t0, tw_shoup, t1));
            let (lo, hi) = chunk.split_at_mut(8);
            let (v0, v1) = (load(lo), load(hi));
            let x = _mm512_permutex2var_epi64(v0, split_x, v1);
            let y = _mm512_permutex2var_epi64(v0, split_y, v1);
            let (x, y) = butterfly::<FWD>(x, y, w, w52, c);
            store(lo, _mm512_permutex2var_epi64(x, merge_lo, y));
            store(hi, _mm512_permutex2var_epi64(x, merge_hi, y));
        }
    }

    /// Forward negacyclic NTT of `a` (canonical, power-of-two length
    /// `>= MIN_DEGREE`) with the bit-reversed twiddles `roots`
    /// (`roots.len() == a.len()`) under `q < 2^50`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn forward(a: &mut [u64], roots: &[ShoupPrecomp], q: u64) {
        let n = a.len();
        debug_assert!(n >= MIN_DEGREE && n.is_power_of_two() && roots.len() == n);
        debug_assert!(q < super::IFMA_MODULUS_LIMIT);
        super::debug_assert_canonical(a, q);
        let c = Consts::new(q);
        let mut t = n;
        let mut groups = 1usize;
        while groups < n {
            t >>= 1;
            stage::<true>(a, t, &roots[groups..2 * groups], &c);
            groups <<= 1;
        }
        for x in a.chunks_exact_mut(8) {
            let v = csub(csub(load(x), c.two_q), c.q);
            store(x, v);
        }
    }

    /// Inverse negacyclic NTT of `a` with the bit-reversed inverse
    /// twiddles `inv_roots` and the scaling `n_inv`; requirements as
    /// for [`forward`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn inverse(a: &mut [u64], inv_roots: &[ShoupPrecomp], n_inv: &ShoupPrecomp, q: u64) {
        let n = a.len();
        debug_assert!(n >= MIN_DEGREE && n.is_power_of_two() && inv_roots.len() == n);
        debug_assert!(q < super::IFMA_MODULUS_LIMIT);
        super::debug_assert_canonical(a, q);
        let c = Consts::new(q);
        let mut t = 1usize;
        let mut groups = n >> 1;
        while groups >= 1 {
            stage::<false>(a, t, &inv_roots[groups..2 * groups], &c);
            t <<= 1;
            groups >>= 1;
        }
        // values < 2q < 2^52 are valid lazy Shoup operands
        let w = _mm512_set1_epi64(n_inv.w as i64);
        let w52 = _mm512_set1_epi64((n_inv.w_shoup >> 12) as i64);
        for x in a.chunks_exact_mut(8) {
            let v = csub(mul_shoup52(load(x), w, w52, &c), c.q);
            store(x, v);
        }
    }
}

/// Naive `O(N^2)` negacyclic convolution, used as a test oracle.
#[allow(clippy::needless_range_loop)] // index math over two arrays
pub fn negacyclic_mul_naive(a: &[u64], b: &[u64], q: &Modulus) -> Vec<u64> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![0u64; n];
    for i in 0..n {
        for j in 0..n {
            let prod = q.mul(a[i], b[j]);
            let k = i + j;
            if k < n {
                out[k] = q.add(out[k], prod);
            } else {
                out[k - n] = q.sub(out[k - n], prod);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;
    use rand::{Rng, SeedableRng};

    fn table(n: usize, bits: u32) -> NttTable {
        let p = generate_ntt_primes(n, bits, 1)[0];
        NttTable::new(Modulus::new(p).unwrap(), n)
    }

    #[test]
    fn roundtrip_small() {
        let t = table(8, 30);
        let orig: Vec<u64> = (0..8).collect();
        let mut a = orig.clone();
        t.forward(&mut a);
        assert_ne!(a, orig, "forward must change the data");
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn roundtrip_random_sizes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for log_n in [3usize, 6, 8, 11] {
            let n = 1 << log_n;
            let t = table(n, 45);
            let q = t.modulus().value();
            let orig: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q).collect();
            let mut a = orig.clone();
            t.forward(&mut a);
            t.inverse(&mut a);
            assert_eq!(a, orig, "n={n}");
        }
    }

    #[test]
    fn convolution_matches_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 64;
        let t = table(n, 40);
        let q = *t.modulus();
        let a: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q.value()).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q.value()).collect();
        assert_eq!(t.negacyclic_mul(&a, &b), negacyclic_mul_naive(&a, &b, &q));
    }

    #[test]
    fn x_times_x_n_minus_1_wraps_negatively() {
        // (X^(N-1)) * X = X^N = -1 in the negacyclic ring.
        let n = 16;
        let t = table(n, 30);
        let mut a = vec![0u64; n];
        a[n - 1] = 1;
        let mut b = vec![0u64; n];
        b[1] = 1;
        let c = t.negacyclic_mul(&a, &b);
        let q = t.modulus().value();
        assert_eq!(c[0], q - 1);
        assert!(c[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn forward_is_evaluation_at_odd_psi_powers() {
        // NTT output (in bit-reversed order) must contain a(ψ^(2i+1)).
        let n = 8;
        let t = table(n, 30);
        let q = *t.modulus();
        let a: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let mut f = a.clone();
        t.forward(&mut f);
        let psi = t.psi();
        let mut evals: Vec<u64> = (0..n)
            .map(|i| {
                let x = q.pow(psi, (2 * i + 1) as u64);
                // Horner
                a.iter().rev().fold(0u64, |acc, &c| q.add(q.mul(acc, x), c))
            })
            .collect();
        evals.sort_unstable();
        f.sort_unstable();
        assert_eq!(f, evals);
    }

    #[test]
    fn linearity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 32;
        let t = table(n, 35);
        let q = *t.modulus();
        let a: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q.value()).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q.value()).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.add(x, y)).collect();
        t.forward(&mut sum);
        for i in 0..n {
            assert_eq!(sum[i], q.add(fa[i], fb[i]));
        }
    }

    #[test]
    fn lazy_pipeline_matches_eager_reference() {
        // Eager per-butterfly reduction, kept as the bit-identity oracle
        // for the lazy production pipeline.
        fn forward_eager(t: &NttTable, a: &mut [u64]) {
            let m = *t.modulus();
            let n = t.n();
            let mut tt = n;
            let mut groups = 1usize;
            while groups < n {
                tt >>= 1;
                for i in 0..groups {
                    let w = &t.root_powers[groups + i];
                    let base = 2 * i * tt;
                    for j in base..base + tt {
                        let u = a[j];
                        let v = m.mul_shoup(a[j + tt], w);
                        a[j] = m.add(u, v);
                        a[j + tt] = m.sub(u, v);
                    }
                }
                groups <<= 1;
            }
        }
        fn inverse_eager(t: &NttTable, a: &mut [u64]) {
            let m = *t.modulus();
            let n = t.n();
            let mut tt = 1usize;
            let mut groups = n >> 1;
            while groups >= 1 {
                let mut base = 0usize;
                for i in 0..groups {
                    let w = &t.inv_root_powers[groups + i];
                    for j in base..base + tt {
                        let u = a[j];
                        let v = a[j + tt];
                        a[j] = m.add(u, v);
                        a[j + tt] = m.mul_shoup(m.sub(u, v), w);
                    }
                    base += 2 * tt;
                }
                tt <<= 1;
                groups >>= 1;
            }
            for x in a.iter_mut() {
                *x = m.mul_shoup(*x, &t.n_inv);
            }
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // 61-bit primes stress the 4q < 2^64 headroom bound.
        for (n, bits) in [(8usize, 30u32), (64, 45), (256, 61)] {
            let t = table(n, bits);
            let q = t.modulus().value();
            let a: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q).collect();
            let mut lazy = a.clone();
            let mut eager = a.clone();
            t.forward(&mut lazy);
            forward_eager(&t, &mut eager);
            assert_eq!(lazy, eager, "forward n={n} bits={bits}");
            t.inverse(&mut lazy);
            inverse_eager(&t, &mut eager);
            assert_eq!(lazy, eager, "inverse n={n} bits={bits}");
            assert_eq!(lazy, a, "roundtrip n={n} bits={bits}");
        }
    }

    #[test]
    fn butterfly_count_formula() {
        let t = table(1 << 10, 30);
        assert_eq!(t.butterfly_count(), (1 << 9) * 10);
    }
}
