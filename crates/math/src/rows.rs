//! Branch-free, fixed-width row kernels over contiguous limb slices.
//!
//! These are the element-wise inner loops of every RNS op, restructured
//! for the flat limb-major layout: each kernel walks aligned slices in
//! fixed-width chunks ([`LANES`] elements) with branch-free conditional
//! subtraction, so the loops carry no bounds checks or branches. Only
//! the add/sub/neg kernels vectorize: x86-64 has no 64×64→128-bit
//! vector multiply, so every kernel with a `u128` product (Barrett,
//! Shoup, the MACs) compiles to scalar `mul`/`imul`. The arithmetic is
//! identical to the scalar [`Modulus`] ops — the same canonical residue
//! comes out of every element — only the control flow changed.

use crate::modulus::{Modulus, ShoupPrecomp};

/// Fixed chunk width of the vectorizable inner loops.
pub const LANES: usize = 8;

/// Branch-free `x mod q` for `x` in `[0, 2q)`.
#[inline(always)]
fn csub(x: u64, q: u64) -> u64 {
    x - (q & ((x >= q) as u64).wrapping_neg())
}

macro_rules! for_each_chunk {
    // Binary in-place: dst[i] = f(dst[i], src[i])
    ($dst:expr, $src:expr, |$a:ident, $b:ident| $body:expr) => {{
        let mut d = $dst.chunks_exact_mut(LANES);
        let mut s = $src.chunks_exact(LANES);
        for (dc, sc) in (&mut d).zip(&mut s) {
            for i in 0..LANES {
                let $a = dc[i];
                let $b = sc[i];
                dc[i] = $body;
            }
        }
        for (x, &y) in d.into_remainder().iter_mut().zip(s.remainder()) {
            let $a = *x;
            let $b = y;
            *x = $body;
        }
    }};
}

/// `dst[i] = (dst[i] + src[i]) mod q`, inputs canonical.
pub fn add_rows(q: &Modulus, dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let qv = q.value();
    for_each_chunk!(dst, src, |a, b| csub(a + b, qv));
}

/// `dst[i] = (dst[i] - src[i]) mod q`, inputs canonical.
pub fn sub_rows(q: &Modulus, dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let qv = q.value();
    for_each_chunk!(dst, src, |a, b| csub(a + qv - b, qv));
}

/// `dst[i] = (-dst[i]) mod q`, input canonical.
pub fn neg_rows(q: &Modulus, dst: &mut [u64]) {
    let qv = q.value();
    for x in dst.iter_mut() {
        let mask = ((*x != 0) as u64).wrapping_neg();
        *x = (qv - *x) & mask;
    }
}

/// `dst[i] = dst[i] * src[i] mod q` (Barrett per element).
pub fn mul_rows(q: &Modulus, dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    for_each_chunk!(dst, src, |a, b| q.mul(a, b));
}

/// `dst[i] = (dst[i] + a[i] * b[i]) mod q` — the fused MAC of the
/// key-switch inner product, one 128-bit accumulate + Barrett per
/// element.
pub fn mul_add_rows(q: &Modulus, dst: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    let mut d = dst.chunks_exact_mut(LANES);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for ((dc, av), bv) in (&mut d).zip(&mut ac).zip(&mut bc) {
        for i in 0..LANES {
            dc[i] = q.mul_add(av[i], bv[i], dc[i]);
        }
    }
    for ((x, &y), &z) in d
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *x = q.mul_add(y, z, *x);
    }
}

/// Coefficients per block of [`dot2_rows`]: its two `u128` accumulator
/// blocks (1 KiB) stay in L1 while every digit's rows stream past.
const DOT_BLOCK: usize = 32;

/// The key-switch inner product over one limb, fused across digits
/// and both key halves, with one reduction per output:
///
/// ```text
/// out_b[k] = Σ_d x_d[π(k)] · b_d[k]  mod q
/// out_a[k] = Σ_d x_d[π(k)] · a_d[k]  mod q      (d < terms)
/// ```
///
/// where `term(d) = (x_d, b_d, a_d)` and `π` is `perm` (the identity if
/// `None`): the Galois permutation of a hoisted rotation, applied as
/// the digit is read instead of by a permuted copy. Operands must be
/// canonical and every row `out_b.len()` long. Products accumulate in
/// `u128` and fold (one Barrett reduction) only every
/// [`Modulus::max_lazy_mac_terms`] terms — at least 16 for any
/// supported (≤ 62-bit) prime and 64 for 61-bit ones, so real `dnum`
/// does not fold and each output is reduced once, where a per-digit MAC
/// reduces `dnum` times.
///
/// # Panics
///
/// Panics if `out_a` or `perm` differ in length from `out_b`, or a
/// row is shorter.
pub fn dot2_rows<'a, F>(
    q: &Modulus,
    out_b: &mut [u64],
    out_a: &mut [u64],
    terms: usize,
    perm: Option<&[usize]>,
    term: F,
) where
    F: Fn(usize) -> (&'a [u64], &'a [u64], &'a [u64]),
{
    let n = out_b.len();
    assert_eq!(out_a.len(), n, "output rows must match");
    if let Some(p) = perm {
        assert_eq!(p.len(), n, "permutation/degree mismatch");
    }
    let window = q.max_lazy_mac_terms(q.value() - 1);
    let mut k0 = 0;
    while k0 < n {
        let bw = DOT_BLOCK.min(n - k0);
        let mut acc_b = [0u128; DOT_BLOCK];
        let mut acc_a = [0u128; DOT_BLOCK];
        let (acc_b, acc_a) = (&mut acc_b[..bw], &mut acc_a[..bw]);
        // terms since the last fold; a folded value < q re-enters as
        // (at most) one term
        let mut pending = 0;
        for d in 0..terms {
            if pending == window {
                for acc in acc_b.iter_mut().chain(acc_a.iter_mut()) {
                    *acc = q.reduce_u128(*acc) as u128;
                }
                pending = 1;
            }
            let (x, b, a) = term(d);
            let macs = acc_b
                .iter_mut()
                .zip(acc_a.iter_mut())
                .zip(&b[k0..k0 + bw])
                .zip(&a[k0..k0 + bw]);
            match perm {
                Some(p) => {
                    for ((((sb, sa), &bv), &av), &src) in macs.zip(&p[k0..k0 + bw]) {
                        let xv = x[src] as u128;
                        *sb += xv * bv as u128;
                        *sa += xv * av as u128;
                    }
                }
                None => {
                    for ((((sb, sa), &bv), &av), &xv) in macs.zip(&x[k0..k0 + bw]) {
                        *sb += xv as u128 * bv as u128;
                        *sa += xv as u128 * av as u128;
                    }
                }
            }
            pending += 1;
        }
        for (o, &acc) in out_b[k0..k0 + bw].iter_mut().zip(acc_b.iter()) {
            *o = q.reduce_u128(acc);
        }
        for (o, &acc) in out_a[k0..k0 + bw].iter_mut().zip(acc_a.iter()) {
            *o = q.reduce_u128(acc);
        }
        k0 += bw;
    }
}

/// `dst[i] = dst[i] * pre.w mod q` (Shoup, branch-free final reduce).
pub fn mul_shoup_rows(q: &Modulus, dst: &mut [u64], pre: &ShoupPrecomp) {
    let qv = q.value();
    for x in dst.iter_mut() {
        *x = csub(q.mul_shoup_lazy(*x, pre), qv);
    }
}

/// `dst[i] = src[i] * pre.w mod q` — the out-of-place Shoup scaling of
/// BConv step 1.
pub fn scale_shoup_rows(q: &Modulus, dst: &mut [u64], src: &[u64], pre: &ShoupPrecomp) {
    debug_assert_eq!(dst.len(), src.len());
    let qv = q.value();
    for (x, &y) in dst.iter_mut().zip(src) {
        *x = csub(q.mul_shoup_lazy(y, pre), qv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn q61() -> Modulus {
        Modulus::new(0x1fff_ffff_ffe0_0001).unwrap()
    }

    fn rand_row(q: &Modulus, len: usize, seed: u64) -> Vec<u64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen::<u64>() % q.value()).collect()
    }

    #[test]
    fn kernels_match_scalar_ops_including_remainders() {
        let q = q61();
        // lengths straddling the chunk width, including the empty row
        for len in [0usize, 1, 7, 8, 9, 16, 37] {
            let a = rand_row(&q, len, 1000 + len as u64);
            let b = rand_row(&q, len, 2000 + len as u64);
            let c = rand_row(&q, len, 3000 + len as u64);

            let mut d = a.clone();
            add_rows(&q, &mut d, &b);
            for i in 0..len {
                assert_eq!(d[i], q.add(a[i], b[i]));
            }

            let mut d = a.clone();
            sub_rows(&q, &mut d, &b);
            for i in 0..len {
                assert_eq!(d[i], q.sub(a[i], b[i]));
            }

            let mut d = a.clone();
            neg_rows(&q, &mut d);
            for i in 0..len {
                assert_eq!(d[i], q.neg(a[i]));
            }

            let mut d = a.clone();
            mul_rows(&q, &mut d, &b);
            for i in 0..len {
                assert_eq!(d[i], q.mul(a[i], b[i]));
            }

            let mut d = c.clone();
            mul_add_rows(&q, &mut d, &a, &b);
            for i in 0..len {
                assert_eq!(d[i], q.add(c[i], q.mul(a[i], b[i])));
            }

            let w = 0x1234_5678 % q.value();
            let pre = q.shoup(w);
            let mut d = a.clone();
            mul_shoup_rows(&q, &mut d, &pre);
            for i in 0..len {
                assert_eq!(d[i], q.mul(a[i], w));
            }

            let mut d = vec![0u64; len];
            scale_shoup_rows(&q, &mut d, &a, &pre);
            for i in 0..len {
                assert_eq!(d[i], q.mul(a[i], w));
            }
        }
    }

    /// The fused inner product equals the per-digit path it replaced
    /// (permuted copy, then one `mul_add_rows` per digit and key half):
    /// under 61-bit moduli, identity and Galois permutations, with
    /// worst-case `q − 1` operands, and digit counts on both sides of
    /// the lazy fold window.
    #[test]
    fn dot2_matches_per_digit_mac_across_the_fold_window() {
        use crate::automorphism::{apply_eval_into, eval_permutation, GaloisElement};
        let q = q61();
        let window = q.max_lazy_mac_terms(q.value() - 1);
        assert!(window >= 64);
        // 40 is not a multiple of the block width, so a short block runs
        for (n, g) in [(64usize, 1i64), (64, 5), (40, 0)] {
            let perm = (g != 0).then(|| eval_permutation(n, GaloisElement::from_rotation(g, n)));
            for terms in [1, 3, window - 1, window, window + 1, 2 * window + 1] {
                for worst in [false, true] {
                    let rows: Vec<[Vec<u64>; 3]> = (0..terms)
                        .map(|d| {
                            let seed = 7000 + 10 * d as u64;
                            if worst {
                                [(); 3].map(|_| vec![q.value() - 1; n])
                            } else {
                                [0, 1, 2].map(|k| rand_row(&q, n, seed + k))
                            }
                        })
                        .collect();
                    let (mut out_b, mut out_a) = (vec![0; n], vec![0; n]);
                    dot2_rows(&q, &mut out_b, &mut out_a, terms, perm.as_deref(), |d| {
                        let [x, b, a] = &rows[d];
                        (x, b, a)
                    });
                    let (mut ref_b, mut ref_a) = (vec![0; n], vec![0; n]);
                    for [x, b, a] in &rows {
                        let mut xp = x.clone();
                        if let Some(p) = &perm {
                            apply_eval_into(x, p, &mut xp);
                        }
                        mul_add_rows(&q, &mut ref_b, &xp, b);
                        mul_add_rows(&q, &mut ref_a, &xp, a);
                    }
                    let case = format!("n={n} g={g} terms={terms} worst={worst}");
                    assert_eq!(out_b, ref_b, "{case}");
                    assert_eq!(out_a, ref_a, "{case}");
                }
            }
        }
    }

    #[test]
    fn edge_residues_stay_canonical() {
        let q = q61();
        let top = q.value() - 1;
        let mut d = vec![top, 0, top];
        add_rows(&q, &mut d, &[top, 0, 1]);
        assert_eq!(d, vec![q.add(top, top), 0, 0]);
        let mut d = vec![0u64, top];
        sub_rows(&q, &mut d, &[top, top]);
        assert_eq!(d, vec![1, 0]);
    }
}
