//! Base conversion (BConv) between RNS prime-limb sets (Eq. 4).
//!
//! `BConv_{B→C}` takes a polynomial known modulo the primes of `B` and
//! produces its residues modulo the primes of `C` using the fast
//! (approximate) RNS base conversion of Bajard et al. \[11\]:
//!
//! ```text
//! [P]_C = { Σ_j ([P]_{p_j} · p̂_j⁻¹ mod p_j) · (p̂_j mod q_i) }_{q_i ∈ C}
//! ```
//!
//! The first step scales each source limb by `p̂_j⁻¹ mod p_j` (4% of the
//! work — ARK fuses it into the NTTU's BConv-mult unit); the second step
//! is an `(|C| × |B|) · (|B| × N)` matrix product against the *base
//! table* `(p̂_j mod q_i)` — 96% of the work, and exactly what the
//! BConvU's output-stationary MAC systolic array computes (Section V-A).
//!
//! The MAC kernel here mirrors that array in software: a block of four
//! 128-bit accumulators, each held as a split `(hi, lo)` pair of `u64`
//! registers, sweeps the coefficient axis, the `j` (source-limb) loop
//! streams contiguous words from the flat scaled buffer, and reduction
//! is *deferred* — each accumulator is
//! folded at most every [`crate::modulus::Modulus::max_lazy_mac_terms`]
//! terms instead of per product. For the 40–50-bit primes this library
//! targets the whole row fits one deferral window, so BConv performs a
//! single Barrett reduction per output element. Deferral boundaries do
//! not affect the result: the canonical residue of the final fold is
//! unique, so the lazy kernel is bit-identical to eager accumulation.
//!
//! The conversion must run on the coefficient representation, hence the
//! `INTT → BConv → NTT` *BConvRoutine* (Alg. 1) provided here too.

use crate::crt::BigUint;
use crate::modulus::{Modulus, ShoupPrecomp};
use crate::poly::{Representation, RnsBasis, RnsPoly};
use crate::rows;
use crate::scratch::ScratchArena;

/// Precomputed constants for converting from one limb set to another.
#[derive(Debug, Clone)]
pub struct BaseConverter {
    from: Vec<usize>,
    to: Vec<usize>,
    /// p̂_j⁻¹ mod p_j with Shoup precomputation, one per source limb.
    phat_inv: Vec<ShoupPrecomp>,
    /// Flat base table, row-major `|to| × |from|`:
    /// `base_table[i*|from| + j] = p̂_j mod q_i`.
    base_table: Vec<u64>,
    /// Largest source modulus — bounds scaled inputs for the lazy MAC.
    max_source: u64,
}

impl BaseConverter {
    /// Builds conversion constants from basis indices `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is empty or the sets overlap.
    pub fn new(basis: &RnsBasis, from: &[usize], to: &[usize]) -> Self {
        assert!(!from.is_empty(), "source base must be non-empty");
        for t in to {
            assert!(
                !from.contains(t),
                "source and target bases must be disjoint"
            );
        }
        // p̂_j = Π_{k≠j} p_k, computed exactly then reduced.
        let phats: Vec<BigUint> = (0..from.len())
            .map(|j| {
                let mut acc = BigUint::from_u64(1);
                for (k, &fk) in from.iter().enumerate() {
                    if k != j {
                        acc = acc.mul_u64(basis.modulus(fk).value());
                    }
                }
                acc
            })
            .collect();
        let phat_inv: Vec<ShoupPrecomp> = from
            .iter()
            .zip(&phats)
            .map(|(&fj, phat)| {
                let p = basis.modulus(fj);
                p.shoup(p.inv(phat.rem_u64(p.value())))
            })
            .collect();
        let mut base_table = Vec::with_capacity(to.len() * from.len());
        for &ti in to {
            let q = basis.modulus(ti).value();
            base_table.extend(phats.iter().map(|phat| phat.rem_u64(q)));
        }
        let max_source = from
            .iter()
            .map(|&fj| basis.modulus(fj).value())
            .max()
            .expect("non-empty source base");
        Self {
            from: from.to_vec(),
            to: to.to_vec(),
            phat_inv,
            base_table,
            max_source,
        }
    }

    /// Source basis indices.
    pub fn from_indices(&self) -> &[usize] {
        &self.from
    }

    /// Target basis indices.
    pub fn to_indices(&self) -> &[usize] {
        &self.to
    }

    /// The flat base table `(p̂_j mod q_i)` — the matrix ARK's broadcast
    /// units stream into the MAC lanes. Row-major `|to| × |from|`; row
    /// `i` is [`BaseConverter::base_row`]`(i)`.
    pub fn base_table(&self) -> &[u64] {
        &self.base_table
    }

    /// Row `i` of the base table: `p̂_j mod q_i` for every source limb.
    pub fn base_row(&self, i: usize) -> &[u64] {
        &self.base_table[i * self.from.len()..(i + 1) * self.from.len()]
    }

    /// Step 1 of BConv into a flat `|from| × N` scratch buffer:
    /// `scaled[j*N..] = [P]_{p_j} · p̂_j⁻¹ mod p_j`.
    fn scale_into(&self, poly: &RnsPoly, basis: &RnsBasis, scaled: &mut [u64]) {
        assert_eq!(
            poly.representation(),
            Representation::Coefficient,
            "BConv requires the coefficient representation"
        );
        let n = poly.n();
        debug_assert_eq!(scaled.len(), self.from.len() * n);
        // one task per source limb — the limb-level fan-out of the
        // NTTU's BConv-mult stage
        basis
            .pool()
            .for_work(scaled.len())
            .par_for_each_row(scaled, n, |j, row| {
                let fj = self.from[j];
                let pos = poly
                    .position_of(fj)
                    .unwrap_or_else(|| panic!("source limb {fj} missing"));
                rows::scale_shoup_rows(basis.modulus(fj), row, poly.limb(pos), &self.phat_inv[j]);
            });
    }

    /// Step 2 of BConv into a flat `|to| × N` output buffer: the lazy
    /// blocked MAC matrix product. No heap allocation inside — the
    /// accumulators live in registers, so the kernel is safe to run
    /// inside parallel closures.
    fn accumulate_into(&self, scaled: &[u64], basis: &RnsBasis, out: &mut [u64]) {
        let nf = self.from.len();
        let n = scaled.len() / nf;
        debug_assert_eq!(out.len(), self.to.len() * n);
        // one task per *target* limb: each output row is an independent
        // row of the MAC matrix product (96% of BConv's work), so this
        // is where the pool earns its keep
        basis
            .pool()
            .for_work(out.len())
            .par_for_each_row(out, n, |i, orow| {
                let q = basis.modulus(self.to[i]);
                let brow = self.base_row(i);
                // Terms one accumulator absorbs before a fold is forced;
                // a folded value < q re-enters as (at most) one term.
                let window = q.max_lazy_mac_terms(self.max_source - 1);
                let mut blocks = orow.chunks_exact_mut(MAC_LANES);
                for (b, block) in (&mut blocks).enumerate() {
                    mac_block::<MAC_LANES>(q, brow, scaled, n, b * MAC_LANES, window, block);
                }
                // degrees below MAC_LANES leave a remainder
                let k0 = n - n % MAC_LANES;
                for (k, o) in blocks.into_remainder().iter_mut().enumerate() {
                    mac_block::<1>(q, brow, scaled, n, k0 + k, window, std::slice::from_mut(o));
                }
            });
    }

    /// Full BConv: `[P]_from (coeff) → [P]_to (coeff)`.
    ///
    /// # Panics
    ///
    /// Panics if `poly` is not in coefficient representation or lacks a
    /// source limb.
    pub fn convert(&self, poly: &RnsPoly, basis: &RnsBasis) -> RnsPoly {
        let n = poly.n();
        let mut scaled = vec![0u64; self.from.len() * n];
        self.scale_into(poly, basis, &mut scaled);
        let mut out = vec![0u64; self.to.len() * n];
        self.accumulate_into(&scaled, basis, &mut out);
        RnsPoly::from_flat(basis, &self.to, Representation::Coefficient, out)
    }

    /// [`BaseConverter::convert`] with the scaled scratch and the output
    /// drawn from `arena` — the allocation-free form the key-switch hot
    /// path uses (recycle the result with `RnsPoly::recycle`).
    pub fn convert_with(
        &self,
        poly: &RnsPoly,
        basis: &RnsBasis,
        arena: &mut ScratchArena,
    ) -> RnsPoly {
        let n = poly.n();
        let mut scaled = arena.take(self.from.len() * n);
        self.scale_into(poly, basis, &mut scaled);
        let mut out = arena.take(self.to.len() * n);
        self.accumulate_into(&scaled, basis, &mut out);
        arena.put(scaled);
        let mut limb_idx = arena.take_indices(self.to.len());
        limb_idx.extend_from_slice(&self.to);
        RnsPoly::from_parts(n, Representation::Coefficient, limb_idx, out)
    }

    /// The *BConvRoutine* of Alg. 1: `INTT → BConv → NTT`, taking an
    /// evaluation-representation polynomial on the source limbs and
    /// returning the evaluation-representation extension on the target
    /// limbs.
    pub fn routine(&self, poly: &RnsPoly, basis: &RnsBasis) -> RnsPoly {
        let mut src = poly.subset(&self.from);
        src.to_coeff(basis);
        let mut out = self.convert(&src, basis);
        out.to_eval(basis);
        out
    }

    /// [`BaseConverter::routine`] with all temporaries drawn from `arena`.
    pub fn routine_with(
        &self,
        poly: &RnsPoly,
        basis: &RnsBasis,
        arena: &mut ScratchArena,
    ) -> RnsPoly {
        let mut src = poly.subset_in(arena, &self.from);
        src.to_coeff(basis);
        let mut out = self.convert_with(&src, basis, arena);
        src.recycle(arena);
        out.to_eval(basis);
        out
    }

    /// Modular multiplications in step 2 for an `N`-coefficient input —
    /// the `(ℓ+1)·α·N` MAC count that dominates BConv (96%).
    pub fn mac_count(&self, n: usize) -> usize {
        self.to.len() * self.from.len() * n
    }
}

/// Coefficients per BConv MAC block. Four lanes of split `(hi, lo)`
/// `u64` accumulators fit in eight general-purpose registers, so the
/// source-limb loop runs without spilling.
const MAC_LANES: usize = 4;

/// One `W`-coefficient block of BConv step 2: `out[k] = Σ_j
/// scaled[j·n + k0 + k] · brow[j] mod q`, accumulated as 128-bit
/// `(hi, lo)` pairs and folded every `window` terms.
#[inline(always)]
fn mac_block<const W: usize>(
    q: &Modulus,
    brow: &[u64],
    scaled: &[u64],
    n: usize,
    k0: usize,
    window: usize,
    out: &mut [u64],
) {
    let mut lo = [0u64; W];
    let mut hi = [0u64; W];
    let join = |hi: u64, lo: u64| ((hi as u128) << 64) | lo as u128;
    let mut pending = 0usize;
    for (j, &b) in brow.iter().enumerate() {
        if pending == window {
            for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
                *l = q.reduce_u128(join(*h, *l));
                *h = 0;
            }
            pending = 1;
        }
        let s: &[u64; W] = scaled[j * n + k0..j * n + k0 + W]
            .try_into()
            .expect("block lies inside the row");
        for k in 0..W {
            let p = s[k] as u128 * b as u128;
            let (l, carry) = lo[k].overflowing_add(p as u64);
            lo[k] = l;
            hi[k] += (p >> 64) as u64 + carry as u64;
        }
        pending += 1;
    }
    for k in 0..W {
        out[k] = q.reduce_u128(join(hi[k], lo[k]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crt::CrtContext;
    use crate::modulus::Modulus;
    use crate::primes::generate_ntt_primes;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, from_k: usize, to_k: usize) -> (RnsBasis, Vec<usize>, Vec<usize>) {
        let primes = generate_ntt_primes(n, 40, from_k + to_k);
        let basis = RnsBasis::new(n, &primes);
        let from: Vec<usize> = (0..from_k).collect();
        let to: Vec<usize> = (from_k..from_k + to_k).collect();
        (basis, from, to)
    }

    /// Fast conversion computes `x + e·P (mod q)` for some `0 <= e < |B|`
    /// (Bajard et al.); verify against the exact CRT oracle modulo that
    /// correction for several target primes at once.
    #[test]
    fn matches_exact_crt_up_to_multiple_of_p() {
        let n = 16;
        let (basis, from, to) = setup(n, 3, 2);
        let from_moduli: Vec<Modulus> = from.iter().map(|&i| *basis.modulus(i)).collect();
        let crt = CrtContext::new(&from_moduli);
        let bc = BaseConverter::new(&basis, &from, &to);
        let coeffs: Vec<i64> = (0..n as i64).map(|i| i - 8).collect();
        let poly = RnsPoly::from_signed_coeffs(&basis, &from, &coeffs);
        let out = bc.convert(&poly, &basis);
        for (pos, &ti) in to.iter().enumerate() {
            let q = basis.modulus(ti);
            let p_mod_q = crt.product().rem_u64(q.value());
            for (k, &c) in coeffs.iter().enumerate() {
                let residues: Vec<u64> = from_moduli.iter().map(|m| m.from_i64(c)).collect();
                let exact = crt.reconstruct(&residues).rem_u64(q.value());
                let got = out.limb(pos)[k];
                let mut candidate = exact;
                let ok = (0..from.len()).any(|_| {
                    let hit = candidate == got;
                    candidate = q.add(candidate, p_mod_q);
                    hit
                });
                assert!(ok, "coeff {k}: residual is not e·P with e < |B|");
            }
        }
    }

    #[test]
    fn fast_bconv_error_is_multiple_of_nothing_for_single_source() {
        // With |from| = 1 the conversion is exact for any input (this is
        // the ModRaise case of bootstrapping).
        let n = 16;
        let (basis, _, _) = setup(n, 1, 3);
        let bc = BaseConverter::new(&basis, &[0], &[1, 2, 3]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let q0 = basis.modulus(0).value();
        let coeffs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q0)).collect();
        let poly = RnsPoly::from_flat(&basis, &[0], Representation::Coefficient, coeffs.clone());
        let out = bc.convert(&poly, &basis);
        for (pos, &ti) in [1usize, 2, 3].iter().enumerate() {
            let q = basis.modulus(ti);
            #[allow(clippy::needless_range_loop)]
            for k in 0..n {
                assert_eq!(out.limb(pos)[k], q.reduce(coeffs[k]));
            }
        }
    }

    #[test]
    fn fast_bconv_error_bounded_by_source_count() {
        // For random inputs the result may differ from exact by e·P with
        // 0 <= e < |from|; verify the residual is such a multiple.
        let n = 8;
        let (basis, from, to) = setup(n, 3, 1);
        let from_moduli: Vec<Modulus> = from.iter().map(|&i| *basis.modulus(i)).collect();
        let crt = CrtContext::new(&from_moduli);
        let bc = BaseConverter::new(&basis, &from, &to);
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let poly = RnsPoly::random_uniform(&basis, &from, Representation::Coefficient, &mut rng);
        let out = bc.convert(&poly, &basis);
        let q = basis.modulus(to[0]);
        let p_mod_q = crt.product().rem_u64(q.value());
        for k in 0..n {
            let residues: Vec<u64> = (0..from.len()).map(|j| poly.limb(j)[k]).collect();
            let exact = crt.reconstruct(&residues).rem_u64(q.value());
            let got = out.limb(0)[k];
            // got == exact + e * P (mod q) for some 0 <= e < |from|
            let mut ok = false;
            let mut candidate = exact;
            for _ in 0..from.len() {
                if candidate == got {
                    ok = true;
                    break;
                }
                candidate = q.add(candidate, p_mod_q);
            }
            assert!(ok, "residual not a small multiple of P at coeff {k}");
        }
    }

    #[test]
    fn convert_with_matches_convert_and_reuses_buffers() {
        let n = 16;
        let (basis, from, to) = setup(n, 3, 2);
        let bc = BaseConverter::new(&basis, &from, &to);
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let poly = RnsPoly::random_uniform(&basis, &from, Representation::Coefficient, &mut rng);
        let mut arena = ScratchArena::new();
        let plain = bc.convert(&poly, &basis);
        let pooled = bc.convert_with(&poly, &basis, &mut arena);
        assert_eq!(plain, pooled);
        pooled.recycle(&mut arena);
        let fresh = arena.stats().fresh;
        let again = bc.convert_with(&poly, &basis, &mut arena);
        assert_eq!(arena.stats().fresh, fresh, "steady state allocates nothing");
        assert_eq!(plain, again);
    }

    #[test]
    fn routine_round_trips_through_representations() {
        // Single-limb source base (the ModRaise case): conversion is
        // exact, so the routine output must decode back to the input.
        let n = 32;
        let (basis, _, _) = setup(n, 1, 2);
        let bc = BaseConverter::new(&basis, &[0], &[1, 2]);
        let coeffs: Vec<i64> = (0..n as i64).map(|i| (i % 7) - 3).collect();
        let mut poly = RnsPoly::from_signed_coeffs(&basis, &[0], &coeffs);
        poly.to_eval(&basis);
        let out = bc.routine(&poly, &basis);
        assert_eq!(out.representation(), Representation::Evaluation);
        let mut check = out.clone();
        check.to_coeff(&basis);
        // Coefficients were reduced into [0, q0) first, so compare against
        // the positive representatives mod q0.
        let q0 = basis.modulus(0);
        let lifted: Vec<i64> = coeffs.iter().map(|&c| q0.from_i64(c) as i64).collect();
        let expect = RnsPoly::from_signed_coeffs(&basis, &[1, 2], &lifted);
        assert_eq!(check, expect);

        // And the arena-backed routine is bit-identical.
        let mut arena = ScratchArena::new();
        let pooled = bc.routine_with(&poly, &basis, &mut arena);
        assert_eq!(pooled, out);
    }

    #[test]
    fn mac_count_formula() {
        let n = 16;
        let (basis, from, to) = setup(n, 3, 4);
        let bc = BaseConverter::new(&basis, &from, &to);
        assert_eq!(bc.mac_count(n), 3 * 4 * n);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_bases_rejected() {
        let n = 16;
        let (basis, _, _) = setup(n, 2, 2);
        BaseConverter::new(&basis, &[0, 1], &[1, 2]);
    }
}
