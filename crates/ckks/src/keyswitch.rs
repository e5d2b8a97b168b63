//! Generalized key-switching (Alg. 2 of the paper), split into its
//! *hoistable* halves.
//!
//! `KeySwitch(x, evk)` re-encrypts `x·s'` under `s`: the input is split
//! into `dnum` decomposition pieces `[x]_{C_i}`, each piece is extended
//! to `R_PQ` with a BConvRoutine (INTT → BConv → NTT), multiplied with
//! its `evk_i` pair and accumulated, and the result is brought back to
//! `R_Q` and divided by `P` (the ModDown). This op dominates HE
//! execution time (Section II-C) — its primary-function sequence is what
//! the ARK compiler in `ark-core` reproduces cycle by cycle.
//!
//! The op factors into two phases with very different reuse behavior:
//!
//! 1. [`CkksContext::hoisted_decompose`] — digit decomposition + ModUp
//!    (`dnum'` BConvRoutines), a function of the *input polynomial
//!    only*;
//! 2. [`CkksContext::hoisted_apply`] — a Galois permutation of the
//!    raised digits, the evk inner product, and the ModDown, a function
//!    of the *rotation* (Galois element + key).
//!
//! Because the Galois map is a signed coefficient permutation applied
//! identically to every limb, it commutes with the per-coefficient
//! ModUp, so one decomposition serves any number of rotations of the
//! same ciphertext (Halevi–Shoup hoisting): rotation-heavy kernels
//! (the BSGS baby loop of Eq. 8, H-(I)DFT stages) pay the `dnum'`
//! mod-up BConvRoutines once instead of once per rotation. The ModDown
//! cannot be hoisted — its input already mixes in the per-rotation evk
//! product, so each rotation pays its own two BConvRoutines.

use crate::keys::EvalKey;
use crate::params::CkksContext;
use ark_math::automorphism::GaloisElement;
use ark_math::poly::{Representation, RnsPoly};
use ark_math::rows;
use ark_math::scratch::ScratchArena;

/// The shared state of a hoisted key-switch: the input's decomposition
/// digits, already extended to `R_PQ` (ModUp done) in the evaluation
/// representation. Produced once by [`CkksContext::hoisted_decompose`],
/// consumed by any number of [`CkksContext::hoisted_apply`] calls with
/// different Galois elements.
#[derive(Debug, Clone)]
pub struct HoistedDigits {
    /// Level the digits were decomposed at.
    level: usize,
    /// The extended limb set `C_ℓ ∪ B` the digits live on.
    ext: Vec<usize>,
    /// One raised digit per decomposition group, evaluation rep.
    digits: Vec<RnsPoly>,
}

impl HoistedDigits {
    /// Level the decomposition was taken at.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of decomposition digits (`dnum'` at this level).
    pub fn len(&self) -> usize {
        self.digits.len()
    }

    /// True if the decomposition holds no digits (never for a valid
    /// level).
    pub fn is_empty(&self) -> bool {
        self.digits.is_empty()
    }

    /// Storage in words — the scratch the hoisted state occupies
    /// between applications (`dnum' · (ℓ+1+α) · N`).
    pub fn words(&self) -> usize {
        self.digits.iter().map(RnsPoly::words).sum()
    }

    /// Returns every digit buffer to `arena` for reuse. Hot paths that
    /// decompose per call (e.g. `HMult`'s relinearization) recycle the
    /// digits so steady-state key-switching allocates nothing; dropping
    /// a `HoistedDigits` instead is always safe, just not free.
    pub fn recycle(self, arena: &mut ScratchArena) {
        let HoistedDigits {
            ext, mut digits, ..
        } = self;
        for digit in digits.drain(..) {
            digit.recycle(arena);
        }
        arena.put_poly_vec(digits);
        arena.put_indices(ext);
    }
}

impl CkksContext {
    /// Extends one decomposition piece `[x]_{C_i}` to the limb set `ext`
    /// (Alg. 2 line 3), keeping the piece's own limbs exact and base-
    /// converting the rest.
    fn extend_piece(
        &self,
        x: &RnsPoly,
        level: usize,
        group_idx: usize,
        ext: &[usize],
        arena: &mut ScratchArena,
    ) -> RnsPoly {
        let group = &self.decomposition_groups(level)[group_idx];
        let piece = x.subset_in(arena, group);
        let conv = self.modup_converter(level, group_idx);
        // BConvRoutine (INTT → BConv → NTT) fans out per limb internally.
        let extension = conv.routine_with(&piece, self.basis(), arena);
        // Assemble limbs in `ext` order (parallel row copies into one
        // flat buffer — at paper scale each row is N words).
        let n = x.n();
        let mut data = arena.take(ext.len() * n);
        self.basis()
            .pool()
            .for_work(data.len())
            .par_for_each_row(&mut data, n, |k, row| {
                let i = ext[k];
                let src = match piece.position_of(i) {
                    Some(pos) => piece.limb(pos),
                    None => {
                        let pos = extension.position_of(i).expect("converted limb present");
                        extension.limb(pos)
                    }
                };
                row.copy_from_slice(src);
            });
        let mut limb_idx = arena.take_indices(ext.len());
        limb_idx.extend_from_slice(ext);
        piece.recycle(arena);
        extension.recycle(arena);
        RnsPoly::from_parts(n, Representation::Evaluation, limb_idx, data)
    }

    /// `ModDown`: maps a polynomial over `C_ℓ ∪ B` back to `C_ℓ` and
    /// divides by `P` (Alg. 2 lines 6–8). Rounding error is the usual
    /// key-switching noise.
    pub fn mod_down(&self, y: &RnsPoly, level: usize) -> RnsPoly {
        let mut arena = self.arena();
        self.mod_down_with(y, level, &mut arena)
    }

    /// [`Self::mod_down`] with every temporary drawn from `arena` — the
    /// form the key-switch inner loop uses. The returned polynomial is
    /// arena-backed; recycle it when done to keep the op allocation-free.
    pub fn mod_down_with(&self, y: &RnsPoly, level: usize, arena: &mut ScratchArena) -> RnsPoly {
        let conv = self.moddown_converter(level);
        let y_b = y.subset_in(arena, self.special_indices());
        let down = conv.routine_with(&y_b, self.basis(), arena);
        y_b.recycle(arena);
        let mut out = y.subset_in(arena, self.chain_indices(level));
        out.sub_assign(&down, self.basis());
        down.recycle(arena);
        // multiply by P^{-1} mod q_j (cached scalars)
        out.mul_scalar_per_limb(&self.moddown_factors(level), self.basis());
        out
    }

    /// Phase 1 of a (possibly hoisted) key-switch: digit decomposition
    /// plus ModUp (Alg. 2 lines 1–3), `dnum'` BConvRoutines. The result
    /// depends only on `x`, so rotation-heavy kernels compute it once
    /// and feed it to many [`Self::hoisted_apply`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in the evaluation representation over the
    /// chain limbs of `level`.
    pub fn hoisted_decompose(&self, x: &RnsPoly, level: usize) -> HoistedDigits {
        let mut arena = self.arena();
        self.hoisted_decompose_with(x, level, &mut arena)
    }

    /// [`Self::hoisted_decompose`] drawing every digit from `arena`.
    pub fn hoisted_decompose_with(
        &self,
        x: &RnsPoly,
        level: usize,
        arena: &mut ScratchArena,
    ) -> HoistedDigits {
        assert_eq!(x.representation(), Representation::Evaluation);
        let mut ext = arena.take_indices(self.extended_indices(level).len());
        ext.extend_from_slice(self.extended_indices(level));
        let group_count = self.decomposition_groups(level).len();
        // the digit spine comes from the arena too, so decompose-per-call
        // paths (relinearization) allocate nothing in steady state
        let mut digits = arena.take_poly_vec(group_count);
        for group_idx in 0..group_count {
            let digit = self.extend_piece(x, level, group_idx, &ext, arena);
            digits.push(digit);
        }
        HoistedDigits { level, ext, digits }
    }

    /// Phase 2: applies the Galois automorphism `g` to the raised
    /// digits (a per-limb permutation in the evaluation representation
    /// — exact, because the signed coefficient permutation commutes
    /// with the per-coefficient ModUp), runs the evk inner product and
    /// the ModDown. Returns `(kb, ka)` over the chain at the digits'
    /// level with `kb − ka·s ≈ ψ_g(x)·ψ_g(s')`.
    ///
    /// The evk must be the switching key for `ψ_g(s') → s` — for
    /// rotations, the rotation key of `g` — and needs at least
    /// `digits.len()` pieces.
    ///
    /// # Panics
    ///
    /// Panics if the evk has fewer pieces than digits.
    pub fn hoisted_apply(
        &self,
        digits: &HoistedDigits,
        g: GaloisElement,
        evk: &EvalKey,
    ) -> (RnsPoly, RnsPoly) {
        let mut arena = self.arena();
        self.hoisted_apply_with(digits, g, evk, &mut arena)
    }

    /// [`Self::hoisted_apply`] with every temporary drawn from `arena`.
    /// The evk inner product is one fused kernel per limb
    /// ([`rows::dot2_rows`]): it reads each digit through the Galois
    /// permutation (no permuted copies), the evk rows in place, and
    /// reduces each output coefficient of `kb` and `ka` once. The
    /// returned pair is arena-backed.
    pub fn hoisted_apply_with(
        &self,
        digits: &HoistedDigits,
        g: GaloisElement,
        evk: &EvalKey,
        arena: &mut ScratchArena,
    ) -> (RnsPoly, RnsPoly) {
        assert!(
            digits.len() <= evk.pieces.len(),
            "evk has too few decomposition pieces"
        );
        // every piece lives on one limb set (the wire decoder enforces
        // it), so one row position per limb serves every digit
        let key_limbs = evk.pieces[0].0.limb_indices();
        assert!(
            evk.pieces.iter().all(|(kb, ka)| {
                kb.limb_indices() == key_limbs
                    && ka.limb_indices() == key_limbs
                    && kb.representation() == Representation::Evaluation
                    && ka.representation() == Representation::Evaluation
            }),
            "evk pieces must share one evaluation-representation limb set"
        );
        let level = digits.level;
        let ext = &digits.ext;
        let basis = self.basis();
        let n = basis.n();
        // one permutation table serves every digit
        let perm = (g != GaloisElement::identity()).then(|| self.eval_perm(g));
        let perm = perm.as_deref().map(Vec::as_slice);
        let mut acc_b = arena.take(ext.len() * n);
        let mut acc_a = arena.take(ext.len() * n);
        basis.pool().for_work(acc_b.len()).par_for_each_row_pair(
            &mut acc_b,
            &mut acc_a,
            n,
            |pos, row_b, row_a| {
                let i = ext[pos];
                let kpos = key_limbs
                    .iter()
                    .position(|&k| k == i)
                    .unwrap_or_else(|| panic!("limb {i} missing from the evaluation key"));
                rows::dot2_rows(basis.modulus(i), row_b, row_a, digits.len(), perm, |d| {
                    let (kb, ka) = &evk.pieces[d];
                    (digits.digits[d].limb(pos), kb.limb(kpos), ka.limb(kpos))
                });
            },
        );
        let mut into_poly = |data| {
            let mut limb_idx = arena.take_indices(ext.len());
            limb_idx.extend_from_slice(ext);
            RnsPoly::from_parts(n, Representation::Evaluation, limb_idx, data)
        };
        let (acc_b, acc_a) = (into_poly(acc_b), into_poly(acc_a));
        let out_b = self.mod_down_with(&acc_b, level, arena);
        let out_a = self.mod_down_with(&acc_a, level, arena);
        acc_b.recycle(arena);
        acc_a.recycle(arena);
        (out_b, out_a)
    }

    /// Generalized key-switching: returns `(kb, ka)` over the chain at
    /// `level` with `kb − ka·s ≈ x·s'` for the evk's source key `s'`.
    ///
    /// This is exactly [`Self::hoisted_decompose`] followed by one
    /// identity [`Self::hoisted_apply`] — the two-phase split is the
    /// canonical path, so per-rotation and hoisted evaluation are
    /// bit-identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in the evaluation representation over the
    /// chain limbs of `level`.
    pub fn key_switch(&self, x: &RnsPoly, evk: &EvalKey, level: usize) -> (RnsPoly, RnsPoly) {
        let mut arena = self.arena();
        self.key_switch_with(x, evk, level, &mut arena)
    }

    /// [`Self::key_switch`] with digits and temporaries drawn from
    /// `arena` (the digits are recycled before returning).
    pub fn key_switch_with(
        &self,
        x: &RnsPoly,
        evk: &EvalKey,
        level: usize,
        arena: &mut ScratchArena,
    ) -> (RnsPoly, RnsPoly) {
        let digits = self.hoisted_decompose_with(x, level, arena);
        let out = self.hoisted_apply_with(&digits, GaloisElement::identity(), evk, arena);
        digits.recycle(arena);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::SeedableRng;

    /// Direct test of the key-switch identity: kb − ka·s ≈ x·s'.
    #[test]
    fn key_switch_identity_holds() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sk = ctx.gen_secret_key(&mut rng);
        // source key: an independent ternary key
        let other = ctx.gen_secret_key(&mut rng);
        let evk = ctx.gen_switching_key(&other.s, &sk, &mut rng);

        let level = ctx.params().max_level;
        let chain = ctx.chain_indices(level);
        let x = RnsPoly::random_uniform(ctx.basis(), chain, Representation::Evaluation, &mut rng);
        let (kb, ka) = ctx.key_switch(&x, &evk, level);

        // expected = x * s' (eval rep)
        let mut expected = x.clone();
        expected.mul_assign(&other.s.subset(chain), ctx.basis());
        // got = kb - ka*s
        let mut got = ka.clone();
        got.mul_assign(&sk.s.subset(chain), ctx.basis());
        got.negate(ctx.basis());
        got.add_assign(&kb, ctx.basis());

        // difference must be a *small* polynomial (key-switching noise)
        let mut diff = got;
        diff.sub_assign(&expected, ctx.basis());
        diff.to_coeff(ctx.basis());
        let crt = ctx.crt(chain);
        let n = ctx.params().n();
        let mut max_mag = 0f64;
        for k in 0..n {
            let residues: Vec<u64> = (0..chain.len()).map(|p| diff.limb(p)[k]).collect();
            let (_, mag) = crt.reconstruct_signed(&residues);
            max_mag = max_mag.max(mag.to_f64());
        }
        // Noise bound: heuristically q_top * small; assert far below Δ·q0
        // but nonzero structure allowed. Use a generous 2^30 bound
        // relative to the 2^36 scale primes of the tiny set.
        assert!(
            max_mag < 2f64.powi(33),
            "key-switch noise too large: 2^{}",
            max_mag.log2()
        );
    }

    #[test]
    fn key_switch_works_at_partial_levels() {
        // level where the last decomposition group is partial
        let ctx = CkksContext::new(CkksParams::tiny()); // L=3, α=2
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let sk = ctx.gen_secret_key(&mut rng);
        let other = ctx.gen_secret_key(&mut rng);
        let evk = ctx.gen_switching_key(&other.s, &sk, &mut rng);
        let level = 2; // groups {0,1},{2}
        let chain = ctx.chain_indices(level);
        let x = RnsPoly::random_uniform(ctx.basis(), chain, Representation::Evaluation, &mut rng);
        let (kb, ka) = ctx.key_switch(&x, &evk, level);
        let mut expected = x.clone();
        expected.mul_assign(&other.s.subset(chain), ctx.basis());
        let mut got = ka.clone();
        got.mul_assign(&sk.s.subset(chain), ctx.basis());
        got.negate(ctx.basis());
        got.add_assign(&kb, ctx.basis());
        let mut diff = got;
        diff.sub_assign(&expected, ctx.basis());
        diff.to_coeff(ctx.basis());
        let crt = ctx.crt(chain);
        let mut max_mag = 0f64;
        for k in 0..ctx.params().n() {
            let residues: Vec<u64> = (0..chain.len()).map(|p| diff.limb(p)[k]).collect();
            let (_, mag) = crt.reconstruct_signed(&residues);
            max_mag = max_mag.max(mag.to_f64());
        }
        assert!(max_mag < 2f64.powi(33), "noise 2^{}", max_mag.log2());
    }

    /// Hoisted identity: `kb − ka·s ≈ ψ_g(x)·ψ_g(s')` when the digits
    /// of `x` are applied with the Galois key for `g` — the correctness
    /// statement that lets one decomposition serve many rotations.
    #[test]
    fn hoisted_apply_switches_the_rotated_input() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let sk = ctx.gen_secret_key(&mut rng);
        let level = ctx.params().max_level;
        let chain = ctx.chain_indices(level);
        let x = RnsPoly::random_uniform(ctx.basis(), chain, Representation::Evaluation, &mut rng);
        let digits = ctx.hoisted_decompose(&x, level);
        let crt = ctx.crt(chain);
        for r in [1i64, 2, -3] {
            let g = GaloisElement::from_rotation(r, ctx.params().n());
            let key = ctx.gen_galois_key(g, &sk, &mut rng);
            let (kb, ka) = ctx.hoisted_apply(&digits, g, &key);

            // expected = ψ(x) · ψ(s)
            let mut expected = x.automorphism(g, ctx.basis());
            let rotated_s = sk.s.subset(chain).automorphism(g, ctx.basis());
            expected.mul_assign(&rotated_s, ctx.basis());
            let mut got = ka.clone();
            got.mul_assign(&sk.s.subset(chain), ctx.basis());
            got.negate(ctx.basis());
            got.add_assign(&kb, ctx.basis());
            let mut diff = got;
            diff.sub_assign(&expected, ctx.basis());
            diff.to_coeff(ctx.basis());
            let mut max_mag = 0f64;
            for k in 0..ctx.params().n() {
                let residues: Vec<u64> = (0..chain.len()).map(|p| diff.limb(p)[k]).collect();
                let (_, mag) = crt.reconstruct_signed(&residues);
                max_mag = max_mag.max(mag.to_f64());
            }
            assert!(max_mag < 2f64.powi(33), "r={r}: noise 2^{}", max_mag.log2());
        }
    }

    /// One decomposition reused across distinct Galois elements gives
    /// the same bits as re-decomposing for each application — the digit
    /// state is read-only.
    #[test]
    fn hoisted_digits_are_reusable_and_immutable() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let sk = ctx.gen_secret_key(&mut rng);
        let level = 2;
        let chain = ctx.chain_indices(level);
        let x = RnsPoly::random_uniform(ctx.basis(), chain, Representation::Evaluation, &mut rng);
        let g1 = GaloisElement::from_rotation(1, ctx.params().n());
        let g2 = GaloisElement::from_rotation(2, ctx.params().n());
        let k1 = ctx.gen_galois_key(g1, &sk, &mut rng);
        let k2 = ctx.gen_galois_key(g2, &sk, &mut rng);

        let shared = ctx.hoisted_decompose(&x, level);
        assert_eq!(shared.level(), level);
        assert_eq!(shared.len(), ctx.decomposition_groups(level).len());
        assert!(shared.words() > 0);
        let a1 = ctx.hoisted_apply(&shared, g1, &k1);
        let a2 = ctx.hoisted_apply(&shared, g2, &k2);
        // fresh decompositions per application must agree bitwise
        let b1 = ctx.hoisted_apply(&ctx.hoisted_decompose(&x, level), g1, &k1);
        let b2 = ctx.hoisted_apply(&ctx.hoisted_decompose(&x, level), g2, &k2);
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
    }

    /// The per-digit inner product the fused kernel replaced: a permuted
    /// copy of each digit (`permute_eval_in`), then one Barrett MAC
    /// (`mul_add_rows`) per digit and key half, then the ModDowns.
    fn hoisted_apply_per_digit(
        ctx: &CkksContext,
        digits: &HoistedDigits,
        g: GaloisElement,
        evk: &EvalKey,
    ) -> (RnsPoly, RnsPoly) {
        let basis = ctx.basis();
        let mut arena = ctx.arena();
        let perm = (g != GaloisElement::identity()).then(|| ctx.eval_perm(g));
        let mut acc =
            [(); 2].map(|_| RnsPoly::zero(basis, &digits.ext, Representation::Evaluation));
        for (digit, (kb, ka)) in digits.digits.iter().zip(&evk.pieces) {
            let rotated = perm
                .as_ref()
                .map(|p| digit.permute_eval_in(&mut arena, p, basis));
            let x = rotated.as_ref().unwrap_or(digit);
            for (acc, key) in acc.iter_mut().zip([kb, ka]) {
                for (pos, &i) in digits.ext.iter().enumerate() {
                    let kpos = key.position_of(i).expect("key covers the extension");
                    rows::mul_add_rows(
                        basis.modulus(i),
                        acc.limb_mut(pos),
                        x.limb(pos),
                        key.limb(kpos),
                    );
                }
            }
        }
        let [b, a] = acc;
        (
            ctx.mod_down(&b, digits.level),
            ctx.mod_down(&a, digits.level),
        )
    }

    /// The fused inner product is bit-identical to the per-digit path it
    /// replaced, for identity, rotation and conjugation Galois elements,
    /// at full and partial levels, with 50-bit and 61-bit moduli.
    #[test]
    fn fused_inner_product_matches_per_digit_path() {
        let wide = CkksParams {
            q0_bits: 61,
            scale_bits: 40,
            special_bits: 61,
            ..CkksParams::tiny()
        };
        for params in [CkksParams::tiny(), wide] {
            let ctx = CkksContext::new(params);
            let top_bits = ctx.basis().modulus(0).bits();
            assert!(top_bits >= ctx.params().q0_bits);
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            let sk = ctx.gen_secret_key(&mut rng);
            let other = ctx.gen_secret_key(&mut rng);
            let evk = ctx.gen_switching_key(&other.s, &sk, &mut rng);
            let n = ctx.params().n();
            for level in [ctx.params().max_level, 2] {
                let chain = ctx.chain_indices(level);
                let x = RnsPoly::random_uniform(
                    ctx.basis(),
                    chain,
                    Representation::Evaluation,
                    &mut rng,
                );
                let digits = ctx.hoisted_decompose(&x, level);
                for g in [
                    GaloisElement::identity(),
                    GaloisElement::from_rotation(1, n),
                    GaloisElement::from_rotation(-3, n),
                    GaloisElement::conjugation(n),
                ] {
                    assert_eq!(
                        ctx.hoisted_apply(&digits, g, &evk),
                        hoisted_apply_per_digit(&ctx, &digits, g, &evk),
                        "{top_bits}-bit q0, level {level}, g {g:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn mod_down_divides_by_p() {
        // A polynomial that is exactly P times a small value must come
        // back as that value.
        let ctx = CkksContext::new(CkksParams::tiny());
        let level = ctx.params().max_level;
        let ext = ctx.extended_indices(level);
        let n = ctx.params().n();
        let small: Vec<i64> = (0..n as i64).map(|i| (i % 11) - 5).collect();
        // P mod d_j per limb of the extended basis
        let special = ctx.special_indices();
        let mut poly = RnsPoly::from_signed_coeffs(ctx.basis(), ext, &small);
        let scalars: Vec<u64> = ext
            .iter()
            .map(|&j| {
                let q = ctx.basis().modulus(j);
                special.iter().fold(1u64, |acc, &pi| {
                    q.mul(acc, q.reduce(ctx.basis().modulus(pi).value()))
                })
            })
            .collect();
        poly.mul_scalar_per_limb(&scalars, ctx.basis());
        poly.to_eval(ctx.basis());
        let mut down = ctx.mod_down(&poly, level);
        down.to_coeff(ctx.basis());
        let expect = RnsPoly::from_signed_coeffs(ctx.basis(), ctx.chain_indices(level), &small);
        assert_eq!(down, expect);
    }
}
