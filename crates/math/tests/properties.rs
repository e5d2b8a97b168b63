//! Property-based tests of the arithmetic substrate: every structure is
//! checked against an independent oracle (u128 arithmetic, exact CRT
//! big integers, or algebraic identities) over randomized inputs.

use ark_math::automorphism::{apply_coeff, eval_permutation, GaloisElement};
use ark_math::bconv::BaseConverter;
use ark_math::crt::{BigUint, CrtContext};
use ark_math::modulus::Modulus;
use ark_math::ntt::{negacyclic_mul_naive, NttKernel, NttTable, IFMA_MODULUS_LIMIT};
use ark_math::ntt4step::FourStepNtt;
use ark_math::par::ThreadPool;
use ark_math::poly::{Representation, RnsBasis, RnsPoly};
use ark_math::primes::{generate_ntt_primes, is_prime};
use proptest::prelude::*;
use std::sync::OnceLock;

const Q61: u64 = 0x1fff_ffff_ffe0_0001;

fn q61() -> Modulus {
    Modulus::new(Q61).unwrap()
}

proptest! {
    #[test]
    fn barrett_mul_matches_u128(a in 0..Q61, b in 0..Q61) {
        let q = q61();
        prop_assert_eq!(q.mul(a, b), ((a as u128 * b as u128) % Q61 as u128) as u64);
    }

    #[test]
    fn barrett_reduce_u128_matches(x in any::<u128>()) {
        let q = q61();
        prop_assert_eq!(q.reduce_u128(x), (x % Q61 as u128) as u64);
    }

    #[test]
    fn add_sub_are_group_ops(a in 0..Q61, b in 0..Q61, c in 0..Q61) {
        let q = q61();
        // associativity and inverse
        prop_assert_eq!(q.add(q.add(a, b), c), q.add(a, q.add(b, c)));
        prop_assert_eq!(q.sub(q.add(a, b), b), a);
        prop_assert_eq!(q.add(a, q.neg(a)), 0);
    }

    #[test]
    fn mul_distributes_over_add(a in 0..Q61, b in 0..Q61, c in 0..Q61) {
        let q = q61();
        prop_assert_eq!(q.mul(a, q.add(b, c)), q.add(q.mul(a, b), q.mul(a, c)));
    }

    #[test]
    fn pow_is_homomorphic(a in 1..Q61, e1 in 0u64..1000, e2 in 0u64..1000) {
        let q = q61();
        prop_assert_eq!(q.mul(q.pow(a, e1), q.pow(a, e2)), q.pow(a, e1 + e2));
    }

    #[test]
    fn inverse_is_two_sided(a in 1..Q61) {
        let q = q61();
        let inv = q.inv(a);
        prop_assert_eq!(q.mul(a, inv), 1);
        prop_assert_eq!(q.mul(inv, a), 1);
        prop_assert_eq!(q.inv(inv), a);
    }

    #[test]
    fn shoup_equals_barrett(w in 0..Q61, a in 0..Q61) {
        let q = q61();
        let pre = q.shoup(w);
        prop_assert_eq!(q.mul_shoup(a, &pre), q.mul(a, w));
    }

    #[test]
    fn signed_roundtrip(x in -(1i64 << 40)..(1i64 << 40)) {
        let q = q61();
        prop_assert_eq!(q.to_signed(q.from_i64(x)), x);
    }
}

fn ntt64() -> &'static NttTable {
    static T: OnceLock<NttTable> = OnceLock::new();
    T.get_or_init(|| {
        let p = generate_ntt_primes(64, 45, 1)[0];
        NttTable::new(Modulus::new(p).unwrap(), 64)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn ntt_roundtrip_random(coeffs in proptest::collection::vec(0u64..(1 << 44), 64)) {
        let t = ntt64();
        let reduced: Vec<u64> = coeffs.iter().map(|&c| t.modulus().reduce(c)).collect();
        let mut a = reduced.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        prop_assert_eq!(a, reduced);
    }

    #[test]
    fn ntt_convolution_matches_naive(
        a in proptest::collection::vec(0u64..(1 << 44), 64),
        b in proptest::collection::vec(0u64..(1 << 44), 64),
    ) {
        let t = ntt64();
        let q = *t.modulus();
        let ra: Vec<u64> = a.iter().map(|&c| q.reduce(c)).collect();
        let rb: Vec<u64> = b.iter().map(|&c| q.reduce(c)).collect();
        prop_assert_eq!(t.negacyclic_mul(&ra, &rb), negacyclic_mul_naive(&ra, &rb, &q));
    }

    #[test]
    fn four_step_matches_radix2(coeffs in proptest::collection::vec(0u64..(1 << 44), 64)) {
        let t = ntt64();
        let four = FourStepNtt::new(*t.modulus(), 64);
        let reduced: Vec<u64> = coeffs.iter().map(|&c| t.modulus().reduce(c)).collect();
        let mut f2 = reduced.clone();
        t.forward(&mut f2);
        let mut f4 = reduced;
        four.forward(&mut f4);
        #[allow(clippy::needless_range_loop)]
        for i in 0..64usize {
            let br = i.reverse_bits() >> (usize::BITS - 6);
            prop_assert_eq!(f4[i], f2[br]);
        }
    }

    #[test]
    fn automorphism_composition(r1 in 1i64..16, r2 in 1i64..16,
                                coeffs in proptest::collection::vec(0u64..(1 << 44), 64)) {
        // ψ_{r1} ∘ ψ_{r2} == ψ_{r1+r2} on coefficients
        let t = ntt64();
        let q = t.modulus();
        let reduced: Vec<u64> = coeffs.iter().map(|&c| q.reduce(c)).collect();
        let g1 = GaloisElement::from_rotation(r1, 64);
        let g2 = GaloisElement::from_rotation(r2, 64);
        let g12 = GaloisElement::from_rotation(r1 + r2, 64);
        let composed = apply_coeff(&apply_coeff(&reduced, g2, q), g1, q);
        let direct = apply_coeff(&reduced, g12, q);
        prop_assert_eq!(composed, direct);
    }

    #[test]
    fn eval_permutation_inverse(r in 1i64..16) {
        // applying ψ_r then ψ_{-r} permutations is the identity
        let fwd = eval_permutation(64, GaloisElement::from_rotation(r, 64));
        let bwd = eval_permutation(64, GaloisElement::from_rotation(-r, 64));
        for s in 0..64 {
            prop_assert_eq!(bwd[fwd[s]], s);
        }
    }
}

/// Whether this host runs the IFMA NTT kernel. Without it the kernel
/// comparisons below only exercise the scalar path, so the first call
/// says so on stderr (written directly, so the test harness does not
/// capture it).
fn host_has_ifma() -> bool {
    static HAS: OnceLock<bool> = OnceLock::new();
    *HAS.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        let has =
            std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512ifma");
        #[cfg(not(target_arch = "x86_64"))]
        let has = false;
        if !has {
            use std::io::Write;
            let _ = writeln!(
                std::io::stderr().lock(),
                "note: this host lacks AVX-512 IFMA; the IFMA-vs-scalar NTT \
                 checks compare the scalar kernel with itself"
            );
        }
        has
    })
}

/// For every degree `2^1..=2^16`: tables for the largest NTT prime
/// below `2^50` (the top of the IFMA kernel's range, where lazy values
/// come closest to its 52-bit lanes) and the smallest one above it.
fn ifma_edge_tables() -> &'static [(NttTable, NttTable)] {
    static T: OnceLock<Vec<(NttTable, NttTable)>> = OnceLock::new();
    T.get_or_init(|| {
        (1..=16)
            .map(|log_n| {
                let n = 1usize << log_n;
                let step = 2 * n as u64; // 2^50 ≡ 0 (mod 2n)
                let below = (1..)
                    .map(|k| IFMA_MODULUS_LIMIT - k * step + 1)
                    .find(|&q| is_prime(q))
                    .unwrap();
                let above = (0..)
                    .map(|k| IFMA_MODULUS_LIMIT + k * step + 1)
                    .find(|&q| is_prime(q))
                    .unwrap();
                let table = |q| NttTable::new(Modulus::new(q).unwrap(), n);
                (table(below), table(above))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    // The dispatched kernel (IFMA where eligible) returns the scalar
    // kernel's exact words, forward and inverse, and round-trips — for
    // every degree 2^1..=2^16, on both sides of the 2^50 eligibility
    // edge, with inputs drawn uniformly or pinned to the extremes 0/q−1.
    #[test]
    fn ntt_kernels_bit_identical_at_the_ifma_edge(seed in any::<u64>(), extremes in any::<bool>()) {
        for (below, above) in ifma_edge_tables() {
            let n = below.n();
            let ifma = host_has_ifma() && n >= 16;
            prop_assert_eq!(below.kernel() == NttKernel::Ifma, ifma);
            prop_assert!(below.modulus().value() < IFMA_MODULUS_LIMIT);
            prop_assert_eq!(above.kernel(), NttKernel::Scalar);
            prop_assert!(above.modulus().value() >= IFMA_MODULUS_LIMIT);
            for t in [below, above] {
                let q = t.modulus().value();
                let mut state = seed;
                let input: Vec<u64> = (0..n)
                    .map(|_| {
                        // SplitMix64 stream
                        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        let mut z = state;
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                        z ^= z >> 31;
                        if extremes { [0, q - 1][(z & 1) as usize] } else { z % q }
                    })
                    .collect();
                let mut fast = input.clone();
                let mut reference = input.clone();
                t.forward(&mut fast);
                t.forward_scalar(&mut reference);
                prop_assert_eq!(&fast, &reference, "forward, q = {}, n = {}", q, n);
                t.inverse(&mut fast);
                t.inverse_scalar(&mut reference);
                prop_assert_eq!(&fast, &reference, "inverse, q = {}, n = {}", q, n);
                prop_assert_eq!(&fast, &input, "round trip, q = {}, n = {}", q, n);
                // the inverse kernels also agree on inputs that no
                // forward transform produced
                let mut fast = input.clone();
                let mut reference = input;
                t.inverse(&mut fast);
                t.inverse_scalar(&mut reference);
                prop_assert_eq!(&fast, &reference, "inverse only, q = {}, n = {}", q, n);
            }
        }
    }
}

fn crt_basis() -> &'static (RnsBasis, CrtContext) {
    static B: OnceLock<(RnsBasis, CrtContext)> = OnceLock::new();
    B.get_or_init(|| {
        let primes = generate_ntt_primes(32, 40, 5);
        let basis = RnsBasis::new(32, &primes);
        let moduli: Vec<Modulus> = (0..3).map(|i| *basis.modulus(i)).collect();
        (basis, CrtContext::new(&moduli))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn biguint_add_mul_match_u128(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let big = BigUint::from_u64(a).mul(&BigUint::from_u64(b)).add(&BigUint::from_u64(c));
        let exact = a as u128 * b as u128 + c as u128;
        prop_assert_eq!(big.rem_u64(u64::MAX), (exact % u64::MAX as u128) as u64);
        if c > 0 {
            prop_assert_eq!(big.rem_u64(c), (exact % c as u128) as u64);
        }
    }

    #[test]
    fn biguint_div_rem_invariant(a in any::<u64>(), b in any::<u64>(), m in 1u64..) {
        let x = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
        let q = x.div_u64(m);
        let r = x.rem_u64(m);
        prop_assert!(r < m);
        prop_assert_eq!(q.mul_u64(m).add(&BigUint::from_u64(r)), x);
    }

    #[test]
    fn crt_reconstruct_roundtrip(a in any::<u64>(), b in 0u64..(1 << 30)) {
        let (_, crt) = crt_basis();
        let x = BigUint::from_u64(a).mul_u64(b.max(1));
        if &x < crt.product() {
            let residues = crt.decompose(&x);
            prop_assert_eq!(crt.reconstruct(&residues), x);
        }
    }

    #[test]
    fn rns_ring_ops_match_crt_oracle(
        a in proptest::collection::vec(-(1i64 << 30)..(1i64 << 30), 32),
        b in proptest::collection::vec(-(1i64 << 30)..(1i64 << 30), 32),
    ) {
        // (a + b) and element-wise products of small signed polys agree
        // with exact big-integer reconstruction on every coefficient
        let (basis, crt) = crt_basis();
        let idx = [0usize, 1, 2];
        let pa = RnsPoly::from_signed_coeffs(basis, &idx, &a);
        let pb = RnsPoly::from_signed_coeffs(basis, &idx, &b);
        let mut sum = pa.clone();
        sum.add_assign(&pb, basis);
        for k in 0..32 {
            let residues: Vec<u64> = (0..3).map(|p| sum.limb(p)[k]).collect();
            let (neg, mag) = crt.reconstruct_signed(&residues);
            let got = if neg { -(mag.to_f64()) } else { mag.to_f64() };
            prop_assert!((got - (a[k] + b[k]) as f64).abs() < 0.5);
        }
    }

    #[test]
    fn bconv_residual_is_small_multiple_of_source_product(
        coeffs in proptest::collection::vec(0u64..(1 << 39), 8),
    ) {
        // fast base conversion: result == exact + e·P (mod q), e < |B|
        let primes = generate_ntt_primes(8, 40, 4);
        let basis = RnsBasis::new(8, &primes);
        let from = [0usize, 1, 2];
        let to = [3usize];
        let conv = BaseConverter::new(&basis, &from, &to);
        let from_moduli: Vec<Modulus> = from.iter().map(|&i| *basis.modulus(i)).collect();
        let crt = CrtContext::new(&from_moduli);
        let rows: Vec<Vec<u64>> = from
            .iter()
            .map(|&i| coeffs.iter().map(|&c| basis.modulus(i).reduce(c)).collect())
            .collect();
        let flat: Vec<u64> = rows.iter().flatten().copied().collect();
        let poly = RnsPoly::from_flat(&basis, &from, Representation::Coefficient, flat);
        let out = conv.convert(&poly, &basis);
        let q = basis.modulus(3);
        let p_mod_q = crt.product().rem_u64(q.value());
        #[allow(clippy::needless_range_loop)]
        for k in 0..8 {
            let residues: Vec<u64> = (0..3).map(|j| rows[j][k]).collect();
            let exact = crt.reconstruct(&residues).rem_u64(q.value());
            let got = out.limb(0)[k];
            let mut candidate = exact;
            let ok = (0..from.len()).any(|_| {
                let hit = candidate == got;
                candidate = q.add(candidate, p_mod_q);
                hit
            });
            prop_assert!(ok, "coefficient {}", k);
        }
    }
}

/// Serial and 4-thread bases over identical primes: every per-limb op
/// must be *bit-identical* across pool widths (the determinism contract
/// of `ark_math::par`).
fn eq_bases() -> &'static (RnsBasis, RnsBasis) {
    static B: OnceLock<(RnsBasis, RnsBasis)> = OnceLock::new();
    B.get_or_init(|| {
        let primes = generate_ntt_primes(64, 40, 5);
        (
            RnsBasis::new(64, &primes),
            RnsBasis::with_pool(64, &primes, ThreadPool::new(4).with_min_dispatch_words(0)),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn poly_ops_bit_identical_serial_vs_parallel(
        a in proptest::collection::vec(-(1i64 << 40)..(1i64 << 40), 64),
        b in proptest::collection::vec(-(1i64 << 40)..(1i64 << 40), 64),
        scalar in 1u64..(1 << 40),
        rot in 1i64..16,
    ) {
        let (serial, parallel) = eq_bases();
        let idx = [0usize, 1, 2, 3, 4];
        let run = |basis: &RnsBasis| {
            let mut pa = RnsPoly::from_signed_coeffs(basis, &idx, &a);
            let pb = RnsPoly::from_signed_coeffs(basis, &idx, &b);
            pa.add_assign(&pb, basis);
            pa.sub_assign(&pb, basis);
            pa.negate(basis);
            pa.mul_scalar(scalar, basis);
            pa.to_eval(basis);
            let mut pc = pb.clone();
            pc.to_eval(basis);
            pa.mul_assign(&pc, basis);
            pa.mul_add_assign(&pc, &pc, basis);
            let g = GaloisElement::from_rotation(rot, 64);
            let rotated = pa.automorphism(g, basis);
            pa = rotated;
            pa.to_coeff(basis);
            pa.automorphism(g, basis)
        };
        prop_assert_eq!(run(serial), run(parallel));
    }

    #[test]
    fn bconv_bit_identical_serial_vs_parallel(
        coeffs in proptest::collection::vec(-(1i64 << 39)..(1i64 << 39), 64),
    ) {
        let (serial, parallel) = eq_bases();
        let from = [0usize, 1, 2];
        let to = [3usize, 4];
        let run = |basis: &RnsBasis| {
            let conv = BaseConverter::new(basis, &from, &to);
            let mut poly = RnsPoly::from_signed_coeffs(basis, &from, &coeffs);
            let direct = conv.convert(&poly, basis);
            poly.to_eval(basis);
            (direct, conv.routine(&poly, basis))
        };
        prop_assert_eq!(run(serial), run(parallel));
    }

    #[test]
    fn four_step_bit_identical_serial_vs_parallel(
        coeffs in proptest::collection::vec(0u64..(1 << 44), 64),
    ) {
        let q = *ntt64().modulus();
        let serial = FourStepNtt::new(q, 64);
        let parallel = FourStepNtt::with_pool(q, 64, ThreadPool::new(4).with_min_dispatch_words(0));
        let reduced: Vec<u64> = coeffs.iter().map(|&c| q.reduce(c)).collect();
        let mut fs = reduced.clone();
        serial.forward(&mut fs);
        let mut fp = reduced;
        parallel.forward(&mut fp);
        prop_assert_eq!(&fs, &fp);
        serial.inverse(&mut fs);
        parallel.inverse(&mut fp);
        prop_assert_eq!(fs, fp);
    }
}
