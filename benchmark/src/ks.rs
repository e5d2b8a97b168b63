//! `ks-n15`: a fixed op mix at N=2^15, L=11, dnum=3 with declared
//! rotation keys and no bootstrap — `mul_rescale` → `rotate` → 7-term
//! hoisted `rotate_sum` → `rescale` → `mul_plain_rescale`.

use crate::local::{Case, LocalSpec};
use crate::stats::mix;
use crate::KEY_SEED;
use ark_ckks::params::CkksParams;
use ark_fhe::arch::ArkConfig;
use ark_fhe::engine::{Backend, Engine, ProgramInput, RotateSumTerm};
use ark_math::cfft::C64;
use ark_serve::Program;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Hoisted rotation amounts of the `rotate_sum`.
const HOISTED: [i64; 7] = [1, 2, 3, 4, 5, 6, 7];
/// The single rotation before it.
const ROT: i64 = 1;
/// Level the inputs enter at (the top of the chain).
const LEVEL: usize = 11;
/// Input sets the closed loop cycles through.
const CASES: u64 = 6;
/// Output tolerance: arithmetic noise only, at a 2^45 scale.
const TOLERANCE: f64 = 1e-6;

/// The parameter set: N=2^15, L=11, dnum=3 (α=4).
pub fn params() -> CkksParams {
    CkksParams {
        log_n: 15,
        max_level: LEVEL,
        dnum: 3,
        q0_bits: 55,
        scale_bits: 45,
        special_bits: 55,
        secret_hamming_weight: 64,
        boot_levels: 0,
        name: "ks-n15",
    }
}

fn rotations() -> Vec<i64> {
    let mut r = HOISTED.to_vec();
    r.push(ROT);
    r.sort_unstable();
    r.dedup();
    r
}

fn random_slots(rng: &mut StdRng, slots: usize, amp: f64) -> Vec<C64> {
    (0..slots)
        .map(|_| C64::new(rng.gen_range(-amp..amp), rng.gen_range(-amp..amp)))
        .collect()
}

/// Circular left shift by `r` slots (the engine's rotation direction).
fn rot(v: &[C64], r: i64) -> Vec<C64> {
    let n = v.len();
    let r = r.rem_euclid(n as i64) as usize;
    (0..n).map(|i| v[(i + r) % n]).collect()
}

fn mul(a: &[C64], b: &[C64]) -> Vec<C64> {
    a.iter().zip(b).map(|(&x, &y)| x * y).collect()
}

fn case(seed: u64, slots: usize) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = random_slots(&mut rng, slots, 0.7);
    let y = random_slots(&mut rng, slots, 0.7);
    let weights: Vec<Vec<C64>> = HOISTED
        .iter()
        .map(|_| random_slots(&mut rng, slots, 0.25))
        .collect();
    let plain = random_slots(&mut rng, slots, 0.5);

    let mut p = Program::new(2);
    let (rx, ry) = (p.reg(0), p.reg(1));
    let m = p.mul_rescale(rx, ry);
    let r = p.rotate(m, ROT);
    let terms: Vec<RotateSumTerm> = HOISTED
        .iter()
        .zip(&weights)
        .map(|(&a, w)| RotateSumTerm::new(a, w.clone()))
        .collect();
    let s = p.rotate_sum(r, terms);
    let s = p.rescale(s);
    let o = p.mul_plain_rescale(s, plain.clone());
    p.output(o);

    let r_ref = rot(&mul(&x, &y), ROT);
    let mut s_ref = vec![C64::zero(); slots];
    for (&a, w) in HOISTED.iter().zip(&weights) {
        for (acc, t) in s_ref.iter_mut().zip(mul(w, &rot(&r_ref, a))) {
            *acc = *acc + t;
        }
    }
    Case {
        inputs: vec![ProgramInput::new(x, LEVEL), ProgramInput::new(y, LEVEL)],
        program: p,
        reference: vec![mul(&s_ref, &plain)],
        tolerances: vec![TOLERANCE],
        checked: slots,
    }
}

fn engine(seed: u64, backend: Backend) -> ark_fhe::ArkResult<Engine> {
    Engine::builder()
        .params(params())
        .backend(backend)
        .seed(seed)
        .rotations(&rotations())
        .build()
}

/// The workload for `seed`.
pub fn spec(seed: u64) -> LocalSpec {
    let slots = params().slots();
    LocalSpec {
        name: "ks-n15",
        software: Box::new(move || engine(KEY_SEED, Backend::Software)),
        simulated: Box::new(move || engine(KEY_SEED, Backend::Simulated(ArkConfig::base()))),
        cases: (0..CASES).map(|k| case(mix(seed, k), slots)).collect(),
    }
}
