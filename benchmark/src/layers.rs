//! Per-layer probes below the HE-op level, timed from outside through
//! each crate's public functions: key-switch phases (`ckks`), kernels
//! (`math`), the cycle model (`core`) and the static verifier.

use crate::report::Outcome;
use crate::stats::median;
use ark_ckks::keys::EvalKey;
use ark_ckks::params::CkksContext;
use ark_ckks::Ciphertext;
use ark_fhe::arch::sched::SimReport;
use ark_fhe::verify::{AbstractInput, VerifyContext};
use ark_fhe::workloads::counts::{
    hmult_breakdown, hrot_breakdown, hrot_hoisted_breakdown, pmult_breakdown, rescale_breakdown,
    MultBreakdown,
};
use ark_fhe::workloads::trace::{HeOp, Trace};
use ark_math::automorphism::{apply_eval_into, GaloisElement};
use ark_math::cfft::C64;
use ark_math::poly::{Representation, RnsPoly};
use ark_serve::Program;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn micros(f: &mut dyn FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// Times each probe in interleaved rounds until `budget` is spent (at
/// least three rounds), returning the per-probe median in µs.
/// Interleaving keeps slow drift (frequency, neighbours) from landing
/// on one probe only.
pub fn interleaved(budget: Duration, probes: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); probes.len()];
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || (start.elapsed() < budget && rounds < 10_000) {
        for (p, s) in probes.iter_mut().zip(samples.iter_mut()) {
            s.push(micros(*p));
        }
        rounds += 1;
    }
    samples.iter().map(|s| median(s)).collect()
}

/// Key-switch phase and kernel timings at `ct`'s level in `ctx`,
/// plus the attribution check `keyswitch ≈ modup + ks_apply`.
pub fn probe_ckks_math(
    out: &mut Outcome,
    ctx: &CkksContext,
    evk: &EvalKey,
    ct: &Ciphertext,
    budget: Duration,
) {
    let level = ct.level;
    let basis = ctx.basis();
    let slots = ctx.params().slots();
    let x = &ct.a;
    let ext = ctx.extended_indices(level).to_vec();
    let y = RnsPoly::from_seed(basis, &ext, Representation::Evaluation, 0x6b73);
    let digits = ctx.hoisted_decompose(x, level);
    let values: Vec<C64> = (0..slots)
        .map(|i| {
            C64::new(
                ((i % 17) as f64 - 8.0) / 16.0,
                ((i % 13) as f64 - 6.0) / 16.0,
            )
        })
        .collect();
    let ks = budget.mul_f64(0.6);
    let [modup, apply, moddown, keyswitch, encode, rescale] = {
        let mut p_modup = || drop(black_box(ctx.hoisted_decompose(x, level)));
        let mut p_apply = || {
            drop(black_box(ctx.hoisted_apply(
                &digits,
                GaloisElement::identity(),
                evk,
            )))
        };
        let mut p_moddown = || drop(black_box(ctx.mod_down(&y, level)));
        let mut p_ks = || drop(black_box(ctx.key_switch(x, evk, level)));
        let mut p_encode = || drop(black_box(ctx.encode_for_mul(&values, level)));
        let mut p_rescale = || drop(black_box(ctx.rescale(ct)));
        let v = interleaved(
            ks,
            &mut [
                &mut p_modup,
                &mut p_apply,
                &mut p_moddown,
                &mut p_ks,
                &mut p_encode,
                &mut p_rescale,
            ],
        );
        [v[0], v[1], v[2], v[3], v[4], v[5]]
    };
    out.set("ckks.modup_us", modup);
    out.set("ckks.ks_apply_us", apply);
    out.set("ckks.moddown_us", moddown);
    // the apply phase is the evk inner product plus two ModDowns
    out.set("ckks.ip_us", apply - 2.0 * moddown);
    out.set("ckks.keyswitch_us", keyswitch);
    out.set("ckks.encode_us", encode);
    out.set("ckks.rescale_us", rescale);
    let ratio = keyswitch / (modup + apply);
    out.set("ckks.ks_ratio", ratio);
    out.note("check.keyswitch_attribution", format!("{ratio}"));
    if (ratio - 1.0).abs() > 0.10 {
        out.problem(format!(
            "key-switch attribution: keyswitch {keyswitch:.1} us vs modup {modup:.1} + \
             ks_apply {apply:.1} us (ratio {ratio:.3}, allowed 0.90..1.10)"
        ));
    }

    // kernels: one limb for (I)NTT and the automorphism, the whole
    // chain polynomial for the multiply-accumulate
    let idx = ctx.chain_indices(level)[0];
    let table = basis.table(idx);
    let n = ctx.params().n();
    let mut limb = x.limb(0).to_vec();
    let mut limb2 = x.limb(0).to_vec();
    let mut dst = vec![0u64; n];
    let perm = ctx.eval_perm(GaloisElement::from_rotation(1, n));
    let group = ctx.decomposition_groups(level)[0].clone();
    let piece = x.subset(&group);
    let conv = ctx.modup_converter(level, 0);
    let mut acc = RnsPoly::zero(basis, ctx.chain_indices(level), Representation::Evaluation);
    let mut p_ntt = || table.forward(black_box(&mut limb));
    let mut p_intt = || table.inverse(black_box(&mut limb2));
    let mut p_bconv = || drop(black_box(conv.routine(&piece, basis)));
    let mut p_auto = || apply_eval_into(x.limb(0), &perm, black_box(&mut dst));
    let mut p_mac = || acc.mul_add_assign(x, &ct.b, basis);
    let v = interleaved(
        budget.mul_f64(0.4),
        &mut [
            &mut p_ntt,
            &mut p_intt,
            &mut p_bconv,
            &mut p_auto,
            &mut p_mac,
        ],
    );
    for (name, val) in ["ntt", "intt", "bconv", "automorph", "mac"].iter().zip(v) {
        out.set(format!("math.{name}_us"), val);
    }
}

/// Computed modular multiplications of one recorded trace, by the
/// paper's four categories: the closed forms of
/// `ark_workloads::counts`. Ops without a closed form there (additions,
/// constants, ModRaise) count 0.
pub fn trace_mults(trace: &Trace, params: &ark_ckks::params::CkksParams) -> MultBreakdown {
    trace
        .ops()
        .iter()
        .fold(MultBreakdown::default(), |acc, op| {
            let b = match *op {
                HeOp::HMult { level } => hmult_breakdown(params, level),
                HeOp::HRot { level, .. } | HeOp::HConj { level } => hrot_breakdown(params, level),
                HeOp::HRotHoisted {
                    level,
                    fresh_digits,
                    ..
                } => hrot_hoisted_breakdown(params, level, fresh_digits),
                HeOp::PMult { level, .. } => pmult_breakdown(params, level, false),
                HeOp::HRescale { level } => rescale_breakdown(params, level),
                _ => MultBreakdown::default(),
            };
            acc.add(&b)
        })
}

/// Records the computed mult counts of one unit's trace.
pub fn record_mults(out: &mut Outcome, m: &MultBreakdown) {
    out.set("math.mults.ntt", m.ntt as f64);
    out.set("math.mults.bconv", m.bconv as f64);
    out.set("math.mults.evk", m.evk_mult as f64);
    out.set("math.mults.other", m.other as f64);
    out.note("math.mults.source", crate::report::quoted("computed"));
}

/// Records the cycle model's traffic and mult counts for one unit.
pub fn record_sim(out: &mut Outcome, report: &SimReport, sim_ms: f64) {
    let mb = |words: u64| words as f64 * 8.0 / 1e6;
    out.set("core.hbm_evk_mb", mb(report.hbm_evk_words));
    out.set("core.hbm_pt_mb", mb(report.hbm_plaintext_words));
    out.set("core.hbm_other_mb", mb(report.hbm_other_words));
    out.set("core.mod_mults", report.mod_mults as f64);
    out.set("core.sim_ms", sim_ms);
}

/// Median static-verification time of `program` in µs, failing the
/// run if the verifier rejects it.
pub fn probe_verify(out: &mut Outcome, vctx: &VerifyContext, levels: &[usize], program: &Program) {
    let specs: Vec<AbstractInput> = levels.iter().map(|&l| AbstractInput::at_level(l)).collect();
    let mut rejected = None;
    let mut p = || {
        let r = vctx.verify(&specs, program);
        if let Some(f) = r.finding {
            rejected = Some(format!("{:?}", f.error));
        }
    };
    let v = interleaved(Duration::from_millis(200), &mut [&mut p]);
    out.set("verify.us", v[0]);
    if let Some(why) = rejected {
        out.problem(format!(
            "the static verifier rejects the unit program: {why}"
        ));
    }
}

/// The modelled breakdown printed beside the measured one: per op
/// class, measured share of unit time next to the cycle model's
/// traffic and the computed mult shares (paper Fig. 4 categories).
pub fn modelled_beside_measured(
    workload: &str,
    measured: &[(&str, f64)],
    mults: &MultBreakdown,
    report: &SimReport,
) -> String {
    let total: f64 = measured.iter().map(|(_, ms)| ms).sum();
    let mut s = format!("{workload}: measured op-class share of unit time (CPU)\n");
    for (class, ms) in measured {
        if *ms > 0.0 {
            s.push_str(&format!(
                "  {class:<10} {ms:>10.3} ms  {:>5.1}%\n",
                100.0 * ms / total.max(1e-12)
            ));
        }
    }
    let (ntt, bconv, evk, other) = if mults.total() > 0 {
        mults.percentages()
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    s.push_str(&format!(
        "{workload}: modelled (ARK cycle model, one unit)\n  cycles {}  mod_mults {}\n  \
         HBM evk {:.2} MB  plaintext {:.2} MB  other {:.2} MB\n  \
         computed mults: NTT {ntt:.1}%  BConv {bconv:.1}%  evk {evk:.1}%  other {other:.1}%\n",
        report.cycles,
        report.mod_mults,
        report.hbm_evk_words as f64 * 8e-6,
        report.hbm_plaintext_words as f64 * 8e-6,
        report.hbm_other_words as f64 * 8e-6,
    ));
    s
}
