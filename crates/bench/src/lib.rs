//! # ark-bench — regenerates every table and figure of the ARK paper.
//!
//! Each `src/bin/` target prints one experiment's rows; the
//! `scaling`/`key_bytes`/`hoisting`/`core_ops` targets are the
//! functional library's regression benches. The simulated-accelerator
//! results come from `ark-core`; comparisons
//! against Lattigo/100x/F1/CraterLake/BTS use the numbers those systems
//! reported (exactly as the paper does — they are inputs, not outputs,
//! of the evaluation).

use ark_ckks::minks::KeyStrategy;
use ark_ckks::params::CkksParams;
use ark_core::{run, ArkConfig, CompileOptions, SimReport};
use ark_workloads::bootstrap::{bootstrap_trace, BootstrapTraceConfig};
use ark_workloads::helr::{helr_trace, HelrConfig};
use ark_workloads::resnet::{resnet_trace, ResNetConfig};
use ark_workloads::sorting::SortingConfig;
use ark_workloads::trace::{HeOp, Trace};

/// Reported results of prior systems (their papers' numbers, as used in
/// Tables V–VII of ARK).
pub mod reported {
    /// Amortized mult time per slot, µs (Table V).
    pub const TAS_LATTIGO_US: f64 = 88.0;
    /// 100x GPU implementation.
    pub const TAS_100X_US: f64 = 8.0;
    /// F1 (single-slot bootstrapping).
    pub const TAS_F1_US: f64 = 260.0;
    /// F1+ (area/tech-scaled F1).
    pub const TAS_F1P_US: f64 = 34.0;
    /// ARK's own reported value, ns (Table VII).
    pub const TAS_ARK_NS: f64 = 14.3;

    /// HELR ms per 30-iteration run (Table V).
    pub const HELR_LATTIGO_MS: f64 = 23_293.0;
    /// 100x.
    pub const HELR_100X_MS: f64 = 775.0;
    /// F1 (estimated by the ARK authors).
    pub const HELR_F1_MS: f64 = 1_024.0;
    /// F1+.
    pub const HELR_F1P_MS: f64 = 132.0;
    /// ARK reported.
    pub const HELR_ARK_MS: f64 = 7.421;

    /// ResNet-20 seconds (Table VI).
    pub const RESNET_CPU_S: f64 = 2_271.0;
    /// ARK reported.
    pub const RESNET_ARK_S: f64 = 0.125;
    /// Sorting seconds (Table VI).
    pub const SORTING_CPU_S: f64 = 23_066.0;
    /// ARK reported.
    pub const SORTING_ARK_S: f64 = 1.99;

    /// CraterLake (Table VII).
    pub const TAS_CRATERLAKE_NS: f64 = 17.6;
    /// CraterLake HELR.
    pub const HELR_CRATERLAKE_MS: f64 = 15.2;
    /// CraterLake ResNet-20.
    pub const RESNET_CRATERLAKE_S: f64 = 0.321;
    /// BTS (Table VII).
    pub const TAS_BTS_NS: f64 = 45.4;
    /// BTS HELR.
    pub const HELR_BTS_MS: f64 = 28.4;
    /// BTS ResNet-20.
    pub const RESNET_BTS_S: f64 = 1.91;
    /// BTS sorting.
    pub const SORTING_BTS_S: f64 = 15.6;
}

/// An algorithm configuration of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoVariant {
    /// No Min-KS, no OF-Limb, scratchpad halved.
    BaselineHalfSram,
    /// No Min-KS, no OF-Limb.
    Baseline,
    /// Min-KS only.
    MinKs,
    /// Min-KS + OF-Limb (shipping ARK).
    MinKsOfLimb,
}

impl AlgoVariant {
    /// All four, in Fig. 7 order.
    pub fn all() -> [AlgoVariant; 4] {
        [
            AlgoVariant::BaselineHalfSram,
            AlgoVariant::Baseline,
            AlgoVariant::MinKs,
            AlgoVariant::MinKsOfLimb,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            AlgoVariant::BaselineHalfSram => "Baseline (1/2 SRAM)",
            AlgoVariant::Baseline => "Baseline",
            AlgoVariant::MinKs => "Min-KS",
            AlgoVariant::MinKsOfLimb => "Min-KS + OF-Limb",
        }
    }

    /// The trace key strategy this variant uses.
    pub fn strategy(&self) -> KeyStrategy {
        match self {
            AlgoVariant::BaselineHalfSram | AlgoVariant::Baseline => KeyStrategy::Baseline,
            _ => KeyStrategy::MinKs,
        }
    }

    /// Compile options.
    pub fn options(&self) -> CompileOptions {
        CompileOptions {
            of_limb: matches!(self, AlgoVariant::MinKsOfLimb),
        }
    }

    /// Hardware configuration.
    pub fn config(&self) -> ArkConfig {
        match self {
            AlgoVariant::BaselineHalfSram => ArkConfig::half_sram(),
            _ => ArkConfig::base(),
        }
    }
}

/// The four evaluation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One full-slot bootstrapping.
    Bootstrapping,
    /// 30 HELR training iterations.
    Helr,
    /// ResNet-20 inference.
    ResNet,
    /// 2^14-element sorting.
    Sorting,
}

impl Workload {
    /// All four, in the paper's order.
    pub fn all() -> [Workload; 4] {
        [
            Workload::Bootstrapping,
            Workload::Helr,
            Workload::ResNet,
            Workload::Sorting,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Bootstrapping => "Bootstrapping",
            Workload::Helr => "HELR",
            Workload::ResNet => "ResNet-20",
            Workload::Sorting => "Sorting",
        }
    }
}

/// Builds a workload's trace under a key strategy. Sorting is built
/// compositionally (one compare-exchange stage, scaled by the stage
/// count) to keep graph sizes tractable; the stage structure is exactly
/// periodic so this is exact for the bandwidth model.
pub fn workload_trace(w: Workload, params: &CkksParams, strategy: KeyStrategy) -> (Trace, f64) {
    match w {
        Workload::Bootstrapping => (
            bootstrap_trace(params, &BootstrapTraceConfig::full(params, strategy)),
            1.0,
        ),
        Workload::Helr => (helr_trace(params, &HelrConfig::paper(strategy)), 1.0),
        Workload::ResNet => (resnet_trace(params, &ResNetConfig::paper(strategy)), 1.0),
        Workload::Sorting => {
            // one phase worth of stages (compare + boots), scaled
            let cfg = SortingConfig {
                elements_log2: 1,
                ..SortingConfig::paper(strategy)
            };
            let t = ark_workloads::sorting::sorting_trace(params, &cfg);
            let full = SortingConfig::paper(strategy);
            (t, full.stages() as f64 / cfg.stages() as f64)
        }
    }
}

/// Simulates a workload under an algorithm variant; returns
/// `(seconds, report)` with the sorting scale factor applied to time.
pub fn simulate_workload(w: Workload, variant: AlgoVariant) -> (f64, SimReport) {
    let params = CkksParams::ark();
    let (trace, scale) = workload_trace(w, &params, variant.strategy());
    let report = run(&trace, &params, &variant.config(), variant.options());
    (report.seconds * scale, report)
}

/// Simulates a workload on an arbitrary hardware config with full
/// algorithms on.
pub fn simulate_on(w: Workload, cfg: &ArkConfig) -> (f64, SimReport) {
    let params = CkksParams::ark();
    let (trace, scale) = workload_trace(w, &params, KeyStrategy::MinKs);
    let report = run(&trace, &params, cfg, CompileOptions::all_on());
    (report.seconds * scale, report)
}

/// `T_mult(ℓ)`: simulated seconds of one HMult + HRescale at level `ℓ`.
pub fn t_mult(params: &CkksParams, level: usize, cfg: &ArkConfig) -> f64 {
    let mut t = Trace::new("hmult");
    t.push(HeOp::HMult { level });
    t.push(HeOp::HRescale { level });
    run(&t, params, cfg, CompileOptions::all_on()).seconds
}

/// Eq. 13: amortized mult time per slot.
pub fn t_amortized_per_slot(cfg: &ArkConfig) -> f64 {
    let params = CkksParams::ark();
    let boot_s = {
        let t = bootstrap_trace(
            &params,
            &BootstrapTraceConfig::full(&params, KeyStrategy::MinKs),
        );
        run(&t, &params, cfg, CompileOptions::all_on()).seconds
    };
    let usable = params.max_level - params.boot_levels;
    let mults: f64 = (1..=usable).map(|l| t_mult(&params, l, cfg)).sum();
    (boot_s + mults) / usable as f64 / params.slots() as f64
}

/// Escapes a string for embedding in a hand-written JSON literal —
/// shared by every `BENCH_*.json`-emitting bin so the artifacts stay
/// consistent with the `scripts/check_bench.sh` contract.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Times `reps` runs of `f` after one warmup, returning
/// `(mean_us, min_us, last_output)`. Shared by the `BENCH_*.json`
/// regression bins so the timing methodology (warmup discipline,
/// mean/min definitions) stays uniform across artifacts, and so
/// callers can assert on the last output without paying for an extra
/// evaluation.
pub fn time_reps<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, f64, R) {
    let mut last = f(); // warmup
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        last = f();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        total += us;
        min = min.min(us);
    }
    (total / reps as f64, min, last)
}

/// Formats seconds with an adaptive unit.
pub fn fmt_time(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} s", s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_wiring() {
        assert_eq!(AlgoVariant::Baseline.strategy(), KeyStrategy::Baseline);
        assert!(AlgoVariant::MinKsOfLimb.options().of_limb);
        assert!(!AlgoVariant::MinKs.options().of_limb);
        assert_eq!(AlgoVariant::BaselineHalfSram.config().scratchpad_mib, 256);
    }

    #[test]
    fn tas_in_paper_order_of_magnitude() {
        // paper: 14.3 ns; accept the same order of magnitude
        let tas = t_amortized_per_slot(&ArkConfig::base());
        let ns = tas * 1e9;
        assert!((3.0..80.0).contains(&ns), "T_A.S. = {ns:.1} ns");
    }

    #[test]
    fn fig7_order_holds_for_bootstrapping() {
        // half-SRAM baseline ≥ baseline ≥ Min-KS ≥ Min-KS+OF-Limb
        let times: Vec<f64> = AlgoVariant::all()
            .iter()
            .map(|&v| simulate_workload(Workload::Bootstrapping, v).0)
            .collect();
        assert!(times[0] >= times[1] * 0.99, "½-SRAM slower: {times:?}");
        assert!(times[1] > times[2], "Min-KS wins: {times:?}");
        assert!(times[2] > times[3], "OF-Limb adds: {times:?}");
        // aggregate speedup in the paper's 2.36x ballpark
        let speedup = times[1] / times[3];
        assert!((1.3..4.5).contains(&speedup), "boot speedup {speedup:.2}");
    }
}
