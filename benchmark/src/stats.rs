//! Order statistics shared by every workload: medians, the tail rule,
//! and the seed mixer that derives per-workload input streams.

/// Percentiles the tail rule may report, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for even lengths);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// A tail latency: the value at `pct`, with the sample count and how
/// many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported (from [`TAIL_LADDER`]).
    pub pct: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank. With fewer than
/// 20 samples no ladder percentile qualifies and the median is
/// returned, with its (short) `beyond` count saying so.
pub fn tail(xs: &[f64]) -> Tail {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return Tail {
            pct: 50.0,
            value: 0.0,
            beyond: 0,
            n: 0,
        };
    }
    let at = |pct: f64| {
        // the epsilon keeps inexact percentiles (99.9) from rounding up
        let rank = ((pct * n as f64) / 100.0 - 1e-9).ceil().max(1.0) as usize;
        let rank = rank.min(n);
        Tail {
            pct,
            value: s[rank - 1],
            beyond: n - rank,
            n,
        }
    };
    TAIL_LADDER
        .iter()
        .map(|&p| at(p))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .unwrap_or_else(|| at(50.0))
}

/// SplitMix64 finalizer: derives independent per-purpose seeds from
/// the benchmark seed.
pub fn mix(seed: u64, tweak: u64) -> u64 {
    let mut z = seed ^ tweak.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Process high-water resident set in MiB (`VmHWM`), or `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        // 1..=n: nearest rank of p is ceil(p·n/100)
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1
        let t = tail(&xs(1000));
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));
        // 999 samples: p99 rank 990 leaves 9, so p95 is the tail
        let t = tail(&xs(999));
        assert_eq!((t.pct, t.beyond), (95.0, 49));
        // 100 samples: p90 leaves exactly 10
        let t = tail(&xs(100));
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 20 samples: only the median leaves 10
        let t = tail(&xs(20));
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
        // 19 samples: nothing qualifies; the median says so itself
        let t = tail(&xs(19));
        assert_eq!((t.pct, t.beyond), (50.0, 9));
        assert!(t.beyond < TAIL_MIN_BEYOND);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let a = tail(&xs);
        xs.reverse();
        assert_eq!(a, tail(&xs));
        assert_eq!((a.pct, a.beyond), (95.0, 10));
    }

    #[test]
    fn mix_separates_tweaks() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
