//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here with its
//! unit. A run prints every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`); per-layer metrics that do not apply
//! to a workload (serving metrics on a local workload, bootstrap time
//! on a workload without bootstrap) read 0.

use crate::span::OP_CLASSES;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ok_rps", "1/s"),
    ("max_abs_err", "abs"),
    ("sim_cycles", "cycles"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics other than the per-op-class engine pair.
const LAYER_FIXED: [(&str, &str); 51] = [
    ("engine.ops_share", "ratio"),
    ("engine.keys.hits", "count"),
    ("engine.keys.misses", "count"),
    ("ckks.modup_us", "us"),
    ("ckks.ks_apply_us", "us"),
    ("ckks.moddown_us", "us"),
    ("ckks.ip_us", "us"),
    ("ckks.keyswitch_us", "us"),
    ("ckks.ks_ratio", "ratio"),
    ("ckks.encode_us", "us"),
    ("ckks.rescale_us", "us"),
    ("math.ntt_us", "us"),
    ("math.intt_us", "us"),
    ("math.bconv_us", "us"),
    ("math.automorph_us", "us"),
    ("math.mac_us", "us"),
    ("math.mults.ntt", "count"),
    ("math.mults.bconv", "count"),
    ("math.mults.evk", "count"),
    ("math.mults.other", "count"),
    ("core.hbm_evk_mb", "MB"),
    ("core.hbm_pt_mb", "MB"),
    ("core.hbm_other_mb", "MB"),
    ("core.mod_mults", "count"),
    ("core.sim_ms", "ms"),
    ("verify.us", "us"),
    ("client.light.req_kb", "KiB"),
    ("client.light.resp_kb", "KiB"),
    ("client.light.encode_us", "us"),
    ("client.light.decode_us", "us"),
    ("client.heavy.req_kb", "KiB"),
    ("client.heavy.resp_kb", "KiB"),
    ("client.heavy.encode_us", "us"),
    ("client.heavy.decode_us", "us"),
    ("client.sheds_absorbed", "count"),
    ("client.sheds_surfaced", "count"),
    ("serve.light.exec_ms", "ms"),
    ("serve.light.overhead_ms", "ms"),
    ("serve.heavy.exec_ms", "ms"),
    ("serve.heavy.overhead_ms", "ms"),
    ("serve.rtt_us", "us"),
    ("serve.jobs_shed", "count"),
    ("serve.sessions_shed", "count"),
    ("serve.jobs_stolen", "count"),
    ("serve.queue_hwm", "count"),
    ("serve.late_ms", "ms"),
    ("light.p50_ms", "ms"),
    ("light.tail_ms", "ms"),
    ("failed_frac", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.units", "count"),
];

/// Every per-layer metric, `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::with_capacity(2 * OP_CLASSES.len() + LAYER_FIXED.len());
    for class in OP_CLASSES {
        out.push((format!("engine.{class}.calls"), "count"));
        out.push((format!("engine.{class}.ms"), "ms"));
    }
    out.extend(LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// True if `name` fits the metric-name charset: a letter or digit,
/// then at most 63 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b'-')
}

/// True if `unit` fits the unit charset: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c))
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units attempted (warm-up units included).
    pub attempted: u64,
    /// Units that errored, were refused, or missed their reference.
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    /// Measured metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Extra facts for the detail line: key → JSON value text.
    pub detail: BTreeMap<String, String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records a detail fact (`value` is JSON text).
    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.detail.insert(key.to_string(), value.into());
    }

    /// Marks the run incorrect.
    pub fn problem(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("benchmark: FAIL {why}");
        self.problems.push(why);
    }

    /// The detail line: every note as one JSON object.
    pub fn detail_line(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.detail.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(s, "{comma}\"{}\":{v}", escape(k));
        }
        s.push('}');
        s
    }

    /// The result line for `--trace` `traced`: every registered metric
    /// of that kind, by name and unit. A missing end-to-end metric is
    /// an error; a missing per-layer metric does not apply and reads 0.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let names: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut m = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!(
                    "metric {name:?} or unit {unit:?} outside the charset"
                ));
            }
            let v = match self.metrics.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            let comma = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{comma}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// Minimal JSON string escaping.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON string literal.
pub fn quoted(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_fit_the_charset() {
        let all = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer());
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in all {
            assert!(valid_name(&name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
            assert!(seen.insert(name.clone()), "metric {name} registered twice");
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn charset_rejects_malformed_names_and_units() {
        assert!(valid_name("engine.rotate_sum.ms"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("p50 ms"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    /// The registry and `BENCHMARK.json` name the same metrics in the
    /// same order with the same units.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("per_layer"), layers);
    }

    #[test]
    fn result_line_lists_every_metric_and_fills_layers_with_zero() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = o.result_line(true).unwrap();
        assert!(traced.contains("\"engine.bootstrap.ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        o.metrics.remove("p50_ms");
        assert!(o.result_line(false).is_err());
        o.set("p50_ms", f64::NAN);
        assert!(o.result_line(false).is_err());
        o.set("p50_ms", 2.0);
        o.failed = 1;
        assert!(o.result_line(false).unwrap().contains("\"correct\": false"));
    }
}
