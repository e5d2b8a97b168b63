//! In-memory span recording and the self-time roll-up.
//!
//! A [`Recorder`] keeps every span (name, start, end, parent, unit) in
//! memory; nothing is written until the run ends. [`Traced`] wraps any
//! engine [`HeEvaluator`] so each op a program issues becomes one span
//! under the open unit span — `Program::apply` is generic over the
//! evaluator, so no library code changes to be traced.

use ark_ckks::params::CkksParams;
use ark_fhe::engine::{HeEvaluator, RotateSumTerm};
use ark_fhe::workloads::trace::Trace;
use ark_fhe::ArkResult;
use ark_math::cfft::C64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Op classes a traced unit is split into, in report order.
pub const OP_CLASSES: [&str; 13] = [
    "bootstrap",
    "rotate_sum",
    "rotate",
    "mul",
    "square",
    "rescale",
    "mul_plain",
    "add_plain",
    "const",
    "add",
    "mod_drop",
    "encrypt",
    "decrypt",
];

/// Name of the span that encloses one unit of work.
pub const UNIT: &str = "unit";

/// One recorded span; times are microseconds since the recorder's
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`unit`, or an op class).
    pub name: &'static str,
    /// Start time, µs.
    pub start_us: f64,
    /// End time, µs (equal to start while open).
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Unit the span belongs to (shared by every span of one unit).
    pub unit: u32,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Calls and summed self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Σ (duration − time covered by child spans), µs.
    pub self_us: f64,
}

/// Span store with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let t = self.now_us();
        self.begin_at(name, t)
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let t = self.now_us();
        self.end_at(t);
    }

    /// [`Self::begin`] at an explicit time (tests and replays).
    pub fn begin_at(&mut self, name: &'static str, t_us: f64) -> usize {
        if name == UNIT && self.open.is_empty() {
            self.unit += 1;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: t_us,
            end_us: t_us,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(id);
        id
    }

    /// [`Self::end`] at an explicit time.
    pub fn end_at(&mut self, t_us: f64) {
        let id = self.open.pop().expect("end without an open span");
        self.spans[id].end_us = t_us;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its direct children cover (children of one parent never
    /// overlap — the recorder is single-threaded).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_us) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_us += s.dur_us() - c;
        }
        out
    }

    /// Σ durations of the direct children of unit spans ÷ Σ unit
    /// durations: the share of unit time the recorded ops account for.
    pub fn ops_share(&self) -> f64 {
        let unit_us: f64 = self
            .spans
            .iter()
            .filter(|s| s.name == UNIT)
            .map(Span::dur_us)
            .sum();
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == UNIT))
            .map(Span::dur_us)
            .sum();
        if unit_us > 0.0 {
            covered / unit_us
        } else {
            0.0
        }
    }

    /// The spans as JSON lines (`name`, `start_us`, `end_us`,
    /// `parent`, `unit`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"unit\":{}}}",
                s.name, s.start_us, s.end_us, parent, s.unit
            );
        }
        out
    }
}

/// An [`HeEvaluator`] that records one span per op into a [`Recorder`]
/// and otherwise delegates to the engine's evaluator. `mul_rescale` and
/// `mul_plain_rescale` keep their default bodies, so they show up as
/// their `mul`/`mul_plain` and `rescale` parts.
pub struct Traced<'r, E> {
    /// The engine evaluator doing the work.
    pub inner: E,
    rec: &'r mut Recorder,
}

impl<'r, E: HeEvaluator> Traced<'r, E> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: E, rec: &'r mut Recorder) -> Self {
        Self { inner, rec }
    }

    fn op<T>(&mut self, class: &'static str, f: impl FnOnce(&mut E) -> T) -> T {
        self.rec.begin(class);
        let out = f(&mut self.inner);
        self.rec.end();
        out
    }
}

impl<E: HeEvaluator> HeEvaluator for Traced<'_, E> {
    type Ct = E::Ct;

    fn params(&self) -> &CkksParams {
        self.inner.params()
    }

    fn trace(&self) -> &Trace {
        self.inner.trace()
    }

    fn input(&mut self, values: &[C64], level: usize) -> ArkResult<Self::Ct> {
        self.op("encrypt", |e| e.input(values, level))
    }

    fn level(&self, ct: &Self::Ct) -> usize {
        self.inner.level(ct)
    }

    fn scale(&self, ct: &Self::Ct) -> f64 {
        self.inner.scale(ct)
    }

    fn add(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        self.op("add", |e| e.add(a, b))
    }

    fn sub(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        self.op("add", |e| e.sub(a, b))
    }

    fn negate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.op("add", |e| e.negate(ct))
    }

    fn add_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct> {
        self.op("const", |e| e.add_const(ct, c))
    }

    fn mul_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct> {
        self.op("const", |e| e.mul_const(ct, c))
    }

    fn add_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        self.op("add_plain", |e| e.add_plain(ct, values))
    }

    fn mul_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        self.op("mul_plain", |e| e.mul_plain(ct, values))
    }

    fn mul(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        self.op("mul", |e| e.mul(a, b))
    }

    fn square(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.op("square", |e| e.square(ct))
    }

    fn rotate(&mut self, ct: &Self::Ct, amount: i64) -> ArkResult<Self::Ct> {
        self.op("rotate", |e| e.rotate(ct, amount))
    }

    fn rotate_sum(&mut self, ct: &Self::Ct, terms: &[RotateSumTerm]) -> ArkResult<Self::Ct> {
        self.op("rotate_sum", |e| e.rotate_sum(ct, terms))
    }

    fn conjugate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        // a conjugation is a Galois key-switch like a rotation
        self.op("rotate", |e| e.conjugate(ct))
    }

    fn rescale(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.op("rescale", |e| e.rescale(ct))
    }

    fn mod_drop_to(&mut self, ct: &Self::Ct, level: usize) -> ArkResult<Self::Ct> {
        self.op("mod_drop", |e| e.mod_drop_to(ct, level))
    }

    fn bootstrap(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.op("bootstrap", |e| e.bootstrap(ct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::new();
        r.begin_at(UNIT, 0.0);
        r.begin_at("rotate_sum", 10.0);
        r.begin_at("inner", 12.0); // grandchild of the unit
        r.end_at(18.0);
        r.end_at(40.0);
        r.begin_at("rescale", 40.0);
        r.end_at(45.0);
        r.end_at(50.0);
        let st = r.self_times();
        assert_eq!(
            st[UNIT],
            SelfTime {
                calls: 1,
                self_us: 15.0
            }
        );
        assert_eq!(st["rotate_sum"].self_us, 24.0);
        assert_eq!(st["inner"].self_us, 6.0);
        assert_eq!(st["rescale"].self_us, 5.0);
        // self times partition the unit span exactly
        let total: f64 = st.values().map(|s| s.self_us).sum();
        assert_eq!(total, 50.0);
        // direct children cover 35 of the unit's 50 µs
        assert!((r.ops_share() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn spans_of_one_unit_share_its_id() {
        let mut r = Recorder::new();
        for _ in 0..2 {
            r.begin_at(UNIT, 0.0);
            r.begin_at("encrypt", 0.0);
            r.end_at(1.0);
            r.end_at(2.0);
        }
        let units: Vec<u32> = r.spans().iter().map(|s| s.unit).collect();
        assert_eq!(units, vec![1, 1, 2, 2]);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.to_jsonl().lines().count(), 4);
    }
}
