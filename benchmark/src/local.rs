//! The closed-loop harness behind the two local workloads (`helr-boot`
//! and `ks-n15`): one caller, one engine, each unit being encrypt →
//! evaluate → decrypt, checked against an f64 reference. Its traced
//! engine probe ([`engine_layers`]) also serves `serve-mix`.

use crate::layers;
use crate::report::{quoted, Outcome};
use crate::span::{Recorder, Traced, OP_CLASSES, UNIT};
use crate::stats::{median, peak_rss_mb, tail};
use crate::Args;
use ark_fhe::arch::sched::SimReport;
use ark_fhe::engine::{Engine, HeEvaluator, ProgramInput};
use ark_fhe::workloads::trace::Trace;
use ark_fhe::ArkResult;
use ark_math::cfft::C64;
use ark_scenarios::{max_abs_error, Scenario};
use ark_serve::Program;
use std::time::{Duration, Instant};

/// Engines are built this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Passes over the input sets whose errors make up `max_abs_err` — a
/// fixed unit count, so the metric repeats exactly for one seed.
const ERROR_PASSES: usize = 2;

/// `max_abs_err` from the per-unit worst errors of a fixed unit set:
/// their median (a unit's worst error is heavy-tailed across inputs,
/// so the median is what stays steady across seeds); the absolute
/// worst goes to the detail line.
pub fn record_errors(out: &mut Outcome, errors: &[f64]) {
    out.set("max_abs_err", median(errors));
    out.note(
        "max_abs_err.worst",
        format!("{}", errors.iter().copied().fold(0.0, f64::max)),
    );
    out.note("max_abs_err.units", format!("{}", errors.len()));
}

/// One input set with its program and reference.
pub struct Case {
    /// Plaintext inputs and levels.
    pub inputs: Vec<ProgramInput>,
    /// The unit's program.
    pub program: Program,
    /// Reference slot vectors, one per output.
    pub reference: Vec<Vec<C64>>,
    /// Max-abs-error tolerance per output.
    pub tolerances: Vec<f64>,
    /// Leading slots that carry data.
    pub checked: usize,
}

impl Case {
    /// One run of a scenario: its inputs, program and reference.
    pub fn from_scenario(s: &dyn Scenario) -> Self {
        Self {
            inputs: s.inputs(),
            program: s.program(),
            reference: s.reference(),
            tolerances: s.tolerances(),
            checked: s.checked_slots(),
        }
    }

    /// Worst error over the outputs, or why the outputs are wrong.
    pub fn check(&self, outputs: &[Vec<C64>]) -> Result<f64, String> {
        if outputs.len() != self.reference.len() {
            return Err(format!(
                "{} outputs, {} expected",
                outputs.len(),
                self.reference.len()
            ));
        }
        let mut worst: f64 = 0.0;
        for (k, ((got, want), tol)) in outputs
            .iter()
            .zip(&self.reference)
            .zip(&self.tolerances)
            .enumerate()
        {
            let err = max_abs_error(got, want, self.checked);
            if err.is_nan() || err > *tol {
                return Err(format!(
                    "output {k}: max |err| {err:.3e} > tolerance {tol:.1e}"
                ));
            }
            worst = worst.max(err);
        }
        Ok(worst)
    }
}

/// A local workload: how to build its engines and what it runs.
pub struct LocalSpec {
    /// Workload name.
    pub name: &'static str,
    /// Builds the software engine (keys, bootstrap precompute).
    pub software: Box<dyn Fn() -> ArkResult<Engine>>,
    /// Builds the same key surface on the simulated backend.
    pub simulated: Box<dyn Fn() -> ArkResult<Engine>>,
    /// Input sets, used round-robin.
    pub cases: Vec<Case>,
}

/// Runs one untraced unit; returns its worst error.
fn unit(engine: &mut Engine, case: &Case) -> Result<f64, String> {
    let outcome = engine
        .execute(&case.inputs, &case.program)
        .map_err(|e| format!("execute: {e:?}"))?;
    let outputs = outcome
        .outputs()
        .ok_or("software outcome without outputs")?;
    case.check(outputs)
}

/// Encrypts and evaluates `case` through the span-recording evaluator.
fn apply_traced(
    engine: &mut Engine,
    case: &Case,
    rec: &mut Recorder,
) -> ArkResult<(Vec<ark_ckks::Ciphertext>, Trace)> {
    let mut ev = Traced::new(engine.evaluator()?, rec);
    let cts = case
        .inputs
        .iter()
        .map(|i| ev.input(&i.values, i.level))
        .collect::<ArkResult<Vec<_>>>()?;
    let outs = case.program.apply(&mut ev, &cts)?;
    Ok((outs, ev.inner.trace().clone()))
}

/// Runs one unit through the span-recording evaluator; returns its
/// worst error and the op trace the engine recorded.
fn traced_unit(
    engine: &mut Engine,
    case: &Case,
    rec: &mut Recorder,
) -> Result<(f64, Trace), String> {
    rec.begin(UNIT);
    let result = apply_traced(engine, case, rec)
        .map_err(|e| format!("execute: {e:?}"))
        .and_then(|(outs, trace)| {
            rec.begin("decrypt");
            let dec = outs
                .iter()
                .map(|ct| engine.decrypt(ct))
                .collect::<ArkResult<Vec<_>>>();
            rec.end();
            let dec = dec.map_err(|e| format!("decrypt: {e:?}"))?;
            Ok((case.check(&dec)?, trace))
        });
    rec.end();
    result
}

fn record_unit(out: &mut Outcome, name: &str, i: usize, r: Result<f64, String>) -> Option<f64> {
    out.attempted += 1;
    match r {
        Ok(err) => Some(err),
        Err(why) => {
            out.failed += 1;
            out.problem(format!("{name} unit {i}: {why}"));
            None
        }
    }
}

/// Builds the engine and runs the warm-up unit; returns the engine and
/// the seconds both took.
fn set_up(spec: &LocalSpec, out: &mut Outcome) -> Result<(Engine, f64), String> {
    let t = Instant::now();
    let mut engine = (spec.software)().map_err(|e| format!("engine build: {e:?}"))?;
    let r = unit(&mut engine, &spec.cases[0]);
    let secs = t.elapsed().as_secs_f64();
    record_unit(out, spec.name, 0, r);
    out.note("engine.threads", format!("{}", engine.threads()));
    Ok((engine, secs))
}

/// Costs `case` on the simulated-backend engine `build` makes; returns
/// the cycle model's report and the host time it took, in ms.
pub fn simulate(
    build: impl FnOnce() -> ArkResult<Engine>,
    case: &Case,
) -> Result<(SimReport, f64), String> {
    let t = Instant::now();
    let mut sim = build().map_err(|e| format!("simulated engine: {e:?}"))?;
    let symbolic: Vec<ProgramInput> = case
        .inputs
        .iter()
        .map(|i| ProgramInput::symbolic(i.level))
        .collect();
    let outcome = sim
        .execute(&symbolic, &case.program)
        .map_err(|e| format!("simulated execute: {e:?}"))?;
    let report = outcome
        .report()
        .ok_or("simulated outcome without report")?
        .clone();
    Ok((report, t.elapsed().as_secs_f64() * 1e3))
}

/// End-to-end run: [`SETUP_REPS`] timed set-ups, then a closed loop
/// for the measured seconds.
pub fn run(spec: &LocalSpec, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut engine = None;
    let mut errors = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(engine.take()); // one engine's keys resident at a time
        let (e, secs) = set_up(spec, &mut out)?;
        setups.push(secs);
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");

    let mut lat_ms = Vec::new();
    let error_units = ERROR_PASSES * spec.cases.len();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut i = 0usize;
    // the error sample is a fixed unit count: keep going past the
    // budget until it is complete
    while start.elapsed() < budget || i < error_units {
        let case = &spec.cases[i % spec.cases.len()];
        let t = Instant::now();
        let r = unit(&mut engine, case);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        i += 1;
        if let Some(err) = record_unit(&mut out, spec.name, i, r) {
            lat_ms.push(ms);
            if i <= error_units {
                errors.push(err);
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    drop(engine);

    let (report, _) = simulate(&spec.simulated, &spec.cases[0])?;
    let t = tail(&lat_ms);
    out.set("setup_s", median(&setups));
    out.set("p50_ms", median(&lat_ms));
    out.set("tail_ms", t.value);
    out.set("ok_rps", lat_ms.len() as f64 / elapsed);
    record_errors(&mut out, &errors);
    out.set("sim_cycles", report.cycles as f64);
    out.set("peak_rss_mb", peak_rss_mb());
    out.note("units", format!("{}", lat_ms.len()));
    out.note("tail_pct", format!("{}", t.pct));
    out.note("tail_beyond", format!("{}", t.beyond));
    out.note("setup_reps_s", format!("{setups:?}"));
    out.note("loop", quoted("closed, 1 caller"));
    Ok(out)
}

/// Traced run: one set-up, then [`engine_layers`].
pub fn run_traced(spec: &LocalSpec, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut engine, _) = set_up(spec, &mut out)?;
    let sim = simulate(&spec.simulated, &spec.cases[0])?;
    let cases: Vec<&Case> = spec.cases.iter().collect();
    let secs = args.seconds;
    let rec = engine_layers(
        &mut out,
        spec.name,
        &mut engine,
        &cases,
        &sim,
        [0.6 * secs, (0.3 * secs).max(1.0)],
    )?;
    crate::write_spans(args, &rec);
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}

/// The engine-side per-layer metrics of `cases` on a warmed-up
/// `engine`: traced units alternating with untraced ones for
/// `budget_s[0]` seconds (op-class self times, runtime-key hits and
/// misses per unit, the ops-share check, the tracing overhead), the
/// computed mults of one unit beside the cycle model's `sim` report,
/// the static verifier, and `budget_s[1]` seconds of ckks/math probes
/// at the engine's top level. Returns the span recorder.
pub fn engine_layers(
    out: &mut Outcome,
    name: &str,
    engine: &mut Engine,
    cases: &[&Case],
    sim: &(SimReport, f64),
    budget_s: [f64; 2],
) -> Result<Recorder, String> {
    let keys = |e: &Engine| e.keychain().map_or((0, 0), |k| k.runtime_key_cache_stats());
    let keys0 = keys(engine);
    let mut rec = Recorder::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut trace = None;
    let budget = Duration::from_secs_f64(budget_s[0]);
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < budget || traced_ms.len() < 2 {
        let case = cases[i % cases.len()];
        i += 1;
        // alternate untraced and traced units over the same cases
        let t = Instant::now();
        let r = unit(engine, case);
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        record_unit(out, name, i, r);
        let t = Instant::now();
        let r = traced_unit(engine, case, &mut rec);
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let r = r.map(|(err, tr)| {
            trace.get_or_insert(tr);
            err
        });
        record_unit(out, name, i, r);
    }
    let keys1 = keys(engine);
    let all_units = (plain_ms.len() + traced_ms.len()) as f64;
    out.set("engine.keys.hits", (keys1.0 - keys0.0) as f64 / all_units);
    out.set("engine.keys.misses", (keys1.1 - keys0.1) as f64 / all_units);

    let units = traced_ms.len() as f64;
    let st = rec.self_times();
    let mut measured = Vec::new();
    for class in OP_CLASSES {
        let s = st.get(class).copied().unwrap_or_default();
        let ms = s.self_us / 1e3 / units;
        out.set(format!("engine.{class}.calls"), s.calls as f64 / units);
        out.set(format!("engine.{class}.ms"), ms);
        measured.push((class, ms));
    }
    let share = rec.ops_share();
    out.set("engine.ops_share", share);
    out.note("check.ops_share", format!("{share}"));
    if share < 0.95 {
        out.problem(format!("op spans cover {share:.4} of unit time (< 0.95)"));
    }
    let (p_plain, p_traced) = (median(&plain_ms), median(&traced_ms));
    out.set("trace.overhead_pct", 100.0 * (p_traced - p_plain) / p_plain);
    out.set("trace.units", units);

    let params = engine.params().clone();
    let trace = trace.ok_or("no traced unit succeeded")?;
    let mults = layers::trace_mults(&trace, &params);
    layers::record_mults(out, &mults);
    let (report, sim_ms) = sim;
    layers::record_sim(out, report, *sim_ms);
    eprint!(
        "{}",
        layers::modelled_beside_measured(name, &measured, &mults, report)
    );

    let case = cases[0];
    let levels: Vec<usize> = case.inputs.iter().map(|i| i.level).collect();
    layers::probe_verify(out, &engine.verify_context(), &levels, &case.program);
    let ct = engine
        .encrypt(&case.inputs[0].values, params.max_level)
        .map_err(|e| format!("probe encrypt: {e:?}"))?;
    let ctx = engine.context().ok_or("software engine without context")?;
    let evk = engine
        .keychain()
        .ok_or("software engine without keys")?
        .mult_key();
    layers::probe_ckks_math(out, ctx, evk, &ct, Duration::from_secs_f64(budget_s[1]));
    out.note("spans", format!("{}", rec.spans().len()));
    Ok(rec)
}
