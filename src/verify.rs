//! Static program verification: an abstract interpreter over
//! [`HeProgram`]s that runs without keys or ciphertexts.
//!
//! The accelerator the paper models only pays off because every HE
//! program's depth, bootstrap placement and key surface are known
//! *before* execution. This module makes that knowledge a first-class
//! artifact: [`AbstractEvaluator`] implements [`HeEvaluator`] with a
//! metadata-only ciphertext handle ([`AbstractCt`]), so any program —
//! a hand-written [`HeProgram`] or an `ark-serve` wire `Program` — can
//! be interpreted abstractly against a declared key surface in
//! microseconds, yielding a [`VerifyReport`] with:
//!
//! - **acceptance or a typed rejection** whose error is the *same*
//!   [`ArkError`] class the runtime backends would raise
//!   mid-evaluation (level mismatch, scale mismatch, chain exhaustion,
//!   missing rotation/conjugation key, bootstrap misuse, oversized
//!   plaintexts) — the checks are literally shared with the runtime
//!   (`check_levels`, `check_scales_match`, `check_rotate_sum_terms`),
//!   so agreement is by construction, and the error-parity proptests
//!   in `ark-verify` pin it;
//! - **def-use liveness**: per abstract register the defining and last
//!   using event, and from those the peak live-set size in
//!   ciphertext-units ([`VerifyReport::peak_live_units`]) — the
//!   liveness-exact memory budget `ark-serve` charges sessions instead
//!   of the old every-op-forever worst case;
//! - **the key surface**: every normalized rotation amount (including
//!   those inside fused `rotate_sum` terms) and whether conjugation is
//!   used, as Galois elements;
//! - **bootstrap placement** vs. depth exhaustion, and the level/scale
//!   schedule for reporting ([`VerifyReport::schedule`]).
//!
//! The same evaluator is the simulated backend: `Engine::execute` on
//! [`crate::engine::Backend::Simulated`] drives it and hands the trace
//! it recorded ([`AbstractEvaluator::into_trace`]) to the `ark-core`
//! cycle model, so there is one metadata evaluator, not two.
//!
//! The abstract domain per register is `(level, scale)`. Scale is an
//! f64 carrying the scheme scale `Δ = 2^scale_bits`: `Δ` is a power of
//! two, so multiplying and dividing by it is *exact* in f64; the
//! software backend's per-prime scales drift from `Δ` by < 1% per
//! prime (chain primes are chosen within 1% of `Δ`), far inside the
//! `1e-6`-relative `check_scales_match` tolerance after the
//! `mul_const`/`mul_plain` top-prime-encoding + rescale cancellation,
//! so accept/reject agreement holds across both backends.

use crate::engine::{
    bootstrap_trace_config, check_levels, check_rotate_sum_terms, check_slots, DeclaredKeys,
    HeEvaluator, HeProgram, RotateSumTerm,
};
use crate::error::{ArkError, ArkResult};
use ark_ckks::bootstrap::BootstrapConfig;
use ark_ckks::ops::check_scales_match as check_scales;
use ark_ckks::params::CkksParams;
use ark_math::automorphism::GaloisElement;
use ark_math::cfft::C64;
use ark_workloads::bootstrap::{bootstrap_trace, post_bootstrap_level, BootstrapTraceConfig};
use ark_workloads::trace::{HeOp, KeyId, Trace};
use std::collections::BTreeSet;

/// A statically-known program input: its encryption level, and
/// optionally its scale (defaults to the scheme scale `Δ`, which is
/// what both backends' `input` produces; `ark-serve` admission passes
/// the decoded wire ciphertext's actual scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbstractInput {
    /// Multiplicative level the input arrives at.
    pub level: usize,
    /// Scale the input carries; `None` means the scheme scale `Δ`.
    pub scale: Option<f64>,
}

impl AbstractInput {
    /// An input at `level` with the scheme scale.
    pub fn at_level(level: usize) -> Self {
        Self { level, scale: None }
    }

    /// An input at `level` with an explicit scale.
    pub fn with_scale(level: usize, scale: f64) -> Self {
        Self {
            level,
            scale: Some(scale),
        }
    }
}

/// Metadata-only ciphertext handle of the abstract interpreter: a
/// register id plus the `(level, scale)` abstract state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbstractCt {
    id: usize,
    level: usize,
    scale: f64,
}

impl AbstractCt {
    /// Multiplicative level of the abstract register.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Scale of the abstract register.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// Per-register def-use record backing the liveness computation.
#[derive(Debug, Clone, Copy)]
struct CtRecord {
    /// Defining event; `None` for program inputs (live from event 0).
    def: Option<usize>,
    /// Last event that read the register; `None` if never read.
    last_use: Option<usize>,
}

/// One interpreted op event (one evaluator call).
#[derive(Debug, Clone, Copy)]
struct EventRec {
    op: &'static str,
    level: usize,
    /// Extra ciphertext-units alive only during this event (hoisted
    /// digits, rotated copies, unrescaled products).
    transient: usize,
}

/// Where a program failed static verification: the op index (events
/// successfully interpreted before it) and the typed runtime error the
/// backends would raise at the same point.
#[derive(Debug, Clone)]
pub struct VerifyFinding {
    /// Index of the failing op in interpretation order (equals the
    /// number of ops that verified before it; `0` also covers
    /// input-stage rejections).
    pub op_index: usize,
    /// The error, one-for-one the runtime [`ArkError`] class.
    pub error: ArkError,
}

impl std::fmt::Display for VerifyFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op {}: {}", self.op_index, self.error)
    }
}

/// One row of the level/liveness schedule: the abstract state right at
/// an interpreted op.
#[derive(Debug, Clone)]
pub struct ScheduleRow {
    /// Op index in interpretation order.
    pub index: usize,
    /// Op mnemonic.
    pub op: &'static str,
    /// Level the op executes at.
    pub level: usize,
    /// Ciphertext-units live across this event (inputs + live
    /// registers + transients).
    pub live_units: usize,
}

/// What static verification learned about a program. `finding` is
/// `None` iff every op verified; the remaining fields describe the
/// prefix that verified (the whole program on acceptance).
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// `None` = accepted; otherwise where and why the program fails.
    pub finding: Option<VerifyFinding>,
    /// Evaluator calls interpreted (one per program op).
    pub ops: usize,
    /// Abstract registers created (inputs + op results).
    pub registers: usize,
    /// Program inputs.
    pub n_inputs: usize,
    /// Peak concurrently-live ciphertext-units: borrowed inputs + live
    /// registers + per-op transients, maximized over every event. The
    /// liveness-exact session-memory budget (multiply by the largest
    /// input's byte length for bytes).
    pub peak_live_units: usize,
    /// Event index where the peak occurs (`ops` = the output epilogue).
    pub peak_event: usize,
    /// Ciphertext-equivalents of one hoisted digit decomposition under
    /// this parameter set: `⌈dnum·(L+1+α) / (2·(L+1))⌉`.
    pub digit_units: usize,
    /// Normalized rotation amounts the program uses (including inside
    /// `rotate_sum` terms), ascending.
    pub rotations: Vec<i64>,
    /// Galois elements of the used key surface (rotations, then the
    /// conjugation element if used).
    pub galois_elements: Vec<u64>,
    /// Whether the program conjugates.
    pub conjugation: bool,
    /// Bootstraps the program performs.
    pub bootstraps: usize,
    /// Lowest level any register reaches (depth margin: `0` means the
    /// chain is fully consumed somewhere).
    pub min_level: usize,
    /// Levels of the program outputs, in output order.
    pub output_levels: Vec<usize>,
    /// Scales of the program outputs, in output order.
    pub output_scales: Vec<f64>,
    /// Recorded trace length (bootstraps expand to their analytic
    /// sub-trace, exactly like the runtime backends).
    pub trace_len: usize,
    /// Per-op level/liveness rows, in interpretation order.
    pub schedule: Vec<ScheduleRow>,
}

impl VerifyReport {
    /// True if the program verified end to end.
    pub fn is_ok(&self) -> bool {
        self.finding.is_none()
    }

    /// The rejection error, if any.
    pub fn error(&self) -> Option<&ArkError> {
        self.finding.as_ref().map(|f| &f.error)
    }
}

/// Everything the abstract interpreter resolves against: parameter
/// set, declared key surface, bootstrap trace configuration, and the
/// runtime-key policy. Build one key-free via [`VerifyContext::new`]
/// (the `ark-verify` CLI path) or from a live session via
/// [`crate::engine::Engine::verify_context`].
#[derive(Debug, Clone)]
pub struct VerifyContext {
    params: CkksParams,
    declared: DeclaredKeys,
    trace_cfg: Option<BootstrapTraceConfig>,
    runtime_keys: bool,
}

impl VerifyContext {
    /// A key-free verification context, validated exactly like
    /// [`crate::engine::EngineBuilder::build`] (dnum must divide
    /// `L+1`; a bootstrap configuration must fit the chain) so a
    /// context that constructs here describes an engine that would
    /// build.
    ///
    /// # Errors
    ///
    /// [`ArkError::InvalidParams`] on an inconsistent parameter set or
    /// an over-deep bootstrap configuration.
    pub fn new(
        params: CkksParams,
        rotations: &[i64],
        conjugation: bool,
        bootstrapping: Option<&BootstrapConfig>,
        runtime_keys: bool,
    ) -> ArkResult<Self> {
        if params.dnum == 0 || !(params.max_level + 1).is_multiple_of(params.dnum) {
            return Err(ArkError::InvalidParams {
                reason: format!(
                    "dnum {} must divide L+1 = {}",
                    params.dnum,
                    params.max_level + 1
                ),
            });
        }
        let declared = DeclaredKeys::declare(
            rotations,
            conjugation || bootstrapping.is_some(),
            params.slots(),
        );
        let trace_cfg = bootstrapping.map(|cfg| bootstrap_trace_config(&params, cfg));
        if let Some(cfg) = &trace_cfg {
            if cfg.levels_consumed() > params.max_level {
                return Err(ArkError::InvalidParams {
                    reason: format!(
                        "bootstrapping consumes {} levels but the chain has only {}",
                        cfg.levels_consumed(),
                        params.max_level
                    ),
                });
            }
        }
        Ok(Self {
            params,
            declared,
            trace_cfg,
            runtime_keys,
        })
    }

    /// Assembles a context from already-validated engine parts.
    pub(crate) fn from_parts(
        params: CkksParams,
        declared: DeclaredKeys,
        trace_cfg: Option<BootstrapTraceConfig>,
        runtime_keys: bool,
    ) -> Self {
        Self {
            params,
            declared,
            trace_cfg,
            runtime_keys,
        }
    }

    /// The parameter set verification runs under.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// A fresh abstract evaluator over this context, for driving
    /// [`HeProgram::run`] by hand.
    pub fn evaluator(&self) -> AbstractEvaluator<'_> {
        AbstractEvaluator::new(
            &self.params,
            &self.declared,
            self.trace_cfg,
            self.runtime_keys,
        )
    }

    /// Verifies `program` over inputs at the given levels/scales,
    /// returning the full report. Never touches key material; cost is
    /// proportional to the op count.
    pub fn verify<P: HeProgram>(&self, inputs: &[AbstractInput], program: &P) -> VerifyReport {
        self.verify_traced(inputs, program).0
    }

    /// [`Self::verify`], also handing back the trace the pass recorded
    /// (the whole program's on acceptance, the verified prefix's
    /// otherwise) — what a simulated session costs, with no second
    /// interpretation.
    pub fn verify_traced<P: HeProgram>(
        &self,
        inputs: &[AbstractInput],
        program: &P,
    ) -> (VerifyReport, Trace) {
        let mut eval = self.evaluator();
        let cts = inputs
            .iter()
            .map(|spec| eval.input_at(spec.level, spec.scale))
            .collect::<ArkResult<Vec<_>>>();
        let report = match cts.and_then(|cts| program.run(&mut eval, &cts)) {
            Ok(outputs) => eval.report(Ok(&outputs)),
            Err(e) => eval.report(Err(e)),
        };
        (report, eval.trace)
    }
}

/// [`HeEvaluator`] over the abstract `(level, scale)` domain: performs
/// every check the runtime backends perform — via the *same* shared
/// check functions — records the same trace ops, and additionally
/// tracks def-use events per register for liveness. No keys, no
/// polynomial data, no randomness.
pub struct AbstractEvaluator<'a> {
    params: &'a CkksParams,
    declared: &'a DeclaredKeys,
    trace_cfg: Option<BootstrapTraceConfig>,
    runtime_keys: bool,
    trace: Trace,
    digit_units: usize,
    n_inputs: usize,
    cts: Vec<CtRecord>,
    events: Vec<EventRec>,
    rotations_used: BTreeSet<i64>,
    conjugation_used: bool,
    bootstraps: usize,
    min_level: usize,
}

impl<'a> AbstractEvaluator<'a> {
    fn new(
        params: &'a CkksParams,
        declared: &'a DeclaredKeys,
        trace_cfg: Option<BootstrapTraceConfig>,
        runtime_keys: bool,
    ) -> Self {
        let l1 = params.max_level + 1;
        Self {
            params,
            declared,
            trace_cfg,
            runtime_keys,
            trace: Trace::new("engine-session"),
            digit_units: (params.dnum * (l1 + params.alpha())).div_ceil(2 * l1),
            n_inputs: 0,
            cts: Vec::new(),
            events: Vec::new(),
            rotations_used: BTreeSet::new(),
            conjugation_used: false,
            bootstraps: 0,
            min_level: params.max_level,
        }
    }

    /// Creates an abstract input register at `level` (and `scale`,
    /// defaulting to `Δ`) — the admission-side mirror of
    /// [`HeEvaluator::input`], taking the decoded wire ciphertext's
    /// metadata instead of slot values.
    ///
    /// # Errors
    ///
    /// [`ArkError::LevelOutOfRange`] beyond the chain.
    pub fn input_at(&mut self, level: usize, scale: Option<f64>) -> ArkResult<AbstractCt> {
        let max = self.params.max_level;
        if level > max {
            return Err(ArkError::LevelOutOfRange { level, max });
        }
        let scale = scale.unwrap_or_else(|| self.params.scale());
        self.n_inputs += 1;
        let id = self.cts.len();
        self.cts.push(CtRecord {
            def: None,
            last_use: None,
        });
        self.min_level = self.min_level.min(level);
        Ok(AbstractCt { id, level, scale })
    }

    /// Marks `ct` read by the event being built.
    fn touch(&mut self, ct: &AbstractCt) {
        self.cts[ct.id].last_use = Some(self.events.len());
    }

    /// Closes the event being built and defines its result register.
    fn emit(
        &mut self,
        op: &'static str,
        at_level: usize,
        transient: usize,
        level: usize,
        scale: f64,
    ) -> AbstractCt {
        let id = self.cts.len();
        self.cts.push(CtRecord {
            def: Some(self.events.len()),
            last_use: None,
        });
        self.events.push(EventRec {
            op,
            level: at_level,
            transient,
        });
        self.min_level = self.min_level.min(level);
        AbstractCt { id, level, scale }
    }

    /// Builds the acceptance report. `outputs` (the value
    /// [`HeProgram::run`] returned) stay live through the output
    /// epilogue, where each is additionally cloned once for the
    /// caller.
    pub fn finish(mut self, outputs: &[AbstractCt]) -> VerifyReport {
        self.report(Ok(outputs))
    }

    /// Builds the rejection report for `error`, raised by the op after
    /// the last interpreted event.
    pub fn finish_err(mut self, error: ArkError) -> VerifyReport {
        self.report(Err(error))
    }

    /// Consumes the evaluator, returning the recorded trace — op for op
    /// what the software backend records for the same program.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Sweeps the def-use intervals into the report: the acceptance
    /// report for the program's `outputs`, or the rejection report for
    /// an error raised by the op after the last interpreted event.
    fn report(&mut self, outcome: ArkResult<&[AbstractCt]>) -> VerifyReport {
        let end = self.events.len();
        let (finding, outputs) = match outcome {
            Ok(outputs) => (None, outputs),
            Err(error) => (
                Some(VerifyFinding {
                    op_index: end,
                    error,
                }),
                &[][..],
            ),
        };
        for o in outputs {
            self.cts[o.id].last_use = Some(end);
        }
        // sweep the def-use intervals into per-event live counts
        let mut delta = vec![0i64; end + 2];
        for r in &self.cts {
            let (start, stop) = match (r.def, r.last_use) {
                // an input never read (and not an output) is released
                // before the first op, costing nothing beyond the
                // borrowed-inputs term
                (None, None) => continue,
                (None, Some(lu)) => (0, lu),
                // an op result never read again dies right after its
                // defining event
                (Some(d), lu) => (d, lu.unwrap_or(d)),
            };
            delta[start] += 1;
            delta[stop + 1] -= 1;
        }
        let mut live = 0i64;
        let mut peak = self.n_inputs;
        let mut peak_event = 0;
        let mut schedule = Vec::with_capacity(end);
        for (e, ev) in self.events.iter().enumerate() {
            live += delta[e];
            let units = self.n_inputs + live as usize + ev.transient;
            if units > peak {
                peak = units;
                peak_event = e;
            }
            schedule.push(ScheduleRow {
                index: e,
                op: ev.op,
                level: ev.level,
                live_units: units,
            });
        }
        // output epilogue: surviving registers plus one clone per
        // declared output (outputs may repeat a register)
        live += delta[end];
        let epilogue = self.n_inputs + live as usize + outputs.len();
        if epilogue > peak {
            peak = epilogue;
            peak_event = end;
        }
        let n = self.params.n();
        let mut galois: Vec<u64> = self
            .rotations_used
            .iter()
            .map(|&r| GaloisElement::from_rotation(r, n).0)
            .collect();
        if self.conjugation_used {
            galois.push(GaloisElement::conjugation(n).0);
        }
        VerifyReport {
            finding,
            ops: end,
            registers: self.cts.len(),
            n_inputs: self.n_inputs,
            peak_live_units: peak,
            peak_event,
            digit_units: self.digit_units,
            rotations: self.rotations_used.iter().copied().collect(),
            galois_elements: galois,
            conjugation: self.conjugation_used,
            bootstraps: self.bootstraps,
            min_level: self.min_level,
            output_levels: outputs.iter().map(|o| o.level).collect(),
            output_scales: outputs.iter().map(|o| o.scale).collect(),
            trace_len: self.trace.len(),
            schedule,
        }
    }
}

impl HeEvaluator for AbstractEvaluator<'_> {
    type Ct = AbstractCt;

    fn params(&self) -> &CkksParams {
        self.params
    }

    fn trace(&self) -> &Trace {
        &self.trace
    }

    fn input(&mut self, values: &[C64], level: usize) -> ArkResult<Self::Ct> {
        let max = self.params.max_level;
        if level > max {
            return Err(ArkError::LevelOutOfRange { level, max });
        }
        check_slots(values.len(), self.params.slots())?;
        self.input_at(level, None)
    }

    fn level(&self, ct: &Self::Ct) -> usize {
        ct.level
    }

    fn scale(&self, ct: &Self::Ct) -> f64 {
        ct.scale
    }

    fn add(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        check_levels(a.level, b.level)?;
        check_scales(a.scale, b.scale)?;
        self.trace.push(HeOp::HAdd { level: a.level });
        self.touch(a);
        self.touch(b);
        Ok(self.emit("add", a.level, 0, a.level, a.scale))
    }

    fn sub(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        check_levels(a.level, b.level)?;
        check_scales(a.scale, b.scale)?;
        self.trace.push(HeOp::HAdd { level: a.level });
        self.touch(a);
        self.touch(b);
        Ok(self.emit("sub", a.level, 0, a.level, a.scale))
    }

    fn negate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.trace.push(HeOp::CMult { level: ct.level });
        self.touch(ct);
        Ok(self.emit("negate", ct.level, 0, ct.level, ct.scale))
    }

    fn add_const(&mut self, ct: &Self::Ct, _c: f64) -> ArkResult<Self::Ct> {
        self.trace.push(HeOp::CAdd { level: ct.level });
        self.touch(ct);
        Ok(self.emit("add_const", ct.level, 0, ct.level, ct.scale))
    }

    fn mul_const(&mut self, ct: &Self::Ct, _c: f64) -> ArkResult<Self::Ct> {
        self.trace.push(HeOp::CMult { level: ct.level });
        self.touch(ct);
        let scale = ct.scale * self.params.scale();
        Ok(self.emit("mul_const", ct.level, 0, ct.level, scale))
    }

    fn add_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        check_slots(values.len(), self.params.slots())?;
        self.trace.push(HeOp::PAdd {
            level: ct.level,
            fresh_plaintext: true,
        });
        self.touch(ct);
        Ok(self.emit("add_plain", ct.level, 0, ct.level, ct.scale))
    }

    fn mul_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        check_slots(values.len(), self.params.slots())?;
        self.trace.push(HeOp::PMult {
            level: ct.level,
            fresh_plaintext: true,
        });
        self.touch(ct);
        let scale = ct.scale * self.params.scale();
        Ok(self.emit("mul_plain", ct.level, 0, ct.level, scale))
    }

    fn mul(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        check_levels(a.level, b.level)?;
        self.trace.push(HeOp::HMult { level: a.level });
        self.touch(a);
        self.touch(b);
        Ok(self.emit("mul", a.level, 0, a.level, a.scale * b.scale))
    }

    fn square(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.trace.push(HeOp::HMult { level: ct.level });
        self.touch(ct);
        Ok(self.emit("square", ct.level, 0, ct.level, ct.scale * ct.scale))
    }

    fn rotate(&mut self, ct: &Self::Ct, amount: i64) -> ArkResult<Self::Ct> {
        let reduced = GaloisElement::normalize_rotation(amount, self.params.slots());
        if reduced == 0 {
            // keyless identity — but apply() still materializes a new
            // register (the runtime clones), so it costs a definition
            self.touch(ct);
            return Ok(self.emit("rotate(id)", ct.level, 0, ct.level, ct.scale));
        }
        if !self.declared.has_rotation(reduced) && !self.runtime_keys {
            return Err(ArkError::MissingRotationKey { amount });
        }
        self.rotations_used.insert(reduced);
        self.trace.push(HeOp::HRot {
            level: ct.level,
            amount: reduced,
            key: KeyId::Rot(reduced),
        });
        self.touch(ct);
        Ok(self.emit("rotate", ct.level, 0, ct.level, ct.scale))
    }

    fn rotate_sum(&mut self, ct: &Self::Ct, terms: &[RotateSumTerm]) -> ArkResult<Self::Ct> {
        let slots = self.params.slots();
        let distinct = check_rotate_sum_terms(terms, slots, self.declared, self.runtime_keys)?;
        for (i, &r) in distinct.iter().enumerate() {
            self.rotations_used.insert(r);
            self.trace.push(HeOp::HRotHoisted {
                level: ct.level,
                amount: r,
                key: KeyId::Rot(r),
                fresh_digits: i == 0,
            });
        }
        for k in 0..terms.len() {
            self.trace.push(HeOp::PMult {
                level: ct.level,
                fresh_plaintext: true,
            });
            if k > 0 {
                self.trace.push(HeOp::HAdd { level: ct.level });
            }
        }
        self.touch(ct);
        // transient working set: one rotated ciphertext per term (≤
        // distinct amounts, bounded by terms), the hoisted digit spine,
        // and the in-flight product
        let transient = terms.len() + self.digit_units + 1;
        let scale = ct.scale * self.params.scale();
        Ok(self.emit("rotate_sum", ct.level, transient, ct.level, scale))
    }

    fn conjugate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        if !self.declared.has_conjugation() && !self.runtime_keys {
            return Err(ArkError::MissingConjugationKey);
        }
        self.conjugation_used = true;
        self.trace.push(HeOp::HConj { level: ct.level });
        self.touch(ct);
        Ok(self.emit("conjugate", ct.level, 0, ct.level, ct.scale))
    }

    fn rescale(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        if ct.level == 0 {
            return Err(ArkError::ModulusChainExhausted);
        }
        self.trace.push(HeOp::HRescale { level: ct.level });
        self.touch(ct);
        let scale = ct.scale / self.params.scale();
        Ok(self.emit("rescale", ct.level, 0, ct.level - 1, scale))
    }

    fn mod_drop_to(&mut self, ct: &Self::Ct, level: usize) -> ArkResult<Self::Ct> {
        if level > ct.level {
            return Err(ArkError::LevelMismatch {
                expected: ct.level,
                found: level,
            });
        }
        self.touch(ct);
        Ok(self.emit("mod_drop", ct.level, 0, level, ct.scale))
    }

    fn bootstrap(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        let cfg = self.trace_cfg.ok_or(ArkError::KeyChainMissing {
            what: "bootstrapping keys (build the engine with EngineBuilder::bootstrapping)",
        })?;
        if ct.level != 0 {
            return Err(ArkError::LevelMismatch {
                expected: 0,
                found: ct.level,
            });
        }
        self.bootstraps += 1;
        self.trace.extend(&bootstrap_trace(self.params, &cfg));
        self.touch(ct);
        let level = post_bootstrap_level(self.params, &cfg);
        let scale = self.params.scale();
        Ok(self.emit("bootstrap", ct.level, 0, level, scale))
    }

    // one event per fused op, mirroring `Program::apply`'s one-register
    // cost model; checks and trace records stay identical to the
    // default mul-then-rescale expansion
    fn mul_rescale(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        check_levels(a.level, b.level)?;
        self.trace.push(HeOp::HMult { level: a.level });
        if a.level == 0 {
            return Err(ArkError::ModulusChainExhausted);
        }
        self.trace.push(HeOp::HRescale { level: a.level });
        self.touch(a);
        self.touch(b);
        let scale = (a.scale * b.scale) / self.params.scale();
        Ok(self.emit("mul_rescale", a.level, 1, a.level - 1, scale))
    }

    fn mul_plain_rescale(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        check_slots(values.len(), self.params.slots())?;
        self.trace.push(HeOp::PMult {
            level: ct.level,
            fresh_plaintext: true,
        });
        if ct.level == 0 {
            return Err(ArkError::ModulusChainExhausted);
        }
        self.trace.push(HeOp::HRescale { level: ct.level });
        self.touch(ct);
        // PMult encodes at the top prime, so the following rescale
        // cancels exactly: the result scale is the input scale
        Ok(self.emit("mul_plain_rescale", ct.level, 1, ct.level - 1, ct.scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Backend, Engine, ProgramInput};

    struct Chain(usize);
    impl HeProgram for Chain {
        fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
            let mut ct = inputs[0].clone();
            for _ in 0..self.0 {
                ct = e.add_const(&ct, 1.0)?;
            }
            Ok(vec![ct])
        }
    }

    fn tiny_ctx() -> VerifyContext {
        VerifyContext::new(CkksParams::tiny(), &[1], false, None, false).unwrap()
    }

    #[test]
    fn straight_line_peak_is_constant_in_length() {
        let ctx = tiny_ctx();
        let short = ctx.verify(&[AbstractInput::at_level(2)], &Chain(3));
        let long = ctx.verify(&[AbstractInput::at_level(2)], &Chain(500));
        assert!(short.is_ok() && long.is_ok());
        assert_eq!(long.ops, 500);
        // 1 borrowed input + the operand register + the result register:
        // the admission charge is the peak, not the length (it once
        // counted every op forever, over-charging this chain 500 units)
        assert_eq!(short.peak_live_units, 3);
        assert_eq!(long.peak_live_units, short.peak_live_units);
    }

    #[test]
    fn rotate_sum_charges_its_working_set() {
        /// `add`, `mul_rescale`, `rotate`, `mul_plain`, then a two-term
        /// `rotate_sum`; outputs the rotate_sum and the first sum.
        struct Sample;
        impl HeProgram for Sample {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                let s = e.add(&i[0], &i[1])?;
                let m = e.mul_rescale(&s, &i[0])?;
                let r = e.rotate(&m, 1)?;
                let c = e.mul_plain(&r, &[C64::new(0.5, 0.0); 4])?;
                let h = e.rotate_sum(
                    &c,
                    &[
                        RotateSumTerm::new(0, vec![C64::new(1.0, 0.0); 4]),
                        RotateSumTerm::new(2, vec![C64::new(0.25, -0.5); 4]),
                    ],
                )?;
                Ok(vec![h, s])
            }
        }
        // the digit weight scales with the hosting parameter set
        for (params, digit_units) in [(CkksParams::ark(), 3), (CkksParams::f1(), 9)] {
            let ctx = VerifyContext::new(params, &[1, 2], false, None, false).unwrap();
            let report = ctx.verify(&[AbstractInput::at_level(3); 2], &Sample);
            assert!(report.is_ok(), "{:?}", report.finding);
            assert_eq!(report.ops, 5);
            assert_eq!(report.digit_units, digit_units);
            // peak is the rotate_sum event: 2 borrowed inputs + 3 live
            // registers (the sum output, the operand, the result) + 2
            // terms + digits + 1 in-flight product
            assert_eq!(report.peak_event, 4);
            assert_eq!(report.peak_live_units, 2 + 3 + (2 + digit_units + 1));
        }
    }

    #[test]
    fn rejections_carry_runtime_error_classes() {
        struct Underflow;
        impl HeProgram for Underflow {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                let mut ct = i[0].clone();
                loop {
                    ct = e.rescale(&ct)?; // drives the level below 0
                }
            }
        }
        struct ScaleMix;
        impl HeProgram for ScaleMix {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                let big = e.mul_const(&i[0], 2.0)?; // scale Δ²
                Ok(vec![e.add(&big, &i[0])?]) // Δ² vs Δ
            }
        }
        struct BadRot;
        impl HeProgram for BadRot {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                Ok(vec![e.rotate(&i[0], 5)?]) // only rotation 1 declared
            }
        }
        let ctx = tiny_ctx();
        let ins = [AbstractInput::at_level(2)];
        assert!(matches!(
            ctx.verify(&ins, &Underflow).error(),
            Some(ArkError::ModulusChainExhausted)
        ));
        let r = ctx.verify(&ins, &Underflow);
        assert_eq!(r.finding.unwrap().op_index, 2); // two rescales verified
        assert!(matches!(
            ctx.verify(&ins, &ScaleMix).error(),
            Some(ArkError::ScaleMismatch { .. })
        ));
        assert!(matches!(
            ctx.verify(&ins, &BadRot).error(),
            Some(ArkError::MissingRotationKey { amount: 5 })
        ));
    }

    #[test]
    fn key_surface_and_schedule_are_reported() {
        struct RotAndConj;
        impl HeProgram for RotAndConj {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                let r = e.rotate(&i[0], 1)?;
                let c = e.conjugate(&r)?;
                let m = e.mul_rescale(&c, &i[0])?;
                Ok(vec![m])
            }
        }
        let ctx = VerifyContext::new(CkksParams::tiny(), &[1], true, None, false).unwrap();
        let report = ctx.verify(&[AbstractInput::at_level(2)], &RotAndConj);
        assert!(report.is_ok(), "{:?}", report.finding);
        assert_eq!(report.rotations, vec![1]);
        assert!(report.conjugation);
        assert_eq!(report.galois_elements.len(), 2);
        assert_eq!(report.ops, 3);
        assert_eq!(report.schedule.len(), 3);
        assert_eq!(report.output_levels, vec![1]);
        assert_eq!(report.min_level, 1);
    }

    #[test]
    fn software_and_simulated_traces_match_exactly() {
        struct Mix;
        impl HeProgram for Mix {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                let p = e.mul_const(&i[0], 3.0)?;
                let p = e.rescale(&p)?;
                let q = e.mul_rescale(&p, &p)?;
                Ok(vec![q])
            }
        }
        let run = |backend| {
            let mut engine = Engine::builder()
                .params(CkksParams::tiny())
                .backend(backend)
                .build()
                .unwrap();
            let x = vec![C64::new(0.5, 0.0); engine.params().slots()];
            let outcome = engine.execute(&[ProgramInput::new(x, 2)], &Mix).unwrap();
            (engine.verify_context(), outcome.trace().ops().to_vec())
        };
        let (_, software) = run(Backend::Software);
        let (ctx, simulated) = run(Backend::Simulated(crate::arch::ArkConfig::base()));
        assert_eq!(simulated, software);
        // the abstract scale is exact: Δ is a power of two
        let report = ctx.verify(&[AbstractInput::at_level(2)], &Mix);
        assert!(report.is_ok());
        assert_eq!(report.trace_len, software.len());
        assert_eq!(report.output_scales, vec![CkksParams::tiny().scale()]);
        assert_eq!(report.output_levels, vec![0]);
    }

    #[test]
    fn engine_preflight_rejects_before_running() {
        struct BadRot;
        impl HeProgram for BadRot {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                Ok(vec![e.rotate(&i[0], 3)?])
            }
        }
        let mut engine = Engine::builder()
            .params(CkksParams::tiny())
            .verify(true)
            .build()
            .unwrap();
        let slots = engine.params().slots();
        let x = vec![C64::new(1.0, 0.0); slots];
        let err = engine
            .execute(&[ProgramInput::new(x, 2)], &BadRot)
            .unwrap_err();
        assert!(matches!(err, ArkError::MissingRotationKey { amount: 3 }));
    }

    #[test]
    fn unused_inputs_and_dead_results_cost_nothing_beyond_definition() {
        struct DeadCode;
        impl HeProgram for DeadCode {
            fn run<E: HeEvaluator>(&self, e: &mut E, i: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
                let _dead = e.add_const(&i[0], 1.0)?; // result never read
                Ok(vec![e.add_const(&i[0], 2.0)?])
            }
        }
        // 3 inputs, two of them never read
        let ctx = tiny_ctx();
        let ins = [AbstractInput::at_level(2); 3];
        let report = ctx.verify(&ins, &DeadCode);
        assert!(report.is_ok());
        // 3 borrowed inputs + input register + result register
        assert_eq!(report.peak_live_units, 5);
    }
}
