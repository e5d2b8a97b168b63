//! A wire-serializable HE program: the register-based op list clients
//! ship to the server.
//!
//! [`HeProgram`] is a Rust trait — it
//! cannot cross a process boundary. [`Program`] is its transportable
//! counterpart: a flat list of ops over virtual registers, where
//! registers `0..n_inputs` are the request's input ciphertexts and
//! every op appends one new register. The server replays the list
//! against any [`HeEvaluator`] — the real software backend or the
//! static verifier's abstract evaluator, which also records the trace
//! the simulated backend costs — so one uploaded program is both
//! executable and costable, exactly like a locally-written
//! `HeProgram`.
//!
//! Decoding validates shape up front: every operand must name an
//! already-defined register and every output a defined one, so a
//! hostile program cannot index out of bounds at execution time.

use ark_ckks::error::{ArkError, ArkResult};
use ark_fhe::engine::{HeEvaluator, HeProgram, RotateSumTerm};
use ark_math::cfft::C64;
use ark_math::wire::{put_f64, put_i64, put_u16, put_u32, Cursor, WireError};

/// A virtual register: an input (indices `0..n_inputs`) or the result
/// of a prior op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reg(pub u16);

/// Cap on plaintext-vector length inside a program (a hostile length
/// field must not drive large allocations; real slot counts are ≤ 2^16).
pub const MAX_PLAIN_LEN: usize = 1 << 17;

/// Cap on the term count of one fused `RotateSum` op (a hostile count
/// must not drive large allocations; real BSGS inner loops are `O(√n)`,
/// far below this).
pub const MAX_ROTATE_SUM_TERMS: usize = 1 << 10;

#[derive(Debug, Clone, PartialEq)]
enum Op {
    Add(u16, u16),
    Sub(u16, u16),
    Negate(u16),
    AddConst(u16, f64),
    MulConst(u16, f64),
    AddPlain(u16, Vec<C64>),
    MulPlain(u16, Vec<C64>),
    Mul(u16, u16),
    Square(u16),
    Rotate(u16, i64),
    Conjugate(u16),
    Rescale(u16),
    MulRescale(u16, u16),
    MulPlainRescale(u16, Vec<C64>),
    ModDropTo(u16, u32),
    Bootstrap(u16),
    RotateSum(u16, Vec<RotateSumTerm>),
}

impl Op {
    /// The registers this op reads.
    fn operands(&self) -> impl Iterator<Item = u16> {
        let (a, b) = match self {
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::MulRescale(a, b) => (*a, Some(*b)),
            Op::Negate(a)
            | Op::AddConst(a, _)
            | Op::MulConst(a, _)
            | Op::AddPlain(a, _)
            | Op::MulPlain(a, _)
            | Op::Square(a)
            | Op::Rotate(a, _)
            | Op::Conjugate(a)
            | Op::Rescale(a)
            | Op::MulPlainRescale(a, _)
            | Op::ModDropTo(a, _)
            | Op::Bootstrap(a)
            | Op::RotateSum(a, _) => (*a, None),
        };
        std::iter::once(a).chain(b)
    }
}

/// A serializable HE program over virtual registers. Build with the
/// fluent methods, mark outputs with [`Program::output`], ship with
/// [`Program::encode`].
///
/// ```
/// use ark_client::program::Program;
///
/// let mut p = Program::new(2);
/// let [x, y] = [p.reg(0), p.reg(1)];
/// let sum = p.add(x, y);
/// let prod = p.mul_rescale(sum, x);
/// let out = p.rotate(prod, 1);
/// p.output(out);
/// assert_eq!(p.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    n_inputs: u16,
    ops: Vec<Op>,
    outputs: Vec<u16>,
}

impl Program {
    /// An empty program over `n_inputs` input registers.
    pub fn new(n_inputs: u16) -> Self {
        Self {
            n_inputs,
            ops: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The register holding input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not an input index.
    pub fn reg(&self, i: u16) -> Reg {
        assert!(i < self.n_inputs, "input {i} out of range");
        Reg(i)
    }

    /// Number of input registers.
    pub fn n_inputs(&self) -> u16 {
        self.n_inputs
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Total term count across every fused `RotateSum` op — the
    /// per-term work (one PMult + accumulate each) the hoisted groups
    /// amortize. Feeds the server's `ops.rotate_sum_terms` counter.
    pub fn rotate_sum_terms(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                Op::RotateSum(_, terms) => terms.len(),
                _ => 0,
            })
            .sum()
    }

    /// True if no ops were added.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The declared output registers.
    pub fn outputs(&self) -> &[u16] {
        &self.outputs
    }

    fn defined(&self) -> u16 {
        self.n_inputs + self.ops.len() as u16
    }

    fn check(&self, r: Reg) -> u16 {
        assert!(r.0 < self.defined(), "register {} not yet defined", r.0);
        r.0
    }

    fn push(&mut self, op: Op) -> Reg {
        assert!(
            (self.ops.len() as u32) + (self.n_inputs as u32) < u16::MAX as u32,
            "program exceeds the register space"
        );
        let r = Reg(self.defined());
        self.ops.push(op);
        r
    }

    /// Marks a register as a program output (outputs are returned in
    /// declaration order).
    ///
    /// # Panics
    ///
    /// Panics if `r` is not yet defined or the output list would
    /// exceed the `u16` wire count (which would otherwise silently
    /// truncate on encode).
    pub fn output(&mut self, r: Reg) {
        let r = self.check(r);
        assert!(
            self.outputs.len() < u16::MAX as usize,
            "output list exceeds the wire count"
        );
        self.outputs.push(r);
    }

    /// `HAdd`.
    pub fn add(&mut self, a: Reg, b: Reg) -> Reg {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Op::Add(a, b))
    }

    /// `HSub`.
    pub fn sub(&mut self, a: Reg, b: Reg) -> Reg {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Op::Sub(a, b))
    }

    /// Negation.
    pub fn negate(&mut self, a: Reg) -> Reg {
        let a = self.check(a);
        self.push(Op::Negate(a))
    }

    /// `CAdd`.
    pub fn add_const(&mut self, a: Reg, c: f64) -> Reg {
        let a = self.check(a);
        self.push(Op::AddConst(a, c))
    }

    /// `CMult`.
    pub fn mul_const(&mut self, a: Reg, c: f64) -> Reg {
        let a = self.check(a);
        self.push(Op::MulConst(a, c))
    }

    /// `PAdd` with an inline plaintext vector.
    pub fn add_plain(&mut self, a: Reg, values: Vec<C64>) -> Reg {
        let a = self.check(a);
        self.push(Op::AddPlain(a, values))
    }

    /// `PMult` with an inline plaintext vector.
    pub fn mul_plain(&mut self, a: Reg, values: Vec<C64>) -> Reg {
        let a = self.check(a);
        self.push(Op::MulPlain(a, values))
    }

    /// `HMult` (relinearized).
    pub fn mul(&mut self, a: Reg, b: Reg) -> Reg {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Op::Mul(a, b))
    }

    /// Squaring.
    pub fn square(&mut self, a: Reg) -> Reg {
        let a = self.check(a);
        self.push(Op::Square(a))
    }

    /// `HRot` by `amount` slots.
    pub fn rotate(&mut self, a: Reg, amount: i64) -> Reg {
        let a = self.check(a);
        self.push(Op::Rotate(a, amount))
    }

    /// `HConj`.
    pub fn conjugate(&mut self, a: Reg) -> Reg {
        let a = self.check(a);
        self.push(Op::Conjugate(a))
    }

    /// `HRescale`.
    pub fn rescale(&mut self, a: Reg) -> Reg {
        let a = self.check(a);
        self.push(Op::Rescale(a))
    }

    /// `HMult` + `HRescale`.
    pub fn mul_rescale(&mut self, a: Reg, b: Reg) -> Reg {
        let (a, b) = (self.check(a), self.check(b));
        self.push(Op::MulRescale(a, b))
    }

    /// `PMult` + `HRescale`.
    pub fn mul_plain_rescale(&mut self, a: Reg, values: Vec<C64>) -> Reg {
        let a = self.check(a);
        self.push(Op::MulPlainRescale(a, values))
    }

    /// Explicit level alignment.
    pub fn mod_drop_to(&mut self, a: Reg, level: usize) -> Reg {
        let a = self.check(a);
        self.push(Op::ModDropTo(a, level as u32))
    }

    /// Bootstrapping (requires a server session built with it).
    pub fn bootstrap(&mut self, a: Reg) -> Reg {
        let a = self.check(a);
        self.push(Op::Bootstrap(a))
    }

    /// Fused hoisted rotate-and-sum (`Σ_k w_k ⊙ rot(a, r_k)`; see
    /// [`HeEvaluator::rotate_sum`]). One op on the wire, one register,
    /// one digit decomposition server-side.
    ///
    /// # Panics
    ///
    /// Panics if the term list is empty or exceeds
    /// [`MAX_ROTATE_SUM_TERMS`] (such a program could never decode).
    pub fn rotate_sum(&mut self, a: Reg, terms: Vec<RotateSumTerm>) -> Reg {
        let a = self.check(a);
        assert!(!terms.is_empty(), "rotate_sum needs at least one term");
        assert!(
            terms.len() <= MAX_ROTATE_SUM_TERMS,
            "rotate_sum carries {} terms, the wire format caps at {}",
            terms.len(),
            MAX_ROTATE_SUM_TERMS
        );
        self.push(Op::RotateSum(a, terms))
    }

    /// Last event at which each register (inputs first, then op
    /// results) is read: the op index of its final operand use, or
    /// `ops.len()` (the output epilogue) for declared outputs. `None`
    /// means the register is never read and not an output — it can be
    /// released the moment it exists.
    fn last_uses(&self) -> Vec<Option<usize>> {
        let mut last = vec![None; self.n_inputs as usize + self.ops.len()];
        for (k, op) in self.ops.iter().enumerate() {
            for r in op.operands() {
                last[r as usize] = Some(k);
            }
        }
        for &r in &self.outputs {
            last[r as usize] = Some(self.ops.len());
        }
        last
    }

    /// The pre-liveness budget weight: every op's register charged
    /// forever (one unit each; a fused `RotateSum` at its full working
    /// set). Kept as the conservative bound the static verifier's
    /// liveness-exact peak (`VerifyReport::peak_live_units`, what
    /// `ark-serve` admission charges) is measured against — for any
    /// program, `peak ≤ n_inputs + worst_case_units(d) + outputs`.
    pub fn worst_case_units(&self, digit_units: usize) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                Op::RotateSum(_, terms) => terms.len() + digit_units + 3,
                _ => 1,
            })
            .sum()
    }

    /// Replays the op list against an evaluator, returning the output
    /// registers. Register references are valid by construction
    /// (builder) or validation (decode), so the only runtime failures
    /// are the evaluator's own typed errors.
    pub fn apply<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
        if inputs.len() != self.n_inputs as usize {
            return Err(ArkError::Serve {
                reason: format!(
                    "program expects {} inputs, request carries {}",
                    self.n_inputs,
                    inputs.len()
                ),
            });
        }
        // liveness-driven replay: registers are released at their last
        // use, so the peak number of live ciphertexts matches the
        // static verifier's peak instead of growing with program length
        let last = self.last_uses();
        let mut regs: Vec<Option<E::Ct>> = inputs
            .iter()
            .enumerate()
            .map(|(r, ct)| last[r].map(|_| ct.clone()))
            .collect();
        let n = self.n_inputs as usize;
        // operands are live by construction (`last[r] ≥ k` for every
        // operand `r` of op `k`), and borrowed in place — no clones
        macro_rules! r {
            ($i:expr) => {
                regs[*$i as usize]
                    .as_ref()
                    .expect("register released before its last use")
            };
        }
        for (k, op) in self.ops.iter().enumerate() {
            let ct = match op {
                Op::Add(a, b) => e.add(r!(a), r!(b))?,
                Op::Sub(a, b) => e.sub(r!(a), r!(b))?,
                Op::Negate(a) => e.negate(r!(a))?,
                Op::AddConst(a, c) => e.add_const(r!(a), *c)?,
                Op::MulConst(a, c) => e.mul_const(r!(a), *c)?,
                Op::AddPlain(a, v) => e.add_plain(r!(a), v)?,
                Op::MulPlain(a, v) => e.mul_plain(r!(a), v)?,
                Op::Mul(a, b) => e.mul(r!(a), r!(b))?,
                Op::Square(a) => e.square(r!(a))?,
                Op::Rotate(a, amount) => e.rotate(r!(a), *amount)?,
                Op::Conjugate(a) => e.conjugate(r!(a))?,
                Op::Rescale(a) => e.rescale(r!(a))?,
                Op::MulRescale(a, b) => e.mul_rescale(r!(a), r!(b))?,
                Op::MulPlainRescale(a, v) => e.mul_plain_rescale(r!(a), v)?,
                Op::ModDropTo(a, level) => e.mod_drop_to(r!(a), *level as usize)?,
                Op::Bootstrap(a) => e.bootstrap(r!(a))?,
                Op::RotateSum(a, terms) => e.rotate_sum(r!(a), terms)?,
            };
            // only an operand of op `k` can have its last use at `k`
            for r in op.operands() {
                if last[r as usize] == Some(k) {
                    regs[r as usize] = None;
                }
            }
            // a result never read again (and not an output) dies here
            regs.push(last[n + k].map(|_| ct));
        }
        Ok(self.outputs.iter().map(|r| r!(r).clone()).collect())
    }

    /// Appends the wire encoding (see the opcode table in the source).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let plain = |out: &mut Vec<u8>, v: &[C64]| {
            put_u32(out, v.len() as u32);
            for z in v {
                put_f64(out, z.re);
                put_f64(out, z.im);
            }
        };
        put_u16(out, self.n_inputs);
        put_u16(out, self.ops.len() as u16);
        for op in &self.ops {
            match op {
                Op::Add(a, b) => {
                    out.push(0);
                    put_u16(out, *a);
                    put_u16(out, *b);
                }
                Op::Sub(a, b) => {
                    out.push(1);
                    put_u16(out, *a);
                    put_u16(out, *b);
                }
                Op::Negate(a) => {
                    out.push(2);
                    put_u16(out, *a);
                }
                Op::AddConst(a, c) => {
                    out.push(3);
                    put_u16(out, *a);
                    put_f64(out, *c);
                }
                Op::MulConst(a, c) => {
                    out.push(4);
                    put_u16(out, *a);
                    put_f64(out, *c);
                }
                Op::AddPlain(a, v) => {
                    out.push(5);
                    put_u16(out, *a);
                    plain(out, v);
                }
                Op::MulPlain(a, v) => {
                    out.push(6);
                    put_u16(out, *a);
                    plain(out, v);
                }
                Op::Mul(a, b) => {
                    out.push(7);
                    put_u16(out, *a);
                    put_u16(out, *b);
                }
                Op::Square(a) => {
                    out.push(8);
                    put_u16(out, *a);
                }
                Op::Rotate(a, amount) => {
                    out.push(9);
                    put_u16(out, *a);
                    put_i64(out, *amount);
                }
                Op::Conjugate(a) => {
                    out.push(10);
                    put_u16(out, *a);
                }
                Op::Rescale(a) => {
                    out.push(11);
                    put_u16(out, *a);
                }
                Op::MulRescale(a, b) => {
                    out.push(12);
                    put_u16(out, *a);
                    put_u16(out, *b);
                }
                Op::MulPlainRescale(a, v) => {
                    out.push(13);
                    put_u16(out, *a);
                    plain(out, v);
                }
                Op::ModDropTo(a, level) => {
                    out.push(14);
                    put_u16(out, *a);
                    put_u32(out, *level);
                }
                Op::Bootstrap(a) => {
                    out.push(15);
                    put_u16(out, *a);
                }
                Op::RotateSum(a, terms) => {
                    out.push(16);
                    put_u16(out, *a);
                    put_u16(out, terms.len() as u16);
                    for t in terms {
                        put_i64(out, t.amount);
                        plain(out, &t.weights);
                    }
                }
            }
        }
        put_u16(out, self.outputs.len() as u16);
        for &r in &self.outputs {
            put_u16(out, r);
        }
    }

    /// Decodes and validates a program: every operand must reference an
    /// already-defined register, every output a defined register, and
    /// plaintext vectors stay under [`MAX_PLAIN_LEN`].
    pub fn decode(cur: &mut Cursor<'_>) -> ArkResult<Program> {
        let malformed = |what: String| ArkError::Wire(WireError::Malformed { what });
        let n_inputs = cur.u16()?;
        let n_ops = cur.u16()? as usize;
        let mut ops = Vec::with_capacity(n_ops.min(1024));
        for i in 0..n_ops {
            let defined = n_inputs as u32 + i as u32;
            if defined >= u16::MAX as u32 {
                return Err(malformed("program exceeds the register space".into()));
            }
            let operand = |cur: &mut Cursor<'_>| -> ArkResult<u16> {
                let r = cur.u16()?;
                if (r as u32) >= defined {
                    return Err(malformed(format!(
                        "op {i} references register {r}, only {defined} defined"
                    )));
                }
                Ok(r)
            };
            // hostile floats (NaN, ±inf) would reach `assert!`s inside
            // encode/ops — reject them at the wire boundary
            let finite = |v: f64| -> ArkResult<f64> {
                if v.is_finite() {
                    Ok(v)
                } else {
                    Err(malformed(format!("non-finite constant {v} in program")))
                }
            };
            let plain = |cur: &mut Cursor<'_>| -> ArkResult<Vec<C64>> {
                let len = cur.u32()? as usize;
                if len > MAX_PLAIN_LEN {
                    return Err(malformed(format!(
                        "plaintext vector of {len} exceeds the {MAX_PLAIN_LEN} cap"
                    )));
                }
                // bounds-check against the actual payload before reserving
                if cur.remaining() < len * 16 {
                    return Err(ArkError::Wire(WireError::Truncated {
                        needed: len * 16,
                        available: cur.remaining(),
                    }));
                }
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    let re = finite(cur.f64()?)?;
                    let im = finite(cur.f64()?)?;
                    v.push(C64::new(re, im));
                }
                Ok(v)
            };
            let op = match cur.u8()? {
                0 => Op::Add(operand(cur)?, operand(cur)?),
                1 => Op::Sub(operand(cur)?, operand(cur)?),
                2 => Op::Negate(operand(cur)?),
                3 => Op::AddConst(operand(cur)?, finite(cur.f64()?)?),
                4 => Op::MulConst(operand(cur)?, finite(cur.f64()?)?),
                5 => Op::AddPlain(operand(cur)?, plain(cur)?),
                6 => Op::MulPlain(operand(cur)?, plain(cur)?),
                7 => Op::Mul(operand(cur)?, operand(cur)?),
                8 => Op::Square(operand(cur)?),
                9 => Op::Rotate(operand(cur)?, cur.i64()?),
                10 => Op::Conjugate(operand(cur)?),
                11 => Op::Rescale(operand(cur)?),
                12 => Op::MulRescale(operand(cur)?, operand(cur)?),
                13 => Op::MulPlainRescale(operand(cur)?, plain(cur)?),
                14 => Op::ModDropTo(operand(cur)?, cur.u32()?),
                15 => Op::Bootstrap(operand(cur)?),
                16 => {
                    let a = operand(cur)?;
                    let n_terms = cur.u16()? as usize;
                    if n_terms == 0 || n_terms > MAX_ROTATE_SUM_TERMS {
                        return Err(malformed(format!(
                            "rotate_sum carries {n_terms} terms, \
                             accepted range is 1..={MAX_ROTATE_SUM_TERMS}"
                        )));
                    }
                    let mut terms = Vec::with_capacity(n_terms);
                    for _ in 0..n_terms {
                        let amount = cur.i64()?;
                        terms.push(RotateSumTerm::new(amount, plain(cur)?));
                    }
                    Op::RotateSum(a, terms)
                }
                t => return Err(malformed(format!("unknown opcode {t}"))),
            };
            ops.push(op);
        }
        let defined = n_inputs as u32 + ops.len() as u32;
        let n_outputs = cur.u16()? as usize;
        let mut outputs = Vec::with_capacity(n_outputs);
        for _ in 0..n_outputs {
            let r = cur.u16()?;
            if (r as u32) >= defined {
                return Err(malformed(format!(
                    "output references register {r}, only {defined} defined"
                )));
            }
            outputs.push(r);
        }
        Ok(Program {
            n_inputs,
            ops,
            outputs,
        })
    }
}

impl HeProgram for Program {
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
        self.apply(e, inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        let mut p = Program::new(2);
        let x = p.reg(0);
        let y = p.reg(1);
        let s = p.add(x, y);
        let m = p.mul_rescale(s, x);
        let r = p.rotate(m, 1);
        let c = p.mul_plain(r, vec![C64::new(0.5, 0.0); 4]);
        let h = p.rotate_sum(
            c,
            vec![
                RotateSumTerm::new(0, vec![C64::new(1.0, 0.0); 4]),
                RotateSumTerm::new(2, vec![C64::new(0.25, -0.5); 4]),
            ],
        );
        p.output(h);
        p.output(s);
        p
    }

    #[test]
    fn program_roundtrips() {
        let p = sample();
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        let mut cur = Cursor::new(&bytes);
        let q = Program::decode(&mut cur).unwrap();
        cur.finish().unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn decode_rejects_forward_reference() {
        let mut p = sample();
        // hand-corrupt: make the first op reference a not-yet-defined reg
        let mut bytes = Vec::new();
        p.ops[0] = Op::Add(0, 1);
        p.encode(&mut bytes);
        // first op's second operand sits at: n_inputs(2) + n_ops(2) + opcode(1) + a(2)
        bytes[7..9].copy_from_slice(&10u16.to_le_bytes());
        let mut cur = Cursor::new(&bytes);
        assert!(matches!(
            Program::decode(&mut cur).unwrap_err(),
            ArkError::Wire(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn decode_rejects_oversized_plain_vector() {
        let mut p = Program::new(1);
        let x = p.reg(0);
        let v = p.add_plain(x, vec![C64::new(1.0, 0.0); 2]);
        p.output(v);
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        // plain-vector length field sits after n_inputs, n_ops, opcode, operand
        let off = 2 + 2 + 1 + 2;
        bytes[off..off + 4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut cur = Cursor::new(&bytes);
        assert!(Program::decode(&mut cur).is_err());
    }

    #[test]
    #[should_panic(expected = "not yet defined")]
    fn builder_rejects_undefined_register() {
        let mut p = Program::new(1);
        p.add(Reg(0), Reg(5));
    }

    #[test]
    fn worst_case_charges_every_op_forever() {
        let p = sample();
        assert_eq!(p.len(), 5);
        // four one-unit ops + the rotate_sum's 2 terms, digits and 3
        assert_eq!(p.worst_case_units(3), 4 + (2 + 3 + 3));
        let mut chain = Program::new(1);
        let mut r = chain.reg(0);
        for _ in 0..500 {
            r = chain.add_const(r, 1.0);
        }
        chain.output(r);
        assert_eq!(chain.worst_case_units(0), 500);
    }

    #[test]
    fn decode_rejects_hostile_rotate_sum_term_count() {
        let mut p = Program::new(1);
        let x = p.reg(0);
        let h = p.rotate_sum(x, vec![RotateSumTerm::new(1, vec![C64::new(1.0, 0.0)])]);
        p.output(h);
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        // term-count field sits after n_inputs, n_ops, opcode, operand
        let off = 2 + 2 + 1 + 2;
        for evil in [0u16, (MAX_ROTATE_SUM_TERMS + 1) as u16] {
            let mut b = bytes.clone();
            b[off..off + 2].copy_from_slice(&evil.to_le_bytes());
            let mut cur = Cursor::new(&b);
            assert!(
                matches!(
                    Program::decode(&mut cur).unwrap_err(),
                    ArkError::Wire(WireError::Malformed { .. })
                ),
                "{evil} terms must be rejected"
            );
        }
    }

    #[test]
    fn decode_rejects_non_finite_rotate_sum_weights() {
        let mut p = Program::new(1);
        let x = p.reg(0);
        let h = p.rotate_sum(x, vec![RotateSumTerm::new(1, vec![C64::new(1.0, 0.0)])]);
        p.output(h);
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        // first weight's re: n_inputs, n_ops, opcode, operand, n_terms,
        // amount, plain-len
        let off = 2 + 2 + 1 + 2 + 2 + 8 + 4;
        bytes[off..off + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let mut cur = Cursor::new(&bytes);
        assert!(matches!(
            Program::decode(&mut cur).unwrap_err(),
            ArkError::Wire(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn decode_rejects_non_finite_floats() {
        // NaN/inf constants would reach asserts inside encode/ops
        let mut p = Program::new(1);
        let x = p.reg(0);
        let c = p.add_const(x, 1.0);
        p.output(c);
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        // the f64 sits after n_inputs, n_ops, opcode, operand
        let off = 2 + 2 + 1 + 2;
        for evil in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut b = bytes.clone();
            b[off..off + 8].copy_from_slice(&evil.to_bits().to_le_bytes());
            let mut cur = Cursor::new(&b);
            assert!(
                matches!(
                    Program::decode(&mut cur).unwrap_err(),
                    ArkError::Wire(WireError::Malformed { .. })
                ),
                "{evil} must be rejected"
            );
        }

        let mut p = Program::new(1);
        let x = p.reg(0);
        let v = p.mul_plain(x, vec![C64::new(f64::NAN, 0.0)]);
        p.output(v);
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        let mut cur = Cursor::new(&bytes);
        assert!(matches!(
            Program::decode(&mut cur).unwrap_err(),
            ArkError::Wire(WireError::Malformed { .. })
        ));
    }
}
