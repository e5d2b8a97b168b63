//! The unified engine: one backend-agnostic session layer over the
//! functional CKKS scheme and the ARK accelerator model.
//!
//! The seed library exposed two disjoint worlds: `CkksContext` methods
//! with secret/evaluation/rotation keys hand-threaded through every
//! call, and free functions `run`/`simulate` over workload traces. This
//! module fuses them behind one session object:
//!
//! - [`Engine`] — built once via [`Engine::builder`], owning the
//!   parameter set, the backend, and (on the software backend) a
//!   [`KeyChain`] generated up front so no call site threads keys;
//! - [`HeEvaluator`] — the backend-agnostic operation trait
//!   (`add`/`sub`/`mul`/`rotate`/`rescale`/`bootstrap`/…) with two
//!   implementations: [`SoftwareEvaluator`] executes real RNS-CKKS
//!   arithmetic via `ark-ckks`, and the static verifier's
//!   [`AbstractEvaluator`] records the op sequence as an
//!   [`ark_workloads::Trace`] while tracking level/scale metadata
//!   symbolically;
//! - [`HeProgram`] — a user program written once against the trait and
//!   executed on either backend through [`Engine::execute`], yielding
//!   decrypted outputs on [`Backend::Software`] and a cycle-level
//!   [`SimReport`] on [`Backend::Simulated`] (abstract evaluation, then
//!   `ark_core::sched::run` over the recorded trace).
//!
//! Both evaluators record the trace, so the *same program* can be
//! checked for op-sequence equality across backends (see
//! `tests/engine_errors.rs`) and costed at paper-scale parameters
//! without ever materializing a 2^16-degree ciphertext.
//!
//! ```no_run
//! use ark_fhe::engine::{Backend, Engine, HeEvaluator, HeProgram, ProgramInput};
//! use ark_fhe::error::ArkResult;
//! use ark_fhe::ckks::params::CkksParams;
//! use ark_fhe::math::cfft::C64;
//!
//! struct SquareAndShift;
//! impl HeProgram for SquareAndShift {
//!     fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
//!         let sq = e.square(&inputs[0])?;
//!         let sq = e.rescale(&sq)?;
//!         Ok(vec![e.rotate(&sq, 1)?])
//!     }
//! }
//!
//! let mut engine = Engine::builder()
//!     .params(CkksParams::small())
//!     .backend(Backend::Software)
//!     .rotations(&[1])
//!     .build()?;
//! let x = vec![C64::new(0.5, 0.0); 8];
//! let outcome = engine.execute(&[ProgramInput::new(x, 4)], &SquareAndShift)?;
//! # Ok::<(), ark_fhe::error::ArkError>(())
//! ```

use crate::error::{ArkError, ArkResult};
use crate::verify::{AbstractEvaluator, VerifyContext};
use ark_ckks::bootstrap::{BootstrapConfig, Bootstrapper};
use ark_ckks::keys::{CompressedRotationKeys, EvalKey, PublicKey, RotationKeys, SecretKey};
use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::{Ciphertext, Plaintext};
use ark_core::compile::CompileOptions;
use ark_core::config::ArkConfig;
use ark_core::sched::SimReport;
use ark_math::automorphism::GaloisElement;
use ark_math::cfft::C64;
use ark_math::par::{self, ThreadPool};
use ark_math::poly::derive_seed;
use ark_workloads::bootstrap::{bootstrap_trace, post_bootstrap_level, BootstrapTraceConfig};
use ark_workloads::trace::{HeOp, KeyId, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

pub(crate) fn check_levels(a: usize, b: usize) -> ArkResult<()> {
    if a == b {
        Ok(())
    } else {
        Err(ArkError::LevelMismatch {
            expected: a,
            found: b,
        })
    }
}

/// The slot-capacity check the software backend applies at encode time
/// (`input`, `add_plain`, `mul_plain`), shared with the trace and
/// abstract evaluators so all three reject an oversized plaintext
/// vector with the identical typed error.
pub(crate) fn check_slots(len: usize, slots: usize) -> ArkResult<()> {
    if len > slots {
        return Err(ArkError::InvalidParams {
            reason: format!("{len} values exceed {slots} slots"),
        });
    }
    Ok(())
}

/// Which execution substrate a session runs on.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Real RNS-CKKS arithmetic on the host (`ark-ckks`); programs
    /// yield decryptable ciphertexts.
    Software,
    /// The cycle-level ARK model (`ark-core`); programs yield a
    /// [`SimReport`] instead of ciphertexts, so paper-scale parameter
    /// sets are practical.
    Simulated(ArkConfig),
}

impl Backend {
    /// Short backend name, used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Software => "software",
            Backend::Simulated(_) => "simulated",
        }
    }
}

/// The rotation amounts and conjugation flag a session was declared
/// with — the user-visible rotation surface, identical on both
/// backends so key-resolution errors agree. Bootstrapping transform
/// keys are generated on the software backend but stay internal; they
/// never appear here.
///
/// Amounts are stored *normalized* modulo the slot count (the single
/// choke point [`GaloisElement::normalize_rotation`]), so declaring
/// `r` and asking for `r − n_slots` — or any mixed-sign spelling of
/// the same rotation — resolves to the same key.
#[derive(Debug, Clone, Default)]
pub struct DeclaredKeys {
    /// Normalized amounts in `1..n_slots` (0 is keyless and never stored).
    rotations: BTreeSet<i64>,
    conjugation: bool,
    /// Slot count the amounts are normalized against (0 only in the
    /// `Default` empty set, which declares nothing).
    slots: usize,
}

impl DeclaredKeys {
    fn new(rotations: &[i64], conjugation: bool, slots: usize) -> Self {
        Self::declare(rotations, conjugation, slots)
    }

    /// Builds a declared-key surface without generating any key
    /// material — the shape static verification
    /// ([`crate::verify::VerifyContext`]) resolves rotations against
    /// when no engine (hence no [`KeyChain`]) exists. Amounts normalize
    /// through the same choke point the builder uses, so a surface
    /// declared here accepts exactly the programs a built engine with
    /// the same declarations would.
    pub fn declare(rotations: &[i64], conjugation: bool, slots: usize) -> Self {
        let rotations = rotations
            .iter()
            .map(|&r| GaloisElement::normalize_rotation(r, slots))
            .filter(|&r| r != 0)
            .collect();
        Self {
            rotations,
            conjugation,
            slots,
        }
    }

    /// True if a rotation by `amount` needs no undeclared key: either
    /// its normalized amount was declared, or it is ≡ 0 mod the slot
    /// count (the identity — always possible without any key).
    pub fn has_rotation(&self, amount: i64) -> bool {
        if self.slots == 0 {
            return false;
        }
        let r = GaloisElement::normalize_rotation(amount, self.slots);
        r == 0 || self.rotations.contains(&r)
    }

    /// True if the conjugation key was declared.
    pub fn has_conjugation(&self) -> bool {
        self.conjugation
    }

    /// The declared rotation amounts, normalized to `1..n_slots`, in
    /// ascending order.
    pub fn rotations(&self) -> impl Iterator<Item = i64> + '_ {
        self.rotations.iter().copied()
    }
}

/// Default bound on the runtime rotation-key LRU cache (entries, each
/// one full [`EvalKey`]). Sized for a couple of concurrent BSGS
/// passes: Min-KS needs 2 keys per pass, the baseline `O(√D)`.
pub const DEFAULT_RUNTIME_KEY_CAPACITY: usize = 64;

// Domain tags separating the key-seed masters' children. Galois
// elements (the other tweak family) are odd and `< 2N ≤ 2^18`, so tags
// at or above `1 << 32` cannot collide with them.
const SEED_TAG_PUBLIC_KEY: u64 = 1 << 32;
const SEED_TAG_MULT_KEY: u64 = (1 << 32) + 1;

/// Bounded LRU of runtime-derived Galois keys, keyed by Galois
/// element. Interior-mutable (and `Sync`) so evaluation-only shared
/// borrows — the shape `ark-serve` fans batches out on — can still
/// populate it.
#[derive(Debug)]
struct RuntimeKeyCache {
    capacity: usize,
    inner: Mutex<RuntimeCacheInner>,
    /// Lookups answered from the cache (atomic: shared evaluators hit
    /// this concurrently; `ark-serve` exports it through `STATS`).
    hits: std::sync::atomic::AtomicU64,
    /// Lookups that had to derive the key.
    misses: std::sync::atomic::AtomicU64,
}

#[derive(Debug, Default)]
struct RuntimeCacheInner {
    /// Monotone use counter backing the LRU order.
    tick: u64,
    /// Galois element → (last-use tick, key).
    keys: HashMap<u64, (u64, Arc<EvalKey>)>,
}

impl RuntimeKeyCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(RuntimeCacheInner::default()),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Returns the cached key for `g`, deriving it via `derive` on a
    /// miss and evicting the least-recently-used entry beyond the
    /// bound. The lock is *released* during derivation — a keygen is
    /// many NTTs, and holding the lock would serialize every
    /// concurrent hit and miss behind it. Two threads racing a miss on
    /// the same element may both derive; derivation is deterministic,
    /// so the loser's bits are identical and the first insert stays
    /// the canonical entry.
    fn get_or_derive(&self, g: GaloisElement, derive: impl FnOnce() -> EvalKey) -> Arc<EvalKey> {
        {
            let mut inner = self.inner.lock().expect("runtime key cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((stamp, key)) = inner.keys.get_mut(&g.0) {
                *stamp = tick;
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return Arc::clone(key);
            }
        }
        self.misses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let key = Arc::new(derive()); // no lock held across the keygen
        let mut inner = self.inner.lock().expect("runtime key cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let out = {
            let entry = inner.keys.entry(g.0).or_insert((tick, key));
            entry.0 = tick; // just used, whoever inserted it
            Arc::clone(&entry.1)
        };
        if inner.keys.len() > self.capacity {
            // the entry just touched carries the max stamp, so the
            // eviction can never remove the key being returned
            let oldest = inner
                .keys
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(&g, _)| g)
                .expect("cache non-empty");
            inner.keys.remove(&oldest);
        }
        out
    }

    fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("runtime key cache poisoned")
            .keys
            .len()
    }
}

/// A Galois key resolved by the [`KeyChain`]: either a borrow of the
/// eagerly generated material or a shared handle into the runtime
/// cache. Both deref to the same bits (derivation is deterministic).
enum ResolvedKey<'a> {
    Eager(&'a EvalKey),
    Runtime(Arc<EvalKey>),
}

impl std::ops::Deref for ResolvedKey<'_> {
    type Target = EvalKey;

    fn deref(&self) -> &EvalKey {
        match self {
            ResolvedKey::Eager(k) => k,
            ResolvedKey::Runtime(k) => k,
        }
    }
}

/// Derives the seeded Galois key for `g` from the chain's master
/// seeds — the same derivation whether it runs eagerly at build time
/// or lazily on a runtime miss, hence bit-identical keys.
fn derive_galois_key(
    ctx: &CkksContext,
    sk: &SecretKey,
    a_master: u64,
    noise_master: u64,
    g: GaloisElement,
) -> EvalKey {
    ctx.gen_galois_key_seeded(
        g,
        sk,
        derive_seed(a_master, g.0),
        derive_seed(noise_master, g.0),
    )
}

/// Every key a software session needs: the secret/public pair, the
/// multiplication key, and rotation keys for all declared amounts,
/// generated once at build time. Operations resolve keys internally —
/// no call site threads key material.
///
/// Key material follows the paper's *runtime data generation*: every
/// uniform `A` half derives from a public per-key seed
/// (`derive_seed(a_master, galois)`), so any Galois key can be
/// re-derived bit-identically at any time. With
/// [`EngineBuilder::runtime_keys`] the chain exploits that at runtime:
/// a rotation miss derives the key on demand into a bounded LRU
/// instead of failing, keyed by Galois element so BSGS passes reuse
/// one entry across operations.
#[derive(Debug)]
pub struct KeyChain {
    sk: SecretKey,
    pk: PublicKey,
    evk_mult: EvalKey,
    rotations: RotationKeys,
    declared: DeclaredKeys,
    /// Public master seed every key's uniform `A` half derives from.
    a_master: u64,
    /// Secret master seed for key-generation noise — never serialized
    /// (a published error term would hand out `A·S = B − E`).
    noise_master: u64,
    /// Runtime-derived Galois keys, present iff `runtime_keys(true)`.
    runtime: Option<RuntimeKeyCache>,
}

impl KeyChain {
    /// Generates the full chain for a context. `keygen_rotations` may
    /// exceed the declared set (bootstrapping transform keys are
    /// generated but stay internal — they are not part of the declared,
    /// user-visible rotation surface). All evaluation keys derive from
    /// per-key seeds fanned out of the two masters, independent of
    /// `rng`'s further stream position, so eagerly generated keys are
    /// bit-identical to their runtime-derived counterparts.
    fn generate<R: rand::Rng>(
        ctx: &CkksContext,
        declared: DeclaredKeys,
        keygen_rotations: &[i64],
        runtime_capacity: Option<usize>,
        rng: &mut R,
    ) -> Self {
        let sk = ctx.gen_secret_key(rng);
        // the masters are *drawn* from the generator, never derived
        // from the builder seed by the (invertible, per-tweak)
        // derive_seed mixer: a_master ships inside every compressed
        // key frame, and an algebraically invertible path from it back
        // to the seed that also generates `sk` would hand the secret
        // key to anyone holding a compressed frame. One generator
        // output does not expose the 256-bit stream state. (The
        // builder seed itself is still the 64-bit root secret of a
        // session — the toy posture of the vendored RNG; see
        // `vendor/rand`.)
        let a_master = rng.gen::<u64>();
        let noise_master = rng.gen::<u64>();
        let pk = ctx.gen_public_key_seeded(
            &sk,
            derive_seed(a_master, SEED_TAG_PUBLIC_KEY),
            derive_seed(noise_master, SEED_TAG_PUBLIC_KEY),
        );
        let evk_mult = ctx.gen_mult_key_seeded(
            &sk,
            derive_seed(a_master, SEED_TAG_MULT_KEY),
            derive_seed(noise_master, SEED_TAG_MULT_KEY),
        );
        let n = ctx.params().n();
        let slots = ctx.params().slots();
        let mut rotations = RotationKeys::new();
        for &r in keygen_rotations {
            if GaloisElement::normalize_rotation(r, slots) == 0 {
                continue; // identity rotations are keyless
            }
            let g = GaloisElement::from_rotation(r, n);
            if rotations.get(g).is_none() {
                rotations.insert(g, derive_galois_key(ctx, &sk, a_master, noise_master, g));
            }
        }
        if declared.conjugation {
            let g = GaloisElement::conjugation(n);
            rotations.insert(g, derive_galois_key(ctx, &sk, a_master, noise_master, g));
        }
        Self {
            sk,
            pk,
            evk_mult,
            rotations,
            declared,
            a_master,
            noise_master,
            runtime: runtime_capacity.map(RuntimeKeyCache::new),
        }
    }

    /// True if rotation keys are derived on demand instead of erroring
    /// on undeclared amounts.
    pub fn runtime_keys_enabled(&self) -> bool {
        self.runtime.is_some()
    }

    /// Number of Galois keys currently resident in the runtime cache
    /// (0 when runtime keys are disabled).
    pub fn runtime_cached_keys(&self) -> usize {
        self.runtime.as_ref().map_or(0, RuntimeKeyCache::len)
    }

    /// Lifetime `(hits, misses)` of the runtime key cache — a hit is a
    /// lookup answered from the cache, a miss one that derived the key
    /// on demand. `(0, 0)` when runtime keys are disabled. `ark-serve`
    /// surfaces these through its `STATS` message.
    pub fn runtime_key_cache_stats(&self) -> (u64, u64) {
        self.runtime.as_ref().map_or((0, 0), |c| {
            (
                c.hits.load(std::sync::atomic::Ordering::Relaxed),
                c.misses.load(std::sync::atomic::Ordering::Relaxed),
            )
        })
    }

    /// Resolves the key for a Galois element: eagerly generated
    /// material first (declared rotations, conjugation, bootstrap
    /// transform keys), then the runtime cache — deriving on a miss.
    /// `None` when the key is neither held nor runtime-derivable.
    fn galois_key(&self, ctx: &CkksContext, g: GaloisElement) -> Option<ResolvedKey<'_>> {
        if let Some(key) = self.rotations.get(g) {
            return Some(ResolvedKey::Eager(key));
        }
        let cache = self.runtime.as_ref()?;
        Some(ResolvedKey::Runtime(cache.get_or_derive(g, || {
            derive_galois_key(ctx, &self.sk, self.a_master, self.noise_master, g)
        })))
    }

    /// The public encryption key.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// The multiplication (relinearization) key.
    pub fn mult_key(&self) -> &EvalKey {
        &self.evk_mult
    }

    /// The rotation/conjugation key set.
    pub fn rotation_keys(&self) -> &RotationKeys {
        &self.rotations
    }

    /// The *declared*, user-visible subset of the rotation/conjugation
    /// keys in seed-compressed form — what key distribution ships. A
    /// bootstrapping session also holds internal transform keys in
    /// [`Self::rotation_keys`]; those never appear here (they are not
    /// part of the declared surface, and exporting them would balloon
    /// key downloads far beyond what the session asked for).
    /// Compresses straight off the eager material, so only the `B`
    /// halves are copied — the re-derivable `A` halves never are.
    pub fn compressed_declared_keys(&self) -> Option<CompressedRotationKeys> {
        let n = 2 * self.declared.slots.max(1); // slots = N/2
        let mut elements: Vec<u64> = self
            .declared
            .rotations()
            .map(|r| GaloisElement::from_rotation(r, n).0)
            .collect();
        if self.declared.conjugation {
            elements.push(GaloisElement::conjugation(n).0);
        }
        self.rotations.compress_subset(&elements)
    }

    /// The declared key set this chain was generated from.
    pub fn declared(&self) -> &DeclaredKeys {
        &self.declared
    }

    /// Total evaluation-key storage in words (the working set the ARK
    /// scratchpad must hold).
    pub fn evk_words(&self) -> usize {
        self.evk_mult.words() + self.rotations.words()
    }

    /// Total key-material bytes held by this chain: public key,
    /// multiplication key, rotation keys and the secret key. This is
    /// the per-parameter-set resident cost an `ark-serve` server pays
    /// *once* and then shares across every session — the serving-layer
    /// analogue of ARK's inter-operation key reuse.
    pub fn byte_len(&self) -> usize {
        self.pk.byte_len()
            + self.evk_mult.byte_len()
            + self.rotations.byte_len()
            + self.sk.byte_len()
    }
}

/// One program input: the slot values (used by the software backend)
/// and the level the ciphertext enters at (used by both).
#[derive(Debug, Clone)]
pub struct ProgramInput {
    /// Slot values; ignored by the simulated backend.
    pub values: Vec<C64>,
    /// Level the input ciphertext is encrypted at.
    pub level: usize,
}

impl ProgramInput {
    /// An input with real slot values.
    pub fn new(values: Vec<C64>, level: usize) -> Self {
        Self { values, level }
    }

    /// A shape-only input for the simulated backend.
    pub fn symbolic(level: usize) -> Self {
        Self {
            values: Vec::new(),
            level,
        }
    }
}

/// A user program written once against [`HeEvaluator`] and executable
/// on any backend via [`Engine::execute`].
pub trait HeProgram {
    /// Runs the program over `inputs`, returning the output ciphertexts.
    fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>>;
}

/// What [`Engine::execute`] returns: decrypted outputs on the software
/// backend, a cycle-level report on the simulated backend — plus the
/// recorded op trace on both.
#[derive(Debug)]
pub enum Outcome {
    /// Software execution: the decrypted output slot vectors.
    Software {
        /// One decoded slot vector per program output.
        outputs: Vec<Vec<C64>>,
        /// The op sequence the program executed.
        trace: Trace,
    },
    /// Simulated execution: the accelerator-model report.
    Simulated {
        /// Cycle/traffic/utilization report from `ark-core`.
        report: SimReport,
        /// The op sequence the program recorded.
        trace: Trace,
    },
}

impl Outcome {
    /// The recorded op trace (available on every backend).
    pub fn trace(&self) -> &Trace {
        match self {
            Outcome::Software { trace, .. } | Outcome::Simulated { trace, .. } => trace,
        }
    }

    /// Decrypted outputs, if this was a software run.
    pub fn outputs(&self) -> Option<&[Vec<C64>]> {
        match self {
            Outcome::Software { outputs, .. } => Some(outputs),
            Outcome::Simulated { .. } => None,
        }
    }

    /// The simulation report, if this was a simulated run.
    pub fn report(&self) -> Option<&SimReport> {
        match self {
            Outcome::Simulated { report, .. } => Some(report),
            Outcome::Software { .. } => None,
        }
    }
}

/// One term of a fused [`HeEvaluator::rotate_sum`]: rotate the input
/// left by `amount` slots, then multiply slot-wise by `weights`
/// (encoded at the top-prime scale, like [`HeEvaluator::mul_plain`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RotateSumTerm {
    /// Circular left slot shift (0 and multiples of the slot count are
    /// keyless identities).
    pub amount: i64,
    /// Per-slot weights; at most the slot count.
    pub weights: Vec<C64>,
}

impl RotateSumTerm {
    /// A weighted-rotation term.
    pub fn new(amount: i64, weights: Vec<C64>) -> Self {
        Self { amount, weights }
    }
}

/// The backend-agnostic HE operation set (Table II of the paper, plus
/// bootstrapping): programs written against this trait run unchanged on
/// the software and trace-recording backends.
///
/// Level discipline is strict: binary ops require equal levels and
/// matching scales, surfacing [`ArkError::LevelMismatch`] /
/// [`ArkError::ScaleMismatch`] instead of silently aligning, so a
/// program costed on the simulated backend performs exactly the ops the
/// software backend executes. Use [`HeEvaluator::mod_drop_to`] to align
/// explicitly.
pub trait HeEvaluator {
    /// Backend ciphertext handle.
    type Ct: Clone;

    /// The parameter set operations run under.
    fn params(&self) -> &CkksParams;

    /// The op sequence recorded so far.
    fn trace(&self) -> &Trace;

    /// Creates a fresh input ciphertext at `level` (encrypting `values`
    /// on the software backend; shape-only elsewhere).
    fn input(&mut self, values: &[C64], level: usize) -> ArkResult<Self::Ct>;

    /// Level of a ciphertext handle.
    fn level(&self, ct: &Self::Ct) -> usize;

    /// Scale of a ciphertext handle.
    fn scale(&self, ct: &Self::Ct) -> f64;

    /// `HAdd`: slot-wise sum (equal levels, matching scales).
    fn add(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct>;

    /// `HSub`: slot-wise difference (equal levels, matching scales).
    fn sub(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct>;

    /// Slot-wise negation.
    fn negate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct>;

    /// `CAdd`: adds a real constant to every slot.
    fn add_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct>;

    /// `CMult`: multiplies every slot by a real constant, encoded at the
    /// current top-prime scale so a following [`Self::rescale`] restores
    /// the ciphertext scale.
    fn mul_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct>;

    /// `PAdd`: adds a plaintext vector (encoded at the ciphertext's
    /// scale and level internally).
    fn add_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct>;

    /// `PMult`: multiplies by a plaintext vector (encoded at the
    /// top-prime scale internally); rescale afterwards.
    fn mul_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct>;

    /// `HMult` with relinearization; rescale afterwards.
    fn mul(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct>;

    /// Squares a ciphertext (cheaper than `mul(x, x)`).
    fn square(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct>;

    /// `HRot`: circular left slot shift by `amount`.
    fn rotate(&mut self, ct: &Self::Ct, amount: i64) -> ArkResult<Self::Ct>;

    /// Fused rotate-and-sum (the Eq. 8 BSGS inner loop as one node):
    /// computes `Σ_k weights_k ⊙ rot(ct, amount_k)` with **hoisted**
    /// key-switching — the software backend pays one digit
    /// decomposition for the whole term set instead of one per
    /// rotation, and both backends record the reduced work as
    /// `HRotHoisted` trace ops so `ark-core` simulation reflects the
    /// saved BConv/NTT passes (key loads are per distinct amount,
    /// unchanged). The result's scale is `scale · q_top`, exactly like
    /// [`Self::mul_plain`]; rescale afterwards. Output bits equal the
    /// unfused `rotate`/`mul_plain`/`add` spelling.
    ///
    /// # Errors
    ///
    /// [`ArkError::InvalidParams`] for an empty term list or oversized
    /// weights; [`ArkError::MissingRotationKey`] if a term's amount was
    /// never declared (and runtime keys are off) — identical on both
    /// backends.
    fn rotate_sum(&mut self, ct: &Self::Ct, terms: &[RotateSumTerm]) -> ArkResult<Self::Ct>;

    /// `HConj`: slot-wise complex conjugation.
    fn conjugate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct>;

    /// `HRescale`: drops the top limb, dividing the scale by it.
    fn rescale(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct>;

    /// Drops limbs so the ciphertext sits at `level`.
    fn mod_drop_to(&mut self, ct: &Self::Ct, level: usize) -> ArkResult<Self::Ct>;

    /// Refreshes a level-0 ciphertext to a usable level. Requires the
    /// engine to have been built with
    /// [`EngineBuilder::bootstrapping`].
    fn bootstrap(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct>;

    /// `HMult` + `HRescale` — the common pairing.
    fn mul_rescale(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        let p = self.mul(a, b)?;
        self.rescale(&p)
    }

    /// `PMult` + `HRescale`.
    fn mul_plain_rescale(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        let p = self.mul_plain(ct, values)?;
        self.rescale(&p)
    }
}

/// Validates a [`HeEvaluator::rotate_sum`] term list identically on
/// every backend (so both surface the same typed error for the same
/// program): non-empty, weights within the slot count, every rotation
/// either declared or runtime-derivable. Returns the distinct
/// non-identity normalized amounts in ascending order — the rotation
/// set the hoisted group evaluates, and the `HRotHoisted` record order.
pub(crate) fn check_rotate_sum_terms(
    terms: &[RotateSumTerm],
    slots: usize,
    declared: &DeclaredKeys,
    runtime_keys: bool,
) -> ArkResult<Vec<i64>> {
    if terms.is_empty() {
        return Err(ArkError::InvalidParams {
            reason: "rotate_sum needs at least one term".into(),
        });
    }
    for t in terms {
        if t.weights.len() > slots {
            return Err(ArkError::InvalidParams {
                reason: format!("{} weights exceed {} slots", t.weights.len(), slots),
            });
        }
        let reduced = GaloisElement::normalize_rotation(t.amount, slots);
        if reduced != 0 && !declared.has_rotation(reduced) && !runtime_keys {
            return Err(ArkError::MissingRotationKey { amount: t.amount });
        }
    }
    let distinct: BTreeSet<i64> = terms
        .iter()
        .map(|t| GaloisElement::normalize_rotation(t.amount, slots))
        .filter(|&r| r != 0)
        .collect();
    Ok(distinct.into_iter().collect())
}

// ---------------------------------------------------------------------
// software backend
// ---------------------------------------------------------------------

/// Bootstrapping state of a software session.
#[derive(Debug)]
struct SoftwareBoot {
    bootstrapper: Bootstrapper,
    trace_cfg: BootstrapTraceConfig,
}

#[derive(Debug)]
struct SoftwareState {
    ctx: CkksContext,
    keys: KeyChain,
    rng: StdRng,
    boot: Option<SoftwareBoot>,
}

/// [`HeEvaluator`] over real RNS-CKKS arithmetic. Keys resolve from the
/// session [`KeyChain`]; every op is also recorded into a [`Trace`] so
/// software runs can be compared op-for-op with simulated runs.
///
/// Two flavors exist: [`Engine::evaluator`] borrows the session
/// mutably and carries the session RNG, so [`HeEvaluator::input`] can
/// encrypt; [`Engine::shared_evaluator`] borrows it *immutably* (no
/// RNG), so any number can run concurrently over the same keys — the
/// shape `ark-serve` uses to evaluate a batch of client requests in
/// parallel on ciphertexts that were encrypted client-side.
pub struct SoftwareEvaluator<'a> {
    ctx: &'a CkksContext,
    keys: &'a KeyChain,
    /// Encryption randomness; `None` for evaluation-only (shared)
    /// instances, whose `input` reports a typed error instead.
    rng: Option<&'a mut StdRng>,
    boot: Option<&'a SoftwareBoot>,
    trace: Trace,
}

impl SoftwareEvaluator<'_> {
    /// Consumes the evaluator, returning the recorded trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    fn record(&mut self, op: HeOp) {
        self.trace.push(op);
    }

    fn encode_at(&self, values: &[C64], level: usize, scale: f64) -> ArkResult<Plaintext> {
        check_slots(values.len(), self.ctx.params().slots())?;
        Ok(self.ctx.encode(values, level, scale))
    }
}

impl HeEvaluator for SoftwareEvaluator<'_> {
    type Ct = Ciphertext;

    fn params(&self) -> &CkksParams {
        self.ctx.params()
    }

    fn trace(&self) -> &Trace {
        &self.trace
    }

    fn input(&mut self, values: &[C64], level: usize) -> ArkResult<Self::Ct> {
        let max = self.ctx.params().max_level;
        if level > max {
            return Err(ArkError::LevelOutOfRange { level, max });
        }
        let pt = self.encode_at(values, level, self.ctx.params().scale())?;
        let rng = self.rng.as_deref_mut().ok_or(ArkError::KeyChainMissing {
            what: "encryption randomness (shared evaluators are evaluation-only; \
                   encrypt on the owning session or client-side)",
        })?;
        Ok(self.ctx.encrypt_public(&pt, &self.keys.pk, rng))
    }

    fn level(&self, ct: &Self::Ct) -> usize {
        ct.level
    }

    fn scale(&self, ct: &Self::Ct) -> f64 {
        ct.scale
    }

    fn add(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        check_levels(a.level, b.level)?;
        let out = self.ctx.add(a, b)?;
        self.record(HeOp::HAdd { level: out.level });
        Ok(out)
    }

    fn sub(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        check_levels(a.level, b.level)?;
        let out = self.ctx.sub(a, b)?;
        // the trace IR costs HSub as HAdd (identical element-wise work)
        self.record(HeOp::HAdd { level: out.level });
        Ok(out)
    }

    fn negate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        self.record(HeOp::CMult { level: ct.level });
        Ok(self.ctx.negate(ct))
    }

    fn add_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct> {
        self.record(HeOp::CAdd { level: ct.level });
        Ok(self.ctx.add_const(ct, c))
    }

    fn mul_const(&mut self, ct: &Self::Ct, c: f64) -> ArkResult<Self::Ct> {
        self.record(HeOp::CMult { level: ct.level });
        Ok(self.ctx.mul_const(ct, c))
    }

    fn add_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        let pt = self.encode_at(values, ct.level, ct.scale)?;
        let out = self.ctx.add_plain(ct, &pt)?;
        self.record(HeOp::PAdd {
            level: out.level,
            fresh_plaintext: true,
        });
        Ok(out)
    }

    fn mul_plain(&mut self, ct: &Self::Ct, values: &[C64]) -> ArkResult<Self::Ct> {
        check_slots(values.len(), self.ctx.params().slots())?;
        let pt = self.ctx.encode_for_mul(values, ct.level);
        let out = self.ctx.mul_plain(ct, &pt);
        self.record(HeOp::PMult {
            level: out.level,
            fresh_plaintext: true,
        });
        Ok(out)
    }

    fn mul(&mut self, a: &Self::Ct, b: &Self::Ct) -> ArkResult<Self::Ct> {
        check_levels(a.level, b.level)?;
        let out = self.ctx.mul(a, b, &self.keys.evk_mult);
        self.record(HeOp::HMult { level: out.level });
        Ok(out)
    }

    fn square(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        let out = self.ctx.square(ct, &self.keys.evk_mult);
        self.record(HeOp::HMult { level: out.level });
        Ok(out)
    }

    fn rotate(&mut self, ct: &Self::Ct, amount: i64) -> ArkResult<Self::Ct> {
        // normalize through the single choke point so `r` and
        // `r − n_slots` are the same rotation everywhere (key lookup,
        // runtime derivation, trace recording)
        let reduced = GaloisElement::normalize_rotation(amount, self.ctx.params().slots());
        if reduced == 0 {
            // identity rotation: keyless no-op on every backend
            return Ok(ct.clone());
        }
        // resolve against the *declared* set, not the raw key material:
        // bootstrapping generates internal transform keys the trace
        // backend cannot see, and both backends must agree on which
        // rotations a program may use — unless runtime key derivation
        // is on, which makes every rotation available on both backends
        if !self.keys.declared.has_rotation(reduced) && !self.keys.runtime_keys_enabled() {
            return Err(ArkError::MissingRotationKey { amount });
        }
        let g = GaloisElement::from_rotation(reduced, self.ctx.params().n());
        let key = self
            .keys
            .galois_key(self.ctx, g)
            .ok_or(ArkError::MissingRotationKey { amount })?;
        let out = self.ctx.apply_galois(ct, g, &key);
        self.record(HeOp::HRot {
            level: ct.level,
            amount: reduced,
            key: KeyId::Rot(reduced),
        });
        Ok(out)
    }

    fn rotate_sum(&mut self, ct: &Self::Ct, terms: &[RotateSumTerm]) -> ArkResult<Self::Ct> {
        let ctx = self.ctx;
        let keys = self.keys;
        let slots = ctx.params().slots();
        let distinct =
            check_rotate_sum_terms(terms, slots, &keys.declared, keys.runtime_keys_enabled())?;
        // one digit decomposition serves every rotation in the set
        let digits = (!distinct.is_empty()).then(|| ctx.hoist_ciphertext(ct));
        let mut rotated: HashMap<i64, Ciphertext> = HashMap::with_capacity(distinct.len());
        for (i, &r) in distinct.iter().enumerate() {
            let g = GaloisElement::from_rotation(r, ctx.params().n());
            let key = keys
                .galois_key(ctx, g)
                .ok_or(ArkError::MissingRotationKey { amount: r })?;
            let digits = digits.as_ref().expect("digits exist when a rotation does");
            rotated.insert(r, ctx.apply_galois_hoisted(ct, digits, g, &key));
            self.record(HeOp::HRotHoisted {
                level: ct.level,
                amount: r,
                key: KeyId::Rot(r),
                fresh_digits: i == 0,
            });
        }
        let mut acc: Option<Ciphertext> = None;
        for term in terms {
            let reduced = GaloisElement::normalize_rotation(term.amount, slots);
            let base = if reduced == 0 { ct } else { &rotated[&reduced] };
            let pt = ctx.encode_for_mul(&term.weights, ct.level);
            let prod = ctx.mul_plain(base, &pt);
            self.record(HeOp::PMult {
                level: prod.level,
                fresh_plaintext: true,
            });
            acc = Some(match acc.take() {
                None => prod,
                Some(a) => {
                    let sum = ctx.add(&a, &prod)?;
                    self.record(HeOp::HAdd { level: sum.level });
                    sum
                }
            });
        }
        Ok(acc.expect("terms validated non-empty"))
    }

    fn conjugate(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        // same declared-set discipline as rotate, so software and trace
        // backends surface the identical typed error for an undeclared
        // conjugation (runtime derivation lifts it on both)
        if !self.keys.declared.has_conjugation() && !self.keys.runtime_keys_enabled() {
            return Err(ArkError::MissingConjugationKey);
        }
        let g = GaloisElement::conjugation(self.ctx.params().n());
        let key = self
            .keys
            .galois_key(self.ctx, g)
            .ok_or(ArkError::MissingConjugationKey)?;
        let out = self.ctx.apply_galois(ct, g, &key);
        self.record(HeOp::HConj { level: ct.level });
        Ok(out)
    }

    fn rescale(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        let out = self.ctx.rescale(ct)?;
        self.record(HeOp::HRescale { level: ct.level });
        Ok(out)
    }

    fn mod_drop_to(&mut self, ct: &Self::Ct, level: usize) -> ArkResult<Self::Ct> {
        // limb dropping is pure bookkeeping — no trace op
        self.ctx.mod_drop_to(ct, level)
    }

    fn bootstrap(&mut self, ct: &Self::Ct) -> ArkResult<Self::Ct> {
        let boot = self.boot.ok_or(ArkError::KeyChainMissing {
            what: "bootstrapping keys (build the engine with EngineBuilder::bootstrapping)",
        })?;
        if ct.level != 0 {
            return Err(ArkError::LevelMismatch {
                expected: 0,
                found: ct.level,
            });
        }
        let out =
            boot.bootstrapper
                .bootstrap(self.ctx, ct, &self.keys.evk_mult, &self.keys.rotations)?;
        // record the analytic bootstrap trace (the same sub-trace the
        // simulated backend records), keeping cross-backend op parity
        self.trace
            .extend(&bootstrap_trace(self.ctx.params(), &boot.trace_cfg));
        // snap the result to the analytic post-bootstrap level so both
        // backends agree on every level annotation after a bootstrap;
        // the functional pipeline may finish a level or two higher
        // (its Chebyshev depth can undercut the analytic estimate)
        let analytic = post_bootstrap_level(self.ctx.params(), &boot.trace_cfg);
        if out.level < analytic {
            return Err(ArkError::InvalidParams {
                reason: format!(
                    "bootstrap finished at level {} below the analytic model's {}; \
                     lower BootstrapTraceConfig's estimate or the EvalMod depth",
                    out.level, analytic
                ),
            });
        }
        self.ctx.mod_drop_to(&out, analytic)
    }
}

// ---------------------------------------------------------------------
// simulated backend
// ---------------------------------------------------------------------

/// Derives the analytic bootstrap sub-trace configuration a session
/// with `cfg` would fix at build time — the same derivation
/// [`EngineBuilder::build`] performs, exposed so key-free consumers
/// (static verification, the `ark-verify` CLI) can model bootstrap
/// level consumption without constructing an engine.
pub fn bootstrap_trace_config(params: &CkksParams, cfg: &BootstrapConfig) -> BootstrapTraceConfig {
    BootstrapTraceConfig {
        slots_log2: params.log_n - 1,
        radix_log2: cfg.radix_log2.max(1) as u32,
        strategy: cfg.strategy,
        evalmod_degree: cfg.evalmod.degree,
        spare_levels: None,
    }
}

#[derive(Debug)]
struct SimulatedState {
    cfg: ArkConfig,
    compile: CompileOptions,
    /// Declared key surface, bootstrap configuration and runtime-key
    /// policy: the simulated backend *is* the static verifier's
    /// abstract evaluator, costed by `ark-core`.
    verify: VerifyContext,
}

// ---------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------

#[derive(Debug)]
enum BackendState {
    Software(Box<SoftwareState>),
    Simulated(Box<SimulatedState>),
}

/// One HE session: parameter set + backend + keys, built once, with
/// every operation resolving its key material internally.
#[derive(Debug)]
pub struct Engine {
    params: CkksParams,
    state: BackendState,
    threads: usize,
    /// Pre-flight every `execute` through the static verifier
    /// ([`EngineBuilder::verify`]).
    verify: bool,
}

/// Builder for [`Engine`] — declare the parameter set, backend, key
/// set and (optionally) bootstrapping support, then [`build`](Self::build).
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until `.build()` is called"]
pub struct EngineBuilder {
    params: Option<CkksParams>,
    backend: Backend,
    seed: u64,
    rotations: Vec<i64>,
    conjugation: bool,
    runtime_keys: bool,
    runtime_key_capacity: usize,
    bootstrapping: Option<BootstrapConfig>,
    compile: CompileOptions,
    threads: Option<usize>,
    verify: bool,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self {
            params: None,
            backend: Backend::Software,
            seed: 0,
            rotations: Vec::new(),
            conjugation: false,
            runtime_keys: false,
            runtime_key_capacity: DEFAULT_RUNTIME_KEY_CAPACITY,
            bootstrapping: None,
            compile: CompileOptions::all_on(),
            threads: None,
            verify: false,
        }
    }
}

impl EngineBuilder {
    /// Sets the CKKS parameter set (required).
    pub fn params(mut self, params: CkksParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Selects the backend (default: [`Backend::Software`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Seeds key generation and encryption randomness (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Declares rotation amounts the session will use; keys are
    /// generated once at build time.
    pub fn rotations(mut self, amounts: &[i64]) -> Self {
        self.rotations.extend_from_slice(amounts);
        self
    }

    /// Declares the conjugation key.
    pub fn conjugation(mut self, on: bool) -> Self {
        self.conjugation = on;
        self
    }

    /// Enables runtime rotation-key generation (default **off**, the
    /// eager-declaration compatibility mode): on a software-backend
    /// rotate or conjugate whose key was never declared, the session
    /// derives the key on demand from the chain's master seed into a
    /// bounded LRU cache ([`Self::runtime_key_capacity`]) instead of
    /// returning [`ArkError::MissingRotationKey`]. Derivation is
    /// deterministic per `(seed, Galois element)`, so a runtime key is
    /// bit-identical to the key an eager declaration would have
    /// produced — results do not depend on which mode generated the
    /// key. The trace backend mirrors the policy (undeclared rotations
    /// record instead of erroring), keeping cross-backend parity.
    pub fn runtime_keys(mut self, on: bool) -> Self {
        self.runtime_keys = on;
        self
    }

    /// Bounds the runtime rotation-key LRU (entries; default
    /// [`DEFAULT_RUNTIME_KEY_CAPACITY`], clamped to ≥ 1). Only
    /// meaningful with [`Self::runtime_keys`]. Evicted keys cost one
    /// keygen to re-derive — size the cache to the working set of
    /// distinct Galois elements your programs touch between reuses.
    pub fn runtime_key_capacity(mut self, entries: usize) -> Self {
        self.runtime_key_capacity = entries.max(1);
        self
    }

    /// Enables [`HeEvaluator::bootstrap`]: generates the transform
    /// rotation keys (software) and fixes the analytic bootstrap
    /// sub-trace (both backends). Implies the conjugation key.
    pub fn bootstrapping(mut self, config: BootstrapConfig) -> Self {
        self.bootstrapping = Some(config);
        self
    }

    /// Compiler switches for the simulated backend (default: Min-KS
    /// era, OF-Limb on).
    pub fn compile_options(mut self, opts: CompileOptions) -> Self {
        self.compile = opts;
        self
    }

    /// Pre-flights every [`Engine::execute`] call through the static
    /// verifier (default **off**): the program is abstractly
    /// interpreted against the session's declared keys and parameter
    /// set before any ciphertext work, so a malformed program returns
    /// its typed error — the same [`ArkError`] class the runtime would
    /// surface mid-evaluation — without spending a single NTT. See
    /// [`crate::verify`]. A simulated session's run already is that
    /// abstract interpretation, so there the setting changes nothing.
    pub fn verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Threads the software backend fans limb-level hot loops out on
    /// (NTT, base conversion, key-switching, element-wise arithmetic).
    /// Defaults to the host's available parallelism; `threads(1)` is the
    /// strictly serial path and any width is bit-identical to it —
    /// thread count changes throughput, never results or recorded
    /// traces. The trace backend records symbolically and ignores the
    /// setting.
    ///
    /// `threads(0)` is **silently clamped to 1** rather than rejected:
    /// a zero often arrives from a computed value (host probing, a
    /// config file defaulting to "unset"), and the serial session it
    /// yields is always correct — so the builder stays infallible here
    /// and `threads(0)` builds an engine observably identical to
    /// `threads(1)` ([`Engine::threads`] reports `1`, and all outputs
    /// are bit-identical; see the `threads_zero_clamps_to_one`
    /// regression test).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Builds the engine, generating the [`KeyChain`] on the software
    /// backend.
    ///
    /// # Errors
    ///
    /// [`ArkError::InvalidParams`] if no parameter set was given or the
    /// set is internally inconsistent (`dnum` must divide `L+1`).
    pub fn build(self) -> ArkResult<Engine> {
        let params = self.params.ok_or(ArkError::InvalidParams {
            reason: "EngineBuilder::params was never called".into(),
        })?;
        if params.dnum == 0 || (params.max_level + 1) % params.dnum != 0 {
            return Err(ArkError::InvalidParams {
                reason: format!(
                    "dnum {} must divide L+1 = {}",
                    params.dnum,
                    params.max_level + 1
                ),
            });
        }
        let declared = DeclaredKeys::new(
            &self.rotations,
            self.conjugation || self.bootstrapping.is_some(),
            params.slots(),
        );
        let trace_cfg = self
            .bootstrapping
            .as_ref()
            .map(|cfg| bootstrap_trace_config(&params, cfg));
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
        let mut threads = self.threads.unwrap_or_else(par::available_parallelism);
        let state = match self.backend {
            Backend::Software => {
                let pool = ThreadPool::new(threads);
                // worker spawning is best-effort; report the width the
                // pool actually obtained, not the one requested
                threads = pool.threads();
                let ctx = CkksContext::with_pool(params.clone(), pool);
                let mut rng = StdRng::seed_from_u64(self.seed);
                let mut keygen_rotations: Vec<i64> = declared.rotations.iter().copied().collect();
                let boot = self.bootstrapping.map(|cfg| {
                    let bootstrapper = Bootstrapper::new(&ctx, cfg);
                    // transform keys are generated but NOT added to the
                    // declared set: they are internal to bootstrap, and
                    // the simulated backend (which never builds the
                    // Bootstrapper) must resolve the same user-facing
                    // rotation set
                    keygen_rotations.extend(bootstrapper.required_rotations());
                    SoftwareBoot {
                        bootstrapper,
                        trace_cfg: trace_cfg.expect("trace config derived with bootstrapping"),
                    }
                });
                let keys = KeyChain::generate(
                    &ctx,
                    declared,
                    &keygen_rotations,
                    self.runtime_keys.then_some(self.runtime_key_capacity),
                    &mut rng,
                );
                BackendState::Software(Box::new(SoftwareState {
                    ctx,
                    keys,
                    rng,
                    boot,
                }))
            }
            Backend::Simulated(cfg) => BackendState::Simulated(Box::new(SimulatedState {
                cfg,
                compile: self.compile,
                verify: VerifyContext::from_parts(
                    params.clone(),
                    declared,
                    trace_cfg,
                    self.runtime_keys,
                ),
            })),
        };
        Ok(Engine {
            params,
            state,
            threads,
            verify: self.verify,
        })
    }
}

impl Engine {
    /// Starts building a session.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The session's parameter set.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Threads the session fans limb-level work out on — the width the
    /// pool actually obtained, which can be lower than the
    /// [`EngineBuilder::threads`] request if worker spawning failed.
    /// Informational on the trace backend.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The wire-format fingerprint of the session's parameter set (see
    /// [`ark_ckks::wire::param_fingerprint`]): the value every frame
    /// this session produces carries, and the address `ark-serve`
    /// clients use to pick a hosted engine.
    pub fn fingerprint(&self) -> u64 {
        ark_ckks::wire::param_fingerprint(&self.params)
    }

    /// Short name of the active backend.
    pub fn backend_name(&self) -> &'static str {
        match &self.state {
            BackendState::Software(_) => "software",
            BackendState::Simulated(_) => "simulated",
        }
    }

    /// The software key chain, if this is a software session.
    pub fn keychain(&self) -> Option<&KeyChain> {
        match &self.state {
            BackendState::Software(sw) => Some(&sw.keys),
            BackendState::Simulated(_) => None,
        }
    }

    /// The functional CKKS context, if this is a software session (for
    /// advanced scheme-level access).
    pub fn context(&self) -> Option<&CkksContext> {
        match &self.state {
            BackendState::Software(sw) => Some(&sw.ctx),
            BackendState::Simulated(_) => None,
        }
    }

    /// Encrypts slot values at `level` under the session public key.
    ///
    /// # Errors
    ///
    /// [`ArkError::UnsupportedOnBackend`] on the simulated backend;
    /// [`ArkError::LevelOutOfRange`] for a level beyond the chain.
    pub fn encrypt(&mut self, values: &[C64], level: usize) -> ArkResult<Ciphertext> {
        // delegate to the evaluator's input path so the checks (level
        // range, slot count) exist in exactly one place
        self.evaluator()
            .map_err(|_| ArkError::UnsupportedOnBackend {
                op: "encrypt",
                backend: "simulated",
            })?
            .input(values, level)
    }

    /// Decrypts and decodes a ciphertext with the session secret key.
    ///
    /// # Errors
    ///
    /// [`ArkError::UnsupportedOnBackend`] on the simulated backend.
    pub fn decrypt(&self, ct: &Ciphertext) -> ArkResult<Vec<C64>> {
        match &self.state {
            BackendState::Software(sw) => Ok(sw.ctx.decrypt_decode(ct, &sw.keys.sk)),
            BackendState::Simulated(_) => Err(ArkError::UnsupportedOnBackend {
                op: "decrypt",
                backend: "simulated",
            }),
        }
    }

    /// A software evaluator borrowing the session keys, for
    /// ciphertext-level control beyond [`Engine::execute`].
    ///
    /// # Errors
    ///
    /// [`ArkError::UnsupportedOnBackend`] on the simulated backend.
    pub fn evaluator(&mut self) -> ArkResult<SoftwareEvaluator<'_>> {
        match &mut self.state {
            BackendState::Software(sw) => Ok(SoftwareEvaluator {
                ctx: &sw.ctx,
                keys: &sw.keys,
                rng: Some(&mut sw.rng),
                boot: sw.boot.as_ref(),
                trace: Trace::new("engine-session"),
            }),
            BackendState::Simulated(_) => Err(ArkError::UnsupportedOnBackend {
                op: "evaluator",
                backend: "simulated",
            }),
        }
    }

    /// An evaluation-only software evaluator borrowing the session
    /// *immutably*: it shares the session [`KeyChain`] but carries no
    /// encryption RNG, so [`HeEvaluator::input`] reports
    /// [`ArkError::KeyChainMissing`] — callers supply ciphertexts that
    /// were encrypted elsewhere (typically client-side, shipped through
    /// the wire format). Because the borrow is shared, any number of
    /// these can evaluate concurrently over the same keys; `ark-serve`
    /// fans whole request batches out this way, one evaluator (hence
    /// one trace) per request, all riding the session thread pool's
    /// limb-parallel hot paths.
    ///
    /// # Errors
    ///
    /// [`ArkError::UnsupportedOnBackend`] on the simulated backend.
    pub fn shared_evaluator(&self) -> ArkResult<SoftwareEvaluator<'_>> {
        match &self.state {
            BackendState::Software(sw) => Ok(SoftwareEvaluator {
                ctx: &sw.ctx,
                keys: &sw.keys,
                rng: None,
                boot: sw.boot.as_ref(),
                trace: Trace::new("engine-session"),
            }),
            BackendState::Simulated(_) => Err(ArkError::UnsupportedOnBackend {
                op: "shared_evaluator",
                backend: "simulated",
            }),
        }
    }

    /// A static-verification context over this session's parameter
    /// set, declared key surface, bootstrap configuration and
    /// runtime-key policy — everything the abstract interpreter
    /// ([`crate::verify`]) needs, with no key material attached.
    /// `ark-serve` admission builds its pre-execution gate from this.
    pub fn verify_context(&self) -> VerifyContext {
        match &self.state {
            BackendState::Software(sw) => VerifyContext::from_parts(
                self.params.clone(),
                sw.keys.declared.clone(),
                sw.boot.as_ref().map(|b| b.trace_cfg),
                sw.keys.runtime_keys_enabled(),
            ),
            BackendState::Simulated(sim) => sim.verify.clone(),
        }
    }

    /// Compiles and simulates an HE-op trace on the session's
    /// accelerator configuration.
    ///
    /// # Errors
    ///
    /// [`ArkError::UnsupportedOnBackend`] on the software backend.
    pub fn simulate_trace(&self, trace: &Trace) -> ArkResult<SimReport> {
        match &self.state {
            BackendState::Simulated(sim) => Ok(ark_core::sched::run(
                trace,
                &self.params,
                &sim.cfg,
                sim.compile,
            )),
            BackendState::Software(_) => Err(ArkError::UnsupportedOnBackend {
                op: "simulate_trace",
                backend: "software",
            }),
        }
    }

    /// Runs a backend-agnostic program: encrypt-execute-decrypt on
    /// [`Backend::Software`]; on [`Backend::Simulated`], abstract
    /// evaluation by the static verifier's [`AbstractEvaluator`], then
    /// compile-and-simulate of the trace it recorded.
    pub fn execute<P: HeProgram>(
        &mut self,
        inputs: &[ProgramInput],
        program: &P,
    ) -> ArkResult<Outcome> {
        // pre-flight: abstractly interpret the program against the
        // declared key surface before touching any ciphertext; a
        // statically-invalid program fails here with the same typed
        // error the runtime would raise mid-evaluation. A simulated run
        // is itself that interpretation, so it needs no pre-flight.
        if self.verify && matches!(self.state, BackendState::Software(_)) {
            run_abstract(self.verify_context().evaluator(), inputs, program)?;
        }
        match &mut self.state {
            BackendState::Software(sw) => {
                let mut eval = SoftwareEvaluator {
                    ctx: &sw.ctx,
                    keys: &sw.keys,
                    rng: Some(&mut sw.rng),
                    boot: sw.boot.as_ref(),
                    trace: Trace::new("engine-session"),
                };
                let cts = inputs
                    .iter()
                    .map(|i| eval.input(&i.values, i.level))
                    .collect::<ArkResult<Vec<_>>>()?;
                let outs = program.run(&mut eval, &cts)?;
                let trace = eval.trace;
                let outputs = outs
                    .iter()
                    .map(|ct| sw.ctx.decrypt_decode(ct, &sw.keys.sk))
                    .collect();
                Ok(Outcome::Software { outputs, trace })
            }
            BackendState::Simulated(sim) => {
                let trace = run_abstract(sim.verify.evaluator(), inputs, program)?;
                let report = ark_core::sched::run(&trace, &self.params, &sim.cfg, sim.compile);
                Ok(Outcome::Simulated { report, trace })
            }
        }
    }
}

/// Drives `program` over an abstract evaluator with the inputs the
/// runtime would see (level and slot checks included), returning the
/// recorded trace or the first typed error.
fn run_abstract<P: HeProgram>(
    mut eval: AbstractEvaluator<'_>,
    inputs: &[ProgramInput],
    program: &P,
) -> ArkResult<Trace> {
    let cts = inputs
        .iter()
        .map(|i| eval.input(&i.values, i.level))
        .collect::<ArkResult<Vec<_>>>()?;
    program.run(&mut eval, &cts)?;
    Ok(eval.into_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_ckks::encoding::max_error;

    struct Affine;
    impl HeProgram for Affine {
        fn run<E: HeEvaluator>(&self, e: &mut E, inputs: &[E::Ct]) -> ArkResult<Vec<E::Ct>> {
            // 2x + 0.5 without key material
            let two = e.mul_const(&inputs[0], 2.0)?;
            let two = e.rescale(&two)?;
            Ok(vec![e.add_const(&two, 0.5)?])
        }
    }

    #[test]
    fn software_session_runs_program() {
        let mut engine = Engine::builder()
            .params(CkksParams::tiny())
            .backend(Backend::Software)
            .seed(7)
            .build()
            .unwrap();
        let slots = engine.params().slots();
        let x: Vec<C64> = (0..slots).map(|i| C64::new(0.1 * i as f64, 0.0)).collect();
        let outcome = engine
            .execute(&[ProgramInput::new(x.clone(), 2)], &Affine)
            .unwrap();
        let outputs = outcome.outputs().unwrap();
        let want: Vec<C64> = x
            .iter()
            .map(|&z| z.scale(2.0) + C64::new(0.5, 0.0))
            .collect();
        assert!(max_error(&want, &outputs[0]) < 1e-4);
        assert_eq!(outcome.trace().len(), 3); // CMult, HRescale, CAdd
    }

    #[test]
    fn simulated_session_reports_cycles() {
        let mut engine = Engine::builder()
            .params(CkksParams::ark())
            .backend(Backend::Simulated(ArkConfig::base()))
            .build()
            .unwrap();
        let outcome = engine
            .execute(&[ProgramInput::symbolic(10)], &Affine)
            .unwrap();
        let report = outcome.report().unwrap();
        assert!(report.cycles > 0);
        assert_eq!(outcome.trace().len(), 3);
    }

    #[test]
    fn backends_record_identical_traces() {
        let run = |backend| {
            let mut engine = Engine::builder()
                .params(CkksParams::tiny())
                .backend(backend)
                .build()
                .unwrap();
            let outcome = engine
                .execute(&[ProgramInput::symbolic(2)], &Affine)
                .unwrap();
            outcome.trace().ops().to_vec()
        };
        assert_eq!(
            run(Backend::Software),
            run(Backend::Simulated(ArkConfig::base()))
        );
    }

    #[test]
    fn builder_rejects_missing_and_inconsistent_params() {
        assert!(matches!(
            Engine::builder().build().unwrap_err(),
            ArkError::InvalidParams { .. }
        ));
        let bad = CkksParams {
            dnum: 3, // does not divide L+1 = 4
            ..CkksParams::tiny()
        };
        assert!(matches!(
            Engine::builder().params(bad).build().unwrap_err(),
            ArkError::InvalidParams { .. }
        ));
    }

    #[test]
    fn simulated_backend_rejects_data_access() {
        let mut engine = Engine::builder()
            .params(CkksParams::ark())
            .backend(Backend::Simulated(ArkConfig::base()))
            .build()
            .unwrap();
        assert!(matches!(
            engine.encrypt(&[], 1).unwrap_err(),
            ArkError::UnsupportedOnBackend { .. }
        ));
        assert!(matches!(
            engine.evaluator().map(|_| ()).unwrap_err(),
            ArkError::UnsupportedOnBackend { .. }
        ));
    }

    #[test]
    fn keychain_generated_once_with_declared_keys() {
        let engine = Engine::builder()
            .params(CkksParams::tiny())
            .rotations(&[1, -2])
            .conjugation(true)
            .build()
            .unwrap();
        let kc = engine.keychain().unwrap();
        assert_eq!(kc.rotation_keys().len(), 3); // two rotations + conj
        assert!(kc.declared().has_rotation(1));
        assert!(kc.declared().has_conjugation());
        assert!(kc.evk_words() > 0);
    }

    #[test]
    fn declared_key_export_excludes_internal_transform_keys() {
        let ctx = CkksContext::new(CkksParams::tiny());
        let declared = DeclaredKeys::new(&[1], true, ctx.params().slots());
        let mut rng = StdRng::seed_from_u64(3);
        // keygen set exceeds the declared surface — the shape a
        // bootstrapping session has (internal transform keys)
        let kc = KeyChain::generate(&ctx, declared, &[1, 2, 4, 7], None, &mut rng);
        assert_eq!(kc.rotation_keys().len(), 5); // 4 rotations + conj
        let shipped = kc.compressed_declared_keys().unwrap();
        assert_eq!(shipped.len(), 2); // declared rotation + conj only
        let g1 = GaloisElement::from_rotation(1, ctx.params().n());
        let conj = GaloisElement::conjugation(ctx.params().n());
        assert_eq!(shipped.galois_elements(), vec![g1.0, conj.0]);
        let back = shipped.materialize(&ctx);
        assert_eq!(back.get(g1), kc.rotation_keys().get(g1));
        assert_eq!(back.get(conj), kc.rotation_keys().get(conj));
    }
}
