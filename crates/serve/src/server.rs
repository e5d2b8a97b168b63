//! The serving runtime: one process hosting engines for several
//! parameter sets, multiplexing client sessions through a readiness
//! reactor onto sharded worker queues.
//!
//! # Architecture
//!
//! ```text
//! reactor thread (ark-net poller: epoll where available)
//!   │  owns the listener and every connection; nonblocking reads
//!   │  assemble length-prefixed messages (FrameBuf), nonblocking
//!   │  writes drain per-connection outboxes (OutBuf) — no thread
//!   │  ever blocks on a peer
//!   │
//!   ├─ control frames (HELLO, key fetches, STATS, SHUTDOWN):
//!   │  answered inline — they are cheap and touch reactor state
//!   │
//!   └─ EVALUATE / SIMULATE: admitted to the shallowest shard queue
//!        │  (bounded; admission control sheds with a typed BUSY
//!        │  when every queue is full)
//!        ▼
//!      N shard workers: each pops its own queue first, then steals
//!      the oldest job from the deepest sibling — decode, account the
//!      session budget, evaluate on a shared evaluator over the ONE
//!      resident KeyChain, and push the response frame onto the
//!      completion queue, waking the reactor to route it back
//! ```
//!
//! Key material is the serving-layer analogue of ARK's inter-operation
//! key reuse: the server holds **one** [`KeyChain`](ark_fhe::KeyChain)
//! per parameter set, resident for the process lifetime, and every
//! session's requests resolve against it — no per-session key upload,
//! no duplicate evk storage. Shards do not partition keys; they
//! partition *execution*, all borrowing the same chain through
//! [`Engine::shared_evaluator`](ark_fhe::engine::Engine::shared_evaluator).
//!
//! # Sessions and pipelining
//!
//! A v4 session envelopes every post-handshake message with a `u64`
//! request id and may pipeline many requests; responses come back in
//! completion order, not submission order. A v3 session keeps the old
//! serial contract: the reactor defers buffered frames while one
//! request is in flight, so responses still alternate. Either way a
//! slow-reading peer cannot wedge anything: responses queue in that
//! connection's outbox, and an outbox that outgrows
//! [`ServerConfig::max_conn_outbox_bytes`] sheds the connection.
//!
//! # Shutdown
//!
//! Graceful: a client `SHUTDOWN` frame or [`ServerHandle::shutdown`]
//! flips one flag; the reactor stops admitting sessions, workers drain
//! every shard queue to empty and exit, the reactor routes the last
//! completions, makes a bounded final flush pass, and every thread is
//! joined before `shutdown` returns.

use ark_ckks::error::{ArkError, ArkResult};
use ark_ckks::wire as ckks_wire;
use ark_ckks::Ciphertext;
use ark_client::program::Program;
use ark_client::protocol::{
    self, code, msg, EngineInfo, DEFAULT_MAX_FRAME_BYTES, ENVELOPE_LEN, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};
use ark_core::wire as core_wire;
use ark_fhe::engine::Engine;
use ark_fhe::verify::{AbstractInput, VerifyReport};
use ark_fhe::workloads::trace::{Trace, TraceSummary};
use ark_math::wire::{put_u16, read_frame, write_frame, Cursor};
use ark_net::{FrameBuf, Interest, OutBuf, Poller, Token, Waker};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Execution shards (worker threads). `0` sizes to the host's
    /// available parallelism. Every shard serves every hosted engine;
    /// shards partition execution, not key material.
    pub shards: usize,
    /// Jobs one shard queue holds before admission control starts
    /// shedding (a request is shed only when *every* shard is full —
    /// submission picks the shallowest queue and workers steal).
    pub queue_capacity: usize,
    /// Largest message a peer may send (allocation bound).
    pub max_frame_bytes: usize,
    /// Ciphertext bytes (inputs + worst-case intermediates + outputs)
    /// one session may have in flight; exceeding it fails the request
    /// with a typed `SESSION_LIMIT` error instead of growing server
    /// memory. Pipelined requests of one session charge concurrently.
    pub max_session_bytes: usize,
    /// Most ops a submitted program may carry. Evaluation keeps every
    /// intermediate register live, so this (together with
    /// `max_session_bytes`) bounds a request's working set.
    pub max_program_ops: usize,
    /// Most requests one v4 connection may have in flight; the excess
    /// is answered with `BUSY` rather than queued without bound.
    pub max_pipeline: usize,
    /// Unwritten response bytes one connection's outbox may hold. A
    /// peer that stops reading its responses gets its connection shed
    /// at this budget instead of holding server memory hostage — and
    /// since the reactor never blocks on a write, a stalled reader
    /// cannot head-of-line-block other sessions either way.
    pub max_conn_outbox_bytes: usize,
    /// The retry hint carried by `BUSY` load-shed responses.
    pub busy_retry_after_ms: u32,
    /// Whether a client `SHUTDOWN` frame stops the server. Off by
    /// default: on a multi-session server, any peer that can reach the
    /// port could otherwise kill every session with one frame. Enable
    /// for loopback/dev setups that tear the server down from the
    /// client side.
    pub allow_remote_shutdown: bool,
    /// Granularity at which blocked threads re-check the shutdown flag
    /// (and the reactor's idle wait bound).
    pub poll_interval: Duration,
    /// How long the reactor keeps flushing pending outboxes after the
    /// last job completes during shutdown, before abandoning unread
    /// responses.
    pub drain_grace: Duration,
    /// Newest protocol version this server accepts (default
    /// [`PROTOCOL_VERSION`]). Lowering it to 3 emulates an
    /// old pre-pipelining deployment — newer clients are rejected with
    /// a typed `PROTOCOL` error at the handshake instead of failing
    /// obscurely mid-session; used by cross-version interop tests.
    pub max_protocol_version: u16,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 0,
            queue_capacity: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            max_session_bytes: 256 << 20,
            max_program_ops: 1024,
            max_pipeline: 32,
            max_conn_outbox_bytes: 256 << 20,
            busy_retry_after_ms: 50,
            allow_remote_shutdown: false,
            poll_interval: Duration::from_millis(25),
            drain_grace: Duration::from_secs(1),
            max_protocol_version: PROTOCOL_VERSION,
        }
    }
}

impl ServerConfig {
    fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        thread::available_parallelism().map_or(1, usize::from)
    }
}

// ---------------------------------------------------------------------
// shared state
// ---------------------------------------------------------------------

/// Memory accounting of one session: ciphertext bytes currently held on
/// the session's behalf (decoded request inputs, worst-case
/// intermediates, produced outputs), bounded by
/// [`ServerConfig::max_session_bytes`]. Atomic because a v4 session's
/// pipelined jobs charge concurrently from several shard workers.
struct SessionState {
    #[allow(dead_code)]
    id: u64,
    in_flight_bytes: AtomicUsize,
}

impl SessionState {
    fn charge(&self, bytes: usize, cap: usize) -> ArkResult<()> {
        let prev = self.in_flight_bytes.fetch_add(bytes, Ordering::SeqCst);
        let next = prev.saturating_add(bytes);
        if next > cap {
            self.in_flight_bytes.fetch_sub(bytes, Ordering::SeqCst);
            return Err(ArkError::Serve {
                reason: format!(
                    "session memory limit: {next} bytes in flight exceeds the {cap}-byte budget"
                ),
            });
        }
        Ok(())
    }

    fn release(&self, bytes: usize) {
        self.in_flight_bytes.fetch_sub(bytes, Ordering::SeqCst);
    }
}

/// Accumulates one request's session charges and releases them all
/// when the request's response is built (or the handler unwinds).
struct ChargeGuard<'a> {
    session: &'a SessionState,
    cap: usize,
    total: Cell<usize>,
}

impl<'a> ChargeGuard<'a> {
    fn new(session: &'a SessionState, cap: usize) -> Self {
        Self {
            session,
            cap,
            total: Cell::new(0),
        }
    }

    fn charge(&self, bytes: usize) -> Result<(), (u16, String)> {
        self.session
            .charge(bytes, self.cap)
            .map_err(|e| (code::SESSION_LIMIT, e.to_string()))?;
        self.total.set(self.total.get() + bytes);
        Ok(())
    }
}

impl Drop for ChargeGuard<'_> {
    fn drop(&mut self) {
        self.session.release(self.total.get());
    }
}

/// A decoded-enough request bound for a shard worker: the payload is
/// still wire bytes (decode happens on the worker, off the reactor).
struct Job {
    conn_token: u64,
    /// `Some` on v4 sessions (echoed in the response envelope).
    request_id: Option<u64>,
    engine_idx: usize,
    kind: u16,
    fingerprint: u64,
    payload: Vec<u8>,
    session: Arc<SessionState>,
}

/// A finished job's response frame, routed back through the reactor.
struct Completion {
    conn_token: u64,
    request_id: Option<u64>,
    frame: Vec<u8>,
}

struct Shard {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    jobs_executed: AtomicU64,
    jobs_stolen: AtomicU64,
    queue_depth_hwm: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            jobs_executed: AtomicU64::new(0),
            jobs_stolen: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
        }
    }
}

struct Shared {
    engines: Vec<Engine>,
    info: Vec<EngineInfo>,
    config: ServerConfig,
    shards: Vec<Shard>,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    shutdown: AtomicBool,
    /// Workers still alive; the reactor exits only after the last one
    /// (no completion can arrive once this hits zero).
    active_workers: AtomicUsize,
    sessions_accepted: AtomicU64,
    sessions_shed: AtomicU64,
    jobs_shed: AtomicU64,
    next_session: AtomicU64,
    ops: OpCounters,
}

/// Per-op execution counters across every job the server has run —
/// the `ops.*` rows of `GET_STATS`. Workers accumulate each job's
/// recorded trace histogram after evaluation (or trace recording), so
/// remote scenario runs are observable: how many bootstraps actually
/// executed, how much hoisted-rotation work a workload generated.
#[derive(Debug, Default)]
struct OpCounters {
    hmult: AtomicU64,
    pmult: AtomicU64,
    padd: AtomicU64,
    hadd: AtomicU64,
    hrot: AtomicU64,
    hrot_hoisted: AtomicU64,
    hconj: AtomicU64,
    cmult: AtomicU64,
    cadd: AtomicU64,
    hrescale: AtomicU64,
    /// `ModRaise` count — one per executed bootstrap.
    bootstraps: AtomicU64,
    /// Total `RotateSum` terms across executed programs (the fused
    /// rotations the hoisted groups above amortize).
    rotate_sum_terms: AtomicU64,
}

impl OpCounters {
    /// Folds one job's trace histogram (plus its program's fused
    /// rotate-sum term count) into the process totals.
    fn accumulate(&self, summary: &TraceSummary, rotate_sum_terms: u64) {
        self.hmult
            .fetch_add(summary.hmult as u64, Ordering::Relaxed);
        self.pmult
            .fetch_add(summary.pmult as u64, Ordering::Relaxed);
        self.padd.fetch_add(summary.padd as u64, Ordering::Relaxed);
        self.hadd.fetch_add(summary.hadd as u64, Ordering::Relaxed);
        self.hrot.fetch_add(summary.hrot as u64, Ordering::Relaxed);
        self.hrot_hoisted
            .fetch_add(summary.hrot_hoisted as u64, Ordering::Relaxed);
        self.hconj
            .fetch_add(summary.hconj as u64, Ordering::Relaxed);
        self.cmult
            .fetch_add(summary.cmult as u64, Ordering::Relaxed);
        self.cadd.fetch_add(summary.cadd as u64, Ordering::Relaxed);
        self.hrescale
            .fetch_add(summary.hrescale as u64, Ordering::Relaxed);
        self.bootstraps
            .fetch_add(summary.mod_raise as u64, Ordering::Relaxed);
        self.rotate_sum_terms
            .fetch_add(rotate_sum_terms, Ordering::Relaxed);
    }

    /// The `ops.*` stats rows, in a stable order.
    fn snapshot(&self) -> Vec<(String, u64)> {
        [
            ("hmult", &self.hmult),
            ("pmult", &self.pmult),
            ("padd", &self.padd),
            ("hadd", &self.hadd),
            ("hrot", &self.hrot),
            ("hrot_hoisted", &self.hrot_hoisted),
            ("hconj", &self.hconj),
            ("cmult", &self.cmult),
            ("cadd", &self.cadd),
            ("hrescale", &self.hrescale),
            ("bootstraps", &self.bootstraps),
            ("rotate_sum_terms", &self.rotate_sum_terms),
        ]
        .into_iter()
        .map(|(name, v)| (format!("ops.{name}"), v.load(Ordering::Relaxed)))
        .collect()
    }
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            shard.ready.notify_all();
        }
        self.waker.wake();
    }

    /// Admits a job to the shallowest shard queue, or hands it back
    /// when every queue is at capacity (the caller sheds with `BUSY`).
    fn submit(&self, job: Job) -> Result<(), Job> {
        let mut best: Option<(usize, usize)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let depth = shard.queue.lock().expect("shard queue poisoned").len();
            if depth < self.config.queue_capacity && best.is_none_or(|(d, _)| depth < d) {
                best = Some((depth, i));
            }
        }
        let Some((_, i)) = best else {
            self.jobs_shed.fetch_add(1, Ordering::Relaxed);
            return Err(job);
        };
        let depth = {
            let mut q = self.shards[i].queue.lock().expect("shard queue poisoned");
            if q.len() >= self.config.queue_capacity {
                // lost the race to another admission — with every other
                // queue also full this round, shed rather than retry
                drop(q);
                self.jobs_shed.fetch_add(1, Ordering::Relaxed);
                return Err(job);
            }
            q.push_back(job);
            q.len() as u64
        };
        self.shards[i]
            .queue_depth_hwm
            .fetch_max(depth, Ordering::Relaxed);
        self.shards[i].ready.notify_one();
        Ok(())
    }
}

// ---------------------------------------------------------------------
// the builder and the handle
// ---------------------------------------------------------------------

/// A serving runtime under construction: add engines with
/// [`Server::host`], then bind and run with [`Server::serve`].
#[must_use = "a server does nothing until `.serve()` is called"]
pub struct Server {
    engines: Vec<Engine>,
    config: ServerConfig,
}

impl Server {
    /// A server with default [`ServerConfig`].
    pub fn new() -> Self {
        Self::with_config(ServerConfig::default())
    }

    /// A server with explicit tuning.
    pub fn with_config(config: ServerConfig) -> Self {
        Self {
            engines: Vec::new(),
            config,
        }
    }

    /// Hosts an engine. Its parameter-set fingerprint becomes the
    /// address clients select it by, so each hosted engine must have a
    /// distinct parameter set.
    ///
    /// # Errors
    ///
    /// [`ArkError::Serve`] if an engine with the same fingerprint is
    /// already hosted.
    pub fn host(mut self, engine: Engine) -> ArkResult<Self> {
        let fp = engine.fingerprint();
        if self.engines.iter().any(|e| e.fingerprint() == fp) {
            return Err(ArkError::Serve {
                reason: format!("an engine with fingerprint {fp:#018x} is already hosted"),
            });
        }
        self.engines.push(engine);
        Ok(self)
    }

    /// Binds `addr` and starts serving: spawns the reactor and the
    /// shard workers, then returns immediately with a handle. Bind to
    /// port 0 for an ephemeral port ([`ServerHandle::addr`] reports
    /// it).
    pub fn serve(self, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut poller = Poller::new()?;
        poller.register(&listener, LISTENER_TOKEN, Interest::READ)?;
        let waker = poller.waker();
        let info: Vec<EngineInfo> = self
            .engines
            .iter()
            .map(|e| EngineInfo {
                fingerprint: e.fingerprint(),
                software: e.keychain().is_some(),
                log_n: e.params().log_n as u8,
                max_level: e.params().max_level as u32,
                keychain_bytes: e.keychain().map_or(0, |kc| kc.byte_len() as u64),
            })
            .collect();
        let n_shards = self.config.effective_shards();
        let shared = Arc::new(Shared {
            engines: self.engines,
            info,
            config: self.config,
            shards: (0..n_shards).map(|_| Shard::new()).collect(),
            completions: Mutex::new(Vec::new()),
            waker,
            shutdown: AtomicBool::new(false),
            active_workers: AtomicUsize::new(n_shards),
            sessions_accepted: AtomicU64::new(0),
            sessions_shed: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            next_session: AtomicU64::new(1),
            ops: OpCounters::default(),
        });
        let mut workers = Vec::with_capacity(n_shards);
        for i in 0..n_shards {
            let shared = Arc::clone(&shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("ark-serve-shard-{i}"))
                    .spawn(move || worker_loop(&shared, i))?,
            );
        }
        let reactor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("ark-serve-reactor".into())
                .spawn(move || {
                    Reactor {
                        shared,
                        poller,
                        listener,
                        conns: HashMap::new(),
                        next_token: FIRST_CONN_TOKEN,
                        revisit: Vec::new(),
                    }
                    .run()
                })?
        };
        Ok(ServerHandle {
            addr,
            shared,
            reactor: Some(reactor),
            workers,
        })
    }
}

impl Default for Server {
    fn default() -> Self {
        Self::new()
    }
}

/// A running server: the bound address plus the means to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hosted-engine inventory (what `SERVER_INFO` advertises).
    pub fn engines(&self) -> &[EngineInfo] {
        &self.shared.info
    }

    /// The number of execution shards actually running.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// True once a shutdown (local or client-requested) has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Gracefully stops the server: no new sessions, in-flight requests
    /// complete, queues drain, all threads join.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // the reactor keeps pumping completions while workers drain and
        // exits once the last one is gone
        self.shared.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }

    /// Blocks until a shutdown is triggered by a client `SHUTDOWN`
    /// message, then completes it (joins all threads).
    pub fn wait(mut self) {
        while !self.shared.shutting_down() {
            thread::sleep(self.shared.config.poll_interval);
        }
        self.shutdown_in_place();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

// ---------------------------------------------------------------------
// shard workers
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    // announce the exit however it happens (return or unwind) and wake
    // the reactor so its exit condition is re-evaluated
    struct ExitFlag<'a>(&'a Shared);
    impl Drop for ExitFlag<'_> {
        fn drop(&mut self) {
            self.0.active_workers.fetch_sub(1, Ordering::SeqCst);
            self.0.waker.wake();
        }
    }
    let _exit = ExitFlag(shared);
    while let Some(job) = next_job(shared, idx) {
        let frame = execute_job(shared, &job);
        shared.shards[idx]
            .jobs_executed
            .fetch_add(1, Ordering::Relaxed);
        shared
            .completions
            .lock()
            .expect("completion queue poisoned")
            .push(Completion {
                conn_token: job.conn_token,
                request_id: job.request_id,
                frame,
            });
        shared.waker.wake();
    }
}

/// Pops the next job: own queue first, then the oldest job of the
/// deepest sibling (work stealing). Returns `None` only at shutdown
/// with every queue drained.
fn next_job(shared: &Shared, idx: usize) -> Option<Job> {
    loop {
        if let Some(job) = shared.shards[idx]
            .queue
            .lock()
            .expect("shard queue poisoned")
            .pop_front()
        {
            return Some(job);
        }
        let mut best: Option<(usize, usize)> = None;
        for (j, shard) in shared.shards.iter().enumerate() {
            if j == idx {
                continue;
            }
            let depth = shard.queue.lock().expect("shard queue poisoned").len();
            if depth > 0 && best.is_none_or(|(d, _)| depth > d) {
                best = Some((depth, j));
            }
        }
        if let Some((_, j)) = best {
            if let Some(job) = shared.shards[j]
                .queue
                .lock()
                .expect("shard queue poisoned")
                .pop_front()
            {
                shared.shards[idx]
                    .jobs_stolen
                    .fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
            continue; // raced with the owner; rescan
        }
        if shared.shutting_down() {
            return None; // every queue drained, no producers left
        }
        let q = shared.shards[idx]
            .queue
            .lock()
            .expect("shard queue poisoned");
        if !q.is_empty() {
            continue;
        }
        let _ = shared.shards[idx]
            .ready
            .wait_timeout(q, shared.config.poll_interval)
            .expect("shard queue poisoned");
    }
}

/// Runs one job to a response frame. Every failure path — decode
/// errors, evaluation errors, even panics the decode validators did
/// not anticipate — degrades to a typed `ERROR` frame instead of
/// killing the worker.
fn execute_job(shared: &Shared, job: &Job) -> Vec<u8> {
    let charge = ChargeGuard::new(&job.session, shared.config.max_session_bytes);
    // AssertUnwindSafe: jobs borrow the engine immutably and its only
    // interior mutability (context caches) is Mutex-guarded
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match job.kind {
        msg::EVALUATE => run_evaluate(shared, job, &charge),
        msg::SIMULATE => run_simulate(shared, job),
        k => Err((code::PROTOCOL, format!("unexpected job kind {k:#x}"))),
    }));
    match outcome {
        Ok(Ok(frame)) => frame,
        Ok(Err((c, m))) => protocol::error_frame(c, &m),
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            protocol::error_frame(code::EVALUATION, &format!("evaluation aborted: {what}"))
        }
    }
}

type Handled = Result<Vec<u8>, (u16, String)>;

fn wire_err(e: impl std::fmt::Display) -> (u16, String) {
    (code::WIRE, e.to_string())
}

fn ark_err_code(e: &ArkError) -> u16 {
    match e {
        ArkError::Wire(_) => code::WIRE,
        ArkError::UnsupportedOnBackend { .. } => code::UNSUPPORTED,
        // session-limit rejections are labeled at the charge sites;
        // other runtime Serve errors (bad input count, shutdown races,
        // contained panics) are evaluation failures to the client
        _ => code::EVALUATION,
    }
}

/// Admission-time static verification, applied to every submitted
/// program: abstractly interprets it over the inputs' levels/scales
/// against the engine's declared key surface (level/scale flow, key
/// surface, bootstrap placement — see `ark_fhe::verify`), with zero
/// evaluator work. A statically-invalid program is rejected with the
/// typed `VERIFY` error code, carrying the op index and the exact
/// runtime error class evaluation would have hit, before it charges
/// the session budget or touches a shard evaluator. On acceptance,
/// returns the report and the trace the pass recorded.
fn verify_admission(
    engine: &Engine,
    program: &Program,
    inputs: &[AbstractInput],
) -> Result<(VerifyReport, Trace), (u16, String)> {
    let (report, trace) = engine.verify_context().verify_traced(inputs, program);
    match &report.finding {
        None => Ok((report, trace)),
        Some(f) => Err((
            code::VERIFY,
            format!("program rejected by static verification at {f}"),
        )),
    }
}

fn check_program_size(shared: &Shared, program: &Program) -> Result<(), (u16, String)> {
    if program.len() > shared.config.max_program_ops {
        return Err((
            code::PROTOCOL,
            format!(
                "program carries {} ops, server accepts at most {}",
                program.len(),
                shared.config.max_program_ops
            ),
        ));
    }
    Ok(())
}

fn run_evaluate(shared: &Shared, job: &Job, charge: &ChargeGuard<'_>) -> Handled {
    let engine = &shared.engines[job.engine_idx];
    let Some(ctx) = engine.context() else {
        return Err((
            code::UNSUPPORTED,
            "EVALUATE needs a software engine; use SIMULATE here".into(),
        ));
    };
    let mut cur = Cursor::new(&job.payload);
    let program = Program::decode(&mut cur).map_err(|e| (ark_err_code(&e), e.to_string()))?;
    check_program_size(shared, &program)?;
    let n_inputs = cur.u16().map_err(wire_err)? as usize;
    let rest = cur.take(cur.remaining()).map_err(wire_err)?;
    let mut inputs = Vec::with_capacity(n_inputs.min(256));
    let mut off = 0;
    for _ in 0..n_inputs {
        let (ct, used) = ckks_wire::read_ciphertext_prefix(ctx, &rest[off..])
            .map_err(|e| (ark_err_code(&e), e.to_string()))?;
        off += used;
        // account every decoded input against the session budget
        charge.charge(ct.byte_len())?;
        inputs.push(ct);
    }
    if off != rest.len() {
        return Err((
            code::PROTOCOL,
            format!("{} trailing bytes after the last input", rest.len() - off),
        ));
    }
    let specs: Vec<AbstractInput> = inputs
        .iter()
        .map(|ct| AbstractInput::with_scale(ct.level, ct.scale))
        .collect();
    let (report, _) = verify_admission(engine, &program, &specs)?;
    // evaluation holds the borrowed inputs, the liveness-live
    // registers, and each op's transient working set (a fused
    // RotateSum's per-amount rotations plus the hoisted digits): the
    // admission report's peak. Levels only ever drop, so peak units ×
    // the largest input is an upper bound on the working set — charge
    // it up front so the session budget covers memory the request will
    // grow into, not just its wire size
    let max_input = inputs.iter().map(Ciphertext::byte_len).max().unwrap_or(0);
    charge.charge(report.peak_live_units.saturating_mul(max_input))?;
    let mut eval = engine
        .shared_evaluator()
        .map_err(|e| (ark_err_code(&e), e.to_string()))?;
    let outputs = program
        .apply(&mut eval, &inputs)
        .map_err(|e| (ark_err_code(&e), e.to_string()))?;
    shared.ops.accumulate(
        &eval.into_trace().summary(),
        program.rotate_sum_terms() as u64,
    );
    // outputs count against the same budget until the response is off
    for ct in &outputs {
        charge.charge(ct.byte_len())?;
    }
    let mut out_payload = Vec::new();
    put_u16(&mut out_payload, outputs.len() as u16);
    for ct in &outputs {
        out_payload.extend_from_slice(&ckks_wire::write_ciphertext(ctx, ct));
    }
    Ok(write_frame(msg::RESULT_CTS, job.fingerprint, &out_payload))
}

fn run_simulate(shared: &Shared, job: &Job) -> Handled {
    let engine = &shared.engines[job.engine_idx];
    if engine.context().is_some() {
        return Err((
            code::UNSUPPORTED,
            "SIMULATE needs a simulated engine; use EVALUATE here".into(),
        ));
    }
    let mut cur = Cursor::new(&job.payload);
    let program = Program::decode(&mut cur).map_err(|e| (ark_err_code(&e), e.to_string()))?;
    check_program_size(shared, &program)?;
    let n_inputs = cur.u16().map_err(wire_err)? as usize;
    let max_level = engine.params().max_level;
    let mut levels = Vec::with_capacity(n_inputs.min(256));
    for _ in 0..n_inputs {
        let level = cur.u32().map_err(wire_err)? as usize;
        if level > max_level {
            return Err((
                code::EVALUATION,
                format!("input level {level} exceeds the chain maximum {max_level}"),
            ));
        }
        levels.push(level);
    }
    cur.finish().map_err(|e| (code::PROTOCOL, e.to_string()))?;
    // the admission pass is the simulated evaluation: its trace is
    // what the cycle model costs
    let specs: Vec<AbstractInput> = levels.iter().map(|&l| AbstractInput::at_level(l)).collect();
    let (_, trace) = verify_admission(engine, &program, &specs)?;
    shared
        .ops
        .accumulate(&trace.summary(), program.rotate_sum_terms() as u64);
    let report = engine
        .simulate_trace(&trace)
        .map_err(|e| (ark_err_code(&e), e.to_string()))?;
    let nested = core_wire::write_sim_report(&report, job.fingerprint);
    Ok(write_frame(msg::RESULT_REPORT, job.fingerprint, &nested))
}

// ---------------------------------------------------------------------
// the reactor
// ---------------------------------------------------------------------

const LISTENER_TOKEN: Token = Token(0);
const FIRST_CONN_TOKEN: u64 = 1;

struct Conn {
    stream: TcpStream,
    session: Arc<SessionState>,
    inbox: FrameBuf,
    outbox: OutBuf,
    /// Negotiated protocol version; `None` until `HELLO` lands.
    version: Option<u16>,
    /// Jobs of this connection currently on shard queues or executing.
    in_flight: usize,
    /// The peer half-closed its write side; finish in-flight work,
    /// flush, then close.
    eof: bool,
    /// A fill pass stopped at the inbox budget: the socket may hold
    /// more bytes with no new readiness edge coming — revisit.
    paused: bool,
}

impl Conn {
    fn pipelines(&self) -> bool {
        self.version.is_some_and(|v| v >= 4)
    }

    /// How many requests this connection may have in flight: unbounded
    /// pre-handshake (nothing dispatches then anyway), one on a serial
    /// v3 session, the pipeline window on v4.
    fn window(&self, max_pipeline: usize) -> usize {
        match self.version {
            None => usize::MAX,
            Some(v) if v >= 4 => max_pipeline,
            Some(_) => 1,
        }
    }
}

struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Connections to drive again this or next iteration without
    /// waiting for a kernel edge (deferred v3 frames after a
    /// completion, paused fills).
    revisit: Vec<u64>,
}

impl Reactor {
    fn run(&mut self) {
        let mut events = Vec::new();
        let mut accepting = true;
        loop {
            let draining = self.shared.shutting_down();
            if draining && accepting {
                // stop admitting sessions; existing ones drain
                let _ = self.poller.deregister(&self.listener);
                accepting = false;
            }
            if draining
                && self.shared.active_workers.load(Ordering::SeqCst) == 0
                && self
                    .shared
                    .completions
                    .lock()
                    .expect("completion queue poisoned")
                    .is_empty()
            {
                self.final_flush();
                return;
            }
            let timeout = if self.revisit.is_empty() {
                Some(self.shared.config.poll_interval)
            } else {
                Some(Duration::ZERO)
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                return;
            }
            self.pump_completions();
            for ev in events.drain(..) {
                if ev.token == LISTENER_TOKEN {
                    if accepting {
                        self.accept_ready();
                    }
                    continue;
                }
                let tok = ev.token.0;
                if ev.writable {
                    self.conn_writable(tok);
                }
                if ev.readable {
                    self.conn_readable(tok);
                }
            }
            let revisit: Vec<u64> = {
                let mut seen = std::mem::take(&mut self.revisit);
                seen.sort_unstable();
                seen.dedup();
                seen
            };
            for tok in revisit {
                self.conn_readable(tok);
            }
        }
    }

    /// Routes finished jobs' responses into their connections'
    /// outboxes. A completion for a connection that died in the
    /// meantime is dropped.
    fn pump_completions(&mut self) {
        let completions = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("completion queue poisoned"),
        );
        for c in completions {
            let Some(conn) = self.conns.get_mut(&c.conn_token) else {
                continue;
            };
            conn.in_flight -= 1;
            self.respond(c.conn_token, c.request_id, c.frame);
            // a v3 session may have deferred frames buffered behind the
            // request that just finished
            self.revisit.push(c.conn_token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let tok = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(&stream, Token(tok), Interest::BOTH)
                        .is_err()
                    {
                        continue;
                    }
                    let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .sessions_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    let max_message = self.shared.config.max_frame_bytes + ENVELOPE_LEN;
                    self.conns.insert(
                        tok,
                        Conn {
                            stream,
                            session: Arc::new(SessionState {
                                id,
                                in_flight_bytes: AtomicUsize::new(0),
                            }),
                            inbox: FrameBuf::new(max_message),
                            outbox: OutBuf::new(),
                            version: None,
                            in_flight: 0,
                            eof: false,
                            paused: false,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn conn_writable(&mut self, tok: u64) {
        let Some(conn) = self.conns.get_mut(&tok) else {
            return;
        };
        match conn.outbox.flush(&mut conn.stream) {
            Ok(_) => self.maybe_close(tok),
            Err(_) => self.close_conn(tok),
        }
    }

    fn conn_readable(&mut self, tok: u64) {
        let Some(conn) = self.conns.get_mut(&tok) else {
            return;
        };
        // a connection at its request window cannot make progress until
        // a completion frees a slot — and that completion schedules a
        // revisit. Returning here (instead of filling and re-queueing)
        // keeps a paused, window-blocked connection from busy-spinning
        // the reactor at zero timeout.
        if conn.in_flight >= conn.window(self.shared.config.max_pipeline) {
            return;
        }
        // the budget leaves room for one maximal message plus the next
        // prefix, so a pause can never starve an in-progress message
        let budget = self.shared.config.max_frame_bytes + ENVELOPE_LEN + 64 * 1024;
        match conn.inbox.fill(&mut conn.stream, budget) {
            Ok(status) => {
                if status.eof {
                    conn.eof = true;
                }
                conn.paused = status.paused;
                if status.paused {
                    self.revisit.push(tok);
                }
            }
            Err(_) => {
                self.close_conn(tok);
                return;
            }
        }
        self.drive_inbox(tok);
    }

    /// Drains complete messages out of the connection's inbox,
    /// dispatching each. Stops early on a v3 session with a request in
    /// flight (serial contract).
    fn drive_inbox(&mut self, tok: u64) {
        loop {
            let message = {
                let Some(conn) = self.conns.get_mut(&tok) else {
                    return;
                };
                if conn.in_flight >= conn.window(self.shared.config.max_pipeline) {
                    // over the request window: stop popping; the
                    // messages stay buffered (bounded by the fill
                    // budget) until completions free slots
                    break;
                }
                match conn.inbox.next_message() {
                    Ok(Some(m)) => m,
                    Ok(None) => break,
                    Err(_) => {
                        // the length prefix is hostile; no recoverable
                        // message boundary remains on this stream
                        self.close_conn(tok);
                        return;
                    }
                }
            };
            self.dispatch_message(tok, &message);
        }
        self.maybe_close(tok);
    }

    /// Handles one transport message: bare frame on v3 (and during the
    /// handshake), `request id ‖ frame` on v4.
    fn dispatch_message(&mut self, tok: u64, message: &[u8]) {
        let enveloped = self.conns.get(&tok).is_some_and(|c| c.pipelines());
        let (request_id, frame_bytes) = if enveloped {
            match protocol::split_envelope(message) {
                Ok((id, frame)) => (Some(id), frame),
                Err(_) => {
                    // a v4 peer that stops enveloping has lost framing;
                    // nothing later on the stream can be trusted
                    self.respond(
                        tok,
                        None,
                        protocol::error_frame(code::PROTOCOL, "missing v4 request-id envelope"),
                    );
                    self.close_conn(tok);
                    return;
                }
            }
        } else {
            (None, message)
        };
        let frame = match read_frame(frame_bytes) {
            Ok((frame, _)) => frame,
            Err(e) => {
                self.respond(
                    tok,
                    request_id,
                    protocol::error_frame(code::WIRE, &e.to_string()),
                );
                return;
            }
        };
        let negotiated = self.conns.get(&tok).and_then(|c| c.version);
        match frame.kind {
            msg::HELLO if negotiated.is_none() => self.handle_hello(tok, frame.payload),
            msg::HELLO => self.respond(
                tok,
                request_id,
                protocol::error_frame(code::PROTOCOL, "HELLO after the handshake"),
            ),
            _ if negotiated.is_none() => self.respond(
                tok,
                request_id,
                protocol::error_frame(code::PROTOCOL, "expected HELLO before any other message"),
            ),
            msg::GET_PUBLIC_KEY => {
                let response = self.handle_get_public_key(tok, frame.fingerprint);
                self.respond(tok, request_id, response);
            }
            msg::GET_EVAL_KEYS => {
                let response = self.handle_get_eval_keys(tok, frame.fingerprint);
                self.respond(tok, request_id, response);
            }
            msg::GET_STATS => {
                let response = protocol::stats_frame(&self.collect_stats());
                self.respond(tok, request_id, response);
            }
            msg::SHUTDOWN => {
                if self.shared.config.allow_remote_shutdown {
                    self.respond(tok, request_id, write_frame(msg::BYE, 0, &[]));
                    self.shared.begin_shutdown();
                } else {
                    self.respond(
                        tok,
                        request_id,
                        protocol::error_frame(
                            code::UNSUPPORTED,
                            "remote shutdown is disabled (ServerConfig::allow_remote_shutdown)",
                        ),
                    );
                }
            }
            msg::EVALUATE | msg::SIMULATE => self.admit_job(
                tok,
                request_id,
                frame.kind,
                frame.fingerprint,
                frame.payload,
            ),
            k => self.respond(
                tok,
                request_id,
                protocol::error_frame(code::PROTOCOL, &format!("unexpected frame kind {k:#x}")),
            ),
        }
    }

    fn handle_hello(&mut self, tok: u64, payload: &[u8]) {
        let version = match Cursor::new(payload).u16() {
            Ok(v) => v,
            Err(e) => {
                self.respond(tok, None, protocol::error_frame(code::WIRE, &e.to_string()));
                return;
            }
        };
        let max_version = self
            .shared
            .config
            .max_protocol_version
            .min(PROTOCOL_VERSION);
        if !(MIN_PROTOCOL_VERSION..=max_version).contains(&version) {
            self.respond(
                tok,
                None,
                protocol::error_frame(
                    code::PROTOCOL,
                    &format!(
                        "client speaks protocol {version}, server speaks \
                         {MIN_PROTOCOL_VERSION}..={max_version}"
                    ),
                ),
            );
            return;
        }
        if let Some(conn) = self.conns.get_mut(&tok) {
            conn.version = Some(version);
        }
        // SERVER_INFO stays bare even on v4: the envelope starts with
        // the first post-handshake message
        let info = protocol::server_info_frame(&self.shared.info);
        self.respond(tok, None, info);
    }

    /// Key distribution ships *seed-compressed* frames (runtime data
    /// generation on the wire): the uniform halves travel as one 64-bit
    /// seed the client re-expands, halving key-download traffic — and
    /// the session budget is charged at the compressed size actually
    /// shipped.
    fn handle_get_public_key(&self, tok: u64, fingerprint: u64) -> Vec<u8> {
        let shared = &self.shared;
        let result = (|| -> Handled {
            let (_, engine) = find_engine(shared, fingerprint)?;
            let (Some(ctx), Some(kc)) = (engine.context(), engine.keychain()) else {
                return Err((
                    code::UNSUPPORTED,
                    "the simulated backend holds no key material".into(),
                ));
            };
            let compressed = kc.public_key().compress().ok_or((
                code::UNSUPPORTED,
                "the hosted public key was generated without a seed and cannot compress".into(),
            ))?;
            let session = &self.conns[&tok].session;
            let charge = ChargeGuard::new(session, shared.config.max_session_bytes);
            charge.charge(compressed.byte_len())?;
            let nested = ckks_wire::write_compressed_public_key(ctx, &compressed);
            Ok(write_frame(msg::PUBLIC_KEY, fingerprint, &nested))
        })();
        result.unwrap_or_else(|(c, m)| protocol::error_frame(c, &m))
    }

    /// Ships the multiplication key plus the full rotation-key set,
    /// seed-compressed, so a client can evaluate locally with the same
    /// keys the server holds.
    fn handle_get_eval_keys(&self, tok: u64, fingerprint: u64) -> Vec<u8> {
        let shared = &self.shared;
        let result = (|| -> Handled {
            let (_, engine) = find_engine(shared, fingerprint)?;
            let (Some(ctx), Some(kc)) = (engine.context(), engine.keychain()) else {
                return Err((
                    code::UNSUPPORTED,
                    "the simulated backend holds no key material".into(),
                ));
            };
            // ship the declared surface only — a bootstrapping engine
            // also holds internal transform keys, which stay
            // server-side
            let (Some(mult), Some(rotations)) =
                (kc.mult_key().compress(), kc.compressed_declared_keys())
            else {
                return Err((
                    code::UNSUPPORTED,
                    "the hosted evaluation keys were generated without seeds and cannot compress"
                        .into(),
                ));
            };
            let session = &self.conns[&tok].session;
            let charge = ChargeGuard::new(session, shared.config.max_session_bytes);
            charge.charge(mult.byte_len() + rotations.byte_len())?;
            let mut payload = ckks_wire::write_compressed_eval_key(ctx, &mult);
            payload.extend_from_slice(&ckks_wire::write_compressed_rotation_keys(ctx, &rotations));
            Ok(write_frame(msg::EVAL_KEYS, fingerprint, &payload))
        })();
        result.unwrap_or_else(|(c, m)| protocol::error_frame(c, &m))
    }

    /// Admits an `EVALUATE`/`SIMULATE` to a shard queue, or sheds it
    /// with a typed `BUSY` when every queue (or this connection's
    /// pipeline window) is full.
    fn admit_job(
        &mut self,
        tok: u64,
        request_id: Option<u64>,
        kind: u16,
        fingerprint: u64,
        payload: &[u8],
    ) {
        if self.shared.shutting_down() {
            self.respond(
                tok,
                request_id,
                protocol::error_frame(code::EVALUATION, "server is shutting down"),
            );
            return;
        }
        let engine_idx = match find_engine(&self.shared, fingerprint) {
            Ok((idx, _)) => idx,
            Err((c, m)) => {
                self.respond(tok, request_id, protocol::error_frame(c, &m));
                return;
            }
        };
        let session = {
            let Some(conn) = self.conns.get(&tok) else {
                return;
            };
            Arc::clone(&conn.session)
        };
        let job = Job {
            conn_token: tok,
            request_id,
            engine_idx,
            kind,
            fingerprint,
            payload: payload.to_vec(),
            session,
        };
        match self.shared.submit(job) {
            Ok(()) => {
                if let Some(conn) = self.conns.get_mut(&tok) {
                    conn.in_flight += 1;
                }
            }
            Err(_) => self.shed(tok, request_id),
        }
    }

    /// Answers a load-shed: typed `BUSY` on v4, a retryable `ERROR` on
    /// v3 (which predates the `BUSY` kind).
    fn shed(&mut self, tok: u64, request_id: Option<u64>) {
        let retry = self.shared.config.busy_retry_after_ms;
        let frame = if self.conns.get(&tok).is_some_and(Conn::pipelines) {
            protocol::busy_frame(retry)
        } else {
            protocol::error_frame(
                code::EVALUATION,
                &format!("server busy: retry after {retry} ms"),
            )
        };
        self.respond(tok, request_id, frame);
    }

    fn collect_stats(&self) -> Vec<(String, u64)> {
        let shared = &self.shared;
        let mut out = vec![
            (
                "sessions_accepted".to_string(),
                shared.sessions_accepted.load(Ordering::Relaxed),
            ),
            ("sessions_active".to_string(), self.conns.len() as u64),
            (
                "sessions_shed".to_string(),
                shared.sessions_shed.load(Ordering::Relaxed),
            ),
            (
                "jobs_shed".to_string(),
                shared.jobs_shed.load(Ordering::Relaxed),
            ),
            ("shards".to_string(), shared.shards.len() as u64),
        ];
        for (i, s) in shared.shards.iter().enumerate() {
            out.push((
                format!("shard{i}.jobs_executed"),
                s.jobs_executed.load(Ordering::Relaxed),
            ));
            out.push((
                format!("shard{i}.jobs_stolen"),
                s.jobs_stolen.load(Ordering::Relaxed),
            ));
            out.push((
                format!("shard{i}.queue_depth_hwm"),
                s.queue_depth_hwm.load(Ordering::Relaxed),
            ));
        }
        for (i, e) in shared.engines.iter().enumerate() {
            if let Some(kc) = e.keychain() {
                let (hits, misses) = kc.runtime_key_cache_stats();
                out.push((format!("engine{i}.runtime_key_hits"), hits));
                out.push((format!("engine{i}.runtime_key_misses"), misses));
            }
        }
        out.extend(shared.ops.snapshot());
        out
    }

    /// Queues one response (enveloped on v4) and flushes what the
    /// socket accepts. An outbox past its budget sheds the connection:
    /// a peer that will not read its responses does not get to hold
    /// server memory.
    fn respond(&mut self, tok: u64, request_id: Option<u64>, frame: Vec<u8>) {
        let Some(conn) = self.conns.get_mut(&tok) else {
            return;
        };
        let body = match (conn.pipelines(), request_id) {
            (true, Some(id)) => protocol::envelope(id, &frame),
            _ => frame,
        };
        if conn.outbox.push_message(body).is_err() {
            self.close_conn(tok);
            return;
        }
        match conn.outbox.flush(&mut conn.stream) {
            Ok(_) => {}
            Err(_) => {
                self.close_conn(tok);
                return;
            }
        }
        if self.conns[&tok].outbox.pending() > self.shared.config.max_conn_outbox_bytes {
            self.shared.sessions_shed.fetch_add(1, Ordering::Relaxed);
            self.close_conn(tok);
        }
    }

    /// Closes a half-closed connection once nothing is left to do for
    /// it.
    fn maybe_close(&mut self, tok: u64) {
        // leftover inbox bytes after the drive are at most a torn
        // partial message, which an EOF'd peer can never complete
        let done = self
            .conns
            .get(&tok)
            .is_some_and(|c| c.eof && c.in_flight == 0 && c.outbox.is_empty());
        if done {
            self.close_conn(tok);
        }
    }

    fn close_conn(&mut self, tok: u64) {
        if let Some(conn) = self.conns.remove(&tok) {
            let _ = self.poller.deregister(&conn.stream);
        }
    }

    /// Bounded best-effort flush of the remaining outboxes at
    /// shutdown, so in-flight responses (and the `BYE` of a
    /// client-initiated shutdown) reach peers that are reading.
    fn final_flush(&mut self) {
        let deadline = Instant::now() + self.shared.config.drain_grace;
        loop {
            let mut pending = false;
            let toks: Vec<u64> = self.conns.keys().copied().collect();
            for tok in toks {
                let Some(conn) = self.conns.get_mut(&tok) else {
                    continue;
                };
                match conn.outbox.flush(&mut conn.stream) {
                    Ok(true) => {}
                    Ok(false) => pending = true,
                    Err(_) => self.close_conn(tok),
                }
            }
            if !pending || Instant::now() >= deadline {
                return;
            }
            thread::sleep(Duration::from_millis(2));
        }
    }
}

fn find_engine(shared: &Shared, fingerprint: u64) -> Result<(usize, &Engine), (u16, String)> {
    shared
        .engines
        .iter()
        .enumerate()
        .find(|(_, e)| e.fingerprint() == fingerprint)
        .ok_or((
            code::UNKNOWN_ENGINE,
            format!("no hosted engine has fingerprint {fingerprint:#018x}"),
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_is_shareable_across_threads() {
        // the whole runtime shares engines across threads by reference
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<Engine>();
        assert_sync::<Shared>();
    }

    #[test]
    fn session_accounting_enforces_the_cap() {
        let s = SessionState {
            id: 1,
            in_flight_bytes: AtomicUsize::new(0),
        };
        s.charge(600, 1000).unwrap();
        s.charge(300, 1000).unwrap();
        assert!(matches!(
            s.charge(200, 1000).unwrap_err(),
            ArkError::Serve { .. }
        ));
        // the failed charge must not leak into the balance
        assert_eq!(s.in_flight_bytes.load(Ordering::SeqCst), 900);
        s.release(900);
        s.charge(600, 1000).unwrap();
        assert_eq!(s.in_flight_bytes.load(Ordering::SeqCst), 600);
    }

    #[test]
    fn charge_guard_releases_on_drop() {
        let s = SessionState {
            id: 1,
            in_flight_bytes: AtomicUsize::new(0),
        };
        {
            let g = ChargeGuard::new(&s, 1000);
            g.charge(400).unwrap();
            g.charge(100).unwrap();
            assert_eq!(s.in_flight_bytes.load(Ordering::SeqCst), 500);
            assert!(g.charge(9000).is_err());
        }
        assert_eq!(s.in_flight_bytes.load(Ordering::SeqCst), 0);
    }
}
