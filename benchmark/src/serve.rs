//! `serve-mix`: a loopback `ark-serve` server hosting two engines,
//! driven open-loop by seeded Poisson arrivals over `nproc`
//! connections. One request in ten is the ResNet conv layer (heavy,
//! small-test); the other nine are `rot((x+y)·x, 1)` at tiny-test
//! (light), where the serving fabric dominates. Every result is
//! checked bit-identical to a local `Program::apply` of the same
//! ciphertexts and, decrypted, against the f64 reference.

use crate::layers;
use crate::local::{engine_layers, simulate, Case};
use crate::openloop::{drive, poisson_schedule, Driver, Record};
use crate::report::{quoted, Outcome};
use crate::stats::{median, mix, peak_rss_mb, tail};
use crate::{Args, KEY_SEED};
use ark_ckks::params::{CkksContext, CkksParams};
use ark_ckks::Ciphertext;
use ark_client::core::{decode_result_cts, ClientCore, Event, Ticket};
use ark_fhe::arch::ArkConfig;
use ark_fhe::engine::{Backend, Engine, ProgramInput};
use ark_math::cfft::C64;
use ark_scenarios::{max_abs_error, ResNetScenario, Scenario};
use ark_serve::{Client, Program, Server, ServerConfig, ServerHandle};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const LIGHT: usize = 0;
const HEAVY: usize = 1;
const CLASS: [&str; 2] = ["light", "heavy"];
/// Request `j` is heavy when `j % HEAVY_EVERY == HEAVY_EVERY - 1`.
const HEAVY_EVERY: usize = 10;
/// Input sets per class, used round-robin.
const CASES: [usize; 2] = [32, 16];
/// Level the light inputs enter at.
const LIGHT_LEVEL: usize = 2;
/// Light output tolerance (tiny-test noise).
const LIGHT_TOLERANCE: f64 = 1e-3;
/// Offered rate the latency metrics are measured at, requests/s.
const NOMINAL_RPS: f64 = 100.0;
/// Higher offered rates tried after the nominal one for `ok_rps`. On
/// one shard worker the mix saturates near 500 requests/s (a heavy
/// request is ~17 ms of compute); the rungs sit well clear of that on
/// both sides (tails under 35 ms at 200/s, a growing backlog at
/// 800/s), so which rung passes does not hinge on noise.
const LADDER_RPS: [f64; 2] = [200.0, 800.0];
/// Share of the measured seconds spent at the nominal rate; the ladder
/// splits the rest.
const NOMINAL_SHARE: f64 = 0.6;
/// Tail-latency limits a rate must meet to count for `ok_rps`, ms.
const LIMIT_MS: [f64; 2] = [50.0, 150.0];
/// `BUSY` retries per request before it counts as refused.
const BUSY_RETRIES: u32 = 4;
/// Timed deployments per run; `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// Time allowed after a segment's last arrival for stragglers, s.
const GRACE_S: f64 = 10.0;

/// One request: its plaintext case, the encrypted inputs, and the
/// expected output ciphertexts.
struct ServeCase {
    case: Case,
    cts: Vec<Ciphertext>,
    /// Output ciphertexts of a local apply of the same `cts`.
    expected: Vec<Ciphertext>,
}

impl ServeCase {
    /// Decrypts `outs` with `twin` and checks them against the
    /// reference; returns the worst error.
    fn check(&self, twin: &Engine, outs: &[Ciphertext]) -> Result<f64, String> {
        let dec = outs
            .iter()
            .map(|ct| twin.decrypt(ct))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("decrypt: {e:?}"))?;
        self.case.check(&dec)
    }

    /// Sets `expected` to a local apply of the same ciphertexts.
    fn expect_local(&mut self, twin: &Engine) -> Result<(), String> {
        let mut ev = twin.shared_evaluator().map_err(|e| format!("{e:?}"))?;
        self.expected = self
            .case
            .program
            .apply(&mut ev, &self.cts)
            .map_err(|e| format!("local apply: {e:?}"))?;
        Ok(())
    }
}

/// A request class: its hosted engine's fingerprint, the client-side
/// twin holding the same key chain, and its input sets.
struct Class {
    fp: u64,
    twin: Engine,
    cases: Vec<ServeCase>,
}

impl Class {
    fn ctx(&self) -> &CkksContext {
        self.twin.context().expect("software twin")
    }
}

fn light_program() -> Program {
    let mut p = Program::new(2);
    let (x, y) = (p.reg(0), p.reg(1));
    let s = p.add(x, y);
    let m = p.mul_rescale(s, x);
    let r = p.rotate(m, 1);
    p.output(r);
    p
}

fn light_engine(seed: u64, backend: Backend) -> ark_fhe::ArkResult<Engine> {
    Engine::builder()
        .params(CkksParams::tiny())
        .backend(backend)
        .rotations(&[1])
        .seed(seed)
        .threads(1)
        .build()
}

fn heavy_engine(s: &ResNetScenario, backend: Backend) -> ark_fhe::ArkResult<Engine> {
    let setup = s.setup();
    Engine::builder()
        .params(setup.params)
        .backend(backend)
        .seed(KEY_SEED)
        .rotations(&setup.rotations)
        .conjugation(setup.conjugation)
        .runtime_keys(setup.runtime_keys)
        .runtime_key_capacity(setup.runtime_key_capacity)
        .threads(1)
        .build()
}

/// Light input sets: `(inputs, reference)` for `rot((x+y)·x, 1)`.
fn light_inputs(seed: u64) -> (Vec<ProgramInput>, Vec<Vec<C64>>) {
    let slots = CkksParams::tiny().slots();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw = || -> Vec<C64> {
        (0..slots)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect()
    };
    let (x, y) = (draw(), draw());
    let m: Vec<C64> = x.iter().zip(&y).map(|(&a, &b)| (a + b) * a).collect();
    let r: Vec<C64> = (0..slots).map(|i| m[(i + 1) % slots]).collect();
    (
        vec![
            ProgramInput::new(x, LIGHT_LEVEL),
            ProgramInput::new(y, LIGHT_LEVEL),
        ],
        vec![r],
    )
}

/// The per-class request descriptions (program, inputs, reference)
/// for `seed`, before encryption.
struct Plan {
    heavy: Vec<ResNetScenario>,
    light_seeds: Vec<u64>,
}

impl Plan {
    fn new(seed: u64) -> Self {
        Self {
            heavy: (0..CASES[HEAVY] as u64)
                .map(|k| ResNetScenario::new(mix(seed, 0x4845_0000 + k)))
                .collect(),
            light_seeds: (0..CASES[LIGHT] as u64)
                .map(|k| mix(seed, 0x4c49_0000 + k))
                .collect(),
        }
    }

    /// Case `k` of class `c`, unencrypted.
    fn case(&self, c: usize, k: usize) -> Case {
        if c == HEAVY {
            return Case::from_scenario(&self.heavy[k]);
        }
        let (inputs, reference) = light_inputs(self.light_seeds[k]);
        Case {
            inputs,
            program: light_program(),
            reference,
            tolerances: vec![LIGHT_TOLERANCE],
            checked: CkksParams::tiny().slots(),
        }
    }

    /// Case `k` of class `c` with its inputs encrypted by `twin`
    /// (`expected` still empty).
    fn encrypted_case(&self, c: usize, k: usize, twin: &mut Engine) -> Result<ServeCase, String> {
        let case = self.case(c, k);
        let cts = case
            .inputs
            .iter()
            .map(|i| twin.encrypt(&i.values, i.level))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("encrypt: {e:?}"))?;
        Ok(ServeCase {
            case,
            cts,
            expected: Vec::new(),
        })
    }

    fn engine(&self, c: usize, backend: Backend) -> ark_fhe::ArkResult<Engine> {
        if c == LIGHT {
            light_engine(KEY_SEED, backend)
        } else {
            heavy_engine(&self.heavy[0], backend)
        }
    }
}

/// A running deployment: the server and a control session.
struct Deployment {
    handle: ServerHandle,
    fps: [u64; 2],
    control: Client,
}

fn server_config(shards: usize) -> ServerConfig {
    ServerConfig {
        shards,
        // generous admission limits: an offered rate above capacity
        // shows as queueing delay, not as refusals
        queue_capacity: 4096,
        max_pipeline: 4096,
        ..ServerConfig::default()
    }
}

/// Deploys the server and both twins, fetches and checks the public
/// keys, and runs one warm-up request per class (which derives the
/// heavy engine's runtime keys). Returns the deployment, the twins and
/// the seconds it took; the warm-up results are then checked
/// bit-identical to a local apply, outside the timed span.
fn deploy(plan: &Plan, shards: usize) -> Result<(Deployment, [Engine; 2], f64), String> {
    let t = Instant::now();
    let e = |what: &'static str| move |err: ark_fhe::ArkError| format!("{what}: {err:?}");
    let [l, h] = [
        plan.engine(LIGHT, Backend::Software)
            .map_err(e("light engine"))?,
        plan.engine(HEAVY, Backend::Software)
            .map_err(e("heavy engine"))?,
    ];
    let fps = [l.fingerprint(), h.fingerprint()];
    let handle = Server::with_config(server_config(shards))
        .host(l)
        .and_then(|s| s.host(h))
        .map_err(e("host"))?
        .serve("127.0.0.1:0")
        .map_err(|err| format!("bind: {err}"))?;
    let mut twins = [
        plan.engine(LIGHT, Backend::Software)
            .map_err(e("light twin"))?,
        plan.engine(HEAVY, Backend::Software)
            .map_err(e("heavy twin"))?,
    ];
    let mut control = Client::connect(handle.addr()).map_err(e("connect"))?;
    let mut warm = Vec::with_capacity(2);
    for c in [LIGHT, HEAVY] {
        let case = plan.encrypted_case(c, 0, &mut twins[c])?;
        let twin = &twins[c];
        let ctx = twin.context().expect("software twin");
        // the fetched public key must encrypt under the twin's chain
        let pk = control.public_key(fps[c], ctx).map_err(e("public key"))?;
        let probe = vec![C64::new(0.25, 0.0); 4];
        let pt = ctx.encode(&probe, 1, ctx.params().scale());
        let mut rng = StdRng::seed_from_u64(fps[c]);
        let back = twin
            .decrypt(&ctx.encrypt_public(&pt, &pk, &mut rng))
            .map_err(e("probe decrypt"))?;
        if max_abs_error(&back, &probe, probe.len()) > 1e-3 {
            return Err(format!("{} public key does not match the twin", CLASS[c]));
        }
        let outs = control
            .evaluate(fps[c], &case.case.program, &case.cts, ctx)
            .map_err(e("warm-up request"))?;
        case.check(twin, &outs)?;
        warm.push((case, outs));
    }
    let secs = t.elapsed().as_secs_f64();
    for (c, (mut case, outs)) in warm.into_iter().enumerate() {
        case.expect_local(&twins[c])?;
        if case.expected != outs {
            return Err(format!(
                "{} warm-up result differs from the local apply",
                CLASS[c]
            ));
        }
    }
    Ok((
        Deployment {
            handle,
            fps,
            control,
        },
        twins,
        secs,
    ))
}

/// Encrypts every input set with its twin, evaluates it locally for
/// the expected ciphertexts, and checks the local result against the
/// reference. Returns the classes and each case's worst error.
fn prepare(
    plan: &Plan,
    fps: [u64; 2],
    twins: [Engine; 2],
) -> Result<(Vec<Class>, [Vec<f64>; 2]), String> {
    let mut classes = Vec::with_capacity(2);
    let mut errors: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (c, mut twin) in twins.into_iter().enumerate() {
        let mut cases = Vec::with_capacity(CASES[c]);
        for k in 0..CASES[c] {
            let mut case = plan.encrypted_case(c, k, &mut twin)?;
            case.expect_local(&twin)?;
            errors[c].push(case.check(&twin, &case.expected)?);
            cases.push(case);
        }
        classes.push(Class {
            fp: fps[c],
            twin,
            cases,
        });
    }
    Ok((classes, errors))
}

/// One load connection: a socket and its protocol core.
struct Conn {
    stream: TcpStream,
    core: ClientCore,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        let mut core = ClientCore::new();
        stream
            .write_all(&core.take_egress())
            .map_err(|e| format!("hello: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| format!("{e}"))?;
        let mut buf = vec![0u8; 1 << 16];
        while !core.is_ready() {
            let n = stream
                .read(&mut buf)
                .map_err(|e| format!("handshake: {e}"))?;
            if n == 0 {
                return Err("server closed during handshake".into());
            }
            core.ingest(&buf[..n])
                .map_err(|e| format!("handshake: {e:?}"))?;
            while core.next_event().is_some() {}
        }
        Ok(Self { stream, core })
    }
}

/// Client-side counters of one class.
#[derive(Debug, Default, Clone)]
struct ClassCost {
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    req_bytes: Vec<f64>,
    resp_bytes: Vec<f64>,
}

/// Client-side counters of one connection over one segment.
#[derive(Debug, Default, Clone)]
struct ConnCost {
    class: [ClassCost; 2],
    sheds_absorbed: u64,
    sheds_surfaced: u64,
    errors: Vec<String>,
}

/// A request of the schedule: class and input set.
#[derive(Debug, Clone, Copy)]
struct Req {
    class: usize,
    case: usize,
}

/// The open-loop [`Driver`] over one connection.
struct TcpDriver<'a> {
    conn: &'a mut Conn,
    classes: &'a [Class],
    reqs: Vec<Req>,
    origin: Instant,
    /// request id → (request index, ticket, BUSY count)
    inflight: HashMap<u64, (usize, Ticket, u32)>,
    /// (retry time, request id) of parked requests
    parked: Vec<(f64, u64)>,
    buf: Vec<u8>,
    cost: ConnCost,
}

impl TcpDriver<'_> {
    fn flush(&mut self) -> Result<(), String> {
        let bytes = self.conn.core.take_egress();
        self.conn
            .stream
            .write_all(&bytes)
            .map_err(|e| format!("write: {e}"))?;
        Ok(())
    }

    fn complete(&mut self, id: u64, payload: &[u8]) -> Option<(usize, bool)> {
        let (i, _, sheds) = self.inflight.remove(&id)?;
        let req = self.reqs[i];
        let class = &self.classes[req.class];
        let case = &class.cases[req.case];
        let t = Instant::now();
        let decoded = decode_result_cts(class.ctx(), payload);
        let cost = &mut self.cost.class[req.class];
        cost.decode_us.push(t.elapsed().as_secs_f64() * 1e6);
        cost.resp_bytes.push(payload.len() as f64);
        self.cost.sheds_absorbed += u64::from(sheds);
        let verdict = match decoded {
            Err(e) => Err(format!("decode: {e:?}")),
            Ok(outs) if outs != case.expected => {
                Err("result differs from the local apply of the same ciphertexts".into())
            }
            Ok(outs) => case.check(&class.twin, &outs).map(|_| ()),
        };
        if let Err(why) = &verdict {
            self.cost
                .errors
                .push(format!("{} request: {why}", CLASS[req.class]));
        }
        Some((i, verdict.is_ok()))
    }

    fn fail(&mut self, id: u64, why: String) -> Option<(usize, bool)> {
        let (i, _, _) = self.inflight.remove(&id)?;
        self.cost.errors.push(why);
        Some((i, false))
    }

    fn fail_all(&mut self, why: &str) -> Vec<(usize, bool)> {
        let ids: Vec<u64> = self.inflight.keys().copied().collect();
        self.parked.clear();
        ids.into_iter()
            .filter_map(|id| self.fail(id, why.to_string()))
            .collect()
    }
}

impl Driver for TcpDriver<'_> {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn send(&mut self, i: usize) -> Result<(), String> {
        let req = self.reqs[i];
        let class = &self.classes[req.class];
        let case = &class.cases[req.case];
        let t = Instant::now();
        let ticket = self
            .conn
            .core
            .submit_evaluate(class.fp, &case.case.program, &case.cts, class.ctx())
            .map_err(|e| format!("submit: {e:?}"))?;
        let bytes = self.conn.core.take_egress();
        let cost = &mut self.cost.class[req.class];
        cost.encode_us.push(t.elapsed().as_secs_f64() * 1e6);
        cost.req_bytes.push(bytes.len() as f64);
        self.inflight.insert(ticket.id(), (i, ticket, 0));
        self.conn
            .stream
            .write_all(&bytes)
            .map_err(|e| format!("write: {e}"))
    }

    fn poll(&mut self, deadline: f64) -> Vec<(usize, bool)> {
        let mut done = Vec::new();
        let now = self.now();
        // re-send parked requests whose backoff has passed
        let (due, later): (Vec<_>, Vec<_>) = self.parked.iter().partition(|&&(t, _)| t <= now);
        self.parked = later;
        for (_, id) in due {
            let Some(&(_, ticket, _)) = self.inflight.get(&id) else {
                continue;
            };
            if let Err(e) = self.conn.core.retry(ticket).map_err(|e| format!("{e:?}")) {
                done.extend(self.fail(id, format!("retry: {e}")));
            }
        }
        if self.conn.core.has_egress() {
            if let Err(e) = self.flush() {
                done.extend(self.fail_all(&e));
                return done;
            }
        }
        let wake = self.parked.iter().map(|&(t, _)| t).fold(deadline, f64::min);
        let wait = (wake - now).clamp(50e-6, 5e-3);
        let _ = self
            .conn
            .stream
            .set_read_timeout(Some(Duration::from_secs_f64(wait)));
        let failure = match self.conn.stream.read(&mut self.buf) {
            Ok(0) => Some("server closed the connection".to_string()),
            Ok(n) => self
                .conn
                .core
                .ingest(&self.buf[..n])
                .err()
                .map(|e| format!("ingest: {e:?}")),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => None,
            Err(e) => Some(format!("read: {e}")),
        };
        if let Some(why) = failure {
            done.extend(self.fail_all(&why));
            return done;
        }
        while let Some(event) = self.conn.core.next_event() {
            match event {
                Event::EvalResult {
                    request_id,
                    payload,
                } => done.extend(self.complete(request_id, &payload)),
                Event::Busy {
                    request_id,
                    retry_after_ms,
                } => {
                    let now = self.now();
                    let Some(entry) = self.inflight.get_mut(&request_id) else {
                        continue;
                    };
                    entry.2 += 1;
                    if entry.2 > BUSY_RETRIES {
                        let ticket = entry.1;
                        self.conn.core.abandon(ticket);
                        self.cost.sheds_surfaced += 1;
                        done.extend(self.fail(request_id, "refused: BUSY budget spent".into()));
                    } else {
                        let back = f64::from(retry_after_ms.max(1)) / 1e3;
                        self.parked.push((now + back, request_id));
                    }
                }
                Event::ServerError {
                    request_id,
                    code,
                    message,
                } => done.extend(self.fail(request_id, format!("server error {code}: {message}"))),
                _ => {}
            }
        }
        done
    }
}

/// Everything one offered-rate segment produced.
struct Segment {
    rate: f64,
    secs: f64,
    /// (class, record) per scheduled request, in due order.
    recs: Vec<(usize, Record)>,
    cost: ConnCost,
}

impl Segment {
    fn latencies(&self, class: usize) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|(c, r)| *c == class && r.ok)
            .filter_map(|(_, r)| r.latency_ms())
            .collect()
    }

    fn failures(&self) -> usize {
        self.recs.iter().filter(|(_, r)| !r.ok).count()
    }

    fn ok(&self) -> usize {
        self.recs.len() - self.failures()
    }

    /// Completed-and-correct requests per second over the segment.
    fn goodput(&self) -> f64 {
        let end = self
            .recs
            .iter()
            .filter_map(|(_, r)| r.done)
            .fold(self.secs, f64::max);
        self.ok() as f64 / end
    }

    /// Latency keeps climbing through the segment: the last quarter's
    /// median is more than twice the first quarter's (plus 5 ms).
    fn backlog_grows(&self) -> bool {
        let lat: Vec<f64> = self
            .recs
            .iter()
            .map(|(_, r)| r.latency_ms().unwrap_or(f64::INFINITY))
            .collect();
        let q = (lat.len() / 4).max(1);
        if lat.len() < 8 {
            return false;
        }
        median(&lat[lat.len() - q..]) > 2.0 * median(&lat[..q]) + 5.0
    }

    /// Meets both tail limits with no failure and no growing backlog.
    fn passes(&self) -> bool {
        self.failures() == 0
            && !self.backlog_grows()
            && [LIGHT, HEAVY]
                .iter()
                .all(|&c| tail(&self.latencies(c)).value <= LIMIT_MS[c])
    }
}

/// Drives `conns` at `rate` for `secs` with a schedule drawn from
/// `seed`; request `j` goes out on connection `j % conns.len()`.
fn segment(conns: &mut [Conn], classes: &[Class], rate: f64, secs: f64, seed: u64) -> Segment {
    let dues = poisson_schedule(rate, secs, seed);
    let reqs: Vec<Req> = (0..dues.len())
        .map(|j| {
            let class = if j % HEAVY_EVERY == HEAVY_EVERY - 1 {
                HEAVY
            } else {
                LIGHT
            };
            let nth = if class == HEAVY {
                j / HEAVY_EVERY
            } else {
                j - j / HEAVY_EVERY
            };
            Req {
                class,
                case: nth % classes[class].cases.len(),
            }
        })
        .collect();
    let n_conns = conns.len();
    let origin = Instant::now();
    let per_conn: Vec<(Vec<usize>, Vec<Record>, ConnCost)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                let mine: Vec<usize> = (k..dues.len()).step_by(n_conns).collect();
                let my_dues: Vec<f64> = mine.iter().map(|&j| dues[j]).collect();
                let my_reqs: Vec<Req> = mine.iter().map(|&j| reqs[j]).collect();
                s.spawn(move || {
                    let mut d = TcpDriver {
                        conn,
                        classes,
                        reqs: my_reqs,
                        origin,
                        inflight: HashMap::new(),
                        parked: Vec::new(),
                        buf: vec![0u8; 1 << 16],
                        cost: ConnCost::default(),
                    };
                    let recs = drive(&mut d, &my_dues, secs + GRACE_S);
                    (mine, recs, d.cost)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread"))
            .collect()
    });
    let mut recs: Vec<Option<(usize, Record)>> = vec![None; dues.len()];
    let mut cost = ConnCost::default();
    for (mine, rs, c) in per_conn {
        for (j, r) in mine.into_iter().zip(rs) {
            recs[j] = Some((reqs[j].class, r));
        }
        for k in [LIGHT, HEAVY] {
            let (dst, src) = (&mut cost.class[k], &c.class[k]);
            dst.encode_us.extend(&src.encode_us);
            dst.decode_us.extend(&src.decode_us);
            dst.req_bytes.extend(&src.req_bytes);
            dst.resp_bytes.extend(&src.resp_bytes);
        }
        cost.sheds_absorbed += c.sheds_absorbed;
        cost.sheds_surfaced += c.sheds_surfaced;
        cost.errors.extend(c.errors);
    }
    Segment {
        rate,
        secs,
        recs: recs
            .into_iter()
            .map(|r| r.expect("every request recorded"))
            .collect(),
        cost,
    }
}

fn stat(stats: &[(String, u64)], pred: impl Fn(&str) -> bool) -> Vec<u64> {
    stats
        .iter()
        .filter(|(k, _)| pred(k))
        .map(|&(_, v)| v)
        .collect()
}

/// Runs the workload; `traced` adds the per-layer probes.
pub fn run(args: &Args, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let nproc = ark_math::par::available_parallelism();
    // the load generator needs a core of its own: one shard worker per
    // remaining core, each evaluating on one engine thread
    let shards = nproc.saturating_sub(1).max(1);
    let n_conns = nproc.max(1);
    let plan = Plan::new(args.seed);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some((old, _)) = last.take() {
            let Deployment {
                handle, control, ..
            } = old;
            drop(control);
            handle.shutdown();
        }
        let (d, twins, secs) = deploy(&plan, shards)?;
        setups.push(secs);
        out.attempted += 2; // the warm-up requests
        last = Some((d, twins));
    }
    let (mut dep, twins) = last.expect("at least one deployment");
    let (classes, errors) = prepare(&plan, dep.fps, twins)?;
    let addr = dep.handle.addr();
    let mut conns = (0..n_conns)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let stats0 = dep.control.stats().map_err(|e| format!("stats: {e:?}"))?;

    // nominal rate first (latency metrics), then the ladder until a
    // rate misses its limits
    let nominal_secs = args.seconds * NOMINAL_SHARE;
    let rung_secs = args.seconds * (1.0 - NOMINAL_SHARE) / LADDER_RPS.len() as f64;
    let mut segs = vec![segment(
        &mut conns,
        &classes,
        NOMINAL_RPS,
        nominal_secs,
        mix(args.seed, 0x5345_4700),
    )];
    // the high-water mark of the workload at its nominal rate; the
    // overload rung's backlog would otherwise set it
    let rss_mb = peak_rss_mb();
    for (k, &rate) in LADDER_RPS.iter().enumerate() {
        if !segs.last().expect("nominal segment").passes() {
            break;
        }
        segs.push(segment(
            &mut conns,
            &classes,
            rate,
            rung_secs,
            mix(args.seed, 0x5345_4701 + k as u64),
        ));
    }
    let stats1 = dep.control.stats().map_err(|e| format!("stats: {e:?}"))?;

    for s in &segs {
        out.attempted += s.recs.len() as u64;
        out.failed += s.failures() as u64;
        for e in s.cost.errors.iter().take(5) {
            out.problem(format!("{} rps: {e}", s.rate));
        }
    }
    let nominal = &segs[0];
    let ok_rps = segs
        .iter()
        .filter(|s| s.passes())
        .map(Segment::goodput)
        .fold(0.0, f64::max);
    let heavy = tail(&nominal.latencies(HEAVY));
    let light = tail(&nominal.latencies(LIGHT));

    // the cycle model's cost of one request, averaged over the mix
    let mut cycles = [0.0; 2];
    let mut reports = Vec::new();
    for c in [LIGHT, HEAVY] {
        let build = || plan.engine(c, Backend::Simulated(ArkConfig::base()));
        let sim = simulate(build, &classes[c].cases[0].case)?;
        cycles[c] = sim.0.cycles as f64;
        reports.push(sim);
    }
    let per_request =
        (cycles[HEAVY] + (HEAVY_EVERY - 1) as f64 * cycles[LIGHT]) / HEAVY_EVERY as f64;

    out.set("setup_s", median(&setups));
    out.set("p50_ms", median(&nominal.latencies(HEAVY)));
    out.set("tail_ms", heavy.value);
    out.set("ok_rps", ok_rps);
    // the error metric follows the application request; the light
    // class runs at toy parameters to expose fabric cost
    crate::local::record_errors(&mut out, &errors[HEAVY]);
    let light_worst = errors[LIGHT].iter().copied().fold(0.0, f64::max);
    out.note("max_abs_err.light_worst", format!("{light_worst}"));
    out.set("sim_cycles", per_request);
    out.set("peak_rss_mb", rss_mb);
    out.set("light.p50_ms", median(&nominal.latencies(LIGHT)));
    out.set("light.tail_ms", light.value);
    out.note("loop", quoted("open, seeded Poisson arrivals"));
    out.note("connections", format!("{n_conns}"));
    out.note("shards", format!("{shards}"));
    out.note("engine.threads", "1".to_string());
    out.note("nominal_rps", format!("{NOMINAL_RPS}"));
    out.note(
        "limits_ms",
        format!("{{\"light\":{},\"heavy\":{}}}", LIMIT_MS[0], LIMIT_MS[1]),
    );
    out.note("tail_pct", format!("{}", heavy.pct));
    out.note("tail_beyond", format!("{}", heavy.beyond));
    out.note("units", format!("{}", heavy.n));
    out.note("light.tail_pct", format!("{}", light.pct));
    out.note("light.tail_beyond", format!("{}", light.beyond));
    out.note("light.units", format!("{}", light.n));
    out.note("setup_reps_s", format!("{setups:?}"));
    let rungs: Vec<String> = segs
        .iter()
        .map(|s| {
            format!(
                "{{\"rps\":{},\"requests\":{},\"failed\":{},\"goodput\":{},\"light_tail_ms\":{},\
                 \"heavy_tail_ms\":{},\"backlog_grows\":{},\"passes\":{}}}",
                s.rate,
                s.recs.len(),
                s.failures(),
                s.goodput(),
                tail(&s.latencies(LIGHT)).value,
                tail(&s.latencies(HEAVY)).value,
                s.backlog_grows(),
                s.passes()
            )
        })
        .collect();
    out.note("rates", format!("[{}]", rungs.join(",")));

    if traced {
        per_layer(
            &mut out, &mut dep, classes, &segs, &stats0, &stats1, &reports, args,
        )?;
    }
    for conn in conns {
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    }
    let Deployment {
        handle, control, ..
    } = dep;
    drop(control);
    handle.shutdown();
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    out: &mut Outcome,
    dep: &mut Deployment,
    mut classes: Vec<Class>,
    segs: &[Segment],
    stats0: &[(String, u64)],
    stats1: &[(String, u64)],
    reports: &[(ark_fhe::arch::sched::SimReport, f64)],
    args: &Args,
) -> Result<(), String> {
    let nominal = &segs[0];
    let delta = |pred: &dyn Fn(&str) -> bool| -> f64 {
        let a: u64 = stat(stats0, pred).iter().sum();
        let b: u64 = stat(stats1, pred).iter().sum();
        b.saturating_sub(a) as f64
    };
    out.set("serve.jobs_shed", delta(&|k| k == "jobs_shed"));
    out.set("serve.sessions_shed", delta(&|k| k == "sessions_shed"));
    out.set("serve.jobs_stolen", delta(&|k| k.ends_with(".jobs_stolen")));
    out.set(
        "serve.queue_hwm",
        stat(stats1, |k| k.ends_with(".queue_depth_hwm"))
            .into_iter()
            .max()
            .unwrap_or(0) as f64,
    );
    let absorbed: u64 = segs.iter().map(|s| s.cost.sheds_absorbed).sum();
    let surfaced: u64 = segs.iter().map(|s| s.cost.sheds_surfaced).sum();
    out.set("client.sheds_absorbed", absorbed as f64);
    out.set("client.sheds_surfaced", surfaced as f64);
    let late: Vec<f64> = nominal
        .recs
        .iter()
        .filter_map(|(_, r)| r.lateness_ms())
        .collect();
    out.set("serve.late_ms", tail(&late).value);

    for c in [LIGHT, HEAVY] {
        let name = CLASS[c];
        let k = &nominal.cost.class[c];
        out.set(
            format!("client.{name}.req_kb"),
            median(&k.req_bytes) / 1024.0,
        );
        out.set(
            format!("client.{name}.resp_kb"),
            median(&k.resp_bytes) / 1024.0,
        );
        out.set(format!("client.{name}.encode_us"), median(&k.encode_us));
        out.set(format!("client.{name}.decode_us"), median(&k.decode_us));
        // server-side work of the same request, applied locally on the
        // twin (one engine thread, like a shard worker)
        let class = &classes[c];
        let case = &class.cases[0];
        let mut exec = || {
            let mut ev = class.twin.shared_evaluator().expect("software twin");
            drop(std::hint::black_box(
                case.case.program.apply(&mut ev, &case.cts),
            ));
        };
        let ms = layers::interleaved(Duration::from_millis(300), &mut [&mut exec])[0] / 1e3;
        out.set(format!("serve.{name}.exec_ms"), ms);
        out.set(
            format!("serve.{name}.overhead_ms"),
            median(&nominal.latencies(c)) - ms,
        );
    }
    let mut rtt = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        dep.control.stats().map_err(|e| format!("stats: {e:?}"))?;
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.set("serve.rtt_us", median(&rtt));

    // engine op classes of a heavy request: encrypt → apply → decrypt
    // on the twin (one engine thread, like a shard worker)
    let mut heavy = classes.swap_remove(HEAVY);
    let cases: Vec<&Case> = heavy.cases.iter().map(|c| &c.case).collect();
    let budget = (args.seconds * 0.1).max(1.0);
    let rec = engine_layers(
        out,
        "serve-mix (heavy request)",
        &mut heavy.twin,
        &cases,
        &reports[HEAVY],
        [budget, budget],
    )?;
    crate::write_spans(args, &rec);
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(())
}
