//! Cross-version interop: `ClientCore` (v3 and v4) round-tripped
//! against the *real* server framing — the same `send_message` /
//! `recv_message` the server runtime uses — byte-for-byte, plus the
//! version-skew regression (a v4 core against a v3-only server must
//! fail with a typed version error, never hang).
//!
//! `ark-serve` is a dev-only dependency here: the library under test
//! stays sans-I/O, the tests borrow the server's transport.

use ark_ckks::error::ArkError;
use ark_client::core::{ClientCore, Event};
use ark_client::protocol::{
    busy_frame, code, envelope, error_frame, msg, server_info_frame, stats_frame, EngineInfo,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use ark_math::wire::write_frame;
use ark_serve::protocol as srv;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn engines() -> Vec<EngineInfo> {
    vec![EngineInfo {
        fingerprint: 0xfeed_beef,
        software: true,
        log_n: 10,
        max_level: 9,
        keychain_bytes: 4096,
    }]
}

/// Server-side write of one message, exactly as the runtime does it.
fn server_send(wire: &mut Vec<u8>, frame: &[u8]) {
    srv::send_message(wire, frame).expect("Vec<u8> writes are infallible");
}

/// Reads every complete message the core queued, through the server's
/// own receive path (prefix parse + allocation bound).
fn server_recv_all(egress: &[u8]) -> Vec<Vec<u8>> {
    let mut r = std::io::Cursor::new(egress);
    let mut out = Vec::new();
    loop {
        match srv::recv_message(&mut r, DEFAULT_MAX_FRAME_BYTES, &|| false)
            .expect("core egress parses as server messages")
        {
            srv::Recv::Frame(f) => out.push(f),
            srv::Recv::Closed => return out,
            srv::Recv::Idle => unreachable!("no timeout on a buffer"),
        }
    }
}

fn handshaken(version: u16) -> ClientCore {
    let mut core = ClientCore::config()
        .protocol_version(version)
        .build()
        .expect("supported version");
    // the HELLO the core emits must parse through the server transport
    // as exactly one bare frame
    let hello = server_recv_all(&core.take_egress());
    assert_eq!(hello.len(), 1);
    let (frame, _) = ark_math::wire::read_frame(&hello[0]).expect("well-formed HELLO");
    assert_eq!(frame.kind, msg::HELLO);
    let mut wire = Vec::new();
    server_send(&mut wire, &server_info_frame(&engines()));
    core.ingest(&wire).expect("valid handshake");
    assert!(matches!(core.next_event(), Some(Event::Handshake { .. })));
    assert!(core.is_ready());
    core
}

/// One scripted server reply for a stats request.
#[derive(Debug, Clone)]
enum Reply {
    Stats(Vec<(String, u64)>),
    Error(u16, String),
    BusyThenStats(u32, Vec<(String, u64)>),
}

// the vendored proptest has no string strategies: counter names and
// error messages are derived from generated integers instead
fn counters_strategy() -> impl Strategy<Value = Vec<(String, u64)>> + 'static {
    proptest::collection::vec(
        (0u32..1000, any::<u64>()).prop_map(|(n, v)| (format!("shard{n}.ctr"), v)),
        0..5usize,
    )
}

fn reply_strategy() -> impl Strategy<Value = Reply> {
    prop_oneof![
        counters_strategy().prop_map(Reply::Stats),
        (1u32..=7, any::<u64>()).prop_map(|(c, s)| Reply::Error(c as u16, format!("err-{s:016x}"))),
        (0u32..100_000, counters_strategy()).prop_map(|(hint, c)| Reply::BusyThenStats(hint, c)),
    ]
}

fn reply_frame(reply: &Reply) -> Vec<u8> {
    match reply {
        Reply::Stats(counters) => stats_frame(counters),
        Reply::Error(c, m) => error_frame(*c, m),
        Reply::BusyThenStats(hint, _) => busy_frame(*hint),
    }
}

/// Feeds `wire` to the core in random-sized chunks.
fn ingest_chunked(core: &mut ClientCore, wire: &[u8], rng: &mut StdRng) {
    let mut off = 0;
    while off < wire.len() {
        let n = 1 + rng.gen_range(0usize..32).min(wire.len() - off - 1);
        core.ingest(&wire[off..off + n])
            .expect("scripted replies are valid");
        off += n;
    }
}

/// Wraps a response frame the way the server would for this session's
/// version: enveloped under the request id on v4, bare on v3.
fn respond(core: &ClientCore, id: u64, frame: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    if core.protocol_version() >= 4 {
        server_send(&mut wire, &envelope(id, frame));
    } else {
        server_send(&mut wire, frame);
    }
    wire
}

fn expect_stats(core: &mut ClientCore, id: u64, counters: &[(String, u64)]) {
    match core.next_event().expect("reply produced an event") {
        Event::Stats {
            request_id,
            counters: got,
        } => {
            assert_eq!(request_id, id);
            assert_eq!(got, counters);
        }
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Drives one request/reply exchange and checks the typed event
/// matches the scripted reply exactly.
fn exchange(core: &mut ClientCore, reply: &Reply, chunk_rng: &mut StdRng) {
    let ticket = core.submit_get_stats().expect("ready core accepts");
    let v4 = core.protocol_version() >= 4;

    // byte-for-byte: the request the core queued is exactly the frame
    // the server's own decode stack expects — a bare GET_STATS frame,
    // enveloped iff v4
    let sent = server_recv_all(&core.take_egress());
    assert_eq!(sent.len(), 1);
    let bare = write_frame(msg::GET_STATS, 0, &[]);
    let expect_msg = if v4 {
        envelope(ticket.id(), &bare)
    } else {
        bare.clone()
    };
    assert_eq!(
        sent[0], expect_msg,
        "request bytes diverge from server framing"
    );

    let wire = respond(core, ticket.id(), &reply_frame(reply));
    ingest_chunked(core, &wire, chunk_rng);

    match reply {
        Reply::Stats(counters) => expect_stats(core, ticket.id(), counters),
        Reply::Error(c, m) => match core.next_event().expect("reply produced an event") {
            Event::ServerError {
                request_id,
                code: got_code,
                message,
            } => {
                assert_eq!(request_id, ticket.id());
                assert_eq!(got_code, *c);
                assert_eq!(&message, m);
            }
            other => panic!("expected server error, got {other:?}"),
        },
        Reply::BusyThenStats(hint, counters) => {
            match core.next_event().expect("busy produced an event") {
                Event::Busy {
                    request_id,
                    retry_after_ms,
                } => {
                    assert_eq!(request_id, ticket.id());
                    assert_eq!(retry_after_ms, *hint);
                }
                other => panic!("expected busy, got {other:?}"),
            }
            assert_eq!(core.in_flight(), 1, "busy keeps the request parked");
            // re-arm: the retry goes out as the same request id with
            // the identical retained frame
            core.retry(ticket).expect("parked request retries");
            let resent = server_recv_all(&core.take_egress());
            assert_eq!(resent, vec![expect_msg], "retry re-emits the same bytes");
            let wire = respond(core, ticket.id(), &stats_frame(counters));
            ingest_chunked(core, &wire, chunk_rng);
            expect_stats(core, ticket.id(), counters);
        }
    }
    assert_eq!(core.in_flight(), 0, "exchange left a dangling request");
    assert!(core.next_event().is_none());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    // v4: scripted request/reply sequences round-trip through the
    // server transport byte-for-byte, under arbitrary chunking, with
    // pipelined ids echoed exactly.
    #[test]
    fn v4_core_roundtrips_server_framing(
        replies in proptest::collection::vec(reply_strategy(), 1..6usize),
        chunk_seed in any::<u64>(),
    ) {
        let mut core = handshaken(PROTOCOL_VERSION);
        let mut rng = StdRng::seed_from_u64(chunk_seed);
        for reply in &replies {
            exchange(&mut core, reply, &mut rng);
        }
        prop_assert!(core.is_ready());
    }

    // v3: the same exchanges, bare-framed and strictly serial.
    #[test]
    fn v3_core_roundtrips_server_framing(
        replies in proptest::collection::vec(reply_strategy(), 1..6usize),
        chunk_seed in any::<u64>(),
    ) {
        let mut core = handshaken(3);
        let mut rng = StdRng::seed_from_u64(chunk_seed);
        for reply in &replies {
            exchange(&mut core, reply, &mut rng);
        }
        prop_assert!(core.is_ready());
    }
}

/// A BUSY park on v3 frees the serial slot: the retry goes out bare
/// and the follow-up response still maps to the parked id.
#[test]
fn v3_busy_retry_keeps_serial_bookkeeping() {
    let mut core = handshaken(3);
    let mut rng = StdRng::seed_from_u64(7);
    exchange(
        &mut core,
        &Reply::BusyThenStats(25, vec![("jobs".into(), 3)]),
        &mut rng,
    );
    // the slot is genuinely free: a fresh request is accepted
    let _ = core.submit_get_stats().expect("serial slot released");
}

/// Regression: a v4 core handed a v3-only server's handshake
/// rejection surfaces a typed [`ArkError::VersionMismatch`] — the
/// failure mode is an error return, not a hang on a reply that will
/// never come.
#[test]
fn v4_core_rejected_by_v3_server_is_typed() {
    let mut core = ClientCore::new();
    assert_eq!(core.protocol_version(), PROTOCOL_VERSION);
    let _ = core.take_egress();
    let mut wire = Vec::new();
    server_send(
        &mut wire,
        &error_frame(
            code::PROTOCOL,
            "client speaks protocol 4, server speaks 3..=3",
        ),
    );
    match core.ingest(&wire) {
        Err(ArkError::VersionMismatch { client, reason }) => {
            assert_eq!(client, PROTOCOL_VERSION);
            assert!(reason.contains("3..=3"), "reason: {reason}");
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    assert!(core.is_closed());
    assert!(core.submit_get_stats().is_err(), "closed core fails fast");
}
