//! # ark-serve — a batched multi-session FHE serving runtime
//!
//! The missing deployment layer over [`ark_fhe`]: ciphertexts and keys
//! leave the process through the [`ark_math::wire`] format, sessions
//! multiplex onto one server process, and evaluation rides the
//! engine's limb-parallel thread pool.
//!
//! - [`Program`] — a wire-serializable register-based HE program (the
//!   transportable counterpart of [`ark_fhe::engine::HeProgram`]); it
//!   lives in `ark_client::program` and is re-exported here;
//! - [`protocol`] — the blocking transport of the length-prefixed
//!   request/response protocol over TCP (`std::net` only, like
//!   everything in this workspace), v4 of which envelopes every
//!   post-handshake message with a request id so one connection can
//!   pipeline. Message kinds, error codes and every payload codec are
//!   sans-I/O and live in `ark_client::protocol`;
//! - [`server::Server`] — an event-driven serving fabric: one
//!   `ark-net` reactor thread owns every connection, N shard workers
//!   (work-stealing, bounded queues, typed `BUSY` load-shedding)
//!   evaluate over one shared key chain per parameter set;
//! - [`client::Client`] — a blocking client: encrypt locally, evaluate
//!   remotely (serially or pipelined via tickets), decrypt locally.
//!   A thin `TcpStream` adapter over the sans-I/O
//!   `ark_client::ClientCore` state machine (which also compiles to
//!   wasm32 for browser transports).
//!
//! See `examples/serve_roundtrip.rs` for the loopback end-to-end flow
//! on both the software and the simulated backend, and the "Serving
//! fabric" and "Client core" sections of `DESIGN.md` for the
//! architecture.

pub mod client;
pub mod protocol;
pub mod server;

pub use ark_client::program::{Program, Reg};
pub use ark_client::protocol::EngineInfo;
pub use client::{Client, ClientBuilder, Ticket};
pub use server::{Server, ServerConfig, ServerHandle};
