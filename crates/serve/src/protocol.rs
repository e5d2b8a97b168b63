//! The blocking transport half of the `ark-serve` protocol:
//! length-prefixed [`ark_math::wire`] frames over a `std::io` byte
//! stream.
//!
//! The sans-I/O half — message kinds, error codes, the v4 request-id
//! envelope, and every control-payload codec — lives in
//! [`ark_client::protocol`] so it compiles for wasm32 too. What lives
//! here is only what needs `std::io`: [`send_message`] and
//! [`recv_message`], which move whole messages across a blocking
//! stream with the allocation bound enforced before the payload is
//! read.
//!
//! See [`ark_client::protocol`] for the full transport-shape and
//! message-kind documentation.

use std::io::{self, Read, Write};

/// What [`recv_message`] produced.
#[derive(Debug)]
pub enum Recv {
    /// One complete frame.
    Frame(Vec<u8>),
    /// The read timed out before any byte of a new message arrived
    /// (idle poll tick; only with a read timeout configured).
    Idle,
    /// The peer closed the stream at a message boundary.
    Closed,
}

/// Writes one length-prefixed message.
pub fn send_message(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    let len = u32::try_from(frame.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(frame)?;
    w.flush()
}

/// Reads exactly `buf.len()` bytes, looping over short reads and
/// timeouts. Returns `Ok(false)` if a timeout fired before the *first*
/// byte (`allow_idle`), `Ok(true)` on completion. A timeout mid-buffer
/// keeps waiting — message boundaries must never be torn — unless
/// `abort()` turns true, which surfaces as `ConnectionAborted`.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    allow_idle: bool,
    abort: &dyn Fn() -> bool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-message",
                ))
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if filled == 0 && allow_idle {
                    return Ok(false);
                }
                if abort() {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "shutdown while a message was in flight",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one length-prefixed message. `max_frame_bytes` bounds the
/// allocation *before* it happens; `abort` is polled on timeouts so a
/// shutting-down server can abandon a half-dead connection.
pub fn recv_message(
    r: &mut impl Read,
    max_frame_bytes: usize,
    abort: &dyn Fn() -> bool,
) -> io::Result<Recv> {
    let mut len_bytes = [0u8; 4];
    // a clean EOF before any length byte is a normal disconnect
    match read_full(r, &mut len_bytes, true, abort) {
        Ok(true) => {}
        Ok(false) => return Ok(Recv::Idle),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(Recv::Closed),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > max_frame_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("message length {len} outside 1..={max_frame_bytes}"),
        ));
    }
    let mut frame = vec![0u8; len];
    read_full(r, &mut frame, false, abort)?;
    Ok(Recv::Frame(frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_client::protocol::{code, decode_error, error_frame, msg, DEFAULT_MAX_FRAME_BYTES};
    use ark_math::wire::{read_frame, Cursor};

    #[test]
    fn message_roundtrip_over_a_buffer() {
        let frame = error_frame(code::EVALUATION, "level mismatch");
        let mut buf = Vec::new();
        send_message(&mut buf, &frame).unwrap();
        let mut r = io::Cursor::new(buf);
        match recv_message(&mut r, DEFAULT_MAX_FRAME_BYTES, &|| false).unwrap() {
            Recv::Frame(f) => {
                let (parsed, _) = read_frame(&f).unwrap();
                assert_eq!(parsed.kind, msg::ERROR);
                let (c, m) = decode_error(&mut Cursor::new(parsed.payload)).unwrap();
                assert_eq!(c, code::EVALUATION);
                assert_eq!(m, "level mismatch");
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn oversized_message_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = io::Cursor::new(buf);
        assert!(recv_message(&mut r, 1024, &|| false).is_err());
    }

    #[test]
    fn clean_eof_is_closed() {
        let mut r = io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            recv_message(&mut r, 1024, &|| false).unwrap(),
            Recv::Closed
        ));
    }
}
