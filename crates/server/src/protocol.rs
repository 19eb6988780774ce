//! Length-prefixed binary wire protocol for the solve service.
//!
//! There is one protocol, version 4. Every frame on the wire is
//! length-prefixed (all integers little-endian, values IEEE-754 bits):
//!
//! ```text
//! | u32 len | u8 opcode | payload (len - 1 bytes) |
//! ```
//!
//! `len` counts the opcode byte plus the payload, so an empty-payload frame
//! has `len == 1`. Frames larger than [`MAX_FRAME_LEN`] are rejected before
//! any allocation, which is what lets the server shrug off garbage length
//! prefixes.
//!
//! # Framing rule: bare before `OK_HELLO`, enveloped after
//!
//! A connection opens with a handshake of two *bare* frames: the peer
//! sends `HELLO` carrying the highest version it speaks, and the service
//! answers `OK_HELLO` with `min(theirs, PROTOCOL_VERSION)`. The handshake
//! stays in the protocol so that a future version can be negotiated; today
//! the only acceptable outcome is 4. A first frame that is not `HELLO`, or
//! a `HELLO` offering less than 4, gets one bare `ERR` naming the required
//! version and the connection closes — there is no downgrade. The only
//! other bare frame is the `ERR Busy` a full front end writes at accept,
//! before any handshake.
//!
//! After `OK_HELLO`, every frame in *both* directions wraps its payload in
//! the envelope:
//!
//! ```text
//! | u32 len | u8 opcode | u64 req_id | inner payload | ck_lo u64 | ck_hi u64 |
//! ```
//!
//! `req_id` is chosen by the requester (any 64-bit value; typically a
//! per-connection counter) and echoed verbatim in the reply, so replies
//! arrive in completion order and a receiver correlates them by ID. The
//! 16-byte trailer is the two-lane FNV-1a checksum
//! [`Fingerprint::of_tagged_bytes`]`(opcode, req_id ‖ inner)`: it covers
//! the opcode, the request ID, and the payload, so any wire corruption
//! that slips past TCP (or is injected by the `read.bitflip` /
//! `write.bitflip` fault sites) is rejected as `ERR Corrupt` instead of
//! being parsed — length framing alone cannot see a flipped bit.
//! [`encode_v4`] builds a whole enveloped frame, [`wrap_v4`] just the
//! enveloped payload, and [`unwrap_v4`] verifies and strips it.
//!
//! An `ERR` that belongs to the connection rather than to one request
//! (bad length prefix, slow-peer timeout) is enveloped like any other
//! frame and carries [`REQ_ID_NONE`]; so does the `ERR Corrupt` answering
//! a frame too short to hold an ID.
//!
//! Request opcodes (inner payloads):
//!
//! | op | name | payload |
//! |------|----------|---------|
//! | 0x01 | LOAD     | `u64 nrows, ncols, nnz`, `colptr[(ncols+1)·u64]`, `rowidx[nnz·u64]`, `values[nnz·f64]` |
//! | 0x02 | SOLVE    | `fingerprint[16]`, `u64 deadline_ms`, `u64 n`, `rhs[n·f64]`, optional `u8 flags` |
//! | 0x03 | STATS    | empty |
//! | 0x04 | EVICT    | `fingerprint[16]` |
//! | 0x05 | SHUTDOWN | empty |
//! | 0x06 | HELLO    | `u16 highest_version` (bare; first frame only) |
//!
//! `deadline_ms` is the client's end-to-end budget for the request,
//! measured from when the server finishes reading the frame; `0` means
//! "no preference". The server clamps it to its own `--deadline-cap-ms`,
//! so a deadline is always in force. A request that cannot be answered in
//! time gets `ERR Deadline` rather than an answer — including when it is
//! already boarded in a batch lane (an expired boarder is expelled at seal
//! time so it cannot stall the batch's other riders).
//!
//! The trailing `flags` byte is optional: a SOLVE that omits it is treated
//! as `flags == 0`. Bit 0 ([`SOLVE_FLAG_CERTIFIED`]) requests a *certified*
//! solve: the server runs iterative refinement against the retained
//! original matrix and the reply carries the refinement certificate. Other
//! bits are reserved and must be zero.
//!
//! Response opcodes (inner payloads):
//!
//! | op | name | payload |
//! |------|------------|---------|
//! | 0x81 | OK_LOADED  | `fingerprint[16]`, `u64 n`, `u64 factor_nnz`, `u8 already_cached` |
//! | 0x82 | OK_SOLVED  | `u64 n`, `x[n·f64]`, then for certified solves `u32 iterations`, `f64 backward_error`, `u8 certified` |
//! | 0x83 | OK_STATS   | `u64 count`, then per stat `u16 keylen`, key bytes, `u64 value` |
//! | 0x84 | OK_EVICTED | `u8 existed`, then optional per-replica outcomes (see below) |
//! | 0x85 | OK_BYE     | empty |
//! | 0x86 | OK_HELLO   | `u16 negotiated_version` (bare) |
//! | 0xFF | ERR        | `u16 code`, `u32 msglen`, UTF-8 message, then code-specific extras |
//!
//! An `ERR` with code [`ErrorCode::Busy`] carries one extra trailing field,
//! `u64 retry_after_ms` — the server's backoff hint for the shed request.
//! Other codes carry no extras; decoders must ignore trailing bytes they do
//! not understand so future codes can add fields compatibly.
//!
//! `OK_EVICTED` from a *router* (the sharded front tier in
//! `trisolv-router`) appends per-replica outcomes after the `u8 existed`
//! aggregate: `u8 count`, then per replica `u16 addrlen`, the backend
//! address bytes, and a `u8` status (`0` = not resident, `1` = evicted,
//! `2` = unreachable). Single-server replies omit the trailer entirely;
//! [`crate::client::Client::evict`] ignores it and
//! [`crate::client::Client::evict_detailed`] decodes it.
//!
//! `OK_STATS` pairs are written by [`encode_stats`] and read by
//! [`decode_stats`], the only codec for them. A server sends one pair per
//! row of the engine's counter table (`engine.rs`, in table order); a
//! router sends the per-key *sum* over its backends, sorted by key, then
//! one pair per row of its own `router_*` table. README.md's STATS table
//! defines every key.
//!
//! Error codes are in [`ErrorCode`]. Protocol errors on a decodable frame
//! produce an `ERR` reply and leave the connection open; an undecodable
//! frame (bad length prefix) produces an `ERR` and then a close, since the
//! stream can no longer be re-synchronized.

/// The protocol revision this module implements, and the only one the
/// service accepts: `HELLO`/`OK_HELLO` handshake, then the request-ID +
/// checksum envelope on every frame. Carried in the handshake so a later
/// revision can be negotiated.
pub const PROTOCOL_VERSION: u16 = 4;

/// Per-frame envelope overhead: the leading `u64 req_id` plus the 16-byte
/// checksum trailer.
pub const V4_ENVELOPE_BYTES: usize = 8 + 16;

/// The request ID of an enveloped frame that answers no particular
/// request: connection-scoped `ERR`s, and the echo for a frame too damaged
/// to yield an ID.
pub const REQ_ID_NONE: u64 = 0;

/// SOLVE `flags` bit 0: run iterative refinement and return the certificate
/// (`u32 iterations`, `f64 backward_error`, `u8 certified`) after `x`.
pub const SOLVE_FLAG_CERTIFIED: u8 = 0x01;

use std::io::{self, Read, Write};

use crate::engine::EngineError;
use crate::fingerprint::Fingerprint;

/// Hard cap on a frame's `len` field (64 MiB) — bounds allocation from a
/// hostile or corrupt length prefix.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Request opcodes.
pub mod op {
    /// Factor a matrix and cache it.
    pub const LOAD: u8 = 0x01;
    /// Solve one RHS against a cached factor.
    pub const SOLVE: u8 = 0x02;
    /// Fetch engine counters.
    pub const STATS: u8 = 0x03;
    /// Drop a cached factor.
    pub const EVICT: u8 = 0x04;
    /// Stop the server gracefully.
    pub const SHUTDOWN: u8 = 0x05;
    /// Version handshake: `u16 highest_version`, first frame only.
    pub const HELLO: u8 = 0x06;
    /// Successful LOAD reply.
    pub const OK_LOADED: u8 = 0x81;
    /// Successful SOLVE reply.
    pub const OK_SOLVED: u8 = 0x82;
    /// Successful STATS reply.
    pub const OK_STATS: u8 = 0x83;
    /// Successful EVICT reply.
    pub const OK_EVICTED: u8 = 0x84;
    /// Acknowledged SHUTDOWN.
    pub const OK_BYE: u8 = 0x85;
    /// Successful HELLO reply: `u16 negotiated_version`.
    pub const OK_HELLO: u8 = 0x86;
    /// Error reply.
    pub const ERR: u8 = 0xFF;
}

/// Wire error codes carried in `ERR` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Frame or payload could not be decoded.
    Malformed = 1,
    /// Request opcode not recognized.
    UnknownOpcode = 2,
    /// SOLVE/EVICT fingerprint not resident.
    UnknownFingerprint = 3,
    /// SOLVE RHS length does not match the factor dimension.
    DimensionMismatch = 4,
    /// LOAD matrix failed numeric factorization.
    NotSpd = 5,
    /// Request timed out inside the service.
    Timeout = 6,
    /// Frame exceeded [`MAX_FRAME_LEN`].
    TooLarge = 7,
    /// Internal service error.
    Internal = 8,
    /// Server over its admission-control high-water mark; the ERR payload
    /// carries a trailing `u64 retry_after_ms` backoff hint.
    Busy = 9,
    /// The request's deadline expired inside the service.
    Deadline = 10,
    /// Request contained NaN/Inf matrix values or RHS entries.
    NonFinite = 11,
    /// The solve produced NaN/Inf output (numeric breakdown).
    NumericBreakdown = 12,
    /// A frame failed its payload checksum (wire corruption). The frame
    /// is rejected; the connection stays open.
    Corrupt = 13,
}

impl ErrorCode {
    /// Decode a wire value.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownOpcode,
            3 => ErrorCode::UnknownFingerprint,
            4 => ErrorCode::DimensionMismatch,
            5 => ErrorCode::NotSpd,
            6 => ErrorCode::Timeout,
            7 => ErrorCode::TooLarge,
            8 => ErrorCode::Internal,
            9 => ErrorCode::Busy,
            10 => ErrorCode::Deadline,
            11 => ErrorCode::NonFinite,
            12 => ErrorCode::NumericBreakdown,
            13 => ErrorCode::Corrupt,
            _ => return None,
        })
    }

    /// The wire code for an engine failure.
    pub fn of_engine_error(e: &EngineError) -> ErrorCode {
        match e {
            EngineError::UnknownFingerprint(_) => ErrorCode::UnknownFingerprint,
            EngineError::DimensionMismatch { .. } => ErrorCode::DimensionMismatch,
            EngineError::BadMatrix(_) => ErrorCode::Malformed,
            EngineError::NotSpd(_) => ErrorCode::NotSpd,
            EngineError::Timeout => ErrorCode::Timeout,
            EngineError::DeadlineExceeded => ErrorCode::Deadline,
            EngineError::Busy { .. } => ErrorCode::Busy,
            EngineError::NonFinite { .. } => ErrorCode::NonFinite,
            EngineError::NumericBreakdown => ErrorCode::NumericBreakdown,
            EngineError::Internal(_) => ErrorCode::Internal,
        }
    }
}

/// Write one frame. The header and payload go out through
/// `write_vectored`, so on a `TCP_NODELAY` socket the whole frame lands
/// in one segment and the peer wakes once, not once per `write_all`.
pub fn write_frame<W: Write>(w: &mut W, opcode: u8, payload: &[u8]) -> io::Result<()> {
    let len = 1 + payload.len();
    if len > MAX_FRAME_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME_LEN",
        ));
    }
    let mut head = [0u8; 5];
    head[..4].copy_from_slice(&(len as u32).to_le_bytes());
    head[4] = opcode;
    let total = head.len() + payload.len();
    let mut done = 0usize;
    while done < total {
        let n = if done < head.len() {
            w.write_vectored(&[io::IoSlice::new(&head[done..]), io::IoSlice::new(payload)])?
        } else {
            w.write(&payload[done - head.len()..])?
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "failed to write frame",
            ));
        }
        done += n;
    }
    w.flush()
}

/// Read one frame, enforcing [`MAX_FRAME_LEN`]. Returns `(opcode, payload)`.
/// A length of zero or above the cap yields `InvalidData` — the stream
/// cannot be re-synchronized after that.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<(u8, Vec<u8>)> {
    // header + opcode in one read: `len` counts the opcode, so every
    // well-formed frame has at least these five bytes
    let mut head = [0u8; 5];
    r.read_exact(&mut head)?;
    let len = u32::from_le_bytes(head[..4].try_into().unwrap());
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let body_len = (len - 1) as u64;
    let mut body = Vec::with_capacity(body_len as usize);
    r.take(body_len).read_to_end(&mut body)?;
    if body.len() as u64 != body_len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream closed mid-frame",
        ));
    }
    Ok((head[4], body))
}

/// A full *bare* wire frame (`len | opcode | payload`) as a byte vector —
/// the handshake frames and the pre-handshake `ERR`s; everything after
/// `OK_HELLO` goes through [`encode_v4`]. An oversized payload becomes a
/// structured `ERR` instead of a panic.
pub fn encode_frame(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(5 + payload.len());
    if write_frame(&mut frame, opcode, payload).is_err() {
        frame.clear();
        let p = err_payload(ErrorCode::Internal, "reply exceeded frame limit", None);
        write_frame(&mut frame, op::ERR, &p).expect("error frame fits");
    }
    frame
}

/// Encode an `ERR` frame payload (with the Busy retry hint when present).
pub fn err_payload(code: ErrorCode, msg: &str, retry_after_ms: Option<u64>) -> Vec<u8> {
    let bytes = msg.as_bytes();
    let mut b = Builder::new()
        .u16(code as u16)
        .u32(bytes.len() as u32)
        .bytes(bytes);
    if let Some(ms) = retry_after_ms {
        b = b.u64(ms);
    }
    b.build()
}

/// Decode an `ERR` payload into `(code, message, retry_after_ms)`. The code
/// is `None` when unrecognized; the retry hint is present only on `Busy`.
/// Trailing bytes on other codes are ignored for forward compatibility.
pub fn parse_err(payload: &[u8]) -> Result<(Option<ErrorCode>, String, Option<u64>), String> {
    let mut c = Cursor::new(payload);
    let code = c.u16()?;
    let mlen = c.u32()? as usize;
    let msg = String::from_utf8_lossy(c.bytes(mlen)?).into_owned();
    let code = ErrorCode::from_u16(code);
    let retry_after_ms = match code {
        Some(ErrorCode::Busy) => c.u64().ok(),
        _ => None,
    };
    Ok((code, msg, retry_after_ms))
}

/// Encode an `OK_STATS` payload: `u64 count`, then per pair `u16 keylen`,
/// the key bytes, `u64 value`.
pub fn encode_stats<K: AsRef<str>>(pairs: &[(K, u64)]) -> Vec<u8> {
    let mut b = Builder::new().u64(pairs.len() as u64);
    for (key, val) in pairs {
        let key = key.as_ref().as_bytes();
        b = b.u16(key.len() as u16).bytes(key).u64(*val);
    }
    b.build()
}

/// Decode an `OK_STATS` payload into its pairs, up to the first malformed
/// one (truncated, or a key that is not UTF-8). The flag says whether the
/// whole payload was clean: every announced pair decoded and no bytes
/// left over.
pub fn decode_stats(payload: &[u8]) -> (Vec<(String, u64)>, bool) {
    let mut c = Cursor::new(payload);
    let mut pairs = Vec::new();
    let clean = (|| -> Result<(), String> {
        for _ in 0..c.u64()? {
            let klen = c.u16()? as usize;
            let key = String::from_utf8(c.bytes(klen)?.to_vec()).map_err(|e| e.to_string())?;
            pairs.push((key, c.u64()?));
        }
        c.finish()
    })();
    (pairs, clean.is_ok())
}

/// A `LOAD` payload's CSC arrays: `(nrows, ncols, colptr, rowidx, values)`.
pub type LoadArrays = (usize, usize, Vec<usize>, Vec<usize>, Vec<f64>);

/// Decode a `LOAD` payload into its CSC arrays (no matrix validation; the
/// server builds the matrix, the router only fingerprints the arrays).
pub fn decode_load(payload: &[u8]) -> Result<LoadArrays, String> {
    let mut c = Cursor::new(payload);
    let nrows = c.usize()?;
    let ncols = c.usize()?;
    let nnz = c.usize()?;
    // The column-pointer array has ncols + 1 entries; the add is on
    // attacker-controlled input, so it must be checked (a huge ncols used
    // to panic in debug and wrap — skewing the sanity bound — in release).
    let cols1 = ncols.checked_add(1).ok_or("ncols overflow")?;
    // cheap sanity bound before the big allocations: the arrays must fit
    // the frame we already read
    let need = cols1
        .checked_add(nnz.checked_mul(2).ok_or("nnz overflow")?)
        .and_then(|w| w.checked_mul(8))
        .ok_or("size overflow")?;
    if need > payload.len() {
        return Err(format!(
            "LOAD arrays need {need} bytes but payload has {}",
            payload.len()
        ));
    }
    let colptr = c.usize_vec(cols1)?;
    let rowidx = c.usize_vec(nnz)?;
    let values = c.f64_vec(nnz)?;
    c.finish()?;
    Ok((nrows, ncols, colptr, rowidx, values))
}

/// Why an envelope failed to unwrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Payload shorter than `req_id` + checksum trailer.
    TooShort,
    /// The checksum trailer does not match the frame contents.
    Checksum,
}

/// The frame checksum: two-lane FNV-1a over the opcode (as the seed
/// word) followed by `req_id ‖ inner payload`, where `enveloped_prefix`
/// is the wrapped payload *without* its 16-byte trailer.
fn v4_checksum(opcode: u8, enveloped_prefix: &[u8]) -> Fingerprint {
    Fingerprint::of_tagged_bytes(u64::from(opcode), enveloped_prefix)
}

/// Wrap an inner payload in the envelope: `req_id` prefix, checksum
/// trailer. The result is the frame payload to pass to [`write_frame`]
/// with the same opcode.
pub fn wrap_v4(opcode: u8, req_id: u64, inner: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(V4_ENVELOPE_BYTES + inner.len());
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(inner);
    let ck = v4_checksum(opcode, &out);
    out.extend_from_slice(&ck.0.to_le_bytes());
    out.extend_from_slice(&ck.1.to_le_bytes());
    out
}

/// A full enveloped wire frame (`len | opcode | req_id | inner | trailer`)
/// as a byte vector, built in place — what every frame after `OK_HELLO`
/// looks like. Reply sizes are bounded by request sizes, so overflow is
/// unreachable in practice; if it ever happens the peer gets a structured
/// `ERR` under the same ID instead of a dead worker.
pub fn encode_v4(opcode: u8, req_id: u64, inner: &[u8]) -> Vec<u8> {
    let len = 1 + V4_ENVELOPE_BYTES + inner.len();
    if len > MAX_FRAME_LEN as usize {
        let p = err_payload(ErrorCode::Internal, "reply exceeded frame limit", None);
        return encode_v4(op::ERR, req_id, &p);
    }
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.push(opcode);
    frame.extend_from_slice(&req_id.to_le_bytes());
    frame.extend_from_slice(inner);
    let ck = v4_checksum(opcode, &frame[5..]);
    frame.extend_from_slice(&ck.0.to_le_bytes());
    frame.extend_from_slice(&ck.1.to_le_bytes());
    frame
}

/// Verify and strip the envelope, returning `(req_id, inner payload)`.
/// A checksum mismatch means the frame was corrupted in flight (or by a
/// `*.bitflip` fault site); the caller rejects the *frame* — with
/// `ERR Corrupt` server-side, a counted drop router-side — and keeps the
/// connection.
pub fn unwrap_v4(opcode: u8, payload: &[u8]) -> Result<(u64, &[u8]), EnvelopeError> {
    if payload.len() < V4_ENVELOPE_BYTES {
        return Err(EnvelopeError::TooShort);
    }
    let trailer_at = payload.len() - 16;
    let ck = v4_checksum(opcode, &payload[..trailer_at]);
    let lo = u64::from_le_bytes(payload[trailer_at..trailer_at + 8].try_into().unwrap());
    let hi = u64::from_le_bytes(payload[trailer_at + 8..].try_into().unwrap());
    if (ck.0, ck.1) != (lo, hi) {
        return Err(EnvelopeError::Checksum);
    }
    let req_id = u64::from_le_bytes(payload[..8].try_into().unwrap());
    Ok((req_id, &payload[8..trailer_at]))
}

/// Best-effort `req_id` of an enveloped payload that failed verification
/// — used to echo the ID on an `ERR Corrupt` reply. The ID itself sits in
/// the corrupt region, so it is a hint, not a fact; a payload too short to
/// hold one yields [`REQ_ID_NONE`].
pub fn v4_req_id_hint(payload: &[u8]) -> u64 {
    payload
        .get(..8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .unwrap_or(REQ_ID_NONE)
}

/// Incremental little-endian payload reader.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wrap a payload.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u64` and convert to `usize`, rejecting overflow.
    pub fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "size overflows usize".to_string())
    }

    /// Read `n` `u64`s as `usize`s.
    pub fn usize_vec(&mut self, n: usize) -> Result<Vec<usize>, String> {
        let raw = self.take(n.checked_mul(8).ok_or("size overflow")?)?;
        raw.chunks_exact(8)
            .map(|c| {
                usize::try_from(u64::from_le_bytes(c.try_into().unwrap()))
                    .map_err(|_| "index overflows usize".to_string())
            })
            .collect()
    }

    /// Read `n` `f64`s.
    pub fn f64_vec(&mut self, n: usize) -> Result<Vec<f64>, String> {
        let raw = self.take(n.checked_mul(8).ok_or("size overflow")?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Read `n` `f32`s (factor snapshots persist the demoted lane's values
    /// at their native width).
    pub fn f32_vec(&mut self, n: usize) -> Result<Vec<f32>, String> {
        let raw = self.take(n.checked_mul(4).ok_or("size overflow")?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Read a 16-byte fingerprint.
    pub fn fingerprint(&mut self) -> Result<Fingerprint, String> {
        Ok(Fingerprint::from_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Read an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        self.take(n)
    }

    /// Unconsumed bytes left in the payload. Lets decoders accept optional
    /// trailing fields (e.g. the SOLVE `flags` byte) without rejecting
    /// shorter frames.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail if any bytes remain unconsumed.
    pub fn finish(&self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

/// Payload builder mirroring [`Cursor`].
#[derive(Default)]
pub struct Builder {
    buf: Vec<u8>,
}

impl Builder {
    /// An empty payload.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// Append a `u8`.
    pub fn u8(mut self, v: u8) -> Builder {
        self.buf.push(v);
        self
    }

    /// Append a `u16`.
    pub fn u16(mut self, v: u16) -> Builder {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u32`.
    pub fn u32(mut self, v: u32) -> Builder {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`.
    pub fn u64(mut self, v: u64) -> Builder {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append `usize`s as `u64`s.
    pub fn usize_slice(mut self, vs: &[usize]) -> Builder {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&(v as u64).to_le_bytes());
        }
        self
    }

    /// Append an `f64` by bit pattern.
    pub fn f64(mut self, v: f64) -> Builder {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append `f64`s by bit pattern.
    pub fn f64_slice(mut self, vs: &[f64]) -> Builder {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Append `f32`s by bit pattern.
    pub fn f32_slice(mut self, vs: &[f32]) -> Builder {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Append a fingerprint (16 bytes).
    pub fn fingerprint(mut self, fp: Fingerprint) -> Builder {
        self.buf.extend_from_slice(&fp.to_bytes());
        self
    }

    /// Append raw bytes.
    pub fn bytes(mut self, bs: &[u8]) -> Builder {
        self.buf.extend_from_slice(bs);
        self
    }

    /// The finished payload.
    pub fn build(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, op::SOLVE, &[1, 2, 3]).unwrap();
        assert_eq!(buf.len(), 4 + 1 + 3);
        let (opcode, payload) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(opcode, op::SOLVE);
        assert_eq!(payload, vec![1, 2, 3]);
    }

    #[test]
    fn zero_and_oversized_lengths_rejected() {
        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut zero.as_slice()).is_err());
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err());
    }

    #[test]
    fn cursor_builder_round_trip() {
        let fp = Fingerprint(7, 9);
        let payload = Builder::new()
            .u8(3)
            .u16(512)
            .u32(70_000)
            .u64(1 << 40)
            .fingerprint(fp)
            .usize_slice(&[1, 2, 3])
            .f64_slice(&[0.5, -0.25])
            .build();
        let mut c = Cursor::new(&payload);
        assert_eq!(c.u8().unwrap(), 3);
        assert_eq!(c.u16().unwrap(), 512);
        assert_eq!(c.u32().unwrap(), 70_000);
        assert_eq!(c.u64().unwrap(), 1 << 40);
        assert_eq!(c.fingerprint().unwrap(), fp);
        assert_eq!(c.usize_vec(3).unwrap(), vec![1, 2, 3]);
        assert_eq!(c.remaining(), 16, "two f64s left");
        assert_eq!(c.f64_vec(2).unwrap(), vec![0.5, -0.25]);
        assert_eq!(c.remaining(), 0);
        c.finish().unwrap();
        // single f64 append/read round-trips by bit pattern
        let one = Builder::new().f64(-0.0).build();
        let mut c = Cursor::new(&one);
        assert_eq!(c.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        c.finish().unwrap();
        // truncation is an error, not a panic
        let mut c = Cursor::new(&payload[..3]);
        assert!(c.u32().is_err());
    }

    #[test]
    fn stats_pairs_round_trip_and_truncate_cleanly() {
        let pairs = [("hits", 3u64), ("router_failovers", u64::MAX), ("", 0)];
        let payload = encode_stats(&pairs);
        let owned: Vec<(String, u64)> = pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        assert_eq!(decode_stats(&payload), (owned.clone(), true));
        assert_eq!(decode_stats(&encode_stats::<&str>(&[])), (Vec::new(), true));
        // a truncated tail yields the intact prefix, flagged unclean
        for cut in 0..payload.len() {
            let (got, clean) = decode_stats(&payload[..cut]);
            assert!(!clean, "cut at {cut}");
            assert_eq!(got, owned[..got.len()], "cut at {cut}");
        }
        let (got, clean) = decode_stats(&payload[..payload.len() - 1]);
        assert_eq!((got.len(), clean), (2, false));
        // trailing bytes and non-UTF-8 keys are unclean too
        let mut long = payload.clone();
        long.push(0);
        assert_eq!(decode_stats(&long), (owned.clone(), false));
        let bad = Builder::new().u64(1).u16(1).bytes(&[0xFF]).u64(1).build();
        assert_eq!(decode_stats(&bad), (Vec::new(), false));
    }

    #[test]
    fn err_frame_helpers_round_trip() {
        let payload = err_payload(ErrorCode::Busy, "shed", Some(17));
        let (code, msg, hint) = parse_err(&payload).unwrap();
        assert_eq!(code, Some(ErrorCode::Busy));
        assert_eq!(msg, "shed");
        assert_eq!(hint, Some(17));
        // non-Busy codes carry no hint, and trailing junk is tolerated
        let mut payload = err_payload(ErrorCode::Timeout, "slow", None);
        payload.extend_from_slice(&[9, 9, 9]);
        let (code, msg, hint) = parse_err(&payload).unwrap();
        assert_eq!(code, Some(ErrorCode::Timeout));
        assert_eq!(msg, "slow");
        assert_eq!(hint, None);
        // encode_frame produces a parseable wire frame
        let frame = encode_frame(op::OK_BYE, &[1, 2]);
        let (opcode, body) = read_frame(&mut frame.as_slice()).unwrap();
        assert_eq!(opcode, op::OK_BYE);
        assert_eq!(body, vec![1, 2]);
        assert!(parse_err(&[1]).is_err(), "truncated ERR payload rejected");
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::UnknownOpcode,
            ErrorCode::UnknownFingerprint,
            ErrorCode::DimensionMismatch,
            ErrorCode::NotSpd,
            ErrorCode::Timeout,
            ErrorCode::TooLarge,
            ErrorCode::Internal,
            ErrorCode::Busy,
            ErrorCode::Deadline,
            ErrorCode::NonFinite,
            ErrorCode::NumericBreakdown,
            ErrorCode::Corrupt,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(999), None);
    }

    #[test]
    fn v4_envelope_round_trip() {
        let inner = [7u8, 8, 9, 10, 11];
        let wrapped = wrap_v4(op::SOLVE, 0xdead_beef_cafe_f00d, &inner);
        assert_eq!(wrapped.len(), inner.len() + V4_ENVELOPE_BYTES);
        let (rid, body) = unwrap_v4(op::SOLVE, &wrapped).unwrap();
        assert_eq!(rid, 0xdead_beef_cafe_f00d);
        assert_eq!(body, inner);
        // empty inner payload is legal (STATS, SHUTDOWN)
        let wrapped = wrap_v4(op::STATS, 3, &[]);
        let (rid, body) = unwrap_v4(op::STATS, &wrapped).unwrap();
        assert_eq!((rid, body.len()), (3, 0));
    }

    #[test]
    fn v4_envelope_rejects_corruption_everywhere() {
        let inner: Vec<u8> = (0..100).collect();
        let wrapped = wrap_v4(op::SOLVE, 42, &inner);
        // every single-bit flip in the frame is caught: req_id, payload,
        // and trailer bytes alike
        for i in 0..wrapped.len() {
            let mut bad = wrapped.clone();
            bad[i] ^= 0x10;
            assert_eq!(
                unwrap_v4(op::SOLVE, &bad),
                Err(EnvelopeError::Checksum),
                "flip at byte {i} must be caught"
            );
        }
        // a flipped opcode byte (outside the payload) is caught too
        assert_eq!(unwrap_v4(op::LOAD, &wrapped), Err(EnvelopeError::Checksum));
        // too-short payloads are structurally rejected, id hint survives
        assert_eq!(unwrap_v4(op::SOLVE, &[0; 23]), Err(EnvelopeError::TooShort));
        assert_eq!(v4_req_id_hint(&wrapped), 42);
        assert_eq!(v4_req_id_hint(&[1]), REQ_ID_NONE);
    }

    #[test]
    fn encode_v4_is_write_frame_of_wrap_v4() {
        let inner: Vec<u8> = (0..50).collect();
        let expect = encode_frame(op::OK_SOLVED, &wrap_v4(op::OK_SOLVED, 9, &inner));
        assert_eq!(encode_v4(op::OK_SOLVED, 9, &inner), expect);
    }
}
