//! The client-facing front end, shared by the server and the router.
//!
//! A [`FrontEnd`] owns the listener and every accepted [`Conn`], and is the
//! one place (with `protocol.rs`) that knows what a client frame looks
//! like. Its owner — `server::event_loop` or the router's loop — runs the
//! poll and decides what a request *means*; the front end does everything
//! before that:
//!
//! * accept, with the connection-limit shed (`ERR Busy`, best effort,
//!   never blocking) and a back-off when `accept` itself fails;
//! * the poll-set entries and nearest-deadline scan for client sockets;
//! * read → parse → `HELLO` handshake → envelope verify, refusing what
//!   does not pass: a first frame that is not a `HELLO` offering version 4
//!   gets one bare `ERR` and a close, a frame failing its checksum gets
//!   `ERR Corrupt` (counted) with the connection kept, a bad length prefix
//!   gets `ERR` and a close;
//! * the slow-loris cut (`ERR Timeout` and a close for a peer that starts
//!   a frame but trickles it in slower than `io_timeout`; a connection
//!   idle *between* frames may wait forever) and the stuck-writer cut (a
//!   peer that stops reading replies);
//! * pipeline-cap backpressure, including resuming the parser when a
//!   completion frees a slot.
//!
//! What comes out is a list of admitted [`Request`]s; what goes back in is
//! one [`Outcome`] per request through [`FrontEnd::finish`].
//!
//! Framing is a function of connection state alone: bare frames until the
//! handshake completes, enveloped in both directions afterwards — close-path
//! `ERR`s included, which carry [`REQ_ID_NONE`].

use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::conn::{Conn, FrameStep, Outcome, ReadStatus};
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::poller::{self, Interest, PollFd};
use crate::protocol::{
    encode_frame, encode_v4, err_payload, op, unwrap_v4, v4_req_id_hint, write_frame, Builder,
    Cursor, EnvelopeError, ErrorCode, MAX_FRAME_LEN, PROTOCOL_VERSION, REQ_ID_NONE,
};

/// How long the listener stays out of the poll set after `accept` fails
/// for a reason that retrying cannot fix (`EMFILE`, `ENFILE`, `ENOMEM`):
/// the backlog stays readable, so without this the level-triggered loop
/// would spin. A connection closing ends the pause early.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Front-end counters, shared with whoever reports them (`STATS`).
#[derive(Debug, Default)]
pub struct FrontStats {
    /// Connections currently in service (gauge).
    pub conns_open: AtomicU64,
    /// Connections ever admitted into service.
    pub conns_total: AtomicU64,
    /// Frames admitted while earlier requests on the same connection were
    /// still in flight.
    pub frames_pipelined: AtomicU64,
    /// Client frames rejected by the payload-checksum trailer.
    pub crc_rejects: AtomicU64,
}

/// What the owner fixes at construction.
#[derive(Debug, Clone)]
pub struct FrontEndConfig {
    /// Slow-peer guard for partial frames and unread replies (zero
    /// disables it).
    pub io_timeout: Duration,
    /// Maximum concurrent connections; extras get `ERR Busy` and a close.
    /// Zero means unlimited.
    pub max_conns: usize,
    /// Per-connection pipelining cap.
    pub max_pipeline: usize,
    /// The `retry_after_ms` hint on the connection-limit `ERR Busy`.
    pub busy_retry_ms: u64,
    /// The `conn` (at accept) and `read` (per parsed frame) fault sites.
    pub fault: FaultPlan,
}

/// One admitted client request: handshake done, envelope verified, inner
/// payload copied out of the read buffer.
#[derive(Debug)]
pub struct Request {
    /// The connection it arrived on; pass it back to [`FrontEnd::finish`].
    pub conn_id: u64,
    /// The client's request ID, to echo in the reply envelope.
    pub req_id: u64,
    /// The operation byte.
    pub opcode: u8,
    /// The inner payload.
    pub payload: Vec<u8>,
    /// When the frame was admitted; request deadlines count from here,
    /// not from when the owner got around to it.
    pub received: Instant,
}

/// The listener plus every client connection.
pub struct FrontEnd {
    listener: TcpListener,
    cfg: FrontEndConfig,
    stats: Arc<FrontStats>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    /// Connection ids in the order [`FrontEnd::push_poll_fds`] last
    /// registered them.
    polled: Vec<u64>,
    /// Set while the listener sits out of the poll set after a failed
    /// `accept`.
    accept_paused_until: Option<Instant>,
    /// Connections that got an outcome since the last [`FrontEnd::resume`].
    touched: Vec<u64>,
}

impl FrontEnd {
    /// Take over a bound, nonblocking listener.
    pub fn new(listener: TcpListener, cfg: FrontEndConfig, stats: Arc<FrontStats>) -> FrontEnd {
        FrontEnd {
            listener,
            cfg,
            stats,
            conns: HashMap::new(),
            next_id: 0,
            polled: Vec::new(),
            accept_paused_until: None,
            touched: Vec::new(),
        }
    }

    /// Append this front end's poll-set entries — the listener, then every
    /// connection — to `fds`. The slice appended here is what
    /// [`FrontEnd::service`] wants back after the wait.
    pub fn push_poll_fds(&mut self, now: Instant, fds: &mut Vec<PollFd>) {
        if self.accept_paused_until.is_some_and(|t| now >= t) {
            self.accept_paused_until = None;
        }
        fds.push(PollFd::new(
            poller::fd_of(&self.listener),
            Interest {
                readable: self.accept_paused_until.is_none(),
                writable: false,
            },
        ));
        self.polled.clear();
        for (&id, conn) in &self.conns {
            fds.push(PollFd::new(
                poller::fd_of(&conn.stream),
                Interest {
                    readable: conn.wants_read(self.cfg.max_pipeline),
                    writable: conn.wants_write(),
                },
            ));
            self.polled.push(id);
        }
    }

    /// The soonest instant this front end needs the loop awake for: a
    /// slow-peer or stuck-writer deadline, or the end of an accept pause.
    pub fn nearest_deadline(&self) -> Option<Instant> {
        self.conns
            .values()
            .flat_map(|c| [c.read_deadline, c.write_deadline])
            .chain([self.accept_paused_until])
            .flatten()
            .min()
    }

    /// Act on the readiness `poll` reported for the entries
    /// [`FrontEnd::push_poll_fds`] appended: accept, read, parse, write,
    /// enforce deadlines, reap. Admitted requests are appended to `out`.
    pub fn service(&mut self, ready: &[PollFd], now: Instant, out: &mut Vec<Request>) {
        if ready[0].ready.readable {
            self.accept_ready(now);
        }
        let polled = std::mem::take(&mut self.polled);
        for (&id, fd) in polled.iter().zip(&ready[1..]) {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            let ready = fd.ready;
            let mut close = false;
            if ready.readable || ready.hangup {
                close = match conn.read_some() {
                    Err(_) => true,
                    Ok(status) => {
                        let dead = admit(&self.cfg, &self.stats, id, conn, out);
                        if !dead && status == ReadStatus::Eof {
                            conn.close_input();
                        }
                        dead
                    }
                };
            }
            if !close && (ready.writable || conn.wants_write()) {
                close = conn.try_write(self.cfg.io_timeout).is_err();
            }
            if !close {
                if conn.read_deadline.is_some_and(|d| now >= d) {
                    // slow loris: started a frame, trickled it in too slowly
                    fail(conn, ErrorCode::Timeout, "slow peer: frame stalled");
                    let _ = conn.try_write(self.cfg.io_timeout);
                }
                // stuck writer: the peer stopped accepting our replies
                close = conn.write_deadline.is_some_and(|d| now >= d);
            }
            if close || conn.finished() {
                self.close(id);
            }
        }
        self.polled = polled;
    }

    /// Resolve one admitted request. The reply is written on the next
    /// [`FrontEnd::resume`]; an outcome for a connection already gone is
    /// dropped.
    pub fn finish(&mut self, conn_id: u64, outcome: Outcome) {
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.finish(outcome);
            self.touched.push(conn_id);
        }
    }

    /// Follow up on every connection that got an outcome since the last
    /// call: admit buffered frames into the freed pipeline slots, flush,
    /// reap. The admission pass is load-bearing: a burst past
    /// `max_pipeline` sits fully drained into `Conn::read_buf`, where
    /// level-triggered poll will never see it again — completions are the
    /// only edge that frees slots, so completions must re-run the parser.
    pub fn resume(&mut self, out: &mut Vec<Request>) {
        let mut ids = std::mem::take(&mut self.touched);
        ids.sort_unstable();
        ids.dedup();
        for id in ids.drain(..) {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            if admit(&self.cfg, &self.stats, id, conn, out)
                || conn.try_write(self.cfg.io_timeout).is_err()
                || conn.finished()
            {
                self.close(id);
            }
        }
        self.touched = ids;
    }

    /// Is this connection still in service?
    pub fn is_open(&self, conn_id: u64) -> bool {
        self.conns.contains_key(&conn_id)
    }

    /// Drop a connection now (a no-op if it is already gone).
    fn close(&mut self, conn_id: u64) {
        if self.conns.remove(&conn_id).is_some() {
            self.stats.conns_open.fetch_sub(1, Ordering::Relaxed);
            // a descriptor just came back: accept may work again
            self.accept_paused_until = None;
        }
    }

    /// One lap of the post-shutdown flush, which the owner repeats for a
    /// bounded grace so `SHUTDOWN` clients actually see `OK_BYE`: write
    /// what is buffered, then drop every connection with nothing left to
    /// write and no request still owed an outcome. Nothing is read or
    /// admitted any more. Returns `true` while connections remain.
    pub fn flush_lap(&mut self) -> bool {
        let io_timeout = self.cfg.io_timeout;
        self.conns.retain(|_, conn| {
            conn.try_write(io_timeout).is_ok() && (conn.wants_write() || conn.in_flight > 0)
        });
        let left = self.conns.len();
        self.stats.conns_open.store(left as u64, Ordering::Relaxed);
        left > 0
    }

    /// Accept everything the backlog has (the listener is level-triggered,
    /// but draining it now saves poll round-trips under an accept storm).
    fn accept_ready(&mut self, now: Instant) {
        loop {
            let mut stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // that one connection died in the backlog; the rest are fine
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                // out of descriptors or memory: the backlog stays readable,
                // so stop watching the listener until a connection closes
                // or the back-off runs out
                Err(_) => {
                    self.accept_paused_until = Some(now + ACCEPT_BACKOFF);
                    return;
                }
            };
            if self.cfg.fault.trip(FaultSite::Conn) == Some(FaultAction::Drop) {
                continue; // spurious connection drop before the first frame
            }
            // nonblocking *before* any write, so a peer that connects with
            // a full receive window costs one WouldBlock, not a stalled loop
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue;
            }
            if self.cfg.max_conns != 0 && self.conns.len() >= self.cfg.max_conns {
                // Best-effort rejection: the frame is small enough to fit a
                // fresh send buffer in practice; a peer that misses it
                // still sees the close.
                let _ = write_frame(
                    &mut stream,
                    op::ERR,
                    &err_payload(
                        ErrorCode::Busy,
                        "connection limit reached",
                        Some(self.cfg.busy_retry_ms),
                    ),
                );
                continue;
            }
            self.conns.insert(self.next_id, Conn::new(stream));
            self.next_id += 1;
            self.stats.conns_open.fetch_add(1, Ordering::Relaxed);
            self.stats.conns_total.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Queue an `ERR` that belongs to the connection rather than to a request
/// — bare before the handshake, enveloped under [`REQ_ID_NONE`] after —
/// and close once it flushes.
fn fail(conn: &mut Conn, code: ErrorCode, msg: &str) {
    let payload = err_payload(code, msg, None);
    conn.fail_and_close(if conn.greeted {
        encode_v4(op::ERR, REQ_ID_NONE, &payload)
    } else {
        encode_frame(op::ERR, &payload)
    });
}

/// Peel complete frames off the read buffer into pipeline slots. Called
/// after a socket read, and again after completions free in-flight slots —
/// frames past the pipeline cap (or arriving just before a peer EOF) live
/// only in `Conn::read_buf`, invisible to `poll`. Returns `true` when the
/// connection must close immediately.
fn admit(
    cfg: &FrontEndConfig,
    stats: &FrontStats,
    id: u64,
    conn: &mut Conn,
    out: &mut Vec<Request>,
) -> bool {
    let mut extracted = false;
    while conn.can_extract(cfg.max_pipeline) {
        let greeted = conn.greeted;
        let (opcode, payload) = match conn.next_frame() {
            FrameStep::Incomplete => break,
            FrameStep::BadLength(len) => {
                // cannot resync the stream after a bad length: reply, close
                let code = if len > MAX_FRAME_LEN {
                    ErrorCode::TooLarge
                } else {
                    ErrorCode::Malformed
                };
                fail(conn, code, &format!("bad frame length {len}"));
                break;
            }
            FrameStep::Frame { opcode, payload } => (opcode, payload),
        };
        extracted = true;
        // The read fault site fires per parsed frame: a drop severs the
        // connection mid-stream, a stall stalls the loop — which is what a
        // stalled read would do to any single-threaded reactor — and a
        // bitflip corrupts one payload byte in flight, which the checksum
        // below must turn into `ERR Corrupt`.
        match cfg.fault.trip(FaultSite::Read) {
            Some(FaultAction::Drop) => return true,
            Some(FaultAction::BitFlip) if !payload.is_empty() => {
                payload[payload.len() / 2] ^= 0x20;
            }
            _ => {}
        }
        if !greeted {
            // The handshake is answered inline, never by the owner: it
            // must settle the framing before the next pipelined frame is
            // parsed. A later HELLO is just an enveloped frame with an
            // opcode no dispatcher knows.
            let offered = (opcode == op::HELLO)
                .then(|| Cursor::new(payload).u16().ok())
                .flatten();
            if offered.is_some_and(|v| v >= PROTOCOL_VERSION) {
                conn.greeted = true;
                conn.enqueue(&encode_frame(
                    op::OK_HELLO,
                    &Builder::new().u16(PROTOCOL_VERSION).build(),
                ));
                continue;
            }
            fail(
                conn,
                ErrorCode::Malformed,
                &format!(
                    "protocol version {PROTOCOL_VERSION} required: \
                     open the connection with HELLO offering it"
                ),
            );
            break;
        }
        // Verify the checksum trailer against the read buffer before any
        // byte reaches a decoder, and copy the inner payload out once. A
        // mismatch rejects the *frame* — the connection keeps serving, and
        // the best-effort ID lets the client correlate the refusal.
        match unwrap_v4(opcode, payload) {
            Ok((req_id, inner)) => {
                let payload = inner.to_vec();
                if conn.in_flight > 0 {
                    stats.frames_pipelined.fetch_add(1, Ordering::Relaxed);
                }
                conn.in_flight += 1;
                out.push(Request {
                    conn_id: id,
                    req_id,
                    opcode,
                    payload,
                    received: Instant::now(),
                });
            }
            Err(e) => {
                let hint = v4_req_id_hint(payload);
                let (code, msg) = match e {
                    EnvelopeError::Checksum => {
                        stats.crc_rejects.fetch_add(1, Ordering::Relaxed);
                        (ErrorCode::Corrupt, "frame failed payload checksum")
                    }
                    EnvelopeError::TooShort => {
                        (ErrorCode::Malformed, "frame shorter than its envelope")
                    }
                };
                conn.enqueue(&encode_v4(op::ERR, hint, &err_payload(code, msg, None)));
            }
        }
    }
    conn.compact();
    conn.update_read_deadline(cfg.io_timeout, extracted);
    false
}
