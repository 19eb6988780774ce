//! Per-connection state machine for the event-driven front end.
//!
//! Each accepted socket gets a [`Conn`]: a nonblocking stream plus the
//! buffers and bookkeeping that used to live on a dedicated thread's stack.
//! The event loop drives it with small nonblocking steps — [`read_some`]
//! pulls available bytes, [`next_frame`] peels complete frames off the read
//! buffer (a frame split across arbitrarily many TCP segments is fine; no
//! thread ever parks mid-frame), and [`try_write`] pushes buffered reply
//! bytes until the socket pushes back.
//!
//! Pipelining: a client may send many frames without waiting for replies.
//! Requests execute concurrently across the worker pool and every reply
//! flushes the moment it completes — each frame carries a request ID the
//! peer correlates on, so one slow request never head-of-line blocks the
//! connection. The in-flight count (`in_flight`, released by [`finish`])
//! is the backpressure: past the pipeline cap the loop simply stops reading
//! this socket, so a flooding client blocks on TCP instead of ballooning
//! the queue.
//!
//! The one piece of framing state is `greeted`: frames are bare until the
//! `HELLO` handshake completes and enveloped afterwards (see
//! `protocol.rs`). The front end flips it; `Conn` itself never looks
//! inside a frame.
//!
//! [`read_some`]: Conn::read_some
//! [`next_frame`]: Conn::next_frame
//! [`try_write`]: Conn::try_write
//! [`finish`]: Conn::finish

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::protocol::MAX_FRAME_LEN;

/// How a finished request leaves the connection.
#[derive(Debug)]
pub enum Outcome {
    /// Write the frame; the connection stays open.
    Reply(Vec<u8>),
    /// Write the bytes (a whole frame, or a deliberately torn prefix under
    /// fault injection), then close once the write buffer drains.
    ReplyThenClose(Vec<u8>),
    /// Close without writing anything for this request (injected
    /// `write.drop`); earlier buffered replies still flush.
    CloseSilent,
}

/// One step of the incremental frame parser.
#[derive(Debug)]
pub enum FrameStep<'a> {
    /// Not enough buffered bytes for a complete frame yet.
    Incomplete,
    /// A complete `len | opcode | payload` frame.
    Frame {
        /// The operation byte.
        opcode: u8,
        /// The payload bytes after the opcode, still in the read buffer:
        /// the caller verifies them in place and copies out only what it
        /// keeps (mutable so the `read.bitflip` fault can damage them).
        payload: &'a mut [u8],
    },
    /// The length prefix is zero or over [`MAX_FRAME_LEN`]; the stream can
    /// never be re-synchronized past it.
    BadLength(u32),
}

/// Result of [`Conn::read_some`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// Socket drained to `WouldBlock`; more may arrive later.
    Open,
    /// Peer closed its write half (any bytes read first are buffered).
    Eof,
}

/// Per-connection state machine: incremental frame parsing in, replies out
/// in completion order, with slow-peer and slow-reader deadlines.
pub struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    read_buf: Vec<u8>,
    read_pos: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Slow-peer budget: set while the head of the read buffer is a partial
    /// frame, cleared/reset by [`Conn::update_read_deadline`].
    pub read_deadline: Option<Instant>,
    /// Budget for the peer to accept buffered reply bytes; reset whenever a
    /// write makes progress.
    pub write_deadline: Option<Instant>,
    /// Requests admitted (the front end counts them in) but not yet
    /// resolved into the write buffer by [`Conn::finish`].
    pub in_flight: usize,
    /// Peer closed its write half: no further *bytes* will arrive, but
    /// complete frames already buffered still parse and get answered.
    eof: bool,
    /// No further frames will be *parsed*: an unrecoverable framing error,
    /// a failure outcome queued by the loop, or a close-carrying outcome.
    input_dead: bool,
    /// Close as soon as the write buffer drains.
    closing: bool,
    /// The `HELLO` handshake completed: every later frame, in both
    /// directions, is enveloped. The front end flips it.
    pub greeted: bool,
}

impl Conn {
    /// Wrap an accepted, already-nonblocking socket.
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            read_pos: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            read_deadline: None,
            write_deadline: None,
            in_flight: 0,
            eof: false,
            input_dead: false,
            closing: false,
            greeted: false,
        }
    }

    /// Pull whatever the socket has buffered. `Err` means the transport
    /// failed and the connection should be dropped.
    pub fn read_some(&mut self) -> io::Result<ReadStatus> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(ReadStatus::Eof),
                Ok(n) => self.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadStatus::Open),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Try to peel one complete frame off the read buffer. Peer EOF does
    /// not stop parsing — frames that arrived before the close still get
    /// served; only a dead input (framing error, queued close) does.
    pub fn next_frame(&mut self) -> FrameStep<'_> {
        if self.input_dead {
            return FrameStep::Incomplete;
        }
        let avail = &self.read_buf[self.read_pos..];
        if avail.len() < 4 {
            return FrameStep::Incomplete;
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len == 0 || len > MAX_FRAME_LEN {
            self.input_dead = true;
            return FrameStep::BadLength(len);
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return FrameStep::Incomplete;
        }
        let frame = &mut self.read_buf[self.read_pos..self.read_pos + total];
        self.read_pos += total;
        FrameStep::Frame {
            opcode: frame[4],
            payload: &mut frame[5..],
        }
    }

    /// Drop consumed bytes so the read buffer does not grow without bound.
    pub fn compact(&mut self) {
        if self.read_pos > 0 {
            self.read_buf.drain(..self.read_pos);
            self.read_pos = 0;
        }
    }

    /// `true` while the head of the read buffer is a *partial* frame — the
    /// only state where the peer (not our backpressure) is what we wait on.
    fn head_is_partial_frame(&self) -> bool {
        let avail = &self.read_buf[self.read_pos..];
        if avail.is_empty() {
            return false;
        }
        if avail.len() < 4 {
            return true;
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len == 0 || len > MAX_FRAME_LEN {
            // a bad length is terminal, not slow
            return false;
        }
        avail.len() < 4 + len as usize
    }

    /// `true` while a *complete* frame heads the read buffer, waiting for a
    /// free pipeline slot to admit it.
    pub fn has_buffered_frame(&self) -> bool {
        if self.input_dead {
            return false;
        }
        let avail = &self.read_buf[self.read_pos..];
        if avail.len() < 4 {
            return false;
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        // a bad length is extractable too: next_frame() must get to report
        // it so the loop can answer with ERR and close
        len == 0 || len > MAX_FRAME_LEN || avail.len() >= 4 + len as usize
    }

    /// Recompute the slow-peer deadline after a read/parse pass. The clock
    /// runs only while a partial frame heads the buffer (a complete frame
    /// held back by pipeline backpressure is *our* stall, not the peer's)
    /// and restarts whenever a frame completed this pass, giving each frame
    /// its own `io_timeout` budget like the old blocking reader.
    pub fn update_read_deadline(&mut self, io_timeout: Duration, extracted: bool) {
        if io_timeout.is_zero() || self.eof || self.input_dead || !self.head_is_partial_frame() {
            self.read_deadline = None;
        } else if extracted || self.read_deadline.is_none() {
            self.read_deadline = Some(Instant::now() + io_timeout);
        }
    }

    /// Resolve one admitted request: its slot frees and its outcome goes
    /// to the write buffer now, in completion order — the peer correlates
    /// by the request ID inside the frame. Once a close is queued, later
    /// outcomes are dropped.
    pub fn finish(&mut self, outcome: Outcome) {
        self.in_flight = self.in_flight.saturating_sub(1);
        if !self.closing {
            self.apply_outcome(outcome);
        }
    }

    fn apply_outcome(&mut self, out: Outcome) {
        match out {
            Outcome::Reply(frame) => self.write_buf.extend_from_slice(&frame),
            Outcome::ReplyThenClose(frame) => {
                self.write_buf.extend_from_slice(&frame);
                self.input_dead = true;
                self.closing = true;
            }
            Outcome::CloseSilent => {
                self.input_dead = true;
                self.closing = true;
            }
        }
    }

    /// Mark the read side finished (peer EOF): stop watching the socket and
    /// stop the slow-peer clock. In-flight requests still complete and
    /// flush, and complete frames already buffered still get served.
    pub fn close_input(&mut self) {
        self.eof = true;
        self.read_deadline = None;
    }

    /// Queue a connection-scoped error frame and close after it flushes;
    /// requests still in flight lose their replies with the connection.
    /// Kills the input side and the slow-peer clock immediately, so the
    /// deadline fires exactly once instead of spinning the loop at a zero
    /// poll timeout.
    pub fn fail_and_close(&mut self, frame: Vec<u8>) {
        self.read_deadline = None;
        if !self.closing {
            self.apply_outcome(Outcome::ReplyThenClose(frame));
        }
    }

    /// Append already-encoded frame bytes directly to the write buffer,
    /// outside the in-flight accounting: replies the front end writes
    /// itself (`OK_HELLO`, `ERR Corrupt`), and the requests the router
    /// sends on its *outbound* (backend-facing) connections, whose replies
    /// come back through [`Conn::read_some`]/[`Conn::next_frame`] and are
    /// correlated by the caller.
    pub fn enqueue(&mut self, frame: &[u8]) {
        self.write_buf.extend_from_slice(frame);
    }

    /// Push buffered reply bytes until the socket pushes back. Progress
    /// resets the write deadline; a stalled, non-empty buffer keeps it
    /// running so a peer that never reads gets cut loose.
    pub fn try_write(&mut self, io_timeout: Duration) -> io::Result<()> {
        let mut progressed = false;
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.write_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
            self.write_deadline = None;
        } else if !io_timeout.is_zero() && (progressed || self.write_deadline.is_none()) {
            self.write_deadline = Some(Instant::now() + io_timeout);
        }
        Ok(())
    }

    /// Should the poll set watch this socket for input?
    pub fn wants_read(&self, max_pipeline: usize) -> bool {
        !self.eof && self.can_extract(max_pipeline)
    }

    /// May another frame be parsed off the read buffer right now? Unlike
    /// [`Conn::wants_read`] this stays true after peer EOF: bytes already in
    /// userspace owe nothing to the socket.
    pub fn can_extract(&self, max_pipeline: usize) -> bool {
        !self.input_dead && self.in_flight < max_pipeline.max(1)
    }

    /// Are there reply bytes waiting for the socket?
    pub fn wants_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// Nothing left to do: all output flushed and no more input or
    /// in-flight work can produce any. After a peer EOF, buffered complete
    /// frames count as pending work — they still get served.
    pub fn finished(&self) -> bool {
        !self.wants_write()
            && (self.closing
                || (self.in_flight == 0
                    && (self.input_dead || (self.eof && !self.has_buffered_frame()))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::encode_frame as frame;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nodelay(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    fn read_until(conn: &mut Conn, want: usize) {
        let t0 = std::time::Instant::now();
        while conn.read_buf.len() - conn.read_pos < want {
            conn.read_some().unwrap();
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "peer bytes never arrived"
            );
        }
    }

    #[test]
    fn parses_frames_split_at_arbitrary_boundaries() {
        let (mut peer, server) = pair();
        let mut conn = Conn::new(server);
        let f = frame(0x02, &[7, 8, 9, 10, 11]);
        // drip the frame one byte at a time; every prefix must parse as
        // Incomplete and the final byte must complete it
        for (i, b) in f.iter().enumerate() {
            peer.write_all(&[*b]).unwrap();
            read_until(&mut conn, i + 1);
            match conn.next_frame() {
                FrameStep::Incomplete if i + 1 < f.len() => {}
                FrameStep::Frame { opcode, payload } if i + 1 == f.len() => {
                    assert_eq!(opcode, 0x02);
                    assert_eq!(payload, [7, 8, 9, 10, 11]);
                    return;
                }
                step => panic!("unexpected step at byte {i}: {step:?}"),
            }
        }
    }

    #[test]
    fn parses_multiple_frames_from_one_read() {
        let (mut peer, server) = pair();
        let mut conn = Conn::new(server);
        let mut bytes = frame(0x01, b"aa");
        bytes.extend_from_slice(&frame(0x02, b"bbb"));
        bytes.extend_from_slice(&frame(0x03, b""));
        peer.write_all(&bytes).unwrap();
        read_until(&mut conn, bytes.len());
        for (op, body) in [(0x01u8, &b"aa"[..]), (0x02, b"bbb"), (0x03, b"")] {
            match conn.next_frame() {
                FrameStep::Frame { opcode, payload } => {
                    assert_eq!(opcode, op);
                    assert_eq!(payload, body);
                }
                step => panic!("expected frame {op:#x}, got {step:?}"),
            }
        }
        assert!(matches!(conn.next_frame(), FrameStep::Incomplete));
        conn.compact();
        assert!(conn.read_buf.is_empty());
    }

    #[test]
    fn zero_and_oversized_lengths_are_terminal() {
        for bad in [0u32, MAX_FRAME_LEN + 1, u32::MAX] {
            let (mut peer, server) = pair();
            let mut conn = Conn::new(server);
            peer.write_all(&bad.to_le_bytes()).unwrap();
            read_until(&mut conn, 4);
            match conn.next_frame() {
                FrameStep::BadLength(len) => assert_eq!(len, bad),
                step => panic!("expected BadLength, got {step:?}"),
            }
            // the stream is unrecoverable: no further parsing
            assert!(matches!(conn.next_frame(), FrameStep::Incomplete));
            assert!(!conn.wants_read(64));
        }
    }

    #[test]
    fn replies_flush_in_completion_order() {
        let (_peer, server) = pair();
        let mut conn = Conn::new(server);
        conn.in_flight = 3;
        // completion order C, A, B flushes as C, A, B — the peer
        // correlates by request ID, not arrival order
        conn.finish(Outcome::Reply(b"C".to_vec()));
        assert_eq!(&conn.write_buf, b"C", "no hold-back behind slower requests");
        conn.finish(Outcome::Reply(b"A".to_vec()));
        conn.finish(Outcome::Reply(b"B".to_vec()));
        assert_eq!(&conn.write_buf, b"CAB");
        assert_eq!(conn.in_flight, 0);
        assert!(!conn.finished(), "open connection with unflushed bytes");
    }

    #[test]
    fn close_carrying_outcome_stops_the_connection() {
        let (_peer, server) = pair();
        let mut conn = Conn::new(server);
        conn.in_flight = 2;
        conn.finish(Outcome::ReplyThenClose(b"bye".to_vec()));
        assert!(!conn.wants_read(64), "no reads after a close is queued");
        // a late completion for a later request is silently dropped
        conn.finish(Outcome::Reply(b"late".to_vec()));
        assert_eq!(&conn.write_buf, b"bye");
    }

    #[test]
    fn backpressure_with_complete_head_frame_is_not_a_slow_peer() {
        let (mut peer, server) = pair();
        let mut conn = Conn::new(server);
        let mut bytes = frame(0x02, b"x");
        bytes.extend_from_slice(&frame(0x02, b"y"));
        peer.write_all(&bytes).unwrap();
        read_until(&mut conn, bytes.len());
        let FrameStep::Frame { .. } = conn.next_frame() else {
            panic!("first frame should parse");
        };
        // second frame is complete but unparsed (as if the pipeline cap
        // hit): the slow-peer clock must NOT run
        conn.update_read_deadline(Duration::from_millis(50), true);
        assert!(conn.read_deadline.is_none());
        // now a partial third frame heads the buffer: clock runs
        conn.compact();
        let FrameStep::Frame { .. } = conn.next_frame() else {
            panic!("second frame should parse");
        };
        peer.write_all(&[9, 9]).unwrap();
        read_until(&mut conn, 2);
        conn.update_read_deadline(Duration::from_millis(50), true);
        assert!(conn.read_deadline.is_some());
    }

    #[test]
    fn write_flush_clears_deadline_and_finishes_closing_conn() {
        let (mut peer, server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server);
        conn.in_flight = 1;
        conn.finish(Outcome::ReplyThenClose(b"done".to_vec()));
        assert!(conn.wants_write());
        conn.try_write(Duration::from_secs(1)).unwrap();
        assert!(!conn.wants_write());
        assert!(conn.write_deadline.is_none());
        assert!(conn.finished());
        let mut got = [0u8; 4];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"done");
    }
}
